"""Exception types raised by the simulation layers.

Most of these derive from ValueError so that generic callers can catch
bad-input conditions uniformly, while tests and the CLI can discriminate
the precise failure mode.
"""

__all__ = [
    "AliasingError",
    "BandRangeError",
    "ComplianceError",
    "ConfigError",
    "ConvergenceError",
    "CoverageError",
    "DimensionError",
    "FitError",
    "GaugeError",
    "LnoisimError",
    "NormalizationError",
    "OutcomeMismatchError",
    "TimingError",
    "TopologyError",
]


class LnoisimError(Exception):
    """Base class for every error raised by this package."""


class DimensionError(LnoisimError, ValueError):
    """A matrix or vector has the wrong shape for the requested operation."""


class NormalizationError(LnoisimError, ValueError):
    """A probability distribution does not sum to one when it must."""


class OutcomeMismatchError(LnoisimError, ValueError):
    """Two distributions were compared over different outcome sets."""


class TopologyError(LnoisimError, ValueError):
    """A mesh configuration references an invalid cell layout."""


class GaugeError(LnoisimError, ValueError):
    """A mesh configuration carries phases that the hardware cannot drive."""


class ComplianceError(LnoisimError, ValueError):
    """A requested drive voltage exceeds the electrical compliance limit."""


class AliasingError(LnoisimError, ValueError):
    """A waveform is sampled too slowly for the requested analog bandwidth."""


class BandRangeError(LnoisimError, ValueError):
    """A wavelength lies outside the modeled band of a component."""


class TimingError(LnoisimError, ValueError):
    """A pulse program does not cover the simulated photon train."""


class CoverageError(LnoisimError, ValueError):
    """A measurement set is missing data required by an estimator."""


class FitError(LnoisimError, RuntimeError):
    """A least-squares fit failed or the data cannot constrain it."""


class ConvergenceError(LnoisimError, RuntimeError):
    """An iterative solver failed to converge.

    The best iterate found so far is attached as ``best_result`` so callers
    can inspect how close the solver got.
    """

    def __init__(self, message, best_result=None):
        super().__init__(message)
        self.best_result = best_result


class ConfigError(LnoisimError, ValueError):
    """A run configuration failed schema validation."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(str(d) for d in self.diagnostics) or "invalid config")

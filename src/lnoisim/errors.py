"""Exception types that the CLI tells apart.

Bad input to a library call (a wrong shape, an invalid layout, a value out
of range) raises plain ``ValueError``. A scalar parameter (a tolerance, a
threshold, a dataclass field) refuses nan, inf and -inf that way. An
element-wise array kernel passes elements that are not finite through, and
its docstring says so. The classes here mark the failures that a caller
handles differently:

- ``ConfigError``: a run configuration failed validation. The CLI exits 2
  and prints each of its ``diagnostics``.
- ``FitError``: a fringe fit or a unitary reconstruction that the data
  cannot support. The CLI exits 1.
- ``LnoisimError``: the base of both. The CLI exits 1 on any other.
"""

__all__ = ["ConfigError", "FitError", "LnoisimError"]


class LnoisimError(Exception):
    """Base class for every error raised by this package."""


class FitError(LnoisimError, RuntimeError):
    """A least-squares fit failed or the data cannot constrain it.

    A failed fit may attach its best iterate as ``best_result`` so callers
    can inspect how close it got.
    """

    def __init__(self, message, best_result=None):
        super().__init__(message)
        self.best_result = best_result


class ConfigError(LnoisimError, ValueError):
    """A run configuration failed schema validation."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(str(d) for d in self.diagnostics) or "invalid config")

"""Physical models of the integrated building blocks.

Conventions used throughout:

* A directional coupler with cross-coupled power fraction ``r`` has the
  symmetric transfer matrix ``[[sqrt(1-r), i sqrt(r)], [i sqrt(r), sqrt(1-r)]]``;
  the balanced case is ``(1/sqrt 2) [[1, i], [i, 1]]``.
* An MZI applies its internal phase on the upper arm between the two
  couplers.  With ideal couplers the bar-port power transmission is
  ``sin^2(phase/2)``: zero phase is a full cross state, phase pi is bar.
* Finite extinction comes from coupler imbalance, not phase error.
* The phase shifter's bandwidth is one Tustin low-pass section prewarped
  to its -3 dB corner, so its S21 and threshold crossings are closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Iterable, Sequence

import numpy as np

from .core import is_finite_number
from .errors import AliasingError, BandRangeError, DimensionError

__all__ = [
    "EXTINCTION_CAP_DB",
    "CouplerParams",
    "GratingSpectrum",
    "MZIParams",
    "PhaseShifterParams",
    "coupler_matrix",
    "eom_response",
    "eom_s21_db",
    "eom_slot_response",
    "estimate_mzi_loss_from_demux",
    "extinction_ratio_db",
    "imbalance_for_bar_leakage",
    "imbalance_for_extinction",
    "mzi_transfer",
    "phase_from_voltage",
    "s21_crossing_ghz",
    "voltage_for_phase",
]

#: Reported in place of an unbounded extinction ratio (perfectly balanced couplers).
EXTINCTION_CAP_DB = 300.0

#: Most sweeps of the slot recurrence worth running before one slot at a time is cheaper.
_MAX_SWEEPS = 16


@dataclass(frozen=True)
class PhaseShifterParams:
    """Electro-optic phase shifter: voltage-to-phase map plus analog bandwidth.

    Attributes:
        v_pi_volts: voltage producing a pi phase shift.
        phase_offset_rad: static phase at zero volts.
        f_3db_ghz: single-pole small-signal bandwidth; ``math.inf`` models an
            instantaneous shifter.
    """

    v_pi_volts: float = 4.5
    phase_offset_rad: float = 0.0
    f_3db_ghz: float = 6.5

    def __post_init__(self):
        if not (self.v_pi_volts > 0):
            raise ValueError(f"v_pi_volts must be positive, got {self.v_pi_volts}")
        if not (self.f_3db_ghz > 0):
            raise ValueError(f"f_3db_ghz must be positive, got {self.f_3db_ghz}")
        if not math.isfinite(self.phase_offset_rad):
            raise ValueError("phase_offset_rad must be finite")


@dataclass(frozen=True)
class CouplerParams:
    """Directional coupler: a 50:50 split plus a fabrication imbalance.

    ``imbalance`` is added to the nominal cross-coupled power fraction of
    one half; the sum, ``effective_ratio``, must stay in [0, 1].
    """

    imbalance: float = 0.0

    def __post_init__(self):
        r = self.effective_ratio
        if not (0.0 <= r <= 1.0):
            raise ValueError(f"effective ratio {r} outside [0, 1]")

    @property
    def effective_ratio(self) -> float:
        return 0.5 + self.imbalance


@dataclass(frozen=True)
class MZIParams:
    """A 2x2 Mach-Zehnder switch cell: two couplers around one phase shifter."""

    shifter: PhaseShifterParams = field(default_factory=PhaseShifterParams)
    coupler_in: CouplerParams = field(default_factory=CouplerParams)
    coupler_out: CouplerParams = field(default_factory=CouplerParams)
    insertion_loss_db: float = 0.0

    def __post_init__(self):
        if self.insertion_loss_db < 0:
            raise ValueError("insertion_loss_db is a positive magnitude")

    @classmethod
    def ideal(cls, shifter: PhaseShifterParams | None = None) -> "MZIParams":
        return cls(shifter=shifter or PhaseShifterParams())

    @classmethod
    def with_bar_leakage(
        cls, leakage: float, shifter: PhaseShifterParams | None = None, insertion_loss_db: float = 0.0
    ) -> "MZIParams":
        """Cell whose worst-port power leakage equals ``leakage`` (linear)."""
        delta = imbalance_for_bar_leakage(leakage)
        return cls(
            shifter=shifter or PhaseShifterParams(),
            coupler_in=CouplerParams(imbalance=delta),
            insertion_loss_db=insertion_loss_db,
        )

    @classmethod
    def with_extinction(
        cls, er_db: float, shifter: PhaseShifterParams | None = None, insertion_loss_db: float = 0.0
    ) -> "MZIParams":
        """Cell whose bar-port extinction ratio equals ``er_db``."""
        delta = imbalance_for_extinction(er_db)
        return cls(
            shifter=shifter or PhaseShifterParams(),
            coupler_in=CouplerParams(imbalance=delta),
            insertion_loss_db=insertion_loss_db,
        )


def phase_from_voltage(p: PhaseShifterParams, volts: float | np.ndarray) -> float | np.ndarray:
    """Linear electro-optic phase: offset + pi * V / V_pi, elementwise on arrays."""
    return p.phase_offset_rad + math.pi * volts / p.v_pi_volts


def voltage_for_phase(p: PhaseShifterParams, phase_rad: float) -> float:
    """Smallest-|V| drive realizing ``phase_rad`` modulo 2 pi.

    The phase request is reduced to the representative in (-pi, pi] relative
    to the shifter's static offset, so a pi request returns +V_pi rather
    than -V_pi.
    """
    excess = phase_rad - p.phase_offset_rad
    wrapped = math.remainder(excess, 2.0 * math.pi)
    if wrapped == -math.pi:
        wrapped = math.pi
    return wrapped * p.v_pi_volts / math.pi


def coupler_matrix(c: CouplerParams) -> np.ndarray:
    """2x2 transfer matrix of a directional coupler."""
    r = c.effective_ratio
    t = math.sqrt(1.0 - r)
    k = math.sqrt(r)
    return np.array([[t, 1j * k], [1j * k, t]], dtype=np.complex128)


def mzi_transfer(m: MZIParams, phase_rad: float | np.ndarray) -> np.ndarray:
    """Transfer matrix C_out . diag(e^{i phase}, 1) . C_in with uniform loss.

    ``phase_rad`` may be a scalar or an array of shape S; the result has
    shape S + (2, 2), one matrix per phase.  The product expands to
    ``e^{i phase} (c_out[:, 0] x c_in[0, :]) + c_out[:, 1] x c_in[1, :]``.
    Insertion loss scales amplitudes by 10^(-insertion_loss_db / 20).
    """
    entries = _mzi_columns(m, phase_rad, slice(None))
    # C order, so that each 2x2 block multiplies as a plain matrix.
    return np.ascontiguousarray(entries.transpose(*range(2, entries.ndim), 0, 1))


def _mzi_columns(m: MZIParams, phase_rad: float | np.ndarray, inputs: slice) -> np.ndarray:
    """The ``inputs`` columns of :func:`mzi_transfer`, entry first: shape (2, k) + S.

    Each entry is one pass over all the phases.
    """
    c_in = coupler_matrix(m.coupler_in)
    c_out = coupler_matrix(m.coupler_out)
    rotation = np.exp(1j * np.asarray(phase_rad, dtype=float))
    per_phase = (...,) + (np.newaxis,) * rotation.ndim
    upper = np.outer(c_out[:, 0], c_in[0, inputs])[per_phase]
    lower = np.outer(c_out[:, 1], c_in[1, inputs])[per_phase]
    return 10.0 ** (-m.insertion_loss_db / 20.0) * (rotation * upper + lower)


def extinction_ratio_db(m: MZIParams) -> float:
    """Bar-port extinction ratio 10 log10(max/min) over the internal phase.

    The bar amplitude is ``e^{i phase} t1 t2 - k1 k2`` (times the loss
    factor, which cancels), so the ratio is
    ``20 log10((t1 t2 + k1 k2) / |t1 t2 - k1 k2|)`` with t, k the bar and
    cross amplitudes of the two couplers.  A cell with zero minimum
    leakage (balanced couplers) is reported at the cap
    ``EXTINCTION_CAP_DB``.
    """
    r1, r2 = m.coupler_in.effective_ratio, m.coupler_out.effective_ratio
    t1, t2, k1, k2 = math.sqrt(1.0 - r1), math.sqrt(1.0 - r2), math.sqrt(r1), math.sqrt(r2)
    leak = abs(t1 * t2 - k1 * k2)
    if leak == 0.0:
        return EXTINCTION_CAP_DB
    return min(20.0 * math.log10((t1 * t2 + k1 * k2) / leak), EXTINCTION_CAP_DB)


def imbalance_for_bar_leakage(leakage: float) -> float:
    """Coupler imbalance whose MZI leaks ``leakage`` of the power off-port.

    One coupler detuned by delta against an ideal partner gives a minimum
    bar power of l = 1/2 - sqrt(1/4 - delta^2); inverting, delta =
    sqrt(l (1 - l)).  The same l is also the bar-state leakage into the
    cross port, so a single number calibrates both switch states.
    """
    if not (0.0 <= leakage < 0.5):
        raise ValueError(f"leakage must lie in [0, 0.5), got {leakage}")
    return math.sqrt(leakage * (1.0 - leakage))


def imbalance_for_extinction(er_db: float) -> float:
    """Coupler imbalance realizing a bar-port extinction ratio of ``er_db``."""
    if er_db <= 0:
        raise ValueError(f"extinction ratio must be positive dB, got {er_db}")
    leakage = 1.0 / (1.0 + 10.0 ** (er_db / 10.0))
    return imbalance_for_bar_leakage(leakage)


def _prewarped_corner(p: PhaseShifterParams, sample_rate_ghz: float) -> float:
    """``tan(pi f_3db / fs)``, the corner of the shifter's Tustin section.

    The bilinear transform is prewarped so that the half-power point lands
    exactly at ``f_3db``.

    Raises:
        AliasingError: unless ``sample_rate_ghz > 2 * f_3db_ghz``.
    """
    if not sample_rate_ghz > 2.0 * p.f_3db_ghz:
        raise AliasingError(
            f"sample rate {sample_rate_ghz} GHz must exceed twice the bandwidth "
            f"{p.f_3db_ghz} GHz"
        )
    return math.tan(math.pi * p.f_3db_ghz / sample_rate_ghz)


def eom_response(p: PhaseShifterParams, drive: Sequence[float], sample_rate_ghz: float) -> np.ndarray:
    """Filter a drive waveform through the shifter's single-pole response.

    The filter has exactly unit DC gain and its half-power point sits at
    ``f_3db_ghz``.  The initial state assumes the drive was held at its
    first sample forever, so constant drives pass through unchanged.

    Args:
        p: shifter parameters; ``f_3db_ghz = math.inf`` bypasses filtering.
        drive: waveform samples (volts), uniformly sampled.
        sample_rate_ghz: sample rate; must exceed twice the bandwidth.

    Raises:
        AliasingError: when ``sample_rate_ghz <= 2 * f_3db_ghz`` and the
            drive is not empty.
    """
    x = np.asarray(drive, dtype=float)
    if x.ndim != 1:
        raise DimensionError("drive must be a 1-d waveform")
    if x.size == 0:
        return x.copy()
    # Every sample is its own one-sample slot.
    return eom_slot_response(p, x, 1, sample_rate_ghz, np.arange(x.size))


def eom_slot_response(
    p: PhaseShifterParams,
    levels: Sequence[float],
    samples_per_slot: int,
    sample_rate_ghz: float,
    indices: np.ndarray,
) -> np.ndarray:
    """:func:`eom_response` of a piecewise-constant drive, at chosen samples only.

    The drive holds ``levels[j]`` for samples ``j S .. j S + S - 1`` with
    ``S = samples_per_slot``.  The result equals
    ``eom_response(p, np.repeat(levels, S), sample_rate_ghz)[indices]``
    without building or filtering that grid.  Within slot j the filter
    relaxes geometrically toward the held level, so with the Tustin
    coefficients g and r (``y[n] = g (x[n] + x[n-1]) + r y[n-1]``)

        y[j S + m] = v_j + r^m d_j,
        d_j = (1 - g) (v_{j-1} - v_j) + r^S d_{j-1},   d_0 = 0,

    where ``d_0 = 0`` is the first level held forever.  Writing ``c_j``
    for the step term and ``q = r^S``, numpy sweeps
    ``d <- c + q shift(d)`` over all slots until the array stops
    changing.  A fixed point rounds every step as the sequential
    recurrence does, and only one sequence with ``d_0 = 0`` does that, so
    by induction on j it is that recurrence, bit for bit.  Sweep k
    settles at least slots 0 .. k, and an offset in d_{j-k} reaches d_j
    as q^k, so the sweeps stop about when q^k underflows.  When that
    takes more than ``_MAX_SWEEPS`` sweeps, ``|q|`` is too close to one
    and the recurrence runs one slot at a time; q alone picks the path.

    Raises:
        AliasingError: when ``sample_rate_ghz <= 2 * f_3db_ghz``.
    """
    v = np.asarray(levels, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise DimensionError("levels must be a non-empty 1-d array")
    if samples_per_slot < 1:
        raise ValueError("samples_per_slot must be at least 1")
    idx = np.asarray(indices)
    if idx.dtype.kind not in "iu":
        raise DimensionError(f"sample indices must be integers, got dtype {idx.dtype}")
    if idx.size and (idx.min() < 0 or idx.max() >= v.size * samples_per_slot):
        raise DimensionError("sample indices lie outside the drive")
    slot, m = np.divmod(idx, samples_per_slot)
    if not math.isfinite(p.f_3db_ghz):
        return v[slot]
    lam = _prewarped_corner(p, sample_rate_ghz)
    g, r = lam / (1.0 + lam), (1.0 - lam) / (1.0 + lam)
    q = r**samples_per_slot
    steps = (1.0 - g) * (v[:-1] - v[1:])
    if abs(q) ** _MAX_SWEEPS > 0.0:  # long memory
        d = np.fromiter(
            accumulate(steps.tolist(), lambda prev, c: c + q * prev, initial=0.0), float, v.size
        )
    else:
        d = np.concatenate([[0.0], steps])
        # Sweep v.size - 1 settles every slot, whatever the input.
        for _ in range(v.size - 1):
            swept = steps + q * d[:-1]
            if np.array_equal(swept.view(np.int64), d[1:].view(np.int64)):
                break
            d[1:] = swept
    # A float power of a negative base is slow; a slot has only S offsets.
    if samples_per_slot < m.size:
        decay = (r ** np.arange(samples_per_slot))[m]
    else:
        decay = r**m
    return v[slot] + decay * d[slot]


def eom_s21_db(
    p: PhaseShifterParams, freqs_ghz: Iterable[float], sample_rate_ghz: float
) -> np.ndarray:
    """Small-signal power response (dB, 0 dB at DC) at the given frequencies.

    The shifter's prewarped Tustin section has the exact magnitude response
    ``|H|^2 = 1 / (1 + (tan(pi f / fs) / tan(pi f_3db / fs))^2)`` for
    ``0 < f < fs / 2`` (Oppenheim & Schafer, Discrete-Time Signal
    Processing, section 7.1).  An instantaneous shifter passes every
    frequency at 0 dB.

    Raises:
        AliasingError: when ``sample_rate_ghz <= 2 * f_3db_ghz``.
        ValueError: for a frequency outside (0, fs / 2).
    """
    f = np.fromiter(freqs_ghz, dtype=float)
    if not np.all((f > 0.0) & (f < sample_rate_ghz / 2.0)):
        raise ValueError(f"probe frequencies must lie in (0, {sample_rate_ghz / 2.0}) GHz")
    if math.isinf(p.f_3db_ghz):
        return np.zeros(f.size)
    ratio = np.tan(np.pi * f / sample_rate_ghz) / _prewarped_corner(p, sample_rate_ghz)
    return -10.0 * np.log10(1.0 + ratio**2)


def s21_crossing_ghz(
    p: PhaseShifterParams, threshold_db: float = -3.0, sample_rate_ghz: float | None = None
) -> float:
    """Frequency where the shifter's S21 (:func:`eom_s21_db`) crosses ``threshold_db``.

    Inverting the magnitude response gives
    ``f = (fs / pi) atan(tan(pi f_3db / fs) sqrt(10^(-threshold / 10) - 1))``.
    ``sample_rate_ghz`` defaults to 24 f_3db.

    Raises:
        AliasingError: when ``sample_rate_ghz <= 2 * f_3db_ghz``.
        ValueError: for a threshold that is not negative, or an
            instantaneous shifter, whose S21 never falls.
    """
    if not threshold_db < 0.0:
        raise ValueError(f"threshold_db must be negative, got {threshold_db}")
    if math.isinf(p.f_3db_ghz):
        raise ValueError("an instantaneous shifter's S21 crosses no threshold")
    fs = sample_rate_ghz if sample_rate_ghz is not None else 24.0 * p.f_3db_ghz
    corner = _prewarped_corner(p, fs)
    # With u = -threshold ln(10) / 20, sqrt(10^(-threshold / 10) - 1) is
    # e^u sqrt(1 - e^(-2u)); atan2 takes the e^u as a divisor, so a
    # threshold of any depth gives a crossing in (0, fs / 2] without overflow.
    u = -threshold_db * math.log(10.0) / 20.0
    return fs / math.pi * math.atan2(corner * math.sqrt(-math.expm1(-2.0 * u)), math.exp(-u))


@dataclass(frozen=True)
class GratingSpectrum:
    """Grating coupler efficiency versus wavelength: a parabola in dB around the peak.

    The efficiency falls by 1 dB at ``bandwidth_1db_nm / 2`` from
    ``center_wavelength_nm``.  Wavelengths outside ``band_nm`` raise
    :class:`BandRangeError`.
    """

    center_wavelength_nm: float = 930.0
    peak_efficiency_db: float = -3.4
    bandwidth_1db_nm: float = 12.0
    band_nm: tuple[float, float] = (905.0, 955.0)

    def __post_init__(self):
        lo, hi = self.band_nm
        for name, value in (
            ("center_wavelength_nm", self.center_wavelength_nm),
            ("peak_efficiency_db", self.peak_efficiency_db),
            ("bandwidth_1db_nm", self.bandwidth_1db_nm),
            ("band_nm", lo),
            ("band_nm", hi),
        ):
            if not is_finite_number(value):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if self.peak_efficiency_db > 0:
            raise ValueError("peak_efficiency_db cannot exceed 0 dB")
        if self.bandwidth_1db_nm <= 0:
            raise ValueError("bandwidth_1db_nm must be positive")
        if not (lo < self.center_wavelength_nm < hi):
            raise ValueError("center wavelength must sit inside the band")

    def efficiency_db(self, wavelength_nm: float) -> float:
        lo, hi = self.band_nm
        if not (lo <= wavelength_nm <= hi):
            raise BandRangeError(
                f"wavelength {wavelength_nm} nm outside modeled band [{lo}, {hi}] nm"
            )
        detune = (wavelength_nm - self.center_wavelength_nm) / (self.bandwidth_1db_nm / 2.0)
        return self.peak_efficiency_db - detune * detune


def estimate_mzi_loss_from_demux(
    transmissions: Sequence[float],
    external_inputs: Iterable[int],
    internal_inputs: Iterable[int],
) -> float:
    """Per-MZI insertion loss from total transmissions of a switch tree.

    Light entering an external (spare second-layer) port crosses one MZI;
    light entering an internal (first-layer) port crosses two.  Averaging
    in dB and differencing cancels everything shared between the paths.

    Args:
        transmissions: per-input total linear output power, in (0, 1].
        external_inputs: indices of one-MZI inputs.
        internal_inputs: indices of two-MZI inputs.

    Returns:
        Per-MZI loss in positive dB.
    """
    ext = list(external_inputs)
    internal = list(internal_inputs)
    if not ext or not internal:
        raise ValueError("need at least one external and one internal input")
    if set(ext) & set(internal):
        raise ValueError("an input cannot be both external and internal")
    db = {}
    for idx in (*ext, *internal):
        if not (0 <= idx < len(transmissions)):
            raise IndexError(f"input index {idx} out of range")
        value = float(transmissions[idx])
        if not (0.0 < value <= 1.0):
            raise ValueError(f"transmission at index {idx} must lie in (0, 1]")
        db[idx] = 10.0 * math.log10(value)
    return sum(db[i] for i in ext) / len(ext) - sum(db[i] for i in internal) / len(internal)

"""Single- and two-photon counting statistics behind a linear circuit.

Partial distinguishability is handled with the standard convex-combination
model: for a pairwise overlap ``x`` the two-photon pattern probabilities are
``x`` times the indistinguishable (permanent) term plus ``1 - x`` times the
distinguishable (classical) term.  For two photons in pure internal states
with squared overlap ``x`` this is exact.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .components import MZIParams, mzi_transfer
from .core import PERMANENT_MAX_ORDER, ProbabilityDistribution, _levenberg_marquardt
from .core import _permanents, as_complex_matrix, check_fields, is_finite_number, is_integer
from .errors import DimensionError, FitError

__all__ = [
    "SourceModel",
    "TwoPhotonDistribution",
    "fit_hom_visibility",
    "fit_hom_visibility_poisson",
    "fringe_contrast_from_overlap",
    "hom_fringe",
    "nphoton_collision_free_distribution",
    "single_photon_distribution",
    "two_photon_distribution",
]


@dataclass(frozen=True)
class SourceModel:
    """Triggered single-photon source feeding the processor.

    Attributes:
        repetition_period_ns: pulse-to-pulse separation.
        indistinguishability: pairwise photon overlap in [0, 1].
        g2_zero: second-order autocorrelation at zero delay; the residual
            per-pulse two-photon emission probability is ``g2_zero / 2``
            and contributes only an accidental background, disabled by
            default in fringe analysis.
    """

    repetition_period_ns: float = 13.8
    indistinguishability: float = 0.945
    g2_zero: float = 0.005

    def __post_init__(self):
        if not (self.repetition_period_ns > 0):
            raise ValueError("repetition_period_ns must be positive")
        if not (0.0 <= self.indistinguishability <= 1.0):
            raise ValueError("indistinguishability must lie in [0, 1]")
        if not (0.0 <= self.g2_zero < 1.0):
            raise ValueError("g2_zero must lie in [0, 1)")


def single_photon_distribution(t: object, input_mode: int) -> ProbabilityDistribution:
    """Output-mode distribution |t[j, k]|^2 for one photon in mode ``k``.

    For sub-unitary ``t`` the weights sum below one and the result is
    flagged unnormalized; the deficit is the photon loss probability.
    """
    mat = as_complex_matrix(t)
    n_out, n_in = mat.shape
    if not (0 <= input_mode < n_in):
        raise DimensionError(f"input mode {input_mode} out of range for {n_in} inputs")
    probs = np.abs(mat[:, input_mode]) ** 2
    return ProbabilityDistribution.from_values(range(n_out), probs)


@dataclass(frozen=True, eq=False)
class TwoPhotonDistribution:
    """Unordered two-photon output patterns and their probabilities.

    Patterns are pairs ``(i, j)`` with ``i <= j``; ``i == j`` means both
    photons bunched into one mode.  ``collision_free_only`` marks
    distributions restricted to ``i < j`` (bunched mass dropped, so the
    total may fall below one even for a lossless circuit).
    """

    input_pair: tuple[int, int]
    patterns: tuple[tuple[int, int], ...]
    probabilities: np.ndarray
    collision_free_only: bool = False

    def __post_init__(self):
        patterns = tuple(tuple(p) for p in self.patterns)
        for modes in (self.input_pair, *patterns):
            if not all(is_integer(m) for m in modes):
                raise ValueError(f"modes must be integers, got {list(modes)}")
        k, l = self.input_pair
        if k >= l:
            raise ValueError("input_pair must be distinct modes (k < l)")
        if not all(0 <= i <= j for i, j in patterns):
            raise ValueError("each pattern (i, j) must satisfy 0 <= i <= j")
        if len(set(patterns)) < len(patterns):
            raise ValueError("patterns must not repeat")
        probs = np.asarray(self.probabilities, dtype=float)
        if probs.shape != (len(self.patterns),):
            raise DimensionError("patterns and probabilities must align 1:1")
        if np.any(probs < -1e-14) or not np.all(np.isfinite(probs)):
            raise ValueError("probabilities must be finite and non-negative")
        probs = probs.copy()
        probs.setflags(write=False)
        object.__setattr__(self, "probabilities", probs)
        object.__setattr__(self, "patterns", patterns)
        object.__setattr__(self, "input_pair", (int(k), int(l)))

    @property
    def total(self) -> float:
        return float(self.probabilities.sum())

    def probability(self, pattern: tuple[int, int]) -> float:
        key = tuple(sorted(pattern))
        try:
            idx = self.patterns.index(key)
        except ValueError:
            return 0.0
        return float(self.probabilities[idx])

    def to_distribution(self) -> ProbabilityDistribution:
        return ProbabilityDistribution.from_values(self.patterns, self.probabilities)

    def to_json_dict(self) -> dict:
        return {
            "input": list(self.input_pair),
            "outputs": [
                {"pattern": list(p), "p": float(v)}
                for p, v in zip(self.patterns, self.probabilities)
            ],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "TwoPhotonDistribution":
        check_fields(data, ("input", "outputs"), "pair")
        for idx, entry in enumerate(data["outputs"]):
            check_fields(entry, ("pattern", "p"), f"pair outputs[{idx}]")
        patterns = tuple(tuple(entry["pattern"]) for entry in data["outputs"])
        probs = [entry["p"] for entry in data["outputs"]]
        if not all(is_finite_number(p) for p in probs):
            raise ValueError("each output's probability 'p' must be a finite number")
        probs = np.array(probs, dtype=float)
        collision_free = all(a != b for a, b in patterns)
        return cls(tuple(data["input"]), patterns, probs, collision_free_only=collision_free)


def _coincidence(a, b, x: float) -> np.ndarray:
    """Probability of two photons leaving by amplitudes ``a`` and ``b``.

    ``a`` and ``b`` are the two paths to one output pair; overlap ``x``
    mixes their interference ``|a + b|^2`` with the classical sum.
    """
    return x * np.abs(a + b) ** 2 + (1.0 - x) * (np.abs(a) ** 2 + np.abs(b) ** 2)


def two_photon_distribution(
    t: object,
    input_pair: tuple[int, int],
    overlap: float = 1.0,
    collision_free_only: bool = False,
) -> TwoPhotonDistribution:
    """Two-photon output statistics for one photon in each input of a pair.

    For outputs ``i < j`` the probability is
    ``x |perm(T)|^2 + (1 - x) (|t_ik t_jl|^2 + |t_il t_jk|^2)`` with
    ``T = [[t_ik, t_il], [t_jk, t_jl]]``; the bunched pattern ``(i, i)``
    carries ``(1 + x) |t_ik t_il|^2``.  For unitary ``t`` the full
    distribution sums to one for every overlap ``x``.

    Args:
        t: transfer matrix (square, possibly sub-unitary).
        input_pair: distinct input modes ``(k, l)`` with ``k < l``.
        overlap: pairwise indistinguishability ``x`` in [0, 1].
        collision_free_only: drop bunched patterns from the result.
    """
    mat = as_complex_matrix(t)
    n_out, n_in = mat.shape
    k, l = input_pair
    if not (0 <= k < n_in and 0 <= l < n_in):
        raise DimensionError(f"input pair {input_pair} out of range for {n_in} inputs")
    if k >= l:
        raise ValueError("input_pair must satisfy k < l")
    if not (0.0 <= overlap <= 1.0):
        raise ValueError("overlap must lie in [0, 1]")

    amp = np.outer(mat[:, k], mat[:, l])  # amp[i, j] = t_ik * t_jl
    probs = _coincidence(amp, amp.T, overlap)
    np.fill_diagonal(probs, (1.0 + overlap) * np.abs(np.diagonal(amp)) ** 2)
    # Row-major upper triangle, as np.triu_indices gives it at several times the cost.
    modes = np.arange(n_out)
    rows, cols = np.nonzero(modes[:, None] < modes if collision_free_only else modes[:, None] <= modes)
    patterns = tuple(zip(rows.tolist(), cols.tolist()))
    return TwoPhotonDistribution(
        (k, l), patterns, probs[rows, cols], collision_free_only=collision_free_only
    )


def hom_fringe(
    m: MZIParams,
    phases_rad: Sequence[float],
    overlap: float,
    accidental_floor: float = 0.0,
) -> np.ndarray:
    """Cross-port coincidence probability of an MZI versus internal phase.

    Two photons enter the two ports of the cell; the returned array is the
    probability of one photon in each output,
    ``x |a + b|^2 + (1 - x) (|a|^2 + |b|^2)`` with ``a = t00 t11`` and
    ``b = t01 t10``.  For an ideal cell this follows
    ``(1 - x + (1 + x) cos^2 phase) / 2``: maxima at multiples of pi and
    minima of ``(1 - x) / 2`` at odd multiples of pi/2.

    Args:
        m: MZI parameters (imbalance and loss shift the fringe shape).
        phases_rad: internal phases to evaluate.
        overlap: pairwise indistinguishability ``x``.
        accidental_floor: phase-independent background added to every
            point, e.g. the source's pair probability ``g2_zero / 2``;
            zero (disabled) by default.
    """
    if accidental_floor < 0:
        raise ValueError("accidental_floor must be non-negative")
    if not (0.0 <= overlap <= 1.0):
        raise ValueError("overlap must lie in [0, 1]")
    t = mzi_transfer(m, phases_rad)
    coincidence = _coincidence(t[..., 0, 0] * t[..., 1, 1], t[..., 1, 0] * t[..., 0, 1], overlap)
    return coincidence + accidental_floor


def fringe_contrast_from_overlap(overlap: float) -> float:
    """Raw fringe contrast (max - min) / (max + min) = (1 + x) / (3 - x).

    A diagnostic only: the raw contrast understates the overlap because
    the coincidence maxima saturate at the classical level, so fits should
    use :func:`fit_hom_visibility` instead.
    """
    if not (0.0 <= overlap <= 1.0):
        raise ValueError("overlap must lie in [0, 1]")
    return (1.0 + overlap) / (3.0 - overlap)


def _fringe_model(phase, amplitude, visibility, scale, offset):
    shifted = scale * phase + offset
    return amplitude * (1.0 - visibility + (1.0 + visibility) * np.cos(shifted) ** 2) / 2.0


#: Box of the fringe parameters (A, V, s, d).
_FRINGE_LOWER = np.array([0.0, 0.0, 0.2, -math.pi])
_FRINGE_UPPER = np.array([np.inf, 1.2, 5.0, math.pi])
_FRINGE_MAX_NFEV = 20000


def _fringe_start(phases, counts, weights) -> np.ndarray:
    """(A, V, s, d) from the linear fit at s = 1.

    The model equals ``A (3 - V) / 4 + A (1 + V) / 4 cos(2 phase + 2 d)``,
    which at fixed s is linear in ``c0 + c1 cos 2phase + c2 sin 2phase``.
    """
    design = np.column_stack([np.ones_like(phases), np.cos(2.0 * phases), np.sin(2.0 * phases)])
    c0, c1, c2 = np.linalg.lstsq(design * weights[:, None], counts * weights, rcond=None)[0]
    swing = math.hypot(c1, c2)
    amplitude = c0 + swing
    visibility = 4.0 * swing / amplitude - 1.0 if amplitude > 0 else 0.0
    start = [amplitude, visibility, 1.0, math.atan2(-c2, c1) / 2.0]
    return np.clip(start, _FRINGE_LOWER, _FRINGE_UPPER)


def _fit_fringe(phases_rad, coincidences, sigma, p0=None) -> tuple[float, float, np.ndarray]:
    """Fit :func:`_fringe_model`; returns ``(V, stderr of V, parameters)``.

    Levenberg-Marquardt with the analytic Jacobian, inside the box
    A >= 0, 0 <= V <= 1.2, 0.2 <= s <= 5, |d| <= pi, started from ``p0``
    or else from :func:`_fringe_start`.  The covariance is
    ``(J^T W J)^-1 chi^2 / (N - 4)``.

    The fit runs on ``counts / max(counts)`` with weights over their
    largest one.  V, s, d and V's standard error do not depend on either
    scale, and A is scaled back, so counts and sigma of any magnitude fit
    alike, with Jacobian columns of comparable size.
    """
    phases = np.asarray(phases_rad, dtype=float)
    counts = np.asarray(coincidences, dtype=float)
    if phases.ndim != 1 or phases.shape != counts.shape:
        raise DimensionError("phases and coincidences must be matching 1-d arrays")
    if not (np.all(np.isfinite(phases)) and np.all(np.isfinite(counts))):
        raise FitError("phases and coincidences must be finite")
    if phases.size < 5:
        raise FitError(f"need at least 5 fringe points, got {phases.size}")
    if np.ptp(phases) < math.pi / 2.0 - 1e-12:
        raise FitError("fringe data must span at least half a period (pi/2)")
    top = float(counts.max())
    if top <= 0:
        raise FitError("coincidence data has no positive values")
    counts = counts / top
    if sigma is None:
        weights = np.ones_like(counts)
    else:
        sigma = np.asarray(sigma, dtype=float)
        if sigma.shape != counts.shape or not np.all((sigma > 0) & np.isfinite(sigma)):
            raise FitError("sigma must hold one finite positive value per point")
        weights = sigma.min() / sigma

    def fun_and_jac(p):
        amplitude, visibility, scale, offset = p
        angle = 2.0 * (scale * phases + offset)
        cos2 = np.cos(angle)
        d_amplitude = (3.0 - visibility) / 4.0 + (1.0 + visibility) / 4.0 * cos2
        residuals = (amplitude * d_amplitude - counts) * weights

        def jac():
            d_offset = -amplitude * (1.0 + visibility) / 2.0 * np.sin(angle)
            d_visibility = amplitude * (cos2 - 1.0) / 4.0
            columns = [d_amplitude, d_visibility, d_offset * phases, d_offset]
            return np.column_stack(columns) * weights[:, None]

        return residuals, jac

    units = np.array([top, 1.0, 1.0, 1.0])  # A in units of the largest count
    start = _fringe_start(phases, counts, weights) if p0 is None else np.asarray(p0) / units
    fit = _levenberg_marquardt(
        fun_and_jac, start, _FRINGE_LOWER, _FRINGE_UPPER, max_nfev=_FRINGE_MAX_NFEV
    )
    if fit.nfev >= _FRINGE_MAX_NFEV or not math.isfinite(fit.cost):
        raise FitError(f"fringe fit did not converge in {fit.nfev} evaluations")
    # With the weighted Jacobian J = U diag(sv) vt, (J^T W J)^-1 = vt^T diag(sv^-2) vt.
    _, sv, vt = np.linalg.svd(fit.jacobian, full_matrices=False)
    if sv[-1] <= np.finfo(float).eps * max(fit.jacobian.shape) * sv[0]:
        raise FitError("fringe fit covariance is singular; data cannot constrain V")
    variance = float(np.sum((vt[:, 1] / sv) ** 2)) * fit.cost / (phases.size - 4)
    return float(fit.x[1]), math.sqrt(variance), fit.x * units


def fit_hom_visibility(
    phases_rad: Sequence[float],
    coincidences: Sequence[float],
    sigma: Sequence[float] | None = None,
) -> tuple[float, float]:
    """Least-squares fringe visibility from coincidence data.

    Fits ``A (1 - V + (1 + V) cos^2(s phase + d)) / 2`` with the amplitude
    ``A``, visibility ``V``, and a linear phase recalibration ``(s, d)``
    all free, so uncalibrated voltage-derived phases are tolerated.  The
    returned visibility estimates the pairwise overlap ``x`` directly.

    Args:
        phases_rad: nominal phases, at least 5 points spanning >= pi/2.
        coincidences: measured coincidence rates or counts (any scale).
        sigma: optional per-point uncertainties for weighting.

    Returns:
        ``(visibility, standard_error)`` from the fit covariance.

    Raises:
        FitError: for degenerate sampling or a failed fit.
    """
    visibility, stderr, _ = _fit_fringe(phases_rad, coincidences, sigma)
    return visibility, stderr


def fit_hom_visibility_poisson(
    phases_rad: Sequence[float], counts: Sequence[float]
) -> tuple[float, float]:
    """Fringe visibility from Poisson-distributed coincidence counts.

    Weighting each point by its own count, ``sigma = sqrt(n)``, gives the
    points that fluctuated low too much weight and pulls ``V`` upward.
    The weights come from the model instead: an unweighted fit gives the
    expected counts ``mu``, and the counts are refitted with
    ``sigma = sqrt(max(mu, 1))``.

    Returns and raises as :func:`fit_hom_visibility`.
    """
    *_, popt = _fit_fringe(phases_rad, counts, None)
    expected = _fringe_model(np.asarray(phases_rad, dtype=float), *popt)
    visibility, stderr, _ = _fit_fringe(
        phases_rad, counts, np.sqrt(np.maximum(expected, 1.0)), p0=popt
    )
    return visibility, stderr


def nphoton_collision_free_distribution(
    t: object, input_modes: Sequence[int]
) -> ProbabilityDistribution:
    """Indistinguishable n-photon statistics over collision-free patterns.

    For 1 to 20 photons, each output pattern (one photon per listed mode)
    gets ``|perm(t[pattern, inputs])|^2``.  Bunched patterns are excluded,
    so the total is below one in general.
    """
    mat = as_complex_matrix(t)
    n_out = mat.shape[0]
    inputs = list(input_modes)
    if len(set(inputs)) != len(inputs):
        raise ValueError("input modes must be distinct")
    if any(not (0 <= m < mat.shape[1]) for m in inputs):
        raise DimensionError("input mode out of range")
    if not (1 <= len(inputs) <= PERMANENT_MAX_ORDER):
        raise DimensionError(f"need 1 to {PERMANENT_MAX_ORDER} photons, got {len(inputs)}")
    if len(inputs) > n_out:
        raise DimensionError("more photons than output modes for collision-free patterns")
    patterns = list(itertools.combinations(range(n_out), len(inputs)))
    amplitudes = _permanents(mat[np.array(patterns)[:, :, None], inputs])
    return ProbabilityDistribution.from_values(patterns, np.abs(amplitudes) ** 2)

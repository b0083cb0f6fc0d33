"""Photon counting statistics behind a linear circuit, as :class:`PhotonDistribution`.

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
from .core import PERMANENT_MAX_ORDER, _permanents, as_complex_matrix
from .core import check_fields, is_finite_number, is_integer
from .errors import FitError

__all__ = [
    "PhotonDistribution",
    "fit_hom_visibility",
    "fit_hom_visibility_poisson",
    "fringe_contrast_from_overlap",
    "hom_fringe",
    "nphoton_collision_free_distribution",
    "statistical_fidelity",
    "two_photon_distribution",
]


#: Pairwise overlap of two photons from the quantum-dot source, hom-fringe's default.
SOURCE_OVERLAP = 0.945


#: Probability sums within this tolerance of one count as normalized.
NORMALIZATION_TOL = 1e-9


def _probability_array(values, name: str) -> np.ndarray:
    """``values`` as a read-only float array, refused unless each is a probability:
    finite and in [0, 1], with -1e-14 and ``NORMALIZATION_TOL`` as rounding slack."""
    probs = np.array(values, dtype=float)
    if not np.all((probs >= -1e-14) & (probs <= 1.0 + NORMALIZATION_TOL)):
        raise ValueError(f"{name} must be finite numbers in [0, 1]")
    probs.setflags(write=False)
    return probs


@dataclass(frozen=True, eq=False)
class PhotonDistribution:
    """Probabilities of the output patterns of photons entering ``input_modes``.

    ``input_modes`` ascend, one per photon.  A pattern is the ascending
    tuple of the output modes, one per photon: ``(j,)`` for one photon,
    ``(i, i)`` for two bunched into mode i.  A pattern the distribution
    does not list has probability 0, as the bunched patterns of a
    collision-free view do, so loss and unlisted patterns leave the total
    below one.  ``probabilities`` is read-only and each lies in [0, 1].
    """

    input_modes: tuple[int, ...]
    patterns: tuple[tuple[int, ...], ...]
    probabilities: np.ndarray

    def __post_init__(self):
        inputs = tuple(self.input_modes)
        if not all(is_integer(m) for m in inputs):
            raise ValueError(f"modes must be integers, got {list(inputs)}")
        if not (inputs and inputs[0] >= 0 and all(a < b for a, b in zip(inputs, inputs[1:]))):
            raise ValueError("input_modes must be one or more distinct modes >= 0, ascending")
        # One numpy pass checks the modes; builders pass an integer array, so it is not copied.
        n = len(inputs)
        try:
            modes = np.asarray(self.patterns).reshape(len(self.patterns), n)
        except ValueError:
            raise ValueError(f"each pattern must list {n} output modes, one per photon") from None
        if modes.size and modes.dtype.kind not in "iu":
            raise ValueError("pattern modes must be integers")
        if not (np.all(modes >= 0) and np.all(modes[:, 1:] >= modes[:, :-1])):
            raise ValueError("each pattern (i, j) must satisfy 0 <= i <= j")
        patterns = tuple(map(tuple, modes.tolist()))
        if len(set(patterns)) < len(patterns):
            raise ValueError("patterns must not repeat")
        probs = _probability_array(self.probabilities, "probabilities")
        if probs.shape != (len(patterns),):
            raise ValueError("patterns and probabilities must align 1:1")
        object.__setattr__(self, "input_modes", tuple(map(int, inputs)))
        object.__setattr__(self, "patterns", patterns)
        object.__setattr__(self, "probabilities", probs)

    @property
    def total(self) -> float:
        return float(self.probabilities.sum())

    def probability(self, pattern: Sequence[int]) -> float:
        """The probability of ``pattern``, in any mode order; 0 if it is not listed.

        Raises:
            ValueError: unless ``pattern`` lists one mode per photon.
        """
        n = len(self.input_modes)
        if len(pattern) != n:
            raise ValueError(f"a pattern must list {n} output modes, got {len(pattern)}")
        try:
            return float(self.probabilities[self.patterns.index(tuple(sorted(pattern)))])
        except ValueError:
            return 0.0

    @property
    def outcomes(self) -> tuple[tuple[int, ...], ...]:
        """``patterns``, under the name the benchmark in ``perfbench/`` reads."""
        return self.patterns

    def to_distribution(self) -> "PhotonDistribution":
        """``self``: the benchmark in ``perfbench/`` converts each distribution
        through this before :func:`statistical_fidelity`."""
        return self

    def to_json_dict(self) -> dict:
        return {
            "input": list(self.input_modes),
            "outputs": [
                {"pattern": list(p), "p": float(v)}
                for p, v in zip(self.patterns, self.probabilities)
            ],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "PhotonDistribution":
        """The distribution of :meth:`to_json_dict`, each mode and probability checked."""
        check_fields(data, ("input", "outputs"), "pair")
        for idx, entry in enumerate(data["outputs"]):
            check_fields(entry, ("pattern", "p"), f"pair outputs[{idx}]")
        patterns = [tuple(entry["pattern"]) for entry in data["outputs"]]
        for modes in patterns:
            if not all(is_integer(m) for m in modes):
                raise ValueError(f"modes must be integers, got {list(modes)}")
        probs = [entry["p"] for entry in data["outputs"]]
        if not all(is_finite_number(p) for p in probs):
            raise ValueError("each output's probability 'p' must be a finite number")
        return cls(tuple(data["input"]), patterns, probs)


def statistical_fidelity(p: PhotonDistribution, q: PhotonDistribution) -> float:
    """Bhattacharyya overlap sum_i sqrt(p_i q_i) between two distributions.

    The score by which reprogrammed circuits are compared with their ideal
    (Carolan et al., Science 349, 711 (2015)).  Both inputs must sum to one
    within ``NORMALIZATION_TOL`` and list the same patterns; if their orders
    differ, ``q`` is aligned to ``p`` by pattern.  The result lies in
    [0, 1] and equals 1 only for identical distributions.
    """
    for name, dist in (("p", p), ("q", q)):
        if abs(dist.total - 1.0) > NORMALIZATION_TOL:
            raise ValueError(f"{name} is not normalized (sum={dist.total:.12g})")
    lookup = dict(zip(q.patterns, q.probabilities))
    if lookup.keys() != set(p.patterns):
        raise ValueError("distributions are defined over different patterns")
    q_probs = np.array([lookup[o] for o in p.patterns])
    overlap = float(np.sum(np.sqrt(np.clip(p.probabilities, 0.0, None) * np.clip(q_probs, 0.0, None))))
    return min(overlap, 1.0)


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
) -> PhotonDistribution:
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
        raise ValueError(f"input pair {input_pair} out of range for {n_in} inputs")
    if not (0.0 <= overlap <= 1.0):
        raise ValueError("overlap must lie in [0, 1]")

    amp = np.outer(mat[:, k], mat[:, l])  # amp[i, j] = t_ik * t_jl
    probs = _coincidence(amp, amp.T, overlap)
    np.fill_diagonal(probs, (1.0 + overlap) * np.abs(np.diagonal(amp)) ** 2)
    # Row-major upper triangle, as np.triu_indices gives it at several times the cost.
    modes = np.arange(n_out)
    rows, cols = np.nonzero(modes[:, None] < modes if collision_free_only else modes[:, None] <= modes)
    return PhotonDistribution((k, l), np.stack((rows, cols), axis=1), probs[rows, cols])


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
            point, e.g. accidental coincidences from the source's
            multi-photon emission; zero (disabled) by default.
    """
    if not (math.isfinite(accidental_floor) and accidental_floor >= 0):
        raise ValueError("accidental_floor must be finite and non-negative")
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


#: The least phase span a fringe fit accepts: half a period (pi/2), less rounding.
MIN_FRINGE_SPAN_RAD = math.pi / 2.0 - 1e-12


def _fit_fringe(phases_rad, coincidences, sigma) -> tuple[float, float, np.ndarray]:
    """Fit ``c0 + c1 cos 2phase``; returns ``(V, stderr of V, fitted counts)``.

    The fringe ``A (1 - V + (1 + V) cos^2 phase) / 2`` equals
    ``A (3 - V) / 4 + A (1 + V) / 4 cos 2phase``, so one weighted linear
    solve fits it, and ``A = c0 + c1``, ``V = (3 c1 - c0) / (c0 + c1)``.
    Every cell's :func:`hom_fringe`, at any extinction, loss, overlap or
    floor, is of this form in the cell's own phase, so noise-free data
    give its V exactly.  The phases must be the cell's own: a
    miscalibrated phase axis biases V.  V's standard error is the delta
    method on ``(X^T W X)^-1 chi^2 / (N - 2)``.

    The fit runs on ``counts / max(counts)`` with weights over their
    largest one, so V and its standard error do not depend on the scale
    of either; the fitted counts are scaled back.
    """
    phases = np.asarray(phases_rad, dtype=float)
    counts = np.asarray(coincidences, dtype=float)
    if phases.ndim != 1 or phases.shape != counts.shape:
        raise ValueError("phases and coincidences must be matching 1-d arrays")
    if not (np.all(np.isfinite(phases)) and np.all(np.isfinite(counts))):
        raise ValueError("phases and coincidences must be finite")
    if phases.size < 5:
        raise FitError(f"need at least 5 fringe points, got {phases.size}")
    if np.ptp(phases) < MIN_FRINGE_SPAN_RAD:
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

    design = np.column_stack([np.ones_like(phases), np.cos(2.0 * phases)])
    # With the weighted design X = U diag(sv) vt, (X^T W X)^-1 = vt^T diag(sv^-2) vt.
    u, sv, vt = np.linalg.svd(design * weights[:, None], full_matrices=False)
    if sv[-1] <= np.finfo(float).eps * max(design.shape) * sv[0]:
        raise FitError("fringe fit covariance is singular; data cannot constrain V")
    coefficients = vt.T @ (u.T @ (counts * weights) / sv)
    c0, c1 = coefficients
    amplitude = c0 + c1
    if not amplitude > 0:
        raise FitError("fitted fringe has no positive amplitude; data cannot constrain V")
    fitted = design @ coefficients
    residuals = (fitted - counts) * weights
    visibility = (3.0 * c1 - c0) / amplitude
    # The delta method, with dV/d(c0, c1) = (-(1 + V), 3 - V) / A.
    gradient = np.array([-(1.0 + visibility), 3.0 - visibility]) / amplitude
    chi2 = float(residuals @ residuals)
    variance = float(np.sum((vt @ gradient / sv) ** 2)) * chi2 / (phases.size - 2)
    return float(visibility), math.sqrt(variance), fitted * top


def fit_hom_visibility(
    phases_rad: Sequence[float],
    coincidences: Sequence[float],
    sigma: Sequence[float] | None = None,
) -> tuple[float, float]:
    """Least-squares fringe visibility from coincidence data.

    Fits ``A (1 - V + (1 + V) cos^2 phase) / 2`` with the amplitude ``A``
    and visibility ``V`` free, by one linear solve (see
    :func:`_fit_fringe`).  The phases are taken as the cell's own: an axis
    off in scale or offset, as from a miscalibrated ``v_pi_volts``, biases
    ``V``.  The returned visibility estimates the pairwise overlap ``x``
    directly, and may fall below 0 when a floor swamps the fringe.

    Args:
        phases_rad: the cell's phases, at least 5 points spanning >= pi/2.
        coincidences: measured coincidence rates or counts (any scale).
        sigma: optional per-point uncertainties for weighting.

    Returns:
        ``(visibility, standard_error)`` from the fit covariance.

    Raises:
        ValueError: for arrays that do not match or hold a non-finite value.
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
    *_, expected = _fit_fringe(phases_rad, counts, None)
    visibility, stderr, _ = _fit_fringe(phases_rad, counts, np.sqrt(np.maximum(expected, 1.0)))
    return visibility, stderr


def nphoton_collision_free_distribution(
    t: object, input_modes: Sequence[int]
) -> PhotonDistribution:
    """Indistinguishable n-photon statistics over collision-free patterns.

    For 1 to 20 photons, each output pattern (one photon per listed mode)
    gets ``|perm(t[pattern, inputs])|^2``.  Bunched patterns are excluded,
    so the total is below one in general.  One photon in mode k gives
    ``|t[j, k]|^2`` for each output j, the single-photon law.
    """
    mat = as_complex_matrix(t)
    n_out = mat.shape[0]
    inputs = sorted(input_modes)
    if any(not (0 <= m < mat.shape[1]) for m in inputs):
        raise ValueError("input mode out of range")
    if not (1 <= len(inputs) <= PERMANENT_MAX_ORDER):
        raise ValueError(f"need 1 to {PERMANENT_MAX_ORDER} photons, got {len(inputs)}")
    if len(inputs) > n_out:
        raise ValueError("more photons than output modes for collision-free patterns")
    # The patterns in itertools order, read flat (faster than nested tuples).
    flat = itertools.chain.from_iterable(itertools.combinations(range(n_out), len(inputs)))
    patterns = np.fromiter(flat, np.intp).reshape(-1, len(inputs))
    # Rows of the input columns: sub[p, i, j] = t[patterns[p, i], inputs[j]].
    amplitudes = _permanents(mat[:, inputs][patterns])
    return PhotonDistribution(inputs, patterns, np.abs(amplitudes) ** 2)

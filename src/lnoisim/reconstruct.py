"""Recover an interferometer's transfer matrix from photon statistics.

Single-photon output probabilities fix only the moduli ``|u[i, k]|``; the
relative phases are constrained by two-photon interference between pairs
of input ports.  Neither kind of data changes under per-port input/output
phase factors, or under complex conjugation of the whole matrix, so a
matrix is recoverable only up to

    u  ->  D_out @ u @ D_in         (diagonal unimodular D)
    u  ->  conj(u)

:func:`canonical_form` picks one representative per equivalence class so
that estimates and references can be compared directly with
:func:`lnoisim.core.matrix_distance`.

The estimator parameterizes the unknown matrix by the internal and
external phases of a rectangular mesh and fits them to the measured
statistics with damped least squares from several random starting points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .core import _levenberg_marquardt, as_complex_matrix, check_fields, finite_number_array
from .errors import FitError
from .mesh import MeshCell, MeshConfig, _mesh_product, clements_layout, compose, wrap_phase
from .photons import PhotonDistribution, _coincidence, _probability_array, two_photon_distribution

__all__ = [
    "MeasuredStatistics",
    "ReconstructionResult",
    "canonical_form",
    "canonical_phase_gauge",
    "reconstruct_unitary",
    "synthesize_statistics",
]

_PIVOT_TOL = 1e-9


def canonical_phase_gauge(u: np.ndarray) -> np.ndarray:
    """Fix the per-port phase freedom of ``u``.

    Columns are rotated so the first row is real and non-negative, then
    rows 1.. are rotated so the first column is real and non-negative.
    Pivots with modulus below ``_PIVOT_TOL`` are left untouched (their
    phase is meaningless), which keeps the map well defined for matrices
    with structural zeros.
    """
    w = as_complex_matrix(u).copy()
    for j in range(w.shape[1]):
        pivot = w[0, j]
        if abs(pivot) > _PIVOT_TOL:
            w[:, j] *= np.conj(pivot) / abs(pivot)
    for i in range(1, w.shape[0]):
        pivot = w[i, 0]
        if abs(pivot) > _PIVOT_TOL:
            w[i, :] *= np.conj(pivot) / abs(pivot)
    return w


def canonical_form(u: np.ndarray) -> np.ndarray:
    """Representative of ``u`` modulo port phases and conjugation.

    After phase fixing, the matrix and its conjugate differ only in the
    signs of imaginary parts; the representative is the one whose first
    entry (row-major) with ``|imag| > _PIVOT_TOL`` has positive imaginary
    part.
    ``canonical_form(conj(u))`` therefore equals ``canonical_form(u)``.
    """
    w = canonical_phase_gauge(u)
    for value in w.ravel():
        if abs(value.imag) > _PIVOT_TOL:
            return np.conj(w) if value.imag < 0 else w
    return w


@dataclass(frozen=True, eq=False)
class MeasuredStatistics:
    """Photon-counting data that drives the reconstruction.

    Attributes:
        singles: array of shape (n, n); ``singles[i, k]`` is the
            probability that a photon entering port k exits port i.
        pairs: two-photon output distributions keyed by input pair
            ``(k, l)`` with ``k < l``, as a read-only mapping.  Every pair of
            the n >= 2 modes needs one, or the constructor raises ValueError.
    """

    singles: np.ndarray
    pairs: Mapping[tuple[int, int], PhotonDistribution]

    def __post_init__(self):
        singles = _probability_array(self.singles, "singles")
        if singles.ndim != 2 or singles.shape[0] != singles.shape[1]:
            raise ValueError("singles must be a square matrix")
        object.__setattr__(self, "singles", singles)
        n = singles.shape[0]
        pairs = {}
        for key, dist in self.pairs.items():
            if tuple(key) != dist.input_modes:
                raise ValueError(
                    f"distribution stored under {key!r} was taken on pair {dist.input_modes}"
                )
            if len(key) != 2 or key[1] >= n:
                raise ValueError(f"invalid input pair {key!r} for {n} modes")
            if any(j >= n for _, j in dist.patterns):
                raise ValueError(f"pair {key!r} has an output pattern beyond mode {n - 1}")
            pairs[dist.input_modes] = dist
        if n < 2:
            raise ValueError("reconstruction needs at least 2 modes")
        missing = [(k, l) for k in range(n) for l in range(k + 1, n) if (k, l) not in pairs]
        if missing:
            raise ValueError(f"no two-photon data for input pairs {missing}")
        object.__setattr__(self, "pairs", MappingProxyType(pairs))

    @property
    def n_modes(self) -> int:
        return int(self.singles.shape[0])

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "MeasuredStatistics":
        check_fields(data, ("singles", "pairs"))
        dists = [PhotonDistribution.from_json_dict(entry) for entry in data["pairs"]]
        pairs = {dist.input_modes: dist for dist in dists}
        if len(pairs) < len(dists):
            raise ValueError("input pairs must not repeat")
        return cls(finite_number_array(data["singles"], 2, "singles"), pairs)


def synthesize_statistics(
    u: np.ndarray, overlap: float = 1.0, collision_free_only: bool = True
) -> MeasuredStatistics:
    """Exact statistics a lossless interferometer ``u`` would produce."""
    mat = as_complex_matrix(u)
    if mat.shape[0] != mat.shape[1]:
        raise ValueError("need a square transfer matrix")
    n = mat.shape[0]
    singles = np.abs(mat) ** 2
    pairs = {
        (k, l): two_photon_distribution(
            mat, (k, l), overlap=overlap, collision_free_only=collision_free_only
        )
        for k in range(n)
        for l in range(k + 1, n)
    }
    return MeasuredStatistics(singles, pairs)


@dataclass(frozen=True, eq=False)
class ReconstructionResult:
    """Outcome of a reconstruction run.

    Attributes:
        unitary: fitted matrix in :func:`canonical_form`.
        cost: sum of squared residuals at the best fit.
        converged: whether ``cost`` fell below the success threshold.
        n_restarts_used: random restarts consumed (early stop on success).
    """

    unitary: np.ndarray
    cost: float
    converged: bool
    n_restarts_used: int

    def __post_init__(self):
        mat = as_complex_matrix(self.unitary)
        mat.setflags(write=False)
        object.__setattr__(self, "unitary", mat)


#: Relative forward-difference step of the fit Jacobian, sqrt(machine epsilon).
_DIFF_STEP = math.sqrt(np.finfo(float).eps)


def _fit_model(measured: MeasuredStatistics, overlap: float):
    """``fun_and_jac`` of the fit: residuals of phase stacks ``(..., 2 cells)``
    (internal phases, then external) and their forward difference, every
    column from one stacked call."""
    n = measured.n_modes
    layout = clements_layout(n)
    half = len(layout)
    iu, ju = np.triu_indices(n, k=1)
    pair_keys = sorted(measured.pairs)
    k, l = np.array(pair_keys).T[..., None]
    outputs = list(zip(iu.tolist(), ju.tolist()))
    pair_data = [measured.pairs[key].probability(ij) for key in pair_keys for ij in outputs]
    data = np.concatenate([measured.singles.ravel(), pair_data])
    x = float(overlap)

    def residuals(phases: np.ndarray) -> np.ndarray:
        u = _mesh_product(n, layout, phases[..., :half], phases[..., half:])
        pairs = _coincidence(u[..., iu, k] * u[..., ju, l], u[..., ju, k] * u[..., iu, l], x)
        flat = u.shape[:-2] + (-1,)
        return np.concatenate([(np.abs(u) ** 2).reshape(flat), pairs.reshape(flat)], -1) - data

    def residuals_and_jac(phases: np.ndarray):
        r = residuals(phases)

        def forward_difference() -> np.ndarray:
            # Each column is divided by the step actually taken.
            shifted = phases + np.diag(_DIFF_STEP * np.maximum(1.0, np.abs(phases)))
            return ((residuals(shifted) - r) / (shifted.diagonal() - phases)[:, None]).T

        return r, forward_difference

    return residuals_and_jac


def reconstruct_unitary(
    measured: MeasuredStatistics,
    seed: int,
    overlap: float = 1.0,
    n_restarts: int = 12,
    success_cost: float = 1e-12,
) -> ReconstructionResult:
    """Fit a mesh to measured statistics and return its canonical unitary.

    The free parameters are one internal and one external phase per mesh
    cell; output phases are pinned to zero because no count statistic can
    see them.  Each restart draws uniform random phases (seeded) and runs
    Levenberg-Marquardt on the stacked residual vector

        [singles(model) - singles(data),
         collision-free pair probabilities(model) - (data)]

    stopping early once the squared-residual sum drops below
    ``success_cost``.

    Args:
        measured: singles plus two-photon data covering every input pair.
        seed: RNG seed for the restart sequence (results are deterministic
            for a fixed seed).
        overlap: pairwise wave-packet overlap assumed by the model.
        n_restarts: maximum number of random starts.
        success_cost: squared-residual threshold declaring convergence.

    Raises:
        FitError: if no restart converges; the best attempt is
            attached as ``best_result``.
    """
    if not 0.0 <= overlap <= 1.0:
        raise ValueError("overlap must lie in [0, 1]")
    if n_restarts < 1:
        raise ValueError("n_restarts must be at least 1")
    n = measured.n_modes
    layout = clements_layout(n)
    half = len(layout)
    residuals_and_jac = _fit_model(measured, overlap)
    rng = np.random.default_rng(seed)
    best_x = None
    best_cost = math.inf
    used = 0
    for _ in range(n_restarts):
        start = rng.uniform(0.0, 2.0 * math.pi, size=2 * half)
        fit = _levenberg_marquardt(residuals_and_jac, start, tol=1e-14, max_nfev=5000)
        used += 1
        if fit.cost < best_cost:
            best_cost = fit.cost
            best_x = fit.x
        if best_cost <= success_cost:
            break

    cells = [
        MeshCell(modes=pair, theta=wrap_phase(th), phi=wrap_phase(ph))
        for pair, th, ph in zip(layout, best_x[:half], best_x[half:])
    ]
    config = MeshConfig(n_modes=n, cells=cells, output_phases=np.zeros(n))
    result = ReconstructionResult(
        unitary=canonical_form(compose(config)),
        cost=best_cost,
        converged=best_cost <= success_cost,
        n_restarts_used=used,
    )
    if not result.converged:
        raise FitError(
            f"best of {used} restarts left squared-residual sum {best_cost:.3e} "
            f"above {success_cost:.3e}",
            best_result=result,
        )
    return result

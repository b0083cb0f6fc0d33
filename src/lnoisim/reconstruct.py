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
statistics with damped least squares, in one fit from a closed-form
estimate: the singles give the moduli, and the pairs give the cosines of
the phases (Laing & O'Brien, arXiv:1208.2868; Rahimi-Keshari et al., Opt.
Express 21, 13450 (2013)).  The solver sees only the fit's residual
function and takes its Jacobian by forward differences.  The pairs carry
the phases at the strength of the overlap, so an overlap below
``MIN_OVERLAP`` is refused.  Nothing is drawn at random.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .core import as_complex_matrix, check_fields, finite_number_array, is_integer
from .errors import FitError
from .mesh import _mesh_product, decompose
from .photons import PhotonDistribution, _coincidence, _probability_array, two_photon_distribution

__all__ = [
    "MeasuredStatistics",
    "ReconstructionResult",
    "canonical_form",
    "reconstruct_unitary",
    "synthesize_statistics",
]

_PIVOT_TOL = 1e-9

#: The squared-residual sum at or below which the fit has converged.
_SUCCESS_COST = 1e-12

#: The smallest overlap the fit accepts.  Pairs at overlap x carry the
#: phases at strength x, and from about 1e-13 down a noise-free fit of
#: 3 to 5 modes can settle on a wrong unitary at a cost of 1e-30.
MIN_OVERLAP = 1e-9


def _spanning_forest(linked: np.ndarray) -> tuple[list[tuple[int, int]], np.ndarray]:
    """Breadth-first spanning forest of the bipartite graph in which row i and
    column k of an (n, m) matrix are linked where ``linked[i, k]``.

    Node i < n is row i and node n + k is column k.  Returns the forest's
    edges as (parent, child) in visiting order, and each node's tree, named
    by its root: the lowest unvisited node, rows before columns.
    """
    n, m = linked.shape
    adjacency = np.block([[np.zeros((n, n), bool), linked], [linked.T, np.zeros((m, m), bool)]])
    tree = np.full(n + m, -1)
    edges = []
    for root in range(n + m):
        if tree[root] >= 0:
            continue
        tree[root] = root
        queue = [root]
        for node in queue:
            children = np.flatnonzero(adjacency[node] & (tree < 0)).tolist()
            tree[children] = root
            queue += children
            edges += [(node, child) for child in children]
    return edges, tree


def canonical_form(u: np.ndarray) -> np.ndarray:
    """Representative of ``u`` modulo port phases and conjugation.

    The entries with modulus above ``_PIVOT_TOL`` link their row and
    column; along a breadth-first spanning forest of those links, each row
    or column is rotated so that the entry linking it to its parent is real
    and non-negative.  When every entry of row 0 and column 0 links, that
    is: columns rotated so the first row is real and non-negative, then
    rows 1.. so the first column is.  The forest depends only on which
    entries link, so the map is well defined for matrices with structural
    zeros.

    After phase fixing, the matrix and its conjugate differ only in the
    signs of imaginary parts.  Each tree of the forest is a block that no
    statistic couples to the others, so each is conjugated on its own: the
    representative is the one whose first entry (row-major) in the block
    with ``|imag| > _PIVOT_TOL`` has positive imaginary part.
    ``canonical_form(conj(u))`` therefore equals ``canonical_form(u)``.
    """
    w = as_complex_matrix(u).copy()
    n = w.shape[0]
    edges, tree = _spanning_forest(np.abs(w) > _PIVOT_TOL)
    for parent, child in edges:
        if child < n:
            pivot = w[child, parent - n]
            w[child, :] *= np.conj(pivot) / abs(pivot)
        else:
            pivot = w[parent, child - n]
            w[:, child - n] *= np.conj(pivot) / abs(pivot)
    for root in np.unique(tree):
        block = (tree[:n, None] == root) & (tree[None, n:] == root)
        flagged = w[block & (np.abs(w.imag) > _PIVOT_TOL)]
        if flagged.size and flagged[0].imag < 0:
            w[block] = np.conj(w[block])
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


def synthesize_statistics(u: np.ndarray, overlap: float = 1.0) -> MeasuredStatistics:
    """Exact collision-free statistics a lossless interferometer ``u`` would produce."""
    mat = as_complex_matrix(u)
    if mat.shape[0] != mat.shape[1]:
        raise ValueError("need a square transfer matrix")
    n = mat.shape[0]
    singles = np.abs(mat) ** 2
    pairs = {
        (k, l): two_photon_distribution(mat, (k, l), overlap=overlap, collision_free_only=True)
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
        nfev: residual evaluations the fit took.
    """

    unitary: np.ndarray
    cost: float
    converged: bool
    nfev: int

    def __post_init__(self):
        mat = as_complex_matrix(self.unitary)
        mat.setflags(write=False)
        object.__setattr__(self, "unitary", mat)

    @property
    def n_restarts_used(self) -> int:
        """1, the one fit, under the name the benchmark in ``perfbench/`` reads."""
        return 1


#: Smallest Marquardt scale of a parameter, relative to the largest one.
_SCALE_FLOOR = 1e-6

#: Relative forward-difference step of the fit Jacobian, sqrt(machine epsilon).
_DIFF_STEP = math.sqrt(np.finfo(float).eps)

#: The solver's relative tolerance on the step and the cost decrease, and
#: the most residual evaluations it may take.
_TOL, _MAX_NFEV = 1e-14, 5000


class LeastSquaresFit(NamedTuple):
    """Outcome of :func:`_levenberg_marquardt`; ``cost`` is sum(r(x)**2)."""

    x: np.ndarray
    cost: float
    nfev: int


def _forward_difference(residuals, x: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Forward-difference Jacobian of ``residuals`` at ``x``, where they are
    ``r``: every column from one stacked call."""
    # Each column is divided by the step actually taken.
    shifted = x + np.diag(_DIFF_STEP * np.maximum(1.0, np.abs(x)))
    return ((residuals(shifted) - r) / (shifted.diagonal() - x)[:, None]).T


def _levenberg_marquardt(residuals, x0: Sequence[float]) -> LeastSquaresFit:
    """Minimize ``sum(r(x)**2)`` by Levenberg-Marquardt.

    ``residuals`` maps a stack of parameter vectors ``(..., k)`` to residual
    vectors.  The Jacobian J is its :func:`_forward_difference`, taken only
    at accepted points.  Each step solves ``(J^T J + mu D) h = -J^T r`` with
    Marquardt's scaling D, the running maximum of diag(J^T J) (Moré 1978),
    floored at a millionth of its largest entry so that rounding noise in a
    column the residuals barely see cannot drive the step.  The damping mu
    follows Nielsen's update (Madsen, Nielsen & Tingleff 2004, eq. 3.16):
    after a step with gain ratio rho > 0 it is multiplied by
    max(1/3, 1 - (2 rho - 1)^3); after a rejected one by nu, which then
    doubles.  A damped system that is singular in floating point counts as
    a rejected step.

    The iteration stops before evaluating a step with
    ``|h| <= _TOL (|x| + _TOL)``, after an accepted step that lowered the
    cost by at most ``_TOL`` of itself, or after ``_MAX_NFEV`` evaluations;
    ``nfev`` counts the evaluations at trial points, not the Jacobian's.
    """
    x = np.array(x0, dtype=float)
    r = residuals(x)
    nfev = 1
    cost = float(r @ r)
    j = _forward_difference(residuals, x, r)
    scale = np.zeros(x.size)
    mu, nu = 1e-3, 2.0
    while nfev < _MAX_NFEV:
        normal = j.T @ j
        grad = j.T @ r
        scale = np.maximum(scale, np.diagonal(normal))
        damping = mu * np.maximum(scale, _SCALE_FLOOR * (scale.max() or 1.0))
        try:
            step = -np.linalg.solve(normal + np.diag(damping), grad)
        except np.linalg.LinAlgError:
            # mu has shrunk below the rounding of J^T J; the floor lifts
            # a mu that underflowed to zero.
            mu = max(mu, np.finfo(float).tiny) * nu
            nu *= 2.0
            continue
        trial = x + step
        # The step as taken after rounding, which the gain ratio must use.
        step = trial - x
        if np.linalg.norm(step) <= _TOL * (np.linalg.norm(x) + _TOL):
            break
        r_trial = residuals(trial)
        nfev += 1
        cost_trial = float(r_trial @ r_trial)
        j_step = j @ step
        predicted = -(2.0 * float(step @ grad) + float(j_step @ j_step))
        rho = (cost - cost_trial) / predicted if predicted > 0.0 else -1.0
        if rho > 0.0:
            small = cost - cost_trial <= _TOL * cost
            x, r, cost = trial, r_trial, cost_trial
            j = _forward_difference(residuals, x, r)
            mu *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
            nu = 2.0
            if small:
                break
        else:
            mu *= nu
            nu *= 2.0
    return LeastSquaresFit(x, cost, nfev)


def _fit_model(measured: MeasuredStatistics, overlap: float):
    """The fit's residuals of phase stacks ``(..., 2 cells)``: internal
    phases, then external."""
    n = measured.n_modes
    half = n * (n - 1) // 2
    iu, ju = np.triu_indices(n, k=1)
    pair_keys = sorted(measured.pairs)
    k, l = np.array(pair_keys).T[..., None]
    outputs = list(zip(iu.tolist(), ju.tolist()))
    pair_data = [measured.pairs[key].probability(ij) for key in pair_keys for ij in outputs]
    data = np.concatenate([measured.singles.ravel(), pair_data])
    x = float(overlap)

    def residuals(phases: np.ndarray) -> np.ndarray:
        u = _mesh_product(n, phases[..., :half], phases[..., half:])
        pairs = _coincidence(u[..., iu, k] * u[..., ju, l], u[..., ju, k] * u[..., iu, l], x)
        flat = u.shape[:-2] + (-1,)
        return np.concatenate([(np.abs(u) ** 2).reshape(flat), pairs.reshape(flat)], -1) - data

    return residuals


def _estimate(measured: MeasuredStatistics, x: float) -> np.ndarray:
    """Closed-form estimate of the unitary, in the gauge of :func:`canonical_form`.

    The moduli are the square roots of the singles, and the entries of the
    gauge's spanning forest have phase 0.  Pair (k, l) at outputs (i, j)
    gives the cosine of the cycle phase phi_ik + phi_jl - phi_jk - phi_il,
    so an entry (j, l) whose three partners in such a relation are known
    takes one of two phases: the one whose predicted coincidences best
    match the data over all its relations.  Each step fixes the first
    pending entry, in row-major order, whose relations tell its two phases
    apart; if none does, the first with a relation takes the first phase.
    That is how the first phase with a nonzero sine fixes the conjugation.
    An entry with no relation (behind structural zeros) keeps phase 0.
    With no zero in row 0 and column 0, the first relation of (j, l) is
    pair (0, l) at outputs (0, j).  The nearest unitary, W V^H of the SVD,
    closes the estimate.
    """
    r, n = np.sqrt(measured.singles), measured.n_modes
    known = np.zeros((n, n), bool)
    for parent, child in _spanning_forest(r > _PIVOT_TOL)[0]:
        known[min(parent, child), max(parent, child) - n] = True
    phase = np.zeros((n, n))

    def choice(j, l):
        """The phase of (j, l) that best matches its relations, and how much
        better than the other it does; None without a relation."""
        # |u_ik u_jl| and |u_jk u_il| of the relation over rows (i, j), columns (k, l).
        a, b = r * r[j, l], np.outer(r[:, l], r[j])
        rows, cols = np.nonzero(known & known[:, [l]] & known[[j]] & (a * b > _PIVOT_TOL))
        if not rows.size:
            return None
        a, b = a[rows, cols], b[rows, cols]
        pairs = zip(rows.tolist(), cols.tolist())
        data = np.array([measured.pairs[tuple(sorted((k, l)))].probability((i, j)) for i, k in pairs])
        base = phase[j, cols] + phase[rows, l] - phase[rows, cols]
        cosine = (data[0] - a[0] ** 2 - b[0] ** 2) / (2.0 * x * a[0] * b[0])
        phis = base[0] + math.acos(min(1.0, max(-1.0, cosine))) * np.array([1.0, -1.0])
        fits = [np.sum((a * a + b * b + 2.0 * x * a * b * np.cos(phi - base) - data) ** 2) for phi in phis]
        return phis[int(fits[1] < fits[0])], abs(fits[1] - fits[0])

    pending = list(zip(*np.nonzero((r > _PIVOT_TOL) & ~known)))
    while pending:
        fallback = None
        for entry in pending:
            found = choice(*entry)
            # Rounding alone leaves gaps near 1e-32.
            if found is not None and found[1] > _PIVOT_TOL**2:
                break
            if fallback is None and found is not None:
                fallback = entry, found
        else:
            if fallback is None:
                break
            entry, found = fallback
        phase[entry], known[entry] = found[0], True
        pending.remove(entry)
    w, _, vh = np.linalg.svd(r * np.exp(1j * phase))
    return w @ vh


def reconstruct_unitary(
    measured: MeasuredStatistics,
    overlap: float = 1.0,
    *,
    seed: int = 0,
) -> ReconstructionResult:
    """Fit a mesh to measured statistics and return its canonical unitary.

    The free parameters are one internal and one external phase per mesh
    cell; output phases are pinned to zero because no count statistic can
    see them.  One Levenberg-Marquardt fit, started from the mesh phases of
    the closed-form estimate, minimizes the stacked residual vector

        [singles(model) - singles(data),
         collision-free pair probabilities(model) - (data)]

    and succeeds if the squared-residual sum drops to ``_SUCCESS_COST``
    (1e-12) or below.

    Args:
        measured: singles plus two-photon data covering every input pair.
        overlap: pairwise wave-packet overlap assumed by the model, in
            [``MIN_OVERLAP``, 1]; at 0 the pair data carry no phase.
        seed: unused, as the fit draws nothing; an integer, kept for the
            calls of the benchmark in ``perfbench/``.

    Raises:
        ValueError: for an overlap outside [``MIN_OVERLAP``, 1] or a seed
            that is not an integer.
        FitError: if the fit does not converge; its result is attached
            as ``best_result``.
    """
    if not MIN_OVERLAP <= overlap <= 1.0:
        raise ValueError(f"overlap must lie in [{MIN_OVERLAP:g}, 1], got {overlap}: below it the pairs carry too little phase")
    if not is_integer(seed):
        raise ValueError(f"seed must be an integer, got {seed}")
    start = decompose(_estimate(measured, overlap))
    x0 = np.concatenate([start.thetas, start.phis])
    fit = _levenberg_marquardt(_fit_model(measured, overlap), x0)
    u = _mesh_product(measured.n_modes, *np.split(fit.x, 2))
    result = ReconstructionResult(canonical_form(u), fit.cost, fit.cost <= _SUCCESS_COST, fit.nfev)
    if not result.converged:
        raise FitError(
            f"the fit left squared-residual sum {fit.cost:.3e} above {_SUCCESS_COST:.3e} "
            f"after {fit.nfev} evaluations",
            best_result=result,
        )
    return result

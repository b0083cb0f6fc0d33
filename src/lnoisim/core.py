"""Complex linear algebra and input checks shared by all simulation layers.

Transfer matrices act on column vectors of mode amplitudes.  A lossless
circuit is unitary; uniform loss scales the matrix below unity (sub-unitary).
"""

from __future__ import annotations

import functools
import math
import numbers
from typing import Mapping

import numpy as np

from .errors import ConfigError

__all__ = [
    "PERMANENT_MAX_ORDER",
    "as_complex_matrix",
    "haar_random_unitary",
    "is_unitary",
    "matrix_distance",
    "permanent",
]

#: Largest matrix order accepted by :func:`permanent` (cost doubles per row).
PERMANENT_MAX_ORDER = 20


def is_finite_number(value) -> bool:
    """A finite real number; bools, NaN, +-inf and strings are refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        return False


def is_integer(value) -> bool:
    """An integer that is not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def finite_number_array(values, ndim: int, name: str) -> np.ndarray:
    """``values`` as a float array, refused unless it has ``ndim`` dimensions
    and every entry passes :func:`is_finite_number`."""
    arr = np.asarray(values, dtype=object)
    if arr.ndim != ndim or not all(is_finite_number(v) for v in arr.flat):
        raise ValueError(f"{name} must be a {ndim}-d array of finite numbers")
    return arr.astype(float)


def check_fields(data, known, where: str = "") -> None:
    """Raise ConfigError unless ``data`` is a JSON object with no key outside ``known``.

    Each unknown key gets a diagnostic, prefixed by ``where``, that names the
    closest known key if ``difflib`` (imported only then) finds one.
    """
    prefix = f"{where}: " if where else ""
    if not isinstance(data, Mapping):
        raise ConfigError([f"{prefix}must be an object, got {type(data).__name__}"])
    unknown = [key for key in data if key not in known]
    if unknown:
        import difflib

        hints = [difflib.get_close_matches(key, known, n=1) for key in unknown]
        raise ConfigError([
            f"{prefix}unknown field {key!r}" + (f" (did you mean {hint[0]!r}?)" if hint else "")
            for key, hint in zip(unknown, hints)
        ])


def as_complex_matrix(m: object) -> np.ndarray:
    """Coerce input to a 2-d complex array, rejecting non-finite entries."""
    arr = np.asarray(m, dtype=np.complex128)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got ndim={arr.ndim}")
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise ValueError("matrix entries must be finite")
    return arr


def is_unitary(m: object, tol: float = 1e-10) -> bool:
    """Whether ``m`` is square and satisfies m†m = I within ``tol`` (max norm).

    Raises:
        ValueError: unless 0 <= ``tol`` < inf.
    """
    # Written so that a nan tol fails it too.
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and non-negative, got {tol}")
    arr = as_complex_matrix(m)
    # No entry of a unitary exceeds 1; testing that first keeps m†m from overflowing.
    if arr.shape[0] != arr.shape[1] or np.abs(arr).max(initial=0.0) > 1.0 + tol:
        return False
    gram = arr.conj().T @ arr
    return bool(np.max(np.abs(gram - np.eye(arr.shape[0]))) <= tol)


@functools.lru_cache(maxsize=None)
def _sign_vectors(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows d in {+1, -1}^k (bit i of the row index negates d_i) and each prod_i d_i."""
    signs = 1.0 - 2.0 * ((np.arange(1 << k)[:, None] >> np.arange(k)) & 1)
    parity = signs.prod(axis=1)
    for shared in (signs, parity):  # cached, so every caller gets the same arrays
        shared.setflags(write=False)
    return signs, parity


def _permanents(a: np.ndarray) -> np.ndarray:
    """Permanents of a stack of square matrices, shape ``(..., n, n)`` to ``(...)``.

    Glynn's formula, perm(A) = 2^(1-n) sum_d (prod_i d_i) prod_j sum_i d_i a_ij
    over sign vectors d in {+1, -1}^n with d_0 = +1.  The sums over the low
    k free signs are tabulated once, and each setting of the other signs
    shifts that table, so a sign vector costs O(n).  k is the largest
    with batch size x 2^k <= 2^16, which bounds the working set.
    """
    *batch, n, _ = a.shape
    at = a.reshape(-1, n, n).transpose(0, 2, 1)
    k = min(n - 1, max(0, ((1 << 16) // at.shape[0]).bit_length() - 1))
    low, low_parity = _sign_vectors(k)
    table = at[:, :, :1] + at[:, :, 1 : k + 1] @ low.T
    total = 0.0
    for high, parity in zip(*_sign_vectors(n - 1 - k)):
        sums = table + (at[:, :, k + 1 :] @ high)[:, :, None]
        total = total + parity * (sums.prod(axis=1) @ low_parity)
    return (total / 2.0 ** (n - 1)).reshape(batch)


def permanent(m: object) -> complex:
    """Permanent of a square complex matrix of order at most 20.

    Evaluated by :func:`_permanents`, Glynn's formula in O(2^n n) time.  The
    permanent of amplitude submatrices gives multi-photon transition
    amplitudes for indistinguishable photons.
    """
    arr = as_complex_matrix(m)
    n, ncols = arr.shape
    if n != ncols:
        raise ValueError(f"permanent requires a square matrix, got {arr.shape}")
    if n == 0:
        raise ValueError("permanent of an empty matrix is not defined here")
    if n > PERMANENT_MAX_ORDER:
        raise ValueError(f"permanent limited to order {PERMANENT_MAX_ORDER}, got {n}")
    return complex(_permanents(arr))


def haar_random_unitary(n: int, seed: int) -> np.ndarray:
    """Draw an n x n unitary from the Haar measure, reproducibly.

    QR factorization of a complex Gaussian matrix, with the R diagonal
    phases folded back into Q so the distribution is exactly Haar.

    Args:
        n: matrix order, an integer of at least 1.
        seed: integer RNG seed; equal seeds give identical matrices.
    """
    if not (is_integer(n) and n >= 1):
        raise ValueError(f"unitary order must be an integer >= 1, got {n}")
    if not is_integer(seed):
        raise ValueError(f"seed must be an integer, got {seed}")
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def matrix_distance(a: object, b: object) -> float:
    """Global-phase-invariant distance between equal-shape matrices.

    Minimizes ||a - e^{i alpha} b||_F / sqrt(n) over the free phase alpha;
    the minimizing alpha is arg tr(b†a).  Zero iff the matrices agree up
    to one overall phase.
    """
    am = as_complex_matrix(a)
    bm = as_complex_matrix(b)
    if am.shape != bm.shape:
        raise ValueError(f"shape mismatch: {am.shape} vs {bm.shape}")
    t = np.trace(bm.conj().T @ am)
    alpha = np.angle(t) if t != 0 else 0.0
    diff = am - np.exp(1j * alpha) * bm
    return float(np.linalg.norm(diff) / np.sqrt(am.shape[0]))

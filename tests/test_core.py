import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lnoisim import (
    PhotonDistribution,
    as_complex_matrix,
    haar_random_unitary,
    is_unitary,
    matrix_distance,
    nphoton_collision_free_distribution,
    permanent,
    statistical_fidelity,
)
from lnoisim.core import _permanents
from oracles import permanent_by_permutation_sum


def test_permanent_identity_and_ones():
    for n in range(1, 7):
        assert permanent(np.eye(n)) == pytest.approx(1.0)
        assert permanent(np.ones((n, n))) == pytest.approx(math.factorial(n))


def test_permanent_2x2_closed_form():
    a = np.array([[1.0 + 2.0j, 3.0], [-1.0j, 0.5]])
    assert permanent(a) == pytest.approx(a[0, 0] * a[1, 1] + a[0, 1] * a[1, 0])


def test_permanent_matches_permutation_sum():
    rng = np.random.default_rng(7)
    for n in range(1, 7):
        for _ in range(20):
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            want = permanent_by_permutation_sum(a)
            got = permanent(a)
            assert abs(got - want) <= 1e-12 * max(abs(want), 1.0)


def test_permanent_rejects_bad_shapes():
    with pytest.raises(ValueError, match="permanent requires a square matrix"):
        permanent(np.ones((2, 3)))
    with pytest.raises(ValueError, match="expected a 2-d matrix, got ndim=1"):
        permanent(np.ones(4))
    for bad in (math.nan, complex(0.0, math.inf)):
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            as_complex_matrix([[bad]])
    with pytest.raises(ValueError, match="permanent of an empty matrix"):
        permanent(np.ones((0, 0)))
    with pytest.raises(ValueError, match="permanent limited to order 20, got 21"):
        permanent(np.ones((21, 21)))
    # the n-photon distribution has the same bounds on its photon number
    with pytest.raises(ValueError, match="need 1 to 20 photons, got 0"):
        nphoton_collision_free_distribution(np.eye(3), [])
    with pytest.raises(ValueError, match="need 1 to 20 photons, got 21"):
        nphoton_collision_free_distribution(np.eye(22), range(21))


def _complex_normal(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_permanent_symmetries(n, seed):
    """perm(PAQ) = perm(A), perm(DA) = prod(d) perm(A) and perm(A^T) = perm(A)."""
    rng = np.random.default_rng(seed)
    a = _complex_normal(rng, (n, n))
    d = _complex_normal(rng, n)
    p, q = np.eye(n)[rng.permutation(n)], np.eye(n)[rng.permutation(n)]
    want = permanent(a)
    for got, expected in [
        (permanent(p @ a @ q), want),
        (permanent(np.diag(d) @ a), np.prod(d) * want),
        (permanent(a.T), want),
    ]:
        assert abs(got - expected) <= 1e-12 * max(1.0, abs(expected))


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 6), st.lists(st.integers(1, 4), max_size=2), st.integers(0, 2**32 - 1))
def test_permanents_of_a_stack_match_the_permutation_sum(n, batch, seed):
    rng = np.random.default_rng(seed)
    a = _complex_normal(rng, (*batch, n, n))
    got = _permanents(a)
    assert got.shape == tuple(batch)
    for index in np.ndindex(*batch):
        want = permanent_by_permutation_sum(a[index])
        assert abs(got[index] - want) <= 1e-12 * max(1.0, abs(want))


def test_permanents_of_a_large_stack_split_the_signs():
    # 20,000 x 2^k <= 2^16 leaves one tabulated sign and three looped ones
    rng = np.random.default_rng(23)
    a = _complex_normal(rng, (20_000, 5, 5))
    got = _permanents(a)
    for index in rng.choice(len(a), size=25, replace=False):
        want = permanent_by_permutation_sum(a[index])
        assert abs(got[index] - want) <= 1e-12 * max(1.0, abs(want))


def test_haar_random_unitary_is_unitary_and_seeded():
    for n in (2, 3, 4, 8):
        u = haar_random_unitary(n, seed=123)
        assert u.shape == (n, n)
        assert is_unitary(u)
    a = haar_random_unitary(4, seed=5)
    b = haar_random_unitary(4, seed=5)
    c = haar_random_unitary(4, seed=6)
    assert np.array_equal(a, b)
    assert not np.allclose(a, c)


def test_haar_unitary_phases_are_balanced():
    # column-phase fix should not leave the diagonal biased toward the
    # positive real axis (a classic QR pitfall)
    diags = np.concatenate(
        [np.diag(haar_random_unitary(4, seed=s)) for s in range(200)]
    )
    mean_phase_vector = np.mean(diags / np.abs(diags))
    assert abs(mean_phase_vector) < 0.2


def test_matrix_distance_global_phase_invariant():
    rng = np.random.default_rng(0)
    u = haar_random_unitary(4, seed=9)
    for _ in range(10):
        alpha = rng.uniform(0, 2 * math.pi)
        assert matrix_distance(u, np.exp(1j * alpha) * u) <= 1e-12
    v = haar_random_unitary(4, seed=10)
    assert matrix_distance(u, v) > 0.1


def test_matrix_distance_shape_mismatch():
    with pytest.raises(ValueError, match="shape mismatch"):
        matrix_distance(np.eye(3), np.eye(4))


def test_is_unitary_and_subunitary():
    assert is_unitary(np.eye(3))
    assert not is_unitary(0.5 * np.eye(3))  # sub-unitary: a lossy, passive circuit


def _one_photon(patterns, probabilities):
    return PhotonDistribution((0,), patterns, probabilities)


def test_probability_distribution_rejects_negative():
    # Each probability lies in [0, 1], up to -1e-14 and 1 + 1e-9 of rounding.
    for bad in (-0.2, -1e-13, 1.0 + 2e-9, 1e300, math.nan, math.inf):
        with pytest.raises(ValueError):
            _one_photon([(0,), (1,)], [1.0 - bad, bad])
    assert _one_photon([(0,), (1,)], [1.0 + 1e-9, -1e-14]).total == pytest.approx(1.0)


def test_statistical_fidelity_frozen_value():
    # sum_i sqrt(p_i q_i) for p = (0.9, 0.1), q = (0.5, 0.5):
    # sqrt(0.45) + sqrt(0.05) = 0.8944271909999159
    p = _one_photon([(0,), (1,)], [0.9, 0.1])
    q = _one_photon([(0,), (1,)], [0.5, 0.5])
    assert statistical_fidelity(p, q) == pytest.approx(0.8944271909999159, abs=1e-12)


def test_statistical_fidelity_edge_cases():
    p = _one_photon([(0,), (1,)], [1.0, 0.0])
    assert statistical_fidelity(p, p) == pytest.approx(1.0)
    q = _one_photon([(0,), (1,)], [0.0, 1.0])
    assert statistical_fidelity(p, q) == pytest.approx(0.0)
    # pattern alignment: same patterns listed in a different order
    q2 = _one_photon([(1,), (0,)], [0.0, 1.0])
    assert statistical_fidelity(p, q2) == pytest.approx(1.0)


def test_statistical_fidelity_outcome_mismatch():
    p = _one_photon([(0,), (1,)], [0.5, 0.5])
    q = _one_photon([(0,), (2,)], [0.5, 0.5])
    with pytest.raises(ValueError, match="distributions are defined over different patterns"):
        statistical_fidelity(p, q)


def test_statistical_fidelity_requires_normalization():
    p = _one_photon([(0,), (1,)], [0.5, 0.5])
    q = _one_photon([(0,), (1,)], [0.3, 0.3])
    assert q.total == pytest.approx(0.6)
    with pytest.raises(ValueError, match=r"q is not normalized \(sum=0.6\)"):
        statistical_fidelity(p, q)

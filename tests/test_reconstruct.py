import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lnoisim import (
    FitError,
    MeasuredStatistics,
    canonical_form,
    canonical_phase_gauge,
    haar_random_unitary,
    matrix_distance,
    reconstruct_unitary,
    synthesize_statistics,
    two_photon_distribution,
)
from lnoisim.mesh import clements_layout
from lnoisim.reconstruct import _DIFF_STEP, _fit_model
from helpers import statistics_json
from oracles import (
    forward_difference_by_columns,
    mesh_by_embedding,
    reconstruction_residual_by_pair_loop,
)


def random_diag_phases(n, rng):
    return np.diag(np.exp(1j * rng.uniform(0, 2 * math.pi, n)))


def test_phase_gauge_normalizes_first_row_and_column():
    u = haar_random_unitary(4, seed=0)
    w = canonical_phase_gauge(u)
    assert np.allclose(w[0].imag, 0.0, atol=1e-12)
    assert np.all(w[0].real >= -1e-12)
    assert np.allclose(w[1:, 0].imag, 0.0, atol=1e-12)
    assert np.all(w[1:, 0].real >= -1e-12)
    # gauge fixing only re-phases rows/columns
    assert np.allclose(np.abs(w), np.abs(u), atol=1e-12)


@settings(deadline=None, max_examples=60)
@given(st.integers(2, 6), st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
@example(4, 8, 0.9)
def test_phase_gauge_collapses_port_phase_freedom(n, seed, overlap):
    # D_out u D_in: the same statistics, gauge and canonical form as u
    rng = np.random.default_rng(seed)
    u = haar_random_unitary(n, seed=seed)
    v = random_diag_phases(n, rng) @ u @ random_diag_phases(n, rng)
    assert np.allclose(canonical_phase_gauge(v), canonical_phase_gauge(u), atol=1e-10)
    assert np.allclose(canonical_form(v), canonical_form(u), atol=1e-10)
    _assert_same_statistics(u, v, overlap)


def _assert_same_statistics(u, v, overlap):
    a = synthesize_statistics(u, overlap=overlap)
    b = synthesize_statistics(v, overlap=overlap)
    assert np.allclose(a.singles, b.singles, atol=1e-14)
    assert sorted(a.pairs) == sorted(b.pairs)
    for key in a.pairs:
        assert np.allclose(a.pairs[key].probabilities, b.pairs[key].probabilities, atol=1e-14)


def test_canonical_form_absorbs_conjugation():
    rng = np.random.default_rng(6)
    for seed in range(10):
        u = haar_random_unitary(4, seed=seed)
        v = random_diag_phases(4, rng) @ np.conj(u) @ random_diag_phases(4, rng)
        assert np.allclose(canonical_form(v), canonical_form(u), atol=1e-10)


@settings(deadline=None, max_examples=60)
@given(st.integers(2, 6), st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
@example(4, 3, 0.9)
def test_conjugation_really_is_unobservable(n, seed, overlap):
    # the whole reason canonical_form exists: u and conj(u) generate
    # identical singles and pair statistics
    u = haar_random_unitary(n, seed=seed)
    _assert_same_statistics(u, np.conj(u), overlap)
    assert np.allclose(canonical_form(np.conj(u)), canonical_form(u), atol=1e-10)


def test_measured_statistics_validation():
    u = haar_random_unitary(4, seed=1)
    stats = synthesize_statistics(u)
    assert stats.n_modes == 4
    assert sorted(stats.pairs) == [(k, l) for k in range(4) for l in range(k + 1, 4)]
    with pytest.raises(TypeError):
        stats.pairs[(0, 1)] = stats.pairs[(0, 2)]
    with pytest.raises(ValueError):
        MeasuredStatistics(stats.singles, {(1, 0): stats.pairs[(0, 1)]})
    with pytest.raises(ValueError):
        MeasuredStatistics(stats.singles, {(0, 2): stats.pairs[(0, 1)]})
    with pytest.raises(ValueError, match=r"input pairs \[\(0, 2\), .*\(2, 3\)\]"):
        MeasuredStatistics(stats.singles, {(0, 1): stats.pairs[(0, 1)]})
    with pytest.raises(ValueError, match="reconstruction needs at least 2 modes"):
        MeasuredStatistics([[1.0]], {})


def test_statistics_json_round_trip():
    stats = synthesize_statistics(haar_random_unitary(4, seed=2), overlap=0.945)
    loaded = MeasuredStatistics.from_json_dict(statistics_json(stats))
    assert np.allclose(loaded.singles, stats.singles)
    assert sorted(loaded.pairs) == sorted(stats.pairs)
    for key in stats.pairs:
        assert np.array_equal(loaded.pairs[key].probabilities, stats.pairs[key].probabilities)


def test_synthesized_singles_columns_normalized():
    stats = synthesize_statistics(haar_random_unitary(4, seed=4))
    assert np.allclose(stats.singles.sum(axis=0), 1.0, atol=1e-12)


def test_reconstruction_recovers_random_unitaries():
    for seed in range(5):
        u = haar_random_unitary(4, seed=40 + seed)
        stats = synthesize_statistics(u)
        result = reconstruct_unitary(stats, seed=seed)
        assert result.converged
        # exact statistics are fitted down to rounding level
        assert result.cost < 1e-20
        assert matrix_distance(canonical_form(u), result.unitary) < 1e-6
        # the fitted mesh reproduces the statistics it was trained on
        refit = synthesize_statistics(result.unitary)
        assert np.allclose(refit.singles, stats.singles, atol=1e-6)


def test_reconstruction_with_partial_overlap_model():
    u = haar_random_unitary(4, seed=77)
    stats = synthesize_statistics(u, overlap=0.945)
    result = reconstruct_unitary(stats, seed=1, overlap=0.945)
    assert matrix_distance(canonical_form(u), result.unitary) < 1e-6


def test_reconstruction_result_is_canonical():
    u = haar_random_unitary(4, seed=50)
    result = reconstruct_unitary(synthesize_statistics(u), seed=0)
    assert np.allclose(result.unitary, canonical_form(result.unitary), atol=1e-10)


def test_reconstruction_requires_full_pair_coverage():
    u = haar_random_unitary(4, seed=1)
    stats = synthesize_statistics(u)
    with pytest.raises(ValueError, match=r"no two-photon data for input pairs \[\(1, 3\)\]"):
        MeasuredStatistics(stats.singles, {k: v for k, v in stats.pairs.items() if k != (1, 3)})


def test_reconstruction_convergence_error_carries_best():
    u = haar_random_unitary(4, seed=1)
    stats = synthesize_statistics(u)
    with pytest.raises(FitError, match="best of 1 restarts left squared-residual sum") as excinfo:
        reconstruct_unitary(stats, seed=0, n_restarts=1, success_cost=0.0)
    best = excinfo.value.best_result
    assert best is not None
    assert not best.converged
    assert best.cost < 1e-12  # the fit itself was fine, only the bar was absurd


def test_reconstruction_deterministic_for_fixed_seed():
    u = haar_random_unitary(4, seed=60)
    stats = synthesize_statistics(u)
    r1 = reconstruct_unitary(stats, seed=9)
    r2 = reconstruct_unitary(stats, seed=9)
    assert np.array_equal(r1.unitary, r2.unitary)
    assert r1.cost == r2.cost


def test_two_photon_statistics_of_estimate_match_measurement():
    u = haar_random_unitary(4, seed=90)
    stats = synthesize_statistics(u, overlap=0.945)
    result = reconstruct_unitary(stats, seed=2, overlap=0.945)
    for k, l in itertools.combinations(range(4), 2):
        got = two_photon_distribution(result.unitary, (k, l), overlap=0.945)
        want = stats.pairs[(k, l)]
        for i, j in want.patterns:
            assert got.probability((i, j)) == pytest.approx(
                want.probability((i, j)), abs=1e-7
            )


@settings(deadline=None, max_examples=40)
@given(st.integers(2, 6), st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
def test_stacked_fit_residual_and_jacobian_match_loops(n, seed, overlap):
    """The fit residual matches the per-pair loop, and its stacked forward
    difference equals the column-by-column one on the same residual."""
    stats = synthesize_statistics(haar_random_unitary(n, seed=seed), overlap=overlap)
    residuals_and_jac = _fit_model(stats, overlap)
    layout = clements_layout(n)
    phases = np.random.default_rng(seed).uniform(0.0, 2 * math.pi, 2 * len(layout))
    cells = list(zip(layout, phases[: len(layout)], phases[len(layout) :]))
    pairs = {key: dist.probabilities for key, dist in stats.pairs.items()}
    want = reconstruction_residual_by_pair_loop(
        mesh_by_embedding(n, cells, np.zeros(n)), stats.singles, pairs, overlap
    )
    r, jac = residuals_and_jac(phases)
    assert np.abs(r - want).max() < 1e-13
    residuals = lambda p: residuals_and_jac(p)[0]  # noqa: E731
    assert np.array_equal(jac(), forward_difference_by_columns(residuals, phases, _DIFF_STEP))

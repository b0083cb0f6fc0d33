import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lnoisim import (
    FitError,
    MeasuredStatistics,
    MeshConfig,
    canonical_form,
    compose,
    decompose,
    haar_random_unitary,
    matrix_distance,
    reconstruct_unitary,
    synthesize_statistics,
    two_photon_distribution,
)
from lnoisim.mesh import _mesh_product, clements_layout
from lnoisim.reconstruct import (
    _DIFF_STEP,
    MIN_OVERLAP,
    _estimate,
    _fit_model,
    _forward_difference,
    _levenberg_marquardt,
)
from helpers import statistics_json
from oracles import (
    canonical_form_by_first_row_and_column,
    forward_difference_by_columns,
    least_squares_by_minpack,
    mesh_by_embedding,
    reconstruction_residual_by_pair_loop,
)


def random_diag_phases(n, rng):
    return np.diag(np.exp(1j * rng.uniform(0, 2 * math.pi, n)))


def test_phase_gauge_normalizes_first_row_and_column():
    u = haar_random_unitary(4, seed=0)
    w = canonical_form(u)
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


@st.composite
def bar_and_cross_meshes(draw, max_modes=6):
    """The unitary of a mesh whose cells may be bar (theta = pi) or cross
    (theta = 0), so that it can hold zeros anywhere, row 0 and column 0 included."""
    n = draw(st.integers(2, max_modes))
    theta = st.sampled_from([0.0, math.pi]) | st.floats(0.3, 2 * math.pi - 0.3)
    phase = st.floats(0.0, 2 * math.pi)
    thetas, phis = zip(*((draw(theta), draw(phase)) for _ in range(n * (n - 1) // 2)))
    return compose(MeshConfig(n, thetas, phis, [draw(phase) for _ in range(n)]))


def _mesh(thetas, phis, outputs):
    return compose(MeshConfig(len(outputs), thetas, phis, outputs))


#: A bar cell 0 keeps input 0 off output 3: u[3, 0] = 0.
_ZERO_AT_3_0 = _mesh(
    [math.pi, 1.3, 0.7, 2.1, 0.4, 1.9], [0.3, 2.0, 4.1, 1.1, 5.2, 0.8], [0.5, 1.5, 2.5, 3.5]
)


@settings(deadline=None, max_examples=60)
@given(bar_and_cross_meshes(), st.integers(0, 2**32 - 1))
@example(np.eye(4), 0)
@example(_ZERO_AT_3_0, 1)
def test_canonical_form_is_gauge_invariant_with_zeros_in_row_and_column_0(u, seed):
    # D_out u D_in and its conjugate have the canonical form of u, also when a
    # zero in row 0 or column 0 leaves no pivot there.
    rng = np.random.default_rng(seed)
    n = u.shape[0]
    v = random_diag_phases(n, rng) @ u @ random_diag_phases(n, rng)
    assert matrix_distance(canonical_form(v), canonical_form(u)) < 1e-10
    assert matrix_distance(canonical_form(np.conj(v)), canonical_form(u)) < 1e-10


def test_canonical_form_conjugates_each_block_on_its_own():
    # No statistic couples the blocks of a block-diagonal matrix, so each
    # block's conjugation is unobservable on its own.
    a, b, zero = haar_random_unitary(3, seed=5), haar_random_unitary(3, seed=6), np.zeros((3, 3))
    u = np.block([[a, zero], [zero, b]])
    v = np.block([[a, zero], [zero, np.conj(b)]])
    _assert_same_statistics(u, v, 0.945)
    assert matrix_distance(canonical_form(v), canonical_form(u)) < 1e-12


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_canonical_form_without_zeros_in_row_and_column_0_is_the_first_row_and_column_gauge(n, seed):
    u = haar_random_unitary(n, seed=seed)
    assert np.array_equal(canonical_form(u), canonical_form_by_first_row_and_column(u))


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
        result = reconstruct_unitary(stats)
        assert result.converged
        # exact statistics are fitted down to rounding level
        assert result.cost < 1e-20
        assert matrix_distance(canonical_form(u), result.unitary) < 1e-6
        # the fitted mesh reproduces the statistics it was trained on
        refit = synthesize_statistics(result.unitary)
        assert np.allclose(refit.singles, stats.singles, atol=1e-6)


@pytest.mark.parametrize("overlap", [1.0, 0.945, 0.3])
@pytest.mark.parametrize("n", range(2, 9))
def test_one_fit_recovers_20_of_20_haar_unitaries(n, overlap):
    for seed in range(20):
        u = haar_random_unitary(n, seed=seed)
        result = reconstruct_unitary(synthesize_statistics(u, overlap=overlap), overlap=overlap)
        assert matrix_distance(canonical_form(u), result.unitary) < 1e-10, seed


def _dft(n):
    k = np.arange(n)
    return np.exp(2j * math.pi * np.outer(k, k) / n) / math.sqrt(n)


_BLOCKS = np.block([
    [haar_random_unitary(2, seed=5), np.zeros((2, 2))], [np.zeros((2, 2)), haar_random_unitary(2, seed=6)]
])


@settings(deadline=None, max_examples=40)
@given(bar_and_cross_meshes(), st.sampled_from([1.0, 0.945]))
@example(np.eye(4), 1.0)
@example(np.eye(4)[[2, 0, 3, 1]], 0.945)
@example(np.eye(3)[::-1], 1.0)
@example(np.eye(4)[::-1], 1.0)
@example(_BLOCKS, 1.0)
@example(_dft(4), 0.945)
@example(_dft(5), 1.0)
@example(np.linalg.qr(np.random.default_rng(1).standard_normal((4, 4)))[0], 0.945)
@example(_mesh([math.pi, 1.0, 2.0, math.pi, 0.5, 1.5], [0.1] * 6, [0.0] * 4), 1.0)
@example(_ZERO_AT_3_0, 0.945)
def test_one_fit_fits_structured_unitaries(u, overlap):
    # Zeros (bar and cross cells, permutations, blocks) and real or
    # symmetric matrices, whose phases tie, still fit down to the success cost.
    stats = synthesize_statistics(u, overlap=overlap)
    assert reconstruct_unitary(stats, overlap=overlap).cost <= 1e-12


@pytest.mark.parametrize("overlap", [1e-2, 1e-3, 1e-6, MIN_OVERLAP])
def test_small_overlaps_still_fit(overlap):
    for seed in range(20):
        u = haar_random_unitary(4, seed=seed)
        result = reconstruct_unitary(synthesize_statistics(u, overlap=overlap), overlap=overlap)
        assert matrix_distance(canonical_form(u), result.unitary) < 1e-10, seed


def test_overlap_0_is_refused():
    # At overlap 0 the pair data carry no phase; at 4 modes and more the
    # moduli alone do not fix the unitary.  From about 1e-13 down the fit
    # can stop on a wrong unitary at a cost of 1e-30, so the bound sits above.
    for overlap in (0.0, 1e-13, 5e-324):
        stats = synthesize_statistics(haar_random_unitary(4, seed=0), overlap=overlap)
        with pytest.raises(ValueError, match=rf"overlap must lie in \[1e-09, 1\], got {overlap}"):
            reconstruct_unitary(stats, overlap=overlap)


def test_seed_is_an_unused_integer():
    # reconstruct_unitary draws nothing; a seed is accepted for the benchmark's calls.
    stats = synthesize_statistics(haar_random_unitary(3, seed=2))
    plain = reconstruct_unitary(stats)
    seeded = reconstruct_unitary(stats, seed=7)
    assert np.array_equal(plain.unitary, seeded.unitary) and plain.n_restarts_used == 1
    with pytest.raises(ValueError, match="seed must be an integer, got 1.5"):
        reconstruct_unitary(stats, seed=1.5)


def test_reconstruction_with_partial_overlap_model():
    u = haar_random_unitary(4, seed=77)
    stats = synthesize_statistics(u, overlap=0.945)
    result = reconstruct_unitary(stats, overlap=0.945)
    assert matrix_distance(canonical_form(u), result.unitary) < 1e-6


def test_reconstruction_result_is_canonical():
    u = haar_random_unitary(4, seed=50)
    result = reconstruct_unitary(synthesize_statistics(u))
    assert np.allclose(result.unitary, canonical_form(result.unitary), atol=1e-10)


def test_reconstruction_requires_full_pair_coverage():
    u = haar_random_unitary(4, seed=1)
    stats = synthesize_statistics(u)
    with pytest.raises(ValueError, match=r"no two-photon data for input pairs \[\(1, 3\)\]"):
        MeasuredStatistics(stats.singles, {k: v for k, v in stats.pairs.items() if k != (1, 3)})


def test_reconstruction_convergence_error_carries_best():
    # Singles with 0.1% relative noise leave a residual no fit can remove.
    u = haar_random_unitary(4, seed=3)
    stats = synthesize_statistics(u)
    noise = 1e-3 * np.random.default_rng(0).standard_normal(stats.singles.shape)
    noisy = MeasuredStatistics(stats.singles * (1.0 + noise), stats.pairs)
    match = r"the fit left squared-residual sum .* above 1.000e-12 after \d+ evaluations"
    with pytest.raises(FitError, match=match) as excinfo:
        reconstruct_unitary(noisy)
    best = excinfo.value.best_result
    assert best is not None
    assert not best.converged
    assert best.nfev > 1
    assert 1e-12 < best.cost < 1e-5
    # The best estimate still lies near the truth.
    assert matrix_distance(canonical_form(u), best.unitary) < 1e-2


def test_noisy_fit_ends_on_the_relative_cost_stop():
    # At 1% noise most fits stop on an accepted step that barely lowers the
    # cost; without that stop this one runs 22 evaluations.
    stats = synthesize_statistics(haar_random_unitary(4, seed=0), overlap=0.945)
    noise = 0.01 * np.random.default_rng(100).standard_normal((4, 4))
    noisy = MeasuredStatistics(np.clip(stats.singles * (1.0 + noise), 0.0, 1.0), stats.pairs)
    with pytest.raises(FitError) as excinfo:
        reconstruct_unitary(noisy, overlap=0.945)
    assert excinfo.value.best_result.nfev == 7


def test_fit_of_an_inconsistent_residual_ends_on_the_relative_cost_stop():
    # r(x) = (x - 1, x + 1) has least cost 2, at x = 0; without the stop it takes 17 evaluations.
    fit = _levenberg_marquardt(lambda x: np.concatenate([x - 1.0, x + 1.0], axis=-1), [5.0])
    assert fit.cost == pytest.approx(2.0, rel=1e-15)
    assert abs(fit.x[0]) < 1e-12
    assert fit.nfev == 6


def test_reconstruction_deterministic_for_fixed_seed():
    u = haar_random_unitary(4, seed=60)
    stats = synthesize_statistics(u)
    r1 = reconstruct_unitary(stats)
    r2 = reconstruct_unitary(stats)
    assert np.array_equal(r1.unitary, r2.unitary)
    assert r1.cost == r2.cost


def test_two_photon_statistics_of_estimate_match_measurement():
    u = haar_random_unitary(4, seed=90)
    stats = synthesize_statistics(u, overlap=0.945)
    result = reconstruct_unitary(stats, overlap=0.945)
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
    residuals = _fit_model(stats, overlap)
    layout = clements_layout(n)
    phases = np.random.default_rng(seed).uniform(0.0, 2 * math.pi, 2 * len(layout))
    cells = list(zip(layout, phases[: len(layout)], phases[len(layout) :]))
    pairs = {key: dist.probabilities for key, dist in stats.pairs.items()}
    want = reconstruction_residual_by_pair_loop(
        mesh_by_embedding(n, cells, np.zeros(n)), stats.singles, pairs, overlap
    )
    r = residuals(phases)
    assert np.abs(r - want).max() < 1e-13
    jac = _forward_difference(residuals, phases, r)
    assert np.array_equal(jac, forward_difference_by_columns(residuals, phases, _DIFF_STEP))


@settings(deadline=None, max_examples=40)
@given(
    st.sampled_from([2, 4, 5, 6]),
    st.integers(0, 2**32 - 1),
    st.floats(0.3, 1.0),
    st.floats(-9.0, -6.0),
    st.integers(0, 2**32 - 1),
)
def test_fit_matches_minpack_on_noisy_statistics(n, seed, overlap, log_noise, noise_seed):
    """From the same start and on the same forward-difference Jacobian, the
    fit ends no worse than MINPACK's Levenberg-Marquardt, at the same unitary.

    The singles carry relative noise up to 1e-6, at which about half the
    fits still reach the success cost.  Outside this domain the two can
    part (ROADMAP items 7 and 8): at 5e-6 noise one 5-mode fit stopped
    7e-9 above MINPACK's cost, from 7e-5 up the estimate can start in a
    wrong basin, and a few 3-mode unitaries have a nearly flat direction
    along which both solvers stop short at any noise."""
    stats = synthesize_statistics(haar_random_unitary(n, seed=seed), overlap=overlap)
    noise = 10.0**log_noise * np.random.default_rng(noise_seed).standard_normal(stats.singles.shape)
    noisy = MeasuredStatistics(np.clip(stats.singles * (1.0 + noise), 0.0, 1.0), stats.pairs)
    start = decompose(_estimate(noisy, overlap))
    x0 = np.concatenate([start.thetas, start.phis])
    residuals = _fit_model(noisy, overlap)
    fit = _levenberg_marquardt(residuals, x0)
    x_ref, cost_ref = least_squares_by_minpack(
        residuals, x0, jac=lambda p: _forward_difference(residuals, p, residuals(p))
    )
    # Noise-free draws leave both costs at the rounding level, up to about 1e-20.
    assert fit.cost <= cost_ref * (1.0 + 1e-9) + 1e-20
    fitted, ref = (canonical_form(_mesh_product(n, *np.split(p, 2))) for p in (fit.x, x_ref))
    assert matrix_distance(fitted, ref) < 1e-6


def test_singular_damped_solve_is_a_rejected_step(monkeypatch):
    # The idle second parameter leaves J^T J singular; once mu has shrunk
    # below its rounding the damped system is singular too.
    solve, singular = np.linalg.solve, []

    def counting_solve(a, b):
        try:
            return solve(a, b)
        except np.linalg.LinAlgError:
            singular.append(a)
            raise

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    fit = _levenberg_marquardt(lambda p: np.exp(-p[..., :1]), [0.0, 0.0])
    assert singular
    assert fit.cost < 1.0
    assert np.all(np.isfinite(fit.x))

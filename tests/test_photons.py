import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lnoisim import (
    FitError,
    MZIParams,
    PhotonDistribution,
    SourceModel,
    fit_hom_visibility,
    fit_hom_visibility_poisson,
    fringe_contrast_from_overlap,
    haar_random_unitary,
    hom_fringe,
    mzi_transfer,
    nphoton_collision_free_distribution,
    permanent,
    statistical_fidelity,
    two_photon_distribution,
)
from lnoisim.photons import SOURCE_OVERLAP, _fit_fringe
from oracles import (
    fringe_fit_by_curve_fit,
    fringe_model,
    hom_fringe_law,
    mzi_by_matmul,
    permanent_by_permutation_sum,
    two_photon_probabilities_by_mode_expansion,
)


def test_source_model_derived_quantities():
    src = SourceModel()
    assert src.repetition_period_ns == 13.8
    assert SOURCE_OVERLAP == 0.945
    with pytest.raises(ValueError):
        SourceModel(repetition_period_ns=0.0)


@settings(deadline=None, max_examples=60)
@given(
    st.integers(1, 6), st.integers(1, 6), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1), st.data()
)
def test_one_photon_distribution_is_the_single_photon_law(n_out, n_in, scale, seed, data):
    # One photon in mode k follows |t[j, k]|^2 bit for bit, on any passive
    # matrix: Haar columns, scaled below unity, possibly non-square.
    t = scale * haar_random_unitary(max(n_out, n_in), seed=seed)[:n_out, :n_in]
    k = data.draw(st.integers(0, n_in - 1))
    d = nphoton_collision_free_distribution(t, [k])
    assert d.input_modes == (k,)
    assert d.patterns == tuple((j,) for j in range(n_out))
    assert d.probabilities.tobytes() == (np.abs(t[:, k]) ** 2).tobytes()
    if n_out >= n_in and scale == 1.0:
        assert d.total == pytest.approx(1.0)


@settings(deadline=None, max_examples=40)
@given(st.integers(2, 5), st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
def test_two_photon_matches_mode_expansion_oracle(n, seed, x):
    # For a Haar U, every input pair and any overlap x, each pattern matches
    # the mode expansion, and the full distribution, bunching included, sums to 1.
    u = haar_random_unitary(n, seed=seed)
    for k, l in itertools.combinations(range(n), 2):
        d = two_photon_distribution(u, (k, l), overlap=x)
        want = two_photon_probabilities_by_mode_expansion(u, k, l, x)
        assert set(d.patterns) == set(want)
        for pattern, p in zip(d.patterns, d.probabilities):
            assert p == pytest.approx(want[pattern], abs=1e-12)
        assert d.total == pytest.approx(1.0, abs=1e-12)


def test_two_photon_indistinguishable_uses_permanents():
    u = haar_random_unitary(4, seed=9)
    d = two_photon_distribution(u, (1, 3), overlap=1.0)
    for i, j in itertools.combinations(range(4), 2):
        sub = u[np.ix_((i, j), (1, 3))]
        assert d.probability((i, j)) == pytest.approx(abs(permanent(sub)) ** 2, abs=1e-12)


def test_two_photon_distinguishable_is_classical():
    u = haar_random_unitary(4, seed=2)
    d = two_photon_distribution(u, (0, 1), overlap=0.0)
    p0 = np.abs(u[:, 0]) ** 2
    p1 = np.abs(u[:, 1]) ** 2
    for i, j in itertools.combinations(range(4), 2):
        assert d.probability((i, j)) == pytest.approx(p0[i] * p1[j] + p0[j] * p1[i], abs=1e-12)
    for i in range(4):
        assert d.probability((i, i)) == pytest.approx(p0[i] * p1[i], abs=1e-12)


def test_two_photon_collision_free_view():
    u = haar_random_unitary(4, seed=5)
    d = two_photon_distribution(u, (0, 2), overlap=0.9)
    cf = two_photon_distribution(u, (0, 2), overlap=0.9, collision_free_only=True)
    assert d.patterns == tuple((i, j) for i in range(4) for j in range(i, 4))
    assert cf.patterns == tuple(itertools.combinations(range(4), 2))
    keep = [k for k, (i, j) in enumerate(d.patterns) if i < j]
    assert np.array_equal(cf.probabilities, d.probabilities[keep])
    assert cf.total < d.total
    assert d.probability((5, 7)) == 0.0  # unknown pattern reads as zero


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize(
    "make, match",
    [
        (lambda v: SourceModel(repetition_period_ns=v), "repetition_period_ns must be positive and finite"),
        (lambda v: hom_fringe(MZIParams.ideal(), [0.0], 1.0, accidental_floor=v),
         "accidental_floor must be finite and non-negative"),
    ],
    ids=["repetition_period_ns", "accidental_floor"],
)
def test_source_and_fringe_refuse_values_that_are_not_finite(make, match, value):
    with pytest.raises(ValueError, match=match):
        make(value)


def test_two_photon_validation():
    u = haar_random_unitary(4, seed=5)
    with pytest.raises(ValueError):
        two_photon_distribution(u, (2, 2), overlap=1.0)
    with pytest.raises(ValueError):
        two_photon_distribution(u, (0, 1), overlap=1.5)
    with pytest.raises(ValueError):
        two_photon_distribution(u, (0, 7), overlap=1.0)


def test_two_photon_json_round_trip():
    u = haar_random_unitary(4, seed=8)
    d = two_photon_distribution(u, (1, 2), overlap=0.5)
    d2 = PhotonDistribution.from_json_dict(d.to_json_dict())
    assert d2.input_modes == (1, 2)
    assert d2.patterns == d.patterns
    assert np.array_equal(d2.probabilities, d.probabilities)


def test_hom_fringe_matches_closed_form():
    cell = MZIParams.ideal()
    phases = np.linspace(0, 2 * math.pi, 101)
    for x in (0.0, 0.5, 0.927, 1.0):
        got = hom_fringe(cell, phases, x)
        assert np.allclose(got, hom_fringe_law(phases, x), atol=1e-12)


@settings(deadline=None, max_examples=50)
@given(
    st.floats(-0.5, 0.5),
    st.floats(0.0, 6.0),
    st.floats(0.0, 1.0),
    st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=8),
)
def test_hom_fringe_matches_mode_expansion_on_any_cell(d, loss_db, x, phases):
    cell = MZIParams(coupler_imbalance=d, insertion_loss_db=loss_db)
    got = hom_fringe(cell, phases, x)
    for value, phase in zip(got, phases):
        t = mzi_by_matmul(0.5 + d, 0.5, loss_db, phase)
        want = two_photon_probabilities_by_mode_expansion(t, 0, 1, x)[(0, 1)]
        assert value == pytest.approx(want, abs=1e-14)


def test_hom_fringe_extrema():
    cell = MZIParams.ideal()
    x = 0.927
    vals = hom_fringe(cell, [0.0, math.pi / 2, math.pi, 1.5 * math.pi], x)
    assert vals[0] == pytest.approx(1.0, abs=1e-12)
    assert vals[1] == pytest.approx((1 - x) / 2, abs=1e-12)
    assert vals[2] == pytest.approx(1.0, abs=1e-12)
    assert vals[3] == pytest.approx((1 - x) / 2, abs=1e-12)


def test_hom_fringe_accidental_floor():
    cell = MZIParams.ideal()
    base = hom_fringe(cell, [math.pi / 2], 1.0)
    raised = hom_fringe(cell, [math.pi / 2], 1.0, accidental_floor=0.0025)
    assert raised[0] - base[0] == pytest.approx(0.0025)
    with pytest.raises(ValueError):
        hom_fringe(cell, [0.0], 1.0, accidental_floor=-1e-3)


def test_fringe_contrast_value():
    # (1 + x) / (3 - x) at x = 0.927
    assert fringe_contrast_from_overlap(0.927) == pytest.approx(1.927 / 2.073)
    assert fringe_contrast_from_overlap(1.0) == pytest.approx(1.0)
    assert fringe_contrast_from_overlap(0.0) == pytest.approx(1.0 / 3.0)


def test_fit_recovers_overlap_exactly_from_clean_data():
    cell = MZIParams.ideal()
    phases = np.linspace(0, 2 * math.pi, 41)
    for x in (0.3, 0.927, 0.945):
        v, err = fit_hom_visibility(phases, hom_fringe(cell, phases, x))
        assert v == pytest.approx(x, abs=1e-9)
        assert err < 1e-6


def test_fit_tolerates_scaled_and_offset_phase_axis():
    # voltage-derived phases with a miscalibrated Vpi and an offset
    cell = MZIParams.ideal()
    true_phases = np.linspace(0.2, 2 * math.pi + 0.2, 41)
    data = hom_fringe(cell, true_phases, 0.9)
    nominal = (true_phases - 0.2) / 1.07
    v, _ = fit_hom_visibility(nominal, data)
    assert v == pytest.approx(0.9, abs=1e-7)


def test_fit_rejects_degenerate_data():
    with pytest.raises(FitError):
        fit_hom_visibility([0.0, 0.1, 0.2, 0.3], [1, 1, 1, 1])  # too few points
    phases = np.linspace(0, 0.3, 10)  # span < pi/2
    with pytest.raises(FitError):
        fit_hom_visibility(phases, np.ones(10))
    with pytest.raises(FitError):
        fit_hom_visibility(np.linspace(0, 3, 10), np.zeros(10))
    phases = np.linspace(0, 2 * math.pi, 21)
    counts = hom_fringe(MZIParams.ideal(), phases, 0.9)
    # Non-finite data is bad input, not data the fit cannot support.
    with pytest.raises(ValueError, match="phases and coincidences must be finite"):
        fit_hom_visibility(phases, np.where(phases > 3, np.nan, counts))
    for sigma in (np.zeros(21), -np.ones(21), np.full(21, np.inf), np.ones(20)):
        with pytest.raises(FitError):
            fit_hom_visibility(phases, counts, sigma=sigma)
    # one positive point among negative ones pins A at 0, which zeroes the
    # V, s and d columns of the Jacobian, whatever their scale
    with pytest.raises(FitError):
        fit_hom_visibility(phases, np.where(phases > 0, -1.0, 1e-3))


def test_fit_of_five_points_a_quarter_period_apart_is_singular():
    # They sample cos^2 at only two values, which cannot fix four parameters.
    phases = np.linspace(0, 2 * math.pi, 5)
    with pytest.raises(FitError, match="fringe fit covariance is singular"):
        fit_hom_visibility(phases, hom_fringe(MZIParams.ideal(), phases, 0.9))


@settings(deadline=None, max_examples=60)
@given(
    st.floats(0.3, 0.99),
    st.one_of(st.none(), st.floats(15.0, 35.0)),
    st.floats(0.9, 1.1),
    st.floats(-0.3, 0.3),
    st.sampled_from([41, 201, 1001]),
    st.floats(50.0, 2000.0),
    st.integers(0, 2**32 - 1),
)
def test_fringe_fit_matches_curve_fit(x, extinction_db, scale, offset, n_points, mean, seed):
    cell = MZIParams.ideal() if extinction_db is None else MZIParams.with_extinction(extinction_db)
    nominal = np.linspace(0.0, 2 * math.pi, n_points)
    probs = hom_fringe(cell, scale * nominal + offset, x)
    counts = np.random.default_rng(seed).poisson(probs * mean).astype(float)

    v, err = fit_hom_visibility(nominal, counts)
    v_ref, err_ref, popt = fringe_fit_by_curve_fit(nominal, counts)
    assert abs(v - v_ref) <= 1e-6
    assert abs(err - err_ref) <= 1e-4 * err_ref

    v, err = fit_hom_visibility_poisson(nominal, counts)
    sigma = np.sqrt(np.maximum(fringe_model(nominal, *popt), 1.0))
    v_ref, err_ref, _ = fringe_fit_by_curve_fit(nominal, counts, sigma)
    assert abs(v - v_ref) <= 1e-6
    assert abs(err - err_ref) <= 1e-4 * err_ref


@settings(deadline=None, max_examples=100)
@given(st.integers(-300, 300), st.one_of(st.none(), st.integers(-300, 300)))
@example(-200, None)
@example(300, 300)
def test_fringe_fit_is_scale_free(k, j):
    # Counts scaled by 10^k, and sigma (if any) by 10^j, give the same V and
    # standard error: both are ratios in which the scales cancel.
    phases = np.linspace(0.0, 2 * math.pi, 21)
    probs = hom_fringe(MZIParams.ideal(), phases, 0.8)
    counts = np.random.default_rng(7).poisson(500 * probs).astype(float)
    sigma = None if j is None else np.sqrt(np.maximum(counts, 1.0))
    v, err = fit_hom_visibility(phases, counts, sigma)
    v_k, err_k = fit_hom_visibility(phases, counts * 10.0**k, None if j is None else sigma * 10.0**j)
    assert v_k == pytest.approx(v, rel=1e-12)
    assert err_k == pytest.approx(err, rel=1e-12)


@settings(deadline=None, max_examples=200)
@given(
    hnp.arrays(float, st.integers(5, 60), elements=st.floats(0.0, 1e3)),
    st.floats(math.pi / 2, 4 * math.pi),
    st.floats(-10.0, 10.0),
)
# Counts near the float floor, where the covariance's sv^-2 once overflowed.
@example(counts=np.full(5, 5.98813789e-159), span=2.0, start=0.0)
def test_fringe_fit_parameters_stay_inside_bounds(counts, span, start):
    phases = np.linspace(start, start + span, counts.size)
    try:
        _, _, params = _fit_fringe(phases, counts, None)
    except FitError:
        return
    assert np.all(params >= [0.0, 0.0, 0.2, -math.pi])
    assert np.all(params <= [np.inf, 1.2, 5.0, math.pi])


@settings(deadline=None, max_examples=60)
@given(st.integers(2, 7), st.integers(0, 2**32 - 1), st.data())
def test_nphoton_collision_free_agrees_with_pair_statistics(n, seed, data):
    # At two photons the n-photon distribution is the collision-free pair view.
    u = haar_random_unitary(n, seed=seed)
    pair = data.draw(st.sampled_from(list(itertools.combinations(range(n), 2))))
    d2 = two_photon_distribution(u, pair, overlap=1.0, collision_free_only=True)
    dn = nphoton_collision_free_distribution(u, pair)
    assert dn.input_modes == d2.input_modes == pair
    assert dn.patterns == d2.patterns
    assert np.allclose(dn.probabilities, d2.probabilities, rtol=0.0, atol=1e-12)


def test_benchmark_members_alias_the_distribution():
    # perfbench/ reads `outcomes` and passes `to_distribution()` to the fidelity.
    d = two_photon_distribution(haar_random_unitary(4, seed=3), (0, 2), overlap=0.9)
    assert d.outcomes == d.patterns
    assert d.to_distribution() is d
    assert statistical_fidelity(d.to_distribution(), d.to_distribution()) == pytest.approx(1.0)


@settings(deadline=None, max_examples=60)
@given(st.integers(2, 7), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_nphoton_probabilities_are_permanents(n_modes, n_photons, seed):
    n_photons = min(n_photons, n_modes)
    u = haar_random_unitary(n_modes, seed=seed)
    inputs = sorted(np.random.default_rng(seed).choice(n_modes, n_photons, replace=False))
    d = nphoton_collision_free_distribution(u, inputs)
    patterns = list(itertools.combinations(range(n_modes), n_photons))
    assert list(d.patterns) == patterns
    total = 0.0
    for pattern in patterns:
        want = abs(permanent_by_permutation_sum(u[np.ix_(pattern, inputs)])) ** 2
        assert d.probability(pattern) == pytest.approx(want, abs=1e-12)
        total += want
    assert d.total == pytest.approx(total)
    if n_photons == 1:
        assert total == pytest.approx(1.0)
    else:
        assert total < 1.0  # bunching carries the rest

import math
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lnoisim import (
    EXTINCTION_CAP_DB,
    GratingSpectrum,
    MZIParams,
    PhaseShifterParams,
    demux_input_transmissions,
    eom_response,
    eom_s21_db,
    eom_slot_response,
    estimate_mzi_loss_from_demux,
    extinction_ratio_db,
    is_unitary,
    mzi_transfer,
    phase_from_voltage,
    s21_crossing_ghz,
    voltage_for_phase,
)
from oracles import (
    extinction_by_dense_sweep,
    first_order_lowpass_gain_db,
    first_order_step,
    mzi_by_matmul,
    pole_response_by_photon_loop,
    s21_db_by_lsim_fit,
    zoh_lowpass_by_lfilter,
)


# --- phase shifter --------------------------------------------------------


def test_phase_is_linear_in_voltage():
    p = PhaseShifterParams()
    assert phase_from_voltage(p, 0.0) == 0.0
    assert phase_from_voltage(p, 4.5) == pytest.approx(math.pi)
    assert phase_from_voltage(p, -2.25) == pytest.approx(-math.pi / 2)
    # Zero volts is zero phase whatever V_pi, and arrays map elementwise.
    other = PhaseShifterParams(v_pi_volts=3.0)
    got = phase_from_voltage(other, np.array([-6.0, 0.0, 1.5, 3.0]))
    assert got[1] == 0.0
    assert got == pytest.approx([-2 * math.pi, 0.0, math.pi / 2, math.pi], rel=1e-15)


def test_voltage_for_phase_round_trip():
    for p in (PhaseShifterParams(), PhaseShifterParams(v_pi_volts=3.7)):
        for phase in np.linspace(-9.0, 9.0, 61):
            v = voltage_for_phase(p, phase)
            back = phase_from_voltage(p, v)
            assert math.remainder(back - phase, 2 * math.pi) == pytest.approx(0.0, abs=1e-12)
            assert abs(v) <= p.v_pi_volts + 1e-12


def test_voltage_for_phase_prefers_positive_pi():
    p = PhaseShifterParams()
    assert voltage_for_phase(p, math.pi) == pytest.approx(p.v_pi_volts)
    assert voltage_for_phase(p, -math.pi) == pytest.approx(p.v_pi_volts)
    assert voltage_for_phase(p, 3 * math.pi) == pytest.approx(p.v_pi_volts)


def test_shifter_validation():
    with pytest.raises(ValueError):
        PhaseShifterParams(v_pi_volts=0.0)
    with pytest.raises(ValueError):
        PhaseShifterParams(f_3db_ghz=-1.0)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize(
    "make, match",
    [
        (lambda v: PhaseShifterParams(v_pi_volts=v), "v_pi_volts must be positive and finite"),
        (lambda v: MZIParams(insertion_loss_db=v), "insertion_loss_db is a finite, non-negative"),
        (lambda v: voltage_for_phase(PhaseShifterParams(), v), "phase_rad must be finite"),
    ],
    ids=["v_pi_volts", "insertion_loss_db", "voltage_for_phase"],
)
def test_cell_parameters_that_are_not_finite_are_refused(make, match, value):
    with pytest.raises(ValueError, match=match):
        make(value)


EXTINCTION_RANGE = r"extinction ratio must lie in \(0, 300\] dB, got "


@pytest.mark.parametrize("er_db", [400.0, 4000.0, math.inf, math.nan])
def test_extinction_past_the_cap_is_refused(er_db):
    # 4000 dB once overflowed 10 ** (er_db / 10), and inf gave an ideal cell.
    with pytest.raises(ValueError, match=EXTINCTION_RANGE):
        MZIParams.with_extinction(er_db)
    assert extinction_ratio_db(MZIParams.with_extinction(EXTINCTION_CAP_DB)) > 299.0


@pytest.mark.parametrize("er_db", [0.0, -3.0, -math.inf])
def test_extinction_of_0_db_and_below_is_refused(er_db):
    # These once named the leakage they ask for, which the caller did not pass.
    with pytest.raises(ValueError, match=EXTINCTION_RANGE):
        MZIParams.with_extinction(er_db)


@pytest.mark.parametrize("er_db", [5e-324, 1e-15, 1.4464911998299302e-15])
def test_extinction_whose_leakage_rounds_to_one_half_is_the_crossed_cell(er_db):
    cell = MZIParams.with_extinction(er_db)
    assert cell.coupler_imbalance == 0.5
    assert extinction_ratio_db(cell) == 0.0


def test_a_cell_built_without_a_shifter_has_the_stock_one():
    stock = MZIParams(shifter=PhaseShifterParams())
    for cell in (MZIParams(), MZIParams.ideal(), MZIParams.with_bar_leakage(0.01),
                 MZIParams.with_extinction(20.0)):
        assert cell.shifter == PhaseShifterParams()
        assert cell.shifter is MZIParams().shifter
    assert MZIParams() == stock
    assert MZIParams.with_extinction(20.0) == MZIParams.with_bar_leakage(1.0 / (1.0 + 10.0**2.0))


# --- couplers and MZI cells -----------------------------------------------


def test_coupler_imbalance_shifts_ratio():
    # 1/2 + 0.1 of the power crosses the input coupler; the output coupler is balanced.
    cell = MZIParams(coupler_imbalance=0.1)
    for phase in (0.0, 0.7, math.pi):
        m = mzi_transfer(cell, phase)
        assert is_unitary(m)
        assert np.max(np.abs(m - mzi_by_matmul(0.6, 0.5, 0.0, phase))) <= 1e-14
    # The cross state leaks 1/2 - sqrt(r (1 - r)) into the bar port.
    assert abs(mzi_transfer(cell, 0.0)[0, 0]) ** 2 == pytest.approx(0.5 - math.sqrt(0.24))
    for bad in (0.6, -0.6, math.nan, math.inf):
        with pytest.raises(ValueError, match="coupler_imbalance must lie in"):
            MZIParams(coupler_imbalance=bad)


def test_mzi_bar_power_follows_half_angle():
    cell = MZIParams.ideal()
    for phase in np.linspace(0, 2 * math.pi, 17):
        m = mzi_transfer(cell, phase)
        assert abs(m[0, 0]) ** 2 == pytest.approx(math.sin(phase / 2) ** 2, abs=1e-12)
        assert is_unitary(m)


def test_mzi_cross_and_bar_states():
    cell = MZIParams.ideal()
    cross = mzi_transfer(cell, 0.0)
    assert abs(cross[1, 0]) == pytest.approx(1.0)
    assert abs(cross[0, 0]) == pytest.approx(0.0, abs=1e-15)
    bar = mzi_transfer(cell, math.pi)
    assert abs(bar[0, 0]) == pytest.approx(1.0)
    assert abs(bar[1, 0]) == pytest.approx(0.0, abs=1e-15)


def test_mzi_insertion_loss_scales_power():
    cell = MZIParams(insertion_loss_db=0.5)
    m = mzi_transfer(cell, 1.3)
    total = np.sum(np.abs(m[:, 0]) ** 2)
    assert total == pytest.approx(10 ** (-0.05), rel=1e-12)


imbalances = st.floats(-0.5, 0.5)
phase_arrays = hnp.arrays(
    float,
    hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
    elements=st.floats(-20.0, 20.0),
)


@settings(deadline=None)
@given(imbalances, st.floats(0.0, 30.0), phase_arrays)
def test_batched_mzi_matches_matmul_oracle(d, loss_db, phases):
    cell = MZIParams(coupler_imbalance=d, insertion_loss_db=loss_db)
    got = mzi_transfer(cell, phases)
    assert got.shape == phases.shape + (2, 2)
    for idx in np.ndindex(phases.shape):
        want = mzi_by_matmul(0.5 + d, 0.5, loss_db, float(phases[idx]))
        assert np.max(np.abs(got[idx] - want)) <= 1e-14
    scalar = float(phases.flat[0]) if phases.size else 0.3
    want = mzi_by_matmul(0.5 + d, 0.5, loss_db, scalar)
    assert np.max(np.abs(mzi_transfer(cell, scalar) - want)) <= 1e-14


@settings(deadline=None)
@given(imbalances, phase_arrays)
def test_lossless_cell_conserves_power_at_every_phase(d, phases):
    t = mzi_transfer(MZIParams(coupler_imbalance=d), phases)
    gram = np.conj(np.swapaxes(t, -1, -2)) @ t
    assert np.max(np.abs(gram - np.eye(2)), initial=0.0) <= 1e-14


@settings(deadline=None, max_examples=25)
@given(imbalances, st.floats(0.0, 10.0))
def test_closed_form_extinction_matches_dense_sweep(d, loss_db):
    got = extinction_ratio_db(MZIParams(coupler_imbalance=d, insertion_loss_db=loss_db))
    assume(got < 100.0)
    # 2000 phases put both extrema (0 and pi) on the grid
    want = extinction_by_dense_sweep(lambda p: mzi_by_matmul(0.5 + d, 0.5, loss_db, p), n_phases=2000)
    assert got == pytest.approx(want, abs=1e-8)


def test_extinction_ideal_cell_hits_cap():
    assert extinction_ratio_db(MZIParams.ideal()) == EXTINCTION_CAP_DB


def test_extinction_matches_dense_sweep_oracle():
    cell = MZIParams.with_bar_leakage(10 ** (-2.1))
    got = extinction_ratio_db(cell)
    want = extinction_by_dense_sweep(lambda p: mzi_transfer(cell, p))
    assert got == pytest.approx(want, abs=1e-6)
    # analytic: leakage l gives ER = (1 - l) / l
    leak = 10 ** (-2.1)
    assert got == pytest.approx(10 * math.log10((1 - leak) / leak), abs=1e-9)


def test_imbalance_inversions_round_trip():
    for leak in (1e-4, 1e-3, 10 ** (-2.1), 0.05):
        cell = MZIParams.with_bar_leakage(leak)
        worst = min(abs(mzi_transfer(cell, p)[0, 0]) ** 2 for p in np.linspace(0, 2 * math.pi, 2001))
        assert worst == pytest.approx(leak, rel=1e-4)
    for er in (15.0, 21.0, 30.0):
        cell = MZIParams.with_extinction(er)
        assert extinction_ratio_db(cell) == pytest.approx(er, abs=1e-6)
    with pytest.raises(ValueError, match="leakage must lie in"):
        MZIParams.with_bar_leakage(0.7)
    # 0 dB and below ask for a leakage of 1/2 or more.
    for er in (0.0, -3.0):
        with pytest.raises(ValueError, match=EXTINCTION_RANGE):
            MZIParams.with_extinction(er)


# --- drive electronics ------------------------------------------------------


def test_eom_passes_dc_exactly():
    p = PhaseShifterParams()
    drive = np.full(300, 2.2)
    out = eom_response(p, drive, sample_rate_ghz=40.0)
    assert np.allclose(out, 2.2, atol=1e-12)


def test_eom_takes_any_sample_rate():
    # The pole needs no grid: a rate below twice the bandwidth is no error.
    p = PhaseShifterParams(f_3db_ghz=6.5)
    x = np.array([0.0, 1.0, -1.0, 0.5])
    times = np.arange(x.size) / 13.0
    assert np.allclose(eom_response(p, x, 13.0), pole_response_by_photon_loop(x, 1 / 13.0, 6.5, times))
    # infinite bandwidth bypasses filtering entirely
    wide = PhaseShifterParams(f_3db_ghz=math.inf)
    assert np.array_equal(eom_response(wide, x, 0.7), x)
    for fs in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="sample_rate_ghz must be positive and finite"):
            eom_response(p, x, fs)


def test_eom_drive_shapes():
    p = PhaseShifterParams()
    with pytest.raises(ValueError, match="drive must be a 1-d waveform"):
        eom_response(p, np.zeros((2, 3)), 40.0)
    # An empty drive is an empty response; the slot kernel refuses empty levels.
    empty = eom_response(p, [], 40.0)
    assert empty.shape == (0,) and empty.dtype == float
    with pytest.raises(ValueError, match="levels must be a non-empty 1-d array"):
        eom_slot_response(p, [], 1.0, [0.0])


@settings(deadline=None, max_examples=150)
@given(
    hnp.arrays(float, st.integers(1, 3000), elements=st.floats(-10.0, 10.0)),
    st.floats(0.5, 50.0),
    st.one_of(st.none(), st.floats(0.005, 0.495)),
)
def test_eom_response_matches_sample_loop_and_lfilter(drive, fs, band):
    # Sample n is read at n / fs, the instant it starts to be held.
    p = PhaseShifterParams(f_3db_ghz=math.inf if band is None else band * fs)
    got = eom_response(p, drive, fs)
    times = (1.0 / fs) * np.arange(drive.size)
    want = pole_response_by_photon_loop(drive, 1.0 / fs, p.f_3db_ghz, times)
    assert np.max(np.abs(got - want)) <= 1e-13
    if band is not None:
        assert np.max(np.abs(got - zoh_lowpass_by_lfilter(drive, p.f_3db_ghz, fs))) <= 1e-13


@settings(deadline=None, max_examples=300)
@given(
    # Drive levels are often exactly 0 or V_pi: at the start of a slot after
    # a step to 0 V the output is d_j itself, so every bit of d_j shows.
    st.lists(st.sampled_from([0.0, 4.5]) | st.floats(-10.0, 10.0), min_size=1, max_size=400),
    st.integers(1, 40),
    st.sampled_from([0.25, 1.0, 13.75]),
    # log10 of f_3db * slot_ns: q = exp(-2 pi f_3db slot_ns) from next to one to 0.
    st.floats(-9.0, 3.0),
    st.data(),
)
@example([4.5, 4.5, 0.0, 0.0] * 100, 1, 13.75, math.log10(6.5 * 13.75), None)
@example([4.5, 0.0] * 200, 1, 1.0, -9.0, None)
@example([4.5, 0.0], 30, 1.0, -1.0, None)
@example([1.0, -2.0, 3.0], 30, 0.25, -2.0, None)
def test_slot_response_is_the_sequential_recurrence(levels, run, slot_ns, log_band, data):
    # Long constant runs give long stretches of zero steps, where a sweep
    # settles one slot at a time; a tiny band gives q next to one.  At each
    # slot start, an exact multiple of slot_ns here, the output is v_j + d_j
    # exactly, so the sweeps must give the sequential d_j bit for bit.
    v = np.repeat(levels, run)
    p = PhaseShifterParams(f_3db_ghz=10.0**log_band / slot_ns)
    starts = slot_ns * np.arange(v.size)
    got = eom_slot_response(p, v, slot_ns, starts)
    assert np.array_equal(got, pole_response_by_photon_loop(v, slot_ns, p.f_3db_ghz, starts))
    if data is not None:
        span = slot_ns * (v.size + 1)
        times = np.array(data.draw(st.lists(st.floats(-slot_ns, span), max_size=50)))
        got = eom_slot_response(p, v, slot_ns, times)
        want = pole_response_by_photon_loop(v, slot_ns, p.f_3db_ghz, times)
        assert np.allclose(got, want, rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("slot_ns", [0.0, -1.0, math.inf, math.nan])
def test_slot_response_rejects_a_slot_that_is_not_positive_and_finite(slot_ns):
    with pytest.raises(ValueError, match="slot_ns must be positive and finite"):
        eom_slot_response(PhaseShifterParams(), [0.0, 4.5], slot_ns, [0.0])


@pytest.mark.parametrize("f_3db", [1e308, 2e307, sys.float_info.max])
def test_slot_response_of_a_band_near_the_float_range_is_the_held_level(f_3db):
    # 2 pi f_3db overflows here; the response must still be the level held
    # since the last edge, and the edge itself the level before it.
    p = PhaseShifterParams(f_3db_ghz=f_3db)
    got = eom_slot_response(p, [0.0, 4.5, 0.0], 13.8, [-1.0, 0.0, 6.9, 13.8, 20.7, 27.6, 50.0])
    assert np.array_equal(got, [0.0, 0.0, 0.0, 0.0, 4.5, 4.5, 0.0])


def step_response(p, dt, n):
    """The shifter's first n samples, dt apart, after a unit step at 0 ns."""
    return eom_slot_response(p, [0.0, 1.0], n * dt, n * dt + dt * np.arange(n))


@settings(deadline=None, max_examples=100)
@given(st.integers(1, 5000), st.floats(0.5, 50.0), st.floats(0.005, 0.495))
def test_eom_step_response_matches_lfilter(n, fs, band):
    p = PhaseShifterParams(f_3db_ghz=band * fs)
    step = np.concatenate([[0.0], np.ones(n)])
    y = eom_response(p, step, fs)
    assert np.max(np.abs(y - zoh_lowpass_by_lfilter(step, p.f_3db_ghz, fs))) <= 1e-13


def test_eom_step_approaches_first_order_response():
    # The pole is exact, not a discretization: the step response is the
    # analog exponential at any spacing, with no ringing.
    p = PhaseShifterParams()
    for dt in (0.005, 0.05, 0.4):
        t = dt * np.arange(200)
        y = step_response(p, dt, t.size)
        assert np.max(np.abs(y - first_order_step(t, p.f_3db_ghz))) < 1e-14
        assert np.all(np.diff(y) >= 0.0)  # monotone rise


def test_eom_s21_matches_analog_reference():
    p = PhaseShifterParams()
    freqs = [1.0, 3.0, 6.5, 10.0, 1e3]
    got = eom_s21_db(p, freqs)
    want = [first_order_lowpass_gain_db(f, 6.5) for f in freqs]
    assert np.allclose(got, want, rtol=1e-14, atol=0.0)
    assert got[2] == pytest.approx(10 * math.log10(0.5), abs=1e-15)


def test_s21_crossing_near_nominal_bandwidth():
    p = PhaseShifterParams()
    crossing = s21_crossing_ghz(p)
    assert crossing == pytest.approx(6.5, rel=0.01)
    assert crossing == pytest.approx(6.5 * math.sqrt(10**0.3 - 1.0), rel=1e-14)
    assert round(crossing, 4) == 6.4846


@settings(deadline=None, max_examples=30)
@given(st.floats(0.5, 50.0), st.floats(math.log10(0.05), 1.0))
@example(6.5, 0.0)
def test_s21_closed_form_matches_sine_fit(f_3db, log_ratio):
    # The lsim oracle joins its input samples linearly, which reads 1.8e-4 dB
    # low at its 400 samples a period.
    p = PhaseShifterParams(f_3db_ghz=f_3db)
    f = 10.0**log_ratio * f_3db
    got = eom_s21_db(p, [f])[0]
    assert got == pytest.approx(s21_db_by_lsim_fit(f_3db, f), abs=3e-4)


@settings(deadline=None, max_examples=200)
@given(st.floats(1e-9, 1e9) | st.floats(1e9, 1e300))
def test_s21_at_its_crossing_is_the_threshold(f_3db):
    p = PhaseShifterParams(f_3db_ghz=f_3db)
    crossing = s21_crossing_ghz(p)
    assert 0.0 < crossing < f_3db
    assert eom_s21_db(p, [crossing])[0] == pytest.approx(-3.0, rel=1e-12)


def test_s21_edges():
    instant = PhaseShifterParams(f_3db_ghz=math.inf)
    assert np.array_equal(eom_s21_db(instant, [1.0, 19.0, 1e300]), [0.0, 0.0, 0.0])
    p = PhaseShifterParams(f_3db_ghz=6.5)
    for freq in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="probe frequencies"):
            eom_s21_db(p, [1.0, freq])
    with pytest.raises(ValueError, match="instantaneous"):
        s21_crossing_ghz(instant)


# --- grating couplers -------------------------------------------------------


def test_grating_parabola_values():
    g = GratingSpectrum()
    assert g.efficiency_db(930.0) == pytest.approx(-3.4)
    # 1 dB down at half the 1 dB full bandwidth (6 nm) off center
    assert g.efficiency_db(936.0) == pytest.approx(-4.4)
    assert g.efficiency_db(924.0) == pytest.approx(-4.4)


def test_grating_band_limits():
    g = GratingSpectrum()
    with pytest.raises(ValueError, match="wavelength 904.9 nm outside modeled band"):
        g.efficiency_db(904.9)
    with pytest.raises(ValueError, match="wavelength 955.1 nm outside modeled band"):
        g.efficiency_db(955.1)


# --- loss bookkeeping -------------------------------------------------------


def test_mzi_loss_estimator_hand_case():
    # external paths cross one cell (-0.8 dB), internal cross two (-1.6 dB)
    t_ext = 10 ** (-0.8 / 10)
    t_int = 10 ** (-1.6 / 10)
    transmissions = [t_int, t_int, t_ext, t_ext]
    est = estimate_mzi_loss_from_demux(transmissions, (2, 3), (0, 1))
    assert est == pytest.approx(0.8, abs=1e-12)


def test_mzi_loss_estimator_reads_only_the_named_inputs():
    # the zero at index 4, which no list names, is never logged
    est = estimate_mzi_loss_from_demux([0.5, 0.5, 0.7, 0.7, 0.0], (2, 3), (0, 1))
    assert est == pytest.approx(10 * math.log10(0.7 / 0.5), abs=1e-12)


def test_mzi_loss_estimator_validation():
    with pytest.raises(ValueError):
        estimate_mzi_loss_from_demux([0.5, 0.5, 1.5, 0.5], (2, 3), (0, 1))
    with pytest.raises(IndexError):
        estimate_mzi_loss_from_demux([0.5, 0.5, 0.5, 0.5], (2, 5), (0, 1))
    with pytest.raises(ValueError):
        estimate_mzi_loss_from_demux([0.5, 0.5, 0.5, 0.5], (1, 2), (0, 1))


def test_mzi_loss_estimator_averages_a_repeated_index():
    # (2, 2) counts index 2 twice; the mean of one value is that value.
    t = [0.5, 0.5, 0.7, 0.7]
    d_int, d_ext = 10.0 * math.log10(0.5), 10.0 * math.log10(0.7)
    assert estimate_mzi_loss_from_demux(t, (2, 2), (0, 1)) == (d_ext + d_ext) / 2 - (d_int + d_int) / 2
    assert estimate_mzi_loss_from_demux(t, [2, 2, 3], (0,)) == (d_ext + d_ext + d_ext) / 3 - d_int


def test_mzi_loss_estimator_takes_iterators():
    t = [0.5, 0.6, 0.7, 0.8]
    want = estimate_mzi_loss_from_demux(t, (2, 3), (0, 1))
    assert estimate_mzi_loss_from_demux(t, (i for i in (2, 3)), iter([0, 1])) == want
    assert estimate_mzi_loss_from_demux(tuple(t), [2, 3], range(2)) == want


@pytest.mark.parametrize(
    "external, internal, error, match",
    [
        ((), (9,), ValueError, "need at least one external and one internal input"),
        ((9,), (), ValueError, "need at least one external and one internal input"),
        ((9, 2), (0, 9), ValueError, "an input cannot be both external and internal"),
        ((5, 2), (0, 1), IndexError, "input index 5 out of range"),
        ((2, 5), (0, 1), ValueError, r"transmission at index 2 must lie in \(0, 1\]"),
        ((3,), (9, 2), IndexError, "input index 9 out of range"),
        ((3,), (2, 9), ValueError, r"transmission at index 2 must lie in \(0, 1\]"),
        ((-1,), (0,), IndexError, "input index -1 out of range"),
    ],
)
def test_mzi_loss_estimator_checks_in_argument_order(external, internal, error, match):
    # Index 2 holds a transmission above 1: whichever bad input comes first is named.
    with pytest.raises(error, match=match):
        estimate_mzi_loss_from_demux([0.5, 0.5, 1.5, 0.5], external, internal)


#: (extinction_ratio_db of cell 0, tree transmissions, loss estimate) of each
#: tree, as exact reprs.  Any rewrite of the calibration formulas must keep them.
CALIBRATION_GOLDEN = {
    "lossless-ideal": (300.0, (1.0, 1.0, 1.0, 1.0), 0.0),
    "lossless-20db": (20.0, (1.0, 1.0, 1.0, 1.0), 0.0),
    "calibration-range": (
        16.25,
        (0.9388581918730973, 0.9388581918730973, 0.9689469499787371, 0.9689469499787371),
        0.13699999999999993,
    ),
    "demux-extinction-range": (
        27.500000000000004,
        (0.6823386941416695, 0.6823386941416696, 0.8260379495771787, 0.8260379495771787),
        0.8300000000000003,
    ),
    "demux-leakage-range": (
        19.04719942329207,
        (0.7550922276654339, 0.7550922276654339, 0.8689604292863018, 0.8689604292863018),
        0.6099999999999997,
    ),
    "three-losses": (
        30.16440692520927,
        (0.7775335915429876, 0.7775335915429876, 0.7762471166286917, 0.8709635899560807),
        0.24280839205794025,
    ),
}


def calibration_trees():
    """The trees of CALIBRATION_GOLDEN: a lossless one, one lossy cell in each
    range the benchmark draws (calibration extinction 15-35 dB, demux
    extinction 18-30 dB, demux bar leakage 0.003-0.02), and three cells of
    different losses and couplers."""
    return {
        "lossless-ideal": [MZIParams()] * 3,
        "lossless-20db": [MZIParams.with_extinction(20.0)] * 3,
        "calibration-range": [MZIParams.with_extinction(16.25, insertion_loss_db=0.137)] * 3,
        "demux-extinction-range": [MZIParams.with_extinction(27.5, insertion_loss_db=0.83)] * 3,
        "demux-leakage-range": [MZIParams.with_bar_leakage(0.0123, insertion_loss_db=0.61)] * 3,
        "three-losses": [
            MZIParams(coupler_imbalance=0.031, insertion_loss_db=0.25),
            MZIParams(coupler_imbalance=-0.07, insertion_loss_db=1.1),
            MZIParams(coupler_imbalance=0.0, insertion_loss_db=0.6),
        ],
    }


@pytest.mark.parametrize("name", sorted(CALIBRATION_GOLDEN))
def test_calibration_keeps_its_bits(name):
    tree = calibration_trees()[name]
    transmissions, external, internal = demux_input_transmissions(tree)
    got = (extinction_ratio_db(tree[0]), transmissions, estimate_mzi_loss_from_demux(transmissions, external, internal))
    assert repr(got) == repr(CALIBRATION_GOLDEN[name])

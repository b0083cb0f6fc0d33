import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lnoisim import (
    EXTINCTION_CAP_DB,
    AliasingError,
    BandRangeError,
    CouplerParams,
    DimensionError,
    GratingSpectrum,
    MZIParams,
    PhaseShifterParams,
    coupler_matrix,
    eom_response,
    eom_s21_db,
    eom_slot_response,
    estimate_mzi_loss_from_demux,
    extinction_ratio_db,
    imbalance_for_bar_leakage,
    imbalance_for_extinction,
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
    s21_crossing_by_scan,
    s21_db_by_sine_fit,
    slot_response_by_accumulate,
    tustin_lowpass_by_lfilter,
    tustin_lowpass_by_sample_loop,
    tustin_step_by_lfilter,
)


# --- phase shifter --------------------------------------------------------


def test_phase_is_linear_in_voltage():
    p = PhaseShifterParams()
    assert phase_from_voltage(p, 0.0) == 0.0
    assert phase_from_voltage(p, 4.5) == pytest.approx(math.pi)
    assert phase_from_voltage(p, -2.25) == pytest.approx(-math.pi / 2)
    offset = PhaseShifterParams(phase_offset_rad=0.3)
    assert phase_from_voltage(offset, 0.0) == pytest.approx(0.3)


def test_voltage_for_phase_round_trip():
    p = PhaseShifterParams(phase_offset_rad=0.17)
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


# --- couplers and MZI cells -----------------------------------------------


def test_coupler_matrix_unitary_and_balanced():
    m = coupler_matrix(CouplerParams())
    assert is_unitary(m)
    assert abs(m[0, 0]) == pytest.approx(1 / math.sqrt(2))
    assert abs(m[1, 0]) == pytest.approx(1 / math.sqrt(2))
    # cross amplitude carries the i
    assert m[0, 1] == pytest.approx(1j * abs(m[0, 1]))


def test_coupler_imbalance_shifts_ratio():
    c = CouplerParams(imbalance=0.1)
    m = coupler_matrix(c)
    assert is_unitary(m)
    assert abs(m[0, 1]) ** 2 == pytest.approx(0.6)
    with pytest.raises(ValueError):
        CouplerParams(imbalance=0.6)


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


def cell_with(d_in, d_out, loss_db=0.0):
    return MZIParams(
        coupler_in=CouplerParams(imbalance=d_in),
        coupler_out=CouplerParams(imbalance=d_out),
        insertion_loss_db=loss_db,
    )


@settings(deadline=None)
@given(imbalances, imbalances, st.floats(0.0, 30.0), phase_arrays)
def test_batched_mzi_matches_matmul_oracle(d_in, d_out, loss_db, phases):
    cell = cell_with(d_in, d_out, loss_db)
    got = mzi_transfer(cell, phases)
    assert got.shape == phases.shape + (2, 2)
    r_in, r_out = cell.coupler_in.effective_ratio, cell.coupler_out.effective_ratio
    for idx in np.ndindex(phases.shape):
        want = mzi_by_matmul(r_in, r_out, loss_db, float(phases[idx]))
        assert np.max(np.abs(got[idx] - want)) <= 1e-14
    scalar = float(phases.flat[0]) if phases.size else 0.3
    want = mzi_by_matmul(r_in, r_out, loss_db, scalar)
    assert np.max(np.abs(mzi_transfer(cell, scalar) - want)) <= 1e-14


@settings(deadline=None)
@given(imbalances, imbalances, phase_arrays)
def test_lossless_cell_conserves_power_at_every_phase(d_in, d_out, phases):
    t = mzi_transfer(cell_with(d_in, d_out), phases)
    gram = np.conj(np.swapaxes(t, -1, -2)) @ t
    assert np.max(np.abs(gram - np.eye(2)), initial=0.0) <= 1e-14


@settings(deadline=None, max_examples=25)
@given(imbalances, imbalances, st.floats(0.0, 10.0))
def test_closed_form_extinction_matches_dense_sweep(d_in, d_out, loss_db):
    cell = cell_with(d_in, d_out, loss_db)
    got = extinction_ratio_db(cell)
    assume(got < 100.0)
    r_in, r_out = cell.coupler_in.effective_ratio, cell.coupler_out.effective_ratio
    # 2000 phases put both extrema (0 and pi) on the grid
    want = extinction_by_dense_sweep(lambda p: mzi_by_matmul(r_in, r_out, loss_db, p), n_phases=2000)
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
        delta = imbalance_for_bar_leakage(leak)
        cell = MZIParams(coupler_in=CouplerParams(imbalance=delta))
        worst = min(abs(mzi_transfer(cell, p)[0, 0]) ** 2 for p in np.linspace(0, 2 * math.pi, 2001))
        assert worst == pytest.approx(leak, rel=1e-4)
    for er in (15.0, 21.0, 30.0):
        cell = MZIParams.with_extinction(er)
        assert extinction_ratio_db(cell) == pytest.approx(er, abs=1e-6)
    with pytest.raises(ValueError):
        imbalance_for_bar_leakage(0.7)
    with pytest.raises(ValueError):
        imbalance_for_extinction(-3.0)


# --- drive electronics ------------------------------------------------------


def test_eom_passes_dc_exactly():
    p = PhaseShifterParams()
    drive = np.full(300, 2.2)
    out = eom_response(p, drive, sample_rate_ghz=40.0)
    assert np.allclose(out, 2.2, atol=1e-12)


def test_eom_aliasing_guard():
    p = PhaseShifterParams(f_3db_ghz=6.5)
    with pytest.raises(AliasingError):
        eom_response(p, np.zeros(10), sample_rate_ghz=13.0)
    # infinite bandwidth bypasses filtering entirely
    wide = PhaseShifterParams(f_3db_ghz=math.inf)
    x = np.array([0.0, 1.0, -1.0, 0.5])
    assert np.array_equal(eom_response(wide, x, 1.0), x)


@settings(deadline=None, max_examples=150)
@given(
    hnp.arrays(float, st.integers(1, 3000), elements=st.floats(-10.0, 10.0)),
    st.floats(0.5, 50.0),
    st.one_of(st.none(), st.floats(0.005, 0.495)),
)
def test_eom_response_matches_sample_loop_and_lfilter(drive, fs, band):
    p = PhaseShifterParams(f_3db_ghz=math.inf if band is None else band * fs)
    got = eom_response(p, drive, fs)
    assert np.max(np.abs(got - tustin_lowpass_by_sample_loop(drive, p.f_3db_ghz, fs))) <= 1e-13
    if band is not None:
        assert np.max(np.abs(got - tustin_lowpass_by_lfilter(drive, p.f_3db_ghz, fs))) <= 1e-13


@settings(deadline=None, max_examples=300)
@given(
    # Drive levels are often exactly 0 or V_pi: after a step to 0 V the
    # output is r^m d_j itself, so every bit of d_j shows.
    st.lists(st.sampled_from([0.0, 4.5]) | st.floats(-10.0, 10.0), min_size=1, max_size=400),
    st.integers(1, 40),
    st.integers(1, 256),
    st.floats(0.5, 50.0),
    # log10 of the band over fs: anywhere, or near fs / 4, where r = 0.
    st.one_of(st.floats(-6.0, math.log10(0.495)), st.floats(math.log10(0.15), math.log10(0.35))),
    st.data(),
)
@example([4.5, 4.5, 0.0, 0.0] * 100, 1, 256, 256 / 13.8, math.log10(6.5 * 13.8 / 256), None)
@example([4.5, 0.0] * 200, 1, 2, 2 / 13.8, -6.0, None)
@example([4.5, 0.0], 30, 64, 10.0, math.log10(0.2), None)
@example([1.0, -2.0, 3.0], 30, 1, 10.0, math.log10(0.25), None)
@example([1.0, -2.0, 3.0], 30, 1, 10.0, math.log10(0.3), None)
def test_slot_response_is_the_sequential_recurrence(levels, run, per_slot, fs, log_band, data):
    # Long constant runs give long stretches of zero steps, where a sweep
    # settles one slot at a time; a tiny band gives q = r^S next to one.
    v = np.repeat(levels, run)
    n_samples = v.size * per_slot
    if data is None:
        idx = np.arange(n_samples)
    else:
        draw = data.draw(st.lists(st.integers(0, n_samples - 1), max_size=3 * per_slot + 9))
        idx = np.array(draw, dtype=np.intp)
    p = PhaseShifterParams(f_3db_ghz=10.0**log_band * fs)
    got = eom_slot_response(p, v, per_slot, fs, idx)
    assert np.array_equal(got, slot_response_by_accumulate(v, per_slot, p.f_3db_ghz, fs, idx))


@pytest.mark.parametrize("indices", [np.array([]), np.array([0.5])], ids=["empty-float", "fraction"])
def test_slot_response_rejects_non_integer_indices(indices):
    with pytest.raises(DimensionError, match="sample indices must be integers"):
        eom_slot_response(PhaseShifterParams(), [0.0, 4.5], 256, 18.5, indices)


def step_response(p, fs, n):
    """The shifter's first n samples after a unit step, with zero drive held before it."""
    return eom_slot_response(p, [0.0, 1.0], n, fs, np.arange(n, 2 * n))


@settings(deadline=None, max_examples=100)
@given(st.integers(1, 5000), st.floats(0.5, 50.0), st.floats(0.005, 0.495))
def test_eom_step_response_matches_lfilter(n, fs, band):
    p = PhaseShifterParams(f_3db_ghz=band * fs)
    y = step_response(p, fs, n)
    assert np.max(np.abs(y - tustin_step_by_lfilter(n, p.f_3db_ghz, fs))) <= 1e-13


def test_eom_step_approaches_first_order_response():
    p = PhaseShifterParams()
    fs = 200.0
    t = np.arange(200) / fs
    y = step_response(p, fs, t.size)
    # the trapezoidal discretization tracks the analog exponential with a
    # half-sample time offset; after accounting for it the curves agree
    # to well under a percent at this oversampling
    want = first_order_step(t + 0.5 / fs, p.f_3db_ghz)
    assert y[-1] == pytest.approx(1.0, abs=1e-9)
    assert np.max(np.abs(y - want)) < 0.01
    assert np.all(np.diff(y) > -1e-15)  # monotone rise, no ringing


def test_eom_s21_matches_analog_reference():
    p = PhaseShifterParams()
    fs = 200.0
    freqs = [1.0, 3.0, 6.5, 10.0]
    got = eom_s21_db(p, freqs, fs)
    want = [first_order_lowpass_gain_db(f, 6.5) for f in freqs]
    # frequency warping of the discretization grows with f/fs; at this
    # oversampling the residual stays below a tenth of a dB
    assert np.allclose(got, want, atol=0.1)
    # half-power point is pinned by design, not just approximated
    assert got[2] == pytest.approx(10 * math.log10(0.5), abs=0.01)


def test_s21_crossing_near_nominal_bandwidth():
    p = PhaseShifterParams()
    crossing = s21_crossing_ghz(p)
    assert crossing == pytest.approx(6.5, rel=0.01)
    # the default sample rate is 24 f_3db = 156 GHz
    fs = 156.0
    want = fs / math.pi * math.atan(math.tan(math.pi * 6.5 / fs) * math.sqrt(10**0.3 - 1.0))
    assert crossing == pytest.approx(want, rel=1e-12)


@settings(deadline=None, max_examples=60)
@given(
    st.floats(0.005, 0.2),
    st.floats(math.log10(1e-4), math.log10(0.45), exclude_max=True),
    st.floats(0.5, 200.0),
)
@example(6.5 / 200.0, math.log10(99.0 / 200.0), 200.0)
def test_s21_closed_form_matches_sine_fit(band, log_freq, fs):
    # The sine fit settles for 12 time constants, so an e^-12 transient
    # is left in its window; over this range that keeps it within 5e-7 dB.
    p = PhaseShifterParams(f_3db_ghz=band * fs)
    f = 10.0**log_freq * fs
    got = eom_s21_db(p, [f], fs)[0]
    assert got == pytest.approx(s21_db_by_sine_fit(p.f_3db_ghz, f, fs), abs=1e-6)


@pytest.mark.parametrize("f_3db, fs", [(6.5, 156.0), (6.5, 200.0), (3.0, 600.0)])
def test_s21_crossing_matches_scan(f_3db, fs):
    p = PhaseShifterParams(f_3db_ghz=f_3db)
    crossing = s21_crossing_ghz(p, sample_rate_ghz=fs)
    # The scan's linear interpolation in log-frequency is off by 8.4e-5 at
    # fs = 24 f_3db, and by more where warping bends S21 near Nyquist.
    assert crossing == pytest.approx(s21_crossing_by_scan(f_3db, -3.0, fs), rel=1e-4)


@settings(deadline=None, max_examples=200)
@given(st.floats(0.005, 0.45), st.floats(-20.0, -1e-6), st.floats(0.5, 200.0))
def test_s21_at_its_crossing_is_the_threshold(band, threshold_db, fs):
    p = PhaseShifterParams(f_3db_ghz=band * fs)
    crossing = s21_crossing_ghz(p, threshold_db, fs)
    assert 0.0 < crossing < fs / 2.0
    assert eom_s21_db(p, [crossing], fs)[0] == pytest.approx(threshold_db, abs=1e-12)


def test_s21_edges():
    instant = PhaseShifterParams(f_3db_ghz=math.inf)
    assert np.array_equal(eom_s21_db(instant, [1.0, 19.0], 40.0), [0.0, 0.0])
    p = PhaseShifterParams(f_3db_ghz=6.5)
    with pytest.raises(AliasingError):
        eom_s21_db(p, [1.0], 13.0)
    with pytest.raises(AliasingError):
        s21_crossing_ghz(p, sample_rate_ghz=13.0)
    for freq in (0.0, -1.0, 20.0, 100.0, math.nan):
        with pytest.raises(ValueError, match="probe frequencies"):
            eom_s21_db(p, [1.0, freq], 40.0)
    for threshold in (0.0, 3.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="threshold_db"):
            s21_crossing_ghz(p, threshold)
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
    with pytest.raises(BandRangeError):
        g.efficiency_db(904.9)
    with pytest.raises(BandRangeError):
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

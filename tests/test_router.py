import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lnoisim import (
    AliasingError,
    CouplerParams,
    DimensionError,
    MZIParams,
    PhaseShifterParams,
    PulseProgram,
    SourceModel,
    TimeTrace,
    TimingError,
    TopologyError,
    default_pulse_program,
    demux_input_transmissions,
    eom_response,
    eom_slot_response,
    estimate_mzi_loss_from_demux,
    simulate_demux,
    switch_metrics,
)
from lnoisim.experiments import _csv_bytes
from oracles import (
    demux_by_photon_loop,
    mzi_by_matmul,
    switch_fractions_by_event_loop,
    tree_transmissions_by_matmul,
    tustin_lowpass_by_sample_loop,
)

WIDE = PhaseShifterParams(f_3db_ghz=math.inf)


def make_tree(cell=None):
    cell = cell if cell is not None else MZIParams.ideal(WIDE)
    return [cell, cell, cell]


def test_default_program_structure():
    prog = default_pulse_program(n_frames=2, samples_per_slot=8)
    assert set(prog.channels) == {"A", "B"}
    assert prog.sample_rate_ghz == pytest.approx(8 / 13.8)
    a, b = prog.channels["A"], prog.channels["B"]
    assert set(np.unique(a)) == {0.0, 4.5}
    # A holds for two slots (selects the output pair), B toggles every slot
    slot = lambda w, k: w[k * 8 : (k + 1) * 8]
    for k, want in enumerate([4.5, 4.5, 0.0, 0.0, 4.5, 4.5, 0.0, 0.0]):
        assert np.all(slot(a, k) == want)
    for k, want in enumerate([4.5, 0.0, 4.5, 0.0, 4.5, 0.0, 4.5, 0.0]):
        assert np.all(slot(b, k) == want)


def test_program_validation():
    v = np.zeros(4)
    with pytest.raises(DimensionError):
        PulseProgram(13.8, 8, {"A": v, "B": np.zeros(5)})
    with pytest.raises(DimensionError):
        PulseProgram(13.8, 8, {"A": np.zeros(0), "B": np.zeros(0)})
    with pytest.raises(ValueError):
        PulseProgram(13.8, 8, {"A": np.array([0.0, math.nan]), "B": np.zeros(2)})
    with pytest.raises(ValueError):
        PulseProgram(13.8, 8, {"A": np.array([0.0, math.inf]), "B": np.zeros(2)})
    with pytest.raises(ValueError):
        PulseProgram(13.8, 1, {"A": v, "B": v})
    for slot_ns in (0.0, -13.8):
        with pytest.raises(ValueError):
            PulseProgram(slot_ns, 8, {"A": v, "B": v})
    with pytest.raises(TopologyError):
        PulseProgram(13.8, 8, {"A": v})  # no B channel
    with pytest.raises(TopologyError):
        PulseProgram(13.8, 8, {"A": v, "B": v, "C": v})  # an extra channel


def test_ideal_routing_is_perfect():
    prog = default_pulse_program(n_frames=4)
    trace = simulate_demux(make_tree(), prog, SourceModel(), 4)
    metrics = switch_metrics(trace)
    assert metrics.average_probability == pytest.approx(1.0, abs=1e-12)
    assert metrics.suppression_db == -math.inf
    assert metrics.n_frames == 4
    # probability is conserved at every event
    assert np.allclose(trace.outputs.sum(axis=1), 1.0, atol=1e-12)


def test_slot_to_output_assignment():
    prog = default_pulse_program(n_frames=2)
    trace = simulate_demux(make_tree(), prog, SourceModel(), 2)
    # slot k of every frame lands on output k
    for k in range(8):
        assert trace.outputs[k, k % 4] == pytest.approx(1.0, abs=1e-12)


def test_leaky_cells_give_expected_residual():
    leak = 10 ** (-2.1)
    tree = make_tree(MZIParams.with_bar_leakage(leak, WIDE))
    prog = default_pulse_program(n_frames=3)
    trace = simulate_demux(tree, prog, SourceModel(), 3)
    metrics = switch_metrics(trace)
    assert metrics.average_probability == pytest.approx((1 - leak) ** 2, abs=1e-12)
    assert np.allclose(trace.outputs.sum(axis=1), 1.0, atol=1e-12)  # leak, not loss


def test_uniform_loss_does_not_fake_crosstalk():
    lossless = make_tree(MZIParams.with_bar_leakage(1e-3, WIDE))
    lossy_cell = MZIParams.with_bar_leakage(1e-3, WIDE, insertion_loss_db=0.8)
    lossy = make_tree(lossy_cell)
    prog = default_pulse_program(n_frames=2)
    m0 = switch_metrics(simulate_demux(lossless, prog, SourceModel(), 2))
    m1 = switch_metrics(simulate_demux(lossy, prog, SourceModel(), 2))
    assert m1.average_probability == pytest.approx(m0.average_probability, abs=1e-12)


def test_phase_errors_degrade_routing():
    prog = default_pulse_program(n_frames=2)
    clean = switch_metrics(simulate_demux(make_tree(), prog, SourceModel(), 2))
    perturbed = switch_metrics(
        simulate_demux(
            make_tree(), prog, SourceModel(), 2, phase_errors_rad=(0.05, -0.03, 0.04)
        )
    )
    assert perturbed.average_probability < clean.average_probability
    assert perturbed.average_probability > 0.995  # still small errors


def test_finite_bandwidth_barely_moves_slot_centers():
    # 6.5 GHz settles ~500x faster than the 13.8 ns slot
    prog = default_pulse_program(n_frames=2)
    tree = make_tree(MZIParams.ideal(PhaseShifterParams()))
    metrics = switch_metrics(simulate_demux(tree, prog, SourceModel(), 2))
    assert metrics.average_probability == pytest.approx(1.0, abs=1e-9)


def test_program_must_cover_train():
    prog = default_pulse_program(n_frames=1)
    with pytest.raises(TimingError):
        simulate_demux(make_tree(), prog, SourceModel(), 2)
    with pytest.raises(TimingError):
        simulate_demux(make_tree(), prog, SourceModel(), 1, train_offset_ns=30.0)


def test_simulate_validation():
    prog = default_pulse_program(n_frames=1)
    with pytest.raises(TopologyError):
        simulate_demux(make_tree()[:2], prog, SourceModel(), 1)
    with pytest.raises(DimensionError):
        simulate_demux(make_tree(), prog, SourceModel(), 1, phase_errors_rad=(0.0,))


@settings(max_examples=150)
@given(st.integers(1, 60), st.data())
def test_switch_metrics_match_event_loop(n_frames, data):
    outputs = data.draw(hnp.arrays(float, (4 * n_frames, 4), elements=st.floats(1e-3, 1.0)))
    trace = TimeTrace((np.arange(4 * n_frames) + 0.5) * 13.8, outputs)
    got = switch_metrics(trace)
    average, per_slot = switch_fractions_by_event_loop(outputs, {0: 0, 1: 1, 2: 2, 3: 3})
    assert got.n_frames == n_frames
    assert got.average_probability == pytest.approx(average, rel=1e-12)
    assert got.per_slot_probability == pytest.approx(per_slot, rel=1e-12)
    assert 10.0 ** (got.suppression_db / 10.0) == pytest.approx(1.0 - average, abs=1e-12)


def test_switch_metrics_reject_an_empty_trace():
    trace = TimeTrace(np.empty(0), np.empty((0, 4)))
    with pytest.raises(DimensionError):
        switch_metrics(trace)


def test_trace_csv_round_trip(tmp_path):
    prog = default_pulse_program(n_frames=2)
    trace = simulate_demux(make_tree(MZIParams.with_bar_leakage(0.01, WIDE)), prog, SourceModel(), 2)
    path = tmp_path / "trace.csv"
    path.write_bytes(
        _csv_bytes(["time_ns", "out0", "out1", "out2", "out3"], (trace.times_ns, trace.outputs))
    )
    loaded = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    assert np.array_equal(loaded[:, 0], trace.times_ns)
    assert np.array_equal(loaded[:, 1:], trace.outputs)


def test_synthetic_trace_suppression_value():
    # a flat 0.962 routing probability corresponds to -14.2 dB residual
    times = (np.arange(8) + 0.5) * 13.8
    outputs = np.full((8, 4), (1 - 0.962) / 3)
    for k in range(8):
        outputs[k, k % 4] = 0.962
    trace = TimeTrace(times, outputs)
    metrics = switch_metrics(trace)
    assert metrics.average_probability == pytest.approx(0.962)
    assert metrics.suppression_db == pytest.approx(10 * math.log10(0.038), abs=1e-9)
    assert metrics.suppression_db == pytest.approx(-14.2, abs=0.05)


def test_input_transmissions_and_loss_recovery():
    for per_cell_db in (0.2, 0.8, 1.2):
        cell = MZIParams.with_bar_leakage(10 ** (-2.1), WIDE, insertion_loss_db=per_cell_db)
        transmissions, external, internal = demux_input_transmissions([cell] * 3)
        est = estimate_mzi_loss_from_demux(transmissions, external, internal)
        assert est == pytest.approx(per_cell_db, abs=1e-9)
    # lossless tree transmits everything from every port
    t0, _, _ = demux_input_transmissions(make_tree())
    assert np.allclose(t0, 1.0, atol=1e-12)


# Couplers anywhere in their allowed range, effective ratios 0 to 1.
any_coupler = st.builds(CouplerParams, imbalance=st.floats(-0.5, 0.5))
any_phase = st.floats(-100.0, 100.0)
three_phases = st.lists(any_phase, min_size=3, max_size=3)
lossless_tree = st.lists(
    st.builds(MZIParams, coupler_in=any_coupler, coupler_out=any_coupler), min_size=3, max_size=3
)
lossy_tree = st.lists(
    st.builds(
        MZIParams,
        coupler_in=any_coupler,
        coupler_out=any_coupler,
        insertion_loss_db=st.floats(0.0, 30.0),
    ),
    min_size=3,
    max_size=3,
)


@settings(max_examples=200)
@given(lossless_tree, three_phases)
@example([MZIParams.with_extinction(20.0)] * 3, [0.5 * math.pi] * 3)
@example([MZIParams.with_bar_leakage(0.01)] * 3, [0.5 * math.pi] * 3)
def test_lossless_tree_calibrates_to_zero_loss(tree, phases):
    transmissions, external, internal = demux_input_transmissions(tree, phases)
    assert np.all(transmissions <= 1.0)
    est = estimate_mzi_loss_from_demux(transmissions, external, internal)
    assert est == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=200)
@given(lossy_tree, three_phases)
def test_tree_transmissions_match_matmul_oracle(tree, phases):
    got, external, internal = demux_input_transmissions(tree, phases)
    assert (external, internal) == ((2, 3), (0, 1))
    np.testing.assert_allclose(got, tree_transmissions_by_matmul(tree, phases), rtol=1e-12, atol=0)


@settings(max_examples=100)
@given(lossy_tree, any_phase, st.lists(any_phase, min_size=4, max_size=4))
def test_second_layer_phases_drop_out(tree, phase0, others):
    first, _, _ = demux_input_transmissions(tree, [phase0, *others[:2]])
    second, _, _ = demux_input_transmissions(tree, [phase0, *others[2:]])
    assert first.tobytes() == second.tobytes()


@pytest.mark.parametrize("n_phases", [0, 2, 4])
def test_input_transmissions_need_one_phase_per_switch(n_phases):
    with pytest.raises(DimensionError):
        demux_input_transmissions(make_tree(), [0.0] * n_phases)


tree_cells = st.builds(
    MZIParams,
    shifter=st.builds(
        PhaseShifterParams,
        v_pi_volts=st.floats(3.0, 6.0),
        phase_offset_rad=st.floats(-0.5, 0.5),
        f_3db_ghz=st.one_of(st.just(math.inf), st.floats(0.5, 8.0)),
    ),
    coupler_in=st.builds(CouplerParams, imbalance=st.floats(-0.2, 0.2)),
    coupler_out=st.builds(CouplerParams, imbalance=st.floats(-0.2, 0.2)),
    insertion_loss_db=st.floats(0.0, 3.0),
)


@settings(deadline=None, max_examples=50)
@given(
    st.lists(tree_cells, min_size=3, max_size=3),
    st.lists(st.floats(-0.3, 0.3), min_size=3, max_size=3),
    st.integers(1, 3),
    st.floats(0.0, 0.4),
)
def test_simulate_demux_matches_photon_loop_oracle(tree, errors, n_frames, offset_slots):
    period = 13.8
    prog = default_pulse_program(repetition_period_ns=period, n_frames=n_frames)
    offset = offset_slots * period
    trace = simulate_demux(tree, prog, SourceModel(), n_frames, offset, errors)

    times = offset + period * (np.arange(4 * n_frames) + 0.5)
    phases = np.empty((3, times.size))
    for s, cell in enumerate(tree):
        shifter = cell.shifter
        drive = eom_response(shifter, prog.channels["A" if s == 0 else "B"], prog.sample_rate_ghz)
        volts = np.interp(times, prog.t_ns, drive)
        phases[s] = shifter.phase_offset_rad + math.pi * volts / shifter.v_pi_volts + errors[s]
    transfers = [
        lambda p, c=cell: mzi_by_matmul(
            c.coupler_in.effective_ratio, c.coupler_out.effective_ratio, c.insertion_loss_db, p
        )
        for cell in tree
    ]
    want = demux_by_photon_loop(transfers, phases)
    assert np.array_equal(trace.times_ns, times)
    assert np.max(np.abs(trace.outputs - want)) <= 1e-14


@settings(deadline=None, max_examples=200)
@given(
    st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=12),
    st.integers(2, 256),
    st.floats(0.5, 20.0),
    st.one_of(st.none(), st.floats(0.005, 0.495)),
    st.floats(-100.0, 100.0),
    st.floats(0.0, 1.0),
)
def test_slot_rate_filter_matches_sample_loop(levels, per_slot, slot_ns, band, start_ns, offset):
    prog = PulseProgram(slot_ns, per_slot, {"A": levels, "B": levels}, start_ns)
    fs = prog.sample_rate_ghz
    shifter = PhaseShifterParams(f_3db_ghz=math.inf if band is None else band * fs)
    wave = prog.channels["A"]
    want = tustin_lowpass_by_sample_loop(wave, shifter.f_3db_ghz, fs)
    sampled = eom_response(shifter, wave, fs)
    got = eom_slot_response(shifter, levels, per_slot, fs, np.arange(wave.size))
    assert np.max(np.abs(got - want)) <= 1e-13
    assert np.max(np.abs(got - sampled)) <= 1e-13

    # A photon train at any offset within a slot, plus both ends of the grid.
    # Rounding of t, start_ns and the grid times moves an instant's place
    # between its two samples by up to a few eps * (|t| + |start_ns|) / dt,
    # so where the filtered drive steps between samples (a slot edge) the
    # two interpolations may differ by that fraction of the step.
    times = start_ns + slot_ns * (offset + np.arange(len(levels) - 1))
    times = np.concatenate([times, [prog.start_ns, prog.end_ns]])
    volts = prog.filtered_drive("A", shifter, times)
    dt = prog.dt_ns
    steps = np.abs(np.diff(want, prepend=want[0], append=want[-1]))
    k = np.clip(((times - start_ns) / dt).astype(int), 0, wave.size - 1)
    near = np.maximum.reduce([steps[np.clip(k + j, 0, wave.size)] for j in (0, 1, 2)])
    slack = 1e-13 + 8 * np.finfo(float).eps * (np.abs(times) + abs(start_ns) + dt) / dt * near
    assert np.all(np.abs(volts - np.interp(times, prog.t_ns, want)) <= slack)
    assert np.all(np.abs(volts - np.interp(times, prog.t_ns, sampled)) <= slack)


def test_slot_rate_filter_rejects_aliased_grid():
    shifter = PhaseShifterParams(f_3db_ghz=6.5)
    with pytest.raises(AliasingError):
        eom_slot_response(shifter, [0.0, 4.5], 2, 13.0, np.arange(4))
    prog = default_pulse_program(n_frames=1, samples_per_slot=2)
    with pytest.raises(AliasingError):
        simulate_demux(make_tree(MZIParams.ideal(shifter)), prog, SourceModel(), 1)

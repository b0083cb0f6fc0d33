import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lnoisim import (
    MZIParams,
    PhaseShifterParams,
    PulseProgram,
    SourceModel,
    TimeTrace,
    default_pulse_program,
    demux_input_transmissions,
    eom_slot_response,
    estimate_mzi_loss_from_demux,
    simulate_demux,
    switch_metrics,
)
from lnoisim.experiments import _csv_bytes
from lnoisim.router import _photon_times
from oracles import (
    demux_by_photon_loop,
    mzi_by_matmul,
    pole_response_by_photon_loop,
    switch_fractions_by_event_loop,
    tree_transmissions_by_matmul,
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
    with pytest.raises(ValueError, match="channel 'B' holds a different number of slots"):
        PulseProgram(13.8, 8, {"A": v, "B": np.zeros(5)})
    with pytest.raises(ValueError, match="channel 'A' needs a 1-d array of slot levels"):
        PulseProgram(13.8, 8, {"A": np.zeros(0), "B": np.zeros(0)})
    with pytest.raises(ValueError):
        PulseProgram(13.8, 8, {"A": np.array([0.0, math.nan]), "B": np.zeros(2)})
    with pytest.raises(ValueError):
        PulseProgram(13.8, 8, {"A": np.array([0.0, math.inf]), "B": np.zeros(2)})
    with pytest.raises(ValueError, match="samples_per_slot must be an integer of at least 2"):
        PulseProgram(13.8, 1, {"A": v, "B": v})
    for slot_ns in (0.0, -13.8):
        with pytest.raises(ValueError, match="slot_ns must be positive and finite, got"):
            PulseProgram(slot_ns, 8, {"A": v, "B": v})
    # default_pulse_program checks only the frame count, which np.tile needs.
    with pytest.raises(ValueError, match="n_frames must be an integer of at least 1, got 2.5"):
        default_pulse_program(n_frames=2.5)
    with pytest.raises(ValueError, match="samples_per_slot must be an integer of at least 2"):
        default_pulse_program(samples_per_slot=1)
    with pytest.raises(ValueError, match="slot_ns must be positive and finite, got -1.0"):
        default_pulse_program(repetition_period_ns=-1.0)
    with pytest.raises(ValueError, match="4 slots of 1e[+]308 ns end past the float range"):
        PulseProgram(1e308, 8, {"A": v, "B": v})
    assert PulseProgram(13.8, 8, {"A": v, "B": v}).end_ns == 4 * 13.8
    with pytest.raises(ValueError, match=r"the channels must be 'A' and 'B', got \['A'\]"):
        PulseProgram(13.8, 8, {"A": v})
    with pytest.raises(ValueError, match="the channels must be 'A' and 'B', got .*'C'"):
        PulseProgram(13.8, 8, {"A": v, "B": v, "C": v})


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
    with pytest.raises(ValueError, match="photon train spans .* but the program covers"):
        simulate_demux(make_tree(), prog, SourceModel(), 2)
    with pytest.raises(ValueError, match="photon train spans .* but the program covers"):
        simulate_demux(make_tree(), prog, SourceModel(), 1, train_offset_ns=30.0)
    for offset in (math.nan, math.inf):
        with pytest.raises(ValueError, match="photon train spans .* but the program covers"):
            simulate_demux(make_tree(), prog, SourceModel(), 1, train_offset_ns=offset)


@pytest.mark.parametrize("n_frames", [2.5, 1.0, True, 0, -1, math.nan])
def test_simulate_refuses_a_frame_count_that_is_not_a_whole_number(n_frames):
    prog = default_pulse_program(n_frames=3)
    with pytest.raises(ValueError, match="n_frames must be an integer of at least 1, got"):
        simulate_demux(make_tree(), prog, SourceModel(), n_frames)


@settings(deadline=None, max_examples=300)
@given(
    period=st.floats(-9.0, 305.0).map(lambda e: 10.0**e),
    n_frames=st.integers(1, 50),
    program_frames=st.integers(1, 50),
    shift=st.floats(-1e-9, 1e-9) | st.floats(-2.0, 2.0) | st.floats(),
)
def test_train_coverage_reads_the_ends_of_the_photon_array(period, n_frames, program_frames, shift):
    """The scalar coverage check refuses exactly the trains whose photon array
    starts before the program or ends past it, and returns that array."""
    # At shift 0 the last photon sits on the end of the program.
    offset = period * (4 * (program_frames - n_frames) + 0.5 + shift)
    prog = default_pulse_program(repetition_period_ns=period, n_frames=program_frames)
    with np.errstate(over="ignore", invalid="ignore"):
        want = offset + period * (np.arange(4 * n_frames) + 0.5)
    late = 1e-9 + 4 * math.ulp(prog.end_ns)
    covered = bool(want[0] >= -1e-9 and want[-1] <= prog.end_ns + late)
    try:
        got = _photon_times(prog, period, n_frames, offset)
    except ValueError:
        assert not covered
    else:
        assert covered and np.array_equal(got, want)


def test_simulate_validation():
    prog = default_pulse_program(n_frames=1)
    with pytest.raises(ValueError, match="tree needs exactly 3 switches"):
        simulate_demux(make_tree()[:2], prog, SourceModel(), 1)
    with pytest.raises(ValueError, match="phase_errors_rad needs one entry per switch"):
        simulate_demux(make_tree(), prog, SourceModel(), 1, phase_errors_rad=(0.0,))


@pytest.mark.parametrize("error", [math.nan, math.inf, -math.inf])
def test_simulate_refuses_a_phase_error_that_is_not_finite(error):
    prog = default_pulse_program(n_frames=1)
    with pytest.raises(ValueError, match="phase_errors_rad must be finite"):
        simulate_demux(make_tree(), prog, SourceModel(), 1, phase_errors_rad=(0.0, error, 0.0))


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
    with pytest.raises(ValueError, match="trace holds no events"):
        switch_metrics(trace)


def test_trace_validation():
    with pytest.raises(ValueError, match=r"outputs must be \(n_events, 4\)"):
        TimeTrace(np.zeros(1), np.zeros((1, 3)))
    times = (np.arange(4) + 0.5) * 13.8
    with pytest.raises(ValueError, match="trace length must be a whole number of frames"):
        switch_metrics(TimeTrace(times[:3], np.eye(4)[:3]))
    with pytest.raises(ValueError, match="trace contains events with zero total probability"):
        switch_metrics(TimeTrace(times, np.zeros((4, 4))))


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


# Input couplers anywhere in their allowed range, cross fractions 0 to 1.
any_imbalance = st.floats(-0.5, 0.5)
any_phase = st.floats(-100.0, 100.0)
lossless_tree = st.lists(st.builds(MZIParams, coupler_imbalance=any_imbalance), min_size=3, max_size=3)
lossy_tree = st.lists(
    st.builds(MZIParams, coupler_imbalance=any_imbalance, insertion_loss_db=st.floats(0.0, 30.0)),
    min_size=3,
    max_size=3,
)


@settings(max_examples=200)
@given(lossless_tree)
@example([MZIParams.with_extinction(20.0)] * 3)
@example([MZIParams.with_bar_leakage(0.01)] * 3)
def test_lossless_tree_calibrates_to_zero_loss(tree):
    transmissions, external, internal = demux_input_transmissions(tree)
    assert all(type(t) is float and t <= 1.0 for t in transmissions)
    est = estimate_mzi_loss_from_demux(transmissions, external, internal)
    assert est == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=200)
@given(lossy_tree)
def test_tree_transmissions_match_matmul_oracle(tree):
    got, external, internal = demux_input_transmissions(tree)
    assert (external, internal) == ((2, 3), (0, 1))
    # The calibration holds every switch at pi/2.
    want = tree_transmissions_by_matmul(tree, [0.5 * math.pi] * 3)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


@settings(max_examples=100)
@given(lossy_tree, st.lists(any_phase, min_size=2, max_size=2))
def test_second_layer_phases_drop_out(tree, others):
    # The tree's product with the second-layer switches at any phases.
    got, _, _ = demux_input_transmissions(tree)
    want = tree_transmissions_by_matmul(tree, [0.5 * math.pi, *others])
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("n_switches", [0, 2, 4])
def test_input_transmissions_need_three_switches(n_switches):
    with pytest.raises(ValueError, match="tree needs exactly 3 switches"):
        demux_input_transmissions([MZIParams()] * n_switches)


def test_input_transmissions_take_a_tree_of_any_kind():
    tree = [MZIParams.with_extinction(22.0, insertion_loss_db=0.3), MZIParams(), MZIParams(insertion_loss_db=0.9)]
    want = demux_input_transmissions(tree)
    assert demux_input_transmissions(tuple(tree)) == want
    assert demux_input_transmissions(iter(tree)) == want
    for n_switches in (0, 2, 4):
        with pytest.raises(ValueError, match="tree needs exactly 3 switches"):
            demux_input_transmissions((MZIParams(),) * n_switches)


tree_cells = st.builds(
    MZIParams,
    shifter=st.builds(
        PhaseShifterParams,
        v_pi_volts=st.floats(3.0, 6.0),
        # Every valid config band: the stock range, and 1e-9 GHz up to the float range.
        f_3db_ghz=st.one_of(
            st.just(math.inf), st.floats(0.5, 8.0), st.floats(-9.0, 308.0).map(lambda e: 10.0**e)
        ),
    ),
    coupler_imbalance=st.floats(-0.2, 0.2),
    insertion_loss_db=st.floats(0.0, 3.0),
)


def demux_by_oracles(tree, period, n_frames, offset, errors):
    """Per-output probabilities of a default-program photon train, one photon at a time."""
    prog = default_pulse_program(repetition_period_ns=period, n_frames=n_frames)
    times = offset + period * (np.arange(4 * n_frames) + 0.5)
    phases = np.empty((3, times.size))
    for s, cell in enumerate(tree):
        shifter = cell.shifter
        levels = prog.levels["A" if s == 0 else "B"]
        volts = pole_response_by_photon_loop(levels, period, shifter.f_3db_ghz, times)
        phases[s] = math.pi * volts / shifter.v_pi_volts + errors[s]
    transfers = [
        lambda p, c=cell: mzi_by_matmul(0.5 + c.coupler_imbalance, 0.5, c.insertion_loss_db, p)
        for cell in tree
    ]
    return times, demux_by_photon_loop(transfers, phases)


@settings(deadline=None, max_examples=100)
@given(
    st.lists(tree_cells, min_size=3, max_size=3),
    st.lists(st.floats(-0.3, 0.3), min_size=3, max_size=3),
    st.integers(1, 3),
    st.floats(-9.0, 300.0).map(lambda e: 10.0**e),
    # Up to half a slot, where each photon sits on a slot edge.
    st.floats(0.0, 0.5),
)
# The last photon on the last slot edge, which rounds past the program's end.
@example([MZIParams()] * 3, [0.0] * 3, 3, 10.0**39.6875, 0.5)
def test_simulate_demux_matches_photon_loop_oracle(tree, errors, n_frames, period, offset_slots):
    offset = offset_slots * period
    prog = default_pulse_program(repetition_period_ns=period, n_frames=n_frames)
    trace = simulate_demux(tree, prog, SourceModel(period), n_frames, offset, errors)
    times, want = demux_by_oracles(tree, period, n_frames, offset, errors)
    assert np.array_equal(trace.times_ns, times)
    assert np.max(np.abs(trace.outputs - want)) <= 1e-12


@settings(deadline=None, max_examples=200)
@given(
    st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=12),
    st.integers(2, 256),
    st.floats(0.5, 20.0),
    st.one_of(st.none(), st.floats(-3.0, 3.0)),
    st.lists(st.floats(-1.0, 13.0), max_size=30),
)
def test_slot_rate_filter_matches_sample_loop(levels, per_slot, slot_ns, log_band, at_slots):
    # The filtered drive at any instants, before the first slot and after
    # the last included, is the single pole's response, one instant at a time.
    prog = PulseProgram(slot_ns, per_slot, {"A": levels, "B": levels})
    shifter = PhaseShifterParams(f_3db_ghz=math.inf if log_band is None else 10.0**log_band / slot_ns)
    times = slot_ns * np.array([*at_slots, 0.0, len(levels)])
    volts = eom_slot_response(shifter, prog.levels["A"], prog.slot_ns, times)
    want = pole_response_by_photon_loop(levels, slot_ns, shifter.f_3db_ghz, times)
    assert np.allclose(volts, want, rtol=0.0, atol=1e-13)


def test_photons_just_before_a_slot_edge_route_as_settled():
    # The README demux settings with each photon 50 ps before a slot edge and
    # 13.75 ns, 560 time constants, after the last one.  The pole has long
    # settled and is causal, so routing is that of the leaky cells alone.
    leak = 0.0079
    tree = make_tree(MZIParams.with_bar_leakage(leak, PhaseShifterParams()))
    prog = default_pulse_program(n_frames=10)
    trace = simulate_demux(tree, prog, SourceModel(), 10, train_offset_ns=6.85)
    _, want = demux_by_oracles(tree, 13.8, 10, 6.85, [0.0] * 3)
    assert np.max(np.abs(trace.outputs - want)) <= 1e-12
    average = switch_metrics(trace).average_probability
    assert average == pytest.approx((1 - leak) ** 2, abs=1e-12)
    assert round(average, 6) == 0.984262

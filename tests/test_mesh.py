import copy
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lnoisim import (
    MeshConfig,
    MZIParams,
    PhaseShifterParams,
    VoltageProgram,
    clements_layout,
    compose,
    decompose,
    gauge_input_phases,
    haar_random_unitary,
    is_unitary,
    matrix_distance,
    modulator_layout,
    phases_to_voltages,
    wrap_phase,
)
from lnoisim.cli import _dump_json
from lnoisim.components import phase_from_voltage
from lnoisim.mesh import _mesh_product
from helpers import all_cross_config
from oracles import mesh_by_embedding, modulator_layout_by_touched_modes


def test_layout_shape():
    assert clements_layout(2) == [(0, 1)]
    assert clements_layout(4) == [(0, 1), (2, 3), (1, 2), (0, 1), (2, 3), (1, 2)]
    for n in range(2, 9):
        layout = clements_layout(n)
        assert len(layout) == n * (n - 1) // 2
        assert all(b == a + 1 for a, b in layout)


def test_wrap_phase():
    assert wrap_phase(0.0) == 0.0
    assert wrap_phase(2 * math.pi) == 0.0
    assert wrap_phase(-0.0) == 0.0
    assert wrap_phase(-math.pi / 2) == pytest.approx(1.5 * math.pi)
    assert wrap_phase(7 * math.pi) == pytest.approx(math.pi)
    for phase in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="phase must be finite"):
            wrap_phase(phase)


def test_cell_validation():
    with pytest.raises(ValueError, match=r"4-mode mesh requires 6 thetas, got shape \(1,\)"):
        MeshConfig(4, [0.0], np.zeros(6), np.zeros(4))
    with pytest.raises(ValueError, match=r"4-mode mesh requires 6 phis, got shape \(7,\)"):
        MeshConfig(4, np.zeros(6), np.zeros(7), np.zeros(4))
    with pytest.raises(ValueError, match=r"4-mode mesh requires 4 output_phases, got shape \(3,\)"):
        MeshConfig(4, np.zeros(6), np.zeros(6), np.zeros(3))
    with pytest.raises(ValueError, match="phis must be finite"):
        MeshConfig(4, np.zeros(6), [0.0] * 5 + [math.nan], np.zeros(4))
    with pytest.raises(ValueError, match="n_modes must be an integer of at least 2, got 3.0"):
        MeshConfig(3.0, np.zeros(3), np.zeros(3), np.zeros(3))
    # The cell count is arithmetic: no array of a huge mesh's size is built.
    with pytest.raises(ValueError, match=r"100000-mode mesh requires 4999950000 thetas, got shape \(0,\)"):
        MeshConfig(100000, [], [], np.zeros(100000))
    # The config keeps read-only copies of its phases.
    thetas = np.zeros(6)
    cfg = MeshConfig(4, thetas, np.zeros(6), np.zeros(4))
    thetas[0] = 1.0
    assert cfg.thetas[0] == 0.0 and not cfg.thetas.flags.writeable


@pytest.mark.parametrize("n_modes", ["a", None, True, 1, -4, 4.0], ids=repr)
def test_mesh_config_refuses_an_n_modes_that_is_no_integer_of_at_least_2(n_modes):
    with pytest.raises(ValueError, match=f"n_modes must be an integer of at least 2, got {n_modes!r}"):
        MeshConfig(n_modes, np.zeros(6), np.zeros(6), np.zeros(4))


def test_mesh_config_stores_a_numpy_n_modes_as_int():
    cfg = MeshConfig(np.int64(4), np.zeros(6), np.zeros(6), np.zeros(4))
    assert type(cfg.n_modes) is int
    assert json.loads(_dump_json(cfg.to_json_dict()))["n_modes"] == 4


def test_all_bar_is_diagonal_and_all_cross_reverses():
    bar = compose(MeshConfig(4, np.full(6, math.pi), np.zeros(6), np.zeros(4)))
    assert np.allclose(np.abs(bar), np.eye(4), atol=1e-12)
    cross = compose(all_cross_config(4))
    assert np.allclose(np.abs(cross), np.eye(4)[::-1], atol=1e-12)


def test_identity_decomposes_to_all_bar():
    cfg = decompose(np.eye(4))
    # every cell in the bar state; external phases absorb the residual
    # cell signs so the output phases are exactly zero
    assert all(theta == pytest.approx(math.pi) for theta in cfg.thetas)
    assert all(phi == pytest.approx(0.0) or phi == pytest.approx(math.pi) for phi in cfg.phis)
    assert np.allclose(cfg.output_phases, 0.0)
    assert matrix_distance(compose(cfg), np.eye(4)) < 1e-12


def test_haar_round_trip_many_sizes():
    for n in (2, 3, 4, 5, 6):
        for seed in range(8):
            u = haar_random_unitary(n, seed=seed)
            cfg = decompose(u)
            assert len(cfg.thetas) == len(cfg.phis) == n * (n - 1) // 2
            assert matrix_distance(compose(cfg), u) < 1e-10


def test_round_trip_permutation_matrices():
    # permutations hit the degenerate nulling branches
    rng = np.random.default_rng(4)
    for _ in range(10):
        p = np.eye(4)[rng.permutation(4)].astype(complex)
        cfg = decompose(p)
        assert matrix_distance(compose(cfg), p) < 1e-12


def test_decompose_input_validation():
    with pytest.raises(ValueError, match="decompose requires a square matrix"):
        decompose(np.ones((3, 4)))
    with pytest.raises(ValueError):
        decompose(0.5 * np.eye(4))
    with pytest.raises(ValueError, match="decompose requires at least 2 modes"):
        decompose(np.array([[1.0]]))
    # No tolerance makes 2 U unitary.
    for tol in (math.inf, math.nan, -1e-9):
        with pytest.raises(ValueError, match="tol must be finite and non-negative"):
            decompose(2.0 * haar_random_unitary(3, seed=0), tol=tol)


def test_compose_with_real_cells_loss_makes_subunitary():
    u = haar_random_unitary(4, seed=3)
    cfg = decompose(u)
    lossy = MZIParams(insertion_loss_db=0.3)
    m = compose(cfg, lossy)
    assert np.linalg.svd(m, compute_uv=False)[0] <= 1.0 + 1e-10
    assert not is_unitary(m, tol=1e-6)
    # per-column power deficit bounded by the deepest path (4 cells)
    col_power = np.sum(np.abs(m) ** 2, axis=0)
    assert np.all(col_power <= 1.0 + 1e-12)
    assert np.all(col_power >= 10 ** (-0.3 * 4 / 10) - 1e-12)


def test_compose_with_leaky_cells_stays_unitary():
    u = haar_random_unitary(4, seed=11)
    cfg = decompose(u)
    leaky = MZIParams.with_bar_leakage(10 ** (-2.1))
    m = compose(cfg, leaky)
    assert is_unitary(m, tol=1e-10)
    assert matrix_distance(m, u) > 1e-4  # imperfection is visible


def test_compose_rejects_per_cell_params():
    cfg = all_cross_config(4)
    with pytest.raises(TypeError):
        compose(cfg, [MZIParams.ideal() for _ in cfg.thetas])


def test_config_json_round_trip():
    """mesh.json reads back bit for bit, and its cells' modes, which the
    config does not store, are checked on read against the layout."""
    for n in range(2, 9):
        u = haar_random_unitary(n, seed=21)
        cfg = decompose(u)
        data = json.loads(_dump_json(cfg.to_json_dict()))
        assert [tuple(cell["modes"]) for cell in data["cells"]] == clements_layout(n)
        loaded = MeshConfig.from_json_dict(data)
        assert loaded.n_modes == n
        for name in ("thetas", "phis", "output_phases"):
            assert np.array_equal(getattr(loaded, name), getattr(cfg, name))  # exact: repr round-trip
        assert matrix_distance(compose(loaded), u) < 1e-10

        order = "^" + re.escape(f"{n}-mode mesh needs the cell pairs {clements_layout(n)} in order, got ")
        shifted = copy.deepcopy(data)
        shifted["cells"][-1]["modes"] = [m + 1 for m in shifted["cells"][-1]["modes"]]
        with pytest.raises(ValueError, match=order):
            MeshConfig.from_json_dict(shifted)
        if n >= 3:
            # Cell n // 2, the first of column 1, sits on (1, 2), not on (0, 1).
            swapped = copy.deepcopy(data)
            first, other = swapped["cells"][0], swapped["cells"][n // 2]
            first["modes"], other["modes"] = other["modes"], first["modes"]
            with pytest.raises(ValueError, match=order):
                MeshConfig.from_json_dict(swapped)
        short = copy.deepcopy(data)
        del short["cells"][-1]
        count = n * (n - 1) // 2
        with pytest.raises(ValueError, match=rf"^{n}-mode mesh requires {count} cells, got {count - 1}$"):
            MeshConfig.from_json_dict(short)


def test_config_json_rejects_unknown_schema(tmp_path):
    cfg = all_cross_config(4)
    data = cfg.to_json_dict()
    data["schema_version"] = 99
    with pytest.raises(ValueError):
        MeshConfig.from_json_dict(data)


def test_modulator_count_matches_hardware():
    """Four modes drive ten modulators: one internal phase per cell plus an
    external phase wherever the cell's top input is fed by an earlier cell."""
    cfg = all_cross_config(4)
    layout = modulator_layout(cfg)
    internal = [k for k, (_, role) in layout.items() if role == "internal"]
    external = [k for k, (_, role) in layout.items() if role == "external"]
    assert len(internal) == 6
    assert len(external) == 4
    assert cfg.phase_count == 10
    # first-column cells have no external electrode
    assert "cell0.phi" not in layout
    assert "cell1.phi" not in layout


def test_modulator_count_other_sizes():
    # n(n-1) phases minus floor(n/2) input-facing ones
    for n in (2, 3, 4, 5, 6):
        cfg = all_cross_config(n)
        assert cfg.phase_count == n * (n - 1) - n // 2


def test_gauge_extraction_preserves_statistics():
    u = haar_random_unitary(4, seed=42)
    cfg = decompose(u)
    reduced, input_phases = gauge_input_phases(cfg)
    recombined = compose(reduced) @ np.diag(np.exp(1j * input_phases))
    assert matrix_distance(recombined, u) < 1e-12
    assert np.array_equal(reduced.phis[:2], [0.0, 0.0])
    assert np.array_equal(reduced.phis[2:], cfg.phis[2:])
    assert np.array_equal(input_phases[[1, 3]], [0.0, 0.0])
    # intensities are blind to input phases
    assert np.allclose(np.abs(compose(reduced)), np.abs(u), atol=1e-12)


def test_phases_to_voltages_round_trip():
    u = haar_random_unitary(4, seed=13)
    reduced, _ = gauge_input_phases(decompose(u))
    shifter = PhaseShifterParams()
    prog = phases_to_voltages(reduced, shifter)
    assert len(prog.voltages) == 10
    layout = modulator_layout(reduced)
    for name, volts in prog.voltages.items():
        idx, role = layout[name]
        want = (reduced.thetas if role == "internal" else reduced.phis)[idx]
        got = phase_from_voltage(shifter, volts)
        assert math.remainder(got - want, 2 * math.pi) == pytest.approx(0.0, abs=1e-10)
        assert abs(volts) <= shifter.v_pi_volts + 1e-9


def test_phases_to_voltages_guards():
    u = haar_random_unitary(4, seed=42)
    cfg = decompose(u)  # still carries input-facing phases
    with pytest.raises(ValueError, match="carries input-facing phase"):
        phases_to_voltages(cfg, PhaseShifterParams())
    reduced, _ = gauge_input_phases(cfg)
    # A 30 V shifter needs up to 30 V, past the 10 V compliance.
    with pytest.raises(ValueError, match="exceeds compliance 10.0 V"):
        phases_to_voltages(reduced, PhaseShifterParams(v_pi_volts=30.0))
    layout = modulator_layout(reduced)
    name = next(iter(layout))
    with pytest.raises(ValueError, match=f"voltage for {name} must be finite"):
        VoltageProgram({name: math.nan}, layout)
    with pytest.raises(ValueError, match="voltage for unknown modulator nowhere"):
        VoltageProgram({"nowhere": 1.0}, layout)


@settings(deadline=None, max_examples=60)
@given(
    st.integers(2, 8),
    st.floats(-0.2, 0.2),
    st.floats(0.0, 3.0),
    st.integers(0, 2**32 - 1),
)
def test_compose_equals_direct_cell_product(n, d, loss_db, seed):
    """The mesh product equals embedding each 2x2 block, for ideal and
    physical cells, and compose inverts decompose."""
    rng = np.random.default_rng(seed)
    layout = clements_layout(n)
    thetas, phis = rng.uniform(0.0, 2 * math.pi, (2, len(layout)))
    cells = list(zip(layout, thetas, phis))
    cfg = MeshConfig(n, thetas, phis, rng.uniform(0.0, 2 * math.pi, n))
    assert np.allclose(compose(cfg), mesh_by_embedding(n, cells, cfg.output_phases), atol=1e-12)

    physical = MZIParams(coupler_imbalance=d, insertion_loss_db=loss_db)
    want = mesh_by_embedding(n, cells, cfg.output_phases, 0.5 + d, 0.5, loss_db)
    assert np.allclose(compose(cfg, physical), want, atol=1e-12)

    u = haar_random_unitary(n, seed=seed)
    assert matrix_distance(compose(decompose(u)), u) < 1e-10


@settings(deadline=None, max_examples=60)
@given(
    st.integers(2, 8),
    st.sampled_from([(), (3,), (2, 3)]),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_stacked_mesh_product_equals_per_vector_calls(n, batch, lossy, seed):
    """A stack of phase vectors composes, bit for bit, as one call per vector,
    and each matrix is the direct cell product."""
    rng = np.random.default_rng(seed)
    layout = clements_layout(n)
    thetas, phis = rng.uniform(0.0, 2 * math.pi, (2, *batch, len(layout)))
    d, loss_db = (0.13, 0.4) if lossy else (0.0, 0.0)
    params = MZIParams(coupler_imbalance=d, insertion_loss_db=loss_db) if lossy else None
    stacked = _mesh_product(n, thetas, phis, params)
    assert stacked.shape == (*batch, n, n)
    for idx in np.ndindex(*batch):
        single = _mesh_product(n, thetas[idx], phis[idx], params)
        assert np.array_equal(stacked[idx], single)
        cells = list(zip(layout, thetas[idx], phis[idx]))
        want = mesh_by_embedding(n, cells, np.zeros(n), 0.5 + d, 0.5, loss_db)
        assert np.abs(single - want).max() < 1e-13


@settings(deadline=None, max_examples=60)
@given(st.integers(2, 10), st.integers(0, 2**32 - 1))
def test_decompose_emits_the_layout_and_the_closed_form_modulators(n, seed):
    """decompose puts each cell in its clements_layout slot, so compose
    inverts it; the closed-form modulator map agrees with the touched-mode rule."""
    u = haar_random_unitary(n, seed=seed)
    cfg = decompose(u)
    assert matrix_distance(compose(cfg), u) < 1e-10
    assert modulator_layout(cfg) == modulator_layout_by_touched_modes(clements_layout(n))
    assert cfg.phase_count == len(modulator_layout(cfg))


def test_decomposition_phases_canonical():
    u = haar_random_unitary(4, seed=55)
    cfg = decompose(u)
    for phases in (cfg.thetas, cfg.phis):
        assert np.all(phases >= 0.0)
        assert np.all(phases < 2 * math.pi)
    # The (theta, phi) view of each cell that the benchmark reads.
    assert [(c.theta, c.phi) for c in cfg.cells] == list(zip(cfg.thetas.tolist(), cfg.phis.tolist()))
    assert np.all(cfg.output_phases >= 0.0)
    assert np.all(cfg.output_phases < 2 * math.pi)

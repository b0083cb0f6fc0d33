"""End-to-end acceptance checks.

One test per headline requirement; run with ``pytest -v`` to get a
pass/fail line for each.  Every tolerance is stated inline next to the
assertion it guards.
"""

import dataclasses
import hashlib
import json
import math
import time

import numpy as np
import pytest
import scipy.linalg

from lnoisim import (
    MZIParams,
    MeshCell,
    MeshConfig,
    PhaseShifterParams,
    SourceModel,
    all_cross_config,
    canonical_form,
    compose,
    decompose,
    default_pulse_program,
    estimate_mzi_loss_from_demux,
    demux_input_transmissions,
    fit_hom_visibility,
    haar_random_unitary,
    hom_fringe,
    matrix_distance,
    permanent,
    reconstruct_unitary,
    s21_crossing_ghz,
    simulate_demux,
    statistical_fidelity,
    switch_metrics,
    synthesize_statistics,
    two_photon_distribution,
)
from lnoisim.cli import main as cli_main
from lnoisim.experiments import matrix_to_json_dict
from lnoisim.router import TimeTrace

from oracles import hom_fringe_law, permanent_by_permutation_sum, two_photon_probabilities_by_mode_expansion

WIDE = PhaseShifterParams(f_3db_ghz=math.inf)


def test_mesh_round_trip_200_haar_within_1e_9_and_10_modulators():
    # decompose/compose must invert each other for 200 random 4x4
    # unitaries to 1e-9 (achieved: ~1e-15), in under 5 seconds total,
    # and each mesh must expose exactly 10 drivable phases
    start = time.perf_counter()
    worst = 0.0
    for seed in range(200):
        u = haar_random_unitary(4, seed=1000 + seed)
        config = decompose(u)
        assert config.phase_count == 10
        worst = max(worst, matrix_distance(compose(config), u))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-9
    assert elapsed < 5.0


def test_permanent_agrees_with_permutation_sum_and_handles_16_modes_fast():
    # 500 random matrices up to 5x5 against the brute-force permutation
    # sum, relative error <= 1e-12; then one 16x16 and one 20x20, each in
    # under a second
    rng = np.random.default_rng(17)
    for _ in range(500):
        n = int(rng.integers(1, 6))
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        want = permanent_by_permutation_sum(a)
        got = permanent(a)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
    # n = 16 stays fast and exact on a case with a computable expected
    # value: the permanent of a block-diagonal matrix factorizes
    blocks = [rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) for _ in range(4)]
    want = np.prod([permanent_by_permutation_sum(b) for b in blocks])
    start = time.perf_counter()
    got = permanent(scipy.linalg.block_diag(*blocks))
    elapsed = time.perf_counter() - start
    assert abs(got - want) <= 1e-9 * abs(want)
    assert elapsed < 1.0
    # n = 20, the largest order, from five 4x4 blocks: relative error <= 1e-10
    blocks.append(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    want = np.prod([permanent_by_permutation_sum(b) for b in blocks])
    start = time.perf_counter()
    got = permanent(scipy.linalg.block_diag(*blocks))
    elapsed = time.perf_counter() - start
    assert abs(got - want) <= 1e-10 * abs(want)
    assert elapsed < 1.0


def test_fringe_extrema_visibility_recovery_and_poisson_uncertainty():
    cell = MZIParams.ideal()
    # analytic extrema: maxima of 1 at multiples of pi, minimum
    # (1 - x)/2 at pi/2 -- 0.0365 for x = 0.927 (abs 1e-12)
    assert hom_fringe(cell, [0.0], 0.927)[0] == pytest.approx(1.0, abs=1e-12)
    assert hom_fringe(cell, [math.pi], 0.927)[0] == pytest.approx(1.0, abs=1e-12)
    assert hom_fringe(cell, [math.pi / 2], 0.927)[0] == pytest.approx(0.0365, abs=1e-12)
    grid = np.linspace(0.0, 2 * math.pi, 41)
    assert np.allclose(
        hom_fringe(cell, grid, 0.945), [hom_fringe_law(p, 0.945) for p in grid], atol=1e-12
    )

    # a noiseless fit must return the overlap to 1e-6
    visibility, _ = fit_hom_visibility(grid, hom_fringe(cell, grid, 0.945))
    assert abs(visibility - 0.945) <= 1e-6

    # with Poisson counting noise at 500 counts/point the visibility
    # scatter over 60 repeats sits in the sub-percent range
    fitted = []
    probs = hom_fringe(cell, grid, 0.945)
    for trial in range(60):
        counts = np.random.default_rng(trial).poisson(probs * 500).astype(float)
        v, _ = fit_hom_visibility(grid, counts, sigma=np.sqrt(np.maximum(counts, 1.0)))
        fitted.append(v)
    scatter = float(np.std(fitted))
    assert 0.0035 <= scatter <= 0.014


def test_demux_suppression_and_switched_slot_transmission():
    # a trace routing 96.2% per event reports 10*log10(0.038) = -14.2 dB
    times = (np.arange(12) + 0.5) * 13.8
    rows = np.full((12, 4), 0.038 / 3)
    for k in range(12):
        rows[k, k % 4] = 0.962
    metrics = switch_metrics(TimeTrace(times, rows))
    assert metrics.suppression_db == pytest.approx(-14.2, abs=0.05)

    # cells with 10^-2.1 bar leakage: each photon crosses two switches,
    # so the switched-slot transmission is (1 - leakage)^2 = 0.9842 +/- 1e-4
    leak = 10 ** (-2.1)
    cell = MZIParams.with_bar_leakage(leak, WIDE)
    program = default_pulse_program(n_frames=5)
    trace = simulate_demux([cell] * 3, program, SourceModel(), n_frames=5)
    routed = np.array([trace.outputs[k, k % 4] for k in range(trace.n_events)])
    assert np.allclose(routed, (1 - leak) ** 2, atol=1e-12)
    assert np.allclose(routed, 0.9842, atol=1e-4)

    # lossless ideal switches conserve probability at every event
    ideal = simulate_demux(
        [MZIParams.ideal()] * 3, default_pulse_program(n_frames=5), SourceModel(), 5
    )
    assert np.allclose(ideal.outputs.sum(axis=1), 1.0, atol=1e-9)


def test_modulator_bandwidth_crossing_within_one_percent():
    # the discrete-time response's -3 dB point stays within 1% of the
    # configured 6.5 GHz corner
    crossing = s21_crossing_ghz(PhaseShifterParams(f_3db_ghz=6.5))
    assert crossing == pytest.approx(6.5, rel=0.01)


def test_tree_loss_estimator_recovers_per_cell_loss():
    # one-switch versus two-switch path comparison recovers the per-cell
    # insertion loss to 0.01 dB across a realistic range
    for per_cell_db in (0.2, 0.8, 1.2):
        cell = MZIParams.with_bar_leakage(10 ** (-2.1), WIDE, insertion_loss_db=per_cell_db)
        transmissions, external, internal = demux_input_transmissions([cell] * 3)
        estimate = estimate_mzi_loss_from_demux(transmissions, external, internal)
        assert estimate == pytest.approx(per_cell_db, abs=0.01)


def test_two_photon_statistics_match_oracle_and_survive_hardware_noise():
    # 50 random unitaries x 6 input pairs at x = 0.945: distributions
    # normalize to 1e-9 and agree with an independent mode-expansion
    # oracle to 1e-12; extreme overlaps spot-checked on a subset
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    for seed in range(50):
        u = haar_random_unitary(4, seed=2000 + seed)
        overlaps = (0.0, 0.945, 1.0) if seed < 10 else (0.945,)
        for x in overlaps:
            for pair in pairs:
                dist = two_photon_distribution(u, pair, overlap=x)
                assert dist.total == pytest.approx(1.0, abs=1e-9)
                want = two_photon_probabilities_by_mode_expansion(u, *pair, x)
                for pattern, p in want.items():
                    assert dist.probability(pattern) == pytest.approx(p, abs=1e-12)

    # the all-cross mesh maps inputs (0, 1) onto outputs (2, 3) with
    # certainty: fidelity against the exact reversal is 1 (abs 1e-12)
    swept = compose(all_cross_config(4))
    got = two_photon_distribution(swept, (0, 1), overlap=1.0)
    want = two_photon_distribution(np.eye(4)[::-1], (0, 1), overlap=1.0)
    assert got.probability((2, 3)) == pytest.approx(1.0, abs=1e-12)
    assert statistical_fidelity(got, want) == pytest.approx(1.0, abs=1e-12)

    # with 10^-2.1 bar leakage in every cell and 0.01*pi phase setting
    # noise, the output distribution keeps fidelity >= 0.95 to the ideal
    rng = np.random.default_rng(2026)
    sigma = 0.01 * math.pi
    leaky = MZIParams.with_bar_leakage(10 ** (-2.1), WIDE)
    for trial in range(10):
        u = haar_random_unitary(4, seed=300 + trial)
        config = decompose(u)
        noisy_cells = tuple(
            MeshCell(c.modes, c.theta + rng.normal(0.0, sigma), c.phi + rng.normal(0.0, sigma))
            for c in config.cells
        )
        noisy = dataclasses.replace(config, cells=noisy_cells)
        t = compose(noisy, cell_params=leaky)
        fidelity = statistical_fidelity(
            two_photon_distribution(u, (0, 1), overlap=0.945),
            two_photon_distribution(t, (0, 1), overlap=0.945),
        )
        assert fidelity >= 0.95


def test_reconstruction_succeeds_for_19_of_20_seeded_instances():
    # fit a 4x4 transfer matrix from singles + pairwise coincidences for
    # 20 random targets (half with x = 0.945); at least 19 land within
    # 1e-3 of the truth in canonical form, each in under 60 s
    successes = 0
    for trial in range(20):
        u = haar_random_unitary(4, seed=500 + trial)
        overlap = 1.0 if trial % 2 == 0 else 0.945
        stats = synthesize_statistics(u, overlap=overlap)
        start = time.perf_counter()
        result = reconstruct_unitary(stats, seed=trial, overlap=overlap)
        assert time.perf_counter() - start < 60.0
        if matrix_distance(canonical_form(u), result.unitary) <= 1e-3:
            successes += 1
    assert successes >= 19


def test_cli_outputs_are_bit_reproducible(tmp_path):
    # identical config + seed => byte-identical artifacts, manifest
    # digests included, for each of the seven experiments
    unitary = matrix_to_json_dict(haar_random_unitary(4, seed=31))
    configs = {
        "fringe.json": {
            "schema_version": 1,
            "experiment": "hom-fringe",
            "poisson_mean_counts": 500,
            "seed": 11,
            "n_points": 21,
        },
        "demux.json": {
            "schema_version": 1,
            "experiment": "demux",
            "n_frames": 4,
            "bar_leakage": 0.01,
        },
        "budget.json": {
            "schema_version": 1,
            "experiment": "loss-budget",
            "entries": [
                {"label": "in", "loss_db": 3.4},
                {"label": "chip", "db_per_cm": 0.3, "length_cm": 2.0},
                {"label": "out", "loss_db": 3.4},
            ],
        },
        "distribution.json": {
            "schema_version": 1,
            "experiment": "distribution",
            "unitary": unitary,
            "input_modes": [0, 1],
            "overlap": 0.945,
        },
        "decompose.json": {
            "schema_version": 1,
            "experiment": "mesh-decompose",
            "unitary": unitary,
        },
        "compose.json": {
            "schema_version": 1,
            "experiment": "mesh-compose",
            "mesh": decompose(haar_random_unitary(4, seed=32)).to_json_dict(),
        },
        "reconstruct.json": {
            "schema_version": 1,
            "experiment": "reconstruct",
            "unitary": matrix_to_json_dict(haar_random_unitary(3, seed=33)),
            "n_restarts": 2,
            "seed": 7,
        },
    }
    commands = {
        "fringe.json": ["hom-fringe"],
        "demux.json": ["demux"],
        "budget.json": ["loss-budget"],
        "distribution.json": ["distribution"],
        "decompose.json": ["mesh", "decompose"],
        "compose.json": ["mesh", "compose"],
        "reconstruct.json": ["reconstruct"],
    }
    for name, payload in configs.items():
        cfg = tmp_path / name
        cfg.write_text(json.dumps(payload))
        out_a = tmp_path / (name + ".a")
        out_b = tmp_path / (name + ".b")
        for out in (out_a, out_b):
            code = cli_main(
                [*commands[name], "--config", str(cfg), "--output-dir", str(out), "--quiet"]
            )
            assert code == 0
        files = sorted(p.name for p in out_a.iterdir())
        assert files == sorted(p.name for p in out_b.iterdir())
        for fname in files:
            assert (out_a / fname).read_bytes() == (out_b / fname).read_bytes()
        # manifest digests really describe the bytes on disk
        manifest = json.loads((out_a / "manifest.json").read_text())
        for fname, digest in manifest["outputs"].items():
            actual = hashlib.sha256((out_a / fname).read_bytes()).hexdigest()
            assert actual == digest

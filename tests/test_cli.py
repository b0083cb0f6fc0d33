import gc
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import lnoisim
from lnoisim import (
    MeasuredStatistics,
    PhotonDistribution,
    compose,
    decompose,
    haar_random_unitary,
    matrix_distance,
    nphoton_collision_free_distribution,
    synthesize_statistics,
)
from lnoisim import cli
from lnoisim.cli import build_parser, main
from lnoisim.experiments import (
    FIELDS,
    MAX_INSERTION_LOSS_DB,
    MAX_N_FRAMES,
    MAX_N_POINTS,
    MAX_VOLTS,
    _csv_bytes,
    matrix_from_json_dict,
    matrix_to_json_dict,
)
from helpers import all_cross_config, statistics_json
from oracles import csv_by_writer

SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_json(path):
    return json.loads(path.read_text())


def run(args):
    return main([*args, "--quiet"])


_BUDGET = {
    "schema_version": 1,
    "experiment": "loss-budget",
    "entries": [{"label": "coupler_in", "loss_db": 3.4}, {"label": "coupler_out", "loss_db": 3.4}],
}


def test_parser_accepts_all_subcommands():
    parser = build_parser()
    for argv in (
        ["hom-fringe", "--config", "c.json"],
        ["demux", "--config", "c.json"],
        ["distribution", "--config", "c.json"],
        ["reconstruct", "--config", "c.json"],
        ["loss-budget", "--config", "c.json", "--output-dir", "out"],
        ["mesh", "decompose", "--config", "c.json"],
        ["mesh", "compose", "--config", "c.json"],
        ["validate", "--config", "c.json"],
    ):
        args = parser.parse_args(argv)
        assert args.config == "c.json"


def test_seed_is_a_config_key_not_a_flag(capsys):
    # A run's seed is the config's "seed"; there is no flag to override it.
    with pytest.raises(SystemExit) as exc:
        main(["demux", "--config", "c.json", "--seed", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err


def test_matrix_json_helpers_round_trip():
    u = haar_random_unitary(4, seed=11)
    again = matrix_from_json_dict(matrix_to_json_dict(u))
    assert np.array_equal(again, u)


def test_validate_accepts_good_config(tmp_path):
    cfg = write_config(
        tmp_path,
        "fringe.json",
        {"schema_version": 1, "experiment": "hom-fringe", "overlap": 0.945},
    )
    assert run(["validate", "--config", cfg]) == 0


def test_validate_collects_every_diagnostic(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "bad.json",
        {
            "schema_version": 7,
            "experiment": "hom-fringe",
            "overlap": 1.5,
            "n_points": 2,
            "voltage_start": 5.0,
            "voltage_stop": 1.0,
        },
    )
    assert run(["validate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    # one line per problem, all reported in a single pass
    assert err.count("config error:") >= 4
    assert "schema_version" in err
    assert "overlap" in err


def test_invalid_json_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert run(["validate", "--config", str(path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize(
    "raw", [b'{"x":"\xff"}', b"[" * 100_000 + b"]" * 100_000], ids=["not-utf8", "nested-too-deep"]
)
@pytest.mark.parametrize("argv", [["validate"], ["hom-fringe"]])
def test_unreadable_config_is_a_config_error(tmp_path, capsys, raw, argv):
    path = tmp_path / "cfg.json"
    path.write_bytes(raw)
    assert run([*argv, "--config", str(path), "--output-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: config is not valid JSON: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def _noisy_statistics():
    """Statistics of a 4-mode Haar unitary, its singles off by 0.1% relative Gaussian noise."""
    stats = synthesize_statistics(haar_random_unitary(4, 3))
    noise = np.random.default_rng(0).standard_normal(stats.singles.shape)
    return statistics_json(MeasuredStatistics(stats.singles * (1.0 + 1e-3 * noise), stats.pairs))


@pytest.mark.parametrize("argv, payload, message", [
    (["hom-fringe"], {
        "schema_version": 1, "experiment": "hom-fringe", "poisson_mean_counts": 1, "seed": 25,
        "n_points": 6,
    }, "error: FitError: coincidence data has no positive values"),
    (["reconstruct"], {
        "schema_version": 1, "experiment": "reconstruct", "statistics": _noisy_statistics(),
    }, "error: FitError: the fit left squared-residual sum"),
], ids=["fringe-fit", "reconstruction"])
def test_data_the_fit_cannot_support_exits_1(tmp_path, capsys, argv, payload, message):
    # `validate` accepts each config; the run fails on its data, not on the config.
    cfg = write_config(tmp_path, "cfg.json", payload)
    assert run(["validate", "--config", cfg]) == 0
    capsys.readouterr()
    assert run([*argv, "--config", cfg, "--output-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1, err
    assert not (tmp_path / "out" / "manifest.json").exists()


def test_missing_config_file_exits_1(tmp_path, capsys):
    assert run(["validate", "--config", str(tmp_path / "nope.json")]) == 1
    assert "error" in capsys.readouterr().err


def test_experiment_command_mismatch(tmp_path, capsys):
    cfg = write_config(
        tmp_path, "c.json", {"schema_version": 1, "experiment": "demux"}
    )
    assert run(["hom-fringe", "--config", cfg]) == 2
    assert "does not match" in capsys.readouterr().err


def test_hom_fringe_outputs_and_manifest(tmp_path):
    cfg = write_config(
        tmp_path,
        "fringe.json",
        {
            "schema_version": 1,
            "experiment": "hom-fringe",
            "overlap": 0.945,
            "n_points": 21,
        },
    )
    out = tmp_path / "out"
    assert run(["hom-fringe", "--config", cfg, "--output-dir", str(out)]) == 0
    fit = read_json(out / "fit.json")
    assert fit["visibility"] == pytest.approx(0.945, abs=1e-6)
    assert (out / "fringe.csv").exists()

    manifest = read_json(out / "manifest.json")
    assert manifest["experiment"] == "hom-fringe"
    assert manifest["tool"] == "lnoisim"
    assert sorted(manifest["outputs"]) == ["fit.json", "fringe.csv"]
    for name, digest in manifest["outputs"].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


def test_reruns_are_byte_identical(tmp_path):
    cfg = write_config(
        tmp_path,
        "fringe.json",
        {
            "schema_version": 1,
            "experiment": "hom-fringe",
            "poisson_mean_counts": 800,
            "seed": 7,
            "n_points": 21,
        },
    )
    dirs = [tmp_path / "run1", tmp_path / "run2"]
    for d in dirs:
        assert run(["hom-fringe", "--config", cfg, "--output-dir", str(d)]) == 0
    names = sorted(p.name for p in dirs[0].iterdir())
    assert names == sorted(p.name for p in dirs[1].iterdir())
    for name in names:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


_RERUN_CONFIGS = {
    "demux": {"schema_version": 1, "experiment": "demux", "n_frames": 3},
    "hom-fringe": {
        "schema_version": 1, "experiment": "hom-fringe", "poisson_mean_counts": 800, "seed": 7,
    },
}


def _populated(tmp_path, experiment):
    """An output directory holding one run of ``experiment``, and its files' bytes."""
    cfg = write_config(tmp_path, "cfg.json", _RERUN_CONFIGS[experiment])
    out = tmp_path / "out"
    assert run([experiment, "--config", cfg, "--output-dir", str(out)]) == 0
    return cfg, out, {p.name: p.read_bytes() for p in out.iterdir()}


@pytest.mark.parametrize("experiment", sorted(_RERUN_CONFIGS))
def test_rerun_into_a_populated_directory_renames_onto_free_names(
    tmp_path, monkeypatch, experiment
):
    cfg, out, first = _populated(tmp_path, experiment)
    replace = os.replace

    def replace_onto_free_name(src, dst):
        if os.path.lexists(dst):
            raise FileExistsError(f"rename onto the existing file {dst}")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", replace_onto_free_name)
    assert run([experiment, "--config", cfg, "--output-dir", str(out)]) == 0
    # Byte-identical, and no .<name>.* temp file left beside them.
    assert {p.name: p.read_bytes() for p in out.iterdir()} == first


@pytest.mark.parametrize("experiment", sorted(_RERUN_CONFIGS))
def test_failed_rerun_leaves_no_manifest(tmp_path, monkeypatch, capsys, experiment):
    cfg, out, _ = _populated(tmp_path, experiment)
    write = cli._atomic_write
    calls = []

    def fail_on_second_artifact(path, data):
        calls.append(path.name)
        if len(calls) == 2:
            raise OSError(f"no space left for {path.name}")
        write(path, data)

    monkeypatch.setattr(cli, "_atomic_write", fail_on_second_artifact)
    assert run([experiment, "--config", cfg, "--output-dir", str(out)]) == 1
    assert "error: no space left for" in capsys.readouterr().err
    assert calls[1] != "manifest.json"
    assert not (out / "manifest.json").exists()
    assert sorted(p.name for p in out.iterdir()) == [calls[0]]


def test_artifact_path_that_is_a_directory_is_an_error(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", _RERUN_CONFIGS["hom-fringe"])
    out = tmp_path / "out"
    (out / "fit.json").mkdir(parents=True)
    assert run(["hom-fringe", "--config", cfg, "--output-dir", str(out)]) == 1
    assert "error:" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["fit.json"]


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
def test_artifacts_get_the_mode_a_plain_open_gives(tmp_path, umask, mode):
    cfg = write_config(tmp_path, "cfg.json", _RERUN_CONFIGS["hom-fringe"])
    out = tmp_path / "out"
    old = os.umask(umask)
    try:
        assert run(["hom-fringe", "--config", cfg, "--output-dir", str(out)]) == 0
        (out / "plain").write_bytes(b"")
    finally:
        os.umask(old)
    modes = {p.name: p.stat().st_mode & 0o777 for p in out.iterdir()}
    assert modes == dict.fromkeys(["fit.json", "fringe.csv", "manifest.json", "plain"], mode)


def test_poisson_fringe_requires_seed(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "fringe.json",
        {"schema_version": 1, "experiment": "hom-fringe", "poisson_mean_counts": 500},
    )
    assert run(["hom-fringe", "--config", cfg]) == 2
    assert "seed" in capsys.readouterr().err


def test_demux_run_reports_clean_routing(tmp_path):
    cfg = write_config(
        tmp_path,
        "demux.json",
        {
            "schema_version": 1,
            "experiment": "demux",
            "n_frames": 3,
            "f_3db_ghz": None,
        },
    )
    out = tmp_path / "out"
    assert run(["demux", "--config", cfg, "--output-dir", str(out)]) == 0
    metrics = read_json(out / "metrics.json")
    assert metrics["average_probability"] == pytest.approx(1.0, abs=1e-9)
    assert metrics["suppression_db"] is None  # nothing leaked at all
    rows = (out / "trace.csv").read_text().strip().splitlines()
    assert rows[0] == "time_ns,out0,out1,out2,out3"
    assert len(rows) == 1 + 3 * 4


def test_demux_runs_at_the_largest_insertion_loss(tmp_path):
    # At MAX_INSERTION_LOSS_DB the power through two cells is still above 0,
    # so leaky cells are still scored as at no loss: (1 - 0.01)**2.
    payload = {"schema_version": 1, "experiment": "demux", "n_frames": 2, "bar_leakage": 0.01,
               "insertion_loss_db": MAX_INSERTION_LOSS_DB}
    cfg = write_config(tmp_path, "demux.json", payload)
    assert run(["validate", "--config", cfg]) == 0
    assert run(["demux", "--config", cfg, "--output-dir", str(tmp_path / "out")]) == 0
    metrics = read_json(tmp_path / "out" / "metrics.json")
    assert metrics["average_probability"] == pytest.approx(0.99**2, rel=1e-12)


def test_demux_rejects_conflicting_extinction_settings(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "demux.json",
        {
            "schema_version": 1,
            "experiment": "demux",
            "extinction_db": 21.0,
            "bar_leakage": 0.01,
        },
    )
    assert run(["demux", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "extinction_db" in err and "bar_leakage" in err


def test_demux_rejects_train_past_program(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "demux.json",
        {"schema_version": 1, "experiment": "demux", "n_frames": 10, "train_offset_ns": 30.0},
    )
    for args in (["validate", "--config", cfg], ["demux", "--config", cfg]):
        assert run(args) == 2
        err = capsys.readouterr().err
        assert "config error:" in err and "train_offset_ns" in err


def test_validate_of_a_train_past_the_float_range_prints_one_line(tmp_path, capsys):
    # The last photon instant overflows to inf.  The coverage check reads it
    # in Python floats, so no numpy overflow warning comes first.
    cfg = write_config(tmp_path, "demux.json", {
        "schema_version": 1, "experiment": "demux", "n_frames": 1,
        "repetition_period_ns": 4e306, "train_offset_ns": 1.7e308,
    })
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["validate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: field 'train_offset_ns': photon train spans [")
    assert err.count("\n") == 1, err


def test_distribution_single_photon(tmp_path):
    u = haar_random_unitary(4, seed=21)
    cfg = write_config(
        tmp_path,
        "dist.json",
        {
            "schema_version": 1,
            "experiment": "distribution",
            "unitary": matrix_to_json_dict(u),
            "input_modes": [2],
        },
    )
    out = tmp_path / "out"
    assert run(["distribution", "--config", cfg, "--output-dir", str(out)]) == 0
    payload = read_json(out / "distribution.json")
    got = {entry["pattern"][0]: entry["p"] for entry in payload["outputs"]}
    for port in range(4):
        assert got[port] == pytest.approx(abs(u[port, 2]) ** 2, abs=1e-12)
    # One photon writes the schema that two photons write.
    dist = nphoton_collision_free_distribution(u, [2])
    assert payload == dist.to_json_dict()
    assert PhotonDistribution.from_json_dict(payload).to_json_dict() == payload


def test_distribution_two_photon_from_mesh(tmp_path):
    # compose and sample in one pass: feed the mesh for the reversal
    # permutation and check the deterministic two-photon outcome
    mesh_cfg = all_cross_config(4).to_json_dict()
    cfg = write_config(
        tmp_path,
        "dist.json",
        {
            "schema_version": 1,
            "experiment": "distribution",
            "mesh": mesh_cfg,
            "input_modes": [0, 1],
            "overlap": 1.0,
        },
    )
    out = tmp_path / "out"
    assert run(["distribution", "--config", cfg, "--output-dir", str(out)]) == 0
    payload = read_json(out / "distribution.json")
    probs = {tuple(entry["pattern"]): entry["p"] for entry in payload["outputs"]}
    assert probs[(2, 3)] == pytest.approx(1.0, abs=1e-12)


def test_mesh_decompose_compose_round_trip(tmp_path):
    u = haar_random_unitary(4, seed=33)
    cfg1 = write_config(
        tmp_path,
        "dec.json",
        {
            "schema_version": 1,
            "experiment": "mesh-decompose",
            "unitary": matrix_to_json_dict(u),
        },
    )
    dec_out = tmp_path / "dec"
    assert run(["mesh", "decompose", "--config", cfg1, "--output-dir", str(dec_out)]) == 0
    report = read_json(dec_out / "report.json")
    assert report["recompose_distance"] < 1e-12
    assert report["phase_count"] == 10
    assert report["n_cells"] == 6

    cfg2 = write_config(
        tmp_path,
        "comp.json",
        {
            "schema_version": 1,
            "experiment": "mesh-compose",
            "mesh": read_json(dec_out / "mesh.json"),
        },
    )
    comp_out = tmp_path / "comp"
    assert run(["mesh", "compose", "--config", cfg2, "--output-dir", str(comp_out)]) == 0
    recovered = matrix_from_json_dict(read_json(comp_out / "unitary.json"))
    assert matrix_distance(recovered, u) < 1e-12


def test_reconstruct_at_overlap_0_is_one_config_error(tmp_path, capsys):
    # At overlap 0 the pairs carry no phase, and four modes' moduli leave the
    # unitary open; from about 1e-13 down the fit can stop on a wrong one,
    # and at 5e-324 the estimate divides by zero.
    for overlap in (0, 1e-13, 5e-324):
        cfg = write_config(tmp_path, "rec.json", {
            "schema_version": 1, "experiment": "reconstruct", "overlap": overlap,
            "unitary": matrix_to_json_dict(haar_random_unitary(4, seed=1)),
        })
        assert main(["validate", "--config", cfg]) == 2
        assert capsys.readouterr().err == (
            "config error: field 'overlap' must be >= 1e-09: below it the pairs carry too little phase\n"
        )


def test_reconstruct_from_reference_unitary(tmp_path):
    cfg = write_config(
        tmp_path,
        "rec.json",
        {
            "schema_version": 1,
            "experiment": "reconstruct",
            "unitary": matrix_to_json_dict(haar_random_unitary(4, seed=13)),
            "seed": 0,
        },
    )
    out = tmp_path / "out"
    assert run(["reconstruct", "--config", cfg, "--output-dir", str(out)]) == 0
    report = read_json(out / "report.json")
    assert sorted(report) == ["converged", "cost", "distance_to_reference", "nfev"]
    assert report["converged"] is True
    assert report["distance_to_reference"] < 1e-6
    assert read_json(out / "manifest.json")["seed"] == 0


def test_quiet_does_not_carry_over_between_calls(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "fringe.json",
        {
            "schema_version": 1,
            "experiment": "hom-fringe",
            "poisson_mean_counts": 400,
            "seed": 1,
            "n_points": 21,
        },
    )
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert run(["hom-fringe", "--config", cfg, "--output-dir", str(out_a)]) == 0
    assert capsys.readouterr().out == ""
    # The parser is built once per process: --quiet may not carry over.
    assert main(["hom-fringe", "--config", cfg, "--output-dir", str(out_b)]) == 0
    assert "visibility:" in capsys.readouterr().out
    assert (out_a / "fringe.csv").read_bytes() == (out_b / "fringe.csv").read_bytes()


def test_loss_budget_with_wavelength_sweep(tmp_path):
    cfg = write_config(
        tmp_path,
        "budget.json",
        {
            "schema_version": 1,
            "experiment": "loss-budget",
            "entries": [
                {"label": "coupler_in", "loss_db": 3.4},
                {"label": "chip", "db_per_cm": 0.3, "length_cm": 2.0},
                {"label": "coupler_out", "loss_db": 3.4},
            ],
            "sweep": {
                "wavelengths_nm": [924.0, 930.0, 936.0],
                "coupler_labels": ["coupler_in", "coupler_out"],
                "grating": {},
            },
        },
    )
    out = tmp_path / "out"
    assert run(["loss-budget", "--config", cfg, "--output-dir", str(out)]) == 0
    budget = read_json(out / "budget.json")
    assert budget["total_db"] == pytest.approx(7.4, abs=1e-12)
    rows = (out / "sweep.csv").read_text().strip().splitlines()
    assert rows[0] == "wavelength_nm,transmission"
    assert len(rows) == 4
    # the center wavelength transmits best
    transmissions = [float(r.split(",")[1]) for r in rows[1:]]
    assert transmissions[1] == max(transmissions)


def test_nan_overlap_is_a_config_error(tmp_path, capsys):
    identity = {"re": [[1.0, 0.0], [0.0, 1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}
    cfg = write_config(
        tmp_path,
        "dist.json",
        {"schema_version": 1, "experiment": "distribution", "unitary": identity,
         "input_modes": [0, 1], "overlap": float("nan")},
    )
    assert main(["validate", "--config", cfg]) == 2
    assert run(["distribution", "--config", cfg, "--output-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.count("config error: field 'overlap' must be a finite number") == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "fields", [{"loss_db": "3.4"}, {"loss_db": "abc"}, {"db_per_cm": True, "length_cm": 1.0}]
)
def test_non_numeric_loss_is_a_config_error(tmp_path, capsys, fields):
    entry = {"label": "chip", **fields}
    cfg = write_config(
        tmp_path,
        "budget.json",
        {"schema_version": 1, "experiment": "loss-budget", "entries": [entry]},
    )
    assert main(["validate", "--config", cfg]) == 2
    assert run(["loss-budget", "--config", cfg, "--output-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.count("config error: entries[0]: entry 'chip':") == 2
    assert not (tmp_path / "out").exists()


def test_poisson_fringe_fit_is_unbiased(tmp_path):
    # Weighting by each point's own count pulled V about 3.4 stderr above x
    # at this size; model weights leave a pull within noise.
    x = 0.945
    pulls = []
    for seed in range(16):
        cfg = write_config(
            tmp_path,
            f"fringe{seed}.json",
            {"schema_version": 1, "experiment": "hom-fringe", "overlap": x, "n_points": 1001,
             "poisson_mean_counts": 500, "seed": seed},
        )
        out = tmp_path / f"out{seed}"
        assert run(["hom-fringe", "--config", cfg, "--output-dir", str(out)]) == 0
        fit = read_json(out / "fit.json")
        pulls.append((fit["visibility"] - x) / fit["stderr"])
    assert abs(np.mean(pulls)) < 1.0


@pytest.mark.parametrize("mean_counts", [1e14, 1e15, 1e17, 9e18])
def test_poisson_fringe_fits_clean_high_count_data(tmp_path, mean_counts):
    # The amplitude column of the weighted Jacobian shrinks as 1/sqrt(counts)
    # while V's grows as sqrt(counts); their ratio alone must not fail the fit.
    x = 0.945
    cfg = write_config(
        tmp_path,
        "fringe.json",
        {"schema_version": 1, "experiment": "hom-fringe", "overlap": x,
         "poisson_mean_counts": mean_counts, "seed": 1},
    )
    assert run(["hom-fringe", "--config", cfg, "--output-dir", str(tmp_path / "out")]) == 0
    assert abs(read_json(tmp_path / "out" / "fit.json")["visibility"] - x) <= 1e-6


def _tables(elements):
    """(header, table) with 2-5 named columns and 1-12 rows of ``elements``."""
    return st.lists(
        st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True), min_size=2, max_size=5
    ).flatmap(
        lambda header: st.tuples(
            st.just(header),
            hnp.arrays(float, st.tuples(st.integers(1, 12), st.just(len(header))), elements=elements),
        )
    )


# Values that share a table repeat, as the routing levels of a demux trace do.
# They include both zeros and NaNs of either sign with different payloads.
_NANS = np.array(
    [0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001, 0xFFF4000000000123],
    dtype=np.uint64,
).view(np.float64)
_POOL = [0.0, -0.0, *_NANS.tolist(), math.inf, -math.inf, 5e-324, 1e16, 1e-5, 1.0, -7.0, 4e3]


def _column_groups(data, draw):
    """``data`` split into consecutive column groups of 1-4 columns; a
    one-column group is drawn as a 1-d column or a 2-d block."""
    groups, start = [], 0
    while start < data.shape[1]:
        width = draw(st.integers(1, min(4, data.shape[1] - start)))
        block = data[:, start : start + width]
        groups.append(block[:, 0] if width == 1 and draw(st.booleans()) else block)
        start += width
    return groups


@settings(deadline=None)
@given(
    st.one_of(
        _tables(st.floats()),
        st.lists(st.floats(), max_size=3).flatmap(
            lambda extra: _tables(st.sampled_from([*_POOL, *extra]))
        ),
    ),
    st.data(),
)
def test_csv_bytes_match_csv_writer_oracle(header_and_data, data):
    header, table = header_and_data
    groups = _column_groups(table, data.draw)
    assert _csv_bytes(header, groups) == csv_by_writer(header, table)


def _large_block(rows):
    rng = np.random.default_rng(19)
    block = rng.standard_normal((70_000, 4))
    if rows == "repeated":
        # 37 distinct rows, some cells -0.0.
        return np.where(rng.random((37, 4)) < 0.3, -0.0, block[:37])[rng.integers(0, 37, 70_000)]
    if rows == "first-column":
        # Column 0 holds 2**16 distinct cells and the rest are 0.0: rows
        # differ only in the column the sort compares last.
        block = np.zeros((2**16, 5))
        block[:, 0] = np.arange(2**16)
    return block


@pytest.mark.parametrize("rows", ["distinct", "repeated", "first-column"])
def test_csv_bytes_of_a_large_block_match_csv_writer_oracle(rows):
    # Every row distinct, 37 rows repeated out of order, and rows that
    # differ in one column only: each run of equal rows gets one text.
    block = _large_block(rows)
    times = np.arange(len(block)) * 0.1
    header = ["time_ns", *(f"out{j}" for j in range(block.shape[1]))]
    assert _csv_bytes(header, (times, block)) == csv_by_writer(header, np.column_stack((times, block)))


def test_csv_bytes_build_no_container_per_row():
    # A demux-shaped table: 4,000 distinct time stamps and 48 distinct output rows.
    rng = np.random.default_rng(5)
    times = np.arange(4000) * 3.125 + 1.0
    outputs = rng.random((48, 4))[rng.integers(0, 48, 4000)]
    header = ["time_ns", "out0", "out1", "out2", "out3"]
    gc.collect()
    before = gc.get_stats()[0]["collections"]
    for _ in range(10):
        _csv_bytes(header, (times, outputs))
    assert gc.get_stats()[0]["collections"] - before <= 1


def _readme_configs(n_modes):
    """(subcommand, config) for each of the seven experiments at README size."""
    u = matrix_to_json_dict(haar_random_unitary(n_modes, seed=7))
    mesh = decompose(haar_random_unitary(n_modes, seed=8)).to_json_dict()
    configs = [
        (["hom-fringe"], {"overlap": 0.945, "voltage_start": 0.0, "voltage_stop": 9.0,
                          "n_points": 41, "poisson_mean_counts": 500, "seed": 3}),
        (["demux"], {"n_frames": 10, "repetition_period_ns": 13.8, "f_3db_ghz": 6.5,
                     "bar_leakage": 0.01}),
        (["distribution"], {"unitary": u, "input_modes": [0, 1], "overlap": 0.945}),
        (["mesh", "decompose"], {"unitary": u}),
        (["mesh", "compose"], {"mesh": mesh}),
        (["reconstruct"], {"unitary": u, "overlap": 0.945, "seed": 0}),
        (["loss-budget"], {
            "entries": _BUDGET["entries"],
            "sweep": {"wavelengths_nm": [920.0, 930.0], "coupler_labels": ["coupler_in"],
                      "grating": {}},
        }),
    ]
    return [(argv, {"schema_version": 1, "experiment": "-".join(argv), **fields})
            for argv, fields in configs]


def _readme_sized_runs(tmp_path):
    """CLI argument lists running each of the seven experiments at README size."""
    runs = []
    for argv, payload in _readme_configs(4):
        name = payload["experiment"]
        runs.append([*argv, "--config", write_config(tmp_path, f"{name}.json", payload),
                     "--output-dir", str(tmp_path / name), "--quiet"])
    return runs


def test_cli_import_leaves_scipy_unloaded(tmp_path):
    # No experiment needs SciPy: with it made unimportable, all seven run,
    # and so does the shifter's response to a sampled drive.
    runs = _readme_sized_runs(tmp_path)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC_DIR), env.get("PYTHONPATH")) if p)
    code = (
        "import sys; sys.modules['scipy'] = None; import lnoisim.cli; "
        "loaded = lambda: sorted(m for m, mod in sys.modules.items() "
        "if m.startswith('scipy') and mod is not None); "
        "print(loaded()); "
        f"print([lnoisim.cli.main(argv) for argv in {runs!r}]); "
        "lnoisim.eom_response(lnoisim.PhaseShifterParams(), [0.0, 1.0, 1.0], 40.0); "
        "print(loaded()); "
        "program = lnoisim.default_pulse_program(n_frames=1000); "
        "print(sorted((name, v.size) for name, v in program.levels.items()))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "[]", "[0, 0, 0, 0, 0, 0, 0]", "[]", "[('A', 4000), ('B', 4000)]"
    ]


def test_package_exports_each_submodule_list_once():
    modules = (lnoisim.budget, lnoisim.components, lnoisim.core, lnoisim.errors, lnoisim.mesh,
               lnoisim.photons, lnoisim.reconstruct, lnoisim.router)
    names = ["__version__"] + [name for module in modules for name in module.__all__]
    assert sorted(lnoisim.__all__) == sorted(names)
    assert len(set(names)) == len(names)
    for name in lnoisim.__all__:
        assert hasattr(lnoisim, name), name


def test_console_script_runs(tmp_path):
    cfg = write_config(
        tmp_path,
        "fringe.json",
        {"schema_version": 1, "experiment": "hom-fringe", "n_points": 21},
    )
    out = tmp_path / "out"
    # Run this checkout's sources in a fresh process, whatever the cwd and
    # whether or not some copy of the package is installed.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC_DIR), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "lnoisim", "hom-fringe",
         "--config", cfg, "--output-dir", str(out)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "visibility" in proc.stdout
    assert (out / "manifest.json").exists()


def test_console_script_entry_point_is_cli_main():
    tomllib = pytest.importorskip("tomllib")
    with open(SRC_DIR.parent / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"lnoisim": "lnoisim.cli:main"}


def test_runtime_dependencies_are_numpy_alone():
    tomllib = pytest.importorskip("tomllib")
    with open(SRC_DIR.parent / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["dependencies"] == ["numpy>=1.24"]
    assert any(req.startswith("scipy") for req in project["optional-dependencies"]["test"])


def _assert_config_error_twice(tmp_path, capsys, argv, cfg, diagnostic):
    assert main(["validate", "--config", cfg]) == 2
    assert run([*argv, "--config", cfg, "--output-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.count(f"config error: {diagnostic}") == 2
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_unknown_coupler_label_is_a_config_error(tmp_path, capsys):
    sweep = {"wavelengths_nm": [930.0], "coupler_labels": ["coupler_in", "nope"], "grating": {}}
    cfg = write_config(tmp_path, "budget.json", {**_BUDGET, "sweep": sweep})
    _assert_config_error_twice(
        tmp_path, capsys, ["loss-budget"], cfg, "sweep.coupler_labels: no entry is labelled 'nope'"
    )


def test_unknown_grating_key_is_a_config_error(tmp_path, capsys):
    sweep = {"wavelengths_nm": [930.0], "coupler_labels": ["coupler_in"], "grating": {"colour": 1}}
    cfg = write_config(tmp_path, "budget.json", {**_BUDGET, "sweep": sweep})
    _assert_config_error_twice(tmp_path, capsys, ["loss-budget"], cfg, "sweep.grating:")


@pytest.mark.parametrize(
    "argv, extra",
    [(["mesh", "compose"], {}), (["distribution"], {"input_modes": [0, 1]})],
)
def test_mesh_without_schema_version_is_a_config_error(tmp_path, capsys, argv, extra):
    mesh = {"n_modes": 2, "cells": [{"modes": [0, 1], "theta": 0.5}], "output_phases": [0.0, 0.0]}
    payload = {"schema_version": 1, "experiment": "-".join(argv), "mesh": mesh, **extra}
    cfg = write_config(tmp_path, "mesh.json", payload)
    _assert_config_error_twice(
        tmp_path, capsys, argv, cfg, "field 'mesh': unsupported mesh schema_version None"
    )


@pytest.mark.parametrize(
    "argv, extra",
    [(["mesh", "compose"], {}), (["distribution"], {"input_modes": [0, 1]})],
)
def test_unknown_mesh_cell_key_is_a_config_error(tmp_path, capsys, argv, extra):
    cell = {"modes": [0, 1], "theta": 0.3, "phii": 1.2}
    mesh = {"schema_version": 1, "n_modes": 2, "cells": [cell], "output_phases": [0.0, 0.0]}
    payload = {"schema_version": 1, "experiment": "-".join(argv), "mesh": mesh, **extra}
    cfg = write_config(tmp_path, "mesh.json", payload)
    _assert_config_error_twice(
        tmp_path, capsys, argv, cfg, "field 'mesh': cells[0]: unknown field 'phii' (did you mean 'phi'?)"
    )
    # phi may still be left out.
    del cell["phii"]
    cfg = write_config(tmp_path, "mesh.json", payload)
    assert main(["validate", "--config", cfg, "--quiet"]) == 0
    assert run([*argv, "--config", cfg, "--output-dir", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize(
    "argv, extra",
    [(["mesh", "compose"], {}), (["distribution"], {"input_modes": [0, 1]})],
)
def test_mesh_out_of_layout_order_is_a_config_error(tmp_path, capsys, argv, extra):
    # The cells of a 5-mode mesh in reverse: the pairs of clements_layout(5),
    # but not in its order.
    mesh = decompose(haar_random_unitary(5, seed=8)).to_json_dict()
    mesh["cells"].reverse()
    payload = {"schema_version": 1, "experiment": "-".join(argv), "mesh": mesh, **extra}
    cfg = write_config(tmp_path, "mesh.json", payload)
    assert main(["validate", "--config", cfg]) == 2
    assert run([*argv, "--config", cfg, "--output-dir", str(tmp_path / "out")]) == 2
    pairs = "[(0, 1), (2, 3), (1, 2), (3, 4), (0, 1), (2, 3), (1, 2), (3, 4), (0, 1), (2, 3)]"
    line = f"config error: field 'mesh': 5-mode mesh needs the cell pairs {pairs} in order, got "
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(e.startswith(line) for e in err), err
    assert not (tmp_path / "out").exists()


def test_statistics_without_pairs_is_a_config_error(tmp_path, capsys):
    payload = {
        "schema_version": 1,
        "experiment": "reconstruct",
        "seed": 0,
        "statistics": {"singles": [[1.0, 0.0], [0.0, 1.0]]},
    }
    cfg = write_config(tmp_path, "rec.json", payload)
    _assert_config_error_twice(
        tmp_path, capsys, ["reconstruct"], cfg, "field 'statistics' is missing the key 'pairs'"
    )


def test_compose_output_matches_library(tmp_path):
    from lnoisim import MeshConfig

    mesh_dict = all_cross_config(4).to_json_dict()
    cfg = write_config(
        tmp_path,
        "comp.json",
        {"schema_version": 1, "experiment": "mesh-compose", "mesh": mesh_dict},
    )
    out = tmp_path / "out"
    assert run(["mesh", "compose", "--config", cfg, "--output-dir", str(out)]) == 0
    u_cli = matrix_from_json_dict(read_json(out / "unitary.json"))
    u_lib = compose(MeshConfig.from_json_dict(mesh_dict))
    assert np.array_equal(u_cli, u_lib)


def _statistics_without_pair(pair):
    stats = statistics_json(synthesize_statistics(haar_random_unitary(3, seed=5)))
    stats["pairs"] = [p for p in stats["pairs"] if tuple(p["input"]) != pair]
    return stats


def _reconstruct_with_statistics(edit):
    """A 3-mode reconstruct config whose statistics object ``edit`` changes in place."""
    stats = statistics_json(synthesize_statistics(haar_random_unitary(3, seed=5)))
    edit(stats)
    return {"schema_version": 1, "experiment": "reconstruct", "seed": 1, "statistics": stats}


def _reconstruct_with_pairs(edit):
    """A 3-mode reconstruct config whose list of pair statistics ``edit`` changes in place."""
    return _reconstruct_with_statistics(lambda stats: edit(stats["pairs"]))


def _with_unitary(experiment, edit):
    """A ``distribution`` or ``mesh-decompose`` config whose 2-mode unitary ``edit`` changes."""
    unitary = matrix_to_json_dict(haar_random_unitary(2, seed=3))
    edit(unitary)
    fields = {"input_modes": [0, 1]} if experiment == "distribution" else {}
    return {"schema_version": 1, "experiment": experiment, "unitary": unitary, **fields}


def _compose_with_mesh(edit):
    """A 4-mode mesh-compose config whose mesh object ``edit`` changes in place."""
    mesh = decompose(haar_random_unitary(4, seed=32)).to_json_dict()
    edit(mesh)
    return {"schema_version": 1, "experiment": "mesh-compose", "mesh": mesh}


def _set(path, value):
    """An edit that sets the item at ``path`` to ``value``."""
    def edit(node):
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return edit


_IDENTITY_2 = {"re": [[1.0, 0.0], [0.0, 1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}
_HUGE_MESH = {"schema_version": 1, "n_modes": 100000, "cells": [], "output_phases": [0.0]}


def _budget_with_grating(**grating):
    sweep = {"wavelengths_nm": [930.0], "coupler_labels": ["coupler_in"], "grating": grating}
    return {**_BUDGET, "sweep": sweep}


# Configs the run rejects, each with the one diagnostic `validate` must print too.
_REJECTED = {
    "wavelength-outside-band": (["loss-budget"], {
        **_BUDGET,
        "sweep": {"wavelengths_nm": [930.0, 1000.0], "coupler_labels": ["coupler_in"]},
    }, "sweep.wavelengths_nm: wavelength 1000.0 nm outside modeled band [905.0, 955.0] nm"),
    "duplicate-budget-label": (["loss-budget"], {
        **_BUDGET,
        "entries": [{"label": "chip", "loss_db": 1.0}, {"label": "chip", "loss_db": 2.0}],
    }, "entries: budget entry labels must be unique"),
    "decompose-not-unitary": (["mesh", "decompose"], {
        "schema_version": 1, "experiment": "mesh-decompose", "tol": 1e-12,
        "unitary": {"re": [[1.0, 1e-9], [0.0, 1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]},
    }, "field 'unitary': matrix is not unitary within tolerance"),
    "input-mode-out-of-range": (["distribution"], {
        "schema_version": 1, "experiment": "distribution", "unitary": _IDENTITY_2,
        "input_modes": [0, 2],
    }, "field 'input_modes': port 2 out of range for 2 inputs"),
    "reconstruct-non-square": (["reconstruct"], {
        "schema_version": 1, "experiment": "reconstruct", "seed": 0,
        "unitary": {"re": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "im": [[0.0] * 3] * 2},
    }, "field 'unitary': need a square transfer matrix"),
    "statistics-missing-pair": (["reconstruct"], {
        "schema_version": 1, "experiment": "reconstruct", "seed": 0,
        "statistics": _statistics_without_pair((0, 2)),
    }, "field 'statistics': no two-photon data for input pairs [(0, 2)]"),
    "statistics-pattern-beyond-last-mode": (["reconstruct"], _reconstruct_with_pairs(
        lambda pairs: pairs[0]["outputs"][0].update(pattern=[7, 9])
    ), "field 'statistics': pair (0, 1) has an output pattern beyond mode 2"),
    "statistics-duplicate-pattern": (["reconstruct"], _reconstruct_with_pairs(
        lambda pairs: pairs[0]["outputs"].append(dict(pairs[0]["outputs"][0]))
    ), "field 'statistics': patterns must not repeat"),
    "statistics-fractional-input": (["reconstruct"], _reconstruct_with_pairs(
        lambda pairs: pairs[0].update(input=[0.5, 1.2])
    ), "field 'statistics': modes must be integers, got [0.5, 1.2]"),
    "statistics-duplicate-input-pair": (["reconstruct"], _reconstruct_with_pairs(
        lambda pairs: pairs.append(pairs[0])
    ), "field 'statistics': input pairs must not repeat"),
    "statistics-reversed-pattern": (["reconstruct"], _reconstruct_with_pairs(
        lambda pairs: pairs[0]["outputs"][0].update(pattern=[1, 0])
    ), "field 'statistics': each pattern (i, j) must satisfy 0 <= i <= j"),
    "statistics-fractional-pattern": (["reconstruct"], _reconstruct_with_pairs(
        lambda pairs: pairs[0]["outputs"][0].update(pattern=[0.5, 1])
    ), "field 'statistics': modes must be integers, got [0.5, 1]"),
    "statistics-string-single": (["reconstruct"], _reconstruct_with_statistics(
        _set(("singles", 0, 0), "0.25")
    ), "field 'statistics': singles must be a 2-d array of finite numbers"),
    "statistics-bool-single": (["reconstruct"], _reconstruct_with_statistics(
        _set(("singles", 0, 0), True)
    ), "field 'statistics': singles must be a 2-d array of finite numbers"),
    "statistics-string-probability": (["reconstruct"], _reconstruct_with_statistics(
        _set(("pairs", 0, "outputs", 0, "p"), "0.25")
    ), "field 'statistics': each output's probability 'p' must be a finite number"),
    "statistics-bool-probability": (["reconstruct"], _reconstruct_with_statistics(
        _set(("pairs", 0, "outputs", 0, "p"), True)
    ), "field 'statistics': each output's probability 'p' must be a finite number"),
    "statistics-probability-above-one": (["reconstruct"], _reconstruct_with_statistics(
        _set(("pairs", 0, "outputs", 0, "p"), 1e300)
    ), "field 'statistics': probabilities must be finite numbers in [0, 1]"),
    "statistics-single-above-one": (["reconstruct"], _reconstruct_with_statistics(
        _set(("singles", 0, 0), 1e300)
    ), "field 'statistics': singles must be finite numbers in [0, 1]"),
    "statistics-three-mode-pattern": (["reconstruct"], _reconstruct_with_pairs(
        lambda pairs: pairs[0]["outputs"][0].update(pattern=[0, 1, 2])
    ), "field 'statistics': each pattern must list 2 output modes, one per photon"),
    "distribution-one-photon-amplifying-matrix": (["distribution"], {
        "schema_version": 1, "experiment": "distribution", "input_modes": [0],
        "unitary": {"re": [[1e300, 0.0], [0.0, 1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]},
    }, "field 'unitary': matrix is not passive: its largest singular value is 1e+300"),
    "distribution-two-photon-amplifying-matrix": (["distribution"], {
        "schema_version": 1, "experiment": "distribution", "input_modes": [0, 1],
        "unitary": {"re": [[1e155, 0.0], [0.0, 1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]},
    }, "field 'unitary': matrix is not passive: its largest singular value is 1e+155"),
    "budget-negative-loss": (["loss-budget"], {
        **_BUDGET, "entries": [{"label": "chip", "loss_db": -1e300}],
    }, "entries[0]: entry 'chip': a loss is a magnitude, at least 0 dB"),
    "budget-negative-loss-density": (["loss-budget"], {
        **_BUDGET, "entries": [{"label": "chip", "db_per_cm": -1e300, "length_cm": 1}],
    }, "entries[0]: entry 'chip': a loss is a magnitude, at least 0 dB"),
    "budget-infinite-total": (["loss-budget"], {
        **_BUDGET,
        "entries": [{"label": "chip", "loss_db": 1e308}, {"label": "fiber", "loss_db": 1e308}],
    }, "entries: the total loss must be finite, got inf dB"),
    "decompose-string-entry": (["mesh", "decompose"], _with_unitary(
        "mesh-decompose", _set(("re", 0, 0), "0.5")
    ), "field 'unitary': matrix 're' must be a 2-d array of finite numbers"),
    "distribution-bool-entry": (["distribution"], _with_unitary(
        "distribution", _set(("im", 1, 1), True)
    ), "field 'unitary': matrix 'im' must be a 2-d array of finite numbers"),
    "distribution-string-row-count": (["distribution"], _with_unitary(
        "distribution", _set(("n",), "2")
    ), "field 'unitary': matrix 'n' must be its row count 2, got '2'"),
    "decompose-wrong-row-count": (["mesh", "decompose"], _with_unitary(
        "mesh-decompose", _set(("n",), 3)
    ), "field 'unitary': matrix 'n' must be its row count 2, got 3"),
    "decompose-string-matrix-schema": (["mesh", "decompose"], _with_unitary(
        "mesh-decompose", _set(("schema_version",), "1")
    ), "field 'unitary': unsupported matrix schema_version '1'"),
    "decompose-bool-matrix-schema": (["mesh", "decompose"], _with_unitary(
        "mesh-decompose", _set(("schema_version",), True)
    ), "field 'unitary': unsupported matrix schema_version True"),
    "compose-bool-mesh-schema": (["mesh", "compose"], _compose_with_mesh(
        _set(("schema_version",), True)
    ), "field 'mesh': unsupported mesh schema_version True"),
    "fringe-bool-schema": (["hom-fringe"], {
        "schema_version": True, "experiment": "hom-fringe",
    }, "schema_version must be 1, got True"),
    "fringe-fractional-schema": (["hom-fringe"], {
        "schema_version": 1.0, "experiment": "hom-fringe",
    }, "schema_version must be 1, got 1.0"),
    "compose-string-theta": (["mesh", "compose"], _compose_with_mesh(
        _set(("cells", 0, "theta"), "1.5")
    ), "field 'mesh': cell [0, 1]: theta and phi must be finite numbers"),
    "compose-bool-theta": (["mesh", "compose"], _compose_with_mesh(
        _set(("cells", 0, "theta"), True)
    ), "field 'mesh': cell [0, 1]: theta and phi must be finite numbers"),
    "compose-string-output-phase": (["mesh", "compose"], _compose_with_mesh(
        _set(("output_phases", 3), "0.5")
    ), "field 'mesh': output_phases must be a 1-d array of finite numbers"),
    "compose-fractional-mode-count": (["mesh", "compose"], _compose_with_mesh(
        _set(("n_modes",), 4.7)
    ), "field 'mesh': n_modes must be an integer of at least 2, got 4.7"),
    "compose-fractional-cell-modes": (["mesh", "compose"], _compose_with_mesh(
        _set(("cells", 0, "modes"), [0.5, 1.5])
    ), "field 'mesh': cell modes must be integers, got [0.5, 1.5]"),
    # The cells are counted before the layout of 5e9 pairs could be built.
    "compose-huge-mode-count": (["mesh", "compose"], {
        "schema_version": 1, "experiment": "mesh-compose", "mesh": _HUGE_MESH,
    }, "field 'mesh': 100000-mode mesh requires 4999950000 cells, got 0"),
    "distribution-huge-mode-count": (["distribution"], {
        "schema_version": 1, "experiment": "distribution", "mesh": _HUGE_MESH, "input_modes": [0, 1],
    }, "field 'mesh': 100000-mode mesh requires 4999950000 cells, got 0"),
    "demux-extinction-past-the-cap": (["demux"], {
        "schema_version": 1, "experiment": "demux", "extinction_db": 4000,
    }, "field 'extinction_db': extinction ratio must lie in (0, 300] dB, got 4000"),
    "hom-fringe-extinction-past-the-cap": (["hom-fringe"], {
        "schema_version": 1, "experiment": "hom-fringe", "extinction_db": 4000,
    }, "field 'extinction_db': extinction ratio must lie in (0, 300] dB, got 4000"),
    "distribution-one-photon-overlap": (["distribution"], {
        **_with_unitary("distribution", lambda u: None), "input_modes": [1], "overlap": 0.5,
    }, "field 'overlap' applies to two input modes only"),
    "distribution-one-photon-collision-free-only": (["distribution"], {
        **_with_unitary("distribution", lambda u: None), "input_modes": [0],
        "collision_free_only": False,
    }, "field 'collision_free_only' applies to two input modes only"),
    "poisson-fringe-without-seed": (["hom-fringe"], {
        "schema_version": 1, "experiment": "hom-fringe", "poisson_mean_counts": 500,
    }, "seed is required when poisson_mean_counts is set"),
    "reconstruct-overlap-0": (["reconstruct"], {
        "schema_version": 1, "experiment": "reconstruct", "unitary": _IDENTITY_2, "overlap": 0,
    }, "field 'overlap' must be >= 1e-09: below it the pairs carry too little phase"),
    # Below 1e-9: a wrong unitary with exit 0 at 1e-13, a division by zero in the estimate at 5e-324.
    "reconstruct-overlap-1e-13": (["reconstruct"], {
        "schema_version": 1, "experiment": "reconstruct", "unitary": _IDENTITY_2, "overlap": 1e-13,
    }, "field 'overlap' must be >= 1e-09: below it the pairs carry too little phase"),
    "reconstruct-overlap-5e-324": (["reconstruct"], {
        "schema_version": 1, "experiment": "reconstruct", "unitary": _IDENTITY_2, "overlap": 5e-324,
    }, "field 'overlap' must be >= 1e-09: below it the pairs carry too little phase"),
    "poisson-mean-too-large": (["hom-fringe"], {
        "schema_version": 1, "experiment": "hom-fringe", "seed": 1,
        "poisson_mean_counts": 5e18, "accidental_floor": 1.0,
    }, "poisson_mean_counts times (1 + accidental_floor) must not exceed 9.22337e+18"),
    "reconstruct-one-mode": (["reconstruct"], {
        "schema_version": 1, "experiment": "reconstruct", "seed": 0,
        "unitary": {"re": [[1.0]], "im": [[0.0]]},
    }, "field 'unitary': reconstruction needs at least 2 modes"),
    "demux-too-many-frames": (["demux"], {
        "schema_version": 1, "experiment": "demux", "n_frames": MAX_N_FRAMES + 1,
    }, f"field 'n_frames' must be <= {MAX_N_FRAMES}"),
    "demux-loss-past-float-range": (["demux"], {
        "schema_version": 1, "experiment": "demux", "insertion_loss_db": 2000.0,
    }, f"field 'insertion_loss_db' must be <= {MAX_INSERTION_LOSS_DB}"),
    "fringe-narrower-than-half-a-period": (["hom-fringe"], {
        "schema_version": 1, "experiment": "hom-fringe", "voltage_stop": 2.0,
    }, "the sweep spans 1.39626 rad, under the pi/2 the fringe fit needs"),
    "fringe-step-at-half-v-pi": (["hom-fringe"], {
        "schema_version": 1, "experiment": "hom-fringe", "n_points": 5,
    }, "the voltage step 2.25 V is not under v_pi_volts / 2, so the fringe aliases"),
    "hom-fringe-too-many-points": (["hom-fringe"], {
        "schema_version": 1, "experiment": "hom-fringe", "n_points": MAX_N_POINTS + 1,
    }, f"field 'n_points' must be <= {MAX_N_POINTS}"),
    "demux-retired-samples-per-slot": (["demux"], {
        "schema_version": 1, "experiment": "demux", "n_frames": 2, "samples_per_slot": 256,
    }, "unknown field 'samples_per_slot'"),
    "demux-period-past-float-range": (["demux"], {
        "schema_version": 1, "experiment": "demux", "repetition_period_ns": 1e308,
    }, "field 'repetition_period_ns': 40 slots of 1e+308 ns end past the float range"),
    "grating-nan-peak": (["loss-budget"], _budget_with_grating(peak_efficiency_db=math.nan),
                         "sweep.grating: peak_efficiency_db must be a finite number, got nan"),
    "grating-infinite-bandwidth": (["loss-budget"], _budget_with_grating(bandwidth_1db_nm=math.inf),
                                   "sweep.grating: bandwidth_1db_nm must be a finite number, got inf"),
    "grating-infinite-band-edge": (["loss-budget"], _budget_with_grating(band_nm=[905.0, math.inf]),
                                   "sweep.grating: band_nm must be a finite number, got inf"),
    "grating-bool-bandwidth": (["loss-budget"], _budget_with_grating(bandwidth_1db_nm=True),
                               "sweep.grating: bandwidth_1db_nm must be a finite number, got True"),
    "grating-samples": (["loss-budget"], _budget_with_grating(samples=[[910, 940], [-4, 3]]),
                        "sweep.grating: unknown field 'samples'"),
}


# A misspelt or extra key at any depth, each with the diagnostic both calls print.
_UNKNOWN_FIELDS = {
    "top-level": (["hom-fringe"], {"schema_version": 1, "experiment": "hom-fringe", "overlapp": 0.5},
                  "unknown field 'overlapp' (did you mean 'overlap'?)"),
    "budget-entry": (["loss-budget"], {
        **_BUDGET, "entries": [{"label": "coupler_in", "los_db": 3.4}],
    }, "entries[0]: unknown field 'los_db' (did you mean 'loss_db'?)"),
    "sweep": (["loss-budget"], {
        **_BUDGET, "sweep": {"wavelengths_nm": [930.0], "coupler_labels": ["coupler_in"], "extra": 1},
    }, "sweep: unknown field 'extra'"),
    "statistics": (["reconstruct"], _reconstruct_with_statistics(_set(("junk",), 1)),
                   "field 'statistics': unknown field 'junk'"),
    "pair": (["reconstruct"], _reconstruct_with_pairs(lambda pairs: pairs[0].update(bogus=1)),
             "field 'statistics': pair: unknown field 'bogus'"),
    "pair-output": (["reconstruct"], _reconstruct_with_pairs(
        lambda pairs: pairs[0]["outputs"][1].update(q=0.5)
    ), "field 'statistics': pair outputs[1]: unknown field 'q'"),
    "matrix": (["distribution"], _with_unitary("distribution", _set(("imag",), [[0.0] * 2] * 2)),
               "field 'unitary': unknown field 'imag' (did you mean 'im'?)"),
    "mesh": (["mesh", "compose"], _compose_with_mesh(_set(("n_mode",), 4)),
             "field 'mesh': unknown field 'n_mode' (did you mean 'n_modes'?)"),
    # Retired: reconstruction always fits the collision-free pair statistics.
    "reconstruct-collision_free_only": (["reconstruct"], {
        **_reconstruct_with_statistics(lambda stats: None), "collision_free_only": True,
    }, "unknown field 'collision_free_only'"),
    # Retired: reconstruction is one fit from a closed-form estimate.
    "reconstruct-n_restarts": (["reconstruct"], {
        **_reconstruct_with_statistics(lambda stats: None), "n_restarts": 2,
    }, "unknown field 'n_restarts'"),
    # Retired: the program drives each switch at its own shifter's V_pi, so a V_pi moves no result.
    "demux-v_pi_volts": (["demux"], {
        "schema_version": 1, "experiment": "demux", "v_pi_volts": 3.0,
    }, "unknown field 'v_pi_volts'"),
}


@pytest.mark.parametrize("case", sorted(_UNKNOWN_FIELDS))
def test_unknown_field_is_a_config_error(tmp_path, capsys, case):
    argv, payload, diagnostic = _UNKNOWN_FIELDS[case]
    cfg = write_config(tmp_path, "cfg.json", payload)
    _assert_config_error_twice(tmp_path, capsys, argv, cfg, diagnostic)


@pytest.mark.parametrize("case", sorted(_REJECTED))
def test_validate_rejects_what_the_run_rejects(tmp_path, capsys, case):
    argv, payload, diagnostic = _REJECTED[case]
    cfg = write_config(tmp_path, "cfg.json", payload)
    _assert_config_error_twice(tmp_path, capsys, argv, cfg, diagnostic)


@pytest.mark.parametrize("case", ["poisson-fringe-without-seed"])
def test_config_seed_supplies_the_seed(tmp_path, case):
    argv, payload, _ = _REJECTED[case]
    cfg = write_config(tmp_path, "cfg.json", {**payload, "seed": 3})
    assert run(["validate", "--config", cfg]) == 0
    assert run([*argv, "--config", cfg, "--output-dir", str(tmp_path / "out")]) == 0
    assert read_json(tmp_path / "out" / "manifest.json")["seed"] == 3


@pytest.mark.parametrize("case", ["poisson-fringe-without-seed"])
@pytest.mark.parametrize("seed, diagnostic", [
    (-1, "field 'seed' must be >= 0"), ("x", "field 'seed' must be an integer"),
    (1.5, "field 'seed' must be an integer"),
], ids=["negative", "string", "fraction"])
def test_a_refused_seed_is_not_also_missing(tmp_path, capsys, case, seed, diagnostic):
    # A seed the config gives counts as given: only its own diagnostic is printed.
    argv, payload, _ = _REJECTED[case]
    cfg = write_config(tmp_path, "cfg.json", {**payload, "seed": seed})
    assert main(["validate", "--config", cfg]) == 2
    assert run([*argv, "--config", cfg, "--output-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"config error: {diagnostic}\n" * 2


def _paths(node, prefix=()):
    """The path to every value below ``node``, and whether it ends in a dict key."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,), isinstance(node, dict)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


_DROP = object()
_RENAME = object()  # rename the key by one edit: its last letter doubled
_BAD_VALUES = (
    "x", 7, True, math.nan, math.inf, -math.inf, -1.5, 1e300, -1e300, 1e308, -1e308, 2**1024, [], None
)


def _mutations(argv, payload):
    """(argv, config, path, new value, _DROP or _RENAME) for each single mutation of a
    config; a path ending in "unknown_key" adds that key."""
    changes = [(("unknown_key",), 0)]
    for path, in_dict in _paths(payload):
        changes += [(path, _DROP), (path, _RENAME)] if in_dict else []
        changes += [(path, value) for value in _BAD_VALUES]
        node = payload
        for key in path:
            node = node[key]
        changes += [(path + ("unknown_key",), 0)] if isinstance(node, dict) else []
    if argv == ["loss-budget"]:
        changes.append((("entries", 1, "label"), payload["entries"][0]["label"]))
    if argv == ["distribution"]:
        changes += [(("input_modes", i), 2) for i in (0, 1)]
    return [(argv, payload, path, value) for path, value in changes]


# 2-mode matrices keep each example fast.
_CONFIG_MUTATIONS = [
    mutation for argv, payload in _readme_configs(2) for mutation in _mutations(argv, payload)
]


def _numeric_leaves(payload):
    """The path to every int or float (not bool) value below ``payload``."""
    leaves = []
    for path, _ in _paths(payload):
        node = payload
        for key in path:
            node = node[key]
        if isinstance(node, (int, float)) and not isinstance(node, bool):
            leaves.append((path, node))
    return leaves


# Each numeric leaf of the 2-mode README configs, written as its str() form.
_STRINGIFIED = [
    (argv, payload, path, str(value))
    for argv, payload in _readme_configs(2)
    for path, value in _numeric_leaves(payload)
]


@pytest.mark.parametrize(
    "mutation", _STRINGIFIED, ids=[f"{p['experiment']}-{'.'.join(map(str, path))}"
                                   for _, p, path, _ in _STRINGIFIED]
)
def test_numeric_strings_are_config_errors(tmp_path, mutation):
    # README: "strings where a number belongs are config errors", at any depth.
    argv, payload, leaf, value = mutation
    cfg = json.loads(json.dumps(payload))
    _set(leaf, value)(cfg)
    path = write_config(tmp_path, "cfg.json", cfg)
    assert main(["validate", "--config", path, "--quiet"]) == 2
    assert main([*argv, "--config", path, "--output-dir", str(tmp_path / "out"), "--quiet"]) == 2


_GOLDEN_CONFIGS = Path(__file__).resolve().parent / "golden" / "configs"


@pytest.mark.parametrize(
    "experiment, key", [(experiment, key) for experiment, keys in FIELDS.items() for key in keys]
)
def test_every_declared_key_takes_bad_values_cleanly(tmp_path, experiment, key):
    # Each key of FIELDS, set to each bad value on the shortest golden config of
    # its experiment that validates, keys the README configs leave out included:
    # no traceback, and `validate` agrees with the run.
    argv = experiment.split("-", 1) if experiment.startswith("mesh-") else [experiment]
    by_size = sorted(_GOLDEN_CONFIGS.glob("*.json"), key=lambda path: (path.stat().st_size, path.name))
    base = next(
        cfg for path in by_size
        if (cfg := json.loads(path.read_text()))["experiment"] == experiment
        and main(["validate", "--config", str(path), "--quiet"]) == 0
    )
    for index, value in enumerate(_BAD_VALUES):  # a new file each: truncating one is slow
        path = write_config(tmp_path, f"cfg{index}.json", {**base, key: value})
        out = tmp_path / f"out{index}"
        checked = main(["validate", "--config", path, "--quiet"])
        ran = main([*argv, "--config", path, "--output-dir", str(out), "--quiet"])
        assert checked in (0, 2) and ran in (0, 1, 2), (value, checked, ran)
        assert (checked == 0) == (ran != 2), (value, checked, ran)
        if ran == 0:
            _assert_finite_artifacts(out)


def _refuse_constant(token):
    raise AssertionError(f"non-standard JSON constant {token}")


def _assert_finite_artifacts(out):
    """Every JSON artifact in ``out`` is strict JSON, and no CSV cell is nan or inf."""
    for path in out.glob("*.json"):
        json.loads(path.read_text(), parse_constant=_refuse_constant)
    for path in out.glob("*.csv"):
        cells = [cell for line in path.read_text().splitlines()[1:] for cell in line.split(",")]
        assert all(math.isfinite(float(cell)) for cell in cells), path.name


def test_largest_v_pi_runs_with_finite_artifacts(tmp_path):
    # pi * MAX_VOLTS is the largest float; one float further it overflows.
    assert math.isfinite(math.pi * MAX_VOLTS)
    assert math.pi * math.nextafter(MAX_VOLTS, math.inf) == math.inf
    cfg = write_config(tmp_path, "hom-fringe.json", {
        "schema_version": 1, "experiment": "hom-fringe", "v_pi_volts": MAX_VOLTS, "voltage_stop": MAX_VOLTS,
    })
    assert run(["validate", "--config", cfg]) == 0
    assert run(["hom-fringe", "--config", cfg, "--output-dir", str(tmp_path / "out")]) == 0
    _assert_finite_artifacts(tmp_path / "out")


@settings(deadline=None, max_examples=100)
@given(v_pi=st.floats(1e-9, 1e9), rel=st.floats(-1e-9, 1e-9))
def test_validate_and_run_agree_on_a_sweep_near_half_a_period(v_pi, rel):
    # The fringe fit needs phases spanning pi/2, and validate refuses exactly
    # the sweeps from the default 0 V that fall short of it.
    cfg = {"schema_version": 1, "experiment": "hom-fringe", "v_pi_volts": v_pi,
           "voltage_stop": v_pi / 2.0 * (1.0 + rel)}
    with tempfile.TemporaryDirectory() as tmp:
        path = write_config(Path(tmp), "cfg.json", cfg)
        checked = main(["validate", "--config", path, "--quiet"])
        ran = main(["hom-fringe", "--config", path, "--output-dir", os.path.join(tmp, "out"), "--quiet"])
    assert checked in (0, 2) and ran in (0, 2), (cfg, checked, ran)
    assert (checked == 0) == (ran == 0), (cfg, checked, ran)


@pytest.mark.parametrize("fields, want", [
    # Half a period at 2.3e6 rad of absolute phase once made the fit's phase
    # scale and offset collinear, and the run exited 1.
    ({"v_pi_volts": 0.001, "voltage_start": 738.2437764541935,
      "voltage_stop": 738.2442764541935}, 0.945),
    # A floor that swamps the fringe gives it a negative visibility,
    # 1 - 2 P(pi/2) / P(0) = 1 - 2 (0.0275 + 1) / 2.
    ({"accidental_floor": 1.0}, -0.0275),
], ids=["far-from-0-v", "floor-of-1"])
def test_noise_free_fringe_reports_its_own_visibility(tmp_path, fields, want):
    cfg = write_config(tmp_path, "cfg.json", {"schema_version": 1, "experiment": "hom-fringe", **fields})
    assert run(["validate", "--config", cfg]) == 0
    assert run(["hom-fringe", "--config", cfg, "--output-dir", str(tmp_path / "out")]) == 0
    assert read_json(tmp_path / "out" / "fit.json")["visibility"] == pytest.approx(want, abs=1e-9)


@settings(deadline=None, max_examples=100)
@given(
    period=st.floats(-9.0, 300.0).map(lambda e: 10.0**e),
    rel=st.floats(-1e-9, 1e-9),
    f_3db=st.none() | st.floats(-9.0, 308.0).map(lambda e: 10.0**e),
)
def test_validate_and_run_agree_on_a_train_near_the_program_end(period, rel, f_3db):
    # With train_offset_ns at half a period the last photon sits on the end
    # of the program; validate refuses exactly the offsets the run cannot
    # take, and a run that starts ends with finite artifacts.
    cfg = {"schema_version": 1, "experiment": "demux", "n_frames": 2, "repetition_period_ns": period,
           "f_3db_ghz": f_3db, "train_offset_ns": period / 2.0 * (1.0 + rel)}
    with tempfile.TemporaryDirectory() as tmp:
        path = write_config(Path(tmp), "cfg.json", cfg)
        out = Path(tmp) / "out"
        checked = main(["validate", "--config", path, "--quiet"])
        ran = main(["demux", "--config", path, "--output-dir", str(out), "--quiet"])
        assert checked in (0, 2) and ran in (0, 2), (cfg, checked, ran)
        assert (checked == 0) == (ran == 0), (cfg, checked, ran)
        if ran == 0:
            _assert_finite_artifacts(out)


@pytest.mark.parametrize("f_3db", [1e308, 2e307])
def test_demux_with_a_band_near_the_float_range_runs_cleanly(tmp_path, capsys, f_3db):
    # 2 pi f_3db overflows for the first; each photon sits on a slot edge.
    cfg = write_config(tmp_path, "demux.json", {
        "schema_version": 1, "experiment": "demux", "n_frames": 3, "f_3db_ghz": f_3db,
        "train_offset_ns": 6.9,
    })
    assert run(["validate", "--config", cfg]) == 0
    assert run(["demux", "--config", cfg, "--output-dir", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""
    _assert_finite_artifacts(tmp_path / "out")


@pytest.mark.parametrize("offset", [6.85, 6.9])
def test_demux_train_may_reach_the_end_of_the_last_slot(tmp_path, offset):
    # README settings: the photons sit 50 ps before, or on, each slot edge,
    # long after the pole has settled.
    cfg = write_config(tmp_path, "demux.json", {
        **json.loads((_GOLDEN_CONFIGS / "readme-demux.json").read_text()), "train_offset_ns": offset,
    })
    assert run(["validate", "--config", cfg]) == 0
    assert run(["demux", "--config", cfg, "--output-dir", str(tmp_path / "out")]) == 0
    metrics = read_json(tmp_path / "out" / "metrics.json")
    assert round(metrics["average_probability"], 6) == 0.984262


@settings(deadline=None, max_examples=300)
@given(st.sampled_from(_CONFIG_MUTATIONS))
def test_mutated_configs_exit_cleanly_and_validate_agrees(mutation):
    # A config `validate` passes never fails the run with a config error, and
    # no mutation of a valid config ends in a traceback.  A renamed or added
    # key, at any depth, is a config error.
    argv, payload, (*head, last), value = mutation
    cfg = json.loads(json.dumps(payload))
    parent = cfg
    for key in head:
        parent = parent[key]
    unknown = value is _RENAME or (isinstance(parent, dict) and last not in parent)
    if value is _DROP:
        del parent[last]
    elif value is _RENAME:
        parent[last + last[-1]] = parent.pop(last)
    else:
        parent[last] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        checked = main(["validate", "--config", path, "--quiet"])
        ran = main([*argv, "--config", path, "--output-dir", os.path.join(tmp, "out"), "--quiet"])
    assert checked in (0, 2) and ran in (0, 1, 2)
    assert (checked == 0) == (ran != 2), (cfg, checked, ran)
    assert not unknown or checked == ran == 2, (cfg, checked, ran)

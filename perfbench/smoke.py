"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at its tiny size, traced and untraced, and checks the
output schema against BENCHMARK.json.  Then feeds every output check a
correct value, which must pass, and a perturbed one, which must fail.
Exits 0 when all of that holds.  Takes about two minutes, most of it in
the cold processes of ``cli-cold``.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

from common import ROOT, SRC, THREAD_ENV, CheckError

os.environ.update(THREAD_ENV)
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
MALFORMED_PER_ROUND = len(inputs.MALFORMED)
CLI_OPS_PER_ROUND = 15

failures: list[str] = []


def expect(ok: bool, message: str) -> None:
    if not ok:
        failures.append(message)
        print("FAIL", message, flush=True)


# ---------------------------------------------------------------- schema


def run_bench(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "5", "--seconds", "0", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=str(ROOT), capture_output=True, text=True, timeout=600)
    expect(proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_schema(workload: str, trace: int) -> None:
    result = run_bench(workload, trace)
    label = f"{workload} trace={trace}"
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: keys {sorted(result)}")
    expect(result["correct"] is True, f"{label}: correct is {result['correct']}")
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 1, f"{label}: attempted {result['attempted']}")
    if workload == "cli-cold":
        share = result["failed"] * CLI_OPS_PER_ROUND == result["attempted"] * MALFORMED_PER_ROUND
        expect(share, f"{label}: {result['failed']} of {result['attempted']} failed, not 6 per round of 15")
    else:
        expect(result["failed"] == 0, f"{label}: {result['failed']} failed")
    want = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    expect(set(got) == set(want), f"{label}: metrics {sorted(set(got) ^ set(want))} differ from BENCHMARK.json")
    for name, entry in got.items():
        value = entry["value"]
        expect(entry.get("unit") == want.get(name), f"{label}: {name} unit {entry.get('unit')}")
        expect(isinstance(value, float) and math.isfinite(value) and value > 0, f"{label}: {name} = {value!r}")
    print(f"ok   schema {label}: {len(got)} metrics, {result['failed']}/{result['attempted']} failed", flush=True)


# ---------------------------------------------------------------- perturbations


def passes_and_catches(name: str, check, good_args, bad_args) -> None:
    try:
        check(*good_args)
    except CheckError as exc:
        expect(False, f"{name}: correct value rejected: {exc}")
    try:
        check(*bad_args)
    except CheckError:
        print(f"ok   {name} catches a perturbed value", flush=True)
    else:
        expect(False, f"{name}: perturbed value accepted")


def bumped(array, index, delta):
    out = np.array(array, dtype=complex if np.iscomplexobj(array) else float)
    out[index] += delta
    return out


def perturbations(workdir) -> None:
    import lnoisim as lib
    import lnoisim.cli  # noqa: F401

    rng = np.random.default_rng(7)

    # demux: exact routing, row sums, metrics, manifest, byte identity
    leak, il = 0.01, 0.4
    cell = lib.MZIParams.with_bar_leakage(leak, lib.PhaseShifterParams(f_3db_ghz=math.inf), insertion_loss_db=il)
    trace = lib.simulate_demux([cell] * 3, lib.default_pulse_program(n_frames=5), lib.SourceModel(), 5)
    out = trace.outputs
    passes_and_catches("demux_exact_routing", checks.demux_exact_routing, (out, leak, il), (bumped(out, (3, 3), 1e-9), leak, il))
    passes_and_catches("demux_row_sums", checks.demux_row_sums, (out, il), (bumped(out, (2, 1), 1e-9), il))
    metrics = lib.switch_metrics(trace).to_json_dict()
    passes_and_catches(
        "demux_metrics", checks.demux_metrics, (metrics, out, 5),
        (dict(metrics, average_probability=metrics["average_probability"] + 1e-9), out, 5),
    )
    cfg = {"schema_version": 1, "experiment": "demux", "n_frames": 3, "bar_leakage": 0.01}
    path = Path(workdir) / "demux.json"
    path.write_text(json.dumps(cfg))
    dirs = [workdir / "a", workdir / "b"]
    for d in dirs:
        lnoisim.cli.main(["demux", "--config", str(path), "--output-dir", str(d), "--quiet"])
    checks.manifest_matches(dirs[0])
    checks.identical_dirs(dirs[0], dirs[1])
    (dirs[1] / "trace.csv").write_text((dirs[1] / "trace.csv").read_text().replace("0", "1", 1))
    passes_and_catches("manifest_matches", checks.manifest_matches, (dirs[0],), (dirs[1],))
    passes_and_catches("identical_dirs", checks.identical_dirs, (dirs[0], dirs[0]), (dirs[0], dirs[1]))

    # fringe
    x = 0.93
    shifter = lib.PhaseShifterParams()
    volts = np.linspace(0.0, 9.0, 41)
    phases = np.array([lib.phase_from_voltage(shifter, v) for v in volts])
    probs = lib.hom_fringe(lib.MZIParams.ideal(shifter), phases, x)
    passes_and_catches("ideal_fringe", checks.ideal_fringe, (phases, probs, x), (phases, bumped(probs, 7, 1e-9), x))
    passes_and_catches("fringe_phases", checks.fringe_phases, (volts, phases, 0.0, 9.0, 4.5), (volts, bumped(phases, 4, 1e-9), 0.0, 9.0, 4.5))
    visibility, _ = lib.fit_hom_visibility(phases, probs)
    passes_and_catches("fitted_visibility", checks.fitted_visibility, (visibility, x), (visibility + 2e-6, x))
    counts = rng.poisson(probs * 500).astype(float)
    v, se = lib.fit_hom_visibility(phases, counts, sigma=np.sqrt(np.maximum(counts, 1.0)))
    passes_and_catches("poisson_visibility", checks.poisson_visibility, (v, se, x), (x + 6 * se, se, x))
    passes_and_catches("poisson_counts", checks.poisson_counts, (counts,), (bumped(counts, 0, 0.5),))

    # calibration
    er, loss = 24.0, 0.8
    cal = lib.MZIParams.with_extinction(er, insertion_loss_db=loss)
    measured = lib.extinction_ratio_db(cal)
    passes_and_catches("extinction", checks.extinction, (measured, er), (measured + 1e-6, er))
    estimated = lib.estimate_mzi_loss_from_demux(*lib.demux_input_transmissions([cal] * 3))
    passes_and_catches("cell_loss", checks.cell_loss, (estimated, loss), (estimated + 1e-6, loss))

    # mesh
    u = inputs.haar(4, rng)
    config = lib.decompose(u)
    composed = lib.compose(config)
    checks.close("independent mesh product", checks.mesh_product(config.to_json_dict()), composed, atol=1e-12)
    passes_and_catches(
        "mesh_round_trip", checks.mesh_round_trip, (composed, u, config.phase_count),
        (bumped(composed, (1, 2), 1e-8), u, config.phase_count),
    )
    passes_and_catches("mesh_round_trip (phase count)", checks.mesh_round_trip, (composed, u, 10), (composed, u, 12))
    passes_and_catches("unitary", checks.unitary, ("U", u), ("U", bumped(u, (0, 0), 1e-9)))
    reduced, _ = lib.gauge_input_phases(config)
    program = lib.phases_to_voltages(reduced, shifter)
    want = {
        name: reduced.cells[idx].theta if role == "internal" else reduced.cells[idx].phi
        for name, (idx, role) in program.modulators.items()
    }
    volts_bad = dict(program.voltages)
    first = next(iter(volts_bad))
    volts_bad[first] += 1e-6
    passes_and_catches("voltages_realise_phases", checks.voltages_realise_phases, (program.voltages, want, 4.5), (volts_bad, want, 4.5))

    # photons and core
    dist = lib.two_photon_distribution(u, (1, 3), overlap=0.945)
    passes_and_catches(
        "two_photon", checks.two_photon, (dist.patterns, dist.probabilities, u, 1, 3, 0.945),
        (dist.patterns, bumped(dist.probabilities, 2, 1e-9), u, 1, 3, 0.945),
    )
    other = lib.two_photon_distribution(lib.compose(config, lib.MZIParams.with_extinction(22.0)), (1, 3), overlap=0.945)
    fid = lib.statistical_fidelity(dist.to_distribution(), other.to_distribution())
    passes_and_catches(
        "fidelity", checks.fidelity, (fid, dist.probabilities, other.probabilities),
        (fid - 1e-9, dist.probabilities, other.probabilities),
    )
    t8 = inputs.haar(8, rng)
    nd = lib.nphoton_collision_free_distribution(t8, [0, 1, 2])
    passes_and_catches(
        "nphoton", checks.nphoton, (nd.outcomes, nd.probabilities, t8, [0, 1, 2]),
        (nd.outcomes, bumped(nd.probabilities, 11, 1e-9), t8, [0, 1, 2]),
    )
    for n in (3, 5):
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        p = lib.permanent(m)
        passes_and_catches(f"permanent_small n={n}", checks.permanent_small, (p, m), (p * (1 + 1e-9), m))
    a, b = inputs.rank_one_factors(12, rng)
    p = lib.permanent(np.outer(a, b))
    passes_and_catches("permanent_rank_one", checks.permanent_rank_one, (p, a, b), (p * (1 + 1e-8), a, b))

    # reconstruction, against an independent canonical form
    checks.close("independent canonical form", checks.canonical(u), lib.canonical_form(u), atol=1e-12)
    checks.close("canonical form ignores conjugation", checks.canonical(u.conj()), checks.canonical(u), atol=1e-12)
    fit = lib.reconstruct_unitary(lib.synthesize_statistics(u, overlap=0.945), seed=3, overlap=0.945)
    passes_and_catches("reconstruction", checks.reconstruction, (fit.unitary, u), (bumped(fit.unitary, (2, 2), 1e-2), u))

    # budget
    budget_cfg = inputs.cli_configs(5)[-1][2]
    budget = lib.LossBudget(tuple(lib.BudgetEntry.from_json_dict(e) for e in budget_cfg["entries"]))
    wl = budget_cfg["sweep"]["wavelengths_nm"]
    swept = lib.sweep_wavelength(budget, lib.GratingSpectrum(), wl, budget_cfg["sweep"]["coupler_labels"])
    payload = {"total_db": budget.total_db, "end_to_end_transmission": budget.end_to_end_transmission}
    rows = np.column_stack([wl, swept])
    passes_and_catches("loss_budget", checks.loss_budget, (payload, rows, budget_cfg), (payload, bumped(rows, (1, 1), 1e-9), budget_cfg))
    passes_and_catches(
        "loss_budget (total)", checks.loss_budget, (payload, rows, budget_cfg),
        (dict(payload, total_db=payload["total_db"] + 1e-9), rows, budget_cfg),
    )


def main() -> int:
    workdir = ROOT / ".perfbench_runs" / f"smoke-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        perturbations(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    for workload in ("switching", "cli-cold"):
        for trace in (0, 1):
            check_schema(workload, trace)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

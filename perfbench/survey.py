"""The traced run: per-layer numbers from spans around the benchmark's own
calls into each module, plus the tracing overhead.

Whatever ``--workload`` names, a traced run reports every per-layer
metric.  It times a fresh ``import lnoisim.cli`` under ``-X importtime``,
then repeats cycles of: a round of ``switching`` traced and the same
round untraced, likewise for ``circuit``, then the fixed-size layer
probes; traced and untraced twins swap order from cycle to cycle.  The
``seconds`` of the run count from its start and cover all of that.  Only
the named workload's operations count as attempted; for ``cli-cold`` one
traced round of its processes runs first.  The overhead is the traced
rounds' operation time over the untraced twins'.
"""

from __future__ import annotations

import re
import time

import numpy as np

import checks
import cli_cold
import inputs
from circuit import Circuit
from common import Samples, Tracer, child_env, median, run_child
from switching import Switching

IMPORT_PROBES = 3
BUDGET_BATCH = 100
_IMPORT_LINE = re.compile(r"^import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S.*)$")


def import_probe(workdir) -> dict:
    """Fresh process: seconds to ``import lnoisim.cli``, and the cumulative
    import time of ``scipy.signal`` and ``scipy.optimize`` inside it (zero
    once the import no longer pulls them in)."""
    code = "import time; t = time.perf_counter(); import lnoisim.cli; print(time.perf_counter() - t)"
    _, proc = run_child(["-X", "importtime", "-c", code], child_env(workdir), workdir)
    if proc.returncode != 0:
        raise RuntimeError(f"import lnoisim.cli failed: {proc.stderr.strip()[-300:]}")
    modules = {"scipy.signal": "cli.import_scipy_signal_s", "scipy.optimize": "cli.import_scipy_optimize_s"}
    out = {"cli.import_s": float(proc.stdout.strip()), **{key: None for key in modules.values()}}
    for line in proc.stderr.splitlines():
        match = _IMPORT_LINE.match(line)
        key = modules.get(match.group(2).strip()) if match else None
        if key and out[key] is None:
            out[key] = int(match.group(1)) * 1e-6
    return {key: value or 0.0 for key, value in out.items()}


def budget_probe(lib, cfg, tr) -> None:
    budget = lib.LossBudget(tuple(lib.BudgetEntry.from_json_dict(e) for e in cfg["entries"]))
    grating = lib.GratingSpectrum()
    wavelengths = cfg["sweep"]["wavelengths_nm"]
    with tr.span("budget.sweep_wavelength", calls=BUDGET_BATCH):
        for _ in range(BUDGET_BATCH):
            swept = lib.sweep_wavelength(budget, grating, wavelengths, cfg["sweep"]["coupler_labels"])
    payload = {"total_db": budget.total_db, "end_to_end_transmission": budget.end_to_end_transmission}
    checks.loss_budget(payload, np.column_stack([wavelengths, swept]), cfg)


def run(workload: str, lib, seed: int, tiny: bool, seconds: float, workdir, samples: Samples) -> dict:
    start = time.perf_counter()
    tr = Tracer(True)
    imports = [import_probe(workdir) for _ in range(IMPORT_PROBES)]
    if workload == "cli-cold":
        cli_cold.CliCold(seed, workdir / "cli-cold").run_round(0, tr, samples)
    rounds = [Switching(lib, seed, tiny, workdir / "switching"), Circuit(lib, seed, tiny, workdir / "circuit")]
    probes = inputs.layer_probes(np.random.default_rng([seed, 4]), tiny)
    budget_cfg = inputs.cli_configs(seed)[-1][2]
    traced, untraced = Samples(), Samples()
    off = Tracer(False)
    r = 0
    while r < 1 or time.perf_counter() - start < seconds:
        twins = [(tr, traced), (off, untraced)]
        for w in rounds:
            for tracer, twin in twins if r % 2 == 0 else twins[::-1]:
                w.run_round(r, tracer, twin, count=w.name == workload)
        rounds[1].probe_layers(probes, tr)
        budget_probe(lib, budget_cfg, tr)
        r += 1
    for twin in (traced, untraced):
        samples.attempted += twin.attempted
        samples.failed += twin.failed
        samples.errors += twin.errors
        samples.wrong += twin.wrong
    return layer_metrics(tr, imports, traced, untraced)


def _own_ms(tr: Tracer, main: str, library: tuple[str, ...]) -> float:
    """Median over jobs of the ``main`` span minus the library spans of
    the same job, in ms."""
    whole = tr.durations_by_job(main)
    parts = [tr.durations_by_job(name) for name in library]
    return median(t - sum(p.get(job, 0.0) for p in parts) for job, t in whole.items()) * 1e3


def layer_metrics(tr: Tracer, imports, traced: Samples, untraced: Samples) -> dict:
    own = tr.self_times()

    def per_call(name, scale):
        return median(own[name]) * scale

    restarts = [(s["end"] - s["start"], s["restarts"]) for s in tr.spans if s["name"] == "reconstruct.reconstruct_unitary_6m"]
    op_time = {"traced": traced.total_time(), "untraced": untraced.total_time()}
    m = {key: (median(p[key] for p in imports), "s") for key in imports[0]}
    m.update({
        "cli.demux_own_ms": (
            _own_ms(tr, "cli.main.demux", ("router.default_pulse_program", "router.simulate_demux", "router.switch_metrics")),
            "ms",
        ),
        "cli.hom_fringe_own_ms": (_own_ms(tr, "cli.main.fringe", ("photons.hom_fringe", "photons.fit_hom_visibility")), "ms"),
        "components.mzi_transfer_us": (per_call("components.mzi_transfer", 1e6), "us"),
        "components.eom_response_ms": (per_call("components.eom_response", 1e3), "ms"),
        "components.extinction_ratio_db_ms": (per_call("components.extinction_ratio_db", 1e3), "ms"),
        "router.default_pulse_program_ms": (per_call("router.default_pulse_program", 1e3), "ms"),
        "router.simulate_demux_ms": (per_call("router.simulate_demux", 1e3), "ms"),
        "router.switch_metrics_ms": (per_call("router.switch_metrics", 1e3), "ms"),
        "photons.hom_fringe_ms": (per_call("photons.hom_fringe", 1e3), "ms"),
        "photons.fit_hom_visibility_ms": (per_call("photons.fit_hom_visibility", 1e3), "ms"),
        "photons.two_photon_distribution_us": (per_call("photons.two_photon_distribution", 1e6), "us"),
        "photons.nphoton_6in12_ms": (per_call("photons.nphoton_6in12", 1e3), "ms"),
        "mesh.decompose_4m_us": (per_call("mesh.decompose_4m", 1e6), "us"),
        "mesh.compose_ideal_4m_us": (per_call("mesh.compose_ideal_4m", 1e6), "us"),
        "mesh.compose_physical_4m_us": (per_call("mesh.compose_physical_4m", 1e6), "us"),
        "mesh.phases_to_voltages_us": (per_call("mesh.phases_to_voltages", 1e6), "us"),
        "mesh.decompose_64m_ms": (per_call("mesh.decompose_big", 1e3), "ms"),
        "mesh.compose_64m_ms": (per_call("mesh.compose_big", 1e3), "ms"),
        "reconstruct.synthesize_statistics_ms": (per_call("reconstruct.synthesize_statistics", 1e3), "ms"),
        "reconstruct.reconstruct_unitary_4m_s": (per_call("reconstruct.reconstruct_unitary_4m", 1.0), "s"),
        "reconstruct.reconstruct_unitary_6m_s": (per_call("reconstruct.reconstruct_unitary_6m", 1.0), "s"),
        "reconstruct.restart_6m_s": (median(t / n for t, n in restarts), "s"),
        "reconstruct.restarts_6m": (sum(n for _, n in restarts) / len(restarts), "count"),
        "core.permanent_n4_us": (per_call("core.permanent_n4", 1e6), "us"),
        "core.permanent_n12_ms": (per_call("core.permanent_n12", 1e3), "ms"),
        "core.permanent_n20_s": (per_call("core.permanent_job", 1.0), "s"),
        "budget.sweep_wavelength_ms": (per_call("budget.sweep_wavelength", 1e3), "ms"),
        "trace.overhead_ratio": (op_time["traced"] / op_time["untraced"], "ratio"),
    })
    return m

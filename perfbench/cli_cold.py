"""The ``cli-cold`` workload: every experiment as a fresh process.

Each round runs the seven README-sized experiments and ``validate`` as
``python -m lnoisim`` processes, one at a time, interleaved with six
malformed configs, and ends with one switch-cell calibration as a fresh
``calibrate.py`` process.  About 1.1 s of each process is ``import
lnoisim.cli``, so this workload measures start-up, config handling and
artifact writing and barely touches a kernel.  A run makes at least
``MIN_ROUNDS`` rounds, so that two processes given the same config can be
compared byte for byte.
"""

from __future__ import annotations

import json

import numpy as np

import checks
import inputs
from common import BENCH_DIR, CheckError, Samples, child_env, run_child, write_json

MIN_ROUNDS = 2


class CliCold:
    name = "cli-cold"

    def __init__(self, seed: int, workdir):
        self.workdir = workdir
        self.env = child_env(workdir)
        self.good = []
        for command, name, cfg in inputs.cli_configs(seed):
            self.good.append((command, name, cfg, write_json(workdir / "cfg" / f"{name}.json", cfg)))
        self.bad = [
            (command, name, write_json(workdir / "cfg" / f"{name}.json", cfg))
            for command, name, cfg in inputs.MALFORMED
        ]
        self.cell = inputs.cli_cell(seed)

    def cold_start(self) -> float:
        """Wall time of one fresh ``python -m lnoisim --version``."""
        seconds, proc = run_child(["-m", "lnoisim", "--version"], self.env, self.workdir)
        if proc.returncode != 0 or "lnoisim" not in proc.stdout:
            raise RuntimeError(f"lnoisim --version exited {proc.returncode}: {proc.stderr.strip()}")
        return seconds

    def schedule(self):
        """Well-formed and malformed processes alternate; validate and the
        calibration end it."""
        order = []
        for idx, good in enumerate(self.good):
            order.append(("good", good))
            if idx < len(self.bad):
                order.append(("bad", self.bad[idx]))
        return order + [("validate", self.good[0]), ("calibration", (self.cell, "calibration"))]

    def run_round(self, r: int, tr, samples: Samples) -> None:
        samples.round = r
        for kind, item in self.schedule():
            try:
                getattr(self, "run_" + kind)(r, item, tr, samples)
            except CheckError as exc:
                samples.wrong.append(f"round {r} {kind} {item[1]}: {exc}")

    def _process(self, tr, name, args):
        with tr.job(f"process.{name}"):
            with tr.span(f"cli.process.{name}"):
                return run_child(["-m", "lnoisim", *args], self.env, self.workdir)

    def run_good(self, r, item, tr, samples):
        command, name, cfg, path = item
        out = self.workdir / f"r{r}" / name
        seconds, proc = self._process(tr, name, [*command, "--config", path, "--output-dir", str(out), "--quiet"])
        ok = proc.returncode == 0 and (out / "manifest.json").is_file()
        samples.op(ok, f"round {r} {name}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        if not ok:
            return
        samples.add("cli_run", seconds)
        samples.add(name, seconds)
        checks.manifest_matches(out)
        getattr(self, "check_" + name.replace("-", "_"))(cfg, out)
        if r > 0:
            checks.identical_dirs(self.workdir / "r0" / name, out)

    def run_bad(self, r, item, tr, samples):
        """A malformed config passes once it exits 2 with ``config error:``
        lines and no traceback."""
        command, name, path = item
        out = self.workdir / f"r{r}" / name
        _, proc = self._process(tr, name, [*command, "--config", path, "--output-dir", str(out), "--quiet"])
        ok = proc.returncode == 2 and "config error:" in proc.stderr and "Traceback" not in proc.stderr
        last = proc.stderr.strip().splitlines()[-1:] or [""]
        samples.op(ok, f"round {r} malformed {name}: exit {proc.returncode}: {last[0]}")

    def run_validate(self, r, item, tr, samples):
        _, name, _, path = item
        _, proc = self._process(tr, "validate", ["validate", "--config", path])
        ok = proc.returncode == 0
        samples.op(ok, f"round {r} validate {name}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        if ok and proc.stdout.strip() != f"config ok: {name}":
            raise CheckError(f"validate printed {proc.stdout.strip()!r}")

    def run_calibration(self, r, item, tr, samples):
        (er, il), _ = item
        with tr.job("process.calibration"):
            with tr.span("cli.process.calibration"):
                seconds, proc = run_child([str(BENCH_DIR / "calibrate.py"), repr(er), repr(il)], self.env, self.workdir)
        ok = proc.returncode == 0
        samples.op(ok, f"round {r} calibration: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        if not ok:
            return
        samples.add("calibration", seconds)
        measured = json.loads(proc.stdout.strip().splitlines()[-1])
        checks.extinction(measured["extinction_db"], er)
        checks.cell_loss(measured["cell_loss_db"], il)

    # ------------------------------------------------------------ checks

    @staticmethod
    def check_hom_fringe(cfg, out):
        rows = checks.read_csv(out / "fringe.csv")
        checks.fringe_phases(rows[:, 0], rows[:, 1], cfg["voltage_start"], cfg["voltage_stop"], 4.5)
        checks.poisson_counts(rows[:, 2])
        fit = json.loads((out / "fit.json").read_text())
        checks.poisson_visibility(fit["visibility"], fit["stderr"], cfg["overlap"])

    @staticmethod
    def check_demux(cfg, out):
        outputs = checks.read_csv(out / "trace.csv")[:, 1:]
        checks.demux_row_sums(outputs, 0.0)
        checks.demux_metrics(json.loads((out / "metrics.json").read_text()), outputs, cfg["n_frames"])

    @staticmethod
    def check_distribution(cfg, out):
        data = json.loads((out / "distribution.json").read_text())
        u = np.array(cfg["unitary"]["re"]) + 1j * np.array(cfg["unitary"]["im"])
        patterns = [tuple(o["pattern"]) for o in data["outputs"]]
        probs = np.array([o["p"] for o in data["outputs"]])
        checks.two_photon(patterns, probs, u, *cfg["input_modes"], cfg["overlap"])

    @staticmethod
    def check_mesh_decompose(cfg, out):
        u = np.array(cfg["unitary"]["re"]) + 1j * np.array(cfg["unitary"]["im"])
        mesh = json.loads((out / "mesh.json").read_text())
        report = json.loads((out / "report.json").read_text())
        checks.mesh_round_trip(checks.mesh_product(mesh), u, report["phase_count"])

    @staticmethod
    def check_mesh_compose(cfg, out):
        data = json.loads((out / "unitary.json").read_text())
        u = np.array(data["re"]) + 1j * np.array(data["im"])
        checks.close("composed mesh", u, checks.mesh_product(cfg["mesh"]), atol=1e-12)
        checks.unitary("composed mesh", u)

    @staticmethod
    def check_reconstruct(cfg, out):
        data = json.loads((out / "reconstructed.json").read_text())
        truth = np.array(cfg["unitary"]["re"]) + 1j * np.array(cfg["unitary"]["im"])
        checks.reconstruction(np.array(data["re"]) + 1j * np.array(data["im"]), truth)

    @staticmethod
    def check_loss_budget(cfg, out):
        payload = json.loads((out / "budget.json").read_text())
        checks.loss_budget(payload, checks.read_csv(out / "sweep.csv"), cfg)

    def metrics(self, samples) -> dict:
        """Every end-to-end metric but the two ``run.py`` adds, each from
        fresh processes: the median over the run's processes of a kind."""
        cfg = {name: cfg for _, name, cfg, _ in self.good}
        return {
            "cli_run_s": (samples.job_median("cli_run"), "s"),
            "frames_per_s": (cfg["demux"]["n_frames"] / samples.job_median("demux"), "1/s"),
            "fringe_points_per_s": (cfg["hom-fringe"]["n_points"] / samples.job_median("hom-fringe"), "1/s"),
            "calibrations_per_s": (1.0 / samples.job_median("calibration"), "1/s"),
        }

"""The ``switching`` workload: fast-switch routing and calibration.

Each round interleaves six 1000-frame ``demux`` trains over a spread of
switch settings, four 1001-point ``hom-fringe`` sweeps (two noise-free,
two Poisson) and six switch-cell calibrations.  The trains and sweeps run as
in-process ``lnoisim.cli.main`` calls; the calibrations call the library.
Nearly all the work is in ``components``, ``router`` and ``photons``.

With tracing on, each CLI job is followed by the library calls its runner
makes, on the same config, so that the CLI's own share (validation,
CSV/JSON, writes) is the ``main`` span minus those library spans.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np

import checks
import inputs
from common import CheckError, RoundWorkload, interleave, write_json

V_PI = 4.5
PERIOD_NS = 13.8
MZI_BATCH = 1200


class Switching(RoundWorkload):
    name = "switching"

    def __init__(self, lib, seed: int, tiny: bool, workdir):
        self.lib = lib
        self.workdir = workdir
        self.rounds = []
        self.n_frames = 20 if tiny else 1000
        self.n_points = 41 if tiny else 1001
        for r, rd in enumerate(inputs.pool("switching", seed, tiny)):
            rd["demux_paths"] = [
                write_json(workdir / "cfg" / f"r{r}-demux{i}.json", cfg) for i, cfg in enumerate(rd["demux"])
            ]
            rd["fringe_paths"] = [
                write_json(workdir / "cfg" / f"r{r}-fringe{i}.json", cfg) for i, cfg in enumerate(rd["fringe"])
            ]
            self.rounds.append(rd)

    def schedule(self, rd):
        """Job kinds interleaved so every metric samples the same stretch."""
        return interleave(
            [("demux", i) for i in range(len(rd["demux"]))],
            [("fringe", i) for i in range(len(rd["fringe"]))],
            [("calibration", i) for i in range(len(rd["cells"]))],
        )

    # ------------------------------------------------------------ jobs

    def _main(self, tr, kind, argv, samples, replay):
        """Time one in-process CLI run; traced, follow it in the same job
        with the library calls its runner makes."""
        replayed = None
        with tr.job(kind):
            t0 = time.perf_counter()
            with tr.span(f"cli.main.{kind}"):
                code = self.lib.cli.main(argv)
            seconds = time.perf_counter() - t0
            if tr.enabled:
                replayed = replay()
        if code != 0:
            raise RuntimeError(f"lnoisim {argv[0]} exited {code}")
        samples.add(kind, seconds)
        samples.add("cli_run", seconds)
        return replayed

    def demux(self, rd, i, tr, samples):
        cfg, path = rd["demux"][i], rd["demux_paths"][i]
        out = self.workdir / f"demux{i}"
        argv = ["demux", "--config", path, "--output-dir", str(out), "--quiet"]
        replayed = self._main(tr, "demux", argv, samples, lambda: self._replay_demux(cfg, tr))
        checks.manifest_matches(out)
        rows = checks.read_csv(out / "trace.csv")
        outputs = rows[:, 1:]
        il = cfg["insertion_loss_db"]
        checks.demux_row_sums(outputs, il)
        checks.demux_metrics(json.loads((out / "metrics.json").read_text()), outputs, cfg["n_frames"])
        errors = cfg.get("phase_errors_rad", [0.0, 0.0, 0.0])
        if cfg["f_3db_ghz"] is None and not any(errors):
            leak = cfg.get("bar_leakage")
            if leak is None:
                leak = 1.0 / (1.0 + 10.0 ** (cfg["extinction_db"] / 10.0))
            checks.demux_exact_routing(outputs, leak, il)
        if replayed is not None:
            trace, shifter, cell = replayed
            if not np.array_equal(trace.outputs, outputs):
                raise CheckError("library calls on the demux config do not reproduce trace.csv")
            self._probe_components(tr, shifter, cell, cfg["n_frames"])

    def _replay_demux(self, cfg, tr):
        lib = self.lib
        f3db = cfg["f_3db_ghz"]
        shifter = lib.PhaseShifterParams(v_pi_volts=V_PI, f_3db_ghz=math.inf if f3db is None else f3db)
        il = cfg["insertion_loss_db"]
        if "extinction_db" in cfg:
            cell = lib.MZIParams.with_extinction(cfg["extinction_db"], shifter, insertion_loss_db=il)
        elif "bar_leakage" in cfg:
            cell = lib.MZIParams.with_bar_leakage(cfg["bar_leakage"], shifter, insertion_loss_db=il)
        else:
            cell = lib.MZIParams(shifter=shifter, insertion_loss_db=il)
        n = cfg["n_frames"]
        program = tr.call(
            "router.default_pulse_program", lib.default_pulse_program,
            repetition_period_ns=PERIOD_NS, v_pi_volts=V_PI, n_frames=n, samples_per_slot=256,
        )
        trace = tr.call(
            "router.simulate_demux", lib.simulate_demux, [cell] * 3, program,
            lib.SourceModel(repetition_period_ns=PERIOD_NS), n,
            train_offset_ns=0.0, phase_errors_rad=cfg.get("phase_errors_rad", [0.0, 0.0, 0.0]),
        )
        tr.call("router.switch_metrics", lib.switch_metrics, trace)
        return trace, shifter, cell

    def _probe_components(self, tr, shifter, cell, n_frames):
        """The switch kernels the demux runner calls, timed on their own."""
        lib = self.lib
        if math.isfinite(shifter.f_3db_ghz):
            program = lib.default_pulse_program(
                repetition_period_ns=PERIOD_NS, v_pi_volts=V_PI, n_frames=n_frames, samples_per_slot=256
            )
            tr.call("components.eom_response", lib.eom_response, shifter, program.channels["A"], program.sample_rate_ghz)
        phases = np.linspace(0.0, math.pi, MZI_BATCH)
        with tr.span("components.mzi_transfer", calls=MZI_BATCH):
            for phase in phases:
                lib.mzi_transfer(cell, phase)

    def fringe(self, rd, i, tr, samples):
        cfg, path = rd["fringe"][i], rd["fringe_paths"][i]
        out = self.workdir / f"fringe{i}"
        argv = ["hom-fringe", "--config", path, "--output-dir", str(out), "--quiet"]
        self._main(tr, "fringe", argv, samples, lambda: self._replay_fringe(cfg, tr))
        checks.manifest_matches(out)
        rows = checks.read_csv(out / "fringe.csv")
        volts, phases, values = rows[:, 0], rows[:, 1], rows[:, 2]
        fit = json.loads((out / "fit.json").read_text())
        if len(rows) != cfg["n_points"] or fit["n_points"] != cfg["n_points"]:
            raise CheckError(f"fringe wrote {len(rows)} points, asked {cfg['n_points']}")
        checks.fringe_phases(volts, phases, cfg["voltage_start"], cfg["voltage_stop"], V_PI)
        x = cfg["overlap"]
        if "poisson_mean_counts" in cfg:
            checks.poisson_counts(values)
            if not (math.isfinite(fit["stderr"]) and fit["stderr"] > 0):
                raise CheckError(f"Poisson fit stderr {fit['stderr']!r} is not a positive number")
        else:
            checks.ideal_fringe(phases, values, x)
            checks.fitted_visibility(fit["visibility"], x)

    def _replay_fringe(self, cfg, tr):
        lib = self.lib
        shifter = lib.PhaseShifterParams(v_pi_volts=V_PI)
        cell = lib.MZIParams.ideal(shifter)
        volts = np.linspace(cfg["voltage_start"], cfg["voltage_stop"], cfg["n_points"])
        phases = np.array([lib.phase_from_voltage(shifter, v) for v in volts])
        probs = tr.call("photons.hom_fringe", lib.hom_fringe, cell, phases, cfg["overlap"], 0.0)
        sigma = None
        values = probs
        if "poisson_mean_counts" in cfg:
            values = np.random.default_rng(cfg["seed"]).poisson(probs * cfg["poisson_mean_counts"]).astype(float)
            sigma = np.sqrt(np.maximum(values, 1.0))
        tr.call("photons.fit_hom_visibility", lib.fit_hom_visibility, phases, values, sigma=sigma)

    def calibration(self, rd, i, tr, samples):
        lib = self.lib
        er, il = rd["cells"][i]
        with tr.job("calibration"):
            t0 = time.perf_counter()
            cell = lib.MZIParams.with_extinction(er, insertion_loss_db=il)
            measured_er = tr.call("components.extinction_ratio_db", lib.extinction_ratio_db, cell)
            tx, external, internal = tr.call("router.demux_input_transmissions", lib.demux_input_transmissions, [cell] * 3)
            loss = tr.call(
                "components.estimate_mzi_loss_from_demux", lib.estimate_mzi_loss_from_demux, tx, external, internal
            )
            seconds = time.perf_counter() - t0
        samples.add("calibration", seconds)
        checks.extinction(measured_er, er)
        checks.cell_loss(loss, il)

    # ------------------------------------------------------------ metrics

    def metrics(self, samples) -> dict:
        """Rates from each kind's mean job time per round, median over
        rounds.  Every round holds two noise-free and two Poisson sweeps.
        ``cli_run_s`` is the mean over a round's in-process CLI runs,
        its six trains and four sweeps alike."""
        return {
            "cli_run_s": (samples.round_mean("cli_run"), "s"),
            "frames_per_s": (self.n_frames / samples.round_mean("demux"), "1/s"),
            "fringe_points_per_s": (self.n_points / samples.round_mean("fringe"), "1/s"),
            "calibrations_per_s": (1.0 / samples.round_mean("calibration"), "1/s"),
        }

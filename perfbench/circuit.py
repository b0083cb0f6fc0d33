"""Circuit rounds: reprogramming and characterising the mesh.

Each round interleaves twenty four-mode reprogramming jobs, six 4-mode and
three 6-mode reconstructions, two sets of n-photon distributions (3 to 6
photons in 8 to 12 modes) and one order-20 permanent, all through the
library.  The work is in ``mesh``, ``photons``, ``reconstruct`` and
``core``; ``router`` and the switch kernels stay idle.

The rounds run in the traced run only, for the per-layer metrics of those
modules.  As an end-to-end workload of their own, their timings did not
repeat within the benchmark's bounds on a shared machine (README.md).
"""

from __future__ import annotations

import itertools
import time

import numpy as np

import checks
import inputs
from common import RoundWorkload, interleave

V_PI = 4.5
N4_BATCH = 200
N12_BATCH = 3


class Circuit(RoundWorkload):
    name = "circuit"

    def __init__(self, lib, seed: int, tiny: bool, workdir):
        self.lib = lib
        self.rounds = inputs.pool("circuit", seed, tiny)
        self.shifter = lib.PhaseShifterParams(v_pi_volts=V_PI)
        self.pairs = list(itertools.combinations(range(4), 2))

    def schedule(self, rd):
        """Job kinds interleaved so every metric samples the same stretch."""
        sizes = [len(u) for u in rd["reconstruct"]]
        return interleave(
            [("program", i) for i in range(len(rd["programs"]))],
            [("reconstruct", i) for i, n in enumerate(sizes) if n == 4],
            [("reconstruct", i) for i, n in enumerate(sizes) if n == 6],
            [("nphoton", i) for i in range(len(rd["nphoton"]))],
            [("permanent", 0)],
        )

    # ------------------------------------------------------------ jobs

    def program(self, rd, i, tr, samples):
        """decompose -> gauge -> voltages -> physical compose -> two-photon
        statistics of all six input pairs -> fidelity to the ideal circuit."""
        lib, u = self.lib, rd["programs"][i]
        cell = lib.MZIParams.with_extinction(rd["extinction_db"], self.shifter)
        with tr.job("program"):
            t0 = time.perf_counter()
            config = tr.call("mesh.decompose_4m", lib.decompose, u)
            reduced, input_phases = tr.call("mesh.gauge_input_phases", lib.gauge_input_phases, config)
            program = tr.call("mesh.phases_to_voltages", lib.phases_to_voltages, reduced, self.shifter)
            physical = tr.call("mesh.compose_physical_4m", lib.compose, reduced, cell)
            results = []
            for pair in self.pairs:
                real = tr.call("photons.two_photon_distribution", lib.two_photon_distribution, physical, pair, overlap=inputs.OVERLAP)
                ideal = tr.call("photons.two_photon_distribution", lib.two_photon_distribution, u, pair, overlap=inputs.OVERLAP)
                fid = tr.call("core.statistical_fidelity", lib.statistical_fidelity, ideal.to_distribution(), real.to_distribution())
                results.append((pair, real, ideal, fid))
            seconds = time.perf_counter() - t0
        samples.add("program", seconds)

        composed = tr.call("mesh.compose_ideal_4m", lib.compose, config)
        checks.mesh_round_trip(composed, u, config.phase_count)
        gauged = checks.mesh_product(reduced.to_json_dict()) * np.exp(1j * input_phases)[None, :]
        checks.close("gauged mesh times input phases", gauged, u, atol=1e-9)
        phases = {
            name: reduced.cells[idx].theta if role == "internal" else reduced.cells[idx].phi
            for name, (idx, role) in program.modulators.items()
        }
        checks.voltages_realise_phases(program.voltages, phases, V_PI)
        checks.unitary("finite-extinction mesh", physical)
        for (k, l), real, ideal, fid in results:
            checks.two_photon(real.patterns, real.probabilities, physical, k, l, inputs.OVERLAP)
            checks.two_photon(ideal.patterns, ideal.probabilities, u, k, l, inputs.OVERLAP)
            checks.fidelity(fid, ideal.probabilities, real.probabilities)

    def reconstruct(self, rd, i, tr, samples):
        lib, u = self.lib, rd["reconstruct"][i]
        n = len(u)
        with tr.job(f"reconstruct{n}"):
            t0 = time.perf_counter()
            stats = tr.call("reconstruct.synthesize_statistics", lib.synthesize_statistics, u, overlap=inputs.OVERLAP)
            with tr.span(f"reconstruct.reconstruct_unitary_{n}m") as span:
                result = lib.reconstruct_unitary(stats, seed=rd["restart_seed"] + i, overlap=inputs.OVERLAP)
            seconds = time.perf_counter() - t0
        if span is not None:
            span["restarts"] = result.n_restarts_used
        samples.add(f"reconstruct{n}", seconds)
        checks.reconstruction(result.unitary, u)

    def nphoton(self, rd, i, tr, samples):
        lib = self.lib
        with tr.job("nphoton"):
            t0 = time.perf_counter()
            dists = [
                tr.call(f"photons.nphoton_{len(modes)}in{len(t)}", lib.nphoton_collision_free_distribution, t, modes)
                for t, modes in rd["nphoton"][i]
            ]
            seconds = time.perf_counter() - t0
        samples.add("nphoton", seconds)
        for (t, modes), dist in zip(rd["nphoton"][i], dists):
            checks.nphoton(dist.outcomes, dist.probabilities, t, modes, check_every=1 if len(modes) <= 4 else 7)

    def permanent(self, rd, i, tr, samples):
        lib = self.lib
        a, b = rd["perm_rank_one"]
        with tr.job("permanent"):
            t0 = time.perf_counter()
            value = tr.call("core.permanent_job", lib.permanent, np.outer(a, b))
            seconds = time.perf_counter() - t0
        samples.add("permanent", seconds)
        checks.permanent_rank_one(value, a, b)
        for m in rd["perm_small"]:
            checks.permanent_small(lib.permanent(m), m)

    # ------------------------------------------------------------ probes

    def probe_layers(self, probes, tr):
        """Traced only: the fixed-size kernels no job of a round covers."""
        lib = self.lib
        big = probes["mesh_big"]
        config = tr.call("mesh.decompose_big", lib.decompose, big)
        composed = tr.call("mesh.compose_big", lib.compose, config)
        checks.mesh_round_trip(composed, big, config.phase_count)
        m4 = probes["perm_n4"]
        with tr.span("core.permanent_n4", calls=N4_BATCH):
            for _ in range(N4_BATCH):
                value = lib.permanent(m4)
        checks.permanent_small(value, m4)
        a, b = probes["perm_n12"]
        m12 = np.outer(a, b)
        with tr.span("core.permanent_n12", calls=N12_BATCH):
            for _ in range(N12_BATCH):
                value = lib.permanent(m12)
        checks.permanent_rank_one(value, a, b)
        t, modes = probes["nphoton_6in12"]
        dist = tr.call("photons.nphoton_6in12", lib.nphoton_collision_free_distribution, t, modes)
        checks.nphoton(dist.outcomes, dist.probabilities, t, modes, check_every=7)

"""Benchmark of lnoisim, end to end and module by module.

    python3 perfbench/run.py --workload {cli-cold,switching} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from its
``src/``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it records the machine-speed reference loop at the start and
the end of the run.  See README.md in this directory.
"""

from __future__ import annotations

import os
import sys

from common import THREAD_ENV

# Before anything imports numpy, so the in-process program sees them too.
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import time  # noqa: E402

import cli_cold  # noqa: E402
import survey  # noqa: E402
from common import (  # noqa: E402
    BENCH_DIR, RUNS_DIR, SRC, Samples, Tracer, child_env, machine_reference, median,
    program_present, run_child,
)
from switching import Switching  # noqa: E402

WORKLOADS = ("cli-cold", "switching")
SETUP_SAMPLES = 3


def import_program():
    """lnoisim from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    import lnoisim
    import lnoisim.cli  # noqa: F401

    if not os.path.realpath(lnoisim.__file__).startswith(os.path.realpath(SRC) + os.sep):
        raise RuntimeError(f"imported lnoisim from {lnoisim.__file__}, not from {SRC}")
    return lnoisim


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def setup_probe(seed: int, tiny: bool, workdir, k: int) -> float:
    """Wall time from a fresh process to the first job ready: ``import
    lnoisim.cli`` plus building the ``switching`` inputs."""
    probe_dir = workdir / f"setup{k}"
    args = [str(BENCH_DIR / "setup_probe.py"), str(seed), str(int(tiny)), str(probe_dir)]
    seconds, proc = run_child(args, child_env(workdir), workdir)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
    shutil.rmtree(probe_dir, ignore_errors=True)
    return seconds


def run_rounds(workload, seconds: float, min_rounds: int, samples: Samples, setup) -> float:
    """Whole rounds until ``seconds`` have passed.  The set-up samples are
    spread over the run, so one slow stretch of the machine does not set
    their median."""
    off = Tracer(False)
    setups = [setup(0)]
    start = time.perf_counter()
    r = 0
    while r < min_rounds or time.perf_counter() - start < seconds:
        workload.run_round(r, off, samples)
        r += 1
        if len(setups) < SETUP_SAMPLES - 1 and time.perf_counter() - start >= seconds * len(setups) / (SETUP_SAMPLES - 1):
            setups.append(setup(len(setups)))
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup(len(setups)))
    return median(setups)


def run_untraced(args, workdir, samples: Samples) -> dict:
    if args.workload == "cli-cold":
        workload = cli_cold.CliCold(args.seed, workdir)
        setup = run_rounds(workload, args.seconds, cli_cold.MIN_ROUNDS, samples, lambda k: workload.cold_start())
    else:
        lib = import_program()
        workload = Switching(lib, args.seed, args.tiny, workdir)
        setup = run_rounds(
            workload, args.seconds, 1, samples,
            lambda k: setup_probe(args.seed, args.tiny, workdir, k),
        )
    metrics = workload.metrics(samples)
    metrics["setup_s"] = (setup, "s")
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    return metrics


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measurement window per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest inputs, for the smoke test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not program_present():
        print(f"error: no lnoisim package under {SRC}", file=sys.stderr)
        return 2
    workdir = RUNS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    samples = Samples()
    try:
        reference_start = machine_reference()
        if args.trace:
            metrics = survey.run(args.workload, import_program(), args.seed, args.tiny, args.seconds, workdir, samples)
        else:
            metrics = run_untraced(args, workdir, samples)
        reference_end = machine_reference()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            RUNS_DIR.rmdir()
        except OSError:
            pass
    for line in samples.errors + samples.wrong:
        print(line, file=sys.stderr)
    print(json.dumps({"machine_reference": {"start": reference_start, "end": reference_end}}))
    print(json.dumps({
        "correct": not samples.wrong,
        "attempted": samples.attempted,
        "failed": samples.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

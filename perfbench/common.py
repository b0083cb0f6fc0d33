"""Shared pieces of the benchmark: paths, child-process environment, spans,
statistics and the machine-speed reference loop.

Nothing here imports the program under test; ``run.py`` sets the thread
environment before anything imports numpy.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNS_DIR = ROOT / ".perfbench_runs"

#: One BLAS/OpenMP thread per process: with the default, OpenBLAS workers
#: spin on both cores and a job burns twice its wall time in CPU.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

#: Longest a single program process may take before it is killed.
CHILD_TIMEOUT_S = 120.0


class CheckError(AssertionError):
    """An output of the program disagrees with the benchmark's own check."""


def program_present() -> bool:
    return (SRC / "lnoisim" / "__init__.py").is_file()


def child_env(tmpdir: Path) -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(tmpdir)
    return env


def run_child(args, env, cwd) -> tuple[float, subprocess.CompletedProcess]:
    """Run one process to its end; return (wall seconds, completed process)."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *args],
        env=env,
        cwd=str(cwd),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    return time.perf_counter() - t0, proc


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_json(path: Path, obj) -> str:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
    return str(path)


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("no samples")
    return float(statistics.median(values))


def machine_reference() -> dict:
    """Fixed CPU work timed on this machine: a pure-Python loop and a
    complex matrix product.  Printed beside the result, never a metric, so
    a slow stretch of the machine can be told apart from slow code."""
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    t1 = time.perf_counter()
    a = np.exp(1e-3j * np.arange(160 * 160)).reshape(160, 160)
    for _ in range(20):
        a @ a
    t2 = time.perf_counter()
    return {"python_loop_s": t1 - t0, "complex_matmul_s": t2 - t1}


class Tracer:
    """Spans around the benchmark's own calls into the program.

    A span records its name, job id, parent span, start and end.  Spans
    stay in memory until the run ends.  With ``enabled`` false every call
    goes straight to the function and nothing is recorded.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._job = None
        self._next_job = 0

    @contextmanager
    def span(self, name: str, calls: int = 1, **attrs):
        """Yield the span's record, or None when tracing is off."""
        if not self.enabled:
            yield None
            return
        sid = len(self.spans)
        record = {
            "id": sid,
            "name": name,
            "job": self._job,
            "parent": self._stack[-1] if self._stack else None,
            "calls": calls,
            **attrs,
        }
        self.spans.append(record)
        self._stack.append(sid)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def job(self, kind: str):
        """Group the spans of one operation under a fresh job id."""
        if not self.enabled:
            yield
            return
        outer = self._job
        self._job = self._next_job
        self._next_job += 1
        try:
            with self.span(f"job.{kind}"):
                yield
        finally:
            self._job = outer

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)

    def self_times(self) -> dict[str, list[float]]:
        """Per span name, each span's self time per call: its duration
        minus the time its direct children cover, divided by ``calls``."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: dict[str, list[float]] = {}
        for s in self.spans:
            own = (s["end"] - s["start"] - child_time[s["id"]]) / s["calls"]
            out.setdefault(s["name"], []).append(own)
        return out

    def durations_by_job(self, name: str) -> dict[int, float]:
        """Summed duration of the spans called ``name``, per job id."""
        out: dict[int, float] = {}
        for s in self.spans:
            if s["name"] == name:
                out[s["job"]] = out.get(s["job"], 0.0) + s["end"] - s["start"]
        return out


def interleave(*queues: list) -> list:
    """Merge the queues so that each is spread evenly over the result: the
    k-th of n items sits at (k + 0.5) / n of the way through."""
    slots = [((k + 0.5) / len(q), j, item) for j, q in enumerate(queues) for k, item in enumerate(q)]
    return [item for _, _, item in sorted(slots, key=lambda s: s[:2])]


class RoundWorkload:
    """An in-process workload: ``rounds`` of seeded inputs and a
    ``schedule(round)`` of (job kind, index) pairs, each job a method."""

    rounds: list[dict]

    def run_round(self, r: int, tr: Tracer, samples: "Samples", count: bool = True) -> None:
        rd = self.rounds[r % len(self.rounds)]
        samples.round = r
        for kind, i in self.schedule(rd):
            ok, message = True, ""
            try:
                getattr(self, kind)(rd, i, tr, samples)
            except CheckError as exc:
                samples.wrong.append(f"round {r} {kind} {i}: {exc}")
            except Exception as exc:  # a crashing job is a failed operation
                ok, message = False, f"round {r} {kind} {i}: {type(exc).__name__}: {exc}"
            if count:
                samples.op(ok, message)


class Samples:
    """Wall times of a workload's operations, by kind and round, and its
    operation counts.  ``errors`` names failed operations, ``wrong`` failed
    output checks."""

    def __init__(self):
        self.times: dict[str, dict[int, list[float]]] = {}
        self.round = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.wrong: list[str] = []

    def add(self, kind: str, seconds: float) -> None:
        self.times.setdefault(kind, {}).setdefault(self.round, []).append(seconds)

    def round_mean(self, kind: str) -> float:
        """Median over rounds of the round's mean job time of one kind.

        For jobs whose work is fixed.  The machine flips between a fast and
        a ~1.4x slower state several times a second.  A median over single
        short jobs jumps between the two states; a round's mean follows the
        share of time spent in each.
        """
        return median(sum(t) / len(t) for t in self.times[kind].values())

    def job_median(self, kind: str) -> float:
        """Median over all jobs of one kind.  For jobs whose work depends on
        the input, such as a ``cli-cold`` reconstruction whose target needs
        a second restart: a round's mean would follow its slowest job."""
        return median(t for rounds in self.times[kind].values() for t in rounds)

    def total_time(self) -> float:
        return sum(sum(t) for rounds in self.times.values() for t in rounds.values())

    def op(self, ok: bool, message: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if message:
                self.errors.append(message)

"""Closed-loop measurement of one workload: one caller, one process, one
thread.  Each op's input is made before its timer starts and its answer is
checked against the generator's ground truth after the timer stops.

An untraced run reports the end-to-end metrics.  A traced run sets up once
under the tracer, runs ops untraced for half the time, then runs the same
inputs again traced; it reports the per-layer metrics, the tracing overhead
between the two passes, and counts any answer that differs between them as
a failure.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

import hostref
import spans
import workloads as wl

ROOT = Path(__file__).resolve().parents[1]
# set up at least SETUP_REPS times and for at least SETUP_MIN_S seconds;
# setup_s is the median
SETUP_REPS = 3
SETUP_MIN_S = 2.0
P90_MIN_OPS = 100  # the p90 needs ten samples beyond it
REF_WINDOW = 3

END_TO_END_UNITS = {
    "latency_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


@dataclass
class Ops:
    latencies: list[float] = field(default_factory=list)
    cpu: list[float] = field(default_factory=list)
    answers: list = field(default_factory=list)
    failed: int = 0

    def run(self, workload, j, gens, degree, expected, tracer=None):
        t0, c0 = perf_counter(), process_time()
        try:
            if tracer is None:
                answer = workload.op(gens, degree)
            else:
                answer = tracer.run_op(j, workload.op, gens, degree)
        except Exception:
            # an op that raises is counted as failed; the loop goes on
            latency, cpu = perf_counter() - t0, process_time() - c0
            traceback.print_exc(file=sys.stderr)
            answer = None
        else:
            latency, cpu = perf_counter() - t0, process_time() - c0
            if answer != expected:
                print(f"op {j}: answer differs from the ground truth", file=sys.stderr)
        self.latencies.append(latency)
        self.cpu.append(cpu)
        self.answers.append(answer)
        self.failed += answer is None or answer != expected


def run_untraced(workload, seed: int, seconds: float) -> dict:
    # every set-up and every op is timed between two passes of the host-speed
    # reference and scaled to its nominal speed (see hostref)
    refs = [hostref.measure()]
    setup_times = []
    while len(setup_times) < SETUP_REPS or sum(setup_times) < SETUP_MIN_S:
        t0 = perf_counter()
        bases = wl.setup(workload)
        setup_times.append(perf_counter() - t0)
        refs.append(hostref.measure())
    setup_scale = _scales(refs)
    ops = Ops()
    refs = [hostref.measure()]
    k = len(bases)
    deadline = perf_counter() + seconds
    j = 0
    while j < k or perf_counter() < deadline:
        ops.run(workload, j, *wl.make_input(workload, bases, seed, j))
        refs.append(hostref.measure())
        j += 1
    n = len(ops.latencies)
    scaled = [t * f for t, f in zip(ops.latencies, _scales(refs))]

    metrics = {
        # op j runs base group j mod k: the median of each group, averaged
        # over groups (see README, "Metrics")
        "latency_ms": statistics.mean(statistics.median(scaled[i::k]) for i in range(k)) * 1e3,
        "setup_s": statistics.median(t * f for t, f in zip(setup_times, setup_scale)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    unbounded = {
        "ops_per_s": (n / sum(ops.latencies), "1/s"),
        "latency_p50_ms": (statistics.median(ops.latencies) * 1e3, "ms"),
        "cpu_ms_per_op": (sum(ops.cpu) / n * 1e3, "ms"),
        "failed_frac": (ops.failed / n, "frac"),
        "unscaled_setup_s": (statistics.median(setup_times), "s"),
        "hostref_ms": (statistics.median(refs) * 1e3, "ms"),
    }
    if n >= P90_MIN_OPS:
        unbounded["latency_p90_ms"] = (statistics.quantiles(ops.latencies, n=10)[-1] * 1e3, "ms")
    return _result(workload, seed, bases, n, ops.failed, metrics, END_TO_END_UNITS, unbounded)


def _scales(refs):
    """Per interval between reference passes, the factor that brings a time
    measured in it to the reference's nominal speed.  The speed is the median
    of the REF_WINDOW passes on either side, which smooths the noise of a
    single pass yet follows drifts lasting seconds."""
    return [hostref.NOMINAL_S
            / statistics.median(refs[max(0, i + 1 - REF_WINDOW):i + 1 + REF_WINDOW])
            for i in range(len(refs) - 1)]


def run_traced(workload, seed: int, seconds: float) -> dict:
    tracer = spans.Tracer()
    with tracer.instrument():
        bases = wl.setup(workload)
    inputs = []
    untraced = Ops()
    deadline = perf_counter() + seconds / 2
    while len(inputs) < len(bases) or perf_counter() < deadline:
        inputs.append(wl.make_input(workload, bases, seed, len(inputs)))
        untraced.run(workload, len(inputs) - 1, *inputs[-1])
    traced = Ops()
    with tracer.instrument():
        for j, inp in enumerate(inputs):
            traced.run(workload, j, *inp, tracer=tracer)
    disagree = sum(a != b for a, b in zip(untraced.answers, traced.answers))
    if disagree:
        print(f"{disagree} traced answer(s) differ from the untraced ones", file=sys.stderr)
    n = len(inputs)
    metrics = spans.layer_metrics(tracer, n, sum(untraced.latencies))
    failed = untraced.failed + traced.failed + disagree
    return _result(workload, seed, bases, 2 * n, failed, metrics, spans.LAYER_UNITS,
                   {"failed_frac": (failed / (2 * n), "frac")})


def _result(workload, seed, bases, attempted, failed, metrics, units, unbounded) -> dict:
    report = provenance(workload, seed, bases, attempted)
    report["unbounded"] = {name: {"value": value, "unit": unit}
                           for name, (value, unit) in unbounded.items()}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "report": report,
    }


def provenance(workload, seed: int, bases, attempted: int) -> dict:
    return {
        "workload": workload.name,
        "seed": seed,
        "input_hash": wl.input_hash(workload, bases, seed),
        "ops": attempted,
        "shapes": [f"{s.inner} s={s.s} r={s.r} n={b.degree}"
                   for s, b in zip(workload.shapes, bases)],
        "python": platform.python_version(),
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "omitted_shapes": list(wl.OMITTED_SHAPES),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_commit() -> str | None:
    # only this checkout's own .git, never a repository above it
    git_dir = ROOT / ".git"
    if not git_dir.exists():
        return None
    try:
        out = subprocess.run(["git", "--git-dir", str(git_dir), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = wl.WORKLOADS[name]
    return (run_traced if trace else run_untraced)(workload, seed, seconds)

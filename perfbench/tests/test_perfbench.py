"""Tests of the benchmark itself: metric names and units, tracing that
changes no answer and restores every attribute, seeded inputs, failure
counting, and the refusal to run without the library's sources.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench
import spans
import workloads as wl

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def one_setup(monkeypatch):
    monkeypatch.setattr(bench, "SETUP_REPS", 1)


def _units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_tiny_run_reports_every_metric_with_its_unit(name):
    untraced = bench.run(name, seed=3, seconds=0.01, trace=False)
    assert untraced["correct"] and untraced["failed"] == 0 and untraced["attempted"] >= 1
    assert _units(untraced) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in untraced["metrics"].values())

    traced = bench.run(name, seed=3, seconds=0.01, trace=True)
    assert traced["correct"] and traced["attempted"] >= 2
    assert _units(traced) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    report = traced["report"]
    assert report["workload"] == name and report["seed"] == 3
    assert {"input_hash", "python", "cpu_model", "nproc", "git_commit"} <= set(report)


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)


def _bindings():
    mods = spans.modules()
    out = {(name, attr): value for name, mod in mods.items()
           for attr, value in vars(mod).items()}
    out["GroupHandle.from_generators"] = \
        mods["stabchain"].GroupHandle.__dict__["from_generators"]
    for attr in ("__mul__", "inverse"):
        out[f"Permutation.{attr}"] = mods["perm"].Permutation.__dict__[attr]
    return out


def test_traced_answers_match_untraced_and_wrappers_are_restored():
    workload = wl.WORKLOADS["many-orbits"]
    bases = wl.setup(workload)
    inputs = [wl.make_input(workload, bases, 5, j) for j in range(len(bases))]
    plain = [workload.op(gens, degree) for gens, degree, _ in inputs]
    assert plain == [expected for _, _, expected in inputs]

    before = _bindings()
    tracer = spans.Tracer()
    mods = spans.modules()
    with pytest.raises(RuntimeError), tracer.instrument():
        # callers' by-name imports see the wrappers too
        assert mods["decompose"].sift is not before[("stabchain", "sift")]
        assert mods["oracle"].build_chain is not before[("stabchain", "build_chain")]
        assert mods["oracle"].is_member is not before[("stabchain", "is_member")]
        assert mods["apps"].decompose_handle is not before[("decompose", "decompose_handle")]
        traced = [tracer.run_op(j, workload.op, gens, degree)
                  for j, (gens, degree, _) in enumerate(inputs)]
        raise RuntimeError("leave the block early")
    assert traced == plain

    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)

    metrics = spans.layer_metrics(tracer, len(inputs), untraced_s=1.0)
    assert metrics["decompose.ddpd_step.calls"] > 0
    assert metrics["decompose.sifts"] == metrics["stabchain.sift.calls"]
    shares = sum(metrics[f"{layer}.share"] for layer in spans.OP_LAYERS)
    assert shares + metrics["trace.unattributed_share"] == pytest.approx(1.0)


def test_same_seed_same_inputs_other_seed_other_inputs():
    workload = wl.WORKLOADS["oracle"]
    bases = wl.setup(workload)
    assert wl.input_hash(workload, bases, 1) == wl.input_hash(workload, wl.setup(workload), 1)
    assert wl.input_hash(workload, bases, 1) != wl.input_hash(workload, bases, 2)


def test_failures_are_counted_and_the_loop_goes_on():
    def wrong(gens, degree):
        return frozenset()

    def raises(gens, degree):
        raise ValueError("boom")

    workload = wl.WORKLOADS["oracle"]
    bases = wl.setup(workload)
    ops = bench.Ops()
    for j, op in enumerate((wrong, raises, workload.op)):
        bad = wl.Workload(workload.name, workload.shapes, op)
        ops.run(bad, j, *wl.make_input(workload, bases, 1, j))
    assert ops.failed == 2 and len(ops.latencies) == 3


@pytest.mark.parametrize("inner, s", [("D8", 1), ("W2222", 2)])
def test_omitted_shapes_exhaust_the_generator(inner, s):
    import random

    from permdecomp.groups import by_name

    with pytest.raises(wl.oracle.RetryBudgetExhausted):
        wl.oracle.make_subdirect(by_name(inner), s, random.Random(1), budget=20)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert child.returncode != 0
    assert child.stdout == ""


def test_times_are_scaled_by_the_nearby_reference_passes():
    nominal = bench.hostref.NOMINAL_S
    # on a host at half the reference's nominal speed, every time is halved
    assert bench._scales([2 * nominal] * 5) == pytest.approx([0.5] * 4)
    # one slow pass is outvoted by its neighbours
    refs = [nominal] * 3 + [5 * nominal] + [nominal] * 3
    assert bench._scales(refs) == pytest.approx([1.0] * 6)
    assert bench.hostref.measure() > 0

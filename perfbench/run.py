"""Benchmark of permdecomp's decomposition and its consumers.

Run from the root of a checkout:

    python3 perfbench/run.py --workload wide --seed 1 --seconds 25 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  ``--workload all`` runs every workload,
untraced and traced, each in a process of its own.  The library is imported
from this checkout's ``src/``; the last line of standard output is a JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is non-zero if any op failed.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _print_result(result: dict) -> None:
    report = result.pop("report")
    print(f"workload {report['workload']}  seed {report['seed']}  ops {report['ops']}  "
          f"failed {result['failed']}")
    for name, metric in {**result["metrics"], **report["unbounded"]}.items():
        print(f"  {name:48s} {metric['value']:.6g} {metric['unit']}")
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps(result))


def _run_all(args, names) -> int:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
            print(child.stdout, end="")
            lines = child.stdout.strip().splitlines()
            if child.returncode not in (0, 1) or not lines:
                print(f"perfbench: {name} --trace {trace} exited with {child.returncode}",
                      file=sys.stderr)
                return child.returncode or 1
            result = json.loads(lines[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "permdecomp" / "__init__.py").is_file():
        print(f"perfbench: no permdecomp sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench  # needs the checkout's src on the path

    names = list(bench.wl.WORKLOADS)
    if args.workload == "all":
        return _run_all(args, names)
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose one of {names} or all")
    result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace))
    correct = result["correct"]
    _print_result(result)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

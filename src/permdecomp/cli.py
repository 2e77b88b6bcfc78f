"""Command-line interface.

Subcommands: ``decompose`` (fast algorithm), ``oracle`` (brute-force
baseline), ``randgen`` (random instance files with a ground-truth sidecar),
``verify`` (compare two decomposition documents) and ``bench`` (timing
tables).

Exit codes are part of the contract: 0 ok, 1 parse error (a malformed file,
such as one whose degree exceeds 10,000,000, a flag value out of range or
not in ASCII digits, or an instance whose degree would exceed 10,000,000)
or out of memory, 2 internal invariant breach, 3 orbit cap exceeded, 4 retry
budget exhausted, 5 decompositions not equivalent.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

from .apps import run_benchmark
from .decompose import InvariantViolation, decompose_handle, decomposition_result
from .groupfile import (
    _MAX_DEGREE,
    GroupFileError,
    decomposition_document,
    document_supports,
    dump_document,
    load_document,
    read_group_file,
    write_expected_sidecar,
    write_group_file,
)
from .groups import UnknownGroupName, by_name
from .oracle import (
    DEFAULT_ORBIT_CAP,
    OrbitCapExceeded,
    RandomInstanceSpec,
    RetryBudgetExhausted,
    brute_force_decompose,
    random_ddp_group,
)
from .stabchain import GroupHandle

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INVARIANT = 2
EXIT_CAP = 3
EXIT_RETRY = 4
EXIT_NOT_EQUIVALENT = 5


class UsageError(Exception):
    """A command-line value outside its documented range."""


# int() and float() also take other scripts' digits, "_" and spaces
_INTEGER_RE = re.compile(r"-?[0-9]+")
_SECONDS_RE = re.compile(r"[0-9]+(?:\.[0-9]+)?")


def _integer(text: str) -> int:
    """An integer flag value in ASCII digits, with an optional "-"."""
    if _INTEGER_RE.fullmatch(text):
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            pass
    raise argparse.ArgumentTypeError(f"not an integer in ASCII digits: {text!r}")


def _seconds(text: str) -> float:
    """A number of seconds in ASCII digits, with an optional fraction."""
    if not _SECONDS_RE.fullmatch(text):
        raise argparse.ArgumentTypeError(f"not a number of seconds in ASCII digits: {text!r}")
    return float(text)


def _positive(flag: str, value: int) -> int:
    if value < 1:
        raise UsageError(f"{flag} must be at least 1, got {value}")
    return value


def _load_handle(path: str) -> GroupHandle:
    degree, gens = read_group_file(path)
    return GroupHandle.from_generators(gens, degree)


def _inner_group(name_or_path: str) -> GroupHandle:
    try:
        handle = by_name(name_or_path)
    except UnknownGroupName:
        handle = _load_handle(name_or_path)
    except ValueError as exc:
        raise UsageError(f"--inner {name_or_path}: {exc}") from None
    if handle.orbit_structure.orbits != (tuple(range(1, handle.degree + 1)),):
        raise UsageError(f"--inner {name_or_path}: the inner group must be "
                         f"transitive on its {handle.degree} points")
    return handle


def _check_degree(inner: GroupHandle, r: int, s: int) -> None:
    # r * s copies of the inner group's points, which a group file must hold
    degree = r * s * inner.degree
    if degree > _MAX_DEGREE:
        raise UsageError(f"r={r} s={s} copies of a degree-{inner.degree} group have "
                         f"degree {degree}, above the maximum {_MAX_DEGREE}")


def cmd_decompose(args) -> int:
    handle = _load_handle(args.input)
    result = decompose_handle(handle, verify=args.check)
    sys.stdout.write(dump_document(decomposition_document(result, method="fast")))
    return EXIT_OK


def cmd_oracle(args) -> int:
    cap = _positive("--cap", args.cap)
    handle = _load_handle(args.input)
    partition = brute_force_decompose(handle, cap=cap, pairs_first=args.pairs_first)
    result = decomposition_result(handle, partition)
    sys.stdout.write(dump_document(decomposition_document(result, method="oracle")))
    return EXIT_OK


def cmd_randgen(args) -> int:
    _positive("--r", args.r)
    _positive("--s", args.s)
    inner = _inner_group(args.inner)
    _check_degree(inner, args.r, args.s)
    spec = RandomInstanceSpec(inner, args.r, args.s, args.seed)
    handle, expected = random_ddp_group(spec)
    comments = [
        f"random decomposable instance: inner={args.inner} r={args.r} s={args.s} seed={args.seed}",
        "rng: python-mersenne-twister",
    ]
    write_group_file(args.output, handle.degree, handle.generators, comments)
    write_expected_sidecar(args.output, handle, expected, args.inner, args.r, args.s, args.seed)
    sys.stdout.write(f"wrote {args.output} (degree {handle.degree}, "
                     f"{len(handle.generators)} generators) and sidecar\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    left = load_document(args.left)
    right = load_document(args.right)
    lsup = document_supports(left)
    rsup = document_supports(right)
    if left["degree"] != right["degree"]:
        sys.stdout.write(f"not equivalent: degrees differ "
                         f"({left['degree']} vs {right['degree']})\n")
        return EXIT_NOT_EQUIVALENT
    if lsup == rsup:
        sys.stdout.write(f"equivalent: {len(lsup)} factor support(s) match\n")
        return EXIT_OK
    for sup in sorted(lsup - rsup, key=sorted):
        sys.stdout.write(f"only in {args.left}: {sorted(sup)}\n")
    for sup in sorted(rsup - lsup, key=sorted):
        sys.stdout.write(f"only in {args.right}: {sorted(sup)}\n")
    return EXIT_NOT_EQUIVALENT


def _positive_list(flag: str, text: str) -> list[int]:
    try:
        values = [_integer(tok) for tok in text.split(",") if tok]
    except argparse.ArgumentTypeError:
        raise UsageError(f"{flag} must be a comma-separated list of integers "
                         f"in ASCII digits, got {text!r}") from None
    if not values:
        raise UsageError(f"{flag} must list at least one integer, got {text!r}")
    return [_positive(flag, v) for v in values]


def cmd_bench(args) -> int:
    rs = _positive_list("--r", args.r)
    ss = _positive_list("--s", args.s)
    _positive("--reps", args.reps)
    if not (math.isfinite(args.time_limit) and args.time_limit > 0):
        raise UsageError(f"--time-limit must be a positive finite number of seconds, "
                         f"got {args.time_limit}")
    inner = _inner_group(args.inner)
    _check_degree(inner, max(rs), max(ss))  # the sweep's largest instance
    rows = []
    for r in rs:
        for s in ss:
            spec = RandomInstanceSpec(inner, r, s, args.seed)
            row = run_benchmark(spec, args.task, args.reps, args.time_limit)
            row.update({"inner": args.inner, "r": r, "s": s})
            rows.append(row)
    if args.json:
        for row in rows:
            sys.stdout.write(json.dumps(row) + "\n")
        return EXIT_OK
    whole_label = "oracle" if args.task == "decompose" else "whole group"
    fast_label = "decomposition" if args.task == "decompose" else "decomposed"
    sys.stdout.write(f"task: {args.task}; medians in seconds over {args.reps} rep(s); "
                     f"# = completed\n")
    header = f"{'inner':>10} {'r':>3} {'s':>3} | {whole_label:>12} {'#':>2} | {fast_label:>13} {'#':>2}"
    per_factor = any("per_factor" in row for row in rows)
    if per_factor:
        header += f" | {'per-factor':>10} {'#':>2}"
    sys.stdout.write(header + "\n")
    for row in rows:
        whole = row["whole"]
        dec = row["decomposition"]
        med = "N/A" if whole["median"] is None else f"{whole['median']:.3f}"
        line = (f"{row['inner']:>10} {row['r']:>3} {row['s']:>3} | "
                f"{med:>12} {whole['completed']:>2} | "
                f"{dec['median']:>13.3f} {row['reps']:>2}")
        if "per_factor" in row:
            pf = row["per_factor"]
            pf_med = "N/A" if pf["median"] is None else f"{pf['median']:.3f}"
            line += f" | {pf_med:>10} {pf['completed']:>2}"
        sys.stdout.write(line + "\n")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    # usage errors are parse errors (exit 1, one line), not argparse's exit 2
    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="permdecomp",
        description="finest disjoint direct product decomposition of permutation groups")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="decompose a group file (fast algorithm)")
    p.add_argument("input", help="group file")
    p.add_argument("--check", action="store_true",
                   help="also audit the stabilizer chain by Schreier's lemma and "
                        "check each walk state for separability")
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("oracle", help="decompose by brute force (baseline)")
    p.add_argument("input", help="group file")
    p.add_argument("--cap", type=_integer, default=DEFAULT_ORBIT_CAP,
                   help=f"maximum orbit count (default {DEFAULT_ORBIT_CAP})")
    p.add_argument("--pairs-first", action="store_true",
                   help="glue indecomposable orbit pairs before the bipartition search")
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("randgen", help="generate a random decomposable instance")
    p.add_argument("--inner", required=True,
                   help="inner transitive group: C<n>, D<order>, A<n>, S<n>, a bundled "
                        "name (W2222, W2C8) or a group file path")
    p.add_argument("--r", type=_integer, required=True, help="number of factors")
    p.add_argument("--s", type=_integer, required=True, help="orbits per factor")
    p.add_argument("--seed", type=_integer, default=1, help="rng seed (default 1)")
    p.add_argument("output", help="output group file; a .expected.json sidecar is written too")
    p.set_defaults(fn=cmd_randgen)

    p = sub.add_parser("verify", help="compare two decomposition documents")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("bench", help="time whole-group vs decomposed computations")
    p.add_argument("--task", choices=("derived", "classes", "decompose"), required=True)
    p.add_argument("--inner", required=True)
    p.add_argument("--r", required=True, help="comma-separated list, e.g. 4,6,8")
    p.add_argument("--s", required=True, help="comma-separated list")
    p.add_argument("--reps", type=_integer, default=3)
    p.add_argument("--time-limit", type=_seconds, default=60.0,
                   help="seconds per measured computation (default 60)")
    p.add_argument("--seed", type=_integer, default=1)
    p.add_argument("--json", action="store_true", help="one JSON row per line")
    p.set_defaults(fn=cmd_bench)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except (GroupFileError, UsageError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE
    except MemoryError:
        sys.stderr.write("error: out of memory\n")
        return EXIT_PARSE
    except InvariantViolation as exc:
        sys.stderr.write(f"invariant violated: {exc}\n")
        return EXIT_INVARIANT
    except OrbitCapExceeded as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CAP
    except RetryBudgetExhausted as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_RETRY


def console_main() -> None:
    raise SystemExit(main())

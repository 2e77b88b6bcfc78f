"""In-memory span tracing of the library's public functions.

``Tracer.instrument()`` replaces, for the duration of a ``with`` block, each
traced function under every name its callers look it up by: the module
attribute of its own module and any module that imported it by name
(``decompose`` imports ``sift``; ``oracle`` imports ``build_chain`` and
``is_member``; ``apps`` imports ``is_member`` and ``decompose_handle``).
``Permutation.__mul__`` and ``Permutation.inverse`` are counted only, with no
span, because they run millions of times.  Every replaced attribute is put
back when the block exits.

A span is a list ``[name, start, end, parent, op, error, extra]``; ``parent``
is the index of the enclosing span or -1, ``op`` the id of the benchmark op
that was running (None during set-up).  Self time is a span's duration minus
the durations of its direct children.
"""

from __future__ import annotations

import importlib
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

MODULE_NAMES = ("perm", "stabchain", "decompose", "oracle", "apps")

# (module, function) pairs recorded as spans
SPANNED = (
    ("stabchain", "compute_orbits"),
    ("stabchain", "build_chain"),
    ("stabchain", "sift"),
    ("stabchain", "is_member"),
    ("decompose", "decompose"),
    ("decompose", "decompose_handle"),
    ("decompose", "ddpd_step"),
    ("oracle", "brute_force_decompose"),
    ("oracle", "random_ddp_group"),
    ("oracle", "make_subdirect"),
    ("apps", "count_conjugacy_classes"),
    ("apps", "count_conjugacy_classes_via_ddpd"),
    ("apps", "derived_subgroup"),
    ("apps", "derived_subgroup_via_ddpd"),
)
FROM_GENERATORS = "stabchain.GroupHandle.from_generators"

# layers whose self time makes up an op; from_generators spans directly
# under decompose_handle are the factor handles and get their own layer
OP_LAYERS = (
    "stabchain.compute_orbits",
    "stabchain.build_chain",
    "stabchain.sift",
    "stabchain.is_member",
    FROM_GENERATORS,
    "decompose.factor_handles",
    "decompose.decompose",
    "decompose.decompose_handle",
    "decompose.ddpd_step",
    "oracle.brute_force_decompose",
    "apps.count_conjugacy_classes",
    "apps.count_conjugacy_classes_via_ddpd",
    "apps.derived_subgroup",
    "apps.derived_subgroup_via_ddpd",
)
OP_SPAN = "bench.op"

LAYER_UNITS = {
    **{f"{layer}.{metric}": unit for layer in OP_LAYERS
       for metric, unit in (("self_s", "s/op"), ("calls", "calls/op"), ("share", "frac"))},
    "trace.unattributed_share": "frac",
    "trace.op_s": "s/op",
    "trace.overhead_frac": "frac",
    "decompose.factor_handles.total_s": "s/op",
    "stabchain.build_chain.strong_gens": "count/op",
    "stabchain.build_chain.base_len": "count/op",
    "perm.mul.calls": "calls/op",
    "perm.inverse.calls": "calls/op",
    "decompose.sifts": "count/op",
    "decompose.cell_merges": "count/op",
    "decompose.merge_ratio": "frac",
    "oracle.chains_built": "count/op",
    "oracle.chains_aborted": "count/op",
    "oracle.member_tests": "count/op",
    "oracle.random_ddp_group.s": "s/setup",
    "oracle.make_subdirect.accept_ratio": "frac",
    "apps.elements_enumerated": "count/op",
    "apps.derived_subgroup.chain_rebuilds": "count/op",
}


def modules() -> dict:
    # import_module, not attribute access: the package re-exports the
    # function ``decompose`` under the name of its submodule
    return {name: importlib.import_module(f"permdecomp.{name}") for name in MODULE_NAMES}


class Tracer:
    """Spans and counts of one traced run, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = None
        self._stack: list[int] = []

    def _wrap(self, name: str, fn, extra=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                rec[5] = type(exc).__name__
                raise
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if extra is not None:
                rec[6] = extra(args, kwargs, out)
            return out

        return wrapper

    # counts are kept for ops only, not for set-up or the benchmark's own
    # relabeling and checks
    def _count(self, key: str, fn):
        counts = self.counts

        def wrapper(*args):
            if self.op is not None:
                counts[key] += 1
            return fn(*args)

        return wrapper

    def _count_yields(self, key: str, fn):
        counts = self.counts

        def wrapper(*args):
            for item in fn(*args):
                if self.op is not None:
                    counts[key] += 1
                yield item

        return wrapper

    def run_op(self, op_id: int, fn, *args):
        """Run one benchmark op under a root span."""
        self.op = op_id
        try:
            return self._wrap(OP_SPAN, fn)(*args)
        finally:
            self.op = None

    @contextmanager
    def instrument(self):
        """Install the wrappers; restore every replaced attribute on exit."""
        mods = modules()
        replaced = []  # (owner, attribute, original)

        def patch(owner, attr, new):
            replaced.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)

        try:
            for mod_name, fn_name in SPANNED:
                original = getattr(mods[mod_name], fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original,
                                     _EXTRAS.get(fn_name))
                for mod in mods.values():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            patch(mod, attr, wrapper)
            handle_cls = mods["stabchain"].GroupHandle
            from_gens = handle_cls.__dict__["from_generators"].__func__
            patch(handle_cls, "from_generators",
                  classmethod(self._wrap(FROM_GENERATORS, from_gens)))
            perm_cls = mods["perm"].Permutation
            patch(perm_cls, "__mul__", self._count("perm.mul", perm_cls.__mul__))
            patch(perm_cls, "inverse", self._count("perm.inverse", perm_cls.inverse))
            apps = mods["apps"]
            patch(apps, "iter_elements",
                  self._count_yields("apps.elements", apps.iter_elements))
            yield self
        finally:
            for owner, attr, original in reversed(replaced):
                setattr(owner, attr, original)


def _chain_extra(args, kwargs, chain):
    return len(chain.strong_generators), len(chain.levels)


def _step_extra(args, kwargs, out):
    partition = args[3] if len(args) > 3 else kwargs["partition"]
    # orbit i+1 joins as a singleton; each marked cell merged into it
    return len(partition.cells) + 1 - len(out[1].cells)


_EXTRAS = {"build_chain": _chain_extra, "ddpd_step": _step_extra}


def _layer_names(spans: list[list]) -> list[str]:
    names = []
    for rec in spans:
        name = rec[0]
        if (name == FROM_GENERATORS and rec[3] >= 0
                and spans[rec[3]][0] == "decompose.decompose_handle"):
            name = "decompose.factor_handles"
        names.append(name)
    return names


def _under(spans: list[list], idx: int, ancestor: str) -> bool:
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] == ancestor:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(tracer: Tracer, ops: int, untraced_s: float) -> dict[str, float]:
    """Per-layer metrics of a traced run.

    ``ops`` traced ops ran after one traced set-up; ``untraced_s`` is the
    summed latency of the same ops run untraced.  Op-layer values are per
    op; set-up values are for the one set-up.
    """
    spans = tracer.spans
    names = _layer_names(spans)
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child[rec[3]] += rec[2] - rec[1]

    self_s: Counter = Counter()
    calls: Counter = Counter()
    total_s: Counter = Counter()
    op_s = 0.0
    for i, rec in enumerate(spans):
        if rec[4] is None:
            continue
        duration = rec[2] - rec[1]
        self_s[names[i]] += duration - child[i]
        calls[names[i]] += 1
        total_s[names[i]] += duration
        if names[i] == OP_SPAN:
            op_s += duration

    out: dict[str, float] = {}
    for layer in OP_LAYERS:
        out[f"{layer}.self_s"] = self_s[layer] / ops
        out[f"{layer}.calls"] = calls[layer] / ops
        out[f"{layer}.share"] = self_s[layer] / op_s
    out["trace.unattributed_share"] = self_s[OP_SPAN] / op_s
    out["trace.op_s"] = op_s / ops
    out["trace.overhead_frac"] = (op_s - untraced_s) / untraced_s
    out["decompose.factor_handles.total_s"] = total_s["decompose.factor_handles"] / ops

    strong = base_len = chains = aborted = members = sifts = merges = rebuilds = 0
    setup_ddp_s = 0.0
    subdirect_calls = subdirect_candidates = 0
    for i, rec in enumerate(spans):
        name = names[i]
        if rec[4] is None:
            if name == "oracle.random_ddp_group":
                setup_ddp_s += rec[2] - rec[1]
            elif name == "oracle.make_subdirect" and rec[5] is None:
                subdirect_calls += 1
            elif (name == FROM_GENERATORS and rec[3] >= 0
                  and spans[rec[3]][0] == "oracle.make_subdirect"):
                subdirect_candidates += 1
            continue
        parent = spans[rec[3]][0] if rec[3] >= 0 else None
        if name == "stabchain.build_chain":
            if rec[6] is not None:
                strong += rec[6][0]
                base_len += rec[6][1]
            if _under(spans, i, "oracle.brute_force_decompose"):
                chains += 1
                aborted += rec[5] == "OrderBoundExceeded"
        elif name == "stabchain.is_member":
            members += _under(spans, i, "oracle.brute_force_decompose")
        elif name == "stabchain.sift":
            sifts += parent == "decompose.ddpd_step"
        elif name == "decompose.ddpd_step":
            merges += rec[6] or 0
        elif name == FROM_GENERATORS:
            rebuilds += parent == "apps.derived_subgroup"

    out["stabchain.build_chain.strong_gens"] = strong / ops
    out["stabchain.build_chain.base_len"] = base_len / ops
    out["perm.mul.calls"] = tracer.counts["perm.mul"] / ops
    out["perm.inverse.calls"] = tracer.counts["perm.inverse"] / ops
    out["decompose.sifts"] = sifts / ops
    out["decompose.cell_merges"] = merges / ops
    out["decompose.merge_ratio"] = merges / sifts if sifts else 0.0
    out["oracle.chains_built"] = chains / ops
    out["oracle.chains_aborted"] = aborted / ops
    out["oracle.member_tests"] = members / ops
    out["oracle.random_ddp_group.s"] = setup_ddp_s
    out["oracle.make_subdirect.accept_ratio"] = (
        subdirect_calls / subdirect_candidates if subdirect_candidates else 0.0)
    out["apps.elements_enumerated"] = tracer.counts["apps.elements"] / ops
    out["apps.derived_subgroup.chain_rebuilds"] = rebuilds / ops
    return out

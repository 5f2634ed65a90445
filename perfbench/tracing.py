"""Spans around the public functions of each spinscape module.

Only the traced passes install the wrappers; they patch the names at the
sites the calls go through (``spinscape.solver.block_energies``,
``spinscape.cli.solve_combined``, ...) and restore them afterwards.  A span
records its name, start, end, parent span and a few counts taken from the
call's arguments or result.  Spans stay in memory and are written once, at
the end of the run.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import time
from typing import Callable, Dict, Iterator, List, Optional

SOLVE_SPANS = {
    "solve_brute": "solver.brute",
    "solve_coloring_baseline": "solver.coloring",
    "solve_effective": "solver.effective",
    "solve_avg_degree": "solver.avg-degree",
    "solve_combined": "solver.combined",
}


def _rows(args) -> Dict[str, int]:
    return {"rows": int(args["count"])}


def _kernel(args) -> Dict[str, int]:
    inst, rows = args["inst"], int(args["spins"].shape[0])
    return {"rows": rows, "madds": rows * (inst.n + 2 * len(inst.couplings))}


# (module, attribute, span name, counts from the bound arguments, counts from the result)
TARGETS = [
    ("spinscape.cli", "parse_wcnf", "wcnf.parse_wcnf", None,
     lambda res: {"clauses": len(res.clauses)}),
    ("spinscape.cli", "wcnf_to_ising", "wcnf.wcnf_to_ising", None, None),
    ("spinscape.solver", "spin_block", "instance.spin_block", _rows, None),
    ("spinscape.landscape", "spin_block", "instance.spin_block", _rows, None),
    ("spinscape.solver", "block_energies", "instance.block_energies", _kernel, None),
    ("spinscape.landscape", "block_local_fields", "instance.block_local_fields",
     _kernel, None),
    ("spinscape.instance.IsingInstance", "conditioned", "instance.conditioned", None, None),
    ("spinscape.solver", "find_T_randomized", "tset.find_T_randomized", None,
     lambda res: {"attempts": res.attempts, "ok": int(res.ok)}),
    ("spinscape.solver", "find_T1T2", "tset.find_T1T2", None,
     lambda res: {"ok": int(res.ok)}),
    *[("spinscape.cli", fn, name, None, None) for fn, name in SOLVE_SPANS.items()],
    ("spinscape.cli", "compute_Z", "solver.compute_Z", None, None),
    ("spinscape.cli", "enumerate_k_minima", "landscape.enumerate_k_minima", None,
     lambda res: {"minima": res.minima_count}),
    ("spinscape.cli", "k_basins", "landscape.k_basins", None,
     lambda res: {"vertices": res.vertex_count or 0}),
    ("spinscape.probe", "signed_sum_counts", "probe.signed_sum_counts", None,
     lambda res: {"cells": 2 * res[1] + 1}),
    ("spinscape.cli", "max_interval_prob", "probe.max_interval_prob", None, None),
    ("spinscape.probe", "max_interval_prob", "probe.max_interval_prob", None, None),
    ("spinscape.cli", "exact_interval_prob", "probe.exact_interval_prob", None, None),
    ("spinscape.cli", "mc_interval_prob", "probe.mc_interval_prob",
     lambda args: {"samples": int(args["samples"])}, None),
    ("spinscape.cli", "scaling_report", "probe.scaling_report", None, None),
]


class Span:
    __slots__ = ("name", "start", "end", "parent", "counts")

    def __init__(self, name: str, start: float, parent: Optional[int]):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.counts: Dict[str, int] = {}


def _resolve(path: str):
    head, _, tail = path.rpartition(".")
    try:
        return importlib.import_module(path)
    except ImportError:
        return getattr(importlib.import_module(head), tail)


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        s = Span(name, time.perf_counter(), parent)
        self.spans.append(s)
        self._stack.append(len(self.spans) - 1)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn: Callable, name: str, from_args, from_result) -> Callable:
        sig = inspect.signature(fn) if from_args else None

        def traced(*args, **kwargs):
            with self.span(name) as s:
                res = fn(*args, **kwargs)
            if from_args:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                s.counts.update(from_args(bound.arguments))
            if from_result:
                s.counts.update(from_result(res))
            return res

        return traced

    @contextlib.contextmanager
    def installed(self) -> Iterator[None]:
        saved = []
        try:
            for path, attr, name, from_args, from_result in TARGETS:
                owner = _resolve(path)
                fn = getattr(owner, attr)
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(fn, name, from_args, from_result))
            yield
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def check_nesting(self) -> None:
        """Every child span lies inside its parent's interval."""
        for s in self.spans:
            if s.end < s.start:
                raise RuntimeError("span %s ends before it starts" % s.name)
            if s.parent is not None:
                p = self.spans[s.parent]
                if s.start < p.start or s.end > p.end:
                    raise RuntimeError("span %s exceeds its parent %s" % (s.name, p.name))

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.counts]) + "\n")


def layer_metrics(tracer: Tracer, docs: List[Dict]) -> Dict[str, float]:
    """Per-layer totals over the traced passes.

    ``docs`` are the parsed output documents of the traced ops.  Times are
    seconds summed over spans; a self time is a span's duration minus the
    durations of its direct children, which never overlap in one thread.
    """
    spans = tracer.spans
    child_s = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_s[s.parent] += s.end - s.start
    m: Dict[str, float] = {}

    def add(key: str, value: float) -> None:
        m[key] = m.get(key, 0) + value

    solve_names = set(SOLVE_SPANS.values()) - {"solver.brute"}
    for k, s in enumerate(spans):
        dur = s.end - s.start
        own = dur - child_s[k]
        add(s.name + ".calls", 1)
        add(s.name + ".s", dur)
        add(s.name + ".self_s", own)
        for key, value in s.counts.items():
            add(s.name + "." + key, value)
        if s.name == "instance.block_energies" and s.parent is not None \
                and spans[s.parent].name in solve_names:
            add("solver.repair_rescan_s", dur)
        if s.name.startswith("landscape."):
            add("landscape.self_s", own)

    solves = [d for d in docs if d.get("command") == "solve"]
    counters = [d.get("counters", {}) for d in solves]
    strict = sum(c.get("strict_fixed", 0) for c in counters)
    free = sum(c.get("free_members", 0) for c in counters)
    calls_t = m.get("tset.find_T_randomized.calls", 0)
    calls_12 = m.get("tset.find_T1T2.calls", 0)
    out = {
        "cli.ops": m.get("cli.op.calls", 0),
        "cli.output_bytes": m.get("cli.op.output_bytes", 0),
        "cli.self_s": m.get("cli.op.self_s", 0.0),
        "wcnf.parse_wcnf.s": m.get("wcnf.parse_wcnf.s", 0.0),
        "wcnf.wcnf_to_ising.s": m.get("wcnf.wcnf_to_ising.s", 0.0),
        "wcnf.clauses": m.get("wcnf.parse_wcnf.clauses", 0),
    }
    for kern in ("spin_block", "block_energies", "block_local_fields"):
        for key in ("calls", "rows", "s"):
            out["instance.%s.%s" % (kern, key)] = m.get("instance.%s.%s" % (kern, key), 0)
    out["instance.kernel_madds"] = (m.get("instance.block_energies.madds", 0)
                                    + m.get("instance.block_local_fields.madds", 0))
    out["instance.conditioned.calls"] = m.get("instance.conditioned.calls", 0)
    out["instance.conditioned.s"] = m.get("instance.conditioned.s", 0.0)
    out["tset.find_T_randomized.calls"] = calls_t
    out["tset.find_T_randomized.s"] = m.get("tset.find_T_randomized.s", 0.0)
    out["tset.find_T_randomized.attempts"] = m.get("tset.find_T_randomized.attempts", 0)
    out["tset.find_T1T2.calls"] = calls_12
    out["tset.find_T1T2.s"] = m.get("tset.find_T1T2.s", 0.0)
    out["tset.cert_ok_ratio"] = m.get("tset.find_T_randomized.ok", 0) / calls_t if calls_t else 0.0
    out["tset.t1t2_ok_ratio"] = m.get("tset.find_T1T2.ok", 0) / calls_12 if calls_12 else 0.0
    for name in SOLVE_SPANS.values():
        out[name + ".self_s"] = m.get(name + ".self_s", 0.0)
    out["solver.repair_rescan_s"] = m.get("solver.repair_rescan_s", 0.0)
    out["solver.compute_Z.s"] = m.get("solver.compute_Z.s", 0.0)
    out["solver.leaves_explored"] = sum(d["leaves_explored"] for d in solves)
    out["solver.outer_assignments"] = sum(d["outer_assignments"] for d in solves)
    out["solver.tie_rows"] = sum(c.get("tie_rows", 0) for c in counters)
    out["solver.repair_rescans"] = sum(c.get("repair_rescan", 0) for c in counters)
    out["solver.free_members"] = free
    out["solver.strict_fixed"] = strict
    out["solver.fixed_ratio"] = strict / (strict + free) if strict + free else 0.0
    for fn in ("enumerate_k_minima", "k_basins"):
        out["landscape.%s.calls" % fn] = m.get("landscape.%s.calls" % fn, 0)
        out["landscape.%s.s" % fn] = m.get("landscape.%s.s" % fn, 0.0)
    out["landscape.self_s"] = m.get("landscape.self_s", 0.0)
    out["landscape.minima"] = m.get("landscape.enumerate_k_minima.minima", 0)
    out["landscape.vertices"] = m.get("landscape.k_basins.vertices", 0)
    out["probe.signed_sum_counts.calls"] = m.get("probe.signed_sum_counts.calls", 0)
    for fn in ("signed_sum_counts", "max_interval_prob", "exact_interval_prob",
               "mc_interval_prob", "scaling_report"):
        out["probe.%s.s" % fn] = m.get("probe.%s.s" % fn, 0.0)
    out["probe.support_cells"] = m.get("probe.signed_sum_counts.cells", 0)
    out["probe.mc_samples"] = m.get("probe.mc_interval_prob.samples", 0)
    return out

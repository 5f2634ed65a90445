"""Sparse "anchor set" construction and certification.

A T-set is a subset of variables whose internal couplings are weak enough,
relative to their couplings into the rest of the graph, that conditioning on
the outside assignment pins most T variables by a sign test.  The quality
conditions checked here (all parametrized by a reference degree d and a
sampling rate epsilon, with conservative constant 99):

1. every member has at most 99*epsilon*d neighbors inside T;
2. every member has at least d_out = max(1, floor((1/99)/epsilon)) outside
   partners whose coupling magnitude at least matches the member's strongest
   internal coupling (members with no internal neighbors are exempt);
3. summed over a member's outside neighbors, the number of such "strong
   edges" attached to those neighbors stays below 99*d.

At bench scales the floor in d_out underflows to 0, so it is clamped to 1;
the conditions are then easy to meet but remain exactly checkable.

The constrained variant (used when two coupling-free side sets T1, T2 have
been carved out first) drops the exemption in condition 2, requires strong
partners to have nonzero coupling, and adds

4. every member's total coupling magnitude into T1 and T2 is at most
   99 * j_max * (|T1| + |T2|) / |V0|,

checked in exact integer arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from itertools import combinations
from typing import Callable, Dict, Iterable, Iterator, List, Sequence, Tuple

from spinscape.instance import DegreeGraph, IsingInstance
from spinscape.rand import rng_from

_STREAM_TSET = 21
_STREAM_T1T2 = 22

MAX_DETERMINISTIC_N = 24
MAX_DETERMINISTIC_SUBSETS = 200_000


@dataclass(frozen=True)
class TParams:
    """Reference degree, sampling rate and the threshold constants."""

    d: int
    epsilon: float
    c_internal: int = 99
    c_strong: int = 99
    c_load: int = 99
    c_cross: int = 99
    target_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError("reference degree must be >= 1")
        if not 0.0 < self.epsilon <= 1.0:
            raise ValueError("epsilon must lie in (0, 1]")

    @classmethod
    def for_instance(cls, inst: IsingInstance, **overrides) -> "TParams":
        """Params at the instance's max degree d; the default epsilon log2(d) / d needs d >= 2."""
        d = inst.degree_graph().max_degree
        if "epsilon" not in overrides:
            if d < 2:
                raise ValueError("instance graph needs max degree >= 2 for default params")
            overrides["epsilon"] = math.log2(d) / d
        return cls(d=d, **overrides)

    @property
    def internal_degree_cap(self) -> float:
        return self.c_internal * self.epsilon * self.d

    @property
    def strong_edge_quota(self) -> int:
        raw = math.floor((1.0 / self.epsilon) / self.c_strong)
        return max(1, raw)

    @property
    def load_cap(self) -> int:
        return self.c_load * self.d


@dataclass(frozen=True)
class ConstrainedContext:
    """Side sets and coupling bound for the constrained certificate check."""

    t1: Tuple[int, ...]
    t2: Tuple[int, ...]
    j_max: int


@dataclass(frozen=True)
class TSetCertificate:
    t: Tuple[int, ...]
    strong_edges: Tuple[Tuple[int, Tuple[int, ...]], ...]
    params: TParams
    checks: Tuple[Tuple[str, bool], ...]
    method: str = "manual"
    constrained: bool = False
    attempts: int = 1
    target_size: int | None = None

    @property
    def conditions_ok(self) -> bool:
        return all(v for _, v in self.checks)

    @property
    def ok(self) -> bool:
        if not self.t or not self.conditions_ok:
            return False
        if self.target_size is not None and len(self.t) < self.target_size:
            return False
        return True

    def to_json_dict(self) -> dict:
        return {
            "t": list(self.t),
            "t_size": len(self.t),
            "ok": self.ok,
            "method": self.method,
            "constrained": self.constrained,
            "attempts": self.attempts,
            "target_size": self.target_size,
            "checks": dict(self.checks),
            "strong_edges": [[i, list(js)] for i, js in self.strong_edges],
            "params": asdict(self.params),
        }


def _strong_candidates(
    inst: IsingInstance,
    graph: DegreeGraph,
    i: int,
    inside: Iterable[int],
    outside_excluded: set,
) -> List[int]:
    """Outside partners of i at least as strong as its strongest internal coupling."""
    inside_set = set(inside)
    a_min = 0
    for k in graph.neighbors[i]:
        if k in inside_set:
            a_min = max(a_min, abs(inst.coupling(i, k)))
    # Candidates are drawn from true neighbors, so their couplings are
    # nonzero by construction.  (Unconstrained members without internal
    # neighbors never reach this helper: they are exempt.  Constrained
    # members with a_min == 0 get all their neighbors as candidates.)
    return [
        j
        for j in graph.neighbors[i]
        if j not in outside_excluded and abs(inst.coupling(i, j)) >= a_min
    ]


def _greedy_select(inst: IsingInstance, i: int, cands: Sequence[int], quota: int) -> Tuple[int, ...]:
    ordered = sorted(cands, key=lambda j: (-abs(inst.coupling(i, j)), j))
    return tuple(ordered[:quota])


def _strong_loads(
    graph: DegreeGraph, picked: Dict[int, Tuple[int, ...]], t_set: set
) -> Dict[int, int]:
    """Condition 3: for each picked member, the picked strong edges at its outside neighbors."""
    strong_count: Dict[int, int] = {}
    for js in picked.values():
        for j in js:
            strong_count[j] = strong_count.get(j, 0) + 1
    return {
        i: sum(strong_count.get(j, 0) for j in graph.neighbors[i] if j not in t_set)
        for i in picked
    }


def _cross_coupling_test(
    inst: IsingInstance, params: TParams, constrained: ConstrainedContext
) -> Callable[[int], bool]:
    """Condition 4 as a test of one member, in exact integer arithmetic."""
    side = set(constrained.t1) | set(constrained.t2)
    v0_size = inst.n - len(side)
    rhs = params.c_cross * constrained.j_max * (len(constrained.t1) + len(constrained.t2))
    return lambda i: v0_size * sum(abs(inst.coupling(i, j)) for j in side) <= rhs


def _member_checks(
    inst: IsingInstance,
    t: Sequence[int],
    params: TParams,
    constrained: ConstrainedContext | None,
) -> Iterator[Tuple[int, bool, bool, Tuple[int, ...] | None]]:
    """Conditions 1 and 2 of each member of ``t`` and its strong-edge picks.

    Yields (member, condition 1, condition 2, picks).  The picks are the
    member's strongest qualifying outside partners (largest |J| first, ties
    to the lower index), at most the quota; they are None for an
    unconstrained member with no neighbor in ``t``, which is exempt.
    """
    graph = inst.degree_graph()
    t_set = set(t)
    quota = params.strong_edge_quota
    for i in t:
        internal = [k for k in graph.neighbors[i] if k in t_set]
        if constrained is None and not internal:
            yield i, True, True, None
            continue
        cands = _strong_candidates(inst, graph, i, internal, t_set | {i})
        yield (i, len(internal) <= params.internal_degree_cap, len(cands) >= quota,
               _greedy_select(inst, i, cands, quota))


def check_T(
    inst: IsingInstance,
    t: Iterable[int],
    params: TParams,
    constrained: ConstrainedContext | None = None,
) -> TSetCertificate:
    """Evaluate all certificate conditions for an explicit candidate set.

    Strong-edge selection is deterministic here (largest |J| first, ties to
    the lower index), so re-checking a returned certificate's set always
    reproduces the same verdict.  Condition 3 counts every member's picks.
    """
    t_sorted = tuple(sorted(set(t)))
    for i in t_sorted:
        if not 0 <= i < inst.n:
            raise ValueError("T member %d out of range" % i)
    if constrained is not None and set(t_sorted) & (set(constrained.t1) | set(constrained.t2)):
        raise ValueError("T must be disjoint from the side sets")
    members = list(_member_checks(inst, t_sorted, params, constrained))
    strong = {i: picks for i, _, _, picks in members if picks is not None}
    loads = _strong_loads(inst.degree_graph(), strong, set(t_sorted))
    checks: List[Tuple[str, bool]] = [
        ("internal_degree", all(ok1 for _, ok1, _, _ in members)),
        ("strong_edge_count", all(ok2 for _, _, ok2, _ in members)),
        ("strong_edge_load", all(load <= params.load_cap for load in loads.values())),
    ]
    if constrained is not None:
        cross_ok = _cross_coupling_test(inst, params, constrained)
        checks.append(("cross_coupling_bound", all(cross_ok(i) for i in t_sorted)))
    return TSetCertificate(
        t=t_sorted,
        strong_edges=tuple(sorted(strong.items())),
        params=params,
        checks=tuple(checks),
        constrained=constrained is not None,
    )


def _label_good(
    inst: IsingInstance,
    t0: List[int],
    params: TParams,
    constrained: ConstrainedContext | None,
) -> List[int]:
    """One labeling round: drop members violating any condition.

    Condition 3 counts only the picks of members that pass 1 and 2.
    """
    passed: Dict[int, Tuple[int, ...]] = {}
    bad: set = set()
    for i, ok1, ok2, picks in _member_checks(inst, t0, params, constrained):
        if not (ok1 and ok2):
            bad.add(i)
        elif picks is not None:
            passed[i] = picks
    for i, load in _strong_loads(inst.degree_graph(), passed, set(t0)).items():
        if load > params.load_cap:
            bad.add(i)
    if constrained is not None:
        cross_ok = _cross_coupling_test(inst, params, constrained)
        bad.update(i for i in t0 if i not in bad and not cross_ok(i))
    return [i for i in t0 if i not in bad]


def find_T_randomized(
    inst: IsingInstance,
    params: TParams | None = None,
    seed: int = 0,
    max_retries: int = 20,
    within: Sequence[int] | None = None,
    constrained: ConstrainedContext | None = None,
) -> TSetCertificate:
    """Sample members at rate epsilon, drop rule violators, re-certify.

    Retries with fresh samples until the surviving set passes ``check_T``
    and reaches ``target_fraction * epsilon * pool`` members; otherwise the
    best attempt is returned with ``ok`` False.
    """
    if params is None:
        params = TParams.for_instance(inst)
    if max_retries < 1:
        raise ValueError("max_retries must be >= 1")
    pool = list(range(inst.n)) if within is None else sorted(set(within))
    if constrained is not None:
        side = set(constrained.t1) | set(constrained.t2)
        pool = [i for i in pool if i not in side]
    target = max(1, math.ceil(params.target_fraction * params.epsilon * len(pool) - 1e-9))
    rng = rng_from(seed, _STREAM_TSET)
    best: TSetCertificate | None = None
    for attempt in range(1, max_retries + 1):
        draws = rng.random(len(pool))
        t0 = [i for i, u in zip(pool, draws) if u < params.epsilon]
        good = _label_good(inst, t0, params, constrained)
        cert = check_T(inst, good, params, constrained=constrained)
        cert = replace(
            cert,
            method="randomized(seed=%d,rule=greedy)" % seed,
            attempts=attempt,
            target_size=target,
        )
        if cert.ok:
            return cert
        if best is None or (cert.conditions_ok, len(cert.t)) > (
            best.conditions_ok,
            len(best.t),
        ):
            best = cert
    return best  # type: ignore[return-value]


@dataclass(frozen=True)
class T1T2Result:
    t1: Tuple[int, ...]
    t2: Tuple[int, ...]
    target: int
    ok: bool
    method: str = "greedy"
    attempts: int = 1


def _t2_candidates(graph: DegreeGraph, t1: Sequence[int]) -> List[int]:
    t1_set = set(t1)
    out = []
    for j in range(graph.n):
        if j in t1_set:
            continue
        if any(nb in t1_set for nb in graph.neighbors[j]):
            continue
        out.append(j)
    return out


def side_set_target(n: int, d: float, alpha: float) -> int:
    """Default side-set size floor(alpha * n * ln(d) / d) at average degree d."""
    return math.floor(alpha * n * math.log(d) / d)


def find_T1T2(
    graph: DegreeGraph,
    alpha: float = 0.5,
    target: int | None = None,
    seed: int = 0,
) -> T1T2Result:
    """Two equal-size sets with no coupling edges between them.

    The default target size is floor(alpha * n * ln(d) / d) with d the
    average degree.  Tries the lexicographically first candidate, then 50
    seeded random subsets, then (n <= 24) the first
    ``MAX_DETERMINISTIC_SUBSETS`` subsets in lexicographic order;
    returns ``ok=False`` when every strategy fails (e.g. complete graphs).
    """
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    n = graph.n
    if target is None:
        d = graph.average_degree
        if d < 2:
            raise ValueError("need average degree >= 2 to derive a target size")
        target = side_set_target(n, d, alpha)
    if target < 1:
        raise ValueError("target size must be >= 1")
    if 2 * target > n:
        return T1T2Result((), (), target, False, method="exhausted", attempts=0)

    def attempt(t1: Tuple[int, ...], method: str, tries: int) -> T1T2Result | None:
        cands = _t2_candidates(graph, t1)
        if len(cands) >= target:
            return T1T2Result(t1, tuple(cands[:target]), target, True, method, tries)
        return None

    res = attempt(tuple(range(target)), "greedy", 1)
    if res:
        return res
    rng = rng_from(seed, _STREAM_T1T2)
    for k in range(1, 51):
        t1 = tuple(sorted(int(x) for x in rng.choice(n, size=target, replace=False)))
        res = attempt(t1, "randomized(seed=%d)" % seed, k)
        if res:
            return res
    tries = 0
    if n <= MAX_DETERMINISTIC_N:
        for combo in combinations(range(n), target):
            tries += 1
            if tries > MAX_DETERMINISTIC_SUBSETS:
                break
            res = attempt(combo, "deterministic", tries)
            if res:
                return res
    return T1T2Result((), (), target, False, method="exhausted", attempts=tries)

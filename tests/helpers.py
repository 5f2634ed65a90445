"""Shared test utilities: seeded random instances and tiny oracles."""

from __future__ import annotations

import math
import tracemalloc
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations
from typing import Callable, Dict, Iterator, List, Mapping, Sequence, Tuple

import numpy as np

from spinscape.instance import (
    DEFAULT_BLOCK_BITS,
    MAX_ENUM_BITS,
    Assignment,
    EnumerationLimitError,
    IsingInstance,
    SplitScan,
    check_scan_bits,
    spin_block,
)
from spinscape.generators import ColumnInstance
from spinscape.landscape import (
    _ConnectedSets,
    _flip_survivors,
    _flip_terms,
    _k_checks,
    _member_spins,
)
from spinscape.rand import rng_from
from spinscape.solver import SolveResult, _largest_color_class, _validate_subset
from spinscape.tset import (
    _STREAM_TSET,
    MAX_DETERMINISTIC_N,
    MAX_DETERMINISTIC_SUBSETS,
    ConstrainedContext,
    TParams,
    TSetCertificate,
    _cross_coupling_test,
    _greedy_select,
    _strong_candidates,
    _strong_loads,
    check_T,
)


def rng_for(seed: int, stream: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, stream])))


def random_instance(
    seed: int,
    n: int | None = None,
    density: float | None = None,
    wmax: int = 5,
    allow_zero_field: bool = True,
) -> IsingInstance:
    """Random integer instance; J weights are nonzero, h may contain zeros."""
    rng = rng_for(seed)
    if n is None:
        n = int(rng.integers(2, 13))
    if density is None:
        density = float(rng.choice([0.1, 0.3, 0.7]))
    lo = -wmax if allow_zero_field else 1
    h = rng.integers(-wmax, wmax + 1, size=n)
    if not allow_zero_field:
        signs = rng.choice([-1, 1], size=n)
        h = signs * rng.integers(1, wmax + 1, size=n)
    triples = []
    for i, j in combinations(range(n), 2):
        if rng.random() < density:
            w = int(rng.integers(1, wmax + 1)) * int(rng.choice([-1, 1]))
            triples.append((i, j, w))
    c0 = int(rng.integers(-3, 4))
    return IsingInstance(n, [int(x) for x in h], triples, c0=c0)


def reference_couplings(inst: IsingInstance) -> np.ndarray:
    """Dense symmetric n x n int64 J, filled entry by entry from ``inst.couplings``."""
    rows = [[0] * inst.n for _ in range(inst.n)]
    for (i, j), w in inst.couplings.items():
        rows[i][j] = rows[j][i] = w
    return np.array(rows, dtype=np.int64).reshape(inst.n, inst.n)


def peak_mib(fn: Callable[[], object]) -> Tuple[object, float]:
    """``fn()`` and the peak MiB that tracemalloc saw while it ran."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def iter_rank_blocks(
    n: int, block_bits: int = DEFAULT_BLOCK_BITS
) -> Iterator[Tuple[int, int]]:
    """Yield (start_rank, count) covering all ranks 0..2^n - 1 in order."""
    check_scan_bits(n, "outer enumeration")
    total = 1 << n
    step = 1 << min(block_bits, n)
    for start in range(0, total, step):
        yield start, min(step, total - start)


def zero_energy_assignments(ci: ColumnInstance) -> List[Assignment]:
    """All assignments meeting every column-sum target, in lexicographic order."""
    n = ci.l**ci.f
    col_mat = np.zeros((n, len(ci.columns)), dtype=np.int16)
    for c, col in enumerate(ci.columns):
        for i in col:
            col_mat[i, c] = 1
    targets = np.array(ci.m_values, dtype=np.int64)
    out: List[Assignment] = []
    for start, count in iter_rank_blocks(n):
        sums = spin_block(n, start, count) @ col_mat
        hits = np.nonzero((sums == targets).all(axis=1))[0]
        out.extend(Assignment.from_rank(start + int(r), n) for r in hits)
    return out


def exhaustive_min(inst: IsingInstance) -> tuple[int, Assignment]:
    """Reference optimum: plain loop over ranks, first minimum wins (lex order)."""
    best_e = None
    best = None
    for r in range(1 << inst.n):
        a = Assignment.from_rank(r, inst.n)
        e = inst.energy(a)
        if best_e is None or e < best_e:
            best_e, best = e, a
    return best_e, best


def is_local_minimum(inst: IsingInstance, a: Assignment) -> bool:
    """True when every single flip strictly increases the energy.

    A zero local field makes some flip an energy tie, which already
    disqualifies the assignment: minima are strict here.
    """
    return all(inst.energy(a.flip(i)) - inst.energy(a) > 0 for i in range(inst.n))


def exhaustive_minima(inst: IsingInstance) -> list[Assignment]:
    """Reference strict single-flip minima via direct definition."""
    out = []
    for r in range(1 << inst.n):
        a = Assignment.from_rank(r, inst.n)
        if is_local_minimum(inst, a):
            out.append(a)
    return out


def is_k_minimum(inst: IsingInstance, a: Assignment, k: int) -> bool:
    """True when every change of 1..k variables strictly raises the energy."""
    if k < 1:
        raise ValueError("need k >= 1")
    if a.n != inst.n:
        raise ValueError("assignment does not match instance size")
    spins = np.array([[a.spin(i) for i in range(a.n)]], dtype=np.int64)
    sets = _ConnectedSets(inst, k)
    return bool(_k_checks(inst, spins, sets, strict=True, singles_known=False)[0])


def every_row(inst: IsingInstance, scan: SplitScan,
              outer: Sequence[int]) -> Tuple[np.ndarray, np.ndarray, list]:
    """Every row of a block, in order, with an empty T: the unscanned variables count as absent.

    ``scan`` scans ``outer`` of ``inst``.  With no members the filter adds
    nothing to any field, so ``_flip_survivors(scan, start, *every_row(inst,
    scan, outer), strict)`` reads each row's fields from the scanned spins
    alone.
    """
    size = 1 << scan.lo_bits
    return (np.arange(size), np.zeros((0, size), dtype=scan.dtype),
            _flip_terms(inst, scan, list(outer), []))


def negated(inst: IsingInstance) -> IsingInstance:
    """The instance of -E: c0, every field and every coupling negated."""
    return IsingInstance(inst.n, [-x for x in inst.h],
                         {e: -w for e, w in inst.couplings.items()}, c0=-inst.c0)


def member_filter_ranks(inst: IsingInstance, block_bits: int, strict: bool,
                        flipped: bool) -> np.ndarray:
    """Ranks of the assignments that the landscape's member and single-flip filters pass.

    T is the largest greedy color class and the other variables are
    scanned.  Each row of each block is tried with every setting of T's
    spins that ``_member_spins`` allows (a free member either way, its
    spins computed in one buffer reused for every block), and
    ``_flip_survivors`` tests the scanned variables.  ``flipped`` runs the
    filters on :func:`negated` ``inst``, so they test that no single flip
    lowers the energy.  The ranks are sorted.
    """
    if flipped:
        inst = negated(inst)
    n = inst.n
    t = list(_largest_color_class(inst.degree_graph())[0])
    outer = [v for v in range(n) if v not in t]
    scan = SplitScan(inst, block_bits, outer, range(n))
    assert t == sorted(t)
    terms = _flip_terms(inst, scan, outer, t)
    settings = spin_block(len(t), 0, 1 << len(t)).T.astype(scan.dtype)
    per_row = settings.shape[1]
    found = [np.zeros((0, n), dtype=np.int64)]
    buf = np.empty((len(t), 1 << scan.lo_bits), dtype=scan.dtype)
    for start in scan.starts:
        rows, spins = _member_spins(scan, start, t, strict=strict, out=buf)
        at, s = np.repeat(rows, per_row), np.tile(settings, len(rows))
        forced = np.repeat(spins, per_row, axis=1)
        allowed = ((forced == 0) | (forced == s)).all(axis=0)
        at, s = at[allowed], s[:, allowed]
        keep = _flip_survivors(scan, start, strict=strict, rows=at, spins=s, terms=terms)
        full = np.empty((len(keep), n), dtype=np.int64)
        full[:, outer] = spin_block(len(outer), start, 1 << scan.lo_bits)[at[keep]]
        full[:, t] = s[:, keep].T
        found.append(full)
    weights = np.int64(1) << (n - 1 - np.arange(n, dtype=np.int64))
    return np.sort((np.concatenate(found) > 0).astype(np.int64) @ weights)


def min_pairwise_hamming(assignments: Sequence[Assignment]) -> int:
    """Minimum Hamming distance over all pairs; n+1 when fewer than two items."""
    if not assignments:
        raise ValueError("need at least one assignment")
    if len(assignments) == 1:
        return assignments[0].n + 1
    return min((a.bits ^ b.bits).bit_count() for a, b in combinations(assignments, 2))


@dataclass(frozen=True)
class EffectiveView:
    """Induced problem on T after assigning its complement.

    ``h_eff[i]`` is h_i plus the couplings into the assigned outside,
    ``h_max[i]`` the total internal coupling weight of i.  Members with
    ``|h_eff[i]| >= h_max[i]`` are fixed (their ``forced`` spin opposes the
    field, +1 when the field is zero); the rest are free.
    """

    t: Tuple[int, ...]
    outer: Assignment
    h_eff: Mapping[int, int]
    h_max: Mapping[int, int]
    fixed: frozenset
    free: frozenset
    forced: Mapping[int, int]


def effective_view(inst: IsingInstance, t: Sequence[int], outer: Assignment) -> EffectiveView:
    """Effective fields and fixed/free classification of T for one outer assignment.

    ``outer`` assigns the complement of ``t`` in ascending variable order.
    """
    tt = _validate_subset(inst.n, t)
    t_set = set(tt)
    rest = [i for i in range(inst.n) if i not in t_set]
    if outer.n != len(rest):
        raise ValueError(
            "outer assignment covers %d variables, complement has %d"
            % (outer.n, len(rest))
        )
    jf = reference_couplings(inst)
    spins = np.array([outer.spin(i) for i in range(outer.n)], dtype=np.int64)
    h_eff: Dict[int, int] = {}
    h_max: Dict[int, int] = {}
    forced: Dict[int, int] = {}
    fixed = set()
    for i in tt:
        row = jf[i]
        he = inst.h[i] + int(row[rest] @ spins)
        hm = int(np.abs(row[list(tt)]).sum())
        h_eff[i] = he
        h_max[i] = hm
        if abs(he) >= hm:
            fixed.add(i)
            forced[i] = -1 if he > 0 else 1
    free = frozenset(t_set - fixed)
    return EffectiveView(tt, outer, h_eff, h_max, frozenset(fixed), free, forced)


def reference_signed_sum_counts(weights) -> tuple[list[int], int]:
    """Sign-sum outcome counts by plain list convolution, one weight at a time."""
    counts = [1]
    for x in weights:
        shift = 2 * abs(x)
        counts = [p + q for p, q in zip(counts + [0] * shift, [0] * shift + counts)]
    return counts, sum(abs(x) for x in weights)


def reference_max_interval_prob(weights, delta: int) -> tuple[int, Fraction]:
    """Best shift h for Pr(|X + h| <= delta) by direct window sums; smallest h wins."""
    counts, radius = reference_signed_sum_counts(weights)
    best_h, best = None, -1
    for h in range(-radius - delta, radius + delta + 1):
        lo, hi = max(-h - delta, -radius), min(-h + delta, radius)
        hits = sum(counts[v + radius] for v in range(lo, hi + 1))
        if hits > best:
            best_h, best = h, hits
    return best_h, Fraction(best, 1 << len(weights))


def reference_compute_Z(inst: IsingInstance, t, block_bits: int = DEFAULT_BLOCK_BITS) -> int:
    """Leaf count Z by rank blocks of +-1 spins and one int64 matmul per block.

    For every outer assignment, members of ``t`` whose effective field
    magnitude stays below their own internal coupling row weight must be
    enumerated; this sums 2**(number of such members).
    """
    tt = _validate_subset(inst.n, t)
    out = [i for i in range(inst.n) if i not in set(tt)]
    if len(out) > MAX_ENUM_BITS:
        raise EnumerationLimitError("outer enumeration too wide")
    h = np.array(inst.h, dtype=np.int64)
    jf = reference_couplings(inst)
    j_cross = jf[np.ix_(out, list(tt))]
    h_t = h[list(tt)] if tt else np.zeros(0, dtype=np.int64)
    h_max = np.abs(jf[np.ix_(list(tt), list(tt))]).sum(axis=1)
    z = 0
    for start, count in iter_rank_blocks(len(out), block_bits):
        spins = spin_block(len(out), start, count)
        heff = spins @ j_cross + h_t
        free_counts = (np.abs(heff) < h_max).sum(axis=1) if tt else np.zeros(count, dtype=np.int64)
        for width, rows in enumerate(np.bincount(free_counts)):
            z += int(rows) << width
    return z


def reference_side_minima(v: np.ndarray, d: np.ndarray, spins: np.ndarray,
                           own: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A side set's (rows x completions) minima and first argmins, in one 3-D product.

    Row r and completion c give the side set the fields ``v[r] + d[c]``;
    side row s (``spins[s]``, own energy ``own[s]``) then has energy
    ``(v[r] + d[c]) . spins[s] + own[s]``.  The whole (rows x completions x
    side rows) array is built by one batched int64 matmul.
    """
    w = (v[:, None, :] + d[None, :, :]) @ spins.T + own
    i = w.argmin(axis=2)
    return np.take_along_axis(w, i[..., None], axis=2)[..., 0], i


def reference_branch_and_recombine(
    inst: IsingInstance,
    variables: Sequence[int],
    solve_branch: Callable[[IsingInstance], SolveResult],
) -> tuple[int, Assignment, int, int, dict]:
    """Solve every spin assignment of ``variables`` by conditioning on it.

    Returns the optimal energy, the lex-smallest optimum over all branches
    (branches compare by (energy, rank)), the summed leaf and
    outer-assignment counts, and the counters that one scan with
    ``variables`` among its outer bits reports: the fixing counters summed
    over all branches, ``tie_rows`` summed over the optimal branches, and
    every other key (set sizes, ...) as the one value all branches share.
    """
    nb = len(variables)
    leaves = outers = 0
    results = []
    best = None
    for wr in range(1 << nb):
        fixed = {
            variables[k]: (1 if (wr >> (nb - 1 - k)) & 1 else -1) for k in range(nb)
        }
        sub, keep = inst.conditioned(fixed)
        res = solve_branch(sub)
        results.append(res)
        leaves += res.leaves_explored
        outers += res.outer_assignments
        bits = sum(1 << v for v, s in fixed.items() if s > 0)
        for q, v in enumerate(keep):
            if (res.best.bits >> q) & 1:
                bits |= 1 << v
        a = Assignment(inst.n, bits)
        rank = int(a.bitstring(), 2)
        if best is None or (res.energy, rank) < best[:2]:
            best = (res.energy, rank, a)
    assert best is not None
    e_star, _, assignment = best
    assert inst.energy(assignment) == e_star
    summed = ("strict_fixed", "boundary_fixed", "zero_field_fixed", "free_members")
    counters = {k: sum(r.counters[k] for r in results) for k in summed}
    counters["tie_rows"] = sum(r.counters["tie_rows"] for r in results if r.energy == e_star)
    for key in results[0].counters.keys() - counters.keys():
        values = {r.counters[key] for r in results}
        assert len(values) == 1, key
        counters[key] = values.pop()
    return e_star, assignment, leaves, outers, counters


def optimal_outer_patterns(inst: IsingInstance, outer: Sequence[int]) -> int:
    """Number of distinct assignments of ``outer`` among the exact optima."""
    e_star, _ = exhaustive_min(inst)
    patterns = set()
    for r in range(1 << inst.n):
        a = Assignment.from_rank(r, inst.n)
        if inst.energy(a) == e_star:
            patterns.add(tuple((a.bits >> v) & 1 for v in outer))
    return len(patterns)


# -- branching-set searches with no command-line caller --------------------


def find_T_deterministic(
    inst: IsingInstance,
    size: int,
    params: TParams | None = None,
    max_subsets: int = MAX_DETERMINISTIC_SUBSETS,
) -> TSetCertificate:
    """Lexicographic scan over all size-``size`` subsets; first pass wins."""
    if params is None:
        params = TParams.for_instance(inst)
    if inst.n > MAX_DETERMINISTIC_N:
        raise ValueError(
            "deterministic search is gated to n <= %d" % MAX_DETERMINISTIC_N
        )
    empty = replace(
        check_T(inst, (), params),
        method="deterministic",
        target_size=max(size, 1),
    )
    if size < 1 or size > inst.n:
        return empty
    seen = 0
    for combo in combinations(range(inst.n), size):
        seen += 1
        if seen > max_subsets:
            break
        cert = check_T(inst, combo, params)
        if cert.conditions_ok:
            return replace(cert, method="deterministic", attempts=seen, target_size=size)
    return replace(empty, attempts=min(seen, max_subsets))


@dataclass(frozen=True)
class GoodSetResult:
    t: Tuple[int, ...]
    t0: Tuple[int, ...]
    epsilon: float
    threshold_doubled: int  # good needs 2 * count >= floor(1/epsilon)
    ok: bool
    attempts: int


_STREAM_NONSPARSE = 23


def good_set_nonsparse(
    inst: IsingInstance,
    epsilon: float | None = None,
    seed: int = 0,
    max_retries: int = 20,
) -> GoodSetResult:
    """Dense-graph variant: sample floor(epsilon*n) members, keep the "good" ones.

    A member is good when at least half of floor(1/epsilon) outside vertices
    carry a coupling magnitude at least matching the member's strongest
    coupling into the sample (vertices with no sampled neighbor match
    trivially).  Success means keeping at least half the sample.
    """
    n = inst.n
    if n < 2:
        raise ValueError("need n >= 2")
    if epsilon is None:
        epsilon = math.log2(n) / n
    if not 0.0 < epsilon <= 1.0:
        raise ValueError("epsilon must lie in (0, 1]")
    size0 = math.floor(epsilon * n)
    if size0 < 1:
        raise ValueError("epsilon * n too small: empty sample")
    inv = math.floor(1.0 / epsilon)
    graph = inst.degree_graph()
    rng = rng_from(seed, _STREAM_NONSPARSE)
    best: GoodSetResult | None = None
    for attempt in range(1, max_retries + 1):
        t0 = sorted(int(x) for x in rng.choice(n, size=size0, replace=False))
        t0_set = set(t0)
        good = []
        for i in t0:
            strongest = max((abs(inst.coupling(i, k)) for k in graph.neighbors[i]
                             if k in t0_set), default=0)
            cands = _strong_candidates(inst, graph, i, t0, t0_set)
            count = len(cands) if strongest else n - size0
            if 2 * count >= inv:
                good.append(i)
        ok = 2 * len(good) >= size0
        res = GoodSetResult(tuple(good), tuple(t0), epsilon, inv, ok, attempt)
        if ok:
            return res
        if best is None or len(res.t) > len(best.t):
            best = res
    return best  # type: ignore[return-value]


# -- the T-set conditions, member by member, as two separate loops ----------


def reference_check_T(
    inst: IsingInstance,
    t,
    params: TParams,
    constrained: ConstrainedContext | None = None,
) -> TSetCertificate:
    """Every certificate condition of ``t``, each member checked in one loop.

    Condition 3 counts the greedy picks of every non-exempt member.
    """
    t_sorted = tuple(sorted(set(t)))
    graph = inst.degree_graph()
    t_set = set(t_sorted)
    quota = params.strong_edge_quota
    internal_ok = count_ok = True
    strong: Dict[int, Tuple[int, ...]] = {}
    for i in t_sorted:
        internal = [k for k in graph.neighbors[i] if k in t_set]
        if len(internal) > params.internal_degree_cap:
            internal_ok = False
        if constrained is None and not internal:
            continue
        cands = _strong_candidates(inst, graph, i, internal, t_set | {i})
        if len(cands) < quota:
            count_ok = False
        strong[i] = _greedy_select(inst, i, cands, quota)
    loads = _strong_loads(graph, strong, t_set)
    checks = [
        ("internal_degree", internal_ok),
        ("strong_edge_count", count_ok),
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


def reference_label_good(
    inst: IsingInstance,
    t0,
    params: TParams,
    constrained: ConstrainedContext | None,
) -> list:
    """One labeling round in its own loop: members failing condition 1 or 2
    are dropped before the greedy picks, and condition 3 counts only the
    picks of the members that remain."""
    graph = inst.degree_graph()
    t0_set = set(t0)
    quota = params.strong_edge_quota
    passed12: Dict[int, Tuple[int, ...]] = {}
    bad: set = set()
    for i in t0:
        internal = [k for k in graph.neighbors[i] if k in t0_set]
        if constrained is None and not internal:
            continue
        if len(internal) > params.internal_degree_cap:
            bad.add(i)
            continue
        cands = _strong_candidates(inst, graph, i, internal, t0_set | {i})
        if len(cands) < quota:
            bad.add(i)
            continue
        passed12[i] = _greedy_select(inst, i, cands, quota)
    for i, load in _strong_loads(graph, passed12, t0_set).items():
        if load > params.load_cap:
            bad.add(i)
    if constrained is not None:
        cross_ok = _cross_coupling_test(inst, params, constrained)
        bad.update(i for i in t0 if not cross_ok(i))
    return [i for i in t0 if i not in bad]


def reference_find_T_randomized(
    inst: IsingInstance,
    params: TParams | None = None,
    seed: int = 0,
    max_retries: int = 20,
    within=None,
    constrained: ConstrainedContext | None = None,
) -> TSetCertificate:
    """The randomized T-set search over :func:`reference_label_good` and
    :func:`reference_check_T`, drawing the same samples."""
    if params is None:
        params = TParams.for_instance(inst)
    pool = list(range(inst.n)) if within is None else sorted(set(within))
    if constrained is not None:
        side = set(constrained.t1) | set(constrained.t2)
        pool = [i for i in pool if i not in side]
    target = max(1, math.ceil(params.target_fraction * params.epsilon * len(pool) - 1e-9))
    rng = rng_from(seed, _STREAM_TSET)
    best = None
    for attempt in range(1, max_retries + 1):
        draws = rng.random(len(pool))
        t0 = [i for i, u in zip(pool, draws) if u < params.epsilon]
        good = reference_label_good(inst, t0, params, constrained)
        cert = replace(reference_check_T(inst, good, params, constrained),
                       method="randomized(seed=%d,rule=greedy)" % seed,
                       attempts=attempt, target_size=target)
        if cert.ok:
            return cert
        if best is None or (cert.conditions_ok, len(cert.t)) > (best.conditions_ok, len(best.t)):
            best = cert
    return best

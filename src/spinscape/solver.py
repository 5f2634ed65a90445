"""Exact minimization via effective-field branch pruning.

The core routine scans every assignment of an "outer" variable set and
analyzes the remaining set T through its effective fields.  A member i of
T whose effective field magnitude reaches ``h_max_i``, its total internal
coupling weight, takes the sign opposing its field at some optimum
regardless of the other members, so only the remaining "free" members are
enumerated.  Summed over outer assignments, the number of enumerated
completions is the leaf count that :func:`compute_Z` predicts
independently.

Exactness of the returned assignment, not only the energy, needs care: a
member whose field magnitude *equals* ``h_max_i`` may have optima of both
signs, and a zero field under ``h_max_i == 0`` carries no preference at
all.  A second pass therefore revisits the outer assignments that achieve
the optimal energy and enumerates every non-strictly-fixed member,
forcing only the strictly dominated ones, which yields the
lexicographically smallest optimum (bit of variable 0 compared first,
spin -1 before +1).  All arithmetic stays in 64-bit integers, so results
are exact.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .instance import (
    DEFAULT_BLOCK_BITS,
    MAX_ENUM_BITS,
    Assignment,
    DegreeGraph,
    EnumerationLimitError,
    IsingInstance,
    SplitScan,
    block_energies,  # noqa: F401  perfbench/tracing.py wraps it under this name
    iter_rank_blocks,
    spin_block,
)
from .tset import (
    ConstrainedContext,
    TParams,
    TSetCertificate,
    find_T1T2,
    find_T_randomized,
)

DEFAULT_TIE_ROW_CAP = 4096
COMPLETION_CAP_BITS = 20
AUTO_DEGREE_GATE = 16
_CHUNK_CELLS = 1 << 22


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
    spin_of = {v: outer.spin(k) for k, v in enumerate(rest)}
    h_eff: Dict[int, int] = {}
    h_max: Dict[int, int] = {}
    forced: Dict[int, int] = {}
    fixed = set()
    for i in tt:
        he = inst.h[i]
        hm = 0
        for j, w in _coupling_row(inst, i):
            if j in t_set:
                hm += abs(w)
            else:
                he += w * spin_of[j]
        h_eff[i] = he
        h_max[i] = hm
        if abs(he) >= hm:
            fixed.add(i)
            forced[i] = -1 if he > 0 else 1
    free = frozenset(t_set - fixed)
    return EffectiveView(tt, outer, h_eff, h_max, frozenset(fixed), free, forced)


def _coupling_row(inst: IsingInstance, i: int):
    for (a, b), w in inst.couplings.items():
        if a == i:
            yield b, w
        elif b == i:
            yield a, w


@dataclass(frozen=True)
class SolveResult:
    """Outcome of an exact solve.

    ``best`` is the lexicographically smallest optimal assignment,
    ``leaves_explored`` the number of fully enumerated completions and
    ``outer_assignments`` the number of scanned outer configurations.
    ``counters`` holds integer diagnostics (fixed/free totals, tie rows,
    whether the repair pass fell back to a full rescan).
    """

    best: Assignment
    energy: int
    leaves_explored: int
    outer_assignments: int
    method: str
    counters: Mapping[str, int]

    def to_json_dict(self) -> dict:
        return {
            "energy": self.energy,
            "assignment": self.best.bitstring(),
            "leaves_explored": self.leaves_explored,
            "outer_assignments": self.outer_assignments,
            "method": self.method,
            "counters": dict(self.counters),
        }


def _merge_counters(total: Dict[str, int], part: Mapping[str, int]) -> None:
    for k, v in part.items():
        total[k] = total.get(k, 0) + int(v)


def _outer_bits(rank: int, out: Sequence[int]) -> int:
    """Bit mask over the full variable range for an outer-enumeration rank."""
    bits = 0
    n_out = len(out)
    for k, v in enumerate(out):
        if (rank >> (n_out - 1 - k)) & 1:
            bits |= 1 << v
    return bits


def _bits_rank(bits: int, n: int) -> int:
    """Big-integer sort key putting variable 0 in the most significant slot."""
    r = 0
    for i in range(n):
        r = (r << 1) | ((bits >> i) & 1)
    return r


def _validate_subset(n: int, t: Sequence[int]) -> Tuple[int, ...]:
    seen = sorted(dict.fromkeys(int(i) for i in t))
    if seen and not (0 <= seen[0] and seen[-1] < n):
        raise ValueError("subset member out of range")
    return tuple(seen)


class _EffectiveFieldEngine:
    """Shared machinery for scanning outer assignments against a set T."""

    def __init__(self, inst: IsingInstance, t: Sequence[int], block_bits: int):
        self.inst = inst
        self.t = _validate_subset(inst.n, t)
        n = inst.n
        out = [i for i in range(n) if i not in set(self.t)]
        self.out = tuple(out)
        self.n_out = len(out)
        if self.n_out > MAX_ENUM_BITS:
            raise EnumerationLimitError(
                "outer enumeration needs %d bits, limit is %d"
                % (self.n_out, MAX_ENUM_BITS)
            )
        self.block_bits = block_bits
        h = np.array(inst.h, dtype=np.int64)
        self.h_out = h[out] if out else np.zeros(0, dtype=np.int64)
        self.h_t = h[list(self.t)] if self.t else np.zeros(0, dtype=np.int64)
        jf = inst.full_coupling_matrix()
        self.j_cross = jf[np.ix_(out, list(self.t))]
        self.j_tt = jf[np.ix_(list(self.t), list(self.t))]
        self.m = len(self.t)
        # per-member fixing threshold: i's own total internal coupling weight
        self.h_max = np.abs(self.j_tt).sum(axis=1)
        self.has_internal = bool(self.m) and bool(np.any(self.j_tt))
        opos = {v: k for k, v in enumerate(out)}
        oo = [(opos[i], opos[j], w) for i, j, w in inst.edges() if i in opos and j in opos]
        self.oo_i = np.array([e[0] for e in oo], dtype=np.int64)
        self.oo_j = np.array([e[1] for e in oo], dtype=np.int64)
        self.oo_w = np.array([e[2] for e in oo], dtype=np.int64)

    def outer_energies(self, spins: np.ndarray) -> np.ndarray:
        e = spins @ self.h_out + self.inst.c0
        if self.oo_w.size:
            e = e + (spins[:, self.oo_i] * spins[:, self.oo_j]) @ self.oo_w
        return e

    def effective_fields(self, spins: np.ndarray) -> np.ndarray:
        return spins @ self.j_cross + self.h_t

    def _t_minima(self, heff: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Exact minimum of the T subproblem for each row of ``heff``.

        Returns (per-row minimum, per-row free-member count).
        """
        if self.m == 0:
            z = np.zeros(heff.shape[0], dtype=np.int64)
            return z, z.copy()
        aheff = np.abs(heff)
        fixed = aheff >= self.h_max
        free = ~fixed
        popc = free.sum(axis=1)
        e_t = -(np.where(fixed, aheff, 0)).sum(axis=1)
        if not self.has_internal:
            # no internal couplings at all: every member is fixed and the
            # field terms above are the whole story
            return e_t, popc
        uniq, inverse = np.unique(free, axis=0, return_inverse=True)
        inverse = np.ravel(inverse)
        for k in range(uniq.shape[0]):
            pat = uniq[k]
            rows = np.flatnonzero(inverse == k)
            fidx = np.flatnonzero(pat)
            xidx = np.flatnonzero(~pat)
            if fidx.size > MAX_ENUM_BITS:
                raise EnumerationLimitError(
                    "free-set enumeration needs %d bits" % fidx.size
                )
            s_x = np.where(heff[np.ix_(rows, xidx)] > 0, -1, 1).astype(np.int64)
            if xidx.size:
                j_xx = self.j_tt[np.ix_(xidx, xidx)]
                e_t[rows] += ((s_x @ j_xx) * s_x).sum(axis=1) // 2
            if fidx.size:
                g = heff[np.ix_(rows, fidx)] + s_x @ self.j_tt[np.ix_(xidx, fidx)]
                j_ff = self.j_tt[np.ix_(fidx, fidx)]
                s_f = spin_block(int(fidx.size), 0, 1 << int(fidx.size)).astype(np.int64)
                q = ((s_f @ j_ff) * s_f).sum(axis=1) // 2
                step = max(1, _CHUNK_CELLS >> int(fidx.size))
                mins = np.empty(rows.size, dtype=np.int64)
                for a in range(0, rows.size, step):
                    sl = slice(a, min(a + step, rows.size))
                    mins[sl] = (g[sl] @ s_f.T + q).min(axis=1)
                e_t[rows] += mins
        return e_t, popc

    def block_totals(self, start: int, count: int) -> np.ndarray:
        spins = spin_block(self.n_out, start, count)
        heff = self.effective_fields(spins)
        e_t, _ = self._t_minima(heff)
        return self.outer_energies(spins) + e_t

    def scan_block(self, start: int, count: int) -> Tuple[int, List[int], Dict[str, int]]:
        spins = spin_block(self.n_out, start, count)
        heff = self.effective_fields(spins)
        e_t, popc = self._t_minima(heff)
        e_total = self.outer_energies(spins) + e_t
        bmin = int(e_total.min())
        bc = [int(c) for c in np.bincount(popc)]
        if self.m:
            aheff = np.abs(heff)
            strict = int((aheff > self.h_max).sum())
            boundary = int(((aheff == self.h_max) & (self.h_max > 0)).sum())
            # a zero field can only be "fixed" when the member has no
            # internal couplings, so no branch exploration is ever needed
            zero_field = int(((heff == 0) & (self.h_max == 0)).sum())
        else:
            strict = boundary = zero_field = 0
        counters = {
            "strict_fixed": strict,
            "boundary_fixed": boundary,
            "zero_field_fixed": zero_field,
            "free_members": int(popc.sum()),
        }
        return bmin, bc, counters

    def lex_complete(self, rank: int, e_star: int) -> Optional[int]:
        """Lex-smallest optimal completion for one tying outer assignment.

        Returns the full bit mask, or None when the completion enumeration
        would be too wide (caller falls back to a full rescan).
        """
        spins = spin_block(self.n_out, rank, 1)
        e_out = int(self.outer_energies(spins)[0])
        target = e_star - e_out
        if self.m == 0:
            if target != 0:
                raise AssertionError("tying row lost its optimum")
            return _outer_bits(rank, self.out)
        heff = self.effective_fields(spins)[0]
        strict = np.abs(heff) > self.h_max
        ns = np.flatnonzero(~strict)
        k = int(ns.size)
        if k > COMPLETION_CAP_BITS:
            return None
        base = np.where(heff > 0, -1, 1).astype(np.int64)
        total = 1 << k
        step = min(total, 1 << 16)
        for cstart in range(0, total, step):
            cnt = min(step, total - cstart)
            s = np.tile(base, (cnt, 1))
            if k:
                s[:, ns] = spin_block(k, cstart, cnt)
            e_t = s @ heff + ((s @ self.j_tt) * s).sum(axis=1) // 2
            hits = np.flatnonzero(e_t == target)
            if hits.size:
                row = s[int(hits[0])]
                bits = _outer_bits(rank, self.out)
                for pos, v in enumerate(self.t):
                    if row[pos] > 0:
                        bits |= 1 << v
                return bits
        raise AssertionError("tying row lost its optimum")


def _scan_all(
    engine: _EffectiveFieldEngine, workers: int
) -> Tuple[int, int, Dict[str, int], List[Tuple[int, int]], List[int]]:
    """Phase one: exact optimal energy plus counters over all outer blocks."""
    blocks = list(iter_rank_blocks(engine.n_out, engine.block_bits))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            parts = list(ex.map(lambda b: engine.scan_block(*b), blocks))
    else:
        parts = [engine.scan_block(*b) for b in blocks]
    e_star: Optional[int] = None
    leaves = 0
    counters: Dict[str, int] = {}
    block_mins: List[int] = []
    for bmin, bc, cnt in parts:
        block_mins.append(bmin)
        if e_star is None or bmin < e_star:
            e_star = bmin
        for width, rows in enumerate(bc):
            leaves += rows << width
        _merge_counters(counters, cnt)
    assert e_star is not None
    return e_star, leaves, counters, blocks, block_mins


def _brute_assignment(inst: IsingInstance, e_star: int, block_bits: int) -> Assignment:
    """Lex-smallest assignment at a known optimal energy, by full rescan."""
    scan = SplitScan(inst, block_bits)
    for start in scan.starts:
        hits = np.flatnonzero(scan.energies(start) == e_star)
        if hits.size:
            return Assignment.from_rank(start + int(hits[0]), inst.n)
    raise AssertionError("target energy vanished on rescan")


def _solve_with_T(
    inst: IsingInstance,
    t: Sequence[int],
    method: str,
    block_bits: int = DEFAULT_BLOCK_BITS,
    workers: int = 1,
    tie_row_cap: int = DEFAULT_TIE_ROW_CAP,
) -> SolveResult:
    engine = _EffectiveFieldEngine(inst, t, block_bits)
    e_star, leaves, counters, blocks, block_mins = _scan_all(engine, workers)

    tie_ranks: List[int] = []
    over_cap = False
    for (start, count), bmin in zip(blocks, block_mins):
        if bmin != e_star:
            continue
        rows = np.flatnonzero(engine.block_totals(start, count) == e_star)
        tie_ranks.extend(start + int(r) for r in rows)
        if len(tie_ranks) > tie_row_cap:
            over_cap = True
            break
    counters["tie_rows"] = min(len(tie_ranks), tie_row_cap + 1)
    counters["repair_rescan"] = 0

    best_bits: Optional[int] = None
    if over_cap and inst.n <= MAX_ENUM_BITS:
        best_bits = _brute_assignment(inst, e_star, block_bits).bits
        counters["repair_rescan"] = 1
    else:
        best_key: Optional[int] = None
        for rank in tie_ranks:
            bits = engine.lex_complete(rank, e_star)
            if bits is None:
                if inst.n <= MAX_ENUM_BITS:
                    best_bits = _brute_assignment(inst, e_star, block_bits).bits
                    counters["repair_rescan"] = 1
                    break
                raise EnumerationLimitError(
                    "too many undetermined members to enumerate completions"
                )
            key = _bits_rank(bits, inst.n)
            if best_key is None or key < best_key:
                best_key = key
                best_bits = bits
    assert best_bits is not None
    best = Assignment(inst.n, best_bits)
    if inst.energy(best) != e_star:
        raise AssertionError("returned assignment does not match the optimum")
    return SolveResult(
        best=best,
        energy=e_star,
        leaves_explored=leaves,
        outer_assignments=1 << engine.n_out,
        method=method,
        counters=counters,
    )


def solve_brute(
    inst: IsingInstance,
    block_bits: int = DEFAULT_BLOCK_BITS,
    workers: int = 1,
) -> SolveResult:
    """Reference solver: scan all assignments, keep the first optimum.

    Ranks ascend in lexicographic order of the bit tuple, so the first
    minimum encountered is the lexicographically smallest one.
    """
    n = inst.n
    split = SplitScan(inst, block_bits)

    def scan(start: int) -> Tuple[int, int]:
        e = split.energies(start)
        k = int(np.argmin(e))
        return int(e[k]), start + k

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            parts = list(ex.map(scan, split.starts))
    else:
        parts = [scan(s) for s in split.starts]
    best_e, best_rank = parts[0]
    for e, r in parts[1:]:
        if e < best_e:
            best_e, best_rank = e, r
    return SolveResult(
        best=Assignment.from_rank(best_rank, n),
        energy=best_e,
        leaves_explored=1 << n,
        outer_assignments=1 << n,
        method="brute",
        counters={"tie_rows": 0, "repair_rescan": 0},
    )


def compute_Z(inst: IsingInstance, t: Sequence[int], block_bits: int = DEFAULT_BLOCK_BITS) -> int:
    """Predicted leaf count of the effective-field scan for the set ``t``.

    For every outer assignment, members of ``t`` whose effective field
    magnitude stays below their own internal coupling row weight must be
    enumerated; this sums 2**(number of such members).  Kept separate from
    the solver so the two can be compared as independent computations.
    """
    tt = _validate_subset(inst.n, t)
    out = [i for i in range(inst.n) if i not in set(tt)]
    if len(out) > MAX_ENUM_BITS:
        raise EnumerationLimitError("outer enumeration too wide")
    h = np.array(inst.h, dtype=np.int64)
    jf = inst.full_coupling_matrix()
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


def greedy_coloring(graph: DegreeGraph) -> List[int]:
    """Smallest-available-color assignment in index order."""
    colors = [-1] * graph.n
    for i in range(graph.n):
        used = {colors[j] for j in graph.neighbors[i] if colors[j] >= 0}
        c = 0
        while c in used:
            c += 1
        colors[i] = c
    return colors


def _largest_color_class(graph: DegreeGraph) -> Tuple[Tuple[int, ...], int]:
    colors = greedy_coloring(graph)
    n_colors = max(colors) + 1 if colors else 0
    classes: List[List[int]] = [[] for _ in range(n_colors)]
    for v, c in enumerate(colors):
        classes[c].append(v)
    best = max(range(n_colors), key=lambda c: (len(classes[c]), -c))
    return tuple(classes[best]), n_colors


def solve_coloring_baseline(
    inst: IsingInstance,
    block_bits: int = DEFAULT_BLOCK_BITS,
    workers: int = 1,
    tie_row_cap: int = DEFAULT_TIE_ROW_CAP,
) -> SolveResult:
    """Baseline: T is the largest greedy color class (an independent set).

    Independence means no internal couplings, so every member is fixed by
    its effective field and the leaf count equals the number of outer
    assignments.
    """
    t, n_colors = _largest_color_class(inst.degree_graph())
    res = _solve_with_T(inst, t, "coloring", block_bits, workers, tie_row_cap)
    counters = dict(res.counters)
    counters["colors"] = n_colors
    counters["t_size"] = len(t)
    return SolveResult(
        res.best, res.energy, res.leaves_explored, res.outer_assignments,
        res.method, counters,
    )


def _auto_t(
    inst: IsingInstance,
    params: Optional[TParams],
    seed: int,
) -> Tuple[Tuple[int, ...], str]:
    """Pick a set T for :func:`solve_effective` when no certificate is given."""
    graph = inst.degree_graph()
    if graph.max_degree >= AUTO_DEGREE_GATE:
        cert = find_T_randomized(inst, params, seed=seed)
        if cert.ok and inst.n - len(cert.t) <= MAX_ENUM_BITS:
            return cert.t, "effective-field"
    t, _ = _largest_color_class(graph)
    if inst.n - len(t) <= MAX_ENUM_BITS:
        return t, "effective-field:coloring-fallback"
    raise EnumerationLimitError("no branching set keeps the scan within limits")


def solve_effective(
    inst: IsingInstance,
    cert: Optional[TSetCertificate] = None,
    params: Optional[TParams] = None,
    seed: int = 0,
    block_bits: int = DEFAULT_BLOCK_BITS,
    workers: int = 1,
    tie_row_cap: int = DEFAULT_TIE_ROW_CAP,
) -> SolveResult:
    """Exact solve branching on a certified set T.

    With an explicit certificate the scan always runs over its set.  The
    automatic path searches for a certificate only when the maximum degree
    reaches ``AUTO_DEGREE_GATE`` and otherwise falls back to the coloring
    baseline, then to a plain scan, tagging the method string accordingly.
    """
    if cert is not None:
        if not cert.ok:
            raise ValueError("certificate did not validate; refusing to branch on it")
        return _solve_with_T(inst, cert.t, "effective-field", block_bits, workers, tie_row_cap)
    t, method = _auto_t(inst, params, seed)
    return _solve_with_T(inst, t, method, block_bits, workers, tie_row_cap)


def _lex_min_result(
    candidates: List[Tuple[int, int, int]], n: int
) -> Tuple[int, int]:
    """Pick (energy, bits) minimizing energy, then the full bit-tuple order."""
    best_e: Optional[int] = None
    best_key: Optional[int] = None
    best_bits = 0
    for e, bits, key in candidates:
        if best_e is None or e < best_e or (e == best_e and key < best_key):
            best_e, best_key, best_bits = e, key, bits
    assert best_e is not None
    return best_e, best_bits


def solve_avg_degree(
    inst: IsingInstance,
    seed: int = 0,
    degree_factor: float = 2.0,
    block_bits: int = DEFAULT_BLOCK_BITS,
    workers: int = 1,
    tie_row_cap: int = DEFAULT_TIE_ROW_CAP,
) -> SolveResult:
    """Exact solve that enumerates the high-degree variables outright.

    Variables with degree above ``degree_factor`` times the average are
    assigned explicitly; each branch conditions the instance and solves the
    low-degree remainder.  The branching-set search runs once (couplings do
    not change across branches) and its choice is reused.
    """
    graph = inst.degree_graph()
    avg = graph.average_degree
    wbar = [i for i in range(inst.n) if graph.degrees[i] > degree_factor * avg]
    if not wbar:
        res = solve_effective(
            inst, seed=seed, block_bits=block_bits, workers=workers, tie_row_cap=tie_row_cap
        )
        counters = dict(res.counters)
        counters["branches"] = 1
        counters["enumerated_vars"] = 0
        return SolveResult(
            res.best, res.energy, res.leaves_explored, res.outer_assignments,
            "avg-degree:" + res.method, counters,
        )
    if len(wbar) > MAX_ENUM_BITS:
        raise EnumerationLimitError("too many high-degree variables to enumerate")
    nb = len(wbar)
    strategy: Optional[Tuple[Tuple[int, ...], str]] = None
    leaves = 0
    outers = 0
    counters: Dict[str, int] = {"branches": 1 << nb, "enumerated_vars": nb}
    candidates: List[Tuple[int, int, int]] = []
    for wr in range(1 << nb):
        fixed = {
            wbar[k]: (1 if (wr >> (nb - 1 - k)) & 1 else -1) for k in range(nb)
        }
        sub, keep = inst.conditioned(fixed)
        if strategy is None:
            strategy = _auto_t(sub, None, seed)
        res = _solve_with_T(
            sub, strategy[0], strategy[1], block_bits, workers, tie_row_cap
        )
        leaves += res.leaves_explored
        outers += res.outer_assignments
        _merge_counters(counters, {k: v for k, v in res.counters.items()})
        bits = sum(1 << v for v, s in fixed.items() if s > 0)
        for q, v in enumerate(keep):
            if (res.best.bits >> q) & 1:
                bits |= 1 << v
        candidates.append((res.energy, bits, _bits_rank(bits, inst.n)))
    e_star, best_bits = _lex_min_result(candidates, inst.n)
    best = Assignment(inst.n, best_bits)
    if inst.energy(best) != e_star:
        raise AssertionError("recombined assignment does not match the optimum")
    assert strategy is not None
    return SolveResult(
        best, e_star, leaves, outers, "avg-degree:" + strategy[1], counters
    )


class _CombinedEngine:
    """Outer scan over V0 minus T with two decoupled side sets.

    T1 and T2 share no coupling edge, so once the outer variables and T are
    assigned, each side set is optimized independently; the costs add
    instead of multiplying.  The fixing threshold of a member of T is its
    total coupling weight into T, T1 and T2 jointly, so a dominated member
    stays dominated whatever the side sets do.
    """

    def __init__(
        self,
        inst: IsingInstance,
        t: Sequence[int],
        t1: Sequence[int],
        t2: Sequence[int],
        block_bits: int,
    ):
        self.inst = inst
        self.t = _validate_subset(inst.n, t)
        self.t1 = _validate_subset(inst.n, t1)
        self.t2 = _validate_subset(inst.n, t2)
        groups = set(self.t) | set(self.t1) | set(self.t2)
        if len(groups) != len(self.t) + len(self.t1) + len(self.t2):
            raise ValueError("t, t1 and t2 must be pairwise disjoint")
        self.out = tuple(i for i in range(inst.n) if i not in groups)
        self.n_out = len(self.out)
        if self.n_out > MAX_ENUM_BITS:
            raise EnumerationLimitError("outer enumeration too wide")
        self.block_bits = block_bits
        self.m = len(self.t)
        a, b = len(self.t1), len(self.t2)
        if max(a, b) > COMPLETION_CAP_BITS:
            raise EnumerationLimitError("side sets too large to enumerate")
        h = np.array(inst.h, dtype=np.int64)
        jf = inst.full_coupling_matrix()
        if np.any(jf[np.ix_(list(self.t1), list(self.t2))]):
            raise ValueError("t1 and t2 must not share coupling edges")
        out = list(self.out)
        self.h_out = h[out] if out else np.zeros(0, dtype=np.int64)
        self.h_t = h[list(self.t)] if self.t else np.zeros(0, dtype=np.int64)
        self.h_t1 = h[list(self.t1)]
        self.h_t2 = h[list(self.t2)]
        inner = list(self.t) + list(self.t1) + list(self.t2)
        j_inner = jf[np.ix_(inner, inner)]
        # per-member threshold over the whole inner region: a fixed member
        # of T stays dominated whatever T's free part and the side sets do
        self.h_max = np.abs(j_inner).sum(axis=1)[: self.m]
        self.j_cross_t = jf[np.ix_(out, list(self.t))]
        self.j_cross_1 = jf[np.ix_(out, list(self.t1))]
        self.j_cross_2 = jf[np.ix_(out, list(self.t2))]
        self.j_tt = jf[np.ix_(list(self.t), list(self.t))]
        self.j_t_1 = jf[np.ix_(list(self.t), list(self.t1))]
        self.j_t_2 = jf[np.ix_(list(self.t), list(self.t2))]
        j_11 = jf[np.ix_(list(self.t1), list(self.t1))]
        j_22 = jf[np.ix_(list(self.t2), list(self.t2))]
        self.s1 = spin_block(a, 0, 1 << a).astype(np.int64)
        self.q1 = ((self.s1 @ j_11) * self.s1).sum(axis=1) // 2
        self.s2 = spin_block(b, 0, 1 << b).astype(np.int64)
        self.q2 = ((self.s2 @ j_22) * self.s2).sum(axis=1) // 2
        opos = {v: k for k, v in enumerate(out)}
        oo = [(opos[i], opos[j], w) for i, j, w in inst.edges() if i in opos and j in opos]
        self.oo_i = np.array([e[0] for e in oo], dtype=np.int64)
        self.oo_j = np.array([e[1] for e in oo], dtype=np.int64)
        self.oo_w = np.array([e[2] for e in oo], dtype=np.int64)

    def outer_energies(self, spins: np.ndarray) -> np.ndarray:
        e = spins @ self.h_out + self.inst.c0
        if self.oo_w.size:
            e = e + (spins[:, self.oo_i] * spins[:, self.oo_j]) @ self.oo_w
        return e

    def _side_minima(self, v1: np.ndarray, v2: np.ndarray) -> np.ndarray:
        """min over T1 plus min over T2 for batches of field vectors."""
        m1 = (v1 @ self.s1.T + self.q1).min(axis=1)
        m2 = (v2 @ self.s2.T + self.q2).min(axis=1)
        return m1 + m2

    def block_totals(self, start: int, count: int) -> Tuple[np.ndarray, np.ndarray]:
        """Exact per-row optimum and free-member counts for one block."""
        spins = spin_block(self.n_out, start, count)
        e_out = self.outer_energies(spins)
        base1 = spins @ self.j_cross_1 + self.h_t1
        base2 = spins @ self.j_cross_2 + self.h_t2
        if self.m == 0:
            popc = np.zeros(count, dtype=np.int64)
            return e_out + self._side_minima(base1, base2), popc
        heff = spins @ self.j_cross_t + self.h_t
        aheff = np.abs(heff)
        fixed = aheff >= self.h_max
        free = ~fixed
        popc = free.sum(axis=1)
        term_fixed = -(np.where(fixed, aheff, 0)).sum(axis=1)
        e_best = np.empty(count, dtype=np.int64)
        uniq, inverse = np.unique(free, axis=0, return_inverse=True)
        inverse = np.ravel(inverse)
        for k in range(uniq.shape[0]):
            pat = uniq[k]
            rows = np.flatnonzero(inverse == k)
            fidx = np.flatnonzero(pat)
            xidx = np.flatnonzero(~pat)
            if fidx.size > MAX_ENUM_BITS:
                raise EnumerationLimitError("free-set enumeration too wide")
            s_x = np.where(heff[np.ix_(rows, xidx)] > 0, -1, 1).astype(np.int64)
            e_fix = term_fixed[rows].copy()
            if xidx.size:
                j_xx = self.j_tt[np.ix_(xidx, xidx)]
                e_fix += ((s_x @ j_xx) * s_x).sum(axis=1) // 2
            v1 = base1[rows] + s_x @ self.j_t_1[xidx]
            v2 = base2[rows] + s_x @ self.j_t_2[xidx]
            if fidx.size == 0:
                e_best[rows] = e_fix + self._side_minima(v1, v2)
                continue
            f = int(fidx.size)
            g = heff[np.ix_(rows, fidx)] + s_x @ self.j_tt[np.ix_(xidx, fidx)]
            s_f = spin_block(f, 0, 1 << f).astype(np.int64)
            j_ff = self.j_tt[np.ix_(fidx, fidx)]
            q_f = ((s_f @ j_ff) * s_f).sum(axis=1) // 2
            d1 = s_f @ self.j_t_1[fidx]
            d2 = s_f @ self.j_t_2[fidx]
            width = max(1, self.s1.shape[0], self.s2.shape[0])
            step = max(1, _CHUNK_CELLS // ((1 << f) * width))
            for astart in range(0, rows.size, step):
                sl = slice(astart, min(astart + step, rows.size))
                e_t = g[sl] @ s_f.T + q_f
                w1 = (v1[sl][:, None, :] + d1[None, :, :]) @ self.s1.T + self.q1
                w2 = (v2[sl][:, None, :] + d2[None, :, :]) @ self.s2.T + self.q2
                total = e_t + w1.min(axis=2) + w2.min(axis=2)
                e_best[rows[sl]] = e_fix[sl] + total.min(axis=1)
        return e_out + e_best, popc

    def scan_block(self, start: int, count: int) -> Tuple[int, List[int], Dict[str, int]]:
        totals, popc = self.block_totals(start, count)
        bc = [int(c) for c in np.bincount(popc)]
        return int(totals.min()), bc, {"free_members": int(popc.sum())}

    def lex_complete(self, rank: int, e_star: int) -> Optional[int]:
        spins = spin_block(self.n_out, rank, 1)
        e_out = int(self.outer_energies(spins)[0])
        base1 = (spins @ self.j_cross_1 + self.h_t1)[0]
        base2 = (spins @ self.j_cross_2 + self.h_t2)[0]
        if self.m:
            heff = (spins @ self.j_cross_t + self.h_t)[0]
            strict = np.abs(heff) > self.h_max
            ns = np.flatnonzero(~strict)
            k = int(ns.size)
            if k > COMPLETION_CAP_BITS:
                return None
            base = np.where(heff > 0, -1, 1).astype(np.int64)
            s = np.tile(base, (1 << k, 1))
            if k:
                s[:, ns] = spin_block(k, 0, 1 << k)
            e_t = s @ heff + ((s @ self.j_tt) * s).sum(axis=1) // 2
            v1 = base1 + s @ self.j_t_1
            v2 = base2 + s @ self.j_t_2
        else:
            s = np.zeros((1, 0), dtype=np.int64)
            e_t = np.zeros(1, dtype=np.int64)
            v1 = base1[None, :]
            v2 = base2[None, :]
        e1 = v1 @ self.s1.T + self.q1
        e2 = v2 @ self.s2.T + self.q2
        m1 = e1.min(axis=1)
        m2 = e2.min(axis=1)
        i1 = e1.argmin(axis=1)
        i2 = e2.argmin(axis=1)
        totals = e_out + e_t + m1 + m2
        hits = np.flatnonzero(totals == e_star)
        if hits.size == 0:
            raise AssertionError("tying row lost its optimum")
        best_bits: Optional[int] = None
        best_key: Optional[int] = None
        outer = _outer_bits(rank, self.out)
        a, b = len(self.t1), len(self.t2)
        for hit in hits:
            bits = outer
            for pos, v in enumerate(self.t):
                if s[hit][pos] > 0:
                    bits |= 1 << v
            for pos, v in enumerate(self.t1):
                if self.s1[int(i1[hit])][pos] > 0:
                    bits |= 1 << v
            for pos, v in enumerate(self.t2):
                if self.s2[int(i2[hit])][pos] > 0:
                    bits |= 1 << v
            key = _bits_rank(bits, self.inst.n)
            if best_key is None or key < best_key:
                best_key, best_bits = key, bits
        return best_bits


def solve_combined(
    inst: IsingInstance,
    j_max: Optional[int] = None,
    alpha: float = 0.5,
    seed: int = 0,
    params: Optional[TParams] = None,
    block_bits: int = DEFAULT_BLOCK_BITS,
    workers: int = 1,
    tie_row_cap: int = DEFAULT_TIE_ROW_CAP,
    degree_dichotomy_factor: float = 1000.0,
) -> SolveResult:
    """Exact solve combining decoupled side sets with a constrained set T.

    Strategy: find two side sets T1, T2 with no crossing couplings, then a
    certified T among the low-degree remainder under the cross-coupling
    bound, and scan the rest.  Variables whose degree exceeds
    ``degree_dichotomy_factor`` times the average (never more than a
    1/``factor`` fraction of all variables) are enumerated outright first.
    Every unproductive search falls back to :func:`solve_effective` with a
    tagged method string.
    """
    graph = inst.degree_graph()
    d_avg = graph.average_degree
    row_sums = [inst.coupling_row_abs(i) for i in range(inst.n)]
    max_row = max(row_sums) if row_sums else 0
    if j_max is None:
        j_max = max_row
    elif j_max < max_row:
        raise ValueError("j_max must dominate every coupling row weight")

    def fallback(reason: str) -> SolveResult:
        res = solve_effective(
            inst, seed=seed, block_bits=block_bits, workers=workers, tie_row_cap=tie_row_cap
        )
        counters = dict(res.counters)
        return SolveResult(
            res.best, res.energy, res.leaves_explored, res.outer_assignments,
            "combined:%s-fallback" % reason, counters,
        )

    heavy = [i for i in range(inst.n) if graph.degrees[i] > degree_dichotomy_factor * d_avg]
    if heavy:
        if len(heavy) > MAX_ENUM_BITS:
            raise EnumerationLimitError("too many outlier-degree variables")
        nb = len(heavy)
        leaves = 0
        outers = 0
        counters: Dict[str, int] = {"outlier_vars": nb, "branches": 1 << nb}
        candidates: List[Tuple[int, int, int]] = []
        for wr in range(1 << nb):
            fixed = {
                heavy[k]: (1 if (wr >> (nb - 1 - k)) & 1 else -1) for k in range(nb)
            }
            sub, keep = inst.conditioned(fixed)
            res = solve_combined(
                sub, j_max=None, alpha=alpha, seed=seed, params=params,
                block_bits=block_bits, workers=workers, tie_row_cap=tie_row_cap,
                degree_dichotomy_factor=degree_dichotomy_factor,
            )
            leaves += res.leaves_explored
            outers += res.outer_assignments
            bits = sum(1 << v for v, s in fixed.items() if s > 0)
            for q, v in enumerate(keep):
                if (res.best.bits >> q) & 1:
                    bits |= 1 << v
            candidates.append((res.energy, bits, _bits_rank(bits, inst.n)))
        e_star, best_bits = _lex_min_result(candidates, inst.n)
        best = Assignment(inst.n, best_bits)
        if inst.energy(best) != e_star:
            raise AssertionError("recombined assignment does not match the optimum")
        return SolveResult(best, e_star, leaves, outers, "combined:outlier-split", counters)

    if d_avg < 2:
        return fallback("effective")
    sides = find_T1T2(graph, alpha=alpha, seed=seed)
    if not sides.ok:
        return fallback("effective")
    side_set = set(sides.t1) | set(sides.t2)
    w0 = [
        i for i in range(inst.n)
        if i not in side_set and graph.degrees[i] <= 2.0 * d_avg
    ]
    ctx = ConstrainedContext(t1=sides.t1, t2=sides.t2, j_max=j_max)
    cert = find_T_randomized(inst, params, seed=seed, within=w0, constrained=ctx)
    if not cert.ok:
        return fallback("effective")

    engine = _CombinedEngine(inst, cert.t, sides.t1, sides.t2, block_bits)
    blocks = list(iter_rank_blocks(engine.n_out, block_bits))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            parts = list(ex.map(lambda bl: engine.scan_block(*bl), blocks))
    else:
        parts = [engine.scan_block(*b) for b in blocks]
    e_star = None
    leaves = 0
    side_width = (1 << len(sides.t1)) + (1 << len(sides.t2))
    counters = {
        "t_size": len(cert.t),
        "t1_size": len(sides.t1),
        "t2_size": len(sides.t2),
    }
    block_mins = []
    for bmin, bc, cnt in parts:
        block_mins.append(bmin)
        if e_star is None or bmin < e_star:
            e_star = bmin
        for width, rows in enumerate(bc):
            leaves += (rows << width) * side_width
        _merge_counters(counters, cnt)
    assert e_star is not None

    tie_ranks: List[int] = []
    over_cap = False
    for (start, count), bmin in zip(blocks, block_mins):
        if bmin != e_star:
            continue
        totals, _ = engine.block_totals(start, count)
        rows = np.flatnonzero(totals == e_star)
        tie_ranks.extend(start + int(r) for r in rows)
        if len(tie_ranks) > tie_row_cap:
            over_cap = True
            break
    counters["tie_rows"] = min(len(tie_ranks), tie_row_cap + 1)
    counters["repair_rescan"] = 0
    best_bits: Optional[int] = None
    if over_cap and inst.n <= MAX_ENUM_BITS:
        best_bits = _brute_assignment(inst, e_star, block_bits).bits
        counters["repair_rescan"] = 1
    else:
        best_key = None
        for rank in tie_ranks:
            bits = engine.lex_complete(rank, e_star)
            if bits is None:
                if inst.n <= MAX_ENUM_BITS:
                    best_bits = _brute_assignment(inst, e_star, block_bits).bits
                    counters["repair_rescan"] = 1
                    break
                raise EnumerationLimitError(
                    "too many undetermined members to enumerate completions"
                )
            key = _bits_rank(bits, inst.n)
            if best_key is None or key < best_key:
                best_key, best_bits = key, bits
    assert best_bits is not None
    best = Assignment(inst.n, best_bits)
    if inst.energy(best) != e_star:
        raise AssertionError("returned assignment does not match the optimum")
    return SolveResult(
        best, e_star, leaves, 1 << engine.n_out, "combined", counters
    )

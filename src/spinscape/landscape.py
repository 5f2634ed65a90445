"""Strict k-minima enumeration and basin structure under k-flip moves.

An assignment is a strict k-minimum when every change of 1..k variables
strictly increases the energy.  The energy change of flipping a set U is

    delta(U) = -2 * (sum_{i in U} S_i L_i  -  2 * sum_{i<j in U} J_ij S_i S_j)

with L the local fields, so all checks run on exact integers; they read the
sign of the bracket (the half-delta), which never wraps in int64.
:func:`k_basins` with ``flipped_rule`` (no change strictly lowers the
energy) runs the weak rule on -E: every local field and every half-delta
changes sign under E -> -E.

Only the sets that the couplings connect need a check.  J is zero between
the coupled components of any set U, so half(U) is the sum of the halves of
U's components, and U passes the strict or weak test whenever each
component does; each component is a connected set no larger than U.  The
checks run size by size over the connected sets, one array per size, and a
row is checked at the next size only while it passes.

Enumeration is the paper's branching argument run as a scan.  T is the
largest greedy color class, an independent set, and the split-half kernel
:class:`~spinscape.instance.SplitScan` walks the 2^(n-|T|) assignments of the
other, outer, variables in rank blocks.  A member of T has no coupling inside
T, so the outer row fixes its local field, and only the spin set against that
field passes its single flip.  A row thus holds at most one strict minimum,
and none where a member's field is 0; a basin vertex leaves such a member
free, and its row expands over both spins, at most 2^block_bits candidates at
a time.  This module's filter (the kernel only gives it fields) tests one
outer variable at a time on the candidates still alive, with its field plus
its couplings into T's spins, so a block costs about two passes over its
rows, and only the survivors get spins and local fields for the larger sets.
With T empty the same filter walks all 2^n assignments.  The survivors are
int64 bit masks; :func:`enumerate_k_minima` puts them into rank order at the
end, and :func:`k_basins` counts its strict minima.  Basin edges come from
sorted searches of the vertex bit masks, one per chunk of (vertices x flip
masks), and basins from array component labelling over those edges.

A disconnected instance can go one distinct part at a time:
:func:`minima_by_parts` and :func:`basins_by_parts` join the part reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Callable, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from spinscape.instance import (
    DEFAULT_BLOCK_BITS,
    MAX_ENUM_BITS,
    Assignment,
    EnumerationLimitError,
    IsingInstance,
    SplitScan,
    block_local_fields,
    # Unused here; perfbench/tracing.py wraps it under this name.
    spin_block,  # noqa: F401
)
from spinscape.solver import _largest_color_class, instance_parts, per_distinct_part

# vertex-count * neighborhood budget for basin construction
DEFAULT_BASIN_WORK_LIMIT = 1 << 22

# Assignments are int64 bit masks, bit v for variable v.
MAX_MASK_BITS = 62


@dataclass(frozen=True)
class LandscapeReport:
    """Result of a minima enumeration.

    The strict minima are kept as bit masks in rank order; :attr:`minima`
    builds their assignments on first read.
    """

    k: int
    n: int
    minima_bits: Tuple[int, ...]

    @property
    def minima_count(self) -> int:
        return len(self.minima_bits)

    @cached_property
    def minima(self) -> Tuple[Assignment, ...]:
        return tuple(Assignment(self.n, b) for b in self.minima_bits)


@dataclass(frozen=True)
class BasinReport:
    """A basin decomposition as ``basins`` prints it: counts and sizes, no minima."""

    vertex_count: int
    basin_sizes: Tuple[int, ...]
    minima_count: int

    @property
    def basin_count(self) -> int:
        return len(self.basin_sizes)


class _ConnectedSets:
    """The variable sets of sizes 1..min(k, n) that the couplings connect.

    ``level(size)`` is a (count x size) int64 array of sets, each row in
    ascending order and the rows in ascending order of their bit masks.
    Each size grows from the one below by adding a coupled neighbor, the
    first time a check reaches it: a complete graph has all C(n, size) sets
    of every size, while the rows that pass the smaller sizes are usually
    few or none.  A set is grown once from each member whose removal leaves
    it connected, and one copy per bit mask is kept, so n <= 62.  Its n x n
    ``coupling`` block is the J that :func:`_k_checks` reads.
    """

    def __init__(self, inst: IsingInstance, k: int) -> None:
        self.k = min(k, inst.n)
        self.coupling = inst.coupling_block(range(inst.n), range(inst.n))
        self._levels = [np.arange(inst.n, dtype=np.int64)[:, None]]
        self._masks = np.int64(1) << self._levels[0][:, 0]  # of the last level

    def level(self, size: int) -> np.ndarray:
        while len(self._levels) < size:
            low = self._levels[-1]
            grow = (self.coupling[low] != 0).any(axis=1)
            grow[np.arange(len(low))[:, None], low] = False
            rows, extra = np.nonzero(grow)
            self._masks, first = np.unique(self._masks[rows] | (np.int64(1) << extra),
                                           return_index=True)
            rows, extra = rows[first], extra[first]
            self._levels.append(np.sort(np.column_stack([low[rows], extra]), axis=1))
        return self._levels[size - 1]


# Cap on the cells of one (rows x sets) half-delta array in _k_checks, of
# one (rows x n) spin array that _checked passes it, and of one chunk of the
# basin edge search: 512 KB of int64, whatever the survivor count.
_CHUNK_CELLS = 1 << 16


def _k_checks(
    inst: IsingInstance,
    spins: np.ndarray,
    sets: _ConnectedSets,
    strict: bool,
    singles_known: bool = True,
) -> np.ndarray:
    """Mask of the rows of ``spins`` whose every change of 1..k variables passes.

    strict=True demands delta > 0 for every change, and strict=False allows
    ties (delta >= 0).  With ``singles_known`` the caller guarantees that
    every single flip of every row already passes the same test, so size 1
    is skipped.

    Every size up to k is checked over the connected sets alone (see the
    module docstring), for the rows that passed every smaller size.  The
    half-delta of a set is the sum of its S_u L_u columns minus
    2 * J_ab * S_a * S_b for each pair of its positions.  S_u L_u =
    S_u h_u + sum_v J_uv S_u S_v, so the columns add each field of the set
    once and each coupling at most twice, and a pair's subtraction cancels
    both of its copies.  The half-delta, every partial sum on the way and
    each 2 * |J_ab| are therefore sums over a subset of the terms of the
    energy budget |c0| + sum |h_i| + 2 * sum |J_ij| <= INT64_MAX that
    :class:`~spinscape.instance.IsingInstance` enforces, so int64 is exact.
    The test of delta = -2 * half compares the sign of the half-delta and
    never doubles it, so it cannot wrap.
    """
    fields = block_local_fields(inst, spins)
    sl = spins * fields
    ok = np.ones(len(spins), dtype=bool)
    for size in range(2 if singles_known else 1, sets.k + 1):
        live = np.flatnonzero(ok)
        if not len(live):
            break
        idx = sets.level(size)
        # a size with no connected sets has no larger ones either
        if not len(idx):
            break
        pairs = [(idx[:, a], idx[:, b], sets.coupling[idx[:, a], idx[:, b]])
                 for a, b in combinations(range(size), 2)]
        step = max(1, _CHUNK_CELLS // len(idx))
        for lo in range(0, len(live), step):
            rows = live[lo:lo + step]
            s, x = spins[rows], sl[rows]
            half = x[:, idx[:, 0]]
            for col in idx.T[1:]:
                half += x[:, col]
            for a, b, w in pairs:
                half -= 2 * w * s[:, a] * s[:, b]
            ok[rows] = (half < 0 if strict else half <= 0).all(axis=1)
    return ok


def _bit_spins(bits: np.ndarray, n: int) -> np.ndarray:
    """(len(bits) x n) int64 matrix of the +-1 spins of assignment bit masks."""
    return ((bits[:, None] >> np.arange(n)) & 1) * 2 - 1


def _checked(inst: IsingInstance, bits: np.ndarray, sets: _ConnectedSets,
             strict: bool, singles_known: bool = True) -> np.ndarray:
    """The bit masks of ``bits`` that pass :func:`_k_checks`, checked a slice of rows at a time."""
    step = max(1, _CHUNK_CELLS // max(1, inst.n))
    parts = [b[_k_checks(inst, _bit_spins(b, inst.n), sets, strict=strict,
                         singles_known=singles_known)]
             for b in (bits[lo:lo + step] for lo in range(0, len(bits), step))]
    return np.concatenate(parts) if parts else bits


def _in_rank_order(parts: List[np.ndarray], n: int) -> Tuple[int, ...]:
    """The bit masks of ``parts``, sorted by rank (variable 0 the most significant)."""
    bits = np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)
    rank = np.zeros_like(bits)
    for v in range(n):
        rank |= ((bits >> v) & 1) << (n - 1 - v)
    return tuple(bits[np.argsort(rank)].tolist())


def _expand(rows: np.ndarray, spins: np.ndarray, counts: np.ndarray,
            chunk: int) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Chunks of at most ``chunk`` candidates: each row with each setting of its free members.

    ``spins`` is (members x rows) with 0 for a free member, and row r
    stands for counts[r] = 2^(free members) candidates; the one numbered j
    gives its p-th free member the spin of bit p of j.  Without free
    members the rows, at most ``chunk`` of them, are the one chunk.
    """
    if spins.all():
        yield rows, spins
        return
    ends = np.cumsum(counts)
    total = int(ends[-1])
    for lo in range(0, total, chunk):
        cand = np.arange(lo, min(lo + chunk, total))
        r = np.searchsorted(ends, cand, side="right")
        j = cand - (ends[r] - counts[r])
        s = spins[:, r]
        for member in s:
            free = member == 0
            member[free] = ((j[free] & 1) * 2 - 1).astype(s.dtype)
            j[free] >>= 1
        yield rows[r], s


def _flip_terms(inst: IsingInstance, scan: SplitScan, outer: List[int],
                t: List[int]) -> List[List[Tuple[int, np.integer]]]:
    """Each of ``outer``'s couplings into the sorted ``t``, as (position in ``t``, J) pairs.

    Raises ValueError unless ``t`` is pairwise uncoupled and ``scan``
    scans ``outer`` with a field row at each position.
    """
    if not np.array_equal(scan._row[outer], np.arange(scan.width)):
        raise ValueError("single-flip survivors need every scanned variable's fields")
    graph, at = inst.degree_graph(), {m: p for p, m in enumerate(t)}
    if any(v in at for m in t for v in graph.neighbors[m]):
        raise ValueError("member spins need pairwise uncoupled members")
    return [[(at[v], scan.dtype.type(inst.coupling(u, v))) for v in graph.neighbors[u] if v in at]
            for u in outer]


def _member_spins(scan: SplitScan, start: int, t: List[int], strict: bool,
                  out: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Rows of the block at ``start`` where each member of ``t`` passes its flip, and the spins.

    T is pairwise uncoupled, so the outer spins fix each member's field L,
    and it passes exactly with S = -sign(L).  A zero field fails every
    strict test, so ``strict=True`` drops those rows; under
    ``strict=False`` both spins pass, and the member gets spin 0: free.
    Returns the rows in ascending order and the (members x rows) spins.
    The fields and spins are computed in ``out``, a (members x 2^lo_bits)
    array of the scan's dtype, and the spins may be ``out`` itself.
    """
    spins = np.sign(scan.fields(start, t, out=out), out=out)
    np.negative(spins, out=spins)
    if not strict:
        return np.arange(1 << scan.lo_bits), spins
    rows = np.flatnonzero(spins.all(axis=0))
    return rows, spins[:, rows]


def _flip_survivors(scan: SplitScan, start: int, rows: np.ndarray, spins: np.ndarray,
                    terms: List[List[Tuple[int, np.integer]]], strict: bool) -> np.ndarray:
    """Candidates of the block at ``start`` that pass every scanned variable's single flip.

    A candidate is a row of the block, from ``rows``, with T's +-1 spins in
    its column of ``spins`` (members x candidates, free members set), and
    ``terms`` is :func:`_flip_terms` of the scan.

    A candidate passes when S_i * L_i < 0 for every scanned variable i
    (every single flip strictly raises the energy), or <= 0 with
    ``strict=False``.  L_i is the row's field plus J_im * S_m for each
    member m coupled to i.  The candidates are filtered one variable at a
    time, and each test reads only the candidates still alive.  A high
    variable's spin is constant in the block; the low variable at
    position i is bit width-1-i of the row index, so no spin table is
    read.  Returns the positions of the passing candidates in ascending
    order.
    """
    s_hi = scan.hi_spins(start)
    c = scan.field_constants(start)
    lt, gt = (np.less, np.greater) if strict else (np.less_equal, np.greater_equal)
    live = np.arange(len(rows))
    for i, f in enumerate(scan._f_lo[:scan.width]):
        at = rows[live]  # the block row of each live candidate
        fields = f[at] + c[i]
        for m, w in terms[i]:
            fields += w * spins[m, live]
        # S_i * L_i < 0 is L_i < 0 where S_i = +1 and L_i > 0 where S_i = -1.
        if i < scan.hi_bits:
            keep = lt(fields, 0) if s_hi[i] > 0 else gt(fields, 0)
        else:
            up = ((at >> (scan.width - 1 - i)) & 1).astype(bool)
            keep = np.where(up, lt(fields, 0), gt(fields, 0))
        live = live[keep]
        if not len(live):
            break
    return live


def _vertex_bits(
    inst: IsingInstance,
    sets: _ConnectedSets,
    strict: bool,
    block_bits: int,
    t: Iterable[int] | None = None,
) -> Iterator[np.ndarray]:
    """Bit masks of the assignments whose every change of 1..k variables passes.

    One array per chunk of at most 2^block_bits candidates, in no set
    order.  ``t`` is the independent set T, the largest greedy color class
    by default; any independent set gives the same masks, and a coupled
    pair in ``t`` raises ValueError.  Past either of two limits the scan
    raises :class:`EnumerationLimitError`: n - |T| above the scan ceiling,
    or more than 2^MAX_ENUM_BITS candidates once the free members are
    expanded.
    """
    n = inst.n
    t = sorted(set(_largest_color_class(inst.degree_graph())[0] if t is None else t))
    outer = sorted(set(range(n)).difference(t))
    scan = SplitScan(inst, block_bits, outer, columns=range(n))
    terms = _flip_terms(inst, scan, outer, t)
    one = np.int64(1)
    outer_bits = scan.weight_sums(one << np.array(outer, dtype=np.int64))
    member_bits = one << np.array(t, dtype=np.int64)
    # One field buffer serves every block: a block reads its spins only
    # inside its own iteration, and the masks it yields are new arrays.
    buf = np.empty((len(t), 1 << scan.lo_bits), dtype=scan.dtype)
    candidates = 0
    for start in scan.starts:
        rows, spins = _member_spins(scan, start, t, strict, buf)
        # 2^(free members) candidates per row, capped past the limit
        free = np.count_nonzero(spins == 0, axis=0)
        counts = one << np.minimum(free, MAX_ENUM_BITS + 1)
        candidates += int(counts.sum())
        if candidates > 1 << MAX_ENUM_BITS:
            raise EnumerationLimitError(
                "the rows with free members expand past 2^%d candidates" % MAX_ENUM_BITS)
        for at, s in _expand(rows, spins, counts, 1 << block_bits):
            keep = _flip_survivors(scan, start, at, s, terms, strict)
            found = outer_bits(start, at[keep])
            for bit, up in zip(member_bits, s[:, keep] > 0):
                found |= up * bit
            # The survivors pass every single flip, which is all k = 1 asks.
            if sets.k > 1:
                found = _checked(inst, found, sets, strict=strict)
            yield found


def _check_mask_bits(n: int) -> None:
    if n > MAX_MASK_BITS:  # checked before anything is built
        raise EnumerationLimitError(
            "%d variables exceed the %d-bit assignment masks" % (n, MAX_MASK_BITS))


def enumerate_k_minima(
    inst: IsingInstance, k: int = 1, block_bits: int = DEFAULT_BLOCK_BITS
) -> LandscapeReport:
    """Exhaustively list all strict k-minima in lexicographic order."""
    if k < 1:
        raise ValueError("need k >= 1")
    _check_mask_bits(inst.n)
    found = list(_vertex_bits(inst, _ConnectedSets(inst, k), strict=True,
                              block_bits=block_bits))
    return LandscapeReport(k=k, n=inst.n, minima_bits=_in_rank_order(found, inst.n))


def _component_roots(count: int, src_parts: List[np.ndarray],
                     dst_parts: List[np.ndarray]) -> np.ndarray:
    """Smallest vertex of each vertex's component under the edges (src, dst).

    Every round hooks, for each edge whose ends have different roots, the
    larger root onto the smaller one (``np.minimum.at``), then jumps
    pointers until every vertex points at a root.  A parent never exceeds
    its vertex, so there are no cycles, and each round that leaves an edge
    split removes a root.
    """
    parent = np.arange(count)
    src = np.concatenate(src_parts) if src_parts else parent[:0]
    dst = np.concatenate(dst_parts) if dst_parts else parent[:0]
    while True:
        a, b = parent[src], parent[dst]
        split = a != b
        if not split.any():
            return parent
        a, b = a[split], b[split]
        np.minimum.at(parent, np.maximum(a, b), np.minimum(a, b))
        while True:
            up = parent[parent]
            if np.array_equal(up, parent):
                break
            parent = up
        src, dst = src[split], dst[split]


def _flip_masks(n: int, k: int) -> np.ndarray:
    """Bit masks of the variable sets of sizes 1..min(k, n), smallest size first."""
    bit = np.int64(1) << np.arange(n, dtype=np.int64)
    masks, top = bit, np.arange(n)  # the sets of one size, and each one's largest variable
    parts = [masks]
    for _ in range(1, min(k, n)):
        rows, extra = np.nonzero(top[:, None] < np.arange(n))
        masks, top = masks[rows] | bit[extra], extra
        parts.append(masks)
    return np.concatenate(parts)


def _basin_moves(n: int, k: int, work_limit: int) -> int:
    """The C(n, <= k) moves per vertex of a basin construction over n variables.

    Every instance has a vertex (a global minimum, or under flipped_rule a
    global maximum), so more moves than ``work_limit`` are refused before
    any mask is built or any block is scanned, and so are more than 62
    variables.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    moves = max(1, sum(math.comb(n, size) for size in range(1, min(k, n) + 1)))
    if moves > work_limit:
        raise EnumerationLimitError(
            "basin construction needs %d moves per vertex, more than the work limit"
            % moves
        )
    _check_mask_bits(n)
    return moves


def _check_basin_work(count: int, moves: int, work_limit: int) -> None:
    if count * moves > work_limit:
        raise EnumerationLimitError(
            "basin construction over at least %d vertices x %d moves exceeds"
            " the work limit" % (count, moves)
        )


def k_basins(
    inst: IsingInstance,
    k: int = 1,
    flipped_rule: bool = False,
    block_bits: int = DEFAULT_BLOCK_BITS,
    work_limit: int = DEFAULT_BASIN_WORK_LIMIT,
) -> BasinReport:
    """Group weak k-minima into components under moves of Hamming width <= k.

    Vertices are assignments no change of <= k variables strictly improves;
    edges join vertices within Hamming distance k.  Every strict k-minimum
    is necessarily an isolated vertex: any other vertex within distance k
    would see a strictly downhill move back to the minimum and lose its own
    vertex status.  The report counts the strict k-minima among the vertices
    and keeps no listing of them.  ``flipped_rule=True`` instead keeps the
    assignments no such change strictly worsens, which is the same rule run
    on -E, since E -> -E reverses the sign of every energy change.  It
    counts no strict minima.

    The work is the vertex count times the C(n, <= k) moves; past
    ``work_limit`` the request raises :class:`EnumerationLimitError`.
    """
    n = inst.n
    moves = _basin_moves(n, k, work_limit)
    masks = _flip_masks(n, k)
    # Past this many vertices the work limit rejects the request, so the
    # strictness checks stop there.
    max_vertices = work_limit // moves
    blocks: List[np.ndarray] = []  # vertex bit masks
    count = minima = 0
    if flipped_rule:
        # -E exactly: (h, -J) alone is -E with every spin reversed, which
        # gives the same counts at other assignments.  The budget and the
        # nonzero couplings, so scan_dtype, T and the connected sets, stay.
        inst = IsingInstance(n, [-x for x in inst.h],
                             {e: -w for e, w in inst.couplings.items()}, c0=-inst.c0)
    sets = _ConnectedSets(inst, k)
    for bits in _vertex_bits(inst, sets, strict=False, block_bits=block_bits):
        blocks.append(bits)
        if not flipped_rule:
            head = bits[: max(0, max_vertices - count)]
            minima += len(_checked(inst, head, sets, strict=True, singles_known=False))
        count += len(bits)
        # the count only grows, so the scan stops at the first chunk past the limit
        _check_basin_work(count, moves, work_limit)
    vertices = np.concatenate(blocks)
    src_parts, dst_parts = [], []
    if count:
        order = np.argsort(vertices)
        ordered = vertices[order]
        # one sorted search per chunk of (vertices x masks) cells
        step = max(1, _CHUNK_CELLS // count)
        for lo in range(0, len(masks), step):
            part = masks[lo:lo + step]
            target = (vertices[:, None] ^ part).ravel()
            pos = np.searchsorted(ordered, target) % count
            hit = np.flatnonzero(ordered[pos] == target)
            src, dst = hit // len(part), order[pos[hit]]
            # Each edge is found from both ends; keep it once.
            one = src < dst
            src_parts.append(src[one])
            dst_parts.append(dst[one])
    roots = _component_roots(count, src_parts, dst_parts)
    sizes = np.bincount(roots)
    sizes = np.sort(sizes[sizes > 0])[::-1]
    return BasinReport(vertex_count=count, basin_sizes=tuple(sizes.tolist()),
                       minima_count=minima)


def minima_by_parts(
    inst: IsingInstance,
    count: Callable[[IsingInstance], LandscapeReport],
    list_limit: int,
) -> Tuple[int, Optional[List[str]]]:
    """``count`` run on each distinct part of ``inst``, joined: the number of
    strict k-minima, and their bitstrings in rank order when there are at
    most ``list_limit`` of them (None otherwise).

    The parts are those of :func:`~spinscape.solver.instance_parts`, each
    distinct part counted once (:func:`~spinscape.solver.per_distinct_part`);
    an instance of one part goes to ``count`` whole.  The join is exact.  A
    change U of at most k variables splits into one change per part, each
    of at most k variables, and no coupling crosses parts, so delta(U) is
    the sum of the pieces' deltas.  An assignment is therefore a strict (or
    weak) k-minimum exactly when each part's share is one: a failing piece
    is a failing change of the whole, and pieces that pass add up to a
    change that passes.  So the minima are the Cartesian product of the
    parts' minima, and their number is the product of the parts' counts,
    in Python integers.  The enumeration limits (62 variables, 2^26
    candidates) thus apply to each part, not to the whole.

    The listing maps each part's minima to the original indices; its
    bitstrings sort in rank order, since character i is variable i.  A part
    without minima leaves none at all, however many the parts before it
    have, so the listing is [] before any product is built.
    """
    parts = instance_parts(inst)
    reports = per_distinct_part(parts, count)
    total = math.prod(report.minima_count for report in reports)
    if total > list_limit:
        return total, None
    if not total:
        return 0, []
    joined = [0]
    for (_, keep), report in zip(parts, reports):
        shares = [sum(1 << at for v, at in enumerate(keep) if bits >> v & 1)
                  for bits in report.minima_bits]
        joined = [mask | share for mask in joined for share in shares]
    return total, sorted(Assignment(inst.n, mask).bitstring() for mask in joined)


def basins_by_parts(
    inst: IsingInstance,
    k: int,
    work_limit: int,
    basins: Callable[[IsingInstance], BasinReport],
) -> BasinReport:
    """``basins`` run on each distinct part of ``inst``, joined into the
    report that :func:`k_basins` gives for the whole instance.

    As in :func:`minima_by_parts`, a change of at most k variables splits
    into one change of at most k variables per part, and its delta is the
    sum of theirs.  So the vertices (and the strict k-minima) are the
    Cartesian products of the parts' own, and ``vertex_count`` and
    ``minima_count`` are the products of the parts' counts; no listing of
    the minima is built.  A move between two vertices changes each part's
    share by at most k variables, from one vertex of that part to another
    or not at all, so it stays inside one product of part basins; and any
    two vertices of such a product are joined by moves that change one part
    at a time.  So the basins are the products of the part basins,
    and ``basin_sizes`` is the sorted multiset of products of part sizes.

    ``work_limit`` bounds the whole instance, as in :func:`k_basins`.  The
    C(n, <= k) moves over all n variables are checked against it before
    any part is scanned, and so are the 62-bit masks.  ``basins`` runs each
    part under the same limit: a part has no more vertices and no more
    moves than the whole, so a part past the limit puts the whole past it
    too.  Then, before any product array is built, the product of the
    vertex counts times the moves is held to ``work_limit``, and the
    product itself to 2^MAX_ENUM_BITS (a scan of the whole instance would
    expand at least that many candidates, and refuse), so every size fits
    int64.  The scan ceilings of 2^26 outer rows and candidates apply to
    each part.  An instance of one part goes to ``basins`` whole.
    """
    parts = instance_parts(inst)
    if len(parts) == 1:
        return basins(inst)
    moves = _basin_moves(inst.n, k, work_limit)
    reports = per_distinct_part(parts, basins)
    count = math.prod(report.vertex_count for report in reports)
    _check_basin_work(count, moves, work_limit)
    if count > 1 << MAX_ENUM_BITS:
        raise EnumerationLimitError(
            "the parts join into %d vertices, past 2^%d" % (count, MAX_ENUM_BITS))
    sizes = np.ones(1, dtype=np.int64)
    for report in reports:
        sizes = np.multiply.outer(sizes, report.basin_sizes).ravel()
    sizes = np.sort(sizes)[::-1]
    return BasinReport(vertex_count=count, basin_sizes=tuple(sizes.tolist()),
                       minima_count=math.prod(report.minima_count for report in reports))

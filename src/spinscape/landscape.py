"""Strict k-minima enumeration and basin structure under k-flip moves.

An assignment is a strict k-minimum when every change of 1..k variables
strictly increases the energy.  The energy change of flipping a set U is

    delta(U) = -2 * (sum_{i in U} S_i L_i  -  2 * sum_{i<j in U} J_ij S_i S_j)

with L the local fields, so all checks run on exact integers; they read the
sign of the bracket (the half-delta), which never wraps in int64.

Only the sets that the couplings connect need a check.  J is zero between
the coupled components of any set U, so half(U) is the sum of the halves of
U's components, and U passes the strict, weak or flipped test whenever each
component does; each component is a connected set no larger than U.  The
checks run size by size over the connected sets, one array per size, and a
row is checked at the next size only while it passes.

Enumeration scans the full assignment space in rank blocks with the
split-half kernel :class:`~spinscape.instance.SplitScan`.  Its single-flip
filter tests one variable at a time on the rows still alive, so a block
costs about two passes over its rows, and only the survivors get spins and
local fields for the larger sets.  Basin edges come from one sorted search
of the vertex bit masks per flip mask, and basins from array component
labelling over those edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from spinscape.instance import (
    DEFAULT_BLOCK_BITS,
    Assignment,
    EnumerationLimitError,
    IsingInstance,
    SplitScan,
    block_local_fields,
    # Unused here; perfbench/tracing.py wraps it under this name.
    spin_block,  # noqa: F401
)

# vertex-count * neighborhood budget for basin construction
DEFAULT_BASIN_WORK_LIMIT = 1 << 22


@dataclass(frozen=True)
class LandscapeReport:
    """Result of a minima enumeration or basin decomposition."""

    k: int
    minima: Tuple[Assignment, ...]
    basin_count: int | None = None
    basin_sizes: Tuple[int, ...] | None = None
    vertex_count: int | None = None

    @property
    def minima_count(self) -> int:
        return len(self.minima)


def _passes(half: np.ndarray, strict: bool, flipped: bool) -> np.ndarray:
    """Elementwise test of delta = -2 * half: delta > 0 (strict) or >= 0.

    ``flipped=True`` tests -delta instead.  Comparing the sign of the
    half-delta never doubles it, so it cannot wrap.
    """
    if flipped:
        return half > 0 if strict else half >= 0
    return half < 0 if strict else half <= 0


class _ConnectedSets:
    """The variable sets of sizes 1..min(k, n) that the couplings connect.

    ``level(size)`` is a (count x size) int64 array of sorted sets, in
    lexicographic order.  Each size grows from the one below by adding a
    coupled neighbor, the first time a check reaches it: a complete graph
    has all C(n, size) sets of every size, while the rows that pass the
    smaller sizes are usually few or none.
    """

    def __init__(self, inst: IsingInstance, k: int) -> None:
        self.k = min(k, inst.n)
        self._adjacent = inst.full_coupling_matrix() != 0
        self._levels = [np.arange(inst.n, dtype=np.int64)[:, None]]

    def level(self, size: int) -> np.ndarray:
        while len(self._levels) < size:
            low = self._levels[-1]
            grow = self._adjacent[low].any(axis=1)
            grow[np.arange(len(low))[:, None], low] = False
            rows, extra = np.nonzero(grow)
            grown = np.sort(np.column_stack([low[rows], extra]), axis=1)
            self._levels.append(np.unique(grown, axis=0))
        return self._levels[size - 1]


def is_k_minimum(inst: IsingInstance, a: Assignment, k: int) -> bool:
    """True when every change of 1..k variables strictly raises the energy."""
    if k < 1:
        raise ValueError("need k >= 1")
    if a.n != inst.n:
        raise ValueError("assignment does not match instance size")
    spins = a.spins().astype(np.int64)[None, :]
    sets = _ConnectedSets(inst, k)
    return bool(_k_checks(inst, spins, sets, strict=True, singles_known=False)[0])


# Cap on the cells of one (rows x sets) half-delta array in _k_checks:
# 8 MB of int64, whatever the survivor count.
_CHUNK_CELLS = 1 << 20


def _k_checks(
    inst: IsingInstance,
    spins: np.ndarray,
    sets: _ConnectedSets,
    strict: bool,
    flipped: bool = False,
    singles_known: bool = True,
) -> np.ndarray:
    """Mask of the rows of ``spins`` whose every change of 1..k variables passes.

    strict=True demands delta > 0 for every change, strict=False allows
    ties (delta >= 0), and flipped=True tests -delta instead.  With
    ``singles_known`` the caller guarantees that every single flip of every
    row already passes the same test, so size 1 is skipped.

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
    """
    fields = block_local_fields(inst, spins)
    sl = spins * fields
    coupling = inst.full_coupling_matrix()
    ok = np.ones(len(spins), dtype=bool)
    for size in range(2 if singles_known else 1, sets.k + 1):
        live = np.flatnonzero(ok)
        if not len(live):
            break
        idx = sets.level(size)
        # a size with no connected sets has no larger ones either
        if not len(idx):
            break
        pairs = [(idx[:, a], idx[:, b], coupling[idx[:, a], idx[:, b]])
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
            ok[rows] = _passes(half, strict, flipped).all(axis=1)
    return ok


def _bit_spins(bits: np.ndarray, n: int) -> np.ndarray:
    """(len(bits) x n) int64 matrix of the +-1 spins of assignment bit masks."""
    return ((bits[:, None] >> np.arange(n)) & 1) * 2 - 1


def _vertex_bits(
    inst: IsingInstance,
    sets: _ConnectedSets,
    strict: bool,
    flipped: bool,
    block_bits: int,
) -> Iterator[np.ndarray]:
    """Bit masks of each block's rows whose every change of 1..k variables passes.

    The blocks come in rank order, and so do the rows within each block.
    """
    scan = SplitScan(inst, block_bits)
    # the bit mask of an assignment is the sum of 1 << v over its +1 variables
    bits = scan.weight_sums(1 << np.arange(inst.n, dtype=np.int64))
    for start in scan.starts:
        found = bits(start, scan.flip_survivors(start, strict=strict, flipped=flipped))
        # The survivors pass every single flip, which is all k = 1 asks.
        if sets.k > 1:
            found = found[_k_checks(inst, _bit_spins(found, inst.n), sets,
                                    strict=strict, flipped=flipped)]
        yield found


def enumerate_k_minima(
    inst: IsingInstance, k: int = 1, block_bits: int = DEFAULT_BLOCK_BITS
) -> LandscapeReport:
    """Exhaustively list all strict k-minima in lexicographic order."""
    if k < 1:
        raise ValueError("need k >= 1")
    minima: List[Assignment] = []
    for bits in _vertex_bits(inst, _ConnectedSets(inst, k), strict=True, flipped=False,
                             block_bits=block_bits):
        minima.extend(Assignment(inst.n, b) for b in bits.tolist())
    return LandscapeReport(k=k, minima=tuple(minima))


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


def _flip_masks(n: int, k: int) -> List[int]:
    masks = []
    for size in range(1, min(k, n) + 1):
        for subset in combinations(range(n), size):
            m = 0
            for i in subset:
                m |= 1 << i
            masks.append(m)
    return masks


def k_basins(
    inst: IsingInstance,
    k: int = 1,
    flipped_rule: bool = False,
    block_bits: int = DEFAULT_BLOCK_BITS,
    work_limit: int = DEFAULT_BASIN_WORK_LIMIT,
) -> LandscapeReport:
    """Group weak k-minima into components under moves of Hamming width <= k.

    Vertices are assignments no change of <= k variables strictly improves
    (``flipped_rule=True`` instead keeps assignments no such change strictly
    worsens); edges join vertices within Hamming distance k.  Every strict
    k-minimum is necessarily an isolated vertex: any other vertex within
    distance k would see a strictly downhill move back to the minimum and
    lose its own vertex status.

    The work is the vertex count times the C(n, <= k) moves; past
    ``work_limit`` the request raises :class:`EnumerationLimitError`.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    n = inst.n
    moves = max(1, sum(math.comb(n, size) for size in range(1, min(k, n) + 1)))
    # Every instance has a vertex (a global minimum, or under the flipped
    # rule a global maximum), so a request with more moves than the limit is
    # refused before any mask is built or any block is scanned.
    if moves > work_limit:
        raise EnumerationLimitError(
            "basin construction needs %d moves per vertex, more than the work limit"
            % moves
        )
    masks = _flip_masks(n, k)
    # Past this many vertices the work limit rejects the request, so the
    # strictness checks stop there.
    max_vertices = work_limit // moves
    blocks: List[np.ndarray] = []  # vertex bit masks, rank order
    strict: List[Assignment] = []
    count = 0
    sets = _ConnectedSets(inst, k)
    for bits in _vertex_bits(inst, sets, strict=False, flipped=flipped_rule,
                             block_bits=block_bits):
        blocks.append(bits)
        if not flipped_rule:
            head = bits[: max(0, max_vertices - count)]
            head = head[_k_checks(inst, _bit_spins(head, n), sets, strict=True,
                                  singles_known=False)]
            strict.extend(Assignment(n, b) for b in head.tolist())
        count += len(bits)
        # the count only grows, so the scan stops at the first block past the limit
        if count * moves > work_limit:
            raise EnumerationLimitError(
                "basin construction over at least %d vertices x %d moves exceeds"
                " the work limit" % (count, moves)
            )
    vertices = np.concatenate(blocks)
    src_parts, dst_parts = [], []
    if count:
        order = np.argsort(vertices)
        ordered = vertices[order]
        for m in masks:
            target = vertices ^ m
            pos = np.searchsorted(ordered, target) % count
            src = np.flatnonzero(ordered[pos] == target)
            dst = order[pos[src]]
            # Each edge is found from both ends; keep it once.
            one = src < dst
            src_parts.append(src[one])
            dst_parts.append(dst[one])
    roots = _component_roots(count, src_parts, dst_parts)
    sizes = np.bincount(roots)
    sizes = np.sort(sizes[sizes > 0])[::-1]
    return LandscapeReport(
        k=k,
        minima=tuple(strict),
        basin_count=len(sizes),
        basin_sizes=tuple(sizes.tolist()),
        vertex_count=count,
    )


def min_pairwise_hamming(assignments: Sequence[Assignment]) -> int:
    """Minimum Hamming distance over all pairs; n+1 when fewer than two items."""
    if not assignments:
        raise ValueError("need at least one assignment")
    if len(assignments) == 1:
        return assignments[0].n + 1
    return min(a.hamming(b) for a, b in combinations(assignments, 2))

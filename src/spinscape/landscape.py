"""Strict k-minima enumeration and basin structure under k-flip moves.

An assignment is a strict k-minimum when every change of 1..k variables
strictly increases the energy.  The energy change of flipping a set U is

    delta(U) = -2 * (sum_{i in U} S_i L_i  -  2 * sum_{i<j in U} J_ij S_i S_j)

with L the local fields, so all checks run on exact integers; they read the
sign of the bracket (the half-delta), which never wraps in int64.

Enumeration scans the full assignment space in rank blocks with the
split-half kernel :class:`~spinscape.instance.SplitScan`.  Its single-flip
filter tests one variable at a time on the rows still alive, so a block
costs about two passes over its rows, and only the survivors get spins and
local fields.  Their pair check is one array over the coupled pairs (an
uncoupled pair passes whenever both single flips pass); sets of three or
more variables are checked row by row.  Basin edges come from one sorted
search of the vertex bit masks per flip mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from spinscape.instance import (
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


# The triple check runs once per scan survivor; its index set depends on n
# only.  The cached array is shared, so it is made read-only.
@lru_cache(maxsize=8)
def _triple_mask(n: int) -> np.ndarray:
    """Mask of the triples i < j < l of an n x n x n array."""
    i, j, l = np.meshgrid(np.arange(n), np.arange(n), np.arange(n), indexing="ij")
    mask = (i < j) & (j < l)
    mask.flags.writeable = False
    return mask


def _passes(half: np.ndarray, strict: bool, flipped: bool) -> np.ndarray:
    """Elementwise test of delta = -2 * half: delta > 0 (strict) or >= 0.

    ``flipped=True`` tests -delta instead.  Comparing the sign of the
    half-delta never doubles it, so it cannot wrap.
    """
    if flipped:
        return half > 0 if strict else half >= 0
    return half < 0 if strict else half <= 0


def _subset_deltas_ok(
    inst: IsingInstance,
    spins: np.ndarray,
    fields: np.ndarray,
    k: int,
    strict: bool,
    flipped: bool = False,
) -> bool:
    """Check delta(U) against 0 for every variable set U with 3 <= |U| <= k.

    strict=True demands improvement-free strictly (delta > 0 everywhere),
    strict=False allows ties (delta >= 0).  flipped=True inverts the
    comparison direction (no change may increase the energy).

    The test reads the sign of the half-delta sum_{u in U} S_u L_u -
    2 * sum_{u<v in U} J_uv S_u S_v.  Every intermediate, and the
    half-delta itself (sum_{u in U} S_u (h_u + sum_{v not in U} J_uv S_v)),
    is a sum over a subset of the terms of the energy budget
    |c0| + sum |h_i| + 2 * sum |J_ij| <= INT64_MAX, so int64 is exact.
    """
    n = inst.n
    if k < 3 or n < 3:
        return True
    sl = (spins.astype(np.int64)) * fields
    q = inst.full_coupling_matrix() * np.outer(spins, spins).astype(np.int64)
    a1 = sl[:, None, None] + sl[None, :, None] + sl[None, None, :]
    b = q[:, :, None] + q[:, None, :] + q[None, :, :]
    if not _passes((a1 - 2 * b)[_triple_mask(n)], strict, flipped).all():
        return False
    for size in range(4, min(k, n) + 1):
        for subset in combinations(range(n), size):
            idx = list(subset)
            inner = sum(int(q[a_i, b_i]) for a_i, b_i in combinations(idx, 2))
            if not _passes(int(sl[idx].sum()) - 2 * inner, strict, flipped):
                return False
    return True


def is_k_minimum(inst: IsingInstance, a: Assignment, k: int) -> bool:
    """True when every change of 1..k variables strictly raises the energy."""
    if k < 1:
        raise ValueError("need k >= 1")
    if a.n != inst.n:
        raise ValueError("assignment does not match instance size")
    spins = a.spins().astype(np.int64)[None, :]
    return bool(_k_checks(inst, spins, k, strict=True, singles_known=False)[0])


# Cap on the entries of one (rows x coupled pairs) half-delta array in
# _k_checks: 8 MB of int64, whatever the survivor count.
_PAIR_CHUNK = 1 << 20


def _k_checks(
    inst: IsingInstance,
    spins: np.ndarray,
    k: int,
    strict: bool,
    flipped: bool = False,
    singles_known: bool = True,
) -> np.ndarray:
    """Mask of the rows of ``spins`` whose every change of 1..k variables passes.

    With ``singles_known`` the caller guarantees that every single flip of
    every row already passes the same test.  Sets of size 2 are checked for
    all rows at once, over the coupled pairs only: for an uncoupled pair
    half({i, j}) = S_i L_i + S_j L_j, which passes whenever both single
    flips pass, for the strict, weak and flipped tests alike.  Larger sets
    are checked row by row.
    """
    fields = block_local_fields(inst, spins)
    sl = spins * fields
    if singles_known:
        ok = np.ones(len(spins), dtype=bool)
    else:
        ok = _passes(sl, strict, flipped).all(axis=1)
    ii, jj, ww = inst._ii, inst._jj, inst._ww
    if k >= 2 and len(ww):
        step = max(1, _PAIR_CHUNK // len(ww))
        for lo in range(0, len(spins), step):
            s, x = spins[lo:lo + step], sl[lo:lo + step]
            half = x[:, ii] + x[:, jj] - 2 * ww * s[:, ii] * s[:, jj]
            ok[lo:lo + step] &= _passes(half, strict, flipped).all(axis=1)
    if k >= 3:
        for r in np.flatnonzero(ok):
            ok[r] = _subset_deltas_ok(inst, spins[r], fields[r], k, strict=strict,
                                      flipped=flipped)
    return ok


def _bit_spins(bits: np.ndarray, n: int) -> np.ndarray:
    """(len(bits) x n) int64 matrix of the +-1 spins of assignment bit masks."""
    return ((bits[:, None] >> np.arange(n)) & 1) * 2 - 1


def _survivor_bits(
    inst: IsingInstance, strict: bool, flipped: bool, block_bits: int
) -> Iterator[np.ndarray]:
    """Assignment bits of each block's single-flip survivors, in rank order."""
    scan = SplitScan(inst, block_bits)
    # the bit mask of an assignment is the sum of 1 << v over its +1 variables
    bits = scan.weight_sums(1 << np.arange(inst.n, dtype=np.int64))
    for start in scan.starts:
        yield bits(start, scan.flip_survivors(start, strict=strict, flipped=flipped))


def enumerate_k_minima(
    inst: IsingInstance, k: int = 1, block_bits: int = 16
) -> LandscapeReport:
    """Exhaustively list all strict k-minima in lexicographic order."""
    if k < 1:
        raise ValueError("need k >= 1")
    minima: List[Assignment] = []
    for bits in _survivor_bits(inst, strict=True, flipped=False, block_bits=block_bits):
        # The survivors pass every single flip, which is all k = 1 asks.
        if k > 1:
            bits = bits[_k_checks(inst, _bit_spins(bits, inst.n), k, strict=True)]
        minima.extend(Assignment(inst.n, b) for b in bits.tolist())
    return LandscapeReport(k=k, minima=tuple(minima))


class _UnionFind:
    def __init__(self, size: int) -> None:
        self.parent = list(range(size))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


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
    block_bits: int = 16,
    work_limit: int = DEFAULT_BASIN_WORK_LIMIT,
) -> LandscapeReport:
    """Group weak k-minima into components under moves of Hamming width <= k.

    Vertices are assignments no change of <= k variables strictly improves
    (``flipped_rule=True`` instead keeps assignments no such change strictly
    worsens); edges join vertices within Hamming distance k.  Every strict
    k-minimum is necessarily an isolated vertex: any other vertex within
    distance k would see a strictly downhill move back to the minimum and
    lose its own vertex status.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    n = inst.n
    masks = _flip_masks(n, k)
    # Past this many vertices the work limit rejects the request, so the
    # strictness checks stop there.
    max_vertices = work_limit // max(1, len(masks))
    blocks: List[np.ndarray] = []  # vertex bit masks, rank order
    strict: List[Assignment] = []
    count = 0
    for bits in _survivor_bits(inst, strict=False, flipped=flipped_rule,
                               block_bits=block_bits):
        if k > 1:
            bits = bits[_k_checks(inst, _bit_spins(bits, n), k, strict=False,
                                  flipped=flipped_rule)]
        blocks.append(bits)
        if not flipped_rule:
            head = bits[: max(0, max_vertices - count)]
            head = head[_k_checks(inst, _bit_spins(head, n), k, strict=True,
                                  singles_known=False)]
            strict.extend(Assignment(n, b) for b in head.tolist())
        count += len(bits)
        # the count only grows, so the scan stops at the first block past the limit
        if count * max(1, len(masks)) > work_limit:
            raise EnumerationLimitError(
                "basin construction over at least %d vertices x %d moves exceeds"
                " the work limit" % (count, len(masks))
            )
    vertices = np.concatenate(blocks)
    uf = _UnionFind(count)
    if count:
        order = np.argsort(vertices)
        ordered = vertices[order]
        for m in masks:
            target = vertices ^ m
            pos = np.searchsorted(ordered, target) % count
            src = np.flatnonzero(ordered[pos] == target)
            dst = order[pos[src]]
            # Each edge is found from both ends; union it once.
            one = src < dst
            for a, b in zip(src[one].tolist(), dst[one].tolist()):
                uf.union(a, b)
    sizes: Dict[int, int] = {}
    for pos in range(count):
        root = uf.find(pos)
        sizes[root] = sizes.get(root, 0) + 1
    return LandscapeReport(
        k=k,
        minima=tuple(strict),
        basin_count=len(sizes),
        basin_sizes=tuple(sorted(sizes.values(), reverse=True)),
        vertex_count=count,
    )


def min_pairwise_hamming(assignments: Sequence[Assignment]) -> int:
    """Minimum Hamming distance over all pairs; n+1 when fewer than two items."""
    if not assignments:
        raise ValueError("need at least one assignment")
    if len(assignments) == 1:
        return assignments[0].n + 1
    return min(a.hamming(b) for a, b in combinations(assignments, 2))

"""Strict k-minima enumeration and basin structure under k-flip moves.

An assignment is a strict k-minimum when every change of 1..k variables
strictly increases the energy.  The energy change of flipping a set U is

    delta(U) = -2 * (sum_{i in U} S_i L_i  -  2 * sum_{i<j in U} J_ij S_i S_j)

with L the local fields, so all checks run on exact integers.  Enumeration
scans the full assignment space in rank blocks with the split-half kernel
:class:`~spinscape.instance.SplitScan` (a block's local fields are one
precomputed table plus one row), and only the (rare) survivors of the
single-flip test pay for the larger subset checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from spinscape.instance import (
    Assignment,
    EnumerationLimitError,
    IsingInstance,
    SplitScan,
    # Unused here; perfbench/tracing.py wraps them under these names.
    block_local_fields,  # noqa: F401
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


# The subset checks run once per scan survivor; their index sets depend on n
# only.  Cached arrays are shared, so they are made read-only.
@lru_cache(maxsize=8)
def _pair_index(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Indices of the pairs i < j of an n x n matrix."""
    iu = np.triu_indices(n, 1)
    for a in iu:
        a.flags.writeable = False
    return iu


@lru_cache(maxsize=8)
def _triple_mask(n: int) -> np.ndarray:
    """Mask of the triples i < j < l of an n x n x n array."""
    i, j, l = np.meshgrid(np.arange(n), np.arange(n), np.arange(n), indexing="ij")
    mask = (i < j) & (j < l)
    mask.flags.writeable = False
    return mask


def _subset_deltas_ok(
    inst: IsingInstance,
    spins: np.ndarray,
    fields: np.ndarray,
    k: int,
    strict: bool,
    flipped: bool = False,
    sizes_from: int = 1,
) -> bool:
    """Check delta(U) against 0 for every variable set U with sizes_from <= |U| <= k.

    strict=True demands improvement-free strictly (delta > 0 everywhere),
    strict=False allows ties (delta >= 0).  flipped=True inverts the
    comparison direction (no change may increase the energy).
    """
    n = inst.n
    sl = (spins.astype(np.int64)) * fields

    def ok(deltas: np.ndarray) -> bool:
        if flipped:
            deltas = -deltas
        return bool((deltas > 0).all() if strict else (deltas >= 0).all())

    if sizes_from <= 1 <= k:
        if not ok(-2 * sl):
            return False
    if k < 2:
        return True
    jm = inst.full_coupling_matrix()
    q = jm * np.outer(spins, spins).astype(np.int64)
    if sizes_from <= 2 <= k and n >= 2:
        d2 = -2 * (sl[:, None] + sl[None, :] - 2 * q)
        if not ok(d2[_pair_index(n)]):
            return False
    if sizes_from <= 3 <= k and n >= 3:
        a1 = sl[:, None, None] + sl[None, :, None] + sl[None, None, :]
        b = q[:, :, None] + q[:, None, :] + q[None, :, :]
        d3 = -2 * (a1 - 2 * b)
        if not ok(d3[_triple_mask(n)]):
            return False
    for size in range(max(4, sizes_from), k + 1):
        if size > n:
            break
        for subset in combinations(range(n), size):
            idx = list(subset)
            inner = 0
            for a_i, b_i in combinations(idx, 2):
                inner += q[a_i, b_i]
            delta = -2 * (int(sl[idx].sum()) - 2 * int(inner))
            if flipped:
                delta = -delta
            if strict and delta <= 0:
                return False
            if not strict and delta < 0:
                return False
    return True


def is_k_minimum(inst: IsingInstance, a: Assignment, k: int) -> bool:
    """True when every change of 1..k variables strictly raises the energy."""
    if k < 1:
        raise ValueError("need k >= 1")
    if a.n != inst.n:
        raise ValueError("assignment does not match instance size")
    spins = a.spins()
    fields = np.array([inst.local_field(a, i) for i in range(inst.n)], dtype=np.int64)
    return _subset_deltas_ok(inst, spins, fields, k, strict=True)


def _scan_candidates(
    inst: IsingInstance, strict: bool, flipped: bool, block_bits: int
) -> Iterable[Tuple[int, np.ndarray, np.ndarray]]:
    """Yield (rank, spins_row, fields_row) for survivors of the single-flip test."""
    scan = SplitScan(inst, block_bits)
    for start in scan.starts:
        spins = scan.spins(start)
        # S_i * L_i in place of the fresh field block: one block-sized
        # array per block instead of two.  Spins are +-1, so a survivor's
        # fields come back exactly as S_i * (S_i * L_i).
        sl = scan.fields(start)
        sl *= spins
        if flipped:
            np.negative(sl, out=sl)
        hits = (sl < 0).all(axis=1) if strict else (sl <= 0).all(axis=1)
        for r in np.flatnonzero(hits):
            fields = sl[r] * spins[r]
            yield start + int(r), spins[r], -fields if flipped else fields


def enumerate_k_minima(
    inst: IsingInstance, k: int = 1, block_bits: int = 16
) -> LandscapeReport:
    """Exhaustively list all strict k-minima in lexicographic order."""
    if k < 1:
        raise ValueError("need k >= 1")
    minima: List[Assignment] = []
    for rank, spins, fields in _scan_candidates(inst, strict=True, flipped=False,
                                                block_bits=block_bits):
        if k == 1 or _subset_deltas_ok(inst, spins, fields, k, strict=True, sizes_from=2):
            minima.append(Assignment.from_rank(rank, inst.n))
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
    vertices: List[int] = []  # bit masks
    strict: List[Assignment] = []
    for rank, spins, fields in _scan_candidates(inst, strict=False, flipped=flipped_rule,
                                                block_bits=block_bits):
        if k == 1 or _subset_deltas_ok(inst, spins, fields, k, strict=False,
                                       flipped=flipped_rule, sizes_from=2):
            a = Assignment.from_rank(rank, n)
            vertices.append(a.bits)
            if (not flipped_rule and len(vertices) <= max_vertices
                    and _subset_deltas_ok(inst, spins, fields, k, strict=True)):
                strict.append(a)
    if len(vertices) * max(1, len(masks)) > work_limit:
        raise EnumerationLimitError(
            "basin construction over %d vertices x %d moves exceeds the work limit"
            % (len(vertices), len(masks))
        )
    index: Dict[int, int] = {bits: pos for pos, bits in enumerate(vertices)}
    uf = _UnionFind(len(vertices))
    for pos, bits in enumerate(vertices):
        for m in masks:
            other = index.get(bits ^ m)
            if other is not None and other != pos:
                uf.union(pos, other)
    sizes: Dict[int, int] = {}
    for pos in range(len(vertices)):
        root = uf.find(pos)
        sizes[root] = sizes.get(root, 0) + 1
    return LandscapeReport(
        k=k,
        minima=tuple(strict),
        basin_count=len(sizes),
        basin_sizes=tuple(sorted(sizes.values(), reverse=True)),
        vertex_count=len(vertices),
    )


def min_pairwise_hamming(assignments: Sequence[Assignment]) -> int:
    """Minimum Hamming distance over all pairs; n+1 when fewer than two items."""
    if not assignments:
        raise ValueError("need at least one assignment")
    if len(assignments) == 1:
        return assignments[0].n + 1
    return min(a.hamming(b) for a, b in combinations(assignments, 2))

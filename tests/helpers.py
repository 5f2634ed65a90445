"""Shared test utilities: seeded random instances and tiny oracles."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Callable, Sequence

import numpy as np

from spinscape.instance import (
    DEFAULT_BLOCK_BITS,
    MAX_ENUM_BITS,
    Assignment,
    EnumerationLimitError,
    IsingInstance,
    iter_rank_blocks,
    spin_block,
)
from spinscape.solver import SolveResult, _merge_counters, _validate_subset


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


def exhaustive_minima(inst: IsingInstance) -> list[Assignment]:
    """Reference strict single-flip minima via direct definition."""
    out = []
    for r in range(1 << inst.n):
        a = Assignment.from_rank(r, inst.n)
        if all(inst.flip_delta(a, i) > 0 for i in range(inst.n)):
            out.append(a)
    return out


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


def reference_branch_and_recombine(
    inst: IsingInstance,
    variables: Sequence[int],
    solve_branch: Callable[[IsingInstance], SolveResult],
) -> tuple[int, Assignment, int, int, dict]:
    """Solve every spin assignment of ``variables`` by conditioning on it.

    Returns the optimal energy, the lex-smallest optimum over all branches
    (branches compare by (energy, rank)), the summed leaf and
    outer-assignment counts and the summed branch counters.
    """
    nb = len(variables)
    leaves = outers = 0
    counters: dict = {}
    best = None
    for wr in range(1 << nb):
        fixed = {
            variables[k]: (1 if (wr >> (nb - 1 - k)) & 1 else -1) for k in range(nb)
        }
        sub, keep = inst.conditioned(fixed)
        res = solve_branch(sub)
        leaves += res.leaves_explored
        outers += res.outer_assignments
        _merge_counters(counters, res.counters)
        bits = sum(1 << v for v, s in fixed.items() if s > 0)
        for q, v in enumerate(keep):
            if (res.best.bits >> q) & 1:
                bits |= 1 << v
        a = Assignment(inst.n, bits)
        if best is None or (res.energy, a.rank) < best[:2]:
            best = (res.energy, a.rank, a)
    assert best is not None
    e_star, _, assignment = best
    assert inst.energy(assignment) == e_star
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

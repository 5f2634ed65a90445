"""Instance families with known landscape structure, plus random samplers.

The "all-pairs" family couples every pair of variables with J = 2 and no
fields; its strict local minima are exactly the balanced assignments, so the
minima count C(n, n/2) grows exponentially while the instance stays tiny.
The multicopy family places disjoint all-pairs blocks side by side
(minima counts multiply), and the column family penalizes squared deviations
of axis-parallel sums from integer targets on an l^f grid, which plants
zero-energy assignments separated by large Hamming distances.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import List, Sequence, Tuple

import numpy as np

from spinscape.instance import Assignment, IsingInstance
from spinscape.rand import rng_from

_STREAM_COLUMN = 11
_STREAM_RANDOM = 12
_STREAM_REGULAR = 13
# Restarts of gen_regular's stub matching before it gives up.
_REGULAR_TRIES = 2000


def gen_csse(n: int) -> IsingInstance:
    """All-pairs instance: J_ij = 2 for every pair, h = 0, c0 = 2*C(n,2).

    n must be even so that balanced assignments (and hence zero-violation
    optima of the underlying clause pairs) exist.
    """
    if n < 2 or n % 2:
        raise ValueError("all-pairs family needs even n >= 2")
    pairs = [(i, j, 2) for i, j in combinations(range(n), 2)]
    return IsingInstance(n, [0] * n, pairs, c0=n * (n - 1))


def gen_multicopy(copies: int, block: int) -> IsingInstance:
    """Disjoint all-pairs blocks of the given size; minima counts multiply."""
    if copies < 1:
        raise ValueError("need at least one copy")
    if block < 2 or block % 2:
        raise ValueError("block size must be even and >= 2")
    n = copies * block
    triples = []
    for b in range(copies):
        base = b * block
        triples.extend(
            (base + i, base + j, 2) for i, j in combinations(range(block), 2)
        )
    return IsingInstance(n, [0] * n, triples, c0=copies * block * (block - 1))


@dataclass(frozen=True)
class ColumnInstance:
    """Grid instance penalizing squared column-sum deviations.

    Variables sit on the f-dimensional grid [0, l)^f (index: row-major with
    coordinate 0 most significant).  A "column" is the set of l variables
    obtained by sweeping one coordinate with the others held fixed; there are
    f * l^(f-1) of them, listed axis by axis in row-major order of the held
    coordinates.  The objective is

        energy(S) = 4 * sum_C (sum_{i in C} S_i - M_C)^2

    so energies are nonnegative multiples of 4 and an assignment has zero
    energy exactly when every column sum hits its target M_C.
    """

    f: int
    l: int
    m_values: Tuple[int, ...]
    columns: Tuple[Tuple[int, ...], ...]
    instance: IsingInstance
    seed: int | None = None
    planted: Assignment | None = None


def _grid_columns(f: int, l: int) -> List[Tuple[int, ...]]:
    weights = [l ** (f - 1 - a) for a in range(f)]
    columns: List[Tuple[int, ...]] = []
    for axis in range(f):
        held = [range(l)] * (f - 1)
        for rest in product(*held):
            coords = list(rest[:axis]) + [0] + list(rest[axis:])
            base = sum(c * w for c, w in zip(coords, weights))
            columns.append(tuple(base + x * weights[axis] for x in range(l)))
    return columns


def _build_column_instance(
    f: int, l: int, m_values: Sequence[int], columns: Sequence[Tuple[int, ...]]
) -> IsingInstance:
    n = l**f
    c0 = 0
    h = [0] * n
    triples = []
    for col, m in zip(columns, m_values):
        c0 += 4 * (l + m * m)
        for i in col:
            h[i] -= 8 * m
        triples.extend((i, j, 8) for i, j in combinations(col, 2))
    return IsingInstance(n, h, triples, c0=c0)


def gen_column(
    f: int, l: int, m_mode: str = "zeros", seed: int | None = None
) -> ColumnInstance:
    """Build a grid instance with zero or sampled column-sum targets.

    ``zeros`` requires even l (a sum of l spins has the parity of l, so odd
    l makes M = 0 unreachable and the zero-energy set empty by parity alone).
    ``sampled`` draws a uniform assignment from ``seed`` and uses its column
    sums as targets, which plants at least that one zero-energy assignment.
    """
    if f < 1 or l < 2:
        raise ValueError("need f >= 1 and l >= 2")
    columns = _grid_columns(f, l)
    n = l**f
    if m_mode == "zeros":
        if l % 2:
            raise ValueError("zeros mode needs even l (column-sum parity)")
        m_values = [0] * len(columns)
        planted = None
        used_seed = None
    elif m_mode == "sampled":
        used_seed = 0 if seed is None else int(seed)
        rng = rng_from(used_seed, _STREAM_COLUMN)
        bits = rng.integers(0, 2, size=n)
        planted = Assignment.from_spins([1 if b else -1 for b in bits])
        m_values = [sum(planted.spin(i) for i in col) for col in columns]
    else:
        raise ValueError("m_mode must be 'zeros' or 'sampled'")
    inst = _build_column_instance(f, l, m_values, columns)
    return ColumnInstance(
        f, l, tuple(m_values), tuple(columns), inst, seed=used_seed, planted=planted
    )


def gen_random(
    n: int,
    density: float,
    wmax: int = 5,
    seed: int = 0,
) -> IsingInstance:
    """Erdos-Renyi couplings with uniform nonzero weights in [-wmax, wmax].

    Fields are uniform over [-wmax, wmax], zero included.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must lie in [0, 1]")
    if wmax < 1:
        raise ValueError("need wmax >= 1")
    rng = rng_from(seed, _STREAM_RANDOM)
    h = [int(x) for x in rng.integers(-wmax, wmax + 1, size=n)]
    triples = []
    for i, j in combinations(range(n), 2):
        if rng.random() < density:
            w = int(rng.integers(1, wmax + 1)) * int(rng.choice([-1, 1]))
            triples.append((i, j, w))
    return IsingInstance(n, h, triples)


def gen_regular(n: int, d: int, wmax: int = 5, seed: int = 0) -> IsingInstance:
    """Random d-regular coupling graph (pairing model with rejection)."""
    if not 0 <= d < n:
        raise ValueError("need 0 <= d < n")
    if (n * d) % 2:
        raise ValueError("n*d must be even")
    if wmax < 1:
        raise ValueError("need wmax >= 1")
    rng = rng_from(seed, _STREAM_REGULAR)
    h = [int(x) for x in rng.integers(-wmax, wmax + 1, size=n)]
    if d == 0:
        return IsingInstance(n, h, [])
    stubs = np.repeat(np.arange(n), d)
    for _ in range(_REGULAR_TRIES):
        # Incremental stub matching: pair off the shuffled stub list one edge
        # at a time, retrying individual draws that would create a loop or a
        # duplicate edge, and restarting from scratch when stuck.  Rejecting
        # whole pairings instead becomes hopeless already around d = 5.
        pool = list(rng.permutation(stubs))
        edges = set()
        while len(pool) > 1:
            placed = False
            for _attempt in range(50):
                k = int(rng.integers(0, len(pool) - 1))
                a = int(pool[-1])
                b = int(pool[k])
                key = (min(a, b), max(a, b))
                if a != b and key not in edges:
                    edges.add(key)
                    pool.pop()
                    pool.pop(k)
                    placed = True
                    break
            if not placed:
                break
        if not pool:
            triples = [
                (i, j, int(rng.integers(1, wmax + 1)) * int(rng.choice([-1, 1])))
                for i, j in sorted(edges)
            ]
            return IsingInstance(n, h, triples)
    raise RuntimeError("failed to sample a simple %d-regular graph" % d)

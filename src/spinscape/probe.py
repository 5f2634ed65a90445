"""Interval-hit probabilities of integer-weighted random sign sums.

For weights a_1..a_n and independent uniform signs, the sum
``X = sum a_i * s_i`` is supported on integers in [-A, A] with
``A = sum |a_i|``.  A dense convolution over that support counts outcomes
exactly (Python integers), so ``Pr(|X + h| <= delta)`` comes out as an
exact rational.  A seeded Monte Carlo estimator cross-checks the oracle,
and a scaling report tracks how the maximal interval probability of
all-ones sums decays with n.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

from spinscape.instance import INT32_MAX, INT64_MAX, EnumerationLimitError, thread_map

SUPPORT_LIMIT = 10**7
_STREAM_MC = 31
_MC_SHARDS = 8
_MC_CHUNK_ROWS = 1024


class SupportLimitError(EnumerationLimitError):
    """The support 2A + 1 of a sign sum exceeds ``SUPPORT_LIMIT`` cells.

    The CLI maps an :class:`EnumerationLimitError` to its resource-limit
    exit code.
    """


@dataclass(frozen=True)
class WeightedSum:
    """Integer weights of a random sign sum; every magnitude is >= 1."""

    a: Tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", tuple(int(x) for x in self.a))
        if not self.a:
            raise ValueError("need at least one weight")
        if any(abs(x) < 1 for x in self.a):
            raise ValueError("weight magnitudes must be >= 1")
        if sum(abs(x) for x in self.a) > INT64_MAX:
            raise ValueError("total weight exceeds the 64-bit support bound")

    @property
    def n(self) -> int:
        return len(self.a)

    @property
    def support_radius(self) -> int:
        return sum(abs(x) for x in self.a)


def _coerce(weights) -> WeightedSum:
    if isinstance(weights, WeightedSum):
        return weights
    return WeightedSum(tuple(weights))


def _packed_counts(w: WeightedSum) -> Tuple[bytes, int, int]:
    """The half count table of the sign sum as (data, width, radius).

    A sign sum always has the parity of its radius A = sum |a_i|, so only
    the A + 1 points 2i - A of [-A, A] can be hit.  Slot i of the table is
    ``data[i * width : (i + 1) * width]``, a little-endian count of the
    sign choices with sum 2i - A.

    Weights are grouped by magnitude: the largest group (m, k) alone is the
    binomial row C(k, j) at stride m, and every other weight of magnitude
    ``mag`` adds the table to itself shifted by ``mag`` slots, smallest
    magnitudes first.  With a single group no add runs and the joined row
    bytes are the table.
    """
    radius = w.support_radius
    if 2 * radius + 1 > SUPPORT_LIMIT:
        raise SupportLimitError(
            "support of %d cells exceeds the dense-table limit of %d"
            % (2 * radius + 1, SUPPORT_LIMIT)
        )
    # A partial count is a number of sign choices of at most n weights, so it
    # stays <= 2**n < 2**(8 * width): no carry ever crosses a slot boundary.
    width = (w.n + 8) // 8
    groups = Counter(abs(x) for x in w.a)
    m, k = max(groups.items(), key=lambda g: (g[1], g[0]))
    del groups[m]
    row = [1]
    for j in range(k // 2):
        row.append(row[-1] * (k - j) // (j + 1))
    row += row[k - len(row) :: -1]  # C(k, j) = C(k, k - j)
    gap = bytes((m - 1) * width)
    data = gap.join(c.to_bytes(width, "little") for c in row)
    if not groups:
        return data, width, radius
    packed = int.from_bytes(data, "little")
    # ascending magnitudes keep the table short for the most adds
    for mag, count in sorted(groups.items()):
        shift = mag * 8 * width  # bits in mag slots
        for _ in range(count):
            packed += packed << shift
    return packed.to_bytes((radius + 1) * width, "little"), width, radius


def _half_counts(w: WeightedSum) -> Tuple[List[int], int]:
    """The slots of ``_packed_counts`` as exact integers, and the radius."""
    data, width, radius = _packed_counts(w)
    return [
        int.from_bytes(data[i : i + width], "little") for i in range(0, len(data), width)
    ], radius


def signed_sum_counts(weights) -> Tuple[List[int], int]:
    """Outcome counts of the sign sum over its integer support.

    Returns (counts, radius) where counts[v + radius] is the number of the
    2**n sign choices with sum exactly v.  The sums of the other parity
    than the radius are never hit, so every other count is zero; the rest
    are the slots of ``_packed_counts``.
    """
    half, radius = _half_counts(_coerce(weights))
    counts = [0] * (2 * radius + 1)
    counts[::2] = half
    return counts, radius


def exact_interval_prob(weights, delta: int, h: int) -> Fraction:
    """Exact Pr(|X + h| <= delta) for the sign sum X.

    The window [-h - delta, -h + delta], clamped to [-A, A] as [lo, hi],
    holds the points 2i - A of slots ceil((lo + A) / 2) .. floor((hi + A) / 2)
    of the half count table, and only those slots are read.
    """
    delta = int(delta)
    h = int(h)
    if delta < 0:
        raise ValueError("delta must be >= 0")
    w = _coerce(weights)
    data, width, radius = _packed_counts(w)
    first = (max(-h - delta, -radius) + radius + 1) // 2
    last = (min(-h + delta, radius) + radius) // 2
    hits = sum(
        int.from_bytes(data[i : i + width], "little")
        for i in range(first * width, (last + 1) * width, width)
    )
    return Fraction(hits, 1 << w.n)


def max_interval_prob(weights, delta: int) -> Tuple[int, Fraction]:
    """Maximize Pr(|X + h| <= delta) over integer shifts h.

    Ties resolve to the smallest h.  A window at least as wide as the
    support (delta >= A) first holds all of it at h = A - delta, which is
    returned without a table.

    Otherwise only the aligned windows are scanned: those whose lowest
    point 2i - A has the parity of the sum.  Aligned window i holds slots
    i .. i + delta of the half count table and has shift h = A - 2i - delta.
    No other window can be the answer:

    - a window whose lowest point has the other parity holds a subset of
      the points of the next aligned window up, whose shift is smaller;
    - a window whose lowest point lies below -A holds a subset of the
      points of window 0, whose shift is smaller;
    - if the lowest slot of an aligned window is empty, the next aligned
      window up (one slot higher, a shift two smaller) scores at least as
      much, so the best window's lowest point lies in the support.

    So i runs from A down to 0 (h upwards) with one running sum that takes
    in slot i and drops slot i + delta + 1, and the first strict maximum
    is kept.
    """
    delta = int(delta)
    if delta < 0:
        raise ValueError("delta must be >= 0")
    w = _coerce(weights)
    if delta >= w.support_radius:
        return w.support_radius - delta, Fraction(1)
    counts, radius = _half_counts(w)
    entering = reversed(counts)
    leaving = chain(repeat(0, delta + 1), reversed(counts))
    best = best_i = run = 0
    for i, add, drop in zip(range(radius, -1, -1), entering, leaving):
        run += add - drop
        if run > best:
            best, best_i = run, i
    return radius - 2 * best_i - delta, Fraction(best, 1 << w.n)


class MCEstimate(NamedTuple):
    estimate: float
    std_error: float


def mc_interval_prob(
    weights, delta: int, h: int, samples: int, seed: int = 0, workers: int = 1
) -> MCEstimate:
    """Seeded Monte Carlo frequency of |X + h| <= delta with binomial error.

    Samples are split over a fixed number of shards with per-shard seed
    streams, so the pooled count does not depend on the worker count.  A
    shard reads its 0/1 rows from the raw 64-bit words of its Philox
    generator, taken as one stream of little-endian bytes.  With
    G = ceil(n/8), row r is bytes r*G .. r*G + G - 1 of the stream, and its
    draw j is bit 7 - j%8 of byte j//8, so the first draw sits in the top
    bit; the pad bits of a row's last byte are drawn and weigh nothing.
    Rows are read ``_MC_CHUNK_ROWS`` at a time; the bytes of a chunk's last
    word that the chunk does not use carry into the next chunk, so the
    chunk size does not change the draws.

    With bits b in {0, 1} and s = b . a, the sum is X = 2s - sum(a), so the
    test is lo <= s <= hi, and s is the sum of one table entry per row
    byte: entry (g, v) is the sum of the weights of group g (draws
    8g..8g+7) whose bits are set in v.  Every entry and every partial sum
    is a sum over a subset of the weights, so it is at most sum(|a_i|) in
    magnitude: the table is int32 when that is <= INT32_MAX and int64
    otherwise, and its arithmetic is exact.  The bounds are Python ints
    clamped to the range of s, so no fixed-width arithmetic can wrap,
    whatever h and delta are.
    """
    delta = int(delta)
    h = int(h)
    if delta < 0:
        raise ValueError("delta must be >= 0")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    w = _coerce(weights)
    n = w.n
    total = sum(w.a)
    lo = max(-((h + delta - total) // 2), sum(x for x in w.a if x < 0))
    hi = min((total - h + delta) // 2, sum(x for x in w.a if x > 0))
    base, extra = divmod(samples, _MC_SHARDS)
    shard_sizes = [base + (1 if k < extra else 0) for k in range(_MC_SHARDS)]
    groups = -(-n // 8)
    dtype = np.int32 if w.support_radius <= INT32_MAX else np.int64
    padded = np.zeros((groups, 8), dtype=dtype)
    padded.flat[:n] = w.a
    table = np.zeros((groups, 1), dtype=dtype)
    for j in range(7, -1, -1):  # the last weight of a group ends in bit 0
        table = np.concatenate([table, table + padded[:, j : j + 1]], axis=1)
    table = table.ravel()
    offsets = np.arange(0, 256 * groups, 256, dtype=np.intp)

    def run_shard(k: int) -> int:
        size = shard_sizes[k]
        if size == 0 or lo > hi:
            return 0
        gen = np.random.Philox(np.random.SeedSequence([seed, _STREAM_MC, k]))
        spare = np.zeros(0, dtype=np.uint8)
        hits = 0
        for done in range(0, size, _MC_CHUNK_ROWS):
            m = min(_MC_CHUNK_ROWS, size - done)
            nbytes = m * groups
            words = gen.random_raw(-(-(nbytes - spare.size) // 8)).astype("<u8", copy=False)
            stream = np.concatenate([spare, words.view(np.uint8)])
            spare = stream[nbytes:].copy()
            s = table[stream[:nbytes].reshape(m, groups) + offsets].sum(axis=1, dtype=dtype)
            hits += int(np.count_nonzero((s >= lo) & (s <= hi)))
        return hits

    hits = sum(thread_map(run_shard, range(_MC_SHARDS), workers))
    p = hits / samples
    return MCEstimate(p, math.sqrt(p * (1.0 - p) / samples))


@dataclass(frozen=True)
class ScalingRow:
    n: int
    h_star: int
    probability: Fraction
    normalized: float  # probability * sqrt(n) / delta


@dataclass(frozen=True)
class ScalingReport:
    delta: int
    rows: Tuple[ScalingRow, ...]
    ratios: Tuple[float, ...]  # probability[i + 1] / probability[i]

    def to_json_dict(self) -> dict:
        return {
            "delta": self.delta,
            "rows": [
                {
                    "n": r.n,
                    "h_star": r.h_star,
                    "probability": str(r.probability),
                    "normalized": r.normalized,
                }
                for r in self.rows
            ],
            "ratios": list(self.ratios),
        }


def scaling_report(n_list: Sequence[int], delta: int = 1) -> ScalingReport:
    """Maximal interval probability of all-ones sign sums versus n.

    For each n the report records max_h Pr(|X + h| <= delta) for n unit
    weights, the normalized value probability * sqrt(n) / delta, and the
    ratio between consecutive rows.  The normalized column stays bounded
    while the raw probabilities shrink like 1/sqrt(n).
    """
    delta = int(delta)
    if delta < 1:
        raise ValueError("delta must be >= 1 for the normalized column")
    rows: List[ScalingRow] = []
    for n in n_list:
        if n < 1:
            raise ValueError("every n must be >= 1")
        h_star, prob = max_interval_prob([1] * n, delta)
        rows.append(ScalingRow(n, h_star, prob, float(prob) * math.sqrt(n) / delta))
    ratios = tuple(
        float(rows[i + 1].probability / rows[i].probability)
        for i in range(len(rows) - 1)
    )
    return ScalingReport(delta, tuple(rows), ratios)

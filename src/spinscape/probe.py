"""Interval-hit probabilities of integer-weighted random sign sums.

For weights a_1..a_n and independent uniform signs, the sum
``X = sum a_i * s_i`` is supported on integers in [-A, A] with
``A = sum |a_i|``.  A dense convolution over that support counts outcomes
exactly (Python integers), so ``Pr(|X + h| <= delta)`` comes out as an
exact rational.  A seeded Monte Carlo estimator cross-checks the oracle,
and a scaling report tracks how the maximal interval probability decays
with n.
"""

from __future__ import annotations

import math
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from spinscape.instance import INT64_MAX, EnumerationLimitError

SUPPORT_LIMIT = 10**7
_STREAM_MC = 31
_STREAM_SCALING = 32
_MC_SHARDS = 8
_MC_CHUNK_ROWS = 1024


class SupportLimitError(EnumerationLimitError, ValueError):
    """The support 2A + 1 of a sign sum exceeds ``SUPPORT_LIMIT`` cells.

    The CLI maps an :class:`EnumerationLimitError` to its resource-limit
    exit code; callers that caught the former ``ValueError`` still do.
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


def signed_sum_counts(weights) -> Tuple[List[int], int]:
    """Outcome counts of the sign sum over its integer support.

    Returns (counts, radius) where counts[v + radius] is the number of the
    2**n sign choices with sum exactly v.

    The counts live in one packed Python int, one ``width``-byte slot per
    support point, least significant slot first.  Weights are grouped by
    magnitude: the largest group (m, k) is the binomial row C(k, j) at
    stride 2m, and every other weight of magnitude m adds the table shifted
    by 2m slots to itself.
    """
    w = _coerce(weights)
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
    for j in range(k):
        row.append(row[-1] * (k - j) // (j + 1))
    gap = bytes((2 * m - 1) * width)
    packed = int.from_bytes(gap.join(c.to_bytes(width, "little") for c in row), "little")
    for mag, count in groups.items():
        shift = 2 * mag * 8 * width  # bits in 2 * mag slots
        for _ in range(count):
            packed += packed << shift
    data = packed.to_bytes((2 * radius + 1) * width, "little")
    counts = [
        int.from_bytes(data[i : i + width], "little") for i in range(0, len(data), width)
    ]
    return counts, radius


def _range_count(counts: List[int], radius: int, lo: int, hi: int) -> int:
    lo = max(lo, -radius)
    hi = min(hi, radius)
    if lo > hi:
        return 0
    return sum(counts[lo + radius : hi + radius + 1])


def exact_interval_prob(weights, delta: int, h: int) -> Fraction:
    """Exact Pr(|X + h| <= delta) for the sign sum X."""
    delta = int(delta)
    h = int(h)
    if delta < 0:
        raise ValueError("delta must be >= 0")
    w = _coerce(weights)
    counts, radius = signed_sum_counts(w)
    hits = _range_count(counts, radius, -h - delta, -h + delta)
    return Fraction(hits, 1 << w.n)


def max_interval_prob(weights, delta: int) -> Tuple[int, Fraction]:
    """Maximize Pr(|X + h| <= delta) over integer shifts h.

    Only h in [-A - delta, A + delta] can score (A the support radius);
    ties resolve to the smallest h.
    """
    delta = int(delta)
    if delta < 0:
        raise ValueError("delta must be >= 0")
    w = _coerce(weights)
    counts, radius = signed_sum_counts(w)
    prefix = [0]
    for c in counts:
        prefix.append(prefix[-1] + c)

    def window(lo: int, hi: int) -> int:
        lo = max(lo, -radius)
        hi = min(hi, radius)
        if lo > hi:
            return 0
        return prefix[hi + radius + 1] - prefix[lo + radius]

    best_h = -(radius + delta)
    best = window(-best_h - delta, -best_h + delta)
    for h in range(-(radius + delta) + 1, radius + delta + 1):
        c = window(-h - delta, -h + delta)
        if c > best:
            best, best_h = c, h
    return best_h, Fraction(best, 1 << w.n)


class MCEstimate(NamedTuple):
    estimate: float
    std_error: float


def mc_interval_prob(
    weights, delta: int, h: int, samples: int, seed: int = 0, workers: int = 1
) -> MCEstimate:
    """Seeded Monte Carlo frequency of |X + h| <= delta with binomial error.

    Samples are split over a fixed number of shards with per-shard seed
    streams, so the pooled count does not depend on the worker count.  A
    shard draws its 0/1 rows in chunks of ``_MC_CHUNK_ROWS``; the chunk size
    does not change the draws, because the bit generator keeps the spare
    half of a 64-bit word in its state.

    With bits b in {0, 1} and s = b . a, the sum is X = 2s - sum(a), so the
    test is lo <= s <= hi.  The bounds are Python ints clamped to the range
    of s, so no int64 arithmetic can wrap, whatever h and delta are.
    """
    delta = int(delta)
    h = int(h)
    if delta < 0:
        raise ValueError("delta must be >= 0")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    w = _coerce(weights)
    arr = np.array(w.a, dtype=np.int64)
    total = sum(w.a)
    lo = max(-((h + delta - total) // 2), sum(x for x in w.a if x < 0))
    hi = min((total - h + delta) // 2, sum(x for x in w.a if x > 0))
    base, extra = divmod(samples, _MC_SHARDS)
    shard_sizes = [base + (1 if k < extra else 0) for k in range(_MC_SHARDS)]

    def run_shard(k: int) -> int:
        size = shard_sizes[k]
        if size == 0 or lo > hi:
            return 0
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence([seed, _STREAM_MC, k]))
        )
        hits = 0
        for done in range(0, size, _MC_CHUNK_ROWS):
            m = min(_MC_CHUNK_ROWS, size - done)
            s = rng.integers(0, 2, size=(m, w.n), dtype=np.int64) @ arr
            hits += int(np.count_nonzero((s >= lo) & (s <= hi)))
        return hits

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            hits = sum(ex.map(run_shard, range(_MC_SHARDS)))
    else:
        hits = sum(run_shard(k) for k in range(_MC_SHARDS))
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


def scaling_report(
    n_list: Sequence[int],
    weight_gen: Optional[Callable[[int, np.random.Generator], Sequence[int]]] = None,
    delta: int = 1,
    seed: int = 0,
) -> ScalingReport:
    """Maximal interval probability versus n, with decay ratios.

    For each n the report records max_h Pr(|X + h| <= delta) for weights
    drawn from ``weight_gen`` (all-ones when omitted), the normalized value
    probability * sqrt(n) / delta, and the ratio between consecutive rows.
    The normalized column stays bounded while the raw probabilities shrink
    like 1/sqrt(n).
    """
    delta = int(delta)
    if delta < 1:
        raise ValueError("delta must be >= 1 for the normalized column")
    rng = np.random.Generator(
        np.random.Philox(np.random.SeedSequence([seed, _STREAM_SCALING]))
    )
    rows: List[ScalingRow] = []
    for n in n_list:
        if n < 1:
            raise ValueError("every n must be >= 1")
        weights = [1] * n if weight_gen is None else list(weight_gen(n, rng))
        if len(weights) != n:
            raise ValueError("weight_gen returned %d weights for n=%d" % (len(weights), n))
        h_star, prob = max_interval_prob(weights, delta)
        rows.append(ScalingRow(n, h_star, prob, float(prob) * math.sqrt(n) / delta))
    ratios = tuple(
        float(rows[i + 1].probability / rows[i].probability)
        for i in range(len(rows) - 1)
    )
    return ScalingReport(delta, tuple(rows), ratios)

import itertools
import math
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import reference_max_interval_prob, reference_signed_sum_counts
from spinscape import probe
from spinscape.instance import INT64_MAX
from spinscape.probe import (
    MCEstimate,
    WeightedSum,
    exact_interval_prob,
    scaling_report,
    max_interval_prob,
    mc_interval_prob,
    signed_sum_counts,
)

small_weights = st.lists(
    st.integers(min_value=1, max_value=4).map(lambda x: x),
    min_size=1,
    max_size=7,
).map(lambda ws: [w if i % 2 == 0 else -w for i, w in enumerate(ws)])

# slot widths of the packed count table change between n = 7 and 8, 15 and 16, ...
SLOT_BOUNDARY_SIZES = (7, 8, 15, 16, 63, 64)


@st.composite
def grouped_weights(draw):
    """Signed weights with one shared magnitude or mixed magnitudes."""
    n = draw(st.sampled_from(SLOT_BOUNDARY_SIZES) | st.integers(1, 24))
    if draw(st.booleans()):
        mags = [draw(st.integers(1, 6))] * n
    else:
        mags = draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
    signs = draw(st.lists(st.sampled_from((-1, 1)), min_size=n, max_size=n))
    return [m * s for m, s in zip(mags, signs)]


@st.composite
def window_cases(draw):
    """Weights from ``grouped_weights`` and a narrow window or one about as
    wide as the support."""
    ws = draw(grouped_weights())
    radius = sum(abs(w) for w in ws)
    delta = draw(st.integers(0, 4) | st.integers(max(radius - 2, 0), radius + 3))
    return ws, delta


@st.composite
def gapped_cases(draw):
    """A few magnitudes from {1, 2} and a few from {10, 17, 40}, so whole
    runs of the support are empty; a narrow window or one about as wide as
    the support; a shift of either parity relative to the radius."""
    mags = draw(st.lists(st.sampled_from((1, 2)), max_size=3))
    mags += draw(st.lists(st.sampled_from((10, 17, 40)), min_size=1, max_size=3))
    mags = draw(st.permutations(mags))
    signs = draw(st.lists(st.sampled_from((-1, 1)), min_size=len(mags), max_size=len(mags)))
    ws = [m * s for m, s in zip(mags, signs)]
    radius = sum(mags)
    delta = draw(st.integers(0, 3) | st.integers(max(radius - 2, 0), radius + 2))
    half = (radius + 4) // 2
    h = 2 * draw(st.integers(-half, half)) + radius % 2 + draw(st.sampled_from((0, 1)))
    return ws, delta, h


def reference_mc_hits(weights, delta, h, samples, seed):
    """Hit count of the seeded stream by an independent route: each shard's
    raw words as little-endian bytes, ``np.unpackbits`` of one row's
    ceil(n/8) bytes at a time (first draw in the top bit, pad bits cut),
    an int64 matmul, and the window test on Python ints."""
    n = len(weights)
    row_bytes = -(-n // 8)
    a = np.array(weights, dtype=np.int64)
    total = sum(weights)
    base, extra = divmod(samples, probe._MC_SHARDS)
    hits = 0
    for k in range(probe._MC_SHARDS):
        size = base + (k < extra)
        gen = np.random.Philox(np.random.SeedSequence([seed, probe._STREAM_MC, k]))
        words = gen.random_raw(-(-size * row_bytes // 8))
        raw = words.astype("<u8").tobytes()
        rows = np.array(
            [np.unpackbits(np.frombuffer(raw[r * row_bytes : (r + 1) * row_bytes],
                                         dtype=np.uint8))[:n]
             for r in range(size)],
            dtype=np.int64,
        ).reshape(size, n)
        hits += sum(abs(2 * s - total + h) <= delta for s in (rows @ a).tolist())
    return hits


@st.composite
def mc_cases(draw):
    """Weights (small, or some near +-2**61), a window that the draws can hit,
    a sample count, a chunk size and a worker count."""
    n = draw(st.sampled_from((1, 7, 8, 9, 16, 17)) | st.integers(1, 40))
    big = draw(st.integers(0, min(n, 3)))
    mags = [draw(st.integers(2**61 - 2**20, 2**61)) for _ in range(big)]
    mags += draw(st.lists(st.integers(1, 9), min_size=n - big, max_size=n - big))
    mags = draw(st.permutations(mags))
    signs = draw(st.lists(st.sampled_from((-1, 1)), min_size=n, max_size=n))
    ws = [m * s for m, s in zip(mags, signs)]
    # centre the window on the sum of a random sign vector, or shift it anywhere
    target = sum(w * s for w, s in zip(ws, draw(st.lists(
        st.sampled_from((-1, 1)), min_size=n, max_size=n))))
    h = draw(st.just(-target) | st.integers(-50, 50))
    delta = draw(st.integers(0, 3) | st.integers(0, sum(map(abs, ws))))
    samples = draw(st.integers(1, 2000))
    rows = draw(st.sampled_from((1, 7, 1024)))
    workers = draw(st.sampled_from((1, 2)))
    return ws, delta, h, samples, rows, workers


class TestCounts:
    def test_four_unit_weights(self):
        counts, radius = signed_sum_counts((1, 1, 1, 1))
        assert radius == 4
        assert counts == [1, 0, 4, 0, 6, 0, 4, 0, 1]

    def test_sign_of_weight_is_irrelevant(self):
        a, _ = signed_sum_counts((1, -2, 3))
        b, _ = signed_sum_counts((1, 2, 3))
        assert a == b

    @given(small_weights)
    @settings(max_examples=60, deadline=None)
    def test_mass_and_symmetry(self, ws):
        counts, radius = signed_sum_counts(ws)
        assert sum(counts) == 1 << len(ws)
        assert counts == counts[::-1]

    @given(grouped_weights())
    @settings(max_examples=120)
    def test_matches_list_convolution(self, ws):
        assert signed_sum_counts(ws) == reference_signed_sum_counts(ws)

    @pytest.mark.parametrize("n", SLOT_BOUNDARY_SIZES)
    def test_unit_weights_give_the_binomial_row(self, n):
        counts, radius = signed_sum_counts([1] * n)
        assert radius == n
        row = [math.comb(n, j) for j in range(n + 1)]
        assert counts[::2] == row
        assert not any(counts[1::2])

    @pytest.mark.parametrize("n", SLOT_BOUNDARY_SIZES)
    def test_slot_boundaries_with_mixed_groups(self, n):
        ws = [(-1) ** i * (1 + i % 3) for i in range(n)]
        assert signed_sum_counts(ws) == reference_signed_sum_counts(ws)

    @pytest.mark.parametrize("n", SLOT_BOUNDARY_SIZES)
    def test_table_holds_only_the_points_of_the_sums_parity(self, n):
        for ws in ([1] * n, [-3] * n, [(-1) ** i * (1 + i % 3) for i in range(n)]):
            data, width, radius = probe._packed_counts(WeightedSum(ws))
            assert width == (n + 8) // 8
            assert len(data) == (radius + 1) * width
            slots = [int.from_bytes(data[i : i + width], "little")
                     for i in range(0, len(data), width)]
            assert slots == reference_signed_sum_counts(ws)[0][::2]

    def test_validation(self):
        with pytest.raises(ValueError):
            WeightedSum(())
        with pytest.raises(ValueError):
            WeightedSum((1, 0, 2))
        with pytest.raises(ValueError):
            WeightedSum((2**62, 2**62, 2**62))
        with pytest.raises(probe.SupportLimitError):
            signed_sum_counts((10**7,))  # support too large for the dense table


class TestExact:
    def test_four_units_center(self):
        assert exact_interval_prob((1, 1, 1, 1), 1, 0) == Fraction(6, 16)

    def test_single_unit_everything_in_range(self):
        assert exact_interval_prob((1,), 1, 0) == Fraction(1)

    def test_two_twos(self):
        assert exact_interval_prob((2, 2), 1, 0) == Fraction(1, 2)

    def test_shifted_window(self):
        # |X + 1| <= 1 means X in {-2, 0}: 4 + 6 outcomes of 16
        assert exact_interval_prob((1, 1, 1, 1), 1, 1) == Fraction(10, 16)

    def test_delta_zero(self):
        assert exact_interval_prob((1,), 0, 1) == Fraction(1, 2)

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            exact_interval_prob((1, 1), -1, 0)

    @given(small_weights, st.integers(0, 6), st.integers(-8, 8))
    @settings(max_examples=80, deadline=None)
    def test_symmetry_in_h(self, ws, delta, h):
        assert exact_interval_prob(ws, delta, h) == exact_interval_prob(ws, delta, -h)

    @given(small_weights, st.integers(0, 5), st.integers(-6, 6))
    @settings(max_examples=80, deadline=None)
    def test_monotone_in_delta(self, ws, delta, h):
        assert exact_interval_prob(ws, delta, h) <= exact_interval_prob(ws, delta + 1, h)

    @given(grouped_weights(), st.integers(0, 8), st.integers(-400, 400))
    @settings(max_examples=80, deadline=None)
    def test_matches_reference_counts(self, ws, delta, h):
        counts, radius = reference_signed_sum_counts(ws)
        hits = sum(c for v, c in enumerate(counts, -radius) if abs(v + h) <= delta)
        assert exact_interval_prob(ws, delta, h) == Fraction(hits, 1 << len(ws))

    @given(small_weights)
    @settings(max_examples=40, deadline=None)
    def test_full_window_has_mass_one(self, ws):
        radius = sum(abs(w) for w in ws)
        assert exact_interval_prob(ws, radius, 0) == Fraction(1)


class TestMax:
    def test_four_units_tie_resolves_to_smallest_h(self):
        # h = -1 and h = +1 both capture 10/16; the smaller shift wins
        h, p = max_interval_prob((1, 1, 1, 1), 1)
        assert p == Fraction(10, 16)
        assert h == -1

    def test_single_unit_point_window(self):
        h, p = max_interval_prob((1,), 0)
        assert p == Fraction(1, 2)
        assert h == -1

    def test_single_weight_wide_window(self):
        for k in (1, 3, 7):
            h, p = max_interval_prob((k,), k)
            assert (h, p) == (0, Fraction(1))

    def test_window_far_wider_than_the_support(self):
        # a scan over all 2A + 2 delta + 1 shifts would never end
        assert max_interval_prob((3, -1), 2**62) == (4 - 2**62, Fraction(1))

    def test_window_wider_than_the_support_needs_no_table(self):
        # a table of 2 * 10**7 + 1 cells would exceed SUPPORT_LIMIT
        assert max_interval_prob((10**7,), 10**7) == (0, Fraction(1))
        assert max_interval_prob((-(10**7),), 10**7 + 5) == (-5, Fraction(1))
        with pytest.raises(probe.SupportLimitError):
            max_interval_prob((10**7,), 10**7 - 1)

    # whole runs of the support are empty, so many aligned windows hold
    # nothing, and the windows of the other parity hold a subset of the next
    # aligned window up
    @given(gapped_cases())
    @example(([1, -10, 10], 1, 0))
    @example(([1, -10, 10], 1, 1))
    @example(([10, 10], 1, 0))
    @example(([10, 10], 1, 1))
    @example(([3, 8], 0, 0))
    @example(([3, 8], 0, 5))
    @settings(max_examples=120, deadline=None)
    def test_gapped_magnitudes_match_the_references(self, case):
        ws, delta, h = case
        assert max_interval_prob(ws, delta) == reference_max_interval_prob(ws, delta)
        counts, radius = reference_signed_sum_counts(ws)
        hits = sum(c for v, c in enumerate(counts, -radius) if abs(v + h) <= delta)
        assert exact_interval_prob(ws, delta, h) == Fraction(hits, 1 << len(ws))

    @given(small_weights, st.integers(0, 5))
    @settings(max_examples=60, deadline=None)
    def test_max_dominates_every_shift(self, ws, delta):
        h_star, p_star = max_interval_prob(ws, delta)
        radius = sum(abs(w) for w in ws)
        for h in range(-radius - delta, radius + delta + 1):
            p = exact_interval_prob(ws, delta, h)
            assert p <= p_star
            if p == p_star:
                assert h_star <= h
                break

    # single weights and far-apart magnitudes put a lone count under every
    # window, so the first and the last shift tie for the maximum; a window
    # wider than the support holds all of it over a whole run of shifts
    @given(window_cases())
    @example(([5], 0))
    @example(([5], 4))
    @example(([2, -7], 1))
    @example(([1], 1))
    @example(([3, 3, -3], 9))
    @example(([2, 2, 2, -2], 13))
    @settings(max_examples=80, deadline=None)
    def test_matches_window_scan(self, case):
        ws, delta = case
        assert max_interval_prob(ws, delta) == reference_max_interval_prob(ws, delta)


class TestMonteCarlo:
    def test_agrees_with_exact(self):
        exact = float(exact_interval_prob((1, 1, 1, 1), 1, 0))
        est = mc_interval_prob((1, 1, 1, 1), 1, 0, samples=200_000, seed=7)
        assert abs(est.estimate - exact) <= 4 * est.std_error

    def test_deterministic_and_worker_independent(self):
        a = mc_interval_prob((1, 3, 2), 1, 0, samples=50_000, seed=5)
        b = mc_interval_prob((1, 3, 2), 1, 0, samples=50_000, seed=5)
        c = mc_interval_prob((1, 3, 2), 1, 0, samples=50_000, seed=5, workers=4)
        assert a == b == c
        d = mc_interval_prob((1, 3, 2), 1, 0, samples=50_000, seed=6)
        assert a != d

    def test_single_sample(self):
        est = mc_interval_prob((1, 1), 1, 0, samples=1, seed=0)
        assert est.estimate in (0.0, 1.0)
        assert isinstance(est, MCEstimate)

    def test_validation(self):
        with pytest.raises(ValueError):
            mc_interval_prob((1,), 1, 0, samples=0)

    # hit counts of the seeded stream, as ``reference_mc_hits`` counts them; a
    # change of chunking or dtype that moves the draws moves these
    @pytest.mark.parametrize("samples, seed, delta, h, hits", [
        (20001, 4, 2, 1, 3355),  # shards of 2501 rows span several chunks
        (16395, 11, 1, -2, 1790),
        (1, 6, 2, 1, 0),
        (1, 0, 2, 1, 1),
    ])
    def test_frozen_stream(self, samples, seed, delta, h, hits):
        est = mc_interval_prob((3, -1, 4, 1, -5, 9, 2), delta, h, samples, seed=seed)
        p = hits / samples
        assert est == MCEstimate(p, math.sqrt(p * (1.0 - p) / samples))

    @pytest.mark.parametrize("rows", [1, 7, 1000])
    def test_chunk_size_does_not_change_draws(self, rows, monkeypatch):
        ws = (3, -1, 4, 1, -5, 9, 2)
        want = mc_interval_prob(ws, 2, 1, 5003, seed=4)
        monkeypatch.setattr(probe, "_MC_CHUNK_ROWS", rows)
        assert mc_interval_prob(ws, 2, 1, 5003, seed=4) == want

    # 9 weights take 2 bytes a row, so chunks of 1, 3 and 7 rows end inside a
    # word and carry its last 6, 2 and 2 bytes into the next chunk
    @pytest.mark.parametrize("rows", [1, 3, 7])
    def test_chunks_ending_inside_a_word_carry_its_bytes(self, rows, monkeypatch):
        ws = (3, -1, 4, 1, -5, 9, 2, -6, 5)
        want = mc_interval_prob(ws, 3, 2, 3001, seed=8)
        monkeypatch.setattr(probe, "_MC_CHUNK_ROWS", rows)
        got = mc_interval_prob(ws, 3, 2, 3001, seed=8, workers=2)
        assert got == want
        assert got.estimate == reference_mc_hits(ws, 3, 2, 3001, 8) / 3001

    @given(mc_cases(), st.integers(0, 2**32))
    @settings(max_examples=80, deadline=None)
    def test_matches_the_integers_matmul_reference(self, case, seed):
        ws, delta, h, samples, rows, workers = case
        hits = reference_mc_hits(ws, delta, h, samples, seed)
        p = hits / samples
        with mock.patch.object(probe, "_MC_CHUNK_ROWS", rows):
            est = mc_interval_prob(ws, delta, h, samples, seed=seed, workers=workers)
        assert est == MCEstimate(p, math.sqrt(p * (1.0 - p) / samples))

    @pytest.mark.parametrize("h", [INT64_MAX, 2**63, -(2**63), -(2**63) - 1, 2**80])
    def test_shift_beyond_int64_does_not_wrap(self, h):
        assert exact_interval_prob((1,), 1, h) == 0
        assert mc_interval_prob((1,), 1, h, samples=1000, seed=1) == MCEstimate(0.0, 0.0)
        assert exact_interval_prob((1,), abs(h) + 1, h) == 1
        assert mc_interval_prob((1,), abs(h) + 1, h, samples=1000, seed=1) == (1.0, 0.0)

    # total magnitudes of 2**31 - 1 (int32 table) and 2**31 (int64 table); the
    # row with every bit set sums to the total and is the only hit
    @pytest.mark.parametrize("extra", [0, 1])
    def test_sums_at_the_int32_budget(self, extra):
        ws = (2**30, 2**30 - 2 + extra, 1)
        total = sum(ws)
        est = mc_interval_prob(ws, 0, -total, samples=4000, seed=3)
        hits = reference_mc_hits(ws, 0, -total, 4000, 3)
        assert 0 < hits < 4000
        assert est.estimate == hits / 4000

    def test_sums_near_the_int64_budget(self):
        # X + 3 == 0 needs equal signs on the two large weights and -1 on the 3
        est = mc_interval_prob((2**61, -(2**61), 3), 0, 3, samples=20_000, seed=2)
        assert abs(est.estimate - 0.25) <= 4 * est.std_error


def _unit_window_max(n, delta):
    """Best shift h and Pr(|X + h| <= delta) for n unit weights; smallest h wins.

    The counts of X come from all 2**n sign vectors up to n = 15 and from
    binomial coefficients above that.
    """
    if n <= 15:
        counts = Counter(sum(s) for s in itertools.product((-1, 1), repeat=n))
    else:
        counts = {n - 2 * k: math.comb(n, k) for k in range(n + 1)}
    best_h, best = None, -1
    for h in range(-n - delta, n + delta + 1):
        hits = sum(counts.get(v, 0) for v in range(-h - delta, -h + delta + 1))
        if hits > best:
            best_h, best = h, hits
    return best_h, Fraction(best, 1 << n)


class TestScalingReport:
    def test_unit_weights_frozen_values(self):
        rep = scaling_report([16, 64, 256], delta=1)
        p16 = Fraction(math.comb(16, 8) + math.comb(16, 7), 1 << 16)
        p64 = Fraction(math.comb(64, 32) + math.comb(64, 31), 1 << 64)
        p256 = Fraction(math.comb(256, 128) + math.comb(256, 127), 1 << 256)
        assert [r.probability for r in rep.rows] == [p16, p64, p256]
        assert all(r.h_star == -1 for r in rep.rows)
        assert rep.ratios == (float(p64 / p16), float(p256 / p64))
        assert all(r <= 0.6 for r in rep.ratios)
        # ratios shrink towards 1/2 while the normalized column stays bounded
        assert rep.ratios[1] <= rep.ratios[0]
        assert all(r.normalized < 1.6 for r in rep.rows)
        # odd sizes and a window of two: brute force up to n = 15, then binomials
        sizes = [1, 4, 15, 16, 33, 64]
        for delta in (1, 2):
            rep = scaling_report(sizes, delta=delta)
            assert rep.delta == delta
            expected = [_unit_window_max(n, delta) for n in sizes]
            assert [(r.n, r.h_star, r.probability) for r in rep.rows] == [
                (n, h, p) for n, (h, p) in zip(sizes, expected)
            ]
            assert [r.normalized for r in rep.rows] == [
                float(p) * math.sqrt(n) / delta for n, (_, p) in zip(sizes, expected)
            ]
            assert rep.ratios == tuple(
                float(b[1] / a[1]) for a, b in zip(expected, expected[1:])
            )

    def test_n4096_row_is_a_central_binomial_pair(self):
        (row,) = scaling_report([4096], delta=1).rows
        p = Fraction(math.comb(4096, 2048) + math.comb(4096, 2047), 1 << 4096)
        assert (row.n, row.h_star, row.probability) == (4096, -1, p)
        assert row.normalized == float(p) * 64

    def test_single_variable_row(self):
        rep = scaling_report([1], delta=1)
        assert rep.rows[0].probability == Fraction(1)
        assert rep.rows[0].normalized == 1.0
        assert rep.ratios == ()

    def test_validation(self):
        with pytest.raises(ValueError):
            scaling_report([4], delta=0)
        with pytest.raises(ValueError):
            scaling_report([0])

    def test_json_payload(self):
        rep = scaling_report([4, 16], delta=1)
        doc = rep.to_json_dict()
        assert doc["delta"] == 1
        assert doc["rows"][0]["n"] == 4
        assert doc["rows"][0]["probability"] == "5/8"

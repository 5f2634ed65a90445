from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import exhaustive_minima, random_instance
from spinscape.generators import gen_column, gen_csse, zero_energy_assignments
from spinscape.instance import INT64_MAX, Assignment, EnumerationLimitError, IsingInstance
from spinscape import landscape
from spinscape.landscape import (
    enumerate_k_minima,
    is_k_minimum,
    k_basins,
    min_pairwise_hamming,
)


def naive_is_k_minimum(inst, a, k):
    e = inst.energy(a)
    for size in range(1, k + 1):
        for subset in combinations(range(inst.n), size):
            if inst.energy(a.flip_set(subset)) <= e:
                return False
    return True


class TestIsKMinimum:
    def test_matches_naive_definition(self):
        for seed in range(8):
            inst = random_instance(seed, n=6, density=0.5)
            for r in range(64):
                a = Assignment.from_rank(r, 6)
                for k in (1, 2, 3, 4):
                    assert is_k_minimum(inst, a, k) == naive_is_k_minimum(inst, a, k)

    def test_balanced_is_1_but_not_2_minimum(self):
        inst = gen_csse(4)
        a = Assignment.from_spins([1, 1, -1, -1])
        assert is_k_minimum(inst, a, 1)
        assert not is_k_minimum(inst, a, 2)  # opposite-spin swap is an exact tie

    def test_checkerboards_are_3_minima(self):
        ci = gen_column(2, 2, "zeros")
        ze = zero_energy_assignments(ci)
        assert all(is_k_minimum(ci.instance, a, 3) for a in ze)
        assert all(not is_k_minimum(ci.instance, a, 4) for a in ze)

    def test_validation(self):
        inst = gen_csse(4)
        with pytest.raises(ValueError):
            is_k_minimum(inst, Assignment.from_rank(0, 4), 0)


class TestEnumerate:
    def test_matches_flip_scan(self):
        for seed in (3, 14, 15):
            inst = random_instance(seed, n=8, density=0.3)
            report = enumerate_k_minima(inst, 1)
            assert list(report.minima) == exhaustive_minima(inst)

    def test_all_pairs_counts(self):
        assert enumerate_k_minima(gen_csse(4), 1).minima_count == 6
        assert enumerate_k_minima(gen_csse(6), 1).minima_count == 20
        assert enumerate_k_minima(gen_csse(4), 2).minima_count == 0

    def test_minima_sorted_lexicographically(self):
        report = enumerate_k_minima(gen_csse(4), 1)
        ranks = [a.rank for a in report.minima]
        assert ranks == sorted(ranks)

    def test_monotone_in_k(self):
        for seed in range(6):
            inst = random_instance(seed + 40, n=7, density=0.4)
            sets = [
                {a.bits for a in enumerate_k_minima(inst, k).minima} for k in (1, 2, 3)
            ]
            assert sets[2] <= sets[1] <= sets[0]

    def test_flat_instance_has_no_minima(self):
        assert enumerate_k_minima(IsingInstance(4, [0] * 4), 1).minima_count == 0


class TestBasins:
    def test_all_pairs_k1(self):
        report = k_basins(gen_csse(4), 1)
        assert report.vertex_count == 6
        assert report.basin_count == 6
        assert report.basin_sizes == (1,) * 6
        assert report.minima_count == 6  # strict minima stay singleton basins

    def test_all_pairs_k2_single_basin(self):
        report = k_basins(gen_csse(4), 2)
        assert report.vertex_count == 6
        assert report.basin_count == 1
        assert report.basin_sizes == (6,)
        assert report.minima_count == 0

    def test_flat_instance_one_basin(self):
        report = k_basins(IsingInstance(4, [0] * 4), 1)
        assert report.vertex_count == 16
        assert report.basin_count == 1
        assert report.basin_sizes == (16,)

    def test_sizes_sum_to_vertex_count(self):
        for seed in range(5):
            inst = random_instance(seed + 60, n=6, density=0.4)
            report = k_basins(inst, 2)
            assert sum(report.basin_sizes) == report.vertex_count
            for a in report.minima:
                assert is_k_minimum(inst, a, 2)

    def test_flipped_rule(self):
        # On the flat instance every assignment also passes the flipped test.
        report = k_basins(IsingInstance(3, [0] * 3), 1, flipped_rule=True)
        assert report.vertex_count == 8
        # With a pure positive field the flipped rule keeps only the
        # energy-maximal all-up corner.
        inst = IsingInstance(2, [1, 1])
        report = k_basins(inst, 1, flipped_rule=True)
        assert report.vertex_count == 1

    def test_work_limit(self):
        with pytest.raises(EnumerationLimitError):
            k_basins(IsingInstance(6, [0] * 6), 2, work_limit=100)

    def test_rejected_request_skips_most_strictness_checks(self, monkeypatch):
        # 64 vertices x 21 (k = 2) or 41 (k = 3) moves; a limit of 100 admits
        # 4 or 2 vertices, so at most that many rows pay for a strictness
        # check before the rejection.
        real = landscape._k_checks
        strict_rows = []

        def counting(inst, spins, *args, **kwargs):
            if kwargs.get("strict"):
                strict_rows.append(len(spins))
            return real(inst, spins, *args, **kwargs)

        monkeypatch.setattr(landscape, "_k_checks", counting)
        for k, admitted in ((2, 4), (3, 2)):
            strict_rows.clear()
            with pytest.raises(EnumerationLimitError):
                k_basins(IsingInstance(6, [0] * 6), k, work_limit=100)
            assert strict_rows and sum(strict_rows) <= admitted


class TestNearBudget:
    # Half-deltas near 2^62 double past INT64_MAX; the checks read their
    # sign instead, so these instances get exact answers.
    def test_single_flip_near_2_62(self):
        inst = IsingInstance(1, [2**62])
        assert is_k_minimum(inst, Assignment(1, 0), 1)
        assert [a.bits for a in enumerate_k_minima(inst, 1).minima] == [0]
        report = k_basins(inst, 1)
        assert [a.bits for a in report.minima] == [0]
        assert report.vertex_count == 1

    def test_pair_flip_near_2_62(self):
        inst = IsingInstance(2, [2**61, 2**61], [(0, 1, 1)])
        assert naive_is_k_minimum(inst, Assignment(2, 0), 2)
        assert is_k_minimum(inst, Assignment(2, 0), 2)
        assert [a.bitstring() for a in enumerate_k_minima(inst, 2).minima] == ["00"]
        assert [a.bitstring() for a in k_basins(inst, 2).minima] == ["00"]


class TestMinPairwiseHamming:
    def test_basics(self):
        a = Assignment.from_bitstring("0000")
        b = Assignment.from_bitstring("0011")
        c = Assignment.from_bitstring("1111")
        assert min_pairwise_hamming([a, b, c]) == 2
        assert min_pairwise_hamming([a]) == 5  # sentinel n + 1
        with pytest.raises(ValueError):
            min_pairwise_hamming([])

    def test_checkerboard_separation(self):
        ze = zero_energy_assignments(gen_column(2, 2, "zeros"))
        assert min_pairwise_hamming(ze) == 4


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 5000), k=st.integers(1, 3))
def test_enumerated_minima_verify(seed, k):
    inst = random_instance(seed, n=6, density=0.5)
    report = enumerate_k_minima(inst, k)
    for a in report.minima:
        assert naive_is_k_minimum(inst, a, k)
    # completeness at k=1 against the direct scan
    if k == 1:
        assert [a.bits for a in report.minima] == [a.bits for a in exhaustive_minima(inst)]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 5000), k=st.integers(1, 3))
def test_basin_minima_are_the_strict_minima_in_rank_order(seed, k):
    inst = random_instance(seed, n=7, density=0.5)
    report = k_basins(inst, k)
    assert report.minima == enumerate_k_minima(inst, k).minima
    assert report.minima == tuple(
        a for a in enumerate_k_minima(inst, 1).minima if is_k_minimum(inst, a, k)
    )
    assert k_basins(inst, k, flipped_rule=True).minima == ()


def _reference_landscape(inst, k, flipped_rule):
    """Strict k-minima and weak-k-minimum basins from Python-int energies."""
    n = inst.n
    points = [Assignment.from_rank(r, n) for r in range(1 << n)]
    moves = [s for size in range(1, k + 1) for s in combinations(range(n), size)]
    minima = tuple(a for a in points if naive_is_k_minimum(inst, a, k))
    sign = -1 if flipped_rule else 1
    vertices = [a for a in points
                if all(sign * (inst.energy(a.flip_set(m)) - inst.energy(a)) >= 0
                       for m in moves)]
    label = {a.bits: a.bits for a in vertices}

    def root(x):
        while label[x] != x:
            x = label[x]
        return x

    for a in vertices:
        for m in moves:
            b = a.flip_set(m).bits
            if b in label:
                label[root(b)] = root(a.bits)
    sizes = {}
    for a in vertices:
        sizes[root(a.bits)] = sizes.get(root(a.bits), 0) + 1
    return minima, len(vertices), tuple(sorted(sizes.values(), reverse=True))


@st.composite
def landscape_cases(draw):
    """Random, all-zero and near-budget instances over at most 6 variables."""
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["random", "all-zero", "near-budget"]))
    if kind == "random":
        return random_instance(draw(st.integers(0, 10_000)), n=n, density=0.5)
    if kind == "all-zero":
        return IsingInstance(n, [0] * n)
    # Fields and couplings share the whole energy budget, so half-deltas
    # reach 2^62 and their doubles pass INT64_MAX.
    pairs = draw(st.lists(st.sampled_from(list(combinations(range(n), 2)) or [None]),
                          unique=True, max_size=3))
    pairs = [p for p in pairs if p is not None]
    share = INT64_MAX // (n + 2 * len(pairs))
    big = st.integers(share - 2**20, share) | st.integers(1, 5)
    signed = st.sampled_from([-1, 1])
    h = [draw(big) * draw(signed) for _ in range(n)]
    triples = [(i, j, draw(big) * draw(signed)) for i, j in pairs]
    return IsingInstance(n, h, triples)


@settings(max_examples=60, deadline=None)
@given(landscape_cases(), st.integers(1, 3), st.booleans(), st.integers(1, 4))
def test_landscape_matches_python_int_reference(inst, k, flipped_rule, block_bits):
    minima, vertex_count, sizes = _reference_landscape(inst, k, flipped_rule)
    assert enumerate_k_minima(inst, k, block_bits=block_bits).minima == minima
    report = k_basins(inst, k, flipped_rule=flipped_rule, block_bits=block_bits)
    assert report.minima == (() if flipped_rule else minima)
    assert report.vertex_count == vertex_count
    assert report.basin_sizes == sizes
    assert report.basin_count == len(sizes)

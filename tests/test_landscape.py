from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import exhaustive_minima, random_instance
from spinscape.generators import gen_column, gen_csse, zero_energy_assignments
from spinscape.instance import Assignment, EnumerationLimitError, IsingInstance
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
        # 64 vertices x 21 moves; a limit of 100 admits 4 vertices, so at
        # most 4 vertices pay for a strictness check before the rejection.
        real = landscape._subset_deltas_ok
        strict_calls = []

        def counting(*args, **kwargs):
            if kwargs.get("strict"):
                strict_calls.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(landscape, "_subset_deltas_ok", counting)
        with pytest.raises(EnumerationLimitError):
            k_basins(IsingInstance(6, [0] * 6), 2, work_limit=100)
        assert len(strict_calls) <= 4


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

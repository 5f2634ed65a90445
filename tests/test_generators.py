from itertools import combinations
from math import comb

import pytest

from helpers import exhaustive_minima, zero_energy_assignments
from spinscape.generators import (
    gen_column,
    gen_csse,
    gen_multicopy,
    gen_random,
    gen_regular,
)
from spinscape.instance import Assignment


class TestAllPairs:
    def test_coefficients(self):
        inst = gen_csse(4)
        assert inst.h == (0, 0, 0, 0)
        assert inst.c0 == 12
        assert inst.couplings == {(i, j): 2 for i, j in combinations(range(4), 2)}
        assert inst.energy(Assignment.from_spins([1, 1, -1, -1])) == 8

    def test_minima_are_balanced(self):
        inst = gen_csse(4)
        minima = exhaustive_minima(inst)
        assert len(minima) == comb(4, 2)
        assert all(a.bits.bit_count() == 2 for a in minima)

    def test_minima_count_n6(self):
        assert len(exhaustive_minima(gen_csse(6))) == 20

    def test_odd_rejected(self):
        with pytest.raises(ValueError):
            gen_csse(5)


class TestMulticopy:
    def test_block_structure(self):
        inst = gen_multicopy(2, 4)
        assert inst.n == 8
        assert inst.coupling(0, 3) == 2
        assert inst.coupling(0, 4) == 0
        assert inst.c0 == 2 * 12

    def test_minima_multiply(self):
        assert len(exhaustive_minima(gen_multicopy(2, 4))) == 36
        assert len(exhaustive_minima(gen_multicopy(3, 4))) == 216

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_multicopy(0, 4)
        with pytest.raises(ValueError):
            gen_multicopy(2, 3)


class TestColumnFamily:
    def test_grid_shape(self):
        ci = gen_column(2, 4, "zeros")
        assert ci.instance.n == 16
        assert len(ci.columns) == 2 * 4  # f * l^(f-1)
        counts = [0] * 16
        for col in ci.columns:
            assert len(col) == 4
            for i in col:
                counts[i] += 1
        assert counts == [2] * 16  # every variable sits in f columns
        assert ci.instance.degree_graph().degrees == (2 * 3,) * 16

    def test_f1_matches_scaled_all_pairs(self):
        ci = gen_column(1, 4, "zeros")
        base = gen_csse(4)
        assert ci.instance.h == (0, 0, 0, 0)
        assert ci.instance.c0 == 16
        assert ci.instance.couplings == {k: 4 * w for k, w in base.couplings.items()}

    def test_energy_is_4x_squared_deviation(self):
        ci = gen_column(2, 2, "sampled", seed=5)
        for r in range(16):
            a = Assignment.from_rank(r, 4)
            direct = sum(
                (sum(a.spin(i) for i in col) - m) ** 2
                for col, m in zip(ci.columns, ci.m_values)
            )
            assert ci.instance.energy(a) == 4 * direct

    def test_checkerboards(self):
        ci = gen_column(2, 2, "zeros")
        ze = zero_energy_assignments(ci)
        assert {a.bits for a in ze} == {0b0110, 0b1001}
        assert (ze[0].bits ^ ze[1].bits).bit_count() == 4
        assert all(ci.instance.energy(a) == 0 for a in ze)

    def test_zero_energy_count_f2_l4(self):
        ci = gen_column(2, 4, "zeros")
        assert len(zero_energy_assignments(ci)) == 90

    def test_odd_l_zeros_rejected(self):
        with pytest.raises(ValueError):
            gen_column(2, 3, "zeros")

    def test_sampled_plants_zero_energy(self):
        for seed in range(6):
            ci = gen_column(2, 3, "sampled", seed=seed)
            assert ci.seed == seed
            assert ci.planted is not None
            assert ci.instance.energy(ci.planted) == 0
            ze = zero_energy_assignments(ci)
            assert ci.planted in ze
            # column-sum parity always matches l
            assert all(m % 2 == ci.l % 2 for m in ci.m_values)

    def test_sampled_deterministic(self):
        a = gen_column(2, 4, "sampled", seed=9)
        b = gen_column(2, 4, "sampled", seed=9)
        assert a.m_values == b.m_values
        assert a.planted == b.planted
        assert a.instance.to_json() == b.instance.to_json()

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            gen_column(2, 2, "plateau")


class TestRandomFamilies:
    def test_gen_random_deterministic(self):
        a = gen_random(10, 0.3, seed=4)
        b = gen_random(10, 0.3, seed=4)
        c = gen_random(10, 0.3, seed=5)
        assert a.to_json() == b.to_json()
        assert a.to_json() != c.to_json()

    def test_gen_random_weights(self):
        inst = gen_random(12, 1.0, wmax=3, seed=1)
        assert len(inst.couplings) == comb(12, 2)
        assert all(0 < abs(w) <= 3 for w in inst.couplings.values())
        assert all(abs(x) <= 3 for x in inst.h)
        empty = gen_random(6, 0.0, seed=2)
        assert not empty.couplings

    def test_gen_regular_degrees(self):
        for n, d in [(10, 3), (12, 5), (8, 0)]:
            inst = gen_regular(n, d, seed=6)
            assert inst.degree_graph().degrees == (d,) * n
        assert gen_regular(10, 3, seed=6).to_json() == gen_regular(10, 3, seed=6).to_json()

    def test_gen_regular_validation(self):
        with pytest.raises(ValueError):
            gen_regular(5, 3)  # odd stub count
        with pytest.raises(ValueError):
            gen_regular(4, 4)
        for d in (3, 0):
            with pytest.raises(ValueError, match="need wmax >= 1"):
                gen_regular(10, d, wmax=0)

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_instance
from spinscape.generators import gen_csse
from spinscape.instance import (
    DEFAULT_BLOCK_BITS,
    INT64_MAX,
    Assignment,
    EnumerationLimitError,
    IsingInstance,
    SplitScan,
    block_energies,
    block_local_fields,
    iter_rank_blocks,
    spin_block,
)
from spinscape.landscape import enumerate_k_minima, k_basins
from spinscape.solver import _solve_with_T, solve_brute, solve_combined


def csse4() -> IsingInstance:
    # All-pairs coupling 2, c0 = 2 * C(4,2): the frustrated all-pairs family.
    return IsingInstance(4, [0, 0, 0, 0], [(i, j, 2) for i, j in combinations(range(4), 2)], c0=12)


class TestAssignment:
    def test_spin_convention(self):
        a = Assignment.from_spins([1, 1, -1, -1])
        assert a.bits == 0b0011
        assert [a.spin(i) for i in range(4)] == [1, 1, -1, -1]
        assert a.bitstring() == "1100"

    def test_rank_is_lex_order(self):
        # Ascending rank must equal lexicographic order on bit tuples.
        ranked = [Assignment.from_rank(r, 3) for r in range(8)]
        tuples = [tuple((a.bits >> i) & 1 for i in range(3)) for a in ranked]
        assert tuples == sorted(tuples)
        for r, a in enumerate(ranked):
            assert a.rank == r

    def test_flip_and_hamming(self):
        a = Assignment.from_spins([1, -1, 1])
        b = a.flip(0).flip_set([1, 2])
        assert b.spins().tolist() == [-1, 1, -1]
        assert a.hamming(b) == 3
        assert a.hamming(a) == 0

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            Assignment(2, 4)
        with pytest.raises(ValueError):
            Assignment.from_spins([1, 0])

    def test_bitstring_roundtrip(self):
        a = Assignment.from_bitstring("10110")
        assert a.bitstring() == "10110"
        assert a.spin(0) == 1 and a.spin(1) == -1


class TestInstanceBasics:
    def test_energy_all_pairs_example(self):
        inst = csse4()
        a = Assignment.from_spins([1, 1, -1, -1])
        assert inst.energy(a) == 8
        assert inst.energy(Assignment.from_spins([1, 1, 1, 1])) == 24
        assert inst.energy(Assignment.from_spins([1, -1, 1, -1])) == 8

    def test_local_field_example(self):
        inst = csse4()
        a = Assignment.from_spins([1, 1, -1, -1])
        # field on variable 0: 2 * (S_1 + S_2 + S_3)
        assert inst.local_field(a, 0) == -2
        assert inst.flip_delta(a, 0) == 4

    def test_flip_delta_matches_energy_difference(self):
        inst = random_instance(11, n=7, density=0.5)
        for r in range(1 << 7):
            a = Assignment.from_rank(r, 7)
            e = inst.energy(a)
            for i in range(7):
                assert inst.flip_delta(a, i) == inst.energy(a.flip(i)) - e

    def test_local_minimum_strictness(self):
        # Zero couplings and fields: every flip is an exact tie, no minima.
        flat = IsingInstance(3, [0, 0, 0])
        for r in range(8):
            assert not flat.is_local_minimum(Assignment.from_rank(r, 3))

    def test_local_minimum_balanced(self):
        inst = csse4()
        assert inst.is_local_minimum(Assignment.from_spins([1, 1, -1, -1]))
        assert not inst.is_local_minimum(Assignment.from_spins([1, 1, 1, -1]))

    def test_coupling_normalization(self):
        inst = IsingInstance(3, [0, 0, 0], [(1, 0, 2), (0, 1, 3), (1, 2, 5), (2, 1, -5)])
        assert inst.couplings == {(0, 1): 5}
        assert inst.coupling(1, 0) == 5
        assert inst.coupling(0, 2) == 0

    def test_degree_graph(self):
        inst = IsingInstance(4, [1, 0, 0, 0], [(0, 1, 1), (1, 2, -3)])
        g = inst.degree_graph()
        assert g.neighbors == ((1,), (0, 2), (1,), ())
        assert g.degrees == (1, 2, 1, 0)
        assert g.max_degree == 2
        assert g.edge_count == 2
        assert g.average_degree == 1.0
        assert g.adjacent(0, 1) and not g.adjacent(0, 2)

    def test_overflow_guard(self):
        big = 2**62
        with pytest.raises(ValueError):
            IsingInstance(2, [big, big], [(0, 1, big)])
        # A single large field within budget is accepted.
        IsingInstance(1, [big], [])

    def test_diagonal_rejected(self):
        with pytest.raises(ValueError):
            IsingInstance(2, [0, 0], [(1, 1, 1)])


class TestSerialization:
    def test_roundtrip(self):
        inst = random_instance(3, n=6, density=0.5)
        again = IsingInstance.from_json(inst.to_json())
        assert again.n == inst.n
        assert again.c0 == inst.c0
        assert again.h == inst.h
        assert again.couplings == inst.couplings
        assert again.digest() == inst.digest()

    def test_rejects_malformed(self):
        good = {"n": 2, "c0": 0, "h": [0, 0], "J": [[0, 1, 1]]}
        IsingInstance.from_json_dict(good)
        bad_order = dict(good, J=[[1, 0, 1]])
        bad_dup = dict(good, J=[[0, 1, 1], [0, 1, 2]])
        bad_zero = dict(good, J=[[0, 1, 0]])
        bad_h = dict(good, h=[0])
        for doc in (bad_order, bad_dup, bad_zero, bad_h):
            with pytest.raises(ValueError):
                IsingInstance.from_json_dict(doc)
        with pytest.raises(ValueError):
            IsingInstance.from_json_dict({"n": True, "c0": 0, "h": [], "J": []})

    @pytest.mark.parametrize("doc", [
        {"n": 2, "h": [1.7, 0], "c0": 0, "J": []},
        {"n": 2, "h": [1, True], "c0": 0, "J": []},
        {"n": 2, "h": [1, "1"], "c0": 0, "J": []},
        {"n": 2, "h": [1, 2.0], "c0": 0, "J": []},
        {"n": 2, "h": [1, 1], "c0": 2.9, "J": []},
        {"n": 2, "h": [1, 1], "c0": False, "J": []},
        {"n": 2, "h": [1.7, True], "c0": 2.9, "J": []},
    ])
    def test_rejects_non_integer_fields_and_constant(self, doc):
        with pytest.raises(ValueError):
            IsingInstance.from_json_dict(doc)

    def test_digest_ignores_coupling_entry_order(self):
        a = IsingInstance(3, [1, 2, 3], [(0, 1, 4), (1, 2, -1)])
        b = IsingInstance(3, [1, 2, 3], [(1, 2, -1), (0, 1, 4)])
        assert a.digest() == b.digest()


class TestConditioned:
    def test_energy_identity(self):
        inst = random_instance(8, n=6, density=0.6)
        sub, keep = inst.conditioned({1: -1, 4: 1})
        assert keep == (0, 2, 3, 5)
        for r in range(1 << 4):
            part = Assignment.from_rank(r, 4)
            full_spins = [0] * 6
            full_spins[1], full_spins[4] = -1, 1
            for k, v in enumerate(keep):
                full_spins[v] = part.spin(k)
            assert sub.energy(part) == inst.energy(Assignment.from_spins(full_spins))

    def test_validation(self):
        inst = random_instance(9, n=4)
        with pytest.raises(ValueError):
            inst.conditioned({0: 2})
        with pytest.raises(ValueError):
            inst.conditioned({7: 1})


class TestBlockHelpers:
    def test_spin_block_matches_ranks(self):
        s = spin_block(4, 3, 5)
        for r in range(5):
            assert s[r].tolist() == Assignment.from_rank(3 + r, 4).spins().tolist()

    def test_block_energies_match(self):
        inst = random_instance(21, n=8, density=0.4)
        for start, count in iter_rank_blocks(8, block_bits=5):
            s = spin_block(8, start, count)
            es = block_energies(inst, s)
            for r in range(count):
                assert es[r] == inst.energy(Assignment.from_rank(start + r, 8))

    def test_block_local_fields_match(self):
        inst = random_instance(22, n=6, density=0.7)
        s = spin_block(6, 0, 64)
        fields = block_local_fields(inst, s)
        for r in range(64):
            a = Assignment.from_rank(r, 6)
            for i in range(6):
                assert fields[r, i] == inst.local_field(a, i)

    def test_enumeration_ceiling(self):
        with pytest.raises(EnumerationLimitError):
            list(iter_rank_blocks(30))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_flip_delta_property(data):
    seed = data.draw(st.integers(0, 10_000))
    inst = random_instance(seed, n=data.draw(st.integers(1, 8)))
    a = Assignment(inst.n, data.draw(st.integers(0, (1 << inst.n) - 1)))
    i = data.draw(st.integers(0, inst.n - 1))
    assert inst.flip_delta(a, i) == inst.energy(a.flip(i)) - inst.energy(a)


def test_negation_energy_identity():
    inst = random_instance(5, n=5, density=0.8)
    neg = IsingInstance(
        inst.n,
        [-x for x in inst.h],
        [(i, j, -w) for (i, j), w in inst.couplings.items()],
        c0=-inst.c0,
    )
    for r in range(32):
        a = Assignment.from_rank(r, 5)
        assert neg.energy(a) == -inst.energy(a)


@st.composite
def split_cases(draw):
    """(instance, block_bits): ordinary, coupling-free and near-budget instances."""
    n = draw(st.integers(0, 10))
    block_bits = draw(st.integers(1, n + 2))
    kind = draw(st.sampled_from(["random", "zero-coupling", "near-budget"]))
    if kind == "random" and n >= 1:
        return random_instance(draw(st.integers(0, 10_000)), n=n), block_bits
    small = st.integers(-5, 5)
    h = draw(st.lists(small, min_size=n, max_size=n))
    c0 = draw(small)
    if kind == "near-budget" and n >= 2:
        # One coupling near 2^61 takes 2^62 of the budget; the fields and
        # the constant share most of the rest.
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        w = draw(st.integers(2**61 - 2**20, 2**61)) * draw(st.sampled_from([-1, 1]))
        share = (INT64_MAX - 2 * abs(w)) // (n + 1)
        h = [draw(st.integers(-share, share)) for _ in range(n)]
        c0 = draw(st.integers(-share, share))
        return IsingInstance(n, h, [(i, j, w)], c0=c0), block_bits
    return IsingInstance(n, h, c0=c0), block_bits


@settings(max_examples=150, deadline=None)
@given(split_cases())
def test_split_scan_matches_reference_kernels(case):
    inst, block_bits = case
    scan = SplitScan(inst, block_bits)
    blocks = list(iter_rank_blocks(inst.n, block_bits))
    assert list(scan.starts) == [start for start, _ in blocks]
    for start, count in blocks:
        ref_spins = spin_block(inst.n, start, count)
        np.testing.assert_array_equal(scan.energies(start), block_energies(inst, ref_spins))
    # Python integers cannot wrap: the first and last energies are exact.
    last = (1 << inst.n) - 1
    start = scan.starts[-1]
    assert int(scan.energies(0)[0]) == inst.energy(Assignment.from_rank(0, inst.n))
    assert int(scan.energies(start)[last - start]) == inst.energy(Assignment.from_rank(last, inst.n))


@settings(max_examples=150, deadline=None)
@given(split_cases(), st.booleans(), st.booleans())
def test_flip_survivors_match_reference_kernels(case, strict, flipped):
    inst, block_bits = case
    scan = SplitScan(inst, block_bits)
    for start, count in iter_rank_blocks(inst.n, block_bits):
        ref_spins = spin_block(inst.n, start, count)
        sl = ref_spins * block_local_fields(inst, ref_spins)
        if flipped:
            sl = -sl
        passing = (sl < 0) if strict else (sl <= 0)
        rows = scan.flip_survivors(start, strict=strict, flipped=flipped)
        np.testing.assert_array_equal(rows, np.flatnonzero(passing.all(axis=1)))


def test_split_scan_enforces_the_ceiling():
    with pytest.raises(EnumerationLimitError):
        SplitScan(IsingInstance(30, [0] * 30))


def _tie_instances():
    # All-pairs n=8: 70 tying optima spread over many blocks of 8 ranks, and
    # none in the first block.  Four disjoint ferromagnetic pairs: 16 tying
    # optima, two in each block of 8 ranks that holds any.  Plus two random
    # instances.
    yield gen_csse(8)
    yield IsingInstance(8, [0] * 8, [(2 * k, 2 * k + 1, -1) for k in range(4)])
    yield random_instance(41, n=9, density=0.4)
    yield random_instance(42, n=10, density=0.2)


@pytest.mark.parametrize("inst", list(_tie_instances()), ids=["csse8", "pairs8", "r9", "r10"])
def test_block_size_does_not_change_scan_results(inst):
    small, default = 3, DEFAULT_BLOCK_BITS
    a, b = solve_brute(inst, block_bits=small), solve_brute(inst, block_bits=default)
    assert (a.energy, a.best) == (b.energy, b.best)
    assert solve_brute(inst, block_bits=small, workers=2).best == a.best
    # the scan engine resolves ties per block: neither the block size nor
    # the thread count may change what it returns, and it matches brute force
    t = range(0, inst.n, 2)
    ref = _solve_with_T(inst, t, "effective-field", block_bits=default)
    assert (ref.energy, ref.best) == (a.energy, a.best)
    assert _solve_with_T(inst, t, "effective-field", block_bits=small) == ref
    assert _solve_with_T(inst, t, "effective-field", block_bits=small, workers=2) == ref
    comb = solve_combined(inst, block_bits=default)
    assert (comb.energy, comb.best) == (a.energy, a.best)
    assert solve_combined(inst, block_bits=small) == comb
    assert solve_combined(inst, block_bits=small, workers=2) == comb
    for k in (1, 2):
        assert enumerate_k_minima(inst, k, block_bits=small) == \
            enumerate_k_minima(inst, k, block_bits=default)
        assert k_basins(inst, k, block_bits=small) == k_basins(inst, k, block_bits=default)

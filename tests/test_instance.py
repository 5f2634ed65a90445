import json
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    every_row,
    is_local_minimum,
    iter_rank_blocks,
    member_filter_ranks,
    negated,
    random_instance,
    reference_couplings,
)
from spinscape.generators import gen_csse
from spinscape.instance import (
    DEFAULT_BLOCK_BITS,
    INT16_MAX,
    INT32_MAX,
    INT64_MAX,
    MAX_ENUM_BITS,
    Assignment,
    DegreeGraph,
    EnumerationLimitError,
    IsingInstance,
    SplitScan,
    block_energies,
    block_local_fields,
    check_scan_bits,
    spin_block,
)
from spinscape.landscape import _flip_survivors, _flip_terms, enumerate_k_minima, k_basins
from spinscape.solver import Plan, _abs_row_sums, _solve_with_T, solve_brute, solve_combined


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
            assert int(a.bitstring(), 2) == r

    def test_flip_and_hamming(self):
        a = Assignment.from_spins([1, -1, 1])
        b = Assignment(a.n, a.flip(0).bits ^ 0b110)
        assert [b.spin(i) for i in range(b.n)] == [-1, 1, -1]
        assert (a.bits ^ b.bits).bit_count() == 3

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
        assert a.spin(0) * (inst.energy(a) - inst.energy(a.flip(0))) // 2 == -2
        assert inst.energy(a.flip(0)) - inst.energy(a) == 4

    def test_local_minimum_strictness(self):
        # Zero couplings and fields: every flip is an exact tie, no minima.
        flat = IsingInstance(3, [0, 0, 0])
        for r in range(8):
            assert not is_local_minimum(flat, Assignment.from_rank(r, 3))

    def test_local_minimum_balanced(self):
        inst = csse4()
        assert is_local_minimum(inst, Assignment.from_spins([1, 1, -1, -1]))
        assert not is_local_minimum(inst, Assignment.from_spins([1, 1, 1, -1]))

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
        assert 1 in g.neighbors[0] and 2 not in g.neighbors[0]

    def test_degree_graph_caches_its_degrees(self):
        inst = IsingInstance(4, [1, 0, 0, 0], [(0, 1, 1), (1, 2, -3)])
        g = inst.degree_graph()
        h = DegreeGraph(g.n, g.neighbors)
        assert g.degrees is g.degrees
        assert g.average_degree == 1.0 and "average_degree" in vars(g)
        # the cache lives in g's instance dict; equality compares the fields
        assert "degrees" not in vars(h)
        assert g == h and hash(g) == hash(h)

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
        again = IsingInstance.from_json_dict(json.loads(inst.to_json()))
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
        for doc in (bad_order, bad_dup, bad_zero, bad_h, dict(good, J=None), dict(good, J=5)):
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
            a = Assignment.from_rank(3 + r, 4)
            assert s[r].tolist() == [a.spin(i) for i in range(a.n)]

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
                assert fields[r, i] == a.spin(i) * (inst.energy(a) - inst.energy(a.flip(i))) // 2

    def test_enumeration_ceiling(self):
        # 30 of 40 variables scanned: refused by width, before any table is built.
        with pytest.raises(EnumerationLimitError, match="outer enumeration needs 30 bits"):
            SplitScan(IsingInstance(40, [1] * 40), variables=range(30))

    def test_scan_ceiling_is_26_bits(self):
        check_scan_bits(MAX_ENUM_BITS, "outer enumeration")
        with pytest.raises(EnumerationLimitError) as exc:
            check_scan_bits(MAX_ENUM_BITS + 1, "completion enumeration")
        assert str(exc.value) == "completion enumeration needs 27 bits, limit is 26"


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


@st.composite
def coupling_cases(draw):
    """(instance, rows, cols): variable lists in any order, empty or overlapping.

    The near-budget instances spread 2 sum |J| to within 2^21 of INT64_MAX
    over a few couplings of either sign.
    """
    n = draw(st.integers(0, 12))
    if draw(st.booleans()) and n >= 2:
        pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                              .filter(lambda e: e[0] < e[1]), min_size=1, max_size=6, unique=True))
        cap = INT64_MAX // (2 * len(pairs))
        inst = IsingInstance(n, [0] * n, [(i, j, draw(st.integers(cap - 2**20, cap))
                                           * draw(st.sampled_from([-1, 1]))) for i, j in pairs])
    else:
        inst = random_instance(draw(st.integers(0, 10_000)), n=n,
                               density=draw(st.sampled_from([0.0, 0.3, 1.0])))
    variables = st.lists(st.integers(0, max(0, inst.n - 1)), max_size=inst.n, unique=True)
    rows = draw(variables)
    cols = draw(st.sampled_from([rows, rows[::-1], []]) | variables)
    return inst, rows, cols


@settings(max_examples=200)
@given(coupling_cases())
def test_coupling_entries_match_the_dense_reference(case):
    # the one accessor of J, against a dense J filled entry by entry
    inst, rows, cols = case
    ref = reference_couplings(inst)
    want = [[int(ref[r, c]) for c in cols] for r in rows]
    p, q, w = inst.coupling_entries(rows, cols)
    assert p.dtype == q.dtype == w.dtype == np.int64
    got = sorted(zip(p.tolist(), q.tolist(), w.tolist()))
    assert got == sorted((a, b, x) for a, row in enumerate(want)
                         for b, x in enumerate(row) if x)
    block = inst.coupling_block(rows, cols)
    assert block.dtype == np.int64 and block.shape == (len(rows), len(cols))
    assert block.tolist() == want
    assert _abs_row_sums(inst, rows, cols).tolist() == [sum(abs(x) for x in row) for row in want]


def _scanned_energies(inst, sub, spins):
    """Energies of the variables ``sub`` alone, with c0; column k of ``spins`` is sub[k]."""
    pos = {v: k for k, v in enumerate(sub)}
    e = spins @ np.array([inst.h[v] for v in sub], dtype=np.int64) + inst.c0
    for (i, j), w in inst.couplings.items():
        if i in pos and j in pos:
            e = e + spins[:, pos[i]].astype(np.int64) * spins[:, pos[j]] * w
    return e


@settings(max_examples=150, deadline=None)
@given(split_cases(), st.data())
def test_split_scan_matches_reference_kernels(case, data):
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

    # A drawn subset, scanned in drawn order: energies of its variables
    # alone, fields on every variable, single-flip survivors and bit sums.
    sub = data.draw(st.permutations(range(inst.n)))[: data.draw(st.integers(0, inst.n))]
    strict, flipped = data.draw(st.booleans()), data.draw(st.booleans())
    scan = SplitScan(inst, block_bits, sub)
    # flipped filters on -E, against the reference's reversed test on E
    neg = negated(inst) if flipped else inst
    filtered = SplitScan(neg, block_bits, sub) if flipped else scan
    jf = reference_couplings(inst)
    h = np.array(inst.h, dtype=np.int64)
    weights = np.array([1 << v for v in sub], dtype=np.int64)
    bits = scan.weight_sums(weights)
    blocks = list(iter_rank_blocks(len(sub), block_bits))
    assert list(scan.starts) == [start for start, _ in blocks]
    out = np.empty((inst.n, 1 << scan.lo_bits), dtype=scan.dtype)  # reused by every block
    for start, count in blocks:
        spins = spin_block(len(sub), start, count)
        fields = spins @ jf[sub] + h
        np.testing.assert_array_equal(scan.fields(start, range(inst.n)).T, fields)
        assert scan.fields(start, range(inst.n), out) is out
        np.testing.assert_array_equal(out.T, fields)
        np.testing.assert_array_equal(scan.energies(start), _scanned_energies(inst, sub, spins))
        np.testing.assert_array_equal(bits(start, np.arange(count)),
                                      (spins > 0).astype(np.int64) @ weights)
        sl = spins * fields[:, sub] * (-1 if flipped else 1)
        passing = (sl < 0) if strict else (sl <= 0)
        np.testing.assert_array_equal(
            _flip_survivors(filtered, start, *every_row(neg, filtered, sub), strict),
            np.flatnonzero(passing.all(axis=1)))
    for rank in (0, (1 << len(sub)) - 1):
        a = Assignment.from_rank(rank, len(sub))
        exact = inst.c0 + sum(inst.h[v] * a.spin(k) for k, v in enumerate(sub))
        exact += sum(w * a.spin(sub.index(i)) * a.spin(sub.index(j))
                     for (i, j), w in inst.couplings.items() if i in sub and j in sub)
        start = rank - rank % (1 << scan.lo_bits)
        assert int(scan.energies(start)[rank - start]) == exact


@settings(max_examples=150, deadline=None)
@given(split_cases(), st.booleans(), st.booleans())
def test_flip_survivors_match_reference_kernels(case, strict, flipped):
    inst, block_bits = case
    # flipped scans -E, against the reference's reversed test on E
    scanned = negated(inst) if flipped else inst
    scan = SplitScan(scanned, block_bits)
    for start, count in iter_rank_blocks(inst.n, block_bits):
        ref_spins = spin_block(inst.n, start, count)
        sl = ref_spins * block_local_fields(inst, ref_spins)
        if flipped:
            sl = -sl
        passing = (sl < 0) if strict else (sl <= 0)
        rows = _flip_survivors(scan, start, *every_row(scanned, scan, range(inst.n)), strict)
        np.testing.assert_array_equal(rows, np.flatnonzero(passing.all(axis=1)))
    # T a color class: the outer rows with T's spins, over all 2^n assignments
    spins = spin_block(inst.n, 0, 1 << inst.n)
    sl = spins * block_local_fields(inst, spins) * (-1 if flipped else 1)
    passing = (sl < 0) if strict else (sl <= 0)
    np.testing.assert_array_equal(member_filter_ranks(inst, block_bits, strict, flipped),
                                  np.flatnonzero(passing.all(axis=1)))


def _budget_instance(budget, sign):
    """Six variables with a budget of exactly ``budget``, almost all of it in h_0.

    The energies of rank 0 and of the last rank, and the field on variable
    0, then lie within a few units of +-budget.
    """
    h = [0, -1, 2, -3, 4, 5]
    couplings = [(0, 1, 1), (1, 2, -2), (3, 4, 1), (0, 5, -1), (2, 5, 3)]
    h[0] = -(budget - sum(abs(x) for x in h) - 2 * sum(abs(w) for _, _, w in couplings))
    return IsingInstance(6, [sign * x for x in h], [(i, j, sign * w) for i, j, w in couplings])


@pytest.mark.parametrize("budget, dtype", [(INT16_MAX, np.int16), (INT16_MAX + 1, np.int32),
                                           (INT32_MAX, np.int32), (INT32_MAX + 1, np.int64)],
                         ids=["int16-at-bound", "int16-above-bound", "at-bound", "above-bound"])
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("block_bits", [2, 6])
def test_scan_dtype_at_the_int32_bound(budget, dtype, sign, block_bits):
    inst = _budget_instance(budget, sign)
    assert abs(inst.c0) + sum(abs(x) for x in inst.h) + 2 * sum(
        abs(w) for w in inst.couplings.values()) == budget
    scan = SplitScan(inst, block_bits)
    assert scan.dtype == inst.scan_dtype == dtype
    # Python integers cannot wrap: the extreme energies are exact, and near the bound.
    last = (1 << inst.n) - 1
    for rank, start in ((0, 0), (last, scan.starts[-1])):
        exact = inst.energy(Assignment.from_rank(rank, inst.n))
        assert abs(exact) > budget - 64
        assert int(scan.energies(start)[rank - start]) == exact
    for start, count in iter_rank_blocks(inst.n, block_bits):
        spins = spin_block(inst.n, start, count)
        energies = scan.energies(start)
        assert energies.dtype == dtype
        np.testing.assert_array_equal(energies, block_energies(inst, spins))
        fields = block_local_fields(inst, spins)
        assert np.abs(fields[:, 0]).min() > budget - 64
        out = np.empty((inst.n, count), dtype=scan.dtype)
        np.testing.assert_array_equal(scan.fields(start, range(inst.n), out).T, fields)
        for strict in (True, False):
            sl = spins * fields
            passing = (sl < 0) if strict else (sl <= 0)
            np.testing.assert_array_equal(
                _flip_survivors(scan, start, *every_row(inst, scan, range(inst.n)), strict),
                np.flatnonzero(passing.all(axis=1)))


def test_split_scan_builds_rows_only_for_its_columns():
    inst = random_instance(7, n=9, density=0.6)
    sub, cols = [4, 0, 7, 2, 8], [1, 3, 7]
    scan = SplitScan(inst, 3, sub, cols)
    # the two high scanned variables, and the three columns
    assert scan._f_lo.shape == (5, 8)
    full = SplitScan(inst, 3, sub)
    for start in scan.starts:
        np.testing.assert_array_equal(scan.energies(start), full.energies(start))
        np.testing.assert_array_equal(scan.fields(start, cols), full.fields(start, cols))
    for var in (2, 5):  # a low scanned variable and an unscanned one
        with pytest.raises(ValueError):
            scan.fields(0, [var])
    # the landscape's filter refuses a scan whose low scanned variables lack field rows
    with pytest.raises(ValueError, match="every scanned variable's fields"):
        _flip_terms(inst, scan, sub, [])


def test_split_scan_enforces_the_ceiling():
    with pytest.raises(EnumerationLimitError, match="needs 30 bits"):
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
    ref = _solve_with_T(inst, Plan("effective", t), block_bits=default)
    assert (ref.energy, ref.best) == (a.energy, a.best)
    assert _solve_with_T(inst, Plan("effective", t), block_bits=small) == ref
    assert _solve_with_T(inst, Plan("effective", t), block_bits=small, workers=2) == ref
    comb = solve_combined(inst, block_bits=default)
    assert (comb.energy, comb.best) == (a.energy, a.best)
    assert solve_combined(inst, block_bits=small) == comb
    assert solve_combined(inst, block_bits=small, workers=2) == comb
    for k in (1, 2):
        assert enumerate_k_minima(inst, k, block_bits=small) == \
            enumerate_k_minima(inst, k, block_bits=default)
        assert k_basins(inst, k, block_bits=small) == k_basins(inst, k, block_bits=default)

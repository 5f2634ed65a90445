from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    exhaustive_minima,
    is_k_minimum,
    min_pairwise_hamming,
    peak_mib,
    random_instance,
    zero_energy_assignments,
)
from spinscape.generators import gen_column, gen_csse, gen_regular
from spinscape.instance import (
    INT64_MAX,
    Assignment,
    EnumerationLimitError,
    IsingInstance,
)
from spinscape import landscape
from spinscape.landscape import (
    _component_roots,
    enumerate_k_minima,
    k_basins,
    minima_by_parts,
)
from spinscape.solver import _largest_color_class, instance_parts


def naive_is_k_minimum(inst, a, k):
    e = inst.energy(a)
    for size in range(1, k + 1):
        for subset in combinations(range(inst.n), size):
            mask = sum(1 << v for v in subset)
            if inst.energy(Assignment(a.n, a.bits ^ mask)) <= e:
                return False
    return True


class TestIsKMinimum:
    def test_matches_naive_definition(self):
        for seed in range(8):
            inst = random_instance(seed, n=6, density=0.5)
            for r in range(64):
                a = Assignment.from_rank(r, 6)
                for k in (1, 2, 3, 4, 5):
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
        ranks = [int(a.bitstring(), 2) for a in report.minima]
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
        points = [Assignment.from_rank(r, 6) for r in range(64)]
        for seed in range(5):
            inst = random_instance(seed + 60, n=6, density=0.4)
            report = k_basins(inst, 2)
            assert sum(report.basin_sizes) == report.vertex_count
            minima = [a for a in points if is_k_minimum(inst, a, 2)]
            assert report.minima_count == len(minima)

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

    def count_scanned_blocks(self, monkeypatch):
        real = landscape._flip_survivors
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(landscape, "_flip_survivors", counting)
        return calls

    def test_rejected_request_stops_the_scan(self, monkeypatch):
        # Every assignment of a coupling-free, field-free instance is a
        # vertex; a limit of 12 admits one vertex of 12 moves, so the
        # first block of 16 already passes it.
        calls = self.count_scanned_blocks(monkeypatch)
        with pytest.raises(EnumerationLimitError, match="at least 16 vertices"):
            k_basins(IsingInstance(12, [0] * 12), 1, block_bits=4, work_limit=12)
        assert len(calls) == 1

    def test_more_moves_than_the_limit_are_refused_before_the_scan(self, monkeypatch):
        # every instance has a vertex, so 12 moves against a limit of 11 (or 0) cannot fit
        calls = self.count_scanned_blocks(monkeypatch)
        for limit in (0, 11):
            with pytest.raises(EnumerationLimitError, match="12 moves per vertex"):
                k_basins(IsingInstance(12, [0] * 12), 1, block_bits=4, work_limit=limit)
        assert not calls


class TestBranchingScan:
    def test_two_independent_sets_give_the_same_masks(self):
        inst = gen_regular(30, 3, seed=1)
        colored = _largest_color_class(inst.degree_graph())[0]
        # a maximal independent set taken greedily from the last variable down
        other = []
        for v in reversed(range(inst.n)):
            if all(inst.coupling(u, v) == 0 for u in other):
                other.append(v)
        assert set(other) != set(colored) and len(other) >= 4
        for k, strict in ((1, True), (2, True), (1, False)):
            sets = landscape._ConnectedSets(inst, k)
            masks = [np.sort(np.concatenate(list(landscape._vertex_bits(
                inst, sets, strict=strict, block_bits=12, t=t))))
                for t in (colored, other)]
            np.testing.assert_array_equal(masks[0], masks[1])
            assert len(masks[0])

    def test_a_coupled_pair_in_t_is_refused(self):
        inst = gen_regular(16, 3, seed=1)
        i, j = next(iter(inst.couplings))
        sets = landscape._ConnectedSets(inst, 1)
        with pytest.raises(ValueError, match="pairwise uncoupled"):
            next(landscape._vertex_bits(inst, sets, strict=True, block_bits=12, t=[i, j]))

    def test_coupling_free_n40_has_one_minimum_and_one_vertex(self):
        # T is every variable: one outer row, and each spin set against its field
        h = [(-1) ** v * (v + 1) for v in range(40)]
        inst = IsingInstance(40, h)
        want = sum(1 << v for v in range(40) if h[v] < 0)
        assert enumerate_k_minima(inst, 1).minima_bits == (want,)
        report = k_basins(inst, 1)
        assert (report.vertex_count, report.basin_count, report.minima_count) == (1, 1, 1)

    def test_more_than_62_variables_are_refused(self):
        inst = IsingInstance(63, [1] * 63)
        with pytest.raises(EnumerationLimitError, match="62-bit"):
            enumerate_k_minima(inst, 1)
        with pytest.raises(EnumerationLimitError, match="62-bit"):
            k_basins(inst, 1)

    @pytest.mark.parametrize("call", [
        lambda inst: enumerate_k_minima(inst, 1),
        lambda inst: k_basins(inst, 1),
        lambda inst: k_basins(inst, 1, flipped_rule=True),
    ], ids=["minima", "basins", "basins-flipped"])
    def test_wide_instances_are_refused_before_anything_is_built(self, call):
        # no adjacency, flip masks or negated instance for n = 3000
        inst = gen_regular(3000, 3, seed=1)

        def refused():
            with pytest.raises(EnumerationLimitError,
                               match="^3000 variables exceed the 62-bit assignment masks$"):
                call(inst)

        assert peak_mib(refused)[1] < 1

    def test_free_member_expansions_are_capped(self):
        # every spin of a field-free, coupling-free instance is free: 2^27 candidates
        with pytest.raises(EnumerationLimitError, match="2\\^26 candidates"):
            k_basins(IsingInstance(27, [0] * 27), 1, work_limit=10**12)
        # the strict scan drops the row instead
        assert enumerate_k_minima(IsingInstance(27, [0] * 27), 1).minima_count == 0

    def test_minima_are_built_on_first_read(self):
        report = enumerate_k_minima(gen_csse(4), 1)
        assert "minima" not in vars(report)
        assert [a.bits for a in report.minima] == list(report.minima_bits)
        assert report.minima is report.minima


def _connected(inst, subset):
    seen, todo = {subset[0]}, [subset[0]]
    while todo:
        u = todo.pop()
        for v in subset:
            if v not in seen and inst.coupling(u, v):
                seen.add(v)
                todo.append(v)
    return len(seen) == len(subset)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.data())
def test_connected_sets_match_brute_force(n, data):
    pairs = list(combinations(range(n), 2))
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    inst = IsingInstance(n, [0] * n, [(i, j, 1) for i, j in edges])
    sets = landscape._ConnectedSets(inst, n)
    for size in range(1, n + 1):
        level = sets.level(size).tolist()
        want = [c for c in combinations(range(n), size) if _connected(inst, c)]
        # each connected set once, as an ascending row, rows in bit-mask order
        assert sorted(map(tuple, level)) == want
        masks = [sum(1 << v for v in row) for row in level]
        assert masks == sorted(masks)
        assert all(row == sorted(row) for row in level)


class TestNearBudget:
    # Half-deltas near 2^62 double past INT64_MAX; the checks read their
    # sign instead, so these instances get exact answers.
    def test_single_flip_near_2_62(self):
        inst = IsingInstance(1, [2**62])
        assert is_k_minimum(inst, Assignment(1, 0), 1)
        assert [a.bits for a in enumerate_k_minima(inst, 1).minima] == [0]
        report = k_basins(inst, 1)
        assert report.minima_count == 1
        assert report.vertex_count == 1

    def test_pair_flip_near_2_62(self):
        inst = IsingInstance(2, [2**61, 2**61], [(0, 1, 1)])
        assert naive_is_k_minimum(inst, Assignment(2, 0), 2)
        assert is_k_minimum(inst, Assignment(2, 0), 2)
        assert [a.bitstring() for a in enumerate_k_minima(inst, 2).minima] == ["00"]
        assert k_basins(inst, 2).minima_count == 1

    def test_triangle_flip_near_the_budget(self):
        # Three mutually coupled variables share the whole budget.  Both
        # aligned corners are strict 2-minima, and only the flip of all
        # three, whose half-delta sums terms near 2^62, tells them apart.
        share = INT64_MAX // 9
        inst = IsingInstance(3, [-share, 1 - share, 1 - share],
                             [(0, 1, -share), (0, 2, -share), (1, 2, -share)])
        points = [Assignment.from_rank(r, 3) for r in range(8)]
        assert [a.bitstring() for a in points if naive_is_k_minimum(inst, a, 2)] == ["000", "111"]
        minima = [a for a in points if naive_is_k_minimum(inst, a, 3)]
        assert [a.bitstring() for a in minima] == ["111"]
        assert [a for a in points if is_k_minimum(inst, a, 3)] == minima
        assert list(enumerate_k_minima(inst, 3).minima) == minima
        assert k_basins(inst, 3).minima_count == len(minima)


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
def test_basin_minima_count_the_strict_minima(seed, k):
    inst = random_instance(seed, n=7, density=0.5)
    report = k_basins(inst, k)
    assert report.minima_count == len(enumerate_k_minima(inst, k).minima)
    assert report.minima_count == len(
        [a for a in enumerate_k_minima(inst, 1).minima if is_k_minimum(inst, a, k)]
    )
    assert k_basins(inst, k, flipped_rule=True).minima_count == 0


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(4, 12), data=st.data())
def test_landscape_is_gauge_invariant(seed, n, data):
    # Reversing the spins of G keeps every energy once h_i (i in G) and each
    # J_ij with exactly one end in G change sign, so mask -> mask ^ G maps
    # the strict minima, the vertices and the basins onto the image's.
    inst = random_instance(seed, n=n, wmax=1)
    gauge = data.draw(st.sets(st.integers(0, n - 1)), label="gauge")
    flip = sum(1 << v for v in gauge)
    image = IsingInstance(n, [-x if v in gauge else x for v, x in enumerate(inst.h)],
                          {(i, j): -w if (i in gauge) != (j in gauge) else w
                           for (i, j), w in inst.couplings.items()}, c0=inst.c0)
    assert image.energy(Assignment(n, flip)) == inst.energy(Assignment(n, 0))
    for k in (1, 2):
        assert sorted(enumerate_k_minima(image, k).minima_bits) \
            == sorted(bits ^ flip for bits in enumerate_k_minima(inst, k).minima_bits)
        for flipped_rule in (False, True):
            assert k_basins(image, k, flipped_rule=flipped_rule) \
                == k_basins(inst, k, flipped_rule=flipped_rule)


def _reference_landscape(inst, k, flipped_rule):
    """Strict k-minima and weak-k-minimum basins from Python-int energies."""
    n = inst.n
    points = [Assignment.from_rank(r, n) for r in range(1 << n)]
    moves = [sum(1 << v for v in s)
             for size in range(1, k + 1) for s in combinations(range(n), size)]
    minima = tuple(a for a in points if naive_is_k_minimum(inst, a, k))
    sign = -1 if flipped_rule else 1
    vertices = [a for a in points
                if all(sign * (inst.energy(Assignment(n, a.bits ^ m)) - inst.energy(a)) >= 0
                       for m in moves)]
    label = {a.bits: a.bits for a in vertices}

    def root(x):
        while label[x] != x:
            x = label[x]
        return x

    for a in vertices:
        for m in moves:
            b = a.bits ^ m
            if b in label:
                label[root(b)] = root(a.bits)
    sizes = {}
    for a in vertices:
        sizes[root(a.bits)] = sizes.get(root(a.bits), 0) + 1
    return minima, len(vertices), tuple(sorted(sizes.values(), reverse=True))


@st.composite
def landscape_cases(draw):
    """Random, all-zero and near-budget instances over at most 8 variables."""
    n = draw(st.integers(1, 8))
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
@given(landscape_cases(), st.integers(1, 4), st.booleans(), st.integers(1, 4))
def test_landscape_matches_python_int_reference(inst, k, flipped_rule, block_bits):
    minima, vertex_count, sizes = _reference_landscape(inst, k, flipped_rule)
    assert enumerate_k_minima(inst, k, block_bits=block_bits).minima == minima
    report = k_basins(inst, k, flipped_rule=flipped_rule, block_bits=block_bits)
    assert report.minima_count == (0 if flipped_rule else len(minima))
    assert report.vertex_count == vertex_count
    assert report.basin_sizes == sizes
    assert report.basin_count == len(sizes)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 300), st.lists(st.tuples(st.integers(0, 299), st.integers(0, 299)),
                                     max_size=400), st.integers(1, 4))
def test_component_roots_are_component_minima(count, edges, parts):
    # long paths and stars in drawn order make several hooking rounds
    edges = [(a, b) for a, b in edges if a < count and b < count]
    src = np.array([a for a, _ in edges], dtype=np.int64)
    dst = np.array([b for _, b in edges], dtype=np.int64)
    cuts = np.linspace(0, len(edges), parts + 1).astype(int)
    roots = _component_roots(count, [src[a:b] for a, b in zip(cuts, cuts[1:])],
                             [dst[a:b] for a, b in zip(cuts, cuts[1:])])
    label = list(range(count))

    def find(x):
        while label[x] != x:
            x = label[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        label[max(ra, rb)] = min(ra, rb)
    assert roots.tolist() == [find(v) for v in range(count)]


def test_component_roots_join_a_reversed_path():
    # each edge joins the next vertex down: one component, root 0
    count = 1000
    src = np.arange(count - 1, 0, -1)
    roots = _component_roots(count, [src], [src - 1])
    assert roots.tolist() == [0] * count


def test_a_part_without_minima_ends_the_listing_before_any_product():
    # 6^12 minima in the first part would be listed in full before the
    # triangle's 0 if the join built the product part by part.
    class Uncounted:
        minima_count = 6 ** 12

        @property
        def minima_bits(self):
            raise AssertionError("read the minima of a product that is empty")

    inst = IsingInstance(5, [0] * 5, [(0, 1, -1), (2, 3, 1), (3, 4, 1), (2, 4, 1)])
    parts = instance_parts(inst)
    assert [keep for _, keep in parts] == [(0, 1), (2, 3, 4)]

    def count(part):
        return Uncounted() if part.n == 2 else enumerate_k_minima(part, 1)

    assert minima_by_parts(inst, count, 10 ** 12) == (0, [])
    assert minima_by_parts(inst, count, 0) == (0, [])

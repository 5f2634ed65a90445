from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinscape.solver as solver_module
from spinscape.generators import gen_csse, gen_multicopy, gen_regular
from spinscape.instance import (
    INT64_MAX,
    Assignment,
    EnumerationLimitError,
    IsingInstance,
    spin_block,
)
from spinscape.solver import (
    _key_rank,
    _key_weights,
    _pattern_groups,
    _ScanEngine,
    _solve_with_T,
    compute_Z,
    effective_view,
    greedy_coloring,
    solve_avg_degree,
    solve_brute,
    solve_coloring_baseline,
    solve_combined,
    solve_effective,
)
from spinscape.tset import TParams, check_T, find_T_randomized

from helpers import exhaustive_min, random_instance


def assert_same_optimum(res, inst):
    energy, best = exhaustive_min(inst)
    assert res.energy == energy
    assert res.best == best
    assert inst.energy(res.best) == energy


class TestBrute:
    def test_matches_scalar_oracle(self):
        for seed in range(8):
            inst = random_instance(seed, n=7, density=0.5)
            assert_same_optimum(solve_brute(inst), inst)

    def test_lex_tie_break(self):
        # all-pairs instances have many optima; first rank wins
        res = solve_brute(gen_csse(6))
        assert res.best.bitstring() == "000111"

    def test_counts(self):
        res = solve_brute(gen_csse(4))
        assert res.leaves_explored == 16
        assert res.outer_assignments == 16

    def test_enumeration_guard(self):
        with pytest.raises(EnumerationLimitError):
            solve_brute(IsingInstance(30, [1] * 30))


class TestComputeZ:
    def test_edgeless_counts_outer_assignments(self):
        inst = IsingInstance(6, [1] * 6)
        assert compute_Z(inst, (0, 1, 2)) == 8

    def test_weak_fields_leave_all_members_free(self):
        # internal coupling weight 5 dominates cross fields of size 1
        inst = IsingInstance(4, [0] * 4, [(0, 1, 5), (0, 2, 1), (1, 3, 1)])
        assert compute_Z(inst, (0, 1)) == 16

    def test_empty_t(self):
        inst = IsingInstance(5, [1] * 5, [(0, 1, 2)])
        assert compute_Z(inst, ()) == 32

    def test_strong_fields_fix_everything(self):
        inst = IsingInstance(4, [10, 10, 0, 0], [(0, 1, 1), (0, 2, 3), (1, 3, 3)])
        # members 0, 1 have |field| >= 10 - 3 > h_max = 1 for every outer row
        assert compute_Z(inst, (0, 1)) == 4

    def test_all_pairs_single_member(self):
        # a lone member has no internal couplings, so it is fixed for every
        # one of the 8 outer assignments
        assert compute_Z(gen_csse(4), (0,)) == 8


class TestEffectiveView:
    def test_isolated_member_is_fixed(self):
        inst = IsingInstance(3, [0, 0, 0], [(0, 2, 1), (1, 2, 1)])
        view = effective_view(inst, (2,), Assignment.from_spins([1, 1]))
        assert view.h_eff[2] == 2
        assert view.h_max[2] == 0
        assert view.fixed == frozenset({2})
        assert view.forced[2] == -1

    def test_internal_weight_keeps_members_free(self):
        inst = IsingInstance(4, [0] * 4, [(0, 1, 5), (0, 2, 1), (1, 3, 1)])
        view = effective_view(inst, (0, 1), Assignment.from_spins([1, 1]))
        assert view.h_eff == {0: 1, 1: 1}
        assert view.h_max == {0: 5, 1: 5}
        assert view.free == frozenset({0, 1})
        assert view.fixed == frozenset()

    def test_whole_set_view(self):
        inst = IsingInstance(3, [2, -1, 0], [(0, 1, 3), (1, 2, -4)])
        view = effective_view(inst, (0, 1, 2), Assignment(0, 0))
        assert view.h_eff == {0: 2, 1: -1, 2: 0}
        assert view.h_max == {0: 3, 1: 7, 2: 4}

    def test_zero_field_fixed_defaults_to_plus_one(self):
        inst = IsingInstance(2, [0, 0], [(0, 1, 2)])
        view = effective_view(inst, (0,), Assignment.from_spins([1]))
        # field 2 from the outer spin cancels nothing; pick h to cancel it
        inst2 = IsingInstance(2, [-2, 0], [(0, 1, 2)])
        view2 = effective_view(inst2, (0,), Assignment.from_spins([1]))
        assert view2.h_eff[0] == 0
        assert view2.h_max[0] == 0
        assert view2.forced[0] == 1
        assert view.fixed == frozenset({0})

    def test_domain_mismatch(self):
        inst = IsingInstance(4, [0] * 4)
        with pytest.raises(ValueError):
            effective_view(inst, (0, 1), Assignment.from_spins([1]))


class TestEngineExactness:
    def test_boundary_tie_returns_lex_min(self):
        # |field| equals h_max on variable 0: both spins appear in optima and
        # the smaller bit pattern (spin -1) must win
        inst = IsingInstance(2, [-1, -3], [(0, 1, 1)])
        res = _solve_with_T(inst, (0, 1), "effective-field")
        assert res.energy == -3
        assert res.best.bitstring() == "01"
        assert_same_optimum(res, inst)

    def test_zero_field_members_prefer_minus_one(self):
        inst = IsingInstance(3, [0, 0, 0])
        res = _solve_with_T(inst, (0, 1, 2), "effective-field")
        assert res.best.bits == 0
        assert res.energy == 0

    def test_matches_brute_for_arbitrary_t(self):
        for seed in range(24):
            n = 6 + (seed % 5)
            inst = random_instance(seed, n=n, density=(0.15, 0.45, 0.8)[seed % 3])
            for pick in range(3):
                sel = [i for i in range(n) if (i * 7 + seed + pick) % 3 != 0]
                res = _solve_with_T(inst, sel, "effective-field")
                assert_same_optimum(res, inst)
                assert res.leaves_explored == compute_Z(inst, sel)

    def test_t_covering_all_variables(self):
        inst = random_instance(3, n=8, density=0.4)
        res = _solve_with_T(inst, range(8), "effective-field")
        assert_same_optimum(res, inst)
        assert res.outer_assignments == 1
        assert res.leaves_explored == compute_Z(inst, range(8))

    def test_empty_t_equals_brute(self):
        inst = random_instance(4, n=9, density=0.3)
        res = _solve_with_T(inst, (), "effective-field")
        assert_same_optimum(res, inst)
        assert res.leaves_explored == 1 << 9

    def test_degenerate_all_pairs_lex_min(self):
        inst = gen_csse(8)
        res = _solve_with_T(inst, (0, 2, 4, 6), "effective-field")
        oracle = solve_brute(inst)
        assert res.energy == oracle.energy
        assert res.best == oracle.best

    def test_all_tying_rows_are_counted_and_resolved(self):
        inst = IsingInstance(8, [0] * 8)  # every assignment is optimal
        res = _solve_with_T(inst, (0, 1, 2, 3), "effective-field")
        assert res.counters["tie_rows"] == 16  # every outer assignment ties
        assert "repair_rescan" not in res.counters
        assert res.best.bits == 0
        assert res.energy == 0

    def test_workers_do_not_change_anything(self):
        inst = random_instance(11, n=14, density=0.3)
        one = _solve_with_T(inst, range(5), "effective-field", block_bits=6, workers=1)
        four = _solve_with_T(inst, range(5), "effective-field", block_bits=6, workers=4)
        assert one == four

    def test_threads_sharing_the_running_best_agree(self):
        # more threads than cores and a short switch interval: a block that
        # skipped its tie resolution by mistake would change the answer
        import sys

        inst = IsingInstance(16, [0] * 16, [(2 * k, 2 * k + 1, -1) for k in range(8)])
        t = (1, 3, 5, 7)
        one = _solve_with_T(inst, t, "effective-field", block_bits=2)
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            many = _solve_with_T(inst, t, "effective-field", block_bits=2, workers=8)
        finally:
            sys.setswitchinterval(old)
        assert many == one
        assert one.best.bits == 0 and one.counters["tie_rows"] == 1 << 8

    def test_outer_guard(self):
        inst = IsingInstance(30, [1] * 30)
        with pytest.raises(EnumerationLimitError):
            _solve_with_T(inst, (0, 1), "effective-field")

    def test_strictly_dominated_members_agree_with_oracle_optima(self):
        # every optimum of the full instance must respect a strict domination
        inst = random_instance(7, n=8, density=0.5, allow_zero_field=False)
        t = (2, 3, 4)
        res = _solve_with_T(inst, t, "effective-field")
        jf = inst.full_coupling_matrix()
        h_max = np.abs(jf[np.ix_(t, t)]).sum(axis=1)
        e_star = res.energy
        for rank in range(1 << 8):
            a = Assignment.from_rank(rank, 8)
            if inst.energy(a) != e_star:
                continue
            spins = a.spins()
            for pos, i in enumerate(t):
                heff = inst.h[i] + sum(
                    inst.coupling(i, j) * int(spins[j])
                    for j in range(8)
                    if j not in t and inst.coupling(i, j)
                )
                if abs(heff) > int(h_max[pos]):
                    assert int(spins[i]) == (-1 if heff > 0 else 1)


class TestColoringBaseline:
    def test_greedy_coloring_is_proper(self):
        g = gen_multicopy(3, 4).degree_graph()
        colors = greedy_coloring(g)
        for i in range(g.n):
            for j in g.neighbors[i]:
                assert colors[i] != colors[j]

    def test_block_instances_leaf_count(self):
        inst = gen_multicopy(3, 4)
        res = solve_coloring_baseline(inst)
        assert res.counters["colors"] == 4
        assert res.counters["t_size"] == 3
        assert res.leaves_explored == 1 << 9  # 2 ** (3 * copies)
        assert_same_optimum(res, inst)

    def test_independent_t_means_leaves_equal_outers(self):
        inst = random_instance(5, n=10, density=0.4)
        res = solve_coloring_baseline(inst)
        assert res.leaves_explored == res.outer_assignments
        assert_same_optimum(res, inst)


class TestSolveEffective:
    def test_explicit_certificate_runs_the_scan(self):
        inst = gen_multicopy(4, 4)
        cert = find_T_randomized(inst, seed=1)
        assert cert.ok
        res = solve_effective(inst, cert=cert)
        assert res.method == "effective-field"
        assert_same_optimum(res, inst)
        assert res.leaves_explored == compute_Z(inst, cert.t)

    def test_rejects_failed_certificate(self):
        inst = gen_csse(6)
        bad = check_T(inst, range(6), TParams.for_instance(inst))
        assert not bad.ok
        with pytest.raises(ValueError):
            solve_effective(inst, cert=bad)

    def test_auto_high_degree_uses_found_set(self):
        inst = gen_csse(18)  # degree 17 reaches the gate
        res = solve_effective(inst, seed=2)
        assert res.method == "effective-field"
        oracle = solve_brute(inst)
        assert res.energy == oracle.energy
        assert res.best == oracle.best

    def test_auto_low_degree_falls_back_to_coloring(self):
        inst = gen_multicopy(3, 4)
        res = solve_effective(inst)
        assert res.method == "effective-field:coloring-fallback"
        assert_same_optimum(res, inst)

    def test_auto_edgeless_one_color_class(self):
        inst = IsingInstance(6, [2, -1, 0, 3, -2, 1])
        res = solve_effective(inst)
        assert res.method == "effective-field:coloring-fallback"
        assert res.leaves_explored == 1  # every member is fixed by its field
        assert_same_optimum(res, inst)

    def test_random_suite(self):
        for seed in range(12):
            inst = random_instance(100 + seed, n=10, density=0.35)
            assert_same_optimum(solve_effective(inst, seed=seed), inst)


class TestAvgDegree:
    def star(self, n=9):
        triples = [(0, i, 2) for i in range(1, n)]
        h = [(i % 5) - 2 for i in range(n)]
        return IsingInstance(n, h, triples)

    def test_star_enumerates_only_the_hub(self):
        inst = self.star()
        res = solve_avg_degree(inst)
        assert res.counters["enumerated_vars"] == 1
        assert res.counters["branches"] == 2
        assert res.method.startswith("avg-degree:")
        assert_same_optimum(res, inst)

    def test_regular_graph_has_no_outliers(self):
        inst = gen_regular(12, 3, seed=2)
        res = solve_avg_degree(inst)
        assert res.counters["enumerated_vars"] == 0
        assert_same_optimum(res, inst)

    def test_random_suite(self):
        for seed in range(10):
            inst = random_instance(200 + seed, n=11, density=0.3)
            assert_same_optimum(solve_avg_degree(inst, seed=seed), inst)

    def test_leaves_accumulate_over_branches(self):
        inst = self.star(8)
        res = solve_avg_degree(inst)
        # two hub branches; the conditioned remainder is edgeless, so the
        # coloring strategy fixes every variable and each branch costs one leaf
        assert res.leaves_explored == 2
        assert res.outer_assignments == 2
        assert_same_optimum(res, inst)


class TestCombined:
    def test_block_instance_main_path(self):
        inst = gen_multicopy(5, 4)
        res = solve_combined(inst, seed=0)
        assert res.method == "combined"
        assert res.counters["t1_size"] == 3
        assert res.counters["t2_size"] == 3
        side_width = (1 << 3) + (1 << 3)
        assert res.leaves_explored % side_width == 0
        oracle = solve_brute(inst)
        assert res.energy == oracle.energy
        assert res.best == oracle.best

    def test_low_degree_fallback(self):
        inst = IsingInstance(6, [1, -2, 3, 0, 1, -1], [(0, 1, 2)])
        res = solve_combined(inst)
        assert res.method == "combined:effective-fallback"
        assert_same_optimum(res, inst)

    def test_too_few_variables_for_side_sets_fall_back(self):
        # a triangle has average degree 2, but its side-set target
        # floor(0.5 * 3 * ln 2 / 2) is 0
        inst = IsingInstance(3, [0, 0, 0], [(0, 1, 1), (0, 2, 1), (1, 2, 1)])
        res = solve_combined(inst)
        assert res.method == "combined:effective-fallback"
        assert_same_optimum(res, inst)

    def test_complete_graph_fallback(self):
        triples = [(i, j, 1) for i, j in combinations(range(8), 2)]
        inst = IsingInstance(8, [0] * 8, triples)
        res = solve_combined(inst)
        assert res.method == "combined:effective-fallback"
        oracle = solve_brute(inst)
        assert res.energy == oracle.energy
        assert res.best == oracle.best

    def test_outlier_split(self):
        # hub plus one clique: the hub's degree is far above average
        triples = [(i, j, 1) for i, j in combinations(range(1, 5), 2)]
        triples += [(0, i, 3) for i in range(1, 9)]
        inst = IsingInstance(9, [1] * 9, triples)
        res = solve_combined(inst, degree_dichotomy_factor=1.5)
        assert res.method == "combined:outlier-split"
        assert_same_optimum(res, inst)

    def test_j_max_validation(self):
        inst = gen_multicopy(5, 4)
        with pytest.raises(ValueError):
            solve_combined(inst, j_max=1)  # every coupling row weighs at least 2

    def test_random_suite(self):
        for seed in range(8):
            inst = random_instance(300 + seed, n=12, density=0.4)
            res = solve_combined(inst, seed=seed)
            oracle = solve_brute(inst)
            assert res.energy == oracle.energy
            assert res.best == oracle.best

    def test_workers_deterministic(self):
        inst = gen_multicopy(5, 4)
        one = solve_combined(inst, workers=1, block_bits=8)
        four = solve_combined(inst, workers=4, block_bits=8)
        assert one == four


class TestResultInvariants:
    SOLVERS = (
        solve_brute,
        solve_coloring_baseline,
        lambda inst: solve_effective(inst, seed=5),
        lambda inst: solve_avg_degree(inst, seed=5),
        lambda inst: solve_combined(inst, seed=5),
    )

    def test_leaves_at_least_outer_assignments(self):
        for seed in range(4):
            inst = random_instance(700 + seed, n=10, density=0.5)
            for solver in self.SOLVERS:
                res = solver(inst)
                assert res.leaves_explored >= res.outer_assignments

    def test_no_flip_improves_reported_best(self):
        for seed in range(4):
            inst = random_instance(710 + seed, n=10, density=0.5)
            for solver in self.SOLVERS:
                res = solver(inst)
                for i in range(inst.n):
                    assert inst.flip_delta(res.best, i) >= 0


class TestLexMinAboveTheScanCeiling:
    """Tie-heavy instances whose lex-min is known from their structure."""

    def test_disjoint_pairs_n40(self):
        # 20 antiferromagnetic pairs: 2^20 optima, every outer assignment of
        # the coloring scan ties; the lex-min puts a 0 first in each pair
        inst = IsingInstance(40, [0] * 40, [(2 * k, 2 * k + 1, 1) for k in range(20)])
        for solve in (solve_coloring_baseline, solve_effective, solve_combined):
            res = solve(inst)
            assert res.energy == -20
            assert res.best.bitstring() == "01" * 20
            assert res.counters["tie_rows"] == 1 << 20

    def test_multicopy_7x4_coloring(self):
        res = solve_coloring_baseline(gen_multicopy(7, 4))
        assert res.best.bitstring() == "0011" * 7
        assert res.counters["tie_rows"] == 6 ** 7

    def multiword(self):
        # 63 variables pinned to -1 fill the first key word; the optimum is
        # decided by a frustrated 4-clique (63..66) and three free variables
        # in the second word
        triples = [(i, j, 1) for i, j in combinations(range(63, 67), 2)]
        return IsingInstance(70, [1] * 63 + [0] * 7, triples)

    def test_keys_span_two_words(self):
        inst = self.multiword()
        want = "0" * 63 + "0011" + "000"
        for solve in (solve_coloring_baseline, solve_effective):
            assert solve(inst).best.bitstring() == want
        res = _solve_with_T(inst, range(63), "combined", t1=(64, 65), t2=(67, 68))
        assert res.best.bitstring() == want
        assert res.energy == -63 - 2

    def test_key_weights_spell_the_rank(self):
        for n in (0, 1, 63, 64, 130):
            weights = _key_weights(range(n), n)
            for bits in (0, (1 << n) - 1, 0b1011 & ((1 << n) - 1), 1 << max(n - 1, 0)):
                if n == 0:
                    bits = 0
                on = [v for v in range(n) if (bits >> v) & 1]
                key = weights[on].sum(axis=0)
                assert _key_rank(key, n) == Assignment(n, bits).rank



@settings(max_examples=60)
@given(st.integers(1, 40), st.integers(0, 140), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_pattern_groups_match_a_row_unique(rows, width, kinds, seed):
    # rows drawn from a few patterns, some wider than one 63-bit word; the
    # patterns share whole words, so grouping on any one word merges them
    rng = np.random.default_rng(seed)
    halves = rng.random((2, width)) < 0.5
    pick = rng.integers(0, 2, size=(kinds, 3))[:, np.arange(width) // 63]
    patterns = np.where(pick == 0, halves[0], halves[1])
    mask = patterns[rng.integers(0, kinds, size=rows)]
    seen = 0
    for on, off, members in _pattern_groups(mask):
        assert sorted(np.concatenate([on, off])) == list(range(width))
        for r in members:
            np.testing.assert_array_equal(np.flatnonzero(mask[r]), on)
        seen += members.size
    assert seen == rows
    assert sum(1 for _ in _pattern_groups(mask)) == len(np.unique(mask, axis=0))

def _reference_outer_energies(inst, out, spins):
    pos = {v: k for k, v in enumerate(out)}
    e = spins @ np.array([inst.h[v] for v in out], dtype=np.int64) + inst.c0
    for (i, j), w in inst.couplings.items():
        if i in pos and j in pos:
            e = e + spins[:, pos[i]].astype(np.int64) * spins[:, pos[j]] * w
    return e


@st.composite
def engine_cases(draw):
    """(instance, T, T1, T2, block_bits) with 0..10 outer variables."""
    n_out = draw(st.integers(0, 10))
    m = draw(st.integers(0, 3))
    n = n_out + m + 2
    block_bits = draw(st.integers(1, n_out + 2))
    inner = draw(st.permutations(range(n)))[: m + 2]
    t, t1, t2 = inner[:m], inner[m:m + 1], inner[m + 1:]
    kind = draw(st.sampled_from(["random", "zero-coupling", "near-budget"]))
    small = st.integers(-5, 5)
    pairs = [p for p in combinations(range(n), 2) if set(p) != set(t1 + t2)]
    if kind == "near-budget" and not pairs:
        kind = "zero-coupling"
    if kind == "random":
        triples = [(i, j, draw(st.sampled_from([-3, -1, 1, 2]))) for i, j in pairs
                   if draw(st.booleans())]
        inst = IsingInstance(n, draw(st.lists(small, min_size=n, max_size=n)), triples,
                             c0=draw(small))
    elif kind == "zero-coupling":
        inst = IsingInstance(n, draw(st.lists(small, min_size=n, max_size=n)), c0=draw(small))
    else:
        # one coupling near 2^61 takes 2^62 of the int64 budget
        i, j = draw(st.sampled_from(pairs))
        w = draw(st.integers(2**61 - 2**20, 2**61)) * draw(st.sampled_from([-1, 1]))
        share = (INT64_MAX - 2 * abs(w)) // (n + 1)
        h = [draw(st.integers(-share, share)) for _ in range(n)]
        inst = IsingInstance(n, h, [(i, j, w)], c0=draw(st.integers(-share, share)))
    return inst, t, t1, t2, block_bits


@settings(max_examples=150)
@given(engine_cases())
def test_engine_tables_match_reference_formulas(case):
    inst, t, t1, t2, block_bits = case
    engine = _ScanEngine(inst, t, block_bits, t1, t2)
    out, inner = list(engine.out), sorted(t) + sorted(t1) + sorted(t2)
    jf = inst.full_coupling_matrix()
    h = np.array(inst.h, dtype=np.int64)
    count = 1 << engine.split.lo_bits
    assert list(engine.split.starts) == list(range(0, 1 << len(out), count))
    for start in engine.split.starts:
        spins = spin_block(len(out), start, count)
        np.testing.assert_array_equal(
            engine.outer_energies(start), _reference_outer_energies(inst, out, spins))
        np.testing.assert_array_equal(
            engine.inner_fields(start), spins @ jf[np.ix_(out, inner)] + h[inner])
        keys = engine.outer_keys(start)
        for r in range(count):
            bits = sum(1 << v for k, v in enumerate(out) if spins[r, k] > 0)
            assert _key_rank(keys[r], inst.n) == Assignment(inst.n, bits).rank
    # Python integers cannot wrap: the first and last outer energies are exact
    last = (1 << len(out)) - 1
    for rank in (0, last):
        a = Assignment.from_rank(rank, len(out))
        exact = inst.c0 + sum(inst.h[v] * a.spin(k) for k, v in enumerate(out))
        exact += sum(w * a.spin(out.index(i)) * a.spin(out.index(j))
                     for (i, j), w in inst.couplings.items() if i in out and j in out)
        start = rank - rank % count
        assert int(engine.outer_energies(start)[rank - start]) == exact


@st.composite
def degenerate_instances(draw):
    """Instances with many tying optima: zero fields, equal weights,
    disjoint blocks and isolated vertices."""
    n = draw(st.integers(1, 10))
    w = draw(st.sampled_from([-2, -1, 1, 2]))
    kind = draw(st.sampled_from(["zero-field", "equal-weight", "blocks", "isolated"]))
    pairs = list(combinations(range(n), 2))
    if kind == "blocks":
        size = draw(st.integers(1, 4))
        edges = [(i, j) for i, j in pairs if i // size == j // size]
    else:
        keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        edges = [p for p, k in zip(pairs, keep) if k]
    if kind == "isolated":
        alone = set(draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n)))
        edges = [(i, j) for i, j in edges if i not in alone and j not in alone]
    if kind == "zero-field":
        triples = [(i, j, draw(st.sampled_from([-2, -1, 1, 2]))) for i, j in edges]
    else:
        triples = [(i, j, w) for i, j in edges]
    h = [0] * n
    if kind == "equal-weight":
        h = draw(st.lists(st.sampled_from([0, w, -w]), min_size=n, max_size=n))
    return IsingInstance(n, h, triples)


@settings(max_examples=120)
@given(degenerate_instances(), st.integers(0, 3))
def test_scan_solvers_match_brute_on_degenerate_draws(inst, seed):
    oracle = solve_brute(inst)
    for res in (solve_coloring_baseline(inst, block_bits=2),
                solve_effective(inst, seed=seed, block_bits=2),
                solve_combined(inst, seed=seed, block_bits=2)):
        assert (res.energy, res.best) == (oracle.energy, oracle.best), res.method


@pytest.mark.parametrize("solve", [solve_brute, solve_coloring_baseline, solve_effective,
                                   solve_combined, solve_avg_degree])
def test_empty_instance(solve):
    # No variables: the coloring has no class, and T is empty.
    res = solve(IsingInstance(0, [], c0=3))
    assert (res.energy, res.best) == (3, Assignment(0, 0))


@settings(max_examples=120)
@given(degenerate_instances(), st.integers(0, 3), st.sampled_from([0.5, 1.0, 2.0]))
def test_avg_degree_matches_brute_on_degenerate_draws(inst, seed, degree_factor):
    oracle = solve_brute(inst)
    res = solve_avg_degree(inst, seed=seed, degree_factor=degree_factor, block_bits=2)
    assert (res.energy, res.best) == (oracle.energy, oracle.best), res.method


@settings(max_examples=120)
@given(degenerate_instances(), st.data())
def test_engine_with_any_sets_matches_brute(inst, data):
    # every variable lands outside or in T, T1 or T2; a T2 member coupled to
    # T1 moves outside, so the side sets stay uncoupled
    roles = data.draw(st.lists(st.integers(0, 3), min_size=inst.n, max_size=inst.n))
    t = [v for v in range(inst.n) if roles[v] == 1]
    t1 = [v for v in range(inst.n) if roles[v] == 2]
    t2 = [v for v in range(inst.n)
          if roles[v] == 3 and not any(inst.coupling(v, u) for u in t1)]
    block_bits = data.draw(st.integers(1, 4))
    res = _solve_with_T(inst, t, "x", block_bits=block_bits, t1=t1, t2=t2)
    oracle = solve_brute(inst)
    assert (res.energy, res.best) == (oracle.energy, oracle.best)
    if not (t1 or t2):
        assert res.leaves_explored == compute_Z(inst, t)


def _chunk_cases():
    # (instance, T, T1, T2): T with members left free or at the boundary,
    # side sets whose bits interleave with T's
    yield gen_csse(8), (2, 4, 6), (1, 3), ()
    yield gen_csse(8), (0, 1, 2, 3, 4), (), ()
    yield IsingInstance(9, [0] * 9, [(i, j, 1) for i, j in combinations(range(6), 2)]), \
        (0, 2, 4), (1,), (6, 7)
    yield gen_multicopy(2, 4), (0, 1, 4, 5), (2,), (6,)
    yield random_instance(7, n=10, density=0.6), (1, 2, 3, 5, 8), (0,), ()


@pytest.mark.parametrize("case", list(_chunk_cases()), ids=["csse8-sides", "csse8", "k6", "m24", "r10"])
def test_tiny_chunks_change_nothing(case, monkeypatch):
    # completions one or two at a time and a few rows per chunk: every
    # chunk boundary of the scan and of the tie resolution is crossed
    inst, t, t1, t2 = case
    ref = _solve_with_T(inst, t, "x", t1=t1, t2=t2)
    oracle = solve_brute(inst)
    assert (ref.energy, ref.best) == (oracle.energy, oracle.best)
    monkeypatch.setattr(solver_module, "_COMPLETION_CHUNK", 2)
    monkeypatch.setattr(solver_module, "_CHUNK_CELLS", 4)
    assert _solve_with_T(inst, t, "x", t1=t1, t2=t2) == ref

import contextlib
import inspect
import io
import os
import tempfile
import time
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinscape.solver as solver_module
from spinscape.cli import main
from spinscape.generators import gen_csse, gen_multicopy, gen_random, gen_regular
from spinscape.instance import (
    INT16_MAX,
    INT32_MAX,
    INT64_MAX,
    Assignment,
    EnumerationLimitError,
    IsingInstance,
    SplitScan,
    block_energies,
    block_local_fields,
    spin_block,
    thread_map,
)
from spinscape.landscape import _flip_survivors, enumerate_k_minima, k_basins
from spinscape.solver import (
    SolveResult,
    Plan,
    _key_rank,
    _key_weights,
    _largest_color_class,
    _pattern_groups,
    _row_classes,
    _ScanEngine,
    _SideTable,
    _solve_with_T,
    compute_Z,
    greedy_coloring,
    instance_parts,
    plan_avg_degree,
    plan_combined,
    plan_effective,
    solve_avg_degree,
    solve_brute,
    solve_by_parts,
    solve_coloring_baseline,
    solve_combined,
    solve_effective,
)
from spinscape.tset import find_T1T2, find_T_randomized

from helpers import (
    effective_view,
    every_row,
    exhaustive_min,
    member_filter_ranks,
    optimal_outer_patterns,
    peak_mib,
    random_instance,
    reference_branch_and_recombine,
    reference_compute_Z,
    reference_couplings,
    reference_side_minima,
)


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


class TestSparseMemory:
    # Edgeless n = 4000: T is every variable and there is no outer bit, so
    # a solve or Z needs O(n) memory; a dense n x n J alone would be 122 MiB.
    EDGELESS = IsingInstance(4000, [1] * 4000)
    SIGNS = [(-1) ** i * (i % 3) for i in range(4000)]

    @pytest.mark.parametrize("solve", [solve_coloring_baseline, solve_effective, solve_combined])
    def test_edgeless_solves_build_no_dense_couplings(self, solve):
        res, peak = peak_mib(lambda: solve(self.EDGELESS))
        assert (res.energy, res.leaves_explored) == (-4000, 1)
        assert peak < 32

    def test_edgeless_z_builds_no_dense_couplings(self):
        z, peak = peak_mib(lambda: compute_Z(self.EDGELESS, range(4000)))
        assert z == 1
        assert peak < 32

    def test_edgeless_mixed_signs_key_every_member_at_one_row(self):
        # h_i = (-1)^i (i mod 3): one part, one tying row, 4,000 keyed
        # members, each at +1 exactly where its field is negative
        inst = IsingInstance(4000, self.SIGNS)
        res, peak = peak_mib(lambda: solve_by_parts(inst, solve_coloring_baseline))
        assert res.energy == -3999
        assert res.best.bitstring() == "".join("1" if x < 0 else "0" for x in self.SIGNS)
        assert res.counters["tie_rows"] == 1
        assert peak < 32

    def test_star_plus_isolated_variables_splits_into_two_parts(self):
        # a hub with 16 leaves plus 3,983 isolated variables, h = 1: scanned
        # whole, T holds every isolated variable and the scan gives each a
        # field row of 2^16 cells; the star is a part of its own
        star = IsingInstance(17, [1] * 17, [(0, k, 1) for k in range(1, 17)])
        inst = IsingInstance(4000, [1] * 4000, star.couplings)
        res, peak = peak_mib(lambda: solve_by_parts(inst, solve_effective))
        ref = solve_brute(star)
        assert res.energy == ref.energy - 3983 == -4014
        assert res.best.bitstring() == ref.best.bitstring() + "0" * 3983
        assert res.counters["components"] == 2
        assert peak < 64


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

    def test_refuses_more_than_26_outer_variables(self):
        with pytest.raises(EnumerationLimitError, match="outer enumeration needs 27 bits"):
            compute_Z(IsingInstance(27, [0] * 27), [])


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
        res = _solve_with_T(inst, Plan("effective", (0, 1)))
        assert res.energy == -3
        assert res.best.bitstring() == "01"
        assert_same_optimum(res, inst)

    def test_zero_field_members_prefer_minus_one(self):
        inst = IsingInstance(3, [0, 0, 0])
        res = _solve_with_T(inst, Plan("effective", (0, 1, 2)))
        assert res.best.bits == 0
        assert res.energy == 0

    def test_matches_brute_for_arbitrary_t(self):
        for seed in range(24):
            n = 6 + (seed % 5)
            inst = random_instance(seed, n=n, density=(0.15, 0.45, 0.8)[seed % 3])
            for pick in range(3):
                sel = [i for i in range(n) if (i * 7 + seed + pick) % 3 != 0]
                res = _solve_with_T(inst, Plan("effective", sel))
                assert_same_optimum(res, inst)
                assert res.leaves_explored == compute_Z(inst, sel)

    def test_t_covering_all_variables(self):
        inst = random_instance(3, n=8, density=0.4)
        res = _solve_with_T(inst, Plan("effective", range(8)))
        assert_same_optimum(res, inst)
        assert res.outer_assignments == 1
        assert res.leaves_explored == compute_Z(inst, range(8))

    def test_empty_t_equals_brute(self):
        inst = random_instance(4, n=9, density=0.3)
        res = _solve_with_T(inst, Plan("effective", ()))
        assert_same_optimum(res, inst)
        assert res.leaves_explored == 1 << 9

    def test_degenerate_all_pairs_lex_min(self):
        inst = gen_csse(8)
        res = _solve_with_T(inst, Plan("effective", (0, 2, 4, 6)))
        oracle = solve_brute(inst)
        assert res.energy == oracle.energy
        assert res.best == oracle.best

    def test_all_tying_rows_are_counted_and_resolved(self):
        inst = IsingInstance(8, [0] * 8)  # every assignment is optimal
        res = _solve_with_T(inst, Plan("effective", (0, 1, 2, 3)))
        assert res.counters["tie_rows"] == 16  # every outer assignment ties
        assert "repair_rescan" not in res.counters
        assert res.best.bits == 0
        assert res.energy == 0

    def test_workers_do_not_change_anything(self):
        inst = random_instance(11, n=14, density=0.3)
        one = _solve_with_T(inst, Plan("effective", range(5)), block_bits=6, workers=1)
        four = _solve_with_T(inst, Plan("effective", range(5)), block_bits=6, workers=4)
        assert one == four

    def test_threads_sharing_the_running_best_agree(self):
        # more threads than cores and a short switch interval: a block that
        # skipped its tie resolution by mistake would change the answer
        import sys

        inst = IsingInstance(16, [0] * 16, [(2 * k, 2 * k + 1, -1) for k in range(8)])
        t = (1, 3, 5, 7)
        one = _solve_with_T(inst, Plan("effective", t), block_bits=2)
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            many = _solve_with_T(inst, Plan("effective", t), block_bits=2, workers=8)
        finally:
            sys.setswitchinterval(old)
        assert many == one
        assert one.best.bits == 0 and one.counters["tie_rows"] == 1 << 8

    def test_outer_guard(self):
        inst = IsingInstance(30, [1] * 30)
        with pytest.raises(EnumerationLimitError):
            _solve_with_T(inst, Plan("effective", (0, 1)))

    def test_strictly_dominated_members_agree_with_oracle_optima(self):
        # every optimum of the full instance must respect a strict domination
        inst = random_instance(7, n=8, density=0.5, allow_zero_field=False)
        t = (2, 3, 4)
        res = _solve_with_T(inst, Plan("effective", t))
        jf = reference_couplings(inst)
        h_max = np.abs(jf[np.ix_(t, t)]).sum(axis=1)
        e_star = res.energy
        for rank in range(1 << 8):
            a = Assignment.from_rank(rank, 8)
            if inst.energy(a) != e_star:
                continue
            spins = np.array([a.spin(i) for i in range(a.n)])
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
        res = _solve_with_T(inst, Plan("effective", cert.t, source="randomized"))
        assert res.method == "effective-field"
        assert_same_optimum(res, inst)
        assert res.leaves_explored == compute_Z(inst, cert.t)

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


def two_hub_path():
    # hubs 0 and 1 on a 52-vertex path: the remainder's largest color class
    # has 26 members, so the one scan would need 26 + 2 outer bits
    triples = [(v, v + 1, 1) for v in range(2, 53)]
    triples += [(hub, v, 1) for hub in (0, 1) for v in range(2, 54)]
    return IsingInstance(54, [0] * 54, triples)


class TestAvgDegree:
    def star(self, n=9):
        triples = [(0, i, 2) for i in range(1, n)]
        h = [(i % 5) - 2 for i in range(n)]
        return IsingInstance(n, h, triples)

    def test_star_enumerates_only_the_hub(self):
        inst = self.star()
        res = solve_avg_degree(inst)
        assert res.counters["enumerated_vars"] == 1
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
        # the hub is the one outer bit; the remainder is edgeless, so the
        # coloring set fixes every other variable and each hub spin costs one leaf
        assert res.leaves_explored == 2
        assert res.outer_assignments == 2
        assert_same_optimum(res, inst)

    def test_star_ties(self):
        # one hub spin is optimal; summing per-branch ties would count both
        res = solve_avg_degree(self.star(8))
        assert res.counters["tie_rows"] == 1
        assert res.counters["tie_rows"] == optimal_outer_patterns(self.star(8), [0])

    def test_scan_ceiling_covers_the_enumerated_variables(self, tmp_path, capsys):
        inst = two_hub_path()
        started = time.perf_counter()
        with pytest.raises(EnumerationLimitError, match="needs 28 bits"):
            solve_avg_degree(inst)
        path = tmp_path / "hubs.json"
        path.write_text(inst.to_json())
        assert main(["solve", "--method", "avg-degree", "-i", str(path)]) == 3
        assert capsys.readouterr().out == ""
        assert time.perf_counter() - started < 1.0


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

    def test_failed_constrained_search_falls_back(self):
        # Side sets are found, but a constrained member of T needs a partner
        # outside T, and the ten isolated variables have none.
        base = gen_regular(8, 5, seed=1)
        inst = IsingInstance(18, list(base.h) + [1] * 10, base.couplings, c0=base.c0)
        sides = find_T1T2(inst.degree_graph(), alpha=0.5, seed=0)
        assert sides.ok and (sides.t1, sides.t2) == ((0, 1, 2), (8, 9, 10))
        res = solve_combined(inst)
        assert res.method == "combined:effective-fallback"
        assert (res.counters["t1_size"], res.counters["t_size"]) == (0, 12)
        oracle = solve_brute(inst)
        assert (res.energy, res.best) == (oracle.energy, oracle.best) and res.energy == -46

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

    def test_outlier_split_with_side_sets(self):
        # a hub over 5 disjoint 4-cliques: the side sets come from the cliques
        base = gen_multicopy(5, 4)
        triples = [(i, j, w) for (i, j), w in base.couplings.items()]
        inst = IsingInstance(21, list(base.h) + [1], triples + [(20, v, 2) for v in range(20)])
        res = solve_combined(inst, block_bits=2, degree_dichotomy_factor=1.5)
        assert res.method == "combined:outlier-split"
        plan = plan_combined(inst, None, 0.5, 0, 1.5)
        t, t1, t2 = plan.t, plan.t1, plan.t2
        assert 20 not in t + t1 + t2 and t1 and t2
        sizes = tuple(res.counters[k] for k in ("t_size", "t1_size", "t2_size"))
        assert sizes == (len(t), len(t1), len(t2))
        assert res.counters["enumerated_vars"] == 1
        assert res == _reference_combined(inst, 0, 1.5)
        oracle = solve_brute(inst)
        assert (res.energy, res.best) == (oracle.energy, oracle.best)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 5.0, -1.0, float("nan"), float("inf")])
    def test_alpha_outside_open_unit_interval(self, alpha):
        # average degree below 2 falls back before any side-set search
        inst = IsingInstance(6, [1, -2, 3, 0, 1, -1], [(0, 1, 2)])
        with pytest.raises(ValueError, match="alpha"):
            solve_combined(inst, alpha=alpha)

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
                    assert inst.energy(res.best.flip(i)) - inst.energy(res.best) >= 0


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
        # T is one variable per copy, and every field on it is non-zero
        res = solve_coloring_baseline(gen_multicopy(7, 4))
        assert res.best.bitstring() == "0011" * 7
        assert res.counters["tie_rows"] == 6 ** 7
        assert res.counters["strict_fixed"] == 7 * 2**21
        assert res.counters["zero_field_fixed"] == 0
        assert res.leaves_explored == 2**21

    def test_multicopy_8x4_coloring(self):
        # 2^24 outer rows in 256 blocks, 6^8 of them at the optimum
        res = solve_coloring_baseline(gen_multicopy(8, 4))
        assert res.best.bitstring() == "0011" * 8
        assert res.counters["tie_rows"] == 6 ** 8

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
        res = _solve_with_T(inst, Plan("combined", range(63), (64, 65), (67, 68)))
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
                # the rank is the bit string read in binary, variable 0 first
                assert _key_rank(key, n) == int("0" + Assignment(n, bits).bitstring(), 2)



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
    for row, members in _pattern_groups(mask):
        for r in members:
            np.testing.assert_array_equal(mask[r], row)
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
def engine_cases(draw, kinds=("random", "zero-coupling", "near-budget")):
    """(instance, T, T1, T2, block_bits) with 0..10 outer variables."""
    n_out = draw(st.integers(0, 10))
    m = draw(st.integers(0, 3))
    n = n_out + m + 2
    block_bits = draw(st.integers(1, n_out + 2))
    inner = draw(st.permutations(range(n)))[: m + 2]
    t, t1, t2 = inner[:m], inner[m:m + 1], inner[m + 1:]
    kind = draw(st.sampled_from(list(kinds)))
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
    # the engine's scanner: outer energies, fields on T|T1|T2 and lex keys
    inst, t, t1, t2, block_bits = case
    out = list(_ScanEngine(inst, t, block_bits, (t1, t2)).out)
    inner = sorted(t) + sorted(t1) + sorted(t2)
    split = SplitScan(inst, block_bits, out)
    keys = split.weight_sums(_key_weights(out, inst.n))
    jf = reference_couplings(inst)
    h = np.array(inst.h, dtype=np.int64)
    count = 1 << split.lo_bits
    assert list(split.starts) == list(range(0, 1 << len(out), count))
    for start in split.starts:
        spins = spin_block(len(out), start, count)
        np.testing.assert_array_equal(
            split.energies(start), _reference_outer_energies(inst, out, spins))
        np.testing.assert_array_equal(
            split.fields(start, inner).T, spins @ jf[np.ix_(out, inner)] + h[inner])
        block_keys = keys(start, np.arange(count))
        for r in range(count):
            bits = sum(1 << v for k, v in enumerate(out) if spins[r, k] > 0)
            assert _key_rank(block_keys[r], inst.n) == int(Assignment(inst.n, bits).bitstring(), 2)
    # Python integers cannot wrap: the first and last outer energies are exact
    last = (1 << len(out)) - 1
    for rank in (0, last):
        a = Assignment.from_rank(rank, len(out))
        exact = inst.c0 + sum(inst.h[v] * a.spin(k) for k, v in enumerate(out))
        exact += sum(w * a.spin(out.index(i)) * a.spin(out.index(j))
                     for (i, j), w in inst.couplings.items() if i in out and j in out)
        start = rank - rank % count
        assert int(split.energies(start)[rank - start]) == exact


@st.composite
def uncoupled_cases(draw, min_members=1):
    """(instance, T, block_bits) with T an independent set and high outer bits.

    Each member of T draws where its couplings go: to low outer variables
    only, to high ones only, to both, or nowhere.  The outer variables
    interleave with T and are coupled among themselves.  Small fields and
    couplings make zero fields common, and wide draws pass 63 variables,
    so that keys span two words.  T has at least ``min_members`` members.
    """
    block_bits = draw(st.integers(1, 4))
    n_out = draw(st.integers(block_bits + 1, 8))
    m = draw(st.integers(58, 66) if draw(st.booleans()) else st.integers(min_members, 8))
    n = n_out + m
    out = sorted(draw(st.permutations(range(n)))[:n_out])
    t = [v for v in range(n) if v not in out]
    high, low = out[:n_out - block_bits], out[n_out - block_bits:]
    weight = st.sampled_from([-2, -1, 1, 2])
    triples = [(i, j, draw(weight)) for i, j in combinations(out, 2) if draw(st.booleans())]
    for v in t:
        kind = draw(st.sampled_from(["low", "high", "mixed", "isolated"]))
        for side, pool in (("low", low), ("high", high)):
            if kind in (side, "mixed"):
                nbrs = draw(st.lists(st.sampled_from(pool), min_size=1, unique=True))
                triples += [(v, u, draw(weight)) for u in nbrs]
    h = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    return IsingInstance(n, h, triples, c0=draw(st.integers(-3, 3))), t, block_bits


def _uncoupled_reference(inst, t, block_bits):
    """Per block of the scan over the variables outside ``t``: (minimum, rank of
    the lex-min optimum, tying rows, width histogram, counters), row by row.

    Each member of the independent set ``t`` goes against its local field,
    to -1 on a zero field, which is the lex-smallest optimal completion.
    """
    out = [v for v in range(inst.n) if v not in set(t)]
    count = 1 << min(block_bits, len(out))
    for start in range(0, 1 << len(out), count):
        spins = np.full((count, inst.n), -1, dtype=np.int64)
        spins[:, out] = spin_block(len(out), start, count)
        f = block_local_fields(inst, spins)[:, t]
        spins[:, t] = np.where(f < 0, 1, -1)
        e = block_energies(inst, spins)
        at = np.flatnonzero(e == e.min())
        rank = min(int(Assignment.from_spins([int(x) for x in spins[r]]).bitstring(), 2)
                   for r in at)
        strict = int(np.count_nonzero(f))
        counters = {"strict_fixed": strict, "boundary_fixed": 0,
                    "zero_field_fixed": len(t) * count - strict, "free_members": 0}
        yield int(e.min()), rank, int(at.size), [count], counters


@settings(max_examples=80, deadline=None)
@given(uncoupled_cases(), st.sampled_from([1, 2]))
def test_uncoupled_blocks_match_a_per_row_reference(case, workers):
    # the folded pass: totals of the members with no high coupling from the
    # engine's tables, the others row by row; every member keyed from its
    # field at the tying rows
    _check_uncoupled_blocks(*case, workers)


@settings(max_examples=40, deadline=None)
@given(uncoupled_cases(min_members=3), st.sampled_from([1, 2]))
def test_uncoupled_keys_in_member_chunks(case, workers):
    # two fields per chunk and at least three keyed members: every block
    # keys its tying rows in two or more member chunks
    assert len(_ScanEngine(*case)._key_at) >= 3
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver_module, "_CHUNK_CELLS", 2)
        _check_uncoupled_blocks(*case, workers)


def _check_uncoupled_blocks(inst, t, block_bits, workers):
    want = list(_uncoupled_reference(inst, t, block_bits))
    best = min(ref[0] for ref in want)
    engine = _ScanEngine(inst, t, block_bits)
    assert not engine.coupled and len(engine.split.starts) == len(want) > 1
    for (bmin, rank, ties, widths, counters), ref in zip(
            thread_map(engine.scan_block, engine.split.starts, workers), want):
        assert (bmin, ties, widths, counters) == (ref[0],) + ref[2:]
        # a block skips its ties only when another block is lower
        assert rank == ref[1] or (rank is None and bmin > best)
    # every block's rank, with no running best to skip it
    engine = _ScanEngine(inst, t, block_bits)
    for start, ref in zip(engine.split.starts, want):
        engine._best = None
        assert engine.scan_block(start)[1] == ref[1]
    res = _solve_with_T(inst, Plan("effective", t), block_bits, workers)
    assert res.energy == best
    assert int(res.best.bitstring(), 2) == min(ref[1] for ref in want if ref[0] == best)
    assert res.counters["tie_rows"] == sum(ref[2] for ref in want if ref[0] == best)
    assert res.leaves_explored == res.outer_assignments
    for key in want[0][4]:
        assert res.counters[key] == sum(ref[4][key] for ref in want)


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


def _cli_solve_bytes(path, method, workers):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["solve", "--method", method, "-i", path, "--workers", workers]) == 0
    return [line for line in out.getvalue().splitlines() if "wall_time_s" not in line]


def _hub_instance(base_n, w, seed):
    """Two hubs coupled to each other and to every variable of a 3-regular
    base of ``base_n`` variables, every weight +-1 and every field 0."""
    base = gen_regular(base_n, 3, wmax=1, seed=seed)
    n = base_n + 2
    triples = [(i + 2, j + 2, v) for i, j, v in base.edges()]
    triples += [(0, 1, w)] + [(hub, v, w) for hub in (0, 1) for v in range(2, n)]
    return IsingInstance(n, [0] * n, triples)


def _scaled_to_budget(inst):
    """``inst`` without c0, its fields and couplings times the largest factor
    that keeps |h| + 2|J| summed within INT64_MAX; optima are unchanged."""
    base = sum(abs(x) for x in inst.h) + 2 * sum(abs(w) for w in inst.couplings.values())
    k = INT64_MAX // max(1, base)
    return IsingInstance(inst.n, [k * x for x in inst.h],
                         [(i, j, k * w) for (i, j), w in inst.couplings.items()])


@st.composite
def tie_heavy_instances(draw, max_n=18):
    """Instances of at most ``max_n`` variables whose blocks repeat inner
    field vectors: multicopy, all-pairs and hub instances (at n = 18, degree
    17 sends `effective` to the T-set search).  Half are scaled to the int64
    budget, where two varying field columns already span more than 2^62
    together and the class codes fold."""
    kind = draw(st.sampled_from(["multicopy", "csse", "hub"]))
    if kind == "multicopy":
        inst = gen_multicopy(draw(st.integers(1, max_n // 4)), 4)
    elif kind == "csse":
        inst = gen_csse(2 * draw(st.integers(1, max_n // 2)))
    else:
        inst = _hub_instance(2 * draw(st.integers(2, max_n // 2 - 1)),
                             draw(st.sampled_from([-1, 1])), draw(st.integers(0, 99)))
    return _scaled_to_budget(inst) if draw(st.booleans()) else inst


def _identity_classes(table, n_rows):
    rows = np.arange(n_rows)
    return rows, rows


@settings(max_examples=30)
@given(tie_heavy_instances(), st.integers(0, 3), st.integers(8, 16), st.sampled_from([62, 2]))
def test_classing_rows_changes_no_solve_result(inst, seed, block_bits, code_bits):
    # every row its own class is the scan without classing; 2-bit codes fold
    # at every digit.  Classed, _minima gets one row per field vector.
    minima = _ScanEngine._minima

    def once_per_class(self, fields):
        assert len(np.unique(fields, axis=0)) == len(fields)
        return minima(self, fields)

    solvers = {
        "brute": lambda: solve_brute(inst, block_bits=block_bits),
        "coloring": lambda: solve_coloring_baseline(inst, block_bits=block_bits),
        "effective": lambda: solve_effective(inst, seed=seed, block_bits=block_bits),
        "avg-degree": lambda: solve_avg_degree(inst, seed=seed, block_bits=block_bits),
        "combined": lambda: solve_combined(inst, seed=seed, block_bits=block_bits),
    }
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver_module, "_CODE_BITS", code_bits)
        mp.setattr(_ScanEngine, "_minima", once_per_class)
        classed = {method: solve() for method, solve in solvers.items()}
        mp.setattr(_ScanEngine, "_minima", minima)
        mp.setattr(solver_module, "_row_classes", _identity_classes)
        for method, solve in solvers.items():
            assert solve() == classed[method], method


@st.composite
def class_columns(draw):
    """(table, n_rows): rows drawn from a few distinct rows of bool, small,
    int32, up-to-2^62-wide or near-int64-limit columns, so classes repeat.
    The table has columns of one kind in their own dtype, or of mixed
    kinds in int64."""
    n_rows = draw(st.integers(1, 40))
    kinds = draw(st.lists(st.sampled_from(["bool", "small", "int32", "wide", "int64"]),
                          max_size=6))
    native = draw(st.booleans())
    if native:
        kinds = kinds[:1] * len(kinds)
    distinct = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pick = rng.integers(0, distinct, size=n_rows)
    columns = []
    for kind in kinds:
        if kind == "bool":
            values = rng.random(distinct) < 0.5
        elif kind == "small":
            values = rng.integers(-3, 4, size=distinct)
        elif kind == "int32":
            values = rng.integers(-2**31, 2**31, size=distinct).astype(np.int32)
        elif kind == "wide":
            values = rng.integers(0, 2**62, size=distinct) - 2**61
        else:
            values = np.where(rng.random(distinct) < 0.5, INT64_MAX, -INT64_MAX - 1)
            values = values - np.sign(values) * rng.integers(0, 3, size=distinct)
        columns.append(values[pick])
    if native and columns:
        return np.column_stack(columns), n_rows
    return np.array(columns, dtype=np.int64).T.reshape(n_rows, len(columns)), n_rows


@settings(max_examples=150)
@given(class_columns(), st.sampled_from([62, 1, 3, 8]))
def test_row_classes_match_a_row_unique(case, code_bits):
    # two rows share a class exactly when they are equal; classes come in
    # lexicographic order of the rows, each represented by its smallest row;
    # 1- to 8-bit codes force every fold
    table, n_rows = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver_module, "_CODE_BITS", code_bits)
        _check_row_classes(table, n_rows)


def _check_row_classes(table, n_rows):
    reps, cls = _row_classes(table, n_rows)
    rows = [tuple(int(x) for x in table[r]) for r in range(n_rows)]
    distinct = sorted(set(rows))
    assert [rows[r] for r in reps] == distinct
    assert list(cls) == [distinct.index(row) for row in rows]
    assert list(reps) == [rows.index(row) for row in distinct]


def test_row_classes_fold_wide_codes():
    # a lone column 2^62 wide fills the code, so the row keys need one more
    # fold; a column wider than 2^62 is ranked, never shifted by its minimum
    wide = np.array([2**61 - 1, -2**61, 5, -2**61, 2**61 - 1, 0])
    extreme = np.array([INT64_MAX, -INT64_MAX - 1, 0, INT64_MAX, 1, -INT64_MAX - 1])
    for columns in ([wide], [extreme], [extreme, wide], [wide, extreme]):
        _check_row_classes(np.array(columns).T, 6)
    assert [list(part) for part in _row_classes(wide[:, None], 6)] == \
        [[1, 5, 2, 0], [3, 0, 2, 0, 3, 1]]


def test_combined_multicopy_6x4_solves_12_classes():
    # 256 outer rows fall into 12 field vectors on T, T1 and T2
    seen = []
    minima = _ScanEngine._minima

    def recording(self, fields):
        seen.append(len(fields))
        return minima(self, fields)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_ScanEngine, "_minima", recording)
        res = solve_combined(gen_multicopy(6, 4))
    assert seen == [12]
    assert res.outer_assignments == 256


@settings(max_examples=40)
@given(st.one_of(degenerate_instances().map(lambda inst: (inst, 2)),
                 engine_cases().map(lambda case: (case[0], case[4])),
                 st.tuples(tie_heavy_instances(max_n=14), st.integers(1, 3))))
def test_workers_do_not_change_solve_bytes_on_drawn_instances(case):
    # small blocks, so every scan has several blocks to share between
    # threads, and tie-heavy draws whose blocks class their rows
    inst, block_bits = case

    def small_blocks(inst, _block_bits=None, variables=None, columns=None):
        return SplitScan(inst, block_bits, variables, columns)

    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver_module, "SplitScan", small_blocks)
        path = os.path.join(tmp, "inst.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(inst.to_json())
        for method in ("brute", "coloring", "effective", "avg-degree", "combined"):
            assert _cli_solve_bytes(path, method, "1") == _cli_solve_bytes(path, method, "2")


@settings(max_examples=120)
@given(degenerate_instances(), st.integers(0, 3), st.sampled_from([0.5, 1.0, 2.0]))
def test_avg_degree_matches_brute_on_degenerate_draws(inst, seed, degree_factor):
    oracle = solve_brute(inst)
    res = solve_avg_degree(inst, seed=seed, degree_factor=degree_factor, block_bits=2)
    assert (res.energy, res.best) == (oracle.energy, oracle.best), res.method
    # one scan with W among the outer bits does the work of one scan per
    # spin pattern of W, each against the set chosen on the first pattern
    graph = inst.degree_graph()
    wbar = [i for i in range(inst.n) if graph.degrees[i] > degree_factor * graph.average_degree]
    strategy = []
    engines = []

    def branch(sub):
        if not strategy:
            strategy.append(plan_effective(sub, seed))
        engines.append(_solve_with_T(sub, strategy[0], block_bits=2))
        return engines[-1]

    e_star, best, leaves, outers, counters = reference_branch_and_recombine(inst, wbar, branch)
    assert (res.energy, res.best) == (e_star, best)
    assert (res.leaves_explored, res.outer_assignments) == (leaves, outers)
    assert res.method == "avg-degree:" + engines[0].method
    assert res.counters == {**counters, "enumerated_vars": len(wbar)}
    keep = [i for i in range(inst.n) if i not in wbar]
    t = {keep[i] for i in strategy[0].t}
    outer = [i for i in range(inst.n) if i not in t]
    assert res.counters["tie_rows"] == optimal_outer_patterns(inst, outer)


def _reference_combined(inst, seed, factor):
    """The branch-per-pattern combined solve: every spin pattern of the
    outlier-degree variables conditions the instance and solves the rest."""
    graph = inst.degree_graph()
    heavy = [i for i in range(inst.n) if graph.degrees[i] > factor * graph.average_degree]
    if not heavy:
        return _solve_with_T(inst, plan_combined(inst, None, 0.5, seed, factor), 2, 1)
    e_star, best, leaves, outers, counters = reference_branch_and_recombine(
        inst, heavy, lambda sub: _reference_combined(sub, seed, factor))
    counters["enumerated_vars"] += len(heavy)
    return SolveResult(best, e_star, leaves, outers, "combined:outlier-split", counters)


@settings(max_examples=80)
@given(st.one_of(degenerate_instances(),
                 st.integers(0, 10 ** 6).map(lambda s: random_instance(s, n=9))),
       st.integers(0, 3), st.sampled_from([0.5, 1.0, 1.5]))
def test_combined_outlier_scan_matches_branch_and_recombine(inst, seed, factor):
    res = solve_combined(inst, seed=seed, block_bits=2, degree_dichotomy_factor=factor)
    assert res == _reference_combined(inst, seed, factor)


_COMMON_COUNTERS = {"tie_rows", "t_size", "t1_size", "t2_size", "strict_fixed",
                    "boundary_fixed", "zero_field_fixed", "free_members"}
_OWN_COUNTERS = {"brute": set(), "coloring": {"colors"}, "effective": set(),
                 "avg-degree": {"enumerated_vars"}, "combined": {"enumerated_vars"}}


@settings(max_examples=60)
@given(st.one_of(degenerate_instances(),
                 st.integers(0, 10 ** 6).map(lambda s: random_instance(s, n=9))),
       st.integers(0, 3), st.sampled_from([0.5, 1.0, 2.0]))
def test_every_method_reports_the_same_counters(inst, seed, factor):
    # every scan is recorded with its sets; tie_rows counts the optimal
    # patterns of the variables outside them (all of them for brute)
    signature = inspect.signature(_solve_with_T)
    scans = []

    def recording(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        plan = bound.arguments["plan"]
        scans.append(tuple(tuple(part) for part in (plan.t, plan.t1, plan.t2)))
        return _solve_with_T(*args, **kwargs)

    solvers = {
        "brute": lambda: solve_brute(inst, block_bits=2),
        "coloring": lambda: solve_coloring_baseline(inst, block_bits=2),
        "effective": lambda: solve_effective(inst, seed=seed, block_bits=2),
        "avg-degree": lambda: solve_avg_degree(inst, seed=seed, degree_factor=factor,
                                               block_bits=2),
        "combined": lambda: solve_combined(inst, seed=seed, block_bits=2,
                                           degree_dichotomy_factor=factor),
    }
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver_module, "_solve_with_T", recording)
        for method, solve in solvers.items():
            scans.clear()
            res = solve()
            assert set(res.counters) == _COMMON_COUNTERS | _OWN_COUNTERS[method], method
            assert len(scans) == (method != "brute")
            sets = scans[0] if scans else ((), (), ())
            sizes = tuple(res.counters[k] for k in ("t_size", "t1_size", "t2_size"))
            assert sizes == tuple(len(part) for part in sets), method
            inner = set().union(*sets)
            outer = [v for v in range(inst.n) if v not in inner]
            assert res.counters["tie_rows"] == optimal_outer_patterns(inst, outer), method


@st.composite
def sparse_instances(draw):
    """Instances of 8-12 variables with at most one coupling per two
    variables, so that sets drawn at random split into several components."""
    n = draw(st.integers(8, 12))
    edges = draw(st.lists(st.sampled_from(list(combinations(range(n), 2))), max_size=n // 2,
                          unique=True))
    triples = [(i, j, draw(st.sampled_from([-2, -1, 1, 2]))) for i, j in edges]
    return IsingInstance(n, draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)), triples)


@settings(max_examples=120)
@given(st.one_of(degenerate_instances(), sparse_instances()), st.data())
def test_engine_with_any_sets_matches_brute(inst, data):
    # every variable lands outside (0) or in T (1), T1 (2) or T2 (3), the
    # side roles first among the simplest draws; a T2 member coupled to T1
    # moves outside, so the side sets stay uncoupled
    roles = data.draw(st.lists(st.sampled_from([2, 3, 1, 0]), min_size=inst.n, max_size=inst.n))
    t = [v for v in range(inst.n) if roles[v] == 1]
    t1 = [v for v in range(inst.n) if roles[v] == 2]
    t2 = [v for v in range(inst.n)
          if roles[v] == 3 and not any(inst.coupling(v, u) for u in t1)]
    block_bits = data.draw(st.integers(1, 4))
    res = _solve_with_T(inst, Plan("combined", t, t1, t2), block_bits=block_bits)
    oracle = solve_brute(inst)
    assert (res.energy, res.best) == (oracle.energy, oracle.best)
    if not (t1 or t2):
        assert res.leaves_explored == compute_Z(inst, t)
    elif not t:
        # one completion of the empty T per outer row, times both side sets
        assert res.leaves_explored == res.outer_assignments * ((1 << len(t1)) + (1 << len(t2)))
    # each connected component of T1 and of T2 as a side set of its own
    engine = _ScanEngine(inst, t, block_bits, _components(inst, t1) + _components(inst, t2))
    parts = [engine.scan_block(start) for start in engine.split.starts]
    energy = min(part[0] for part in parts)
    rank = min(part[1] for part in parts if part[0] == energy)
    assert (energy, Assignment.from_rank(rank, inst.n)) == (oracle.energy, oracle.best)


def _components(inst, members):
    """The connected components of the couplings among ``members``."""
    left, out = set(members), []
    while left:
        comp = [min(left)]
        left.remove(comp[0])
        for u in comp:
            linked = sorted(v for v in left if inst.coupling(u, v))
            left.difference_update(linked)
            comp += linked
        out.append(comp)
    return out


def _chunk_cases():
    # (instance, T, T1, T2): T with members left free or at the boundary,
    # side sets whose bits interleave with T's
    yield gen_csse(8), (2, 4, 6), (1, 3), ()
    yield gen_csse(8), (0, 1, 2, 3, 4), (), ()
    yield IsingInstance(9, [0] * 9, [(i, j, 1) for i, j in combinations(range(6), 2)]), \
        (0, 2, 4), (1,), (6, 7)
    yield gen_multicopy(2, 4), (0, 1, 4, 5), (2,), (6,)
    yield random_instance(7, n=10, density=0.6), (1, 2, 3, 5, 8), (0,), ()
    yield gen_multicopy(3, 4), (8, 9), (0, 1, 2), (4, 5, 6)


@pytest.mark.parametrize("case", list(_chunk_cases()),
                         ids=["csse8-sides", "csse8", "k6", "m24", "r10", "m34-sides3"])
def test_tiny_chunks_change_nothing(case, monkeypatch):
    # completions, rows per plane and per side table, side rows per slab and
    # pairs per argmin piece one or two at a time: every chunk boundary of
    # the scan and of the tie resolution is crossed
    inst, t, t1, t2 = case
    ref = _solve_with_T(inst, Plan("combined", t, t1, t2))
    oracle = solve_brute(inst)
    assert (ref.energy, ref.best) == (oracle.energy, oracle.best)
    for chunk_cells in (1, 2):
        monkeypatch.setattr(solver_module, "_CHUNK_CELLS", chunk_cells)
        assert _solve_with_T(inst, Plan("combined", t, t1, t2)) == ref


def test_twelve_bit_side_sets():
    # multicopy 8x4: copies 0-2 and 3-5 are the side sets, two coupled
    # members of copy 6 are T, and 6 outer bits remain; every copy's
    # optimum ties six ways, and the lex-min is 0011 in each copy
    inst = gen_multicopy(8, 4)
    res = _solve_with_T(inst, Plan("combined", (24, 25), range(12), range(12, 24)))
    rank = int(res.best.bitstring(), 2)
    assert (res.energy, rank, res.leaves_explored) == (64, 0x33333333, 1310720)


@st.composite
def side_cases(draw):
    """(instance, T, T1, T2, block_bits): T1 of 1-3 connected components and
    T2 of 0-3, each of 1-4 members (singletons among them), up to 3
    members of T and up to 4 outer variables, every variable at a drawn
    index, so that the components interleave in lex order with T.  A path
    through each component keeps it connected, and no edge joins two
    components.  Weights are small, or zero fields under equal couplings
    (many tying side rows and fields v + d = 0), or one coupling near 2^61
    at T1 over unit couplings."""
    sizes = [draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)),
             draw(st.lists(st.integers(1, 4), max_size=3))]
    m, n_out = draw(st.integers(0, 3)), draw(st.integers(0, 4))
    n = sum(map(sum, sizes)) + m + n_out
    order = draw(st.permutations(range(n)))
    comps, at = [[], []], 0
    for k, side in enumerate(sizes):
        for size in side:
            comps[k].append(order[at:at + size])
            at += size
    t1, t2 = ([v for c in side for v in c] for side in comps)
    t = order[at:at + m]
    comp_of = {v: k for k, c in enumerate(comps[0] + comps[1]) for v in c}
    path = {tuple(sorted(p)) for c in comps[0] + comps[1] for p in zip(c, c[1:])}
    pairs = [(i, j) for i, j in combinations(range(n), 2)
             if comp_of.get(i, -1) == comp_of.get(j, -2) or not {i, j} <= comp_of.keys()]
    at_t1 = [p for p in pairs if set(p) & set(t1)]
    kind = draw(st.sampled_from(["random", "zero-field", "near-budget"]))
    if kind == "near-budget" and not at_t1:
        kind = "zero-field"
    if kind == "random":
        triples = [(i, j, draw(st.sampled_from([-3, -1, 1, 2]))) for i, j in pairs
                   if (i, j) in path or draw(st.booleans())]
        h = draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))
        inst = IsingInstance(n, h, triples, c0=draw(st.integers(-5, 5)))
    elif kind == "zero-field":
        w = draw(st.sampled_from([-1, 1]))
        inst = IsingInstance(n, [0] * n, [(i, j, w) for i, j in pairs
                                          if (i, j) in path or draw(st.booleans())])
    else:
        i, j = draw(st.sampled_from(at_t1))
        w = draw(st.integers(2**61 - 2**20, 2**61)) * draw(st.sampled_from([-1, 1]))
        triples = [(a, b, draw(st.sampled_from([-1, 1]))) for a, b in path if (a, b) != (i, j)]
        share = (INT64_MAX - 2 * abs(w) - 2 * len(triples)) // (n + 1)
        h = [draw(st.integers(-share, share)) for _ in range(n)]
        inst = IsingInstance(n, h, triples + [(i, j, w)], c0=draw(st.integers(-share, share)))
    return inst, t, t1, t2, draw(st.integers(1, n_out + 1))


def _whole_side_set(jf, side):
    """Spins, own energies and lex keys of every row of ``side``, enumerated whole."""
    members = sorted(side)
    spins = np.array(list(product((-1, 1), repeat=len(members))), dtype=np.int64)
    own = ((spins @ jf[np.ix_(members, members)]) * spins).sum(axis=1) // 2
    return members, spins, own, (spins > 0).astype(np.int64) @ _key_weights(members, len(jf))


@settings(max_examples=120)
@given(side_cases(), st.data())
def test_side_minima_match_the_3d_reference(case, data):
    # per completion chunk: each component's minima and its first optimal
    # keys at every (row, completion) pair against the 3-D product over
    # its table, and their sum over the components against the 3-D product
    # over each of T1 and T2 enumerated whole; slabs of one side row, of
    # three planes and of every side row, and argmin pieces of one pair or
    # of all pairs
    inst, t, t1, t2, block_bits = case
    chunk_cells = data.draw(st.sampled_from([1, 1 << 22]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver_module, "_CHUNK_CELLS", chunk_cells)
        engine = _ScanEngine(inst, t, block_bits, (t1, t2))
        m = engine.m
        jf = reference_couplings(inst)
        wholes = [_whole_side_set(jf, side) for side in (t1, t2) if side]
        # one table per connected component, one-member ones included: the
        # tables cover T1 + T2 once, each is connected and no coupling joins two
        comps = [engine.inner[side.cols] for side in engine.sides]
        assert sorted(v for c in comps for v in c) == sorted(t1 + t2)
        label = {v: k for k, c in enumerate(comps) for v in c}
        assert all(label[i] == label[j] for i in label for j in label if jf[i, j])
        for c, side in zip(comps, engine.sides):
            reached = {c[0]}
            for _ in c:
                reached |= {v for v in c if any(jf[v, u] for u in reached)}
            assert reached == set(c) and side.width == 1 << len(c)
        for side in engine.sides:
            np.testing.assert_array_equal(side.j, jf[np.ix_(engine.t, engine.inner[side.cols])])
            assert side.j.dtype == inst.scan_dtype
        for start in engine.split.starts:
            fields = engine.split.fields(start, engine.inner).T
            fixed = np.array(data.draw(st.lists(st.booleans(), min_size=m, max_size=m)), dtype=bool)
            x, f = np.flatnonzero(fixed), np.flatnonzero(~fixed)
            s_x = np.where(fields[:, x] > 0, -1, 1)
            _, g, a = engine._fixed_part(fields, x, f)
            for chunk in engine._completions(f):
                s, own, b = chunk
                assert len(a) == len(b) == len(engine.sides)
                want = g @ s.T + own
                rr, cc = (part.ravel() for part in np.indices(want.shape))
                total = np.zeros(want.shape, dtype=np.int64)
                keys = np.zeros((rr.size, engine.w_t.shape[1]), dtype=np.int64)
                for side, at, bt in zip(engine.sides, a, b):
                    v = fields[:, side.cols] + s_x @ side.j[x]
                    d = s @ side.j[f]
                    ref_min, ref_arg = reference_side_minima(v, d, side.spins, side.own)
                    ref_key = side.keys[ref_arg.ravel()]
                    for slab_cells in (1, 3 * want.size, 1 << 40):
                        mp.setattr(solver_module, "_CHUNK_CELLS", slab_cells)
                        e = np.zeros(want.shape, dtype=inst.scan_dtype)
                        side.add_minima(at, bt, e)
                        np.testing.assert_array_equal(e, ref_min)
                    mp.setattr(solver_module, "_CHUNK_CELLS", chunk_cells)
                    np.testing.assert_array_equal(side.first_keys(at, bt, rr, cc), ref_key)
                    total += ref_min
                    keys += ref_key
                # the sum over the components is the minimum over each side set
                # whole, and the sum of their first keys its first optimal key
                whole_min = np.zeros_like(total)
                whole_key = np.zeros_like(keys)
                for members, spins, own_w, keys_w in wholes:
                    cols = [engine.inner.index(v) for v in members]
                    v = fields[:, cols] + s_x @ jf[np.ix_(engine.t, members)][x]
                    part_min, part_arg = reference_side_minima(
                        v, s @ jf[np.ix_(engine.t, members)][f], spins, own_w)
                    whole_min += part_min
                    whole_key += keys_w[part_arg.ravel()]
                np.testing.assert_array_equal(total, whole_min)
                np.testing.assert_array_equal(keys, whole_key)
                np.testing.assert_array_equal(engine._energies(g, a, chunk), want + whole_min)


def test_singletons_at_a_zero_field_take_minus_one():
    # a one-member component is a table of two side rows, -1 first, with
    # own energy 0; at v + d = 0 both cost 0 and the first in rank order
    # is -1, so the member's key bit stays clear; it is set at v + d = -1 only
    inst = IsingInstance(2, [0, 0], [(0, 1, 1)])
    side, = _ScanEngine(inst, (0,), 1, ((1,),)).sides
    assert isinstance(side, _SideTable) and side.width == 2
    np.testing.assert_array_equal(side.spins, [[-1], [1]])
    np.testing.assert_array_equal(side.own, [0, 0])
    v = np.array([[0], [-1], [2]])  # three rows
    d = np.array([[0], [1], [-1]])  # three completions
    a, b = side.rows(v), side.completions(d)
    e = np.zeros((3, 3), dtype=np.int64)
    side.add_minima(a, b, e)
    np.testing.assert_array_equal(e, -np.abs(v + d.T))
    rr, cc = np.array([0, 1, 1, 2, 2]), np.array([0, 1, 0, 2, 1])  # sums 0, 0, -1, 1, 2
    np.testing.assert_array_equal(side.first_keys(a, b, rr, cc).ravel(), [0, 0, 1, 0, 0])


def _inner_energy(jf, sets, f, s_t):
    """Energy of T at spins ``s_t`` and of the best spins of each side set,
    given fields ``f`` on T, T1 and T2; every side row is enumerated."""
    t, t1, t2 = sets
    e = int(f[:len(t)] @ s_t) + int(s_t @ jf[np.ix_(t, t)] @ s_t) // 2
    for side, v in ((t1, f[len(t):len(t) + len(t1)]), (t2, f[len(t) + len(t1):])):
        spins = np.array(list(product((-1, 1), repeat=len(side))), dtype=np.int64)
        own = ((spins @ jf[np.ix_(side, side)]) * spins).sum(axis=1) // 2
        e += int((spins @ (v + s_t @ jf[np.ix_(t, side)]) + own).min())
    return e


@settings(max_examples=60, deadline=None)
@given(st.one_of(side_cases(), engine_cases()), st.data())
def test_planes_walk_each_completion_once(case, data):
    # field rows of real blocks that repeat, in shuffled order, under drawn
    # enum masks: a plane enumerates a set f that covers each of its rows'
    # masks and fixes the rest x, no row enumerates a member outside f,
    # each row gets every completion of f exactly once, each plane cell is
    # that completion's energy with x set against its fields, and _minima
    # is the optimum over every spin of T and of both side sets
    inst, t, t1, t2, block_bits = case
    engine = _ScanEngine(inst, t, block_bits, (t1, t2))
    m = engine.m
    sets = (list(engine.t), sorted(t1), sorted(t2))
    jf = reference_couplings(inst)
    # the engine's columns of T, T1 and T2, in that order
    cols = [engine.inner.index(v) for v in sets[0] + sets[1] + sets[2]]
    pool = np.concatenate([engine.split.fields(start, engine.inner).T
                           for start in engine.split.starts])
    distinct = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=4,
                                  unique=True))
    fields = pool[data.draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=12))]
    enum = np.array(data.draw(st.lists(st.booleans(), min_size=len(fields) * m,
                                       max_size=len(fields) * m)), dtype=bool)
    enum = enum.reshape(len(fields), m)
    energy = {}

    def reference(r, s_t):
        key = (r, tuple(s_t))
        if key not in energy:
            energy[key] = _inner_energy(jf, sets, fields[r, cols].astype(np.int64), s_t)
        return energy[key]

    want = [min(reference(r, np.array(s_t, dtype=np.int64)) for s_t in product((-1, 1), repeat=m))
            for r in range(len(fields))]
    for chunk_cells in (1, 7, 1 << 16):
        seen = [[] for _ in fields]
        enumerated = [None] * len(fields)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver_module, "_CHUNK_CELLS", chunk_cells)
            for rows, e_fix, f, x, chunk, _, e in engine._planes(fields, enum):
                assert sorted(np.concatenate([f, x])) == list(range(m))
                assert chunk[0].shape[1] == f.size
                for i, r in enumerate(rows):
                    assert set(np.flatnonzero(enum[r])) <= set(f)
                    assert enumerated[r] in (None, list(f))
                    enumerated[r] = list(f)
                    for c, spins in enumerate(chunk[0]):
                        seen[r].append(tuple(spins))
                        s_t = np.where(fields[r, :m] > 0, -1, 1).astype(np.int64)
                        s_t[f] = spins
                        assert e_fix[i] + e[i, c] == reference(r, s_t)
            assert list(engine._minima(fields)) == want
        for r, completions in enumerate(seen):
            assert sorted(completions) == sorted(product((-1, 1), repeat=len(enumerated[r])))


def test_completion_enumeration_refuses_more_than_26_free_members():
    # a ring with zero fields: every member of T, all 27 variables, is free
    ring = IsingInstance(27, [0] * 27, [(i, (i + 1) % 27, 1) for i in range(27)])
    with pytest.raises(EnumerationLimitError, match="needs 27 bits"):
        _solve_with_T(ring, Plan("effective", range(27)))


def test_side_components_wider_than_the_cap_are_refused():
    # the cap bounds each connected component of a side set: a path of 21
    # members is refused, and 21 uncoupled members are 21 one-member tables, solved
    path = IsingInstance(21, [1] * 21, [(i, i + 1, 1) for i in range(20)])
    with pytest.raises(EnumerationLimitError, match="side-set components too large"):
        _solve_with_T(path, Plan("combined", (), range(21)))
    edgeless = IsingInstance(21, [1] * 21)
    res = _solve_with_T(edgeless, Plan("combined", (), range(21)))
    assert (res.energy, res.best.bitstring()) == (-21, "0" * 21)
    # one outer row, and the paper's 2^21 + 2^0 side rows
    assert (res.outer_assignments, res.leaves_explored) == (1, (1 << 21) + 1)


def test_many_singletons_keep_their_tables_within_the_cell_budget(monkeypatch):
    # T = {0, 1}, outer {42, 43} and 40 uncoupled side members, each coupled
    # to T and the outer variables, some at a zero field: 40 one-member
    # tables of two side rows each, and at 64 cells every plane, A and B
    # table stays within the budget
    n, t, side = 44, (0, 1), range(2, 42)
    triples = [(k, c, (-1) ** (k + c) * (1 + (k * c) % 3)) for k in side for c in (0, 1, 42, 43)
               if (k + c) % 5]
    inst = IsingInstance(n, [k % 3 - 1 for k in range(n)], triples + [(0, 1, 2)])
    # each other assignment, its singletons against their fields (-1 at zero)
    found = []
    for bits in product((-1, 1), repeat=4):
        s = np.zeros(n, dtype=np.int64)
        s[[0, 1, 42, 43]] = bits
        for k in side:
            u = inst.h[k] + sum(w * s[c] for a, c, w in triples if a == k)
            s[k] = 1 if u < 0 else -1
        a = Assignment.from_spins(s.tolist())
        found.append((inst.energy(a), a.bitstring()))
    ref = _solve_with_T(inst, Plan("combined", t, side))
    assert (ref.energy, ref.best.bitstring()) == min(found)
    monkeypatch.setattr(solver_module, "_CHUNK_CELLS", 64)
    engine = _ScanEngine(inst, t, 1, (side,))
    assert [table.width for table in engine.sides] == [2] * 40
    for start in engine.split.starts:
        fields = engine.split.fields(start, engine.inner).T
        for *_, chunk, a, e in engine._planes(fields, np.abs(fields[:, :2]) <= engine.h_max):
            assert max(x.size for x in [e] + a + chunk[2]) <= 64
    assert _solve_with_T(inst, Plan("combined", t, side)) == ref


@st.composite
def z_cases(draw):
    """(instance, T, block_bits) for the leaf-count audit: small random
    instances, near-budget engine draws, and one coupling near INT64_MAX // 2
    between an outer variable and a member of T."""
    kind = draw(st.sampled_from(["random", "near-budget", "max-step"]))
    block_bits = draw(st.integers(1, 4))
    if kind == "near-budget":
        inst = draw(engine_cases(kinds=("near-budget",)))[0]
    else:
        n = draw(st.integers(0, 14) if kind == "random" else st.integers(2, 14))
        pairs = list(combinations(range(n), 2))
        triples = [(i, j, draw(st.sampled_from([-3, -1, 1, 2]))) for i, j in pairs
                   if draw(st.booleans())]
        spare = INT64_MAX
        if kind == "max-step":
            outer, member = draw(st.permutations(range(n)))[:2]
            triples = [(i, j, w) for i, j, w in triples if {i, j} != {outer, member}]
            w = draw(st.integers(INT64_MAX // 2 - 2**20, INT64_MAX // 2 - 2**10))
            triples.append((outer, member, w * draw(st.sampled_from([-1, 1]))))
            spare = INT64_MAX - 2 * sum(abs(w) for _, _, w in triples)
        share = min(5, spare // (n + 1))
        inst = IsingInstance(n, draw(st.lists(st.integers(-share, share), min_size=n, max_size=n)),
                             triples)
    which = draw(st.sampled_from(["empty", "all", "random"]))
    if which == "empty":
        t = []
    elif which == "all":
        t = list(range(inst.n))
    else:
        t = [v for v in range(inst.n) if draw(st.booleans())]
    if kind == "max-step" and which != "all":
        t = sorted(set(t) - {outer} | {member})
    return inst, t, block_bits


@settings(max_examples=200)
@given(z_cases())
def test_compute_z_matches_the_rank_block_reference(case):
    # the Gray walk against the spin_block matmul it replaced, with several
    # high Gray steps (block_bits 1..4) and steps of 2|J| up to INT64_MAX - 1
    inst, t, block_bits = case
    assert compute_Z(inst, t, block_bits) == reference_compute_Z(inst, t, block_bits)
    assert compute_Z(inst, t) == reference_compute_Z(inst, t, block_bits)


def test_compute_z_uses_no_scan_kernel(monkeypatch):
    # the audit stays independent of the split-half scanner it checks
    def refuse(*args, **kwargs):
        raise AssertionError("compute_Z called a scan kernel")

    inst = gen_multicopy(3, 4)
    t = [v for v in range(inst.n) if v % 4 < 2]
    want = reference_compute_Z(inst, t)
    monkeypatch.setattr(solver_module, "SplitScan", refuse)
    monkeypatch.setattr(solver_module, "spin_block", refuse)
    assert compute_Z(inst, t, block_bits=3) == want


@pytest.mark.parametrize("inst", [gen_multicopy(7, 4), gen_regular(36, 3, seed=1)],
                         ids=["multicopy7x4", "regular36"])
def test_leaf_counts_match_the_audit_at_scale(inst):
    t, _ = _largest_color_class(inst.degree_graph())
    assert solve_coloring_baseline(inst).leaves_explored == compute_Z(inst, t)
    t_auto = plan_effective(inst, 0).t
    assert solve_effective(inst).leaves_explored == compute_Z(inst, t_auto)


def test_leaf_count_matches_the_audit_with_coupled_members():
    # two coupled members per 4-clique: each member is free on some rows
    inst = gen_multicopy(7, 4)
    t = [v for v in range(inst.n) if v % 4 < 2]
    res = _solve_with_T(inst, Plan("effective", t))
    assert res.leaves_explored == compute_Z(inst, t) == 10_000_000


def _block_oracle(inst):
    """(energy, lex-min optimum) from one plain int64 block of every assignment."""
    e = block_energies(inst, spin_block(inst.n, 0, 1 << inst.n))
    rank = int(np.argmin(e))
    best = Assignment.from_rank(rank, inst.n)
    assert inst.energy(best) == int(e[rank])
    return int(e[rank]), best


@settings(max_examples=60)
@given(engine_cases(kinds=("near-budget",)), st.integers(0, 3))
def test_every_solver_is_exact_at_the_int64_budget(case, seed):
    # one coupling near 2^61 takes 2^62 of the budget; fields share the rest
    inst = case[0]
    want = _block_oracle(inst)
    results = {
        "brute": solve_brute(inst),
        "coloring": solve_coloring_baseline(inst),
        "effective": solve_effective(inst, seed=seed),
        "avg-degree": solve_avg_degree(inst, seed=seed),
        "combined": solve_combined(inst, seed=seed),
    }
    for method, res in results.items():
        assert (res.energy, res.best) == want, method
    t, _ = _largest_color_class(inst.degree_graph())
    assert results["coloring"].leaves_explored == compute_Z(inst, t)
    t_auto = plan_effective(inst, seed).t
    assert results["effective"].leaves_explored == compute_Z(inst, t_auto)


@st.composite
def int32_bound_cases(draw):
    """(instance, block_bits) whose budget lies within 3 of 2^15 - 1 or of
    2^31 - 1, on either side.

    A random instance is scaled so that its fields and couplings take all,
    half or a small part of the budget, and c0 takes the rest.
    """
    n = draw(st.integers(2, 9))
    inst = random_instance(draw(st.integers(0, 10_000)), n=n)
    base = sum(abs(x) for x in inst.h) + 2 * sum(abs(w) for w in inst.couplings.values())
    budget = draw(st.sampled_from([INT16_MAX, INT32_MAX])) + draw(st.integers(-3, 3))
    scale = max(1, budget // max(1, base) // draw(st.sampled_from([1, 2, 1000])))
    c0 = (budget - scale * base) * draw(st.sampled_from([-1, 1]))
    scaled = IsingInstance(n, [scale * x for x in inst.h],
                           [(i, j, scale * w) for (i, j), w in inst.couplings.items()], c0=c0)
    return scaled, draw(st.integers(1, n))


def _force_int64(mp):
    mp.setattr(IsingInstance, "scan_dtype", property(lambda self: np.dtype(np.int64)))


def _landscape(inst, block_bits):
    """compute_Z for the coloring class, count-minima at k = 1, 2 and basins at k = 1."""
    t, _ = _largest_color_class(inst.degree_graph())
    return (compute_Z(inst, t, block_bits),
            *(enumerate_k_minima(inst, k, block_bits) for k in (1, 2)),
            k_basins(inst, 1, block_bits=block_bits))


@settings(max_examples=60)
@given(int32_bound_cases(), st.data())
def test_int32_scan_matches_the_forced_int64_scan(case, data):
    # budgets at either side of 2^15 - 1 (int16 and int32 tables) and of
    # 2^31 - 1 (int32 and int64): every scan, solve, count and audit the
    # narrow dtype runs equals the one forced to int64
    inst, block_bits = case
    budget = abs(inst.c0) + sum(abs(x) for x in inst.h) + 2 * sum(
        abs(w) for w in inst.couplings.values())
    assert inst.scan_dtype == (np.int16 if budget <= INT16_MAX else
                               np.int32 if budget <= INT32_MAX else np.int64)
    sub = data.draw(st.permutations(range(inst.n)))[: data.draw(st.integers(1, inst.n))]
    cols = data.draw(st.lists(st.integers(0, inst.n - 1), unique=True))
    strict, flipped = data.draw(st.booleans()), data.draw(st.booleans())
    solvers = {
        "brute": solve_brute,
        "coloring": solve_coloring_baseline,
        "effective": solve_effective,
        "avg-degree": solve_avg_degree,
        "combined": solve_combined,
    }
    narrow = [SplitScan(inst, block_bits), SplitScan(inst, block_bits, sub, cols)]
    solved = {m: solve(inst, block_bits=block_bits) for m, solve in solvers.items()}
    counted = _landscape(inst, block_bits)
    with pytest.MonkeyPatch.context() as mp:
        _force_int64(mp)
        wide = [SplitScan(inst, block_bits), SplitScan(inst, block_bits, sub, cols)]
        for method, solve in solvers.items():
            assert solve(inst, block_bits=block_bits) == solved[method], method
        assert _landscape(inst, block_bits) == counted
    for a, b in zip(narrow, wide):
        assert a.dtype == inst.scan_dtype and b.dtype == np.int64
        for start in a.starts:
            np.testing.assert_array_equal(a.energies(start), b.energies(start))
            np.testing.assert_array_equal(a.fields(start, cols), b.fields(start, cols))
    full_a, full_b = narrow[0], wide[0]
    for start in full_a.starts:
        np.testing.assert_array_equal(full_a.fields(start, range(inst.n)),
                                      full_b.fields(start, range(inst.n)))
        np.testing.assert_array_equal(
            _flip_survivors(full_a, start, *every_row(inst, full_a, range(inst.n)), strict),
            _flip_survivors(full_b, start, *every_row(inst, full_b, range(inst.n)), strict))
    # the filter with T a color class, through the member spins
    narrow_ranks = member_filter_ranks(inst, block_bits, strict, flipped)
    with pytest.MonkeyPatch.context() as mp:
        _force_int64(mp)
        np.testing.assert_array_equal(member_filter_ranks(inst, block_bits, strict, flipped),
                                      narrow_ranks)
    want = _block_oracle(inst)
    for method, res in solved.items():
        assert (res.energy, res.best) == want, method


def _keep_every_row(self, lb, e_out, fields):
    return None


def _at_budget(inst, budget):
    """``inst`` with its fields and couplings scaled up and c0 set so that
    |c0| + sum |h| + 2 sum |J| is exactly ``budget``; optima are unchanged."""
    base = sum(abs(x) for x in inst.h) + 2 * sum(abs(w) for w in inst.couplings.values())
    scale = max(1, budget // max(1, base))
    return IsingInstance(inst.n, [scale * x for x in inst.h],
                         [(i, j, scale * w) for (i, j), w in inst.couplings.items()],
                         c0=budget - scale * base)


@st.composite
def pruning_cases(draw):
    """(instance, block_bits, (T, T1, T2)) for the pruning bound.

    "aligned" draws have one field sign and couplings that the greedy
    completion satisfies, so at the optimum the bound meets the incumbent
    (LB == UB) and that row must be kept.  The explicit sets put the most
    significant inner variable in T1, ahead of every member of T.  Budgets
    sit at 2^31 - 1 (int32 scan) or 2^31 (int64), and blocks of 2 to 16
    rows give multi-block scans.
    """
    kind = draw(st.sampled_from(["aligned", "random", "degenerate"]))
    if kind == "degenerate":
        inst = draw(degenerate_instances())
    else:
        n = draw(st.integers(3, 10))
        pairs = [p for p in combinations(range(n), 2) if draw(st.booleans())]
        if kind == "aligned":
            sign = draw(st.sampled_from([-1, 1]))
            h = [sign * draw(st.integers(0, 3)) for _ in range(n)]
            triples = [(i, j, -draw(st.integers(1, 3))) for i, j in pairs]
        else:
            h = draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
            triples = [(i, j, draw(st.sampled_from([-3, -1, 1, 2]))) for i, j in pairs]
        inst = IsingInstance(n, h, triples)
    budget = draw(st.sampled_from([None, INT32_MAX, INT32_MAX + 1]))
    if budget is not None:
        inst = _at_budget(inst, budget)
    inner = sorted(draw(st.permutations(range(inst.n)))[:draw(st.integers(1, inst.n))])
    roles = draw(st.lists(st.integers(0, 2), min_size=len(inner), max_size=len(inner)))
    t1 = [v for v, r in zip(inner, roles) if r == 1 or v == inner[0]]
    t = [v for v, r in zip(inner, roles) if r == 0 and v != inner[0]]
    t2 = [v for v, r in zip(inner, roles)
          if r == 2 and v != inner[0] and not any(inst.coupling(v, u) for u in t1)]
    return inst, draw(st.integers(1, 4)), (t, t1, t2)


@settings(max_examples=60)
@given(pruning_cases(), st.integers(0, 3))
def test_pruning_changes_no_solve_result(case, seed):
    # every method, and a scan over drawn sets, with the bound and with
    # the bound patched to keep every row: the same energy, assignment,
    # leaf and outer counts and counters
    inst, block_bits, (t, t1, t2) = case
    solvers = {
        "coloring": lambda: solve_coloring_baseline(inst, block_bits=block_bits),
        "effective": lambda: solve_effective(inst, seed=seed, block_bits=block_bits),
        "avg-degree": lambda: solve_avg_degree(inst, seed=seed, block_bits=block_bits),
        "combined": lambda: solve_combined(inst, seed=seed, block_bits=block_bits),
        "sets": lambda: _solve_with_T(inst, Plan("combined", t, t1, t2), block_bits),
    }
    pruned = {method: solve() for method, solve in solvers.items()}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_ScanEngine, "_survivors", _keep_every_row)
        for method, solve in solvers.items():
            assert solve() == pruned[method], method
    oracle = solve_brute(inst)
    assert (pruned["sets"].energy, pruned["sets"].best) == (oracle.energy, oracle.best)


def test_pruning_skips_inner_solves():
    # effective on random n = 20 at density 0.8 (the benchmark's d20, seed
    # 1) branches on a certified T with couplings inside: every one of its
    # 32,768 outer rows is a class of its own, and the bound leaves a few
    # dozen of them to solve
    inst = gen_random(20, 0.8, seed=1)
    seen = []
    minima = _ScanEngine._minima

    def recording(self, fields):
        seen.append(len(fields))
        return minima(self, fields)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_ScanEngine, "_minima", recording)
        pruned = solve_effective(inst, seed=1)
        solved = sum(seen)
        seen.clear()
        mp.setattr(_ScanEngine, "_survivors", _keep_every_row)
        assert solve_effective(inst, seed=1) == pruned
    assert pruned.method == "effective-field"
    assert 0 < solved < sum(seen) == pruned.outer_assignments


def _hub_clique():
    # hub plus one clique, as in TestCombined.test_outlier_split
    triples = [(i, j, 1) for i, j in combinations(range(1, 5), 2)]
    triples += [(0, i, 3) for i in range(1, 9)]
    return IsingInstance(9, [1] * 9, triples)


_HUB5 = IsingInstance(5, [1, 0, 0, 0, 0], [(0, 1, 2), (0, 2, 2), (0, 3, 2), (0, 4, 2)])
_ENGINE_CASES = [
    *[(gen_csse(18), solve_effective, {"seed": s}, "effective-field") for s in range(4)],
    *[(gen_csse(18), solve_avg_degree, {"seed": s}, "avg-degree:effective-field")
      for s in range(4)],
    (gen_multicopy(3, 4), solve_coloring_baseline, {}, "coloring"),
    (gen_multicopy(3, 4), solve_effective, {}, "effective-field:coloring-fallback"),
    (_HUB5, solve_avg_degree, {}, "avg-degree:effective-field:coloring-fallback"),
    (_HUB5, solve_combined, {}, "combined:effective-fallback"),
    (gen_multicopy(5, 4), solve_combined, {}, "combined"),
    (_hub_clique(), solve_combined, {"degree_dichotomy_factor": 1.5}, "combined:outlier-split"),
]


@pytest.mark.parametrize("inst, solve, kwargs, engine", _ENGINE_CASES,
                         ids=["csse18-effective-s%d" % s for s in range(4)]
                         + ["csse18-avg-s%d" % s for s in range(4)]
                         + ["m34-coloring", "m34-effective", "hub5-avg", "hub5-combined",
                            "m54-combined", "hub-clique-combined"])
def test_every_engine_string(inst, solve, kwargs, engine):
    # the eight engine values, each on an instance that takes its path
    assert solve(inst, **kwargs).method == engine


@settings(max_examples=100)
@given(st.one_of(degenerate_instances(),
                 st.integers(0, 10 ** 6).map(lambda s: random_instance(s)),
                 st.tuples(st.integers(0, 10 ** 6), st.integers(2, 13)).map(
                     lambda a: random_instance(a[0], n=a[1], density=0.5))),
       st.integers(0, 3), st.floats(0.5, 2.0))
def test_leaves_match_the_audit_for_every_plan_without_side_sets(inst, seed, factor):
    # avg-degree scans T mapped back from the remainder with W among the
    # outer bits, and combined its fallback or its outlier split: each
    # plan without side sets counts compute_Z of its T as its leaves
    scans = {
        "avg-degree": (plan_avg_degree(inst, seed, factor),
                       solve_avg_degree(inst, seed=seed, degree_factor=factor, block_bits=2)),
        "combined": (plan_combined(inst, None, 0.5, seed, factor),
                     solve_combined(inst, seed=seed, block_bits=2,
                                    degree_dichotomy_factor=factor)),
    }
    for method, (plan, res) in scans.items():
        assert res.counters["t_size"] == len(plan.t), method
        assert res.counters["enumerated_vars"] == len(plan.wbar), method
        if not (plan.t1 or plan.t2):
            assert res.leaves_explored == compute_Z(inst, plan.t), method


# -- solving by parts ------------------------------------------------------------


def _reference_part_count(inst):
    """Components of two or more variables, plus one for the isolated ones,
    by union-find over the couplings."""
    root = list(range(inst.n))

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for i, j in inst.couplings:
        root[find(i)] = find(j)
    coupled = {v for edge in inst.couplings for v in edge}
    return len({find(v) for v in coupled}) + (len(coupled) < inst.n)


def test_instance_parts_number_each_part_in_ascending_order():
    # components {1, 4, 5} and {2, 3}, isolated 0 and 6
    inst = IsingInstance(7, [1, -2, 3, -4, 5, 0, 2],
                         [(1, 4, 2), (4, 5, -1), (2, 3, 3)], c0=9)
    parts = instance_parts(inst)
    assert [keep for _, keep in parts] == [(0, 6), (1, 4, 5), (2, 3)]
    assert [(p.n, p.c0, p.h, p.couplings) for p, _ in parts] == [
        (2, 0, (1, 2), {}),
        (3, 0, (-2, 5, 0), {(0, 1): 2, (1, 2): -1}),
        (2, 0, (3, -4), {(0, 1): 3}),
    ]


@pytest.mark.parametrize("inst", [gen_csse(6), IsingInstance(5, [1, 0, -1, 2, 0]),
                                  IsingInstance(0, [], c0=3)], ids=["connected", "edgeless", "empty"])
def test_one_part_is_the_instance_itself(inst):
    (part, keep), = instance_parts(inst)
    assert part is inst and keep == tuple(range(inst.n))


@st.composite
def joined_instances(draw):
    """Two to four random instances of weights 1 and 0-3 isolated variables
    (n <= 16), their variables shuffled together.  Instances of 6 or more
    variables often get side sets under ``combined``."""
    sizes = draw(st.lists(st.integers(1, 7), min_size=2, max_size=4).filter(lambda s: sum(s) <= 13))
    alone = draw(st.integers(0, 3))
    n = sum(sizes) + alone
    perm = draw(st.permutations(range(n)))
    h = [draw(st.integers(-1, 1)) for _ in range(n)]
    triples, c0, at = [], 0, 0
    for size in sizes:
        sub = random_instance(draw(st.integers(0, 10 ** 6)), n=size, wmax=1)
        place = perm[at:at + size]
        at += size
        c0 += sub.c0
        for k, v in enumerate(place):
            h[v] = sub.h[k]
        triples += [(place[i], place[j], w) for i, j, w in sub.edges()]
    return IsingInstance(n, h, triples, c0=c0)


_PART_SOLVERS = {
    "coloring": lambda inst, seed: solve_coloring_baseline(inst, block_bits=2),
    "effective": lambda inst, seed: solve_effective(inst, seed=seed, block_bits=2),
    "avg-degree": lambda inst, seed: solve_avg_degree(inst, seed=seed, block_bits=2),
    "combined": lambda inst, seed: solve_combined(inst, seed=seed, block_bits=2),
}


@settings(max_examples=80, deadline=None)
@given(joined_instances(), st.integers(0, 3))
def test_joined_parts_match_brute_force(inst, seed):
    oracle = solve_brute(inst)
    parts = instance_parts(inst)
    assert len(parts) == max(1, _reference_part_count(inst))
    for method, solve in _PART_SOLVERS.items():
        res = solve_by_parts(inst, lambda part: solve(part, seed))
        assert (res.energy, res.best) == (oracle.energy, oracle.best), method
        if len(parts) == 1:
            assert res == solve(inst, seed), method
            assert "components" not in res.counters, method
        else:
            assert res.counters["components"] == len(parts), method
        if method == "effective":
            z = sum(compute_Z(part, plan_effective(part, seed).t) for part, _ in parts)
            assert res.leaves_explored == z


@st.composite
def copied_part_instances(draw):
    """Two to four copies of one random part, up to two distinct random parts
    and 0-3 isolated variables (n <= 16), their variables shuffled together.
    Each copy keeps its variables in the part's order, so the copies come
    out of :func:`instance_parts` as identical parts."""
    copies = draw(st.integers(2, 4))
    size = draw(st.integers(2, 13 // copies))
    room = 13 - copies * size
    others = draw(st.lists(st.integers(1, 5), max_size=2).filter(lambda s: sum(s) <= room))
    base = random_instance(draw(st.integers(0, 10 ** 6)), n=size, wmax=1)
    subs = [base] * copies + [random_instance(draw(st.integers(0, 10 ** 6)), n=k, wmax=1)
                              for k in others]
    n = sum(sub.n for sub in subs) + draw(st.integers(0, 3))
    perm = draw(st.permutations(range(n)))
    h = [draw(st.integers(-1, 1)) for _ in range(n)]
    triples, c0, at = [], 0, 0
    for sub in subs:
        place = sorted(perm[at:at + sub.n])
        at += sub.n
        c0 += sub.c0
        for k, v in enumerate(place):
            h[v] = sub.h[k]
        triples += [(place[i], place[j], w) for i, j, w in sub.edges()]
    return IsingInstance(n, h, triples, c0=c0)


def _part_data(part):
    return part.n, part.h, tuple(sorted(part.couplings.items()))


@settings(max_examples=60, deadline=None)
@given(copied_part_instances(), st.integers(0, 3))
def test_identical_parts_are_solved_once(inst, seed):
    oracle = solve_brute(inst)
    parts = instance_parts(inst)
    z = sum(compute_Z(part, plan_effective(part, seed).t) for part, _ in parts)
    for method, solve in _PART_SOLVERS.items():
        calls, memo = {}, {}

        def counted(part):
            key = _part_data(part)
            calls[key] = calls.get(key, 0) + 1
            memo[key] = solve(part, seed)
            return memo[key]

        res = solve_by_parts(inst, counted)
        assert (res.energy, res.best) == (oracle.energy, oracle.best), method
        assert calls == dict.fromkeys({_part_data(part) for part, _ in parts}, 1), method
        # a part's result depends only on the part, the seed and the options
        for part, _ in parts:
            assert solve(part, seed) == memo[_part_data(part)], method
        if method == "effective":
            assert res.leaves_explored == z

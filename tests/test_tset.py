import dataclasses
import math
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    find_T_deterministic,
    good_set_nonsparse,
    random_instance,
    reference_check_T,
    reference_couplings,
    reference_find_T_randomized,
)
import spinscape.tset as tset_module
from spinscape.generators import gen_csse, gen_multicopy, gen_random, gen_regular
from spinscape.instance import IsingInstance
from spinscape.tset import (
    ConstrainedContext,
    TParams,
    check_T,
    find_T1T2,
    find_T_randomized,
    side_set_target,
)


def edgeless(n, field=1):
    return IsingInstance(n, [field] * n)


def triangle():
    return IsingInstance(3, [0, 0, 0], [(0, 1, 1), (0, 2, 1), (1, 2, 1)])


class TestParams:
    def test_derived_thresholds(self):
        p = TParams(d=7, epsilon=0.25)
        assert p.internal_degree_cap == pytest.approx(173.25)
        assert p.strong_edge_quota == 1  # floor(4/99) = 0, clamped to 1
        assert p.load_cap == 693

    def test_quota_unclamped_at_scale(self):
        # epsilon small enough that the floor is positive on its own
        p = TParams(d=2000, epsilon=1.0 / 500)
        assert p.strong_edge_quota == math.floor(500 / 99)

    def test_for_instance_defaults(self):
        p = TParams.for_instance(gen_csse(8))
        assert p.d == 7
        assert p.epsilon == pytest.approx(math.log2(7) / 7)
        with pytest.raises(ValueError):
            TParams.for_instance(edgeless(4))

    def test_validation(self):
        with pytest.raises(ValueError):
            TParams(d=0, epsilon=0.5)
        with pytest.raises(ValueError):
            TParams(d=3, epsilon=0.0)


class TestCheckT:
    def test_all_pairs_frozen_example(self):
        inst = gen_csse(8)
        cert = check_T(inst, range(5), TParams(d=7, epsilon=0.25))
        assert cert.conditions_ok and cert.ok
        assert dict(cert.checks) == {
            "internal_degree": True,
            "strong_edge_count": True,
            "strong_edge_load": True,
        }
        # greedy tie-break picks the lowest outside index for every member
        assert dict(cert.strong_edges) == {i: (5,) for i in range(5)}

    def test_whole_vertex_set_fails(self):
        inst = gen_csse(6)
        cert = check_T(inst, range(6), TParams.for_instance(inst))
        assert not dict(cert.checks)["strong_edge_count"]
        assert not cert.ok

    def test_empty_set_is_vacuous_but_not_ok(self):
        cert = check_T(gen_csse(4), (), TParams(d=3, epsilon=0.5))
        assert cert.conditions_ok
        assert not cert.ok

    def test_exempt_members_without_internal_neighbors(self):
        inst = edgeless(5)
        cert = check_T(inst, (0, 2, 4), TParams(d=2, epsilon=0.5))
        assert cert.conditions_ok
        assert cert.strong_edges == ()

    def test_internal_degree_violation(self):
        inst = gen_csse(8)
        # epsilon tiny: the internal degree cap drops below |T| - 1
        cert = check_T(inst, range(5), TParams(d=7, epsilon=0.005))
        assert not dict(cert.checks)["internal_degree"]

    def test_out_of_range_member(self):
        with pytest.raises(ValueError):
            check_T(gen_csse(4), (9,), TParams(d=3, epsilon=0.5))

    def test_json_payload(self):
        cert = check_T(gen_csse(8), range(5), TParams(d=7, epsilon=0.25))
        doc = cert.to_json_dict()
        assert doc["t"] == [0, 1, 2, 3, 4]
        assert doc["t_size"] == 5
        assert doc["ok"] is True
        assert doc["params"] == dataclasses.asdict(cert.params)
        assert cert.params.strong_edge_quota == 1


class TestConstrained:
    def make(self, w04):
        return IsingInstance(6, [0] * 6, [(0, 4, w04), (0, 1, 1)])

    def test_cross_bound_pass_and_fail(self):
        ctx = ConstrainedContext(t1=(4,), t2=(5,), j_max=1)
        p = TParams(d=2, epsilon=0.5)
        good = check_T(self.make(3), [0], p, constrained=ctx)
        # integer form: |V0| * 3 = 12 <= 99 * j_max * 2 = 198
        assert dict(good.checks)["cross_coupling_bound"]
        assert good.constrained
        bad = check_T(self.make(1000), [0], p, constrained=ctx)
        assert not dict(bad.checks)["cross_coupling_bound"]

    def test_no_exemption_in_constrained_mode(self):
        # member 3 is isolated: zero candidates, quota 1 -> condition 2 fails
        inst = IsingInstance(6, [0] * 6, [(0, 1, 1)])
        ctx = ConstrainedContext(t1=(4,), t2=(5,), j_max=1)
        cert = check_T(inst, [3], TParams(d=2, epsilon=0.5), constrained=ctx)
        assert not dict(cert.checks)["strong_edge_count"]

    def test_overlap_with_side_sets_rejected(self):
        ctx = ConstrainedContext(t1=(4,), t2=(5,), j_max=1)
        with pytest.raises(ValueError):
            check_T(self.make(3), [4], TParams(d=2, epsilon=0.5), constrained=ctx)


class TestFindRandomized:
    def test_multicopy_succeeds_and_revalidates(self):
        inst = gen_multicopy(25, 4)
        cert = find_T_randomized(inst, seed=0)
        assert cert.ok
        again = check_T(inst, cert.t, cert.params)
        assert again.conditions_ok
        assert again.strong_edges == cert.strong_edges

    def test_deterministic_given_seed(self):
        inst = gen_multicopy(10, 4)
        a = find_T_randomized(inst, seed=3)
        b = find_T_randomized(inst, seed=3)
        assert a.t == b.t and a.attempts == b.attempts
        c = find_T_randomized(inst, seed=4)
        assert a.t != c.t or a.attempts == c.attempts  # seeds may collide; sets usually differ

    def test_impossible_instance_flags_failure(self):
        # epsilon 1 samples every vertex each attempt; no outside partners exist
        cert = find_T_randomized(triangle(), TParams(d=2, epsilon=1.0), seed=1, max_retries=3)
        assert not cert.ok
        assert cert.t == ()
        assert cert.attempts >= 1

    def test_max_retries_below_one_is_rejected(self):
        for retries in (0, -3):
            with pytest.raises(ValueError, match="max_retries"):
                find_T_randomized(gen_multicopy(10, 4), seed=3, max_retries=retries)

    def test_regular_graph_certificates(self):
        inst = gen_regular(60, 6, seed=9)
        cert = find_T_randomized(inst, seed=9)
        assert cert.ok
        assert check_T(inst, cert.t, cert.params).conditions_ok


@st.composite
def tset_cases(draw):
    """(instance, params): random instances of 3-16 variables, with the
    default params or with small constants, so that every condition fails
    on some draws and condition 3 sees members that fail 1 or 2."""
    inst = random_instance(draw(st.integers(0, 2**32 - 1)), n=draw(st.integers(3, 16)),
                           density=draw(st.sampled_from([0.2, 0.4, 0.8])))
    if inst.degree_graph().max_degree >= 2 and draw(st.booleans()):
        return inst, TParams.for_instance(inst)
    return inst, TParams(d=draw(st.integers(1, 8)),
                         epsilon=draw(st.sampled_from([0.1, 0.25, 0.5, 1.0])),
                         c_internal=draw(st.integers(1, 3)), c_strong=draw(st.integers(1, 3)),
                         c_load=draw(st.integers(1, 3)), c_cross=draw(st.integers(1, 3)))


def combined_search_sets(inst, seed):
    """The pool and side-set context that the combined solver hands the
    randomized search at alpha 0.5, or None where it searches no side sets."""
    graph = inst.degree_graph()
    d_avg = graph.average_degree
    if d_avg < 2 or side_set_target(inst.n, d_avg, 0.5) < 1:
        return None
    sides = find_T1T2(graph, seed=seed)
    if not sides.ok:
        return None
    side = set(sides.t1) | set(sides.t2)
    w0 = [i for i in range(inst.n) if i not in side and graph.degrees[i] <= 2.0 * d_avg]
    j_max = int(abs(reference_couplings(inst)).sum(axis=1).max())
    return w0, ConstrainedContext(t1=sides.t1, t2=sides.t2, j_max=j_max)


@settings(max_examples=150)
@given(tset_cases(), st.integers(0, 5), st.data())
def test_member_checks_match_the_reference_loops(case, seed, data):
    # the search and the certificate share one member check; the reference
    # runs the labelling and the certificate as two loops of their own
    inst, params = case
    assert find_T_randomized(inst, params, seed=seed, max_retries=3) == \
        reference_find_T_randomized(inst, params, seed=seed, max_retries=3)
    t = data.draw(st.sets(st.integers(0, inst.n - 1)))
    assert check_T(inst, t, params) == reference_check_T(inst, t, params)
    sets = combined_search_sets(inst, seed)
    if sets is None:
        return
    w0, ctx = sets
    assert find_T_randomized(inst, params, seed=seed, within=w0, constrained=ctx) == \
        reference_find_T_randomized(inst, params, seed=seed, within=w0, constrained=ctx)
    t = t - set(ctx.t1) - set(ctx.t2)
    assert check_T(inst, t, params, ctx) == reference_check_T(inst, t, params, ctx)


class TestFindDeterministic:
    def test_edgeless_first_subset(self):
        cert = find_T_deterministic(edgeless(6), 3, TParams(d=2, epsilon=0.5))
        assert cert.ok
        assert cert.t == (0, 1, 2)
        assert cert.method == "deterministic"

    def test_whole_set_failure(self):
        inst = gen_csse(6)
        cert = find_T_deterministic(inst, 6)
        assert not cert.ok

    def test_size_zero_failure(self):
        cert = find_T_deterministic(gen_csse(4), 0, TParams(d=3, epsilon=0.5))
        assert not cert.ok

    def test_size_gate(self):
        with pytest.raises(ValueError):
            find_T_deterministic(gen_multicopy(7, 4), 2)


class TestT1T2:
    def test_edgeless_explicit_target(self):
        res = find_T1T2(edgeless(10).degree_graph(), target=3)
        assert res.ok
        assert res.t1 == (0, 1, 2)
        assert res.t2 == (3, 4, 5)

    def test_two_cliques(self):
        triples = [(i, j, 1) for i, j in combinations(range(5), 2)]
        triples += [(i + 5, j + 5, 1) for i, j in combinations(range(5), 2)]
        inst = IsingInstance(10, [0] * 10, triples)
        res = find_T1T2(inst.degree_graph(), target=2)
        assert res.ok
        assert res.t1 == (0, 1)
        assert res.t2 == (5, 6)

    def test_lexicographic_subsets_answer_after_the_random_draws_fail(self):
        # the first candidate and all 50 seeded draws leave fewer than 3
        # T2 candidates; the fourth subset in lexicographic order is the first
        # that leaves enough
        g = gen_random(7, 0.5, seed=13).degree_graph()
        res = find_T1T2(g, target=3, seed=0)
        assert res.ok and (res.method, res.attempts) == ("deterministic", 4)
        assert (res.t1, res.t2) == ((0, 1, 5), (2, 3, 6))
        assert not any(set(g.neighbors[v]) & set(res.t2) for v in res.t1)

    def test_complete_graph_fails(self):
        triples = [(i, j, 1) for i, j in combinations(range(10), 2)]
        g = IsingInstance(10, [0] * 10, triples).degree_graph()
        res = find_T1T2(g, target=1)
        assert not res.ok
        assert res.t1 == () and res.t2 == ()

    def test_target_over_half_of_n_is_exhausted_at_once(self):
        # two disjoint sets of 4 cannot fit in 6 variables, so nothing is tried
        res = find_T1T2(gen_csse(6).degree_graph(), target=4)
        assert not res.ok
        assert (res.method, res.attempts, res.t1, res.t2) == ("exhausted", 0, (), ())

    def test_lexicographic_subsets_stop_at_their_cap(self, monkeypatch):
        # all-pairs n = 6 leaves no T2 candidate for any T1: the 15 pairs
        # are all tried, or the walk stops at the 11th past a cap of 10
        g = gen_csse(6).degree_graph()
        assert find_T1T2(g, target=2).attempts == 15
        monkeypatch.setattr(tset_module, "MAX_DETERMINISTIC_SUBSETS", 10)
        res = find_T1T2(g, target=2)
        assert not res.ok
        assert (res.method, res.attempts) == ("exhausted", 11)

    def test_default_target_formula(self):
        g = gen_multicopy(5, 4).degree_graph()  # average degree 3
        res = find_T1T2(g, alpha=0.5)
        expected = math.floor(0.5 * 20 * math.log(3) / 3)
        assert res.target == expected == 3
        assert res.ok
        assert len(res.t1) == len(res.t2) == 3
        assert not set(res.t1) & set(res.t2)
        for i in res.t1:
            for j in res.t2:
                assert j not in g.neighbors[i]

    def test_validation(self):
        g = gen_multicopy(2, 4).degree_graph()
        with pytest.raises(ValueError):
            find_T1T2(g, alpha=1.5)
        with pytest.raises(ValueError):
            find_T1T2(edgeless(8).degree_graph())  # average degree < 2
        with pytest.raises(ValueError):
            find_T1T2(g, alpha=0.01)  # computed target underflows to 0


class TestGoodSetNonsparse:
    def test_edgeless_all_good(self):
        res = good_set_nonsparse(edgeless(16), seed=2)
        assert res.ok
        assert res.t == res.t0
        assert res.epsilon == pytest.approx(0.25)
        assert res.threshold_doubled == 4

    def test_all_pairs_all_good(self):
        res = good_set_nonsparse(gen_csse(16), epsilon=0.25, seed=3)
        assert res.ok
        assert res.t == res.t0
        assert set(res.t) <= set(res.t0)

    def test_failure_flagged(self):
        res = good_set_nonsparse(triangle(), epsilon=1.0, seed=4, max_retries=2)
        assert not res.ok
        assert res.t == ()
        assert res.t0 == (0, 1, 2)
        assert res.attempts >= 1

    def test_validation(self):
        with pytest.raises(ValueError):
            good_set_nonsparse(edgeless(1))
        with pytest.raises(ValueError):
            good_set_nonsparse(edgeless(4), epsilon=0.1)  # floor(0.4) == 0

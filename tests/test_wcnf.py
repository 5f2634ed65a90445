from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import rng_for
from spinscape.instance import Assignment
from spinscape.wcnf import (
    Wcnf,
    WcnfFormatError,
    parse_wcnf,
    violated_weight,
    wcnf_to_ising,
)

SAMPLE = """\
c tiny example
p wcnf 2 2 10
1 -1 2 0
3 1 0
"""


class TestParse:
    def test_sample(self):
        f = parse_wcnf(SAMPLE)
        assert f.n_vars == 2
        assert f.top == 10
        assert f.clauses == ((1, (-1, 2)), (3, (1,)))
        assert f.tautologies_dropped == 0

    def test_tautology_dropped(self):
        f = parse_wcnf("p wcnf 1 1\n5 1 -1 0\n")
        assert f.clauses == ()
        assert f.tautologies_dropped == 1

    def test_duplicate_literal_becomes_unit(self):
        f = parse_wcnf("p wcnf 1 1\n2 1 1 0\n")
        assert f.clauses == ((2, (1,)),)

    def test_errors(self):
        bad = [
            "p cnf 2 1\n1 1 0\n",            # wrong format tag
            "p wcnf 2\n",                     # truncated header
            "1 1 0\n",                        # clause before header
            "p wcnf 2 1\n1 1 2 2 0\n",        # three literals
            "p wcnf 2 1\n1 3 0\n",            # variable out of range
            "p wcnf 2 1\n0 1 0\n",            # zero weight
            "p wcnf 2 1\n-2 1 0\n",           # negative weight
            "p wcnf 2 1\n1 1\n",              # missing terminator
            "p wcnf 2 1\n1 0\n",              # empty clause
            "p wcnf 2 1\np wcnf 2 1\n",       # duplicate header
        ]
        for text in bad:
            with pytest.raises(WcnfFormatError):
                parse_wcnf(text)


class TestReduction:
    def test_single_mixed_clause(self):
        # (not x1 or x2) with weight 1
        inst = wcnf_to_ising(Wcnf(2, ((1, (-1, 2)),)))
        assert inst.c0 == 1
        assert inst.h == (1, -1)
        assert inst.couplings == {(0, 1): -1}

    def test_unit_clause(self):
        inst = wcnf_to_ising(Wcnf(1, ((3, (1,)),)))
        assert inst.c0 == 6
        assert inst.h == (-6,)
        assert inst.energy(Assignment.from_spins([1])) == 0
        assert inst.energy(Assignment.from_spins([-1])) == 12

    def test_pair_construction_matches_all_pairs_family(self):
        # (b_i or b_j) plus (not b_i or not b_j), all pairs, unit weights.
        n = 4
        clauses = []
        for i, j in combinations(range(1, n + 1), 2):
            clauses.append((1, (i, j)))
            clauses.append((1, (-i, -j)))
        inst = wcnf_to_ising(Wcnf(n, tuple(clauses)))
        assert inst.h == (0,) * n
        assert inst.c0 == 2 * (n * (n - 1) // 2)
        assert all(w == 2 for w in inst.couplings.values())
        assert len(inst.couplings) == n * (n - 1) // 2

    def test_energy_is_4x_violated_weight(self):
        f = parse_wcnf(SAMPLE)
        inst = wcnf_to_ising(f)
        for r in range(4):
            a = Assignment.from_rank(r, 2)
            assert inst.energy(a) == 4 * violated_weight(f, a)

    def test_negating_all_literals_negates_fields(self):
        f = Wcnf(3, ((2, (1, -2)), (1, (3,)), (4, (-1, -3))))
        g = Wcnf(3, tuple((w, tuple(-l for l in lits)) for w, lits in f.clauses))
        fi, gi = wcnf_to_ising(f), wcnf_to_ising(g)
        assert gi.h == tuple(-x for x in fi.h)
        assert gi.couplings == fi.couplings
        assert gi.c0 == fi.c0

    def test_clause_weights_accumulate(self):
        f = Wcnf(2, ((1, (1, 2)), (2, (1, 2))))
        g = Wcnf(2, ((3, (1, 2)),))
        assert wcnf_to_ising(f).to_json() == wcnf_to_ising(g).to_json()


def random_formula(seed: int) -> Wcnf:
    rng = rng_for(seed, stream=7)
    n = int(rng.integers(2, 13))
    m = int(rng.integers(1, 25))
    clauses = []
    for _ in range(m):
        w = int(rng.integers(1, 9))
        if rng.random() < 0.25:
            v = int(rng.integers(1, n + 1))
            lits = [v if rng.random() < 0.5 else -v]
        else:
            v1 = int(rng.integers(1, n + 1))
            v2 = int(rng.integers(1, n + 1))
            while v2 == v1:
                v2 = int(rng.integers(1, n + 1))
            lits = [
                v1 if rng.random() < 0.5 else -v1,
                v2 if rng.random() < 0.5 else -v2,
            ]
        clauses.append((w, tuple(sorted(lits, key=abs))))
    return Wcnf(n, tuple(clauses))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), rank=st.integers(0, 2**12 - 1))
def test_reduction_agrees_with_direct_count(seed, rank):
    f = random_formula(seed)
    inst = wcnf_to_ising(f)
    a = Assignment.from_rank(rank % (1 << f.n_vars), f.n_vars)
    assert inst.energy(a) == 4 * violated_weight(f, a)

"""End-to-end acceptance checks, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion.  Each test prints a short summary with the drawn sample
sizes and its wall time; all numeric comparisons are exact unless the
criterion itself is statistical (Monte Carlo agreement at four standard
errors).
"""

import math
import time

from helpers import (
    is_k_minimum,
    min_pairwise_hamming,
    reference_couplings,
    zero_energy_assignments,
)
from spinscape.cli import main
from spinscape.generators import (
    gen_column,
    gen_csse,
    gen_multicopy,
    gen_random,
    gen_regular,
)
from spinscape.instance import IsingInstance
from spinscape.landscape import enumerate_k_minima
from spinscape.probe import (
    WeightedSum,
    exact_interval_prob,
    mc_interval_prob,
    scaling_report,
)
from spinscape.rand import rng_from
from spinscape.solver import (
    Plan,
    _largest_color_class,
    _solve_with_T,
    compute_Z,
    plan_effective,
    solve_avg_degree,
    solve_brute,
    solve_coloring_baseline,
    solve_combined,
    solve_effective,
)
from spinscape.tset import (
    ConstrainedContext,
    check_T,
    find_T1T2,
    find_T_randomized,
)


def _suite_instance(i: int) -> IsingInstance:
    """Instance i of the 500-instance randomized oracle suite."""
    n = 8 + (i % 11)
    density = (0.1, 0.3, 0.7)[i % 3]
    return gen_random(n, density, wmax=5, seed=1000 + i)


def test_criterion_01_oracle_equivalence():
    """All four solvers reproduce brute force exactly on 500 instances."""
    started = time.time()
    solvers = (
        ("effective", lambda inst, i: solve_effective(inst, seed=i)),
        ("avg-degree", lambda inst, i: solve_avg_degree(inst, seed=i)),
        ("combined", lambda inst, i: solve_combined(inst, seed=i)),
        ("coloring", lambda inst, i: solve_coloring_baseline(inst)),
    )
    for i in range(500):
        inst = _suite_instance(i)
        oracle = solve_brute(inst)
        for name, run in solvers:
            res = run(inst, i)
            assert res.energy == oracle.energy, (name, i, res.energy, oracle.energy)
            assert res.best == oracle.best, (name, i, str(res.best), str(oracle.best))
    print("criterion 1: PASS - 500 instances x 4 solvers matched brute force "
          "(energy and assignment) in %.1fs" % (time.time() - started))


def test_criterion_02_all_pairs_minima_counts():
    """Local minima of the balanced all-pairs family count C(N, N/2)."""
    started = time.time()
    for n in (4, 8, 12, 16):
        count = enumerate_k_minima(gen_csse(n), 1).minima_count
        assert count == math.comb(n, n // 2), (n, count)
    print("criterion 2: PASS - counts 6/70/924/12870 for N=4/8/12/16 "
          "in %.1fs" % (time.time() - started))


def test_criterion_03_multicopy_minima_counts():
    """Disjoint copies multiply the minima count: 6^c for c blocks of 4.

    At c = 7 (n = 28) the scan walks 2^21 outer rows, past T's 7 members.
    """
    started = time.time()
    for c in (1, 2, 3, 4, 7):
        count = enumerate_k_minima(gen_multicopy(c, 4), 1).minima_count
        assert count == 6 ** c, (c, count)
    print("criterion 3: PASS - counts 6^c for c=1..4 and 7 in %.1fs"
          % (time.time() - started))


def test_criterion_04_column_zero_mode_structure():
    """Zero-target column grid at f=2, l=4: 90 zero-energy assignments,
    all strict 3-minima, minimum pairwise Hamming distance 4."""
    started = time.time()
    ci = gen_column(2, 4, m_mode="zeros")
    zes = zero_energy_assignments(ci)
    assert len(zes) == 90, len(zes)
    assert all(ci.instance.energy(a) == 0 for a in zes)
    assert all(is_k_minimum(ci.instance, a, 3) for a in zes)
    assert min_pairwise_hamming(zes) == 4
    print("criterion 4: PASS - 90 zero-energy strict 3-minima, min Hamming 4, "
          "in %.1fs" % (time.time() - started))


def test_criterion_05_column_planted_structure():
    """Sampled-target grids plant a zero-energy assignment; all zero-energy
    assignments are (2^f - 1)-minima with pairwise Hamming >= 2^f."""
    started = time.time()
    cases = 0
    for f, l in ((2, 2), (2, 4), (3, 2)):
        k = 2 ** f - 1
        for seed in range(50):
            ci = gen_column(f, l, m_mode="sampled", seed=seed)
            zes = zero_energy_assignments(ci)
            assert ci.planted in zes, (f, l, seed)
            assert all(is_k_minimum(ci.instance, a, k) for a in zes), (f, l, seed)
            assert min_pairwise_hamming(zes) >= 2 ** f, (f, l, seed)
            cases += 1
    print("criterion 5: PASS - %d planted grids verified in %.1fs"
          % (cases, time.time() - started))


def test_criterion_06_minima_bounded_by_z():
    """Minima count <= Z for every branching set used; the scan's leaf
    counter equals Z exactly (no zero-field branching ever fires: a
    zero-field fixed member has no internal couplings at all)."""
    started = time.time()
    checked = certs = 0
    for i in range(500):
        inst = _suite_instance(i)
        if inst.n > 14:
            continue
        count = enumerate_k_minima(inst, 1).minima_count
        t_auto = plan_effective(inst, i).t
        z = compute_Z(inst, t_auto)
        res = solve_effective(inst, seed=i)
        assert count <= z, (i, count, z)
        assert res.leaves_explored == z, (i, res.leaves_explored, z)
        assert res.counters.get("zero_field_fixed", 0) >= 0
        if inst.degree_graph().max_degree >= 2:
            cert = find_T_randomized(inst, seed=i)
            if cert.ok:
                z2 = compute_Z(inst, cert.t)
                res2 = _solve_with_T(inst, Plan("effective", cert.t, source="randomized"))
                assert count <= z2, (i, count, z2)
                assert res2.leaves_explored == z2, (i, res2.leaves_explored, z2)
                certs += 1
        checked += 1
    # the enumerator's own set T on multicopy 7x4, past the 2^26 full scan
    inst = gen_multicopy(7, 4)
    t_scan, _ = _largest_color_class(inst.degree_graph())
    assert enumerate_k_minima(inst, 1).minima_count <= compute_Z(inst, t_scan)
    print("criterion 6: PASS - %d instances, %d extra certificates, bound and "
          "counter identity exact, in %.1fs" % (checked, certs, time.time() - started))


def test_criterion_07_branching_set_revalidation():
    """100 randomized set searches yield certificates whose conditions
    re-validate independently; constrained runs re-validate the cross bound."""
    started = time.time()
    runs = 0
    for i in range(40):
        inst = gen_multicopy(20 + (i % 6), 4)
        cert = find_T_randomized(inst, seed=100 + i)
        assert cert.ok, (i, cert.checks)
        recheck = check_T(inst, cert.t, cert.params)
        assert all(p for _, p in recheck.checks), (i, recheck.checks)
        runs += 1
    for i in range(40):
        inst = gen_regular(48 + 4 * (i % 4), 6, seed=i)
        cert = find_T_randomized(inst, seed=140 + i)
        assert cert.ok, (i, cert.checks)
        recheck = check_T(inst, cert.t, cert.params)
        assert all(p for _, p in recheck.checks), (i, recheck.checks)
        runs += 1
    for i in range(20):
        inst = gen_multicopy(24, 4)
        graph = inst.degree_graph()
        sides = find_T1T2(graph, seed=i)
        assert sides.ok, i
        side = set(sides.t1) | set(sides.t2)
        w0 = [v for v in range(inst.n)
              if v not in side and graph.degrees[v] <= 2 * graph.average_degree]
        row_max = int(abs(reference_couplings(inst)).sum(axis=1).max())
        ctx = ConstrainedContext(t1=sides.t1, t2=sides.t2, j_max=row_max)
        cert = find_T_randomized(inst, seed=200 + i, within=w0, constrained=ctx)
        assert cert.ok and cert.constrained, (i, cert.checks)
        recheck = check_T(inst, cert.t, cert.params, constrained=ctx)
        names = {name for name, _ in recheck.checks}
        assert "cross_coupling_bound" in names
        assert all(p for _, p in recheck.checks), (i, recheck.checks)
        runs += 1
    assert runs == 100
    print("criterion 7: PASS - 100 certificate runs re-validated "
          "(20 constrained) in %.1fs" % (time.time() - started))


def test_criterion_08_side_set_construction():
    """Side sets share no coupling edge and hit the target size exactly;
    the complete graph is a documented failure."""
    started = time.time()
    families = [gen_multicopy(c, 4) for c in (5, 8, 12)]
    families += [gen_regular(n, 3, seed=n) for n in (24, 40, 60)]
    built = 0
    for inst in families:
        graph = inst.degree_graph()
        d = graph.average_degree
        target = int(0.5 * inst.n * math.log(d) / d)
        sides = find_T1T2(graph, alpha=0.5)
        assert sides.ok, inst.n
        assert len(sides.t1) == len(sides.t2) == target, (inst.n, sides)
        assert not (set(sides.t1) & set(sides.t2))
        for a in sides.t1:
            for b in sides.t2:
                assert inst.coupling(a, b) == 0, (a, b)
        built += 1
    complete = IsingInstance(
        10, [0] * 10, [(i, j, 1) for i in range(10) for j in range(i + 1, 10)]
    )
    failed = find_T1T2(complete.degree_graph())
    assert not failed.ok
    assert failed.t1 == () and failed.t2 == ()
    print("criterion 8: PASS - %d families at exact target size with zero "
          "crossing edges; complete graph fails as documented; %.1fs"
          % (built, time.time() - started))


def test_criterion_09_anticoncentration():
    """Unit-weight interval maxima shrink by at least 0.6 per 4x size step;
    Monte Carlo agrees with the exact convolution within four standard errors."""
    started = time.time()
    rep = scaling_report([16, 64, 256, 1024], delta=1)
    assert len(rep.ratios) == 3
    for ratio in rep.ratios:
        assert ratio <= 0.6, rep.ratios
    rng = rng_from(424242, 7)
    worst = 0.0
    for case in range(100):
        n = int(rng.integers(4, 25))
        signs = rng.choice([-1, 1], n)
        mags = rng.integers(1, 11, n)
        weights = WeightedSum(tuple(int(s * m) for s, m in zip(signs, mags)))
        delta = int(rng.integers(1, 4))
        h = int(rng.integers(-3, 4))
        exact = float(exact_interval_prob(weights, delta, h))
        est = mc_interval_prob(weights, delta, h, samples=40000, seed=case)
        if est.std_error == 0.0:
            assert est.estimate == exact, case
        else:
            dev = abs(est.estimate - exact) / est.std_error
            assert dev <= 4.0, (case, dev)
            worst = max(worst, dev)
    print("criterion 9: PASS - ratios %s all <= 0.6; 100 MC cases within "
          "4 sigma (worst %.2f); %.1fs"
          % ([round(r, 4) for r in rep.ratios], worst, time.time() - started))


def test_criterion_10_cli_determinism(tmp_path, capsys):
    """Re-running any subcommand with one seed, at worker counts 1 and 4,
    reproduces the output byte for byte apart from the wall-time field."""
    started = time.time()

    def run(argv):
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0, argv
        return "\n".join(l for l in out.splitlines() if "wall_time_s" not in l)

    inst_path = str(tmp_path / "inst.json")
    run(["generate", "random", "--n", "13", "--density", "0.5",
         "--seed", "11", "-o", inst_path])
    weights_path = tmp_path / "w.txt"
    weights_path.write_text("3 1 4 1 5 9 2 6\n")
    commands = [
        ["generate", "random", "--n", "13", "--density", "0.5", "--seed", "11"],
        ["solve", "--method", "effective", "-i", inst_path, "--seed", "11"],
        ["solve", "--method", "combined", "-i", inst_path, "--seed", "11"],
        ["solve", "--method", "avg-degree", "-i", inst_path, "--seed", "11"],
        ["count-minima", "-i", inst_path, "--k", "2"],
        ["basins", "-i", inst_path, "--k", "1"],
        ["tset", "-i", inst_path, "--seed", "11"],
        ["z", "-i", inst_path, "--tset-seed", "11"],
        ["probe", "--mode", "mc", "--weights-file", str(weights_path),
         "--delta", "1", "--h", "0", "--samples", "5000", "--seed", "11"],
        ["probe", "--mode", "scaling", "--sizes", "8", "32", "--seed", "11"],
        ["bench", "--family", "multicopy", "--sizes", "8", "12",
         "--methods", "brute", "coloring", "--seed", "11"],
    ]
    checked = 0
    for argv in commands:
        outputs = [run(argv), run(argv)]
        if any(flag == "--workers" for flag in argv):
            raise AssertionError("commands list should not preset workers")
        for workers in ("1", "4"):
            if argv[0] in ("solve", "bench") or (argv[0] == "probe"
                                                 and "mc" in argv):
                outputs.append(run(argv + ["--workers", workers]))
        assert len(set(outputs)) == 1, argv
        checked += 1
    print("criterion 10: PASS - %d subcommand configurations byte-stable "
          "across reruns and worker counts in %.1fs"
          % (checked, time.time() - started))

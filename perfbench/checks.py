"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench/checks.py

The file name keeps these out of the repository's own test collection: the
count-stability test runs every workload twice and takes about two minutes.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from spinscape import cli  # noqa: E402
from spinscape.instance import IsingInstance  # noqa: E402
from spinscape.landscape import enumerate_k_minima, k_basins  # noqa: E402
from spinscape.probe import scaling_report, signed_sum_counts  # noqa: E402
from spinscape.solver import SolveResult, solve_brute  # noqa: E402
from spinscape.wcnf import parse_wcnf, wcnf_to_ising  # noqa: E402


def _random_doc(n: int, seed: int) -> dict:
    """Small instance with ties and, for some seeds, several components."""
    rng = random.Random(seed)
    split = n // 2 if seed % 2 else n
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
             if (i < split) == (j < split) and rng.random() < 0.5]
    inst = IsingInstance(n, [rng.randint(-2, 2) for _ in range(n)],
                         [(i, j, rng.choice((-2, -1, 1, 2))) for i, j in pairs],
                         c0=rng.randint(-3, 3))
    return inst.to_json_dict()


# -- the oracles against the program on inputs small enough to trust both ----


@pytest.mark.parametrize("seed", range(12))
def test_ising_oracles_agree_with_the_program(seed):
    doc = _random_doc(6 + seed % 7, seed)
    inst = IsingInstance.from_json_dict(doc)
    ref = solve_brute(inst)
    assert oracle.solve_ising(doc) == {"energy": ref.energy,
                                       "assignment": ref.best.bitstring()}
    for k in (1, 2):
        got = oracle.count_minima(doc, k)
        rep = enumerate_k_minima(inst, k=k)
        assert got["count"] == rep.minima_count
        assert got["minima"] == [a.bitstring() for a in rep.minima]
    basins = k_basins(inst, k=1)
    assert oracle.basins_k1(doc) == {
        "vertex_count": basins.vertex_count,
        "basin_count": basins.basin_count,
        "basin_sizes": list(basins.basin_sizes),
        "strict_minima": basins.minima_count,
    }


@pytest.mark.parametrize("seed", range(6))
def test_wcnf_oracle_agrees_with_the_reduction(seed):
    text = workloads.gen_wcnf_text(10, 30, seed)
    ref = solve_brute(wcnf_to_ising(parse_wcnf(text)))
    assert oracle.solve_wcnf(text) == {"energy": ref.energy,
                                       "assignment": ref.best.bitstring()}


def test_probe_oracles_agree_with_the_program():
    weights = [3, -1, 4, 1, -5, 9, 2, -6]
    assert oracle.sign_sum_counts(weights) == tuple(signed_sum_counts(weights))
    sizes = [4, 9, 16]
    rows = scaling_report(sizes, delta=1).to_json_dict()["rows"]
    assert oracle.probe_scaling(sizes, 1)["rows"] == [
        {"n": r["n"], "h_star": r["h_star"], "probability": r["probability"]} for r in rows
    ]


def test_oracle_file_matches_a_fresh_computation():
    answers = oracle.load()
    tables: dict = {}
    for workload in workloads.WORKLOADS:
        ps = workloads.build_pass(workload, 0, "")
        for op in ps.ops:
            if op.answer == "z":
                continue
            name = next((a for a in op.argv if a in ps.files), None)
            fresh = oracle.answer_for(op.answer, ps.files.get(name, ""), op.argv, tables)
            assert answers[op.digest][op.answer] == fresh, op.label


# -- failures are counted, never fatal -----------------------------------------


def _plan(workload: str, tmp_path):
    (plan,) = run.setup(workload, 0, [0], str(tmp_path))
    return plan


def test_a_corrupted_answer_counts_as_a_failed_op(tmp_path, monkeypatch):
    plan = _plan("scan", tmp_path)
    real = cli.solve_combined

    def corrupted(inst, **kw):
        res = real(inst, **kw)
        best = res.best.flip(0)
        return SolveResult(best, inst.energy(best), res.leaves_explored,
                           res.outer_assignments, res.method, res.counters)

    monkeypatch.setattr(cli, "solve_combined", corrupted)
    tally = run.Tally()
    _, records = run.run_pass(cli.main, plan)
    _, lexmin = tally.check_pass(plan, records)
    assert lexmin == 0
    combined = [op for op, _ in plan if "combined" in op.argv]
    assert tally.attempted == len(plan)
    assert len(tally.failed) == len(combined) > 0
    assert all("energy" in line for line in tally.failed)


def test_a_raising_op_and_a_broken_audit_count_as_failed_ops(tmp_path, monkeypatch):
    plan = _plan("scan", tmp_path)

    def boom(inst, **kw):
        raise AssertionError("tying row lost its optimum")

    monkeypatch.setattr(cli, "solve_avg_degree", boom)
    monkeypatch.setattr(cli, "compute_Z", lambda inst, t: 7)
    tally = run.Tally()
    _, records = run.run_pass(cli.main, plan)
    tally.check_pass(plan, records)
    labels = sorted(line.split(":")[0] + ":" + line.split(":")[1] for line in tally.failed)
    n_avg = sum("avg-degree" in op.argv for op, _ in plan)
    n_eff = sum("effective" in op.argv for op, _ in plan)
    assert labels.count("solve:avg-degree") == n_avg
    assert labels.count("solve:effective") == n_eff
    assert len(tally.failed) == n_avg + n_eff


def test_only_listed_ops_may_miss_the_lex_min():
    want = {"energy": 56, "assignment": "0011"}
    doc = {"command": "solve", "n": 4, "digest": "d", "energy": 56, "assignment": "1001",
           "method": "coloring", "engine": "coloring",
           "leaves_explored": 4, "outer_assignments": 4}
    argv = ("solve", "--method", "coloring", "-i", "x.json")
    plan = [(workloads.Op(label, argv, "d", "solve"), want)
            for label in ("solve:coloring:m74", "solve:coloring:m64")]
    records = [(0.1, 0, json.dumps(doc), "")] * 2
    tally = run.Tally()
    _, lexmin = tally.check_pass(plan, records)
    assert lexmin == 2
    assert len(tally.known_defects) == 1 and "m74" in tally.known_defects[0]
    assert len(tally.failed) == 1 and tally.failed[0].startswith("solve:coloring:m64")


def test_oracle_check_reasons():
    doc = {"command": "solve", "n": 4, "digest": "d", "energy": -3, "assignment": "0110",
           "method": "effective", "engine": "effective-field",
           "leaves_explored": 8, "outer_assignments": 4}
    argv = ("solve", "--method", "effective")
    assert oracle.check(argv, doc, "d", {"energy": -3, "assignment": "0110"}) is None
    assert oracle.check(argv, doc, "d", {"energy": -3, "assignment": "0011"}) == "lexmin"
    assert oracle.check(argv, doc, "d", {"energy": -5, "assignment": "0110"}).startswith(
        "energy")
    assert oracle.check(argv, doc, "e", {"energy": -3, "assignment": "0110"}).startswith(
        "digest")


def test_unknown_inputs_fail_loudly():
    with pytest.raises(oracle.OracleMismatch):
        oracle.expected(oracle.load(), "0" * 64, "solve")


# -- tracing ---------------------------------------------------------------------


def test_self_time_subtracts_direct_children():
    tr = tracing.Tracer()
    for name, start, end, parent in [("cli.op", 0.0, 10.0, None),
                                     ("solver.effective", 1.0, 9.0, 0),
                                     ("instance.spin_block", 2.0, 3.0, 1),
                                     ("instance.block_energies", 3.0, 7.0, 1)]:
        s = tracing.Span(name, start, parent)
        s.end = end
        tr.spans.append(s)
    tr.check_nesting()
    m = tracing.layer_metrics(tr, [])
    assert m["cli.self_s"] == 2.0
    assert m["solver.effective.self_s"] == 3.0
    assert m["solver.repair_rescan_s"] == 4.0
    tr.spans[2].end = 9.5
    with pytest.raises(RuntimeError):
        tr.check_nesting()


def test_wrappers_are_removed_after_a_traced_pass():
    import spinscape.solver

    before = spinscape.solver.block_energies
    tr = tracing.Tracer()
    with tr.installed():
        assert spinscape.solver.block_energies is not before
    assert spinscape.solver.block_energies is before


# -- the whole command -----------------------------------------------------------


def _run(workload: str, seed: int, trace: int, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_count_metrics_repeat_exactly(workload):
    results = []
    for _ in range(2):
        proc = _run(workload, 3, 1)
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout.splitlines()[-1]))
    counts = [{k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count"}
              for r in results]
    assert counts[0] == counts[1]
    assert counts[0]["cli.ops"] > 0
    assert results[0]["attempted"] == results[1]["attempted"]


def test_a_directory_without_the_program_exits_nonzero(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("scan", 1, 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

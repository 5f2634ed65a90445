import contextlib
import io
import json
import os
import sys
import tempfile
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import random_instance
from spinscape.cli import main
from spinscape.generators import gen_csse
from spinscape.instance import EnumerationLimitError, IsingInstance
from spinscape.landscape import (
    DEFAULT_BASIN_WORK_LIMIT,
    basins_by_parts,
    enumerate_k_minima,
    k_basins,
)
from spinscape.tset import side_set_target


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 0, err
    return json.loads(out)


def strip_wall_time(text):
    return "\n".join(
        line for line in text.splitlines() if "wall_time_s" not in line
    )


@pytest.fixture
def csse4_file(tmp_path, capsys):
    path = tmp_path / "csse4.json"
    code, _, err = run_cli(["generate", "csse", "--n", "4", "-o", str(path)], capsys)
    assert code == 0, err
    return str(path)


@pytest.fixture
def random14_file(tmp_path, capsys):
    path = tmp_path / "r14.json"
    argv = ["generate", "random", "--n", "14", "--density", "0.4",
            "--seed", "5", "-o", str(path)]
    code, _, err = run_cli(argv, capsys)
    assert code == 0, err
    return str(path)


class TestGenerate:
    def test_document_metadata(self, capsys):
        doc = run_json(["generate", "csse", "--n", "4"], capsys)
        assert doc["command"] == "generate"
        assert doc["version"]
        assert len(doc["digest"]) == 64
        assert doc["counters"] == {"variables": 4, "couplings": 6}
        assert doc["instance"]["n"] == 4
        assert "wall_time_s" in doc

    def test_column_sampled_plants_a_zero_energy_assignment(self, tmp_path, capsys):
        path = tmp_path / "col.json"
        run_cli(["generate", "column", "--f", "2", "--l", "2",
                 "--m-mode", "sampled", "--seed", "3", "-o", str(path)], capsys)
        doc = json.loads(path.read_text())
        planted = doc["column_info"]["planted"]
        assert set(planted) <= {"0", "1"} and len(planted) == 4
        res = run_json(["solve", "--method", "brute", "-i", str(path)], capsys)
        assert res["energy"] == 0

    def test_odd_csse_size_is_a_usage_error(self, capsys):
        code, _, err = run_cli(["generate", "csse", "--n", "5"], capsys)
        assert code == 1
        assert "error" in err


class TestSolve:
    def test_pipeline_example(self, csse4_file, capsys):
        doc = run_json(["solve", "--method", "brute", "-i", csse4_file], capsys)
        assert doc["energy"] == 8
        assert sorted(doc["assignment"]) == ["0", "0", "1", "1"]
        assert doc["leaves_explored"] == 16
        assert doc["seed"] == 0 and doc["version"] and doc["digest"]

    def test_all_methods_agree_under_verify(self, random14_file, capsys):
        results = []
        for method in ("brute", "coloring", "effective", "avg-degree", "combined"):
            doc = run_json(["solve", "--method", method, "-i", random14_file,
                            "--seed", "5", "--verify"], capsys)
            assert doc["verified"] is True
            results.append((doc["energy"], doc["assignment"]))
        assert len(set(results)) == 1

    def test_verify_skipped_above_size_gate(self, tmp_path, capsys):
        from spinscape.instance import IsingInstance

        path = tmp_path / "big.json"
        path.write_text(IsingInstance(22, [1] * 22).to_json())
        doc = run_json(["solve", "--method", "coloring", "-i", str(path),
                        "--verify"], capsys)
        assert doc["verified"] is None
        assert doc["energy"] == -22

    def test_verify_mismatch_has_its_own_exit_code(self, random14_file, capsys, monkeypatch):
        import dataclasses

        import spinscape.cli as cli

        real = cli.solve_coloring_baseline

        def wrong(inst, **kw):
            res = real(inst, **kw)
            return dataclasses.replace(res, best=res.best.flip(0))

        monkeypatch.setattr(cli, "solve_coloring_baseline", wrong)
        code, out, err = run_cli(["solve", "--method", "coloring", "-i", random14_file,
                                  "--verify"], capsys)
        assert code == cli.EXIT_VERIFY == 4
        assert out == ""
        assert "verification failed" in err

    def test_verify_runs_per_part_on_multicopy_12x4(self, tmp_path, capsys, monkeypatch):
        import dataclasses

        import spinscape.cli as cli
        from spinscape.instance import Assignment

        path = tmp_path / "m124.json"
        run_cli(["generate", "multicopy", "--copies", "12", "-o", str(path)], capsys)
        argv = ["solve", "--method", "coloring", "-i", str(path), "--verify"]
        doc = run_json(argv, capsys)
        assert doc["verified"] is True
        assert doc["assignment"] == "0011" * 12

        real = cli.solve_coloring_baseline

        def mirrored(inst, **kw):
            # 1100 in place of the lex-min 0011: an optimum of the same energy
            res = real(inst, **kw)
            best = Assignment.from_bitstring(res.best.bitstring()[::-1])
            assert best != res.best and inst.energy(best) == res.energy
            return dataclasses.replace(res, best=best)

        monkeypatch.setattr(cli, "solve_coloring_baseline", mirrored)
        code, out, err = run_cli(argv, capsys)
        assert code == cli.EXIT_VERIFY == 4
        assert out == ""
        assert "1100" * 12 in err and "0011" * 12 in err

    def test_alpha_sizes_the_side_sets(self, tmp_path, capsys):
        path = tmp_path / "r20.json"
        run_cli(["generate", "regular", "--n", "20", "--d", "3", "--seed", "1",
                 "-o", str(path)], capsys)
        argv = ["solve", "--method", "combined", "--verify", "-i", str(path)]
        default = run_json(argv, capsys)
        wider = run_json(argv + ["--alpha", "0.7"], capsys)
        assert default["verified"] is wider["verified"] is True
        assert default["counters"]["t1_size"] == side_set_target(20, 3.0, 0.5) == 3
        assert wider["counters"]["t1_size"] == side_set_target(20, 3.0, 0.7) == 5

    def test_workers_do_not_change_output_bytes(self, random14_file, capsys):
        outs = []
        for workers in ("1", "4"):
            code, out, _ = run_cli(["solve", "--method", "effective",
                                    "-i", random14_file, "--seed", "5",
                                    "--workers", workers], capsys)
            assert code == 0
            outs.append(strip_wall_time(out))
        assert outs[0] == outs[1]

    def test_rerun_is_byte_identical(self, random14_file, capsys):
        argv = ["solve", "--method", "combined", "-i", random14_file, "--seed", "2"]
        _, first, _ = run_cli(argv, capsys)
        _, second, _ = run_cli(argv, capsys)
        assert strip_wall_time(first) == strip_wall_time(second)

    def test_wcnf_input(self, tmp_path, capsys):
        path = tmp_path / "tiny.wcnf"
        path.write_text("p wcnf 2 2\n3 1 2 0\n2 -1 0\n")
        doc = run_json(["solve", "--method", "brute", "-i", str(path)], capsys)
        assert doc["energy"] == 0
        assert doc["n"] == 2


class TestLandscapeCommands:
    def test_count_minima(self, csse4_file, capsys):
        doc = run_json(["count-minima", "-i", csse4_file, "--k", "1"], capsys)
        assert doc["count"] == 6
        assert len(doc["minima"]) == 6

    def test_count_minima_respects_list_limit(self, csse4_file, capsys):
        doc = run_json(["count-minima", "-i", csse4_file, "--list-limit", "2"],
                       capsys)
        assert doc["count"] == 6
        assert "minima" not in doc

    def test_count_minima_k2(self, tmp_path, capsys):
        # A strict 2-minimum whose pair flip has a half-delta of -2^62.
        path = tmp_path / "near.json"
        path.write_text(IsingInstance(2, [2**61, 2**61], [(0, 1, 1)]).to_json())
        doc = run_json(["count-minima", "-i", str(path), "--k", "2"], capsys)
        assert (doc["k"], doc["count"], doc["minima"]) == (2, 1, ["00"])

    def test_basins(self, csse4_file, capsys):
        doc = run_json(["basins", "-i", csse4_file, "--k", "1"], capsys)
        assert doc["basin_count"] == 6
        assert doc["basin_sizes"] == [1] * 6
        assert doc["vertex_count"] == 6

    @pytest.mark.parametrize("argv", [
        ["count-minima", "--list-limit"],
        ["basins", "--work-limit"],
    ], ids=["list-limit", "work-limit"])
    def test_negative_limit_is_usage_error(self, csse4_file, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["-1", "-i", csse4_file])
        assert exc.value.code == 1
        assert argv[1] in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["count-minima", "basins"])
    def test_k_below_one_is_usage_error(self, csse4_file, capsys, command):
        code, out, err = run_cli([command, "-i", csse4_file, "--k", "0"], capsys)
        assert (code, out) == (1, "")
        assert "need k >= 1" in err

    def test_zero_limits_are_accepted(self, csse4_file, capsys):
        doc = run_json(["count-minima", "-i", csse4_file, "--list-limit", "0"], capsys)
        assert doc["count"] == 6 and "minima" not in doc
        code, _, err = run_cli(["basins", "-i", csse4_file, "--work-limit", "0"], capsys)
        assert code == 3 and "work limit" in err

    def test_basins_refuses_too_many_moves_before_scanning(self, tmp_path, capsys):
        # C(24, <= 12), about 9.7M moves per vertex, exceeds the default
        # limit of 2^22 whatever the vertex count, so nothing is scanned
        path = tmp_path / "r24.json"
        run_cli(["generate", "random", "--n", "24", "--density", "0.2",
                 "--seed", "1", "-o", str(path)], capsys)
        started = time.perf_counter()
        code, out, err = run_cli(["basins", "-i", str(path), "--k", "12"], capsys)
        assert (code, out) == (3, "")
        assert "work limit" in err
        assert time.perf_counter() - started < 5.0


    def test_count_minima_refuses_more_than_62_variables(self, tmp_path, capsys):
        # coupling-free: T is every variable, so only the bit masks limit n
        path = tmp_path / "free80.json"
        path.write_text(IsingInstance(80, [1] * 80).to_json())
        code, out, err = run_cli(["count-minima", "-i", str(path)], capsys)
        assert (code, out) == (3, "")
        assert "62-bit" in err

    def test_basins_refuses_too_many_free_member_candidates(self, tmp_path, capsys):
        # no fields and no couplings: all 30 members are free, 2^30 candidates
        path = tmp_path / "flat30.json"
        path.write_text(IsingInstance(30, [0] * 30).to_json())
        code, out, err = run_cli(["basins", "-i", str(path), "--work-limit", str(10**15)],
                                 capsys)
        assert (code, out) == (3, "")
        assert "2^26 candidates" in err

    @pytest.mark.parametrize("copies, limit, message", [
        (16, 10 ** 30, "64 variables exceed the 62-bit"),
        (11, 10 ** 15, "the parts join into 362797056 vertices, past 2^26"),
    ], ids=["62-bit", "joined-vertices"])
    def test_basins_by_parts_refuses_what_the_whole_scan_refuses(self, tmp_path, capsys,
                                                                copies, limit, message):
        # each copy fits, but the joined instance does not: past 62
        # variables, or past 2^26 vertices (6^11) under a work limit that
        # admits them
        path = tmp_path / "m.json"
        run_cli(["generate", "multicopy", "--copies", str(copies), "-o", str(path)], capsys)
        code, out, err = run_cli(["basins", "-i", str(path), "--work-limit", str(limit)],
                                 capsys)
        assert (code, out) == (3, "")
        assert message in err

    def test_count_minima_multicopy_7x4(self, tmp_path, capsys):
        path = tmp_path / "m74.json"
        run_cli(["generate", "multicopy", "--copies", "7", "-o", str(path)], capsys)
        doc = run_json(["count-minima", "-i", str(path), "--list-limit", "0"], capsys)
        assert (doc["n"], doc["count"]) == (28, 6 ** 7)

    @pytest.mark.parametrize("copies, count", [(12, 2176782336), (16, 2821109907456)],
                             ids=["12x4", "16x4"])
    def test_count_minima_multicopy_by_parts(self, tmp_path, capsys, copies, count):
        # 36 or 48 outer bits over the whole instance, and 16x4 has 64
        # variables, past the 62-bit masks; its one distinct part has 3
        # outer bits and 4 variables
        path = tmp_path / "m.json"
        run_cli(["generate", "multicopy", "--copies", str(copies), "-o", str(path)], capsys)
        started = time.perf_counter()
        doc = run_json(["count-minima", "-i", str(path), "--k", "1"], capsys)
        assert time.perf_counter() - started < 1.0
        assert (doc["n"], doc["count"], doc["counters"]) == (4 * copies, count,
                                                             {"minima": count})
        assert count == 6 ** copies and "minima" not in doc


# Zero fields and antiferromagnetic couplings: every assignment ties with
# one of its single flips, so this part has no strict minimum.
_FRUSTRATED_TRIANGLE = IsingInstance(3, [0, 0, 0], [(0, 1, 1), (1, 2, 1), (0, 2, 1)])


@st.composite
def disjoint_unions(draw):
    """One to three parts, each random with weights 1 or 3 or, at four
    variables, perhaps the all-pairs block of six minima; the first
    repeated up to twice; 0-3 isolated variables with non-zero fields, one
    of them perhaps with field 0; and perhaps a frustrated triangle
    (n <= 16).  The triangle takes the three largest indices, so its part
    comes after the others.  The rest are shuffled together; the first
    part and its copies keep their variables in order, so the copies come
    out as identical parts."""
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3)
                 .filter(lambda s: sum(s) <= 10))
    copies = draw(st.integers(0, min(2, (10 - sum(sizes)) // sizes[0])))
    subs = [gen_csse(4) if k == 4 and draw(st.booleans()) else
            random_instance(draw(st.integers(0, 10 ** 6)), n=k,
                            wmax=draw(st.sampled_from([1, 3])), allow_zero_field=False)
            for k in sizes]
    subs += [subs[0]] * copies
    alone = draw(st.integers(0, 3))
    flat = draw(st.sampled_from([False, False, True]))
    rest = sum(sub.n for sub in subs) + alone
    perm = draw(st.permutations(range(rest)))
    h = [draw(st.sampled_from([-2, -1, 1, 2])) for _ in range(rest)]
    if alone and draw(st.booleans()):
        h[perm[-1]] = 0
    triples, at = [], 0
    for sub in subs:
        place = perm[at:at + sub.n]
        if sub is subs[0]:
            place = sorted(place)
        at += sub.n
        for i, v in enumerate(place):
            h[v] = sub.h[i]
        triples += [(place[i], place[j], w) for i, j, w in sub.edges()]
    if flat:
        triples += [(rest + i, rest + j, w) for i, j, w in _FRUSTRATED_TRIANGLE.edges()]
        h += [0, 0, 0]
    return IsingInstance(len(h), h, triples)


def _interleaved(a, b):
    """``a`` on the even variables and ``b``, of the same size, on the odd ones."""
    h = [x for pair in zip(a.h, b.h) for x in pair]
    triples = [(2 * i, 2 * j, w) for i, j, w in a.edges()]
    triples += [(2 * i + 1, 2 * j + 1, w) for i, j, w in b.edges()]
    return IsingInstance(2 * a.n, h, triples)


def _run_captured(argv):
    # capsys is one capture per test, not per hypothesis draw
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=100, deadline=None)
@given(disjoint_unions(), st.integers(1, 3), st.booleans(),
       st.sampled_from([50, 2000, DEFAULT_BASIN_WORK_LIMIT]))
# Two parts whose minima, or whose basin sizes, do not come out of the
# Cartesian product in order: 36 minima of two interleaved all-pairs
# blocks, and basins of sizes (3, 2) times (5, 1).
@example(_interleaved(gen_csse(4), gen_csse(4)), 1, False, DEFAULT_BASIN_WORK_LIMIT)
@example(_interleaved(random_instance(15, n=5, wmax=1), random_instance(105, n=5, wmax=1)),
         1, False, DEFAULT_BASIN_WORK_LIMIT)
def test_landscape_commands_by_parts_match_the_whole_instance(inst, k, flipped_rule,
                                                              work_limit):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "union.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(inst.to_json())
        whole = enumerate_k_minima(inst, k)
        minima = [a.bitstring() for a in whole.minima]
        for limit in (0, 10 ** 6):
            code, out, err = _run_captured(["count-minima", "-i", path, "--k", str(k),
                                            "--list-limit", str(limit)])
            assert code == 0, err
            doc = json.loads(out)
            assert doc["count"] == len(minima)
            assert doc.get("minima") == (minima if len(minima) <= limit else None)
        code, out, err = _run_captured(["basins", "-i", path, "--k", str(k), "--work-limit",
                                        str(work_limit)] + ["--flipped-rule"] * flipped_rule)
    try:
        report = k_basins(inst, k, flipped_rule=flipped_rule, work_limit=work_limit)
    except EnumerationLimitError:
        assert (code, out) == (3, ""), out
        return
    assert code == 0, err
    doc = json.loads(out)
    assert (doc["vertex_count"], doc["basin_count"], doc["basin_sizes"], doc["strict_minima"]) \
        == (report.vertex_count, report.basin_count, list(report.basin_sizes), report.minima_count)
    joined = basins_by_parts(inst, k, work_limit, lambda part: k_basins(
        part, k, flipped_rule=flipped_rule, work_limit=work_limit))
    assert joined == report


class TestRepeatedCalls:
    # main() reuses one parser per process; an option one call sets must
    # not carry over into the next call's defaults.
    def test_count_minima_lists_again_after_list_limit_0(self, csse4_file, capsys):
        doc = run_json(["count-minima", "-i", csse4_file, "--list-limit", "0"], capsys)
        assert doc["count"] == 6 and "minima" not in doc
        doc = run_json(["count-minima", "-i", csse4_file], capsys)
        assert doc["count"] == 6 and len(doc["minima"]) == 6

    def test_solve_without_verify_after_verify(self, csse4_file, capsys):
        argv = ["solve", "--method", "brute", "-i", csse4_file]
        assert run_json(argv + ["--verify"], capsys)["verified"] is True
        assert "verified" not in run_json(argv, capsys)


class TestTsetAndZ:
    def test_tset_certificate_layout(self, csse4_file, capsys):
        doc = run_json(["tset", "-i", csse4_file, "--seed", "2"], capsys)
        cert = doc["certificate"]
        assert sorted(cert) == ["attempts", "checks", "constrained", "method", "ok",
                                "params", "strong_edges", "t", "t_size", "target_size"]
        assert sorted(cert["params"]) == ["c_cross", "c_internal", "c_load", "c_strong",
                                          "d", "epsilon", "target_fraction"]
        assert all(len(edge) == 2 for edge in cert["strong_edges"])

    def test_tset_certificate_revalidates(self, tmp_path, capsys):
        path = tmp_path / "mc.json"
        run_cli(["generate", "multicopy", "--copies", "6", "--block", "4",
                 "-o", str(path)], capsys)
        doc = run_json(["tset", "-i", str(path), "--seed", "1"], capsys)
        cert = doc["certificate"]
        assert cert["ok"] is True
        assert all(cert["checks"].values())
        assert doc["counters"]["t_size"] == cert["t_size"] > 0

    def test_tset_epsilon_needs_no_default_degree(self, tmp_path, capsys):
        # max degree 1: the default epsilon log2(d) / d is undefined, a given one is not
        path = tmp_path / "deg1.json"
        path.write_text('{"n": 4, "h": [1, 0, 0, 0], "J": [[0, 1, 2], [2, 3, -1]]}')
        cert = run_json(["tset", "-i", str(path), "--epsilon", "0.5"], capsys)["certificate"]
        assert cert["t"] == [3] and cert["ok"] is True
        assert (cert["params"]["d"], cert["params"]["epsilon"]) == (1, 0.5)
        code, out, err = run_cli(["tset", "-i", str(path)], capsys)
        assert (code, out) == (1, "") and "max degree >= 2" in err
        # an edgeless graph has no reference degree at all
        path.write_text('{"n": 3, "h": [1, 0, 0], "J": []}')
        code, out, err = run_cli(["tset", "-i", str(path), "--epsilon", "0.5"], capsys)
        assert (code, out) == (1, "") and "reference degree must be >= 1" in err

    def test_z_matches_effective_leaf_counter(self, capsys, tmp_path):
        path = tmp_path / "r12.json"
        run_cli(["generate", "random", "--n", "12", "--density", "0.4",
                 "--seed", "7", "-o", str(path)], capsys)
        z_doc = run_json(["z", "-i", str(path), "--tset-seed", "3"], capsys)
        solve_doc = run_json(["solve", "--method", "effective", "-i", str(path),
                              "--seed", "3"], capsys)
        assert z_doc["z"] == solve_doc["leaves_explored"]

    def test_z_frozen_example(self, csse4_file, capsys):
        doc = run_json(["z", "-i", csse4_file], capsys)
        assert doc["z"] == 8
        assert doc["t"] == [0]

    def test_z_and_solve_split_a_disconnected_instance(self, tmp_path, capsys):
        # multicopy 3x4 with two isolated variables in front: four parts,
        # the isolated pair being one edgeless part
        copies = IsingInstance.from_json_dict(
            run_json(["generate", "multicopy", "--copies", "3"], capsys)["instance"])
        inst = IsingInstance(14, [1, -1] + list(copies.h),
                             [(i + 2, j + 2, w) for i, j, w in copies.edges()], c0=copies.c0)
        path = tmp_path / "inst.json"
        path.write_text(inst.to_json())
        z_doc = run_json(["z", "-i", str(path)], capsys)
        assert z_doc["z"] == 1 + 3 * 2 ** 3
        assert z_doc["t"] == [0, 1, 2, 6, 10]
        assert z_doc["counters"] == {"t_size": 5, "components": 4}
        doc = run_json(["solve", "--method", "effective", "-i", str(path), "--verify"], capsys)
        assert doc["verified"] is True
        assert doc["assignment"] == "01" + "0011" * 3
        assert doc["leaves_explored"] == z_doc["z"]
        assert doc["outer_assignments"] == 1 + 3 * 2 ** 3
        assert doc["counters"]["components"] == 4
        assert doc["counters"]["tie_rows"] == 6 ** 3

    @pytest.mark.parametrize("family, t_source, t_size, z", [
        (["csse", "--n", "18"], "randomized", 5, 194_378),
        (["multicopy", "--copies", "3"], "coloring-class", 3, 24),
    ], ids=["csse18", "multicopy3x4"])
    def test_z_reports_where_t_came_from(self, tmp_path, capsys, family, t_source, t_size, z):
        path = tmp_path / "inst.json"
        run_cli(["generate", *family, "-o", str(path)], capsys)
        doc = run_json(["z", "-i", str(path), "--tset-seed", "2"], capsys)
        assert (doc["t_source"], doc["counters"]["t_size"], doc["z"]) == (t_source, t_size, z)
        solve_doc = run_json(["solve", "--method", "effective", "-i", str(path),
                              "--seed", "2"], capsys)
        assert solve_doc["counters"]["t_size"] == t_size


class TestProbe:
    def test_exact_and_max_unit_weights(self, tmp_path, capsys):
        path = tmp_path / "w.txt"
        path.write_text("1 1 1 1\n")
        exact = run_json(["probe", "--mode", "exact", "--weights-file", str(path),
                          "--delta", "1", "--h", "-1"], capsys)
        assert exact["probability"] == "5/8"
        best = run_json(["probe", "--mode", "max", "--weights-file", str(path),
                         "--delta", "1"], capsys)
        assert best["h_star"] == -1
        assert best["probability"] == "5/8"

    def test_mc_is_seed_deterministic(self, tmp_path, capsys):
        path = tmp_path / "w.txt"
        path.write_text("2 3 1 1 4\n")
        argv = ["probe", "--mode", "mc", "--weights-file", str(path),
                "--delta", "2", "--h", "1", "--samples", "4000", "--seed", "9"]
        first = run_json(argv, capsys)
        second = run_json(argv + ["--workers", "4"], capsys)
        assert first["estimate"] == second["estimate"]

    def test_scaling_table(self, capsys):
        doc = run_json(["probe", "--mode", "scaling", "--sizes", "4", "16"],
                       capsys)
        assert [row["n"] for row in doc["rows"]] == [4, 16]
        assert doc["ratios"][0] <= 0.6

    @pytest.mark.parametrize("h", ["9223372036854775807", str(2**63), str(-(2**64))])
    def test_mc_shift_beyond_int64(self, tmp_path, capsys, h):
        path = tmp_path / "w.txt"
        path.write_text("1\n")
        exact = run_json(["probe", "--mode", "exact", "--weights-file", str(path),
                          "--h", h], capsys)
        assert exact["probability"] == "0/1"
        mc = run_json(["probe", "--mode", "mc", "--weights-file", str(path),
                       "--h", h, "--samples", "1000"], capsys)
        assert (mc["estimate"], mc["std_error"]) == (0.0, 0.0)

    # refused at parse time, before the weights file is opened
    @pytest.mark.parametrize("option,value,low", [
        ("--samples", "0", 1), ("--samples", "-5", 1),
        ("--delta", "-1", 0), ("--sizes", "0", 1), ("--sizes", "-4", 1),
    ])
    def test_out_of_range_counts_are_usage_errors(self, tmp_path, capsys,
                                                  option, value, low):
        missing = str(tmp_path / "no-such-weights.txt")
        with pytest.raises(SystemExit) as exc:
            main(["probe", "--mode", "mc", "--weights-file", missing, option, value])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument %s: must be >= %d, got %s" % (option, low, value) in captured.err

    def test_scaling_needs_delta_of_one(self, capsys):
        code, out, err = run_cli(["probe", "--mode", "scaling", "--sizes", "4",
                                  "--delta", "0"], capsys)
        assert (code, out) == (1, "")
        assert "delta must be >= 1" in err

    def test_weights_file_required(self, capsys):
        code, _, err = run_cli(["probe", "--mode", "exact"], capsys)
        assert code == 1
        assert "weights-file" in err

    @pytest.mark.parametrize("mode", ["exact", "max"])
    def test_support_beyond_limit_is_resource_error(self, tmp_path, capsys, mode):
        path = tmp_path / "w.txt"
        path.write_text("10000000\n")
        code, out, err = run_cli(["probe", "--mode", mode, "--weights-file", str(path)],
                                 capsys)
        assert (code, out) == (3, "")
        assert "resource limit" in err

    def test_window_wider_than_the_support_needs_no_table(self, tmp_path, capsys):
        path = tmp_path / "w.txt"
        path.write_text("10000000\n")
        doc = run_json(["probe", "--mode", "max", "--weights-file", str(path),
                        "--delta", "10000000"], capsys)
        assert (doc["h_star"], doc["probability"]) == (0, "1/1")

    def test_zero_weight_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "w.txt"
        path.write_text("0\n")
        code, out, err = run_cli(["probe", "--mode", "exact",
                                  "--weights-file", str(path)], capsys)
        assert (code, out) == (2, "")
        assert "weight magnitudes must be >= 1" in err

    def test_malformed_weights_file(self, tmp_path, capsys):
        path = tmp_path / "w.txt"
        path.write_text("1 two 3\n")
        code, _, err = run_cli(["probe", "--mode", "exact",
                                "--weights-file", str(path)], capsys)
        assert code == 2

    # int() would read these as 10 and 3
    @pytest.mark.parametrize("token", ["1_0", "\u0663"])
    def test_loose_integer_tokens_are_rejected(self, tmp_path, capsys, token):
        path = tmp_path / "w.txt"
        path.write_text("%s 2\n" % token, encoding="utf-8")
        code, out, err = run_cli(["probe", "--mode", "exact",
                                  "--weights-file", str(path)], capsys)
        assert (code, out) == (2, "")
        assert "integers" in err


class TestBench:
    def test_multicopy_counter_structure(self, capsys):
        doc = run_json(["bench", "--family", "multicopy", "--sizes", "8", "12",
                        "--methods", "brute", "coloring"], capsys)
        by_key = {(r["n"], r["method"]): r for r in doc["table"]}
        for n in (8, 12):
            assert by_key[(n, "brute")]["leaves_explored"] == 2 ** n
            assert by_key[(n, "coloring")]["leaves_explored"] == (n // 4) * 2 ** 3

    def test_edgeless_effective_explores_single_leaf(self, capsys):
        doc = run_json(["bench", "--family", "edgeless", "--sizes", "10",
                        "--methods", "effective"], capsys)
        assert doc["table"][0]["leaves_explored"] == 1

    @pytest.mark.parametrize("family, shape", [("random", ["--density", "0.3"]),
                                               ("regular", ["--d", "3"])])
    def test_drawn_families_match_brute_and_generate(self, capsys, family, shape):
        # every method's energy is brute's, and every row's digest is that
        # of the instance that generate prints under the same parameters
        params = shape + ["--wmax", "5", "--seed", "2"]
        doc = run_json(["bench", "--family", family, "--sizes", "10", "12",
                        "--methods", "brute", "coloring", "combined"] + params, capsys)
        assert [(r["n"], r["method"]) for r in doc["table"]] == [
            (n, m) for n in (10, 12) for m in ("brute", "coloring", "combined")]
        for n in (10, 12):
            digest = run_json(["generate", family, "--n", str(n)] + params, capsys)["digest"]
            rows = [r for r in doc["table"] if r["n"] == n]
            assert all(r["energy"] == rows[0]["energy"] and r["digest"] == digest for r in rows)

    def test_empty_size_list(self, capsys):
        doc = run_json(["bench", "--family", "multicopy", "--sizes"], capsys)
        assert doc["table"] == []

    def test_csv_output(self, capsys):
        code, out, _ = run_cli(["bench", "--family", "csse", "--sizes", "4",
                                "--methods", "brute", "--table-format", "csv"],
                               capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("family,n,method,energy")
        assert len(lines) == 2
        assert lines[1].startswith("csse,4,brute,8,16")

    def test_size_not_multiple_of_block(self, capsys):
        code, _, err = run_cli(["bench", "--family", "multicopy",
                                "--sizes", "10"], capsys)
        assert code == 1
        assert "multiple" in err

    @pytest.mark.parametrize("block", ["0", "-4"])
    def test_block_below_one_is_usage_error(self, capsys, block):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--family", "multicopy", "--sizes", "8", "--block", block])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --block: must be >= 1" in captured.err


class TestOutputPath:
    @pytest.mark.parametrize("argv", [
        ["generate", "csse", "--n", "4"],
        ["solve", "--method", "brute", "-i", "CSSE4"],
        ["count-minima", "-i", "CSSE4"],
        ["basins", "-i", "CSSE4"],
        ["tset", "-i", "CSSE4"],
        ["z", "-i", "CSSE4"],
        ["probe", "--mode", "scaling", "--sizes", "4"],
        ["bench", "--family", "csse", "--sizes", "4", "--methods", "brute"],
    ], ids=lambda argv: argv[0])
    def test_every_document_carries_the_common_header(self, csse4_file, capsys, argv):
        doc = run_json([csse4_file if a == "CSSE4" else a for a in argv], capsys)
        assert doc["command"] == argv[0]
        assert doc["version"]
        assert isinstance(doc["wall_time_s"], float)
        assert "seed" in doc

    @pytest.mark.parametrize("argv", [
        ["generate", "csse", "--n", "4"],
        ["bench", "--family", "csse", "--sizes", "4", "--table-format", "csv"],
    ], ids=lambda argv: argv[0])
    def test_unwritable_output_is_input_error(self, tmp_path, capsys, argv):
        target = tmp_path / "missing" / "x.out"
        code, out, err = run_cli(argv + ["-o", str(target)], capsys)
        assert code == 2
        assert out == ""
        assert "input error" in err
        assert not target.exists()


class TestErrorPaths:
    def test_unknown_method_is_usage_error(self, csse4_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--method", "nope", "-i", csse4_file])
        assert exc.value.code == 1

    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_missing_input_file(self, capsys):
        code, _, err = run_cli(["solve", "--method", "brute",
                                "-i", "/nonexistent/x.json"], capsys)
        assert code == 2

    @pytest.mark.parametrize("text, message", [
        ('{"n": 3, "h": [1, 2]}', "h must be a list of length n"),
        ('{"n":1,"h":[0],"J":null}', "J must be a list of [i, j, w] triples"),
        ('{"n":1,"h":[0],"J":5}', "J must be a list of [i, j, w] triples"),
        ('{"n": 3,', "instance is not valid JSON"),
    ], ids=["short-h", "J-null", "J-int", "cut"])
    def test_malformed_instance_json(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, out, err = run_cli(["solve", "--method", "brute", "-i", str(path)],
                                 capsys)
        assert (code, out) == (2, "")
        assert "input error: " + message in err

    @pytest.mark.parametrize("name, argv", [
        ("bad.json", ["solve", "--method", "brute", "-i"]),
        ("bad.txt", ["probe", "--mode", "max", "--weights-file"]),
        ("bad.wcnf", ["solve", "--method", "brute", "--format", "wcnf", "-i"]),
    ], ids=["instance", "weights", "wcnf"])
    def test_non_utf8_input_is_input_error(self, tmp_path, capsys, name, argv):
        path = tmp_path / name
        path.write_bytes(b'\xff\xfe{"n":1}')
        code, out, err = run_cli(argv + [str(path)], capsys)
        assert (code, out) == (2, "")
        assert "input error: input is not UTF-8 text" in err

    def test_non_utf8_stdin_is_input_error(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"\xff")))
        code, out, err = run_cli(["solve", "--method", "brute"], capsys)
        assert (code, out) == (2, "")
        assert "input error: input is not UTF-8 text" in err

    def test_non_integer_fields_are_input_errors(self, tmp_path, capsys):
        path = tmp_path / "float.json"
        path.write_text('{"n": 2, "h": [1.7, true], "c0": 2.9, "J": []}')
        code, out, err = run_cli(["solve", "--method", "brute", "-i", str(path)],
                                 capsys)
        assert code == 2
        assert out == ""
        assert "integer" in err

    def test_malformed_wcnf(self, tmp_path, capsys):
        path = tmp_path / "bad.wcnf"
        path.write_text("p wcnf x y\n")
        code, _, err = run_cli(["solve", "--method", "brute", "-i", str(path),
                                "--format", "wcnf"], capsys)
        assert code == 2

    @pytest.mark.parametrize("text", ["p wcnf 2 1\n1_0 1 -2 0\n", "p wcnf 2 1_0\n"])
    def test_underscored_wcnf_integers_are_rejected(self, tmp_path, capsys, text):
        path = tmp_path / "bad.wcnf"
        path.write_text(text)
        code, out, err = run_cli(["solve", "--method", "brute", "-i", str(path),
                                  "--format", "wcnf"], capsys)
        assert (code, out) == (2, "")

    def test_wcnf_weights_overflowing_the_energy_budget(self, tmp_path, capsys):
        # a unit clause of weight 2^62 reduces to c0 = 2^63, h = [-2^63]; the
        # WCNF file and the same instance as JSON are both input errors
        wcnf = tmp_path / "huge.wcnf"
        wcnf.write_text("p wcnf 1 1\n%d 1 0\n" % 2**62)
        doc = tmp_path / "huge.json"
        doc.write_text('{"n": 1, "h": [%d], "c0": %d, "J": []}' % (-2**63, 2**63))
        for path in (wcnf, doc):
            code, out, err = run_cli(["solve", "--method", "brute", "-i", str(path)], capsys)
            assert (code, out) == (2, ""), path
            assert "energy budget" in err

    def test_resource_limit(self, tmp_path, capsys):
        from spinscape.instance import IsingInstance

        path = tmp_path / "big.json"
        path.write_text(IsingInstance(30, [1] * 30).to_json())
        code, _, err = run_cli(["solve", "--method", "brute", "-i", str(path)],
                               capsys)
        assert code == 3

    # random n = 60: max degree 12, so no T-set search; the largest color
    # class has 18 members, which leaves 42 outer bits
    @pytest.mark.parametrize("argv, message", [
        (["solve", "--method", "effective"], "no branching set keeps the scan within limits"),
        (["z"], "no branching set keeps the scan within limits"),
        (["solve", "--method", "coloring"], "outer enumeration needs 42 bits, limit is 26"),
        (["count-minima"], "outer enumeration needs 42 bits, limit is 26"),
        (["basins"], "outer enumeration needs 42 bits, limit is 26"),
        (["solve", "--method", "brute"], "outer enumeration needs 60 bits, limit is 26"),
    ], ids=["effective", "z", "coloring", "count-minima", "basins", "brute"])
    def test_wide_instance_is_refused_by_every_scan(self, tmp_path, capsys, argv, message):
        path = tmp_path / "r60.json"
        run_cli(["generate", "random", "--n", "60", "--density", "0.1",
                 "--seed", "1", "-o", str(path)], capsys)
        code, out, err = run_cli(argv + ["-i", str(path)], capsys)
        assert (code, out) == (3, "")
        assert "resource limit: %s" % message in err

    @pytest.mark.parametrize("alpha", ["5", "-1", "nan", "abc"])
    def test_alpha_outside_open_unit_interval_is_usage_error(self, tmp_path, capsys, alpha):
        # average degree below 2: the solver falls back before any side-set search
        path = tmp_path / "sparse.json"
        run_cli(["generate", "random", "--n", "12", "--density", "0.05",
                 "--seed", "1", "-o", str(path)], capsys)
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--method", "combined", "-i", str(path), "--alpha=" + alpha])
        assert exc.value.code == 1
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("retries", ["0", "-3"])
    def test_tset_max_retries_below_one_is_usage_error(self, csse4_file, capsys, retries):
        with pytest.raises(SystemExit) as exc:
            main(["tset", "-i", csse4_file, "--max-retries=" + retries])
        assert exc.value.code == 1
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv", [
        ["generate", "column", "--f", "2", "--l", "2", "--seed"],
        ["generate", "random", "--n", "6", "--density", "0.5", "--seed"],
        ["generate", "regular", "--n", "6", "--d", "3", "--seed"],
        ["solve", "--method", "effective", "-i", "CSSE4", "--seed"],
        ["count-minima", "-i", "CSSE4", "--seed"],
        ["basins", "-i", "CSSE4", "--seed"],
        ["tset", "-i", "CSSE4", "--seed"],
        ["z", "-i", "CSSE4", "--tset-seed"],
        ["probe", "--mode", "scaling", "--sizes", "4", "--seed"],
        ["bench", "--family", "csse", "--sizes", "4", "--seed"],
    ], ids=lambda argv: "-".join(argv[:2]))
    def test_negative_seed_is_usage_error(self, csse4_file, capsys, argv):
        # refused at parse time, also where no search would draw from the seed
        argv = [csse4_file if a == "CSSE4" else a for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["-1"])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument %s: must be >= 0, got -1" % argv[-1] in captured.err

    def test_regular_wmax_below_one_is_usage_error(self, capsys):
        for d in ("3", "0"):
            code, out, err = run_cli(["generate", "regular", "--n", "10", "--d", d,
                                      "--wmax", "0"], capsys)
            assert (code, out) == (1, ""), d
            assert "need wmax >= 1" in err

    def test_bad_jmax_is_usage_error(self, csse4_file, capsys):
        code, _, err = run_cli(["solve", "--method", "combined",
                                "-i", csse4_file, "--jmax", "1"], capsys)
        assert code == 1


class TestWorkers:
    @pytest.mark.parametrize("workers", ["0", "-1"])
    @pytest.mark.parametrize("argv", [
        ["solve", "--method", "brute"],
        ["probe", "--mode", "scaling", "--sizes", "4"],
        ["bench", "--family", "csse", "--sizes", "4"],
    ], ids=["solve", "probe", "bench"])
    def test_below_one_is_usage_error(self, csse4_file, capsys, argv, workers):
        if argv[0] == "solve":
            argv = argv + ["-i", csse4_file]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--workers", workers])
        assert exc.value.code == 1
        assert "--workers" in capsys.readouterr().err


class TestStrictIntegerOptions:
    # int() would read "1_0" as 10 and "٣" (Arabic-Indic three) as 3
    @pytest.mark.parametrize("token", ["1_0", "٣", " 3", "3.0", ""])
    @pytest.mark.parametrize("option,argv", [
        ("--delta", ["probe", "--mode", "scaling", "--sizes", "4"]),
        ("--h", ["probe", "--mode", "scaling", "--sizes", "4"]),
        ("--k", ["count-minima"]),
        ("--seed", ["solve", "--method", "effective"]),
        ("--workers", ["solve", "--method", "brute"]),
    ], ids=["delta", "h", "k", "seed", "workers"])
    def test_loose_tokens_are_usage_errors(self, csse4_file, capsys, option, argv, token):
        if argv[0] != "probe":
            argv = argv + ["-i", csse4_file]
        with pytest.raises(SystemExit) as exc:
            main(argv + [option, token])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument %s: invalid int value" % option in captured.err

    @pytest.mark.parametrize("option,value", [
        ("--delta", 0), ("--delta", 7), ("--delta", 2**63),
        ("--h", 2**63 - 1), ("--h", 2**63), ("--h", -(2**64)), ("--h", -3),
    ])
    def test_well_formed_values_keep_their_meaning(self, tmp_path, capsys, option, value):
        path = tmp_path / "w.txt"
        path.write_text("1 2 3\n")
        doc = run_json(["probe", "--mode", "exact", "--weights-file", str(path),
                        option, str(value)], capsys)
        assert doc[option[2:]] == value

    @pytest.mark.parametrize("option,argv", [
        ("--k", ["count-minima"]),
        ("--seed", ["solve", "--method", "effective"]),
        ("--workers", ["solve", "--method", "brute"]),
    ], ids=["k", "seed", "workers"])
    def test_signed_tokens_are_read_as_integers(self, csse4_file, capsys, option, argv):
        doc = run_json(argv + ["-i", csse4_file, option, "+2"], capsys)
        assert doc.get(option[2:], 2) == 2

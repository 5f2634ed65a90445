import json

import pytest

from spinscape.cli import main
from spinscape.instance import IsingInstance


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

    def test_zero_limits_are_accepted(self, csse4_file, capsys):
        doc = run_json(["count-minima", "-i", csse4_file, "--list-limit", "0"], capsys)
        assert doc["count"] == 6 and "minima" not in doc
        code, _, err = run_cli(["basins", "-i", csse4_file, "--work-limit", "0"], capsys)
        assert code == 3 and "work limit" in err


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

    def test_malformed_weights_file(self, tmp_path, capsys):
        path = tmp_path / "w.txt"
        path.write_text("1 two 3\n")
        code, _, err = run_cli(["probe", "--mode", "exact",
                                "--weights-file", str(path)], capsys)
        assert code == 2


class TestBench:
    def test_multicopy_counter_structure(self, capsys):
        doc = run_json(["bench", "--family", "multicopy", "--sizes", "8", "12",
                        "--methods", "brute", "coloring"], capsys)
        by_key = {(r["n"], r["method"]): r for r in doc["table"]}
        for n in (8, 12):
            assert by_key[(n, "brute")]["leaves_explored"] == 2 ** n
            assert by_key[(n, "coloring")]["leaves_explored"] == 2 ** (3 * n // 4)

    def test_edgeless_effective_explores_single_leaf(self, capsys):
        doc = run_json(["bench", "--family", "edgeless", "--sizes", "10",
                        "--methods", "effective"], capsys)
        assert doc["table"][0]["leaves_explored"] == 1

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

    def test_malformed_instance_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 3, "h": [1, 2]}')
        code, _, err = run_cli(["solve", "--method", "brute", "-i", str(path)],
                               capsys)
        assert code == 2

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

    def test_resource_limit(self, tmp_path, capsys):
        from spinscape.instance import IsingInstance

        path = tmp_path / "big.json"
        path.write_text(IsingInstance(30, [1] * 30).to_json())
        code, _, err = run_cli(["solve", "--method", "brute", "-i", str(path)],
                               capsys)
        assert code == 3

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

import contextlib
import io
import json
import os
import runpy
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from harmlab import cli
from harmlab.cli import main
from harmlab.errors import (BudgetExceeded, HarmlabError, InvalidInput,
                            NumericalFailure)

FIXTURES = Path(__file__).parent / "fixtures"
DEMOS = Path(__file__).parent.parent / "demos"


def run(argv):
    return main(argv)


def exit_code(argv):
    """main's return value, or the code argparse exits with."""
    try:
        return run(argv)
    except SystemExit as exc:
        return exc.code


class TestSpectral:
    def test_json_report(self, tmp_path):
        out = tmp_path / "rep.json"
        assert run(["spectral", "--graph", "cycle:6", "--p", "3",
                    "--out", str(out)]) == 0
        obj = json.loads(out.read_text())
        rep = obj["report"]
        assert abs(rep["kappa1"] - 2 / 3) < 1e-12
        assert abs(rep["lambda2"] - 0.5) < 1e-12
        assert all(q["holds"] for q in rep["inequalities"])

    def test_output_matches_frozen_fixture(self, monkeypatch, capsys):
        # every number, witness and config hash byte for byte; the JSON
        # graph is named relative to the fixture directory
        monkeypatch.chdir(FIXTURES)
        cases = json.loads((FIXTURES / "spectral_cli.json").read_text())
        for case in cases:
            assert run(case["argv"]) == 0
            assert capsys.readouterr().out == case["stdout"], case["argv"]

    @pytest.mark.parametrize("p", ["1", "2", "1,2"])
    def test_exact_exponents_only(self, p, capsys):
        # the exact rows cover p = 1 and 2; no other exponent is estimated
        assert run(["spectral", "--graph", "cycle:6", "--p", p]) == 0
        rep = json.loads(capsys.readouterr().out)["report"]
        assert rep["entries"] == []
        assert [q["p"] for q in rep["inequalities"]] == [2] + [None] * 4

    def test_ball_outputs_match_frozen_fixture(self, capsys):
        # window stats, transport chain, walk profile and harmonic witness
        # and divergence on Cayley balls, byte for byte
        cases = json.loads((FIXTURES / "cli_outputs.json").read_text())
        for case in cases:
            assert run(case["argv"]) == 0
            assert capsys.readouterr().out == case["stdout"], case["argv"]

    def test_demo_outputs_match_frozen_fixture(self, capsys):
        # every demo's stdout, byte for byte
        cases = json.loads((FIXTURES / "demo_outputs.json").read_text())
        for case in cases:
            runpy.run_path(str(DEMOS / case["script"]), run_name="__main__")
            assert capsys.readouterr().out == case["stdout"], case["script"]

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["spectral", "--graph", "hypercube:3", "--out", str(a)])
        run(["spectral", "--graph", "hypercube:3", "--out", str(b)])
        assert a.read_text() == b.read_text()


class TestCsvFormat:
    def test_provenance_and_digits(self, tmp_path):
        out = tmp_path / "w.csv"
        assert run(["walk", "profile", "--group", "zd:1", "--radius", "12",
                    "--steps", "6", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("# harmlab ")
        assert lines[1] == "n,H0,H1,H2,Hinf,speed,grad_l1,return_prob"
        assert len(lines) == 2 + 7
        first = lines[2].split(",")
        assert first[0] == "0" and float(first[1]) == 0.0
        assert "-0," not in out.read_text()

    def test_exit_csv(self, tmp_path):
        out = tmp_path / "e.csv"
        assert run(["walk", "exit", "--group", "zd:1", "--region", "5",
                    "--to", "s1", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        rows = [l.split(",") for l in lines[2:]]
        # two exit vertices; columns sum to one each
        assert len(rows) == 2
        assert abs(sum(float(r[2]) for r in rows) - 1.0) < 1e-9
        assert abs(sum(float(r[3]) for r in rows) - 1.0) < 1e-9


class TestTransport:
    def test_wasserstein(self, tmp_path):
        src = tmp_path / "src.csv"
        dst = tmp_path / "dst.csv"
        src.write_text("vertex,mass\n0,1.0\n")
        dst.write_text("vertex,mass\n3,1.0\n")
        out = tmp_path / "w.json"
        assert run(["transport", "wasserstein", "--graph", "cycle:8",
                    "--src", str(src), "--dst", str(dst),
                    "--out", str(out)]) == 0
        rep = json.loads(out.read_text())["report"]
        assert abs(rep["cost"] - 3.0) < 1e-9
        assert rep["residual"] < 1e-9

    def test_chain(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run(["transport", "chain", "--group", "zd:1",
                    "--levels", "1..3", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 2 + 3


class TestIso:
    def test_profile(self, tmp_path):
        out = tmp_path / "p.csv"
        assert run(["iso", "profile", "--graph", "cycle:6",
                    "--max-size", "3", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[1] == "size,boundary,ratio,envelope,witness"
        row3 = lines[4].split(",")
        assert row3[0] == "3" and row3[1] == "2"

    def test_radial(self, tmp_path):
        members = tmp_path / "set.json"
        members.write_text(json.dumps([0, 1, 2]))
        out = tmp_path / "r.json"
        assert run(["iso", "radial", "--graph", "cycle:10",
                    "--set", str(members), "--out", str(out)]) == 0
        rep = json.loads(out.read_text())["report"]
        assert rep["holds"] is True

    def test_budget_exit_code(self, tmp_path):
        assert run(["iso", "profile", "--graph", "hypercube:4",
                    "--max-size", "8", "--budget", "50",
                    "--out", str(tmp_path / "x.csv")]) == 3


class TestWindowAndHarmonic:
    def test_window_stats(self, tmp_path):
        out = tmp_path / "w.json"
        assert run(["window", "stats", "--square", "4",
                    "--out", str(out)]) == 0
        rep = json.loads(out.read_text())["report"]
        assert rep["codim"] == 15
        assert rep["max_diag"] >= rep["bound"] - 1e-9

    def test_probe(self, tmp_path):
        out = tmp_path / "p.csv"
        assert run(["harmonic", "probe", "--group", "zd:1",
                    "--radii", "2,4,8", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        vals = [float(l.split(",")[1]) for l in lines[2:]]
        assert vals == sorted(vals, reverse=True)

    def test_witness(self, tmp_path):
        out = tmp_path / "w.csv"
        assert run(["harmonic", "witness", "--group", "zd:2", "--n", "4",
                    "--out", str(out)]) == 0
        for line in out.read_text().strip().split("\n")[2:]:
            n, c0, c0b, l1, l1b = (float(x) for x in line.split(","))
            assert c0 <= c0b + 1e-12 and l1 <= l1b + 1e-12


class TestPlumbing:
    def test_no_command(self):
        assert run([]) == 2

    def test_bad_graph_spec(self, tmp_path):
        assert run(["spectral", "--graph", "nope:3",
                    "--out", str(tmp_path / "x.json")]) == 2

    def test_bad_config_file(self, tmp_path):
        bad = tmp_path / "c.json"
        bad.write_text("{not json")
        assert run(["--config", str(bad), "spectral",
                    "--graph", "cycle:4"]) == 2

    def test_dry_run(self, capsys):
        assert run(["spectral", "--graph", "cycle:4", "--dry-run"]) == 0
        assert "config ok" in capsys.readouterr().out

    def test_ball_cap_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HARMLAB_BUDGET", "10")
        assert run(["walk", "profile", "--group", "free:2", "--radius", "6",
                    "--steps", "2", "--out", str(tmp_path / "x.csv")]) == 3

    @pytest.mark.parametrize("spec, code", [
        ("tree:3,8", 3), ("tree:3,6", 0), ("grid:20,20", 0),
        ("grid:20,21", 3)])
    def test_ball_cap_env_caps_builtin_graphs(self, spec, code, monkeypatch,
                                              capsys):
        # tree:3,8 has 766 vertices, tree:3,6 190, grid:w,h w * h
        monkeypatch.setenv("HARMLAB_BUDGET", "400")
        assert run(["iso", "profile", "--graph", spec,
                    "--max-size", "2"]) == code
        assert ("exceeds cap 400" in capsys.readouterr().err) == (code == 3)

    def test_ball_cap_flag_caps_builtin_graphs(self, capsys):
        assert run(["spectral", "--graph", "cycle:6", "--ball-cap", "5"]) == 3
        assert "graph of 6 vertices exceeds cap 5" in capsys.readouterr().err

    def test_edgeless_graph(self, tmp_path, capsys):
        one = tmp_path / "one.json"
        one.write_text('{"vertices": 1, "edges": []}')
        assert run(["spectral", "--graph", str(one)]) == 2
        assert "no edges" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["nosuch", "zd:x"])
    def test_unknown_group(self, spec, capsys):
        assert run(["walk", "profile", "--group", spec, "--radius", "3",
                    "--steps", "2"]) == 2
        assert capsys.readouterr().err.count("\n") == 1

    def test_unknown_generator(self, capsys):
        assert run(["walk", "exit", "--group", "zd:2", "--region", "3",
                    "--to", "nosuch"]) == 2
        assert "nosuch" in capsys.readouterr().err

    def test_window_stats_needs_z2(self, capsys):
        assert run(["window", "stats", "--square", "3", "--label", "q"]) == 2
        assert capsys.readouterr().out == ""

    def test_ball_cap_env_not_an_integer(self, monkeypatch, capsys):
        monkeypatch.setenv("HARMLAB_BUDGET", "abc")
        assert run(["walk", "profile", "--group", "zd:2", "--radius", "3",
                    "--steps", "2"]) == 2
        assert "HARMLAB_BUDGET" in capsys.readouterr().err

    @pytest.mark.parametrize("cap", ["0", "-5"])
    def test_ball_cap_env_below_one(self, monkeypatch, capsys, cap):
        # like --ball-cap 0: invalid input, not an exceeded budget
        monkeypatch.setenv("HARMLAB_BUDGET", cap)
        assert run(["walk", "profile", "--group", "zd:2", "--radius", "3",
                    "--steps", "2"]) == 2
        assert "HARMLAB_BUDGET must be an integer >= 1" in (
            capsys.readouterr().err)

    def test_console_script(self):
        proc = subprocess.run([sys.executable, "-m", "harmlab.cli",
                               "spectral", "--graph", "cycle:4", "--p", "3"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert '"kappa1"' in proc.stdout

    def test_package_runs_as_a_module(self):
        # python -m harmlab, with the exit status of cli.main
        for argv, code in [(["--graph", "cycle:6", "--dry-run"], 0),
                           (["--graph", "nope:3"], 2)]:
            proc = subprocess.run([sys.executable, "-m", "harmlab",
                                   "spectral", *argv],
                                  capture_output=True, text=True)
            assert proc.returncode == code, proc.stderr
        assert proc.stderr.startswith("invalid input")


def one_line_exit_2(argv, capsys):
    """The command exits 2 with a single line on stderr and no output."""
    code = run(argv)
    out, err = capsys.readouterr()
    assert code == 2
    assert out == "" and err.count("\n") == 1
    return err


class TestExitCodes:
    def test_one_error_class_per_exit_code(self):
        assert HarmlabError.__subclasses__() == [InvalidInput, BudgetExceeded,
                                                 NumericalFailure]

    @pytest.mark.parametrize("cls, code", [(InvalidInput, 2),
                                           (BudgetExceeded, 3),
                                           (NumericalFailure, 4)])
    def test_class_decides_the_exit_code(self, cls, code, monkeypatch,
                                         capsys):
        def fail(args):
            raise cls("stop")

        monkeypatch.setattr(cli, "cmd_spectral", fail)
        assert run(["spectral", "--graph", "cycle:6"]) == code
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1

    def test_non_regular_graph(self, tmp_path, capsys):
        path = tmp_path / "path.json"
        path.write_text(json.dumps({"vertices": 3, "edges": [[0, 1], [1, 2]]}))
        for graph in ("tree:3,3", str(path)):
            err = one_line_exit_2(["spectral", "--graph", graph], capsys)
            assert "regular graph" in err

    def test_disconnected_vertex_set(self, tmp_path, capsys):
        path = tmp_path / "set.json"
        path.write_text("[0, 10]")
        err = one_line_exit_2(["iso", "radial", "--graph", "grid:4,4",
                               "--set", str(path)], capsys)
        assert "disconnected" in err

    def test_walk_reaches_the_truncation_sphere(self, capsys):
        err = one_line_exit_2(["walk", "profile", "--group", "zd:2",
                               "--radius", "3", "--steps", "5"], capsys)
        assert "increase the ball radius" in err

    def test_second_origin_outside_the_region(self, capsys):
        # the one-vertex region of --region 0 does not hold the target; the
        # library's ValueError was a traceback and exit 1
        err = one_line_exit_2(["walk", "exit", "--group", "zd:2",
                               "--region", "0", "--to", "s1"], capsys)
        assert "Traceback" not in err
        assert "--to s1" in err and "--region 0" in err

    def test_dense_eigensolve_limit(self, capsys):
        assert run(["spectral", "--graph", "cycle:5001"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("budget exceeded") and "limit 5000" in err


class TestFileInputs:
    @pytest.mark.parametrize("row", ["-1,1", "99,1", "1,abc", "1", "1,2,3",
                                     "x,1", "1,nan"])
    def test_bad_measure_row(self, row, tmp_path, capsys):
        src, dst = tmp_path / "src.csv", tmp_path / "dst.csv"
        src.write_text("vertex,mass\n0,1\n")
        dst.write_text(f"vertex,mass\n{row}\n")
        err = one_line_exit_2(["transport", "wasserstein", "--graph",
                               "cycle:6", "--src", str(src), "--dst",
                               str(dst)], capsys)
        assert "line 2" in err

    def test_unequal_masses(self, tmp_path, capsys):
        src, dst = tmp_path / "src.csv", tmp_path / "dst.csv"
        src.write_text("0,1\n")
        dst.write_text("3,0.5\n")
        err = one_line_exit_2(["transport", "wasserstein", "--graph",
                               "cycle:8", "--src", str(src), "--dst",
                               str(dst)], capsys)
        assert "masses differ" in err

    def test_mass_totals_overflow(self, tmp_path, capsys):
        # both totals are inf and inf - inf is NaN: the masses still
        # count as different, with no numpy warning on the way
        src, dst = tmp_path / "src.csv", tmp_path / "dst.csv"
        src.write_text("0,1e308\n1,1e308\n")
        dst.write_text("2,1e308\n3,1e308\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            err = one_line_exit_2(["transport", "wasserstein", "--graph",
                                   "cycle:6", "--src", str(src), "--dst",
                                   str(dst)], capsys)
        assert "masses differ" in err

    def test_repeated_measure_vertex(self, tmp_path, capsys):
        # each file lists a mass of 1; keeping the last row would halve it
        src, dst = tmp_path / "src.csv", tmp_path / "dst.csv"
        src.write_text("0,0.5\n0,0.5\n")
        dst.write_text("1,0.5\n1,0.5\n")
        err = one_line_exit_2(["transport", "wasserstein", "--graph",
                               "cycle:6", "--src", str(src), "--dst",
                               str(dst)], capsys)
        assert "line 2" in err

    def test_missing_measure_file(self, tmp_path, capsys):
        src = tmp_path / "src.csv"
        src.write_text("0,1\n")
        one_line_exit_2(["transport", "wasserstein", "--graph", "cycle:6",
                         "--src", str(src), "--dst",
                         str(tmp_path / "missing.csv")], capsys)

    @pytest.mark.parametrize("content", [None, "[0, 1", "[0, 99]", "[-1]",
                                         "[]", '{"a": 1}', "[0.5]",
                                         "[0, 5]"])
    def test_bad_vertex_set(self, content, tmp_path, capsys):
        path = tmp_path / "set.json"
        if content is not None:
            path.write_text(content)
        one_line_exit_2(["iso", "radial", "--graph", "cycle:10",
                         "--set", str(path)], capsys)

    def test_graph_file_not_connected(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"vertices": 4,
                                    "edges": [[0, 1], [2, 3]]}))
        err = one_line_exit_2(["spectral", "--graph", str(path)], capsys)
        assert "is not connected" in err

    def test_graph_file_is_a_directory(self, tmp_path, capsys):
        err = one_line_exit_2(["spectral", "--graph", str(tmp_path)], capsys)
        assert "cannot read graph file" in err

    def test_out_into_a_missing_directory(self, tmp_path, capsys):
        one_line_exit_2(["spectral", "--graph", "cycle:6", "--out",
                         str(tmp_path / "missing" / "rep.json")], capsys)
        assert not (tmp_path / "missing").exists()

    def test_graph_file_not_an_object(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text("[1, 2]")
        one_line_exit_2(["spectral", "--graph", str(path)], capsys)

    # a triangle but for one value, which json gives as a float, string or
    # bool: none is coerced to an int
    @pytest.mark.parametrize("vertices, edge, key", [
        (3.7, [0, 2], "vertices"), ("3", [0, 2], "vertices"),
        (True, [0, 2], "vertices"), (3, [0, 2.5], "edges"),
        (3, ["0", "2"], "edges"), (3, [True, 2], "edges")])
    def test_graph_file_values_are_ints(self, vertices, edge, key, tmp_path,
                                        capsys):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"vertices": vertices,
                                    "edges": [[0, 1], [1, 2], edge]}))
        err = one_line_exit_2(["spectral", "--graph", str(path)], capsys)
        assert f'"{key}"' in err

    @pytest.mark.parametrize("vertices, cap", [(10 ** 20, []),
                                               (5, ["--ball-cap", "4"])])
    def test_graph_file_over_the_cap(self, vertices, cap, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"vertices": vertices, "edges": [
            [0, 1], [1, 2], [2, 3], [3, 4], [0, 4]]}))
        assert run(["spectral", "--graph", str(path)] + cap) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("budget exceeded")


class TestArgumentValues:
    @pytest.mark.parametrize("radii", ["a..b", "3..x", "1,,2", "5..3", "-1",
                                       "1..2..3"])
    def test_bad_radii(self, radii, capsys):
        one_line_exit_2(["harmonic", "probe", "--group", "zd:1",
                         "--radii", radii], capsys)

    def test_bad_levels(self, capsys):
        one_line_exit_2(["transport", "chain", "--group", "zd:1",
                         "--levels", "1..x"], capsys)

    @pytest.mark.parametrize("p", ["x", "1.5,,3", "0.5", "inf", "nan"])
    def test_bad_spectral_p(self, p, capsys):
        one_line_exit_2(["spectral", "--graph", "cycle:6", "--p", p], capsys)

    @pytest.mark.parametrize("p", ["0.5", "nan"])
    def test_bad_chain_p(self, p, capsys):
        # the library's exponent gate, before any ball is built
        err = one_line_exit_2(["transport", "chain", "--group", "zd:2",
                               "--levels", "2..3", "--p", p], capsys)
        assert f"p={float(p)} not in {{0}} | [1, inf]" in err

    @pytest.mark.parametrize("config", [{"radius": "x"}, {"radius": 2.5},
                                        {"radius": True},
                                        {"laziness": "lazy"},
                                        {"dry_run": "yes"}, [1, 2],
                                        {"radius": 0}, {"steps": -1},
                                        {"laziness": 1.5}, {"ball_cap": 0}])
    def test_bad_config_value(self, config, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        one_line_exit_2(["--config", str(path), "walk", "profile", "--group",
                         "zd:1", "--radius", "6", "--steps", "2"], capsys)

    @pytest.mark.parametrize("value", ["0.25", 0.25])
    def test_config_values_take_the_option_type(self, value, tmp_path):
        # a value converts as on the command line, so the output (config
        # hash included) matches the flag; unknown keys are ignored
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"laziness": value, "unrelated": 1}))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["walk", "profile", "--group", "zd:1", "--radius", "8",
                "--steps", "3"]
        assert run(["--config", str(cfg)] + argv + ["--out", str(a)]) == 0
        assert run(argv + ["--laziness", "0.25", "--out", str(b)]) == 0
        assert a.read_text() == b.read_text()

    def test_command_line_wins_over_config(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"steps": 2}))
        assert run(["--config", str(cfg), "walk", "profile", "--group",
                    "zd:1", "--radius", "6", "--steps", "4"]) == 0
        rows = capsys.readouterr().out.strip().split("\n")[2:]
        assert [r.split(",")[0] for r in rows] == ["0", "1", "2", "3", "4"]

    def test_config_supplies_a_required_option(self, tmp_path, capsys):
        # same bytes (config hash included) as the flag; a flag still wins
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"graph": "cycle:6"}))
        assert run(["--config", str(cfg), "spectral", "--p", "3"]) == 0
        from_config = capsys.readouterr().out
        assert run(["spectral", "--graph", "cycle:6", "--p", "3"]) == 0
        assert capsys.readouterr().out == from_config
        assert run(["--config", str(cfg), "spectral", "--graph", "cycle:5",
                    "--p", "3"]) == 0
        assert '"graph": "cycle:5"' in capsys.readouterr().out
        # an option the config leaves out is still required
        cfg.write_text(json.dumps({"radius": 4}))
        assert exit_code(["--config", str(cfg), "walk", "profile",
                          "--group", "zd:1"]) == 2


OUT_OF_RANGE = [
    "walk profile --group zd:2 --radius 0 --steps 2",
    "walk profile --group zd:2 --radius 4 --steps -1",
    "walk profile --group zd:2 --radius 4 --steps 2 --laziness 1.5",
    "walk profile --group zd:2 --radius 4 --steps 2 --laziness -0.1",
    "walk profile --group zd:2 --radius 4 --steps 2 --ball-cap 0",
    "walk exit --group zd:2 --region -1",
    "harmonic divergence --group zd:2 --K 1 --n 2",
    "harmonic divergence --group zd:2 --n 0",
    "harmonic witness --group zd:2 --n -2",
    "harmonic witness --group zd:2 --n 0",
    "harmonic probe --group zd:2 --radii 0..3",
    "transport chain --group zd:2 --levels 0..2",
    "window stats --square 0",
    "iso profile --graph cycle:6 --max-size 0",
    "iso profile --graph cycle:6 --max-size 2 --budget -1",
    "iso radial --graph cycle:6 --set s.json --K nan",
    "spectral --graph cycle:6 --p 1e5",
    "walk profile --group zd:0 --radius 2 --steps 1",
    "harmonic probe --group free:0 --radii 1..2",
    "walk profile --group lamplighter:0,1 --radius 2 --steps 1",
    "walk profile --group lamplighter:1,1 --radius 6 --steps 3",
]


@pytest.mark.parametrize("argv", OUT_OF_RANGE)
def test_out_of_range_values_exit_2(argv, tmp_path, capsys):
    (tmp_path / "s.json").write_text("[0]")
    argv = [str(tmp_path / a) if a == "s.json" else a for a in argv.split()]
    assert exit_code(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err


# the argv fuzz: every subcommand with its options drawn as (valid,
# invalid) values, the invalid ones out of range, non-numeric or malformed
INTS = (["1", "2", "3"], ["-1", "0", "x", "2.5", ""])
COUNTS = (["0", "1", "2", "3"], ["-1", "x", "2.5", ""])  # options that take 0
FLOATS = (["0", "0.25", "0.5"], ["1", "1.5", "-1", "nan", "inf", "x"])
GROUPS = (["zd:1", "zd:2", "free:2", "heisenberg", "lamplighter:2,1",
           "bs:1,2", "dinf"],
          ["zd:0", "free:-1", "lamplighter:0,1", "lamplighter:1,1", "bs:1,1",
           "zd:x", "nosuch"])
GRAPHS = (["cycle:5", "complete:4", "grid:3,3", "hypercube:3", "tree:3,2"],
          ["cycle:1", "cycle:2", "complete:1", "grid:1,1", "hypercube:0",
           "cycle:x", "nope:3", "missing.json"])
RADII = (["1..3", "2,4"], ["0..2", "3..1", "-1", "x", ""])
MEASURES = (["good.csv"], ["bad.json", "missing.csv"])
SETS = (["good.json"], ["bad.json", "missing.csv"])
FILES = {"good.csv": "0,1\n", "good.json": "[0, 1]\n", "bad.json": "[0, 99]\n"}
SUBCOMMANDS = {
    "spectral": {"--graph": GRAPHS, "--p": (["1.5", "3", "1.5,3"],
                                            ["0.5", "inf", "nan", "x",
                                             "101"])},
    "walk profile": {"--group": GROUPS, "--radius": INTS, "--steps": COUNTS,
                     "--laziness": FLOATS},
    "walk exit": {"--group": GROUPS, "--region": COUNTS,
                  "--to": (["s1", "s", "t", "a"], ["nosuch"])},
    "transport wasserstein": {"--graph": GRAPHS, "--src": MEASURES,
                              "--dst": MEASURES},
    "transport chain": {"--group": GROUPS, "--levels": RADII,
                        "--p": (["0", "1", "2", "inf"], ["0.5", "nan", "x"])},
    "iso profile": {"--graph": GRAPHS, "--max-size": INTS, "--budget": COUNTS},
    "iso radial": {"--graph": GRAPHS, "--set": SETS, "--K": FLOATS,
                   "--k": FLOATS},
    "window stats": {"--square": INTS, "--label": (["s1", "s2"], ["q"])},
    "harmonic probe": {"--group": GROUPS, "--radii": RADII},
    "harmonic divergence": {"--group": GROUPS, "--K": INTS, "--n": INTS},
    "harmonic witness": {"--group": GROUPS, "--n": INTS},
}
CONFIG_VALUES = st.one_of(st.integers(-2, 3), st.sampled_from(
    [0.5, 1.5, -1.0, "x", "", True, None, [1], {"a": 1}]))


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    options = dict(SUBCOMMANDS[command], **{"--ball-cap": INTS})
    flags = sorted(options)
    # half of the lines have no invalid value, no gap and no config
    bad = draw(st.lists(st.sampled_from(flags), max_size=2)
               if draw(st.booleans()) else st.just([]))
    argv = command.split()
    for flag in flags:
        if bad and draw(st.integers(0, 7)) == 0:  # left out
            continue
        argv += [flag, draw(st.sampled_from(options[flag][flag in bad]))]
    if bad and draw(st.booleans()):  # a flag whose value is missing
        argv.append(draw(st.sampled_from(flags)))
    keys = sorted({f[2:] for f in flags} | {"ball_cap", "dry_run"})
    config = None
    if bad and draw(st.booleans()):
        config = draw(st.one_of(st.lists(st.integers()),
                                st.dictionaries(st.sampled_from(keys),
                                                CONFIG_VALUES, max_size=2)))
    return argv, config


@settings(max_examples=60, deadline=None)
@given(command_lines())
def test_cli_fuzz_exit_codes(tmp_path_factory, case):
    argv, config = case
    tmp = tmp_path_factory.mktemp("fuzz")
    for name, text in FILES.items():
        (tmp / name).write_text(text)
    argv = [str(tmp / a) if a in FILES or a.startswith("missing.") else a
            for a in argv]
    if config is not None:
        (tmp / "c.json").write_text(json.dumps(config))
        argv = ["--config", str(tmp / "c.json")] + argv
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"HARMLAB_BUDGET": "400"}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = exit_code(argv)
    event(f"exit {code}")
    assert code in (0, 2, 3, 4), (argv, config, code, err.getvalue())
    assert "Traceback" not in err.getvalue()

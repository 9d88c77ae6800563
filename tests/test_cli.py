import contextlib
import errno
import io
import json
import math
import os
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ipstable import algorithms, cli
from ipstable.cli import EXIT_CAP, EXIT_INTERNAL, EXIT_OK, EXIT_UNSTABLE, EXIT_USAGE, main
from ipstable.clustering import Clustering

from reference import singletons


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def planted_dir(tmp_path, capsys):
    out = tmp_path / "inst"
    code, _, _ = run(
        ["gen", "--kind", "planted_separated", "--n", "30", "--k", "3",
         "--separation", "0.1", "--seed", "1", "--out", str(out)],
        capsys,
    )
    assert code == EXIT_OK
    return out


class TestGen:
    def test_writes_files(self, planted_dir):
        assert (planted_dir / "points.csv").exists()
        assert (planted_dir / "planted.json").exists()
        planted = Clustering.from_json((planted_dir / "planted.json").read_text())
        assert planted.k == 3 and planted.n == 30

    def test_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            code, _, _ = run(
                ["gen", "--kind", "random_shortest_path", "--n", "12", "--seed", "9",
                 "--out", str(out)],
                capsys,
            )
            assert code == EXIT_OK
        assert (a / "matrix.csv").read_bytes() == (b / "matrix.csv").read_bytes()

    def test_usage_error(self, tmp_path, capsys):
        code, _, err = run(
            ["gen", "--kind", "euclidean_mixture", "--n", "0", "--seed", "1",
             "--out", str(tmp_path / "x")],
            capsys,
        )
        assert code == EXIT_USAGE
        assert "n must be" in err

    @pytest.mark.parametrize("flags, message", [
        (["--kind", "euclidean_mixture", "--seed", "-1"], "seed must be non-negative"),
        (["--kind", "planted_separated", "--k", "2", "--separation", "nan", "--seed", "1"], "finite"),
        (["--kind", "planted_separated", "--k", "2", "--separation", "inf", "--seed", "1"], "finite"),
    ], ids=["negative_seed", "nan_separation", "inf_separation"])
    def test_bad_seed_or_separation_rejected(self, flags, message, tmp_path, capsys):
        out = tmp_path / "x"
        code, _, err = run(["gen", "--n", "10", "--out", str(out)] + flags, capsys)
        assert code == EXIT_USAGE
        assert message in err
        assert not out.exists()

    def test_separation_with_infinite_gap(self, tmp_path, capsys):
        # 1 / 1e-320 is inf, so the planted groups have infinite coordinates
        code, _, err = run(
            ["gen", "--kind", "planted_separated", "--n", "12", "--k", "3", "--separation", "1e-320",
             "--seed", "1", "--out", str(tmp_path / "x")],
            capsys,
        )
        assert code == EXIT_USAGE
        assert "non-finite" in err
        assert not (tmp_path / "x").exists()

    def test_points_whose_distances_overflow(self, tmp_path, capsys):
        # groups 1e200 apart: the squared distances overflow float64
        code, _, err = run(
            ["gen", "--kind", "planted_separated", "--n", "12", "--k", "3", "--separation", "1e-200",
             "--seed", "1", "--out", str(tmp_path / "x")],
            capsys,
        )
        assert code == EXIT_USAGE
        assert "too far apart" in err
        assert not (tmp_path / "x").exists()
        # the same points given as an instance file
        inst = tmp_path / "far.csv"
        inst.write_text("x0\n0\n1e200\n2e200\n")
        cl = tmp_path / "cl.json"
        cl.write_text(Clustering([0, 1, 2], 3).to_json())
        for argv in (["cluster", "--in", str(inst), "--k", "2", "--alg", "dp", "--out", str(tmp_path / "run")],
                     ["verify", "--in", str(inst), "--clustering", str(cl)]):
            code, _, err = run(argv, capsys)
            assert code == EXIT_USAGE
            assert "too far apart" in err


class TestCluster:
    def test_dp_recovers_planted(self, planted_dir, tmp_path, capsys):
        out = tmp_path / "run"
        code, stdout, _ = run(
            ["cluster", "--in", str(planted_dir / "points.csv"), "--k", "3",
             "--alg", "dp", "--out", str(out), "--no-time"],
            capsys,
        )
        assert code == EXIT_OK
        got = Clustering.from_json((out / "clustering.json").read_text())
        planted = Clustering.from_json((planted_dir / "planted.json").read_text())
        assert {frozenset(map(int, m)) for m in got.members()} == {
            frozenset(map(int, m)) for m in planted.members()
        }
        report = json.loads((out / "report.json").read_text())
        assert report["beta_achieved"] <= 0.1

    def test_max_on_line(self, tmp_path, capsys):
        inst = tmp_path / "line.csv"
        inst.write_text("x0\n0\n1\n10\n11\n")
        out = tmp_path / "run"
        code, _, _ = run(
            ["cluster", "--in", str(inst), "--k", "2", "--alg", "max",
             "--out", str(out), "--no-time"],
            capsys,
        )
        assert code == EXIT_OK
        got = Clustering.from_json((out / "clustering.json").read_text())
        assert {frozenset(map(int, m)) for m in got.members()} == {
            frozenset({0, 1}),
            frozenset({2, 3}),
        }

    def test_fast_meets_bound_and_reports_match(self, planted_dir, tmp_path, capsys):
        out = tmp_path / "run"
        code, _, _ = run(
            ["cluster", "--in", str(planted_dir / "points.csv"), "--k", "5",
             "--alg", "fast", "--seed", "4", "--out", str(out), "--no-time"],
            capsys,
        )
        assert code == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["alpha_achieved"] <= 16 * math.log2(30)

    def test_seed_required_for_randomized(self, planted_dir, tmp_path, capsys):
        code, _, err = run(
            ["cluster", "--in", str(planted_dir / "points.csv"), "--k", "3",
             "--alg", "fast", "--out", str(tmp_path / "x")],
            capsys,
        )
        assert code == EXIT_USAGE
        assert "requires --seed" in err

    def test_alpha_rejected_for_non_natural(self, planted_dir, tmp_path, capsys):
        code, _, _ = run(
            ["cluster", "--in", str(planted_dir / "points.csv"), "--k", "3",
             "--alg", "dp", "--alpha", "2", "--out", str(tmp_path / "x")],
            capsys,
        )
        assert code == EXIT_USAGE

    def test_l1_norm_flag(self, tmp_path, capsys):
        inst = tmp_path / "pts.csv"
        inst.write_text("x0,x1\n0,0\n3,4\n30,40\n33,44\n")
        out = tmp_path / "run"
        code, stdout, _ = run(
            ["cluster", "--in", str(inst), "--k", "2", "--alg", "dp",
             "--norm", "l1", "--out", str(out), "--no-time"],
            capsys,
        )
        assert code == EXIT_OK
        got = Clustering.from_json((out / "clustering.json").read_text())
        assert {frozenset(map(int, m)) for m in got.members()} == {
            frozenset({0, 1}),
            frozenset({2, 3}),
        }

    def test_cap_exceeded_exit_code(self, tmp_path, capsys):
        inst = tmp_path / "inst"
        run(
            ["gen", "--kind", "random_shortest_path", "--n", "30", "--seed", "0",
             "--out", str(inst)],
            capsys,
        )
        out = tmp_path / "run"
        code, _, _ = run(
            ["cluster", "--in", str(inst / "matrix.csv"), "--k", "3", "--alg", "natural",
             "--alpha", "1.0", "--max-steps", "1", "--out", str(out), "--no-time"],
            capsys,
        )
        assert code == EXIT_CAP
        # the partial clustering is still written
        assert Clustering.from_json((out / "clustering.json").read_text()).k == 3

    def test_malformed_instance(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("0,10,1\n10,0,1\n1,1,0\n")
        code, _, err = run(
            ["cluster", "--in", str(bad), "--k", "2", "--alg", "dp",
             "--out", str(tmp_path / "x")],
            capsys,
        )
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("text", ["x0,x1\n", ""], ids=["header-only points", "empty matrix"])
    def test_instance_without_data_rows(self, text, tmp_path, capsys):
        # numpy only warns on such a file; under an error filter that warning
        # must not turn the usage error into an internal one
        inst = tmp_path / "inst.csv"
        inst.write_text(text)
        code, _, err = run(
            ["cluster", "--in", str(inst), "--k", "2", "--alg", "dp",
             "--out", str(tmp_path / "x")],
            capsys,
        )
        assert code == EXIT_USAGE
        assert "no data rows" in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("text, ok", [
        ("0,1,2\n1,0,1\n2,1,0\n", False),
        ("x0\n0,0\n3,4\n", False),
        ("x0,x1,x2\n0,0\n3,4\n", False),
        ("x0,x1\n0,0\n3,4\n", True),
    ], ids=["header-less table", "header too short", "header too long", "valid header"])
    def test_points_header_names_the_columns(self, text, ok, tmp_path, capsys):
        # a header-less file read as points would lose its first row
        inst = tmp_path / "pts.csv"
        inst.write_text(text)
        cl = tmp_path / "cl.json"
        cl.write_text(json.dumps({"k": 2, "assignment": [0, 1]}))
        for fmt in ("points", "auto"):
            if fmt == "auto" and not text.startswith("x0"):
                continue  # auto reads it as a distance table
            code, _, err = run(
                ["verify", "--in", str(inst), "--format", fmt, "--clustering", str(cl), "--alpha", "1"],
                capsys,
            )
            assert code == (EXIT_OK if ok else EXIT_USAGE)
            assert ok or "header row must be x0" in err

    def test_non_finite_points_rejected(self, tmp_path, capsys):
        inst = tmp_path / "pts.csv"
        inst.write_text("x0,x1\n0,0\nnan,1\n3,4\n")
        code, _, err = run(
            ["cluster", "--in", str(inst), "--k", "2", "--alg", "dp",
             "--out", str(tmp_path / "x")],
            capsys,
        )
        assert code == EXIT_USAGE
        assert "non-finite" in err
        assert not (tmp_path / "x").exists()
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("alg", cli.ALGORITHMS)
    @pytest.mark.parametrize("steps", ["0", "-3"])
    def test_step_cap_below_one_rejected(self, alg, steps, tmp_path, capsys):
        inst = tmp_path / "line.csv"
        inst.write_text("x0\n0\n1\n2\n10\n11\n12\n30\n")
        out = tmp_path / "run"
        code, _, err = run(
            ["cluster", "--in", str(inst), "--format", "points", "--k", "3", "--alg", alg,
             "--seed", "1", "--max-steps", steps, "--out", str(out)],
            capsys,
        )
        assert code == EXIT_USAGE
        assert "--max-steps" in err
        assert not out.exists()

    @pytest.mark.parametrize("alg", cli.ALGORITHMS)
    def test_negative_seed_rejected(self, alg, planted_dir, tmp_path, capsys):
        out = tmp_path / "run"
        code, _, err = run(
            ["cluster", "--in", str(planted_dir / "points.csv"), "--k", "3", "--alg", alg,
             "--seed", "-1", "--out", str(out)],
            capsys,
        )
        assert code == EXIT_USAGE
        assert "--seed must be non-negative" in err
        assert not out.exists()

    def test_natural_alpha_below_one_rejected(self, planted_dir, tmp_path, capsys):
        code, _, err = run(
            ["cluster", "--in", str(planted_dir / "points.csv"), "--k", "3",
             "--alg", "natural", "--alpha", "0.5", "--out", str(tmp_path / "x")],
            capsys,
        )
        assert code == EXIT_USAGE
        assert "--alpha" in err


class TestVerify:
    def test_round_trip_exact_alpha(self, planted_dir, tmp_path, capsys):
        out = tmp_path / "run"
        _, stdout, _ = run(
            ["cluster", "--in", str(planted_dir / "points.csv"), "--k", "3",
             "--alg", "natural", "--out", str(out), "--no-time"],
            capsys,
        )
        report = json.loads((out / "report.json").read_text())
        code, verify_out, _ = run(
            ["verify", "--in", str(planted_dir / "points.csv"),
             "--clustering", str(out / "clustering.json"), "--objective", "avg"],
            capsys,
        )
        assert code == EXIT_OK
        verified = json.loads(verify_out)
        assert verified["alpha_achieved"] == report["alpha_achieved"]

    def test_singletons_pass(self, tmp_path, capsys):
        inst = tmp_path / "line.csv"
        inst.write_text("x0\n0\n1\n2\n")
        cl = tmp_path / "cl.json"
        cl.write_text(singletons(3).to_json())
        code, stdout, _ = run(
            ["verify", "--in", str(inst), "--clustering", str(cl),
             "--objective", "max", "--alpha", "1.0"],
            capsys,
        )
        assert code == EXIT_OK
        assert json.loads(stdout)["alpha_achieved"] == 0.0

    def test_envious_clustering_fails_gate(self, tmp_path, capsys):
        inst = tmp_path / "line.csv"
        inst.write_text("x0\n0\n1\n10\n11\n")
        cl = tmp_path / "cl.json"
        cl.write_text(Clustering([0, 1, 0, 1], 2).to_json())
        code, stdout, _ = run(
            ["verify", "--in", str(inst), "--clustering", str(cl),
             "--objective", "avg", "--alpha", "1.5"],
            capsys,
        )
        assert code == EXIT_UNSTABLE
        assert json.loads(stdout)["witness"] is not None

    def test_length_mismatch(self, planted_dir, tmp_path, capsys):
        cl = tmp_path / "cl.json"
        cl.write_text(Clustering([0, 1], 2).to_json())
        code, _, _ = run(
            ["verify", "--in", str(planted_dir / "points.csv"),
             "--clustering", str(cl)],
            capsys,
        )
        assert code == EXIT_USAGE


    def test_fractional_ids_rejected(self, planted_dir, tmp_path, capsys):
        cl = tmp_path / "cl.json"
        cl.write_text(json.dumps({"k": 3, "assignment": [0, 1, 2] + [1.5] * 27}))
        code, _, err = run(
            ["verify", "--in", str(planted_dir / "points.csv"), "--clustering", str(cl)],
            capsys,
        )
        assert code == EXIT_USAGE
        assert "integers" in err

    @pytest.mark.parametrize("ids", [[True, False] * 15, [True, 0, 2] * 10, ["0", "1", "2"] * 10])
    def test_boolean_ids_rejected(self, ids, planted_dir, tmp_path, capsys):
        # JSON true and false are not the ids 1 and 0, nor strings the ids they spell
        cl = tmp_path / "cl.json"
        cl.write_text(json.dumps({"k": 3, "assignment": ids}))
        code, _, err = run(
            ["verify", "--in", str(planted_dir / "points.csv"), "--clustering", str(cl)],
            capsys,
        )
        assert code == EXIT_USAGE
        assert "cluster ids must be integers" in err

    @pytest.mark.parametrize("k", [None, True, "3", 2.5, [3]])
    def test_non_integer_k_rejected(self, k, planted_dir, tmp_path, capsys):
        # k is read as ids are: an integer-valued number, nothing else
        cl = tmp_path / "cl.json"
        cl.write_text(json.dumps({"k": k, "assignment": [0, 1, 2] * 10}))
        code, _, err = run(
            ["verify", "--in", str(planted_dir / "points.csv"), "--clustering", str(cl)],
            capsys,
        )
        assert code == EXIT_USAGE
        assert "k must be an integer" in err

    def test_integral_float_k_read_as_integer(self, planted_dir, tmp_path, capsys):
        cl = tmp_path / "cl.json"
        cl.write_text(json.dumps({"k": 3.0, "assignment": [0, 1, 2.0] * 10}))
        code, stdout, _ = run(
            ["verify", "--in", str(planted_dir / "points.csv"), "--clustering", str(cl)],
            capsys,
        )
        assert code == EXIT_OK
        assert json.loads(stdout)["objective"] == "avg"

    @pytest.mark.parametrize("alpha", ["nan", "-inf", "-1"])
    def test_bad_alpha_rejected(self, alpha, planted_dir, tmp_path, capsys):
        cl = tmp_path / "cl.json"
        cl.write_text(json.dumps({"k": 3, "assignment": [0, 1, 2] * 10}))
        code, _, err = run(
            ["verify", "--in", str(planted_dir / "points.csv"), "--clustering", str(cl),
             f"--alpha={alpha}"],
            capsys,
        )
        assert code == EXIT_USAGE
        assert "--alpha" in err


class TestBench:
    def test_empty_grid_has_header(self, capsys):
        code, stdout, _ = run(["bench", "--alg", "natural", "--n", "--seeds", "1"], capsys)
        assert code == EXIT_OK
        assert stdout.strip() == "n,k,alg,seed,queries,steps,time_s"

    def test_rows_reproduce(self, tmp_path, capsys):
        argv = ["bench", "--alg", "natural", "mergesplit", "--n", "25", "--k", "3",
                "--seeds", "1", "2", "--no-time"]
        _, first, _ = run(argv, capsys)
        _, second, _ = run(argv, capsys)
        assert first == second
        assert len(first.strip().splitlines()) == 5

    @pytest.mark.parametrize("n, k", [(1, 10), (25, 26), (25, 1)])
    def test_k_outside_range_rejected(self, n, k, capsys):
        code, stdout, err = run(["bench", "--alg", "natural", "--n", str(n), "--k", str(k)], capsys)
        assert code == EXIT_USAGE
        assert "need 2 <= k <= n" in err
        assert stdout == ""

    def test_negative_seed_rejected(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        code, stdout, err = run(
            ["bench", "--alg", "mergesplit", "--n", "10", "--k", "2", "--seeds", "0", "-1", "--out", str(out)],
            capsys,
        )
        assert code == EXIT_USAGE
        assert "--seeds must be non-negative" in err
        assert stdout == "" and not out.exists()

    def test_unknown_algorithm_rejected(self, capsys):
        code, _, err = run(["bench", "--alg", "nope", "--n", "10", "--k", "2"], capsys)
        assert code == EXIT_USAGE
        assert "unknown algorithm" in err

    @pytest.mark.parametrize("out", [".", "{d}", "{d}/missing/grid.csv"])
    def test_unwritable_out_rejected_before_the_grid(self, out, tmp_path, capsys, monkeypatch):
        def never(space, k, seed, max_steps):
            raise AssertionError("the grid ran before --out was checked")

        monkeypatch.setitem(algorithms.ALGORITHMS, "dp", algorithms.Algorithm("avg", False, never))
        code, stdout, err = run(
            ["bench", "--alg", "dp", "--n", "20", "--k", "3", "--seeds", "0", "--out", out.format(d=tmp_path)],
            capsys,
        )
        assert code == EXIT_USAGE
        assert stdout == "" and "cannot write output file" in err
        assert not (tmp_path / "missing").exists()

    def test_existing_out_file_is_overwritten(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        out.write_text("old\n")
        code, stdout, _ = run(
            ["bench", "--alg", "dp", "--n", "20", "--k", "3", "--seeds", "0", "--no-time", "--out", str(out)],
            capsys,
        )
        assert code == EXIT_OK and stdout == ""
        assert out.read_text().startswith("n,k,alg,seed,queries,steps,time_s\n20,3,dp,0,")


class TestExitCodes:
    def test_internal_error_has_its_own_code(self, planted_dir, tmp_path, capsys, monkeypatch):
        def broken(space, k):
            raise RuntimeError("boom")

        monkeypatch.setattr(algorithms, "stable_cluster", broken)
        code, _, err = run(
            ["cluster", "--in", str(planted_dir / "points.csv"), "--k", "3",
             "--alg", "dp", "--out", str(tmp_path / "x")],
            capsys,
        )
        assert code == EXIT_INTERNAL
        assert code not in (EXIT_OK, EXIT_UNSTABLE, EXIT_USAGE, EXIT_CAP)
        assert "RuntimeError: boom" in err and "internal error" in err

    def test_help_lists_every_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for code in (EXIT_OK, EXIT_UNSTABLE, EXIT_USAGE, EXIT_CAP, EXIT_INTERNAL):
            assert f"  {code}  " in text


class TestUnusablePaths:
    """A path the CLI cannot read or write is a usage error, found before any work."""

    @pytest.fixture
    def files(self, tmp_path):
        (tmp_path / "line.csv").write_text("x0\n0\n1\n10\n11\n")
        (tmp_path / "two.json").write_text(Clustering([0, 0, 1, 1], 2).to_json())
        (tmp_path / "binary.csv").write_bytes(b"\xff\xfe\x00\x81\n")
        return tmp_path

    @pytest.mark.parametrize("argv", [
        ["cluster", "--in", "{d}", "--k", "2", "--alg", "dp", "--out", "{d}/run"],
        ["verify", "--in", "{d}", "--clustering", "{d}/two.json"],
    ])
    def test_instance_is_a_directory(self, argv, files, capsys):
        code, _, err = run([arg.format(d=files) for arg in argv], capsys)
        assert code == EXIT_USAGE
        assert "cannot read instance file" in err

    def test_instance_is_not_text(self, files, capsys):
        code, _, err = run(
            ["cluster", "--in", str(files / "binary.csv"), "--k", "2", "--alg", "dp",
             "--out", str(files / "run")],
            capsys,
        )
        assert code == EXIT_USAGE
        assert "malformed instance file" in err

    def test_cluster_out_is_a_file(self, files, capsys, monkeypatch):
        def never(space, k):
            raise AssertionError("the algorithm ran before --out was checked")

        monkeypatch.setattr(algorithms, "stable_cluster", never)
        code, out, err = run(
            ["cluster", "--in", str(files / "line.csv"), "--k", "2", "--alg", "dp",
             "--out", str(files / "two.json")],
            capsys,
        )
        assert code == EXIT_USAGE
        assert out == "" and "cannot create output directory" in err

    def test_gen_out_is_a_file(self, files, capsys):
        code, _, err = run(
            ["gen", "--kind", "random_shortest_path", "--n", "5", "--seed", "1",
             "--out", str(files / "two.json")],
            capsys,
        )
        assert code == EXIT_USAGE
        assert "cannot create output directory" in err


class _ReaderGone:
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self.fd


class TestClosedStdout:
    """A reader that closes stdout early (``| head -c 1``) changes no exit code."""

    @pytest.mark.parametrize("argv, expected", [
        (["verify", "--in", "{d}/line.csv", "--clustering", "{d}/stable.json", "--alpha", "1"], EXIT_OK),
        (["verify", "--in", "{d}/line.csv", "--clustering", "{d}/envious.json", "--alpha", "1.5"], EXIT_UNSTABLE),
        (["cluster", "--in", "{d}/line.csv", "--k", "2", "--alg", "natural", "--alpha", "1",
          "--max-steps", "1", "--out", "{d}/run"], EXIT_CAP),
    ])
    def test_same_exit_code_and_no_traceback(self, argv, expected, tmp_path, capsys, monkeypatch):
        (tmp_path / "line.csv").write_text("x0\n0\n1\n10\n11\n")
        (tmp_path / "stable.json").write_text(Clustering([0, 0, 1, 1], 2).to_json())
        (tmp_path / "envious.json").write_text(Clustering([0, 1, 0, 1], 2).to_json())
        fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
        try:
            monkeypatch.setattr(sys, "stdout", _ReaderGone(fd))
            code = main([arg.format(d=tmp_path) for arg in argv])
            monkeypatch.undo()
            # later writes, such as the flush at exit, go to devnull
            assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
        finally:
            os.close(fd)
        assert code == expected
        err = capsys.readouterr().err
        assert "Traceback" not in err and "internal error" not in err


def _strict_loads(text):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=reject)


class TestStrictJson:
    @pytest.fixture
    def envious_dir(self, tmp_path, capsys):
        # round-robin start: points 0 and 2 sit on cluster 1's location, so
        # their envy is x/0 = inf; one step moves only one of them
        inst = tmp_path / "line.csv"
        inst.write_text("x0\n0\n0\n0\n0\n10\n0\n10\n")
        out = tmp_path / "run"
        code, stdout, _ = run(
            ["cluster", "--in", str(inst), "--k", "2", "--alg", "natural",
             "--max-steps", "1", "--out", str(out), "--no-time"],
            capsys,
        )
        assert code == EXIT_CAP
        return inst, out, stdout

    def test_infinite_alpha_in_run_report(self, envious_dir):
        _, out, stdout = envious_dir
        for text in (stdout, (out / "report.json").read_text()):
            report = _strict_loads(text)
            assert report["alpha_achieved"] == "inf"
            assert report["alpha_target"] == pytest.approx(2 * math.log2(7))

    def test_infinite_alpha_in_verify_output(self, envious_dir, capsys):
        inst, out, _ = envious_dir
        for extra, want in (([], EXIT_OK), (["--alpha", "10"], EXIT_UNSTABLE)):
            code, stdout, _ = run(
                ["verify", "--in", str(inst), "--clustering", str(out / "clustering.json")] + extra,
                capsys,
            )
            assert code == want
            report = _strict_loads(stdout)
            assert report["alpha_achieved"] == "inf"
            assert "inf" in report["per_point"]

    def test_nan_is_an_internal_error(self, planted_dir, tmp_path, capsys, monkeypatch):
        real = cli.verify_stability

        def nan_report(*args):
            report = real(*args)
            report.alpha_achieved = math.nan
            return report

        monkeypatch.setattr(cli, "verify_stability", nan_report)
        out = tmp_path / "run"
        code, stdout, err = run(
            ["cluster", "--in", str(planted_dir / "points.csv"), "--k", "3",
             "--alg", "dp", "--out", str(out)],
            capsys,
        )
        assert code == EXIT_INTERNAL
        assert "NaN" not in stdout
        assert not (out / "report.json").exists()


def _csv(rows):
    return "\n".join(",".join(row) for row in rows) + "\n"


@st.composite
def malformed_inputs(draw):
    """(files, argv) for one malformed points, matrix or clustering input, or
    one output path that cannot be written (an existing file as ``gen``'s
    directory, a directory as ``bench``'s file); a file's text of None puts a
    directory at its path."""
    n = draw(st.integers(2, 7))
    xs = draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))
    points = [["x0", "x1"]] + [[str(x), str((3 * x) % 7)] for x in xs]
    table = [[str(abs(a - b)) for b in xs] for a in xs]
    alg = draw(st.sampled_from(tuple(cli.ALGORITHMS)))
    kind = draw(st.sampled_from(["points", "matrix", "clustering", "gen", "bench"]))
    if kind == "gen":
        gen_kind = draw(st.sampled_from(["euclidean_mixture", "random_shortest_path", "planted_separated"]))
        argv = ["gen", "--kind", gen_kind, "--n", str(n), "--k", "2", "--seed", "0", "--out", "{out}"]
        return {"out": "an existing file\n"}, argv
    if kind == "bench":
        return {"out": None}, ["bench", "--alg", alg, "--n", str(n), "--k", "2", "--seeds", "0", "--out", "{out}"]
    defects = ["nan", "bad value", "ragged", "k", "directory", "truncated"] + (["header"] if kind == "points" else [])
    defect = draw(st.sampled_from(defects))
    bad_k = draw(st.sampled_from([-1, 0, 1, n + 1, n + 5, 10**23]))
    if kind == "clustering":
        assignment = [i % 2 for i in range(n)]
        k = 2
        if defect == "nan":
            assignment[draw(st.integers(0, n - 1))] = math.nan
        elif defect == "bad value":
            assignment[draw(st.integers(0, n - 1))] = draw(st.sampled_from([0.5, -1, 2, 10**23, 1e23, "1"]))
        elif defect == "ragged":
            assignment = assignment[:-1] if draw(st.booleans()) else [assignment[:1], assignment[1:]]
        elif defect == "k":
            k = bad_k
        clustering = None if defect == "directory" else json.dumps({"k": k, "assignment": assignment})
        if defect == "truncated":
            clustering = clustering[: draw(st.integers(0, len(clustering) - 1))]
        files = {"instance": _csv(points), "clustering": clustering}
        return files, ["verify", "--in", "{instance}", "--format", "points", "--clustering", "{clustering}"]
    rows = points if kind == "points" else table
    k = 2
    r = draw(st.integers(1 if kind == "points" else 0, len(rows) - 1))
    c = draw(st.integers(0, len(rows[r]) - 1))
    if defect == "nan":
        rows[r][c] = draw(st.sampled_from(["nan", "inf", "-inf"]))
        if kind == "matrix":
            rows[c][r] = rows[r][c]
    elif defect == "bad value":
        rows[r][c] = draw(st.sampled_from(["0.5.1", "1/2", "x"]))
    elif defect == "ragged":
        rows[r] = rows[r][:-1] if draw(st.booleans()) else rows[r] + ["1"]
    elif defect == "k":
        k = bad_k
    elif defect == "header":  # wrong, reordered or missing
        header = draw(st.sampled_from([["y0", "y1"], ["x0", "X1"], ["x1", "x0"], None]))
        rows = rows[1:] if header is None else [header] + rows[1:]
    argv = ["cluster", "--in", "{instance}", "--format", kind, "--k", str(k), "--alg", alg, "--seed", "0"]
    text = _csv(rows)
    if defect == "truncated":  # the last row loses at least its last cell, and the file its last newline
        last = rows[-1][: draw(st.integers(1, len(rows[-1]) - 1))]
        text = _csv(rows[:-1]) + ",".join(last) + draw(st.sampled_from(["", ","]))
    return {"instance": None if defect == "directory" else text}, argv


def _tree(root):
    """Every path under root, with its bytes (None for a directory)."""
    return {path: path.read_bytes() if path.is_file() else None for path in Path(root).rglob("*")}


class TestMalformedInputRoundTrip:
    @settings(max_examples=150)
    @given(malformed_inputs())
    def test_exit_code_is_usage_error(self, case):
        files, argv = case
        with tempfile.TemporaryDirectory() as tmp:
            paths = {}
            for name, text in files.items():
                paths[name] = str(Path(tmp) / name)
                if text is None:
                    Path(paths[name]).mkdir()
                else:
                    Path(paths[name]).write_text(text)
            argv = [arg.format(**paths) for arg in argv]
            out = Path(tmp) / "run"
            if argv[0] == "cluster":
                argv += ["--out", str(out)]
            made = _tree(tmp)
            assert main(argv) == EXIT_USAGE
            assert _tree(tmp) == made  # no file is created, and none is overwritten
            assert not out.exists()


@st.composite
def valid_inputs(draw):
    """(format, text, k) for one small valid instance: integer points in the
    plane, or the l1 table of such points, which may be skewed within the
    loader's 1e-9 symmetry tolerance (one triangle, or random cells)."""
    n = draw(st.integers(3, 7))
    xy = draw(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=n, max_size=n))
    k = draw(st.integers(2, n))
    if draw(st.booleans()):
        return "points", _csv([["x0", "x1"]] + [[str(x), str(y)] for x, y in xy]), k
    pts = np.array(xy, dtype=float)
    table = np.abs(pts[:, None] - pts[None]).sum(axis=2)
    skew = draw(st.sampled_from([None, "upper", "lower", "cells"]))
    if skew == "upper":
        table *= 1.0 + np.triu(np.full((n, n), 1e-10), 1)
    elif skew == "lower":
        table *= 1.0 + np.tril(np.full((n, n), 1e-10), -1)
    elif skew == "cells":
        seed = draw(st.integers(0, 2**16))
        table *= 1.0 + np.random.default_rng(seed).uniform(-2.5e-10, 2.5e-10, size=(n, n))
    return "matrix", _csv([[format(v, ".17g") for v in row] for row in table]), k


class TestValidInputRoundTrip:
    @staticmethod
    def _main(argv):
        """(exit code, stdout) of one run, with warnings raised as errors."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out), warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
        return code, out.getvalue()

    @settings(max_examples=25)
    @given(valid_inputs())
    def test_every_algorithm_and_objective_exits_cleanly_with_strict_json(self, case):
        fmt, text, k = case
        with tempfile.TemporaryDirectory() as tmp:
            inst = Path(tmp) / "instance.csv"
            inst.write_text(text)
            for alg in cli.ALGORITHMS:
                out = Path(tmp) / alg
                code, stdout = self._main(["cluster", "--in", str(inst), "--format", fmt, "--k", str(k),
                                           "--alg", alg, "--seed", "0", "--no-time", "--out", str(out)])
                assert code in (EXIT_OK, EXIT_UNSTABLE, EXIT_CAP), alg
                assert _strict_loads(stdout) == _strict_loads((out / "report.json").read_text())
                assert _strict_loads((out / "clustering.json").read_text())["k"] == k
                for objective in ("avg", "median", "max"):
                    code, stdout = self._main(["verify", "--in", str(inst), "--format", fmt, "--objective", objective,
                                               "--clustering", str(out / "clustering.json"), "--alpha", "1"])
                    assert code in (EXIT_OK, EXIT_UNSTABLE, EXIT_CAP), (alg, objective)
                    assert _strict_loads(stdout)["objective"] == objective

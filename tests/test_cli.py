"""CLI subcommands and exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import polyspec
from polyspec.cli import main
from polyspec.grids import DomainSpec
from polyspec.harness import RunConfig
from polyspec.oracles import interval_eigenvalues
from polyspec.report import load_report


@pytest.fixture
def config_path(tmp_path):
    config = RunConfig(
        domain=DomainSpec.with_points("rectangle", [1.0, 1.0], [20, 20]),
        k=2, seed=4)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config.to_dict()))
    return str(path)


class TestVerify:
    def test_pass_exit_zero(self, config_path, tmp_path, capsys):
        code = main(["verify", "--config", config_path,
                     "--out", str(tmp_path / "out")])
        assert code == 0
        out = capsys.readouterr().out
        assert "verdict: pass" in out
        report = load_report(str(tmp_path / "out.report.json"))
        assert report.passed

    def test_failing_tolerance_exit_one(self, config_path, capsys):
        code = main(["verify", "--config", config_path,
                     "--tol", "commutator=1e-300"])
        assert code == 1
        assert "verdict: fail" in capsys.readouterr().out

    def test_missing_config_exit_two(self, tmp_path):
        code = main(["verify", "--config", str(tmp_path / "nope.json")])
        assert code == 2

    def test_bad_config_field_exit_two(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"domain": {"shape": "interval",
                                               "extents": [1.0], "h": [0.1]},
                                    "k": 0}))
        assert main(["verify", "--config", str(path)]) == 2

    def test_inadmissible_sweep_exit_two(self, tmp_path):
        data = RunConfig(
            domain=DomainSpec.with_points("rectangle", [1.0, 1.0], [20, 20]),
            k=2).to_dict()
        data["sweeps"] = [[3.0, 1.0]]
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(data))
        assert main(["verify", "--config", str(path)]) == 2

    def test_bad_tol_syntax_exit_two(self, config_path):
        assert main(["verify", "--config", config_path, "--tol", "oops"]) == 2

    def test_infinite_tolerances_exit_two(self, config_path, tmp_path):
        # with every tolerance infinite the run passed without checking anything
        assert main(["verify", "--config", config_path,
                     "--tol", "bounds=inf", "--tol", "oracle=inf"]) == 2
        data = json.loads(Path(config_path).read_text())
        data["tolerances"]["oracle"] = float("inf")
        path = tmp_path / "inf.json"
        path.write_text(json.dumps(data))  # written as Infinity
        assert main(["verify", "--config", str(path)]) == 2

    @pytest.mark.parametrize("edit", [
        lambda d: d["domain"]["extents"].__setitem__(0, float("inf")),
        lambda d: d["domain"]["h"].__setitem__(0, float("nan")),
        lambda d: d.__setitem__("k", 2.9),
        lambda d: d["domain"].__setitem__("l", 1.5),
    ], ids=["inf-extent", "nan-h", "float-k", "float-l"])
    def test_bad_config_numbers_exit_two(self, config_path, tmp_path, edit):
        data = json.loads(Path(config_path).read_text())
        edit(data)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert main(["verify", "--config", str(path)]) == 2


class TestSolve:
    def test_prints_eigenvalues(self, config_path, capsys):
        code = main(["solve", "--config", config_path])
        assert code == 0
        out = capsys.readouterr().out
        assert "lambda_1" in out and "residual" in out

    def test_writes_spectrum_file(self, config_path, tmp_path):
        prefix = str(tmp_path / "spec")
        assert main(["solve", "--config", config_path, "--out", prefix]) == 0
        data = json.loads((tmp_path / "spec.spectrum.json").read_text())
        assert data["eigenvalues"][0] == pytest.approx(2 * np.pi ** 2, rel=0.05)


    def test_k_at_dimension_exit_two(self, tmp_path, capsys):
        # Lanczos cannot return all six pairs of a six-point interval
        config = RunConfig(
            domain=DomainSpec.with_points("interval", [1.0], [6]), k=6)
        path = tmp_path / "full.json"
        path.write_text(json.dumps(config.to_dict()))
        assert main(["solve", "--config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err


class TestBounds:
    def test_analytic_list_passes(self, tmp_path, capsys):
        path = tmp_path / "eigs.txt"
        path.write_text("\n".join(repr(float(v)) for v in interval_eigenvalues(8)))
        code = main(["bounds", "--eigenvalues", str(path), "--l", "1", "--n", "1"])
        assert code == 0
        assert "0 failures" in capsys.readouterr().out

    def test_module_entry_point(self, tmp_path):
        # python -m polyspec with the package found on PYTHONPATH, not installed
        path = tmp_path / "eigs.txt"
        path.write_text("\n".join(repr(float(v)) for v in interval_eigenvalues(8)))
        src = str(Path(polyspec.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-m", "polyspec", "bounds", "--eigenvalues", str(path),
             "--l", "1", "--n", "1"],
            env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert "0 failures" in done.stdout

    def test_violating_list_fails(self, tmp_path):
        path = tmp_path / "eigs.txt"
        path.write_text("1.0\n1000.0\n")  # gap far beyond any universal bound
        code = main(["bounds", "--eigenvalues", str(path), "--l", "1", "--n", "2"])
        assert code == 1

    def test_unreadable_list(self, tmp_path):
        assert main(["bounds", "--eigenvalues", str(tmp_path / "x.txt")]) == 2

    def test_nonpositive_entries(self, tmp_path):
        path = tmp_path / "eigs.txt"
        path.write_text("-1.0\n2.0\n")
        assert main(["bounds", "--eigenvalues", str(path)]) == 2

    @pytest.mark.parametrize("values, flags", [
        ("1.0\n2.0\n3.0\n", ["--k", "3"]),     # k larger than count - 1
        ("1.0\n2.0\n3.0\n", ["--k", "0"]),
        ("1.0\n2.0\n3.0\n", ["--l", "0"]),
        ("3.0\n2.0\n1.0\n", []),               # decreasing list
        ("1.0\nnan\n", []),                    # passed with 0 failures
        ("1.0\n4.0\ninf\n", []),               # every gap counted as zero
    ])
    def test_bad_parameters_exit_two(self, tmp_path, capsys, values, flags):
        path = tmp_path / "eigs.txt"
        path.write_text(values)
        assert main(["bounds", "--eigenvalues", str(path)] + flags) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1


class TestFuzz:
    def test_small_run_passes(self, capsys):
        code = main(["fuzz-algebra", "--trials", "50", "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "generalized_chebyshev" in out
        assert "violation at" in out  # the two non-member couples

    @pytest.mark.parametrize("flags", [["--trials", "-5"], ["--trials", "0"],
                                       ["--seed", "-3"]])
    def test_bad_trials_or_seed_exit_two(self, capsys, flags):
        assert main(["fuzz-algebra"] + flags) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1


class TestUsage:
    def test_no_command_exit_two(self, capsys):
        assert main([]) == 2

    def test_unknown_command_exit_two(self, capsys):
        assert main(["frobnicate"]) == 2


class TestImportGraph:
    def test_cli_import_leaves_out_optimize_and_ndimage(self):
        # the package needs neither; importing them cost 0.3 s per process
        src = str(Path(polyspec.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        code = ("import sys, polyspec.cli; "
                "print(sorted(m for m in sys.modules "
                "if m.split('.')[:2] in (['scipy', 'optimize'], ['scipy', 'ndimage'])))")
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

"""Run configuration, pipeline orchestration, report round-trips."""

import json
import math

import pytest

import polyspec
from polyspec import bounds
from polyspec.bounds import BoundCheck
from polyspec.grids import DomainSpec
from polyspec.harness import (
    KNOWN_CHECKS,
    ConfigError,
    RunConfig,
    evaluate_bounds_on_list,
    run,
)
from polyspec.oracles import interval_eigenvalues
from polyspec.report import VerificationReport, load_report


def square_config(points=24, k=3, **kw):
    return RunConfig(
        domain=DomainSpec.with_points("rectangle", [1.0, 1.0], [points, points]),
        k=k, **kw)


def lshape_config(points=17, k=3):
    half = points // 2
    rows = ["1" * points] * half + \
           ["1" * half + "0" * (points - half)] * (points - half)
    domain = DomainSpec.with_points("masked-rectangle", [1.0, 1.0],
                                    [points, points], mask=rows)
    return RunConfig(domain=domain, k=k)


class TestRunConfig:
    def test_k_zero_is_config_error(self):
        with pytest.raises(ConfigError):
            square_config(k=0)

    def test_unknown_check_rejected(self):
        with pytest.raises(ConfigError):
            square_config(checks=("no_such_check",))

    def test_unknown_or_negative_tolerance_rejected(self):
        with pytest.raises(ConfigError):
            square_config(tolerances={"bogus": 1.0})
        with pytest.raises(ConfigError):
            square_config(tolerances={"bounds": -1.0})

    @pytest.mark.parametrize("value", [math.inf, math.nan, "lots"])
    def test_tolerance_must_be_a_finite_number(self, value):
        # an infinite tolerance passes every row it governs
        with pytest.raises(ConfigError):
            square_config(tolerances={"bounds": value})

    @pytest.mark.parametrize("field, value", [("k", 3.9), ("k", True), ("seed", 2.5)])
    def test_run_integers_required(self, field, value):
        # int() used to truncate these silently: k 3.9 ran at k 3
        data = square_config().to_dict()
        data[field] = value
        with pytest.raises(ConfigError, match="integer"):
            RunConfig.from_dict(data)

    @pytest.mark.parametrize("field, value", [("l", 2.7), ("l", True), ("n", 2.0)])
    def test_domain_integers_required(self, field, value):
        data = square_config().to_dict()
        data["domain"][field] = value
        with pytest.raises(ConfigError, match="integer"):
            RunConfig.from_dict(data)

    @pytest.mark.parametrize("field, value", [("extents", math.inf), ("extents", math.nan),
                                              ("h", math.inf), ("h", math.nan)])
    def test_domain_numbers_must_be_finite(self, field, value):
        data = square_config().to_dict()
        data["domain"][field][0] = value
        with pytest.raises(ConfigError, match="finite"):
            RunConfig.from_dict(data)

    def test_known_checks_keep_report_order(self):
        # the default checks tuple is written into every report's config
        assert KNOWN_CHECKS == (
            "commutator", "trace_identity", "interpolation", "gradient_sum",
            "yang_type_general", "yang_type_cases", "quadratic_gap_bound",
            "spectral_gap_bound", "yang_type_simplified", "yang_first_inequality",
            "ppw_gap_bound", "yang_second_inequality", "comparison",
            "recursive_chain", "oracle")

    def test_bad_sweep_string(self):
        with pytest.raises(ConfigError):
            square_config(sweeps="everything")

    def test_inadmissible_sweep_pair_rejected(self):
        # alpha^2 > 2 beta only yields skipped rows: a sweep of such pairs
        # passed while checking nothing
        with pytest.raises(ConfigError, match="admissible"):
            square_config(sweeps=[(3.0, 1.0)],
                          checks=("yang_type_general", "yang_type_simplified"))
        with pytest.raises(ConfigError):
            square_config(sweeps=[(1.0, 1.0), (0.0, -1.0)])

    def test_dict_round_trip(self):
        config = square_config(k=4, sweeps=[(2.0, 2.0), (1.0, 1.0)], seed=9)
        again = RunConfig.from_dict(config.to_dict())
        assert again.to_dict() == config.to_dict()

    def test_from_dict_rejects_unknown_fields(self):
        data = square_config().to_dict()
        data["typo"] = 1
        with pytest.raises(ConfigError):
            RunConfig.from_dict(data)

    def test_from_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(square_config(k=2).to_dict()))
        config = RunConfig.from_file(str(path))
        assert config.k == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            RunConfig.from_file(str(tmp_path / "absent.json"))

    def test_auto_grid_pairs_are_admissible(self):
        for alpha, beta in square_config().sweep_pairs():
            assert alpha * alpha <= 2 * beta + 1e-12


class TestRun:
    def test_square_pipeline_passes(self):
        report = run(square_config(points=30, k=4, seed=5))
        assert report.verdict == "pass"
        assert report.error is None
        assert report.spectrum["k"] == 5
        names = {row["name"].split("(")[0] for row in report.bound_rows}
        assert "yang_type_general" in names
        assert "recursive_chain" in names
        assert len(report.oracle_rows) == 5

    def test_identity_rows_precede_failure_poisoning(self):
        # an impossible commutator tolerance forces an identity failure
        config = square_config(points=20, k=2,
                               tolerances={"commutator": 1e-300})
        report = run(config)
        assert report.verdict == "fail"
        assert any(not r["passed"] for r in report.identity_rows)
        # inequality rows are still evaluated and reported
        assert report.bound_rows

    def test_masked_domain_has_no_oracle(self, tmp_path):
        prefix = str(tmp_path / "lshape")
        report = run(lshape_config(), out_override=prefix)
        assert report.verdict == "pass"
        assert len(report.oracle_rows) == 1
        assert "no analytic reference" in report.oracle_rows[0]["notes"]
        assert load_report(prefix + ".report.json") == report

    def test_box_pipeline_with_oracle(self):
        config = RunConfig(
            domain=DomainSpec.with_points("box", [1.0, 1.0, 1.0], [9, 9, 9]),
            k=3, seed=6, tolerances={"oracle": 0.03})
        report = run(config)
        assert report.verdict == "pass"
        assert len(report.oracle_rows) == 4
        # unit box: 3 pi^2 then the triple 6 pi^2
        import numpy as np
        assert report.spectrum["eigenvalues"][0] == pytest.approx(
            3 * np.pi ** 2, rel=0.03)
        assert report.spectrum["eigenvalues"][1] == pytest.approx(
            report.spectrum["eigenvalues"][3], rel=1e-9)

    def test_clamped_rod_pipeline(self):
        config = RunConfig(
            domain=DomainSpec.with_points("interval", [1.0], [400], l=2),
            k=3, tolerances={"oracle": 0.05})
        report = run(config)
        assert report.verdict == "pass"
        interp = [r for r in report.identity_rows if r["name"].startswith("interp")]
        assert len(interp) == 4

    def test_k_plus_one_exceeding_dimension(self):
        # Lanczos returns fewer pairs than the dimension: k+1 == 6 is refused too
        for k in (6, 5):
            config = RunConfig(
                domain=DomainSpec.with_points("interval", [1.0], [6], l=1), k=k)
            with pytest.raises(ConfigError):
                run(config)

    @pytest.mark.parametrize("points,l", [(2000, 3), (16000, 2)],
                             ids=["interval-2000-l3", "rod-16000-l2"])
    def test_fine_high_order_grids_pass(self, points, l):
        # both failed while the solver worked on the assembled G^T G
        config = RunConfig(
            domain=DomainSpec.with_points("interval", [1.0], [points], l=l), k=5)
        report = run(config)
        assert report.error is None
        assert report.verdict == "pass"
        assert report.spectrum["solver_tol"] <= 1e-5

    def test_deterministic_bodies(self):
        config = square_config(points=22, k=3, seed=11)
        a = run(config)
        b = run(config)
        assert a.body_text() == b.body_text()

    def test_report_files_and_round_trip(self, tmp_path):
        prefix = str(tmp_path / "demo")
        config = square_config(points=20, k=2, seed=1)
        report = run(config, out_override=prefix)
        loaded = load_report(prefix + ".report.json")
        assert loaded == report
        assert loaded.version == polyspec.__version__
        csv_text = (tmp_path / "demo.bounds.csv").read_text()
        header, *rows = csv_text.strip().splitlines()
        assert header == "name,lhs,rhs,margin,holds,applicable,notes"
        assert len(rows) == len(report.bound_rows)

    def test_shorter_report_saved_over_longer(self, tmp_path):
        prefix = str(tmp_path / "demo")
        run(square_config(points=20, k=5, seed=1), out_override=prefix)
        short = run(square_config(points=20, k=1, seed=1,
                                  checks=("yang_second_inequality",)),
                    out_override=prefix)
        report_text = (tmp_path / "demo.report.json").read_text()
        assert report_text == json.dumps(short.to_dict(), indent=2,
                                         sort_keys=True) + "\n"
        assert (tmp_path / "demo.bounds.csv").read_text() == short.bounds_csv_text()

    def test_report_completeness(self):
        # order 2 so the interpolation check is not vacuous
        config = RunConfig(
            domain=DomainSpec.with_points("interval", [1.0], [200], l=2),
            k=4, seed=2, tolerances={"oracle": 0.1})
        report = run(config)
        row_names = [r["name"] for r in report.identity_rows] \
            + [r["name"] for r in report.bound_rows] \
            + [r["name"] for r in report.oracle_rows]
        for check in KNOWN_CHECKS:
            if check == "comparison":
                prefixes = ("hile_protter", "chen_qian_hook")
            else:
                prefixes = (check.replace("_cases", "_case"),)
            assert any(name.startswith(p) for name in row_names for p in prefixes), check
        for row in report.bound_rows:
            if not row["applicable"]:
                assert row["notes"], row["name"]

    def test_checks_subset_respected(self):
        config = square_config(points=20, k=2,
                               checks=("yang_second_inequality", "oracle"))
        report = run(config)
        assert report.identity_rows == []
        assert len(report.bound_rows) == 1
        assert report.bound_rows[0]["name"].startswith("yang_second")


class TestEvaluateBoundsOnList:
    def test_interval_spectrum_all_hold(self):
        rows = evaluate_bounds_on_list(interval_eigenvalues(8), l=1, n=1)
        applicable = [r for r in rows if r.applicable]
        assert applicable
        assert all(r.holds for r in applicable)

    def test_bad_list_rejected(self):
        with pytest.raises(ValueError):
            evaluate_bounds_on_list([1.0], l=1, n=1)

    def test_general_rows_evaluated_once_per_pair(self, monkeypatch):
        # one general-form call per spectrum serves the sweep and every
        # cross-check, and evaluates each pair once; with a zero gap the
        # cases are not compared, so their pairs are not evaluated
        calls = []
        general = bounds.yang_type_general
        monkeypatch.setattr(bounds, "yang_type_general", lambda lam, p, pairs=None: (
            calls.append(pairs) or general(lam, p, pairs)))
        cross = {(1.5, 2.0), (1.0, 1.0), (0.5, 0.5), (-1.0, 1.0)}
        for lam, expected_cross in ((interval_eigenvalues(8), cross),
                                    ([2.0, 5.0, 5.0, 8.0], set())):
            calls.clear()
            evaluate_bounds_on_list(lam, l=1, n=1, k=2)
            assert len(calls) == 1
            pairs = calls[0]
            assert len(pairs) == len(set(pairs))
            assert set(pairs) == set(bounds.admissible_grid()) | expected_cross | {(2.0, 2.0)}

    @pytest.mark.parametrize("config", [
        square_config(points=20, k=3, seed=1),
        RunConfig(domain=DomainSpec.with_points("interval", [1.0], [200], l=2),
                  k=4, seed=2, tolerances={"oracle": 0.1}),
    ], ids=["square-20", "rod-200-l2"])
    def test_same_rows_as_run(self, config):
        # verify and bounds run one check registry: on a run's spectrum the
        # list evaluation must reproduce the run's inequality rows exactly
        report = run(config)
        domain = config.domain
        rows = evaluate_bounds_on_list(report.spectrum["eigenvalues"],
                                       l=domain.l, n=domain.n, k=config.k)
        assert [r.to_dict() for r in rows] == report.bound_rows


class TestSharedGapList:
    @staticmethod
    def count_builds(monkeypatch):
        built = []
        init = bounds.GapList.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(bounds.GapList, "__init__", counting)
        return built

    def test_one_gap_list_per_list_evaluation(self, monkeypatch):
        built = self.count_builds(monkeypatch)
        rows = evaluate_bounds_on_list(interval_eigenvalues(41), l=2, n=1, k=40)
        assert len(rows) > 100
        assert len(built) == 1
        assert list(built[0]._weights) == [2]  # each weight raised once

    def test_one_gap_list_per_run(self, monkeypatch):
        built = self.count_builds(monkeypatch)
        report = run(square_config(points=20, k=4, seed=3))
        assert report.verdict == "pass"
        assert len(built) == 1


def _lhs_off(func):
    """func with its rows' lhs moved by 1e-9 relative."""
    def off(*args):
        row = func(*args)
        return BoundCheck(name=row.name, lhs=row.lhs * (1 + 1e-9), rhs=row.rhs,
                          notes=row.notes, rel_tol=row.rel_tol)
    return off


class TestAgreement:
    """The cross-check forms are compared with the general form on both sides."""

    def test_quadratic_lhs_disagreement_fails_the_row(self, monkeypatch):
        monkeypatch.setattr(bounds, "quadratic_gap_bound",
                            _lhs_off(bounds.quadratic_gap_bound))
        rows = evaluate_bounds_on_list([2.0, 5.0, 5.0, 8.0], l=1, n=1, k=2)
        (row,) = [r for r in rows if r.name.startswith("quadratic_gap_bound")]
        assert row.applicable and not row.holds
        # the disagreement is appended to the zero-gap note, not written over it
        assert row.notes.startswith("repeated eigenvalues")
        assert row.notes.endswith("disagrees with general form at (2, 2) by 1.00e-09")

    def test_case_note_names_the_lhs_mismatch(self, monkeypatch):
        monkeypatch.setattr(bounds, "yang_type_case", _lhs_off(bounds.yang_type_case))
        rows = evaluate_bounds_on_list(interval_eigenvalues(8), l=1, n=1)
        cases = [r for r in rows if r.name.startswith("yang_type_case")]
        assert len(cases) == 4
        for row in cases:
            assert not row.holds
            assert row.notes == "disagrees with general form by 1.00e-09"

    def test_agreeing_rows_keep_their_notes(self):
        rows = evaluate_bounds_on_list(interval_eigenvalues(8), l=1, n=1)
        notes = {r.name.split("(")[0]: r.notes for r in rows if r.holds}
        assert notes["yang_type_case"] == "agrees with general form"
        assert notes["quadratic_gap_bound"] == ""


class TestReportType:
    def test_schema_enforced_on_load(self):
        with pytest.raises(ValueError):
            VerificationReport.from_dict({"schema": "other/9", "config": {}})

    def test_body_excludes_timestamp(self):
        report = VerificationReport(config={"k": 1}, spectrum=None)
        assert "timestamp" not in report.body_dict()
        assert "timestamp" in report.to_dict()

    def test_equality_ignores_timestamp(self):
        a = VerificationReport(config={"k": 1}, spectrum=None, timestamp="t1")
        b = VerificationReport(config={"k": 1}, spectrum=None, timestamp="t2")
        assert a == b

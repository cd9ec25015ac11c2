"""Acceptance suite: one test per exit criterion, each with its stated
tolerance and runtime budget. Every test prints a single PASS line on
success (visible with pytest -s or in captured output)."""

import json
import time

import numpy as np

from polyspec.algebra import (
    ChiLambdaCouple,
    ExponentPair,
    chi_lambda_member,
    fuzz_chebyshev_sum,
    fuzz_generalized_chebyshev,
    fuzz_power_mean,
    fuzz_quadratic_chebyshev,
)
from polyspec.bounds import (
    BoundParams,
    ZeroGapError,
    admissible_grid,
    has_zero_gap,
    ppw_gap_bound,
    quadratic_gap_bound,
    recursive_upper_chain,
    spectral_gap_bound,
    yang_first_inequality,
    yang_second_inequality,
    yang_type_case,
    yang_type_general,
    yang_type_simplified,
)
from polyspec.eigensolve import smallest_eigenpairs
from polyspec.grids import DomainSpec
from polyspec.harness import RunConfig, run
from polyspec.identities import interpolation_check
from polyspec.operators import (
    build_laplacian,
    build_polyharmonic,
    commutator_residual,
    random_interior_function,
)
from polyspec.oracles import box_eigenvalues, clamped_rod_eigenvalues, interval_eigenvalues
from polyspec.report import load_report
from references import trace_identity_orders


class Budget:
    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        if exc[0] is None:
            assert self.elapsed < self.seconds, \
                f"runtime {self.elapsed:.2f}s exceeds budget {self.seconds}s"


def test_acceptance_1_analytic_spectrum_inequality_suite():
    """All evaluators hold on the exact interval and square spectra, k <= 10."""
    interval = interval_eigenvalues(11)
    square = box_eigenvalues([1.0, 1.0], 11)
    grid = admissible_grid()
    case_params = [(1, dict(alpha=a)) for a in (0.6, 1.0, 1.5, 2.0, 2.5, 3.0, 3.4)]
    case_params += [(2, {})]
    case_params += [(3, dict(beta=b)) for b in (0.125, 0.5, 1.0, 2.0)]
    case_params += [(4, dict(beta=b)) for b in (0.5, 1.0, 2.0)]
    checked = 0
    with Budget(5.0) as budget:
        for lam, n in ((interval, 1), (square, 2)):
            for k in range(1, 11):
                strict = not has_zero_gap(lam, k)
                for alpha, beta in grid:
                    p = BoundParams(l=1, n=n, alpha=alpha, beta=beta, k=k)
                    try:
                        check = yang_type_general(lam, p)
                        checked += 1
                        assert check.holds, ("general", n, k, alpha, beta)
                        simplified = yang_type_simplified(lam, p)
                        checked += 1
                        assert simplified.holds, ("simplified", n, k, alpha, beta)
                    except ZeroGapError:
                        assert not strict
                for case, kw in case_params:
                    if case in (3, 4) and not strict:
                        continue
                    p = BoundParams(l=1, n=n, k=k, **kw)
                    assert yang_type_case(lam, p, case).holds, (case, n, k, kw)
                    checked += 1
                p = BoundParams(l=1, n=n, k=k)
                for evaluator in (quadratic_gap_bound, spectral_gap_bound,
                                  yang_first_inequality, ppw_gap_bound,
                                  yang_second_inequality):
                    assert evaluator(lam, p).holds, (evaluator.__name__, n, k)
                    checked += 1
    print(f"ACCEPTANCE 1 PASS: {checked} inequality instances hold "
          f"on analytic spectra ({budget.elapsed:.2f}s)")


def test_acceptance_2_computed_spectrum_convergence():
    """Fine-grid eigenvalues match continuum references."""
    with Budget(60.0) as budget:
        square = DomainSpec.with_points("rectangle", [1.0, 1.0], [201, 201])
        s2 = smallest_eigenpairs(build_laplacian(square), 3, seed=0)
        ref = box_eigenvalues([1.0, 1.0], 3)
        rel = np.abs(s2.eigenvalues - ref) / ref
        assert rel[0] < 0.005, f"lambda_1 off by {rel[0]:.2e}"
        assert rel[1] < 0.01 and rel[2] < 0.01

        rod = DomainSpec.with_points("interval", [1.0], [4000], l=2)
        s4 = smallest_eigenpairs(build_polyharmonic(rod), 1, seed=0)
        rod_ref = clamped_rod_eigenvalues(1)[0]
        rod_rel = abs(s4.eigenvalues[0] - rod_ref) / rod_ref
        assert rod_rel < 0.005, f"clamped rod lambda_1 off by {rod_rel:.2e}"
    print(f"ACCEPTANCE 2 PASS: square within {max(rel):.2%}, "
          f"rod within {rod_rel:.2%} ({budget.elapsed:.1f}s)")


def test_acceptance_3_exact_discrete_commutator():
    """Commutator residual at machine precision for l in 1..3, n in 1..2."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    count = 0
    with Budget(10.0) as budget:
        for l in (1, 2, 3):
            for shape, pts in (("interval", [41]), ("rectangle", [23, 19])):
                extents = [float(m + 1) for m in pts]  # unit spacing
                spec = DomainSpec.with_points(shape, extents, pts, l=l)
                for p in range(spec.n):
                    for _ in range(20):
                        u = random_interior_function(spec, l + 1, rng)
                        res = commutator_residual(spec, u, p)
                        worst = max(worst, res)
                        count += 1
                        assert res <= 1e-10, (l, shape, p, res)
    print(f"ACCEPTANCE 3 PASS: {count} residuals, worst {worst:.2e} "
          f"({budget.elapsed:.1f}s)")


def test_acceptance_4_generalized_chebyshev_fuzz():
    """Randomized suites for the sum inequalities, zero violations."""
    with Budget(10.0) as budget:
        main = fuzz_generalized_chebyshev(trials=10_000, pairs_per_triple=10,
                                          seed=7, rel_tol=1e-12)
        assert main.passed, main.violations[:3]
        quad = fuzz_quadratic_chebyshev(trials=10_000, seed=8)
        assert quad.passed
        pm = fuzz_power_mean(trials=10_000, seed=9)
        assert pm.passed
        cs = fuzz_chebyshev_sum(trials=10_000, seed=10)
        assert cs.passed
    print(f"ACCEPTANCE 4 PASS: 4 suites x 10^4 trials, zero violations "
          f"({budget.elapsed:.1f}s)")


def test_acceptance_5_couple_membership_boundary():
    """Sampling test matches the closed-form membership criterion."""
    with Budget(2.0) as budget:
        for alpha, beta in ((2.0, 2.0), (1.0, 1.0), (-1.0, 0.5), (0.5, 0.125)):
            couple = ChiLambdaCouple(1.0, ExponentPair(alpha, beta))
            verdict = chi_lambda_member(couple, sample_count=50)
            assert verdict.holds_on_samples, (alpha, beta, verdict.first_violation)
        for alpha, beta in ((2.0, 1.0), (3.0, 2.0)):
            couple = ChiLambdaCouple(1.0, ExponentPair(alpha, beta))
            verdict = chi_lambda_member(couple, sample_count=50)
            assert not verdict.holds_on_samples, (alpha, beta)
            x, y, value = verdict.first_violation
            assert 0 < x < 1 and 0 < y < 1 and value > 0
    print(f"ACCEPTANCE 5 PASS: membership and explicit violations as "
          f"predicted ({budget.elapsed:.2f}s)")


def test_acceptance_6_interpolation_and_trace_refinement():
    """Clamped-rod interpolation bound and second-order trace convergence."""
    rod = DomainSpec.with_points("interval", [1.0], [999], l=2)
    spectrum = smallest_eigenpairs(build_polyharmonic(rod), 5, seed=0)
    rows = interpolation_check(spectrum, rod, tol=1e-3)
    assert len(rows) == 5
    for row in rows:
        assert row.observed <= row.reference * (1 + 1e-3), row.name

    base = DomainSpec.with_points("interval", [1.0], [249], l=2)
    orders = trace_identity_orders(base, k=5, levels=3, seed=0)
    assert len(orders) == 2
    assert np.all(orders >= 1.8), orders
    print(f"ACCEPTANCE 6 PASS: interpolation bounded, trace orders "
          f"{orders.round(3).tolist()}")


def test_acceptance_7_recursive_chain_domination():
    """Chain grown from the square's first eigenvalue dominates the next 9."""
    square = box_eigenvalues([1.0, 1.0], 10)
    chain = recursive_upper_chain(2 * np.pi ** 2, BoundParams(l=1, n=2), depth=9)
    bounds = np.concatenate([[2 * np.pi ** 2], chain])
    assert bounds.shape == (10,)
    assert np.all(square <= bounds * (1 + 1e-12)), (square / bounds)
    print("ACCEPTANCE 7 PASS: chained upper bounds dominate the first 10 "
          "square eigenvalues")


def test_acceptance_8_determinism_and_round_trip(tmp_path):
    """Byte-identical report bodies and lossless re-parsing."""
    config = RunConfig(
        domain=DomainSpec.with_points("rectangle", [1.0, 1.0], [30, 30]),
        k=3, seed=123)
    report_a = run(config, out_override=str(tmp_path / "a"))
    report_b = run(config, out_override=str(tmp_path / "b"))
    assert report_a.verdict == "pass"

    def body_bytes(path):
        data = json.loads(path.read_text())
        data.pop("timestamp")
        return json.dumps(data, indent=2, sort_keys=True).encode()

    assert body_bytes(tmp_path / "a.report.json") == \
        body_bytes(tmp_path / "b.report.json")

    loaded = load_report(str(tmp_path / "a.report.json"))
    assert loaded == report_a
    assert loaded.body_dict() == report_a.body_dict()
    print("ACCEPTANCE 8 PASS: identical bodies across reruns, lossless "
          "round-trip")

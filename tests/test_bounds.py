"""Inequality evaluator tests: frozen hand values, coherence, covariance."""

import math

import numpy as np
import pytest

from polyspec.algebra import InadmissibleExponents
from polyspec.bounds import (
    BoundCheck,
    BoundParams,
    GapList,
    ParameterError,
    ZeroGapError,
    admissible_grid,
    comparison_table,
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
from polyspec.harness import evaluate_bounds_on_list
from polyspec.oracles import box_eigenvalues, clamped_rod_eigenvalues, interval_eigenvalues

PI2 = np.pi ** 2
SQUARE = box_eigenvalues([1.0, 1.0], 11)
INTERVAL = interval_eigenvalues(11)


def params(l=1, n=2, alpha=2.0, beta=2.0, k=None):
    return BoundParams(l=l, n=n, alpha=alpha, beta=beta, k=k)


class TestConstants:
    def test_c0_c1(self):
        p = params(l=1, n=2)
        assert p.c0 == pytest.approx(math.sqrt(2))
        assert p.c1 == pytest.approx(2.0)
        assert params(l=1, n=1).c1 == pytest.approx(4.0)
        assert params(l=2, n=2).c1 == pytest.approx(8.0)

    def test_c1_is_c0_squared(self):
        for l in (1, 2, 3):
            for n in (1, 2, 3):
                p = params(l=l, n=n)
                assert p.c1 == pytest.approx(p.c0 ** 2)

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            BoundParams(l=0, n=2)
        with pytest.raises(ParameterError):
            BoundParams(l=1, n=2, beta=-1.0)
        with pytest.raises(ParameterError):
            BoundParams(l=1, n=2, k=0)


class TestGeneralForm:
    def test_unit_gap_hand_value(self):
        check = yang_type_general([1.0, 2.0], params(k=1))
        assert check.lhs == pytest.approx(1.0)
        assert check.rhs == pytest.approx(math.sqrt(2))
        assert check.holds

    def test_k1_ratio_is_parameter_free(self):
        lam = [3.0, 7.5]
        expected = None
        for alpha, beta in admissible_grid():
            check = yang_type_general(lam, params(alpha=alpha, beta=beta, k=1))
            ratio = check.rhs / check.lhs
            if expected is None:
                expected = ratio
            assert ratio == pytest.approx(expected, rel=1e-10)
        p = params(k=1)
        assert expected == pytest.approx(p.c0 * (7.5 - 3.0) ** -0.5 * 3.0 ** 0.5)

    def test_analytic_square_first_gap(self):
        check = yang_type_general(SQUARE[:2], params(k=1))
        assert check.holds
        assert check.margin > 0  # ratio 2.5 sits below the bound 3

    def test_full_sweep_on_analytic_spectra(self):
        for lam, n in ((INTERVAL, 1), (SQUARE, 2)):
            for k in range(1, 11):
                for alpha, beta in admissible_grid():
                    p = params(n=n, alpha=alpha, beta=beta, k=k)
                    try:
                        check = yang_type_general(lam, p)
                    except ZeroGapError:
                        assert has_zero_gap(lam, k)
                        continue
                    assert check.holds, (n, k, alpha, beta)

    def test_inadmissible_rejected(self):
        with pytest.raises(InadmissibleExponents):
            yang_type_general([1.0, 2.0], params(alpha=2.0, beta=1.0, k=1))

    def test_zero_gap_negative_exponent_rejected(self):
        with pytest.raises(ZeroGapError):
            yang_type_general([1.0, 2.0, 2.0], params(alpha=-1.0, beta=0.5, k=2))

    def test_zero_gap_nonnegative_exponents_allowed(self):
        check = yang_type_general([1.0, 2.0, 2.0], params(alpha=2.0, beta=2.0, k=2))
        assert check.holds
        assert "zero-gap" in check.notes

    def test_spectrum_validation(self):
        with pytest.raises(ValueError):
            yang_type_general([1.0], params(k=1))
        with pytest.raises(ValueError):
            yang_type_general([-1.0, 2.0], params(k=1))
        with pytest.raises(ValueError):
            yang_type_general([2.0, 1.0], params(k=1))


class TestSpecialCases:
    def test_case2_hand_value(self):
        check = yang_type_case([1.0, 2.0], params(k=1), 2)
        assert check.lhs == pytest.approx(1.0)
        assert check.rhs == pytest.approx(math.sqrt(2))

    def test_case1_at_alpha_one_reproduces_case2(self):
        lam = list(SQUARE[:6])
        c1 = yang_type_case(lam, params(alpha=1.0, k=4), 1)
        c2 = yang_type_case(lam, params(k=4), 2)
        assert c1.lhs == pytest.approx(c2.lhs, rel=1e-14)
        assert c1.rhs == pytest.approx(c2.rhs, rel=1e-14)

    def test_case4_hand_value(self):
        check = yang_type_case([1.0, 2.0], params(beta=0.5, k=1), 4)
        assert check.lhs == pytest.approx(1.0)
        assert check.rhs == pytest.approx(math.sqrt(2))

    def test_cases_agree_with_general_form(self):
        lam = list(INTERVAL[:6])
        k = 4
        pairs = {
            (1, params(alpha=1.5, k=k)): (1.5, 2.0),
            (2, params(k=k)): (1.0, 1.0),
            (3, params(beta=0.5, k=k)): (0.5, 0.5),
            (4, params(beta=1.0, k=k)): (-1.0, 1.0),
        }
        for (case, p), (alpha, beta) in pairs.items():
            check = yang_type_case(lam, p, case)
            general = yang_type_general(lam, params(alpha=alpha, beta=beta, k=k))
            assert check.lhs == pytest.approx(general.lhs, rel=1e-12)
            assert check.rhs == pytest.approx(general.rhs, rel=1e-12)

    def test_cases_hold_on_analytic_spectra(self):
        case_params = [(1, dict(alpha=a)) for a in (0.6, 1.0, 1.5, 2.0, 2.5, 3.0, 3.4)]
        case_params += [(2, {})]
        case_params += [(3, dict(beta=b)) for b in (0.125, 0.5, 1.0, 2.0)]
        case_params += [(4, dict(beta=b)) for b in (0.5, 1.0, 2.0)]
        for lam, n in ((INTERVAL, 1), (SQUARE, 2)):
            for k in range(1, 11):
                strict = not has_zero_gap(lam, k)
                for case, kw in case_params:
                    if case in (3, 4) and not strict:
                        continue
                    check = yang_type_case(lam, params(n=n, k=k, **kw), case)
                    assert check.holds, (n, k, case, kw)

    def test_parameter_range_validation(self):
        lam = [1.0, 2.0]
        with pytest.raises(ParameterError):
            yang_type_case(lam, params(alpha=0.5, k=1), 1)
        with pytest.raises(ParameterError):
            yang_type_case(lam, params(beta=0.1, k=1), 3)
        with pytest.raises(ParameterError):
            yang_type_case(lam, params(beta=0.4, k=1), 4)
        with pytest.raises(ParameterError):
            yang_type_case(lam, params(k=1), 5)

    def test_strict_gap_required_for_cases_3_4(self):
        lam = [1.0, 2.0, 2.0]
        for case, kw in ((3, dict(beta=0.5)), (4, dict(beta=1.0))):
            with pytest.raises(ZeroGapError):
                yang_type_case(lam, params(k=2, **kw), case)


class TestQuadraticGapBound:
    def test_matches_general_form(self):
        for lam in (list(INTERVAL[:6]), list(SQUARE[:6]), [1.0, 1.5, 4.0]):
            direct = quadratic_gap_bound(lam, params(k=len(lam) - 1))
            general = yang_type_general(lam, params(alpha=2.0, beta=2.0,
                                                    k=len(lam) - 1))
            assert direct.lhs == pytest.approx(general.lhs, rel=1e-12)
            assert direct.rhs == pytest.approx(general.rhs, rel=1e-12)

    def test_holds_on_analytic_spectra(self):
        for lam, n in ((INTERVAL, 1), (SQUARE, 2)):
            for k in range(1, 11):
                assert quadratic_gap_bound(lam, params(n=n, k=k)).holds

    def test_cauchy_schwarz_step_toward_quadratic_mean(self):
        # rhs^2 <= lhs * rhs(yang_first): the recombination step is exact
        for lam in (list(INTERVAL[:8]), [1.0, 2.0, 2.5, 6.0]):
            p = params(k=len(lam) - 1)
            quad = quadratic_gap_bound(lam, p)
            first = yang_first_inequality(lam, p)
            assert quad.rhs ** 2 <= quad.lhs * first.rhs * (1 + 1e-12)

    def test_implication_toward_yang_first(self):
        spectra = [list(INTERVAL[:5]), list(SQUARE[:7]), [1.0, 100.0],
                   [1.0, 1.2, 30.0]]
        for lam in spectra:
            p = params(k=len(lam) - 1)
            if quadratic_gap_bound(lam, p).holds:
                assert yang_first_inequality(lam, p).holds


class TestGapBounds:
    def test_spectral_gap_1d_hand_value(self):
        check = spectral_gap_bound([PI2, 4 * PI2], params(l=1, n=1, k=1))
        assert check.lhs == pytest.approx(3 * PI2)
        assert check.rhs == pytest.approx(4 * PI2)
        assert check.holds

    def test_spectral_gap_degenerate(self):
        check = spectral_gap_bound([2.0, 2.0], params(k=1))
        assert check.lhs == pytest.approx(0.0)
        assert check.holds

    def test_spectral_gap_square_with_tie(self):
        check = spectral_gap_bound(SQUARE[:3], params(k=2))
        assert check.lhs == pytest.approx(0.0, abs=1e-9)
        assert check.holds

    def test_ppw_1d_hand_value(self):
        check = ppw_gap_bound([PI2, 4 * PI2], params(l=1, n=1, k=1))
        assert check.lhs == pytest.approx(3 * PI2)
        assert check.rhs == pytest.approx(4 * PI2)
        assert check.holds

    def test_ppw_zero_gap(self):
        assert ppw_gap_bound([3.0, 3.0], params(k=1)).holds

    def test_ppw_square_k3(self):
        assert ppw_gap_bound(SQUARE[:4], params(k=3)).holds

    def test_yang_first_square_hand_value(self):
        check = yang_first_inequality([2 * PI2, 5 * PI2], params(k=1))
        assert check.lhs == pytest.approx(9 * PI2 ** 2)
        assert check.rhs == pytest.approx(12 * PI2 ** 2)

    def test_yang_first_all_gaps_zero(self):
        check = yang_first_inequality([4.0, 4.0, 4.0], params(k=2))
        assert check.lhs == pytest.approx(0.0)
        assert check.rhs == pytest.approx(0.0)
        assert check.holds

    def test_yang_second_hand_values(self):
        check = yang_second_inequality([2 * PI2, 5 * PI2], params(k=1))
        assert check.lhs == pytest.approx(5 * PI2)
        assert check.rhs == pytest.approx(6 * PI2)
        check = yang_second_inequality([PI2, 4 * PI2], params(l=1, n=1, k=1))
        assert check.lhs == pytest.approx(4 * PI2)
        assert check.rhs == pytest.approx(5 * PI2)

    def test_yang_second_constant_spectrum(self):
        check = yang_second_inequality([3.0, 3.0, 3.0], params(k=2))
        assert check.holds


@pytest.fixture(scope="module")
def plate():
    from polyspec.eigensolve import smallest_eigenpairs
    from polyspec.grids import DomainSpec
    from polyspec.operators import build_polyharmonic
    spec = DomainSpec.with_points("rectangle", [1.0, 1.0], [30, 30], l=2)
    return smallest_eigenpairs(build_polyharmonic(spec), 6, seed=0).eigenvalues


class TestClampedPlateSpectrum:
    """Inequality rows on a computed fourth-order plate spectrum (n=2)."""

    def test_constant_is_eight(self):
        assert params(l=2, n=2).c1 == pytest.approx(8.0)

    def test_gap_inequalities_hold(self, plate):
        for k in range(1, 6):
            p = params(l=2, n=2, k=k)
            assert yang_first_inequality(plate, p).holds
            assert quadratic_gap_bound(plate, p).holds
            assert yang_second_inequality(plate, p).holds
            assert ppw_gap_bound(plate, p).holds

    def test_sweep_holds(self, plate):
        for alpha, beta in admissible_grid():
            p = params(l=2, n=2, alpha=alpha, beta=beta, k=5)
            try:
                assert yang_type_general(plate, p).holds, (alpha, beta)
            except ZeroGapError:
                assert has_zero_gap(plate, 5)


def _one_pair(func, lam, p):
    try:
        return func(lam, p).to_dict()
    except (ZeroGapError, InadmissibleExponents) as exc:
        return type(exc), str(exc)


def _swept(func, lam, p, pairs):
    return [(r.to_dict() if isinstance(r, BoundCheck) else (type(r), str(r)))
            for r in func(lam, p, pairs=pairs)]


class TestSweep:
    """One call over many (alpha, beta) equals the one-pair calls exactly."""

    @pytest.mark.parametrize("func", [yang_type_general, yang_type_simplified])
    @pytest.mark.parametrize("lam,l,n,ks", [
        (interval_eigenvalues(41), 1, 1, (1, 2, 7, 40)),
        (box_eigenvalues([1.0, 1.0], 41), 1, 2, (1, 2, 3, 10, 40)),
        (box_eigenvalues([1.0, 1.0, 1.0], 41), 1, 3, (1, 3, 4, 11, 40)),
        (clamped_rod_eigenvalues(41), 2, 1, (1, 5, 40)),
        ([2.0, 5.0, 7.0, 7.0, 7.0], 3, 2, (4,)),     # three-fold top eigenvalue
    ], ids=["interval", "square", "cube", "rod", "triple-top"])
    def test_sweep_rows_equal_one_pair_rows(self, func, lam, l, n, ks):
        pairs = admissible_grid() + [(1.5, 2.0), (0.5, 0.5), (2.0, 1.0)]
        for k in ks:
            p = params(l=l, n=n, k=k)
            expected = [_one_pair(func, lam, p.with_exponents(a, b)) for a, b in pairs]
            assert _swept(func, lam, p, pairs) == expected, k

    @pytest.mark.parametrize("func", [yang_type_general, yang_type_simplified])
    def test_negative_exponent_on_zero_gap_spectrum(self, func):
        # only the pairs whose exponents include a negative one are inapplicable
        lam = [1.0, 2.0, 2.0]
        pairs = [(-1.0, 1.0), (2.0, 2.0), (0.5, 2.0), (1.0, 0.5), (-1.0, 1.0)]
        p = params(n=1, k=2)
        rows = _swept(func, lam, p, pairs)
        assert rows == [_one_pair(func, lam, p.with_exponents(a, b)) for a, b in pairs]
        assert [r[0] if isinstance(r, tuple) else None for r in rows] == \
            [ZeroGapError, None, ZeroGapError, None, ZeroGapError]
        assert rows[0][1] == "zero gap with negative exponent -1.0: strict gap required"
        assert rows[2][1] == "zero gap with negative exponent -2.0: strict gap required"
        assert all(r["applicable"] and "zero-gap" in r["notes"] for r in (rows[1], rows[3]))

    def test_one_pair_call_returns_a_row(self):
        p = params(n=1, k=2)
        assert isinstance(yang_type_general(INTERVAL, p), BoundCheck)
        assert yang_type_general(INTERVAL, p, pairs=[]) == []


def test_rel_tol_sets_the_slack():
    # lambda_2 = 5 (1 + 1e-6) lambda_1 breaks Yang's second inequality at
    # n = l = 1 by a relative 1e-6
    lam = [1.0, 5.0 * (1 + 1e-6)]
    assert not yang_second_inequality(lam, params(n=1)).holds
    assert yang_second_inequality(lam, BoundParams(l=1, n=1, rel_tol=1e-5)).holds
    p = BoundParams(l=1, n=1, rel_tol=1e-5)
    assert p.with_exponents(1.0, 1.0).rel_tol == 1e-5
    with pytest.raises(ParameterError):
        BoundParams(l=1, n=1, rel_tol=-1.0)


class TestSimplifiedForm:
    def test_dominates_general_right_side(self):
        for lam, n in ((INTERVAL, 1), (SQUARE, 2)):
            for k in (1, 3, 6, 10):
                for alpha, beta in admissible_grid():
                    p = params(n=n, alpha=alpha, beta=beta, k=k)
                    try:
                        simplified = yang_type_simplified(lam, p)
                        general = yang_type_general(lam, p)
                    except ZeroGapError:
                        continue
                    assert simplified.rhs >= general.rhs * (1 - 1e-12)
                    assert simplified.holds

    def test_l2_weights_differ_from_general(self):
        lam = [1.0, 3.0, 9.0]
        p = params(l=2, n=2, k=2)
        assert yang_type_simplified(lam, p).rhs > yang_type_general(lam, p).rhs


class TestRecursiveChain:
    def test_first_step_triples_lambda1(self):
        chain = recursive_upper_chain(1.0, params(l=1, n=2), depth=1)
        assert chain == pytest.approx([3.0])

    def test_depth_one_is_single_bound(self):
        assert len(recursive_upper_chain(5.0, params(), 1)) == 1

    def test_dominates_analytic_square(self):
        chain = recursive_upper_chain(float(SQUARE[0]), params(l=1, n=2), depth=9)
        bounds = np.concatenate([[SQUARE[0]], chain])
        assert np.all(bounds >= SQUARE[:10] - 1e-9 * SQUARE[:10])

    def test_input_validation(self):
        with pytest.raises(ValueError):
            recursive_upper_chain(0.0, params(), 3)
        with pytest.raises(ValueError):
            recursive_upper_chain(1.0, params(), 0)


class TestComparisonTable:
    def test_hile_protter_hand_value(self):
        rows = comparison_table([PI2, 4 * PI2], params(l=1, n=1, k=1))
        hp = next(r for r in rows if r.name.startswith("hile_protter"))
        assert hp.applicable
        assert hp.lhs == pytest.approx(0.25)
        assert hp.rhs == pytest.approx(1.0 / 3.0)
        assert hp.holds

    def test_chen_qian_hook_reduces_to_hile_protter_at_l1(self):
        lam = list(INTERVAL[:6])
        rows = comparison_table(lam, params(l=1, n=1, k=5))
        hp = next(r for r in rows if r.name.startswith("hile_protter"))
        cqh = next(r for r in rows if r.name.startswith("chen_qian_hook"))
        k = 5
        assert cqh.lhs == pytest.approx(hp.lhs * k, rel=1e-12)
        assert cqh.rhs == pytest.approx(hp.rhs * k, rel=1e-12)

    def test_hile_protter_inapplicable_beyond_l1(self):
        rows = comparison_table([1.0, 2.0], params(l=2, k=1))
        hp = next(r for r in rows if r.name.startswith("hile_protter"))
        assert not hp.applicable

    def test_zero_gap_marks_ratio_rows_inapplicable(self):
        rows = comparison_table([1.0, 2.0, 2.0], params(k=2))
        by_name = {r.name.split("(")[0]: r for r in rows}
        assert not by_name["hile_protter"].applicable
        assert not by_name["chen_qian_hook"].applicable

    def test_no_duplicate_of_yang_first(self):
        # Cheng, Ichikawa and Mametsuka's inequality is Yang's first one;
        # a second row for it would count every failure twice
        rows = comparison_table(list(SQUARE[:7]), params(k=6))
        assert [r.name.split("(")[0] for r in rows] == ["hile_protter", "chen_qian_hook"]

    def test_holds_on_clamped_orders(self):
        lam = [1.0, 2.2, 3.1, 5.0]
        for l in (1, 2, 3):
            for row in comparison_table(lam, params(l=l, n=2, k=3)):
                if row.applicable:
                    assert row.holds, (l, row.name)


class TestRandomBoxSpectra:
    """Every inequality must hold on genuine spectra of arbitrary boxes."""

    def test_theorem_family_on_random_boxes(self):
        rng = np.random.default_rng(314)
        for _ in range(40):
            n = int(rng.integers(1, 4))
            extents = rng.uniform(0.3, 6.0, size=n)
            lam = box_eigenvalues(extents, 16)
            k = int(rng.integers(1, 15))
            for _ in range(5):
                alpha = rng.uniform(-2.0, 3.0)
                beta = alpha * alpha / 2.0 + rng.uniform(0.0, 3.0)
                p = params(l=1, n=n, alpha=alpha, beta=beta, k=k)
                try:
                    check = yang_type_general(lam, p)
                    simp = yang_type_simplified(lam, p)
                except ZeroGapError:
                    assert has_zero_gap(lam, k)
                    continue
                assert check.holds, (extents, k, alpha, beta)
                assert simp.holds, (extents, k, alpha, beta)

    def test_parameter_free_bounds_on_random_boxes(self):
        rng = np.random.default_rng(2718)
        for _ in range(40):
            n = int(rng.integers(1, 4))
            extents = rng.uniform(0.3, 6.0, size=n)
            lam = box_eigenvalues(extents, 12)
            for k in (1, 5, 11):
                p = params(l=1, n=n, k=k)
                for evaluator in (quadratic_gap_bound, spectral_gap_bound,
                                  yang_first_inequality, ppw_gap_bound,
                                  yang_second_inequality):
                    assert evaluator(lam, p).holds, (extents, k, evaluator.__name__)
                chain = recursive_upper_chain(float(lam[0]), p, depth=11)
                assert np.all(lam[1:] <= chain * (1 + 1e-12))


class TestZeroGapConvention:
    """Dropping zero-gap terms equals evaluating at the reduced truncation."""

    def test_matches_reduced_truncation(self):
        # pairs with every gap exponent nonnegative (alpha, beta, 2a-b-1)
        full = [1.0, 2.0, 3.0, 5.0, 5.0, 5.0]   # top level three-fold
        reduced = [1.0, 2.0, 3.0, 5.0]
        for alpha, beta in ((2.0, 2.0), (1.0, 1.0), (1.5, 1.125), (2.5, 3.5)):
            a = yang_type_general(full, params(alpha=alpha, beta=beta, k=5))
            b = yang_type_general(reduced, params(alpha=alpha, beta=beta, k=3))
            assert a.lhs == pytest.approx(b.lhs, rel=1e-14)
            assert a.rhs == pytest.approx(b.rhs, rel=1e-14)
            assert "zero-gap" in a.notes

    def test_near_ties_from_solvers_count_as_zero(self):
        lam = [1.0, 2.0, 2.0 * (1 + 1e-13)]  # solver-level tie noise
        assert has_zero_gap(lam, 2)
        check = yang_type_general(lam, params(k=2))
        exact = yang_type_general([1.0, 2.0, 2.0], params(k=2))
        assert check.lhs == pytest.approx(exact.lhs, rel=1e-9)


class TestGapList:
    """One validated list per (spectrum, k), read by every evaluator."""

    @pytest.mark.parametrize("lam", [[1.0, math.nan], [1.0, 4.0, math.inf],
                                     [math.nan, 1.0, 2.0]])
    def test_non_finite_values_rejected(self, lam):
        # a nan passed the positivity and ordering checks, and an infinite
        # lambda_{k+1} made every gap count as zero, so such lists passed
        with pytest.raises(ValueError, match="finite"):
            GapList(lam)
        with pytest.raises(ValueError, match="finite"):
            evaluate_bounds_on_list(lam, l=1, n=1)

    def test_values_past_the_cut_are_not_read(self):
        t = GapList([1.0, 4.0, math.inf], k=1)
        assert t.k == 1 and t.gaps.tolist() == [3.0]

    def test_of_returns_the_list_cut_at_its_k(self):
        t = GapList(SQUARE, 6)
        assert GapList.of(t, 6) is t
        whole = GapList(SQUARE)
        assert GapList.of(whole, None) is whole
        assert GapList.of(SQUARE, 6) is not t

    def test_of_rejects_another_k(self):
        t = GapList(SQUARE, 6)
        with pytest.raises(ValueError, match="k=6"):
            GapList.of(t, 5)
        with pytest.raises(ValueError):
            yang_type_general(t, params(k=7))
        with pytest.raises(ValueError):  # k None: all but the last value
            GapList.of(t, None)

    @pytest.mark.parametrize("lam", [SQUARE, [2.0, 5.0, 5.0, 8.0, 9.0, 9.5, 11.0, 13.0]],
                             ids=["square", "zero-gap"])
    def test_rows_from_a_gap_list_equal_rows_from_the_list(self, lam):
        p = params(l=2, k=6)
        t = GapList(lam, 6)
        for func in (yang_type_general, quadratic_gap_bound, spectral_gap_bound,
                     yang_type_simplified, yang_first_inequality, ppw_gap_bound,
                     yang_second_inequality):
            assert func(t, p).to_dict() == func(lam, p).to_dict()
        for case, q in ((1, params(l=2, k=6, alpha=1.5)), (2, p)):
            assert yang_type_case(t, q, case).to_dict() == yang_type_case(lam, q, case).to_dict()
        assert [r.to_dict() for r in comparison_table(t, p)] \
            == [r.to_dict() for r in comparison_table(lam, p)]
        assert has_zero_gap(t, 6) == has_zero_gap(lam, 6)

    def test_weights_raised_once_per_order(self):
        t = GapList(SQUARE, 6)
        assert t.weights(2) is t.weights(2)
        w_lo, w_hi = t.weights(3)
        np.testing.assert_array_equal(w_lo, np.asarray(SQUARE[:6]) ** (2 / 3))
        np.testing.assert_array_equal(w_hi, np.asarray(SQUARE[:6]) ** (1 / 3))


class TestScaleCovariance:
    def test_verdicts_invariant_under_rescaling(self):
        lam = np.array([1.0, 2.3, 2.9, 4.1, 7.0])
        evaluators = [
            lambda v, p: yang_type_general(v, p),
            lambda v, p: yang_type_simplified(v, p),
            quadratic_gap_bound,
            spectral_gap_bound,
            yang_first_inequality,
            ppw_gap_bound,
            yang_second_inequality,
        ]
        p = params(l=2, n=3, alpha=1.5, beta=1.5, k=4)
        for c in (1e-3, 1.0, 1e3):
            for ev in evaluators:
                check = ev(c * lam, p)
                assert check.holds == ev(lam, p).holds
                # both sides scale by a common power of c
                base = ev(lam, p)
                if base.lhs > 0:
                    power = math.log(check.lhs / base.lhs) / math.log(c) if c != 1 else 0
                    rhs_power = math.log(check.rhs / base.rhs) / math.log(c) if c != 1 else 0
                    assert power == pytest.approx(rhs_power, abs=1e-9)


def test_boundcheck_serialization():
    check = BoundCheck(name="demo", lhs=1.0, rhs=2.0, notes="x")
    d = check.to_dict()
    assert d["margin"] == pytest.approx(1.0)
    assert d["holds"] is True
    ina = BoundCheck.inapplicable("demo", "why")
    assert not ina.applicable and not ina.holds


def test_non_finite_side_is_skipped_not_passed():
    check = BoundCheck(name="demo", lhs=1.0, rhs=math.inf, notes="x")
    assert not check.applicable and not check.holds
    assert check.rhs == math.inf and check.notes == "x; rhs is not finite (overflow)"
    nan_lhs = BoundCheck(name="demo", lhs=math.nan, rhs=1.0)
    assert not nan_lhs.applicable and nan_lhs.notes == "lhs is not finite (overflow)"
    assert nan_lhs.to_dict()["lhs"] is None
    # high powers of a list near 1e100 overflow: before, 25 of these rows
    # held with rhs = inf and printed as PASS
    with np.errstate(over="ignore", invalid="ignore"):
        rows = evaluate_bounds_on_list([1e100, 3e100, 7e100, 1.2e101], l=1, n=2, k=3)
    overflowed = [r for r in rows if not (math.isfinite(r.lhs) and math.isfinite(r.rhs))]
    assert len(overflowed) == 35
    for row in overflowed:
        assert not row.applicable and not row.holds, row.name
        assert "not finite (overflow)" in row.notes, row.name

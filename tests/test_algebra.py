"""Algebraic kernel tests: frozen hand values, error paths, properties."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyspec.algebra import (
    FUZZ_CHUNK,
    REL_TOL,
    CheckResult,
    ChiLambdaCouple,
    ExponentPair,
    InadmissibleExponents,
    InapplicableInput,
    MonotoneTriple,
    ZeroBaseError,
    chebyshev_sum_holds,
    chi_lambda_member,
    fuzz_chebyshev_sum,
    fuzz_generalized_chebyshev,
    fuzz_power_mean,
    fuzz_quadratic_chebyshev,
    generalized_chebyshev_holds,
    power_mean_holds,
    quadratic_chebyshev_holds,
)
from references import (
    random_admissible_pair,
    random_monotone_triple,
    reference_holds,
    sequential_fuzz,
)


class TestPowerMean:
    def test_two_entries(self):
        res = power_mean_holds((1.0, 2.0), 2.0)
        assert res.lhs == pytest.approx(9.0)
        assert res.rhs == pytest.approx(10.0)
        assert res.holds

    def test_singleton_equality(self):
        res = power_mean_holds((3.7,), 2.5)
        assert res.lhs == pytest.approx(res.rhs)
        assert res.holds

    def test_equal_entries_equality(self):
        res = power_mean_holds((1.0, 1.0, 1.0), 3.0)
        assert res.lhs == pytest.approx(27.0)
        assert res.rhs == pytest.approx(27.0)

    def test_strict_when_entries_differ(self):
        res = power_mean_holds((1.0, 2.0, 5.0), 2.0)
        assert res.margin > 0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            power_mean_holds((), 2.0)

    def test_rejects_gamma_below_one(self):
        with pytest.raises(ValueError):
            power_mean_holds((1.0, 2.0), 0.5)

    def test_rejects_negative_entry(self):
        with pytest.raises(ValueError):
            power_mean_holds((1.0, -0.1), 2.0)

    @given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=20),
           st.floats(min_value=1.0, max_value=6.0))
    @settings(max_examples=200, deadline=None)
    def test_property(self, s, gamma):
        assert power_mean_holds(s, gamma).holds


class TestChebyshevSum:
    def test_two_entries(self):
        res = chebyshev_sum_holds((3.0, 1.0), (1.0, 3.0))
        assert res.lhs == pytest.approx(6.0)
        assert res.rhs == pytest.approx(8.0)
        assert res.holds

    def test_three_entries(self):
        res = chebyshev_sum_holds((5.0, 3.0, 1.0), (1.0, 1.0, 2.0))
        assert res.lhs == pytest.approx(10.0)
        assert res.rhs == pytest.approx(12.0)
        assert res.holds

    def test_constant_sequences_equality(self):
        res = chebyshev_sum_holds((2.0, 2.0), (7.0, 7.0))
        assert res.lhs == pytest.approx(res.rhs)

    def test_constant_one_side_equality(self):
        res = chebyshev_sum_holds((1.0, 2.0, 3.0), (4.0, 4.0, 4.0))
        assert res.lhs == pytest.approx(res.rhs)

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            chebyshev_sum_holds((1.0,), (1.0, 2.0))

    def test_same_ordering_is_inapplicable(self):
        with pytest.raises(InapplicableInput):
            chebyshev_sum_holds((1.0, 2.0), (1.0, 2.0))

    @given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_property_sorted_vs_reversed(self, values):
        a = sorted(values)
        b = sorted(values, reverse=True)
        assert chebyshev_sum_holds(a, b).holds


class TestMonotoneTriple:
    def test_validates_orderings(self):
        with pytest.raises(ValueError):
            MonotoneTriple(A=(1.0, 2.0), B=(1.0, 2.0), C=(1.0, 2.0))
        with pytest.raises(ValueError):
            MonotoneTriple(A=(2.0, 1.0), B=(2.0, 1.0), C=(1.0, 2.0))
        with pytest.raises(ValueError):
            MonotoneTriple(A=(2.0, 1.0), B=(1.0, 2.0), C=(-1.0, 2.0))

    def test_non_strict_orderings_allowed(self):
        t = MonotoneTriple(A=(2.0, 2.0, 1.0), B=(1.0, 1.0, 2.0), C=(0.0, 0.0, 0.0))
        assert len(t) == 3


class TestGeneralizedChebyshev:
    def test_hand_example(self):
        t = MonotoneTriple(A=(2.0, 1.0), B=(1.0, 2.0), C=(1.0, 2.0))
        res = generalized_chebyshev_holds(t, ExponentPair(1.0, 1.0))
        assert res.lhs == pytest.approx(12.0)
        assert res.rhs == pytest.approx(15.0)
        assert res.holds

    def test_single_term_equality(self):
        t = MonotoneTriple(A=(3.0,), B=(2.0,), C=(5.0,))
        res = generalized_chebyshev_holds(t, ExponentPair(1.5, 2.0))
        assert res.lhs == pytest.approx(res.rhs)

    def test_constant_b_c_equality(self):
        t = MonotoneTriple(A=(3.0, 2.0, 1.0), B=(1.0, 1.0, 1.0), C=(1.0, 1.0, 1.0))
        for pair in (ExponentPair(1.0, 1.0), ExponentPair(2.0, 2.0),
                     ExponentPair(-1.0, 0.5)):
            res = generalized_chebyshev_holds(t, pair)
            assert res.lhs == pytest.approx(res.rhs, rel=1e-12)

    def test_inadmissible_pair_rejected(self):
        t = MonotoneTriple(A=(2.0, 1.0), B=(1.0, 2.0), C=(1.0, 2.0))
        with pytest.raises(InadmissibleExponents):
            generalized_chebyshev_holds(t, ExponentPair(2.0, 1.0))

    def test_zero_base_negative_exponent_rejected(self):
        t = MonotoneTriple(A=(1.0, 0.0), B=(1.0, 2.0), C=(1.0, 2.0))
        # alpha=0, beta=0 gives conjugate exponent -1 on a zero base
        with pytest.raises(ZeroBaseError):
            generalized_chebyshev_holds(t, ExponentPair(0.0, 0.0))

    def test_matches_quadratic_instance(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            t = random_monotone_triple(rng)
            general = generalized_chebyshev_holds(t, ExponentPair(2.0, 2.0))
            direct = quadratic_chebyshev_holds(t)
            assert general.lhs == pytest.approx(direct.lhs, rel=1e-12)
            assert general.rhs == pytest.approx(direct.rhs, rel=1e-12)

    def test_random_trials_hold(self):
        rep = fuzz_generalized_chebyshev(trials=500, pairs_per_triple=5, seed=42)
        assert rep.passed


class TestQuadraticChebyshev:
    def test_holds_on_random_triples(self):
        assert fuzz_quadratic_chebyshev(trials=500, seed=5).passed

    def test_equality_for_constant_weights(self):
        t = MonotoneTriple(A=(2.0, 1.0), B=(1.0, 1.0), C=(1.0, 1.0))
        res = quadratic_chebyshev_holds(t)
        assert res.lhs == pytest.approx(res.rhs)


class TestExponentPair:
    def test_admissibility_boundary(self):
        assert ExponentPair(2.0, 2.0).admissible
        assert ExponentPair(0.5, 0.125).admissible
        assert not ExponentPair(2.0, 1.0).admissible

    def test_rejects_negative_beta(self):
        with pytest.raises(ValueError):
            ExponentPair(1.0, -0.5)


class TestChiLambdaMembership:
    @pytest.mark.parametrize("alpha,beta", [(2.0, 2.0), (1.0, 1.0),
                                            (-1.0, 0.5), (0.5, 0.125),
                                            (0.0, 0.0)])
    def test_members(self, alpha, beta):
        couple = ChiLambdaCouple(1.0, ExponentPair(alpha, beta))
        verdict = chi_lambda_member(couple, sample_count=50)
        assert verdict.holds_on_samples
        assert verdict.admissible_by_criterion
        assert verdict.first_violation is None

    @pytest.mark.parametrize("alpha,beta", [(2.0, 1.0), (3.0, 2.0)])
    def test_non_members_exhibit_violation(self, alpha, beta):
        couple = ChiLambdaCouple(1.0, ExponentPair(alpha, beta))
        verdict = chi_lambda_member(couple, sample_count=50)
        assert not verdict.holds_on_samples
        assert not verdict.admissible_by_criterion
        x, y, value = verdict.first_violation
        assert 0 < x < 1 and 0 < y < 1 and x != y
        assert value > 0

    def test_other_lambda_scales(self):
        couple = ChiLambdaCouple(17.0, ExponentPair(1.0, 1.0))
        assert chi_lambda_member(couple, sample_count=40).holds_on_samples

    def test_sample_count_floor(self):
        couple = ChiLambdaCouple(1.0, ExponentPair(1.0, 1.0))
        with pytest.raises(ValueError):
            chi_lambda_member(couple, sample_count=1)

    def test_membership_monotone_in_beta(self):
        # growing beta keeps admissibility, hence membership on the same grid
        for alpha, beta in [(2.0, 2.0), (1.0, 0.5), (-1.0, 0.5)]:
            base = chi_lambda_member(
                ChiLambdaCouple(1.0, ExponentPair(alpha, beta)), 30)
            assert base.holds_on_samples
            for delta in (0.25, 1.0, 3.0):
                grown = chi_lambda_member(
                    ChiLambdaCouple(1.0, ExponentPair(alpha, beta + delta)), 30)
                assert grown.holds_on_samples


class TestFuzzSuites:
    def test_power_mean_suite(self):
        assert fuzz_power_mean(trials=300, seed=1).passed

    def test_chebyshev_sum_suite(self):
        assert fuzz_chebyshev_sum(trials=300, seed=2).passed

    def test_random_pair_is_admissible(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            assert random_admissible_pair(rng).admissible

    def test_random_triple_is_valid(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            t = random_monotone_triple(rng)
            assert min(t.A) > 0


SUITES = {
    "generalized_chebyshev": fuzz_generalized_chebyshev,
    "quadratic_chebyshev": fuzz_quadratic_chebyshev,
    "power_mean": fuzz_power_mean,
    "chebyshev_sum": fuzz_chebyshev_sum,
}


def _same_instance(got, want) -> bool:
    if isinstance(want, np.ndarray):
        return np.array_equal(got, want)
    return got == want


class TestBatchedSuites:
    @pytest.mark.parametrize("suite, pairs", [
        ("generalized_chebyshev", 1), ("generalized_chebyshev", 5),
        ("quadratic_chebyshev", None), ("power_mean", None), ("chebyshev_sum", None)])
    @pytest.mark.parametrize("trials", [1, FUZZ_CHUNK - 1, FUZZ_CHUNK + 1, 2500])
    @pytest.mark.parametrize("seed", [0, 17])
    def test_matches_sequential_reference(self, suite, pairs, trials, seed):
        kwargs = {} if pairs is None else {"pairs_per_triple": pairs}
        run = functools.partial(SUITES[suite], trials=trials, seed=seed, **kwargs)
        reference = sequential_fuzz(suite, trials, seed, **kwargs)
        # with rel_tol = -inf every instance is a violation, so the report lists them all
        everything = run(rel_tol=-np.inf)
        assert everything.trials == trials
        assert len(everything.violations) == len(reference)
        for (t, *instance, _), (t_ref, *instance_ref, _, _) in zip(
                everything.violations, reference):
            assert t == t_ref
            assert all(_same_instance(g, w) for g, w in zip(instance, instance_ref))
        sides = [(v[-1].lhs, v[-1].rhs) for v in everything.violations]
        np.testing.assert_allclose(sides, [r[-2:] for r in reference], rtol=1e-13, atol=0)
        violated = {}
        for rel_tol in (REL_TOL, -1e-13):
            violated[rel_tol] = [r[0] for r in reference
                                 if not reference_holds(r[-2], r[-1], rel_tol)]
            assert [v[0] for v in run(rel_tol=rel_tol).violations] == violated[rel_tol]
        # near-equal instances (k = 1) fail the negative slack, so the comparison
        # of violating trials is not vacuous
        assert violated[-1e-13] or trials == 1

    @pytest.mark.parametrize("suite", sorted(SUITES))
    @pytest.mark.parametrize("trials", [0, -5])
    def test_rejects_too_few_trials(self, suite, trials):
        with pytest.raises(ValueError):
            SUITES[suite](trials=trials)


def test_check_result_margin():
    res = CheckResult(lhs=1.0, rhs=3.0, holds=True)
    assert res.margin == pytest.approx(2.0)

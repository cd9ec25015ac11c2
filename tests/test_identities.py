"""Eigenfunction-level identity checks and their refinement behavior."""

import numpy as np
import pytest

from polyspec.eigensolve import Spectrum, smallest_eigenpairs
from polyspec.grids import DomainSpec, GridFunction
from polyspec.identities import (
    commutator_check,
    gradient_sum_check,
    interpolation_check,
    trace_identity_check,
)
from polyspec.operators import (
    build_laplacian,
    build_polyharmonic,
    central_difference,
    coordinate_multiply,
)
from references import trace_identity_orders


def interval(points, l=1):
    return DomainSpec.with_points("interval", [1.0], [points], l=l)


def square(points, l=1):
    return DomainSpec.with_points("rectangle", [1.0, 1.0], [points, points], l=l)


class TestCommutatorCheck:
    def test_rows_pass_for_all_orders(self):
        for l in (1, 2, 3):
            rows = commutator_check(square(14, l=l), trials=3, seed=1)
            assert len(rows) == 2
            for row in rows:
                assert row.passed
                assert row.deviation <= 1e-10


class TestTraceIdentity:
    def test_pointwise_identity_on_linear_data(self):
        # [D, x] acts as the identity on locally linear data, exactly
        spec = interval(51)
        xs = spec.coordinate(0)
        values = np.zeros(51)
        values[10:40] = xs[10:40]
        u = GridFunction(values, spec)
        comm = central_difference(0, coordinate_multiply(0, u)).values \
            - coordinate_multiply(0, central_difference(0, u)).values
        inside = slice(12, 38)
        assert comm[inside] == pytest.approx(values[inside], abs=1e-13)

    def test_deviation_matches_second_difference_correction(self):
        # for an eigenvector, 1 - value = (h^2/2) <L u, u> exactly
        spec = interval(64)
        spectrum = smallest_eigenpairs(build_laplacian(spec), 1)
        rows = trace_identity_check(spectrum, spec)
        h = spec.h[0]
        predicted = 0.5 * h ** 2 * spectrum.eigenvalues[0]
        assert rows[0].deviation == pytest.approx(predicted, rel=1e-9)
        assert rows[0].passed

    def test_normalization_is_enforced_internally(self):
        spec = square(16)
        spectrum = smallest_eigenpairs(build_laplacian(spec), 2)
        # scale the stored vectors; the check must renormalize
        spectrum_scaled = Spectrum(
            eigenvalues=spectrum.eigenvalues, residuals=spectrum.residuals,
            k=spectrum.k, vectors=spectrum.vectors * 3.0, spec=spec)
        a = trace_identity_check(spectrum, spec)
        b = trace_identity_check(spectrum_scaled, spec)
        for ra, rb in zip(a, b):
            assert ra.observed == pytest.approx(rb.observed, rel=1e-12)

    def test_refinement_order_is_second_order(self):
        spec = square(15)
        orders = trace_identity_orders(spec, k=2, levels=3)
        assert np.all(orders > 1.8)
        assert np.all(orders < 2.3)

    def test_requires_vectors(self):
        spec = interval(16)
        spectrum = smallest_eigenpairs(build_laplacian(spec), 1,
                                       compute_vectors=False)
        with pytest.raises(ValueError):
            trace_identity_check(spectrum, spec)


class TestInterpolation:
    def test_vacuous_for_order_one(self):
        spec = interval(20)
        spectrum = smallest_eigenpairs(build_laplacian(spec), 2)
        assert interpolation_check(spectrum, spec) == []

    def test_synthetic_equality_case(self):
        # an exact eigenvector of L treated under l=2 with lam = mu^2
        spec = interval(40, l=2)
        lap = build_laplacian(interval(40, l=1))
        mu, vec = np.linalg.eigh(lap.matrix().toarray())
        v = vec[:, 0] / np.sqrt(spec.cell_volume)
        spectrum = Spectrum(eigenvalues=np.array([mu[0] ** 2]),
                            residuals=np.zeros(1), k=1,
                            vectors=v.reshape(-1, 1), spec=spec)
        rows = interpolation_check(spectrum, spec, tol=1e-9)
        assert len(rows) == 1
        assert rows[0].observed == pytest.approx(mu[0], rel=1e-10)
        assert rows[0].reference == pytest.approx(mu[0], rel=1e-10)
        assert rows[0].passed

    def test_clamped_rod_bounded_with_margin(self):
        spec = interval(300, l=2)
        spectrum = smallest_eigenpairs(build_polyharmonic(spec), 5)
        rows = interpolation_check(spectrum, spec, tol=1e-3)
        assert len(rows) == 5
        for row in rows:
            assert row.passed
            assert row.observed < row.reference  # strict for the clamped model

    def test_third_order_rows(self):
        spec = interval(60, l=3)
        spectrum = smallest_eigenpairs(build_polyharmonic(spec), 3)
        rows = interpolation_check(spectrum, spec, tol=1e-3)
        assert len(rows) == 6  # j = 1, 2 for each of three pairs
        assert all(r.passed for r in rows)


class TestGradientSum:
    def test_order_one_form_equals_eigenvalue(self):
        spec = square(24)
        spectrum = smallest_eigenpairs(build_laplacian(spec), 3)
        rows = gradient_sum_check(spectrum, spec)
        bound_rows = [r for r in rows if "bound" in r.name]
        for i, row in enumerate(bound_rows):
            # at l=1 the quadratic form reproduces the eigenvalue itself
            assert row.reference == pytest.approx(spectrum.eigenvalues[i], rel=1e-10)
            assert row.passed

    def test_match_deviation_shrinks_under_refinement(self):
        devs = []
        for m in (16, 33, 67):
            spec = square(m)
            spectrum = smallest_eigenpairs(build_laplacian(spec), 1)
            rows = gradient_sum_check(spectrum, spec)
            assert rows[0].passed
            devs.append(rows[0].deviation)
        orders = np.log2(np.array(devs[:-1]) / np.array(devs[1:]))
        assert np.all(orders > 0.8)  # first-order boundary quadrature effect

    def test_clamped_rod_bound(self):
        spec = interval(300, l=2)
        spectrum = smallest_eigenpairs(build_polyharmonic(spec), 3)
        rows = gradient_sum_check(spectrum, spec)
        assert all(r.passed for r in rows)

    def test_centered_energy_never_exceeds_form(self):
        spec = square(18)
        spectrum = smallest_eigenpairs(build_laplacian(spec), 4)
        rows = [r for r in gradient_sum_check(spectrum, spec) if "match" in r.name]
        for row in rows:
            assert row.observed <= row.reference * (1 + 1e-12)

"""Discrete operator tests: stencils, powers, differences, commutator."""

import numpy as np
import pytest

from polyspec.eigensolve import smallest_eigenpairs
from polyspec.grids import DomainSpec, GridError, GridFunction
from polyspec.operators import (
    SupportMarginError,
    build_laplacian,
    build_polyharmonic,
    central_difference,
    commutator_residual,
    coordinate_multiply,
    interior_factor,
    interior_laplacian,
    interior_support_region,
    random_interior_function,
)
from polyspec.oracles import discrete_interval_eigenvalues
from references import central_difference_matrix, operator_power, symmetry_defect


def interval(points, l=1, extent=1.0):
    return DomainSpec.with_points("interval", [extent], [points], l=l)


def rectangle(p0, p1, l=1, extents=(1.0, 1.0)):
    return DomainSpec.with_points("rectangle", list(extents), [p0, p1], l=l)


def lshape(points=15, l=1):
    half = points // 2
    rows = ["1" * points] * half + ["1" * half + "0" * (points - half)] * (points - half)
    return DomainSpec.with_points("masked-rectangle", [1.0, 1.0],
                                  [points, points], l=l, mask=rows)


class TestLaplacian:
    def test_1d_closed_form_eigenvalues(self):
        m = 40
        spec = interval(m)
        lap = build_laplacian(spec)
        computed = np.sort(np.linalg.eigvalsh(lap.matrix().toarray()))
        expected = np.sort(discrete_interval_eigenvalues(m, spec.h[0]))
        assert computed == pytest.approx(expected, rel=1e-10)

    def test_zero_in_zero_out(self):
        spec = rectangle(10, 12)
        lap = build_laplacian(spec)
        u = GridFunction.zeros(spec)
        assert not np.any(lap.apply(u.values))

    def test_2d_sine_mode_is_eigenvector(self):
        m = 25
        spec = rectangle(m, m)
        lap = build_laplacian(spec)
        x = spec.axis_coordinates(0)
        mode = np.outer(np.sin(np.pi * x), np.sin(np.pi * x)).ravel()
        h = spec.h[0]
        mu = 2 * (4.0 / h ** 2) * np.sin(np.pi * h / 2) ** 2
        out = lap.apply(mode)
        assert out == pytest.approx(mu * mode, rel=1e-10)

    def test_masked_restriction_matches_submatrix(self):
        spec = lshape(9)
        lap = build_laplacian(spec)
        box = build_laplacian(DomainSpec.with_points(
            "rectangle", [1.0, 1.0], [9, 9])).matrix()
        idx = spec.flat_indices()
        expected = box[np.ix_(idx, idx)].toarray()
        assert np.allclose(lap.matrix().toarray(), expected)

    def test_interior_factor_cached_read_only(self):
        spec = lshape(9, l=2)
        b = interior_factor(spec)
        assert interior_factor(DomainSpec.from_dict(spec.to_dict())) is b
        assert np.shares_memory(build_laplacian(spec).factor.data, b.data)
        with pytest.raises(ValueError):
            b.data[0] = 0.0

    def test_interior_laplacian_and_support_cached_read_only(self):
        spec = lshape(9, l=2)
        twin = DomainSpec.from_dict(spec.to_dict())
        lap = interior_laplacian(spec)
        assert interior_laplacian(twin) is lap
        assert interior_support_region(twin, 3) is interior_support_region(spec, 3)
        assert abs(lap - build_laplacian(spec).matrix()).max() == 0.0
        with pytest.raises(ValueError):
            lap.data[0] = 0.0
        for margin in (0, 3):
            region = interior_support_region(spec, margin)
            with pytest.raises(ValueError):
                region[0, 0] = not region[0, 0]

    def test_symmetry_probe(self):
        for spec in (interval(17), rectangle(9, 11), lshape(9)):
            assert symmetry_defect(build_laplacian(spec), trials=100) < 1e-12

    def test_positivity_over_random_starts(self):
        spec = rectangle(8, 8)
        lap = build_laplacian(spec)
        rng = np.random.default_rng(0)
        for _ in range(50):
            v = rng.standard_normal(lap.dimension)
            assert float(v @ lap.apply(v)) > 0

    def test_refinement_order_toward_continuum(self):
        errors = []
        for m in (20, 41, 83):  # spacing halves each step
            spec = interval(m)
            lam1 = smallest_eigenpairs(build_laplacian(spec), 1).eigenvalues[0]
            errors.append(abs(lam1 - np.pi ** 2))
        orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        assert np.all(orders > 1.8) and np.all(orders < 2.2)


class TestOperatorPower:
    def test_power_one_returns_same_object(self):
        lap = build_laplacian(interval(11))
        assert operator_power(lap, 1) is lap

    def test_rejects_nonpositive_power(self):
        lap = build_laplacian(interval(11))
        with pytest.raises(ValueError):
            operator_power(lap, 0)

    def test_eigenvalues_are_powers(self):
        spec = interval(30)
        lap = build_laplacian(spec)
        squared = operator_power(lap, 2)
        base_eigs = np.linalg.eigvalsh(lap.matrix().toarray())
        sq_eigs = np.linalg.eigvalsh(squared.matrix().toarray())
        assert np.sort(sq_eigs) == pytest.approx(np.sort(base_eigs) ** 2, rel=1e-10)

    def test_action_matches_repeated_application(self):
        spec = rectangle(8, 9)
        lap = build_laplacian(spec)
        cubed = operator_power(lap, 3)
        rng = np.random.default_rng(1)
        for _ in range(5):
            v = rng.standard_normal(lap.dimension)
            direct = lap.apply(lap.apply(lap.apply(v)))
            assert cubed.apply(v) == pytest.approx(direct, rel=1e-12)


class TestPolyharmonic:
    def test_order_one_is_laplacian(self):
        spec = interval(15, l=1)
        assert np.allclose(build_polyharmonic(spec).matrix().toarray(),
                           build_laplacian(spec).matrix().toarray())

    def test_differs_from_matrix_square_at_boundary(self):
        # zero-extension composition keeps the free-lattice boundary rows
        spec = interval(15, l=2)
        clamped = build_polyharmonic(spec).matrix().toarray()
        squared = operator_power(build_laplacian(spec), 2).matrix().toarray()
        h4 = spec.h[0] ** 4
        assert clamped[0, 0] * h4 == pytest.approx(6.0)
        assert squared[0, 0] * h4 == pytest.approx(5.0)
        interior = slice(2, 13)
        assert np.allclose(clamped[interior, :], squared[interior, :])

    def test_symmetric_positive(self):
        for l in (2, 3):
            spec = interval(25, l=l)
            op = build_polyharmonic(spec)
            assert symmetry_defect(op, trials=50) < 1e-12
            eigs = np.linalg.eigvalsh(op.matrix().toarray())
            assert eigs.min() > 0

    def test_agrees_with_power_away_from_boundary(self):
        spec = rectangle(13, 11, l=2)
        clamped = build_polyharmonic(spec)
        squared = operator_power(build_laplacian(spec), 2)
        rng = np.random.default_rng(4)
        u = random_interior_function(spec, spec.l + 1, rng)
        a = clamped.apply(u.values)
        b = squared.apply(u.values)
        assert a == pytest.approx(b, rel=1e-10)


class TestCoordinateMultiply:
    def test_zero_function(self):
        spec = interval(9)
        u = GridFunction.zeros(spec)
        assert not np.any(coordinate_multiply(0, u).values)

    def test_delta_scaling(self):
        spec = interval(9)
        values = np.zeros(9)
        values[4] = 1.0
        u = GridFunction(values, spec)
        out = coordinate_multiply(0, u)
        assert out.values[4] == pytest.approx(spec.coordinate(0)[4])
        assert np.count_nonzero(out.values) == 1

    def test_axes_commute(self):
        spec = rectangle(7, 8)
        rng = np.random.default_rng(2)
        u = GridFunction(rng.standard_normal(spec.interior_count), spec)
        xy = coordinate_multiply(0, coordinate_multiply(1, u))
        yx = coordinate_multiply(1, coordinate_multiply(0, u))
        assert xy.values == pytest.approx(yx.values, rel=1e-15, abs=1e-15)


class TestCentralDifference:
    def test_kills_constants_away_from_boundary(self):
        spec = interval(21)
        u = GridFunction(np.ones(21), spec)
        out = central_difference(0, u)
        assert out.values[1:-1] == pytest.approx(np.zeros(19), abs=1e-14)

    def test_linear_ramp(self):
        spec = interval(21)
        u = GridFunction(spec.coordinate(0), spec)
        out = central_difference(0, u)
        assert out.values[1:-1] == pytest.approx(np.ones(19))

    def test_skew_symmetry_exact(self):
        rng = np.random.default_rng(3)
        for spec in (interval(13), rectangle(8, 9), lshape(9)):
            for p in range(spec.n):
                for _ in range(10):
                    u = GridFunction(rng.standard_normal(spec.interior_count), spec)
                    v = GridFunction(rng.standard_normal(spec.interior_count), spec)
                    du_v = central_difference(p, u).inner(v)
                    u_dv = u.inner(central_difference(p, v))
                    assert du_v == pytest.approx(-u_dv, rel=1e-12, abs=1e-12)

    def test_matches_matrix_form(self):
        spec = rectangle(7, 9)
        rng = np.random.default_rng(5)
        u = GridFunction(rng.standard_normal(spec.interior_count), spec)
        for p in range(2):
            direct = central_difference(p, u).values
            matrix = central_difference_matrix(spec, p)
            assert direct == pytest.approx(matrix @ u.values, rel=1e-13)

    def test_axis_out_of_range(self):
        spec = interval(9)
        with pytest.raises(GridError):
            central_difference(1, GridFunction.zeros(spec))


class TestCommutator:
    def test_zero_function(self):
        spec = interval(15, l=2)
        assert commutator_residual(spec, GridFunction.zeros(spec), 0) == 0.0

    def test_1d_order_one_fine_grid(self):
        spec = interval(41, l=1)
        rng = np.random.default_rng(6)
        u = random_interior_function(spec, 2, rng)
        assert commutator_residual(spec, u, 0) <= 1e-12

    def test_exact_for_all_orders_unit_spacing(self):
        rng = np.random.default_rng(7)
        for l in (1, 2, 3):
            for shape, pts in (("interval", [41]), ("rectangle", [23, 19])):
                extents = [float(m + 1) for m in pts]
                spec = DomainSpec.with_points(shape, extents, pts, l=l)
                for p in range(spec.n):
                    u = random_interior_function(spec, l + 1, rng)
                    assert commutator_residual(spec, u, p) <= 1e-10

    def test_margin_violation_names_cell(self):
        spec = interval(15, l=2)
        values = np.zeros(15)
        values[0] = 1.0  # one cell from the boundary, margin is 3
        with pytest.raises(SupportMarginError, match=r"\(0,\)"):
            commutator_residual(spec, GridFunction(values, spec), 0)

    def test_masked_domain_exact(self):
        spec = lshape(17, l=2)
        rng = np.random.default_rng(8)
        u = random_interior_function(spec, 3, rng)
        for p in range(2):
            assert commutator_residual(spec, u, p) <= 1e-8


class TestSupportRegion:
    def test_erosion_depth(self):
        spec = interval(11)
        region = interior_support_region(spec, 3)
        assert region.sum() == 11 - 6
        assert not region[0] and not region[-1]

    def test_masked_cells_count_as_boundary(self):
        spec = lshape(9)
        full = interior_support_region(spec, 1)
        box = spec.mask_array
        # eroded region must avoid cells adjacent to masked-out cells
        assert full.sum() < box.sum()
        assert not full[~box].any()

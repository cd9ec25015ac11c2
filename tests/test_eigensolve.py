"""Eigensolver tests against closed-form and dense oracles."""

import math

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from polyspec import eigensolve
from polyspec.eigensolve import SolverError, smallest_eigenpairs
from polyspec.grids import DomainSpec
from polyspec.operators import (
    DiscreteOperator,
    build_laplacian,
    build_polyharmonic,
)
from polyspec.oracles import (
    box_eigenvalues,
    clamped_rod_eigenvalues,
    discrete_interval_eigenvalues,
)
from references import assembled_eigenvalues, operator_power, orthonormality_defect


def interval(points, l=1):
    return DomainSpec.with_points("interval", [1.0], [points], l=l)


class TestSmallestEigenpairs:
    # the solver takes these spectra from the 1-D closed form, so the
    # reference is another solver on the assembled matrix
    @pytest.mark.parametrize("m", [999, 4500])
    def test_1d_closed_form(self, m):
        op = build_laplacian(interval(m))
        s = smallest_eigenpairs(op, 3, seed=0)
        assert s.eigenvalues == pytest.approx(assembled_eigenvalues(op, 3), rel=1e-8)

    @pytest.mark.parametrize("points,extents,k", [
        ([80, 80], None, 6),                # spans the double eigenvalue
        ([12, 12, 12], None, 6),            # splits the second triple
        ([10, 11, 12], [1.0, 2.0, 3.0], 10),
        ([40, 5], None, 12),                # the 5-point axis runs out of pairs
        ([80, 80], None, 5),                # the 5th pair is one of a double
    ], ids=["square-80-double", "cube-12-triple", "box-extents-1x2x3",
            "rect-40x5-k12", "square-80-tie"])
    def test_order_one_tensor_sum_spectrum(self, points, extents, k):
        shape = "rectangle" if len(points) == 2 else "box"
        spec = DomainSpec.with_points(shape, extents or [1.0] * len(points), points)
        op = build_laplacian(spec)
        s = smallest_eigenpairs(op, k, seed=0)
        assert s.eigenvalues == pytest.approx(assembled_eigenvalues(op, k), rel=1e-12)
        assert s.residuals.max() <= 1e-8        # within the requested tolerance
        assert orthonormality_defect(s) < 1e-14

    def test_perturbed_sine_eigenvalues_fail_the_certificate(self, monkeypatch):
        # the closed form is certified like a Lanczos pair: eigenvalues 1e-6
        # off in relative terms give radii far above the tolerance
        def perturbed(m, h, count=None):
            return discrete_interval_eigenvalues(m, h, count) * (1.0 + 1e-6)

        monkeypatch.setattr(eigensolve, "discrete_interval_eigenvalues", perturbed)
        for points in ([300], [20, 20], [9, 10, 11]):
            shape = ["interval", "rectangle", "box"][len(points) - 1]
            spec = DomainSpec.with_points(shape, [1.0] * len(points), points)
            with pytest.raises(SolverError):
                smallest_eigenpairs(build_laplacian(spec), 4)

    @pytest.mark.parametrize("points", [[999], [201, 201], [20, 20, 20]],
                             ids=["interval-999", "square-201", "box-20"])
    def test_order_one_box_takes_no_block_lu_or_lanczos(self, points, monkeypatch,
                                                        block_count, lu_count):
        calls = []
        monkeypatch.setattr(spla, "eigsh", lambda *a, **kw: calls.append(a))
        shape = ["interval", "rectangle", "box"][len(points) - 1]
        spec = DomainSpec.with_points(shape, [1.0] * len(points), points)
        s = smallest_eigenpairs(build_laplacian(spec), 6, seed=0)
        assert (block_count, lu_count, calls) == ([], [], [])
        assert s.residuals.max() <= 1e-8

    def test_large_cube_certified(self):
        # 216,000 unknowns, beyond what one LU and Lanczos run take in a second
        spec = DomainSpec.with_points("box", [1.0] * 3, [60] * 3)
        s = smallest_eigenpairs(build_laplacian(spec), 6)
        assert s.residuals.max() <= 1e-11
        assert s.eigenvalues[0] == pytest.approx(3 * np.pi ** 2, rel=1e-3)

    def test_order_one_masked_dense_oracle(self):
        rows = ["1" * 24] * 12 + ["1" * 12 + "0" * 12] * 12
        spec = DomainSpec.with_points("masked-rectangle", [1.0, 1.0], [24, 24],
                                      mask=rows)
        op = build_laplacian(spec)
        s = smallest_eigenpairs(op, 6, seed=0)
        dense = np.sort(np.linalg.eigvalsh(op.matrix().toarray()))[:6]
        assert s.eigenvalues == pytest.approx(dense, rel=1e-10)

    def test_scaled_identity(self):
        op = DiscreteOperator(factor=np.sqrt(2.5) * sp.identity(40))
        s = smallest_eigenpairs(op, 1)
        assert s.eigenvalues[0] == pytest.approx(2.5)

    def test_2d_square_continuum_values(self):
        spec = DomainSpec.with_points("rectangle", [1.0, 1.0], [60, 60])
        s = smallest_eigenpairs(build_laplacian(spec), 3, seed=0)
        assert s.eigenvalues[0] == pytest.approx(2 * np.pi ** 2, rel=0.01)
        assert s.eigenvalues[1] == pytest.approx(5 * np.pi ** 2, rel=0.01)
        assert s.eigenvalues[2] == pytest.approx(5 * np.pi ** 2, rel=0.01)

    def test_order_and_positivity(self):
        spec = DomainSpec.with_points("rectangle", [1.0, 1.0], [20, 20])
        s = smallest_eigenpairs(build_laplacian(spec), 8)
        assert np.all(np.diff(s.eigenvalues) >= 0)
        assert np.all(s.eigenvalues > 0)

    def test_residuals_below_tolerance(self):
        spec = interval(200)
        s = smallest_eigenpairs(build_laplacian(spec), 5, tol=1e-8)
        assert np.all(s.residuals <= s.solver_tol)

    def test_orthonormality(self):
        spec = DomainSpec.with_points("rectangle", [1.0, 1.0], [25, 25])
        s = smallest_eigenpairs(build_laplacian(spec), 6)
        assert orthonormality_defect(s) < 1e-8

    def test_power_consistency_dense_oracle(self):
        # small instance where both sides are computed independently
        spec = interval(40)
        lap = build_laplacian(spec)
        for l in (2, 3):
            powered = operator_power(lap, l)
            s = smallest_eigenpairs(powered, 5)
            base = np.sort(np.linalg.eigvalsh(lap.matrix().toarray()))[:5]
            assert s.eigenvalues == pytest.approx(base ** l, rel=1e-6)

    def test_clamped_rod_converges(self):
        spec = interval(500, l=2)
        s = smallest_eigenpairs(build_polyharmonic(spec), 3, seed=0)
        ref = clamped_rod_eigenvalues(3)
        assert s.eigenvalues == pytest.approx(ref, rel=0.02)

    def test_clamped_plate_approaches_reference(self):
        # fourth-order problem on the unit square; the zero-extension model
        # converges at first order toward the clamped value ~1294.934
        reference = 1294.934
        errors = []
        for m in (20, 41):
            spec = DomainSpec.with_points("rectangle", [1.0, 1.0], [m, m], l=2)
            lam1 = smallest_eigenpairs(build_polyharmonic(spec), 1,
                                       seed=0).eigenvalues[0]
            errors.append(abs(lam1 - reference) / reference)
        assert errors[1] < errors[0]
        assert np.log2(errors[0] / errors[1]) > 0.7
        assert errors[1] < 0.15

    @pytest.mark.parametrize("shape,points,l", [
        ("interval", [4000], 2),
        ("rectangle", [60, 60], 2),
        ("interval", [400], 3),
    ], ids=["rod-4000-l2", "plate-60x60-l2", "interval-400-l3"])
    def test_agrees_with_factor_singular_values(self, shape, points, l):
        # the squared singular values of G are the oracle: forming G^T G
        # would square the condition number the test is about
        spec = DomainSpec.with_points(shape, [1.0] * len(points), points, l=l)
        op = build_polyharmonic(spec)
        s = smallest_eigenpairs(op, 6, seed=0)
        sigma = np.sort(sla.svdvals(op.factor.toarray()))[:6]
        assert s.eigenvalues == pytest.approx(sigma ** 2, rel=1e-9)
        assert np.all(s.residuals <= s.solver_tol)

    def test_k_exceeds_dimension(self):
        op = DiscreteOperator(factor=sp.identity(5))
        with pytest.raises(ValueError):
            smallest_eigenpairs(op, 6)
        with pytest.raises(ValueError):  # Lanczos cannot return all pairs
            smallest_eigenpairs(op, 5)

    def test_k_must_be_positive(self):
        op = DiscreteOperator(factor=sp.identity(5))
        with pytest.raises(ValueError):
            smallest_eigenpairs(op, 0)

    def test_indefinite_operator_rejected(self):
        # a factor with a zero column: G^T G is singular, not definite
        op = DiscreteOperator(factor=sp.diags([1.0] * 7 + [0.0]))
        with pytest.raises(SolverError):
            smallest_eigenpairs(op, 1)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("m,h", [(401, 1 / 7), (2000, 0.013),
                                     (3, 1 / 7), (3, 0.3)])
    def test_singular_order_one_operator_rejected(self, m, h):
        # Neumann differences: the constant vector is a null vector of G^T G
        # but no column is zero. Depending on rounding, SuperLU reports an
        # exactly singular factor, or the tiny pivot gives lambda ~ 0 whose
        # radius is huge or whose u = G y rounds to zero; either raises
        # before any division by zero warns.
        g = sp.diags([-1.0, 1.0], [0, 1], shape=(m - 1, m)) / h
        with pytest.raises(SolverError):
            smallest_eigenpairs(DiscreteOperator(factor=g), 1)

    def test_sparse_path_deterministic(self):
        spec = interval(4200, l=2)
        op = build_polyharmonic(spec)
        a = smallest_eigenpairs(op, 3, seed=7)
        b = smallest_eigenpairs(op, 3, seed=7)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.vectors, b.vectors)


class TestRayleighQuotient:
    def setup_method(self):
        self.spec = interval(80)
        self.op = build_laplacian(self.spec)
        self.spectrum = smallest_eigenpairs(self.op, 4)

    def test_eigenvector_recovers_eigenvalue(self):
        for i in range(4):
            v = self.spectrum.eigenvector(i).values
            assert v @ self.op.apply(v) / (v @ v) == pytest.approx(
                self.spectrum.eigenvalues[i], rel=1e-10)

    def test_lower_bound_by_smallest(self):
        rng = np.random.default_rng(9)
        lam1 = self.spectrum.eigenvalues[0]
        for _ in range(25):
            v = rng.standard_normal(80)
            assert v @ self.op.apply(v) / (v @ v) >= lam1 - 1e-8

    def test_mixture_of_two_modes(self):
        v = self.spectrum.eigenvector(0).values + self.spectrum.eigenvector(1).values
        lam = self.spectrum.eigenvalues
        assert v @ self.op.apply(v) / (v @ v) == pytest.approx(
            (lam[0] + lam[1]) / 2, rel=1e-8)


class TestOracles:
    def test_box_eigenvalues_match_brute_force(self):
        got = box_eigenvalues([1.0, 1.0], 11)
        brute = np.sort([
            np.pi ** 2 * (m ** 2 + q ** 2)
            for m in range(1, 40) for q in range(1, 40)])[:11]
        assert got == pytest.approx(brute, rel=1e-14)

    def test_unit_square_sequence(self):
        got = box_eigenvalues([1.0, 1.0], 11) / np.pi ** 2
        assert got == pytest.approx([2, 5, 5, 8, 10, 10, 13, 13, 17, 17, 18])

    def test_anisotropic_box(self):
        got = box_eigenvalues([2.0, 1.0], 4) / np.pi ** 2
        # (m/2)^2 + q^2 for m,q >= 1: 1.25, 2, 3.25, 4.25, ...
        assert got == pytest.approx([1.25, 2.0, 3.25, 4.25])

    def test_rod_constants_satisfy_characteristic_equation(self):
        from polyspec.oracles import clamped_rod_constants
        ks = clamped_rod_constants(5)
        assert np.all(np.diff(ks) > 0)
        for k in ks:
            assert abs(np.cos(k) * np.cosh(k) - 1.0) < 1e-7 * np.cosh(k)
        assert ks[0] == pytest.approx(4.730040744862704, abs=1e-10)

    def test_rod_constants_match_scipy_root_finder(self):
        optimize = pytest.importorskip("scipy.optimize")
        from polyspec.oracles import clamped_rod_constants
        ks = clamped_rod_constants(59)
        for j, k in enumerate(ks, start=1):
            center = (j + 0.5) * math.pi
            ref = optimize.brentq(lambda x: math.cos(x) - 1.0 / math.cosh(x),
                                  center - 0.6, center + 0.6,
                                  xtol=1e-12, rtol=8.9e-16)
            assert abs(k - ref) <= 3e-14 * ref

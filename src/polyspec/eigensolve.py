"""Smallest eigenpairs of factored operators A = G^T G, with certified radii.

One path for every shape and order: seeded ARPACK Lanczos (``eigsh``) on
the n-dimensional operator x -> A^(-1) x, applied through one sparse LU.

* Order l >= 2: the augmented matrix K = [[-I, G], [G^T, 0]] is factored
  and K (u, y) = (0, x) gives y = A^(-1) x and u = G y without ever
  forming G^T G, whose condition number is cond(G)^2 (the augmented-system
  method for least squares; K is the Jordan-Wielandt form of G). K is
  indefinite with a zero diagonal block, so it keeps SuperLU's default
  COLAMD column order with partial pivoting: elimination without pivoting
  could meet a zero pivot, and minimum degree on K + K^T fills far more.
* Order 1: A itself is factored. Its condition number is only O(h^-2),
  and augmenting would add fill without adding accuracy. A is symmetric
  positive definite, so it is ordered by minimum degree on A + A^T and
  eliminated without pivoting (diagonal pivots, symmetric mode): that is
  Cholesky up to diagonal scaling, stable without row exchanges, and its
  LU has about half the fill of the COLAMD order.

Each pair is certified from the factored residuals. With v normalized, u
taken from one more solve K (u, .) = (0, v) and normalized, and
sigma = sqrt(lam), the residual

    eta = ||(G v - sigma u, G^T u - sigma v)|| / sqrt(2) + (c + 2) eps ||G||

bounds the distance from sigma to a singular value of G; the second term
allows for the rounding of the sparse products, c being the most nonzeros
in a row of G. So some eigenvalue of A lies within lam * r of lam, with
r = eta (2 sigma + eta) / lam the pair's relative radius
(``Spectrum.residuals``). Its rounding floor scales as eps ||G|| / sigma,
not eps ||A|| / lam. A pair whose radius exceeds
max(tol, FLOOR_FACTOR eps ||G|| / sigma_1), or is NaN, raises SolverError,
and so does a u that rounds to zero or overflows before it is normalized
(a singular A can slip past the factorization as a tiny pivot); a radius
above tol but within that floor is accepted and only shows in
Spectrum.solver_tol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .grids import DomainSpec, GridFunction
from .operators import DiscreteOperator

EPS = np.finfo(float).eps
FLOOR_FACTOR = 64.0     # multiplies eps * ||G|| / sigma_1 in the acceptance gate


class SolverError(RuntimeError):
    """Eigensolve failed to certify; carries the best residuals seen."""

    def __init__(self, message: str, residuals: Optional[np.ndarray] = None):
        super().__init__(message)
        self.residuals = residuals


class PairCountError(ValueError):
    """More pairs asked for than Lanczos can return (k >= dimension)."""


@dataclass
class Spectrum:
    """Ordered eigenvalues with certified radii and optional eigenvectors.

    residuals[i] is the relative radius of pair i: an eigenvalue of the
    operator lies within eigenvalues[i] * residuals[i] of eigenvalues[i].
    solver_tol is the larger of the requested tolerance and every radius.
    Eigenvectors are columns of `vectors`, normalized to unit mesh norm
    (cell volume weighted) when a DomainSpec is attached, Euclidean
    otherwise.
    """

    eigenvalues: np.ndarray
    residuals: np.ndarray
    k: int
    vectors: Optional[np.ndarray] = None
    spec: Optional[DomainSpec] = None
    solver_tol: float = 0.0

    def __post_init__(self):
        self.eigenvalues = np.asarray(self.eigenvalues, dtype=float)
        self.residuals = np.asarray(self.residuals, dtype=float)

    def eigenvector(self, i: int) -> GridFunction:
        if self.vectors is None:
            raise ValueError("eigenvectors were not retained")
        if self.spec is None:
            raise ValueError("spectrum has no grid attached")
        return GridFunction(self.vectors[:, i], self.spec)

    def orthonormality_defect(self) -> float:
        """max |<v_i, v_j> - delta_ij| in the stored normalization."""
        if self.vectors is None:
            raise ValueError("eigenvectors were not retained")
        weight = self.spec.cell_volume if self.spec is not None else 1.0
        gram = weight * (self.vectors.T @ self.vectors)
        return float(np.max(np.abs(gram - np.eye(self.k))))


def _norm_bound(g: sp.csr_matrix) -> float:
    """Upper bound sqrt(||G||_1 ||G||_inf) on the spectral norm of G."""
    absolute = abs(g)
    return float(np.sqrt(absolute.sum(axis=0).max() * absolute.sum(axis=1).max()))


def _factored_solver(op: DiscreteOperator):
    """(inverse, lift) through one sparse LU of the operator.

    inverse(x) = A^(-1) x is the Lanczos operator; lift(x) = G A^(-1) x
    gives the certificate its u. x may hold several right sides as columns.
    """
    g = op.factor
    try:
        if op.order == 1:
            lu = spla.splu(sp.csc_matrix(op.matrix()), permc_spec="MMD_AT_PLUS_A",
                           diag_pivot_thresh=0.0, options={"SymmetricMode": True})
            return lu.solve, lambda x: g @ lu.solve(x)
        m = g.shape[0]
        lu = spla.splu(sp.bmat([[-sp.identity(m), g], [g.T, None]], format="csc"))
    except RuntimeError as exc:  # SuperLU reports an exactly singular factor
        raise SolverError(f"factorization failed: {exc}") from exc

    def solve(x):
        return lu.solve(np.concatenate([np.zeros((m,) + x.shape[1:]), x]))

    return (lambda x: solve(x)[m:]), (lambda x: solve(x)[:m])


def smallest_eigenpairs(op: DiscreteOperator, k: int, tol: float = 1e-8,
                        seed: int = 0, compute_vectors: bool = True) -> Spectrum:
    """k smallest eigenpairs of A = G^T G, each with a certified radius.

    Deterministic for a fixed seed: ARPACK gets a seeded starting vector.
    Lanczos cannot return every pair, so k must stay below the operator
    dimension. Spectrum.residuals holds each pair's relative radius and
    solver_tol the larger of tol and the largest radius.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    dim = op.dimension
    if k >= dim:
        raise PairCountError(f"k={k} eigenpairs need an operator dimension "
                             f"above {k}, got {dim}")

    inverse, lift = _factored_solver(op)
    operator = spla.LinearOperator((dim, dim), matvec=inverse, dtype=float)
    v0 = np.random.default_rng(seed).standard_normal(dim)
    try:
        mu, v = spla.eigsh(operator, k=k, which="LM", v0=v0)
    except spla.ArpackNoConvergence as exc:
        raise SolverError(
            f"ARPACK did not converge: {len(exc.eigenvalues)} of {k} pairs") from exc
    order = np.argsort(mu)[::-1]
    mu = mu[order]
    if mu[-1] <= 0:
        raise SolverError(
            f"smallest computed eigenvalue {1.0 / mu[-1]:.3e} is not positive")
    lam = 1.0 / mu
    v = v[:, order] / np.linalg.norm(v[:, order], axis=0)

    # certificate from the factored residuals, u from the solve
    g = op.factor
    g_norm = _norm_bound(g)
    u = lift(v)
    u_norm = np.linalg.norm(u, axis=0)
    # u = G A^(-1) v rounds to zero (or overflows) when A is singular to
    # working precision: no certificate can be formed for that pair
    degenerate = np.flatnonzero(~(np.isfinite(u_norm) & (u_norm > 0)))
    if degenerate.size:
        pair = int(degenerate[0])
        raise SolverError(f"pair {pair}: lifted vector G A^(-1) v has norm "
                          f"{u_norm[pair]:.3e}; the operator is singular")
    u = u / u_norm
    sigma = np.sqrt(lam)
    eta = np.sqrt(np.sum((g @ v - sigma * u) ** 2, axis=0)
                  + np.sum((g.T @ u - sigma * v) ** 2, axis=0)) / np.sqrt(2.0)
    eta += (np.diff(g.indptr).max() + 2) * EPS * g_norm
    radii = eta * (2.0 * sigma + eta) / lam
    gate = max(tol, FLOOR_FACTOR * EPS * g_norm / sigma[0])
    # a NaN radius fails too; argmax picks the first NaN
    if not np.all(radii <= gate):
        worst = int(np.argmax(radii))
        raise SolverError(
            f"pair {worst}: radius {radii[worst]:.3e} exceeds "
            f"tolerance {gate:.3e}", residuals=radii)

    vectors = None
    if compute_vectors:
        vectors = np.array(v)
        if op.spec is not None:
            vectors = vectors / np.sqrt(op.spec.cell_volume)

    return Spectrum(eigenvalues=lam, residuals=radii, k=k,
                    vectors=vectors, spec=op.spec,
                    solver_tol=float(max(tol, radii.max())))

"""Smallest eigenpairs of symmetric positive-definite discrete operators.

Dense direct solve up to DENSE_LIMIT rows, shift-invert Lanczos (ARPACK)
with a seeded starting vector above. Residuals ||Op v - lam v|| / lam are
measured for every pair; certification accounts for the floating-point
floor eps * ||Op|| / lam, which dominates the measurable residual for
high-order operators on fine grids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from .grids import DomainSpec, GridFunction
from .operators import DiscreteOperator, DENSE_LIMIT

EPS = np.finfo(float).eps
FLOOR_FACTOR = 64.0  # multiplies eps * ||Op|| / lam in the residual floor


class SolverError(RuntimeError):
    """Eigensolve failed to certify; carries the best residuals seen."""

    def __init__(self, message: str, residuals: Optional[np.ndarray] = None):
        super().__init__(message)
        self.residuals = residuals


@dataclass
class Spectrum:
    """Ordered eigenvalues with residuals and optional eigenvectors.

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


def smallest_eigenpairs(op: DiscreteOperator, k: int, tol: float = 1e-8,
                        seed: int = 0, compute_vectors: bool = True) -> Spectrum:
    """k smallest eigenpairs of a symmetric positive-definite operator.

    Deterministic for a fixed seed: the dense path is direct, the sparse
    path hands ARPACK a seeded starting vector. On the sparse path the
    shift-invert solves limit attainable accuracy to roughly
    eps * cond(Op), which is why high-order operators on fine grids
    should stay on the dense path or be certified against an oracle.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    dim = op.dimension
    if k > dim:
        raise ValueError(f"k={k} exceeds operator dimension {dim}")
    if not op.symmetric:
        raise ValueError("smallest_eigenpairs requires a symmetric operator")

    if dim <= DENSE_LIMIT:
        # vectors are needed for residuals and cost nothing extra here
        w, v = sla.eigh(op.dense(), subset_by_index=[0, k - 1])
    else:
        a = op.matrix().tocsc()
        rng = np.random.default_rng(seed)
        v0 = rng.standard_normal(dim)
        try:
            w, v = spla.eigsh(a, k=k, sigma=0.0, which="LM", v0=v0)
        except spla.ArpackNoConvergence as exc:
            best = np.asarray(exc.eigenvalues, dtype=float)
            raise SolverError(
                f"ARPACK did not converge: {len(best)} of {k} pairs",
                residuals=best) from exc
        order = np.argsort(w)
        w = w[order]
        v = v[:, order]

    w = np.asarray(w, dtype=float)
    if w[0] <= 0:
        raise SolverError(
            f"smallest computed eigenvalue {w[0]:.3e} is not positive",
            residuals=None)

    # measured residuals against the compositional application
    residuals = np.empty(k)
    norm_est = op.norm_estimate()
    for i in range(k):
        vec = v[:, i]
        r = op.apply(vec) - w[i] * vec
        residuals[i] = float(np.linalg.norm(r) / (w[i] * np.linalg.norm(vec)))
    floors = FLOOR_FACTOR * EPS * norm_est / w
    effective = np.maximum(tol, floors)
    if np.any(residuals > effective):
        worst = int(np.argmax(residuals - effective))
        raise SolverError(
            f"pair {worst}: residual {residuals[worst]:.3e} exceeds "
            f"tolerance {effective[worst]:.3e}", residuals=residuals)

    vectors = None
    if compute_vectors:
        vectors = np.array(v[:, :k])
        if op.spec is not None:
            vectors = vectors / np.sqrt(op.spec.cell_volume)

    return Spectrum(eigenvalues=w, residuals=residuals, k=k,
                    vectors=vectors, spec=op.spec,
                    solver_tol=float(np.max(effective)))

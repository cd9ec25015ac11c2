"""Discrete polyharmonic operators on tensor-product grids.

Two compositions of the second-difference stencil are used, and they are
not the same matrix:

* The interior power L^l applies ``build_laplacian(spec)`` l times,
  restricting to the interior after every application. Its eigenvalues
  are exactly the l-th powers of the eigenvalues of L; the commutator
  identity (``commutator_residual``) is stated for it.
* ``build_polyharmonic(spec)`` applies the free-lattice stencil l times to
  the zero-extended values and restricts once at the end. This is the
  discrete clamped model: its spectrum approximates the order-l clamped
  problem (for l = 1 the two coincide).

Both agree on functions supported at least l+1 cells away from the
boundary, which is what makes the commutator identity exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.ndimage import binary_erosion

from .grids import DomainSpec, GridFunction, GridError

DENSE_LIMIT = 4000


class SupportMarginError(ValueError):
    """Support reaches too close to the boundary for an exact identity."""


def _lap1d(m: int, h: float) -> sp.csr_matrix:
    return sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(m, m), format="csr") / h ** 2


def _kron_chain(mats) -> sp.csr_matrix:
    out = mats[0]
    for m in mats[1:]:
        out = sp.kron(out, m, format="csr")
    return sp.csr_matrix(out)


def _box_laplacian(shape_pts, h) -> sp.csr_matrix:
    """Negative Laplacian with Dirichlet zero boundary on a full box."""
    n = len(shape_pts)
    total = None
    for d in range(n):
        mats = [sp.identity(shape_pts[e], format="csr") for e in range(n)]
        mats[d] = _lap1d(shape_pts[d], h[d])
        term = _kron_chain(mats)
        total = term if total is None else total + term
    return sp.csr_matrix(total)


@dataclass
class DiscreteOperator:
    """Symmetric linear operator on interior grid values.

    The action is ``restrict . base**power . embed`` where embed injects
    interior values into a work grid (identity when embed is None). apply
    is compositional, so powers are never assembled unless matrix() is
    called, and dense() refuses above DENSE_LIMIT rows.
    """

    base: sp.spmatrix
    power: int = 1
    embed_matrix: Optional[sp.spmatrix] = None
    symmetric: bool = True
    positive_definite: bool = True
    spec: Optional[DomainSpec] = None
    _matrix_cache: Optional[sp.spmatrix] = field(default=None, repr=False)

    def __post_init__(self):
        self.base = sp.csr_matrix(self.base)
        if self.power < 1:
            raise ValueError("power must be a positive integer")
        if self.embed_matrix is not None:
            self.embed_matrix = sp.csr_matrix(self.embed_matrix)

    @property
    def dimension(self) -> int:
        if self.embed_matrix is not None:
            return self.embed_matrix.shape[1]
        return self.base.shape[0]

    def apply(self, values: np.ndarray) -> np.ndarray:
        v = np.asarray(values, dtype=float)
        if self.embed_matrix is not None:
            v = self.embed_matrix @ v
        for _ in range(self.power):
            v = self.base @ v
        if self.embed_matrix is not None:
            v = self.embed_matrix.T @ v
        return v

    def matrix(self) -> sp.csr_matrix:
        """Assembled sparse matrix of the full action."""
        if self._matrix_cache is None:
            m = self.base
            for _ in range(self.power - 1):
                m = m @ self.base
            if self.embed_matrix is not None:
                m = self.embed_matrix.T @ m @ self.embed_matrix
            self._matrix_cache = sp.csr_matrix(m)
        return self._matrix_cache

    def dense(self) -> np.ndarray:
        if self.dimension > DENSE_LIMIT:
            raise ValueError(
                f"refusing dense assembly at dimension {self.dimension} > {DENSE_LIMIT}")
        return self.matrix().toarray()

    def norm_estimate(self) -> float:
        """Upper estimate of the operator norm (inf-norm of base, powered)."""
        base_norm = float(np.max(np.abs(self.base).sum(axis=1)))
        return base_norm ** self.power


def build_laplacian(spec: DomainSpec) -> DiscreteOperator:
    """Second-order (2n+1)-point negative Laplacian with extension-by-zero.

    On masked rectangles the box operator is restricted to the mask cells,
    which is exactly extension-by-zero on the complement.
    """
    box = _box_laplacian(spec.interior_shape, spec.h)
    if spec.mask is None:
        mat = box
    else:
        idx = spec.flat_indices()
        mat = sp.csr_matrix(box[np.ix_(idx, idx)])
    return DiscreteOperator(base=mat, power=1, spec=spec,
                            symmetric=True, positive_definite=True)


def build_polyharmonic(spec: DomainSpec) -> DiscreteOperator:
    """Discrete clamped operator of order spec.l via zero-extension composition.

    The stencil is applied on a grid padded by l-1 cell layers whose values
    start at zero and are carried through intermediate applications, then
    the result is restricted to the interior. Padding l-1 layers reproduces
    the free-lattice composition exactly for data supported on the interior.
    """
    l = spec.l
    if l == 1:
        return build_laplacian(spec)
    pad = l - 1
    padded_shape = tuple(m + 2 * pad for m in spec.interior_shape)
    base = _box_laplacian(padded_shape, spec.h)

    mask = spec.mask_array
    box_index = np.arange(int(np.prod(padded_shape))).reshape(padded_shape)
    core = box_index[tuple(slice(pad, pad + m) for m in spec.interior_shape)]
    rows = core.ravel()[spec.flat_indices()]
    cols = np.arange(rows.size)
    embed = sp.coo_matrix((np.ones(rows.size), (rows, cols)),
                          shape=(int(np.prod(padded_shape)), rows.size)).tocsr()
    return DiscreteOperator(base=base, power=l, embed_matrix=embed, spec=spec,
                            symmetric=True, positive_definite=True)


def coordinate_multiply(p: int, u: GridFunction) -> GridFunction:
    """Pointwise product with the p-th coordinate of each grid point."""
    coords = u.spec.coordinate(p)
    return GridFunction(u.values * coords, u.spec)


def central_difference(p: int, u: GridFunction) -> GridFunction:
    """Centered difference (u_{j+1} - u_{j-1}) / (2 h_p) with zero extension.

    Skew-symmetric on the interior space, exactly: the zero extension makes
    the summation-by-parts telescoping close without boundary terms.
    """
    spec = u.spec
    if not 0 <= p < spec.n:
        raise GridError(f"axis {p} out of range for n={spec.n}")
    full = u.embed()
    out = np.zeros_like(full)
    fwd = [slice(None)] * spec.n
    bwd = [slice(None)] * spec.n
    fwd[p] = slice(None, -1)
    bwd[p] = slice(1, None)
    out[tuple(fwd)] += full[tuple(bwd)]
    out[tuple(bwd)] -= full[tuple(fwd)]
    out /= 2.0 * spec.h[p]
    return GridFunction.from_box(out, spec)


def interior_support_region(spec: DomainSpec, margin: int) -> np.ndarray:
    """Boolean box array of cells at least `margin` cells from any boundary.

    Masked-out cells count as boundary. Erosion uses the full 3**n
    neighborhood, so the margin is measured in the Chebyshev metric, which
    is conservative for the axis-aligned stencils.
    """
    mask = spec.mask_array
    if margin <= 0:
        return mask.copy()
    structure = np.ones((3,) * spec.n, dtype=bool)
    return binary_erosion(mask, structure=structure, iterations=margin,
                          border_value=0)


def check_support_margin(spec: DomainSpec, u: GridFunction, margin: int) -> None:
    allowed = interior_support_region(spec, margin)
    box = u.embed()
    offending = np.argwhere((box != 0) & ~allowed)
    if offending.size:
        cell = tuple(int(c) for c in offending[0])
        raise SupportMarginError(
            f"grid cell {cell} carries support within {margin} cells of the boundary")


def random_interior_function(spec: DomainSpec, margin: int,
                             rng: np.random.Generator) -> GridFunction:
    """Random values on the margin-eroded region, zero elsewhere."""
    allowed = interior_support_region(spec, margin)
    if not allowed.any():
        raise GridError(f"no interior cells remain at margin {margin}")
    box = np.zeros(spec.interior_shape)
    box[allowed] = rng.standard_normal(int(allowed.sum()))
    return GridFunction.from_box(box, spec)


def commutator_residual(spec: DomainSpec, u: GridFunction, p: int) -> float:
    """Residual of the exact stencil identity for the order-l commutator.

    Returns ||L^l(x_p u) - x_p L^l u + 2 l L^(l-1) D_p u|| / ||u||. For u
    supported at least l+1 cells from the boundary the identity is exact,
    so only floating-point rounding remains.
    """
    if not 0 <= p < spec.n:
        raise GridError(f"axis {p} out of range for n={spec.n}")
    if not np.any(u.values):
        return 0.0
    check_support_margin(spec, u, spec.l + 1)

    lap = build_laplacian(spec)
    l = spec.l

    def apply_times(v: np.ndarray, times: int) -> np.ndarray:
        for _ in range(times):
            v = lap.base @ v
        return v

    xu = coordinate_multiply(p, u).values
    du = central_difference(p, u).values
    coords = spec.coordinate(p)
    r = apply_times(xu, l) - coords * apply_times(u.values, l) \
        + 2.0 * l * apply_times(du, l - 1)
    return float(np.linalg.norm(r) / np.linalg.norm(u.values))

"""Discrete polyharmonic operators on tensor-product grids, held as factors.

Every operator is A = G^T G for a sparse factor G built from one
forward-difference matrix D (stacked per-axis differences, zero outside
the box), so that D^T D is the (2n+1)-point Dirichlet Laplacian of the
box. With E injecting the interior (or masked) cells into a box padded
by l-1 cell layers and L_pad = D^T D on that box:

* even l: G = L_pad^(l/2) E,
* odd l:  G = D L_pad^((l-1)/2) E,

so A = E^T L_pad^l E. ``build_laplacian`` is the l = 1 case, G = D E.

Two compositions of the second-difference stencil are used, and they are
not the same matrix:

* The interior power L^l applies the interior Laplacian
  ``build_laplacian(spec)`` l times, restricting to the interior after
  every application. Its eigenvalues are exactly the l-th powers of the
  eigenvalues of L; the commutator identity (``commutator_residual``) is
  stated for it.
* ``build_polyharmonic(spec)`` applies the free-lattice stencil l times to
  the zero-extended values and restricts once at the end (the padding
  carries the intermediate values). This is the discrete clamped model:
  its spectrum approximates the order-l clamped problem (for l = 1 the
  two coincide).

Both agree on functions supported at least l+1 cells away from the
boundary, which is what makes the commutator identity exact.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.ndimage import binary_erosion

from .grids import DomainSpec, GridFunction, GridError


class SupportMarginError(ValueError):
    """Support reaches too close to the boundary for an exact identity."""


def _forward_difference(shape, h) -> sp.csr_matrix:
    """Stacked per-axis forward differences with zero values outside the box.

    D^T D is the (2n+1)-point negative Laplacian with Dirichlet zero
    boundary on the box.
    """
    blocks = []
    for d, (m, hd) in enumerate(zip(shape, h)):
        mats = [sp.identity(p, format="csr") for p in shape]
        mats[d] = sp.diags([np.ones(m), -np.ones(m)], [0, -1], shape=(m + 1, m)) / hd
        out = mats[0]
        for mat in mats[1:]:
            out = sp.kron(out, mat, format="csr")
        blocks.append(out)
    return sp.vstack(blocks, format="csr")


@dataclass
class DiscreteOperator:
    """Symmetric positive semidefinite operator A = G^T G on interior values.

    Only the sparse factor G is stored: apply(v) is G^T (G v), and matrix()
    assembles G^T G for tests and for factoring order-1 operators.
    order is the differential order l the factor represents; the
    eigensolver reads it to pick its factorization.
    """

    factor: sp.spmatrix
    spec: Optional[DomainSpec] = None
    order: int = 1

    def __post_init__(self):
        self.factor = sp.csr_matrix(self.factor)
        if self.order < 1:
            raise ValueError("order must be a positive integer")

    @property
    def dimension(self) -> int:
        return self.factor.shape[1]

    def apply(self, values: np.ndarray) -> np.ndarray:
        return self.factor.T @ (self.factor @ np.asarray(values, dtype=float))

    def matrix(self) -> sp.csr_matrix:
        """Assembled sparse G^T G."""
        return sp.csr_matrix(self.factor.T @ self.factor)


def _clamped_factor(spec: DomainSpec, l: int) -> sp.csr_matrix:
    """G with G^T G = E^T L_pad^l E on the box padded by l-1 cells.

    Rows of G that are zero (padding cells no interior cell reaches) are
    dropped; they do not change G^T G.
    """
    pad = l - 1
    interior = spec.interior_shape
    padded = tuple(m + 2 * pad for m in interior)
    d = _forward_difference(padded, spec.h)
    box_index = np.arange(int(np.prod(padded))).reshape(padded)
    cells = box_index[tuple(slice(pad, pad + m) for m in interior)].ravel()
    cells = cells[spec.flat_indices()]
    g = sp.csr_matrix((np.ones(cells.size), (cells, np.arange(cells.size))),
                      shape=(box_index.size, cells.size))
    for _ in range(l // 2):
        g = d.T @ (d @ g)
    if l % 2:
        g = d @ g
    g = sp.csr_matrix(g)
    g.eliminate_zeros()
    g = sp.csr_matrix(g[np.diff(g.indptr) > 0])
    g.sum_duplicates()  # canonical form, so later reads never sort in place
    return g


def _read_only(matrix: sp.csr_matrix) -> sp.csr_matrix:
    for arr in (matrix.data, matrix.indices, matrix.indptr):
        arr.flags.writeable = False
    return matrix


@functools.lru_cache(maxsize=64)
def interior_factor(spec: DomainSpec) -> sp.csr_matrix:
    """B = D E, the factor of the interior Laplacian B^T B; cached per spec.

    Depends on the grid and mask only, not on spec.l. The matrix is shared
    between callers, so its arrays are read-only.
    """
    return _read_only(_clamped_factor(spec, 1))


@functools.lru_cache(maxsize=64)
def interior_laplacian(spec: DomainSpec) -> sp.csr_matrix:
    """Assembled interior Laplacian L = B^T B; cached per spec, read-only.

    The interior power L^j is j products with this matrix.
    """
    b = interior_factor(spec)
    lap = sp.csr_matrix(b.T @ b)
    lap.sum_duplicates()  # canonical, so no later read sorts it in place
    return _read_only(lap)


def build_laplacian(spec: DomainSpec) -> DiscreteOperator:
    """Second-order (2n+1)-point negative Laplacian with extension-by-zero.

    On masked rectangles the box operator is restricted to the mask cells,
    which is exactly extension-by-zero on the complement.
    """
    return DiscreteOperator(factor=interior_factor(spec), spec=spec, order=1)


def build_polyharmonic(spec: DomainSpec) -> DiscreteOperator:
    """Discrete clamped operator of order spec.l via zero-extension composition.

    The stencil is applied on a grid padded by l-1 cell layers whose values
    start at zero and are carried through intermediate applications, then
    the result is restricted to the interior. Padding l-1 layers reproduces
    the free-lattice composition exactly for data supported on the interior.
    """
    if spec.l == 1:
        return build_laplacian(spec)
    return DiscreteOperator(factor=_clamped_factor(spec, spec.l), spec=spec,
                            order=spec.l)


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


@functools.lru_cache(maxsize=64)
def interior_support_region(spec: DomainSpec, margin: int) -> np.ndarray:
    """Boolean box array of cells at least `margin` cells from any boundary.

    Masked-out cells count as boundary. Erosion uses the full 3**n
    neighborhood, so the margin is measured in the Chebyshev metric, which
    is conservative for the axis-aligned stencils. Cached per (spec,
    margin) and shared between callers, so the array is read-only.
    """
    mask = spec.mask_array
    if margin <= 0:
        return mask
    structure = np.ones((3,) * spec.n, dtype=bool)
    region = binary_erosion(mask, structure=structure, iterations=margin,
                            border_value=0)
    region.flags.writeable = False
    return region


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

    lap = interior_laplacian(spec)
    l = spec.l

    def apply_times(v: np.ndarray, times: int) -> np.ndarray:
        for _ in range(times):
            v = lap @ v
        return v

    xu = coordinate_multiply(p, u).values
    du = central_difference(p, u).values
    coords = spec.coordinate(p)
    r = apply_times(xu, l) - coords * apply_times(u.values, l) \
        + 2.0 * l * apply_times(du, l - 1)
    return float(np.linalg.norm(r) / np.linalg.norm(u.values))

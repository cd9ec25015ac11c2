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

Reflection-parity blocks. Without a mask, the padded box keeps the
reflection j <-> m-1-j of every axis, and so does the stencil: G splits
exactly into 2^n blocks G_b, one per parity pattern b (even or odd on each
axis; Bossavit, Comput. Methods Appl. Mech. Eng. 56, 1986). Each G_b is
composed as G is (``_compose``), with every 1-D difference folded onto the
orthonormal even/odd bases (e_j +- e_(m-1-j)) / sqrt(2), plus the centre
of odd-length even vectors. D maps even cells to odd edges, so the folded
D is the top-left block of D, from parity b to the opposite one, with its
last entry times sqrt(2) when exactly one of the two bases has a centre;
the injection folds to itself on the folded sizes. Block vectors map back
by one reflection per axis (``_unfold``). Only ``build_laplacian`` and
``build_polyharmonic`` know G's row layout; they attach it to unmasked
operators as a ``BoxLayout``, which builds one block at a time.

Axis-permutation classes. Permuting axes with equal point counts and
equal spacing maps the box and the stencil to themselves, so it maps G to
G up to one permutation of its columns (the interior cells) and one of its
rows (the padded cells for even l; for odd l the stacked edge parts, part
d moving to part pi(d)). A block whose parity pattern is such a
permutation of another's is that block with its columns and rows permuted:
the same spectrum, with vectors permuted the same way (Faessler & Stiefel,
Group Theoretical Methods and Their Applications, 1992, on the isotypic
blocks of the hyperoctahedral group). A square's 4 blocks fall into 3
classes and a cube's 8 into 4; ``BoxLayout.copies`` names them from its
own fields.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .grids import DomainSpec, GridFunction, GridError, euclidean_dot


class SupportMarginError(ValueError):
    """Support reaches too close to the boundary for an exact identity."""


def _difference(m: int, h: float, odd: Optional[bool] = None) -> sp.spmatrix:
    """1-D forward difference from m cells to their m + 1 edges, zero outside;
    with a parity, folded onto the cells of that parity (see the module).
    """
    d = sp.diags([np.ones(m), -np.ones(m)], [0, -1], shape=(m + 1, m))
    if odd is not None:
        d = sp.csr_matrix(d)[:(m + 1 + odd) // 2, :(m + (not odd)) // 2]
        if m % 2 != odd:
            d.data[-1] *= np.sqrt(2.0)  # the fold entry [-1, -1]
    return d / h


def _compose(diffs, interior, pad: int, l: int, cells=None) -> tuple:
    """(G, kept): G = L^(l/2) E for even l, D L^((l-1)/2) E for odd l.

    diffs[d] is the 1-D difference of axis d of the box; D stacks them per
    axis (block d has one row per edge of axis d) and L = D^T D. E injects
    the interior box, `pad` cells in from each side, or the given cells of
    it. Rows of G that are zero are dropped; kept lists the others.
    """
    box = [diff.shape[1] for diff in diffs]
    blocks = []
    for axis, diff in enumerate(diffs):
        mats = [sp.identity(p, format="csr") for p in box]
        mats[axis] = diff
        out = mats[0]
        for mat in mats[1:]:
            out = sp.kron(out, mat, format="csr")
        blocks.append(out)
    d = sp.vstack(blocks, format="csr")
    box_index = np.arange(math.prod(box)).reshape(box)
    inside = box_index[tuple(slice(pad, pad + m) for m in interior)].ravel()
    if cells is not None:
        inside = inside[cells]
    g = sp.csr_matrix((np.ones(inside.size), (inside, np.arange(inside.size))),
                      shape=(box_index.size, inside.size))
    for _ in range(l // 2):
        g = d.T @ (d @ g)
    if l % 2:
        g = d @ g
    g = sp.csr_matrix(g)
    g.eliminate_zeros()
    kept = np.flatnonzero(np.diff(g.indptr) > 0)
    g = sp.csr_matrix(g[kept])
    g.sum_duplicates()  # canonical form, so later reads never sort in place
    return g, kept


def _folded(sizes, parity) -> list:
    """Points per axis of the folded box of one parity pattern."""
    return [(m + (not odd)) // 2 for m, odd in zip(sizes, parity)]


def _unfold(y: np.ndarray, sizes, parity) -> np.ndarray:
    """Columns of y on the folded box of one parity pattern, back on the box.

    On an axis of m points a folded vector x gives
    [x[:m//2], centre, +-x[:m//2][::-1]] / sqrt(2), minus for odd parity;
    the centre is x[m//2:] unscaled for even parity and zero for odd.
    """
    y = y.reshape(_folded(sizes, parity) + [y.shape[-1]])
    for axis, (m, odd) in enumerate(zip(sizes, parity)):
        y = np.moveaxis(y, axis, 0)
        half = np.sqrt(0.5) * y[:m // 2]
        centre = np.zeros((m % 2,) + y.shape[1:]) if odd else y[m // 2:]
        y = np.concatenate([half, centre, -half[::-1] if odd else half[::-1]])
        y = np.moveaxis(y, 0, axis)
    return y.reshape(math.prod(sizes), y.shape[-1])


def _permute_axes(y: np.ndarray, sizes, axes) -> np.ndarray:
    """Columns of y on a box of the given sizes, axis e taken from axis
    axes[e]; the permuted axes have equal sizes."""
    box = y.reshape(tuple(sizes) + (y.shape[-1],))
    return box.transpose(tuple(axes) + (len(sizes),)).reshape(y.shape)


@dataclass(frozen=True, eq=False)
class BoxLayout:
    """Where the rows and columns of an unmasked box operator's G sit.

    Columns are the interior cells, C-ordered. Rows are the cells of the
    box padded by l - 1 layers (even l) or the stacked per-axis edges of
    that box (odd l); G keeps the rows `kept` of that full layout. The
    spacing h and the order l are what a parity block is composed from.

    Axes with equal point counts and bitwise-equal spacing are
    interchangeable: permuting them maps G to itself, up to one permutation
    of its columns and one of its rows, so blocks whose parity patterns are
    such permutations of each other are isospectral (``copies``).
    """

    interior: tuple
    h: tuple
    order: int
    kept: np.ndarray

    def parities(self) -> list:
        """Every parity pattern, one flag per axis (True: odd), all-even first."""
        return list(itertools.product((False, True), repeat=len(self.interior)))

    def block_dimension(self, parity) -> int:
        """Unknowns of the block of one parity pattern."""
        return math.prod(_folded(self.interior, parity))

    def block(self, parity) -> "ParityBlock":
        """The block of one parity pattern, composed as G is from folded differences."""
        pad = self.order - 1
        diffs = [_difference(m + 2 * pad, hd, odd)
                 for m, hd, odd in zip(self.interior, self.h, parity)]
        g, kept = _compose(diffs, _folded(self.interior, parity), pad, self.order)
        return ParityBlock(g, self, tuple(parity), kept)

    def copies(self) -> dict:
        """Each parity pattern that is an axis permutation of an earlier one,
        mapped to (representative, axes): the earliest pattern of its class
        and the axis order with pattern[e] == representative[axes[e]].

        The block of the pattern is the block of the representative with
        its columns and rows permuted by ``permute_columns`` and
        ``permute_rows``, so the two share their eigenvalues.
        """
        n = len(self.interior)
        swaps = [axes for axes in itertools.permutations(range(n))
                 if all(self.interior[a] == self.interior[e] and self.h[a] == self.h[e]
                        for e, a in enumerate(axes))]
        copies = {}
        for parity in self.parities():
            if parity in copies:
                continue
            for axes in swaps:
                image = tuple(parity[a] for a in axes)
                if image != parity and image not in copies:
                    copies[image] = (parity, axes)
        return copies

    def permute_columns(self, v: np.ndarray, axes) -> np.ndarray:
        """Columns of v on the interior cells with axis e taken from axis
        axes[e]."""
        return _permute_axes(v, self.interior, axes)

    def permute_rows(self, u: np.ndarray, axes) -> np.ndarray:
        """Columns of u on G's rows with axis e taken from axis axes[e], as
        ``permute_columns`` on its columns; for odd l the edges of axis e
        also come from the edges of axis axes[e]."""
        shapes = [sizes for sizes, _ in self._row_parts((False,) * len(axes))]
        dims = [math.prod(sizes) for sizes in shapes]
        full = np.zeros((sum(dims), u.shape[1]))
        full[self.kept] = u
        pieces = np.split(full, np.cumsum(dims)[:-1])
        source = axes if self.order % 2 else (0,)
        return np.concatenate([_permute_axes(pieces[d], shapes[d], axes)
                               for d in source])[self.kept]

    def _row_parts(self, parity) -> list:
        """(sizes, parity) of each part of G's full row layout, for the rows
        of one parity pattern: the padded box for even l; for odd l the edges
        of each axis d in turn, where D maps the cells of axis d to its
        edges: one more point on that axis, and the opposite parity there.
        """
        padded = [m + 2 * (self.order - 1) for m in self.interior]
        if self.order % 2 == 0:
            return [(padded, list(parity))]
        return [([m + (e == d) for e, m in enumerate(padded)],
                 [odd != (e == d) for e, odd in enumerate(parity)])
                for d in range(len(padded))]


@dataclass(frozen=True, eq=False)
class ParityBlock:
    """One block G_b of G. Block vectors v_b and u_b stand for columns(v_b)
    on the interior cells and rows(u_b) on G's rows; G_b keeps the rows
    `kept` of its folded row layout, as G does of its own.
    """

    factor: sp.csr_matrix
    layout: BoxLayout
    parity: tuple
    kept: np.ndarray

    def columns(self, v: np.ndarray) -> np.ndarray:
        return _unfold(v, self.layout.interior, self.parity)

    def rows(self, u: np.ndarray) -> np.ndarray:
        parts = self.layout._row_parts(self.parity)
        dims = [math.prod(_folded(*part)) for part in parts]
        folded = np.zeros((sum(dims), u.shape[1]))
        folded[self.kept] = u
        pieces = np.split(folded, np.cumsum(dims)[:-1])
        return np.concatenate([_unfold(y, *part)
                               for y, part in zip(pieces, parts)])[self.layout.kept]


@dataclass
class DiscreteOperator:
    """Symmetric positive semidefinite operator A = G^T G on interior values.

    Only the sparse factor G is stored: apply(v) is G^T (G v), and matrix()
    assembles G^T G for tests. order is the differential order l the factor
    represents; the eigensolver reads it to pick its factorization. layout
    is set by build_polyharmonic and build_laplacian on unmasked boxes,
    whose G splits into parity blocks; an operator built any other way has
    none, spec or not.
    """

    factor: sp.spmatrix
    spec: Optional[DomainSpec] = None
    order: int = 1
    layout: Optional[BoxLayout] = None

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


def _clamped_factor(spec: DomainSpec, l: int) -> tuple:
    """(G, layout): G^T G = E^T L_pad^l E on the box padded by l-1 cells.

    Rows of G that are zero (padding cells no interior cell reaches) are
    dropped; they do not change G^T G. layout is None on masked domains.
    """
    pad = l - 1
    interior = spec.interior_shape
    diffs = [_difference(m + 2 * pad, hd) for m, hd in zip(interior, spec.h)]
    g, kept = _compose(diffs, interior, pad, l, spec.flat_indices())
    layout = None
    if spec.mask is None:
        kept.flags.writeable = False
        layout = BoxLayout(interior, tuple(spec.h), l, kept)
    return g, layout


def _read_only(matrix: sp.csr_matrix) -> sp.csr_matrix:
    for arr in (matrix.data, matrix.indices, matrix.indptr):
        arr.flags.writeable = False
    return matrix


@functools.lru_cache(maxsize=64)
def _interior(spec: DomainSpec) -> tuple:
    g, layout = _clamped_factor(spec, 1)
    return _read_only(g), layout


def interior_factor(spec: DomainSpec) -> sp.csr_matrix:
    """B = D E, the factor of the interior Laplacian B^T B; cached per spec.

    Depends on the grid and mask only, not on spec.l. The matrix is shared
    between callers, so its arrays are read-only.
    """
    return _interior(spec)[0]


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
    factor, layout = _interior(spec)
    return DiscreteOperator(factor=factor, spec=spec, order=1, layout=layout)


def build_polyharmonic(spec: DomainSpec) -> DiscreteOperator:
    """Discrete clamped operator of order spec.l via zero-extension composition.

    The stencil is applied on a grid padded by l-1 cell layers whose values
    start at zero and are carried through intermediate applications, then
    the result is restricted to the interior. Padding l-1 layers reproduces
    the free-lattice composition exactly for data supported on the interior.
    """
    if spec.l == 1:
        return build_laplacian(spec)
    factor, layout = _clamped_factor(spec, spec.l)
    return DiscreteOperator(factor=factor, spec=spec, order=spec.l, layout=layout)


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
    region = _erode(mask, margin)
    region.flags.writeable = False
    return region


def _erode(region: np.ndarray, margin: int) -> np.ndarray:
    """Cells whose 3**n neighbourhood stays inside region, `margin` times over.

    Cells outside the array count as outside. The 3**n box is the product
    of three-cell segments along the axes, so each step is one pair of
    shifts per axis.
    """
    for _ in range(margin):
        for axis in range(region.ndim):
            width = [(1, 1) if d == axis else (0, 0) for d in range(region.ndim)]
            padded = np.moveaxis(np.pad(region, width), axis, 0)
            region = np.moveaxis(padded[:-2] & padded[1:-1] & padded[2:], 0, axis)
    return np.ascontiguousarray(region)


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
    return math.sqrt(euclidean_dot(r, r)) / math.sqrt(euclidean_dot(u.values, u.values))

"""Tensor-product interior grids with Dirichlet extension-by-zero.

A domain is a box (or a bitmap-masked rectangle) discretized on a uniform
grid. Only interior points carry unknowns; every value outside the interior
is identified with zero, which is how the clamped boundary conditions enter
the discrete operators.

Every Euclidean dot product and norm of a grid-sized vector that
``verify`` forms (mesh inner products here, the identity checks, the
commutator residual) goes through ``euclidean_dot``, which stays off
BLAS; see its docstring for why.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

SHAPES = ("interval", "rectangle", "box", "masked-rectangle")
_SHAPE_DIMS = {"interval": 1, "rectangle": 2, "box": 3, "masked-rectangle": 2}


class GridError(ValueError):
    """Invalid domain description."""


def integer_field(data: dict, key: str, default=None, error=GridError) -> int:
    """data[key] (default when absent), which must be an integer, not a float or a bool."""
    value = data.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise error(f"{key!r} must be an integer, got {value!r}")
    return value


def euclidean_dot(a: np.ndarray, b: np.ndarray) -> float:
    """sum_i a_i b_i of two vectors of equal length, summed without BLAS.

    numpy and scipy each load their own OpenBLAS, each with a thread pool
    as wide as the machine. numpy's ddot (np.dot, np.linalg.norm, @ on
    vectors) is threaded on long vectors, and verify calls it between
    scipy's SuperLU and ARPACK calls, so each pool's waiting workers hold
    the cores that the other pool needs: on 2 cores that cost a verify-fine
    pass about 30%. einsum without optimize sums in its own loop, in the
    calling thread. Its summation order depends only on the length, so the
    same values give the same bits whether they come as a view or a copy.
    """
    a = np.ascontiguousarray(a, dtype=float)
    b = np.ascontiguousarray(b, dtype=float)
    return float(np.einsum("i,i->", a, b, optimize=False))


@dataclass(frozen=True)
class DomainSpec:
    """Declarative description of the domain, grid and operator order.

    extents and h are per-axis; the interior point count per axis is
    extents[d]/h[d] - 1, which must come out integral. mask (rows of '0'/'1'
    characters, axis 0 major) selects interior cells for masked rectangles.
    The derived arrays (mask_array, flat_indices, coordinate) are computed
    once per instance and returned read-only.
    """

    shape: str
    n: int
    extents: tuple
    h: tuple
    l: int = 1
    mask: Optional[tuple] = None

    def __post_init__(self):
        if self.shape not in SHAPES:
            raise GridError(f"unknown shape {self.shape!r}; expected one of {SHAPES}")
        if self.n != _SHAPE_DIMS[self.shape]:
            raise GridError(f"shape {self.shape!r} requires n={_SHAPE_DIMS[self.shape]}, got {self.n}")
        try:
            extents = tuple(float(e) for e in self.extents)
            h = tuple(float(v) for v in self.h)
        except (TypeError, ValueError) as exc:
            raise GridError(f"extents and h must be numbers: {exc}") from exc
        if len(extents) != self.n or len(h) != self.n:
            raise GridError("extents and h must both have length n")
        if not all(v > 0 and math.isfinite(v) for v in extents + h):
            raise GridError("extents and h must be positive and finite")
        if self.l < 1:
            raise GridError("operator order l must be a positive integer")
        object.__setattr__(self, "extents", extents)
        object.__setattr__(self, "h", h)
        for d in range(self.n):
            ratio = extents[d] / h[d]
            if not math.isfinite(ratio):
                raise GridError(f"h[{d}]={h[d]} is too small for extent {extents[d]}")
            if abs(ratio - round(ratio)) > 1e-8 * ratio:
                raise GridError(f"h[{d}]={h[d]} does not divide extent {extents[d]}")
        shape_pts = self.interior_shape
        minimum = 2 * self.l + 3
        for d, m in enumerate(shape_pts):
            if m < minimum:
                raise GridError(
                    f"axis {d}: {m} interior points < required {minimum} for order l={self.l}")
        if self.shape == "masked-rectangle":
            if self.mask is None:
                raise GridError("masked-rectangle requires a mask")
            mask = tuple(str(row) for row in self.mask)
            if len(mask) != shape_pts[0] or any(len(r) != shape_pts[1] for r in mask):
                raise GridError(
                    f"mask must be {shape_pts[0]} rows of {shape_pts[1]} characters")
            if any(ch not in "01" for row in mask for ch in row):
                raise GridError("mask rows may contain only '0' and '1'")
            if not any(ch == "1" for row in mask for ch in row):
                raise GridError("mask selects no interior cells")
            object.__setattr__(self, "mask", mask)
        elif self.mask is not None:
            raise GridError(f"mask is only valid for masked-rectangle, not {self.shape!r}")
        object.__setattr__(self, "_derived", {})

    def _cached(self, key, build) -> np.ndarray:
        """build() once per instance, frozen read-only like the spec itself."""
        out = self._derived.get(key)
        if out is None:
            out = build()
            out.flags.writeable = False
            self._derived[key] = out
        return out

    @classmethod
    def with_points(cls, shape: str, extents: Sequence[float],
                    points: Sequence[int], l: int = 1,
                    mask: Optional[Sequence[str]] = None) -> "DomainSpec":
        """Construct from interior point counts instead of spacings."""
        extents = tuple(float(e) for e in extents)
        h = tuple(e / (m + 1) for e, m in zip(extents, points))
        return cls(shape=shape, n=len(extents), extents=extents, h=h, l=l,
                   mask=tuple(mask) if mask is not None else None)

    @property
    def interior_shape(self) -> tuple:
        return tuple(int(round(e / v)) - 1 for e, v in zip(self.extents, self.h))

    @property
    def mask_array(self) -> np.ndarray:
        """Boolean interior-cell selector over the box, C-ordered."""

        def build():
            if self.mask is None:
                return np.ones(self.interior_shape, dtype=bool)
            return np.array([[ch == "1" for ch in row] for row in self.mask], dtype=bool)

        return self._cached("mask", build)

    @property
    def interior_count(self) -> int:
        return self.flat_indices().size

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.h))

    def flat_indices(self) -> np.ndarray:
        """Positions of interior cells in the C-ordered box raveling."""
        return self._cached("flat", lambda: np.flatnonzero(self.mask_array.ravel()))

    def axis_coordinates(self, p: int) -> np.ndarray:
        if not 0 <= p < self.n:
            raise GridError(f"axis {p} out of range for n={self.n}")
        return (np.arange(self.interior_shape[p]) + 1.0) * self.h[p]

    def coordinate(self, p: int) -> np.ndarray:
        """x_p at every interior cell, in flat (mask-restricted) order."""
        if not 0 <= p < self.n:
            raise GridError(f"axis {p} out of range for n={self.n}")

        def build():
            shape = [1] * self.n
            shape[p] = -1
            axis = self.axis_coordinates(p).reshape(shape)
            return np.broadcast_to(axis, self.interior_shape).ravel()[self.flat_indices()]

        return self._cached(("coordinate", p), build)

    def to_dict(self) -> dict:
        out = {
            "shape": self.shape,
            "n": self.n,
            "extents": list(self.extents),
            "h": list(self.h),
            "l": self.l,
        }
        if self.mask is not None:
            out["mask"] = list(self.mask)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "DomainSpec":
        if not isinstance(data, dict):
            raise GridError("domain must be a mapping")
        try:
            shape = data["shape"]
            extents = tuple(data["extents"])
            h = tuple(data["h"])
        except KeyError as exc:
            raise GridError(f"domain is missing field {exc}") from exc
        except TypeError as exc:
            raise GridError(f"extents and h must be lists: {exc}") from exc
        n = integer_field(data, "n", len(extents))
        l = integer_field(data, "l", 1)
        mask = data.get("mask")
        return cls(shape=shape, n=n, extents=extents, h=h, l=l,
                   mask=tuple(mask) if mask is not None else None)


@dataclass
class GridFunction:
    """Real values over the interior cells of a DomainSpec (flat order)."""

    values: np.ndarray
    spec: DomainSpec

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float).ravel()
        if self.values.size != self.spec.interior_count:
            raise GridError(
                f"value count {self.values.size} != interior count {self.spec.interior_count}")

    @classmethod
    def zeros(cls, spec: DomainSpec) -> "GridFunction":
        return cls(np.zeros(spec.interior_count), spec)

    @classmethod
    def from_box(cls, box_values: np.ndarray, spec: DomainSpec) -> "GridFunction":
        box_values = np.asarray(box_values, dtype=float)
        if box_values.shape != spec.interior_shape:
            raise GridError(f"box shape {box_values.shape} != {spec.interior_shape}")
        return cls(box_values.ravel()[spec.flat_indices()], spec)

    def embed(self) -> np.ndarray:
        """Full interior-box array with zeros on masked-out cells."""
        full = np.zeros(int(np.prod(self.spec.interior_shape)))
        full[self.spec.flat_indices()] = self.values
        return full.reshape(self.spec.interior_shape)

    def inner(self, other: "GridFunction") -> float:
        """Mesh inner product: cell volume times the Euclidean dot product."""
        return self.spec.cell_volume * euclidean_dot(self.values, other.values)

    def norm(self) -> float:
        return math.sqrt(self.inner(self))

    def normalized(self) -> "GridFunction":
        nrm = self.norm()
        if nrm == 0:
            raise GridError("cannot normalize the zero grid function")
        return GridFunction(self.values / nrm, self.spec)

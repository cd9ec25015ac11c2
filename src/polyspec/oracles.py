"""Closed-form reference spectra for domains where they are known.

Registry entries:
  * interval of length L, order 1:   (pi j / L)**2
  * rectangle/box, order 1:          pi**2 * sum (m_d / L_d)**2
  * interval of length L, order 2:   (k_j / L)**4 with cos(k) cosh(k) = 1

The rod constants k_j are bisected on the bounded form cos(k) - sech(k) = 0
near (j + 1/2) pi.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .grids import DomainSpec


def interval_eigenvalues(count: int, length: float = 1.0) -> np.ndarray:
    if count < 1:
        raise ValueError("count must be >= 1")
    j = np.arange(1, count + 1, dtype=float)
    return (np.pi * j / length) ** 2


def box_eigenvalues(extents, count: int) -> np.ndarray:
    """Smallest `count` sums pi**2 * sum (m_d/L_d)**2 over positive integers m_d.

    Enumerates within an adaptively grown index box and certifies that no
    excluded index tuple could beat the reported values.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    extents = [float(e) for e in extents]
    n = len(extents)
    limit = max(2, int(math.ceil(count ** (1.0 / n))) + 1)
    while True:
        ranges = [np.arange(1, limit + 1, dtype=float) for _ in extents]
        grids = np.meshgrid(*ranges, indexing="ij")
        values = np.zeros(grids[0].shape)
        for g, ext in zip(grids, extents):
            values += (g / ext) ** 2
        flat = np.sort(values.ravel())[:count] * np.pi ** 2
        # smallest value any excluded tuple could take
        cutoff = np.pi ** 2 * min(
            ((limit + 1) / extents[d]) ** 2
            + sum(1.0 / extents[e] ** 2 for e in range(n) if e != d)
            for d in range(n))
        if flat[-1] < cutoff:
            return flat
        limit *= 2


def clamped_rod_constants(count: int) -> np.ndarray:
    """First `count` positive roots of cos(k) cosh(k) = 1.

    Bisection on cos(k) - sech(k), which changes sign within 0.6 of
    (j + 1/2) pi, until the bracket closes to adjacent floats.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    roots = []
    for j in range(1, count + 1):
        center = (j + 0.5) * math.pi
        lo, hi = center - 0.6, center + 0.6
        lo_negative = math.cos(lo) - 1.0 / math.cosh(lo) < 0
        while True:
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            value = math.cos(mid) - 1.0 / math.cosh(mid)
            if value == 0.0:
                break
            if (value < 0) == lo_negative:
                lo = mid
            else:
                hi = mid
        roots.append(mid)
    return np.asarray(roots)


def clamped_rod_eigenvalues(count: int, length: float = 1.0) -> np.ndarray:
    return (clamped_rod_constants(count) / length) ** 4


def analytic_spectrum(spec: DomainSpec, count: int) -> Optional[np.ndarray]:
    """Reference eigenvalues for the continuum problem on spec's domain.

    Returns None when the registry has no entry (masked shapes, orders
    beyond the clamped rod).
    """
    if spec.mask is not None:
        return None
    if spec.l == 1:
        if spec.n == 1:
            return interval_eigenvalues(count, spec.extents[0])
        return box_eigenvalues(spec.extents, count)
    if spec.l == 2 and spec.n == 1:
        return clamped_rod_eigenvalues(count, spec.extents[0])
    return None


def discrete_interval_eigenvalues(m: int, h: float, count: Optional[int] = None) -> np.ndarray:
    """Exact eigenvalues (4/h**2) sin**2(j pi h' / 2) of the 1-D stencil.

    Closed form for the tridiagonal (-1, 2, -1)/h**2 matrix on m interior
    points of an interval of extent (m+1) h.
    """
    if count is None:
        count = m
    j = np.arange(1, count + 1, dtype=float)
    theta = j * np.pi / (m + 1)
    return (4.0 / h ** 2) * np.sin(theta / 2.0) ** 2

"""Eigenfunction-level identity and interpolation checks.

These run before any inequality is evaluated: a wrong operator makes
inequality verdicts meaningless. The commutator check is exact algebra
(machine precision), the trace identity and gradient sum carry known
O(h^2) / O(h) discretization corrections and are therefore checked
against tolerances and refinement orders rather than exactly.

Every inner product and norm of a grid vector here is one
``grids.euclidean_dot`` sum (mesh inner products go through
``GridFunction.inner``), never numpy's BLAS: the checks run between scipy's
LU and ARPACK calls, whose threads a BLAS call would compete with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from .eigensolve import Spectrum
from .grids import DomainSpec, GridFunction, euclidean_dot
from .operators import (
    central_difference,
    commutator_residual,
    coordinate_multiply,
    interior_factor,
    interior_laplacian,
    random_interior_function,
)


@dataclass
class IdentityRow:
    """One identity or oracle comparison: observed vs reference."""

    name: str
    observed: float
    reference: float
    deviation: float
    tol: float
    passed: bool
    notes: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "observed": float(self.observed),
            "reference": float(self.reference),
            "deviation": float(self.deviation),
            "tol": float(self.tol),
            "passed": bool(self.passed),
            "notes": self.notes,
        }


def _unit_spacing_replica(spec: DomainSpec) -> DomainSpec:
    """Same interior shape and mask at h = 1.

    The commutator identity is independent of the grid spacing; unit
    spacing keeps the floating-point cancellation of the l-fold stencil
    bounded so exactness is actually measurable.
    """
    pts = spec.interior_shape
    return DomainSpec(shape=spec.shape, n=spec.n,
                      extents=tuple(float(m + 1) for m in pts),
                      h=tuple(1.0 for _ in pts), l=spec.l, mask=spec.mask)


def commutator_check(spec: DomainSpec, trials: int = 5, seed: int = 0,
                     tol: float = 1e-10) -> List[IdentityRow]:
    """Exact commutator residual per axis on random interior-supported data."""
    replica = _unit_spacing_replica(spec)
    rng = np.random.default_rng(seed)
    rows = []
    for p in range(replica.n):
        worst = 0.0
        for _ in range(trials):
            u = random_interior_function(replica, replica.l + 1, rng)
            worst = max(worst, commutator_residual(replica, u, p))
        rows.append(IdentityRow(
            name=f"commutator(l={replica.l},p={p})",
            observed=worst, reference=0.0, deviation=worst,
            tol=tol, passed=worst <= tol,
            notes=f"max over {trials} random vectors, unit-spacing replica"))
    return rows


def interpolation_check(spectrum: Spectrum, spec: DomainSpec,
                        tol: float = 1e-3) -> List[IdentityRow]:
    """Intermediate quadratic forms against fractional eigenvalue powers.

    For each retained eigenpair and j = 1..l-1 checks
    <L^j u_i, u_i> <= lambda_i^(j/l) (1 + tol). Vacuous for l = 1.
    """
    if spec.l == 1:
        return []
    if spectrum.vectors is None:
        raise ValueError("interpolation check needs retained eigenvectors")
    lap = interior_laplacian(spec)
    rows = []
    for i in range(spectrum.k):
        u = spectrum.eigenvector(i).normalized()
        v = u.values
        lam = spectrum.eigenvalues[i]
        w = v
        for j in range(1, spec.l):
            w = lap @ w
            r = spec.cell_volume * euclidean_dot(w, v)
            bound = lam ** (j / spec.l)
            rows.append(IdentityRow(
                name=f"interpolation(i={i + 1},j={j})",
                observed=r, reference=bound, deviation=r - bound,
                tol=tol, passed=r <= bound * (1.0 + tol)))
    return rows


def _trace_values(spectrum: Spectrum, spec: DomainSpec) -> List[tuple]:
    values = []
    for i in range(spectrum.k):
        u = spectrum.eigenvector(i).normalized()
        for p in range(spec.n):
            xu = coordinate_multiply(p, u)
            d_xu = central_difference(p, xu)
            x_du = coordinate_multiply(p, central_difference(p, u))
            comm = GridFunction(d_xu.values - x_du.values, spec)
            values.append((i, p, comm.inner(u)))
    return values


def trace_identity_check(spectrum: Spectrum, spec: DomainSpec,
                         tol: float = 1.0) -> List[IdentityRow]:
    """<D_p(x_p u) - x_p D_p u, u> against 1 for normalized eigenvectors.

    The centered product rule leaves a second-difference correction of
    size (h_p^2/2) <L_p u, u> <= (h_p^2/2) lambda^(1/l), so the value
    converges to 1 at second order. The per-row threshold is
    tol * h_p^2 * lambda_i^(1/l): tol is a multiple of the known
    correction scale, and a wrong operator deviates at O(1) instead.
    """
    if spectrum.vectors is None:
        raise ValueError("trace identity check needs retained eigenvectors")
    rows = []
    for i, p, value in _trace_values(spectrum, spec):
        dev = abs(value - 1.0)
        allowed = tol * spec.h[p] ** 2 * spectrum.eigenvalues[i] ** (1.0 / spec.l)
        rows.append(IdentityRow(
            name=f"trace_identity(i={i + 1},p={p})",
            observed=value, reference=1.0, deviation=dev,
            tol=allowed, passed=dev <= allowed,
            notes="second-order correction expected at finite h"))
    return rows


def gradient_sum_check(spectrum: Spectrum, spec: DomainSpec,
                       tol_match: float = 6.0,
                       tol_bound: float = 1e-3) -> List[IdentityRow]:
    """Centered-difference energy against the stencil quadratic form.

    Checks (a) sum_p ||D_p u_i||^2 agrees with <L u_i, u_i> up to the
    summation-by-parts correction, which is first order in h (a boundary
    quadrature effect of relative size ~2h/extent on boxes, larger on
    staircase masks); allowed relative mismatch is
    tol_match * max_p(h_p / extent_p). And (b) both energies stay below
    lambda_i^(1/l) (1 + tol_bound), which holds exactly in the discrete
    setting.
    """
    if spectrum.vectors is None:
        raise ValueError("gradient sum check needs retained eigenvectors")
    b = interior_factor(spec)
    allowed = tol_match * max(h / e for h, e in zip(spec.h, spec.extents))
    rows = []
    for i in range(spectrum.k):
        u = spectrum.eigenvector(i).normalized()
        grad = 0.0
        for p in range(spec.n):
            d = central_difference(p, u)
            grad += d.inner(d)
        bu = b @ u.values
        form = spec.cell_volume * euclidean_dot(bu, bu)
        bound = spectrum.eigenvalues[i] ** (1.0 / spec.l)
        rel = abs(grad - form) / form
        rows.append(IdentityRow(
            name=f"gradient_sum_match(i={i + 1})",
            observed=grad, reference=form, deviation=rel,
            tol=allowed, passed=rel <= allowed,
            notes="centered vs one-sided energy, first-order correction"))
        worst = max(grad, form)
        rows.append(IdentityRow(
            name=f"gradient_sum_bound(i={i + 1})",
            observed=worst, reference=bound, deviation=worst - bound,
            tol=tol_bound, passed=worst <= bound * (1.0 + tol_bound)))
    return rows

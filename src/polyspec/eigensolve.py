"""Smallest eigenpairs of factored operators A = G^T G, with certified radii.

Two paths, picked from the operator alone; both end in the same
certificate on the whole G.

Closed form. An operator of order 1 carrying a ``BoxLayout`` (an unmasked
interval, rectangle or box from ``build_laplacian``) is exactly the
Kronecker sum of one (-1, 2, -1)/h^2 matrix per axis, whose eigenpairs are
known sines (Demmel, Applied Numerical Linear Algebra, SIAM 1997, sec.
6.3). Each axis gives its min(k, m) smallest eigenvalues from
``oracles.discrete_interval_eigenvalues`` (a sum whose index on some axis
exceeds k has k sums at or below it, with smaller flat indices), the k
smallest of the sums are kept, and v is the product of the 1-D sine
vectors, u = G v. Every eigenvalue of the sum is enumerated, so no pair
below lambda_k can be missed, and no LU, Lanczos run or seed is involved.

Lanczos. Every other operator (masked domains, orders l >= 2, factors
built by hand) takes seeded ARPACK Lanczos (``eigsh``) on the operator
x -> A^(-1) x, applied through one sparse LU per block.

Blocks. An unmasked box of order l >= 2 from ``build_polyharmonic``
carries a ``BoxLayout``, whose reflection-parity blocks G_b, each
composed as G is from folded 1-D differences, split G exactly (see
``operators``).
Blocks whose parity patterns are axis permutations of each other (over
axes with equal point counts and spacing) are isospectral, so when
splitting pays, the blocks are taken in parity order and each is either
solved or copied. The first block of each axis-permutation class is built,
factored by the rule below and given one Lanczos run for k pairs from its
own start vector (``default_rng(seed)`` of the block's dimension, as for
an operator that is one block), and has its LU freed before the next block
is factored. Every later block of the class (``BoxLayout.copies``) takes
its pairs: the same eigenvalues, with v and u permuted over the interior
cells and G's rows (``BoxLayout.permute_columns`` and ``permute_rows``).
A running merge keeps the k smallest pairs so far, earlier blocks first on
ties; only the pairs that enter it are mapped back to the interior cells
and to G's rows by one reflection per axis (``ParityBlock.columns`` and
``rows``) and, for a copy, permuted. Each solved block's pairs wait in
folded block coordinates for its copies. The split pays through smaller
LUs, whose cost their separators set, and costs one Lanczos run per class.
So it is taken when n >= 2, every block has more than k unknowns and the
smallest block's separator, l * b^((n-1)/n) cells for b unknowns, is at
least MIN_BLOCK_SEPARATOR; on 2 cores that is where the split stopped
losing when every block had a Lanczos run of its own (about 50^2 for
l = 2 squares). Every other operator is one block, G itself. On either
path the certificate below is formed on the whole G for every pair,
copies included, from each pair's own u, with the global sigma_1 in its
gate.

* Order l >= 2: the augmented matrix K = [[-I, G], [G^T, 0]] is factored
  and K (u, y) = (0, x) gives y = A^(-1) x and u = G y without ever
  forming G^T G, whose condition number is cond(G)^2 (the augmented-system
  method for least squares; K is the Jordan-Wielandt form of G). K is
  indefinite with a zero diagonal block, so it keeps SuperLU's default
  COLAMD column order with partial pivoting: elimination without pivoting
  could meet a zero pivot, and minimum degree on K + K^T fills far more.
* Order 1 (masked or built by hand): A itself is factored. Its condition
  number is only O(h^-2), and augmenting would add fill without adding
  accuracy. A is symmetric positive definite, so it is ordered by minimum
  degree on A + A^T and eliminated without pivoting (diagonal pivots,
  symmetric mode): that is Cholesky up to diagonal scaling, stable
  without row exchanges, and its LU has about half the fill of the COLAMD
  order.

Each pair is certified from the factored residuals. With v normalized, u
taken from one more solve K (u, .) = (0, v), or as G v on the closed-form
path, and normalized, and sigma = sqrt(lam), the residual

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
from .operators import BoxLayout, DiscreteOperator
from .oracles import discrete_interval_eigenvalues

EPS = np.finfo(float).eps
FLOOR_FACTOR = 64.0     # multiplies eps * ||G|| / sigma_1 in the acceptance gate
# fewest separator cells of the smallest parity block for the split to pay
# (only boxes of order l >= 2 reach the split; order 1 takes the closed form):
# below it the fixed cost of one Lanczos run per axis-permutation class
# outweighs the saving on the LUs, whose cost the separators set. The value
# was measured when every block had a Lanczos run of its own; with one run
# per class the crossover may sit lower, but retuning it moves which
# operators split, so it waits for its own measurement
MIN_BLOCK_SEPARATOR = 48


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


def _norm_bound(g: sp.csr_matrix) -> float:
    """Upper bound sqrt(||G||_1 ||G||_inf) on the spectral norm of G."""
    absolute = abs(g)
    return float(np.sqrt(absolute.sum(axis=0).max() * absolute.sum(axis=1).max()))


def _factored_solver(g: sp.csr_matrix, order: int):
    """(inverse, lift) through one sparse LU of A = G^T G.

    inverse(x) = A^(-1) x is the Lanczos operator; lift(x) = G A^(-1) x
    gives the certificate its u. x may hold several right sides as columns.
    """
    try:
        if order == 1:
            a = sp.csr_matrix(g.T @ g)
            lu = spla.splu(sp.csc_matrix(a), permc_spec="MMD_AT_PLUS_A",
                           diag_pivot_thresh=0.0, options={"SymmetricMode": True})
            return lu.solve, lambda x: g @ lu.solve(x)
        m = g.shape[0]
        lu = spla.splu(sp.bmat([[-sp.identity(m), g], [g.T, None]], format="csc"))
    except RuntimeError as exc:  # SuperLU reports an exactly singular factor
        raise SolverError(f"factorization failed: {exc}") from exc

    def solve(x):
        return lu.solve(np.concatenate([np.zeros((m,) + x.shape[1:]), x]))

    return (lambda x: solve(x)[m:]), (lambda x: solve(x)[:m])


def _blocks(op: DiscreteOperator, k: int) -> tuple:
    """(parities, copies) of op when splitting pays, else ([None], {}): op
    as one block. copies maps each parity pattern whose block is an axis
    permutation of an earlier one to (representative, axes)
    (``BoxLayout.copies``).
    """
    layout = op.layout
    if layout is not None and len(layout.interior) >= 2:
        n = len(layout.interior)
        parities = layout.parities()
        smallest = min(layout.block_dimension(p) for p in parities)
        # separator order * smallest^((n-1)/n) against the threshold, in integers
        if smallest > k and op.order ** n * smallest ** (n - 1) >= MIN_BLOCK_SEPARATOR ** n:
            return parities, layout.copies()
    return [None], {}


def _block_pairs(g: sp.csr_matrix, order: int, k: int, v0: np.ndarray):
    """(lam, v, lift): the k smallest eigenvalues of G^T G, ascending,
    their unit Lanczos vectors, and lift(x) = G (G^T G)^(-1) x.

    lift holds the block's LU; drop it before factoring another block.
    """
    inverse, lift = _factored_solver(g, order)
    dim = g.shape[1]
    operator = spla.LinearOperator((dim, dim), matvec=inverse, dtype=float)
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
    v = v[:, order] / np.linalg.norm(v[:, order], axis=0)
    return 1.0 / mu, v, lift


def _certify(g: sp.csr_matrix, lam: np.ndarray, v: np.ndarray, u: np.ndarray,
             tol: float) -> np.ndarray:
    """Relative radii of the pairs (lam, v, u) on the whole factor G, from
    the factored residuals (see the module); SolverError past the gate.
    v holds unit columns; u is normalized here.
    """
    g_norm = _norm_bound(g)
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
    return radii


def _tensor_pairs(layout: BoxLayout, k: int) -> tuple:
    """(lam, v): the k smallest pairs of an order-1 box's G^T G, the
    Kronecker sum of one (-1, 2, -1)/h^2 matrix per axis, in closed form.

    Axis p contributes its min(k, m_p) smallest 1-D pairs, sqrt(2/(m+1))
    sin(i j pi/(m+1)) over its points i; the k smallest of the sums are
    kept by a stable sort, ties by flat index, with the products of their
    1-D vectors as columns of v.
    """
    counts = [min(k, m) for m in layout.interior]
    lam = np.zeros(1)
    for m, h, count in zip(layout.interior, layout.h, counts):
        lam = np.add.outer(lam, discrete_interval_eigenvalues(m, h, count)).ravel()
    best = np.argsort(lam, kind="stable")[:k]
    v = np.ones((1, k))
    for m, j in zip(layout.interior, np.unravel_index(best, counts)):
        # i j reduced mod 2(m+1) keeps the sine's argument within [0, 2 pi)
        phase = np.outer(np.arange(1, m + 1), j + 1) % (2 * (m + 1))
        sines = np.sqrt(2.0 / (m + 1)) * np.sin(phase * (np.pi / (m + 1)))
        v = (v[:, None, :] * sines[None, :, :]).reshape(-1, k)
    return lam[best], v / np.linalg.norm(v, axis=0)


def _split_pairs(op: DiscreteOperator, k: int, seed: int) -> tuple:
    """(lam, v, u): the k smallest pairs of G^T G by Lanczos, one block or
    one parity block per axis-permutation class (see the module), with v
    on the interior cells and u = G A^(-1) v on G's rows.
    """
    layout = op.layout
    parities, copies = _blocks(op, k)
    representatives = {rep for rep, _ in copies.values()}
    solved = {}  # representative -> its block and merged pairs, folded
    lam = v = u = None
    for parity in parities:
        copy = copies.get(parity)  # (representative, axes), or None: solve it
        if copy is None:
            block = None if parity is None else layout.block(parity)
            g_b = op.factor if block is None else block.factor
            start = np.random.default_rng(seed).standard_normal(g_b.shape[1])
            lam_b, v_b, lift = _block_pairs(g_b, op.order, k, start)
        else:
            block, lam_b, v_b, u_b = solved[copy[0]]
        if lam is not None:
            # running merge with the k smallest pairs so far, earlier blocks
            # first on ties; only the block's pairs that enter it are lifted,
            # unfolded and permuted
            best = np.argsort(np.concatenate([lam, lam_b]), kind="stable")[:k]
            fresh = best >= k
            enter = best[fresh] - k
            lam_b, v_b = lam_b[enter], v_b[:, enter]
            if copy is not None:
                u_b = u_b[:, enter]
        if copy is None:
            u_b = lift(v_b)
            del lift  # frees the block's LU
            if parity in representatives:
                solved[parity] = (block, lam_b, v_b, u_b)
        if block is not None:
            # unfolding is orthonormal, so v_b stays a unit vector to rounding
            v_b = block.columns(v_b)
            u_b = block.rows(u_b)
            if copy is not None:
                v_b = layout.permute_columns(v_b, copy[1])
                u_b = layout.permute_rows(u_b, copy[1])
        if lam is None:
            lam, v, u = lam_b, v_b, u_b
        else:
            take = np.where(fresh, k + np.cumsum(fresh) - 1, best)
            lam = np.concatenate([lam, lam_b])[take]
            v = np.hstack([v, v_b])[:, take]
            u = np.hstack([u, u_b])[:, take]
    return lam, v, u


def smallest_eigenpairs(op: DiscreteOperator, k: int, tol: float = 1e-8,
                        seed: int = 0, compute_vectors: bool = True) -> Spectrum:
    """k smallest eigenpairs of A = G^T G, each with a certified radius.

    Deterministic for a fixed seed: ARPACK gets a seeded starting vector
    (each parity block that is solved, not copied, draws its own from the
    same seed when the operator splits). An order-1 box takes its pairs in
    closed form and does not read the seed.
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

    if op.order == 1 and op.layout is not None:
        lam, v = _tensor_pairs(op.layout, k)
        u = op.factor @ v
    else:
        lam, v, u = _split_pairs(op, k, seed)

    radii = _certify(op.factor, lam, v, u, tol)

    vectors = None
    if compute_vectors:
        vectors = np.array(v)
        if op.spec is not None:
            vectors = vectors / np.sqrt(op.spec.cell_volume)

    return Spectrum(eigenvalues=lam, residuals=radii, k=k,
                    vectors=vectors, spec=op.spec,
                    solver_tol=float(max(tol, radii.max())))

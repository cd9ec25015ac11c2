"""References that tests compare polyspec against: operators, reflection-
parity bases, axis permutations of box vectors, a refinement study, the
fuzz suites drawn and evaluated one trial at a time, the spectra's
orthonormality, and grid reductions through numpy's BLAS dot."""

import contextlib

import numpy as np
import scipy.sparse as sp

from polyspec import grids, identities, operators
from polyspec.algebra import ExponentPair, MonotoneTriple
from polyspec.eigensolve import Spectrum, smallest_eigenpairs
from polyspec.grids import DomainSpec
from polyspec.identities import trace_identity_check
from polyspec.operators import BoxLayout, DiscreteOperator, build_polyharmonic


def operator_power(op: DiscreteOperator, l: int) -> DiscreteOperator:
    """Iterated interior operator; eigenvalues are the l-th powers of op's.

    With op = B^T B its factor is L^(l/2) for even l and B L^((l-1)/2) for
    odd l, L = B^T B assembled.
    """
    if l < 1:
        raise ValueError("power l must be a positive integer")
    if l == 1:
        return op
    lap = op.matrix()
    g = op.factor if l % 2 else sp.identity(op.dimension, format="csr")
    for _ in range(l // 2):
        g = g @ lap
    return DiscreteOperator(factor=g, spec=op.spec, order=l)


def parity_basis(sizes, parity) -> sp.csr_matrix:
    """Orthonormal basis of the box vectors with one reflection parity per axis.

    The Kronecker product over the axes, axis 0 major, of the 1-D bases: on
    an axis of m points column j < m // 2 is (e_j +- e_(m-1-j)) / sqrt(2),
    minus for odd parity, and for odd m and even parity the last column is
    the centre point.
    """
    q = sp.identity(1, format="csr")
    for m, odd in zip(sizes, parity):
        half = m // 2
        pairs = np.arange(half)
        rows, cols = [pairs, m - 1 - pairs], [pairs, pairs]
        vals = [np.full(half, np.sqrt(0.5)), np.full(half, np.sqrt(0.5) * (-1) ** odd)]
        if m % 2 and not odd:
            rows.append([half])
            cols.append([half])
            vals.append([1.0])
        axis = sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                             shape=(m, (m + (not odd)) // 2))
        q = sp.kron(q, axis, format="csr")
    return q


def parity_bases(layout: BoxLayout, parity) -> tuple:
    """(Q_I, Q_R) of one parity pattern, Q_R on G's kept rows.

    G's rows are the padded box for even l. For odd l they are the stacked
    per-axis edges: part d, the edges of axis d, has one more point and the
    opposite parity on axis d, because D maps even cells to odd edges.
    """
    columns = parity_basis(layout.interior, parity)
    padded = [m + 2 * (layout.order - 1) for m in layout.interior]
    if layout.order % 2 == 0:
        rows = parity_basis(padded, parity)
    else:
        rows = sp.block_diag([
            parity_basis([m + (e == d) for e, m in enumerate(padded)],
                         [odd != (e == d) for e, odd in enumerate(parity)])
            for d in range(len(padded))], format="csr")
    return columns, sp.csr_matrix(rows[layout.kept])


def axis_permutation(layout: BoxLayout, axes) -> tuple:
    """(cols, rows): index arrays with v[cols] the interior vector v and
    u[rows] the vector u on G's kept rows with axis e taken from axis
    axes[e], found by relabelling every cell's multi-index.

    For odd l the rows of part e, the edges of axis e, come from part
    axes[e], the edges of that axis.
    """
    def relabel(target, source):
        # cell j of the target box comes from the source cell i, i[axes[e]] = j[e]
        j = np.indices(target).reshape(len(target), -1)
        i = np.empty_like(j)
        i[list(axes)] = j
        return np.ravel_multi_index(tuple(i), source)

    cols = relabel(layout.interior, layout.interior)
    padded = [m + 2 * (layout.order - 1) for m in layout.interior]
    if layout.order % 2 == 0:
        full = relabel(padded, padded)
    else:
        parts = [[m + (e == d) for e, m in enumerate(padded)] for d in range(len(padded))]
        offsets = np.cumsum([0] + [int(np.prod(p)) for p in parts])
        full = np.concatenate([offsets[axes[e]] + relabel(parts[e], parts[axes[e]])
                               for e in range(len(parts))])
    position = np.full(full.size, -1)
    position[layout.kept] = np.arange(layout.kept.size)
    rows = position[full[layout.kept]]
    assert np.all(rows >= 0), "the kept rows are not closed under the permutation"
    return cols, rows


def orthonormality_defect(spectrum: Spectrum) -> float:
    """max |<v_i, v_j> - delta_ij| of a spectrum's vectors in their stored
    normalization (cell-volume weighted when a grid is attached)."""
    if spectrum.vectors is None:
        raise ValueError("eigenvectors were not retained")
    weight = spectrum.spec.cell_volume if spectrum.spec is not None else 1.0
    gram = weight * (spectrum.vectors.T @ spectrum.vectors)
    return float(np.max(np.abs(gram - np.eye(spectrum.k))))


@contextlib.contextmanager
def blas_reductions():
    """Within the block, every grid reduction of polyspec is np.dot.

    Replaces grids.euclidean_dot, in each module that calls it, with
    numpy's BLAS dot, the reduction those call sites used before it. A norm
    is still the square root of one such sum, as np.linalg.norm forms it.
    """
    modules = (grids, identities, operators)
    saved = [module.euclidean_dot for module in modules]
    for module in modules:
        module.euclidean_dot = lambda a, b: float(np.dot(a, b))
    try:
        yield
    finally:
        for module, helper in zip(modules, saved):
            module.euclidean_dot = helper


def trace_identity_orders(spec: DomainSpec, k: int, levels: int = 3,
                          solver_tol: float = 1e-8, seed: int = 0) -> np.ndarray:
    """Observed convergence orders of the trace deviation under refinement.

    Solves the domain at h, h/2, ..., h/2^(levels-1) and returns
    log2(d_coarse / d_fine) per refinement step, averaged over eigenpairs
    and axes.
    """
    if levels < 2:
        raise ValueError("need at least two refinement levels")
    if spec.mask is not None:
        raise ValueError("refinement study is defined for unmasked shapes only")
    deviations = []
    for level in range(levels):
        refined = DomainSpec(
            shape=spec.shape, n=spec.n, extents=spec.extents,
            h=tuple(v / 2 ** level for v in spec.h), l=spec.l, mask=None)
        spectrum = smallest_eigenpairs(build_polyharmonic(refined), k,
                                       tol=solver_tol, seed=seed)
        rows = trace_identity_check(spectrum, refined)
        deviations.append(np.mean([row.deviation for row in rows]))
    deviations = np.asarray(deviations)
    return np.log2(deviations[:-1] / deviations[1:])


def central_difference_matrix(spec: DomainSpec, p: int) -> sp.csr_matrix:
    """Matrix form of polyspec.operators.central_difference on the interior cells."""
    factors = [sp.identity(m, format="csr") for m in spec.interior_shape]
    m = spec.interior_shape[p]
    # rows give (u_{j+1} - u_{j-1}) / (2h): superdiagonal +1, subdiagonal -1
    factors[p] = sp.diags([-1.0, 1.0], [-1, 1], shape=(m, m)) / (2.0 * spec.h[p])
    box = factors[0]
    for f in factors[1:]:
        box = sp.kron(box, f, format="csr")
    idx = spec.flat_indices()
    return sp.csr_matrix(box[np.ix_(idx, idx)])


def symmetry_defect(op: DiscreteOperator, trials: int = 100,
                    seed: int = 0) -> float:
    """max |<Op x, y> - <x, Op y>| normalized by ||x|| ||y|| ||Op||_inf."""
    rng = np.random.default_rng(seed)
    dim = op.dimension
    scale = float(abs(op.matrix()).sum(axis=1).max())
    worst = 0.0
    for _ in range(trials):
        x = rng.standard_normal(dim)
        y = rng.standard_normal(dim)
        lhs = float(np.dot(op.apply(x), y))
        rhs = float(np.dot(x, op.apply(y)))
        denom = np.linalg.norm(x) * np.linalg.norm(y) * scale
        worst = max(worst, abs(lhs - rhs) / denom)
    return worst


def random_monotone_triple(rng: np.random.Generator, max_len: int = 30,
                           positive: bool = True) -> MonotoneTriple:
    """Random triple with well-scaled entries; A strictly positive if asked."""
    k = int(rng.integers(1, max_len + 1))
    low = 0.1 if positive else 0.0
    a = np.sort(rng.uniform(low, 10.0, size=k))[::-1]
    b = np.sort(rng.uniform(0.0, 10.0, size=k))
    c = np.sort(rng.uniform(0.0, 10.0, size=k))
    return MonotoneTriple(A=tuple(a), B=tuple(b), C=tuple(c))


def random_admissible_pair(rng: np.random.Generator) -> ExponentPair:
    alpha = rng.uniform(-2.0, 3.0)
    beta = alpha ** 2 / 2.0 + rng.uniform(0.0, 3.0)
    return ExponentPair(alpha=alpha, beta=beta)


def sequential_fuzz(suite: str, trials: int, seed: int,
                    pairs_per_triple: int = 10) -> list:
    """Every instance of a fuzz suite as (trial, *instance, lhs, rhs).

    Draws with the per-trial generators above and evaluates each instance
    with its own scalar formula, one trial at a time. The instance is
    (triple, pair), (triple,), (s, gamma) or (a, b), in the order of the
    suite's violation tuples.
    """
    rng = np.random.default_rng(seed)
    out = []
    for t in range(trials):
        if suite == "generalized_chebyshev":
            triple = random_monotone_triple(rng)
            a, b, c = (np.asarray(s) for s in (triple.A, triple.B, triple.C))
            for _ in range(pairs_per_triple):
                pair = random_admissible_pair(rng)
                a_beta = a ** pair.beta
                a_q = a ** pair.conjugate_exponent
                out.append((t, triple, pair,
                            np.sum(a_beta * b) * np.sum(a_q * c),
                            np.sum(a_beta) * np.sum(a_q * b * c)))
        elif suite == "quadratic_chebyshev":
            triple = random_monotone_triple(rng)
            a, b, c = (np.asarray(s) for s in (triple.A, triple.B, triple.C))
            out.append((t, triple, np.sum(a * a * b) * np.sum(a * c),
                        np.sum(a * a) * np.sum(a * b * c)))
        elif suite == "power_mean":
            k = int(rng.integers(1, 31))
            s = rng.uniform(0.0, 10.0, size=k)
            gamma = rng.uniform(1.0, 5.0)
            out.append((t, s, gamma, s.sum() ** gamma,
                        k ** (gamma - 1.0) * np.sum(s ** gamma)))
        elif suite == "chebyshev_sum":
            k = int(rng.integers(1, 31))
            a = np.sort(rng.uniform(-5.0, 5.0, size=k))
            b = np.sort(rng.uniform(-5.0, 5.0, size=k))[::-1]
            out.append((t, a, b, float(np.dot(a, b)), float(a.sum() * b.sum() / k)))
        else:
            raise ValueError(f"unknown suite {suite!r}")
    return out


def reference_holds(lhs: float, rhs: float, rel_tol: float,
                    abs_tol: float = 1e-15) -> bool:
    """The suites' verdict: lhs <= rhs up to rel_tol * max(|lhs|, |rhs|) + abs_tol."""
    return lhs <= rhs + rel_tol * max(abs(lhs), abs(rhs)) + abs_tol

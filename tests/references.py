"""Reference operators that tests compare polyspec's operators against."""

import numpy as np
import scipy.sparse as sp

from polyspec.grids import DomainSpec
from polyspec.operators import DiscreteOperator


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

"""Reflection-parity blocks of box operators and the split eigensolve."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.linalg import norm as sparse_norm

from polyspec import eigensolve
from polyspec.eigensolve import smallest_eigenpairs
from polyspec.grids import DomainSpec
from polyspec.operators import DiscreteOperator, build_laplacian, build_polyharmonic
from references import (axis_permutation, operator_power, orthonormality_defect,
                        parity_bases)

# just above the split threshold: the smallest block's separator
# order * unknowns^((n-1)/n) is at least MIN_BLOCK_SEPARATOR = 48. Each case
# is (shape, points, l, extents, classes): extents default to 1 per axis, and
# classes counts the axis-permutation classes of its parity patterns, one
# block build and one LU each.
SPLIT_CASES = [
    ("rectangle", (96, 96), 1, None, 3),        # 48 x 48 blocks, double eigenvalues
    ("rectangle", (48, 48), 2, None, 3),
    ("rectangle", (49, 51), 2, None, 4),        # odd sizes: centre cells on both axes
    ("rectangle", (47, 49), 3, None, 4),        # odd l: edge rows with flipped parity
    ("box", (14, 15, 16), 1, None, 8),
    ("rectangle", (25, 26), 4, None, 4),        # 12 x 13 blocks
    ("rectangle", (21, 21), 5, None, 3),        # odd l on odd sizes: 10 x 10 blocks
    ("box", (10, 11, 11), 2, None, 6),          # 5 x 5 x 5 blocks
    ("box", (9, 9, 9), 3, None, 4),             # 4 x 4 x 4 blocks, exactly at the threshold
    ("rectangle", (48, 48), 2, (1.0, 2.0), 4),  # equal points, unequal spacing: no copies
]
SPLIT_IDS = ["square-96-l1", "plate-48-l2", "rect-49x51-l2", "rect-47x49-l3",
             "box-14x15x16-l1", "rect-25x26-l4", "square-21-l5", "box-10x11x11-l2",
             "cube-9-l3", "rect-48x48-h1x2-l2"]
# cases whose classes hold copies, for the exact equivariance of copied pairs
EQUIVARIANT = [SPLIT_CASES[i] for i in (1, 6, 8)]
EQUIVARIANT_IDS = [SPLIT_IDS[i] for i in (1, 6, 8)]
# a copy's residuals are summed in permuted order: radii agree to 6e-5 or
# better on the 48^2 l = 2, 21^2 l = 5 and 9^3 l = 3 cases, seeds 2 and 3
RADIUS_ROUNDING = 1e-3


def box_spec(shape, points, l, mask=None, extents=None):
    return DomainSpec.with_points(shape, extents or [1.0] * len(points), points,
                                  l=l, mask=mask)


def one_block(op):
    """The same factor without the layout: the solver cannot split it."""
    return DiscreteOperator(factor=op.factor, spec=op.spec, order=op.order)


@pytest.fixture
def lu_count(monkeypatch):
    """Counts sparse LU factorizations, one per block the solver solved."""
    calls = []
    original = spla.splu

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return original(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", counting)
    return calls


def basis_defect(q):
    return abs(q.T @ q - sp.identity(q.shape[1])).max()


def parities_of(vector, shape):
    """Per axis, +1 (even) or -1 (odd) under j <-> m-1-j; 0 for neither."""
    box = vector.reshape(shape)
    scale = np.abs(box).max()
    out = []
    for axis in range(box.ndim):
        flipped = np.flip(box, axis)
        if np.abs(flipped - box).max() <= 1e-10 * scale:
            out.append(1)
        elif np.abs(flipped + box).max() <= 1e-10 * scale:
            out.append(-1)
        else:
            out.append(0)
    return tuple(out)


class TestBases:
    @pytest.mark.parametrize("shape,points,l,extents,classes", SPLIT_CASES, ids=SPLIT_IDS)
    def test_bases_orthonormal_and_blocks_exact(self, shape, points, l, extents, classes):
        # the folded blocks against Q_R^T G Q_I from the Kronecker bases
        op = build_polyharmonic(box_spec(shape, points, l, extents=extents))
        layout = op.layout
        g = op.factor
        parities = layout.parities()
        assert len(parities) == 2 ** len(points)
        bases = {p: parity_bases(layout, p) for p in parities}
        # the column bases together are one orthogonal matrix
        q_i = sp.hstack([bases[p][0] for p in parities], format="csr")
        assert q_i.shape == (op.dimension,) * 2
        assert basis_defect(q_i) < 1e-14
        scale = abs(g).max()
        rng = np.random.default_rng(0)
        frobenius = 0.0
        for b in parities:
            columns, rows = bases[b]
            block = layout.block(b)
            reference = sp.csr_matrix(rows.T @ (g @ columns))
            assert abs(reference[block.kept] - block.factor).max() <= 1e-15 * scale
            dropped = np.ones(reference.shape[0], dtype=bool)
            dropped[block.kept] = False
            assert abs(reference[dropped]).sum() <= 1e-15 * scale
            assert basis_defect(rows[:, block.kept]) < 1e-14
            v = rng.standard_normal((block.factor.shape[1], 3))
            assert abs(block.columns(v) - columns @ v).max() <= 1e-15 * abs(v).max()
            u = rng.standard_normal((block.factor.shape[0], 3))
            assert abs(block.rows(u) - rows[:, block.kept] @ u).max() <= 1e-15 * abs(u).max()
            frobenius += sparse_norm(block.factor) ** 2
            for c in parities:
                if c != b:
                    coupling = bases[c][1].T @ g @ columns
                    assert abs(coupling).max() <= 1e-13 * scale, (b, c)
        # the blocks hold all of G
        assert frobenius == pytest.approx(sparse_norm(g) ** 2, rel=1e-13)

    @pytest.mark.parametrize("shape,points,l,extents,classes", SPLIT_CASES, ids=SPLIT_IDS)
    def test_copies_are_axis_permutations(self, shape, points, l, extents, classes):
        # each copy's pattern is its representative's with the axes permuted,
        # and the permutation maps G to itself: G[rows][:, cols] == G
        op = build_polyharmonic(box_spec(shape, points, l, extents=extents))
        layout = op.layout
        copies = layout.copies()
        parities = layout.parities()
        assert len(parities) - len(copies) == classes
        g = op.factor
        scale = abs(g).max()
        rng = np.random.default_rng(1)
        for parity, (rep, axes) in copies.items():
            assert rep not in copies
            assert parities.index(rep) < parities.index(parity)
            assert parity == tuple(rep[a] for a in axes)
            assert all(points[a] == points[e] for e, a in enumerate(axes))
            cols, rows = axis_permutation(layout, axes)
            assert abs(g[rows][:, cols] - g).max() <= 1e-14 * scale
            v = rng.standard_normal((g.shape[1], 2))
            assert np.array_equal(layout.permute_columns(v, axes), v[cols])
            u = rng.standard_normal((g.shape[0], 2))
            assert np.array_equal(layout.permute_rows(u, axes), u[rows])

    def test_block_dimensions_add_up(self):
        layout = build_polyharmonic(box_spec("box", (9, 10, 11), 2)).layout
        dims = [layout.block_dimension(p) for p in layout.parities()]
        assert sum(dims) == 9 * 10 * 11
        assert min(dims) == 4 * 5 * 5

    def test_masked_and_hand_built_operators_have_no_layout(self):
        rows = ["1" * 48] * 24 + ["1" * 24 + "0" * 24] * 24
        masked = box_spec("masked-rectangle", (48, 48), 2, mask=rows)
        assert build_polyharmonic(masked).layout is None
        lap = build_laplacian(box_spec("rectangle", (96, 96), 1))
        assert lap.layout is not None
        assert operator_power(lap, 2).layout is None


class TestSplitSolve:
    @pytest.mark.parametrize("shape,points,l,extents,classes", SPLIT_CASES, ids=SPLIT_IDS)
    def test_matches_one_block_within_radii(self, shape, points, l, extents, classes,
                                            block_count, lu_count):
        op = build_polyharmonic(box_spec(shape, points, l, extents=extents))
        # at l = 5 the rounding of the 21^2 solve reaches 6e-8 on one block
        # and 2e-8 split, above the default 1e-8 and its floor gate
        tol = 1e-6 if l == 5 else 1e-8
        split = smallest_eigenpairs(op, 6, tol=tol, seed=2)
        # one block build and one LU per axis-permutation class
        assert len(block_count) == classes
        assert len(lu_count) == classes
        whole = smallest_eigenpairs(one_block(op), 6, tol=tol, seed=2)
        assert len(block_count) == classes
        assert len(lu_count) == classes + 1
        allowed = split.eigenvalues * split.residuals + whole.eigenvalues * whole.residuals
        assert np.all(np.abs(split.eigenvalues - whole.eigenvalues) <= allowed)
        assert np.all(split.residuals <= split.solver_tol)
        assert orthonormality_defect(split) < 1e-10
        for i in range(6):
            assert 0 not in parities_of(split.vectors[:, i], points), i

    @pytest.mark.parametrize("shape,points,l,extents,classes",
                             [SPLIT_CASES[1], SPLIT_CASES[4]],
                             ids=[SPLIT_IDS[1], SPLIT_IDS[4]])
    def test_blocks_that_add_no_pair(self, shape, points, l, extents, classes, block_count):
        # k = 1: every block after the first only loses the merge
        op = build_polyharmonic(box_spec(shape, points, l, extents=extents))
        split = smallest_eigenpairs(op, 1, seed=4)
        assert len(block_count) == classes
        whole = smallest_eigenpairs(one_block(op), 1, seed=4)
        allowed = split.eigenvalues * split.residuals + whole.eigenvalues * whole.residuals
        assert np.all(np.abs(split.eigenvalues - whole.eigenvalues) <= allowed)
        assert parities_of(split.vectors[:, 0], points) == (1,) * len(points)

    @pytest.mark.parametrize("shape,points,l,extents,classes", EQUIVARIANT,
                             ids=EQUIVARIANT_IDS)
    def test_copied_pairs_are_exact_permutations(self, shape, points, l, extents,
                                                 classes, monkeypatch):
        # a copied pair is its representative's pair with v and u permuted
        # exactly, and certified on the whole G to the same radius up to rounding
        op = build_polyharmonic(box_spec(shape, points, l, extents=extents))
        layout = op.layout
        seen = {}
        certify = eigensolve._certify

        def capturing(g, lam, v, u, tol):
            seen.update(lam=lam, v=v, u=u)
            return certify(g, lam, v, u, tol)

        monkeypatch.setattr(eigensolve, "_certify", capturing)
        tol = 1e-6 if l == 5 else 1e-8
        s = smallest_eigenpairs(op, 8, tol=tol, seed=2)
        lam, v, u = seen["lam"], seen["v"], seen["u"]
        patterns = [tuple(p < 0 for p in parities_of(v[:, i], points)) for i in range(8)]
        copies = layout.copies()
        copied = 0
        for j, pattern in enumerate(patterns):
            if pattern not in copies:
                continue
            rep, axes = copies[pattern]
            i = next(i for i in range(j) if patterns[i] == rep and lam[i] == lam[j])
            cols, rows = axis_permutation(layout, axes)
            assert np.array_equal(v[cols, i], v[:, j])
            assert np.array_equal(u[rows, i], u[:, j])
            assert s.residuals[j] == pytest.approx(s.residuals[i], rel=RADIUS_ROUNDING)
            copied += 1
        assert copied >= 2

    def test_double_eigenvalue_lands_in_two_blocks(self):
        spec = box_spec("rectangle", (96, 96), 1)
        s = smallest_eigenpairs(build_laplacian(spec), 3, seed=0)
        assert s.eigenvalues[1] == pytest.approx(s.eigenvalues[2], rel=1e-12)
        assert parities_of(s.vectors[:, 0], (96, 96)) == (1, 1)
        found = {parities_of(s.vectors[:, i], (96, 96)) for i in (1, 2)}
        assert found == {(1, -1), (-1, 1)}

    def test_deterministic(self):
        op = build_polyharmonic(box_spec("rectangle", (48, 48), 2))
        a = smallest_eigenpairs(op, 4, seed=5)
        b = smallest_eigenpairs(op, 4, seed=5)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.residuals, b.residuals)
        assert np.array_equal(a.vectors, b.vectors)

    @pytest.mark.parametrize("shape,points,l,mask", [
        ("masked-rectangle", (48, 48), 2, "L"),
        ("interval", (600,), 2, None),
        ("rectangle", (46, 46), 2, None),        # 2 * sqrt(23 * 23) = 46 < 48
        ("rectangle", (94, 96), 1, None),        # sqrt(47 * 48) < 48
        ("box", (12, 13, 14), 1, None),          # (6 * 6 * 7)^(2/3) < 48
    ], ids=["masked", "1-d", "plate-below", "rect-below", "box-below"])
    def test_no_split_is_bit_identical(self, shape, points, l, mask, block_count):
        rows = None
        if mask == "L":
            half = points[1] // 2
            rows = ["1" * points[1]] * (points[0] // 2) + \
                ["1" * half + "0" * (points[1] - half)] * (points[0] - points[0] // 2)
        op = build_polyharmonic(box_spec(shape, points, l, mask=rows))
        a = smallest_eigenpairs(op, 5, seed=3)
        b = smallest_eigenpairs(one_block(op), 5, seed=3)
        assert block_count == []
        for field in ("eigenvalues", "residuals", "vectors"):
            assert np.array_equal(getattr(a, field), getattr(b, field)), field
        assert a.solver_tol == b.solver_tol

    def test_hand_built_operator_with_spec_takes_one_block(self, block_count):
        # operator_power attaches the Laplacian's spec to another factor;
        # the solver must not read a layout into that spec
        lap = build_laplacian(box_spec("rectangle", (96, 96), 1))
        s = smallest_eigenpairs(operator_power(lap, 2), 3, seed=0)
        assert block_count == []
        base = smallest_eigenpairs(lap, 3, seed=0)
        assert len(block_count) == 3
        assert s.eigenvalues == pytest.approx(base.eigenvalues ** 2, rel=1e-9)

    def test_k_reaching_a_block_dimension_takes_one_block(self, monkeypatch,
                                                          block_count):
        # a low threshold makes a 20 x 20 square split into 10 x 10 blocks
        monkeypatch.setattr(eigensolve, "MIN_BLOCK_SEPARATOR", 1)
        op = build_laplacian(box_spec("rectangle", (20, 20), 1))
        split = smallest_eigenpairs(op, 99, seed=1)
        assert len(block_count) == 3
        block_count.clear()
        a = smallest_eigenpairs(op, 100, seed=1)
        assert block_count == []
        b = smallest_eigenpairs(one_block(op), 100, seed=1)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert split.eigenvalues == pytest.approx(a.eigenvalues[:99], rel=1e-10)

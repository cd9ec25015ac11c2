"""Reflection-parity blocks of box operators and the split eigensolve."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import norm as sparse_norm

from polyspec import eigensolve
from polyspec.eigensolve import smallest_eigenpairs
from polyspec.grids import DomainSpec
from polyspec.operators import (
    BoxLayout,
    DiscreteOperator,
    build_laplacian,
    build_polyharmonic,
)
from references import operator_power, orthonormality_defect, parity_bases

# just above the split threshold: the smallest block's separator
# order * unknowns^((n-1)/n) is at least MIN_BLOCK_SEPARATOR = 48
SPLIT_CASES = [
    ("rectangle", (96, 96), 1),      # 48 x 48 blocks, double eigenvalues
    ("rectangle", (48, 48), 2),
    ("rectangle", (49, 51), 2),      # odd sizes: centre cells on both axes
    ("rectangle", (47, 49), 3),      # odd l: edge rows with flipped parity
    ("box", (14, 15, 16), 1),
    ("rectangle", (25, 26), 4),      # 12 x 13 blocks
    ("rectangle", (21, 21), 5),      # odd l on odd sizes: 10 x 10 blocks
    ("box", (10, 11, 11), 2),        # 5 x 5 x 5 blocks
    ("box", (9, 9, 9), 3),           # 4 x 4 x 4 blocks, exactly at the threshold
]
SPLIT_IDS = ["square-96-l1", "plate-48-l2", "rect-49x51-l2", "rect-47x49-l3",
             "box-14x15x16-l1", "rect-25x26-l4", "square-21-l5", "box-10x11x11-l2",
             "cube-9-l3"]


def box_spec(shape, points, l, mask=None):
    return DomainSpec.with_points(shape, [1.0] * len(points), points, l=l, mask=mask)


def one_block(op):
    """The same factor without the layout: the solver cannot split it."""
    return DiscreteOperator(factor=op.factor, spec=op.spec, order=op.order)


@pytest.fixture
def block_count(monkeypatch):
    """Counts BoxLayout.block calls, i.e. parity blocks the solver built."""
    calls = []
    original = BoxLayout.block

    def counting(self, parity):
        calls.append(parity)
        return original(self, parity)

    monkeypatch.setattr(BoxLayout, "block", counting)
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
    @pytest.mark.parametrize("shape,points,l", SPLIT_CASES, ids=SPLIT_IDS)
    def test_bases_orthonormal_and_blocks_exact(self, shape, points, l):
        # the folded blocks against Q_R^T G Q_I from the Kronecker bases
        op = build_polyharmonic(box_spec(shape, points, l))
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
    @pytest.mark.parametrize("shape,points,l", SPLIT_CASES, ids=SPLIT_IDS)
    def test_matches_one_block_within_radii(self, shape, points, l, block_count):
        op = build_polyharmonic(box_spec(shape, points, l))
        # at l = 5 the rounding of the 21^2 solve reaches 6e-8 on one block
        # and 2e-8 split, above the default 1e-8 and its floor gate
        tol = 1e-6 if l == 5 else 1e-8
        split = smallest_eigenpairs(op, 6, tol=tol, seed=2)
        assert len(block_count) == 2 ** len(points)
        whole = smallest_eigenpairs(one_block(op), 6, tol=tol, seed=2)
        assert len(block_count) == 2 ** len(points)
        allowed = split.eigenvalues * split.residuals + whole.eigenvalues * whole.residuals
        assert np.all(np.abs(split.eigenvalues - whole.eigenvalues) <= allowed)
        assert np.all(split.residuals <= split.solver_tol)
        assert orthonormality_defect(split) < 1e-10
        for i in range(6):
            assert 0 not in parities_of(split.vectors[:, i], points), i

    @pytest.mark.parametrize("shape,points,l", [SPLIT_CASES[1], SPLIT_CASES[4]],
                             ids=[SPLIT_IDS[1], SPLIT_IDS[4]])
    def test_blocks_that_add_no_pair(self, shape, points, l, block_count):
        # k = 1: every block after the first only loses the merge
        op = build_polyharmonic(box_spec(shape, points, l))
        split = smallest_eigenpairs(op, 1, seed=4)
        assert len(block_count) == 2 ** len(points)
        whole = smallest_eigenpairs(one_block(op), 1, seed=4)
        allowed = split.eigenvalues * split.residuals + whole.eigenvalues * whole.residuals
        assert np.all(np.abs(split.eigenvalues - whole.eigenvalues) <= allowed)
        assert parities_of(split.vectors[:, 0], points) == (1,) * len(points)

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
        assert len(block_count) == 4
        assert s.eigenvalues == pytest.approx(base.eigenvalues ** 2, rel=1e-9)

    def test_k_reaching_a_block_dimension_takes_one_block(self, monkeypatch,
                                                          block_count):
        # a low threshold makes a 20 x 20 square split into 10 x 10 blocks
        monkeypatch.setattr(eigensolve, "MIN_BLOCK_SEPARATOR", 1)
        op = build_laplacian(box_spec("rectangle", (20, 20), 1))
        split = smallest_eigenpairs(op, 99, seed=1)
        assert len(block_count) == 4
        block_count.clear()
        a = smallest_eigenpairs(op, 100, seed=1)
        assert block_count == []
        b = smallest_eigenpairs(one_block(op), 100, seed=1)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert split.eigenvalues == pytest.approx(a.eigenvalues[:99], rel=1e-10)

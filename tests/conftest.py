"""Fixtures shared by the test modules."""

import pytest
import scipy.sparse.linalg as spla

from polyspec.operators import BoxLayout


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

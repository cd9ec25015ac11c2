"""Fixtures shared by the test modules."""

import pytest

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

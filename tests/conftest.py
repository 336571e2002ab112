"""Fixtures shared by the tier-1 test modules."""

import pytest

from capfirm import optim


@pytest.fixture
def superlu_only(monkeypatch):
    """Factor every KKT matrix on the wide path, whatever its bandwidth:
    elimination rounds, then SuperLU on the columns they leave.

    An analysis fixes the path of every solve on its pattern, so the held
    analyses are dropped first, and again after the test.
    """
    monkeypatch.setattr(optim, "_RECENT", [])
    monkeypatch.setattr(optim, "_BAND_MAX", -1)

"""Fixtures shared by the tier-1 test modules."""

import pytest

from capfirm import optim


@pytest.fixture
def superlu_only(monkeypatch):
    """Factor every KKT matrix on the wide path, whatever its bandwidth:
    elimination rounds, then SuperLU on the columns they leave.

    The wide path also starts the duals flat at ``max|c|``, so a
    single-scenario problem solved here starts as an S=20 plan does, not
    centred as on its band path. An analysis fixes the path of every solve
    on its pattern, so the held analyses are dropped first, and again after
    the test.
    """
    monkeypatch.setattr(optim, "_RECENT", [])
    monkeypatch.setattr(optim, "_BAND_MAX", -1)

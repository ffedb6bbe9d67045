"""Fixtures shared by several test modules."""

import pytest

import biserial.sweep
from biserial.core import build_table


@pytest.fixture
def swept_tables(monkeypatch):
    """sweep(pres, max_len): every table run_sweep builds, with its caches as left."""
    def sweep(pres, max_len):
        built = []

        def recording_build_table(p):
            built.append(build_table(p))
            return built[-1]

        monkeypatch.setattr(biserial.sweep, "build_table", recording_build_table)
        biserial.sweep.run_sweep(pres, max_len=max_len)
        return built
    return sweep

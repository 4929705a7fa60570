"""Fixtures shared across the test packages."""

import pytest

from repro.simulation import kernel


@pytest.fixture
def born(monkeypatch):
    """Every process constructed from here on, in order."""
    processes = []
    init = kernel.Process.__init__

    def tracked(self, *args, **kwargs):
        init(self, *args, **kwargs)
        processes.append(self)

    monkeypatch.setattr(kernel.Process, "__init__", tracked)
    return processes

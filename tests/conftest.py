"""Fixtures shared by the test modules."""

import pytest


@pytest.fixture
def train_calls(monkeypatch):
    """The stack size of each ``ModelStack.train`` call the test makes, in order."""
    from pada.trainer import ModelStack

    calls, real = [], ModelStack.train

    def counting(self, *args, **kwargs):
        calls.append(len(self.flat))
        return real(self, *args, **kwargs)

    monkeypatch.setattr(ModelStack, "train", counting)
    return calls


@pytest.fixture
def workers(monkeypatch):
    """``workers(n)`` makes ``run_cells`` train in ``n`` blocks at most, as on ``n`` usable CPUs.

    A test that instruments its own process sets 1, so that every block runs there.
    """
    import pada.schedule

    def use(n):
        monkeypatch.setattr(pada.schedule, "_workers", lambda: n)

    return use

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

"""Fixtures shared across test packages."""

import pytest

from repro.sim import Completion


@pytest.fixture
def unheard(monkeypatch):
    """Count the completions that had no listener, and so issued no
    kernel entry: a one-item list, read after the run.

    Trajectory pins recorded when every completion took an entry hold
    ``pinned _eid - _eid`` to include this count.
    """
    count = [0]
    complete = Completion.complete

    def counting(self, env):
        before = env._eid
        complete(self, env)
        if env._eid == before:
            count[0] += 1

    monkeypatch.setattr(Completion, "complete", counting)
    return count

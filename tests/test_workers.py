"""The two-process helper on its own; its callers' tests are in test_cli, test_evaluate and test_thresholds."""

import os
import time

import pytest

from lrdshift import workers


def test_error_here_kills_a_busy_worker(monkeypatch, forks):
    """An exception in this process's item 0, while the worker is still busy
    with item 1, propagates at once as the same object: the worker is
    killed, not waited for."""
    monkeypatch.setattr(workers, "_usable_cpus", lambda: 2)
    parent, error = os.getpid(), ValueError("item 0 failed")

    def compute(item):
        if os.getpid() != parent:
            time.sleep(20)
        elif item == 0:
            raise error
        return b"x"

    start = time.monotonic()
    with pytest.raises(ValueError) as raised:
        workers.in_turns(range(4), compute)
    assert raised.value is error
    assert time.monotonic() - start < 10
    assert len(forks) == 1

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


@pytest.mark.parametrize("cpus", [1, 2], ids=["worker-off", "worker-on"])
def test_ahead_yields_every_item_in_order(monkeypatch, forks, cpus):
    """Every item's bytes, the empty ones included, in item order; the items
    are iterated in one process only."""
    monkeypatch.setattr(workers, "_usable_cpus", lambda: cpus)
    taken = []

    def items():
        for item in range(6):
            taken.append((os.getpid(), item))
            yield item

    assert list(workers.ahead(map(lambda item: bytes([item]) * item, items()))) == [
        bytes([item]) * item for item in range(6)]
    assert taken == ([(os.getpid(), item) for item in range(6)] if cpus == 1 else [])
    assert len(forks) == cpus - 1


def test_closing_ahead_kills_a_busy_worker(monkeypatch, forks):
    """Closing the generator after its first item kills the worker, still busy
    with the second, at once."""
    monkeypatch.setattr(workers, "_usable_cpus", lambda: 2)

    def compute(item):
        if item:
            time.sleep(20)
        return b"x"

    start = time.monotonic()
    items = workers.ahead(map(compute, range(3)))
    assert next(items) == b"x"
    items.close()
    assert time.monotonic() - start < 10
    assert len(forks) == 1


def test_ahead_raises_when_its_worker_fails(monkeypatch, forks):
    """The items the worker sent come first; then its exit code is raised."""
    monkeypatch.setattr(workers, "_usable_cpus", lambda: 2)

    def compute(item):
        if item == 2:
            raise ValueError("item 2 failed")
        return b"x"

    received = []
    with pytest.raises(RuntimeError, match="the worker process exited with code 1"):
        for data in workers.ahead(map(compute, range(4))):
            received.append(data)
    assert received == [b"x", b"x"]
    assert len(forks) == 1

"""Fixtures shared by every test module."""

import os

import pytest


@pytest.fixture(autouse=True)
def threshold_cache(tmp_path, monkeypatch):
    """A fresh, empty threshold cache directory for each test.

    ``XDG_CACHE_HOME`` and ``HOME`` point into the test's ``tmp_path``, so no
    test reads or writes the user's ``~/.cache``, every test starts cold, and
    CLI subprocesses inherit both through ``os.environ``.  Returns the
    directory the cache writes its entries to.
    """
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg-cache"))
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    return tmp_path / "xdg-cache" / "lrdshift"


@pytest.fixture(autouse=True)
def no_child_is_left():
    """After each test, this process has no child left, running or unreaped.

    Every forked worker (see :mod:`lrdshift.workers`) must be reaped before
    the call that forked it returns, on success, on a worker failure and on
    an exception in this process.
    """
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """The list of ``os.fork`` calls made so far, one entry per call."""
    calls = []
    real_fork = os.fork

    def fork():
        calls.append(None)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return calls


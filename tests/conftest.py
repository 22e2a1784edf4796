"""Fixtures shared by every test module."""

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

"""The machine and software a benchmark run measured, read without side effects."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import sys
from pathlib import Path

import numpy as np
import scipy


def _read(path: str | Path) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def _size_bytes(text: str) -> int:
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    if text and text[-1] in units:
        return int(text[:-1]) * units[text[-1]]
    return int(text) if text.isdigit() else 0


def cache_bytes() -> dict[str, int]:
    """Unified or data cache size per level for cpu0, e.g. ``{"L2": 2097152}``."""
    sizes: dict[str, int] = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        if _read(f"{index}/type") in ("Unified", "Data"):
            sizes[f"L{_read(f'{index}/level')}"] = _size_bytes(_read(f"{index}/size"))
    return sizes


def cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def ram_bytes() -> int:
    for line in _read("/proc/meminfo").splitlines():
        if line.startswith("MemTotal:"):
            return int(line.split()[1]) * 1024
    return 0


def blas_threads() -> int | None:
    """OpenBLAS thread count of the numpy in this interpreter, if it can be read."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return None


def git_commit(root: Path) -> str:
    """HEAD of the checkout, or "unknown" where it is not a git repository."""
    head = _read(root / ".git" / "HEAD")
    if head.startswith("ref: "):
        ref = head[5:]
        commit = _read(root / ".git" / ref)
        if not commit:
            for line in _read(root / ".git" / "packed-refs").splitlines():
                if line.endswith(" " + ref):
                    commit = line.split()[0]
        return commit or "unknown"
    return head or "unknown"


def environment(root: Path) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "cache_bytes": cache_bytes(),
        "ram_bytes": ram_bytes(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads_default": blas_threads(),
        "git_commit": git_commit(root),
    }

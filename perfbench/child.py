"""Run the lrdshift CLI in this process, then write this process's peak RSS.

    python3 perfbench/child.py PEAK_FILE -- <lrdshift args>

Does what ``python3 -m lrdshift.cli <args>`` does, then writes ``VmHWM``
from ``/proc/self/status`` (KiB) to PEAK_FILE.  The ``wait4`` rusage of a
child cannot give this number: exec records the high-water mark of the
address space it replaces, and a child started by vfork or fork shares or
copies the benchmark's own pages, so its ``ru_maxrss`` is at least the
benchmark process's peak.
"""

from __future__ import annotations

import runpy
import sys


def peak_kib() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def main() -> None:
    peak_file, separator, *cli_args = sys.argv[1:]
    if separator != "--":
        sys.exit(__doc__)
    sys.argv = [sys.argv[0], *cli_args]
    try:
        runpy.run_module("lrdshift.cli", run_name="__main__", alter_sys=True)
    finally:
        with open(peak_file, "w") as fh:
            fh.write(f"{peak_kib()}\n")


if __name__ == "__main__":
    main()

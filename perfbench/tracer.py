"""Run the lrdshift CLI in this process with spans around each layer's calls.

    python3 perfbench/tracer.py OUT.json time|memory RUN_ID -- <lrdshift args>

The public functions in ``TRACED`` are wrapped by module attribute, in
their own module and wherever another lrdshift module imported them by
name; ``src/`` is not edited.  A name that no longer exists is skipped and
listed in the output, never an error.

``time`` keeps every span (name, start, end, parent, error) in memory and
writes them, with RUN_ID and the time writing began, to OUT.json when the
command returns.  Times come from ``time.perf_counter``, which on Linux is
the system-wide monotonic clock, so the parent can place them against its
own spawn and exit times.
``memory`` runs under ``tracemalloc`` instead and records, per function in
``MEMORY``, the largest allocation peak above the level at entry; it is a
separate process so that ``tracemalloc`` does not inflate the timed spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import tracemalloc

TRACED = [
    "cli.main",
    "cli.read_series",
    "cli.write_pvalue_csv",
    "thresholds.improved_threshold",
    "detect.standardize",
    "detect.detect",
    "detect.expand_levels",
    "detect.pvalue_map",
    "detect.flags_to_intervals",
    "pyramid.build_nowa",
    "pyramid.build_swa",
    "pyramid.StreamState.push",
    "fgn.synthesize_fgn",
    "evaluate.run_experiment",
    "evaluate.inject",
    "evaluate.naive_baseline",
    "evaluate.confusion",
    "evaluate.metrics",
]
MEMORY = [
    "cli.read_series",
    "detect.standardize",
    "pyramid.build_nowa",
    "pyramid.build_swa",
    "detect.detect",
    "detect.pvalue_map",
    "cli.write_pvalue_csv",
]
# Counts taken from a traced call's result: counter name and how to read it.
COUNTERS = {
    "detect.detect": ("detect.flags", lambda result: len(result.flags)),
    "detect.flags_to_intervals": ("detect.intervals", len),
    "evaluate.run_experiment": (
        "evaluate.sims", lambda result: result.config.sets * result.config.sims_per_set),
}


def patch(name: str, make_wrapper) -> bool:
    """Replace ``lrdshift.<name>`` by ``make_wrapper(original)`` everywhere it is bound."""
    module_name, *path = name.split(".")
    try:
        owner = importlib.import_module(f"lrdshift.{module_name}")
    except ModuleNotFoundError:
        return False
    for attr in path[:-1]:
        owner = getattr(owner, attr, None)
    original = getattr(owner, path[-1], None) if owner is not None else None
    if original is None:
        return False
    wrapper = functools.wraps(original)(make_wrapper(original))
    setattr(owner, path[-1], wrapper)
    if len(path) == 1:
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("lrdshift") and \
                    getattr(module, path[-1], None) is original:
                setattr(module, path[-1], wrapper)
    return True


class SpanRecorder:
    """Spans as ``[name, start, end, parent, error]``; parent -1 is none."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack = [-1]
        self.counts: dict[str, int] = {}

    def wrapper_for(self, name: str):
        counter = COUNTERS.get(name)

        def make(original):
            def traced(*args, **kwargs):
                index = len(self.spans)
                span = [name, 0.0, 0.0, self.stack[-1], False]
                self.spans.append(span)
                self.stack.append(index)
                span[1] = time.perf_counter()
                try:
                    result = original(*args, **kwargs)
                except BaseException:
                    span[4] = True
                    raise
                finally:
                    span[2] = time.perf_counter()
                    self.stack.pop()
                if counter is not None:
                    key, read = counter
                    self.counts[key] = self.counts.get(key, 0) + read(result)
                return result

            return traced

        return make

    def report(self) -> dict:
        return {"spans": self.spans, "counts": self.counts}


class PeakRecorder:
    """Per-function ``tracemalloc`` peak above the traced size at entry.

    ``tracemalloc.reset_peak`` is global, so each open call keeps the
    highest peak seen while it was open and hands it to its caller on exit.
    """

    def __init__(self) -> None:
        self.stack: list[list[int]] = []  # [size at entry, highest peak so far]
        self.peaks: dict[str, int] = {}

    def wrapper_for(self, name: str):
        def make(original):
            def traced(*args, **kwargs):
                current, peak = tracemalloc.get_traced_memory()
                if self.stack:
                    self.stack[-1][1] = max(self.stack[-1][1], peak)
                tracemalloc.reset_peak()
                self.stack.append([current, current])
                try:
                    return original(*args, **kwargs)
                finally:
                    entry, highest = self.stack.pop()
                    highest = max(highest, tracemalloc.get_traced_memory()[1])
                    if self.stack:
                        self.stack[-1][1] = max(self.stack[-1][1], highest)
                    self.peaks[name] = max(self.peaks.get(name, 0), highest - entry)

            return traced

        return make

    def report(self) -> dict:
        return {"peak_bytes": self.peaks}


def main(argv: list[str]) -> int:
    out_path, mode, run_id, separator, *cli_args = argv
    if separator != "--" or mode not in ("time", "memory"):
        print(__doc__, file=sys.stderr)
        return 2
    from lrdshift import cli

    recorder = SpanRecorder() if mode == "time" else PeakRecorder()
    names = TRACED if mode == "time" else MEMORY
    skipped = [name for name in names if not patch(name, recorder.wrapper_for(name))]
    if mode == "memory":
        tracemalloc.start()
    code = cli.main(cli_args)
    if mode == "memory":
        tracemalloc.stop()
    report_started = time.perf_counter()
    with open(out_path, "w") as fh:
        json.dump({"run_id": run_id, "mode": mode, "exit_code": code, "skipped": skipped,
                   "report_started": report_started, **recorder.report()}, fh,
                  separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

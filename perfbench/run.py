"""lrdshift benchmark: the real CLI in a child process, one command at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the CLI is started with
``PYTHONPATH=src`` through ``child.py``, which runs ``lrdshift.cli`` as
``python3 -m`` does and also reports the child's own peak RSS.  Inputs are generated
from ``--seed`` by ``inputs.py`` and each command's outputs are checked
against ``oracle.py`` outside the timed window.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``; ``--trace 0`` gives the end-to-end metrics, ``--trace 1`` the
per-layer ones.  A full record of the run (environment, input digests,
every invocation, check details) goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

import envinfo
import inputs
import oracle
from tracer import COUNTERS, MEMORY, TRACED

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "tmp"
OUT = BENCH / "out"

SCALES = 15
SMALL = 2 ** (SCALES - 1)  # the largest window: the smallest valid detect input
# Every command: H = 0.9, base 2, m = 15, alpha = 0.05; --mc-reps keeps its default 10^6.
COMMON = ["--hurst", "0.9", "--scales", str(SCALES), "--base", "2", "--alpha", "0.05"]
SETUP_REPS = 3  # set-up invocations per run; their median is setup_s
MIN_TIMED = 3  # timed invocations per run at least, so that a median exists
TIMEOUT_S = 120.0  # one invocation
BUDGET_S = 150.0  # whole run: no invocation starts after this
# One BLAS thread per command: a child then occupies one core and its time
# does not depend on how the second core of a small machine is shared.
CHILD_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# The reference loop's array: 16 MiB, above L2, fixed for every run.
REFERENCE_VALUES = np.random.default_rng(0).standard_normal(2**21)


def reference_loop() -> float:
    """Seconds this process takes for one fixed pass of interpreter, array and text work.

    The mix of the commands (a Python loop, numpy passes over an array above
    L2, float formatting and parsing) with no lrdshift code, about 0.3 s on
    an idle core: its time moves only with the speed the shared host gives.
    """
    start = time.perf_counter()
    acc = 0.0
    for x in range(150_000):
        acc += (x % 7) * 0.5
    for _ in range(8):
        acc += float(np.cumsum(REFERENCE_VALUES)[-1]) + float(np.abs(REFERENCE_VALUES - acc).max())
    text = "\n".join(map(repr, REFERENCE_VALUES[:100_000].tolist()))
    acc += sum(map(float, text.split("\n")))
    return time.perf_counter() - start


@dataclass
class Invocation:
    kind: str  # "setup" | "timed" | "traced" | "memory"
    wall_s: float
    user_s: float
    sys_s: float
    maxrss_kib: int  # wait4 rusage: at least the benchmark process's own peak
    exit_code: int
    timed_out: bool
    spawn: float  # perf_counter at spawn
    exit: float  # perf_counter at exit
    output_bytes: int = 0
    digest: str = ""
    error: str = ""
    trace_file: str = ""  # tracer.py report, for traced and memory invocations
    peak_rss_kib: int = 0  # the child's own peak (VmHWM) from child.py, for set-up and timed ones

    @property
    def ok(self) -> bool:
        return not self.error


@dataclass
class Command:
    args: list[str]
    stdin: Path | None = None


class Workload:
    name = ""
    samples = 0  # samples one full invocation processes
    samples_per_call = 0  # series length one detect-path call sees
    memory_pass = True

    def prepare(self, seed: int, work: Path) -> dict[str, str]:
        """Write the inputs; return their sha256 digests by file name."""
        raise NotImplementedError

    def command(self, out: Path, small: bool) -> Command:
        raise NotImplementedError

    def check(self, out: Path) -> dict:
        """Compare a full invocation's outputs with the oracle."""
        raise NotImplementedError

    def check_setup(self, out: Path) -> None:
        """Light check of a set-up invocation's outputs."""

    def working_set(self) -> dict[str, int]:
        raise NotImplementedError


def standardized(values: np.ndarray) -> np.ndarray:
    return (values - values.mean()) / values.std(ddof=1)


class DetectLong(Workload):
    """Flags-only nowa detect over a long counter export."""

    name = "detect-long"
    samples = samples_per_call = 2**20

    def prepare(self, seed, work):
        self.series = inputs.as_counter(inputs.shifted_fgn(seed, 1, self.samples))
        self.full, self.small = work / "counters.csv", work / "counters-small.csv"
        return {"counters.csv": inputs.write_counter_csv(self.series, self.full),
                "counters-small.csv": inputs.write_counter_csv(self.series, self.small, SMALL)}

    def command(self, out, small):
        return Command(["detect", "--in", str(self.small if small else self.full), "--column", "2",
                        "--standardize", "sample", "--method", "nowa", *COMMON,
                        "--out-flags", str(out / "flags.json")])

    def check(self, out):
        shift = (self.series.shift_start, self.series.shift_end)
        return oracle.check_flags_json(out / "flags.json", standardized(self.series.values),
                                       "nowa", shift)

    def check_setup(self, out):
        with open(out / "flags.json") as fh:
            json.load(fh)

    def working_set(self):
        return {"input_array": 8 * self.samples, "input_file": self.full.stat().st_size,
                "dense_expansion": 8 * SCALES * self.samples}


class DetectMap(Workload):
    """swa detect with the full p-value map written as CSV."""

    name = "detect-map"
    samples = samples_per_call = 2**16

    def prepare(self, seed, work):
        self.series = inputs.shifted_fgn(seed, 2, self.samples)
        self.full, self.small = work / "series.txt", work / "series-small.txt"
        return {"series.txt": inputs.write_plain(self.series, self.full),
                "series-small.txt": inputs.write_plain(self.series, self.small, SMALL)}

    def command(self, out, small):
        return Command(["detect", "--in", str(self.small if small else self.full), "--method", "swa",
                        *COMMON, "--out-flags", str(out / "flags.json"),
                        "--out-map", str(out / "map.csv")])

    def check(self, out):
        from lrdshift.cli import read_pvalue_csv

        shift = (self.series.shift_start, self.series.shift_end)
        detail = oracle.check_flags_json(out / "flags.json", self.series.values, "swa", shift)
        detail.update(oracle.check_map(out / "map.csv", self.series.values, read_pvalue_csv))
        return detail

    def check_setup(self, out):
        with open(out / "map.csv") as fh:
            oracle.require(fh.readline().startswith("scale,"), "map CSV header")

    def working_set(self):
        return {"input_array": 8 * self.samples, "input_file": self.full.stat().st_size,
                "dense_expansion": 8 * SCALES * self.samples}


class Stream(Workload):
    """Closed-loop stream: stdin is a file, so the pipe never runs dry."""

    name = "stream"
    samples = samples_per_call = 2**18
    memory_pass = False  # none of the MEMORY functions runs on this path

    def prepare(self, seed, work):
        self.series = inputs.shifted_fgn(seed, 3, self.samples)
        self.full, self.small = work / "stream.txt", work / "stream-small.txt"
        return {"stream.txt": inputs.write_plain(self.series, self.full),
                "stream-small.txt": inputs.write_plain(self.series, self.small, SMALL)}

    def command(self, out, small):
        # The family-wise value for this configuration, fixed once: the
        # threshold layer is bypassed on this workload.
        return Command(["stream", *COMMON, "--threshold-value", repr(oracle.REFERENCE_THRESHOLD)],
                       stdin=self.small if small else self.full)

    def check(self, out):
        return oracle.check_stream(out / "stdout", self.series.values, oracle.REFERENCE_THRESHOLD)

    def working_set(self):
        return {"input_file": self.full.stat().st_size, "ring_buffer": 8 * SMALL}


class EvalStudy(Workload):
    """The paper's simulation study; reads no input file."""

    name = "eval-study"
    n = 2**15
    sets, sims = 4, 40
    samples = sets * sims * n
    samples_per_call = n

    def prepare(self, seed, work):
        self.seed = seed
        return {}

    def command(self, out, small):
        sets, sims = (1, 1) if small else (self.sets, self.sims)
        return Command(["eval", "--sets", str(sets), "--sims", str(sims), "--n", str(self.n),
                        *COMMON, "--method", "swa", "--delta", "1",
                        "--start-range", str(2**14), "--duration-mean", "4000",
                        "--seed", str(self.seed), "--out", str(out / "study")])

    def check(self, out):
        return oracle.check_eval(str(out / "study"), self.sets)

    def check_setup(self, out):
        oracle.check_eval(str(out / "study"), 1)

    def working_set(self):
        return {"series_array": 8 * self.n, "dense_expansion": 8 * SCALES * self.n}


WORKLOADS = {w.name: w for w in (DetectLong, DetectMap, Stream, EvalStudy)}
# Shares the layer table predicts, to set against the traced ones.
PREDICTED_SHARES = {
    workload: (entry["metric"], entry["predicted"])
    for workload, entry in json.loads((BENCH / "layers.json").read_text())["predicted_shares"].items()
}


def end_to_end_units() -> dict[str, str]:
    return {"samples_per_ref": "samples/ref", "setup_s": "s", "peak_rss_mb": "MiB"}


def per_layer_units() -> dict[str, str]:
    units: dict[str, str] = {}
    for name in TRACED:
        units.update({f"{name}.self_s": "s", f"{name}.calls": "count", f"{name}.errors": "count"})
    units.update({f"{name}.peak_bytes_per_sample": "B/sample" for name in MEMORY})
    units.update({"pyramid.StreamState.push.p50_us": "us", "pyramid.StreamState.push.p99_us": "us",
                  "cli.output_bytes": "B"})
    units.update({key: "count" for key, _ in COUNTERS.values()})
    units.update({key: "share" for key, _ in PREDICTED_SHARES.values()})
    units.update({"trace.overhead_s": "s", "trace.root_s": "s", "trace.gap_s": "s",
                  "trace.startup_s": "s", "trace.report_s": "s"})
    return units


class Runner:
    """One benchmark run of one workload: inputs, invocations, checks, record."""

    def __init__(self, workload: Workload, seed: int, seconds: int, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.started = time.perf_counter()
        self.work = WORK / f"{workload.name}-s{seed}-p{os.getpid()}"
        self.invocations: list[Invocation] = []
        self.checks: dict = {}
        self.reference_digest = ""
        self.reference_out: Path | None = None

    # -- child processes -------------------------------------------------

    def env(self, tmp: Path) -> dict[str, str]:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        # Bytecode is cached next to the sources, as in an installed package;
        # the warm-up call writes it once per checkout.
        for key in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX"):
            env.pop(key, None)
        env.update(CHILD_THREADS)
        for key in ("TMPDIR", "TEMP", "TMP"):
            env[key] = str(tmp)
        env["XDG_CACHE_HOME"] = str(tmp / "cache")
        return env

    def remaining(self) -> float:
        return BUDGET_S - (time.perf_counter() - self.started)

    def spawn(self, kind: str, argv: list[str], command: Command, out: Path, tmp: Path) -> Invocation:
        """Run one child to completion; wall time from spawn to exit, rusage from wait4."""
        out.mkdir(parents=True)
        (tmp / "cache").mkdir(parents=True, exist_ok=True)
        timed_out = False
        with open(command.stdin or os.devnull, "rb") as stdin, \
                open(out / "stdout", "wb") as stdout, open(out.parent / f"{out.name}.err", "wb") as err:
            spawn = time.perf_counter()
            proc = subprocess.Popen(argv, stdin=stdin, stdout=stdout, stderr=err,
                                    env=self.env(tmp), cwd=self.work)

            def on_alarm(signum, frame):
                nonlocal timed_out
                timed_out = True
                proc.kill()

            previous = signal.signal(signal.SIGALRM, on_alarm)
            signal.setitimer(signal.ITIMER_REAL, max(1.0, min(TIMEOUT_S, self.remaining() + 25.0)))
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            end = time.perf_counter()
            proc.returncode = os.waitstatus_to_exitcode(status)
        inv = Invocation(kind, end - spawn, usage.ru_utime, usage.ru_stime, usage.ru_maxrss,
                         proc.returncode, timed_out, spawn, end)
        if timed_out:
            inv.error = "timed out"
        elif proc.returncode != 0:
            tail = (out.parent / f"{out.name}.err").read_text(errors="replace")[-400:]
            inv.error = f"exit code {proc.returncode}: {tail.strip()}"
        self.invocations.append(inv)
        return inv

    def cli(self, kind: str, small: bool = False, tmp: Path | None = None) -> tuple[Invocation, Path]:
        index = len(self.invocations)
        out = self.work / f"{index:03d}-{kind}"
        command = self.workload.command(out, small)
        trace_file = ""
        if kind in ("traced", "memory"):
            mode = "time" if kind == "traced" else "memory"
            run_id = f"{self.workload.name}-s{self.seed}-p{os.getpid()}-{index}"
            trace_file = str(self.work / f"{index:03d}-trace.json")
            argv = [sys.executable, str(BENCH / "tracer.py"), trace_file, mode, run_id, "--",
                    *command.args]
        else:
            peak_file = self.work / f"{index:03d}-peak"
            argv = [sys.executable, str(BENCH / "child.py"), str(peak_file), "--", *command.args]
        inv = self.spawn(kind, argv, command, out, tmp or self.work / "tmp")
        inv.trace_file = trace_file
        if not trace_file and inv.ok:
            try:
                inv.peak_rss_kib = int(peak_file.read_text())
            except (OSError, ValueError) as exc:
                inv.error = f"no peak RSS from child.py: {exc}"
        return inv, out

    # -- outputs ---------------------------------------------------------

    def digest_outputs(self, inv: Invocation, out: Path) -> None:
        digest = hashlib.sha256()
        for path in sorted(out.iterdir()):
            data = path.read_bytes()
            inv.output_bytes += len(data)
            digest.update(path.name.encode() + b"\0" + data)
        inv.digest = digest.hexdigest()

    def keep_or_compare(self, inv: Invocation, out: Path) -> None:
        """Keep the first good full output for the oracle; later ones must be byte-identical."""
        if inv.ok:
            self.digest_outputs(inv, out)
            if not self.reference_digest:
                self.reference_digest, self.reference_out = inv.digest, out
                return
            if inv.digest != self.reference_digest:
                inv.error = "outputs differ from the first outputs of the same command"
        shutil.rmtree(out)

    def check_reference(self) -> None:
        """Oracle check of the kept output, after timing; on failure every
        invocation that produced those bytes failed."""
        if not self.reference_digest:
            return
        try:
            self.checks = self.workload.check(self.reference_out)
        except (oracle.CheckFailed, OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            for inv in self.invocations:
                if inv.digest == self.reference_digest:
                    inv.error = f"output check failed: {exc}"

    def setup(self) -> list[float]:
        walls = []
        for rep in range(SETUP_REPS):
            tmp = self.work / f"setup-tmp-{rep}"
            inv, out = self.cli("setup", small=True, tmp=tmp)
            if inv.ok:
                try:
                    self.workload.check_setup(out)
                except (oracle.CheckFailed, OSError, ValueError, KeyError, IndexError) as exc:
                    inv.error = f"set-up output check failed: {exc}"
            walls.append(inv.wall_s)
            shutil.rmtree(tmp)
        return walls

    # -- runs ------------------------------------------------------------

    def run(self) -> dict:
        shutil.rmtree(self.work, ignore_errors=True)
        (self.work / "tmp").mkdir(parents=True)
        try:
            digests = self.workload.prepare(self.seed, self.work)
            warm = subprocess.run([sys.executable, "-m", "lrdshift.cli", "--help"], cwd=self.work,
                                  env=self.env(self.work / "tmp"), capture_output=True, timeout=TIMEOUT_S)
            if warm.returncode != 0:
                raise SystemExit(f"error: the lrdshift CLI does not start: {warm.stderr.decode()[-400:]}")
            metrics, extra = self.traced_run() if self.trace else self.timed_run()
            record = self.record(digests, metrics, extra)
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
        return record

    def more(self, done: list[Invocation], deadline: float, at_least: int) -> bool:
        """Start another invocation while it would end nearer the deadline than not."""
        if self.remaining() <= 0:
            return False
        if len(done) < at_least:
            return True
        typical = statistics.median(inv.wall_s for inv in done)
        return time.perf_counter() + typical / 2 < deadline

    def timed_run(self) -> tuple[dict, dict]:
        setup_walls = self.setup()
        deadline = time.perf_counter() + self.seconds
        timed: list[Invocation] = []
        # The reference loop runs before the first invocation and after each one.
        references = [reference_loop()]
        while self.more(timed, deadline, MIN_TIMED):
            inv, out = self.cli("timed")
            references.append(reference_loop())
            self.keep_or_compare(inv, out)
            timed.append(inv)
        self.check_reference()
        good = [inv for inv in timed if inv.ok]
        samples = self.workload.samples
        # Samples per reference-loop time: the run's samples over its summed
        # wall time, times the run's mean reference time.  A slow phase of the
        # shared host stretches both, so their product moves with the command.
        busy = sum(inv.wall_s for inv in good)
        metrics = {
            "samples_per_ref": samples * len(good) / busy * statistics.fmean(references) if good else 0.0,
            "setup_s": statistics.median(setup_walls),
            "peak_rss_mb": statistics.median(inv.peak_rss_kib / 1024.0 for inv in good) if good else 0.0,
        }
        extra = {
            "samples_per_s": statistics.median(samples / inv.wall_s for inv in good) if good else 0.0,
            "reference_s": references,
        }
        return metrics, extra

    def traced_run(self) -> tuple[dict, dict]:
        deadline = time.perf_counter() + self.seconds
        plain: list[Invocation] = []
        traced: list[Invocation] = []
        while self.more(traced, deadline, 1):
            for kind, done in (("timed", plain), ("traced", traced)):
                inv, out = self.cli(kind)
                self.keep_or_compare(inv, out)
                done.append(inv)
        memory = None
        if self.workload.memory_pass and self.remaining() > 0:
            memory, out = self.cli("memory")
            self.keep_or_compare(memory, out)
        self.check_reference()
        peaks = json.loads(Path(memory.trace_file).read_text())["peak_bytes"] if memory and memory.ok else {}
        return self.layer_metrics(plain, traced, peaks)

    def layer_metrics(self, plain, traced, peaks) -> tuple[dict, dict]:
        per_run = []
        skipped: set[str] = set()
        for inv in traced:
            if not inv.ok:
                continue
            try:
                report = json.loads(Path(inv.trace_file).read_text())
                per_run.append(summarize_spans(report, inv))
            except (OSError, ValueError, KeyError, oracle.CheckFailed) as exc:
                inv.error = f"trace check failed: {exc}"
                continue
            skipped.update(report["skipped"])
        metrics = {name: 0.0 for name in per_layer_units()}
        if per_run:
            for name in metrics:
                values = [run[name] for run in per_run if name in run]
                if values:
                    metrics[name] = statistics.median(values)
            good_plain = [inv.wall_s for inv in plain if inv.ok]
            good_traced = [inv.wall_s for inv in traced if inv.ok]
            if good_plain:
                metrics["trace.overhead_s"] = statistics.median(good_traced) - statistics.median(good_plain)
        for name, peak in peaks.items():
            metrics[f"{name}.peak_bytes_per_sample"] = peak / self.workload.samples_per_call
        key, predicted = PREDICTED_SHARES[self.workload.name]
        extra = {
            "skipped_names": sorted(skipped),
            "predicted_share": {"metric": key, "predicted": predicted, "traced": metrics[key],
                                "difference": metrics[key] - predicted},
        }
        return metrics, extra

    def record(self, digests: dict, metrics: dict, extra: dict) -> dict:
        env = {**envinfo.environment(ROOT), "child_thread_env": CHILD_THREADS}
        working_set = self.workload.working_set()
        caches = env["cache_bytes"]
        attempted = len(self.invocations)
        failed = sum(not inv.ok for inv in self.invocations)
        return {
            "workload": self.workload.name,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": int(self.trace),
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "error_rate": failed / attempted if attempted else 1.0,
            "metrics": metrics,
            "env": env,
            "working_set_bytes": working_set,
            "working_set_vs_cache": {f"{name}/{level}": size / cache_size
                                     for name, size in working_set.items()
                                     for level, cache_size in caches.items()
                                     if level in ("L2", "L3") and cache_size},
            "input_sha256": digests,
            "checks": self.checks,
            "invocations": [asdict(inv) for inv in self.invocations],
            **extra,
        }


def summarize_spans(report: dict, inv: Invocation) -> dict[str, float]:
    """Per-layer numbers of one traced invocation; self times must add up to the root."""
    spans = report["spans"]
    oracle.require(bool(spans) and spans[0][0] == "cli.main" and spans[0][3] == -1,
                   "the first span is not the root cli.main")
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, float] = {}
    for name in TRACED:
        out.update({f"{name}.self_s": 0.0, f"{name}.calls": 0, f"{name}.errors": 0})
    pushes = []
    for (name, start, end, parent, error), children in zip(spans, child_time):
        out[f"{name}.self_s"] += end - start - children
        out[f"{name}.calls"] += 1
        out[f"{name}.errors"] += int(error)
        if name == "pyramid.StreamState.push":
            pushes.append(end - start)
    _, root_start, root_end, _, _ = spans[0]
    root = root_end - root_start
    total_self = sum(out[f"{name}.self_s"] for name in TRACED)
    oracle.require(abs(total_self - root) <= 1e-6 * max(root, 1.0) and
                   sum(parent == -1 for *_, parent, _ in spans) == 1,
                   f"span self times sum to {total_self}, root is {root}")
    for key, _ in COUNTERS.values():
        out[key] = report["counts"].get(key, 0)
    if pushes:
        p50, p99 = np.percentile(pushes, [50, 99])
        out["pyramid.StreamState.push.p50_us"] = p50 * 1e6
        out["pyramid.StreamState.push.p99_us"] = p99 * 1e6
    out["cli.output_bytes"] = inv.output_bytes
    out["trace.root_s"] = root
    out["trace.gap_s"] = inv.wall_s - root
    out["trace.startup_s"] = root_start - inv.spawn
    out["trace.report_s"] = inv.exit - report["report_started"]
    # Shares of the command's wall time, leaving out the writing of the spans.
    wall = report["report_started"] - inv.spawn
    for key in ("cli.read_series.wall_share", "cli.write_pvalue_csv.wall_share",
                "pyramid.StreamState.push.wall_share"):
        out[key] = out[key.replace("wall_share", "self_s")] / wall
    study = [(s, e) for name, s, e, _, _ in spans if name == "evaluate.run_experiment"]
    calibration = sum(e - s for name, s, e, parent, _ in spans
                      if name == "thresholds.improved_threshold" and parent >= 0
                      and spans[parent][0] == "evaluate.run_experiment")
    sim_time = sum(e - s for s, e in study) - calibration
    out["fgn.synthesize_fgn.sim_share"] = out["fgn.synthesize_fgn.self_s"] / sim_time if sim_time > 0 else 0.0
    return out


def result_line(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> str:
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": {name: {"value": value, "unit": units[name]}
                                   for name, value in metrics.items()}})


def print_summary(record: dict, units: dict) -> None:
    print(f"{record['workload']} seed={record['seed']} trace={record['trace']}: "
          f"{record['attempted']} invocations, {record['failed']} failed")
    for name, value in record["metrics"].items():
        print(f"  {name:48s} {value:16.6g} {units[name]}")
    if not record["trace"]:
        print(f"  {'samples_per_s':48s} {record['samples_per_s']:16.6g} samples/s "
              f"(not normalized by the reference loop)")
    print(f"  {'error_rate':48s} {record['error_rate']:16.6g} share "
          f"({record['failed']}/{record['attempted']})")
    if record["trace"]:
        share = record["predicted_share"]
        print(f"  {share['metric']}: predicted {share['predicted']:.3f}, traced "
              f"{share['traced']:.3f}, difference {share['difference']:+.3f}")
        if record["skipped_names"]:
            print(f"  skipped (not found): {', '.join(record['skipped_names'])}")
    for inv in record["invocations"]:
        if inv["error"]:
            print(f"  failed {inv['kind']}: {inv['error']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lrdshift" / "cli.py").is_file():
        print(f"error: no lrdshift sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    units = per_layer_units() if args.trace else end_to_end_units()
    records = []
    OUT.mkdir(exist_ok=True)
    for name in names:
        record = Runner(WORKLOADS[name](), args.seed, args.seconds, bool(args.trace)).run()
        path = OUT / f"BENCH_{name}_seed{args.seed}_trace{args.trace}.json"
        path.write_text(json.dumps(record, indent=1) + "\n")
        print_summary(record, units)
        print(f"  record: {path.relative_to(ROOT)}")
        records.append(record)
    correct = all(r["correct"] for r in records)
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    if len(records) == 1:
        print(result_line(correct, attempted, failed, records[0]["metrics"], units))
    else:
        print(result_line(correct, attempted, failed,
                          {f"{r['workload']}/{k}": v for r in records for k, v in r["metrics"].items()},
                          {f"{r['workload']}/{k}": units[k] for r in records for k in r["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

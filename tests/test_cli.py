"""CLI behavior: formats, exit codes, determinism, stream protocol."""

import gzip
import importlib
import io
import itertools
import json
import os
import pickle
import subprocess
import sys
import threading
import tracemalloc
import urllib.request
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lrdshift import (
    LrdModel, Pyramid, ScaleConfig, DetectionConfig, build_nowa, build_swa, detect,
    estimate_hurst, synthesize_fgn,
)
import lrdshift.evaluate as evaluate_module
import lrdshift.pyramid as pyramid_module
from lrdshift import cli as cli_module
from lrdshift import workers
from lrdshift.detect import DetectionResult, Interval, level_rows, two_sided_pvalues
from lrdshift.cli import (
    _SHORT_BLOCK, _SLICE, _STREAM_READ, _flags_json_pieces, _load_series, _parse_lines, main,
    read_pvalue_csv, read_series, write_pvalue_csv, write_series,
)
from oracles import expand_levels, pvalue_map_per_cell, stream_per_line, write_pvalue_csv_per_cell


def run(argv):
    return main(argv)


def dense(statistics):
    """The rows of a dense (M, n) map of statistics as ``write_pvalue_csv`` takes them."""
    return [(0, 1, row) for row in statistics]


def pvalues_of(statistics):
    """The map's p-values of ``statistics`` by scipy: ``2 ndtr(-|Y|)``, NaN kept."""
    from scipy.special import ndtr

    return 2.0 * ndtr(-np.abs(statistics))


# Statistics whose p-values take ``repr``: 0 (40), a subnormal (37.6 gives
# 2.1e-309; ``exp`` underflows before 5e-324 is reached), one below 1e-30
# (12 gives 3.6e-33) and 1, a power of two (0).
ZERO, SUBNORMAL, BELOW_1E30, ONE = 40.0, 37.6, 12.0, 0.0


def has_subnormal(pvalues) -> bool:
    return bool(((0.0 < pvalues) & (pvalues < np.finfo(float).tiny)).any())


def refuse_threshold(*args):
    raise AssertionError("threshold computed before the usage check")


# Moments that are missing, or would map every sample to 0 or NaN and so
# switch detection off, with the message each must produce.
MOMENT_ERRORS = [
    (["--mean", "5.0"], "--mean and --std must be given together"),
    (["--mean", "5.0", "--std", "0"], "--std must be positive"),
    (["--mean", "0", "--std", "inf"], "--std must be positive and finite"),
    (["--mean", "nan", "--std", "1"], "--mean must be finite"),
]


# Imports the CLI, runs it on argv and stdin, and prints its exit code, the
# scipy modules loaded after the import and after the run, and every module
# loaded after the run, as the last stdout line.
SCIPY_PROBE = """
import json, sys
def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
from lrdshift.cli import main
after_import = scipy_modules()
code = main(sys.argv[1:])
print(json.dumps({"code": code, "after_import": after_import, "after_run": scipy_modules(),
                  "modules": sorted(sys.modules)}))
"""


# Refuses every import of scipy, then runs the CLI once per (argv, stdin)
# pair of the JSON list in argv[1], and prints the exit codes and the
# refused imports as the last stdout line.
NO_SCIPY_PROBE = """
import importlib.abc, io, json, sys
refused = []
class RefuseScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            refused.append(name)
            raise ImportError(name + " is refused")
        return None
sys.meta_path.insert(0, RefuseScipy())
from lrdshift.cli import main
codes = []
for argv, stdin in json.loads(sys.argv[1]):
    sys.stdin = io.StringIO(stdin)
    codes.append(main(argv))
print(json.dumps({"codes": codes, "refused": refused}))
"""


# Runs the CLI on argv[2:] with ``workers._usable_cpus`` returning argv[1]
# (1: no worker; 2: a worker, however many CPUs the host has) and memory
# traced, and prints its exit code, the traced peak in bytes and the number
# of forks as the last stdout line.
STREAM_PROBE = """
import os, sys, tracemalloc
from lrdshift import workers
from lrdshift.cli import main
workers._usable_cpus = lambda: int(sys.argv[1])
forks, fork = [], os.fork
def counted_fork():
    forks.append(None)
    return fork()
os.fork = counted_fork
tracemalloc.start()
code = main(sys.argv[2:])
print(code, tracemalloc.get_traced_memory()[1], len(forks))
"""


def lrdshift_env(**extra):
    """``os.environ`` with lrdshift importable, updated by ``extra``."""
    src = Path(importlib.import_module("lrdshift").__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **extra}


def python_with_lrdshift(code, *argv, stdin=""):
    """Runs ``python -c code *argv`` with lrdshift importable; returns the completed process."""
    return subprocess.run([sys.executable, "-c", code, *argv], input=stdin, capture_output=True,
                          text=True, env=lrdshift_env(), timeout=120)


def run_probe(argv, stdin=""):
    """Runs SCIPY_PROBE in a fresh interpreter; returns (stdout lines before the probe, probe)."""
    completed = python_with_lrdshift(SCIPY_PROBE, *argv, stdin=stdin)
    assert completed.returncode == 0, completed.stderr
    assert completed.stderr == ""
    *lines, probe = completed.stdout.splitlines()
    return lines, json.loads(probe)


def stream_probe(cpus, argv, stdin: bytes, **env):
    """Runs STREAM_PROBE with ``cpus`` on ``argv`` and ``stdin``; returns (stdout before the
    probe line, stderr, (exit code, traced peak, forks))."""
    completed = subprocess.run([sys.executable, "-c", STREAM_PROBE, str(cpus), *argv], input=stdin,
                               capture_output=True, env=lrdshift_env(**env), timeout=120)
    head, newline, probe = completed.stdout.removesuffix(b"\n").rpartition(b"\n")
    return head + newline, completed.stderr, tuple(map(int, probe.split()))


@pytest.fixture
def spiked_series(tmp_path):
    """A unit background with a +9 spike at position 300 (1-based)."""
    x = synthesize_fgn(LrdModel(0.9), 1024, seed=88)
    x[299] += 9.0
    path = tmp_path / "spiked.txt"
    path.write_text("".join(repr(float(v)) + "\n" for v in x))
    return path, x


class TestSynth:
    def test_writes_n_lines_deterministically(self, tmp_path):
        out = tmp_path / "a.txt"
        assert run(["synth", "--hurst", "0.9", "--n", "256", "--seed", "7", "--out", str(out)]) == 0
        first = out.read_bytes()
        assert len(first.splitlines()) == 256
        assert run(["synth", "--hurst", "0.9", "--n", "256", "--seed", "7", "--out", str(out)]) == 0
        assert out.read_bytes() == first

    def test_full_precision_round_trip(self, tmp_path):
        out = tmp_path / "a.txt"
        run(["synth", "--hurst", "0.7", "--n", "32", "--seed", "1", "--out", str(out)])
        written = read_series(out)
        direct = synthesize_fgn(LrdModel(0.7), 32, seed=1)
        assert np.array_equal(written, direct)

    def test_invalid_hurst_exits_2_and_names_the_flag(self, tmp_path, capsys):
        code = run(["synth", "--hurst", "1.2", "--n", "8", "--out", str(tmp_path / "x")])
        assert code == 2
        assert "hurst" in capsys.readouterr().err

    def test_zero_length_exits_2(self, tmp_path):
        assert run(["synth", "--hurst", "0.5", "--n", "0", "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("sigma", ["inf", "nan"])
    def test_non_finite_sigma_exits_2_and_names_the_flag(self, tmp_path, capsys, sigma):
        code = run(["synth", "--hurst", "0.5", "--sigma", sigma, "--n", "8", "--out", str(tmp_path / "x")])
        assert code == 2
        assert capsys.readouterr().err == f"error: sigma must be positive and finite, got {sigma}\n"
        assert not list(tmp_path.iterdir())

    def test_unwritable_path_exits_1(self):
        assert run(["synth", "--hurst", "0.5", "--n", "8", "--out", "/nonexistent/dir/x"]) == 1


class TestDetectCommand:
    def detect_args(self, inp, flags, extra=()):
        return [
            "detect", "--in", str(inp), "--hurst", "0.9", "--scales", "6",
            "--alpha", "0.05", "--threshold", "asymptotic",
            "--out-flags", str(flags), *extra,
        ]

    def test_spike_is_flagged_with_schema(self, tmp_path, spiked_series):
        inp, _ = spiked_series
        flags_path = tmp_path / "flags.json"
        assert run(self.detect_args(inp, flags_path)) == 0
        payload = json.loads(flags_path.read_text())
        assert {"alpha", "threshold", "scales", "intervals", "flagged_indices"} <= set(payload)
        assert 300 in payload["flagged_indices"]
        assert any(iv["start"] <= 300 < iv["end"] for iv in payload["intervals"])

    def test_map_csv_layout(self, tmp_path, spiked_series):
        inp, _ = spiked_series
        map_path = tmp_path / "map.csv"
        run(self.detect_args(inp, tmp_path / "f.json",
                             extra=["--out-map", str(map_path), "--method", "swa"]))
        pvalues, labels = read_pvalue_csv(map_path)
        assert pvalues.shape == (6, 1024)
        assert labels[0] == 1 and labels[-1] == 1024
        header = map_path.read_text().splitlines()[0]
        assert header.startswith("scale,1,2,")
        # warm-up cells at the coarsest sliding scale are empty, not numbers
        assert np.isnan(pvalues[5, :31]).all() and not np.isnan(pvalues[5, 31:]).any()

    def test_detect_matches_library(self, tmp_path, spiked_series):
        inp, x = spiked_series
        flags_path = tmp_path / "flags.json"
        run(self.detect_args(inp, flags_path, extra=["--method", "swa"]))
        payload = json.loads(flags_path.read_text())
        from lrdshift import asymptotic_threshold

        config = DetectionConfig(
            scale_config=ScaleConfig(base=2, num_scales=6, hurst=0.9),
            threshold=asymptotic_threshold(0.05, 6).value,
            method="swa",
        )
        expected = detect(x, config).flags
        assert payload["flagged_indices"] == [int(i) for i in expected]

    @pytest.mark.parametrize("method", ["nowa", "swa"])
    @pytest.mark.parametrize("extra,moments", [
        (["--standardize", "sample"], None),
        (["--mean", "0.5", "--std", "0.5"], (0.5, 0.5)),
        (["--standardize", "sample", "--mean", "0.5", "--std", "0.5"], (0.5, 0.5)),
    ])
    def test_standardizing_flags_match_library(self, tmp_path, spiked_series, method, extra, moments):
        """--standardize sample tests (x - mean) / std(ddof=1); --mean M --std S
        tests (x - M) / S and wins over --standardize sample."""
        inp, x = spiked_series
        flags_path = tmp_path / "flags.json"
        assert run(self.detect_args(inp, flags_path, extra=["--method", method, *extra])) == 0
        from lrdshift import asymptotic_threshold

        config = DetectionConfig(
            scale_config=ScaleConfig(base=2, num_scales=6, hurst=0.9),
            threshold=asymptotic_threshold(0.05, 6).value,
            method=method,
        )
        mean, std = (x.mean(), x.std(ddof=1)) if moments is None else moments
        expected = detect((x - mean) / std, config).flags
        assert not np.array_equal(expected, detect(x, config).flags)
        assert json.loads(flags_path.read_text())["flagged_indices"] == [int(i) for i in expected]

    @pytest.mark.parametrize("extra,message", MOMENT_ERRORS)
    def test_moment_errors_precede_the_threshold(self, tmp_path, spiked_series, monkeypatch,
                                                 capsys, extra, message):
        monkeypatch.setattr("lrdshift.cli.compute_threshold", refuse_threshold)
        inp, _ = spiked_series
        code = run(["detect", "--in", str(inp), "--hurst", "0.9", "--scales", "6",
                    "--out-flags", str(tmp_path / "f.json"), *extra])
        assert code == 2
        assert message in capsys.readouterr().err

    def test_threshold_value_reuses_a_computed_threshold(self, tmp_path, spiked_series, capsys):
        """A value printed by `lrdshift threshold` and passed back as
        --threshold-value gives the flags and intervals of the Monte-Carlo run."""
        inp, _ = spiked_series
        calibration = ["--hurst", "0.9", "--scales", "6", "--mc-reps", "30000", "--seed", "3"]
        assert run(["threshold", *calibration]) == 0
        value = json.loads(capsys.readouterr().out)["value"]
        common = ["detect", "--in", str(inp), "--method", "swa", "--gap-tolerance", "2"]
        computed, given = tmp_path / "computed.json", tmp_path / "given.json"
        assert run([*common, *calibration, "--out-flags", str(computed)]) == 0
        assert run([*common, "--hurst", "0.9", "--scales", "6", "--threshold-value", repr(value),
                    "--out-flags", str(given)]) == 0
        computed, given = json.loads(computed.read_text()), json.loads(given.read_text())
        assert computed["threshold_kind"] == "monte_carlo" and computed["threshold"] == value
        assert given["flagged_indices"] == computed["flagged_indices"] != []
        assert given["intervals"] == computed["intervals"]
        assert (given["threshold"], given["threshold_kind"], given["threshold_se"]) == (value, "given", 0.0)

    @pytest.mark.parametrize("value", ["inf", "0", "nan"])
    def test_bad_threshold_value_exits_2_before_reading(self, tmp_path, spiked_series, monkeypatch,
                                                        capsys, value):
        def refuse_read(*args):
            raise AssertionError("input read before the usage check")

        monkeypatch.setattr("lrdshift.cli.read_series", refuse_read)
        monkeypatch.setattr("lrdshift.cli.compute_threshold", refuse_threshold)
        inp, _ = spiked_series
        code = run(["detect", "--in", str(inp), "--hurst", "0.9", "--scales", "6",
                    "--threshold-value", value, "--out-flags", str(tmp_path / "f.json")])
        assert code == 2
        assert "--threshold-value must be positive and finite" in capsys.readouterr().err

    def test_negative_gap_tolerance_exits_2_before_reading(self, tmp_path, spiked_series,
                                                          monkeypatch, capsys):
        def refuse_read(*args):
            raise AssertionError("input read before the usage check")

        monkeypatch.setattr("lrdshift.cli.read_series", refuse_read)
        monkeypatch.setattr("lrdshift.cli.compute_threshold", refuse_threshold)
        inp, _ = spiked_series
        code = run(["detect", "--in", str(inp), "--hurst", "0.9", "--scales", "6",
                    "--gap-tolerance", "-1", "--out-flags", str(tmp_path / "f.json")])
        assert code == 2
        assert "--gap-tolerance must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["nowa", "swa"])
    @pytest.mark.parametrize("base,scales", [("2", "6"), ("3", "5")])
    def test_map_bytes_match_per_cell_writer(self, tmp_path, method, base, scales):
        """--out-map writes the bytes of the per-cell writer; n = 1000 leaves
        a trailing partial block at the largest window in both bases."""
        x = synthesize_fgn(LrdModel(0.9), 1000, seed=12)
        inp = tmp_path / "x.txt"
        inp.write_text("".join(repr(float(v)) + "\n" for v in x))
        map_path, expected = tmp_path / "map.csv", tmp_path / "expected.csv"
        assert run(["detect", "--in", str(inp), "--hurst", "0.9", "--scales", scales, "--base", base,
                    "--method", method, "--threshold", "asymptotic",
                    "--out-flags", str(tmp_path / "f.json"), "--out-map", str(map_path)]) == 0
        build = build_nowa if method == "nowa" else build_swa
        pyramid = build(x, ScaleConfig(base=int(base), num_scales=int(scales), hurst=0.9))
        write_pvalue_csv_per_cell(expected, pvalue_map_per_cell(pyramid))
        assert map_path.read_bytes() == expected.read_bytes()
        assert b",," in expected.read_bytes()  # the case includes absent cells

    def test_map_is_written_in_bounded_memory(self, tmp_path):
        """An M = 15, n = 2^16 map written row by row from its pyramid holds
        one row and its text, not the (M, n) matrix (7.5 MiB) and its temporaries."""
        pyramid = build_swa(np.random.default_rng(0).standard_normal(1 << 16), ScaleConfig(2, 15, 0.9))
        tracemalloc.start()
        try:
            write_pvalue_csv(tmp_path / "map.csv", level_rows(pyramid))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20, f"{peak / 2**20:.1f} MiB"

    @pytest.mark.parametrize("method", ["nowa", "swa"])
    def test_flags_only_detect_runs_in_bounded_memory(self, monkeypatch, method):
        """A flags-only detect at n = 2^20 and 15 scales holds the statistic
        and one block's buffers, under 1.5 x the series (8n bytes) of traced
        memory, and builds no pyramid.  Building the whole pyramid took 3x
        the series in nowa and 16x in swa."""
        n = 1 << 20
        x = np.random.default_rng(0).standard_normal(n)
        built, build = [], pyramid_module._build

        def counted_build(method, series, config):
            built.append(method)
            return build(method, series, config)

        monkeypatch.setattr(pyramid_module, "_build", counted_build)
        tracemalloc.start()
        try:
            result = detect(x, DetectionConfig(ScaleConfig(2, 15, 0.9), 2.6, method))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(result.flags) > 1000
        assert peak < 1.5 * 8 * n, f"{peak / (8 * n):.2f} x the series"
        assert built == []

    def test_map_under_warnings_as_errors(self, tmp_path, spiked_series):
        """``python -W error -m lrdshift.cli detect --out-map`` exits 0, says
        nothing and writes the map the in-process run writes."""
        inp, _ = spiked_series
        argv = ["detect", "--in", str(inp), "--hurst", "0.9", "--scales", "6", "--method", "swa",
                "--threshold", "asymptotic", "--out-flags", str(tmp_path / "f.json")]
        assert run([*argv, "--out-map", str(tmp_path / "expected.csv")]) == 0
        completed = subprocess.run(
            [sys.executable, "-W", "error", "-m", "lrdshift.cli", *argv,
             "--out-map", str(tmp_path / "map.csv")],
            capture_output=True, text=True, env=lrdshift_env(), timeout=120,
        )
        assert (completed.returncode, completed.stderr) == (0, "")
        assert (tmp_path / "map.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()

    def test_missing_hurst_exits_2(self, tmp_path, spiked_series):
        inp, _ = spiked_series
        code = run(["detect", "--in", str(inp), "--out-flags", str(tmp_path / "f.json")])
        assert code == 2

    def test_estimate_hurst_prints_and_stops(self, tmp_path, spiked_series, capsys):
        inp, _ = spiked_series
        flags_path = tmp_path / "f.json"
        code = run(["detect", "--in", str(inp), "--estimate-hurst",
                    "--out-flags", str(flags_path)])
        assert code == 0
        estimate = float(capsys.readouterr().out.strip())
        assert 0.0 < estimate < 1.0
        assert not flags_path.exists(), "detection must not run without an explicit --hurst"

    @pytest.mark.parametrize("extra,message", [
        (["--hurst", "0.9", "--standardize", "sample"], "the sample standard deviation overflows"),
        (["--hurst", "0.9", "--mean", "0", "--std", "1e-200"], "and std 1e-200 overflows"),
        (["--estimate-hurst"], "series has zero variance at some block size"),
    ], ids=["sample", "given", "estimate-hurst"])
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
    def test_overflowing_moments_exit_2(self, tmp_path, capsys, extra, message):
        """Moments that overflow name the cause; they used to flag nothing
        (exit 0), print a NaN estimate, or say only that values must be finite.
        The series' exact standard deviation, about 1.804e308, and its
        size-2 block sums do not fit in a double.  --estimate-hurst refits on
        the power-of-two-scaled series, whose size-4 block means are all 0."""
        inp = tmp_path / "huge.txt"
        x = np.tile([1.79e308, 1.79e308, -1.79e308, -1.79e308], 16)
        inp.write_text("".join(repr(float(v)) + "\n" for v in x))
        flags_path = tmp_path / "f.json"
        code = run(["detect", "--in", str(inp), "--scales", "6", "--threshold", "asymptotic",
                    "--out-flags", str(flags_path), *extra])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not flags_path.exists()

    def test_estimate_hurst_of_a_series_near_the_largest_double(self, tmp_path, capsys):
        """Its size-2 block sums overflow; the estimate is that of the series
        divided by a power of two, which is the estimate of 1 + 0.01 w."""
        w = np.random.default_rng(0).standard_normal(4096)
        inp = tmp_path / "huge.txt"
        inp.write_text("".join(repr(float(v)) + "\n" for v in 1.5e308 * (1 + 0.01 * w)))
        flags_path = tmp_path / "f.json"
        assert run(["detect", "--in", str(inp), "--estimate-hurst", "--out-flags", str(flags_path)]) == 0
        assert abs(float(capsys.readouterr().out) - estimate_hurst(1 + 0.01 * w)) <= 1e-12
        assert not flags_path.exists()

    def test_short_series_exits_2(self, tmp_path, monkeypatch, capsys):
        """Before any threshold is computed, with the length rule's message."""
        monkeypatch.setattr("lrdshift.cli.compute_threshold", refuse_threshold)
        inp = tmp_path / "short.txt"
        inp.write_text("1.0\n2.0\n")
        code = run(["detect", "--in", str(inp), "--hurst", "0.9", "--scales", "8",
                    "--out-flags", str(tmp_path / "f.json")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: series of length 2 is shorter than the largest window 128 (base 2, 8 scales)\n")

    def test_empty_input_exits_2(self, tmp_path, capsys):
        inp = tmp_path / "empty.txt"
        inp.write_text("")
        code = run(["detect", "--in", str(inp), "--hurst", "0.9",
                    "--out-flags", str(tmp_path / "f.json")])
        assert code == 2
        assert "no numeric data" in capsys.readouterr().err

    def test_parse_error_reports_line_number(self, tmp_path, capsys):
        inp = tmp_path / "bad.txt"
        inp.write_text("1.0\n2.0\nnot-a-number\n")
        code = run(["detect", "--in", str(inp), "--hurst", "0.9", "--scales", "1",
                    "--out-flags", str(tmp_path / "f.json")])
        assert code == 2
        assert "line 3" in capsys.readouterr().err

    def test_non_finite_value_exits_2_and_names_the_line(self, tmp_path, capsys):
        inp = tmp_path / "nan.csv"
        inp.write_text("t,value\n1,0.5\n\n3,nan\n4,0.5\n")
        code = run(["detect", "--in", str(inp), "--column", "2", "--hurst", "0.9",
                    "--scales", "1", "--out-flags", str(tmp_path / "f.json")])
        assert code == 2
        assert "line 4: non-finite value" in capsys.readouterr().err

    def test_first_bad_line_is_named(self, tmp_path, capsys):
        """A non-finite value before an unparseable line is the one reported."""
        inp = tmp_path / "nan-then-text.txt"
        inp.write_text("1\nnan\nx\n")
        code = run(["detect", "--in", str(inp), "--hurst", "0.9", "--scales", "1",
                    "--out-flags", str(tmp_path / "f.json")])
        assert code == 2
        assert f"{inp}: line 2: non-finite value nan" in capsys.readouterr().err

    def test_flags_only_run_never_builds_the_map(self, tmp_path, spiked_series, monkeypatch):
        def refuse(*args):
            raise AssertionError("refused map function called")

        inp, _ = spiked_series
        # The package re-exports the function `detect`, which shadows the module name.
        detect_module = importlib.import_module("lrdshift.detect")
        monkeypatch.setattr(detect_module, "two_sided_pvalues", refuse)
        for name in ("write_pvalue_csv", "level_rows", "two_sided_pvalues"):
            monkeypatch.setattr(cli_module, name, refuse)
        assert run(self.detect_args(inp, tmp_path / "f.json")) == 0
        monkeypatch.undo()
        map_path = tmp_path / "map.csv"
        assert run(self.detect_args(inp, tmp_path / "f.json", extra=["--out-map", str(map_path)])) == 0
        assert read_pvalue_csv(map_path)[0].shape == (6, 1024)

    def test_header_row_is_skipped(self, tmp_path):
        inp = tmp_path / "headed.csv"
        inp.write_text("timestamp,value\n" + "".join(f"{i},{v}\n" for i, v in enumerate([0.5] * 40)))
        values = read_series(inp, column=2)
        assert len(values) == 40 and values[0] == 0.5

    def test_short_row_under_column_exits_2_and_names_the_line(self, tmp_path, capsys):
        inp = tmp_path / "short-row.csv"
        inp.write_text("t,b\n1,2\n3\n")
        code = run(["detect", "--in", str(inp), "--column", "2", "--hurst", "0.9",
                    "--scales", "1", "--out-flags", str(tmp_path / "f.json")])
        assert code == 2
        assert f"{inp}: line 3: cannot parse '3' as a number" in capsys.readouterr().err

    def test_short_first_row_under_column_is_a_header(self, tmp_path):
        inp = tmp_path / "one-field-header.csv"
        inp.write_text("value\n1,2\n3,4\n")
        assert read_series(inp, column=2).tolist() == [2.0, 4.0]

    @pytest.mark.parametrize("with_map,loaded", [(False, []), (True, [])])
    def test_scipy_is_loaded_only_for_the_map(self, tmp_path, spiked_series, with_map, loaded):
        """A run with the Monte-Carlo threshold loads no scipy module, with
        the p-value map or without: its normal CDF is the package's port."""
        inp, _ = spiked_series
        out_map = ["--out-map", str(tmp_path / "map.csv")] if with_map else []
        _, result = run_probe(["detect", "--in", str(inp), "--hurst", "0.9", "--scales", "6",
                               "--mc-reps", "10000", "--out-flags", str(tmp_path / "f.json"),
                               *out_map])
        assert result["code"] == 0
        assert result["after_import"] == []
        assert [m for m in result["after_run"] if m in ("scipy.special", "scipy.linalg")] == loaded
        assert bool(result["after_run"]) == bool(loaded), result["after_run"]

    def test_warm_run_loads_nothing_new_and_no_hashlib(self, tmp_path, spiked_series,
                                                       threshold_cache):
        """A run that reads its threshold from the cache loads no module the
        run that wrote it did not, and neither numpy.random nor hashlib.  The
        run that wrote it loads beyond that only what the simulation itself
        does (numpy.random, which loads hashlib through ``secrets``, and
        numpy.ma for the quantile), and never numpy.polynomial.  Both write
        nothing to stderr (``run_probe`` checks that)."""
        inp, _ = spiked_series
        argv = ["detect", "--in", str(inp), "--hurst", "0.9", "--scales", "6", "--mc-reps", "10000",
                "--out-flags", str(tmp_path / "f.json")]
        _, cold = run_probe(argv)
        assert len(list(threshold_cache.iterdir())) == 1
        cold_flags = (tmp_path / "f.json").read_bytes()
        _, warm = run_probe(argv)
        assert (tmp_path / "f.json").read_bytes() == cold_flags
        assert cold["code"] == warm["code"] == 0
        assert "hashlib" not in warm["modules"] and "numpy.random" not in warm["modules"]
        assert "numpy.polynomial" not in cold["modules"]
        assert set(warm["modules"]) <= set(cold["modules"])
        simulation = python_with_lrdshift(
            "import json, sys, lrdshift.cli\n"
            "from lrdshift.thresholds import ThresholdQuery, improved_threshold\n"
            "improved_threshold(ThresholdQuery(0.05, 6, 0.9, mc_reps=10**4))\n"
            "print(json.dumps(sorted(sys.modules)))")
        assert set(cold["modules"]) - set(warm["modules"]) <= set(json.loads(simulation.stdout))

    @pytest.mark.parametrize("broken", ["regular-file", "read-only-directory"])
    def test_unusable_cache_changes_nothing(self, tmp_path, spiked_series, monkeypatch, capfd,
                                            broken):
        """A cache directory that cannot be created or written is skipped:
        the run exits 0 with the same bytes and writes nothing to stderr."""
        inp, _ = spiked_series
        argv = ["detect", "--in", str(inp), "--hurst", "0.9", "--scales", "6", "--mc-reps", "10000",
                "--method", "swa"]
        expected = tmp_path / "expected.json"
        assert run([*argv, "--out-flags", str(expected)]) == 0
        cache_home = tmp_path / "broken-cache"
        if broken == "regular-file":
            cache_home.write_text("not a directory\n")
        else:
            (cache_home / "lrdshift").mkdir(parents=True)
            (cache_home / "lrdshift").chmod(0o555)
            if os.geteuid() == 0:  # root writes through the mode bits: fail the write itself

                def refuse(*args, **kwargs):
                    raise PermissionError(13, "Permission denied")

                monkeypatch.setattr("lrdshift.thresholds.tempfile.mkstemp", refuse)
        monkeypatch.setenv("XDG_CACHE_HOME", str(cache_home))
        capfd.readouterr()
        for attempt in range(2):
            got = tmp_path / f"got{attempt}.json"
            assert run([*argv, "--out-flags", str(got)]) == 0
            assert got.read_bytes() == expected.read_bytes()
        assert capfd.readouterr().err == ""
        if broken == "read-only-directory":
            assert list((cache_home / "lrdshift").iterdir()) == []

    def test_null_flag_rate_over_scripted_loop(self, tmp_path):
        """Flag count / n on clean background fixtures stays in the
        Monte-Carlo band around alpha across a seeded loop of runs."""
        seeds, n, m, alpha = 20, 512, 5, 0.05
        rates = []
        for i in range(seeds):
            inp = tmp_path / f"fix{i}.txt"
            path = synthesize_fgn(LrdModel(0.9), n, seed=9000 + i)
            inp.write_text("".join(repr(float(v)) + "\n" for v in path))
            flags_path = tmp_path / f"fix{i}.json"
            code = run([
                "detect", "--in", str(inp), "--hurst", "0.9", "--scales", str(m),
                "--alpha", str(alpha), "--threshold", "improved",
                "--mc-reps", "30000", "--seed", "17", "--method", "swa",
                "--out-flags", str(flags_path),
            ])
            assert code == 0
            payload = json.loads(flags_path.read_text())
            rates.append(len(payload["flagged_indices"]) / n)
        band = 3 * np.std(rates, ddof=1) / np.sqrt(seeds) + 0.01
        assert abs(np.mean(rates) - alpha) < band, f"rate {np.mean(rates):.4f}"


# flagged_indices, intervals and threshold_se of a detect payload, by case.
FLAG_LISTS = {
    "none": [],
    "one": [7],
    "many": np.sort(np.random.default_rng(19).choice(1 << 20, 500, replace=False)).tolist(),
    "past-2^53": [2**53 - 1, 2**53, 2**53 + 1, 2**64],
}
INTERVAL_LISTS = {
    "none": [],
    "one": [{"start": 7, "end": 8, "peak_scale": 1}],
    "many": [{"start": s, "end": s + d, "peak_scale": k} for s, d, k in zip(
        range(0, 90_000, 300), range(1, 301), [1, 15, 3] * 100)],
}


class TestFlagsJson:
    @pytest.mark.parametrize("flags", FLAG_LISTS, ids=str)
    @pytest.mark.parametrize("intervals", INTERVAL_LISTS, ids=str)
    @pytest.mark.parametrize("threshold_se", [None, 0.0, 0.0123456789])
    def test_text_equals_the_json_encoder(self, flags, intervals, threshold_se):
        payload = {
            "alpha": 0.05, "base": 2, "flagged_indices": FLAG_LISTS[flags], "hurst": 0.9,
            "intervals": INTERVAL_LISTS[intervals], "method": "swa", "scales": 15, "seed": 3,
            "threshold": 2.6189898164699184, "threshold_kind": "monte_carlo",
            "threshold_se": threshold_se,
        }
        text = "".join(_flags_json_pieces(payload))
        assert text == json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def test_flags_json_is_written_in_bounded_memory(self, tmp_path, monkeypatch):
        """``detect`` writes flags.json for 2^20 flags (their text is about
        14 MB) a slice at a time: with the detection result and the intervals
        made before tracing starts, the command peaks under 1 MiB of traced
        memory, and the file holds the encoder's bytes."""
        flags = np.arange(1 << 20) * 7 + 1_000_001
        result = DetectionResult(np.zeros(64), flags, np.ones(len(flags), dtype=int))
        intervals = [Interval(int(start), int(start) + 1, 1) for start in flags[:300]]
        monkeypatch.setattr(cli_module, "detect", lambda values, config: result)
        monkeypatch.setattr(cli_module, "flags_to_intervals", lambda result, gap: intervals)
        inp, out = tmp_path / "x.txt", tmp_path / "flags.json"
        inp.write_text("0.5\n" * 64)
        tracemalloc.start()
        try:
            assert run(["detect", "--in", str(inp), "--hurst", "0.9", "--scales", "6",
                        "--threshold-value", "3.0", "--out-flags", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, f"{peak / 2**20:.1f} MiB"
        payload = json.loads(out.read_text())
        assert payload["flagged_indices"] == flags.tolist()
        assert out.read_text() == json.dumps(payload, indent=2, sort_keys=True) + "\n"


# (name, file bytes, --column, whether np.loadtxt's result is used).
READ_SERIES_FIXTURES = [
    ("plain", b"1.5\n-2\n3e-3\n.5\n5.\n", None, True),
    ("header", b"t,bytes\n1,10\n2,20\n", 2, True),
    ("plain-header", b"value\n1\n2\n", None, True),
    ("crlf", b"t,b\r\n1,2\r\n3,4\r\n", 2, True),
    ("lone-cr", b"1\r2\r", None, True),
    ("tabs-and-blanks", b" \t1.0 \n\n\t2.0\t\n\n", None, True),
    ("padded-fields", b"1, 2.5 \n2,\t3\n", 2, True),
    ("extra-fields", b"1,2,3\n4,5\n", 2, True),
    ("hash-header", b"#value\n1\n2\n", None, True),
    ("short-header", b"value\n1,2\n3,4\n", 2, True),
    ("whitespace-only-line", b"1\n   \n2\n", None, False),
    ("underscore", b"1_000\n2\n", None, False),
    ("underscore-in-column", b"t,v\n1,1_000\n2,3\n", 2, False),
    ("hash", b"1\n#2\n3\n", None, False),
    ("nan-on-line-4", b"t,v\n1,0.5\n\n3,nan\n4,0.5\n", 2, False),
    ("1e400-on-line-3", b"1\n2\n1e400\n", None, False),
    ("plus-inf-after-a-blank", b"1\n\n+inf\n", None, False),
    ("pair-without-column", b"1,2\n3,4\n", None, False),
    ("single-pair-without-column", b"1,2\n", None, False),
    ("short-row", b"t,b\n1,2\n3\n", 2, False),
    ("empty-field", b"t,b\n1,\n2,3\n", 2, False),
    ("only-header", b"t,b\n", 2, False),
    ("only-plain-header", b"value\n", None, False),
    ("empty", b"", None, False),
    ("blank-then-header", b"\nt,b\n1,2\n", 2, False),
    ("hex", b"1\n0x10\n", None, False),
    ("not-utf-8", b"1\n\xff\n", None, False),
]


def outcome(parse, path, column):
    """The array ``parse`` returns, or the text of the ValueError it raises."""
    try:
        return parse(path, column).tolist()
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


def parse_lines(path, column):
    with open(path) as fh:
        return _parse_lines(fh, path, column)


def load_series(path, column):
    """The loadtxt result read_series would return, or an empty array where it would not."""
    with open(path) as fh:
        series = _load_series(fh, column)
    return np.array([]) if series is None else series


class TestReadSeries:
    @pytest.mark.parametrize("data,column,fast", [f[1:] for f in READ_SERIES_FIXTURES],
                             ids=[f[0] for f in READ_SERIES_FIXTURES])
    def test_matches_the_per_line_parser(self, tmp_path, capfd, data, column, fast):
        """read_series returns the per-line parser's array or raises its
        message, takes the loadtxt result only where the fixture expects it,
        and writes nothing to stderr."""
        path = tmp_path / "series.csv"
        path.write_bytes(data)
        expected = outcome(parse_lines, path, column)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = outcome(read_series, path, column)
            loaded = outcome(load_series, path, column)
        assert got == expected
        assert caught == []
        assert capfd.readouterr().err == ""
        accepted = isinstance(loaded, list) and loaded != []
        assert accepted == fast, loaded
        if accepted:
            assert loaded == expected

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        lines=st.lists(
            st.lists(st.sampled_from(["1", "-2.5", "+3e-2", ".5", "1e400", "nan", "-inf", "1_0",
                                      "0x1", "#4", "x", "", " ", "\t", ",", "\r", "\xa0"]),
                     max_size=5).map("".join),
            max_size=6,
        ),
        column=st.sampled_from([None, 1, 2]),
    )
    def test_random_text_matches_the_per_line_parser(self, tmp_path, lines, column):
        path = tmp_path / "fuzz.csv"
        path.write_text("\n".join(lines))
        assert outcome(read_series, path, column) == outcome(parse_lines, path, column)

    def test_loadtxt_gets_the_name_once(self, tmp_path, monkeypatch):
        """A clean file reaches np.loadtxt once, as its name (numpy's chunked
        C reader); one with a whitespace-only line reaches it once too, by
        name, and is then read by the per-line parser."""
        calls = []
        loadtxt, parse = np.loadtxt, cli_module._parse_lines

        def spy(fname, *args, **kwargs):
            calls.append(fname)
            return loadtxt(fname, *args, **kwargs)

        def parse_spy(fh, path, column):
            calls.append("per-line")
            return parse(fh, path, column)

        monkeypatch.setattr(np, "loadtxt", spy)
        monkeypatch.setattr(cli_module, "_parse_lines", parse_spy)
        clean = tmp_path / "clean.csv"
        clean.write_text("t,b\n1,2\n3,4\n")
        assert read_series(clean, 2).tolist() == [2.0, 4.0]
        assert calls == [str(clean)]
        calls.clear()
        blanks = tmp_path / "blanks.csv"
        blanks.write_text("1\n \n2\n")
        assert read_series(blanks).tolist() == [1.0, 2.0]
        assert calls == [str(blanks), "per-line"]

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    def test_compressed_suffix_is_read_as_plain_text(self, tmp_path, suffix):
        """numpy would decompress a name with this suffix; the file is the
        plain text it holds, as the per-line parser reads it."""
        path = tmp_path / f"series.csv{suffix}"
        path.write_text("t,b\n1,2\n\n3,4\n")
        assert read_series(path, 2).tolist() == parse_lines(path, 2).tolist() == [2.0, 4.0]

    def test_gzip_file_fails_as_text(self, tmp_path, capsys):
        """A real gzip file is read as the text it is not: exit 2 with the
        per-line parser's error, not numpy's decompressed values."""
        path = tmp_path / "series.gz"
        path.write_bytes(gzip.compress(b"1\n2\n3\n", mtime=0))
        expected = outcome(parse_lines, path, None)
        assert expected.startswith("UnicodeDecodeError: ")
        assert outcome(read_series, path, None) == expected
        capsys.readouterr()
        argv = ["detect", "--in", str(path), "--hurst", "0.9", "--scales", "1",
                "--threshold-value", "2", "--out-flags", str(tmp_path / "flags.json")]
        assert run(argv) == 2
        assert capsys.readouterr().err == f"error: {expected.split(': ', 1)[1]}\n"

    @pytest.mark.parametrize("host", ["x", "[x"])
    def test_url_shaped_name_is_a_local_file(self, tmp_path, monkeypatch, host):
        """``http://x/series.txt`` is a relative path here (the directory
        ``http:``); numpy would fetch it as a URL.  ``[x`` is a host that
        ``urllib.parse`` rejects."""
        (tmp_path / "http:" / host).mkdir(parents=True)
        (tmp_path / "http:" / host / "series.txt").write_text("1\n2\n")
        monkeypatch.chdir(tmp_path)

        def refuse(*args, **kwargs):
            raise AssertionError("a URL was opened")

        monkeypatch.setattr(urllib.request, "urlopen", refuse)
        assert read_series(f"http://{host}/series.txt").tolist() == [1.0, 2.0]

    def test_numpy_decompresses_exactly_the_guarded_suffixes(self):
        """A numpy that learns a new compressed suffix must be added to the guard."""
        opened = set(np.lib._datasource._file_openers.keys()) - {None}
        assert opened == cli_module._COMPRESSED_SUFFIXES

    def test_working_directory_that_is_gone(self, tmp_path, monkeypatch):
        """numpy cannot open a name from a deleted working directory; the
        open file is parsed instead."""
        path = tmp_path / "series.csv"
        path.write_text("t,b\n1,2\n3,4\n")
        gone = tmp_path / "gone"
        gone.mkdir()
        monkeypatch.chdir(gone)
        gone.rmdir()
        assert read_series(path, 2).tolist() == [2.0, 4.0]

    def test_reads_a_pipe_once(self, tmp_path):
        """A FIFO cannot be rewound, so it goes to the per-line parser unread."""
        fifo = tmp_path / "series.fifo"
        os.mkfifo(fifo)
        values = []

        def feed():
            with open(fifo, "w") as fh:
                fh.write("t,b\n1,2\n3,4\n")

        threads = [
            threading.Thread(target=feed, daemon=True),
            threading.Thread(target=lambda: values.extend(read_series(fifo, 2)), daemon=True),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert values == [2.0, 4.0]


class TestMapCommand:
    def write_map(self, path, pvalues):
        write_pvalue_csv_per_cell(path, np.asarray(pvalues, dtype=float))

    def test_single_hot_cell(self, tmp_path):
        map_path, svg_path = tmp_path / "m.csv", tmp_path / "m.svg"
        grid = np.ones((2, 4))
        grid[1, 2] = 0.0
        self.write_map(map_path, grid)
        assert run(["map", "--in-map", str(map_path), "--out-svg", str(svg_path)]) == 0
        svg = svg_path.read_text()
        assert svg.count("#a50026") == 1  # exactly one hottest rect
        assert "#313695" in svg

    def test_uniform_cool_map(self, tmp_path):
        map_path, svg_path = tmp_path / "m.csv", tmp_path / "m.svg"
        self.write_map(map_path, np.ones((3, 5)))
        run(["map", "--in-map", str(map_path), "--out-svg", str(svg_path)])
        svg = svg_path.read_text()
        assert "#a50026" not in svg
        assert svg.count("#313695") == 3  # one merged rect per row

    def test_missing_cells_render_gray(self, tmp_path):
        map_path, svg_path = tmp_path / "m.csv", tmp_path / "m.svg"
        grid = np.ones((2, 3))
        grid[1, 0] = np.nan
        self.write_map(map_path, grid)
        run(["map", "--in-map", str(map_path), "--out-svg", str(svg_path)])
        assert "#b3b3b3" in svg_path.read_text()

    def test_empty_window_exits_2(self, tmp_path, capsys):
        map_path = tmp_path / "m.csv"
        self.write_map(map_path, np.ones((2, 4)))
        code = run(["map", "--in-map", str(map_path), "--from", "2", "--to", "2",
                    "--out-svg", str(tmp_path / "m.svg")])
        assert code == 2
        assert capsys.readouterr().err == "error: need 0 <= start < stop <= 4, got [2, 2)\n"

    @pytest.mark.parametrize("text,message", [
        ("scale,1,x,3\n1,0.5,,0.25\n", "line 1: field 3: cannot parse 'x' as an integer"),
        ("scale,1,,3\n1,0.5,,0.25\n", "line 1: field 3: cannot parse '' as an integer"),
        ("scale,1,2,3\n1,0.5,,0.25\n2,0.5,abc,\n", "line 3: field 3: cannot parse 'abc' as a number"),
        ("scale,1,2,3\n1,0.5,inf,-3\n", "line 2: field 3: 'inf' is not a p-value in [0, 1]"),
        ("scale,1,2,3\n1,0.5,,-3\n", "line 2: field 4: '-3' is not a p-value in [0, 1]"),
        ("scale,1,2,3\n1,0.5,,1\n2,1.0000001,0,0\n",
         "line 3: field 2: '1.0000001' is not a p-value in [0, 1]"),
        ("scale,1,2,3\n1,0.5,nan,0\n", "line 2: field 3: 'nan' is not a p-value in [0, 1]"),
        ("scale,5,9,2\n1,0.5,,0.25\n", "line 1: field 2: expected label 1, got '5'"),
        ("scale,1,3,2\n1,0.5,,0.25\n", "line 1: field 3: expected label 2, got '3'"),
    ], ids=["label", "empty-label", "cell", "inf-cell", "negative-cell", "cell-above-one",
            "nan-cell", "labels-5-9-2", "labels-out-of-order"])
    def test_bad_field_exits_2_naming_file_line_and_field(self, tmp_path, capsys, text, message):
        map_path = tmp_path / "m.csv"
        map_path.write_text(text)
        code = run(["map", "--in-map", str(map_path), "--out-svg", str(tmp_path / "m.svg")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {map_path}: {message}\n"

    @pytest.mark.parametrize("window,last,message", [
        (["--from", "2"], "3,1,1,1,1", None),
        (["--from", "1", "--to", "3"], "3,1,1,1,1", "line 3: field 3: cannot parse 'abc' as a number"),
        (["--to", "1"], "3,1,1,1,1", "line 2: field 2: '-3' is not a p-value in [0, 1]"),
        (["--from", "3"], "3,1,1", "line 4: expected 5 fields"),
    ], ids=["bad-cells-outside", "bad-cell-inside", "out-of-range-inside", "short-line"])
    def test_only_the_window_is_read(self, tmp_path, capsys, window, last, message):
        """A cell outside ``--from``/``--to`` is never converted or checked;
        one inside is named by its field in the whole line, and every line
        must still hold n + 1 fields."""
        map_path = tmp_path / "m.csv"
        map_path.write_text(f"scale,1,2,3,4\n1,-3,0.5,0.25,0.125\n2,0.5,abc,0.25,\n{last}\n")
        code = run(["map", "--in-map", str(map_path), *window, "--out-svg", str(tmp_path / "m.svg")])
        assert (code, capsys.readouterr().err) == \
            ((0, "") if message is None else (2, f"error: {map_path}: {message}\n"))

    def test_deterministic_bytes(self, tmp_path):
        map_path = tmp_path / "m.csv"
        self.write_map(map_path, np.linspace(0, 1, 12).reshape(3, 4))
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        run(["map", "--in-map", str(map_path), "--out-svg", str(a)])
        run(["map", "--in-map", str(map_path), "--out-svg", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestMapCsvWriter:
    def test_bytes_match_per_cell_formatting(self, tmp_path):
        """Row-wise repr agrees with repr(float(p)) cell by cell, NaN written empty:
        p-values 0, 1, subnormal, 1e-299, below 1e-30, 1.1e-5 and two in [0.1, 1).
        The line is also pinned as text; scipy's ndtr and the package's port
        (which takes exp from libm) give these p-values the same bits."""
        cells = [np.nan, ZERO, ONE, SUBNORMAL, 37.0, BELOW_1E30, 4.4, 1.6448536269514722, 1.0]
        statistics = np.array([cells, cells[::-1], [np.nan] * len(cells)])
        fast, slow = tmp_path / "fast.csv", tmp_path / "slow.csv"
        write_pvalue_csv(fast, dense(statistics))
        write_pvalue_csv_per_cell(slow, pvalues_of(statistics))
        assert fast.read_bytes() == slow.read_bytes()
        assert fast.read_text().splitlines()[1] == (
            "1,,0.0,1.0,2.149622499173733e-309,1.1451142445047853e-299,3.552964224155306e-33,"
            "1.0825087815407681e-05,0.10000000000000009,0.31731050786291415")
        assert has_subnormal(pvalues_of(statistics))


    def test_rows_longer_than_a_slice(self, tmp_path):
        """Rows are written in slices of cells: the bytes equal the per-cell
        writer's, with absent cells on both sides of each slice boundary."""
        n = 2 * _SLICE + 3
        row = np.random.default_rng(5).standard_normal(n)
        row[[0, _SLICE - 1, _SLICE, 2 * _SLICE, n - 1]] = np.nan
        statistics = np.array([row, row[::-1]])
        fast, slow = tmp_path / "fast.csv", tmp_path / "slow.csv"
        write_pvalue_csv(fast, dense(statistics))
        write_pvalue_csv_per_cell(slow, pvalues_of(statistics))
        assert fast.read_bytes() == slow.read_bytes()

    def test_one_long_row_is_written_in_bounded_memory(self, tmp_path):
        """A 2^18-cell row peaks below 2 MiB above the row itself (the
        whole row's text took 27 MiB)."""
        row = np.random.default_rng(6).uniform(size=1 << 18)
        tracemalloc.start()
        try:
            write_pvalue_csv(tmp_path / "row.csv", [(0, 1, row)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, f"{peak / 2**20:.1f} MiB"


def fail_in_worker(monkeypatch, module, name, failing):
    """Replace ``module.<name>`` by ``failing`` in any process but this one."""
    parent, original = os.getpid(), getattr(module, name)
    monkeypatch.setattr(module, name,
                        lambda *args: (failing if os.getpid() != parent else original)(*args))


def exit_in_worker_after(function, code):
    """``function``, whose result is iterated, ending any process but this one
    with ``code`` after its last item."""
    parent = os.getpid()

    def wrapped(*args):
        yield from function(*args)
        if os.getpid() != parent:
            os._exit(code)

    return wrapped


class TestMapWorker:
    """The map writer with and without its forked worker, forced by the CPU count
    :mod:`lrdshift.workers` reads.  The autouse ``no_child_is_left`` fixture
    checks that every worker is reaped."""

    @staticmethod
    def dense_case(shape, nan_at):
        """A dense map of N(0, 9) statistics with NaN columns at ``nan_at``
        and a subnormal p-value."""
        statistics = 3.0 * np.random.default_rng(shape[1]).standard_normal(shape)
        statistics[:, nan_at] = np.nan
        statistics[-1, 1] = SUBNORMAL
        return dense(statistics), pvalues_of(statistics)

    @staticmethod
    def fallback_case():
        """A dense map whose cells beside every slice edge take ``repr``
        (0, 1, below 1e-30, subnormal) or the scientific layout (1.1e-5, 5.5e-89),
        or are NaN runs across it."""
        statistics = np.random.default_rng(8).standard_normal((3, 3 * _SLICE + 7))
        for edge in (_SLICE, 2 * _SLICE, 3 * _SLICE):
            statistics[0, edge - 2:edge + 2] = [4.4, ZERO, ONE, BELOW_1E30]
            statistics[1, edge - 1:edge + 1] = [20.0, SUBNORMAL]
            statistics[2, edge - 3:edge + 3] = np.nan
        return dense(statistics), pvalues_of(statistics)

    @staticmethod
    def level_case(method, fallbacks=False):
        """The rows of a base-70, 3-scale pyramid of 3 * 4900 + 37 samples,
        with NaN entries on both sides of every piece edge and a subnormal
        p-value in the last entry of scale 3.  Under ``nowa`` a scale-3 entry
        covers 4900 > _SLICE cells and scales 2 and 3 end in an incomplete
        block; under ``swa`` scale 3 starts with 4899 > _SLICE blank cells.
        With ``fallbacks``, the entries beside those NaN have p-values 0 and
        below 1e-30, which take ``repr``, repeated over their cells.  The
        expected map is expanded cell by cell by the oracle."""
        config = ScaleConfig(base=70, num_scales=3, hurst=0.9)
        build = build_nowa if method == "nowa" else build_swa
        pyramid = build(np.random.default_rng(70).standard_normal(3 * 4900 + 37), config)
        pvalue_levels = Pyramid(method, config, [pvalues_of(level) for level in pyramid.levels])
        assert np.array_equal(expand_levels(pvalue_levels), pvalue_map_per_cell(pyramid),
                              equal_nan=True)
        for lead, repeat, level in level_rows(pyramid):
            step = max(_SLICE // repeat, 1)
            level[[step - 1, step]] = np.nan
            if fallbacks:
                level[[step - 2, step + 1]] = (ZERO, BELOW_1E30)
        pyramid.levels[-1][-1] = SUBNORMAL
        pvalue_levels = Pyramid(method, config, [pvalues_of(level) for level in pyramid.levels])
        return list(level_rows(pyramid)), expand_levels(pvalue_levels)

    @pytest.mark.parametrize("case", [
        lambda: TestMapWorker.dense_case((3, 2 * _SLICE + 3),
                                         [0, _SLICE - 1, _SLICE, 2 * _SLICE, 2 * _SLICE + 2]),
        lambda: TestMapWorker.dense_case((5, 7), [0, 3, 6]),
        lambda: TestMapWorker.dense_case((1, 4 * _SLICE + 1),
                                         [_SLICE - 1, _SLICE, 3 * _SLICE, 4 * _SLICE]),
        lambda: TestMapWorker.dense_case((1, 100), [50]),
        lambda: TestMapWorker.level_case("nowa"),
        lambda: TestMapWorker.level_case("swa"),
        lambda: TestMapWorker.fallback_case(),
        lambda: TestMapWorker.level_case("nowa", fallbacks=True),
    ], ids=["odd-slice-count", "rows-shorter-than-a-slice", "one-long-row", "one-slice",
            "nowa-levels", "swa-levels", "fallback-cells", "nowa-levels-with-fallbacks"])
    def test_bytes_match_per_cell_writer_both_ways(self, tmp_path, monkeypatch, forks, case):
        """One process or two, the bytes are the per-cell writer's: NaN cells
        on both sides of slice boundaries, a subnormal p-value, rows shorter
        than a slice, an odd number of slices, a single row, and level-form
        rows whose entries or leads are longer than a slice."""
        rows, pvalues = case()
        expected = tmp_path / "expected.csv"
        write_pvalue_csv_per_cell(expected, pvalues)
        for cpus in (1, 2):
            monkeypatch.setattr(workers, "_usable_cpus", lambda: cpus)
            got = tmp_path / f"got{cpus}.csv"
            write_pvalue_csv(got, rows)
            assert got.read_bytes() == expected.read_bytes(), cpus
            assert len(forks) == cpus - 1
        assert has_subnormal(pvalues) and b",," in expected.read_bytes()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_each_process_computes_the_pvalues_it_formats(self, tmp_path, monkeypatch, forks,
                                                          spiked_series, cpus):
        """``detect --out-map`` computes p-values in the command's process for
        the entries of the even pieces of the map only, or for every entry on
        one CPU: the worker computes those of the pieces it formats."""
        monkeypatch.setattr(workers, "_usable_cpus", lambda: cpus)
        parent, received, pyramids = os.getpid(), [], []

        def counted(statistics):
            if os.getpid() == parent:
                received.append(len(statistics))
            return two_sided_pvalues(statistics)

        def kept(pyramid):
            pyramids.append(pyramid)
            return level_rows(pyramid)

        monkeypatch.setattr(cli_module, "two_sided_pvalues", counted)
        monkeypatch.setattr(cli_module, "level_rows", kept)
        inp, _ = spiked_series
        assert run(["detect", "--in", str(inp), "--hurst", "0.9", "--scales", "6", "--method",
                    "swa", "--threshold", "asymptotic", "--out-flags", str(tmp_path / "f.json"),
                    "--out-map", str(tmp_path / "map.csv")]) == 0
        pieces = list(cli_module._map_pieces(level_rows(*pyramids)))
        expected = [len(piece[0]) for index, piece in enumerate(pieces)
                    if not isinstance(piece, str) and (cpus == 1 or index % 2 == 0)]
        assert received == expected
        entries = sum(map(len, pyramids[0].levels))
        assert sum(received) == entries if cpus == 1 else 0 < sum(received) < entries
        assert len(forks) == cpus - 1

    def test_error_in_the_rows_propagates_unchanged(self, tmp_path, monkeypatch, forks):
        """An exception raised by the row iterable after some slices of both
        processes is the one raised, and the worker is reaped."""
        monkeypatch.setattr(workers, "_usable_cpus", lambda: 2)
        error = ValueError("row 3 is not ready")

        def rows():
            yield from dense(np.full((2, 3 * _SLICE), 0.5))
            raise error

        with pytest.raises(ValueError) as raised:
            write_pvalue_csv(tmp_path / "map.csv", rows())
        assert raised.value is error
        assert len(forks) == 1

    def test_error_in_the_writes_propagates_unchanged(self, monkeypatch, forks):
        """An exception raised by the file's ``write`` halfway through the
        slices is the one raised, and the worker is killed and reaped."""
        monkeypatch.setattr(workers, "_usable_cpus", lambda: 2)
        error = OSError("no space left")
        written = []

        class Full(io.BytesIO):
            def write(self, data):
                written.append(len(data))
                if len(written) == 5:
                    raise error
                return super().write(data)

        with pytest.raises(OSError) as raised:
            cli_module._write_slices(Full(), (row for row in np.zeros((8, _SLICE))),
                                     cli_module._series_lines)
        assert raised.value is error
        assert len(forks) == 1

    @pytest.mark.parametrize("fail,message", [
        (lambda monkeypatch: fail_in_worker(monkeypatch, cli_module, "two_sided_pvalues",
                                            lambda statistics: 1 / 0),
         "error: the worker process stopped before sending all of its items\n"),
        # The rows are made before the fork, so the worker exits after its last slice.
        (lambda monkeypatch: monkeypatch.setattr(cli_module, "level_rows",
                                                 exit_in_worker_after(level_rows, 3)),
         "error: the worker process exited with code 3\n"),
    ], ids=["mid-map", "after-its-last-slice"])
    def test_failed_worker_makes_detect_exit_1(self, tmp_path, monkeypatch, capsys, forks,
                                               spiked_series, fail, message):
        monkeypatch.setattr(workers, "_usable_cpus", lambda: 2)
        fail(monkeypatch)
        inp, _ = spiked_series
        code = run(["detect", "--in", str(inp), "--hurst", "0.9", "--scales", "6", "--threshold",
                    "asymptotic", "--out-flags", str(tmp_path / "f.json"),
                    "--out-map", str(tmp_path / "map.csv")])
        assert code == 1
        assert capsys.readouterr().err == message
        assert len(forks) == 1


class TestWriteSeries:
    def test_bytes_match_one_repr_per_line(self, tmp_path, monkeypatch):
        """One process or two (the formatting worker), the same lines."""
        values = np.random.default_rng(7).standard_normal(2 * _SLICE + 3)
        for cpus in (1, 2):
            monkeypatch.setattr(workers, "_usable_cpus", lambda: cpus)
            path = tmp_path / f"series{cpus}.txt"
            write_series(path, values)
            assert path.read_text() == "".join(repr(float(v)) + "\n" for v in values)


class TestThresholdCommand:
    def test_asymptotic_value(self, capsys):
        assert run(["threshold", "--alpha", "0.05", "--scales", "15", "--kind", "asymptotic"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "asymptotic"
        assert payload["value"] == pytest.approx(2.9275327016162911, abs=1e-9)
        assert payload["se"] == 0.0

    def test_improved_deterministic(self, capsys):
        args = ["threshold", "--alpha", "0.05", "--scales", "3", "--hurst", "0.9",
                "--kind", "improved", "--mc-reps", "50000", "--seed", "5"]
        run(args)
        first = capsys.readouterr().out
        run(args)
        assert capsys.readouterr().out == first
        payload = json.loads(first)
        assert payload["se"] > 0.0
        assert 1.9 < payload["value"] < 3.0

    def test_hurst_monotonicity_pair(self, capsys):
        values = {}
        for hurst in ("0.6", "0.95"):
            run(["threshold", "--alpha", "0.05", "--scales", "10", "--hurst", hurst,
                 "--kind", "improved", "--mc-reps", "200000", "--seed", "6"])
            values[hurst] = json.loads(capsys.readouterr().out)["value"]
        assert values["0.95"] < values["0.6"]

    def test_cold_improved_threshold_under_warnings_as_errors(self, capsys, monkeypatch):
        """``python -W error -m lrdshift.cli threshold --kind improved`` on a
        cold cache, whose worker draws every second chunk with BLAS after
        the fork, exits 0, says nothing and prints the one-process value."""
        args = ["threshold", "--scales", "15", "--hurst", "0.9", "--kind", "improved",
                "--mc-reps", "300000", "--seed", "4"]
        completed = subprocess.run([sys.executable, "-W", "error", "-m", "lrdshift.cli", *args],
                                   capture_output=True, text=True, env=lrdshift_env(), timeout=120)
        assert (completed.returncode, completed.stderr) == (0, "")
        monkeypatch.setenv("XDG_CACHE_HOME", str(Path(os.environ["XDG_CACHE_HOME"]) / "one-cpu"))
        monkeypatch.setattr(workers, "_usable_cpus", lambda: 1)
        assert run(args) == 0
        assert completed.stdout == capsys.readouterr().out

    @pytest.mark.parametrize("flag,value", [
        ("--hurst", "0"), ("--hurst", "1.5"), ("--hurst", "nan"), ("--base", "1"), ("--base", "0"),
    ])
    def test_out_of_domain_exits_2_before_monte_carlo(self, flag, value, monkeypatch, capsys):
        monkeypatch.setattr("lrdshift.cli.compute_threshold", refuse_threshold)
        assert run(["threshold", flag, value]) == 2
        assert f"{flag[2:]} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["detect", "--in", "x.txt", "--out-flags", "f.json"],
        ["stream", "--hurst", "0.9"],
    ])
    def test_single_is_offered_only_here(self, argv, capsys):
        """The single-scale value is not family-wise for the max over scales."""
        assert run([*argv, "--threshold", "single"]) == 2
        assert "invalid choice: 'single'" in capsys.readouterr().err

    @pytest.mark.parametrize("kind,alpha,finite", [
        ("asymptotic", "5e-324", False), ("single", "5e-324", False),
        ("asymptotic", "1e-14", True), ("single", "1e-15", True),
        ("asymptotic", "1e-300", True), ("single", "1e-300", True),
    ])
    def test_never_prints_infinity(self, kind, alpha, finite, capsys):
        """A value that rounds to inf exits 2 with empty stdout: ``Infinity``
        is not JSON (RFC 8259).  A finite value parses as strict JSON.  The
        closed forms are finite down to alpha = 1e-300; at 5e-324 their tail
        probability underflows to 0."""

        def refuse_constant(name):
            raise ValueError(f"{name} is not JSON")

        code = run(["threshold", "--kind", kind, "--alpha", alpha])
        out, err = capsys.readouterr()
        if finite:
            assert code == 0
            assert 0.0 < json.loads(out, parse_constant=refuse_constant)["value"] < np.inf
        else:
            assert (code, out) == (2, "")
            assert "threshold value must be positive and finite, got inf" in err

    def test_improved_refuses_a_thin_tail(self, capsys):
        """At alpha 1e-7 the default 10^6 replicates leave 0.1 beyond the
        quantile: exit 2, nothing on stdout, and the replicates needed named.
        At the floor the value parses as strict JSON."""

        def refuse_constant(name):
            raise ValueError(f"{name} is not JSON")

        assert run(["threshold", "--alpha", "1e-7"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "alpha 1e-07 with mc_reps 1000000" in err and "mc_reps >= 100000000" in err
        assert run(["threshold", "--alpha", "1e-3", "--scales", "3", "--mc-reps", "10000"]) == 0
        payload = json.loads(capsys.readouterr().out, parse_constant=refuse_constant)
        assert payload["kind"] == "monte_carlo" and 0.0 < payload["value"] < np.inf

    def test_detect_names_the_kind_of_an_infinite_threshold(self, tmp_path, spiked_series, capsys):
        inp, _ = spiked_series
        flags_path = tmp_path / "f.json"
        assert run(["detect", "--in", str(inp), "--hurst", "0.9", "--scales", "10", "--threshold",
                    "asymptotic", "--alpha", "5e-324", "--out-flags", str(flags_path)]) == 2
        assert "the asymptotic threshold value must be positive and finite, got inf" in capsys.readouterr().err
        assert not flags_path.exists()

    @pytest.mark.parametrize("kind", ["improved", "asymptotic", "single"])
    def test_zero_scales_exits_2(self, kind, capsys):
        assert run(["threshold", "--scales", "0", "--kind", kind]) == 2
        assert "num_scales" in capsys.readouterr().err


class TestEvalCommand:
    def test_writes_csv_and_json(self, tmp_path):
        prefix = tmp_path / "study"
        code = run([
            "eval", "--sets", "2", "--sims", "2", "--n", "1024", "--hurst", "0.8",
            "--scales", "5", "--mc-reps", "10000", "--duration-mean", "100",
            "--start-range", "512", "--seed", "3", "--out", str(prefix),
        ])
        assert code == 0
        rows = (prefix.parent / "study.csv").read_text().splitlines()
        assert rows[0] == "set_id,detector,tdr,fdr,fnr"
        assert len(rows) == 1 + 2 * 2
        summary = json.loads((prefix.parent / "study.json").read_text())
        assert set(summary["detectors"]) == {"multiscale", "naive"}

    def test_huge_duration_mean_runs(self, tmp_path):
        """Some Exponential(1e308) draws are inf; the capped draw still
        rounds to an int, and the shift runs to the series end."""
        prefix = tmp_path / "study"
        assert run(["eval", "--sets", "1", "--sims", "40", "--n", "4096", "--scales", "12",
                    "--mc-reps", "10000", "--start-range", "1000", "--duration-mean", "1e308",
                    "--out", str(prefix)]) == 0
        assert len((prefix.parent / "study.csv").read_text().splitlines()) == 1 + 2

    @pytest.mark.parametrize("argv,message", [
        (["--n", "100", "--scales", "15"],
         "series of length 100 is shorter than the largest window 16384 (base 2, 15 scales)"),
        (["--n", "32768", "--start-range", "40000"],
         "injection start_range 40000 is beyond the series end 32768"),
        (["--n", "0"], "series of length 0 is shorter than the largest window"),
        (["--hurst", "1"], "hurst must be in the open interval (0, 1), got 1.0"),
        (["--delta", "nan"], "delta must be finite, got nan"),
        (["--delta=-inf"], "delta must be finite, got -inf"),
        (["--duration-mean", "inf"], "duration_mean must be positive and finite, got inf"),
    ])
    def test_a_study_that_cannot_run_exits_2_before_the_threshold(self, tmp_path, monkeypatch,
                                                                   capsys, argv, message):
        monkeypatch.setattr("lrdshift.evaluate.compute_threshold", refuse_threshold)
        prefix = tmp_path / "study"
        assert run(["eval", "--sets", "1", "--sims", "1", *argv, "--out", str(prefix)]) == 2
        assert message in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    STUDY = ["eval", "--sets", "2", "--sims", "3", "--n", "1024", "--hurst", "0.8", "--scales", "5",
             "--mc-reps", "10000", "--duration-mean", "100", "--start-range", "512", "--seed", "3"]

    def test_worker_that_dies_mid_study_makes_eval_exit_1(self, tmp_path, monkeypatch, capsys,
                                                          forks):
        monkeypatch.setattr(workers, "_usable_cpus", lambda: 2)
        fail_in_worker(monkeypatch, evaluate_module, "naive_baseline", lambda *args: os._exit(3))
        assert run([*self.STUDY, "--out", str(tmp_path / "study")]) == 1
        assert capsys.readouterr().err == (
            "error: the worker process stopped before sending all of its items\n")
        assert len(forks) == 1
        assert not list(tmp_path.glob("study*"))

    def test_study_under_warnings_as_errors(self, tmp_path, monkeypatch):
        """``python -W error -m lrdshift.cli eval`` exits 0, says nothing and
        writes the files a one-process run writes."""
        monkeypatch.setattr(workers, "_usable_cpus", lambda: 1)
        assert run([*self.STUDY, "--out", str(tmp_path / "expected")]) == 0
        completed = subprocess.run(
            [sys.executable, "-W", "error", "-m", "lrdshift.cli", *self.STUDY,
             "--out", str(tmp_path / "study")],
            capture_output=True, text=True, env=lrdshift_env(), timeout=120,
        )
        assert (completed.returncode, completed.stderr) == (0, "")
        for suffix in (".csv", ".json"):
            assert ((tmp_path / f"study{suffix}").read_bytes()
                    == (tmp_path / f"expected{suffix}").read_bytes())

    def test_loads_no_scipy(self, tmp_path):
        """The study's thresholds, sampler and detectors need no scipy."""
        prefix = tmp_path / "study"
        _, result = run_probe(["eval", "--sets", "1", "--sims", "2", "--n", "1024", "--hurst", "0.8",
                               "--scales", "5", "--mc-reps", "10000", "--duration-mean", "100",
                               "--start-range", "512", "--out", str(prefix)])
        assert result["code"] == 0
        assert result["after_run"] == []


class TestStreamCommand:
    def stream(self, monkeypatch, capsys, lines, args):
        monkeypatch.setattr("sys.stdin", io.StringIO(lines))
        code = run(["stream", *args])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_zeros_emit_nothing(self, monkeypatch, capsys):
        code, out, _ = self.stream(
            monkeypatch, capsys, "0.0\n" * 50,
            ["--hurst", "0.9", "--scales", "3", "--threshold-value", "2.5"],
        )
        assert code == 0 and out == ""

    def test_spike_emitted_once_with_scale(self, monkeypatch, capsys):
        lines = "".join("0.0\n" if i != 30 else "10.0\n" for i in range(60))
        code, out, _ = self.stream(
            monkeypatch, capsys, lines,
            ["--hurst", "1.0", "--scales", "2", "--threshold-value", "6.0"],
        )
        assert code == 0
        records = [line.split(",") for line in out.splitlines()]
        assert [r[0] for r in records] == ["31"]  # 1-based index of the spike
        assert float(records[0][1]) == 10.0
        assert records[0][2] == "1"

    def test_malformed_lines_warn_and_continue(self, monkeypatch, capsys):
        code, out, err = self.stream(
            monkeypatch, capsys, "1.0\nhuh\n9.0\n",
            ["--hurst", "0.9", "--scales", "2", "--threshold-value", "2.0"],
        )
        assert code == 0
        assert "line 2" in err
        assert out.splitlines()[0].startswith("2,9.0")  # bad line not counted as a sample

    def test_non_finite_lines_warn_and_are_skipped(self, monkeypatch, capsys):
        code, out, err = self.stream(
            monkeypatch, capsys, "0\n0\nnan\n0\ninf\n100\n",
            ["--hurst", "0.9", "--scales", "1", "--threshold-value", "2"],
        )
        assert code == 0
        assert out == "4,100.0,1\n"
        warnings = err.splitlines()
        assert len(warnings) == 2
        assert "line 3: non-finite value" in warnings[0] and "line 5: non-finite value" in warnings[1]

    def test_matches_batch_detection(self, monkeypatch, capsys, spiked_series):
        """Streaming flags equal batch sliding-window flags from the same
        threshold for every position at or past the largest window."""
        _, x = spiked_series
        lines = "".join(repr(float(v)) + "\n" for v in x)
        code, out, _ = self.stream(
            monkeypatch, capsys, lines,
            ["--hurst", "0.9", "--scales", "6", "--threshold-value", "2.8"],
        )
        assert code == 0
        streamed = {int(line.split(",")[0]) for line in out.splitlines()}
        config = DetectionConfig(
            scale_config=ScaleConfig(base=2, num_scales=6, hurst=0.9),
            threshold=2.8,
            method="swa",
        )
        batch = {int(i) for i in detect(x, config).flags}
        biggest = 32
        assert {i for i in streamed if i >= biggest} == {i for i in batch if i >= biggest}
        # and in fact they agree at every position here
        assert streamed == batch

    def test_matches_detect_command(self, monkeypatch, capsys, tmp_path, spiked_series):
        """Piping a file through `stream` gives the same flags as running
        `detect --method swa` on it, when both use the same closed-form
        threshold."""
        inp, x = spiked_series
        common = ["--hurst", "0.9", "--scales", "6", "--alpha", "0.05",
                  "--threshold", "asymptotic"]
        code, out, _ = self.stream(monkeypatch, capsys, inp.read_text(), common)
        assert code == 0
        streamed = {int(line.split(",")[0]) for line in out.splitlines()}
        flags_path = tmp_path / "flags.json"
        assert run(["detect", "--in", str(inp), "--method", "swa",
                    "--out-flags", str(flags_path), *common]) == 0
        batch = set(json.loads(flags_path.read_text())["flagged_indices"])
        assert streamed == batch

    @pytest.mark.parametrize("extra", [
        ["--threshold-value", "2.2", "--format", "jsonl"],
        ["--threshold", "asymptotic", "--mean", "0.1", "--std", "0.9"],
    ], ids=["threshold-value-jsonl", "asymptotic-moments"])
    def test_lines_equal_batch_swa(self, monkeypatch, capsys, tmp_path, extra):
        """On the seeded trace every printed line holds the index, the repr of
        batch swa's statistic there and its argmax scale, and the lines are
        exactly the positions batch swa flags."""
        from lrdshift import asymptotic_threshold, standardize

        trace = tmp_path / "trace.txt"
        assert run(["synth", "--hurst", "0.9", "--n", "8192", "--seed", "7", "--out", str(trace)]) == 0
        code, out, _ = self.stream(monkeypatch, capsys, trace.read_text(),
                                   ["--hurst", "0.9", "--scales", "10", *extra])
        assert code == 0
        x = read_series(trace)
        if "--mean" in extra:
            x = standardize(x, 0.1, 0.9)[0]
            critical = asymptotic_threshold(0.05, 10).value
        else:
            critical = 2.2
        config = DetectionConfig(ScaleConfig(base=2, num_scales=10, hurst=0.9), critical, "swa")
        result = detect(x, config)
        expected = [(int(t), float(result.statistic[t - 1]), int(k))
                    for t, k in zip(result.flags, result.argmax_scale)]
        if "jsonl" in extra:  # json.dumps writes a float as its repr
            lines = [json.dumps({"index": t, "statistic": s, "argmax_scale": k}, sort_keys=True)
                     for t, s, k in expected]
        else:
            lines = [f"{t},{s!r},{k}" for t, s, k in expected]
        assert out.splitlines() == lines
        assert len(lines) > 100 and len({k for _, _, k in expected}) >= 3

    def test_jsonl_format(self, monkeypatch, capsys):
        code, out, _ = self.stream(
            monkeypatch, capsys, "0.0\n8.0\n",
            ["--hurst", "0.9", "--scales", "2", "--threshold-value", "3.0", "--format", "jsonl"],
        )
        assert code == 0
        record = json.loads(out.splitlines()[0])
        assert record["index"] == 2 and record["argmax_scale"] == 1

    def test_mean_without_std_exits_2(self, monkeypatch, capsys):
        code, _, _ = self.stream(
            monkeypatch, capsys, "0.0\n",
            ["--hurst", "0.9", "--scales", "2", "--threshold-value", "2.0", "--mean", "5.0"],
        )
        assert code == 2

    @pytest.mark.parametrize("extra,message", MOMENT_ERRORS)
    def test_usage_errors_precede_the_threshold(self, monkeypatch, capsys, extra, message):
        monkeypatch.setattr("lrdshift.cli.compute_threshold", refuse_threshold)
        code, _, err = self.stream(monkeypatch, capsys, "0.0\n", ["--hurst", "0.9", *extra])
        assert code == 2
        assert message in err

    @pytest.mark.parametrize("threshold,loads_scipy", [
        (["--threshold-value", "2.2"], False),
        (["--threshold", "asymptotic"], False),
    ])
    def test_scipy_is_loaded_only_for_a_threshold(self, threshold, loads_scipy):
        """Importing the CLI loads no scipy module, and neither does a
        stream run with a given critical value or the asymptotic one,
        whose normal quantile is the package's own.  The run loads no
        module beyond those that importing the CLI and parsing its
        arguments load: no ``array``, no ``numpy.random``, no
        ``numpy.polynomial``."""
        argv = ["stream", "--hurst", "0.9", "--scales", "2", *threshold]
        flags, result = run_probe(argv, stdin="0\n0\n100\n")
        assert result["code"] == 0
        assert flags == ["3,100.0,1"]
        assert result["after_import"] == []
        assert bool(result["after_run"]) == loads_scipy, result["after_run"]
        parsed = python_with_lrdshift(
            "import json, sys\nfrom lrdshift.cli import build_parser\n"
            "build_parser().parse_args(sys.argv[1:])\nprint(json.dumps(sorted(sys.modules)))", *argv)
        assert set(result["modules"]) - set(json.loads(parsed.stdout)) == set()
        assert "array" not in result["modules"] and "numpy.random" not in result["modules"]
        assert "numpy.polynomial" not in result["modules"]

    def test_value_the_moments_make_infinite_is_skipped(self, monkeypatch, capsys):
        """A line that --mean/--std maps to inf is warned about and skipped,
        as a non-finite line is, and the stream goes on."""
        code, out, err = self.stream(
            monkeypatch, capsys, "1\n2\n1e10\n3\n",
            ["--hurst", "0.5", "--scales", "2", "--threshold-value", "1e300",
             "--mean", "0", "--std", "1e-300"],
        )
        assert code == 0
        assert [line.split(",")[0] for line in out.splitlines()] == ["2", "3"]
        assert err == "warning: line 3: value '1e10' is not finite after --mean/--std, skipped\n"

    @pytest.mark.parametrize("extra", [
        [], ["--format", "jsonl"], ["--mean", "0.2", "--std", "0.8"],
    ], ids=["csv", "jsonl", "moments"])
    def test_stdin_bytes_match_the_per_line_oracle(self, extra):
        """On real stdin bytes, stdout and stderr equal those of the per-line
        loop over the text stream CPython makes of them, with the parsing
        worker off and on.  The bytes hold CRLF and a lone CR, blank and
        whitespace-only lines, an invalid UTF-8 byte, two-byte characters,
        nan, 1e400, sums that overflow and a last line with no newline, over
        several reads."""
        rng = np.random.default_rng(61)
        values = rng.standard_normal(4000)
        values[1500:1900] += 1.5
        specials = [b"1.0\r", b"1.5\r2", b"", b"  \t ", b"\xff", b"\xc3\xa9", b"nan", b"1e400",
                    b"1e308", b"1e308", b"-1e308", b"-1e308", b" -2.5 "]
        lines = [repr(v).encode() for v in values.tolist()]
        for i, special in enumerate(specials * 20):
            lines.insert(15 * i + 11, special)
        data = b"\n".join(lines)
        assert len(data) > 4 * _STREAM_READ and not data.endswith(b"\n")
        argv = ["--hurst", "0.8", "--scales", "6", "--threshold-value", "2.4", *extra]
        moments = {"mean": 0.2, "std": 0.8} if "--mean" in extra else {}
        out, err = stream_per_line(
            io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape",
                             newline="\n"),
            ScaleConfig(base=2, num_scales=6, hurst=0.8), 2.4,
            "jsonl" if "jsonl" in extra else "csv", **moments,
        )
        assert out.count("\n") > 100 and err.count("\n") == 7 * 20
        for cpus in (1, 2):
            stdout, stderr, (code, _, forks) = stream_probe(
                cpus, ["stream", *argv], data, PYTHONIOENCODING="utf-8:surrogateescape")
            assert (code, forks) == (0, cpus - 1)
            assert (stdout.decode(), stderr.decode()) == (out, err)

    @pytest.mark.filterwarnings("error")  # a numpy warning would reach stderr
    @pytest.mark.parametrize("extra", [[], ["--mean", "0.2", "--std", "0.8"]],
                             ids=["plain", "moments"])
    def test_reads_parsed_at_once_or_line_by_line_match_the_oracle(self, monkeypatch, capsys,
                                                                   extra):
        """stdout and stderr equal the per-line loop's whether a read parses in
        one call or falls back to the loop.  Each read holds at most one odd
        line, after an all-clean first read: ``1e-5\\x1f``, which only the
        loop's ``strip`` accepts, ``1_000``, Arabic-Indic digits and a CR,
        which both parsers accept, an invalid byte, ``1e400``, ``nan``, and
        a value that is finite but which the moments make infinite."""
        rng = np.random.default_rng(63)
        values = rng.standard_normal(9000)
        values[7000:7400] += 1.5
        lines = [repr(v).encode() for v in values.tolist()]
        odd = [b"1e-5\x1f", b"1_000", "\u0661.\u0665".encode(), b"2.5\r", b"\xff", b"1e400",
               b"nan", b"1.7e308"]
        for i, line in enumerate(odd):
            lines.insert(1000 * (i + 1), line)
        data = b"\n".join(lines) + b"\n"
        reads = [data.index(b"\n" + line + b"\n") // _STREAM_READ for line in odd]
        assert 0 < min(reads) and len(set(reads)) == len(odd)
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        code = run(["stream", "--hurst", "0.8", "--scales", "6", "--threshold-value", "2.4",
                    *extra])
        captured = capsys.readouterr()
        moments = {"mean": 0.2, "std": 0.8} if extra else {}
        out, err = stream_per_line(
            io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape",
                             newline="\n"),
            ScaleConfig(base=2, num_scales=6, hurst=0.8), 2.4, **moments,
        )
        assert code == 0
        assert (captured.out, captured.err) == (out, err)
        assert out.count("\n") > 100 and err.count("\n") == (4 if extra else 3)

    @pytest.mark.filterwarnings("error")  # a numpy warning would reach stderr
    def test_odd_lines_at_read_boundaries_match_the_oracle_worker_off_and_on(
            self, monkeypatch, forks):
        """stdout and stderr equal the per-line loop's, with the parsing worker
        off and on, when blank, unparseable, non-finite, ``--mean/--std``-
        overflowing and undecodable lines (and a two-byte character) sit at
        the ends of 16 KiB reads: each kind once as the last line of a read,
        once as the first line of the next and once across the boundary.
        Each read's warnings come before its flags, with the worker or without."""
        odd = [b"", b"  ", b"huh", b"nan", b"-1e400", b"1.7e308", b"\xff", b"\xc3\xa9"]
        rng = np.random.default_rng(64)
        values = iter(rng.standard_normal(40000) + np.repeat([0.0, 1.5], 20000))
        data = bytearray()
        for boundary, (line, start) in enumerate(itertools.product(odd, (-1, 0, 1)), start=1):
            # The odd line starts ``len(line) + 1`` bytes before the boundary
            # (its newline ends the read), at it, or one byte before it.
            at = boundary * _STREAM_READ - {-1: len(line) + 1, 0: 0, 1: 1}[start]
            while len(data) + 40 < at:
                data += repr(float(next(values))).encode() + b"\n"
            data += b"0." + b"0" * (at - len(data) - 3) + b"\n" + line + b"\n"
            assert data.index(b"\n" + line + b"\n", at - 1) == at - 1
        data = bytes(data) + b"".join(repr(float(v)).encode() + b"\n" for v in values)
        moments = {"mean": 0.2, "std": 0.8}
        expected = stream_per_line(
            io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape",
                             newline="\n"),
            ScaleConfig(base=2, num_scales=6, hurst=0.8), 2.4, **moments,
        )
        flags, warnings = (text.splitlines(keepends=True) for text in expected)
        assert len(flags) > 100 and len(warnings) == 3 * len(odd)
        # The oracle's lines in the order of the reads that complete their
        # input lines, each read's warnings before its flags.
        read_of_line = np.flatnonzero(np.frombuffer(data, np.uint8) == ord("\n")) // _STREAM_READ
        warned = [int(line.split()[2].rstrip(":")) for line in warnings]
        sample_lines = np.setdiff1d(np.arange(1, len(read_of_line) + 1), warned)

        def order(line):
            if line.startswith("warning: "):
                number = int(line.split()[2].rstrip(":"))
                return read_of_line[number - 1], 0, number
            number = sample_lines[int(line.split(",")[0]) - 1]
            return read_of_line[number - 1], 1, number

        merged = "".join(sorted(flags + warnings, key=order))
        for cpus in (1, 2):
            # stdout and stderr into one stream, to compare their order too.
            both = io.StringIO()
            monkeypatch.setattr(workers, "_usable_cpus", lambda: cpus)
            monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
            monkeypatch.setattr("sys.stdout", both)
            monkeypatch.setattr("sys.stderr", both)
            code = run(["stream", "--hurst", "0.8", "--scales", "6", "--threshold-value", "2.4",
                        "--mean", "0.2", "--std", "0.8"])
            assert code == 0
            assert both.getvalue() == merged
        assert len(forks) == 1

    def test_reads_are_pickled_only_across_the_pipe(self, monkeypatch, capsys, forks):
        """With the worker off no read is pickled or unpickled; with it on,
        this process unpickles each read the worker sends.  stdout and stderr
        are the same either way, warnings included."""
        values = np.random.default_rng(65).standard_normal(20000)
        values[9000:9400] += 2.0
        data = ("".join(repr(v) + "\n" for v in values.tolist()) + "huh\n1e400\n").encode()
        calls, dumps, loads = [], pickle.dumps, pickle.loads

        def counted_dumps(*args, **kwargs):
            calls.append("dumps")
            return dumps(*args, **kwargs)

        def counted_loads(*args, **kwargs):
            calls.append("loads")
            return loads(*args, **kwargs)

        monkeypatch.setattr(pickle, "dumps", counted_dumps)
        monkeypatch.setattr(pickle, "loads", counted_loads)
        outputs = []
        for cpus in (1, 2):
            monkeypatch.setattr(workers, "_usable_cpus", lambda: cpus)
            monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
            assert run(["stream", "--hurst", "0.8", "--scales", "6", "--threshold-value", "2.4"]) == 0
            outputs.append(capsys.readouterr())
            if cpus == 1:
                assert calls == []
        assert len(calls) > len(data) // _STREAM_READ and set(calls) == {"loads"}
        assert outputs[0] == outputs[1]
        assert outputs[0].out.count("\n") > 100 and outputs[0].err.count("\n") == 2
        assert len(forks) == 1

    @pytest.mark.parametrize("cpus", [1, 2], ids=["worker-off", "worker-on"])
    def test_read_error_exits_1_with_its_message(self, monkeypatch, capsys, forks, cpus):
        """An ``OSError`` in reading stdin, in this process or in the worker,
        ends the run with its message and exit code 1, after the flags of the
        reads before it."""

        class FailingStdin:
            encoding = "utf-8"

            def __init__(self):
                self.buffer, self.reads = self, [b"0\n0\n100\n"]

            def read1(self, size):
                if self.reads:
                    return self.reads.pop()
                raise OSError("boom")

        monkeypatch.setattr(workers, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr("sys.stdin", FailingStdin())
        code = run(["stream", "--hurst", "0.9", "--scales", "2", "--threshold-value", "2.2"])
        assert code == 1
        assert capsys.readouterr() == ("3,100.0,1\n", "error: boom\n")
        assert len(forks) == cpus - 1

    def test_strict_stdin_decoder_skips_only_the_bad_line(self):
        """Under a strict stdin decoder a byte it rejects is one warned,
        skipped line, as under the POSIX locale: the lines around it in the
        same read are still parsed and flagged."""
        results = [
            subprocess.run(
                [sys.executable, "-m", "lrdshift.cli", "stream", "--hurst", "0.9", "--scales", "2",
                 "--threshold-value", "1.5"],
                input=b"1\n5\n\xff\n2\n", capture_output=True, timeout=120,
                env=lrdshift_env(PYTHONIOENCODING=f"utf-8:{errors}"),
            )
            for errors in ("strict", "surrogateescape")
        ]
        assert results[0].returncode == results[1].returncode == 0
        assert results[0].stdout == results[1].stdout
        assert results[0].stderr == results[1].stderr
        assert [line.split(b",")[0] for line in results[0].stdout.splitlines()] == [b"2", b"3"]
        assert results[0].stderr == b"warning: line 3: cannot parse '\\udcff', skipped\n"

    def test_flag_is_written_while_stdin_is_open(self):
        """A flag is written as soon as its line has arrived, not at the end of input."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "lrdshift.cli", "stream", "--hurst", "0.9", "--scales", "2",
             "--threshold-value", "2.2"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=lrdshift_env(),
        )
        first = []
        reader = threading.Thread(target=lambda: first.append(proc.stdout.readline()), daemon=True)
        try:
            proc.stdin.write("0\n0\n100\n")
            proc.stdin.flush()
            reader.start()
            reader.join(10)
            assert first == ["3,100.0,1\n"]
        finally:
            proc.stdin.close()
            proc.wait(timeout=60)
            reader.join(10)
            proc.stdout.close()
            proc.stderr.close()
        assert proc.returncode == 0

    def test_stream_runs_in_bounded_memory(self):
        """2^17 lines at 15 scales peak below 1 MiB of traced memory, with
        stdin parsed in this process (one CPU) or in the worker: stdin is
        read a bounded piece at a time, not all at once."""
        x = synthesize_fgn(LrdModel(0.9), 1 << 17, seed=62)
        stdin = "".join(repr(v) + "\n" for v in x.tolist()).encode()
        for cpus in (1, 2):
            flags, err, (code, peak, forks) = stream_probe(
                cpus, ["stream", "--hurst", "0.9", "--threshold-value", "3.5"], stdin)
            assert (code, err, forks) == (0, b"", cpus - 1)
            assert flags, "the bound holds on a stream that writes flags"
            assert peak < 1 << 20, f"traced peak {peak} B with {cpus} CPU(s)"

    def test_short_read_is_pushed(self, monkeypatch, capsys, forks):
        """A read of ``_SHORT_BLOCK - 1`` lines is pushed sample by sample,
        which calls no ``np.frombuffer``; a read of ``_SHORT_BLOCK`` lines goes
        to ``StreamState.extend``, which does.  Either way stdout and stderr
        equal the per-line loop's."""
        calls, frombuffer = [], np.frombuffer

        def counted_frombuffer(*args, **kwargs):
            calls.append(None)
            return frombuffer(*args, **kwargs)

        monkeypatch.setattr(workers, "_usable_cpus", lambda: 1)
        monkeypatch.setattr(np, "frombuffer", counted_frombuffer)
        config = ScaleConfig(base=2, num_scales=6, hurst=0.8)
        for length, block_form in ((_SHORT_BLOCK - 1, False), (_SHORT_BLOCK, True)):
            x = synthesize_fgn(LrdModel(0.8), length, seed=60)
            x[length // 2] = 5.5
            lines = "huh\n" + "".join(f"{v!r}\n" for v in x.tolist())
            code, out, err = self.stream(monkeypatch, capsys, lines,
                                         ["--hurst", "0.8", "--scales", "6", "--threshold-value", "2"])
            assert code == 0
            assert (out, err) == stream_per_line(io.StringIO(lines), config, 2.0)
            assert out and err
            assert bool(calls) == block_form, length
        assert forks == []

    def test_closed_stdin_exits_2(self, monkeypatch, capsys):
        """Without stdin (``<&-``), ``sys.stdin`` is None."""
        monkeypatch.setattr("sys.stdin", None)
        assert run(["stream", "--hurst", "0.9", "--scales", "2", "--threshold-value", "2"]) == 2
        assert capsys.readouterr().err == "error: stdin is closed\n"

    def test_infinite_threshold_value_exits_2(self, monkeypatch, capsys):
        """An infinite critical value would never flag anything."""
        code, out, err = self.stream(
            monkeypatch, capsys, "0.0\n100.0\n",
            ["--hurst", "0.9", "--scales", "1", "--threshold-value", "inf"],
        )
        assert code == 2 and out == ""
        assert "--threshold-value must be positive and finite" in err


class TestPipelineRoundTrip:
    def test_no_command_imports_scipy(self, tmp_path):
        """Every command runs, and exits 0, in an interpreter that refuses
        to import scipy: the map and every threshold kind included."""
        series, flags = str(tmp_path / "trace.txt"), str(tmp_path / "flags.json")
        pmap = str(tmp_path / "map.csv")
        detect_args = ["detect", "--in", series, "--hurst", "0.9", "--scales", "6",
                       "--mc-reps", "10000", "--out-flags", flags]
        runs = [
            (["synth", "--hurst", "0.9", "--n", "1024", "--seed", "3", "--out", series], ""),
            (detect_args, ""),
            ([*detect_args, "--method", "swa", "--out-map", pmap], ""),
            (["map", "--in-map", pmap, "--out-svg", str(tmp_path / "map.svg")], ""),
            *[(["threshold", "--scales", "6", "--kind", kind, "--mc-reps", "10000"], "")
              for kind in ("improved", "asymptotic", "single")],
            (["eval", "--sets", "1", "--sims", "2", "--n", "1024", "--scales", "5",
              "--mc-reps", "10000", "--duration-mean", "100", "--start-range", "512",
              "--out", str(tmp_path / "study")], ""),
            (["stream", "--hurst", "0.9", "--scales", "3", "--mc-reps", "10000"], "0\n0\n100\n"),
        ]
        completed = python_with_lrdshift(NO_SCIPY_PROBE, json.dumps(runs))
        assert completed.returncode == 0, completed.stderr
        result = json.loads(completed.stdout.splitlines()[-1])
        assert result == {"codes": [0] * len(runs), "refused": []}

    def test_synth_detect_map_defaults(self, tmp_path):
        """The documented three-step pipeline runs end to end on defaults
        (smaller sizes for test speed) and is byte-identical on rerun."""
        series = tmp_path / "trace.txt"
        flags = tmp_path / "flags.json"
        pmap = tmp_path / "map.csv"
        svg = tmp_path / "map.svg"
        assert run(["synth", "--hurst", "0.9", "--n", "2048", "--seed", "3", "--out", str(series)]) == 0
        detect_args = ["detect", "--in", str(series), "--hurst", "0.9", "--scales", "8",
                       "--mc-reps", "20000", "--seed", "4",
                       "--out-flags", str(flags), "--out-map", str(pmap)]
        assert run(detect_args) == 0
        assert run(["map", "--in-map", str(pmap), "--from", "0", "--to", "512",
                    "--out-svg", str(svg)]) == 0
        snapshot = {p: p.read_bytes() for p in (series, flags, pmap, svg)}
        run(["synth", "--hurst", "0.9", "--n", "2048", "--seed", "3", "--out", str(series)])
        run(detect_args)
        run(["map", "--in-map", str(pmap), "--from", "0", "--to", "512", "--out-svg", str(svg)])
        for path, content in snapshot.items():
            assert path.read_bytes() == content, f"{path.name} changed between reruns"

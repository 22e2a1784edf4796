"""CLI behavior: formats, exit codes, determinism, stream protocol."""

import importlib
import io
import json
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lrdshift import (
    LrdModel, ScaleConfig, DetectionConfig, build_nowa, build_swa, detect,
    pvalue_map, synthesize_fgn,
)
from lrdshift.cli import _load_series, _parse_lines, main, read_pvalue_csv, read_series, write_pvalue_csv
from oracles import write_pvalue_csv_per_cell


def run(argv):
    return main(argv)


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


# Imports the CLI, runs it on argv and stdin, and prints its exit code and
# the scipy modules loaded after the import and after the run as the last
# stdout line.
SCIPY_PROBE = """
import json, sys
def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
from lrdshift.cli import main
after_import = scipy_modules()
code = main(sys.argv[1:])
print(json.dumps({"code": code, "after_import": after_import, "after_run": scipy_modules()}))
"""


def run_probe(argv, stdin=""):
    """Runs SCIPY_PROBE in a fresh interpreter; returns (stdout lines before the probe, probe)."""
    src = Path(importlib.import_module("lrdshift").__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    completed = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE, *argv],
        input=stdin, capture_output=True, text=True, env=env, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stderr == ""
    *lines, probe = completed.stdout.splitlines()
    return lines, json.loads(probe)


@pytest.fixture
def spiked_series(tmp_path):
    """A unit background with a +9 spike at position 300 (1-based)."""
    x = synthesize_fgn(LrdModel(0.9), 1024, seed=88).values.copy()
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
        direct = synthesize_fgn(LrdModel(0.7), 32, seed=1).values
        assert np.array_equal(written, direct)

    def test_invalid_hurst_exits_2_and_names_the_flag(self, tmp_path, capsys):
        code = run(["synth", "--hurst", "1.2", "--n", "8", "--out", str(tmp_path / "x")])
        assert code == 2
        assert "hurst" in capsys.readouterr().err

    def test_zero_length_exits_2(self, tmp_path):
        assert run(["synth", "--hurst", "0.5", "--n", "0", "--out", str(tmp_path / "x")]) == 2

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

    @pytest.mark.parametrize("method", ["nowa", "swa"])
    @pytest.mark.parametrize("base,scales", [("2", "6"), ("3", "5")])
    def test_map_bytes_match_per_cell_writer(self, tmp_path, method, base, scales):
        """--out-map writes the bytes of the per-cell writer; n = 1000 leaves
        a trailing partial block at the largest window in both bases."""
        x = synthesize_fgn(LrdModel(0.9), 1000, seed=12).values
        inp = tmp_path / "x.txt"
        inp.write_text("".join(repr(float(v)) + "\n" for v in x))
        map_path, expected = tmp_path / "map.csv", tmp_path / "expected.csv"
        assert run(["detect", "--in", str(inp), "--hurst", "0.9", "--scales", scales, "--base", base,
                    "--method", method, "--threshold", "asymptotic",
                    "--out-flags", str(tmp_path / "f.json"), "--out-map", str(map_path)]) == 0
        build = build_nowa if method == "nowa" else build_swa
        pyramid = build(x, ScaleConfig(base=int(base), num_scales=int(scales), hurst=0.9))
        write_pvalue_csv_per_cell(expected, pvalue_map(pyramid))
        assert map_path.read_bytes() == expected.read_bytes()
        assert b",," in expected.read_bytes()  # the case includes absent cells

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

    def test_short_series_exits_2(self, tmp_path):
        inp = tmp_path / "short.txt"
        inp.write_text("1.0\n2.0\n")
        code = run(["detect", "--in", str(inp), "--hurst", "0.9", "--scales", "8",
                    "--out-flags", str(tmp_path / "f.json")])
        assert code == 2

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

    def test_flags_only_run_never_builds_the_map(self, tmp_path, spiked_series, monkeypatch):
        def refuse(pyramid):
            raise AssertionError("p-value map built without --out-map")

        inp, _ = spiked_series
        # The package re-exports the function `detect`, which shadows the module name.
        detect_module = importlib.import_module("lrdshift.detect")
        monkeypatch.setattr(detect_module, "pvalue_map", refuse)
        monkeypatch.setattr("lrdshift.cli.pvalue_map", refuse)
        assert run(self.detect_args(inp, tmp_path / "f.json")) == 0
        monkeypatch.undo()
        monkeypatch.setattr(detect_module, "pvalue_map", refuse)
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

    @pytest.mark.parametrize("with_map,loaded", [(False, []), (True, ["scipy.special"])])
    def test_scipy_is_loaded_only_for_the_map(self, tmp_path, spiked_series, with_map, loaded):
        """A flags-only run with the Monte-Carlo threshold loads no scipy
        module; the p-value map needs scipy.special."""
        inp, _ = spiked_series
        out_map = ["--out-map", str(tmp_path / "map.csv")] if with_map else []
        _, result = run_probe(["detect", "--in", str(inp), "--hurst", "0.9", "--scales", "6",
                               "--mc-reps", "10000", "--out-flags", str(tmp_path / "f.json"),
                               *out_map])
        assert result["code"] == 0
        assert result["after_import"] == []
        assert [m for m in result["after_run"] if m in ("scipy.special", "scipy.linalg")] == loaded
        assert bool(result["after_run"]) == bool(loaded), result["after_run"]

    def test_null_flag_rate_over_scripted_loop(self, tmp_path):
        """Flag count / n on clean background fixtures stays in the
        Monte-Carlo band around alpha across a seeded loop of runs."""
        seeds, n, m, alpha = 20, 512, 5, 0.05
        rates = []
        for i in range(seeds):
            inp = tmp_path / f"fix{i}.txt"
            path = synthesize_fgn(LrdModel(0.9), n, seed=9000 + i)
            inp.write_text("".join(repr(float(v)) + "\n" for v in path.values))
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
        from lrdshift.cli import write_pvalue_csv

        write_pvalue_csv(path, np.asarray(pvalues, dtype=float))

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

    def test_empty_window_exits_2(self, tmp_path):
        map_path = tmp_path / "m.csv"
        self.write_map(map_path, np.ones((2, 4)))
        code = run(["map", "--in-map", str(map_path), "--from", "2", "--to", "2",
                    "--out-svg", str(tmp_path / "m.svg")])
        assert code == 2

    def test_deterministic_bytes(self, tmp_path):
        map_path = tmp_path / "m.csv"
        self.write_map(map_path, np.linspace(0, 1, 12).reshape(3, 4))
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        run(["map", "--in-map", str(map_path), "--out-svg", str(a)])
        run(["map", "--in-map", str(map_path), "--out-svg", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestMapCsvWriter:
    def test_bytes_match_per_cell_formatting(self, tmp_path):
        """Row-wise repr agrees with repr(float(p)) cell by cell, NaN written empty."""
        cells = [np.nan, 0.0, 1.0, 5e-324, 1e-300, 1e-05, 0.1, 0.30000000000000004]
        pvalues = np.array([cells, cells[::-1], [np.nan] * len(cells)])
        fast, slow = tmp_path / "fast.csv", tmp_path / "slow.csv"
        write_pvalue_csv(fast, pvalues)
        write_pvalue_csv_per_cell(slow, pvalues)
        assert fast.read_bytes() == slow.read_bytes()
        assert fast.read_text().splitlines()[1] == "1,,0.0,1.0,5e-324,1e-300,1e-05,0.1,0.30000000000000004"


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
            x = standardize(x, 0.1, 0.9)[0].values
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
        (["--threshold", "asymptotic"], True),
    ])
    def test_scipy_is_loaded_only_for_a_threshold(self, threshold, loads_scipy):
        """Importing the CLI loads no scipy module, and neither does a
        stream run with a given critical value; the asymptotic one needs it."""
        flags, result = run_probe(
            ["stream", "--hurst", "0.9", "--scales", "2", *threshold], stdin="0\n0\n100\n"
        )
        assert result["code"] == 0
        assert flags == ["3,100.0,1"]
        assert result["after_import"] == []
        assert bool(result["after_run"]) == loads_scipy, result["after_run"]

    def test_infinite_threshold_value_exits_2(self, monkeypatch, capsys):
        """An infinite critical value would never flag anything."""
        code, out, err = self.stream(
            monkeypatch, capsys, "0.0\n100.0\n",
            ["--hurst", "0.9", "--scales", "1", "--threshold-value", "inf"],
        )
        assert code == 2 and out == ""
        assert "--threshold-value must be positive and finite" in err


class TestPipelineRoundTrip:
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

"""Seeded CLI outputs pinned byte for byte.

Each expected value is the first 16 hex digits of the output file's sha256.
A change that alters one of them changes a seeded result and must say so.
Each command that computes a Monte-Carlo threshold runs twice in one cache
directory: first cold, then from the cached threshold, with the simulation
refused.  Both runs must give the pinned bytes.
"""

import hashlib
import io

import pytest

from lrdshift.cli import main


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def refuse_improved_threshold(query):
    raise AssertionError("the second run computed the Monte-Carlo threshold again")


def cold_and_warm(monkeypatch, run):
    """The result of ``run()`` without a cached threshold, then with one."""
    cold = run()
    monkeypatch.setattr("lrdshift.thresholds.improved_threshold", refuse_improved_threshold)
    return cold, run()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A directory holding ``trace.txt`` from ``synth --hurst 0.9 --n 8192 --seed 7``."""
    path = tmp_path_factory.mktemp("golden")
    trace = path / "trace.txt"
    assert main(["synth", "--hurst", "0.9", "--n", "8192", "--seed", "7", "--out", str(trace)]) == 0
    return path


def test_synth(workdir):
    assert digest((workdir / "trace.txt").read_bytes()) == "5db496848b1ef590"


def test_detect_swa_improved(workdir, monkeypatch):
    flags = workdir / "d_swa_imp.json"

    def run():
        code = main(["detect", "--in", str(workdir / "trace.txt"), "--hurst", "0.9", "--method",
                     "swa", "--scales", "12", "--seed", "1", "--out-flags", str(flags)])
        return code, digest(flags.read_bytes())

    assert cold_and_warm(monkeypatch, run) == ((0, "bf991ccb1a524b7c"),) * 2


def test_detect_nowa_asymptotic(workdir):
    flags = workdir / "d_nowa_asy.json"
    code = main(["detect", "--in", str(workdir / "trace.txt"), "--hurst", "0.9", "--method", "nowa",
                 "--scales", "12", "--threshold", "asymptotic", "--out-flags", str(flags)])
    assert code == 0
    assert digest(flags.read_bytes()) == "0473fa211e4eb5b0"


@pytest.mark.parametrize("method,expected", [
    ("swa", ("bf991ccb1a524b7c", "7a6fccc67ef07a86")),
    ("nowa", ("3cdb0a5c383eec8f", "56bdab9e996ab08c")),
])
def test_detect_map(method, expected, workdir, monkeypatch):
    flags, pvalues = workdir / f"m_{method}.json", workdir / f"m_{method}.csv"

    def run():
        code = main(["detect", "--in", str(workdir / "trace.txt"), "--hurst", "0.9", "--method",
                     method, "--scales", "12", "--seed", "1", "--out-flags", str(flags),
                     "--out-map", str(pvalues)])
        return code, digest(flags.read_bytes()), digest(pvalues.read_bytes())

    assert cold_and_warm(monkeypatch, run) == ((0, *expected),) * 2


@pytest.mark.parametrize("method,base,scales,expected", [
    ("nowa", "3", "6", ("b74b905eb8e36eae", "5b3d486e743984ca")),
    ("swa", "3", "6", ("af940891d7016615", "2a3a325810d52a6f")),
    ("nowa", "10", "4", ("b9d5104ba40b2d4f", "6495f0d45fb1f9f7")),
    ("swa", "10", "4", ("1f4ff6889bfc55c2", "999192a7ac66eb26")),
])
def test_detect_map_base(method, base, scales, expected, workdir):
    """The flags and the map at bases other than 2, where a level is summed
    from more than two windows of the level below."""
    flags, pvalues = (workdir / f"b{base}_{method}{suffix}" for suffix in (".json", ".csv"))
    assert main(["detect", "--in", str(workdir / "trace.txt"), "--hurst", "0.9", "--method", method,
                 "--base", base, "--scales", scales, "--threshold", "asymptotic",
                 "--out-flags", str(flags), "--out-map", str(pvalues)]) == 0
    assert (digest(flags.read_bytes()), digest(pvalues.read_bytes())) == expected


@pytest.mark.parametrize("argv,expected", [
    (["--kind", "improved", "--scales", "12", "--hurst", "0.85", "--seed", "3"], "20f7f115f801e556"),
    (["--kind", "asymptotic", "--scales", "12"], "5ba979ef415f3c0d"),
    (["--kind", "single", "--scales", "12"], "566a9b670783d6bf"),
])
def test_threshold(argv, expected, capsys, monkeypatch):
    def run():
        return main(["threshold", *argv]), digest(capsys.readouterr().out.encode())

    assert cold_and_warm(monkeypatch, run) == ((0, expected),) * 2


def test_stream_monte_carlo(workdir, monkeypatch, capsys):
    def run():
        monkeypatch.setattr("sys.stdin", io.StringIO((workdir / "trace.txt").read_text()))
        code = main(["stream", "--hurst", "0.9", "--scales", "10", "--seed", "2"])
        return code, digest(capsys.readouterr().out.encode())

    assert cold_and_warm(monkeypatch, run) == ((0, "50fe070e70625bd0"),) * 2


def test_stream_jsonl(workdir, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO((workdir / "trace.txt").read_text()))
    code = main(["stream", "--hurst", "0.9", "--scales", "10", "--threshold-value", "2.2",
                 "--format", "jsonl"])
    assert code == 0
    assert digest(capsys.readouterr().out.encode()) == "f5b5b5a146f54e88"


def test_stream_csv_asymptotic_with_moments(workdir, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO((workdir / "trace.txt").read_text()))
    code = main(["stream", "--hurst", "0.9", "--scales", "10", "--threshold", "asymptotic",
                 "--mean", "0.1", "--std", "0.9"])
    assert code == 0
    assert digest(capsys.readouterr().out.encode()) == "e84b9231a4ee446c"


def test_eval(tmp_path, monkeypatch):
    prefix = tmp_path / "ev"

    def run():
        code = main(["eval", "--sets", "2", "--sims", "3", "--n", "2048", "--hurst", "0.8",
                     "--scales", "8", "--mc-reps", "20000", "--start-range", "1024",
                     "--duration-mean", "100", "--seed", "4", "--out", str(prefix)])
        return (code, digest(prefix.with_suffix(".csv").read_bytes()),
                digest(prefix.with_suffix(".json").read_bytes()))

    assert cold_and_warm(monkeypatch, run) == ((0, "f0d1b6108aef6421", "f07d0eeae4a252a0"),) * 2


@pytest.mark.parametrize("argv,expected", [
    (["--scales", "8", "--method", "nowa", "--seed", "4"],
     ("7a4c47d34de13e62", "8ad2ebb2a61c46db")),
    (["--scales", "6", "--base", "3", "--seed", "5"],
     ("cd3d54f37d6bc7fe", "f79054760aa1e720")),
])
def test_eval_layout(argv, expected, tmp_path, monkeypatch):
    prefix = tmp_path / "ev"

    def run():
        code = main(["eval", "--sets", "2", "--sims", "3", "--n", "2048", "--hurst", "0.8",
                     "--mc-reps", "20000", "--start-range", "1024", "--duration-mean", "100",
                     *argv, "--out", str(prefix)])
        return (code, digest(prefix.with_suffix(".csv").read_bytes()),
                digest(prefix.with_suffix(".json").read_bytes()))

    assert cold_and_warm(monkeypatch, run) == ((0, *expected),) * 2


@pytest.mark.parametrize("method,expected", [
    ("swa", ("7a6fccc67ef07a86", "9a4be4ff9d33f448")),
    ("nowa", ("56bdab9e996ab08c", "71213b81465bb5c9")),
])
def test_map_svg(method, expected, workdir):
    """``map`` renders the pinned map of ``test_detect_map`` to pinned SVG bytes.

    The map does not depend on the threshold, so the asymptotic one makes it
    without a Monte-Carlo run.  The window starts before scale 12's first
    ``swa`` window ends, so it holds missing cells too.
    """
    flags, pvalues, svg = (workdir / f"svg_{method}{suffix}" for suffix in (".json", ".csv", ".svg"))
    assert main(["detect", "--in", str(workdir / "trace.txt"), "--hurst", "0.9", "--method", method,
                 "--scales", "12", "--threshold", "asymptotic", "--out-flags", str(flags),
                 "--out-map", str(pvalues)]) == 0
    assert main(["map", "--in-map", str(pvalues), "--from", "1900", "--to", "2300",
                 "--out-svg", str(svg)]) == 0
    assert (digest(pvalues.read_bytes()), digest(svg.read_bytes())) == expected

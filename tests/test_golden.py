"""Seeded CLI outputs pinned byte for byte.

Each expected value is the first 16 hex digits of the output file's sha256.
A change that alters one of them changes a seeded result and must say so.
"""

import hashlib
import io

import pytest

from lrdshift.cli import main


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A directory holding ``trace.txt`` from ``synth --hurst 0.9 --n 8192 --seed 7``."""
    path = tmp_path_factory.mktemp("golden")
    trace = path / "trace.txt"
    assert main(["synth", "--hurst", "0.9", "--n", "8192", "--seed", "7", "--out", str(trace)]) == 0
    return path


def test_synth(workdir):
    assert digest((workdir / "trace.txt").read_bytes()) == "b49a884a638b69a4"


def test_detect_swa_improved(workdir):
    flags = workdir / "d_swa_imp.json"
    code = main(["detect", "--in", str(workdir / "trace.txt"), "--hurst", "0.9", "--method", "swa",
                 "--scales", "12", "--seed", "1", "--out-flags", str(flags)])
    assert code == 0
    assert digest(flags.read_bytes()) == "bf991ccb1a524b7c"


def test_detect_nowa_asymptotic(workdir):
    flags = workdir / "d_nowa_asy.json"
    code = main(["detect", "--in", str(workdir / "trace.txt"), "--hurst", "0.9", "--method", "nowa",
                 "--scales", "12", "--threshold", "asymptotic", "--out-flags", str(flags)])
    assert code == 0
    assert digest(flags.read_bytes()) == "25212c31fe365713"


@pytest.mark.parametrize("argv,expected", [
    (["--kind", "improved", "--scales", "12", "--hurst", "0.85", "--seed", "3"], "20f7f115f801e556"),
    (["--kind", "asymptotic", "--scales", "12"], "6d05266d6e53714c"),
    (["--kind", "single", "--scales", "12"], "58b09177c32090ca"),
])
def test_threshold(argv, expected, capsys):
    assert main(["threshold", *argv]) == 0
    assert digest(capsys.readouterr().out.encode()) == expected


def test_stream_monte_carlo(workdir, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO((workdir / "trace.txt").read_text()))
    code = main(["stream", "--hurst", "0.9", "--scales", "10", "--seed", "2"])
    assert code == 0
    assert digest(capsys.readouterr().out.encode()) == "004c64cb837b7e52"


def test_stream_jsonl(workdir, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO((workdir / "trace.txt").read_text()))
    code = main(["stream", "--hurst", "0.9", "--scales", "10", "--threshold-value", "2.2",
                 "--format", "jsonl"])
    assert code == 0
    assert digest(capsys.readouterr().out.encode()) == "facaf86fc2e357d7"


def test_stream_csv_asymptotic_with_moments(workdir, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO((workdir / "trace.txt").read_text()))
    code = main(["stream", "--hurst", "0.9", "--scales", "10", "--threshold", "asymptotic",
                 "--mean", "0.1", "--std", "0.9"])
    assert code == 0
    assert digest(capsys.readouterr().out.encode()) == "0ff996caa7675884"


def test_eval(tmp_path):
    prefix = tmp_path / "ev"
    code = main(["eval", "--sets", "2", "--sims", "3", "--n", "2048", "--hurst", "0.8",
                 "--scales", "8", "--mc-reps", "20000", "--start-range", "1024",
                 "--duration-mean", "100", "--seed", "4", "--out", str(prefix)])
    assert code == 0
    assert digest(prefix.with_suffix(".csv").read_bytes()) == "f0d1b6108aef6421"
    assert digest(prefix.with_suffix(".json").read_bytes()) == "f07d0eeae4a252a0"

"""Smoke tests for the runnable scripts in scripts/."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_demo_pipeline_writes_its_outputs(tmp_path):
    completed = subprocess.run(
        [sys.executable, str(SCRIPTS / "demo_pipeline.py"), "--workdir", str(tmp_path),
         "--n", "4096", "--scales", "8", "--start", "1000", "--duration", "500"],
        capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    for name in ("trace.txt", "shifted.txt", "flags.json", "map.csv", "map.svg"):
        assert (tmp_path / name).stat().st_size > 0, name

"""Smoke test of the benchmark: every workload at small sizes, traced and checked."""

import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def test_smoke_mode_passes_its_checks_and_reports_every_layer_metric():
    proc = subprocess.run([sys.executable, str(RUN), "--smoke"], capture_output=True,
                          text=True, timeout=120, cwd=RUN.parent.parent)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1].startswith("smoke: ok")

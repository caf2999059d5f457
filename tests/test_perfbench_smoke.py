"""The benchmark's smoke run stays in step with the library.

``perfbench/run.py --smoke`` runs a tiny instance of every workload, traced
and untraced, and fails when a wrapped library name, a wrapper's calls or
a declared metric has gone missing; a rename in ``src/romgrid`` shows up
here instead of in the next benchmark run.
"""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_perfbench_smoke_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "smoke: ok" in proc.stdout

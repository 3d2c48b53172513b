"""The benchmark's own self-test, run as a test of the package: perfbench
wraps and reads package names (entry points, EfpRequest,
DEFAULT_EPS_SCHEDULE), and a rename or deletion there would otherwise
show only when the benchmark runs."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "self-test passed" in proc.stdout

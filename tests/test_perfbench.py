import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    # the benchmark wraps `harness`'s search attributes and
    # `selection.solve_jcr` by name; a change to what it wraps fails here
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-4000:]
    assert proc.stdout.rstrip().endswith("selftest passed"), proc.stdout[-2000:]

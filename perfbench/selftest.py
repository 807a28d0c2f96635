#!/usr/bin/env python3
"""Self-test of the benchmark; exits 0 when every check holds.

    python3 perfbench/selftest.py

1. A tiny run of every workload, untraced and traced, prints a last line
   with exactly the keys correct/attempted/failed/metrics, is correct, and
   emits exactly the metric names and units that BENCHMARK.json lists.
2. A sweep whose records.csv carries a heuristic above exhaustive search
   is counted as a failed operation.
3. In a directory holding only BENCHMARK.json and perfbench/, the
   benchmark exits non-zero without printing a result.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def check_metric_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in run.WORKLOADS:
        for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
            proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                         "--trace", trace, "--size", "tiny")
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0, proc.stderr
            assert result["attempted"] >= 1
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            listed = {m["name"]: m["unit"] for m in spec[group]}
            assert emitted == listed, (workload, trace, set(emitted) ^ set(listed))
            print(f"ok: {workload} --trace {trace} emits all {len(listed)} {group} metrics")


def check_corrupt_record_counted():
    run.load_library()
    from fluidmimo import cli

    wl = run.WORKLOADS["fig-ports"]
    wl = run.replace(wl, **run.TINY[wl.name], **run.TINY_COMMON)
    write = cli.write_records_csv

    def write_corrupted(path, sweep_var, records):
        write(path, sweep_var, records)
        with open(path) as fh:
            lines = fh.read().splitlines()
        best = max(float(line.split(",")[4]) for line in lines[1:])
        row = next(i for i, line in enumerate(lines) if ",jcr-ao," in line)
        cells = lines[row].split(",")
        cells[4] = repr(best + 1.0)
        lines[row] = ",".join(cells)
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")

    run.WORK.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(dir=run.WORK))
    tally = run.Tally()
    cli.write_records_csv = write_corrupted
    try:
        assert run.run_sweep_once(wl, 3, 0, out_dir, tally) is None
    finally:
        cli.write_records_csv = write
        shutil.rmtree(out_dir)
    assert tally.attempted == 1 and len(tally.problems) == 1, tally.problems
    assert "above exhaustive" in tally.problems[0], tally.problems
    print("ok: a heuristic above exhaustive search is counted as failed")


def check_fails_without_source():
    run.WORK.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=run.WORK))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", "fig-snr", "--seed", "3", "--seconds", "1", "--trace", "0",
                     cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0, proc.stdout
    assert "correct" not in proc.stdout, proc.stdout
    print("ok: without src/ the benchmark exits", proc.returncode, "and prints no result")


if __name__ == "__main__":
    check_corrupt_record_counted()
    check_fails_without_source()
    check_metric_names()
    print("selftest passed")

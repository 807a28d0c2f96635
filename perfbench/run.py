#!/usr/bin/env python3
"""fluidmimo benchmark: figure sweeps, large-N selection latency and
per-module traced timings.

Usage, from the root of a checkout (fluidmimo is imported from ./src):

    python3 perfbench/run.py --workload fig-ports --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload fig-snr --seed 1 --seconds 45 --trace 1
    python3 perfbench/selftest.py        # tiny run of every workload and mode

--seed makes every input: sweep master seeds and channel seeds derive from
it, so one seed always gives the same inputs. --seconds is the measured
time. --trace 0 prints the end-to-end metrics; --trace 1 runs the workload
untraced and traced in turn (sweeps, or single decisions) and prints the
per-layer metrics, including the tracing overhead, and writes the spans to
.perfbench_work/. The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics. The benchmark sets no BLAS or
OpenMP thread variable; the host block reports the ones it finds.

Workloads (M = 2 antennas per side, SNR 5 dB, W = 0.5 unless varied):

  fig-ports   The paper's headline figure: `fluidmimo sweep --variable ports
              --values 5,10,15,20 --threads 2`, all five algorithms, run
              in-process as closed batches of 20 trials per point. The only
              workload that drives the process pool. Between sweeps, jcr-ao /
              jcr-res decisions one at a time at N = 20.
  fig-snr     `fluidmimo sweep --variable snr --values=-5,0,5,10,15 --n 10
              --threads 1`, all five algorithms, 20 trials. Serial, so
              relaxation and caching gains are not blurred by the pool; all
              five points of a trial share one channel, so each trial solves
              10 LPs of which 1 is distinct. Decisions at N = 10 in between.
  select-n40  Online port choice within a coherence time: one caller in a
              closed loop runs jcr_ao then jcr_res on pre-generated N = 40
              channels (160 ports, 6400 LP edges). No exhaustive search and
              no harness.

Only fig-ports and fig-snr are in BENCHMARK.json. On a 2-core x86 host
with OpenBLAS 0.3.31 and its default two threads, an N = 40 LP takes
70-600 ms, fast and slow calls alternating (20-40 ms with one thread), so
the p50/p90 of select-n40 moved by 15-50% between runs of ~100 decisions,
even with one seed: too unsteady to gate a change. Run it by hand and
compare medians of many runs.

Expected shape of the baseline on that host, as shares of the time spent
in trials (--trace 1, share.*): fig-ports ~60% exhaustive search (160k
combinations per trial at N = 20), ~25% solve_jcr, ~8% capacity(); fig-snr
~47% solve_jcr, ~28% exhaustive search, ~12% capacity(); select-n40 ~92%
solve_jcr and ~5% capacity(), where jcr_ao makes ~320 capacity() calls per
channel. Tracing costs 1-5% of trials_per_s.

End-to-end metrics (--trace 0): setup_s (median of the in-process set-up
and of fresh-process set-ups: import of fluidmimo, input generation, one
warm-up decision); trials_per_s (channel realizations fully processed per
second: median over sweeps of point-trials per second on fig-ports, trials
of five SNR points on fig-snr, decision pairs on select-n40);
jcr_{ao,res}_ms_p{50,90} (per-decision latency, at least 100 samples);
peak_rss_mb (this process plus its largest worker child); success_frac
(1 - failed/attempted); ratio_* (mean per-trial capacity over exhaustive
capacity from the first six sweeps; on select-n40 over the best of the four
heuristics on the first 50 channels, as exhaustive search at N = 40 needs
2.56M combinations per channel); mean_bits_jcr_{ao,res} on the same sets.
"""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

ALGORITHMS = ("exhaustive", "jcr-res", "jcr-ao", "random", "conventional")
HEURISTICS = ("jcr-ao", "jcr-res", "random", "conventional")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SNR_DB = 5.0
W = 0.5


@dataclass(frozen=True)
class Workload:
    name: str
    variable: str = None         # swept quantity; None: no sweep phase
    values: tuple = ()
    n: int = 10                  # ports per antenna when not swept
    trials: int = 20             # trials per sweep point
    threads: int = 1
    decision_n: int = 40         # ports per antenna in the decision loop
    sweep_share: float = 0.6     # share of --seconds spent on sweeps
    quality_sweeps: int = 6
    min_decisions: int = 100     # p90 with ten samples beyond it
    quality_decisions: int = 50
    setup_probes: int = 4

    @property
    def units_per_sweep(self):
        """Channel realizations per sweep (SNR points share one per trial)."""
        return self.trials if self.variable == "snr" else self.trials * len(self.values)


WORKLOADS = {
    "fig-ports": Workload("fig-ports", "ports", ("5", "10", "15", "20"), threads=2, decision_n=20),
    "fig-snr": Workload("fig-snr", "snr", ("-5", "0", "5", "10", "15"), n=10, decision_n=10),
    "select-n40": Workload("select-n40", decision_n=40),
}

TINY = {
    "fig-ports": dict(values=("3", "4"), trials=2),
    "fig-snr": dict(values=("-5", "5"), n=3, trials=2, decision_n=3),
    "select-n40": dict(decision_n=6),
}
TINY_COMMON = dict(quality_sweeps=1, min_decisions=4, quality_decisions=3, setup_probes=1)

# name -> unit; the order of the printed metrics
END_TO_END = {
    "setup_s": "s", "trials_per_s": "1/s",
    "jcr_ao_ms_p50": "ms", "jcr_ao_ms_p90": "ms", "jcr_res_ms_p50": "ms", "jcr_res_ms_p90": "ms",
    "peak_rss_mb": "MB", "success_frac": "frac",
    "ratio_jcr_ao": "frac", "ratio_jcr_res": "frac", "ratio_random": "frac",
    "ratio_conventional": "frac", "mean_bits_jcr_ao": "bit/s/Hz", "mean_bits_jcr_res": "bit/s/Hz",
}
PER_LAYER = {
    "selection.exhaustive_search.busy_s": "s",
    "selection.exhaustive_search.combinations": "count",
    "selection.exhaustive_search.ns_per_combination": "ns",
    "relaxation.solve_jcr.calls": "count",
    "relaxation.solve_jcr.busy_s": "s",
    "relaxation.solve_jcr.ms_p50": "ms",
    "relaxation.solve_jcr.unique_frac": "frac",
    "ipm.iterations_mean": "count",
    "ipm.iterations_max": "count",
    "ipm.ms_per_iteration": "ms",
    "ipm.failures": "count",
    "capacity.capacity.calls": "count",
    "capacity.capacity.busy_s": "s",
    "capacity.capacity.us_p50": "us",
    "selection.jcr_ao.self_s": "s",
    "selection.jcr_ao.evaluations": "count",
    "selection.jcr_ao.sweeps_mean": "count",
    "selection.jcr_res.self_s": "s",
    "selection.jcr_res.combinations": "count",
    "channel.generate_channel.calls": "count",
    "channel.generate_channel.busy_s": "s",
    "channel.generate_channel.unique_frac": "frac",
    "harness.run_sweep.busy_s": "s",
    "harness.self_s": "s",
    "harness.worker_busy_frac": "frac",
    "reporting.write_s": "s",
    "reporting.bytes": "bytes",
    "cli.self_s": "s",
    "share.exhaustive_search": "frac",
    "share.solve_jcr": "frac",
    "share.capacity": "frac",
    "tracing.trials_per_s": "1/s",
    "tracing.untraced_trials_per_s": "1/s",
    "tracing.overhead_frac": "frac",
    "tracing.peak_rss_mb": "MB",
}


class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.problems = []

    def fail(self, message):
        self.problems.append(message)
        print(f"check failed: {message}", file=sys.stderr)


def load_library():
    """Import fluidmimo from this checkout's src/; exit 2 if it is not there."""
    package = SRC / "fluidmimo"
    if not (package / "__init__.py").is_file():
        print(f"error: no fluidmimo package at {package}; run from a checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import fluidmimo

    if Path(fluidmimo.__file__).resolve().parent != package.resolve():
        print(f"error: imported fluidmimo from {fluidmimo.__file__}, not {package}",
              file=sys.stderr)
        sys.exit(2)


def derive_seed(seed, stream, index):
    import numpy as np

    return int(np.random.SeedSequence((seed, stream, index)).generate_state(1, np.uint64)[0])


class Decisions:
    """Channels of the decision loop: the first `min_decisions` are made in
    set-up, later ones on demand outside the timed calls."""

    def __init__(self, wl, seed):
        from fluidmimo.channel import FluidMimoConfig

        self.config = FluidMimoConfig(m_r=2, m_t=2, n_r=wl.decision_n, n_t=wl.decision_n,
                                      snr_db=SNR_DB, w=W)
        self.seed = seed
        self.channels = []
        self.channel(wl.min_decisions - 1)

    def channel(self, index):
        from fluidmimo.channel import generate_channel

        while len(self.channels) <= index:
            self.channels.append(
                generate_channel(self.config, derive_seed(self.seed, 0, len(self.channels))))
        return self.channels[index]

    def warm_up(self):
        from fluidmimo import channel, selection

        ch = channel.generate_channel(self.config, derive_seed(self.seed, 2, 0))
        selection.jcr_ao(ch, self.config.rho)
        selection.jcr_res(ch, self.config.rho)


def setup(wl, seed):
    """Everything before the first timed call; returns (seconds, inputs)."""
    start = time.perf_counter()
    load_library()
    from fluidmimo import cli  # noqa: F401  (the sweeps' entry point)

    decisions = Decisions(wl, seed)
    decisions.warm_up()
    return time.perf_counter() - start, decisions


def host_block(seed):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "seed": seed,
    }


# ---------------------------------------------------------------- checks


def check_records(path, wl):
    """Problems with one sweep's records.csv, and its rows as
    {(point, trial, algorithm): capacity}."""
    problems = []
    rows = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            key = (float(row["point_value"]), int(row["trial"]), row["algorithm"])
            if key in rows:
                problems.append(f"{path}: duplicate row {key}")
            rows[key] = float(row["capacity_bits"])
    expected = {(float(v), t, a) for v in wl.values for t in range(wl.trials) for a in ALGORITHMS}
    if set(rows) != expected:
        problems.append(f"{path}: {len(rows)} rows, {len(expected)} expected, "
                        f"{len(expected - set(rows))} missing, {len(set(rows) - expected)} extra")
    for (point, trial, algo), cap in rows.items():
        best = rows.get((point, trial, "exhaustive"))
        if algo != "exhaustive" and best is not None and cap > best + 1e-9 * abs(best):
            problems.append(f"{path}: {algo} at point {point} trial {trial} reaches {cap!r} "
                            f"bits, above exhaustive {best!r}")
    return problems, rows


def ratio_stats(rows):
    """Mean per-trial ratio to exhaustive, and mean capacity, per heuristic.
    Row keys end with the algorithm; the rest identifies the trial."""
    ratios = {a: [] for a in HEURISTICS}
    bits = {a: [] for a in HEURISTICS}
    for key, cap in rows.items():
        if key[-1] == "exhaustive":
            continue
        bits[key[-1]].append(cap)
        best = rows[key[:-1] + ("exhaustive",)]
        if best > 0:
            ratios[key[-1]].append(cap / best)
    return ({a: mean(v) for a, v in ratios.items()}, {a: mean(v) for a, v in bits.items()})


# ---------------------------------------------------------------- phases


def sweep_argv(wl, seed, k, out_dir):
    return ["sweep", "--variable", wl.variable, "--values=" + ",".join(wl.values),
            "--m", "2", "--n", str(wl.n), "--threads", str(wl.threads),
            "--trials", str(wl.trials), "--master-seed", str(derive_seed(seed, 1, k)),
            "--out-dir", str(out_dir)]


def run_sweep_once(wl, seed, k, out_dir, tally):
    """One CLI sweep; returns (seconds, records sha256, rows) or None."""
    from fluidmimo import cli

    tally.attempted += 1
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            rc = cli.main(sweep_argv(wl, seed, k, out_dir))
            seconds = time.perf_counter() - start
    except Exception:
        tally.fail(f"sweep {k} raised:\n{traceback.format_exc()}")
        return None
    if rc != 0:
        tally.fail(f"sweep {k}: the CLI returned {rc}")
        return None
    records = out_dir / "records.csv"
    problems, rows = check_records(records, wl)
    if problems:
        tally.fail(f"sweep {k}: " + "; ".join(problems[:5]))
        return None
    return seconds, hashlib.sha256(records.read_bytes()).hexdigest(), rows


class DecisionLoop:
    """jcr_ao then jcr_res per channel, one at a time, in a closed loop.
    Samples accumulate over calls to `run` as (channel, ms, capacity)."""

    def __init__(self, decisions):
        self.decisions = decisions
        self.samples = {"jcr-ao": [], "jcr-res": []}
        self.channels = 0

    def run(self, seconds, min_count, tally):
        from fluidmimo import selection
        from fluidmimo.capacity import capacity, extract_effective
        from fluidmimo.ipm import IpmFailure

        rho = self.decisions.config.rho
        deadline = time.perf_counter() + seconds
        count = 0
        while count < min_count or time.perf_counter() < deadline:
            i = self.channels
            ch = self.decisions.channel(i)
            for algo, fn in (("jcr-ao", selection.jcr_ao), ("jcr-res", selection.jcr_res)):
                tally.attempted += 1
                start = time.perf_counter()
                try:
                    res = fn(ch, rho)
                except IpmFailure as exc:
                    tally.fail(f"{algo} on channel {i}: {exc}")
                    continue
                ms = (time.perf_counter() - start) * 1e3
                if capacity(extract_effective(ch, res.selection), rho) != res.capacity_bits:
                    tally.fail(f"{algo} on channel {i}: capacity of the selection differs "
                               f"from the reported {res.capacity_bits!r}")
                    continue
                self.samples[algo].append((i, ms, res.capacity_bits))
            self.channels += 1
            count += 1

    def ms(self, algo):
        return [ms for _, ms, _ in self.samples[algo]]

    def rate(self):
        """Channels per second of decision time."""
        busy = sum(sum(self.ms(algo)) for algo in self.samples) / 1e3
        return self.channels / busy if busy > 0 else 0.0

    def quality(self, count):
        """Ratios to the best of the four heuristics on the first `count`
        channels, and the mean capacities of the jcr decisions there."""
        from fluidmimo import selection

        rho = self.decisions.config.rho
        caps = {algo: {i: cap for i, _, cap in self.samples[algo] if i < count}
                for algo in self.samples}
        rows = {}
        for i in sorted(set(caps["jcr-ao"]) & set(caps["jcr-res"])):
            ch = self.decisions.channel(i)
            trial = {
                "jcr-ao": caps["jcr-ao"][i],
                "jcr-res": caps["jcr-res"][i],
                "random": selection.random_selection(
                    ch, rho, seed=derive_seed(self.decisions.seed, 3, i)).capacity_bits,
                "conventional": selection.conventional_mimo(ch, rho).capacity_bits,
            }
            trial["exhaustive"] = max(trial.values())
            rows.update({(i, algo): cap for algo, cap in trial.items()})
        return ratio_stats(rows)


def peak_rss_mb():
    """Peak RSS of this process plus that of its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def setup_probe_times(wl, seed, size):
    """Set-up seconds measured in fresh interpreters."""
    times = []
    for _ in range(wl.setup_probes):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", wl.name,
             "--seed", str(seed), "--size", size, "--setup-probe"],
            capture_output=True, text=True, timeout=150, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def percentile(values, q):
    """q-th percentile (q in 1..99) by statistics.quantiles."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


def median(values):
    return statistics.median(values) if values else 0.0


def mean(values):
    return statistics.fmean(values) if values else 0.0


# ---------------------------------------------------------------- modes


def measure(wl, seed, seconds, size, setup_s, decisions, out_dir, tally):
    """The untraced run: every end-to-end metric."""
    values = {}
    loop = DecisionLoop(decisions)
    if wl.variable is not None:
        # decision blocks between the sweeps, so that both sample the whole
        # window; a slow spell of the host then shifts neither alone
        deadline = time.perf_counter() + seconds
        sweeps = []
        while len(sweeps) < wl.quality_sweeps or time.perf_counter() < deadline:
            sweeps.append(run_sweep_once(wl, seed, len(sweeps), out_dir, tally))
            if sweeps[-1] is not None:
                loop.run(sweeps[-1][0] * (1.0 - wl.sweep_share) / wl.sweep_share, 0, tally)
        loop.run(0.0, wl.min_decisions - loop.channels, tally)
        done = [s for s in sweeps if s is not None]
        values["trials_per_s"] = median([wl.units_per_sweep / s for s, _, _ in done])
        rows = {}
        for k, sweep in enumerate(sweeps[:wl.quality_sweeps]):
            if sweep is not None:
                rows.update({(k, *key): cap for key, cap in sweep[2].items()})
        ratios, bits = ratio_stats(rows)
        # the first sweep again: records.csv must be byte-identical
        again = run_sweep_once(wl, seed, 0, out_dir, tally)
        if sweeps[0] is not None and again is not None:
            print(f"records.csv sha256 (sweep 0): {sweeps[0][1]}")
            if again[1] != sweeps[0][1]:
                tally.fail(f"sweep 0 repeated gives records.csv sha256 {again[1]}, "
                           f"first {sweeps[0][1]}")
    else:
        loop.run(seconds, wl.min_decisions, tally)
        values["trials_per_s"] = loop.rate()
        ratios, bits = loop.quality(wl.quality_decisions)
    for algo in ("jcr-ao", "jcr-res"):
        ms = loop.ms(algo)
        print(f"{algo} decisions at N={wl.decision_n}: {len(ms)} samples")
        key = algo.replace("-", "_")
        values[f"{key}_ms_p50"] = median(ms)
        values[f"{key}_ms_p90"] = percentile(ms, 90)
    values["peak_rss_mb"] = peak_rss_mb()
    setups = [setup_s] + setup_probe_times(wl, seed, size)
    print("setup seconds: " + ", ".join(f"{s:.4f}" for s in setups))
    values["setup_s"] = median(setups)
    values["success_frac"] = 1.0 - len(tally.problems) / max(1, tally.attempted)
    for algo in HEURISTICS:
        values[f"ratio_{algo.replace('-', '_')}"] = ratios[algo]
    values["mean_bits_jcr_ao"] = bits["jcr-ao"]
    values["mean_bits_jcr_res"] = bits["jcr-res"]
    return {name: values[name] for name in END_TO_END}, END_TO_END


def measure_traced(wl, seed, seconds, decisions, out_dir, tally):
    """Untraced and traced steps in turn: every per-layer metric."""
    import tracing

    tracer = tracing.Tracer()
    if wl.variable is not None:
        plain, traced = [], []

        def step(done):
            done.append(run_sweep_once(wl, seed, len(done), out_dir, tally))
    else:
        plain, traced = DecisionLoop(decisions), DecisionLoop(decisions)

        def step(loop):
            loop.run(0.0, 1, tally)
    # untraced and traced steps alternate on the same inputs, so that a
    # slow spell of the host does not show as tracing overhead
    deadline = time.perf_counter() + seconds
    while True:
        step(plain)
        tracer.install()
        try:
            step(traced)
        finally:
            tracer.uninstall()
        if time.perf_counter() >= deadline:
            break
    if wl.variable is not None:
        for k, (a, b) in enumerate(zip(plain, traced)):
            if a is not None and b is not None and a[1] != b[1]:
                tally.fail(f"sweep {k}: records.csv differs between untraced and traced runs")
        untraced_rate = median([wl.units_per_sweep / s[0] for s in plain if s is not None])
        traced_rate = median([wl.units_per_sweep / s[0] for s in traced if s is not None])
        work = ("harness.trial",)
    else:
        untraced_rate, traced_rate = plain.rate(), traced.rate()
        work = ("selection.jcr_ao", "selection.jcr_res")
    WORK.mkdir(exist_ok=True)
    spans_path = WORK / f"spans-{wl.name}.jsonl"
    with open(spans_path, "w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    print(f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
    values = layer_metrics(tracer.spans, wl.threads, work)
    values["tracing.trials_per_s"] = traced_rate
    values["tracing.untraced_trials_per_s"] = untraced_rate
    values["tracing.overhead_frac"] = 1.0 - traced_rate / untraced_rate if untraced_rate else 0.0
    values["tracing.peak_rss_mb"] = peak_rss_mb()
    return {name: values[name] for name in PER_LAYER}, PER_LAYER


def covered(interval, children):
    """Length of the union of child intervals inside `interval`."""
    lo, hi = interval
    total = 0.0
    end = lo
    for start, stop in sorted(children):
        start, stop = max(start, end), min(stop, hi)
        if stop > start:
            total += stop - start
            end = stop
    return total


def layer_metrics(spans, threads, work):
    """Per-layer metrics from spans; `work` names the spans whose summed
    time is the denominator of the share.* metrics."""
    by_name = {}
    children = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
        children.setdefault(s["parent"], []).append((s["start"], s["end"]))

    def dur(s):
        return s["end"] - s["start"]

    def durations(name, scale=1.0):
        return [(s["end"] - s["start"]) * scale for s in by_name.get(name, ())]

    def busy(name):
        return sum(durations(name))

    def calls(name):
        return len(by_name.get(name, ()))

    def attr_sum(name, key):
        return sum(s["attrs"].get(key, 0) for s in by_name.get(name, ()))

    def self_s(name):
        return sum(dur(s) - covered((s["start"], s["end"]), children.get(s["id"], ()))
                   for s in by_name.get(name, ()))

    def unique_frac(name):
        keys = [s["attrs"]["key"] for s in by_name.get(name, ()) if "key" in s["attrs"]]
        return len(set(keys)) / len(keys) if keys else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    ipm = by_name.get("ipm.solve_epigraph_lp", ())
    iterations = [s["attrs"]["iterations"] for s in ipm if "iterations" in s["attrs"]]
    work_busy = sum(busy(name) for name in work)
    combos = attr_sum("selection.exhaustive_search", "evaluations")
    sweep_wall = busy("harness.run_sweep")
    write_spans = (by_name.get("reporting.write_records_csv", [])
                   + by_name.get("reporting.write_summary_csv", []))
    exhaustive_s = busy("selection.exhaustive_search")
    return {
        "selection.exhaustive_search.busy_s": exhaustive_s,
        "selection.exhaustive_search.combinations": combos,
        "selection.exhaustive_search.ns_per_combination": ratio(exhaustive_s * 1e9, combos),
        "relaxation.solve_jcr.calls": calls("relaxation.solve_jcr"),
        "relaxation.solve_jcr.busy_s": busy("relaxation.solve_jcr"),
        "relaxation.solve_jcr.ms_p50": median(durations("relaxation.solve_jcr", 1e3)),
        "relaxation.solve_jcr.unique_frac": unique_frac("relaxation.solve_jcr"),
        "ipm.iterations_mean": mean(iterations),
        "ipm.iterations_max": max(iterations, default=0),
        "ipm.ms_per_iteration": ratio(busy("ipm.solve_epigraph_lp") * 1e3, sum(iterations)),
        "ipm.failures": sum(1 for s in ipm if s["attrs"].get("error") == "IpmFailure"),
        "capacity.capacity.calls": calls("capacity.capacity"),
        "capacity.capacity.busy_s": busy("capacity.capacity"),
        "capacity.capacity.us_p50": median(durations("capacity.capacity", 1e6)),
        "selection.jcr_ao.self_s": self_s("selection.jcr_ao"),
        "selection.jcr_ao.evaluations": attr_sum("selection.jcr_ao", "evaluations"),
        "selection.jcr_ao.sweeps_mean": ratio(attr_sum("selection.jcr_ao", "sweeps"),
                                              calls("selection.jcr_ao")),
        "selection.jcr_res.self_s": self_s("selection.jcr_res"),
        "selection.jcr_res.combinations": attr_sum("selection.jcr_res", "evaluations"),
        "channel.generate_channel.calls": calls("channel.generate_channel"),
        "channel.generate_channel.busy_s": busy("channel.generate_channel"),
        "channel.generate_channel.unique_frac": unique_frac("channel.generate_channel"),
        "harness.run_sweep.busy_s": sweep_wall,
        "harness.self_s": self_s("harness.run_sweep"),
        "harness.worker_busy_frac": ratio(busy("harness.trial"), threads * sweep_wall),
        "reporting.write_s": sum(dur(s) for s in write_spans),
        "reporting.bytes": sum(s["attrs"].get("bytes", 0) for s in write_spans),
        "cli.self_s": self_s("cli.main"),
        "share.exhaustive_search": ratio(exhaustive_s, work_busy),
        "share.solve_jcr": ratio(busy("relaxation.solve_jcr"), work_busy),
        "share.capacity": ratio(busy("capacity.capacity"), work_busy),
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int, help="makes every input (>= 0)")
    parser.add_argument("--seconds", type=float, default=45.0, help="measured time (default 45)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics from a traced run")
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload for the self-test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    wl = WORKLOADS[args.workload]
    if args.size == "tiny":
        wl = replace(wl, **TINY[wl.name], **TINY_COMMON)
    setup_s, decisions = setup(wl, args.seed)
    if args.setup_probe:
        print(repr(setup_s))
        return 0
    print("host " + json.dumps(host_block(args.seed)))

    tally = Tally()
    WORK.mkdir(exist_ok=True)
    out_dir = WORK / f"{wl.name}-seed{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            metrics, units = measure_traced(wl, args.seed, args.seconds, decisions, out_dir, tally)
        else:
            metrics, units = measure(wl, args.seed, args.seconds, args.size, setup_s,
                                     decisions, out_dir, tally)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    failed = len(tally.problems)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

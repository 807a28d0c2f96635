import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fluidmimo import (
    ALGORITHMS,
    CombinationCapError,
    FluidMimoConfig,
    OverallChannel,
    SweepSpec,
    SweepSpecError,
    mean_approximation_ratio,
    run_sweep,
)
from fluidmimo import harness, selection
from fluidmimo.harness import config_at, derive_seed, run_algorithm, run_trial, validate_spec

BASE = FluidMimoConfig(m_r=1, m_t=1, n_r=3, n_t=3, snr_db=5.0, w=0.5)


def small_spec(**overrides):
    kwargs = dict(base=BASE, variable="ports", values=(2, 3), trials=4,
                  algorithms=("exhaustive", "jcr-ao", "random", "conventional"),
                  master_seed=7)
    kwargs.update(overrides)
    return SweepSpec(**kwargs)


class TestSpecValidation:
    def test_rejects_unknown_variable(self):
        with pytest.raises(SweepSpecError, match="variable"):
            validate_spec(small_spec(variable="bandwidth"))

    def test_rejects_nonincreasing_values(self):
        with pytest.raises(SweepSpecError, match="increasing"):
            validate_spec(small_spec(values=(3, 2)))

    def test_rejects_empty_values(self):
        with pytest.raises(SweepSpecError, match="values"):
            validate_spec(small_spec(values=()))

    def test_rejects_fractional_ports(self):
        with pytest.raises(SweepSpecError, match="ports"):
            validate_spec(small_spec(values=(2, 2.5)))

    def test_rejects_zero_trials(self):
        with pytest.raises(SweepSpecError, match="trials"):
            validate_spec(small_spec(trials=0))

    def test_rejects_empty_algorithms(self):
        with pytest.raises(SweepSpecError, match="algorithms"):
            validate_spec(small_spec(algorithms=()))

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(SweepSpecError, match="sorted-port"):
            validate_spec(small_spec(algorithms=("sorted-port",)))

    def test_rejects_repeated_algorithm(self):
        # each repeat would write its records twice and double the
        # summary's trial count
        with pytest.raises(SweepSpecError, match=r"\['jcr-ao'\]"):
            validate_spec(small_spec(algorithms=("jcr-ao", "exhaustive", "jcr-ao")))

    @pytest.mark.parametrize("epsilon", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_epsilon(self, epsilon):
        with pytest.raises(SweepSpecError, match="epsilon"):
            validate_spec(small_spec(ao_epsilon=epsilon))

    @pytest.mark.parametrize("seed", [True, 1.5, 2.0, "7", None, -1])
    def test_rejects_master_seed_that_is_no_nonnegative_integer(self, seed):
        # SweepSpec(master_seed=True) used to run master seed 1
        with pytest.raises(SweepSpecError, match="^master_seed must be a nonnegative integer"):
            validate_spec(small_spec(master_seed=seed))
        with pytest.raises(SweepSpecError, match="master_seed"):
            run_sweep(small_spec(master_seed=seed))

    @pytest.mark.parametrize("field,value", [
        ("trials", True), ("trials", 2.0), ("ao_max_iters", True), ("ao_max_iters", 2.5),
        ("random_samples", False), ("random_samples", 2.5), ("exhaustive_cap", True),
        ("exhaustive_cap", 1e9), ("values", (True, 2)), ("values", (2.0, 3.0)),
        ("ao_epsilon", True)])
    def test_rejects_a_bool_or_float_before_any_trial(self, monkeypatch, field, value):
        # trials=True and values=(True, 2) ran as 1; trials=2.0 and
        # random_samples=2.5 passed validation and the sweep died in numpy
        ran = []
        monkeypatch.setattr(harness, "run_trial", lambda *args: ran.append(args) or [])
        name = {"values": "each value of a ports sweep"}.get(field, field)
        with pytest.raises(SweepSpecError, match=f"^{name} must be "):
            run_sweep(small_spec(**{field: value}))
        assert ran == []

    def test_exhaustive_cap_checked_upfront(self):
        spec = small_spec(values=(2, 100), exhaustive_cap=1000)
        with pytest.raises(CombinationCapError, match="10000"):
            validate_spec(spec)


class TestConfigDerivation:
    def test_ports_variable_sets_both_sides(self):
        cfg = config_at(small_spec(), 5)
        assert cfg.n_r == 5 and cfg.n_t == 5

    def test_snr_variable(self):
        cfg = config_at(small_spec(variable="snr_db", values=(-5.0, 0.0)), -5.0)
        assert cfg.snr_db == -5.0 and cfg.n_r == BASE.n_r

    def test_w_variable(self):
        cfg = config_at(small_spec(variable="w", values=(0.1, 1.0)), 1.0)
        assert cfg.w == 1.0


class TestSeedDerivation:
    def test_streams_distinct(self):
        assert derive_seed(1, 0, 0, 0) != derive_seed(1, 1, 0, 0)
        assert derive_seed(1, 0, 0, 0) != derive_seed(1, 0, 1, 0)
        assert derive_seed(1, 0, 0, 0) != derive_seed(1, 0, 0, 1)
        assert derive_seed(1, 0, 0, 0) != derive_seed(2, 0, 0, 0)

    def test_stable(self):
        assert derive_seed(99, 0, 3, 17) == derive_seed(99, 0, 3, 17)


class TestRunSweep:
    def test_record_count_single_algorithm(self):
        spec = small_spec(values=(2,), trials=1, algorithms=("conventional",))
        records, summaries = run_sweep(spec)
        assert len(records) == 1
        assert len(summaries) == 1
        assert records[0].algorithm == "conventional"
        assert records[0].wall_time_ms == 0.0

    def test_deterministic_rerun(self):
        spec = small_spec()
        rec1, _ = run_sweep(spec)
        rec2, _ = run_sweep(spec)
        assert rec1 == rec2

    def test_threads_do_not_change_records(self):
        for spec in (small_spec(trials=3),
                     small_spec(variable="snr_db", values=(-5.0, 0.0, 5.0), trials=5,
                                algorithms=("exhaustive", "jcr-res", "jcr-ao", "random"))):
            rec1, _ = run_sweep(spec, threads=1)
            rec2, _ = run_sweep(spec, threads=2)
            assert rec1 == rec2

    def test_sorted_by_point_trial_algorithm(self):
        records, _ = run_sweep(small_spec())
        keys = [(r.point_value, r.trial_index, r.algorithm) for r in records]
        assert keys == sorted(keys)

    def test_paired_dominance_within_trials(self):
        records, _ = run_sweep(small_spec(trials=6))
        best = {(r.point_value, r.trial_index): r.capacity_bits
                for r in records if r.algorithm == "exhaustive"}
        for r in records:
            assert r.capacity_bits <= best[(r.point_value, r.trial_index)] + 1e-12

    def test_snr_sweep_shares_channels_per_trial(self):
        # same trial, higher SNR: capacity must not drop for any algorithm
        # whose selection rule is SNR-independent or a max over a fixed set
        spec = small_spec(variable="snr_db", values=(-5.0, 0.0, 5.0), trials=5,
                          algorithms=("exhaustive", "jcr-res", "random", "conventional"))
        records, _ = run_sweep(spec)
        series = {}
        for r in records:
            series.setdefault((r.algorithm, r.trial_index), []).append(
                (r.point_value, r.capacity_bits))
        for (algo, _trial), pts in series.items():
            caps = [c for _v, c in sorted(pts)]
            assert all(b >= a - 1e-12 for a, b in zip(caps, caps[1:])), algo

    @pytest.mark.parametrize("variable,values,per_trial", [
        ("snr_db", (-5.0, 0.0, 5.0), 1),   # one task per trial, all points
        ("ports", (2, 3), 2),              # one task per (point, trial)
    ])
    def test_one_channel_and_one_lp_per_task(self, monkeypatch, variable, values, per_trial):
        # one channel object too (every SNR point runs on it at its own
        # rho), and one of each rho-free build: the two grid tables (every
        # port, jcr-res's keep-sets), jcr-ao's start table, the keep-sets of
        # its two keep counts, and two row-term tables (the random
        # baseline's draws, conventional's first ports)
        calls = {"generate": 0, "channel": 0, "solve": 0, "grid": 0, "ascent": 0, "keep": 0,
                 "rows": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(harness, "generate_channel",
                            counting("generate", harness.generate_channel))
        monkeypatch.setattr(OverallChannel, "__post_init__",
                            counting("channel", OverallChannel.__post_init__))
        monkeypatch.setattr(selection, "solve_jcr", counting("solve", selection.solve_jcr))
        for name, attr in (("grid", "_GridTerms"), ("ascent", "_AscentTerms"),
                           ("keep", "_kept_ports"), ("rows", "_RowTerms")):
            monkeypatch.setattr(selection, attr, counting(name, getattr(selection, attr)))
        spec = small_spec(variable=variable, values=values, trials=4, algorithms=ALGORITHMS)
        records, _ = run_sweep(spec)
        assert len(records) == len(ALGORITHMS) * len(values) * 4
        tasks = 4 * per_trial
        assert calls == {"generate": tasks, "channel": tasks, "solve": tasks, "grid": 2 * tasks,
                         "ascent": tasks, "keep": 2 * tasks, "rows": 2 * tasks}

    def test_shared_channel_and_lp_leave_records_unchanged(self):
        # the per-point path draws the channel at the point's config and
        # builds every rho-free part afresh at every point and for every
        # algorithm. Shapes: the Gram side receive; transmit (m_t < m_r);
        # nine summed transmit antennas; and nine summed receive antennas
        for base in (BASE, replace(BASE, m_r=3, m_t=2), replace(BASE, m_r=1, m_t=9, n_t=2),
                     replace(BASE, m_r=9, m_t=2, n_r=2, n_t=2)):
            spec = small_spec(base=base, variable="snr_db", values=(-5.0, 5.0, 15.0), trials=3,
                              algorithms=ALGORITHMS)
            records, _ = run_sweep(spec)
            fresh = []
            for algo in ALGORITHMS:
                alone = replace(spec, algorithms=(algo,))
                fresh += [rec for p in range(3) for t in range(3)
                          for rec in run_trial(alone, (p,), t)]
            fresh.sort(key=lambda r: (r.point_value, r.trial_index, r.algorithm))
            assert records == fresh

    def test_one_scoring_pass_per_trial_and_algorithm(self, monkeypatch):
        # every point still makes its own call of each algorithm, through
        # `run_algorithm`; the first call of a trial scores every point, so
        # each search's core runs once per trial with the rho of every point
        calls, passes = [], []

        def counting(fn):
            def wrapper(channel, rho, *args, **kwargs):
                calls.append((fn.__name__, rho))
                return fn(channel, rho, *args, **kwargs)
            return wrapper

        for name in ("exhaustive_search", "jcr_res", "jcr_ao", "random_selection",
                     "conventional_mimo"):
            monkeypatch.setattr(harness, name, counting(getattr(harness, name)))
        enumerate_best, ascend = selection._enumerate_best, selection._ascend
        monkeypatch.setattr(selection, "_enumerate_best",
                            lambda grid, rhos: passes.append(rhos) or enumerate_best(grid, rhos))
        monkeypatch.setattr(selection, "_ascend", lambda realization, rhos, *args: (
            passes.append(rhos) or ascend(realization, rhos, *args)))
        values = (-5.0, 0.0, 5.0)
        spec = small_spec(variable="snr_db", values=values, trials=2, algorithms=ALGORITHMS)
        run_sweep(spec)
        rhos = tuple(config_at(spec, v).rho for v in values)
        assert sorted(calls) == sorted((name, rho) for name in (
            "exhaustive_search", "jcr_res", "jcr_ao", "random_selection", "conventional_mimo")
            for rho in rhos for _ in range(2))
        assert passes == [rhos] * 6     # exhaustive, jcr-res and jcr-ao, in each trial

    def test_run_algorithm_rejects_unknown_name(self):
        channel = harness.generate_channel(BASE, 1)
        with pytest.raises(ValueError, match="greedy"):
            run_algorithm("greedy", channel, 1.0, None, cap=100, epsilon=1e-3,
                          max_iters=20, samples=None, seed=0)

    @pytest.mark.parametrize("variable,values,trials,chunksize", [
        ("ports", (5, 10, 15, 20), 20, 8),   # 80 tasks
        ("snr_db", (-5.0, 0.0, 5.0), 20, 2),  # 20 tasks, one per trial
        ("ports", (2,), 3, 1),
    ])
    def test_pool_chunks_spread_tasks_over_workers(self, monkeypatch, variable, values,
                                                   trials, chunksize):
        seen = []

        class SerialPool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize):
                seen.append((len(tasks), chunksize))
                return map(fn, tasks)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", SerialPool)
        spec = small_spec(variable=variable, values=values, trials=trials,
                          algorithms=("conventional",))
        run_sweep(spec, threads=2)
        tasks = trials if variable == "snr_db" else trials * len(values)
        assert seen == [(tasks, chunksize)]

    def test_serial_run_loads_no_process_pool(self):
        # the pool's modules are imported when a sweep first starts one:
        # about 2 MB of resident memory a serial run does not carry
        code = ("import sys, fluidmimo.cli; from fluidmimo import harness, FluidMimoConfig; "
                "harness.run_sweep(harness.SweepSpec(FluidMimoConfig(m_r=1, m_t=1, n_r=2, "
                "n_t=2), 'ports', (2,), trials=2), threads=1); "
                "print('concurrent.futures.process' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=120)
        assert out.stdout.strip() == "False"

    @pytest.mark.parametrize("threads,trials,pools", [
        (1000, 2, [2]),   # two tasks: two workers, not a thousand
        (3, 40, [3]),
        (1000, 1, []),    # a single task runs in this process
    ])
    def test_pool_starts_at_most_one_worker_per_task(self, monkeypatch, threads, trials,
                                                     pools):
        started = []

        class RecordingPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize):
                return map(fn, tasks)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
        spec = small_spec(values=(2,), trials=trials, algorithms=("conventional",))
        assert run_sweep(spec, threads=threads) == run_sweep(spec, threads=1)
        assert started == pools

    def test_ao_iterations_within_cap(self):
        records, summaries = run_sweep(small_spec(trials=5))
        for r in records:
            if r.algorithm == "jcr-ao":
                assert 0 <= r.ao_iterations <= 20
        for s in summaries:
            if s.algorithm == "jcr-ao":
                assert s.mean_ao_iterations >= 0.0

    def test_measure_time_populates_wall_time(self):
        spec = small_spec(values=(2,), trials=1, algorithms=("exhaustive",))
        records, _ = run_sweep(spec, measure_time=True)
        assert records[0].wall_time_ms > 0.0


class TestSummaries:
    def test_ratio_bounds_and_exhaustive_unity(self):
        _, summaries = run_sweep(small_spec(trials=8))
        for s in summaries:
            assert 0.0 <= s.mean_ratio <= 1.0 + 1e-9
            if s.algorithm == "exhaustive":
                assert s.mean_ratio == pytest.approx(1.0, abs=1e-12)

    def test_ratio_nan_without_exhaustive(self):
        _, summaries = run_sweep(small_spec(algorithms=("conventional",)))
        assert all(math.isnan(s.mean_ratio) for s in summaries)

    def test_statistics_recompute(self):
        records, summaries = run_sweep(small_spec(trials=8))
        for s in summaries:
            caps = [r.capacity_bits for r in records
                    if r.algorithm == s.algorithm and r.point_value == s.point_value]
            assert s.mean_capacity == pytest.approx(np.mean(caps), abs=1e-12)
            assert s.stddev == pytest.approx(np.std(caps, ddof=1), abs=1e-12)
            assert s.ci95 == pytest.approx(1.96 * s.stddev / math.sqrt(len(caps)), abs=1e-12)


class TestApproximationRatio:
    def test_exact_match(self):
        mean, excluded = mean_approximation_ratio([2.0, 3.0], [2.0, 3.0])
        assert mean == 1.0 and excluded == 0

    def test_zero_achieved(self):
        mean, excluded = mean_approximation_ratio([0.0], [2.0])
        assert mean == 0.0 and excluded == 0

    def test_zero_optimum_zero_achieved_counts_as_one(self):
        mean, excluded = mean_approximation_ratio([0.0, 1.0], [0.0, 2.0])
        assert mean == pytest.approx(0.75) and excluded == 0

    def test_zero_optimum_positive_achieved_excluded(self):
        mean, excluded = mean_approximation_ratio([1.0, 1.0], [0.0, 2.0])
        assert mean == pytest.approx(0.5) and excluded == 1

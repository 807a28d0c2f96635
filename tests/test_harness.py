import math
from dataclasses import replace

import numpy as np
import pytest

from fluidmimo import (
    ALGORITHMS,
    CombinationCapError,
    FluidMimoConfig,
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
        calls = {"generate": 0, "solve": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(harness, "generate_channel",
                            counting("generate", harness.generate_channel))
        monkeypatch.setattr(selection, "solve_jcr", counting("solve", selection.solve_jcr))
        spec = small_spec(variable=variable, values=values, trials=4,
                          algorithms=("jcr-res", "jcr-ao", "conventional"))
        records, _ = run_sweep(spec)
        assert len(records) == 3 * len(values) * 4
        assert calls == {"generate": 4 * per_trial, "solve": 4 * per_trial}

    def test_shared_channel_and_lp_leave_records_unchanged(self):
        # the per-point path draws the channel and solves the LP afresh at
        # every point and for every JCR algorithm
        spec = small_spec(variable="snr_db", values=(-5.0, 5.0, 15.0), trials=3,
                          algorithms=ALGORITHMS)
        records, _ = run_sweep(spec)
        fresh = []
        for algo in ALGORITHMS:
            alone = replace(spec, algorithms=(algo,))
            fresh += [rec for p in range(3) for t in range(3) for rec in run_trial(alone, (p,), t)]
        fresh.sort(key=lambda r: (r.point_value, r.trial_index, r.algorithm))
        assert records == fresh

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

"""Monte Carlo benchmark engine: paired trials, sweeps, and summaries.

A sweep fixes a base configuration, varies exactly one quantity (ports per
antenna, average SNR in dB, or the normalized antenna size W) over an
increasing list of values, and runs `trials` independent channel draws per
value. Within one (point, trial) every requested algorithm sees the same
channel realization (paired comparison; this only reduces the variance of
algorithm contrasts and cannot bias the means).

Seed derivation (documented so records are stable and reproducible): the
channel seed of (point, trial) is the first 64-bit word of
SeedSequence((master_seed, 0, point_key, trial)); the random-baseline seed
uses stream tag 1 instead of 0. point_key is the point index, except for
SNR sweeps where it is 0: the channel law does not depend on the SNR, so
all SNR points of a trial share one realization, making per-trial capacity
curves monotone in the SNR by construction.

Task unit and the shared realization: a sweep runs as tasks of one trial
each. For an SNR sweep a task covers all points of its trial: the channel
is drawn once and every point runs on it at the point's rho. Otherwise a
task is one (point, trial). Each task makes one `selection.Realization`
of its channel, given the rho of every point of the task, and hands it to
every run: one LP per channel realization, and one scoring pass per
(task, algorithm) (see `Realization`), with records identical to
building and scoring everything afresh on every run.
"""

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .channel import FluidMimoConfig, _check_int, _check_real, generate_channel
from .selection import (
    ALGORITHMS,
    DEFAULT_EXHAUSTIVE_CAP,
    CombinationCapError,
    Realization,
    combination_count,
    conventional_mimo,
    exhaustive_search,
    jcr_ao,
    jcr_res,
    random_selection,
)

SWEEP_VARIABLES = ("ports", "snr_db", "w")


class SweepSpecError(ValueError):
    """Invalid sweep specification; message names the offending field."""


@dataclass(frozen=True)
class SweepSpec:
    """One benchmark run: base config, swept variable, values, and budget."""

    base: FluidMimoConfig
    variable: str
    values: tuple
    trials: int = 100
    algorithms: tuple = ALGORITHMS
    master_seed: int = 0
    ao_epsilon: float = 1e-3
    ao_max_iters: int = 20
    random_samples: Optional[int] = None  # None: 5 (M_R N_R + M_T N_T) per trial
    exhaustive_cap: int = DEFAULT_EXHAUSTIVE_CAP


@dataclass(frozen=True)
class TrialRecord:
    point_value: float
    trial_index: int
    algorithm: str
    capacity_bits: float
    ao_iterations: int
    capacity_evaluations: int


@dataclass(frozen=True)
class PointSummary:
    point_value: float
    algorithm: str
    trials: int
    mean_capacity: float
    stddev: float
    ci95: float
    mean_ratio: float          # nan when exhaustive did not run
    mean_ao_iterations: float
    excluded_trials: int = 0   # zero-optimum trials dropped from the ratio


def config_at(spec, value):
    """Base config with the swept variable replaced by `value`."""
    if spec.variable == "ports":
        return replace(spec.base, n_r=int(value), n_t=int(value))
    if spec.variable == "snr_db":
        return replace(spec.base, snr_db=float(value))
    return replace(spec.base, w=float(value))


def _point_key(spec, point_index):
    # the channel law is SNR-independent: share realizations across SNR
    # points so per-trial capacity curves are monotone in the SNR
    return 0 if spec.variable == "snr_db" else point_index


def derive_seed(master_seed, stream, point_key, trial_index):
    """64-bit sub-seed; stream 0 draws channels, stream 1 the random baseline."""
    ss = np.random.SeedSequence((master_seed, stream, point_key, trial_index))
    return int(ss.generate_state(1, np.uint64)[0])


def validate_spec(spec):
    """SweepSpecError naming the first invalid field of `spec`, or the
    CombinationCapError of a point beyond the exhaustive-search cap, before
    any trial runs. Each scalar passes `channel._check_int` or
    `channel._check_real`, which refuse a bool or a non-number, and the
    values pass the checks of the config at each point; their ValueError
    becomes a SweepSpecError with its message."""
    try:
        if spec.variable not in SWEEP_VARIABLES:
            raise ValueError(f"variable must be one of {SWEEP_VARIABLES}, got {spec.variable!r}")
        if len(spec.values) == 0:
            raise ValueError("values must be a nonempty increasing list")
        for value in spec.values:
            if spec.variable == "ports":
                _check_int("each value of a ports sweep", value, 1)
            else:
                _check_real(f"each value of a {spec.variable} sweep", value)
        vals = [float(v) for v in spec.values]
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise ValueError(f"values must be strictly increasing, got {list(spec.values)}")
        _check_int("trials", spec.trials, 1)
        _check_int("master_seed", spec.master_seed, 0)
        if len(spec.algorithms) == 0:
            raise ValueError("algorithms must be a nonempty subset of " + ", ".join(ALGORITHMS))
        unknown = [a for a in spec.algorithms if a not in ALGORITHMS]
        if unknown:
            raise ValueError(f"unknown algorithms {unknown}; valid: {', '.join(ALGORITHMS)}")
        repeated = sorted({a for a in spec.algorithms if spec.algorithms.count(a) > 1})
        if repeated:
            raise ValueError(f"algorithms {repeated} are listed more than once")
        _check_real("ao_epsilon", spec.ao_epsilon, 0, strict=True)
        _check_int("ao_max_iters", spec.ao_max_iters, 1)
        if spec.random_samples is not None:
            _check_int("random_samples", spec.random_samples, 1)
        _check_int("exhaustive_cap", spec.exhaustive_cap, 0)
        configs = [config_at(spec, value) for value in spec.values]
    except ValueError as exc:
        raise SweepSpecError(str(exc)) from None
    for config in configs:
        combos = combination_count(config)
        if "exhaustive" in spec.algorithms and combos > spec.exhaustive_cap:
            raise CombinationCapError(combos, spec.exhaustive_cap)


def run_algorithm(name, channel, rho, realization, *, cap, epsilon, max_iters,
                  samples, seed):
    """Result of algorithm `name` on `channel` at SNR factor `rho`.

    The one map from an algorithm name to its call, for sweeps and `solve`.
    `realization` is the channel's `Realization`, which every search on the
    same entries shares, or None to let each search build its own. The
    algorithms are looked up in this module's globals at call time, so a
    wrapper set on one of these attributes sees every run.
    """
    if name == "exhaustive":
        return exhaustive_search(channel, rho, cap=cap, realization=realization)
    if name == "jcr-res":
        return jcr_res(channel, rho, realization=realization)
    if name == "jcr-ao":
        return jcr_ao(channel, rho, epsilon=epsilon, max_iters=max_iters,
                      realization=realization)
    if name == "random":
        return random_selection(channel, rho, samples=samples, seed=seed,
                                realization=realization)
    if name == "conventional":
        return conventional_mimo(channel, rho, realization=realization)
    raise ValueError(f"unknown algorithm {name!r}; valid: {', '.join(ALGORITHMS)}")


def run_trial(spec, point_indices, trial_index):
    """Records of one trial at points that share a channel realization (all
    points of an SNR sweep, else a single point), in point order and then
    spec.algorithms order.

    The channel is drawn once, at the first point's config, and every point
    runs on it at the rho of its own config: the searches read only the
    antenna and port counts from a channel's config. One `Realization` of
    it, given the rho of every point, serves every run of the trial: the
    first run of an algorithm scores it at every point in one pass, and
    the runs at later points return their own outcomes. Runs stay one per
    (point, algorithm), through `run_algorithm`.
    """
    key = _point_key(spec, point_indices[0])
    channel = generate_channel(config_at(spec, spec.values[point_indices[0]]),
                               derive_seed(spec.master_seed, 0, key, trial_index))
    baseline_seed = derive_seed(spec.master_seed, 1, key, trial_index)
    rhos = [config_at(spec, spec.values[p]).rho for p in point_indices]
    realization = Realization(channel, rhos=rhos)
    records = []
    for point_index, rho in zip(point_indices, rhos):
        value = spec.values[point_index]
        for algo in spec.algorithms:
            res = run_algorithm(
                algo, channel, rho, realization, cap=spec.exhaustive_cap,
                epsilon=spec.ao_epsilon, max_iters=spec.ao_max_iters,
                samples=spec.random_samples, seed=baseline_seed)
            records.append(TrialRecord(
                point_value=value,
                trial_index=trial_index,
                algorithm=algo,
                capacity_bits=res.capacity_bits,
                ao_iterations=res.iterations,
                capacity_evaluations=res.evaluations,
            ))
    return records


def _trial_task(args):
    return run_trial(*args)


def ProcessPoolExecutor(max_workers):
    """concurrent.futures.ProcessPoolExecutor, imported when a sweep first
    starts a pool: a serial run never loads the multiprocessing modules,
    about 2 MB of resident memory."""
    from concurrent.futures import ProcessPoolExecutor as pool

    return pool(max_workers=max_workers)


def run_sweep(spec, threads=1):
    """Run the full sweep; returns (records, summaries), both sorted.

    Records are deterministic functions of (spec, master_seed) regardless
    of `threads`, an integer >= 1; sorting is (point value, trial,
    algorithm name). With min(threads, tasks) > 1 workers every task runs
    in a process pool of that many workers and none in this process; with
    one worker all of them run here, in order.
    """
    _check_int("threads", threads, 1)
    validate_spec(spec)
    points = range(len(spec.values))
    if spec.variable == "snr_db":  # one task per trial: its points share a channel
        tasks = [(spec, tuple(points), t) for t in range(spec.trials)]
    else:
        tasks = [(spec, (p,), t) for p in points for t in range(spec.trials)]
    workers = min(threads, len(tasks))  # the pool starts all its workers at once
    if workers > 1:
        # about four chunks per worker keeps the workers evenly loaded
        chunksize = max(1, min(8, len(tasks) // (4 * workers)))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_trial_task, tasks, chunksize=chunksize))
    else:
        chunks = [_trial_task(t) for t in tasks]
    records = [rec for chunk in chunks for rec in chunk]
    records.sort(key=lambda r: (r.point_value, r.trial_index, r.algorithm))
    return records, summarize(records)


def mean_approximation_ratio(achieved, optimal):
    """Mean of per-trial achieved/optimal capacities.

    A trial with zero optimum counts as ratio 1 if the achieved capacity is
    also zero and is otherwise excluded (returned as the second element);
    under the channel model this has probability zero.
    """
    ratios = []
    excluded = 0
    for ach, opt in zip(achieved, optimal):
        if opt > 0:
            ratios.append(ach / opt)
        elif ach == 0:
            ratios.append(1.0)
        else:
            excluded += 1
    mean = float(np.mean(ratios)) if ratios else math.nan
    return mean, excluded


def summarize(records):
    """Per (point, algorithm) statistics over trials, sorted like records."""
    by_point = {}
    for rec in records:
        by_point.setdefault(rec.point_value, {}).setdefault(rec.algorithm, []).append(rec)
    summaries = []
    for value in sorted(by_point):
        algos = by_point[value]
        optimal = None
        if "exhaustive" in algos:
            optimal = {r.trial_index: r.capacity_bits
                       for r in algos["exhaustive"]}
        for algo in sorted(algos):
            recs = sorted(algos[algo], key=lambda r: r.trial_index)
            caps = np.array([r.capacity_bits for r in recs])
            n = len(caps)
            std = float(np.std(caps, ddof=1)) if n > 1 else 0.0
            if optimal is not None:
                ratio, excluded = mean_approximation_ratio(
                    caps, [optimal[r.trial_index] for r in recs])
            else:
                ratio, excluded = math.nan, 0
            summaries.append(PointSummary(
                point_value=value,
                algorithm=algo,
                trials=n,
                mean_capacity=float(np.mean(caps)),
                stddev=std,
                ci95=1.96 * std / math.sqrt(n) if n > 0 else 0.0,
                mean_ratio=ratio,
                mean_ao_iterations=float(np.mean([r.ao_iterations for r in recs])),
                excluded_trials=excluded,
            ))
    return summaries

"""CSV emission for sweep results; the machine-readable output contract.

records.csv: one row per (point, trial, algorithm), sorted by
(point_value, trial, algorithm name):

    sweep_var,point_value,trial,algorithm,capacity_bits,ao_iterations,evaluations,wall_time_ms

summary.csv: one row per (point, algorithm):

    sweep_var,point_value,algorithm,mean_capacity,stddev,ci95,mean_ratio,mean_ao_iterations,trials,excluded_trials

trials is the number of trials at the point; excluded_trials counts those
left out of mean_ratio because their exhaustive optimum is zero. Floats
are written with Python's shortest round-trip representation (full
precision); mean_ratio is "nan" when exhaustive search was not part of the
run. Files use "\n" newlines so identical runs produce identical bytes.
"""

import os

from .harness import PointSummary, TrialRecord

RECORDS_HEADER = ("sweep_var,point_value,trial,algorithm,capacity_bits,"
                  "ao_iterations,evaluations,wall_time_ms")
SUMMARY_HEADER = ("sweep_var,point_value,algorithm,mean_capacity,stddev,"
                  "ci95,mean_ratio,mean_ao_iterations,trials,excluded_trials")


def _fmt(value):
    return repr(float(value))


def write_records_csv(path, sweep_var, records):
    with open(os.fspath(path), "w", newline="") as fh:
        fh.write(RECORDS_HEADER + "\n")
        for r in records:
            fh.write(f"{sweep_var},{_fmt(r.point_value)},{r.trial_index},{r.algorithm},"
                     f"{_fmt(r.capacity_bits)},{r.ao_iterations},"
                     f"{r.capacity_evaluations},{_fmt(r.wall_time_ms)}\n")


def write_summary_csv(path, sweep_var, summaries):
    with open(os.fspath(path), "w", newline="") as fh:
        fh.write(SUMMARY_HEADER + "\n")
        for s in summaries:
            fh.write(f"{sweep_var},{_fmt(s.point_value)},{s.algorithm},"
                     f"{_fmt(s.mean_capacity)},{_fmt(s.stddev)},{_fmt(s.ci95)},"
                     f"{_fmt(s.mean_ratio)},{_fmt(s.mean_ao_iterations)},"
                     f"{s.trials},{s.excluded_trials}\n")


def read_records_csv(path):
    """Parse records.csv back into (sweep_var, [TrialRecord])."""
    with open(os.fspath(path)) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != RECORDS_HEADER:
        raise ValueError(f"{path}: missing records header")
    sweep_var = None
    records = []
    for line in lines[1:]:
        if not line:
            continue
        var, value, trial, algo, cap, iters, evals, ms = line.split(",")
        sweep_var = var
        records.append(TrialRecord(
            point_value=float(value),
            trial_index=int(trial),
            algorithm=algo,
            capacity_bits=float(cap),
            ao_iterations=int(iters),
            capacity_evaluations=int(evals),
            wall_time_ms=float(ms),
        ))
    return sweep_var, records


def read_summary_csv(path):
    """Parse summary.csv back into (sweep_var, [PointSummary])."""
    with open(os.fspath(path)) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != SUMMARY_HEADER:
        raise ValueError(f"{path}: missing summary header")
    sweep_var = None
    summaries = []
    for line in lines[1:]:
        if not line:
            continue
        var, value, algo, mean, std, ci, ratio, aoit, trials, excluded = line.split(",")
        sweep_var = var
        summaries.append(PointSummary(
            point_value=float(value),
            algorithm=algo,
            trials=int(trials),
            mean_capacity=float(mean),
            stddev=float(std),
            ci95=float(ci),
            mean_ratio=float(ratio),
            mean_ao_iterations=float(aoit),
            excluded_trials=int(excluded),
        ))
    return sweep_var, summaries

"""CSV emission for sweep results; the machine-readable output contract.

records.csv: one row per (point, trial, algorithm), sorted by
(point_value, trial, algorithm name):

    sweep_var,point_value,trial,algorithm,capacity_bits,ao_iterations,evaluations

summary.csv: one row per (point, algorithm):

    sweep_var,point_value,algorithm,mean_capacity,stddev,ci95,mean_ratio,mean_ao_iterations,trials,excluded_trials

trials is the number of trials at the point; excluded_trials counts those
left out of mean_ratio because their exhaustive optimum is zero. Floats
are written with Python's shortest round-trip representation (full
precision); mean_ratio is "nan" when exhaustive search was not part of the
run. Files use "\n" newlines and no column reads a clock, so identical
runs produce identical bytes.
"""

import os

RECORDS_HEADER = "sweep_var,point_value,trial,algorithm,capacity_bits,ao_iterations,evaluations"
SUMMARY_HEADER = ("sweep_var,point_value,algorithm,mean_capacity,stddev,"
                  "ci95,mean_ratio,mean_ao_iterations,trials,excluded_trials")


def _fmt(value):
    return repr(float(value))


def write_records_csv(path, sweep_var, records):
    with open(os.fspath(path), "w", newline="") as fh:
        fh.write(RECORDS_HEADER + "\n")
        for r in records:
            fh.write(f"{sweep_var},{_fmt(r.point_value)},{r.trial_index},{r.algorithm},"
                     f"{_fmt(r.capacity_bits)},{r.ao_iterations},{r.capacity_evaluations}\n")


def write_summary_csv(path, sweep_var, summaries):
    with open(os.fspath(path), "w", newline="") as fh:
        fh.write(SUMMARY_HEADER + "\n")
        for s in summaries:
            fh.write(f"{sweep_var},{_fmt(s.point_value)},{s.algorithm},"
                     f"{_fmt(s.mean_capacity)},{_fmt(s.stddev)},{_fmt(s.ci95)},"
                     f"{_fmt(s.mean_ratio)},{_fmt(s.mean_ao_iterations)},"
                     f"{s.trials},{s.excluded_trials}\n")


"""Every scalar a user sets passes one of two rules, `channel._check_int`
or `channel._check_real`. A bool or a value that is no number is refused
with a ValueError (a SweepSpecError for a sweep spec) whose message starts
with the field's name, never with a TypeError or an OverflowError from
deeper down, and numpy scalars and 0-d arrays are read as numbers."""

import math
import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import fluidmimo.selection as sel_mod
from fluidmimo import (
    FluidMimoConfig,
    PortSelection,
    Realization,
    SweepSpec,
    SweepSpecError,
    capacity,
    capacity_upper_bound,
    conventional_mimo,
    exhaustive_search,
    generate_channel,
    jcr_ao,
    jcr_res,
    random_selection,
    run_sweep,
)
from fluidmimo.capacity import capacity_q_form
from fluidmimo.channel import correlation_profile
from fluidmimo.harness import validate_spec

CONFIG = FluidMimoConfig(m_r=1, m_t=1, n_r=2, n_t=2)
CH = generate_channel(CONFIG, 1)
SPEC = SweepSpec(base=CONFIG, variable="ports", values=(2, 3), trials=1,
                 algorithms=("exhaustive", "conventional"))

# a real field refuses -1 only where it has a lower bound
REAL_REFUSED = [True, np.True_, "1", None, 1 + 0j, Fraction(1, 2), 10 ** 400, math.nan,
                math.inf]
INT_REFUSED = [True, 2.5, "1", None, -1]


def _spec(**fields):
    return validate_spec(replace(SPEC, **fields))


def _config(**fields):
    return generate_channel(replace(CONFIG, **fields), 1)


# (case, field, rule, call): call(value) passes value as `field`. rule is
# "real" (bounded below, so -1 is refused too), "any real" (-1 is valid or
# refused later by the config's own rule) or an integer field's valid value
FIELDS = [
    ("capacity", "rho", "real", lambda v: capacity(np.eye(2), v)),
    ("capacity_q_form", "rho", "real",
     lambda v: capacity_q_form(CH, PortSelection((1,), (2,)), v)),
    ("Realization-rhos", "rho", "real", lambda v: Realization(CH, rhos=(1.0, v))),
    *[(f"{search.__name__}-rho", "rho", "real", lambda v, search=search: search(CH, v))
      for search in (exhaustive_search, jcr_res, jcr_ao, random_selection, conventional_mimo)],
    ("capacity_upper_bound-u_value", "u_value", "real", lambda v: capacity_upper_bound(v, 1.0)),
    ("capacity_upper_bound-rho", "rho", "real", lambda v: capacity_upper_bound(1.0, v)),
    ("jcr_ao-epsilon", "epsilon", "real", lambda v: jcr_ao(CH, 1.0, epsilon=v)),
    *[(f"config-{name}", f"config field {name}", 2, lambda v, name=name: _config(**{name: v}))
      for name in ("m_r", "m_t", "n_r", "n_t")],
    ("config-snr_db", "config field snr_db", "any real", lambda v: _config(snr_db=v)),
    ("config-w", "config field w", "real", lambda v: _config(w=v)),
    ("correlation_profile-n_r", "n_r", 2, lambda v: correlation_profile(v, 3, 0.5)),
    ("correlation_profile-n_t", "n_t", 2, lambda v: correlation_profile(3, v, 0.5)),
    ("correlation_profile-w", "w", "real", lambda v: correlation_profile(3, 3, v)),
    ("spec-ports-values", "each value of a ports sweep", 2, lambda v: _spec(values=(v,))),
    *[(f"spec-{variable}-values", f"each value of a {variable} sweep", "any real",
       lambda v, variable=variable: _spec(variable=variable, values=(v,)))
      for variable in ("snr_db", "w")],
    ("spec-trials", "trials", 1, lambda v: _spec(trials=v)),
    ("spec-master_seed", "master_seed", 0, lambda v: _spec(master_seed=v)),
    ("spec-ao_epsilon", "ao_epsilon", "real", lambda v: _spec(ao_epsilon=v)),
    ("spec-ao_max_iters", "ao_max_iters", 1, lambda v: _spec(ao_max_iters=v)),
    ("spec-random_samples", "random_samples", 1, lambda v: _spec(random_samples=v)),
    ("spec-exhaustive_cap", "exhaustive_cap", 100, lambda v: _spec(exhaustive_cap=v)),
    ("generate_channel-seed", "seed", 0, lambda v: generate_channel(CONFIG, v)),
    ("random_selection-seed", "seed", 0, lambda v: random_selection(CH, 1.0, seed=v)),
    ("exhaustive_search-cap", "cap", 100, lambda v: exhaustive_search(CH, 1.0, cap=v)),
    ("jcr_ao-max_iters", "max_iters", 1, lambda v: jcr_ao(CH, 1.0, max_iters=v)),
    ("random_selection-samples", "samples", 1, lambda v: random_selection(CH, 1.0, samples=v)),
    ("run_sweep-threads", "threads", 1, lambda v: run_sweep(SPEC, threads=v)),
]


def _refused(rule):
    if rule == "real":
        return REAL_REFUSED + [-1]
    return REAL_REFUSED if rule == "any real" else INT_REFUSED


def _accepted(rule):
    if isinstance(rule, int):
        return [np.int64(rule)]
    return [np.float32(1.0), np.int64(1), np.array(1.0)]


def _cases(values_of):
    # None is the default sample budget
    return [pytest.param(case, field, call, value, id=f"{case}-{repr(value)[:12]}")
            for case, field, rule, call in FIELDS for value in values_of(rule)
            if not (value is None and field in ("random_samples", "samples"))]


@pytest.mark.parametrize("case, field, call, value", _cases(_refused))
def test_a_scalar_that_breaks_its_rule_is_refused_by_name(monkeypatch, case, field, call, value):
    lps = []
    monkeypatch.setattr(sel_mod, "solve_jcr", lambda channel: lps.append(channel))
    with pytest.raises(ValueError, match=f"^{re.escape(field)} must be ") as caught:
        call(value)
    assert type(caught.value) is (SweepSpecError if case.startswith("spec-") else ValueError)
    assert lps == []


@pytest.mark.parametrize("case, field, call, value", _cases(_accepted))
def test_numpy_scalars_and_0d_arrays_are_numbers(case, field, call, value):
    call(value)

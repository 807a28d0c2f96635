"""Command-line front end: channel generation, single-instance solving, and
figure-style benchmark sweeps.

    fluidmimo generate --mr 2 --mt 2 --nr 10 --nt 10 --w 0.5 --seed 7 --out ch.csv
    fluidmimo solve --channel ch.csv --algo all --snr-db 5
    fluidmimo sweep --variable ports --values 5,10,15,20 --trials 100 --out-dir results/

Defaults mirror the usual benchmark setup: W = 0.5, N = 10, SNR = 5 dB,
M_R = M_T = 2, 100 trials, coordinate-ascent tolerance 1e-3 with at most
20 sweeps. A flat key=value config file (--config) can seed any option;
precedence is explicit flags > config file > defaults.

Exit codes: 0 success, 2 configuration error (also an SNR or channel that
overflows float64, and an --out-dir that cannot be created or written),
3 resource-cap refusal (message carries the combination count), 4 solver
failure.
"""

import argparse
import json
import math
import os
import sys
from dataclasses import replace
from types import SimpleNamespace

from .channel import FluidMimoConfig, generate_channel
from .channel_io import ChannelFormatError, load_channel, save_channel
from .harness import SweepSpec, SweepSpecError, run_algorithm, run_sweep, validate_spec
from .ipm import IpmFailure
from .reporting import write_records_csv, write_summary_csv
from .selection import ALGORITHMS, DEFAULT_EXHAUSTIVE_CAP, CombinationCapError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CAP = 3
EXIT_SOLVER = 4

_VARIABLE_ALIASES = {"ports": "ports", "snr": "snr_db", "snr_db": "snr_db", "w": "w"}
_SWEEP_DEFAULT_VALUES = {"ports": "5,10,15,20", "snr_db": "-5,0,5,10,15", "w": "0.1,0.5,1,2,5"}


class ConfigError(ValueError):
    """Bad flag/config-file value; message names the offending key."""


def _positive_int(name):
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{name} must be an integer, got {text!r}")
        if value < 1:
            raise argparse.ArgumentTypeError(f"{name} must be >= 1, got {value}")
        return value
    return parse


def _positive_float(name):
    def parse(text):
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{name} must be a number, got {text!r}")
        if not (math.isfinite(value) and value > 0):
            raise argparse.ArgumentTypeError(f"{name} must be finite and > 0, got {value}")
        return value
    return parse


def _choice(name, choices):
    def parse(text):
        if text not in choices:
            raise argparse.ArgumentTypeError(
                f"{name} must be one of {', '.join(choices)}, got {text!r}")
        return text
    return parse


# option name -> (cast, default) per command; the single source of truth for
# config-file parsing and flag registration
_COMMON = {
    "m": (_positive_int("m"), 2),
    "n": (_positive_int("n"), 10),
    "mr": (_positive_int("mr"), None),
    "mt": (_positive_int("mt"), None),
    "nr": (_positive_int("nr"), None),
    "nt": (_positive_int("nt"), None),
    "w": (float, 0.5),
    "snr_db": (float, None),
    "config": (str, None),
}

# parameters of the selection algorithms, shared by solve and sweep
_ALGORITHM_OPTIONS = {
    "epsilon": (_positive_float("epsilon"), 1e-3),
    "max_iters": (_positive_int("max-iters"), 20),
    "samples": (_positive_int("samples"), None),
    "cap": (_positive_int("cap"), DEFAULT_EXHAUSTIVE_CAP),
}

_OPTIONS = {
    "generate": {
        **_COMMON,
        "seed": (int, 0),
        "out": (str, None),
    },
    "solve": {
        **_COMMON,
        "channel": (str, None),
        "seed": (int, 0),
        "algo": (_choice("algo", ALGORITHMS + ("all",)), "all"),
        **_ALGORITHM_OPTIONS,
        "baseline_seed": (int, 0),
        "json": (bool, False),
    },
    "sweep": {
        **_COMMON,
        "variable": (_choice("variable", tuple(_VARIABLE_ALIASES)), "ports"),
        "values": (str, None),
        "trials": (_positive_int("trials"), 100),
        "algos": (str, "all"),
        "master_seed": (int, 0),
        **_ALGORITHM_OPTIONS,
        "threads": (_positive_int("threads"), os.cpu_count() or 1),
        "timing": (bool, False),
        "out_dir": (str, "."),
    },
}

_HELP = {
    "m": "fluid antennas per side (default 2)",
    "n": "ports per fluid antenna (default 10)",
    "mr": "receive antennas (overrides --m)",
    "mt": "transmit antennas (overrides --m)",
    "nr": "receive ports (overrides --n)",
    "nt": "transmit ports (overrides --n)",
    "w": "normalized antenna length (default 0.5)",
    "snr_db": "average receive SNR in dB (default 5, or the channel file's value)",
    "config": "flat key=value config file (flags override it)",
    "seed": "64-bit channel seed (default 0)",
    "out": "output channel file",
    "channel": "channel file to load (else a channel is generated from --seed)",
    "algo": "algorithm to run: one of " + ", ".join(ALGORITHMS) + ", or all (default all)",
    "epsilon": "coordinate-ascent relative tolerance (default 1e-3)",
    "max_iters": "coordinate-ascent sweep cap (default 20)",
    "samples": "random-baseline draws (default 5(M_R N_R + M_T N_T))",
    "baseline_seed": "seed of the random baseline (default 0)",
    "cap": "exhaustive-search combination cap (default 1e8)",
    "json": "emit JSON instead of text",
    "variable": "swept quantity: ports, snr, or w (default ports)",
    "values": "comma-separated increasing sweep values, e.g. 5,10,15,20",
    "trials": "channel draws per sweep point (default 100)",
    "algos": "comma-separated algorithms or 'all' (default all)",
    "master_seed": "master seed for all trials (default 0)",
    "threads": "worker processes (default: available parallelism)",
    "timing": "record wall times (breaks byte-reproducibility of records.csv)",
    "out_dir": "directory for records.csv and summary.csv (default .)",
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fluidmimo",
        description="Joint transmit/receive port selection for fluid-MIMO capacity",
    )
    descriptions = {
        "generate": "draw a channel matrix and write it to a file",
        "solve": "run selection algorithms on one channel",
        "sweep": "Monte Carlo sweep writing records.csv and summary.csv",
    }
    sub = parser.add_subparsers(dest="command", required=True)
    for command, options in _OPTIONS.items():
        p = sub.add_parser(command, argument_default=argparse.SUPPRESS,
                           help=descriptions[command], description=descriptions[command])
        for name, (cast, _default) in options.items():
            flag = "--" + name.replace("_", "-")
            if cast is bool:
                p.add_argument(flag, dest=name, action="store_true", help=_HELP[name])
            else:
                p.add_argument(flag, dest=name, type=cast, help=_HELP[name])
    return parser


def load_config_file(path):
    """Flat key=value file; blank lines and '#' comments are skipped."""
    values = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                key, sep, val = line.partition("=")
                if not sep:
                    raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
                values[key.strip()] = val.strip()
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    return values


def resolve_options(command, args):
    """Merge defaults < config file < explicit flags into one namespace."""
    table = _OPTIONS[command]
    merged = {name: default for name, (_cast, default) in table.items()}
    explicit = vars(args)
    config_path = explicit.get("config")
    if config_path:
        for key, text in load_config_file(config_path).items():
            if key not in table or key in ("config",):
                raise ConfigError(f"config: unknown key {key!r} for command {command!r}")
            cast = table[key][0]
            try:
                if cast is bool and text.lower() not in ("1", "true", "yes", "0", "false", "no"):
                    raise ValueError(f"expected 1/true/yes or 0/false/no, got {text!r}")
                merged[key] = (text.lower() in ("1", "true", "yes")) if cast is bool else cast(text)
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise ConfigError(f"config: bad value for {key!r}: {exc}") from exc
    for key, value in explicit.items():
        if key != "command":
            merged[key] = value
    return SimpleNamespace(**merged)


def _build_config(opt, snr_db=None):
    if snr_db is None:
        snr_db = opt.snr_db if opt.snr_db is not None else 5.0
    try:
        return FluidMimoConfig(
            m_r=opt.mr if opt.mr is not None else opt.m,
            m_t=opt.mt if opt.mt is not None else opt.m,
            n_r=opt.nr if opt.nr is not None else opt.n,
            n_t=opt.nt if opt.nt is not None else opt.n,
            snr_db=snr_db, w=opt.w)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _check_seed(value, name):
    if value < 0:
        raise ConfigError(f"{name}: must be >= 0, got {value}")
    return value


def cmd_generate(opt):
    if not opt.out:
        raise ConfigError("out: an output path is required")
    config = _build_config(opt)
    channel = generate_channel(config, _check_seed(opt.seed, "seed"))
    try:
        save_channel(channel, opt.out)
    except OSError as exc:
        raise ConfigError(f"out: cannot write {opt.out}: {exc}") from exc
    print(f"wrote {opt.out}: {config.rx_dim}x{config.tx_dim} channel "
          f"(m_r={config.m_r} n_r={config.n_r} m_t={config.m_t} n_t={config.n_t} "
          f"snr_db={config.snr_db} w={config.w} seed={opt.seed})")
    return EXIT_OK


def cmd_solve(opt):
    if opt.channel is not None:
        try:
            channel = load_channel(opt.channel)
        except OSError as exc:
            raise ConfigError(f"channel: cannot read {opt.channel}: {exc}") from exc
        snr_db = opt.snr_db if opt.snr_db is not None else channel.config.snr_db
        try:
            rho = replace(channel.config, snr_db=snr_db).rho
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    else:
        config = _build_config(opt)
        channel = generate_channel(config, _check_seed(opt.seed, "seed"))
        rho = config.rho
    baseline_seed = _check_seed(opt.baseline_seed, "baseline-seed")

    algos = ALGORITHMS if opt.algo == "all" else (opt.algo,)
    outputs = []
    relaxed = None
    for algo in algos:
        res, relaxed = run_algorithm(
            algo, channel, rho, relaxed, cap=opt.cap, epsilon=opt.epsilon,
            max_iters=opt.max_iters, samples=opt.samples, seed=baseline_seed)
        stats = res.relaxation.solver_stats if res.relaxation is not None else None
        outputs.append({
            "algorithm": algo,
            "rx_ports": list(res.selection.rx_ports),
            "tx_ports": list(res.selection.tx_ports),
            "capacity_bits": res.capacity_bits,
            "iterations": res.iterations,
            "evaluations": res.evaluations,
            "lp_iterations": None if stats is None else stats.iterations,
            "lp_duality_gap": None if stats is None else stats.duality_gap,
        })
    if opt.json:
        print(json.dumps(outputs, indent=2))
    else:
        for out in outputs:
            rx = ",".join(str(p) for p in out["rx_ports"])
            tx = ",".join(str(p) for p in out["tx_ports"])
            print(f"{out['algorithm']:<12} rx=[{rx}] tx=[{tx}] "
                  f"capacity={out['capacity_bits']!r} bits/s/Hz "
                  f"iterations={out['iterations']} evaluations={out['evaluations']}")
    return EXIT_OK


def _parse_values(text, variable):
    try:
        values = tuple(int(v) if variable == "ports" else float(v)
                       for v in text.split(",") if v.strip() != "")
    except ValueError as exc:
        raise ConfigError(f"values: {exc}") from exc
    if not values:
        raise ConfigError("values: expected a nonempty comma-separated list")
    return values


def cmd_sweep(opt):
    variable = _VARIABLE_ALIASES[opt.variable]
    values = _parse_values(opt.values or _SWEEP_DEFAULT_VALUES[variable], variable)
    if opt.algos.strip() == "all":
        algorithms = ALGORITHMS
    else:
        algorithms = tuple(a.strip() for a in opt.algos.split(",") if a.strip())
    if not algorithms:
        raise ConfigError("algos: expected 'all' or a nonempty comma-separated list")

    spec = SweepSpec(
        base=_build_config(opt),
        variable=variable,
        values=values,
        trials=opt.trials,
        algorithms=algorithms,
        master_seed=_check_seed(opt.master_seed, "master-seed"),
        ao_epsilon=opt.epsilon,
        ao_max_iters=opt.max_iters,
        random_samples=opt.samples,
        exhaustive_cap=opt.cap,
    )
    try:
        validate_spec(spec)
    except SweepSpecError as exc:
        raise ConfigError(str(exc)) from exc
    try:  # before the first trial, so an unusable directory costs no sweep
        os.makedirs(opt.out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"out-dir: cannot create {opt.out_dir}: {exc}") from exc

    records, summaries = run_sweep(spec, threads=opt.threads, measure_time=opt.timing)
    records_path = os.path.join(opt.out_dir, "records.csv")
    summary_path = os.path.join(opt.out_dir, "summary.csv")
    try:
        write_records_csv(records_path, variable, records)
        write_summary_csv(summary_path, variable, summaries)
    except OSError as exc:
        raise ConfigError(f"out-dir: cannot write {opt.out_dir}: {exc}") from exc
    print(f"wrote {records_path} ({len(records)} rows) and {summary_path} ({len(summaries)} rows)")
    return EXIT_OK


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        opt = resolve_options(args.command, args)
        if args.command == "generate":
            return cmd_generate(opt)
        if args.command == "solve":
            return cmd_solve(opt)
        return cmd_sweep(opt)
    except (ConfigError, ChannelFormatError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CombinationCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except IpmFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())

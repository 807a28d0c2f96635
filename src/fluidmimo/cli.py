"""Command-line front end: channel generation, single-instance solving, and
figure-style benchmark sweeps.

    fluidmimo generate --mr 2 --mt 2 --nr 10 --nt 10 --w 0.5 --seed 7 --out ch.csv
    fluidmimo solve --channel ch.csv --algo all --snr-db 5
    fluidmimo sweep --variable ports --values 5,10,15,20 --trials 100 --out-dir results/

Defaults mirror the usual benchmark setup: W = 0.5, N = 10, SNR = 5 dB,
M_R = M_T = 2, 100 trials, coordinate-ascent tolerance 1e-3 with at most
20 sweeps; `--help` shows each option's default. A flat key=value config
file (--config) can seed any option; precedence is explicit flags >
config file > defaults. An option the command replaces draws one
`warning:` line on stderr and is otherwise ignored: n, nr and nt in a
ports sweep, snr_db in an SNR sweep, w in a W sweep, and m, n, mr, mt,
nr, nt, w and seed next to --channel. A sweep starts at most one worker
process per task, and by default as many as the CPUs this process may
run on (its affinity mask, so a taskset or cpuset limit counts).

Exit codes: 0 success, 2 configuration error (also a negative seed, a
channel file whose header declares more entries than it has rows, an SNR
or channel that overflows float64, and an --out-dir that cannot be
created or written), 3 resource refusal: the exhaustive-search cap (the
message carries the combination count), or memory the input needs, 4
solver failure (also an LP whose arithmetic overflows float64).
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
from .selection import ALGORITHMS, DEFAULT_EXHAUSTIVE_CAP, CombinationCapError, Realization

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CAP = 3
EXIT_SOLVER = 4
# exit status of the errors `main` reports that are not configuration errors
_EXIT_CODES = {CombinationCapError: EXIT_CAP, MemoryError: EXIT_CAP, IpmFailure: EXIT_SOLVER}

_VARIABLE_ALIASES = {"ports": "ports", "snr": "snr_db", "snr_db": "snr_db", "w": "w"}
_SWEEP_DEFAULT_VALUES = {"ports": "5,10,15,20", "snr_db": "-5,0,5,10,15", "w": "0.1,0.5,1,2,5"}
# options a command replaces: those of the swept variable, and the channel
# options next to --channel
_SWEPT_OPTIONS = {"ports": ("n", "nr", "nt"), "snr_db": ("snr_db",), "w": ("w",)}
_CHANNEL_FILE_OPTIONS = ("m", "n", "mr", "mt", "nr", "nt", "w", "seed")


class ConfigError(ValueError):
    """Bad flag/config-file value; message names the offending key."""


def _int_at_least(low):
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


_positive_int = _int_at_least(1)
_seed = _int_at_least(0)


def _positive_float(text):
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a number, got {text!r}")
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {value}")
    return value


def _choice(choices):
    def parse(text):
        if text not in choices:
            raise argparse.ArgumentTypeError(
                f"must be one of {', '.join(choices)}, got {text!r}")
        return text
    return parse


def _boolean(text):
    """A config-file boolean; the flag itself is a switch."""
    if text.lower() not in ("1", "true", "yes", "0", "false", "no"):
        raise argparse.ArgumentTypeError(f"expected 1/true/yes or 0/false/no, got {text!r}")
    return text.lower() in ("1", "true", "yes")


# option name -> (cast, default, help) per command; the single source of
# truth for flag registration, --help and config-file parsing. --help
# appends the default unless it is None (the help then says it) or the
# option is a boolean switch.
_COMMON = {
    "m": (_positive_int, 2, "fluid antennas per side"),
    "n": (_positive_int, 10, "ports per fluid antenna"),
    "mr": (_positive_int, None, "receive antennas (overrides --m)"),
    "mt": (_positive_int, None, "transmit antennas (overrides --m)"),
    "nr": (_positive_int, None, "receive ports (overrides --n)"),
    "nt": (_positive_int, None, "transmit ports (overrides --n)"),
    "w": (float, 0.5, "normalized antenna length"),
    "snr_db": (float, None, "average receive SNR in dB (default 5)"),
    "config": (str, None, "flat key=value config file (flags override it)"),
}

# parameters of the selection algorithms, shared by solve and sweep
_ALGORITHM_OPTIONS = {
    "epsilon": (_positive_float, 1e-3, "coordinate-ascent relative tolerance"),
    "max_iters": (_positive_int, 20, "coordinate-ascent sweep cap"),
    "samples": (_positive_int, None, "random-baseline draws (default 5(M_R N_R + M_T N_T))"),
    "cap": (_positive_int, DEFAULT_EXHAUSTIVE_CAP, "exhaustive-search combination cap"),
}

_OPTIONS = {
    "generate": {
        **_COMMON,
        "seed": (_seed, 0, "nonnegative integer channel seed"),
        "out": (str, None, "output channel file"),
    },
    "solve": {
        **_COMMON,
        "snr_db": (float, None,
                   "average receive SNR in dB (default 5, or the channel file's value)"),
        "channel": (str, None, "channel file to load (else a channel is generated from --seed)"),
        "seed": (_seed, 0, "nonnegative integer channel seed"),
        "algo": (_choice(ALGORITHMS + ("all",)), "all",
                 "algorithm to run: one of " + ", ".join(ALGORITHMS) + ", or all"),
        **_ALGORITHM_OPTIONS,
        "baseline_seed": (_seed, 0, "seed of the random baseline"),
        "json": (_boolean, False, "emit JSON instead of text"),
    },
    "sweep": {
        **_COMMON,
        "variable": (_choice(tuple(_VARIABLE_ALIASES)), "ports",
                     "swept quantity: ports, snr, or w"),
        "values": (str, None, "comma-separated increasing sweep values (default by variable: "
                   + "; ".join(f"{k} {v}" for k, v in _SWEEP_DEFAULT_VALUES.items()) + ")"),
        "trials": (_positive_int, 100, "channel draws per sweep point"),
        "algos": (str, "all", "comma-separated algorithms or 'all'"),
        "master_seed": (_seed, 0, "master seed for all trials"),
        **_ALGORITHM_OPTIONS,
        "threads": (_positive_int, None,
                    "worker processes (default: the number of CPUs this process may run on)"),
        "timing": (_boolean, False,
                   "record wall times (breaks byte-reproducibility of records.csv)"),
        "out_dir": (str, ".", "directory for records.csv and summary.csv"),
    },
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
        for name, (cast, default, text) in options.items():
            flag = "--" + name.replace("_", "-")
            if cast is _boolean:
                p.add_argument(flag, dest=name, action="store_true", help=text)
            else:
                shown = "" if default is None else f" (default {default})"
                p.add_argument(flag, dest=name, type=cast, help=text + shown)
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
    """Merge defaults < config file < explicit flags into one namespace.
    Returns it with the names set by a flag or the config file."""
    table = _OPTIONS[command]
    merged = {name: default for name, (_cast, default, _help) in table.items()}
    explicit = {key: value for key, value in vars(args).items() if key != "command"}
    config = load_config_file(explicit["config"]) if explicit.get("config") else {}
    for key, text in config.items():
        if key not in table or key == "config":
            raise ConfigError(f"config: unknown key {key!r} for command {command!r}")
        try:
            merged[key] = table[key][0](text)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise ConfigError(f"config: bad value for {key!r}: {exc}") from exc
    merged.update(explicit)
    return SimpleNamespace(**merged), set(config) | set(explicit)


def _warn_overridden(command, opt, given):
    """One warning on stderr per option in `given` that the command
    replaces; the run goes on."""
    if command == "sweep":
        variable = _VARIABLE_ALIASES[opt.variable]
        names, reason = _SWEPT_OPTIONS[variable], f"the {variable} sweep sets it"
    elif command == "solve" and opt.channel is not None:
        names, reason = _CHANNEL_FILE_OPTIONS, "the channel comes from --channel"
    else:
        return
    for name in names:
        if name in given:
            print(f"warning: {name} is ignored: {reason}", file=sys.stderr)


def _build_config(opt):
    try:
        return FluidMimoConfig(
            m_r=opt.mr if opt.mr is not None else opt.m,
            m_t=opt.mt if opt.mt is not None else opt.m,
            n_r=opt.nr if opt.nr is not None else opt.n,
            n_t=opt.nt if opt.nt is not None else opt.n,
            snr_db=opt.snr_db if opt.snr_db is not None else 5.0, w=opt.w)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def cmd_generate(opt):
    if not opt.out:
        raise ConfigError("out: an output path is required")
    config = _build_config(opt)
    channel = generate_channel(config, opt.seed)
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
        channel = generate_channel(config, opt.seed)
        rho = config.rho

    algos = ALGORITHMS if opt.algo == "all" else (opt.algo,)
    outputs = []
    realization = Realization(channel)
    for algo in algos:
        res = run_algorithm(
            algo, channel, rho, realization, cap=opt.cap, epsilon=opt.epsilon,
            max_iters=opt.max_iters, samples=opt.samples, seed=opt.baseline_seed)
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
            "score_margin": res.score_margin,
            "score_margin_rel": res.score_margin_rel,
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


def _usable_cpus():
    """CPUs this process may run on: its affinity mask (a taskset or cpuset
    limit), where the OS keeps one, else os.cpu_count()."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
        master_seed=opt.master_seed,
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

    threads = opt.threads if opt.threads is not None else _usable_cpus()
    records, summaries = run_sweep(spec, threads=threads, measure_time=opt.timing)
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
        opt, given = resolve_options(args.command, args)
        _warn_overridden(args.command, opt, given)
        commands = {"generate": cmd_generate, "solve": cmd_solve, "sweep": cmd_sweep}
        return commands[args.command](opt)
    except (ConfigError, ChannelFormatError, OverflowError, *_EXIT_CODES) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return next((code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls)),
                    EXIT_CONFIG)


if __name__ == "__main__":
    sys.exit(main())

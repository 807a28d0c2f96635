import json
import math
import os
import platform
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fluidmimo import cli, load_channel
from fluidmimo.cli import main
from fluidmimo.harness import PointSummary, TrialRecord, run_sweep, summarize
from fluidmimo.reporting import RECORDS_HEADER, SUMMARY_HEADER, write_summary_csv

ROOT = Path(__file__).resolve().parent.parent


def run_cli(*argv):
    return main(list(argv))


def _read_rows(path, header):
    """(sweep_var, rows split on commas) of a CSV file with `header`."""
    lines = path.read_text().splitlines()
    assert lines and lines[0] == header, f"{path}: missing header"
    rows = [line.split(",") for line in lines[1:] if line]
    return (rows[-1][0] if rows else None), rows


def read_records_csv(path):
    """Parse records.csv back into (sweep_var, [TrialRecord])."""
    sweep_var, rows = _read_rows(path, RECORDS_HEADER)
    return sweep_var, [
        TrialRecord(point_value=float(value), trial_index=int(trial), algorithm=algo,
                    capacity_bits=float(cap), ao_iterations=int(iters),
                    capacity_evaluations=int(evals), wall_time_ms=float(ms))
        for _, value, trial, algo, cap, iters, evals, ms in rows]


def read_summary_csv(path):
    """Parse summary.csv back into (sweep_var, [PointSummary])."""
    sweep_var, rows = _read_rows(path, SUMMARY_HEADER)
    return sweep_var, [
        PointSummary(point_value=float(value), algorithm=algo, trials=int(trials),
                     mean_capacity=float(mean), stddev=float(std), ci95=float(ci),
                     mean_ratio=float(ratio), mean_ao_iterations=float(aoit),
                     excluded_trials=int(excluded))
        for _, value, algo, mean, std, ci, ratio, aoit, trials, excluded in rows]


class TestGenerate:
    def test_writes_expected_row_count(self, tmp_path, capsys):
        out = tmp_path / "ch.csv"
        code = run_cli("generate", "--mr", "2", "--mt", "2", "--nr", "10",
                       "--nt", "10", "--w", "0.5", "--seed", "7", "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2 + 400  # header + column row + 20x20 entries
        assert "ch.csv" in capsys.readouterr().out

    def test_deterministic_files(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert run_cli("generate", "--m", "1", "--n", "4",
                           "--seed", "3", "--out", str(path)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_invalid_dimension_exits_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            run_cli("generate", "--nr", "0", "--out", "x.csv")
        assert err.value.code == 2
        assert "nr" in capsys.readouterr().err

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            run_cli("generate", "--m", "1", "--n", "2", "--seed", "-5",
                    "--out", str(tmp_path / "x.csv"))
        assert err.value.code == 2
        assert "seed" in capsys.readouterr().err


class TestSolve:
    def test_trivial_instance(self, tmp_path, capsys):
        out = tmp_path / "ch.csv"
        run_cli("generate", "--m", "1", "--n", "1", "--seed", "5", "--out", str(out))
        capsys.readouterr()
        code = run_cli("solve", "--channel", str(out), "--algo", "exhaustive", "--json")
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        channel = load_channel(out)
        gain = abs(channel.entries[0, 0]) ** 2
        rho = channel.config.rho
        assert payload[0]["rx_ports"] == [1] and payload[0]["tx_ports"] == [1]
        assert payload[0]["capacity_bits"] == pytest.approx(np.log2(1 + rho * gain), abs=1e-12)

    def test_all_algorithms_dominated_by_exhaustive(self, tmp_path, capsys):
        out = tmp_path / "ch.csv"
        run_cli("generate", "--m", "2", "--n", "3", "--seed", "9", "--out", str(out))
        capsys.readouterr()
        assert run_cli("solve", "--channel", str(out), "--algo", "all", "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert [p["algorithm"] for p in payload] == [
            "exhaustive", "jcr-res", "jcr-ao", "random", "conventional"]
        best = payload[0]["capacity_bits"]
        assert all(p["capacity_bits"] <= best + 1e-12 for p in payload)

    def test_json_carries_lp_statistics(self, tmp_path, capsys, monkeypatch):
        import fluidmimo.selection as selection_mod

        solves = []
        solve_jcr = selection_mod.solve_jcr
        monkeypatch.setattr(selection_mod, "solve_jcr",
                            lambda channel: solves.append(1) or solve_jcr(channel))
        out = tmp_path / "ch.csv"
        run_cli("generate", "--m", "2", "--n", "4", "--seed", "3", "--out", str(out))
        capsys.readouterr()
        assert run_cli("solve", "--channel", str(out), "--algo", "all", "--json") == 0
        assert len(solves) == 1  # jcr-ao reuses the LP jcr-res solved
        payload = {p["algorithm"]: p for p in json.loads(capsys.readouterr().out)}
        for algo in ("exhaustive", "random", "conventional"):
            assert payload[algo]["lp_iterations"] is None
            assert payload[algo]["lp_duality_gap"] is None
        for algo in ("jcr-res", "jcr-ao"):
            assert payload[algo]["lp_iterations"] >= 1
            assert 0.0 <= payload[algo]["lp_duality_gap"] <= 1e-7
        # the shared LP gives jcr-ao the entry of a run that solves its own
        assert run_cli("solve", "--channel", str(out), "--algo", "jcr-ao", "--json") == 0
        alone = json.loads(capsys.readouterr().out)
        assert alone == [payload["jcr-ao"]]
        assert payload["jcr-ao"]["lp_iterations"] == payload["jcr-res"]["lp_iterations"]

    def test_json_carries_score_margins(self, capsys):
        assert run_cli("solve", "--m", "2", "--n", "5", "--seed", "3", "--json") == 0
        payload = {p["algorithm"]: p for p in json.loads(capsys.readouterr().out)}
        for algo in ("exhaustive", "random", "conventional"):
            assert payload[algo]["score_margin"] is None
            assert payload[algo]["score_margin_rel"] is None
        for algo in ("jcr-res", "jcr-ao"):
            assert payload[algo]["score_margin"] >= 0.0
            assert 0.0 <= payload[algo]["score_margin_rel"] <= 1.0
        # one port per antenna: no antenna drops a port
        assert run_cli("solve", "--m", "2", "--n", "1", "--json") == 0
        for out in json.loads(capsys.readouterr().out):
            assert out["score_margin"] is None and out["score_margin_rel"] is None

    def test_solve_is_deterministic(self, tmp_path, capsys):
        out = tmp_path / "ch.csv"
        run_cli("generate", "--m", "1", "--n", "4", "--seed", "2", "--out", str(out))
        capsys.readouterr()
        run_cli("solve", "--channel", str(out), "--algo", "all")
        first = capsys.readouterr().out
        run_cli("solve", "--channel", str(out), "--algo", "all")
        assert capsys.readouterr().out == first

    def test_cap_exceeded_exits_3(self, tmp_path, capsys):
        out = tmp_path / "ch.csv"
        run_cli("generate", "--m", "2", "--n", "10", "--seed", "1", "--out", str(out))
        capsys.readouterr()
        code = run_cli("solve", "--channel", str(out), "--algo", "exhaustive",
                       "--cap", "100")
        assert code == 3
        assert "10000" in capsys.readouterr().err

    def test_solve_from_generation_params(self, capsys):
        code = run_cli("solve", "--m", "1", "--n", "3", "--seed", "8",
                       "--algo", "exhaustive", "--json")
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["evaluations"] == 9

    def test_snr_flag_overrides_file(self, tmp_path, capsys):
        out = tmp_path / "ch.csv"
        run_cli("generate", "--m", "1", "--n", "2", "--seed", "4",
                "--snr-db", "0", "--out", str(out))
        capsys.readouterr()
        run_cli("solve", "--channel", str(out), "--algo", "conventional", "--json")
        low = json.loads(capsys.readouterr().out)[0]["capacity_bits"]
        run_cli("solve", "--channel", str(out), "--algo", "conventional",
                "--snr-db", "20", "--json")
        high = json.loads(capsys.readouterr().out)[0]["capacity_bits"]
        assert high > low


class TestSweep:
    def test_writes_csvs_with_expected_shapes(self, tmp_path, capsys):
        code = run_cli("sweep", "--m", "1", "--n", "3", "--variable", "ports",
                       "--values", "2,3", "--trials", "2", "--algos",
                       "exhaustive,conventional", "--out-dir", str(tmp_path),
                       "--threads", "1")
        assert code == 0
        sweep_var, records = read_records_csv(tmp_path / "records.csv")
        assert sweep_var == "ports"
        assert len(records) == 2 * 2 * 2
        _, summaries = read_summary_csv(tmp_path / "summary.csv")
        assert len(summaries) == 2 * 2

    def test_byte_identical_reruns(self, tmp_path, capsys):
        args = ("sweep", "--m", "1", "--n", "3", "--values", "2,3", "--trials", "2",
                "--algos", "exhaustive,jcr-ao,random", "--master-seed", "11",
                "--threads", "1")
        assert run_cli(*args, "--out-dir", str(tmp_path / "a")) == 0
        assert run_cli(*args, "--out-dir", str(tmp_path / "b")) == 0
        assert (tmp_path / "a/records.csv").read_bytes() == (tmp_path / "b/records.csv").read_bytes()
        assert (tmp_path / "a/summary.csv").read_bytes() == (tmp_path / "b/summary.csv").read_bytes()

    @pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"),
                        reason="the Prescott core is an x86-64 one")
    def test_records_do_not_depend_on_the_openblas_core(self, tmp_path):
        """The non-JCR algorithms at M = 2 write the same records.csv under
        OpenBLAS's default core and under Prescott (SSE3, which runs on any
        x86-64). OPENBLAS_CORETYPE acts only on DYNAMIC_ARCH builds of
        OpenBLAS: on other builds and other BLAS vendors both runs take the
        same kernels and the test shows nothing. numpy's own SIMD dispatch
        is not varied."""
        digests = []
        for core in (None, "Prescott"):
            env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
            env.pop("OPENBLAS_CORETYPE", None)
            if core:
                env["OPENBLAS_CORETYPE"] = core
            out_dir = tmp_path / (core or "default")
            subprocess.run([sys.executable, "-m", "fluidmimo.cli", "sweep", "--variable", "snr",
                            "--m", "2", "--n", "4", "--trials", "10", "--master-seed", "1",
                            "--algos", "exhaustive,random,conventional", "--threads", "1",
                            "--out-dir", str(out_dir)],
                           env=env, check=True, capture_output=True, timeout=300)
            digests.append((out_dir / "records.csv").read_bytes())
        assert digests[0] == digests[1]

    def test_timed_snr_sweep_differs_only_in_wall_times(self, tmp_path, capsys):
        # each algorithm scores a trial's points in one pass, charged to the
        # first point's wall time; the records are otherwise those of the
        # untimed sweep
        args = ("sweep", "--variable", "snr", "--values=-5,0,5,10", "--m", "2", "--n", "3",
                "--trials", "3", "--master-seed", "4", "--threads", "1")
        assert run_cli(*args, "--out-dir", str(tmp_path / "plain")) == 0
        assert run_cli(*args, "--timing", "--out-dir", str(tmp_path / "timed")) == 0
        _, plain = read_records_csv(tmp_path / "plain/records.csv")
        _, timed = read_records_csv(tmp_path / "timed/records.csv")
        assert len(timed) == 4 * 3 * 5
        assert [replace(r, wall_time_ms=0.0) for r in timed] == plain
        assert all(math.isfinite(r.wall_time_ms) and r.wall_time_ms >= 0.0 for r in timed)
        assert ((tmp_path / "timed/summary.csv").read_bytes()
                == (tmp_path / "plain/summary.csv").read_bytes())

    def test_threads_default_to_the_cpus_this_process_may_run_on(self, tmp_path, capsys,
                                                                 monkeypatch):
        # read when the sweep runs, not at import: a taskset or cpuset
        # limit shows in the affinity mask, not in os.cpu_count()
        started = []

        def serial(spec, threads, measure_time):
            started.append(threads)
            return run_sweep(spec, threads=1, measure_time=measure_time)

        monkeypatch.setattr(cli, "run_sweep", serial)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        args = ("sweep", "--m", "1", "--n", "2", "--values", "2", "--trials", "1",
                "--algos", "conventional", "--out-dir", str(tmp_path))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        assert run_cli(*args) == 0
        assert run_cli(*args, "--threads", "2") == 0
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert run_cli(*args) == 0
        assert started == [3, 2, 64]
        assert "CPUs this process may run on" in TestOptionTable._help_texts(
            "sweep", capsys)["--threads"]

    def test_summary_matches_records_roundtrip(self, tmp_path, capsys):
        run_cli("sweep", "--m", "1", "--n", "3", "--values", "2,3", "--trials", "4",
                "--out-dir", str(tmp_path), "--threads", "1")
        _, records = read_records_csv(tmp_path / "records.csv")
        _, summaries = read_summary_csv(tmp_path / "summary.csv")
        for s in summaries:
            group = [r for r in records
                     if r.algorithm == s.algorithm and r.point_value == s.point_value]
            caps = [r.capacity_bits for r in group]
            optimal = {r.trial_index: r.capacity_bits for r in records
                       if r.algorithm == "exhaustive" and r.point_value == s.point_value}
            assert abs(s.mean_capacity - np.mean(caps)) <= 1e-9
            assert abs(s.stddev - np.std(caps, ddof=1)) <= 1e-9
            assert abs(s.ci95 - 1.96 * s.stddev / np.sqrt(len(caps))) <= 1e-9
            ratio = np.mean([r.capacity_bits / optimal[r.trial_index] for r in group])
            assert abs(s.mean_ratio - ratio) <= 1e-9
            assert abs(s.mean_ao_iterations - np.mean([r.ao_iterations for r in group])) <= 1e-9

    def test_summary_csv_roundtrip_is_lossless(self, tmp_path, capsys):
        run_cli("sweep", "--m", "1", "--n", "3", "--values", "2,3", "--trials", "3",
                "--algos", "exhaustive,conventional", "--out-dir", str(tmp_path),
                "--threads", "1")
        _, records = read_records_csv(tmp_path / "records.csv")
        _, summaries = read_summary_csv(tmp_path / "summary.csv")
        assert summaries == summarize(records)
        assert all(s.trials == 3 for s in summaries)

        written = [PointSummary(point_value=2.0, algorithm="jcr-ao", trials=7,
                                mean_capacity=1.5, stddev=0.25, ci95=0.1,
                                mean_ratio=0.9, mean_ao_iterations=2.0,
                                excluded_trials=2)]
        write_summary_csv(tmp_path / "hand.csv", "ports", written)
        assert read_summary_csv(tmp_path / "hand.csv") == ("ports", written)

    def test_empty_algorithms_exits_2(self, tmp_path, capsys):
        code = run_cli("sweep", "--algos", " ", "--values", "2", "--trials", "1",
                       "--out-dir", str(tmp_path))
        assert code == 2
        assert "algos" in capsys.readouterr().err

    def test_unknown_algorithm_exits_2(self, tmp_path, capsys):
        code = run_cli("sweep", "--algos", "greedy", "--values", "2", "--trials", "1",
                       "--out-dir", str(tmp_path))
        assert code == 2

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("m=1\nn=3\nvalues=2,3\ntrials=2\nalgos=conventional\n"
                       "master_seed=5\nthreads=1\n")
        out1 = tmp_path / "one"
        code = run_cli("sweep", "--config", str(cfg), "--out-dir", str(out1))
        assert code == 0
        _, records = read_records_csv(out1 / "records.csv")
        assert len(records) == 4  # 2 points x 2 trials x 1 algorithm
        # flag overrides the file
        out2 = tmp_path / "two"
        code = run_cli("sweep", "--config", str(cfg), "--trials", "1",
                       "--out-dir", str(out2))
        assert code == 0
        _, records = read_records_csv(out2 / "records.csv")
        assert len(records) == 2

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus=1\n")
        code = run_cli("sweep", "--config", str(cfg), "--out-dir", str(tmp_path))
        assert code == 2
        assert "bogus" in capsys.readouterr().err


class TestOverriddenOptions:
    SWEEP = ("sweep", "--m", "1", "--values", "2,3", "--trials", "2",
             "--algos", "exhaustive,random", "--threads", "1")

    def _sweep(self, out_dir, capsys, *extra):
        assert run_cli(*self.SWEEP, *extra, "--out-dir", str(out_dir)) == 0
        err = capsys.readouterr().err
        return err, (out_dir / "records.csv").read_bytes(), (out_dir / "summary.csv").read_bytes()

    @pytest.mark.parametrize("variable, flag, value, warning", [
        ("ports", "--nr", "5", "nr is ignored: the ports sweep sets it"),
        ("ports", "--n", "7", "n is ignored: the ports sweep sets it"),
        ("snr", "--snr-db", "30", "snr_db is ignored: the snr_db sweep sets it"),
        ("w", "--w", "4", "w is ignored: the w sweep sets it"),
    ])
    def test_flag_warns_and_leaves_records_unchanged(self, tmp_path, capsys, variable, flag,
                                                     value, warning):
        err, *plain = self._sweep(tmp_path / "a", capsys, "--variable", variable)
        assert err == ""
        err, *flagged = self._sweep(tmp_path / "b", capsys, "--variable", variable, flag, value)
        assert err.splitlines() == ["warning: " + warning]
        assert flagged == plain

    def test_config_key_warns_and_leaves_records_unchanged(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nt=6\n")
        _, *plain = self._sweep(tmp_path / "a", capsys)
        err, *configured = self._sweep(tmp_path / "b", capsys, "--config", str(cfg))
        assert err.splitlines() == ["warning: nt is ignored: the ports sweep sets it"]
        assert configured == plain

    def test_channel_file_options_warn(self, tmp_path, capsys):
        path = tmp_path / "ch.csv"
        run_cli("generate", "--m", "1", "--n", "3", "--seed", "2", "--out", str(path))
        cfg = tmp_path / "run.cfg"
        cfg.write_text("w=4\n")
        capsys.readouterr()
        assert run_cli("solve", "--channel", str(path), "--algo", "all") == 0
        plain = capsys.readouterr()
        assert plain.err == ""
        assert run_cli("solve", "--channel", str(path), "--algo", "all", "--config", str(cfg),
                       "--mr", "2", "--seed", "5", "--snr-db", "5.0") == 0
        warned = capsys.readouterr()
        assert warned.err.splitlines() == [
            f"warning: {name} is ignored: the channel comes from --channel"
            for name in ("mr", "w", "seed")]
        assert warned.out == plain.out

    @pytest.mark.parametrize("argv", [
        ("solve", "--m", "1", "--n", "2", "--seed", "3", "--w", "2", "--snr-db", "4"),
        ("sweep", "--variable", "snr", "--values", "0,5", "--m", "1", "--n", "2",
         "--w", "2", "--trials", "1", "--threads", "1"),
        ("sweep", "--variable", "w", "--values", "1,2", "--m", "1", "--nr", "2", "--nt", "3",
         "--snr-db", "4", "--trials", "1", "--threads", "1"),
    ], ids=["solve", "snr-sweep", "w-sweep"])
    def test_no_overridden_option_no_warning(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        assert run_cli(*argv) == 0
        assert capsys.readouterr().err == ""


class TestOptionTable:
    @staticmethod
    def _help_texts(command, capsys):
        """Help text of each flag in `command --help`, whitespace collapsed."""
        with pytest.raises(SystemExit) as err:
            run_cli(command, "--help")
        assert err.value.code == 0
        texts, flag = {}, None
        for line in capsys.readouterr().out.splitlines():
            words = line.split()
            if line.startswith("  --"):  # wrapped help lines are indented deeper
                flag = words[0]
                metavar = flag[2:].replace("-", "_").upper()
                texts[flag] = " ".join(words[2:] if words[1:2] == [metavar] else words[1:])
            elif flag and words:
                texts[flag] += " " + " ".join(words)
        return {flag: " ".join(text.split()) for flag, text in texts.items()}

    @pytest.mark.parametrize("command", ["generate", "solve", "sweep"])
    def test_help_shows_each_default_from_its_row(self, capsys, command):
        texts = self._help_texts(command, capsys)
        assert len(texts) == len(cli._OPTIONS[command])
        for name, (cast, default, text) in cli._OPTIONS[command].items():
            shown = texts["--" + name.replace("_", "-")]
            if default is None or cast is cli._boolean:
                assert shown == text
            else:
                assert shown == f"{text} (default {default})"
        for seed in ("--seed", "--baseline-seed", "--master-seed"):
            if seed in texts:
                assert texts[seed].endswith("(default 0)")
        assert ("channel file" in texts["--snr-db"]) == (command == "solve")

    def test_values_help_states_the_default_of_each_variable(self, tmp_path, capsys,
                                                             monkeypatch):
        text = self._help_texts("sweep", capsys)["--values"]
        monkeypatch.chdir(tmp_path)
        for variable, values in cli._SWEEP_DEFAULT_VALUES.items():
            assert f"{variable} {values}" in text
            # and a sweep without --values runs exactly those points
            assert run_cli("sweep", "--variable", variable, "--algos", "conventional",
                           "--trials", "1", "--m", "1", "--threads", "1") == 0
            _, records = read_records_csv(tmp_path / "records.csv")
            assert [r.point_value for r in records] == [float(v) for v in values.split(",")]

    @pytest.mark.parametrize("argv, key", [
        (("generate", "--out", "ch.csv"), "seed"),
        (("solve", "--algo", "conventional"), "seed"),
        (("solve", "--algo", "random"), "baseline_seed"),
        (("sweep", "--values", "2", "--trials", "1", "--threads", "1"), "master_seed"),
    ])
    def test_negative_seed_in_config_file_exits_2(self, tmp_path, capsys, monkeypatch,
                                                  argv, key):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.cfg").write_text(f"{key}=-1\n")
        assert run_cli(*argv, "--config", "run.cfg", "--m", "1", "--n", "2") == 2
        captured = capsys.readouterr()
        assert f"bad value for {key!r}: must be >= 0, got -1" in captured.err
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]

    def test_negative_seed_next_to_channel_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "ch.csv"
        run_cli("generate", "--m", "1", "--n", "2", "--out", str(path))
        with pytest.raises(SystemExit) as err:
            run_cli("solve", "--channel", str(path), "--seed", "-5")
        assert err.value.code == 2
        assert "--seed: must be >= 0" in capsys.readouterr().err


class TestAlgorithmDispatch:
    NAMES = ("exhaustive_search", "jcr_res", "jcr_ao", "random_selection", "conventional_mimo")

    def test_harness_attributes_see_every_run(self, tmp_path, capsys, monkeypatch):
        # the benchmark tracer wraps these harness attributes; sweep and
        # solve must reach every algorithm through them
        import fluidmimo.harness as harness_mod

        calls = dict.fromkeys(self.NAMES, 0)
        for name in self.NAMES:
            def counted(*args, _fn=getattr(harness_mod, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(harness_mod, name, counted)
        assert run_cli("sweep", "--m", "1", "--n", "3", "--values", "2,3", "--trials", "2",
                       "--threads", "1", "--out-dir", str(tmp_path)) == 0
        assert calls == dict.fromkeys(self.NAMES, 4)  # 2 points x 2 trials
        calls.update(dict.fromkeys(self.NAMES, 0))
        assert run_cli("solve", "--m", "1", "--n", "3", "--algo", "all") == 0
        assert calls == dict.fromkeys(self.NAMES, 1)


class _ArrayMemoryError(MemoryError):
    """Stands for numpy's MemoryError subclass of a failed allocation."""


class TestExitCodes:
    def test_solver_failure_exits_4(self, tmp_path, capsys, monkeypatch):
        import fluidmimo.harness as harness_mod
        from fluidmimo.ipm import IpmFailure, SolverStats

        def boom(channel, rho, **kwargs):
            raise IpmFailure("relaxation failed", SolverStats(100, 1.0, 1.0, 1.0, 1.0))

        monkeypatch.setattr(harness_mod, "jcr_res", boom)
        out = tmp_path / "ch.csv"
        run_cli("generate", "--m", "1", "--n", "2", "--seed", "1", "--out", str(out))
        capsys.readouterr()
        code = run_cli("solve", "--channel", str(out), "--algo", "jcr-res")
        assert code == 4
        assert "failed" in capsys.readouterr().err

    @pytest.mark.parametrize("error", [MemoryError(), _ArrayMemoryError("Unable to allocate")])
    def test_out_of_memory_exits_3(self, capsys, monkeypatch, error):
        # numpy raises a subclass of MemoryError; before, a traceback and exit 1
        import fluidmimo.harness as harness_mod

        def no_memory(channel, rho, **kwargs):
            raise error

        monkeypatch.setattr(harness_mod, "random_selection", no_memory)
        assert run_cli("solve", "--algo", "random") == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["solve", "sweep"])
    @pytest.mark.parametrize("epsilon", ["0", "-1", "nan", "inf"])
    def test_bad_epsilon_exits_2(self, capsys, command, epsilon):
        with pytest.raises(SystemExit) as err:
            run_cli(command, "--m", "1", "--n", "2", "--epsilon=" + epsilon)
        assert err.value.code == 2
        assert "epsilon" in capsys.readouterr().err

    def test_bad_epsilon_in_config_file_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epsilon=nan\n")
        code = run_cli("solve", "--config", str(cfg), "--m", "1", "--n", "2", "--algo", "jcr-ao")
        assert code == 2
        assert "epsilon" in capsys.readouterr().err

    @pytest.mark.parametrize("algo", ["exhaustive", "jcr-res", "jcr-ao", "random",
                                      "conventional", "all"])
    def test_non_finite_channel_file_exits_2(self, tmp_path, capsys, algo):
        path = tmp_path / "ch.csv"
        run_cli("generate", "--m", "1", "--n", "2", "--seed", "1", "--out", str(path))
        lines = path.read_text().splitlines()
        lines[3] = ",".join(lines[3].split(",")[:4] + ["nan", "0.0"])
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run_cli("solve", "--channel", str(path), "--algo", algo) == 2
        assert "line 4: non-finite" in capsys.readouterr().err

    def test_duplicate_channel_header_key_exits_2(self, tmp_path, capsys):
        path = tmp_path / "ch.csv"
        run_cli("generate", "--m", "2", "--n", "2", "--seed", "1", "--out", str(path))
        lines = path.read_text().splitlines()
        lines[0] += " m_r=3"
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run_cli("solve", "--channel", str(path), "--algo", "exhaustive") == 2
        assert "line 1: duplicate header key 'm_r'" in capsys.readouterr().err

    @pytest.mark.parametrize("algo", ["exhaustive", "jcr-res", "jcr-ao", "random",
                                      "conventional", "all"])
    def test_overflowing_channel_file_exits_2(self, tmp_path, capsys, algo):
        # finite coefficients whose |g|^2 overflows: before, exhaustive search
        # exited 0 with ports (N, N) and jcr-ao exited 1 with a traceback
        path = tmp_path / "ch.csv"
        run_cli("generate", "--m", "2", "--n", "3", "--seed", "1", "--out", str(path))
        lines = path.read_text().splitlines()
        rows = [line.split(",") for line in lines[2:]]
        lines[2:] = [",".join(r[:4] + [repr(float(v) * 1e160) for v in r[4:]]) for r in rows]
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run_cli("solve", "--channel", str(path), "--algo", algo) == 2
        assert "line 3: non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("algo", ["jcr-res", "jcr-ao"])
    @pytest.mark.parametrize("scale", [1e100, 1e-150])
    def test_overflowing_lp_exits_4(self, tmp_path, capsys, algo, scale):
        # finite entries, finite |g|^2, but an LP whose iterates leave
        # float64: before, 1e100 printed numpy warnings and a traceback,
        # exit 1
        path = tmp_path / "ch.csv"
        run_cli("generate", "--m", "2", "--n", "6", "--seed", "3", "--out", str(path))
        lines = path.read_text().splitlines()
        rows = [line.split(",") for line in lines[2:]]
        lines[2:] = [",".join(r[:4] + [repr(float(v) * scale) for v in r[4:]]) for r in rows]
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run_cli("solve", "--channel", str(path), "--algo", algo) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: interior-point solver") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ("solve", "--snr-db", "4000"),
        ("sweep", "--variable", "snr", "--values", "1,4000", "--trials", "1"),
    ], ids=["solve", "sweep"])
    def test_overflowing_snr_exits_2(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        assert run_cli(*argv, "--m", "1", "--n", "2") == 2
        assert "snr_db" in capsys.readouterr().err
        assert not (tmp_path / "records.csv").exists()

    def test_overflowing_snr_in_config_file_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("snr_db=4000\n")
        assert run_cli("solve", "--config", str(cfg), "--m", "1", "--n", "2") == 2
        assert "snr_db" in capsys.readouterr().err

    @pytest.mark.parametrize("algo", ["exhaustive", "jcr-res", "jcr-ao", "random", "all"])
    def test_overflowing_scores_exit_2(self, capsys, algo):
        # a finite linear SNR, 1e308, at which rho |g|^2 overflows
        assert run_cli("solve", "--snr-db", "3080", "--m", "2", "--n", "3", "--algo", algo) == 2
        assert "overflows" in capsys.readouterr().err

    @pytest.mark.parametrize("algo", ["exhaustive", "jcr-res", "jcr-ao", "random",
                                      "conventional", "all"])
    def test_overflowing_determinant_reports(self, capsys, algo):
        # rho |g|^2 ~ 1e300 is finite, the 2 x 2 determinants are not: the
        # scores are rescued, and every algorithm reports (before, every
        # search exited 2 and only conventional reported)
        argv = ("solve", "--snr-db", "3000", "--m", "2", "--n", "3", "--algo", algo, "--json")
        assert run_cli(*argv) == 0
        results = json.loads(capsys.readouterr().out)
        assert len(results) == (5 if algo == "all" else 1)
        assert all(np.isfinite(r["capacity_bits"]) and r["capacity_bits"] > 1900
                   for r in results)

    @pytest.mark.parametrize("text, expected", [("yes", True), ("TRUE", True), ("1", True),
                                                ("No", False), ("false", False), ("0", False)])
    def test_config_file_boolean_spellings(self, tmp_path, capsys, text, expected):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"json={text}\n")
        code = run_cli("solve", "--config", str(cfg), "--m", "1", "--n", "2",
                       "--algo", "conventional")
        assert code == 0
        out = capsys.readouterr().out
        assert out.lstrip().startswith("[") == expected

    @pytest.mark.parametrize("argv, key", [
        (("solve", "--algo", "conventional"), "json"),
        (("sweep", "--algos", "conventional", "--values", "2", "--trials", "1"), "timing"),
    ], ids=["solve", "sweep"])
    def test_bad_config_file_boolean_exits_2(self, tmp_path, capsys, monkeypatch, argv, key):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}=ture\n")
        assert run_cli(*argv, "--config", str(cfg), "--m", "1", "--n", "2") == 2
        err = capsys.readouterr().err
        assert key in err and "ture" in err
        assert not (tmp_path / "records.csv").exists()

    def test_repeated_algorithm_exits_2(self, tmp_path, capsys):
        # before, each repeat wrote its records twice and the summary read
        # trials=4 for 2 trials
        out = tmp_path / "out"
        code = run_cli("sweep", "--algos", "jcr-ao,jcr-ao,exhaustive", "--values", "3",
                       "--trials", "2", "--m", "1", "--out-dir", str(out))
        assert code == 2
        assert "jcr-ao" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, key", [("solve", "algo"), ("sweep", "variable")])
    def test_bad_choice_in_config_file_exits_2(self, tmp_path, capsys, monkeypatch,
                                               command, key):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}=bogus\n")
        assert run_cli(command, "--config", str(cfg), "--m", "1", "--n", "2") == 2
        err = capsys.readouterr().err
        assert key in err and "bogus" in err
        assert not (tmp_path / "records.csv").exists()

    def test_unusable_out_dir_exits_2_before_any_trial(self, tmp_path, capsys, monkeypatch):
        import fluidmimo.cli as cli_mod

        monkeypatch.setattr(cli_mod, "run_sweep", lambda *a, **k: pytest.fail("sweep ran"))
        (tmp_path / "afile").write_text("")
        code = run_cli("sweep", "--m", "1", "--n", "2", "--values", "2", "--trials", "1",
                       "--out-dir", str(tmp_path / "afile" / "x"))
        assert code == 2
        assert "out-dir: cannot create" in capsys.readouterr().err

    def test_unwritable_records_file_exits_2(self, tmp_path, capsys):
        (tmp_path / "records.csv").mkdir()
        code = run_cli("sweep", "--m", "1", "--n", "2", "--values", "2", "--trials", "1",
                       "--algos", "conventional", "--threads", "1", "--out-dir", str(tmp_path))
        assert code == 2
        assert "out-dir: cannot write" in capsys.readouterr().err

    def test_overstated_channel_header_exits_2(self, tmp_path, capsys):
        # before, allocating the declared matrix died with a traceback, exit 1
        path = tmp_path / "ch.csv"
        path.write_text("# fluid-mimo channel m_r=1000000 m_t=1000000 n_r=1000 n_t=1000 "
                        "snr_db=5.0 w=0.5\ni,n,j,k,re,im\n1,1,1,1,0.5,0.5\n")
        assert run_cli("solve", "--channel", str(path)) == 2
        assert "header declares 1000000000000000000 entries, found 1" in capsys.readouterr().err

    def test_missing_channel_file_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = run_cli("solve", "--channel", "no\nsuch.csv")
        assert code == 2
        assert "channel: cannot read" in capsys.readouterr().err

import json

import numpy as np
import pytest

from fluidmimo import load_channel
from fluidmimo.cli import main
from fluidmimo.harness import PointSummary, summarize
from fluidmimo.reporting import read_records_csv, read_summary_csv, write_summary_csv


def run_cli(*argv):
    return main(list(argv))


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
        code = run_cli("generate", "--m", "1", "--n", "2", "--seed", "-5",
                       "--out", str(tmp_path / "x.csv"))
        assert code == 2
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


class TestExitCodes:
    def test_solver_failure_exits_4(self, tmp_path, capsys, monkeypatch):
        import fluidmimo.cli as cli_mod
        from fluidmimo.ipm import IpmFailure, SolverStats

        def boom(channel, rho):
            raise IpmFailure("relaxation failed", SolverStats(100, 1.0, 1.0, 1.0, 1.0))

        monkeypatch.setattr(cli_mod, "jcr_res", boom)
        out = tmp_path / "ch.csv"
        run_cli("generate", "--m", "1", "--n", "2", "--seed", "1", "--out", str(out))
        capsys.readouterr()
        code = run_cli("solve", "--channel", str(out), "--algo", "jcr-res")
        assert code == 4
        assert "failed" in capsys.readouterr().err

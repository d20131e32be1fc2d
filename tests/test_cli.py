import csv
import os

import pytest

from csl.cli import _config_to_mapping, main
from csl.experiments import config_from_mapping, desk_presets, paper_presets, results_hash


def run_cli(*argv):
    return main(list(argv))


class TestGen:
    def test_logistic_writes_data_and_theta(self, tmp_path, capsys):
        out = tmp_path / "demo.csv"
        code = run_cli("gen", "--kind", "logistic", "--d", "3", "--n", "20",
                       "--seed", "4", "--out", str(out))
        assert code == 0
        assert out.exists()
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["y", "x_1", "x_2", "x_3"]
        assert len(rows) == 21
        theta_file = tmp_path / "demo_theta.csv"
        lines = theta_file.read_text().strip().split("\n")
        assert lines[0] == "coordinate,value"
        assert len(lines) == 4
        assert "wrote" in capsys.readouterr().out

    def test_gen_is_deterministic(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            run_cli("gen", "--kind", "logistic", "--d", "2", "--n", "15",
                    "--seed", "7", "--out", str(out))
        assert a.read_bytes() == b.read_bytes()

    def test_sparse_linear_writes_numbered_shards(self, tmp_path):
        out = tmp_path / "sparse.csv"
        code = run_cli("gen", "--kind", "sparse_linear", "--d", "6", "--n",
                       "10", "--k", "3", "--s", "2", "--seed", "1",
                       "--out", str(out))
        assert code == 0
        names = sorted(p.name for p in tmp_path.glob("sparse_shard*.csv"))
        assert names == ["sparse_shard01.csv", "sparse_shard02.csv",
                         "sparse_shard03.csv"]
        assert (tmp_path / "sparse_theta.csv").exists()

    def test_bad_geometry_exits_two(self, tmp_path, capsys):
        code = run_cli("gen", "--kind", "sparse_linear", "--d", "3", "--n",
                       "10", "--s", "5", "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "error" in capsys.readouterr().err.lower()


class TestRun:
    def test_overrides_on_top_of_preset(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code = run_cli("run", "--preset", "sweep_k_desk", "--out", str(out),
                       "trials=1", "k=2", "n=32", "d=2")
        assert code == 0
        assert out.exists()
        printed = capsys.readouterr().out
        assert str(out) in printed
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["k"] for r in rows} == {"2"}
        assert {r["n"] for r in rows} == {"32"}

    def test_config_file_runs(self, tmp_path):
        config = tmp_path / "cfg.txt"
        config.write_text(
            "experiment = MestSweepK\nd = 2\nn = 32\nk = 2\ntrials = 1\n"
            f"out = {tmp_path / 'from_file.csv'}\n")
        code = run_cli("run", "--config", str(config))
        assert code == 0
        assert (tmp_path / "from_file.csv").exists()

    def test_env_seed_beats_everything(self, tmp_path, monkeypatch):
        args = ("run", "--preset", "sweep_k_desk", "trials=1", "k=2",
                "n=32", "d=2", "seed=1")
        monkeypatch.setenv("CSL_SEED", "77")
        a = tmp_path / "env.csv"
        run_cli(*args, "--out", str(a))
        monkeypatch.delenv("CSL_SEED")
        b = tmp_path / "plain77.csv"
        run_cli("run", "--preset", "sweep_k_desk", "trials=1", "k=2",
                "n=32", "d=2", "seed=77", "--out", str(b))
        c = tmp_path / "plain1.csv"
        run_cli("run", "--preset", "sweep_k_desk", "trials=1", "k=2",
                "n=32", "d=2", "seed=1", "--out", str(c))
        assert results_hash(a) == results_hash(b)
        assert results_hash(a) != results_hash(c)

    def test_unknown_preset_exits_two(self, capsys):
        assert run_cli("run", "--preset", "nope") == 2
        assert "nope" in capsys.readouterr().err

    def test_bad_override_exits_two(self, capsys):
        assert run_cli("run", "--preset", "sweep_k_desk", "bogus") == 2

    def test_flagged_trials_exit_three(self, tmp_path, monkeypatch, capsys):
        import csl.experiments as experiments
        from csl.errors import CslError

        def always_fails(config, emitter, n, k, trial):
            raise CslError("boom")

        monkeypatch.setitem(experiments._TRIAL_RUNNERS, "MestSweepK",
                            always_fails)
        code = run_cli("run", "--preset", "sweep_k_desk", "trials=1", "k=2",
                       "n=32", "d=2", "--out", str(tmp_path / "f.csv"))
        assert code == 3
        assert "flagged" in capsys.readouterr().err


@pytest.mark.parametrize("name", sorted({**desk_presets(), **paper_presets()}))
def test_every_preset_round_trips_through_the_cli_mapping(name):
    preset = {**desk_presets(), **paper_presets()}[name]
    assert config_from_mapping(_config_to_mapping(preset)) == preset


class TestReport:
    def test_report_prints_table_and_writes_files(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        run_cli("run", "--preset", "sweep_k_desk", "--out", str(out),
                "trials=2", "k=2", "n=32", "d=2")
        capsys.readouterr()
        code = run_cli("report", str(out), "--out-dir", str(tmp_path / "rep"))
        assert code == 0
        printed = capsys.readouterr().out
        assert "median" in printed
        table_lines = [line for line in printed.splitlines()
                       if not line.startswith("wrote ")]
        assert not any("runtime_s" in line for line in table_lines)
        assert (tmp_path / "rep" / "summary.csv").exists()

    def test_missing_results_file_exits_two(self, tmp_path):
        assert run_cli("report", str(tmp_path / "absent.csv")) == 2

import csv
import dataclasses

import pytest

import csl.cli as cli
from csl.cli import main
from csl.experiments import RunResult, desk_presets, paper_presets, results_hash


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture
def built(monkeypatch):
    """The configs ``csl run`` builds, recorded in place of running them."""
    configs = []

    def record(config):
        configs.append(config)
        return RunResult(path=config.out_path, rows_written=0, error_flags=0)

    monkeypatch.setattr(cli, "run_experiment", record)
    monkeypatch.delenv("CSL_SEED", raising=False)
    return configs


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

    def test_bad_value_names_its_key(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        assert run_cli("run", "--out", str(out), "experiment=Bayes", "d=2", "n=1,x") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad config value for n: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("spelling", ["override", "env"])
    def test_negative_seed_exits_two_before_any_file(self, spelling, tmp_path, monkeypatch,
                                                     capsys):
        out = tmp_path / "neg.csv"
        args = ["run", "--preset", "sweep_k_desk", "--out", str(out)]
        if spelling == "env":
            monkeypatch.setenv("CSL_SEED", "-1")
        else:
            monkeypatch.delenv("CSL_SEED", raising=False)
            args.append("seed=-1")
        assert run_cli(*args) == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("case", ["missing_config", "non_utf8_config", "out_under_file"])
    def test_unreadable_input_or_unwritable_output_exits_two(self, case, tmp_path, capsys):
        (tmp_path / "latin1.txt").write_bytes(b"experiment = MestSweepK\nout = \xff.csv\n")
        (tmp_path / "file").write_text("")
        out = tmp_path / "r.csv"
        source, out = {
            "missing_config": (["--config", str(tmp_path / "absent.txt")], out),
            "non_utf8_config": (["--config", str(tmp_path / "latin1.txt")], out),
            "out_under_file": (["--preset", "sweep_k_desk"], tmp_path / "file" / "r.csv"),
        }[case]
        assert run_cli("run", *source, "--out", str(out), "trials=1", "k=2", "n=32") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("setting", ["sigma=nan", "sigma=inf", "lam_scale=inf",
                                         "lam_scale=nan"])
    def test_non_finite_noise_or_penalty_scale_exits_two_before_any_file(
            self, setting, tmp_path, capsys):
        # the noise level and the penalty scale are constants of the sparse
        # design, so no value of either, finite or not, reaches a run
        out = tmp_path / "r.csv"
        code = run_cli("run", "--out", str(out), "experiment=LassoFixedn", "d=20",
                       "n=40", "k=2", "trials=2", setting)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: unknown config keys: {setting.split('=')[0]};")
        assert not out.exists()

    def test_flagged_trials_exit_three(self, tmp_path, monkeypatch, capsys):
        import csl.experiments as experiments
        from csl.errors import CslError

        def always_fails(config, cluster, theta_star, trial, emit):
            raise CslError("boom")

        monkeypatch.setitem(experiments._DESIGNS, "MestSweepK",
                            (always_fails, ("n", "k")))
        code = run_cli("run", "--preset", "sweep_k_desk", "trials=1", "k=2",
                       "n=32", "d=2", "--out", str(tmp_path / "f.csv"))
        assert code == 3
        assert "flagged" in capsys.readouterr().err


# The sweep settings each experiment reads, at values it runs with.
_READ = {"MestSweepN": ["n=32", "n_total=64"], "MestSweepK": ["n=32", "k=2"],
         "Coverage": ["n=32", "k=2"], "LassoFixedN": ["k=2", "n_total=64"],
         "LassoFixedn": ["n=32", "k=2"], "Bayes": ["n=32", "k=2", "mcmc_iters=50"]}
_UNREAD = [("LassoFixedN", "n=32"), ("MestSweepN", "k=4")] + [
    (name, "n_total=64") for name in ("MestSweepK", "Coverage", "LassoFixedn", "Bayes")] + [
    (name, "mcmc_iters=50") for name in sorted(set(_READ) - {"Bayes"})]
_REMOVED = ["level=0.9", "rounds=2", "bins=5", "s=4", "sigma=0.5", "lam_scale=2.5"]
_REFUSED = [
    *[((f"experiment={name}", "d=10", *_READ[name], setting),
       f"{name} does not read {setting.split('=')[0]}") for name, setting in _UNREAD],
    *[(("experiment=Bayes", "d=2", *_READ["Bayes"], setting),
       f"unknown config keys: {setting.split('=')[0]};") for setting in _REMOVED],
    *[((f"experiment={name}", "d=9", *_READ[name]), f"{name} needs d >= 10")
      for name in ("LassoFixedN", "LassoFixedn")],
    (("--preset", "coverage_desk", "k=16", "mcmc_iters=5", "lam_scale=7", "n_total=999"),
     "unknown config keys: lam_scale;"),
]


@pytest.mark.parametrize("args, message", _REFUSED,
                         ids=[" ".join(args) for args, _ in _REFUSED])
def test_every_setting_a_run_accepts_is_one_it_reads(args, message, tmp_path, capsys):
    out = tmp_path / "r.csv"
    assert run_cli("run", "--out", str(out), *args, "trials=1") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name", sorted(_READ))
def test_each_experiment_accepts_the_settings_it_reads(name, built):
    assert run_cli("run", f"experiment={name}", "d=10", *_READ[name]) == 0
    assert [config.experiment for config in built] == [name]


@pytest.mark.parametrize("name", sorted({**desk_presets(), **paper_presets()}))
def test_every_preset_round_trips_through_the_cli_mapping(name, built):
    # With nothing on top, `csl run --preset` runs the preset itself.
    assert run_cli("run", "--preset", name) == 0
    assert built == [{**desk_presets(), **paper_presets()}[name]]


def test_preset_then_file_then_overrides_then_env_seed_then_out(tmp_path, monkeypatch,
                                                                built):
    config_file = tmp_path / "cfg.txt"
    config_file.write_text("d = 4\nn = 512\ntrials = 2\nseed = 3\n"
                           f"out = {tmp_path / 'file.csv'}\n")
    monkeypatch.setenv("CSL_SEED", "77")
    code = run_cli("run", "--preset", "coverage_desk", "--config", str(config_file),
                   "--out", str(tmp_path / "flag.csv"), "trials=5", "seed=9", "k=16")
    assert code == 0
    assert built == [dataclasses.replace(
        desk_presets()["coverage_desk"], d=4, n_values=(512,), trials=5, k_values=(16,),
        seed=77, out=str(tmp_path / "flag.csv"))]


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

    def test_non_integer_count_column_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "r.csv"
        bad.write_text("experiment,d,n,k,trial,estimator,metric,value\n"
                       "Bayes,x,64,16,1,csl,sq_error,0.5\n")
        assert run_cli("report", str(bad), "--out-dir", str(tmp_path / "rep")) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "line 2: bad d 'x'" in captured.err
        assert not (tmp_path / "rep").exists()

    @pytest.mark.parametrize("row, cell", [
        ("../escaped,2,64,16,1,csl,sq_error,0.5", "experiment '../escaped'"),
        ("Bayes,2,64,16,1,../csl,sq_error,0.5", "estimator '../csl'"),
        ("Bayes,2,64,16,1,csl,sq/error,0.5", "metric 'sq/error'")],
        ids=["experiment", "estimator", "metric"])
    def test_names_that_would_leave_the_out_dir_exit_two(self, row, cell, tmp_path,
                                                          capsys):
        # experiment and metric name the tidy files, so a path in either
        # would write outside --out-dir
        results = tmp_path / "r.csv"
        results.write_text("experiment,d,n,k,trial,estimator,metric,value\n"
                           f"{row}\n")
        assert run_cli("report", str(results), "--out-dir",
                       str(tmp_path / "out" / "tables")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "line 2: " in err and cell in err
        assert list(tmp_path.iterdir()) == [results]

    def test_out_dir_under_a_file_exits_two(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        run_cli("run", "--preset", "sweep_k_desk", "--out", str(out),
                "trials=1", "k=2", "n=32", "d=2")
        (tmp_path / "afile").write_text("")
        capsys.readouterr()
        assert run_cli("report", str(out), "--out-dir", str(tmp_path / "afile" / "rep")) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert captured.out == ""

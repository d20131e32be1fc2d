import csv
import dataclasses

import pytest

import csl.cli as cli
from csl.cli import main
from csl.experiments import RunResult, desk_presets, paper_presets


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
    return configs


class TestRun:
    def test_overrides_on_top_of_preset(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code = run_cli("run", "--preset", "sweep_k_desk", "out=" + str(out),
                       "trials=1", "k=2", "n=32", "d=2")
        assert code == 0
        assert out.exists()
        printed = capsys.readouterr().out
        assert str(out) in printed
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["k"] for r in rows} == {"2"}
        assert {r["n"] for r in rows} == {"32"}

    @pytest.mark.parametrize("flag", ["--config", "--out"])
    def test_removed_flags_exit_two_before_any_file(self, flag, tmp_path, capsys):
        # settings are key=value only; argparse refuses any other flag
        target = tmp_path / "f.csv"
        with pytest.raises(SystemExit) as exc:
            run_cli("run", flag, str(target), "experiment=MestSweepK", "d=2", "n=32",
                    "k=2", "trials=1")
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("settings, unset", [
        (("experiment=Coverage", "n=32", "k=2"), "d"),
        (("d=2", "n=32", "k=2"), "experiment"),
        (("n=32",), "experiment, d"),
    ], ids=["d", "experiment", "both"])
    def test_a_missing_required_setting_exits_two_before_any_file(self, settings, unset,
                                                                   tmp_path, capsys):
        out = tmp_path / "r.csv"
        assert run_cli("run", *settings, "trials=1", "out=" + str(out)) == 2
        assert capsys.readouterr().err == f"error: config must set {unset}\n"
        assert list(tmp_path.iterdir()) == []

    def test_a_flag_among_the_settings_after_the_preset_exits_two_before_any_file(
            self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "trials=1", "--preset", "sweep_k_desk", "k=2", "--out",
                    str(tmp_path / "f.csv"), "n=32", "out=" + str(tmp_path / "r.csv"))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: " in err and " --out " in err
        assert list(tmp_path.iterdir()) == []

    def test_unknown_preset_exits_two(self, capsys):
        assert run_cli("run", "--preset", "nope") == 2
        assert "nope" in capsys.readouterr().err

    def test_bad_override_exits_two(self, capsys):
        assert run_cli("run", "--preset", "sweep_k_desk", "bogus") == 2

    def test_bad_value_names_its_key(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        assert run_cli("run", "out=" + str(out), "experiment=Bayes", "d=2", "n=1,x") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad config value for n: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("spelling", ["override"])
    def test_negative_seed_exits_two_before_any_file(self, spelling, tmp_path, capsys):
        out = tmp_path / "neg.csv"
        assert run_cli("run", "--preset", "sweep_k_desk", "out=" + str(out), "seed=-1") == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("case", ["out_under_file"])
    def test_unreadable_input_or_unwritable_output_exits_two(self, case, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "r.csv"
        assert run_cli("run", "--preset", "sweep_k_desk", "out=" + str(out), "trials=1",
                       "k=2", "n=32") == 2
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
        code = run_cli("run", "out=" + str(out), "experiment=LassoFixedn", "d=20",
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
                       "n=32", "d=2", "out=" + str(tmp_path / "f.csv"))
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
    assert run_cli("run", *args, "out=" + str(out), "trials=1") == 2
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


def test_preset_then_settings_in_order_with_a_later_key_winning(tmp_path, monkeypatch,
                                                                 built):
    # the preset and the settings are the only layers: CSL_SEED is not one
    monkeypatch.setenv("CSL_SEED", "77")
    code = run_cli("run", "--preset", "coverage_desk", "seed=3", "d=4", "n=512",
                   "out=" + str(tmp_path / "flag.csv"), "trials=5", "seed=9", "k=16")
    assert code == 0
    assert built == [dataclasses.replace(
        desk_presets()["coverage_desk"], d=4, n=(512,), trials=5, k=(16,),
        seed=9, out=str(tmp_path / "flag.csv"))]


def test_settings_on_both_sides_of_the_preset_apply_in_order(built):
    assert run_cli("run", "trials=1", "--preset", "sweep_k_desk", "k=2", "n=32", "d=2",
                   "out=mix.csv") == 0
    assert run_cli("run", "seed=3", "--preset", "sweep_k_desk", "seed=9") == 0
    preset = desk_presets()["sweep_k_desk"]
    assert built == [
        dataclasses.replace(preset, trials=1, k=(2,), n=(32,), d=2, out="mix.csv"),
        dataclasses.replace(preset, seed=9)]


def test_csl_seed_in_the_environment_is_not_read(monkeypatch, built):
    monkeypatch.setenv("CSL_SEED", "77")
    assert run_cli("run", "--preset", "coverage_desk") == 0
    assert built == [desk_presets()["coverage_desk"]]


# Raw results rows for two metrics of one sweep point.
_RAW_ROWS = ("experiment,d,n,k,trial,estimator,metric,value\n"
             "MestSweepK,2,32,2,1,global,sq_error,0.5\n"
             "MestSweepK,2,32,2,1,global,vectors_sent,0.0\n")


class TestReport:
    def test_report_prints_table_and_writes_files(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        run_cli("run", "--preset", "sweep_k_desk", "out=" + str(out),
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

    def test_report_writes_only_summary_csv(self, tmp_path, capsys):
        results = tmp_path / "r.csv"
        results.write_text(_RAW_ROWS)
        assert run_cli("report", str(results), "--out-dir", str(tmp_path / "rep")) == 0
        assert [p.name for p in (tmp_path / "rep").iterdir()] == ["summary.csv"]
        wrote = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("wrote ")]
        assert wrote == [f"wrote {tmp_path / 'rep' / 'summary.csv'}"]

    @pytest.mark.parametrize("out_dir", [None, "clob", "clob/../clob"])
    def test_report_never_writes_over_its_input(self, out_dir, tmp_path, capsys):
        results = tmp_path / "clob" / "summary.csv"
        results.parent.mkdir()
        results.write_text(_RAW_ROWS)
        args = [] if out_dir is None else ["--out-dir", str(tmp_path / out_dir)]
        assert run_cli("report", str(results), *args) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: report would overwrite its input")
        assert captured.out == ""
        assert results.read_text() == _RAW_ROWS
        assert sorted(tmp_path.rglob("*")) == [results.parent, results]

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
        # the grouped cells must be plain names: a path in any of them is
        # refused before --out-dir is made
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
        run_cli("run", "--preset", "sweep_k_desk", "out=" + str(out),
                "trials=1", "k=2", "n=32", "d=2")
        (tmp_path / "afile").write_text("")
        capsys.readouterr()
        assert run_cli("report", str(out), "--out-dir", str(tmp_path / "afile" / "rep")) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert captured.out == ""

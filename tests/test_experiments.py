import csv
import dataclasses
import statistics

import numpy as np
import pytest

import csl.experiments as experiments
from csl.errors import ConfigError, CslError
from csl.experiments import (EXPERIMENTS, RESULTS_HEADER, ExperimentConfig,
                             config_from_mapping, config_values,
                             desk_presets, paper_presets,
                             parse_config_text, report, results_hash,
                             run_experiment)


def read_rows(path):
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return list(reader)


def as_mapping(**kwargs):
    mapping = {}
    for key, value in kwargs.items():
        if isinstance(value, (list, tuple)):
            mapping[key] = ",".join(str(v) for v in value)
        else:
            mapping[key] = str(value)
    return mapping


def tiny_mest_config(tmp_path, **overrides):
    base = dict(experiment="MestSweepK", d=3, n=[64], k=[2, 4], trials=2,
                seed=5, out=str(tmp_path / "results.csv"))
    base.update(overrides)
    return config_from_mapping(as_mapping(**base))


class TestConfigParsing:
    def test_key_value_lines_with_comments(self):
        text = """
        # sweep over machines
        experiment = MestSweepK
        d = 3
        n = 64
        k = 2, 4
        trials = 2   # small smoke
        out = results.csv
        """
        mapping = parse_config_text(text)
        config = config_from_mapping(mapping)
        assert config.experiment == "MestSweepK"
        assert config.n_values == (64,)
        assert config.k_values == (2, 4)
        assert config.trials == 2

    def test_last_assignment_wins(self):
        mapping = parse_config_text("seed = 1\nseed = 9\n")
        assert mapping["seed"] == "9"

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknow"):
            config_from_mapping(as_mapping(experiment="Bayes", d=2, unknowable=1))

    def test_unknown_experiment_rejected(self):
        for name in ("Sweepy", "coverage", "lasso_fixed_total"):
            with pytest.raises(ConfigError, match="valid: MestSweepN"):
                config_from_mapping(as_mapping(experiment=name, d=2))

    def test_n_is_needed_only_where_the_sweep_reads_it(self, tmp_path):
        total = config_from_mapping(as_mapping(experiment="LassoFixedN", d=10,
                                               n_total=80, k=[2, 4]))
        assert total.n_values == ()
        assert experiments._sweep_points(total) == [(40, 2), (20, 4)]
        for name in sorted(set(EXPERIMENTS) - {"LassoFixedN"}):
            out = tmp_path / f"{name}.csv"
            axis = {"n_total": 80} if name == "MestSweepN" else {"k": [2, 4]}
            config = config_from_mapping(as_mapping(experiment=name, d=10, out=out,
                                                    **axis))
            with pytest.raises(ConfigError, match=r"needs n \("):
                run_experiment(config)
            assert not out.exists()

    def test_experiment_names_are_closed(self):
        assert set(EXPERIMENTS) == {"MestSweepN", "MestSweepK", "Coverage",
                                    "LassoFixedN", "LassoFixedn", "Bayes"}

    def test_sparsity_must_fit_dimension_for_lasso_only(self):
        # the sparse model's s=10 exceeds d=3 but only the lasso designs care
        tiny = config_from_mapping(as_mapping(experiment="MestSweepK", d=3, n=[32]))
        assert tiny.d == 3
        with pytest.raises(ConfigError, match="LassoFixedn needs d >= 10"):
            config_from_mapping(as_mapping(experiment="LassoFixedn", d=3, n=[32]))
        assert config_from_mapping(as_mapping(experiment="LassoFixedn", d=10,
                                              n=[32])).d == 10

    def test_every_key_parses_into_its_field(self):
        mapping = {"experiment": "Bayes", "d": "20", "n": "8, 16", "k": "2,3",
                   "n_total": "96", "trials": "3", "seed": "7", "out": "elsewhere.csv",
                   "mcmc_iters": "50"}
        values = dict(experiment="Bayes", d=20, n_values=(8, 16), k_values=(2, 3),
                      n_total=96, trials=3, seed=7, out="elsewhere.csv", mcmc_iters=50)
        defaults = ExperimentConfig(experiment="Bayes", d=20)
        for f in dataclasses.fields(ExperimentConfig):
            if f.name not in ("experiment", "d"):
                assert values[f.name] != getattr(defaults, f.name), f.name
        assert len(mapping) == len(dataclasses.fields(ExperimentConfig))
        assert config_values(mapping) == values
        # no design reads every key: Bayes sweeps its grid without n_total
        del mapping["n_total"], values["n_total"]
        assert config_from_mapping(mapping) == ExperimentConfig(**values)
        assert config_values({"n": "4", "k": "2", "mcmc_iters": "3"}) == {
            "n_values": (4,), "k_values": (2,), "mcmc_iters": 3}

    def test_values_parse_by_field_type(self):
        with pytest.raises(ConfigError, match="bad config value for trials: "):
            config_from_mapping(as_mapping(experiment="Bayes", d=2, n=[8],
                                           trials="2.5"))
        config = config_from_mapping(as_mapping(experiment="Bayes", d=2, n=[8],
                                                mcmc_iters="300", out="7"))
        assert config.mcmc_iters == 300 and isinstance(config.mcmc_iters, int)
        assert config.out == "7"

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("this line has no equals sign\n")


class TestRunMest:
    def test_row_accounting(self, tmp_path):
        config = tiny_mest_config(tmp_path)
        result = run_experiment(config)
        rows = read_rows(result.path)
        # per trial: global 3 rows, subsample 2, averaging 2, csl_t 2 each
        # for the three refit rounds, plus one runtime row
        per_trial = 3 + 2 + 2 + 2 * 3 + 1
        assert len(rows) == per_trial * 2 * 2
        assert result.rows_written == len(rows)
        assert result.error_flags == 0
        assert set(r["estimator"] for r in rows) == {
            "global", "subsample", "averaging", "csl_1", "csl_2", "csl_3",
            "trial"}

    def test_header_schema(self, tmp_path):
        result = run_experiment(tiny_mest_config(tmp_path))
        with open(result.path, newline="") as fh:
            header = next(csv.reader(fh))
        assert tuple(header) == RESULTS_HEADER

    def test_trials_are_isolated_streams(self, tmp_path):
        few = run_experiment(tiny_mest_config(tmp_path, trials=1,
                                              out=str(tmp_path / "few.csv")))
        many = run_experiment(tiny_mest_config(tmp_path, trials=3,
                                               out=str(tmp_path / "many.csv")))
        few_rows = [r for r in read_rows(few.path) if r["trial"] == "1"
                    and r["metric"] != "runtime_s"]
        many_rows = [r for r in read_rows(many.path) if r["trial"] == "1"
                     and r["metric"] != "runtime_s"]
        assert few_rows == many_rows

    def test_communication_columns_are_exact(self, tmp_path):
        config = tiny_mest_config(tmp_path, k=[4])
        rows = read_rows(run_experiment(config).path)
        by = {(r["estimator"], r["metric"]): r["value"]
              for r in rows if r["trial"] == "1"}
        assert float(by[("global", "samples_moved")]) == 3 * 64
        assert float(by[("global", "vectors_sent")]) == 0
        assert float(by[("averaging", "vectors_sent")]) == 3
        # one-step refits cost two rounds of (k-1) on top of the start
        assert float(by[("csl_1", "vectors_sent")]) == 3 + 2 * 3
        assert float(by[("csl_3", "vectors_sent")]) == 3 + 6 * 3

    def test_sweep_n_requires_matching_total(self, tmp_path):
        with pytest.raises(ConfigError):
            run_experiment(config_from_mapping(as_mapping(
                experiment="MestSweepN", d=2, n=[48], n_total=100,
                out=str(tmp_path / "r.csv"))))


class TestRunCoverage:
    def test_indicator_rows_are_binary(self, tmp_path):
        config = config_from_mapping(as_mapping(
            experiment="Coverage", d=2, n=[256], k=[4], trials=3, seed=1,
            out=str(tmp_path / "cov.csv")))
        with pytest.warns(UserWarning, match="sigma_cross with k=4"):
            result = run_experiment(config)
        rows = read_rows(result.path)
        hits = [float(r["value"]) for r in rows
                if r["metric"].startswith("covered_")]
        assert len(hits) == 2 * 3
        assert set(hits) <= {0.0, 1.0}
        widths = [float(r["value"]) for r in rows
                  if r["metric"].startswith("halfwidth_")]
        assert all(w > 0 for w in widths)
        # three refit rounds, the interval round and the cross round, each
        # 2(k-1) vectors; the start is the coordinator's own fit
        sent = [float(r["value"]) for r in rows if r["metric"] == "vectors_sent"]
        assert sent == [10 * (4 - 1)] * 3


class TestRunBayes:
    def test_bins_follow_sturges_rule_on_the_kept_draws(self, tmp_path):
        assert ExperimentConfig(experiment="Bayes", d=2).bins == 15
        # two steps keep a single draw, which still gets the two-bin floor
        config = config_from_mapping(as_mapping(
            experiment="Bayes", d=2, n=[32], k=[2], trials=1, mcmc_iters=2,
            out=str(tmp_path / "two_steps.csv")))
        assert config.bins == 2
        result = run_experiment(config)
        assert result.error_flags == 0
        assert "marginal_l1_2" in [r["metric"] for r in read_rows(result.path)]

    def test_marginal_rows_per_coordinate(self, tmp_path):
        config = config_from_mapping(as_mapping(
            experiment="Bayes", d=2, n=[64], k=[2], trials=1, seed=3,
            mcmc_iters=400, out=str(tmp_path / "bayes.csv")))
        rows = read_rows(run_experiment(config).path)
        metrics = [r["metric"] for r in rows]
        assert "marginal_l1_1" in metrics
        assert "marginal_l1_2" in metrics
        assert metrics.count("accept_rate") == 2
        scores = [float(r["value"]) for r in rows
                  if r["metric"].startswith("marginal_l1")]
        assert all(0.0 <= s <= 2.0 for s in scores)


class TestFailureHandling:
    def test_error_flag_row_and_continuation(self, tmp_path, monkeypatch):
        calls = {"count": 0}
        real = experiments._mest_trial

        def flaky(config, cluster, theta_star, trial, emit):
            calls["count"] += 1
            if trial == 1:
                raise CslError("synthetic failure")
            return real(config, cluster, theta_star, trial, emit)

        monkeypatch.setitem(experiments._DESIGNS, "MestSweepK", (flaky, ("n", "k")))
        config = tiny_mest_config(tmp_path, k=[2])
        result = run_experiment(config)
        assert calls["count"] == 2
        assert result.error_flags == 1
        rows = read_rows(result.path)
        flagged = [r for r in rows if r["metric"] == "error_flag"]
        assert len(flagged) == 1
        assert flagged[0]["trial"] == "1"
        assert any(r["trial"] == "2" and r["metric"] == "sq_error"
                   for r in rows)


    def test_failed_trial_leaves_only_its_flag(self, tmp_path, monkeypatch):
        real = experiments._mest_trial

        def half_done(config, cluster, theta_star, trial, emit):
            if trial == 1:
                emit("global", "sq_error", 1.0)
                raise CslError("failure after a row")
            return real(config, cluster, theta_star, trial, emit)

        monkeypatch.setitem(experiments._DESIGNS, "MestSweepK", (half_done, ("n", "k")))
        result = run_experiment(tiny_mest_config(tmp_path, k=[2]))
        rows = read_rows(result.path)
        first = [r for r in rows if r["trial"] == "1"]
        assert [(r["estimator"], r["metric"], r["value"]) for r in first] == [
            ("trial", "error_flag", "1.0")]
        assert result.error_flags == 1
        assert result.rows_written == len(rows)
        assert len(rows) > 1

    def test_non_finite_value_flags_the_trial(self, tmp_path, monkeypatch):
        def emits_nan(config, cluster, theta_star, trial, emit):
            emit("global", "vectors_sent", 0)
            emit("global", "sq_error", float("nan"))

        monkeypatch.setitem(experiments._DESIGNS, "MestSweepK", (emits_nan, ("n", "k")))
        result = run_experiment(tiny_mest_config(tmp_path, k=[2]))
        rows = read_rows(result.path)
        assert [r["metric"] for r in rows] == ["error_flag", "error_flag"]
        assert result.error_flags == 2


class TestHashAndReport:
    def test_hash_stable_across_reruns(self, tmp_path):
        a = run_experiment(tiny_mest_config(tmp_path,
                                            out=str(tmp_path / "a.csv")))
        b = run_experiment(tiny_mest_config(tmp_path,
                                            out=str(tmp_path / "b.csv")))
        assert results_hash(a.path) == results_hash(b.path)

    def test_hash_ignores_runtime_rows(self, tmp_path):
        result = run_experiment(tiny_mest_config(tmp_path))
        baseline = results_hash(result.path)
        rows = read_rows(result.path)
        with open(result.path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=RESULTS_HEADER)
            writer.writeheader()
            for row in rows:
                if row["metric"] == "runtime_s":
                    row = dict(row, value="99.9")
                writer.writerow(row)
        assert results_hash(result.path) == baseline

    def test_hash_sees_value_changes(self, tmp_path):
        result = run_experiment(tiny_mest_config(tmp_path))
        baseline = results_hash(result.path)
        rows = read_rows(result.path)
        rows[0]["value"] = "123.0"
        with open(result.path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=RESULTS_HEADER)
            writer.writeheader()
            writer.writerows(rows)
        assert results_hash(result.path) != baseline

    def test_report_medians_match_oracle(self, tmp_path):
        result = run_experiment(tiny_mest_config(tmp_path))
        summary, written = report(result.path, out_dir=tmp_path / "rep")
        rows = read_rows(result.path)
        want = {}
        for r in rows:
            key = (r["experiment"], r["d"], r["n"], r["k"], r["estimator"],
                   r["metric"])
            want.setdefault(key, []).append(float(r["value"]))
        for entry in summary:
            key = (entry["experiment"], entry["d"], entry["n"], entry["k"],
                   entry["estimator"], entry["metric"])
            values = want[key]
            assert entry["count"] == len(values)
            assert entry["median"] == pytest.approx(statistics.median(values))
            med = statistics.median(values)
            assert entry["mad"] == pytest.approx(
                statistics.median([abs(v - med) for v in values]))
        assert (tmp_path / "rep" / "summary.csv") in written

    def test_report_rejects_malformed_results(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("experiment,d,n\nMestSweepK,3,64\n")
        with pytest.raises(ConfigError):
            report(bad, out_dir=tmp_path)
        header = ",".join(RESULTS_HEADER)
        for col, row in [("d", "Bayes,x,64,16,1,csl,sq_error,0.5"),
                         ("trial", "Bayes,2,64,16,1.5,csl,sq_error,0.5")]:
            bad.write_text(f"{header}\nBayes,2,64,16,1,csl,sq_error,0.5\n{row}\n")
            with pytest.raises(ConfigError, match=f"line 3: bad {col}"):
                report(bad, out_dir=tmp_path)


class TestPresets:
    def test_desk_presets_cover_every_experiment(self):
        presets = desk_presets()
        assert {p.experiment for p in presets.values()} == set(EXPERIMENTS)

    def test_paper_presets_scale_up(self):
        desk = desk_presets()
        paper = paper_presets()
        assert set(paper) != set()
        biggest_desk = max(c.n_total or max(c.n_values) * max(c.k_values)
                           for c in desk.values())
        biggest_paper = max(c.n_total or max(c.n_values) * max(c.k_values)
                            for c in paper.values())
        assert biggest_paper > biggest_desk


class TestStatisticalShape:
    def test_refits_beat_averaging_when_shards_are_small(self, tmp_path):
        # fragments this small leave visible first-order bias in the split
        # average; two surrogate refits from that start should remove most
        # of it at the same dimension
        config = config_from_mapping(as_mapping(
            experiment="MestSweepN", d=10, n=[256], n_total=16_384,
            trials=8, seed=11, out=str(tmp_path / "sweep.csv")))
        rows = read_rows(run_experiment(config).path)

        def med(estimator):
            vals = [float(r["value"]) for r in rows
                    if r["estimator"] == estimator and r["metric"] == "sq_error"]
            assert len(vals) == 8
            return statistics.median(vals)

        assert med("csl_2") < med("averaging")
        assert med("global") <= med("csl_2") * 3

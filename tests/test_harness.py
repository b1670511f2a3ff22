import concurrent.futures
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fedstat import cli, critvals, engine, harness, schedules
from fedstat.config import _KEYS, config_text
from fedstat.harness import (
    ExperimentConfig,
    convergence_curve,
    parse_config_text,
    partial_sum_process,
    run_experiment,
)
from fedstat.plugin import PluginState
from fedstat.rscale import RScaleState
from reference import per_round_run, shipped_table_with

BASE_CONFIG = """
# linear coverage experiment
model = linear
dimension = 3
clients = 4
heterogeneity = on
schedule = constant
schedule_base = 1
gamma0 = 0.5
alpha = 0.505
warmup_fraction = 0.05
target_observations = 400
replications = 6
seed = 11
methods = plugin,rscale
alpha_level = 0.05
coordinate = 0
"""


def quadratic_config(**overrides):
    kwargs = dict(
        model="quadratic",
        dimension=2,
        clients=3,
        heterogeneity=True,
        schedule=schedules.CommunicationSchedule("constant", base=2, gamma0=0.6, alpha=0.6),
        rounds=25,
        target_observations=None,
        replications=4,
        seed=5,
        methods=("plugin", "rscale"),
        x0="optimum",
    )
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


class TestConfigParsing:
    def test_full_roundtrip(self):
        config = parse_config_text(BASE_CONFIG)
        assert config.model == "linear"
        assert config.dimension == 3
        assert config.schedule.kind == "constant"
        assert config.schedule.warmup_fraction == 0.05
        assert config.target_observations == 400
        assert config.methods == ("plugin", "rscale")

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            parse_config_text("model = linear\nbogus = 1\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError, match="key = value"):
            parse_config_text("model linear\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_config_text("seed = 1\nseed = 2\n")

    def test_logistic_heterogeneity_rejected(self):
        text = "model = logistic\nheterogeneity = on\nrounds = 10\n"
        with pytest.raises(ValueError, match="heterogeneity"):
            parse_config_text(text)

    def test_exactly_one_run_length(self):
        with pytest.raises(ValueError, match="exactly one"):
            ExperimentConfig(rounds=10, target_observations=100)

    def test_schedule_keys_override_the_default_schedule(self):
        config = parse_config_text("gamma0 = 0.7\n")
        default = ExperimentConfig().schedule
        assert config.schedule == replace(default, gamma0=0.7)
        assert config.schedule.kind == "constant"
        assert config.schedule.warmup_fraction == 0.05

    def test_x0_vector(self):
        config = parse_config_text("model = linear\ndimension = 2\nrounds = 5\nx0 = 0.5,-1\n")
        assert config.x0 == (0.5, -1.0)

    @pytest.mark.parametrize("x0", ["0.5", "0.5,-1,2", "nan,0", "0,inf"])
    def test_x0_vector_of_wrong_length_or_not_finite_rejected(self, x0):
        text = f"model = linear\ndimension = 2\nrounds = 5\nx0 = {x0}\n"
        with pytest.raises(ValueError, match="x0 must be a finite vector of length 2"):
            parse_config_text(text)

    def test_repeated_method_rejected(self):
        with pytest.raises(ValueError, match="methods must not repeat"):
            parse_config_text("methods = plugin,rscale,plugin\n")

    @pytest.mark.parametrize(
        "line, field",
        [
            ("gamma0 = nan", "gamma0"),
            ("gamma0 = inf", "gamma0"),
            ("schedule = log\nschedule_exponent = nan", "exponent"),
            ("schedule = log\nschedule_exponent = inf", "exponent"),
            ("schedule_exponent = nan", "schedule exponent must be finite"),
            ("schedule_exponent = -inf", "schedule exponent must be finite"),
            ("noise_scale = nan", "noise_scale"),
            ("noise_scale = inf", "noise_scale"),
        ],
        ids=["gamma0-nan", "gamma0-inf", "exponent-nan", "exponent-inf", "constant-exponent-nan",
             "constant-exponent-inf", "noise-nan", "noise-inf"],
    )
    def test_non_finite_value_rejected(self, line, field):
        with pytest.raises(ValueError, match=field):
            parse_config_text(f"model = linear\nrounds = 5\n{line}\n")

    def test_cli_rejects_a_nan_gamma0_before_any_run(self, tmp_path, capsys, monkeypatch):
        runs = []
        monkeypatch.setattr(engine, "run", lambda *args, **kwargs: runs.append(args))
        path = tmp_path / "config.txt"
        path.write_text(BASE_CONFIG.replace("gamma0 = 0.5", "gamma0 = nan"))
        assert cli.main(["run", "--config", str(path)]) == 1
        assert capsys.readouterr().err == "fedstat: error: gamma0 must be positive and finite\n"
        assert runs == []

    def test_readme_names_every_config_key(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        assert [key for key in _KEYS if f"| `{key}` |" not in readme] == []

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            ExperimentConfig(seed=-1)
        with pytest.raises(ValueError, match="seed must be >= 0"):
            parse_config_text("seed = -1\n")

    def test_plugin_skip_warmup_is_an_unknown_key(self):
        with pytest.raises(ValueError, match=r"unknown config keys: \['plugin_skip_warmup'\]"):
            parse_config_text("plugin_skip_warmup = on\n")

    @pytest.mark.parametrize(
        "field",
        ["dimension", "clients", "rounds", "target_observations", "replications", "seed",
         "coordinate"],
    )
    def test_non_integer_count_rejected(self, field):
        kwargs = dict(rounds=5, target_observations=None)
        if field == "target_observations":
            kwargs = dict(rounds=None, target_observations=400)
        kwargs[field] = 2.5
        with pytest.raises(ValueError, match=f"{field} must be an integer, got 2.5"):
            ExperimentConfig(**kwargs)

    def test_written_config_runs_like_the_text_it_came_from(self):
        rewritten = parse_config_text(config_text(parse_config_text(BASE_CONFIG)))
        assert harness.report_csv(run_experiment(rewritten)) == harness.report_csv(
            run_experiment(parse_config_text(BASE_CONFIG))
        )

    def test_numpy_integer_counts_run_like_python_ints(self):
        fields = ("dimension", "clients", "rounds", "replications", "seed", "coordinate")
        config = quadratic_config(coordinate=1)
        numpy_config = replace(config, **{f: np.int64(getattr(config, f)) for f in fields})
        assert harness.report_csv(run_experiment(numpy_config)) == harness.report_csv(
            run_experiment(config)
        )


class TestRoundsForTarget:
    def test_exact_hit(self):
        sched = schedules.CommunicationSchedule("constant", base=5)
        assert schedules.rounds_for_target(sched, 100) == 20

    def test_first_crossing(self):
        sched = schedules.CommunicationSchedule("power", base=1, exponent=0.5)
        t = schedules.rounds_for_target(sched, 500)
        total = schedules.table(sched, t).t_T
        before = schedules.table(sched, t - 1).t_T
        assert total >= 500 > before

    def test_with_warmup(self):
        sched = schedules.CommunicationSchedule("constant", base=5, warmup_fraction=0.05)
        t = schedules.rounds_for_target(sched, 10000)
        assert t == 2400  # 500 warm-up rounds + 1900 rounds of five steps


class TestBuildFederation:
    def test_logistic_optimum_equispaced(self):
        config = ExperimentConfig(
            model="logistic", dimension=5, clients=3, heterogeneity=False, rounds=10,
            target_observations=None, replications=1,
        )
        fed = harness.build_federation(config)
        np.testing.assert_allclose(fed.global_optimum, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_homogeneous_linear_shares_optimum(self):
        config = ExperimentConfig(
            model="linear", dimension=3, clients=4, heterogeneity=False, rounds=10,
            target_observations=None, replications=1,
        )
        fed = harness.build_federation(config)
        for client in fed.clients:
            np.testing.assert_array_equal(client.local_optimum, fed.clients[0].local_optimum)

    def test_same_seed_same_federation(self):
        config = parse_config_text(BASE_CONFIG)
        a = harness.build_federation(config)
        b = harness.build_federation(config)
        np.testing.assert_array_equal(a.global_optimum, b.global_optimum)


class TestRunExperiment:
    def test_noiseless_quadratic_degenerate_coverage(self):
        report = run_experiment(quadratic_config())
        for summary in report.methods:
            assert summary.coverage == 1.0
            assert summary.mean_length == 0.0
            assert summary.failures == 0

    def test_failures_counted_and_excluded(self):
        # Two rounds cannot identify a 3x3 Hessian: every plugin rep fails.
        config = quadratic_config(
            model="linear", dimension=3, clients=2, rounds=2,
            schedule=schedules.CommunicationSchedule("constant", base=1),
            methods=("plugin", "rscale"), x0="zeros", replications=3,
        )
        report = run_experiment(config)
        plugin = report.methods[0]
        assert plugin.failures == 3
        assert np.isnan(plugin.coverage) and np.isnan(plugin.length_sd)
        rscale = report.methods[1]
        assert rscale.failures == 0

    def test_array_x0_runs_like_the_same_tuple(self):
        # An ExperimentConfig built in Python may hold x0 as a numpy array.
        reports = [
            run_experiment(quadratic_config(x0=x0, rounds=5, replications=1))
            for x0 in (np.array([0.5, 1.0]), (0.5, 1.0))
        ]
        assert harness.report_csv(reports[0]) == harness.report_csv(reports[1])
        assert reports[0].mean_error == reports[1].mean_error

    def test_diverging_replications_fail_every_method(self, tmp_path):
        # gamma0 = 50 makes the linear steps expand: each run leaves the
        # divergence bound within ten rounds.
        config = quadratic_config(
            model="linear", dimension=3, clients=2, rounds=40, x0="zeros",
            schedule=schedules.CommunicationSchedule("constant", base=1, gamma0=50.0, alpha=0.6),
            replications=3,
        )
        report = run_experiment(config, out_dir=tmp_path)
        for summary in report.methods:
            assert summary.failures == config.replications
            assert np.isnan(summary.coverage) and np.isnan(summary.length_sd)
        assert np.isnan(report.mean_error)
        rows = (tmp_path / "replications.csv").read_text().strip().splitlines()[1:]
        assert len(rows) == config.replications * len(config.methods)
        assert all(row.split(",")[8] == "failed" for row in rows)

    def test_reproducible_report_across_workers(self, tmp_path):
        config = parse_config_text(BASE_CONFIG)
        out_a, out_b, out_c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        run_experiment(config, workers=1, out_dir=out_a)
        run_experiment(config, workers=1, out_dir=out_b)
        run_experiment(config, workers=2, out_dir=out_c)
        report_a = (out_a / "report.csv").read_bytes()
        assert report_a == (out_b / "report.csv").read_bytes()
        assert report_a == (out_c / "report.csv").read_bytes()
        reps_a = (out_a / "replications.csv").read_bytes()
        assert reps_a == (out_c / "replications.csv").read_bytes()

    def test_reproducible_logistic_report_across_workers(self, tmp_path):
        # The pool's workers get the payload from the parent and draw their
        # labels with the same numpy sigmoid, so they write the serial run's
        # bytes.
        config = ExperimentConfig(
            model="logistic", dimension=3, clients=3, heterogeneity=False,
            rounds=200, target_observations=None, replications=4, seed=7,
        )
        run_experiment(config, workers=1, out_dir=tmp_path / "serial")
        run_experiment(config, workers=2, out_dir=tmp_path / "pool")
        for name in ("report.csv", "replications.csv"):
            serial = (tmp_path / "serial" / name).read_bytes()
            assert (tmp_path / "pool" / name).read_bytes() == serial

    def test_report_fields_match_diagnostics(self):
        config = parse_config_text(BASE_CONFIG)
        report = run_experiment(config)
        rows = schedules.table(config.schedule, report.rounds)
        assert report.acf == rows.acf
        assert report.nu_hat == rows.nu_hat
        assert report.t_T == rows.t_T

    def test_csv_shape(self, tmp_path):
        config = quadratic_config()
        run_experiment(config, out_dir=tmp_path, dump_paths=2)
        lines = (tmp_path / "report.csv").read_text().strip().splitlines()
        assert lines[0] == (
            "method,schedule,t_T,coverage,coverage_se,mean_len,len_sd,acf,nu_hat,failures"
        )
        assert len(lines) == 3
        rep_lines = (tmp_path / "replications.csv").read_text().strip().splitlines()
        assert len(rep_lines) == 1 + config.replications * len(config.methods)
        dumped = sorted(p.name for p in (tmp_path / "paths").iterdir())
        assert dumped == ["rep_0000.csv", "rep_0001.csv"]

    def test_dump_paths_without_an_output_directory_fails_before_any_run(self, monkeypatch):
        runs = []
        monkeypatch.setattr(engine, "run", lambda *args, **kwargs: runs.append(args))
        with pytest.raises(ValueError, match="dump_paths needs an output directory"):
            run_experiment(quadratic_config(), dump_paths=2)
        assert runs == []

    def test_fractional_dump_paths_fails_before_any_run(self, tmp_path, monkeypatch):
        runs = []
        monkeypatch.setattr(engine, "run", lambda *args, **kwargs: runs.append(args))
        with pytest.raises(ValueError, match="dump_paths must be an integer, got 0.5"):
            run_experiment(quadratic_config(), out_dir=tmp_path, dump_paths=0.5)
        assert runs == [] and not any(tmp_path.iterdir())

    def test_cli_dump_paths_without_out_fails(self, tmp_path, capsys):
        path = tmp_path / "config.txt"
        path.write_text(BASE_CONFIG)
        assert cli.main(["run", "--config", str(path), "--dump-paths", "2"]) == 1
        err = capsys.readouterr().err
        assert err == "fedstat: error: dump_paths needs an output directory\n"

    def test_cli_rejects_a_negative_dump_paths(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "config.txt"
        path.write_text(BASE_CONFIG)
        runs = []
        monkeypatch.setattr(engine, "run", lambda *args, **kwargs: runs.append(args))
        argv = ["run", "--config", str(path), "--out", str(tmp_path), "--dump-paths", "-3"]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == "fedstat: error: dump_paths must be >= 0, got -3\n"
        assert runs == []

    def test_critical_values_file_of_the_default_table(self, tmp_path):
        table_path = tmp_path / "table.csv"
        with table_path.open("w") as stream:
            critvals.save_csv(critvals.default_table(), stream)
        default, named = tmp_path / "default", tmp_path / "named"
        run_experiment(parse_config_text(BASE_CONFIG), out_dir=default)
        config = parse_config_text(BASE_CONFIG + f"critical_values = {table_path}\n")
        assert config.critical_values == str(table_path)
        run_experiment(config, out_dir=named)
        assert (named / "report.csv").read_bytes() == (default / "report.csv").read_bytes()

    def test_critical_values_file_without_the_runs_beta(self, tmp_path):
        table = critvals.default_table()
        assert table.betas[0] == 0.0  # the row of a constant schedule
        table_path = tmp_path / "table.csv"
        with table_path.open("w") as stream:
            critvals.save_csv(replace(table, betas=table.betas[1:], values=table.values[1:]), stream)
        config = parse_config_text(BASE_CONFIG + f"critical_values = {table_path}\n")
        with pytest.raises(KeyError, match="beta 0.0 not tabulated"):
            run_experiment(config)

    @pytest.mark.parametrize("missing", ["beta 0.0", "level 0.965"], ids=["beta", "level"])
    def test_untabulated_critical_value_fails_before_any_run(self, missing, tmp_path, monkeypatch):
        table = critvals.default_table()
        table_path = tmp_path / "table.csv"
        with table_path.open("w") as stream:
            critvals.save_csv(replace(table, betas=table.betas[1:], values=table.values[1:]), stream)
        if missing.startswith("beta"):
            text = BASE_CONFIG + f"critical_values = {table_path}\n"
        else:
            text = BASE_CONFIG.replace("alpha_level = 0.05", "alpha_level = 0.07")
        config = parse_config_text(text)
        runs = []
        monkeypatch.setattr(engine, "run", lambda *args, **kwargs: runs.append(args))
        with pytest.raises(KeyError, match=f"{missing} not tabulated"):
            run_experiment(config)
        assert runs == []

    @pytest.mark.parametrize(
        "text",
        [shipped_table_with("nan"), shipped_table_with("-6.7"), "beta,0.975\n0,-1.0\n"],
        ids=["nan", "decreasing", "lone-negative-column"],
    )
    def test_cli_rejects_a_bad_critical_values_file(self, text, tmp_path, capsys, monkeypatch):
        table_path = tmp_path / "table.csv"
        table_path.write_text(text)
        path = tmp_path / "config.txt"
        path.write_text(BASE_CONFIG + f"critical_values = {table_path}\n")
        runs = []
        monkeypatch.setattr(engine, "run", lambda *args, **kwargs: runs.append(args))
        assert cli.main(["run", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith("fedstat: error: critical value")
        assert runs == []

    @pytest.mark.parametrize(
        "text, message",
        [
            ("beta,0.5,0.975\n0,abc,6.7\n", "line 2: 'abc' is not a number"),
            ("beta,0.5,x\n0,1.0,6.7\n", "line 1: 'x' is not a number"),
        ],
        ids=["data", "header"],
    )
    def test_cli_names_the_line_of_a_cell_that_is_not_a_number(
        self, text, message, tmp_path, capsys
    ):
        table_path = tmp_path / "table.csv"
        table_path.write_text(text)
        path = tmp_path / "config.txt"
        path.write_text(BASE_CONFIG + f"critical_values = {table_path}\n")
        assert cli.main(["run", "--config", str(path)]) == 1
        assert capsys.readouterr().err == f"fedstat: error: {message}\n"

    def test_cli_prints_an_untabulated_level_unquoted(self, tmp_path, capsys):
        path = tmp_path / "config.txt"
        path.write_text(BASE_CONFIG.replace("alpha_level = 0.05", "alpha_level = 0.07"))
        assert cli.main(["run", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("fedstat: error: level 0.965 not tabulated (columns: (0.01, ")

    def test_critical_value_is_looked_up_once_per_experiment(self, tmp_path):
        """A table with every entry doubled doubles every rscale width, to the
        twelve digits the CSV carries, and leaves every plug-in row as it was."""
        table = critvals.default_table()
        table_path = tmp_path / "doubled.csv"
        with table_path.open("w") as stream:
            critvals.save_csv(replace(table, values=2.0 * table.values), stream)
        base, doubled = tmp_path / "base", tmp_path / "doubled"
        run_experiment(parse_config_text(BASE_CONFIG), out_dir=base)
        config = parse_config_text(BASE_CONFIG + f"critical_values = {table_path}\n")
        run_experiment(config, out_dir=doubled)

        def rows(out, name):
            return [line.split(",") for line in (out / name).read_text().splitlines()[1:]]

        widths = []
        for name in ("report.csv", "replications.csv"):
            for old, new in zip(rows(base, name), rows(doubled, name), strict=True):
                if "plugin" in old:
                    assert new == old
                elif name == "replications.csv":
                    widths.append((float(old[9]), float(new[9])))
        assert len(widths) == config.replications
        for old, new in widths:
            assert old > 0 and new == pytest.approx(2.0 * old, rel=2e-11)

    def test_plugin_critical_value_is_the_normal_quantile(self, monkeypatch):
        seen = []
        interval = PluginState.confidence_interval

        def recorded(self, centre, z, *args):
            seen.append(z)
            return interval(self, centre, z, *args)

        monkeypatch.setattr(PluginState, "confidence_interval", recorded)
        for alpha_level in (0.05, 0.32):
            run_experiment(quadratic_config(methods=("plugin",), alpha_level=alpha_level))
        assert seen[:4] == [pytest.approx(1.959964, abs=1e-6)] * 4
        assert seen[4:] == [pytest.approx(0.994458, abs=1e-6)] * 4

    def test_intervals_and_error_share_one_estimate(self, monkeypatch):
        """Both intervals are centred on average_estimate of the path, and
        mean_error is the norm of the same estimate's error."""
        config = quadratic_config(
            model="linear", dimension=3, clients=4, rounds=600, x0="zeros",
            schedule=schedules.CommunicationSchedule("constant", base=1), replications=1,
        )
        seen = []
        for state in (PluginState, RScaleState):
            interval = state.confidence_interval

            def recorded(self, centre, *args, interval=interval):
                lo, hi = interval(self, centre, *args)
                seen.append((centre, lo, hi))
                return lo, hi

            monkeypatch.setattr(state, "confidence_interval", recorded)
        report = run_experiment(config)

        fed = harness.build_federation(config)
        seed = np.random.SeedSequence(config.seed, spawn_key=(1, 0))
        path = engine.run(fed, schedules.table(config.schedule, 600), np.zeros(3), seed)
        y_bar = engine.average_estimate(path.points)
        assert len(seen) == 2
        for centre, lo, hi in seen:
            np.testing.assert_array_equal(centre, y_bar)
            assert (lo + hi) / 2.0 == pytest.approx(y_bar[0], rel=1e-15)
        assert report.mean_error == np.linalg.norm(y_bar - fed.global_optimum)

    def test_nan_variance_is_a_failed_method(self, monkeypatch, tmp_path):
        """One nan gradient draw makes the sandwich nan: the plug-in fails in
        every replication, and no zero-width interval counts as covered."""
        observe = PluginState.observe

        def poisoned(self, grad_draw, hess_draw):
            if self.rounds_seen == 0:
                grad_draw = np.full_like(grad_draw, np.nan)
            return observe(self, grad_draw, hess_draw)

        monkeypatch.setattr(PluginState, "observe", poisoned)
        config = quadratic_config()  # noiseless, from the optimum: zero width otherwise
        plugin, rscale = run_experiment(config, out_dir=tmp_path).methods
        assert plugin.failures == config.replications and np.isnan(plugin.coverage)
        assert rscale.failures == 0 and rscale.coverage == 1.0
        rows = (tmp_path / "replications.csv").read_text().splitlines()[1:]
        plugin_rows = [row.split(",") for row in rows if ",plugin," in row]
        assert [row[8] for row in plugin_rows] == ["failed"] * config.replications

    @pytest.mark.parametrize(
        "config",
        [
            ExperimentConfig(dimension=3, clients=4, rounds=300, target_observations=None),
            ExperimentConfig(
                model="logistic", dimension=3, clients=4, heterogeneity=False, rounds=300,
                target_observations=None,
                schedule=schedules.CommunicationSchedule("power", base=1, exponent=0.5),
            ),
        ],
        ids=["linear", "logistic"],
    )
    def test_replication_feeds_states_from_the_path(self, config):
        """``_replicate``'s intervals are those of fresh states fed round by
        round from a per-round run's points and inference draws; the run
        ends on a partial block (300 = 256 + 44 rounds)."""
        fed = harness.build_federation(config)
        rows = schedules.table(config.schedule, config.rounds)
        x0 = np.zeros(config.dimension)
        z, q, j = 1.96, 6.75, 1
        payload = harness._RepPayload(
            config.seed, fed, rows, x0, (config.rounds,),
            methods=(("plugin", (z, rows.nu_hat / rows.t_T, j)), ("rscale", (q, j))),
        )
        intervals, _ = harness._replicate(payload, 2)

        seed = np.random.SeedSequence(config.seed, spawn_key=(1, 2))
        points, grads, hessians, diverged = per_round_run(fed, rows, x0, seed)
        assert diverged is None
        plugin, rscale = PluginState(config.dimension), RScaleState(config.dimension)
        for grad_draw, hess_draw in zip(grads, hessians):
            plugin.observe(grad_draw, hess_draw)
        for x_bar, interval in zip(points, rows.intervals):
            rscale.observe(x_bar, int(interval))
        y_bar = engine.average_estimate(np.array(points))
        expected = [
            plugin.confidence_interval(y_bar, z, rows.nu_hat / rows.t_T, j),
            rscale.confidence_interval(y_bar, q, j),
        ]
        np.testing.assert_array_equal(intervals, expected)

    def test_large_offset_does_not_diverge(self):
        """x0 = 3e8 e_1 lies beyond a fixed bound of 1e8; the default bound
        scales with the run, and no replication fails."""
        config = parse_config_text(
            "model = linear\ntarget_observations = 2000\nreplications = 3\nx0 = 3e8,0,0,0,0\n"
        )
        report = run_experiment(config)
        assert [summary.failures for summary in report.methods] == [0, 0]
        assert np.isfinite(report.mean_error)

    def test_coverage_se_formula(self):
        config = parse_config_text(BASE_CONFIG)
        report = run_experiment(config)
        for summary in report.methods:
            p = summary.coverage
            assert summary.coverage_se == pytest.approx(
                np.sqrt(p * (1 - p) / config.replications)
            )


class RecordingPool:
    """A stand-in for ProcessPoolExecutor that records ``max_workers``, runs
    the initializer and maps in this process, so no worker is started."""

    sizes: list[int] = []

    def __init__(self, max_workers, initializer=None, initargs=()):
        self.sizes.append(max_workers)
        if initializer is not None:
            initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable, chunksize=1):
        return map(fn, iterable)


class TestWorkerCount:
    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        monkeypatch.setattr(RecordingPool, "sizes", [])
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        return RecordingPool.sizes

    @pytest.mark.parametrize("workers", [3, 8, 10**6])
    def test_pool_at_most_one_process_per_replication(self, pool_sizes, workers, tmp_path):
        config = quadratic_config(replications=2)
        run_experiment(config, workers=workers, out_dir=tmp_path / "pool")
        convergence_curve(config, [5, 25], workers=workers)
        assert pool_sizes == [2, 2]
        run_experiment(config, workers=1, out_dir=tmp_path / "serial")
        for name in ("report.csv", "replications.csv"):
            serial = (tmp_path / "serial" / name).read_bytes()
            assert (tmp_path / "pool" / name).read_bytes() == serial

    def test_one_worker_or_one_replication_runs_in_process(self, pool_sizes):
        run_experiment(quadratic_config(replications=1), workers=4)
        convergence_curve(quadratic_config(replications=3), [5], workers=1)
        assert pool_sizes == []

    @pytest.mark.parametrize(
        "workers, message",
        [
            pytest.param(0, "workers must be >= 1, got 0", id="0"),
            pytest.param(-2, "workers must be >= 1, got -2", id="-2"),
            pytest.param(1.5, "workers must be an integer, got 1.5", id="1.5"),
        ],
    )
    def test_workers_below_one_rejected(self, pool_sizes, workers, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            run_experiment(quadratic_config(), workers=workers)
        with pytest.raises(ValueError, match=re.escape(message)):
            convergence_curve(quadratic_config(), [5], workers=workers)
        assert pool_sizes == []

    @pytest.mark.parametrize("command", [["run"], ["curve", "--checkpoints", "5"]])
    def test_cli_rejects_zero_threads(self, command, tmp_path, capsys):
        path = tmp_path / "config.txt"
        path.write_text(BASE_CONFIG)
        assert cli.main([*command, "--config", str(path), "--threads", "0"]) == 1
        assert "fedstat: error: workers must be >= 1, got 0" in capsys.readouterr().err


class TestConvergenceCurve:
    def test_error_decreases_with_rounds(self):
        config = ExperimentConfig(
            model="linear", dimension=2, clients=5, heterogeneity=True,
            schedule=schedules.CommunicationSchedule("constant", base=1),
            rounds=None, target_observations=800, replications=30, seed=3,
        )
        rows = convergence_curve(config, [50, 200, 800])
        errors = [err for _, err, _ in rows]
        assert errors[0] > errors[1] > errors[2]

    def test_faster_interval_growth_wins_at_equal_rounds(self):
        base = dict(
            model="linear", dimension=2, clients=5, heterogeneity=True,
            rounds=500, target_observations=None, replications=30, seed=3,
        )
        slow = ExperimentConfig(
            schedule=schedules.CommunicationSchedule("constant", base=1), **base
        )
        fast = ExperimentConfig(
            schedule=schedules.CommunicationSchedule("power", base=1, exponent=0.5), **base
        )
        err_slow = convergence_curve(slow, [500])[0][1]
        err_fast = convergence_curve(fast, [500])[0][1]
        assert err_fast < err_slow

    def test_diverging_replications_are_left_out(self):
        # Same config as test_diverging_replications_fail_every_method: every
        # replication leaves the divergence bound within ten rounds.
        config = quadratic_config(
            model="linear", dimension=3, clients=2, rounds=40, x0="zeros",
            schedule=schedules.CommunicationSchedule("constant", base=1, gamma0=50.0, alpha=0.6),
            replications=3,
        )
        rows = convergence_curve(config, [5, 40])
        assert [t for t, _, _ in rows] == [5, 40]
        assert all(np.isnan(mu) and np.isnan(se) for _, mu, se in rows)

    def test_mean_error_over_replications_that_did_not_diverge(self):
        # At gamma0 = 8 four of these eight replications diverge.
        config = quadratic_config(
            model="linear", dimension=3, clients=2, rounds=40, x0="zeros",
            schedule=schedules.CommunicationSchedule("constant", base=1, gamma0=8.0, alpha=0.6),
            replications=8, methods=("plugin",),
        )
        rows = convergence_curve(config, [5, 40])
        report = run_experiment(config)
        assert report.methods[0].failures == 4
        assert np.isfinite(rows[0][1]) and np.isfinite(rows[0][2])
        assert rows[1][1] == pytest.approx(report.mean_error, rel=1e-9)

    @pytest.mark.parametrize(
        "config",
        [
            ExperimentConfig(
                dimension=3, clients=4, rounds=300, target_observations=None,
                replications=3, seed=7,
            ),
            ExperimentConfig(
                model="logistic", dimension=3, clients=3, heterogeneity=False,
                schedule=schedules.CommunicationSchedule(
                    "power", exponent=0.5, warmup_fraction=0.05
                ),
                rounds=120, target_observations=None, replications=2, seed=4,
            ),
        ],
        ids=["linear-c1", "logistic-p05"],
    )
    def test_last_checkpoint_is_the_reports_mean_error(self, config):
        rows = convergence_curve(config, [config.rounds // 2, config.rounds])
        assert rows[-1][1] == run_experiment(config).mean_error

    def test_single_checkpoint(self):
        config = quadratic_config(replications=2)
        rows = convergence_curve(config, [25])
        assert len(rows) == 1
        assert rows[0][0] == 25

    def test_checkpoints_must_increase(self):
        with pytest.raises(ValueError):
            convergence_curve(quadratic_config(), [10, 10])

    @pytest.mark.parametrize("checkpoints, named", [([0, 5], "[0]"), ([-3, 0, 5], "[-3, 0]")])
    def test_nonpositive_checkpoints_rejected(self, checkpoints, named):
        with pytest.raises(ValueError, match=re.escape(f"checkpoints must be >= 1, got {named}")):
            convergence_curve(quadratic_config(), checkpoints)

    @pytest.mark.parametrize(
        "checkpoints, named",
        [
            ([3.7, 10.2], "3.7"),
            ([3, 10.0], "10.0"),
            ([np.int64(3), np.float64(5.0)], "np.float64(5.0)"),
        ],
        ids=["fractions", "integral-float", "numpy-float"],
    )
    def test_non_integer_checkpoints_rejected(self, checkpoints, named):
        with pytest.raises(ValueError, match=re.escape(f"checkpoints must be integers, got {named}")):
            convergence_curve(quadratic_config(), checkpoints)

    def test_cli_rejects_nonpositive_checkpoints(self, tmp_path, capsys):
        path = tmp_path / "config.txt"
        path.write_text(BASE_CONFIG)
        assert cli.main(["curve", "--config", str(path), "--checkpoints", "0,5"]) == 1
        err = capsys.readouterr().err
        assert err == "fedstat: error: checkpoints must be >= 1, got [0]\n"

    @pytest.mark.parametrize(
        "config, checkpoints, kept",
        [
            pytest.param(
                ExperimentConfig(
                    model="linear", dimension=3, clients=4,
                    schedule=schedules.CommunicationSchedule("constant", base=1),
                    rounds=600, target_observations=None, replications=3, seed=9,
                ),
                [1, 255, 256, 257, 600],  # across two engine blocks and a partial one
                3,
                id="stable",
            ),
            pytest.param(
                # At gamma0 = 8 four of these eight replications diverge.
                quadratic_config(
                    model="linear", dimension=3, clients=2, rounds=40, x0="zeros",
                    schedule=schedules.CommunicationSchedule(
                        "constant", base=1, gamma0=8.0, alpha=0.6
                    ),
                    replications=8,
                ),
                [1, 7, 40],
                4,
                id="diverging",
            ),
        ],
    )
    def test_rows_are_means_of_path_prefix_errors(self, config, checkpoints, kept):
        fed = harness.build_federation(config)
        rows, errors = schedules.table(config.schedule, checkpoints[-1]), []
        for rep in range(config.replications):
            seed = np.random.SeedSequence(config.seed, spawn_key=(1, rep))
            try:
                path = engine.run(fed, rows, np.zeros(3), seed)
            except engine.DivergenceError:
                continue
            x_star = fed.global_optimum
            estimates = [engine.average_estimate(path.points[:t]) for t in checkpoints]
            errors.append([np.linalg.norm(y_bar - x_star) for y_bar in estimates])
        errors = np.array(errors)
        assert len(errors) == kept
        means = errors.mean(axis=0)
        ses = errors.std(axis=0, ddof=1) / np.sqrt(len(errors))
        expected = [(t, float(mu), float(se)) for t, mu, se in zip(checkpoints, means, ses)]
        assert convergence_curve(config, checkpoints) == expected


def count_interval_builds(monkeypatch):
    """Record the round count of every build of E_1..E_T: ``intervals``,
    ``diagnostics`` and ``table`` all build them with one
    ``schedules._warmup_and_intervals`` call."""
    calls = []
    build = schedules._warmup_and_intervals

    def counted(schedule, total_rounds):
        calls.append(total_rounds)
        return build(schedule, total_rounds)

    monkeypatch.setattr(schedules, "_warmup_and_intervals", counted)
    return calls


class TestOneScheduleTable:
    def test_run_experiment_builds_it_once(self, monkeypatch):
        calls = count_interval_builds(monkeypatch)
        config = parse_config_text(BASE_CONFIG.replace("replications = 6", "replications = 3"))
        report = run_experiment(config, workers=1)
        assert calls == [report.rounds]

    def test_replications_share_one_read_only_table(self, monkeypatch):
        tables = []
        run = engine.run

        def recorded(federation, table, *args, **kwargs):
            tables.append(table)
            return run(federation, table, *args, **kwargs)

        monkeypatch.setattr(engine, "run", recorded)
        run_experiment(quadratic_config(replications=3), workers=1)
        assert len(tables) == 3 and all(t is tables[0] for t in tables)
        for array in (tables[0].intervals, tables[0].gammas, tables[0].etas, tables[0].comm_times):
            assert not array.flags.writeable

    def test_convergence_curve_builds_it_once(self, monkeypatch):
        calls = count_interval_builds(monkeypatch)
        convergence_curve(quadratic_config(replications=3), [5, 25])
        assert calls == [25]

    def test_partial_sum_process_builds_none(self, monkeypatch):
        """37 grid points and no table built: h(r, T) is read from the path's
        own table.  With h(r, T) from a scan of the cumulative 1/E_m, each row
        is sqrt(t_T) * (h/T) * (y_bar_h - x*) bit for bit, and within roundoff
        of the scaled cumulative sum."""
        sched = schedules.CommunicationSchedule("power", exponent=0.5, warmup_fraction=0.05)
        fed = harness.build_federation(quadratic_config())
        path = engine.run(fed, schedules.table(sched, 200), np.zeros(2), seed=3)
        x_star, grid = fed.global_optimum, np.linspace(0.01, 1.0, 37)
        css = np.cumsum(1.0 / schedules.intervals(sched, 200))
        scale = np.sqrt(path.total_iterations)
        cumulative = np.cumsum(path.points - x_star, axis=0)
        expected, summed = [], []
        for r in grid:
            h = int(np.sum(css <= r * css[-1] * (1.0 + 1e-12)))
            y_bar_h = engine.average_estimate(path.points[:h]) if h else x_star
            expected.append(scale * (h / 200) * (y_bar_h - x_star))
            summed.append(scale / 200 * cumulative[h - 1] if h else np.zeros(2))
        assert int(np.sum(css <= 0.01 * css[-1])) == 0  # the grid reaches h = 0
        calls = count_interval_builds(monkeypatch)
        phi = partial_sum_process(path, x_star, grid)
        assert calls == []
        np.testing.assert_array_equal(phi, np.stack(expected))
        np.testing.assert_allclose(phi, np.stack(summed), rtol=1e-12, atol=1e-15)


class TestPartialSumProcess:
    def test_full_budget_matches_scaled_average(self):
        rng = np.random.default_rng(0)
        points = rng.standard_normal((40, 2))
        c1 = schedules.CommunicationSchedule("constant", base=1)
        path = engine.SyncPath(points, schedules.table(c1, 40))
        x_star = np.array([0.5, -0.5])
        phi = partial_sum_process(path, x_star, [1.0])
        expected = np.sqrt(40) * (points.mean(axis=0) - x_star)
        np.testing.assert_allclose(phi[0], expected, rtol=1e-12)

    def test_r_one_is_the_clt_statistic_bit_for_bit(self):
        """The r = 1 row is sqrt(t_T) * (y_bar_T - x*) with the engine's one
        estimator, which a separate cumulative sum misses in the last bits."""
        fed = harness.build_federation(ExperimentConfig())
        c1 = schedules.CommunicationSchedule("constant", base=1, warmup_fraction=0.05)
        rows = schedules.table(c1, 2000)
        x_star = fed.global_optimum
        for seed in range(3):
            path = engine.run(fed, rows, np.zeros(fed.dimension), seed=seed)
            statistic = np.sqrt(path.total_iterations) * (
                engine.average_estimate(path.points) - x_star
            )
            phi = partial_sum_process(path, x_star, [0.5, 1.0])
            np.testing.assert_array_equal(phi[1], statistic)

    def test_constant_path_at_optimum_vanishes(self):
        x_star = np.array([1.0, 2.0])
        c1 = schedules.CommunicationSchedule("constant", base=1)
        path = engine.SyncPath(np.tile(x_star, (10, 1)), schedules.table(c1, 10))
        phi = partial_sum_process(path, x_star, [0.25, 0.5, 1.0])
        np.testing.assert_array_equal(phi, np.zeros((3, 2)))

    def test_reads_the_time_change_once(self, monkeypatch):
        # One cumulative sum of 1/E_m serves the whole grid.
        calls = []
        fclt_time_scale = schedules.fclt_time_scale

        def counted(table, r):
            calls.append(r)
            return fclt_time_scale(table, r)

        monkeypatch.setattr(schedules, "fclt_time_scale", counted)
        c1 = schedules.CommunicationSchedule("constant", base=1)
        path = engine.SyncPath(np.zeros((8, 1)), schedules.table(c1, 8))
        partial_sum_process(path, np.zeros(1), [0.25, 0.5, 0.5, 1.0])
        assert calls == [[0.25, 0.5, 0.5, 1.0]]

    def test_grid_prefix_sums(self):
        points = np.arange(8.0)[:, None]
        c1 = schedules.CommunicationSchedule("constant", base=1)
        path = engine.SyncPath(points, schedules.table(c1, 8))
        phi = partial_sum_process(path, np.zeros(1), [0.5])
        # h(0.5, 8) = 4 -> sum of first four points, scaled by sqrt(8)/8
        assert phi[0, 0] == pytest.approx(np.sqrt(8) / 8 * points[:4].sum())

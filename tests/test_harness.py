import configparser
import csv
import json
import math
from pathlib import Path

import pytest

from onlinelp.algorithms import AlgorithmConfig, AlgorithmKind, run_soa
from onlinelp.core import StepSchedule
from onlinelp.generators import PermutationPlan, permute
from onlinelp.harness import (
    ConfigError,
    child_seed,
    load_config,
    load_report,
    run_experiment,
)
from onlinelp.metrics import evaluate_trial
from onlinelp.simplex import solve_relaxation
from onlinelp import algorithms, cli, harness

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
ALL_ALGORITHMS = "soa/sqrt_n, soa/sqrt_t, sfa/sqrt_t, sna/sqrt_t, multisoa, pbd"


def write_mini_config(tmp_path, *, trials=2, extra="", algorithms="soa/sqrt_n, soa/sqrt_t, pbd"):
    text = f"""
[experiment]
name = mini
seed = 11
trials = {trials}
n_values = 24 48
algorithms = {algorithms}
permute = true

[generator]
family = uniform
m = 3
{extra}
"""
    path = tmp_path / "mini.ini"
    path.write_text(text)
    return path


class TestChildSeed:
    def test_pure_and_stable(self):
        # frozen values pin the derivation scheme across releases
        assert child_seed(0, 100, 0, "instance") == child_seed(0, 100, 0, "instance")
        assert child_seed(0, 100, 0, "instance") == 6567734159199126823
        assert child_seed(11, 24, 1, "pbd") == 16835318115861606523

    def test_tag_isolation(self):
        seen = {child_seed(5, 50, 2, tag) for tag in ("instance", "permutation", "soa/sqrt_n", "pbd")}
        assert len(seen) == 4


class TestAlgorithmTokens:
    def test_valid_tokens(self):
        tok = AlgorithmConfig.parse("sfa/sqrt_t")
        assert tok.kind is AlgorithmKind.SFA and tok.schedule is StepSchedule.SQRT_T
        assert AlgorithmConfig.parse("dla").schedule is None
        assert AlgorithmConfig.parse("multisoa").schedule is StepSchedule.SQRT_N

    def test_invalid_tokens(self, tmp_path):
        for bad in ("soa", "soa/cubed", "nope", "dla/sqrt_t", "multisoa/sqrt_t", "pbd/"):
            with pytest.raises(ValueError):
                AlgorithmConfig.parse(bad)
            with pytest.raises(ConfigError):
                load_config(write_mini_config(tmp_path, algorithms=bad))

    def test_labels_keep_their_seed_tags(self):
        # token -> label; labels tag the child seeds, so changing one reseeds its runs
        labels = {"soa/sqrt_n": "soa/sqrt_n", "soa/sqrt_t": "soa/sqrt_t",
                  "sfa/sqrt_t": "sfa/sqrt_t", "sna/sqrt_t": "sna/sqrt_t",
                  "multisoa": "multisoa", "multisoa/sqrt_n": "multisoa",
                  "dla": "dla", "pbd": "pbd", " SOA/Sqrt_N ": "soa/sqrt_n"}
        shipped = set()
        for path in CONFIGS.glob("*.ini"):
            cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
            cp.read(path)
            shipped.update(t.strip() for t in cp.get("experiment", "algorithms").split(","))
        assert shipped <= labels.keys()
        for token, label in labels.items():
            assert AlgorithmConfig.parse(token).label == label


class TestLoadConfig:
    def test_shipped_configs_parse(self):
        paths = sorted(CONFIGS.glob("*.ini"))
        assert len(paths) >= 7
        for path in paths:
            cfg = load_config(path)
            assert cfg.trials >= 1 and cfg.algorithms

    def test_unknown_section_rejected(self, tmp_path):
        path = write_mini_config(tmp_path, extra="\n[tolerances]\npivot_tol = 1e-9\n")
        with pytest.raises(ConfigError, match="tolerances"):
            load_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = write_mini_config(tmp_path)
        path.write_text(path.read_text().replace("trials = 2", "trails = 5"))
        with pytest.raises(ConfigError, match=r"\[experiment\]: trails"):
            load_config(path)
        path = write_mini_config(tmp_path, extra="\n[repair]\nenable = true\n")
        with pytest.raises(ConfigError, match=r"\[repair\]: enable"):
            load_config(path)

    def test_relative_benchmark_path_follows_the_config_file(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = load_config(CONFIGS / "mknap_demo.ini")
        assert Path(cfg.benchmark_path) == (CONFIGS / "mknap_demo.txt").resolve()
        # the echo does not depend on how the config path was written
        monkeypatch.chdir(CONFIGS)
        assert load_config("mknap_demo.ini").echo() == cfg.echo()

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("does-not-exist.ini")

    def test_generator_and_benchmark_exclusive(self, tmp_path):
        path = write_mini_config(tmp_path)
        text = path.read_text() + f"\n[benchmark]\npath = {CONFIGS / 'mknap_demo.txt'}\n"
        path.write_text(text)
        with pytest.raises(ConfigError):
            load_config(path)

    def test_missing_benchmark_file(self, tmp_path):
        path = tmp_path / "bench.ini"
        path.write_text("[experiment]\nname = x\nalgorithms = dla\n"
                        "[benchmark]\npath = missing.txt\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_bad_trials(self, tmp_path):
        path = write_mini_config(tmp_path, trials=0)
        with pytest.raises(ConfigError):
            load_config(path)

    def test_repair_section(self, tmp_path):
        path = write_mini_config(tmp_path)
        path.write_text(path.read_text() + "\n[repair]\nenabled = true\nd_lo_override = 0.4\n")
        cfg = load_config(path)
        assert cfg.repair.enabled and cfg.repair.d_lo_override == 0.4


class TestRunExperiment:
    def test_single_trial_matches_manual_pipeline(self, tmp_path):
        cfg = load_config(write_mini_config(tmp_path, trials=1, algorithms="soa/sqrt_n"))
        report = run_experiment(cfg)
        assert len(report.rows) == 2  # one per n
        row = report.rows[0]
        n = row.n
        inst = cfg_instance(cfg, n, 0)
        lp = solve_relaxation(inst)
        seed = child_seed(cfg.seed, n, 0, "soa/sqrt_n")
        trace = run_soa(inst, AlgorithmConfig(AlgorithmKind.SOA, StepSchedule.SQRT_N, rng_seed=seed))
        res = evaluate_trial(inst, trace, lp.objective, algorithm="soa/sqrt_n", seed=seed)
        assert row.objective == res.objective
        assert row.offline_lp_opt == res.offline_lp_opt
        assert row.regret == res.regret
        assert row.violation == res.violation

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = load_config(write_mini_config(tmp_path))
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert a.trials_csv() == b.trials_csv()

    def test_parallelism_does_not_change_rows(self, tmp_path):
        cfg = load_config(write_mini_config(tmp_path))
        serial = run_experiment(cfg, workers=1)
        parallel = run_experiment(cfg, workers=2)
        assert serial.trials_csv() == parallel.trials_csv()
        assert serial.meta["workers"] == 1 and parallel.meta["workers"] == 2

    def test_repair_rows_added(self, tmp_path):
        path = write_mini_config(tmp_path, algorithms="soa/sqrt_n")
        path.write_text(path.read_text() + "\n[repair]\nenabled = true\n")
        cfg = load_config(path)
        report = run_experiment(cfg)
        labels = {row.algorithm for row in report.rows}
        assert labels == {"soa/sqrt_n", "soa/sqrt_n+repair"}

    def test_benchmark_source(self, tmp_path):
        path = tmp_path / "bench.ini"
        path.write_text(f"""
[experiment]
name = bench
seed = 3
trials = 2
algorithms = soa/sqrt_t
permute = true

[benchmark]
path = {CONFIGS / 'mknap_demo.txt'}
""")
        cfg = load_config(path)
        report = run_experiment(cfg)
        assert len(report.rows) == 4
        # problem i of the file tags its seeds "b{i}:"
        assert {(row.n, row.trial, row.seed) for row in report.rows} == {
            (n, t, child_seed(3, n, t, f"b{i}:soa/sqrt_t")) for i, n in enumerate((6, 2))
            for t in range(2)}

    def test_benchmark_errors_carry_the_problem_n(self, tmp_path):
        # repair needs n >= 3: it fails on the n = 2 problem, the second in the file
        path = tmp_path / "bench.ini"
        path.write_text(f"""
[experiment]
name = bench
seed = 3
trials = 2
algorithms = soa/sqrt_t

[benchmark]
path = {CONFIGS / 'mknap_demo.txt'}

[repair]
enabled = true
""")
        report = run_experiment(load_config(path))
        assert [(e["n"], e["trial"]) for e in report.errors] == [(2, 0), (2, 1)]
        assert all("n >= 3" in e["error"] for e in report.errors)
        assert {row.n for row in report.rows} == {6}

    def test_trial_failures_recorded_and_run_continues(self, tmp_path):
        # n=2 defeats the four-group generator; n=24 still succeeds
        path = tmp_path / "partial.ini"
        path.write_text("""
[experiment]
name = partial
seed = 1
trials = 1
n_values = 2 24
algorithms = soa/sqrt_n

[generator]
family = mixed_four_groups
m = 2
""")
        report = run_experiment(load_config(path))
        assert len(report.errors) == 1
        assert report.errors[0]["n"] == 2
        assert {row.n for row in report.rows} == {24}

    def test_block_size_does_not_change_rows(self, tmp_path, monkeypatch):
        path = write_mini_config(tmp_path, trials=3, algorithms=ALL_ALGORITHMS)
        path.write_text(path.read_text() + "\n[repair]\nenabled = true\n")
        cfg = load_config(path)
        whole = run_experiment(cfg, workers=1).trials_csv()
        monkeypatch.setattr(harness, "_blocks", lambda trials, parts: [range(t, t + 1)
                                                                        for t in range(trials)])
        for workers in (1, 2):
            assert run_experiment(cfg, workers=workers).trials_csv() == whole

    def test_failed_trial_leaves_the_rest_of_its_block_intact(self, tmp_path, monkeypatch):
        cfg = load_config(write_mini_config(tmp_path, trials=3, algorithms=ALL_ALGORITHMS))
        whole = run_experiment(cfg, workers=1)
        real = harness.solve_relaxation
        calls = {"n48": 0}

        def failing_on_second_trial_of_n48(inst, **kw):
            if inst.n == 48:
                calls["n48"] += 1
                if calls["n48"] == 2:
                    raise RuntimeError("injected LP failure")
            return real(inst, **kw)

        monkeypatch.setattr(harness, "solve_relaxation", failing_on_second_trial_of_n48)
        partial = run_experiment(cfg, workers=1)
        assert partial.errors == [{"n": 48, "trial": 1,
                                   "error": "RuntimeError: injected LP failure"}]
        kept = [line for line in whole.trials_csv().splitlines()
                if not line.startswith("48,1,")]
        assert len(kept) < len(whole.trials_csv().splitlines())
        assert partial.trials_csv().splitlines() == kept

    def test_dla_and_pbd_share_one_prefix_lp_per_step(self, tmp_path, monkeypatch):
        cfg = load_config(write_mini_config(tmp_path, trials=2, algorithms="dla, pbd"))
        real = algorithms.solve_scaled
        calls = []

        def counting(inst, s):
            calls.append(inst.n)
            return real(inst, s)

        monkeypatch.setattr(algorithms, "solve_scaled", counting)
        report = run_experiment(cfg, workers=1)
        assert not report.errors and len(report.rows) == 2 * 2 * 2
        assert calls.count(24) == 2 * 24 and calls.count(48) == 2 * 48

    def test_benchmark_problem_lp_solved_once(self, monkeypatch):
        real = harness.solve_relaxation
        calls = []

        def counting(inst):
            calls.append(inst.n)
            return real(inst)

        monkeypatch.setattr(harness, "solve_relaxation", counting)
        report = run_experiment(load_config(CONFIGS / "mknap_demo.ini"), workers=1)
        assert not report.errors and len(report.rows) == 2 * 10 * 2
        assert sorted(calls) == [2, 6]
        assert sum(1 for t in report.timings if t[2] == "offline_lp") == 2 * 10

    def test_failed_benchmark_lp_fails_every_trial_of_its_problem(self, monkeypatch):
        real = harness.solve_relaxation

        def failing_on_n2(inst):
            if inst.n == 2:
                raise RuntimeError("injected LP failure")
            return real(inst)

        monkeypatch.setattr(harness, "solve_relaxation", failing_on_n2)
        report = run_experiment(load_config(CONFIGS / "mknap_demo.ini"), workers=1)
        assert report.errors == [{"n": 2, "trial": t, "error": "RuntimeError: injected LP failure"}
                                 for t in range(10)]
        assert {row.n for row in report.rows} == {6} and len(report.rows) == 10 * 2

    def test_failed_policy_check_is_recorded_per_trial(self, tmp_path):
        # n=1 cannot run the budget-tracking variant; n=24 still does
        path = write_mini_config(tmp_path, trials=2, algorithms="sna/sqrt_t, soa/sqrt_n")
        path.write_text(path.read_text().replace("n_values = 24 48", "n_values = 1 24"))
        report = run_experiment(load_config(path))
        assert [(e["n"], e["trial"]) for e in report.errors] == [(1, 0), (1, 1)]
        assert all("n >= 2" in e["error"] for e in report.errors)
        assert {row.n for row in report.rows} == {24}

    def test_multisoa_label_runs_on_wrapped_instance(self, tmp_path):
        cfg = load_config(write_mini_config(tmp_path, trials=1, algorithms="multisoa, soa/sqrt_n"))
        report = run_experiment(cfg)
        by_label = {}
        for row in report.rows:
            by_label.setdefault(row.algorithm, []).append(row)
        # the k=1 wrap must reproduce the scalar one-pass run exactly
        for a, b in zip(by_label["multisoa"], by_label["soa/sqrt_n"]):
            assert a.objective == b.objective
            assert a.violation == b.violation


def cfg_instance(cfg, n, trial):
    from onlinelp.generators import generate

    inst = generate(cfg.spec_for(n, child_seed(cfg.seed, n, trial, "instance")))
    if cfg.permute_arrivals:
        plan = PermutationPlan.random(inst.n, child_seed(cfg.seed, n, trial, "permutation"))
        inst = permute(inst, plan)
    return inst


class TestReportFiles:
    def test_save_load_round_trip_bytes(self, tmp_path):
        cfg = load_config(write_mini_config(tmp_path))
        report = run_experiment(cfg)
        outdir = tmp_path / "report"
        report.save(outdir)
        loaded = load_report(outdir)
        loaded.save(tmp_path / "report2")
        for name in ("trials.csv", "summary.json", "timings.csv"):
            assert (tmp_path / "report" / name).read_bytes() == \
                (tmp_path / "report2" / name).read_bytes()

    def test_no_temp_files_left(self, tmp_path):
        cfg = load_config(write_mini_config(tmp_path, trials=1, algorithms="soa/sqrt_n"))
        outdir = tmp_path / "report"
        run_experiment(cfg).save(outdir)
        assert not [p for p in outdir.iterdir() if p.suffix == ".tmp"]

    def test_wall_time_not_in_trials_csv(self, tmp_path):
        cfg = load_config(write_mini_config(tmp_path, trials=1, algorithms="soa/sqrt_n"))
        report = run_experiment(cfg)
        header = report.trials_csv().splitlines()[0]
        assert "wall" not in header
        assert "seconds" not in header

    def test_summary_is_strict_json_with_finite_or_null_aggregates(self, tmp_path):
        path = write_mini_config(tmp_path, algorithms="soa/sqrt_n, sfa/sqrt_t, pbd")
        path.write_text(path.read_text() + "\n[repair]\nenabled = true\n")
        report = run_experiment(load_config(path))
        outdir = tmp_path / "report"
        report.save(outdir)

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        summary = json.loads((outdir / "summary.json").read_text(), parse_constant=reject)
        assert summary["aggregates"]
        for doc in summary["aggregates"]:
            for key, value in doc.items():
                if key == "algorithm":
                    continue
                assert value is None or math.isfinite(value), (doc["algorithm"], key, value)
            assert doc["mean_normalized_violation"] is not None

    def test_pbd_reports_no_price_norm(self, tmp_path):
        cfg = load_config(write_mini_config(tmp_path, trials=1, algorithms="soa/sqrt_n, pbd"))
        outdir = tmp_path / "report"
        run_experiment(cfg).save(outdir)
        with open(outdir / "trials.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["max_dual_norm"] for r in rows if r["algorithm"] == "pbd"] == ["", ""]
        assert all(float(r["max_dual_norm"]) > 0.0 for r in rows if r["algorithm"] != "pbd")
        summary = json.loads((outdir / "summary.json").read_text())
        for doc in summary["aggregates"]:
            assert (doc["mean_max_dual_norm"] is None) == (doc["algorithm"] == "pbd")
        loaded = load_report(outdir)
        assert [r.max_dual_norm for r in loaded.rows if r.algorithm == "pbd"] == [None, None]

    def test_summary_contains_meta(self, tmp_path):
        cfg = load_config(write_mini_config(tmp_path, trials=1, algorithms="soa/sqrt_n"))
        report = run_experiment(cfg)
        assert report.meta["competitiveness_denominator"] == "lp_relaxation"
        assert report.meta["root_seed"] == 11
        assert report.config["generator"]["family"] == "uniform"


class TestCli:
    def test_solve_prints_objective_and_dual(self, tmp_path, capsys):
        inst_file = tmp_path / "one.txt"
        inst_file.write_text("1 1\n1\n1\n0.5\n")
        assert cli.main(["solve", str(inst_file), "--binary"]) == 0
        out = capsys.readouterr().out
        assert "objective 0.5" in out
        assert "duals 1" in out
        assert "binary_objective 0" in out

    def test_gen_then_solve(self, tmp_path, capsys):
        target = tmp_path / "gen.txt"
        assert cli.main(["gen", "uniform", "-n", "12", "-m", "2", "--seed", "4",
                         "-o", str(target)]) == 0
        assert target.exists()
        assert cli.main(["solve", str(target)]) == 0
        assert "objective " in capsys.readouterr().out

    def test_bench_reports_both_schedules(self, tmp_path, capsys):
        # "bench" is the mknap benchmark config, run through ``onlinelp run``
        outdir = tmp_path / "out"
        assert cli.main(["run", str(CONFIGS / "mknap_demo.ini"), "--output", str(outdir)]) == 0
        out = capsys.readouterr().out
        assert "soa/sqrt_t" in out and "soa/sqrt_n" in out
        with open(outdir / "trials.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["lp_opt"][:4] for r in rows if r["n"] == "6"} == {"27.8"}

    def test_run_subcommand(self, tmp_path, capsys):
        cfg_path = write_mini_config(tmp_path, trials=1, algorithms="soa/sqrt_n")
        outdir = tmp_path / "out"
        assert cli.main(["run", str(cfg_path), "--output", str(outdir)]) == 0
        assert (outdir / "trials.csv").exists()
        assert (outdir / "summary.json").exists()

    def test_run_exits_2_when_a_trial_failed(self, tmp_path, capsys):
        # n=2 defeats the four-group generator; the report is still written
        cfg_path = tmp_path / "partial.ini"
        cfg_path.write_text("[experiment]\nname = partial\nseed = 1\nn_values = 2 24\n"
                            "algorithms = soa/sqrt_n\n[generator]\nfamily = mixed_four_groups\n"
                            "m = 2\n")
        outdir = tmp_path / "out"
        assert cli.main(["run", str(cfg_path), "--output", str(outdir)]) == 2
        assert (outdir / "trials.csv").exists()
        assert "1 trial(s) failed" in capsys.readouterr().err

    def test_config_error_exit_code(self, tmp_path, capsys):
        assert cli.main(["run", str(tmp_path / "missing.ini")]) == 1
        assert cli.main(["solve", str(tmp_path / "missing-instance.txt")]) == 1

    def test_usage_error_exit_code(self, capsys):
        assert cli.main(["frobnicate"]) == 1
        assert cli.main(["bench", str(CONFIGS / "mknap_demo.txt")]) == 1


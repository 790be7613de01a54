import configparser
import csv
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from onlinelp.algorithms import AlgorithmConfig, AlgorithmKind, run_soa
from onlinelp.core import Instance, StepSchedule
from onlinelp.generators import PermutationPlan, permute, write_mknap
from onlinelp.harness import (
    ConfigError,
    child_seed,
    load_config,
    load_report,
    run_experiment,
)
from onlinelp.metrics import evaluate_trial
from onlinelp.simplex import SimplexError, solve_relaxation
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
            cfg = AlgorithmConfig.parse(token)
            assert cfg.label == label
            # the label names the whole config: it parses back to an equal one
            assert AlgorithmConfig.parse(cfg.label) == cfg
        assert AlgorithmConfig.parse("multisoa") == AlgorithmConfig.parse("multisoa/sqrt_n")


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

    def test_n_values_rejected_with_a_benchmark(self, tmp_path):
        # the file's problems set n, so a listed n would be echoed but never run
        path = tmp_path / "bench.ini"
        path.write_text("[experiment]\nname = x\nn_values = 7 9 11\nalgorithms = soa/sqrt_n\n"
                        f"[benchmark]\npath = {CONFIGS / 'mknap_demo.txt'}\n")
        with pytest.raises(ConfigError, match="n_values"):
            load_config(path)

    def test_missing_benchmark_file(self, tmp_path):
        path = tmp_path / "bench.ini"
        path.write_text("[experiment]\nname = x\nalgorithms = dla\n"
                        "[benchmark]\npath = missing.txt\n")
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize("old, new, repeated", [
        ("n_values = 24 48", "n_values = 50 50 200 800", "n 50"),
        ("pbd", "multisoa, pbd, multisoa/sqrt_n", "algorithm multisoa"),
    ], ids=("n_values", "algorithms"))
    def test_repeated_n_or_algorithm_rejected(self, tmp_path, old, new, repeated):
        # a repeated entry would run its trials twice and count every row twice
        path = write_mini_config(tmp_path)
        path.write_text(path.read_text().replace(old, new))
        with pytest.raises(ConfigError, match=f"{repeated} is listed more than once"):
            load_config(path)

    def test_bad_trials(self, tmp_path):
        path = write_mini_config(tmp_path, trials=0)
        with pytest.raises(ConfigError):
            load_config(path)

    def test_negative_workers(self, tmp_path):
        path = write_mini_config(tmp_path)
        path.write_text(path.read_text().replace("trials = 2", "trials = 2\nworkers = -1"))
        with pytest.raises(ConfigError, match="workers must be >= 0"):
            load_config(path)

    @pytest.mark.parametrize("old, new, place", [
        ("m = 3", "m = 3\n[repair]\nenabled = maybe", r"\[repair\] enabled"),
        ("permute = true", "permute = maybe", r"\[experiment\] permute"),
        ("trials = 2", "trials = two", r"\[experiment\] trials"),
        ("family = uniform", "family = zipf", r"\[generator\] family"),
        ("m = 3", "m = 3\ncauchy_truncation = ten", r"\[generator\] cauchy_truncation"),
        ("m = 3", "m = 3\n[output]\ndirectory = %(x)s", r"\[output\] directory"),
    ])
    def test_bad_value_names_its_place(self, tmp_path, old, new, place):
        path = write_mini_config(tmp_path)
        path.write_text(path.read_text().replace(old, new))
        with pytest.raises(ConfigError, match=re.escape(f"{path}: invalid ") + place + ": "):
            load_config(path)

    @pytest.mark.parametrize("new", ["m = 3\nd_lo = 0.7\nd_hi = 0.5", "m = 0",
                                     "m = 3\ncauchy_truncation = 0",
                                     "m = 3\nadversarial_capacity_fraction = -1"])
    def test_bad_generator_value_fails_at_load(self, tmp_path, new):
        path = write_mini_config(tmp_path)
        path.write_text(path.read_text().replace("m = 3", new))
        with pytest.raises(ConfigError, match=re.escape(str(path))):
            load_config(path)

    def test_generator_echo_lists_every_effective_value(self, tmp_path):
        cfg = load_config(write_mini_config(tmp_path, extra="d_hi = 0.5\n"))
        assert cfg.generator_params == {"family": harness.GeneratorFamily.UNIFORM,
                                        "m": 3, "d_hi": 0.5}
        assert cfg.echo()["generator"] == {
            "family": "uniform", "m": 3, "d_lo": 1.0 / 3.0, "d_hi": 0.5,
            "cauchy_truncation": 10.0, "adversarial_low": 1.0, "adversarial_high": 2.0,
            "adversarial_capacity_fraction": 0.5}

    def test_schema_is_documented(self):
        # every section and key appears in the schema comment and in the README
        lines = (CONFIGS / "uniform_sweep.ini").read_text().splitlines(True)
        comment = "".join(line for line in lines if line.startswith("#"))
        readme = (CONFIGS.parent / "README.md").read_text().split("## Configs and reports")[1]
        for section, keys in harness._SCHEMA.items():
            assert f"[{section}]" in comment and f"`[{section}]`" in readme, section
            for key in keys:
                assert re.search(rf"\b{key} = ", comment), (section, key)
                assert f"`{key}`" in readme, (section, key)

    def test_repair_section(self, tmp_path):
        path = write_mini_config(tmp_path)
        assert load_config(path).repair is False
        path.write_text(path.read_text() + "\n[repair]\nenabled = true\n")
        assert load_config(path).repair is True
        # the removal formula reads the instance's own d_lo; there is no override
        path.write_text(path.read_text() + "d_lo_override = 0.4\n")
        with pytest.raises(ConfigError, match=r"\[repair\]: d_lo_override"):
            load_config(path)


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
        trace = run_soa(inst, AlgorithmConfig(AlgorithmKind.SOA, StepSchedule.SQRT_N))
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

    def test_benchmark_problems_of_one_n_number_their_trials_on(self, tmp_path):
        # the second n = 4 problem writes its trials 0 and 1 as trials 2 and 3
        write_mknap(tmp_path / "twins.txt",
                    [(Instance(rewards=[1.0, 2.0, 3.0, 4.0], columns=[[1.0, 2.0, 1.0, 2.0]],
                               capacity=[3.0]), None),
                     (Instance(rewards=[4.0, 1.0, 2.0, 3.0], columns=[[2.0, 1.0, 2.0, 1.0]],
                               capacity=[2.0]), None)])
        path = tmp_path / "twins.ini"
        path.write_text("[experiment]\nname = twins\nseed = 5\ntrials = 2\n"
                        "algorithms = soa/sqrt_t, soa/sqrt_n\n\n[benchmark]\npath = twins.txt\n")
        report = run_experiment(load_config(path), workers=1)
        assert not report.errors
        keys = [(row.n, row.trial, row.algorithm) for row in report.rows]
        assert sorted(keys) == [(4, t, label) for t in range(4)
                                for label in ("soa/sqrt_n", "soa/sqrt_t")]
        # each problem keeps its own seeds, tagged with its index and its local trial
        assert {(row.trial, row.seed) for row in report.rows if row.algorithm == "soa/sqrt_t"} == {
            (2 * i + t, child_seed(5, 4, t, f"b{i}:soa/sqrt_t")) for i in (0, 1) for t in (0, 1)}
        assert [(doc["algorithm"], doc["n"], doc["count"]) for doc in report.aggregates] == [
            ("soa/sqrt_n", 4, 4), ("soa/sqrt_t", 4, 4)]

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

    @pytest.mark.parametrize("family, n_bad", [("mixed_four_groups", 102),
                                               ("adversarial", 101)])
    def test_n_the_family_cannot_build_fails_its_trials(self, tmp_path, family, n_bad):
        # the generator rejects n_bad instead of building a smaller instance
        # whose rows would share their (n, trial, algorithm) key with n = 100
        path = tmp_path / "near.ini"
        path.write_text(f"[experiment]\nname = near\nseed = 1\ntrials = 2\n"
                        f"n_values = 100 {n_bad}\nalgorithms = soa/sqrt_n\n"
                        f"[generator]\nfamily = {family}\nm = 2\n")
        report = run_experiment(load_config(path), workers=1)
        assert [(e["n"], e["trial"]) for e in report.errors] == [(n_bad, 0), (n_bad, 1)]
        assert sorted((row.n, row.trial, row.algorithm) for row in report.rows) == [
            (100, 0, "soa/sqrt_n"), (100, 1, "soa/sqrt_n")]
        assert [(doc["n"], doc["count"]) for doc in report.aggregates] == [(100, 2)]
        assert {t[0] for t in report.timings} == {100}

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
        # one pass per block steps every cell, each prefix LP solved once
        # for both rows
        cfg = load_config(write_mini_config(tmp_path, trials=2, algorithms="dla, pbd"))
        real = algorithms.solve_prefix_lps
        passes, steps = [], []

        def counting(instances):
            passes.append(sorted(inst.n for inst in instances))
            for step in real(instances):
                steps.append(len(step.primal))
                yield step

        monkeypatch.setattr(algorithms, "solve_prefix_lps", counting)
        report = run_experiment(cfg, workers=1)
        assert not report.errors and len(report.rows) == 2 * 2 * 2
        assert passes == [[24, 24, 48, 48]]
        assert len(steps) == 48 and sum(steps) == 2 * 24 + 2 * 48

    def test_failed_prefix_pass_fails_every_cell_it_carried(self, tmp_path, monkeypatch):
        # The pass that carries trial 1 raises after its first step.  Every
        # cell of its block records the error, one-pass rows included; the
        # block of trial 0, in another worker, keeps its rows.
        cfg = load_config(write_mini_config(tmp_path, trials=2, algorithms="soa/sqrt_n, dla, pbd"))
        whole = run_experiment(cfg, workers=1).trials_csv().splitlines()
        real = algorithms.solve_prefix_lps
        trial_1 = cfg_instance(cfg, 24, 1)

        def failing(instances):
            steps = real(instances)
            if any(np.array_equal(inst.rewards, trial_1.rewards) for inst in instances):
                next(steps)
                raise SimplexError("injected pass failure")
            return steps

        monkeypatch.setattr(algorithms, "solve_prefix_lps", failing)
        for workers, failed in ((1, (0, 1)), (2, (1,))):
            partial = run_experiment(cfg, workers=workers)
            assert partial.errors == [{"n": n, "trial": trial,
                                       "error": "SimplexError: injected pass failure"}
                                      for n in (24, 48) for trial in failed]
            lost = tuple(f"{n},{trial}," for n in (24, 48) for trial in failed)
            kept = [line for line in whole if not line.startswith(lost)]
            assert partial.trials_csv().splitlines() == kept

    @staticmethod
    def record_lp_calls(monkeypatch):
        real = harness.solve_relaxation
        calls = []

        def recording(inst):  # any further argument fails the trial
            calls.append(inst)
            return real(inst)

        monkeypatch.setattr(harness, "solve_relaxation", recording)
        return calls

    def test_benchmark_problem_lp_solved_once(self, monkeypatch):
        # once per block: the file holds a 6-column problem, then a 2-column one
        calls = self.record_lp_calls(monkeypatch)
        cfg = load_config(CONFIGS / "mknap_demo.ini")
        report = run_experiment(cfg, workers=1)
        assert not report.errors and len(report.rows) == 2 * 10 * 2
        assert [inst.n for inst in calls] == [6, 2]
        assert sum(1 for t in report.timings if t[2] == "offline_lp") == 2 * 10
        calls.clear()
        monkeypatch.setattr(harness, "_blocks", lambda trials, parts: [range(0, 3), range(3, trials)])
        assert run_experiment(cfg, workers=1).trials_csv() == report.trials_csv()
        assert [inst.n for inst in calls] == [6] * 2 + [2] * 2

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

    def test_offline_lp_is_cold_without_a_one_pass_row(self, tmp_path, monkeypatch):
        # with or without one-pass rows, the offline LP gets the cell's instance alone
        calls = self.record_lp_calls(monkeypatch)
        for algorithms in ("dla, pbd", "pbd, sna/sqrt_t, soa/sqrt_n"):
            cfg = load_config(write_mini_config(tmp_path, algorithms=algorithms))
            calls.clear()
            assert not run_experiment(cfg, workers=1).errors
            assert [inst.n for inst in calls] == [24, 24, 48, 48]
            for inst, (n, trial) in zip(calls, [(24, 0), (24, 1), (48, 0), (48, 1)]):
                expected = cfg_instance(cfg, n, trial)
                for field in ("rewards", "columns", "capacity"):
                    assert np.array_equal(getattr(inst, field), getattr(expected, field))

    def test_rows_do_not_depend_on_the_other_n_of_their_task(self, tmp_path, monkeypatch):
        # A generated sweep steps every n of a block in one kernel call and
        # one prefix-LP pass.  The n = 60 rows are the same bytes whether
        # n = 120 shares those calls or not, at any worker count and block
        # size.
        def rows_at_60(n_values, workers):
            path = write_mini_config(tmp_path, trials=3, algorithms=ALL_ALGORITHMS + ", dla")
            path.write_text(path.read_text().replace("n_values = 24 48", f"n_values = {n_values}")
                            .replace("family = uniform\nm = 3", "family = gaussian\nm = 5"))
            text = run_experiment(load_config(path), workers=workers).trials_csv()
            return [line for line in text.splitlines() if line.startswith("60,")]

        alone = rows_at_60("60", 1)
        assert len(alone) == 3 * (len(ALL_ALGORITHMS.split(",")) + 1)
        for workers in (1, 2):
            assert rows_at_60("60 120", workers) == alone
        monkeypatch.setattr(harness, "_blocks", lambda trials, parts: [range(t, t + 1)
                                                                        for t in range(trials)])
        for workers in (1, 2):
            assert rows_at_60("60 120", workers) == alone

    def test_lp_certificate_in_meta(self, tmp_path):
        report = run_experiment(load_config(write_mini_config(tmp_path)))
        certificate = report.meta["lp_certificate"]
        assert sorted(certificate) == ["duality_gap", "primal_infeasibility",
                                       "reduced_cost_violation"]
        assert all(math.isfinite(v) and 0.0 <= v <= 1e-9 for v in certificate.values())
        doc = json.loads(report.summary_json())
        assert doc["meta"]["lp_certificate"] == certificate

    def test_lp_certificate_null_without_an_lp(self, tmp_path):
        path = write_mini_config(tmp_path, trials=1, algorithms="soa/sqrt_n")
        path.write_text(path.read_text().replace("n_values = 24 48", "n_values = 2")
                        .replace("family = uniform", "family = mixed_four_groups"))
        report = run_experiment(load_config(path))
        assert len(report.errors) == 1 and not report.rows
        assert json.loads(report.summary_json())["meta"]["lp_certificate"] is None

    def test_negative_workers_override(self, tmp_path):
        cfg = load_config(write_mini_config(tmp_path, trials=1))
        with pytest.raises(ValueError, match="-3"):
            run_experiment(cfg, workers=-3)
        assert run_experiment(cfg, workers=0).meta["workers"] == 1

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

    @pytest.mark.parametrize("name, header", [("trials.csv", "trial,n,algorithm"),
                                              ("timings.csv", "trial,n,wall_seconds,algorithm")])
    def test_load_rejects_an_unexpected_header(self, tmp_path, name, header):
        # the rows are read by position, so a header in another order would misread them
        cfg = load_config(write_mini_config(tmp_path, trials=1, algorithms="soa/sqrt_n"))
        outdir = tmp_path / "report"
        run_experiment(cfg).save(outdir)
        lines = (outdir / name).read_text().splitlines()
        (outdir / name).write_text("\n".join([header] + lines[1:]) + "\n")
        with pytest.raises(ValueError, match=f"unexpected {name} header"):
            load_report(outdir)

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

    def test_summary_does_not_depend_on_the_checkout(self, tmp_path):
        summaries = []
        for place in ("a", "deeper/b"):
            directory = tmp_path / place
            directory.mkdir(parents=True)
            for name in ("mknap_demo.ini", "mknap_demo.txt"):
                shutil.copy(CONFIGS / name, directory / name)
            outdir = directory / "report"
            assert cli.main(["run", str(directory / "mknap_demo.ini"), "--output", str(outdir)]) == 0
            summary = json.loads((outdir / "summary.json").read_text())
            del summary["meta"]
            summaries.append(summary)
        assert summaries[0]["config"]["benchmark"] == "mknap_demo.txt"
        assert summaries[0] == summaries[1]


class TestCli:
    def test_solve_prints_objective_and_dual(self, tmp_path, capsys):
        inst_file = tmp_path / "one.txt"
        inst_file.write_text("1\n1 1 0\n1\n1\n0.5\n")
        assert cli.main(["solve", str(inst_file), "--binary"]) == 0
        out = capsys.readouterr().out
        assert "objective 0.5" in out
        assert "duals 1" in out
        assert "\niterations 1\n" in out
        assert "binary_objective 0" in out

    def test_gen_then_solve(self, tmp_path, capsys):
        target = tmp_path / "gen.txt"
        assert cli.main(["gen", "uniform", "-n", "12", "-m", "2", "--seed", "4",
                         "-o", str(target)]) == 0
        assert target.exists()
        assert cli.main(["solve", str(target)]) == 0
        assert "objective " in capsys.readouterr().out

    def test_solve_checks_the_stated_optima(self, capsys):
        assert cli.main(["solve", str(CONFIGS / "mknap_demo.txt"), "--binary"]) == 0
        out = capsys.readouterr().out
        stated = re.findall(r"^problem \d+ n \d+ m \d+ optimum (\S+)$", out, re.M)
        found = re.findall(r"^binary_objective (\S+)$", out, re.M)
        assert stated == found == ["27", "10"]

    def test_generated_file_runs_as_a_benchmark(self, tmp_path, capsys):
        # gaussian data is signed; the file is found relative to the config
        assert cli.main(["gen", "gaussian", "-n", "30", "-m", "2", "--seed", "5",
                         "-o", str(tmp_path / "gen.txt")]) == 0
        cfg_path = tmp_path / "bench.ini"
        cfg_path.write_text("[experiment]\nname = gen-bench\ntrials = 2\n"
                            "algorithms = soa/sqrt_t, sfa/sqrt_t\npermute = true\n"
                            "[benchmark]\npath = gen.txt\n")
        outdir = tmp_path / "out"
        assert cli.main(["run", str(cfg_path), "--output", str(outdir)]) == 0
        with open(outdir / "trials.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4 and {r["n"] for r in rows} == {"30"}

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

    def test_negative_workers_is_a_usage_error(self, tmp_path, capsys):
        cfg_path = write_mini_config(tmp_path, trials=1, algorithms="soa/sqrt_n")
        outdir = tmp_path / "out"
        assert cli.main(["run", str(cfg_path), "--workers", "-3", "--output", str(outdir)]) == 1
        assert "--workers" in capsys.readouterr().err and not outdir.exists()
        # 0 keeps its meaning: the config's count, here the default of one worker
        assert cli.main(["run", str(cfg_path), "--workers", "0", "--output", str(outdir)]) == 0
        assert json.loads((outdir / "summary.json").read_text())["meta"]["workers"] == 1

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

    def test_gen_rejects_a_bad_parameter(self, tmp_path, capsys):
        target = tmp_path / "gen.txt"
        assert cli.main(["gen", "uniform", "-n", "12", "-m", "2", "--cauchy-truncation", "0",
                         "-o", str(target)]) == 1
        assert "cauchy_truncation" in capsys.readouterr().err and not target.exists()

    def test_solve_binary_limit(self, tmp_path, capsys):
        target = tmp_path / "big.txt"
        assert cli.main(["gen", "uniform", "-n", "26", "-m", "1", "-o", str(target)]) == 0
        assert cli.main(["solve", str(target), "--binary"]) == 1
        assert "25" in capsys.readouterr().err

    def test_config_error_exit_code(self, tmp_path, capsys):
        assert cli.main(["run", str(tmp_path / "missing.ini")]) == 1
        assert cli.main(["solve", str(tmp_path / "missing-instance.txt")]) == 1

    def test_import_leaves_multiprocessing_out(self):
        # a single-process run has no use for the process pool, so importing
        # the command line must not load it; a fresh interpreter shows that
        src = str(Path(harness.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        code = "import sys, onlinelp.cli; print('multiprocessing' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out.strip() == "False"

    def test_usage_error_exit_code(self, capsys):
        assert cli.main(["frobnicate"]) == 1
        assert cli.main(["bench", str(CONFIGS / "mknap_demo.txt")]) == 1


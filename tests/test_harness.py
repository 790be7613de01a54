import configparser
import csv
import ctypes
import hashlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest

from onlinelp.algorithms import AlgorithmConfig, AlgorithmKind, run_soa
from onlinelp.core import Instance, StepSchedule
from onlinelp.generators import (
    GeneratorFamily,
    GeneratorSpec,
    PermutationPlan,
    generate,
    permute,
    read_mknap,
    write_mknap,
)
from onlinelp.harness import (
    FORMAT_VERSION,
    ConfigError,
    child_seed,
    load_config,
    load_report,
    run_experiment,
)
from onlinelp.metrics import evaluate_trial
from onlinelp.simplex import SimplexError, solve_relaxation
from onlinelp import algorithms, cli, harness

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
ALL_ALGORITHMS = "soa/sqrt_n, soa/sqrt_t, sfa/sqrt_t, sna/sqrt_t, multisoa, pbd"


def failing_draw(n_bad):
    """``generate``, but raising for a spec of ``n_bad`` columns."""
    real = harness.generate

    def draw(spec):
        if spec.n == n_bad:
            raise RuntimeError("injected draw failure")
        return real(spec)

    return draw


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

    @pytest.mark.parametrize("family, n_values, n_bad", [
        ("mixed_four_groups", "100 102", 102), ("adversarial", "101 200", 101)],
        ids=["mixed", "adversarial"])
    def test_n_the_family_cannot_draw_fails_at_load(self, tmp_path, family, n_values, n_bad):
        # every listed n is checked, not only the smallest: the family would
        # fail each trial of n_bad, or else draw a smaller instance whose rows
        # would share their (n, trial, algorithm) key with another n
        path = tmp_path / "near.ini"
        path.write_text(f"[experiment]\nname = near\nseed = 1\ntrials = 2\n"
                        f"n_values = {n_values}\nalgorithms = soa/sqrt_n\n"
                        f"[generator]\nfamily = {family}\nm = 2\n")
        with pytest.raises(ConfigError, match=re.escape(f"{path}: ") + f".* got n = {n_bad}$"):
            load_config(path)

    def test_generator_echo_lists_every_effective_value(self, tmp_path):
        cfg = load_config(write_mini_config(tmp_path, extra="d_hi = 0.5\n"))
        assert cfg.generator_params == {"family": GeneratorFamily.UNIFORM,
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
        assert row.lp_opt == res.lp_opt
        assert row.regret == res.regret
        assert row.violation == res.violation

    def test_cells_record_the_capacity_norm_of_their_instance(self, tmp_path):
        # aggregate normalizes each row's violation by its cell's ||b||_2
        cfg = load_config(write_mini_config(tmp_path))
        outcomes = harness._block_task((cfg, [(n, "", None, 0) for n in cfg.n_values], range(2)))
        assert [(out.n, out.trial) for out in outcomes] == [(24, 0), (24, 1), (48, 0), (48, 1)]
        for out in outcomes:
            inst = cfg_instance(cfg, out.n, out.trial)
            assert out.capacity_norm == float(np.linalg.norm(inst.capacity))

    def test_timings_hold_measured_calls_only(self, tmp_path):
        # each cell: its shares of the kernel call and the prefix-LP pass,
        # its offline LP and its repair runs; no row for a label's own run
        path = write_mini_config(tmp_path, trials=2, algorithms=ALL_ALGORITHMS + ", dla")
        path.write_text(path.read_text() + "\n[repair]\nenabled = true\n")
        cfg = load_config(path)
        report = run_experiment(cfg, workers=1)
        labels = [c.label for c in cfg.algorithms]
        expected = sorted(["onepass_kernel", "prefix_lp_pass", "offline_lp"]
                          + [label + "+repair" for label in labels])
        cells = {}
        for n, trial, label, seconds in report.timings:
            assert seconds >= 0.0
            cells.setdefault((n, trial), []).append(label)
        assert sorted(cells) == [(n, t) for n in (24, 48) for t in range(2)]
        assert all(sorted(found) == expected for found in cells.values())
        # one block carries every cell: each batch call's shares are proportional to n
        for call in ("onepass_kernel", "prefix_lp_pass"):
            per_column = [seconds / n for n, _, label, seconds in report.timings if label == call]
            assert per_column == pytest.approx([per_column[0]] * 4, rel=1e-12)
        assert set(report.meta["wall_seconds_by_algorithm"]) == set(expected)

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

    def test_failed_cells_keep_their_measured_calls(self, tmp_path):
        # repair fails at n = 2 after the kernel call and the LP solve ran;
        # the raising repair run stays untimed
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
        report = run_experiment(load_config(path), workers=1)
        assert [(e["n"], e["trial"]) for e in report.errors] == [(2, 0), (2, 1)]
        cells = {}
        for n, trial, label, _ in report.timings:
            cells.setdefault((n, trial), []).append(label)
        assert cells == {(n, t): sorted(["offline_lp", "onepass_kernel"]
                                        + (["soa/sqrt_t+repair"] if n == 6 else []))
                         for n in (2, 6) for t in (0, 1)}
        for label, total in report.meta["wall_seconds_by_algorithm"].items():
            assert total == sum(seconds for _, _, name, seconds in report.timings
                                if name == label)

    def test_trial_failures_recorded_and_run_continues(self, tmp_path, monkeypatch):
        # a draw that fails at n = 2 fails that cell; n = 24 still succeeds
        monkeypatch.setattr(harness, "generate", failing_draw(2))
        path = tmp_path / "partial.ini"
        path.write_text("""
[experiment]
name = partial
seed = 1
trials = 1
n_values = 2 24
algorithms = soa/sqrt_n

[generator]
family = uniform
m = 2
""")
        report = run_experiment(load_config(path))
        assert report.errors == [{"n": 2, "trial": 0, "error": "RuntimeError: injected draw failure"}]
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
        # one pass per block steps every cell, each prefix LP solved once
        # for both rows
        cfg = load_config(write_mini_config(tmp_path, trials=2, algorithms="dla, pbd"))
        real = algorithms.solve_prefix_lps
        passes, shapes = [], []

        def counting(instances):
            passes.append(sorted(inst.n for inst in instances))
            lps = real(instances)
            shapes.append([field.shape for field in lps])
            return lps

        monkeypatch.setattr(algorithms, "solve_prefix_lps", counting)
        report = run_experiment(cfg, workers=1)
        assert not report.errors and len(report.rows) == 2 * 2 * 2
        assert passes == [[24, 24, 48, 48]]
        assert shapes == [[(4, 48), (4, 48, 3), (4, 48), (4, 48)]]

    def test_failed_prefix_pass_fails_every_cell_it_carried(self, tmp_path, monkeypatch):
        # The pass that carries trial 1 raises.  Every cell of its block
        # records the error, one-pass rows included; the block of trial 0,
        # in another worker, keeps its rows.
        cfg = load_config(write_mini_config(tmp_path, trials=2, algorithms="soa/sqrt_n, dla, pbd"))
        whole = run_experiment(cfg, workers=1).trials_csv().splitlines()
        real = algorithms.solve_prefix_lps
        trial_1 = cfg_instance(cfg, 24, 1)

        def failing(instances):
            if any(np.array_equal(inst.rewards, trial_1.rewards) for inst in instances):
                raise SimplexError("injected pass failure")
            return real(instances)

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
        # the failing solve is attempted once per block, not once per trial
        real = harness.solve_relaxation
        attempts = []

        def failing_on_n2(inst):
            if inst.n == 2:
                attempts.append(inst)
                raise RuntimeError("injected LP failure")
            return real(inst)

        monkeypatch.setattr(harness, "solve_relaxation", failing_on_n2)
        cfg = load_config(CONFIGS / "mknap_demo.ini")
        for blocks in ([range(0, 10)], [range(0, 3), range(3, 10)]):
            monkeypatch.setattr(harness, "_blocks", lambda trials, parts: blocks)
            attempts.clear()
            report = run_experiment(cfg, workers=1)
            assert report.errors == [{"n": 2, "trial": t,
                                      "error": "RuntimeError: injected LP failure"}
                                     for t in range(10)]
            assert {row.n for row in report.rows} == {6} and len(report.rows) == 10 * 2
            assert len(attempts) == len(blocks)

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

    def test_lp_certificate_null_without_an_lp(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "generate", failing_draw(2))
        path = write_mini_config(tmp_path, trials=1, algorithms="soa/sqrt_n")
        path.write_text(path.read_text().replace("n_values = 24 48", "n_values = 2"))
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
    inst = generate(cfg.spec_for(n, child_seed(cfg.seed, n, trial, "instance")))
    if cfg.permute_arrivals:
        plan = PermutationPlan.random(inst.n, child_seed(cfg.seed, n, trial, "permutation"))
        inst = permute(inst, plan)
    return inst


def blas_kernel():
    """The kernel numpy's bundled OpenBLAS dispatches to (``SkylakeX``, ``Haswell``, ...), or None.

    ``OPENBLAS_CORETYPE`` picks another kernel at load time.  The LP's final
    solves and the prefix-LP pass run in it, so a report's last bits can
    depend on it.  None where no such library is found or it cannot say.
    """
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs")
                       .glob("libscipy_openblas64_*.so")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return None


def pins_for_this_kernel(table):
    """``table``'s pins for this process's BLAS kernel; skips where none are recorded."""
    kernel = blas_kernel()
    if kernel not in table:
        pytest.skip(f"no digest is pinned for the BLAS kernel {kernel or '(name unreadable)'}")
    return table[kernel]


# Digests by BLAS kernel.  A change in bytes re-pins every kernel's digests.
# sha256 of trials.csv of three shipped configs: every kind with repair and
# permuted arrivals, the benchmark-file path, and the tied two-phase family,
# whose offline LPs take long steps over thousands of equal ratios
TRIALS_CSV_SHA256 = {"SkylakeX": {
    "adversarial_permutation.ini": "8fc126e2548f94b705c313a7f16f1d1cb20b8538aad6cfe4c3034deacac15f26",
    "demo_small.ini": "7663a0d89cb9ac27f5e607cf58980db59e3f521e80dfe767b57d6e133ffe802a",
    "mknap_demo.ini": "dd307294b08092fb723330083828edc2984e5404804d0bdf9451f6f79fa2ae6d",
}}
TRIALS_CSV_SHA256["Haswell"] = {
    **TRIALS_CSV_SHA256["SkylakeX"],
    "demo_small.ini": "50df3016200bfd6815f0eee88502c23f09bdd509dd9c0db0909631d631f39051",
}
# sha256 of json.dumps({"aggregates": ..., "fits": ...}, sort_keys=True): summary.json's numbers
SUMMARY_SHA256 = {"SkylakeX": {
    "adversarial_permutation.ini": "9c6fb487edc9e20e76b5c62544accd064ca7450135b5f633e4699e568127eb1f",
    "demo_small.ini": "3f9a5d6a0016076aa159f93d50bcf5b881377ffe57b3065b9e4fd181b353fe6f",
    "mknap_demo.ini": "37928f774a46c6a6fdc6f9b240ea23dc923708e148b9fe09779a20d707612e0a",
}}
SUMMARY_SHA256["Haswell"] = {
    **SUMMARY_SHA256["SkylakeX"],
    "demo_small.ini": "82744dbcde49bc40d3e35b4cf62a40d24c300dd3b286e37acdb90783e9a0d280",
}
PINNED_CONFIGS = sorted(TRIALS_CSV_SHA256["SkylakeX"])


def shipped_digests(name, workers):
    """sha256 of a shipped config's trials.csv and of its summary numbers, as the pins take them."""
    report = run_experiment(load_config(CONFIGS / name), workers=workers)
    numbers = json.dumps({"aggregates": report.aggregates, "fits": report.fits}, sort_keys=True)
    return [hashlib.sha256(text.encode("ascii")).hexdigest()
            for text in (report.trials_csv(), numbers)]


# The benchmark's two workload configs at seed 1, with the keys perfbench/workloads.py
# writes: SNA, SFA's gate and multisoa over four n, across 64-step kernel chunk
# boundaries, with repair; and DLA and PBD, stepped together through the prefix LPs.
WORKLOAD_CONFIGS = {
    "onepass_sweep": """[experiment]
name = perfbench-onepass_sweep
seed = 1
trials = 10
n_values = 250 500 1000 2000
algorithms = soa/sqrt_n, soa/sqrt_t, sfa/sqrt_t, sna/sqrt_t, multisoa
permute = true
workers = 1

[generator]
family = uniform
m = 10

[repair]
enabled = true
""",
    "prefix_lp": """[experiment]
name = perfbench-prefix_lp
seed = 1
trials = 2
n_values = 100 200 400
algorithms = dla, pbd
permute = true
workers = 1

[generator]
family = uniform
m = 5

[repair]
enabled = false
""",
}
WORKLOAD_TRIALS_SHA256 = {
    "SkylakeX": {
        "onepass_sweep": "cfa44783a34ae89953b02cfbe8d1521c638b09e135e2b8b7e376d5ab5524bc5a",
        "prefix_lp": "0738c0acb6d11295259850b6c550809d393d174f89f92488b76895b4c48afa0f",
    },
    "Haswell": {
        "onepass_sweep": "4da51cdffb678b0c085fb3256e56846098870955ecfb78ed4dacd8f3e4408da0",
        "prefix_lp": "e1d2eb1bc83b232207e8e3e94ba42a316c8ca5cc7f208a43681a46e2009820e5",
    },
}


class TestDeterminismContract:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("name", PINNED_CONFIGS)
    def test_shipped_config_keeps_its_bytes(self, name, workers):
        trials, summary = map(pins_for_this_kernel, (TRIALS_CSV_SHA256, SUMMARY_SHA256))
        digest, numbers = shipped_digests(name, workers)
        assert digest == trials[name], (
            f"trials.csv of {name} at workers={workers} changed its bytes: a change in "
            f"bytes must be made on purpose and recorded in CHANGES.md with the new digest")
        assert numbers == summary[name], (
            f"summary.json's aggregates or fits of {name} at workers={workers} changed: a "
            f"change must be made on purpose and recorded in CHANGES.md with the new digest")

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("name", sorted(WORKLOAD_CONFIGS))
    def test_benchmark_workload_keeps_its_bytes(self, tmp_path, name, workers):
        pins = pins_for_this_kernel(WORKLOAD_TRIALS_SHA256)
        path = tmp_path / f"perfbench-{name}.ini"
        path.write_text(WORKLOAD_CONFIGS[name])
        report = run_experiment(load_config(path), workers=workers)
        digest = hashlib.sha256(report.trials_csv().encode("ascii")).hexdigest()
        assert digest == pins[name], (
            f"trials.csv of the {name} workload at workers={workers} changed its bytes: a "
            f"change in bytes must be made on purpose and recorded in CHANGES.md")

    def test_the_haswell_pins_hold_under_the_haswell_kernel(self):
        # only the child runs OpenBLAS's Haswell kernels, so that a change in
        # bytes made on any other kernel cannot leave the Haswell pins stale
        env = dict(os.environ, OPENBLAS_CORETYPE="Haswell",
                   PYTHONPATH=os.pathsep.join((str(ROOT / "src"), str(ROOT / "tests"))))
        child = subprocess.run(
            [sys.executable, "-c", "import json, test_harness as t; print(json.dumps("
             "[t.blas_kernel(), *t.shipped_digests('demo_small.ini', 1)]))"],
            env=env, capture_output=True, text=True, timeout=300)
        assert child.returncode == 0, child.stderr
        kernel, digest, numbers = json.loads(child.stdout)
        if kernel != "Haswell":
            pytest.skip(f"the child's BLAS kernel is {kernel}, not Haswell")
        assert digest == TRIALS_CSV_SHA256["Haswell"]["demo_small.ini"]
        assert numbers == SUMMARY_SHA256["Haswell"]["demo_small.ini"]


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

    def test_load_returns_the_saved_records(self, tmp_path):
        # the loaded rows equal the saved ones, field by field, not only their bytes
        path = write_mini_config(tmp_path, algorithms="soa/sqrt_n, pbd")
        path.write_text(path.read_text() + "\n[repair]\nenabled = true\n")
        report = run_experiment(load_config(path))
        report.save(tmp_path / "report")
        loaded = load_report(tmp_path / "report")
        assert any(row.max_dual_norm is None for row in report.rows)
        assert loaded.rows == report.rows
        assert loaded.timings == report.timings

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
        # the format version is stated once, at the top level
        summary = json.loads(report.summary_json())
        assert summary["format_version"] == FORMAT_VERSION and "format_version" not in report.meta

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

    def test_run_exits_2_when_a_trial_failed(self, tmp_path, capsys, monkeypatch):
        # a draw that fails at n = 2 fails one trial; the report is still written
        monkeypatch.setattr(harness, "generate", failing_draw(2))
        cfg_path = tmp_path / "partial.ini"
        cfg_path.write_text("[experiment]\nname = partial\nseed = 1\nn_values = 2 24\n"
                            "algorithms = soa/sqrt_n\n[generator]\nfamily = uniform\n"
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

    # a valid value other than the default of each float field of GeneratorSpec,
    # and a family whose instances it shapes
    GEN_VALUES = {"d_lo": ("uniform", "0.25"), "d_hi": ("gaussian", "0.8"),
                  "cauchy_truncation": ("trunc_cauchy", "3.5"),
                  "adversarial_low": ("adversarial", "0.5"),
                  "adversarial_high": ("adversarial", "4.5"),
                  "adversarial_capacity_fraction": ("adversarial", "0.25")}

    def test_every_float_field_is_covered(self):
        hints = get_type_hints(GeneratorSpec)
        assert set(self.GEN_VALUES) == {key for key, kind in hints.items() if kind is float}

    @pytest.mark.parametrize("key", sorted(GEN_VALUES))
    def test_config_and_gen_draw_the_same_instance(self, tmp_path, key):
        family, value = self.GEN_VALUES[key]
        config = tmp_path / "one.ini"
        config.write_text("[experiment]\nn_values = 12\nalgorithms = soa/sqrt_n\n\n"
                          f"[generator]\nfamily = {family}\nm = 3\n{key} = {value}\n")
        from_config = generate(load_config(config).spec_for(12, 4))
        target = tmp_path / "gen.txt"
        assert cli.main(["gen", family, "-n", "12", "-m", "3", "--seed", "4",
                         "--" + key.replace("_", "-"), value, "-o", str(target)]) == 0
        [(from_gen, _)] = read_mknap(target)
        default = generate(GeneratorSpec(GeneratorFamily(family), n=12, m=3, seed=4))
        arrays = ("rewards", "columns", "capacity")
        for name in arrays:
            assert np.array_equal(getattr(from_gen, name), getattr(from_config, name)), name
        assert not all(np.array_equal(getattr(from_gen, name), getattr(default, name))
                       for name in arrays)

    def test_solve_binary_limit(self, tmp_path, capsys):
        target = tmp_path / "big.txt"
        assert cli.main(["gen", "uniform", "-n", "26", "-m", "1", "-o", str(target)]) == 0
        assert cli.main(["solve", str(target), "--binary"]) == 1
        assert "25" in capsys.readouterr().err

    def test_config_error_exit_code(self, tmp_path, capsys):
        assert cli.main(["run", str(tmp_path / "missing.ini")]) == 1
        assert cli.main(["solve", str(tmp_path / "missing-instance.txt")]) == 1
        # an n the family cannot draw fails at load: no trial runs, no report is written
        cfg_path = tmp_path / "near.ini"
        cfg_path.write_text("[experiment]\nname = near\nseed = 1\nn_values = 100 102\n"
                            "algorithms = soa/sqrt_n\n[generator]\nfamily = mixed_four_groups\n"
                            "m = 2\n")
        outdir = tmp_path / "out"
        assert cli.main(["run", str(cfg_path), "--output", str(outdir)]) == 1
        assert "got n = 102" in capsys.readouterr().err and not outdir.exists()

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


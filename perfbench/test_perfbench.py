"""Tests of the benchmark itself: ``python -m pytest perfbench`` from the repository root."""
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
from workloads import Workload

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

# every layer the traced run wraps, on shapes that run in about a second
TINY = Workload(
    name="tiny", m=3, n_values=(30, 60),
    algorithms=("soa/sqrt_n", "sfa/sqrt_t", "sna/sqrt_t", "multisoa", "dla", "pbd"),
    trials=2, repair=True,
)


@pytest.fixture(scope="module")
def traced_twice(tmp_path_factory):
    return [run.measure(TINY, 5, 0.0, True, tmp_path_factory.mktemp(f"run{i}"))[0]
            for i in range(2)]


def test_traced_runs_pass_their_checks(traced_twice):
    for result in traced_twice:
        assert result["correct"] is True
        assert (result["attempted"], result["failed"]) == (4, 0)


def test_exact_counts_repeat_across_runs(traced_twice):
    first, second = ({k: r["metrics"][k]["value"] for k in spans.EXACT_COUNTS}
                     for r in traced_twice)
    assert first == second
    assert first["algorithms.onepass_columns"] == 4 * 2 * (30 + 60)
    assert first["simplex.prefix_lp_calls"] == 2 * 2 * (30 + 60)
    assert first["simplex.offline_lp_iterations"] > 0


def test_child_spans_and_self_time_account_for_the_sweep(traced_twice):
    seconds = {k: m["value"] for k, m in traced_twice[0]["metrics"].items()
               if k.endswith("_s") and k != "harness.sweep_s"}
    assert sum(seconds.values()) == pytest.approx(
        traced_twice[0]["metrics"]["harness.sweep_s"]["value"], rel=1e-9)


def test_untraced_run_reports_every_end_to_end_metric(tmp_path):
    result, lines = run.measure(TINY, 5, 0.0, False, tmp_path)
    assert result["correct"] is True
    assert {k: m["unit"] for k, m in result["metrics"].items()} == run.E2E_UNITS
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert any(line.startswith("sweep_raw_s ") for line in lines)


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "prefix_lp",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "{" not in done.stdout

"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The heavy sweeps are
shared through session fixtures; everything is seeded from one root so the
whole module is reproducible bit for bit.
"""
import itertools
import math
import time

import numpy as np
import pytest

from onlinelp.algorithms import (
    AlgorithmConfig,
    AlgorithmKind,
    repair_feasibility,
    run_dla,
    run_multi_soa,
    run_one_pass,
    run_pbd,
    run_soa,
)
from onlinelp.core import (
    Instance,
    MultiInstance,
    StepSchedule,
    dual_saa_objective,
    violation_norm,
)
from onlinelp.generators import (
    GeneratorFamily,
    GeneratorSpec,
    PermutationPlan,
    generate,
    permute,
)
from onlinelp.harness import child_seed, load_config, run_experiment
from onlinelp.metrics import fit_scaling
from onlinelp.simplex import solve_binary_exact, solve_relaxation

from instance_bounds import compute_stats, price_norm_bound

ROOT = 20260809

pytestmark = pytest.mark.acceptance


def report(tag, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {tag}: {detail}")
    assert ok, f"{tag}: {detail}"


def uniform_instance(n, m, trial):
    return generate(GeneratorSpec(GeneratorFamily.UNIFORM, n=n, m=m,
                                  seed=child_seed(ROOT, n, trial, "instance")))


def one_pass_runs(instances, cfg, block=50):
    """Yield ``(inst, trace)`` for each instance: its one-row run under ``cfg``.

    The kernel steps at most ``block`` instances per call.  A row's trace does
    not depend on its batch (``test_algorithms.py`` pins that), so each trace
    is bitwise that of a one-row ``run_soa`` or ``run_sfa`` call.
    """
    instances = iter(instances)
    while chunk := list(itertools.islice(instances, block)):
        [traces] = run_one_pass(chunk, [cfg], [[0] * len(chunk)])
        yield from zip(chunk, traces)


@pytest.fixture(scope="session")
def bound_runs():
    """200 one-pass runs, n=1000, m=10, 1/sqrt(n) steps."""
    started = time.perf_counter()
    runs = list(one_pass_runs((uniform_instance(1000, 10, trial) for trial in range(200)),
                              AlgorithmConfig(AlgorithmKind.SOA, StepSchedule.SQRT_N)))
    return runs, time.perf_counter() - started


@pytest.fixture(scope="session")
def uniform_sweep():
    """50 trials per n in {100, 400, 1600, 6400}: one-pass 1/sqrt(n) runs vs the LP."""
    started = time.perf_counter()
    sweep = {}
    for n in (100, 400, 1600, 6400):
        cells = []
        for inst, trace in one_pass_runs((uniform_instance(n, 10, trial) for trial in range(50)),
                                         AlgorithmConfig(AlgorithmKind.SOA, StepSchedule.SQRT_N)):
            lp = solve_relaxation(inst)
            cells.append({
                "inst": inst,
                "trace": trace,
                "regret": lp.objective - trace.objective,
                "violation": violation_norm(inst, trace.decisions),
            })
        sweep[n] = cells
    return sweep, time.perf_counter() - started


def test_criterion_01_dual_price_bound(bound_runs):
    runs, elapsed = bound_runs
    worst = 0.0
    violations = 0
    for inst, trace in runs:
        cap = price_norm_bound(compute_stats(inst), inst.m)
        peak = trace.max_dual_norm
        worst = max(worst, peak / cap)
        if peak > cap:
            violations += 1
    ok = violations == 0 and elapsed < 60.0
    report("C1 dual-price bound", ok,
           f"0 of 200 runs exceed the cap (worst peak/cap {worst:.4f}), {elapsed:.1f}s")


def test_criterion_02_regret_scaling(uniform_sweep):
    sweep, elapsed = uniform_sweep
    ns = sorted(sweep)
    means = [float(np.mean([c["regret"] for c in sweep[n]])) for n in ns]
    caps = [10.0 * (2.0 + 2.0 / 3.0) ** 2 * math.sqrt(n) for n in ns]
    under_cap = all(mu <= cap for mu, cap in zip(means, caps))
    fit = fit_scaling(ns, means)
    slope_ok = 0.3 <= fit.exponent <= 0.7
    ok = under_cap and slope_ok and elapsed < 300.0
    report("C2 regret scaling", ok,
           f"means {['%.2f' % m for m in means]} all under 71.1*sqrt(n); "
           f"log-log slope {fit.exponent:.3f} in [0.3, 0.7]; {elapsed:.1f}s")


def test_criterion_03_violation_scaling(uniform_sweep):
    sweep, _ = uniform_sweep
    ns = sorted(sweep)
    means = [float(np.mean([c["violation"] for c in sweep[n]])) for n in ns]
    cap_const = (2.0 * 2.0 + 10.0 * (2.0 + 2.0 / 3.0) ** 2) / (1.0 / 3.0) \
        + 10.0 * (2.0 + 2.0 / 3.0)
    under_cap = all(mu <= cap_const * math.sqrt(n) for mu, n in zip(means, ns))
    fit = fit_scaling(ns, means)
    slope_ok = 0.3 <= fit.exponent <= 0.7
    report("C3 violation scaling", under_cap and slope_ok,
           f"means {['%.2f' % m for m in means]} under {cap_const:.0f}*sqrt(n); "
           f"slope {fit.exponent:.3f} in [0.3, 0.7]")


def test_criterion_04_telescoping_bound(bound_runs, uniform_sweep):
    runs, _ = bound_runs
    sweep, _ = uniform_sweep
    traces = [(inst, trace) for inst, trace in runs]
    for n in sweep:
        traces.extend((c["inst"], c["trace"]) for c in sweep[n])
    worst = -math.inf
    for inst, trace in traces:
        consumption = inst.columns @ trace.decisions.astype(np.float64)
        slack = inst.capacity + math.sqrt(inst.n) * trace.final_prices - consumption
        worst = max(worst, float(-slack.min()))
    ok = worst <= 1e-6
    report("C4 telescoping bound", ok,
           f"consumption <= b + sqrt(n) p_final on {len(traces)} runs "
           f"(worst overshoot {worst:.2e} <= 1e-6)")


def test_criterion_05_sfa_feasibility():
    sfa = AlgorithmConfig(AlgorithmKind.SFA, StepSchedule.SQRT_T)
    mixed = (permute(generate(GeneratorSpec(GeneratorFamily.MIXED_FOUR, n=400, m=5,
                                            seed=child_seed(ROOT, 400, trial, "instance"))),
                     PermutationPlan.random(400, child_seed(ROOT, 400, trial, "permutation")))
             for trial in range(500))
    infeasible = 0
    for inst, trace in one_pass_runs(mixed, sfa):
        if violation_norm(inst, trace.decisions) != 0.0:
            infeasible += 1
    comps = []
    for inst, trace in one_pass_runs((uniform_instance(6400, 10, trial) for trial in range(10)),
                                     sfa):
        lp = solve_relaxation(inst)
        comps.append(trace.objective / lp.objective)
    ok = infeasible == 0 and min(comps) >= 0.85
    report("C5 gated-run feasibility", ok,
           f"{500 - infeasible}/500 mixed-protocol runs feasible; "
           f"competitiveness at n=6400 min {min(comps):.4f} >= 0.85")


def test_criterion_06_weak_duality_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(child_seed(ROOT, 12, 0, "weak-duality"))
    worst_gap = 0.0
    for _ in range(500):
        n = int(rng.integers(1, 13))
        m = int(rng.integers(1, 4))
        inst = Instance(rewards=rng.uniform(-2, 2, n),
                        columns=rng.uniform(-2, 2, (m, n)),
                        capacity=rng.uniform(0.2, 1.0, m) * n)
        q, _ = solve_binary_exact(inst)
        sol = solve_relaxation(inst)
        assert q <= sol.objective + 1e-7
        gap = abs(sol.objective - (inst.capacity @ sol.duals + sol.reduced_bounds_duals.sum()))
        worst_gap = max(worst_gap, gap / (1.0 + abs(sol.objective)))
    elapsed = time.perf_counter() - started
    ok = worst_gap <= 1e-6 and elapsed < 60.0
    report("C6 weak duality oracle", ok,
           f"500 signed instances: binary <= relaxation + 1e-7, "
           f"worst duality gap {worst_gap:.2e} <= 1e-6, {elapsed:.1f}s")


def test_criterion_07_saa_simplex_consistency():
    rng = np.random.default_rng(child_seed(ROOT, 50, 0, "saa"))
    worst_eq = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 51))
        m = int(rng.integers(1, 6))
        inst = Instance(rewards=rng.uniform(-2, 2, n),
                        columns=rng.uniform(-2, 2, (m, n)),
                        capacity=rng.uniform(0.2, 1.0, m) * n)
        sol = solve_relaxation(inst)
        at_dual = dual_saa_objective(inst, sol.duals)
        worst_eq = max(worst_eq, abs(at_dual - sol.objective / inst.n))
        probes = rng.uniform(0.0, 2.0, (1000, m))
        values = inst.per_column_budget @ probes.T + np.maximum(
            inst.rewards[None, :] - probes @ inst.columns, 0.0).sum(axis=1) / inst.n
        assert at_dual <= float(values.min()) + 1e-9
    ok = worst_eq <= 1e-6
    report("C7 dual-objective consistency", ok,
           f"100 instances: |f_n(dual) - opt/n| worst {worst_eq:.2e} <= 1e-6; "
           f"f_n(dual) minimal against 1000 probes each")


def test_criterion_08_repair_feasibility():
    started = time.perf_counter()
    n, m = 10_000, 5
    feasible = 0
    pre, post, caps = [], [], []
    instances = (uniform_instance(n, m, trial) for trial in range(300))
    runs = one_pass_runs(instances, AlgorithmConfig(AlgorithmKind.SOA, StepSchedule.SQRT_N))
    for trial, (inst, trace) in enumerate(runs):
        lp = solve_relaxation(inst)
        repaired = repair_feasibility(inst, trace, child_seed(ROOT, n, trial, "repair"))
        if violation_norm(inst, repaired.decisions) == 0.0:
            feasible += 1
        pre.append(lp.objective - trace.objective)
        post.append(lp.objective - repaired.objective)
        caps.append(2.0 * compute_stats(inst).r_bar * math.sqrt(n) * math.log(n))
    frac = feasible / 300.0
    mean_pre, mean_post = float(np.mean(pre)), float(np.mean(post))
    bound = 2.0 * mean_pre + float(np.mean(caps))
    elapsed = time.perf_counter() - started
    ok = frac >= 0.99 and mean_post <= bound
    report("C8 repair feasibility", ok,
           f"feasible fraction {frac:.4f} >= 0.99; post-repair regret {mean_post:.1f} "
           f"<= 2*pre + 2*rbar*sqrt(n)*log(n) = {bound:.1f}; {elapsed:.0f}s")


def test_criterion_09_multi_choice_reduction():
    mismatches = 0
    for trial in range(50):
        inst = uniform_instance(200, 4, 1000 + trial)
        soa = run_soa(inst, AlgorithmConfig(AlgorithmKind.SOA, StepSchedule.SQRT_N))
        multi = run_multi_soa(MultiInstance.from_instance(inst),
                              AlgorithmConfig(AlgorithmKind.MULTI_SOA, StepSchedule.SQRT_N),
                              rng_seed=trial)
        if not np.array_equal(np.asarray(soa.decisions), np.asarray(multi.decisions)):
            mismatches += 1
    report("C9 multi-choice k=1 reduction", mismatches == 0,
           f"decision vectors identical on {50 - mismatches}/50 instances")


def test_criterion_10_lp_baselines():
    started = time.perf_counter()
    results = {}
    for m in (5, 10):
        dla_comp, pbd_comp = [], []
        soa_seconds = dla_seconds = 0.0
        for trial in range(30):
            inst = uniform_instance(500, m, trial)
            lp = solve_relaxation(inst)
            t0 = time.perf_counter()
            dla = run_dla(inst)
            dla_seconds += time.perf_counter() - t0
            t0 = time.perf_counter()
            run_soa(inst, AlgorithmConfig(AlgorithmKind.SOA, StepSchedule.SQRT_T))
            soa_seconds += time.perf_counter() - t0
            pbd = run_pbd(inst, child_seed(ROOT, 500, trial, "pbd"))
            dla_comp.append(dla.objective / lp.objective)
            pbd_comp.append(pbd.objective / lp.objective)
        results[m] = (float(np.mean(dla_comp)), float(np.mean(pbd_comp)),
                      soa_seconds / dla_seconds)
    elapsed = time.perf_counter() - started
    ok = all(d >= 0.88 and p >= 0.88 and ratio <= 0.1
             for d, p, ratio in results.values())
    detail = "; ".join(
        f"m={m}: DLA {d:.4f}, PBD {p:.4f} (>= 0.88), one-pass/per-step-LP time {r:.4f} (<= 0.1)"
        for m, (d, p, r) in results.items())
    report("C10 per-step-LP baselines", ok, detail + f"; {elapsed:.0f}s")


def test_criterion_11_permutation_sanity():
    soa = AlgorithmConfig(AlgorithmKind.SOA, StepSchedule.SQRT_T)
    norm_regret = {}
    comp10k = None
    for n in (1000, 10_000):
        inst = generate(GeneratorSpec(GeneratorFamily.ADVERSARIAL, n=n, m=1, seed=0))
        lp = solve_relaxation(inst)
        nregs, comps = [], []
        plans = (PermutationPlan.random(n, child_seed(ROOT, n, trial, "permutation"))
                 for trial in range(50))
        for _, trace in one_pass_runs((permute(inst, plan) for plan in plans), soa):
            nregs.append((lp.objective - trace.objective) / lp.objective)
            comps.append(trace.objective / lp.objective)
        unperm = run_soa(inst, soa)
        norm_regret[n] = {
            "permuted": float(np.mean(nregs)),
            "unpermuted": (lp.objective - unperm.objective) / lp.objective,
        }
        if n == 10_000:
            comp10k = float(np.mean(comps))
    permuted_decreasing = norm_regret[10_000]["permuted"] < norm_regret[1000]["permuted"]
    unpermuted_not_decreasing = (
        norm_regret[10_000]["unpermuted"] >= norm_regret[1000]["unpermuted"])
    ok = comp10k >= 0.90 and permuted_decreasing and unpermuted_not_decreasing
    report("C11 permutation-model sanity", ok,
           f"permuted comp@1e4 {comp10k:.4f} >= 0.90; permuted norm regret "
           f"{norm_regret[1000]['permuted']:.5f} -> {norm_regret[10_000]['permuted']:.5f} "
           f"(decreasing); unpermuted {norm_regret[1000]['unpermuted']:.4f} -> "
           f"{norm_regret[10_000]['unpermuted']:.4f} (not decreasing)")


def test_criterion_12_determinism_and_parallelism(tmp_path):
    cfg_text = """
[experiment]
name = determinism-check
seed = 99
trials = 2
n_values = 40 80
algorithms = soa/sqrt_n, sfa/sqrt_t, pbd
permute = true

[generator]
family = uniform
m = 3

[repair]
enabled = true
"""
    path = tmp_path / "determinism.ini"
    path.write_text(cfg_text)
    cfg = load_config(path)
    first = run_experiment(cfg, workers=1)
    second = run_experiment(cfg, workers=1)
    parallel = run_experiment(cfg, workers=2)
    rerun_ok = first.trials_csv() == second.trials_csv()
    parallel_ok = first.trials_csv() == parallel.trials_csv()
    report("C12 determinism and parallelism", rerun_ok and parallel_ok,
           f"rerun bytes identical: {rerun_ok}; workers=2 bytes identical: {parallel_ok} "
           f"({len(first.rows)} rows)")

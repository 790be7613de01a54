import math

import numpy as np
import pytest

from onlinelp.algorithms import AlgorithmConfig, AlgorithmKind, run_soa
from onlinelp.core import Instance, RunTrace, StepSchedule
from onlinelp.generators import GeneratorFamily, GeneratorSpec, gen_uniform
from onlinelp.metrics import TrialResult, aggregate, evaluate_trial, fit_scaling
from onlinelp.simplex import solve_relaxation


def manual_trace(inst, decisions):
    x = np.asarray(decisions, dtype=float)
    return RunTrace(
        decisions=np.asarray(decisions, dtype=np.int8),
        objective=float(inst.rewards @ x),
        consumption=inst.columns @ x,
        final_prices=np.zeros(inst.m),
        max_dual_norm=0.0,
    )


def make_result(**overrides):
    base = dict(algorithm="soa/sqrt_n", n=100, m=2, objective=10.0, offline_lp_opt=12.0,
                regret=2.0, violation=0.5, competitiveness=10.0 / 12.0,
                max_dual_norm=1.0, seed=7, capacity_norm=4.0)
    base.update(overrides)
    return TrialResult(**base)


class TestEvaluateTrial:
    def test_integral_optimum_gives_zero_regret(self):
        # two high-reward unit columns fill the capacity exactly
        inst = Instance(rewards=[2.0, 2.0, 1.0, 1.0],
                        columns=[[1.0, 1.0, 1.0, 1.0]],
                        capacity=[2.0])
        res = evaluate_trial(inst, manual_trace(inst, [1, 1, 0, 0]), algorithm="offline")
        assert res.regret == pytest.approx(0.0, abs=1e-9)
        assert res.violation == 0.0
        assert res.competitiveness == pytest.approx(1.0)

    def test_all_reject_trace(self):
        inst = gen_uniform(GeneratorSpec(GeneratorFamily.UNIFORM, n=12, m=2, seed=1))
        lp = solve_relaxation(inst)
        res = evaluate_trial(inst, manual_trace(inst, np.zeros(12, dtype=int)), lp.objective)
        assert res.regret == pytest.approx(lp.objective)
        assert res.violation == 0.0
        assert res.objective == 0.0

    def test_matches_independent_recomputation(self):
        inst = gen_uniform(GeneratorSpec(GeneratorFamily.UNIFORM, n=10, m=2, seed=3))
        trace = run_soa(inst, AlgorithmConfig(AlgorithmKind.SOA, StepSchedule.SQRT_N))
        lp = solve_relaxation(inst)
        res = evaluate_trial(inst, trace, lp.objective, algorithm="soa", seed=9)
        manual_obj = sum(float(inst.rewards[j]) for j in range(10) if trace.decisions[j] == 1)
        assert res.objective == pytest.approx(manual_obj, rel=1e-12)
        assert res.regret == lp.objective - res.objective  # exact, by construction
        assert res.regret + res.objective == lp.objective
        assert res.seed == 9
        assert res.capacity_norm == pytest.approx(float(np.linalg.norm(inst.capacity)))

    def test_solves_lp_when_not_supplied(self):
        inst = gen_uniform(GeneratorSpec(GeneratorFamily.UNIFORM, n=8, m=2, seed=4))
        res = evaluate_trial(inst, manual_trace(inst, np.zeros(8, dtype=int)))
        assert res.offline_lp_opt == pytest.approx(solve_relaxation(inst).objective)

    def test_nonpositive_lp_flags_competitiveness(self):
        inst = Instance(rewards=[-1.0], columns=[[1.0]], capacity=[0.5])
        res = evaluate_trial(inst, manual_trace(inst, [0]))
        assert res.offline_lp_opt == 0.0
        assert res.competitiveness is None

    def test_foreign_trace_rejected(self):
        inst = gen_uniform(GeneratorSpec(GeneratorFamily.UNIFORM, n=8, m=2, seed=4))
        other = gen_uniform(GeneratorSpec(GeneratorFamily.UNIFORM, n=9, m=2, seed=4))
        trace = manual_trace(other, np.zeros(9, dtype=int))
        with pytest.raises(ValueError):
            evaluate_trial(inst, trace)


class TestAggregate:
    def test_single_result_stderr_zero(self):
        summary = aggregate([make_result()])
        assert summary.count == 1
        assert summary.mean_regret == 2.0
        assert summary.stderr_regret == 0.0
        assert summary.mean_normalized_regret == pytest.approx(2.0 / 12.0)
        assert summary.mean_normalized_violation == pytest.approx(0.5 / 4.0)

    def test_symmetric_values_average_to_zero(self):
        a = make_result(objective=5.0, regret=3.0)
        b = make_result(objective=-5.0, regret=-3.0)
        summary = aggregate([a, b])
        assert summary.mean_regret == 0.0
        assert summary.mean_objective == 0.0

    def test_order_independent_bitwise(self):
        rng = np.random.default_rng(0)
        results = [make_result(objective=float(rng.uniform(0, 20)),
                               regret=float(rng.uniform(-1, 5)),
                               violation=float(rng.uniform(0, 2)),
                               seed=i) for i in range(37)]
        forward = aggregate(results)
        backward = aggregate(list(reversed(results)))
        shuffled = list(results)
        rng.shuffle(shuffled)
        random_order = aggregate(shuffled)
        assert forward == backward == random_order

    def test_against_independent_recomputation(self):
        rng = np.random.default_rng(12)
        regrets = rng.uniform(0, 4, 50)
        results = [make_result(regret=float(v), seed=i) for i, v in enumerate(regrets)]
        summary = aggregate(results)
        mean = sum(regrets) / 50
        sd = math.sqrt(sum((v - mean) ** 2 for v in regrets) / 49)
        assert summary.mean_regret == pytest.approx(mean, rel=1e-12)
        assert summary.stderr_regret == pytest.approx(sd / math.sqrt(50), rel=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])

    def test_mixed_groups_rejected(self):
        with pytest.raises(ValueError):
            aggregate([make_result(), make_result(n=200)])
        with pytest.raises(ValueError):
            aggregate([make_result(), make_result(algorithm="pbd")])

    def test_nonpositive_opt_flagged(self):
        good = make_result()
        flagged = make_result(offline_lp_opt=0.0, competitiveness=None, seed=8)
        summary = aggregate([good, flagged])
        assert summary.flagged_nonpositive_opt == 1
        assert summary.mean_competitiveness == pytest.approx(10.0 / 12.0)


class TestFitScaling:
    def test_exact_sqrt_law(self):
        ns = [100, 400, 1600, 6400]
        means = [3.0 * math.sqrt(n) for n in ns]
        fit = fit_scaling(ns, means)
        assert fit.exponent == pytest.approx(0.5, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_exact_linear_law(self):
        ns = [10, 100, 1000]
        fit = fit_scaling(ns, [0.25 * n for n in ns])
        assert fit.exponent == pytest.approx(1.0, abs=1e-12)

    def test_nonpositive_means_excluded_and_flagged(self):
        ns = [10, 40, 100, 1000]
        means = [2.0, -0.5, 5.0, 12.0]
        fit = fit_scaling(ns, means)
        assert fit.excluded_ns == (40,)
        assert fit.ns == (10, 100, 1000)

    def test_errors(self):
        with pytest.raises(ValueError):
            fit_scaling([10, 20], [1.0, 2.0])  # too few
        with pytest.raises(ValueError):
            fit_scaling([10, 20, 40], [1.0, 2.0, 3.0])  # under one decade
        with pytest.raises(ValueError):
            fit_scaling([10, 100, 1000], [-1.0, -1.0, 3.0])  # too few positive
        with pytest.raises(ValueError):
            fit_scaling([10, 100, 1000], [1.0, 2.0])  # length mismatch

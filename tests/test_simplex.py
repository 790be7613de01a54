import math

import numpy as np
import pytest

from onlinelp.core import Instance, compute_stats
from onlinelp.generators import GeneratorFamily, GeneratorSpec, gen_uniform
from onlinelp.simplex import (
    LpStatus,
    solve_binary_exact,
    solve_box_lp,
    solve_relaxation,
    solve_scaled,
)

from oracles import box_lp_vertex_oracle


def random_signed_instance(rng, n, m):
    return Instance(rewards=rng.uniform(-2, 2, n),
                    columns=rng.uniform(-2, 2, (m, n)),
                    capacity=rng.uniform(0.3, 1.5, m) * n * 0.4)


def check_solution_invariants(inst, sol):
    assert sol.status is LpStatus.OPTIMAL
    x, p, s = sol.primal, sol.duals, sol.reduced_bounds_duals
    b = inst.capacity
    scale = 1.0 + float(np.abs(b).max())
    assert (inst.columns @ x <= b + 1e-7 * scale).all()
    assert (x >= -1e-9).all() and (x <= 1 + 1e-9).all()
    assert (p >= 0).all() and (s >= 0).all()
    gap = abs(sol.objective - (b @ p + s.sum()))
    assert gap <= 1e-6 * (1 + abs(sol.objective))
    assert (inst.columns.T @ p + s >= inst.rewards - 1e-6).all()
    slackness = np.abs(p * (inst.columns @ x - b))
    assert (slackness <= 1e-6 * (1 + abs(sol.objective))).all()


class TestSolveRelaxation:
    def test_single_variable(self):
        inst = Instance(rewards=[1.0], columns=[[1.0]], capacity=[0.5])
        sol = solve_relaxation(inst)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective == pytest.approx(0.5)
        assert sol.primal[0] == pytest.approx(0.5)
        assert sol.duals[0] == pytest.approx(1.0)

    def test_degenerate_two_column(self):
        # x1 hits both its own bound and the row; strong duality picks out
        # p = 1 with a unit bound dual on x1.
        inst = Instance(rewards=[2.0, 1.0], columns=[[1.0, 1.0]], capacity=[1.0])
        sol = solve_relaxation(inst)
        assert sol.objective == pytest.approx(2.0)
        assert sol.primal == pytest.approx([1.0, 0.0])
        assert sol.duals[0] == pytest.approx(1.0)
        assert sol.reduced_bounds_duals == pytest.approx([1.0, 0.0])
        assert abs(sol.objective - (sol.duals @ inst.capacity + sol.reduced_bounds_duals.sum())) < 1e-9

    def test_nonpositive_rewards_reject_everything(self):
        rng = np.random.default_rng(0)
        inst = Instance(rewards=-rng.uniform(0, 2, 9),
                        columns=rng.uniform(-1, 1, (2, 9)),
                        capacity=[3.0, 4.0])
        sol = solve_relaxation(inst)
        assert sol.objective == 0.0
        assert sol.primal == pytest.approx(np.zeros(9))

    def test_matches_vertex_enumeration(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, 4))
            inst = random_signed_instance(rng, n, m)
            sol = solve_relaxation(inst)
            oracle = box_lp_vertex_oracle(inst.rewards, inst.columns, inst.capacity)
            assert sol.objective == pytest.approx(oracle, abs=1e-7)
            check_solution_invariants(inst, sol)

    def test_invariants_on_random_instances(self):
        rng = np.random.default_rng(30)
        for _ in range(30):
            inst = random_signed_instance(rng, int(rng.integers(5, 40)), int(rng.integers(1, 6)))
            check_solution_invariants(inst, solve_relaxation(inst))

    def test_deterministic(self):
        inst = gen_uniform(GeneratorSpec(GeneratorFamily.UNIFORM, n=60, m=4, seed=9))
        a = solve_relaxation(inst)
        b = solve_relaxation(inst)
        assert np.array_equal(a.primal, b.primal)
        assert np.array_equal(a.duals, b.duals)
        assert a.objective == b.objective and a.iterations == b.iterations

    def test_dual_norm_cap_at_optimum(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            inst = random_signed_instance(rng, int(rng.integers(4, 30)), int(rng.integers(1, 5)))
            sol = solve_relaxation(inst)
            stats = compute_stats(inst)
            assert float(np.linalg.norm(sol.duals)) <= stats.r_bar / stats.d_lo + 1e-6

    def test_degenerate_duplicate_columns(self):
        # many identical columns force heavily tied ratio tests
        inst = Instance(rewards=np.ones(12), columns=np.ones((2, 12)), capacity=[3.0, 3.0])
        sol = solve_relaxation(inst)
        assert sol.objective == pytest.approx(3.0)
        check_solution_invariants(inst, sol)


class TestNegativeCapacity:
    def test_phase_one_feasible(self):
        # -x <= -0.5 forces x >= 0.5
        sol = solve_box_lp([1.0], [[-1.0]], [-0.5])
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective == pytest.approx(1.0)

    def test_phase_one_infeasible(self):
        sol = solve_box_lp([1.0], [[1.0]], [-1.0])
        assert sol.status is LpStatus.INFEASIBLE
        assert math.isnan(sol.objective)

    def test_random_negative_capacity_against_oracle(self):
        rng = np.random.default_rng(5)
        optimal = infeasible = 0
        for _ in range(40):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, 4))
            A = rng.uniform(-2, 2, (m, n))
            r = rng.uniform(-2, 2, n)
            b = rng.uniform(-1.0, 1.5, m)
            sol = solve_box_lp(r, A, b)
            oracle = box_lp_vertex_oracle(r, A, b)
            if sol.status is LpStatus.OPTIMAL:
                optimal += 1
                assert sol.objective == pytest.approx(oracle, abs=1e-7)
            else:
                infeasible += 1
                assert oracle == -math.inf
        assert optimal > 0 and infeasible > 0


class TestSolveScaled:
    def test_full_prefix_matches_relaxation(self):
        inst = gen_uniform(GeneratorSpec(GeneratorFamily.UNIFORM, n=40, m=3, seed=2))
        full = solve_relaxation(inst)
        scaled = solve_scaled(inst, inst.n)
        assert scaled.objective == pytest.approx(full.objective, abs=1e-9)

    def test_single_column_prefix(self):
        inst = Instance(rewards=[1.0, 5.0], columns=[[1.0, 1.0]], capacity=[1.0])
        sol = solve_scaled(inst, 1)
        assert sol.objective == pytest.approx(0.5)
        assert sol.primal[0] == pytest.approx(0.5)

    def test_prefix_against_vertex_oracle(self):
        rng = np.random.default_rng(8)
        inst = Instance(rewards=rng.uniform(-2, 2, 30),
                        columns=rng.uniform(-2, 2, (3, 30)),
                        capacity=rng.uniform(0.4, 0.8, 3) * 30)
        s = 10
        sol = solve_scaled(inst, s)
        cap = s * inst.per_column_budget
        oracle = box_lp_vertex_oracle(inst.rewards[:s], inst.columns[:, :s], cap)
        assert sol.objective == pytest.approx(oracle, abs=1e-7)

    def test_bad_arguments(self):
        inst = gen_uniform(GeneratorSpec(GeneratorFamily.UNIFORM, n=5, m=2, seed=3))
        with pytest.raises(ValueError):
            solve_scaled(inst, 0)
        with pytest.raises(ValueError):
            solve_scaled(inst, 6)


class TestSolveBinaryExact:
    def test_two_column_example(self):
        inst = Instance(rewards=[2.0, 1.0], columns=[[1.0, 1.0]], capacity=[1.0])
        obj, x = solve_binary_exact(inst)
        assert obj == pytest.approx(2.0)
        assert list(x) == [1, 0]

    def test_negative_reward_rejected(self):
        inst = Instance(rewards=[-1.0], columns=[[1.0]], capacity=[1.0])
        obj, x = solve_binary_exact(inst)
        assert obj == 0.0
        assert list(x) == [0]

    def test_budget_guard(self):
        rng = np.random.default_rng(1)
        inst = Instance(rewards=rng.uniform(0, 1, 26),
                        columns=rng.uniform(0, 1, (1, 26)),
                        capacity=[5.0])
        with pytest.raises(ValueError):
            solve_binary_exact(inst)

    def test_weak_duality_random(self):
        rng = np.random.default_rng(17)
        for _ in range(15):
            inst = random_signed_instance(rng, 12, 2)
            q, x = solve_binary_exact(inst)
            sol = solve_relaxation(inst)
            assert q <= sol.objective + 1e-7
            # returned assignment is feasible and evaluates to the objective
            assert (inst.columns @ x.astype(float) <= inst.capacity).all()
            assert q == pytest.approx(float(inst.rewards @ x.astype(float)))

    def test_matches_greedy_free_case(self):
        # capacity large enough that all positive rewards are taken
        inst = Instance(rewards=[0.5, -0.25, 1.5], columns=[[0.1, 0.1, 0.1]], capacity=[3.0])
        obj, x = solve_binary_exact(inst)
        assert obj == pytest.approx(2.0)
        assert list(x) == [1, 0, 1]


@pytest.mark.slow
class TestAgainstScipy:
    def test_cross_solver_agreement(self):
        linprog = pytest.importorskip("scipy.optimize").linprog
        rng = np.random.default_rng(99)
        for _ in range(60):
            n = int(rng.integers(1, 30))
            m = int(rng.integers(1, 8))
            A = rng.uniform(-2, 2, (m, n))
            r = rng.uniform(-2, 2, n)
            b = rng.uniform(-0.5, 2.0, m) * max(1, n // 3)
            sol = solve_box_lp(r, A, b)
            ref = linprog(-r, A_ub=A, b_ub=b, bounds=[(0, 1)] * n, method="highs")
            if sol.status is LpStatus.OPTIMAL:
                assert ref.status == 0
                assert sol.objective == pytest.approx(-ref.fun, abs=1e-7, rel=1e-7)
            else:
                assert ref.status == 2

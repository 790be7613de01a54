import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onlinelp.core import (
    Instance,
    MultiInstance,
    StepSchedule,
    dual_saa_objective,
    violation_norm,
)
from onlinelp.generators import GeneratorFamily, GeneratorSpec, generate, read_mknap, write_mknap
from onlinelp.simplex import solve_relaxation

from instance_bounds import compute_stats, price_norm_bound
from oracles import elementwise_violation, saa_objective, scan_stats


def small_instance():
    return Instance(rewards=[1.0, -3.0], columns=[[2.0, -1.0]], capacity=[1.0])


class TestInstance:
    def test_dimensions_and_budget(self):
        inst = small_instance()
        assert inst.n == 2 and inst.m == 1
        assert inst.per_column_budget[0] == 0.5

    def test_rejects_zero_budget(self):
        with pytest.raises(ValueError):
            Instance(rewards=[1.0], columns=[[1.0]], capacity=[0.0])
        with pytest.raises(ValueError):
            Instance(rewards=[1.0], columns=[[1.0]], capacity=[-2.0])

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            Instance(rewards=[1.0, 2.0], columns=[[1.0]], capacity=[1.0])
        with pytest.raises(ValueError):
            Instance(rewards=[1.0], columns=[[1.0]], capacity=[1.0, 2.0])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Instance(rewards=[math.nan], columns=[[1.0]], capacity=[1.0])

    def test_immutable(self):
        inst = small_instance()
        with pytest.raises(ValueError):
            inst.rewards[0] = 5.0

    def test_keeps_its_own_copies_of_the_callers_arrays(self):
        A = np.ones((2, 4))
        r = np.ones(4)
        b = np.full(2, 2.0)
        inst = Instance(r, A, b)
        r[0] = 5.0
        b[0] = -1.0
        A[0, 0] = 7.0  # the caller's arrays stay writeable
        assert inst.rewards[0] == 1.0 and inst.capacity[0] == 2.0 and inst.columns[0, 0] == 1.0
        assert inst.per_column_budget[0] == 0.5
        # and so do a multi-choice instance's
        blocks, capacity = np.ones((4, 2, 1)), np.full(2, 2.0)
        minst = MultiInstance(reward_blocks=r[:, None], column_blocks=blocks, capacity=capacity)
        r[1], blocks[1, 0, 0], capacity[1] = 9.0, 9.0, -1.0
        assert minst.reward_blocks[1, 0] == 1.0 and minst.column_blocks[1, 0, 0] == 1.0
        assert minst.capacity[1] == 2.0
        for array in (inst.rewards, inst.columns, inst.capacity, minst.reward_blocks,
                      minst.column_blocks, minst.capacity):
            assert not array.flags.writeable and array.flags.c_contiguous


class TestComputeStats:
    def test_signed_example(self):
        stats = compute_stats(small_instance())
        assert stats.r_bar == 3.0
        assert stats.a_bar == 2.0
        assert stats.d_lo == 0.5 == stats.d_hi

    def test_zero_rewards(self):
        inst = Instance(rewards=[0.0, 0.0], columns=np.full((3, 2), 0.5),
                        capacity=np.full(3, 2 * 0.4))
        stats = compute_stats(inst)
        assert stats.r_bar == 0.0
        assert stats.a_bar == 0.5
        assert stats.d_lo == pytest.approx(0.4)

    def test_against_full_scan(self):
        inst = generate(GeneratorSpec(GeneratorFamily.UNIFORM, n=20, m=5, seed=7))
        stats = compute_stats(inst)
        r_bar, a_bar, d_lo, d_hi = scan_stats(inst.rewards, inst.columns, inst.capacity)
        assert stats.r_bar == r_bar
        assert stats.a_bar == a_bar
        assert stats.d_lo == d_lo
        assert stats.d_hi == d_hi


class TestViolationNorm:
    def test_all_zero_decisions(self):
        inst = generate(GeneratorSpec(GeneratorFamily.UNIFORM, n=6, m=3, seed=1))
        assert violation_norm(inst, np.zeros(6, dtype=int)) == 0.0

    def test_positive_part_then_norm(self):
        # consumption - capacity = (3, -1): only the overshoot counts
        inst = Instance(rewards=[1.0], columns=[[4.0], [1.0]], capacity=[1.0, 2.0])
        assert violation_norm(inst, [1]) == pytest.approx(3.0)

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(3)
        inst = Instance(rewards=rng.uniform(-1, 1, 10),
                        columns=rng.uniform(-1, 1, (3, 10)),
                        capacity=rng.uniform(0.5, 1.0, 3))
        x = rng.integers(0, 2, 10)
        assert violation_norm(inst, x) == pytest.approx(
            elementwise_violation(inst.columns, inst.capacity, x), rel=1e-12)

    def test_dimension_mismatch(self):
        inst = small_instance()
        with pytest.raises(ValueError):
            violation_norm(inst, [1, 0, 1])

    def test_nonbinary_rejected(self):
        inst = small_instance()
        with pytest.raises(ValueError):
            violation_norm(inst, [0.5, 0.0])

    def test_half_and_nan_entries_rejected_with_the_message(self):
        inst = small_instance()
        for bad in ([0.5, 1.0], [1.0, np.nan], [np.nan, np.nan], [-1.0, 0.0], [np.inf, 0.0]):
            with pytest.raises(ValueError, match="entries must be 0 or 1"):
                violation_norm(inst, bad)
        assert violation_norm(inst, np.array([True, False])) == violation_norm(inst, [1, 0])


class TestSaaObjective:
    def test_zero_price(self):
        inst = small_instance()
        assert dual_saa_objective(inst, [0.0]) == pytest.approx(0.5)  # mean positive part

    def test_single_column_hand_value(self):
        inst = Instance(rewards=[1.0], columns=[[1.0]], capacity=[0.5])
        assert dual_saa_objective(inst, [2.0]) == pytest.approx(1.0)

    def test_negative_price_rejected(self):
        with pytest.raises(ValueError):
            dual_saa_objective(small_instance(), [-0.1])

    def test_matches_python_oracle(self):
        rng = np.random.default_rng(11)
        inst = Instance(rewards=rng.uniform(-2, 2, 12),
                        columns=rng.uniform(-2, 2, (4, 12)),
                        capacity=rng.uniform(2, 6, 4))
        p = rng.uniform(0, 1.5, 4)
        assert dual_saa_objective(inst, p) == pytest.approx(
            saa_objective(inst.rewards, inst.columns, inst.capacity, p), rel=1e-12)

    def test_equals_simplex_dual_objective_over_n(self):
        inst = generate(GeneratorSpec(GeneratorFamily.UNIFORM, n=12, m=4, seed=5))
        sol = solve_relaxation(inst)
        assert dual_saa_objective(inst, sol.duals) == pytest.approx(
            sol.objective / inst.n, abs=1e-8)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.floats(0.0, 1.0))
    def test_convexity(self, seed, lam):
        rng = np.random.default_rng(seed)
        inst = Instance(rewards=rng.uniform(-2, 2, 8),
                        columns=rng.uniform(-2, 2, (3, 8)),
                        capacity=rng.uniform(1, 4, 3))
        p1 = rng.uniform(0, 3, 3)
        p2 = rng.uniform(0, 3, 3)
        mix = lam * p1 + (1 - lam) * p2
        lhs = dual_saa_objective(inst, mix)
        rhs = lam * dual_saa_objective(inst, p1) + (1 - lam) * dual_saa_objective(inst, p2)
        assert lhs <= rhs + 1e-9


class TestStepSchedule:
    def test_schedule_values(self):
        assert StepSchedule.SQRT_N.gamma(3, 16) == pytest.approx(0.25)
        assert StepSchedule.SQRT_T.gamma(4, 16) == pytest.approx(0.5)
        assert StepSchedule.UNIT.gamma(9, 16) == 1.0


class TestPriceNormBound:
    def test_hand_value(self):
        stats = compute_stats(small_instance())
        # (2*3 + 1*(2 + 0.5)^2) / 0.5 + 1*(2 + 0.5)
        assert price_norm_bound(stats, 1) == pytest.approx((6 + 6.25) / 0.5 + 2.5)


def _round_trip(path, inst):
    write_mknap(path, [(inst, None)])
    [(again, optimum)] = read_mknap(path)
    assert optimum is None
    return again


class TestSerialization:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(13)
        inst = Instance(rewards=rng.uniform(-5, 5, 7),
                        columns=rng.standard_normal((3, 7)),
                        capacity=rng.uniform(0.5, 3.0, 3))
        again = _round_trip(tmp_path / "inst.txt", inst)
        assert np.array_equal(again.rewards, inst.rewards)
        assert np.array_equal(again.columns, inst.columns)
        assert np.array_equal(again.capacity, inst.capacity)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_round_trip_random(self, tmp_path_factory, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 8))
        m = int(rng.integers(1, 4))
        inst = Instance(rewards=rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8),
                        columns=rng.standard_normal((m, n)),
                        capacity=rng.uniform(0.01, 100.0, m))
        again = _round_trip(tmp_path_factory.getbasetemp() / "inst.txt", inst)
        assert np.array_equal(again.rewards, inst.rewards)
        assert np.array_equal(again.columns, inst.columns)
        assert np.array_equal(again.capacity, inst.capacity)

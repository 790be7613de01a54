import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onlinelp import algorithms, native
from onlinelp.algorithms import (
    AlgorithmConfig,
    AlgorithmKind,
    repair_feasibility,
    run_dla,
    run_multi_soa,
    run_one_pass,
    run_pbd,
    run_prefix_lp,
    run_sfa,
    run_sna,
    run_soa,
)
from onlinelp.core import (
    Instance,
    MultiInstance,
    StepSchedule,
    violation_norm,
)
from onlinelp.generators import (
    GeneratorFamily,
    GeneratorSpec,
    PermutationPlan,
    generate,
    permute,
)
from onlinelp.simplex import solve_scaled

from instance_bounds import compute_stats, price_norm_bound
from oracles import subgradient_price_cap, reference_one_pass


def soa_cfg(schedule=StepSchedule.SQRT_N):
    return AlgorithmConfig(AlgorithmKind.SOA, schedule)


DLA, PBD = AlgorithmConfig(AlgorithmKind.DLA), AlgorithmConfig(AlgorithmKind.PBD)


def uniform_instance(n, m, seed):
    return generate(GeneratorSpec(GeneratorFamily.UNIFORM, n=n, m=m, seed=seed))


def assert_trace_consistent(inst, trace):
    x = (np.asarray(trace.decisions) == 1).astype(float) if trace.decisions.max(initial=0) <= 1 \
        else None
    assert x is not None
    assert trace.objective == pytest.approx(float(inst.rewards @ x), rel=1e-9, abs=1e-12)


def assert_price_cap(inst, trace):
    cap = subgradient_price_cap(inst.rewards, inst.columns, inst.capacity)
    assert trace.max_dual_norm <= cap


class TestConfigValidation:
    def test_subgradient_kinds_need_schedule(self):
        for kind in (AlgorithmKind.SOA, AlgorithmKind.SFA, AlgorithmKind.SNA):
            with pytest.raises(ValueError):
                AlgorithmConfig(kind)

    def test_lp_kinds_reject_schedule(self):
        with pytest.raises(ValueError):
            AlgorithmConfig(AlgorithmKind.DLA, StepSchedule.SQRT_T)

    def test_multi_only_sqrt_n(self):
        with pytest.raises(ValueError):
            AlgorithmConfig(AlgorithmKind.MULTI_SOA, StepSchedule.SQRT_T)
        AlgorithmConfig(AlgorithmKind.MULTI_SOA, StepSchedule.SQRT_N)

    def test_kind_mismatch(self):
        inst = uniform_instance(4, 2, 0)
        with pytest.raises(ValueError):
            run_sfa(inst, soa_cfg())


class TestRunSoa:
    def test_single_step_accept(self):
        inst = Instance(rewards=[1.0], columns=[[1.0]], capacity=[0.5])
        trace = run_soa(inst, soa_cfg(StepSchedule.UNIT))
        assert list(trace.decisions) == [1]
        assert trace.final_prices[0] == pytest.approx(0.5)

    def test_single_step_reject_projects_to_zero(self):
        inst = Instance(rewards=[-1.0], columns=[[1.0]], capacity=[0.5])
        trace = run_soa(inst, soa_cfg(StepSchedule.UNIT))
        assert list(trace.decisions) == [0]
        assert trace.final_prices[0] == 0.0

    def test_matches_straight_line_reference(self):
        inst = uniform_instance(6, 2, 42)
        trace = run_soa(inst, soa_cfg(StepSchedule.SQRT_N))
        gammas = [1.0 / math.sqrt(6)] * 6
        cols = [list(inst.columns[:, j]) for j in range(6)]
        ref_dec, ref_p, ref_hist = reference_one_pass(inst.rewards, cols, inst.capacity, gammas)
        assert list(trace.decisions) == ref_dec
        np.testing.assert_allclose(trace.final_prices, ref_p, atol=1e-12)
        assert trace.max_dual_norm == pytest.approx(
            max(math.sqrt(sum(v * v for v in prices)) for prices in ref_hist), abs=1e-12)

    def test_sqrt_t_reference(self):
        inst = generate(GeneratorSpec(GeneratorFamily.GAUSSIAN, n=9, m=3, seed=4))
        trace = run_soa(inst, soa_cfg(StepSchedule.SQRT_T))
        gammas = [1.0 / math.sqrt(t) for t in range(1, 10)]
        cols = [list(inst.columns[:, j]) for j in range(9)]
        ref_dec, ref_p, _ = reference_one_pass(inst.rewards, cols, inst.capacity, gammas)
        assert list(trace.decisions) == ref_dec
        np.testing.assert_allclose(trace.final_prices, ref_p, atol=1e-12)

    def test_deterministic(self):
        inst = uniform_instance(50, 4, 5)
        t1 = run_soa(inst, soa_cfg())
        t2 = run_soa(inst, soa_cfg())
        assert np.array_equal(t1.decisions, t2.decisions)
        assert t1.objective == t2.objective
        assert np.array_equal(t1.final_prices, t2.final_prices)

    def test_trace_consistency_and_price_cap(self):
        for seed in range(5):
            inst = uniform_instance(80, 3, seed)
            trace = run_soa(inst, soa_cfg())
            assert_trace_consistent(inst, trace)
            assert_price_cap(inst, trace)

    def test_telescoping_consumption_bound(self):
        # consumption <= capacity + sqrt(n) * final prices, per coordinate
        for seed in range(5):
            inst = uniform_instance(64, 4, 100 + seed)
            trace = run_soa(inst, soa_cfg(StepSchedule.SQRT_N))
            bound = inst.capacity + math.sqrt(inst.n) * trace.final_prices
            assert (inst.columns @ trace.decisions.astype(float) <= bound + 1e-6).all()


class TestRunSfa:
    def test_output_always_feasible(self):
        for seed in range(8):
            inst = uniform_instance(60, 3, seed)
            trace = run_sfa(inst, AlgorithmConfig(AlgorithmKind.SFA, StepSchedule.SQRT_T))
            assert violation_norm(inst, trace.decisions) == 0.0
            assert_trace_consistent(inst, trace)
            assert_price_cap(inst, trace)

    def test_identical_to_soa_when_gate_never_binds(self):
        # huge capacity: the gate can never block
        rng = np.random.default_rng(3)
        inst = Instance(rewards=rng.uniform(0, 2, 30),
                        columns=rng.uniform(0, 2, (2, 30)),
                        capacity=[300.0, 300.0])
        soa = run_soa(inst, soa_cfg(StepSchedule.SQRT_T))
        sfa = run_sfa(inst, AlgorithmConfig(AlgorithmKind.SFA, StepSchedule.SQRT_T))
        assert np.array_equal(soa.decisions, sfa.decisions)
        assert np.array_equal(soa.final_prices, sfa.final_prices)

    def test_three_step_gate_and_tentative_driven_prices(self):
        # capacity 2, three unit columns: the third acceptance is blocked but
        # the price update keeps following the tentative decisions
        inst = Instance(rewards=[1.0, 1.0, 1.0],
                        columns=[[1.0, 1.0, 1.0]],
                        capacity=[2.0])
        trace = run_sfa(inst, AlgorithmConfig(AlgorithmKind.SFA, StepSchedule.SQRT_T))
        assert list(trace.decisions) == [1, 1, 0]
        gammas = [1.0 / math.sqrt(t) for t in range(1, 4)]
        ref_dec, ref_p, _ = reference_one_pass(
            inst.rewards, [[1.0], [1.0], [1.0]], inst.capacity, gammas, gate=True)
        assert list(trace.decisions) == ref_dec
        np.testing.assert_allclose(trace.final_prices, ref_p, atol=1e-12)
        # prices moved three times by gamma * (1 - 2/3): the blocked step still updated
        expected = 0.0
        for g in gammas:
            expected = max(expected + g * (1.0 - 2.0 / 3.0), 0.0)
        assert trace.final_prices[0] == pytest.approx(expected, abs=1e-12)

    def test_matches_reference_on_random_data(self):
        inst = uniform_instance(40, 2, 9)
        trace = run_sfa(inst, AlgorithmConfig(AlgorithmKind.SFA, StepSchedule.SQRT_N))
        gammas = [1.0 / math.sqrt(40)] * 40
        cols = [list(inst.columns[:, j]) for j in range(40)]
        ref_dec, ref_p, _ = reference_one_pass(inst.rewards, cols, inst.capacity, gammas, gate=True)
        assert list(trace.decisions) == ref_dec
        np.testing.assert_allclose(trace.final_prices, ref_p, atol=1e-12)


class TestRunSna:
    def test_first_step_targets_remaining_budget(self):
        inst = Instance(rewards=[1.0, 1.0], columns=[[1.0, 1.0]], capacity=[1.0])
        trace = run_sna(inst, AlgorithmConfig(AlgorithmKind.SNA, StepSchedule.UNIT))
        # step 1 accepts at zero price; b_1 = 0, target 0/(2-1) = 0, so p jumps by a_1
        assert list(trace.decisions)[:1] == [1]
        assert trace.final_prices[0] == pytest.approx(1.0)

    def test_reject_everything_keeps_zero_prices(self):
        rng = np.random.default_rng(2)
        inst = Instance(rewards=-rng.uniform(0.1, 1, 12),
                        columns=rng.uniform(0, 1, (2, 12)),
                        capacity=[4.0, 6.0])
        trace = run_sna(inst, AlgorithmConfig(AlgorithmKind.SNA, StepSchedule.SQRT_T))
        assert trace.objective == 0.0
        assert (trace.final_prices == 0.0).all()
        assert trace.max_dual_norm == 0.0

    def test_matches_straight_line_reference(self):
        inst = uniform_instance(8, 2, 77)
        trace = run_sna(inst, AlgorithmConfig(AlgorithmKind.SNA, StepSchedule.SQRT_T))
        gammas = [1.0 / math.sqrt(t) for t in range(1, 9)]
        cols = [list(inst.columns[:, j]) for j in range(8)]
        ref_dec, ref_p, _ = reference_one_pass(
            inst.rewards, cols, inst.capacity, gammas, nonstationary=True)
        assert list(trace.decisions) == ref_dec
        np.testing.assert_allclose(trace.final_prices, ref_p, atol=1e-12)

    def test_needs_two_steps(self):
        inst = Instance(rewards=[1.0], columns=[[1.0]], capacity=[0.5])
        with pytest.raises(ValueError):
            run_sna(inst, AlgorithmConfig(AlgorithmKind.SNA, StepSchedule.SQRT_T))


class TestRunMultiSoa:
    def test_k1_reduces_to_soa(self):
        for seed in range(6):
            inst = uniform_instance(50, 3, 200 + seed)
            minst = MultiInstance.from_instance(inst)
            soa = run_soa(inst, soa_cfg(StepSchedule.SQRT_N))
            multi = run_multi_soa(minst, AlgorithmConfig(
                AlgorithmKind.MULTI_SOA, StepSchedule.SQRT_N), rng_seed=seed)
            assert np.array_equal(np.asarray(soa.decisions), np.asarray(multi.decisions))
            assert np.array_equal(soa.final_prices, multi.final_prices)
            assert soa.objective == multi.objective

    def test_all_dominated_rejects_and_price_drops(self):
        minst = MultiInstance(reward_blocks=[[-1.0, -2.0]],
                              column_blocks=[[[1.0, 1.0]]],
                              capacity=[0.5])
        trace = run_multi_soa(minst, AlgorithmConfig(AlgorithmKind.MULTI_SOA, StepSchedule.SQRT_N))
        assert list(trace.decisions) == [0]
        assert (trace.final_prices == 0.0).all()

    def test_chooses_best_alternative(self):
        minst = MultiInstance(reward_blocks=[[1.0, 3.0, 2.0]],
                              column_blocks=[[[1.0, 1.0, 1.0]]],
                              capacity=[0.5])
        trace = run_multi_soa(minst, AlgorithmConfig(AlgorithmKind.MULTI_SOA, StepSchedule.SQRT_N))
        assert list(trace.decisions) == [2]  # 1-based alternative index
        assert trace.objective == pytest.approx(3.0)

    def test_tie_breaking_frequencies(self):
        minst = MultiInstance(reward_blocks=[[1.0, 1.0, 0.25]],
                              column_blocks=[[[0.0, 0.0, 0.0]]],
                              capacity=[1.0])
        counts = {1: 0, 2: 0}
        draws = 10_000
        # one batch row per seed; every row is its one-row call (TestRunOnePass)
        [traces] = run_one_pass([minst] * draws, [AlgorithmConfig.parse("multisoa")],
                                [range(draws)])
        for trace in traces:
            counts[int(trace.decisions[0])] += 1
        assert counts[1] + counts[2] == draws
        assert abs(counts[1] / draws - 0.5) <= 0.02

    def test_price_cap_multi(self):
        rng = np.random.default_rng(6)
        minst = MultiInstance(reward_blocks=rng.uniform(0, 2, (40, 3)),
                              column_blocks=rng.uniform(0, 2, (40, 2, 3)),
                              capacity=rng.uniform(15, 25, 2))
        trace = run_multi_soa(minst, AlgorithmConfig(AlgorithmKind.MULTI_SOA, StepSchedule.SQRT_N))
        r_bar = float(np.abs(minst.reward_blocks).max())
        a_bar = float(np.abs(minst.column_blocks).max())
        d = minst.per_column_budget
        cap = (2 * r_bar + 2 * (a_bar + d.max()) ** 2) / d.min() + 2 * (a_bar + d.max())
        assert trace.max_dual_norm <= cap


# every one-pass kind with a schedule it admits, and its single-trial entry point
MIXED_CONFIGS = (
    (AlgorithmKind.SOA, StepSchedule.SQRT_T, run_soa),
    (AlgorithmKind.SFA, StepSchedule.SQRT_N, run_sfa),
    (AlgorithmKind.SNA, StepSchedule.SQRT_T, run_sna),
    (AlgorithmKind.MULTI_SOA, StepSchedule.SQRT_N, run_multi_soa),
    (AlgorithmKind.SOA, StepSchedule.UNIT, run_soa),
    (AlgorithmKind.SFA, StepSchedule.SQRT_T, run_sfa),
)


def mixed_batch(instances):
    configs = [AlgorithmConfig(kind, sched) for kind, sched, _ in MIXED_CONFIGS]
    seeds = [[100 * i + j for j in range(len(instances))] for i in range(len(configs))]
    return run_one_pass(instances, configs, seeds), seeds


def traces_identical(a, b):
    assert np.array_equal(a.decisions, b.decisions)
    assert np.float64(a.objective).tobytes() == np.float64(b.objective).tobytes()
    assert (a.final_prices is None) == (b.final_prices is None)
    if a.final_prices is not None:
        assert a.final_prices.tobytes() == b.final_prices.tobytes()
    assert np.float64(a.max_dual_norm).tobytes() == np.float64(b.max_dual_norm).tobytes()


class TestRunOnePass:
    def test_mixed_batch_matches_reference_row_by_row(self):
        n = 40
        instances = [uniform_instance(n, 3, 500 + j) for j in range(4)]
        instances.append(generate(GeneratorSpec(GeneratorFamily.GAUSSIAN, n=n, m=3, seed=9)))
        batch, _ = mixed_batch(instances)
        for (kind, sched, _), row in zip(MIXED_CONFIGS, batch):
            gammas = [sched.gamma(t, n) for t in range(1, n + 1)]
            for inst, trace in zip(instances, row):
                cols = [list(inst.columns[:, j]) for j in range(n)]
                ref_dec, ref_p, ref_hist = reference_one_pass(
                    inst.rewards, cols, inst.capacity, gammas,
                    gate=kind is AlgorithmKind.SFA, nonstationary=kind is AlgorithmKind.SNA)
                assert list(trace.decisions) == ref_dec
                np.testing.assert_allclose(trace.final_prices, ref_p, atol=1e-12)
                norms = [math.sqrt(sum(v * v for v in prices)) for prices in ref_hist]
                assert trace.max_dual_norm == pytest.approx(max(norms), abs=1e-12)
                assert_trace_consistent(inst, trace)

    def test_rows_do_not_depend_on_the_batch(self):
        instances = [uniform_instance(60, 4, 700 + j) for j in range(5)]
        batch, seeds = mixed_batch(instances)
        for i, (kind, sched, run) in enumerate(MIXED_CONFIGS):
            for j, inst in enumerate(instances):
                cfg = AlgorithmConfig(kind, sched)
                if kind is AlgorithmKind.MULTI_SOA:
                    single = run(MultiInstance.from_instance(inst), cfg, seeds[i][j])
                else:
                    single = run(inst, cfg)
                traces_identical(batch[i][j], single)

    def test_step_sizes_are_the_per_step_formula(self, monkeypatch):
        # The kernel takes every step size of a schedule from one numpy
        # expression.  sqrt and division are correctly rounded, so each is
        # bitwise the per-step float formula, and so is every trace.
        def per_step(schedule, t, n):
            t, n = np.broadcast_arrays(t, n)
            return np.array([{StepSchedule.SQRT_N: 1.0 / math.sqrt(length),
                              StepSchedule.SQRT_T: 1.0 / math.sqrt(s),
                              StepSchedule.UNIT: 1.0}[schedule]
                             for s, length in zip(t.flat, n.flat)]).reshape(t.shape)

        for n in (1, 2, 7, 1000, 100_000):
            steps = np.arange(1.0, n + 1)
            for schedule in StepSchedule:
                vector = np.broadcast_to(schedule.gamma(steps, n), n)
                assert vector.tobytes() == np.array(per_step(schedule, steps, n)).tobytes()
        instances = [uniform_instance(400, 3, 900 + j) for j in range(3)]
        batch, _ = mixed_batch(instances)
        monkeypatch.setattr(StepSchedule, "gamma", per_step)
        again, _ = mixed_batch(instances)
        assert {sched for _, sched, _ in MIXED_CONFIGS} == set(StepSchedule)
        for row, row_again in zip(batch, again):
            for trace, trace_again in zip(row, row_again):
                traces_identical(trace, trace_again)

    def test_multi_choice_batch_keeps_each_rows_tie_stream(self):
        # alternative 2 duplicates alternative 1 on every other item, so exact
        # ties for the best value, and the draws that break them, are common
        rng = np.random.default_rng(12)
        minsts = []
        for _ in range(4):
            rewards = rng.uniform(-0.5, 2, (50, 3))
            blocks = rng.uniform(0, 2, (50, 2, 3))
            rewards[::2, 1] = rewards[::2, 0]
            blocks[::2, :, 1] = blocks[::2, :, 0]
            minsts.append(MultiInstance(reward_blocks=rewards, column_blocks=blocks,
                                        capacity=[20.0, 25.0]))
        cfg = AlgorithmConfig(AlgorithmKind.MULTI_SOA, StepSchedule.SQRT_N)
        seeds = [[31, 32, 33, 34], [41, 42, 43, 44]]
        batch = run_one_pass(minsts, [cfg, cfg], seeds)
        for i in range(2):
            for j, minst in enumerate(minsts):
                single = run_multi_soa(minst, cfg, rng_seed=seeds[i][j])
                traces_identical(batch[i][j], single)

    def test_rejects_mixed_shapes_and_contradictory_policies(self):
        soa = soa_cfg()
        pair = [uniform_instance(10, 2, 0), uniform_instance(10, 2, 1)]
        multi = MultiInstance.from_instance(uniform_instance(10, 2, 0))
        wide = MultiInstance(reward_blocks=np.ones((10, 2)), column_blocks=np.ones((10, 2, 2)),
                             capacity=[5.0, 5.0])
        for mixed in ([uniform_instance(10, 2, 0), uniform_instance(12, 3, 0)], [multi, wide]):
            with pytest.raises(ValueError, match="share m and k"):
                run_one_pass(mixed, [soa], [[0, 0]])
        with pytest.raises(ValueError, match="not a one-pass"):
            run_one_pass(pair, [soa, AlgorithmConfig(AlgorithmKind.DLA)], [[0, 0], [0, 0]])
        # one list of seeds per config, each with one seed per instance; a
        # plain (k = 1) batch never draws, so only this check sees the shape
        for seeds in ([[0, 0]], [[0, 0], [0]], [[0, 0, 0], [0, 0]]):
            with pytest.raises(ValueError, match="one seed per"):
                run_one_pass(pair, [soa, soa], seeds)


# every one-pass kind under every schedule it admits
EVERY_CONFIG = tuple(AlgorithmConfig(kind, sched) for kind in (
    AlgorithmKind.SOA, AlgorithmKind.SFA, AlgorithmKind.SNA) for sched in StepSchedule) + (
    AlgorithmConfig(AlgorithmKind.MULTI_SOA, StepSchedule.SQRT_N),)


@pytest.fixture(params=["default", "numpy"])
def engine(request, monkeypatch):
    """The engine ``native.engine`` selects, or the numpy kernel forced for every batch."""
    if request.param == "numpy":
        monkeypatch.setattr(native, "engine", lambda k, m: "numpy: forced")
    return request.param


def mixed_n_values():
    # runs that end just before, at and just after a kernel chunk's edge, and
    # runs that span several chunks
    chunk = algorithms._CHUNK
    return (2, 7, chunk - 1, chunk, chunk + 1, 300)


class TestMixedLengthBatch:
    """Instances of different n share one kernel call; each row is its own one-row call."""

    @pytest.mark.parametrize("m", [3, 17])
    def test_every_row_is_its_one_row_call_and_the_reference(self, engine, m):
        assert mixed_n_values() == (2, 7, 63, 64, 65, 300)
        instances = []
        for n in mixed_n_values():
            instances.append(uniform_instance(n, m, 40 + n))
            instances.append(generate(GeneratorSpec(GeneratorFamily.GAUSSIAN, n=n, m=m,
                                                        seed=50 + n)))
        # the kernel orders the batch by n itself
        instances = [instances[j] for j in np.random.default_rng(3).permutation(len(instances))]
        seeds = [[1000 * i + j for j in range(len(instances))] for i in range(len(EVERY_CONFIG))]
        batch = run_one_pass(instances, EVERY_CONFIG, seeds)
        for i, cfg in enumerate(EVERY_CONFIG):
            for j, inst in enumerate(instances):
                trace = batch[i][j]
                [[single]] = run_one_pass([inst], [cfg], [[seeds[i][j]]])
                traces_identical(trace, single)
                n = inst.n
                gammas = [cfg.schedule.gamma(t, n) for t in range(1, n + 1)]
                cols = [list(inst.columns[:, t]) for t in range(n)]
                ref_dec, ref_p, ref_hist = reference_one_pass(
                    inst.rewards, cols, inst.capacity, gammas,
                    gate=cfg.kind is AlgorithmKind.SFA, nonstationary=cfg.kind is AlgorithmKind.SNA)
                assert list(trace.decisions) == ref_dec, (cfg.label, n)
                np.testing.assert_allclose(trace.final_prices, ref_p, atol=1e-12)
                norms = [math.sqrt(sum(v * v for v in prices)) for prices in ref_hist]
                assert trace.max_dual_norm == pytest.approx(max(norms), abs=1e-12)
                assert_trace_consistent(inst, trace)

    def test_multi_choice_rows_with_ties_are_their_one_row_calls(self):
        # alternative 2 duplicates alternative 1 on every other item, so ties
        # for the best value, and the draws that break them, are common
        rng = np.random.default_rng(13)
        minsts = []
        for n in mixed_n_values() + (65, 2):
            rewards = rng.uniform(-0.5, 2, (n, 3))
            blocks = rng.uniform(0, 2, (n, 2, 3))
            rewards[::2, 1] = rewards[::2, 0]
            blocks[::2, :, 1] = blocks[::2, :, 0]
            minsts.append(MultiInstance(reward_blocks=rewards, column_blocks=blocks,
                                        capacity=[0.5 * n, 0.6 * n]))
        configs = [AlgorithmConfig.parse(token) for token in ("multisoa", "multisoa", "sfa/sqrt_t",
                                                              "sna/sqrt_n")]
        seeds = [[97 * i + j for j in range(len(minsts))] for i in range(len(configs))]
        batch = run_one_pass(minsts, configs, seeds)
        draws = 0
        for i, cfg in enumerate(configs):
            for j, minst in enumerate(minsts):
                [[single]] = run_one_pass([minst], [cfg], [[seeds[i][j]]])
                traces_identical(batch[i][j], single)
                draws += int((batch[i][j].decisions == 2).sum())
        assert draws > 0
        # the tie streams are the rows' own: other seeds change the picks
        other = run_one_pass(minsts, configs[:1], [[s + 1 for s in seeds[0]]])
        assert any(not np.array_equal(a.decisions, b.decisions)
                   for a, b in zip(other[0], batch[0]))


def tight_instance(n, m, seed):
    # SOA overshoots early: high rewards, capacity a tenth of the columns'
    # mean usage, and negative entries that make room again, so the gate
    # alternates between refusing and realizing
    rng = np.random.default_rng(seed)
    return Instance(rewards=rng.uniform(1, 2, n), columns=rng.uniform(-0.3, 1, (m, n)),
                    capacity=np.full(m, 0.035 * n))


def tight_multi_instance(n, m, seed):
    # alternative 2 duplicates alternative 1 on every other item, so ties
    # for the best value, and the draws that break them, are common
    rng = np.random.default_rng(seed)
    rewards = rng.uniform(-0.5, 2, (n, 3))
    blocks = rng.uniform(-0.3, 2, (n, m, 3))
    rewards[::2, 1] = rewards[::2, 0]
    blocks[::2, :, 1] = blocks[::2, :, 0]
    return MultiInstance(reward_blocks=rewards, column_blocks=blocks, capacity=np.full(m, 0.1 * n))


SFA_CONFIGS = tuple(AlgorithmConfig(AlgorithmKind.SFA, sched) for sched in StepSchedule)


class TestGate:
    """SFA realizes its row's tentative accepts only while they fit, step by step."""

    def test_sfa_rows_are_their_one_row_calls_and_the_reference(self, engine):
        soa_twins = tuple(soa_cfg(sched) for sched in StepSchedule)
        refused = 0
        for m, configs in itertools.product((1, 3, 17), (
                SFA_CONFIGS, SFA_CONFIGS + soa_twins, soa_twins[::-1] + SFA_CONFIGS[:1])):
            # two instances of every n, in no particular order: the kernel sorts them
            instances = [tight_instance(n, m, seed + n + m) for n in mixed_n_values()
                         for seed in (60, 70)]
            instances = [instances[j] for j in np.random.default_rng(m).permutation(len(instances))]
            seeds = [[7 * i + j for j in range(len(instances))] for i in range(len(configs))]
            batch = run_one_pass(instances, configs, seeds)
            for cfg, row in zip(configs, batch):
                for inst, trace in zip(instances, row):
                    [[single]] = run_one_pass([inst], [cfg], [[0]])
                    traces_identical(trace, single)
                    n = inst.n
                    gammas = [cfg.schedule.gamma(t, n) for t in range(1, n + 1)]
                    cols = [list(inst.columns[:, t]) for t in range(n)]
                    gate = cfg.kind is AlgorithmKind.SFA
                    ref_dec, ref_p, _ = reference_one_pass(inst.rewards, cols, inst.capacity,
                                                           gammas, gate=gate)
                    assert list(trace.decisions) == ref_dec, (cfg.label, n)
                    np.testing.assert_allclose(trace.final_prices, ref_p, atol=1e-12)
                    if gate:
                        assert violation_norm(inst, trace.decisions) == 0.0
                        tentative, _, _ = reference_one_pass(inst.rewards, cols, inst.capacity,
                                                             gammas)
                        refused += sum(tentative) - sum(ref_dec)
        assert refused > 500

    @pytest.mark.parametrize("m", [1, 17])
    def test_an_accept_that_fills_the_capacity_exactly_is_realized(self, engine, m):
        # unit usage and capacity 2 in every coordinate: all three columns are
        # accepted tentatively, the second fills the capacity exactly and is
        # realized, and the third is refused
        inst = Instance(rewards=[100.0] * 3, columns=np.ones((m, 3)), capacity=np.full(m, 2.0))
        for cfg in SFA_CONFIGS:
            assert list(run_sfa(inst, cfg).decisions) == [1, 1, 0]
            assert list(run_soa(inst, soa_cfg(cfg.schedule)).decisions) == [1, 1, 1]

    def test_multi_choice_sfa_rows_realize_their_own_picks(self):
        # with k > 1 every config keeps its own row and tie stream; an SFA row
        # realizes the picks of an SOA row on the same seed while they fit
        minsts = [tight_multi_instance(n, 2, 80 + n) for n in mixed_n_values() + (65, 2)]
        configs = SFA_CONFIGS + (AlgorithmConfig.parse("multisoa"),) + tuple(
            soa_cfg(sched) for sched in StepSchedule)
        # each SFA row and its SOA twin of the same schedule draw from equal seeds
        seeds = [[31 * tag + j for j in range(len(minsts))] for tag in (0, 1, 2, 3, 0, 1, 2)]
        batch = run_one_pass(minsts, configs, seeds)
        refused = draws = 0
        for i, cfg in enumerate(configs):
            for j, minst in enumerate(minsts):
                [[single]] = run_one_pass([minst], [cfg], [[seeds[i][j]]])
                traces_identical(batch[i][j], single)
                draws += int((batch[i][j].decisions == 2).sum())
        for sfa, soa in zip(batch[:3], batch[4:]):
            for minst, gated, free in zip(minsts, sfa, soa):
                np.testing.assert_array_equal(gated.final_prices, free.final_prices)
                used = np.zeros(minst.m)
                for t, pick in enumerate(free.decisions):
                    usage = minst.column_blocks[t, :, pick - 1]
                    fits = pick > 0 and (used + usage <= minst.capacity).all()
                    assert gated.decisions[t] == (pick if fits else 0)
                    used = used + usage if fits else used
                    refused += pick > 0 and not fits
        assert draws > 0 and refused > 50


class TestSharedRows:
    """With k = 1, configs that move the same prices share a row."""

    def test_multisoa_is_soa_sqrt_n(self):
        instances = [uniform_instance(n, 3, 10 + n) for n in mixed_n_values()]
        multi, soa = AlgorithmConfig.parse("multisoa"), soa_cfg(StepSchedule.SQRT_N)
        batch = run_one_pass(instances, [multi, soa_cfg(StepSchedule.SQRT_T), soa],
                             [[1] * len(instances), [2] * len(instances), [3] * len(instances)])
        for a, b in zip(batch[0], batch[2]):
            traces_identical(a, b)

    def test_sfa_moves_its_soa_twins_prices(self):
        instances = [tight_instance(n, 3, 20 + n) for n in mixed_n_values()]
        for sched in StepSchedule:
            [soa, sfa] = run_one_pass(instances, [soa_cfg(sched), AlgorithmConfig(
                AlgorithmKind.SFA, sched)], [[0] * len(instances)] * 2)
            assert any(not np.array_equal(a.decisions, b.decisions) for a, b in zip(soa, sfa))
            for a, b in zip(soa, sfa):
                assert a.final_prices.tobytes() == b.final_prices.tobytes()
                assert np.float64(a.max_dual_norm).tobytes() == \
                    np.float64(b.max_dual_norm).tobytes()

    def test_a_config_listed_twice_gets_identical_traces(self):
        instances = [tight_instance(n, 2, 30 + n) for n in (7, 65, 300)]
        for token in ("soa/sqrt_t", "sfa/unit", "sna/sqrt_n", "multisoa"):
            cfg = AlgorithmConfig.parse(token)
            [first, again] = run_one_pass(instances, [cfg, cfg], [[1, 2, 3], [4, 5, 6]])
            for a, b in zip(first, again):
                traces_identical(a, b)

    def test_shared_traces_are_read_only(self):
        roomy = uniform_instance(80, 2, 5)
        instances = [dataclasses.replace(roomy, capacity=roomy.capacity * 10),
                     tight_instance(80, 2, 5)]
        batch = run_one_pass(instances, [soa_cfg(), AlgorithmConfig.parse("sfa/sqrt_n"),
                                         AlgorithmConfig.parse("multisoa")], [[0, 0]] * 3)
        # the three configs share a row; the gate binds on the tight instance only
        assert not np.array_equal(batch[0][1].decisions, batch[1][1].decisions)
        for trace in (batch[0][0], batch[1][0], batch[1][1], batch[2][1]):
            for array in (trace.decisions, trace.final_prices):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 1


class TestReadOnlyTraces:
    def test_every_returned_trace_is_read_only(self):
        # The configs of a kernel row share its final prices as one view, so
        # a write through one trace would change the others.
        instances = [tight_instance(n, 2, 90 + n) for n in (7, 65)]
        minsts = [tight_multi_instance(n, 2, 90 + n) for n in (7, 65)]
        seeds = [[i, i + 1] for i in range(len(EVERY_CONFIG))]
        configs = EVERY_CONFIG + (DLA, PBD)
        assert {cfg.kind for cfg in configs} == set(AlgorithmKind)
        plain = run_one_pass(instances, EVERY_CONFIG, seeds) \
            + run_prefix_lp(instances, [DLA, PBD], [[1, 2], [3, 4]])
        runs = [(cfg, trace) for cfg, row in zip(configs, plain) for trace in row]
        runs += [(cfg, trace) for cfg, row in zip(EVERY_CONFIG, run_one_pass(
            minsts, EVERY_CONFIG, seeds)) for trace in row]
        # every run on the n = 65 instance, repaired: each accepted something
        assert all(row[1].decisions.any() for row in plain)
        runs += [(cfg, repair_feasibility(instances[1], row[1], 5))
                 for cfg, row in zip(configs, plain)]
        for cfg, trace in runs:
            assert (trace.final_prices is None) == (cfg.kind is AlgorithmKind.PBD)
            for array in (trace.decisions, trace.final_prices):
                if array is not None:
                    with pytest.raises(ValueError, match="read-only"):
                        array[0] = 1


def soa_unit(inst):
    return run_soa(inst, soa_cfg(StepSchedule.UNIT))


class TestAcceptRule:
    """SOA and DLA accept a column only if its reward strictly beats its priced usage."""

    @pytest.mark.parametrize("reward, accepted", [(1.0, 1), (0.0, 0), (-0.5, 0)])
    def test_first_column_is_priced_at_zero(self, reward, accepted):
        # a zero reward ties with its zero priced usage and is rejected
        inst = Instance(rewards=[reward, 1.0], columns=[[1.0, 1.0]], capacity=[1.0])
        for engine in (soa_unit, run_dla):
            assert engine(inst).decisions[0] == accepted

    def test_tie_at_a_positive_price_rejects(self):
        # Once the first column is accepted, SOA's unit step prices the
        # resource at 1 - 1/2 and DLA's first prefix LP at 1.  The second
        # column's reward equals its priced usage, then beats it by one ulp.
        for engine, tie in ((soa_unit, 1.0), (run_dla, 2.0)):
            for reward, accepted in ((tie, 0), (np.nextafter(tie, np.inf), 1)):
                inst = Instance(rewards=[1.0, reward], columns=[[1.0, 2.0]], capacity=[1.0])
                assert list(engine(inst).decisions) == [1, accepted]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_higher_prices_never_accept_more(self, seed):
        # Rejecting the first column leaves every price at 0 for the second;
        # accepting it can only raise them.  With non-negative usage the
        # second column is then accepted no more often.
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 5))
        columns = rng.uniform(0, 2, (m, 2))
        capacity = rng.uniform(0.2, 4, m)
        reward = float(rng.uniform(-1, 3))
        second = {}
        for first in (-1.0, float(rng.uniform(0.1, 3))):
            inst = Instance(rewards=[first, reward], columns=columns, capacity=capacity)
            second[first > 0] = [engine(inst).decisions[1] for engine in (soa_unit, run_dla)]
        assert all(high <= low for high, low in zip(second[True], second[False]))


class TestRunDla:
    def test_single_column_dual(self):
        inst = Instance(rewards=[1.0], columns=[[1.0]], capacity=[0.5])
        trace = run_dla(inst)
        # first decision at zero prices accepts; final dual prices the 1x1 LP
        assert list(trace.decisions) == [1]
        assert trace.final_prices[0] == pytest.approx(1.0)

    def test_all_negative_rewards(self):
        rng = np.random.default_rng(4)
        inst = Instance(rewards=-rng.uniform(0.5, 2, 10),
                        columns=rng.uniform(0, 1, (2, 10)),
                        capacity=[4.0, 4.0])
        trace = run_dla(inst)
        assert trace.objective == 0.0
        assert (trace.final_prices == 0.0).all()
        assert trace.max_dual_norm == 0.0

    def test_decisions_consistent_with_prefix_duals(self):
        inst = uniform_instance(20, 2, 31)
        trace = run_dla(inst)
        cols = np.ascontiguousarray(inst.columns.T)
        p = np.zeros(2)
        for t in range(1, 21):
            expected = int(inst.rewards[t - 1] > cols[t - 1] @ p)
            assert trace.decisions[t - 1] == expected
            p = solve_scaled(inst, t).duals
        assert_trace_consistent(inst, trace)

    def test_deterministic(self):
        inst = uniform_instance(25, 2, 13)
        assert np.array_equal(run_dla(inst).decisions, run_dla(inst).decisions)


class TestRunPbd:
    def test_degenerate_probabilities(self):
        # capacity so large the prefix optimum is all-ones: accepts surely
        rng = np.random.default_rng(10)
        inst = Instance(rewards=rng.uniform(0.5, 1, 12),
                        columns=rng.uniform(0, 1, (2, 12)),
                        capacity=[200.0, 200.0])
        trace = run_pbd(inst, rng_seed=0)
        assert trace.decisions.sum() == 12
        assert trace.max_dual_norm is None  # PBD keeps no prices
        neg = Instance(rewards=-rng.uniform(0.5, 1, 12),
                       columns=rng.uniform(0, 1, (2, 12)),
                       capacity=[200.0, 200.0])
        trace = run_pbd(neg, rng_seed=0)
        assert trace.decisions.sum() == 0

    def test_half_probability_frequency(self):
        inst = Instance(rewards=[1.0], columns=[[1.0]], capacity=[0.5])
        # one batch row per seed; every row is its one-row call (TestRunPrefixLp)
        [traces] = run_prefix_lp([inst] * 10_000, [PBD], [range(10_000)])
        hits = sum(int(trace.decisions[0]) for trace in traces)
        assert abs(hits / 10_000 - 0.5) <= 0.02

    def test_deterministic_per_seed(self):
        inst = uniform_instance(30, 2, 8)
        a = run_pbd(inst, rng_seed=123)
        b = run_pbd(inst, rng_seed=123)
        assert np.array_equal(a.decisions, b.decisions)
        assert a.objective == b.objective

    def test_seed_actually_matters(self):
        inst = uniform_instance(30, 2, 8)
        base = run_pbd(inst, rng_seed=0).decisions
        assert any(not np.array_equal(run_pbd(inst, rng_seed=s).decisions, base)
                   for s in range(1, 20))


class TestRunPrefixLp:
    def test_shared_pass_matches_single_runs(self):
        for seed in (3, 17):
            inst = uniform_instance(30, 3, seed)
            [dla], [pbd], [pbd2] = run_prefix_lp([inst], [DLA, PBD, PBD], [[5], [41], [42]])
            traces_identical(dla, run_dla(inst))
            for trace, rng_seed in ((pbd, 41), (pbd2, 42)):
                single = run_pbd(inst, rng_seed=rng_seed)
                assert trace.max_dual_norm is None and single.max_dual_norm is None
                traces_identical(trace, single)

    def test_batch_matches_one_instance_passes(self):
        # Each cell of a mixed-n batch gets the traces of its own pass.  The
        # permuted adversarial cells have tied data and degenerate prefix LPs,
        # whose vertex depends on the pivot path, so batching must not change
        # the path.
        configs = [PBD, DLA]
        families = (GeneratorFamily.UNIFORM, GeneratorFamily.GAUSSIAN,
                    GeneratorFamily.TRUNC_CAUCHY, GeneratorFamily.MIXED_FOUR)
        batches = [[generate(GeneratorSpec(family, n=n, m=m, seed=n + m)) for n in (40, 8, 100, 40)]
                   for family in families for m in (1, 3, 5, 10)]
        adversarial = generate(GeneratorSpec(GeneratorFamily.ADVERSARIAL, n=60, m=2, seed=4))
        batches.append([permute(adversarial, PermutationPlan.random(60, seed)) for seed in (5, 6)]
                       + [uniform_instance(n, 2, n) for n in (40, 80)])
        for batch in batches:
            seeds = [[7 * j for j in range(len(batch))], [1000 + j for j in range(len(batch))]]
            traces = run_prefix_lp(batch, configs, seeds)
            for j, inst in enumerate(batch):
                alone = run_prefix_lp([inst], configs, [[row[j]] for row in seeds])
                for row, single in zip(traces, alone):
                    traces_identical(row[j], single[0])

    def test_pbd_decisions_replay_prefix_primals(self):
        inst = uniform_instance(20, 2, 31)
        _, [trace] = run_prefix_lp([inst], [DLA, PBD], [[0], [77]])
        rng = np.random.default_rng(77)
        for t in range(1, 21):
            prob = min(max(float(solve_scaled(inst, t).primal[t - 1]), 0.0), 1.0)
            assert trace.decisions[t - 1] == int(float(rng.random()) < prob)
        assert trace.final_prices is None  # PBD keeps no prices
        assert_trace_consistent(inst, trace)

    def test_warm_pass_matches_cold_solves(self):
        instances = [uniform_instance(60, 3, seed) for seed in (4, 9)]
        instances.append(generate(GeneratorSpec(GeneratorFamily.GAUSSIAN, n=60, m=4, seed=2)))
        for inst in instances:
            [warm_dla], [warm_pbd] = run_prefix_lp([inst], [DLA, PBD], [[0], [19]])
            # the same decisions from a chain of cold solves
            rng = np.random.default_rng(19)
            cols = np.ascontiguousarray(inst.columns.T)
            p = np.zeros(inst.m)
            accepts, draws = np.zeros(inst.n, dtype=np.int8), np.zeros(inst.n, dtype=np.int8)
            for t in range(inst.n):
                accepts[t] = inst.rewards[t] > cols[t] @ p
                cold = solve_scaled(inst, t + 1)
                draws[t] = float(rng.random()) < min(max(float(cold.primal[t]), 0.0), 1.0)
                p = cold.duals
            for warm, decisions in ((warm_dla, accepts), (warm_pbd, draws)):
                assert np.array_equal(warm.decisions, decisions)
                objective = 0.0
                for t in np.flatnonzero(decisions):
                    objective += inst.rewards[t]
                assert warm.objective == objective
            gap = np.abs(warm_dla.final_prices - p).max()
            assert gap <= 1e-9 * (1 + np.abs(p).max())
            assert warm_pbd.final_prices is None

    def test_rejects_other_kinds_and_bad_inputs(self):
        inst = uniform_instance(10, 2, 0)
        for cfg in EVERY_CONFIG:
            with pytest.raises(ValueError, match="not a prefix-LP algorithm"):
                run_prefix_lp([inst], [DLA, cfg], [[0], [0]])
        with pytest.raises(ValueError, match="share m"):
            run_prefix_lp([inst, uniform_instance(10, 3, 0)], [DLA], [[0, 0]])

    def test_both_engines_reject_the_same_malformed_batches(self):
        # one batch contract: at least one instance and one config, and one
        # list of seeds per config with one seed per instance
        inst = uniform_instance(10, 2, 0)
        for run, cfg in ((run_one_pass, soa_cfg()), (run_prefix_lp, PBD)):
            for instances, configs, seeds, match in (
                    ([], [cfg], [[]], "at least one instance and one config"),
                    ([inst], [], [], "at least one instance and one config"),
                    ([inst], [cfg], [[1], [2]], "one seed per"),
                    ([inst], [cfg], [[1, 2]], "one seed per"),
                    ([inst, inst], [cfg, cfg], [[1, 2], [3]], "one seed per")):
                with pytest.raises(ValueError, match=match):
                    run(instances, configs, seeds)


class TestRepairFeasibility:
    def test_removal_count_formula(self):
        # already-feasible trace: the scaled violation clamps to 1 and the
        # removal count follows the printed formula with the instance's own
        # d_lo; at this n it stays below the accept count, so the cap is idle
        n = 2000
        inst = uniform_instance(n, 2, 55)
        trace = run_sfa(inst, AlgorithmConfig(AlgorithmKind.SFA, StepSchedule.SQRT_N))
        n_plus = int((trace.decisions == 1).sum())
        d_lo = compute_stats(inst).d_lo
        repaired = repair_feasibility(inst, trace, rng_seed=1)
        removed = n_plus - int((repaired.decisions == 1).sum())
        expected = math.floor(2 * 1.0 * n_plus * math.log(n) / (d_lo * math.sqrt(n))) + 1
        assert 0 < expected < n_plus
        assert removed == expected

    def test_formula_clamp_to_accept_count(self):
        # tiny accepted set: formula exceeds it, so everything accepted is removed
        inst = Instance(rewards=[1.0] + [-1.0] * 99,
                        columns=np.ones((1, 100)) * 0.1,
                        capacity=[50.0])
        trace = run_soa(inst, soa_cfg(StepSchedule.SQRT_N))
        assert int((trace.decisions == 1).sum()) == 1
        repaired = repair_feasibility(inst, trace, rng_seed=3)
        assert int((repaired.decisions == 1).sum()) == 0

    def test_empty_accept_set_returned_unchanged(self):
        rng = np.random.default_rng(0)
        inst = Instance(rewards=-rng.uniform(0.5, 1, 10),
                        columns=rng.uniform(0, 1, (1, 10)),
                        capacity=[5.0])
        trace = run_soa(inst, soa_cfg(StepSchedule.SQRT_N))
        repaired = repair_feasibility(inst, trace, rng_seed=9)
        assert repaired is trace

    def test_disabled_and_bypass_flags(self):
        # There is no bypass: a feasible trace loses accepted columns too.
        # Turning repair off is the harness's [repair] enabled switch.
        inst = uniform_instance(50, 2, 21)
        trace = run_sfa(inst, AlgorithmConfig(AlgorithmKind.SFA, StepSchedule.SQRT_N))
        assert violation_norm(inst, trace.decisions) == 0.0
        out = repair_feasibility(inst, trace, rng_seed=0)
        assert out.decisions.sum() < trace.decisions.sum()

    def test_objective_and_consumption_recomputed(self):
        inst = uniform_instance(60, 3, 14)
        trace = run_soa(inst, soa_cfg(StepSchedule.SQRT_N))
        repaired = repair_feasibility(inst, trace, rng_seed=5)
        assert_trace_consistent(inst, repaired)
        assert repaired.objective <= trace.objective + 1e-12
        removed = set(np.flatnonzero(trace.decisions).tolist()) \
            - set(np.flatnonzero(repaired.decisions).tolist())
        assert removed  # repair always removes something when accepts exist

    def test_objective_is_the_in_order_sum(self):
        # RunTrace's rule: the objective sums the taken rewards in order, as
        # every other engine's trace does; a dot product rounds differently here
        inst = uniform_instance(2000, 10, 1)
        repaired = repair_feasibility(inst, run_soa(inst, soa_cfg(StepSchedule.SQRT_N)), rng_seed=7)
        total = 0.0
        for j in np.flatnonzero(repaired.decisions):
            total += float(inst.rewards[j])
        assert repaired.objective == total == 521.3399905851778
        assert float(inst.rewards @ repaired.decisions.astype(float)) == 521.3399905851774

    def test_deterministic_per_seed(self):
        inst = uniform_instance(60, 3, 15)
        trace = run_soa(inst, soa_cfg(StepSchedule.SQRT_N))
        a = repair_feasibility(inst, trace, rng_seed=42)
        b = repair_feasibility(inst, trace, rng_seed=42)
        assert np.array_equal(a.decisions, b.decisions)

    def test_nonbinary_trace_rejected(self):
        inst = uniform_instance(20, 2, 16)
        trace = run_soa(inst, soa_cfg(StepSchedule.SQRT_N))
        for bad in (0.5, np.nan, 2.0, -1.0):
            decisions = trace.decisions.astype(float)
            decisions[3] = bad
            with pytest.raises(ValueError, match="binary decision traces"):
                repair_feasibility(inst, dataclasses.replace(trace, decisions=decisions), rng_seed=0)

    def test_small_n_rejected(self):
        inst = uniform_instance(2, 1, 1)
        trace = run_soa(inst, soa_cfg(StepSchedule.SQRT_N))
        with pytest.raises(ValueError):
            repair_feasibility(inst, trace, rng_seed=0)


class TestPriceCapAcrossSchedules:
    def test_unit_schedule_stays_bounded(self):
        for seed in range(4):
            inst = uniform_instance(120, 2, 300 + seed)
            trace = run_soa(inst, soa_cfg(StepSchedule.UNIT))
            assert_price_cap(inst, trace)

    def test_gaussian_data(self):
        for seed in range(4):
            inst = generate(GeneratorSpec(GeneratorFamily.GAUSSIAN, n=100, m=3, seed=seed))
            for schedule in (StepSchedule.SQRT_N, StepSchedule.SQRT_T):
                trace = run_soa(inst, soa_cfg(schedule))
                assert_price_cap(inst, trace)
                stats = compute_stats(inst)
                assert trace.max_dual_norm <= price_norm_bound(stats, inst.m)

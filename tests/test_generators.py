import numpy as np
import pytest

from onlinelp.core import compute_stats, format_instance, parse_instance
from onlinelp.generators import (
    GeneratorFamily,
    GeneratorSpec,
    MknapFormatError,
    PermutationPlan,
    gen_adversarial,
    gen_gaussian,
    gen_mixed_four_groups,
    gen_trunc_cauchy,
    gen_uniform,
    generate,
    permute,
    read_mknap,
)
from onlinelp.simplex import solve_relaxation


def spec(family, n=40, m=4, seed=0, **kw):
    return GeneratorSpec(family=family, n=n, m=m, seed=seed, **kw)


class TestSpecValidation:
    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            GeneratorSpec(GeneratorFamily.UNIFORM, n=0, m=1, seed=0)

    def test_bad_budget_range(self):
        with pytest.raises(ValueError):
            GeneratorSpec(GeneratorFamily.UNIFORM, n=2, m=1, seed=0, d_range=(0.0, 0.5))
        with pytest.raises(ValueError):
            GeneratorSpec(GeneratorFamily.UNIFORM, n=2, m=1, seed=0, d_range=(0.7, 0.5))

    def test_family_mismatch(self):
        with pytest.raises(ValueError):
            gen_uniform(spec(GeneratorFamily.GAUSSIAN))


class TestUniform:
    def test_ranges_and_budget(self):
        inst = gen_uniform(spec(GeneratorFamily.UNIFORM, n=200, m=6, seed=3))
        stats = compute_stats(inst)
        assert 0.0 <= stats.a_bar <= 2.0
        assert 0.0 <= stats.r_bar <= 2.0
        assert stats.d_lo >= 1.0 / 3.0 - 1e-9
        assert stats.d_hi <= 2.0 / 3.0 + 1e-9

    def test_seed_determinism(self):
        a = gen_uniform(spec(GeneratorFamily.UNIFORM, seed=11))
        b = gen_uniform(spec(GeneratorFamily.UNIFORM, seed=11))
        assert np.array_equal(a.rewards, b.rewards)
        assert np.array_equal(a.columns, b.columns)
        assert np.array_equal(a.capacity, b.capacity)
        c = gen_uniform(spec(GeneratorFamily.UNIFORM, seed=12))
        assert not np.array_equal(a.columns, c.columns)

    def test_law_of_large_numbers(self):
        inst = gen_uniform(spec(GeneratorFamily.UNIFORM, n=10_000, m=10, seed=7))
        assert abs(float(inst.columns.mean()) - 1.0) <= 0.02


class TestGaussian:
    def test_rewards_below_column_sums(self):
        inst = gen_gaussian(spec(GeneratorFamily.GAUSSIAN, n=300, m=5, seed=2))
        assert (inst.rewards <= inst.columns.sum(axis=0)).all()

    def test_entry_mean(self):
        inst = gen_gaussian(spec(GeneratorFamily.GAUSSIAN, n=20_000, m=5, seed=4))
        assert abs(float(inst.columns.mean()) - 1.0) <= 0.02

    def test_seed_determinism(self):
        a = gen_gaussian(spec(GeneratorFamily.GAUSSIAN, seed=5))
        b = gen_gaussian(spec(GeneratorFamily.GAUSSIAN, seed=5))
        assert np.array_equal(a.columns, b.columns)


class TestTruncCauchy:
    def test_magnitude_capped(self):
        inst = gen_trunc_cauchy(spec(GeneratorFamily.TRUNC_CAUCHY, n=500, m=3, seed=1,
                                     cauchy_truncation=10.0))
        assert float(np.abs(inst.columns).max()) <= 10.0

    def test_looser_threshold_has_larger_spread(self):
        tight = gen_trunc_cauchy(spec(GeneratorFamily.TRUNC_CAUCHY, n=2000, m=2, seed=6,
                                      cauchy_truncation=10.0))
        loose = gen_trunc_cauchy(spec(GeneratorFamily.TRUNC_CAUCHY, n=2000, m=2, seed=6,
                                      cauchy_truncation=1e6))
        assert float(loose.columns.var()) > float(tight.columns.var())

    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError):
            gen_trunc_cauchy(spec(GeneratorFamily.TRUNC_CAUCHY, cauchy_truncation=0.0))

    def test_seed_determinism(self):
        a = gen_trunc_cauchy(spec(GeneratorFamily.TRUNC_CAUCHY, seed=8))
        b = gen_trunc_cauchy(spec(GeneratorFamily.TRUNC_CAUCHY, seed=8))
        assert np.array_equal(a.columns, b.columns)


class TestMixedFourGroups:
    def test_block_distributions(self):
        inst = gen_mixed_four_groups(spec(GeneratorFamily.MIXED_FOUR, n=400, m=3, seed=9))
        assert inst.n == 400
        g = 100
        first = inst.columns[:, :g]
        last = inst.columns[:, 3 * g:]
        assert first.min() >= 0.0 and first.max() <= 2.0
        assert np.isin(last, (-1.0, 1.0, 3.0)).all()
        assert inst.rewards.min() >= 0.0 and inst.rewards.max() <= 1.0

    def test_truncates_to_multiple_of_four(self):
        inst = gen_mixed_four_groups(spec(GeneratorFamily.MIXED_FOUR, n=10, m=2, seed=0))
        assert inst.n == 8

    def test_too_small(self):
        with pytest.raises(ValueError):
            gen_mixed_four_groups(spec(GeneratorFamily.MIXED_FOUR, n=3, m=2, seed=0))

    def test_seed_determinism(self):
        a = gen_mixed_four_groups(spec(GeneratorFamily.MIXED_FOUR, seed=3))
        b = gen_mixed_four_groups(spec(GeneratorFamily.MIXED_FOUR, seed=3))
        assert np.array_equal(a.columns, b.columns)
        assert np.array_equal(a.rewards, b.rewards)


class TestAdversarial:
    def test_two_phase_layout(self):
        inst = gen_adversarial(spec(GeneratorFamily.ADVERSARIAL, n=100, m=1, seed=0))
        assert (inst.rewards[:50] == 1.0).all()
        assert (inst.rewards[50:] == 2.0).all()
        assert (inst.columns == 1.0).all()
        assert inst.capacity[0] == pytest.approx(50.0)

    def test_unpermuted_stream_defeats_one_pass(self):
        # without shuffling, a strict majority of the cheap first half is
        # taken and the normalized objective gap does not shrink with n
        from onlinelp.algorithms import AlgorithmConfig, AlgorithmKind, run_soa
        from onlinelp.core import StepSchedule

        gaps = {}
        for n in (100, 1000):
            inst = gen_adversarial(spec(GeneratorFamily.ADVERSARIAL, n=n, m=1, seed=0))
            trace = run_soa(inst, AlgorithmConfig(AlgorithmKind.SOA, StepSchedule.SQRT_N))
            first_half = int(trace.decisions[: n // 2].sum())
            assert first_half > n // 4
            lp = solve_relaxation(inst)
            gaps[n] = (lp.objective - trace.objective) / lp.objective
        assert gaps[1000] >= gaps[100] - 0.02

    def test_dispatch(self):
        for family in GeneratorFamily:
            inst = generate(spec(family, n=24, m=2, seed=1))
            assert inst.n >= 1 and inst.m == 2


class TestPermute:
    def test_identity(self):
        inst = gen_uniform(spec(GeneratorFamily.UNIFORM, seed=4))
        plan = PermutationPlan(n=inst.n, seed=0, order=np.arange(inst.n))
        out = permute(inst, plan)
        assert np.array_equal(out.rewards, inst.rewards)
        assert np.array_equal(out.columns, inst.columns)

    def test_inverse_restores_bits(self):
        inst = gen_gaussian(spec(GeneratorFamily.GAUSSIAN, seed=4))
        plan = PermutationPlan.random(inst.n, seed=99)
        back = permute(permute(inst, plan), plan.inverse())
        assert np.array_equal(back.rewards, inst.rewards)
        assert np.array_equal(back.columns, inst.columns)
        assert np.array_equal(back.capacity, inst.capacity)

    def test_lp_objective_invariant(self):
        inst = gen_uniform(spec(GeneratorFamily.UNIFORM, n=30, m=3, seed=5))
        plan = PermutationPlan.random(inst.n, seed=1)
        a = solve_relaxation(inst).objective
        b = solve_relaxation(permute(inst, plan)).objective
        assert a == pytest.approx(b, abs=1e-9)

    def test_multiset_preserved(self):
        inst = gen_uniform(spec(GeneratorFamily.UNIFORM, n=15, m=2, seed=6))
        plan = PermutationPlan.random(inst.n, seed=2)
        out = permute(inst, plan)
        pairs = sorted(map(tuple, np.vstack([inst.rewards, inst.columns]).T.tolist()))
        out_pairs = sorted(map(tuple, np.vstack([out.rewards, out.columns]).T.tolist()))
        assert pairs == out_pairs

    def test_dimension_mismatch(self):
        inst = gen_uniform(spec(GeneratorFamily.UNIFORM, n=8, m=2, seed=0))
        with pytest.raises(ValueError):
            permute(inst, PermutationPlan.random(9, seed=0))

    def test_plan_must_be_bijection(self):
        with pytest.raises(ValueError):
            PermutationPlan(n=3, seed=0, order=np.array([0, 0, 2]))


MKNAP_SAMPLE = """
2
2 1 10
10 7
5 4
8
3 2 0
6 5 4
1 2 3
3 1 2
5 4
"""


class TestReadMknap:
    def test_parse_sample(self, tmp_path):
        path = tmp_path / "sample.txt"
        path.write_text(MKNAP_SAMPLE)
        problems = read_mknap(path)
        assert len(problems) == 2
        inst, opt = problems[0]
        assert opt == 10.0
        assert inst.n == 2 and inst.m == 1
        assert list(inst.rewards) == [10.0, 7.0]
        assert inst.columns.tolist() == [[5.0, 4.0]]
        assert list(inst.capacity) == [8.0]
        inst2, opt2 = problems[1]
        assert opt2 is None  # 0 means unknown
        assert inst2.columns.tolist() == [[1.0, 2.0, 3.0], [3.0, 1.0, 2.0]]

    def test_round_trip_through_instance_format(self, tmp_path):
        path = tmp_path / "sample.txt"
        path.write_text(MKNAP_SAMPLE)
        inst, _ = read_mknap(path)[0]
        again = parse_instance(format_instance(inst))
        assert np.array_equal(again.rewards, inst.rewards)
        assert np.array_equal(again.columns, inst.columns)
        assert np.array_equal(again.capacity, inst.capacity)

    def test_truncated_file_names_line(self, tmp_path):
        path = tmp_path / "broken.txt"
        path.write_text("1\n2 1 10\n10 7\n5 4\n")  # missing capacity
        with pytest.raises(MknapFormatError) as err:
            read_mknap(path)
        assert "truncated" in str(err.value)
        assert err.value.line == 4

    def test_non_numeric_token_names_line(self, tmp_path):
        path = tmp_path / "broken.txt"
        path.write_text("1\n2 1 10\n10 seven\n5 4\n8\n")
        with pytest.raises(MknapFormatError) as err:
            read_mknap(path)
        assert err.value.line == 3

    def test_bad_counts(self, tmp_path):
        path = tmp_path / "broken.txt"
        path.write_text("1\n0 1 0\n")
        with pytest.raises(MknapFormatError):
            read_mknap(path)
        path.write_text("1\n2.5 1 0\n")
        with pytest.raises(MknapFormatError):
            read_mknap(path)

    def test_nonpositive_capacity_names_line(self, tmp_path):
        path = tmp_path / "broken.txt"
        for cap in ("-4", "0"):
            path.write_text(f"1\n2 2 0\n10 7\n5 4\n1 1\n8\n{cap}\n")
            with pytest.raises(MknapFormatError, match="capacity 2 of problem 1") as err:
                read_mknap(path)
            assert err.value.line == 7

    def test_negative_weights_warn(self, tmp_path):
        path = tmp_path / "odd.txt"
        path.write_text("1\n2 1 0\n1 1\n-1 2\n4\n")
        with pytest.warns(UserWarning):
            read_mknap(path)

    def test_benchmark_class_file(self, tmp_path):
        # OR-library style m=5, n=500 problem built synthetically: the stated
        # optimum is the value of a greedy feasible assignment, so the
        # relaxation objective must dominate it.
        rng = np.random.default_rng(123)
        n, m = 500, 5
        weights = rng.integers(1, 1000, (m, n))
        caps = (0.5 * weights.sum(axis=1)).astype(int)
        profits = weights.mean(axis=0).astype(int) + rng.integers(0, 500, n)
        order = np.argsort(-profits)
        load = np.zeros(m)
        chosen = np.zeros(n, dtype=bool)
        for j in order:
            if ((load + weights[:, j]) <= caps).all():
                chosen[j] = True
                load += weights[:, j]
        greedy_value = int(profits[chosen].sum())
        tokens = [f"1\n{n} {m} {greedy_value}"]
        tokens.append(" ".join(str(int(v)) for v in profits))
        for i in range(m):
            tokens.append(" ".join(str(int(v)) for v in weights[i]))
        tokens.append(" ".join(str(int(v)) for v in caps))
        path = tmp_path / "mknap_synth.txt"
        path.write_text("\n".join(tokens) + "\n")

        problems = read_mknap(path)
        assert len(problems) == 1
        inst, stated = problems[0]
        assert inst.n == n and inst.m == m
        assert stated == float(greedy_value)
        lp = solve_relaxation(inst)
        assert lp.objective >= stated - 1e-6

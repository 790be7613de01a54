import dataclasses
import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest

from onlinelp.core import Instance
from onlinelp.generators import (
    GeneratorFamily,
    GeneratorSpec,
    PermutationPlan,
    generate,
    permute,
)
from onlinelp import native, simplex
from onlinelp.simplex import (
    certify,
    solve_binary_exact,
    solve_box_lp,
    solve_prefix_lps,
    solve_relaxation,
    solve_scaled,
)

from conftest import force_numpy
from instance_bounds import compute_stats
from oracles import box_lp_vertex_oracle


def random_signed_instance(rng, n, m):
    return Instance(rewards=rng.uniform(-2, 2, n),
                    columns=rng.uniform(-2, 2, (m, n)),
                    capacity=rng.uniform(0.3, 1.5, m) * n * 0.4)


def check_solution_invariants(inst, sol):
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
        inst = generate(GeneratorSpec(GeneratorFamily.UNIFORM, n=60, m=4, seed=9))
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
    def test_rejected(self):
        for capacity in ([-0.5], [1.0, -1.0], [math.nan]):
            with pytest.raises(ValueError, match="non-negative"):
                solve_box_lp([1.0], -np.ones((len(capacity), 1)), capacity)


class TestSolveScaled:
    def test_full_prefix_matches_relaxation(self):
        inst = generate(GeneratorSpec(GeneratorFamily.UNIFORM, n=40, m=3, seed=2))
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
        inst = generate(GeneratorSpec(GeneratorFamily.UNIFORM, n=5, m=2, seed=3))
        with pytest.raises(ValueError):
            solve_scaled(inst, 0)
        with pytest.raises(ValueError):
            solve_scaled(inst, 6)


def warm_chain(inst):
    """Each prefix LP of ``inst`` solved by the plain warm ``solve_scaled`` chain."""
    sol, chain = None, []
    for s in range(1, inst.n + 1):
        sol = solve_scaled(inst, s, prev=sol)
        chain.append(sol)
    return chain


def longest_first(instances):
    return sorted(instances, key=lambda inst: -inst.n)


class TestPrefixWorkspace:
    """The lockstep pass keeps its cells' state in stacked arrays and solves as the warm chain does."""

    @staticmethod
    def batches():
        for family, m in itertools.product(GeneratorFamily, (1, 3, 10, 20)):
            batch = [generate(GeneratorSpec(family, n=n, m=m, seed=n + m)) for n in (1, 2, 40)
                     if not (family is GeneratorFamily.MIXED_FOUR and n % 4
                             or family is GeneratorFamily.ADVERSARIAL and n % 2)]
            yield longest_first(batch)
        # permuted two-phase data (degenerate prefix LPs) beside continuous data
        adversarial = generate(GeneratorSpec(GeneratorFamily.ADVERSARIAL, n=60, m=2, seed=4))
        yield longest_first([generate(GeneratorSpec(GeneratorFamily.UNIFORM, n=50, m=2, seed=4)),
                             permute(adversarial, PermutationPlan.random(60, 5)),
                             adversarial,
                             permute(adversarial, PermutationPlan.random(60, 6))])

    def test_pass_matches_plain_warm_chain(self, monkeypatch):
        # each new column's bound in the start solve_scaled hands to solve_box_lp
        flags, solve = [], simplex.solve_box_lp

        def recording(rewards, columns, capacity, start=None):
            flags.append(rewards[-1] > 0.0 if start is None else start[1][len(rewards) - 1])
            return solve(rewards, columns, capacity, start)

        monkeypatch.setattr(simplex, "solve_box_lp", recording)
        count = 0
        for batch in self.batches():
            chains = []
            for inst in batch:
                flags.clear()
                chains.append((warm_chain(inst), list(flags)))
            lps = solve_prefix_lps(batch)
            shape = (len(batch), batch[0].n)
            assert lps.favoured.shape == lps.primal.shape == lps.iterations.shape == shape
            assert lps.duals.shape == shape + (batch[0].m,)
            for k, (inst, (chain, favoured)) in enumerate(zip(batch, chains)):
                for t, plain in enumerate(chain):
                    duals = lps.duals[k, t]
                    assert duals.dtype == plain.duals.dtype and np.array_equal(duals, plain.duals)
                    assert lps.primal[k, t] == plain.primal[t]
                    assert lps.iterations[k, t] == plain.iterations
                    assert lps.favoured[k, t] == favoured[t]
                    count += 1
                # entries past the cell's n stay 0
                assert not any(field[k, inst.n:].any() for field in lps)
        assert count > 1000

    def test_mixed_m_or_order_raises(self):
        short, long = (generate(GeneratorSpec(GeneratorFamily.UNIFORM, n=n, m=2, seed=1))
                       for n in (5, 10))
        other_m = generate(GeneratorSpec(GeneratorFamily.UNIFORM, n=5, m=3, seed=1))
        for batch, match in (([long, other_m], "share m"), ([short, long], "longest first"),
                             ([], "at least one")):
            with pytest.raises(ValueError, match=match):
                solve_prefix_lps(batch)


def assert_close(a, b, tol=1e-9):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape
    assert np.abs(a - b).max(initial=0.0) <= tol * (1.0 + np.abs(b).max(initial=0.0))


def warm_cases(rng, count):
    """``(kind, r, A, b_old, b_new)``: one LP under two capacities.

    The optimal basis under ``b_old`` is dual feasible under ``b_new``, and
    usually not primal feasible, so a warm solve from it needs the dual phase.
    """
    for i in range(count):
        n, m = int(rng.integers(1, 30)), int(rng.integers(1, 6))
        kind = ("signed", "zero_rows", "tied")[i % 3]
        if kind == "signed":
            r, A = rng.uniform(-2, 2, n), rng.uniform(-2, 2, (m, n))
            b_old, b_new = (rng.uniform(0.0, 1.5, (2, m)) * n * 0.4)
        elif kind == "zero_rows":
            r, A = rng.uniform(-2, 2, n), rng.uniform(-2, 2, (m, n))
            b_old, b_new = rng.uniform(0.0, 1.5, (2, m)) * (rng.random((2, m)) > 0.3)
        else:
            r = rng.integers(-2, 3, n).astype(float)
            A = rng.integers(-2, 3, (m, n)).astype(float)
            b_old, b_new = rng.integers(0, 4, (2, m)).astype(float)
        yield kind, r, A, b_old, b_new


def check_warm_against_cold(kind, r, A, b, warm, cold):
    assert warm.objective == pytest.approx(cold.objective, rel=1e-9, abs=1e-9)
    check_solution_invariants(SimpleNamespace(rewards=r, columns=A, capacity=b), warm)
    if kind == "signed":
        # continuous data: the optimum and its prices are unique
        assert_close(warm.primal, cold.primal)
        assert_close(warm.duals, cold.duals)
        assert_close(warm.reduced_bounds_duals, cold.reduced_bounds_duals)
    # Zero capacities and tied data are degenerate, so the optimal vertex and
    # prices need not be unique: there the objective and the optimality
    # conditions above are what a correct warm solve must match.


class TestWarmStart:
    def test_random_lps_match_cold(self):
        rng = np.random.default_rng(12)
        iterations = 0
        for kind, r, A, b_old, b_new in warm_cases(rng, 240):
            prev = solve_box_lp(r, A, b_old)
            warm = solve_box_lp(r, A, b_new, start=(prev.basis, prev.at_upper))
            cold = solve_box_lp(r, A, b_new)
            check_warm_against_cold(kind, r, A, b_new, warm, cold)
            if A.shape[1] <= 8:  # vertex enumeration is exponential in n
                assert warm.objective == pytest.approx(box_lp_vertex_oracle(r, A, b_new), abs=1e-7)
            iterations += warm.iterations
        assert iterations > 0  # the warm solves pivoted

    def test_own_basis_is_optimal_at_once(self):
        rng = np.random.default_rng(4)
        for kind, r, A, b, _ in warm_cases(rng, 60):
            cold = solve_box_lp(r, A, b)
            again = solve_box_lp(r, A, b, start=(cold.basis, cold.at_upper))
            assert again.iterations == 0
            assert again.objective == pytest.approx(cold.objective, rel=1e-9, abs=1e-9)

    def test_prefix_passes_match_cold(self):
        instances = [("uniform", generate(GeneratorSpec(GeneratorFamily.UNIFORM, n=80, m=4, seed=5))),
                     ("gaussian", generate(GeneratorSpec(GeneratorFamily.GAUSSIAN, n=80, m=3, seed=6)))]
        adversarial = generate(GeneratorSpec(GeneratorFamily.ADVERSARIAL, n=80, m=2, seed=0))
        instances += [("adversarial", adversarial),
                      ("adversarial", permute(adversarial, PermutationPlan.random(80, 7)))]
        for family, inst in instances:
            # the adversarial family repeats two columns, so its prefix LPs
            # are degenerate and only the optimum itself is unique
            kind = "tied" if family == "adversarial" else "signed"
            prev = None
            warm_iterations = cold_iterations = 0
            for s in range(1, inst.n + 1):
                warm = solve_scaled(inst, s, prev=prev)
                cold = solve_scaled(inst, s)
                check_warm_against_cold(kind, inst.rewards[:s], inst.columns[:, :s],
                                        s * inst.per_column_budget, warm, cold)
                warm_iterations += warm.iterations
                cold_iterations += cold.iterations
                prev = warm
            assert warm_iterations < cold_iterations

    def test_prefix_against_highs(self):
        linprog = pytest.importorskip("scipy.optimize").linprog
        rng = np.random.default_rng(3)
        inst = random_signed_instance(rng, 60, 4)
        prev = None
        for s in range(1, inst.n + 1):
            prev = solve_scaled(inst, s, prev=prev)
            if s % 6:
                continue
            cap = s * inst.per_column_budget
            ref = linprog(-inst.rewards[:s], A_ub=inst.columns[:, :s], b_ub=cap,
                          bounds=[(0, 1)] * s, method="highs")
            assert ref.status == 0
            assert prev.objective == pytest.approx(-ref.fun, rel=1e-9, abs=1e-9)
            assert_close(prev.duals, -ref.ineqlin.marginals, tol=1e-7)

    def test_bad_starts_rejected(self):
        inst = generate(GeneratorSpec(GeneratorFamily.UNIFORM, n=6, m=2, seed=1))
        sol = solve_scaled(inst, 3)
        with pytest.raises(ValueError, match="first 4 columns"):
            solve_scaled(inst, 5, prev=sol)
        r, A, b = inst.rewards, inst.columns, inst.capacity
        slack_at_upper = np.zeros(8, dtype=bool)
        slack_at_upper[7] = True
        for start in ((np.array([6, 6]), np.zeros(8, dtype=bool)),
                      (np.array([6]), np.zeros(8, dtype=bool)),
                      (np.array([6, 7]), np.zeros(7, dtype=bool)),
                      (np.array([0, 7]), np.eye(8, dtype=bool)[0]),
                      (np.array([0, 6]), slack_at_upper)):
            with pytest.raises(ValueError, match="start"):
                solve_box_lp(r, A, b, start=start)

    def test_dual_infeasible_start_raises(self):
        # The optimal basis of permuted rewards under the same capacities is
        # primal feasible, so the dual simplex makes no pivot, and usually
        # dual infeasible for the true rewards: the end check must catch it.
        rng = np.random.default_rng(13)
        raised = 0
        for kind, r, A, _, b in warm_cases(rng, 90):
            prev = solve_box_lp(rng.permutation(r), A, b)
            try:
                warm = solve_box_lp(r, A, b, start=(prev.basis, prev.at_upper))
            except simplex.SimplexError as exc:
                assert "not dual feasible" in str(exc)
                raised += 1
                continue
            # the start happened to be dual feasible, so the answer is optimal
            check_warm_against_cold(kind, r, A, b, warm, solve_box_lp(r, A, b))
        assert raised > 60


class TestEffortCounts:
    def test_counts_add_up(self, monkeypatch):
        # every pass inverts its basis once, and every pass but the last
        # exchanges a column, so a solve makes one inversion per iteration plus
        # one; counted on the numpy LP engine, the one that calls np.linalg.inv
        force_numpy(monkeypatch)
        inv = np.linalg.inv
        inversions = []

        def counting(a):
            inversions.append(1)
            return inv(a)

        monkeypatch.setattr(simplex.np.linalg, "inv", counting)
        rng = np.random.default_rng(9)
        iterations = 0
        for kind, r, A, b_old, b_new in warm_cases(rng, 60):
            for start in (None, solve_box_lp(r, A, b_old)):
                inversions.clear()
                sol = solve_box_lp(r, A, b_new, start=None if start is None
                                   else (start.basis, start.at_upper))
                assert len(inversions) == sol.iterations + 1
                iterations += sol.iterations
        assert iterations > 0

    def test_warm_workspace_steps(self, monkeypatch):
        # a step starts from the inverses the previous step's last pass took,
        # step 0 from the empty prefix's identity, so the pass inverts one
        # matrix per pivot; a cell without pivots reuses its prices, and a
        # cell whose new column ended nonbasic reads that column's value off
        # its bound
        batch = longest_first(generate(GeneratorSpec(family, n=60, m=3, seed=8)) for family in
                              (GeneratorFamily.UNIFORM, GeneratorFamily.GAUSSIAN,
                               GeneratorFamily.ADVERSARIAL))
        # per step, the cells whose column t is basic in their warm chain's final basis
        chains = [warm_chain(inst) for inst in batch]
        basic = [sum(t in chain[t].basis for chain in chains) for t in range(60)]
        inv, solve = np.linalg.inv, np.linalg.solve
        inverted, solved = [], []

        def counting_inv(a):
            inverted.append(len(a))
            return inv(a)

        def counting_solve(a, b):
            solved.append(len(a))
            return solve(a, b)

        monkeypatch.setattr(simplex.np.linalg, "inv", counting_inv)
        monkeypatch.setattr(simplex.np.linalg, "solve", counting_solve)
        iterations = solve_prefix_lps(batch).iterations
        pivoting = np.count_nonzero(iterations)
        assert sum(inverted) == iterations.sum()
        assert sum(solved) == sum(basic) + pivoting
        assert 0 < pivoting < iterations.size
        assert 0 < sum(basic) < iterations.size


def each_lp_engine(monkeypatch):
    """Yield the name of the LP engine in use: the default one, then the numpy loop, forced."""
    yield native.engine()
    force_numpy(monkeypatch)
    yield native.engine()


class TestPivotPath:
    """Pivot counts and objectives of fixed solves, pinned to their recorded values.

    Answers alone cannot tell two pivot paths apart, so these pin the path a
    change to the solver must keep, on both LP engines.  The data are
    continuous, so no count hangs on how BLAS rounds a tie.
    """

    def test_offline_lp(self, monkeypatch):
        inst = generate(GeneratorSpec(GeneratorFamily.UNIFORM, n=3200, m=10, seed=1))
        for engine in each_lp_engine(monkeypatch):
            sol = solve_relaxation(inst)
            assert sol.iterations == 9, engine
            assert sol.objective == pytest.approx(2111.9723586785335, rel=1e-12), engine

    def test_warm_prefix_pass(self, monkeypatch):
        # the plain warm chain on each engine, and the lockstep pass
        # run_prefix_lp takes, alone and beside a longer instance
        inst = generate(GeneratorSpec(GeneratorFamily.GAUSSIAN, n=200, m=5, seed=2))
        for engine in each_lp_engine(monkeypatch):
            chain = warm_chain(inst)
            assert sum(sol.iterations for sol in chain) == 221, engine
            assert chain[-1].objective == pytest.approx(365.6542164418093, rel=1e-12), engine
        longer = generate(GeneratorSpec(GeneratorFamily.UNIFORM, n=300, m=5, seed=2))
        for batch, k in (([inst], 0), ([longer, inst], 1)):
            assert solve_prefix_lps(batch).iterations[k].sum() == 221

PRICE_FAMILIES = tuple(GeneratorFamily)  # uniform, gaussian, Cauchy, mixed, adversarial


def assert_certified(inst, sol):
    infeasibility, wrong_sign, gap = certify(inst, sol)
    assert infeasibility <= 1e-9 * (1.0 + np.abs(inst.capacity).max())
    assert wrong_sign <= 1e-9
    assert gap <= 1e-12


class TestPriceStart:
    """The offline LP starts at price 0, each column at the bound its reward favours.

    Its answer agrees with HiGHS, and the O(nm) certificate catches a column
    on the wrong bound.
    """

    def test_against_highs(self):
        linprog = pytest.importorskip("scipy.optimize").linprog
        for family, m in itertools.product(PRICE_FAMILIES, (1, 5, 10)):
            inst = generate(GeneratorSpec(family, n=500, m=m, seed=m))
            sol = solve_relaxation(inst)
            ref = linprog(-inst.rewards, A_ub=inst.columns, b_ub=inst.capacity,
                          bounds=(0.0, 1.0), method="highs")
            assert ref.status == 0
            assert sol.objective == pytest.approx(-ref.fun, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("family", PRICE_FAMILIES, ids=lambda f: f.value)
    def test_certificate_catches_a_flipped_column(self, family):
        inst = generate(GeneratorSpec(family, n=500, m=5, seed=2))
        sol = solve_relaxation(inst)
        assert_certified(inst, sol)
        gain = inst.rewards - sol.duals @ inst.columns
        j = int(np.argmax(np.abs(gain)))
        primal = sol.primal.copy()
        primal[j] = 1.0 - primal[j]
        tampered = dataclasses.replace(sol, primal=primal, objective=float(inst.rewards @ primal))
        infeasibility, wrong_sign, gap = certify(inst, tampered)
        assert wrong_sign == pytest.approx(abs(gain[j]))
        assert wrong_sign > 1e-3

    def test_certificate_by_hand(self):
        # max x1 + x2, x1 + x2 <= 1: x = (1, 0), p = 1, s = 0
        inst = Instance(rewards=[1.0, 1.0], columns=[[1.0, 1.0]], capacity=[1.0])
        sol = solve_relaxation(inst)
        assert tuple(certify(inst, sol)) == (0.0, 0.0, 0.0)
        over = dataclasses.replace(sol, primal=np.array([1.0, 0.5]), duals=np.array([2.0]))
        # row excess 0.5; reduced costs -1 with x > 0; gap |2 - 1.5| / 2.5
        assert tuple(certify(inst, over)) == (0.5, 1.0, 0.2)


class TestLongStep:
    """The dual phase passes every breakpoint that still lowers the dual objective."""

    @staticmethod
    def cases(rng):
        """About 300 LPs: raw signed, zero-capacity and tied data, then all five families."""
        for i in range(255):
            # every fourth LP is small enough for the vertex oracle
            n, m = ((int(rng.integers(2, 13)), int(rng.integers(1, 4))) if i % 4 == 0
                    else (int(rng.integers(13, 400)), int(rng.integers(1, 11))))
            if i % 3 == 0:
                r, A = rng.uniform(-2, 2, n), rng.uniform(-2, 2, (m, n))
                b = rng.uniform(0.3, 1.5, m) * n * 0.4
            elif i % 3 == 1:  # zero-capacity rows
                r, A = rng.uniform(-2, 2, n), rng.uniform(-2, 2, (m, n))
                b = rng.uniform(0.0, 1.5, m) * n * 0.3
                b[rng.random(m) < 0.3] = 0.0
            else:  # small signed integers: ties everywhere
                r = rng.integers(-2, 4, n).astype(float)
                A = rng.integers(-1, 4, (m, n)).astype(float)
                b = rng.integers(0, max(2, n // 2), m).astype(float)
            yield SimpleNamespace(rewards=r, columns=A, capacity=b, n=n, m=m)
        for family, n, m in itertools.product(GeneratorFamily, (100, 1000, 3000), (1, 5, 10)):
            yield generate(GeneratorSpec(family, n=n, m=m, seed=n + m))

    def test_against_the_oracles(self):
        linprog = pytest.importorskip("scipy.optimize").linprog
        rng = np.random.default_rng(2024)
        solved = iterations = 0
        for inst in self.cases(rng):
            sol = solve_relaxation(inst)
            check_solution_invariants(inst, sol)
            if inst.n <= 12:
                oracle = box_lp_vertex_oracle(inst.rewards, inst.columns, inst.capacity)
                assert sol.objective == pytest.approx(oracle, rel=1e-9, abs=1e-9)
            ref = linprog(-inst.rewards, A_ub=inst.columns, b_ub=inst.capacity,
                          bounds=(0.0, 1.0), method="highs")
            assert ref.status == 0
            assert sol.objective == pytest.approx(-ref.fun, rel=1e-9, abs=1e-9)
            solved += 1
            iterations += sol.iterations
        assert solved >= 300 and iterations > 0

    def test_partial_sort_passes_what_a_full_sort_passes(self):
        # The pass as one stable sort of every breakpoint would take it.
        def full_sort(ratios, ranges, excess):
            order = np.argsort(ratios, kind="stable")
            left = excess - np.cumsum(ranges[order])
            stop = min(int(np.count_nonzero(left > 0.0)), order.size - 1)
            return order[:stop], int(order[stop])

        rng = np.random.default_rng(7)
        widened = 0
        for case in range(3000):
            size = int(rng.integers(1, 700))
            # coarse ratios tie often; some breakpoints are slacks (infinite range)
            ratios = rng.integers(0, 1 + size // int(rng.integers(1, 8)), size) / 4.0
            ranges = rng.uniform(1e-3, 1.0, size)
            ranges[rng.random(size) < rng.choice([0.0, 0.01, 0.2])] = np.inf
            # from a pass of a few breakpoints to one that runs past them all
            excess = float(rng.uniform(0.0, 1.0) * rng.choice([1, 10, 100, size]))
            passed, enter = simplex._long_step(ratios, ranges, excess)
            want_passed, want_enter = full_sort(ratios, ranges, excess)
            assert passed.tolist() == want_passed.tolist() and enter == want_enter, case
            widened += passed.size >= simplex._PASS_WIDTH
        assert widened > 100

    def test_few_dual_pivots_at_scale(self):
        # C8's shape: a dual simplex that takes only the first breakpoint
        # makes about 6,000 pivots here
        inst = generate(GeneratorSpec(GeneratorFamily.UNIFORM, n=10_000, m=5, seed=3))
        sol = solve_relaxation(inst)
        assert_certified(inst, sol)
        assert 0 < sol.iterations < 50


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
            b = rng.uniform(0.0, 2.0, m) * max(1, n // 3)
            sol = solve_box_lp(r, A, b)
            ref = linprog(-r, A_ub=A, b_ub=b, bounds=[(0, 1)] * n, method="highs")
            assert ref.status == 0
            assert sol.objective == pytest.approx(-ref.fun, abs=1e-7, rel=1e-7)

import dataclasses
import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest

from onlinelp.core import Instance, compute_stats
from onlinelp.generators import (
    GeneratorFamily,
    GeneratorSpec,
    PermutationPlan,
    gen_uniform,
    generate,
    permute,
)
from onlinelp import simplex
from onlinelp.simplex import (
    certify,
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
    def test_rejected(self):
        for capacity in ([-0.5], [1.0, -1.0], [math.nan]):
            with pytest.raises(ValueError, match="non-negative"):
                solve_box_lp([1.0], -np.ones((len(capacity), 1)), capacity)


class TestBlandRule:
    def test_forced_from_the_first_degenerate_pivot(self, monkeypatch):
        rng = np.random.default_rng(8)
        cases = []  # (r, A, b): signed data, zero capacities, small signed integers
        for i in range(120):
            n, m = int(rng.integers(2, 10)), int(rng.integers(1, 5))
            if i % 3 == 0:
                inst = random_signed_instance(rng, n, m)
                cases.append((inst.rewards, inst.columns, inst.capacity))
            elif i % 3 == 1:
                cases.append((rng.uniform(-2, 2, n), rng.uniform(-2, 2, (m, n)),
                              rng.uniform(0.0, 1.5, m)))
            else:  # ties everywhere, so many pivots are degenerate
                cases.append((rng.integers(-2, 3, n).astype(float),
                              rng.integers(-2, 3, (m, n)).astype(float),
                              rng.integers(0, 3, m).astype(float)))
        defaults = [solve_box_lp(*case) for case in cases]
        default_iterations = [sol.iterations for sol in defaults]
        init = simplex._BoxSimplex.__init__

        def bland_at_once(self, *args):
            init(self, *args)
            self.bland_threshold = 1

        monkeypatch.setattr(simplex._BoxSimplex, "__init__", bland_at_once)
        iterations, bland_solves = [], []
        for r, A, b in cases:
            sol = solve_box_lp(r, A, b)
            iterations.append(sol.iterations)
            bland_solves.append(sol.bland)
            oracle = box_lp_vertex_oracle(r, A, b)
            assert sol.objective == pytest.approx(oracle, abs=1e-7)
            check_solution_invariants(SimpleNamespace(rewards=r, columns=A, capacity=b), sol)
        # Bland's rule took over, and changed the pivot path, in some solves
        assert iterations != default_iterations
        assert not any(sol.bland for sol in defaults)
        assert any(bland_solves)


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
        dual_pivots = 0
        for kind, r, A, b_old, b_new in warm_cases(rng, 240):
            prev = solve_box_lp(r, A, b_old)
            warm = solve_box_lp(r, A, b_new, start=(prev.basis, prev.at_upper))
            cold = solve_box_lp(r, A, b_new)
            check_warm_against_cold(kind, r, A, b_new, warm, cold)
            # every dual pivot kept the start dual feasible, so the primal
            # loop only certifies optimality
            assert warm.pivots == warm.flips == 0
            if A.shape[1] <= 8:  # vertex enumeration is exponential in n
                assert warm.objective == pytest.approx(box_lp_vertex_oracle(r, A, b_new), abs=1e-7)
            assert cold.dual_pivots == 0
            dual_pivots += warm.dual_pivots
        assert dual_pivots > 0  # the dual phase ran

    def test_own_basis_is_optimal_at_once(self):
        rng = np.random.default_rng(4)
        for kind, r, A, b, _ in warm_cases(rng, 60):
            cold = solve_box_lp(r, A, b)
            again = solve_box_lp(r, A, b, start=(cold.basis, cold.at_upper))
            assert again.iterations == 0
            assert again.objective == pytest.approx(cold.objective, rel=1e-9, abs=1e-9)

    def test_bland_forced(self, monkeypatch):
        # Two starts per case: the basis of the old capacities is dual
        # feasible (the dual phase runs), the basis of permuted rewards under
        # the new capacities is primal feasible (the primal loop runs).
        rng = np.random.default_rng(13)
        cases = list(warm_cases(rng, 90))
        starts = [(solve_box_lp(r, A, b_old), solve_box_lp(rng.permutation(r), A, b_new))
                  for _, r, A, b_old, b_new in cases]
        colds = [solve_box_lp(r, A, b_new) for _, r, A, _, b_new in cases]
        init = simplex._BoxSimplex.__init__

        def bland_at_once(self, *args):
            init(self, *args)
            self.bland_threshold = 1

        monkeypatch.setattr(simplex._BoxSimplex, "__init__", bland_at_once)
        bland = dual_pivots = 0
        for (kind, r, A, _, b_new), pair, cold in zip(cases, starts, colds):
            for prev in pair:
                warm = solve_box_lp(r, A, b_new, start=(prev.basis, prev.at_upper))
                check_warm_against_cold(kind, r, A, b_new, warm, cold)
                bland += warm.bland
                dual_pivots += warm.dual_pivots
        assert bland > 0 and dual_pivots > 0

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
                if prev is not None:
                    assert warm.pivots == warm.flips == 0
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
        inst = gen_uniform(GeneratorSpec(GeneratorFamily.UNIFORM, n=6, m=2, seed=1))
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


class TestEffortCounts:
    def test_counts_add_up(self, monkeypatch):
        replace = simplex._BoxSimplex._replace
        basis_changes = []

        def counting(self, *args):
            basis_changes.append(1)
            return replace(self, *args)

        monkeypatch.setattr(simplex._BoxSimplex, "_replace", counting)
        rng = np.random.default_rng(9)
        flips = dual_pivots = 0
        for kind, r, A, b_old, b_new in warm_cases(rng, 60):
            for start in (None, solve_box_lp(r, A, b_old)):
                basis_changes.clear()
                sol = solve_box_lp(r, A, b_new, start=None if start is None
                                   else (start.basis, start.at_upper))
                assert sol.iterations == sol.pivots + sol.flips + sol.dual_pivots
                assert len(basis_changes) == sol.pivots + sol.dual_pivots
                assert min(sol.pivots, sol.flips, sol.dual_pivots) >= 0
                if start is None:
                    assert sol.dual_pivots == 0
                flips += sol.flips
                dual_pivots += sol.dual_pivots
        assert flips > 0 and dual_pivots > 0


class TestPivotPath:
    """Effort counts and objectives of fixed solves, pinned to their recorded values.

    Answers alone cannot tell two pivot paths apart, so these pin the path a
    change to the solver must keep.  The data are continuous, so no count
    hangs on how BLAS rounds a tie.
    """

    @staticmethod
    def effort(sol):
        return sol.pivots, sol.flips, sol.dual_pivots, sol.bland

    def test_cold_offline_lp_past_the_refresh_cadence(self):
        inst = generate(GeneratorSpec(GeneratorFamily.UNIFORM, n=3200, m=10, seed=1))
        # the default start walks the primal loop past the refresh cadence
        cold = solve_box_lp(inst.rewards, inst.columns, inst.capacity)
        assert cold.iterations > simplex._REFRESH_EVERY
        assert self.effort(cold) == (479, 1384, 0, False)
        # the reward-favoured start leaves the work to the long dual steps
        sol = solve_relaxation(inst)
        assert self.effort(sol) == (0, 0, 9, False)
        for s in (cold, sol):
            assert s.objective == pytest.approx(2111.9723586785335, rel=1e-12)

    def test_warm_prefix_pass(self):
        inst = generate(GeneratorSpec(GeneratorFamily.GAUSSIAN, n=200, m=5, seed=2))
        sol, totals = None, np.zeros(4, dtype=int)
        for s in range(1, inst.n + 1):
            sol = solve_scaled(inst, s, prev=sol)
            totals += self.effort(sol)
        assert tuple(totals) == (1, 0, 219, 0)
        assert sol.objective == pytest.approx(365.6542164418093, rel=1e-12)

    def test_bland_forced(self, monkeypatch):
        # One zero capacity makes the first pivots degenerate, which switches
        # Bland's rule on; those ties are between exact zeros.
        rng = np.random.default_rng(1)
        r, A = rng.uniform(-2, 2, 80), rng.uniform(-2, 2, (6, 80))
        b = rng.uniform(0.5, 1.5, 6) * 8.0
        b[0] = 0.0
        assert self.effort(solve_box_lp(r, A, b)) == (27, 24, 0, False)
        init = simplex._BoxSimplex.__init__

        def bland_at_once(self, *args):
            init(self, *args)
            self.bland_threshold = 1

        monkeypatch.setattr(simplex._BoxSimplex, "__init__", bland_at_once)
        sol = solve_box_lp(r, A, b)
        assert self.effort(sol) == (244, 26, 0, True)
        assert sol.objective == pytest.approx(46.22455439702604, rel=1e-12)


PRICE_FAMILIES = tuple(GeneratorFamily)  # uniform, gaussian, Cauchy, mixed, adversarial


def assert_certified(inst, sol):
    infeasibility, wrong_sign, gap = certify(inst, sol)
    assert infeasibility <= 1e-9 * (1.0 + np.abs(inst.capacity).max())
    assert wrong_sign <= 1e-9
    assert gap <= 1e-12


class TestPriceStart:
    """The offline LP starts at price 0, each column at the bound its reward favours.

    That start changes the work, not the answer: it is the default start's
    answer, certified, and the dual phase does all the pivoting.
    """

    @pytest.mark.parametrize("family", PRICE_FAMILIES, ids=lambda f: f.value)
    def test_matches_the_cold_solve(self, family):
        cold_iterations = iterations = 0
        for n, m in itertools.product((50, 500, 3000), (1, 5, 10)):
            inst = generate(GeneratorSpec(family, n=n, m=m, seed=n + m))
            cold = solve_box_lp(inst.rewards, inst.columns, inst.capacity)
            sol = solve_relaxation(inst)
            assert_certified(inst, cold)
            assert_certified(inst, sol)
            # every dual pivot keeps the start dual feasible
            assert sol.pivots == sol.flips == 0
            if family is GeneratorFamily.ADVERSARIAL:
                # two repeated columns: the optimal basis is not unique
                assert sol.objective == pytest.approx(cold.objective, rel=1e-12)
            else:
                assert np.array_equal(sol.primal, cold.primal)
                assert np.array_equal(sol.duals, cold.duals)
                assert np.array_equal(sol.reduced_bounds_duals, cold.reduced_bounds_duals)
                assert sol.objective == cold.objective
            cold_iterations += cold.iterations
            iterations += sol.iterations
        assert iterations < cold_iterations

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
        solved = dual_pivots = 0
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
            dual_pivots += sol.dual_pivots
        assert solved >= 300 and dual_pivots > 0

    def test_few_dual_pivots_at_scale(self):
        # C8's shape: the primal loop from the default start makes about 6,000
        # moves, a first-breakpoint dual phase about as many pivots
        inst = generate(GeneratorSpec(GeneratorFamily.UNIFORM, n=10_000, m=5, seed=3))
        sol = solve_relaxation(inst)
        assert_certified(inst, sol)
        assert sol.pivots == sol.flips == 0
        assert 0 < sol.dual_pivots < 50


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

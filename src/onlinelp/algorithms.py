"""The online algorithms: one-pass subgradient variants, per-step-LP baselines,
and the randomized feasibility repair post-processor.

Every run consumes the columns of one instance in storage order (callers
permute beforehand when arrival order should be random) and emits a
:class:`~onlinelp.core.RunTrace`.  Runs are bit-deterministic given the
instance bytes, the configuration, and the seed.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .core import (
    Instance,
    MultiInstance,
    RunTrace,
    StepSchedule,
    threshold_decision,
)
from .simplex import PrefixWorkspace, solve_scaled

__all__ = [
    "AlgorithmKind",
    "AlgorithmConfig",
    "check_one_pass",
    "run_one_pass",
    "run_soa",
    "run_sfa",
    "run_sna",
    "run_multi_soa",
    "PREFIX_LP_KINDS",
    "run_prefix_lp",
    "run_dla",
    "run_pbd",
    "repair_feasibility",
]


class AlgorithmKind(enum.Enum):
    SOA = "soa"            # one-pass subgradient, violations allowed
    SFA = "sfa"            # one-pass subgradient with a feasibility gate
    SNA = "sna"            # one-pass subgradient tracking the remaining budget
    MULTI_SOA = "multisoa"  # multi-choice variant of SOA
    DLA = "dla"            # prefix-LP dual prices, one solve per step
    PBD = "pbd"            # prefix-LP fractional value, randomized rounding


# The one-pass kinds and what each changes in the kernel, (gated, track_budget):
# ``gated`` realizes an accept only while the cumulative consumption stays
# within capacity in every coordinate (SFA); ``track_budget`` targets the
# remaining budget rate ``b_t / (n - t)`` instead of the per-column budget ``d``
# (SNA).
_ONE_PASS = {
    AlgorithmKind.SOA: (False, False),
    AlgorithmKind.SFA: (True, False),
    AlgorithmKind.SNA: (False, True),
    AlgorithmKind.MULTI_SOA: (False, False),
}
# The per-step-LP kinds, stepped together by run_prefix_lp.
PREFIX_LP_KINDS = frozenset({AlgorithmKind.DLA, AlgorithmKind.PBD})


@dataclass(frozen=True)
class AlgorithmConfig:
    """Which algorithm to run and how.

    ``schedule`` is required for the subgradient kinds and must be absent for
    DLA/PBD.  The multi-choice variant only admits the 1/sqrt(n) schedule.
    ``label`` names the configuration in reports and child-seed tags; it
    parses back to an equal config.
    """

    kind: AlgorithmKind
    schedule: Optional[StepSchedule] = None

    def __post_init__(self) -> None:
        if self.kind in _ONE_PASS:
            if self.schedule is None:
                raise ValueError(f"{self.kind.value} requires a step-size schedule")
            if self.kind is AlgorithmKind.MULTI_SOA and self.schedule is not StepSchedule.SQRT_N:
                raise ValueError("the multi-choice algorithm only supports the 1/sqrt(n) schedule")
        elif self.schedule is not None:
            raise ValueError(f"{self.kind.value} does not take a step-size schedule")

    @classmethod
    def parse(cls, token: str) -> "AlgorithmConfig":
        """Parse a config token such as ``soa/sqrt_t``, ``multisoa``, ``dla`` or ``pbd``.

        A bare ``multisoa`` takes the sqrt_n schedule.  Raises ``ValueError``.
        """
        name, slash, sched = token.strip().lower().partition("/")
        try:
            kind = AlgorithmKind(name)
        except ValueError:
            raise ValueError(f"unknown algorithm {name!r}") from None
        if not slash:
            return cls(kind, StepSchedule.SQRT_N if kind is AlgorithmKind.MULTI_SOA else None)
        try:
            return cls(kind, StepSchedule(sched))
        except ValueError as exc:
            raise ValueError(f"{token.strip()!r}: {exc}") from None

    @property
    def label(self) -> str:
        if self.schedule is None or self.kind is AlgorithmKind.MULTI_SOA:
            return self.kind.value
        return f"{self.kind.value}/{self.schedule.value}"


# Steps per kernel chunk: each chunk copies the next columns of every running
# instance into one small buffer, so the batch is never stacked whole.
_CHUNK = 64


def check_one_pass(inst, configs: Sequence[AlgorithmConfig]) -> None:
    """Raise ``ValueError`` unless every config is a one-pass kind that can run on ``inst``."""
    for cfg in configs:
        if cfg.kind not in _ONE_PASS:
            raise ValueError(f"{cfg.kind.value} is not a one-pass algorithm")
        if _ONE_PASS[cfg.kind][1] and inst.n < 2:
            raise ValueError("budget-tracking run needs n >= 2")


def run_one_pass(instances: Sequence, configs: Sequence[AlgorithmConfig],
                 rng_seeds: Sequence[Sequence[int]]) -> List[List[RunTrace]]:
    """Step every one-pass config over every instance at once; returns ``traces[config][instance]``.

    A row is one (config, instance) pair.  Column t is tentatively accepted
    iff its reward strictly beats its priced usage (with k alternatives: iff
    the best reward minus priced usage is positive); the prices then move
    along (tentative usage - target) times the step size, clamped at zero,
    where the config's kind sets the gate and the target (see ``_ONE_PASS``).
    The instances share m and the number of alternatives k, not n: they run
    longest first, step t steps only those with n > t, and a row's state
    stays as its own last step left it.  Each row keeps its own prices,
    consumption, budget and step sizes, so a row's trace does not depend on
    what else is in the batch: per-row dot products are ``np.vecdot`` of that
    row alone, and every other operation is elementwise.
    ``rng_seeds[i][j]`` seeds row (i, j)'s tie-breaking stream, which draws
    only when two or more alternatives tie for the best positive value.
    Decisions record the chosen alternative 1..k, 0 for reject.  Raises
    ``ValueError`` if :func:`check_one_pass` rejects an instance.
    """
    if not instances or not configs:
        raise ValueError("a one-pass batch needs at least one instance and one config")
    if len(rng_seeds) != len(configs) or any(len(row) != len(instances) for row in rng_seeds):
        raise ValueError("a one-pass batch needs one seed per (config, instance) row")
    for inst in instances:
        check_one_pass(inst, configs)
    # Instances run longest first (stable), so the ones still running at any
    # step are a prefix of the instance axis.
    by_n = sorted(range(len(instances)), key=lambda j: -instances[j].n)
    # rewards (n, k) and usage vectors (n, k, m) of each instance; plain ones have k = 1
    data = [(x.reward_blocks, x.column_blocks.transpose(0, 2, 1)) if isinstance(x, MultiInstance)
            else (x.rewards[:, None], x.columns.T[:, None, :])
            for x in (instances[j] for j in by_n)]
    _, k, m = data[0][1].shape
    if any(cols.shape[1:] != (k, m) for _, cols in data):
        raise ValueError("the instances of a one-pass batch must share m and k")
    lengths = [len(r) for r, _ in data]
    capacity = np.stack([instances[j].capacity for j in by_n])
    n_inst = len(instances)

    # Rows run sorted so that plain, budget-tracking and gated configs, and
    # equal schedules within them, occupy contiguous slices.
    order = sorted(range(len(configs)), key=lambda i: (
        _ONE_PASS[configs[i].kind], configs[i].schedule.value))
    ranked = [configs[i] for i in order]
    n_gated = sum(_ONE_PASS[c.kind][0] for c in ranked)
    n_track = sum(_ONE_PASS[c.kind][1] for c in ranked)
    gated = slice(len(ranked) - n_gated, len(ranked))
    track = slice(gated.start - n_track, gated.start)
    # each schedule's step sizes for an n-step run, computed once per n
    gammas = {(c.schedule, n): np.broadcast_to(c.schedule.gamma(np.arange(1.0, n + 1), n), n)
              for c in ranked for n in set(lengths)}
    # instances of equal n, as (n, first, stop) runs of the instance axis
    runs = [(n, lengths.index(n), n_inst - lengths[::-1].index(n)) for n in sorted(set(lengths))]

    shape = (len(ranked), n_inst, m)
    target = np.repeat((capacity / np.array(lengths, dtype=float)[:, None])[None],
                       len(ranked), axis=0)
    budget = np.repeat(capacity[None], n_track, axis=0)
    used = np.zeros((n_gated, n_inst, m))
    prices = np.zeros(shape)
    peak = np.zeros(shape[:2])
    chosen = np.zeros((lengths[0],) + shape[:2], dtype=bool if k == 1 else np.int32)
    vecdot = np.vecdot
    rngs = [[np.random.default_rng(rng_seeds[i][j]) for j in by_n] for i in order] \
        if k > 1 else None
    t0 = 0
    while t0 < lengths[0]:
        # One chunk: the running instances [0, a) stay the same throughout,
        # and those of n == t1 (the instances [a_next, a)) end at its last step.
        a = sum(n > t0 for n in lengths)
        t1 = min(t0 + _CHUNK, lengths[a - 1])
        a_next = sum(n > t1 for n in lengths)
        span = t1 - t0
        rewards = np.empty((span, a, k))
        columns = np.empty((span, a, k, m))
        for j in range(a):
            rewards[:, j] = data[j][0][t0:t1]
            columns[:, j] = data[j][1][t0:t1]
        steps = np.empty((span, len(ranked), a, 1))
        for i, cfg in enumerate(ranked):
            for n, first, stop in (run for run in runs if run[0] > t0):
                steps[:, i, first:stop, 0] = gammas[cfg.schedule, n][t0:t1, None]
        # n - t - 1, the steps left after step t, by which budget tracking divides
        left = (np.array(lengths[:a], dtype=float)[None, :, None]
                - np.arange(t0 + 1.0, t1 + 1)[:, None, None])
        norm_sq = np.empty((span, len(ranked), a))
        step = np.empty((len(ranked), a, m))
        prices_a, target_a, capacity_a = prices[:, :a], target[:, :a], capacity[:a]
        used_a, budget_a, track_target_a = used[:, :a], budget[:, :a], target[track, :a]
        if k == 1:
            rewards, columns = rewards[:, :, 0], columns[:, :, 0]
        prices_k = prices_a[:, :, None, :]
        for c, (reward, cols, decided, gamma, left_c, norm_sq_c) in enumerate(
                zip(rewards, columns, chosen[t0:t1, :, :a], steps, left, norm_sq)):
            if k == 1:
                usage = cols
                accept = decided
                np.greater(reward, vecdot(usage, prices_a), out=accept)
            else:
                values = reward - vecdot(cols, prices_k)
                best = values.max(axis=-1)
                accept = best > 0.0
                pick = values.argmax(axis=-1)
                tied = values == best[..., None]
                for i, j in zip(*np.nonzero(accept & (tied.sum(axis=-1) > 1))):
                    ties = np.flatnonzero(tied[i, j])
                    pick[i, j] = ties[int(rngs[i][j].integers(len(ties)))]
                usage = np.take_along_axis(cols[None], pick[..., None, None], axis=2)[:, :, 0]
            np.multiply(accept[..., None], usage, out=step)
            if n_gated:
                # realize a tentative accept only while it fits; the prices
                # still follow the tentative decision
                after = used_a + (usage[gated] if k > 1 else usage)
                realized = accept[gated]
                realized &= np.logical_and.reduce(after <= capacity_a, axis=-1)
                np.copyto(used_a, after, where=realized[..., None])
            if k > 1:
                np.multiply(pick + 1, accept, out=decided)
            last = c + 1 == span and a_next < a
            if n_track:
                if not last:
                    budget_a -= step[track]
                    np.divide(budget_a, left_c, out=track_target_a)
                elif a_next:
                    budget[:, :a_next] -= step[track, :a_next]
                    np.divide(budget[:, :a_next], left_c[:a_next], out=target[track, :a_next])
            step -= target_a
            step *= gamma
            if n_track and last:
                # the update after a row's final decision would divide by zero
                # and is dead state anyway, so budget tracking skips it
                step[track, a_next:] = 0.0
            prices_a += step
            np.maximum(prices_a, 0.0, out=prices_a)
            vecdot(prices_a, prices_a, out=norm_sq_c)
        np.maximum(peak[:, :a], norm_sq.max(axis=0), out=peak[:, :a])
        t0 = t1

    traces: List[List[RunTrace]] = [[None] * n_inst for _ in configs]
    for i, pos in enumerate(order):
        for jj, j in enumerate(by_n):
            rewards, columns = data[jj]
            decisions = chosen[:lengths[jj], i, jj].astype(np.int8 if k == 1 else np.int32)
            picked = np.flatnonzero(decisions)
            alt = decisions[picked] - 1
            # in-order sums from zero, bit for bit the += of a scalar loop; the
            # copy of the last partial sum lets the others go
            sums = np.cumsum(np.vstack((np.zeros(m), columns[picked, alt])), axis=0)
            traces[pos][j] = RunTrace(
                decisions=decisions,
                objective=float(np.cumsum(np.append(0.0, rewards[picked, alt]))[-1]),
                consumption=sums[-1].copy(),
                final_prices=prices[i, jj].copy(),
                max_dual_norm=math.sqrt(peak[i, jj]),
            )
    return traces


def _run_single(inst, cfg: AlgorithmConfig, kind: AlgorithmKind, rng_seed: int = 0) -> RunTrace:
    if cfg.kind is not kind:
        raise ValueError(f"config is for {cfg.kind.value}, expected {kind.value}")
    [[trace]] = run_one_pass([inst], [cfg], [[rng_seed]])
    return trace


def run_soa(inst: Instance, cfg: AlgorithmConfig) -> RunTrace:
    """One-pass subgradient run with no feasibility enforcement (see :func:`run_one_pass`)."""
    return _run_single(inst, cfg, AlgorithmKind.SOA)


def run_sfa(inst: Instance, cfg: AlgorithmConfig) -> RunTrace:
    """Gated one-pass run: SOA's prices, realized decisions kept feasible."""
    return _run_single(inst, cfg, AlgorithmKind.SFA)


def run_sna(inst: Instance, cfg: AlgorithmConfig) -> RunTrace:
    """One-pass run whose subgradient aims at the remaining budget rate."""
    return _run_single(inst, cfg, AlgorithmKind.SNA)


def run_multi_soa(minst: MultiInstance, cfg: AlgorithmConfig, rng_seed: int = 0) -> RunTrace:
    """Multi-choice one-pass run: the best positive-valued alternative; ``rng_seed`` breaks ties."""
    return _run_single(minst, cfg, AlgorithmKind.MULTI_SOA, rng_seed)


def run_prefix_lp(inst: Instance, kinds: Sequence[AlgorithmKind],
                  rng_seeds: Sequence[int]) -> List[RunTrace]:
    """Step the per-step-LP baselines together; returns one trace per entry of ``kinds``.

    Step t solves the capacity-shrunk LP over columns 1..t once for all rows,
    warm-started from step t-1's final basis (see
    :func:`~onlinelp.simplex.solve_scaled`): the start changes how each LP is
    solved, not which LP.  The pass keeps one
    :class:`~onlinelp.simplex.PrefixWorkspace`, so a step writes column t
    into it instead of rebuilding ``[A | I]``, and pivots on the basis and
    the inverse the previous step ended with.  A DLA row thresholds column
    t against the dual prices of step t-1's LP (zero prices at t=1), with no
    feasibility enforcement; it ignores its seed.  A PBD row sets x_t to 1 with
    probability equal to the t-th coordinate of step t's optimum, drawing
    exactly one number per step from its own stream ``rng_seeds[i]``,
    degenerate probabilities included, so traces are seed-stable under code
    motion.  No row depends on the others.
    """
    if not kinds or any(kind not in PREFIX_LP_KINDS for kind in kinds):
        raise ValueError("a prefix-LP pass takes one or more DLA and PBD rows")
    if len(rng_seeds) != len(kinds):
        raise ValueError("a prefix-LP pass needs one seed per row")
    n, m = inst.n, inst.m
    cols = np.ascontiguousarray(inst.columns.T)
    rewards = inst.rewards
    # DLA rows draw nothing; every DLA row takes the same decisions
    rngs = [None if kind is AlgorithmKind.DLA else np.random.default_rng(seed)
            for kind, seed in zip(kinds, rng_seeds)]
    decisions = [np.zeros(n, dtype=np.int8) for _ in kinds]
    consumption = [np.zeros(m) for _ in kinds]
    objective = [0.0] * len(kinds)
    p = np.zeros(m)
    max_norm = 0.0
    sol = None
    work = PrefixWorkspace(inst)
    for t in range(n):
        dla_accepts = threshold_decision(rewards[t], cols[t], p)
        sol = solve_scaled(inst, t + 1, prev=sol, work=work)
        prob = min(max(float(sol.primal[t]), 0.0), 1.0)
        for i, rng in enumerate(rngs):
            if (dla_accepts if rng is None else float(rng.random()) < prob):
                decisions[i][t] = 1
                objective[i] += rewards[t]
                consumption[i] += cols[t]
        p = sol.duals
        max_norm = max(max_norm, math.sqrt(float(p @ p)))
    return [RunTrace(
        decisions=decisions[i],
        objective=float(objective[i]),
        consumption=consumption[i],
        final_prices=p.copy() if rng is None else np.zeros(m),
        max_dual_norm=max_norm if rng is None else None,
    ) for i, rng in enumerate(rngs)]


def run_dla(inst: Instance) -> RunTrace:
    """Per-step-LP baseline: decide with the prefix LP's dual prices (see :func:`run_prefix_lp`)."""
    return run_prefix_lp(inst, [AlgorithmKind.DLA], [0])[0]


def run_pbd(inst: Instance, rng_seed: int) -> RunTrace:
    """Per-step-LP baseline: round the prefix LP's own fractional value (see :func:`run_prefix_lp`)."""
    return run_prefix_lp(inst, [AlgorithmKind.PBD], [rng_seed])[0]


def repair_feasibility(inst: Instance, trace: RunTrace, rng_seed: int) -> RunTrace:
    """Randomized removal pass turning a binary trace into a feasible one w.h.p.

    The scaled worst violation ``v = max_i (consumption_i - b_i)^+ /
    (sqrt(n) * log(n))`` is clamped below at 1, so removal happens even for
    already-feasible traces.  A uniform subset of the accepted indices of size
    ``min(floor(2 v n_plus log(n) / (d_lo sqrt(n))) + 1, n_plus)`` is zeroed
    (natural logarithm, floor), where ``d_lo`` is the instance's smallest
    per-column budget; objective and consumption are recomputed.
    """
    n = inst.n
    if n < 3:
        raise ValueError("repair needs n >= 3 so that log n exceeds 1")
    decisions = np.asarray(trace.decisions)
    if decisions.shape != (n,) or not ((decisions == 0) | (decisions == 1)).all():
        raise ValueError("repair applies to binary decision traces of the instance")
    worst = float(np.max(trace.consumption - inst.capacity))
    log_n = math.log(n)
    sqrt_n = math.sqrt(n)
    v = max(max(worst, 0.0) / (sqrt_n * log_n), 1.0)
    s_plus = np.flatnonzero(decisions == 1)
    n_plus = int(s_plus.size)
    if n_plus == 0:
        return trace
    d_lo = float(inst.per_column_budget.min())
    size = min(math.floor(2.0 * v * n_plus * log_n / (d_lo * sqrt_n)) + 1, n_plus)
    rng = np.random.default_rng(rng_seed)
    removed = rng.choice(s_plus, size=size, replace=False)
    new_decisions = decisions.copy()
    new_decisions[removed] = 0
    x = new_decisions.astype(np.float64)
    return RunTrace(
        decisions=new_decisions,
        objective=float(inst.rewards @ x),
        consumption=inst.columns @ x,
        final_prices=trace.final_prices,
        max_dual_norm=trace.max_dual_norm,
    )

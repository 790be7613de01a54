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
)
from .simplex import solve_prefix_lps
# A tracer shim: solve_scaled stays bound here because perfbench/spans.py looks
# it up in this module; run_prefix_lp solves through solve_prefix_lps.
from .simplex import solve_scaled  # noqa: F401

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


def _batch_order(instances: Sequence, configs: Sequence[AlgorithmConfig],
                 rng_seeds: Sequence[Sequence[int]]) -> List[int]:
    """Check a batch's arguments; returns its instances' indices longest first (stable)."""
    if not instances or not configs:
        raise ValueError("a batch needs at least one instance and one config")
    if len(rng_seeds) != len(configs) or any(len(row) != len(instances) for row in rng_seeds):
        raise ValueError("a batch needs one seed per (config, instance) row")
    return sorted(range(len(instances)), key=lambda j: -instances[j].n)


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
    ``ValueError`` on a malformed batch or one that :func:`check_one_pass` rejects.
    """
    by_n = _batch_order(instances, configs, rng_seeds)
    for inst in instances:
        check_one_pass(inst, configs)
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
            traces[pos][j] = _trace(decisions, rewards[picked, alt], columns[picked, alt],
                                    prices[i, jj].copy(), math.sqrt(peak[i, jj]))
    return traces


def _trace(decisions, taken_rewards, taken_columns, final_prices, max_dual_norm) -> RunTrace:
    """A run's trace from its decisions and the rewards and usage vectors it took, in order."""
    # in-order sums from zero, bit for bit the += of a scalar loop; the copy
    # of the last partial sum lets the others go
    sums = np.cumsum(np.vstack((np.zeros(len(final_prices)), taken_columns)), axis=0)
    return RunTrace(
        decisions=decisions,
        objective=float(np.cumsum(np.append(0.0, taken_rewards))[-1]),
        consumption=sums[-1].copy(),
        final_prices=final_prices,
        max_dual_norm=max_dual_norm,
    )


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


def run_prefix_lp(instances: Sequence[Instance], configs: Sequence[AlgorithmConfig],
                  rng_seeds: Sequence[Sequence[int]]) -> List[List[RunTrace]]:
    """Step DLA and PBD over every instance at once; returns ``traces[config][instance]``.

    A row is one (config, instance) pair.  Step t solves each instance's
    capacity-shrunk LP over columns 1..t once for all its rows, warm-started
    from step t-1's final basis, in one lockstep pass over the instances
    (see :func:`~onlinelp.simplex.solve_prefix_lps`): the start changes how
    each LP is solved, not which LP.  The instances share m, not n: they run
    longest first, and step t steps only those with n > t.  A DLA row
    thresholds column t against the dual prices of step t-1's LP (zero
    prices at t=1), with no feasibility enforcement; it ignores its seed.  A
    PBD row sets x_t to 1 with probability equal to the t-th coordinate of
    step t's optimum, drawing exactly one number per step from its own
    stream ``rng_seeds[i][j]``, degenerate probabilities included, so traces
    are seed-stable under code motion.  No row depends on the others or on
    the other instances of the batch.  Raises ``ValueError`` on a malformed
    batch, a config of another kind, or instances that do not share m.
    """
    by_n = _batch_order(instances, configs, rng_seeds)
    for cfg in configs:
        if cfg.kind not in PREFIX_LP_KINDS:
            raise ValueError(f"{cfg.kind.value} is not a prefix-LP algorithm")
    ordered = [instances[j] for j in by_n]
    steps = solve_prefix_lps(ordered)
    cells, n_max, m = len(ordered), ordered[0].n, ordered[0].m
    pbd = [i for i, cfg in enumerate(configs) if cfg.kind is AlgorithmKind.PBD]
    rngs = [[np.random.default_rng(rng_seeds[i][j]) for j in by_n] for i in pbd]
    drawn = np.zeros((len(pbd), cells, n_max), dtype=bool)
    # prices[k, t] are cell k's prices before step t: zero, then step t-1's duals
    prices = np.zeros((cells, n_max + 1, m))
    for t, step in enumerate(steps):
        a = len(step.primal)
        prices[:a, t + 1] = step.duals
        if rngs:
            prob = np.minimum(np.maximum(step.primal, 0.0), 1.0).tolist()
            for taken, row in zip(drawn, rngs):
                taken[:a, t] = [float(rng.random()) < q for rng, q in zip(row, prob)]

    traces: List[List[RunTrace]] = [[None] * cells for _ in configs]
    for k, (j, inst) in enumerate(zip(by_n, ordered)):
        cols, seen = np.ascontiguousarray(inst.columns.T), prices[k, :inst.n + 1]
        # every step's decision and price norm at once, by the dot products
        # a step-by-step loop would take
        accepts = inst.rewards > (cols[:, None, :] @ seen[:-1, :, None])[:, 0, 0]
        norm_sq = (seen[1:, None, :] @ seen[1:, :, None]).max()
        for i, cfg in enumerate(configs):
            if cfg.kind is AlgorithmKind.DLA:
                taken, final, norm = accepts, seen[-1].copy(), math.sqrt(norm_sq)
            else:
                taken, final, norm = drawn[pbd.index(i), k, :inst.n], np.zeros(m), None
            picked = np.flatnonzero(taken)
            traces[i][j] = _trace(taken.astype(np.int8), inst.rewards[picked], cols[picked],
                                  final, norm)
    return traces


def run_dla(inst: Instance) -> RunTrace:
    """Per-step-LP baseline: decide with the prefix LP's dual prices (see :func:`run_prefix_lp`)."""
    return run_prefix_lp([inst], [AlgorithmConfig(AlgorithmKind.DLA)], [[0]])[0][0]


def run_pbd(inst: Instance, rng_seed: int) -> RunTrace:
    """Per-step-LP baseline: round the prefix LP's own fractional value (see :func:`run_prefix_lp`)."""
    return run_prefix_lp([inst], [AlgorithmConfig(AlgorithmKind.PBD)], [[rng_seed]])[0][0]


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

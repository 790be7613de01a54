"""The online algorithms: one-pass subgradient variants, per-step-LP baselines,
and the randomized feasibility repair post-processor.

Every run consumes the columns of one instance in storage order (callers
permute beforehand when arrival order should be random) and emits a
:class:`~onlinelp.core.RunTrace`.  Runs are bit-deterministic given the
instance bytes, the configuration, and the seed.
"""
from __future__ import annotations

import enum
import itertools
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
from .simplex import solve_scaled

__all__ = [
    "AlgorithmKind",
    "AlgorithmConfig",
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


def run_one_pass(instances: Sequence, configs: Sequence[AlgorithmConfig],
                 rng_seeds: Sequence[Sequence[int]]) -> List[List[RunTrace]]:
    """Step every one-pass config over every instance at once; returns ``traces[config][instance]``.

    A row is one (config, instance) pair.  Column t is tentatively accepted
    iff its reward strictly beats its priced usage (with k alternatives: iff
    the best reward minus priced usage is positive); the prices then move
    along (tentative usage - target) times the step size, clamped at zero,
    where the config's kind sets the gate and the target (see ``_ONE_PASS``).
    All instances share n, m and the number of alternatives k; each row keeps
    its own prices, consumption and budget, so a row's trace does not depend
    on what else is in the batch: per-row dot products are ``np.vecdot`` of
    that row alone, and every other operation is elementwise.
    ``rng_seeds[i][j]`` seeds row (i, j)'s tie-breaking stream, which draws
    only when two or more alternatives tie for the best positive value.
    Decisions record the chosen alternative 1..k, 0 for reject.
    """
    if not instances or not configs:
        raise ValueError("a one-pass batch needs at least one instance and one config")
    if len(rng_seeds) != len(configs) or any(len(row) != len(instances) for row in rng_seeds):
        raise ValueError("a one-pass batch needs one seed per (config, instance) row")
    for cfg in configs:
        if cfg.kind not in _ONE_PASS:
            raise ValueError(f"{cfg.kind.value} is not a one-pass algorithm")
        if _ONE_PASS[cfg.kind][1] and min(inst.n for inst in instances) < 2:
            raise ValueError("budget-tracking run needs n >= 2")
    # rewards (n, k) and usage vectors (n, k, m) of each instance; plain ones have k = 1
    data = [(x.reward_blocks, x.column_blocks.transpose(0, 2, 1)) if isinstance(x, MultiInstance)
            else (x.rewards[:, None], x.columns.T[:, None, :]) for x in instances]
    n, k, m = data[0][1].shape
    if any(cols.shape != (n, k, m) for _, cols in data):
        raise ValueError("the instances of a one-pass batch must share n, m and k")
    rewards = np.stack([r for r, _ in data], axis=1)        # (n, K, k)
    columns = np.stack([c for _, c in data], axis=1)        # (n, K, k, m)
    capacity = np.stack([inst.capacity for inst in instances])
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
    steps, start = [], 0
    for schedule, group in itertools.groupby(c.schedule for c in ranked):
        stop = start + len(list(group))
        gammas = np.broadcast_to(schedule.gamma(np.arange(1.0, n + 1), n), n).tolist()
        steps.append((slice(start, stop), gammas))
        start = stop

    shape = (len(ranked), n_inst, m)
    target = np.repeat((capacity / n)[None], len(ranked), axis=0)
    budget = np.repeat(capacity[None], n_track, axis=0)
    used = np.zeros((n_gated, n_inst, m))
    prices = np.zeros(shape)
    # |p|^2 of the last `fold` steps; folding them into the running maximum once
    # per chunk saves a numpy call per step
    fold = 256
    norm_sq = np.zeros((fold,) + shape[:2])
    peak = np.zeros(shape[:2])
    chosen = np.zeros((n,) + shape[:2], dtype=bool if k == 1 else np.int32)
    plain_rewards, plain_columns = rewards[:, :, 0], columns[:, :, 0]
    vecdot = np.vecdot
    rngs = [[np.random.default_rng(rng_seeds[i][j]) for j in range(n_inst)] for i in order] \
        if k > 1 else None
    for t in range(n):
        if k == 1:
            usage = plain_columns[t]
            accept = chosen[t]
            np.greater(plain_rewards[t], vecdot(usage, prices), out=accept)
        else:
            values = rewards[t] - vecdot(columns[t], prices[:, :, None, :])
            best = values.max(axis=-1)
            accept = best > 0.0
            pick = values.argmax(axis=-1)
            tied = values == best[..., None]
            for i, j in zip(*np.nonzero(accept & (tied.sum(axis=-1) > 1))):
                ties = np.flatnonzero(tied[i, j])
                pick[i, j] = ties[int(rngs[i][j].integers(len(ties)))]
            usage = np.take_along_axis(columns[t][None], pick[..., None, None], axis=2)[:, :, 0]
            chosen[t] = (pick + 1) * accept
        step = accept[..., None] * usage
        if n_gated:
            after = used + (usage[gated] if k > 1 else usage)
            fits = np.logical_and.reduce(after <= capacity, axis=-1)
            fits &= accept[gated]
            np.copyto(used, after, where=fits[..., None])
            chosen[t, gated] *= fits
        if n_track and t + 1 < n:
            budget -= step[track]
            np.divide(budget, n - t - 1, out=target[track])
        step -= target
        for rows, gammas in steps:
            step[rows] *= gammas[t]
        if t + 1 == n:
            # the update after the final decision would divide by zero and is
            # dead state anyway, so budget tracking skips it
            step[track] = 0.0
        prices += step
        np.maximum(prices, 0.0, out=prices)
        vecdot(prices, prices, out=norm_sq[t % fold])
        if t % fold == fold - 1 or t + 1 == n:
            np.maximum(peak, norm_sq.max(axis=0), out=peak)

    traces: List[List[RunTrace]] = [[] for _ in configs]
    for i, pos in enumerate(order):
        for j in range(n_inst):
            decisions = chosen[:, i, j].astype(np.int8 if k == 1 else np.int32)
            picked = np.flatnonzero(decisions)
            alt = decisions[picked] - 1
            # in-order sums from zero, bit for bit the += of a scalar loop; the
            # copy of the last partial sum lets the others go
            sums = np.cumsum(np.vstack((np.zeros(m), columns[picked, j, alt])), axis=0)
            traces[pos].append(RunTrace(
                decisions=decisions,
                objective=float(np.cumsum(np.append(0.0, rewards[picked, j, alt]))[-1]),
                consumption=sums[-1].copy(),
                final_prices=prices[i, j].copy(),
                max_dual_norm=math.sqrt(peak[i, j]),
            ))
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
    solved, not which LP.  A DLA row thresholds column t against the dual
    prices of step t-1's LP (zero prices at t=1), with no feasibility
    enforcement; it ignores its seed.  A PBD row sets x_t to 1 with
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
    for t in range(n):
        dla_accepts = threshold_decision(rewards[t], cols[t], p)
        sol = solve_scaled(inst, t + 1, prev=sol)
        prob = min(max(float(sol.primal[t]), 0.0), 1.0)
        for i, rng in enumerate(rngs):
            if (dla_accepts if rng is None else float(rng.random()) < prob):
                decisions[i][t] = 1
                objective[i] += rewards[t]
                consumption[i] += cols[t]
        p = sol.duals
        max_norm = max(max_norm, float(np.linalg.norm(p)))
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
    if decisions.shape != (n,) or not np.isin(decisions, (0, 1)).all():
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

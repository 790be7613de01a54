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
from . import native
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
# within capacity in every coordinate (SFA); its prices still follow the
# tentative accept, so it moves the prices of the ungated kinds.
# ``track_budget`` targets the remaining budget rate ``b_t / (n - t)`` instead
# of the per-column budget ``d`` (SNA), and so moves prices of its own.
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

    Column t is tentatively accepted iff its reward strictly beats its priced
    usage (with k alternatives: iff the best reward minus priced usage is
    positive); the prices then move along (tentative usage - target) times
    the step size, clamped at zero, where the config's kind sets the target
    (see ``_ONE_PASS``).  A budget-tracking row's final step has step size 0,
    so its final prices are those its last decision saw.  A row is one price
    trajectory on one instance.  With k = 1 a trajectory depends only on the
    schedule and the target, so the SOA, SFA and multi-choice configs of one
    schedule share a row, and so does a config listed twice; budget tracking
    keeps a row per schedule.
    With k > 1 every config keeps its own row, since each breaks ties with
    its own stream.
    The instances share m and k, not n: they run longest first, each to its
    own n, and a row's state stays as its own last step left it.  Each row
    keeps its own prices, consumption, budget and step sizes, so a row's
    trace does not depend on what else is in the batch.
    Every dot product is the in-order sum of separately rounded products,
    so two engines step the rows with bit for bit the same answers on any
    host.  The compiled loop of ``_onepass.c`` steps every k = 1 batch where
    :func:`~onlinelp.native.engine` says its library loaded (it builds once
    per machine, into ``$XDG_CACHE_HOME/onlinelp/``, by default
    ``~/.cache/onlinelp/``).  The numpy kernel (:func:`_numpy_rows`) steps
    the rest, k > 1 batches everywhere, since only it draws their tie streams.
    ``rng_seeds[i][j]`` seeds config i's tie-breaking stream on instance j,
    which draws only when two or more alternatives tie for the best
    positive value.  Decisions record the chosen alternative 1..k, 0 for
    reject.  Each (config, instance) gets its own trace from its row's
    decisions (a gated row's realized ones); a row's configs share its final
    prices as one view, and every trace's arrays are read-only.  Raises
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
    capacity = np.stack([instances[j].capacity for j in by_n])

    gates, tracks = zip(*(_ONE_PASS[c.kind] for c in configs))
    trajectory = [(tracks[i], c.schedule) if k == 1 else i for i, c in enumerate(configs)]
    lead = {}  # each trajectory's first config
    for i, key in enumerate(trajectory):
        lead.setdefault(key, i)
    gating = {key for key, gate in zip(trajectory, gates) if gate}
    # Rows run sorted so that plain rows, gated rows and budget-tracking
    # rows, and equal schedules within them, occupy contiguous slices.
    keys = sorted(lead, key=lambda key: (
        tracks[lead[key]], key in gating, configs[lead[key]].schedule.value))
    row = {key: r for r, key in enumerate(keys)}
    schedules = [configs[lead[key]].schedule for key in keys]
    n_track = sum(tracks[lead[key]] for key in keys)
    track = slice(len(keys) - n_track, len(keys))
    gated = slice(track.start - len(gating), track.start)
    lengths = [len(r) for r, _ in data]
    if k == 1 and native.engine() == "compiled":
        steps = native.step_rows(data, capacity, schedules, gated, track)
    else:
        rngs = [[np.random.default_rng(rng_seeds[key][j]) for j in by_n] for key in keys] \
            if k > 1 else None
        steps = _numpy_rows(data, capacity, schedules, gated, track, rngs)
    decided, realized, prices, peak = steps

    prices.flags.writeable = False  # the traces' final prices are views of it
    traces: List[List[RunTrace]] = [[None] * len(instances) for _ in configs]
    for jj, j in enumerate(by_n):
        n, rewards = lengths[jj], data[jj][0]
        for i, key in enumerate(trajectory):
            r = row[key]
            decisions = decided[r, jj, :n]
            if gates[i]:
                decisions = decisions * realized[r - gated.start, jj, :n]
            decisions = decisions.astype(np.int8 if k == 1 else np.int32)
            traces[i][j] = _trace(decisions, rewards, prices[r, jj], math.sqrt(peak[r, jj]))
    return traces


def _numpy_rows(data, capacity, schedules, gated, track, rngs):
    """Step the rows of a batch in numpy; the engine for what the compiled loop does not take.

    ``data`` holds each instance's rewards (n, k) and usage vectors (n, k,
    m), longest first, ``capacity`` their capacities (instances, m), and
    ``schedules`` each row's schedule; rows ``gated`` realize their accepts
    only while they fit, rows ``track`` track the remaining budget, and
    ``rngs[r][j]`` is row r's tie stream on instance j (``None`` for k = 1).
    Returns every row's tentative decisions (rows, instances, n_max), the
    gated rows' realized accepts (gated rows, instances, n_max), the final
    prices (rows, instances, m) and the largest squared price norms (rows,
    instances).  Step t steps only the instances with n > t.  Per-row dot
    products are in-order sums (:func:`_dot`), as the compiled loop's are,
    and every other operation is elementwise.  A gated row realizes a
    tentative accept iff ``used + usage <= capacity`` in every coordinate,
    and only a realized accept adds to ``used``, as the compiled loop steps
    it.
    """
    _, k, m = data[0][1].shape
    lengths = [len(r) for r, _ in data]
    n_inst, rows, n_gated = len(data), len(schedules), gated.stop - gated.start
    n_track = track.stop - track.start
    ns = np.array(lengths, dtype=float)

    shape = (rows, n_inst, m)
    target = np.repeat((capacity / ns[:, None])[None], rows, axis=0)
    budget = np.repeat(capacity[None], n_track, axis=0)
    used = np.zeros((n_gated, n_inst, m))
    prices = np.zeros(shape)
    peak = np.zeros(shape[:2])
    # tentative decisions of every row, and the realized accepts of the gated rows
    chosen = np.zeros((lengths[0],) + shape[:2], dtype=bool if k == 1 else np.int32)
    realized = np.zeros((lengths[0], n_gated, n_inst), dtype=bool)
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
        t = np.arange(t0 + 1.0, t1 + 1)[:, None]
        steps = np.empty((span, rows, a, 1))
        for i, schedule in enumerate(schedules):
            steps[:, i, :, 0] = schedule.gamma(t, ns[:a])
        # A budget-tracking row's final step has step size 0, so its prices
        # stay put, and it divides by 1 where n - t - 1, the steps left after
        # step t, reaches 0: its budget and target are not read again.
        steps[-1, track, a_next:] = 0.0
        left = np.maximum(ns[:a, None] - t[:, :, None], 1.0)
        step = np.empty((rows, a, m))
        squares = np.empty((rows, a, m))  # scratch of the price norms
        products = squares if k == 1 else np.empty((rows, a, k, m))  # of the decisions
        norms = np.empty((span, rows, a))  # each step's squared price norms
        want = np.empty((n_gated, a, m))
        target_a = target[:, :a]
        budget_a, track_target_a = budget[:, :a], target[track, :a]
        used_a, capacity_a, peak_a = used[:, :a], capacity[:a], peak[:, :a]
        if k == 1:
            rewards, columns = rewards[:, :, 0], columns[:, :, 0]
        prices_a = prices[:, :a].copy()  # a step runs faster on a copy than on a strided view
        for reward, cols, decided, fits, norm, gamma, left_c in zip(
                rewards, columns, chosen[t0:t1, :, :a], realized[t0:t1, :, :a], norms, steps,
                left):
            if k == 1:
                usage = cols
                accept = decided
                np.greater(reward, _dot(usage, prices_a, products), out=accept)
            else:
                values = reward - _dot(cols, prices_a[:, :, None, :], products)
                best = np.maximum.reduce(values, axis=-1)
                accept = best > 0.0
                pick = values.argmax(axis=-1)
                tied = values == best[..., None]
                for i, j in zip(*np.nonzero(accept & (tied.sum(axis=-1) > 1))):
                    ties = tied[i, j].nonzero()[0]
                    pick[i, j] = ties[int(rngs[i][j].integers(len(ties)))]
                usage = np.take_along_axis(cols[None], pick[..., None, None], axis=2)[:, :, 0]
                np.multiply(pick + 1, accept, out=decided)
            if n_gated:
                np.add(used_a, usage if k == 1 else usage[gated], out=want)
                np.logical_and.reduce(want <= capacity_a, axis=-1, out=fits)
                fits &= accept[gated]
                np.copyto(used_a, want, where=fits[..., None])
            np.multiply(accept[..., None], usage, out=step)
            if n_track:
                budget_a -= step[track]
                np.divide(budget_a, left_c, out=track_target_a)
            step -= target_a
            step *= gamma
            prices_a += step
            np.maximum(prices_a, 0.0, out=prices_a)
            np.copyto(norm, _dot(prices_a, prices_a, squares))
        prices[:, :a] = prices_a
        np.maximum(peak_a, np.maximum.reduce(norms, axis=0), out=peak_a)
        t0 = t1
    return chosen.transpose(1, 2, 0), realized.transpose(1, 2, 0), prices, peak


def _dot(x, y, out):
    """``x . y`` along the last axis, summed in order from the first product; ``out`` is scratch.

    A multiply into ``out``, then ``np.add.accumulate``, which adds strictly
    in order, whatever the host's BLAS: the sums of ``_onepass.c``, which
    start from 0.0, bit for bit but for the sign of a zero sum, which no
    comparison sees.  Returns a view of ``out`` holding the sums.
    """
    np.multiply(x, y, out=out)
    return np.add.accumulate(out, axis=-1, out=out)[..., -1]


def _trace(decisions, rewards, final_prices, max_dual_norm) -> RunTrace:
    """A run's trace from its decisions, made read-only, and its (n, k) rewards.

    The objective is the in-order sum of the rewards of the alternatives
    taken: ``rewards[t, decisions[t] - 1]`` wherever ``decisions[t]`` is not 0.
    """
    decisions.flags.writeable = False
    picked = decisions.nonzero()[0]
    taken = rewards[picked, decisions[picked] - 1]
    return RunTrace(
        decisions=decisions,
        objective=float(np.concatenate(((0.0,), taken)).cumsum()[-1]),
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
    longest first, and step t steps only those with n > t.  A DLA row takes
    column t iff the pass favoured it: iff its reward beats its usage priced
    at step t-1's duals (zero prices at t=1), with no feasibility
    enforcement; it ignores its seed.  A PBD row sets x_t to 1 with
    probability equal to the t-th coordinate of step t's optimum, drawing
    exactly one number per step from its own stream ``rng_seeds[i][j]``,
    degenerate probabilities included, so traces are seed-stable under code
    motion.  No row depends on the others or on the other instances of the
    batch.  Raises ``ValueError`` on a malformed batch, a config of another
    kind, or instances that do not share m.
    """
    by_n = _batch_order(instances, configs, rng_seeds)
    for cfg in configs:
        if cfg.kind not in PREFIX_LP_KINDS:
            raise ValueError(f"{cfg.kind.value} is not a prefix-LP algorithm")
    ordered = [instances[j] for j in by_n]
    lps = solve_prefix_lps(ordered)
    prob = np.minimum(np.maximum(lps.primal, 0.0), 1.0)  # PBD's, one per step

    traces: List[List[RunTrace]] = [[None] * len(ordered) for _ in configs]
    for k, (j, inst) in enumerate(zip(by_n, ordered)):
        duals = lps.duals[k, :inst.n]
        norm_sq = np.maximum.reduce(duals[:, None, :] @ duals[:, :, None], axis=None)
        final = duals[-1].copy()  # a view would keep every cell's prices alive
        final.flags.writeable = False
        for i, cfg in enumerate(configs):
            if cfg.kind is AlgorithmKind.DLA:
                taken, last, norm = lps.favoured[k, :inst.n], final, math.sqrt(norm_sq)
            else:  # PBD keeps no prices; its stream draws one number per step
                draws = np.random.default_rng(rng_seeds[i][j]).random(inst.n)
                taken, last, norm = draws < prob[k, :inst.n], None, None
            traces[i][j] = _trace(taken.astype(np.int8), inst.rewards[:, None], last, norm)
    return traces


def run_dla(inst: Instance) -> RunTrace:
    """Per-step-LP baseline: decide with the prefix LP's dual prices (see :func:`run_prefix_lp`)."""
    return run_prefix_lp([inst], [AlgorithmConfig(AlgorithmKind.DLA)], [[0]])[0][0]


def run_pbd(inst: Instance, rng_seed: int) -> RunTrace:
    """Per-step-LP baseline: round the prefix LP's own fractional value (see :func:`run_prefix_lp`)."""
    return run_prefix_lp([inst], [AlgorithmConfig(AlgorithmKind.PBD)], [[rng_seed]])[0][0]


def repair_feasibility(inst: Instance, trace: RunTrace, rng_seed: int) -> RunTrace:
    """Randomized removal pass turning a binary trace into a feasible one w.h.p.

    The scaled worst violation ``v = max_i (A x - b)_i^+ / (sqrt(n) *
    log(n))`` of the trace's decisions x is clamped below at 1, so removal
    happens even for already-feasible traces.  A uniform subset of the
    accepted indices of size ``min(floor(2 v n_plus log(n) / (d_lo
    sqrt(n))) + 1, n_plus)`` is zeroed (natural logarithm, floor), where
    ``d_lo`` is the instance's smallest per-column budget.  The objective is
    recomputed; the final prices and the price norm pass through.
    """
    n = inst.n
    if n < 3:
        raise ValueError("repair needs n >= 3 so that log n exceeds 1")
    decisions = np.asarray(trace.decisions)
    if decisions.shape != (n,) or not np.logical_and.reduce((decisions == 0) | (decisions == 1)):
        raise ValueError("repair applies to binary decision traces of the instance")
    worst = float(np.maximum.reduce(inst.columns @ decisions.astype(np.float64) - inst.capacity))
    log_n = math.log(n)
    sqrt_n = math.sqrt(n)
    v = max(max(worst, 0.0) / (sqrt_n * log_n), 1.0)
    s_plus = (decisions == 1).nonzero()[0]
    n_plus = int(s_plus.size)
    if n_plus == 0:
        return trace
    d_lo = float(np.minimum.reduce(inst.per_column_budget))
    size = min(math.floor(2.0 * v * n_plus * log_n / (d_lo * sqrt_n)) + 1, n_plus)
    rng = np.random.default_rng(rng_seed)
    removed = rng.choice(s_plus, size=size, replace=False)
    kept = decisions.copy()
    kept[removed] = 0
    return _trace(kept, inst.rewards[:, None], trace.final_prices, trace.max_dual_norm)

"""Domain types and column-level arithmetic shared by the solvers, generators and metrics.

The central object is :class:`Instance`: a binary packing program
``max r @ x  s.t.  A x <= b,  x in {0,1}^n`` stored dense, with the
per-column budget ``d = b / n`` precomputed once so every downstream
consumer reads the same vector.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = [
    "Instance",
    "InstanceStats",
    "MultiInstance",
    "RunTrace",
    "StepSchedule",
    "compute_stats",
    "violation_norm",
    "dual_saa_objective",
    "threshold_decision",
    "price_norm_bound",
]


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(np.asarray(a, dtype=np.float64))
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Instance:
    """A binary packing program with dense data.

    ``rewards`` has length n, ``columns`` is the m-by-n constraint matrix whose
    j-th column holds the resource usage of item j, and ``capacity`` has
    length m.  ``per_column_budget`` is ``capacity / n`` and must be strictly
    positive in every coordinate.  Instances are immutable after construction
    and safe to share across concurrent runs.
    """

    rewards: np.ndarray
    columns: np.ndarray
    capacity: np.ndarray
    n: int = field(init=False)
    m: int = field(init=False)
    per_column_budget: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        A = np.ascontiguousarray(np.asarray(self.columns, dtype=np.float64))
        if A.ndim != 2:
            raise ValueError("columns must be a 2-D matrix with one column per item")
        m, n = A.shape
        if n < 1 or m < 1:
            raise ValueError(f"need n >= 1 and m >= 1, got n={n}, m={m}")
        r = np.asarray(self.rewards, dtype=np.float64).reshape(-1)
        b = np.asarray(self.capacity, dtype=np.float64).reshape(-1)
        if r.shape != (n,):
            raise ValueError(f"rewards has length {r.shape[0]}, expected {n}")
        if b.shape != (m,):
            raise ValueError(f"capacity has length {b.shape[0]}, expected {m}")
        if not (np.isfinite(r).all() and np.isfinite(A).all() and np.isfinite(b).all()):
            raise ValueError("instance data must be finite")
        d = b / n
        if not (d > 0.0).all():
            raise ValueError("per-column budget b/n must be positive in every coordinate")
        object.__setattr__(self, "rewards", _freeze(r))
        object.__setattr__(self, "columns", _freeze(A))
        object.__setattr__(self, "capacity", _freeze(b))
        object.__setattr__(self, "per_column_budget", _freeze(d))
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "m", int(m))


@dataclass(frozen=True)
class InstanceStats:
    """Extremal magnitudes of an instance: max |reward|, max |entry|, min/max budget."""

    r_bar: float
    a_bar: float
    d_lo: float
    d_hi: float


def compute_stats(inst: Instance) -> InstanceStats:
    """Scan the full instance for its reward/entry magnitude bounds and budget range."""
    return InstanceStats(
        r_bar=float(np.abs(inst.rewards).max()),
        a_bar=float(np.abs(inst.columns).max()),
        d_lo=float(inst.per_column_budget.min()),
        d_hi=float(inst.per_column_budget.max()),
    )


@dataclass(frozen=True)
class MultiInstance:
    """Multi-choice variant: item j offers k alternatives, at most one may be picked.

    ``reward_blocks`` is (n, k) and ``column_blocks`` is (n, m, k); alternative
    l of item j has reward ``reward_blocks[j, l]`` and usage
    ``column_blocks[j, :, l]``.
    """

    reward_blocks: np.ndarray
    column_blocks: np.ndarray
    capacity: np.ndarray
    n: int = field(init=False)
    m: int = field(init=False)
    k: int = field(init=False)
    per_column_budget: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        R = np.ascontiguousarray(np.asarray(self.reward_blocks, dtype=np.float64))
        C = np.ascontiguousarray(np.asarray(self.column_blocks, dtype=np.float64))
        b = np.asarray(self.capacity, dtype=np.float64).reshape(-1)
        if R.ndim != 2 or C.ndim != 3:
            raise ValueError("reward_blocks must be (n, k) and column_blocks (n, m, k)")
        n, k = R.shape
        if C.shape != (n, b.shape[0], k):
            raise ValueError(f"column_blocks shape {C.shape} inconsistent with (n={n}, m={b.shape[0]}, k={k})")
        m = b.shape[0]
        if n < 1 or m < 1 or k < 1:
            raise ValueError("need n, m, k >= 1")
        if not (np.isfinite(R).all() and np.isfinite(C).all() and np.isfinite(b).all()):
            raise ValueError("instance data must be finite")
        d = b / n
        if not (d > 0.0).all():
            raise ValueError("per-column budget b/n must be positive in every coordinate")
        object.__setattr__(self, "reward_blocks", _freeze(R))
        object.__setattr__(self, "column_blocks", _freeze(C))
        object.__setattr__(self, "capacity", _freeze(b))
        object.__setattr__(self, "per_column_budget", _freeze(d))
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "m", int(m))
        object.__setattr__(self, "k", int(k))

    @classmethod
    def from_instance(cls, inst: Instance) -> "MultiInstance":
        """Wrap a plain instance as the k=1 multi-choice problem."""
        return cls(
            reward_blocks=inst.rewards[:, None],
            column_blocks=np.ascontiguousarray(inst.columns.T)[:, :, None],
            capacity=inst.capacity,
        )


class StepSchedule(enum.Enum):
    """Closed set of step-size schedules for the subgradient updates."""

    SQRT_N = "sqrt_n"
    SQRT_T = "sqrt_t"
    UNIT = "unit"

    def gamma(self, t, n: int):
        """Step size for step t (1-based) of an n-step run; t may be an array of steps."""
        if self is StepSchedule.SQRT_N:
            return 1.0 / math.sqrt(n)
        if self is StepSchedule.SQRT_T:
            return 1.0 / np.sqrt(t)
        return 1.0


@dataclass(frozen=True)
class RunTrace:
    """Outcome of one online run.

    ``decisions`` holds 0/1 for the scalar algorithms; the multi-choice
    algorithm stores the chosen alternative 1..k with 0 for reject.
    ``objective`` and ``consumption`` are the sequential accumulations the run
    actually performed; both are recomputable from (instance, decisions) to
    1e-9 relative tolerance.  ``max_dual_norm`` is the largest price norm the
    run reached, ``None`` for a run that keeps no prices (PBD).
    """

    decisions: np.ndarray
    objective: float
    consumption: np.ndarray
    final_prices: np.ndarray
    max_dual_norm: Optional[float]


def violation_norm(inst: Instance, x) -> float:
    """Euclidean norm of the positive part of ``A x - b`` for a 0/1 decision vector."""
    xv = np.asarray(x, dtype=np.float64).reshape(-1)
    if xv.shape != (inst.n,):
        raise ValueError(f"decision vector has length {xv.shape[0]}, expected {inst.n}")
    if not np.isin(xv, (0.0, 1.0)).all():
        raise ValueError("decision vector entries must be 0 or 1")
    excess = inst.columns @ xv - inst.capacity
    np.maximum(excess, 0.0, out=excess)
    return float(np.linalg.norm(excess))


def dual_saa_objective(inst: Instance, p) -> float:
    """Sample-average dual objective ``d @ p + mean((r_j - a_j @ p)^+)``.

    Defined on the non-negative orthant only; negative price entries are
    rejected.  Scaled by n this upper-bounds the dual optimum evaluated at p.
    """
    pv = np.asarray(p, dtype=np.float64).reshape(-1)
    if pv.shape != (inst.m,):
        raise ValueError(f"price vector has length {pv.shape[0]}, expected {inst.m}")
    if (pv < 0.0).any():
        raise ValueError("price vector must be non-negative")
    slack = inst.rewards - pv @ inst.columns
    np.maximum(slack, 0.0, out=slack)
    return float(inst.per_column_budget @ pv) + float(slack.sum()) / inst.n


def threshold_decision(r_t: float, a_t: np.ndarray, p: np.ndarray) -> int:
    """Accept (1) iff the reward strictly beats the priced resource usage.

    Ties ``r_t == a_t @ p`` resolve to reject; the comparison is exact, with
    no epsilon band.
    """
    return 1 if r_t > float(a_t @ p) else 0


def price_norm_bound(stats: InstanceStats, m: int) -> float:
    """A-priori cap on every price norm reachable by a unit-capped subgradient run.

    Holds deterministically whenever all step sizes are at most 1.
    """
    heavy = m * (stats.a_bar + stats.d_hi) ** 2
    return (2.0 * stats.r_bar + heavy) / stats.d_lo + m * (stats.a_bar + stats.d_hi)


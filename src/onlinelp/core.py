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
    "MultiInstance",
    "RunTrace",
    "StepSchedule",
    "violation_norm",
    "dual_saa_objective",
]


def _settle(inst, arrays: dict, **sizes: int) -> None:
    """Check ``arrays`` (field -> data) finite and b / n positive; store them read-only, with sizes.

    Each array must be the instance's own copy: it is frozen in place, and
    the compiled one-pass loop reads it by address.
    """
    if not all(np.isfinite(a).all() for a in arrays.values()):
        raise ValueError("instance data must be finite")
    d = arrays["capacity"] / sizes["n"]
    if not (d > 0.0).all():
        raise ValueError("per-column budget b/n must be positive in every coordinate")
    for name, value in dict(arrays, per_column_budget=d).items():
        value.flags.writeable = False
        object.__setattr__(inst, name, value)
    for name, size in sizes.items():
        object.__setattr__(inst, name, int(size))


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
        # np.array copies: the caller keeps its arrays, writeable and its own
        A = np.array(self.columns, dtype=np.float64, order="C")
        if A.ndim != 2:
            raise ValueError("columns must be a 2-D matrix with one column per item")
        m, n = A.shape
        if n < 1 or m < 1:
            raise ValueError(f"need n >= 1 and m >= 1, got n={n}, m={m}")
        r = np.array(self.rewards, dtype=np.float64).reshape(-1)
        b = np.array(self.capacity, dtype=np.float64).reshape(-1)
        if r.shape != (n,):
            raise ValueError(f"rewards has length {r.shape[0]}, expected {n}")
        if b.shape != (m,):
            raise ValueError(f"capacity has length {b.shape[0]}, expected {m}")
        _settle(self, {"rewards": r, "columns": A, "capacity": b}, n=n, m=m)


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
        R = np.array(self.reward_blocks, dtype=np.float64, order="C")
        C = np.array(self.column_blocks, dtype=np.float64, order="C")
        b = np.array(self.capacity, dtype=np.float64).reshape(-1)
        if R.ndim != 2 or C.ndim != 3:
            raise ValueError("reward_blocks must be (n, k) and column_blocks (n, m, k)")
        n, k = R.shape
        if C.shape != (n, b.shape[0], k):
            raise ValueError(f"column_blocks shape {C.shape} inconsistent with (n={n}, m={b.shape[0]}, k={k})")
        m = b.shape[0]
        if n < 1 or m < 1 or k < 1:
            raise ValueError("need n, m, k >= 1")
        _settle(self, {"reward_blocks": R, "column_blocks": C, "capacity": b}, n=n, m=m, k=k)

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

    def gamma(self, t, n):
        """Step size for step t (1-based) of an n-step run.

        t and n may be arrays (of steps, and of run lengths) that broadcast
        together; sqrt and division are correctly rounded, so each element is
        bitwise the scalar formula.
        """
        if self is StepSchedule.SQRT_N:
            return 1.0 / np.sqrt(n)
        if self is StepSchedule.SQRT_T:
            return 1.0 / np.sqrt(t)
        return 1.0


@dataclass(frozen=True)
class RunTrace:
    """What one online run decided, and the price state it ended in.

    ``decisions`` holds 0/1 for the scalar algorithms; the multi-choice
    algorithm stores the chosen alternative 1..k with 0 for reject.
    ``objective`` is the in-order sum of the taken rewards; the rest of the
    outcome, consumption and violation included, follows from the decisions
    and the instance.  ``final_prices`` is the price vector the run ended
    with and ``max_dual_norm`` the largest price norm it reached, both
    ``None`` for a run that keeps no prices (PBD).
    """

    decisions: np.ndarray
    objective: float
    final_prices: Optional[np.ndarray]
    max_dual_norm: Optional[float]


def violation_norm(inst: Instance, x) -> float:
    """Euclidean norm of the positive part of ``A x - b`` for a 0/1 decision vector."""
    xv = np.asarray(x, dtype=np.float64).reshape(-1)
    if xv.shape != (inst.n,):
        raise ValueError(f"decision vector has length {xv.shape[0]}, expected {inst.n}")
    if not np.logical_and.reduce((xv == 0.0) | (xv == 1.0)):
        raise ValueError("decision vector entries must be 0 or 1")
    excess = inst.columns @ xv - inst.capacity
    np.maximum(excess, 0.0, out=excess)
    return math.sqrt(excess.dot(excess))


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


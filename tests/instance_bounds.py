"""Extremal magnitudes of an instance and the a-priori price-norm cap they give.

The tests check the one-pass runs and the LP duals against these bounds; the
package itself never needs them.
"""
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class InstanceStats:
    """Extremal magnitudes of an instance: max |reward|, max |entry|, min/max budget."""

    r_bar: float
    a_bar: float
    d_lo: float
    d_hi: float


def compute_stats(inst) -> InstanceStats:
    """Scan the full instance for its reward/entry magnitude bounds and budget range."""
    return InstanceStats(
        r_bar=float(np.abs(inst.rewards).max()),
        a_bar=float(np.abs(inst.columns).max()),
        d_lo=float(inst.per_column_budget.min()),
        d_hi=float(inst.per_column_budget.max()),
    )


def price_norm_bound(stats: InstanceStats, m: int) -> float:
    """A-priori cap on every price norm reachable by a unit-capped subgradient run.

    Holds deterministically whenever all step sizes are at most 1.
    """
    heavy = m * (stats.a_bar + stats.d_hi) ** 2
    return (2.0 * stats.r_bar + heavy) / stats.d_lo + m * (stats.a_bar + stats.d_hi)

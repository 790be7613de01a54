"""Regret, violation, competitiveness, and scaling-law estimation over seeded runs."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .core import Instance, RunTrace, violation_norm
from .simplex import solve_relaxation

__all__ = [
    "TrialResult",
    "AggregateSummary",
    "ScalingFit",
    "evaluate_trial",
    "aggregate",
    "fit_scaling",
]


@dataclass(frozen=True)
class TrialResult:
    """One run measured against the offline box-relaxation optimum.

    ``regret`` is ``offline_lp_opt - objective`` by construction.
    ``competitiveness`` is ``objective / offline_lp_opt`` and is ``None``
    (flagged) when the optimum is not positive.  ``capacity_norm`` carries
    ``||b||_2`` so violations can be normalized without the instance.
    ``trial`` is the index of the run's trial in its experiment.
    ``max_dual_norm`` is ``None`` for a run that keeps no prices (PBD).
    """

    algorithm: str
    n: int
    m: int
    objective: float
    offline_lp_opt: float
    regret: float
    violation: float
    competitiveness: Optional[float]
    max_dual_norm: Optional[float]
    seed: int
    capacity_norm: float
    trial: int = 0


def evaluate_trial(inst: Instance, trace: RunTrace, lp_opt: Optional[float] = None, *,
                   algorithm: str = "", seed: Optional[int] = None,
                   trial: int = 0) -> TrialResult:
    """Measure a binary trace; solves the offline relaxation when no optimum is given."""
    if trace.decisions.shape != (inst.n,):
        raise ValueError("trace does not belong to this instance")
    if lp_opt is None:
        lp_opt = solve_relaxation(inst).objective
    lp_opt = float(lp_opt)
    objective = float(trace.objective)
    return TrialResult(
        algorithm=algorithm,
        n=inst.n,
        m=inst.m,
        objective=objective,
        offline_lp_opt=lp_opt,
        regret=lp_opt - objective,
        violation=violation_norm(inst, trace.decisions),
        competitiveness=(objective / lp_opt) if lp_opt > 0.0 else None,
        max_dual_norm=None if trace.max_dual_norm is None else float(trace.max_dual_norm),
        seed=int(seed if seed is not None else (trace.rng_seed or 0)),
        capacity_norm=float(np.linalg.norm(inst.capacity)),
        trial=int(trial),
    )


@dataclass(frozen=True)
class AggregateSummary:
    """Mean and standard error of each measure over a homogeneous trial group.

    Normalized regret divides by each trial's own LP optimum, normalized
    violation by each trial's capacity norm.  Trials whose LP optimum is not
    positive are excluded from the ratio statistics and counted in
    ``flagged_nonpositive_opt``.  ``mean_max_dual_norm`` is NaN when no trial
    has a price norm.
    """

    algorithm: str
    n: int
    m: int
    count: int
    mean_objective: float
    stderr_objective: float
    mean_regret: float
    stderr_regret: float
    mean_violation: float
    stderr_violation: float
    mean_normalized_regret: float
    stderr_normalized_regret: float
    mean_normalized_violation: float
    stderr_normalized_violation: float
    mean_competitiveness: float
    stderr_competitiveness: float
    mean_max_dual_norm: float
    flagged_nonpositive_opt: int


def _mean_stderr(values: Sequence[float]) -> Tuple[float, float]:
    # Sorting first makes the reduction independent of trial order bit for bit.
    arr = np.sort(np.asarray(values, dtype=np.float64))
    if arr.size == 0:
        return math.nan, math.nan
    mean = float(arr.mean())
    if arr.size == 1:
        return mean, 0.0
    return mean, float(arr.std(ddof=1) / math.sqrt(arr.size))


def aggregate(results: Sequence[TrialResult]) -> AggregateSummary:
    """Reduce trials of one (algorithm, n, m) group; order of the input is irrelevant."""
    if not results:
        raise ValueError("cannot aggregate an empty result list")
    keys = {(r.algorithm, r.n, r.m) for r in results}
    if len(keys) != 1:
        raise ValueError(f"mixed trial groups: {sorted(keys)}")
    algorithm, n, m = next(iter(keys))
    mean_obj, se_obj = _mean_stderr([r.objective for r in results])
    mean_reg, se_reg = _mean_stderr([r.regret for r in results])
    mean_vio, se_vio = _mean_stderr([r.violation for r in results])
    ok = [r for r in results if r.offline_lp_opt > 0.0]
    flagged = len(results) - len(ok)
    if ok:
        mean_nreg, se_nreg = _mean_stderr([r.regret / r.offline_lp_opt for r in ok])
        mean_cmp, se_cmp = _mean_stderr([r.objective / r.offline_lp_opt for r in ok])
    else:
        mean_nreg = se_nreg = mean_cmp = se_cmp = math.nan
    mean_nvio, se_nvio = _mean_stderr([r.violation / r.capacity_norm for r in results])
    mean_dual, _ = _mean_stderr([r.max_dual_norm for r in results if r.max_dual_norm is not None])
    return AggregateSummary(
        algorithm=algorithm,
        n=n,
        m=m,
        count=len(results),
        mean_objective=mean_obj,
        stderr_objective=se_obj,
        mean_regret=mean_reg,
        stderr_regret=se_reg,
        mean_violation=mean_vio,
        stderr_violation=se_vio,
        mean_normalized_regret=mean_nreg,
        stderr_normalized_regret=se_nreg,
        mean_normalized_violation=mean_nvio,
        stderr_normalized_violation=se_nvio,
        mean_competitiveness=mean_cmp,
        stderr_competitiveness=se_cmp,
        mean_max_dual_norm=mean_dual,
        flagged_nonpositive_opt=flagged,
    )


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares power-law fit of per-n means in log-log space."""

    exponent: float
    intercept: float
    r_squared: float
    ns: Tuple[int, ...]
    means: Tuple[float, ...]
    stderrs: Tuple[float, ...]
    excluded_ns: Tuple[int, ...]


def fit_scaling(ns: Sequence[int], means: Sequence[float],
                stderrs: Optional[Sequence[float]] = None) -> ScalingFit:
    """Fit ``log(mean) = exponent * log(n) + intercept`` by ordinary least squares.

    Requires at least three distinct n spanning a decade.  Non-positive means
    cannot enter the log and are excluded and flagged; at least three points
    must survive.
    """
    ns = [int(v) for v in ns]
    means = [float(v) for v in means]
    if stderrs is None:
        stderrs = [0.0] * len(ns)
    stderrs = [float(v) for v in stderrs]
    if not (len(ns) == len(means) == len(stderrs)):
        raise ValueError("ns, means and stderrs must have equal lengths")
    if len(set(ns)) < 3:
        raise ValueError("need at least three distinct n values")
    if max(ns) < 10 * min(ns):
        raise ValueError("n values must span at least one decade")
    kept = [(n, mu, se) for n, mu, se in zip(ns, means, stderrs) if mu > 0.0]
    excluded = tuple(n for n, mu in zip(ns, means) if mu <= 0.0)
    if len(kept) < 3:
        raise ValueError(f"too few positive means to fit (excluded n = {excluded})")
    log_n = np.log([n for n, _, _ in kept])
    log_mu = np.log([mu for _, mu, _ in kept])
    slope, intercept = np.polyfit(log_n, log_mu, 1)
    fitted = slope * log_n + intercept
    ss_res = float(np.sum((log_mu - fitted) ** 2))
    ss_tot = float(np.sum((log_mu - log_mu.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return ScalingFit(
        exponent=float(slope),
        intercept=float(intercept),
        r_squared=r_squared,
        ns=tuple(n for n, _, _ in kept),
        means=tuple(mu for _, mu, _ in kept),
        stderrs=tuple(se for _, _, se in kept),
        excluded_ns=excluded,
    )

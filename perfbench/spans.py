"""Spans around onlinelp's layer entry points, recorded from outside the package.

``Tracer.installed()`` swaps each entry point for a timing wrapper in the
namespace the caller looks it up in (``onlinelp.harness`` for everything the
harness calls, ``onlinelp.algorithms`` for the prefix LPs of DLA and PBD) and
restores the originals on exit.  Spans stay in memory; ``layer_metrics``
reduces them to per-layer totals, self times and exact work counts.
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, List, Optional


# Work counts of one span, taken from the wrapped call's arguments and result.
def _columns(args, result) -> int:
    return args[0].n


def _iterations(args, result) -> int:
    return result.iterations


def _report_bytes(args, result) -> int:
    return sum(p.stat().st_size for p in Path(args[1]).iterdir() if p.is_file())


ONEPASS = ("soa", "sfa", "sna", "multisoa")


class Tracer:
    """Flat list of spans ``[name, start, end, parent, count]``; parent -1 is the root."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []

    def wrap(self, name: str, fn: Callable, count: Optional[Callable] = None) -> Callable:
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, 0]
            self.spans.append(span)
            self._stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                span[4] = count(args, result)
            return result
        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every layer entry point for the duration of the block."""
        from onlinelp import algorithms, harness
        from onlinelp.core import MultiInstance

        targets = [
            (harness, "generate", "generators.generate", None),
            (harness, "permute", "generators.permute", None),
            (harness, "solve_relaxation", "simplex.offline_lp", _iterations),
            (harness, "run_soa", "algorithms.soa", _columns),
            (harness, "run_sfa", "algorithms.sfa", _columns),
            (harness, "run_sna", "algorithms.sna", _columns),
            (harness, "run_multi_soa", "algorithms.multisoa", _columns),
            (harness, "run_dla", "algorithms.dla", _columns),
            (harness, "run_pbd", "algorithms.pbd", _columns),
            (harness, "repair_feasibility", "algorithms.repair", None),
            (harness, "evaluate_trial", "metrics.evaluate", None),
            (harness, "aggregate", "metrics.aggregate", None),
            (harness, "fit_scaling", "metrics.fit", None),
            (algorithms, "solve_scaled", "simplex.prefix_lp", _iterations),
        ]
        saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in targets]
        saved.append((MultiInstance, "from_instance", vars(MultiInstance)["from_instance"]))
        saved.append((harness.ExperimentReport, "save", vars(harness.ExperimentReport)["save"]))
        try:
            for owner, attr, name, count in targets:
                setattr(owner, attr, self.wrap(name, getattr(owner, attr), count))
            MultiInstance.from_instance = staticmethod(
                self.wrap("core.multi_instance", MultiInstance.from_instance))
            harness.ExperimentReport.save = self.wrap(
                "harness.save", harness.ExperimentReport.save, _report_bytes)
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)


def layer_metrics(spans: List[list], sweep_seconds: float) -> Dict[str, float]:
    """Per-layer metrics of one traced sweep whose ``run`` call took ``sweep_seconds``."""
    total: Dict[str, float] = {}
    count: Dict[str, int] = {}
    calls: Dict[str, int] = {}
    child = [0.0] * len(spans)
    top_level = 0.0
    for name, start, end, parent, cnt in spans:
        dur = end - start
        total[name] = total.get(name, 0.0) + dur
        count[name] = count.get(name, 0) + cnt
        calls[name] = calls.get(name, 0) + 1
        if parent < 0:
            top_level += dur
        else:
            child[parent] += dur
    self_time: Dict[str, float] = {}
    for idx, (name, start, end, _, _) in enumerate(spans):
        self_time[name] = self_time.get(name, 0.0) + (end - start) - child[idx]

    def per(name: str, unit_scale: float) -> float:
        # a layer the workload never calls did no work: report 0, not a rate
        return total[name] / count[name] * unit_scale if count.get(name) else 0.0

    out = {f"algorithms.{a}_us_per_column": per(f"algorithms.{a}", 1e6) for a in ONEPASS}
    out["algorithms.onepass_s"] = sum(total.get(f"algorithms.{a}", 0.0) for a in ONEPASS)
    out["algorithms.onepass_columns"] = sum(count.get(f"algorithms.{a}", 0) for a in ONEPASS)
    out["algorithms.repair_s"] = total.get("algorithms.repair", 0.0)
    out["core.multi_instance_s"] = total.get("core.multi_instance", 0.0)
    out["algorithms.dla_self_s"] = self_time.get("algorithms.dla", 0.0)
    out["algorithms.pbd_self_s"] = self_time.get("algorithms.pbd", 0.0)
    out["simplex.offline_lp_s"] = total.get("simplex.offline_lp", 0.0)
    out["simplex.offline_lp_iterations"] = count.get("simplex.offline_lp", 0)
    out["simplex.offline_lp_us_per_iteration"] = per("simplex.offline_lp", 1e6)
    out["simplex.prefix_lp_s"] = total.get("simplex.prefix_lp", 0.0)
    out["simplex.prefix_lp_calls"] = calls.get("simplex.prefix_lp", 0)
    out["simplex.prefix_lp_iterations"] = count.get("simplex.prefix_lp", 0)
    out["generators.generate_s"] = total.get("generators.generate", 0.0)
    out["generators.permute_s"] = total.get("generators.permute", 0.0)
    out["metrics.evaluate_s"] = total.get("metrics.evaluate", 0.0)
    out["metrics.aggregate_s"] = total.get("metrics.aggregate", 0.0)
    out["metrics.fit_s"] = total.get("metrics.fit", 0.0)
    out["harness.save_s"] = total.get("harness.save", 0.0)
    out["harness.report_bytes"] = count.get("harness.save", 0)
    out["harness.sweep_s"] = sweep_seconds
    out["harness.self_s"] = sweep_seconds - top_level
    return out


# the metrics above that count work; they must repeat exactly for one seed
EXACT_COUNTS = (
    "algorithms.onepass_columns",
    "simplex.offline_lp_iterations",
    "simplex.prefix_lp_calls",
    "simplex.prefix_lp_iterations",
)


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    for suffix, unit in (("_us_per_column", "us/column"), ("_us_per_iteration", "us/iteration"),
                         ("_s", "s"), ("_bytes", "bytes"), ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"

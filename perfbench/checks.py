"""Correctness checks on a sweep's report, run outside the timed region.

A cell is one (n, trial) pair of the config.  It fails when the harness
recorded an error for it, when its ``trials.csv`` rows are missing or
unexpected, when a field that must be finite is not, when its rows differ
between repeats of the same sweep, or when its ``lp_opt`` disagrees with
HiGHS by more than 1e-9 relative.  Columns are read by header name, so added
``trials.csv`` columns do not break the checks.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path
from typing import Dict, List, Set, Tuple

from onlinelp.generators import generate
from onlinelp.harness import child_seed, load_config
from workloads import Workload

Cell = Tuple[int, int]

# trials.csv fields that must be finite in every row
FINITE = ("n", "trial", "seed", "m", "objective", "lp_opt", "regret", "violation")
# fields that may be empty (no value exists) but must be finite when present
FINITE_OR_EMPTY = ("competitiveness", "max_dual_norm")
HIGHS_RTOL = 1e-9


def digest(trials_csv: str) -> str:
    return hashlib.sha256(trials_csv.encode("ascii")).hexdigest()


def rows_by_cell(trials_csv: str) -> Dict[Cell, List[dict]]:
    cells: Dict[Cell, List[dict]] = {}
    for row in csv.DictReader(io.StringIO(trials_csv)):
        cells.setdefault((int(row["n"]), int(row["trial"])), []).append(row)
    return cells


def _finite(cell: str) -> bool:
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return False


def _row_finite(row: dict) -> bool:
    return (all(_finite(row[f]) for f in FINITE)
            and all(row[f] == "" or _finite(row[f]) for f in FINITE_OR_EMPTY))


def _agrees_with_highs(cfg, cell: Cell, lp_opt: float) -> bool:
    """Rebuild the cell's instance by the harness's seed scheme and solve it with HiGHS."""
    # imported here, after the timed sweeps, so that scipy stays out of peak_rss_mb
    from scipy.optimize import linprog

    n, trial = cell
    inst = generate(cfg.spec_for(n, child_seed(cfg.seed, n, trial, "instance")))
    ref = linprog(-inst.rewards, A_ub=inst.columns, b_ub=inst.capacity,
                  bounds=(0.0, 1.0), method="highs")
    return ref.status == 0 and abs(lp_opt + ref.fun) <= HIGHS_RTOL * max(1.0, abs(ref.fun))


def failed_cells(workload: Workload, cfg_path: Path, report_dir: Path,
                 repeats: List[str]) -> Set[Cell]:
    """Cells of the config that failed a check.

    ``repeats`` holds the ``trials.csv`` text of every sweep run on this
    config; ``report_dir`` holds the report of the last one.
    """
    cfg = load_config(cfg_path)
    expected = [(n, t) for n in cfg.n_values for t in range(cfg.trials)]
    summary = json.loads((report_dir / "summary.json").read_text(encoding="ascii"))
    failed = {(int(e["n"]), int(e["trial"])) for e in summary["errors"]} & set(expected)
    parsed = [rows_by_cell(text) for text in repeats]
    labels = sorted(workload.labels())
    for cell in expected:
        rows = parsed[0].get(cell, [])
        ok = (sorted(r["algorithm"] for r in rows) == labels
              and all(p.get(cell) == rows for p in parsed[1:])
              and all(_row_finite(r) for r in rows)
              and len({r["lp_opt"] for r in rows}) == 1
              and _agrees_with_highs(cfg, cell, float(rows[0]["lp_opt"])))
        if not ok:
            failed.add(cell)
    return failed


def quality(trials_csv: str) -> Dict[str, float]:
    """Mean competitiveness and violation over all rows of ``trials.csv``.

    ``summary.json``'s normalized violation is NaN in every aggregate, so the
    quality figures come from the rows themselves.
    """
    rows = list(csv.DictReader(io.StringIO(trials_csv)))
    comps = [float(r["competitiveness"]) for r in rows if r["competitiveness"] != ""]
    return {
        "mean_competitiveness": math.fsum(comps) / len(comps),
        "mean_violation": math.fsum(float(r["violation"]) for r in rows) / len(rows),
    }

"""Experiment orchestration: configs, seeded trial scheduling, and report files.

Config files are flat key-value documents with sections (INI syntax); see the
commented examples under ``configs/``.  Reports consist of a deterministic
``trials.csv`` (byte-identical across reruns of the same config, independent
of the parallelism degree), a ``summary.json`` with aggregates, scaling fits
and environment metadata, and a ``timings.csv`` that is explicitly outside
the determinism contract.

Child seeds derive from the root seed through a splittable counter scheme:
``sha256(root | n | trial | tag)`` truncated to 64 bits, where ``tag`` names
the consumer ("instance", "permutation", or the algorithm label).  Adding an
algorithm therefore never perturbs the draws of the others.
"""
from __future__ import annotations

import configparser
import dataclasses
import hashlib
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from . import __version__
from .algorithms import (
    PREFIX_LP_KINDS,
    AlgorithmConfig,
    Policy,
    RepairConfig,
    repair_feasibility,
    run_one_pass,
    run_prefix_lp,
)
# The single-trial entry points stay bound here because perfbench/spans.py
# looks them up in this module; the harness itself steps the one-pass kinds
# through run_one_pass and DLA and PBD through run_prefix_lp.
from .algorithms import run_dla, run_multi_soa, run_pbd, run_sfa, run_sna, run_soa  # noqa: F401
from .core import Instance
from .generators import GeneratorFamily, GeneratorSpec, PermutationPlan, generate, permute, read_mknap
from .metrics import TrialResult, aggregate, evaluate_trial, fit_scaling
from .simplex import solve_relaxation

__all__ = [
    "FORMAT_VERSION",
    "ConfigError",
    "ExperimentConfig",
    "ExperimentReport",
    "child_seed",
    "load_config",
    "run_experiment",
    "load_report",
]

FORMAT_VERSION = "1"

TRIALS_CSV_COLUMNS = (
    "n", "trial", "algorithm", "seed", "m", "objective", "lp_opt",
    "regret", "violation", "competitiveness", "max_dual_norm",
)
# trials.csv column -> TrialResult field, where the names differ
_ROW_FIELDS = {"lp_opt": "offline_lp_opt"}
TIMINGS_CSV_COLUMNS = ("n", "trial", "algorithm", "wall_seconds")


class ConfigError(ValueError):
    """Invalid experiment configuration; maps to exit code 1 in the CLI."""


def child_seed(root: int, n: int, trial: int, tag: str = "") -> int:
    """Pure, stable derivation of a 64-bit child seed from (root, n, trial, tag)."""
    digest = hashlib.sha256(f"{root}|{n}|{trial}|{tag}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment needs; picklable so workers can receive it whole."""

    name: str
    seed: int
    trials: int
    n_values: Tuple[int, ...]
    algorithms: Tuple[AlgorithmConfig, ...]
    permute_arrivals: bool
    workers: int
    generator_params: Optional[Dict]
    benchmark_path: Optional[str]
    repair: RepairConfig
    output_dir: Optional[str]

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if not self.algorithms:
            raise ConfigError("at least one algorithm is required")
        if (self.generator_params is None) == (self.benchmark_path is None):
            raise ConfigError("exactly one of generator and benchmark must be given")
        if self.generator_params is not None and not self.n_values:
            raise ConfigError("generator experiments need a non-empty n list")

    def spec_for(self, n: int, seed: int) -> GeneratorSpec:
        params = dict(self.generator_params)
        return GeneratorSpec(n=n, seed=seed, **params)

    def echo(self) -> Dict:
        """JSON-safe copy of the configuration for the report."""
        doc = {
            "name": self.name,
            "seed": self.seed,
            "trials": self.trials,
            "n_values": list(self.n_values),
            "algorithms": [a.label for a in self.algorithms],
            "permute": self.permute_arrivals,
            "workers": self.workers,
            "benchmark": self.benchmark_path,
            "repair": {
                "enabled": self.repair.enabled,
                "d_lo_override": self.repair.d_lo_override,
                "skip_if_feasible": self.repair.skip_if_feasible,
            },
        }
        if self.generator_params is not None:
            params = dict(self.generator_params)
            params["family"] = params["family"].value
            params["d_range"] = list(params["d_range"])
            doc["generator"] = params
        return doc


def _get(cp: configparser.ConfigParser, section: str, option: str, fallback=None):
    if cp.has_option(section, option):
        return cp.get(section, option)
    return fallback


# Section -> the keys it admits: the whole config schema.
_SCHEMA = {
    "experiment": {"name", "seed", "trials", "n_values", "algorithms", "permute", "workers"},
    "generator": {"family", "m", "d_lo", "d_hi", "cauchy_truncation", "adversarial_low",
                  "adversarial_high", "adversarial_capacity_fraction"},
    "benchmark": {"path"},
    "repair": {"enabled", "d_lo_override", "skip_if_feasible"},
    "output": {"directory"},
}


def load_config(path) -> ExperimentConfig:
    """Read and validate an experiment config file.

    A relative ``[benchmark] path`` is taken relative to the config file.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from None
    if not cp.has_section("experiment"):
        raise ConfigError("missing [experiment] section")

    def bad(msg: str) -> ConfigError:
        return ConfigError(f"{path}: {msg}")

    unknown = sorted(set(cp.sections()) - _SCHEMA.keys())
    if unknown:
        raise bad("unknown section(s) " + ", ".join(f"[{name}]" for name in unknown))
    for section in cp.sections():
        unknown = sorted(set(cp.options(section)) - _SCHEMA[section])
        if unknown:
            raise bad(f"unknown key(s) in [{section}]: " + ", ".join(unknown))

    try:
        name = _get(cp, "experiment", "name", path.stem)
        seed = int(_get(cp, "experiment", "seed", "0"))
        trials = int(_get(cp, "experiment", "trials", "1"))
        raw_n = _get(cp, "experiment", "n_values", "")
        n_values = tuple(int(v) for v in raw_n.replace(",", " ").split())
        raw_algos = _get(cp, "experiment", "algorithms", "")
        algorithms = tuple(AlgorithmConfig.parse(t) for t in raw_algos.split(",") if t.strip())
        permute_arrivals = cp.getboolean("experiment", "permute", fallback=False)
        workers = int(_get(cp, "experiment", "workers", "0"))
    except ValueError as exc:
        raise bad(f"invalid [experiment] value: {exc}") from None

    generator_params = None
    benchmark_path = None
    if cp.has_section("generator"):
        try:
            family = GeneratorFamily(_get(cp, "generator", "family", ""))
        except ValueError:
            raise bad(f"unknown generator family {_get(cp, 'generator', 'family', '')!r}") from None
        try:
            generator_params = {
                "family": family,
                "m": int(_get(cp, "generator", "m", "1")),
                "d_range": (
                    float(_get(cp, "generator", "d_lo", str(1.0 / 3.0))),
                    float(_get(cp, "generator", "d_hi", str(2.0 / 3.0))),
                ),
            }
            if cp.has_option("generator", "cauchy_truncation"):
                generator_params["cauchy_truncation"] = cp.getfloat("generator", "cauchy_truncation")
            for key in ("adversarial_low", "adversarial_high", "adversarial_capacity_fraction"):
                if cp.has_option("generator", key):
                    generator_params[key] = cp.getfloat("generator", key)
        except ValueError as exc:
            raise bad(f"invalid [generator] value: {exc}") from None
    if cp.has_section("benchmark"):
        benchmark_path = _get(cp, "benchmark", "path")
        if not benchmark_path:
            raise bad("[benchmark] needs a path")
        benchmark_path = str((path.parent / benchmark_path).resolve())
        if not Path(benchmark_path).is_file():
            raise bad(f"benchmark file not found: {benchmark_path}")

    repair = RepairConfig(
        enabled=cp.getboolean("repair", "enabled", fallback=False),
        d_lo_override=(cp.getfloat("repair", "d_lo_override")
                       if cp.has_option("repair", "d_lo_override") else None),
        skip_if_feasible=cp.getboolean("repair", "skip_if_feasible", fallback=False),
    )
    output_dir = _get(cp, "output", "directory") if cp.has_section("output") else None

    try:
        return ExperimentConfig(
            name=name,
            seed=seed,
            trials=trials,
            n_values=n_values,
            algorithms=algorithms,
            permute_arrivals=permute_arrivals,
            workers=workers,
            generator_params=generator_params,
            benchmark_path=benchmark_path,
            repair=repair,
            output_dir=output_dir,
        )
    except ValueError as exc:
        raise bad(str(exc)) from None


def _fmt_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _blocks(trials: int, parts: int) -> List[range]:
    """Split ``range(trials)`` into at most ``parts`` contiguous blocks of near-equal size."""
    parts = max(1, min(parts, trials))
    return [range(trials * i // parts, trials * (i + 1) // parts) for i in range(parts)]


class _Cell(NamedTuple):
    """One prepared (n, trial) cell; ``seed(label)`` derives the child seed of a consumer."""

    trial: int
    inst: Instance
    lp_opt: float
    lp_seconds: float
    seed: Callable[[str], int]


def _prepare(cfg: ExperimentConfig, n: int, seed_tag: str, problem: Optional[Instance],
             problem_lp: Optional[Tuple[float, float]], trial: int, policies) -> _Cell:
    """Instance, offline LP and seed derivation of one trial.

    ``problem`` is the benchmark instance and ``problem_lp`` its relaxation's
    optimum with this trial's share of the solve time, or both are ``None``
    to generate an instance of n columns and solve its relaxation.  Raises if
    the trial cannot be set up or a policy cannot run on its instance.
    """
    if problem is None:
        inst = generate(cfg.spec_for(n, child_seed(cfg.seed, n, trial, "instance")))
    else:
        inst = problem
    if cfg.permute_arrivals:
        plan = PermutationPlan.random(inst.n, child_seed(cfg.seed, n, trial, seed_tag + "permutation"))
        inst = permute(inst, plan)
    if problem_lp is None:
        t0 = time.perf_counter()
        lp_opt = solve_relaxation(inst).objective
        problem_lp = lp_opt, time.perf_counter() - t0
    for policy in policies:
        policy.check(inst)
    return _Cell(trial, inst, *problem_lp,
                 lambda label: child_seed(cfg.seed, n, trial, seed_tag + label))


def _block_task(args):
    """Run every algorithm of one n (or benchmark problem) on a block of trials.

    ``args`` is ``(cfg, n, seed_tag, problem, trials)``, as for :func:`_prepare`.

    Returns ``(rows, timings, errors)``.  A benchmark problem's relaxation is
    solved once for the block, since permuting its columns leaves the optimum
    unchanged; if that solve fails, every trial of the block records the
    error.  One kernel call steps every one-pass algorithm on every trial of
    the block, and one prefix-LP pass per trial steps its DLA and PBD rows;
    the wall time of each shared solve or call is split evenly over its rows
    in the timings.  Evaluation and repair run per trial.  A trial that fails
    anywhere else records its own error and contributes no rows; the other
    trials of the block are unaffected.
    """
    cfg, n, seed_tag, problem, trials = args
    kernel = [c for c in cfg.algorithms if c.kind not in PREFIX_LP_KINDS]
    prefix = [c for c in cfg.algorithms if c.kind in PREFIX_LP_KINDS]
    policies = [Policy.of(c.kind, c.schedule) for c in kernel]
    cells, failures = [], {}
    problem_lp = None
    if problem is not None:
        t0 = time.perf_counter()
        try:
            lp_opt = solve_relaxation(problem).objective
            problem_lp = lp_opt, (time.perf_counter() - t0) / len(trials)
        except Exception as exc:
            failures.update((trial, exc) for trial in trials)
            trials = ()
    for trial in trials:
        try:  # recorded per trial; the block continues
            cells.append(_prepare(cfg, n, seed_tag, problem, problem_lp, trial, policies))
        except Exception as exc:
            failures[trial] = exc
    batch, share = [], 0.0
    if kernel and cells:
        t0 = time.perf_counter()
        try:
            batch = run_one_pass([cell.inst for cell in cells], policies,
                                 [[cell.seed(c.label) for cell in cells] for c in kernel])
            share = (time.perf_counter() - t0) / (len(kernel) * len(cells))
        except Exception as exc:
            failures.update((cell.trial, exc) for cell in cells)
            cells = []
    rows: List[TrialResult] = []
    timings: List[Tuple[int, int, str, float]] = []
    for i, (trial, inst, lp_opt, lp_seconds, seed) in enumerate(cells):
        runs = []  # (label, seed, trace, wall seconds)
        try:
            found = {c.label: (row[i], share) for c, row in zip(kernel, batch)}
            if prefix:
                t0 = time.perf_counter()
                traces = run_prefix_lp(inst, [c.kind for c in prefix],
                                       [seed(c.label) for c in prefix])
                wall = (time.perf_counter() - t0) / len(prefix)
                found.update((c.label, (trace, wall)) for c, trace in zip(prefix, traces))
            for label in (c.label for c in cfg.algorithms):
                trace, wall = found[label]
                runs.append((label, seed(label), trace, wall))
                if cfg.repair.enabled:
                    rseed = seed(label + "+repair")
                    t0 = time.perf_counter()
                    repaired = repair_feasibility(inst, trace, cfg.repair, rseed)
                    runs.append((label + "+repair", rseed, repaired, time.perf_counter() - t0))
            cell_rows = [evaluate_trial(inst, trace, lp_opt, algorithm=label,
                                        seed=run_seed, trial=trial)
                         for label, run_seed, trace, _ in runs]
        except Exception as exc:
            failures[trial] = exc
            continue
        rows.extend(cell_rows)
        timings.append((n, trial, "offline_lp", lp_seconds))
        timings.extend((n, trial, label, wall) for label, _, _, wall in runs)
    errors = [{"n": int(n), "trial": int(trial), "error": f"{type(exc).__name__}: {exc}"}
              for trial, exc in sorted(failures.items())]
    return rows, timings, errors


def _resolve_workers(cfg: ExperimentConfig, override: Optional[int]) -> int:
    if override is not None and override > 0:
        return override
    if cfg.workers > 0:
        return cfg.workers
    return 1


@dataclass
class ExperimentReport:
    """In-memory form of one experiment's outputs."""

    config: Dict
    rows: List[TrialResult]
    timings: List[Tuple[int, int, str, float]]
    aggregates: List[Dict]
    fits: Dict
    errors: List[Dict]
    meta: Dict

    def trials_csv(self) -> str:
        lines = [",".join(TRIALS_CSV_COLUMNS)]
        for row in self.rows:
            lines.append(",".join(_fmt_cell(getattr(row, _ROW_FIELDS.get(col, col)))
                                  for col in TRIALS_CSV_COLUMNS))
        return "\n".join(lines) + "\n"

    def timings_csv(self) -> str:
        lines = [",".join(TIMINGS_CSV_COLUMNS)]
        for n, trial, algorithm, seconds in self.timings:
            lines.append(f"{n},{trial},{algorithm},{repr(float(seconds))}")
        return "\n".join(lines) + "\n"

    def summary_json(self) -> str:
        payload = {
            "format_version": FORMAT_VERSION,
            "config": self.config,
            "aggregates": self.aggregates,
            "fits": self.fits,
            "errors": self.errors,
            "meta": self.meta,
        }
        return json.dumps(_finite_or_null(payload), indent=2, sort_keys=True,
                          allow_nan=False) + "\n"

    def save(self, directory) -> None:
        """Write trials.csv, timings.csv and summary.json atomically."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        for name, payload in (("trials.csv", self.trials_csv()),
                              ("timings.csv", self.timings_csv()),
                              ("summary.json", self.summary_json())):
            target = directory / name
            tmp = directory / (name + ".tmp")
            tmp.write_text(payload, encoding="ascii")
            os.replace(tmp, target)


def _finite_or_null(value):
    """``value`` with every non-finite float replaced by ``None`` (JSON ``null``)."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return value


def _parse_opt_float(cell: str) -> Optional[float]:
    return None if cell == "" else float(cell)


def load_report(directory) -> ExperimentReport:
    """Load a saved report; re-saving it reproduces the same bytes.

    ``trials.csv`` carries no capacity norms, so the loaded rows hold NaN in
    ``capacity_norm``.
    """
    directory = Path(directory)
    summary = json.loads((directory / "summary.json").read_text(encoding="ascii"))
    rows: List[TrialResult] = []
    lines = (directory / "trials.csv").read_text(encoding="ascii").splitlines()
    if lines and lines[0] != ",".join(TRIALS_CSV_COLUMNS):
        raise ValueError("unexpected trials.csv header")
    for line in lines[1:]:
        cells = line.split(",")
        rows.append(TrialResult(
            n=int(cells[0]), trial=int(cells[1]), algorithm=cells[2], seed=int(cells[3]),
            m=int(cells[4]), objective=float(cells[5]), offline_lp_opt=float(cells[6]),
            regret=float(cells[7]), violation=float(cells[8]),
            competitiveness=_parse_opt_float(cells[9]), max_dual_norm=_parse_opt_float(cells[10]),
            capacity_norm=math.nan,
        ))
    timings: List[Tuple[int, int, str, float]] = []
    tlines = (directory / "timings.csv").read_text(encoding="ascii").splitlines()
    for line in tlines[1:]:
        cells = line.split(",")
        timings.append((int(cells[0]), int(cells[1]), cells[2], float(cells[3])))
    return ExperimentReport(
        config=summary["config"],
        rows=rows,
        timings=timings,
        aggregates=summary["aggregates"],
        fits=summary["fits"],
        errors=summary["errors"],
        meta=summary["meta"],
    )


def run_experiment(cfg: ExperimentConfig, *, workers: Optional[int] = None) -> ExperimentReport:
    """Run all (n, trial) cells, aggregate, and fit scaling laws.

    Per cell: a child seed yields the instance (and permutation when enabled),
    the offline relaxation is solved once, and every configured algorithm runs
    on the identical bits.  The trials of each n are split evenly over the
    workers, one block per task.  Results do not depend on the parallelism
    degree or the block size; rows are sorted by (n, trial, algorithm) before
    any reduction.
    """
    if cfg.generator_params is not None:
        sources = [(n, "", None) for n in cfg.n_values]
    else:
        sources = [(inst.n, f"b{i}:", inst)
                   for i, (inst, _) in enumerate(read_mknap(cfg.benchmark_path))]
    nworkers = _resolve_workers(cfg, workers)
    tasks = [(cfg, n, tag, problem, block)
             for n, tag, problem in sources for block in _blocks(cfg.trials, nworkers)]
    started = time.perf_counter()
    if nworkers > 1:
        with ProcessPoolExecutor(max_workers=nworkers) as pool:
            outcomes = list(pool.map(_block_task, tasks))
    else:
        outcomes = [_block_task(t) for t in tasks]
    total_seconds = time.perf_counter() - started

    rows: List[TrialResult] = []
    timings: List[Tuple[int, int, str, float]] = []
    errors: List[Dict] = []
    for row_chunk, timing_chunk, error_chunk in outcomes:
        rows.extend(row_chunk)
        timings.extend(timing_chunk)
        errors.extend(error_chunk)
    rows.sort(key=lambda r: (r.n, r.trial, r.algorithm))
    timings.sort(key=lambda t: (t[0], t[1], t[2]))
    errors.sort(key=lambda e: (e["n"], e["trial"]))

    groups: Dict[Tuple[str, int], List[TrialResult]] = {}
    for row in rows:
        groups.setdefault((row.algorithm, row.n), []).append(row)
    aggregates = []
    for (label, n) in sorted(groups):
        aggregates.append(dataclasses.asdict(aggregate(groups[(label, n)])))

    fits: Dict = {}
    by_label: Dict[str, List[Dict]] = {}
    for doc in aggregates:
        by_label.setdefault(doc["algorithm"], []).append(doc)
    for label, docs in sorted(by_label.items()):
        docs = sorted(docs, key=lambda d: d["n"])
        ns = [d["n"] for d in docs]
        entry = {}
        for measure in ("regret", "violation"):
            try:
                fit = fit_scaling(ns, [d[f"mean_{measure}"] for d in docs],
                                  [d[f"stderr_{measure}"] for d in docs])
                entry[measure] = dataclasses.asdict(fit)
            except ValueError as exc:
                entry[measure] = {"error": str(exc)}
        fits[label] = entry

    wall_by_alg: Dict[str, float] = {}
    for n, trial, label, seconds in timings:
        wall_by_alg[label] = wall_by_alg.get(label, 0.0) + seconds
    generator_notes = ""
    if cfg.generator_params is not None:
        probe = cfg.spec_for(max(cfg.n_values), 0)
        generator_notes = probe.notes()
    meta = {
        "format_version": FORMAT_VERSION,
        "package_version": __version__,
        "root_seed": cfg.seed,
        "workers": nworkers,
        "total_wall_seconds": total_seconds,
        "wall_seconds_by_algorithm": {k: wall_by_alg[k] for k in sorted(wall_by_alg)},
        "competitiveness_denominator": "lp_relaxation",
        "generator_notes": generator_notes,
        "seed_scheme": "sha256(root|n|trial|tag)[:8]",
    }
    return ExperimentReport(
        config=cfg.echo(),
        rows=rows,
        timings=timings,
        aggregates=aggregates,
        fits=fits,
        errors=errors,
        meta=meta,
    )

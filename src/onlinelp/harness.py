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
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from . import __version__
from .algorithms import (
    PREFIX_LP_KINDS,
    AlgorithmConfig,
    check_one_pass,
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
from .simplex import Certificate, certify, solve_relaxation

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
    """Everything one experiment needs; picklable so workers can receive it whole.

    The defaults are those of the config keys.  ``generator_params`` holds the
    ``[generator]`` keys the file set; :class:`GeneratorSpec` supplies the rest.
    ``benchmark_path`` is resolved; the report echoes ``benchmark_as_written``,
    the path as the file wrote it, so that it does not depend on the checkout.
    """

    name: str
    seed: int = 0
    trials: int = 1
    n_values: Tuple[int, ...] = ()
    algorithms: Tuple[AlgorithmConfig, ...] = ()
    permute_arrivals: bool = False
    workers: int = 0
    generator_params: Optional[Dict] = None
    benchmark_path: Optional[str] = None
    benchmark_as_written: Optional[str] = None
    repair: bool = False
    output_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.workers < 0:
            raise ConfigError("workers must be >= 0")
        if not self.algorithms:
            raise ConfigError("at least one algorithm is required")
        # a repeated entry would run its trials twice and count each row twice
        labels = [a.label for a in self.algorithms]
        for what, values in (("n", self.n_values), ("algorithm", labels)):
            repeated = [v for i, v in enumerate(values) if v in values[:i]]
            if repeated:
                raise ConfigError(f"{what} {repeated[0]} is listed more than once")
        if (self.generator_params is None) == (self.benchmark_path is None):
            raise ConfigError("exactly one of generator and benchmark must be given")
        if self.generator_params is not None:
            if not self.n_values:
                raise ConfigError("generator experiments need a non-empty n list")
            self.spec_for(min(self.n_values), 0)  # a bad value fails before any trial runs
        elif self.n_values:
            raise ConfigError("n_values cannot be set with a benchmark: its problems set n")

    def spec_for(self, n: int, seed: int) -> GeneratorSpec:
        return GeneratorSpec(n=n, seed=seed, **self.generator_params)

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
            "benchmark": self.benchmark_as_written or self.benchmark_path,
            "repair": {"enabled": self.repair},
        }
        if self.generator_params is not None:
            spec = dataclasses.asdict(self.spec_for(1, 0))
            del spec["n"], spec["seed"]
            doc["generator"] = dict(spec, family=spec["family"].value)
        return doc


def _bool(raw: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {raw!r}") from None


# Section -> key -> parser of its value: the whole config schema.  A key sets
# the ExperimentConfig field of its own name or the one _FIELD names; a
# [generator] key sets the GeneratorSpec field of its own name.
_SCHEMA = {
    "experiment": {
        "name": str, "seed": int, "trials": int,
        "n_values": lambda raw: tuple(int(v) for v in raw.replace(",", " ").split()),
        "algorithms": lambda raw: tuple(AlgorithmConfig.parse(t) for t in raw.split(",")
                                        if t.strip()),
        "permute": _bool, "workers": int,
    },
    "generator": {"family": GeneratorFamily, "m": int, "d_lo": float, "d_hi": float,
                  "cauchy_truncation": float, "adversarial_low": float,
                  "adversarial_high": float, "adversarial_capacity_fraction": float},
    "benchmark": {"path": str},
    "repair": {"enabled": _bool},
    "output": {"directory": str},
}
_FIELD = {"permute": "permute_arrivals", "path": "benchmark_path", "enabled": "repair",
          "directory": "output_dir"}


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
        unknown = sorted(set(cp.options(section)) - _SCHEMA[section].keys())
        if unknown:
            raise bad(f"unknown key(s) in [{section}]: " + ", ".join(unknown))
    for section, key in (("generator", "family"), ("benchmark", "path")):
        if cp.has_section(section) and not cp.get(section, key, raw=True, fallback=""):
            raise bad(f"[{section}] needs a {key}")

    fields = {"name": path.stem}
    try:
        for section in cp.sections():
            target = fields.setdefault("generator_params", {}) if section == "generator" else fields
            for key in cp.options(section):
                target[_FIELD.get(key, key)] = _SCHEMA[section][key](cp.get(section, key))
    except (ValueError, configparser.Error) as exc:
        raise bad(f"invalid [{section}] {key}: {exc}") from None

    if "benchmark_path" in fields:
        fields["benchmark_as_written"] = fields["benchmark_path"]
        fields["benchmark_path"] = str((path.parent / fields["benchmark_path"]).resolve())
        if not Path(fields["benchmark_path"]).is_file():
            raise bad(f"benchmark file not found: {fields['benchmark_path']}")
    try:
        return ExperimentConfig(**fields)
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

    n: int
    trial: int
    inst: Instance
    seed: Callable[[str], int]


def _prepare(cfg: ExperimentConfig, n: int, seed_tag: str, problem: Optional[Instance],
             first: int, trial: int) -> _Cell:
    """Instance and seed derivation of one trial, reported as trial ``first + trial``.

    ``problem`` is the benchmark instance, or ``None`` to generate an instance
    of n columns.  Raises if the trial cannot be set up.
    """
    if problem is None:
        inst = generate(cfg.spec_for(n, child_seed(cfg.seed, n, trial, "instance")))
    else:
        inst = problem
    if cfg.permute_arrivals:
        plan = PermutationPlan.random(inst.n, child_seed(cfg.seed, n, trial, seed_tag + "permutation"))
        inst = permute(inst, plan)
    return _Cell(n, first + trial, inst, lambda label: child_seed(cfg.seed, n, trial, seed_tag + label))


def _block_task(args):
    """Run every algorithm on a block of trials of one or more sources.

    ``args`` is ``(cfg, sources, trials)``; each source is ``(n, seed_tag,
    problem, first)``, where ``problem`` is the benchmark instance, or
    ``None`` for generated instances of n columns, and its trial t is
    reported as trial ``first + t``.  A generated sweep passes every n of
    the config, a benchmark problem comes alone.

    Returns ``(rows, timings, errors, certificates)``.  Every cell is
    generated and permuted first, then one kernel call steps every one-pass
    algorithm on every cell of the block, across all its n (if it fails,
    every cell in it records the error), then each cell's offline LP is
    solved.  A benchmark problem's relaxation is instead solved once for the
    block, since permuting its columns leaves the optimum unchanged; if that
    solve fails, every trial of the block records the error.  Each LP solved
    gets a :class:`~onlinelp.simplex.Certificate`.  One prefix-LP pass per
    cell steps its DLA and PBD rows.  In the timings, the kernel call's wall
    time is split over its rows in proportion to each row's n, and that of
    any other shared solve or pass evenly over its rows.  Evaluation and
    repair run per cell.  A cell that fails anywhere else, the one-pass
    checks of :func:`~onlinelp.algorithms.check_one_pass` included, records
    its own error and contributes no rows; the other cells of the block are
    unaffected.
    """
    cfg, sources, trials = args
    kernel = [c for c in cfg.algorithms if c.kind not in PREFIX_LP_KINDS]
    prefix = [c for c in cfg.algorithms if c.kind in PREFIX_LP_KINDS]
    cells, failures, certificates = [], {}, []
    problem_lp = {}  # n -> (optimum, share of the solve) of a benchmark problem, alone in its task
    for n, seed_tag, problem, first in sources:
        block = trials
        if problem is not None:
            t0 = time.perf_counter()
            try:
                sol = solve_relaxation(problem)
                problem_lp[n] = sol.objective, (time.perf_counter() - t0) / len(trials)
                certificates.append(certify(problem, sol))
            except Exception as exc:
                failures.update(((n, first + trial), exc) for trial in trials)
                block = ()
        for trial in block:
            try:  # recorded per cell; the block continues
                cell = _prepare(cfg, n, seed_tag, problem, first, trial)
                check_one_pass(cell.inst, kernel)
                cells.append(cell)
            except Exception as exc:
                failures[n, first + trial] = exc
    batch, shares = [], []
    if kernel and cells:
        t0 = time.perf_counter()
        try:
            batch = run_one_pass([cell.inst for cell in cells], kernel,
                                 [[cell.seed(c.label) for cell in cells] for c in kernel])
            wall = (time.perf_counter() - t0) / (len(kernel) * sum(cell.inst.n for cell in cells))
            shares = [wall * cell.inst.n for cell in cells]
        except Exception as exc:
            failures.update(((cell.n, cell.trial), exc) for cell in cells)
            cells = []
    rows: List[TrialResult] = []
    timings: List[Tuple[int, int, str, float]] = []
    for i, (n, trial, inst, seed) in enumerate(cells):
        runs = []  # (label, seed, trace, wall seconds)
        try:
            if n not in problem_lp:
                t0 = time.perf_counter()
                sol = solve_relaxation(inst)
                lp_opt, lp_seconds = sol.objective, time.perf_counter() - t0
                certificates.append(certify(inst, sol))
            else:
                lp_opt, lp_seconds = problem_lp[n]
            found = {c.label: (row[i], shares[i]) for c, row in zip(kernel, batch)}
            if prefix:
                t0 = time.perf_counter()
                traces = run_prefix_lp(inst, [c.kind for c in prefix],
                                       [seed(c.label) for c in prefix])
                wall = (time.perf_counter() - t0) / len(prefix)
                found.update((c.label, (trace, wall)) for c, trace in zip(prefix, traces))
            for label in (c.label for c in cfg.algorithms):
                trace, wall = found[label]
                runs.append((label, seed(label), trace, wall))
                if cfg.repair:
                    rseed = seed(label + "+repair")
                    t0 = time.perf_counter()
                    repaired = repair_feasibility(inst, trace, rseed)
                    runs.append((label + "+repair", rseed, repaired, time.perf_counter() - t0))
            cell_rows = [evaluate_trial(inst, trace, lp_opt, algorithm=label,
                                        seed=run_seed, trial=trial)
                         for label, run_seed, trace, _ in runs]
        except Exception as exc:
            failures[n, trial] = exc
            continue
        rows.extend(cell_rows)
        timings.append((n, trial, "offline_lp", lp_seconds))
        timings.extend((n, trial, label, wall) for label, _, _, wall in runs)
    errors = [{"n": int(n), "trial": int(trial), "error": f"{type(exc).__name__}: {exc}"}
              for (n, trial), exc in sorted(failures.items())]
    return rows, timings, errors, certificates


def _resolve_workers(cfg: ExperimentConfig, override: Optional[int]) -> int:
    """The override if positive, else the config's count if positive, else 1."""
    if override is not None and override < 0:
        raise ValueError(f"workers must be >= 0, got {override}")
    if override:
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
    every configured algorithm runs on the identical bits, and the offline
    relaxation is solved once (see :func:`_block_task`), so ``lp_opt`` does
    not depend on which algorithms the config lists.  The trials are split
    evenly over the workers, one block per task: a generated sweep's task
    runs the block's trials at every n, with one kernel call, and a benchmark
    problem has tasks of its own.  With fewer tasks than workers, only as many
    processes start as there are tasks, and a single task runs in-process.
    Results do not depend on the parallelism degree or the block size; rows
    are sorted by (n, trial, algorithm) before any reduction.  ``meta.lp_certificate``
    holds the worst of each :class:`~onlinelp.simplex.Certificate` field over
    the offline LPs solved, or ``None`` when none was.  A negative
    ``workers`` raises ``ValueError``; ``None`` and 0 defer to the config.
    """
    if cfg.generator_params is not None:
        sources = [(n, "", None, 0) for n in cfg.n_values]
    else:
        # problems of one n number their trials on from the earlier ones',
        # so each (n, trial, algorithm) row is written once
        problems = [inst for inst, _ in read_mknap(cfg.benchmark_path)]
        sources = [(inst.n, f"b{i}:", inst, cfg.trials * sum(p.n == inst.n for p in problems[:i]))
                   for i, inst in enumerate(problems)]
    nworkers = _resolve_workers(cfg, workers)
    # a generated sweep runs all its n in one task per block; a benchmark
    # problem gets tasks of its own, since problems may differ in m
    groups = [sources] if cfg.generator_params is not None else [[source] for source in sources]
    tasks = [(cfg, group, block) for group in groups for block in _blocks(cfg.trials, nworkers)]
    started = time.perf_counter()
    if nworkers > 1 and len(tasks) > 1:
        # imported here: a single-process run never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(nworkers, len(tasks))) as pool:
            outcomes = list(pool.map(_block_task, tasks))
    else:
        outcomes = [_block_task(t) for t in tasks]
    total_seconds = time.perf_counter() - started

    rows: List[TrialResult] = []
    timings: List[Tuple[int, int, str, float]] = []
    errors: List[Dict] = []
    certificates: List[Certificate] = []
    for row_chunk, timing_chunk, error_chunk, certificate_chunk in outcomes:
        rows.extend(row_chunk)
        timings.extend(timing_chunk)
        errors.extend(error_chunk)
        certificates.extend(certificate_chunk)
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
    generator_notes = "" if cfg.generator_params is None else cfg.spec_for(1, 0).notes()
    meta = {
        "format_version": FORMAT_VERSION,
        "package_version": __version__,
        "root_seed": cfg.seed,
        "workers": nworkers,
        "total_wall_seconds": total_seconds,
        "wall_seconds_by_algorithm": {k: wall_by_alg[k] for k in sorted(wall_by_alg)},
        "competitiveness_denominator": "lp_relaxation",
        "lp_certificate": {field: max(getattr(c, field) for c in certificates)
                           for field in Certificate._fields} if certificates else None,
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

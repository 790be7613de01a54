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
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, get_type_hints

from . import __version__, native
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
from .generators import GeneratorSpec, PermutationPlan, generate, permute, read_mknap
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

TRIALS_CSV_COLUMNS = tuple(f.name for f in dataclasses.fields(TrialResult))
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
            for n in self.n_values:  # a value or an n no instance could have fails here
                self.spec_for(n, 0)
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
            spec = dataclasses.asdict(self.spec_for(self.n_values[0], 0))
            del spec["n"], spec["seed"]
            doc["generator"] = dict(spec, family=spec["family"].value)
        return doc


def _bool(raw: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {raw!r}") from None


# Section -> key -> parser of its value: the whole config schema.  A key sets
# the ExperimentConfig field of its own name or the one _FIELD names; the
# [generator] keys are GeneratorSpec's fields but n and seed, each parsed by
# its annotated type.
_SCHEMA = {
    "experiment": {
        "name": str, "seed": int, "trials": int,
        "n_values": lambda raw: tuple(int(v) for v in raw.replace(",", " ").split()),
        "algorithms": lambda raw: tuple(AlgorithmConfig.parse(t) for t in raw.split(",")
                                        if t.strip()),
        "permute": _bool, "workers": int,
    },
    "generator": {key: parse for key, parse in get_type_hints(GeneratorSpec).items()
                  if key not in ("n", "seed")},
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


def _prepare(cfg: ExperimentConfig, n: int, seed_tag: str, problem: Optional[Instance],
             trial: int) -> Tuple[Instance, Callable[[str], int]]:
    """Instance and seed derivation of one trial: ``seed(label)`` derives a consumer's child seed.

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
    return inst, lambda label: child_seed(cfg.seed, n, trial, seed_tag + label)


@dataclass
class CellOutcome:
    """One (n, trial) cell's record; ``run_experiment`` reduces the records to the report.

    It holds the cell's rows and the ``||b||_2`` of its instance if the cell
    ran through, else its error; the (label, wall seconds) timings of every
    measured call that finished for it, failed or not (a call that raises
    stays untimed); and the certificate of its offline LP once solved.
    """

    n: int
    trial: int
    rows: List[TrialResult] = dataclasses.field(default_factory=list)
    capacity_norm: Optional[float] = None
    timings: List[Tuple[str, float]] = dataclasses.field(default_factory=list)
    certificate: Optional[Certificate] = None
    error: Optional[str] = None

    def fail(self, exc: Exception) -> None:
        self.error = f"{type(exc).__name__}: {exc}"


def _block_task(args) -> List[CellOutcome]:
    """Run every algorithm on a block of trials of one or more sources; one outcome per cell.

    ``args`` is ``(cfg, sources, trials)``; each source is ``(n, seed_tag,
    problem, first)``, where ``problem`` is the benchmark instance, or
    ``None`` for generated instances of n columns, and its trial t is
    reported as trial ``first + t``.  A generated sweep passes every n of
    the config, a benchmark problem comes alone.

    Every cell is generated and permuted first.  Then one kernel call steps
    every one-pass algorithm, and one prefix-LP pass every DLA and PBD row,
    on every cell of the block, across all its n; if either call fails,
    every cell it carried records the error.  Then each cell is scored
    against the relaxation of its benchmark problem, or else of its own
    instance, solved and certified once per task for each such object:
    permuting a problem's columns leaves its optimum unchanged.  A failed
    solve fails every cell it scores.  Each cell's timings hold, of the
    calls that finished, its share of the kernel call (``onepass_kernel``)
    and of the prefix-LP pass (``prefix_lp_pass``), in proportion to its n,
    its even share of its offline LP's solve (``offline_lp``) and each of
    its repair runs (``<label>+repair``), even if the cell fails later.
    Evaluation and repair run per cell.  A cell that fails anywhere else,
    the one-pass checks of :func:`~onlinelp.algorithms.check_one_pass`
    included, records its own error and keeps no rows; the other cells of
    the block are unaffected.
    """
    cfg, sources, trials = args
    kernel = [c for c in cfg.algorithms if c.kind not in PREFIX_LP_KINDS]
    prefix = [c for c in cfg.algorithms if c.kind in PREFIX_LP_KINDS]
    outcomes: List[CellOutcome] = []
    running = []  # per running cell: (outcome, instance, seed, LP source, label -> trace)
    for n, seed_tag, problem, first in sources:
        for trial in trials:
            out = CellOutcome(n, first + trial)
            outcomes.append(out)
            try:  # recorded per cell; the block continues
                inst, seed = _prepare(cfg, n, seed_tag, problem, trial)
                check_one_pass(inst, kernel)
                running.append((out, inst, seed, inst if problem is None else problem, {}))
            except Exception as exc:
                out.fail(exc)
    for run, configs, name in ((run_one_pass, kernel, "onepass_kernel"),
                               (run_prefix_lp, prefix, "prefix_lp_pass")):
        if not (configs and running):
            continue
        instances = [inst for _, inst, _, _, _ in running]
        t0 = time.perf_counter()
        try:
            batch = run(instances, configs,
                        [[seed(c.label) for _, _, seed, _, _ in running] for c in configs])
        except Exception as exc:
            for out, _, _, _, _ in running:
                out.fail(exc)
            running = []
            continue
        share = (time.perf_counter() - t0) / sum(inst.n for inst in instances)
        for i, (out, inst, _, _, traces) in enumerate(running):
            traces.update((c.label, row[i]) for c, row in zip(configs, batch))
            out.timings.append((name, share * inst.n))
    lps = {}  # id(LP source) -> (optimum, solve seconds, certificate), or what the solve raised
    scored = Counter(id(source) for _, _, _, source, _ in running)
    for out, inst, seed, source, traces in running:
        try:
            if id(source) not in lps:
                t0 = time.perf_counter()
                try:
                    sol = solve_relaxation(source)
                    lps[id(source)] = sol.objective, time.perf_counter() - t0, certify(source, sol)
                except Exception as exc:
                    lps[id(source)] = exc
            if isinstance(lps[id(source)], Exception):
                raise lps[id(source)]
            lp_opt, lp_seconds, out.certificate = lps[id(source)]
            out.timings.append(("offline_lp", lp_seconds / scored[id(source)]))
            runs = []  # (label, seed, trace)
            for label in (c.label for c in cfg.algorithms):
                runs.append((label, seed(label), traces[label]))
                if cfg.repair:
                    rseed = seed(label + "+repair")
                    t0 = time.perf_counter()
                    runs.append((label + "+repair", rseed,
                                 repair_feasibility(inst, traces[label], rseed)))
                    out.timings.append((label + "+repair", time.perf_counter() - t0))
            out.rows = [evaluate_trial(inst, trace, lp_opt, algorithm=label, seed=run_seed,
                                       trial=out.trial)
                        for label, run_seed, trace in runs]
            out.capacity_norm = math.sqrt(inst.capacity.dot(inst.capacity))
        except Exception as exc:
            out.fail(exc)
    return outcomes


def _resolve_workers(cfg: ExperimentConfig, override: Optional[int]) -> int:
    """The override if positive, else the config's count if positive, else 1."""
    if override is not None and override < 0:
        raise ValueError(f"workers must be >= 0, got {override}")
    return override or cfg.workers or 1


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
            lines.append(",".join(_fmt_cell(getattr(row, col)) for col in TRIALS_CSV_COLUMNS))
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


def _fields(record) -> Dict:
    """A flat dataclass record's fields by name, without ``dataclasses.asdict``'s deep copy."""
    return {f.name: getattr(record, f.name) for f in dataclasses.fields(record)}


# the parser of a trials.csv cell, by the annotated type of its TrialResult field
_CELL_PARSERS = {int: int, str: str, float: float,
                 Optional[float]: lambda cell: None if cell == "" else float(cell)}


def load_report(directory) -> ExperimentReport:
    """Load a saved report: its rows equal the saved ones, and re-saving it gives the same bytes."""
    directory = Path(directory)
    summary = json.loads((directory / "summary.json").read_text(encoding="ascii"))

    def table(name: str, columns: Tuple[str, ...], parsers: Tuple[Callable, ...]) -> List[tuple]:
        lines = (directory / name).read_text(encoding="ascii").splitlines()
        if lines and lines[0] != ",".join(columns):
            raise ValueError(f"unexpected {name} header")
        return [tuple(parse(cell) for parse, cell in zip(parsers, line.split(",")))
                for line in lines[1:]]

    return ExperimentReport(
        config=summary["config"],
        rows=[TrialResult(*cells) for cells in
              table("trials.csv", TRIALS_CSV_COLUMNS,
                    tuple(_CELL_PARSERS[kind] for kind in get_type_hints(TrialResult).values()))],
        timings=table("timings.csv", TIMINGS_CSV_COLUMNS, (int, int, str, float)),
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
    the offline LPs solved, or ``None`` when none was.  ``meta.engine`` is
    :func:`~onlinelp.native.engine`'s answer, asked before the clock starts
    and by each worker process as it starts, so that no timer counts the
    library's build or load.  The harness builds only k = 1 instances, so
    its one-pass rows and offline LPs ran on what it names.  A negative
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
    engine = native.engine()
    started = time.perf_counter()
    if nworkers > 1 and len(tasks) > 1:
        # imported here: a single-process run never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # each worker loads the library before its first timer: a forked
        # one inherits it, one started by spawn or forkserver does not
        with ProcessPoolExecutor(max_workers=min(nworkers, len(tasks)),
                                 initializer=native.engine) as pool:
            blocks = list(pool.map(_block_task, tasks))
    else:
        blocks = [_block_task(t) for t in tasks]
    total_seconds = time.perf_counter() - started

    outcomes = sorted((out for block in blocks for out in block), key=lambda o: (o.n, o.trial))
    rows = sorted((row for out in outcomes for row in out.rows),
                  key=lambda r: (r.n, r.trial, r.algorithm))
    timings = sorted((out.n, out.trial, label, seconds)
                     for out in outcomes for label, seconds in out.timings)
    errors = [{"n": int(out.n), "trial": int(out.trial), "error": out.error}
              for out in outcomes if out.error is not None]
    certificates = [out.certificate for out in outcomes if out.certificate is not None]

    # (algorithm, n) -> (row, capacity norm of its cell) pairs
    groups: Dict[Tuple[str, int], List[Tuple[TrialResult, float]]] = {}
    for out in outcomes:
        for row in out.rows:
            groups.setdefault((row.algorithm, row.n), []).append((row, out.capacity_norm))
    aggregates = [_fields(aggregate(*zip(*groups[key]))) for key in sorted(groups)]

    fits: Dict = {}
    by_label: Dict[str, List[Dict]] = {}
    for doc in aggregates:  # in (algorithm, n) order
        by_label.setdefault(doc["algorithm"], []).append(doc)
    for label, docs in by_label.items():
        ns = [d["n"] for d in docs]
        entry = fits[label] = {}
        for measure in ("regret", "violation"):
            try:
                fit = fit_scaling(ns, [d[f"mean_{measure}"] for d in docs],
                                  [d[f"stderr_{measure}"] for d in docs])
                entry[measure] = _fields(fit)
            except ValueError as exc:
                entry[measure] = {"error": str(exc)}

    wall_by_alg: Dict[str, float] = {}
    for n, trial, label, seconds in timings:
        wall_by_alg[label] = wall_by_alg.get(label, 0.0) + seconds
    generator_notes = cfg.spec_for(cfg.n_values[0], 0).notes() if cfg.generator_params else ""
    meta = {
        "package_version": __version__,
        "root_seed": cfg.seed,
        "workers": nworkers,
        "total_wall_seconds": total_seconds,
        "wall_seconds_by_algorithm": {k: wall_by_alg[k] for k in sorted(wall_by_alg)},
        "competitiveness_denominator": "lp_relaxation",
        "lp_certificate": {field: max(getattr(c, field) for c in certificates)
                           for field in Certificate._fields} if certificates else None,
        "generator_notes": generator_notes,
        "engine": engine,
        "seed_scheme": "sha256(root|n|trial|tag)[:8]",
    }
    return ExperimentReport(config=cfg.echo(), rows=rows, timings=timings, aggregates=aggregates,
                            fits=fits, errors=errors, meta=meta)

"""Benchmark of ``onlinelp run`` on one workload, run from the repository root.

    python3 perfbench/run.py --workload onepass_sweep --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50 --trace 0

Each sweep is the user path ``onlinelp.cli.main(["run", <config>, "--output",
<dir>])``, in-process with one worker, on the package under ``src/`` of this
checkout.  ``--trace 0`` reports the end-to-end metrics: the median sweep time
after one untimed warm-up sweep and the median set-up time of fresh
interpreters, both scaled to the reference speed of the benchmark's own
reference loop, peak RSS and the mean quality figures of ``trials.csv``.
``--trace 1`` alternates untraced and traced sweeps and reports the per-layer
metrics of the median traced sweep.  ``--workload all`` runs every workload in
its own process.  Correctness checks run outside the timed region; the last
line of standard output is the JSON result.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
# At most nproc, pinned before numpy is imported: m <= 10 matrices gain nothing
# from BLAS threads, and threads contending on a 2-core machine made LP solves
# 10-20x slower.
BLAS_THREADS = 1
SETUP_PROBES = 11
MIN_REPEATS = 3
# The reference loop's (rows, columns, pivots) tables: prefix-LP-sized and
# offline-LP-sized.  Together they take REF_LOOP_S seconds at the reference
# speed (a 2-vCPU VM, Python 3.11, numpy 2.4, at its usual speed).
REF_TABLES = ((6, 400, 5000), (11, 20000, 200))
REF_LOOP_S = 0.25
E2E_UNITS = {
    "sweep_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "mean_competitiveness": "ratio",
}

# A fresh interpreter's import and config parse, plus a one-cell run that pays
# the lazy first-call costs; prints its own elapsed seconds.
_PROBE = """
import contextlib, io, sys, time
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
import onlinelp.cli
from onlinelp.harness import load_config
load_config({cfg!r})
with contextlib.redirect_stdout(io.StringIO()):
    rc = onlinelp.cli.main(["run", {mini!r}, "--output", {out!r}])
print(time.perf_counter() - t0 if rc == 0 else -1.0)
"""


def _probe_code(workload: Workload, seed: int, cfg_path: Path, run_dir: Path) -> str:
    mini = run_dir / "probe.ini"
    mini.write_text(workload.config_text(seed, n_values=(20,), trials=1), encoding="ascii")
    return _PROBE.format(src=str(SRC), cfg=str(cfg_path), mini=str(mini),
                         out=str(run_dir / "probe-report"))


def _setup_probe(code: str) -> float:
    """Seconds one fresh interpreter spends setting up."""
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=120, check=True)
    seconds = float(done.stdout.split()[-1])
    if seconds < 0:
        raise RuntimeError(f"set-up probe run failed: {done.stderr.strip()}")
    return seconds


def _reference_loop() -> float:
    """Seconds of a fixed piece of the benchmark's own work.

    Pivots on small and wide numpy tables, driven from Python like the
    program's simplex.  No change to the program can move it, while a swing
    in the machine's speed moves it and a sweep alike.
    """
    import numpy as np

    seconds = 0.0
    for rows, columns, pivots in REF_TABLES:
        table = np.random.default_rng(0).random((rows, columns)) + 0.1
        start = time.perf_counter()
        for _ in range(pivots):
            j = 1 + int(np.argmin(table[0, 1:]))
            col = table[:, j].copy()
            r = 1 + int(np.argmax(col[1:]))
            table -= np.outer(col, table[r] / (table[r, j] + 1.0)) * 1e-3
            np.abs(table, out=table)
            table += 0.01
        seconds += time.perf_counter() - start
    return seconds


def _sweep(cfg_path: Path, out_dir: Path, tracer=None):
    """One ``onlinelp run`` call: (seconds, exit code, trials.csv text)."""
    from onlinelp import cli

    gc.collect()
    with contextlib.redirect_stdout(io.StringIO()), \
            (tracer.installed() if tracer else contextlib.nullcontext()):
        start = time.perf_counter()
        rc = cli.main(["run", str(cfg_path), "--output", str(out_dir)])
        seconds = time.perf_counter() - start
    trials = out_dir / "trials.csv"
    return seconds, rc, trials.read_text(encoding="ascii") if trials.is_file() else ""


def _per_n_rows(out_dir: Path):
    """Mean seconds per (algorithm, n) from the report's own ``timings.csv``.

    These lines are the shapes of ROADMAP's baseline table: one-pass µs per
    column, the offline LP at each n, and DLA/PBD seconds per run.
    """
    groups = {}
    timings = (out_dir / "timings.csv").read_text(encoding="ascii")
    for row in csv.DictReader(io.StringIO(timings)):
        groups.setdefault((row["algorithm"], int(row["n"])), []).append(float(row["wall_seconds"]))
    for (label, n), secs in sorted(groups.items()):
        mean = statistics.fmean(secs)
        yield (f"per_n {label} n={n} runs={len(secs)} mean_s={mean:.6g} "
               f"us_per_column={mean / n * 1e6:.4g}")


def _machine(load_start) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def measure(workload: Workload, seed: int, seconds: float, trace: bool, run_dir: Path):
    """Run one workload; returns (result dict, printable report lines)."""
    import checks
    import spans

    cfg_path = run_dir / "config.ini"
    cfg_path.write_text(workload.config_text(seed), encoding="ascii")
    out_dir = run_dir / "report"
    probe = _probe_code(workload, seed, cfg_path, run_dir)
    setups, loops = [], []

    _, warm_rc, warm_text = _sweep(cfg_path, out_dir)
    rcs, texts = [warm_rc], [warm_text]
    plain, layers = [], []
    measured = step = 0.0
    # the window counts sweeps only, and stops before a step would overrun it
    while len(plain) < (1 if trace else MIN_REPEATS) or measured + step <= seconds:
        step_start = time.perf_counter()
        if not trace:
            loops.append(_reference_loop())
        sweep_seconds, rc, text = _sweep(cfg_path, out_dir)
        plain.append(sweep_seconds)
        rcs.append(rc)
        texts.append(text)
        if trace:
            tracer = spans.Tracer()
            sweep_seconds, rc, text = _sweep(cfg_path, out_dir, tracer)
            layers.append(spans.layer_metrics(tracer.spans, sweep_seconds))
            rcs.append(rc)
            texts.append(text)
        step = time.perf_counter() - step_start
        measured += step
        if not trace and len(setups) < SETUP_PROBES:
            # one after each sweep, so that one slow spell of the machine
            # does not set the median
            loops.append(_reference_loop())
            setups.append(_setup_probe(probe))
    while not trace and len(setups) < SETUP_PROBES:
        loops.append(_reference_loop())
        setups.append(_setup_probe(probe))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = len(workload.n_values) * workload.trials
    # a run that exits non-zero leaves no report to check: every cell failed
    n_failed = attempted if any(rcs) else len(checks.failed_cells(workload, cfg_path, out_dir, texts))
    counts_repeat = all(len({lay[k] for lay in layers}) <= 1 for k in spans.EXACT_COUNTS)

    lines = [f"trials_sha256 {checks.digest(texts[-1])}",
             f"failed_cell_ratio {n_failed / attempted!r} ratio",
             f"sweep_samples_s {[round(x, 4) for x in plain]}",
             f"repeats {len(plain)} untraced, {len(layers)} traced, {len(setups)} set-up probes"]
    if trace:
        values = dict(sorted(layers, key=lambda lay: lay["harness.sweep_s"])[(len(layers) - 1) // 2])
        values["trace_overhead_ratio"] = (statistics.median(lay["harness.sweep_s"] for lay in layers)
                                          / statistics.median(plain))
        metrics = {k: {"value": v, "unit": spans.unit_of(k)} for k, v in values.items()}
        if not counts_repeat:
            lines.append("exact counts differ between traced repeats")
    else:
        # times at the reference speed: a slow spell that spans the run
        # slows the reference loop as much as the sweeps
        speed = REF_LOOP_S / statistics.median(loops)
        values = {"sweep_s": statistics.median(plain) * speed,
                  "setup_s": statistics.median(setups) * speed,
                  "peak_rss_mb": peak_rss_mb, **checks.quality(texts[-1])}
        metrics = {k: {"value": values[k], "unit": E2E_UNITS[k]} for k in E2E_UNITS}
        lines += [f"sweep_raw_s {statistics.median(plain)!r} s",
                  f"setup_raw_s {statistics.median(setups)!r} s",
                  f"reference_loop_s {statistics.median(loops)!r} s over {len(loops)} loops",
                  f"speed_factor {speed!r} ratio"]
        # too few rows on prefix_lp for a seed-steady mean, so printed, not gated
        lines.append(f"mean_violation {values['mean_violation']!r} norm")
        lines += _per_n_rows(out_dir)
    lines += [f"{k} {m['value']!r} {m['unit']}" for k, m in metrics.items()]
    result = {"correct": n_failed == 0 and counts_repeat, "attempted": attempted,
              "failed": n_failed, "metrics": metrics}
    return result, lines


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        rcs = [subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], cwd=ROOT).returncode
               for name in WORKLOADS]
        return max(rcs)
    if not (SRC / "onlinelp" / "__init__.py").is_file():
        print(f"perfbench: no onlinelp package under {SRC}", file=sys.stderr)
        return 2
    load_start = os.getloadavg()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))

    run_dir = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        result, lines = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                                bool(args.trace), run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("machine " + json.dumps(_machine(load_start), sort_keys=True))
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point.

Subcommands:
  run <config>        run an experiment config and write its report
  solve <instance>    offline relaxation of each problem of a multi-knapsack
                      file (optionally the exact binary optimum for n <= 25)
  gen <family> ...    write a seeded instance as a one-problem multi-knapsack file

Exit codes: 0 success, 1 configuration error, 2 runtime failure (for run: also
when any trial failed; the report is still written).
"""
from __future__ import annotations

import argparse
import sys
from typing import get_type_hints

from .generators import GeneratorFamily, GeneratorSpec, generate, read_mknap, write_mknap
from .harness import ConfigError, load_config, run_experiment
from .simplex import solve_binary_exact, solve_relaxation


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); config errors are exit 1
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="onlinelp", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config", help="experiment config file")
    p_run.add_argument("--workers", type=int, default=None,
                       help="parallel trial workers (overrides config)")
    p_run.add_argument("--output", default=None, help="report directory (overrides config)")

    p_solve = sub.add_parser("solve", help="solve the relaxation of each problem in a file")
    p_solve.add_argument("instance", help="instance file in the multi-knapsack layout")
    p_solve.add_argument("--binary", action="store_true",
                         help="also report the exact binary optimum (n <= 25)")

    # An option left out keeps the GeneratorSpec default of its field; each
    # float field of GeneratorSpec is an option.
    p_gen = sub.add_parser("gen", help="generate a one-problem instance file",
                           argument_default=argparse.SUPPRESS)
    p_gen.add_argument("family", choices=[f.value for f in GeneratorFamily])
    p_gen.add_argument("-n", type=int, required=True, help="number of columns")
    p_gen.add_argument("-m", type=int, required=True, help="number of constraints")
    p_gen.add_argument("--seed", type=int)
    for key, parse in get_type_hints(GeneratorSpec).items():
        if parse is float:
            p_gen.add_argument("--" + key.replace("_", "-"), type=float)
    p_gen.add_argument("-o", "--output", required=True, help="output instance file")
    return parser


def _cmd_run(args) -> int:
    if args.workers is not None and args.workers < 0:
        raise ConfigError(f"--workers must be >= 0, got {args.workers}")
    cfg = load_config(args.config)
    report = run_experiment(cfg, workers=args.workers)
    outdir = args.output or cfg.output_dir or f"{cfg.name}-report"
    report.save(outdir)
    for doc in report.aggregates:
        comp = doc["mean_competitiveness"]
        comp_txt = f"{comp:.4f}" if comp == comp else "n/a"
        print(f"{doc['algorithm']:>16s}  n={doc['n']:<7d} trials={doc['count']:<4d} "
              f"regret={doc['mean_regret']:.4f}  violation={doc['mean_violation']:.4f}  "
              f"competitiveness={comp_txt}")
    if report.errors:
        for err in report.errors:
            print(f"trial failure: {err}", file=sys.stderr)
        print(f"{len(report.errors)} trial(s) failed; see summary.json", file=sys.stderr)
    print(f"report written to {outdir}")
    return 2 if report.errors else 0


def _cmd_solve(args) -> int:
    for idx, (inst, optimum) in enumerate(read_mknap(args.instance), start=1):
        stated = "unknown" if optimum is None else f"{optimum:.12g}"
        print(f"problem {idx} n {inst.n} m {inst.m} optimum {stated}")
        sol = solve_relaxation(inst)
        print(f"objective {sol.objective:.12g}")
        print("duals " + " ".join(f"{v:.12g}" for v in sol.duals))
        print("primal " + " ".join(f"{v:.12g}" for v in sol.primal))
        print(f"iterations {sol.iterations}")
        if args.binary:
            obj, x = solve_binary_exact(inst)
            print(f"binary_objective {obj:.12g}")
            print("binary_solution " + "".join(str(int(v)) for v in x))
    return 0


def _cmd_gen(args) -> int:
    params = {k: v for k, v in vars(args).items() if k not in ("command", "output")}
    inst = generate(GeneratorSpec(**dict(params, family=GeneratorFamily(args.family))))
    write_mknap(args.output, [(inst, None)])
    print(f"wrote n={inst.n} m={inst.m} instance to {args.output}")
    return 0


_COMMANDS = {"run": _cmd_run, "solve": _cmd_solve, "gen": _cmd_gen}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point.

Subcommands:
  run <config>        run an experiment config and write its report
  solve <instance>    offline relaxation of one instance file (optionally the
                      exact binary optimum for n <= 25)
  gen <family> ...    generate an instance file from a seeded spec

Exit codes: 0 success, 1 configuration error, 2 runtime failure (for run: also
when any trial failed; the report is still written).
"""
from __future__ import annotations

import argparse
import sys

from .core import load_instance, save_instance
from .generators import GeneratorFamily, GeneratorSpec, generate
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

    p_solve = sub.add_parser("solve", help="solve the offline relaxation of an instance file")
    p_solve.add_argument("instance", help="instance file in the plain-text format")
    p_solve.add_argument("--binary", action="store_true",
                         help="also report the exact binary optimum (n <= 25)")

    p_gen = sub.add_parser("gen", help="generate an instance file")
    p_gen.add_argument("family", choices=[f.value for f in GeneratorFamily])
    p_gen.add_argument("-n", type=int, required=True, help="number of columns")
    p_gen.add_argument("-m", type=int, required=True, help="number of constraints")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--d-lo", type=float, default=1.0 / 3.0)
    p_gen.add_argument("--d-hi", type=float, default=2.0 / 3.0)
    p_gen.add_argument("--cauchy-truncation", type=float, default=10.0)
    p_gen.add_argument("--adversarial-low", type=float, default=1.0)
    p_gen.add_argument("--adversarial-high", type=float, default=2.0)
    p_gen.add_argument("--adversarial-capacity-fraction", type=float, default=0.5)
    p_gen.add_argument("-o", "--output", required=True, help="output instance file")
    return parser


def _cmd_run(args) -> int:
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
    inst = load_instance(args.instance)
    sol = solve_relaxation(inst)
    print(f"objective {sol.objective:.12g}")
    print("duals " + " ".join(f"{v:.12g}" for v in sol.duals))
    print("primal " + " ".join(f"{v:.12g}" for v in sol.primal))
    if args.binary:
        if inst.n > 25:
            raise ConfigError(f"--binary needs n <= 25, instance has n = {inst.n}")
        obj, x = solve_binary_exact(inst)
        print(f"binary_objective {obj:.12g}")
        print("binary_solution " + "".join(str(int(v)) for v in x))
    return 0


def _cmd_gen(args) -> int:
    spec = GeneratorSpec(
        family=GeneratorFamily(args.family),
        n=args.n,
        m=args.m,
        seed=args.seed,
        d_range=(args.d_lo, args.d_hi),
        cauchy_truncation=args.cauchy_truncation,
        adversarial_low=args.adversarial_low,
        adversarial_high=args.adversarial_high,
        adversarial_capacity_fraction=args.adversarial_capacity_fraction,
    )
    inst = generate(spec)
    save_instance(inst, args.output)
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

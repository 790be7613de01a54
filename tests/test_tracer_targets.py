"""perfbench/spans.py wraps the package's layer entry points, found by name.

Its tracer looks each one up with ``vars(owner)[attr]``, so renaming or
removing a name it wraps makes every traced benchmark run fail.  This test
keeps that contract visible in the unit suite.
"""
import importlib.util
from pathlib import Path

from onlinelp import algorithms, harness
from onlinelp.core import MultiInstance
from onlinelp.generators import GeneratorFamily, GeneratorSpec, generate

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_target():
    owners = (harness, algorithms, MultiInstance, harness.ExperimentReport)
    before = [dict(vars(owner)) for owner in owners]
    with load_spans().Tracer().installed():
        during = [dict(vars(owner)) for owner in owners]
    wrapped = [(owner, attr) for owner, old, new in zip(owners, before, during)
               for attr in old if new[attr] is not old[attr]]
    assert (harness, "run_soa") in wrapped and (MultiInstance, "from_instance") in wrapped
    assert (harness, "solve_relaxation") in wrapped and (algorithms, "solve_scaled") in wrapped
    for owner, old in zip(owners, before):
        now = dict(vars(owner))
        assert now.keys() == old.keys(), owner.__name__
        left_wrapped = [attr for attr in old if now[attr] is not old[attr]]
        assert not left_wrapped, (owner.__name__, left_wrapped)


def test_solver_spans_count_the_iterations():
    # the tracer's simplex counters read LpSolution.iterations
    inst = generate(GeneratorSpec(GeneratorFamily.UNIFORM, n=400, m=5, seed=1))
    tracer = load_spans().Tracer()
    with tracer.installed():
        offline = harness.solve_relaxation(inst)
        prefix = algorithms.solve_scaled(inst, 200)
    assert offline.iterations > 0 and prefix.iterations > 0
    assert [(span[0], span[4]) for span in tracer.spans] == [
        ("simplex.offline_lp", offline.iterations), ("simplex.prefix_lp", prefix.iterations)]


def test_a_sweep_records_the_harness_layers(tmp_path):
    # the harness must call these layers through the names the tracer wraps
    path = tmp_path / "tiny.ini"
    path.write_text("[experiment]\nname = tiny\nseed = 2\ntrials = 2\nn_values = 20 40\n"
                    "algorithms = soa/sqrt_n, pbd\n[generator]\nfamily = uniform\nm = 2\n"
                    "[repair]\nenabled = true\n")
    tracer = load_spans().Tracer()
    with tracer.installed():
        report = harness.run_experiment(harness.load_config(path), workers=1)
    assert not report.errors
    recorded = {span[0] for span in tracer.spans}
    for name in ("simplex.offline_lp", "algorithms.repair", "metrics.evaluate",
                 "metrics.aggregate"):
        assert name in recorded, name

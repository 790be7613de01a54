"""The compiled one-pass loop: where it is built, when it runs, and that it answers as numpy does.

Each path is forced by monkeypatching the switch, ``native.engine`` (see
``conftest.force_numpy``), or the compiler and cache directory it builds
with.  ``conftest.py`` points every test's cache at a temporary directory.
"""
import dataclasses
import itertools
import json
import math
import os
import subprocess
import sys
import threading
import time
import tomllib
from pathlib import Path

import numpy as np
import pytest

from onlinelp import algorithms, harness, native, simplex
from onlinelp.algorithms import AlgorithmConfig, AlgorithmKind, run_one_pass
from onlinelp.core import Instance, MultiInstance
from onlinelp.generators import GeneratorFamily, GeneratorSpec, generate
from onlinelp.harness import ExperimentConfig, run_experiment
from onlinelp.simplex import SimplexError, solve_box_lp, solve_relaxation

from conftest import force_numpy
from oracles import reference_one_pass
from test_simplex import warm_cases, warm_chain

ROOT = Path(__file__).resolve().parent.parent
# below, at and above the widths where a BLAS dot switches to blocked sums
M_VALUES = (1, 2, 5, 10, 15, 16, 17, 31, 32, 33, 48, 64, 100)
TOKENS = ("soa/sqrt_n", "soa/sqrt_t", "soa/unit", "sfa/sqrt_n", "sfa/sqrt_t", "sfa/unit",
          "sna/sqrt_n", "sna/sqrt_t", "sna/unit", "multisoa")


def random_batch(seed):
    """A batch of one m: signed or plain data, tight or roomy budgets, n around the 64-step edges.

    Some batches hold multiples of 1/4 only, so that a gated accept often
    fills a capacity exactly.
    """
    rng = np.random.default_rng(seed)
    m = int(rng.choice(M_VALUES))
    grid = 4.0 if rng.random() < 0.3 else None
    instances = []
    for _ in range(int(rng.integers(1, 5))):
        n = int(rng.choice((2, 3, 63, 64, 65, 128, 129, int(rng.integers(2, 300)))))
        low = -0.3 if rng.random() < 0.5 else 0.0
        data = [rng.uniform(-0.5, 2, n), rng.uniform(low, 1, (m, n)),
                (0.035 if rng.random() < 0.5 else 0.3) * n * rng.uniform(0.5, 1.5, m)]
        if grid:
            data = [np.maximum(np.round(x * grid), 1.0) / grid if i == 2 else np.round(x * grid) / grid
                    for i, x in enumerate(data)]
        instances.append(Instance(*data))
    if rng.random() < 0.25:  # the same problems as k = 1 multi-choice instances
        instances = [MultiInstance.from_instance(inst) for inst in instances]
    configs = [AlgorithmConfig.parse(token)
               for token in rng.choice(TOKENS, int(rng.integers(1, 6)))]
    seeds = [[int(s) for s in rng.integers(0, 100, len(instances))] for _ in configs]
    return instances, configs, seeds


def assert_same_traces(batch, again):
    for row, row_again in zip(batch, again, strict=True):
        for a, b in zip(row, row_again, strict=True):
            assert a.decisions.dtype == b.decisions.dtype
            assert a.decisions.tobytes() == b.decisions.tobytes()
            assert np.float64(a.objective).tobytes() == np.float64(b.objective).tobytes()
            assert a.final_prices.tobytes() == b.final_prices.tobytes()
            assert np.float64(a.max_dual_norm).tobytes() == np.float64(b.max_dual_norm).tobytes()


def columns_of(inst):
    if isinstance(inst, MultiInstance):
        return inst.reward_blocks[:, 0], inst.column_blocks[:, :, 0]
    return inst.rewards, inst.columns.T


def in_order_norm(prices):
    """The price norm from the in-order sum of squares (``sum`` compensates from Python 3.12)."""
    total = 0.0
    for v in prices:
        total += v * v
    return math.sqrt(total)


def assert_reference(instances, configs, batch):
    """Each trace against the plain-Python loop of ``tests/oracles.py``, bit for bit."""
    for cfg, row in zip(configs, batch):
        for inst, trace in zip(instances, row):
            rewards, columns = columns_of(inst)
            gammas = [float(cfg.schedule.gamma(t, inst.n)) for t in range(1, inst.n + 1)]
            decisions, prices, history = reference_one_pass(
                rewards, columns, inst.capacity, gammas,
                gate=cfg.kind is AlgorithmKind.SFA, nonstationary=cfg.kind is AlgorithmKind.SNA)
            assert list(trace.decisions) == decisions, (cfg.label, inst.n, inst.m)
            # the price steps are the same IEEE operations in the same order
            assert list(trace.final_prices) == prices
            assert trace.max_dual_norm == max(map(in_order_norm, history))


class TestSource:
    def test_the_loader_finds_the_source_beside_algorithms(self):
        here = Path(algorithms.__file__).parent
        assert native.SOURCES == (here / "_onepass.c", here / "_simplex.c")
        assert all(source.is_file() for source in native.SOURCES)

    def test_the_package_ships_the_source(self):
        doc = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
        shipped = doc["tool"]["setuptools"]["package-data"]["onlinelp"]
        assert all(source.name in shipped for source in native.SOURCES)


@pytest.mark.parametrize("seed", range(24))
def test_random_batches_answer_alike_on_both_paths(seed, monkeypatch):
    if native.engine() != "compiled":
        pytest.skip(f"the compiled loop does not run: {native.engine()}")
    batches = [random_batch(3 * seed + i) for i in range(3)]
    compiled = [run_one_pass(*batch) for batch in batches]
    force_numpy(monkeypatch)
    for batch, traces in zip(batches, compiled):
        plain = run_one_pass(*batch)
        assert_same_traces(traces, plain)
        assert_reference(*batch[:2], traces)
        assert_reference(*batch[:2], plain)


def kernel_fingerprint():
    """What the BLAS kernel could change: ``np.vecdot`` on a fixed probe, and one-pass traces.

    The traces are of one small k = 1 batch at each of m = 2, 10 and 32, on
    each engine: hex bytes of every decision, objective, final price and
    ``max_dual_norm``.  JSON-ready, so that a child process can print it.
    """
    rng = np.random.default_rng(0)
    x, y = (rng.standard_normal((64, 32)) * 10.0 ** rng.integers(-8, 8, (64, 32))
            for _ in range(2))
    traces = {}
    configs = [AlgorithmConfig.parse(token) for token in TOKENS[:-1]]
    for m, name in itertools.product((2, 10, 32), ("default", "numpy: forced")):
        instances = [generate(GeneratorSpec(family, n=90, m=m, seed=m))
                     for family in (GeneratorFamily.UNIFORM, GeneratorFamily.GAUSSIAN)]
        seeds = [[0] * len(instances) for _ in configs]
        with pytest.MonkeyPatch.context() as patch:
            if name != "default":
                force_numpy(patch, name)
            batch = run_one_pass(instances, configs, seeds)
        traces[f"{m} {name}"] = [
            [trace.decisions.tobytes().hex(), np.float64(trace.objective).tobytes().hex(),
             trace.final_prices.tobytes().hex(), np.float64(trace.max_dual_norm).tobytes().hex()]
            for row in batch for trace in row]
    return {"probe": np.vecdot(x, y).tobytes().hex(), "traces": traces}


def test_one_pass_traces_do_not_depend_on_the_blas_kernel():
    # only the child runs OpenBLAS's Haswell kernels, whose dot products sum
    # in another order than the other x86 kernels' for most m
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell",
               PYTHONPATH=os.pathsep.join((str(ROOT / "src"), str(ROOT / "tests"))))
    child = subprocess.run(
        [sys.executable, "-c",
         "import json, test_native; print(json.dumps(test_native.kernel_fingerprint()))"],
        env=env, capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    there, here = json.loads(child.stdout), kernel_fingerprint()
    if there["probe"] == here["probe"]:
        pytest.skip("the child's np.vecdot sums as this process's does: "
                    "no other BLAS kernel took effect")
    assert there["traces"] == here["traces"]


class TestSelection:
    def test_k1_batches_run_compiled_where_the_library_builds(self):
        # the reason names what failed, so a fallback shows in every report
        engine = native.engine()
        assert engine == "compiled" or engine.startswith("numpy: ")
        if not isinstance(native.load(), str):
            assert engine == "compiled"

    def test_a_k3_batch_steps_in_numpy_whatever_the_switch_says(self, monkeypatch):
        # only the numpy kernel draws a k > 1 batch's tie streams
        rng = np.random.default_rng(5)
        rewards, blocks = rng.uniform(-0.5, 2, (70, 3)), rng.uniform(0, 2, (70, 2, 3))
        rewards[::2, 1], blocks[::2, :, 1] = rewards[::2, 0], blocks[::2, :, 0]  # ties
        minsts = [MultiInstance(reward_blocks=rewards[:n], column_blocks=blocks[:n],
                                capacity=[0.4 * n, 0.5 * n]) for n in (70, 31)]
        configs = [AlgorithmConfig.parse(token) for token in ("multisoa", "sfa/sqrt_t", "sna/unit")]
        seeds = [[7 * i + j for j in range(2)] for i in range(3)]
        with monkeypatch.context() as patch:
            force_numpy(patch)
            plain = run_one_pass(minsts, configs, seeds)

        def refuse(*args):
            raise AssertionError("a k > 1 batch reached the compiled loop")

        monkeypatch.setattr(native, "engine", lambda: "compiled")
        monkeypatch.setattr(native, "step_rows", refuse)
        assert_same_traces(run_one_pass(minsts, configs, seeds), plain)

    def test_without_a_compiler_the_numpy_path_answers_alike(self, monkeypatch, tmp_path):
        instances, configs, seeds = random_batch(100)
        before = run_one_pass(instances, configs, seeds)
        monkeypatch.setattr(native, "_lib", None)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(native, "COMPILER", "onlinelp-no-such-compiler")
        assert native.engine() == "numpy: no compiler"
        assert_same_traces(run_one_pass(instances, configs, seeds), before)
        assert not list(tmp_path.glob("onlinelp/*.so"))

    def test_without_the_source_nothing_is_built(self, monkeypatch, tmp_path):
        monkeypatch.setattr(native, "SOURCES", (native.SOURCES[0], tmp_path / "missing.c"))
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        assert native.load() == "no source"
        assert not (tmp_path / "cache").exists()

    def test_with_an_unwritable_cache_the_numpy_path_answers_alike(self, monkeypatch, tmp_path):
        instances, configs, seeds = random_batch(101)
        before = run_one_pass(instances, configs, seeds)
        monkeypatch.setattr(native, "_lib", None)
        blocker = tmp_path / "cache"
        blocker.write_text("a file where the cache directory would go")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        assert native.engine() == "numpy: cache not writable"
        assert_same_traces(run_one_pass(instances, configs, seeds), before)

    def test_two_builds_into_one_empty_cache_both_load(self, monkeypatch, tmp_path):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        cache = tmp_path / "onlinelp"
        loaded = [None, None]

        def build(i):
            loaded[i] = native.load()

        threads = [threading.Thread(target=build, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
            assert not thread.is_alive()
        if any(lib == "no compiler" for lib in loaded):
            pytest.skip("no C compiler on this machine")
        assert all(not isinstance(lib, str) for lib in loaded), loaded
        assert [p.suffix for p in cache.iterdir()] == [".so"]  # no temporary file left
        # a third load reads the build in place
        assert not isinstance(native.load(), str)
        assert cache.stat().st_mode & 0o777 == 0o700

    def test_a_cache_others_can_write_is_not_loaded(self, monkeypatch, tmp_path):
        instances, configs, seeds = random_batch(102)
        before = run_one_pass(instances, configs, seeds)
        monkeypatch.setattr(native, "_lib", None)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        cache = tmp_path / "onlinelp"
        cache.mkdir(mode=0o777)
        cache.chmod(0o777)  # as a shared directory would be, whatever the umask
        assert native.engine() == "numpy: cache not private"
        assert_same_traces(run_one_pass(instances, configs, seeds), before)
        assert not list(cache.iterdir())  # nothing built there either

    def test_a_library_others_can_write_is_not_loaded(self, monkeypatch, tmp_path):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        if isinstance(native.load(), str):
            pytest.skip("no compiled library on this machine")
        (built,) = (tmp_path / "onlinelp").iterdir()
        built.chmod(0o666)
        assert native.load() == "cache not private"


class TestReport:
    @staticmethod
    def config(*tokens):
        return ExperimentConfig(name="engine", seed=3, trials=2, n_values=(30, 70),
                                algorithms=tuple(AlgorithmConfig.parse(t) for t in tokens),
                                generator_params={"family": GeneratorFamily.UNIFORM, "m": 3})

    def test_meta_names_the_engine_and_the_rows_do_not_depend_on_it(self, monkeypatch):
        cfg = self.config("soa/sqrt_n", "sfa/sqrt_t", "sna/unit", "dla")
        report = run_experiment(cfg, workers=1)
        assert report.meta["engine"] == native.engine()
        force_numpy(monkeypatch, "numpy: no compiler")
        fallback = run_experiment(cfg, workers=1)
        assert fallback.meta["engine"] == "numpy: no compiler"
        assert fallback.trials_csv() == report.trials_csv()
        assert fallback.aggregates == report.aggregates and fallback.fits == report.fits

    def test_a_wide_batch_runs_compiled(self):
        if isinstance(native.load(), str):
            pytest.skip("no compiled library on this machine")
        cfg = dataclasses.replace(self.config("soa/sqrt_n", "sfa/sqrt_t"),
                                  generator_params={"family": GeneratorFamily.UNIFORM, "m": 32})
        assert run_experiment(cfg, workers=1).meta["engine"] == "compiled"

    def test_no_one_pass_row_no_engine(self):
        # no kernel call is timed, yet the LPs ran on the engine meta names
        report = run_experiment(self.config("dla", "pbd"), workers=1)
        assert "onepass_kernel" not in report.meta["wall_seconds_by_algorithm"]
        assert report.meta["engine"] == native.engine()

    def test_meta_names_the_lp_engine_and_the_rows_do_not_depend_on_it(self, monkeypatch):
        cfg = self.config("soa/sqrt_n", "dla")
        report = run_experiment(cfg, workers=2)
        assert report.meta["engine"] == native.engine()
        force_numpy(monkeypatch, "numpy: no compiler")
        fallback = run_experiment(cfg, workers=1)
        assert fallback.meta["engine"] == "numpy: no compiler"
        assert fallback.trials_csv() == report.trials_csv()
        assert fallback.aggregates == report.aggregates and fallback.fits == report.fits

    def test_no_lp_no_lp_engine(self, monkeypatch):
        # no LP is solved or timed, yet meta still names the engine
        def fail(*args):
            raise RuntimeError("no run")

        monkeypatch.setattr(harness, "run_one_pass", fail)
        report = run_experiment(self.config("soa/sqrt_n"), workers=1)
        assert report.errors and not report.rows
        assert "offline_lp" not in report.meta["wall_seconds_by_algorithm"]
        assert report.meta["engine"] == native.engine()

    def test_no_timer_counts_the_library_load(self, monkeypatch):
        # a slow first call in each process, as a build or load is, stays out
        # of every timing; forked workers pay it too, as a spawned one would
        real, slowed = native.engine, set()

        def slow_first():
            if os.getpid() not in slowed:
                slowed.add(os.getpid())
                time.sleep(0.5)
            return real()

        monkeypatch.setattr(native, "engine", slow_first)
        engines = set()
        for workers in (1, 2):
            report = run_experiment(self.config("soa/sqrt_n", "dla"), workers=workers)
            wall = report.meta["wall_seconds_by_algorithm"]
            for name in ("offline_lp", "onepass_kernel", "prefix_lp_pass"):
                assert wall[name] < 0.5, (workers, name)
            if workers == 1:  # the parent asks before its clock starts
                assert report.meta["total_wall_seconds"] < 0.5
            engines.add(report.meta["engine"])
        assert engines == {real()}


# --- the offline LP's pivot loop ---------------------------------------------

FIELDS = ("primal", "duals", "reduced_bounds_duals", "basis", "at_upper")


def outcome(solve):
    """What ``solve()`` returns, or the (type, message) it raises."""
    try:
        return solve()
    except Exception as exc:
        return type(exc), str(exc)


def both_engines(monkeypatch, solve):
    """``solve``'s outcome on the compiled LP engine, then with the numpy one forced."""
    if native.engine() != "compiled":
        pytest.skip(f"the compiled pivot loop does not run: {native.engine()}")
    compiled = outcome(solve)
    with monkeypatch.context() as patch:
        force_numpy(patch)
        return compiled, outcome(solve)


def assert_same_solutions(compiled, plain):
    assert type(compiled) is type(plain)
    if isinstance(plain, tuple):  # the same exception and message
        assert compiled == plain
        return
    for field in FIELDS:
        a, b = getattr(compiled, field), getattr(plain, field)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field
    assert np.float64(compiled.objective).tobytes() == np.float64(plain.objective).tobytes()
    assert compiled.iterations == plain.iterations


def continuous_lps():
    """About 600 LPs of continuous data, as ``(label, solve)``: the five families, signed
    data, cold and warm starts and warm ``solve_scaled`` chains, m 1 to 30, n 2 to 3200."""
    for family, n, m in itertools.product(GeneratorFamily, (4, 52, 400, 3200), (1, 3, 10, 30)):
        inst = generate(GeneratorSpec(family, n=n, m=m, seed=n + m))
        yield (family, n, m), lambda inst=inst: solve_relaxation(inst)
    rng = np.random.default_rng(31)
    for i in range(150):
        n, m = int(rng.integers(2, 400)), int(rng.integers(1, 31))
        r, A = rng.uniform(-2, 2, n), rng.uniform(-2, 2, (m, n))
        b = rng.uniform(0.0, 1.5, m) * n * 0.4
        b[rng.random(m) < 0.2] = 0.0  # some zero capacities
        yield ("signed", i), lambda r=r, A=A, b=b: solve_box_lp(r, A, b)
    for kind, r, A, b_old, b_new in warm_cases(np.random.default_rng(12), 240):
        if kind == "tied":
            continue
        start = solve_box_lp(r, A, b_old)  # the same start for both engines
        yield (kind, "cold"), lambda r=r, A=A, b=b_old: solve_box_lp(r, A, b)
        yield (kind, "warm"), lambda r=r, A=A, b=b_new, start=(start.basis, start.at_upper): \
            solve_box_lp(r, A, b, start=start)
    for family in GeneratorFamily:
        inst = generate(GeneratorSpec(family, n=40, m=4, seed=5))
        yield (family, "chain"), lambda inst=inst: warm_chain(inst)


class TestLpEngines:
    """Both LP engines take the same pivots, so every answer keeps its bits."""

    def test_continuous_lps_answer_alike_on_both_paths(self, monkeypatch):
        count = 0
        for label, solve in continuous_lps():
            compiled, plain = both_engines(monkeypatch, solve)
            if isinstance(plain, list):  # a warm chain: one LP per prefix
                for a, b in zip(compiled, plain, strict=True):
                    assert_same_solutions(a, b)
                count += len(plain)
            else:
                assert_same_solutions(compiled, plain)
                count += 1
        assert count >= 500

    def test_tied_lps_reach_the_same_optimum(self, monkeypatch):
        # Small-integer data tie ratios exactly, and each engine breaks a tie
        # by the last bits of its own sums, so on a degenerate LP the two may
        # stop at different optimal bases: the optimum is the same.
        for kind, r, A, b_old, b_new in warm_cases(np.random.default_rng(12), 240):
            if kind != "tied":
                continue
            compiled, plain = both_engines(monkeypatch, lambda: solve_box_lp(r, A, b_new))
            assert compiled.objective == pytest.approx(plain.objective, rel=1e-12, abs=1e-12)

    def test_a_non_finite_entry_is_rejected_alike_on_both_paths(self, monkeypatch):
        # Left to the engines, a non-finite entry can end in a singular basis
        # on one and a missing entering column on the other; the data are
        # turned away before either runs.
        inst = generate(GeneratorSpec(GeneratorFamily.UNIFORM, n=30, m=3, seed=1))
        rng = np.random.default_rng(2)
        for value, which, _ in itertools.product((np.nan, np.inf, -np.inf), range(3), range(4)):
            data = [inst.rewards.copy(), inst.columns.copy(), inst.capacity.copy()]
            data[which][tuple(int(rng.integers(size)) for size in data[which].shape)] = value
            compiled, plain = both_engines(monkeypatch, lambda: solve_box_lp(*data))
            assert plain == (ValueError, "LP data must be finite, and capacities non-negative")
            assert compiled == plain

    def test_a_singular_basis_raises_alike_on_both_paths(self, monkeypatch):
        # column 0 is the zero vector and column 1 equals slack 0
        r = np.array([1.0, 1.0, 1.0])
        A = np.array([[0.0, 1.0, 0.5], [0.0, 0.0, 0.5]])
        at_upper = np.zeros(5, dtype=bool)
        for basis in ((0, 4), (1, 3)):
            compiled, plain = both_engines(
                monkeypatch, lambda: solve_box_lp(r, A, [1.0, 1.0], start=(basis, at_upper)))
            assert plain == (np.linalg.LinAlgError, "Singular matrix")
            assert compiled == plain

    def test_an_exceeded_budget_raises_alike_on_both_paths(self, monkeypatch):
        inst = generate(GeneratorSpec(GeneratorFamily.UNIFORM, n=200, m=5, seed=1))
        assert solve_relaxation(inst).iterations > 2

        def tight_budget():
            monkeypatch.setattr(simplex, "_max_iterations", lambda N: 2)
            return solve_relaxation(inst)

        compiled, plain = both_engines(monkeypatch, tight_budget)
        assert plain == (SimplexError, "pivot budget exceeded (3 iterations, n=200, m=5)")
        assert compiled == plain


    def test_the_loop_rejects_a_basis_index_out_of_range(self):
        if native.engine() != "compiled":
            pytest.skip(f"the compiled pivot loop does not run: {native.engine()}")
        A = np.ones((1, 2))
        Gt = np.concatenate((A.T, np.eye(1)))
        for index in (-1, 3):
            with pytest.raises(ValueError, match="must lie in"):
                native.pivot_lp(A, Gt, np.ones(2), np.ones(1), np.array([index]),
                                np.zeros(3, dtype=bool), np.ones(3, dtype=bool), 10, 1e-9, 1e-9)


class TestPrune:
    def test_a_fresh_build_removes_builds_unused_for_30_days(self, monkeypatch, tmp_path):
        def build(key):
            """Build the sources with a comment appended to the second: a new build key."""
            source = tmp_path / key / "_simplex.c"
            source.parent.mkdir(exist_ok=True)
            source.write_text(simplex_source + f"/* {key} */\n")
            monkeypatch.setattr(native, "SOURCES", (native.SOURCES[0], source))
            return native.load()

        def unused_for(path, days):
            then = time.time() - days * 86400
            os.utime(path, (then, then), follow_symlinks=False)

        simplex_source = native.SOURCES[1].read_text()
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "home"))
        cache = tmp_path / "home" / "onlinelp"
        if isinstance(build("one"), str):
            pytest.skip("no compiled library on this machine")
        (first,) = cache.iterdir()
        assert len(first.name.split("-")) == 2  # one digest: the build key
        # loading a build marks it used
        unused_for(first, 40)
        assert not isinstance(build("one"), str)
        assert time.time() - first.stat().st_mtime < 60
        # a build of the older host-and-checkout scheme unused for 31 days goes;
        # a build unused for 29 days, a link and a file not named as a build,
        # each unused for 31 days, and a build still being written stay
        stale = cache / "native-00000000-0123456789abcdef0123.so"
        recent = cache / "native-0123456789abcdef0123.so"
        kept = {recent: 29, cache / "native-notes.txt": 31,
                cache / "native-89abcdef0123456789ab.so.x1y2.tmp": 31}
        for path, days in {stale: 31, **kept}.items():
            path.write_bytes(first.read_bytes())
            unused_for(path, days)
        link = cache / "native-456789abcdef01234567.so"
        link.symlink_to(stale)
        unused_for(link, 31)
        assert not isinstance(build("two"), str)
        (second,) = set(cache.iterdir()) - set(kept) - {first, link}
        assert second != first and not stale.exists()
        assert link.is_symlink() and all(path.exists() for path in kept)
        # loading a build in place removes nothing
        assert not isinstance(build("one"), str)
        assert set(cache.iterdir()) == {first, second, link, *kept}

    def test_identical_sources_in_two_directories_load_one_build(self, monkeypatch, tmp_path):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "home"))
        for name in ("one", "two"):
            sources = tuple(tmp_path / name / source.name for source in native.SOURCES)
            sources[0].parent.mkdir()
            for source, original in zip(sources, native.SOURCES):
                source.write_bytes(original.read_bytes())
            monkeypatch.setattr(native, "SOURCES", sources)
            if isinstance(native.load(), str):
                pytest.skip("no compiled library on this machine")
        assert len(list((tmp_path / "home" / "onlinelp").iterdir())) == 1

    def test_two_checkouts_sharing_a_cache_keep_their_builds(self, monkeypatch, tmp_path):
        # two copies of the sources, each with its own change, as two
        # checkouts of different commits are; loading them in turn builds once each
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "home"))
        originals = [source.read_text() for source in native.SOURCES]
        checkouts = []
        for name in ("one", "two"):
            sources = tuple(tmp_path / name / source.name for source in native.SOURCES)
            sources[0].parent.mkdir()
            for source, text in zip(sources, originals):
                source.write_text(text + f"/* {name} */\n")
            checkouts.append(sources)
        cache = tmp_path / "home" / "onlinelp"
        builds = []
        for sources in checkouts * 2:
            monkeypatch.setattr(native, "SOURCES", sources)
            if isinstance(native.load(), str):
                pytest.skip("no compiled library on this machine")
            builds.append({path.name: path.stat().st_mtime_ns for path in cache.iterdir()})
        assert len(builds[1]) == 2
        assert builds[3] == builds[1]  # neither was rebuilt

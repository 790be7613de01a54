"""The compiled one-pass loop: where it is built, when it runs, and that it answers as numpy does.

Each path is forced by monkeypatching the selector, ``native.engine``, or
the compiler and cache directory it builds with.  ``conftest.py`` points
every test's cache at a temporary directory.
"""
import itertools
import math
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

from oracles import reference_one_pass
from test_simplex import warm_cases, warm_chain

ROOT = Path(__file__).resolve().parent.parent
TOKENS = ("soa/sqrt_n", "soa/sqrt_t", "soa/unit", "sfa/sqrt_n", "sfa/sqrt_t", "sfa/unit",
          "sna/sqrt_n", "sna/sqrt_t", "sna/unit", "multisoa")


def random_batch(seed):
    """A batch of one m: signed or plain data, tight or roomy budgets, n around the 64-step edges.

    Some batches hold multiples of 1/4 only, so that a gated accept often
    fills a capacity exactly.
    """
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 16))
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


def numpy_engine(monkeypatch, reason="numpy: forced"):
    monkeypatch.setattr(native, "engine", lambda k, m: reason)


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


def assert_reference(instances, configs, batch):
    """Each trace against the plain-Python loop of ``tests/oracles.py``."""
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
            norm = max(math.sqrt(sum(v * v for v in p)) for p in history)
            assert trace.max_dual_norm == pytest.approx(norm, rel=1e-12, abs=1e-300)


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
    batches = [random_batch(3 * seed + i) for i in range(3)]
    for m in {batch[0][0].m for batch in batches}:
        if native.engine(1, m) != "compiled":
            pytest.skip(f"the compiled loop does not run at m = {m}: {native.engine(1, m)}")
    compiled = [run_one_pass(*batch) for batch in batches]
    numpy_engine(monkeypatch)
    for batch, traces in zip(batches, compiled):
        plain = run_one_pass(*batch)
        assert_same_traces(traces, plain)
        assert_reference(*batch[:2], traces)
        assert_reference(*batch[:2], plain)


class TestSelection:
    def test_k1_batches_run_compiled_where_the_library_builds(self):
        # the reason names what failed, so a fallback shows in every report
        for m in (1, 5, 10):
            engine = native.engine(1, m)
            assert engine == "compiled" or engine.startswith("numpy: ")
        assert native.engine(3, 5) == "numpy: k > 1"
        if not isinstance(native.load(), str):
            # one product has one rounding in any order
            assert native.engine(1, 1) == "compiled"

    def test_without_a_compiler_the_numpy_path_answers_alike(self, monkeypatch, tmp_path):
        instances, configs, seeds = random_batch(100)
        before = run_one_pass(instances, configs, seeds)
        monkeypatch.setattr(native, "_loaded", {})
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(native, "COMPILER", "onlinelp-no-such-compiler")
        assert native.engine(1, instances[0].m) == "numpy: no compiler"
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
        monkeypatch.setattr(native, "_loaded", {})
        blocker = tmp_path / "cache"
        blocker.write_text("a file where the cache directory would go")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        assert native.engine(1, instances[0].m) == "numpy: cache not writable"
        assert_same_traces(run_one_pass(instances, configs, seeds), before)

    def test_a_dot_order_mismatch_selects_numpy(self, monkeypatch):
        monkeypatch.setattr(native, "_loaded", {})
        if native.engine(1, 5) != "compiled":
            pytest.skip("no compiled library on this machine")
        vecdot = np.vecdot

        def reordered(x, y):  # a last-bit difference, as another summation order gives
            return np.nextafter(vecdot(x, y), np.inf)

        monkeypatch.setattr(np, "vecdot", reordered)
        assert native.engine(1, 4) == "numpy: dot order differs at m = 4"
        monkeypatch.setattr(np, "vecdot", vecdot)
        assert native.engine(1, 4) == "numpy: dot order differs at m = 4"  # checked once per m
        assert native.engine(1, 5) == "compiled"

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
        monkeypatch.setattr(native, "_loaded", {})
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        cache = tmp_path / "onlinelp"
        cache.mkdir(mode=0o777)
        cache.chmod(0o777)  # as a shared directory would be, whatever the umask
        assert native.engine(1, instances[0].m) == "numpy: cache not private"
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
        assert report.meta["onepass_engine"] == native.engine(1, 3)
        numpy_engine(monkeypatch, "numpy: no compiler")
        fallback = run_experiment(cfg, workers=1)
        assert fallback.meta["onepass_engine"] == "numpy: no compiler"
        assert fallback.trials_csv() == report.trials_csv()
        assert fallback.aggregates == report.aggregates and fallback.fits == report.fits

    def test_no_one_pass_row_no_engine(self):
        report = run_experiment(self.config("dla", "pbd"), workers=1)
        assert report.meta["onepass_engine"] is None
        assert report.meta["offline_lp_engine"] == native.lp_engine()

    def test_meta_names_the_lp_engine_and_the_rows_do_not_depend_on_it(self, monkeypatch):
        cfg = self.config("soa/sqrt_n", "dla")
        report = run_experiment(cfg, workers=2)
        assert report.meta["offline_lp_engine"] == native.lp_engine()
        monkeypatch.setattr(native, "lp_engine", lambda: "numpy: no compiler")
        fallback = run_experiment(cfg, workers=1)
        assert fallback.meta["offline_lp_engine"] == "numpy: no compiler"
        assert fallback.trials_csv() == report.trials_csv()
        assert fallback.aggregates == report.aggregates and fallback.fits == report.fits

    def test_no_lp_no_lp_engine(self, monkeypatch):
        def fail(*args):
            raise RuntimeError("no run")

        monkeypatch.setattr(harness, "run_one_pass", fail)
        report = run_experiment(self.config("soa/sqrt_n"), workers=1)
        assert report.errors and not report.rows
        assert report.meta["offline_lp_engine"] is None

    def test_the_lp_engine_is_asked_before_the_lp_timer(self, monkeypatch):
        # a slow first call, as a build is, stays out of the offline_lp timings
        real, calls = native.lp_engine, []

        def slow_first():
            if not calls:
                time.sleep(0.5)
            calls.append(1)
            return real()

        monkeypatch.setattr(native, "lp_engine", slow_first)
        report = run_experiment(self.config("soa/sqrt_n"), workers=1)
        assert len(calls) > 1
        assert report.meta["wall_seconds_by_algorithm"]["offline_lp"] < 0.5



# --- the offline LP's pivot loop ---------------------------------------------

FIELDS = ("primal", "duals", "reduced_bounds_duals", "basis", "at_upper")


def on_engine(monkeypatch, engine, solve):
    """What ``solve()`` returns, or the (type, message) it raises, with the LP engine forced."""
    with monkeypatch.context() as patch:
        patch.setattr(native, "lp_engine", lambda: engine)
        try:
            return solve()
        except Exception as exc:
            return type(exc), str(exc)


def both_engines(monkeypatch, solve):
    if native.lp_engine() != "compiled":
        pytest.skip(f"the compiled pivot loop does not run: {native.lp_engine()}")
    return on_engine(monkeypatch, "compiled", solve), on_engine(monkeypatch, "numpy: forced", solve)


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
        if native.lp_engine() != "compiled":
            pytest.skip(f"the compiled pivot loop does not run: {native.lp_engine()}")
        A = np.ones((1, 2))
        Gt = np.concatenate((A.T, np.eye(1)))
        for index in (-1, 3):
            with pytest.raises(ValueError, match="must lie in"):
                native.pivot_lp(A, Gt, np.ones(2), np.ones(1), np.array([index]),
                                np.zeros(3, dtype=bool), np.ones(3, dtype=bool), 10, 1e-9, 1e-9)


class TestPrune:
    def test_a_fresh_build_removes_older_builds_of_this_host_only(self, monkeypatch, tmp_path):
        def build(key):
            """Build the sources with a comment appended to the second: a new build key."""
            source = tmp_path / key / "_simplex.c"
            source.parent.mkdir(exist_ok=True)
            source.write_text(simplex_source + f"/* {key} */\n")
            monkeypatch.setattr(native, "SOURCES", (native.SOURCES[0], source))
            return native.load()

        simplex_source = native.SOURCES[1].read_text()
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "home"))
        cache = tmp_path / "home" / "onlinelp"
        if isinstance(build("one"), str):
            pytest.skip("no compiled library on this machine")
        (first,) = cache.iterdir()
        host = first.name.split("-")[1]
        # another host's build, a link named as a build of this host, and a file
        # not named as a build all stay
        kept = {cache / "native-00000000-0123456789abcdef0123.so": first.read_bytes(),
                cache / f"native-{host}-notes.txt": b"not a build"}
        for path, data in kept.items():
            path.write_bytes(data)
        link = cache / f"native-{host}-0123456789abcdef0123.so"
        link.symlink_to(first)
        assert not isinstance(build("two"), str)
        (second,) = set(cache.iterdir()) - set(kept) - {link}
        assert second.name.startswith(f"native-{host}-") and second != first
        assert all(path.read_bytes() == data for path, data in kept.items())
        assert link.is_symlink()
        # loading a build in place removes nothing
        assert not isinstance(build("two"), str)
        assert set(cache.iterdir()) == {second, link, *kept}

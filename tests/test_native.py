"""The compiled one-pass loop: where it is built, when it runs, and that it answers as numpy does.

Each path is forced by monkeypatching the selector, ``native.engine``, or
the compiler and cache directory it builds with.  ``conftest.py`` points
every test's cache at a temporary directory.
"""
import math
import threading
import tomllib
from pathlib import Path

import numpy as np
import pytest

from onlinelp import algorithms, native
from onlinelp.algorithms import AlgorithmConfig, AlgorithmKind, run_one_pass
from onlinelp.core import Instance, MultiInstance
from onlinelp.generators import GeneratorFamily
from onlinelp.harness import ExperimentConfig, run_experiment

from oracles import reference_one_pass

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
        assert native.SOURCE == Path(algorithms.__file__).with_name("_onepass.c")
        assert native.SOURCE.is_file()

    def test_the_package_ships_the_source(self):
        doc = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
        assert "_onepass.c" in doc["tool"]["setuptools"]["package-data"]["onlinelp"]


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
        monkeypatch.setattr(native, "SOURCE", tmp_path / "missing.c")
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


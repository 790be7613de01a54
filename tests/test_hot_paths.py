"""The hot paths call numpy's C entry points, and those calls give the old answers bit for bit.

The per-pivot, per-step and per-run code calls ndarray methods and ufunc
reductions, not the Python wrappers in ``numpy/_core/fromnumeric.py``,
``numpy/_core/_methods.py`` or ``numpy.linalg.norm`` that end in them.  The
tests here compare each replacement with the call it replaced, on the inputs
where the two could differ, and guard the hot functions' source against the
wrappers coming back.
"""
import ast
import inspect
import math
import struct

import numpy as np
import pytest

from onlinelp import algorithms, core, native, simplex
from onlinelp.core import Instance, violation_norm
from onlinelp.generators import GeneratorFamily, GeneratorSpec, generate
from onlinelp.simplex import SimplexError, solve_box_lp, solve_prefix_lps

from conftest import force_numpy


def bits(value):
    return struct.pack("<d", value)


def uniform(n, m, seed):
    return generate(GeneratorSpec(GeneratorFamily.UNIFORM, n=n, m=m, seed=seed))


@pytest.fixture
def nan_first_inverse(monkeypatch):
    """The first ``np.linalg.inv`` call returns NaN in its first row of every matrix."""
    real, calls = np.linalg.inv, []

    def inv(a):
        out = real(a)
        if not calls:
            out[..., 0, :] = np.nan
        calls.append(a.shape)
        return out

    monkeypatch.setattr(np.linalg, "inv", inv)
    return calls


class TestNanExcess:
    # A NaN basic value is not within tolerance: its row leaves, as an
    # `excess.max() <= tol` test and `np.argmax` have it, and the ratio test
    # then finds no column that moves a NaN toward its bound.
    def test_one_lp_pivots_on_a_nan_row(self, nan_first_inverse, monkeypatch):
        # poisons np.linalg.inv, which only the numpy LP engine calls per pass
        force_numpy(monkeypatch)
        inst = uniform(30, 3, 1)
        with pytest.raises(SimplexError, match="no entering column"):
            solve_box_lp(inst.rewards, inst.columns, inst.capacity)
        assert len(nan_first_inverse) == 1

    def test_the_pass_pivots_on_a_nan_row(self, nan_first_inverse):
        with pytest.raises(SimplexError, match="no entering column"):
            solve_prefix_lps([uniform(40, 3, seed) for seed in (1, 2)])
        assert len(nan_first_inverse) == 1

    def test_the_row_reductions_agree_on_nan(self):
        excess = np.array([[0.0, np.nan, 2.0], [1e-12, 0.0, -1.0], [3.0, np.nan, np.nan],
                           [np.nan, 5.0, 1.0]])
        largest = np.maximum.reduce(excess, axis=1)
        assert np.array_equal(largest, excess.max(axis=1), equal_nan=True)
        leaving = (~(largest <= 1e-9)).nonzero()[0]
        assert np.array_equal(leaving, np.flatnonzero(~(excess.max(axis=1) <= 1e-9)))
        rows = excess[leaving].argmax(axis=1)
        assert rows.tolist() == [int(np.argmax(excess[k])) for k in leaving]
        assert np.array_equal(largest[leaving], excess[leaving, rows], equal_nan=True)


class TestReductionsWithInitial:
    @pytest.mark.parametrize("shape", [(0,), (3,), (0, 4), (2, 3)])
    def test_masked_max_of_nothing_is_the_initial_value(self, shape):
        values = -np.arange(1.0, math.prod(shape) + 1).reshape(shape)
        for where in (np.zeros(shape, dtype=bool), np.ones(shape, dtype=bool)):
            new = np.maximum.reduce(values, axis=None, where=where, initial=0.0)
            assert bits(new) == bits(values.max(where=where, initial=0.0))

    def test_a_solve_without_nonbasics_checks_nothing(self):
        # n = 0: every column of [A | I] is a basic slack, so the final
        # dual-feasibility check reduces an empty selection to its initial 0
        sol = solve_box_lp(np.zeros(0), np.zeros((2, 0)), np.array([1.0, 2.0]))
        assert sol.objective == 0.0 and sol.primal.shape == (0,)
        assert np.array_equal(sol.duals, np.zeros(2))


class TestViolationNorm:
    def test_equals_numpy_norm_bit_for_bit(self):
        rng = np.random.default_rng(5)
        for n, m in ((1, 1), (7, 3), (200, 10)):
            inst = Instance(rewards=rng.uniform(-1, 1, n), columns=rng.uniform(-1, 2, (m, n)),
                            capacity=rng.uniform(0.2, 0.6, m) * n)
            decisions = [rng.integers(0, 2, n), np.zeros(n), np.ones(n)]
            # a decision vector that fits: the first columns until one would not
            fits = np.zeros(n)
            for j in range(n):
                fits[j] = 1.0
                if (inst.columns @ fits > inst.capacity).any():
                    fits[j] = 0.0
            decisions.append(fits)
            for x in decisions:
                old = float(np.linalg.norm(np.maximum(inst.columns @ x - inst.capacity, 0)))
                assert bits(violation_norm(inst, x)) == bits(old)
            assert violation_norm(inst, fits) == 0.0


class TestTraceObjective:
    @pytest.mark.parametrize("taken", [
        [], [-0.0], [0.0, -0.0], [-0.0, -0.0], [-1.5, 2.25, -0.0, 1e-300],
        [0.1, 0.2, 0.3, -0.6], [-3.0, -1e16, 1.0, 1e16],
    ])
    def test_equals_the_cumulative_sum_from_zero(self, taken):
        taken = np.array(taken, dtype=np.float64)
        # every column taken, each from the one alternative of a (n, 1) reward array
        trace = algorithms._trace(np.ones(len(taken), dtype=np.int8), taken[:, None], None, None)
        assert bits(trace.objective) == bits(float(np.cumsum(np.append(0.0, taken))[-1]))


# The functions that run per pivot, per step or per run.
HOT = {
    simplex: ("_long_step", "_pivot", "_numpy_pivots", "_compiled_pivots", "_solve",
              "solve_prefix_lps", "_check_dual_feasible"),
    algorithms: ("run_one_pass", "_numpy_rows", "_trace", "run_prefix_lp", "repair_feasibility"),
    native: ("engine", "step_rows", "pivot_lp", "_workspace"),
    core: ("violation_norm",),
}
# numpy wrapper -> the C entry point it ends in
WRAPPERS = {
    "np.flatnonzero": "x.nonzero()[0] on a 1-D x",
    "np.argmax": "the ndarray method .argmax()",
    "np.argmin": "the ndarray method .argmin()",
    "np.argsort": "the ndarray method .argsort()",
    "np.argpartition": "the ndarray method .argpartition()",
    "np.cumsum": "the ndarray method .cumsum()",
    "np.sort": "a.copy() followed by .sort()",
    "np.append": "np.concatenate",
    "np.max": "np.maximum.reduce",
    "np.min": "np.minimum.reduce",
    "np.searchsorted": "the ndarray method .searchsorted()",
    "np.linalg.norm": "math.sqrt(v.dot(v)) for a 1-D float v",
}
# ndarray methods that run through numpy/_core/_methods.py -> the ufunc reduction
METHODS = {
    "max": "np.maximum.reduce",
    "min": "np.minimum.reduce",
    "any": "np.logical_or.reduce",
    "all": "np.logical_and.reduce",
}


def dotted(node):
    """``np.linalg.norm`` for that attribute chain, ``None`` for anything else."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id] + parts[::-1])


def wrapper_calls(function: ast.FunctionDef):
    """(line, call, replacement) for each wrapper call in ``function``."""
    found = []
    for node in ast.walk(function):
        if not isinstance(node, ast.Call):
            continue
        name = dotted(node.func)
        if name is not None and name.startswith("np."):
            use = WRAPPERS.get(name)
        elif isinstance(node.func, ast.Attribute):
            name, use = "." + node.func.attr, METHODS.get(node.func.attr)
        else:
            continue
        if use is not None:
            found.append((node.lineno, name, use))
    return sorted(found)


def functions(module):
    tree = ast.parse(inspect.getsource(module))
    return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


def test_the_hot_paths_call_no_numpy_wrapper():
    problems = []
    for module, names in HOT.items():
        defined = functions(module)
        for name in names:
            assert name in defined, f"{module.__name__}.{name} is no longer defined: update HOT"
            problems += [f"{module.__name__}.{name} calls {call} (line {line}); call {use} instead"
                         for line, call, use in wrapper_calls(defined[name])]
    assert not problems, "\n".join(problems)


def test_the_guard_finds_each_wrapper():
    source = "def f(x, v):\n" + "".join(
        f"    {call}(x)\n" for call in WRAPPERS) + "".join(
        f"    x.{method}(axis=0)\n" for method in METHODS) + (
        "    np.maximum.reduce(x)\n    x.argmax()\n    max(x, v)\n    x.nonzero()\n")
    found = wrapper_calls(ast.parse(source).body[0])
    assert [call for _, call, _ in found] == list(WRAPPERS) + ["." + m for m in METHODS]
    assert [line for line, _, _ in found] == list(range(2, 2 + len(found)))

"""Seeded instance generators, the arrival-order shuffler, and benchmark file ingestion.

All generators are pure functions of their spec (seed included).  Randomness
in arrival order enters only through :func:`permute`; the generators
themselves lay data out deterministically.
"""
from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .core import Instance

__all__ = [
    "GeneratorFamily",
    "GeneratorSpec",
    "PermutationPlan",
    "MknapFormatError",
    "gen_uniform",
    "gen_gaussian",
    "gen_trunc_cauchy",
    "gen_mixed_four_groups",
    "gen_adversarial",
    "generate",
    "permute",
    "read_mknap",
]

DEFAULT_D_RANGE = (1.0 / 3.0, 2.0 / 3.0)


class GeneratorFamily(enum.Enum):
    UNIFORM = "uniform"
    GAUSSIAN = "gaussian"
    TRUNC_CAUCHY = "trunc_cauchy"
    MIXED_FOUR = "mixed_four_groups"
    ADVERSARIAL = "adversarial"


@dataclass(frozen=True)
class GeneratorSpec:
    """Family tag plus the per-family parameters.

    ``d_range`` bounds the i.i.d. per-column budget draws.
    ``cauchy_truncation`` is the two-sided magnitude cap for the heavy-tail
    family.  The adversarial family builds a two-phase stream: the first half
    of the columns carries ``adversarial_low`` rewards, the second half
    ``adversarial_high``, on an all-ones constraint matrix with capacity
    ``adversarial_capacity_fraction * n`` per row; it is meant to be consumed
    through :func:`permute`.
    """

    family: GeneratorFamily
    n: int
    m: int
    seed: int
    d_range: Tuple[float, float] = DEFAULT_D_RANGE
    cauchy_truncation: float = 10.0
    adversarial_low: float = 1.0
    adversarial_high: float = 2.0
    adversarial_capacity_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.n < 1 or self.m < 1:
            raise ValueError("need n >= 1 and m >= 1")
        lo, hi = self.d_range
        if not (0.0 < lo <= hi):
            raise ValueError("d_range must satisfy 0 < lo <= hi")

    def notes(self) -> str:
        """Free-text provenance recorded in experiment reports."""
        if self.family is GeneratorFamily.TRUNC_CAUCHY:
            return (
                f"heavy-tail entries use two-sided magnitude truncation at "
                f"{self.cauchy_truncation} via rejection sampling (no boundary atoms)"
            )
        if self.family is GeneratorFamily.MIXED_FOUR:
            return "column count truncated to the nearest multiple of four"
        if self.family is GeneratorFamily.ADVERSARIAL:
            return "two-phase low/high reward stream; permute before running"
        return ""


def _draw_budget(rng: np.random.Generator, spec: GeneratorSpec) -> np.ndarray:
    lo, hi = spec.d_range
    return rng.uniform(lo, hi, spec.m)


def gen_uniform(spec: GeneratorSpec) -> Instance:
    """Entries and rewards i.i.d. Uniform[0, 2]; budgets i.i.d. from d_range."""
    if spec.family is not GeneratorFamily.UNIFORM:
        raise ValueError("spec family mismatch")
    rng = np.random.default_rng(spec.seed)
    A = rng.uniform(0.0, 2.0, (spec.m, spec.n))
    r = rng.uniform(0.0, 2.0, spec.n)
    d = _draw_budget(rng, spec)
    return Instance(rewards=r, columns=A, capacity=spec.n * d)


def gen_gaussian(spec: GeneratorSpec) -> Instance:
    """Entries i.i.d. N(1, 1); reward j is its column sum minus Uniform[0, m) noise."""
    if spec.family is not GeneratorFamily.GAUSSIAN:
        raise ValueError("spec family mismatch")
    rng = np.random.default_rng(spec.seed)
    A = rng.normal(1.0, 1.0, (spec.m, spec.n))
    eps = rng.uniform(0.0, spec.m, spec.n)
    r = A.sum(axis=0) - eps
    d = _draw_budget(rng, spec)
    return Instance(rewards=r, columns=A, capacity=spec.n * d)


def _trunc_cauchy(rng: np.random.Generator, size: int, tau: float) -> np.ndarray:
    # Rejection keeps the conditional law on [-tau, tau]; clipping would pile
    # atoms at the boundary and change the tail behaviour being probed.
    out = np.empty(size)
    todo = np.arange(size)
    while todo.size:
        draw = 1.0 + rng.standard_cauchy(todo.size)
        ok = np.abs(draw) <= tau
        out[todo[ok]] = draw[ok]
        todo = todo[~ok]
    return out


def gen_trunc_cauchy(spec: GeneratorSpec) -> Instance:
    """Entries i.i.d. Cauchy(1, 1) conditioned on magnitude <= truncation threshold."""
    if spec.family is not GeneratorFamily.TRUNC_CAUCHY:
        raise ValueError("spec family mismatch")
    tau = spec.cauchy_truncation
    if not tau > 0.0:
        raise ValueError("truncation threshold must be positive")
    rng = np.random.default_rng(spec.seed)
    A = _trunc_cauchy(rng, spec.m * spec.n, tau).reshape(spec.m, spec.n)
    eps = rng.uniform(0.0, spec.m, spec.n)
    r = A.sum(axis=0) - eps
    d = _draw_budget(rng, spec)
    return Instance(rewards=r, columns=A, capacity=spec.n * d)


def gen_mixed_four_groups(spec: GeneratorSpec) -> Instance:
    """Four equal blocks from four entry distributions; rewards Uniform[0, 1].

    Blocks in fixed order: Uniform[0, 2], N(1, 1), N(0, 1), uniform on
    {-1, 1, 3}.  The column count is truncated down to a multiple of four;
    arrival randomness comes from permuting afterwards.
    """
    if spec.family is not GeneratorFamily.MIXED_FOUR:
        raise ValueError("spec family mismatch")
    n4 = 4 * (spec.n // 4)
    if n4 < 4:
        raise ValueError("mixed-group generation needs n >= 4")
    g = n4 // 4
    rng = np.random.default_rng(spec.seed)
    A = np.empty((spec.m, n4))
    A[:, :g] = rng.uniform(0.0, 2.0, (spec.m, g))
    A[:, g:2 * g] = rng.normal(1.0, 1.0, (spec.m, g))
    A[:, 2 * g:3 * g] = rng.normal(0.0, 1.0, (spec.m, g))
    A[:, 3 * g:] = rng.choice(np.array([-1.0, 1.0, 3.0]), (spec.m, g))
    r = rng.uniform(0.0, 1.0, n4)
    d = _draw_budget(rng, spec)
    return Instance(rewards=r, columns=A, capacity=n4 * d)


def gen_adversarial(spec: GeneratorSpec) -> Instance:
    """Two-phase stream: low rewards first, high rewards second, all-ones usage.

    With one constraint and the default parameters this is the classic
    ordering trap for one-pass algorithms: capacity for half the columns, the
    valuable half arriving last.  Solvable near-optimally only after
    shuffling.
    """
    if spec.family is not GeneratorFamily.ADVERSARIAL:
        raise ValueError("spec family mismatch")
    n2 = 2 * (spec.n // 2)
    if n2 < 2:
        raise ValueError("adversarial generation needs n >= 2")
    half = n2 // 2
    r = np.concatenate([np.full(half, spec.adversarial_low), np.full(half, spec.adversarial_high)])
    A = np.ones((spec.m, n2))
    cap = np.full(spec.m, spec.adversarial_capacity_fraction * n2)
    return Instance(rewards=r, columns=A, capacity=cap)


_DISPATCH = {
    GeneratorFamily.UNIFORM: gen_uniform,
    GeneratorFamily.GAUSSIAN: gen_gaussian,
    GeneratorFamily.TRUNC_CAUCHY: gen_trunc_cauchy,
    GeneratorFamily.MIXED_FOUR: gen_mixed_four_groups,
    GeneratorFamily.ADVERSARIAL: gen_adversarial,
}


def generate(spec: GeneratorSpec) -> Instance:
    return _DISPATCH[spec.family](spec)


@dataclass(frozen=True)
class PermutationPlan:
    """A fixed arrival order: a bijection on 0..n-1."""

    n: int
    seed: int
    order: np.ndarray

    def __post_init__(self) -> None:
        order = np.asarray(self.order, dtype=np.int64).reshape(-1)
        if order.shape != (self.n,) or not np.array_equal(np.sort(order), np.arange(self.n)):
            raise ValueError("order must be a permutation of 0..n-1")
        order = order.copy()
        order.flags.writeable = False
        object.__setattr__(self, "order", order)

    @classmethod
    def random(cls, n: int, seed: int) -> "PermutationPlan":
        return cls(n=n, seed=seed, order=np.random.default_rng(seed).permutation(n))

    def inverse(self) -> "PermutationPlan":
        return PermutationPlan(n=self.n, seed=self.seed, order=np.argsort(self.order))


def permute(inst: Instance, plan: PermutationPlan) -> Instance:
    """Reorder columns and rewards by the plan; capacity is untouched."""
    if plan.n != inst.n:
        raise ValueError(f"plan is for n={plan.n}, instance has n={inst.n}")
    return Instance(
        rewards=inst.rewards[plan.order],
        columns=inst.columns[:, plan.order],
        capacity=inst.capacity,
    )


class MknapFormatError(ValueError):
    """Malformed multi-knapsack benchmark file; carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class _TokenStream:
    def __init__(self, text: str):
        self.tokens: List[Tuple[str, int]] = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            for tok in line.split():
                self.tokens.append((tok, lineno))
        self.pos = 0
        self.last_line = len(text.splitlines()) or 1

    def next_float(self, what: str) -> float:
        if self.pos >= len(self.tokens):
            raise MknapFormatError(f"file truncated while reading {what}", self.last_line)
        tok, line = self.tokens[self.pos]
        self.pos += 1
        try:
            return float(tok)
        except ValueError:
            raise MknapFormatError(f"expected a number for {what}, got {tok!r}", line) from None

    def next_int(self, what: str) -> int:
        if self.pos >= len(self.tokens):
            raise MknapFormatError(f"file truncated while reading {what}", self.last_line)
        tok, line = self.tokens[self.pos]
        self.pos += 1
        try:
            value = int(tok)
        except ValueError:
            raise MknapFormatError(f"expected an integer for {what}, got {tok!r}", line) from None
        return value

    @property
    def line(self) -> int:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos][1]
        return self.last_line


def read_mknap(path) -> List[Tuple[Instance, Optional[float]]]:
    """Parse a multi-knapsack benchmark file in the classic public layout.

    Token stream: problem count; per problem a ``n m optimum`` header
    (optimum 0 means unknown), n profits, the m-by-n weight matrix row by
    row, then m capacities.  A capacity that is not positive is a format
    error.  Negative weights are unusual for these files and raise a warning,
    not an error.
    """
    with open(path, "r", encoding="ascii") as fh:
        ts = _TokenStream(fh.read())
    count = ts.next_int("problem count")
    if count < 1:
        raise MknapFormatError(f"problem count must be positive, got {count}", 1)
    problems: List[Tuple[Instance, Optional[float]]] = []
    for idx in range(1, count + 1):
        header_line = ts.line
        n = ts.next_int(f"n of problem {idx}")
        m = ts.next_int(f"m of problem {idx}")
        optimum = ts.next_float(f"optimum of problem {idx}")
        if n < 1 or m < 1:
            raise MknapFormatError(f"problem {idx} has invalid sizes n={n}, m={m}", header_line)
        profits = np.array([ts.next_float(f"profit {j + 1} of problem {idx}") for j in range(n)])
        weights = np.empty((m, n))
        for i in range(m):
            for j in range(n):
                weights[i, j] = ts.next_float(f"weight ({i + 1},{j + 1}) of problem {idx}")
        caps = []
        for i in range(m):
            line = ts.line
            cap = ts.next_float(f"capacity {i + 1} of problem {idx}")
            if not cap > 0.0:
                raise MknapFormatError(
                    f"capacity {i + 1} of problem {idx} must be positive, got {cap!r}", line)
            caps.append(cap)
        if (weights < 0.0).any():
            warnings.warn(
                f"problem {idx} contains negative weights; "
                "the solver supports them but the benchmark convention does not",
                stacklevel=2,
            )
        problems.append((
            Instance(rewards=profits, columns=weights, capacity=caps),
            optimum if optimum != 0.0 else None,
        ))
    return problems

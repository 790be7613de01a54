"""Seeded instance generators, the arrival-order shuffler, and the instance file format.

All generators are pure functions of their spec (seed included).  Randomness
in arrival order enters only through :func:`permute`; the generators
themselves lay data out deterministically.
"""
from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .core import Instance

__all__ = [
    "GeneratorFamily",
    "GeneratorSpec",
    "PermutationPlan",
    "MknapFormatError",
    "generate",
    "permute",
    "read_mknap",
    "write_mknap",
]


class GeneratorFamily(enum.Enum):
    UNIFORM = "uniform"
    GAUSSIAN = "gaussian"
    TRUNC_CAUCHY = "trunc_cauchy"
    MIXED_FOUR = "mixed_four_groups"
    ADVERSARIAL = "adversarial"


@dataclass(frozen=True)
class GeneratorSpec:
    """Family tag plus the per-family parameters.

    The fields other than ``n`` and ``seed`` are the config's ``[generator]``
    keys, and the float fields are float options of ``onlinelp gen``: both
    are read from the annotations and take the field defaults.  ``d_lo`` and
    ``d_hi`` bound the i.i.d. per-column budget draws.
    ``cauchy_truncation`` is the two-sided magnitude cap for the heavy-tail
    family.  The adversarial family builds a two-phase stream: the first half
    of the columns carries ``adversarial_low`` rewards, the second half
    ``adversarial_high``, on an all-ones constraint matrix with capacity
    ``adversarial_capacity_fraction * n`` per row; it is meant to be consumed
    through :func:`permute`; its n must be even, and ``mixed_four_groups``'s a multiple of 4.
    """

    family: GeneratorFamily
    n: int
    m: int = 1
    seed: int = 0
    d_lo: float = 1.0 / 3.0
    d_hi: float = 2.0 / 3.0
    cauchy_truncation: float = 10.0
    adversarial_low: float = 1.0
    adversarial_high: float = 2.0
    adversarial_capacity_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.n < 1 or self.m < 1:
            raise ValueError(f"need n >= 1 and m >= 1, got n = {self.n}, m = {self.m}")
        if self.family is GeneratorFamily.MIXED_FOUR and self.n % 4:
            raise ValueError(f"mixed-group generation needs n a multiple of 4, got n = {self.n}")
        if self.family is GeneratorFamily.ADVERSARIAL and self.n % 2:
            raise ValueError(f"adversarial generation needs an even n, got n = {self.n}")
        if not 0.0 < self.d_lo <= self.d_hi < math.inf:
            raise ValueError(f"need 0 < d_lo <= d_hi < inf, got d_lo = {self.d_lo}, "
                             f"d_hi = {self.d_hi}")
        if not self.cauchy_truncation > 0.0:
            raise ValueError(f"cauchy_truncation must be positive, got {self.cauchy_truncation}")
        if not (math.isfinite(self.adversarial_low) and math.isfinite(self.adversarial_high)
                and 0.0 < self.adversarial_capacity_fraction < math.inf):
            raise ValueError("adversarial_low and adversarial_high must be finite and "
                             "adversarial_capacity_fraction positive and finite")

    def notes(self) -> str:
        """Free-text provenance recorded in experiment reports."""
        if self.family is GeneratorFamily.TRUNC_CAUCHY:
            return (
                f"heavy-tail entries use two-sided magnitude truncation at "
                f"{self.cauchy_truncation} via rejection sampling (no boundary atoms)"
            )
        if self.family is GeneratorFamily.ADVERSARIAL:
            return "two-phase low/high reward stream; permute before running"
        return ""


def _with_budget(rng: np.random.Generator, spec: GeneratorSpec, A, r) -> Instance:
    """The instance of ``A`` and ``r``, its per-column budgets drawn next: Uniform[d_lo, d_hi]."""
    d = rng.uniform(spec.d_lo, spec.d_hi, spec.m)
    return Instance(rewards=r, columns=A, capacity=spec.n * d)


def _column_sum_rewards(rng: np.random.Generator, spec: GeneratorSpec, A) -> Instance:
    """The instance of ``A`` whose reward j is column j's sum minus Uniform[0, m) noise."""
    return _with_budget(rng, spec, A, A.sum(axis=0) - rng.uniform(0.0, spec.m, spec.n))


def _gen_uniform(spec: GeneratorSpec) -> Instance:
    """Entries and rewards i.i.d. Uniform[0, 2]; budgets i.i.d. Uniform[d_lo, d_hi]."""
    rng = np.random.default_rng(spec.seed)
    A = rng.uniform(0.0, 2.0, (spec.m, spec.n))
    return _with_budget(rng, spec, A, rng.uniform(0.0, 2.0, spec.n))


def _gen_gaussian(spec: GeneratorSpec) -> Instance:
    """Entries i.i.d. N(1, 1); reward j is its column sum minus Uniform[0, m) noise."""
    rng = np.random.default_rng(spec.seed)
    return _column_sum_rewards(rng, spec, rng.normal(1.0, 1.0, (spec.m, spec.n)))


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


def _gen_trunc_cauchy(spec: GeneratorSpec) -> Instance:
    """Entries i.i.d. Cauchy(1, 1) conditioned on magnitude <= truncation threshold."""
    rng = np.random.default_rng(spec.seed)
    A = _trunc_cauchy(rng, spec.m * spec.n, spec.cauchy_truncation).reshape(spec.m, spec.n)
    return _column_sum_rewards(rng, spec, A)


def _gen_mixed_four_groups(spec: GeneratorSpec) -> Instance:
    """Four equal blocks from four entry distributions; rewards Uniform[0, 1].

    Blocks in fixed order: Uniform[0, 2], N(1, 1), N(0, 1), uniform on
    {-1, 1, 3}; :class:`GeneratorSpec` holds n to a multiple of four.
    Arrival randomness comes from permuting afterwards.
    """
    g = spec.n // 4
    rng = np.random.default_rng(spec.seed)
    A = np.empty((spec.m, spec.n))
    A[:, :g] = rng.uniform(0.0, 2.0, (spec.m, g))
    A[:, g:2 * g] = rng.normal(1.0, 1.0, (spec.m, g))
    A[:, 2 * g:3 * g] = rng.normal(0.0, 1.0, (spec.m, g))
    A[:, 3 * g:] = rng.choice(np.array([-1.0, 1.0, 3.0]), (spec.m, g))
    return _with_budget(rng, spec, A, rng.uniform(0.0, 1.0, spec.n))


def _gen_adversarial(spec: GeneratorSpec) -> Instance:
    """Two-phase stream: low rewards first, high rewards second, all-ones usage.

    With one constraint and the default parameters this is the classic
    ordering trap for one-pass algorithms: capacity for half the columns, the
    valuable half arriving last.  Solvable near-optimally only after
    shuffling.  :class:`GeneratorSpec` holds n even.
    """
    half = spec.n // 2
    r = np.concatenate([np.full(half, spec.adversarial_low), np.full(half, spec.adversarial_high)])
    A = np.ones((spec.m, spec.n))
    cap = np.full(spec.m, spec.adversarial_capacity_fraction * spec.n)
    return Instance(rewards=r, columns=A, capacity=cap)


_DISPATCH = {
    GeneratorFamily.UNIFORM: _gen_uniform,
    GeneratorFamily.GAUSSIAN: _gen_gaussian,
    GeneratorFamily.TRUNC_CAUCHY: _gen_trunc_cauchy,
    GeneratorFamily.MIXED_FOUR: _gen_mixed_four_groups,
    GeneratorFamily.ADVERSARIAL: _gen_adversarial,
}


def generate(spec: GeneratorSpec) -> Instance:
    """The instance ``spec`` describes: the one way to draw an instance of any family."""
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


class _Tokens:
    """The whitespace-separated tokens of a file; a token's line is found only for an error."""

    def __init__(self, text: str):
        self.text, self.tokens, self.pos = text, text.split(), 0

    def line(self, k: int) -> int:
        """Line of token ``k``, or the last line for ``k`` past the end."""
        lines = self.text.splitlines()
        ends = itertools.accumulate(len(line.split()) for line in lines)
        return next((i for i, end in enumerate(ends, start=1) if end > k), len(lines) or 1)

    def _next(self, what: str) -> str:
        if self.pos >= len(self.tokens):
            raise MknapFormatError(f"file truncated while reading {what}", self.line(self.pos))
        self.pos += 1
        return self.tokens[self.pos - 1]

    def _bad(self, message: str) -> MknapFormatError:
        return MknapFormatError(message, self.line(self.pos - 1))  # the token just read

    def next_int(self, what: str) -> int:
        tok = self._next(what)
        try:
            return int(tok)
        except ValueError:
            raise self._bad(f"expected an integer for {what}, got {tok!r}") from None

    def next_float(self, what: str, positive: bool = False) -> float:
        tok = self._next(what)
        try:
            value = float(tok)
        except ValueError:
            raise self._bad(f"expected a number for {what}, got {tok!r}") from None
        if not math.isfinite(value):
            raise self._bad(f"{what} must be finite, got {tok!r}")
        if positive and not value > 0.0:
            raise self._bad(f"{what} must be positive, got {value!r}")
        return value

    def floats(self, count: int, what: Callable[[int], str], positive: bool = False) -> np.ndarray:
        """The next ``count`` numbers, converted at once; ``what(k)`` names number k."""
        block = self.tokens[self.pos:self.pos + count]
        try:
            values = np.array(block, dtype=float)
            ok = (len(block) == count and np.isfinite(values).all()
                  and (not positive or (values > 0.0).all()))
        except ValueError:
            ok = False
        if not ok:  # walk the block token by token to raise for its first bad token
            return np.array([self.next_float(what(k), positive) for k in range(count)])
        self.pos += count
        return values


def read_mknap(path) -> List[Tuple[Instance, Optional[float]]]:
    """Parse a multi-knapsack benchmark file in the classic public layout.

    Token stream: problem count; per problem a ``n m optimum`` header
    (optimum 0 means unknown), n profits, the m-by-n weight matrix row by
    row, then m capacities.  Profits and weights may be negative.  A number
    that is not finite, a capacity that is not positive, or any token after
    the last problem is a format error.
    """
    with open(path, "r", encoding="ascii") as fh:
        ts = _Tokens(fh.read())
    count = ts.next_int("problem count")
    if count < 1:
        raise MknapFormatError(f"problem count must be positive, got {count}", 1)
    problems: List[Tuple[Instance, Optional[float]]] = []
    for idx in range(1, count + 1):
        header = ts.pos
        n = ts.next_int(f"n of problem {idx}")
        m = ts.next_int(f"m of problem {idx}")
        optimum = ts.next_float(f"optimum of problem {idx}")
        if n < 1 or m < 1:
            raise MknapFormatError(f"problem {idx} has invalid sizes n={n}, m={m}", ts.line(header))
        profits = ts.floats(n, lambda k: f"profit {k + 1} of problem {idx}")
        weights = ts.floats(m * n, lambda k: f"weight ({k // n + 1},{k % n + 1}) of problem {idx}")
        caps = ts.floats(m, lambda k: f"capacity {k + 1} of problem {idx}", positive=True)
        problems.append((Instance(rewards=profits, columns=weights.reshape(m, n), capacity=caps),
                         optimum or None))
    if ts.pos < len(ts.tokens):
        tok = ts.tokens[ts.pos]
        raise MknapFormatError(f"unexpected {tok!r} after the last problem", ts.line(ts.pos))
    return problems


def write_mknap(path, problems: Sequence[Tuple[Instance, Optional[float]]]) -> None:
    """Write ``[(instance, optimum or None)]`` in the layout :func:`read_mknap` reads.

    An unknown optimum is written as 0; 17 significant digits round-trip float64 exactly.
    """
    lines = [str(len(problems))]
    for inst, optimum in problems:
        lines.append(f"{inst.n} {inst.m} {optimum or 0.0:.17g}")
        lines.extend(" ".join(f"{v:.17g}" for v in row.tolist())
                     for row in (inst.rewards, *inst.columns, inst.capacity))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")

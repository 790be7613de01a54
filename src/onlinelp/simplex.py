"""Dense bounded-variable dual simplex for box-constrained packing relaxations.

Solves ``max r @ x  s.t.  A x <= b,  0 <= x <= 1`` with the box handled as
variable bounds, so the working basis stays m-by-m.  Dual prices come from the
final basis; the bound duals are recovered from the reduced costs as
``s_j = max(0, r_j - a_j @ p)``, which makes ``b @ p + sum(s)`` equal the
primal objective exactly at optimality.

Capacities must be non-negative: then ``x = 0`` is feasible and the box
keeps the region bounded, so every solve ends optimal.  The program only
poses such LPs, because an instance's budgets are positive.  Negative matrix
entries and rewards are fully supported.

A solve starts from a basis and the nonbasics' bounds, and the start must be
dual feasible: no nonbasic column may price in.  The default is the
all-slack basis with each structural at the bound its reward favours
(``x_j = 1`` iff ``r_j > 0``), which is dual feasible at price 0; another is
the previous prefix LP's final basis (prefix t adds one column and grows
``b``, which leaves the prices intact).  A bounded dual simplex then pivots
while some basic value lies outside its bounds: the row of largest violation
leaves, and the bound-flipping ("long step") ratio test passes every
breakpoint that still lowers the dual objective in one pivot (Fourer 1994;
Maros 2003).  Every pivot keeps the basis dual feasible, so the basis it
ends at is optimal.  The final basic values and prices are solved against
the basis in index order, so the answer depends on the final basis and
bounds alone, not on the start or the path; a nonbasic column that still
prices in at those prices (a start that was not dual feasible, or roundoff)
raises :class:`SimplexError`.

A pivot moves the leaving variable to its bound and updates the explicit
basis inverse by a rank-one step.  The inverse only steers the pivoting: it
is recomputed from ``Gt[basis]`` every ``_REINVERT_EVERY`` pivots, and the
basic values and dual prices come from exact solves against ``Gt[basis]``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .core import Instance

__all__ = [
    "Certificate",
    "LpSolution",
    "SimplexError",
    "solve_box_lp",
    "solve_relaxation",
    "solve_scaled",
    "solve_binary_exact",
    "certify",
]

_PIVOT_TOL = 1e-9   # smallest pivot entry a ratio test takes; largest wrong-signed reduced cost a solve returns
_FEAS_TOL = 1e-9    # the dual simplex pivots only on a basic value this far outside its bounds
_REINVERT_EVERY = 50
_PASS_WIDTH = 32    # breakpoints a long dual step sorts first (4x more each time it runs past)


class SimplexError(RuntimeError):
    """Raised when the pivot loop breaks down numerically, exceeds its budget, or ends dual infeasible."""


@dataclass(frozen=True)
class LpSolution:
    """Optimal primal/dual solution of one box LP.

    ``duals`` prices the m capacity rows, ``reduced_bounds_duals`` prices the
    n upper-bound rows ``x_j <= 1``; both are non-negative.  ``basis`` and
    ``at_upper`` are the final basis (indices into ``[A | I]``) and the
    nonbasics at their upper bound: a start for a neighbouring LP.
    ``iterations`` counts the dual pivots, each with the bound flips its
    ratio test passed.
    """

    primal: np.ndarray
    duals: np.ndarray
    reduced_bounds_duals: np.ndarray
    objective: float
    basis: np.ndarray
    at_upper: np.ndarray
    iterations: int


def _long_step(ratios, ranges, excess: float):
    """Positions of the breakpoints a long dual step passes, in order, and of the one it enters at.

    The breakpoints are taken in increasing ``ratios``, the first position
    on ties.  Each one whose ``ranges`` entry (positive, or infinite) still
    leaves part of ``excess`` unabsorbed is passed; the next enters, at the
    latest the last breakpoint.  Only the breakpoints at or below a partition
    bound are sorted, and the bound widens while the pass runs past it, so
    the answer is that of one stable sort of all of them.
    """
    size, width = ratios.size, _PASS_WIDTH
    while True:
        if width >= size:
            order = np.argsort(ratios, kind="stable")
        else:
            bound = ratios[np.argpartition(ratios, width - 1)[width - 1]]
            order = np.flatnonzero(ratios <= bound)
            order = order[np.argsort(ratios[order], kind="stable")]
        # the cumulative ranges grow, so the breakpoints passed are a prefix
        stop = int(np.count_nonzero(excess - np.cumsum(ranges[order]) > 0.0))
        if stop < order.size or order.size == size:
            stop = min(stop, size - 1)
            return order[:stop], int(order[stop])
        width *= 4


class _BoxSimplex:
    """One solve; not reusable.  All arrays are dense float64.

    ``start`` is ``(basis, at_upper)``: the m basic indices into ``[A | I]``
    and the nonbasics held at their upper bound.  The default is the
    all-slack basis with each structural at the bound its reward favours.
    """

    def __init__(self, rewards, columns, capacity, start=None):
        self.r = np.ascontiguousarray(np.asarray(rewards, dtype=np.float64).reshape(-1))
        A = np.ascontiguousarray(np.asarray(columns, dtype=np.float64))
        self.b = np.ascontiguousarray(np.asarray(capacity, dtype=np.float64).reshape(-1))
        if A.ndim != 2:
            raise ValueError("columns must be 2-D")
        self.m, self.n = A.shape
        if self.r.shape != (self.n,) or self.b.shape != (self.m,):
            raise ValueError("inconsistent LP dimensions")
        if not (self.b >= 0.0).all():
            raise ValueError("capacities must be non-negative")

        m, n = self.m, self.n
        N = n + m
        # Column-major data lives in Gt (N, m): row j is column j of [A | I].
        self.Gt = Gt = np.concatenate((A.T, np.eye(m)))
        self.c = np.concatenate([self.r, np.zeros(m)])
        # Every variable has lower bound 0; structurals have upper bound 1.
        self.upper = np.full(N, np.inf)
        self.upper[:n] = 1.0

        if start is None:
            start = (n + np.arange(m), np.concatenate((self.r > 0.0, np.zeros(m, dtype=bool))))
        basis, at_upper = start
        self.basis = np.array(basis, dtype=np.intp)
        self.at_upper = np.array(at_upper, dtype=bool)
        if (self.basis.shape != (m,) or self.at_upper.shape != (N,)
                or len(set(self.basis.tolist())) != m
                or not ((self.basis >= 0) & (self.basis < N)).all()
                or self.at_upper[self.basis].any() or self.at_upper[n:].any()):
            raise ValueError("start must be m distinct basic indices and upper-bound flags "
                             "for the nonbasic structurals")
        self.nonbasic = np.ones(N, dtype=bool)
        self.nonbasic[self.basis] = False
        self.x = np.where(self.at_upper, self.upper, 0.0)  # basic entries are stale
        self.Binv = np.linalg.inv(Gt.take(self.basis, axis=0).T)
        self._refresh_basics()
        self.pivots_since_invert = self.iterations = 0
        self.max_iterations = 2000 + 60 * N

    def _refresh_basics(self) -> None:
        """Basic values by an exact solve against ``Gt[basis]``."""
        tmp = self.x.copy()
        tmp[self.basis] = 0.0
        rhs = self.b - tmp @ self.Gt
        self.xb = np.linalg.solve(self.Gt.take(self.basis, axis=0).T, rhs)

    def _replace(self, i: int, j: int, w: np.ndarray, to_upper: bool) -> None:
        """The exchange step: column j enters at basis position i.

        The leaving variable goes to its upper bound if ``to_upper``, else to
        0; ``w = Binv @ Gt[j]``.
        """
        leave = int(self.basis[i])
        self.x[leave] = self.upper[leave] if to_upper else 0.0
        self.at_upper[leave] = to_upper
        self.at_upper[j] = False
        self.nonbasic[leave] = True
        self.nonbasic[j] = False
        self.basis[i] = j
        # Rank-one update of the basis inverse.
        row = self.Binv[i] / w[i]
        self.Binv -= np.outer(w, row)
        self.Binv[i] = row
        self.pivots_since_invert += 1
        if self.pivots_since_invert >= _REINVERT_EVERY:
            self.Binv = np.linalg.inv(self.Gt.take(self.basis, axis=0).T)
            self.pivots_since_invert = 0

    def restore_feasibility(self) -> None:
        """Bounded dual simplex: pivot until every basic value lies within its bounds.

        Needs a dual feasible basis, and every pivot keeps one.  The leaving
        row has the largest bound violation, its excess.  The nonbasics that
        move the leaving value toward its bound are passed in increasing
        ``|cbar_j| / |alpha_rj|`` (first index on ties): each structural
        whose range ``|alpha_rj|`` leaves part of the excess unabsorbed flips
        to its other bound, and the column that absorbs the rest enters, at
        the latest the first slack, whose range is infinite.
        """
        while True:
            above = self.xb - self.upper[self.basis]
            excess = np.maximum(-self.xb, above)
            r = int(np.argmax(excess))
            if excess[r] <= _FEAS_TOL:
                return
            self.iterations += 1
            if self.iterations > self.max_iterations:
                raise SimplexError(f"pivot budget exceeded ({self.iterations} iterations, "
                                   f"n={self.n}, m={self.m})")
            to_upper = bool(above[r] > 0.0)
            cbar = self.c - self.Gt @ (self.Binv.T @ self.c[self.basis])
            alpha = self.Gt @ self.Binv[r]
            # Raising x_j changes the leaving value at rate -alpha_j.
            toward = np.where(self.at_upper != to_upper, alpha, -alpha)
            eligible = np.flatnonzero(self.nonbasic & (toward > _PIVOT_TOL))
            if not eligible.size:
                # x = 0 is feasible, so only roundoff gets here.
                raise SimplexError(f"dual ratio test found no entering column (n={self.n}, m={self.m})")
            ratios = np.abs(cbar[eligible]) / toward[eligible]
            j = int(eligible[np.argmin(ratios)])
            if j < self.n and toward[j] < excess[r]:
                # The first breakpoint leaves part of the excess: pass every
                # breakpoint whose flip still does.
                ranges = np.where(eligible < self.n, toward[eligible], np.inf)
                passed, enter = _long_step(ratios, ranges, excess[r])
                flipped, j = eligible[passed], int(eligible[enter])
                self.at_upper[flipped] = ~self.at_upper[flipped]
                self.x[flipped] = self.at_upper[flipped]
            self._replace(r, j, self.Binv @ self.Gt[j], to_upper)
            self._refresh_basics()


def solve_box_lp(rewards, columns, capacity, start=None) -> LpSolution:
    """Solve ``max r @ x, A x <= b, 0 <= x <= 1`` on raw arrays.

    ``start`` is an optional ``(basis, at_upper)`` pair, such as a
    neighbouring LP's final basis (see :class:`LpSolution`); it must be dual
    feasible.  The default is the all-slack basis with each structural at
    the bound its reward favours (``x_j = 1`` iff ``r_j > 0``), dual feasible
    at price 0.  Raises ``ValueError`` unless every capacity is non-negative
    (NaN included), and :class:`SimplexError` if a nonbasic column of the
    final basis prices in by more than ``_PIVOT_TOL``.
    """
    sx = _BoxSimplex(rewards, columns, capacity, start)
    sx.restore_feasibility()
    # One exact solve per side against the basis in index order: the answer
    # does not depend on the order in which the pivots placed the columns.
    basis = np.sort(sx.basis)
    B = sx.Gt.take(basis, axis=0)
    sx.x[basis] = 0.0
    sx.x[basis] = np.linalg.solve(B.T, sx.b - sx.x @ sx.Gt)
    x = sx.x[:sx.n].copy()
    y = np.linalg.solve(B, sx.c[basis])
    p = np.maximum(y, 0.0)
    s = sx.r - p @ sx.Gt[:sx.n].T
    # Every pivot keeps the start's dual feasibility, so a nonbasic column
    # that prices in here comes from a start that was not dual feasible, or
    # from roundoff.
    cbar = np.concatenate((s, -y))
    worst = np.where(sx.at_upper, -cbar, cbar)[sx.nonbasic].max(initial=0.0)
    if worst > _PIVOT_TOL:
        raise SimplexError(f"final basis is not dual feasible: a nonbasic column prices in "
                           f"by {worst:.3g} (n={sx.n}, m={sx.m})")
    np.maximum(s, 0.0, out=s)
    return LpSolution(
        primal=x,
        duals=p,
        reduced_bounds_duals=s,
        objective=float(sx.r @ x),
        basis=sx.basis.copy(),
        at_upper=sx.at_upper.copy(),
        iterations=sx.iterations,
    )


def solve_relaxation(inst: Instance) -> LpSolution:
    """Solve the box relaxation of the full instance from :func:`solve_box_lp`'s default start."""
    return solve_box_lp(inst.rewards, inst.columns, inst.capacity)


class Certificate(NamedTuple):
    """How far an LP answer is from optimal; all three are 0 at an exact optimum.

    ``primal_infeasibility`` is the worst excess over a row's capacity or the
    box; ``reduced_cost_violation`` the worst wrong-signed reduced cost
    ``r_j - a_j @ p`` (positive with ``x_j < 1``, negative with ``x_j > 0``)
    or negative price; ``duality_gap`` is ``|b @ p + sum(s) - r @ x| / (1 +
    |r @ x|)`` with ``s = max(0, r - p @ A)``.
    """

    primal_infeasibility: float
    reduced_cost_violation: float
    duality_gap: float


def certify(inst: Instance, sol: LpSolution) -> Certificate:
    """Check ``sol`` against the box relaxation of ``inst`` in O(nm)."""
    x, p = sol.primal, sol.duals
    excess = np.concatenate((inst.columns @ x - inst.capacity, -x, x - 1.0))
    gain = inst.rewards - p @ inst.columns
    wrong_sign = np.concatenate((gain[x < 1.0], -gain[x > 0.0], -p))
    objective = float(inst.rewards @ x)
    dual = float(inst.capacity @ p + np.maximum(gain, 0.0).sum())
    return Certificate(
        primal_infeasibility=max(0.0, float(excess.max())),
        reduced_cost_violation=max(0.0, float(wrong_sign.max())),
        duality_gap=abs(dual - objective) / (1.0 + abs(objective)),
    )


def solve_scaled(inst: Instance, s: int, prev: Optional[LpSolution] = None) -> LpSolution:
    """Solve the prefix LP over the first ``s`` columns with capacity ``s * d``.

    With ``s = n`` this matches :func:`solve_relaxation` up to roundoff in
    ``n * (b / n)``.  ``prev``, the solution of prefix ``s - 1``, warm-starts
    the solve from its basis: the slacks are renumbered, and column ``s - 1``
    starts at 1 if its reduced cost at ``prev``'s prices is positive, at 0
    otherwise.  That start is dual feasible, and the dual simplex restores
    primal feasibility after ``b`` grows.  Without ``prev`` the solve starts
    from :func:`solve_box_lp`'s default.
    """
    if not 1 <= s <= inst.n:
        raise ValueError(f"prefix length must satisfy 1 <= s <= {inst.n}, got {s}")
    start = None
    if prev is not None:
        t = s - 1  # the new column's index, and prev's column count
        if prev.at_upper.shape != (t + inst.m,):
            raise ValueError(f"prev must solve the prefix LP over the first {t} columns")
        basis = np.where(prev.basis >= t, prev.basis + 1, prev.basis)
        favoured = inst.rewards[t] - inst.columns[:, t] @ prev.duals > 0.0
        start = (basis, np.insert(prev.at_upper, t, favoured))
    return solve_box_lp(inst.rewards[:s], inst.columns[:, :s], s * inst.per_column_budget, start)


_EXACT_LIMIT = 25
_CHUNK_BITS = 16


def solve_binary_exact(inst: Instance):
    """Exhaustive binary optimum for small instances (n <= 25).

    Returns ``(objective, x)``.  Intended as an oracle for weak-duality
    checks, hence the hard budget guard.
    """
    n = inst.n
    if n > _EXACT_LIMIT:
        raise ValueError(f"exhaustive enumeration limited to n <= {_EXACT_LIMIT}, got {n}")
    shifts = np.arange(n, dtype=np.uint64)
    best_obj = -math.inf
    best_mask = 0  # x = 0 is feasible under the non-negative capacities of an Instance
    At = inst.columns.T  # (n, m)
    for lo in range(0, 1 << n, 1 << _CHUNK_BITS):
        hi = min(lo + (1 << _CHUNK_BITS), 1 << n)
        masks = np.arange(lo, hi, dtype=np.uint64)
        bits = ((masks[:, None] >> shifts) & np.uint64(1)).astype(np.float64)
        feasible = (bits @ At <= inst.capacity).all(axis=1)
        if not feasible.any():
            continue
        objs = bits @ inst.rewards
        objs[~feasible] = -math.inf
        k = int(np.argmax(objs))
        if objs[k] > best_obj:
            best_obj = float(objs[k])
            best_mask = lo + k
    x = ((best_mask >> np.arange(n)) & 1).astype(np.int8)
    return best_obj, x

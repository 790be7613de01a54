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

Each pass inverts the basis matrix once and reads from that inverse the
basic values, the prices and the leaving row; the exchange itself only
updates the basis indices and the bound flags.

A pass of prefix LPs keeps ``[A | I]`` in one :class:`PrefixWorkspace`: a
warm step writes its one new column and the shifted slack identity into it,
O(m^2), instead of rebuilding the O(s m) matrix, and solves on its arrays.
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
    "PrefixWorkspace",
    "solve_binary_exact",
    "certify",
]

_PIVOT_TOL = 1e-9   # smallest pivot entry a ratio test takes; largest wrong-signed reduced cost a solve returns
_FEAS_TOL = 1e-9    # the dual simplex pivots only on a basic value this far outside its bounds
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


def solve_box_lp(rewards, columns, capacity, start=None) -> LpSolution:
    """Solve ``max r @ x, A x <= b, 0 <= x <= 1`` on raw arrays.

    ``start`` is an optional ``(basis, at_upper)`` pair: the m basic indices
    into ``[A | I]`` and the nonbasics held at their upper bound, such as a
    neighbouring LP's final basis (see :class:`LpSolution`); it must be dual
    feasible.  The default is the all-slack basis with each structural at
    the bound its reward favours (``x_j = 1`` iff ``r_j > 0``), dual feasible
    at price 0.  Each pass inverts the basis matrix once and reads the basic
    values, the prices and the leaving row from that inverse.  Raises
    ``ValueError`` unless every capacity is non-negative (NaN included), and
    :class:`SimplexError` if a nonbasic column of the final basis prices in
    by more than ``_PIVOT_TOL``.
    """
    r = np.ascontiguousarray(np.asarray(rewards, dtype=np.float64).reshape(-1))
    A = np.ascontiguousarray(np.asarray(columns, dtype=np.float64))
    b = np.ascontiguousarray(np.asarray(capacity, dtype=np.float64).reshape(-1))
    if A.ndim != 2:
        raise ValueError("columns must be 2-D")
    m, n = A.shape
    if r.shape != (n,) or b.shape != (m,):
        raise ValueError("inconsistent LP dimensions")
    # Column-major data lives in Gt (N, m): row j is column j of [A | I].
    Gt = np.concatenate((A.T, np.eye(m)))
    c = np.concatenate([r, np.zeros(m)])
    # Every variable has lower bound 0; structurals have upper bound 1.
    upper = np.full(n + m, np.inf)
    upper[:n] = 1.0
    return _solve(r, Gt, c, upper, b, start)


def _solve(r, Gt, c, upper, b, start) -> LpSolution:
    """:func:`solve_box_lp` on its prebuilt arrays: ``Gt`` is ``[A | I]`` by rows, C-contiguous."""
    N, m = Gt.shape
    n = N - m
    if not (b >= 0.0).all():
        raise ValueError("capacities must be non-negative")
    if start is None:
        start = (n + np.arange(m), np.concatenate((r > 0.0, np.zeros(m, dtype=bool))))
    basis = np.array(start[0], dtype=np.intp)
    at_upper = np.array(start[1], dtype=bool)
    if (basis.shape != (m,) or at_upper.shape != (N,)
            or len(set(basis.tolist())) != m
            or not ((basis >= 0) & (basis < N)).all()
            or at_upper[basis].any() or at_upper[n:].any()):
        raise ValueError("start must be m distinct basic indices and upper-bound flags "
                         "for the nonbasic structurals")
    nonbasic = np.ones(N, dtype=bool)
    nonbasic[basis] = False
    iterations, max_iterations = 0, 2000 + 60 * N
    # Bounded dual simplex: pivot until every basic value lies within its
    # bounds.  The leaving row has the largest bound violation, its excess.
    # The nonbasics that move the leaving value toward its bound are passed
    # in increasing |cbar_j| / |alpha_ij| (first index on ties): each
    # structural whose range |alpha_ij| leaves part of the excess unabsorbed
    # flips to its other bound, and the column that absorbs the rest enters,
    # at the latest the first slack, whose range is infinite.
    while True:
        Binv = np.linalg.inv(Gt.take(basis, axis=0).T)
        # No basic variable is at its upper bound, so at_upper holds x with
        # its basic entries at 0.
        xb = Binv @ (b - at_upper.astype(np.float64) @ Gt)
        above = xb - upper[basis]
        excess = np.maximum(-xb, above)
        i = int(np.argmax(excess))
        if excess[i] <= _FEAS_TOL:
            break
        iterations += 1
        if iterations > max_iterations:
            raise SimplexError(f"pivot budget exceeded ({iterations} iterations, n={n}, m={m})")
        to_upper = bool(above[i] > 0.0)
        cbar = c - Gt @ (Binv.T @ c[basis])
        alpha = Gt @ Binv[i]
        # Raising x_j changes the leaving value at rate -alpha_j.
        toward = np.where(at_upper != to_upper, alpha, -alpha)
        eligible = np.flatnonzero(nonbasic & (toward > _PIVOT_TOL))
        if not eligible.size:
            # x = 0 is feasible, so only roundoff gets here.
            raise SimplexError(f"dual ratio test found no entering column (n={n}, m={m})")
        ratios = np.abs(cbar[eligible]) / toward[eligible]
        j = int(eligible[np.argmin(ratios)])
        if j < n and toward[j] < excess[i]:
            # The first breakpoint leaves part of the excess: pass every
            # breakpoint whose flip still does.
            ranges = np.where(eligible < n, toward[eligible], np.inf)
            passed, enter = _long_step(ratios, ranges, excess[i])
            flipped, j = eligible[passed], int(eligible[enter])
            at_upper[flipped] = ~at_upper[flipped]
        # The exchange: column j enters at position i, and the leaving
        # variable goes to the bound it violated.
        at_upper[basis[i]], at_upper[j] = to_upper, False
        nonbasic[basis[i]], nonbasic[j] = True, False
        basis[i] = j

    # One exact solve per side against the basis in index order: the answer
    # does not depend on the order in which the pivots placed the columns.
    order = np.sort(basis)
    B = Gt.take(order, axis=0)
    x = at_upper.astype(np.float64)
    x[order] = np.linalg.solve(B.T, b - x @ Gt)
    x = x[:n].copy()
    y = np.linalg.solve(B, c[order])
    p = np.maximum(y, 0.0)
    s = r - p @ Gt[:n].T
    # Every pivot keeps the start's dual feasibility, so a nonbasic column
    # that prices in here comes from a start that was not dual feasible, or
    # from roundoff.
    cbar = np.concatenate((s, -y))
    worst = np.where(at_upper, -cbar, cbar)[nonbasic].max(initial=0.0)
    if worst > _PIVOT_TOL:
        raise SimplexError(f"final basis is not dual feasible: a nonbasic column prices in "
                           f"by {worst:.3g} (n={n}, m={m})")
    np.maximum(s, 0.0, out=s)
    return LpSolution(
        primal=x,
        duals=p,
        reduced_bounds_duals=s,
        objective=float(r @ x),
        basis=basis,
        at_upper=at_upper,
        iterations=iterations,
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


class PrefixWorkspace:
    """The arrays of one instance's prefix LPs, grown one column per step.

    ``Gt`` holds ``[A | I]`` by rows in prefix layout: for prefix ``s``, rows
    ``[0, s)`` are the first ``s`` columns and rows ``[s, s + m)`` the slack
    identity, so ``Gt[:s + m]`` is the array :func:`solve_box_lp` would build
    for that prefix.  ``c`` and ``upper`` hold the costs and the upper bounds
    the same way.  :func:`solve_scaled` takes a workspace that holds prefix
    ``s - 1`` and writes column ``s - 1`` and the shifted identity into it,
    O(m^2) work, before it solves prefix ``s``.
    """

    def __init__(self, inst: Instance) -> None:
        n, m = inst.n, inst.m
        self.inst = inst
        self.s = 0
        self.Gt = np.zeros((n + m, m))
        self.c = np.zeros(n + m)
        self.upper = np.full(n + m, np.inf)
        self._eye = np.eye(m)

    def grow(self, inst: Instance, s: int):
        """Move to prefix ``s`` and return its ``(Gt, c, upper)`` views.

        Raises ``ValueError`` unless the workspace belongs to ``inst`` and
        holds prefix ``s - 1``.
        """
        if inst is not self.inst or s != self.s + 1:
            raise ValueError(f"a workspace takes prefix {s} only after prefix {s - 1} of the "
                             f"same instance; it holds prefix {self.s} of its own")
        t, m = s - 1, inst.m
        self.Gt[t] = inst.columns[:, t]
        self.Gt[s:s + m] = self._eye
        self.c[t] = inst.rewards[t]
        self.upper[t] = 1.0
        self.s = s
        return self.Gt[:s + m], self.c[:s + m], self.upper[:s + m]


def solve_scaled(inst: Instance, s: int, prev: Optional[LpSolution] = None,
                 work: Optional[PrefixWorkspace] = None) -> LpSolution:
    """Solve the prefix LP over the first ``s`` columns with capacity ``s * d``.

    With ``s = n`` this matches :func:`solve_relaxation` up to roundoff in
    ``n * (b / n)``.  ``prev``, the solution of prefix ``s - 1``, warm-starts
    the solve from its basis: the slacks are renumbered, and column ``s - 1``
    starts at 1 if its reduced cost at ``prev``'s prices is positive, at 0
    otherwise.  That start is dual feasible, and the dual simplex restores
    primal feasibility after ``b`` grows.  Without ``prev`` the solve starts
    from :func:`solve_box_lp`'s default.  ``work``, a
    :class:`PrefixWorkspace` of ``inst`` that holds prefix ``s - 1``, saves
    the rebuild of ``[A | I]``: the step writes one column into it and
    solves on its arrays, with the same pivots and the same result.
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
        start = (basis, np.concatenate((prev.at_upper[:t], [favoured], prev.at_upper[t:])))
    b = s * inst.per_column_budget
    if work is None:
        return solve_box_lp(inst.rewards[:s], inst.columns[:, :s], b, start)
    return _solve(inst.rewards[:s], *work.grow(inst, s), b, start)


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

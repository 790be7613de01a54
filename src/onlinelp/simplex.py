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
updates the basis indices and the bound flags.  A solve given the inverse
of its start skips the first inversion, and one that then makes no pivot
also skips the prices solve, reusing the start's prices.

A pass of prefix LPs keeps ``[A | I]`` and the solver state in one
:class:`PrefixWorkspace`: a warm step writes its one new column and the
shifted slack identity into it, O(m^2), instead of rebuilding the O(s m)
matrix, and moves the last solve's basis, bound flags, inverse and prices
to the new prefix in O(m) instead of rebuilding the start.  The new column
does not enter the basis matrix, so the carried inverse and prices still
hold: a step inverts once per pivot, and a step without pivots solves only
for the primal values.  The pivots and the answers are unchanged.
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
    N = n + m
    upper = np.full(N, np.inf)
    upper[:n] = 1.0
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
    return _solve(r, Gt, c, upper, b, basis, at_upper, nonbasic)[0]


def _solve(r, Gt, c, upper, b, basis, at_upper, nonbasic, Binv=None, y=None):
    """Pivot a valid start to the optimum; returns ``(solution, Binv, y)``.

    ``Gt`` is ``[A | I]`` by rows, C-contiguous.  The start is ``basis``,
    ``at_upper`` and ``nonbasic`` (the complement of ``basis``), which the
    pivots update in place; the solution holds copies.  ``Binv``, if given,
    is the inverse of the start's basis matrix, and ``y`` its prices against
    the basis in index order: the first pass uses ``Binv`` instead of
    inverting, and a solve that makes no pivot returns ``y`` instead of
    solving for it.  The returned ``Binv`` and ``y`` are those of the final
    basis.
    """
    N, m = Gt.shape
    n = N - m
    if not (b >= 0.0).all():
        raise ValueError("capacities must be non-negative")
    iterations, max_iterations = 0, 2000 + 60 * N
    # Bounded dual simplex: pivot until every basic value lies within its
    # bounds.  The leaving row has the largest bound violation, its excess.
    # The nonbasics that move the leaving value toward its bound are passed
    # in increasing |cbar_j| / |alpha_ij| (first index on ties): each
    # structural whose range |alpha_ij| leaves part of the excess unabsorbed
    # flips to its other bound, and the column that absorbs the rest enters,
    # at the latest the first slack, whose range is infinite.
    while True:
        if Binv is None:
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
        Binv = None

    # One exact solve per side against the basis in index order: the answer
    # does not depend on the order in which the pivots placed the columns.
    order = np.sort(basis)
    B = Gt.take(order, axis=0)
    x = at_upper.astype(np.float64)
    x[order] = np.linalg.solve(B.T, b - x @ Gt)
    x = x[:n].copy()
    if iterations or y is None:
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
        basis=basis.copy(),
        at_upper=at_upper.copy(),
        iterations=iterations,
    ), Binv, y


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
    """The arrays and the solver state of one instance's prefix LPs, grown one column per step.

    ``Gt`` holds ``[A | I]`` by rows in prefix layout: for prefix ``s``, rows
    ``[0, s)`` are the first ``s`` columns and rows ``[s, s + m)`` the slack
    identity, so ``Gt[:s + m]`` is the array :func:`solve_box_lp` would build
    for that prefix.  ``c``, ``upper``, ``at_upper`` and ``nonbasic`` hold
    the costs, the upper bounds, the upper-bound flags and the nonbasic mask
    the same way.  ``basis``, ``Binv`` and ``y`` are the final basis of the
    last solve, the inverse its last pass took and its prices against the
    basis in index order; ``last`` is the solution that solve returned.

    :func:`solve_scaled` takes a workspace that holds prefix ``s - 1``,
    writes column ``s - 1`` and the shifted identity into it, O(m^2) work,
    and solves prefix ``s``.  A warm step (``prev`` is ``last``) moves the
    carried state to prefix ``s`` in O(m): the basic slacks are renumbered,
    the slack flags shift by one, and the new column takes the bound its
    reduced cost at ``last``'s prices favours.  The basis matrix is then the
    one ``Binv`` inverts, so the first pass reuses it, and a step that makes
    no pivot reuses ``y``: the pivots and the answers are those of the plain
    warm chain, bit for bit.
    """

    def __init__(self, inst: Instance) -> None:
        n, m = inst.n, inst.m
        self.inst = inst
        self.s = 0
        self.Gt = np.zeros((n + m, m))
        self.c = np.zeros(n + m)
        self.upper = np.full(n + m, np.inf)
        self.at_upper = np.zeros(n + m, dtype=bool)
        self.nonbasic = np.ones(n + m, dtype=bool)
        self.basis = np.zeros(m, dtype=np.intp)
        self.Binv: Optional[np.ndarray] = None
        self.y: Optional[np.ndarray] = None
        self.last: Optional[LpSolution] = None
        self._eye = np.eye(m)

    def solve(self, inst: Instance, s: int, prev: Optional[LpSolution]) -> LpSolution:
        """Grow to prefix ``s`` and solve it, warm from ``prev`` if given (see :func:`solve_scaled`).

        Raises ``ValueError`` unless the workspace belongs to ``inst`` and
        holds prefix ``s - 1``, and, with ``prev``, unless ``prev`` is the
        last solution it returned and its carried basis is m distinct
        indices of that prefix.
        """
        if inst is not self.inst or s != self.s + 1:
            raise ValueError(f"a workspace takes prefix {s} only after prefix {s - 1} of the "
                             f"same instance; it holds prefix {self.s} of its own")
        t, m = s - 1, inst.m
        N = s + m
        basis = self.basis
        if prev is not None:
            if prev is not self.last:
                raise ValueError("prev must be the last solution this workspace returned")
            if len(set(basis.tolist())) != m or not ((basis >= 0) & (basis < N - 1)).all():
                raise ValueError("the workspace's carried basis must be m distinct indices "
                                 f"into prefix {t}")
        self.last = None  # a step that raises below leaves no state to warm from
        self.Gt[t] = inst.columns[:, t]
        self.Gt[s:N] = self._eye
        self.c[t] = inst.rewards[t]
        self.upper[t] = 1.0
        self.s = s
        at_upper, nonbasic = self.at_upper[:N], self.nonbasic[:N]
        if prev is None:
            basis[:] = np.arange(s, N)
            np.greater(inst.rewards[:s], 0.0, out=at_upper[:s])
            at_upper[s:] = False
            nonbasic[:] = True
            nonbasic[basis] = False
            Binv = y = None
        else:
            basis[basis >= t] += 1
            at_upper[s:] = at_upper[t:N - 1]
            nonbasic[s:] = nonbasic[t:N - 1]
            at_upper[t] = inst.rewards[t] - inst.columns[:, t] @ prev.duals > 0.0
            nonbasic[t] = True
            Binv, y = self.Binv, self.y
        sol, self.Binv, self.y = _solve(inst.rewards[:s], self.Gt[:N], self.c[:N],
                                        self.upper[:N], s * inst.per_column_budget,
                                        basis, at_upper, nonbasic, Binv, y)
        self.last = sol
        return sol


def solve_scaled(inst: Instance, s: int, prev: Optional[LpSolution] = None,
                 work: Optional[PrefixWorkspace] = None) -> LpSolution:
    """Solve the prefix LP over the first ``s`` columns with capacity ``s * d``.

    With ``s = n`` this matches :func:`solve_relaxation` up to roundoff in
    ``n * (b / n)``.  ``prev``, the solution of prefix ``s - 1``, warm-starts
    the solve from its basis: the slacks are renumbered, and column ``s - 1``
    starts at 1 if its reduced cost at ``prev``'s prices is positive, at 0
    otherwise.  That start is dual feasible, and the dual simplex restores
    primal feasibility after ``b`` grows.  Without ``prev`` the solve starts
    from :func:`solve_box_lp`'s default.

    ``work``, a :class:`PrefixWorkspace` of ``inst`` that holds prefix
    ``s - 1``, saves the rebuild of ``[A | I]`` and, warm, the rebuild of
    the start: the step writes one column into the workspace and pivots on
    the state it carries from its last solve, which ``prev`` must then be.
    A step without pivots inverts nothing and reuses the prices.  The pivots
    and the result are the same as without ``work``.
    """
    if not 1 <= s <= inst.n:
        raise ValueError(f"prefix length must satisfy 1 <= s <= {inst.n}, got {s}")
    t = s - 1  # the new column's index, and prev's column count
    if prev is not None and prev.at_upper.shape != (t + inst.m,):
        raise ValueError(f"prev must solve the prefix LP over the first {t} columns")
    if work is not None:
        return work.solve(inst, s, prev)
    start = None
    if prev is not None:
        basis = np.where(prev.basis >= t, prev.basis + 1, prev.basis)
        favoured = inst.rewards[t] - inst.columns[:, t] @ prev.duals > 0.0
        start = (basis, np.concatenate((prev.at_upper[:t], [favoured], prev.at_upper[t:])))
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

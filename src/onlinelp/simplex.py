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
prices in at those prices (a start where one already did, or roundoff)
raises :class:`SimplexError`.

An LP's state is its basis and the bound flags ``at_upper``; a column is
nonbasic where the basis does not name it.  Each pass inverts the basis
matrix once and reads from that inverse the basic values, the prices and
the leaving row; the exchange only updates the basis and the flags.  Each
engine has one such pivot loop, which :func:`_pivot_loop` picks: the
compiled library of :mod:`onlinelp.native` where it loads (``_simplex.c``,
the same decisions on its own sums), and :func:`_numpy_pivots` otherwise.
The final solves and the dual-feasibility check are numpy's on either
engine, so an engine that ends at the same basis returns the same bits.  On
continuous data the two take the same pivots; where ratios tie exactly,
each breaks the tie by the last bits of its own sums.

:func:`solve_prefix_lps` solves the prefix LPs of a batch of instances in
lockstep, each warm from the last and the first from the empty prefix's
optimum, the slack basis at price 0: the cells' ``[A | I]`` and solver state
live in stacked arrays, a step writes one new column and moves each basis to
the new prefix in O(m), and the pricing of the new column, the final solves
and the dual-feasibility check run as stacked numpy calls over the cells.
A step pivots the running cells through :func:`_pivot_loop`, as
:func:`solve_box_lp` pivots its one LP.  A cell without pivots keeps its
prices.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import native
from .core import Instance

__all__ = [
    "Certificate",
    "LpSolution",
    "SimplexError",
    "solve_box_lp",
    "solve_relaxation",
    "solve_scaled",
    "PrefixLps",
    "solve_prefix_lps",
    "solve_binary_exact",
    "certify",
]

_PIVOT_TOL = 1e-9   # smallest pivot entry a ratio test takes; largest wrong-signed reduced cost a solve returns
_FEAS_TOL = 1e-9    # the dual simplex pivots only on a basic value this far outside its bounds
_PASS_WIDTH = 32    # breakpoints a long dual step sorts first (4x more each time it runs past)
_UPPER = np.array([1.0, np.inf])  # a basic variable's upper bound, taken by whether it is a slack
_SIGN = np.array([-1.0, 1.0])     # alpha_j's sign in the ratio test, taken by at_upper[j] != to_upper


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
            order = ratios.argsort(kind="stable")
        else:
            bound = ratios[ratios.argpartition(width - 1)[width - 1]]
            order = (ratios <= bound).nonzero()[0]
            order = order[ratios[order].argsort(kind="stable")]
        # the cumulative ranges grow, so the breakpoints passed are a prefix
        stop = int(np.count_nonzero(excess - ranges[order].cumsum() > 0.0))
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
    values, the prices and the leaving row from that inverse, on the engine
    :func:`~onlinelp.native.engine` names.  Raises ``ValueError``, before
    either engine runs, unless every entry of r, A and b is finite and every
    capacity non-negative; ``np.linalg.LinAlgError`` on a singular basis
    matrix; and :class:`SimplexError` if the ratio test finds no entering
    column, the pivot budget runs out, or a nonbasic column of the final
    basis prices in by more than ``_PIVOT_TOL``.
    """
    r = np.ascontiguousarray(np.asarray(rewards, dtype=np.float64).reshape(-1))
    A = np.ascontiguousarray(np.asarray(columns, dtype=np.float64))
    b = np.ascontiguousarray(np.asarray(capacity, dtype=np.float64).reshape(-1))
    if A.ndim != 2:
        raise ValueError("columns must be 2-D")
    m, n = A.shape
    if r.shape != (n,) or b.shape != (m,):
        raise ValueError("inconsistent LP dimensions")
    # checked here, since each engine would fail on such data in its own way
    if not (np.logical_and.reduce(b >= 0.0)
            and all(np.logical_and.reduce(np.isfinite(x), axis=None) for x in (r, A, b))):
        raise ValueError("LP data must be finite, and capacities non-negative")
    # Column-major data lives in Gt (N, m): row j is column j of [A | I].
    Gt = np.concatenate((A.T, np.eye(m)))
    c = np.concatenate([r, np.zeros(m)])
    N = n + m
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
    return _solve(r, A, Gt, c, b, basis, at_upper)


def _max_iterations(N: int) -> int:
    """The pivot budget of one solve over N columns of ``[A | I]``."""
    return 2000 + 60 * N


def _no_entering_column(n: int, m: int) -> SimplexError:
    return SimplexError(f"dual ratio test found no entering column (n={n}, m={m})")


def _budget_exceeded(iterations: int, n: int, m: int) -> SimplexError:
    return SimplexError(f"pivot budget exceeded ({iterations} iterations, n={n}, m={m})")


def _numpy_pivots(Gt, c, b, basis, at_upper) -> int:
    """Pivot a valid start to an optimal basis in numpy; returns the pivots taken.

    The numpy engine's one pivot loop.  ``Gt`` is ``[A | I]`` by rows,
    C-contiguous, and ``c`` its costs; the start is ``basis`` and
    ``at_upper``, updated in place.  The bounded dual simplex pivots until
    every basic value lies within its bounds, 0 and 1 for a structural (an
    index below n) and 0 and infinity for a slack.  The leaving row has the
    largest bound violation, its excess.  The nonbasics that move the
    leaving value toward its bound are passed in increasing
    |cbar_j| / |alpha_ij| (first index on ties): each structural whose range
    |alpha_ij| leaves part of the excess unabsorbed flips to its other
    bound, and the column that absorbs the rest enters, at the latest the
    first slack, whose range is infinite.
    """
    N, m = Gt.shape
    n = N - m
    iterations = 0
    while True:
        Binv = np.linalg.inv(Gt.take(basis, axis=0).T)
        # No basic variable is at its upper bound, so at_upper holds x with
        # its basic entries at 0.
        xb = Binv @ (b - at_upper.astype(np.float64) @ Gt)
        above = xb - _UPPER.take(basis >= n)
        excess = np.maximum(-xb, above)
        i = int(excess.argmax())
        if excess[i] <= _FEAS_TOL:
            return iterations
        iterations += 1
        if iterations > _max_iterations(N):
            raise _budget_exceeded(iterations, n, m)
        worst, to_upper = excess[i], bool(above[i] > 0.0)
        cbar = c - Gt @ (Binv.T @ c[basis])
        alpha = Gt @ Binv[i]
        alpha[basis] = 0.0  # a basic column never enters
        # Raising x_j changes the leaving value at rate -alpha_j; toward is
        # alpha negated (times -1, exactly) where the bound flag equals to_upper.
        toward = alpha * _SIGN.take(at_upper ^ to_upper)
        eligible = (toward > _PIVOT_TOL).nonzero()[0]
        if not eligible.size:
            # x = 0 is feasible, so only roundoff gets here.
            raise _no_entering_column(n, m)
        ranges = toward[eligible]
        ratios = np.abs(cbar[eligible]) / ranges
        first = ratios.argmin()
        j = int(eligible[first])
        if j < n and ranges[first] < worst:
            # The first breakpoint leaves part of the excess: pass every
            # breakpoint whose flip still does.  eligible is sorted, so the
            # slacks, whose range is infinite, are its tail.
            ranges[eligible.searchsorted(n):] = np.inf
            passed, enter = _long_step(ratios, ranges, worst)
            flipped, j = eligible[passed], int(eligible[enter])
            at_upper[flipped] = ~at_upper[flipped]
        # The exchange: column j enters at position i, and the leaving
        # variable goes to the bound it violated.
        at_upper[basis[i]], at_upper[j] = to_upper, False
        basis[i] = j


# pivot_lps' failure codes (see _simplex.c)
_NO_ENTERING_COLUMN, _BUDGET_EXCEEDED, _SINGULAR_BASIS = 1, 2, 3


def _pivot_loop(columns, Gt, c, b, basis, at_upper):
    """Bind stacked LPs to the pivot loop of the engine :func:`~onlinelp.native.engine` names.

    The arrays are :func:`~onlinelp.native.pivot_lps`' (``c`` its
    ``costs``), one LP a cell; the starts ``basis`` and ``at_upper`` are
    updated in place.  Returns ``pivots(a, n)``, which pivots the first
    ``a`` cells' LPs over their first ``n`` columns to optimal bases, in
    cell order, and returns their pivot counts; it raises what
    :func:`_numpy_pivots` raises, at the first cell that fails.
    """
    m = columns.shape[1]
    if native.engine() != "compiled":
        return lambda a, n: [_numpy_pivots(Gt[k, :n + m], c[k, :n + m], b[k], basis[k],
                                           at_upper[k, :n + m]) for k in range(a)]
    counts = np.zeros(len(columns), dtype=np.int64)
    step = native.pivot_lps(columns, Gt, c, b, basis, at_upper, counts, _PIVOT_TOL, _FEAS_TOL)

    def pivots(a: int, n: int):
        code = step(a, n, _max_iterations(n + m))
        if code == _NO_ENTERING_COLUMN:
            raise _no_entering_column(n, m)
        if code == _BUDGET_EXCEEDED:
            raise _budget_exceeded(int(np.maximum.reduce(counts[:a])), n, m)
        if code == _SINGULAR_BASIS:
            raise np.linalg.LinAlgError("Singular matrix")  # as np.linalg.inv says it
        return counts[:a]

    return pivots


def _check_dual_feasible(cbar, at_upper, basic, n: int, m: int) -> None:
    """Raise :class:`SimplexError` if a nonbasic column of a final basis prices in.

    ``cbar``, reduced costs of ``[A | I]`` in any shape, is negated at ``at_upper``, 0 at ``basic``.
    """
    np.negative(cbar, out=cbar, where=at_upper)
    cbar[basic] = 0.0
    worst = np.maximum.reduce(cbar, axis=None, initial=0.0)
    if worst > _PIVOT_TOL:
        raise SimplexError(f"final basis is not dual feasible: a nonbasic column prices in "
                           f"by {worst:.3g} (n={n}, m={m})")


def _solve(r, A, Gt, c, b, basis, at_upper) -> LpSolution:
    """Pivot a valid start to the optimum, on the engine :func:`~onlinelp.native.engine` names.

    ``A`` is the (m, n) matrix and ``Gt`` ``[A | I]`` by rows, both
    C-contiguous, and ``c`` its costs.  The start is ``basis`` and
    ``at_upper``, which the pivots update in place; the solution holds
    copies.  :func:`_pivot_loop` pivots the LP as a stack of one cell over
    all n columns, since ``[A | I]`` by rows has the prefix layout.  Either
    engine takes the same pivots and raises the same errors, and the answer
    is solved here from the final basis and bounds alone.
    """
    N, m = Gt.shape
    n = N - m
    pivots = _pivot_loop(A[None], Gt[None], c[None], b[None], basis[None], at_upper[None])
    iterations = int(pivots(1, n)[0])

    # One exact solve per side against the basis in index order: the answer
    # does not depend on the order in which the pivots placed the columns.
    order = basis.copy()
    order.sort()
    B = Gt.take(order, axis=0)
    x = at_upper.astype(np.float64)
    x[order] = np.linalg.solve(B.T, b - x @ Gt)
    x = x[:n].copy()
    y = np.linalg.solve(B, c[order])
    p = np.maximum(y, 0.0)
    s = r - p @ Gt[:n].T
    _check_dual_feasible(np.concatenate((s, -y)), at_upper, basis, n, m)
    np.maximum(s, 0.0, out=s)
    return LpSolution(
        primal=x,
        duals=p,
        reduced_bounds_duals=s,
        objective=float(r @ x),
        basis=basis.copy(),
        at_upper=at_upper.copy(),
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


def solve_scaled(inst: Instance, s: int, prev: Optional[LpSolution] = None) -> LpSolution:
    """Solve the prefix LP over the first ``s`` columns with capacity ``s * d``.

    With ``s = n`` this matches :func:`solve_relaxation` up to roundoff in
    ``n * (b / n)``.  ``prev``, the solution of prefix ``s - 1``, warm-starts
    the solve from its basis: the slacks are renumbered, and column ``s - 1``
    starts at 1 if its reduced cost at ``prev``'s prices is positive, at 0
    otherwise.  That start is dual feasible, and the dual simplex restores
    primal feasibility after ``b`` grows.  Without ``prev`` the solve starts
    from :func:`solve_box_lp`'s default.  :func:`solve_prefix_lps` solves
    the same warm chain for a batch of instances at once.
    """
    if not 1 <= s <= inst.n:
        raise ValueError(f"prefix length must satisfy 1 <= s <= {inst.n}, got {s}")
    t = s - 1  # the new column's index, and prev's column count
    if prev is not None and prev.at_upper.shape != (t + inst.m,):
        raise ValueError(f"prev must solve the prefix LP over the first {t} columns")
    start = None
    if prev is not None:
        basis = np.where(prev.basis >= t, prev.basis + 1, prev.basis)
        favoured = inst.rewards[t] - inst.columns[:, t] @ prev.duals > 0.0
        start = (basis, np.concatenate((prev.at_upper[:t], [favoured], prev.at_upper[t:])))
    return solve_box_lp(inst.rewards[:s], inst.columns[:, :s], s * inst.per_column_budget, start)


class PrefixLps(NamedTuple):
    """The prefix LPs of a batch, as :func:`solve_prefix_lps` solves them; entries past an n are 0.

    Entry ``[k, t]`` is cell k's LP over its first ``t + 1`` columns:
    ``favoured`` (cells, n_max) says whether column t's reduced cost at the
    previous LP's prices (0 at t = 0) is positive, the bound its warm start
    gives it; ``duals`` (cells, n_max, m) are the LP's prices, ``primal``
    (cells, n_max) the value of column t and ``iterations`` (cells, n_max)
    its pivots, as :class:`LpSolution` reports them.
    """

    favoured: np.ndarray
    duals: np.ndarray
    primal: np.ndarray
    iterations: np.ndarray


def solve_prefix_lps(instances: Sequence[Instance]) -> PrefixLps:
    """Solve every prefix LP of every instance in lockstep, into one :class:`PrefixLps`.

    A cell is one instance, and step t solves its prefix LP over columns
    0..t with capacity ``(t + 1) * d``, as ``solve_scaled(inst, t + 1, prev)``
    does, warm from step t-1's final basis, and step 0 from the empty
    prefix's: its m slacks basic at price 0.  The instances share m, not n,
    and come longest first: step t steps the first ``a`` cells, those with
    n > t, and writes their column t of the record.  Every LP of a step has
    t + 1 columns plus m slacks, so ``Gt`` (cells, n_max + m, m) holds each
    cell's ``[A | I]`` by rows in prefix layout (rows [0, s) the first s
    columns, rows [s, s + m) the slack identity), and the costs, bound
    flags, bases and prices are stacked likewise.

    A step writes column t and the shifted identity, renumbers the basic
    slacks and gives the new column the bound its reduced cost at the last
    prices favours.  The running cells then pivot to optimal bases through
    :func:`_pivot_loop`, bound once per pass, as :func:`solve_box_lp`'s one
    LP does: the compiled library's ``pivot_lps``, one call for all of
    them, or :func:`_numpy_pivots` on each in turn.  Each
    cell gets the pivots of its own warm ``solve_scaled`` chain on the same
    LP engine, and its answers bit for bit, whatever else is in the batch:
    the final solves are numpy's on either engine, and the stacked products
    and solves make the BLAS and LAPACK calls the one-cell ones make.

    Raises ``ValueError`` unless the instances share m and come in
    non-increasing n, and :class:`SimplexError` as a solve would, for any
    cell: the pass then stops.
    """
    if not instances:
        raise ValueError("a prefix-LP pass needs at least one instance")
    if any(inst.m != instances[0].m for inst in instances):
        raise ValueError("the instances of a prefix-LP pass must share m")
    if any(a.n < b.n for a, b in zip(instances, instances[1:])):
        raise ValueError("the instances of a prefix-LP pass must come longest first")
    lengths = [inst.n for inst in instances]
    cells, n_max, m = len(instances), lengths[0], instances[0].m
    rewards = np.zeros((cells, n_max))
    # columns by rows of A: the warm start prices column t with the same
    # strided dot product as solve_scaled
    columns = np.zeros((cells, m, n_max))
    for k, inst in enumerate(instances):
        rewards[k, :inst.n] = inst.rewards
        columns[k, :, :inst.n] = inst.columns
    budget = np.stack([inst.per_column_budget for inst in instances])
    out = PrefixLps(np.zeros((cells, n_max), dtype=bool), np.zeros((cells, n_max, m)),
                    np.zeros((cells, n_max)), np.zeros((cells, n_max), dtype=np.int64))
    Gt = np.zeros((cells, n_max + m, m))
    c = np.zeros((cells, n_max + m))
    at_upper = np.zeros((cells, n_max + m), dtype=bool)
    # Every cell starts at the empty prefix's optimum: its m slacks are
    # basic and the prices are 0.
    basis = np.tile(np.arange(m), (cells, 1))
    capacity = np.zeros((cells, m))
    eye = np.eye(m)
    pivots = _pivot_loop(columns, Gt, c, capacity, basis, at_upper)
    y = np.zeros((cells, m))
    row = np.arange(cells)[:, None]
    # cell k's row j of Gt, or entry j of c, is flat row k * (n_max + m) + j
    flat_Gt, flat_c = Gt.reshape(-1, m), c.reshape(-1)
    offset = row * (n_max + m)
    a = cells
    for t in range(n_max):
        while lengths[a - 1] <= t:
            a -= 1
        s, N = t + 1, t + 1 + m
        # views of the running cells' prefix-s state
        G, cost, at = Gt[:a, :N], c[:a, :N], at_upper[:a, :N]
        base = basis[:a]
        G[:, t] = columns[:a, :, t]
        G[:, s:] = eye
        cost[:, t] = rewards[:a, t]
        b = np.multiply(s, budget[:a], out=capacity[:a])
        # Slacks are never at their infinite upper bound, so no bound flag shifts.
        base += base >= t
        prices = np.maximum(y[:a], 0.0)
        priced = (columns[:a, None, :, t] @ prices[:, :, None])[:, 0, 0]
        at[:, t] = out.favoured[:a, t] = rewards[:a, t] - priced > 0.0
        iterations = out.iterations[:a, t]
        iterations[:] = pivots(a, s)
        # No basic variable is at its upper bound, so at holds x with its
        # basic entries at 0.
        x = at.astype(np.float64)
        rhs = b - (x[:, None, :] @ G)[:, 0]

        # One exact solve per side against each basis in index order.  Only
        # x_t is reported, and a nonbasic x_t is its bound flag already, so
        # the primal side is solved only where column t ended basic.
        order = base.copy()
        order.sort(axis=1)
        B = flat_Gt.take(order + offset[:a], axis=0)
        basic = np.logical_or.reduce(base == t, axis=1).nonzero()[0]
        if basic.size:
            solved = np.linalg.solve(B[basic].transpose(0, 2, 1), rhs[basic, :, None])[:, :, 0]
            x[basic, t] = solved[order[basic] == t]
        moved = iterations.nonzero()[0]
        if moved.size:  # a pivot: solve for the new prices
            moved = slice(0, a) if len(moved) == a else moved
            costs = flat_c.take(order[moved] + offset[moved])
            y[moved] = np.linalg.solve(B[moved], costs[:, :, None])[:, :, 0]
        duals = np.maximum(y[:a], 0.0, out=out.duals[:a, t])
        out.primal[:a, t] = x[:, t]
        cbar = np.empty((a, N))
        np.subtract(cost[:, :s], (duals[:, None, :] @ G[:, :s].transpose(0, 2, 1))[:, 0],
                    out=cbar[:, :s])
        np.negative(y[:a], out=cbar[:, s:])
        _check_dual_feasible(cbar, at, (row[:a], base), s, m)
    return out


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

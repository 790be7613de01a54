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

:func:`solve_prefix_lps` solves the prefix LPs of a batch of instances in
lockstep, each warm from the last and the first from the empty prefix's
optimum, the slack basis at price 0: the cells' ``[A | I]`` and solver state
live in stacked arrays, a step writes one new column and moves each basis to
the new prefix in O(m), and the basic values, the inversions, the final
solves and the dual-feasibility check run as stacked numpy calls over the
cells.  Only the ratio test and the exchange run per cell, and only for the
cells that pivot; they are the code :func:`solve_box_lp` runs.  A cell
without pivots inverts nothing and keeps its prices.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .core import Instance

__all__ = [
    "Certificate",
    "LpSolution",
    "SimplexError",
    "solve_box_lp",
    "solve_relaxation",
    "solve_scaled",
    "PrefixStep",
    "solve_prefix_lps",
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
    return _solve(r, Gt, c, upper, b, basis, at_upper, nonbasic)


def _pivot(Gt, c, basis, at_upper, nonbasic, Binv, i: int, excess: float, to_upper: bool) -> None:
    """One dual pivot on leaving row ``i``: the ratio test, the long step and the exchange.

    ``Gt`` is ``[A | I]`` by rows, C-contiguous, and ``Binv`` inverts the
    basis matrix of ``basis``.  Row ``i``'s basic value lies ``excess``
    outside its bounds, above its upper bound if ``to_upper``.  The
    nonbasics that move the leaving value toward its bound are passed in
    increasing |cbar_j| / |alpha_ij| (first index on ties): each structural
    whose range |alpha_ij| leaves part of the excess unabsorbed flips to its
    other bound, and the column that absorbs the rest enters, at the latest
    the first slack, whose range is infinite.  ``basis``, ``at_upper`` and
    ``nonbasic`` are updated in place.
    """
    N, m = Gt.shape
    n = N - m
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
    if j < n and toward[j] < excess:
        # The first breakpoint leaves part of the excess: pass every
        # breakpoint whose flip still does.
        ranges = np.where(eligible < n, toward[eligible], np.inf)
        passed, enter = _long_step(ratios, ranges, excess)
        flipped, j = eligible[passed], int(eligible[enter])
        at_upper[flipped] = ~at_upper[flipped]
    # The exchange: column j enters at position i, and the leaving
    # variable goes to the bound it violated.
    at_upper[basis[i]], at_upper[j] = to_upper, False
    nonbasic[basis[i]], nonbasic[j] = True, False
    basis[i] = j


def _max_iterations(N: int) -> int:
    """The pivot budget of one solve over N columns of ``[A | I]``."""
    return 2000 + 60 * N


def _solve(r, Gt, c, upper, b, basis, at_upper, nonbasic) -> LpSolution:
    """Pivot a valid start to the optimum.

    ``Gt`` is ``[A | I]`` by rows, C-contiguous.  The start is ``basis``,
    ``at_upper`` and ``nonbasic`` (the complement of ``basis``), which the
    pivots update in place; the solution holds copies.
    """
    N, m = Gt.shape
    n = N - m
    if not (b >= 0.0).all():
        raise ValueError("capacities must be non-negative")
    iterations = 0
    # Bounded dual simplex: pivot until every basic value lies within its
    # bounds.  The leaving row has the largest bound violation, its excess.
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
        if iterations > _max_iterations(N):
            raise SimplexError(f"pivot budget exceeded ({iterations} iterations, n={n}, m={m})")
        _pivot(Gt, c, basis, at_upper, nonbasic, Binv, i, excess[i], bool(above[i] > 0.0))

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


class PrefixStep(NamedTuple):
    """Step t of :func:`solve_prefix_lps`: each running cell's LP over its first ``t + 1`` columns.

    ``duals`` (cells, m) are the LPs' prices, ``primal`` (cells,) the value
    of their new column ``t`` and ``iterations`` (cells,) their pivots, as
    :class:`LpSolution` reports them.  Each step's arrays are its own.
    """

    duals: np.ndarray
    primal: np.ndarray
    iterations: np.ndarray


def solve_prefix_lps(instances: Sequence[Instance]) -> Iterator[PrefixStep]:
    """Solve every prefix LP of every instance in lockstep; yields one :class:`PrefixStep` per step.

    A cell is one instance, and step t solves its prefix LP over columns
    0..t with capacity ``(t + 1) * d``, as ``solve_scaled(inst, t + 1, prev)``
    does, warm from step t-1's final basis, and step 0 from the empty
    prefix's: its m slacks basic at price 0.  The instances share m, not n,
    and come longest first: step t steps the first ``a`` cells, those with
    n > t, and yields their arrays.  Every LP of a step has t + 1 columns
    plus m slacks, so ``Gt`` (cells, n_max + m, m) holds each cell's
    ``[A | I]`` by rows in prefix layout (rows [0, s) the first s columns,
    rows [s, s + m) the slack identity), and the costs, bound flags,
    nonbasic masks, bases, basis inverses and prices are stacked likewise.

    A step writes column t and the shifted identity, renumbers the basic
    slacks and gives the new column the bound its reduced cost at the last
    prices favours.  The new column does not enter the basis matrix, so the
    carried inverses still hold.  Each pass reads every running cell's
    basic values from its inverse; the cells with one outside its bounds
    pivot through the ratio test and exchange of :func:`solve_box_lp`, and
    only they are inverted again for the next pass.  Each cell gets the
    pivots and answers of its own warm ``solve_scaled`` chain, bit for bit,
    whatever else is in the batch: the stacked products and solves make the
    BLAS and LAPACK calls the one-cell ones make.

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
    return _prefix_steps(instances)


def _prefix_steps(instances: Sequence[Instance]) -> Iterator[PrefixStep]:
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
    # step t's capacities are (t + 1) * budget, non-negative iff the budgets are
    if not (budget >= 0.0).all():
        raise ValueError("capacities must be non-negative")
    Gt = np.zeros((cells, n_max + m, m))
    c = np.zeros((cells, n_max + m))
    at_upper = np.zeros((cells, n_max + m), dtype=bool)
    # Every cell starts at the empty prefix's optimum: its m slacks are
    # basic, the basis inverse is I and the prices are 0.
    nonbasic = np.ones((cells, n_max + m), dtype=bool)
    nonbasic[:, :m] = False
    basis = np.tile(np.arange(m), (cells, 1))
    # the basic variables' upper bounds: 1 for a structural, infinite for a slack
    basic_upper = np.full((cells, m), np.inf)
    eye = np.eye(m)
    Binv = np.tile(eye, (cells, 1, 1))
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
        G, cost, at, free = Gt[:a, :N], c[:a, :N], at_upper[:a, :N], nonbasic[:a, :N]
        base = basis[:a]
        G[:, t] = columns[:a, :, t]
        G[:, s:] = eye
        cost[:, t] = rewards[:a, t]
        b = s * budget[:a]
        # Slacks are never at their infinite upper bound, so only the
        # nonbasic flags of the slacks shift.
        base += base >= t
        free[:, s:] = free[:, t:N - 1]
        free[:, t] = True
        prices = np.maximum(y[:a], 0.0)
        at[:, t] = rewards[:a, t] - (columns[:a, None, :, t] @ prices[:, :, None])[:, 0, 0] > 0.0
        iterations = np.zeros(a, dtype=np.int64)
        stale = None  # the cells whose basis changed; a view when it is every cell
        while True:
            if stale is not None:
                B = flat_Gt.take(base[stale] + offset[stale], axis=0)
                Binv[stale] = np.linalg.inv(B.transpose(0, 2, 1))
            # No basic variable is at its upper bound, so at holds x with its
            # basic entries at 0.  A cell that did not pivot recomputes the
            # same values.
            x = at.astype(np.float64)
            rhs = b - (x[:, None, :] @ G)[:, 0]
            xb = (Binv[:a] @ rhs[:, :, None])[:, :, 0]
            above = xb - basic_upper[:a]
            excess = np.maximum(-xb, above)
            if excess.max() <= _FEAS_TOL:
                break
            # not within tolerance, NaN included, as in _solve
            leaving = np.flatnonzero(~(excess.max(axis=1) <= _FEAS_TOL))
            stale = slice(0, a) if len(leaving) == a else leaving
            for k in leaving.tolist():
                iterations[k] += 1
                if iterations[k] > _max_iterations(N):
                    raise SimplexError(f"pivot budget exceeded ({iterations[k]} iterations, "
                                       f"n={s}, m={m})")
                i = int(np.argmax(excess[k]))
                _pivot(G[k], cost[k], base[k], at[k], free[k], Binv[k], i, excess[k, i],
                       bool(above[k, i] > 0.0))
                basic_upper[k, i] = 1.0 if base[k, i] < s else np.inf

        # One exact solve per side against each basis in index order.
        order = np.sort(base, axis=1)
        B = flat_Gt.take(order + offset[:a], axis=0)
        x[row[:a], order] = np.linalg.solve(B.transpose(0, 2, 1), rhs[:, :, None])[:, :, 0]
        if stale is not None:  # a pivot: solve for the new prices
            moved = np.flatnonzero(iterations)
            moved = slice(0, a) if len(moved) == a else moved
            costs = flat_c.take(order[moved] + offset[moved])
            y[moved] = np.linalg.solve(B[moved], costs[:, :, None])[:, :, 0]
        duals = np.maximum(y[:a], 0.0)
        # the reduced costs, signed so that a positive one prices in
        cbar = np.empty((a, N))
        np.subtract(cost[:, :s], (duals[:, None, :] @ G[:, :s].transpose(0, 2, 1))[:, 0],
                    out=cbar[:, :s])
        np.negative(y[:a], out=cbar[:, s:])
        np.negative(cbar, out=cbar, where=at)
        worst = cbar.max(where=free, initial=0.0)
        if worst > _PIVOT_TOL:
            raise SimplexError(f"final basis is not dual feasible: a nonbasic column prices in "
                               f"by {worst:.3g} (n={s}, m={m})")
        yield PrefixStep(duals, x[:, t].copy(), iterations)


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

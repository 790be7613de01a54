"""Dense bounded-variable simplex for box-constrained packing relaxations.

Solves ``max r @ x  s.t.  A x <= b,  0 <= x <= 1`` with the box handled as
variable bounds, so the working basis stays m-by-m.  Dual prices come from the
final basis; the bound duals are recovered from the reduced costs as
``s_j = max(0, r_j - a_j @ p)``, which makes ``b @ p + sum(s)`` equal the
primal objective exactly at optimality.

Capacities must be non-negative: then ``x = 0`` is feasible and the box
keeps the region bounded, so every solve ends optimal.  The program only
poses such LPs, because an instance's budgets are positive.  Negative matrix
entries and rewards are fully supported.

A solve starts from a basis and the nonbasics' bounds: by default the
all-slack basis with every variable at 0, which is primal feasible, or a dual
feasible start, such as the previous prefix LP's final basis (prefix t adds
one column and grows ``b``, which leaves the prices intact) or the offline
LP's start at price 0 (see :func:`solve_relaxation`).  A bounded dual phase
pivots while some basic value lies outside its bounds: the row of largest
violation leaves, and the bound-flipping ("long step") ratio test passes
every breakpoint that still lowers the dual objective in one pivot (Fourer
1994; Maros 2003).  The primal loop then enters the largest reduced-cost
violation (first index on ties), switching permanently to Bland's rule after
``3 * (n + m)`` consecutive degenerate pivots; after the dual phase it only
certifies optimality.  The final basic values and prices are solved against
the basis in index order, so the answer depends on the final basis and
bounds alone, not on the start or the path.

Both phases change the basis through one exchange step, which moves the
leaving variable to its bound and updates the explicit basis inverse by a
rank-one step.  The inverse only steers the pivoting: it is recomputed from
``Gt[basis]`` every ``_REINVERT_EVERY`` exchanges, and the basic values and
dual prices come from exact solves against ``Gt[basis]``.  Consecutive
entering candidates that resolve to bound flips share one pricing pass: while
the basis is unchanged the reduced costs are too, so walking the eligible
columns in pivot-rule order selects exactly the pivots that re-pricing every
move would.
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

_PIVOT_TOL = 1e-9   # a column enters only if its reduced-cost violation exceeds this
_FEAS_TOL = 1e-9    # the dual phase pivots only on a basic value this far outside its bounds
_RATE_EPS = 1e-11
_DEGEN_EPS = 1e-11
_REFRESH_EVERY = 1024
_REINVERT_EVERY = 50


class SimplexError(RuntimeError):
    """Raised when the pivot loop breaks down numerically or exceeds its budget."""


@dataclass(frozen=True)
class LpSolution:
    """Optimal primal/dual solution of one box LP.

    ``duals`` prices the m capacity rows, ``reduced_bounds_duals`` prices the
    n upper-bound rows ``x_j <= 1``; both are non-negative.  ``basis`` and
    ``at_upper`` are the final basis (indices into ``[A | I]``) and the
    nonbasics at their upper bound: a start for a neighbouring LP.  The effort
    counts are the primal loop's basis changes and bound flips, the dual
    pivots (each with the bound flips its ratio test passed), and whether
    Bland's rule switched on.
    """

    primal: np.ndarray
    duals: np.ndarray
    reduced_bounds_duals: np.ndarray
    objective: float
    basis: np.ndarray
    at_upper: np.ndarray
    pivots: int
    flips: int
    dual_pivots: int
    bland: bool

    @property
    def iterations(self) -> int:
        return self.pivots + self.flips + self.dual_pivots


class _BoxSimplex:
    """One solve; not reusable.  All arrays are dense float64.

    ``start`` is ``(basis, at_upper)``: the m basic indices into ``[A | I]``
    and the nonbasics held at their upper bound.  The default is the
    all-slack basis with every variable at 0.
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
        N = self.N = n + m
        # Column-major data lives in Gt (N, m): row j is column j of [A | I].
        self.Gt = Gt = np.concatenate((A.T, np.eye(m)))
        self.c = np.concatenate([self.r, np.zeros(m)])
        # Every variable has lower bound 0; structurals have upper bound 1.
        self.upper = np.full(N, np.inf)
        self.upper[:n] = 1.0

        if start is None:
            start = (n + np.arange(m), np.zeros(N, dtype=bool))
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
        self.pivots_since_invert = 0
        self.iterations = self.pivots = self.flips = self.dual_pivots = 0
        self.bland = False
        self.max_iterations = 2000 + 60 * N
        self.bland_threshold = 3 * (n + m)

    def _refresh_basics(self) -> None:
        """Basic values by an exact solve against ``Gt[basis]``; restarts the move count."""
        tmp = self.x.copy()
        tmp[self.basis] = 0.0
        rhs = self.b - tmp @ self.Gt
        self.xb = list(np.linalg.solve(self.Gt.take(self.basis, axis=0).T, rhs))
        self.moves_since_refresh = 0

    def _reduced_costs(self) -> np.ndarray:
        return self.c - self.Gt @ (self.Binv.T @ self.c[self.basis])

    def _count_move(self) -> None:
        self.iterations += 1
        if self.iterations > self.max_iterations:
            raise SimplexError(f"pivot budget exceeded ({self.iterations} iterations, "
                               f"n={self.n}, m={self.m})")

    def _replace(self, i: int, j: int, w: np.ndarray, to_upper: bool) -> None:
        """The exchange step of both phases: column j enters at basis position i.

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

    # -- dual phase -----------------------------------------------------------

    def restore_feasibility(self) -> None:
        """Bounded dual simplex: pivot until every basic value lies within its bounds.

        Needs a dual feasible basis when it pivots, and every pivot keeps one.
        The leaving row has the largest bound violation, its excess.  The
        nonbasics that move the leaving value toward its bound are passed in
        increasing ``|cbar_j| / |alpha_rj|`` (first index on ties): each
        structural whose range ``|alpha_rj|`` leaves part of the excess
        unabsorbed flips to its other bound, and the column that absorbs the
        rest enters, at the latest the first slack, whose range is infinite.
        """
        while True:
            xb = np.array(self.xb)
            above = xb - self.upper[self.basis]
            excess = np.maximum(-xb, above)
            r = int(np.argmax(excess))
            if excess[r] <= _FEAS_TOL:
                return
            self._count_move()
            self.dual_pivots += 1
            to_upper = bool(above[r] > 0.0)
            cbar = self._reduced_costs()
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
                order = eligible[np.argsort(ratios, kind="stable")]
                ranges = np.where(order < self.n, toward[order], np.inf)
                left = excess[r] - np.cumsum(ranges)
                stop = min(int(np.count_nonzero(left > 0.0)), order.size - 1)
                flipped, j = order[:stop], int(order[stop])
                self.at_upper[flipped] = ~self.at_upper[flipped]
                self.x[flipped] = self.at_upper[flipped]
            self._replace(r, j, self.Binv @ self.Gt[j], to_upper)
            self._refresh_basics()

    # -- pivot loop ----------------------------------------------------------

    def optimize(self) -> None:
        """Primal bounded simplex from a primal feasible basis, until no column prices in."""
        m, basis, Gt, upper = self.m, self.basis, self.Gt, self.upper
        x, at_upper = self.x, self.at_upper
        ub_b = list(upper[basis])
        degen = 0
        while True:
            cbar = self._reduced_costs()
            # A candidate's violation is its reduced cost signed by the move
            # direction; consuming candidates by repeated argmax walks them in
            # exactly the order a stable sort on (-violation, index) would.
            viol = np.where(at_upper, -cbar, cbar)
            scores = np.where(self.nonbasic & (viol > _PIVOT_TOL), viol, 0.0)
            bland = self.bland
            xb = self.xb
            while True:
                j = int(np.argmax(scores > 0.0 if bland else scores))
                if scores[j] <= 0.0:
                    # Consumed candidates are all ineligible under the unchanged
                    # basis, so an exhausted round certifies optimality.
                    return
                scores[j] = 0.0
                self._count_move()
                going_up = not at_upper[j]
                w = self.Binv @ Gt[j]
                # Ratio test on the basic variables, in plain floats: a basic
                # variable falls at rate d_i per unit of entering movement,
                # d = w when entering rises and -w when it falls.  Under
                # Bland's rule exact ties leave by least basic index.
                d = w.tolist() if going_up else (-w).tolist()
                theta_min = math.inf
                i_star = -1
                for i in range(m):
                    di = d[i]
                    if di > _RATE_EPS:
                        t_i = xb[i] / di
                    elif di < -_RATE_EPS:
                        t_i = (ub_b[i] - xb[i]) / (-di)
                    else:
                        continue
                    if t_i < 0.0:
                        t_i = 0.0
                    if t_i < theta_min or (bland and t_i == theta_min and i_star >= 0
                                           and basis[i] < basis[i_star]):
                        theta_min = t_i
                        i_star = i
                theta_flip = upper[j]
                if i_star < 0 and not np.isfinite(theta_flip):
                    # The region is bounded, so only roundoff gets here.
                    raise SimplexError(f"unbounded ratio test (n={self.n}, m={self.m})")
                flip = theta_flip <= theta_min
                theta = theta_flip if flip else theta_min
                for i in range(m):
                    xb[i] -= d[i] * theta
                if flip:
                    # Basis, prices and reduced costs all unchanged.
                    x[j] = upper[j] if going_up else 0.0
                    at_upper[j] = going_up
                    self.flips += 1
                else:
                    xb[i_star] = float(x[j]) + (theta_min if going_up else -theta_min)
                    ub_b[i_star] = float(upper[j])
                    self._replace(i_star, j, w, d[i_star] < 0.0)
                    self.pivots += 1
                    degen = degen + 1 if theta_min <= _DEGEN_EPS else 0
                    if degen >= self.bland_threshold:
                        self.bland = True
                self.moves_since_refresh += 1
                if self.moves_since_refresh >= _REFRESH_EVERY:
                    self._refresh_basics()
                    xb = self.xb
                if not flip:
                    break


def solve_box_lp(rewards, columns, capacity, start=None) -> LpSolution:
    """Solve ``max r @ x, A x <= b, 0 <= x <= 1`` on raw arrays.

    ``start`` is an optional ``(basis, at_upper)`` pair, such as a
    neighbouring LP's final basis (see :class:`LpSolution`); it must be dual
    feasible or primal feasible.  The default is the all-slack basis.  Raises
    ``ValueError`` unless every capacity is non-negative (NaN included).
    """
    sx = _BoxSimplex(rewards, columns, capacity, start)
    sx.restore_feasibility()
    sx.optimize()
    # One exact solve per side against the basis in index order: the answer
    # does not depend on the order in which the pivots placed the columns.
    basis = np.sort(sx.basis)
    B = sx.Gt.take(basis, axis=0)
    sx.x[basis] = 0.0
    sx.x[basis] = np.linalg.solve(B.T, sx.b - sx.x @ sx.Gt)
    x = sx.x[:sx.n].copy()
    p = np.linalg.solve(B, sx.c[basis])
    np.maximum(p, 0.0, out=p)
    s = sx.r - p @ sx.Gt[:sx.n].T
    np.maximum(s, 0.0, out=s)
    return LpSolution(
        primal=x,
        duals=p,
        reduced_bounds_duals=s,
        objective=float(sx.r @ x),
        basis=sx.basis.copy(),
        at_upper=sx.at_upper.copy(),
        pivots=sx.pivots,
        flips=sx.flips,
        dual_pivots=sx.dual_pivots,
        bland=sx.bland,
    )


def solve_relaxation(inst: Instance) -> LpSolution:
    """Solve the box relaxation of the full instance.

    The solve starts from the all-slack basis with each structural at the
    bound its reward favours (``x_j = 1`` iff ``r_j > 0``), which is dual
    feasible at price 0, so the dual phase does the work.  With a unique
    optimal basis the answer is bitwise that of :func:`solve_box_lp`'s default start.
    """
    at_upper = np.concatenate((inst.rewards > 0.0, np.zeros(inst.m, dtype=bool)))
    return solve_box_lp(inst.rewards, inst.columns, inst.capacity,
                        (inst.n + np.arange(inst.m), at_upper))


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
    otherwise.  That start is dual feasible, and the dual phase restores
    primal feasibility after ``b`` grows.
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

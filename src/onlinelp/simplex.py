"""Dense bounded-variable primal simplex for box-constrained packing relaxations.

Solves ``max r @ x  s.t.  A x <= b,  0 <= x <= 1`` with the box handled as
variable bounds, so the working basis stays m-by-m.  Dual prices come from the
final basis; the bound duals are recovered from the reduced costs as
``s_j = max(0, r_j - a_j @ p)``, which makes ``b @ p + sum(s)`` equal the
primal objective exactly at optimality.

Pivot rule: largest reduced-cost violation (first index on ties), switching
permanently to Bland's least-index rule after ``3 * (n + m)`` consecutive
degenerate pivots.  Negative matrix entries and rewards are fully supported.
Capacities must be non-negative: then ``x = 0`` is feasible and the box keeps
the region bounded, so the all-slack basis is a feasible start and every solve
ends optimal.  The program only poses such LPs, because an instance's budgets
are positive.

Two implementation notes, both invisible to the pivot sequence:

* Consecutive entering candidates that resolve to bound flips are processed
  under one pricing pass.  While the basis is unchanged the reduced costs are
  unchanged, so walking the eligible columns in pivot-rule order and
  re-pricing only at basis changes selects exactly the pivots that re-pricing
  every iteration would.
* The basis inverse is maintained explicitly (rank-one updates, refreshed
  periodically); it only steers the pivoting.  Final basic values and dual
  prices come from exact solves against the true basis matrix.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Instance

__all__ = [
    "LpSolution",
    "SimplexError",
    "solve_box_lp",
    "solve_relaxation",
    "solve_scaled",
    "solve_binary_exact",
]

_PIVOT_TOL = 1e-9   # a column enters only if its reduced-cost violation exceeds this
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
    n upper-bound rows ``x_j <= 1``; both are non-negative.
    """

    primal: np.ndarray
    duals: np.ndarray
    reduced_bounds_duals: np.ndarray
    objective: float
    iterations: int = 0


class _BoxSimplex:
    """One solve; not reusable.  All arrays are dense float64."""

    def __init__(self, rewards, columns, capacity):
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
        Gt = np.zeros((N, m))
        Gt[:n] = A.T
        Gt[n + np.arange(m), np.arange(m)] = 1.0
        self.Gt = Gt
        # Every variable has lower bound 0; structurals have upper bound 1.
        self.upper = np.empty(N)
        self.upper[:n] = 1.0
        self.upper[n:] = np.inf

        self.basis = n + np.arange(m)   # the slacks
        self.at_upper = np.zeros(N, dtype=bool)
        self.x = np.zeros(N)              # nonbasic values; basic entries are stale
        self.xb = list(self.b)            # basic values: slack i starts at b_i
        self.B = np.eye(m)
        self.Binv = np.eye(m)
        self.iterations = 0
        self.max_iterations = 2000 + 60 * N
        self.bland_threshold = 3 * (n + m)

    # -- helpers ------------------------------------------------------------

    def _refresh_basics(self) -> None:
        tmp = self.x.copy()
        tmp[self.basis] = 0.0
        rhs = self.b - tmp @ self.Gt
        self.xb = list(np.linalg.solve(self.B, rhs))

    # -- pivot loop ----------------------------------------------------------

    def optimize(self, c: np.ndarray) -> None:
        m = self.m
        basis, Gt, upper = self.basis, self.Gt, self.upper
        x, at_upper = self.x, self.at_upper
        ub_b = list(upper[basis])
        nonbasic = np.ones(self.N, dtype=bool)
        nonbasic[basis] = False
        bland = False
        degen = 0
        moves_since_refresh = 0
        pivots_since_invert = 0
        while True:
            p = self.Binv.T @ c[basis]
            cbar = c - Gt @ p
            # A candidate's violation is its reduced cost signed by the move
            # direction; consuming candidates by repeated argmax walks them in
            # exactly the order a stable sort on (-violation, index) would.
            viol = np.where(at_upper, -cbar, cbar)
            scores = np.where(nonbasic & (viol > _PIVOT_TOL), viol, 0.0)
            exhausted = False
            basis_changed = False
            xb = self.xb
            while True:
                if bland:
                    j = int(np.argmax(scores > 0.0))
                else:
                    j = int(np.argmax(scores))
                if scores[j] <= 0.0:
                    exhausted = True
                    break
                scores[j] = 0.0
                self.iterations += 1
                if self.iterations > self.max_iterations:
                    raise SimplexError(
                        f"pivot budget exceeded ({self.iterations} iterations, n={self.n}, m={self.m})"
                    )
                going_up = not at_upper[j]
                w = self.Binv @ Gt[j]
                wl = w.tolist()
                # Ratio test on the basic variables, in plain floats: a basic
                # variable falls at rate d_i per unit of entering movement,
                # d = w when entering rises and -w when it falls.  Under
                # Bland's rule exact ties leave by least basic index.
                d = wl if going_up else [-wi for wi in wl]
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
                theta = min(theta_flip, theta_min)
                for i in range(m):
                    xb[i] -= d[i] * theta
                if theta_flip <= theta_min:
                    # Bound flip: basis, prices and reduced costs all unchanged.
                    x[j] = upper[j] if going_up else 0.0
                    at_upper[j] = going_up
                    moves_since_refresh += 1
                    if moves_since_refresh >= _REFRESH_EVERY:
                        self._refresh_basics()
                        xb = self.xb
                        moves_since_refresh = 0
                    continue
                enter_val = float(x[j]) + (theta_min if going_up else -theta_min)
                leave = int(basis[i_star])
                if d[i_star] < 0.0:
                    x[leave] = ub_b[i_star]
                    at_upper[leave] = True
                else:
                    x[leave] = 0.0
                    at_upper[leave] = False
                at_upper[j] = False
                nonbasic[leave] = True
                nonbasic[j] = False
                basis[i_star] = j
                xb[i_star] = enter_val
                ub_b[i_star] = float(upper[j])
                self.B[:, i_star] = Gt[j]
                # Rank-one update of the basis inverse.
                wi = wl[i_star]
                row = self.Binv[i_star] / wi
                self.Binv -= np.outer(w, row)
                self.Binv[i_star] = row
                pivots_since_invert += 1
                if pivots_since_invert >= _REINVERT_EVERY:
                    self.Binv = np.linalg.inv(self.B)
                    pivots_since_invert = 0
                moves_since_refresh += 1
                if moves_since_refresh >= _REFRESH_EVERY:
                    self._refresh_basics()
                    moves_since_refresh = 0
                if theta_min <= _DEGEN_EPS:
                    degen += 1
                    if degen >= self.bland_threshold:
                        bland = True
                else:
                    degen = 0
                basis_changed = True
                break
            if exhausted and not basis_changed:
                # Consumed candidates are all ineligible under the unchanged
                # basis, so an exhausted round certifies optimality.
                return


def solve_box_lp(rewards, columns, capacity) -> LpSolution:
    """Solve ``max r @ x, A x <= b, 0 <= x <= 1`` on raw arrays.

    Raises ``ValueError`` unless every capacity is non-negative (NaN included).
    """
    sx = _BoxSimplex(rewards, columns, capacity)
    n = sx.n
    c = np.zeros(sx.N)
    c[:n] = sx.r
    sx.optimize(c)
    sx._refresh_basics()
    full = sx.x.copy()
    full[sx.basis] = sx.xb
    x = full[:n].copy()
    p = np.linalg.solve(sx.B.T, c[sx.basis])
    np.maximum(p, 0.0, out=p)
    s = sx.r - p @ sx.Gt[:n].T
    np.maximum(s, 0.0, out=s)
    return LpSolution(
        primal=x,
        duals=p,
        reduced_bounds_duals=s,
        objective=float(sx.r @ x),
        iterations=sx.iterations,
    )


def solve_relaxation(inst: Instance) -> LpSolution:
    """Solve the box relaxation of the full instance."""
    return solve_box_lp(inst.rewards, inst.columns, inst.capacity)


def solve_scaled(inst: Instance, s: int) -> LpSolution:
    """Solve the prefix LP over the first ``s`` columns with capacity ``s * d``.

    With ``s = n`` this matches :func:`solve_relaxation` up to roundoff in
    ``n * (b / n)``.
    """
    if not 1 <= s <= inst.n:
        raise ValueError(f"prefix length must satisfy 1 <= s <= {inst.n}, got {s}")
    return solve_box_lp(inst.rewards[:s], inst.columns[:, :s], s * inst.per_column_budget)


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

"""Dense bounded-variable primal simplex for box-constrained packing relaxations.

Solves ``max r @ x  s.t.  A x <= b,  0 <= x <= 1`` with the box handled as
variable bounds, so the working basis stays m-by-m.  Dual prices come from the
final basis; the bound duals are recovered from the reduced costs as
``s_j = max(0, r_j - a_j @ p)``, which makes ``b @ p + sum(s)`` equal the
primal objective exactly at optimality.

Pivot rule: largest reduced-cost violation (first index on ties), switching
permanently to Bland's least-index rule after ``3 * (n + m)`` consecutive
degenerate pivots.  Negative matrix entries are fully supported; negative
capacities trigger a phase-1 with artificial columns.

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

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import Instance

__all__ = [
    "LpStatus",
    "LpSolution",
    "SimplexError",
    "solve_box_lp",
    "solve_relaxation",
    "solve_scaled",
    "solve_binary_exact",
]

_PIVOT_TOL = 1e-9   # a column enters only if its reduced-cost violation exceeds this
_FEAS_TOL = 1e-7    # phase 1 declares infeasibility above this artificial total
_RATE_EPS = 1e-11
_DEGEN_EPS = 1e-11
_REFRESH_EVERY = 1024
_REINVERT_EVERY = 50


class SimplexError(RuntimeError):
    """Raised when the pivot loop fails to terminate within its budget."""


class LpStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LpSolution:
    """Primal/dual solution of one box LP.

    ``duals`` prices the m capacity rows, ``reduced_bounds_duals`` prices the
    n upper-bound rows ``x_j <= 1``; both are non-negative when optimal.
    """

    primal: np.ndarray
    duals: np.ndarray
    reduced_bounds_duals: np.ndarray
    objective: float
    status: LpStatus
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

        m, n = self.m, self.n
        neg = np.flatnonzero(self.b < 0.0)
        self.n_art = neg.size
        N = n + m + self.n_art
        self.N = N
        # Column-major data lives in Gt (N, m): row j is column j of [A | I | -I_neg].
        Gt = np.zeros((N, m))
        Gt[:n] = A.T
        Gt[n + np.arange(m), np.arange(m)] = 1.0
        if self.n_art:
            Gt[n + m + np.arange(self.n_art), neg] = -1.0
        self.Gt = Gt
        self.lower = np.zeros(N)
        self.upper = np.empty(N)
        self.upper[:n] = 1.0
        self.upper[n:] = np.inf

        self.basis = n + np.arange(m)
        if self.n_art:
            self.basis[neg] = n + m + np.arange(self.n_art)
        self.in_basis = np.zeros(N, dtype=bool)
        self.in_basis[self.basis] = True
        self.at_upper = np.zeros(N, dtype=bool)
        self.x = np.zeros(N)              # nonbasic values; basic entries are stale
        self.xb = list(np.abs(self.b))    # basic values: slack b_i or artificial -b_i
        self.B = np.ascontiguousarray(self.Gt[self.basis].T)
        self.Binv = np.eye(m) * np.sign(np.diag(self.B))
        self.iterations = 0
        self.max_iterations = 2000 + 60 * N
        self.bland_threshold = 3 * (n + m)
        self._pivots_since_invert = 0

    # -- helpers ------------------------------------------------------------

    def _refresh_basics(self) -> None:
        tmp = self.x.copy()
        tmp[self.basis] = 0.0
        rhs = self.b - tmp @ self.Gt
        self.xb = list(np.linalg.solve(self.B, rhs))

    def _reinvert(self) -> None:
        self.Binv = np.linalg.inv(self.B)
        self._pivots_since_invert = 0

    def _assemble(self) -> np.ndarray:
        full = self.x.copy()
        full[self.basis] = self.xb
        return full

    # -- pivot loop ----------------------------------------------------------

    def optimize(self, c: np.ndarray) -> LpStatus:
        m = self.m
        basis, Gt, lower, upper = self.basis, self.Gt, self.lower, self.upper
        x, at_upper = self.x, self.at_upper
        lb_b = list(lower[basis])
        ub_b = list(upper[basis])
        candidate_base = (~self.in_basis) & ((upper - lower) > 0.0)
        bland = False
        degen = 0
        moves_since_refresh = 0
        while True:
            p = self.Binv.T @ c[basis]
            cbar = c - Gt @ p
            # A candidate's violation is its reduced cost signed by the move
            # direction; consuming candidates by repeated argmax walks them in
            # exactly the order a stable sort on (-violation, index) would.
            viol = np.where(at_upper, -cbar, cbar)
            scores = np.where(candidate_base & (viol > _PIVOT_TOL), viol, 0.0)
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
                        t_i = (xb[i] - lb_b[i]) / di
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
                theta_flip = upper[j] - lower[j]
                if i_star < 0 and not np.isfinite(theta_flip):
                    return LpStatus.UNBOUNDED
                theta = min(theta_flip, theta_min)
                for i in range(m):
                    xb[i] -= d[i] * theta
                if theta_flip <= theta_min:
                    # Bound flip: basis, prices and reduced costs all unchanged.
                    x[j] = upper[j] if going_up else lower[j]
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
                    x[leave] = lb_b[i_star]
                    at_upper[leave] = False
                self.in_basis[leave] = False
                self.in_basis[j] = True
                at_upper[j] = False
                candidate_base[leave] = (upper[leave] - lower[leave]) > 0.0
                candidate_base[j] = False
                basis[i_star] = j
                xb[i_star] = enter_val
                lb_b[i_star] = float(lower[j])
                ub_b[i_star] = float(upper[j])
                self.B[:, i_star] = Gt[j]
                # Rank-one update of the basis inverse.
                wi = wl[i_star]
                row = self.Binv[i_star] / wi
                self.Binv -= np.outer(w, row)
                self.Binv[i_star] = row
                self._pivots_since_invert += 1
                if self._pivots_since_invert >= _REINVERT_EVERY:
                    self._reinvert()
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
                return LpStatus.OPTIMAL


def solve_box_lp(rewards, columns, capacity) -> LpSolution:
    """Solve ``max r @ x, A x <= b, 0 <= x <= 1`` on raw arrays."""
    sx = _BoxSimplex(rewards, columns, capacity)
    n, m = sx.n, sx.m

    if sx.n_art:
        c1 = np.zeros(sx.N)
        c1[n + m:] = -1.0
        status = sx.optimize(c1)
        if status is not LpStatus.OPTIMAL:
            raise SimplexError("phase-1 terminated abnormally")
        sx._refresh_basics()
        art_total = float(sx._assemble()[n + m:].sum())
        if art_total > _FEAS_TOL:
            zeros_n = np.zeros(n)
            return LpSolution(
                primal=zeros_n,
                duals=np.zeros(m),
                reduced_bounds_duals=zeros_n.copy(),
                objective=math.nan,
                status=LpStatus.INFEASIBLE,
                iterations=sx.iterations,
            )
        # Pin the artificials at zero for phase 2.
        sx.upper[n + m:] = 0.0
        sx._reinvert()

    c2 = np.zeros(sx.N)
    c2[:n] = sx.r
    status = sx.optimize(c2)
    if status is LpStatus.UNBOUNDED:
        zeros_n = np.zeros(n)
        return LpSolution(
            primal=zeros_n,
            duals=np.zeros(m),
            reduced_bounds_duals=zeros_n.copy(),
            objective=math.inf,
            status=LpStatus.UNBOUNDED,
            iterations=sx.iterations,
        )
    sx._refresh_basics()
    full = sx._assemble()
    x = full[:n].copy()
    p = np.linalg.solve(sx.B.T, c2[sx.basis])
    np.maximum(p, 0.0, out=p)
    s = sx.r - p @ sx.Gt[:n].T
    np.maximum(s, 0.0, out=s)
    return LpSolution(
        primal=x,
        duals=p,
        reduced_bounds_duals=s,
        objective=float(sx.r @ x),
        status=LpStatus.OPTIMAL,
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

    Returns ``(objective, x)``; when no assignment is feasible the objective
    is ``-inf`` and ``x`` is empty.  Intended as an oracle for weak-duality
    checks, hence the hard budget guard.
    """
    n = inst.n
    if n > _EXACT_LIMIT:
        raise ValueError(f"exhaustive enumeration limited to n <= {_EXACT_LIMIT}, got {n}")
    shifts = np.arange(n, dtype=np.uint64)
    best_obj = -math.inf
    best_mask = -1
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
    if best_mask < 0:
        return -math.inf, np.zeros(0, dtype=np.int8)
    x = ((best_mask >> np.arange(n)) & 1).astype(np.int8)
    return best_obj, x

"""Dense two-phase simplex for the small LPs used across the package.

Maximizes c.x subject to a_ub.x <= b_ub, a_eq.x = b_eq, x >= 0, with all
right-hand sides nonnegative. Bland's rule keeps degenerate instances
(e.g. zero-capacity rows in restricted column LPs) from cycling. Returns
exact basic solutions together with the dual vector of the final basis,
which callers use as optimality certificates, and the final basis.

A caller that re-solves a similar LP may pass that basis back as a hint.
The tableau is then built in one factorization, B^-1 [A | I | b], rather
than by pivots from the slack basis. If the hinted basis is
primal-feasible, phase 2 runs from it; this also covers columns appended
to the LP since the hint was taken. If it is only dual-feasible, which is
what a change of the right-hand side typically leaves, a dual simplex
(Lemke 1954) with the smallest-index rule restores primal feasibility
before phase 2 finishes. Every other case runs the cold two-phase solve
from the slack basis: a hint that does not fit the LP's rows and columns,
a singular or ill-conditioned B, an artificial variable in the hint, a
basis that is neither primal- nor dual-feasible, a dual simplex that finds
no entering column, or an iteration cap reached on the warm path. Warm and
cold solves read x and the duals off their final basis the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_PIVOT_TOL = 1e-10
_COST_TOL = 1e-9
_MAX_ITER = 50_000  # pivots per simplex phase before LpError


class LpError(RuntimeError):
    pass


class LpInfeasible(LpError):
    pass


class LpUnbounded(LpError):
    pass


@dataclass(frozen=True)
class LpResult:
    """Optimum with its duals and final basis.

    `basis` names one variable per constraint row, a_ub rows first: j >= 0
    is column j of c, and -1 - r is the slack of row r (the artificial, on
    an equality row). Slacks are numbered by row, not by position after
    the columns, so the basis stays a valid hint when columns are appended.
    """

    x: np.ndarray
    value: float
    dual_ub: np.ndarray
    dual_eq: np.ndarray
    basis: tuple[int, ...]


def _pivot(tab: np.ndarray, basis: list[int], row: int, col: int) -> None:
    tab[row] /= tab[row, col]
    factors = tab[:, col].copy()
    factors[row] = 0.0
    tab -= factors[:, None] * tab[row]
    basis[row] = col


def _iterate(tab: np.ndarray, basis: list[int], cost: np.ndarray,
             allowed: np.ndarray) -> None:
    n_rows = tab.shape[0]
    for _ in range(_MAX_ITER):
        c_b = cost[basis]
        reduced = cost - c_b @ tab[:, :-1]
        reduced[~allowed] = 0.0
        eligible = reduced > _COST_TOL
        entering = int(eligible.argmax())  # Bland: smallest eligible index
        if not eligible[entering]:
            return
        col = tab[:, entering]
        leaving = -1
        best_ratio = np.inf
        for r in range(n_rows):
            if col[r] > _PIVOT_TOL:
                ratio = tab[r, -1] / col[r]
                if ratio < best_ratio - _PIVOT_TOL or (
                        abs(ratio - best_ratio) <= _PIVOT_TOL
                        and (leaving < 0 or basis[r] < basis[leaving])):
                    best_ratio = ratio
                    leaving = r
        if leaving < 0:
            raise LpUnbounded("objective unbounded above")
        _pivot(tab, basis, leaving, entering)
    raise LpError("simplex iteration cap exceeded")


def _dual_iterate(tab: np.ndarray, basis: list[int], cost: np.ndarray,
                  allowed: np.ndarray) -> bool:
    """Dual simplex from a dual-feasible basis until the rhs is nonnegative.

    Smallest-index rule: the leaving row is the infeasible row with the
    smallest basic index, the entering column the minimum ratio with ties
    to the smallest index. Returns False when the leaving row has no
    entering column (the LP is infeasible, or the basis numerically lost).
    """
    for _ in range(_MAX_ITER):
        infeasible = np.flatnonzero(tab[:, -1] < -_PIVOT_TOL)
        if not infeasible.size:
            return True
        row = min(infeasible, key=basis.__getitem__)
        entries = tab[row, :-1]
        candidates = np.flatnonzero(allowed & (entries < -_PIVOT_TOL))
        if not candidates.size:
            return False
        reduced = cost[candidates] - cost[basis] @ tab[:, candidates]
        ratios = reduced / entries[candidates]
        entering = int(candidates[np.argmax(ratios <= ratios.min() + _PIVOT_TOL)])
        _pivot(tab, basis, row, entering)
    raise LpError("dual simplex iteration cap exceeded")


def _warm_start(tab0: np.ndarray, cost: np.ndarray, allowed: np.ndarray,
                hint, n: int):
    """Optimal tableau and basis reached from the hinted basis, or None
    where the cold path must run instead. `tab0` is the initial tableau
    [A | I | b]; it is left unchanged."""
    rows = tab0.shape[0]
    if not rows or len(hint) != rows or not all(-rows <= j < n for j in hint):
        return None
    basis = [j if j >= 0 else n - 1 - j for j in hint]
    if len(set(basis)) != rows or not allowed[basis].all():
        return None
    try:
        tab = np.linalg.inv(tab0[:, basis]) @ tab0
    except np.linalg.LinAlgError:
        return None
    eye = np.eye(rows)
    if np.abs(tab[:, basis] - eye).max() > 1e-9:  # B too ill-conditioned to trust
        return None
    tab[:, basis] = eye
    try:
        if tab[:, -1].min() < -_PIVOT_TOL:
            reduced = cost - cost[basis] @ tab[:, :-1]
            if reduced[allowed].max() > _COST_TOL:
                return None
            if not _dual_iterate(tab, basis, cost, allowed):
                return None
        _iterate(tab, basis, cost, allowed)
    except LpError:
        return None
    return tab, basis


def _result(c: np.ndarray, tab: np.ndarray, basis: list[int], a_orig: np.ndarray,
            cost2: np.ndarray, mu: int) -> LpResult:
    """x, value and duals read off an optimal tableau and its basis."""
    n = c.size
    x_full = np.zeros(a_orig.shape[1])
    for r, b_idx in enumerate(basis):
        x_full[b_idx] = tab[r, -1]
    x = x_full[:n]

    # Duals from the final basis: solve B^T y = c_B on the original columns.
    b_mat = a_orig[:, basis]
    c_b = cost2[basis]
    try:
        y = np.linalg.solve(b_mat.T, c_b)
    except np.linalg.LinAlgError:
        y, *_ = np.linalg.lstsq(b_mat.T, c_b, rcond=None)
    return LpResult(x=x, value=float(c @ x), dual_ub=y[:mu], dual_eq=y[mu:],
                    basis=tuple(b if b < n else n - 1 - b for b in basis))


def maximize(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None,
             basis=None) -> LpResult:
    """Solve max c.x with a_ub.x <= b_ub, a_eq.x = b_eq, x >= 0.

    Requires b_ub >= 0 and b_eq >= 0 (all callers in this package satisfy
    this by construction). Raises LpInfeasible / LpUnbounded accordingly.
    `basis` is an optional hint in the form of `LpResult.basis`, usually
    from an earlier solve of the same rows.
    """
    hint = basis  # the name `basis` is the cold path's working basis below
    c = np.asarray(c, dtype=float)
    n = c.size
    a_ub = np.zeros((0, n)) if a_ub is None else np.asarray(a_ub, dtype=float)
    b_ub = np.zeros(0) if b_ub is None else np.asarray(b_ub, dtype=float)
    a_eq = np.zeros((0, n)) if a_eq is None else np.asarray(a_eq, dtype=float)
    b_eq = np.zeros(0) if b_eq is None else np.asarray(b_eq, dtype=float)
    if b_ub.size and b_ub.min() < -_PIVOT_TOL:
        raise ValueError("negative upper-bound rhs not supported")
    if b_eq.size and b_eq.min() < -_PIVOT_TOL:
        raise ValueError("negative equality rhs not supported")

    mu, me = a_ub.shape[0], a_eq.shape[0]
    n_total = n + mu + me
    rows = mu + me
    tab = np.zeros((rows, n_total + 1))
    tab[:mu, :n] = a_ub
    tab[mu:, :n] = a_eq
    tab[:mu, n:n + mu] = np.eye(mu)
    tab[mu:, n + mu:n_total] = np.eye(me)
    tab[:mu, -1] = np.maximum(b_ub, 0.0)
    tab[mu:, -1] = np.maximum(b_eq, 0.0)
    basis = [n + i for i in range(mu)] + [n + mu + k for k in range(me)]

    artificial = np.zeros(n_total, dtype=bool)
    artificial[n + mu:] = True

    if hint is not None:
        cost2 = np.concatenate([c, np.zeros(mu + me)])
        warm = _warm_start(tab, cost2, ~artificial, hint, n)
        if warm is not None:
            return _result(c, *warm, tab[:, :-1], cost2, mu)

    if me:
        cost1 = np.where(artificial, -1.0, 0.0)
        allowed = np.ones(n_total, dtype=bool)
        _iterate(tab, basis, cost1, allowed)
        if cost1[basis] @ tab[:, -1] < -1e-7:
            raise LpInfeasible("equality system infeasible")
        # Drive leftover artificials out of the basis where possible;
        # all-zero rows are redundant constraints and stay inert.
        for r in range(rows):
            if artificial[basis[r]]:
                for j in range(n + mu):
                    if abs(tab[r, j]) > _PIVOT_TOL:
                        _pivot(tab, basis, r, j)
                        break

    cost2 = np.concatenate([c, np.zeros(mu + me)])
    _iterate(tab, basis, cost2, ~artificial)

    a_orig = np.zeros((rows, n_total))
    a_orig[:mu, :n] = a_ub
    a_orig[mu:, :n] = a_eq
    a_orig[:mu, n:n + mu] = np.eye(mu)
    a_orig[mu:, n + mu:] = np.eye(me)
    return _result(c, tab, basis, a_orig, cost2, mu)

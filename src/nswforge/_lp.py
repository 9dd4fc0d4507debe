"""Dense two-phase simplex for the small LPs used across the package.

Maximizes c.x subject to a_ub.x <= b_ub, a_eq.x = b_eq, x >= 0, with all
right-hand sides nonnegative. Bland's rule keeps degenerate instances
(e.g. zero-capacity rows in restricted column LPs) from cycling. Returns
exact basic solutions together with the dual vector of the final basis,
which callers use as optimality certificates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_PIVOT_TOL = 1e-10
_COST_TOL = 1e-9


class LpError(RuntimeError):
    pass


class LpInfeasible(LpError):
    pass


class LpUnbounded(LpError):
    pass


@dataclass(frozen=True)
class LpResult:
    x: np.ndarray
    value: float
    dual_ub: np.ndarray
    dual_eq: np.ndarray


def _pivot(tab: np.ndarray, basis: list[int], row: int, col: int) -> None:
    tab[row] /= tab[row, col]
    factors = tab[:, col].copy()
    factors[row] = 0.0
    tab -= factors[:, None] * tab[row]
    basis[row] = col


def _iterate(tab: np.ndarray, basis: list[int], cost: np.ndarray,
             allowed: np.ndarray, max_iter: int) -> None:
    n_rows = tab.shape[0]
    for _ in range(max_iter):
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


def maximize(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None,
             max_iter: int = 50_000) -> LpResult:
    """Solve max c.x with a_ub.x <= b_ub, a_eq.x = b_eq, x >= 0.

    Requires b_ub >= 0 and b_eq >= 0 (all callers in this package satisfy
    this by construction). Raises LpInfeasible / LpUnbounded accordingly.
    """
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

    if me:
        cost1 = np.where(artificial, -1.0, 0.0)
        allowed = np.ones(n_total, dtype=bool)
        _iterate(tab, basis, cost1, allowed, max_iter)
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
    _iterate(tab, basis, cost2, ~artificial, max_iter)

    x_full = np.zeros(n_total)
    for r, b_idx in enumerate(basis):
        x_full[b_idx] = tab[r, -1]
    x = x_full[:n]

    # Duals from the final basis: solve B^T y = c_B on the original columns.
    a_orig = np.zeros((rows, n_total))
    a_orig[:mu, :n] = a_ub
    a_orig[mu:, :n] = a_eq
    a_orig[:mu, n:n + mu] = np.eye(mu)
    a_orig[mu:, n + mu:] = np.eye(me)
    b_mat = a_orig[:, basis]
    c_b = cost2[basis]
    try:
        y = np.linalg.solve(b_mat.T, c_b)
    except np.linalg.LinAlgError:
        y, *_ = np.linalg.lstsq(b_mat.T, c_b, rcond=None)
    return LpResult(x=x, value=float(c @ x), dual_ub=y[:mu], dual_eq=y[mu:])

"""Dense simplex for the configuration LPs used across the package.

Maximizes c.x subject to a_ub.x <= b_ub, a_eq.x = b_eq, x >= 0, with
nonnegative right-hand sides. In every LP the package builds, each
equality row (an agent's unit mass) has a column that is its unit vector
(the empty set), so those columns and the a_ub slacks form an identity
basis that is feasible as it stands. The simplex starts there, with no
phase 1, and Bland's rule keeps degenerate LPs, such as restricted masters
with zero item masses, from cycling. Callers use the duals of the final
basis as optimality certificates.

A caller that re-solves a similar LP may pass that basis back as a hint.
The tableau is then B^-1 [A | I | b], built in one factorization. A
primal-feasible hint, which covers columns appended since it was taken,
goes straight to the primal simplex. A dual-feasible one, which is what a
change of the right-hand side typically leaves, first runs a dual simplex
(Lemke 1954) with the smallest-index rule. Every other hint falls back to
the identity start: one that does not fit the LP's rows and columns, a
singular or ill-conditioned B, a basis neither primal- nor dual-feasible,
a dual simplex that finds no entering column, or an iteration cap.

A hinted solve that makes no pivot keeps B^-1 and its initial tableau in
the result. `resolve` re-solves those rows and that hint at a new
right-hand side with the one product B^-1 [A | I | b] and the cached duals
(they depend only on B and the columns), bit-identical to `maximize`, or
returns None where B^-1 b is infeasible and the dual simplex must run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_PIVOT_TOL = 1e-10
_COST_TOL = 1e-9
_MAX_ITER = 50_000  # pivots per simplex run before LpError


class LpError(RuntimeError):
    """An unbounded objective, or an iteration cap reached."""


@dataclass(frozen=True)
class LpResult:
    """Optimum with its duals and final basis.

    `basis` names one variable per constraint row, a_ub rows first: j >= 0
    is column j of c, and -1 - r is the slack of a_ub row r. Slacks are
    numbered by row, not by position after the columns, so the basis stays
    a valid hint when columns are appended. `factor` holds (B^-1, initial
    tableau, c) after a hinted solve that made no pivot, for `resolve`.
    """

    x: np.ndarray
    value: float
    dual_ub: np.ndarray
    dual_eq: np.ndarray
    basis: tuple[int, ...]
    factor: tuple | None = field(default=None, repr=False, compare=False)


def _pivot(tab: np.ndarray, basis: list[int], row: int, col: int) -> None:
    tab[row] /= tab[row, col]
    factors = tab[:, col].copy()
    factors[row] = 0.0
    tab -= factors[:, None] * tab[row]
    basis[row] = col


def _iterate(tab: np.ndarray, basis: list[int], cost: np.ndarray) -> int:
    """Primal simplex to optimality; returns the number of pivots."""
    for pivots in range(_MAX_ITER):
        reduced = cost - cost[basis] @ tab[:, :-1]
        eligible = reduced > _COST_TOL
        entering = int(eligible.argmax())  # Bland: smallest eligible index
        if not eligible[entering]:
            return pivots
        col = tab[:, entering]
        leaving = -1
        best_ratio = np.inf
        for r in range(tab.shape[0]):
            if col[r] > _PIVOT_TOL:
                ratio = tab[r, -1] / col[r]
                if ratio < best_ratio - _PIVOT_TOL or (
                        abs(ratio - best_ratio) <= _PIVOT_TOL
                        and (leaving < 0 or basis[r] < basis[leaving])):
                    best_ratio = ratio
                    leaving = r
        if leaving < 0:
            raise LpError("objective unbounded above")
        _pivot(tab, basis, leaving, entering)
    raise LpError("simplex iteration cap exceeded")


def _dual_iterate(tab: np.ndarray, basis: list[int], cost: np.ndarray) -> bool:
    """Dual simplex from a dual-feasible basis until the rhs is nonnegative.

    Smallest-index rule: the leaving row is the infeasible row with the
    smallest basic index, the entering column the minimum ratio with ties
    to the smallest index. Returns False when the basis is not
    dual-feasible, or when the leaving row has no entering column (the LP
    is infeasible, or the basis numerically lost).
    """
    if (cost - cost[basis] @ tab[:, :-1]).max() > _COST_TOL:
        return False
    for _ in range(_MAX_ITER):
        infeasible = np.flatnonzero(tab[:, -1] < -_PIVOT_TOL)
        if not infeasible.size:
            return True
        row = min(infeasible, key=basis.__getitem__)
        entries = tab[row, :-1]
        candidates = np.flatnonzero(entries < -_PIVOT_TOL)
        if not candidates.size:
            return False
        reduced = cost[candidates] - cost[basis] @ tab[:, candidates]
        ratios = reduced / entries[candidates]
        entering = int(candidates[np.argmax(ratios <= ratios.min() + _PIVOT_TOL)])
        _pivot(tab, basis, row, entering)
    raise LpError("dual simplex iteration cap exceeded")


def _warm_start(tab0: np.ndarray, c: np.ndarray, cost: np.ndarray, hint):
    """Optimal tableau and basis reached from the hinted basis, with the
    `LpResult.factor` where that took no pivot; or None where the identity
    start must run. The initial tableau `tab0` stays."""
    n = c.size
    rows, mu = tab0.shape[0], tab0.shape[1] - 1 - n
    if not rows or len(hint) != rows or not all(-mu <= j < n for j in hint):
        return None
    basis = [j if j >= 0 else n - 1 - j for j in hint]
    if len(set(basis)) != rows:
        return None
    try:
        inv_b = np.linalg.inv(tab0[:, basis])
    except np.linalg.LinAlgError:
        return None
    tab = inv_b @ tab0
    eye = np.eye(rows)
    if np.abs(tab[:, basis] - eye).max() > 1e-9:  # B too ill-conditioned to trust
        return None
    tab[:, basis] = eye
    try:
        dual = tab[:, -1].min() < -_PIVOT_TOL
        if dual and not _dual_iterate(tab, basis, cost):
            return None
        pivots = _iterate(tab, basis, cost)
    except LpError:
        return None
    return tab, basis, None if dual or pivots else (inv_b, tab0, c)


def _result(c: np.ndarray, a_ub: np.ndarray, a_eq: np.ndarray, cost: np.ndarray,
            tab: np.ndarray, basis: list[int], factor=None) -> LpResult:
    """x, value and duals read off an optimal tableau and its basis."""
    n, mu = c.size, a_ub.shape[0]
    idx = np.array(basis, dtype=int)
    structural = idx < n
    x = np.zeros(n)
    x[idx[structural]] = tab[structural, -1]

    # Duals from the final basis: solve B^T y = c_B on the original columns.
    b_mat = np.eye(idx.size)[:, np.maximum(idx - n, 0)]
    b_mat[:mu, structural] = a_ub[:, idx[structural]]
    b_mat[mu:, structural] = a_eq[:, idx[structural]]
    c_b = cost[idx]
    try:
        y = np.linalg.solve(b_mat.T, c_b)
    except np.linalg.LinAlgError:
        y, *_ = np.linalg.lstsq(b_mat.T, c_b, rcond=None)
    return LpResult(x=x, value=float(c @ x), dual_ub=y[:mu], dual_eq=y[mu:],
                    basis=tuple(b if b < n else n - 1 - b for b in basis),
                    factor=factor)


def _rhs(b_ub: np.ndarray, b_eq: np.ndarray) -> np.ndarray:
    rhs = np.concatenate([b_ub, b_eq])
    if rhs.size and rhs.min() < -_PIVOT_TOL:
        raise ValueError("negative rhs not supported")
    return np.maximum(rhs, 0.0)


def maximize(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None,
             basis=None) -> LpResult:
    """Solve max c.x with a_ub.x <= b_ub, a_eq.x = b_eq, x >= 0.

    Requires b_ub >= 0, b_eq >= 0 and, where the identity start runs, a
    unit column for every equality row (every caller in this package meets
    both by construction); raises ValueError otherwise. `basis` is an
    optional hint in the form of `LpResult.basis`, usually from an earlier
    solve of the same rows.
    """
    c = np.asarray(c, dtype=float)
    n = c.size
    a_ub = np.zeros((0, n)) if a_ub is None else np.asarray(a_ub, dtype=float)
    b_ub = np.zeros(0) if b_ub is None else np.asarray(b_ub, dtype=float)
    a_eq = np.zeros((0, n)) if a_eq is None else np.asarray(a_eq, dtype=float)
    b_eq = np.zeros(0) if b_eq is None else np.asarray(b_eq, dtype=float)
    rhs = _rhs(b_ub, b_eq)

    mu = a_ub.shape[0]
    tab = np.zeros((rhs.size, n + mu + 1))
    tab[:mu, :n] = a_ub
    tab[mu:, :n] = a_eq
    tab[:mu, n:-1] = np.eye(mu)
    tab[:, -1] = rhs
    cost = np.concatenate([c, np.zeros(mu)])

    if basis is not None:
        warm = _warm_start(tab, c, cost, basis)
        if warm is not None:
            return _result(c, a_ub, a_eq, cost, *warm)
    single = np.count_nonzero(tab[:, :n], axis=0) == 1
    start = list(range(n, n + mu))
    for r in range(mu, tab.shape[0]):
        units = np.flatnonzero(single & (tab[r, :n] == 1.0))
        if not units.size:
            raise ValueError(f"equality row {r - mu} has no unit column")
        start.append(int(units[0]))  # the tableau already has B = I
    _iterate(tab, start, cost)
    return _result(c, a_ub, a_eq, cost, tab, start)


def resolve(res: LpResult, b_ub, b_eq) -> LpResult | None:
    """`res` re-solved at a new right-hand side from its `factor`: the
    same result as `maximize` on res's rows with res.basis as the hint.
    None where res holds no factor or the basis leaves primal feasibility."""
    if res.factor is None:
        return None
    inv_b, tab, c = res.factor
    tab = tab.copy()
    tab[:, -1] = _rhs(np.asarray(b_ub, dtype=float), np.asarray(b_eq, dtype=float))
    x_b = (inv_b @ tab)[:, -1]  # the whole product, as in _warm_start, for its bits
    if x_b.min() < -_PIVOT_TOL:
        return None
    idx = np.array(res.basis)
    x = np.zeros(c.size)
    x[idx[idx >= 0]] = x_b[idx >= 0]
    return LpResult(x, float(c @ x), res.dual_ub, res.dual_eq, res.basis, res.factor)

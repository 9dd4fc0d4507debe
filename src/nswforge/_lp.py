"""Dense simplex for the configuration LPs used across the package.

Maximizes c.x subject to a_ub.x <= b_ub, a_eq.x = b_eq, x >= 0, with
nonnegative right-hand sides. In every LP the package builds, each
equality row (an agent's unit mass) has a column that is its unit vector
(the empty set), so those columns and the a_ub slacks form an identity
basis that is feasible as it stands. The simplex starts there, with no
phase 1, and Bland's rule keeps degenerate LPs, such as restricted masters
with zero item masses, from cycling. Callers use the duals of the final
basis as optimality certificates.

Every solve runs one routine: the primal simplex from a starting basis B
on the tableau B^-1 [A | I | b]. Without a `warm` result the start is that
identity basis, where the initial tableau already is B^-1 [A | I | b].
Column generation re-solves its restricted master at the same right-hand
side after each column joins, so it passes its last result as `warm`: the
solve starts from that basis, factorized once, which the appended columns
leave primal-feasible. Every other warm basis falls back to the identity
start: one that does not fit the LP's rows and columns, a singular or
ill-conditioned B, a basis that is not primal-feasible at the given
right-hand side, or an iteration cap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_PIVOT_TOL = 1e-10
_COST_TOL = 1e-9
_MAX_ITER = 50_000  # pivots per simplex run before LpError


class LpError(RuntimeError):
    """An unbounded objective, or an iteration cap reached (`capped`)."""

    def __init__(self, message: str, capped: bool = False):
        super().__init__(message)
        self.capped = capped


@dataclass(frozen=True)
class LpResult:
    """Optimum with its duals and final basis.

    `basis` names one variable per constraint row, a_ub rows first: j >= 0
    is column j of c, and -1 - r is the slack of a_ub row r. Slacks are
    numbered by row, not by position after the columns, so the basis stays
    valid as a warm start when columns are appended.
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


def _iterate(tab: np.ndarray, basis: list[int], cost: np.ndarray) -> None:
    """Primal simplex to optimality."""
    for _ in range(_MAX_ITER):
        reduced = cost - cost[basis] @ tab[:, :-1]
        eligible = reduced > _COST_TOL
        entering = int(eligible.argmax())  # Bland: smallest eligible index
        if not eligible[entering]:
            return
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
    raise LpError("simplex iteration cap exceeded", capped=True)


def _simplex(tab0: np.ndarray, cost: np.ndarray, n: int, hint, tab=None):
    """Optimal tableau and basis reached from the basis `hint` (in the form
    of `LpResult.basis`). tab is B^-1 tab0 where already known: the
    identity start passes tab0 itself, which the solve then overwrites;
    any other tab0 stays. Returns None where the basis does not fit the
    tableau, B is singular or too ill-conditioned to trust, or the basis
    is not primal-feasible; raises LpError on an unbounded objective or an
    iteration cap."""
    rows, mu = tab0.shape[0], tab0.shape[1] - 1 - n
    basis = [j if j >= 0 else n - 1 - j for j in hint]
    if len(basis) != rows or len(set(basis)) != rows or not all(-mu <= j < n for j in hint):
        return None
    if tab is None:
        try:
            tab = np.linalg.inv(tab0[:, basis]) @ tab0
        except np.linalg.LinAlgError:
            return None
    eye = np.eye(rows)
    if (np.abs(tab[:, basis] - eye).max(initial=0.0) > 1e-9
            or tab[:, -1].min(initial=0.0) < -_PIVOT_TOL):
        return None
    tab[:, basis] = eye
    _iterate(tab, basis, cost)
    return tab, basis


def _result(c: np.ndarray, a_ub: np.ndarray, a_eq: np.ndarray, cost: np.ndarray,
            tab: np.ndarray, basis: list[int]) -> LpResult:
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
                    basis=tuple(b if b < n else n - 1 - b for b in basis))


def _rhs(b_ub: np.ndarray, b_eq: np.ndarray) -> np.ndarray:
    rhs = np.concatenate([b_ub, b_eq])
    if rhs.size and rhs.min() < -_PIVOT_TOL:
        raise ValueError("negative rhs not supported")
    return np.maximum(rhs, 0.0)


def maximize(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None,
             warm: LpResult | None = None) -> LpResult:
    """Solve max c.x with a_ub.x <= b_ub, a_eq.x = b_eq, x >= 0.

    Requires b_ub >= 0, b_eq >= 0 and, where the identity start runs, a
    unit column for every equality row (every caller in this package meets
    both by construction); raises ValueError otherwise. `warm` is an
    optional earlier result on the same rows whose columns are a prefix
    of c's; the solve starts from its basis where that is primal-feasible.
    """
    c = np.asarray(c, dtype=float)
    n = c.size
    b_ub = np.zeros(0) if b_ub is None else np.asarray(b_ub, dtype=float)
    b_eq = np.zeros(0) if b_eq is None else np.asarray(b_eq, dtype=float)
    rhs = _rhs(b_ub, b_eq)
    mu = b_ub.size
    a_ub = np.zeros((0, n)) if a_ub is None else np.asarray(a_ub, dtype=float)
    a_eq = np.zeros((0, n)) if a_eq is None else np.asarray(a_eq, dtype=float)
    cost = np.concatenate([c, np.zeros(mu)])
    tab0 = np.zeros((rhs.size, n + mu + 1))
    tab0[:mu, :n] = a_ub
    tab0[mu:, :n] = a_eq
    tab0[:mu, n:-1] = np.eye(mu)
    tab0[:, -1] = rhs

    if warm is not None:
        try:
            out = _simplex(tab0, cost, n, warm.basis)
        except LpError:
            out = None
        if out is not None:
            return _result(c, a_ub, a_eq, cost, *out)
    single = np.count_nonzero(tab0[:, :n], axis=0) == 1
    hint = list(range(-1, -1 - mu, -1))  # the slacks, then a unit column per equality row
    for r in range(mu, rhs.size):
        units = np.flatnonzero(single & (tab0[r, :n] == 1.0))
        if not units.size:
            raise ValueError(f"equality row {r - mu} has no unit column")
        hint.append(int(units[0]))
    # B = I: the initial tableau is its own B^-1 tab0
    return _result(c, a_ub, a_eq, cost, *_simplex(tab0, cost, n, hint, tab0))

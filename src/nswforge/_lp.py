"""Dense simplex for the configuration LPs used across the package.

Maximizes c.x subject to a_ub.x <= b_ub, a_eq.x = b_eq, x >= 0, with
nonnegative right-hand sides. In every LP the package builds, each
equality row (an agent's unit mass) has a column that is its unit vector
(the empty set), so those columns and the a_ub slacks form an identity
basis that is feasible as it stands. Every solve starts there, cold: the
initial tableau [A | I | b] is its own B^-1 [A | I | b], so there is no
phase 1 and no factorization, and the primal simplex runs on it to
optimality. It prices by Dantzig's largest reduced cost and breaks ties
in the ratio test lexicographically on B^-1, which keeps degenerate LPs,
such as restricted masters with zero item masses, from cycling. B^-1 is
the tableau's columns of the starting basis, and the duals of the final
basis, c_B^T B^-1, are read off those same columns; callers use them as
optimality certificates. The pivot cap raises `CapExceeded` and an
unbounded objective `InvariantViolation`, the package's two typed failures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import InvariantViolation
from .valuations import CapExceeded

_PIVOT_TOL = 1e-10
_COST_TOL = 1e-9
_MAX_ITER = 50_000  # pivots per simplex run before CapExceeded


@dataclass(frozen=True)
class LpResult:
    """Optimum x with its value, and the duals of the final basis,
    c_B^T B^-1 split into the a_ub rows' and the a_eq rows'. B^-1 is read
    off the tableau's columns of the starting basis, the columns the ratio
    test reads."""

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


def _iterate(tab: np.ndarray, basis: list[int], cost: np.ndarray) -> None:
    """Primal simplex to optimality: Dantzig's largest-coefficient pricing
    with the lexicographic ratio test (Dantzig, Orden and Wolfe 1955).

    The leaving row minimizes, lexicographically, its rhs and then its row
    of B^-1, each divided by its entry in the entering column. The starting
    basis is the identity, so B^-1 is the tableau's columns of the starting
    basis, in row order. Its rows are linearly independent, so the minimum
    is unique and no basis repeats. Later keys are read only while rows tie
    within _PIVOT_TOL.
    """
    keys = [-1, *basis]  # the rhs column, then B^-1's
    for _ in range(_MAX_ITER):
        reduced = cost - cost[basis] @ tab[:, :-1]
        entering = int(reduced.argmax())
        if reduced[entering] <= _COST_TOL:
            return
        col = tab[:, entering]
        rows = np.flatnonzero(col > _PIVOT_TOL)
        if not rows.size:
            raise InvariantViolation("objective unbounded above")
        for key in keys:
            if rows.size == 1:
                break
            ratios = tab[rows, key] / col[rows]
            rows = rows[ratios <= ratios.min() + _PIVOT_TOL]
        _pivot(tab, basis, int(rows[0]), entering)
    raise CapExceeded("simplex iteration cap exceeded")


def maximize(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None) -> LpResult:
    """Solve max c.x with a_ub.x <= b_ub, a_eq.x = b_eq, x >= 0, from the
    identity basis.

    Requires b_ub >= 0, b_eq >= 0 and a unit column for every equality
    row (every caller in this package meets both by construction); raises
    ValueError otherwise, `InvariantViolation` on an unbounded objective
    and `CapExceeded` at the iteration cap.
    """
    c = np.asarray(c, dtype=float)
    n = c.size
    b_ub = np.zeros(0) if b_ub is None else np.asarray(b_ub, dtype=float)
    b_eq = np.zeros(0) if b_eq is None else np.asarray(b_eq, dtype=float)
    rhs = np.concatenate([b_ub, b_eq])
    if rhs.size and rhs.min() < -_PIVOT_TOL:
        raise ValueError("negative rhs not supported")
    mu = b_ub.size
    a_ub = np.zeros((0, n)) if a_ub is None else np.asarray(a_ub, dtype=float)
    a_eq = np.zeros((0, n)) if a_eq is None else np.asarray(a_eq, dtype=float)
    cost = np.concatenate([c, np.zeros(mu)])
    tab = np.zeros((rhs.size, n + mu + 1))
    tab[:mu, :n] = a_ub
    tab[mu:, :n] = a_eq
    tab[:mu, n:-1] = np.eye(mu)
    tab[:, -1] = np.maximum(rhs, 0.0)

    single = np.count_nonzero(tab[:, :n], axis=0) == 1
    basis = list(range(n, n + mu))  # the slacks, then a unit column per equality row
    for r in range(mu, rhs.size):
        units = np.flatnonzero(single & (tab[r, :n] == 1.0))
        if not units.size:
            raise ValueError(f"equality row {r - mu} has no unit column")
        basis.append(int(units[0]))
    start = basis.copy()
    _iterate(tab, basis, cost)
    idx = np.array(basis, dtype=int)
    structural = idx < n
    x = np.zeros(n)
    x[idx[structural]] = tab[structural, -1]
    duals = cost[idx] @ tab[:, start]
    return LpResult(x=x, value=float(c @ x), dual_ub=duals[:mu], dual_eq=duals[mu:])

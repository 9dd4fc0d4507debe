"""The in-house simplex, which starts every solve from the identity basis,
against scipy's HiGHS as an independent oracle and against its own duality
certificate."""

import dataclasses

import numpy as np
import pytest
from scipy.optimize import linprog

from nswforge import _lp
from nswforge._lp import maximize
from nswforge.generators import GenSpec, generate
from nswforge.valuations import Additive


def random_feasible_lp(rng, n=6, mu=4, me=2):
    x0 = rng.uniform(0, 1, n)
    c = rng.uniform(-1, 2, n)
    a_ub = rng.uniform(-1, 1, (mu, n))
    b_ub = np.maximum(a_ub @ x0, 0.0) + rng.uniform(0.1, 1.0, mu)
    a_eq = rng.uniform(0, 1, (me, n))
    b_eq = a_eq @ x0
    # bounding box keeps the maximization finite
    a_ub = np.vstack([a_ub, np.ones(n)])
    b_ub = np.append(b_ub, x0.sum() + 10.0)
    # a zero-cost unit column per equality row, like a configuration LP's
    # empty set: the simplex starts from these and the slacks
    return (np.append(c, np.zeros(me)), np.hstack([a_ub, np.zeros((mu + 1, me))]),
            b_ub, np.hstack([a_eq, np.eye(me)]), b_eq)


@pytest.mark.parametrize("trial", range(40))
def test_matches_scipy_on_random_instances(trial):
    rng = np.random.default_rng(1000 + trial)
    c, a_ub, b_ub, a_eq, b_eq = random_feasible_lp(rng)
    res = maximize(c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq)
    ref = linprog(-c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                  bounds=(0, None), method="highs")
    assert ref.status == 0
    assert res.value == pytest.approx(-ref.fun, abs=1e-7)
    # primal feasibility
    assert (a_ub @ res.x <= b_ub + 1e-8).all()
    assert a_eq @ res.x == pytest.approx(b_eq, abs=1e-8)
    assert res.x.min() >= -1e-12


@pytest.mark.parametrize("trial", range(20))
def test_duals_are_certificates(trial):
    rng = np.random.default_rng(2000 + trial)
    c, a_ub, b_ub, a_eq, b_eq = random_feasible_lp(rng)
    res = maximize(c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq)
    # dual feasibility: y_ub >= 0 and reduced costs nonpositive
    assert res.dual_ub.min() >= -1e-8
    reduced = c - res.dual_ub @ a_ub - res.dual_eq @ a_eq
    assert reduced.max() <= 1e-8
    # strong duality
    dual_value = res.dual_ub @ b_ub + res.dual_eq @ b_eq
    assert dual_value == pytest.approx(res.value, abs=1e-7)


def test_duals_come_off_the_final_tableau(monkeypatch):
    # no linear solve stands behind the duals: they are read off the
    # tableau's columns of the starting basis, and the result is a plain
    # dataclass that `dataclasses.replace` copies
    def no_solve(*args, **kwargs):
        raise np.linalg.LinAlgError("the duals called a linear solver")

    monkeypatch.setattr(np.linalg, "solve", no_solve)
    monkeypatch.setattr(np.linalg, "lstsq", no_solve)
    for trial in range(5):
        rng = np.random.default_rng(2000 + trial)
        c, a_ub, b_ub, a_eq, b_eq = random_feasible_lp(rng)
        res = maximize(c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq)
        assert_certified(res, c, a_ub, b_ub, a_eq, b_eq, tol=1e-8)
        moved = dataclasses.replace(res, x=np.zeros_like(res.x))
        assert not moved.x.any() and moved.dual_ub is res.dual_ub
        assert moved.dual_eq is res.dual_eq and moved.value == res.value


def test_degenerate_zero_capacity_rows():
    # max z1 + z2 with z1 <= 0 forces all mass on z2
    res = maximize(np.array([1.0, 1.0]),
                   a_ub=np.array([[1.0, 0.0]]), b_ub=np.array([0.0]),
                   a_eq=np.array([[1.0, 1.0]]), b_eq=np.array([1.0]))
    assert res.value == pytest.approx(1.0)
    assert res.x[0] == pytest.approx(0.0, abs=1e-12)


def test_equality_row_without_unit_column_raises():
    # column 0 is not a unit vector (it uses the a_ub row), so no identity
    # basis exists for the equality row
    with pytest.raises(ValueError, match="equality row 0 has no unit column"):
        maximize(np.array([1.0, 1.0]),
                 a_ub=np.array([[1.0, 1.0]]), b_ub=np.array([0.3]),
                 a_eq=np.array([[1.0, 1.0]]), b_eq=np.array([1.0]))


def test_beale_cycling_example_terminates():
    # Beale (1955): Dantzig's largest-coefficient rule with ties in the
    # ratio test broken by smallest row cycles here forever; the
    # lexicographic tie-break must reach the optimum 1/20.
    c = np.array([0.75, -150.0, 0.02, -6.0])
    a_ub = np.array([[0.25, -60.0, -0.04, 9.0],
                     [0.5, -90.0, -0.02, 3.0],
                     [0.0, 0.0, 1.0, 0.0]])
    res = maximize(c, a_ub=a_ub, b_ub=np.array([0.0, 0.0, 1.0]))
    assert res.value == pytest.approx(0.05, abs=1e-12)
    assert res.x == pytest.approx([0.04, 0.0, 1.0, 0.0], abs=1e-12)


def configuration_lp(valuations, m):
    """Welfare configuration LP: one column per (agent, subset), unit mass
    per agent, unit capacity per item."""
    n = len(valuations)
    masks = np.arange(1 << m)
    contains = ((masks[:, None] >> np.arange(m)) & 1).astype(bool)
    c = np.concatenate([v.value_rows(contains) for v in valuations])
    a_ub = np.tile(contains.T.astype(float), (1, n))
    a_eq = np.kron(np.eye(n), np.ones(1 << m))
    return c, a_ub, np.ones(m), a_eq, np.ones(n)


def xos_configuration_lp(seed, n=3, m=8):
    return configuration_lp(generate(GenSpec("xos", n=n, m=m, seed=seed)).valuations, m)


def count_pivots(monkeypatch):
    """Record every pivot `_lp` makes from now on."""
    pivots = []
    pivot = _lp._pivot

    def counted(tab, basis, row, col):
        pivots.append((row, col))
        pivot(tab, basis, row, col)

    monkeypatch.setattr(_lp, "_pivot", counted)
    return pivots


@pytest.mark.parametrize("seed", range(5))
def test_matches_scipy_on_configuration_lps(seed, monkeypatch):
    # 768 columns: the entering-column pick scans long reduced-cost vectors.
    # Largest-coefficient pricing reaches the optimum in 25-45 pivots here
    # (Bland's smallest-index rule took 74-259).
    pivots = count_pivots(monkeypatch)
    c, a_ub, b_ub, a_eq, b_eq = xos_configuration_lp(seed)
    res = maximize(c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq)
    ref = linprog(-c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                  bounds=(0, None), method="highs")
    assert ref.status == 0
    assert res.value == pytest.approx(-ref.fun, abs=1e-7)
    assert (a_ub @ res.x <= b_ub + 1e-8).all()
    assert a_eq @ res.x == pytest.approx(b_eq, abs=1e-8)
    assert res.x.min() >= -1e-12
    assert len(pivots) <= 60


def assert_certified(res, c, a_ub, b_ub, a_eq, b_eq, tol=1e-9):
    """Primal feasibility, dual feasibility and strong duality."""
    assert res.x.min() >= -tol
    assert (a_ub @ res.x <= b_ub + tol).all()
    assert a_eq @ res.x == pytest.approx(b_eq, abs=tol)
    assert res.dual_ub.min() >= -tol
    assert (c - res.dual_ub @ a_ub - res.dual_eq @ a_eq).max() <= tol
    assert res.dual_ub @ b_ub + res.dual_eq @ b_eq == pytest.approx(res.value, abs=tol)


def restricted_master_lp(rng, m=6, k=14):
    """An LP shaped like a concave extension's restricted master: 0/1
    columns over m items (the empty set first, then the singletons), item
    masses as capacities, unit total mass."""
    incidence = (rng.uniform(size=(m, k)) < 0.4).astype(float)
    incidence[:, :m + 1] = np.eye(m, m + 1, 1)
    c = incidence.sum(axis=0) * rng.uniform(0.5, 1.0, k)
    return c, incidence, rng.uniform(0, 1, m), np.ones((1, k)), np.ones(1)


def test_restricted_masters_are_certified_vertices():
    # the shapes `concave_ext` and `vertex_columns` solve, some degenerate
    # with item masses at zero: optimal, certified, and a vertex with at
    # most one positive column per row
    zero_masses = 0
    for trial in range(30):
        rng = np.random.default_rng(3000 + trial)
        c, a_ub, b_ub, a_eq, b_eq = restricted_master_lp(rng, k=16)
        b_ub = np.clip(b_ub + rng.normal(0, 0.15, b_ub.size), 0, 1)
        zero_masses += int((b_ub == 0).sum())
        res = maximize(c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq)
        assert_certified(res, c, a_ub, b_ub, a_eq, b_eq)
        ref = linprog(-c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                      bounds=(0, None), method="highs")
        assert res.value == pytest.approx(-ref.fun, abs=1e-9)
        assert np.count_nonzero(res.x > 1e-12) <= b_ub.size + 1
    assert zero_masses >= 5


def test_all_tied_configuration_lp(monkeypatch):
    # Three identical additive agents with equal weights: every set of a
    # given size prices alike, and six of the seven pivots break a tie in
    # the ratio test.
    pivots = count_pivots(monkeypatch)
    c, a_ub, b_ub, a_eq, b_eq = configuration_lp([Additive(np.ones(6))] * 3, 6)
    res = maximize(c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq)
    assert_certified(res, c, a_ub, b_ub, a_eq, b_eq)
    ref = linprog(-c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                  bounds=(0, None), method="highs")
    assert ref.status == 0
    assert res.value == pytest.approx(-ref.fun, abs=1e-9)
    assert res.value == pytest.approx(6.0, abs=1e-12)
    assert len(pivots) <= 60

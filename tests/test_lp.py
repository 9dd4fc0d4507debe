"""The in-house simplex against scipy's HiGHS as an independent oracle."""

import numpy as np
import pytest
from scipy.optimize import linprog

from nswforge._lp import LpInfeasible, maximize
from nswforge.generators import GenSpec, generate


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
    return c, a_ub, b_ub, a_eq, b_eq


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


def test_degenerate_zero_capacity_rows():
    # max z1 + z2 with z1 <= 0 forces all mass on z2
    res = maximize(np.array([1.0, 1.0]),
                   a_ub=np.array([[1.0, 0.0]]), b_ub=np.array([0.0]),
                   a_eq=np.array([[1.0, 1.0]]), b_eq=np.array([1.0]))
    assert res.value == pytest.approx(1.0)
    assert res.x[0] == pytest.approx(0.0, abs=1e-12)


def test_infeasible_equality_detected():
    with pytest.raises(LpInfeasible):
        maximize(np.array([1.0, 1.0]),
                 a_ub=np.array([[1.0, 1.0]]), b_ub=np.array([0.3]),
                 a_eq=np.array([[1.0, 1.0]]), b_eq=np.array([1.0]))


def test_beale_cycling_example_terminates():
    # Beale (1955): the largest-coefficient rule cycles here forever;
    # Bland's smallest-index rule must reach the optimum 1/20.
    c = np.array([0.75, -150.0, 0.02, -6.0])
    a_ub = np.array([[0.25, -60.0, -0.04, 9.0],
                     [0.5, -90.0, -0.02, 3.0],
                     [0.0, 0.0, 1.0, 0.0]])
    res = maximize(c, a_ub=a_ub, b_ub=np.array([0.0, 0.0, 1.0]))
    assert res.value == pytest.approx(0.05, abs=1e-12)
    assert res.x == pytest.approx([0.04, 0.0, 1.0, 0.0], abs=1e-12)


def xos_configuration_lp(seed, n=3, m=8):
    """Welfare configuration LP of a generated xos instance: one column per
    (agent, subset), unit mass per agent, unit capacity per item."""
    inst = generate(GenSpec("xos", n=n, m=m, seed=seed))
    masks = np.arange(1 << m)
    contains = ((masks[:, None] >> np.arange(m)) & 1).astype(bool)
    c = np.concatenate([v.value_rows(contains) for v in inst.valuations])
    a_ub = np.tile(contains.T.astype(float), (1, n))
    a_eq = np.kron(np.eye(n), np.ones(1 << m))
    return c, a_ub, np.ones(m), a_eq, np.ones(n)


@pytest.mark.parametrize("seed", range(5))
def test_matches_scipy_on_configuration_lps(seed):
    # 768 columns: the entering-column pick scans long reduced-cost vectors
    c, a_ub, b_ub, a_eq, b_eq = xos_configuration_lp(seed)
    res = maximize(c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq)
    ref = linprog(-c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                  bounds=(0, None), method="highs")
    assert ref.status == 0
    assert res.value == pytest.approx(-ref.fun, abs=1e-7)
    assert (a_ub @ res.x <= b_ub + 1e-8).all()
    assert a_eq @ res.x == pytest.approx(b_eq, abs=1e-8)
    assert res.x.min() >= -1e-12

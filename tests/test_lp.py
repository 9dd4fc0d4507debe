"""The in-house simplex against scipy's HiGHS as an independent oracle,
and its warm starts against its own solves from the identity basis."""

import dataclasses
import itertools

import numpy as np
import pytest
from scipy.optimize import linprog

import nswforge._lp as lp_mod
from nswforge._lp import maximize
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


# ---------------------------------------------------------------------------
# warm starts from an earlier result's basis


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


@pytest.fixture
def warm_paths(monkeypatch):
    """Count the warm solves that stayed warm and those that fell back to
    the identity start."""
    seen = {"warm": 0, "identity": 0}
    simplex = lp_mod._simplex

    def spy_simplex(tab0, cost, n, hint, tab=None):
        if tab is tab0:  # the identity start: B = I, its own tableau
            return simplex(tab0, cost, n, hint, tab)
        out = None
        try:
            out = simplex(tab0, cost, n, hint, tab)
            return out
        finally:  # None or LpError: the solve falls back
            seen["warm" if out is not None else "identity"] += 1
    monkeypatch.setattr(lp_mod, "_simplex", spy_simplex)
    return seen


def rhs_change(trial):
    """An LP with a changed rhs that keeps it feasible, and its result at
    the old rhs."""
    rng = np.random.default_rng(3000 + trial)
    if trial % 2:
        c, a_ub, b_ub, a_eq, b_eq = restricted_master_lp(rng)
        new_b = np.clip(b_ub + rng.normal(0, 0.15, b_ub.size), 0, 1)
    else:
        c, a_ub, b_ub, a_eq, b_eq = random_feasible_lp(rng)
        new_b = b_ub * rng.uniform(0.9, 1.3, b_ub.size)  # keeps x0 feasible
    first = maximize(c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq)
    return (c, a_ub, new_b, a_eq, b_eq), first


def check_rhs_change(trial, warm_paths):
    """A warm solve after an rhs change: a basis that stays primal-feasible
    stays warm and is certified, and one the change made infeasible falls
    back to the identity start and equals the cold solve."""
    (c, a_ub, b_ub, a_eq, b_eq), first = rhs_change(trial)
    cold = maximize(c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq)
    fallbacks = warm_paths["identity"]
    warm = maximize(c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq, warm=first)
    if warm_paths["identity"] > fallbacks:
        assert_same_result(warm, cold)
    else:
        assert warm.value == pytest.approx(cold.value, abs=1e-9)
        assert_certified(warm, c, a_ub, b_ub, a_eq, b_eq)


@pytest.mark.parametrize("trial", range(30))
def test_warm_start_after_rhs_change_matches_cold(trial, warm_paths):
    check_rhs_change(trial, warm_paths)
    assert warm_paths["warm"] + warm_paths["identity"] == 1


def test_rhs_changes_stay_warm_or_fall_back_to_identity(warm_paths):
    # some bases stay primal-feasible, the others fall back
    for trial in range(30):
        check_rhs_change(trial, warm_paths)
    assert warm_paths["warm"] >= 5 and warm_paths["identity"] >= 5
    assert warm_paths["warm"] + warm_paths["identity"] == 30


@pytest.mark.parametrize("trial", range(10))
def test_hint_from_before_appended_columns(trial, warm_paths):
    rng = np.random.default_rng(4000 + trial)
    c, a_ub, b_ub, a_eq, b_eq = restricted_master_lp(rng, k=16)
    k0 = 10
    # as in column generation: the rhs stays, new columns join at the end
    first = maximize(c[:k0], a_ub=a_ub[:, :k0], b_ub=b_ub, a_eq=a_eq[:, :k0], b_eq=b_eq)
    cold = maximize(c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq)
    warm = maximize(c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq, warm=first)
    assert warm_paths == {"warm": 1, "identity": 0}
    assert warm.value == pytest.approx(cold.value, abs=1e-9)
    assert_certified(warm, c, a_ub, b_ub, a_eq, b_eq)


def assert_same_result(a, b):
    assert np.array_equal(a.x, b.x)
    assert a.value == b.value
    assert np.array_equal(a.dual_ub, b.dual_ub)
    assert np.array_equal(a.dual_eq, b.dual_eq)
    assert a.basis == b.basis


def neither_feasible_basis(c, a_ub, b_ub, a_eq, b_eq):
    """A basis (as in `LpResult.basis`) that is neither primal- nor
    dual-feasible."""
    n, mu = c.size, a_ub.shape[0]
    rows = mu + a_eq.shape[0]
    a = np.hstack([np.vstack([a_ub, a_eq]), np.eye(rows, mu)])
    cost = np.concatenate([c, np.zeros(mu)])
    b = np.concatenate([b_ub, b_eq])
    for cols in itertools.combinations(range(n + mu), rows):
        basis = np.array(cols)
        if abs(np.linalg.det(a[:, basis])) < 1e-6:
            continue
        tab = np.linalg.solve(a[:, basis], np.hstack([a, b[:, None]]))
        reduced = cost - cost[basis] @ tab[:, :-1]
        if tab[:, -1].min() < -1e-6 and reduced.max() > 1e-6:
            return tuple(int(j) if j < n else n - 1 - int(j) for j in basis)
    raise AssertionError("no such basis")


def test_fallbacks_equal_the_cold_solve(warm_paths):
    rng = np.random.default_rng(5000)
    c, a_ub, b_ub, a_eq, b_eq = random_feasible_lp(rng, n=5, mu=2, me=1)
    cold = maximize(c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq)
    n, mu = c.size, a_ub.shape[0]
    # a duplicated column makes any basis holding both copies singular
    c2, a_ub2, a_eq2 = (np.append(c, c[0]), np.hstack([a_ub, a_ub[:, :1]]),
                        np.hstack([a_eq, a_eq[:, :1]]))
    cold2 = maximize(c2, a_ub=a_ub2, b_ub=b_ub, a_eq=a_eq2, b_eq=b_eq)
    singular = (0, n, -2, -3)
    equality_slack = (-1, -2, -3, -(mu + 1))  # equality rows have no slack
    neither = neither_feasible_basis(c, a_ub, b_ub, a_eq, b_eq)
    wrong_length = cold.basis[:-1]
    out_of_range = (n + 5,) + cold.basis[1:]
    for basis in (equality_slack, neither, wrong_length, out_of_range):
        warm = dataclasses.replace(cold, basis=basis)
        assert_same_result(maximize(c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq,
                                    warm=warm), cold)
    warm = dataclasses.replace(cold2, basis=singular)
    assert_same_result(maximize(c2, a_ub=a_ub2, b_ub=b_ub, a_eq=a_eq2, b_eq=b_eq,
                                warm=warm), cold2)
    assert warm_paths["warm"] == 0 and warm_paths["identity"] == 5


def test_warm_start_reuses_an_optimal_basis(warm_paths):
    rng = np.random.default_rng(5100)
    c, a_ub, b_ub, a_eq, b_eq = random_feasible_lp(rng)
    cold = maximize(c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq)
    again = maximize(c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq, warm=cold)
    assert warm_paths == {"warm": 1, "identity": 0}
    assert again.basis == cold.basis
    assert again.value == pytest.approx(cold.value, abs=1e-12)


def test_beale_cycling_example_terminates_from_warm_hints(warm_paths):
    # from the slack basis and from the optimum at another rhs
    c = np.array([0.75, -150.0, 0.02, -6.0])
    a_ub = np.array([[0.25, -60.0, -0.04, 9.0],
                     [0.5, -90.0, -0.02, 3.0],
                     [0.0, 0.0, 1.0, 0.0]])
    b_ub = np.array([0.0, 0.0, 1.0])
    shifted = maximize(c, a_ub=a_ub, b_ub=np.array([0.3, 0.1, 0.5]))
    for basis in ((-1, -2, -3), shifted.basis):
        warm = dataclasses.replace(shifted, basis=basis)
        res = maximize(c, a_ub=a_ub, b_ub=b_ub, warm=warm)
        assert res.value == pytest.approx(0.05, abs=1e-12)
        assert res.x == pytest.approx([0.04, 0.0, 1.0, 0.0], abs=1e-12)
    assert warm_paths["warm"] == 2

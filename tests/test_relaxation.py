"""Concave extension, and the Eisenberg-Gale solver with its decomposition."""

import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest

from nswforge import relaxation, valuations
from nswforge.generators import GenSpec, generate
from nswforge.matching import initial_matching
from nswforge.model import Instance
from nswforge.oracle import scaled_optimum_check
from nswforge.relaxation import (
    clause_columns,
    concave_ext,
    default_epsilon,
    solve_eg,
    systematic_columns,
    table_subproblem_bound,
    vertex_columns,
    xos_subproblem_bound,
)
from nswforge.valuations import (
    Additive,
    BudgetedAdditive,
    CapExceeded,
    ExplicitTable,
    Xos,
    mask_incidence,
    subset_values,
)

from helpers import (
    reference_clause_columns,
    reference_hessian_pattern,
    reference_systematic_columns,
)


def make_instance(*valuations):
    m = valuations[0].m
    return Instance(tuple(f"agent{i}" for i in range(len(valuations))),
                    tuple(f"item{j}" for j in range(m)), tuple(valuations))


def random_valuation(rng, m, fam):
    if fam == 0:
        return Additive(rng.uniform(0.05, 1, m))
    if fam == 1:
        return Xos(rng.uniform(0, 1, (3, m)))
    if fam == 2:
        return BudgetedAdditive(rng.uniform(0.05, 1, m), cap=float(rng.uniform(0.5, 2)))
    src = Xos(rng.uniform(0, 1, (2, m)))
    masks = np.arange(1 << m)
    rows = ((masks[:, None] >> np.arange(m)) & 1).astype(bool)
    return ExplicitTable(src.value_rows(rows), m)


def assert_extension_matches_enumeration(v, x):
    """concave_ext(v, x) has the value of the LP over every subset of the
    items, a consistent and capacity-feasible decomposition, and a dual
    that bounds every subset."""
    a = concave_ext(v, x)
    values = subset_values([v], range(v.m))[0]
    incidence = mask_incidence(np.arange(1 << v.m), v.m)
    b = vertex_columns(values, incidence, x, range(v.m))
    assert a.value == pytest.approx(sum(w * v.value(s) for s, w in b), abs=1e-6)
    mix = sum(w * v.value(s) for s, w in a.columns)
    assert mix == pytest.approx(a.value, abs=1e-8)
    load = np.zeros(v.m)
    for s, w in a.columns:
        load[list(s)] += w
    assert (load <= x + 1e-8).all()
    assert (a.q + incidence @ a.prices >= values - 1e-8).all()


def forbidden(*args, **kwargs):
    raise AssertionError("the relaxation called a forbidden function")


def count_lp_solves(monkeypatch):
    """Record one entry per `relaxation.maximize` call; returns the record."""
    solves = []
    monkeypatch.setattr(relaxation, "maximize", lambda *a, _f=relaxation.maximize, **k:
                        solves.append(1) or _f(*a, **k))
    return solves


def mixed_instance(seed):
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.1, 1, (3, 6))
    return make_instance(Additive(weights[0]), BudgetedAdditive(weights[1], cap=1.2),
                         Xos(weights[1:]))


def assert_columns_keep_the_contract(inst, eg):
    """Every agent's columns: at most k + 1 over k items, weights summing
    to one, loads within its masses and mixture value equal to its value.
    Returns the loads."""
    loads = {}
    for i in eg.agents:
        v, columns = inst.valuations[i], eg.columns[i]
        x = eg.x.agent_vector(i, inst.m)
        assert sum(w for _, w in columns) == pytest.approx(1.0, abs=1e-12)
        assert all(w > 0 and s <= set(eg.items) for s, w in columns)
        assert len({s for s, _ in columns}) == len(columns) <= len(eg.items) + 1
        loads[i] = np.zeros(inst.m)
        for s, w in columns:
            loads[i][list(s)] += w
        assert (loads[i] <= x + 1e-9).all()
        assert eg.values()[i] == pytest.approx(sum(w * v.value(s) for s, w in columns),
                                               rel=1e-12, abs=1e-12)
    return loads


def assert_within_the_gap_of_fresh_extensions(inst, eg):
    """x is feasible, so sum_i log v+_i(x_i) <= OPT <= objective + gap: a
    fresh extension at the returned point beats each value, by at most
    the certified gap in all."""
    excess = 0.0
    for i, value in eg.values().items():
        fresh = concave_ext(inst.valuations[i], eg.x.agent_vector(i, inst.m), items=eg.items)
        assert value <= fresh.value + 1e-9
        excess += math.log(fresh.value / value)
    assert excess <= eg.gap + 1e-12


def assert_breaks_off_at_a_zero_pivot(spec, monkeypatch):
    """From the sixth step on, LAPACK's factorization reports an exactly
    zero pivot (info > 0), as when the duals have outgrown double
    precision: the solve returns the fifth step's point. The routines are
    patched through `relaxation._lapack`, the one binding the step loads
    them into."""
    from scipy.linalg.lapack import dgetrf, dgetrs
    calls = []

    def singular(*args, **kwargs):
        calls.append(1)
        lu, piv, info = dgetrf(*args, **kwargs)
        return lu, piv, (info if len(calls) < 6 else 1)
    monkeypatch.setattr(relaxation, "_lapack", (singular, dgetrs))
    inst = generate(spec)
    _, _, remaining, active = initial_matching(inst)
    eg = solve_eg(inst, active, remaining)
    assert len(calls) == 6
    assert not eg.converged and eg.iterations == 5
    assert all(math.isfinite(obj) and math.isfinite(gap) for _, obj, gap, _ in eg.trace)
    assert all(math.isfinite(value) for value in eg.values().values())
    assert eg.gap >= 0
    eg.x.validate(inst.m)


class TestConcaveExt:
    def test_additive_extension_is_linear(self):
        rng = np.random.default_rng(0)
        w = rng.uniform(0, 1, 5)
        x = rng.uniform(0, 1, 5)
        ext = concave_ext(Additive(w), x)
        assert ext.value == pytest.approx(float(w @ x), abs=1e-9)

    def test_two_clause_split(self):
        ext = concave_ext(Xos([[2, 0], [0, 2]]), [0.5, 0.5])
        assert ext.value == pytest.approx(2.0, abs=1e-9)
        cols = {tuple(sorted(s)): w for s, w in ext.columns}
        assert cols == {(0,): pytest.approx(0.5), (1,): pytest.approx(0.5)}

    def test_full_mass_reaches_monotone_maximum(self):
        v = Xos([[2, 0], [0, 2]])
        ext = concave_ext(v, [1.0, 1.0])
        assert ext.value == pytest.approx(v.value((0, 1)), abs=1e-9)

    def test_indicator_vectors_recover_set_values(self):
        rng = np.random.default_rng(1)
        for fam in range(4):
            v = random_valuation(rng, 5, fam)
            for r in range(6):
                for s in itertools.combinations(range(5), r):
                    x = np.zeros(5)
                    x[list(s)] = 1.0
                    assert concave_ext(v, x).value == pytest.approx(
                        v.value(s), abs=1e-8), (fam, s)

    @pytest.mark.parametrize("seed", range(12))
    def test_column_generation_matches_enumeration(self, seed):
        rng = np.random.default_rng(100 + seed)
        m = int(rng.integers(3, 9))
        v = random_valuation(rng, m, seed % 4)
        assert_extension_matches_enumeration(v, rng.uniform(0, 1, m) * (rng.uniform(size=m) < 0.8))

    @pytest.mark.parametrize("seed", range(6))
    def test_column_generation_matches_enumeration_at_scale(self, seed):
        # budgeted and table valuations over 12, 14 and 16 items, whose
        # restricted masters take the most pivots
        rng = np.random.default_rng(300 + seed)
        m = 12 + 2 * (seed % 3)
        v = random_valuation(rng, m, 2 + seed % 2)
        assert_extension_matches_enumeration(v, rng.uniform(0, 1, m) * (rng.uniform(size=m) < 0.8))

    @pytest.mark.parametrize("seed", range(8))
    def test_concave_along_segments(self, seed):
        rng = np.random.default_rng(200 + seed)
        m = 5
        v = random_valuation(rng, m, seed % 4)
        x, y = rng.uniform(0, 1, m), rng.uniform(0, 1, m)
        vx = concave_ext(v, x).value
        vy = concave_ext(v, y).value
        for lam in (0.25, 0.5, 0.75):
            mid = concave_ext(v, lam * x + (1 - lam) * y).value
            assert mid >= lam * vx + (1 - lam) * vy - 1e-6

    def test_zero_mass_gives_zero(self):
        ext = concave_ext(Additive([1.0, 2.0]), [0.0, 0.0])
        assert ext.value == 0.0

    @pytest.mark.parametrize("v", [
        Additive([1.0, 2.0, 3.0]), Xos([[1.0, 2.0, 3.0], [3.0, 1.0, 0.0]]),
        BudgetedAdditive([1.0, 2.0, 3.0], 2.0)], ids=["additive", "xos", "budgeted"])
    @pytest.mark.parametrize("x", [[0.5] * 3, [np.nan] * 3, [2.0] * 3])
    def test_empty_universe_is_worth_zero(self, v, x):
        # no item, so no mass is read and v+ is 0, reached by the empty set
        ext = concave_ext(v, x, items=[])
        assert ext.value == 0.0 and ext.q == 0.0
        assert ext.columns == [(frozenset(), 1.0)]
        assert not ext.prices.any()

    @pytest.mark.parametrize("x, items, message", [
        ([0.5, 0.5, 0.5, 0.5], None, r"item masses must hold 3 entries, one per item"),
        ([0.5], None, r"item masses must hold 3 entries, one per item"),
        ([0.5, 0.5, 0.5], [-1], r"items must lie in range\(3\)"),
        ([0.5, 0.5, 0.5], [1, 3], r"items must lie in range\(3\)"),
        ([np.nan, 0.5, 0.5], None, r"item masses must lie in \[0, 1\]"),
        ([1.5, 0.5, 0.5], [1, 2], None),
        ([np.nan, 0.5, 0.5], [1, 2], None),
        ([0.5, 0.5, 0.5], [1.7], r"items must be integers"),
        ([0.5, 0.5, 0.5], [0.0, 2.0], r"items must be integers"),
    ])
    def test_masses_and_universe_checked_against_the_items(self, x, items, message):
        # a mass per item of v, in [0, 1] on the universe, and a universe
        # inside range(v.m); a mass off the universe is not read
        v = Additive([1.0, 2.0, 3.0])
        if message is None:
            assert concave_ext(v, x, items=items).value == pytest.approx(2.5, abs=1e-12)
        else:
            with pytest.raises(ValueError, match=f"^{message}$"):
                concave_ext(v, x, items=items)


@pytest.fixture
def enumerations(monkeypatch):
    """Records each universe enumeration and each value_rows batch of more
    than one row (value() evaluates a single row)."""
    seen = {"rows": [], "values": []}
    all_rows = valuations._all_subset_rows
    monkeypatch.setattr(valuations, "_all_subset_rows",
                        lambda u, m: seen["rows"].append(u.size) or all_rows(u, m))
    for cls in (Additive, Xos, BudgetedAdditive, ExplicitTable):
        def value_rows(v, rows, _f=cls.value_rows):
            if rows.shape[0] > 1:
                seen["values"].append(rows.shape[0])
            return _f(v, rows)
        monkeypatch.setattr(cls, "value_rows", value_rows)
    return seen


class TestSubsetTableReuse:
    @pytest.mark.parametrize("family", ["budgeted_additive", "table"])
    def test_each_master_enumerates_once_per_solve(self, family, enumerations, monkeypatch):
        # one enumeration values every agent's sets, which are priced at
        # every step; the only other batches value each agent's at most 9
        # columns
        inst = generate(GenSpec(family, 3, 8, seed=4))
        # the generator enumerates and evaluates its tables' sources
        enumerations["rows"].clear()
        enumerations["values"].clear()
        monkeypatch.setattr(relaxation, "demand", forbidden)
        eg = solve_eg(inst, range(3), range(8))
        assert eg.iterations > 1
        assert enumerations["rows"] == [8]
        assert enumerations["values"][:3] == [256, 256, 256]
        assert all(rows <= 9 for rows in enumerations["values"][3:])

    @pytest.mark.parametrize("family", ["additive", "xos"])
    def test_analytic_masters_build_no_table(self, family, enumerations):
        inst = generate(GenSpec(family, 3, 8, seed=4))
        enumerations["values"].clear()
        solve_eg(inst, range(3), range(8))
        # no enumeration; the only batches value a lifted agent's at most 9 columns
        assert enumerations["rows"] == []
        assert all(rows <= 9 for rows in enumerations["values"])


class TestSolveEg:
    def test_single_agent_takes_everything(self):
        inst = make_instance(BudgetedAdditive([1, 1, 1], cap=2.5))
        eg = solve_eg(inst, [0], [0, 1, 2])
        x = eg.x.agent_vector(0, 3)
        assert (x >= 1 - 1e-6).all()
        assert eg.objective == pytest.approx(math.log(2.5), abs=1e-6)

    def test_identical_agents_split_the_item(self):
        inst = make_instance(Additive([1.0]), Additive([1.0]))
        eg = solve_eg(inst, [0, 1], [0])
        assert eg.x.mass[0][0] == pytest.approx(0.5, abs=1e-6)
        assert eg.objective == pytest.approx(2 * math.log(0.5), abs=1e-6)
        # 1-d check: no split beats the even one
        for t in np.linspace(0.05, 0.95, 19):
            assert math.log(t) + math.log(1 - t) <= eg.objective + 1e-9

    def test_disjoint_interests_separate(self):
        inst = make_instance(Additive([1, 1, 0, 0]), Additive([0, 0, 1, 1]))
        eg = solve_eg(inst, [0, 1], [0, 1, 2, 3])
        eps = eg.epsilon
        x0 = eg.x.agent_vector(0, 4)
        x1 = eg.x.agent_vector(1, 4)
        assert (x0[:2] >= 1 - eps - 1e-6).all()
        assert (x1[2:] >= 1 - eps - 1e-6).all()

    def test_objective_is_running_maximum_of_trace(self):
        inst = make_instance(BudgetedAdditive([1.0, 0.3], cap=2.3),
                             BudgetedAdditive([0.4, 1.0], cap=2.4))
        eg = solve_eg(inst, [0, 1], [0, 1])
        best = max(row[1] for row in eg.trace)
        assert eg.objective == pytest.approx(best, abs=1e-12)

    def test_rejects_worthless_agents(self):
        inst = make_instance(Additive([1.0, 0.0]), Additive([1.0, 0.0]))
        with pytest.raises(ValueError, match="no value"):
            solve_eg(inst, [0, 1], [1])

    def test_epsilon_floor_respected(self):
        inst = make_instance(Additive([1.0, 0.1]), Additive([0.1, 1.0]))
        eg = solve_eg(inst, [0, 1], [0, 1])
        for i in (0, 1):
            x = eg.x.agent_vector(i, 2)
            assert (x >= eg.epsilon - 1e-9).all()
        assert eg.epsilon == pytest.approx(default_epsilon(0.25, 2))


    def test_extensions_match_fresh_solves(self):
        for family, seed in (("xos", 1), ("table", 0), ("budgeted_additive", 2)):
            inst = generate(GenSpec(family, n=3, m=7, seed=seed))
            _, _, remaining, active = initial_matching(inst)
            eg = solve_eg(inst, active, remaining)
            assert eg.converged
            assert_within_the_gap_of_fresh_extensions(inst, eg)

    @pytest.mark.parametrize("spec", [GenSpec("xos", 3, 6, seed=1),
                                      GenSpec("budgeted_additive", 3, 8, seed=0)],
                             ids=["xos", "budgeted_additive"])
    def test_gap_bounds_the_returned_iterate_when_capped(self, spec, monkeypatch):
        inst = generate(spec)
        _, _, remaining, active = initial_matching(inst)
        # the solves converge in 9 and 10 steps; cut to 5, they miss their
        # certificate
        monkeypatch.setattr(relaxation, "MAX_ITERATIONS", 5)
        eg = solve_eg(inst, active, remaining)
        assert not eg.converged and eg.iterations == 5
        assert eg.gap == min(obj + gap for _, obj, gap, _ in eg.trace) - eg.objective
        best_row_gap = next(gap for _, obj, gap, _ in eg.trace if obj == eg.objective)
        assert 0 <= eg.gap <= best_row_gap

    @pytest.mark.parametrize("spec", [GenSpec("xos", 3, 6, seed=0),
                                      GenSpec("budgeted_additive", 3, 8, seed=0)],
                             ids=["xos", "budgeted_additive"])
    def test_gap_of_a_converged_run_meets_the_target(self, spec):
        inst = generate(spec)
        _, _, remaining, active = initial_matching(inst)
        eg = solve_eg(inst, active, remaining)
        assert eg.converged and eg.iterations < relaxation.MAX_ITERATIONS
        assert eg.gap == min(obj + gap for _, obj, gap, _ in eg.trace) - eg.objective
        assert 0 <= eg.gap <= eg.epsilon ** 4 * len(eg.agents)

    @pytest.mark.parametrize("spec, bound", [
        (GenSpec("xos", 3, 6, seed=0), xos_subproblem_bound),
        (GenSpec("budgeted_additive", 3, 8, seed=0), table_subproblem_bound)],
        ids=["xos", "budgeted_additive"])
    def test_breaks_off_finite_when_the_bound_does(self, spec, bound, monkeypatch):
        # from the sixth step on the subproblem bound is not finite, as when
        # the duals have outgrown double precision: the solve returns the
        # fifth step's point
        calls = []

        def failing(*args):
            calls.append(1)
            out = bound(*args)
            if len(calls) < 6:
                return out
            # the table bound also returns every set's utility
            return out * np.inf if bound is xos_subproblem_bound else (out[0] * np.inf, out[1])
        monkeypatch.setattr(relaxation, bound.__name__, failing)
        inst = generate(spec)
        _, _, remaining, active = initial_matching(inst)
        eg = solve_eg(inst, active, remaining)
        assert not eg.converged and eg.iterations == 5
        assert all(math.isfinite(obj) and math.isfinite(gap) for _, obj, gap, _ in eg.trace)
        assert eg.gap >= 0
        eg.x.validate(inst.m)


def additive_instance(seed, n, m):
    rng = np.random.default_rng(seed)
    return make_instance(*[Additive(rng.uniform(0.05, 1, m)) for _ in range(n)])


class TestAdditiveBarrier:
    @pytest.mark.parametrize("seed", range(6))
    def test_bound_dominates_feasible_points_at_any_prices(self, seed):
        rng = np.random.default_rng(950 + seed)
        n, m = int(rng.integers(1, 5)), int(rng.integers(1, 9))
        inst = additive_instance(seed, n, m)
        eg = solve_eg(inst, range(n), range(m))
        weights = np.stack([v.weights for v in inst.valuations])
        eps = eg.epsilon
        for _ in range(40):
            # D(p) = sum_j p_j plus each agent's one-clause subproblem bound,
            # at any v0 > 0 and any lam in [0, p]
            p = rng.exponential(1.0, m) * (rng.uniform(size=m) < 0.8)
            v0 = np.exp(rng.normal(0, 1.5, n))
            lam = p * rng.uniform(0, 1, (n, m))
            bound = float(p.sum() + xos_subproblem_bound(weights[:, None, :], p, eps, v0,
                                                         lam).sum())
            assert bound >= eg.objective - 1e-12
            x = eps + rng.dirichlet(np.ones(n + 1), m).T[:n] * (1 - n * eps)
            assert bound >= float(np.log((weights * x).sum(axis=1)).sum()) - 1e-12

    @pytest.mark.parametrize("shape", [(1, 3), (2, 6), (3, 10), (4, 12), (6, 20)])
    def test_converges_with_true_bounds_in_every_row(self, shape):
        n, m = shape
        eg = solve_eg(additive_instance(sum(shape), n, m), range(n), range(m))
        assert eg.converged and eg.iterations == len(eg.trace) < relaxation.MAX_ITERATIONS
        assert 0 <= eg.gap <= eg.epsilon ** 4 * n
        assert eg.trace[-1][1] == eg.objective
        assert eg.trace[-1][2] <= eg.epsilon ** 4 * n
        best = max(obj for _, obj, _, _ in eg.trace)
        assert all(obj + gap >= best for _, obj, gap, _ in eg.trace)

    def test_solves_no_lp_and_asks_no_demand(self, monkeypatch):
        # no demand query on additive or XOS agent sets, and an LP only for
        # a lifted agent's columns: none on additive agents, one per lifted
        for name in ("demand", "concave_ext"):
            monkeypatch.setattr(relaxation, name, forbidden)
        solves = count_lp_solves(monkeypatch)
        for family, lifted in (("additive", 0), ("xos", 3)):
            inst = generate(GenSpec(family, 3, 10, seed=0))
            assert lifted == sum(isinstance(v, Xos) and v.clauses.shape[0] > 1
                                 for v in inst.valuations)
            solves.clear()
            eg = solve_eg(inst, range(3), range(10))
            assert eg.converged and len(solves) == lifted

    def test_extensions_are_closed_form_and_certified(self):
        inst = generate(GenSpec("additive", 3, 12, seed=5))
        _, _, remaining, active = initial_matching(inst)
        eg = solve_eg(inst, active, remaining)
        assert math.log(math.prod(eg.values().values())) == pytest.approx(eg.objective,
                                                                         abs=1e-12)
        assert eg.converged
        loads = assert_columns_keep_the_contract(inst, eg)
        for i in eg.agents:
            x = eg.x.agent_vector(i, inst.m)
            assert eg.values()[i] == pytest.approx(float(inst.valuations[i].weights @ x),
                                                   abs=1e-12)
            # the systematic-sampling columns of x: the masses exactly
            assert eg.columns[i] == systematic_columns(x[eg.items], eg.items)
            assert loads[i] == pytest.approx(x, abs=1e-12)

    def test_zero_weight_masses_stay_on_the_floor(self):
        inst = make_instance(Additive([1.0, 2.0, 0.0]), Additive([0.0, 1.0, 3.0]))
        eg = solve_eg(inst, [0, 1], range(3))
        assert eg.x.mass[0][2] == eg.epsilon and eg.x.mass[1][0] == eg.epsilon
        assert eg.x.mass[0][0] == pytest.approx(1 - eg.epsilon, abs=1e-15)


def xos_instance(seed, n, m, clauses=3):
    rng = np.random.default_rng(seed)
    return make_instance(*[Xos(rng.uniform(0, 1, (clauses, m))) for _ in range(n)])


class TestXosBarrier:
    @pytest.mark.parametrize("seed", range(8))
    def test_subproblem_bound_dominates(self, seed):
        # log v+(x) - p.x <= the bound at random x in [eps, 1]^m and at every
        # vertex of that box, for random p >= 0, v0 > 0 and lam in [0, p], on
        # an agent with several clauses, a one-clause XOS agent and an
        # additive agent (one clause, its weights)
        rng = np.random.default_rng(1300 + seed)
        m, k = int(rng.integers(1, 6)), int(rng.integers(2, 5))
        eps = float(rng.uniform(0.01, 0.2))
        c = rng.uniform(0, 1, (k, m)) * (rng.uniform(size=(k, m)) < 0.8)
        agents = [(Xos(c), c), (Xos(c[:1]), c[:1]), (Additive(c[1]), c[1:2])]
        vertices = [eps + (1 - eps) * np.array(bits, dtype=float)
                    for bits in itertools.product((0, 1), repeat=m)]
        points = vertices + [rng.uniform(eps, 1, m) for _ in range(20)]
        for v, clauses in agents:
            worth = [(x, concave_ext(v, x).value) for x in points]
            for _ in range(30):
                p = rng.exponential(1.0, m) * (rng.uniform(size=m) < 0.8)
                lam = p * np.where(rng.uniform(size=m) < 0.2, 1.0, rng.uniform(0, 1, m))
                lam[rng.uniform(size=m) < 0.2] = 0.0
                v0 = float(np.exp(rng.normal(0, 1.5)))
                bound = float(xos_subproblem_bound(clauses, p, eps, v0, lam))
                for x, value in worth:
                    if value > 0:
                        assert bound >= math.log(value) - p @ x - 1e-9

    def test_subproblem_bounds_stack_along_agents(self):
        rng = np.random.default_rng(17)
        clauses = rng.uniform(0, 1, (4, 3, 6))
        clauses[1, 2] = 0.0  # agent 1 has two clauses, padded with a zero one
        p = rng.exponential(1.0, 6)
        lam = p * rng.uniform(0, 1, (4, 6))
        v0 = rng.uniform(0.5, 2, 4)
        stacked = xos_subproblem_bound(clauses, p, 0.05, v0, lam)
        alone = [xos_subproblem_bound(clauses[r, :2 if r == 1 else 3], p, 0.05, v0[r], lam[r])
                 for r in range(4)]
        assert stacked.tolist() == pytest.approx(alone, abs=1e-15)

    @pytest.mark.parametrize("shape", [(2, 4), (3, 6), (4, 8)])
    def test_converges_with_true_bounds_in_every_row(self, shape):
        n, m = shape
        eg = solve_eg(xos_instance(sum(shape), n, m), range(n), range(m))
        assert eg.converged and eg.iterations == len(eg.trace) < relaxation.MAX_ITERATIONS
        assert 0 <= eg.gap <= eg.epsilon ** 4 * n
        assert eg.trace[-1][1] == eg.objective
        assert eg.objective == pytest.approx(math.log(math.prod(eg.values().values())),
                                             abs=1e-12)
        best = max(obj for _, obj, _, _ in eg.trace)
        assert all(obj + gap >= best - 1e-12 for _, obj, gap, _ in eg.trace)

    def test_mixed_additive_and_xos_agents_take_the_barrier_path(self, monkeypatch):
        monkeypatch.setattr(relaxation, "_config_barrier_eg", forbidden)
        for name in ("demand", "concave_ext"):
            monkeypatch.setattr(relaxation, name, forbidden)
        solves = count_lp_solves(monkeypatch)
        rng = np.random.default_rng(3)
        inst = make_instance(Additive(rng.uniform(0.1, 1, 5)), Xos(rng.uniform(0.1, 1, (2, 5))),
                             Xos(rng.uniform(0.1, 1, (1, 5))))
        eg = solve_eg(inst, range(3), range(5))
        assert eg.converged and 0 <= eg.gap <= eg.epsilon ** 4 * 3
        assert len(solves) == 1  # the one lifted agent's columns
        # the one-clause agents' values are closed-form, c.x
        for i, weights in ((0, inst.valuations[0].weights), (2, inst.valuations[2].clauses[0])):
            assert eg.values()[i] == pytest.approx(float(weights @ eg.x.agent_vector(i, 5)),
                                                   abs=1e-12)
        assert_columns_keep_the_contract(inst, eg)

    def test_lifted_extensions_keep_the_contract(self):
        inst = generate(GenSpec("xos", 4, 12, seed=0))
        _, _, remaining, active = initial_matching(inst)
        eg = solve_eg(inst, active, remaining)
        assert eg.converged
        loads = assert_columns_keep_the_contract(inst, eg)
        # clause columns place every agent's masses exactly
        for i in eg.agents:
            assert loads[i] == pytest.approx(eg.x.agent_vector(i, inst.m), abs=1e-12)

    def test_breaks_off_finite_when_the_system_turns_singular(self, monkeypatch):
        assert_breaks_off_at_a_zero_pivot(GenSpec("xos", 3, 6, seed=0), monkeypatch)

    @pytest.mark.parametrize("family, n, m, seed", [
        ("xos", 3, 6, 0), ("xos", 3, 6, 1), ("additive", 3, 10, 0), ("additive", 3, 10, 1),
        ("xos", 4, 12, 0), ("near_uniform", 2, 16, 0), ("near_uniform", 3, 24, 1),
        ("table", 3, 10, 0), ("budgeted_additive", 3, 14, 1)])
    def test_benchmark_pool_relaxations_converge_in_few_steps(self, family, n, m, seed):
        # the relaxations of the xos_lane, subadd_engaged and subadd_colgen
        # benchmark ops (6-11 steps in `_barrier_eg`, 20 in the configuration
        # barrier; 35-68 under the primal log barriers)
        if family == "near_uniform":  # as perfbench/workloads.py draws them
            gen = np.random.default_rng([n, m, seed])
            inst = make_instance(*[Additive(gen.uniform(0.9, 1.0, m)) for _ in range(n)])
        else:
            inst = generate(GenSpec(family, n, m, seed=seed))
        _, _, remaining, active = initial_matching(inst)
        eg = solve_eg(inst, active, remaining)
        assert eg.converged and eg.iterations <= 20

    @pytest.mark.parametrize("kind", ["one-clause", "lifted", "mixed"])
    @pytest.mark.parametrize("seed", range(6))
    def test_hessian_pattern_is_the_meshgrid_one(self, kind, seed):
        # the pattern built per pair of clause rows holds the entries, as a
        # set, that every pair of variables filtered to one item or one
        # agent gave: row, column, capacity row, floor row, agent and outer
        # product
        rng = np.random.default_rng(1400 + seed)
        n, m = int(rng.integers(1, 6)), int(rng.integers(1, 10))
        rows = {"one-clause": np.ones(n, dtype=int), "lifted": rng.integers(2, 5, n),
                "mixed": np.concatenate([[1], rng.integers(1, 5, n - 1)])}[kind]
        if kind == "mixed" and n > 1:
            rows[-1] = max(rows[-1], 2)  # a lifted agent beside the one-clause one
        clauses = [rng.uniform(0, 1, (k, m)) * (rng.uniform(size=(k, m)) < 0.8) for k in rows]
        # `_barrier_eg`'s layout: agent by agent, its masses (clause-major),
        # then a lifted agent's beta; then the beta equality rows
        widths = np.where(rows > 1, rows * (m + 1), m)
        base = np.concatenate([[0], np.cumsum(widths)])
        var = np.concatenate([base[k] + np.arange(rows[k] * m) for k in range(n)])
        dim = int(base[-1]) + int((rows > 1).sum())
        zero = m + n * m + 2 * m * int(rows[rows > 1].sum())

        def entries(pattern):
            flat, cap, floor, agent, outer = (part.tolist() for part in pattern)
            return [(f % dim, f // dim, c, fl, a, o.hex())
                    for f, c, fl, a, o in zip(flat, cap, floor, agent, outer)]
        got = entries(relaxation._hessian_pattern(clauses, var, zero, dim))
        want = entries(reference_hessian_pattern(clauses, var, zero, dim))
        assert len(set(got)) == len(got) == len(want)
        assert set(got) == set(want)

    def test_set_up_at_xos_10x50_stays_small(self, monkeypatch):
        # the set-up before the first Newton step, traced: about 14 MB at
        # its peak with the pattern built per pair of clause rows, against
        # 49 MB when every pair of variables was formed
        class SetUpDone(Exception):
            pass

        def stop(*args, **kwargs):
            raise SetUpDone
        monkeypatch.setattr(relaxation, "_interior_point", stop)
        inst = generate(GenSpec("xos", 10, 50, seed=0))
        _, _, remaining, active = initial_matching(inst)
        tracemalloc.start()
        try:
            with pytest.raises(SetUpDone):
                solve_eg(inst, active, remaining)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 25e6, f"set-up peaked at {peak / 1e6:.1f} MB"

    def test_xos_6x30_stays_finite(self):
        inst = generate(GenSpec("xos", 6, 30, seed=0))
        _, _, remaining, active = initial_matching(inst)
        eg = solve_eg(inst, active, remaining)
        assert all(math.isfinite(obj) and math.isfinite(gap) for _, obj, gap, _ in eg.trace)
        assert all(math.isfinite(value) for value in eg.values().values())
        eg.x.validate(inst.m)
        assert eg.gap >= 0


def table_valuation(rng, m, family):
    if family == "budgeted_additive":
        return BudgetedAdditive(rng.uniform(0, 1, m) * (rng.uniform(size=m) < 0.85),
                                cap=float(rng.uniform(0.3, 2.0)))
    return random_valuation(rng, m, 3)


class TestConfigBarrier:
    @pytest.mark.parametrize("family", ["budgeted_additive", "table"])
    @pytest.mark.parametrize("seed", range(6))
    def test_subproblem_bound_dominates(self, family, seed):
        # log v+(x) - p.x <= the bound at random x in [eps, 1]^m and at every
        # vertex of that box, for random p >= 0, v0 > 0 and lam <= p, below
        # zero too (both families are monotone)
        rng = np.random.default_rng(1400 + seed)
        m = int(rng.integers(1, 7))
        eps = float(rng.uniform(0.01, 0.2))
        v = table_valuation(rng, m, family)
        (values,) = subset_values([v], range(m))
        vertices = [eps + (1 - eps) * np.array(bits, dtype=float)
                    for bits in itertools.product((0, 1), repeat=m)]
        points = vertices + [rng.uniform(eps, 1, m) for _ in range(20)]
        worth = [(x, concave_ext(v, x).value) for x in points]
        for _ in range(30):
            p = rng.exponential(1.0, m) * (rng.uniform(size=m) < 0.8)
            lam = p * np.where(rng.uniform(size=m) < 0.2, 1.0, rng.uniform(0, 1, m))
            lam[rng.uniform(size=m) < 0.2] = 0.0
            lam[rng.uniform(size=m) < 0.2] = -rng.exponential(0.5)
            v0 = float(np.exp(rng.normal(0, 1.5)))
            bound = float(table_subproblem_bound(values, p, eps, v0, lam)[0])
            for x, value in worth:
                if value > 0:
                    assert bound >= math.log(value) - p @ x - 1e-9

    @pytest.mark.parametrize("seed", range(8))
    def test_subproblem_bound_is_the_xos_bound_on_xos(self, seed):
        rng = np.random.default_rng(1500 + seed)
        m, k = int(rng.integers(1, 9)), int(rng.integers(1, 5))
        v = Xos(rng.uniform(0, 1, (k, m)) * (rng.uniform(size=(k, m)) < 0.8))
        universe = np.sort(rng.choice(m, int(rng.integers(1, m + 1)), replace=False))
        (values,) = subset_values([v], universe)
        for _ in range(20):
            p = rng.exponential(1.0, universe.size)
            lam = p * rng.uniform(0, 1, universe.size)
            v0 = float(np.exp(rng.normal(0, 1.5)))
            got, utility = table_subproblem_bound(values, p, 0.05, v0, lam)
            want = xos_subproblem_bound(v.clauses[:, universe], p, 0.05, v0, lam)
            assert float(got) == pytest.approx(float(want), abs=1e-12)
            assert utility.shape == values.shape

    def test_subproblem_bounds_stack_along_agents(self):
        rng = np.random.default_rng(19)
        values = np.stack(subset_values([table_valuation(rng, 5, "budgeted_additive")
                                         for _ in range(3)], range(5)))
        p = rng.exponential(1.0, 5)
        lam = p * rng.uniform(0, 1, (3, 5))
        v0 = rng.uniform(0.5, 2, 3)
        stacked, utility = table_subproblem_bound(values, p, 0.05, v0, lam)
        for r in range(3):
            alone, own = table_subproblem_bound(values[r], p, 0.05, v0[r], lam[r])
            assert float(stacked[r]) == float(alone)
            assert np.array_equal(utility[r], own)

    @pytest.mark.parametrize("family, shape", [("budgeted_additive", (2, 5)),
                                               ("budgeted_additive", (3, 8)),
                                               ("table", (2, 6)), ("table", (4, 9))])
    def test_converges_with_true_bounds_in_every_row(self, family, shape):
        n, m = shape
        inst = generate(GenSpec(family, n, m, seed=sum(shape)))
        eg = solve_eg(inst, range(n), range(m))
        assert eg.converged and eg.iterations == len(eg.trace) < relaxation.MAX_ITERATIONS
        assert 0 <= eg.gap <= eg.epsilon ** 4 * n
        assert eg.trace[-1][1] == eg.objective
        assert eg.objective == pytest.approx(math.log(math.prod(eg.values().values())),
                                             abs=1e-12)
        best = max(obj for _, obj, _, _ in eg.trace)
        assert all(obj + gap >= best - 1e-12 for _, obj, gap, _ in eg.trace)

    def test_mixed_additive_and_budgeted_set_runs_the_configuration_barrier(self,
                                                                            monkeypatch):
        monkeypatch.setattr(relaxation, "_barrier_eg", forbidden)
        inst = mixed_instance(3)
        eg = solve_eg(inst, range(3), range(6))
        assert eg.converged and 0 <= eg.gap <= eg.epsilon ** 4 * 3
        # every agent, additive and XOS too, enters through its own table
        assert_within_the_gap_of_fresh_extensions(inst, eg)
        assert_columns_keep_the_contract(inst, eg)

    @pytest.mark.parametrize("family", ["budgeted_additive", "table", "mixed"])
    def test_one_cold_lp_per_agent_and_no_column_generation(self, family, monkeypatch):
        inst = mixed_instance(4) if family == "mixed" else generate(GenSpec(family, 3, 8, seed=1))
        solves = count_lp_solves(monkeypatch)
        for name in ("demand", "concave_ext"):
            monkeypatch.setattr(relaxation, name, forbidden)
        eg = solve_eg(inst, range(3), range(inst.m))
        assert eg.converged and len(solves) == 3

    def test_breaks_off_finite_when_the_system_turns_singular(self, monkeypatch):
        assert_breaks_off_at_a_zero_pivot(GenSpec("budgeted_additive", 3, 8, seed=0),
                                          monkeypatch)

    def test_columns_hold_the_start_and_then_join_in_order(self, monkeypatch):
        # each agent holds the empty set, the singletons and the universe,
        # then the sets it admitted, one step after another: the columns of
        # a solve capped at t steps start the columns of one capped at
        # t + 1, and each step's sets follow by agent and then by mask
        inst = generate(GenSpec("budgeted_additive", 3, 8, seed=0))
        table_values = np.stack(subset_values(inst.valuations, range(8)))
        eps = default_epsilon(0.25, 3)
        start = [0, *(1 << np.arange(8)), (1 << 8) - 1]
        held = None
        for cap in range(1, 30):
            monkeypatch.setattr(relaxation, "MAX_ITERATIONS", cap)
            *_, (col_mask, col_agent), trace, _ = relaxation._config_barrier_eg(
                table_values, eps)
            for i in range(3):
                masks = col_mask[col_agent == i]
                assert masks[:len(start)].tolist() == start
                assert np.unique(masks).size == masks.size
            if held is not None:
                before = held[0].size
                assert np.array_equal(col_mask[:before], held[0])
                assert np.array_equal(col_agent[:before], held[1])
                joined = np.lexsort((col_mask[before:], col_agent[before:]))
                assert np.array_equal(joined, np.arange(joined.size))
            held = col_mask, col_agent
            if len(trace) < cap:  # converged
                break
        assert held[0].size > 3 * len(start)

    def test_admits_by_mixing_when_the_fixed_mass_ray_is_singular(self, monkeypatch):
        # a singular system for the ray that keeps the agent's masses fixed
        # sends every admitted set in along the mixing ray instead
        solve, calls = np.linalg.solve, []

        def singular(a, b):
            if sys._getframe(1).f_globals["__name__"] == relaxation.__name__:
                calls.append(1)
                raise np.linalg.LinAlgError("singular matrix")
            return solve(a, b)
        monkeypatch.setattr(np.linalg, "solve", singular)
        inst = generate(GenSpec("budgeted_additive", 3, 8, seed=0))
        _, _, remaining, active = initial_matching(inst)
        eg = solve_eg(inst, active, remaining)
        assert calls and eg.converged
        assert 0 <= eg.gap <= eg.epsilon ** 4 * len(eg.agents)
        assert_within_the_gap_of_fresh_extensions(inst, eg)

    @pytest.mark.parametrize("seed", [205, 207])
    def test_floor_multipliers_below_zero_keep_the_certificate(self, seed):
        # eight agents share four items; cut to zero, the agents' net
        # prices (capacity less floor duals) stalled seed 207's certificate
        # at 21 times its target, and seed 205 stopped at 1.5 times it
        # when the prices were read off shrinking slacks
        inst = generate(GenSpec("budgeted_additive", 8, 12, seed=seed))
        _, _, remaining, active = initial_matching(inst)
        eg = solve_eg(inst, active, remaining)
        assert eg.converged and 0 <= eg.gap <= eg.epsilon ** 4 * len(eg.agents)

    def test_cap_is_checked_before_any_subset_row(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("a subset row was enumerated")
        monkeypatch.setattr(valuations, "_all_subset_rows", forbidden)
        rng = np.random.default_rng(4)
        inst = make_instance(*[BudgetedAdditive(rng.uniform(0.1, 1, 17), cap=2.0)
                               for _ in range(2)])
        with pytest.raises(CapExceeded, match="exceeds the enumeration cap of 16"):
            solve_eg(inst, [0, 1], range(17))


class TestPredictorCorrector:
    @staticmethod
    def problem(seed):
        """A random, well-conditioned Newton system over 7 unknowns, one
        equality row on the first 4, and 9 inequality rows a u."""
        rng = np.random.default_rng(seed)
        size, n_rows = 7, 9
        rows = rng.normal(size=(n_rows, size))
        g, lam = rng.uniform(0.5, 2, n_rows), rng.uniform(0.5, 2, n_rows)
        hess = rng.normal(size=(size, size))
        system = np.zeros((size + 1, size + 1))
        system[:size, :size] = hess @ hess.T + (rows.T * (lam / g)) @ rows + np.eye(size)
        system[size, :4] = system[:4, size] = 1.0
        gain = np.append(rng.normal(size=size), 0.0)
        return system, size, gain, rows, g, lam

    @pytest.mark.parametrize("seed", range(5))
    def test_step_matches_a_dense_solve(self, seed):
        system, size, gain, rows, g, lam = self.problem(seed)
        got = relaxation._predictor_corrector(
            np.asfortranarray(system), size, gain, lambda w: np.append(rows.T @ w, 0.0),
            lambda du: rows @ du, g, lam)

        def newton(r):
            du = np.linalg.solve(system, gain + np.append(rows.T @ (r / g), 0.0))[:size]
            return du, rows @ du, r / g - lam - lam / g * (rows @ du)

        def reach(v, dv):
            return float((-v[dv < 0] / dv[dv < 0]).min(initial=np.inf))

        mu = float(lam @ g) / g.size
        _, dg, dlam = newton(np.zeros(g.size))
        primal, dual = min(1.0, reach(g, dg)), min(1.0, reach(lam, dlam))
        sigma = ((g + primal * dg) @ (lam + dual * dlam) / g.size / mu) ** 3
        du, dg, dlam = newton(sigma * mu - dg * dlam)
        assert got[0] == pytest.approx(du, rel=1e-12, abs=1e-12)
        assert got[1] == pytest.approx(dlam, rel=1e-12, abs=1e-12)
        assert got[2] == pytest.approx(min(1.0, 0.99 * min(reach(g, dg), reach(lam, dlam))),
                                       rel=1e-12)

    def test_an_exactly_singular_system_gives_no_step(self):
        # the first two unknowns are one: LAPACK meets an exactly zero pivot
        system = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        rows = np.eye(3)
        assert relaxation._predictor_corrector(
            system, 3, np.ones(3), lambda w: rows.T @ w, lambda du: rows @ du,
            np.ones(3), np.ones(3)) is None


class TestSystematicColumns:
    @pytest.mark.parametrize("seed", range(25))
    def test_decomposition_of_x(self, seed):
        rng = np.random.default_rng(1200 + seed)
        m = int(rng.integers(1, 30))
        x = rng.uniform(0, 1, m)
        x[rng.uniform(size=m) < 0.2] = 0.0
        x[rng.uniform(size=m) < 0.2] = 1.0
        items = sorted(rng.choice(100, m, replace=False).tolist())
        cols = systematic_columns(x, items)
        assert len(cols) <= m + 1
        assert len({s for s, _ in cols}) == len(cols)
        assert sum(w for _, w in cols) == pytest.approx(1.0, abs=1e-12)
        assert all(w > 0 for _, w in cols)
        total = float(x.sum())
        assert all(len(s) in (math.floor(total), math.ceil(total)) for s, _ in cols)
        load = dict.fromkeys(items, 0.0)
        for s, w in cols:
            for j in s:
                load[j] += w
        assert [load[j] for j in items] == pytest.approx(x.tolist(), abs=1e-12)
        assert systematic_columns(x.copy(), items) == cols

    def test_cuts_at_the_fractional_partial_sums(self):
        # segments [0, .5), [.5, 1.25), [1.25, 1.5): u in [0, .25) meets
        # items 4 and 7, u in [.25, .5) items 4 and 9, u in [.5, 1) item 7
        cols = systematic_columns(np.array([0.5, 0.75, 0.25]), [4, 7, 9])
        assert cols == [(frozenset({4, 7}), 0.25), (frozenset({4, 9}), 0.25),
                        (frozenset({7}), 0.5)]

    def test_additive_pipeline_reports_are_byte_identical(self):
        from nswforge.pipeline import PipelineParams, run_subadditive, run_xos

        inst = generate(GenSpec("additive", 3, 24, weights="near_uniform", seed=1))
        for run in (run_xos, run_subadditive):
            reports = [run(inst, PipelineParams(seed=4)) for _ in range(2)]
            assert reports[0].eg.converged
            assert reports[0].to_json(inst) == reports[1].to_json(inst)


def clause_case(seed):
    """A random XOS valuation with clause masses y under clause weights beta."""
    rng = np.random.default_rng(1260 + seed)
    k, m = int(rng.integers(2, 5)), int(rng.integers(1, 12))
    v = Xos(rng.uniform(0, 1, (k, m)))
    beta = rng.dirichlet(np.ones(k))
    return v, beta[:, None] * rng.uniform(0, 1, (k, m)), beta


class TestClauseColumns:
    @pytest.mark.parametrize("seed", range(10))
    def test_marginals_and_value(self, seed):
        v, y, beta = clause_case(seed)
        m, x = v.m, y.sum(axis=0)
        cols = clause_columns(v.clauses, y, beta, x, list(range(m)))
        assert len({s for s, _ in cols}) == len(cols) <= m + 1
        assert all(w > 0 for _, w in cols)
        assert sum(w for _, w in cols) == pytest.approx(1.0, abs=1e-12)
        load = np.zeros(m)
        for s, w in cols:
            load[list(s)] += w
        assert (load <= x + 1e-12).all()
        assert sum(w * v.value(s) for s, w in cols) >= float((v.clauses * y).sum()) - 1e-12

    def test_the_vertex_cuts_a_pool_past_k_plus_one_sets(self, monkeypatch):
        # the pooled sets past m + 1, per call
        excess = []
        monkeypatch.setattr(relaxation, "vertex_columns", lambda worth, inc, *a, _f=vertex_columns:
                            excess.append(inc.shape[0] - inc.shape[1] - 1) or _f(worth, inc, *a))
        for seed in range(10):
            v, y, beta = clause_case(seed)
            clause_columns(v.clauses, y, beta, y.sum(axis=0), list(range(v.m)))
        assert max(excess) > 0

    def test_columns_are_the_frozenset_pools(self):
        # against the frozenset pool and its rebuilt incidence: the same
        # columns in the same order, weights bit for bit. Ratios in tenths
        # leave float slivers of u that repeat a set, and some agents have a
        # clause with zero mass
        repeats = zero_mass = 0
        for seed in range(24):
            rng = np.random.default_rng(1500 + seed)
            k, m = int(rng.integers(2, 5)), int(rng.integers(1, 12))
            v = Xos(rng.uniform(0, 1, (k, m)))
            beta = rng.dirichlet(np.ones(k))
            ratios = rng.integers(0, 11, (k, m)) / 10 if seed % 2 else rng.uniform(0, 1, (k, m))
            if seed % 3 == 0:
                ratios[int(rng.integers(k))] = 0.0
            y = beta[:, None] * ratios
            items = sorted(rng.choice(100, m, replace=False).tolist())
            for y_k, b_k in zip(y, beta):
                r = np.clip(y_k / b_k, 0.0, 1.0)
                member = relaxation._systematic_rows(r)[0]
                repeats += len(member) > len({row.tobytes() for row in member})
                zero_mass += not y_k.any()
                assert ([(s, w.hex()) for s, w in systematic_columns(r, items)]
                        == [(s, w.hex()) for s, w in reference_systematic_columns(r, items)])
            got = clause_columns(v.clauses, y, beta, y.sum(axis=0), items)
            want = reference_clause_columns(v.clauses, y, beta, y.sum(axis=0), items)
            assert [(s, w.hex()) for s, w in got] == [(s, w.hex()) for s, w in want]
        assert repeats and zero_mass


@pytest.mark.parametrize("family", ["additive", "xos", "budgeted_additive", "table"])
@pytest.mark.parametrize("seed", range(2))
def test_columns_keep_the_contract(family, seed):
    inst = generate(GenSpec(family, 3, 9, seed=seed))
    _, _, remaining, active = initial_matching(inst)
    eg = solve_eg(inst, active, remaining)
    assert eg.converged
    assert_columns_keep_the_contract(inst, eg)


class TestScaledOptimum:
    def test_single_agent_ratio_is_one(self):
        inst = make_instance(Additive([1.0, 2.0]))
        eg = solve_eg(inst, [0], [0, 1])
        ratio, ok = scaled_optimum_check(inst, eg, alpha=0.25)
        assert ok
        assert ratio == pytest.approx(1.0, abs=1e-6)

    def test_additive_instances_stay_below_agent_count(self):
        # near-exact optimum on a differentiable family: ratio close to n
        rng = np.random.default_rng(4)
        inst = make_instance(Additive(rng.uniform(0.2, 1, 4)),
                             Additive(rng.uniform(0.2, 1, 4)))
        eg = solve_eg(inst, [0, 1], [0, 1, 2, 3])
        ratio, ok = scaled_optimum_check(inst, eg, alpha=0.25)
        assert ok
        assert ratio <= 2 / (1 - 2 * eg.epsilon) + 1e-6

    @pytest.mark.parametrize("seed", range(10))
    def test_fuzzed_contract(self, seed):
        rng = np.random.default_rng(7000 + seed)
        n = int(rng.integers(2, 4))
        m = int(rng.integers(4, 7))
        inst = make_instance(*[random_valuation(rng, m, int(rng.integers(0, 4)))
                               for _ in range(n)])
        _, _, remaining, active = initial_matching(inst)
        if not active:
            return
        eg = solve_eg(inst, active, remaining, alpha=0.25)
        ratio, ok = scaled_optimum_check(inst, eg, alpha=0.25)
        assert ok, f"ratio {ratio} exceeds {1.25 * len(eg.agents)}"

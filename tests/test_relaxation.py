"""Concave extension, supergradients, and the Eisenberg-Gale solver."""

import gc
import itertools
import math
import weakref

import numpy as np
import pytest

from nswforge import relaxation, valuations
from nswforge.generators import GenSpec, generate
from nswforge.matching import initial_matching
from nswforge.model import Instance
from nswforge.relaxation import (
    EgParams,
    RestrictedMaster,
    concave_ext,
    default_epsilon,
    scaled_optimum_check,
    additive_subproblems,
    lagrangian_bound,
    solve_eg,
    supergradient_log,
    systematic_columns,
    table_subproblem_bound,
    xos_subproblem_bound,
)
from nswforge.valuations import (
    Additive,
    BudgetedAdditive,
    CapExceeded,
    ExplicitTable,
    SubsetTable,
    Xos,
)
from test_lp import warm_paths  # noqa: F401 (a fixture)


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
        x = rng.uniform(0, 1, m) * (rng.uniform(size=m) < 0.8)
        a = concave_ext(v, x)
        b = concave_ext(v, x, method="enumerate")
        assert a.value == pytest.approx(b.value, abs=1e-6)
        # primal decomposition is consistent and capacity-feasible
        mix = sum(w * v.value(s) for s, w in a.columns)
        assert mix == pytest.approx(a.value, abs=1e-8)
        load = np.zeros(m)
        for s, w in a.columns:
            for j in s:
                load[j] += w
        assert (load <= x + 1e-8).all()

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


class TestRestrictedMaster:
    def test_reuse_keeps_values_and_counts_each_column_once(self, monkeypatch):
        rng = np.random.default_rng(5)
        v = Xos(rng.uniform(0, 1, (4, 6)))
        valued = []
        monkeypatch.setattr(v, "value", lambda items, f=v.value: valued.append(
            frozenset(items)) or f(items))
        master = RestrictedMaster(v, np.arange(6))
        for _ in range(8):
            x = rng.uniform(0, 1, 6)
            ext = concave_ext(v, x, master=master)
            fresh = concave_ext(Xos(v.clauses), x)
            assert ext.value == pytest.approx(fresh.value, abs=1e-9)
            assert ext.value == pytest.approx(ext.q + ext.prices @ x, abs=1e-9)
        assert len(valued) == len(set(valued)) == len(master.columns)

    def test_master_of_another_universe_rejected(self):
        v = Additive([1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="another valuation or universe"):
            concave_ext(v, [0.5, 0.5, 0.5], items=[0, 1],
                        master=RestrictedMaster(v, np.arange(3)))
        with pytest.raises(ValueError, match="another valuation or universe"):
            concave_ext(v, [0.5, 0.5, 0.5],
                        master=RestrictedMaster(Additive([1.0, 2.0, 3.0]), np.arange(3)))

    @pytest.mark.parametrize("family", ["budgeted_additive", "table", "xos"])
    @pytest.mark.parametrize("seed", range(2))
    def test_solve_eg_solves_each_master_at_one_x(self, family, seed, warm_paths):
        # column generation only appends columns at the masses it was given,
        # so every warm start keeps its basis; a master re-solved at moved
        # masses would fall back to the identity start here
        solve_eg(generate(GenSpec(family, 3, 10, seed=seed)), range(3), range(10))
        assert warm_paths["warm"] > 0 and warm_paths["identity"] == 0


@pytest.fixture
def enumerations(monkeypatch):
    """Records each universe enumeration and each value_rows batch of more
    than one row (value() evaluates a single row), and a weak reference to
    every subset table that is filled."""
    seen = {"rows": [], "values": [], "tables": []}
    all_rows = valuations._all_subset_rows
    monkeypatch.setattr(valuations, "_all_subset_rows",
                        lambda u, m: seen["rows"].append(u.size) or all_rows(u, m))
    for cls in (Additive, Xos, BudgetedAdditive, ExplicitTable):
        def value_rows(v, rows, _f=cls.value_rows):
            if rows.shape[0] > 1:
                seen["values"].append(rows.shape[0])
            return _f(v, rows)
        monkeypatch.setattr(cls, "value_rows", value_rows)
    arrays = SubsetTable.arrays

    def spy_arrays(table):
        if table._arrays is None:
            seen["tables"].append(weakref.ref(table))
        return arrays(table)
    monkeypatch.setattr(SubsetTable, "arrays", spy_arrays)
    return seen


class TestSubsetTableReuse:
    @pytest.mark.parametrize("family", ["budgeted_additive", "table"])
    def test_each_master_enumerates_once_per_solve(self, family, enumerations, monkeypatch):
        inst = generate(GenSpec(family, 3, 8, seed=4))
        enumerations["values"].clear()  # the generator evaluates its tables' sources
        queries = []
        monkeypatch.setattr(relaxation, "demand", lambda *a, _f=relaxation.demand, **k:
                            queries.append(k["table"] and id(k["table"])) or _f(*a, **k))
        eg = solve_eg(inst, range(3), range(8))
        # the barrier prices every step over the three tables, and each
        # extension's demand queries search its agent's one (the tables live
        # through the solve, so their ids are distinct)
        assert eg.iterations > 1 and len(queries) > 3
        assert None not in queries and len(set(queries)) == 3
        assert enumerations["rows"] == [8, 8, 8]
        assert enumerations["values"] == [256, 256, 256]
        gc.collect()
        assert len(enumerations["tables"]) == 3
        assert all(ref() is None for ref in enumerations["tables"])

    @pytest.mark.parametrize("family", ["additive", "xos"])
    def test_analytic_masters_build_no_table(self, family, enumerations):
        inst = generate(GenSpec(family, 3, 8, seed=4))
        enumerations["values"].clear()
        solve_eg(inst, range(3), range(8))
        assert enumerations == {"rows": [], "values": [], "tables": []}

    def test_dropped_master_takes_its_table(self, enumerations):
        rng = np.random.default_rng(9)
        v = BudgetedAdditive(rng.uniform(0, 1, 6), cap=1.2)
        master = RestrictedMaster(v, np.arange(6))
        for _ in range(3):
            concave_ext(v, rng.uniform(0, 1, 6), master=master)
        assert enumerations["rows"] == [6]
        rows = weakref.ref(master.subsets.arrays()[0])
        del master
        gc.collect()
        assert rows() is None and enumerations["tables"][0]() is None


class TestSupergradient:
    def test_additive_gradient_formula(self):
        rng = np.random.default_rng(2)
        w = rng.uniform(0.1, 1, 4)
        x = rng.uniform(0.1, 0.9, 4)
        sg = supergradient_log(Additive(w), x)
        assert sg.grad == pytest.approx(w / float(w @ x), abs=1e-9)
        assert sg.base == pytest.approx(math.log(float(w @ x)), abs=1e-9)

    @pytest.mark.parametrize("x0", [(0.5, 0.5), (1.0, 1.0), (0.25, 0.75)])
    def test_dominance_on_grid(self, x0):
        v = Xos([[2, 0], [0, 2]])
        x = np.array(x0)
        sg = supergradient_log(v, x)
        grid = np.linspace(0.05, 1.0, 5)
        for ya in grid:
            for yb in grid:
                y = np.array([ya, yb])
                vy = concave_ext(v, y, method="enumerate").value
                lin = sg.linearization(y, x)
                assert lin >= math.log(vy) - 1e-8

    @pytest.mark.parametrize("seed", range(6))
    def test_dominance_random_families(self, seed):
        rng = np.random.default_rng(300 + seed)
        m = 4
        v = random_valuation(rng, m, seed % 4)
        x = rng.uniform(0.2, 1.0, m)
        sg = supergradient_log(v, x)
        for _ in range(20):
            y = rng.uniform(0.05, 1.0, m)
            vy = concave_ext(v, y).value
            assert sg.linearization(y, x) >= math.log(vy) - 1e-8

    def test_zero_extension_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            supergradient_log(Additive([1.0, 1.0]), np.zeros(2))


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
        # the extensions at the returned point give the same v+ and valid
        # certificates as a fresh solve
        for family, seed in (("xos", 1), ("table", 0), ("budgeted_additive", 2)):
            inst = generate(GenSpec(family, n=3, m=7, seed=seed))
            _, _, remaining, active = initial_matching(inst)
            eg = solve_eg(inst, active, remaining, EgParams(max_iterations=60))
            for i in eg.agents:
                x = eg.x.agent_vector(i, inst.m)
                fresh = concave_ext(inst.valuations[i], x, items=eg.items)
                ext = eg.extensions[i]
                assert ext.value == pytest.approx(fresh.value, abs=1e-9)
                assert ext.value == pytest.approx(ext.q + ext.prices @ x, abs=1e-9)

    def test_gap_bounds_the_returned_iterate_when_capped(self):
        inst = generate(GenSpec("xos", n=3, m=6, seed=1))
        _, _, remaining, active = initial_matching(inst)
        eg = solve_eg(inst, active, remaining, EgParams(max_iterations=40))
        assert not eg.converged and eg.iterations == 40
        assert eg.gap == min(obj + gap for _, obj, gap, _ in eg.trace) - eg.objective
        best_row_gap = next(gap for _, obj, gap, _ in eg.trace if obj == eg.objective)
        assert 0 <= eg.gap <= best_row_gap

    def test_gap_of_a_converged_run_meets_the_target(self):
        inst = generate(GenSpec("xos", n=3, m=6, seed=0))
        _, _, remaining, active = initial_matching(inst)
        eg = solve_eg(inst, active, remaining)
        assert eg.converged and eg.iterations < EgParams().max_iterations
        assert eg.gap == min(obj + gap for _, obj, gap, _ in eg.trace) - eg.objective
        assert 0 <= eg.gap <= eg.epsilon ** 4 * len(eg.agents)


def subproblem_reference(w, p, eps):
    """max over x in [eps, 1]^m of log(w.x) - p.x by brute force: every
    item at eps or 1, or one item free at its stationary point (clipped),
    which covers a maximizer of this concave program."""
    best = -np.inf
    for levels in itertools.product((eps, 1.0, None), repeat=w.size):
        free = [j for j, lv in enumerate(levels) if lv is None]
        if len(free) > 1:
            continue
        x = np.array([eps if lv is None else lv for lv in levels])
        if free:
            j = free[0]
            rest = float(w @ x) - w[j] * eps
            if w[j] > 0 and p[j] > 0:
                x[j] = min(1.0, max(eps, 1.0 / p[j] - rest / w[j]))
            elif w[j] > 0:
                x[j] = 1.0
        if w @ x > 0:
            best = max(best, math.log(w @ x) - p @ x)
    return best


def additive_instance(seed, n, m):
    rng = np.random.default_rng(seed)
    return make_instance(*[Additive(rng.uniform(0.05, 1, m)) for _ in range(n)])


class TestAdditiveBarrier:
    @pytest.mark.parametrize("m", range(1, 5))
    def test_subproblem_matches_brute_force(self, m):
        rng = np.random.default_rng(900 + m)
        eps = 0.05
        for _ in range(60):
            w = rng.uniform(0, 1, (3, m)) * (rng.uniform(size=(3, m)) < 0.8)
            w[:, 0] += 0.01  # a positive weight in every row
            p = rng.uniform(0, 2, m) * (rng.uniform(size=m) < 0.85)
            if rng.uniform() < 0.3:  # exact ties in w/p
                w[:, -1], p[-1] = w[:, 0], p[0]
            got = additive_subproblems(w, p, eps)
            want = [subproblem_reference(row, p, eps) for row in w]
            assert got == pytest.approx(want, abs=1e-12, rel=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_bound_dominates_feasible_points_at_any_prices(self, seed):
        rng = np.random.default_rng(950 + seed)
        n, m = int(rng.integers(1, 5)), int(rng.integers(1, 9))
        inst = additive_instance(seed, n, m)
        eg = solve_eg(inst, range(n), range(m))
        weights = np.stack([v.weights for v in inst.valuations])
        eps = eg.epsilon
        for _ in range(40):
            p = rng.exponential(1.0, m) * (rng.uniform(size=m) < 0.8)
            bound = lagrangian_bound(weights, p, eps)
            assert bound >= eg.objective - 1e-12
            x = eps + rng.dirichlet(np.ones(n + 1), m).T[:n] * (1 - n * eps)
            assert bound >= float(np.log((weights * x).sum(axis=1)).sum()) - 1e-12

    @pytest.mark.parametrize("shape", [(1, 3), (2, 6), (3, 10), (4, 12), (6, 20)])
    def test_converges_with_true_bounds_in_every_row(self, shape):
        n, m = shape
        eg = solve_eg(additive_instance(sum(shape), n, m), range(n), range(m))
        assert eg.converged and eg.iterations == len(eg.trace) < EgParams().max_iterations
        assert 0 <= eg.gap <= eg.epsilon ** 4 * n
        assert eg.trace[-1][1] == eg.objective
        assert eg.trace[-1][2] <= eg.epsilon ** 4 * n
        best = max(obj for _, obj, _, _ in eg.trace)
        assert all(obj + gap >= best for _, obj, gap, _ in eg.trace)

    def test_solves_no_lp_and_asks_no_demand(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the additive path called the LP machinery")
        for name in ("maximize", "demand", "concave_ext"):
            monkeypatch.setattr(relaxation, name, forbidden)
        monkeypatch.setattr(RestrictedMaster, "__init__", forbidden)
        eg = solve_eg(generate(GenSpec("additive", 3, 10, seed=0)), range(3), range(10))
        assert eg.converged and all(ext.rounds == 0 for ext in eg.extensions.values())

    def test_extensions_are_closed_form_and_certified(self):
        inst = generate(GenSpec("additive", 3, 12, seed=5))
        _, _, remaining, active = initial_matching(inst)
        eg = solve_eg(inst, active, remaining)
        assert math.log(math.prod(eg.values().values())) == pytest.approx(eg.objective,
                                                                         abs=1e-12)
        for i in eg.agents:
            v, ext = inst.valuations[i], eg.extensions[i]
            x = eg.x.agent_vector(i, inst.m)
            assert ext.q == 0.0 and ext.rounds == 0
            assert np.array_equal(ext.prices[eg.items], v.weights[eg.items])
            assert ext.value == pytest.approx(float(v.weights @ x), abs=1e-12)
            # strong duality, the column mixture, and masses respected
            assert ext.value == pytest.approx(ext.q + float(ext.prices @ x), abs=1e-12)
            assert ext.value == pytest.approx(sum(w * v.value(s) for s, w in ext.columns),
                                              abs=1e-12)
            assert sum(w for _, w in ext.columns) == pytest.approx(1.0, abs=1e-12)
            load = np.zeros(inst.m)
            for s, w in ext.columns:
                assert s <= set(eg.items)
                load[list(s)] += w
            assert load == pytest.approx(x, abs=1e-12)
            # the dual certifies every set of the universe
            for r in range(len(eg.items) + 1):
                for s in itertools.islice(itertools.combinations(eg.items, r), 50):
                    assert ext.q + ext.prices[list(s)].sum() >= v.value(s) - 1e-12

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
        # vertex of that box, for random p >= 0, v0 > 0 and lam in [0, p]
        rng = np.random.default_rng(1300 + seed)
        m, k = int(rng.integers(1, 6)), int(rng.integers(2, 5))
        eps = float(rng.uniform(0.01, 0.2))
        v = Xos(rng.uniform(0, 1, (k, m)) * (rng.uniform(size=(k, m)) < 0.8))
        vertices = [eps + (1 - eps) * np.array(bits, dtype=float)
                    for bits in itertools.product((0, 1), repeat=m)]
        points = vertices + [rng.uniform(eps, 1, m) for _ in range(20)]
        worth = [(x, concave_ext(v, x).value) for x in points]
        for _ in range(30):
            p = rng.exponential(1.0, m) * (rng.uniform(size=m) < 0.8)
            lam = p * np.where(rng.uniform(size=m) < 0.2, 1.0, rng.uniform(0, 1, m))
            lam[rng.uniform(size=m) < 0.2] = 0.0
            v0 = float(np.exp(rng.normal(0, 1.5)))
            bound = float(xos_subproblem_bound(v.clauses, p, eps, v0, lam))
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
        assert eg.converged and eg.iterations == len(eg.trace) < EgParams().max_iterations
        assert 0 <= eg.gap <= eg.epsilon ** 4 * n
        assert eg.trace[-1][1] == eg.objective
        assert eg.objective == pytest.approx(math.log(math.prod(eg.values().values())),
                                             abs=1e-12)
        best = max(obj for _, obj, _, _ in eg.trace)
        assert all(obj + gap >= best - 1e-12 for _, obj, gap, _ in eg.trace)

    def test_mixed_additive_and_xos_agents_take_the_barrier_path(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the configuration barrier ran")
        monkeypatch.setattr(relaxation, "_config_barrier_eg", forbidden)
        extended = []
        monkeypatch.setattr(relaxation, "concave_ext", lambda v, *a, _f=concave_ext, **k:
                            extended.append(v) or _f(v, *a, **k))
        rng = np.random.default_rng(3)
        inst = make_instance(Additive(rng.uniform(0.1, 1, 5)), Xos(rng.uniform(0.1, 1, (2, 5))),
                             Xos(rng.uniform(0.1, 1, (1, 5))))
        eg = solve_eg(inst, range(3), range(5))
        assert eg.converged and 0 <= eg.gap <= eg.epsilon ** 4 * 3
        # one cold extension, for the two-clause agent; the one-clause
        # agents' extensions are closed-form
        assert extended == [inst.valuations[1]]
        for i in (0, 2):
            ext = eg.extensions[i]
            assert ext.q == 0.0 and ext.rounds == 0
            assert ext.value == pytest.approx(float(ext.prices @ eg.x.agent_vector(i, 5)),
                                              abs=1e-12)
        assert eg.extensions[1].rounds > 0

    def test_lifted_extensions_keep_the_contract(self):
        inst = generate(GenSpec("xos", 4, 12, seed=0))
        _, _, remaining, active = initial_matching(inst)
        eg = solve_eg(inst, active, remaining)
        assert eg.converged
        for i in eg.agents:
            v, ext = inst.valuations[i], eg.extensions[i]
            x = eg.x.agent_vector(i, inst.m)
            assert ext.value == pytest.approx(ext.q + float(ext.prices @ x), abs=1e-9)
            assert ext.value == pytest.approx(sum(w * v.value(s) for s, w in ext.columns),
                                              abs=1e-9)
            load = np.zeros(inst.m)
            for s, w in ext.columns:
                load[list(s)] += w
            assert (load <= x + 1e-9).all()

    def test_breaks_off_finite_when_t_outgrows_precision(self, monkeypatch):
        # t grows so fast that a slack or the bound stops being finite (or
        # the system turns singular) long before the cap
        monkeypatch.setattr(relaxation, "BARRIER_GROWTH", 1e10)
        inst = generate(GenSpec("xos", 3, 6, seed=0))
        _, _, remaining, active = initial_matching(inst)
        eg = solve_eg(inst, active, remaining)
        assert not eg.converged and eg.iterations < EgParams().max_iterations
        assert all(math.isfinite(obj) and math.isfinite(gap) for _, obj, gap, _ in eg.trace)
        assert eg.gap >= 0
        eg.x.validate(inst.m)

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
        values = SubsetTable(v, np.arange(m)).arrays()[1]
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
        values = SubsetTable(v, universe.astype(np.int64)).arrays()[1]
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
        values = np.stack([SubsetTable(table_valuation(rng, 5, "budgeted_additive"),
                                       np.arange(5)).arrays()[1] for _ in range(3)])
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
        assert eg.converged and eg.iterations == len(eg.trace) < EgParams().max_iterations
        assert 0 <= eg.gap <= eg.epsilon ** 4 * n
        assert eg.trace[-1][1] == eg.objective
        assert eg.objective == pytest.approx(math.log(math.prod(eg.values().values())),
                                             abs=1e-12)
        best = max(obj for _, obj, _, _ in eg.trace)
        assert all(obj + gap >= best - 1e-12 for _, obj, gap, _ in eg.trace)

    def test_mixed_additive_and_budgeted_set_runs_the_configuration_barrier(self,
                                                                            monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the clause barrier ran")
        monkeypatch.setattr(relaxation, "_barrier_eg", forbidden)
        extended = []
        monkeypatch.setattr(relaxation, "concave_ext", lambda v, *a, _f=concave_ext, **k:
                            extended.append(v) or _f(v, *a, **k))
        rng = np.random.default_rng(3)
        weights = rng.uniform(0.1, 1, (3, 6))
        inst = make_instance(Additive(weights[0]), BudgetedAdditive(weights[1], cap=1.2),
                             Xos(weights[1:]))
        eg = solve_eg(inst, range(3), range(6))
        assert eg.converged and 0 <= eg.gap <= eg.epsilon ** 4 * 3
        # every agent, additive and XOS too, enters through its own table and
        # gets one extension at the returned point
        assert extended == list(inst.valuations)
        for i in range(3):
            x = eg.x.agent_vector(i, 6)
            assert eg.extensions[i].value == pytest.approx(
                concave_ext(inst.valuations[i], x).value, abs=1e-9)

    def test_breaks_off_finite_when_the_bound_does(self, monkeypatch):
        # from the sixth step on the bound is not finite, as when t has
        # outgrown double precision: the solve returns the fifth step's point
        calls = []

        def failing(*args):
            calls.append(1)
            sub, utility = table_subproblem_bound(*args)
            return (sub if len(calls) < 6 else sub * np.inf), utility
        monkeypatch.setattr(relaxation, "table_subproblem_bound", failing)
        inst = generate(GenSpec("budgeted_additive", 3, 8, seed=0))
        _, _, remaining, active = initial_matching(inst)
        eg = solve_eg(inst, active, remaining)
        assert not eg.converged and eg.iterations == 5
        assert all(math.isfinite(obj) and math.isfinite(gap) for _, obj, gap, _ in eg.trace)
        assert eg.gap >= 0
        eg.x.validate(inst.m)

    def test_floor_multipliers_below_zero_keep_the_certificate(self):
        # eight agents share four items; cut to zero, the agents' floor
        # multipliers stalled the certificate at 21 times its target
        inst = generate(GenSpec("budgeted_additive", 8, 12, seed=207))
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
        eg = solve_eg(inst, active, remaining, EgParams(alpha=0.25))
        ratio, ok = scaled_optimum_check(inst, eg, alpha=0.25)
        assert ok, f"ratio {ratio} exceeds {1.25 * len(eg.agents)}"

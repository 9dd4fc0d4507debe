"""Exact subset-DP oracles and the explicit configuration LP."""

import itertools

import numpy as np
import pytest

from nswforge import oracle
from nswforge.generators import GenSpec, generate
from nswforge.model import Instance
from nswforge.oracle import exact_config_lp, exact_nsw, exact_scaled_welfare
from nswforge.valuations import Additive, BudgetedAdditive, CapExceeded, Xos


def make_instance(*valuations):
    m = valuations[0].m
    return Instance(tuple(f"agent{i}" for i in range(len(valuations))),
                    tuple(f"item{j}" for j in range(m)), tuple(valuations))


class TestExactNsw:
    def test_two_by_two(self):
        inst = make_instance(Additive([2, 1]), Additive([1, 2]))
        res = exact_nsw(inst)
        assert res.optimum == pytest.approx(2.0)
        assert res.witness.bundle(0) == frozenset({0})
        assert res.witness.bundle(1) == frozenset({1})
        assert res.nodes == 4

    def test_symmetric_unit_items(self):
        inst = make_instance(Additive([1] * 6), Additive([1] * 6))
        assert exact_nsw(inst).optimum == pytest.approx(3.0)

    def test_single_agent_gets_everything(self):
        inst = make_instance(BudgetedAdditive([2, 2, 2], cap=5))
        res = exact_nsw(inst)
        assert res.optimum == pytest.approx(5.0)
        assert res.witness.bundle(0) == frozenset({0, 1, 2})

    def test_cap_is_hard(self):
        inst = make_instance(*[Additive(np.ones(8))] * 3)
        with pytest.raises(CapExceeded):
            exact_nsw(inst, cap=100)

    @pytest.mark.parametrize("n, optimum", [(2, 8.0), (3, 150.0 ** (1 / 3))],
                             ids=["2x16", "3x16"])
    def test_sixteen_items_solve(self, n, optimum):
        inst = make_instance(*[Additive(np.ones(16))] * n)
        res = exact_nsw(inst)
        assert res.optimum == pytest.approx(optimum, rel=1e-12)
        assert res.nodes == n ** 16
        vals = [inst.valuations[i].value(res.witness.bundle(i)) for i in inst.agents]
        assert np.prod(vals) ** (1 / n) == pytest.approx(res.optimum, rel=1e-12)

    @pytest.mark.parametrize("n, m", [(5, 16), (3, 17)])
    def test_default_caps(self, n, m):
        # 5x16 needs 3 * 3^16 > 10^8 products; 17 items exceed the value tables
        inst = make_instance(*[Additive(np.ones(m))] * n)
        with pytest.raises(CapExceeded):
            exact_nsw(inst)
        with pytest.raises(CapExceeded):
            exact_scaled_welfare(inst, {i: 1.0 for i in range(n)})

    def test_witness_achieves_optimum(self):
        rng = np.random.default_rng(7)
        inst = make_instance(Xos(rng.uniform(0, 1, (3, 5))),
                             Additive(rng.uniform(0, 1, 5)))
        res = exact_nsw(inst)
        vals = [inst.valuations[i].value(res.witness.bundle(i)) for i in inst.agents]
        assert np.prod(vals) ** 0.5 == pytest.approx(res.optimum, rel=1e-9)


class TestExactScaledWelfare:
    def test_single_agent(self):
        inst = make_instance(Additive([1, 2, 3]))
        res = exact_scaled_welfare(inst, {0: 2.0})
        assert res.optimum == pytest.approx(3.0)

    def test_disjoint_interests(self):
        inst = make_instance(Additive([3, 0]), Additive([0, 5]))
        res = exact_scaled_welfare(inst, {0: 1.0, 1: 1.0})
        assert res.optimum == pytest.approx(8.0)

    def test_symmetric_instance(self):
        inst = make_instance(Additive([1, 1]), Additive([1, 1]))
        res = exact_scaled_welfare(inst, {0: 1.0, 1: 1.0})
        assert res.optimum == pytest.approx(2.0)


class TestExactConfigLp:
    def test_single_additive_agent(self):
        inst = make_instance(Additive([1, 2, 3]))
        res = exact_config_lp(inst)
        assert res.optimum == pytest.approx(6.0)
        cols = res.witness.columns[0]
        assert sum(w for _, w in cols) == pytest.approx(1.0)

    def test_contested_unit_item(self):
        inst = make_instance(Additive([1.0]), Additive([1.0]))
        welfare = exact_config_lp(inst)
        assert welfare.optimum == pytest.approx(1.0)
        scaled = exact_config_lp(inst, objective="scaled", targets={0: 0.5, 1: 0.5})
        assert scaled.optimum == pytest.approx(2.0)

    def test_fractional_dominates_integral(self):
        rng = np.random.default_rng(11)
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            n, m = 2, int(rng.integers(2, 5))
            inst = make_instance(*[BudgetedAdditive(rng.uniform(0, 1, m),
                                                    cap=float(rng.uniform(0.4, 1.5)))
                                   for _ in range(n)])
            targets = {i: float(rng.uniform(0.2, 1.0)) for i in range(n)}
            frac = exact_config_lp(inst, objective="scaled", targets=targets)
            integral = exact_scaled_welfare(inst, targets)
            assert frac.optimum >= integral.optimum - 1e-9

    def test_capacity_respected(self):
        rng = np.random.default_rng(13)
        inst = make_instance(Additive(rng.uniform(0, 1, 4)),
                             Xos(rng.uniform(0, 1, (2, 4))))
        res = exact_config_lp(inst)
        assert res.witness.item_load(inst.m).max() <= 1 + 1e-9
        welfare = sum(inst.valuations[i].value(s) * w
                      for i, cols in res.witness.columns.items() for s, w in cols)
        assert welfare == pytest.approx(res.optimum, abs=1e-8)

    def test_column_cap(self):
        inst = make_instance(Additive(np.ones(12)), Additive(np.ones(12)))
        with pytest.raises(CapExceeded):
            exact_config_lp(inst, cap=1000)

    def test_optimum_equals_extension_sum_at_witness(self):
        # the config LP optimum coincides with the sum of concave
        # extensions evaluated at the witness's item marginals
        from nswforge.relaxation import concave_ext

        rng = np.random.default_rng(23)
        for seed in range(5):
            rng = np.random.default_rng(500 + seed)
            n, m = 2, int(rng.integers(3, 7))
            inst = make_instance(Xos(rng.uniform(0, 1, (2, m))),
                                 BudgetedAdditive(rng.uniform(0, 1, m),
                                                  cap=float(rng.uniform(0.5, 2))))
            res = exact_config_lp(inst)
            marginals = res.witness.marginals(inst.m)
            total = sum(concave_ext(inst.valuations[i],
                                    marginals.agent_vector(i, inst.m)).value
                        for i in inst.agents)
            assert total == pytest.approx(res.optimum, abs=1e-7)

    def test_matches_brute_force_on_assignment_grid(self):
        # integral assignments are feasible LP points, so LP >= best of them;
        # for additive valuations they coincide.
        rng = np.random.default_rng(17)
        inst = make_instance(Additive(rng.uniform(0, 1, 4)),
                             Additive(rng.uniform(0, 1, 4)))
        res = exact_config_lp(inst)
        best = 0.0
        for assign in itertools.product(range(2), repeat=4):
            bundles = [tuple(j for j in range(4) if assign[j] == i) for i in range(2)]
            best = max(best, sum(inst.valuations[i].value(bundles[i]) for i in range(2)))
        assert res.optimum == pytest.approx(best, abs=1e-9)


def _all_subset_tables(inst, agents):
    """Value of every subset for each agent, from one `value_rows` call per
    agent as the oracles make it, so that the reference folds the same floats."""
    masks = np.arange(1 << inst.m)
    rows = ((masks[:, None] >> np.arange(inst.m)) & 1).astype(bool)
    return [inst.valuations[i].value_rows(rows) for i in agents]


def _brute_force(tables, m, combine, start):
    """Best fold, in agent order, of one table entry per agent over all n^m
    assignments, and every assignment (as per-agent masks) attaining it."""
    best, argbest = -1.0, []
    for assign in itertools.product(range(len(tables)), repeat=m):
        masks = [0] * len(tables)
        for j, a in enumerate(assign):
            masks[a] |= 1 << j
        acc = start
        for table, mask in zip(tables, masks):
            acc = combine(acc, table[mask])
        if acc > best:
            best, argbest = acc, [masks]
        elif acc == best:
            argbest.append(masks)
    return best, argbest


def _witness_masks(witness, agents):
    return [sum(1 << j for j in witness.bundle(i)) for i in agents]


def _equivalence_cases():
    cases = []
    for family in ("additive", "xos", "budgeted_additive", "table"):
        for n, m in ((1, 4), (2, 5), (2, 7), (3, 6), (4, 6), (4, 7)):
            cases.append((f"{family}_{n}x{m}", generate(GenSpec(family, n=n, m=m, seed=n + m))))
    rng = np.random.default_rng(31)
    cases.append(("zero_agent", make_instance(Additive(rng.uniform(0, 1, 5)),
                                              Additive(np.zeros(5)),
                                              Xos(rng.uniform(0, 1, (2, 5))))))
    cases.append(("tied_unit", make_instance(*[Additive(np.ones(6))] * 3)))
    cases.append(("tied_integer", make_instance(Additive([2, 1, 1, 2]), Additive([1, 2, 2, 1]),
                                                Additive([1, 1, 1, 1]))))
    cases.append(("tied_budget", make_instance(*[BudgetedAdditive([1, 1, 1, 1, 1], cap=2)] * 2)))
    return cases


EQUIVALENCE_CASES = _equivalence_cases()


@pytest.mark.parametrize("inst", [inst for _, inst in EQUIVALENCE_CASES],
                         ids=[name for name, _ in EQUIVALENCE_CASES])
class TestSubsetDpMatchesEnumeration:
    """The DP optima are bit-equal to enumeration, and its witnesses are
    among the assignments that attain them."""

    @pytest.fixture(autouse=True, params=[None, 2], ids=["one_chunk", "chunked"])
    def chunk_items(self, request, monkeypatch):
        # 2-item chunks take the instances here through the many-chunk path
        # that a layer of more than 8 items takes by default
        if request.param is not None:
            monkeypatch.setattr(oracle, "_CHUNK_ITEMS", request.param)

    def test_nsw(self, inst):
        agents = list(inst.agents)
        tables = _all_subset_tables(inst, agents)
        product, argbest = _brute_force(tables, inst.m, lambda acc, v: acc * v, 1.0)
        res = exact_nsw(inst)
        assert res.optimum == (product ** (1.0 / inst.n) if product > 0 else 0.0)
        assert res.nodes == inst.n ** inst.m
        assert _witness_masks(res.witness, agents) in argbest

    def test_scaled_welfare(self, inst):
        agents = list(inst.agents)
        targets = {i: 0.5 + 0.25 * i for i in agents}
        tables = [table * (1.0 / targets[i])
                  for i, table in zip(agents, _all_subset_tables(inst, agents))]
        welfare, argbest = _brute_force(tables, inst.m, lambda acc, v: acc + v, 0.0)
        res = exact_scaled_welfare(inst, targets)
        assert res.optimum == welfare
        assert _witness_masks(res.witness, agents) in argbest


@pytest.mark.parametrize("seed", range(60))
def test_kernel_on_arbitrary_tables(seed, monkeypatch):
    # Tables of independent random values, unlike valuations, make every
    # partition about equally likely to be the optimum, so a (mask, submask)
    # pair the layers skip shows; 2-item chunks split 4 items into 9 chunks.
    monkeypatch.setattr(oracle, "_CHUNK_ITEMS", 2)
    rng = np.random.default_rng(seed)
    n, k = 3 + seed % 2, 4
    tables = [rng.uniform(0, 1, 1 << k) for _ in range(n)]
    for combine, start in ((np.multiply, 1.0), (np.add, 0.0)):
        best, argbest = _brute_force(tables, k, combine, start)
        value, masks = oracle._subset_dp(tables, combine)
        assert value == best
        assert masks in argbest


def test_agent_valued_zero_everywhere_forces_zero_nsw():
    case = dict(EQUIVALENCE_CASES)["zero_agent"]
    res = exact_nsw(case)
    assert res.optimum == 0.0
    assert res.witness.bundle(0) == frozenset(range(case.m))

"""Value, demand, clause, and singleton oracles for every family."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nswforge import valuations
from nswforge.model import Instance
from nswforge.relaxation import concave_ext, solve_eg, table_subproblem_bound
from nswforge.valuations import (
    Additive,
    BudgetedAdditive,
    CapExceeded,
    DemandResult,
    ExplicitTable,
    Valuation,
    Xos,
    _all_subset_rows,
    demand,
    mask_incidence,
    mask_items,
    singleton_max,
    subset_values,
    xos_clause,
)

from helpers import reference_xos_value_rows


def brute_force_demand(v, prices, items):
    """Independent enumeration over all subsets of the allowed universe."""
    best = 0.0
    for r in range(len(items) + 1):
        for combo in itertools.combinations(items, r):
            best = max(best, v.value(combo) - sum(prices[j] for j in combo))
    return best


def all_families(m, rng):
    w = rng.uniform(0, 1, m)
    clauses = rng.uniform(0, 1, (3, m))
    table_src = Xos(rng.uniform(0, 1, (2, m)))
    masks = np.arange(1 << m)
    rows = ((masks[:, None] >> np.arange(m)) & 1).astype(bool)
    return [
        Additive(w),
        Xos(clauses),
        BudgetedAdditive(rng.uniform(0, 1, m), cap=float(rng.uniform(0.5, 2.0))),
        ExplicitTable(table_src.value_rows(rows), m),
    ]


class TestArrayChecks:
    # every family checks its array once, the same way: weights a nonempty
    # vector, clauses at least one clause of at least one item, every
    # entry finite and nonnegative
    @pytest.mark.parametrize("make, message", [
        (lambda: BudgetedAdditive(np.ones((2, 3)), 1.0), "weights must be a nonempty vector"),
        (lambda: BudgetedAdditive([], 1.0), "weights must be a nonempty vector"),
        (lambda: BudgetedAdditive([1.0, np.inf], 1.0), "weights must be finite and nonnegative"),
        (lambda: Additive(np.ones((2, 3))), "weights must be a nonempty vector"),
        (lambda: Additive([]), "weights must be a nonempty vector"),
        (lambda: Additive([1.0, -0.5]), "weights must be finite and nonnegative"),
        (lambda: Xos(np.ones((2, 2, 3))), "clauses must be a nonempty matrix"),
        (lambda: Xos([[]]), "clauses must be a nonempty matrix"),
        (lambda: Xos(np.ones((2, 0))), "clauses must be a nonempty matrix"),
        (lambda: Xos(np.zeros((0, 3))), "at least one clause required"),
        (lambda: Xos([[1.0, np.nan]]), "clauses must be finite and nonnegative"),
    ], ids=["budgeted_2d", "budgeted_empty", "budgeted_inf", "additive_2d",
            "additive_empty", "additive_negative", "xos_3d", "xos_no_item",
            "xos_no_item_2", "xos_no_clause", "xos_nan"])
    def test_bad_arrays_are_rejected(self, make, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            make()

    def test_a_vector_is_one_clause(self):
        v = Xos([1.0, 2.0])
        assert v.clauses.shape == (1, 2) and v.value((0, 1)) == 3.0


class TestValue:
    def test_xos_max_over_clauses(self):
        v = Xos([[2, 0], [0, 2]])
        assert v.value((0, 1)) == 2.0

    def test_empty_set_is_zero(self):
        rng = np.random.default_rng(0)
        for v in all_families(4, rng):
            assert v.value(()) == 0.0

    def test_budgeted_cap(self):
        assert BudgetedAdditive([3, 3], cap=4).value((0, 1)) == 4.0

    @pytest.mark.parametrize("family", range(4), ids=["additive", "xos", "budgeted", "table"])
    def test_items_outside_the_range_rejected(self, family):
        # a negative item once wrapped to the last one (Additive([1, 2, 3])
        # valued [-1, 2] at 3.0), and one past the end raised numpy's
        # IndexError, in the memo miss, `xos_clause` and `singleton_max`
        v = all_families(3, np.random.default_rng(8))[family]
        oracles = [v.value, v.run_copy().value, lambda s: singleton_max(v, s)]
        if isinstance(v, Xos):
            oracles.append(lambda s: xos_clause(v, s))
        for oracle in oracles:
            for items in ([-1, 2], [3], [0, 3], (np.int64(-1),), np.array([-2]), frozenset({-1})):
                with pytest.raises(ValueError, match=r"^items must lie in range\(3\)$"):
                    oracle(items)
            oracle([0, 2])
            oracle(np.array([2], dtype=np.uint8))

    @pytest.mark.parametrize("oracle", [
        lambda v, s: v.value(s),
        lambda v, s: v.run_copy().value(s),
        xos_clause,
        singleton_max,
    ], ids=["value", "memo_miss", "xos_clause", "singleton_max"])
    def test_non_integer_items_rejected(self, oracle):
        # the integer read once truncated them: Additive([1, 2, 3]) valued
        # [1.7] at 2.0 and [True, 2] at 5.0, and `singleton_max` of [1.5]
        # was 2.0
        for v in (Additive([1.0, 2.0, 3.0]), Xos([[1.0, 2.0, 3.0], [3.0, 2.0, 1.0]])):
            for items in ([1.7], [True, 2], [0.9], [np.float64(1.0)], [np.True_],
                          np.array([0.5, 1.5]), [None], ["1"]):
                with pytest.raises(ValueError, match=r"^items must be integers$"):
                    oracle(v, items)
            for items in ([1, 2], (np.int32(1), np.uint64(2)), np.array([2, 1], dtype=np.uint8)):
                oracle(v, items)


class TestRunCopy:
    def test_copy_keeps_its_class_and_shares_its_arrays(self):
        rng = np.random.default_rng(5)
        for v in all_families(4, rng):
            copy = v.run_copy()
            assert type(copy) is type(v) and copy == v
            assert all(copy.__dict__[key] is val for key, val in v.__dict__.items())
            assert v._memo is None and copy._memo == {}

    @pytest.mark.parametrize("seed", range(6))
    def test_memoized_value_is_the_plain_value_bit_for_bit(self, seed, monkeypatch):
        rng = np.random.default_rng(3100 + seed)
        m = int(rng.integers(1, 11))
        evaluated = []
        evaluate = Valuation._evaluate

        def counted(self, items):
            evaluated.append(self)
            return evaluate(self, items)
        for v in all_families(m, rng):
            copy = v.run_copy()
            drawn = set()
            for _ in range(60):
                items = rng.permutation(m)[:rng.integers(0, m + 1)]
                plain = v.value(items.tolist()).hex()
                with monkeypatch.context() as patch:
                    patch.setattr(Valuation, "_evaluate", counted)
                    # a miss or a hit, then hits with the set given otherwise
                    for given_as in (items.tolist(), items, frozenset(items.tolist()),
                                     reversed(items.tolist()), iter(list(items) * 2)):
                        assert copy.value(given_as).hex() == plain
                drawn.add(frozenset(items.tolist()))
            assert len(evaluated) == len(drawn) and all(e is copy for e in evaluated)
            assert copy._memo.keys() == drawn and v._memo is None
            evaluated.clear()


class TestDemand:
    def test_additive_strict_inequality(self):
        res = demand(Additive([3, 1]), [1.0, 2.0])
        assert res.items == frozenset({0})
        assert res.utility == 2.0

    def test_xos_tie_goes_to_the_least_mask(self):
        v = Xos([[2, 0], [0, 2]])
        res = demand(v, [1.0, 1.0])
        assert res.items == frozenset({0})
        assert res.utility == 1.0
        assert res.utility == brute_force_demand(v, [1.0, 1.0], range(2))

    def test_high_prices_return_empty(self):
        rng = np.random.default_rng(1)
        for v in all_families(5, rng):
            top = float(v.singleton_values().max())
            prices = np.full(5, top + 1.0)
            res = demand(v, prices)
            assert res.utility == 0.0
            assert res.items == frozenset()

    def test_zero_prices_recover_full_value_for_xos(self):
        rng = np.random.default_rng(2)
        v = Xos(rng.uniform(0.1, 1, (3, 6)))
        res = demand(v, np.zeros(6))
        assert res.utility == pytest.approx(v.value(range(6)), abs=1e-12)

    def test_enumeration_cap(self):
        v = BudgetedAdditive(np.ones(17), cap=3.0)
        with pytest.raises(CapExceeded):
            demand(v, np.zeros(17))

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_brute_force_all_families(self, seed):
        rng = np.random.default_rng(300 + seed)
        m = int(rng.integers(2, 7))
        prices = rng.uniform(-0.2, 1.0, m)
        for v in all_families(m, rng):
            res = demand(v, prices)
            ref = brute_force_demand(v, prices, range(m))
            assert res.utility == pytest.approx(ref, abs=1e-12)
            got = v.value(res.items) - prices[list(res.items)].sum()
            assert got == pytest.approx(res.utility, abs=1e-12)

    def test_restricted_universe(self):
        v = Additive([5.0, 4.0, 3.0])
        res = demand(v, np.zeros(3), items=(1, 2))
        assert res.items == frozenset({1, 2})
        assert res.utility == 7.0

    @pytest.mark.parametrize("seed", range(6))
    def test_any_iterable_universe_gives_the_same_demand(self, seed):
        rng = np.random.default_rng(350 + seed)
        prices = rng.uniform(-0.2, 1.0, 7)
        sub = np.sort(rng.choice(7, 5, replace=False)).astype(np.int64)
        for v in all_families(7, rng):
            ref = demand(v, prices, items=sub.tolist())
            for items in (sub, sub[::-1], np.repeat(sub, 2), sub.astype(np.int32),
                          iter(sub.tolist()), set(sub.tolist())):
                assert demand(v, prices, items=items) == ref

    def test_int64_universe_in_any_order_gives_the_same_demand(self):
        v, universe = Xos([[2, 0, 1, 1], [0, 2, 1, 0]]), np.array([0, 2, 3], dtype=np.int64)
        res = demand(v, np.full(4, 0.5), items=universe)
        for items in (universe[::-1], universe[[2, 0, 1]]):
            assert demand(v, np.full(4, 0.5), items=items) == res

    @pytest.mark.parametrize("prices, items, message", [
        ([0.5, 0.5, 0.5, 9.0], None, r"prices must hold 3 entries, one per item"),
        ([0.5], None, r"prices must hold 3 entries, one per item"),
        ([[0.0, 0.0, 0.0]], None, r"prices must hold 3 entries, one per item"),
        ([0.0, 0.0, 0.0], [-1], r"items must lie in range\(3\)"),
        ([0.0, 0.0, 0.0], [0, 3], r"items must lie in range\(3\)"),
        ([0.0, 0.0, 0.0], np.array([-1, 1], dtype=np.int64), r"items must lie in range\(3\)"),
        ([0.0, 0.0, 0.0], np.array([0, 3], dtype=np.int64), r"items must lie in range\(3\)"),
        ([0.0, 0.0, 0.0], [1.7], r"items must be integers"),
        ([0.0, 0.0, 0.0], [0, 1.0], r"items must be integers"),
        ([0.0, 0.0, 0.0], np.array([0.5, 1.5]), r"items must be integers"),
        ([0.0, 0.0, 0.0], [True], r"items must be integers"),
        ([0.0, 0.0, 0.0], [[0, 1]], r"items must be integers"),
        ([0.0, 0.0, 0.0], [True, 2], r"items must be integers"),
    ])
    def test_prices_and_universe_checked_against_the_items(self, prices, items, message):
        # a price per item of v and a universe of integers inside range(v.m),
        # for the analytic and the enumerated oracles alike; sorted int64
        # arrays, which skip np.unique, included
        for v in (Additive([1.0, 2.0, 3.0]), BudgetedAdditive([1.0, 2.0, 3.0], 2.0)):
            with pytest.raises(ValueError, match=f"^{message}$"):
                demand(v, prices, items=items)


    @pytest.mark.parametrize("items", [
        range(1, 3), [2, 1], (np.int64(1), np.int32(2)), np.array([2, 1], dtype=np.uint8),
        frozenset({1, 2}), np.array([1, 2], dtype=np.int64),
    ], ids=["range", "list", "numpy-scalars", "uint8", "frozenset", "sorted-int64"])
    def test_integer_universes_of_any_type(self, items):
        # a float item such as 1.7 was once truncated to item 1
        for v in (Additive([1.0, 2.0, 3.0]), BudgetedAdditive([1.0, 2.0, 3.0], 4.0)):
            assert demand(v, [0.0, 0.0, 0.0], items=items) == DemandResult(
                frozenset({1, 2}), 4.0 if isinstance(v, BudgetedAdditive) else 5.0)


def enumerated_demand_reference(v, prices, universe):
    """The enumerated demand set by set, in mask order: each set's value
    less its items' prices summed left to right from 0.0 in position
    order, and the first best set, the one of least mask."""
    values = v.value_rows(_all_subset_rows(universe, v.m))
    best = None
    for mask in range(1 << universe.size):
        items = [int(j) for t, j in enumerate(universe) if mask >> t & 1]
        price = 0.0
        for j in items:
            price += float(prices[j])
        utility = float(values[mask]) - price
        if best is None or utility > best.utility:
            best = DemandResult(frozenset(items), utility)
    return best


def tie_heavy_valuation(family, m, rng):
    """Small-integer weights, clauses, caps and table values, so that many
    sets tie and every utility at half-integer prices is exact."""
    if family == "additive":
        return Additive(rng.integers(0, 3, m).astype(float))
    if family == "xos":
        return Xos(rng.integers(0, 3, (int(rng.integers(1, 4)), m)).astype(float))
    if family == "budgeted_additive":
        return BudgetedAdditive(rng.integers(0, 4, m).astype(float),
                                cap=float(rng.integers(1, 2 * m)))
    sizes = _all_subset_rows(np.arange(m), m).sum(axis=1)
    return ExplicitTable(np.minimum(sizes, rng.integers(1, m + 1)).astype(float), m)


def price_vectors(v, rng):
    m = v.m
    weights = v.weights if isinstance(v, BudgetedAdditive) else v.singleton_values()
    return [rng.uniform(-0.3, 1.2, m), np.zeros(m), rng.integers(0, 3, m).astype(float),
            weights.copy()]


class TestSubsetTableDemand:
    @pytest.mark.parametrize("family", ["budgeted_additive", "table"])
    @pytest.mark.parametrize("seed", range(8))
    def test_equals_the_enumeration_it_replaces(self, family, seed):
        rng = np.random.default_rng(500 + seed)
        k = (2, 12, 3, 11, 5, 9, 7, 6)[seed]
        m = k if seed % 2 == 0 else min(k + int(rng.integers(1, 4)), 14)
        universe = np.sort(rng.choice(m, k, replace=False)).astype(np.int64)
        if family == "budgeted_additive" and seed % 4 < 2:
            v = BudgetedAdditive(rng.uniform(0, 1, m), cap=float(rng.uniform(0.5, 2.0)))
        elif family == "budgeted_additive":
            v = tie_heavy_valuation(family, m, rng)
        elif seed % 4 < 2:
            v = ExplicitTable(Xos(rng.uniform(0, 1, (2, m))).value_rows(
                _all_subset_rows(np.arange(m), m)), m)
        else:
            v = tie_heavy_valuation(family, m, rng)
        for prices in price_vectors(v, rng):
            ref = enumerated_demand_reference(v, prices, universe)
            res = demand(v, prices, items=universe)
            assert res.items == ref.items
            assert np.float64(res.utility).tobytes() == np.float64(ref.utility).tobytes()

    @pytest.mark.parametrize("family", ["budgeted_additive", "table"])
    @pytest.mark.parametrize("seed", range(6))
    def test_utility_is_the_configuration_bound_utility(self, family, seed):
        # at v0 = 1 and lam = p, the configuration barrier's subproblem
        # utilities are the demand utilities, bit for bit
        rng = np.random.default_rng(600 + seed)
        m = int(rng.integers(1, 10))
        universe = np.sort(rng.choice(m, int(rng.integers(0, m + 1)), replace=False))
        if seed % 2:
            v = tie_heavy_valuation(family, m, rng)
        elif family == "budgeted_additive":
            v = BudgetedAdditive(rng.uniform(0, 1, m), cap=float(rng.uniform(0.5, 2.0)))
        else:
            v = ExplicitTable(Xos(rng.uniform(0, 1, (2, m))).value_rows(
                _all_subset_rows(np.arange(m), m)), m)
        (values,) = subset_values([v], universe)
        for prices in price_vectors(v, rng):
            p = prices[universe]
            utility = table_subproblem_bound(values, p, 0.05, 1.0, p)[1]
            res = demand(v, prices, items=universe)
            assert res.utility.hex() == float(utility.max()).hex()
            assert res.items == mask_items(int(np.argmax(utility)), universe)

    def test_ties_go_to_the_least_mask(self):
        v = BudgetedAdditive([1.0, 1.0, 1.0, 1.0], cap=2.0)
        res = demand(v, np.zeros(4))
        assert res.items == frozenset({0, 1})
        assert res.utility == 2.0

    def test_concave_ext_enumerates_once_per_call(self, monkeypatch):
        # a budgeted or table valuation's rounds price one enumeration;
        # an XOS valuation's rounds send analytic queries and enumerate none
        calls = []
        all_rows = valuations._all_subset_rows
        monkeypatch.setattr(valuations, "_all_subset_rows",
                            lambda u, m: calls.append(u.size) or all_rows(u, m))
        rng = np.random.default_rng(7)
        source = Xos(rng.uniform(0, 1, (2, 6)))
        table = ExplicitTable(source.value_rows(all_rows(np.arange(6), 6)), 6)
        for v, expected in ((BudgetedAdditive(rng.uniform(0, 1, 6), cap=1.5), [4]),
                            (table, [4]), (source, []), (Additive(rng.uniform(0, 1, 6)), [])):
            calls.clear()
            ext = concave_ext(v, rng.uniform(0.2, 0.8, 6), items=[5, 3, 2, 0])
            assert ext.rounds > 1 and calls == expected

    def test_cap_is_checked_before_any_table_is_built(self, monkeypatch):
        # 17 items refuse through every caller of the enumeration, and
        # before it runs
        calls = []
        monkeypatch.setattr(valuations, "_all_subset_rows", lambda *a: calls.append(a))
        rng = np.random.default_rng(4)
        vals = [BudgetedAdditive(rng.uniform(0.1, 1, 17), cap=2.0) for _ in range(2)]
        inst = Instance(("agent0", "agent1"), tuple(f"item{j}" for j in range(17)),
                        tuple(vals))
        for call in (lambda: demand(vals[0], np.zeros(17)),
                     lambda: concave_ext(vals[0], np.full(17, 0.5)),
                     lambda: solve_eg(inst, [0, 1], range(17))):
            with pytest.raises(CapExceeded, match="^a subset table of 17 items exceeds "
                                                  "the enumeration cap of 16$"):
                call()
        assert not calls


class TestOneOrderOfSubsets:
    def test_xos_and_its_table_agree_on_a_zero_gain_item(self):
        v = Xos([[0.0, 1.0]])
        (values,) = subset_values([v], range(2))
        for oracle in (v, ExplicitTable(values, 2)):
            assert demand(oracle, [0.0, 0.5]) == DemandResult(frozenset({1}), 0.5)

    @pytest.mark.parametrize("seed", range(12))
    def test_xos_demand_is_its_table_demand(self, seed):
        # both oracles see exact utilities, so they tie the same sets
        rng = np.random.default_rng(3300 + seed)
        m = int(rng.integers(1, 8))
        v = tie_heavy_valuation("xos", m, rng)
        (values,) = subset_values([v], range(m))
        table = ExplicitTable(values, m)
        for _ in range(20):
            prices = rng.integers(-1, 5, m) / 2
            items = [j for j in range(m) if rng.random() < 0.6]
            for universe in (None, items):
                got, want = demand(v, prices, universe), demand(table, prices, universe)
                assert got.items == want.items and got.utility.hex() == want.utility.hex()

    @pytest.mark.parametrize("family", ["additive", "xos", "budgeted_additive", "table"])
    @pytest.mark.parametrize("seed", range(6))
    def test_demand_is_the_least_mask_of_the_tied_sets(self, family, seed):
        rng = np.random.default_rng(3400 + seed)
        m = int(rng.integers(1, 8))
        v = tie_heavy_valuation(family, m, rng)
        for _ in range(10):
            prices = rng.integers(-1, 5, m) / 2
            universe = [j for j in range(m) if rng.random() < 0.7]
            res = demand(v, prices, universe)
            sets = [mask_items(mask, universe) for mask in range(1 << len(universe))]
            tied = [s for s in sets if v.value(s) - prices[list(s)].sum() == res.utility]
            assert res.items == tied[0]
            # so no tied set is a proper subset of the demanded one
            assert not any(s < res.items for s in tied)


class TestXosClause:
    def test_unique_maximizer(self):
        cl = xos_clause(Xos([[2, 0], [0, 2]]), (0,))
        assert cl.index == 0
        assert list(cl.weights) == [2, 0]

    def test_tie_goes_to_lowest_index(self):
        cl = xos_clause(Xos([[1, 1], [2, 0]]), (0, 1))
        assert cl.index == 0
        assert cl.weights.sum() == 2.0

    def test_empty_set_ties_at_zero(self):
        assert xos_clause(Xos([[1, 1], [2, 0]]), ()).index == 0

    def test_additive_acts_as_single_clause(self):
        cl = xos_clause(Additive([1.0, 2.0]), (1,))
        assert cl.index == 0
        assert list(cl.weights) == [1.0, 2.0]

    def test_rejects_other_families(self):
        with pytest.raises(TypeError):
            xos_clause(BudgetedAdditive([1, 1], 1.0), (0,))

    @pytest.mark.parametrize("seed", range(6))
    def test_one_clause_shortcut_matches_the_general_path(self, seed):
        # a one-clause valuation returns clause 0 without scoring it; the
        # general path, run on the same clause with an all-zero second one
        # that only ties it, picks the same index and weights
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 9))
        w = rng.uniform(0, 1, m) * (rng.uniform(size=m) < 0.7)
        general = Xos(np.vstack([w, np.zeros(m)]))
        for v in (Additive(w), Xos(w[None, :])):
            for r in range(m + 1):
                items = rng.choice(m, r, replace=False).tolist()
                got, want = xos_clause(v, items), xos_clause(general, items)
                assert got.index == want.index == 0
                assert np.array_equal(got.weights, want.weights)
            got.weights[:] = -1.0  # a copy: the valuation keeps its clause
            assert np.array_equal(v.clauses[0], w)

    @pytest.mark.parametrize("seed", range(10))
    def test_clause_is_tight_and_underestimates(self, seed):
        rng = np.random.default_rng(400 + seed)
        m = 5
        v = Xos(rng.uniform(0, 1, (4, m)))
        for r in range(m + 1):
            for s in itertools.combinations(range(m), r):
                cl = xos_clause(v, s)
                assert cl.weights[list(s)].sum() == pytest.approx(v.value(s), abs=1e-12)
                for t in itertools.combinations(range(m), 2):
                    assert cl.weights[list(t)].sum() <= v.value(t) + 1e-12


@pytest.mark.parametrize("rows", [0, 1, 2, 8, 9, 64, 4096])
@pytest.mark.parametrize("clauses", [1, 2, 3, 4])
def test_xos_value_rows_is_the_per_row_maximum(rows, clauses):
    # each row's best clause sum, bit for bit as numpy's per-row max gives
    # it, on either side of the row count where the reduction turns
    # clause-major; zero clauses, and rows of no item, included
    rng = np.random.default_rng([rows, clauses])
    for draw in range(3):
        m = int(rng.integers(1, 17))
        weights = rng.uniform(0, 1, (clauses, m))
        if draw == 1:
            weights[rng.uniform(size=clauses) < 0.5] = 0.0
        elif draw == 2:
            weights[:] = 0.0
        sets = rng.uniform(size=(rows, m)) < rng.uniform(0, 1)
        sets[rng.uniform(size=rows) < 0.2] = False
        got, want = Xos(weights).value_rows(sets), reference_xos_value_rows(weights, sets)
        assert got.shape == want.shape == (rows,) and got.dtype == want.dtype
        assert [x.hex() for x in got.tolist()] == [x.hex() for x in want.tolist()]


@pytest.mark.parametrize("universe, m", [
    ([], 3), ([2], 3), ([0, 1, 2], 3), ([1, 4, 6], 8), (list(range(9)), 9),
    (list(range(1, 17)), 18),
], ids=["empty", "one", "full", "sparse", "9", "16"])
def test_all_subset_rows_in_mask_order(universe, m):
    rows = _all_subset_rows(np.array(universe, dtype=np.int64), m)
    assert rows.dtype == bool and rows.shape == (1 << len(universe), m)
    # the mask decoders read the layout the rows were enumerated in
    incidence = mask_incidence(np.arange(1 << len(universe)), len(universe))
    assert np.array_equal(incidence, rows[:, universe])
    for mask in range(0, 1 << len(universe), max(1, (1 << len(universe)) // 500)):
        expected = np.zeros(m, dtype=bool)
        expected[[j for t, j in enumerate(universe) if mask >> t & 1]] = True
        assert np.array_equal(rows[mask], expected)
        assert mask_items(mask, universe) == frozenset(np.flatnonzero(expected).tolist())


@pytest.mark.parametrize("seed", range(12))
def test_additive_agrees_with_its_one_clause_xos(seed):
    # integer weights and prices (odd seeds) tie gains at zero and across
    # items; uniform ones (even seeds) carry zero weights
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 9))
    if seed % 2:
        w = rng.integers(0, 3, m).astype(float)
    else:
        w = rng.uniform(0, 1, m) * (rng.uniform(size=m) < 0.7)
    a, x = Additive(w), Xos(w[None, :])
    assert isinstance(a, Xos)
    assert np.array_equal(a.singleton_values(), x.singleton_values())
    for _ in range(20):
        prices = rng.integers(0, 3, m).astype(float) if seed % 2 else rng.uniform(-0.2, 1, m)
        items = [j for j in range(m) if rng.random() < 0.6]
        for universe in (None, items):
            got, want = demand(a, prices, universe), demand(x, prices, universe)
            assert got.items == want.items and got.utility.hex() == want.utility.hex()
            # the closed form the additive demand used before it ran as a clause
            u = np.arange(m) if universe is None else np.array(universe, dtype=np.int64)
            gains = w[u] - prices[u]
            assert got.items == frozenset(u[gains > 0].tolist())
            assert got.utility.hex() == float(gains[gains > 0].sum()).hex()
        got, want = xos_clause(a, items), xos_clause(x, items)
        assert got.index == want.index and np.array_equal(got.weights, want.weights)
    rows = rng.uniform(size=(30, m)) < 0.5
    assert np.allclose(a.value_rows(rows), x.value_rows(rows), rtol=0, atol=1e-12)


class TestSingletonMax:
    def test_additive(self):
        assert singleton_max(Additive([3, 1]), (0, 1)) == 3.0

    def test_empty_pool(self):
        assert singleton_max(Additive([3, 1]), ()) == 0.0

    def test_budgeted_cap_applies_per_singleton(self):
        assert singleton_max(BudgetedAdditive([3, 3], cap=2), (0, 1)) == 2.0


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.integers(0, 10_000))
def test_subadditive_marginal_bound(m, seed):
    # for subadditive v: v(S + j) - v(S) <= v({j})
    rng = np.random.default_rng(seed)
    for v in all_families(m, rng):
        for r in range(m):
            for s in itertools.combinations(range(m), r):
                base = v.value(s)
                for j in range(m):
                    if j in s:
                        continue
                    assert v.value(s + (j,)) - base <= v.value((j,)) + 1e-12

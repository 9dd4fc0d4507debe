"""Instance schema, the NSW objective, and the exhaustive valuation validator."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nswforge.model import (
    Allocation,
    Instance,
    SchemaError,
    load_instance,
    nsw_value,
    serialize_instance,
    validate_valuation,
)
from nswforge.valuations import Additive, BudgetedAdditive, ExplicitTable, Xos

MINIMAL = {
    "agents": [
        {"name": "alice", "valuation": {"kind": "additive", "weights": [1, 2]}},
        {"name": "bob", "valuation": {"kind": "additive", "weights": [2, 1]}},
    ],
    "items": ["a", "b"],
}


def make_instance(*valuations):
    m = valuations[0].m
    return Instance(tuple(f"agent{i}" for i in range(len(valuations))),
                    tuple(f"item{j}" for j in range(m)), tuple(valuations))


class TestLoadInstance:
    def test_minimal_document(self):
        inst = load_instance(json.dumps(MINIMAL))
        assert inst.n == 2 and inst.m == 2
        assert inst.valuations[0].value((1,)) == 2.0

    def test_negative_weight_reports_path(self):
        doc = json.loads(json.dumps(MINIMAL))
        doc["agents"][0]["valuation"]["weights"][1] = -1
        with pytest.raises(SchemaError, match="negative weight") as err:
            load_instance(json.dumps(doc))
        assert err.value.path == "/agents/0/valuation/weights/1"

    @pytest.mark.parametrize("valuation, path", [
        ({"kind": "additive", "weights": [1, 10**400]}, "weights/1"),
        ({"kind": "budgeted_additive", "weights": [1, 1], "cap": 10**400}, "cap"),
        ({"kind": "table", "values": {"0": 1, "1": 1, "0,1": 10**400}}, "values/'0,1'"),
    ], ids=["weight", "cap", "table"])
    def test_integer_too_large_for_a_float_reports_path(self, valuation, path):
        doc = {"agents": [{"name": "a0", "valuation": valuation}], "items": ["a", "b"]}
        with pytest.raises(SchemaError, match="finite") as err:
            load_instance(json.dumps(doc))
        assert err.value.path == f"/agents/0/valuation/{path}"

    def test_xos_clause_count_preserved(self):
        doc = {
            "agents": [
                {"name": "a0", "valuation": {"kind": "additive", "weights": [1, 1, 1, 1]}},
                {"name": "a1", "valuation": {"kind": "xos", "clauses": [
                    [1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 3, 1]]}},
            ],
            "items": ["w", "x", "y", "z"],
        }
        inst = load_instance(json.dumps(doc))
        assert inst.valuations[1].clauses.shape == (3, 4)

    def test_duplicate_identifiers_rejected(self):
        doc = json.loads(json.dumps(MINIMAL))
        doc["items"] = ["a", "a"]
        with pytest.raises(SchemaError, match="duplicate identifier"):
            load_instance(json.dumps(doc))

    def test_table_requires_all_subsets(self):
        doc = {
            "agents": [{"name": "a0", "valuation": {"kind": "table",
                                                    "values": {"0": 1.0, "1": 1.0}}}],
            "items": ["a", "b"],
        }
        with pytest.raises(SchemaError, match="missing"):
            load_instance(json.dumps(doc))

    def test_non_monotone_table_rejected(self):
        doc = {
            "agents": [{"name": "a0", "valuation": {"kind": "table",
                                                    "values": {"0": 2.0, "1": 1.0, "0,1": 1.0}}}],
            "items": ["a", "b"],
        }
        with pytest.raises(SchemaError, match="table valuation invalid"):
            load_instance(json.dumps(doc))

    def test_round_trip_is_identity(self):
        table = ExplicitTable([0.0, 1.0, 2.0, 2.5], 2)
        inst = make_instance(
            Additive([1.0, 0.5]),
            Xos([[1.0, 0.0], [0.25, 2.0]]),
            BudgetedAdditive([2.0, 2.0], cap=3.0),
            table,
        )
        again = load_instance(serialize_instance(inst))
        assert again.agent_names == inst.agent_names
        assert again.item_names == inst.item_names
        assert all(a == b for a, b in zip(again.valuations, inst.valuations))
        assert serialize_instance(again) == serialize_instance(inst)


class TestNswValue:
    def test_geometric_mean(self):
        inst = make_instance(Additive([4.0, 0.0]), Additive([0.0, 9.0]))
        alloc = Allocation({0: frozenset({0}), 1: frozenset({1})})
        assert nsw_value(alloc, inst) == pytest.approx(6.0)

    def test_zero_bundle_gives_zero(self):
        inst = make_instance(Additive([4.0, 0.0]), Additive([0.0, 9.0]))
        alloc = Allocation({1: frozenset({1})})
        assert nsw_value(alloc, inst) == 0.0

    def test_three_agent_cube_root(self):
        inst = make_instance(Additive([1, 0, 0]), Additive([0, 8, 0]), Additive([0, 0, 27]))
        alloc = Allocation({0: frozenset({0}), 1: frozenset({1}), 2: frozenset({2})})
        # independent check: exp of the mean log
        expected = np.exp(np.log([1.0, 8.0, 27.0]).mean())
        assert expected == pytest.approx(6.0)
        assert nsw_value(alloc, inst) == pytest.approx(6.0, rel=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_relabeling_invariance_and_power_identity(self, seed):
        rng = np.random.default_rng(seed)
        n, m = 3, 5
        weights = rng.uniform(0.1, 1.0, (n, m))
        inst = make_instance(*[Additive(w) for w in weights])
        split = [frozenset({0}), frozenset({1, 2}), frozenset({3, 4})]
        alloc = Allocation(dict(enumerate(split)))
        base = nsw_value(alloc, inst)

        perm_a = rng.permutation(n)
        perm_i = rng.permutation(m)
        inv_i = np.argsort(perm_i)
        inst2 = make_instance(*[Additive(weights[a][perm_i]) for a in perm_a])
        alloc2 = Allocation({k: frozenset(int(inv_i[j]) for j in split[a])
                             for k, a in enumerate(perm_a)})
        assert nsw_value(alloc2, inst2) == pytest.approx(base, rel=1e-9)

        product = np.prod([inst.valuations[i].value(split[i]) for i in range(n)])
        assert base ** n == pytest.approx(product, rel=1e-9)


class TestValidateValuation:
    def test_additive_passes_everything(self):
        report = validate_valuation(Additive([0.3, 0.0, 2.0]), 3)
        assert report.passed()
        assert report.monotone and report.subadditive and report.zero_at_empty

    def test_superadditive_table_names_counterexample(self):
        v = ExplicitTable([0.0, 1.0, 1.0, 3.0], 2)
        report = validate_valuation(v, 2)
        assert report.subadditive is False
        s, t = report.subadditive_counterexample
        assert {s, t} == {frozenset({0}), frozenset({1})}

    def test_budgeted_additive_passes(self):
        report = validate_valuation(BudgetedAdditive([3, 3], cap=4), 2)
        assert report.monotone and report.subadditive

    def test_cap_marks_skipped(self):
        report = validate_valuation(Additive(np.ones(20)), 20)
        assert report.skipped
        assert report.monotone is None and report.subadditive is None

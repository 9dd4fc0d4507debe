"""End-to-end pipeline behavior, structure invariants, and determinism."""

import dataclasses
import json
import warnings
import weakref

import numpy as np
import pytest

from nswforge import pipeline, rounding
from nswforge.generators import GenSpec, generate
from nswforge.model import Instance
from nswforge.oracle import exact_config_lp, exact_nsw
from nswforge.pipeline import PipelineParams, run_subadditive, run_xos
from nswforge.relaxation import concave_ext
from nswforge.valuations import Additive, BudgetedAdditive, CapExceeded, Valuation, Xos

from helpers import cyclic_garbage


def make_instance(*valuations):
    m = valuations[0].m
    return Instance(tuple(f"agent{i}" for i in range(len(valuations))),
                    tuple(f"item{j}" for j in range(m)), tuple(valuations))


def near_uniform(n, m, seed):
    """The benchmark's engaged instances: additive weights U(0.9, 1.0)."""
    gen = np.random.default_rng([n, m, seed])
    return make_instance(*(Additive(gen.uniform(0.9, 1.0, m)) for _ in range(n)))


def assert_structure(report, inst):
    report.allocation.validate(inst)
    report.sigma.validate()
    for i in inst.agents:
        assert len(report.allocation.bundle(i) & report.reserved) == 1
        extra = report.allocation.bundle(i) - {report.sigma.assignment[i]}
        assert extra <= report.remaining | report.reserved


def _oracle_tables(monkeypatch):
    """A list that receives the `OracleTables` of each oracle call a run
    makes: within one run every call gets the same one."""
    tables = []

    def spy(columns, valuations, targets, *args, search=pipeline.PROCEDURES["oracle"]):
        tables.append(targets)
        return search(columns, valuations, targets, *args)
    monkeypatch.setitem(pipeline.PROCEDURES, "oracle", spy)
    return tables


class TestRunXos:
    def test_single_agent_with_residual_recovers_everything(self):
        inst = make_instance(Additive([1.0, 1.0, 1.0, 1.0]))
        report = run_xos(inst, PipelineParams(seed=3, append_residual=True))
        assert report.allocation.bundle(0) == frozenset({0, 1, 2, 3})
        assert report.nsw == pytest.approx(exact_nsw(inst).optimum)

    def test_disjoint_interests_exact_with_residual(self):
        inst = make_instance(Additive([1, 1, 0, 0]), Additive([0, 0, 1, 1]))
        report = run_xos(inst, PipelineParams(seed=5, append_residual=True))
        assert report.nsw == pytest.approx(exact_nsw(inst).optimum)

    def test_rejects_non_xos_families(self):
        inst = make_instance(BudgetedAdditive([1, 1], cap=1.0), Additive([1, 1]))
        with pytest.raises(ValueError, match="requires XOS valuations"):
            run_xos(inst)

    def test_rejects_more_agents_than_items(self):
        inst = make_instance(Additive([1.0]), Additive([1.0]))
        with pytest.raises(ValueError, match="as many items"):
            run_xos(inst)

    def test_deterministic_reports(self):
        inst = generate(GenSpec("xos", 3, 6, seed=17))
        a = run_xos(inst, PipelineParams(seed=7)).to_json(inst)
        b = run_xos(inst, PipelineParams(seed=7)).to_json(inst)
        assert a == b
        assert run_xos(inst, PipelineParams(seed=8)).to_json(inst) != a

    def test_rematch_check_passes(self):
        inst = generate(GenSpec("additive", 3, 6, seed=2))
        report = run_xos(inst, PipelineParams(seed=1, check_rematch=True))
        assert report.nsw > 0

    @pytest.mark.parametrize("seed", range(20))
    def test_fuzzed_factor_and_structure(self, seed):
        rng = np.random.default_rng(70_000 + seed)
        n = int(rng.integers(2, 4))
        m = int(rng.integers(4, 7))
        family = "additive" if seed % 2 else "xos"
        inst = generate(GenSpec(family, n, m, seed=seed))
        report = run_xos(inst, PipelineParams(seed=seed))
        assert_structure(report, inst)
        opt = exact_nsw(inst).optimum
        if opt > 0:
            assert report.nsw >= opt / 1440.0


class TestRunSubadditive:
    def test_dominant_singletons_fall_back_to_matching(self):
        # every agent's value concentrates on one item, so the 6-nu filter
        # empties and the output is the matching alone
        inst = make_instance(Additive([10, 0.1, 0.1, 0.1]),
                             Additive([0.1, 10, 0.1, 0.1]))
        report = run_subadditive(inst, PipelineParams(seed=1))
        assert report.filtered == frozenset()
        assert report.outcome is None
        for i in inst.agents:
            assert len(report.allocation.bundle(i)) == 1
        assert report.nsw > 0

    def test_additive_through_subadditive_lane(self):
        inst = generate(GenSpec("additive", 2, 6, seed=5))
        report = run_subadditive(inst, PipelineParams(seed=5))
        assert_structure(report, inst)
        opt = exact_nsw(inst).optimum
        assert report.nsw >= opt / 1440.0  # far stronger than the lane's gate

    def test_cr_procedure_lane(self):
        # near-uniform weights over a wide instance keep the relaxation
        # targets above 6 nu, so the iterated-rounding stage engages
        rng = np.random.default_rng(9)
        inst = make_instance(*[Additive(rng.uniform(0.9, 1.0, 16)) for _ in range(2)])
        report = run_subadditive(inst, PipelineParams(seed=9, proc="cr"))
        assert_structure(report, inst)
        assert report.filtered
        assert report.d_used == 4.0
        assert report.delta_used == pytest.approx(1.0 / 28.0)

    def test_cr_lane_draws_each_substream_once(self, monkeypatch):
        # an item's winner in round r and an agent's tentative set in the
        # next round must not share a substream
        paths = []
        uniform = rounding.RngStream.uniform
        monkeypatch.setattr(rounding.RngStream, "uniform",
                            lambda rng, *path: paths.append(path) or uniform(rng, *path))
        inst = generate(GenSpec("additive", 3, 24, weights="near_uniform", seed=0))
        report = run_subadditive(inst, PipelineParams(seed=0, proc="cr", delta=0.9))
        assert len(report.outcome.round_log) > 1
        assert len(set(paths)) == len(paths)

    def test_oracle_lane_engages_rounding(self):
        rng = np.random.default_rng(29)
        inst = make_instance(*[Additive(rng.uniform(0.9, 1.0, 16)) for _ in range(2)])
        report = run_subadditive(inst, PipelineParams(seed=2))
        assert report.filtered and report.outcome is not None
        assert not report.outcome.rounds_capped
        assert report.delta_used == pytest.approx(1.0 / (7.0 * report.d_used))
        for stats in report.outcome.round_log:
            import math as _math

            assert len(stats.exited) >= _math.ceil(report.delta_used * stats.active)

    @pytest.mark.parametrize("proc", ["oracle", "cr"])
    def test_each_search_goes_through_the_procedure_table(self, proc, monkeypatch):
        # the deterministic oracle searches each agent group once, largest
        # first, while d is measured, and each round gets back a recorded
        # choice; cr draws anew every round
        rng = np.random.default_rng(29)
        inst = make_instance(*[Additive(rng.uniform(0.9, 1.0, 16)) for _ in range(2)])
        groups, tables = [], []

        def spy(columns, valuations, targets, *args, search=pipeline.PROCEDURES[proc]):
            groups.append(tuple(sorted(columns)))
            tables.append(targets)
            return search(columns, valuations, targets, *args)
        monkeypatch.setitem(pipeline.PROCEDURES, proc, spy)
        report = run_subadditive(inst, PipelineParams(seed=2, proc=proc))
        assert report.filtered == {0, 1} and report.outcome.round_log
        rounds = len(report.outcome.round_log)
        if proc == "oracle":
            assert groups[:3] == [(0, 1), (0,), (1,)] and len(groups) == 3 + rounds
            assert all(t is tables[0] for t in tables)
            assert sorted(tuple(sorted(g)) for g in tables[0].visits) == [(0,), (0, 1), (1,)]
        else:
            assert groups == [(0, 1)] * rounds

    def test_capped_full_group_fails_before_smaller_searches(self, monkeypatch):
        # under a lowered node budget the full group of near-uniform 4x40
        # refuses: measuring d searches that group first and stops there
        monkeypatch.setattr(rounding, "ORACLE_NODE_CAP", 100)
        inst = generate(GenSpec("additive", 4, 40, seed=0, weights="near_uniform"))
        groups = []

        def spy(columns, *args, search=pipeline.PROCEDURES["oracle"]):
            groups.append(tuple(sorted(columns)))
            return search(columns, *args)
        monkeypatch.setitem(pipeline.PROCEDURES, "oracle", spy)
        with pytest.raises(CapExceeded, match="the search visited more than the node cap"):
            run_subadditive(inst, PipelineParams(seed=0, proc="oracle"))
        assert groups == [(0, 1, 2, 3)]

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("family", ["near_uniform", "xos"])
    def test_four_agents_on_40_items_engage_and_round(self, family, seed, monkeypatch):
        # each full group holds millions of support profiles (3.1 million on
        # near-uniform seed 0), and the oracle's searches, not counting the
        # full group's dive, visit at most 815 nodes (near-uniform) and
        # 9,825 (xos) over seeds 0-3, well within its budget
        spec = (GenSpec("additive", 4, 40, seed=seed, weights="near_uniform")
                if family == "near_uniform" else GenSpec("xos", 4, 40, seed=seed))
        inst = generate(spec)
        tables = _oracle_tables(monkeypatch)
        report = run_subadditive(inst)
        assert report.filtered == {0, 1, 2, 3} and report.outcome.round_log
        assert not report.outcome.rounds_capped
        assert_structure(report, inst)
        assert max(tables[0].visits.values()) <= {"near_uniform": 900, "xos": 11_000}[family]

    def test_lifted_columns_keep_the_oracle_under_its_cap(self, monkeypatch):
        # each lifted XOS agent keeps at most k + 1 of its pooled clause
        # sets, so every search on xos 3x36 stays within ORACLE_NODE_CAP:
        # the largest, the full group's, visits 24,283 nodes after its dive
        inst = generate(GenSpec("xos", 3, 36, seed=0))
        tables = _oracle_tables(monkeypatch)
        report = run_subadditive(inst, PipelineParams(seed=0, proc="oracle"))
        assert report.filtered == {0, 1, 2} and report.outcome.round_log
        assert max(tables[0].visits.values()) <= 26_000

    @pytest.mark.parametrize("seed", [0, 3])
    def test_configuration_barrier_converges_without_warnings(self, seed):
        # near-uniform budgeted-additive 2x14: an admission ray that should
        # hold x_i fixed is solved at a condition number near 1e16 and moves
        # x_i, which left capacity slacks negative (seed 0) or the agent's
        # mass off one (seed 3); a Newton diagonal then turned nonpositive
        # and the solve stopped unconverged
        inst = generate(GenSpec("budgeted_additive", 2, 14, seed=seed, weights="near_uniform"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = run_subadditive(inst)
        assert report.eg.converged

    def test_unknown_procedure_rejected(self):
        inst = generate(GenSpec("budgeted_additive", 2, 5, seed=1))
        with pytest.raises(ValueError, match="unknown rounding procedure"):
            run_subadditive(inst, PipelineParams(proc="greedy"))
        with pytest.raises(ValueError, match="unknown rounding procedure"):
            PipelineParams(proc="greedy")

    def test_params_are_frozen(self):
        # a field set after construction would skip every check
        params = PipelineParams()
        with pytest.raises(dataclasses.FrozenInstanceError):
            params.proc = "bogus"
        assert params.proc == "oracle"

    def test_deterministic_reports(self):
        inst = generate(GenSpec("table", 2, 5, seed=21))
        a = run_subadditive(inst, PipelineParams(seed=4)).to_json(inst)
        b = run_subadditive(inst, PipelineParams(seed=4)).to_json(inst)
        assert a == b

    @pytest.mark.parametrize("seed", range(12))
    def test_fuzzed_factor_and_structure(self, seed):
        family = "budgeted_additive" if seed % 2 else "table"
        n = 2 + seed % 2
        m = 4 + seed % 3
        inst = generate(GenSpec(family, n, m, seed=seed))
        report = run_subadditive(inst, PipelineParams(seed=seed, epsilon=0.1))
        assert_structure(report, inst)
        opt = exact_nsw(inst).optimum
        if opt > 0:
            assert report.nsw >= opt / 375_000.0
        if report.outcome is not None:
            assert not report.outcome.rounds_capped


class TestRunMemo:
    """Each run values sets through its own copies of the valuations, which
    share one memo per agent across every stage and die with the run."""

    @staticmethod
    def count_evaluations(monkeypatch, inst):
        """(agent, set) of every evaluation on the memo's miss path (and of
        plain `value` calls), and the number of `value` calls."""
        evaluated, calls = [], []
        evaluate, value = Valuation._evaluate, Valuation.value

        def counted_evaluate(self, items):
            agent = next(i for i, v in enumerate(inst.valuations) if v == self)
            evaluated.append((agent, frozenset(items)))
            return evaluate(self, items)

        def counted_value(self, items):
            calls.append(1)
            return value(self, items)
        monkeypatch.setattr(Valuation, "_evaluate", counted_evaluate)
        monkeypatch.setattr(Valuation, "value", counted_value)
        return evaluated, calls

    def test_back_to_back_runs_each_evaluate_their_sets(self, monkeypatch):
        inst = near_uniform(2, 16, 0)
        evaluated, _ = self.count_evaluations(monkeypatch, inst)
        copies = []
        run_copy = Valuation.run_copy

        def tracked(self):
            copy = run_copy(self)
            copies.append(weakref.ref(copy))
            return copy
        monkeypatch.setattr(Valuation, "run_copy", tracked)
        counts, reports = [], []
        for _ in range(2):
            evaluated.clear()
            report = run_subadditive(inst, PipelineParams(seed=0, proc="oracle"))
            assert report.filtered == {0, 1} and report.outcome.round_log
            counts.append(len(evaluated))
            reports.append(report.to_json(inst))
            assert all(v._memo is None for v in inst.valuations)
        assert counts[0] == counts[1] > 0 and reports[0] == reports[1]
        assert len(copies) == 4 and all(ref() is None for ref in copies)

    @pytest.mark.parametrize("call", [
        lambda: run_subadditive(near_uniform(2, 16, 0), PipelineParams(seed=0, proc="oracle")),
        lambda: run_subadditive(near_uniform(3, 24, 1), PipelineParams(seed=1, proc="oracle")),
        lambda: run_subadditive(near_uniform(2, 16, 0), PipelineParams(seed=0, proc="cr")),
        lambda: run_subadditive(near_uniform(3, 24, 1), PipelineParams(seed=1, proc="cr")),
        lambda: run_subadditive(generate(GenSpec("table", 3, 10, seed=0)),
                                PipelineParams(seed=0)),
        lambda: run_xos(generate(GenSpec("xos", 4, 12, seed=0)), PipelineParams(seed=0)),
        lambda: exact_nsw(generate(GenSpec("xos", 3, 12, seed=0))),
        lambda: exact_config_lp(generate(GenSpec("xos", 3, 10, seed=0))),
        lambda: concave_ext(generate(GenSpec("xos", 1, 10, seed=0)).valuations[0],
                            np.linspace(0.1, 1.0, 10)),
    ], ids=["oracle_2x16", "oracle_3x24", "cr_2x16", "cr_3x24", "fallback_table_3x10",
            "xos_4x12", "exact_nsw", "exact_config_lp", "concave_ext"])
    def test_solves_leave_no_cyclic_garbage(self, call):
        # the copies and memos a solve builds are freed by reference
        # counting as it returns: the collector finds nothing left behind
        assert cyclic_garbage(call) == 0

    @pytest.mark.parametrize("cap", [2, 10])
    def test_capped_oracle_run_leaves_no_cyclic_garbage(self, cap, monkeypatch):
        # near-uniform 2x16 seed 0 refuses in the full group's dive under a
        # budget of 2 and in its search under 10
        monkeypatch.setattr(rounding, "ORACLE_NODE_CAP", cap)
        inst = near_uniform(2, 16, 0)
        assert cyclic_garbage(lambda: run_subadditive(inst, PipelineParams(seed=0, proc="oracle")),
                              raises=CapExceeded) == 0

    @pytest.mark.parametrize("lane, inst, seed", [
        ("subadditive", near_uniform(3, 24, 1), 1),
        ("xos", generate(GenSpec("xos", 4, 12, seed=0)), 0),
    ])
    def test_no_set_is_evaluated_twice_in_a_run(self, lane, inst, seed, monkeypatch):
        evaluated, calls = self.count_evaluations(monkeypatch, inst)
        params = PipelineParams(seed=seed, check_rematch=True, append_residual=True)
        report = (run_subadditive if lane == "subadditive" else run_xos)(inst, params)
        assert report.split is not None and report.residual_appended is not None
        assert len(evaluated) == len(set(evaluated)) > 0
        assert len(calls) > len(evaluated)

    @pytest.mark.parametrize("n, m, seed, evaluations, calls, reads", [
        (2, 16, 0, 81, 468, 8), (3, 24, 1, 171, 947, 12)])
    def test_engaged_pool_ops_pin_their_work(self, n, m, seed, evaluations, calls, reads,
                                             monkeypatch):
        """The benchmark's two engaged ops, counted: their set evaluations
        and `value` calls, and their singleton-value reads, one per agent in
        each stage that reads them (the matching, nu, the split and the
        oracle's bounds). Counts do not depend on the machine; a change that
        moves one should say why."""
        inst = near_uniform(n, m, seed)
        evaluated, value_calls = self.count_evaluations(monkeypatch, inst)
        read = []
        for cls in (Valuation, Xos):
            singles = cls.singleton_values
            monkeypatch.setattr(cls, "singleton_values",
                                lambda self, f=singles: read.append(1) or f(self))
        report = run_subadditive(inst, PipelineParams(seed=seed, proc="oracle"))
        assert len(report.filtered) == n and not report.outcome.rounds_capped
        assert (len(evaluated), len(value_calls), len(read)) == (evaluations, calls, reads)


class TestReportJson:
    def test_round_trips_as_json_and_hides_timings(self):
        inst = generate(GenSpec("xos", 2, 5, seed=3))
        report = run_xos(inst, PipelineParams(seed=2))
        doc = json.loads(report.to_json(inst))
        assert doc["pipeline"] == "xos"
        assert "timings" not in doc
        assert set(doc["allocation"]) == set(inst.agent_names)
        timed = json.loads(report.to_json(inst, include_timings=True))
        assert "timings" in timed and timed["timings"]

    def test_report_carries_stage_artifacts(self):
        inst = generate(GenSpec("budgeted_additive", 2, 6, seed=13))
        report = run_subadditive(inst, PipelineParams(seed=6))
        doc = json.loads(report.to_json(inst))
        stages = doc["stages"]
        assert {"tau", "sigma", "reserved", "remaining", "active"} <= set(stages)
        if report.split is not None:
            assert "delta" in stages and "d" in stages

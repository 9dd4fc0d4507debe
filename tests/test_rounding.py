"""Contention resolution, iterated rounding, and the pluggable procedures."""

import itertools
import math
import time
import warnings

import numpy as np
import pytest

from nswforge import pipeline, rounding
from nswforge.model import ConfigSolution, Instance
from nswforge.rounding import (
    ORACLE_CHOICE_CAP,
    ORACLE_NODE_CAP,
    OracleTables,
    RngStream,
    cr_procedure,
    geometric_round,
    iterated_round,
    measured_welfare_factor,
    oracle_procedure,
    round_xos,
    scaled_targets,
)
from nswforge.splitting import split_subadditive, split_xos
from nswforge.valuations import Additive, BudgetedAdditive, CapExceeded, ExplicitTable, Xos


def xos_split(valuations, columns):
    config = ConfigSolution({i: cols for i, cols in columns.items()})
    v_plus = {i: sum(valuations[i].value(s) * w for s, w in cols)
              for i, cols in columns.items()}
    return split_xos(config, valuations, v_plus)


class TestRngStream:
    def test_substreams_reproduce(self):
        a = RngStream(99).substream(1, 2).random(5)
        b = RngStream(99).substream(1, 2).random(5)
        assert (a == b).all()

    def test_substreams_differ_by_path(self):
        a = RngStream(99).substream(1, 2).random(5)
        b = RngStream(99).substream(1, 3).random(5)
        assert not (a == b).all()


class TestGeometricRound:
    def test_matches_closed_form(self):
        delta = 0.25
        gen = RngStream(5).substream(77)
        draws = np.array([geometric_round(float(u), delta)
                          for u in gen.random(100_000)])
        p2 = float((draws == 2).mean())
        assert p2 == pytest.approx(delta * (1 - delta), abs=0.005)
        assert draws.min() >= 1

    def test_extremes(self):
        assert geometric_round(0.0, 0.5) == 1
        assert geometric_round(0.999999, 0.5) >= 15


class TestRoundXos:
    def test_single_agent_keeps_whole_tentative_set(self):
        v = Additive([1.0, 1.0, 1.0, 1.0])
        split = xos_split([v], {0: [(frozenset({0, 1, 2, 3}), 1.0)]})
        outcome = round_xos(split, [v], RngStream(1))
        chosen = outcome.tentative[0]
        assert outcome.allocation.bundle(0) == chosen
        assert outcome.normalizers[0] == pytest.approx(1 / 3)

    def test_two_agents_contend_uniformly(self):
        # both agents' only part is {0}; each should win about half the time
        from nswforge.splitting import SplitColumn, XosSplitOutput

        v = Additive([2.0, 1.9])
        col = SplitColumn(items=frozenset({0}), weight=1.0,
                          source=frozenset({0, 1}), large_item=1)
        split = XosSplitOutput(columns={0: [col], 1: [col]},
                               v_plus={0: 2.0, 1: 2.0})
        wins = 0
        trials = 10_000
        for seed in range(trials):
            outcome = round_xos(split, [v, v], RngStream(seed))
            if 0 in outcome.allocation.bundle(0):
                wins += 1
        assert wins / trials == pytest.approx(0.5, abs=0.02)

    def test_partition_of_tentative_union(self):
        rng = np.random.default_rng(3)
        vals = [Xos(rng.uniform(0.2, 1, (2, 6))) for _ in range(3)]
        cols = {i: [(frozenset({2 * i, 2 * i + 1}), 0.5),
                    (frozenset({(2 * i + 2) % 6, (2 * i + 3) % 6}), 0.5)]
                for i in range(3)}
        split = xos_split(vals, cols)
        outcome = round_xos(split, vals, RngStream(11))
        union = set().union(*outcome.tentative.values())
        won = [j for i in range(3) for j in outcome.allocation.bundle(i)]
        assert sorted(won) == sorted(set(won))
        assert set(won) == union
        for i in range(3):
            assert outcome.allocation.bundle(i) <= outcome.tentative[i]

    def test_conditional_contention_load(self):
        # with per-item mass <= 3/4, a requester sees on average at most
        # 7/4 requesters on its own items
        rng = np.random.default_rng(5)
        vals = [Additive(rng.uniform(0.2, 1, 5)) for _ in range(3)]
        cols = {i: [(frozenset({j, (j + 1) % 5}), 0.5) for j in (i, i + 2)]
                for i in range(3)}
        split = xos_split(vals, cols)
        loads = []
        for seed in range(4000):
            outcome = round_xos(split, vals, RngStream(seed))
            for i, items in outcome.tentative.items():
                for j in items:
                    loads.append(len(outcome.contention[j]))
        assert np.mean(loads) <= 7 / 4 + 0.02

    def test_deterministic_byte_for_byte(self):
        v = Additive([1.0, 1.0, 1.0, 1.0])
        split = xos_split([v], {0: [(frozenset({0, 1, 2, 3}), 1.0)]})
        a = round_xos(split, [v], RngStream(123)).to_json()
        b = round_xos(split, [v], RngStream(123)).to_json()
        assert a == b


def sub_split(valuations, columns):
    config = ConfigSolution(columns)
    targets = {i: sum(valuations[i].value(s) * w for s, w in cols)
               for i, cols in columns.items()}
    nu = {i: float(valuations[i].singleton_values().max()) for i in columns}
    return split_subadditive(config, valuations, targets, nu)


class TestProcedures:
    def test_cr_no_contention_returns_tentative(self):
        vals = [Additive([1, 1, 0, 0]), Additive([0, 0, 1, 1])]
        cols = {0: [(frozenset({0, 1}), 1.0)], 1: [(frozenset({2, 3}), 1.0)]}
        out = cr_procedure(cols, vals, {0: 2.0, 1: 2.0}, RngStream(0), 1)
        assert out == {0: frozenset({0, 1}), 1: frozenset({2, 3})}

    def test_cr_symmetric_contention_halves_welfare(self):
        vals = [Additive([1.0]), Additive([1.0])]
        cols = {0: [(frozenset({0}), 1.0)], 1: [(frozenset({0}), 1.0)]}
        welfare = []
        for seed in range(2000):
            out = cr_procedure(cols, vals, {0: 1.0, 1: 1.0}, RngStream(seed), 1)
            welfare.append(sum(vals[i].value(out[i]) for i in (0, 1)))
        assert np.mean(welfare) == pytest.approx(1.0, abs=1e-12)
        # per agent: expected half its target
        assert 0.45 < np.mean([vals[0].value(
            cr_procedure(cols, vals, {0: 1.0, 1: 1.0}, RngStream(s), 1)[0])
            for s in range(2000)]) < 0.55

    def test_oracle_disjoint_supports(self):
        vals = [Additive([1, 1, 0, 0]), Additive([0, 0, 1, 2])]
        cols = {0: [(frozenset({0, 1}), 0.5), (frozenset({0}), 0.5)],
                1: [(frozenset({2, 3}), 0.5), (frozenset({3}), 0.5)]}
        out = oracle_procedure(cols, vals, {0: 2.0, 1: 3.0})
        assert out == {0: frozenset({0, 1}), 1: frozenset({2, 3})}

    def test_oracle_matches_exhaustive_reference(self):
        vals = [Additive([2, 1, 0.5]), Additive([1, 2, 0.5])]
        cols = {0: [(frozenset({0, 1}), 0.5), (frozenset({0, 2}), 0.5)],
                1: [(frozenset({0, 1}), 0.5), (frozenset({1, 2}), 0.5)]}
        targets = {0: 2.5, 1: 2.5}
        out = oracle_procedure(cols, vals, targets)
        got = sum(vals[i].value(out[i]) / targets[i] for i in (0, 1))

        # independent brute force over (choice, winner) combinations
        best = -1.0
        for c0, c1 in itertools.product([s for s, _ in cols[0]],
                                        [s for s, _ in cols[1]]):
            shared = c0 & c1
            for winners in itertools.product((0, 1), repeat=len(shared)):
                kept0, kept1 = set(c0), set(c1)
                for j, w in zip(sorted(shared), winners):
                    (kept1 if w == 0 else kept0).discard(j)
                best = max(best, vals[0].value(kept0) / targets[0]
                           + vals[1].value(kept1) / targets[1])
        assert got == pytest.approx(best, abs=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_oracle_dominates_cr(self, seed):
        rng = np.random.default_rng(600 + seed)
        vals = [BudgetedAdditive(rng.uniform(0.3, 1, 6), cap=3.0) for _ in range(2)]
        cols = {}
        for i in range(2):
            sets = [frozenset(int(j) for j in rng.choice(6, 4, replace=False))
                    for _ in range(2)]
            cols[i] = [(sets[0], 0.5), (sets[1], 0.5)]
        targets = {i: sum(vals[i].value(s) * w for s, w in cols[i]) for i in cols}
        oracle_out = oracle_procedure(cols, vals, targets)
        oracle_welfare = sum(vals[i].value(oracle_out[i]) / targets[i] for i in cols)
        cr_out = cr_procedure(cols, vals, targets, RngStream(seed), 1)
        cr_welfare = sum(vals[i].value(cr_out[i]) / targets[i] for i in cols)
        assert oracle_welfare >= cr_welfare - 1e-12


def _reference_oracle(columns, valuations, targets):
    """The exhaustive procedure as one Python pass per (profile, winner)
    node, without the caps: the reference `oracle_procedure` must match."""
    agents = sorted(columns)
    supports = [sorted({s for s, _ in columns[i]}, key=lambda s: tuple(sorted(s)))
                for i in agents]
    memo = {}

    def scaled(agent, items):
        key = (agent, items)
        if key not in memo:
            memo[key] = valuations[agent].value(items) / targets[agent]
        return memo[key]

    best_welfare = -1.0
    best = None
    for profile in itertools.product(*supports):
        holders = {}
        for pos, chosen in enumerate(profile):
            for j in chosen:
                holders.setdefault(j, []).append(pos)
        contested = sorted(j for j, who in holders.items() if len(who) > 1)
        for winners in itertools.product(*(holders[j] for j in contested)):
            lost = [set() for _ in agents]
            for j, winner in zip(contested, winners):
                for pos in holders[j]:
                    if pos != winner:
                        lost[pos].add(j)
            welfare = 0.0
            resolved = {}
            for pos, agent in enumerate(agents):
                items = profile[pos] - frozenset(lost[pos])
                resolved[agent] = items
                welfare += scaled(agent, items)
            if welfare > best_welfare + 1e-15:
                best_welfare = welfare
                best = resolved
    return best


def _oracle_case(rng, style):
    """Seeded oracle input: 1-3 of four agents, 1-6 support sets each.
    `ties` uses small integer weights and targets so that many nodes tie
    exactly; `wide` spreads the supports over up to 200 items."""
    agents = sorted(int(i) for i in rng.choice(4, int(rng.integers(1, 4)), replace=False))
    m = int(rng.integers(150, 201)) if style == "wide" else int(rng.integers(1, 9))
    valuations = []
    for _ in range(4):
        if style == "ties":
            valuations.append(Additive(rng.integers(0, 3, m).astype(float)))
        elif style == "budgeted":
            w = rng.uniform(0.2, 1.0, m)
            valuations.append(BudgetedAdditive(w, cap=float(rng.uniform(0.3, 0.8) * w.sum())))
        elif style == "table":
            valuations.append(ExplicitTable(rng.integers(0, 4, 1 << m).astype(float), m))
        else:
            valuations.append(Additive(rng.uniform(0.0, 1.0, m)))
    columns = {}
    for i in agents:
        k = int(rng.integers(1, 7 if style != "wide" else 5))
        if style == "wide":
            sets = [rng.choice(m, 16, replace=False) for _ in range(k)]
        else:
            sets = [np.flatnonzero(rng.random(m) < 0.6) for _ in range(k)]
        columns[i] = [(frozenset(int(j) for j in s), 1.0 / k) for s in sets]
    if style == "ties":
        targets = {i: float(rng.integers(1, 3)) for i in agents}
    else:
        targets = {i: float(rng.uniform(0.5, 2.0)) for i in agents}
    return columns, valuations, targets


class TestOracleProcedure:
    @pytest.mark.parametrize("block", [None, 5])
    @pytest.mark.parametrize("style", ["uniform", "ties", "budgeted", "table", "wide"])
    def test_matches_the_nested_loop(self, style, block, monkeypatch):
        # a tiny block splits the node count over many chunks
        if block is not None:
            monkeypatch.setattr(rounding, "_ORACLE_BLOCK", block)
        rng = np.random.default_rng(["uniform", "ties", "budgeted", "table", "wide"].index(style))
        for case in range(25):
            columns, valuations, targets = _oracle_case(rng, style)
            assert oracle_procedure(columns, valuations, targets) == \
                _reference_oracle(columns, valuations, targets), f"{style} case {case}"

    def test_matches_the_nested_loop_on_pipeline_calls(self, monkeypatch):
        # every search `run_subadditive` makes on the benchmark's engaged
        # near-uniform 3x24 instance (weights U(0.9, 1.0), seed 1)
        gen = np.random.default_rng([3, 24, 1])
        inst = Instance(tuple(f"agent{i}" for i in range(3)),
                        tuple(f"item{j}" for j in range(24)),
                        tuple(Additive(gen.uniform(0.9, 1.0, 24)) for _ in range(3)))
        calls = []

        def spy(columns, valuations, targets, *args):
            calls.append((columns, valuations, targets,
                          oracle_procedure(columns, valuations, targets, *args)))
            return calls[-1][-1]
        monkeypatch.setitem(pipeline.PROCEDURES, "oracle", spy)
        report = pipeline.run_subadditive(inst, pipeline.PipelineParams(seed=1, proc="oracle"))
        assert report.filtered == {0, 1, 2}
        assert sorted(tuple(sorted(c)) for c, *_ in calls) == sorted(
            g for size in (1, 2, 3) for g in itertools.combinations(range(3), size))
        for columns, valuations, targets, found in calls:
            assert found == _reference_oracle(columns, valuations, targets), sorted(columns)

    def test_evaluates_each_kept_set_once(self, monkeypatch):
        calls = []
        value = Additive.value
        monkeypatch.setattr(Additive, "value", lambda self, items: calls.append(
            (id(self), items)) or value(self, items))
        columns, valuations, targets = _oracle_case(np.random.default_rng(5), "uniform")
        oracle_procedure(columns, valuations, targets)
        searched = calls[:]
        calls.clear()
        _reference_oracle(columns, valuations, targets)
        assert len(searched) == len(set(searched))
        # the search evaluates only kept sets the full scan reaches, and
        # skips some of them
        assert set(searched) <= set(calls)
        assert len(searched) < len(calls)

    def test_near_tie_keeps_the_first_record(self):
        # {2} beats {1} by less than 1e-15: an argmax would pick it
        vals = [Additive([1.0, 1.0 + 2e-15, 1.0 + 2.5e-15])]
        cols = {0: [(frozenset({0}), 0.3), (frozenset({1}), 0.3), (frozenset({2}), 0.4)]}
        assert oracle_procedure(cols, vals, {0: 1.0}) == {0: frozenset({1})}
        assert _reference_oracle(cols, vals, {0: 1.0}) == {0: frozenset({1})}

    def test_no_agents(self):
        assert oracle_procedure({}, [], {}) == {}

    def test_choice_cap(self):
        vals = [Additive(np.ones(1001))] * 2
        cols = {0: [(frozenset({j}), 1.0) for j in range(1001)],
                1: [(frozenset({j}), 1.0) for j in range(1000)]}
        assert 1001 * 1000 > ORACLE_CHOICE_CAP
        with pytest.raises(CapExceeded, match="support combinations exceed the cap"):
            oracle_procedure(cols, vals, {0: 1.0, 1: 1.0})

    @pytest.mark.parametrize("supports", [1, 64])
    def test_node_cap_is_checked_before_enumerating(self, supports, monkeypatch):
        # one profile of 2^24 nodes, or 64 x 64 profiles of 2^12 nodes each,
        # none of which passes the cap alone
        def unreachable(self, items):
            raise AssertionError("a node was enumerated")

        monkeypatch.setattr(Additive, "value", unreachable)
        shared = frozenset(range(24 if supports == 1 else 12))
        cols = {i: [(shared | {100 + supports * i + k}, 1.0) for k in range(supports)]
                for i in (0, 1)}
        vals = [Additive(np.ones(100 + 2 * supports))] * 2
        assert supports ** 2 * 2 ** len(shared) > ORACLE_NODE_CAP
        start = time.perf_counter()
        with pytest.raises(CapExceeded, match="winner enumeration exceeded the node cap"):
            oracle_procedure(cols, vals, {0: 1.0, 1: 1.0})
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("style", ["uniform", "ties", "budgeted", "table", "wide"])
    def test_shared_tables_choose_as_fresh_ones(self, style):
        # one OracleTables serves every subgroup of a case, in any order
        rng = np.random.default_rng(10 + ["uniform", "ties", "budgeted", "table",
                                          "wide"].index(style))
        for case in range(15):
            columns, valuations, targets = _oracle_case(rng, style)
            shared = OracleTables(valuations, targets)
            for size in range(1, len(columns) + 1):
                for group in itertools.combinations(sorted(columns), size):
                    sub = {i: columns[i] for i in group}
                    assert oracle_procedure(sub, valuations, shared) == \
                        oracle_procedure(sub, valuations, targets), f"{style} case {case}"

    def test_values_each_kept_set_once_per_run(self, monkeypatch):
        # the benchmark's engaged near-uniform 3x24 instance (weights
        # U(0.9, 1.0), seed 1): every group and round shares one memo
        gen = np.random.default_rng([3, 24, 1])
        inst = Instance(tuple(f"agent{i}" for i in range(3)),
                        tuple(f"item{j}" for j in range(24)),
                        tuple(Additive(gen.uniform(0.9, 1.0, 24)) for _ in range(3)))
        inside, valued, groups = [], [], []
        value = Additive.value

        def counted(self, items):
            if inside:
                valued.append((id(self), frozenset(items)))
            return value(self, items)

        def spy(columns, *args, search=pipeline.PROCEDURES["oracle"]):
            groups.append(tuple(sorted(columns)))
            inside.append(True)
            try:
                return search(columns, *args)
            finally:
                inside.pop()
        monkeypatch.setattr(Additive, "value", counted)
        monkeypatch.setitem(pipeline.PROCEDURES, "oracle", spy)
        report = pipeline.run_subadditive(inst, pipeline.PipelineParams(seed=1, proc="oracle"))
        assert report.filtered == {0, 1, 2} and report.outcome.round_log
        assert len(groups) == 7  # measuring d searches each group; rounds reuse them
        assert len(valued) == len(set(valued))
        # each agent's supports are bound values in every group that holds it
        supports = {i: {c.items for c in report.split.columns[i]} for i in range(3)}
        assert all((id(inst.valuations[i]), s) in set(valued)
                   for i in range(3) for s in supports[i])


def _brute_node_count(held):
    """(profile, winner) nodes by walking every profile."""
    total = 0
    for profile in itertools.product(*(range(rows.shape[0]) for rows in held)):
        holders = sum(rows[k].astype(np.int64) for rows, k in zip(held, profile))
        total += math.prod(max(int(c), 1) for c in holders)
    return total


class TestNodeCount:
    @pytest.mark.parametrize("block", [None, 5])
    @pytest.mark.parametrize("style", ["ties", "wide"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_contraction_is_the_brute_force_count(self, n, style, block, monkeypatch):
        # `ties` packs 1-8 items densely, so holder counts reach n; `wide`
        # spreads 16-item supports over 150-200 items
        if block is not None:
            monkeypatch.setattr(rounding, "_ORACLE_BLOCK", block)
        rng = np.random.default_rng([n, ["ties", "wide"].index(style)])
        for case in range(12):
            if style == "wide":
                m = int(rng.integers(150, 201))
                held = [np.zeros((int(rng.integers(1, 5)), m), dtype=bool) for _ in range(n)]
                for rows in held:
                    for row in rows:
                        row[rng.choice(m, 16, replace=False)] = True
            else:
                m = int(rng.integers(1, 9))
                held = [rng.random((int(rng.integers(1, 7)), m)) < 0.6 for _ in range(n)]
            count = rounding._count_nodes(held)
            assert round(count) == _brute_node_count(held), f"case {case}"
            assert abs(count - round(count)) < 1e-6 * count

    def test_count_past_the_float_range_raises_cap_exceeded(self):
        # four agents on one 600-item support: 4^600 nodes overflow a float
        cols = {i: [(frozenset(range(600)), 1.0)] for i in range(4)}
        vals = [Additive(np.ones(600))] * 4
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert rounding._count_nodes([np.ones((1, 600), dtype=bool)] * 4) == math.inf
            with pytest.raises(CapExceeded, match="winner enumeration exceeded the node cap"):
                oracle_procedure(cols, vals, {i: 1.0 for i in range(4)})


class TestIteratedRound:
    def test_single_agent_exits_first_round(self):
        v = Additive([1.0] * 8)
        split = sub_split([v], {0: [(frozenset(range(8)), 1.0)]})
        rng = RngStream(21)
        outcome = iterated_round(split, [v], list(range(8)), 0.25,
                                 oracle_procedure, rng)
        assert outcome.exit_rounds == {0: 1}
        slice_one = {j for j, r in outcome.item_rounds.items() if r == 1}
        assert outcome.allocation.bundle(0) == outcome.tentative[0] & slice_one

    def test_geometric_slice_frequency(self):
        # items kept by a round-1 exiter appear with probability delta
        v = Additive([1.0] * 6)
        split = sub_split([v], {0: [(frozenset(range(6)), 1.0)]})
        delta = 0.25
        kept = 0
        total = 0
        for seed in range(3000):
            outcome = iterated_round(split, [v], list(range(6)), delta,
                                     oracle_procedure, RngStream(seed))
            kept += len(outcome.allocation.bundle(0))
            total += len(outcome.tentative[0])
        assert kept / total == pytest.approx(delta, abs=0.01)

    def test_two_round_toy_with_stub_procedure(self):
        # a procedure that satisfies exactly the lowest-id active agent
        v = Additive([1.0] * 14)
        vals = [v, v]
        split = sub_split(vals, {0: [(frozenset(range(7)), 1.0)],
                                 1: [(frozenset(range(7, 14)), 1.0)]})

        def one_at_a_time(columns, valuations, targets, rng, t):
            chosen = min(columns)
            out = {}
            for i in columns:
                out[i] = columns[i][0][0] if i == chosen else frozenset()
            return out

        outcome = iterated_round(split, vals, list(range(14)), 0.25,
                                 one_at_a_time, RngStream(33))
        assert outcome.exit_rounds == {0: 1, 1: 2}
        slice_two = {j for j, r in outcome.item_rounds.items() if r == 2}
        assert outcome.allocation.bundle(1) == outcome.tentative[1] & slice_two

    def test_round_cap_flags_broken_procedure(self):
        v = Additive([1.0] * 8)
        split = sub_split([v], {0: [(frozenset(range(8)), 1.0)]})

        def hopeless(columns, valuations, targets, rng, t):
            return {i: frozenset() for i in columns}

        outcome = iterated_round(split, [v], list(range(8)), 0.25,
                                 hopeless, RngStream(1), extra_rounds=2)
        assert outcome.rounds_capped
        assert outcome.allocation.bundle(0) == frozenset()

    @pytest.mark.parametrize("seed", range(10))
    def test_exit_accounting_inequality(self, seed):
        # with the subset-measured d, at least ceil(delta |A_t|) agents
        # exit every round, hence a (1-delta)^(t-1) >= a - i + 1
        rng = np.random.default_rng(800 + seed)
        m = 12
        vals = [BudgetedAdditive(rng.uniform(0.4, 1, m),
                                 cap=float(rng.uniform(4, 7))) for _ in range(3)]
        cols = {}
        for i in range(3):
            sets = [frozenset(int(j) for j in rng.choice(m, 9, replace=False))
                    for _ in range(2)]
            cols[i] = [(sets[0], 0.5), (sets[1], 0.5)]
        try:
            split = sub_split(vals, cols)
        except ValueError:
            return  # target below 6 nu; not a valid iterated-rounding input
        stream = RngStream(seed)
        d = measured_welfare_factor(split, vals, oracle_procedure, stream)
        delta = 1.0 / (7.0 * d)
        outcome = iterated_round(split, vals, list(range(m)), delta,
                                 oracle_procedure, stream)
        assert not outcome.rounds_capped
        a = len(split.columns)
        for stats in outcome.round_log:
            assert len(stats.exited) >= math.ceil(delta * stats.active) - 1e-9
        order = sorted(outcome.exit_rounds, key=lambda i: (outcome.exit_rounds[i], i))
        for pos, agent in enumerate(order, start=1):
            t = outcome.exit_rounds[agent]
            assert a * (1 - delta) ** (t - 1) >= a - pos + 1 - 1e-9

    def test_determinism(self):
        v = Additive([1.0] * 8)
        split = sub_split([v], {0: [(frozenset(range(8)), 1.0)]})
        a = iterated_round(split, [v], list(range(8)), 0.2, oracle_procedure,
                           RngStream(9)).to_json()
        b = iterated_round(split, [v], list(range(8)), 0.2, oracle_procedure,
                           RngStream(9)).to_json()
        assert a == b


class TestFinalizeXos:
    def test_rematch_beats_initial_when_bundles_shift_preferences(self):
        # rounded bundles make each agent prefer the other's reserved item;
        # the final matching must take the swap
        import math as _math

        from nswforge.matching import initial_matching
        from nswforge.model import Allocation, Instance
        from nswforge.rounding import RoundOutcome, final_matching

        inst = Instance(
            ("a0", "a1"), ("g0", "g1", "g2", "g3"),
            (Xos([[4.0, 0.0, 1.0, 0.0], [0.0, 3.5, 2.0, 0.0]]),
             Xos([[1.0, 4.0, 0.0, 1.0], [2.5, 0.0, 0.0, 3.0]])))
        tau, reserved, remaining, _ = initial_matching(inst)
        assert tau.assignment == {0: 0, 1: 1}
        outcome = RoundOutcome(
            allocation=Allocation({0: frozenset({2}), 1: frozenset({3})}),
            tentative={0: frozenset({2}), 1: frozenset({3})}, contention={})
        alloc, sigma = final_matching(outcome.allocation.bundles, inst, reserved)
        assert sigma.assignment == {0: 1, 1: 0}
        achieved = _math.prod(inst.valuations[i].value(alloc.bundle(i))
                              for i in inst.agents)
        baseline = _math.prod(
            inst.valuations[i].value(outcome.allocation.bundle(i)
                                     | {tau.assignment[i]})
            for i in inst.agents)
        assert achieved > baseline

    def test_empty_bundles_reduce_to_initial_objective(self):
        import math as _math

        from nswforge.matching import initial_matching
        from nswforge.model import Instance
        from nswforge.rounding import final_matching

        rng = np.random.default_rng(31)
        inst = Instance(("a0", "a1", "a2"), tuple(f"g{j}" for j in range(5)),
                        tuple(Additive(rng.uniform(0.1, 1, 5)) for _ in range(3)))
        tau, reserved, *_ = initial_matching(inst)
        _, sigma = final_matching({}, inst, reserved)
        tau_product = _math.prod(inst.valuations[i].value((tau.assignment[i],))
                                 for i in inst.agents)
        sigma_product = _math.prod(inst.valuations[i].value((sigma.assignment[i],))
                                   for i in inst.agents)
        assert sigma_product == pytest.approx(tau_product, rel=1e-12)


class TestCrWelfareQuantile:
    def test_quarter_welfare_holds_in_at_least_95_percent_of_trials(self):
        # nominal d = 4 for XOS inputs: the scaled welfare reaches |A|/4
        # in at least 95% of seeded trials on fuzzed instances
        from nswforge.matching import initial_matching
        from nswforge.model import Instance
        from nswforge.relaxation import solve_eg
        from nswforge.splitting import split_subadditive

        shortfalls = 0
        total = 0
        for inst_seed in range(2):
            rng = np.random.default_rng(4242 + inst_seed)
            n, m = 2, 16
            vals = tuple(Xos(rng.uniform(0.7, 1.0, (3, m))) for _ in range(n))
            inst = Instance(tuple(f"a{i}" for i in range(n)),
                            tuple(f"g{j}" for j in range(m)), vals)
            _, _, remaining, active = initial_matching(inst)
            eg = solve_eg(inst, active, remaining)
            targets = eg.values()
            nu = {i: max(vals[i].value((j,)) for j in remaining) for i in active}
            eligible = [i for i in active if targets[i] >= 6 * nu[i]]
            assert len(eligible) == n, "fixture must keep every agent"
            config = eg.config()
            config.columns = {i: config.columns[i] for i in eligible}
            split = split_subadditive(config, vals,
                                      {i: targets[i] for i in eligible},
                                      {i: nu[i] for i in eligible})
            cols = {i: [(c.items, c.weight) for c in split.columns[i]]
                    for i in eligible}
            vprime = scaled_targets(split, vals)
            for seed in range(500):
                out = cr_procedure(cols, vals, vprime, RngStream(seed), 1)
                welfare = sum(vals[i].value(out[i]) / vprime[i] for i in out)
                total += 1
                if welfare < len(out) / 4.0:
                    shortfalls += 1
        assert shortfalls / total <= 0.05, f"{shortfalls}/{total} below |A|/4"


class TestMeasuredFactor:
    def test_single_agent_factor(self):
        v = Additive([1.0] * 6)
        split = sub_split([v], {0: [(frozenset(range(6)), 1.0)]})
        d = measured_welfare_factor(split, [v], oracle_procedure, RngStream(0))
        targets = scaled_targets(split, [v])
        best = max(v.value(c.items) for c in split.columns[0])
        assert d == pytest.approx(targets[0] / best)

"""Both set-splitting variants: traces, bounds, and failure modes."""

import re

import numpy as np
import pytest

from nswforge.fuzz import split_case
from nswforge.model import InvariantViolation
from nswforge.splitting import (
    check_subadditive_split,
    check_xos_split,
    split_subadditive,
    split_xos,
)
from nswforge.valuations import Additive, BudgetedAdditive, ExplicitTable, Xos

from helpers import reference_split_subadditive


def one_agent_config(*cols):
    return {0: [(frozenset(s), w) for s, w in cols]}


class TestSplitXos:
    def test_unit_additive_trace(self):
        # one full-support set of four unit items: the largest item is
        # reserved, the rest split into floor(4 * 4/4) = 4 parts
        v = Additive([1.0] * 4)
        out = split_xos(one_agent_config(({0, 1, 2, 3}, 1.0)), [v], {0: 4.0})
        cols = out.columns[0]
        assert [sorted(c.items) for c in cols] == [[1], [2], [3], []]
        assert all(c.large_item == 0 for c in cols)
        assert all(c.weight == pytest.approx(0.75) for c in cols)
        assert sum(c.weight for c in cols) == pytest.approx(3.0)
        check_xos_split(out, [v])

    def test_boundary_set_is_kept(self):
        v = Xos([[1, 1, 0], [0, 0, 2]])
        out = split_xos(one_agent_config(({0, 1}, 1.0)), [v], {0: 2.0})
        assert len(out.columns[0]) == 4  # k = floor(4 * 2/2)
        check_xos_split(out, [v])

    def test_low_value_set_discarded_and_mass_recovered(self):
        # v(S1)=1 < V+/4 = 1.125 is discarded; the survivor's k = 7 parts
        # carry 3/4 * 7 * 1/2 = 2.625 total mass
        v = Additive([1.0] + [1.0] * 8)
        s1 = frozenset({0})
        s2 = frozenset(range(1, 9))
        out = split_xos(one_agent_config((s1, 0.5), (s2, 0.5)), [v], {0: 4.5})
        cols = out.columns[0]
        assert all(c.source == s2 for c in cols)
        assert len(cols) == 7
        assert sum(c.weight for c in cols) == pytest.approx(2.625)
        check_xos_split(out, [v])

    def test_rejects_inconsistent_weights(self):
        v = Additive([1.0, 1.0])
        with pytest.raises(ValueError, match="sum"):
            split_xos(one_agent_config(({0}, 0.4)), [v], {0: 1.0})

    @pytest.mark.parametrize("seed", range(40))
    def test_fuzzed_bounds(self, seed):
        split_case(40_000 + seed, ("xos",))


class TestSplitSubadditive:
    def test_unit_additive_trace(self):
        # six unit items, V=6, nu=1: k=3 parts closing at V/3 - nu = 1,
        # remainder absorbs the rest; every part lands in [1, 6]
        v = Additive([1.0] * 6)
        out = split_subadditive(one_agent_config((set(range(6)), 1.0)),
                                [v], {0: 6.0}, {0: 1.0})
        cols = out.columns[0]
        assert len(cols) == 3
        assert all(c.weight == pytest.approx(1 / 3) for c in cols)
        covered = sorted(j for c in cols for j in c.items)
        assert covered == list(range(6))
        check_subadditive_split(out, [v])

    def test_low_value_set_discarded_then_renormalized(self):
        v = Additive([1.0] * 12)
        cols = one_agent_config(({0}, 0.3), (set(range(12)), 0.7))
        target = 0.3 * 1 + 0.7 * 12  # 8.7, so v({0}) = 1 < 2.9 is dropped
        out = split_subadditive(cols, [v], {0: target}, {0: 1.0})
        assert all(c.source == frozenset(range(12)) for c in out.columns[0])
        check_subadditive_split(out, [v])

    def test_oversized_remainder_gets_trimmed(self):
        # 40 unit items at weight 0.2 next to a discarded empty set:
        # V = 8, parts close at 5/3 (two items), and the 12-item remainder
        # is trimmed from value 12 down to at most 8
        v = Additive([1.0] * 40)
        cols = one_agent_config((set(range(40)), 0.2), (set(), 0.8))
        out = split_subadditive(cols, [v], {0: 8.0}, {0: 1.0})
        values = sorted(v.value(c.items) for c in out.columns[0])
        assert values[-1] <= 8.0 + 1e-9
        assert len(out.columns[0]) == 15  # floor(3 * 40 / 8)
        check_subadditive_split(out, [v])

    def test_requires_target_dominating_singletons(self):
        v = Additive([1.0, 1.0])
        with pytest.raises(ValueError, match="6 nu"):
            split_subadditive(one_agent_config(({0, 1}, 1.0)), [v], {0: 2.0}, {0: 1.0})

    def test_superadditive_valuation_caught(self):
        # v(S) = |S|^2 is monotone but not subadditive; the greedy split
        # cannot produce the promised number of parts
        m = 4
        masks = np.arange(1 << m)
        sizes = np.zeros(1 << m)
        for j in range(m):
            sizes += (masks >> j) & 1
        v = ExplicitTable(sizes ** 2, m)
        with pytest.raises(InvariantViolation, match="subadditive"):
            split_subadditive(one_agent_config((set(range(m)), 1.0)),
                              [v], {0: 16.0}, {0: 1.0})

    @pytest.mark.parametrize("seed", range(40))
    def test_fuzzed_bounds(self, seed):
        split_case(41_000 + seed, ("subadditive",))


def reference_case(seed):
    """One to three agents (`Additive`, `Xos` or `BudgetedAdditive`), each
    with random columns over its own block of 16-30 items, so item loads
    stay within one: sets of 1 to all of the block's items, one of them of
    zero weight. V is the larger of 6 max v({j}) and 0.4-1.0 times the
    columns' mixture value, so small sets fall below V/3 and large ones
    leave a last part worth more than V; nu lies between the block's
    largest singleton and V/6, which keeps every greedy part above
    V/3 - nu."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(16, 31, int(rng.integers(1, 4)))
    m = int(sizes.sum())
    blocks = np.split(rng.permutation(m), np.cumsum(sizes)[:-1])
    columns, valuations, targets, nu = {}, [], {}, {}
    for i, block in enumerate(blocks):
        w = rng.uniform(0.3, 1, m) * (rng.uniform(size=m) < 0.9)
        kind = int(rng.integers(3))
        if kind == 0:
            v = Additive(w)
        elif kind == 1:
            v = Xos(np.vstack([w, rng.uniform(0, 1, (int(rng.integers(1, 3)), m))]))
        else:
            v = BudgetedAdditive(w, cap=float(rng.uniform(0.5, 1.0) * w[block].sum()))
        valuations.append(v)
        k = int(rng.integers(3, 7))
        cols = [(frozenset(rng.choice(block, int(rng.integers(1, block.size + 1)),
                                      replace=False).tolist()), float(weight))
                for weight in rng.dirichlet(np.ones(k))]
        cols.insert(int(rng.integers(k + 1)),
                    (frozenset(rng.choice(block, 3, replace=False).tolist()), 0.0))
        columns[i] = cols
        single = float(v.singleton_values()[block].max())
        mix = sum(weight * v.value(c) for c, weight in cols)
        targets[i] = max(6.0 * single, rng.uniform(0.4, 1.0) * mix)
        nu[i] = min(targets[i] / 6.0, max(single, rng.uniform(0.85, 1.0) * targets[i] / 6.0))
    return columns, valuations, targets, nu


def test_subadditive_split_matches_the_reference():
    """Column for column, in order: the same items, source and weight to
    the bit as the plain greedy-then-trim split in `helpers`, or the same
    error. The draws cover each family, trimmed parts, zero-weight columns
    and sources below V/3."""
    seen = {"split": 0, "raised": 0, "trimmed": 0, "zero weight": 0, "below V/3": 0}
    kinds = set()
    for seed in range(60):
        columns, valuations, targets, nu = reference_case(seed)
        try:
            want = reference_split_subadditive(columns, valuations, targets, nu)
        except InvariantViolation as err:
            with pytest.raises(InvariantViolation, match=f"^{re.escape(str(err))}$"):
                split_subadditive(columns, valuations, targets, nu)
            seen["raised"] += 1
            continue
        out = split_subadditive(columns, valuations, targets, nu)
        assert list(out.columns) == list(want)
        for i, cols in out.columns.items():
            assert [(c.items, c.weight.hex(), c.source, c.large_item) for c in cols] == [
                (items, weight.hex(), source, None) for items, weight, source in want[i]]
            v, target = valuations[i], targets[i]
            kinds.add(v.kind)
            seen["zero weight"] += any(w == 0 for _, w in columns[i])
            seen["below V/3"] += any(w > 0 and v.value(s) < target / 3 for s, w in columns[i])
            # a source's parts cover it unless one of them was trimmed
            seen["trimmed"] += sum(frozenset().union(*(c.items for c in cols if c.source == s)) != s
                                   for s in {c.source for c in cols})
        seen["split"] += 1
    assert kinds == {"additive", "xos", "budgeted_additive"}
    assert all(seen.values()), seen

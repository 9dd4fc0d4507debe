"""Valuation families and their oracles: value, demand, XOS clause.

All families are monotone with value 0 on the empty set by construction
(explicit tables are checked separately by ``model.validate_valuation``).
Valuations are immutable and every oracle is a pure function, so they are
safe to share across concurrent workers. A `Valuation.run_copy` adds a memo
of `value` and belongs to the one pipeline run that made it. An `Additive`
valuation is an `Xos` with one clause, its weights, and every XOS oracle
serves it as one; only its evaluation and serialization are its own.

Budgeted-additive and table valuations have no analytic demand: their
demand is `table_demand` over the valuation's values of every subset of
the universe, one `subset_values` row. A `demand` call enumerates the row
afresh; a `concave_ext` call, which repeats queries, enumerates it once.

This module alone enumerates subsets and owns their layout: bit t of a
mask is the t-th item of its universe, and masks run in counter order,
the package's one order of subsets. Every demand tie goes to the least
mask, which is inclusion-minimal among the tied sets (a tied proper
subset has the smaller mask), so the analytic and enumerated oracles
return the same set on the same function. `subset_values` tabulates
valuations over every subset, as the exact oracles and the configuration
relaxation do, and is the one enumeration that `EXHAUSTIVE_CAP` bounds;
`mask_sums` prices every subset of a universe, as `table_demand` and the
configuration relaxation do; `mask_items` and `mask_incidence` decode
masks for the modules that index such tables.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

import numpy as np

EXHAUSTIVE_CAP = 16  # largest universe enumerated by brute-force oracles
_ROW_LOOP_ROWS = 8  # up to this many rows, numpy's per-row max beats a clause-major copy


class CapExceeded(RuntimeError):
    """An enumeration-based oracle was asked to search too large a space."""


def _nonnegative(values, ndim: int) -> np.ndarray:
    """`values` as float weights (ndim 1: a nonempty vector) or clauses
    (ndim 2: at least one clause of at least one item; a vector is one
    clause), every entry finite and nonnegative, or ValueError."""
    name = "weights" if ndim == 1 else "clauses"
    array = np.asarray(values, dtype=float)
    if ndim == 2:
        array = np.atleast_2d(array)
        if array.ndim == 2 and array.shape[0] == 0:
            raise ValueError("at least one clause required")
    if array.ndim != ndim or array.size == 0:
        raise ValueError(f"{name} must be a nonempty {'vector' if ndim == 1 else 'matrix'}")
    if not np.all(np.isfinite(array)) or array.min() < 0:
        raise ValueError(f"{name} must be finite and nonnegative")
    return array


# the item types `_item_row` and `item_universe` take: an integer read
# would truncate a float (1.7 is item 1) and read a bool as item 0 or 1
_INTEGER_TYPES = frozenset([int, *(np.dtype(code).type for code in np.typecodes["AllInteger"])])


def _item_row(items: Iterable[int], m: int) -> np.ndarray:
    """The boolean indicator row of `items` over range(m); ValueError if an
    item is not an integer (Python or numpy), or lies outside range(m),
    where its index would wrap or overrun."""
    items = tuple(items)
    if not _INTEGER_TYPES.issuperset(map(type, items)):
        raise ValueError("items must be integers")
    if items and (min(items) < 0 or max(items) >= m):
        raise ValueError(f"items must lie in range({m})")
    row = np.zeros(m, dtype=bool)
    row.put(items, True)
    return row


class Valuation:
    """Base class; subclasses provide vectorized evaluation over rows."""

    kind = "abstract"
    m: int
    _memo: dict[frozenset[int], float] | None = None

    def value(self, items: Iterable[int]) -> float:
        """v(S) for a set of item indices.

        A copy made by `run_copy` keeps a memo of v(S) keyed by the set, so
        it evaluates each set once; a miss runs the plain evaluation on the
        set, whose indicator row, and so whose value, does not depend on
        item order or repeats; there an item that is not an integer
        (Python or numpy) or lies outside range(m) raises ValueError. The
        memo lives as long as its copy: one pipeline run holds the copies
        and drops them when it returns, or, when it raises, once the
        exception is released, so no memo outlives its run and a valuation
        itself keeps none."""
        memo = self._memo
        if memo is None:
            return self._evaluate(items)
        key = items if type(items) is frozenset else frozenset(items)
        found = memo.get(key)
        if found is None:
            found = memo[key] = self._evaluate(key)
        return found

    def _evaluate(self, items: Iterable[int]) -> float:
        return float(self.value_rows(_item_row(items, self.m)[None, :])[0])

    def value_rows(self, rows: np.ndarray) -> np.ndarray:
        """Evaluate v on a (k, m) boolean indicator matrix, one set per row.

        A row of a many-row call may differ from `value` on the same set in
        the last bit, since the matrix product need not sum each row in the
        order a one-row call does: over 900 random cases (300 each of
        `Additive`, `Xos` and `BudgetedAdditive`, 4-40 items, 2-40 rows), 713
        had at least one such row. Callers that compare values with a 1e-15
        rule against `value`'s results should not mix the two."""
        raise NotImplementedError

    def singleton_values(self) -> np.ndarray:
        return self.value_rows(np.eye(self.m, dtype=bool))

    def run_copy(self) -> Valuation:
        """A shallow copy, of the same class and sharing every array, with
        an empty memo of `value`."""
        copy = object.__new__(type(self))
        copy.__dict__.update(self.__dict__)
        copy._memo = {}
        return copy

    def to_config(self) -> dict:
        raise NotImplementedError


class Xos(Valuation):
    """Max over a nonempty list of nonnegative additive clauses."""

    kind = "xos"

    def __init__(self, clauses):
        self.clauses = _nonnegative(clauses, 2)
        self.m = self.clauses.shape[1]

    def value_rows(self, rows: np.ndarray) -> np.ndarray:
        """Each row's best clause sum. `max(axis=1)` reduces each row's
        few clause sums in its own step of a loop over the rows, about
        50 ns a row, which is most of a 2^k-row subset table's cost. So
        past `_ROW_LOOP_ROWS` rows the sums are copied clause-major and
        reduced by elementwise maxima across the clauses, one pass over
        all rows per clause (4,096 rows of 3 clauses: 0.23 -> 0.06 ms).
        A maximum is exact, so both paths give the same bits; the product
        is the same call on either."""
        sums = rows @ self.clauses.T
        if len(sums) <= _ROW_LOOP_ROWS:
            return sums.max(axis=1)
        return np.ascontiguousarray(sums.T).max(axis=0)

    def singleton_values(self) -> np.ndarray:
        return self.clauses.max(axis=0)

    def to_config(self) -> dict:
        return {"kind": "xos", "clauses": self.clauses.tolist()}

    def __eq__(self, other):
        return isinstance(other, Xos) and np.array_equal(self.clauses, other.clauses)


class Additive(Xos):
    """One additive clause: an `Xos` whose `clauses` is the single row
    `weights`, evaluated by its own sum."""

    kind = "additive"

    def __init__(self, weights):
        self.weights = _nonnegative(weights, 1)
        self.m = self.weights.size
        self.clauses = self.weights[None, :]

    def value_rows(self, rows: np.ndarray) -> np.ndarray:
        return rows @ self.weights

    def to_config(self) -> dict:
        return {"kind": "additive", "weights": self.weights.tolist()}

    def __eq__(self, other):
        return isinstance(other, Additive) and np.array_equal(self.weights, other.weights)


class BudgetedAdditive(Valuation):
    """min(cap, additive sum); subadditive but kept outside the XOS lane."""

    kind = "budgeted_additive"

    def __init__(self, weights, cap: float):
        self.weights = _nonnegative(weights, 1)
        self.cap = float(cap)
        if not np.isfinite(self.cap) or self.cap < 0:
            raise ValueError("cap must be finite and nonnegative")
        self.m = self.weights.size

    def value_rows(self, rows: np.ndarray) -> np.ndarray:
        return np.minimum(rows @ self.weights, self.cap)

    def to_config(self) -> dict:
        return {"kind": "budgeted_additive", "weights": self.weights.tolist(),
                "cap": self.cap}

    def __eq__(self, other):
        return (isinstance(other, BudgetedAdditive) and self.cap == other.cap
                and np.array_equal(self.weights, other.weights))


class ExplicitTable(Valuation):
    """Full 2^m lookup table; only usable for universes of at most 16 items."""

    kind = "table"

    def __init__(self, table, m: int):
        if m > EXHAUSTIVE_CAP:
            raise CapExceeded(f"explicit tables support at most {EXHAUSTIVE_CAP} items")
        self.m = m
        self.table = np.asarray(table, dtype=float)
        if self.table.shape != (1 << m,):
            raise ValueError("table must hold one value per subset")
        if not np.all(np.isfinite(self.table)) or self.table.min() < 0:
            raise ValueError("table values must be finite and nonnegative")
        self._bits = (1 << np.arange(m)).astype(np.int64)

    def value_rows(self, rows: np.ndarray) -> np.ndarray:
        masks = rows.astype(np.int64) @ self._bits
        return self.table[masks]

    def to_config(self) -> dict:
        values = {}
        for mask in range(1, 1 << self.m):
            key = ",".join(str(j) for j in range(self.m) if mask >> j & 1)
            values[key] = float(self.table[mask])
        return {"kind": "table", "values": values}

    def __eq__(self, other):
        return (isinstance(other, ExplicitTable) and self.m == other.m
                and np.array_equal(self.table, other.table))


class DemandResult(NamedTuple):
    items: frozenset[int]
    utility: float


class XosClause(NamedTuple):
    index: int
    weights: np.ndarray


def _all_subset_rows(universe: np.ndarray, m: int) -> np.ndarray:
    """Indicator rows for every subset of `universe`, in mask-counter order."""
    k = universe.size
    masks = np.arange(1 << k, dtype="<u4")
    # bit t of every mask is column t of its unpacked little-endian bytes;
    # shifting instead makes (2^k, k) int64 intermediates, 8 MB each at k=16
    picked = np.unpackbits(masks.view(np.uint8).reshape(-1, 4), axis=1, bitorder="little")
    rows = np.zeros((1 << k, m), dtype=bool)
    rows[:, universe] = picked[:, :k]
    return rows


def subset_values(vals: Sequence[Valuation], universe: Sequence[int]) -> list[np.ndarray]:
    """Each valuation's value of every subset of `universe`, indexed by
    mask. The indicator rows are enumerated once per call, at the
    valuations' shared width, and every valuation is evaluated on them. A
    universe past `EXHAUSTIVE_CAP` items raises `CapExceeded` before any
    row is enumerated; at the cap with m = 16 the rows take 1 MB and each
    valuation's values 0.5 MB."""
    universe = np.asarray(universe, dtype=np.int64)
    if universe.size > EXHAUSTIVE_CAP:
        raise CapExceeded(f"a subset table of {universe.size} items exceeds the "
                          f"enumeration cap of {EXHAUSTIVE_CAP}")
    rows = _all_subset_rows(universe, vals[0].m)
    return [v.value_rows(rows) for v in vals]


def mask_items(mask: int, universe: Sequence[int]) -> frozenset[int]:
    """The items of `universe` whose bits `mask` sets, as Python ints."""
    return frozenset(int(j) for t, j in enumerate(universe) if mask >> t & 1)


def mask_incidence(masks: np.ndarray, k: int) -> np.ndarray:
    """Each mask's 0/1 incidence row over the k positions of its universe."""
    return masks[:, None] >> np.arange(k) & 1


def mask_sums(w: np.ndarray) -> np.ndarray:
    """sum_{t in S} w_t for every set S of the last axis's k positions,
    indexed by mask (bit t for position t), as `subset_values` is."""
    k = w.shape[-1]
    sums = np.zeros(w.shape[:-1] + (1 << k,))
    for t in range(k):
        np.add(sums[..., :1 << t], w[..., t, None], out=sums[..., 1 << t:2 << t])
    return sums


def table_demand(values: np.ndarray, prices: np.ndarray, universe: np.ndarray) -> DemandResult:
    """Demand at `prices` (one per item) over a sorted universe, for the
    valuation whose values of the universe's subsets, indexed by mask, are
    `values`: the first best set, of least mask. Each set's price is its
    items' prices summed in position order from 0.0."""
    utilities = values - mask_sums(prices[universe])
    best = int(np.argmax(utilities))
    return DemandResult(mask_items(best, universe), float(utilities[best]))


def item_universe(v: Valuation, items: Iterable[int] | None = None) -> np.ndarray:
    """The distinct items of `items` (every item by default), sorted, as an
    int64 array; ValueError if one is not an integer (Python or numpy) or
    lies outside range(v.m), as `_item_row` checks."""
    if items is None:
        return np.arange(v.m, dtype=np.int64)
    return np.flatnonzero(_item_row(items, v.m)).astype(np.int64)


def demand(v: Valuation, prices, items: Iterable[int] | None = None) -> DemandResult:
    """Utility-maximizing set for v(S) - p(S), restricted to `items`.

    Every family breaks ties by the least mask over the sorted universe,
    which is inclusion-minimal among the tied sets. XOS demand, an
    `Additive` valuation's included, is analytic: each clause keeps its
    items of positive gain, and the best clause wins. Every tied set is
    such a set plus items of zero gain, so the least mask is the least of
    the best clauses' sets: at the last position where two sets differ,
    the one without that item. Other families take `table_demand` over v's
    `subset_values` row of the allowed universe, enumerated afresh by each
    call, so the universe must have at most `EXHAUSTIVE_CAP` items (past
    that, `CapExceeded` is raised before enumerating). `prices` holds one
    price per item of v, and the universe is read by `item_universe`;
    either raises ValueError otherwise.
    """
    p = np.asarray(prices, dtype=float)
    if p.shape != (v.m,):
        raise ValueError(f"prices must hold {v.m} entries, one per item")
    if not np.all(np.isfinite(p)):
        raise ValueError("prices must be finite")
    universe = item_universe(v, items)
    if isinstance(v, Xos):
        best, best_util = None, 0.0
        for gains in v.clauses[:, universe] - p[universe]:
            pos = gains > 0
            util = float(gains[pos].sum())
            if best is None or util > best_util or (
                    util == best_util and pos[::-1].tolist() < best[::-1].tolist()):
                best, best_util = pos, util
        return DemandResult(frozenset(universe[best].tolist()), best_util)
    (values,) = subset_values([v], universe)
    return table_demand(values, p, universe)


def xos_clause(v: Valuation, items: Iterable[int]) -> XosClause:
    """A clause achieving v(S) on S; lowest clause index wins ties. A
    one-clause valuation (every `Additive`) returns a copy of its clause 0
    without scoring it. An item that is not an integer (Python or numpy)
    or lies outside range(v.m) raises ValueError."""
    if not isinstance(v, Xos):
        raise TypeError(f"XOS oracle called on a {v.kind} valuation")
    row = _item_row(items, v.m)
    if len(v.clauses) == 1:
        return XosClause(0, v.clauses[0].copy())
    scores = v.clauses @ row
    best = int(np.argmax(scores))  # argmax returns the first maximizer
    return XosClause(best, v.clauses[best].copy())


def singleton_max(v: Valuation, items: Iterable[int]) -> float:
    """max of v({j}) over j in `items`; 0 on the empty collection. An item
    that is not an integer (Python or numpy) or lies outside range(v.m)
    raises ValueError."""
    return float(v.singleton_values()[_item_row(items, v.m)].max(initial=0.0))

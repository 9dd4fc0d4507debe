"""Seeded random instance generators for fuzz tests and experiments."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Instance
from .rounding import STREAM_GENERATE, RngStream
from .valuations import Additive, BudgetedAdditive, ExplicitTable, Valuation, Xos, subset_values

FAMILIES = ("additive", "xos", "budgeted_additive", "table")
WEIGHT_DISTRIBUTIONS = ("uniform", "integers", "heavy", "near_uniform")
TABLE_STYLES = ("xos", "budgeted_mix")  # budgeted_mix: beyond-XOS coverage


@dataclass(frozen=True)
class GenSpec:
    family: str
    n: int
    m: int
    weights: str = "uniform"
    clauses: int = 3
    cap_ratio: float = 0.4
    table_style: str = "xos"
    seed: int = 0

    def validate(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.weights not in WEIGHT_DISTRIBUTIONS:
            raise ValueError(f"unknown weight distribution {self.weights!r}")
        if self.n < 1 or self.m < self.n:
            raise ValueError("need 1 <= n <= m")
        if self.clauses < 1 or self.cap_ratio <= 0:
            raise ValueError("clauses and cap_ratio must be positive")
        if self.family == "table" and self.m > 12:
            raise ValueError("table instances support at most 12 items")
        if self.table_style not in TABLE_STYLES:
            raise ValueError(f"unknown table style {self.table_style!r}")


def _draw_weights(gen: np.random.Generator, dist: str, m: int) -> np.ndarray:
    if dist == "uniform":
        return gen.uniform(0.0, 1.0, m)
    if dist == "integers":
        return gen.integers(1, 11, m).astype(float)
    if dist == "near_uniform":
        # every item worth about the same: the subadditive lane's 6*nu
        # filter passes once an agent's target spans six items
        return gen.uniform(0.9, 1.0, m)
    # heavy-tailed: Pareto(1.5), clipped to keep values desk-scale
    return np.minimum(1.0 + gen.pareto(1.5, m), 50.0)


def _agent_valuation(spec: GenSpec, gen: np.random.Generator) -> Valuation:
    m = spec.m
    if spec.family == "additive":
        return Additive(_draw_weights(gen, spec.weights, m))
    if spec.family == "xos":
        rows = np.stack([_draw_weights(gen, spec.weights, m)
                         for _ in range(spec.clauses)])
        # zero out random entries so clauses specialize in different items
        rows = rows * (gen.uniform(size=rows.shape) > 0.3)
        if not rows.any():
            rows[0, 0] = 1.0
        return Xos(rows)
    if spec.family == "budgeted_additive":
        w = _draw_weights(gen, spec.weights, m)
        return BudgetedAdditive(w, cap=float(spec.cap_ratio * w.sum()))
    if spec.table_style == "xos":
        rows = np.stack([_draw_weights(gen, spec.weights, m)
                         for _ in range(max(2, spec.clauses))])
        (values,) = subset_values([Xos(rows)], range(m))
        return ExplicitTable(values, m)
    # budgeted mixture: a sum of capped additive pieces stays subadditive
    # but has no compact clause list
    parts = [BudgetedAdditive(_draw_weights(gen, spec.weights, m),
                              cap=float(spec.cap_ratio * gen.uniform(0.5, 1.5) * m / 2))
             for _ in range(2)]
    return ExplicitTable(sum(subset_values(parts, range(m))), m)


def generate(spec: GenSpec) -> Instance:
    """Deterministic instance from the spec's seed; one substream per agent."""
    spec.validate()
    rng = RngStream(spec.seed)
    valuations = tuple(_agent_valuation(spec, rng.substream(STREAM_GENERATE, i))
                       for i in range(spec.n))
    return Instance(tuple(f"agent{i}" for i in range(spec.n)),
                    tuple(f"item{j}" for j in range(spec.m)), valuations)

"""In-memory span and count tracer, installed by wrapping the program's
functions at the names their callers look up.

Nothing inside the program changes: each wrapper replaces a module
attribute, a dict entry or a class method for the duration of a traced
pass and is removed afterwards. Spans are (name, start, end, parent) with
the parent given as an index into the span list; the benchmark opens one
root span per op, so all spans of an op share that root.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._restore: list = []
        self._in_value = 0

    # -- recording ---------------------------------------------------------

    def run(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called `name`."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent)
            self.calls[name] += 1

    def _span_wrapper(self, name, fn, on_result):
        def traced(*args, **kwargs):
            result = self.run(name, fn, *args, **kwargs)
            if on_result is not None:
                on_result(self.counts, result)
            return result
        return traced

    # -- installing --------------------------------------------------------

    def span_attr(self, owner, attr: str, name: str, on_result=None) -> None:
        """Replace owner.attr (a module function) by a span-recording wrapper."""
        original = getattr(owner, attr)
        setattr(owner, attr, self._span_wrapper(name, original, on_result))
        self._restore.append(lambda: setattr(owner, attr, original))

    def span_item(self, mapping: dict, key, name: str) -> None:
        original = mapping[key]
        mapping[key] = self._span_wrapper(name, original, None)
        self._restore.append(lambda: mapping.__setitem__(key, original))

    def count_values(self, base, classes) -> None:
        """Count base.value calls and the value_rows calls made outside them
        (the batch evaluations), without spans: they are too frequent."""
        value = base.__dict__["value"]

        def counted_value(v, items):
            self.calls["valuations.value"] += 1
            self._in_value += 1
            try:
                return value(v, items)
            finally:
                self._in_value -= 1
        base.value = counted_value
        self._restore.append(lambda: setattr(base, "value", value))
        for cls in classes:
            rows = cls.__dict__.get("value_rows")
            if rows is None:
                continue

            def counted_rows(v, r, _rows=rows):
                if not self._in_value:
                    self.calls["valuations.value_rows"] += 1
                return _rows(v, r)
            cls.value_rows = counted_rows
            self._restore.append(lambda cls=cls, rows=rows: setattr(cls, "value_rows", rows))

    def remove(self) -> None:
        while self._restore:
            self._restore.pop()()

    # -- reporting ---------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for idx, (name, start, end, _) in enumerate(self.spans):
            out[name] += (end - start) - child[idx]
        return dict(out)

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines: [name, start, end, parent]."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are read from."""
    from nswforge import matching, oracle, pipeline, relaxation, valuations

    def colgen_rounds(counts, ext):
        counts["relaxation.colgen_rounds"] += ext.rounds

    tracer.span_attr(pipeline, "run_xos", "pipeline.run_xos")
    tracer.span_attr(pipeline, "run_subadditive", "pipeline.run_subadditive")
    tracer.span_attr(pipeline, "initial_matching", "matching.initial_matching")
    tracer.span_attr(matching, "product_matching", "matching.product_matching")
    tracer.span_attr(pipeline, "solve_eg", "relaxation.solve_eg")
    tracer.span_attr(relaxation, "concave_ext", "relaxation.concave_ext", colgen_rounds)
    tracer.span_attr(relaxation, "maximize", "_lp.maximize")
    tracer.span_attr(oracle, "maximize", "_lp.maximize")
    tracer.span_attr(relaxation, "demand", "valuations.demand")
    tracer.span_attr(pipeline, "split_xos", "splitting.split")
    tracer.span_attr(pipeline, "split_subadditive", "splitting.split")
    tracer.span_attr(pipeline, "measured_welfare_factor", "rounding.welfare_factor")
    tracer.span_attr(pipeline, "round_xos", "rounding.round")
    tracer.span_attr(pipeline, "iterated_round", "rounding.round")
    for key in list(pipeline.PROCEDURES):
        tracer.span_item(pipeline.PROCEDURES, key, "rounding.procedure")
    tracer.span_attr(oracle, "exact_nsw", "oracle.exact_nsw")
    tracer.span_attr(oracle, "exact_config_lp", "oracle.exact_config_lp")
    tracer.count_values(valuations.Valuation,
                        [valuations.Additive, valuations.Xos,
                         valuations.BudgetedAdditive, valuations.ExplicitTable])

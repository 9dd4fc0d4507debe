"""Helpers shared by several test modules."""

import gc

import numpy as np


def cyclic_garbage(call, raises=()):
    """The number of unreachable objects the collector finds once `call()`
    has returned, or raised one of `raises` (which must then be raised).
    The call runs once first, so a lazy import it makes does not count.
    Then the collector runs, is turned off for the measured call so nothing
    the call leaves is collected early, and runs again; the exception info
    is already released by then. The collector's state is restored in a
    `finally`."""
    def run():
        try:
            call()
        except raises:
            return
        assert not raises, f"expected {raises}"
    run()
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


def column_masses(cols, m):
    """The item masses sum_S w_S 1_S of one agent's (set, weight) columns,
    as a length-m vector."""
    x = np.zeros(m)
    for items, w in cols:
        for j in items:
            x[j] += w
    return x


def reference_xos_value_rows(clauses, rows):
    """`Xos.value_rows` as first written: the clause sums `rows @
    clauses.T`, and each row's maximum by numpy's per-row reduction."""
    return (rows @ clauses.T).max(axis=1)


def reference_disjoint_pairs(bits):
    """`oracle._disjoint_pairs` as first written: int64 masks in their
    enumeration order, a stable sort of the int64 unions, and each run's
    start where the sorted union changes."""
    rest = sub = np.zeros(1, dtype=np.int64)
    for t in range(bits):
        rest, sub = (np.concatenate([rest, rest | 1 << t, rest]),
                     np.concatenate([sub, sub, sub | 1 << t]))
    order = np.argsort(rest | sub, kind="stable")
    rest, sub = rest[order], sub[order]
    return rest, sub, np.flatnonzero(np.diff(rest | sub, prepend=-1))


def reference_split_subadditive(columns, valuations, targets, nu):
    """The subadditive split as first written, kept as a plain reference:
    greedy parts in item order, each trimmed by `_reference_trim`, which
    reads the singleton values and sorts the part every time. Returns each
    agent's list of (items, weight, source), weights normalized; raises
    where `split_subadditive` raises."""
    import math

    from nswforge.model import InvariantViolation

    out = {}
    for agent, cols in columns.items():
        v = valuations[agent]
        target = float(targets[agent])
        single_cap = float(nu[agent])
        keep_threshold = target / 3.0
        part_target = target / 3.0 - single_cap
        raw = []
        for source, weight in cols:
            if weight <= 0:
                continue
            val = v.value(source)
            if val < keep_threshold - 1e-9:
                continue
            pieces = math.floor(3.0 * val / target + 1e-9)
            order = sorted(source)
            idx = 0
            parts = []
            for _ in range(pieces - 1):
                cur = []
                while idx < len(order):
                    cur.append(order[idx])
                    idx += 1
                    if v.value(cur) >= part_target - 1e-12:
                        break
                parts.append(cur)
            parts.append(list(order[idx:]))
            for part in parts:
                if not part or v.value(part) < part_target - 1e-9:
                    raise InvariantViolation(
                        f"agent {agent}: greedy split of {sorted(source)} "
                        f"failed; valuation is not subadditive?")
                raw.append((frozenset(_reference_trim(part, v, target)), weight, source))
        mass = sum(w for _, w, _ in raw)
        if mass < 1.0 - 1e-9:
            raise InvariantViolation(
                f"agent {agent}: pre-normalization mass {mass} below 1; "
                f"weights and targets are inconsistent")
        out[agent] = [(items, w / mass, source) for items, w, source in raw]
    return out


def _reference_trim(part, v, cap):
    """Drop lowest-singleton-value items while the part is worth more than cap."""
    singles = v.singleton_values()
    part = sorted(part, key=lambda j: (singles[j], j))
    while part and v.value(part) > cap + 1e-9:
        part.pop(0)
    return sorted(part)


def reference_hessian_pattern(clauses, var, zero, dim):
    """`relaxation._hessian_pattern` as first written: every pair of mass
    variables from a meshgrid, kept where the two are on one item or of
    one agent. Returns the same five arrays: flat index, capacity row,
    floor row, agent and outer product."""
    m = clauses[0].shape[1]
    rows = np.array([c.shape[0] for c in clauses])
    var_agent = np.repeat(np.arange(len(clauses)), rows * m)
    var_item = np.tile(np.arange(m), int(rows.sum()))
    var_coef = np.concatenate([c.ravel() for c in clauses])
    a, b = np.meshgrid(np.arange(var.size), np.arange(var.size), indexing="ij")
    a, b = a.ravel(), b.ravel()
    same_item, same_agent = var_item[a] == var_item[b], var_agent[a] == var_agent[b]
    keep = same_item | same_agent
    a, b, same_item, same_agent = a[keep], b[keep], same_item[keep], same_agent[keep]
    return (var[a] + var[b] * dim, np.where(same_item, var_item[a], zero),
            np.where(same_item & same_agent, m + var_agent[a] * m + var_item[a], zero),
            var_agent[a], np.where(same_agent, var_coef[a] * var_coef[b], 0.0))


def reference_systematic_columns(x, items):
    """`relaxation.systematic_columns` as first written, with its own
    cuts, ranks and pooled frozensets."""
    ends = np.concatenate([[0.0], np.cumsum(x)])
    cuts = np.append(np.unique(ends - np.floor(ends)), 1.0)
    mid = (cuts[:-1] + cuts[1:]) / 2.0
    ranks = np.ceil(ends[None, :] - mid[:, None])
    labels = np.fromiter(items, dtype=np.int64)
    columns = {}
    for member, width in zip(ranks[:, 1:] > ranks[:, :-1], np.diff(cuts)):
        key = frozenset(labels[member].tolist())
        columns[key] = columns.get(key, 0.0) + float(width)
    return list(columns.items())


def reference_clause_columns(clauses, y, beta, x, items):
    """`relaxation.clause_columns` as first written: a pool of frozensets
    (the empty set, then each clause's systematic sets in order) and an
    incidence rebuilt from it, into `vertex_columns`."""
    from nswforge.relaxation import vertex_columns

    pool = dict.fromkeys([frozenset()])
    for y_k, b_k in zip(y, beta):
        pool.update((s, None) for s, _ in
                    reference_systematic_columns(np.clip(y_k / b_k, 0.0, 1.0), items))
    position = {j: t for t, j in enumerate(items)}
    inc = np.zeros((len(pool), len(items)), dtype=bool)
    for r, s in enumerate(pool):
        inc[r, [position[j] for j in s]] = True
    return vertex_columns((inc @ clauses.T).max(axis=1), inc, x, items)

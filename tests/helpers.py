"""Helpers shared by several test modules."""

import numpy as np


def column_masses(cols, m):
    """The item masses sum_S w_S 1_S of one agent's (set, weight) columns,
    as a length-m vector."""
    x = np.zeros(m)
    for items, w in cols:
        for j in items:
            x[j] += w
    return x

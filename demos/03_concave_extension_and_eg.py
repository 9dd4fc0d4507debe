"""The concave extension, its dual certificate, and the EG relaxation.

v+(x) prices a fractional bundle by the best distribution over sets that
respects the per-item masses. Column generation only ever asks the demand
oracle "what would you buy at prices p", yet terminates with an exact
primal/dual pair. The Eisenberg-Gale solver then maximizes the sum of
log v+ over the item-capacity polytope, hands out each agent's columns
from its own barrier, and certifies the scaled-optimum contract against
the exact configuration LP.
"""

import numpy as np

from nswforge import (
    Instance,
    Xos,
    concave_ext,
    exact_config_lp,
    scaled_optimum_check,
    solve_eg,
)
from nswforge.relaxation import trace_csv

v = Xos([[2.0, 0.0, 1.0], [0.0, 2.0, 1.0]])
x = np.array([0.5, 0.5, 0.4])

print("== concave extension at fractional masses ==")
ext = concave_ext(v, x)
print(f"  v+(x) = {ext.value:.4f} after {ext.rounds} demand queries")
for items, weight in ext.columns:
    print(f"    column {sorted(items)} weight {weight:.4f} value {v.value(items):.3f}")
print(f"  dual certificate: q = {ext.q:.4f}, p = {np.round(ext.prices, 4)}")
print(f"  strong duality gap: {abs(ext.value - ext.q - ext.prices @ x):.2e}")

print("\n== Eisenberg-Gale relaxation ==")
inst = Instance(("a0", "a1"), ("g0", "g1", "g2"),
                (v, Xos([[1.0, 1.0, 0.2], [0.2, 0.2, 2.0]])))
eg = solve_eg(inst, [0, 1], [0, 1, 2])
print(f"  objective {eg.objective:.6f} after {eg.iterations} iterations "
      f"(floor eps = {eg.epsilon:.4f}, gap {eg.gap:.2e})")
for i in eg.agents:
    print(f"  agent {i}: target V = {eg.values()[i]:.4f}, "
          f"x = {np.round(eg.x.agent_vector(i, 3), 3)}, {len(eg.columns[i])} columns")

ratio, ok = scaled_optimum_check(inst, eg, alpha=0.25)
print(f"\n  scaled config-LP optimum: {ratio:.4f} <= "
      f"{1.25 * len(eg.agents):.2f}: {ok}")
print(f"  (exact fractional welfare optimum: "
      f"{exact_config_lp(inst).optimum:.4f})")
print("\n  first diagnostics rows:")
for line in trace_csv(eg.trace).splitlines()[:6]:
    print("   ", line)

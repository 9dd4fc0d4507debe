"""Tail bounds for subadditive functions of random sets, empirically.

Iterated rounding hands each exiting agent a random slice of its set;
these are the bounds that keep such slices from collapsing. Every check
compares a Monte-Carlo estimate against its closed-form bound plus three
standard errors. The cascade identity at the end is the reason a
geometrically thinning tail of unlucky agents is affordable at all.
"""

import dataclasses

import numpy as np

from nswforge import (
    BudgetedAdditive,
    TailExperiment,
    expectation_lower,
    lower_tail,
    median_expectation,
    nsw_product_identity,
    two_sided_tail,
)

rng = np.random.default_rng(14)
m = 12
valuation = BudgetedAdditive(rng.uniform(0.4, 1.0, m), cap=3.5)
exp = TailExperiment.bernoulli(valuation, range(m), p=0.5,
                               trials=100_000, q=2, k=3, seed=99)

print(f"budgeted-additive function on {m} items, cap {valuation.cap}, "
      f"singleton cap {exp.singleton_cap():.3f}")
print(f"{exp.trials} trials at inclusion probability 0.5\n")

checks = [expectation_lower(dataclasses.replace(exp, k=2))]
median = float(np.sort(exp.sample_values() / exp.singleton_cap())
               [(exp.trials - 1) // 2])
checks.append(two_sided_tail(exp, a=median))
checks.append(median_expectation(exp))
checks.append(lower_tail(exp))

for res in checks:
    rel = "<=" if res.name != "expectation_lower" else ">="
    print(f"  {res.name:20s} empirical {res.empirical:10.5f} {rel} "
          f"bound {res.bound:8.5f} (slack {res.slack:.5f}) "
          f"{'PASS' if res.passed else 'FAIL'}")

print("\ncascade identity:")
for terms in (1, 2, 5, 40):
    print(f"  first {terms:2d} factors: {nsw_product_identity(terms):.8f}")
print("  limit is exactly 1/4: a half of agents at half value, a quarter")
print("  at a quarter value, and so on, still average out to a constant.")

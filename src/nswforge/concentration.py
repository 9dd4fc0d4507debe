"""Monte-Carlo validation of the subadditive concentration bounds.

These bounds are what make iterated rounding safe: a monotone subadditive
function of independently sampled items concentrates well enough that an
agent keeping a random delta-slice of a good set still gets a constant
fraction of its value. Each check estimates the relevant probabilities by
seeded sampling and gates them against the closed-form bound plus three
standard errors; the bounds are unconditional, so a failure past the
slack is a build-breaking event, not noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .rounding import STREAM_TRIALS, RngStream
from .valuations import Valuation, singleton_max

DEFAULT_TRIALS = 100_000


@dataclass(frozen=True)
class TailExperiment:
    """A valuation sampled on random subsets of a base set.

    `probs` holds the per-item inclusion probability (items outside the
    base set never appear); `q` and `k` parameterize the tail bounds.
    """

    valuation: Valuation
    base_set: frozenset[int]
    probs: np.ndarray
    trials: int = DEFAULT_TRIALS
    q: int = 2
    k: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.trials < 2:
            raise ValueError("trials must be at least 2")
        if self.q < 1 or self.k < 1:
            raise ValueError("q and k must be at least 1")

    @classmethod
    def bernoulli(cls, valuation: Valuation, base_set, p: float, **kw) -> "TailExperiment":
        base = frozenset(base_set)
        probs = np.zeros(valuation.m)
        probs[sorted(base)] = p
        return cls(valuation=valuation, base_set=base, probs=probs, **kw)

    def singleton_cap(self) -> float:
        """nu: the largest singleton value on the base set."""
        return singleton_max(self.valuation, self.base_set)

    def sample_values(self) -> np.ndarray:
        """Seeded draws of f(R), R from the product distribution."""
        gen = RngStream(self.seed).substream(STREAM_TRIALS)
        base = np.zeros(self.valuation.m, dtype=bool)
        base[sorted(self.base_set)] = True
        draws = gen.random((self.trials, self.valuation.m))
        rows = (draws < self.probs) & base
        return self.valuation.value_rows(rows)

    @cached_property
    def _samples(self) -> np.ndarray:
        """`sample_values()`, drawn once and shared by the checks below."""
        return self.sample_values()

    @cached_property
    def _unit(self) -> float:
        """The unit of the nu-rescaled checks: the singleton cap nu, or 1
        when nu == 0 forces f to vanish on the base set."""
        nu = self.singleton_cap()
        return nu if nu > 0 else 1.0

    @cached_property
    def _rescaled(self) -> np.ndarray:
        """`_samples` in the unit above, for the nu-rescaled checks."""
        return self._samples / self._unit


@dataclass
class TailCheckResult:
    name: str
    empirical: float
    bound: float
    slack: float
    passed: bool
    details: dict[str, float] = field(default_factory=dict)


def _se(p_hat: float, trials: int) -> float:
    return math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / trials)


def expectation_lower(exp: TailExperiment) -> TailCheckResult:
    """E[f(R)] >= f(S) / k, k = `exp.k`, when every item of S survives with
    probability 1/k."""
    k = exp.k
    probs = np.zeros(exp.valuation.m)
    probs[sorted(exp.base_set)] = 1.0 / k
    values = replace(exp, probs=probs).sample_values()
    mean = float(values.mean())
    bound = exp.valuation.value(exp.base_set) / k
    slack = 3.0 * float(values.std(ddof=1)) / math.sqrt(exp.trials)
    return TailCheckResult("expectation_lower", mean, bound, slack,
                           mean >= bound - slack,
                           details={"k": k, "f_S": exp.valuation.value(exp.base_set)})


def two_sided_tail(exp: TailExperiment, a: float) -> TailCheckResult:
    """P[f >= (q+1) a + k] * P[f <= a]^q <= q^-k, on the nu-rescaled scale."""
    values = exp._rescaled
    q, k = exp.q, exp.k
    upper = float((values >= (q + 1) * a + k).mean())
    lower = float((values <= a).mean())
    product = upper * lower ** q
    bound = 1.0 / q ** k
    # delta method on the product of the two estimated probabilities
    var = ((lower ** q) ** 2 * _se(upper, exp.trials) ** 2
           + (q * upper * lower ** max(q - 1, 0)) ** 2 * _se(lower, exp.trials) ** 2)
    slack = 3.0 * math.sqrt(var)
    return TailCheckResult("two_sided_tail", product, bound, slack,
                           product <= bound + slack,
                           details={"a": a, "upper": upper, "lower": lower})


def median_expectation(exp: TailExperiment) -> TailCheckResult:
    """E[f(R)] <= 5 (med(f(R)) + 1) on the nu-rescaled scale."""
    values = np.sort(exp._rescaled)
    mean = float(values.mean())
    median = float(values[(exp.trials - 1) // 2])  # lower median
    bound = 5.0 * (median + 1.0)
    slack = 3.0 * float(values.std(ddof=1)) / math.sqrt(exp.trials)
    return TailCheckResult("median_expectation", mean, bound, slack,
                           mean <= bound + slack,
                           details={"median": median})


def lower_tail(exp: TailExperiment) -> TailCheckResult:
    """P[f <= E[f]/(5(q+1)) - (k+1) nu / (q+1)] <= (2 / q^k)^(1/q), with nu
    in the unit of the rescaled checks: at nu == 0 the threshold is
    negative and the check holds vacuously."""
    nu = exp._unit
    values = exp._samples
    mean = float(values.mean())
    q, k = exp.q, exp.k
    threshold = mean / (5.0 * (q + 1)) - (k + 1) * nu / (q + 1)
    p_hat = float((values <= threshold).mean())
    bound = (2.0 / q ** k) ** (1.0 / q)
    slack = 3.0 * _se(p_hat, exp.trials)
    return TailCheckResult("lower_tail", p_hat, bound, slack,
                           p_hat <= bound + slack,
                           details={"threshold": threshold, "mean": mean})


def tail_checks(exp: TailExperiment) -> list[TailCheckResult]:
    """The four checks above, the two-sided tail at a = the sampled lower
    median of f / nu. The last three share the experiment's one draw."""
    median = float(np.sort(exp._rescaled)[(exp.trials - 1) // 2])
    return [expectation_lower(exp), two_sided_tail(exp, a=median),
            median_expectation(exp), lower_tail(exp)]


def nsw_product_identity(terms: int = 40) -> float:
    """prod_{i<=terms} (2^-i)^(2^-i): the cascade behind iterated rounding.

    A shrinking fraction of agents receiving a geometrically shrinking
    fraction of value still leaves a constant geometric mean; the partial
    products decrease monotonically toward 1/4.
    """
    product = 1.0
    previous = 2.0
    for i in range(1, terms + 1):
        product *= (2.0 ** -i) ** (2.0 ** -i)
        if product >= previous:
            raise AssertionError("partial products must decrease strictly")
        previous = product
    return product

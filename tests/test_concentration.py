"""Monte-Carlo concentration checks and the cascade identity."""

import math
import warnings

import numpy as np
import pytest
from scipy.stats import binom

from nswforge.concentration import (
    TailExperiment,
    expectation_lower,
    lower_tail,
    median_expectation,
    nsw_product_identity,
    tail_checks,
    two_sided_tail,
)
from nswforge.valuations import Additive, BudgetedAdditive, Xos

UNIT10 = Additive(np.ones(10))


def experiment(v=UNIT10, p=0.5, trials=20_000, seed=0, **kw):
    return TailExperiment.bernoulli(v, range(v.m), p, trials=trials, seed=seed, **kw)


class TestExpectationLower:
    def test_additive_equality_case(self):
        res = expectation_lower(experiment(k=2))
        assert res.bound == 5.0
        assert res.passed
        assert res.empirical == pytest.approx(5.0, abs=0.1)

    def test_k_one_is_deterministic(self):
        res = expectation_lower(experiment(k=1))
        assert res.empirical == 10.0 and res.bound == 10.0 and res.passed

    def test_budgeted_additive_exact_reference(self):
        v = BudgetedAdditive(np.ones(10), cap=3.0)
        res = expectation_lower(experiment(v, k=2))
        # exact expectation of min(Binomial(10, 1/2), 3)
        exact = sum(min(s, 3) * binom.pmf(s, 10, 0.5) for s in range(11))
        assert res.empirical == pytest.approx(exact, abs=4 * res.slack / 3)
        assert res.passed and res.empirical >= 1.5

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            experiment(k=0)


class TestTwoSidedTail:
    def test_large_a_trivial(self):
        res = two_sided_tail(experiment(), a=20.0)
        assert res.empirical == 0.0 and res.passed

    def test_median_threshold(self):
        exp = experiment(Additive(np.ones(20)), trials=100_000, q=2, k=3)
        med = float(np.sort(exp.sample_values())[(exp.trials - 1) // 2])
        res = two_sided_tail(exp, a=med)
        assert res.bound == pytest.approx(1 / 8)
        assert res.passed
        # exact binomial cross-check of the two factors
        upper = 1 - binom.cdf(math.ceil(3 * med + 3) - 1, 20, 0.5)
        lower = binom.cdf(math.floor(med), 20, 0.5)
        assert upper * lower ** 2 <= 1 / 8

    def test_impossible_right_event(self):
        res = two_sided_tail(experiment(k=12), a=1.0)
        assert res.empirical == 0.0 and res.passed


class TestMedianExpectation:
    def test_deterministic_full_set(self):
        res = median_expectation(experiment(p=1.0))
        assert res.empirical == pytest.approx(res.details["median"])
        assert res.passed

    def test_unit_additive(self):
        res = median_expectation(experiment())
        assert res.passed
        assert res.details["median"] == pytest.approx(5.0, abs=1.0)

    def test_zero_function(self):
        res = median_expectation(experiment(Additive(np.zeros(6))))
        assert res.empirical == 0.0 and res.bound == 5.0 and res.passed


class TestLowerTail:
    def test_negative_threshold_is_trivial(self):
        res = lower_tail(experiment(q=2, k=3))
        assert res.details["threshold"] <= 0
        assert res.empirical == 0.0 and res.passed

    def test_additive_thirty_items(self):
        exp = experiment(Additive(np.ones(30)), trials=100_000, q=2, k=3)
        res = lower_tail(exp)
        assert res.bound == pytest.approx(0.5)
        assert res.passed

    @pytest.mark.parametrize("seed", range(6))
    def test_fuzzed_families(self, seed):
        rng = np.random.default_rng(90_000 + seed)
        m = int(rng.integers(8, 15))
        if seed % 2:
            v = BudgetedAdditive(rng.uniform(0.3, 1, m),
                                 cap=float(rng.uniform(1, 3)))
        else:
            v = Xos(rng.uniform(0.2, 1, (3, m)))
        exp = TailExperiment.bernoulli(v, range(m), 0.5, trials=20_000,
                                       q=2, k=3, seed=seed)
        assert lower_tail(exp).passed
        assert median_expectation(exp).passed


class TestRescaleInvariance:
    @pytest.mark.parametrize("lam", [0.5, 2.0])
    def test_joint_scaling_changes_nothing(self, lam):
        base = experiment(trials=5000, seed=42, q=2, k=3)
        scaled_exp = TailExperiment.bernoulli(Additive(np.full(10, lam)),
                                              range(10), 0.5, trials=5000,
                                              seed=42, q=2, k=3)
        med = float(np.sort(base.sample_values())[(base.trials - 1) // 2])
        for a, b in [(two_sided_tail(base, a=med), two_sided_tail(scaled_exp, a=med)),
                     (lower_tail(base), lower_tail(scaled_exp))]:
            assert a.passed == b.passed
            assert a.empirical == pytest.approx(b.empirical, abs=1e-12)


class TestDeterminism:
    def test_same_seed_same_samples(self):
        a = experiment(seed=7).sample_values()
        b = experiment(seed=7).sample_values()
        assert (a == b).all()


class TestTailChecks:
    def test_one_draw_per_distribution(self, monkeypatch):
        draw, calls = TailExperiment.sample_values, []
        monkeypatch.setattr(TailExperiment, "sample_values",
                            lambda self: calls.append(self) or draw(self))
        results = tail_checks(experiment(trials=5000, seed=11))
        assert len(calls) == 2  # the base probabilities, expectation_lower's 1/k
        exp = experiment(trials=5000, seed=11)
        med = float(np.sort(draw(exp))[(exp.trials - 1) // 2])  # nu = 1
        assert results == [expectation_lower(exp), two_sided_tail(exp, a=med),
                           median_expectation(exp), lower_tail(exp)]


    def test_all_zero_valuation_takes_the_tail_at_zero(self):
        # nu == 0: the rescale is vacuous, and f <= 0 holds on every draw
        exp = experiment(Additive(np.zeros(6)), p=0.5, trials=1000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = tail_checks(exp)
        assert results[1].details["a"] == 0.0
        assert results[1].details["lower"] == 1.0
        assert results[3].details["threshold"] < 0.0
        assert results[3].empirical == 0.0
        assert all(r.passed for r in results)


class TestCascadeIdentity:
    def test_partial_product_converges_to_quarter(self):
        assert nsw_product_identity() == pytest.approx(0.25, abs=1e-6)

    def test_single_term(self):
        assert nsw_product_identity(terms=1) == pytest.approx(math.sqrt(0.5))

"""Product matchings, the initial reservation step, and rematching."""

import itertools
import math

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from nswforge import matching as matching_module
from nswforge.matching import (
    extension_pi,
    initial_matching,
    matching_objective,
    product_matching,
    rematch_rho,
)
from nswforge.model import Instance, InvariantViolation, Matching
from nswforge.oracle import exact_nsw, exact_scaled_welfare
from nswforge.valuations import Additive, Xos


def make_instance(*valuations):
    m = valuations[0].m
    return Instance(tuple(f"agent{i}" for i in range(len(valuations))),
                    tuple(f"item{j}" for j in range(m)), tuple(valuations))


def brute_force_best(scores):
    """Lexicographic (positive count, log-sum) over all injective maps."""
    n, m = scores.shape
    best = (-1, -math.inf)
    for perm in itertools.permutations(range(m), n):
        count = sum(1 for i in range(n) if scores[i, perm[i]] > 0)
        logsum = sum(math.log(scores[i, perm[i]]) for i in range(n)
                     if scores[i, perm[i]] > 0)
        best = max(best, (count, logsum))
    return best


class TestProductMatching:
    def test_two_agent_example(self):
        scores = np.array([[3.0, 1.0], [2.0, 2.0]])
        matching = product_matching(scores)
        assert matching.assignment == {0: 0, 1: 1}
        product = math.prod(scores[i, j] for i, j in matching.assignment.items())
        assert product == 6.0

    def test_single_agent_prefers_positive(self):
        matching = product_matching(np.array([[0.0, 5.0]]))
        assert matching.assignment == {0: 1}

    def test_symmetric_scores_reach_same_objective(self):
        scores = np.full((3, 3), 2.0)
        matching = product_matching(scores)
        assert matching_objective(scores, matching) == (3, pytest.approx(3 * math.log(2)))

    def test_requires_enough_items(self):
        with pytest.raises(ValueError, match="fewer items"):
            product_matching(np.ones((3, 2)))

    @pytest.mark.parametrize("scores, message", [
        ([[math.nan, 1.0], [1.0, 2.0]], "finite and nonnegative"),
        ([[math.inf, 1.0], [1.0, -math.inf]], "finite and nonnegative"),
        ([[1.0, -0.5], [1.0, 2.0]], "finite and nonnegative"),
        ([1.0, 2.0], "2-d array"),
    ], ids=["nan", "inf", "negative", "1-d"])
    def test_rejects_invalid_scores(self, scores, message):
        with pytest.raises(ValueError, match=message):
            product_matching(np.array(scores))

    def test_one_by_one(self):
        assert product_matching(np.array([[2.5]])).assignment == {0: 0}
        assert product_matching(np.array([[0.0]])).assignment == {0: 0}

    def test_single_agent_takes_its_best_item(self):
        matching = product_matching(np.array([[1.0, 4.0, 0.0, 3.0, 4.0 - 1e-12]]))
        assert matching.assignment == {0: 1}

    def test_square_is_a_permutation(self):
        scores = np.array([[1.0, 9.0, 2.0], [8.0, 1.0, 1.0], [1.0, 2.0, 7.0]])
        assert product_matching(scores).assignment == {0: 1, 1: 0, 2: 2}

    def test_all_zero_rows_get_unused_items(self):
        scores = np.array([[0.0, 0.0, 0.0, 0.0],
                           [0.0, 5.0, 1.0, 0.0],
                           [0.0, 0.0, 0.0, 0.0]])
        matching = product_matching(scores)
        matching.validate()
        assert matching.assignment[1] == 1
        assert len(set(matching.assignment.values())) == 3

    @pytest.mark.parametrize("seed, kind", enumerate(
        ["continuous", "small_integer", "all_zero", "half_zero"]))
    def test_assignment_equals_scipy(self, seed, kind, monkeypatch):
        # the in-package solver must return scipy's assignment, ties included,
        # on the weights product_matching builds from its scores
        solve, seen = matching_module._max_weight_assignment, []

        def spy(weights):
            seen.append(weights)
            return solve(weights)

        monkeypatch.setattr(matching_module, "_max_weight_assignment", spy)
        rng = np.random.default_rng(seed)
        for trial in range(1000):
            n = trial % 8 + 1
            m = n if trial % 5 == 0 else n + int(rng.integers(0, 31 - n))
            if kind == "small_integer":
                scores = rng.integers(0, 3, (n, m)).astype(float)
            else:
                scores = rng.uniform(0.0, 10.0, (n, m))
            if kind == "all_zero":
                scores[:] = 0.0
            elif kind == "half_zero":
                scores[rng.uniform(size=(n, m)) < 0.5] = 0.0
            matching = product_matching(scores)
            _, cols = linear_sum_assignment(seen[-1], maximize=True)
            assert matching.assignment == dict(enumerate(cols.tolist())), (n, m, trial)

    @pytest.mark.parametrize("seed", range(30))
    def test_optimal_against_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n = 5 if seed == 0 else int(rng.integers(1, 6))
        m = n + int(rng.integers(0, 3))
        scores = rng.uniform(0, 1, (n, m))
        scores[rng.uniform(size=scores.shape) < 0.3] = 0.0
        matching = product_matching(scores)
        matching.validate()
        count, logsum = matching_objective(scores, matching)
        ref_count, ref_logsum = brute_force_best(scores)
        assert count == ref_count
        assert logsum == pytest.approx(ref_logsum, abs=1e-9)


class TestInitialMatching:
    def test_two_agents_three_items(self):
        inst = make_instance(Additive([5, 1, 1]), Additive([1, 5, 1]))
        tau, matched, remaining, active = initial_matching(inst)
        assert tau.assignment == {0: 0, 1: 1}
        assert remaining == frozenset({2})
        assert active == frozenset({0, 1})

    def test_agent_with_single_interest(self):
        inst = make_instance(Additive([7, 0, 0]))
        tau, matched, remaining, active = initial_matching(inst)
        assert matched == frozenset({0})
        assert remaining == frozenset({1, 2})
        assert active == frozenset()

    def test_identical_agents_match_everyone(self):
        inst = make_instance(Additive([1, 1, 1]), Additive([1, 1, 1]), Additive([1, 1, 1]))
        _, matched, _, _ = initial_matching(inst)
        assert len(matched) == 3

    def test_swap_violation_names_an_item(self, monkeypatch):
        # a matching that leaves agent 0's best item unreserved breaks the
        # swap property
        inst = make_instance(Additive([1, 0, 5, 3]), Additive([0, 2, 0, 0]))
        monkeypatch.setattr(matching_module, "product_matching",
                            lambda scores: Matching({0: 0, 1: 1}))
        with pytest.raises(InvariantViolation,
                           match=r"agent 0: remaining item 2 beats matched item 0"):
            initial_matching(inst)


class TestRematchRho:
    def test_all_agents_covered_is_trivial(self):
        inst = make_instance(Additive([3, 1]), Additive([1, 3]))
        tau, *_ = initial_matching(inst)
        rho = rematch_rho(tau, tau, big_w=[10.0, 10.0], nu=[0.0, 0.0], inst=inst)
        rho.validate()
        assert set(rho.assignment) == {0, 1}

    def test_chain_pulls_agent_to_tau(self):
        # agent 0 wants its nu-item; agent 1's pi-item is agent 0's tau-item,
        # so agent 1 must follow the chain back to its own tau-item.
        inst = make_instance(Additive([4, 1, 2]), Additive([2, 3, 0]))
        tau, *_ = initial_matching(inst)
        assert tau.assignment == {0: 0, 1: 1}
        pi = Matching({0: 1, 1: 0})
        nu = [3.0, 0.0]  # agent 0: nu beats v_0(pi(0)) = 1
        rho = rematch_rho(tau, pi, big_w=[0.0, 0.0], nu=nu, inst=inst)
        assert rho.assignment == {0: 0, 1: 1}

    def test_pi_equal_tau(self):
        inst = make_instance(Additive([4, 1, 1, 1]), Additive([1, 4, 1, 1]),
                             Additive([1, 1, 4, 1]))
        tau, _, remaining, _ = initial_matching(inst)
        nu = [max(inst.valuations[i].value((j,)) for j in remaining)
              for i in inst.agents]
        rho = rematch_rho(tau, tau, big_w=[0.0, 0.0, 0.0], nu=nu, inst=inst)
        rho.validate()
        # guarantee vs brute force over every matching into the reserved items
        target = math.prod(max(0.0, inst.valuations[i].value((tau.assignment[i],)), nu[i])
                           for i in inst.agents)
        achieved = math.prod(max(0.0, inst.valuations[i].value((rho.assignment[i],)))
                             for i in inst.agents)
        assert achieved >= target * (1 - 1e-9)

    def test_requires_pi_into_reserved_items(self):
        inst = make_instance(Additive([3, 1, 1]), Additive([1, 3, 1]))
        tau, *_ = initial_matching(inst)
        with pytest.raises(ValueError, match="pi must map"):
            rematch_rho(tau, Matching({0: 2, 1: 1}), [0, 0], [0, 0], inst)

    @pytest.mark.parametrize("seed", range(60))
    def test_fuzzed_product_guarantee(self, seed):
        rng = np.random.default_rng(10_000 + seed)
        n = int(rng.integers(2, 5))
        m = n + int(rng.integers(1, 4))
        vals = [Additive(rng.uniform(0, 1, m)) if rng.random() < 0.5
                else Xos(rng.uniform(0, 1, (3, m))) for _ in range(n)]
        inst = make_instance(*vals)
        tau, matched, remaining, _ = initial_matching(inst)
        items = sorted(matched)
        pi = Matching({i: items[k] for k, i in enumerate(rng.permutation(n))})
        big_w = rng.uniform(0, 1, n)
        nu = np.array([rng.uniform(0, 1) *
                       max((inst.valuations[i].value((j,)) for j in remaining), default=0.0)
                       for i in inst.agents])
        rho = rematch_rho(tau, pi, big_w, nu, inst)  # raises on violation
        rho.validate()

    @pytest.mark.parametrize("seed", range(40))
    def test_tau_takers_are_the_chains_that_reach_a_nu_agent(self, seed):
        # agent i owns tau-item i and values it above anything, so every
        # guarantee holds; pi draws a random functional graph over the
        # agents, self-loops (pi[i] == tau[i]) and cycles included
        rng = np.random.default_rng(30_000 + seed)
        n = int(rng.integers(1, 8))
        weights = rng.integers(0, 4, (n, n + 2)).astype(float)
        weights[np.arange(n), np.arange(n)] = 100.0
        inst = make_instance(*[Additive(w) for w in weights])
        tau = Matching({i: i for i in range(n)})
        pi = Matching({i: int(rng.integers(n)) for i in range(n)})
        big_w, nu = rng.integers(0, 4, n).astype(float), rng.integers(0, 4, n).astype(float)
        undecided = [i for i in range(n) if big_w[i] < max(weights[i, pi.assignment[i]], nu[i])]
        from_nu = {i for i in undecided if nu[i] > weights[i, pi.assignment[i]]}

        def chain_reaches_nu(i):
            seen = set()
            while i in undecided and i not in seen:
                if i in from_nu:
                    return True
                seen.add(i)
                i = pi.assignment[i]  # the owner of i's pi-item
            return False
        want = {i: i if chain_reaches_nu(i) else pi.assignment[i] for i in undecided}
        if len(set(want.values())) < len(want):
            with pytest.raises(InvariantViolation, match="collided"):
                rematch_rho(tau, pi, big_w, nu, inst)
        else:
            rho = rematch_rho(tau, pi, big_w, nu, inst)
            assert {i: rho.assignment[i] for i in undecided} == want


class TestExtensionPi:
    def test_keeps_best_reserved_item(self):
        inst = make_instance(Additive([5, 2, 1, 1]), Additive([1, 1, 5, 2]))
        tau, matched, _, _ = initial_matching(inst)
        assert matched == {0, 2}
        best = exact_nsw(inst).witness
        pi = extension_pi(best, tau, inst)
        pi.validate()
        for i in inst.agents:
            held = best.bundle(i) & matched
            if held:
                assert pi.assignment[i] in held

    @pytest.mark.parametrize("seed", range(15))
    def test_certifies_extension_bound(self, seed):
        # product of (V_i + matched value) covers OPT within the contract
        # constant from the exact scaled-welfare oracle, plus one.
        rng = np.random.default_rng(20_000 + seed)
        n, m = 2, 4
        inst = make_instance(*[Additive(rng.uniform(0.1, 1, m)) for _ in range(n)])
        tau, matched, remaining, active = initial_matching(inst)
        if not active:
            return
        targets = {i: inst.valuations[i].value(remaining) * rng.uniform(0.5, 1.0)
                   for i in active}
        contract = exact_scaled_welfare(inst, targets, agents=active,
                                        items=remaining).optimum / len(active)
        exact = exact_nsw(inst)
        pi = extension_pi(exact.witness, tau, inst)
        lhs = math.prod(targets.get(i, 0.0) + inst.valuations[i].value((pi.assignment[i],))
                        for i in inst.agents) ** (1 / n)
        assert lhs >= exact.optimum / (contract + 1) - 1e-9

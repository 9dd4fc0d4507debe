"""Acceptance gates: every headline constant checked at its stated tolerance.

Each test prints one PASS line with the measured quantity so a plain
`pytest -v tests/test_acceptance.py` doubles as the acceptance report.
The constants (1440, 375000, the splitting bounds, (1+alpha)n, 90,
165/delta^2, the tail bounds, 1/4) are hard gates, not calibrated values.
"""

import json
import math

import numpy as np
import pytest

from nswforge import fuzz
from nswforge.cli import main as cli_main
from nswforge.concentration import TailExperiment, nsw_product_identity, tail_checks
from nswforge.generators import FAMILIES, GenSpec, generate
from nswforge.matching import initial_matching
from nswforge.model import Instance, serialize_instance
from nswforge.oracle import exact_config_lp, exact_nsw
from nswforge.pipeline import PipelineParams, run_subadditive, run_xos
from nswforge.relaxation import concave_ext, solve_eg
from nswforge.rounding import (
    RngStream,
    iterated_round,
    measured_welfare_factor,
    oracle_procedure,
    round_xos,
    scaled_targets,
)
from nswforge.splitting import split_subadditive, split_xos
from nswforge.valuations import Additive

from helpers import column_masses


def _instance(valuations):
    m = valuations[0].m
    return Instance(tuple(f"agent{i}" for i in range(len(valuations))),
                    tuple(f"item{j}" for j in range(m)), tuple(valuations))


def test_criterion_01_xos_end_to_end_factor():
    """200 seeded additive/XOS instances: NSW >= exact optimum / 1440."""
    ratios = []
    for trial in range(200):
        inst = fuzz.grid_instance(1_000_000 + trial, ("additive", "xos")[trial % 2])
        report = run_xos(inst, PipelineParams(seed=trial))
        opt = exact_nsw(inst).optimum
        if opt <= 0:
            continue
        ratio = report.nsw / opt
        assert ratio >= 1.0 / 1440.0, f"trial {trial}: ratio {ratio}"
        ratios.append(ratio)
    median = sorted(ratios)[len(ratios) // 2]
    assert median > 0.5  # informational floor; typical ratios are far higher
    print(f"\nPASS criterion 1: XOS factor over {len(ratios)} instances; "
          f"min ratio {min(ratios):.4f}, median {median:.4f} (gate 1/1440)")


def test_criterion_01_additive_relaxations_converge():
    """Every additive criterion-1 instance that runs the relaxation meets
    its Lagrangian certificate: converged, with gap <= eps^4 n."""
    solved = 0
    worst = 0.0
    for trial in range(0, 200, 2):
        inst = fuzz.grid_instance(1_000_000 + trial, "additive")
        _, _, remaining, active = initial_matching(inst)
        if not active:
            continue
        eg = solve_eg(inst, active, remaining)
        target = eg.epsilon ** 4 * len(eg.agents)
        assert eg.converged and eg.gap <= target, (
            f"trial {trial}: converged={eg.converged}, gap {eg.gap} > {target}")
        worst = max(worst, eg.gap / target)
        solved += 1
    assert solved > 0
    print(f"\nPASS criterion 1 (additive relaxation): {solved} relaxations converged; "
          f"worst gap/target {worst:.3f}")


def test_criterion_01_xos_relaxations_converge():
    """Every XOS criterion-1 instance that runs the relaxation meets its
    Lagrangian certificate: converged, with gap <= eps^4 n."""
    solved = 0
    worst = 0.0
    for trial in range(1, 200, 2):
        inst = fuzz.grid_instance(1_000_000 + trial, "xos")
        _, _, remaining, active = initial_matching(inst)
        if not active:
            continue
        eg = solve_eg(inst, active, remaining)
        target = eg.epsilon ** 4 * len(eg.agents)
        assert eg.converged and eg.gap <= target, (
            f"trial {trial}: converged={eg.converged}, gap {eg.gap} > {target}")
        worst = max(worst, eg.gap / target)
        solved += 1
    assert solved > 0
    print(f"\nPASS criterion 1 (XOS relaxation): {solved} relaxations converged; "
          f"worst gap/target {worst:.3f}")


def test_criterion_01_relaxations_converge_at_scale():
    """Past the exact oracle's reach, after the matching and at default
    parameters: additive 14x56 and 16x64 converge within 14 steps (11
    and 12 measured) and xos 10x50 within 22 (16 and 18), seeds 0 and 1."""
    steps = {}
    for family, n, m, limit in (("additive", 14, 56, 14), ("additive", 16, 64, 14),
                                ("xos", 10, 50, 22)):
        for seed in (0, 1):
            inst = generate(GenSpec(family, n, m, seed=seed))
            _, _, remaining, active = initial_matching(inst)
            eg = solve_eg(inst, active, remaining)
            assert eg.converged and eg.iterations <= limit, (
                f"{family} {n}x{m} seed {seed}: converged={eg.converged} "
                f"after {eg.iterations} steps")
            steps[f"{family} {n}x{m}#{seed}"] = eg.iterations
    print(f"\nPASS criterion 1 (scale): all 6 relaxations converged; steps {steps}")


def test_criterion_02_relaxations_converge():
    """At least 95% of criterion 2's budgeted and table relaxations (eps 0.1)
    meet their Lagrangian certificate, as do the relaxations of the two
    `subadd_colgen` benchmark instances (table 3x10 seed 0 and
    budgeted-additive 3x14 seed 1). The configuration barrier's Newton
    steps stay few: at most 20 per grid relaxation (13 measured; 44 under
    the primal log barrier) and 30 per benchmark relaxation (20 and 20
    measured; 63 and 68 before)."""
    solved = converged = 0
    worst = 0.0
    steps = []
    for trial in range(100):
        inst = fuzz.grid_instance(2_000_000 + trial, ("budgeted_additive", "table")[trial % 2])
        _, _, remaining, active = initial_matching(inst)
        if not active:
            continue
        eg = solve_eg(inst, active, remaining, epsilon=0.1)
        solved += 1
        converged += eg.converged
        worst = max(worst, eg.gap / (eg.epsilon ** 4 * len(eg.agents)))
        steps.append(eg.iterations)
    assert solved > 0 and converged >= 0.95 * solved, f"{converged} of {solved} converged"
    assert max(steps) <= 20, f"a grid relaxation took {max(steps)} steps"
    pool = {}
    for family, n, m, seed in (("table", 3, 10, 0), ("budgeted_additive", 3, 14, 1)):
        inst = generate(GenSpec(family, n, m, seed=seed))
        _, _, remaining, active = initial_matching(inst)
        eg = solve_eg(inst, active, remaining)
        target = eg.epsilon ** 4 * len(eg.agents)
        assert eg.converged and eg.gap <= target, (
            f"{family} {n}x{m} seed {seed}: gap {eg.gap} > {target}")
        assert eg.iterations <= 30, f"{family} {n}x{m} seed {seed}: {eg.iterations} steps"
        pool[f"{family} {n}x{m}#{seed}"] = eg.iterations
    print(f"\nPASS criterion 2 (relaxation): {converged}/{solved} grid relaxations and both "
          f"subadd_colgen instances converged; worst grid gap/target {worst:.3f}; grid "
          f"steps median {sorted(steps)[len(steps) // 2]}, max {max(steps)}; "
          f"subadd_colgen steps {pool}")


def test_criterion_02_subadditive_end_to_end_factor():
    """100 budgeted/table instances: NSW >= exact optimum / 375000."""
    ratios = []
    for trial in range(100):
        inst = fuzz.grid_instance(2_000_000 + trial, ("budgeted_additive", "table")[trial % 2])
        report = run_subadditive(inst, PipelineParams(seed=trial, epsilon=0.1,
                                                      proc="oracle"))
        opt = exact_nsw(inst).optimum
        if opt <= 0:
            continue
        ratio = report.nsw / opt
        assert ratio >= 1.0 / 375_000.0, f"trial {trial}: ratio {ratio}"
        ratios.append(ratio)
    print(f"\nPASS criterion 2: subadditive factor over {len(ratios)} instances; "
          f"min ratio {min(ratios):.4f} (gate 1/375000)")


def test_criterion_02_engaged_subadditive_lane():
    """20 near-uniform additive 2x16 instances: NSW >= exact optimum / 375000,
    with the 6*nu filter passing and rounding finishing on at least 90%."""
    ratios, engaged = [], 0
    for trial in range(20):
        inst = generate(GenSpec("additive", 2, 16, weights="near_uniform",
                                seed=2_100_000 + trial))
        report = run_subadditive(inst, PipelineParams(seed=trial, proc="oracle"))
        ratio = report.nsw / exact_nsw(inst).optimum
        assert ratio >= 1.0 / 375_000.0, f"trial {trial}: ratio {ratio}"
        ratios.append(ratio)
        engaged += bool(report.filtered) and not report.outcome.rounds_capped
    assert engaged >= 18, f"the lane engaged on {engaged} of 20 instances"
    print(f"\nPASS criterion 2 (engaged lane): {engaged}/20 engaged; "
          f"min ratio {min(ratios):.4f} (gate 1/375000)")


def test_criterion_02_engaged_budgeted_lane():
    """Budgeted-additive near-uniform 2x16 (cap_ratio 0.8, seeds 0-3): the
    6*nu filter passes and rounding finishes on all four, so a
    non-additive valuation is split and rounded end to end, and
    NSW >= exact optimum / 375000."""
    ratios, engaged = [], 0
    for seed in range(4):
        inst = generate(GenSpec("budgeted_additive", 2, 16, weights="near_uniform",
                                cap_ratio=0.8, seed=seed))
        report = run_subadditive(inst, PipelineParams(seed=seed, proc="oracle"))
        ratio = report.nsw / exact_nsw(inst).optimum
        assert ratio >= 1.0 / 375_000.0, f"seed {seed}: ratio {ratio}"
        ratios.append(ratio)
        engaged += bool(report.filtered) and not report.outcome.rounds_capped
    assert engaged == 4, f"the lane engaged on {engaged} of 4 instances"
    print(f"\nPASS criterion 2 (engaged budgeted lane): 4/4 engaged; "
          f"min ratio {min(ratios):.4f} (gate 1/375000)")


def test_criterion_03_set_splitting_invariants():
    """500 fuzzed runs per variant; every documented bound within 1e-9."""
    runs = dict.fromkeys(fuzz.SPLIT_VARIANTS, 0)
    seed = 0
    while min(runs.values()) < 500:
        seed += 1
        for variant in fuzz.split_case(3_000_000 + seed,
                                       [v for v, done in runs.items() if done < 500]):
            runs[variant] += 1
    print(f"\nPASS criterion 3: splitting bounds clean over 500+500 fuzzed runs")


def test_criterion_04_relaxation_solver_contract():
    """50 instances, alpha=0.25: scaled config-LP optimum <= 1.25 n + 1e-6."""
    checked = trial = 0
    worst = 0.0
    while checked < 50:
        score = fuzz.contract_case(4_000_000 + trial, FAMILIES[trial % 4])
        trial += 1
        if score is not None:
            worst = max(worst, score)
            checked += 1
    print(f"\nPASS criterion 4: relaxation contract on 50 instances; "
          f"worst ratio/bound {worst:.4f}")


def test_criterion_05_concave_extension_oracle_equivalence():
    """100 (valuation, x) pairs, m <= 10: |colgen - enumeration| <= 1e-6."""
    worst_diff = worst_gap = 0.0
    for trial in range(100):
        diff, gap = fuzz.extension_case(5_000_000 + trial, FAMILIES[trial % 4])
        worst_diff = max(worst_diff, diff)
        worst_gap = max(worst_gap, gap)
    print(f"\nPASS criterion 5: concave extension equivalence on 100 pairs; "
          f"worst diff {worst_diff:.2e}, worst dual gap {worst_gap:.2e}")


def test_criterion_06_demand_oracle_equivalence():
    """500 (valuation, price) pairs per family, m <= 12: exact utility match."""
    for family in FAMILIES:
        for trial in range(500):
            fuzz.demand_case(6_000_000 + trial, family)
    print("\nPASS criterion 6: demand oracle equals brute force, "
          "500 pairs x 4 families")


def test_criterion_07_rounding_expectation_bound():
    """Fixed 3-agent XOS instance, 500 seeds: mean scaled inverse welfare <= 90."""
    inst = generate(GenSpec("xos", 3, 6, clauses=3, seed=777))
    _, _, remaining, active = initial_matching(inst)
    assert active, "fixture must have agents with value on the remaining items"
    eg = solve_eg(inst, active, remaining)
    split = split_xos(eg.columns, inst.valuations, eg.values())
    best = exact_config_lp(inst, agents=active, items=remaining)
    v_plus_star = {}
    for i in eg.agents:
        x_star = column_masses(best.witness.columns.get(i, []), inst.m)
        v_plus_star[i] = concave_ext(inst.valuations[i], x_star,
                                     items=remaining).value
    samples = []
    for seed in range(500):
        outcome = round_xos(split, RngStream(seed))
        total = 0.0
        for i in eg.agents:
            kept = outcome.allocation.bundle(i) | {outcome.large_items[i]}
            denom = inst.valuations[i].value(kept)
            assert denom > 0
            total += v_plus_star[i] / denom
        samples.append(total / inst.n)
    mean = float(np.mean(samples))
    assert mean <= 90.0, f"empirical mean {mean} exceeds 90"
    print(f"\nPASS criterion 7: rounding expectation bound; "
          f"mean {mean:.3f} <= 90 over 500 seeds")


def test_criterion_08_iterated_rounding_structure():
    """Per-round delta-fraction exits and the 165/delta^2 geometric mean."""
    n_instances, seeds_per = 10, 20
    for idx in range(n_instances):
        rng = np.random.default_rng(8_000_000 + idx)
        inst = _instance([Additive(rng.uniform(0.8, 1.0, 20)) for _ in range(2)])
        _, _, remaining, active = initial_matching(inst)
        eg = solve_eg(inst, active, remaining)
        targets = eg.values()
        nu = {i: float(max(inst.valuations[i].value((j,)) for j in remaining))
              for i in active}
        eligible = [i for i in active if targets[i] >= 6.0 * nu[i]]
        assert eligible, f"instance {idx}: filter emptied, widen the fixture"
        split = split_subadditive({i: eg.columns[i] for i in eligible}, inst.valuations,
                                  {i: targets[i] for i in eligible},
                                  {i: nu[i] for i in eligible})
        vprime = scaled_targets(split, inst.valuations)
        d = measured_welfare_factor(split, inst.valuations, vprime, oracle_procedure,
                                    RngStream(0))
        delta = 1.0 / (7.0 * d)
        log_ratios = []
        for seed in range(seeds_per):
            outcome = iterated_round(split, inst.valuations, vprime, sorted(remaining),
                                     delta, oracle_procedure, RngStream(seed))
            assert not outcome.rounds_capped
            for stats in outcome.round_log:
                assert len(stats.exited) >= math.ceil(delta * stats.active), (
                    f"instance {idx} seed {seed} round {stats.index}: "
                    f"{len(stats.exited)} exits of {stats.active} active")
            run_logs = []
            for i in eligible:
                kept = inst.valuations[i].value(outcome.allocation.bundle(i))
                run_logs.append(math.log(targets[i] / (kept + nu[i])))
            log_ratios.append(float(np.mean(run_logs)))
        bound = math.log(165.0 / delta ** 2)
        mean_log = float(np.mean(log_ratios))
        assert mean_log <= bound, (f"instance {idx}: mean log ratio {mean_log} "
                                   f"exceeds log(165/delta^2) = {bound}")
    print(f"\nPASS criterion 8: per-round exits and geometric-mean bound over "
          f"{n_instances * seeds_per} runs")


def test_criterion_09_rematching_guarantee():
    """1000 fuzzed (tau, pi, W, nu) tuples: rho is a matching and the
    product inequality holds (rematch_rho raises on any violation)."""
    for seed in range(1, 1001):
        fuzz.match_case(9_000_000 + seed)
    print("\nPASS criterion 9: rematching product inequality on 1000 tuples")


def test_criterion_10_concentration_suite():
    """All four tail checks pass with 3-sigma slack at 1e5 trials on 20
    fuzzed subadditive functions (q=2, k=3)."""
    results = []
    for idx in range(20):
        v = fuzz.tail_function(10_000_000 + idx, ("budgeted_additive", "xos", "table")[idx % 3])
        exp = TailExperiment.bernoulli(v, range(v.m), 0.5, trials=100_000,
                                       q=2, k=3, seed=idx)
        for res in tail_checks(exp):
            assert res.passed, f"function {idx}: {res.name} broke its bound: {res}"
            results.append(res)
    print(f"\nPASS criterion 10: {len(results)} concentration checks clean "
          f"(20 functions x 4 bounds)")


def test_criterion_11_cascade_identity():
    """prod_{i=1..40} (2^-i)^(2^-i) = 0.25 within 1e-6."""
    value = nsw_product_identity(terms=40)
    assert value == pytest.approx(0.25, abs=1e-6)
    print(f"\nPASS criterion 11: cascade identity = {value!r}")


def test_criterion_12_solver_determinism(tmp_path):
    """cmd_solve with identical seed and flags is byte-identical."""
    inst = generate(GenSpec("xos", 3, 6, seed=55))
    path = tmp_path / "inst.json"
    path.write_text(serialize_instance(inst))
    outs = []
    for run in range(2):
        out = tmp_path / f"run{run}.json"
        code = cli_main(["solve", "--instance", str(path), "--pipeline", "xos",
                         "--seed", "99", "--out", str(out)])
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    doc = json.loads(outs[0])
    assert doc["nsw"] > 0
    print("\nPASS criterion 12: solve reports byte-identical across runs")

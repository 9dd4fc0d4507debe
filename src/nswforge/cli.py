"""Command-line entry point: gen, solve, exact, ratio, fuzz, conc, report.

Exit codes are a stable contract: 0 success, 1 usage or I/O error,
2 stage-invariant violation, 3 enumeration cap exceeded. All randomness
flows from --seed; there is no ambient entropy anywhere, so identical
invocations produce byte-identical machine output. Human-readable
summaries go to stderr, machine output to stdout or files.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from time import perf_counter

import numpy as np

from .concentration import (
    TailExperiment,
    expectation_lower,
    lower_tail,
    median_expectation,
    two_sided_tail,
)
from .generators import FAMILIES, GenSpec, generate
from .matching import initial_matching, matching_objective, product_matching, rematch_rho
from .model import (
    ConfigSolution,
    InvariantViolation,
    Matching,
    SchemaError,
    load_instance,
    serialize_instance,
)
from .oracle import exact_nsw
from .pipeline import PipelineParams, run_subadditive, run_xos
from .relaxation import concave_ext, scaled_optimum_check, solve_eg
from .rounding import RngStream, round_xos
from .splitting import split_subadditive, split_xos
from .valuations import Additive, BudgetedAdditive, CapExceeded, Xos

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVARIANT = 2
EXIT_CAP = 3

CSV_SCHEMA_LINE = "# schema=1"


def _threads() -> int:
    raw = os.environ.get("NSW_FORGE_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _child_seed(master: int, index: int) -> int:
    return int(np.random.SeedSequence(master, spawn_key=(900, index)).generate_state(1)[0])


def _pipeline_params(args) -> PipelineParams:
    return PipelineParams(alpha=args.alpha, epsilon=args.epsilon, delta=args.delta,
                          d=args.d, proc=args.proc, seed=args.seed,
                          append_residual=args.append_residual,
                          check_rematch=args.check_rematch)


def _write_csv(path: str | None, header: list[str], rows: list[dict]) -> None:
    sink = open(path, "w", newline="") if path else sys.stdout
    try:
        sink.write(CSV_SCHEMA_LINE + "\n")
        writer = csv.DictWriter(sink, fieldnames=header, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if path:
            sink.close()


def cmd_gen(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for idx in range(args.count):
        spec = GenSpec(family=args.family, n=args.n, m=args.m, weights=args.weights,
                       clauses=args.clauses, cap_ratio=args.cap_ratio,
                       table_style=args.table_style, seed=_child_seed(args.seed, idx))
        path = out_dir / f"{args.family}_{args.n}x{args.m}_{idx:04d}.json"
        path.write_text(serialize_instance(generate(spec)))
    print(f"wrote {args.count} instances to {out_dir}", file=sys.stderr)
    return EXIT_OK


def _run_pipeline(inst, pipeline: str, params: PipelineParams):
    if pipeline == "xos":
        return run_xos(inst, params)
    return run_subadditive(inst, params)


def cmd_solve(args) -> int:
    inst = load_instance(Path(args.instance).read_text())
    report = _run_pipeline(inst, args.pipeline, _pipeline_params(args))
    text = report.to_json(inst, include_timings=args.timings)
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text)
    print(f"nsw={report.nsw:.6g} seed={args.seed} pipeline={args.pipeline}",
          file=sys.stderr)
    return EXIT_OK


def cmd_exact(args) -> int:
    inst = load_instance(Path(args.instance).read_text())
    res = exact_nsw(inst)
    doc = {
        "optimum": res.optimum,
        "nodes": res.nodes,
        "allocation": {inst.agent_names[i]: sorted(inst.item_names[j] for j in items)
                       for i, items in sorted(res.witness.bundles.items())},
    }
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text)
    return EXIT_OK


def _ratio_instances(args):
    if args.instances:
        paths = sorted(Path(args.instances).glob("*.json"))
        if not paths:
            raise SchemaError("no instance files found", args.instances)
        for idx, path in enumerate(paths):
            yield path.stem, load_instance(path.read_text())
    else:
        for idx in range(args.count):
            spec = GenSpec(family=args.family, n=args.n, m=args.m,
                           weights=args.weights, clauses=args.clauses,
                           cap_ratio=args.cap_ratio, table_style=args.table_style,
                           seed=_child_seed(args.seed, idx))
            yield f"{args.family}_{idx:04d}", generate(spec)


def cmd_ratio(args) -> int:
    params = _pipeline_params(args)
    jobs = list(_ratio_instances(args))

    def solve_one(job):
        name, inst = job
        t0 = perf_counter()
        report = _run_pipeline(inst, args.pipeline, params)
        wall = perf_counter() - t0
        exact = exact_nsw(inst).optimum
        ratio = report.nsw / exact if exact > 0 else math.inf
        return {"instance": name, "n": inst.n, "m": inst.m,
                "family": inst.valuations[0].kind, "nsw": report.nsw,
                "exact": exact, "ratio": ratio, "seed": params.seed,
                "wall_time": wall}

    with ThreadPoolExecutor(max_workers=_threads()) as pool:
        rows = list(pool.map(solve_one, jobs))
    _write_csv(args.out, ["instance", "n", "m", "family", "nsw", "exact",
                          "ratio", "seed", "wall_time"], rows)
    ratios = sorted(r["ratio"] for r in rows)
    print(f"instances={len(rows)} min_ratio={ratios[0]:.6g} "
          f"median_ratio={ratios[len(ratios) // 2]:.6g}", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
# fuzz suites


def _fuzz_instance(rng_seed: int, families=("additive", "xos", "budgeted_additive", "table")):
    rng = np.random.default_rng(rng_seed)
    family = families[int(rng.integers(0, len(families)))]
    n = int(rng.integers(2, 4))
    m = int(rng.integers(max(n, 4), 7))
    return generate(GenSpec(family=family, n=n, m=m, seed=rng_seed))


def _fuzz_split(seed: int) -> None:
    rng = np.random.default_rng(seed)
    m = int(rng.integers(8, 13))
    weights = rng.uniform(0.5, 1.0, m)
    v = (Additive(weights) if rng.random() < 0.5
         else Xos(np.stack([weights, rng.uniform(0.4, 1.0, m)])))
    n_sets = int(rng.integers(1, 4))
    w = rng.dirichlet(np.ones(n_sets))
    cols = []
    for k in range(n_sets):
        size = int(rng.integers(max(2, m - 4), m + 1))
        cols.append((frozenset(int(j) for j in rng.choice(m, size, replace=False)),
                     float(w[k])))
    config = ConfigSolution({0: cols})
    target = sum(v.value(s) * wt for s, wt in cols)
    split_xos(config, [v], {0: target})
    vb = BudgetedAdditive(weights, cap=float(rng.uniform(0.6, 1.0) * weights.sum()))
    target_b = sum(vb.value(s) * wt for s, wt in cols)
    nu_b = float(vb.singleton_values().max())
    if target_b >= 6.0 * nu_b:
        split_subadditive(config, [vb], {0: target_b}, {0: nu_b})


def _fuzz_round(seed: int) -> None:
    inst = _fuzz_instance(seed, families=("additive", "xos"))
    report = run_xos(inst, PipelineParams(seed=seed))
    outcome = report.outcome
    if outcome is None:
        return
    for i, kept in outcome.allocation.bundles.items():
        if not kept <= outcome.tentative[i]:
            raise InvariantViolation("agent kept an item outside its tentative set")
    again = run_xos(inst, PipelineParams(seed=seed))
    if again.outcome.to_json() != outcome.to_json():
        raise InvariantViolation("rounding is not deterministic under a fixed seed")


def _fuzz_relax(seed: int) -> None:
    inst = _fuzz_instance(seed)
    _, _, remaining, active = initial_matching(inst)
    if not active:
        return
    eg = solve_eg(inst, active, remaining)
    ratio, ok = scaled_optimum_check(inst, eg, alpha=0.25)
    if not ok:
        raise InvariantViolation(f"scaled-optimum contract failed: {ratio}")
    rng = np.random.default_rng(seed)
    i = sorted(active)[0]
    x = np.zeros(inst.m)
    x[sorted(remaining)] = rng.uniform(0, 1, len(remaining))
    a = concave_ext(inst.valuations[i], x, items=remaining)
    b = concave_ext(inst.valuations[i], x, items=remaining, method="enumerate")
    if abs(a.value - b.value) > 1e-6:
        raise InvariantViolation(f"colgen {a.value} != enumeration {b.value}")


def _fuzz_match(seed: int) -> None:
    inst = _fuzz_instance(seed)
    tau, matched, remaining, _ = initial_matching(inst)
    rng = np.random.default_rng(seed)
    items = sorted(matched)
    pi = Matching({i: items[k] for k, i in enumerate(rng.permutation(inst.n))})
    big_w = rng.uniform(0, 1, inst.n)
    nu = np.array([rng.uniform(0, 1) * max((inst.valuations[i].value((j,))
                                            for j in remaining), default=0.0)
                   for i in inst.agents])
    rematch_rho(tau, pi, big_w, nu, inst)
    scores = np.stack([inst.valuations[i].singleton_values() for i in inst.agents])
    best = product_matching(scores)
    if matching_objective(scores, best) < matching_objective(scores, tau):
        raise InvariantViolation("initial matching is not product-optimal")


FUZZERS = {"split": _fuzz_split, "round": _fuzz_round,
           "relax": _fuzz_relax, "match": _fuzz_match}


def cmd_fuzz(args) -> int:
    if args.count == 0:
        print("warning: count=0, vacuous pass", file=sys.stderr)
        return EXIT_OK
    fuzzer = FUZZERS[args.module]
    seeds = [_child_seed(args.seed, idx) for idx in range(args.count)]

    def run_one(seed):
        try:
            fuzzer(seed)
        except (InvariantViolation, AssertionError) as exc:
            raise InvariantViolation(f"module={args.module} seed={seed}: {exc}") from exc
        return seed

    try:
        with ThreadPoolExecutor(max_workers=_threads()) as pool:
            list(pool.map(run_one, seeds))
    except InvariantViolation as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    print(f"fuzz {args.module}: {args.count} runs clean", file=sys.stderr)
    return EXIT_OK


def cmd_conc(args) -> int:
    rows = []
    low_power = args.trials < 1000
    for idx in range(args.count):
        seed = _child_seed(args.seed, idx)
        rng = np.random.default_rng(seed)
        m = int(rng.integers(8, 15)) if args.family != "table" else int(rng.integers(6, 11))
        inst = generate(GenSpec(family=args.family, n=1, m=m, seed=seed))
        v = inst.valuations[0]
        exp = TailExperiment.bernoulli(v, range(m), 0.5, trials=args.trials,
                                       q=args.q, k=args.k, seed=seed)
        nu = exp.singleton_cap()
        med = float(np.sort(exp.sample_values() / nu)[(args.trials - 1) // 2])
        checks = [expectation_lower(exp, k=max(args.k, 1)),
                  two_sided_tail(exp, a=med),
                  median_expectation(exp),
                  lower_tail(exp)]
        for res in checks:
            row = {"experiment": idx, "family": args.family, "q": args.q,
                   "k": args.k, "check": res.name, "empirical": res.empirical,
                   "bound": res.bound, "slack": res.slack, "passed": int(res.passed)}
            rows.append(row)
    _write_csv(args.out, ["experiment", "family", "q", "k", "check",
                          "empirical", "bound", "slack", "passed"], rows)
    failed = [r for r in rows if not r["passed"]]
    note = " (low-power run)" if low_power else ""
    print(f"concentration checks: {len(rows) - len(failed)}/{len(rows)} passed{note}",
          file=sys.stderr)
    return EXIT_INVARIANT if failed else EXIT_OK


def cmd_report(args) -> int:
    text = Path(args.input).read_text()
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    rows = list(csv.DictReader(io.StringIO("\n".join(lines))))
    if not rows:
        print("no data rows", file=sys.stderr)
        return EXIT_USAGE
    col = args.column
    values = sorted(float(r[col]) for r in rows if r.get(col) not in (None, ""))
    print(f"rows={len(values)} min={values[0]:.6g} "
          f"median={values[len(values) // 2]:.6g} "
          f"mean={sum(values) / len(values):.6g} max={values[-1]:.6g}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nswforge",
        description="Nash social welfare solvers with exact verification oracles")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_gen_flags(p):
        p.add_argument("--family", choices=FAMILIES, default="additive")
        p.add_argument("--n", type=int, default=3)
        p.add_argument("--m", type=int, default=6)
        p.add_argument("--weights", choices=("uniform", "integers", "heavy"),
                       default="uniform")
        p.add_argument("--clauses", type=int, default=3)
        p.add_argument("--cap-ratio", dest="cap_ratio", type=float, default=0.4)
        p.add_argument("--table-style", dest="table_style",
                       choices=("xos", "budgeted_mix"), default="xos")

    def add_pipeline_flags(p):
        p.add_argument("--pipeline", choices=("xos", "subadditive"), required=True)
        p.add_argument("--alpha", type=float, default=0.25)
        p.add_argument("--epsilon", type=float, default=None)
        p.add_argument("--delta", type=float, default=None)
        p.add_argument("--d", type=float, default=None)
        p.add_argument("--proc", choices=("cr", "oracle"), default="oracle")
        p.add_argument("--append-residual", action="store_true")
        p.add_argument("--check-rematch", action="store_true")

    p = sub.add_parser("gen", help="generate seeded instances")
    add_gen_flags(p)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", help="run a pipeline on one instance")
    p.add_argument("--instance", required=True)
    add_pipeline_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--timings", action="store_true",
                   help="include wall-clock timings (breaks byte determinism)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("exact", help="exact NSW optimum by subset DP")
    p.add_argument("--instance", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("ratio", help="pipeline vs exact optimum over instances")
    p.add_argument("--instances", default=None,
                   help="directory of instance JSON files (overrides generation)")
    add_gen_flags(p)
    add_pipeline_flags(p)
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_ratio)

    p = sub.add_parser("fuzz", help="run a module's invariant suite")
    p.add_argument("--module", choices=sorted(FUZZERS), required=True)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser("conc", help="concentration bound experiments")
    p.add_argument("--family", choices=FAMILIES, default="budgeted_additive")
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--count", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_conc)

    p = sub.add_parser("report", help="summarize a results CSV")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--column", default="ratio")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except CapExceeded as exc:
        print(f"enumeration cap: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (SchemaError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point: gen, solve, exact, ratio, fuzz, conc, report.

Exit codes are a stable contract, chosen by the error's type alone:
0 success, 1 usage or I/O error, 2 `InvariantViolation` (a stage
invariant, including relaxation columns that fall short of the certified
value, a barrier with no certified step or an unbounded LP), 3
`CapExceeded` (an enumeration or iteration cap, including the simplex
pivot cap), printed as `cap exceeded: <message>`. All randomness flows
from --seed; there is no ambient entropy anywhere, so identical
invocations produce byte-identical machine output. Human-readable
summaries go to stderr, machine output to stdout or files.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from . import fuzz
from .concentration import tail_checks
from .generators import FAMILIES, TABLE_STYLES, WEIGHT_DISTRIBUTIONS, GenSpec, generate
from .model import InvariantViolation, SchemaError, load_instance, serialize_instance
from .oracle import exact_nsw
from .pipeline import PROCEDURES, PipelineParams, run_subadditive, run_xos
from .relaxation import trace_csv
from .valuations import CapExceeded

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVARIANT = 2
EXIT_CAP = 3

CSV_SCHEMA_LINE = "# schema=1"


def _child_seed(master: int, index: int) -> int:
    return int(np.random.SeedSequence(master, spawn_key=(900, index)).generate_state(1)[0])


def _count(text: str) -> int:
    """An argparse type: a count of zero or more."""
    count = int(text)
    if count < 0:
        raise argparse.ArgumentTypeError(f"count must be at least 0, got {count}")
    return count


def _pipeline_params(args) -> PipelineParams:
    return PipelineParams(alpha=args.alpha, epsilon=args.epsilon, delta=args.delta,
                          d=args.d, proc=args.proc, seed=args.seed,
                          append_residual=args.append_residual,
                          check_rematch=args.check_rematch)


def _gen_spec(args, idx: int) -> GenSpec:
    return GenSpec(family=args.family, n=args.n, m=args.m, weights=args.weights,
                   clauses=args.clauses, cap_ratio=args.cap_ratio,
                   table_style=args.table_style, seed=_child_seed(args.seed, idx))


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
        path = out_dir / f"{args.family}_{args.n}x{args.m}_{idx:04d}.json"
        path.write_text(serialize_instance(generate(_gen_spec(args, idx))))
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
    if args.trace:
        # no active agent means no relaxation ran: the trace has no rows
        Path(args.trace).write_text(trace_csv(report.eg.trace if report.eg else ()))
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
        for path in paths:
            yield path.stem, load_instance(path.read_text())
    else:
        for idx in range(args.count):
            yield f"{args.family}_{idx:04d}", generate(_gen_spec(args, idx))


def _status(report) -> str:
    """How the run went, by the first stage that did not run as designed:
    `not_run` (no agent was left for the relaxation), `capped` (the
    relaxation missed its certificate), `fallback_matching` (the
    subadditive filter left no agent, so the matching serves everyone),
    `rounds_capped` (iterated rounding hit its round cap, and the agents
    still active got empty sets) or `converged`."""
    if report.eg is None:
        return "not_run"
    if not report.eg.converged:
        return "capped"
    if report.filtered is not None and not report.filtered:
        return "fallback_matching"
    if report.outcome.rounds_capped:
        return "rounds_capped"
    return "converged"


def cmd_ratio(args) -> int:
    params = _pipeline_params(args)
    rows = []
    for name, inst in _ratio_instances(args):
        t0 = perf_counter()
        report = _run_pipeline(inst, args.pipeline, params)
        wall = perf_counter() - t0
        exact = exact_nsw(inst).optimum
        # no allocation beats a zero optimum, so the pipeline's 0 attains it
        ratio = report.nsw / exact if exact > 0 else 1.0
        # empty where no agent was left for the relaxation
        converged = "" if report.eg is None else int(report.eg.converged)
        rows.append({"instance": name, "n": inst.n, "m": inst.m,
                     "family": inst.valuations[0].kind, "nsw": report.nsw,
                     "exact": exact, "ratio": ratio, "converged": converged,
                     "status": _status(report), "seed": params.seed, "wall_time": wall})
    _write_csv(args.out, ["instance", "n", "m", "family", "nsw", "exact",
                          "ratio", "converged", "status", "seed", "wall_time"], rows)
    ratios = sorted(r["ratio"] for r in rows)
    summary = f"instances={len(rows)}"
    if ratios:
        summary += f" min_ratio={ratios[0]:.6g} median_ratio={ratios[len(ratios) // 2]:.6g}"
    print(summary, file=sys.stderr)
    return EXIT_OK


FUZZERS = {"split": fuzz.split_case, "round": fuzz.round_case,
           "relax": fuzz.relax_case, "match": fuzz.match_case}


def cmd_fuzz(args) -> int:
    if args.count == 0:
        print("warning: count=0, vacuous pass", file=sys.stderr)
        return EXIT_OK
    suite = FUZZERS[args.module]
    for idx in range(args.count):
        seed = _child_seed(args.seed, idx)
        try:
            suite(seed)
        except AssertionError as exc:  # InvariantViolation among them
            print(f"FAIL module={args.module} seed={seed}: {exc}", file=sys.stderr)
            return EXIT_INVARIANT
    print(f"fuzz {args.module}: {args.count} runs clean", file=sys.stderr)
    return EXIT_OK


def cmd_conc(args) -> int:
    rows = []
    low_power = args.trials < 1000
    for idx in range(args.count):
        exp = fuzz.conc_experiment(_child_seed(args.seed, idx), args.family,
                                   args.trials, args.q, args.k)
        for res in tail_checks(exp):
            rows.append({"experiment": idx, "family": args.family, "q": args.q,
                         "k": args.k, "check": res.name, "empirical": res.empirical,
                         "bound": res.bound, "slack": res.slack,
                         "passed": int(res.passed)})
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
    if not values:
        print(f"no values in column {col!r}", file=sys.stderr)
        return EXIT_USAGE
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
        p.add_argument("--weights", choices=WEIGHT_DISTRIBUTIONS, default=GenSpec.weights)
        p.add_argument("--clauses", type=int, default=GenSpec.clauses)
        p.add_argument("--cap-ratio", dest="cap_ratio", type=float, default=GenSpec.cap_ratio)
        p.add_argument("--table-style", dest="table_style",
                       choices=TABLE_STYLES, default=GenSpec.table_style)

    def add_pipeline_flags(p):
        p.add_argument("--pipeline", choices=("xos", "subadditive"), required=True)
        p.add_argument("--alpha", type=float, default=PipelineParams.alpha)
        p.add_argument("--epsilon", type=float, default=None)
        p.add_argument("--delta", type=float, default=None)
        p.add_argument("--d", type=float, default=None)
        p.add_argument("--proc", choices=sorted(PROCEDURES), default=PipelineParams.proc)
        p.add_argument("--append-residual", action="store_true")
        p.add_argument("--check-rematch", action="store_true")

    p = sub.add_parser("gen", help="generate seeded instances")
    add_gen_flags(p)
    p.add_argument("--count", type=_count, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", help="run a pipeline on one instance")
    p.add_argument("--instance", required=True)
    add_pipeline_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--timings", action="store_true",
                   help="include wall-clock timings (breaks byte determinism)")
    p.add_argument("--trace", default=None, metavar="PATH",
                   help="write the Eisenberg-Gale iteration trace as CSV "
                        "(no rows when no relaxation runs)")
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
    p.add_argument("--count", type=_count, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_ratio)

    p = sub.add_parser("fuzz", help="run a module's invariant suite")
    p.add_argument("--module", choices=sorted(FUZZERS), required=True)
    p.add_argument("--count", type=_count, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser("conc", help="concentration bound experiments")
    p.add_argument("--family", choices=FAMILIES, default="budgeted_additive")
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--count", type=_count, default=5)
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
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (SchemaError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

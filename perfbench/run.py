"""Seeded benchmark of the nswforge pipelines and exact oracles.

Run from the root of a checkout:

    python3 perfbench/run.py --workload xos_lane --seed 1 --seconds 15 --trace 0

One process, no worker threads, BLAS pinned to one thread. The run sets up
(imports the library from ./src, builds the workload's instance pools, loads
the reference optima), solves one op once untimed as a warm-up, then makes
rounds over the workload's ops, each op once per round in a seeded order,
until at least three rounds and `--seconds` have passed. Meanwhile a
calibration kernel (calibrate.py) runs every 25 ms of wall time, inside
the ops, and its mean time around a solve measures how fast the shared
host ran during it. Op times are reported in reference seconds: the
solve's wall seconds, less the kernel's own time, scaled by
calibrate.REF_S over that mean. Every solve's output is checked; a failed
check or an exception counts the solve as failed.

With `--trace 0` the last line reports the end-to-end metrics. With
`--trace 1` the ops of the first round run once more with the tracer
installed, and the last line reports per-layer metrics: self time and
calls per op for each wrapped layer, and the tracing overhead over an
untraced round. Spans are written to .perfbench_trace/ in the checkout.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy loads; children inherit the setting.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(ROOT, ".perfbench_trace")
SETUP_CHILDREN = 4  # set-ups in fresh interpreters, besides this process's own
MIN_ROUNDS = 3  # solves of every op per run
SAMPLE_PAD = 0.1  # seconds either side of a solve whose kernel samples it is charged
STAGES = ("matching", "relaxation", "splitting", "rounding", "rematching")

import calibrate  # noqa: E402
import workloads  # noqa: E402


class SetupError(RuntimeError):
    pass


@dataclass
class Setup:
    seconds: float
    instances: dict
    references: dict


def set_up(workload: str) -> Setup:
    """Import nswforge from this checkout, build the instance pool of every
    shape of the workload and load the reference optima."""
    start = time.perf_counter()
    if not os.path.isdir(os.path.join(SRC, "nswforge")):
        raise SetupError(f"no nswforge package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import nswforge

    if os.path.dirname(os.path.abspath(nswforge.__file__)) != os.path.join(SRC, "nswforge"):
        raise SetupError(f"nswforge imported from {nswforge.__file__}, not from {SRC}")
    refs = workloads.load_references()
    instances, references = {}, {}
    for shape in workloads.WORKLOADS[workload]:
        ref = refs.get(shape.key)
        if shape.has_reference and (ref is None or not set(shape.seeds) <= set(ref)):
            raise SetupError(f"reference.json lacks optima for {shape.key}")
        references[shape.key] = ref
        instances[shape.key] = {k: shape.instance(k) for k in shape.seeds}
    return Setup(time.perf_counter() - start, instances, references)


def child_setup_seconds(workload: str) -> float:
    out = subprocess.run([sys.executable, os.path.abspath(__file__), "--setup-only",
                          "--workload", workload], cwd=ROOT, check=True,
                         capture_output=True, text=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


@dataclass
class OpRecord:
    op: workloads.Op
    seconds: float
    errors: list[str]
    fingerprint: str = ""
    nsw: float = math.nan
    stats: dict = field(default_factory=dict)
    started: float = 0.0  # perf_counter at the start of the solve
    ref_s: float = math.nan  # the solve's time in reference seconds


def _stats(op: workloads.Op, result) -> dict:
    """Counts read from an op's result, for the per-layer metrics."""
    if op.shape.op == "exact_nsw":
        return {"exact_nsw_nodes": result.nodes}
    if op.shape.op == "exact_config_lp":
        return {"config_lp_columns": result.nodes}
    out = {"timings": dict(result.timings), "subadditive": op.shape.op == "run_subadditive",
           "engaged": bool(result.filtered), "rounds": 0, "capped": 0, "columns": 0}
    if result.eg is not None:
        eg = result.eg
        out["eg"] = (eg.iterations, eg.converged,
                     eg.gap / (eg.epsilon ** 4 * len(eg.agents)))
    if result.outcome is not None:
        out["rounds"] = len(result.outcome.round_log)
        out["capped"] = int(result.outcome.rounds_capped)
    if result.split is not None:
        out["columns"] = sum(len(c) for c in result.split.columns.values())
    return out


def solve(op: workloads.Op, setup: Setup, call=None) -> OpRecord:
    """Run one op, time it, then check its output (untimed)."""
    inst = setup.instances[op.shape.key][op.k]
    refs = setup.references[op.shape.key]
    start = time.perf_counter()
    try:
        result = (call or workloads.run_op)(op, inst)
    except Exception:  # the run must go on; the op counts as failed
        seconds = time.perf_counter() - start
        traceback.print_exc(file=sys.stderr)
        return OpRecord(op, seconds, [f"{op.label}: raised"], started=start)
    seconds = time.perf_counter() - start
    try:
        errors = workloads.check(op, inst, result, None if refs is None else refs[op.k])
        return OpRecord(op, seconds, [f"{op.label}: {e}" for e in errors],
                        workloads.fingerprint(op, inst, result),
                        workloads.nsw_of(op, result), _stats(op, result), started=start)
    except Exception as exc:  # a result the checks cannot read fails them
        return OpRecord(op, seconds, [f"{op.label}: check raised {exc!r}"], started=start)


def timed_rounds(workload: str, seed: int, seconds: float, setup: Setup,
                 max_ops: int | None = None,
                 min_rounds: int = MIN_ROUNDS) -> tuple[list[list[OpRecord]], float, float]:
    """Warm up on one op, then solve every op of the workload once per round
    until `min_rounds` rounds and `seconds` have passed, with the
    calibration sampler running. Returns the rounds, their wall time and
    the host's mean kernel time over them.

    Every solve of an op, the warm-up included, must give the same result
    as its first. `max_ops` cuts each round short (smoke test only).
    """
    warm = solve(workloads.warm_up_op(workload), setup)
    stream = workloads.rounds(workload, seed)
    rounds: list[list[OpRecord]] = []
    with calibrate.Sampler() as sampler:
        start = time.perf_counter()
        while len(rounds) < min_rounds or time.perf_counter() - start < seconds:
            rounds.append([solve(op, setup) for op in next(stream)[:max_ops]])
        wall = time.perf_counter() - start
    for rec in (r for rnd in rounds for r in rnd):
        end = rec.started + rec.seconds
        rec.seconds -= sampler.spent_in(rec.started, end)
        near = sampler.window(rec.started - SAMPLE_PAD, end + SAMPLE_PAD)
        rec.ref_s = rec.seconds * calibrate.REF_S / sampler.clipped_mean(near)
    first: dict[workloads.Op, OpRecord] = {}
    for rec in (r for rnd in rounds for r in rnd):
        twin = first.setdefault(rec.op, rec)
        if rec.fingerprint != twin.fingerprint:
            rec.errors.append(f"{rec.op.label}: two solves with one seed differ")
    twin = first.get(warm.op, rounds[0][0])
    twin.errors.extend(warm.errors)
    if twin.op == warm.op and twin.fingerprint != warm.fingerprint:
        twin.errors.append(f"{warm.op.label}: two solves with one seed differ")
    return rounds, wall, sampler.clipped_mean(sampler.seconds)


def traced_pass(records: list[OpRecord], setup: Setup):
    """Re-run the same ops once with the tracer installed; compare outputs."""
    import tracer as tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        traced = [solve(rec.op, setup, call=lambda op, inst: tracer.run(
            "op", workloads.run_op, op, inst)) for rec in records]
    finally:
        tracer.remove()
    wall = sum(r.seconds for r in traced)  # solve time only, as in round walls
    for rec, again in zip(records, traced):
        if again.fingerprint != rec.fingerprint:
            again.errors.append(f"{rec.op.label}: traced solve differs from untraced")
    return traced, wall, tracer


def _geomean(values: list[float]) -> float:
    """Geometric mean; 0 for no values or when any value is 0."""
    if not values or min(values) <= 0.0:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(rounds, setups) -> dict:
    """Op times in reference seconds; set-up time in wall seconds."""
    solves = [r for rnd in rounds for r in rnd]
    per_op: dict[workloads.Op, list[float]] = {}
    for r in solves:
        per_op.setdefault(r.op, []).append(r.ref_s)
    nsws = [r.nsw for r in rounds[0] if not math.isnan(r.nsw)]
    return {
        "setup_s": _metric(statistics.median(setups), "s"),
        "ops_per_ref_s": _metric(len(solves) / sum(r.ref_s for r in solves), "1/ref_s"),
        "op_ref_s_p50": _metric(
            statistics.median(statistics.fmean(t) for t in per_op.values()), "ref_s"),
        "nsw_geomean": _metric(_geomean(nsws), "nsw"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(records, round_wall, traced_wall, tracer) -> dict:
    """Stage times and counts come from the first untraced round, spans
    from the traced pass of the same ops. Times are wall seconds."""
    n = len(records)
    own = tracer.self_times()
    st = [r.stats for r in records]
    pipe = [s for s in st if "timings" in s]
    egs = [s["eg"] for s in pipe if "eg" in s]
    subadd = [s for s in pipe if s["subadditive"]]

    def per_op(total, unit):
        return _metric(total / n, unit)

    def span_s(name):
        return per_op(own.get(name, 0.0), "s/op")

    def calls(name):
        return per_op(tracer.calls[name], "calls/op")

    out = {f"pipeline.{stage}_s": per_op(sum(s["timings"].get(stage, 0.0) for s in pipe), "s/op")
           for stage in STAGES}
    out.update({
        "relaxation.solve_eg_s": span_s("relaxation.solve_eg"),
        "relaxation.eg_iterations": _metric(
            statistics.fmean(e[0] for e in egs) if egs else 0.0, "iters/solve"),
        "relaxation.converged_frac": _metric(
            sum(e[1] for e in egs) / len(egs) if egs else 0.0, "frac"),
        # a gap of exactly 0 would zero the geomean; floor it at a tiny ratio
        "relaxation.gap_over_target": _metric(
            _geomean([max(e[2], 1e-300) for e in egs]), "ratio"),
        "relaxation.concave_ext_calls": calls("relaxation.concave_ext"),
        "relaxation.concave_ext_s": span_s("relaxation.concave_ext"),
        "relaxation.colgen_rounds": per_op(tracer.counts["relaxation.colgen_rounds"], "rounds/op"),
        "lp.maximize_calls": calls("_lp.maximize"),
        "lp.maximize_s": span_s("_lp.maximize"),
        "valuations.demand_calls": calls("valuations.demand"),
        "valuations.demand_s": span_s("valuations.demand"),
        "valuations.value_calls": calls("valuations.value"),
        "valuations.value_rows_calls": calls("valuations.value_rows"),
        "splitting.split_s": span_s("splitting.split"),
        "splitting.columns_out": per_op(sum(s["columns"] for s in pipe), "columns/op"),
        "rounding.welfare_factor_s": span_s("rounding.welfare_factor"),
        "rounding.round_s": span_s("rounding.round"),
        "rounding.procedure_s": span_s("rounding.procedure"),
        "rounding.procedure_calls": calls("rounding.procedure"),
        "rounding.rounds": per_op(sum(s["rounds"] for s in pipe), "rounds/op"),
        "rounding.engaged_frac": _metric(
            sum(s["engaged"] for s in subadd) / len(subadd) if subadd else 0.0, "frac"),
        "rounding.rounds_capped": per_op(sum(s["capped"] for s in pipe), "count/op"),
        "matching.initial_matching_s": span_s("matching.initial_matching"),
        "matching.product_matching_calls": calls("matching.product_matching"),
        "oracle.exact_nsw_s": span_s("oracle.exact_nsw"),
        "oracle.exact_nsw_nodes": per_op(sum(s.get("exact_nsw_nodes", 0) for s in st),
                                         "nodes/op"),
        "oracle.exact_config_lp_s": span_s("oracle.exact_config_lp"),
        "oracle.config_lp_columns": per_op(sum(s.get("config_lp_columns", 0) for s in st),
                                           "columns/op"),
        "trace.overhead_frac": _metric(traced_wall / round_wall - 1.0, "frac"),
    })
    return out


def machine() -> dict:
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def run(workload: str, seed: int, seconds: float, trace: bool,
        max_ops: int | None = None, min_rounds: int = MIN_ROUNDS) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    setup = set_up(workload)
    setups = [setup.seconds]
    if not trace:
        setups += [child_setup_seconds(workload) for _ in range(SETUP_CHILDREN)]
    rounds, wall, kernel_s = timed_rounds(workload, seed, seconds, setup, max_ops, min_rounds)
    ran = [r for rnd in rounds for r in rnd]
    round_walls = [sum(r.seconds for r in rnd) for rnd in rounds]
    if trace:
        traced, traced_wall, tracer = traced_pass(rounds[0], setup)
        ran += traced
        os.makedirs(TRACE_DIR, exist_ok=True)
        tracer.dump(os.path.join(TRACE_DIR, f"{workload}-seed{seed}.jsonl"))
        metrics = per_layer(rounds[0], statistics.median(round_walls), traced_wall, tracer)
    else:
        metrics = end_to_end(rounds, setups)
    failed = sum(bool(r.errors) for r in ran)
    for r in ran:
        for err in r.errors:
            print("FAILED", err, file=sys.stderr)
    egs = [r.stats["eg"] for r in rounds[0] if "eg" in r.stats]
    print(f"# workload={workload} seed={seed} trace={int(trace)} ops={len(rounds[0])} "
          f"rounds={len(rounds)} wall_s={wall:.3f} "
          f"machine={json.dumps(machine(), sort_keys=True)}")
    print(f"# failed_frac={failed / len(ran):.4f} ({failed}/{len(ran)}) "
          f"converged_frac={sum(e[1] for e in egs)}/{len(egs)} relaxation solves")
    solves = [r for rnd in rounds for r in rnd]
    print(f"# kernel {kernel_s * 1e3:.4f} ms (REF_S {calibrate.REF_S * 1e3:g} ms); "
          f"wall ops_per_s {len(solves) / sum(r.seconds for r in solves):.4f}; "
          "round wall s " + " ".join(f"{w:.3f}" for w in round_walls))
    for r in sorted(rounds[0], key=lambda r: r.op.label):
        print(f"# op {r.op.label:28s} wall s " + " ".join(
            f"{x.seconds:.4f}" for x in solves if x.op == r.op) + "  ref_s " + " ".join(
            f"{x.ref_s:.4f}" for x in solves if x.op == r.op))
    if trace:
        for name, secs in sorted(tracer.self_times().items(), key=lambda kv: -kv[1]):
            print(f"# self {name:28s} {secs:10.4f} s  {tracer.calls[name]:8d} calls")
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    return {"correct": failed == 0, "attempted": len(ran), "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up once and print the seconds it took")
    args = ap.parse_args(argv)
    try:
        if args.setup_only:
            print(repr(set_up(args.workload).seconds))
            return 0
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (SetupError, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

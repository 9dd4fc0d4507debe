"""CLI contract: subcommands, exit codes, determinism, CSV schema."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from nswforge import fuzz
from nswforge.cli import (EXIT_CAP, EXIT_INVARIANT, EXIT_OK, EXIT_USAGE, _gen_spec,
                          _pipeline_params, build_parser, main)
from nswforge.generators import GenSpec, generate
from nswforge.model import Instance, Matching, serialize_instance
from nswforge.pipeline import PipelineParams
from nswforge.valuations import Additive

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def instance_file(tmp_path):
    inst = generate(GenSpec("xos", 2, 5, seed=11))
    path = tmp_path / "inst.json"
    path.write_text(serialize_instance(inst))
    return path


@pytest.fixture
def budgeted_file(tmp_path):
    inst = generate(GenSpec("budgeted_additive", 2, 5, seed=3))
    path = tmp_path / "budgeted.json"
    path.write_text(serialize_instance(inst))
    return path


class TestSolve:
    def test_smoke(self, instance_file, capsys):
        code = main(["solve", "--instance", str(instance_file),
                     "--pipeline", "xos", "--seed", "5"])
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["nsw"] > 0

    def test_byte_identical_reports(self, instance_file, tmp_path):
        # a fresh process, so the first report comes from the solve that
        # loads LAPACK and the second from one that finds it loaded
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        code = ("import sys\n"
                "from nswforge.cli import main\n"
                "for out in sys.argv[2:]:\n"
                "    assert main(['solve', '--instance', sys.argv[1], '--pipeline', 'xos',\n"
                "                 '--seed', '7', '--out', out]) == 0\n")
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        subprocess.run([sys.executable, "-c", code, str(instance_file), str(out1), str(out2)],
                       env=env, check=True, capture_output=True, timeout=120)
        assert out1.read_bytes() == out2.read_bytes()
        assert main(["solve", "--instance", str(instance_file), "--pipeline", "xos",
                     "--seed", "7", "--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_wrong_family_is_usage_error(self, budgeted_file, capsys):
        code = main(["solve", "--instance", str(budgeted_file),
                     "--pipeline", "xos"])
        assert code == EXIT_USAGE
        assert "requires XOS valuations" in capsys.readouterr().err

    def test_integer_too_large_for_a_float_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"agents": [
            {"name": "a", "valuation": {"kind": "additive", "weights": [1, 10**400]}}],
            "items": ["x", "y"]}))
        assert main(["solve", "--instance", str(path), "--pipeline", "xos"]) == EXIT_USAGE
        assert ("error: /agents/0/valuation/weights/1: weight must be finite"
                in capsys.readouterr().err)

    def test_missing_file_is_usage_error(self, tmp_path):
        assert main(["solve", "--instance", str(tmp_path / "nope.json"),
                     "--pipeline", "xos"]) == EXIT_USAGE

    def test_trace_has_one_row_per_iteration(self, instance_file, tmp_path, capsys):
        base = ["solve", "--instance", str(instance_file), "--pipeline", "xos",
                "--seed", "7"]
        assert main(base) == EXIT_OK
        plain = capsys.readouterr().out
        trace = tmp_path / "trace.csv"
        assert main(base + ["--trace", str(trace)]) == EXIT_OK
        assert capsys.readouterr().out == plain
        lines = trace.read_text().splitlines()
        assert lines[0] == "# schema=1"
        assert lines[1] == "iteration,objective,gap,step"
        iterations = json.loads(plain)["stages"]["relaxation"]["iterations"]
        assert len(lines) - 2 == iterations > 0
        assert [int(line.split(",")[0]) for line in lines[2:]] == list(range(1, iterations + 1))

    def test_trace_without_relaxation_has_no_rows(self, tmp_path, capsys):
        # as many items as agents: the reservation matching takes them all
        path = tmp_path / "square.json"
        path.write_text(serialize_instance(generate(GenSpec("xos", 2, 2, seed=1))))
        trace = tmp_path / "trace.csv"
        assert main(["solve", "--instance", str(path), "--pipeline", "xos",
                     "--trace", str(trace)]) == EXIT_OK
        assert "relaxation" not in json.loads(capsys.readouterr().out)["stages"]
        assert trace.read_text().splitlines() == ["# schema=1", "iteration,objective,gap,step"]

    @pytest.mark.parametrize("flags", [["--d", "0"], ["--d", "-1"], ["--delta", "2"],
                                       ["--delta", "0"], ["--delta", "1"]])
    def test_bad_delta_or_d_is_usage_error(self, flags, tmp_path, capsys):
        # near-uniform 2x16 passes the 6*nu filter, so rounding would use delta
        path = tmp_path / "near_uniform.json"
        path.write_text(serialize_instance(
            generate(GenSpec("additive", 2, 16, seed=0, weights="near_uniform"))))
        assert main(["solve", "--instance", str(path), "--pipeline", "subadditive"]
                    + flags) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    @pytest.mark.parametrize("flags, message", [
        (["--delta", "0.5", "--d", "0"], "d must exceed 1/7"),
        (["--alpha", "-0.5"], "alpha must be finite and positive"),
        (["--alpha", "0"], "alpha must be finite and positive"),
        (["--alpha", "nan"], "alpha must be finite and positive"),
        (["--alpha", "inf"], "alpha must be finite and positive"),
        (["--epsilon", "-1"], "epsilon must be finite and positive"),
        (["--epsilon", "0"], "epsilon must be finite and positive"),
        (["--epsilon", "nan"], "epsilon must be finite and positive")])
    def test_bad_param_is_usage_error_when_no_relaxation_runs(self, flags, message,
                                                              tmp_path, capsys):
        # as many items as agents: the reservation matching takes them all,
        # so no relaxation or rounding would read the value
        path = tmp_path / "square.json"
        path.write_text(serialize_instance(generate(GenSpec("additive", 3, 3, seed=0))))
        assert main(["solve", "--instance", str(path), "--pipeline", "subadditive"]
                    + flags) == EXIT_USAGE
        assert f"error: {message}" in capsys.readouterr().err

    def test_bad_delta_is_usage_error_when_no_agent_engages(self, budgeted_file, capsys):
        assert main(["solve", "--instance", str(budgeted_file), "--pipeline", "subadditive",
                     "--delta", "2"]) == EXIT_USAGE
        assert "error: delta must lie in (0, 1)" in capsys.readouterr().err

    def test_subadditive_lane(self, budgeted_file, capsys):
        code = main(["solve", "--instance", str(budgeted_file),
                     "--pipeline", "subadditive", "--proc", "oracle"])
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["pipeline"] == "subadditive"


class TestGenAndExact:
    def test_gen_writes_instances(self, tmp_path):
        out = tmp_path / "gen"
        assert main(["gen", "--family", "additive", "--n", "2", "--m", "4",
                     "--count", "3", "--seed", "1", "--out", str(out)]) == EXIT_OK
        assert len(list(out.glob("*.json"))) == 3

    def test_exact_smoke(self, instance_file, capsys):
        assert main(["exact", "--instance", str(instance_file)]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["optimum"] > 0 and doc["nodes"] == 2 ** 5


class TestRatio:
    def test_parser_defaults_are_the_dataclass_defaults(self):
        # `ratio` takes both the generator and the pipeline flags
        args = build_parser().parse_args(["ratio", "--pipeline", "xos"])
        assert _pipeline_params(args) == PipelineParams()
        assert replace(_gen_spec(args, 0), seed=0) == GenSpec(args.family, args.n, args.m)

    def test_generated_batch(self, tmp_path, capsys):
        out = tmp_path / "ratio.csv"
        code = main(["ratio", "--family", "additive", "--n", "2", "--m", "4",
                     "--count", "4", "--pipeline", "xos", "--seed", "2",
                     "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "# schema=1"
        assert lines[1].startswith("instance,")
        assert len(lines) == 6
        assert "min_ratio=" in capsys.readouterr().err

    def test_zero_count_writes_the_header_only(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code = main(["ratio", "--family", "additive", "--n", "2", "--m", "4",
                     "--count", "0", "--pipeline", "xos", "--out", str(out)])
        assert code == EXIT_OK
        assert out.read_text().splitlines() == [
            "# schema=1", "instance,n,m,family,nsw,exact,ratio,converged,status,seed,wall_time"]
        assert capsys.readouterr().err.strip() == "instances=0"

    def test_instance_directory(self, tmp_path, capsys):
        gen_dir = tmp_path / "instances"
        main(["gen", "--family", "xos", "--n", "2", "--m", "4", "--count", "2",
              "--seed", "3", "--out", str(gen_dir)])
        code = main(["ratio", "--instances", str(gen_dir), "--pipeline", "xos",
                     "--out", str(tmp_path / "r.csv")])
        assert code == EXIT_OK

    def test_zero_optimum_gives_ratio_one(self, tmp_path, capsys):
        # both agents value only item 0, so every allocation has NSW 0,
        # the optimum included
        inst_dir = tmp_path / "zero"
        inst_dir.mkdir()
        inst = Instance(("a", "b"), ("x", "y"), (Additive([1, 0]), Additive([1, 0])))
        (inst_dir / "zero.json").write_text(serialize_instance(inst))
        out = tmp_path / "r.csv"
        assert main(["ratio", "--instances", str(inst_dir), "--pipeline", "xos",
                     "--out", str(out)]) == EXIT_OK
        assert "min_ratio=1 " in capsys.readouterr().err
        header, row = (line.split(",") for line in out.read_text().splitlines()[1:])
        assert (row[header.index("nsw")], row[header.index("exact")],
                row[header.index("ratio")]) == ("0.0", "0.0", "1.0")
        assert main(["report", "--in", str(out), "--column", "ratio"]) == EXIT_OK
        assert "mean=1 max=1" in capsys.readouterr().out

    @pytest.mark.parametrize("family", ["additive", "xos"])
    def test_converged_column(self, family, tmp_path, capsys):
        # 2x2: the reservation matching takes every item and no relaxation
        # runs, so the column is empty
        out, square = tmp_path / "r.csv", tmp_path / "square.csv"
        for path, n, m in ((out, 3, 6), (square, 2, 2)):
            assert main(["ratio", "--family", family, "--n", str(n), "--m", str(m),
                         "--count", "6", "--pipeline", "xos", "--seed", "3",
                         "--out", str(path)]) == EXIT_OK
        header = out.read_text().splitlines()[1].split(",")
        col = header.index("converged")
        flags = [line.split(",")[col] for line in out.read_text().splitlines()[2:]]
        assert len(flags) == 6 and set(flags) <= {"0", "1"}
        if family == "additive":
            assert set(flags) == {"1"}
        assert [line.split(",")[col] for line in square.read_text().splitlines()[2:]] == [""] * 6
        capsys.readouterr()
        assert main(["report", "--in", str(out), "--column", "converged"]) == EXIT_OK
        share = flags.count("1") / 6
        assert f"mean={share:.6g}" in capsys.readouterr().out
        assert main(["report", "--in", str(square), "--column", "converged"]) == EXIT_USAGE

    def test_status_column(self, tmp_path, monkeypatch):
        # 2x2: the matching takes every item; additive 3x6 on the XOS lane
        # converges; budgeted 3x6 converges but is too narrow for the
        # subadditive filter; near-uniform 2x16 passes the filter, but a cr
        # procedure that hands out nothing never lets an agent exit; cut to
        # 3 Newton steps, budgeted 3x6 misses its certificate
        from nswforge import pipeline, relaxation

        grids = {"square": ("additive", 2, 2, "xos"), "xos": ("additive", 3, 6, "xos"),
                 "budgeted": ("budgeted_additive", 3, 6, "subadditive"),
                 "rounds_capped": ("additive", 2, 16, "subadditive"),
                 "capped": ("budgeted_additive", 3, 6, "subadditive")}
        seen = {}
        for name, (family, n, m, pipeline_name) in grids.items():
            extra = []
            if name == "rounds_capped":
                monkeypatch.setitem(pipeline.PROCEDURES, "cr",
                                    lambda columns, *args: {i: frozenset() for i in columns})
                extra = ["--weights", "near_uniform", "--proc", "cr"]
            if name == "capped":
                monkeypatch.setattr(relaxation, "MAX_ITERATIONS", 3)
            path = tmp_path / f"{name}.csv"
            assert main(["ratio", "--family", family, "--n", str(n), "--m", str(m),
                         "--count", "6", "--pipeline", pipeline_name, "--seed", "1",
                         "--out", str(path), *extra]) == EXIT_OK
            lines = path.read_text().splitlines()
            header = lines[1].split(",")
            rows = [dict(zip(header, line.split(","))) for line in lines[2:]]
            seen[name] = [r["status"] for r in rows]
            for r in rows:  # status agrees with the converged column
                assert r["converged"] == {"not_run": "", "capped": "0"}.get(r["status"], "1")
        assert seen["square"] == ["not_run"] * 6
        assert seen["xos"] == ["converged"] * 6
        assert seen["budgeted"] == ["fallback_matching"] * 6
        assert seen["rounds_capped"] == ["rounds_capped"] * 6
        assert seen["capped"] == ["capped"] * 6

    def test_empty_directory_errors(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["ratio", "--instances", str(empty),
                     "--pipeline", "xos"]) == EXIT_USAGE

    def test_single_agent_with_residual_is_near_exact(self, tmp_path):
        out = tmp_path / "single.csv"
        code = main(["ratio", "--family", "xos", "--n", "1", "--m", "5",
                     "--count", "3", "--pipeline", "xos", "--seed", "4",
                     "--append-residual", "--out", str(out)])
        assert code == EXIT_OK
        rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
        header = out.read_text().splitlines()[1].split(",")
        ratio_col = header.index("ratio")
        assert all(float(r[ratio_col]) >= 1 - 1e-9 for r in rows)

    def test_identical_runs_give_identical_rows(self, tmp_path):
        args = ["ratio", "--family", "additive", "--n", "2", "--m", "4",
                "--count", "4", "--pipeline", "xos", "--seed", "12"]
        assert main(args + ["--out", str(tmp_path / "one.csv")]) == EXIT_OK
        assert main(args + ["--out", str(tmp_path / "two.csv")]) == EXIT_OK

        def strip_wall_time(path):
            return [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]

        assert strip_wall_time(tmp_path / "one.csv") == strip_wall_time(tmp_path / "two.csv")


class TestFuzz:
    def test_zero_count_vacuous(self, capsys):
        assert main(["fuzz", "--module", "split", "--count", "0"]) == EXIT_OK
        assert "vacuous" in capsys.readouterr().err

    @pytest.mark.parametrize("module", ["split", "match", "relax", "round"])
    def test_small_runs_clean(self, module, capsys):
        assert main(["fuzz", "--module", module, "--count", "5",
                     "--seed", "4"]) == EXIT_OK
        assert "runs clean" in capsys.readouterr().err

    def test_split_part_below_quarter_threshold_fails(self, monkeypatch, capsys):
        split_xos = fuzz.split_xos

        def leaky_split(config, valuations, v_plus):
            # keep only each source's least valuable item: the part no
            # longer clears a quarter of v+
            out = split_xos(config, valuations, v_plus)
            v = valuations[0]
            out.columns[0] = [
                replace(col, items=frozenset(),
                        large_item=min(col.source, key=lambda j: v.value((j,))))
                for col in out.columns[0]]
            return out

        monkeypatch.setattr(fuzz, "split_xos", leaky_split)
        assert main(["fuzz", "--module", "split", "--count", "10",
                     "--seed", "4"]) == EXIT_INVARIANT
        assert "below the quarter threshold" in capsys.readouterr().err

    def test_suboptimal_initial_matching_fails(self, monkeypatch, capsys):
        initial_matching = fuzz.initial_matching

        def rotated(inst):
            # hand each agent the next agent's reserved item
            tau, matched, remaining, active = initial_matching(inst)
            items = [tau.assignment[i] for i in inst.agents]
            worse = Matching({i: items[(i + 1) % inst.n] for i in inst.agents})
            return worse, matched, remaining, active

        monkeypatch.setattr(fuzz, "initial_matching", rotated)
        assert main(["fuzz", "--module", "match", "--count", "5",
                     "--seed", "4"]) == EXIT_INVARIANT
        assert "not product-optimal" in capsys.readouterr().err


class TestConc:
    def test_low_power_run_warns_but_passes(self, tmp_path, capsys):
        out = tmp_path / "conc.csv"
        code = main(["conc", "--family", "additive", "--trials", "200",
                     "--count", "2", "--seed", "5", "--out", str(out)])
        assert code == EXIT_OK
        err = capsys.readouterr().err
        assert "low-power" in err
        assert out.read_text().startswith("# schema=1")

    def test_loose_parameters_pass(self, tmp_path):
        assert main(["conc", "--family", "budgeted_additive", "--q", "1",
                     "--k", "1", "--trials", "2000", "--count", "1",
                     "--seed", "6", "--out", str(tmp_path / "c.csv")]) == EXIT_OK


    @pytest.mark.parametrize("flags", [["--q", "0"], ["--k", "0"], ["--trials", "0"],
                                       ["--trials", "1"]])
    def test_bad_parameters_are_usage_errors(self, flags, capsys):
        assert main(["conc", "--count", "1", "--trials", "100"] + flags) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "error:" in err and "passed" not in err


@pytest.mark.parametrize("command", [["gen", "--out", "unused"], ["ratio", "--pipeline", "xos"],
                                     ["fuzz", "--module", "split"], ["conc"]])
def test_negative_count_is_usage_error(command, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(command + ["--count", "-2"]) == EXIT_USAGE
    assert "error: argument --count: count must be at least 0" in capsys.readouterr().err
    assert not (tmp_path / "unused").exists()


class TestExitCodes:
    def test_cap_exceeded_maps_to_exit_3(self, tmp_path):
        from nswforge.generators import GenSpec, generate
        from nswforge.model import serialize_instance

        inst = generate(GenSpec("additive", 3, 20, seed=1))
        path = tmp_path / "big.json"
        path.write_text(serialize_instance(inst))
        assert main(["exact", "--instance", str(path)]) == EXIT_CAP

    def test_demand_cap_exceeded_through_solve_maps_to_exit_3(self, tmp_path, capsys):
        # 2x19: the matching reserves 2 items, and the configuration
        # relaxation would enumerate the 17 that remain, one past its cap
        path = tmp_path / "budgeted.json"
        path.write_text(serialize_instance(generate(GenSpec("budgeted_additive", 2, 19))))
        assert main(["solve", "--instance", str(path), "--pipeline", "subadditive"]) == EXIT_CAP
        assert "cap exceeded:" in capsys.readouterr().err

    def test_oracle_node_cap_exceeded_through_solve_maps_to_exit_3(self, tmp_path, capsys,
                                                                   monkeypatch):
        # near-uniform 4x32 passes the 6*nu filter, and the rounding oracle's
        # searches, which visit at most 97 nodes (the full group's, its dive
        # included), meet a lowered budget
        from nswforge import rounding

        monkeypatch.setattr(rounding, "ORACLE_NODE_CAP", 30)
        path = tmp_path / "near_uniform.json"
        path.write_text(serialize_instance(
            generate(GenSpec("additive", 4, 32, seed=0, weights="near_uniform"))))
        assert main(["solve", "--instance", str(path), "--pipeline", "subadditive"]) == EXIT_CAP
        err = capsys.readouterr().err
        assert "cap exceeded:" in err and "the search visited more than the node cap" in err

    @pytest.mark.parametrize("fault, code, message", [
        ("pivot_cap", EXIT_CAP, "cap exceeded: simplex iteration cap exceeded"),
        ("certificate", EXIT_INVARIANT, "invariant violation: decomposition falls short"),
        ("unbounded", EXIT_INVARIANT, "invariant violation: objective unbounded above"),
        ("uncertified", EXIT_INVARIANT, "invariant violation: no Newton step was certified"),
    ])
    def test_relaxation_errors_map_to_typed_exits(self, fault, code, message, budgeted_file,
                                                  monkeypatch, capsys):
        # the configuration barrier runs, and each agent takes its columns
        # from one relaxation.maximize
        from nswforge import _lp, relaxation

        def unbounded_tables(*args, _f=relaxation.table_subproblem_bound):
            bounds, utility = _f(*args)
            return bounds + np.inf, utility
        maximize = relaxation.maximize
        if fault == "pivot_cap":
            monkeypatch.setattr(_lp, "_MAX_ITER", 0)
        elif fault == "certificate":  # all weight on the empty set, column 0
            monkeypatch.setattr(relaxation, "maximize", lambda *a, **k: replace(
                maximize(*a, **k), x=np.eye(len(a[0]))[0]))
        elif fault == "unbounded":  # no row passes the ratio test
            monkeypatch.setattr(_lp, "_PIVOT_TOL", 1e9)
        else:  # no step's bound is finite
            monkeypatch.setattr(relaxation, "table_subproblem_bound", unbounded_tables)
        assert main(["solve", "--instance", str(budgeted_file),
                     "--pipeline", "subadditive"]) == code
        assert message in capsys.readouterr().err

    def test_column_generation_round_cap_maps_to_exit_3(self, monkeypatch, capsys):
        # the run that TestFuzz sees clean: its concave extensions need
        # more than one column generation round
        from nswforge import relaxation

        monkeypatch.setattr(relaxation, "COLGEN_MAX_ROUNDS", 1)
        assert main(["fuzz", "--module", "relax", "--count", "5", "--seed", "4"]) == EXIT_CAP
        assert ("cap exceeded: column generation round cap exceeded"
                in capsys.readouterr().err)

    def test_invariant_violation_maps_to_exit_2(self, monkeypatch, capsys):
        import nswforge.cli as cli_mod
        from nswforge.model import InvariantViolation

        def broken(seed):
            raise InvariantViolation("engineered failure")

        monkeypatch.setitem(cli_mod.FUZZERS, "split", broken)
        assert main(["fuzz", "--module", "split", "--count", "3",
                     "--seed", "1"]) == EXIT_INVARIANT
        assert "seed=" in capsys.readouterr().err


class TestReport:
    def test_summary(self, tmp_path, capsys):
        csv_path = tmp_path / "r.csv"
        main(["ratio", "--family", "additive", "--n", "2", "--m", "4",
              "--count", "3", "--pipeline", "xos", "--seed", "8",
              "--out", str(csv_path)])
        capsys.readouterr()
        assert main(["report", "--in", str(csv_path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "median=" in out and "min=" in out

    def test_usage_errors(self, tmp_path):
        assert main(["report", "--in", str(tmp_path / "missing.csv")]) == EXIT_USAGE
        assert main(["nonsense"]) == EXIT_USAGE

    def test_unknown_column_is_usage_error(self, tmp_path, capsys):
        csv_path = tmp_path / "r.csv"
        csv_path.write_text("# schema=1\nratio\n0.5\n")
        assert main(["report", "--in", str(csv_path), "--column", "nosuch"]) == EXIT_USAGE
        assert capsys.readouterr().err == "no values in column 'nosuch'\n"

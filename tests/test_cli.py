"""End-to-end command-line flows over temp files."""

import contextlib
import copy
import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st
from reference_rows import row_document

from coflow import cli, experiment
from coflow.certificates import build_certificate, check_certificate, lower_bounds
from coflow.cli import INT_DIGITS_CAP, main, report_text
from coflow.direct import GreedyTrace, greedy_schedule
from coflow.experiment import ALGORITHMS, CSV_COLUMNS, SCHEMA_VERSION
from coflow.generators import generate
from coflow.model import (
    MAX_PARCELS, Instance, Schedule, compute_metrics, load_instance, load_schedule,
)
from coflow.oracle import solve_completion_lp
from coflow.verifier import verify


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_generate_schedule_verify_metrics_round_trip(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    sched = tmp_path / "sched.json"
    code, _, _ = run(capsys, "generate", "--family", "uniform", "--n", "8",
                     "--B", "2", "--out", str(inst))
    assert code == 0
    code, _, _ = run(capsys, "schedule", "--algorithm", "hypercube",
                     "--instance", str(inst), "--out", str(sched))
    assert code == 0
    code, out, _ = run(capsys, "verify", "--instance", str(inst),
                       "--schedule", str(sched))
    assert code == 0
    assert json.loads(out)["feasible"] is True
    code, out, _ = run(capsys, "metrics", "--instance", str(inst),
                       "--schedule", str(sched))
    assert code == 0
    assert json.loads(out)["makespan"] == 3


def test_schedule_prints_the_document_it_writes(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    sched = tmp_path / "sched.json"
    run(capsys, "generate", "--n", "8", "--B", "2", "--out", str(inst))
    code, _, _ = run(capsys, "schedule", "--algorithm", "vlb", "--instance", str(inst),
                     "--out", str(sched))
    assert code == 0
    code, out, _ = run(capsys, "schedule", "--algorithm", "vlb", "--instance", str(inst))
    assert code == 0
    assert out == sched.read_text() + "\n"
    assert json.loads(out)["format"] == "coflow-columns-v1"


@pytest.mark.parametrize("algorithm,family,n,load", [
    ("hypercube", "uniform", 8, "2"),
    ("vlb", "random-sparse", 16, "7/3"),
    ("auto", "adversarial-single-row", 9, "3"),
    ("greedy", "random-sparse", 6, "3/2"),
    ("edge-coloring", "random-sparse", 6, "5/2"),
    ("round-robin", "uniform", 5, "12"),
    ("smeared", "uniform", 6, "7/3"),
])
def test_row_and_column_files_give_the_same_output(tmp_path, capsys, algorithm, family, n, load):
    inst = tmp_path / "inst.json"
    columns = tmp_path / "columns.json"
    rows = tmp_path / "rows.json"
    run(capsys, "--seed", "2", "generate", "--family", family, "--n", str(n), "--B", load,
        "--out", str(inst))
    code, _, _ = run(capsys, "schedule", "--algorithm", algorithm, "--instance", str(inst),
                     "--out", str(columns))
    assert code == 0
    rows.write_text(json.dumps(row_document(load_schedule(str(columns), n))))
    for command in ("verify", "metrics"):
        for fmt in ("json", "csv"):
            outputs = [
                run(capsys, command, "--format", fmt, "--instance", str(inst),
                    "--schedule", str(path))
                for path in (columns, rows)
            ]
            assert outputs[0] == outputs[1], (command, fmt)
            assert outputs[0][0] == 0


def test_verify_exit_one_on_infeasible(tmp_path, capsys):
    good = tmp_path / "good.json"
    big = tmp_path / "big.json"
    sched = tmp_path / "sched.json"
    run(capsys, "generate", "--n", "4", "--B", "1", "--out", str(good))
    run(capsys, "generate", "--n", "4", "--B", "2", "--out", str(big))
    run(capsys, "schedule", "--algorithm", "smeared", "--instance", str(good),
        "--out", str(sched))
    # The half-demand schedule leaves the larger instance unmet.
    code, out, _ = run(capsys, "verify", "--instance", str(big),
                       "--schedule", str(sched))
    assert code == 1
    assert json.loads(out)["feasible"] is False


def test_hypercube_at_any_size_and_no_pad(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    sched = tmp_path / "sched.json"
    run(capsys, "generate", "--n", "6", "--B", "2", "--out", str(inst))
    # n=6 is not a power of two: offsets 1..5 take three binary digits.
    code, _, _ = run(capsys, "schedule", "--algorithm", "hypercube",
                     "--instance", str(inst), "--out", str(sched))
    assert code == 0
    assert json.loads(sched.read_text())["horizon"] == 3
    code, _, _ = run(capsys, "verify", "--instance", str(inst), "--schedule", str(sched))
    assert code == 0
    # --pad is gone: its padded schedule failed verify against its instance.
    sched.unlink()
    with pytest.raises(SystemExit) as exc:
        main(["schedule", "--algorithm", "hypercube", "--instance", str(inst),
              "--out", str(sched), "--pad"])
    assert exc.value.code == 2
    assert not sched.exists()


def test_global_options_on_either_side_of_the_subcommand(tmp_path, capsys):
    spec = ["--family", "random-sparse", "--n", "16", "--B", "2"]
    _, before, _ = run(capsys, "--seed", "1", "generate", *spec)
    _, after, _ = run(capsys, "generate", *spec, "--seed", "1")
    _, other, _ = run(capsys, "generate", *spec, "--seed", "2")
    assert before == after != other
    # A subcommand that does not repeat the option keeps the top-level value.
    _, both, _ = run(capsys, "--seed", "1", "--format", "json", "generate", *spec)
    assert both == before

    inst = tmp_path / "inst.json"
    sched = tmp_path / "sched.json"
    run(capsys, "generate", "--n", "4", "--B", "2", "--out", str(inst))
    run(capsys, "schedule", "--algorithm", "hypercube", "--instance", str(inst),
        "--out", str(sched))
    for argv in (["verify", "--format", "csv"], ["--format", "csv", "verify"]):
        code, out, _ = run(capsys, *argv, "--instance", str(inst),
                           "--schedule", str(sched))
        assert code == 0
        header, values = out.splitlines()
        assert header.split(",")[0] == "feasible" and values.startswith("True,")


def test_one_parser_serves_every_call(tmp_path, capsys, monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    seen = []
    original = cli.cmd_bounds
    monkeypatch.setattr(cli, "cmd_bounds", lambda args: seen.append(args) or original(args))
    code, out, _ = run(capsys, "--seed", "3", "--format", "csv", "bounds", "--n", "4", "--B", "2")
    assert code == 0 and out.startswith("n,B,")
    code, out, _ = run(capsys, "bounds", "--n", "4", "--B", "2")
    assert (code, json.loads(out)["n"]) == (0, 4)
    assert [(args.seed, args.format) for args in seen] == [(3, "csv"), (None, None)]
    # An argparse error leaves the parser fit for the next call.
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--n", "x", "--B", "2"])
    assert exc.value.code == 2
    assert run(capsys, "bounds", "--n", "4", "--B", "2")[:2] == (0, out)
    # A wrapper installed on a command after its first call is the one the
    # next call runs, as a tracer's is.
    inst, sched = tmp_path / "inst.json", tmp_path / "sched.json"
    run(capsys, "generate", "--n", "4", "--B", "2", "--out", str(inst))
    run(capsys, "schedule", "--algorithm", "hypercube", "--instance", str(inst),
        "--out", str(sched))
    files = ("--instance", str(inst), "--schedule", str(sched))
    code, first, _ = run(capsys, "verify", *files)
    assert code == 0
    calls = []
    original = cli.cmd_verify
    monkeypatch.setattr(cli, "cmd_verify", lambda args: calls.append(args) or original(args))
    assert run(capsys, "verify", *files)[:2] == (0, first)
    assert len(calls) == 1


def test_greedy_trace_certify(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    sched = tmp_path / "sched.json"
    trace = tmp_path / "trace.json"
    run(capsys, "--seed", "4", "generate", "--family", "random-sparse",
        "--n", "3", "--B", "3/2", "--out", str(inst))
    code, _, _ = run(capsys, "schedule", "--algorithm", "greedy",
                     "--instance", str(inst), "--out", str(sched),
                     "--trace-out", str(trace))
    assert code == 0
    code, out, _ = run(capsys, "certify", "--instance", str(inst),
                       "--trace", str(trace))
    report = json.loads(out)
    assert code == (0 if report["check"]["ok"] else 1)
    assert "obj_DS_plus_DR" in report["check"]
    assert "alpha_S" in report["certificate"]


def test_csv_reports_keep_one_field_per_column(tmp_path, capsys):
    inst, big, sched, over = (str(tmp_path / f"{name}.json")
                              for name in ("inst", "big", "sched", "over"))
    run(capsys, "generate", "--n", "3", "--B", "2", "--out", inst)
    run(capsys, "generate", "--n", "3", "--B", "3", "--out", big)
    run(capsys, "schedule", "--algorithm", "hypercube", "--instance", inst, "--out", sched)
    run(capsys, "schedule", "--algorithm", "hypercube", "--instance", big, "--out", over)
    lists = []
    for argv, expected in ((["verify", "--schedule", sched], 0), (["verify", "--schedule", over], 1),
                           (["metrics", "--schedule", sched], 0)):
        argv += ["--instance", inst]
        code, text, _ = run(capsys, *argv)
        report = json.loads(text)
        code_csv, out, _ = run(capsys, "--format", "csv", *argv)
        assert (code, code_csv) == (expected, expected)
        header, row = csv.reader(io.StringIO(out))
        assert header == list(report) and len(row) == len(header)
        for key, field in zip(header, row):
            if isinstance(report[key], (list, dict)):
                assert json.loads(field) == report[key]
                lists.append(key)
    assert lists == ["violations", "unmet_demand"] * 2 + ["delivered"]
    # A report of scalars keeps the bytes of a plain comma join.
    _, out, _ = run(capsys, "--format", "csv", "bounds", "--n", "4", "--B", "7/3")
    bounds = lower_bounds(4, F(7, 3)).to_json()
    assert out == ",".join(bounds) + "\n" + ",".join(map(str, bounds.values())) + "\n"


def test_bounds_command(capsys):
    code, out, _ = run(capsys, "bounds", "--n", "1024", "--B", "2")
    assert code == 0
    obj = json.loads(out)
    assert obj["log_lb"] == 10
    assert obj["ceil_B"] == 2


def test_oracle_command(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    run(capsys, "generate", "--n", "2", "--B", "1", "--out", str(inst))
    code, out, _ = run(capsys, "oracle", "--instance", str(inst),
                       "--sender-cap", "1", "--receiver-cap", "1")
    assert code == 0
    # Each half unit ships in slot 1, and one slot is proved enough.
    obj = json.loads(out)
    assert (obj["objective"], obj["horizon"]) == ("1", 1)


@pytest.mark.parametrize("cap", [["--sender-cap", "0"], ["--receiver-cap", "-1"]])
def test_oracle_non_positive_cap_is_exit_two(tmp_path, capsys, cap):
    inst = tmp_path / "inst.json"
    run(capsys, "generate", "--n", "2", "--B", "1", "--out", str(inst))
    code, out, err = run(capsys, "oracle", "--instance", str(inst), *cap)
    assert code == 2
    assert out == ""
    assert "positive" in err


def test_experiment_command(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    out_csv = tmp_path / "rows.csv"
    cfg.write_text(json.dumps({
        "n_values": [4], "load_values": ["2"], "algorithms": ["hypercube"],
    }))
    code, _, _ = run(capsys, "experiment", "--config", str(cfg),
                     "--out", str(out_csv))
    assert code == 0
    code, out, _ = run(capsys, "table1", "--results", str(out_csv))
    assert code == 0
    assert "makespan" in out


def _results(ratio):
    """A results file with one feasible smeared row whose ratio_makespan
    cell is ``ratio``."""
    row = dict.fromkeys(CSV_COLUMNS, "")
    row.update(family="uniform", n="4", B="2", algorithm="smeared", seed="0",
               feasible="True", ratio_makespan=ratio)
    return "\n".join([SCHEMA_VERSION, ",".join(CSV_COLUMNS), ",".join(row.values())]) + "\n"


def test_results_file_fixture_reads_back(tmp_path, capsys):
    results = tmp_path / "rows.csv"
    results.write_text(_results("7"))
    code, out, _ = run(capsys, "table1", "--results", str(results))
    assert code == 0
    # The first quadrant, fractional direct makespan, is measured by smeared.
    assert out.splitlines()[2].split()[-1] == "7"


@pytest.mark.parametrize("text,message", [
    ("some-other-schema\nfamily,n\n", "unknown results schema"),
    ("", "unknown results schema"),
    (f"{SCHEMA_VERSION}\n", f"lacks the {SCHEMA_VERSION} header"),
    (_results("x"), "ratio_makespan 'x' is not a number"),
], ids=["schema", "empty", "header-only", "non-numeric"])
def test_malformed_results_file_is_exit_two(tmp_path, capsys, text, message):
    results = tmp_path / "rows.csv"
    results.write_text(text)
    code, out, err = run(capsys, "table1", "--results", str(results))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err


def test_nominal_b_flag(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    sched = tmp_path / "sched.json"
    run(capsys, "generate", "--n", "9", "--B", "3", "--out", str(inst))
    # Actual load is 8/3; the nominal B keeps the d=2 regime choice valid.
    code, _, _ = run(capsys, "schedule", "--algorithm", "elementary-basis",
                     "--instance", str(inst), "--nominal-B", "3",
                     "--out", str(sched))
    assert code == 0
    assert json.loads(sched.read_text())["horizon"] == 4



def test_generate_without_a_seed_prints_seed_zero(capsys):
    argv = ("generate", "--family", "random-sparse", "--n", "6", "--B", "7/3")
    first, second, zero = (run(capsys, *argv, *seed) for seed in ((), (), ("--seed", "0")))
    assert first == second == zero
    assert first[0] == 0 and first[1]

def test_bad_rational_is_exit_two(capsys):
    code, _, err = run(capsys, "bounds", "--n", "4", "--B", "two")
    assert code == 2
    assert "error" in err


def test_understated_nominal_b_is_exit_two(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    sched = tmp_path / "sched.json"
    run(capsys, "--seed", "3", "generate", "--family", "random-sparse",
        "--n", "16", "--B", "4", "--out", str(inst))
    # Schemes sized for B=2 would overload their edges on a B=4 instance.
    for alg in ("vlb", "elementary-basis"):
        code, _, err = run(capsys, "schedule", "--algorithm", alg,
                           "--instance", str(inst), "--nominal-B", "2",
                           "--out", str(sched))
        assert code == 2, alg
        assert "nominal load" in err
        assert not sched.exists()


def test_forged_trace_fails_certify(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    trace = tmp_path / "trace.json"
    run(capsys, "--seed", "3", "generate", "--family", "random-sparse",
        "--n", "16", "--B", "4", "--out", str(inst))
    trace.write_text(json.dumps({"n": 16, "matchings": []}))
    code, out, _ = run(capsys, "certify", "--instance", str(inst),
                       "--trace", str(trace))
    assert code == 1
    assert json.loads(out)["check"]["ok"] is False
    # Node 16 does not exist on n=16: malformed, not a failed check.
    trace.write_text(json.dumps({"n": 16, "matchings": [[[0, 16, "1/2"]]]}))
    code, _, err = run(capsys, "certify", "--instance", str(inst),
                       "--trace", str(trace))
    assert code == 2
    assert "node outside" in err
    # Rates over denominators the instance lacks decode over the lcm, and
    # the replay, not the decode, refuses them. A demand of 2 leaves room
    # for the two matchings, so the walk, not the matching count, fails.
    prime = 2**69 + 29  # 70 bits
    inst.write_text(json.dumps({"n": 2, "demands": [["0", "2"], ["0", "0"]]}))
    for first, rest, scale in (("1/3", "2/3", 3), (f"1/{prime}", f"{prime - 1}/{prime}", prime)):
        obj = {"n": 2, "matchings": [[[0, 1, first]], [[0, 1, rest]]]}
        assert GreedyTrace.from_json(obj, load_instance(str(inst))).scale == scale
        trace.write_text(json.dumps(obj))
        code, out, _ = run(capsys, "certify", "--instance", str(inst),
                           "--trace", str(trace))
        assert code == 1
        failures = json.loads(out)["check"]["failures"]
        assert failures[0] == "matching 0 is not maximal: (0,1) could take more"


def test_certify_fails_empty_and_surplus_matchings(tmp_path, capsys):
    # 100,000 trailing empty matchings, or two matchings where a demand of 1
    # allows one: not a greedy run, so exit 1, with a certificate of the
    # sums at t = 0 only.
    inst = tmp_path / "inst.json"
    trace = tmp_path / "trace.json"
    inst.write_text(json.dumps(_instance_doc()))
    for doc, failure in (
        (_trace_doc(counts=[1] + [0] * 100_000), "matching 1 is empty"),
        (_trace_doc(scale=2, counts=[1, 1], **{"from": [0, 0]}, to=[1, 1], rate=[1, 1]),
         "more matchings than ceil(total demand) = 1"),
    ):
        trace.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "certify", "--instance", str(inst), "--trace", str(trace))
        assert code == 1
        report = json.loads(out)
        assert report["check"]["failures"][0] == failure
        assert [len(beta) for beta in report["certificate"]["beta_S"]] == [1, 1]


@pytest.mark.parametrize("algorithm,nominal", [
    ("edge-coloring", False), ("round-robin", False), ("auto", False), ("round-robin", True),
])
def test_parcel_counts_past_int64_are_exit_two(tmp_path, capsys, algorithm, nominal):
    # At B = 10^20 each of the six demands is 10^20 / 3 unit parcels; a
    # nominal B of 10^20 gives round robin a horizon of 2 ceil(10^20 / 3)
    # steps. Neither count fits in int64, and the cap refuses both.
    inst = tmp_path / "inst.json"
    load = "1" if nominal else str(10**20)
    run(capsys, "generate", "--n", "3", "--B", load, "--out", str(inst))
    argv = ["schedule", "--algorithm", algorithm, "--instance", str(inst)]
    if nominal:
        argv += ["--nominal-B", str(10**20)]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    total, what = (2, "steps") if nominal else (6, "unit parcels")
    assert err == f"error: {total * -(-10**20 // 3)} {what} exceed the cap of {MAX_PARCELS}\n"


@pytest.mark.parametrize("algorithm", ["edge-coloring", "round-robin", "greedy"])
@pytest.mark.parametrize("load", [10**18, 10**11])
def test_parcel_totals_past_the_cap_are_exit_two(tmp_path, capsys, algorithm, load):
    # Each of the six demands is ceil(load / 3) parcels. Each count fits in
    # int64, and at 10^18 so does the total, but neither schedule would fit
    # in memory.
    inst = tmp_path / "inst.json"
    run(capsys, "generate", "--n", "3", "--B", str(load), "--out", str(inst))
    code, out, err = run(capsys, "schedule", "--algorithm", algorithm, "--instance", str(inst))
    assert (code, out) == (2, "")
    assert err == f"error: {6 * -(-load // 3)} unit parcels exceed the cap of {MAX_PARCELS}\n"


def test_malformed_trace_is_exit_two(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    trace = tmp_path / "trace.json"
    run(capsys, "generate", "--n", "4", "--B", "2", "--out", str(inst))
    for bad in ({}, {"n": 4, "matchings": {}}, {"n": 4, "matchings": [[[0, 1]]]},
                {"n": 4, "matchings": [[["0", 1, "1/2"]]]},
                {"n": 4, "matchings": [[[0, 1, 0.5]]]},
                {"n": 4, "matchings": [[[-1, 1, "1/2"]]]},
                {"n": 4, "matchings": [[[0, 0, "1"]]]},
                {"n": 4, "matchings": [[[0, 1, "0"]]]},
                {"n": 4, "matchings": [[[0, 1, "1/4"], [0, 1, "1/4"]]]},
                {"n": 4, "matchings": [[[0, 1, "3/4"], [0, 2, "1/2"]]]},
                {"n": 4.0, "matchings": [[[0, 1, "1/2"]]]},
                {"n": True, "matchings": [[[0, 1, "1/2"]]]}):
        trace.write_text(json.dumps(bad))
        code, _, err = run(capsys, "certify", "--instance", str(inst),
                           "--trace", str(trace))
        assert code == 2, bad
        assert err.startswith("error: "), bad


def test_metrics_refuses_non_positive_amount(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    sched = tmp_path / "sched.json"
    inst.write_text(json.dumps({"n": 2, "demands": [["0", "1"], ["0", "0"]]}))
    transfer = {"from": 0, "to": 1, "commodity": [0, 1], "amount": "-1"}
    sched.write_text(json.dumps({"horizon": 1, "steps": [{"transfers": [transfer]}]}))
    code, out, err = run(capsys, "metrics", "--instance", str(inst),
                         "--schedule", str(sched))
    assert code == 2
    assert out == ""
    assert "non-positive amount" in err


def test_leaving_the_destination_fails_verify_and_metrics(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    sched = tmp_path / "sched.json"
    inst.write_text(json.dumps({"n": 3, "demands": [["0", "1", "0"], ["0"] * 3, ["0"] * 3]}))
    hops = [(0, 1), (1, 2), (2, 1)]
    sched.write_text(json.dumps({"horizon": 3, "steps": [
        {"transfers": [{"from": a, "to": b, "commodity": [0, 1], "amount": "1"}]}
        for a, b in hops
    ]}))
    files = ("--instance", str(inst), "--schedule", str(sched))
    code, out, _ = run(capsys, "verify", *files)
    assert code == 1
    assert [v["kind"] for v in json.loads(out)["violations"]] == ["sink"]
    code, out, err = run(capsys, "metrics", *files)
    assert code == 2
    assert out == ""
    assert "leaves its destination" in err


def test_experiment_config_unknown_names_are_exit_two(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    for bad in ({"algorithms": ["no-such-scheduler"]}, {"family": "no-such-family"}):
        obj = {"n_values": [4], "load_values": ["2"], "algorithms": ["greedy"]}
        cfg.write_text(json.dumps({**obj, **bad}))
        code, _, err = run(capsys, "experiment", "--config", str(cfg))
        assert code == 2, bad
        assert "unknown" in err


def test_malformed_experiment_config_is_exit_two(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    for bad in ({"n_values": [4.7]}, {"seed": "x"}, {"algorithms": "greedy"},
                {"output": True}, {"output": 1}, {"output": 1.5},
                {"output": ["rows.csv"]}, {"output": {}}):
        obj = {"n_values": [4], "load_values": ["2"], "algorithms": ["greedy"]}
        cfg.write_text(json.dumps({**obj, **bad}))
        code, out, err = run(capsys, "experiment", "--config", str(cfg))
        assert code == 2, bad
        assert out == ""
        assert err.startswith("error: malformed experiment config"), bad
        # Rows go to --out or stdout only: the key is unknown whatever its value.
        assert ("unknown key(s) ['output']" in err) == ("output" in bad), bad
    # No repetitions would run no cells and print nothing: refused instead.
    cfg.write_text(json.dumps({**obj, "repetitions": 0}))
    code, out, err = run(capsys, "experiment", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err == "error: repetitions must be at least 1, got 0\n"


def test_experiment_config_names_a_key_it_does_not_know(tmp_path, capsys):
    # A misspelt key would otherwise run with its default: one repetition.
    cfg, rows = tmp_path / "cfg.json", tmp_path / "rows.csv"
    cfg.write_text(json.dumps({"n_values": [4], "load_values": ["2"],
                               "algorithms": ["greedy"], "repetition": 3}))
    code, out, err = run(capsys, "experiment", "--config", str(cfg), "--out", str(rows))
    assert (code, out) == (2, "")
    assert err == "error: malformed experiment config: unknown key(s) ['repetition']\n"
    assert not rows.exists()


def test_experiment_config_is_refused_before_any_cell_runs(tmp_path, capsys, monkeypatch):
    # A cell that generate would refuse, after cells it would run, is
    # refused when the config is read: no cell runs and no CSV is written.
    cfg, rows, ran = tmp_path / "cfg.json", tmp_path / "rows.csv", []
    monkeypatch.setattr(experiment, "_run_cell", ran.append)
    for bad, message in (
        ({"n_values": [4, 100000]}, "10000000000 demand entries exceed the cap of 268435456"),
        ({"n_values": [4, 1]}, "need at least 2 nodes, got n=1"),
        ({"load_values": ["2", "0"]}, "load bound must be positive, got 0"),
        ({"load_values": ["2", "-1/2"]}, "load bound must be positive, got -1/2"),
    ):
        obj = {"n_values": [4], "load_values": ["2"], "algorithms": ["greedy"]}
        cfg.write_text(json.dumps({**obj, **bad}))
        code, out, err = run(capsys, "experiment", "--config", str(cfg), "--out", str(rows))
        assert (code, out, err, ran) == (2, "", f"error: {message}\n", []), bad
        assert not rows.exists(), bad


GOOD_INSTANCE = {"n": 2, "demands": [["0", "1"], ["0", "0"]]}


def test_trace_names_its_instance_size(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    trace = tmp_path / "trace.json"
    inst.write_text(json.dumps(GOOD_INSTANCE))
    for declared in ({"n": 5}, {}):
        trace.write_text(json.dumps({**declared, "matchings": [[[0, 1, "1"]]]}))
        code, out, err = run(capsys, "certify", "--instance", str(inst),
                             "--trace", str(trace))
        assert code == 2, declared
        assert out == ""
        assert "n=2" in err


def _one_transfer(**fields):
    transfer = {"from": 0, "to": 1, "commodity": [0, 1], "amount": "1", **fields}
    transfer = {k: v for k, v in transfer.items() if v is not None}
    return {"horizon": 1, "steps": [{"transfers": [transfer]}]}


@pytest.mark.parametrize("instance,schedule", [
    pytest.param(GOOD_INSTANCE, _one_transfer(**{"from": "x"}), id="from-string"),
    pytest.param(GOOD_INSTANCE, _one_transfer(to=1.9), id="to-float"),
    pytest.param(GOOD_INSTANCE, _one_transfer(to=None), id="to-missing"),
    pytest.param(GOOD_INSTANCE, [_one_transfer()], id="schedule-array"),
    pytest.param(GOOD_INSTANCE, {**_one_transfer(), "horizon": "z"}, id="horizon-string"),
    pytest.param({**GOOD_INSTANCE, "n": "x"}, _one_transfer(), id="n-string"),
    pytest.param(GOOD_INSTANCE, "{not json", id="schedule-not-json"),
    pytest.param(GOOD_INSTANCE, b"\xff{}", id="schedule-not-utf8"),
    pytest.param(GOOD_INSTANCE, None, id="schedule-missing"),
])
def test_malformed_instance_or_schedule_is_exit_two(tmp_path, capsys, instance, schedule):
    inst = tmp_path / "inst.json"
    sched = tmp_path / "sched.json"
    inst.write_text(json.dumps(instance))
    if isinstance(schedule, bytes):
        sched.write_bytes(schedule)
    elif schedule is not None:
        sched.write_text(schedule if isinstance(schedule, str) else json.dumps(schedule))
    for command in ("verify", "metrics"):
        code, out, err = run(capsys, command, "--instance", str(inst),
                             "--schedule", str(sched))
        assert code == 2, command
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err


def _columns(**fields):
    """A column document of two rows over two steps for GOOD_INSTANCE,
    with ``fields`` replaced."""
    return {"format": "coflow-columns-v1", "n": 2, "horizon": 2, "scale": 2,
            "counts": [1, 1], "from": [0, 0], "to": [1, 1], "origin": [0, 0],
            "dest": [1, 1], "amount": [1, 1], **fields}


# One digit more than a command lets an integer have.
BIG_LITERAL = "1" * (INT_DIGITS_CAP + 1)


def test_column_document_fixture_is_feasible(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    sched = tmp_path / "sched.json"
    inst.write_text(json.dumps(GOOD_INSTANCE))
    sched.write_text(json.dumps(_columns()))
    code, out, _ = run(capsys, "verify", "--instance", str(inst), "--schedule", str(sched))
    assert (code, json.loads(out)["feasible"]) == (0, True)


@pytest.mark.parametrize("doc,message", [
    pytest.param(_columns(format="coflow-columns-v2"), "unknown schedule format", id="format-v2"),
    pytest.param(_columns(format=None), "unknown schedule format", id="format-null"),
    pytest.param(_columns(to=[1, True]), "to is not a list of integers", id="bool"),
    pytest.param(_columns(to=[1, 1.0]), "to is not a list of integers", id="float"),
    pytest.param(_columns(origin=[0, "0"]), "origin is not a list", id="string"),
    pytest.param(_columns(amount=[1, None]), "amount is not a list", id="null"),
    pytest.param(_columns(dest=1), "dest is not a list", id="not-a-list"),
    pytest.param(_columns(counts=[1, 1.0]), "counts is not a list", id="float-count"),
    pytest.param(_columns(amount=[1]), "differ in length", id="length-mismatch"),
    pytest.param(_columns(counts=[1, 2]), "do not add up to 2 rows", id="counts-sum"),
    pytest.param(_columns(counts=[3, -1]), "do not add up to 2 rows", id="negative-count"),
    pytest.param(_columns(counts=[2**64, 2 - 2**64]), "do not add up to 2 rows",
                 id="count-beyond-int64"),
    pytest.param(_columns(counts=[1, 1, 0]), "declared horizon", id="counts-vs-horizon"),
    pytest.param(_columns(horizon=3), "declared horizon", id="horizon-vs-counts"),
    pytest.param(_columns(scale=0), "scale must be positive", id="scale-zero"),
    pytest.param(_columns(scale=-2), "scale must be positive", id="scale-negative"),
    pytest.param(_columns(scale="2"), "must be integers", id="scale-string"),
    pytest.param(_columns(horizon=True), "must be integers", id="horizon-bool"),
    pytest.param(_columns(n=3), "n=3, the instance has n=2", id="n-mismatch"),
    pytest.param(_columns(n=2.0), "must be integers", id="n-float"),
    pytest.param({k: v for k, v in _columns().items() if k != "scale"}, "no 'scale' key",
                 id="no-scale"),
    pytest.param(json.dumps(_columns()).replace('"scale": 2', f'"scale": {BIG_LITERAL}'),
                 "integer string conversion", id="big-literal"),
])
def test_malformed_column_document_is_exit_two(tmp_path, capsys, doc, message):
    inst = tmp_path / "inst.json"
    sched = tmp_path / "sched.json"
    inst.write_text(json.dumps(GOOD_INSTANCE))
    sched.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    for command in ("verify", "metrics"):
        code, out, err = run(capsys, command, "--instance", str(inst),
                             "--schedule", str(sched))
        assert code == 2, command
        assert out == ""
        assert err.startswith("error: ") and message in err, err


def _instance_doc(**fields):
    """GOOD_INSTANCE as an instance document, with ``fields`` replaced."""
    return {"format": "coflow-instance-v1", "n": 2, "scale": 1, "demands": [0, 1, 0, 0],
            **fields}


def _trace_doc(**fields):
    """A one-matching trace document for GOOD_INSTANCE, with ``fields``
    replaced."""
    return {"format": "coflow-trace-v1", "n": 2, "scale": 1, "counts": [1],
            "from": [0], "to": [1], "rate": [1], **fields}


def _without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


def test_integer_document_fixtures_certify(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    trace = tmp_path / "trace.json"
    inst.write_text(json.dumps(_instance_doc()))
    trace.write_text(json.dumps(_trace_doc()))
    code, out, _ = run(capsys, "certify", "--instance", str(inst), "--trace", str(trace))
    assert (code, json.loads(out)["check"]["ok"]) == (0, True)
    assert load_instance(str(inst)) == Instance.from_json(GOOD_INSTANCE)


WRONG_INTEGERS = {"bool": True, "float": 1.0, "string": "1", "null": None}


@pytest.mark.parametrize("doc,message", [
    pytest.param(_instance_doc(format="coflow-instance-v2"), "unknown instance format",
                 id="format-v2"),
    pytest.param(_without(_instance_doc(), "scale"), "no 'scale' key", id="no-scale"),
    pytest.param(_without(_instance_doc(), "demands"), "no 'demands' key", id="no-demands"),
    *(pytest.param(_instance_doc(n=v), "n and scale must be integers", id=f"n-{k}")
      for k, v in WRONG_INTEGERS.items()),
    *(pytest.param(_instance_doc(scale=v), "n and scale must be integers", id=f"scale-{k}")
      for k, v in WRONG_INTEGERS.items()),
    *(pytest.param(_instance_doc(demands=[0, v, 0, 0]), "demands is not a list of integers",
                   id=f"demand-{k}") for k, v in WRONG_INTEGERS.items()),
    pytest.param(_instance_doc(demands=1), "demands is not a list", id="demands-not-list"),
    pytest.param(_instance_doc(scale=0), "instance scale must be positive", id="scale-zero"),
    pytest.param(_instance_doc(scale=-1), "instance scale must be positive", id="scale-negative"),
    pytest.param(_instance_doc(n=3), "not 3x3", id="n-vs-demands"),
    pytest.param(_instance_doc(demands=[0, 1, 0]), "not 2x2", id="short-demands"),
    pytest.param(_instance_doc(n=1, demands=[0]), "at least 2 nodes", id="one-node"),
    pytest.param(_instance_doc(n=-2), "at least 2 nodes", id="negative-n"),
    pytest.param(_instance_doc(demands=[0, -1, 0, 0]), "negative demand at (0,1)",
                 id="negative-demand"),
    pytest.param(_instance_doc(demands=[1, 1, 0, 0]), "nonzero diagonal", id="diagonal"),
])
def test_malformed_instance_document_is_exit_two(tmp_path, capsys, doc, message):
    inst = tmp_path / "inst.json"
    sched = tmp_path / "sched.json"
    trace = tmp_path / "trace.json"
    inst.write_text(json.dumps(doc))
    sched.write_text(json.dumps(_columns()))
    trace.write_text(json.dumps(_trace_doc()))
    for argv in (["verify", "--schedule", str(sched)], ["metrics", "--schedule", str(sched)],
                 ["certify", "--trace", str(trace)]):
        code, out, err = run(capsys, *argv, "--instance", str(inst))
        assert (code, out) == (2, ""), argv[0]
        assert err.startswith("error: ") and message in err, err


@pytest.mark.parametrize("doc,message", [
    pytest.param(_trace_doc(format="coflow-trace-v2"), "unknown trace format", id="format-v2"),
    pytest.param(_trace_doc(format=None), "unknown trace format", id="format-null"),
    *(pytest.param(_without(_trace_doc(), key), f"no '{key}' key", id=f"no-{key}")
      for key in ("n", "scale", "counts", "from", "to", "rate")),
    *(pytest.param(_trace_doc(n=v), "n and scale must be integers", id=f"n-{k}")
      for k, v in WRONG_INTEGERS.items()),
    *(pytest.param(_trace_doc(scale=v), "n and scale must be integers", id=f"scale-{k}")
      for k, v in WRONG_INTEGERS.items()),
    *(pytest.param(_trace_doc(**{key: [v]}), f"{key} is not a list of integers",
                   id=f"{key}-{k}")
      for key in ("counts", "from", "to", "rate") for k, v in WRONG_INTEGERS.items()),
    pytest.param(_trace_doc(rate=1), "rate is not a list", id="rate-not-list"),
    pytest.param(_trace_doc(n=3), "trace is for n=3, the instance has n=2", id="n-mismatch"),
    pytest.param(_trace_doc(scale=0), "trace scale must be positive", id="scale-zero"),
    pytest.param(_trace_doc(scale=-2), "trace scale must be positive", id="scale-negative"),
    pytest.param(_trace_doc(counts=[2, -1]), "counts do not add up to 1 rows",
                 id="negative-count"),
    pytest.param(_trace_doc(counts=[2]), "counts do not add up to 1 rows", id="counts-sum"),
    pytest.param(_trace_doc(counts=[2**70, 1 - 2**70]), "counts do not add up to 1 rows",
                 id="count-beyond-int64"),
    pytest.param(_trace_doc(to=[1, 0]), "differ in length", id="length-mismatch"),
    pytest.param(_trace_doc(to=[2]), "matching 0: node outside 0..1 in (0,2)", id="node-high"),
    pytest.param(_trace_doc(counts=[0, 1], **{"from": [-1]}),
                 "matching 1: node outside 0..1 in (-1,1)", id="node-negative"),
    pytest.param(_trace_doc(to=[2**70]), "node outside 0..1", id="node-beyond-int64"),
    pytest.param(_trace_doc(to=[0]), "self-loop (0,0)", id="self-loop"),
    pytest.param(_trace_doc(rate=[0]), "non-positive rate on (0,1)", id="zero-rate"),
    pytest.param(_trace_doc(rate=[2]), "node 0 exceeds matching cap 1", id="over-cap"),
    pytest.param(_trace_doc(scale=2, counts=[2], **{"from": [0, 0]}, to=[1, 1], rate=[1, 1]),
                 "duplicate pair (0,1)", id="duplicate-pair"),
])
def test_malformed_trace_document_is_exit_two(tmp_path, capsys, doc, message):
    inst = tmp_path / "inst.json"
    trace = tmp_path / "trace.json"
    inst.write_text(json.dumps(GOOD_INSTANCE))
    trace.write_text(json.dumps(doc))
    code, out, err = run(capsys, "certify", "--instance", str(inst), "--trace", str(trace))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err, err


def test_big_integer_literal_is_exit_two_in_every_file(tmp_path, capsys):
    # A command refuses to parse an integer of more than INT_DIGITS_CAP
    # digits; each reader turns that into bad input, not a failed check.
    inst = tmp_path / "inst.json"
    big = tmp_path / "big.json"
    inst.write_text(json.dumps(GOOD_INSTANCE))
    big.write_text(f'{{"n": {BIG_LITERAL}, "demands": [], "matchings": []}}')
    for argv in (["verify", "--instance", str(big), "--schedule", str(inst)],
                 ["verify", "--instance", str(inst), "--schedule", str(big)],
                 ["certify", "--instance", str(inst), "--trace", str(big)],
                 ["experiment", "--config", str(big)]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith(f"error: {big} is not a readable JSON document: ")
        assert "integer string conversion" in err, argv


# Each demand has under 4,300 digits (Python's default int-string limit), but
# their lcm, the scale of every document that holds both, has 5,659.
WIDE_DEMANDS = [["0", f"1/{3**6000}"], [f"1/{5**4000}", "0"]]


@contextlib.contextmanager
def int_digits(limit):
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


def test_commands_read_and_write_scales_past_the_default_limit(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    sched = tmp_path / "sched.json"
    inst.write_text(json.dumps({"n": 2, "demands": WIDE_DEMANDS}))
    files = ("--instance", str(inst), "--schedule", str(sched))
    with int_digits(4300):  # Python's default; each command restores it
        code, _, _ = run(capsys, "schedule", "--algorithm", "round-robin",
                         "--instance", str(inst), "--out", str(sched))
        assert code == 0
        code, verify_out, _ = run(capsys, "verify", *files)
        assert code == 0
        code, metrics_out, _ = run(capsys, "metrics", *files)
        assert code == 0
        assert sys.get_int_max_str_digits() == 4300
    with int_digits(0):
        assert json.loads(sched.read_text())["scale"] == 3**6000 * 5**4000
        report = json.loads(verify_out)
        assert report["feasible"] is True
        assert F(report["max_edge_load"]) == F(1, 5**4000)
        metrics = json.loads(metrics_out)
        assert metrics["makespan"] == 1
        assert F(metrics["total_completion"]) == F(1, 3**6000) + F(1, 5**4000)
        assert F(metrics["average_completion"]) == 1
        assert metrics["delivered"] == WIDE_DEMANDS
        # The instance document of the same instance reads back equal.
        doc = tmp_path / "doc.json"
        doc.write_text(json.dumps(load_instance(str(inst)).to_json()))
    code, out, _ = run(capsys, "verify", "--instance", str(doc), "--schedule", str(sched))
    assert (code, out) == (0, verify_out)


def test_schedule_beyond_the_integer_limit_is_exit_two(tmp_path, capsys, monkeypatch):
    # Under a cap of 5,000 digits each demand reads, but neither the
    # schedule's scale nor the total completion time can be written.
    monkeypatch.setattr(cli, "INT_DIGITS_CAP", 5000)
    inst = tmp_path / "inst.json"
    sched = tmp_path / "sched.json"
    inst.write_text(json.dumps({"n": 2, "demands": WIDE_DEMANDS}))
    for out in (["--out", str(sched)], []):
        code, text, err = run(capsys, "schedule", "--algorithm", "round-robin",
                              "--instance", str(inst), *out)
        assert (code, text) == (2, "")
        assert err.startswith("error: cannot encode as JSON: ")
    assert not sched.exists()
    # A row-format file spells each amount under the cap.
    transfers = [{"from": i, "to": 1 - i, "commodity": [i, 1 - i],
                  "amount": WIDE_DEMANDS[i][1 - i]} for i in (0, 1)]
    sched.write_text(json.dumps({"horizon": 1, "steps": [{"transfers": transfers}]}))
    files = ("--instance", str(inst), "--schedule", str(sched))
    code, text, _ = run(capsys, "verify", *files)
    assert (code, json.loads(text)["feasible"]) == (0, True)
    code, text, err = run(capsys, "metrics", *files)
    assert (code, text) == (2, "")
    assert err.startswith("error: cannot render a rational: ")


@pytest.mark.parametrize("first", [1, "1"])
@pytest.mark.parametrize("later", [True, 1.0, [1]])
def test_amount_memo_refuses_what_hashes_like_an_earlier_amount(
    tmp_path, capsys, first, later
):
    inst = tmp_path / "inst.json"
    sched = tmp_path / "sched.json"
    inst.write_text(json.dumps({"n": 2, "demands": [["0", "2"], ["0", "0"]]}))
    steps = [
        {"transfers": [{"from": 0, "to": 1, "commodity": [0, 1], "amount": amount}]}
        for amount in (first, later)
    ]
    sched.write_text(json.dumps({"horizon": 2, "steps": steps}))
    for command in ("verify", "metrics"):
        code, out, err = run(capsys, command, "--instance", str(inst),
                             "--schedule", str(sched))
        assert code == 2, command
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err


# -- exit-code contract under malformed files ----------------------------------

FUZZ_INSTANCE = {"n": 3, "demands": [["0", "1/2", "0"], ["0", "0", "1"], ["1/3", "0", "0"]]}
FUZZ_SCHEDULE = {"horizon": 2, "steps": [
    {"transfers": [
        {"from": 0, "to": 1, "commodity": [0, 1], "amount": "1/2"},
        {"from": 2, "to": 0, "commodity": [2, 0], "amount": "1/3"},
    ]},
    {"transfers": [
        {"from": 1, "to": 2, "commodity": [1, 2], "amount": "1"},
    ]},
]}
# The same schedule as a column document.
FUZZ_COLUMNS = {"format": "coflow-columns-v1", "n": 3, "horizon": 2, "scale": 6,
                "counts": [2, 1], "from": [0, 2, 1], "to": [1, 0, 2],
                "origin": [0, 2, 1], "dest": [1, 0, 2], "amount": [3, 2, 6]}
FUZZ_TRACE = {"n": 3, "matchings": [[[0, 1, "1/2"], [1, 2, "1"], [2, 0, "1/3"]]]}
# The same instance and trace as integer documents.
FUZZ_INSTANCE_V1 = {"format": "coflow-instance-v1", "n": 3, "scale": 6,
                    "demands": [0, 3, 0, 0, 0, 6, 2, 0, 0]}
FUZZ_TRACE_V1 = {"format": "coflow-trace-v1", "n": 3, "scale": 6, "counts": [3],
                 "from": [0, 1, 2], "to": [1, 2, 0], "rate": [3, 6, 2]}
FUZZ_CONFIG = {"n_values": [4], "load_values": ["2"], "algorithms": ["hypercube"],
               "family": "uniform", "seed": 1, "repetitions": 1, "workers": 1}
DROP = object()
HUGE_DENOMINATOR = f"1/{2**521 - 1}"
# Config values stay small: a config names sizes and worker counts that the
# run then allocates.
CONFIG_VALUES = [DROP, None, True, 1.5, "x", [], {}, -1, 0, "0", "-1/3", "1/0",
                 HUGE_DENOMINATOR, ["x"], [1.5]]
FILE_VALUES = CONFIG_VALUES + [2**70, -2**70, [2**70, 1], [0, -2**70]]


def _paths(doc, path=()):
    """Every path of keys and indices into a JSON document, root first."""
    yield path
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield from _paths(value, path + (key,))


def _mutated(doc, path, value):
    if not path:
        return {} if value is DROP else value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def test_fuzz_column_document_is_the_fuzz_schedule():
    assert Schedule.from_json(FUZZ_COLUMNS, 3) == Schedule.from_json(FUZZ_SCHEDULE, 3)


def test_fuzz_integer_documents_are_the_fuzz_instance_and_trace():
    inst = Instance.from_json(FUZZ_INSTANCE)
    assert Instance.from_json(FUZZ_INSTANCE_V1) == inst
    assert GreedyTrace.from_json(FUZZ_TRACE_V1, inst) == GreedyTrace.from_json(FUZZ_TRACE, inst)


# 250 examples over four documents before the column twin came in, and 320
# over five before the instance and trace twins: 64 per document.
@settings(max_examples=448, deadline=None)
@given(data=st.data())
def test_malformed_files_keep_the_exit_code_contract(data):
    docs = {"instance": FUZZ_INSTANCE, "schedule": FUZZ_SCHEDULE,
            "columns": FUZZ_COLUMNS, "trace": FUZZ_TRACE, "config": FUZZ_CONFIG,
            "instance-v1": FUZZ_INSTANCE_V1, "trace-v1": FUZZ_TRACE_V1}
    name = data.draw(st.sampled_from(sorted(docs)))
    values = CONFIG_VALUES if name == "config" else FILE_VALUES
    for _ in range(data.draw(st.integers(1, 3))):
        paths = list(_paths(docs[name]))
        path = paths[data.draw(st.integers(0, len(paths) - 1))]
        docs[name] = _mutated(docs[name], path, data.draw(st.sampled_from(values)))
    with tempfile.TemporaryDirectory() as tmp:
        files = {}
        for key, doc in docs.items():
            files[key] = os.path.join(tmp, f"{key}.json")
            with open(files[key], "w") as fh:
                json.dump(doc, fh)
        pair = ["--instance", files["instance"]]
        commands = {
            "instance": [["verify", *pair, "--schedule", files["schedule"]],
                         ["metrics", *pair, "--schedule", files["schedule"]],
                         ["certify", *pair, "--trace", files["trace"]]],
            "schedule": [["verify", *pair, "--schedule", files["schedule"]],
                         ["metrics", *pair, "--schedule", files["schedule"]]],
            "columns": [["verify", *pair, "--schedule", files["columns"]],
                        ["metrics", *pair, "--schedule", files["columns"]]],
            "trace": [["certify", *pair, "--trace", files["trace"]]],
            "config": [["experiment", "--config", files["config"]]],
            "instance-v1": [
                [command, "--instance", files["instance-v1"], "--schedule", files["schedule"]]
                for command in ("verify", "metrics")
            ] + [["certify", "--instance", files["instance-v1"], "--trace", files["trace-v1"]]],
            "trace-v1": [["certify", *pair, "--trace", files["trace-v1"]]],
        }[name]
        for argv in commands:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 2), (argv[0], docs[name])
            assert "Traceback" not in err.getvalue(), (argv[0], docs[name])


# -- the report writer -----------------------------------------------------------

JSON_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4))
JSON_VALUES = st.recursive(JSON_LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(st.text(max_size=4), max_size=4), st.tuples(inner, inner),
    st.dictionaries(st.text(max_size=3), inner, max_size=4),
), max_leaves=24)


@given(JSON_VALUES)
@example({"a": [], "b": {}, "c": [[], {}, [""], ()], "d": ["x", "\u00e9"], "": [1, "y", None]})
def test_report_text_is_json_dumps_with_indent_two(obj):
    assert report_text(obj) == json.dumps(obj, indent=2)


def test_every_report_prints_as_json_dumps_with_indent_two():
    inst = generate("random-sparse", 5, F(7, 3), seed=1)
    sched = ALGORITHMS["auto"](inst, None)
    doubled = dataclasses.replace(sched, amount=sched.amount * 2)
    _, trace = greedy_schedule(inst)
    cert = build_certificate(trace)
    reports = [
        verify(inst, sched), verify(inst, doubled), compute_metrics(inst, sched),
        {"certificate": cert.to_json(), "check": check_certificate(inst, trace, cert).to_json()},
        lower_bounds(5, F(7, 3)), solve_completion_lp(generate("uniform", 3, F(2), 1), F(1), F(1)),
    ]
    assert reports[0].feasible and reports[1].violations
    for report in reports:
        obj = report if isinstance(report, dict) else report.to_json()
        assert report_text(obj) == json.dumps(obj, indent=2)


def test_a_closed_stdout_ends_the_command_as_sigpipe_would():
    # ``coflow generate --n 300 --B 2 | head -c 20``: the reader closes the
    # pipe after 20 of some 270 kB. The command exits 128 + SIGPIPE, as
    # SIGTERM gives 143, and prints no error line, not even at exit.
    child = subprocess.Popen(
        [sys.executable, "-m", "coflow.cli", "generate", "--n", "300", "--B", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        head = child.stdout.read(20)
        child.stdout.close()
        _, err = child.communicate(timeout=60)
    finally:
        child.kill()
    assert head == b'{"format": "coflow-i'
    assert (child.returncode, err) == (141, b"")


def test_a_closed_stdout_in_process_keeps_the_callers_stdout(monkeypatch):
    # A caller's stdout with no file descriptor is not pointed at devnull.
    def closed(args):
        raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(cli, "cmd_bounds", closed)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["bounds", "--n", "4", "--B", "2"])
        assert sys.stdout is out
    assert (code, out.getvalue()) == (141, "")

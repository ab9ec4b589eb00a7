"""End-to-end command-line flows over temp files."""

import json

from coflow.cli import main


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


def test_unsupported_size_hint_and_pad(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    sched = tmp_path / "sched.json"
    run(capsys, "generate", "--n", "6", "--B", "2", "--out", str(inst))
    code, _, err = run(capsys, "schedule", "--algorithm", "hypercube",
                       "--instance", str(inst), "--out", str(sched))
    assert code == 2
    assert "--pad" in err
    code, _, _ = run(capsys, "schedule", "--algorithm", "hypercube",
                     "--instance", str(inst), "--out", str(sched),
                     "--pad")
    assert code == 0
    assert json.loads(sched.read_text())["horizon"] == 3  # log2 of padded n=8


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
    assert json.loads(out)["status"] == "optimal"


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
    zeros = [["0"] * 16 for _ in range(16)]
    trace.write_text(json.dumps({"n": 16, "residuals": [zeros], "matchings": []}))
    code, out, _ = run(capsys, "certify", "--instance", str(inst),
                       "--trace", str(trace))
    assert code == 1
    assert json.loads(out)["check"]["ok"] is False
    # One matching but a single residual: malformed, not a failed check.
    trace.write_text(json.dumps(
        {"n": 16, "residuals": [zeros], "matchings": [[[0, 1, "1/2"]]]}
    ))
    code, _, err = run(capsys, "certify", "--instance", str(inst),
                       "--trace", str(trace))
    assert code == 2
    assert "residual" in err


def test_experiment_config_unknown_names_are_exit_two(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    for bad in ({"algorithms": ["no-such-scheduler"]}, {"family": "no-such-family"}):
        obj = {"n_values": [4], "load_values": ["2"], "algorithms": ["greedy"]}
        cfg.write_text(json.dumps({**obj, **bad}))
        code, _, err = run(capsys, "experiment", "--config", str(cfg))
        assert code == 2, bad
        assert "unknown" in err

"""Experiment harness: sweeps, CSV schema, summary table."""

import contextlib
import csv
import io
import json
import os
import resource
import signal
import subprocess
import sys
import time
from concurrent.futures import Future
from fractions import Fraction as F

import pytest

from coflow import experiment
from coflow.cli import main
from coflow.errors import StructuralError
from coflow.experiment import (
    ALGORITHMS,
    CSV_COLUMNS,
    SCHEMA_VERSION,
    ExperimentConfig,
    emit_table1,
    read_csv,
    run_experiment,
    write_csv,
)
from coflow.generators import FAMILIES, generate
from coflow.model import compute_metrics
from coflow.verifier import verify

CONFIG = ExperimentConfig(
    n_values=(4, 8),
    load_values=(F(2),),
    algorithms=("hypercube", "greedy"),
)


def test_rows_cover_the_grid():
    rows = run_experiment(CONFIG)
    assert len(rows) == 4
    assert {(r["n"], r["algorithm"]) for r in rows} == {
        (4, "hypercube"), (8, "hypercube"), (4, "greedy"), (8, "greedy")
    }
    for r in rows:
        assert set(CSV_COLUMNS) <= set(r)
        assert r["feasible"] is True


def test_rows_deterministic_modulo_timing():
    strip = lambda rows: [
        {k: v for k, v in r.items() if k != "wall_time_ms"} for r in rows
    ]
    assert strip(run_experiment(CONFIG)) == strip(run_experiment(CONFIG))


def test_hypercube_ratio_is_one():
    rows = run_experiment(CONFIG)
    for r in rows:
        if r["algorithm"] == "hypercube":
            assert r["makespan"] == {4: 2, 8: 3}[r["n"]]
            assert r["ratio_makespan"] == "1"


def test_uniform_hypercube_row_is_tight():
    # Makespan 4 == log2(16), the larger exact lower bound.
    config = ExperimentConfig(n_values=(16,), load_values=(F(2),), algorithms=("hypercube",))
    (row,) = run_experiment(config)
    assert row["lower_bound_max"] == "4"
    assert row["ratio_makespan"] == "1"


def test_csv_round_trip(tmp_path):
    rows = run_experiment(CONFIG)
    path = tmp_path / "out.csv"
    write_csv(rows, str(path))
    back = read_csv(str(path))
    assert len(back) == len(rows)
    assert back[0]["algorithm"] == rows[0]["algorithm"]
    assert back[0]["makespan"] == str(rows[0]["makespan"])


def test_csv_version_header_checked(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("some-other-schema\na,b\n1,2\n")
    with pytest.raises(ValueError):
        read_csv(str(path))


def test_config_json_round_trip():
    obj = {
        "n_values": [4], "load_values": ["3/2"], "algorithms": ["greedy"],
        "family": "random-sparse", "seed": 5, "repetitions": 2,
    }
    cfg = ExperimentConfig.from_json(obj)
    assert cfg.load_values == (F(3, 2),)
    assert cfg.repetitions == 2
    rows = run_experiment(cfg)
    assert len(rows) == 2


def test_table_readout_mentions_measured_ratios():
    cfg = ExperimentConfig(
        n_values=(4,), load_values=(F(2),), algorithms=("smeared", "greedy", "auto")
    )
    text = emit_table1(run_experiment(cfg))
    assert "fractional" in text and "integral" in text
    assert "out of scope" in text
    assert "no data" not in text.split("\n")[2]  # smeared makespan row has data


def test_config_rejects_unknown_algorithm():
    with pytest.raises(StructuralError):
        ExperimentConfig(n_values=(4,), load_values=(F(2),), algorithms=("fastest",))


def test_config_rejects_unknown_family():
    with pytest.raises(StructuralError):
        ExperimentConfig(
            n_values=(4,), load_values=(F(2),), algorithms=("greedy",), family="dense"
        )


def test_config_rejects_fewer_than_one_worker(tmp_path):
    for workers in (0, -1):
        with pytest.raises(StructuralError):
            ExperimentConfig(n_values=(4,), load_values=(F(2),), algorithms=("greedy",),
                             workers=workers)
        with pytest.raises(StructuralError):
            ExperimentConfig(n_values=(4,), load_values=(F(2),), algorithms=("greedy",),
                             repetitions=workers)
    path = tmp_path / "config.json"
    path.write_text('{"n_values": [4], "load_values": ["2"], "algorithms": ["greedy"]}')
    assert main(["experiment", "--config", str(path), "--workers", "0"]) == 2


def test_pool_gets_no_more_workers_than_cells_and_cores(monkeypatch):
    # No process is started: the stand-in records its size and runs each
    # cell as it is submitted.
    sizes = []

    class SerialPool:
        def __init__(self, workers):
            sizes.append(workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, cell):
            future = Future()
            future.set_result(fn(cell))
            return future

    monkeypatch.setattr(experiment, "_pool", SerialPool)
    monkeypatch.setattr(experiment, "_usable_cores", lambda: 3)
    strip = lambda rows: [
        {k: v for k, v in r.items() if k != "wall_time_ms"} for r in rows
    ]
    serial = strip(run_experiment(CONFIG))
    one_cell = ExperimentConfig(n_values=(4,), load_values=(F(2),),
                                algorithms=("hypercube",), workers=10_000)
    assert len(run_experiment(one_cell)) == 1
    assert sizes == []  # one cell runs in this process
    for workers, size in ((10_000, 3), (2, 2)):
        config = ExperimentConfig(n_values=(4, 8), load_values=(F(2),),
                                  algorithms=("hypercube", "greedy"), workers=workers)
        assert strip(run_experiment(config)) == serial
        assert sizes[-1] == size


def _text(path):
    with open(path, newline="") as fh:
        return fh.read()


def _without_wall_time(text):
    rows = list(csv.reader(io.StringIO(text, newline="")))
    return [rows[0]] + [row[:-1] for row in rows[1:]]


def test_stdout_is_the_results_file(tmp_path, capsys):
    # Without --out, the same schema line, header and rows go to stdout,
    # and table1 reads them.
    cfg, rows = tmp_path / "cfg.json", tmp_path / "rows.csv"
    cfg.write_text(json.dumps({"n_values": [4], "load_values": ["2", "1/2"],
                               "algorithms": ["smeared", "greedy"]}))
    assert main(["experiment", "--config", str(cfg), "--out", str(rows)]) == 0
    written = _text(rows)
    assert main(["experiment", "--config", str(cfg)]) == 0
    printed = capsys.readouterr().out
    assert printed.startswith(f"{SCHEMA_VERSION}\r\n{','.join(CSV_COLUMNS)}\r\n")
    assert _without_wall_time(printed) == _without_wall_time(written)
    assert len(read_csv(str(rows))) == 4
    with open(rows, "w", newline="") as fh:
        fh.write(printed)
    assert main(["table1", "--results", str(rows)]) == 0
    assert "no data" not in capsys.readouterr().out.split("\n")[2]  # smeared makespan


def test_a_pool_writes_the_rows_of_one_worker(tmp_path):
    # Two workers write the same CSV bytes as one, wall time aside, whether
    # they start the platform's default way or are spawned. A load of
    # 1/10^4400 renders past Python's default int-string limit of 4,300
    # digits, which a spawned worker starts at.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_values": [4, 5], "load_values": ["2", "7/3", "1/1" + "0" * 4400],
                               "algorithms": ["auto", "greedy", "edge-coloring"],
                               "family": "random-sparse", "repetitions": 2}))
    argv = lambda workers, out: ["experiment", "--config", str(cfg), "--workers", workers,
                                 "--out", str(out)]
    outs = [tmp_path / "one.csv", tmp_path / "pool.csv", tmp_path / "spawned.csv"]
    assert main(argv("1", outs[0])) == 0
    assert main(argv("2", outs[1])) == 0
    code = ("import multiprocessing, sys; from coflow.cli import main; "
            "multiprocessing.set_start_method('spawn'); "
            f"sys.exit(main({argv('2', outs[2])!r}))")
    subprocess.run([sys.executable, "-c", code], timeout=300, check=True)
    texts = [_without_wall_time(_text(out)) for out in outs]
    assert len(texts[0]) == 2 + 36
    assert texts[0] == texts[1] == texts[2]


@pytest.mark.parametrize("workers", ["1", "2"])
def test_a_refused_cell_keeps_the_rows_before_it(tmp_path, capsys, workers):
    # Round robin at n=3 runs at B=2, and at B=10^15 its parcels are past
    # the cap: exit 2 with the cap's message, and the first row stays written.
    cfg, out = tmp_path / "cfg.json", tmp_path / "rows.csv"
    cfg.write_text(json.dumps({"n_values": [3], "load_values": ["2", "1000000000000000"],
                               "algorithms": ["round-robin"]}))
    code = main(["experiment", "--config", str(cfg), "--workers", workers, "--out", str(out)])
    err = capsys.readouterr().err
    assert (code, err) == (2, "error: 2000000000000004 unit parcels exceed the cap of 268435456\n")
    rows = read_csv(str(out))
    assert [(r["n"], r["B"], r["feasible"]) for r in rows] == [("3", "2", "True")]


def test_the_cli_loads_no_pool_modules():
    code = ("import sys, coflow.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in "
            "('multiprocessing', 'concurrent')))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, check=True)
    assert done.stdout == "[]\n"


def _limited_memory():
    # 1.5 GB of address space: a sweep that listed its 10^9 cells would end
    # in MemoryError within a second.
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    soft = 1536 << 20 if hard == resource.RLIM_INFINITY else min(1536 << 20, hard)
    resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def _rss_kb(pid):
    with open(f"/proc/{pid}/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmRSS:"))


def _data_rows(path):
    with open(path, newline="") as fh:
        return max(0, sum(1 for _ in fh) - 2)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmRSS from /proc")
@pytest.mark.parametrize("workers", ["1", "2"])
def test_a_billion_repetitions_run_in_flat_memory(tmp_path, workers):
    # The sweep's own process keeps its RSS while rows stream into the CSV.
    # The command runs in its own session so that its workers die with it.
    cfg, out = tmp_path / "cfg.json", tmp_path / "rows.csv"
    cfg.write_text(json.dumps({"n_values": [4], "load_values": ["2"],
                               "algorithms": ["smeared"], "repetitions": 10**9}))
    child = subprocess.Popen(
        [sys.executable, "-m", "coflow.cli", "experiment", "--config", str(cfg),
         "--workers", workers, "--out", str(out)],
        stderr=subprocess.PIPE, preexec_fn=_limited_memory, start_new_session=True,
    )
    start = time.monotonic()
    try:
        # The first reading at about 1 s, once a row is written.
        while not (out.exists() and _data_rows(out)):
            assert child.poll() is None, child.stderr.read()
            assert time.monotonic() < start + 60, "no row within 60 s"
            time.sleep(0.05)
        time.sleep(max(0.0, start + 1 - time.monotonic()))
        rss, rows = _rss_kb(child.pid), _data_rows(out)
        time.sleep(2)
        assert child.poll() is None, child.stderr.read()
        grown, more = _rss_kb(child.pid) - rss, _data_rows(out) - rows
    finally:
        with contextlib.suppress(ProcessLookupError):  # the group has ended
            os.killpg(child.pid, signal.SIGKILL)
        child.wait(timeout=60)
        child.stderr.close()
    assert rows > 0 and more > 100
    assert grown < 4096, f"RSS grew by {grown} kB over {more} rows"


@pytest.mark.parametrize("family", FAMILIES)
def test_every_algorithm_routes_two_nodes(family):
    # Every scheduler accepts n = 2, the grid too, whose two digits are one
    # there: its route is the hypercube's.
    for load in (F(1, 2), F(2), F(3)):
        instance = generate(family, 2, load, seed=1)
        for name, build in ALGORITHMS.items():
            schedule = build(instance, load)
            assert verify(instance, schedule).feasible, (name, load)
            assert compute_metrics(instance, schedule).delivered == instance.demands, (name, load)


def _group_alive(pgid):
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


@pytest.mark.skipif(experiment._usable_cores() < 2, reason="a pool needs two cores")
def test_sigterm_ends_a_pooled_sweep_whole(tmp_path):
    # SIGTERM to the sweep's own process, not to its group, shuts its pool
    # down: the command exits 128 + SIGTERM, no worker is left, and the rows
    # written stay. The command runs in its own session, so that nothing it
    # started outlives the test.
    cfg, out = tmp_path / "cfg.json", tmp_path / "rows.csv"
    cfg.write_text(json.dumps({"n_values": [4], "load_values": ["2"],
                               "algorithms": ["smeared"], "repetitions": 10**6}))
    child = subprocess.Popen(
        [sys.executable, "-m", "coflow.cli", "experiment", "--config", str(cfg),
         "--workers", "2", "--out", str(out)],
        stderr=subprocess.PIPE, start_new_session=True,
    )
    try:
        deadline = time.monotonic() + 60
        while not (out.exists() and _data_rows(out)):
            assert child.poll() is None, child.stderr.read()
            assert time.monotonic() < deadline, "no row within 60 s"
            time.sleep(0.05)
        written = _data_rows(out)
        child.send_signal(signal.SIGTERM)
        code = child.wait(timeout=10)
        deadline = time.monotonic() + 10
        while _group_alive(child.pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        left = _group_alive(child.pid)
    finally:
        with contextlib.suppress(ProcessLookupError):  # the group has ended
            os.killpg(child.pid, signal.SIGKILL)
        child.wait(timeout=60)
        err = child.stderr.read()
        child.stderr.close()
    assert (code, err) == (128 + signal.SIGTERM, b"")
    assert not left, "a pool worker outlived the sweep"
    rows = read_csv(str(out))
    assert len(rows) >= written
    assert {(r["algorithm"], r["feasible"]) for r in rows} == {("smeared", "True")}

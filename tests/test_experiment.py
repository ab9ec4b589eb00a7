"""Experiment harness: sweeps, CSV schema, summary table."""

from fractions import Fraction as F

import pytest

from coflow import experiment
from coflow.cli import main
from coflow.errors import StructuralError
from coflow.experiment import (
    CSV_COLUMNS,
    ExperimentConfig,
    emit_table1,
    read_csv,
    run_experiment,
    write_csv,
)

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
    # No process is started: the stand-in records its size and maps serially.
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(experiment, "ProcessPoolExecutor", SerialPool)
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

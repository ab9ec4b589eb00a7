"""Experiment harness: sweeps, CSV schema, summary table."""

from fractions import Fraction as F

import pytest

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

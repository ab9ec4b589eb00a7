"""Every block scheduler counts its rows before it builds them, and refuses a
total past ``model.MAX_PARCELS`` with one message naming it; a horizon past
the cap is refused too, and so is an instance of more demand entries, and
VLB's memory stays near its rows."""

import json
import random
import resource
import subprocess
import sys
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from coflow import model
from coflow.cli import main
from coflow.errors import StructuralError
from coflow.experiment import ALGORITHMS
from coflow.generators import generate, random_sparse_instance
from coflow.indirect import auto_schedule, hypercube_schedule

BLOCK_SCHEDULERS = ("smeared", "hypercube", "elementary-basis", "grid", "vlb")

# At uniform n=3, B=10^18 every demand is 10^18/3 and each of the offsets
# 1 and 2 has three commodities; m is a round's multiplicity.
# smeared: 6 rows in each of ceil(2*10^18/3) steps. hypercube and grid
# (radix 2, rounds sized for n * 10^18/3) and elementary basis (radix 3,
# likewise): each commodity one hop of m = ceil(10^18/3). vlb (radix 3,
# rounds sized for B = 2*10^18/3): each commodity one row in each of the
# two rounds of both phases, m = ceil(2*10^18/9).
HUGE_ROWS = {
    "smeared": 6 * -(-2 * 10**18 // 3),
    "hypercube": 6 * -(-10**18 // 3),
    "elementary-basis": 6 * -(-10**18 // 3),
    "grid": 6 * -(-10**18 // 3),
    "vlb": 24 * -(-2 * 10**18 // 9),
}


@pytest.mark.parametrize("algorithm", BLOCK_SCHEDULERS)
def test_block_rows_past_the_cap_are_exit_two(tmp_path, capsys, algorithm):
    inst = tmp_path / "inst.json"
    assert main(["generate", "--n", "3", "--B", str(10**18), "--out", str(inst)]) == 0
    capsys.readouterr()
    code = main(["schedule", "--algorithm", algorithm, "--instance", str(inst)])
    out = capsys.readouterr()
    assert (code, out.out) == (2, "")
    assert out.err == f"error: {HUGE_ROWS[algorithm]} rows exceed the cap of {model.MAX_PARCELS}\n"


def test_auto_on_sparse_1024_is_refused_before_its_rows():
    # VLB over the hypercube at B=2: about 8x the rows per doubling of n.
    with pytest.raises(StructuralError, match="^1070468324 rows exceed the cap of 268435456$"):
        auto_schedule(random_sparse_instance(1024, 2, seed=1))


def test_block_horizon_past_the_cap_is_refused():
    # One demand D at offset 1024 of n = 1025 is one hop of D rows in the top
    # digit's round, which serves that one offset. The hypercube sizes for B =
    # n D, so each of the ten lower rounds, serving 512 offsets, takes 512 D
    # steps: a horizon of 5121 D.
    n, d = 1025, 2**20
    demands = [[0] * n for _ in range(n)]
    demands[0][n - 1] = d
    with pytest.raises(StructuralError, match=f"^{5121 * d} steps exceed the cap of 268435456$"):
        hypercube_schedule(model.make_instance(n, demands))


def test_round_robin_horizon_past_the_cap_is_exit_two(tmp_path, capsys):
    # A nominal B gives round robin n - 1 shifts of ceil(B / n) steps each:
    # at n = 3 and B = 10^15 the horizon fits in int64, at n = 4 and B =
    # 10^29 it does not.
    inst = tmp_path / "inst.json"
    for n, nominal in ((3, 10**15), (4, 10**29)):
        assert main(["generate", "--n", str(n), "--B", "1", "--out", str(inst)]) == 0
        capsys.readouterr()
        code = main(["schedule", "--algorithm", "round-robin", "--instance", str(inst),
                     "--nominal-B", str(nominal)])
        out = capsys.readouterr()
        assert (code, out.out) == (2, "")
        steps = (n - 1) * -(-nominal // n)
        assert out.err == f"error: {steps} steps exceed the cap of {model.MAX_PARCELS}\n"


# n = 100000 is 10^10 demand entries, 74.5 GiB of int64.
ENTRIES = f"10000000000 demand entries exceed the cap of {model.MAX_PARCELS}"


def test_uniform_instance_past_the_cap_is_refused():
    with pytest.raises(StructuralError, match=f"^{ENTRIES}$"):
        model.uniform_instance(100000, 2)


def _limited_memory():
    # At most 4 GB of address space: a command that tried to build the
    # instance would fail with MemoryError rather than take the machine's.
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    soft = 4 << 30 if hard == resource.RLIM_INFINITY else min(4 << 30, hard)
    resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


@pytest.mark.parametrize("command", ["generate", "experiment"])
def test_demand_entries_past_the_cap_are_exit_two(tmp_path, command):
    # The whole command, in its own process: exit 2, one line on stderr (no
    # traceback) and nothing on stdout.
    argv = ["generate", "--n", "100000", "--B", "2"]
    if command == "experiment":
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n_values": [100000], "load_values": [2],
                                      "algorithms": ["greedy"]}))
        argv = ["experiment", "--config", str(config)]
    done = subprocess.run([sys.executable, "-m", "coflow.cli", *argv], capture_output=True,
                          text=True, timeout=120, preexec_fn=_limited_memory)
    assert (done.returncode, done.stdout, done.stderr) == (2, "", f"error: {ENTRIES}\n")


def test_vlb_on_one_row_stays_near_its_rows():
    # adversarial-single-row at n = 1024, B = 2: VLB's rounds carry up to
    # (n - 1) n / 2 template rows each, with one commodity per offset. The
    # candidates Blocks scans are bounded by the commodities' origins times
    # the offsets, so the peak stays within a few times the schedule's own
    # five int64 columns, where n x T candidates would take gigabytes.
    inst = generate("adversarial-single-row", 1024, 2, 1)
    tracemalloc.start()
    try:
        rows = auto_schedule(inst).src.size
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows == 2088961
    assert peak < 4 * 5 * 8 * rows


PRIMES = [p for p in range(100, 400) if all(p % k for k in range(2, 20))]


def _instance(n: int, load: F, seed: int, prime: bool):
    """A random-sparse instance, or one whose demands have prime
    denominators in [100, 400), rescaled to load bound ``load``."""
    if not prime:
        return random_sparse_instance(n, load, seed=seed)
    rng = random.Random(seed)
    demands = [[F(rng.randint(1, 13), rng.choice(PRIMES)) if i != j and rng.random() < 0.5
                else F(0) for j in range(n)] for i in range(n)]
    demands[0][1] = F(1, PRIMES[0])  # never all zero
    factor = load / model.make_instance(n, demands).load_bound
    return model.make_instance(n, [[x * factor for x in row] for row in demands])


@pytest.mark.parametrize("algorithm", BLOCK_SCHEDULERS)
@settings(max_examples=12, deadline=None)
@given(n=st.integers(2, 20), load=st.sampled_from([F(1, 2), F(2), F(7, 3), F(4), F(9)]),
       seed=st.integers(0, 10**6), prime=st.booleans())
@example(n=12, load=F(2), seed=1, prime=True)
@example(n=17, load=F(7, 3), seed=2, prime=True)
@example(n=3, load=F(2), seed=2, prime=False)  # digit routes: 4 steps for 2 rows
def test_block_rows_are_counted_before_they_are_built(algorithm, n, load, seed, prime):
    # The count is exact: one row under it the scheduler refuses, naming it,
    # and at it the scheduler builds that many rows, unless its horizon is
    # longer (a round may serve offsets with no commodity); then the horizon
    # is refused, naming it. The grid needs two digits.
    assume(algorithm != "grid" or n > 2)
    inst = _instance(n, load, seed, prime)
    build = ALGORITHMS[algorithm]
    sched = build(inst, load)
    rows, horizon = sched.src.size, sched.horizon
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(model, "MAX_PARCELS", rows - 1)
        with pytest.raises(StructuralError, match=f"^{rows} rows exceed the cap of {rows - 1}$"):
            build(inst, load)
        patch.setattr(model, "MAX_PARCELS", rows)
        if horizon > rows:
            with pytest.raises(StructuralError, match=f"^{horizon} steps exceed the cap of {rows}$"):
                build(inst, load)
            patch.setattr(model, "MAX_PARCELS", horizon)
        assert build(inst, load) == sched

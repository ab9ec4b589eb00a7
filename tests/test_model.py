import copy
import json
import os
import pickle
import random
import re
import tempfile
from dataclasses import fields, replace
from fractions import Fraction as F
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from reference_rows import matrix_document, row_document, schedule_from_steps

from coflow.errors import (
    CoflowError,
    DiagonalDemandError,
    DimensionError,
    NegativeDemandError,
    StructuralError,
)
from coflow.direct import TRACE_COLUMNS, GreedyTrace, greedy_schedule
from coflow.experiment import ALGORITHMS
from coflow.generators import FAMILIES, generate
from coflow.model import (
    INT64_MAX,
    NODE_COLUMNS,
    ROW_COLUMNS,
    Instance,
    ScaledMatrix,
    Schedule,
    Transfer,
    column_text,
    compute_metrics,
    distinct,
    document_text,
    dump_instance,
    dump_schedule,
    int_column,
    load_schedule,
    lowest_terms,
    make_instance,
    read_json,
    step_groups,
    summable,
    uniform_instance,
    write_document,
)
from coflow.rational import (
    parse_rational,
    render_decimal,
    render_rational,
)
from coflow.verifier import verify


def test_load_bound_is_max_row_or_col_sum():
    inst = make_instance(3, [[0, 1, F(1, 2)], [F(3, 2), 0, 0], [0, 2, 0]])
    # rows: 3/2, 3/2, 2; cols: 3/2, 3, 1/2
    assert inst.load_bound == F(3)


def test_validation_errors():
    with pytest.raises(DimensionError):
        make_instance(1, [[0]])
    for n in (0, 1, -3):  # n = 0 is refused before the entry load / n
        with pytest.raises(DimensionError, match="at least 2 nodes"):
            uniform_instance(n, 2)
    with pytest.raises(DimensionError):
        make_instance(3, [[0, 1], [1, 0]])
    with pytest.raises(DiagonalDemandError):
        make_instance(2, [[1, 0], [0, 0]])
    with pytest.raises(NegativeDemandError):
        make_instance(2, [[0, -1], [0, 0]])


def test_uniform_instance_shape():
    inst = uniform_instance(4, 2)
    assert all(inst.demands[i][i] == 0 for i in range(4))
    assert all(
        inst.demands[i][j] == F(1, 2) for i in range(4) for j in range(4) if i != j
    )
    # diagonal-free, so the actual bound is B*(n-1)/n
    assert inst.load_bound == F(3, 2)
    assert inst.total_demand == F(6)


def test_columns_stay_read_only_across_pickling():
    # Denominators whose lcm passes int64, so the columns hold Python ints.
    instance = make_instance(3, [[0, F(1, 2**61 - 1), 2], [0, 0, F(5, 2**31 - 1)], [1, 0, 0]])
    schedule = ALGORITHMS["greedy"](instance, None)
    instance.demands, schedule.steps  # cached views are dropped, not pickled
    assert "_fractions" in vars(instance)
    for obj in (instance, schedule, copy.deepcopy(schedule)):
        again = pickle.loads(pickle.dumps(obj))
        assert again == obj
        assert not {"demands", "steps", "_fractions"} & set(vars(again))
        columns = again._columns() if isinstance(obj, Schedule) else [again.scaled_demands[0]]
        assert not any(c.flags.writeable for c in columns)
    assert again.steps == schedule.steps


def test_commodities_skips_zeros():
    inst = make_instance(3, [[0, 1, 0], [0, 0, F(1, 3)], [0, 0, 0]])
    assert list(inst.commodities()) == [(0, 1, F(1)), (1, 2, F(1, 3))]


def test_instance_json_round_trip():
    inst = make_instance(2, [[0, F(7, 3)], [F(1, 6), 0]])
    obj = inst.to_json()
    assert obj == {"format": "coflow-instance-v1", "n": 2, "scale": 6, "demands": [0, 14, 1, 0]}
    again = Instance.from_json(obj)
    assert again == inst
    assert again.demands == inst.demands
    assert again.load_bound == inst.load_bound
    # The matrix document earlier versions wrote reads as the same instance.
    rows = matrix_document(inst)
    assert rows == {"n": 2, "demands": [["0", "7/3"], ["1/6", "0"]]}
    assert Instance.from_json(rows) == inst
    # Numerators over a multiple of the lowest scale are reduced to it.
    assert Instance.from_json({**obj, "scale": 12, "demands": [0, 28, 2, 0]}) == inst


def prime_instance(n, bits):
    """Demands over distinct primes whose lcm has more than ``bits`` bits."""
    rng = random.Random(1)
    primes = [p for p in range(100, 1000) if all(p % k for k in range(2, 32))]
    inst = make_instance(n, [
        [F(0) if i == j or rng.random() < 0.5 else F(rng.randint(1, 13), rng.choice(primes))
         for j in range(n)] for i in range(n)
    ])
    assert inst.scaled_demands[1].bit_length() > bits
    return inst


WIRE_INSTANCES = [
    *((f"{family}-{n}-{load}", generate(family, n, load, seed=n))
      for family in FAMILIES for n in (2, 5, 16) for load in (F(1, 2), F(7, 3), F(40))),
    ("prime-denominators", prime_instance(16, 420)),
    # Numerators beyond int64: the column holds Python ints.
    ("object", make_instance(3, [[0, F(2**70, 3), 1], [F(1, 2**61 - 1), 0, 0], [0, 0, 0]])),
    ("zero", make_instance(2, [[0, 0], [0, 0]])),
]


@pytest.mark.parametrize("name,inst", WIRE_INSTANCES, ids=[name for name, _ in WIRE_INSTANCES])
def test_instances_round_trip_through_both_documents(name, inst):
    if name == "object":
        assert inst.scaled_demands[0].dtype == object
    for obj in (inst.to_json(), matrix_document(inst)):
        again = Instance.from_json(json.loads(json.dumps(obj)))
        assert again == inst  # n, scale, dtype and column
        assert again.load_bound == inst.load_bound


def test_fraction_views_share_one_memo():
    inst = make_instance(3, [[0, F(1, 2), F(1, 3)], [F(1, 2), 0, 0], [F(1, 6), 0, 0]])
    demands = inst.demands
    assert demands[0][1] is demands[1][0]
    assert [d for _, _, d in inst.commodities()][0] is demands[0][1]
    memo = inst.fractions(6)
    assert memo[3] is demands[0][1]
    assert inst.fractions(6) is memo
    assert inst.fractions(12)[6] == memo[3] and inst.fractions(12)[6] is not memo[3]


def test_schedule_json_round_trip():
    sched = schedule_from_steps(
        2, [[Transfer(0, 1, 0, 1, F(1, 2))], [Transfer(0, 1, 0, 1, F(1, 2))]]
    )
    obj = sched.to_json()
    assert obj == {
        "format": "coflow-columns-v1", "n": 2, "horizon": 2, "scale": 2,
        "counts": [1, 1], "from": [0, 0], "to": [1, 1], "origin": [0, 0],
        "dest": [1, 1], "amount": [1, 1],
    }
    again = Schedule.from_json(obj, 2)
    assert again == sched
    # One Fraction per distinct amount in the decoded schedule's view.
    assert again.steps[0].transfers[0].amount is again.steps[1].transfers[0].amount
    # The row document earlier versions wrote reads as the same schedule.
    rows = row_document(sched)
    assert rows["steps"][0]["transfers"][0] == {
        "from": 0, "to": 1, "commodity": [0, 1], "amount": "1/2",
    }
    assert Schedule.from_json(rows, 2) == sched
    # Numerators over a multiple of the lowest scale are reduced to it.
    assert Schedule.from_json({**obj, "scale": 6, "amount": [3, 3]}, 2) == sched


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_wire_files_are_one_shot_dumps(tmp_path, algorithm):
    instance = uniform_instance(16, 4)
    schedule = ALGORITHMS[algorithm](instance, F(4))
    inst_path, sched_path = str(tmp_path / "inst.json"), str(tmp_path / "sched.json")
    dump_schedule(schedule, sched_path)
    dump_instance(instance, inst_path)
    with open(sched_path) as fh:
        # A bare bool: pytest's diff of two long one-line strings takes minutes.
        same = fh.read() == json.dumps(schedule.to_json())
    assert same
    with open(inst_path) as fh:
        same = fh.read() == json.dumps(instance.to_json())
    assert same
    assert load_schedule(sched_path, instance.n) == schedule
    # The same bytes on every round-trip instance, Python-int columns
    # included, and for greedy's trace file.
    path = str(tmp_path / "doc.json")
    for instance, load in round_trip_instances():
        try:
            schedule = ALGORITHMS[algorithm](instance, load)
        except CoflowError:  # a size or regime the scheme does not support
            continue
        docs = [instance, schedule]
        if algorithm == "greedy":
            docs.append(greedy_schedule(instance)[1])
        for doc in docs:
            write_document(doc.document(), path)
            with open(path) as fh:
                same = fh.read() == json.dumps(doc.to_json())
            assert same, (type(doc).__name__, instance.n, load)


int64_columns = st.one_of(
    st.lists(st.integers(-5, 5), max_size=12),  # negatives, spans up to the size
    st.lists(st.integers(-INT64_MAX - 1, INT64_MAX), max_size=6),  # spans wider than the size
    st.builds(lambda x, k: [x] * k, st.integers(-INT64_MAX - 1, INT64_MAX), st.integers(1, 4)),
).map(lambda values: np.array(values, np.int64))
past_int64 = st.one_of(st.integers(INT64_MAX + 1, 2**80), st.integers(-2**80, -INT64_MAX - 2))
object_columns = st.builds(
    lambda small, big: np.array(small + big, object),
    st.lists(st.integers(-10, 10), max_size=6), st.lists(past_int64, min_size=1, max_size=3),
)


@settings(deadline=None)  # the n=1024 column takes about 0.2 s
@given(st.one_of(int64_columns, object_columns))
@example(np.zeros(0, np.int64))
@example(np.array([3, 11] + [5] * 7, np.int64))  # span 8, just under the size 9
@example(np.array([-4, 5] + [0] * 7, np.int64))  # span 9, the size
@example(np.array([0, 10] + [7] * 7, np.int64))  # span 10, just over the size
# 1,048,576 demands holding 92 distinct values over a span of 665,281.
@example(generate("random-sparse", 1024, F(2), seed=1).scaled_demands[0])
@example(np.array([7], np.int64))
@example(np.array([-INT64_MAX - 1, INT64_MAX], np.int64))
@example(np.array([INT64_MAX, INT64_MAX - 1, INT64_MAX], np.int64))
def test_column_text_is_json_dumps_of_the_list(column):
    assert column_text(column) == json.dumps(column.tolist())


def test_reports_hold_read_only_columns_and_compare_by_value():
    instance = uniform_instance(4, 2)
    schedule = ALGORITHMS["hypercube"](instance, None)
    report, metrics = verify(instance, schedule), compute_metrics(instance, schedule)
    assert not report.scaled_unmet[0].flags.writeable
    assert not metrics.scaled_delivered[0].flags.writeable
    assert report.unmet_demand == ((0,) * 4,) * 4 and metrics.delivered == instance.demands
    assert report.unmet_demand is report.unmet_demand and metrics.delivered is metrics.delivered
    # The same values over another scale, or in another dtype, are the same report.
    column, scale = metrics.scaled_delivered
    assert replace(metrics, scaled_delivered=ScaledMatrix(column * 3, scale * 3)) == metrics
    assert replace(metrics, scaled_delivered=ScaledMatrix(column * 3, scale)) != metrics
    column, scale = report.scaled_unmet
    assert replace(report, scaled_unmet=ScaledMatrix(column.astype(object), scale * 5)) == report
    assert replace(report, scaled_unmet=ScaledMatrix(column + 1, scale)) != report
    # Derived fields are not constructor values.
    assert report.feasible and not replace(report, scaled_unmet=ScaledMatrix(column + 1, scale)).feasible


# Scales on either side of int64, so that a cross product can pass it.
scales = st.one_of(st.integers(1, 12), st.integers(INT64_MAX - 2, 2**80))


@st.composite
def scaled_pairs(draw):
    """Two square ScaledMatrix values: the second the first's values over
    another scale, one of them moved or not, or drawn on its own; each
    column int64 where its values fit, or ``object``."""
    def matrix(nums, scale):
        column = int_column(nums)
        return ScaledMatrix(column.astype(object) if draw(st.booleans()) else column, scale)

    entry = st.one_of(st.integers(-5, 5), st.integers(-INT64_MAX - 1, INT64_MAX), past_int64)
    n = draw(st.integers(1, 3))
    nums, scale = draw(st.lists(entry, min_size=n * n, max_size=n * n)), draw(scales)
    if draw(st.booleans()):
        m = draw(st.integers(1, 3))
        return matrix(nums, scale), matrix(draw(st.lists(entry, min_size=m * m, max_size=m * m)),
                                           draw(scales))
    factor = draw(scales)
    other = [x * factor for x in nums]
    if draw(st.booleans()):
        other[draw(st.integers(0, n * n - 1))] += draw(st.sampled_from([-1, 1]))
    return matrix(nums, scale), matrix(other, scale * factor)


@settings(max_examples=300)
@given(pair=scaled_pairs())
# All zeros in int64 over a 67-bit scale: the cross factor alone passes int64.
@example(pair=(ScaledMatrix(np.zeros(4, np.int64), 2**66 + 1), ScaledMatrix(np.zeros(4, np.int64), 1)))
@example(pair=(ScaledMatrix(np.array([0, 1, 0, 0], np.int64), 2**66 + 1),
               ScaledMatrix(np.array([0, 1, 0, 0], object), 2**66 + 1)))
def test_scaled_matrices_are_equal_when_their_fraction_rows_are(pair):
    a, b = pair
    want = a.rows() == b.rows()
    assert (a == b, b == a, a != b) == (want, want, not want)
    assert not a.column.flags.writeable and not b.column.flags.writeable


def test_schedule_from_steps_round_trip():
    # .steps gives back the rows given, whatever their values: ids beyond
    # int64, zero and negative amounts, trailing empty steps.
    huge = 2**70
    half, big = F(1, 2), F(2**70, 3)
    steps = [
        [Transfer(0, 1, 0, 1, half), Transfer(huge, -huge, 1, 0, half)],
        [],
        [Transfer(1, 0, -huge, huge, F(0)), Transfer(0, 1, 0, 1, F(-1, 3)),
         Transfer(1, 2, 1, 2, big), Transfer(1, 0, 1, 0, half)],
        [],
        [],
    ]
    sched = schedule_from_steps(3, steps)
    assert sched.horizon == 5
    assert [list(step.transfers) for step in sched.steps] == steps
    assert sched.src.dtype == sched.amount.dtype == object
    assert sched.step.dtype == np.int32  # the horizon fits
    # One Fraction per distinct amount, however often the rows repeat it.
    assert sched.steps[0].transfers[0].amount is sched.steps[2].transfers[3].amount
    assert sched == schedule_from_steps(3, steps)
    assert sched != schedule_from_steps(3, steps[:-1])
    assert Schedule.from_json(json.loads(json.dumps(sched.to_json())), 3) == sched
    assert Schedule.from_json(json.loads(json.dumps(row_document(sched))), 3) == sched
    small = schedule_from_steps(2, [[Transfer(0, 1, 0, 1, half)], []])
    assert (small.src.dtype, small.amount.dtype) == (np.int32, np.int64)
    assert small.scale == 2


def test_schedule_json_horizon_mismatch():
    sched = schedule_from_steps(2, [[Transfer(0, 1, 0, 1, F(1))]])
    for obj in (sched.to_json(), row_document(sched)):
        obj["horizon"] = 5
        with pytest.raises(StructuralError, match="declared horizon"):
            Schedule.from_json(obj, 2)


def test_rows_are_step_major_by_construction():
    # A schedule holds its step counts, not a step column: step t moves the
    # next counts[t] rows, so rows are in step order whatever they are. The
    # relay 0 -> 1, then 1 -> 2, of commodity (0, 2) is feasible; its rows
    # the other way round are another schedule, one that ships from node 1
    # in step 0, before the parcel is there.
    assert [f.name for f in fields(Schedule)] == [
        "n", "counts", "src", "dst", "origin", "dest", "amount", "scale"]
    inst = make_instance(3, [[0, 0, 1], [0, 0, 0], [0, 0, 0]])
    col = lambda *values: np.array(values, np.int64)
    relay = Schedule(3, [1, 1], col(0, 1), col(1, 2), col(0, 0), col(2, 2), col(1, 1), 1)
    assert verify(inst, relay).feasible
    assert (relay.horizon, relay.step.tolist(), relay.counts.dtype) == (2, [0, 1], np.int64)
    assert not (relay.counts.flags.writeable or relay.step.flags.writeable)
    swapped = Schedule(3, [1, 1], col(1, 0), col(2, 1), col(0, 0), col(2, 2), col(1, 1), 1)
    report = verify(inst, swapped)
    assert not report.feasible
    assert [(v.kind, v.step, v.where) for v in report.violations] == [
        ("conservation", 0, (0, 2, 1))]
    assert swapped.to_json()["counts"] == [1, 1]
    assert Schedule.from_json(swapped.to_json(), 3) == swapped


@pytest.mark.parametrize("counts,rows,message", [
    ([2, -1], 1, "counts do not add up to 1 rows"),
    ([2], 1, "counts do not add up to 1 rows"),
    ([], 1, "counts do not add up to 1 rows"),
    ([2**70, 1 - 2**70], 1, "counts do not add up to 1 rows"),
    # Four counts of 2^62 and a 1 add up to 1 in wrapping int64 arithmetic.
    ([2**62] * 4 + [1], 1, "counts do not add up to 1 rows"),
    ([0, 2], 1, "counts do not add up to 1 rows"),
])
def test_schedule_refuses_counts_that_do_not_cover_its_rows(counts, rows, message):
    column = np.ones(rows, np.int64)
    with pytest.raises(StructuralError, match=f"^{message}$"):
        Schedule(2, counts, column - 1, column, column - 1, column, column, 1)


def test_schedule_refuses_row_columns_of_different_lengths():
    one, two = np.ones(1, np.int64), np.ones(2, np.int64)
    with pytest.raises(StructuralError, match="^the row columns differ in length$"):
        Schedule(2, [1], one - 1, one, one - 1, one, two, 1)


# Ids beyond int64 and amounts over a 420-bit denominator: object columns.
HUGE_ID = 2**70
WIDE = 2**420 - 1


@pytest.mark.parametrize("steps", [
    [[Transfer(HUGE_ID, -HUGE_ID, 0, 1, F(1, 2))], [Transfer(0, 1, 0, 1, F(1, 2))]],
    [[Transfer(0, 1, 0, 1, F(1, WIDE)), Transfer(1, 2, 1, 2, F(WIDE - 1, WIDE))],
     [], [Transfer(2, 0, 2, 0, F(3))]],
    [[Transfer(0, 1, 0, 1, F(2**80 + 1, 3)), Transfer(2, 1, 2, 1, F(5, 2**400))]],
    [[], []],
], ids=["huge-ids", "wide-denominator", "wide-numerator", "empty-steps"])
def test_object_columns_round_trip_through_the_column_document(steps):
    sched = schedule_from_steps(3, steps)
    assert any(c.dtype == object for c in (sched.src, sched.amount)) or not sched.step.size
    for doc in (sched.to_json(), row_document(sched)):
        again = Schedule.from_json(json.loads(json.dumps(doc)), 3)
        assert again == sched
        assert again.scale == sched.scale
        assert [c.dtype for c in again._columns()] == [c.dtype for c in sched._columns()]


def round_trip_instances():
    """(instance, load) for every family, size and load below, and a
    16-node instance over primes between 100 and 400, whose common
    denominator passes 350 bits, so that amount columns hold Python ints."""
    for family in FAMILIES:
        for n in (4, 9, 16):
            for load in (F(1, 2), F(2), F(7, 3), F(16)):
                yield generate(family, n, load, seed=n), load
    rng = random.Random(1)
    primes = [p for p in range(100, 400) if all(p % k for k in range(2, 20))]
    yield make_instance(16, [
        [F(0) if i == j or rng.random() < 0.5
         else F(rng.randint(1, 13), rng.choice(primes)) for j in range(16)]
        for i in range(16)
    ]), None


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_every_schedule_round_trips_through_both_documents(algorithm):
    checked = 0
    for instance, load in round_trip_instances():
        try:
            schedule = ALGORITHMS[algorithm](instance, load)
        except CoflowError:  # a size or regime the scheme does not support
            continue
        for doc in (schedule.to_json(), row_document(schedule)):
            again = Schedule.from_json(json.loads(json.dumps(doc)), instance.n)
            # A bare bool: pytest's diff of two schedules is slow to build.
            same = again == schedule and again.scale == schedule.scale
            assert same, (instance.n, load)
        checked += 1
    assert checked >= 8


# -- the file reader ------------------------------------------------------------

# The keys each document kind reads as integer columns.
COLUMNS = {"instance": ("demands",), "schedule": ("counts", *ROW_COLUMNS),
           "trace": ("counts", *TRACE_COLUMNS)}


@lru_cache(maxsize=1)
def wire_documents() -> tuple:
    """(kind, text, instance) for every round-trip instance's document, the
    document of each registry schedule of it, and greedy's trace document."""
    docs = []
    for instance, load in round_trip_instances():
        docs.append(("instance", document_text(instance.document()), instance))
        for algorithm in sorted(ALGORITHMS):
            try:
                schedule = ALGORITHMS[algorithm](instance, load)
            except CoflowError:
                continue
            docs.append(("schedule", document_text(schedule.document()), instance))
        trace = greedy_schedule(instance)[1]
        docs.append(("trace", document_text(trace.document()), instance))
    return tuple(docs)


def _outcome(read, kind: str, instance: Instance):
    """The document ``read()`` gives, with its columns as lists, and what
    ``from_json`` builds of it; an error as its type and message. Only the
    document's column keys may hold numpy columns: int32 node columns and
    int64 others."""
    build = {"instance": Instance.from_json,
             "schedule": lambda doc: Schedule.from_json(doc, instance.n),
             "trace": lambda doc: GreedyTrace.from_json(doc, instance)}[kind]
    try:
        doc = read()
    except Exception as exc:
        return type(exc), str(exc)
    plain = doc
    if isinstance(doc, dict):
        for key, value in doc.items():
            if isinstance(value, np.ndarray):
                assert key in COLUMNS[kind] and value.dtype == (
                    np.int32 if key in NODE_COLUMNS else np.int64), key
        plain = {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in doc.items()}
    try:
        built = build(doc)
    except Exception as exc:
        built = type(exc), str(exc)
    return json.dumps(plain), built


def assert_read_as_json_reads(text: str, kind: str, instance: Instance, path: str) -> None:
    """``read_json(path, columns)`` gives what ``json.load`` gives, each
    column it reads as a numpy column holding the same values, and the same
    instance, schedule or trace (dtypes included), or the same error."""
    with open(path, "w") as fh:
        fh.write(text)

    def parent():
        try:
            with open(path) as fh:
                return json.load(fh)
        except ValueError as exc:
            raise StructuralError(f"{path} is not a readable JSON document: {exc}") from exc

    got, want = (_outcome(read, kind, instance)
                 for read in (lambda: read_json(path, COLUMNS[kind]), parent))
    assert got == want, text


def _at(pattern, edit):
    """Rewrite the k-th match of ``pattern`` in the text (k modulo their
    count) with ``edit`` of it; a text with none stays as it is."""
    def mutate(text, k):
        found = list(re.finditer(pattern, text))
        if not found:
            return text
        m = found[k % len(found)]
        return text[:m.start()] + edit(m.group()) + text[m.end():]
    return mutate


NUMBER, LIST = r"-?\d+", r"\[[^\[\]]*\]"


def _with_key(value, last):
    """Add the k-th key of the text again, with ``value``: before its
    fields or after them."""
    def mutate(text, k):
        keys = re.findall(r'"(\w+)":', text) or ["n"]
        field = f'"{keys[k % len(keys)]}": {value}'
        if last:
            at = text.rfind("}")
            return text if at < 0 else text[:at] + ", " + field + text[at:]
        at = text.find("{") + 1
        return text if not at else text[:at] + field + ", " + text[at:]
    return mutate


SEPARATORS = [",", ",\t", "\t, ", ",\n", "\n,", " ,", ",\r", ",\r\n", ",  ", ",\f", "\f,",
              ",\v", "\v,", ",\u00a0", "\u00a0,", " ", ";", ", ,"]
INSERTED = ["[]", "[1, 2]", "[0, -1]", "7", "NaN", '"x"', "[[0], 1]", "[0, [1]]",
            r'"a]:[\"b"', "true", "[9223372036854775808]", "[-9223372036854775808]"]
MUTATIONS = [
    _at(NUMBER, lambda t: "-0" + t[1:] if t.startswith("-") else "0" + t),
    _at(NUMBER, lambda t: "00" + t),
    _at(NUMBER, lambda t: "+" + t),
    _at(NUMBER, lambda t: "-0"),
    _at(NUMBER, lambda t: "-" + t),
    _at(NUMBER, lambda t: t + ".0"),
    _at(NUMBER, lambda t: t + "e3"),
    _at(NUMBER, lambda t: "1E3"),
    _at(NUMBER, lambda t: "true"),
    _at(NUMBER, lambda t: "NaN"),
    _at(NUMBER, lambda t: "-Infinity"),
    _at(NUMBER, lambda t: "null"),
    _at(NUMBER, lambda t: '"' + t + '"'),
    _at(NUMBER, lambda t: t + ","),
    _at(NUMBER, lambda t: "[" + t + "]"),
    _at(NUMBER, lambda t: "[]"),
    *(_at(NUMBER, lambda t, v=v: str(v)) for v in (
        10**18, -10**18, 10**19 - 1, 10**19, 10**20 - 1, -(10**19 - 1),
        2**63, -2**63, 2**63 - 1, -2**63 - 1, 2**64, 2**63 + 2**62)),
    *(_at(", ", lambda t, sep=sep: sep) for sep in SEPARATORS),
    *(_at(": ", lambda t, sep=sep: sep) for sep in (":", ":\t", " :", ":\n", ":\f", ":\u00a0")),
    _at(r"\[", lambda t: "[ "), _at(r"\]", lambda t: " ]"),
    _at(r"\[", lambda t: "[\n"), _at(r"\]", lambda t: "\t]"),
    _at(LIST, lambda t: "[]"),
    _at(LIST, lambda t: "[" + t + "]"),
    _at(LIST, lambda t: t[:-1] + ",]"),
    _at(LIST, lambda t: t[:-1] + ", []]"),
    _at(LIST, lambda t: t.replace(", ", ",")),
    *(_with_key(value, last) for value in INSERTED for last in (False, True)),
    _at(r"\{", lambda t: r'{"a]\":[{": "]:[\",", '),
    _at(r"\{", lambda t: '{"[": ":", "]": "\\"", '),
    _at('"format": "', lambda t: t + "]["),
    *(_at(r"\}\s*$", lambda t, tail=tail: t + tail)
      for tail in ("x", " ", "\n", "}", "{}", " []", "\f")),
    lambda text, k: "\ufeff" + text,
    lambda text, k: " \n\t" + text,
    lambda text, k: "[" + text + "]",
    lambda text, k: text[:len(text) * (k % 7 + 1) // 8],
]


def _small_documents():
    """An instance, two schedules and a trace document at n=4 whose columns
    all go through the int64 reader."""
    instance = generate("random-sparse", 4, F(7, 3), seed=1)
    return [("instance", document_text(instance.document()), instance),
            ("schedule", document_text(ALGORITHMS["smeared"](instance, None).document()),
             instance),
            ("schedule", document_text(ALGORITHMS["round-robin"](instance, F(3)).document()),
             instance),
            ("trace", document_text(greedy_schedule(instance)[1].document()), instance)]


def test_reader_reads_every_wire_document_and_mutation_as_json(tmp_path):
    path = str(tmp_path / "doc.json")
    for kind, text, instance in wire_documents():
        assert_read_as_json_reads(text, kind, instance, path)
    for kind, text, instance in _small_documents():
        for mutate in MUTATIONS:
            for k in range(4):
                assert_read_as_json_reads(mutate(text, k), kind, instance, path)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_reader_reads_mutated_documents_as_json(data):
    docs = wire_documents()
    kind, text, instance = docs[data.draw(st.integers(0, len(docs) - 1))]
    for _ in range(data.draw(st.integers(1, 3))):
        mutate = MUTATIONS[data.draw(st.integers(0, len(MUTATIONS) - 1))]
        text = mutate(text, data.draw(st.integers(0, 10**6)))
    with tempfile.TemporaryDirectory() as tmp:
        assert_read_as_json_reads(text, kind, instance, os.path.join(tmp, "doc.json"))


def test_canonical_columns_are_read_as_int64_columns(tmp_path):
    path, fast = str(tmp_path / "doc.json"), 0
    for kind, text, _ in wire_documents():
        with open(path, "w") as fh:
            fh.write(text)
        doc, want = read_json(path, COLUMNS[kind]), json.loads(text)
        for key in COLUMNS[kind]:
            fits = all(-2**63 <= x < 2**63 for x in want[key])
            if fits:
                assert isinstance(doc[key], np.ndarray), (kind, key)
                fast += 1
            else:
                assert type(doc[key]) is list
    assert fast > 1000


@pytest.mark.parametrize("values,narrow", [
    ([0, 1] * 3000, True),
    (list(range(0, 10**6, 500)), False),  # wide from its first values on
    ([0] * 3000 + [10**9], False),  # narrow but for its last value
    ([2**62, 2**62 + 1] * 3000, True),
])
def test_long_wide_columns_are_read_by_json(tmp_path, values, narrow):
    # Every column that fits in int64 is read into an int64 column, however
    # wide its values' span: column_text checks a narrow one against its
    # table of strings and a wide one against json.dumps.
    path = str(tmp_path / "doc.json")
    with open(path, "w") as fh:
        fh.write(json.dumps({"demands": values}))
    got = read_json(path, ("demands",))["demands"]
    assert (max(values) - min(values) <= len(values)) == narrow
    assert isinstance(got, np.ndarray) and got.dtype == np.int64
    assert got.tolist() == json.loads(json.dumps(values))


@pytest.mark.parametrize("nums,scale", [
    ([6, -4, 0], 10), ([], 7), ([0, 0], 10**30), ([-2**63, 0], 2**64), ([-2**63], 2**63),
    ([-2**63, 2**62], 3 * 2**62), ([INT64_MAX, 1], INT64_MAX), ([5], 1),
])
def test_lowest_terms_of_a_column_is_that_of_its_list(nums, scale):
    column, low = lowest_terms(np.array(nums, np.int64), scale)
    assert (np.asarray(column).tolist(), low) == lowest_terms(nums, scale)


def test_metrics_counts_only_final_arrivals():
    inst = make_instance(3, [[0, 0, 1], [0, 0, 0], [0, 0, 0]])
    # relay through node 1: the step-0 hop is not a completion
    sched = schedule_from_steps(
        3, [[Transfer(0, 1, 0, 2, F(1))], [Transfer(1, 2, 0, 2, F(1))]]
    )
    m = compute_metrics(inst, sched)
    assert m.makespan == 2
    assert m.total_completion == F(2)
    assert m.average_completion == F(2)
    assert m.delivered[0][2] == F(1)


def test_metrics_split_completion():
    inst = make_instance(2, [[0, F(3, 2)], [0, 0]])
    sched = schedule_from_steps(
        2, [[Transfer(0, 1, 0, 1, F(1))], [Transfer(0, 1, 0, 1, F(1, 2))]]
    )
    m = compute_metrics(inst, sched)
    # 1 unit completes at 1, 1/2 unit at 2
    assert m.total_completion == F(2)
    assert m.average_completion == F(4, 3)


@pytest.mark.parametrize("big, terms, dtype", [(INT64_MAX // 7, 7, np.int64), (2**62, 2, object)])
def test_summable_at_the_int64_edge(big, terms, dtype):
    # 7 divides INT64_MAX, so the sums of the first case reach it exactly.
    assert big * terms == INT64_MAX + (dtype is object)
    column = np.array([1, -big, 2], np.int64)
    assert summable(column, terms).dtype == dtype
    assert summable(column, terms).tolist() == column.tolist()
    assert summable(column.astype(object), 1).dtype == object


@st.composite
def grouped_rows(draw):
    """(n, rows): rows (step, src, dst, amount) with self-loops and pairs
    repeated within a step, their amounts small, near int64's edge or past
    it; in a random order, or sorted by (step, src, dst)."""
    n, horizon = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    amounts = draw(st.sampled_from((st.integers(-3, 3), st.integers(-2**59, 2**59),
                                    st.one_of(st.integers(-3, 3), past_int64))))
    rows = draw(st.lists(st.tuples(st.integers(0, horizon - 1), st.integers(0, n - 1),
                                   st.integers(0, n - 1), amounts), max_size=40))
    return n, sorted(rows, key=lambda r: r[:3]) if draw(st.booleans()) else rows


@given(grouped_rows())
@example((3, []))
@example((2, [(0, 1, 1, 2**70), (0, 1, 1, -3), (1, 0, 1, 1), (0, 1, 0, 1)]))
def test_step_groups_are_dict_sums(case):
    # Each grouping's keys ascend, and each key has its rows' summed amount
    # and its first row, as a walk over the rows adding into dicts finds them.
    n, rows = case
    want = [{}, {}, {}]
    for r, (t, i, j, x) in enumerate(rows):
        for table, key in zip(want, ((t * n + i) * n + j, t * n + i, t * n + j)):
            total, first = table.get(key, (0, r))
            table[key] = total + x, first
    columns = [np.array([row[k] for row in rows], np.int64) for k in range(3)]
    amount = summable(int_column([row[3] for row in rows]), len(rows))
    got = step_groups(*columns, amount, n)
    for groups, table in zip(got, want):
        assert list(zip(*(column.tolist() for column in groups))) == [
            (key, *table[key]) for key in sorted(table)
        ]


@pytest.mark.parametrize("big", [INT64_MAX // 2, INT64_MAX // 2 + 1])
def test_metrics_sums_exactly_at_the_int64_edge(big):
    # Two arrivals of one commodity in one step, each big / (2 big): their
    # sum, 2 big, fits in int64 below the edge and not above it.
    inst = make_instance(2, [[0, 1], [0, 0]])
    src, dst = np.zeros(2, np.int64), np.ones(2, np.int64)
    sched = Schedule(2, [2], src, dst, src, dst, np.array([big, big], np.int64), 2 * big)
    m = compute_metrics(inst, sched)
    assert m.delivered == ((0, F(big, 2 * big) + F(big, 2 * big)), (0, 0))
    assert m.total_completion == 1 * (F(big, 2 * big) + F(big, 2 * big)) == 1
    assert m.makespan == 1


def test_metrics_rejects_flow_without_demand():
    inst = make_instance(2, [[0, 1], [0, 0]])
    sched = schedule_from_steps(2, [[Transfer(1, 0, 1, 0, F(1, 2))], []])
    with pytest.raises(StructuralError):
        compute_metrics(inst, sched)


def test_metrics_rejects_node_count_mismatch():
    inst = make_instance(2, [[0, 1], [0, 0]])
    sched = schedule_from_steps(3, [])
    with pytest.raises(StructuralError):
        compute_metrics(inst, sched)


@pytest.mark.parametrize(
    "text, value",
    [("1/2", F(1, 2)), ("3", F(3)), ("0", F(0)), ("7/3", F(7, 3))],
)
def test_parse_render_round_trip(text, value):
    assert parse_rational(text) == value
    assert parse_rational(render_rational(value)) == value
    assert render_rational(value) == text


def test_render_decimal_is_display_only():
    assert render_decimal(F(1, 3)) == "0.333333"
    assert render_decimal(F(2)) == "2"
    assert render_decimal(F(16, 10)) == "1.6"


small_fractions = st.fractions(
    min_value=0, max_value=3, max_denominator=8
)
# Primes whose lcm does not fit in int64, so the demand column holds Python ints.
BIG_PRIMES = (2**31 - 1, 2**61 - 1, 2**89 - 1)
prime_fractions = st.builds(F, st.integers(1, 13), st.sampled_from(BIG_PRIMES))
# Loads whose entry load / n has a numerator beyond int64, and small ones.
loads = st.one_of(
    st.fractions(min_value=F(1, 8), max_value=40, max_denominator=8),
    st.builds(F, st.integers(2**63, 2**70), st.integers(1, 9)),
)


@example(rows=[[F(0), F(1, 2**61 - 1)], [F(5, 2**89 - 1), F(0)]], load=F(2**70 + 1, 3))
@given(
    st.integers(min_value=2, max_value=5).flatmap(
        lambda n: st.lists(
            st.lists(st.one_of(small_fractions, prime_fractions), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    ),
    loads,
)
def test_load_bound_matches_naive_computation(rows, load):
    n = len(rows)
    for i in range(n):
        rows[i][i] = F(0)
    inst = make_instance(n, rows)
    row_sums = [sum(r, F(0)) for r in rows]
    col_sums = [sum((rows[i][j] for i in range(n)), F(0)) for j in range(n)]
    assert inst.load_bound == max(row_sums + col_sums)
    assert inst.total_demand == sum(row_sums, F(0))
    # The column reads back as the rows given, and through the wire as itself.
    assert inst.demands == tuple(map(tuple, rows))
    assert Instance.from_json(json.loads(json.dumps(inst.to_json()))) == inst
    assert inst == make_instance(n, rows)
    other = [row[:] for row in rows]
    other[0][1] += F(1, 3)
    assert make_instance(n, other) != inst
    if any(map(any, rows)):  # the same numerators over another scale
        assert make_instance(n, [[x / 2 for x in row] for row in rows]) != inst
    # A uniform instance is the instance of its explicit matrix.
    uniform = uniform_instance(n, load)
    explicit = make_instance(n, [[load / n if i != j else 0 for j in range(n)] for i in range(n)])
    assert uniform == explicit
    assert uniform.load_bound == explicit.load_bound


@settings(max_examples=200)
@given(values=st.lists(st.integers(0, INT64_MAX), max_size=40), span=st.integers(0, 60),
       base=st.integers(0, 2**62))
def test_distinct_is_np_unique(values, span, base):
    # Both sides of its rule: values over fewer integers than there are
    # values are counted, and values over all of int64's non-negative range
    # go to np.unique.
    for column in (np.array([base + v % (span + 1) for v in values], np.int64),
                   np.array(values, np.int64)):
        keys, inverse = distinct(column)
        want_keys, want_inverse = np.unique(column, return_inverse=True)
        assert (keys.dtype, keys.tolist()) == (want_keys.dtype, want_keys.tolist())
        assert inverse.tolist() == want_inverse.tolist()

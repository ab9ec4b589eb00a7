"""Core domain types: instances, schedules and metrics.

Everything is exact. An instance's demands, and the delivered and unmet
matrices of the reports, are each a :class:`ScaledMatrix`, the one
exact-matrix value: integer numerators over one common denominator, with
one equality on integers and one row view. A schedule is columnar: its
step counts, node columns and integer amount numerators over one common
denominator, so that the verifier and the metrics read it in
whole-schedule numpy passes. Node columns are int32 whenever every id fits
(:func:`node_column`, which every in-range id does: n <= 2^14 by
``MAX_PARCELS``), and so is the cached step column when the horizon fits;
the two keys that can pass 2^31 widen to int64 where they are formed, in
:func:`step_groups` and in the verifier's conservation.
:class:`fractions.Fraction` appears only in derived values, in read-only
views, which take their entries from one memo per instance, and in the
``"p/q"`` documents earlier versions wrote: instance and schedule files
are integer documents.
The two unit-parcel schedulers, edge coloring and round robin, build their
columns with :func:`parcel_schedule` from the parcels of :func:`unit_parcels`;
smearing and the digit routes with :class:`Blocks`, which owns the amount
table; greedy writes its rows straight into columns. :func:`node_columns`
is the one node-range check, :func:`summable` the one int64-or-Python-int
rule for sums, :func:`square_sums` the one row and column sum,
:func:`step_groups` the one sum per (step, edge) and per (step, node),
:func:`delivery` the one sum of what reaches each commodity's destination,
:func:`completion` the one total completion time, and :func:`capped` the
one size refusal. ``Schedule.steps`` gives the rows back as ``Transfer``s.
Instances, schedules and traces give their documents as fields and numpy
columns, and :func:`document_text` writes the bytes of ``json.dumps`` of
their ``to_json()``, each column read off a table of strings where its
values' span allows; :func:`read_json` reads each integer column back into
an int64 column in C (int32 for the node columns, where every id fits), and
any other text through ``json``. Types are immutable after construction and
safe to share across threads.

Time convention: step index ``s`` covers the interval ``[s, s+1]``; data
moved during step ``s`` completes at time ``s + 1``.
"""

from __future__ import annotations

import json
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, islice
from math import gcd, isqrt, lcm
from operator import index, itemgetter, mul
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import (
    DiagonalDemandError,
    DimensionError,
    NegativeDemandError,
    StructuralError,
)
from .rational import parse_rational, render_rational

Matrix = tuple[tuple[Fraction, ...], ...]
INT64_MAX = 2**63 - 1
INT32_MAX = 2**31 - 1
# The most rows (unit parcels or Blocks rows) or steps of one schedule, and
# of demand entries (n^2) of one instance: at the cap a schedule's int32 node
# and int64 amount columns take 6 GiB. Past it, nothing is built.
MAX_PARCELS = 1 << 28
COLUMNS_FORMAT = "coflow-columns-v1"
INSTANCE_FORMAT = "coflow-instance-v1"
# The node columns of a column or trace document, which read_json reads as
# int32 where every id fits.
NODE_COLUMNS = ("from", "to", "origin", "dest")
# The row columns of a column document, in the order of Schedule's fields.
ROW_COLUMNS = (*NODE_COLUMNS, "amount")


def square_sums(column: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column sums, exact, of the n x n matrix held row-major in an
    integer ``column``: int64, or Python ints where :func:`summable` says a
    sum might not fit."""
    matrix = summable(column, n).reshape(n, n)
    return matrix.sum(axis=1), matrix.sum(axis=0)


def over_scale(nums: Sequence[int], scale: int, form=lambda q: q) -> list:
    """``form(Fraction(x, scale))`` for each numerator x, made once per
    distinct x."""
    value = {x: form(Fraction(x, scale)) for x in set(nums)}
    return list(map(value.__getitem__, nums))


class ScaledMatrix(namedtuple("ScaledMatrix", "column scale")):
    """An exact n x n matrix: its entries, row-major, as integer numerators
    (int64, or Python ints in ``object``) in a ``column`` that the
    constructor makes read-only, over ``scale``. Two are equal when their
    values are, over either scale and dtype, compared on integers."""

    __slots__ = ()

    def __new__(cls, column: np.ndarray, scale: int):
        column.flags.writeable = False
        return super().__new__(cls, column, scale)

    def __eq__(self, other):
        if not isinstance(other, ScaledMatrix):
            return NotImplemented
        (a, s), (b, t) = self, other
        if s != t:  # a/s == b/t: each side times the other's scale less their gcd
            common = gcd(s, t)
            a, b = (c * k if max(k, max_abs(c) * k) <= INT64_MAX else c.astype(object) * k
                    for c, k in ((a, t // common), (b, s // common)))
        return np.array_equal(a, b)

    def __ne__(self, other):
        return not self == other

    def rows(self, form=None) -> list[list]:
        """The matrix as row lists, each entry ``form(x)`` of its numerator
        x, made once per distinct x: by default ``Fraction(x, scale)``."""
        nums = self.column.tolist()
        value = {x: form(x) if form else Fraction(x, self.scale) for x in set(nums)}
        flat, n = list(map(value.__getitem__, nums)), isqrt(len(nums))
        return [flat[a:a + n] for a in range(0, n * n, n)]


class FractionMemo(dict):
    """``Fraction(x, scale)`` by numerator x, each made on its first lookup
    and the same object at every later one."""

    def __init__(self, scale: int):
        super().__init__()
        self.scale = scale

    def __missing__(self, x: int) -> Fraction:
        return self.setdefault(x, Fraction(x, self.scale))


@dataclass(frozen=True)
class Instance:
    """A coflow instance: node count and exact demands.

    ``scaled_demands`` holds the demands as a :class:`ScaledMatrix`: integer
    numerators over the lcm of their denominators, and that lcm. Instances
    compare by value. :attr:`load_bound` is derived from the column, and
    :attr:`demands` is a ``Fraction`` view of it.

    Every ``Fraction`` view of the instance and of its greedy traces draws
    its entries from one memo held here (:meth:`fractions`), so equal
    entries of two views are the same object.
    """

    n: int
    scaled_demands: ScaledMatrix

    def __reduce__(self):
        # Rebuilt through the constructor, so the cached views are not pickled.
        return Instance, (self.n, self.scaled_demands)

    @cached_property
    def load_bound(self) -> Fraction:
        """The largest row or column sum: a lower bound on any makespan."""
        column, scale = self.scaled_demands
        rows, cols = square_sums(column, self.n)
        return Fraction(int(max(rows.max(), cols.max())), scale)

    @cached_property
    def _fractions(self) -> dict[int, FractionMemo]:
        return {}

    def fractions(self, scale: int) -> FractionMemo:
        """The instance's memo of ``Fraction(x, scale)``, by numerator x: a
        cached view, like :attr:`demands`, and not pickled."""
        return self._fractions.setdefault(scale, FractionMemo(scale))

    @cached_property
    def demands(self) -> Matrix:
        """The demand matrix, its entries from :meth:`fractions`: a
        read-only view, built on first use."""
        scale = self.scaled_demands.scale
        return tuple(map(tuple, self.scaled_demands.rows(self.fractions(scale).__getitem__)))

    @property
    def total_demand(self) -> Fraction:
        column, scale = self.scaled_demands
        return Fraction(sum(column.tolist()), scale)

    def commodities(self) -> Iterable[tuple[int, int, Fraction]]:
        """(origin, destination, demand) for every positive demand, row-major,
        the demands from :meth:`fractions`."""
        origin, dest, demand, scale = commodity_columns(self)
        memo = self.fractions(scale)
        return zip(origin.tolist(), dest.tolist(), map(memo.__getitem__, demand.tolist()))

    def document(self) -> dict:
        """The instance document: the demands, row-major, as integer
        numerators over ``scale``, the column as a numpy column (see
        :func:`document_text`)."""
        column, scale = self.scaled_demands
        return {"format": INSTANCE_FORMAT, "n": self.n, "scale": scale, "demands": column}

    def to_json(self) -> dict:
        return json_lists(self.document())

    @staticmethod
    def from_json(obj: dict) -> "Instance":
        """Read an instance document, or the matrix document earlier versions
        wrote (``{"n", "demands"}``, one ``"p/q"`` string per entry, and no
        ``format`` key)."""
        if isinstance(obj, dict) and "format" in obj:
            n, scale, demands = integer_document(
                obj, "instance", INSTANCE_FORMAT, ("n", "scale"), ("demands",)
            )
            if demands.size != n * n:
                raise DimensionError(f"demand matrix is not {n}x{n}")
            return _column_instance(n, demands, scale)
        try:
            demands = [[parse_rational(x) for x in row] for row in obj["demands"]]
            n = index(obj["n"])
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise StructuralError(f"malformed instance: {exc}") from exc
        return make_instance(n, demands)


def make_instance(n: int, demands: Sequence[Sequence]) -> Instance:
    """Validate a demand matrix of ints and ``Fraction``s and build an
    Instance."""
    if len(demands) != n or any(len(row) != n for row in demands):
        raise DimensionError(f"demand matrix is not {n}x{n}")
    return _column_instance(n, *scaled_column(list(chain.from_iterable(demands))))


def _check_nodes(n: int) -> None:
    """Refuse fewer than 2 nodes, or more demand entries (n^2) than
    ``MAX_PARCELS``."""
    if n < 2:
        raise DimensionError(f"need at least 2 nodes, got n={n}")
    capped(n * n, "demand entries")


def _column_instance(n: int, column: np.ndarray, scale: int) -> Instance:
    """Validate the row-major demand numerators of an n x n instance over
    ``scale`` and build it."""
    _check_nodes(n)
    matrix = column.reshape(n, n)
    diagonal = matrix.diagonal() != 0
    negative = matrix < 0
    bad = diagonal | negative.any(axis=1)
    if bad.any():
        i = int(bad.argmax())
        if diagonal[i]:
            raise DiagonalDemandError(f"nonzero diagonal demand at ({i},{i})")
        raise NegativeDemandError(f"negative demand at ({i},{int(negative[i].argmax())})")
    return Instance(n, ScaledMatrix(column, scale))


def uniform_instance(n: int, load: Fraction | int | str) -> Instance:
    """All-to-all instance with every off-diagonal entry ``load / n``.

    The diagonal is zeroed, so the actual load bound is ``load*(n-1)/n``;
    the nominal ``load`` parameter is still the one used in bound formulas.
    """
    _check_nodes(n)  # before dividing by n or making n^2 entries
    load = parse_rational(load) if isinstance(load, str) else Fraction(load)
    if load <= 0:
        raise NegativeDemandError(f"load bound must be positive, got {load}")
    entry = load / n
    column = np.repeat(int_column([entry.numerator]), n * n)
    column[np.arange(n) * (n + 1)] = 0  # the diagonal
    return _column_instance(n, column, entry.denominator)


class Transfer(NamedTuple):
    """One parcel moved over a physical edge during one step.

    ``origin``/``dest`` identify the commodity the parcel belongs to;
    ``src``/``dst`` are the endpoints of the physical edge actually used
    (they differ from the commodity on relay hops).
    """

    src: int
    dst: int
    origin: int
    dest: int
    amount: Fraction


@dataclass(frozen=True)
class Step:
    transfers: tuple[Transfer, ...]


def int_column(values: Sequence[int]) -> np.ndarray:
    """int64 column of Python ints, or an ``object`` column holding the same
    int objects when one of them does not fit in int64."""
    try:
        return np.array(values, np.int64)
    except OverflowError:
        return np.array(values, object)


def scaled_column(amounts: Sequence[Fraction]) -> tuple[np.ndarray, int]:
    """The numerators of exact amounts over the lcm of their denominators, as
    an :func:`int_column`, and that lcm."""
    dens = {a.denominator for a in amounts}
    scale = lcm(*dens)
    mult = {den: scale // den for den in dens}
    return int_column([a.numerator * mult[a.denominator] for a in amounts]), scale


def max_abs(column: np.ndarray) -> int:
    """The largest absolute value in an integer column, 0 when it is empty."""
    return max(int(column.max()), -int(column.min())) if column.size else 0


def summable(column: np.ndarray, terms: int) -> np.ndarray:
    """``column``, or its values as Python ints in an ``object`` column when
    a sum of up to ``terms`` of them might not fit in int64."""
    if column.dtype != object and max_abs(column) * terms > INT64_MAX:
        return column.astype(object)
    return column


def distinct(column: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(column, return_inverse=True)`` of an integer column, by
    counting when its values span fewer integers than it has values."""
    if column.dtype == object or not column.size or np.ptp(column) >= column.size:
        return np.unique(column, return_inverse=True)
    shifted, seen = column - column.min(), np.zeros(np.ptp(column) + 1, bool)
    seen[shifted] = True
    return np.flatnonzero(seen) + column.min(), (np.cumsum(seen) - 1)[shifted]


def delivery(origin, dest, src, dst, amount, n: int, arrive, leave) -> np.ndarray:
    """What the rows ``arrive`` bring to each commodity's destination, less
    what the rows ``leave`` take out of it: one exact value per cell (origin,
    dest) of the n x n matrix, row-major, :func:`summable` over those rows.
    Node ids are int32 in 0..n-1, and origin*n + dest, below n^2 <= 2^28,
    fits int32, unlike the keys :func:`step_groups` and the verifier's
    conservation widen to int64; ``arrive`` and ``leave`` index the rows
    with dst == dest and with src == dest that are to count."""
    rows = np.concatenate((arrive, leave))
    moved = summable(amount[rows], rows.size)
    np.negative(moved[arrive.size:], out=moved[arrive.size:])  # what leaves
    total = np.zeros(n * n, moved.dtype)
    np.add.at(total, origin[rows] * n + dest[rows], moved)
    return total


def node_column(column: np.ndarray) -> np.ndarray:
    """A node column as a :class:`Schedule` holds it: int32 when every id
    fits, which every id in 0..n-1 does, and otherwise ``column`` itself
    (int64, or ``object`` when an id does not fit in int64). The one width
    rule for node columns: a schedule narrows what its builder did not."""
    if column.dtype in (np.int32, object):
        return column
    if column.size and not -INT32_MAX - 1 <= column.min() <= column.max() <= INT32_MAX:
        return column
    return column.astype(np.int32)


def node_columns(schedule: Schedule, n: int) -> tuple[np.ndarray, ...]:
    """The schedule's src, dst, origin and dest columns as int32 (in a wider
    column, one with an id past int32, every id outside 0..n-1 becomes -1),
    and two row masks: an edge node outside 0..n-1, and a commodity that is
    not two distinct nodes of 0..n-1. A key made of them that can pass 2^31
    is widened where it is formed (:func:`step_groups`, the verifier's
    conservation)."""
    nodes = [
        c if c.dtype == np.int32 else np.where((c >= 0) & (c < n), c, -1).astype(np.int32)
        for c in (schedule.src, schedule.dst, schedule.origin, schedule.dest)
    ]
    src, dst, origin, dest = nodes
    outside = [(c < 0) | (c >= n) for c in nodes]
    bad_commodity = outside[2] | outside[3] | (origin == dest)
    return src, dst, origin, dest, outside[0] | outside[1], bad_commodity


def group_starts(keys: np.ndarray) -> np.ndarray:
    """Start index of each run of equal values in sorted keys."""
    return np.flatnonzero(np.concatenate(([keys.size > 0], keys[1:] != keys[:-1])))


def _runs(keys: np.ndarray, amount: np.ndarray, row: np.ndarray) -> tuple[np.ndarray, ...]:
    """Each run of equal values in sorted ``keys``: its key, the sum of its
    amounts and its least row."""
    starts = group_starts(keys)
    if starts.size == keys.size:  # every key once
        return keys, amount, row
    return keys[starts], np.add.reduceat(amount, starts), np.minimum.reduceat(row, starts)


def step_groups(step, src, dst, amount, n: int) -> tuple[tuple[np.ndarray, ...], ...]:
    """A schedule's rows grouped per (step, edge), keyed (step*n + src)*n +
    dst, per (step, sender), keyed step*n + src, and per (step, receiver),
    keyed step*n + dst: for each, the keys ascending, each group's summed
    amount and its first row. Node ids are int32 in 0..n-1 and ``amount``
    is :func:`summable` over the rows. The keys are int32 only when every
    one fits, (last step + 1) * n^2 <= 2^31, and int64 otherwise. The rows
    are sorted once, by edge key (not at all when already in that order, as
    a greedy trace's are); the senders come out sorted with the edges, and
    only the receivers are sorted again."""
    # numpy keeps int32 * int in int32 and wraps: the key width is the
    # explicit scalar's. int64 fits for any schedule and instance in memory.
    top = (int(step.max(initial=0)) + 1) * n * n
    codes = step * (np.int32 if top <= INT32_MAX + 1 else np.int64)(n)
    codes += src
    codes *= n
    codes += dst
    if (codes[1:] >= codes[:-1]).all():
        keys, loads, first = _runs(codes, amount, np.arange(codes.size))
    else:
        order = np.argsort(codes)
        codes = codes[order]  # one copy of the codes alive at a time
        keys, loads, first = _runs(codes, amount[order], order)
    del codes
    heads = keys // (n * n) * n + keys % n
    order = np.argsort(heads)
    heads = heads[order]  # one copy of the heads alive at a time
    return ((keys, loads, first), _runs(keys // n, loads, first),
            _runs(heads, loads[order], first[order]))


@dataclass(frozen=True, eq=False)
class Schedule:
    """Step counts plus per-edge, per-commodity parcels, held as columns.

    Step t moves the next ``counts[t]`` rows, so rows are step-major by
    construction. Row r moves ``Fraction(amount[r], scale)`` of commodity
    (``origin[r]``, ``dest[r]``) over the edge ``src[r]`` -> ``dst[r]``.
    ``counts`` is int64. The node columns are int32 whenever every id fits
    (:func:`node_column`, applied here, so that the width is decided in one
    place and schedules that compare equal have one dtype): int64, or
    ``object`` when an id does not fit in int64, only where an id is past
    int32. Builders write int32 directly, so the constructor copies nothing
    they build. The keys that can pass 2^31 are widened to int64 where they
    are formed: in :func:`step_groups` and in the verifier's conservation. ``amount`` holds integer numerators over ``scale``, the lcm
    of the amounts' denominators: int64, or Python ints in ``object`` when
    one does not fit. The columns are read-only, and schedules compare by
    them. Row columns of different lengths, or counts that are negative or
    do not add up to the row count, raise ``StructuralError``.

    Most schedulers build one with :class:`Blocks` or
    :func:`parcel_schedule`; ``to_json`` writes the columns as JSON integer
    lists, and :attr:`steps` gives the rows back as objects.
    """

    n: int
    counts: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    origin: np.ndarray
    dest: np.ndarray
    amount: np.ndarray
    scale: int

    def __post_init__(self):
        rows = self.src.size
        if any(column.size != rows for column in self._columns()):
            raise StructuralError("the row columns differ in length")
        counts = int_column(self.counts)  # Python ints when one is past int64
        # Every count in 0..rows, or the int64 sum of a few huge ones could wrap.
        if counts.size and (counts.min() < 0 or counts.max() > rows) or counts.sum() != rows:
            raise StructuralError(f"counts do not add up to {rows} rows")
        object.__setattr__(self, "counts", counts.astype(np.int64))
        # A column given for two fields (a trace's src and origin) stays one.
        nodes = {name: getattr(self, name) for name in ("src", "dst", "origin", "dest")}
        narrow = {id(column): node_column(column) for column in nodes.values()}
        for name, column in nodes.items():
            object.__setattr__(self, name, narrow[id(column)])
        for column in (self.counts, *self._columns()):
            column.flags.writeable = False

    def __reduce__(self):
        # As Instance.__reduce__: read-only columns, no cached views.
        return Schedule, (self.n, self.counts, *self._columns(), self.scale)

    def _columns(self) -> tuple[np.ndarray, ...]:
        return self.src, self.dst, self.origin, self.dest, self.amount

    def __eq__(self, other):
        if not isinstance(other, Schedule):
            return NotImplemented
        return (self.n, self.scale) == (other.n, other.scale) and all(
            a.dtype == b.dtype and np.array_equal(a, b)
            for a, b in zip((self.counts, *self._columns()), (other.counts, *other._columns()))
        )

    @property
    def horizon(self) -> int:
        return self.counts.size

    @cached_property
    def step(self) -> np.ndarray:
        """The step of each row, int32 when the horizon fits (int64 past
        2^31 steps): a read-only view, built on first use."""
        dtype = np.int32 if self.horizon <= INT32_MAX + 1 else np.int64
        step = np.repeat(np.arange(self.horizon, dtype=dtype), self.counts)
        step.flags.writeable = False
        return step

    @cached_property
    def steps(self) -> tuple[Step, ...]:
        """The rows as ``Step``s of ``Transfer``s, with one ``Fraction`` per
        distinct amount: a read-only view, built on first use."""
        rows = iter(map(Transfer._make, zip(
            self.src.tolist(), self.dst.tolist(), self.origin.tolist(),
            self.dest.tolist(), over_scale(self.amount.tolist(), self.scale),
        )))
        return tuple(Step(tuple(islice(rows, c))) for c in self.counts.tolist())

    def document(self) -> dict:
        """The column document: the row columns in step-major order,
        ``counts[t]`` rows in step t, and ``amount`` the numerators over
        ``scale``. Every field is an integer or an integer column (see
        :func:`document_text`)."""
        return {"format": COLUMNS_FORMAT, "n": self.n, "horizon": self.horizon, "scale": self.scale,
                "counts": self.counts, **dict(zip(ROW_COLUMNS, self._columns()))}

    def to_json(self) -> dict:
        return json_lists(self.document())

    @staticmethod
    def from_json(obj: dict, n: int) -> "Schedule":
        """Read a column document (see :func:`integer_document`), its amounts
        over their lowest scale, or a row document (one dict per transfer, one
        ``"p/q"`` string per amount, and no ``format`` key)."""
        if isinstance(obj, dict) and "format" in obj:
            declared, horizon, scale, counts, *nodes, amount = integer_document(
                obj, "schedule", COLUMNS_FORMAT, ("n", "horizon", "scale"), ("counts", *ROW_COLUMNS)
            )
            if declared != n:
                raise StructuralError(f"schedule is for n={declared}, the instance has n={n}")
        else:
            try:
                steps = [step["transfers"] for step in obj["steps"]]
                rows = list(chain.from_iterable(steps))
                counts = list(map(len, steps))
                commodity = list(map(itemgetter("commodity"), rows))
                nodes = [
                    int_column(list(map(index, map(get, source))))
                    for get, source in ((itemgetter("from"), rows), (itemgetter("to"), rows),
                                        (itemgetter(0), commodity), (itemgetter(1), commodity))
                ]
                amounts = map(parse_rational, map(itemgetter("amount"), rows))
                amount, scale = scaled_column(list(amounts))
                horizon = index(obj["horizon"])
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                raise StructuralError(f"malformed schedule: {exc}") from exc
        if len(counts) != horizon:
            raise StructuralError("declared horizon does not match step count")
        return Schedule(n, counts, *nodes, amount, scale)


def common_scale(instance: Instance, schedule: Schedule) -> tuple[np.ndarray, np.ndarray, int]:
    """The demands, row-major, and the schedule's amounts as numerators over
    the lcm of their scales, and that lcm: int64 columns when the lcm and
    every sum of up to two amounts per row and one demand per commodity fit
    in int64, Python ints otherwise (decided by the lcm alone when it does not
    fit). A column that needs no change is shared."""
    demand, den = instance.scaled_demands
    scale = lcm(schedule.scale, den)
    fits = scale <= INT64_MAX and (2 * schedule.src.size + instance.n**2) * max(
        max_abs(demand) * (scale // den), max_abs(schedule.amount) * (scale // schedule.scale)
    ) <= INT64_MAX

    def over(column, den):
        column = column.astype(np.int64 if fits else object, copy=False)
        return column * (scale // den) if den != scale else column

    return over(demand, den), over(schedule.amount, schedule.scale), scale


def integer_document(obj: dict, kind: str, form: str, scalars: tuple, columns: tuple) -> list:
    """The values of ``scalars`` and then ``columns`` in ``obj``, a document
    whose ``format`` must be ``form``, checked before anything converts them:
    each scalar a JSON integer and each column a list of them (bool, float,
    string and null refused: np.int64 would truncate 1.9 and take true for
    a node) or an int32 or int64 column, which :func:`read_json` gives only
    for such a list, and the ``scale`` scalar at least 1. Each failure
    raises ``StructuralError`` naming ``kind``. A list comes back as an
    :func:`int_column` and a numpy column as itself, the last one and
    ``scale`` in lowest terms."""
    if obj["format"] != form:
        raise StructuralError(f"unknown {kind} format {obj['format']!r:.60}")
    try:
        values = [obj[key] for key in (*scalars, *columns)]
    except KeyError as exc:
        raise StructuralError(f"malformed {kind}: no {exc} key") from exc
    if not all(type(x) is int for x in values[:len(scalars)]):
        names = ", ".join(scalars[:-1]) + " and " + scalars[-1]
        raise StructuralError(f"malformed {kind}: {names} must be integers")
    for key, column in zip(columns, values[len(scalars):]):
        if isinstance(column, np.ndarray) and column.dtype in (np.int32, np.int64):
            continue
        if type(column) is not list or not set(map(type, column)) <= {int}:
            raise StructuralError(f"malformed {kind}: {key} is not a list of integers")
    at = scalars.index("scale")
    if values[at] < 1:
        raise StructuralError(f"{kind} scale must be positive, got {values[at]}")
    values[-1], values[at] = lowest_terms(values[-1], values[at])
    values[len(scalars):] = (c if isinstance(c, np.ndarray) else int_column(c)
                             for c in values[len(scalars):])
    return values


def lowest_terms(nums: list[int] | np.ndarray, scale: int) -> tuple[list[int] | np.ndarray, int]:
    """Numerators over ``scale``, a list of ints or an int64 column, as the
    same values over the lowest scale."""
    if isinstance(nums, np.ndarray):
        # np.gcd gives -2**63 for a gcd of 2**63; math.gcd takes its size.
        common = gcd(scale, int(np.gcd.reduce(nums)))
        if common <= INT64_MAX:
            return (nums // common if common > 1 else nums), scale // common
        nums = nums.tolist()  # every value 0 or -2**63
    common = gcd(scale, *nums)
    if common == 1:
        return nums, scale
    return [x // common for x in nums], scale // common


def commodity_columns(instance: Instance) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Origin and destination columns of every commodity, int32 as a
    schedule's node columns, in ``Instance.commodities()`` order, and their
    demands as integer numerators over the instance's common denominator,
    with that denominator."""
    column, scale = instance.scaled_demands
    cells = np.flatnonzero(column > 0).astype(np.int32)  # below n^2 <= MAX_PARCELS
    return cells // instance.n, cells % instance.n, column[cells], scale


def capped(total: int, what: str) -> None:
    """Refuse a ``total`` of rows, parcels, steps or demand entries past
    ``MAX_PARCELS``: the one size refusal."""
    if total > MAX_PARCELS:
        raise StructuralError(f"{total} {what} exceed the cap of {MAX_PARCELS}")


def parcel_counts(instance: Instance) -> np.ndarray:
    """ceil(d) for each demand d, in commodity order, as int64: its unit
    parcels, and the fewest rows that ship d at most 1 a row. A total past
    ``MAX_PARCELS`` raises ``StructuralError`` before the counts narrow."""
    _, _, demand, scale = commodity_columns(instance)
    count = -(-demand.astype(object if scale > INT64_MAX else demand.dtype, copy=False) // scale)
    capped(int(summable(count, count.size).sum()), "unit parcels")
    return count.astype(np.int64)


def unit_parcels(instance: Instance) -> tuple[np.ndarray, np.ndarray]:
    """Each demand as :func:`parcel_counts` parcels (see :func:`parcel_schedule`):
    each parcel's commodity and its index among its commodity's parcels."""
    count = parcel_counts(instance)
    commodity = np.repeat(np.arange(count.size), count)
    return commodity, np.arange(commodity.size) - (np.cumsum(count) - count)[commodity]


def parcel_schedule(instance: Instance, horizon: int, parcel: np.ndarray,
                    slot: np.ndarray) -> Schedule:
    """The direct schedule that ships a parcel of commodity ``parcel[p]`` in
    step ``slot[p]``, for each p: each parcel carries 1, except each
    commodity's latest one, which carries what remains of its demand d,
    d - (ceil(d) - 1). Rows are sorted by slot, stably, and amounts are over
    the instance's scale; a horizon past ``MAX_PARCELS`` is refused."""
    capped(horizon, "steps")
    origin, dest, demand, scale = commodity_columns(instance)
    keys, code = distinct(demand)
    table = [(x - 1) % scale + 1 for x in keys.tolist()]
    if parcel.size > origin.size:  # some commodity has a parcel of 1
        table.append(scale)
    order = np.argsort(slot, kind="stable")
    parcel, slot = parcel[order], slot[order]
    latest = np.zeros(origin.size, np.int64)
    np.maximum.at(latest, parcel, np.arange(parcel.size))
    entry = np.full(parcel.size, len(keys))
    entry[latest] = code
    src, dst = origin[parcel], dest[parcel]
    counts = np.bincount(slot, minlength=horizon)
    return Schedule(instance.n, counts, src, dst, src, dst, int_column(table)[entry], scale)


class Blocks:
    """A schedule of ``instance`` whose rows depend only on their commodity's
    offset (dest - origin) mod n: pieces of template rows over disjoint runs
    of slots. Amount table entry f*G + g is the g-th of the G distinct demands
    times the f-th factor; amounts are over the lowest scale of those used."""

    def __init__(self, instance: Instance, common: int):
        n, (column, self.scale) = instance.n, instance.scaled_demands
        keys, cells = distinct(column)  # 0, on the diagonal, first
        self.n, self.common, self.keys, self.pieces = n, common, keys[1:].tolist(), []
        self.cells = cells - 1  # each cell's demand group, or -1
        self.ring = np.arange(2 * n) % n  # ring[x]: x mod n
        positive = (column > 0).reshape(n, n)
        self.senders = np.flatnonzero(positive.any(axis=1))  # origins of commodities
        k = np.flatnonzero(positive)  # the commodities' cells i * n + j
        self.per = np.bincount((k % n - k // n) % n, minlength=n)  # commodities per offset

    def add(self, slot: int, run: int, r, src, dst, factor) -> None:
        """Template rows (int columns, ``r`` ascending): in each of the ``run``
        slots from ``slot``, every commodity (i, j) with (j - i) mod n = r ships
        factor/common of its demand from i + src to i + dst (mod n)."""
        factor = np.broadcast_to(factor, r.shape)  # a view: no column for one factor
        self.pieces.append((slot, run, r, src % self.n, dst % self.n, factor))

    def _rows(self, r: np.ndarray) -> list[np.ndarray]:
        """The origin, dest - origin, demand group and template row of each row
        of a piece in one slot, in commodity order. Each origin i that has a
        commodity meets its offsets u >= n - i (dest i + u - n) first: a window
        of the piece's distinct offsets less n, then those offsets, less
        non-commodities. Each commodity takes its offset's template rows."""
        n, first, origin = self.n, group_starts(r), self.senders
        size, offset = first.size, r[first]
        at = np.searchsorted(offset, n - origin)[:, None] + np.arange(size)
        shift = np.concatenate((offset - n, offset))[at]
        group = self.cells[shift + origin[:, None] * (n + 1)].ravel()
        k = (np.arange(2 * size) % size)[at].ravel()  # each cell's offset, as an index
        rows = [np.repeat(origin, size), shift.ravel(), group, k]
        rows = rows if (live := group >= 0).all() else [column[live] for column in rows]
        if size < r.size:  # some offset has several template rows: k becomes t
            per = np.diff(first, append=r.size)[rows[3]]
            lead = np.cumsum(per) - per - first[rows[3]]  # row of t = 0, less the first
            rows = [np.repeat(column, per) for column in rows[:3]]
            rows.append(np.arange(rows[0].size) - np.repeat(lead, per))
        return rows

    def schedule(self, horizon: int) -> Schedule:
        """The rows by (slot, commodity, template row). A row total or horizon
        past ``MAX_PARCELS`` is refused before any row is made."""
        n, size = self.n, len(self.keys)
        pieces = sorted(self.pieces, key=itemgetter(0))
        sizes = [int(self.per[piece[2]].sum()) for piece in pieces]  # rows per slot
        total = sum(map(mul, map(itemgetter(1), pieces), sizes))
        capped(total, "rows")
        capped(horizon, "steps")
        # The distinct factors, found before the row columns exist: a template
        # row's table entry less its demand group is its factor's index times G.
        values = distinct(np.concatenate([piece[5] for piece in pieces]))[0]
        counts, pos = np.zeros(horizon, np.int64), 0
        # src, dst, origin and dest, int32 as the schedule holds them, and code.
        columns = [*(np.empty(total, np.int32) for _ in range(4)), np.empty(total, np.int64)]
        used = np.zeros(len(values) * size, bool)
        for (slot, run, r, src, dst, factor), rows in zip(pieces, sizes):
            counts[slot:slot + run] = rows
            origin, shift, group, t = self._rows(r)
            # The piece's first slot is written in place, then copied over its run.
            src_at, dst_at, origin_at, dest_at, code_at = (c[pos:pos + rows] for c in columns)
            origin_at[:] = origin
            np.add(origin, shift, out=dest_at)
            np.take(self.ring, origin + src[t], out=src_at, mode="clip")
            np.take(self.ring, origin + dst[t], out=dst_at, mode="clip")
            np.add((np.searchsorted(values, factor) * size)[t], group, out=code_at)
            used[code_at] = True
            for c in columns if run > 1 else ():
                c[pos + rows:pos + run * rows].reshape(run - 1, rows)[:] = c[pos:pos + rows]
            pos += run * rows
        code = columns.pop()
        entries, values = np.flatnonzero(used).tolist(), values.tolist()
        nums = [self.keys[e % size] * values[e // size] for e in entries]
        nums, scale = lowest_terms(nums, self.scale * self.common) if nums else ([], 1)
        column = int_column(nums)
        table = np.zeros(used.size, column.dtype)
        table[entries] = column
        amount = code if table.dtype == code.dtype else None  # in place where it fits
        return Schedule(n, counts, *columns, np.take(table, code, out=amount, mode="clip"), scale)


def completion(step: np.ndarray, amount: np.ndarray) -> tuple[int, int]:
    """Rows' total completion time, exactly, as a numerator over their
    amounts' scale: the sum of (step + 1) * amount, each row done at the end
    of its step, and the last step + 1 (0 and 0 for no rows). ``step`` is
    ascending int64, as a schedule's rows are step-major."""
    if not step.size:
        return 0, 0
    starts = group_starts(step)
    done = (step[starts] + 1).tolist()
    sums = np.add.reduceat(summable(amount, amount.size), starts).tolist()
    return sum(map(mul, done, sums)), done[-1]


@dataclass(frozen=True)
class Metrics:
    """What :func:`compute_metrics` measures. ``scaled_delivered`` holds the
    amount delivered per commodity as a :class:`ScaledMatrix`, and
    :attr:`delivered` is its ``Fraction`` view. Metrics compare by value."""

    makespan: int
    total_completion: Fraction
    average_completion: Fraction
    scaled_delivered: ScaledMatrix

    @cached_property
    def delivered(self) -> Matrix:
        """The delivered matrix: a read-only view, built on first use."""
        return tuple(map(tuple, self.scaled_delivered.rows()))

    def to_json(self) -> dict:
        scale = self.scaled_delivered.scale
        return {
            "makespan": self.makespan,
            "total_completion": render_rational(self.total_completion),
            "average_completion": render_rational(self.average_completion),
            "delivered": self.scaled_delivered.rows(lambda x: render_rational(Fraction(x, scale))),
        }


def compute_metrics(instance: Instance, schedule: Schedule) -> Metrics:
    """Makespan, total and average completion time of a schedule.

    Only arrivals at a commodity's final destination count as completions;
    relay hops do not. A destination is a sink: a parcel that leaves its
    commodity's destination is refused, so each parcel arrives there at
    most once. The first bad row, in row order, raises ``StructuralError``.

    One pass over the columns: rows are checked with masks, deliveries are
    summed per commodity by :func:`delivery` and completion by
    :func:`completion`, exactly, over the schedule's common denominator.
    """
    n = instance.n
    if schedule.n != n:
        raise StructuralError("schedule node count does not match instance")
    step, amount = schedule.step, schedule.amount
    src, dst, origin, dest, bad_node, bad_pair = node_columns(schedule, n)
    non_positive = amount <= 0
    leaves = src == dest
    bad = bad_node | bad_pair | non_positive | leaves
    # The rows before the first bad commodity name pairs of 0..n-1, and only
    # they can be the first bad row for want of demand.
    head = int(bad_pair.argmax()) if bad_pair.any() else bad_pair.size
    no_demand = ~(instance.scaled_demands[0] > 0).reshape(n, n)[origin[:head], dest[:head]]
    bad[:head] |= no_demand
    if bad.any():
        r = int(bad.argmax())
        s = int(step[r])
        if bad_node[r]:
            raise StructuralError(f"transfer references unknown node at step {s}")
        u, v = schedule.origin[r], schedule.dest[r]
        if bad_pair[r]:
            raise StructuralError(f"invalid commodity ({u},{v})")
        if no_demand[r]:
            raise StructuralError(f"positive flow for zero-demand pair ({u},{v})")
        if non_positive[r]:
            raise StructuralError(f"non-positive amount at step {s}")
        raise StructuralError(f"commodity ({u},{v}) leaves its destination at step {s}")

    arrivals = np.flatnonzero(dst == dest)
    total, makespan = completion(step[arrivals], amount[arrivals])
    total_completion = Fraction(total, schedule.scale)
    demand_sum = instance.total_demand
    avg = total_completion / demand_sum if demand_sum > 0 else Fraction(0)
    delivered = delivery(origin, dest, src, dst, amount, n, arrivals, arrivals[:0])
    return Metrics(makespan, total_completion, avg, ScaledMatrix(delivered, schedule.scale))


def json_lists(document: dict) -> dict:
    """``document`` with each numpy column as a list: what ``json.dumps``
    takes."""
    return {key: value.tolist() if isinstance(value, np.ndarray) else value
            for key, value in document.items()}


def column_text(column: np.ndarray) -> str:
    """``json.dumps(column.tolist())``. An int32 or int64 column whose values
    span at most its size is read off a table of the strings of the values it
    holds, placed over that span, and joined in C; any other column goes to
    ``json.dumps``."""
    if column.dtype in (np.int32, np.int64) and column.size:
        low, high = int(column.min()), int(column.max())
        if high - low <= column.size:
            held = np.flatnonzero(np.bincount(column - low))
            table = np.empty(high - low + 1, object)
            table[held] = [str(x + low) for x in held.tolist()]
            return "[" + ", ".join(table[column - low].tolist()) + "]"
    return json.dumps(column.tolist())


def document_text(document: dict) -> str:
    """``json.dumps(json_lists(document))``, one line, each column rendered
    by :func:`column_text`. An integer beyond Python's int-string limit
    (4,300 digits by default, ``cli.INT_DIGITS_CAP`` in a command; a
    document's scale can pass it when no entry does) raises
    ``StructuralError``."""
    try:
        return "{" + ", ".join(
            json.dumps(key) + ": "
            + (column_text(value) if isinstance(value, np.ndarray) else json.dumps(value))
            for key, value in document.items()
        ) + "}"
    except ValueError as exc:
        raise StructuralError(f"cannot encode as JSON: {exc}") from exc


def write_document(document: dict, path: str) -> None:
    """Write the :func:`document_text` of ``document`` in one write, made
    before the file is opened, so a document that cannot be encoded leaves
    no file."""
    text = document_text(document)
    with open(path, "w") as fh:
        fh.write(text)


WHITESPACE = json.decoder.WHITESPACE.match
scan_value = json.JSONDecoder().scan_once


def canonical_column(text: str, start: int, dtype=np.int64) -> tuple[np.ndarray, int] | None:
    """The ``dtype`` column of the JSON list that opens at ``text[start]``,
    and the index after it, when that list is the :func:`column_text` of the
    column, so that it decodes to the column's values as ``json.loads``
    would (a value that wrapped in ``dtype`` does not); None for any other
    text."""
    end = text.find("]", start) + 1
    if not end:
        return None
    try:
        column = np.fromstring(text[start + 1:end - 1], dtype, sep=",")
    except ValueError:  # text numpy does not read as integers
        return None
    return (column, end) if column_text(column) == text[start:end] else None


def scan_object(text: str, columns: tuple) -> dict | None:
    """``json.loads(text)`` when ``text`` is one JSON object, each key's
    value read by json's own scanner but a :func:`canonical_column` under a
    key in ``columns``, which stays an int64 column, or an int32 one under a
    key in ``NODE_COLUMNS`` (the ids of a list with one past int32 go to
    json's scanner): each node column is parsed straight into the width a
    :class:`Schedule` holds it in. None when ``text`` is not a JSON object,
    or is one that ``json.loads`` refuses."""
    try:
        document, i = {}, WHITESPACE(text).end()
        if not text.startswith("{", i):
            return None
        while True:
            i = WHITESPACE(text, i + 1).end()
            if not text.startswith('"', i):
                return None
            key, i = json.decoder.scanstring(text, i + 1)
            i = WHITESPACE(text, i).end()
            if not text.startswith(":", i):
                return None
            i = WHITESPACE(text, i + 1).end()
            column = key in columns and text.startswith("[", i) and canonical_column(
                text, i, np.int32 if key in NODE_COLUMNS else np.int64)
            document[key], i = column or scan_value(text, i)
            i = WHITESPACE(text, i).end()
            if not text.startswith(",", i):
                break
    except (ValueError, StopIteration):
        return None
    done = text.startswith("}", i) and WHITESPACE(text, i + 1).end() == len(text)
    return document if done else None


def read_json(path: str, columns: tuple = ()):
    """The JSON document in ``path``, as ``json.load`` reads it, but that
    the value of each key in ``columns`` written as :func:`column_text`
    writes it is an int64 column, or int32 for a node column (see
    :func:`scan_object`). Text that does not decode (not UTF-8, not JSON, or
    an integer literal beyond Python's int-string limit, 4,300 digits by
    default and ``cli.INT_DIGITS_CAP`` in a command) raises
    ``StructuralError``, with ``json``'s message."""
    try:
        with open(path) as fh:
            text = fh.read()
        document = scan_object(text, columns) if columns else None
        return json.loads(text) if document is None else document
    except ValueError as exc:
        raise StructuralError(f"{path} is not a readable JSON document: {exc}") from exc


def load_instance(path: str) -> Instance:
    return Instance.from_json(read_json(path, ("demands",)))


def dump_instance(instance: Instance, path: str) -> None:
    write_document(instance.document(), path)


def load_schedule(path: str, n: int) -> Schedule:
    return Schedule.from_json(read_json(path, ("counts", *ROW_COLUMNS)), n)


def dump_schedule(schedule: Schedule, path: str) -> None:
    write_document(schedule.document(), path)

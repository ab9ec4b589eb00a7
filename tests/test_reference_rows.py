"""The column emitters against the row-by-row reference: equal columns,
dtypes and scale, and the same schedule JSON."""

import json
import random
from fractions import Fraction as F
from functools import lru_cache

import pytest
import reference_rows

from coflow.direct import edge_coloring_schedule, greedy_schedule, smeared_fractional_schedule
from coflow.errors import CoflowError
from coflow.generators import FAMILIES, generate
from coflow.indirect import round_robin_schedule
from coflow.model import make_instance

LOADS = (F(1, 2), F(2), F(7, 3), F(40))
CASES = [
    (family, n, load)
    for family in FAMILIES
    for n in (2, 3, 4, 9, 16)
    for load in LOADS
] + [("all-zero", 4, 0), ("prime-denominators", 16, 0), ("one-denominator", 4, 0)]


@lru_cache(maxsize=None)
def instance(family, n, load):
    if family == "all-zero":
        return make_instance(n, [[0] * n for _ in range(n)])
    if family == "one-denominator":  # numerators fit in int64, the scale does not
        return make_instance(n, [
            [F(i + j, 2**70) if i != j else F(0) for j in range(n)] for i in range(n)
        ])
    if family == "prime-denominators":
        rng = random.Random(1)
        primes = [p for p in range(100, 400) if all(p % k for k in range(2, 20))]
        return make_instance(n, [
            [F(0) if i == j or rng.random() < 0.5
             else F(rng.randint(1, 13), rng.choice(primes)) for j in range(n)]
            for i in range(n)
        ])
    return generate(family, n, load, seed=n)


def same(build, reference):
    """Both raise the same error, or both give equal schedules and JSON."""
    try:
        want = reference()
    except CoflowError as exc:
        with pytest.raises(type(exc)) as got:
            build()
        assert str(got.value) == str(exc)
        return
    got = build()
    assert got == want
    assert json.dumps(got.to_json()) == json.dumps(want.to_json())


def test_corpus_has_big_denominators():
    inst = instance("prime-denominators", 16, 0)
    assert inst.scaled_demands[1].bit_length() > 350
    assert inst.scaled_demands[0].dtype == object


@pytest.mark.parametrize("case", CASES, ids=lambda c: "-".join(map(str, c)))
def test_emitters_match_reference_rows(case):
    inst = instance(*case)
    nominal = 4 * inst.n + 1  # above every load bound in the corpus
    same(lambda: round_robin_schedule(inst), lambda: reference_rows.round_robin(inst))
    same(lambda: round_robin_schedule(inst, nominal_load=nominal),
         lambda: reference_rows.round_robin(inst, nominal_load=nominal))
    same(lambda: smeared_fractional_schedule(inst), lambda: reference_rows.smeared(inst))
    same(lambda: edge_coloring_schedule(inst), lambda: reference_rows.edge_coloring(inst))
    same(lambda: greedy_schedule(inst)[0], lambda: reference_rows.greedy(inst))

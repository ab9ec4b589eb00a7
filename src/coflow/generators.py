"""Deterministic instance generators for experiments and tests."""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import DimensionError, NegativeDemandError, StructuralError
from .model import Instance, make_instance, uniform_instance

FAMILIES = ("uniform", "random-sparse", "adversarial-single-row")


def generate(family: str, n: int, load, seed: int | None = None) -> Instance:
    """Build an instance of the named family; reproducible per seed.

    uniform: every off-diagonal entry load/n. random-sparse: random small
    rationals, renormalized exactly so the max row/column sum equals the
    requested load. adversarial-single-row: one row carrying the whole
    load, the worst case for the ceil(B) bound.
    """
    if n < 2:  # random-sparse would search forever for a nonzero entry
        raise DimensionError(f"need at least 2 nodes, got n={n}")
    load = Fraction(load)
    if load <= 0:
        raise NegativeDemandError(f"load bound must be positive, got {load}")
    if family == "uniform":
        return uniform_instance(n, load)
    if family == "random-sparse":
        return random_sparse_instance(n, load, seed)
    if family == "adversarial-single-row":
        return single_row_instance(n, load)
    raise StructuralError(f"unknown instance family {family!r}")


def random_sparse_instance(n: int, load, seed: int | None) -> Instance:
    """Sparse random demands, rescaled so the load bound is exactly ``load``.

    Entries are ratios of small random integers (kept exact); roughly half
    the off-diagonal entries are zero.
    """
    load = Fraction(load)
    rng = random.Random(seed)
    while True:
        demands = [[Fraction(0)] * n for _ in range(n)]
        nonzero = False
        for i in range(n):
            for j in range(n):
                if i != j and rng.random() < 0.5:
                    demands[i][j] = Fraction(rng.randint(1, 12), rng.randint(1, 12))
                    nonzero = True
        if nonzero:
            break
    raw = make_instance(n, demands)
    scale = load / raw.load_bound
    return make_instance(n, [[x * scale for x in row] for row in demands])


def single_row_instance(n: int, load) -> Instance:
    entry = Fraction(load) / (n - 1)
    return make_instance(n, [[0] + [entry] * (n - 1)] + [[0] * n] * (n - 1))

"""Deterministic instance generators for experiments and tests."""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm

from .errors import NegativeDemandError, StructuralError
from .model import (
    Instance, _check_nodes, _column_instance, int_column, lowest_terms, make_instance,
    square_sums, uniform_instance,
)

FAMILIES = ("uniform", "random-sparse", "adversarial-single-row")


def generate(family: str, n: int, load, seed: int = 0) -> Instance:
    """Build an instance of the named family; reproducible per seed.

    uniform: every off-diagonal entry load/n. random-sparse: random small
    rationals, renormalized exactly so the max row/column sum equals the
    requested load. adversarial-single-row: one row carrying the whole
    load, the worst case for the ceil(B) bound.
    """
    _check_nodes(n)  # random-sparse would search forever for a nonzero entry at n < 2
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


def random_sparse_instance(n: int, load, seed: int = 0) -> Instance:
    """Sparse random demands, rescaled so the load bound is exactly ``load``.

    Entries are ratios of random integers in 1..12 (kept exact); roughly
    half the off-diagonal entries are zero. The numerators are drawn over
    L = lcm(1..12) into one integer column, then rescaled with one integer
    multiply over the lowest common scale.
    """
    load, big = Fraction(load), lcm(*range(1, 13))
    rng = random.Random(seed)
    bits = rng.getrandbits

    def draw() -> int:
        """``rng.randint(1, 12)``: the same rejection loop, without its calls."""
        while (r := bits(4)) >= 12:
            pass
        return r + 1

    nums = [0] * (n * n)
    while not any(nums):
        for c in range(n * n):
            if c % (n + 1) and rng.random() < 0.5:  # off the diagonal
                nums[c] = draw() * big // draw()
    # The load bound is top / L, so entry x / L becomes x * load / top.
    top = int(max(sums.max() for sums in square_sums(int_column(nums), n)))
    nums, scale = lowest_terms([x * load.numerator for x in nums], top * load.denominator)
    return _column_instance(n, int_column(nums), scale)


def single_row_instance(n: int, load) -> Instance:
    entry = Fraction(load) / (n - 1)
    return make_instance(n, [[0] + [entry] * (n - 1)] + [[0] * n] * (n - 1))

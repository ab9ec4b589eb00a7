"""Instance generator families."""

import random
from fractions import Fraction as F
from math import lcm

import pytest

from coflow.cli import main
from coflow.errors import DimensionError, NegativeDemandError, StructuralError
from coflow.generators import (
    FAMILIES,
    generate,
    random_sparse_instance,
    single_row_instance,
)
from coflow.model import (
    _column_instance, int_column, lowest_terms, make_instance, square_sums,
)


def fraction_random_sparse(n, load, seed):
    """The reference for ``random_sparse_instance``: the n x n ``Fraction``
    matrix drawn in the same order, rescaled entry by entry."""
    load = F(load)
    rng = random.Random(seed)
    while True:
        demands = [[F(0)] * n for _ in range(n)]
        nonzero = False
        for i in range(n):
            for j in range(n):
                if i != j and rng.random() < 0.5:
                    demands[i][j] = F(rng.randint(1, 12), rng.randint(1, 12))
                    nonzero = True
        if nonzero:
            break
    raw = make_instance(n, demands)
    scale = load / raw.load_bound
    return make_instance(n, [[x * scale for x in row] for row in demands])


def _same_instance(n, load, seeds):
    for seed in seeds:
        got, want = random_sparse_instance(n, load, seed), fraction_random_sparse(n, load, seed)
        assert got == want  # n, scale, dtype and numerators
        assert got.load_bound == want.load_bound == load


@pytest.mark.parametrize("n", [2, 17, 64])
@pytest.mark.parametrize("load", [F(1, 2), F(7, 3), F(40)])
def test_random_sparse_equals_fraction_reference(n, load):
    _same_instance(n, load, range(21))


# The other sizes and loads the tests draw random-sparse instances at.
@pytest.mark.parametrize("n,load", [
    (3, F(1)), (4, F(5, 2)), (5, F(2)), (6, F(1, 3)), (8, F(3, 2)), (9, F(3)), (10, F(7, 3)),
    (12, F(4)), (16, F(4)), (21, F(5)), (27, F(4)), (32, F(2)), (80, F(5)),
])
def test_random_sparse_equals_fraction_reference_at_test_sizes(n, load):
    _same_instance(n, load, range(3))


def randint_random_sparse(n, load, seed):
    """``random_sparse_instance`` as it was written with ``rng.randint(1, 12)``
    for each draw: the reference for the draws' random stream."""
    load, big = F(load), lcm(*range(1, 13))
    rng = random.Random(seed)
    nums = [0] * (n * n)
    while not any(nums):
        for c in range(n * n):
            if c % (n + 1) and rng.random() < 0.5:  # off the diagonal
                nums[c] = rng.randint(1, 12) * big // rng.randint(1, 12)
    top = int(max(sums.max() for sums in square_sums(int_column(nums), n)))
    nums, scale = lowest_terms([x * load.numerator for x in nums], top * load.denominator)
    return _column_instance(n, int_column(nums), scale)


@pytest.mark.parametrize("n", [2, 3, 5, 16, 27, 32, 64, 1024])
def test_random_sparse_draws_as_randint_does(n):
    cases = ([(load, seed) for load in (F(1, 3), F(2), F(7, 3), F(9)) for seed in range(12)]
             if n < 1024 else [(F(2), 1)])
    for load, seed in cases:
        assert random_sparse_instance(n, load, seed) == randint_random_sparse(n, load, seed)


@pytest.mark.parametrize("n,load", [(3, F(1)), (4, F(5, 2)), (6, F(1, 3))])
def test_random_sparse_load_is_exact(n, load):
    inst = random_sparse_instance(n, load, seed=3)
    assert inst.load_bound == load


def test_random_sparse_reproducible():
    a = random_sparse_instance(5, F(2), seed=11)
    b = random_sparse_instance(5, F(2), seed=11)
    c = random_sparse_instance(5, F(2), seed=12)
    assert a.demands == b.demands
    assert a.demands != c.demands


def test_single_row_concentrates_load():
    inst = single_row_instance(4, F(3))
    assert inst.load_bound == 3
    assert sum(inst.demands[0]) == 3
    assert all(x == 0 for row in inst.demands[1:] for x in row)


def test_uniform_family_entries():
    inst = generate("uniform", 4, F(2))
    assert inst.demands[0][1] == F(1, 2)
    assert inst.demands[0][0] == 0


@pytest.mark.parametrize("family", FAMILIES)
def test_families_dispatch(family):
    inst = generate(family, 3, F(1), seed=0)
    assert inst.n == 3
    assert inst.load_bound > 0


def test_unknown_family_rejected():
    with pytest.raises(StructuralError):
        generate("triangular", 3, F(1))


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", [0, 1])
def test_fewer_than_two_nodes_rejected(family, n):
    # random-sparse used to loop forever here, and uniform (n=0) and
    # adversarial-single-row (n=1) divided by zero.
    with pytest.raises(DimensionError):
        generate(family, n, F(2), seed=1)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("load", ["0", "-1"])
def test_non_positive_load_rejected(family, load, capsys):
    with pytest.raises(NegativeDemandError, match="load bound must be positive"):
        generate(family, 4, F(load), seed=1)
    code = main(["generate", "--family", family, "--n", "4", "--B", load])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: load bound must be positive")

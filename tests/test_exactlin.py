"""Exact integer linear algebra, checked against Fraction recomputations."""

import random
from operator import mul

import pytest

from semiglue import (
    IntegerMatrix,
    SemigroupGens,
    ZeroVector,
    kernel_lattice_basis,
    primitive,
    rank,
)
from semiglue.exactlin import independent_suffix
from support import (
    fraction_independent_suffix,
    fraction_rank,
    integer_combination,
)

QUARTIC = IntegerMatrix.from_rows([(4, 3, 2, 1), (0, 1, 2, 3), (0, 0, 0, 0)])
CUBIC = IntegerMatrix.from_rows([(3, 2, 1, 0), (0, 1, 2, 3)])


def test_constructors_agree():
    m = IntegerMatrix.from_rows([(1, 2, 3), (4, 5, 6)])
    assert m.rows == 2 and m.cols == 3
    assert m.column(1) == (2, 5)
    assert m.columns() == ((1, 4), (2, 5), (3, 6))
    assert IntegerMatrix.from_columns(m.columns()) == m
    assert m.transpose().transpose() == m


def test_matvec_stack_scale_restrict():
    m = IntegerMatrix.from_rows([(1, 2), (3, 4)])
    assert m.matvec((1, 1)) == (3, 7)
    assert m.matvec((0, 0)) == (0, 0)
    wide = m.hstack(m.scaled(2))
    assert wide.columns() == ((1, 3), (2, 4), (2, 6), (4, 8))


def test_rank_fixed_values():
    assert rank(QUARTIC) == 2
    assert rank(CUBIC) == 2
    assert rank(IntegerMatrix.from_rows([(0, 0), (0, 0)])) == 0
    assert rank(IntegerMatrix.from_rows([(1, 0), (0, 1)])) == 2
    assert rank(IntegerMatrix.from_rows([(1, 2, 3), (2, 4, 6)])) == 1


def test_rank_matches_fraction_elimination():
    rng = random.Random(20240901)
    for _ in range(80):
        nrows = rng.randrange(1, 5)
        ncols = rng.randrange(1, 6)
        rows = [tuple(rng.randrange(-6, 7) for _ in range(ncols))
                for _ in range(nrows)]
        m = IntegerMatrix.from_rows(rows)
        assert rank(m) == fraction_rank(rows)
        assert rank(m.transpose()) == rank(m)


def test_kernel_vectors_annihilate_and_are_primitive():
    for m in (QUARTIC, CUBIC):
        basis = kernel_lattice_basis(m)
        assert len(basis) == m.cols - rank(m)
        for v in basis:
            assert m.matvec(v) == (0,) * m.rows
            assert v == primitive(v)


def test_kernel_contains_the_curve_relations():
    basis = kernel_lattice_basis(CUBIC)
    for v in ((1, -2, 1, 0), (0, 1, -2, 1), (1, -1, -1, 1)):
        assert CUBIC.matvec(v) == (0, 0)
        assert integer_combination(basis, v) is not None


def test_kernel_of_injective_matrix_is_empty():
    eye = IntegerMatrix.from_rows([(1, 0), (0, 1)])
    assert kernel_lattice_basis(eye) == ()


def test_kernel_lattice_is_saturated():
    rng = random.Random(77)
    for _ in range(30):
        rows = [tuple(rng.randrange(0, 5) for _ in range(4))
                for _ in range(2)]
        m = IntegerMatrix.from_rows(rows)
        basis = kernel_lattice_basis(m)
        span = range(-3, 4)
        for v in ((a, b, c, d) for a in span for b in span
                  for c in span for d in span):
            if any(v) and m.matvec(v) == (0, 0):
                assert integer_combination(basis, v) is not None


def test_primitive_normalizes():
    assert primitive((-6, -6, 0)) == (1, 1, 0)
    assert primitive((5, 0, 0)) == (1, 0, 0)
    assert primitive((0, -4, -6)) == (0, 2, 3)
    assert primitive((7,)) == (1,)
    assert primitive((2, -3)) == (2, -3)
    with pytest.raises(ZeroVector):
        primitive((0, 0, 0))


@pytest.mark.optimized
def test_matvec_length_is_checked():
    with pytest.raises(ValueError, match="the vector needs 4 entries, got 3"):
        CUBIC.matvec((1, 1, 5))
    gens = SemigroupGens.from_columns([(1, 2), (2, 1)])
    for exponents in ((3,), (1, 1, 5)):
        with pytest.raises(ValueError, match=f"the vector needs 2 entries, "
                                             f"got {len(exponents)}"):
            gens.adegree(exponents)


def test_independent_suffix_matches_fraction_elimination():
    rng = random.Random(20261021)
    partial = 0
    for _ in range(5000):
        nrows = rng.randrange(1, 5)
        ncols = rng.randrange(1, 7)
        rows = [[rng.randrange(-3, 6) * (rng.random() < 0.7)
                 for _ in range(ncols)] for _ in range(nrows)]
        m = IntegerMatrix.from_rows(rows)
        got = independent_suffix(m)
        assert got == fraction_independent_suffix(m), rows
        partial += 0 < got.start
    assert partial >= 1000, partial
    # zero columns, one column, and rank-deficient products of an n x k
    # and a k x p matrix, k < min(n, p)
    cases = [[[0]], [[0], [0]], [[4], [0]], [[0, 0], [0, 0]], [[1, 0], [2, 0]],
             [[0, 1], [0, 2]], [[1, 2, 3], [2, 4, 6]],
             [[1, 0, 1], [0, 1, 1], [1, 1, 2]]]
    for _ in range(3000):
        n, p = rng.randrange(2, 5), rng.randrange(2, 7)
        k = rng.randrange(1, min(n, p))
        left = [[rng.randrange(-3, 4) for _ in range(k)] for _ in range(n)]
        right = [[rng.randrange(-3, 4) for _ in range(p)] for _ in range(k)]
        cases.append([[sum(map(mul, row, col)) for col in zip(*right)]
                      for row in left])
    zero_column = deficient = 0
    for rows in cases:
        m = IntegerMatrix.from_rows(rows)
        got = independent_suffix(m)
        assert got == fraction_independent_suffix(m), rows
        zero_column += not any(m.column(m.cols - 1))
        deficient += len(got.rows) < min(m.rows, m.cols)
    assert zero_column >= 100 and deficient >= 3000, (zero_column, deficient)
    rng = random.Random(6)
    big = IntegerMatrix.from_rows(
        [[rng.randrange(10 ** 6 + 1) for _ in range(6)] for _ in range(4)])
    got = independent_suffix(big)
    assert got == fraction_independent_suffix(big)
    assert got.start == 2 and got.denominator > 10 ** 6


@pytest.mark.optimized
def test_matrix_shape_is_checked():
    with pytest.raises(ValueError, match="ragged rows"):
        IntegerMatrix.from_rows([[1, 2], [3]])
    for rows, message in (([[1, 2], [3]], "^ragged rows$"),
                          ([], "^matrix needs at least one row$"),
                          ([[]], "^matrix needs at least one column$"),
                          ([[1, 2.5]], "^entries must be ints$")):
        with pytest.raises(ValueError, match=message):
            IntegerMatrix(tuple(map(tuple, rows)))
    m = IntegerMatrix.from_rows([[1, 2]])
    with pytest.raises(ValueError, match="need equal row counts"):
        m.hstack(m.transpose())
    with pytest.raises(ValueError, match="the scale must be nonzero"):
        m.scaled(0)

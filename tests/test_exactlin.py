"""Exact integer linear algebra, checked against Fraction recomputations."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from semiglue import (
    IntegerMatrix,
    ZeroVector,
    kernel_lattice_basis,
    primitive,
    rank,
)
from support import fraction_rank, integer_combination

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
    assert wide.restrict_rows((0,)).entries == ((1, 2, 2, 4),)


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


def test_matvec_length_is_checked_under_optimization(tmp_path):
    with pytest.raises(ValueError, match="the vector needs 4 entries, got 3"):
        CUBIC.matvec((1, 1, 5))
    script = tmp_path / "short_exponents.py"
    script.write_text(
        "from semiglue import SemigroupGens\n"
        "gens = SemigroupGens.from_columns([(1, 2), (2, 1)])\n"
        "for exponents in ((3,), (1, 1, 5)):\n"
        "    try:\n"
        "        print('accepted:', gens.adegree(exponents))\n"
        "    except ValueError as exc:\n"
        "        print('refused:', exc)\n")
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    done = subprocess.run([sys.executable, "-O", str(script)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == (
        "refused: the vector needs 2 entries, got 1\n"
        "refused: the vector needs 2 entries, got 3\n")

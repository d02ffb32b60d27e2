"""Toric ideals of finitely generated subsemigroups of N^n.

The generators of a semigroup are the columns of a nonnegative integer
matrix.  Its toric ideal is the kernel of the induced monomial map: the
saturation, by the product of all variables, of the lattice ideal of
the matrix kernel.  This module computes that ideal with a minimal
generating set graded by the semigroup, and provides an independent
brute-force enumeration of low-degree members for cross-checking.

The Groebner data of each ideal is computed once.  The last saturation
sweep strips the last variable from a Groebner basis under the ideal's
own weighted reverse lexicographic order, which by Bayer and Stillman
leaves a Groebner basis of the saturation, so interreducing it gives the
reduced basis.  The minimal generators then come from one Buchberger run
over the kept generators, completed degree by degree as the scan rises.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .binomial import (
    Binomial,
    BinomialIdeal,
    Monomial,
    MonomialOrder,
    VariableBlock,
    _buchberger,  # noqa: F401  (unused here; perfbench/spans.py wraps it)
    _canonical_key,
    _complete,
    _coprime,
    _gm_update,
    _interreduce,
    _orient,
    _reduce_pair,
    _saturate_raw,
    _wdeg,
)
from .exactlin import IntegerMatrix, kernel_lattice_basis


class BoundTooLarge(RuntimeError):
    """Raised when an enumeration would exceed its work limit."""


@dataclass(frozen=True)
class SemigroupGens:
    """Generators of an affine semigroup: the columns of a matrix.

    Entries are nonnegative, no column is zero, and the columns are
    pairwise distinct.  Each column is named by the matching variable of
    the block.
    """

    matrix: IntegerMatrix
    block: VariableBlock

    def __post_init__(self) -> None:
        m = self.matrix
        if m.cols != self.block.size:
            raise ValueError("one variable per generator, in order")
        if any(x < 0 for row in m.entries for x in row):
            raise ValueError("generators must have nonnegative entries")
        cols = m.columns()
        if any(all(x == 0 for x in c) for c in cols):
            raise ValueError("zero generators are not allowed")
        if len(set(cols)) != len(cols):
            raise ValueError("repeated generators are not allowed")

    @classmethod
    def from_columns(cls, columns, prefix: str = "x") -> "SemigroupGens":
        cols = tuple(tuple(int(x) for x in c) for c in columns)
        return cls(IntegerMatrix.from_columns(cols),
                   VariableBlock.prefixed(prefix, len(cols)))

    @property
    def ambient(self) -> int:
        return self.matrix.rows

    @property
    def count(self) -> int:
        return self.matrix.cols

    def weights(self) -> tuple[int, ...]:
        """Return the column sums; positive, and zero on the matrix kernel."""
        return tuple(sum(c) for c in self.matrix.columns())

    def adegree(self, exponents) -> tuple[int, ...]:
        """Return the semigroup degree of a monomial: matrix times exponents."""
        return self.matrix.matvec(exponents)

    def scaled(self, k: int) -> "SemigroupGens":
        assert k >= 1
        return SemigroupGens(self.matrix.scaled(k), self.block)


@dataclass(frozen=True, eq=False)
class GradedBinomialSet:
    """Binomial generators of a toric ideal together with their degrees."""

    ideal: BinomialIdeal
    adegrees: dict
    weights: tuple[int, ...]

    def __post_init__(self) -> None:
        assert set(self.adegrees) == set(self.ideal.generators)

    @property
    def mu(self) -> int:
        """Return the number of generators."""
        return len(self.ideal.generators)


def minimal_generators(gset: GradedBinomialSet) -> GradedBinomialSet:
    """Return the subset of generators that generate minimally.

    Generators are scanned by increasing degree; one is kept exactly
    when it is not in the ideal of those already kept.  For an ideal
    graded by a positive weighting this yields a minimal generating set.

    One Buchberger run serves the whole scan.  Before a generator of
    weighted degree d is tested, the critical pairs of the kept elements
    are completed up to degree d; the ideal is homogeneous, so the basis
    then decides membership in degree d exactly.  A kept generator joins
    the basis in its reduced form, with its pairs.  The kept set spans
    the same ideal as all the generators, so it shares their reduced
    Groebner basis.
    """
    block = gset.ideal.block
    order = MonomialOrder.degrevlex(gset.weights)
    key = order.key_function()
    gens = sorted(gset.ideal.generators,
                  key=lambda g: (sum(gset.adegrees[g]), gset.adegrees[g],
                                 _canonical_key(g)))
    kept: list[Binomial] = []
    basis: list = []
    pairs: list = []
    for g in gens:
        d = _wdeg(g.plus.exponents, gset.weights)
        _complete(basis, pairs, key, upto=d)
        r = _reduce_pair(g.as_pair(), basis, key)
        if r is None:
            continue
        kept.append(g)
        basis.append(r)
        _gm_update(basis, pairs, len(basis) - 1, key)
    ideal = BinomialIdeal(block, tuple(kept))
    ideal._cache[order] = gset.ideal.groebner(order)
    return GradedBinomialSet(ideal, {g: gset.adegrees[g] for g in kept},
                             gset.weights)


@lru_cache(maxsize=None)
def toric_ideal_of_matrix(matrix: IntegerMatrix,
                          block: VariableBlock) -> GradedBinomialSet:
    """Return the toric ideal of any nonnegative matrix without zero columns.

    Unlike ``toric_ideal`` this does not insist on distinct columns,
    which matters when two scaled semigroups contribute equal
    generators.
    """
    assert matrix.cols == block.size
    assert all(x >= 0 for row in matrix.entries for x in row)
    cols = matrix.columns()
    assert all(any(x != 0 for x in c) for c in cols)
    weights = tuple(sum(c) for c in cols)
    order = MonomialOrder.degrevlex(weights)
    key = order.key_function()

    pairs = []
    for v in kernel_lattice_basis(matrix):
        plus = tuple(x if x > 0 else 0 for x in v)
        minus = tuple(-x if x < 0 else 0 for x in v)
        pairs.append((plus, minus))
    if not pairs:
        return GradedBinomialSet(BinomialIdeal(block, ()), {}, weights)

    # The last sweep already leaves a Groebner basis under this order.
    gb = _interreduce(_saturate_raw(pairs, weights), key)
    gens = []
    for u, v in gb:
        assert _coprime(u, v), "toric Groebner elements have disjoint support"
        assert matrix.matvec(u) == matrix.matvec(v)
        gens.append(Binomial(Monomial(block, u), Monomial(block, v)))
    ideal = BinomialIdeal(block, tuple(gens))
    ideal._cache[order] = tuple(gens)
    adegrees = {g: matrix.matvec(g.plus.exponents) for g in gens}
    return minimal_generators(GradedBinomialSet(ideal, adegrees, weights))


def toric_ideal(gens: SemigroupGens) -> GradedBinomialSet:
    """Return the toric ideal of the semigroup, minimally generated."""
    return toric_ideal_of_matrix(gens.matrix, gens.block)


def _walk(matrix: IntegerMatrix, start, work_limit: int,
          exact: bool) -> tuple:
    """Return exponent vectors m with matrix * m <= start, or == if exact.

    Every node of the depth-first walk counts against work_limit.
    """
    cols = matrix.columns()
    p = len(cols)
    out = []
    spent = 0

    def dfs(j: int, remaining, prefix) -> None:
        nonlocal spent
        spent += 1
        if spent > work_limit:
            kind = "fiber" if exact else "box"
            raise BoundTooLarge(f"{kind} enumeration passed {work_limit} steps")
        if j == p:
            if not exact or all(x == 0 for x in remaining):
                out.append(prefix)
            return
        col = cols[j]
        c = 0
        rem = remaining
        while True:
            dfs(j + 1, rem, prefix + (c,))
            nxt = tuple(a - b for a, b in zip(rem, col))
            if any(x < 0 for x in nxt):
                return
            rem, c = nxt, c + 1

    try:
        dfs(0, start, ())
    finally:
        # dfs reaches itself through its closure; breaking that cycle
        # frees the walk now, not at the next cyclic garbage collection.
        dfs = None
    return tuple(out)


def fiber_monomials(matrix: IntegerMatrix, degree,
                    work_limit: int = 10 ** 6) -> tuple:
    """Return all exponent vectors m with matrix * m == degree."""
    degree = tuple(int(x) for x in degree)
    assert len(degree) == matrix.rows
    if any(x < 0 for x in degree):
        return ()
    return _walk(matrix, degree, work_limit, exact=True)


def _monomials_in_box(matrix: IntegerMatrix, bound,
                      work_limit: int) -> tuple:
    """Return all exponent vectors m with matrix * m <= bound componentwise."""
    return _walk(matrix, tuple(int(x) for x in bound), work_limit,
                 exact=False)


def enumerate_oracle(gens: SemigroupGens, degree_bound,
                     work_limit: int = 10 ** 6) -> tuple[Binomial, ...]:
    """Return every toric ideal binomial with degree inside the bound.

    Brute force and independent of any Groebner computation: list all
    monomials whose degree fits under the componentwise bound, bucket
    them by degree, and pair up each bucket.  Useful as an oracle for
    the algebra in this package, not as a way to compute with it.
    """
    bound = tuple(int(x) for x in degree_bound)
    if len(bound) != gens.ambient:
        raise ValueError(f"the degree bound needs {gens.ambient} entries, "
                         f"got {len(bound)}")
    if any(x < 0 for x in bound):
        raise ValueError("the degree bound must be nonnegative")
    matrix = gens.matrix
    block = gens.block
    key = MonomialOrder.degrevlex(gens.weights()).key_function()
    fibers: dict = {}
    for m in _monomials_in_box(matrix, bound, work_limit):
        fibers.setdefault(matrix.matvec(m), []).append(m)
    out = []
    for ms in fibers.values():
        for i in range(len(ms)):
            for j in range(i + 1, len(ms)):
                u, v = _orient((ms[i], ms[j]), key)
                out.append(Binomial(Monomial(block, u), Monomial(block, v)))
    out.sort(key=_canonical_key)
    return tuple(out)

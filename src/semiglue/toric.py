"""Toric ideals of finitely generated subsemigroups of N^n.

The generators of a semigroup are the columns of a nonnegative integer
matrix.  Its toric ideal is the kernel of the induced monomial map: the
saturation, by the product of all variables, of the lattice ideal of
the matrix kernel.  This module computes that ideal with a minimal
generating set graded by the semigroup, and provides an independent
brute-force enumeration of low-degree members for cross-checking.

The Groebner data of each ideal is computed once.  Saturation sweeps
only the variables that the sign pattern of the kernel basis requires
(``_sweep_variables``): a set of coordinates on which every basis vector
keeps one sign needs no sweep.  The last variable is always swept, and
last: that sweep strips it from a Groebner basis under the ideal's own
weighted reverse lexicographic order, which by Bayer and Stillman
leaves a Groebner basis of the saturation, so interreducing it gives the
reduced basis.  The minimal generators then come from one Buchberger run
over the kept generators, completed degree by degree as the scan rises.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from operator import floordiv, sub

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
    _reduce_pair,
    _saturate_raw,
    _widening,
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
    the same ideal as all the generators, so it keeps the Groebner bases
    that their ideal holds.
    """
    gens = sorted(gset.ideal.generators,
                  key=lambda g: (sum(gset.adegrees[g]), gset.adegrees[g],
                                 _canonical_key(g)))
    pairs_of = [g.as_pair() for g in gens]

    def scan(pk):
        kept: list[Binomial] = []
        basis: list = []
        pairs: list = []
        for g, (u, v) in zip(gens, pairs_of):
            u, v = pk.pack(u), pk.pack(v)
            if not _complete(pk, basis, pairs, upto=u >> pk.top):
                return None
            r = _reduce_pair(pk, basis, u, v)
            if r is None:
                continue
            kept.append(g)
            basis.append(r)
            if not _gm_update(pk, basis, pairs, len(basis) - 1):
                return None
        return kept

    order = MonomialOrder.degrevlex(gset.weights)
    _, kept = _widening(order, pairs_of, scan)
    ideal = gset.ideal.spanned_by(kept)
    return GradedBinomialSet(ideal, {g: gset.adegrees[g] for g in kept},
                             gset.weights)


def _sweep_variables(basis, p: int) -> list[int]:
    """Return the variables whose saturation sweeps the lattice basis needs.

    Let L be the lattice spanned by ``basis`` and I_B the ideal of its
    binomials.  If every basis vector is >= 0 or <= 0 on a coordinate set
    S, then I_L = I_B : (prod of x_j for j not in S)^infinity.  Proof:
    flip each b in the basis so that it is >= 0 on S, and write
    l = sum of c_k b_k.  Walk from l- to l+ one basis step at a time,
    first adding the b_k with c_k > 0, then subtracting the b_k with
    c_k < 0.  On S the walk stays >= l- during the first phase and >= l+
    during the second, so it never goes negative there; a large enough
    monomial in the other variables keeps it nonnegative everywhere.
    Each step from a to a + b is then a multiple of x^(b+) - x^(b-), so
    that monomial times x^(l+) - x^(l-) lies in I_B.  I_L is saturated
    and contains I_B, so it equals that saturation.

    S is chosen greedily among 0..p-2, where i and j conflict when some
    basis vector has v_i * v_j < 0: repeatedly take the candidate with
    the fewest conflicts among the remaining candidates (ties to the
    smallest index) and drop its conflicts.  Returned are the other
    variables in ascending order and then p - 1, which is always swept
    last: its sweep runs under the ideal's own order, in which p - 1 is
    cheapest, so its output interreduces to the reduced Groebner basis.
    """
    conflicts: list[set] = [set() for _ in range(p - 1)]
    for v in basis:
        for i, j in combinations(range(p - 1), 2):
            if v[i] * v[j] < 0:
                conflicts[i].add(j)
                conflicts[j].add(i)
    candidates = set(range(p - 1))
    keep = set()
    while candidates:
        i = min(candidates,
                key=lambda c: (len(conflicts[c] & candidates), c))
        keep.add(i)
        candidates -= conflicts[i] | {i}
    return [j for j in range(p - 1) if j not in keep] + [p - 1]


@lru_cache(maxsize=None)
def toric_ideal_of_matrix(matrix: IntegerMatrix,
                          block: VariableBlock) -> GradedBinomialSet:
    """Return the toric ideal of any nonnegative matrix without zero columns.

    Unlike ``toric_ideal`` this does not insist on distinct columns,
    which matters when two scaled semigroups contribute equal
    generators.
    """
    # Explicit so that -O keeps them: a zero column makes the
    # saturation run forever, a negative entry gives a wrong ideal.
    if matrix.cols != block.size:
        raise ValueError("one variable per column, in order")
    if any(x < 0 for row in matrix.entries for x in row):
        raise ValueError("the matrix must have nonnegative entries")
    cols = matrix.columns()
    if not all(any(c) for c in cols):
        raise ValueError("zero columns are not allowed")
    weights = tuple(sum(c) for c in cols)
    order = MonomialOrder.degrevlex(weights)
    key = order.key_function()

    basis = kernel_lattice_basis(matrix)
    pairs = []
    for v in basis:
        plus = tuple(x if x > 0 else 0 for x in v)
        minus = tuple(-x if x < 0 else 0 for x in v)
        pairs.append((plus, minus))
    if not pairs:
        return GradedBinomialSet(BinomialIdeal(block, ()), {}, weights)

    # The last sweep already leaves a Groebner basis under this order.
    sweeps = _sweep_variables(basis, matrix.cols)
    gb = _interreduce(_saturate_raw(pairs, weights, sweeps), key)
    for u, v in gb:
        # Self-checks of the saturation; explicit so that -O keeps them.
        if not _coprime(u, v):
            raise AssertionError(
                f"toric Groebner element {u} - {v} has overlapping support")
        if matrix.matvec(u) != matrix.matvec(v):
            raise AssertionError(
                f"toric Groebner element {u} - {v} is not homogeneous")
    ideal = BinomialIdeal.from_basis(block, order, gb)
    adegrees = {g: matrix.matvec(g.plus.exponents) for g in ideal.generators}
    return minimal_generators(GradedBinomialSet(ideal, adegrees, weights))


def toric_ideal(gens: SemigroupGens) -> GradedBinomialSet:
    """Return the toric ideal of the semigroup, minimally generated."""
    return toric_ideal_of_matrix(gens.matrix, gens.block)


def _walk(matrix: IntegerMatrix, start, work_limit: int,
          exact: bool) -> tuple:
    """Return (start - matrix * m, m) for m with matrix * m <= start, or ==.

    ``start`` is nonnegative.  The exponent vectors m come in
    lexicographic order: the leaves of a walk that takes column 0 some
    c = 0, 1, ... times, then column 1, and so on, down to the last
    column.  Every node of that walk, root and leaves included, counts
    against work_limit, and the walk raises ``BoundTooLarge`` exactly
    when their number passes it.

    The walk runs depth first on an explicit stack, so it holds only the
    pending siblings of its path and the output.  A node above the last
    column with remainder r has ``top + 1`` children, where top is the
    largest c with r - c * col >= 0; at the last column they are counted
    at once.  Box mode keeps those nodes and builds their leaves only
    once the walk is known to fit; exact mode keeps the one leaf whose
    remainder is zero, c = top, if r == top * col.
    """
    cols = matrix.columns()
    p = len(cols)
    if not all(max(col) > 0 for col in cols):
        # Such a column fits any number of times: the walk never ends.
        raise _too_large(exact, work_limit)
    # Only the rows where a column is positive bound how often it fits.
    fits = []
    for col in cols:
        rows = tuple(i for i, b in enumerate(col) if b > 0)
        fits.append((rows, tuple(col[i] for i in rows)))
    last = cols[-1]
    zero = (0,) * len(start)
    out = []
    tails = []
    spent = 1
    stack = [(start, ())]
    while stack:
        rem, prefix = stack.pop()
        j = len(prefix)
        rows, vals = fits[j]
        top = min(map(floordiv, map(rem.__getitem__, rows), vals))
        spent += top + 1
        if spent > work_limit:
            raise _too_large(exact, work_limit)
        if j == p - 1:
            if not exact:
                tails.append((rem, prefix, top))
            elif all(x == top * b for x, b in zip(rem, last)):
                out.append((zero, prefix + (top,)))
            continue
        children = _steps(rem, prefix, cols[j], top)
        children.reverse()
        stack += children
    for rem, prefix, top in tails:
        out += _steps(rem, prefix, last, top)
    return tuple(out)


def _steps(rem, prefix, col, top: int) -> list:
    """Return [(rem - c * col, prefix + (c,)) for c = 0, ..., top]."""
    out = [(rem, prefix + (0,))]
    for c in range(1, top + 1):
        rem = tuple(map(sub, rem, col))
        out.append((rem, prefix + (c,)))
    return out


def _too_large(exact: bool, work_limit: int) -> BoundTooLarge:
    kind = "fiber" if exact else "box"
    return BoundTooLarge(f"{kind} enumeration passed {work_limit} steps")


def fiber_monomials(matrix: IntegerMatrix, degree,
                    work_limit: int = 10 ** 6) -> tuple:
    """Return all exponent vectors m with matrix * m == degree.

    They come in lexicographic order, and the walk that finds them
    counts against work_limit as ``_walk`` describes.
    """
    degree = tuple(int(x) for x in degree)
    # Explicit so that -O keeps it: a wrong-length degree gives a wrong fiber.
    if len(degree) != matrix.rows:
        raise ValueError(f"the degree needs {matrix.rows} entries, "
                         f"got {len(degree)}")
    if any(x < 0 for x in degree):
        return ()
    return tuple(m for _, m in _walk(matrix, degree, work_limit, exact=True))


def _monomials_in_box(matrix: IntegerMatrix, bound,
                      work_limit: int) -> tuple:
    """Return (bound - matrix * m, m) for each m with matrix * m <= bound.

    The bound is nonnegative; the pairs come as ``_walk`` returns them.
    """
    return _walk(matrix, tuple(int(x) for x in bound), work_limit,
                 exact=False)


def enumerate_oracle(gens: SemigroupGens, degree_bound,
                     work_limit: int = 10 ** 6) -> tuple[Binomial, ...]:
    """Return every toric ideal binomial with degree inside the bound.

    Brute force and independent of any Groebner computation: list all
    monomials whose degree fits under the componentwise bound, bucket
    them by degree, and pair up each bucket.  A monomial's degree is the
    bound minus the remainder that the box walk returns with it, so the
    buckets are keyed by remainder.  Each bucket is sorted once by the
    term order, so each pair is oriented with its larger monomial first;
    the binomials come sorted by ``_canonical_key``.  Useful as an
    oracle for the algebra in this package, not as a way to compute
    with it.
    """
    bound = tuple(int(x) for x in degree_bound)
    if len(bound) != gens.ambient:
        raise ValueError(f"the degree bound needs {gens.ambient} entries, "
                         f"got {len(bound)}")
    if any(x < 0 for x in bound):
        raise ValueError("the degree bound must be nonnegative")
    block = gens.block
    key = MonomialOrder.degrevlex(gens.weights()).key_function()
    fibers: dict = {}
    for rem, m in _monomials_in_box(gens.matrix, bound, work_limit):
        fibers.setdefault(rem, []).append(m)
    out = []
    for ms in fibers.values():
        if len(ms) < 2:
            continue
        ms.sort(key=key)
        mons = [Monomial(block, m) for m in ms]
        out.extend(Binomial(u, v) for j, u in enumerate(mons)
                   for v in mons[:j])
    out.sort(key=_canonical_key)
    return tuple(out)

"""Toric ideals of finitely generated subsemigroups of N^n.

The generators of a semigroup are the columns of a nonnegative integer
matrix.  Its toric ideal is the kernel of the induced monomial map: the
saturation, by the product of all variables, of the lattice ideal of
the matrix kernel.  This module computes that ideal with a minimal
generating set graded by the semigroup, and an independent brute-force
enumeration, over packed ints, of low-degree members for cross-checking.

The Groebner data of each ideal is computed once.  Saturation sweeps
only the variables that the sign pattern of the kernel basis requires
(``_sweep_variables``): a set of coordinates on which every basis vector
keeps one sign needs no sweep.  The last variable is always swept, and
last: that sweep strips it from a Groebner basis under the ideal's own
weighted reverse lexicographic order, which by Bayer and Stillman
leaves a Groebner basis of the saturation, so interreducing it gives the
reduced basis.  The minimal generators then come from one run of
``binomial``'s Groebner driver, completed degree by degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, repeat
from math import factorial
from operator import and_, floordiv, lshift, mul, rshift, sub

from .binomial import (
    Binomial,
    BinomialIdeal,
    MonomialOrder,
    VariableBlock,
    _binomial_batch,
    _buchberger,  # noqa: F401  (unused here; perfbench/spans.py wraps it)
    _coprime,
    _interreduce,
    _minimal_subset,
    _saturate_raw,
)
from .exactlin import IntegerMatrix, kernel_lattice_basis
from .value import Value


class BoundTooLarge(RuntimeError):
    """Raised when an enumeration would exceed its work limit."""


class SemigroupGens(Value):
    """Generators of an affine semigroup: the columns of a matrix.

    Entries are nonnegative, no column is zero, and the columns are
    pairwise distinct.  Each column is named by the matching variable of
    the block.
    """

    __slots__ = _fields = ("matrix", "block")

    def __init__(self, matrix: IntegerMatrix, block: VariableBlock) -> None:
        m = matrix
        if m.cols != block.size:
            raise ValueError("one variable per generator, in order")
        if any(x < 0 for row in m.entries for x in row):
            raise ValueError("generators must have nonnegative entries")
        cols = m.columns()
        if any(all(x == 0 for x in c) for c in cols):
            raise ValueError("zero generators are not allowed")
        if len(set(cols)) != len(cols):
            raise ValueError("repeated generators are not allowed")
        self._store(matrix, block)

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
        if k < 1:
            raise ValueError("the scaling must be positive")
        return SemigroupGens(self.matrix.scaled(k), self.block)


@dataclass(frozen=True, eq=False)
class GradedBinomialSet:
    """Binomial generators of a toric ideal together with their degrees."""

    ideal: BinomialIdeal
    adegrees: dict
    weights: tuple[int, ...]

    def __post_init__(self) -> None:
        if set(self.adegrees) != set(self.ideal.generators):
            raise ValueError("one degree per generator of the ideal")

    @property
    def mu(self) -> int:
        """Return the number of generators."""
        return len(self.ideal.generators)


def minimal_generators(gset: GradedBinomialSet) -> GradedBinomialSet:
    """Return the subset of generators that generate minimally.

    Generators are scanned by increasing degree; one is kept exactly
    when it is not in the ideal of those already kept.  For an ideal
    graded by a positive weighting this yields a minimal generating set.

    One run of ``binomial``'s Groebner driver is the whole scan
    (``_minimal_subset``).  The kept set spans the same ideal as all the
    generators, so it keeps the Groebner bases that their ideal holds.
    """
    # The generators come sorted by _canonical_key, so a stable sort on
    # the degrees breaks their ties as that key would; each is read once.
    gens = gset.ideal.generators
    ranked = sorted([(sum(d), d, n) for n, d in
                     enumerate(map(gset.adegrees.__getitem__, gens))])
    order = MonomialOrder.degrevlex(gset.weights)
    kept = [ranked[i] for i in _minimal_subset(
        [gens[n].as_pair() for _, _, n in ranked], order)]
    ideal = gset.ideal.spanned_by([gens[n] for _, _, n in kept])
    return GradedBinomialSet(ideal, {gens[n]: d for _, d, n in kept},
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


# Bounded, so that a long run does not keep every glued ideal it ever
# computed; a seeded sweep of a few hundred matrices still fits.
@lru_cache(maxsize=512)
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
    gb = _interreduce(_saturate_raw(pairs, weights, sweeps), order)
    degrees = {}
    for pair in gb:
        u, v = pair
        # Self-checks of the saturation; explicit so that -O keeps them.
        if not _coprime(u, v):
            raise AssertionError(
                f"toric Groebner element {u} - {v} has overlapping support")
        degrees[pair] = degree = matrix.matvec(u)
        if degree != matrix.matvec(v):
            raise AssertionError(
                f"toric Groebner element {u} - {v} is not homogeneous")
    ideal = BinomialIdeal.from_basis(block, order, gb)
    adegrees = {g: degrees[g.as_pair()] for g in ideal.generators}
    return minimal_generators(GradedBinomialSet(ideal, adegrees, weights))


def toric_ideal(gens: SemigroupGens) -> GradedBinomialSet:
    """Return the toric ideal of the semigroup, minimally generated."""
    return toric_ideal_of_matrix(gens.matrix, gens.block)


def _width(start) -> int:
    """Return a walk's field width: the bit length of max(start), or 1."""
    return max(start).bit_length() or 1


def _unpack(xs, width: int, n: int):
    """Return an iterator over the n fields of each x in xs, as tuples."""
    field = repeat((1 << width) - 1)
    return zip(*[map(and_, map(rshift, xs, repeat(s)), field)
                 for s in range(0, n * width, width)])


def _fits_in(fit, field: int):
    """Return r -> how often a column fits in the packed remainder r."""
    if len(fit) == 1:
        (s, b), = fit
        return lambda r: (r >> s & field) // b
    return lambda r: min([(r >> s & field) // b for s, b in fit])


def _walk(matrix: IntegerMatrix, start, work_limit: int,
          exact: bool) -> list:
    """Walk the m >= 0 with matrix * m <= start, or == start when exact.

    ``start`` is nonnegative.  Each vector is one int, one field of
    ``_width(start)`` bits per entry, entry 0 least significant.  Only
    c <= top times a column is subtracted, so no field goes negative and
    none needs a guard bit; a column with an entry wider than a field
    has top = 0, so its packed form, whose fields carry, is never used.

    The walk is depth first: it takes column 0 some c = 0, 1, ... times,
    then column 1, and so on; its stack holds the pending siblings of
    the path.  A node with remainder r has top + 1 children, top the
    largest c with r - c * col >= 0.  Every node counts against
    work_limit, and ``BoundTooLarge`` is raised exactly when their
    number passes it.

    The leaves come in runs, one per node (r, m) that has taken every
    column but the last, L: its leaves are (r - c * L, m + c * unit)
    for c = 0..top, unit the last field of m.  A run is returned as
    (base, top, m) with base = r - top * L, its lowest remainder, so
    its leaf at level j = top - c has remainder base + j * L.  Box mode
    returns every run, in the walk's (lexicographic) order.  A leaf has
    remainder 0 exactly when it is the level-0 leaf of a run with base
    0, so exact mode returns, in lexicographic order, the packed m +
    top * unit of each such run.  The last column's tops of the top + 1
    children of a node are counted per field, over the arithmetic
    progression of that field, without a call per child.

    Before walking, a volume bound may raise at once.  Let r_j be the
    least start_i / a_ij over a_ij > 0, and leave out the columns with
    r_j = 0.  Over the other n columns, the rest of m zero, the simplex
    sum m_j / r_j <= 1 lies in S = {m >= 0 : matrix * m <= start}.  S
    is down-closed, so the unit cubes at its lattice points cover it,
    and it has at least vol S >= prod r_j / n! of them.  Each is a leaf
    the walk counts, in box and exact mode alike, so when that bound
    passes work_limit the walk would raise anyway.
    """
    cols = matrix.columns()
    if not all(max(col) > 0 for col in cols):
        # Such a column fits any number of times: the walk never ends.
        raise _too_large(exact, work_limit)
    # prod r_j = volume / scale, each r_j = b / a compared crosswise
    volume = scale = 1
    usable = 0
    for col in cols:
        b, a = None, 1
        for x, y in zip(start, col):
            if y > 0 and (b is None or x * a < b * y):
                b, a = x, y
        if b:
            volume *= b
            scale *= a
            usable += 1
    if volume > work_limit * factorial(usable) * scale:
        raise _too_large(exact, work_limit)
    width = _width(start)
    field = (1 << width) - 1
    shifts = range(0, len(start) * width, width)
    # Per column: how often it fits in r, the packed column, its unit in m.
    fits = [(_fits_in([(s, b) for s, b in zip(shifts, col) if b], field),
             sum(map(lshift, col, shifts)), 1 << j * width)
            for j, col in enumerate(cols)]
    last = len(cols) - 1
    # The runs' parents have taken column up last; with one column the
    # root is the one parent, n = 1, and no step of it is taken.
    up = max(last - 1, 0)
    # Per field of the last column: its shift, the step of the parents'
    # progression there, and the entry, repeated for map.
    lastfit = [(s, d, repeat(b))
               for s, d, b in zip(shifts, cols[up], cols[last]) if b]
    many = len(lastfit) > 1
    _, upcol, upunit = fits[up]
    lastcol, lastunit = fits[last][1:]
    lastcols = repeat(lastcol)
    out, parents, spent = [], [], 1

    def runs(rem, m, n, tops):
        """Return the runs (base, top, m) of rem - c * upcol, c < n."""
        return zip(map(sub, range(rem, rem - n * upcol, -upcol),
                       map(mul, tops, lastcols)),
                   tops, range(m, m + n * upunit, upunit))

    def enter(rem, m, n):
        """Count the runs of rem - c * upcol, m + c * upunit, for c < n."""
        nonlocal spent
        tops = [map(floordiv,
                    range(f, f - n * d, -d) if d else repeat(f, n), bs)
                for s, d, bs in lastfit for f in (rem >> s & field,)]
        tops = list(map(min, *tops) if many else tops[0])
        spent += n + sum(tops)
        if spent > work_limit:
            raise _too_large(exact, work_limit)
        if exact:
            out.extend([x + t * lastunit
                        for base, t, x in runs(rem, m, n, tops) if not base])
        else:
            # built once the walk is known to fit
            parents.append((rem, m, n, tops))

    root = sum(map(lshift, start, shifts))
    stack = [(root, 0, 0)] if last else []
    if not last:
        enter(root, 0, 1)
    while stack:
        rem, m, j = stack.pop()
        fit, col, unit = fits[j]
        top = fit(rem)
        spent += top + 1
        if spent > work_limit:
            raise _too_large(exact, work_limit)
        if j + 1 < last:
            # deepest sibling on top: c = 0 is popped first
            stack += zip(reversed(range(rem, rem - (top + 1) * col, -col)),
                         reversed(range(m, m + (top + 1) * unit, unit)),
                         repeat(j + 1))
        else:
            enter(rem, m, top + 1)
    for parent in parents:
        out += runs(*parent)
    return out


def _too_large(exact: bool, work_limit: int) -> BoundTooLarge:
    kind = "fiber" if exact else "box"
    return BoundTooLarge(f"{kind} enumeration passed {work_limit} steps")


def fiber_monomials(matrix: IntegerMatrix, degree,
                    work_limit: int = 10 ** 6) -> tuple:
    """Return all exponent vectors m with matrix * m == degree.

    They come in lexicographic order: one per run of ``_walk`` whose
    base is 0, its level-0 leaf.  The walk counts against work_limit as
    ``_walk`` describes.
    """
    degree = tuple(int(x) for x in degree)
    # Explicit so that -O keeps it: a wrong-length degree gives a wrong fiber.
    if len(degree) != matrix.rows:
        raise ValueError(f"the degree needs {matrix.rows} entries, "
                         f"got {len(degree)}")
    if any(x < 0 for x in degree):
        return ()
    ms = _walk(matrix, degree, work_limit, exact=True)
    return tuple(_unpack(ms, _width(degree), matrix.cols))


def _monomials_in_box(matrix: IntegerMatrix, bound,
                      work_limit: int) -> list:
    """Return the box walk's runs: (base, top, m) as ``_walk`` packs them.

    The bound is nonnegative.  The leaves of the runs are the m >= 0
    with matrix * m <= bound, each once: run (base, top, m) holds
    m + c * unit with remainder bound - matrix * (m + c * unit) = base
    + (top - c) * L for c = 0..top, L the last column and unit the last
    field of m.
    """
    return _walk(matrix, tuple(int(x) for x in bound), work_limit,
                 exact=False)


def enumerate_oracle(gens: SemigroupGens, degree_bound,
                     work_limit: int = 10 ** 6) -> tuple[Binomial, ...]:
    """Return every toric ideal binomial with degree inside the bound.

    Brute force and independent of any Groebner computation: list all
    monomials whose degree fits under the componentwise bound, bucket
    them by degree, and pair up each bucket.  A monomial's degree is the
    bound minus its remainder in the box walk, so the buckets are the
    leaves that share a remainder.  They are read off the walk's runs
    (see ``_monomials_in_box``) without listing a leaf of a run whose
    base no other run has.

    Two leaves share a remainder exactly when their runs share a base
    and the leaves their level.  Proof: for a leaf with remainder R in a
    run (base, top, m) at level j, base = R - j * L, and j is the
    largest k with R - k * L >= 0, since R - k * L = base - (k - j) * L
    and base - L is not >= 0 (else top would be larger).  So base and j
    are functions of R: base is the lowest point of R's line along L in
    the orthant, j its distance.  Conversely R = base + j * L.  Hence
    the fiber at level j of a base is m + (top - j) * unit over that
    base's runs with top >= j, and it has two members or more exactly
    when j is at most the second-largest top.

    The weights are the column sums, so the term order ranks a fiber by
    its ties alone, where the last variable, packed most significant,
    leads: ascending ints are descending monomials, and each binomial
    has the smaller int as its plus side.  The binomials come sorted by
    ``_canonical_key``.  Useful as an oracle for the algebra in this
    package, not as a way to compute with it.
    """
    bound = tuple(int(x) for x in degree_bound)
    if len(bound) != gens.ambient:
        raise ValueError(f"the degree bound needs {gens.ambient} entries, "
                         f"got {len(bound)}")
    if any(x < 0 for x in bound):
        raise ValueError("the degree bound must be nonnegative")
    runs = _monomials_in_box(gens.matrix, bound, work_limit)
    # Keep each base's first run aside; list a base at its second.
    first: dict = {}
    shared: dict = {}
    for run in [r for r in runs if first.setdefault(r[0], r) is not r]:
        shared.setdefault(run[0], [first[run[0]]]).append(run)
    if not shared:
        return ()
    width = _width(bound)
    unit = 1 << (gens.count - 1) * width
    members: list = []
    pairs: list = []
    for group in shared.values():
        for j in range(sorted([t for _, t, _ in group])[-2] + 1):
            fiber = sorted([m + (t - j) * unit for _, t, m in group if t >= j])
            pairs += combinations(range(len(members),
                                        len(members) + len(fiber)), 2)
            members += fiber
    exps = list(_unpack(members, width, gens.count))
    sums = list(map(sum, exps))
    # _canonical_key's order, then the two monomials' places in exps
    keys = [(sums[a], exps[a], sums[b], exps[b], a, b) for a, b in pairs]
    keys.sort()
    pairs = [(a, b) for _, _, _, _, a, b in keys]
    del keys  # before the binomials are built, which sets the peak memory
    return _binomial_batch(gens.block, exps, pairs)

"""Shared fixtures and independent oracles for the tests.

The fixture pairs are small affine semigroups in N^3 with known gluing
behaviour; each constructor documents the facts the tests rely on.  The
oracles recompute ranks, solvability and membership from first
principles over Fraction or by brute force, so agreement with the
package is evidence rather than circularity.
"""

from fractions import Fraction
from itertools import product

from semiglue import SemigroupGens


# -- fixture pairs ----------------------------------------------------------

def twisted_pair():
    """Return a gluable pair: a plane quartic curve and a space cubic.

    The first semigroup lies in the plane z = 0; the second is cut out
    by total degree three.  Their column spaces meet in the line through
    (1, 1, 0), and the pair glues already at scalings (1, 1): both toric
    ideals have three generators, the glued ideal has seven.
    """
    a = SemigroupGens.from_columns(
        [(4, 0, 0), (3, 1, 0), (2, 2, 0), (1, 3, 0)], "x")
    b = SemigroupGens.from_columns(
        [(3, 3, 0), (3, 2, 1), (3, 1, 2), (3, 0, 3)], "y")
    return a, b


def twisted_bad_pair():
    """Return a non-gluable variant: the same quartic, a skewed cubic.

    The lattice point is (1, 2, 0), but every generator of the second
    semigroup has a positive last coordinate, so no positive multiple of
    the point can ever lie there: the pair provably never glues, at any
    scalings.
    """
    a = SemigroupGens.from_columns(
        [(4, 0, 0), (3, 1, 0), (2, 2, 0), (1, 3, 0)], "x")
    b = SemigroupGens.from_columns(
        [(2, 3, 1), (2, 2, 2), (2, 1, 3), (2, 0, 4)], "y")
    return a, b


def monomial_curves_pair():
    """Return two space curves gluing at scalings (3, 2) but not (1, 1).

    The lattice point is (1, 1, 2); its double is a generator of the
    first semigroup and its triple a generator of the second, so the
    scalings (3, 2) glue with the linear binomial x4 - y4.  At (1, 1)
    the generator counts already refuse: 8 != 3 + 2 + 1.
    """
    a = SemigroupGens.from_columns(
        [(1, 6, 7), (1, 4, 5), (1, 2, 3), (2, 2, 4)], "x")
    b = SemigroupGens.from_columns(
        [(1, 1, 6), (1, 1, 4), (1, 1, 1), (3, 3, 6)], "y")
    return a, b


def shared_factor_pair():
    """Return a pair whose witness multiples all share the factor 3.

    Multiples of the lattice point (1, 1, 2) lying in the first
    semigroup are 3, 6, 9, ... and in the second 9, 18, ...; no coprime
    pair exists below any small bound, so the bounded search is
    inconclusive rather than definitive.
    """
    a = SemigroupGens.from_columns(
        [(1, 6, 7), (1, 4, 5), (2, 5, 7), (3, 3, 6)], "x")
    b = SemigroupGens.from_columns(
        [(1, 1, 6), (2, 2, 7), (3, 3, 8), (9, 9, 18)], "y")
    return a, b


def shared_column_pair():
    """Return a pair gluing at scalings (2, 1) through a shared column.

    Doubling the first semigroup makes its last generator equal the last
    generator of the second, so the glued ideal needs exactly the extra
    binomial x4 - y4.  At scalings (1, 1) the generator counts refuse:
    6 != 3 + 2 + 1.
    """
    a = SemigroupGens.from_columns(
        [(1, 6, 7), (1, 4, 5), (2, 5, 7), (5, 5, 10)], "x")
    b = SemigroupGens.from_columns(
        [(1, 1, 6), (2, 2, 7), (3, 3, 8), (10, 10, 20)], "y")
    return a, b


def linear_binomial_pair():
    """Return a pair sharing the column (3, 3, 6), not gluing at (1, 1).

    The union's toric ideal has 13 minimal generators, among them the
    linear binomial x5 - y5 coming from the shared column; since
    13 != 6 + 5 + 1 the union is not a gluing even though a mixed
    linear generator exists.
    """
    a = SemigroupGens.from_columns(
        [(4, 1, 5), (2, 1, 3), (1, 2, 3), (3, 1, 4), (3, 3, 6)], "x")
    b = SemigroupGens.from_columns(
        [(2, 1, 1), (3, 2, 3), (5, 3, 4), (4, 5, 11), (3, 3, 6)], "y")
    return a, b


# -- oracles ----------------------------------------------------------------

def fraction_rank(rows):
    """Return the rank of a matrix by Gaussian elimination over Fraction."""
    work = [[Fraction(x) for x in row] for row in rows]
    if not work:
        return 0
    ncols = len(work[0])
    row_at = 0
    for j in range(ncols):
        piv = next((i for i in range(row_at, len(work)) if work[i][j]), None)
        if piv is None:
            continue
        work[row_at], work[piv] = work[piv], work[row_at]
        pivot = work[row_at][j]
        for i in range(len(work)):
            if i != row_at and work[i][j]:
                f = work[i][j] / pivot
                work[i] = [a - f * b for a, b in zip(work[i], work[row_at])]
        row_at += 1
    return row_at


def integer_combination(vectors, target):
    """Return integer coefficients writing target over independent vectors.

    None when the system has no solution or the solution is fractional.
    """
    vectors = [tuple(v) for v in vectors]
    target = tuple(target)
    if not vectors:
        return () if not any(target) else None
    n = len(target)
    p = len(vectors)
    work = [[Fraction(v[r]) for v in vectors] + [Fraction(target[r])]
            for r in range(n)]
    pivots = []
    row_at = 0
    for j in range(p):
        piv = next((i for i in range(row_at, n) if work[i][j]), None)
        if piv is None:
            continue
        work[row_at], work[piv] = work[piv], work[row_at]
        pivot = work[row_at][j]
        for i in range(n):
            if i != row_at and work[i][j]:
                f = work[i][j] / pivot
                work[i] = [a - f * b for a, b in zip(work[i], work[row_at])]
        pivots.append((row_at, j))
        row_at += 1
    if any(work[i][p] for i in range(row_at, n)):
        return None
    coeffs = [Fraction(0)] * p
    for i, j in pivots:
        coeffs[j] = work[i][p] / work[i][j]
    if any(c.denominator != 1 for c in coeffs):
        return None
    return tuple(int(c) for c in coeffs)


def brute_members(gens, coeff_bound):
    """Return every semigroup element with generator coefficients <= bound."""
    cols = gens.matrix.columns()
    n = gens.ambient
    out = set()
    for combo in product(range(coeff_bound + 1), repeat=len(cols)):
        out.add(tuple(sum(c * col[r] for c, col in zip(combo, cols))
                      for r in range(n)))
    return out


# -- random generators ------------------------------------------------------

def random_gens(rng, ambient, count, entry_bound, prefix="x"):
    """Return random generators: distinct nonzero columns with small entries."""
    if count > (entry_bound + 1) ** ambient - 1:
        raise ValueError(f"fewer than {count} distinct nonzero columns have "
                         f"{ambient} entries in 0..{entry_bound}")
    cols = set()
    while len(cols) < count:
        c = tuple(rng.randrange(entry_bound + 1) for _ in range(ambient))
        if any(c):
            cols.add(c)
    return SemigroupGens.from_columns(sorted(cols), prefix)


def random_rank2_gens(rng, prefix):
    """Return 2 to 4 distinct points spanning at most a plane, or None."""
    for _ in range(40):
        base = [tuple(rng.randrange(4) for _ in range(3)) for _ in range(2)]
        cols = set()
        for s, t in ((1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (1, 3)):
            col = tuple(s * x + t * y for x, y in zip(*base))
            if any(col):
                cols.add(col)
        if len(cols) >= 2:
            chosen = sorted(cols)[:rng.randrange(2, min(4, len(cols)) + 1)]
            return SemigroupGens.from_columns(chosen, prefix)
    return None


def random_ray_gens(rng, prefix):
    """Return one or two distinct multiples of a plane direction."""
    direction = tuple(rng.randrange(4) for _ in range(2))
    if not any(direction):
        direction = (1, 2)
    scales = sorted({rng.randrange(1, 5) for _ in range(2)})
    cols = [tuple(s * x for x in direction) for s in scales]
    return SemigroupGens.from_columns(cols, prefix)


def random_plane_gens(rng, prefix):
    """Return 2 or 3 distinct nonzero plane points, or None."""
    cols = set()
    for _ in range(rng.randrange(2, 4)):
        col = (rng.randrange(5), rng.randrange(5))
        if any(col):
            cols.add(col)
    if len(cols) < 2:
        return None
    return SemigroupGens.from_columns(sorted(cols), prefix)

"""Shared fixtures and independent oracles for the tests.

The fixture pairs are small affine semigroups in N^3 with known gluing
behaviour; each constructor documents the facts the tests rely on.  The
oracles recompute ranks, solvability and membership from first
principles over Fraction or by brute force, so agreement with the
package is evidence rather than circularity.  ``ideal_identity_gluing``
decides a gluing by the ideal identity itself, with the Groebner
engine.  The kernel- and Fraction-based solvers that the fraction-free
elimination replaced are kept as references for it, and so is the
Buchberger engine's full reduction of both monomials, which its top
reduction replaced, its seed loop and the minimal-generator scan, which
its one driver replaced, and the brute-force oracle that bucketed every
leaf of the box walk, which bucketing the walk's runs replaced.  The
CLI's twelve-parser builder, which its command table replaced, is kept
as the reference for every help, usage and error text, and the
membership sweep over every face of the lattice point, which arithmetic
on independent and ray faces replaced, for ``decide_pair``'s records,
and the membership search that scanned every column from its box
bound, which the exact range of the column before the free one
replaced, for ``is_member``.  The pair update, the min() scan of the
pairs and the two-sort finishing pass that the sorted pair queue
replaced, with the post-basis toric path before it reused the
homogeneity check's degrees, are kept as the reference for the toric
pipeline.
"""

import argparse
from collections import Counter
from contextlib import contextmanager
from dataclasses import fields
from fractions import Fraction
from itertools import combinations, islice, product, repeat, starmap
from math import gcd
from operator import lshift, sub
from random import Random
from typing import NamedTuple

from semiglue import (
    Binomial,
    BinomialIdeal,
    BoundTooLarge,
    GluingCandidate,
    HomologySummary,
    NotCoprime,
    SemigroupGens,
    check_rank_conditions,
    decide_pair,
    embed,
    gluable_lattice_point,
    ideal_equal,
    is_member,
    level,
)
from semiglue import __version__, binomial, cli, gluing, toric
from semiglue.binomial import (
    Monomial,
    MonomialOrder,
    VariableBlock,
    _canonical_key,
    _complete,
    _gm_update,
    _is_homogeneous,
    _nf_mono,
    _reduce_pair,
    _reduced,
    _widening,
    buchberger,
)
from semiglue.exactlin import (
    IndependentSuffix,
    IntegerMatrix,
    independent_suffix,
    kernel_lattice_basis,
    primitive,
)
from semiglue.gluing import (
    RankConditions,
    _cone_solution,
    _meeting_line,
    _mixed_binomial,
    multiples_in_semigroup,
)
from semiglue.toric import (
    GradedBinomialSet,
    _fits_in,
    _unpack,
    _width,
    enumerate_oracle,
    fiber_monomials,
    toric_ideal,
    toric_ideal_of_matrix,
)


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


def chain_pairs(count, seed=20260823):
    """Return the first rank-compatible pairs of the implication sweep.

    Attempts alternate between two rank-two semigroups in N^3 and a
    plane semigroup with a ray, as the acceptance sweep draws them.
    """
    rng = Random(seed)
    pairs = []
    attempts = 0
    while len(pairs) < count:
        attempts += 1
        if attempts % 2:
            a = random_rank2_gens(rng, "x")
            b = random_rank2_gens(rng, "y")
        else:
            a = random_plane_gens(rng, "x")
            b = random_ray_gens(rng, "y")
        if a is not None and b is not None and (
                check_rank_conditions(a, b).ok):
            pairs.append((a, b))
    return pairs


# -- the ideal identity -----------------------------------------------------

def ideal_identity_holds(cand: GluingCandidate, rho) -> bool:
    """Return whether I_C = I_A + I_B + (rho) for the candidate."""
    joined = tuple(embed(g, cand.c_block, 0)
                   for g in toric_ideal(cand.a).ideal.generators)
    joined += tuple(embed(g, cand.c_block, cand.a.count)
                    for g in toric_ideal(cand.b).ideal.generators)
    ic = toric_ideal_of_matrix(cand.c_matrix, cand.c_block)
    return ideal_equal(BinomialIdeal(cand.c_block, joined + (rho,)), ic.ideal)


class IdentityReport(NamedTuple):
    """The reference's answer, under ``GluingReport``'s attribute names.

    Its mu and homology are computed eagerly, from I_A, I_B and I_C, so
    comparing with a report checks the report's lazily computed ones.
    """

    candidate: GluingCandidate
    rank: RankConditions
    u: tuple | None
    is_gluing: bool
    rho: Binomial | None
    rho_level: int | None
    mu_a: int
    mu_b: int
    mu_c: int
    homology: HomologySummary
    detail: str


def ideal_identity_gluing(cand: GluingCandidate,
                          work_limit: int = 10 ** 6) -> IdentityReport:
    """Decide a gluing by I_C = I_A + I_B + (rho), with the Groebner engine.

    When the rank conditions and mu(C) = mu(A) + mu(B) + 1 hold, any
    single binomial completing the two ideals is a minimal generator of
    the glued ideal, so trying every mixed binomial over the minimal
    generator degrees is a complete search; coprime membership witnesses
    are tried first.  This is the package's decision before it moved to
    the lattice criterion, kept as the tests' reference.
    """
    ia = toric_ideal(cand.a)
    ib = toric_ideal(cand.b)
    ic = toric_ideal_of_matrix(cand.c_matrix, cand.c_block)
    rc, u = _meeting_line(cand.a, cand.b)
    dim_c = rc.rank_joint
    codim_c = cand.c_matrix.cols - dim_c
    if ic.mu == codim_c:
        hom = HomologySummary(dim_c, codim_c, dim_c, ci=True, mu=ic.mu)
    else:
        hom = HomologySummary(dim_c, ci=False, mu=ic.mu)
    base = dict(candidate=cand, rank=rc, mu_a=ia.mu, mu_b=ib.mu, mu_c=ic.mu,
                homology=hom)
    if not rc.ok:
        return IdentityReport(
            u=None, is_gluing=False, rho=None, rho_level=None,
            detail="the column spaces do not meet in a line", **base)
    if ic.mu != ia.mu + ib.mu + 1:
        return IdentityReport(
            u=u, is_gluing=False, rho=None, rho_level=None,
            detail=(f"generator counts rule it out: {ic.mu} != "
                    f"{ia.mu} + {ib.mu} + 1"), **base)
    if gcd(cand.k1, cand.k2) == 1:
        c_wit = is_member(tuple(cand.k2 * x for x in u), cand.a)
        d_wit = is_member(tuple(cand.k1 * x for x in u), cand.b)
        if c_wit is not None and d_wit is not None:
            rho = _mixed_binomial(cand, c_wit, d_wit)
            assert ideal_identity_holds(cand, rho), (
                "coprime membership witnesses always give a gluing")
            lev = level(rho, cand)
            assert lev == 1, (
                f"coprime membership witnesses give level {lev}, not 1")
            return IdentityReport(
                u=u, is_gluing=True, rho=rho, rho_level=lev,
                detail="glued by coprime membership witnesses", **base)
    # Each x^c - y^d comes up once: c fixes deg = k1 A c, and a fiber
    # lists distinct vectors.  A binomial of degree zero would be zero,
    # so neither c nor d is.
    degrees = sorted(set(ic.adegrees.values()), key=lambda d: (sum(d), d))
    for deg in degrees:
        if any(x % cand.k1 or x % cand.k2 for x in deg):
            continue
        xs = fiber_monomials(cand.a.matrix,
                             tuple(x // cand.k1 for x in deg), work_limit)
        if not xs:
            continue
        ys = fiber_monomials(cand.b.matrix,
                             tuple(x // cand.k2 for x in deg), work_limit)
        for c in xs:
            for d in ys:
                rho = _mixed_binomial(cand, c, d)
                if ideal_identity_holds(cand, rho):
                    try:
                        lev = level(rho, cand)
                    except NotCoprime:
                        lev = None
                    return IdentityReport(
                        u=u, is_gluing=True, rho=rho, rho_level=lev,
                        detail="glued by a mixed minimal generator", **base)
    return IdentityReport(u=u, is_gluing=False, rho=None, rho_level=None,
                          detail="no single mixed binomial completes the two "
                                 "ideals", **base)


# -- references for the fraction-free solves --------------------------------
#
# The package's earlier solvers, kept verbatim as references: the cone
# solution and the meeting line read off integer kernels, and the
# independent suffix computed over Fraction.

def kernel_cone_solution(v, matrix):
    """Return ``gluing._cone_solution``'s answer from kernels of [S | v].

    A column subset S solves for v exactly when the kernel of [S | v] is
    a line whose primitive generator d has d_last != 0; |d_last| is the
    least multiplier.
    """
    cols = matrix.columns()
    zero = [i for i, x in enumerate(v) if x == 0]
    usable = [] if min(v) < 0 else [
        j for j, c in enumerate(cols) if all(c[i] == 0 for i in zero)]
    first = None
    support = set()
    for size in range(1, min(len(usable), matrix.rows) + 1):
        independent = False
        for subset in combinations(usable, size):
            if support.issuperset(subset):
                continue
            basis = kernel_lattice_basis(
                IntegerMatrix.from_columns([cols[j] for j in subset] + [v]))
            if len(basis) > 1 or basis and basis[0][-1] == 0:
                continue  # the subset is dependent
            independent = True
            if not basis:
                continue  # v is outside the subset's span
            d = basis[0]
            sign = -1 if d[-1] > 0 else 1
            lam = [sign * x for x in d[:-1]]
            if any(x < 0 for x in lam):
                continue
            if first is None:
                exps = [0] * len(cols)
                for j, x in zip(subset, lam):
                    exps[j] = x
                first = tuple(exps), abs(d[-1])
            support.update(j for j, x in zip(subset, lam) if x)
        if not independent:
            break
    return first, tuple(sorted(support))


def kernel_meeting_line(a, b):
    """Return ``gluing._meeting_line``'s answer from the kernel of [A|B]."""
    joint = a.matrix.hstack(b.matrix)
    kernel = kernel_lattice_basis(joint)
    rc = RankConditions(fraction_rank(a.matrix.entries),
                        fraction_rank(b.matrix.entries),
                        joint.cols - len(kernel), a.ambient)
    if not rc.ok:
        return rc, None
    images = (a.matrix.matvec(d[:a.count]) for d in kernel)
    return rc, primitive(next(w for w in images if any(w)))


def fraction_independent_suffix(m):
    """Return ``exactlin.independent_suffix``'s answer, computed over Fraction."""
    cols = m.columns()
    echelon = []
    start = 0
    for j in range(len(cols) - 1, -1, -1):
        w = [Fraction(x) for x in cols[j]]
        for piv, e in echelon:
            if w[piv]:
                f = w[piv] / e[piv]
                w = [a - f * b for a, b in zip(w, e)]
        piv = next((i for i, x in enumerate(w) if x), None)
        if piv is None:
            start = j + 1
            break
        echelon.append((piv, w))
    rows = tuple(sorted(piv for piv, _ in echelon))
    r = len(rows)
    # Gauss-Jordan on [T_R | I].
    work = [[Fraction(cols[start + k][i]) for k in range(r)]
            + [Fraction(int(i == t)) for t in rows] for i in rows]
    for c in range(r):
        pivot = next(i for i in range(c, r) if work[i][c])
        work[c], work[pivot] = work[pivot], work[c]
        lead = work[c][c]
        work[c] = [x / lead for x in work[c]]
        for i in range(r):
            if i != c and work[i][c]:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[c])]
    inv = [row[r:] for row in work]
    den = 1
    for row in inv:
        for x in row:
            den = den * x.denominator // gcd(den, x.denominator)
    inverse = tuple(tuple(int(x * den) for x in row) for row in inv)
    return IndependentSuffix(start, rows, inverse, den)


# -- reference for the binomial engine's top reduction ----------------------

def full_reduce_pair(pk, basis, a, b):
    """Return ``binomial._reduce_pair``'s answer with both sides fully reduced.

    The engine's earlier reduction, kept verbatim as the reference: each
    packed monomial goes to its normal form by ``_nf_mono``, so the tail
    is reduced too.
    """
    a = _nf_mono(a, basis, pk.guard)
    b = _nf_mono(b, basis, pk.guard)
    if a == b:
        return None
    return (a, b - a) if pk.key(a) > pk.key(b) else (b, a - b)


# -- references for the binomial engine's seed loop ------------------------

def seed_loop_buchberger(raw_gens, order):
    """Return ``binomial._buchberger``'s answer by the earlier seed loop.

    The engine's run before ``binomial._grow``, kept verbatim as the
    reference: every seed joins the basis oriented but unreduced, with
    its pairs, and the pairs are completed only after the last seed.
    """
    raw_gens = list(raw_gens)

    def run(pk):
        k = pk.key
        seed = set()
        for a, b in (map(pk.pack, pr) for pr in raw_gens):
            if a != b:
                seed.add((a, b) if k(a) > k(b) else (b, a))
        basis = []
        pairs = []
        for u, v in sorted(seed, key=lambda g: (k(g[0]), k(g[1]))):
            basis.append((u, v - u))
            if not _gm_update(pk, basis, pairs, len(basis) - 1):
                return None
        return basis if _complete(pk, basis, pairs) else None

    return _reduced(*_widening(order, raw_gens, run))


def scan_minimal_generators(gset):
    """Return ``toric.minimal_generators``'s answer by the earlier scan.

    The scan as it was before it went through ``binomial._grow``, kept
    verbatim as the reference, with its own copy of the seed loop.
    """
    gens = sorted(gset.ideal.generators,
                  key=lambda g: (sum(gset.adegrees[g]), gset.adegrees[g],
                                 _canonical_key(g)))
    pairs_of = [g.as_pair() for g in gens]

    def scan(pk):
        kept = []
        basis = []
        pairs = []
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


def driver_identity_sweep(matrices=300, sets=200, seed=20261023):
    """Compare the Groebner driver with the seed-loop references.

    Toric ideals of the ``toric_ideals`` benchmark pool (100 random 3 x 5
    to 3 x 7 matrices, entries 0..3, drawn from seed 20260823) and of
    ``matrices`` seeded ones (1-3 rows, 2-7 columns, entries 0..4):
    every ``binomial._buchberger`` run of the pipeline, on the input it
    is given, must return the raw reduced basis of
    ``seed_loop_buchberger``, and ``toric.minimal_generators`` the kept
    generators, degrees and held bases of ``scan_minimal_generators``.
    Then seeded binomial sets (2-5 variables, 1-4 binomials, exponents
    0..3, weights 1..3, any cheapest variable) through the public
    ``buchberger``, until ``sets`` of them are not homogeneous.  Asserts
    each comparison and returns a Counter of what was compared.
    """
    rng = Random(seed)
    seen = Counter()
    real_run, real_scan = binomial._buchberger, toric.minimal_generators

    def checked_run(raw, order):
        got = real_run(raw, order)
        assert got == seed_loop_buchberger(raw, order), (raw, order)
        seen["buchberger runs"] += 1
        return got

    def checked_scan(gset):
        got, want = real_scan(gset), scan_minimal_generators(gset)
        assert (got.ideal.generators, got.adegrees) == (
            want.ideal.generators, want.adegrees), gset.ideal.generators
        assert [h.raw for h in got.ideal._bases.values()] == [
            h.raw for h in want.ideal._bases.values()], gset.ideal.generators
        seen["minimal generator scans"] += 1
        return got

    pool_rng = Random(20260823)
    pool = [random_gens(pool_rng, 3, 5 + i % 3, 3) for i in range(100)]
    for _ in range(matrices):
        rows = rng.randint(1, 3)
        pool.append(random_gens(rng, rows,
                                rng.randint(2, min(7, 5 ** rows - 1)), 4))
    binomial._buchberger, toric.minimal_generators = checked_run, checked_scan
    try:
        for gens in pool:
            toric_ideal_of_matrix.__wrapped__(gens.matrix, gens.block)
    finally:
        binomial._buchberger, toric.minimal_generators = real_run, real_scan
    while seen["non-homogeneous sets"] < sets:
        p = rng.randint(2, 5)
        block = VariableBlock.prefixed("x", p)
        order = MonomialOrder.degrevlex(
            [rng.randint(1, 3) for _ in range(p)],
            rng.choice([None, *range(p)]))
        gens, count = [], rng.randint(1, 4)
        while len(gens) < count:
            u, v = ([rng.randint(0, 3) for _ in range(p)] for _ in range(2))
            if u != v:
                gens.append(Binomial.from_pair(block, (tuple(u), tuple(v))))
        raw = [g.as_pair() for g in gens]
        assert tuple(g.as_pair() for g in buchberger(gens, order)) == \
            seed_loop_buchberger(raw, order), (raw, order)
        seen["non-homogeneous sets"] += not _is_homogeneous(raw,
                                                            order.weights)
    return seen


# -- reference for the pair queue, the finishing pass and the toric path ---

def min_scan_gm_update(pk, basis, pairs, t):
    """Return ``binomial._gm_update``'s answer with pairs in any order.

    The update before the pair queue was kept sorted, kept verbatim as
    the reference: each new pair's key comes from ``_Packing.key`` in a
    sorted list of (key, i) tuples, and ``pairs`` is left unsorted.
    """
    guard, mask, rev, limit = pk.guard, pk.mask, pk.rev, pk.limit
    top, low, field = pk.top, pk.width - 1, pk.field
    lt = basis[t][0]
    lcms = []
    for lead, _ in basis[:t]:
        ge = ((lead | guard) - lt) & guard
        e = (lt ^ ((lead ^ lt) & (ge - (ge >> low)))) & mask
        d = (e * rev >> (top - pk.width)) & field
        if d > limit:
            return False
        lcms.append((d << top) | e)
    survivors = []
    for entry in pairs:
        _, i, j, lij = entry
        if (((lij | guard) - lt) & guard == guard and lcms[i] != lij
                and lcms[j] != lij):
            continue
        survivors.append(entry)
    chosen = []
    for k, i in sorted([(lij - ((lij & mask) << 1), i)
                        for i, lij in enumerate(lcms)]):
        lij = lcms[i]
        if lij == basis[i][0] + lt:
            chosen.append(lij)
            continue
        g = lij | guard
        for c in chosen:
            if (g - c) & guard == guard:
                break
        else:
            chosen.append(lij)
            survivors.append((k, i, t, lij))
    pairs[:] = survivors
    return True


def min_scan_complete(pk, basis, pairs, upto=None):
    """Return ``binomial._complete``'s answer by a min() scan of the pairs.

    Kept verbatim as the reference: the next pair is ``min(pairs)``,
    then removed from the list.
    """
    bound = None if upto is None else upto << pk.top
    while pairs:
        entry = min(pairs)
        if bound is not None and entry[0] > bound:
            return True
        pairs.remove(entry)
        _, i, j, lij = entry
        if basis[i][1] == basis[j][1]:
            continue
        r = _reduce_pair(pk, basis, lij + basis[i][1], lij + basis[j][1])
        if r is None:
            continue
        basis.append(r)
        if not min_scan_gm_update(pk, basis, pairs, len(basis) - 1):
            return False
    return True


def two_sort_reduced(pk, basis):
    """Return ``binomial._reduced``'s answer by its earlier two sorts.

    Kept verbatim as the reference: the leads are sorted with two
    ``_Packing.key`` calls each and filtered by an ``any()`` generator,
    and the result is sorted again.
    """
    k, guard = pk.key, pk.guard
    minimal = []
    for lead, step in sorted(basis, key=lambda g: (k(g[0]), k(g[0] + g[1]))):
        g = lead | guard
        if not any((g - c) & guard == guard for c, _ in minimal):
            minimal.append((lead, step))
    reduced = []
    for lead, step in minimal:
        tail = _nf_mono(lead + step, minimal, guard)
        if tail == lead:
            raise AssertionError("a Groebner element reduced to zero")
        reduced.append((k(lead), lead, tail))
    reduced.sort()
    return tuple((pk.unpack(u), pk.unpack(v)) for _, u, v in reduced)


def min_scan_buchberger(raw_gens, order):
    """Return ``binomial._buchberger``'s answer by the engine above.

    Kept verbatim as the reference, seeds sorted with ``_Packing.key``;
    ``binomial._grow`` must run the reference update and completion
    (``min_scan_engine``).
    """
    raw_gens = list(raw_gens)

    def run(pk):
        k = pk.key
        seeds = sorted({(a, b) if k(a) > k(b) else (b, a)
                        for a, b in (map(pk.pack, pr) for pr in raw_gens)
                        if a != b}, key=lambda g: (k(g[0]), k(g[1])))
        basis, pairs = [], []
        if binomial._grow(pk, seeds, basis, pairs) is None:
            return None
        return basis if min_scan_complete(pk, basis, pairs) else None

    return two_sort_reduced(*_widening(order, raw_gens, run))


@contextmanager
def min_scan_engine():
    """Run ``binomial``'s drivers on the reference engine above."""
    names = ("_gm_update", "_complete", "_reduced", "_buchberger")
    real = [getattr(binomial, name) for name in names]
    for name, ref in zip(names, (min_scan_gm_update, min_scan_complete,
                                 two_sort_reduced, min_scan_buchberger)):
        setattr(binomial, name, ref)
    try:
        yield
    finally:
        for name, fn in zip(names, real):
            setattr(binomial, name, fn)


def per_lookup_minimal_generators(gset):
    """Return ``toric.minimal_generators``'s answer, degrees read per key.

    Kept verbatim as the reference: the sort key reads each degree twice
    and adds ``_canonical_key``.
    """
    gens = sorted(gset.ideal.generators,
                  key=lambda g: (sum(gset.adegrees[g]), gset.adegrees[g],
                                 _canonical_key(g)))
    order = MonomialOrder.degrevlex(gset.weights)
    kept = [gens[i] for i in binomial._minimal_subset(
        [g.as_pair() for g in gens], order)]
    ideal = gset.ideal.spanned_by(kept)
    return GradedBinomialSet(ideal, {g: gset.adegrees[g] for g in kept},
                             gset.weights)


def min_scan_toric_ideal(matrix, block):
    """Return ``toric_ideal_of_matrix``'s answer by the reference path.

    The kernel and the sweeps as the package runs them, on the reference
    engine, then the post-basis path as it was: a degree computed apart
    from the homogeneity check, and ``per_lookup_minimal_generators``.
    """
    weights = tuple(sum(c) for c in matrix.columns())
    order = MonomialOrder.degrevlex(weights)
    basis = kernel_lattice_basis(matrix)
    pairs = [(tuple(max(x, 0) for x in v), tuple(max(-x, 0) for x in v))
             for v in basis]
    if not pairs:
        return GradedBinomialSet(BinomialIdeal(block, ()), {}, weights)
    with min_scan_engine():
        gb = binomial._interreduce(binomial._saturate_raw(
            pairs, weights, toric._sweep_variables(basis, matrix.cols)),
            order)
        for u, v in gb:
            if not binomial._coprime(u, v):
                raise AssertionError(f"{u} - {v} has overlapping support")
            if matrix.matvec(u) != matrix.matvec(v):
                raise AssertionError(f"{u} - {v} is not homogeneous")
        ideal = BinomialIdeal.from_basis(block, order, gb)
        adegrees = {g: matrix.matvec(g.plus.exponents)
                    for g in ideal.generators}
        return per_lookup_minimal_generators(
            GradedBinomialSet(ideal, adegrees, weights))


def pair_queue_identity_sweep(matrices=300, seed=20261026):
    """Compare the toric pipeline with ``min_scan_toric_ideal``.

    Toric ideals of the ``toric_ideals`` benchmark pool (100 random 3 x 5
    to 3 x 7 matrices, entries 0..3, drawn from seed 20260823) and of
    ``matrices`` seeded ones (2-4 rows, 4-7 columns, entries 0..3): the
    held reduced bases, under their orders, the minimal generators in
    order, and their degrees, in order, must be the reference's.
    Asserts each comparison and returns a Counter of what was compared.
    """
    rng = Random(seed)
    pool_rng = Random(20260823)
    pool = [random_gens(pool_rng, 3, 5 + i % 3, 3) for i in range(100)]
    for _ in range(matrices):
        pool.append(random_gens(rng, rng.randint(2, 4), rng.randint(4, 7), 3))
    seen = Counter()
    for gens in pool:
        m, block = gens.matrix, gens.block
        got = toric_ideal_of_matrix.__wrapped__(m, block)
        want = min_scan_toric_ideal(m, block)
        cols = m.columns()
        assert [(order, held.raw) for order, held in got.ideal._bases.items()
                ] == [(order, held.raw) for order, held
                      in want.ideal._bases.items()], cols
        assert got.ideal.generators == want.ideal.generators, cols
        assert list(got.adegrees.items()) == list(want.adegrees.items()), cols
        seen["toric ideals"] += 1
        seen["generators"] += got.mu
    return seen


# -- reference for the brute-force oracle's run bucketing -------------------

def leaf_box_walk(matrix, start, work_limit):
    """Return packed (start - matrix * m, m), one pair per leaf of the box.

    The box walk as it was before it returned runs, kept verbatim as the
    reference: the same depth-first walk and node count, with every run
    of the last column expanded into its leaves.
    """
    cols = matrix.columns()
    if not all(max(col) > 0 for col in cols):
        raise BoundTooLarge(f"box enumeration passed {work_limit} steps")
    width = _width(start)
    field = (1 << width) - 1
    shifts = range(0, len(start) * width, width)
    fits = [(_fits_in([(s, b) for s, b in zip(shifts, col) if b], field),
             sum(map(lshift, col, shifts)), 1 << j * width)
            for j, col in enumerate(cols)]
    last = len(cols) - 1
    lastfit, lastcol, lastunit = fits[last]
    out, runs, spent = [], [], 1

    def enter(rems, ms):
        nonlocal spent
        tops = list(map(lastfit, rems))
        spent += len(tops) + sum(tops)
        if spent > work_limit:
            raise BoundTooLarge(f"box enumeration passed {work_limit} steps")
        runs.append((rems, ms, tops))

    root = sum(map(lshift, start, shifts))
    stack = [(root, 0, 0)] if last else []
    if not last:
        enter((root,), (0,))
    while stack:
        rem, m, j = stack.pop()
        fit, col, unit = fits[j]
        top = fit(rem)
        spent += top + 1
        if spent > work_limit:
            raise BoundTooLarge(f"box enumeration passed {work_limit} steps")
        rems = range(rem, rem - (top + 1) * col, -col)
        ms = range(m, m + (top + 1) * unit, unit)
        if j + 1 < last:
            stack += zip(reversed(rems), reversed(ms), repeat(j + 1))
        else:
            enter(rems, ms)
    for rems, ms, tops in runs:
        for r, m, t in zip(rems, ms, tops):
            out += zip(range(r, r - (t + 1) * lastcol, -lastcol),
                       range(m, m + (t + 1) * lastunit, lastunit))
    return out


def leaf_oracle(gens, bound, work_limit=10 ** 6):
    """Return ``toric.enumerate_oracle``'s answer by bucketing every leaf.

    The oracle as it was before it bucketed runs, kept verbatim as the
    reference: each fiber is the leaves of ``leaf_box_walk`` that share
    a remainder.
    """
    bound = tuple(int(x) for x in bound)
    leaves = leaf_box_walk(gens.matrix, bound, work_limit)
    first: dict = {}
    fibers: dict = {}
    for r, m in [(r, m) for r, m in leaves if first.setdefault(r, m) != m]:
        fibers.setdefault(r, [first[r]]).append(m)
    groups = [sorted(ms) for ms in fibers.values()]
    flat = [m for ms in groups for m in ms]
    mons = map(Monomial, repeat(gens.block),
               _unpack(flat, _width(bound), gens.count))
    out = []
    for ms in groups:
        out += starmap(Binomial, combinations(islice(mons, len(ms)), 2))
    out.sort(key=_canonical_key)
    return tuple(out)


def box_walk_nodes(matrix, bound):
    """Return the number of nodes of the box walk under bound.

    A node is a prefix (c_0, ..., c_(j-1)), j = 0..p, whose columns fit:
    matrix[:, :j] * c <= bound.  Counted by plain recursion.
    """
    cols = matrix.columns()

    def count(j, rem):
        nodes = 1
        while j < len(cols) and min(rem) >= 0:
            nodes += count(j + 1, rem)
            rem = tuple(map(sub, rem, cols[j]))
        return nodes

    return count(0, tuple(bound))


def oracle_identity_sweep(trials=400, seed=20261022):
    """Compare ``enumerate_oracle`` with ``leaf_oracle`` over a seeded sweep.

    Semigroups have 1-3 rows, 1-5 columns and entries 0..6; every tenth
    has one column, every seventh bound is zero and the next one is too
    small for the last column in one entry.  Each is compared at a work
    limit of exactly the walk's node count, where both answer, and one
    less, where both raise.  Asserts each comparison and returns a
    Counter of the kinds of case met.
    """
    rng = Random(seed)
    seen = Counter()

    def answer(oracle, gens, bound, limit):
        try:
            return tuple(g.as_pair() for g in oracle(gens, bound, limit))
        except BoundTooLarge as exc:
            return str(exc)

    for trial in range(trials):
        rows = rng.randint(1, 3)
        gens = random_gens(rng, rows, 1 if trial % 10 == 0
                           else rng.randint(1, 5), 6)
        last = gens.matrix.columns()[-1]
        bound = [0 if trial % 7 == 0 else rng.randint(0, 20)
                 for _ in range(rows)]
        if trial % 7 == 1:
            i = rng.choice([i for i, x in enumerate(last) if x])
            bound[i] = rng.randrange(last[i])
        nodes = box_walk_nodes(gens.matrix, bound)
        for limit in (nodes - 1, nodes):
            got = answer(enumerate_oracle, gens, bound, limit)
            case = gens.matrix.columns(), bound, limit
            assert got == answer(leaf_oracle, gens, bound, limit), case
            assert isinstance(got, str) == (limit < nodes), case
        seen["single column"] += gens.count == 1
        seen["zero entry"] += any(0 in c for c in gens.matrix.columns())
        seen["zero bound"] += not any(bound)
        seen["last column fits 0 times"] += any(
            b < x for b, x in zip(bound, last))
        seen["nonempty"] += bool(got)
    return seen


# -- reference for the membership search's box bound ------------------------

def box_bound_member(v, gens):
    """Return ``is_member``'s answer and the states its search entered.

    The search as it was before the column just before the free one was
    scanned over its exact rational range, kept as the reference: every
    searched column is scanned from its box bound down to 0.
    """
    v = tuple(int(x) for x in v)
    cols = gens.matrix.columns()
    suffix = independent_suffix(gens.matrix)
    free, rows, inverse = suffix.start - 1, suffix.rows, suffix.inverse
    den = suffix.denominator
    tail = tuple(row[suffix.start:] for row in gens.matrix.entries)
    shift = ()
    if free >= 0:
        shift = tuple(sum(a * cols[free][i] for a, i in zip(row, rows))
                      for row in inverse)

    def last(rem):
        num = [sum(a * rem[i] for a, i in zip(row, rows)) for row in inverse]
        for trow, x in zip(tail, rem):
            if den * x != sum(t * n for t, n in zip(trow, num)):
                return None
        if free < 0:
            if any(n < 0 or n % den for n in num):
                return None
            return tuple(n // den for n in num)
        col = cols[free]
        lo, hi = 0, min(r // x for r, x in zip(rem, col) if x > 0)
        for n, s in zip(num, shift):
            if s > 0:
                hi = min(hi, n // s)
            elif s < 0:
                lo = max(lo, -(n // -s))
            elif n < 0:
                return None
        for c in range(hi, max(lo, hi - den + 1) - 1, -1):
            if all((n - c * s) % den == 0 for n, s in zip(num, shift)):
                return (c,) + tuple((n - c * s) // den
                                    for n, s in zip(num, shift))
        return None

    memo = {}
    spent = 0

    def solve(j, rem):
        nonlocal spent
        spent += 1
        if j >= free:
            return last(rem)
        if (j, rem) in memo:
            return memo[j, rem]
        col = cols[j]
        found = None
        for c in range(min(r // x for r, x in zip(rem, col) if x > 0), -1, -1):
            rest = solve(j + 1, tuple(r - c * x for r, x in zip(rem, col)))
            if rest is not None:
                found = (c,) + rest
                break
        memo[j, rem] = found
        return found

    if any(x < 0 for x in v):
        return None, 0
    return solve(0, v), spent


def member_identity_sweep(sets=300, seed=20261025):
    """Compare ``is_member`` with ``box_bound_member`` on seeded sets.

    Each set has 2-3 rows and 3-5 columns, some parallel to another and
    some sums of two others, so that many are rank-deficient.  Each is
    asked for members, near misses and a random vector.
    Asserts that the answers agree and that ``is_member`` fits within
    the reference's states, and returns a Counter of the cases met.
    """
    rng = Random(seed)
    seen = Counter()
    for _ in range(sets):
        n = rng.randint(2, 3)
        size, cols = rng.randint(3, 5), []
        while len(cols) < size:
            roll = rng.random()
            if cols and roll < 0.2:
                col = tuple(rng.randint(2, 3) * x for x in rng.choice(cols))
            elif len(cols) > 1 and roll < 0.4:
                c, d = rng.sample(cols, 2)
                col = tuple(map(sum, zip(c, d)))
            else:
                col = tuple(rng.randrange(6) for _ in range(n))
            if any(col) and col not in cols:
                cols.append(col)
        gens = SemigroupGens.from_columns(cols, "x")
        targets = [gens.matrix.matvec([rng.randrange(5) for _ in cols])
                   for _ in range(3)]
        targets += [tuple(max(0, x + rng.choice((-1, 1))) for x in t)
                    for t in targets[:2]]
        targets.append(tuple(rng.randrange(30) for _ in range(n)))
        for v in targets:
            want, states = box_bound_member(v, gens)
            case = cols, v
            assert is_member(v, gens, states) == want, case
            try:
                is_member(v, gens, states - 1)
                seen["fewer states"] += 1
            except BoundTooLarge:
                pass
            seen["member" if want is not None else "non-member"] += 1
        seen["rank-deficient"] += fraction_rank(cols) < len(cols)
        seen["searched range"] += independent_suffix(gens.matrix).start > 1
    return seen


# -- reference for decide_pair's arithmetic faces ---------------------------

def search_face_multiples(u, gens, kmax, work_limit):
    """Return ``gluing._face_multiples``'s answer by a membership sweep.

    The sweep as it was before independent and ray faces were answered
    by arithmetic, kept verbatim as the reference: every face is searched
    by ``multiples_in_semigroup``.
    """
    solution, face = _cone_solution(u, gens.matrix)
    if not face:
        return None, ()
    cols, names = gens.matrix.columns(), gens.block.names
    on_face = SemigroupGens(
        IntegerMatrix.from_columns([cols[j] for j in face]),
        VariableBlock(tuple(names[j] for j in face)))
    found = []
    for k, e in sorted(multiples_in_semigroup(u, on_face, kmax,
                                              work_limit).items()):
        at = dict(zip(face, e))
        exps = tuple(at.get(j, 0) for j in range(gens.count))
        # A self-check of the padding; explicit so that -O keeps it.
        if gens.matrix.matvec(exps) != tuple(k * x for x in u):
            raise AssertionError(f"the face witness {exps} misses {k} * {u}")
        found.append((k, exps))
    return solution, tuple(found)


def search_decide_pair(a, b, kmax):
    """Return ``decide_pair``'s record with every face swept by search."""
    real = gluing._face_multiples
    gluing._face_multiples = search_face_multiples
    try:
        return decide_pair(a, b, kmax)
    finally:
        gluing._face_multiples = real


# Numerical monoids with gaps past their least generator.
GAPPED_SCALES = ((6, 10, 15), (3, 5), (4, 6, 9), (5, 7, 8), (6, 7, 8, 11),
                 (2, 3), (4, 10), (9, 12))


def random_direction(rng, ambient):
    """Return a random primitive nonnegative nonzero vector."""
    while True:
        d = tuple(rng.randrange(4) for _ in range(ambient))
        if any(d):
            return primitive(d)


def random_ray_columns(rng, d):
    """Return 1-4 distinct positive multiples of d, in a shuffled order."""
    if rng.random() < 0.3:
        scales = list(rng.choice(GAPPED_SCALES))
    else:
        scales = list({rng.randint(1, 15) for _ in range(rng.randint(1, 4))})
    rng.shuffle(scales)
    return [tuple(s * x for x in d) for s in scales]


def face_pair(rng):
    """Return a rank-compatible pair whose faces of u vary in kind, or None.

    One side is a ray on a primitive direction d in N^2 or N^3.  The other
    is another ray on d; or some multiples of d with off-ray columns,
    which leave d on an extreme ray of their cone or inside it; or
    independent columns, scaled by 1-3, whose positive combination is a
    multiple of d, so that u's cone solution often needs M > 1.  The
    sides are swapped half the time.
    """
    n = rng.randint(2, 3)
    d = random_direction(rng, n)
    ray = random_ray_columns(rng, d)
    kind = rng.randrange(3)
    if kind == 0:
        other = random_ray_columns(rng, d)
    elif kind == 1:
        other = random_ray_columns(rng, d)[:rng.randint(0, 2)]
        for _ in range(rng.randint(1, 3)):
            col = tuple(rng.randrange(5) for _ in range(n))
            if any(col):
                other.append(col)
        rng.shuffle(other)
    else:
        basis = [tuple(rng.randint(1, 3) * rng.randrange(3) for _ in range(n))
                 for _ in range(rng.randint(1, n))]
        if fraction_rank(basis) < len(basis):
            return None
        d = primitive(tuple(sum(rng.randint(1, 3) * c[i] for c in basis)
                            for i in range(n)))
        ray = random_ray_columns(rng, d)
        other = basis + [tuple(rng.randrange(4) for _ in range(n))
                         for _ in range(rng.randint(0, 2))]
    other = [c for c in dict.fromkeys(other) if any(c)]
    if not other:
        return None
    sides = [ray, other]
    rng.shuffle(sides)
    a = SemigroupGens.from_columns(sides[0], "x")
    b = SemigroupGens.from_columns(sides[1], "y")
    return (a, b) if check_rank_conditions(a, b).ok else None


def face_kind(u, gens):
    """Return which path of ``_face_multiples`` decides u's face in gens."""
    solution, face = _cone_solution(u, gens.matrix)
    if not face:
        return "cone miss"
    if all(solution[0][j] for j in face):
        return "independent face, M > 1" if solution[1] > 1 else (
            "independent face, M = 1")
    cols = gens.matrix.columns()
    if all(primitive(cols[j]) == u for j in face):
        nz = next(i for i, x in enumerate(u) if x)
        least = min(cols[j][nz] // u[nz] for j in face)
        return "ray face with gaps" if least > 1 else "ray face"
    return "other face"


def face_identity_sweep(pairs=200, seed=20261024,
                        kmaxes=(1, 7, 12, 30, 50)):
    """Compare ``decide_pair`` with ``search_decide_pair``, whole records.

    The pool is the ``chain_sweep`` benchmark's 200 pairs and ``pairs``
    seeded ``face_pair`` pairs, each decided at every kmax in ``kmaxes``.
    Asserts each comparison and returns a Counter of the face kinds met
    (both sides of every pair) and of the verdicts.
    """
    rng = Random(seed)
    pool = chain_pairs(200)
    while len(pool) < 200 + pairs:
        pair = face_pair(rng)
        if pair is not None:
            pool.append(pair)
    seen = Counter()
    for a, b in pool:
        u = gluable_lattice_point(a, b)
        for gens in (a, b):
            seen[face_kind(u, gens)] += 1
        for kmax in kmaxes:
            got, want = decide_pair(a, b, kmax), search_decide_pair(a, b, kmax)
            assert [getattr(got, f.name) for f in fields(got)] == [
                getattr(want, f.name) for f in fields(want)], (
                a.matrix.columns(), b.matrix.columns(), kmax)
            seen[f"gluable {got.gluing}"] += 1
    return seen


# -- the CLI parser before its command table ---------------------------------

def seed_parser() -> argparse.ArgumentParser:
    """Build the CLI parser as it was built before ``cli._COMMANDS``.

    Its flags follow the commands' flags of today.
    """
    parser = argparse.ArgumentParser(
        prog="semiglue",
        description="decide, certify and construct gluings of affine "
                    "semigroups")
    parser.add_argument("--version", action="version",
                        version=f"semiglue {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("input", help="input file, or - for stdin")
    common.add_argument("--json", action="store_true",
                        help="machine readable output")
    kmax_flag = argparse.ArgumentParser(add_help=False)
    kmax_flag.add_argument("--kmax", type=int, default=None,
                           help="bound on searched multiples")
    work_flag = argparse.ArgumentParser(add_help=False)
    work_flag.add_argument("--work-limit", type=int, default=None,
                           help="bound on enumeration steps")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("lattice-point", parents=[common],
                        help="the primitive point where the spans meet")
    sp.set_defaults(func=cli.cmd_lattice_point)

    sp = sub.add_parser("toric", parents=[common, work_flag],
                        help="minimal generators of the toric ideal of A")
    sp.add_argument("--degree-bound", type=str, default=None,
                    help="also list all ideal binomials within this degree")
    sp.set_defaults(func=cli.cmd_toric)

    sp = sub.add_parser("membership", parents=[common, work_flag],
                        help="decide whether v lies in the semigroup A")
    sp.set_defaults(func=cli.cmd_membership)

    sp = sub.add_parser("check-gluing", parents=[common, work_flag],
                        help="decide whether k1 A and k2 B glue")
    sp.add_argument("--k1", type=int, default=None)
    sp.add_argument("--k2", type=int, default=None)
    sp.set_defaults(func=cli.cmd_check_gluing)

    sp = sub.add_parser("find-gluing", parents=[common, kmax_flag, work_flag],
                        help="search scalings that make A and B glue")
    sp.set_defaults(func=cli.cmd_find_gluing)

    sp = sub.add_parser("audit", parents=[common, kmax_flag, work_flag],
                        help="evaluate the implication chain for A and B")
    sp.add_argument("--k1", type=int, default=None)
    sp.add_argument("--k2", type=int, default=None)
    sp.set_defaults(func=cli.cmd_audit)

    sp = sub.add_parser("embed-glue", parents=[common],
                        help="embed two plane semigroups so that they glue")
    sp.add_argument("--i", type=int, default=None,
                    help="1-based step index of A used for the gluing")
    sp.set_defaults(func=cli.cmd_embed_glue)

    sp = sub.add_parser("betti-glue", parents=[common],
                        help="Betti numbers of a glued ring from the pieces")
    sp.set_defaults(func=cli.cmd_betti_glue)
    return parser

"""Deciding and certifying gluings of affine semigroups.

Two semigroups in the same ambient space, scaled by positive integers
k1 and k2, glue when the toric ideal of the combined generators equals
the two smaller toric ideals plus one extra binomial rho = x^c - y^d
mixing the two variable blocks.  This module computes the lattice point
that any such rho must live over, checks the necessary rank and
membership conditions, searches for certifying data, and decides the
question exactly: a positive answer comes with rho and the verified
ideal identity, a negative answer with the invariant that rules it out.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd
from typing import NamedTuple

from .binomial import (
    Binomial,
    BinomialIdeal,
    Monomial,
    embed,
    ideal_equal,
)
from .exactlin import (
    IntegerMatrix,
    independent_suffix,
    kernel_lattice_basis,
    primitive,
    rank,
)
from .homology import HomologySummary
from .toric import (
    GradedBinomialSet,
    SemigroupGens,
    fiber_monomials,
    toric_ideal,
    toric_ideal_of_matrix,
)

Vector = tuple[int, ...]


class DimensionMismatch(ValueError):
    """Raised when the two semigroups live in different ambient spaces."""


class RankConditionsFail(ValueError):
    """Raised when the column spaces do not meet in a line."""


class NotCoprime(ValueError):
    """Raised when an operation requires coprime scalings."""


class NotInIdeal(ValueError):
    """Raised when a binomial does not belong to the glued toric ideal."""


@dataclass(frozen=True)
class GluingCandidate:
    """The data of a possible gluing: two semigroups and their scalings."""

    a: SemigroupGens
    b: SemigroupGens
    k1: int = 1
    k2: int = 1

    def __post_init__(self) -> None:
        if self.a.ambient != self.b.ambient:
            raise DimensionMismatch(
                f"ambient dimensions differ: {self.a.ambient} vs "
                f"{self.b.ambient}")
        assert isinstance(self.k1, int) and self.k1 >= 1
        assert isinstance(self.k2, int) and self.k2 >= 1
        assert not set(self.a.block.names) & set(self.b.block.names), \
            "the two variable blocks must not share names"

    @property
    def ambient(self) -> int:
        return self.a.ambient

    @property
    def c_block(self):
        return self.a.block.concat(self.b.block)

    @property
    def c_matrix(self) -> IntegerMatrix:
        return self.a.matrix.scaled(self.k1).hstack(
            self.b.matrix.scaled(self.k2))

    @property
    def shared_columns(self) -> tuple:
        """Return index pairs (i, j) with k1 * a_i == k2 * b_j."""
        ca = self.a.matrix.scaled(self.k1).columns()
        cb = self.b.matrix.scaled(self.k2).columns()
        return tuple((i, j) for i, x in enumerate(ca)
                     for j, y in enumerate(cb) if x == y)


@dataclass(frozen=True)
class RankConditions:
    """Ranks of the two generator matrices and of their union."""

    rank_a: int
    rank_b: int
    rank_joint: int
    ambient: int

    @property
    def ok(self) -> bool:
        """Return whether the two column spaces meet in a line."""
        return self.rank_a + self.rank_b == self.rank_joint + 1

    @property
    def full_dimensional(self) -> bool:
        return self.rank_joint == self.ambient

    def require_line(self) -> None:
        """Raise RankConditionsFail unless the column spaces meet in a line."""
        if not self.ok:
            raise RankConditionsFail(
                f"rank {self.rank_a} + rank {self.rank_b} != "
                f"rank {self.rank_joint} + 1: the column spaces do not meet "
                "in a line")


def _meeting_line(a: SemigroupGens,
                  b: SemigroupGens) -> tuple[RankConditions, Vector | None]:
    """Return the rank data of the pair and the primitive meeting point.

    One integer kernel of [A|B] gives both: its rank is the column count
    minus rank [A|B], and each kernel vector (alpha, beta) puts
    A alpha = -B beta in both column spaces.  When those spaces meet in
    a line, these images span it, so the first nonzero A alpha is a
    multiple of the point; otherwise the point is None.
    """
    if a.ambient != b.ambient:
        raise DimensionMismatch(
            f"ambient dimensions differ: {a.ambient} vs {b.ambient}")
    joint = a.matrix.hstack(b.matrix)
    kernel = kernel_lattice_basis(joint)
    rc = RankConditions(rank(a.matrix), rank(b.matrix),
                        joint.cols - len(kernel), a.ambient)
    if not rc.ok:
        return rc, None
    images = (a.matrix.matvec(d[:a.count]) for d in kernel)
    return rc, primitive(next(w for w in images if any(w)))


def check_rank_conditions(a: SemigroupGens, b: SemigroupGens) -> RankConditions:
    """Return the rank data of the pair."""
    return _meeting_line(a, b)[0]


def gluable_lattice_point(a: SemigroupGens, b: SemigroupGens) -> Vector:
    """Return the primitive lattice point spanning the meeting line.

    Requires rank A + rank B = rank [A|B] + 1, so that the two column
    spaces meet in a line; otherwise RankConditionsFail.  The point is
    A alpha for a relation (alpha, beta) in the integer kernel of
    [A|B], normalized to be primitive with positive first nonzero
    coordinate.
    """
    rc, u = _meeting_line(a, b)
    rc.require_line()
    return u


class _MemberPlan(NamedTuple):
    """Per-matrix data for ``is_member``; see ``exactlin.independent_suffix``."""

    cols: tuple[Vector, ...]
    free: int                      # column before the independent tail, or -1
    rows: tuple[int, ...]
    inverse: tuple[Vector, ...]
    denominator: int
    tail: tuple[Vector, ...]       # the tail columns, row by row
    shift: Vector                  # inverse * (free column on rows)


@lru_cache(maxsize=64)
def _member_plan(matrix: IntegerMatrix) -> _MemberPlan:
    cols = matrix.columns()
    suffix = independent_suffix(matrix)
    start, rows, inverse = suffix.start, suffix.rows, suffix.inverse
    shift: Vector = ()
    if start > 0:
        free_col = cols[start - 1]
        shift = tuple(sum(a * free_col[i] for a, i in zip(row, rows))
                      for row in inverse)
    tail = tuple(row[start:] for row in matrix.entries)
    return _MemberPlan(cols, start - 1, rows, inverse, suffix.denominator,
                       tail, shift)


def is_member(v, gens: SemigroupGens):
    """Return exponents e with gens.matrix * e == v, or None.

    Of all solutions e >= 0 the result is the lexicographically largest
    in column order; None means v is not in the semigroup.  The longest
    suffix of linearly independent columns (the tail) is not searched:
    for a given rest of v it has at most one rational solution, read off
    an integer inverse with denominator D.  The column just before the
    tail lies in the tail's span, so the tail solution is affine in that
    column's coefficient c, and the feasible c are an interval
    intersected with one residue class modulo D; the largest is found in
    at most D steps.  Only the columns before that are searched, each
    coefficient in decreasing order, with memoization on the remaining
    target.
    """
    v = tuple(int(x) for x in v)
    if len(v) != gens.ambient:
        raise ValueError(f"vector of length {len(v)} in ambient dimension "
                         f"{gens.ambient}")
    if any(x < 0 for x in v):
        return None
    cols, free, rows, inverse, den, tail, shift = _member_plan(gens.matrix)

    def last(rem: Vector):
        # The tail solution for rem - c * cols[free] is (num - c * shift) / den.
        num = [sum(a * rem[i] for a, i in zip(row, rows)) for row in inverse]
        # It solves every row for one c iff it does for all: check at c = 0.
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
        # The residue condition repeats with period den.
        for c in range(hi, max(lo, hi - den + 1) - 1, -1):
            if all((n - c * s) % den == 0 for n, s in zip(num, shift)):
                return (c,) + tuple((n - c * s) // den
                                    for n, s in zip(num, shift))
        return None

    memo: dict = {}

    def solve(j: int, rem: Vector):
        if j >= free:  # the free column, or the tail when there is none
            return last(rem)
        state = (j, rem)
        if state in memo:
            return memo[state]
        col = cols[j]
        cmax = min(r // c for r, c in zip(rem, col) if c > 0)
        found = None
        for c in range(cmax, -1, -1):
            rest = solve(j + 1, tuple(r - c * x for r, x in zip(rem, col)))
            if rest is not None:
                found = (c,) + rest
                break
        memo[state] = found
        return found

    try:
        return solve(0, v)
    finally:
        # solve reaches itself through its closure; breaking that cycle
        # frees the memo now, not at the next cyclic garbage collection.
        solve = None


def multiples_in_semigroup(u, gens: SemigroupGens, kmax: int = 50) -> dict:
    """Return {k: exponents} for every k <= kmax with k*u in the semigroup."""
    u = tuple(int(x) for x in u)
    if kmax < 1:
        raise ValueError("kmax must be positive")
    if any(x < 0 for x in u):
        return {}
    out = {}
    for k in range(1, kmax + 1):
        sol = is_member(tuple(k * x for x in u), gens)
        if sol is not None:
            out[k] = sol
    return out


def no_multiple_possible(u, gens: SemigroupGens) -> bool:
    """Return True when provably no positive multiple of u lies in the semigroup.

    Two cheap obstructions: a negative coordinate of u, or a coordinate
    where u is positive that no generator vanishing on the zero set of u
    can reach.  False means no obstruction found, not membership.
    """
    u = tuple(int(x) for x in u)
    if any(x < 0 for x in u):
        return True
    zero = [i for i, x in enumerate(u) if x == 0]
    allowed = [c for c in gens.matrix.columns()
               if all(c[i] == 0 for i in zero)]
    for i, x in enumerate(u):
        if x > 0 and all(c[i] == 0 for c in allowed):
            return True
    return False


class CoprimePair(NamedTuple):
    """Coprime scalings with membership witnesses: A c = k2 u, B d = k1 u."""

    k1: int
    k2: int
    c: Vector
    d: Vector


@dataclass(frozen=True)
class NecessaryReport:
    """Outcome of the necessary conditions for some gluing of the pair.

    ``witnesses_a`` and ``witnesses_b`` list (k, exponents) for every
    multiple k u found in each semigroup, by increasing k.
    """

    rank: RankConditions
    u: Vector | None
    ok: bool
    definitive: bool
    witnesses_a: tuple
    witnesses_b: tuple
    detail: str

    @property
    def coprime_pair(self) -> CoprimePair | None:
        """Return the smallest coprime pair among the witnesses, or None.

        k2 u must lie in <A> and k1 u in <B> with gcd(k1, k2) = 1; such
        a pair makes k1 A and k2 B glue.  Pairs are ordered by k1 + k2,
        then k1.
        """
        best = min(((k1 + k2, k1, k2, c, d) for k2, c in self.witnesses_a
                    for k1, d in self.witnesses_b if gcd(k1, k2) == 1),
                   default=None)
        return None if best is None else CoprimePair(*best[1:])


def necessary_conditions(a: SemigroupGens, b: SemigroupGens,
                         kmax: int = 50) -> NecessaryReport:
    """Check the conditions that every gluing of the pair must satisfy.

    The ranks must put the column spaces in a line, and some positive
    multiple of the lattice point must lie in each semigroup.  ``ok``
    False with ``definitive`` False only means no witness was found
    below the bound; with ``definitive`` True there is a proof that
    none exists.
    """
    return _necessary_on_line(a, b, *_meeting_line(a, b), kmax)


def _necessary_on_line(a: SemigroupGens, b: SemigroupGens,
                       rc: RankConditions, u: Vector | None,
                       kmax: int) -> NecessaryReport:
    """Return the necessary-conditions report from the pair's meeting line."""
    if not rc.ok:
        return NecessaryReport(rc, None, False, True, (), (),
                               "the column spaces do not meet in a line")
    wa = tuple(sorted(multiples_in_semigroup(u, a, kmax).items()))
    wb = tuple(sorted(multiples_in_semigroup(u, b, kmax).items()))
    if wa and wb:
        return NecessaryReport(rc, u, True, True, wa, wb,
                               "multiples of the lattice point lie in "
                               "both semigroups")
    empty = [(nm, gens) for nm, got, gens in
             (("first", wa, a), ("second", wb, b)) if not got]
    proven = [nm for nm, gens in empty if no_multiple_possible(u, gens)]
    if proven:
        detail = (f"no positive multiple of {u} can ever lie in the "
                  f"{' or '.join(proven)} semigroup")
        return NecessaryReport(rc, u, False, True, wa, wb, detail)
    names = " or ".join(nm for nm, _ in empty)
    return NecessaryReport(rc, u, False, False, wa, wb,
                           f"no multiple of {u} found in the {names} "
                           f"semigroup up to {kmax}")


def find_coprime_pair(a: SemigroupGens, b: SemigroupGens,
                      kmax: int = 50):
    """Return the smallest coprime pair (k1, k2) certifying a gluing.

    The pair is ``coprime_pair`` of the necessary conditions: None when
    no pair exists below the bound, RankConditionsFail when the column
    spaces do not meet in a line.
    """
    report = necessary_conditions(a, b, kmax)
    report.rank.require_line()
    return report.coprime_pair


def level(w: Binomial, cand: GluingCandidate) -> int:
    """Return the level of a mixed binomial over the gluing candidate.

    Writing w = x^p y^q - x^r y^s, the x-exponent drop alpha = p - r
    satisfies A alpha = k2 * l * u for an integer l, and the y-exponent
    drop on the other side matches it; the level is |l|.  Raises
    NotCoprime unless gcd(k1, k2) = 1, and NotInIdeal when w is not
    homogeneous for the glued grading.
    """
    return _level(w, cand, None)


def _level(w: Binomial, cand: GluingCandidate, u: Vector | None) -> int:
    """Return the level of w, given the meeting point u if already known."""
    assert w.block == cand.c_block
    if gcd(cand.k1, cand.k2) != 1:
        raise NotCoprime(f"scalings {cand.k1}, {cand.k2} share a factor")
    if u is None:
        u = gluable_lattice_point(cand.a, cand.b)
    pa = cand.a.count
    pe, me = w.plus.exponents, w.minus.exponents
    alpha = tuple(x - y for x, y in zip(pe[:pa], me[:pa]))
    beta = tuple(y - x for x, y in zip(pe[pa:], me[pa:]))
    va = cand.a.matrix.matvec(alpha)
    vb = cand.b.matrix.matvec(beta)
    if tuple(cand.k1 * x for x in va) != tuple(cand.k2 * x for x in vb):
        raise NotInIdeal("the binomial is not homogeneous for the glued "
                         "degree, hence not in the glued toric ideal")
    nz = next(i for i, x in enumerate(u) if x != 0)
    scale = Fraction(va[nz], u[nz])
    # Self-checks of the glued grading; explicit so that -O keeps them.
    if any(x != scale * y for x, y in zip(va, u)):
        raise AssertionError(
            f"the glued-homogeneous drop {va} misses the meeting line")
    ell = scale / cand.k2
    if ell.denominator != 1:
        raise AssertionError(
            f"the glued-homogeneous drop {va} has level {ell}, "
            "not an integer")
    return abs(int(ell))


def _mixed_binomial(cand: GluingCandidate, c: Vector, d: Vector) -> Binomial:
    """Return x^c - y^d over the combined block."""
    block = cand.c_block
    pa, pb = cand.a.count, cand.b.count
    return Binomial(Monomial(block, tuple(c) + (0,) * pb),
                    Monomial(block, (0,) * pa + tuple(d)))


def _joined_generators(cand: GluingCandidate, ia: GradedBinomialSet,
                       ib: GradedBinomialSet) -> list:
    block = cand.c_block
    gens = [embed(g, block, 0) for g in ia.ideal.generators]
    gens += [embed(g, block, cand.a.count) for g in ib.ideal.generators]
    return gens


@dataclass(frozen=True, eq=False)
class GluingReport:
    """Everything verify_gluing found out about one candidate."""

    candidate: GluingCandidate
    rank: RankConditions
    u: Vector | None
    is_gluing: bool
    rho: Binomial | None
    rho_level: int | None
    mu_a: int
    mu_b: int
    mu_c: int
    ideal_a: GradedBinomialSet
    ideal_b: GradedBinomialSet
    ideal_c: GradedBinomialSet
    shared_columns: tuple
    homology: HomologySummary
    detail: str


def verify_gluing(cand: GluingCandidate,
                  work_limit: int = 10 ** 6) -> GluingReport:
    """Decide whether the candidate is a gluing, with certificates.

    The decision is exact.  A gluing needs the rank conditions and the
    generator count identity mu(C) = mu(A) + mu(B) + 1; both are
    necessary, so failing either is a definitive no.  When they hold,
    any single binomial completing the two ideals must be a minimal
    generator of the glued ideal, so trying every mixed binomial over
    the minimal generator degrees is a complete search: the first one
    generating the glued ideal is returned as rho, and if none does the
    candidate is definitively not a gluing.
    """
    ia = toric_ideal(cand.a)
    ib = toric_ideal(cand.b)
    ic = toric_ideal_of_matrix(cand.c_matrix, cand.c_block)
    rc, u = _meeting_line(cand.a, cand.b)
    # Scaling the two blocks does not change the rank of [A|B].
    dim_c = rc.rank_joint
    codim_c = cand.c_matrix.cols - dim_c
    if ic.mu == codim_c:
        hom = HomologySummary(dim=dim_c, pd=codim_c, depth=dim_c, ci=True,
                              cm=True, gorenstein=True, mu=ic.mu)
    else:
        hom = HomologySummary(dim=dim_c, ci=False, mu=ic.mu)
    base = dict(candidate=cand, rank=rc, mu_a=ia.mu, mu_b=ib.mu, mu_c=ic.mu,
                ideal_a=ia, ideal_b=ib, ideal_c=ic,
                shared_columns=cand.shared_columns, homology=hom)
    if not rc.ok:
        return GluingReport(u=None, is_gluing=False, rho=None, rho_level=None,
                            detail="the column spaces do not meet in a line",
                            **base)
    if ic.mu != ia.mu + ib.mu + 1:
        return GluingReport(
            u=u, is_gluing=False, rho=None, rho_level=None,
            detail=(f"generator counts rule it out: {ic.mu} != "
                    f"{ia.mu} + {ib.mu} + 1"), **base)
    weights_c = tuple(sum(c) for c in cand.c_matrix.columns())
    joined = _joined_generators(cand, ia, ib)

    def completes(rho: Binomial) -> bool:
        glued = BinomialIdeal(cand.c_block, tuple(joined) + (rho,))
        return ideal_equal(glued, ic.ideal, weights_c)

    if gcd(cand.k1, cand.k2) == 1:
        c_wit = is_member(tuple(cand.k2 * x for x in u), cand.a)
        d_wit = is_member(tuple(cand.k1 * x for x in u), cand.b)
        if c_wit is not None and d_wit is not None:
            rho = _mixed_binomial(cand, c_wit, d_wit)
            # Self-checks of the witnesses; explicit so that -O keeps them.
            if not completes(rho):
                raise AssertionError(
                    "coprime membership witnesses always give a gluing")
            lev = _level(rho, cand, u)
            if lev != 1:
                raise AssertionError(
                    f"coprime membership witnesses give level {lev}, not 1")
            return GluingReport(u=u, is_gluing=True, rho=rho, rho_level=lev,
                                detail="glued by coprime membership "
                                       "witnesses", **base)
    degrees = sorted(set(ic.adegrees.values()), key=lambda d: (sum(d), d))
    tried = set()
    for deg in degrees:
        if any(x % cand.k1 for x in deg):
            xs: tuple = ()
        else:
            xs = fiber_monomials(cand.a.matrix,
                                 tuple(x // cand.k1 for x in deg), work_limit)
        if not xs:
            continue
        if any(x % cand.k2 for x in deg):
            continue
        ys = fiber_monomials(cand.b.matrix,
                             tuple(x // cand.k2 for x in deg), work_limit)
        for c in xs:
            if all(x == 0 for x in c):
                continue
            for d in ys:
                if all(x == 0 for x in d):
                    continue
                rho = _mixed_binomial(cand, c, d)
                if rho in tried:
                    continue
                tried.add(rho)
                if completes(rho):
                    try:
                        lev = _level(rho, cand, u)
                    except NotCoprime:
                        lev = None
                    return GluingReport(
                        u=u, is_gluing=True, rho=rho, rho_level=lev,
                        detail="glued by a mixed minimal generator", **base)
    return GluingReport(u=u, is_gluing=False, rho=None, rho_level=None,
                        detail="no single mixed binomial completes the two "
                               "ideals", **base)


def _cone_solution(v, matrix: IntegerMatrix):
    """Return (exponents, multiplier) with matrix*exponents == multiplier*v.

    The exponents are nonnegative integers and the multiplier positive,
    so this witnesses that v lies in the rational cone of the columns.
    None when v is outside the cone.  A column subset solves for v
    exactly when the kernel of [subset | v] is a line whose primitive
    generator d has d_last != 0; then the subset is independent, and
    |d_last| is the least multiplier making the solution integral.
    """
    cols = matrix.columns()
    p = len(cols)
    r = rank(matrix)
    for size in range(1, r + 1):
        for subset in combinations(range(p), size):
            basis = kernel_lattice_basis(
                IntegerMatrix.from_columns([cols[j] for j in subset] + [v]))
            if len(basis) != 1 or basis[0][-1] == 0:
                continue
            d = basis[0]
            sign = -1 if d[-1] > 0 else 1
            lam = [sign * x for x in d[:-1]]
            if any(x < 0 for x in lam):
                continue
            exps = [0] * p
            for j, x in zip(subset, lam):
                exps[j] = x
            return tuple(exps), abs(d[-1])
    return None


def in_cone(v, matrix: IntegerMatrix) -> bool:
    """Return whether v lies in the rational cone spanned by the columns.

    Exact, by testing independent column subsets; any cone member lies
    in the cone of an independent subset.
    """
    v = tuple(int(x) for x in v)
    if all(x == 0 for x in v):
        return True
    return _cone_solution(v, matrix) is not None


@dataclass(frozen=True)
class PairDecision:
    """A three-valued gluability answer with its evidence."""

    gluable: bool | None
    pair: tuple | None
    u: Vector | None
    witness_a: Vector | None
    witness_b: Vector | None
    reason: str


def decide_on_line(a: SemigroupGens, b: SemigroupGens,
                   report: NecessaryReport, kmax: int) -> PairDecision:
    """Decide a pair whose column spaces meet in a line, from its report.

    True with the smallest coprime pair among the report's witnesses;
    False when the lattice point misses either rational cone, since a
    multiple in a semigroup lies in its cone; otherwise None.
    """
    u = report.u
    found = report.coprime_pair
    if found is not None:
        return PairDecision(True, (found.k1, found.k2), u, found.c, found.d,
                            "coprime multiples of the lattice point lie in "
                            "both semigroups")
    for name, gens in (("first", a), ("second", b)):
        if not in_cone(u, gens.matrix):
            return PairDecision(False, None, u, None, None,
                                f"the lattice point {u} misses the cone of "
                                f"the {name} semigroup")
    return PairDecision(None, None, u, None, None,
                        f"no coprime pair found up to {kmax}")


@dataclass(frozen=True, eq=False)
class ChainAudit:
    """The implication chain for a pair, each link three-valued.

    gluing: some scalings make the pair glue; multiples: some positive
    multiple of the lattice point lies in each semigroup; cone_meet:
    the two rational cones share a nonzero point; semigroup_meet: the
    two semigroups share a nonzero element.  gluing implies multiples
    implies cone_meet, and cone_meet holds exactly when semigroup_meet
    does.  None records that a bounded search was inconclusive.
    """

    rank: RankConditions
    u: Vector | None
    gluing: bool | None
    multiples: bool | None
    cone_meet: bool | None
    semigroup_meet: bool | None
    pair: tuple | None
    common_element: Vector | None
    violations: tuple


def implication_chain_audit(a: SemigroupGens, b: SemigroupGens,
                            kmax: int = 50, try_pairs=()) -> ChainAudit:
    """Evaluate the implication chain on one pair of semigroups.

    The gluing link is searched via coprime membership witnesses up to
    kmax plus any explicitly supplied (k1, k2) pairs, which are then
    fully verified.  A nonzero common semigroup element is constructed
    whenever the cones meet, making the last equivalence concrete.
    """
    nr = necessary_conditions(a, b, kmax)
    rc, u = nr.rank, nr.u
    if not rc.ok:
        return ChainAudit(rc, None, False, None, None, None, None, None, ())
    mult = True if nr.ok else (False if nr.definitive else None)
    # The cones can meet on the line only along u: -u has a negative
    # coordinate, and the generators are nonnegative.
    common = None
    sol_a = _cone_solution(u, a.matrix)
    sol_b = sol_a and _cone_solution(u, b.matrix)
    if sol_b:
        (ea, na), (eb, nb) = sol_a, sol_b
        common = tuple(na * nb * x for x in u)
        assert a.matrix.matvec(tuple(nb * e for e in ea)) == common
        assert b.matrix.matvec(tuple(na * e for e in eb)) == common
    cone_meet = common is not None
    pair = None
    glue: bool | None = None
    cp = nr.coprime_pair
    if cp is not None:
        pair = (cp.k1, cp.k2)
        glue = True
    else:
        for k1, k2 in try_pairs:
            report = verify_gluing(GluingCandidate(a, b, k1, k2))
            if report.is_gluing:
                pair = (k1, k2)
                glue = True
                break
    if glue is None and (mult is False or not cone_meet):
        glue = False
    violations = []
    if glue is True and mult is False:
        violations.append("a gluing exists but provably no multiple of the "
                          "lattice point lies in both semigroups")
    if mult is True and not cone_meet:
        violations.append("multiples lie in both semigroups but the cones "
                          "meet only at the origin")
    return ChainAudit(rc, u, glue, mult, cone_meet, cone_meet, pair, common,
                      tuple(violations))

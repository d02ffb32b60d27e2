"""Deciding and certifying gluings of affine semigroups.

Two semigroups in the same ambient space, scaled by positive integers
k1 and k2, glue when the toric ideal of the combined generators equals
the two smaller toric ideals plus one extra binomial rho = x^c - y^d
mixing the two variable blocks.  This module computes the lattice point
u that any such rho must live over and decides two questions.
``decide_pair`` asks whether some scalings glue a pair: yes with
coprime membership witnesses, no when the ranks, an obstruction to
membership or a rational cone rule it out, otherwise open within its
bound.  ``verify_gluing`` decides one candidate exactly by Rosales'
lattice criterion (Semigroup Forum 55, 1997): the column spaces meet
in a line, and the least multiple L u in both scaled groups lies in
both scaled semigroups.  A positive answer comes with rho, a negative
answer with the invariant that rules it out.  The implication-chain
audit reads ``decide_pair``'s record.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations
from math import gcd, lcm
from typing import NamedTuple

from .binomial import Binomial, ideal_equal  # noqa: F401  (perfbench wraps it)
from .exactlin import (
    IntegerMatrix,
    independent_suffix,
    kernel_lattice_basis,
    primitive,
    rank,
)
from .homology import HomologySummary
from .toric import (
    BoundTooLarge,
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
        if not all(isinstance(k, int) and k >= 1 for k in (self.k1, self.k2)):
            raise ValueError("k1 and k2 must be positive")
        if self.a.ambient != self.b.ambient:
            raise DimensionMismatch(
                f"ambient dimensions differ: {self.a.ambient} vs "
                f"{self.b.ambient}")
        if set(self.a.block.names) & set(self.b.block.names):
            raise ValueError("the two variable blocks must not share names")

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


def is_member(v, gens: SemigroupGens, work_limit: int = 10 ** 6):
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
    target.  Every state the search enters, a memoized one or the tail
    included, counts against work_limit, and the search raises
    ``BoundTooLarge`` when their number passes it.
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
    spent = 0

    def solve(j: int, rem: Vector):
        nonlocal spent
        spent += 1
        if spent > work_limit:
            raise BoundTooLarge(f"membership search passed {work_limit} "
                                "states")
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


def level(w: Binomial, cand: GluingCandidate) -> int:
    """Return the level of a mixed binomial over the gluing candidate.

    Writing w = x^p y^q - x^r y^s, the x-exponent drop alpha = p - r
    satisfies A alpha = k2 * l * u for an integer l, and the y-exponent
    drop on the other side matches it; the level is |l|.  Raises
    ValueError unless w is written over the candidate's block,
    NotCoprime unless gcd(k1, k2) = 1, and NotInIdeal when w is not
    homogeneous for the glued grading.
    """
    if w.block != cand.c_block:
        raise ValueError(f"the binomial is over {w.block.names}, not the "
                         f"candidate's block {cand.c_block.names}")
    if gcd(cand.k1, cand.k2) != 1:
        raise NotCoprime(f"scalings {cand.k1}, {cand.k2} share a factor")
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
    pa, pb = cand.a.count, cand.b.count
    return Binomial.from_pair(cand.c_block, (tuple(c) + (0,) * pb,
                                             (0,) * pa + tuple(d)))


def _line_index(gens: SemigroupGens, u: Vector) -> int:
    """Return m such that ZA and Ru meet in m Zu, for u in the span RA.

    A kernel vector (alpha, t) of [A | -u] has A alpha = t u, so the
    last coordinates of a kernel lattice basis generate the ideal mZ.
    """
    column = IntegerMatrix.from_columns([tuple(-x for x in u)])
    basis = kernel_lattice_basis(gens.matrix.hstack(column))
    return gcd(*(d[-1] for d in basis))


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
    shared_columns: tuple
    homology: HomologySummary
    detail: str


def verify_gluing(cand: GluingCandidate,
                  work_limit: int = 10 ** 6) -> GluingReport:
    """Decide whether the candidate is a gluing, with certificates.

    The decision is exact and needs only lattice data (Rosales, "On
    presentations of subsemigroups of N^n", Semigroup Forum 55, 1997):
    k1 A and k2 B glue iff the column spaces meet in a line through u
    and L u lies in both k1<A> and k2<B>, where Ru meets ZA in m_A Zu
    and ZB in m_B Zu, and L = lcm(k1 m_A, k2 m_B).  Every binomial
    x^c - y^d of degree L u then completes the two ideals.  With coprime
    scalings and L = k1 k2, rho comes from the two membership witnesses;
    otherwise from the first vector of each fiber over L u.  work_limit
    bounds the two membership searches and that walk.  A gluing has
    mu(C) = mu(A) + mu(B) + 1; only a negative answer computes the glued
    ideal, whose generator count says whether mu already rules the
    candidate out.
    """
    ia = toric_ideal(cand.a)
    ib = toric_ideal(cand.b)
    rc, u = _meeting_line(cand.a, cand.b)
    k1, k2 = cand.k1, cand.k2
    rho = lev = d = None
    if rc.ok:
        ell = lcm(k1 * _line_index(cand.a, u), k2 * _line_index(cand.b, u))
        va = tuple(ell // k1 * x for x in u)
        vb = tuple(ell // k2 * x for x in u)
        c = is_member(va, cand.a, work_limit)
        d = None if c is None else is_member(vb, cand.b, work_limit)
    if d is not None:
        coprime = gcd(k1, k2) == 1
        if coprime and ell == k1 * k2:
            detail = "glued by coprime membership witnesses"
        else:
            # Any pair over L u completes; the first of each fiber is rho.
            c = fiber_monomials(cand.a.matrix, va, work_limit)[0]
            d = fiber_monomials(cand.b.matrix, vb, work_limit)[0]
            detail = "glued by a mixed minimal generator"
        # Self-checks of rho's degree; explicit so that -O keeps them.
        for name, gens, e, v in (("first", cand.a, c, va),
                                 ("second", cand.b, d, vb)):
            if gens.matrix.matvec(e) != v:
                raise AssertionError(f"the {name} exponents {e} of rho "
                                     f"miss the degree {v}")
        rho = _mixed_binomial(cand, c, d)
        lev = ell // (k1 * k2) if coprime else None
        mu_c = ia.mu + ib.mu + 1
    else:
        mu_c = toric_ideal_of_matrix(cand.c_matrix, cand.c_block).mu
        if not rc.ok:
            detail = "the column spaces do not meet in a line"
        elif mu_c != ia.mu + ib.mu + 1:
            detail = (f"generator counts rule it out: {mu_c} != "
                      f"{ia.mu} + {ib.mu} + 1")
        else:
            detail = "no single mixed binomial completes the two ideals"
    # Scaling the two blocks does not change the rank of [A|B].
    dim_c = rc.rank_joint
    codim_c = cand.c_matrix.cols - dim_c
    if mu_c == codim_c:
        hom = HomologySummary.make(dim_c, codim_c, dim_c, ci=True, mu=mu_c)
    else:
        hom = HomologySummary.make(dim_c, ci=False, mu=mu_c)
    return GluingReport(cand, rc, u, rho is not None, rho, lev, ia.mu, ib.mu,
                        mu_c, cand.shared_columns, hom, detail)


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


@dataclass(frozen=True, eq=False)
class PairDecision:
    """Whether some scalings glue a pair, with the evidence for each step.

    ``witnesses_a`` and ``witnesses_b`` list (k, exponents) for every
    multiple k u up to kmax in each semigroup.  ``multiples`` is True
    when both lists are nonempty, False when the column spaces do not
    meet in a line or a cheap obstruction proves that no multiple of u
    lies in some side, and None otherwise; ``detail`` says which.
    ``pair`` is the smallest coprime (k1, k2) among the witnesses,
    ordered by k1 + k2 and then k1, with A witness_a = k2 u and
    B witness_b = k1 u; such a pair makes k1 A and k2 B glue.
    """

    a: SemigroupGens
    b: SemigroupGens
    kmax: int
    rank: RankConditions
    u: Vector | None
    witnesses_a: tuple
    witnesses_b: tuple
    multiples: bool | None
    detail: str
    pair: tuple | None = None
    witness_a: Vector | None = None
    witness_b: Vector | None = None

    @cached_property
    def cone_solutions(self) -> tuple:
        """Return u's cone solutions (exponents, multiplier) in A and B.

        None marks a side whose rational cone u misses; B is solved only
        when A's cone holds u.  The cones can meet on the line only along
        u: -u has a negative coordinate, and the generators are
        nonnegative.
        """
        if self.u is None:
            return None, None
        sol_a = _cone_solution(self.u, self.a.matrix)
        return sol_a, sol_a and _cone_solution(self.u, self.b.matrix)

    @property
    def common_element(self) -> Vector | None:
        """Return a nonzero element of both semigroups, or None.

        Such an element exists exactly when both cones hold u.
        """
        sol_a, sol_b = self.cone_solutions
        if sol_b is None:
            return None
        (ea, na), (eb, nb) = sol_a, sol_b
        common = tuple(na * nb * x for x in self.u)
        # Self-checks of the cone solutions; explicit so that -O keeps them.
        for name, gens, exps, mult in (("first", self.a, ea, nb),
                                       ("second", self.b, eb, na)):
            if gens.matrix.matvec(tuple(mult * e for e in exps)) != common:
                raise AssertionError(f"the {name} cone solution misses "
                                     f"the common element {common}")
        return common

    @property
    def gluable(self) -> bool | None:
        """Return True with a coprime pair, False when none can exist.

        No pair exists when multiples are ruled out or u misses either
        cone, since a multiple in a semigroup lies in its cone; otherwise
        the bounded search is inconclusive and the answer is None.
        """
        if self.pair is not None:
            return True
        if self.multiples is False or None in self.cone_solutions:
            return False
        return None

    @property
    def reason(self) -> str:
        """Return the sentence that justifies ``gluable``.

        A proven obstruction to multiples is named by the cone it
        implies u misses; the ranks' failure by ``detail``.
        """
        if self.pair is not None:
            return ("coprime multiples of the lattice point lie in both "
                    "semigroups")
        if not self.rank.ok:
            return self.detail
        for name, sol in zip(("first", "second"), self.cone_solutions):
            if sol is None:
                return (f"the lattice point {self.u} misses the cone of the "
                        f"{name} semigroup")
        return f"no coprime pair found up to {self.kmax}"


def decide_pair(a: SemigroupGens, b: SemigroupGens,
                kmax: int = 50) -> PairDecision:
    """Decide whether some scalings k1, k2 make k1 A and k2 B glue.

    One integer kernel of [A|B] gives the ranks and the lattice point u,
    and one membership sweep per side finds the multiples of u up to
    kmax.  Every gluing needs the column spaces to meet in a line and a
    multiple of u in each semigroup; coprime multiples suffice.  The
    cone solutions of u are solved only when read.
    """
    return _decide_on_line(a, b, kmax, *_meeting_line(a, b))


def _decide_on_line(a: SemigroupGens, b: SemigroupGens, kmax: int,
                    rc: RankConditions, u: Vector | None) -> PairDecision:
    """Return decide_pair's record, given the pair's ``_meeting_line``."""
    if not rc.ok:
        return PairDecision(a, b, kmax, rc, None, (), (), False,
                            "the column spaces do not meet in a line")
    wa = tuple(sorted(multiples_in_semigroup(u, a, kmax).items()))
    wb = tuple(sorted(multiples_in_semigroup(u, b, kmax).items()))
    if wa and wb:
        best = min(((k1 + k2, k1, k2, c, d) for k2, c in wa for k1, d in wb
                    if gcd(k1, k2) == 1), default=None)
        found = {} if best is None else dict(
            pair=best[1:3], witness_a=best[3], witness_b=best[4])
        return PairDecision(a, b, kmax, rc, u, wa, wb, True,
                            "multiples of the lattice point lie in both "
                            "semigroups", **found)
    empty = [(nm, gens) for nm, got, gens in
             (("first", wa, a), ("second", wb, b)) if not got]
    proven = [nm for nm, gens in empty if no_multiple_possible(u, gens)]
    if proven:
        return PairDecision(a, b, kmax, rc, u, wa, wb, False,
                            f"no positive multiple of {u} can ever lie in "
                            f"the {' or '.join(proven)} semigroup")
    names = " or ".join(nm for nm, _ in empty)
    return PairDecision(a, b, kmax, rc, u, wa, wb, None,
                        f"no multiple of {u} found in the {names} semigroup "
                        f"up to {kmax}")


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

    The gluing link is decide_pair's verdict; without a coprime pair,
    any explicitly supplied (k1, k2) pairs are fully verified.  A
    nonzero common semigroup element is constructed whenever the cones
    meet, making the last equivalence concrete.
    """
    d = decide_pair(a, b, kmax)
    if not d.rank.ok:
        return ChainAudit(d.rank, None, False, None, None, None, None, None,
                          ())
    mult, common = d.multiples, d.common_element
    cone_meet = common is not None
    glue, pair = d.gluable, d.pair
    if pair is None:
        for k1, k2 in try_pairs:
            if verify_gluing(GluingCandidate(a, b, k1, k2)).is_gluing:
                glue, pair = True, (k1, k2)
                break
    violations = []
    if glue is True and mult is False:
        violations.append("a gluing exists but provably no multiple of the "
                          "lattice point lies in both semigroups")
    if mult is True and not cone_meet:
        violations.append("multiples lie in both semigroups but the cones "
                          "meet only at the origin")
    return ChainAudit(d.rank, d.u, glue, mult, cone_meet, cone_meet, pair,
                      common, tuple(violations))

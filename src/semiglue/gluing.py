"""Deciding and certifying gluings of affine semigroups.

Two semigroups in the same ambient space, scaled by positive integers
k1 and k2, glue when the toric ideal of the combined generators equals
the two smaller toric ideals plus one extra binomial rho = x^c - y^d
mixing the two variable blocks.  This module computes the lattice point
u that any such rho must live over and decides two questions.
``decide_pair`` asks whether some scalings glue a pair: yes with
coprime membership witnesses, no when the ranks, an obstruction to
membership or a rational cone rule it out, otherwise open within its
bound.  It solves u in each rational cone once; that one subset loop
also gives F, the columns on the smallest face of the cone that holds
u, and the multiples k u are found only over F and only for k in g N,
where ZF meets Ru in g Zu: by arithmetic when F is independent or a
ray, by a membership search otherwise.  ``verify_gluing`` decides one
candidate exactly by Rosales' lattice criterion (Semigroup Forum 55,
1997): the column spaces meet in a line, and the least multiple L u in
both scaled groups lies in both scaled semigroups.  A positive answer
comes with rho; the report's reason, generator counts and homology
are computed from the decision when read.  The implication-chain
audit reads ``decide_pair``'s record.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from math import gcd, lcm
from operator import mul
from typing import NamedTuple

from .binomial import (  # noqa: F401  (perfbench wraps ideal_equal)
    Binomial,
    VariableBlock,
    ideal_equal,
)
from .exactlin import (
    IntegerMatrix,
    _bareiss,
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
from .value import Value

Vector = tuple[int, ...]


class DimensionMismatch(ValueError):
    """Raised when the two semigroups live in different ambient spaces."""


class RankConditionsFail(ValueError):
    """Raised when the column spaces do not meet in a line."""


class NotCoprime(ValueError):
    """Raised when an operation requires coprime scalings."""


class NotInIdeal(ValueError):
    """Raised when a binomial does not belong to the glued toric ideal."""


class GluingCandidate(Value):
    """The data of a possible gluing: two semigroups and their scalings."""

    __slots__ = _fields = ("a", "b", "k1", "k2")

    def __init__(self, a: SemigroupGens, b: SemigroupGens, k1: int = 1,
                 k2: int = 1) -> None:
        if not all(isinstance(k, int) and k >= 1 for k in (k1, k2)):
            raise ValueError("k1 and k2 must be positive")
        if a.ambient != b.ambient:
            raise DimensionMismatch(
                f"ambient dimensions differ: {a.ambient} vs {b.ambient}")
        if set(a.block.names) & set(b.block.names):
            raise ValueError("the two variable blocks must not share names")
        self._store(a, b, k1, k2)

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


class RankConditions(Value):
    """Ranks of the two generator matrices and of their union."""

    __slots__ = _fields = ("rank_a", "rank_b", "rank_joint", "ambient")

    def __init__(self, rank_a: int, rank_b: int, rank_joint: int,
                 ambient: int) -> None:
        self._store(rank_a, rank_b, rank_joint, ambient)

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

    One fraction-free reduction of [A|B] gives both: its pivot count is
    rank [A|B], its pivots in A's columns number rank A (pivots are taken
    column by column), and each other column f gives a kernel vector
    (alpha, beta), d at f and minus the reduced rows' column f at their
    pivots.
    The images A alpha = -B beta span the meet of the column spaces; when
    that is a line, the first nonzero one, made primitive, is the point,
    which is unique up to the sign ``primitive`` fixes; else None.
    """
    if a.ambient != b.ambient:
        raise DimensionMismatch(
            f"ambient dimensions differ: {a.ambient} vs {b.ambient}")
    p = a.count
    rows, pivots = _bareiss(a.matrix.hstack(b.matrix).entries)
    rc = RankConditions(sum(c < p for c in pivots), rank(b.matrix),
                        len(pivots), a.ambient)
    if not rc.ok:
        return rc, None
    d = rows[0][pivots[0]]

    def image(f):
        x = [d * (j == f) for j in range(p + b.count)]
        for row, c in zip(rows, pivots):
            x[c] = -row[f]
        return a.matrix.matvec(x[:p])

    images = (image(f) for f in range(p + b.count) if f not in pivots)
    return rc, primitive(next(w for w in images if any(w)))


def check_rank_conditions(a: SemigroupGens, b: SemigroupGens) -> RankConditions:
    """Return the rank data of the pair."""
    return _meeting_line(a, b)[0]


def gluable_lattice_point(a: SemigroupGens, b: SemigroupGens) -> Vector:
    """Return the primitive lattice point spanning the meeting line.

    Requires rank A + rank B = rank [A|B] + 1, so that the two column
    spaces meet in a line; otherwise RankConditionsFail.  The point is
    A alpha for a relation (alpha, beta) in the kernel of [A|B],
    normalized to be primitive with positive first nonzero
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
    bounds: tuple                  # (form, a): form * rem - c * a >= 0


@lru_cache(maxsize=64)
def _member_plan(matrix: IntegerMatrix) -> _MemberPlan:
    cols = matrix.columns()
    suffix = independent_suffix(matrix)
    start, rows, inverse = suffix.start, suffix.rows, suffix.inverse

    def times(col):
        return tuple(sum(a * col[i] for a, i in zip(row, rows))
                     for row in inverse)

    shift: Vector = ()
    bounds: list = []
    if start > 0:
        shift = times(cols[start - 1])
    if start > 1:
        # The rows of num - c * a - f * shift >= 0 with f >= 0 eliminated
        # (see is_member), num = inverse * rem on rows: each row where
        # f = 0 fits, and -s_k * row i + s_i * row k for s_i > 0 > s_k.
        a = times(cols[start - 2])
        for i, s in enumerate(shift):
            if s >= 0:
                bounds.append((inverse[i], a[i]))
            for k, t in enumerate(shift):
                if s > 0 > t:
                    bounds.append((
                        tuple(s * y - t * x
                              for x, y in zip(inverse[i], inverse[k])),
                        s * a[k] - t * a[i]))
    tail = tuple(row[start:] for row in matrix.entries)
    return _MemberPlan(cols, start - 1, rows, inverse, suffix.denominator,
                       tail, shift, tuple(bounds))


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

    Each searched coefficient runs down from its box bound, except the
    last one, c, just before the free column.  With num the tail
    solution's numerator for the rest of v, a that of c's column and f
    the free column's coefficient, the tail is (num - c * a - f * shift)
    / D, and c is scanned only over the c >= 0 for which some real
    f >= 0 keeps that tail >= 0.  Eliminating f (Fourier-Motzkin) leaves
    one row for each i with shift_i >= 0, where f = 0 must fit, and one
    for each pair of an upper and a lower bound on f; each row,
    n - c * a' >= 0 in integers, bounds c by one floor or ceiling
    division.  A c outside that range has no real completion, so no
    integer one: the search skips no solution, and the answer is the
    same as the full box scan's.
    """
    v = tuple(int(x) for x in v)
    if len(v) != gens.ambient:
        raise ValueError(f"vector of length {len(v)} in ambient dimension "
                         f"{gens.ambient}")
    if any(x < 0 for x in v):
        return None
    cols, free, rows, inverse, den, tail, shift, bounds = \
        _member_plan(gens.matrix)

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
        cmin, cmax = 0, min(r // c for r, c in zip(rem, col) if c > 0)
        if j == free - 1:
            part = [rem[i] for i in rows]
            for form, a in bounds:
                n = sum(map(mul, form, part))
                if a > 0:
                    cmax = min(cmax, n // a)
                elif a < 0:
                    cmin = max(cmin, -(n // -a))
                elif n < 0:
                    cmax = -1
        found = None
        for c in range(cmax, cmin - 1, -1):
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


def multiples_in_semigroup(u, gens: SemigroupGens, kmax: int = 50,
                           work_limit: int = 10 ** 6) -> dict:
    """Return {k: exponents} for every k <= kmax with k*u in the semigroup.

    Only k in m N are searched, where ZA meets Ru in m Zu
    (``_line_index``): A e = k u puts k u in that meet, so m divides k.
    m = 0 when u is outside the span RA, and then no multiple of u lies
    in the semigroup.  ``decide_pair`` calls this on the face F of u,
    whose index is g; each search runs within work_limit, and so does
    the sweep's length kmax // m, checked before any search.
    """
    u = tuple(int(x) for x in u)
    if kmax < 1:
        raise ValueError("kmax must be positive")
    if any(x < 0 for x in u):
        return {}
    step = _line_index(gens, u)
    if not step:
        return {}
    if kmax // step > work_limit:
        raise BoundTooLarge(f"listing the multiples up to {kmax} "
                            f"passed {work_limit} steps")
    out = {}
    for k in range(step, kmax + 1, step):
        sol = is_member(tuple(k * x for x in u), gens, work_limit)
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
    # va = (va[nz] / u[nz]) u, and the level is va[nz] / (k2 u[nz]).
    # Self-checks of the glued grading; explicit so that -O keeps them.
    if any(x * u[nz] != va[nz] * y for x, y in zip(va, u)):
        raise AssertionError(
            f"the glued-homogeneous drop {va} misses the meeting line")
    num, den = va[nz], cand.k2 * u[nz]
    if num % den:
        g = gcd(num, den) if den > 0 else -gcd(num, den)
        raise AssertionError(
            f"the glued-homogeneous drop {va} has level "
            f"{num // g}/{den // g}, not an integer")
    return abs(num // den)


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
    """The decision verify_gluing made about one candidate.

    The rest is derived from the decision when first read, then kept:
    ``detail`` (coprime witnesses for a yes exactly at level 1; for a no
    with a meeting line, whether mu rules it out), and mu_a, mu_b, mu_c
    and the homology summary, with mu(C) = mu(A) + mu(B) + 1 for a
    gluing and the glued ideal's count otherwise.  The record has no
    ``__slots__``, so that ``cached_property`` can store them, and
    ``dataclasses.replace`` copies only the decision.
    """

    candidate: GluingCandidate
    rank: RankConditions
    u: Vector | None
    is_gluing: bool
    rho: Binomial | None
    rho_level: int | None

    @cached_property
    def detail(self) -> str:
        if self.is_gluing:
            if self.rho_level == 1:
                return "glued by coprime membership witnesses"
            return "glued by a mixed minimal generator"
        if not self.rank.ok:
            return "the column spaces do not meet in a line"
        mu_a, mu_b, mu_c = self.mu_a, self.mu_b, self.mu_c
        if mu_c != mu_a + mu_b + 1:
            return (f"generator counts rule it out: {mu_c} != "
                    f"{mu_a} + {mu_b} + 1")
        return "no single mixed binomial completes the two ideals"

    @cached_property
    def mu_a(self) -> int:
        return toric_ideal(self.candidate.a).mu

    @cached_property
    def mu_b(self) -> int:
        return toric_ideal(self.candidate.b).mu

    @cached_property
    def mu_c(self) -> int:
        if self.is_gluing:
            return self.mu_a + self.mu_b + 1
        cand = self.candidate
        return toric_ideal_of_matrix(cand.c_matrix, cand.c_block).mu

    @cached_property
    def homology(self) -> HomologySummary:
        # Scaling the two blocks does not change the rank of [A|B].
        return HomologySummary.from_count(
            self.rank.rank_joint, self.candidate.c_matrix.cols, self.mu_c)


def verify_gluing(cand: GluingCandidate,
                  work_limit: int = 10 ** 6) -> GluingReport:
    """Decide whether the candidate is a gluing, with rho for a yes.

    The decision is exact and needs only lattice data (Rosales, "On
    presentations of subsemigroups of N^n", Semigroup Forum 55, 1997):
    k1 A and k2 B glue iff the column spaces meet in a line through u
    and L u lies in both k1<A> and k2<B>, where Ru meets ZA in m_A Zu
    and ZB in m_B Zu, and L = lcm(k1 m_A, k2 m_B).  Every binomial
    x^c - y^d of degree L u then completes the two ideals.  With coprime
    scalings and L = k1 k2, rho comes from the two membership witnesses;
    otherwise from the first vector of each fiber over L u.  work_limit
    bounds the two membership searches and that walk.  The call
    computes no toric ideal, whatever the verdict; the report's detail,
    mu and homology are computed when read.
    """
    return _verify_on_line(cand, *_meeting_line(cand.a, cand.b), work_limit)


def _verify_on_line(cand: GluingCandidate, rc: RankConditions,
                    u: Vector | None, work_limit: int) -> GluingReport:
    """Return verify_gluing's report, given the pair's ``_meeting_line``."""
    k1, k2 = cand.k1, cand.k2
    rho = lev = d = None
    if rc.ok:
        ell = lcm(k1 * _line_index(cand.a, u), k2 * _line_index(cand.b, u))
        va = tuple(ell // k1 * x for x in u)
        vb = tuple(ell // k2 * x for x in u)
        c = is_member(va, cand.a, work_limit)
        d = None if c is None else is_member(vb, cand.b, work_limit)
    if d is not None:
        # Level 1 means coprime scalings and L = k1 k2: the witnesses glue.
        lev = ell // (k1 * k2) if gcd(k1, k2) == 1 else None
        if lev != 1:
            # Any pair over L u completes; the first of each fiber is rho.
            c = fiber_monomials(cand.a.matrix, va, work_limit)[0]
            d = fiber_monomials(cand.b.matrix, vb, work_limit)[0]
        # Self-checks of rho's degree; explicit so that -O keeps them.
        for name, gens, e, v in (("first", cand.a, c, va),
                                 ("second", cand.b, d, vb)):
            if gens.matrix.matvec(e) != v:
                raise AssertionError(f"the {name} exponents {e} of rho "
                                     f"miss the degree {v}")
        rho = _mixed_binomial(cand, c, d)
    return GluingReport(cand, rc, u, rho is not None, rho, lev)


def _cone_solution(v, matrix: IntegerMatrix):
    """Return (first, face) for v, which must be nonzero, in the columns.

    first is (exponents, multiplier) with matrix*exponents ==
    multiplier*v, the exponents nonnegative integers and the multiplier
    positive, so it witnesses that v lies in the rational cone of the
    columns; None when it does not.  A subset S of s columns is one
    fraction-free reduction of [S | v] on the rows where v is nonzero:
    S is independent when its columns are the first
    s pivots, v is in its span unless column s is one too, and then row
    i gives lambda_i = x_i / d.  M lambda is integral exactly when M is
    a multiple of every reduced denominator, so the least multiplier is
    their lcm, |d| / gcd(d, x_1, ..., x_s).  Subsets grow in size, so
    the first solution is positive on its whole subset.  Nonnegative
    columns cannot cancel, so no column is tried when v has a negative
    coordinate, nor a column positive where v is zero.  The loop stops
    at a size with no independent subset left to try: every subset of
    an independent set is independent.

    The loop runs on through every basic nonnegative solution of
    matrix * lambda = v: face is the indices, in order, of the columns
    in their supports, which lie on the smallest face of the cone
    holding v; () when v misses the cone.  A subset inside the face
    found so far adds nothing and is skipped.
    """
    cols = matrix.columns()
    zero = [i for i, x in enumerate(v) if x == 0]
    live = [i for i, x in enumerate(v) if x]
    usable = [] if min(v) < 0 else [
        j for j, c in enumerate(cols) if all(c[i] == 0 for i in zero)]
    first = None
    support: set[int] = set()
    for size in range(1, min(len(usable), len(live)) + 1):
        independent = False
        for subset in combinations(usable, size):
            if support.issuperset(subset):
                continue
            rows, pivots = _bareiss(
                [[cols[j][i] for j in subset] + [v[i]] for i in live])
            if len(pivots) < size or pivots[size - 1] != size - 1:
                continue  # the subset is dependent
            independent = True
            if len(pivots) > size:
                continue  # v is outside the subset's span
            d = rows[0][0]
            g = gcd(d, *(row[size] for row in rows))
            g = g if d > 0 else -g
            lam = [row[size] // g for row in rows]
            if any(x < 0 for x in lam):
                continue
            if first is None:
                exps = [0] * len(cols)
                for j, x in zip(subset, lam):
                    exps[j] = x
                first = tuple(exps), d // g
            support.update(j for j, x in zip(subset, lam) if x)
        if not independent:
            break
    return first, tuple(sorted(support))


def in_cone(v, matrix: IntegerMatrix) -> bool:
    """Return whether v lies in the rational cone spanned by the columns.

    Exact, by testing independent column subsets; any cone member lies
    in the cone of an independent subset.
    """
    v = tuple(int(x) for x in v)
    if all(x == 0 for x in v):
        return True
    return _cone_solution(v, matrix)[0] is not None


@dataclass(frozen=True, eq=False)
class PairDecision:
    """Whether some scalings glue a pair, with the evidence for each step.

    ``witnesses_a`` and ``witnesses_b`` list (k, exponents) for every
    multiple k u up to kmax in each semigroup, each found on the face of
    u and padded back to the side's columns.  ``multiples`` is True
    when both lists are nonempty, False when the column spaces do not
    meet in a line or a cheap obstruction proves that no multiple of u
    lies in some side, and None otherwise; ``detail`` says which.
    ``pair`` is the smallest coprime (k1, k2) among the witnesses,
    ordered by k1 + k2 and then k1, with A witness_a = k2 u and
    B witness_b = k1 u; such a pair makes k1 A and k2 B glue.

    ``cone_solutions`` holds u's first cone solutions (exponents,
    multiplier) in A and B.  None marks a side whose rational cone u
    misses, and B's is reported only when A's cone holds u.  The cones
    can meet on the line only along u: -u has a negative coordinate,
    and the generators are nonnegative.
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
    cone_solutions: tuple = (None, None)

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


def decide_pair(a: SemigroupGens, b: SemigroupGens, kmax: int = 50,
                work_limit: int = 10 ** 6) -> PairDecision:
    """Decide whether some scalings k1, k2 make k1 A and k2 B glue.

    One reduction of [A|B] gives the ranks and the lattice point u.
    A gluing needs the column spaces to meet in a line and a multiple of
    u in each semigroup; coprime multiples suffice.  Per side, one run
    of ``_cone_solution``'s subset loop gives u's first cone solution
    and F, the columns on the smallest face of the cone holding u; then
    the multiples k u up to kmax are found over F alone and only for k
    in g N, where ZF meets Ru in g Zu.  A side whose cone misses u is
    not searched.  When F is independent or a ray, arithmetic gives the
    multiples (``_face_multiples``); otherwise one membership sweep
    does, each search within work_limit.  The answers are those of a
    sweep over every k and every column:

    - The solutions lambda >= 0 of A lambda = u form a polytope, since
      A >= 0 has no zero column, so each is a convex combination of
      basic ones, and A e = k u with e >= 0 puts e / k among them: e is
      supported on F, and the lexicographically largest e over F,
      padded with zeros, is the largest over A.
    - k u = F e lies in ZF and in Ru, that is in g Zu, so g divides k.
    - F independent: u = F lambda has one solution, the first cone
      solution e / M, so k u = F c forces c = k e / M, integral iff M
      divides k; hence g = M and each multiple has one witness.
    - F a ray, every column s_j u: F c = (sum s_j c_j) u, so the
      multiples are the members of the numerical monoid <s_1..s_f>,
      and the largest witness takes each c_j as large as the columns
      after it can still complete.
    """
    return _decide_on_line(a, b, kmax, *_meeting_line(a, b), work_limit)


def _numerical_multiples(scales: tuple, kmax: int) -> list:
    """Return (k, e) for every 0 < k <= kmax in the monoid <scales>.

    e is the lexicographically largest solution of sum s_j e_j = k with
    e >= 0.  reach[j] has bit t set iff t <= kmax is a sum over
    scales[j:]; e_1 is then the largest c with k - c s_1 in reach[1],
    and so on down the columns.  Each table takes log(kmax) shifts, and
    each lookup reads one character of its binary digits, so the work
    grows with kmax, not with its square.
    """
    full = (1 << kmax + 1) - 1
    reach = [1]
    for s in reversed(scales):
        # doubling the step adds 0, s, .., (2^i - 1) s in i shifts
        bits, step = reach[-1], s
        while step <= kmax:
            bits |= (bits << step) & full
            step *= 2
        reach.append(bits)
    # character t of each string is bit t of its table
    reach = [f"{bits:0{kmax + 1}b}"[::-1] for bits in reversed(reach)]
    found = []
    for k in range(1, kmax + 1):
        if reach[0][k] == "0":
            continue
        rem, e = k, []
        for s, rest in zip(scales, reach[1:]):
            c = rem // s
            while rest[rem - c * s] == "0":
                c -= 1
            e.append(c)
            rem -= c * s
        found.append((k, tuple(e)))
    return found


def _face_multiples(u: Vector, gens: SemigroupGens, kmax: int,
                    work_limit: int) -> tuple:
    """Return u's first cone solution in gens and its multiples up to kmax.

    The multiples are sorted (k, exponents), each exponent vector the
    lexicographically largest over the face F of u, padded back to the
    columns of gens.  Two kinds of face need no search:

    - F is independent exactly when the first solution (e, M), with
      A e = M u, is supported on all of F.  That solution is basic, so
      its support is independent; and over an independent F the
      solution lambda of F lambda = u is unique, so it is the only
      basic one and its support is all of F.  Then F c = k u iff
      c = k e / M, an integer vector iff M divides k, since M is the
      least multiplier that clears lambda's denominators.  So the
      multiples are k = j M with the one witness j e, and g = M.
    - F is a ray when every column of F is s_j u; u is primitive, so
      each s_j is a positive integer.  Then F c = (sum s_j c_j) u, and
      k u lies in <F> iff k lies in the numerical monoid <s_1..s_f>;
      ``_numerical_multiples`` reads its members and their largest
      witnesses off one reachability table per suffix of F.

    Any other face is swept by ``multiples_in_semigroup``, each search
    within work_limit.  The first two paths search nothing, but what
    they list counts against work_limit: the kmax // M witnesses of an
    independent face, the kmax + 1 bits of a ray's tables.
    """
    solution, face = _cone_solution(u, gens.matrix)
    if not face:
        return None, ()
    first, mult = solution
    if all(first[j] for j in face):
        if kmax // mult > work_limit:
            raise BoundTooLarge(f"listing the multiples up to {kmax} "
                                f"passed {work_limit} steps")
        found = [(k, tuple(k // mult * x for x in first))
                 for k in range(mult, kmax + 1, mult)]
    else:
        cols = gens.matrix.columns()
        cols = [cols[j] for j in face]
        nz = next(i for i, x in enumerate(u) if x)
        scales = tuple(c[nz] // u[nz] for c in cols)
        if all(tuple(s * x for x in u) == c for s, c in zip(scales, cols)):
            if kmax >= work_limit:
                raise BoundTooLarge(f"listing the multiples up to {kmax} "
                                    f"passed {work_limit} steps")
            on_face = _numerical_multiples(scales, kmax)
        else:
            names = tuple(gens.block.names[j] for j in face)
            face_gens = SemigroupGens(IntegerMatrix.from_columns(cols),
                                      VariableBlock(names))
            on_face = sorted(multiples_in_semigroup(u, face_gens, kmax,
                                                    work_limit).items())
        found = []
        for k, e in on_face:
            at = dict(zip(face, e))
            found.append((k, tuple(at.get(j, 0) for j in range(gens.count))))
    for k, exps in found:
        # A self-check of every witness; explicit so that -O keeps it.
        if gens.matrix.matvec(exps) != tuple(k * x for x in u):
            raise AssertionError(f"the face witness {exps} misses {k} * {u}")
    return solution, tuple(found)


def _smallest_coprime_pair(wa: tuple, wb: tuple, work_limit: int):
    """Return the coprime (k1, k2, c, d) least by (k1 + k2, k1), or None.

    (k2, c) runs over wa and (k1, d) over wb, both sorted by k.  For
    each k1 the first coprime k2 is its best; k1 stops once no k2 can
    beat the best sum.  Each pair looked at counts against work_limit.
    """
    best, looked = None, 0
    for k1, d in wb:
        if best is not None and k1 + wa[0][0] >= best[0] + best[1]:
            break
        for k2, c in wa:
            if best is not None and k1 + k2 >= best[0] + best[1]:
                break
            looked += 1
            if looked > work_limit:
                raise BoundTooLarge(f"the pair search passed {work_limit} "
                                    f"pairs")
            if gcd(k1, k2) == 1:
                best = (k1, k2, c, d)
                break
    return best


def _decide_on_line(a: SemigroupGens, b: SemigroupGens, kmax: int,
                    rc: RankConditions, u: Vector | None,
                    work_limit: int = 10 ** 6) -> PairDecision:
    """Return decide_pair's record, given the pair's ``_meeting_line``."""
    if kmax < 1:
        raise ValueError("kmax must be positive")
    if not rc.ok:
        return PairDecision(a, b, kmax, rc, None, (), (), False,
                            "the column spaces do not meet in a line")
    sol_a, wa = _face_multiples(u, a, kmax, work_limit)
    sol_b, wb = _face_multiples(u, b, kmax, work_limit)
    cones = sol_a, sol_a and sol_b
    if wa and wb:
        best = _smallest_coprime_pair(wa, wb, work_limit)
        found = {} if best is None else dict(
            pair=best[:2], witness_a=best[2], witness_b=best[3])
        return PairDecision(a, b, kmax, rc, u, wa, wb, True,
                            "multiples of the lattice point lie in both "
                            "semigroups", cone_solutions=cones, **found)
    empty = [(nm, gens) for nm, got, gens in
             (("first", wa, a), ("second", wb, b)) if not got]
    proven = [nm for nm, gens in empty if no_multiple_possible(u, gens)]
    if proven:
        return PairDecision(a, b, kmax, rc, u, wa, wb, False,
                            f"no positive multiple of {u} can ever lie in "
                            f"the {' or '.join(proven)} semigroup",
                            cone_solutions=cones)
    names = " or ".join(nm for nm, _ in empty)
    return PairDecision(a, b, kmax, rc, u, wa, wb, None,
                        f"no multiple of {u} found in the {names} semigroup "
                        f"up to {kmax}", cone_solutions=cones)


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
                            kmax: int = 50, try_pairs=(),
                            work_limit: int = 10 ** 6) -> ChainAudit:
    """Evaluate the implication chain on one pair of semigroups.

    The gluing link is decide_pair's verdict; without a coprime pair,
    any explicitly supplied (k1, k2) pairs are fully verified.  Every
    search, the decision's and each verification's, runs within
    work_limit.  A nonzero common semigroup element is constructed
    whenever the cones meet, making the last equivalence concrete.
    """
    d = decide_pair(a, b, kmax, work_limit)
    if not d.rank.ok:
        return ChainAudit(d.rank, None, False, None, None, None, None, None,
                          ())
    mult, common = d.multiples, d.common_element
    cone_meet = common is not None
    glue, pair = d.gluable, d.pair
    if pair is None:
        for k1, k2 in try_pairs:
            if verify_gluing(GluingCandidate(a, b, k1, k2),
                             work_limit).is_gluing:
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

"""Ready-made families of gluings and small-dimension decision helpers.

The main construction embeds two homogeneous plane semigroups into one
higher space so that they glue: the first is padded to make one of its
generators a multiple of the meeting direction, the second is lifted to
a parallel hyperplane, and the resulting extra binomial is linear in
one variable of each block.  The helpers ``n2_gluable`` and
``rank1_gluable`` answer the gluability question of the earlier plane
and rank-one results through ``gluing.decide_pair``; each adds only
its precondition: the plane's rank failure, or a full side and a ray.
"""

from __future__ import annotations

from math import gcd

from .binomial import Binomial
# rank and in_cone are unused here, but perfbench/spans.py wraps
# constructions.rank and constructions.in_cone.
from .exactlin import IntegerMatrix, rank  # noqa: F401
from .gluing import in_cone  # noqa: F401
from .gluing import (
    GluingCandidate,
    NotCoprime,
    PairDecision,
    _decide_on_line,
    _meeting_line,
    _mixed_binomial,
    decide_pair,
    gluable_lattice_point,
)
from .toric import SemigroupGens
from .value import Value

Vector = tuple[int, ...]


class RankMismatch(ValueError):
    """Raised when a helper needs specific ranks that do not hold."""


class PlaneHomogeneousGens(Value):
    """A homogeneous plane semigroup: all generators of one total degree.

    The generators are (degree, 0), then (degree - s, s) for each step
    s, then (0, degree); the steps are strictly increasing and lie
    strictly between 0 and the degree.
    """

    __slots__ = _fields = ("degree", "steps")

    def __init__(self, degree: int, steps: tuple[int, ...]) -> None:
        if not isinstance(degree, int) or degree < 1:
            raise ValueError(f"degree {degree!r} must be at least 1")
        steps = tuple(int(s) for s in steps)
        if not all(0 < s < degree for s in steps):
            raise ValueError(f"steps {steps} must lie strictly between 0 "
                             f"and the degree {degree}")
        if not all(x < y for x, y in zip(steps, steps[1:])):
            raise ValueError(f"steps {steps} must be strictly increasing")
        self._store(degree, steps)

    @property
    def count(self) -> int:
        return len(self.steps) + 2

    def columns(self) -> tuple[Vector, ...]:
        c = self.degree
        mids = tuple((c - s, s) for s in self.steps)
        return ((c, 0),) + mids + ((0, c),)

    def gens(self, prefix: str = "x") -> SemigroupGens:
        return SemigroupGens.from_columns(self.columns(), prefix)

    @classmethod
    def from_matrix(cls, matrix: IntegerMatrix) -> "PlaneHomogeneousGens":
        """Recognize a 2-row generator matrix of this shape."""
        if matrix.rows != 2:
            raise ValueError("need generators in the plane")
        cols = matrix.columns()
        degs = {a + b for a, b in cols}
        if len(degs) != 1:
            raise ValueError("generators must share one total degree")
        degree = degs.pop()
        expect_first, expect_last = (degree, 0), (0, degree)
        if cols[0] != expect_first or cols[-1] != expect_last:
            raise ValueError(
                "the first and last generators must be the two axes")
        steps = tuple(b for _, b in cols[1:-1])
        got = cls(degree, steps)
        if got.columns() != cols:
            raise ValueError("generators must step up in the second "
                             "coordinate")
        return got


class EmbeddedGluing(Value, eq=False):
    """The output of embed_and_glue: two padded semigroups that glue.

    ``index`` is the 1-based step index of the first semigroup chosen as
    the gluing direction, m the padding multiplier and r = m * step -
    degree the padding.  rho is linear: the variable of the chosen
    column minus the first variable of the second block.
    """

    __slots__ = _fields = ("a_prime", "b_prime", "m", "r", "index", "k1",
                           "k2", "u", "rho", "candidate")

    def __init__(self, a_prime: SemigroupGens, b_prime: SemigroupGens,
                 m: int, r: int, index: int, k1: int, k2: int, u: Vector,
                 rho: Binomial, candidate: GluingCandidate) -> None:
        self._store(a_prime, b_prime, m, r, index, k1, k2, u, rho, candidate)

    @property
    def c_matrix(self) -> IntegerMatrix:
        return self.candidate.c_matrix


def embed_and_glue(p: PlaneHomogeneousGens, q: PlaneHomogeneousGens,
                   index: int) -> EmbeddedGluing:
    """Embed two plane semigroups into three dimensions so that they glue.

    ``index`` picks a step of p (1-based); its degree and the chosen
    step must be coprime to q's degree.  The first semigroup gains r in
    the first coordinate and a zero third row; the second is lifted to
    third coordinate equal to its own rows under a constant first row.
    The scalings are k1 = q's degree and k2 = the chosen step, and the
    gluing binomial identifies the padded column with the first
    generator of the lifted block.
    """
    if not 1 <= index <= len(p.steps):
        raise IndexError(
            f"step index {index} outside 1..{len(p.steps)}")
    step = p.steps[index - 1]
    d = q.degree
    if gcd(d, step) != 1:
        raise NotCoprime(
            f"the second degree {d} and the chosen step {step} share a "
            "factor")
    c = p.degree
    m = -(-c // step)
    r = m * step - c
    # Self-checks of the construction; explicit so that -O keeps them.
    if m < 2:
        raise AssertionError(f"padding multiplier {m} below 2 for step "
                             f"{step} of degree {c}")
    a_cols = [(x + r, y, 0) for x, y in p.columns()]
    b_cols = [((m - 1) * d, x, y) for x, y in q.columns()]
    a_prime = SemigroupGens.from_columns(a_cols, "x")
    b_prime = SemigroupGens.from_columns(b_cols, "y")
    cand = GluingCandidate(a_prime, b_prime, k1=d, k2=step)
    shared = tuple(d * x for x in a_cols[index])
    lifted = tuple(step * x for x in b_cols[0])
    if shared != lifted:
        raise AssertionError(f"the scaled columns {shared} and {lifted} "
                             "differ")
    u = gluable_lattice_point(a_prime, b_prime)
    if u != (m - 1, 1, 0):
        raise AssertionError(f"lattice point {u}, expected {(m - 1, 1, 0)}")
    pa = a_prime.count
    e_x = tuple(int(t == index) for t in range(pa))
    e_y = tuple(int(t == 0) for t in range(b_prime.count))
    rho = _mixed_binomial(cand, e_x, e_y)
    return EmbeddedGluing(a_prime, b_prime, m, r, index, d, step, u, rho,
                          cand)


def n2_gluable(a: SemigroupGens, b: SemigroupGens,
               kmax: int = 50) -> PairDecision:
    """Decide whether some scalings glue two plane semigroups.

    In the plane the rank conditions force one side onto a ray, and the
    meeting line is that ray.  The answer is decide_pair's record; on a
    rank failure its ``detail`` names the plane's.  Raises ValueError
    unless both semigroups lie in the plane.
    """
    # Explicit so that -O keeps it: outside the plane the answer is wrong.
    if a.ambient != 2 or b.ambient != 2:
        raise ValueError(f"n2_gluable needs two plane semigroups, got "
                         f"ambient dimensions {a.ambient} and {b.ambient}")
    d = decide_pair(a, b, kmax)
    rc = d.rank
    if rc.ok:
        return d
    if rc.rank_a == rc.rank_b == 2:
        detail = "both sides span the plane, so the meeting is not a line"
    else:
        detail = (f"rank {rc.rank_a} + rank {rc.rank_b} != "
                  f"rank {rc.rank_joint} + 1")
    return d.replace(detail=detail)


def rank1_gluable(a: SemigroupGens, b: SemigroupGens,
                  kmax: int = 50) -> PairDecision:
    """Decide gluability when the second semigroup lies on a single ray.

    Requires the first side to span the ambient space and the second to
    have rank one, else RankMismatch, raised before any membership
    search.  The meeting line is the ray, so everything reduces to
    multiples of its primitive direction; the answer is decide_pair's
    record, from the ranks already taken.
    """
    n = a.ambient
    rc, u = _meeting_line(a, b)
    if rc.rank_a != n or rc.rank_b != 1:
        raise RankMismatch(f"need rank {n} and rank 1, got {rc.rank_a} "
                           f"and {rc.rank_b}")
    return _decide_on_line(a, b, kmax, rc, u)

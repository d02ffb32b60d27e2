"""Ready-made families of gluings and small-dimension decision helpers.

The main construction embeds two homogeneous plane semigroups into one
higher space so that they glue: the first is padded to make one of its
generators a multiple of the meeting direction, the second is lifted to
a parallel hyperplane, and the resulting extra binomial is linear in
one variable of each block.  The helpers settle gluability questions
that are special to ambient rank one or two.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .binomial import Binomial
from .exactlin import IntegerMatrix, rank
from .gluing import (
    GluingCandidate,
    NecessaryReport,
    NotCoprime,
    _mixed_binomial,
    gluable_lattice_point,
    in_cone,
    necessary_conditions,
)
from .toric import SemigroupGens

Vector = tuple[int, ...]


class RankMismatch(ValueError):
    """Raised when a helper needs specific ranks that do not hold."""


@dataclass(frozen=True)
class PlaneHomogeneousGens:
    """A homogeneous plane semigroup: all generators of one total degree.

    The generators are (degree, 0), then (degree - s, s) for each step
    s, then (0, degree); the steps are strictly increasing and lie
    strictly between 0 and the degree.
    """

    degree: int
    steps: tuple[int, ...]

    def __post_init__(self) -> None:
        assert isinstance(self.degree, int) and self.degree >= 1
        steps = tuple(int(s) for s in self.steps)
        assert all(0 < s < self.degree for s in steps)
        assert all(x < y for x, y in zip(steps, steps[1:]))
        object.__setattr__(self, "steps", steps)

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


@dataclass(frozen=True, eq=False)
class EmbeddedGluing:
    """The output of embed_and_glue: two padded semigroups that glue.

    ``index`` is the 1-based step index of the first semigroup chosen as
    the gluing direction, m the padding multiplier and r = m * step -
    degree the padding.  rho is linear: the variable of the chosen
    column minus the first variable of the second block.
    """

    a_prime: SemigroupGens
    b_prime: SemigroupGens
    m: int
    r: int
    index: int
    k1: int
    k2: int
    u: Vector
    rho: Binomial
    candidate: GluingCandidate

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
    assert m >= 2
    a_cols = [(x + r, y, 0) for x, y in p.columns()]
    b_cols = [((m - 1) * d, x, y) for x, y in q.columns()]
    a_prime = SemigroupGens.from_columns(a_cols, "x")
    b_prime = SemigroupGens.from_columns(b_cols, "y")
    cand = GluingCandidate(a_prime, b_prime, k1=d, k2=step)
    shared = tuple(d * x for x in a_cols[index])
    assert shared == tuple(step * x for x in b_cols[0])
    u = gluable_lattice_point(a_prime, b_prime)
    assert u == (m - 1, 1, 0)
    pa = a_prime.count
    e_x = tuple(int(t == index) for t in range(pa))
    e_y = tuple(int(t == 0) for t in range(b_prime.count))
    rho = _mixed_binomial(cand, e_x, e_y)
    return EmbeddedGluing(a_prime, b_prime, m, r, index, d, step, u, rho,
                          cand)


@dataclass(frozen=True)
class PairDecision:
    """A three-valued gluability answer with its evidence."""

    gluable: bool | None
    pair: tuple | None
    u: Vector | None
    witness_a: Vector | None
    witness_b: Vector | None
    reason: str


def _decide_on_line(a: SemigroupGens, b: SemigroupGens,
                    report: NecessaryReport, kmax: int) -> PairDecision:
    """Decide a pair whose column spaces meet in a line, from its report."""
    u = report.u
    found = report.coprime_pair
    if found is not None:
        return PairDecision(True, (found.k1, found.k2), u, found.c, found.d,
                            "coprime multiples of the ray direction lie in "
                            "both semigroups")
    for name, gens in (("first", a), ("second", b)):
        if not in_cone(u, gens.matrix):
            return PairDecision(False, None, u, None, None,
                                f"the ray direction {u} misses the cone of "
                                f"the {name} semigroup")
    return PairDecision(None, None, u, None, None,
                        f"no coprime pair found up to {kmax}")


def n2_gluable(a: SemigroupGens, b: SemigroupGens,
               kmax: int = 50) -> PairDecision:
    """Decide whether some scalings glue two plane semigroups.

    In the plane the rank conditions force one side onto a ray, and the
    meeting line is that ray.  Definitive answers come from the rank
    conditions, from the ray missing the other cone, or from a found
    coprime pair; otherwise the bounded search is inconclusive.
    """
    assert a.ambient == 2 and b.ambient == 2
    report = necessary_conditions(a, b, kmax)
    rc = report.rank
    if not rc.ok:
        if rc.rank_a == rc.rank_b == 2:
            reason = "both sides span the plane, so the meeting is not a line"
        else:
            reason = (f"rank {rc.rank_a} + rank {rc.rank_b} != "
                      f"rank {rc.rank_joint} + 1")
        return PairDecision(False, None, None, None, None, reason)
    return _decide_on_line(a, b, report, kmax)


def rank1_gluable(a: SemigroupGens, b: SemigroupGens,
                  kmax: int = 50) -> PairDecision:
    """Decide gluability when the second semigroup lies on a single ray.

    Requires the first side to span the ambient space and the second to
    have rank one, else RankMismatch.  The meeting line is the ray, so
    everything reduces to multiples of its primitive direction.
    """
    n = a.ambient
    if rank(a.matrix) != n or rank(b.matrix) != 1:
        raise RankMismatch(
            f"need rank {n} and rank 1, got {rank(a.matrix)} and "
            f"{rank(b.matrix)}")
    return _decide_on_line(a, b, necessary_conditions(a, b, kmax), kmax)

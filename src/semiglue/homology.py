"""Homological bookkeeping for glued semigroup rings.

When the toric ideal of a union of two scaled semigroups is obtained
from the two smaller ideals by adding one mixed binomial, the minimal
free resolution of the union is the tensor product of the two smaller
resolutions with a Koszul factor on the extra binomial.  Everything
homological then follows by arithmetic: Betti numbers convolve,
projective dimensions add plus one, dimension and depth add minus one,
and the complete intersection, Cohen-Macaulay and Gorenstein properties
hold for the union exactly when they hold for both pieces.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactlin import rank
from .toric import SemigroupGens, toric_ideal


class NotAGluing(ValueError):
    """Raised when glued bookkeeping is requested without a gluing."""


@dataclass(frozen=True)
class BettiSequence:
    """Total Betti numbers beta_0, beta_1, ... of a minimal resolution."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        vals = tuple(int(v) for v in self.values)
        if not vals or vals[0] != 1:
            raise ValueError("a cyclic module starts with beta_0 = 1")
        if any(v < 0 for v in vals):
            raise ValueError("Betti numbers are nonnegative")
        while len(vals) > 1 and vals[-1] == 0:
            vals = vals[:-1]
        object.__setattr__(self, "values", vals)

    @classmethod
    def of(cls, *values: int) -> "BettiSequence":
        return cls(tuple(values))

    @property
    def pd(self) -> int:
        """Return the projective dimension: the index of the last entry."""
        return len(self.values) - 1

    def __getitem__(self, i: int) -> int:
        assert i >= 0
        return self.values[i] if i < len(self.values) else 0


def glued_betti(a: BettiSequence, b: BettiSequence) -> BettiSequence:
    """Return the Betti numbers of a glued ring from those of its pieces.

    beta_i = sum_j beta_j(a) * (beta_{i-j}(b) + beta_{i-j-1}(b)), the
    convolution of the two sequences with the Koszul factor (1, 1) for
    the added binomial.
    """
    top = a.pd + b.pd + 1
    vals = []
    for i in range(top + 1):
        s = 0
        for j in range(i + 1):
            s += a[j] * (b[i - j] + (b[i - j - 1] if i - j >= 1 else 0))
        vals.append(s)
    return BettiSequence(tuple(vals))


def glued_pd(pd_a: int, pd_b: int) -> int:
    """Return the projective dimension of a glued ring."""
    return pd_a + pd_b + 1


def glued_dim(dim_a: int, dim_b: int) -> int:
    """Return the Krull dimension of a glued ring."""
    return dim_a + dim_b - 1


def glued_depth(depth_a: int, depth_b: int) -> int:
    """Return the depth of a glued ring."""
    return depth_a + depth_b - 1


def dim_of(gens: SemigroupGens) -> int:
    """Return the Krull dimension of the semigroup ring: the matrix rank."""
    return rank(gens.matrix)


def is_complete_intersection(gens: SemigroupGens) -> bool:
    """Return whether the toric ideal is a complete intersection.

    Decided by count: the ideal has height (number of generators minus
    matrix rank), and it is a complete intersection exactly when its
    minimal generator count equals that height.
    """
    t = toric_ideal(gens)
    return t.mu == gens.count - rank(gens.matrix)


def _and3(x: bool | None, y: bool | None) -> bool | None:
    """Three-valued conjunction: a definite False wins over unknown."""
    if x is False or y is False:
        return False
    if x is None or y is None:
        return None
    return True


@dataclass(frozen=True)
class HomologySummary:
    """Known homological facts about one semigroup ring.

    ``None`` means not determined.  ``mu`` counts minimal generators of
    the toric ideal.
    """

    dim: int
    pd: int | None = None
    depth: int | None = None
    ci: bool | None = None
    cm: bool | None = None
    gorenstein: bool | None = None
    mu: int | None = None

    @classmethod
    def make(cls, dim: int, pd=None, depth=None, ci=None, cm=None,
             gorenstein=None, mu=None) -> "HomologySummary":
        if ci:
            cm = True
            gorenstein = True
        return cls(dim, pd, depth, ci, cm, gorenstein, mu)


def propagate(a: HomologySummary, b: HomologySummary,
              glued: bool) -> HomologySummary:
    """Return the summary of a glued ring from the summaries of its pieces.

    Raises NotAGluing unless the caller certifies the gluing: none of
    these laws hold for an arbitrary union.
    """
    if not glued:
        raise NotAGluing("the homological laws require an actual gluing")
    return HomologySummary(
        dim=glued_dim(a.dim, b.dim),
        pd=None if a.pd is None or b.pd is None else glued_pd(a.pd, b.pd),
        depth=(None if a.depth is None or b.depth is None
               else glued_depth(a.depth, b.depth)),
        ci=_and3(a.ci, b.ci),
        cm=_and3(a.cm, b.cm),
        gorenstein=_and3(a.gorenstein, b.gorenstein),
        mu=None if a.mu is None or b.mu is None else a.mu + b.mu + 1,
    )


def cm_type_product(type_a: int, type_b: int) -> int:
    """Return the Cohen-Macaulay type of a glued ring: the product."""
    assert type_a >= 1 and type_b >= 1
    return type_a * type_b

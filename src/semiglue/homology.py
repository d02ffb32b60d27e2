"""Homological bookkeeping for glued semigroup rings, each rule once.

The count rule, ``HomologySummary.from_count``: a toric ideal is a
complete intersection exactly when its minimal generator count is its
height, and then pd is the height and depth the dimension.  The gluing
laws, ``glued_betti`` and ``propagate``: when the union's toric ideal is
the two smaller ideals plus one mixed binomial, its minimal resolution
is the tensor product of theirs with a Koszul factor on that binomial
(Gimenez-Srinivasan, J. Pure Appl. Algebra 223, 2019).  So Betti
numbers convolve, projective dimensions add plus one, dimension and
depth add minus one, and the complete intersection, Cohen-Macaulay and
Gorenstein properties hold for the union exactly when they hold for
both pieces.
"""

from __future__ import annotations

from .exactlin import rank
from .toric import SemigroupGens, toric_ideal
from .value import Value


class NotAGluing(ValueError):
    """Raised when glued bookkeeping is requested without a gluing."""


class BettiSequence(Value):
    """Total Betti numbers beta_0, beta_1, ... of a minimal resolution."""

    __slots__ = _fields = ("values",)

    def __init__(self, values: tuple[int, ...]) -> None:
        vals = tuple(int(v) for v in values)
        if not vals or vals[0] != 1:
            raise ValueError("a cyclic module starts with beta_0 = 1")
        if any(v < 0 for v in vals):
            raise ValueError("Betti numbers are nonnegative")
        while len(vals) > 1 and vals[-1] == 0:
            vals = vals[:-1]
        object.__setattr__(self, "values", vals)

    @property
    def pd(self) -> int:
        """Return the projective dimension: the index of the last entry."""
        return len(self.values) - 1

    def __getitem__(self, i: int) -> int:
        if i < 0:  # explicit, so that -O keeps it
            raise IndexError(f"Betti numbers start at index 0, not {i}")
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


def _and3(x: bool | None, y: bool | None) -> bool | None:
    """Three-valued conjunction: a definite False wins over unknown."""
    if x is False or y is False:
        return False
    if x is None or y is None:
        return None
    return True


class HomologySummary(Value):
    """Known homological facts about one semigroup ring.

    ``None`` means not determined.  ``mu`` counts minimal generators of
    the toric ideal.  A complete intersection is Cohen-Macaulay and
    Gorenstein, so ``ci=True`` sets both.
    """

    __slots__ = _fields = ("dim", "pd", "depth", "ci", "cm", "gorenstein",
                           "mu")

    def __init__(self, dim: int, pd: int | None = None,
                 depth: int | None = None, ci: bool | None = None,
                 cm: bool | None = None, gorenstein: bool | None = None,
                 mu: int | None = None) -> None:
        if ci:
            cm = gorenstein = True
        self._store(dim, pd, depth, ci, cm, gorenstein, mu)

    @classmethod
    def from_count(cls, dim: int, count: int, mu: int) -> "HomologySummary":
        """Return the summary that the generator count decides.

        The toric ideal of ``count`` generators of rank ``dim`` has
        height count - dim.  It is a complete intersection exactly when
        its ``mu`` minimal generators number that height; then pd is
        the height and depth the dimension.
        """
        codim = count - dim
        if mu == codim:
            return cls(dim, codim, dim, ci=True, mu=mu)
        return cls(dim, ci=False, mu=mu)


def is_complete_intersection(gens: SemigroupGens) -> bool:
    """Return whether the toric ideal is a complete intersection."""
    return HomologySummary.from_count(rank(gens.matrix), gens.count,
                                      toric_ideal(gens).mu).ci


def propagate(a: HomologySummary, b: HomologySummary,
              glued: bool) -> HomologySummary:
    """Return the summary of a glued ring from the summaries of its pieces.

    Raises NotAGluing unless the caller certifies the gluing: none of
    these laws hold for an arbitrary union.
    """
    if not glued:
        raise NotAGluing("the homological laws require an actual gluing")
    return HomologySummary(
        dim=a.dim + b.dim - 1,
        pd=None if a.pd is None or b.pd is None else a.pd + b.pd + 1,
        depth=(None if a.depth is None or b.depth is None
               else a.depth + b.depth - 1),
        ci=_and3(a.ci, b.ci),
        cm=_and3(a.cm, b.cm),
        gorenstein=_and3(a.gorenstein, b.gorenstein),
        mu=None if a.mu is None or b.mu is None else a.mu + b.mu + 1,
    )


def cm_type_product(type_a: int, type_b: int) -> int:
    """Return the Cohen-Macaulay type of a glued ring: the product."""
    if type_a < 1 or type_b < 1:
        raise ValueError(f"Cohen-Macaulay types are positive, got {type_a} "
                         f"and {type_b}")
    return type_a * type_b

"""Gluings of affine semigroups in N^n.

A gluing joins two affine semigroups, after scaling each by a positive
integer, so that the toric ideal of the union is generated by the two
smaller toric ideals plus one extra binomial.  This package decides when
that happens, certifies the answer with explicit witnesses, and carries
the homological bookkeeping (Betti numbers, depth, projective dimension,
complete intersections) across a gluing.

All arithmetic is exact over Python integers.
"""

__version__ = "0.1.0"

from .exactlin import (
    IntegerMatrix,
    ZeroVector,
    kernel_lattice_basis,
    primitive,
    rank,
)
from .binomial import (
    Binomial,
    BinomialIdeal,
    Monomial,
    MonomialOrder,
    VariableBlock,
    binomial_from_vector,
    buchberger,
    embed,
    ideal_equal,
    normal_form,
    saturate,
)
from .toric import (
    BoundTooLarge,
    GradedBinomialSet,
    SemigroupGens,
    enumerate_oracle,
    minimal_generators,
    toric_ideal,
)
from .gluing import (
    DimensionMismatch,
    GluingCandidate,
    GluingReport,
    NotCoprime,
    NotInIdeal,
    RankConditionsFail,
    check_rank_conditions,
    decide_pair,
    gluable_lattice_point,
    implication_chain_audit,
    is_member,
    level,
    multiples_in_semigroup,
    verify_gluing,
)
from .homology import (
    BettiSequence,
    HomologySummary,
    NotAGluing,
    cm_type_product,
    glued_betti,
    is_complete_intersection,
    propagate,
)
from .constructions import (
    EmbeddedGluing,
    PlaneHomogeneousGens,
    RankMismatch,
    embed_and_glue,
    n2_gluable,
    rank1_gluable,
)

"""Betti numbers and homological bookkeeping across a gluing."""

import pytest

from semiglue import (
    BettiSequence,
    HomologySummary,
    NotAGluing,
    SemigroupGens,
    cm_type_product,
    glued_betti,
    is_complete_intersection,
    propagate,
)
from support import monomial_curves_pair


def test_betti_sequence_basics():
    b = BettiSequence((1, 3, 2))
    assert b.values == (1, 3, 2)
    assert b.pd == 2
    assert b[0] == 1 and b[2] == 2 and b[5] == 0
    assert BettiSequence((1, 2, 0, 0)).values == (1, 2)
    with pytest.raises(ValueError):
        BettiSequence((2, 1))
    with pytest.raises(ValueError):
        BettiSequence((1, -1))
    with pytest.raises(ValueError):
        BettiSequence(())


def test_glued_betti_convolution():
    b = BettiSequence((1, 3, 2))
    assert glued_betti(b, b).values == (1, 7, 19, 25, 16, 4)
    assert glued_betti(BettiSequence((1,)), b).values == (1, 4, 5, 2)
    assert glued_betti(b, BettiSequence((1,))).values == (1, 4, 5, 2)


def test_glued_betti_endpoints():
    a = BettiSequence((1, 2))
    b = BettiSequence((1, 4, 3))
    out = glued_betti(a, b)
    assert out.pd == a.pd + b.pd + 1
    assert out[1] == a[1] + b[1] + 1
    assert out[out.pd] == a[a.pd] * b[b.pd]


def test_complete_intersection_by_count():
    a, b = monomial_curves_pair()
    assert not is_complete_intersection(a)
    assert is_complete_intersection(b)
    free = SemigroupGens.from_columns([(1, 0), (0, 1)])
    assert is_complete_intersection(free)
    cubic = SemigroupGens.from_columns([(3, 0), (2, 1), (1, 2), (0, 3)])
    assert not is_complete_intersection(cubic)


def test_summary_closes_under_ci():
    s = HomologySummary(dim=2, ci=True, mu=2)
    assert s.cm is True and s.gorenstein is True
    t = HomologySummary(dim=2, ci=False, cm=True)
    assert t.gorenstein is None


def test_from_count_is_the_count_rule():
    # Four generators of rank 2: height 2, so mu = 2 is a complete
    # intersection with pd 2 and depth 2, and mu = 3 is not one.
    assert HomologySummary.from_count(2, 4, 2) == HomologySummary(
        2, 2, 2, ci=True, cm=True, gorenstein=True, mu=2)
    assert HomologySummary.from_count(2, 4, 3) == HomologySummary(
        2, ci=False, mu=3)


def test_propagate_combines_everything():
    a = HomologySummary(dim=2, pd=2, depth=1, ci=False, cm=False,
                        gorenstein=False, mu=3)
    b = HomologySummary(dim=2, pd=1, depth=2, ci=True, mu=2)
    c = propagate(a, b, glued=True)
    assert c.dim == 3
    assert c.pd == 4
    assert c.depth == 2
    assert c.ci is False
    assert c.cm is False
    assert c.gorenstein is False
    assert c.mu == 6


def test_propagate_keeps_unknowns_unknown():
    a = HomologySummary(dim=2, ci=True, mu=2)
    b = HomologySummary(dim=2)
    c = propagate(a, b, glued=True)
    assert c.dim == 3
    assert c.pd is None and c.depth is None and c.mu is None
    assert c.ci is None and c.cm is None and c.gorenstein is None
    bad = HomologySummary(dim=2, cm=False)
    d = propagate(a, bad, glued=True)
    assert d.cm is False and d.ci is None


def test_propagate_refuses_without_a_gluing():
    a = HomologySummary(dim=2)
    with pytest.raises(NotAGluing):
        propagate(a, a, glued=False)


@pytest.mark.optimized
def test_cm_type_product():
    assert cm_type_product(1, 1) == 1
    assert cm_type_product(2, 3) == 6
    for a, b in ((0, 1), (-2, 3)):
        with pytest.raises(ValueError, match=f"^Cohen-Macaulay types are "
                                             f"positive, got {a} and {b}$"):
            cm_type_product(a, b)

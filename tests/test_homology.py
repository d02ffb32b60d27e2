"""Betti numbers and homological bookkeeping across a gluing."""

import pytest

from semiglue import (
    BettiSequence,
    HomologySummary,
    NotAGluing,
    SemigroupGens,
    cm_type_product,
    dim_of,
    glued_betti,
    glued_depth,
    glued_dim,
    glued_pd,
    is_complete_intersection,
    propagate,
)
from support import monomial_curves_pair, twisted_pair


def test_betti_sequence_basics():
    b = BettiSequence.of(1, 3, 2)
    assert b.values == (1, 3, 2)
    assert b.pd == 2
    assert b[0] == 1 and b[2] == 2 and b[5] == 0
    assert BettiSequence.of(1, 2, 0, 0).values == (1, 2)
    with pytest.raises(ValueError):
        BettiSequence.of(2, 1)
    with pytest.raises(ValueError):
        BettiSequence.of(1, -1)
    with pytest.raises(ValueError):
        BettiSequence.of()


def test_glued_betti_convolution():
    b = BettiSequence.of(1, 3, 2)
    assert glued_betti(b, b).values == (1, 7, 19, 25, 16, 4)
    assert glued_betti(BettiSequence.of(1), b).values == (1, 4, 5, 2)
    assert glued_betti(b, BettiSequence.of(1)).values == (1, 4, 5, 2)


def test_glued_betti_endpoints():
    a = BettiSequence.of(1, 2)
    b = BettiSequence.of(1, 4, 3)
    out = glued_betti(a, b)
    assert out.pd == a.pd + b.pd + 1
    assert out[1] == a[1] + b[1] + 1
    assert out[out.pd] == a[a.pd] * b[b.pd]


def test_scalar_laws():
    assert glued_pd(2, 2) == 5
    assert glued_dim(2, 2) == 3
    assert glued_depth(1, 2) == 2


def test_dim_of_fixture_semigroups():
    a, b = twisted_pair()
    assert dim_of(a) == 2
    assert dim_of(b) == 2


def test_complete_intersection_by_count():
    a, b = monomial_curves_pair()
    assert not is_complete_intersection(a)
    assert is_complete_intersection(b)
    free = SemigroupGens.from_columns([(1, 0), (0, 1)])
    assert is_complete_intersection(free)
    cubic = SemigroupGens.from_columns([(3, 0), (2, 1), (1, 2), (0, 3)])
    assert not is_complete_intersection(cubic)


def test_summary_make_closes_under_ci():
    s = HomologySummary.make(dim=2, ci=True, mu=2)
    assert s.cm is True and s.gorenstein is True
    t = HomologySummary.make(dim=2, ci=False, cm=True)
    assert t.gorenstein is None


def test_propagate_combines_everything():
    a = HomologySummary.make(dim=2, pd=2, depth=1, ci=False, cm=False,
                             gorenstein=False, mu=3)
    b = HomologySummary.make(dim=2, pd=1, depth=2, ci=True, mu=2)
    c = propagate(a, b, glued=True)
    assert c.dim == 3
    assert c.pd == 4
    assert c.depth == 2
    assert c.ci is False
    assert c.cm is False
    assert c.gorenstein is False
    assert c.mu == 6


def test_propagate_keeps_unknowns_unknown():
    a = HomologySummary.make(dim=2, ci=True, mu=2)
    b = HomologySummary.make(dim=2)
    c = propagate(a, b, glued=True)
    assert c.dim == 3
    assert c.pd is None and c.depth is None and c.mu is None
    assert c.ci is None and c.cm is None and c.gorenstein is None
    bad = HomologySummary.make(dim=2, cm=False)
    d = propagate(a, bad, glued=True)
    assert d.cm is False and d.ci is None


def test_propagate_refuses_without_a_gluing():
    a = HomologySummary.make(dim=2)
    with pytest.raises(NotAGluing):
        propagate(a, a, glued=False)


def test_cm_type_product():
    assert cm_type_product(1, 1) == 1
    assert cm_type_product(2, 3) == 6
    with pytest.raises(AssertionError):
        cm_type_product(0, 1)

"""Ready-made gluing constructions and low-dimensional deciders."""

import re

import pytest

from semiglue import (
    IntegerMatrix,
    NotCoprime,
    PlaneHomogeneousGens,
    RankMismatch,
    SemigroupGens,
    embed_and_glue,
    n2_gluable,
    rank1_gluable,
    verify_gluing,
)
from semiglue import constructions, exactlin, gluing
from support import twisted_pair

CUBIC = PlaneHomogeneousGens(3, (1, 2))
STEEP = PlaneHomogeneousGens(5, (1, 4))


def test_plane_gens_columns():
    assert CUBIC.columns() == ((3, 0), (2, 1), (1, 2), (0, 3))
    assert CUBIC.count == 4
    assert STEEP.columns() == ((5, 0), (4, 1), (1, 4), (0, 5))
    gens = CUBIC.gens("t")
    assert gens.block.names == ("t1", "t2", "t3", "t4")


def test_plane_gens_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        PlaneHomogeneousGens(3, (2, 1))
    with pytest.raises(ValueError, match="strictly between 0 and"):
        PlaneHomogeneousGens(3, (0, 1))
    with pytest.raises(ValueError, match="at least 1"):
        PlaneHomogeneousGens(0, ())


def test_plane_gens_from_matrix_roundtrip():
    m = IntegerMatrix.from_rows([(3, 2, 1, 0), (0, 1, 2, 3)])
    p = PlaneHomogeneousGens.from_matrix(m)
    assert p.degree == 3
    assert p.steps == (1, 2)
    assert IntegerMatrix.from_columns(p.columns()) == m


def test_plane_gens_from_matrix_rejects_bad_shapes():
    with pytest.raises(ValueError):
        PlaneHomogeneousGens.from_matrix(
            IntegerMatrix.from_rows([(1, 0), (0, 1), (0, 0)]))
    with pytest.raises(ValueError):
        PlaneHomogeneousGens.from_matrix(
            IntegerMatrix.from_rows([(3, 2, 0), (0, 2, 3)]))
    with pytest.raises(ValueError):
        PlaneHomogeneousGens.from_matrix(
            IntegerMatrix.from_rows([(2, 3, 0), (1, 0, 3)]))


def test_embed_and_glue_two_cubics():
    eg = embed_and_glue(CUBIC, CUBIC, index=2)
    assert (eg.m, eg.r) == (2, 1)
    assert (eg.k1, eg.k2) == (3, 2)
    assert eg.u == (1, 1, 0)
    assert eg.a_prime.matrix.columns() == (
        (4, 0, 0), (3, 1, 0), (2, 2, 0), (1, 3, 0))
    assert eg.b_prime.matrix.columns() == (
        (3, 3, 0), (3, 2, 1), (3, 1, 2), (3, 0, 3))
    assert eg.rho.as_pair() == ((0, 0, 1, 0, 0, 0, 0, 0),
                                (0, 0, 0, 0, 1, 0, 0, 0))
    assert eg.c_matrix == IntegerMatrix.from_rows([
        (12, 9, 6, 3, 6, 6, 6, 6),
        (0, 3, 6, 9, 6, 4, 2, 0),
        (0, 0, 0, 0, 0, 2, 4, 6)])
    report = verify_gluing(eg.candidate)
    assert report.is_gluing
    assert (report.mu_a, report.mu_b, report.mu_c) == (3, 3, 7)
    assert report.rho == eg.rho or report.rho == eg.rho.negated()


def test_embed_and_glue_smooth_quintic_pair():
    p = PlaneHomogeneousGens(5, (1, 2))
    eg = embed_and_glue(p, p, index=1)
    assert (eg.m, eg.r) == (5, 0)
    assert (eg.k1, eg.k2) == (5, 1)
    assert eg.u == (4, 1, 0)
    assert eg.rho.as_pair() == ((0, 1, 0, 0, 0, 0, 0, 0),
                                (0, 0, 0, 0, 1, 0, 0, 0))
    report = verify_gluing(eg.candidate)
    assert report.is_gluing
    assert (report.mu_a, report.mu_b, report.mu_c) == (3, 3, 7)


def test_embed_and_glue_steep_quintic_pair():
    eg = embed_and_glue(STEEP, STEEP, index=1)
    assert (eg.m, eg.r) == (5, 0)
    assert (eg.k1, eg.k2) == (5, 1)
    report = verify_gluing(eg.candidate)
    assert report.is_gluing
    assert (report.mu_a, report.mu_b, report.mu_c) == (5, 5, 11)


def test_embed_and_glue_argument_checks():
    with pytest.raises(IndexError):
        embed_and_glue(CUBIC, CUBIC, index=0)
    with pytest.raises(IndexError):
        embed_and_glue(CUBIC, CUBIC, index=3)
    with pytest.raises(NotCoprime):
        embed_and_glue(PlaneHomogeneousGens(4, (2,)),
                       PlaneHomogeneousGens(2, (1,)), index=1)


@pytest.mark.optimized
def test_embed_and_glue_refuses_a_wrong_lattice_point(monkeypatch):
    # The lattice point is replaced by a wrong one, which the
    # construction's own check must refuse.
    monkeypatch.setattr(constructions, "gluable_lattice_point",
                        lambda a, b: (1, 1, 1))
    with pytest.raises(AssertionError, match=re.escape(
            "lattice point (1, 1, 1), expected (1, 1, 0)")):
        embed_and_glue(CUBIC, CUBIC, 2)


def test_n2_gluable_positive():
    a = SemigroupGens.from_columns([(1, 0), (0, 1)], "x")
    b = SemigroupGens.from_columns([(1, 1), (2, 2)], "y")
    decision = n2_gluable(a, b)
    assert decision.gluing is True
    assert decision.pair == (1, 1)
    assert decision.u == (1, 1)
    assert a.matrix.matvec(decision.witness_a) == (1, 1)
    assert b.matrix.matvec(decision.witness_b) == (1, 1)


@pytest.mark.optimized
def test_n2_gluable_refuses_a_pair_outside_the_plane():
    a, b = twisted_pair()
    with pytest.raises(ValueError, match="^n2_gluable needs two plane "
                       "semigroups, got ambient dimensions 3 and 3$"):
        n2_gluable(a, b)


def test_n2_gluable_rejects_two_full_planes():
    a = SemigroupGens.from_columns([(1, 0), (0, 1)], "x")
    b = SemigroupGens.from_columns([(1, 1), (1, 2)], "y")
    decision = n2_gluable(a, b)
    assert decision.gluing is False
    assert decision.detail == ("both sides span the plane, so the meeting "
                               "is not a line")


def test_n2_gluable_rejects_a_missed_cone():
    a = SemigroupGens.from_columns([(2, 1), (1, 2)], "x")
    b = SemigroupGens.from_columns([(1, 0)], "y")
    decision = n2_gluable(a, b)
    assert decision.gluing is False and decision.cone_meet is False
    # The cheap obstruction is found first, and is the one named.
    assert decision.detail == ("no positive multiple of (1, 0) can ever "
                               "lie in the first semigroup")


def test_n2_gluable_can_stay_open():
    a = SemigroupGens.from_columns([(2, 0), (0, 2)], "x")
    b = SemigroupGens.from_columns([(2, 2)], "y")
    decision = n2_gluable(a, b, kmax=20)
    assert decision.gluing is None
    assert decision.detail == ("multiples of the lattice point lie in "
                               "both semigroups")


def test_rank1_gluable_positive():
    a = SemigroupGens.from_columns([(1, 0), (0, 1)], "x")
    b = SemigroupGens.from_columns([(2, 2)], "y")
    decision = rank1_gluable(a, b)
    assert decision.gluing is True
    assert decision.pair == (2, 1)


def test_rank1_gluable_takes_each_rank_once(monkeypatch):
    ranked = []

    def counted(m):
        ranked.append(m)
        return exactlin.rank(m)

    monkeypatch.setattr(gluing, "rank", counted)
    monkeypatch.setattr(constructions, "rank", counted)
    a = SemigroupGens.from_columns([(1, 0), (0, 1)], "x")
    b = SemigroupGens.from_columns([(2, 2)], "y")
    assert rank1_gluable(a, b).gluing is True
    assert ranked == [b.matrix]


def test_rank1_gluable_requires_the_rank_profile():
    ray = SemigroupGens.from_columns([(1, 1), (2, 2)], "x")
    full = SemigroupGens.from_columns([(1, 0), (0, 1)], "y")
    with pytest.raises(RankMismatch):
        rank1_gluable(ray, full)


def test_rank1_gluable_checks_the_ranks_before_any_membership(monkeypatch):
    decided, searched = [], []
    decide, real = gluing._face_multiples, gluing.is_member

    def sides(u, gens, kmax, work_limit):
        decided.append(gens.block.names[0])
        return decide(u, gens, kmax, work_limit)

    def counted(v, gens, work_limit=10 ** 6):
        searched.append(v)
        return real(v, gens, work_limit)

    monkeypatch.setattr(gluing, "_face_multiples", sides)
    monkeypatch.setattr(gluing, "is_member", counted)
    # Rank 2 and rank 2 in three dimensions, meeting in a line.
    a, b = twisted_pair()
    with pytest.raises(RankMismatch, match="need rank 3 and rank 1"):
        rank1_gluable(a, b)
    assert decided == searched == []
    # u = (1, 1, 0): the ray is decided by arithmetic, but its face in
    # the full semigroup holds x1, x2 and x4, dependent and off the ray,
    # so that side is searched.
    ray = SemigroupGens.from_columns([(1, 1, 0), (2, 2, 0)], "y")
    full = SemigroupGens.from_columns(
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)], "x")
    assert rank1_gluable(full, ray).gluing is True
    assert decided == ["x1", "y1"]
    assert searched


def test_rank1_gluable_rejects_a_missed_cone():
    a = SemigroupGens.from_columns([(2, 1), (1, 2)], "x")
    b = SemigroupGens.from_columns([(1, 0)], "y")
    decision = rank1_gluable(a, b)
    assert decision.gluing is False and decision.cone_meet is False
    # The cheap obstruction is found first, and is the one named.
    assert decision.detail == ("no positive multiple of (1, 0) can ever "
                               "lie in the first semigroup")


def test_rank1_gluable_can_stay_open():
    a = SemigroupGens.from_columns([(2, 0), (0, 2)], "x")
    b = SemigroupGens.from_columns([(2, 2)], "y")
    decision = rank1_gluable(a, b)
    assert decision.gluing is None
    assert decision.detail == ("multiples of the lattice point lie in "
                               "both semigroups")

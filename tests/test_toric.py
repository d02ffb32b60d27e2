"""Toric ideals of semigroup generators, with a brute-force oracle."""

import random

import pytest

from semiglue import (
    Binomial,
    BinomialIdeal,
    BoundTooLarge,
    GluingCandidate,
    IntegerMatrix,
    Monomial,
    MonomialOrder,
    SemigroupGens,
    VariableBlock,
    buchberger,
    enumerate_oracle,
    ideal_equal,
    normal_form,
    toric_ideal,
)
from semiglue.toric import (
    GradedBinomialSet,
    fiber_monomials,
    minimal_generators,
    toric_ideal_of_matrix,
)
from support import linear_binomial_pair, monomial_curves_pair

PLANE_CUBIC = SemigroupGens.from_columns(
    [(3, 0), (2, 1), (1, 2), (0, 3)], "x")


def mk(block, plus, minus):
    return Binomial(Monomial(block, plus), Monomial(block, minus))


def test_gens_validation():
    with pytest.raises(ValueError):
        SemigroupGens.from_columns([(1, 0), (0, 0)])
    with pytest.raises(ValueError):
        SemigroupGens.from_columns([(1, 0), (1, 0)])
    with pytest.raises(ValueError):
        SemigroupGens.from_columns([(1, -1)])
    with pytest.raises(ValueError):
        SemigroupGens(PLANE_CUBIC.matrix, VariableBlock.prefixed("x", 3))


def test_gens_weights_degrees_scaling():
    assert PLANE_CUBIC.ambient == 2
    assert PLANE_CUBIC.count == 4
    assert PLANE_CUBIC.weights() == (3, 3, 3, 3)
    assert PLANE_CUBIC.adegree((1, 0, 0, 1)) == (3, 3)
    doubled = PLANE_CUBIC.scaled(2)
    assert doubled.matrix.columns()[0] == (6, 0)
    assert doubled.block == PLANE_CUBIC.block


def test_plane_cubic_ideal():
    t = toric_ideal(PLANE_CUBIC)
    assert t.mu == 3
    block = PLANE_CUBIC.block
    want = BinomialIdeal(block, (
        mk(block, (0, 2, 0, 0), (1, 0, 1, 0)),
        mk(block, (0, 0, 2, 0), (0, 1, 0, 1)),
        mk(block, (0, 1, 1, 0), (1, 0, 0, 1)),
    ))
    assert ideal_equal(t.ideal, want, PLANE_CUBIC.weights())
    for g in t.ideal.generators:
        assert t.adegrees[g] == PLANE_CUBIC.adegree(g.plus.exponents)
        assert t.adegrees[g] == PLANE_CUBIC.adegree(g.minus.exponents)


def test_monomial_curve_ideals_match_known_generators():
    a, b = monomial_curves_pair()
    ta = toric_ideal(a)
    assert ta.mu == 3
    xb = a.block
    want_a = BinomialIdeal(xb, (
        mk(xb, (0, 0, 3, 0), (0, 1, 0, 1)),
        mk(xb, (0, 2, 0, 0), (1, 0, 1, 0)),
        mk(xb, (0, 1, 2, 0), (1, 0, 0, 1)),
    ))
    assert ideal_equal(ta.ideal, want_a, a.weights())
    tb = toric_ideal(b)
    assert tb.mu == 2
    yb = b.block
    want_b = BinomialIdeal(yb, (
        mk(yb, (0, 1, 2, 0), (0, 0, 0, 1)),
        mk(yb, (0, 5, 0, 0), (3, 0, 2, 0)),
    ))
    assert ideal_equal(tb.ideal, want_b, b.weights())


def test_free_semigroup_has_zero_ideal():
    free = SemigroupGens.from_columns([(1, 0), (0, 1)])
    t = toric_ideal(free)
    assert t.mu == 0
    assert t.ideal.generators == ()


def test_union_with_shared_column_needs_thirteen_generators():
    a, b = linear_binomial_pair()
    cand = GluingCandidate(a, b)
    t = toric_ideal_of_matrix(cand.c_matrix, cand.c_block)
    assert t.mu == 13
    linear = mk(cand.c_block,
                (0, 0, 0, 0, 1) + (0,) * 5, (0,) * 5 + (0, 0, 0, 0, 1))
    weights = tuple(sum(c) for c in cand.c_matrix.columns())
    assert t.ideal.contains(linear, weights)
    assert linear in t.ideal.generators or linear.negated() in t.ideal.generators


def test_fiber_monomials_enumerate_exactly():
    m = PLANE_CUBIC.matrix
    fiber = fiber_monomials(m, (3, 3))
    assert set(fiber) == {(1, 0, 0, 1), (0, 1, 1, 0)}
    assert fiber_monomials(m, (1, 0)) == ()
    assert fiber_monomials(m, (-1, 2)) == ()
    assert fiber_monomials(m, (0, 0)) == ((0, 0, 0, 0),)


def test_fiber_work_limit_raises():
    m = PLANE_CUBIC.matrix
    with pytest.raises(BoundTooLarge):
        fiber_monomials(m, (30, 30), work_limit=5)


def test_oracle_agrees_with_the_computed_ideal():
    t = toric_ideal(PLANE_CUBIC)
    weights = PLANE_CUBIC.weights()
    found = enumerate_oracle(PLANE_CUBIC, (6, 6))
    assert found
    for f in found:
        assert PLANE_CUBIC.adegree(f.plus.exponents) == \
            PLANE_CUBIC.adegree(f.minus.exponents)
        assert t.ideal.contains(f, weights)
    for g in t.ideal.generators:
        deg = t.adegrees[g]
        assert all(x <= 6 for x in deg)
        assert g in found or g.negated() in found


def test_oracle_empty_under_zero_bound():
    assert enumerate_oracle(PLANE_CUBIC, (0, 0)) == ()
    with pytest.raises(BoundTooLarge):
        enumerate_oracle(PLANE_CUBIC, (9, 9), work_limit=10)


def test_toric_ideal_of_matrix_accepts_repeated_columns():
    fat = SemigroupGens.from_columns([(2, 1), (1, 2)], "x")
    cand = GluingCandidate(fat, SemigroupGens.from_columns([(2, 1)], "y"))
    t = toric_ideal_of_matrix(cand.c_matrix, cand.c_block)
    assert t.mu == 1
    linear = mk(cand.c_block, (1, 0, 0), (0, 0, 1))
    assert linear in t.ideal.generators or \
        linear.negated() in t.ideal.generators


def _random_matrix(rng, rows, cols, repeat=False):
    columns = []
    while len(columns) < cols:
        c = tuple(rng.randint(0, 3) for _ in range(rows))
        if any(c):
            columns.append(c)
    if repeat:
        columns.append(rng.choice(columns))
    return IntegerMatrix.from_columns(columns)


def _rerun_minimal(gens, adegrees, order):
    """Keep each generator outside the ideal of those kept before it.

    The ideal of the kept ones gets a fresh Groebner basis every time
    one is kept.
    """
    def scan_key(g):
        u, v = g.plus.exponents, g.minus.exponents
        return (sum(adegrees[g]), adegrees[g], sum(u), u, sum(v), v)

    kept, gb = [], ()
    for g in sorted(gens, key=scan_key):
        if gb and normal_form(g, gb, order) is None:
            continue
        kept.append(g)
        gb = buchberger(kept, order)
    return kept


def test_minimal_generators_match_the_per_generator_rerun():
    rng = random.Random(20260205)
    for trial in range(40):
        rows = 2 + trial % 2
        m = _random_matrix(rng, rows, rng.randint(rows + 1, rows + 3),
                           repeat=trial % 4 == 3)
        block = VariableBlock.prefixed("x", m.cols)
        t = toric_ideal_of_matrix(m, block)
        order = MonomialOrder.degrevlex(t.weights)
        cached = t.ideal.groebner(order)
        full = {g: m.matvec(g.plus.exponents) for g in cached}
        graded = GradedBinomialSet(BinomialIdeal(block, cached), full,
                                   t.weights)
        want = _rerun_minimal(cached, full, order)
        for got in (t, minimal_generators(graded)):
            assert set(got.ideal.generators) == set(want), m
            assert got.adegrees == {g: full[g] for g in want}, m
            assert got.ideal.groebner(order) == buchberger(want, order), m
        kept = t.ideal.generators
        for i, g in enumerate(kept):
            others = kept[:i] + kept[i + 1:]
            if others:
                assert normal_form(g, buchberger(others, order),
                                   order) is not None, (m, g)


def test_toric_ideals_agree_with_sympy_elimination():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(11)
    for trial in range(20):
        m = _random_matrix(rng, 2, 3 + trial % 2)
        block = VariableBlock.prefixed("x", m.cols)
        t = toric_ideal_of_matrix(m, block)
        ts = sympy.symbols("t1 t2")
        xs = sympy.symbols(" ".join(block.names))
        images = [x - ts[0] ** c[0] * ts[1] ** c[1]
                  for x, c in zip(xs, m.columns())]
        eliminated = sympy.groebner(images, *ts, *xs, order="lex")
        theirs = [f for f in eliminated.exprs if not f.free_symbols & set(ts)]

        def as_expr(g):
            def mono(e):
                return sympy.Mul(*(x ** k for x, k in zip(xs, e)))
            return mono(g.plus.exponents) - mono(g.minus.exponents)

        ours = [as_expr(g) for g in t.ideal.generators]
        if not ours:
            assert not theirs, m
            continue
        ours_gb = sympy.groebner(ours, *xs, order="grevlex")
        theirs_gb = sympy.groebner(theirs, *xs, order="grevlex")
        assert all(theirs_gb.contains(f) for f in ours), m
        assert all(ours_gb.contains(f) for f in theirs), m

"""Binomials, term orders, Groebner bases and saturation."""

import random
import re
from itertools import product

import pytest

from semiglue import binomial, toric
from semiglue import (
    BettiSequence,
    Binomial,
    BinomialIdeal,
    IntegerMatrix,
    Monomial,
    MonomialOrder,
    VariableBlock,
    binomial_from_vector,
    buchberger,
    embed,
    ideal_equal,
    kernel_lattice_basis,
    normal_form,
    saturate,
)
from support import full_reduce_pair, random_gens

X4 = VariableBlock.prefixed("x", 4)
ORDER = MonomialOrder.degrevlex((1, 1, 1, 1))


def b4(plus, minus):
    return Binomial(Monomial(X4, plus), Monomial(X4, minus))


# the toric ideal of the degree-three plane monomial curve
G_SQ2 = b4((0, 2, 0, 0), (1, 0, 1, 0))
G_SQ3 = b4((0, 0, 2, 0), (0, 1, 0, 1))
G_MIX = b4((0, 1, 1, 0), (1, 0, 0, 1))
CURVE = BinomialIdeal(X4, (G_SQ2, G_SQ3, G_MIX))
# the two squares alone: a strictly smaller complete intersection
CURVE_CI = BinomialIdeal(X4, (G_SQ2, G_SQ3))


@pytest.mark.optimized
def test_block_names_and_index():
    assert X4.names == ("x1", "x2", "x3", "x4")
    assert X4.size == 4
    assert X4.index("x3") == 2
    y = VariableBlock.prefixed("y", 2)
    assert X4.concat(y).names == ("x1", "x2", "x3", "x4", "y1", "y2")
    with pytest.raises(ValueError, match="names must be distinct"):
        VariableBlock(("x1", "x1"))
    with pytest.raises(ValueError, match="at least one variable"):
        VariableBlock(())
    for names in (("x1", ""), ("x1", 2)):
        with pytest.raises(ValueError, match="nonempty strings"):
            VariableBlock(names)
    with pytest.raises(ValueError, match="blocks share a name"):
        X4.concat(VariableBlock(("y1", "x2")))


def test_monomial_degree_and_str():
    m = Monomial(X4, (2, 0, 1, 0))
    assert m.degree == 3
    assert str(m) == "x1^2*x3"
    assert str(Monomial(X4, (0, 0, 0, 0))) == "1"


@pytest.mark.optimized
def test_monomial_refuses_bad_exponents():
    with pytest.raises(ValueError, match="one exponent per variable"):
        Monomial(X4, (1, 0, 0))
    for bad in ((1, -1, 0, 0), (1, 2.0, 0, 0)):
        with pytest.raises(ValueError, match="nonnegative integers"):
            Monomial(X4, bad)
    assert Monomial(X4, (3, 0, True, 0)).degree == 4


def test_make_cancels_common_factors():
    f = Binomial.make(X4, (2, 1, 0, 0), (1, 0, 1, 0))
    assert f.plus.exponents == (1, 1, 0, 0)
    assert f.minus.exponents == (0, 0, 1, 0)
    with pytest.raises(ValueError):
        Binomial.make(X4, (1, 1, 0, 0), (1, 1, 0, 0))


@pytest.mark.optimized
def test_direct_constructor_keeps_raw_exponents():
    f = b4((2, 1, 0, 0), (1, 0, 1, 0))
    assert f.as_pair() == ((2, 1, 0, 0), (1, 0, 1, 0))
    assert f.negated().as_pair() == ((1, 0, 1, 0), (2, 1, 0, 0))
    with pytest.raises(ValueError, match="zero binomial"):
        b4((1, 0, 0, 0), (1, 0, 0, 0))
    y4 = VariableBlock.prefixed("y", 4)
    with pytest.raises(ValueError, match="over different blocks"):
        Binomial(Monomial(X4, (1, 0, 0, 0)), Monomial(y4, (0, 1, 0, 0)))


@pytest.mark.optimized
def test_binomial_batch_builds_checked_binomials():
    exps = [(1, 0, 0, 2), (0, 1, 1, 0), (0, 0, 2, 1)]
    batch = binomial._binomial_batch(X4, exps, [(0, 1), (2, 0), (1, 2)])
    assert batch == (b4(exps[0], exps[1]), b4(exps[2], exps[0]),
                     b4(exps[1], exps[2]))
    assert all(g.block is X4 for g in batch)
    for bad, message in (
            ([(1, 0, 0), (0, 1, 0)], "length differs from the block's"),
            ([(1, -1, 0, 0), (0, 1, 0, 0)], "exponents must be nonnegative"),
            ([(1, 0, 0, 0), (1, 0, 0, 0)], "equal: zero binomial")):
        with pytest.raises(ValueError, match=message):
            binomial._binomial_batch(X4, bad, [(0, 1)])


@pytest.mark.optimized
def test_binomial_from_vector():
    f = binomial_from_vector(X4, (1, -2, 1, 0))
    assert f.as_pair() == ((1, 0, 1, 0), (0, 2, 0, 0))
    with pytest.raises(ValueError, match="zero binomial"):
        binomial_from_vector(X4, (0, 0, 0, 0))
    with pytest.raises(ValueError, match="one entry per variable"):
        binomial_from_vector(X4, (1, -1, 0))


def test_order_key_is_injective_and_graded():
    key = ORDER.key_function()
    seen = {}
    for a in range(3):
        for b in range(3):
            for c in range(3):
                m = (a, b, c, 0)
                k = key(m)
                assert k[0] == a + b + c
                assert k not in seen
                seen[k] = m


def test_normal_form_of_monomial():
    gb = CURVE.groebner(ORDER)
    nf = normal_form(Monomial(X4, (0, 2, 0, 0)), gb, ORDER)
    assert nf == Monomial(X4, (1, 0, 1, 0))
    again = normal_form(nf, gb, ORDER)
    assert again == nf


def test_membership_separates_curve_from_complete_intersection():
    assert CURVE.contains(G_MIX)
    assert not CURVE_CI.contains(G_MIX)
    for g in CURVE.generators:
        assert CURVE.contains(g)
        assert CURVE.contains(g.negated())
    assert not CURVE.contains(b4((1, 0, 0, 0), (0, 1, 0, 0)))


def differ(other) -> str:
    return re.escape(f"blocks differ: ('x1', 'x2', 'x3'), {other}")


@pytest.mark.optimized
def test_membership_refuses_a_binomial_over_another_block():
    # Packing zips exponents against the held basis's variables, so a
    # binomial over another block was once silently cut short:
    # x1^2 x4^5 - x2 over x1..x4, and x1^2 - x2 over y1..y3, were members
    # of the toric ideal of <1, 2, 3>.
    t = toric.toric_ideal(toric.SemigroupGens.from_columns([(1,), (2,), (3,)]))
    ideal, order = t.ideal, MonomialOrder.degrevlex(t.weights)
    gb = ideal.groebner(order)
    y3 = VariableBlock.prefixed("y", 3)
    long = Binomial.from_pair(X4, ((2, 0, 0, 5), (0, 1, 0, 0)))
    with pytest.raises(ValueError, match=differ(X4.names)):
        ideal.contains(long)
    with pytest.raises(ValueError, match="order and the block differ"):
        normal_form(long, gb, order)
    other = Binomial.from_pair(y3, ((2, 0, 0), (0, 1, 0)))
    for call in (lambda: ideal.contains(other),
                 lambda: normal_form(other, gb, order),
                 lambda: ideal_equal(ideal, BinomialIdeal(y3, ()))):
        with pytest.raises(ValueError, match=differ(y3.names)):
            call()
    same = Binomial.from_pair(ideal.block, ((2, 0, 0), (0, 1, 0)))
    assert ideal.contains(same) is True
    assert normal_form(same, gb, order) is None


@pytest.mark.optimized
def test_groebner_bases_refuse_another_block():
    # Packing zips exponents against the order's weights, so under -O
    # x1^2 x4^5 - x2 over x1..x4 once had the basis (x1^2 - x2) under
    # degrevlex((1, 1, 1)), and an ideal over x1..x3 accepted it as a
    # generator.
    x3 = VariableBlock.prefixed("x", 3)
    ord3 = MonomialOrder.degrevlex((1, 1, 1))
    long = Binomial.from_pair(X4, ((2, 0, 0, 5), (0, 1, 0, 0)))
    short = Binomial.from_pair(x3, ((2, 0, 0), (0, 1, 0)))
    for call in (lambda: buchberger([long], ord3),
                 lambda: BinomialIdeal(X4, (long,)).groebner(ord3)):
        with pytest.raises(ValueError, match="order and the block differ"):
            call()
    for call in (lambda: buchberger([short, long], ord3),
                 lambda: BinomialIdeal(x3, (long,))):
        with pytest.raises(ValueError, match=differ(X4.names)):
            call()
    assert [str(g) for g in buchberger([short], ord3)] == ["x1^2 - x2"]


@pytest.mark.optimized
def test_engine_entry_points_refuse_what_they_cannot_read():
    with pytest.raises(ValueError, match="from no generators"):
        buchberger([], ORDER)
    with pytest.raises(ValueError, match="generators must be Binomials"):
        BinomialIdeal(X4, (G_SQ2, G_SQ3.plus))
    # an ideal has a block, so only the type check refuses it
    with pytest.raises(ValueError, match="a Binomial or a Monomial"):
        normal_form(CURVE, CURVE.groebner(ORDER), ORDER)


def _count_buchberger(monkeypatch) -> list:
    runs = []
    real = binomial._buchberger

    def counted(pairs, order):
        runs.append(len(pairs))
        return real(pairs, order)

    monkeypatch.setattr(binomial, "_buchberger", counted)
    return runs


def test_contains_runs_buchberger_once_on_a_fresh_ideal(monkeypatch):
    runs = _count_buchberger(monkeypatch)
    curve = BinomialIdeal(X4, CURVE.generators)
    probes = [G_MIX, b4((1, 0, 0, 0), (0, 1, 0, 0))] * 25
    answers = [curve.contains(f) for f in probes]
    assert answers == [True, False] * 25
    assert len(runs) == 1
    # It computed the basis under unit weights, which groebner now reads.
    assert list(curve._bases) == [ORDER]
    assert set(curve.groebner(ORDER)) == set(CURVE.generators)
    assert len(runs) == 1


def test_contains_and_ideal_equal_use_a_basis_already_held(monkeypatch):
    heavy = MonomialOrder.degrevlex((2, 1, 1, 1))
    curve = BinomialIdeal(X4, CURVE.generators)
    curve.groebner(heavy)
    runs = _count_buchberger(monkeypatch)
    assert curve.contains(G_MIX)
    assert not curve.contains(b4((1, 0, 0, 0), (0, 1, 0, 0)))
    assert runs == []
    # The other ideal gets a basis under the order the first one holds.
    ci = BinomialIdeal(X4, CURVE_CI.generators)
    assert not ideal_equal(curve, ci)
    assert len(runs) == 1
    assert list(ci._bases) == [heavy]


def test_contains_packs_its_basis_again_for_a_larger_binomial():
    line = BinomialIdeal(X4, (b4((1, 0, 0, 0), (0, 1, 0, 0)),))
    assert line.contains(b4((2, 0, 1, 0), (0, 2, 1, 0)))
    (held,) = line._bases.values()
    narrow = held.packing.width
    # degree 1000 is past the limit of the packing that fits degree 3
    assert line.contains(b4((1000, 0, 0, 7), (0, 1000, 0, 7)))
    assert not line.contains(b4((1000, 0, 0, 0), (0, 999, 1, 0)))
    assert held.packing.width > narrow
    assert line.contains(b4((2, 0, 1, 0), (0, 2, 1, 0)))
    nf = normal_form(Monomial(X4, (1000, 0, 0, 1)), line.groebner(ORDER),
                     ORDER)
    assert nf == Monomial(X4, (0, 1000, 0, 1))


def test_from_basis_keeps_the_basis_it_is_given(monkeypatch):
    gb = tuple(g.as_pair() for g in CURVE.groebner(ORDER))
    ideal = BinomialIdeal.from_basis(X4, ORDER, gb)
    runs = _count_buchberger(monkeypatch)
    assert ideal == CURVE
    assert ideal.groebner(ORDER) == CURVE.groebner(ORDER)
    kept = ideal.spanned_by(CURVE.generators)
    assert kept.contains(G_MIX) and ideal_equal(kept, CURVE)
    assert runs == []


def test_binomial_from_pair_inverts_as_pair():
    assert Binomial.from_pair(X4, G_MIX.as_pair()) == G_MIX
    assert Binomial.from_pair(X4, ((1, 1, 0, 0), (1, 0, 1, 0))) == \
        b4((1, 1, 0, 0), (1, 0, 1, 0))


def test_normal_form_zero_exactly_on_members():
    gb = CURVE.groebner(ORDER)
    assert normal_form(G_MIX, gb, ORDER) is None
    stranger = b4((1, 0, 0, 0), (0, 0, 0, 1))
    reduced = normal_form(stranger, gb, ORDER)
    assert reduced is not None
    assert normal_form(reduced, gb, ORDER) == reduced


def test_reduced_groebner_basis_is_generator_order_independent():
    direct = buchberger(CURVE.generators, ORDER)
    permuted = buchberger(tuple(reversed(CURVE.generators)), ORDER)
    negated = buchberger(tuple(g.negated() for g in CURVE.generators), ORDER)
    assert direct == permuted == negated
    assert set(direct) == set(CURVE.generators)


def test_ideal_equal_ignores_presentation():
    shuffled = BinomialIdeal(X4, tuple(reversed(CURVE.generators)))
    negated = BinomialIdeal(X4, tuple(g.negated() for g in CURVE.generators))
    assert ideal_equal(CURVE, shuffled)
    assert ideal_equal(CURVE, negated)
    assert not ideal_equal(CURVE, CURVE_CI)


def test_saturate_strips_a_monomial_factor():
    ideal = BinomialIdeal(X4, (b4((1, 1, 0, 0), (1, 0, 1, 0)),))
    sat = saturate(ideal)
    want = BinomialIdeal(X4, (b4((0, 1, 0, 0), (0, 0, 1, 0)),))
    assert ideal_equal(sat, want)
    assert ideal_equal(saturate(sat), sat)


def test_saturate_by_a_single_variable():
    ideal = BinomialIdeal(X4, (b4((1, 1, 0, 0), (1, 0, 1, 0)),))
    by_x1 = saturate(ideal, ("x1",))
    assert ideal_equal(by_x1, BinomialIdeal(X4, (b4((0, 1, 0, 0),
                                                    (0, 0, 1, 0)),)))
    by_x2 = saturate(ideal, ("x2",))
    assert ideal_equal(by_x2, ideal)


def test_saturate_takes_one_groebner_run_per_variable(monkeypatch):
    runs = []
    real = binomial._buchberger

    def counted(pairs, order):
        runs.append(len(pairs))
        return real(pairs, order)

    monkeypatch.setattr(binomial, "_buchberger", counted)
    sat = saturate(CURVE_CI)
    assert len(runs) == 4
    # The last sweep, interreduced, is the reduced basis of the curve.
    assert sat.generators == buchberger(CURVE.generators, ORDER)
    runs.clear()
    saturate(CURVE_CI, ("x1", "x4"))
    assert len(runs) == 3


def test_saturate_requires_homogeneous_generators():
    ideal = BinomialIdeal(X4, (b4((1, 0, 0, 0), (0, 1, 1, 0)),))
    with pytest.raises(ValueError):
        saturate(ideal)
    sat = saturate(ideal, weights=(2, 1, 1, 1))
    assert ideal_equal(sat, ideal)


@pytest.mark.optimized
def test_public_checks_refuse_bad_weights_and_indices():
    with pytest.raises(ValueError, match="needs at least one weight"):
        MonomialOrder(())
    for weights in ((1, 0), (1, 1.5)):
        with pytest.raises(ValueError, match=re.escape(
                f"weights must be positive ints, got {weights}")):
            MonomialOrder(weights)
    with pytest.raises(ValueError, match="cheapest variable 2 is not one "
                                         "of the 2 variables"):
        MonomialOrder((1, 1), cheapest=2)
    # x1 - 1 is homogeneous for the weights (0, 1), and a Groebner run
    # under a zero weight need not end, so the saturation must refuse it
    # before its first run.
    x2 = VariableBlock.prefixed("x", 2)
    ideal = BinomialIdeal(x2, (Binomial.from_pair(x2, ((1, 0), (0, 0))),))
    with pytest.raises(ValueError, match=re.escape("got (0, 1)")):
        saturate(ideal, ["x1"], weights=(0, 1))
    with pytest.raises(IndexError, match="start at index 0, not -1"):
        BettiSequence((1, 3, 2))[-1]
    assert BettiSequence((1, 3, 2))[3] == 0


@pytest.mark.optimized
def test_embed_pads_with_zeros():
    small = VariableBlock.prefixed("y", 2)
    target = VariableBlock(("x1", "y1", "y2", "z1"))
    f = Binomial(Monomial(small, (1, 0)), Monomial(small, (0, 2)))
    g = embed(f, target, 1)
    assert g.as_pair() == ((0, 1, 0, 0), (0, 0, 2, 0))
    with pytest.raises(ValueError, match="does not hold the block"):
        embed(f, target, 0)
    for offset in (-1, 3):
        with pytest.raises(ValueError, match="does not fit the target"):
            embed(f, target, offset)


# -- the raw engine against a textbook Buchberger ----------------------------

def textbook_key(weights, cheapest):
    """Weighted degree, then reverse lexicographic with one cheapest variable."""
    p = len(weights)
    tail = [i for i in range(p - 1, -1, -1) if i != cheapest]
    if cheapest is not None:
        tail.insert(0, cheapest)

    def key(m):
        return (sum(w * e for w, e in zip(weights, m)),) \
            + tuple(-m[i] for i in tail)

    return key


def textbook_groebner(gens, key):
    """Buchberger with every pair processed and full reduction, no criteria."""
    def divides(d, m):
        return all(a <= b for a, b in zip(d, m))

    def nf(m, basis):
        while True:
            for lu, lv in basis:
                if divides(lu, m):
                    m = tuple(a - b + c for a, b, c in zip(m, lu, lv))
                    break
            else:
                return m

    def orient(u, v):
        return None if u == v else (u, v) if key(u) > key(v) else (v, u)

    def pairs_with(j):
        for i in range(j):
            big = tuple(max(a, b) for a, b in zip(basis[i][0], basis[j][0]))
            yield (key(big), i, j, big)

    basis = [g for g in (orient(u, v) for u, v in gens) if g is not None]
    todo = [pr for j in range(len(basis)) for pr in pairs_with(j)]
    while todo:
        # the normal strategy: the smallest lcm first
        todo.sort(reverse=True)
        _, i, j, big = todo.pop()
        (u1, v1), (u2, v2) = basis[i], basis[j]
        a = tuple(x + y - z for x, y, z in zip(v1, big, u1))
        b = tuple(x + y - z for x, y, z in zip(v2, big, u2))
        r = orient(nf(a, basis), nf(b, basis))
        if r is not None:
            basis.append(r)
            todo += pairs_with(len(basis) - 1)
    # interreduce: drop elements whose lead another lead divides, then
    # reduce each tail by the rest
    minimal = []
    for u, v in sorted(set(basis), key=lambda g: (key(g[0]), key(g[1]))):
        if not any(divides(lu, u) for lu, _ in minimal):
            minimal.append((u, v))
    return tuple(sorted(((u, nf(v, minimal)) for u, v in minimal),
                        key=lambda g: key(g[0])))


def random_homogeneous_binomials(rng, p):
    """Return positive weights and 2 to 4 binomials homogeneous for them."""
    fibers = []
    while not fibers:
        weights = tuple(rng.randrange(1, 4) for _ in range(p))
        by_degree = {}
        for m in product(range(3), repeat=p):
            by_degree.setdefault(sum(w * e for w, e in zip(weights, m)),
                                 []).append(m)
        fibers = [ms for ms in by_degree.values() if len(ms) > 1]
    gens = []
    for _ in range(rng.randrange(2, 5)):
        u, v = rng.sample(rng.choice(fibers), 2)
        gens.append((u, v))
    return weights, gens


def test_buchberger_matches_a_textbook_run(monkeypatch):
    real_update = binomial._gm_update
    checked = []

    def checked_update(pk, basis, pairs, t):
        fits = real_update(pk, basis, pairs, t)
        key = pk.order.key_function()
        for lkey, i, j, lij in pairs:
            assert i < j <= t
            big = pk.unpack(lij)
            assert big == tuple(map(max, pk.unpack(basis[i][0]),
                                    pk.unpack(basis[j][0])))
            assert lij == pk.pack(big)
            assert lkey == pk.key(lij)
        # the queue stays sorted, the next pair to process last
        assert pairs == sorted(pairs, reverse=True)
        # packed keys order the lcms exactly as the order's own key does
        by_packed = sorted(pairs)
        assert [pk.unpack(e[3]) for e in by_packed] == sorted(
            (pk.unpack(e[3]) for e in pairs), key=key)
        checked.append(len(pairs))
        return fits

    monkeypatch.setattr(binomial, "_gm_update", checked_update)
    rng = random.Random(20261018)
    cheapest_seen = set()
    for case in range(200):
        p = 2 + case % 5
        cheapest = (None, *range(p))[case // 5 % (p + 1)]
        weights, gens = random_homogeneous_binomials(rng, p)
        order = MonomialOrder.degrevlex(weights, cheapest=cheapest)
        key = order.key_function()
        reference_key = textbook_key(weights, cheapest)
        for m in (u for pair in gens for u in pair):
            assert key(m) == reference_key(m)
        got = binomial._buchberger(gens, order)
        want = textbook_groebner(gens, reference_key)
        assert got == want, (weights, gens, cheapest)
        cheapest_seen.add((p, cheapest))
    assert len(cheapest_seen) == sum(p + 1 for p in range(2, 7))
    assert sum(checked) > 0


def _count_attempts(monkeypatch) -> list:
    """Count the packed attempts of each run: more than one widened it."""
    real = binomial._widening
    attempts = []

    def counted(order, pairs, run):
        def attempt(pk):
            attempts[-1] += 1
            return run(pk)
        attempts.append(0)
        return real(order, pairs, attempt)

    monkeypatch.setattr(binomial, "_widening", counted)
    return attempts


@pytest.mark.optimized
def test_a_run_past_its_field_width_restarts_wider(monkeypatch):
    # The lattice-basis ideals of seeded random 2 x 4 matrices with
    # entries up to 9, under each choice of cheapest variable: their
    # Groebner bases reach several times the inputs' weighted degree, so
    # some runs pass their starting field width.
    rng = random.Random(20261019)
    attempts = _count_attempts(monkeypatch)
    for _ in range(40):
        columns = set()
        while len(columns) < 4:
            c = (rng.randint(0, 9), rng.randint(0, 9))
            if any(c):
                columns.add(c)
        m = IntegerMatrix.from_columns(sorted(columns))
        pairs = [(tuple(max(x, 0) for x in v), tuple(max(-x, 0) for x in v))
                 for v in kernel_lattice_basis(m)]
        weights = tuple(sum(c) for c in m.columns())
        for cheapest in range(4):
            order = MonomialOrder.degrevlex(weights, cheapest)
            assert binomial._buchberger(pairs, order) == textbook_groebner(
                pairs, textbook_key(weights, cheapest)), (m, cheapest)
    assert any(n > 1 for n in attempts)


# -- top reduction against the full reduction -------------------------------


def test_top_reduction_keeps_the_lead_of_the_full_reduction(monkeypatch):
    """Every reduction of a run, on the partial basis it sees, both ways."""
    lazy = binomial._reduce_pair
    seen = []

    def checked(pk, basis, a, b):
        got = lazy(pk, basis, a, b)
        want = full_reduce_pair(pk, basis, a, b)
        assert lazy(pk, basis, b, a) == got
        if want is None:
            assert got is None
        else:
            assert got is not None and got[0] == want[0]
            # the lazy tail has the reference tail as its normal form
            tail = binomial._nf_mono(got[0] + got[1], basis, pk.guard)
            assert tail == want[0] + want[1]
        seen.append(got is None)
        return got

    monkeypatch.setattr(binomial, "_reduce_pair", checked)
    rng = random.Random(20261019)
    for case in range(60):
        weights, gens = random_homogeneous_binomials(rng, 2 + case % 5)
        binomial._buchberger(gens, MonomialOrder.degrevlex(weights))
        toric.toric_ideal_of_matrix.cache_clear()
        toric.toric_ideal(random_gens(rng, 3, 5 + case % 3, 3))
    assert len(seen) >= 2000 and 0 < sum(seen) < len(seen)


@pytest.mark.optimized
def test_top_reduction_gives_the_same_toric_ideals(monkeypatch):
    # Each of 300 random 3 x 5 to 3 x 7 matrices with entries up to 3
    # gets its toric ideal twice: with the engine's top reduction, and
    # with ``support.full_reduce_pair`` patched in.  The raw reduced
    # basis and the minimal generators must agree.
    rng = random.Random(20261020)
    lazy = binomial._reduce_pair
    attempts = _count_attempts(monkeypatch)

    def ideal(gens, reduce_pair):
        monkeypatch.setattr(binomial, "_reduce_pair", reduce_pair)
        toric.toric_ideal_of_matrix.cache_clear()
        t = toric.toric_ideal(gens)
        return [h.raw for h in t.ideal._bases.values()], t.ideal.generators

    try:
        for i in range(300):
            gens = random_gens(rng, 3, 5 + i % 3, 3)
            assert ideal(gens, lazy) == ideal(gens, full_reduce_pair), gens
    finally:
        toric.toric_ideal_of_matrix.cache_clear()
    assert any(n > 1 for n in attempts)


def test_normal_form_returns_irreducible_monomials():
    rng = random.Random(20261021)
    checked = 0
    for case in range(40):
        p = 2 + case % 4
        weights, gens = random_homogeneous_binomials(rng, p)
        block = VariableBlock.prefixed("x", p)
        order = MonomialOrder.degrevlex(weights)
        gb = buchberger([Binomial.from_pair(block, g) for g in gens], order)
        leads = [g.plus.exponents for g in gb]

        def irreducible(m):
            return not any(all(x >= y for x, y in zip(m.exponents, lead))
                           for lead in leads)

        for _ in range(6):
            u, v = (tuple(rng.randrange(5) for _ in range(p))
                    for _ in range(2))
            m = Monomial(block, u)
            nm = normal_form(m, gb, order)
            assert irreducible(nm) and normal_form(nm, gb, order) == nm
            if u == v:
                continue
            nf = normal_form(Binomial.from_pair(block, (u, v)), gb, order)
            nv = normal_form(Monomial(block, v), gb, order)
            if nf is None:
                assert nm == nv
            else:
                assert {nf.plus, nf.minus} == {nm, nv}
                assert irreducible(nf.plus) and irreducible(nf.minus)
                assert normal_form(nf, gb, order) == nf
            checked += 1
    assert checked >= 200

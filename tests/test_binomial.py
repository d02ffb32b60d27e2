"""Binomials, term orders, Groebner bases and saturation."""

import os
import random
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

from semiglue import binomial
from semiglue import (
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


def test_block_names_and_index():
    assert X4.names == ("x1", "x2", "x3", "x4")
    assert X4.size == 4
    assert X4.index("x3") == 2
    y = VariableBlock.prefixed("y", 2)
    assert X4.concat(y).names == ("x1", "x2", "x3", "x4", "y1", "y2")
    with pytest.raises(AssertionError):
        VariableBlock(("x1", "x1"))


def test_monomial_degree_and_str():
    m = Monomial(X4, (2, 0, 1, 0))
    assert m.degree == 3
    assert str(m) == "x1^2*x3"
    assert str(Monomial(X4, (0, 0, 0, 0))) == "1"


def test_monomial_refuses_bad_exponents():
    # a wrong length, a negative exponent, a non-int exponent
    for bad in ((1, 0, 0), (1, -1, 0, 0), (1, 2.0, 0, 0)):
        with pytest.raises(AssertionError):
            Monomial(X4, bad)
    assert Monomial(X4, (3, 0, True, 0)).degree == 4


def test_make_cancels_common_factors():
    f = Binomial.make(X4, (2, 1, 0, 0), (1, 0, 1, 0))
    assert f.plus.exponents == (1, 1, 0, 0)
    assert f.minus.exponents == (0, 0, 1, 0)
    with pytest.raises(ValueError):
        Binomial.make(X4, (1, 1, 0, 0), (1, 1, 0, 0))


def test_direct_constructor_keeps_raw_exponents():
    f = b4((2, 1, 0, 0), (1, 0, 1, 0))
    assert f.as_pair() == ((2, 1, 0, 0), (1, 0, 1, 0))
    assert f.negated().as_pair() == ((1, 0, 1, 0), (2, 1, 0, 0))
    with pytest.raises(AssertionError):
        b4((1, 0, 0, 0), (1, 0, 0, 0))


def test_binomial_from_vector():
    f = binomial_from_vector(X4, (1, -2, 1, 0))
    assert f.as_pair() == ((1, 0, 1, 0), (0, 2, 0, 0))
    with pytest.raises(ValueError):
        binomial_from_vector(X4, (0, 0, 0, 0))


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


def _count_buchberger(monkeypatch) -> list:
    runs = []
    real = binomial._buchberger

    def counted(pairs, key):
        runs.append(len(pairs))
        return real(pairs, key)

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

    def counted(pairs, key):
        runs.append(len(pairs))
        return real(pairs, key)

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


def test_embed_pads_with_zeros():
    small = VariableBlock.prefixed("y", 2)
    target = VariableBlock(("x1", "y1", "y2", "z1"))
    f = Binomial(Monomial(small, (1, 0)), Monomial(small, (0, 2)))
    g = embed(f, target, 1)
    assert g.as_pair() == ((0, 1, 0, 0), (0, 0, 2, 0))
    with pytest.raises(AssertionError):
        embed(f, target, 0)


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
        key = MonomialOrder.degrevlex(weights, cheapest=cheapest).key_function()
        reference_key = textbook_key(weights, cheapest)
        for m in (u for pair in gens for u in pair):
            assert key(m) == reference_key(m)
        got = binomial._buchberger(gens, key)
        want = textbook_groebner(gens, reference_key)
        assert got == want, (weights, gens, cheapest)
        cheapest_seen.add((p, cheapest))
    assert len(cheapest_seen) == sum(p + 1 for p in range(2, 7))
    assert sum(checked) > 0


def wide_runs_against_the_textbook(seed, count):
    """Return (runs that widened, runs unlike the textbook's) of a sweep.

    The inputs are the lattice-basis ideals of seeded random 2 x 4
    matrices with entries up to 9, under each choice of cheapest
    variable.  Their Groebner bases reach several times the inputs'
    weighted degree, so some runs pass their starting field width.
    Nothing here asserts, so the counts mean the same under -O.
    """
    rng = random.Random(seed)
    real = binomial._widening
    attempts = []

    def counted(order, pairs, run):
        def attempt(pk):
            attempts[-1] += 1
            return run(pk)
        attempts.append(0)
        return real(order, pairs, attempt)

    binomial._widening = counted
    wrong = 0
    try:
        for _ in range(count):
            columns = set()
            while len(columns) < 4:
                c = (rng.randint(0, 9), rng.randint(0, 9))
                if any(c):
                    columns.add(c)
            m = IntegerMatrix.from_columns(sorted(columns))
            pairs = [(tuple(max(x, 0) for x in v),
                      tuple(max(-x, 0) for x in v))
                     for v in kernel_lattice_basis(m)]
            weights = tuple(sum(c) for c in m.columns())
            for cheapest in range(4):
                order = MonomialOrder.degrevlex(weights, cheapest)
                got = binomial._buchberger(pairs, order.key_function())
                want = textbook_groebner(pairs,
                                         textbook_key(weights, cheapest))
                wrong += got != want
    finally:
        binomial._widening = real
    return sum(n > 1 for n in attempts), wrong


def test_a_run_past_its_field_width_restarts_wider():
    widened, wrong = wide_runs_against_the_textbook(20261019, 40)
    assert widened > 0 and wrong == 0, (widened, wrong)


def test_the_width_guard_holds_under_optimization(tmp_path):
    script = tmp_path / "wide.py"
    script.write_text(
        "from test_binomial import wide_runs_against_the_textbook\n"
        "print(*wide_runs_against_the_textbook(20261019, 40))\n")
    here = Path(__file__).resolve().parent
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(here.parent / "src"),
                                           str(here)]))
    done = subprocess.run([sys.executable, "-O", str(script)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    widened, wrong = map(int, done.stdout.split())
    assert widened > 0 and wrong == 0, (widened, wrong)

"""Randomized invariants, with hypothesis shrinking the counterexamples."""

import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from io import StringIO
from math import gcd

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from semiglue import (
    BettiSequence,
    Binomial,
    BinomialIdeal,
    BoundTooLarge,
    IntegerMatrix,
    Monomial,
    MonomialOrder,
    SemigroupGens,
    VariableBlock,
    buchberger,
    enumerate_oracle,
    glued_betti,
    ideal_equal,
    kernel_lattice_basis,
    normal_form,
    primitive,
    rank,
    saturate,
    toric_ideal,
)
from semiglue import cli
from semiglue.exactlin import _round_half_even
from semiglue.gluing import _face_multiples, is_member
from support import fraction_rank, integer_combination

X3 = VariableBlock.prefixed("x", 3)
ORDER3 = MonomialOrder.degrevlex((1, 1, 1))

vectors = st.lists(st.integers(-9, 9), min_size=1, max_size=5).filter(any)


@st.composite
def matrices(draw, max_rows=4, max_cols=5, lo=-5, hi=5):
    nrows = draw(st.integers(1, max_rows))
    ncols = draw(st.integers(1, max_cols))
    rows = draw(st.lists(
        st.lists(st.integers(lo, hi), min_size=ncols, max_size=ncols),
        min_size=nrows, max_size=nrows))
    return IntegerMatrix.from_rows(rows)


exponents3 = st.tuples(st.integers(0, 3), st.integers(0, 3),
                       st.integers(0, 3))
binomials3 = st.tuples(exponents3, exponents3).filter(
    lambda p: p[0] != p[1]).map(
    lambda p: Binomial(Monomial(X3, p[0]), Monomial(X3, p[1])))


@st.composite
def semigroups(draw, ambient=2, max_count=4, hi=4):
    count = draw(st.integers(1, max_count))
    cols = draw(st.lists(
        st.tuples(*[st.integers(0, hi)] * ambient).filter(any),
        min_size=count, max_size=count, unique=True))
    return SemigroupGens.from_columns(cols)


@given(vectors)
def test_primitive_is_a_fixed_point_and_parallel(v):
    p = primitive(v)
    assert primitive(p) == p
    g = 0
    for x in p:
        g = gcd(g, x)
    assert g == 1
    first = next(x for x in p if x)
    assert first > 0
    for i in range(len(v)):
        for j in range(len(v)):
            assert v[i] * p[j] == v[j] * p[i]


@given(matrices())
def test_rank_agrees_with_fractions(m):
    r = rank(m)
    assert r == fraction_rank(m.entries)
    assert r == rank(m.transpose())
    assert 0 <= r <= min(m.rows, m.cols)


@given(matrices())
def test_kernel_basis_is_exact(m):
    basis = kernel_lattice_basis(m)
    assert len(basis) == m.cols - rank(m)
    for v in basis:
        assert m.matvec(v) == (0,) * m.rows
    if len(basis) > 1:
        for v in basis:
            rest = [w for w in basis if w is not v]
            assert integer_combination(rest, v) is None


@given(matrices(max_rows=2, max_cols=4, lo=0, hi=4))
def test_kernel_lattice_catches_small_vectors(m):
    basis = kernel_lattice_basis(m)
    span = range(-2, 3)
    for v in ((a, b, c, d) for a in span for b in span
              for c in span for d in span):
        v = v[:m.cols]
        if any(v) and m.matvec(v) == (0,) * m.rows:
            assert integer_combination(basis, v) is not None


@settings(deadline=None)
@given(st.lists(binomials3, min_size=1, max_size=4), st.randoms())
def test_reduced_basis_ignores_generator_order(gens, rng):
    direct = buchberger(gens, ORDER3)
    shuffled = list(gens)
    rng.shuffle(shuffled)
    assert buchberger(shuffled, ORDER3) == direct


@settings(deadline=None)
@given(st.lists(binomials3, min_size=1, max_size=3), binomials3)
def test_normal_form_is_idempotent(gens, f):
    gb = buchberger(gens, ORDER3)
    r = normal_form(f, gb, ORDER3)
    if r is not None:
        assert normal_form(r, gb, ORDER3) == r


@settings(deadline=None)
@given(st.lists(binomials3, min_size=1, max_size=3))
def test_groebner_elements_stay_in_the_ideal(gens):
    ideal = BinomialIdeal(X3, tuple(gens))
    for g in ideal.groebner(ORDER3):
        assert ideal.contains(g)
        assert ideal.contains(g.negated())


@st.composite
def homogeneous_binomials(draw):
    d = draw(st.integers(1, 4))

    def split(total):
        a = draw(st.integers(0, total))
        b = draw(st.integers(0, total - a))
        return (a, b, total - a - b)

    plus, minus = split(d), split(d)
    assume(plus != minus)
    return Binomial(Monomial(X3, plus), Monomial(X3, minus))


@settings(deadline=None)
@given(st.lists(homogeneous_binomials(), min_size=1, max_size=3))
def test_saturation_grows_and_stabilizes(gens):
    ideal = BinomialIdeal(X3, tuple(gens))
    sat = saturate(ideal)
    for g in ideal.generators:
        assert sat.contains(g)
    assert ideal_equal(saturate(sat), sat)


@settings(deadline=None)
@given(semigroups())
def test_toric_generators_are_homogeneous_and_saturated(gens):
    t = toric_ideal(gens)
    for g in t.ideal.generators:
        plus, minus = g.as_pair()
        assert gens.adegree(plus) == gens.adegree(minus)
        assert all(p == 0 or m == 0 for p, m in zip(plus, minus))
    assert ideal_equal(saturate(t.ideal, weights=gens.weights()), t.ideal)


@settings(deadline=None, max_examples=25)
@given(semigroups(hi=3))
def test_toric_ideal_matches_the_oracle(gens):
    t = toric_ideal(gens)
    bound = tuple(sum(row) for row in gens.matrix.entries)
    try:
        oracle = enumerate_oracle(gens, bound, work_limit=200000)
    except BoundTooLarge:
        assume(False)
    for f in oracle:
        assert t.ideal.contains(f)
    for g in t.ideal.generators:
        if all(x <= b for x, b in zip(t.adegrees[g], bound)):
            assert g in oracle or g.negated() in oracle


@settings(deadline=None, max_examples=40)
@given(semigroups(), st.lists(st.integers(0, 3), min_size=4, max_size=4))
def test_membership_agrees_with_direct_combination(gens, coeffs):
    coeffs = coeffs[:gens.count]
    target = gens.adegree(tuple(coeffs))
    found = is_member(target, gens)
    assert found is not None
    assert gens.adegree(found) == target


@settings(max_examples=50)
@given(semigroups(), st.tuples(st.integers(0, 6), st.integers(0, 6)))
def test_membership_refusals_are_real(gens, v):
    found = is_member(v, gens)
    if found is not None:
        assert gens.adegree(found) == v
        return
    total = sum(v)
    combos = [(0,) * gens.count]
    for j, col in enumerate(gens.matrix.columns()):
        cap = total // sum(col)
        combos = [c[:j] + (e,) + c[j + 1:]
                  for c in combos for e in range(cap + 1)]
    assert all(gens.adegree(c) != v for c in combos)


@st.composite
def numerical_rays(draw):
    """Return a primitive direction in N^1..N^3 and 2-4 distinct scales."""
    n = draw(st.integers(1, 3))
    d = primitive(draw(st.lists(st.integers(0, 3), min_size=n,
                                max_size=n).filter(any)))
    scales = draw(st.lists(st.integers(1, 15), min_size=2, max_size=4,
                           unique=True))
    return d, scales


@settings(deadline=None, max_examples=150)
@given(numerical_rays(), st.integers(1, 40))
def test_ray_faces_match_the_membership_search(ray, kmax):
    # Two or more columns s_j d on one ray: the face of d is the whole
    # ray, which is dependent, so _face_multiples answers from the
    # numerical monoid <s_j>, with no search.
    d, scales = ray
    gens = SemigroupGens.from_columns([tuple(s * x for x in d)
                                       for s in scales])
    expected = {}
    for k in range(1, kmax + 1):
        e = is_member(tuple(k * x for x in d), gens)
        if e is not None:
            expected[k] = e
    assert _face_multiples(d, gens, kmax, 10 ** 6)[1] == tuple(
        sorted(expected.items()))


betti_values = st.lists(st.integers(0, 9), min_size=0, max_size=4).map(
    lambda tail: BettiSequence((1,) + tuple(tail)))


@given(betti_values, betti_values)
def test_glued_betti_is_symmetric(a, b):
    left = glued_betti(a, b)
    right = glued_betti(b, a)
    assert left.values == right.values
    assert left.pd == a.pd + b.pd + 1
    total_left = sum(left.values)
    assert total_left == sum(a.values) * sum(b.values) * 2


@example(1, 2).via("a tie, q = 0 even")
@example(3, 2).via("a tie, q = 1 odd")
@example(-1, 2).via("a tie, q = -1 odd")
@example(-3, 2).via("a tie, q = -2 even")
@example(0, 7).via("zero")
@given(st.integers(-10**30, 10**30), st.integers(1, 10**15))
def test_integer_rounding_matches_fraction_rounding(num, den):
    # _size_reduce's quotient: num / den rounded, ties to even
    assert _round_half_even(num, den) == round(Fraction(num, den))


@given(st.integers(-10**6, 10**6), st.integers(1, 10**6))
def test_integer_rounding_of_exact_ties(q, r):
    # num / den = q + 1/2 exactly, with q odd or even, negative or not
    num, den = q * 2 * r + r, 2 * r
    want = q + (q % 2)
    assert _round_half_even(num, den) == want == round(Fraction(num, den))


cli_tokens = st.one_of(
    st.sampled_from([*cli._COMMANDS, "-h", "--help", "--version", "--json",
                     "--kmax", "--work-limit", "--degree-bound", "--k1",
                     "--k2", "--i", "--k", "--work-limit=4", "--", "-",
                     "input.txt", "x", "2 2 0", "--bogus", "-x"]),
    st.integers(-2, 12).map(str))


@settings(deadline=None, max_examples=300)
@given(st.sampled_from(list(cli._COMMANDS)), st.lists(cli_tokens, max_size=6))
def test_one_command_parser_parses_as_the_full_parser(command, rest):
    argv = [command, *rest]

    def parse(only):
        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                return vars(cli._build_parser(only).parse_args(argv))
            except SystemExit as exc:
                return exc.code, out.getvalue(), err.getvalue()

    assert parse(command) == parse(None)


# -- every command over small input documents --------------------------------

json_values = st.recursive(
    st.one_of(st.integers(-2, 60), st.booleans(), st.none(),
              st.text(max_size=3)),
    lambda inner: st.lists(inner, max_size=4), max_leaves=12)


@st.composite
def documents(draw) -> dict:
    """Draw an input document: generators of one length, mostly valid."""
    dim = draw(st.integers(1, 3))
    low = draw(st.sampled_from([0, 0, 0, -1]))
    column = st.lists(st.integers(low, 5), min_size=dim,
                      max_size=dim).filter(any)
    doc = {name: draw(st.lists(column, min_size=1, max_size=4,
                               unique_by=tuple))
           for name in ("a", "b") if draw(st.integers(0, 5))}
    for name in cli._SCALARS:
        if draw(st.booleans()):
            doc[name] = draw(st.integers(-1, 5000 if name == "work_limit"
                                         else 12))
    for name in cli._VECTORS:
        if draw(st.booleans()):
            size = draw(st.sampled_from([dim, dim, dim + 1]))
            doc[name] = draw(st.lists(st.integers(low, 6), min_size=size,
                                      max_size=size))
            if name.startswith("betti") and draw(st.integers(0, 3)):
                doc[name][0] = 1
    return doc


def as_text(doc: dict) -> str:
    lines = []
    for key, value in doc.items():
        if key in ("a", "b"):
            lines += [f"{key.upper()}:", *(" ".join(map(str, row))
                                           for row in value)]
        else:
            vals = value if isinstance(value, list) else [value]
            lines.append(f"{'i' if key == 'index' else key}: "
                         f"{' '.join(map(str, vals))}")
    return "\n".join(lines) + "\n"


inputs = st.one_of(
    documents().map(as_text), documents().map(json.dumps),
    st.dictionaries(st.sampled_from(["a", "b", "v", "k1", "kmax", "x"]),
                    json_values, max_size=3).map(json.dumps),
    st.text(alphabet="AB:{}[]\", -0123456789ikv#\n", max_size=40))


@pytest.mark.optimized
@settings(deadline=None, max_examples=150)
@example(command="toric", text='{"a": ' + "[" * 3000 + "]" * 3000 + "}",
         as_json=False)
@given(st.sampled_from(list(cli._COMMANDS)), inputs, st.booleans())
def test_every_command_exits_with_a_code_on_any_document(
        tmp_path_factory, command, text, as_json):
    path = tmp_path_factory.mktemp("doc") / "input.txt"
    path.write_text(text)
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main([command, str(path), *["--json"] * as_json])
    assert code in (0, 1, 2, 3), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()

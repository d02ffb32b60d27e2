"""Deciding and certifying gluings on the fixture pairs."""

import dataclasses
import gc
import json
import random
import re
from fractions import Fraction
from itertools import product
from math import gcd
from pathlib import Path

import pytest

from semiglue import (
    Binomial,
    DimensionMismatch,
    GluingCandidate,
    IntegerMatrix,
    Monomial,
    NotCoprime,
    NotInIdeal,
    RankConditionsFail,
    SemigroupGens,
    VariableBlock,
    check_rank_conditions,
    decide_pair,
    gluable_lattice_point,
    implication_chain_audit,
    is_member,
    level,
    multiples_in_semigroup,
    n2_gluable,
    rank,
    rank1_gluable,
    verify_gluing,
)
from semiglue import cli, gluing, toric
from semiglue.gluing import _cone_solution, in_cone, no_multiple_possible
from semiglue.toric import BoundTooLarge
from support import (
    brute_members,
    chain_pairs,
    face_identity_sweep,
    ideal_identity_gluing,
    ideal_identity_holds,
    kernel_cone_solution,
    kernel_meeting_line,
    linear_binomial_pair,
    member_identity_sweep,
    monomial_curves_pair,
    random_gens,
    random_plane_gens,
    random_rank2_gens,
    random_ray_gens,
    shared_column_pair,
    shared_factor_pair,
    twisted_bad_pair,
    twisted_pair,
)


def crossing_plane_pair():
    """Return a plane pair whose column spaces are both all of the plane."""
    a = SemigroupGens.from_columns([(1, 0), (0, 1)], "x")
    b = SemigroupGens.from_columns([(1, 1), (1, 2)], "y")
    return a, b


def mixed(cand, plus, minus):
    block = cand.c_block
    return Binomial(Monomial(block, tuple(plus)), Monomial(block, tuple(minus)))


# -- rank conditions and the lattice point ----------------------------------

def test_rank_conditions_on_fixtures():
    for pair in (twisted_pair(), twisted_bad_pair(), monomial_curves_pair(),
                 shared_factor_pair(), shared_column_pair()):
        rc = check_rank_conditions(*pair)
        assert (rc.rank_a, rc.rank_b, rc.rank_joint) == (2, 2, 3)
        assert rc.ok
    rc = check_rank_conditions(*crossing_plane_pair())
    assert not rc.ok
    assert (rc.rank_a, rc.rank_b, rc.rank_joint) == (2, 2, 2)


def test_rank_conditions_need_equal_ambient():
    a, _ = twisted_pair()
    plane, _ = crossing_plane_pair()
    with pytest.raises(DimensionMismatch):
        check_rank_conditions(a, plane)
    with pytest.raises(DimensionMismatch):
        GluingCandidate(a, plane)


@pytest.mark.optimized
def test_gluing_candidate_rejects_bad_scalings_and_shared_blocks():
    a, b = twisted_pair()
    for k1, k2 in ((-3, 2), (2, 0)):
        with pytest.raises(ValueError, match="k1 and k2 must be positive"):
            GluingCandidate(a, b, k1, k2)
    with pytest.raises(ValueError, match="^the two variable blocks must "
                       "not share names$"):
        GluingCandidate(a, a)


def test_lattice_points_of_the_fixtures():
    assert gluable_lattice_point(*twisted_pair()) == (1, 1, 0)
    assert gluable_lattice_point(*twisted_bad_pair()) == (1, 2, 0)
    assert gluable_lattice_point(*monomial_curves_pair()) == (1, 1, 2)
    assert gluable_lattice_point(*shared_factor_pair()) == (1, 1, 2)
    assert gluable_lattice_point(*shared_column_pair()) == (1, 1, 2)


def _random_pairs(seed, count):
    """Yield seeded random pairs of semigroups in dimensions 2 to 4."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randrange(2, 5)
        yield (random_gens(rng, n, rng.randrange(1, 5), 3, "x"),
               random_gens(rng, n, rng.randrange(1, 5), 3, "y"))


def test_lattice_point_spans_the_meeting_line():
    lines = 0
    for a, b in _random_pairs(20261018, 300):
        if not check_rank_conditions(a, b).ok:
            continue
        lines += 1
        u = gluable_lattice_point(a, b)
        for gens in (a, b):
            with_u = IntegerMatrix.from_columns(gens.matrix.columns() + (u,))
            assert rank(with_u) == rank(gens.matrix), (a, b, u)
        assert gcd(*u) == 1
        assert next(x for x in u if x) > 0
        rng = random.Random(lines)
        shuffled = [list(gens.matrix.columns()) for gens in (a, b)]
        for cols in shuffled:
            rng.shuffle(cols)
        assert gluable_lattice_point(
            SemigroupGens.from_columns(shuffled[0], "x"),
            SemigroupGens.from_columns(shuffled[1], "y")) == u
    assert lines >= 60


def test_rank_conditions_are_the_three_ranks():
    seen = set()
    for a, b in _random_pairs(424242, 300):
        rc = check_rank_conditions(a, b)
        assert (rc.rank_a, rc.rank_b, rc.rank_joint, rc.ambient) == (
            rank(a.matrix), rank(b.matrix),
            rank(a.matrix.hstack(b.matrix)), a.ambient)
        seen.add(rc.ok)
    assert seen == {True, False}


def test_lattice_point_refuses_crossing_planes():
    with pytest.raises(RankConditionsFail) as err:
        gluable_lattice_point(*crossing_plane_pair())
    assert "do not meet in a line" in str(err.value)


# -- membership and multiples ------------------------------------------------

def test_membership_witnesses_check_out():
    a, b = twisted_pair()
    for gens, v in ((a, (2, 2, 0)), (a, (4, 4, 0)), (b, (3, 3, 0)),
                    (b, (6, 4, 2))):
        e = is_member(v, gens)
        assert e is not None
        assert gens.matrix.matvec(e) == v
    assert is_member((1, 1, 0), a) is None
    assert is_member((5, 0, 0), a) is None
    assert is_member((-1, 0, 0), a) is None
    with pytest.raises(ValueError):
        is_member((1, 2), a)


def test_membership_agrees_with_brute_force():
    a, b = monomial_curves_pair()
    for gens in (a, b):
        reachable = brute_members(gens, 2)
        box = [v for v in reachable if all(x <= 12 for x in v)]
        for v in box:
            assert is_member(v, gens) is not None
        for v in ((1, 0, 0), (0, 1, 1), (1, 1, 1), (2, 1, 3)):
            if v not in reachable:
                assert is_member(v, gens) is None


def test_membership_search_is_freed_on_return():
    gens = SemigroupGens.from_columns([(3, 7), (5, 2), (4, 4)], "x")
    gc.collect()
    gc.disable()
    try:
        assert is_member((300, 300), gens) is not None
        assert gc.collect() == 0
    finally:
        gc.enable()


def _largest_solution(cols, v):
    """Every solution of sum e_j cols[j] == v by plain recursion; the max."""
    found = []

    def walk(j, rem, prefix):
        if j == len(cols):
            if not any(rem):
                found.append(prefix)
            return
        col = cols[j]
        c = 0
        while all(r - c * x >= 0 for r, x in zip(rem, col)):
            walk(j + 1, tuple(r - c * x for r, x in zip(rem, col)),
                 prefix + (c,))
            c += 1

    walk(0, tuple(v), ())
    return max(found, default=None)


def test_membership_returns_the_largest_solution():
    rng = random.Random(20261018)
    dependent = repeated = 0
    for trial in range(240):
        n = 1 + trial % 3
        size = rng.randrange(1, 6 if n == 1 else 7)  # 5 points in N^1
        cols = set()
        while len(cols) < size:
            if cols and rng.random() < 0.25:
                # a repeated direction: a multiple of an existing column
                c = tuple(2 * x for x in rng.choice(sorted(cols)))
            else:
                c = tuple(rng.randrange(6) for _ in range(n))
            if any(c) and max(c) <= 5:
                cols.add(c)
        cols = sorted(cols)
        rng.shuffle(cols)
        gens = SemigroupGens.from_columns(cols, "x")
        dependent += rank(gens.matrix) < len(cols)
        repeated += any(rank(IntegerMatrix.from_columns([c, d])) == 1
                        for i, c in enumerate(cols) for d in cols[:i])
        for _ in range(3):
            coef = [rng.randrange(3) for _ in cols]
            v = [sum(e * c[i] for e, c in zip(coef, cols)) for i in range(n)]
            if rng.random() < 0.5:
                i = rng.randrange(n)
                v[i] = max(0, v[i] + rng.choice((-1, 1)))
            assert is_member(v, gens) == _largest_solution(cols, v), (cols, v)
        u = tuple(rng.randrange(3) for _ in range(n))
        if any(u):
            expected = {}
            for k in range(1, 5):
                e = is_member(tuple(k * x for x in u), gens)
                if e is not None:
                    expected[k] = e
            assert multiples_in_semigroup(u, gens, 4) == expected
    assert dependent >= 80, dependent
    assert repeated >= 10, repeated


def test_membership_of_large_targets():
    pair = SemigroupGens.from_columns([(3, 7), (5, 2)], "x")
    # 3a + 5b = 7a + 2b = 100000 needs 29 | 300000.
    assert is_member((100000, 100000), pair) is None
    assert is_member((80000, 90000), pair) == (10000, 10000)
    triple = SemigroupGens.from_columns([(3, 7), (5, 2), (4, 4)], "x")
    # The tail (5, 2), (4, 4) has determinant 12.  For (20, 20) the
    # interval allows 0 <= e1 <= 2, and e1 = 2 or 1 leaves a rational
    # tail, so the residue class mod 12 decides for e1 = 0.
    assert is_member((20, 20), triple) == (0, 0, 5)
    assert _largest_solution(triple.matrix.columns(), (20, 20)) == (0, 0, 5)
    e = is_member((100000, 100000), triple)
    assert triple.matrix.matvec(e) == (100000, 100000)
    # No larger first coefficient leaves a nonnegative integer tail.
    for a in range(e[0] + 1, 100000 // 7 + 1):
        x, y = 100000 - 3 * a, 100000 - 7 * a
        b = Fraction(4 * x - 4 * y, 12)
        c = Fraction(5 * y - 2 * x, 12)
        assert not (b.denominator == c.denominator == 1 and b >= 0 <= c)


def test_membership_search_stops_at_its_work_limit():
    # (4, 4) and (1, 1) are parallel, so the exact tail is (1, 1) alone
    # and the search runs over two columns.
    gens = SemigroupGens.from_columns([(3, 7), (5, 2), (4, 4), (1, 1)], "x")
    with pytest.raises(BoundTooLarge,
                       match="membership search passed 1000 states"):
        is_member((5000, 5000), gens, work_limit=1000)
    assert is_member((1000, 1000), gens) == (102, 136, 3, 2)
    # The search at (1000, 1000) enters exactly 2924 states.
    assert is_member((1000, 1000), gens, 2924) == (102, 136, 3, 2)
    with pytest.raises(BoundTooLarge):
        is_member((1000, 1000), gens, 2923)


@pytest.mark.optimized
def test_membership_matches_the_box_bound_reference():
    # The column before the free one is scanned over its exact rational
    # range: the same answers as the box-bound scan, in no more states.
    seen = member_identity_sweep()
    assert seen["member"] >= 800 and seen["non-member"] >= 500, seen
    assert seen["rank-deficient"] >= 200, seen
    assert seen["searched range"] >= 150, seen
    assert seen["fewer states"] >= 400, seen


@pytest.mark.optimized
def test_verify_gluing_refuses_a_witness_off_its_degree(monkeypatch):
    # is_member is replaced by one that answers for twice the target, so
    # A c is 4 u instead of (L / k1) u = 2 u, with L = 6 and k1 = 3.
    real = gluing.is_member
    monkeypatch.setattr(gluing, "is_member", lambda v, g, limit: real(
        tuple(2 * x for x in v), g, limit))
    with pytest.raises(AssertionError, match=re.escape(
            "the first exponents (0, 1, 0, 1) of rho miss the degree "
            "(2, 2, 0)")):
        verify_gluing(GluingCandidate(*twisted_pair(), 3, 2))


@pytest.mark.xfail(strict=True, raises=BoundTooLarge,
                   reason="off level 1, rho is the first vector of each "
                          "fiber over L u, and A's fiber walk passes the "
                          "default work limit")
@pytest.mark.parametrize("k1, k2, ell, c, d", [
    (1, 5, 10, (25, 80, 0, 0), (14, 10, 0)),
    (2, 5, 20, (25, 80, 0, 0), (28, 20, 0)),
], ids=("1-5", "2-5"))
def test_a_yes_with_both_witnesses_found_is_decided(k1, k2, ell, c, d):
    # Pair 192 of the chain_sweep pool.  Both membership witnesses over
    # L u are found within the default work limit, so by the lattice
    # criterion the candidate glues, and x^c - y^d of degree L u is rho.
    a = SemigroupGens.from_columns(
        [(0, 2, 2), (3, 3, 2), (3, 5, 4), (3, 7, 6)], "x")
    b = SemigroupGens.from_columns([(2, 2, 3), (2, 3, 0), (4, 5, 3)], "y")
    u = gluable_lattice_point(a, b)
    assert u == (24, 29, 21)
    assert is_member(tuple(ell // k1 * x for x in u), a) == c
    assert is_member(tuple(ell // k2 * x for x in u), b) == d
    assert verify_gluing(GluingCandidate(a, b, k1, k2)).is_gluing


def test_kmax_must_be_positive():
    # Checked before the ranks, so a pair whose ranks fail is refused too.
    for pair in (twisted_pair(), crossing_plane_pair()):
        for kmax in (0, -3):
            with pytest.raises(ValueError, match="kmax must be positive"):
                decide_pair(*pair, kmax=kmax)


def test_multiples_in_the_twisted_pair():
    a, b = twisted_pair()
    u = gluable_lattice_point(a, b)
    assert sorted(multiples_in_semigroup(u, a, 10)) == [2, 4, 6, 8, 10]
    assert sorted(multiples_in_semigroup(u, b, 10)) == [3, 6, 9]
    assert multiples_in_semigroup(u, a, 10)[2] == (0, 0, 1, 0)
    assert multiples_in_semigroup(u, b, 10)[3] == (1, 0, 0, 0)


def _boundary_pair(rng):
    """Return a pair in N^3 whose lattice point lies on a face of A, or None.

    The face columns vanish where u does; every other column of A is
    positive there.  B holds one or two multiples of u.
    """
    support = rng.sample(range(3), rng.randrange(1, 3))
    u = tuple(rng.randrange(1, 3) if i in support else 0 for i in range(3))
    face = {tuple(rng.randrange(4) if i in support else 0 for i in range(3))
            for _ in range(rng.randrange(1, 4))} - {(0, 0, 0)}
    off = {tuple(rng.randrange(3) if i in support else rng.randrange(1, 3)
                 for i in range(3)) for _ in range(rng.randrange(1, 4))}
    if not face:
        return None
    a = SemigroupGens.from_columns(sorted(face | off), "x")
    scales = sorted({rng.randrange(1, 4) for _ in range(2)})
    b = SemigroupGens.from_columns([tuple(s * x for x in u) for s in scales],
                                   "y")
    return (a, b) if check_rank_conditions(a, b).ok else None


def _face_indices(gens, u):
    """Return u's face in gens, the face's index g and the index m of gens.

    ZF and ZA meet Ru in g Zu and m Zu; g is None when u misses the cone.
    """
    face = _cone_solution(u, gens.matrix)[1]
    m = gluing._line_index(gens, u)
    if not face:
        return face, None, m
    cols = gens.matrix.columns()
    on_face = SemigroupGens.from_columns([cols[j] for j in face], "f")
    return face, gluing._line_index(on_face, u), m


def test_face_sweep_matches_the_sweep_over_every_multiple():
    # decide_pair searches u's multiples only over the face F of u and
    # only at multiples of g.  On pairs where F is not all of A and g
    # exceeds m, the pruned sweep must find what the per-k search over
    # every column finds.
    kmax = 12
    pairs = [(a, b) for a, b in chain_pairs(600, seed=7)
             if any(g not in (None, m) for g, m in (
                 _face_indices(gens, gluable_lattice_point(a, b))[1:]
                 for gens in (a, b)))]
    rng = random.Random(20261019)
    built = 0
    while built < 80:
        pair = _boundary_pair(rng)
        if pair is not None:
            pairs.append(pair)
            built += 1
    pruned = 0
    for a, b in pairs:
        u = gluable_lattice_point(a, b)
        decision = decide_pair(a, b, kmax)
        for gens, found in ((a, decision.witnesses_a),
                            (b, decision.witnesses_b)):
            expected = {}
            for k in range(1, kmax + 1):
                e = is_member(tuple(k * x for x in u), gens)
                if e is not None:
                    expected[k] = e
            assert multiples_in_semigroup(u, gens, kmax) == expected
            assert found == tuple(sorted(expected.items())), (gens, u)
            face, g, m = _face_indices(gens, u)
            if g is None:
                assert not expected
                continue
            pruned += len(face) < gens.count and g > m
            for k, e in expected.items():
                assert k % g == 0, (gens, u, k, g)
                assert all(j in face for j, x in enumerate(e) if x), (e, face)
    assert pruned >= 20, pruned


@pytest.mark.optimized
def test_decide_pair_matches_the_face_search_reference():
    # Independent and ray faces are decided by arithmetic, other faces by
    # the membership sweep; whole records must equal those of the sweep
    # over every face, on the chain_sweep pool and on seeded pairs built
    # around rays (gapped monoids, shuffled columns, off-ray columns)
    # and independent faces with M > 1.
    seen = face_identity_sweep()
    assert min(seen.values()) >= 50, seen


def test_the_pair_search_counts_the_pairs_it_reads():
    evens = tuple((k, (k,)) for k in range(2, 41, 2))
    odds = tuple((k, (k,)) for k in range(3, 41, 2))
    assert gluing._smallest_coprime_pair(evens, odds, 1) == (3, 2, (2,), (3,))
    # No pair is coprime, so all 400 are read.
    assert gluing._smallest_coprime_pair(evens, evens, 400) is None
    with pytest.raises(BoundTooLarge, match="passed 399 pairs"):
        gluing._smallest_coprime_pair(evens, evens, 399)


def test_numerical_multiples_match_every_exponent_vector():
    # The reachability tables add s, 2s, 4s, .. per column; a member k of
    # the monoid must come with the lexicographically largest e of
    # sum s_j e_j = k, found here by trying every e.  kmax spans several
    # doublings of each scale, once ending exactly at 16 * 5 = 80, and
    # scales repeat, divide one another, end in 1 or leave gaps.
    for scales, kmax in (((3,), 40), ((1, 1), 30), ((4, 1), 30),
                         ((2, 3), 61), ((5,), 80), ((5, 3, 2), 90),
                         ((4, 6, 9), 100), ((7, 7, 4), 64),
                         ((6, 10, 15), 120)):
        best = {}
        for e in product(*(range(kmax // s + 1) for s in scales)):
            k = sum(s * x for s, x in zip(scales, e))
            if 0 < k <= kmax and e > best.get(k, ()):
                best[k] = e
        assert gluing._numerical_multiples(scales, kmax) == sorted(
            best.items()), scales


def test_no_multiple_possible_detects_the_skewed_cubic():
    a, b = twisted_bad_pair()
    u = gluable_lattice_point(a, b)
    assert no_multiple_possible(u, b)
    assert not no_multiple_possible(u, a)
    assert no_multiple_possible((-1, 0, 0), a)
    assert multiples_in_semigroup(u, b, 30) == {}
    assert sorted(multiples_in_semigroup(u, a, 12)) == [4, 8, 12]


def test_decide_pair_multiples_on_the_fixtures():
    rep = decide_pair(*twisted_pair())
    assert rep.multiples is True
    assert rep.u == (1, 1, 0)
    assert rep.witnesses_a and rep.witnesses_b
    assert rep.detail == ("coprime multiples of the lattice point lie in "
                          "both semigroups")

    rep = decide_pair(*twisted_bad_pair())
    assert rep.multiples is False
    assert rep.detail == ("no positive multiple of (1, 2, 0) can ever lie "
                          "in the second semigroup")

    rep = decide_pair(*shared_factor_pair(), kmax=8)
    assert rep.multiples is None
    assert rep.detail == ("no multiple of (1, 1, 2) found in the second "
                          "semigroup up to 8")

    rep = decide_pair(*crossing_plane_pair())
    assert rep.multiples is None
    assert rep.u is None
    assert rep.detail == "the column spaces do not meet in a line"


def test_decide_pair_finds_the_smallest_coprime_pair():
    found = decide_pair(*twisted_pair())
    assert found.pair == (3, 2)
    assert found.witness_a == (0, 0, 1, 0)
    assert found.witness_b == (1, 0, 0, 0)

    found = decide_pair(*monomial_curves_pair())
    assert found.pair == (3, 2)
    a, b = monomial_curves_pair()
    assert a.matrix.matvec(found.witness_a) == (2, 2, 4)
    assert b.matrix.matvec(found.witness_b) == (3, 3, 6)

    assert decide_pair(*shared_factor_pair()).pair is None
    assert decide_pair(*twisted_bad_pair()).pair is None
    crossing = decide_pair(*crossing_plane_pair())
    assert crossing.pair is None and crossing.gluing is False
    assert not crossing.rank.ok
    with pytest.raises(RankConditionsFail):
        crossing.rank.require_line()


def test_pair_decisions_sweep_each_side_once(monkeypatch, capsys):
    # Each side's multiples are decided once.  Only A's face of u, the
    # whole dependent quartic, is searched; B's face is the one column
    # (3, 3, 0), an independent face decided by arithmetic.
    sides, swept = [], []
    decide, sweep = gluing._face_multiples, gluing.multiples_in_semigroup

    def decided(u, gens, kmax, work_limit):
        sides.append(gens.block.names[0])
        return decide(u, gens, kmax, work_limit)

    def counted(u, gens, kmax=50, work_limit=10 ** 6):
        swept.append(gens.block.names[0])
        return sweep(u, gens, kmax, work_limit)

    monkeypatch.setattr(gluing, "_face_multiples", decided)
    monkeypatch.setattr(gluing, "multiples_in_semigroup", counted)
    implication_chain_audit(*twisted_pair())
    assert (sides, swept) == (["x1", "y1"], ["x1"])
    sides.clear()
    swept.clear()
    corpus = Path(__file__).resolve().parent.parent / "corpus"
    assert cli.main(["find-gluing", str(corpus / "twisted_glue.txt")]) == 0
    capsys.readouterr()
    assert (sides, swept) == (["x1", "y1"], ["x1"])


def test_every_route_to_the_verdict_agrees(capsys, tmp_path):
    # The audit, the plane and ray helpers and find-gluing read one
    # decide_pair record, and find-gluing prints that record's one
    # detail for every no or open verdict.  The first pair's lattice
    # point (2, 1) misses the cone of <(0,4), (4,3)> although no cheap
    # obstruction rules its multiples out.
    rng = random.Random(20260823)
    pairs = [(SemigroupGens.from_columns([(0, 4), (4, 3)], "x"),
              SemigroupGens.from_columns([(2, 1)], "y"))]
    while len(pairs) < 201:
        a = random_plane_gens(rng, "x")
        b = random_ray_gens(rng, "y")
        if a is not None and check_rank_conditions(a, b).ok:
            pairs.append((a, b))
    while len(pairs) < 401:
        a = random_rank2_gens(rng, "x")
        b = random_rank2_gens(rng, "y")
        if a is not None and b is not None and check_rank_conditions(a, b).ok:
            pairs.append((a, b))
    doc = tmp_path / "pair.json"
    exit_codes = {True: 0, False: 1, None: 3}
    cone_misses = ray_helpers = 0
    for a, b in pairs:
        cols = (a.matrix.columns(), b.matrix.columns())
        audit = implication_chain_audit(a, b, kmax=12)
        doc.write_text(json.dumps({"a": cols[0], "b": cols[1], "kmax": 12}))
        assert cli.main(["find-gluing", str(doc), "--json"]) == \
            exit_codes[audit.gluing], cols
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["u"] == list(audit.u), cols
        detail = result["detail"]
        if audit.gluing is not True:
            assert detail == audit.detail, cols
        if audit.gluing:
            assert detail == "glued by coprime membership witnesses", cols
        elif audit.gluing is None and audit.multiples:
            assert detail == ("multiples of the lattice point lie in both "
                              "semigroups"), cols
        elif audit.gluing is None:
            assert detail.startswith(f"no multiple of {audit.u} found in "
                                     "the "), cols
            assert detail.endswith(" semigroup up to 12"), cols
        elif audit.multiples is False:
            assert detail.startswith(f"no positive multiple of {audit.u} "
                                     "can ever lie in the "), cols
        else:
            assert detail.startswith(f"the lattice point {audit.u} misses "
                                     "the cone of the "), cols
            cone_misses += 1
        helpers = []
        if a.ambient == 2:
            helpers.append(n2_gluable(a, b, kmax=12))
        if rank(a.matrix) == a.ambient and rank(b.matrix) == 1:
            helpers.append(rank1_gluable(a, b, kmax=12))
            ray_helpers += 1
        for decision in helpers:
            assert decision.gluing == audit.gluing, cols
            assert (decision.pair, decision.u, decision.detail) == (
                audit.pair, audit.u, audit.detail), cols
    assert cone_misses >= 1
    assert ray_helpers >= 100


def test_verify_gluing_takes_the_meeting_line_once(monkeypatch):
    calls = []
    line = gluing._meeting_line

    def counted(a, b):
        calls.append((a.block, b.block))
        return line(a, b)

    monkeypatch.setattr(gluing, "_meeting_line", counted)
    a, b = twisted_pair()
    # coprime witnesses, then a mixed minimal generator; both take levels
    for k1, k2 in ((3, 2), (1, 1)):
        calls.clear()
        report = verify_gluing(GluingCandidate(a, b, k1, k2))
        assert report.rho_level is not None
        assert calls == [(a.block, b.block)]


def test_a_yes_computes_no_glued_ideal(monkeypatch):
    def refuse(*args):
        raise AssertionError("a yes needs no glued toric ideal")

    monkeypatch.setattr(gluing, "toric_ideal_of_matrix", refuse)
    monkeypatch.setattr(gluing, "ideal_equal", refuse)
    a, b = twisted_pair()
    # coprime witnesses, a mixed generator, and non-coprime scalings
    for k1, k2 in ((3, 2), (1, 1), (2, 2)):
        assert verify_gluing(GluingCandidate(a, b, k1, k2)).is_gluing


def homology(dim, mu, known=(None, None, False, None, None)) -> str:
    pd, depth, ci, cm, gor = known
    return (f"HomologySummary(dim={dim}, pd={pd}, depth={depth}, ci={ci}, "
            f"cm={cm}, gorenstein={gor}, mu={mu})")


@pytest.mark.optimized
def test_report_invariants_are_computed_when_read(monkeypatch):
    # verify_gluing computes no toric ideal, whatever the verdict; the
    # report computes each fact on its first read, with the seed code's
    # values.  A counting spy on toric_ideal_of_matrix, in toric (behind
    # toric_ideal) and in gluing, records the column count of each
    # matrix it is asked for; it sits outside the cache, so hits count.
    calls = []
    real = toric.toric_ideal_of_matrix

    def spy(matrix, block):
        calls.append(matrix.cols)
        return real(matrix, block)

    def invariants(report):
        return (report.mu_a, report.mu_b, report.mu_c, repr(report.homology))

    monkeypatch.setattr(toric, "toric_ideal_of_matrix", spy)
    monkeypatch.setattr(gluing, "toric_ideal_of_matrix", spy)
    yes = verify_gluing(GluingCandidate(*twisted_pair()))
    assert yes.is_gluing and calls == []
    assert invariants(yes) == (3, 3, 7, homology(3, 7))
    invariants(yes)
    # I_A and I_B on the first of two reads; mu_c is their sum plus one.
    assert calls == [4, 4]
    calls.clear()
    no = verify_gluing(GluingCandidate(*linear_binomial_pair()))
    assert not no.is_gluing and calls == []
    # Reading the no's detail reads mu_a, mu_b and mu_c, in that order.
    assert no.detail == "generator counts rule it out: 13 != 4 + 3 + 1"
    assert calls == [5, 5, 10]
    assert invariants(no) == (4, 3, 13, homology(3, 13))
    calls.clear()
    far = verify_gluing(GluingCandidate(*crossing_plane_pair()))
    assert not far.is_gluing and calls == []
    assert invariants(far) == (0, 0, 2, homology(
        2, 2, (2, 2, True, True, True)))
    calls.clear()
    # replace copies the decision only: a no reads I_C, whose mu is 7,
    # and its detail agrees with the copied verdict.
    copy = dataclasses.replace(yes, rho=None)
    assert type(copy) is type(yes) and not copy.is_gluing
    assert copy.candidate is yes.candidate and copy.rho_level == 6
    assert copy.detail == "no single mixed binomial completes the two ideals"
    assert invariants(copy) == (3, 3, 7, homology(3, 7))
    assert calls == [4, 4, 8]


# -- levels ------------------------------------------------------------------

def test_level_of_the_twisted_gluing_binomial():
    cand = GluingCandidate(*twisted_pair())
    w = mixed(cand, (0, 0, 0, 0, 2, 0, 0, 0), (1, 0, 0, 2, 0, 0, 0, 0))
    assert level(w, cand) == 6


def test_levels_of_the_skewed_pair_completers():
    cand = GluingCandidate(*twisted_bad_pair())
    w1 = mixed(cand, (0, 0, 0, 0, 2, 1, 0, 0), (0, 0, 1, 2, 0, 0, 0, 1))
    w2 = mixed(cand, (0, 0, 0, 0, 3, 0, 0, 0), (0, 0, 1, 2, 0, 0, 1, 0))
    assert level(w1, cand) == 4
    assert level(w2, cand) == 4


def test_level_requires_coprime_scalings():
    a, b = twisted_pair()
    cand = GluingCandidate(a, b, 2, 2)
    w = mixed(cand, (0, 0, 0, 0, 2, 0, 0, 0), (1, 0, 0, 2, 0, 0, 0, 0))
    with pytest.raises(NotCoprime):
        level(w, cand)


@pytest.mark.optimized
def test_level_refuses_a_drop_off_the_meeting_line(monkeypatch):
    # A wrong meeting point u, planted in gluable_lattice_point: the drop
    # 6 * (1, 1, 0) of the twisted gluing binomial is off the line
    # through (1, 2, 0), and its level over (4, 4, 0) would be 3/2.
    cand = GluingCandidate(*twisted_pair())
    w = mixed(cand, (0, 0, 0, 0, 2, 0, 0, 0), (1, 0, 0, 2, 0, 0, 0, 0))
    assert level(w, cand) == 6
    for u, message in (((1, 2, 0), "misses the meeting line"),
                       ((4, 4, 0), "has level -3/2, not an integer")):
        monkeypatch.setattr(gluing, "gluable_lattice_point",
                            lambda a, b, u=u: u)
        with pytest.raises(AssertionError, match=re.escape(
                "the glued-homogeneous drop (-6, -6, 0) " + message)):
            level(w, cand)


@pytest.mark.optimized
def test_level_requires_the_candidates_block():
    # The twisted gluing binomial, written over a z block instead.
    cand = GluingCandidate(*twisted_pair())
    block = VariableBlock.prefixed("z", 8)
    w = Binomial(Monomial(block, (0, 0, 0, 0, 2, 0, 0, 0)),
                 Monomial(block, (1, 0, 0, 2, 0, 0, 0, 0)))
    with pytest.raises(ValueError, match="not the candidate's block"):
        level(w, cand)


def test_level_rejects_inhomogeneous_binomials():
    cand = GluingCandidate(*twisted_pair())
    w = mixed(cand, (0, 0, 0, 0, 1, 0, 0, 0), (1, 0, 0, 0, 0, 0, 0, 0))
    with pytest.raises(NotInIdeal):
        level(w, cand)


# -- full verification -------------------------------------------------------

def test_twisted_pair_glues_unscaled():
    report = verify_gluing(GluingCandidate(*twisted_pair()))
    assert report.is_gluing
    assert (report.mu_a, report.mu_b, report.mu_c) == (3, 3, 7)
    assert report.detail == "glued by a mixed minimal generator"
    assert report.rho.as_pair() == ((0, 0, 3, 0, 0, 0, 0, 0),
                                    (0, 0, 0, 0, 2, 0, 0, 0))
    assert report.rho_level == 6
    assert report.candidate.shared_columns == ()
    assert report.homology.dim == 3
    assert report.homology.ci is False


def test_twisted_pair_glues_at_three_two():
    a, b = twisted_pair()
    report = verify_gluing(GluingCandidate(a, b, 3, 2))
    assert report.is_gluing
    assert report.detail == "glued by coprime membership witnesses"
    assert report.rho.as_pair() == ((0, 0, 1, 0, 0, 0, 0, 0),
                                    (0, 0, 0, 0, 1, 0, 0, 0))
    assert report.rho_level == 1
    assert report.candidate.shared_columns == ((2, 0),)


def test_skewed_pair_fails_by_generator_count():
    report = verify_gluing(GluingCandidate(*twisted_bad_pair()))
    assert not report.is_gluing
    assert (report.mu_a, report.mu_b, report.mu_c) == (3, 3, 8)
    assert report.detail == "generator counts rule it out: 8 != 3 + 3 + 1"
    assert report.rho is None


def test_monomial_curves_glue_only_after_scaling():
    a, b = monomial_curves_pair()
    scaled = verify_gluing(GluingCandidate(a, b, 3, 2))
    assert scaled.is_gluing
    assert scaled.detail == "glued by coprime membership witnesses"
    assert scaled.rho.as_pair() == ((0, 0, 0, 1, 0, 0, 0, 0),
                                    (0, 0, 0, 0, 0, 1, 2, 0))
    assert scaled.rho_level == 1
    assert (scaled.mu_a, scaled.mu_b, scaled.mu_c) == (3, 2, 6)
    assert scaled.candidate.shared_columns == ((3, 3),)

    union = verify_gluing(GluingCandidate(a, b))
    assert not union.is_gluing
    assert (union.mu_a, union.mu_b, union.mu_c) == (3, 2, 8)
    assert union.detail == "generator counts rule it out: 8 != 3 + 2 + 1"


def test_equal_generator_counts_do_not_fool_the_search():
    a, b = shared_column_pair()
    union = verify_gluing(GluingCandidate(a, b))
    assert (union.mu_a, union.mu_b, union.mu_c) == (3, 2, 6)
    assert not union.is_gluing
    assert union.detail == ("no single mixed binomial completes the two "
                            "ideals")

    scaled = verify_gluing(GluingCandidate(a, b, 2, 1))
    assert scaled.is_gluing
    assert scaled.detail == "glued by a mixed minimal generator"
    assert scaled.rho.as_pair() == ((0, 0, 0, 1, 0, 0, 0, 0),
                                    (0, 0, 0, 0, 0, 0, 0, 1))
    # A e4 = 5 u with k2 = 1, so the linear binomial sits at level five
    assert scaled.rho_level == 5
    assert scaled.candidate.shared_columns == ((3, 3),)


def test_shared_column_alone_is_not_enough():
    report = verify_gluing(GluingCandidate(*linear_binomial_pair()))
    assert not report.is_gluing
    assert (report.mu_a, report.mu_b, report.mu_c) == (4, 3, 13)
    assert report.detail == "generator counts rule it out: 13 != 4 + 3 + 1"
    assert report.candidate.shared_columns == ((4, 4),)


def test_crossing_planes_fail_on_rank():
    report = verify_gluing(GluingCandidate(*crossing_plane_pair()))
    assert not report.is_gluing
    assert report.u is None
    assert report.detail == "the column spaces do not meet in a line"


def test_lattice_criterion_agrees_with_the_ideal_identity():
    # The chain sweep's first 100 pairs at seeded scalings, and five
    # fixtures at every scaling up to (4, 1), against the Groebner
    # engine's decision; every yes is checked by the ideal identity.
    scalings = ((1, 1), (2, 1), (1, 2), (3, 1), (1, 3), (3, 2), (2, 3),
                (2, 2), (4, 1), (1, 4))
    rng = random.Random(20261018)
    cands = [GluingCandidate(a, b, *rng.choice(scalings))
             for a, b in chain_pairs(100)]
    cands += [GluingCandidate(*pair(), k1, k2)
              for pair in (twisted_pair, twisted_bad_pair,
                           monomial_curves_pair, shared_factor_pair,
                           shared_column_pair)
              for k1, k2 in scalings]
    cands.append(GluingCandidate(*linear_binomial_pair()))
    mixed_yes = shared_yes = 0
    for cand in cands:
        got = verify_gluing(cand)
        want = ideal_identity_gluing(cand)
        assert ((got.is_gluing, str(got.rho), got.rho_level, got.detail,
                 got.mu_a, got.mu_b, got.mu_c, got.homology)
                == (want.is_gluing, str(want.rho), want.rho_level,
                    want.detail, want.mu_a, want.mu_b, want.mu_c,
                    want.homology)), cand
        if got.is_gluing:
            assert ideal_identity_holds(cand, got.rho), cand
            mixed_yes += got.detail == "glued by a mixed minimal generator"
            shared_yes += gcd(cand.k1, cand.k2) > 1
    assert len(cands) == 151
    assert mixed_yes >= 30
    assert shared_yes >= 1


# -- cones and the implication chain ----------------------------------------

def test_in_cone():
    a, b = twisted_bad_pair()
    assert in_cone((1, 1, 0), a.matrix)
    assert not in_cone((1, 2, 0), b.matrix)
    assert in_cone((0, 0, 0), b.matrix)
    assert not in_cone((-1, 0, 0), a.matrix)
    assert in_cone((2, 3, 1), b.matrix)


def _some_multiple_is_member(cols, v, kmax):
    """Return whether some k * v with 1 <= k <= kmax is a sum of columns.

    Brute force: every semigroup element below kmax * v, by breadth-first
    search from the origin.
    """
    box = tuple(kmax * x for x in v)
    targets = {tuple(k * x for x in v) for k in range(1, kmax + 1)}
    seen = {tuple(0 for _ in v)}
    frontier = list(seen)
    while frontier:
        point = frontier.pop()
        for col in cols:
            nxt = tuple(x + c for x, c in zip(point, col))
            if nxt in targets:
                return True
            if nxt not in seen and all(x <= b for x, b in zip(nxt, box)):
                seen.add(nxt)
                frontier.append(nxt)
    return False


@pytest.mark.parametrize("rows,cols", [(2, 3), (3, 4)])
def test_cone_solutions_are_exact_and_complete(rows, cols):
    rng = random.Random(20261018 + rows)
    for _ in range(150):
        columns = []
        while len(columns) < cols:
            col = tuple(rng.randrange(4) for _ in range(rows))
            if any(col):
                columns.append(col)
        v = tuple(rng.randrange(-1, 4) for _ in range(rows))
        if not any(v):
            continue
        m = IntegerMatrix.from_columns(columns)
        sol = _cone_solution(v, m)[0]
        gens = SemigroupGens.from_columns(dict.fromkeys(columns), "x")
        if no_multiple_possible(v, gens):
            assert sol is None, (columns, v)
        if sol is not None:
            e, n = sol
            assert m.matvec(e) == tuple(n * x for x in v)
            assert all(x >= 0 for x in e)
            assert n >= 1
        elif min(v) >= 0:
            assert not _some_multiple_is_member(columns, v, 12), (columns, v)


def _random_cone_case(rng):
    """Return (columns, v) with 1-4 rows, repeats and zeros in v likely."""
    rows = rng.randrange(1, 5)
    columns = []
    for _ in range(rng.randrange(1, 7)):
        if columns and rng.random() < 0.2:
            columns.append(rng.choice(columns))
        else:
            col = tuple(rng.randrange(4) * (rng.random() < 0.7)
                        for _ in range(rows))
            columns.append(col if any(col) else (1,) + col[1:])
    v = tuple(rng.randrange(-1, 6) * (rng.random() < 0.8)
              for _ in range(rows))
    return columns, v if any(v) else (2,) + v[1:]


def test_cone_solution_matches_the_kernel_rule():
    # The reference is the subset rule read off kernels of [S | v].
    rng = random.Random(20261019)
    seen = dict.fromkeys(("dependent", "repeated", "negative", "zero",
                          "solved", "missed", "face"), 0)
    for _ in range(3000):
        columns, v = _random_cone_case(rng)
        m = IntegerMatrix.from_columns(columns)
        first, face = got = _cone_solution(v, m)
        assert got == kernel_cone_solution(v, m), (columns, v)
        seen["dependent"] += rank(m) < len(columns)
        seen["repeated"] += len(set(columns)) < len(columns)
        seen["negative"] += min(v) < 0
        seen["zero"] += 0 in v
        seen["solved"] += first is not None
        seen["missed"] += first is None and min(v) >= 0
        seen["face"] += len(face) > 1
    assert min(seen.values()) >= 200, seen


def test_meeting_line_matches_the_kernel_reference():
    rng = random.Random(20261020)
    ok = 0
    for trial in range(3000):
        n = rng.randrange(1, 5)
        if trial % 3 == 0 and n == 3:
            a = random_rank2_gens(rng, "x") or random_gens(rng, 3, 2, 3, "x")
            b = random_rank2_gens(rng, "y") or random_gens(rng, 3, 2, 3, "y")
        else:
            a = random_gens(rng, n, rng.randrange(1, 2 * n + 1), 3, "x")
            b = random_gens(rng, n, rng.randrange(1, n + 1), 3, "y")
        got = gluing._meeting_line(a, b)
        assert got == kernel_meeting_line(a, b), (a, b)
        ok += got[0].ok
    assert 500 <= ok <= 2500, ok


def test_decide_pair_takes_a_kernel_only_for_the_line_indices(monkeypatch):
    calls = []
    kernel = gluing.kernel_lattice_basis

    def counted(m):
        calls.append(m)
        return kernel(m)

    monkeypatch.setattr(gluing, "kernel_lattice_basis", counted)
    decision = decide_pair(*twisted_pair(), 12)
    assert decision.pair == (3, 2)
    # one _line_index, on A's face of u; B's face is the one column
    # (3, 3, 0), whose index is read off its cone solution
    assert len(calls) == 1


def test_audit_of_a_gluable_pair():
    audit = implication_chain_audit(*twisted_pair())
    assert audit.gluing is True
    assert audit.pair == (3, 2)
    assert audit.multiples is True
    assert audit.cone_meet is True
    assert audit.semigroup_meet is True
    assert audit.common_element == (6, 6, 0)
    assert audit.violations == ()


def test_audit_of_a_provably_non_gluable_pair():
    audit = implication_chain_audit(*twisted_bad_pair())
    assert audit.gluing is False
    assert audit.multiples is False
    assert audit.cone_meet is False
    assert audit.semigroup_meet is False
    assert audit.common_element is None
    assert audit.violations == ()


def test_audit_can_stay_inconclusive():
    audit = implication_chain_audit(*shared_factor_pair())
    assert audit.gluing is None
    assert audit.multiples is True
    assert audit.cone_meet is True
    assert audit.common_element == (27, 27, 54)
    assert audit.violations == ()


def test_audit_accepts_explicit_scaling_pairs():
    audit = implication_chain_audit(*shared_column_pair(), try_pairs=[(2, 1)])
    assert audit.gluing is True
    assert audit.pair == (2, 1)
    assert audit.detail == "the scalings k1=2 k2=1 glue"
    assert audit.violations == ()


def test_audit_of_a_rank_failing_pair():
    audit = implication_chain_audit(*crossing_plane_pair())
    assert audit.gluing is False
    assert audit.u is None
    assert audit.multiples is None
    assert audit.cone_meet is None
    assert audit.violations == ()

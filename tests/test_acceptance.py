"""End-to-end acceptance checks: fixtures, random audits, property sweeps.

Each test prints one ``[acceptance]`` line, so running this file with
``pytest tests/test_acceptance.py -v -s`` gives a one-line verdict per
check; a FAIL line also prints the values the test derived.  Reference
values are worked out inside each test from the fixture matrices, and
completers and levels are read in the grading of the scaled union
k1 A + k2 B.  All integer comparisons are exact and every random sweep
is seeded, so a run is reproducible.
"""

import random
from math import gcd

from semiglue import (
    BettiSequence,
    Binomial,
    BoundTooLarge,
    GluingCandidate,
    IntegerMatrix,
    Monomial,
    MonomialOrder,
    PlaneHomogeneousGens,
    check_rank_conditions,
    decide_pair,
    embed_and_glue,
    enumerate_oracle,
    glued_betti,
    gluable_lattice_point,
    ideal_equal,
    implication_chain_audit,
    is_complete_intersection,
    is_member,
    kernel_lattice_basis,
    level,
    multiples_in_semigroup,
    normal_form,
    primitive,
    rank,
    saturate,
    toric_ideal,
    verify_gluing,
)
from semiglue.binomial import buchberger
from semiglue.toric import toric_ideal_of_matrix
from support import (
    ideal_identity_holds,
    linear_binomial_pair,
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

SEED = 20260823

# Gluings verified by the random audit, shared with the arithmetic check.
VERIFIED = []


def _verdict(label, ok, note=""):
    status = "PASS" if ok else "FAIL"
    tail = f" ({note})" if note else ""
    print(f"[acceptance] {label}: {status}{tail}")


def _mixed(cand, plus, minus):
    block = cand.c_block
    return Binomial(Monomial(block, tuple(plus)), Monomial(block, tuple(minus)))


def _c_ideal(cand):
    return toric_ideal_of_matrix(cand.c_matrix, cand.c_block)


# -- fixture pairs -----------------------------------------------------------

def test_lattice_points_of_the_twisted_pairs():
    a, b = twisted_pair()
    _, bad = twisted_bad_pair()
    points = (gluable_lattice_point(a, b), gluable_lattice_point(a, bad))
    ok = points == ((1, 1, 0), (1, 2, 0))
    _verdict("lattice points of the twisted pairs", ok)
    assert points == ((1, 1, 0), (1, 2, 0))


def test_twisted_pair_glues_by_the_recorded_quadric():
    cand = GluingCandidate(*twisted_pair())
    report = verify_gluing(cand)
    quadric = _mixed(cand, (0, 0, 0, 0, 2, 0, 0, 0),
                     (1, 0, 0, 2, 0, 0, 0, 0))
    same = ideal_identity_holds(cand, quadric)
    _verdict("twisted pair glues at (1, 1); y1^2 - x1*x4^2 completes",
             report.is_gluing and same)
    assert report.is_gluing
    assert same


def test_skewed_pair_is_refused_definitively():
    a, bad = twisted_bad_pair()
    report = verify_gluing(GluingCandidate(a, bad))
    nec = decide_pair(a, bad)
    ok = (not report.is_gluing and nec.multiples is False
          and nec.witnesses_a != () and nec.witnesses_b == ())
    _verdict("skewed pair refused; no multiple of u ever enters "
             "the second semigroup", ok)
    assert not report.is_gluing
    assert nec.multiples is False
    assert nec.witnesses_a != () and nec.witnesses_b == ()
    assert nec.detail == ("no positive multiple of (1, 2, 0) can ever lie "
                          "in the second semigroup")


def test_level_of_the_twisted_quadric_completer():
    cand = GluingCandidate(*twisted_pair())
    quadric = _mixed(cand, (0, 0, 0, 0, 2, 0, 0, 0),
                     (1, 0, 0, 2, 0, 0, 0, 0))
    lv = level(quadric, cand)
    _verdict("level of y1^2 - x1*x4^2 over the twisted pair is 6", lv == 6)
    assert lv == 6


def test_recorded_levels_of_the_skewed_pair_completers():
    """Both mixed completers of the skewed pair have level 4.

    The level is |l| where A alpha = k2 * l * u, alpha is the x-exponent
    drop and u = (1, 2, 0).  Both completers drop x3 * x4^2, and A maps
    that to (4, 8, 0) = 4u; with k2 = 1 the level is 4.  The value 2
    recorded earlier cannot occur: every column of A has coordinate sum
    4, so every element of ZA has a coordinate sum divisible by 4, while
    2u has sum 6.  That 2 measured the y-side drop against 2u, which
    generates ZB on the line through u, instead of the x-side drop
    against u as the definition asks.
    """
    cand = GluingCandidate(*twisted_bad_pair())
    u = (1, 2, 0)
    w1 = _mixed(cand, (0, 0, 0, 0, 2, 1, 0, 0), (0, 0, 1, 2, 0, 0, 0, 1))
    w2 = _mixed(cand, (0, 0, 0, 0, 3, 0, 0, 0), (0, 0, 1, 2, 0, 0, 1, 0))
    pa = cand.a.count
    drops = tuple(
        cand.a.matrix.matvec(tuple(p - m for p, m in zip(
            w.plus.exponents[:pa], w.minus.exponents[:pa])))
        for w in (w1, w2))
    four_u = tuple(4 * x for x in u)
    on_four_u = all(d in (four_u, tuple(-x for x in four_u)) for d in drops)
    column_sums = {sum(col) for col in cand.a.matrix.columns()}
    two_u_ruled_out = column_sums == {4} and sum(2 * x for x in u) % 4 != 0
    expected = (4, 4)  # A alpha = +-4u and k2 = 1
    levels = (level(w1, cand), level(w2, cand))
    ok = on_four_u and two_u_ruled_out and levels == expected
    _verdict("recorded levels of the skewed-pair completers", ok,
             "" if ok else f"A*alpha = {drops}, derived levels {levels}, "
             f"expected {expected}")
    assert on_four_u, drops
    assert two_u_ruled_out, column_sums
    assert levels == expected


def test_monomial_curve_pair_glues_at_three_two():
    a, b = monomial_curves_pair()
    u = gluable_lattice_point(a, b)
    found = decide_pair(a, b)
    report = verify_gluing(GluingCandidate(a, b, 3, 2))
    unit = verify_gluing(GluingCandidate(a, b))
    mus = (unit.mu_a, unit.mu_b, unit.mu_c)
    ok = (u == (1, 1, 2) and found.pair == (3, 2)
          and report.is_gluing and not unit.is_gluing and mus == (3, 2, 8))
    _verdict("monomial curve pair glues at (3, 2) and not at (1, 1)", ok)
    assert u == (1, 1, 2)
    assert found.pair == (3, 2)
    assert report.is_gluing
    assert not unit.is_gluing
    assert mus == (3, 2, 8)


def test_recorded_cubic_completer_for_the_glued_monomial_curves():
    """x4 - y4 completes the monomial curves glued at (3, 2).

    At (3, 2) both x4 and y4 have C-degree 6u = (6, 6, 12), so x4 - y4
    is homogeneous for the glued grading, and with the two toric ideals
    it gives the toric ideal of the union.  The completer x4^3 - y4^2
    recorded earlier is homogeneous, in degree 6u, only for the unscaled
    union (1, 1), which is not a gluing; at (3, 2) its sides sit in
    degrees (18, 18, 36) and (12, 12, 24), so it is not in I_C.  The
    scaling was left out when it was recorded.
    """
    a, b = monomial_curves_pair()
    cand = GluingCandidate(a, b, 3, 2)
    six_u = tuple(6 * x for x in (1, 1, 2))
    linear = _mixed(cand, (0, 0, 0, 1, 0, 0, 0, 0),
                    (0, 0, 0, 0, 0, 0, 0, 1))
    degrees = (cand.c_matrix.matvec(linear.plus.exponents),
               cand.c_matrix.matvec(linear.minus.exponents))
    same = ideal_identity_holds(cand, linear)
    cubic = ((0, 0, 0, 3, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 0, 2))
    unscaled = GluingCandidate(a, b).c_matrix
    cubic_unscaled = unscaled.matvec(cubic[0]) == unscaled.matvec(cubic[1])
    cubic_scaled = (cand.c_matrix.matvec(cubic[0])
                    == cand.c_matrix.matvec(cubic[1]))
    ok = (degrees == (six_u, six_u) and same and cubic_unscaled
          and not cubic_scaled)
    _verdict("recorded cubic completer for the glued monomial curves", ok,
             "" if ok else
             f"x4 - y4 has degrees {degrees[0]}, {degrees[1]} and "
             f"completes: {same}; x4^3 - y4^2 homogeneous unscaled: "
             f"{cubic_unscaled}, at (3, 2): {cubic_scaled}")
    assert degrees == (six_u, six_u)
    assert same
    assert cubic_unscaled and not cubic_scaled


def test_shared_ray_pair_has_no_coprime_scalings():
    a, b = shared_factor_pair()
    u = gluable_lattice_point(a, b)
    found = decide_pair(a, b, kmax=50).pair
    mults = sorted(multiples_in_semigroup(u, a, 9))
    ok = found is None and mults == [3, 6, 9]
    _verdict("shared-ray pair has no coprime scalings up to 50", ok)
    assert found is None
    assert mults == [3, 6, 9]


def test_shared_column_pair_glues_by_a_linear_completer():
    cand = GluingCandidate(*shared_column_pair(), 2, 1)
    report = verify_gluing(cand)
    linear = _mixed(cand, (0, 0, 0, 1, 0, 0, 0, 0),
                    (0, 0, 0, 0, 0, 0, 0, 1))
    same = ideal_identity_holds(cand, linear)
    _verdict("shared-column pair glues at (2, 1); x4 - y4 completes",
             report.is_gluing and same)
    assert report.is_gluing
    assert same


def test_embedded_plane_cubics_reproduce_the_glued_matrix():
    cubic = PlaneHomogeneousGens(3, (1, 2))
    eg = embed_and_glue(cubic, cubic, index=2)
    expected = IntegerMatrix.from_rows([
        (12, 9, 6, 3, 6, 6, 6, 6),
        (0, 3, 6, 9, 6, 4, 2, 0),
        (0, 0, 0, 0, 0, 2, 4, 6)])
    report = verify_gluing(eg.candidate)
    linear = ((0, 0, 1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 1, 0, 0, 0))
    ok = (eg.c_matrix == expected and report.is_gluing
          and report.rho.as_pair() == linear)
    _verdict("embedded plane cubics glue by x3 - y1 with the expected "
             "matrix", ok)
    assert eg.c_matrix == expected
    assert report.is_gluing
    assert report.rho.as_pair() == linear


def test_matching_generator_counts_do_not_force_a_gluing():
    report = verify_gluing(GluingCandidate(*shared_column_pair()))
    mus = (report.mu_a, report.mu_b, report.mu_c)
    ok = mus == (3, 2, 6) and not report.is_gluing
    _verdict("matching generator counts do not force a gluing", ok)
    assert mus == (3, 2, 6)
    assert not report.is_gluing


def test_a_linear_mixed_binomial_does_not_force_a_gluing():
    cand = GluingCandidate(*linear_binomial_pair())
    report = verify_gluing(cand)
    mus = (report.mu_a, report.mu_b, report.mu_c)
    linear = _mixed(cand, (0, 0, 0, 0, 1, 0, 0, 0, 0, 0),
                    (0, 0, 0, 0, 0, 0, 0, 0, 0, 1))
    in_union = _c_ideal(cand).ideal.contains(linear)
    ok = mus == (4, 3, 13) and not report.is_gluing and in_union
    _verdict("a linear mixed binomial in the union ideal does not force "
             "a gluing", ok)
    assert mus == (4, 3, 13)
    assert not report.is_gluing
    assert in_union


def _fixture_reports():
    """Return freshly verified reports for the fixture pairs that glue."""
    reports = [
        verify_gluing(GluingCandidate(*twisted_pair())),
        verify_gluing(GluingCandidate(*monomial_curves_pair(), 3, 2)),
        verify_gluing(GluingCandidate(*shared_column_pair(), 2, 1)),
    ]
    cubic = PlaneHomogeneousGens(3, (1, 2))
    reports.append(verify_gluing(embed_and_glue(cubic, cubic, index=2).candidate))
    assert all(r.is_gluing for r in reports)
    return reports


# -- random sweeps -----------------------------------------------------------

def test_bounded_oracle_matches_the_toric_ideal():
    rng = random.Random(SEED)
    accepted = attempts = 0
    while accepted < 100 and attempts < 500:
        attempts += 1
        ambient = rng.randrange(1, 4)
        gens = random_gens(rng, ambient, rng.randrange(1, 6), 6, "x")
        if gens is None:
            continue
        graded = toric_ideal(gens)
        degrees = [gens.adegree(g.plus.exponents)
                   for g in graded.ideal.generators]
        degrees.extend(gens.matrix.columns())
        bound = tuple(max(d[i] for d in degrees) for i in range(ambient))
        try:
            oracle = enumerate_oracle(gens, bound, work_limit=300_000)
        except BoundTooLarge:
            continue
        for g in oracle:
            assert graded.ideal.contains(g), (gens, g)
        pairs = {tuple(sorted(g.as_pair())) for g in oracle}
        for g in graded.ideal.generators:
            deg = gens.adegree(g.plus.exponents)
            if all(deg[i] <= bound[i] for i in range(ambient)):
                assert tuple(sorted(g.as_pair())) in pairs, (gens, g)
        accepted += 1
    _verdict(f"bounded oracle matches the toric ideal on {accepted} "
             "random matrices", accepted >= 100)
    assert accepted >= 100


def test_implication_chain_holds_on_random_pairs():
    rng = random.Random(SEED)
    accepted = attempts = violations = 0
    while accepted < 200 and attempts < 3000:
        attempts += 1
        if attempts % 2:
            a = random_rank2_gens(rng, "x")
            b = random_rank2_gens(rng, "y")
        else:
            a = random_plane_gens(rng, "x")
            b = random_ray_gens(rng, "y")
        if a is None or b is None or not check_rank_conditions(a, b).ok:
            continue
        audit = implication_chain_audit(a, b, kmax=12)
        assert audit.violations == (), (a, b, audit)
        violations += len(audit.violations)
        accepted += 1
        if audit.gluing:
            assert audit.multiples is not False
            assert audit.cone_meet is True
            assert audit.semigroup_meet is True
            k1, k2 = audit.pair
            if k1 + k2 <= 12:
                report = verify_gluing(GluingCandidate(a, b, k1, k2))
                assert report.is_gluing, (a, b, k1, k2)
                VERIFIED.append(report)
        if audit.cone_meet is True:
            assert audit.common_element is not None
    _verdict(f"implication chain holds on {accepted} random pairs "
             f"({len(VERIFIED)} gluings verified)",
             accepted >= 200 and violations == 0)
    assert accepted >= 200
    assert violations == 0


def test_betti_convolution_fixture_and_symmetry():
    fixture = glued_betti(BettiSequence((1, 3, 2)), BettiSequence((1, 3, 2)))
    ok = fixture == BettiSequence((1, 7, 19, 25, 16, 4))
    rng = random.Random(SEED)
    symmetric = 0
    for _ in range(1000):
        x = BettiSequence((1,) + tuple(rng.randrange(1, 9)
                                       for _ in range(rng.randrange(4))))
        y = BettiSequence((1,) + tuple(rng.randrange(1, 9)
                                       for _ in range(rng.randrange(4))))
        if glued_betti(x, y) == glued_betti(y, x):
            symmetric += 1
    _verdict("glued Betti numbers: fixture and symmetry on 1000 pairs",
             ok and symmetric == 1000)
    assert ok
    assert symmetric == 1000


def test_arithmetic_consequences_on_every_verified_gluing():
    reports = _fixture_reports() + VERIFIED
    for report in reports:
        cand = report.candidate
        assert report.is_gluing
        assert report.mu_c == report.mu_a + report.mu_b + 1, report
        ra, rb = rank(cand.a.matrix), rank(cand.b.matrix)
        rc = rank(cand.c_matrix)
        assert rc == ra + rb - 1, report
        if is_complete_intersection(cand.a) and is_complete_intersection(cand.b):
            assert report.mu_c == cand.c_matrix.cols - rc, report
    _verdict(f"arithmetic consequences hold on {len(reports)} verified "
             "gluings", len(reports) >= 4)
    assert len(reports) >= 4


# -- deterministic property sweep --------------------------------------------

def _sweep_primitive(rng):
    for _ in range(200):
        v = tuple(rng.randrange(-9, 10) for _ in range(rng.randrange(1, 5)))
        if not any(v):
            continue
        p = primitive(v)
        assert primitive(p) == p
        g = 0
        for x in p:
            g = gcd(g, x)
        assert g == 1
        assert next(x for x in p if x) > 0


def _sweep_kernel(rng):
    for _ in range(50):
        height, width = rng.randrange(1, 4), rng.randrange(1, 6)
        m = IntegerMatrix(tuple(
            tuple(rng.randrange(7) for _ in range(width))
            for _ in range(height)))
        basis = kernel_lattice_basis(m)
        for vec in basis:
            assert m.matvec(vec) == (0,) * m.rows
        assert len(basis) == m.cols - rank(m)


def _sweep_groebner(rng):
    graded = toric_ideal(twisted_pair()[0])
    order = MonomialOrder.degrevlex(graded.weights)
    reduced = buchberger(graded.ideal.generators, order)
    for _ in range(30):
        shuffled = list(graded.ideal.generators)
        rng.shuffle(shuffled)
        assert buchberger(tuple(shuffled), order) == reduced
    for m in reduced:
        nf = normal_form(m.plus, reduced, order)
        assert normal_form(nf, reduced, order) == nf


def _sweep_saturation(rng):
    checked = 0
    while checked < 15:
        gens = random_gens(rng, rng.randrange(1, 4), rng.randrange(2, 5),
                           5, "x")
        if gens is None:
            continue
        graded = toric_ideal(gens)
        once = saturate(graded.ideal, weights=graded.weights)
        twice = saturate(once, weights=graded.weights)
        assert ideal_equal(once, graded.ideal)
        assert ideal_equal(twice, once)
        checked += 1


def _sweep_membership(rng):
    a = twisted_pair()[0]
    sums = [sum(col) for col in a.matrix.columns()]
    for _ in range(200):
        v = tuple(rng.randrange(13) for _ in range(3))
        witness = is_member(v, a)
        if witness is not None:
            combined = tuple(
                sum(c * col[i] for c, col in zip(witness,
                                                 a.matrix.columns()))
                for i in range(3))
            assert combined == v
            continue
        total = sum(v)
        caps = [total // s for s in sums]
        size = 1
        for c in caps:
            size *= c + 1
        assert size <= 10_000

        def search(i, rest):
            if not any(rest):
                return True
            if i == len(caps):
                return False
            col = a.matrix.columns()[i]
            for c in range(caps[i] + 1):
                nxt = tuple(r - c * x for r, x in zip(rest, col))
                if all(n >= 0 for n in nxt) and search(i + 1, nxt):
                    return True
            return False

        assert not search(0, v)


def test_deterministic_property_sweep():
    rng = random.Random(SEED)
    _sweep_primitive(rng)
    _sweep_kernel(rng)
    _sweep_groebner(rng)
    _sweep_saturation(rng)
    _sweep_membership(rng)
    _verdict("deterministic sweep: primitive, kernel, Groebner, "
             "saturation, normal form, membership", True)

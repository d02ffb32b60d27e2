"""The source paper's claims, each checked by one named test."""

from math import gcd
from random import Random

from semiglue import (
    GluingCandidate,
    HomologySummary,
    SemigroupGens,
    decide_pair,
    is_complete_intersection,
    propagate,
    rank,
    toric_ideal,
    verify_gluing,
)
from semiglue.toric import toric_ideal_of_matrix
from support import (
    chain_pairs,
    linear_binomial_pair,
    monomial_curves_pair,
    twisted_pair,
)


def frobenius_number(gens):
    """Return the largest integer outside <gens>, whose gcd is 1; -1 for N.

    Schur's bound puts it below (min gens - 1)(max gens - 1), so a table
    up to (max gens)^2 holds it.
    """
    bound = max(gens) ** 2
    member = [True] + [False] * bound
    for t in range(1, bound + 1):
        member[t] = any(t >= g and member[t - g] for g in gens)
    return max((t for t in range(bound + 1) if not member[t]), default=-1)


def random_numerical_gens(rng, prefix):
    """Return 1-4 distinct generators <= 15 of a numerical semigroup in N^1."""
    while True:
        gens = rng.sample(range(1, 16), rng.randint(1, 4))
        if gcd(*gens) == 1:
            return sorted(gens), SemigroupGens.from_columns(
                [(g,) for g in sorted(gens)], prefix)


def test_any_two_numerical_semigroups_glue():
    # The paper's n = 1 case.  Past both Frobenius numbers F_A and F_B
    # every integer lies in both semigroups, so the consecutive, hence
    # coprime, multiples F + 1 and F + 2 of u = (1) with F = max(F_A,
    # F_B) are a pair within kmax = F + 2.
    rng = Random(20261025)
    gapped = 0
    for _ in range(150):
        ga, a = random_numerical_gens(rng, "x")
        gb, b = random_numerical_gens(rng, "y")
        kmax = max(frobenius_number(ga), frobenius_number(gb)) + 2
        gapped += kmax > 2
        decision = decide_pair(a, b, kmax)
        assert decision.gluing is True, (ga, gb, decision.detail)
        report = verify_gluing(GluingCandidate(a, b, *decision.pair))
        assert report.is_gluing, (ga, gb, decision.pair, report.detail)
    assert gapped >= 100, gapped


def count_rule_summary(gens):
    """Return the homology summary that the generator count decides.

    The ring is a complete intersection exactly when mu equals the
    codimension; then pd is the codimension and depth the dimension.
    """
    return HomologySummary.from_count(rank(gens.matrix), gens.count,
                                      toric_ideal(gens).mu)


def test_gluings_of_complete_intersections_are_complete_intersections():
    # The paper's inheritance claim, complete-intersection case: I_C is
    # I_A + I_B plus one binomial, so when I_A and I_B are complete
    # intersections, mu(C) = mu(A) + mu(B) + 1 is the codimension of C.
    # On every yes the report's homology is the pieces' summaries
    # propagated, so C is a complete intersection only if both pieces
    # are; the chain pairs that glue have complete-intersection pieces,
    # and three fixtures that glue have a piece that is not one.  The
    # report's mu(C) is that sum, computed when read, so it is also
    # checked against the glued ideal's own generator count.
    fixtures = [twisted_pair(), monomial_curves_pair(),
                linear_binomial_pair()]
    yes = higher = not_ci = 0
    for a, b in chain_pairs(300, seed=20261024) + fixtures:
        decision = decide_pair(a, b, 12)
        if decision.gluing is not True:
            continue
        report = verify_gluing(GluingCandidate(a, b, *decision.pair))
        assert report.is_gluing, (a, b, decision.pair, report.detail)
        sa, sb = count_rule_summary(a), count_rule_summary(b)
        assert report.homology == propagate(sa, sb, glued=True), (
            a, b, decision.pair)
        not_ci += report.homology.ci is False
        if not (is_complete_intersection(a)
                and is_complete_intersection(b)):
            continue
        yes += 1
        c = report.candidate
        codim = c.c_matrix.cols - rank(c.c_matrix)
        glued = toric_ideal_of_matrix(c.c_matrix, c.c_block).mu
        assert report.mu_c == codim == glued, (a, b, decision.pair)
        assert report.homology.ci is True, (a, b, decision.pair)
        higher += report.mu_c >= 4
    assert yes >= 100 and higher >= 10 and not_ci == 3, (yes, higher, not_ci)

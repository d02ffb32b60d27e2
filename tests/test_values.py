"""The immutable value classes keep the behaviour of frozen dataclasses.

Each case builds one value from keyword arguments, the leading fields
in order, relying on the defaults for the rest, and gives the repr a
frozen dataclass printed for it.  A copy with some fields changed comes
from ``Value.replace``, as it came from ``dataclasses.replace``.
"""

import copy
import pickle

import pytest

from semiglue import (
    BettiSequence,
    Binomial,
    BinomialIdeal,
    EmbeddedGluing,
    GluingCandidate,
    GluingReport,
    HomologySummary,
    IntegerMatrix,
    Monomial,
    MonomialOrder,
    PlaneHomogeneousGens,
    SemigroupGens,
    VariableBlock,
    decide_pair,
    embed_and_glue,
    toric_ideal,
    verify_gluing,
)
from semiglue.gluing import RankConditions

X2 = VariableBlock(("x1", "x2"))
X2R = "VariableBlock(names=('x1', 'x2'))"
M20 = Monomial(X2, (2, 0))
M01 = Monomial(X2, (0, 1))
M20R = f"Monomial(block={X2R}, exponents=(2, 0))"
M01R = f"Monomial(block={X2R}, exponents=(0, 1))"
RHO = Binomial(M20, M01)
RHOR = f"Binomial(plus={M20R}, minus={M01R})"
A = SemigroupGens(IntegerMatrix(((1, 2),)), X2)
AR = f"SemigroupGens(matrix=IntegerMatrix(entries=((1, 2),)), block={X2R})"
B = SemigroupGens.from_columns([(3,)], "y")
BR = ("SemigroupGens(matrix=IntegerMatrix(entries=((3,),)), "
      "block=VariableBlock(names=('y1',)))")
P, Q = PlaneHomogeneousGens(3, (1, 2)), PlaneHomogeneousGens(2, (1,))

# (class, keyword arguments, the frozen dataclass repr)
CASES = [
    (IntegerMatrix, {"entries": ((1, 2), (3, 4))},
     "IntegerMatrix(entries=((1, 2), (3, 4)))"),
    (VariableBlock, {"names": ("x1", "x2")}, X2R),
    (Monomial, {"block": X2, "exponents": (2, 0)}, M20R),
    (Binomial, {"plus": M20, "minus": M01}, RHOR),
    (MonomialOrder, {"weights": (1, 2)},
     "MonomialOrder(weights=(1, 2), cheapest=None)"),
    (BinomialIdeal, {"block": X2, "generators": (RHO,)},
     f"BinomialIdeal(block={X2R}, generators=({RHOR},))"),
    (SemigroupGens, {"matrix": IntegerMatrix(((1, 2),)), "block": X2}, AR),
    (GluingCandidate, {"a": A, "b": B},
     f"GluingCandidate(a={AR}, b={BR}, k1=1, k2=1)"),
    (RankConditions, {"rank_a": 1, "rank_b": 1, "rank_joint": 1,
                      "ambient": 1},
     "RankConditions(rank_a=1, rank_b=1, rank_joint=1, ambient=1)"),
    (BettiSequence, {"values": (1, 2, 1, 0)},
     "BettiSequence(values=(1, 2, 1))"),
    (HomologySummary, {"dim": 2},
     "HomologySummary(dim=2, pd=None, depth=None, ci=None, cm=None, "
     "gorenstein=None, mu=None)"),
    (PlaneHomogeneousGens, {"degree": 3, "steps": (1, 2)},
     "PlaneHomogeneousGens(degree=3, steps=(1, 2))"),
]


def _embedded() -> tuple[EmbeddedGluing, dict, str]:
    e = embed_and_glue(P, Q, 1)
    kwargs = {name: getattr(e, name) for name in (
        "a_prime", "b_prime", "m", "r", "index", "k1", "k2", "u", "rho",
        "candidate")}
    want = (f"EmbeddedGluing(a_prime={e.a_prime!r}, b_prime={e.b_prime!r}, "
            f"m=3, r=0, index=1, k1=2, k2=1, u=(2, 1, 0), rho={e.rho!r}, "
            f"candidate={e.candidate!r})")
    return e, kwargs, want


def _refuses_changes(value, names) -> None:
    for name in (*names, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)


@pytest.mark.parametrize("cls, kwargs, want", CASES,
                         ids=[c[0].__name__ for c in CASES])
def test_value_classes_behave_as_frozen_dataclasses(cls, kwargs, want):
    value = cls(**kwargs)
    assert repr(value) == want
    # positional arguments in field order build an equal value
    again = cls(*kwargs.values())
    assert again is not value
    assert again == value and hash(again) == hash(value)
    assert len({value, again}) == 1
    assert value != object() and value != repr(value)
    _refuses_changes(value, kwargs)
    assert repr(value) == want
    for twin in (copy.copy(value), copy.deepcopy(value),
                 pickle.loads(pickle.dumps(value))):
        assert type(twin) is cls and twin == value and repr(twin) == want


def test_value_classes_differ_when_a_field_differs():
    assert Monomial(X2, (2, 0)) != Monomial(X2, (0, 2))
    assert MonomialOrder((1, 2)) != MonomialOrder((1, 2), cheapest=0)
    assert GluingCandidate(A, B) != GluingCandidate(A, B, k2=2)
    assert HomologySummary(2) != HomologySummary(2, mu=3)
    # a value is not its field tuple
    assert Monomial(X2, (2, 0)) != (X2, (2, 0))


def test_embedded_gluing_compares_by_identity():
    e, kwargs, want = _embedded()
    assert repr(e) == want
    copy = EmbeddedGluing(**kwargs)
    assert repr(copy) == want
    assert e == e and hash(e) == hash(e)
    assert copy != e
    assert EmbeddedGluing(*kwargs.values()) != copy
    assert repr(pickle.loads(pickle.dumps(e))) == want
    _refuses_changes(e, kwargs)


def test_binomial_ideal_equality_ignores_held_bases():
    plain = BinomialIdeal(X2, (RHO,))
    held = BinomialIdeal(X2, (RHO,))
    held.groebner(MonomialOrder.degrevlex((1, 2)))
    assert held._bases and not plain._bases
    assert held == plain and hash(held) == hash(plain)
    assert repr(held) == repr(plain)
    spanned = held.spanned_by((RHO,))
    assert spanned == plain and spanned._bases == held._bases
    assert spanned._bases is not held._bases
    with pytest.raises(AttributeError):
        held._bases = {}


def _report():
    return verify_gluing(embed_and_glue(P, Q, 1).candidate)


@pytest.mark.optimized
def test_replace_keeps_the_unchanged_fields():
    cand = GluingCandidate(A, B)
    twice = cand.replace(k2=2)
    assert twice == GluingCandidate(A, B, k2=2) and cand.k2 == 1
    assert twice.a is cand.a and twice.b is cand.b
    report = _report()
    no = report.replace(rho=None)
    assert type(no) is type(report) and no.rho is None
    assert all(getattr(no, name) is getattr(report, name)
               for name in report._fields if name != "rho")
    d = decide_pair(A, B)
    named = d.replace(detail="renamed")
    assert named.detail == "renamed" and named.violations == ()
    assert all(getattr(named, name) is getattr(d, name)
               for name in d._fields if name != "detail")


@pytest.mark.optimized
def test_replace_checks_the_arguments_again():
    graded = toric_ideal(A)
    assert graded.mu == 1
    again = graded.replace(weights=graded.weights)
    assert again.ideal is graded.ideal and again.adegrees is graded.adegrees
    with pytest.raises(ValueError, match="one degree per generator"):
        graded.replace(adegrees={})
    with pytest.raises(ValueError, match="k1 and k2 must be positive"):
        GluingCandidate(A, B).replace(k1=0)
    for value in (graded, _report(), decide_pair(A, B), X2):
        with pytest.raises(TypeError):
            value.replace(extra=None)


@pytest.mark.optimized
def test_a_replaced_report_computes_its_invariants_again():
    report = _report()
    assert report.detail == "glued by coprime membership witnesses"
    assert report.__dict__ == {"detail": report.detail}
    no = report.replace(rho=None)
    assert no.__dict__ == {}
    assert no.detail == "no single mixed binomial completes the two ideals"
    assert (no.mu_a, no.mu_b, no.mu_c) == (3, 1, 5)
    assert report.detail == "glued by coprime membership witnesses"
    _refuses_changes(no, (*report._fields, "detail"))


@pytest.mark.optimized
def test_a_report_copies_and_pickles_through_its_fields():
    report = _report()
    want = repr(report)
    assert report.detail and report.__dict__
    for twin in (copy.copy(report), pickle.loads(pickle.dumps(report))):
        assert type(twin) is GluingReport and repr(twin) == want
        # compared by identity, and the cached invariants are not copied
        assert twin != report and twin.__dict__ == {}
        assert twin.detail == report.detail

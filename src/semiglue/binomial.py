"""Binomials, monomial orders, and Groebner bases for difference ideals.

A binomial here is a difference of two monomials, both with coefficient
one.  Ideals generated by such binomials are closed under every
operation we need -- S-polynomials, reduction, saturation by variables
-- so Buchberger's algorithm specializes to bookkeeping on pairs of
exponent vectors.  This module implements that specialization: weighted
degree reverse lexicographic orders (optionally with a chosen cheapest
variable), reduced Groebner bases with the Gebauer-Moeller pair
criteria, normal forms, ideal equality, and saturation with respect to
variables.

Internally all Groebner machinery works on raw exponent pairs and never
cancels a common monomial factor: dividing an element by a variable can
change the ideal, so cancellation is reserved for the saturation loop,
where it is exactly the point.  The public ``Binomial.make`` constructor
does cancel common factors, which is the right behaviour at input
boundaries; building a ``Binomial`` directly keeps the exponents as
given.

Buchberger's algorithm keeps its live critical pairs as records
``(lcm key, i, j, lcm)``: basis indices i < j, the lcm of their leading
terms, and that lcm's order key.  ``(lcm key, i, j)`` is unique, so the
smallest record is the next pair to process and the lcm itself is never
compared; it is stored so that the Gebauer-Moeller update reads it
instead of recomputing it for every surviving pair.

A ``BinomialIdeal`` keeps one cache, order to raw reduced basis, and
builds ``Binomial`` values only when ``groebner`` is read.  Membership
and equality take no order: any Groebner basis reduces exactly the
members to zero, and each order gives one reduced basis per ideal.  So
``contains`` and ``ideal_equal`` use the first basis already held, and
only an ideal that holds none computes one, under unit weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import add, itemgetter, le, mul, neg, sub

Exponents = tuple[int, ...]
RawBinomial = tuple[Exponents, Exponents]


@dataclass(frozen=True)
class VariableBlock:
    """An ordered tuple of distinct variable names."""

    names: tuple[str, ...]

    def __post_init__(self) -> None:
        assert len(self.names) > 0, "a block needs at least one variable"
        assert all(isinstance(nm, str) and nm for nm in self.names)
        assert len(set(self.names)) == len(self.names), "names must be distinct"

    @classmethod
    def prefixed(cls, prefix: str, size: int) -> "VariableBlock":
        return cls(tuple(f"{prefix}{i + 1}" for i in range(size)))

    @property
    def size(self) -> int:
        return len(self.names)

    def concat(self, other: "VariableBlock") -> "VariableBlock":
        assert not set(self.names) & set(other.names), "blocks share a name"
        return VariableBlock(self.names + other.names)

    def index(self, name: str) -> int:
        return self.names.index(name)


@dataclass(frozen=True)
class Monomial:
    """A power product of the variables of a block."""

    block: VariableBlock
    exponents: Exponents

    def __post_init__(self) -> None:
        assert len(self.exponents) == self.block.size
        assert all(isinstance(e, int) and e >= 0 for e in self.exponents)

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    def __str__(self) -> str:
        parts = []
        for name, e in zip(self.block.names, self.exponents):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts) if parts else "1"


@dataclass(frozen=True)
class Binomial:
    """The difference plus - minus of two monomials over one block.

    The direct constructor stores the exponents exactly as given; use
    ``make`` to cancel common monomial factors first.
    """

    plus: Monomial
    minus: Monomial

    def __post_init__(self) -> None:
        assert self.plus.block == self.minus.block
        assert self.plus.exponents != self.minus.exponents, "zero binomial"

    @classmethod
    def make(cls, block: VariableBlock, plus, minus) -> "Binomial":
        plus = tuple(int(e) for e in plus)
        minus = tuple(int(e) for e in minus)
        common = tuple(min(a, b) for a, b in zip(plus, minus))
        plus = tuple(a - c for a, c in zip(plus, common))
        minus = tuple(b - c for b, c in zip(minus, common))
        if plus == minus:
            raise ValueError("the two monomials are equal: zero binomial")
        return cls.from_pair(block, (plus, minus))

    @classmethod
    def from_pair(cls, block: VariableBlock, pair: RawBinomial) -> "Binomial":
        """Return x^u - x^v for the raw pair (u, v), exponents as given."""
        u, v = pair
        return cls(Monomial(block, u), Monomial(block, v))

    @property
    def block(self) -> VariableBlock:
        return self.plus.block

    def as_pair(self) -> RawBinomial:
        return (self.plus.exponents, self.minus.exponents)

    def negated(self) -> "Binomial":
        return Binomial(self.minus, self.plus)

    def __str__(self) -> str:
        return f"{self.plus} - {self.minus}"


def _canonical_key(b: Binomial) -> tuple:
    u, v = b.as_pair()
    return (sum(u), u, sum(v), v)


@dataclass(frozen=True)
class MonomialOrder:
    """A term order given by positive weights plus reverse lexicographic ties.

    The order compares weighted degrees first and breaks ties reverse
    lexicographically; ``cheapest`` picks which variable is smallest (by
    default the last one).
    """

    weights: tuple[int, ...]
    cheapest: int | None = None

    def __post_init__(self) -> None:
        assert len(self.weights) > 0
        assert all(isinstance(w, int) and w > 0 for w in self.weights)
        assert self.cheapest is None or 0 <= self.cheapest < len(self.weights)

    @classmethod
    def degrevlex(cls, weights, cheapest: int | None = None) -> "MonomialOrder":
        return cls(tuple(int(w) for w in weights), cheapest)

    def key_function(self):
        """Return a function mapping exponents to a sortable key.

        Larger key means larger monomial; the key is injective, so equal
        keys mean equal monomials.
        """
        w = self.weights
        p = len(w)
        if self.cheapest is None:
            tail = tuple(range(p - 1, -1, -1))
        else:
            j = self.cheapest
            tail = (j,) + tuple(i for i in range(p - 1, -1, -1) if i != j)
        # itemgetter of one index returns the item, not a 1-tuple
        pick = itemgetter(*tail) if p > 1 else (lambda m: (m[0],))

        def key(m, _w=w, _pick=pick):
            return (sum(map(mul, _w, m)), *map(neg, _pick(m)))

        return key


# ---------------------------------------------------------------------------
# raw engine


def _divides(d: Exponents, m: Exponents) -> bool:
    return all(map(le, d, m))


def _lcm(a: Exponents, b: Exponents) -> Exponents:
    return tuple(map(max, a, b))


def _coprime(a: Exponents, b: Exponents) -> bool:
    # exponents are nonnegative, so a zero minimum means one side is zero
    return not any(map(min, a, b))


def _orient(pair: RawBinomial, key) -> RawBinomial | None:
    u, v = pair
    if u == v:
        return None
    return (u, v) if key(u) > key(v) else (v, u)


def _spoly(f: RawBinomial, g: RawBinomial) -> RawBinomial | None:
    (u1, v1), (u2, v2) = f, g
    big = _lcm(u1, u2)
    a = tuple(map(sub, map(add, v1, big), u1))
    b = tuple(map(sub, map(add, v2, big), u2))
    if a == b:
        return None
    return (a, b)


def _nf_mono(m: Exponents, basis) -> Exponents:
    """Reduce the monomial m by the leading terms of basis until stable.

    Each step uses the first element, in basis order, whose leading term
    divides m.
    """
    while True:
        for lu, lv in basis:
            if all(map(le, lu, m)):
                m = tuple(map(add, map(sub, m, lu), lv))
                break
        else:
            return m


def _reduce_pair(pair: RawBinomial, basis, key) -> RawBinomial | None:
    u = _nf_mono(pair[0], basis)
    v = _nf_mono(pair[1], basis)
    if u == v:
        return None
    return _orient((u, v), key)


def _gm_update(basis, pairs, t: int, key) -> None:
    """Add the pairs for the new element basis[t], pruned Gebauer-Moeller style.

    ``pairs`` holds live critical pairs as (lcm key, i, j, lcm) with
    i < j; it is filtered and extended in place.
    """
    leads = [g[0] for g in basis]
    lt = leads[t]
    lcms = [tuple(map(max, lead, lt)) for lead in leads[:t]]
    # drop old pairs whose S-polynomial the new element now takes care of
    survivors = []
    for entry in pairs:
        _, i, j, lij = entry
        if all(map(le, lt, lij)) and lcms[i] != lij and lcms[j] != lij:
            continue
        survivors.append(entry)
    # among the new pairs keep only minimal lcms, one per value, and
    # finally discard those with coprime leading terms
    chosen: list[Exponents] = []
    for k, i in sorted([(key(lij), i) for i, lij in enumerate(lcms)]):
        lij = lcms[i]
        if _coprime(leads[i], lt):
            chosen.append(lij)
            continue
        if any(all(map(le, c, lij)) for c in chosen):
            continue
        chosen.append(lij)
        survivors.append((k, i, t, lij))
    pairs[:] = survivors


def _buchberger(raw_gens, key) -> tuple[RawBinomial, ...]:
    """Return the reduced Groebner basis of the given raw binomials."""
    basis: list[RawBinomial] = []
    pairs: list[tuple] = []
    seed = []
    seen = set()
    for pr in raw_gens:
        o = _orient(pr, key)
        if o is not None and o not in seen:
            seen.add(o)
            seed.append(o)
    seed.sort(key=lambda g: (key(g[0]), key(g[1])))
    for g in seed:
        basis.append(g)
        _gm_update(basis, pairs, len(basis) - 1, key)
    _complete(basis, pairs, key)
    return _interreduce(basis, key)


def _complete(basis, pairs, key, upto: int | None = None) -> None:
    """Process critical pairs, smallest lcm first, extending basis in place.

    With ``upto`` given, stop once every remaining pair has an lcm of
    weighted degree above it.  For a homogeneous ideal the basis is then
    a Groebner basis up to that degree: every element of the ideal of
    weighted degree at most ``upto`` reduces to zero.
    """
    while pairs:
        entry = min(pairs)
        if upto is not None and entry[0][0] > upto:
            return
        pairs.remove(entry)
        _, i, j, _ = entry
        s = _spoly(basis[i], basis[j])
        if s is None:
            continue
        r = _reduce_pair(s, basis, key)
        if r is None:
            continue
        basis.append(r)
        _gm_update(basis, pairs, len(basis) - 1, key)


def _interreduce(basis, key) -> tuple[RawBinomial, ...]:
    """Return the reduced Groebner basis given any Groebner basis."""
    if not basis:
        return ()
    order = sorted(range(len(basis)),
                   key=lambda i: (key(basis[i][0]), key(basis[i][1])))
    kept: list[int] = []
    for i in order:
        if any(_divides(basis[j][0], basis[i][0]) for j in kept):
            continue
        kept.append(i)
    minimal = [basis[i] for i in kept]
    reduced = []
    for u, v in minimal:
        v2 = _nf_mono(v, minimal)
        assert v2 != u
        reduced.append((u, v2))
    reduced.sort(key=lambda g: key(g[0]))
    return tuple(reduced)


def _wdeg(m: Exponents, weights) -> int:
    return sum(a * b for a, b in zip(weights, m))


def _is_homogeneous(pairs, weights) -> bool:
    return all(_wdeg(u, weights) == _wdeg(v, weights) for u, v in pairs)


def _saturate_raw(pairs, weights, variables=None) -> list[RawBinomial]:
    """Saturate the ideal of pairs by the product of the given variables.

    Needs every pair homogeneous under the positive weights.
    ``variables`` is an ordered list of indices, all of them in
    ascending order by default.  One sweep per variable, in that order:
    take a Groebner basis under the degree reverse lexicographic order
    that makes it the cheapest variable, then strip the common power of
    that variable from every element.  The result is a Groebner basis
    under the order of the last sweep.
    """
    assert _is_homogeneous(pairs, weights)
    p = len(weights)
    if variables is None:
        variables = range(p)
    current = list(pairs)
    for j in variables:
        key = MonomialOrder.degrevlex(weights, cheapest=j).key_function()
        stripped = []
        for u, v in _buchberger(current, key):
            m = min(u[j], v[j])
            if m:
                u = u[:j] + (u[j] - m,) + u[j + 1:]
                v = v[:j] + (v[j] - m,) + v[j + 1:]
            stripped.append((u, v))
        current = stripped
    return current


# ---------------------------------------------------------------------------
# public interface


def buchberger(generators, order: MonomialOrder) -> tuple[Binomial, ...]:
    """Return the reduced Groebner basis of the given binomials."""
    gens = tuple(generators)
    assert gens, "cannot infer the variable block from no generators"
    block = gens[0].block
    assert all(g.block == block for g in gens)
    assert len(order.weights) == block.size
    key = order.key_function()
    gb = _buchberger([g.as_pair() for g in gens], key)
    return tuple(Binomial.from_pair(block, g) for g in gb)


def normal_form(f, basis, order: MonomialOrder):
    """Return the normal form of f modulo a Groebner basis, None if zero.

    f may be a Binomial or a Monomial; a monomial always has a nonzero
    (monomial) normal form.
    """
    raw = [g.as_pair() for g in basis]
    key = order.key_function()
    if isinstance(f, Monomial):
        return Monomial(f.block, _nf_mono(f.exponents, raw))
    assert isinstance(f, Binomial)
    r = _reduce_pair(f.as_pair(), raw, key)
    if r is None:
        return None
    return Binomial.from_pair(f.block, r)


@dataclass(frozen=True)
class BinomialIdeal:
    """An ideal given by binomial generators, with cached Groebner bases."""

    block: VariableBlock
    generators: tuple[Binomial, ...]
    _bases: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self) -> None:
        assert all(isinstance(g, Binomial) and g.block == self.block
                   for g in self.generators)
        canon = tuple(sorted(set(self.generators), key=_canonical_key))
        object.__setattr__(self, "generators", canon)

    @classmethod
    def from_basis(cls, block: VariableBlock, order: MonomialOrder,
                   basis) -> "BinomialIdeal":
        """Return the ideal of a raw reduced basis under order, holding it."""
        basis = tuple(basis)
        ideal = cls(block, tuple(Binomial.from_pair(block, g) for g in basis))
        ideal._bases[order] = basis
        return ideal

    def spanned_by(self, generators) -> "BinomialIdeal":
        """Return this ideal generated by a spanning subset, bases kept."""
        return BinomialIdeal(self.block, tuple(generators),
                             _bases=dict(self._bases))

    def _basis(self, order: MonomialOrder) -> tuple[RawBinomial, ...]:
        basis = self._bases.get(order)
        if basis is None:
            assert len(order.weights) == self.block.size
            basis = self._bases[order] = _buchberger(
                [g.as_pair() for g in self.generators], order.key_function())
        return basis

    def groebner(self, order: MonomialOrder) -> tuple[Binomial, ...]:
        """Return the reduced Groebner basis under the given order."""
        return tuple(Binomial.from_pair(self.block, g)
                     for g in self._basis(order))

    def contains(self, f: Binomial) -> bool:
        """Return whether the binomial f lies in the ideal.

        Both monomials of f reduce to one normal form exactly when f is a
        member, under any Groebner basis; the first one held is used.
        """
        basis = next(iter(self._bases.values()), None)
        if basis is None:
            basis = self._basis(_unit_order(self.block))
        u, v = f.as_pair()
        return _nf_mono(u, basis) == _nf_mono(v, basis)


def _unit_order(block: VariableBlock) -> MonomialOrder:
    return MonomialOrder.degrevlex((1,) * block.size)


def ideal_equal(a: BinomialIdeal, b: BinomialIdeal) -> bool:
    """Return whether two binomial ideals over the same block are equal.

    Decided by comparing reduced Groebner bases, which are unique per
    ideal, under one shared order: the first that either ideal already
    holds, else unit weights.
    """
    assert a.block == b.block
    order = next(iter(a._bases or b._bases), None) or _unit_order(a.block)
    return a._basis(order) == b._basis(order)


def saturate(ideal: BinomialIdeal, variables=None, weights=None) -> BinomialIdeal:
    """Return the saturation of the ideal by the product of the variables.

    ``variables`` is an iterable of names, all of them by default.  The
    generators must be homogeneous under the (positive) weights; with no
    weights given, unit weights are tried and a ValueError is raised if
    the generators are not homogeneous for them.
    """
    block = ideal.block
    pairs = [g.as_pair() for g in ideal.generators]
    if weights is None:
        weights = (1,) * block.size
    weights = tuple(int(w) for w in weights)
    assert all(w > 0 for w in weights)
    if not _is_homogeneous(pairs, weights):
        raise ValueError(
            "saturation needs positive weights making every generator "
            "homogeneous")
    if variables is None:
        idx = None
    else:
        idx = [block.index(nm) for nm in variables]
    sat = _saturate_raw(pairs, weights, idx)
    order = MonomialOrder.degrevlex(weights)
    key = order.key_function()
    if idx is None:
        # The last sweep ran under this order and left a Groebner basis.
        final = _interreduce(sat, key)
    else:
        final = _buchberger(sat, key)
    return BinomialIdeal.from_basis(block, order, final)


def embed(b: Binomial, target_block: VariableBlock, offset: int) -> Binomial:
    """Return b rewritten over a larger block containing its block at offset."""
    size = b.block.size
    assert 0 <= offset and offset + size <= target_block.size
    assert target_block.names[offset:offset + size] == b.block.names
    head, pad = (0,) * offset, (0,) * (target_block.size - offset - size)
    return Binomial.from_pair(target_block,
                              tuple(head + m + pad for m in b.as_pair()))


def binomial_from_vector(block: VariableBlock, v) -> Binomial:
    """Return x^(v+) - x^(v-) for an integer vector v."""
    v = tuple(int(x) for x in v)
    assert len(v) == block.size
    if all(x == 0 for x in v):
        raise ValueError("the zero vector gives the zero binomial")
    plus = tuple(x if x > 0 else 0 for x in v)
    minus = tuple(-x if x < 0 else 0 for x in v)
    return Binomial.from_pair(block, (plus, minus))

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
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
        return cls(Monomial(block, plus), Monomial(block, minus))

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

    ``weighted-degrevlex`` compares weighted degrees first and breaks
    ties reverse lexicographically; ``cheapest`` picks which variable is
    smallest (by default the last one).
    """

    kind: str
    weights: tuple[int, ...]
    cheapest: int | None = None

    def __post_init__(self) -> None:
        assert self.kind == "weighted-degrevlex"
        assert len(self.weights) > 0
        assert all(isinstance(w, int) and w > 0 for w in self.weights)
        assert self.cheapest is None or 0 <= self.cheapest < len(self.weights)

    @classmethod
    def degrevlex(cls, weights, cheapest: int | None = None) -> "MonomialOrder":
        return cls("weighted-degrevlex", tuple(int(w) for w in weights),
                   cheapest=cheapest)

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

        def key(m, _w=w, _tail=tail):
            out = [sum(a * b for a, b in zip(_w, m))]
            for i in _tail:
                out.append(-m[i])
            return tuple(out)

        return key


# ---------------------------------------------------------------------------
# raw engine


def _divides(d: Exponents, m: Exponents) -> bool:
    return all(a <= b for a, b in zip(d, m))


def _lcm(a: Exponents, b: Exponents) -> Exponents:
    return tuple(max(x, y) for x, y in zip(a, b))


def _coprime(a: Exponents, b: Exponents) -> bool:
    return all(min(x, y) == 0 for x, y in zip(a, b))


def _orient(pair: RawBinomial, key) -> RawBinomial | None:
    u, v = pair
    if u == v:
        return None
    return (u, v) if key(u) > key(v) else (v, u)


def _spoly(f: RawBinomial, g: RawBinomial) -> RawBinomial | None:
    (u1, v1), (u2, v2) = f, g
    big = _lcm(u1, u2)
    a = tuple(x + y - z for x, y, z in zip(v1, big, u1))
    b = tuple(x + y - z for x, y, z in zip(v2, big, u2))
    if a == b:
        return None
    return (a, b)


def _nf_mono(m: Exponents, basis, key) -> Exponents:
    """Reduce the monomial m by the leading terms of basis until stable."""
    changed = True
    while changed:
        changed = False
        for lu, lv in basis:
            if _divides(lu, m):
                m = tuple(a - b + c for a, b, c in zip(m, lu, lv))
                changed = True
                break
    return m


def _reduce_pair(pair: RawBinomial, basis, key) -> RawBinomial | None:
    u = _nf_mono(pair[0], basis, key)
    v = _nf_mono(pair[1], basis, key)
    if u == v:
        return None
    return _orient((u, v), key)


def _gm_update(basis, pairs, t: int, key) -> None:
    """Add the pairs for the new element basis[t], pruned Gebauer-Moeller style.

    ``pairs`` holds live critical pairs as (lcm key, i, j) with i < j;
    it is filtered and extended in place.
    """
    leads = [g[0] for g in basis]
    lt = leads[t]
    lcms = [_lcm(leads[i], lt) for i in range(t)]
    # drop old pairs whose S-polynomial the new element now takes care of
    survivors = []
    for entry in pairs:
        _, i, j = entry
        lij = _lcm(leads[i], leads[j])
        if _divides(lt, lij) and lcms[i] != lij and lcms[j] != lij:
            continue
        survivors.append(entry)
    # among the new pairs keep only minimal lcms, one per value, and
    # finally discard those with coprime leading terms
    chosen: list[int] = []
    for i in sorted(range(t), key=lambda i: (key(lcms[i]), i)):
        if _coprime(leads[i], lt):
            chosen.append(i)
            continue
        if any(_divides(lcms[j], lcms[i]) for j in chosen):
            continue
        chosen.append(i)
    for i in chosen:
        if not _coprime(leads[i], lt):
            survivors.append((key(lcms[i]), i, t))
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
        _, i, j = entry
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
        v2 = _nf_mono(v, minimal, key)
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

    Needs every pair homogeneous under the positive weights.  One sweep:
    for each variable, take a Groebner basis under the degree reverse
    lexicographic order that makes it the cheapest variable, then strip
    the common power of that variable from every element.
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
    return tuple(Binomial(Monomial(block, u), Monomial(block, v))
                 for u, v in gb)


def normal_form(f, basis, order: MonomialOrder):
    """Return the normal form of f modulo a Groebner basis, None if zero.

    f may be a Binomial or a Monomial; a monomial always has a nonzero
    (monomial) normal form.
    """
    raw = [g.as_pair() for g in basis]
    key = order.key_function()
    if isinstance(f, Monomial):
        return Monomial(f.block, _nf_mono(f.exponents, raw, key))
    assert isinstance(f, Binomial)
    r = _reduce_pair(f.as_pair(), raw, key)
    if r is None:
        return None
    block = f.block
    return Binomial(Monomial(block, r[0]), Monomial(block, r[1]))


@dataclass(frozen=True)
class BinomialIdeal:
    """An ideal given by binomial generators, with cached Groebner bases."""

    block: VariableBlock
    generators: tuple[Binomial, ...]
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self) -> None:
        assert all(isinstance(g, Binomial) and g.block == self.block
                   for g in self.generators)
        canon = tuple(sorted(set(self.generators), key=_canonical_key))
        object.__setattr__(self, "generators", canon)

    def groebner(self, order: MonomialOrder) -> tuple[Binomial, ...]:
        """Return the reduced Groebner basis under the given order."""
        assert len(order.weights) == self.block.size
        cached = self._cache.get(order)
        if cached is None:
            key = order.key_function()
            gb = _buchberger([g.as_pair() for g in self.generators], key)
            cached = tuple(Binomial(Monomial(self.block, u),
                                    Monomial(self.block, v)) for u, v in gb)
            self._cache[order] = cached
        return cached

    def contains(self, f: Binomial, weights=None) -> bool:
        """Return whether the binomial f lies in the ideal."""
        order = _default_order(self.block, weights)
        return normal_form(f, self.groebner(order), order) is None


def _default_order(block: VariableBlock, weights) -> MonomialOrder:
    if weights is None:
        weights = (1,) * block.size
    return MonomialOrder.degrevlex(tuple(int(w) for w in weights))


def ideal_equal(a: BinomialIdeal, b: BinomialIdeal, weights=None) -> bool:
    """Return whether two binomial ideals over the same block are equal.

    Decided by comparing reduced Groebner bases under one shared order,
    which are unique per ideal.
    """
    assert a.block == b.block
    order = _default_order(a.block, weights)
    return a.groebner(order) == b.groebner(order)


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
    final = _buchberger(sat, MonomialOrder.degrevlex(weights).key_function())
    return BinomialIdeal(block, tuple(
        Binomial(Monomial(block, u), Monomial(block, v)) for u, v in final))


def embed(b: Binomial, target_block: VariableBlock, offset: int) -> Binomial:
    """Return b rewritten over a larger block containing its block at offset."""
    size = b.block.size
    assert 0 <= offset and offset + size <= target_block.size
    assert target_block.names[offset:offset + size] == b.block.names

    def lift(m: Monomial) -> Monomial:
        pad = (0,) * (target_block.size - offset - size)
        return Monomial(target_block, (0,) * offset + m.exponents + pad)

    return Binomial(lift(b.plus), lift(b.minus))


def binomial_from_vector(block: VariableBlock, v) -> Binomial:
    """Return x^(v+) - x^(v-) for an integer vector v."""
    v = tuple(int(x) for x in v)
    assert len(v) == block.size
    if all(x == 0 for x in v):
        raise ValueError("the zero vector gives the zero binomial")
    plus = tuple(x if x > 0 else 0 for x in v)
    minus = tuple(-x if x < 0 else 0 for x in v)
    return Binomial(Monomial(block, plus), Monomial(block, minus))

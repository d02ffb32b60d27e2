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

The Groebner machinery never cancels a common monomial factor: dividing
an element by a variable can change the ideal, so cancellation is
reserved for the saturation loop, where it is exactly the point.  The
public ``Binomial.make`` constructor does cancel common factors, which
is the right behaviour at input boundaries; building a ``Binomial``
directly keeps the exponents as given.

Within one run under one order each monomial is one packed int, as in
Monagan and Pearce, "Polynomial division using dynamic arrays, heaps,
and packed exponent vectors" (CASC 2007).  P(m) holds wdeg(m) in its
top field and one W-bit field per exponent below it: the order's
cheapest variable most significant, then the rest in its reverse
lexicographic tie order.  P is linear, so a reduction step adds
P(tail) - P(lead), stored once per basis element, and an S-polynomial
side is P(lcm) plus that step.  With G the top (guard) bit of every
field, lead | m exactly when ((P(m) | G) - P(lead)) & G == G: no borrow
crosses a guard bit.  The int P - 2 (P & mask) orders monomials exactly
as ``MonomialOrder.key_function`` does and is injective, so pair
selection, reductions and reduced bases are those of the tuple engine
it replaced.  An lcm is a fieldwise max through the guard bits, its
weighted degree the middle field of its product with the reversed
weights; two leads are coprime exactly when their lcm is their sum.

Nothing wraps.  Weights are positive, so no exponent exceeds the
weighted degree, and no reduction raises that: the largest in a run is
the largest among its inputs and its lcms.  The fields start with room
for 4 times the inputs' largest degree; an explicit test (not an
assert) checks each new lcm against that limit, and a run that would
pass it restarts, wider.  ``_buchberger``, ``_interreduce`` and
``_saturate_raw`` still take and return raw tuples of exponent pairs.

Buchberger's algorithm keeps its live critical pairs as packed records
``(lcm key, i, j, lcm)``: basis indices i < j, the lcm of their leading
terms, and that lcm's order key.  ``(lcm key, i, j)`` is unique, so the
smallest record is the next pair to process and the lcm itself is never
compared; it is stored so that the Gebauer-Moeller update reads it
instead of recomputing it for every surviving pair.

A ``BinomialIdeal`` keeps one cache, order to raw reduced basis, and
builds ``Binomial`` values only when ``groebner`` is read; ``contains``
packs a held basis once, and again only for a monomial past its limit.
Membership and equality take no order: any Groebner basis reduces
exactly the members to zero, and each order gives one reduced basis per
ideal.  So ``contains`` and ``ideal_equal`` use the first basis already
held, and only an ideal that holds none computes one, under unit
weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter, mul, neg

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
        e = self.exponents
        assert len(e) == self.block.size
        # a list comprehension, not all() over a generator: no call per item
        assert not [x for x in e if not isinstance(x, int) or x < 0]

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

    def _tie_order(self) -> tuple[int, ...]:
        """Return the variables as reverse lexicographic ties read them."""
        p, j = len(self.weights), self.cheapest
        rest = tuple(i for i in range(p - 1, -1, -1) if i != j)
        return rest if j is None else (j,) + rest

    def key_function(self):
        """Return a function mapping exponents to a sortable key.

        Larger key means larger monomial; the key is injective, so equal
        keys mean equal monomials.  The function's ``order`` attribute is
        this order.
        """
        w = self.weights
        tail = self._tie_order()
        # itemgetter of one index returns the item, not a 1-tuple
        pick = itemgetter(*tail) if len(w) > 1 else (lambda m: (m[0],))

        def key(m, _w=w, _pick=pick):
            return (sum(map(mul, _w, m)), *map(neg, _pick(m)))

        key.order = self
        return key


# ---------------------------------------------------------------------------
# raw engine


def _coprime(a: Exponents, b: Exponents) -> bool:
    # exponents are nonnegative, so a zero minimum means one side is zero
    return not any(map(min, a, b))


class _Packing:
    """Exponent vectors packed into ints for one order at one field width.

    P(m) holds wdeg(m) above one ``width``-bit field per variable, in the
    order's tie order from the most significant field down.  A monomial
    of weighted degree at most ``limit`` leaves each field's top bit, its
    guard bit, clear.
    """

    def __init__(self, order: MonomialOrder, width: int):
        w, self.order, self.width = order.weights, order, width
        self.top = top = len(w) * width
        self.mask, self.field = (1 << top) - 1, (1 << width) - 1
        # mask // field has a one at the bottom of every field
        self.guard = self.mask // self.field << (width - 1)
        shifts, units, rev = [0] * len(w), [0] * len(w), 0
        # the last variable the ties read gets the least significant field
        for i, s in zip(reversed(order._tie_order()), range(0, top, width)):
            shifts[i] = s
            units[i] = (w[i] << top) + (1 << s)
            # the weights reversed: E * rev holds wdeg in the field below top
            rev += w[i] << (top - width - s)
        self.shifts, self.units, self.rev = shifts, units, rev
        # Exponents stay below 2^(W-1).  An lcm of two monomials within
        # the limit has degree at most 2 limit, so every field of its
        # product with rev is at most 2 limit max(w) < 2^W: no carry.
        self.limit = self.field // (2 * max(w))

    def pack(self, m: Exponents) -> int:
        return sum(map(mul, m, self.units))

    def unpack(self, x: int) -> Exponents:
        field = self.field
        return tuple([(x >> s) & field for s in self.shifts])

    def key(self, x: int) -> int:
        """Return the order key: weighted degree, then the fields negated."""
        return x - ((x & self.mask) << 1)


def _widening(order: MonomialOrder, pairs, run):
    """Return (packing, run(packing)), widening while run returns None.

    The first packing has room for 4 times the raw pairs' largest degree.
    """
    w = order.weights
    degree = max((sum(map(mul, w, m)) for pr in pairs for m in pr),
                 default=0) or 1
    width = (8 * max(w) * degree).bit_length()
    while (out := run(pk := _Packing(order, width))) is None:
        width += 2
    return pk, out


def _packed(pk: _Packing, raw) -> list:
    """Return raw pairs (u, v) as packed (lead, tail - lead) elements."""
    pack = pk.pack
    return [(a := pack(u), pack(v) - a) for u, v in raw]


def _nf_mono(m: int, basis, guard: int) -> int:
    """Reduce the packed monomial m by basis until stable.

    ``basis`` holds packed (lead, tail - lead) pairs; each step uses the
    first element, in basis order, whose lead divides m.
    """
    while True:
        g = m | guard
        for lead, step in basis:
            # no borrow crosses a guard bit; each stays set iff lead <= m
            if (g - lead) & guard == guard:
                m += step
                break
        else:
            return m


def _reduce_pair(pk: _Packing, basis, a: int, b: int):
    """Return a - b reduced by basis as packed (lead, tail - lead), or None."""
    a = _nf_mono(a, basis, pk.guard)
    b = _nf_mono(b, basis, pk.guard)
    if a == b:
        return None
    return (a, b - a) if pk.key(a) > pk.key(b) else (b, a - b)


def _gm_update(pk: _Packing, basis, pairs, t: int) -> bool:
    """Add the pairs for the new element basis[t], pruned Gebauer-Moeller style.

    ``pairs`` holds live critical pairs as (lcm key, i, j, lcm) with
    i < j; it is filtered and extended in place.  Returns False, and the
    run must restart wider, when an lcm passes the packing's limit.
    """
    guard, mask, rev, limit = pk.guard, pk.mask, pk.rev, pk.limit
    top, low, field, key = pk.top, pk.width - 1, pk.field, pk.key
    lt = basis[t][0]
    lcms = []
    for lead, _ in basis[:t]:
        # fieldwise max: a guard bit survives where lead >= lt, and
        # spreads to a mask of the field below it
        ge = ((lead | guard) - lt) & guard
        e = (lt ^ ((lead ^ lt) & (ge - (ge >> low)))) & mask
        d = (e * rev >> (top - pk.width)) & field
        if d > limit:  # an explicit check, so that -O keeps it
            return False
        lcms.append((d << top) | e)
    # drop old pairs whose S-polynomial the new element now takes care of
    survivors = []
    for entry in pairs:
        _, i, j, lij = entry
        if (((lij | guard) - lt) & guard == guard and lcms[i] != lij
                and lcms[j] != lij):
            continue
        survivors.append(entry)
    # among the new pairs keep only minimal lcms, one per value, and
    # finally discard those with coprime leading terms
    chosen: list[int] = []
    for k, i in sorted([(key(lij), i) for i, lij in enumerate(lcms)]):
        lij = lcms[i]
        if lij == basis[i][0] + lt:  # coprime: the lcm is the product
            chosen.append(lij)
            continue
        g = lij | guard
        if any((g - c) & guard == guard for c in chosen):
            continue
        chosen.append(lij)
        survivors.append((k, i, t, lij))
    pairs[:] = survivors
    return True


def _buchberger(raw_gens, key) -> tuple[RawBinomial, ...]:
    """Return the reduced Groebner basis of the given raw binomials.

    ``key`` comes from ``MonomialOrder.key_function``; the run packs its
    monomials under that order.
    """
    raw_gens = list(raw_gens)

    def run(pk):
        k = pk.key
        seed = set()
        for a, b in (map(pk.pack, pr) for pr in raw_gens):
            if a != b:
                seed.add((a, b) if k(a) > k(b) else (b, a))
        basis: list = []
        pairs: list = []
        for u, v in sorted(seed, key=lambda g: (k(g[0]), k(g[1]))):
            basis.append((u, v - u))
            if not _gm_update(pk, basis, pairs, len(basis) - 1):
                return None
        return basis if _complete(pk, basis, pairs) else None

    return _reduced(*_widening(key.order, raw_gens, run))


def _complete(pk: _Packing, basis, pairs, upto: int | None = None) -> bool:
    """Process critical pairs, smallest lcm first, extending basis in place.

    With ``upto`` given, stop once every remaining pair has an lcm of
    weighted degree above it.  For a homogeneous ideal the basis is then
    a Groebner basis up to that degree: every element of the ideal of
    weighted degree at most ``upto`` reduces to zero.  Returns False when
    the run must restart wider.
    """
    # a key above upto << top is exactly a weighted degree above upto
    bound = None if upto is None else upto << pk.top
    while pairs:
        entry = min(pairs)
        if bound is not None and entry[0] > bound:
            return True
        pairs.remove(entry)
        _, i, j, lij = entry
        if basis[i][1] == basis[j][1]:
            continue
        # each side of the S-polynomial is lcm - lead + tail
        r = _reduce_pair(pk, basis, lij + basis[i][1], lij + basis[j][1])
        if r is None:
            continue
        basis.append(r)
        if not _gm_update(pk, basis, pairs, len(basis) - 1):
            return False
    return True


def _reduced(pk: _Packing, basis) -> tuple[RawBinomial, ...]:
    """Return the raw reduced Groebner basis given any packed one."""
    k, guard = pk.key, pk.guard
    minimal: list = []
    for lead, step in sorted(basis, key=lambda g: (k(g[0]), k(g[0] + g[1]))):
        g = lead | guard
        if not any((g - c) & guard == guard for c, _ in minimal):
            minimal.append((lead, step))
    reduced = []
    for lead, step in minimal:
        tail = _nf_mono(lead + step, minimal, guard)
        assert tail != lead
        reduced.append((k(lead), lead, tail))
    reduced.sort()
    return tuple((pk.unpack(u), pk.unpack(v)) for _, u, v in reduced)


def _interreduce(basis, key) -> tuple[RawBinomial, ...]:
    """Return the reduced Groebner basis given any raw one oriented by key."""
    return _reduced(*_widening(key.order, basis,
                               lambda pk: _packed(pk, basis)))


def _wdeg(m: Exponents, weights) -> int:
    return sum(map(mul, weights, m))


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


class _HeldBasis:
    """A raw reduced basis under one order, packed when first read."""

    def __init__(self, order: MonomialOrder, raw: tuple[RawBinomial, ...]):
        self.order, self.raw, self.packing = order, raw, None

    def fit(self, monomials):
        """Return the packing, the packed basis and the packed monomials.

        The basis is packed again, wider, only for a monomial past the limit.
        """
        pk = self.packing
        xs = pk and [pk.pack(m) for m in monomials]
        # P >> top is at least the weighted degree, and equal within the limit
        if not xs or max(xs) >> pk.top > pk.limit:
            pk, self.packed = _widening(self.order, (*self.raw, monomials),
                                        lambda q: _packed(q, self.raw))
            self.packing, xs = pk, [pk.pack(m) for m in monomials]
        return pk, self.packed, xs


def normal_form(f, basis, order: MonomialOrder):
    """Return the normal form of f modulo a Groebner basis, None if zero.

    f may be a Binomial or a Monomial; a monomial always has a nonzero
    (monomial) normal form.
    """
    held = _HeldBasis(order, tuple(g.as_pair() for g in basis))
    if isinstance(f, Monomial):
        pk, packed, (m,) = held.fit([f.exponents])
        return Monomial(f.block, pk.unpack(_nf_mono(m, packed, pk.guard)))
    assert isinstance(f, Binomial)
    pk, packed, (a, b) = held.fit(f.as_pair())
    r = _reduce_pair(pk, packed, a, b)
    if r is None:
        return None
    return Binomial.from_pair(f.block, (pk.unpack(r[0]),
                                        pk.unpack(r[0] + r[1])))


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
        ideal._bases[order] = _HeldBasis(order, basis)
        return ideal

    def spanned_by(self, generators) -> "BinomialIdeal":
        """Return this ideal generated by a spanning subset, bases kept."""
        return BinomialIdeal(self.block, tuple(generators),
                             _bases=dict(self._bases))

    def _basis(self, order: MonomialOrder) -> _HeldBasis:
        held = self._bases.get(order)
        if held is None:
            assert len(order.weights) == self.block.size
            held = self._bases[order] = _HeldBasis(order, _buchberger(
                [g.as_pair() for g in self.generators], order.key_function()))
        return held

    def groebner(self, order: MonomialOrder) -> tuple[Binomial, ...]:
        """Return the reduced Groebner basis under the given order."""
        return tuple(Binomial.from_pair(self.block, g)
                     for g in self._basis(order).raw)

    def contains(self, f: Binomial) -> bool:
        """Return whether the binomial f lies in the ideal.

        Both monomials of f reduce to one normal form exactly when f is a
        member, under any Groebner basis; the first one held is used.
        """
        held = next(iter(self._bases.values()), None)
        if held is None:
            held = self._basis(_unit_order(self.block))
        pk, packed, (a, b) = held.fit(f.as_pair())
        return _nf_mono(a, packed, pk.guard) == _nf_mono(b, packed, pk.guard)


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
    return a._basis(order).raw == b._basis(order).raw


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

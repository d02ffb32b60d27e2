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
pass it restarts, wider.  The packed format stays in this module: its
entry points take a ``MonomialOrder`` and raw exponent pairs.

Reduction is lazy: Buchberger's algorithm and the membership tests
only top-reduce (Becker and Weispfenning, "Groebner Bases", 1993,
ch. 5).  ``_reduce_pair`` keeps a - b with a the larger monomial and
reduces only a, by the first lead that divides it, swapping the two
when a drops below b; it stops when they meet or a is irreducible.
Each side still walks its own first-divisor chain, the one ``_nf_mono``
walks, and each chain strictly descends.  Two chains that meet share
everything from their largest common monomial on, and while both are
above it the larger one is the one reduced, so neither passes it: the
walk meets exactly when the two normal forms agree.  Otherwise it ends
at an irreducible side larger than the other, which is that side's
normal form and above the other's, so the lead is the larger normal
form, as under full reduction.  This holds for any basis, Groebner or
not.  Only the tail is left unreduced; ``_reduced`` reduces the tails
once, at the end, and reduced bases are unique per order, so every
result is that of full reduction.  The public ``normal_form`` still
reduces both monomials fully.

One driver, ``_grow``, feeds every run its seeds, by degree: it
completes the critical pairs up to a seed's weighted degree, then adds
the seed top-reduced unless it reduces to zero.  ``_buchberger`` then
completes the rest; ``_minimal_subset`` returns the kept seeds, for a
homogeneous ideal a minimal generating set.  Live critical pairs are
packed records ``(lcm key, i, j, lcm)``: basis indices i < j, the lcm
of their leading terms, and that lcm's order key.  The Gebauer-Moeller
update computes the key with the lcm: with e its exponent fields and d
its weighted degree, the lcm is (d << top) | e and its key, as
``_Packing.key`` gives it, (d << top) - e.  ``(lcm key, i, j)`` is
unique, so the smallest record is the next pair to process and the lcm
itself is never compared; it is stored so that the update reads it
instead of recomputing it for every surviving pair.  The records are
kept sorted with the smallest last: the update merges its new pairs
into the survivors with one sort, and ``_complete`` pops the next pair
off the end.  ``_reduced`` sorts the final basis once on its leads'
keys, which both finds the minimal leads and orders the result.

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

from operator import itemgetter, mul, neg

from .value import Value

Exponents = tuple[int, ...]
RawBinomial = tuple[Exponents, Exponents]


class VariableBlock(Value):
    """An ordered tuple of distinct variable names."""

    __slots__ = _fields = ("names",)

    def __init__(self, names: tuple[str, ...]) -> None:
        if not names:
            raise ValueError("a block needs at least one variable")
        if not all(isinstance(nm, str) and nm for nm in names):
            raise ValueError("names must be nonempty strings")
        if len(set(names)) != len(names):
            raise ValueError("names must be distinct")
        object.__setattr__(self, "names", names)

    @classmethod
    def prefixed(cls, prefix: str, size: int) -> "VariableBlock":
        return cls(tuple(f"{prefix}{i + 1}" for i in range(size)))

    @property
    def size(self) -> int:
        return len(self.names)

    def concat(self, other: "VariableBlock") -> "VariableBlock":
        if set(self.names) & set(other.names):
            raise ValueError("blocks share a name")
        return VariableBlock(self.names + other.names)

    def index(self, name: str) -> int:
        return self.names.index(name)


class Monomial(Value):
    """A power product of the variables of a block."""

    __slots__ = _fields = ("block", "exponents")

    def __init__(self, block: VariableBlock, exponents: Exponents) -> None:
        if len(exponents) != block.size:
            raise ValueError("one exponent per variable of the block")
        # a list comprehension, not any() over a generator: no call per item
        if [x for x in exponents if not isinstance(x, int) or x < 0]:
            raise ValueError("exponents must be nonnegative integers")
        object.__setattr__(self, "block", block)
        object.__setattr__(self, "exponents", exponents)

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


class Binomial(Value):
    """The difference plus - minus of two monomials over one block.

    The direct constructor stores the exponents exactly as given; use
    ``make`` to cancel common monomial factors first.
    """

    __slots__ = _fields = ("plus", "minus")

    def __init__(self, plus: Monomial, minus: Monomial) -> None:
        # identity first, the common case, as in _same_block
        if plus.block is not minus.block and plus.block != minus.block:
            raise ValueError("the two monomials are over different blocks")
        if plus.exponents == minus.exponents:
            raise ValueError("zero binomial")
        object.__setattr__(self, "plus", plus)
        object.__setattr__(self, "minus", minus)

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

    def __hash__(self) -> int:
        # Equal binomials have equal exponents, so these alone make a
        # hash consistent with equality, without hashing the blocks.
        return hash((self.plus.exponents, self.minus.exponents))

    def negated(self) -> "Binomial":
        return Binomial(self.minus, self.plus)

    def __str__(self) -> str:
        return f"{self.plus} - {self.minus}"


def _binomial_batch(block: VariableBlock, exps,
                    pairs) -> tuple[Binomial, ...]:
    """Return x^exps[a] - x^exps[b] over the block for each pair (a, b).

    Each monomial is built once, however many pairs it is in, and the
    constructors' checks run once over the batch, explicit so that -O
    keeps them: one exponent per variable, none negative, and no pair
    of equal monomials.
    """
    if any(len(e) != block.size for e in exps):
        raise ValueError("an exponent vector's length differs from the "
                         "block's")
    if exps and min(map(min, exps)) < 0:
        raise ValueError("exponents must be nonnegative")
    if any(exps[a] == exps[b] for a, b in pairs):
        raise ValueError("the two monomials are equal: zero binomial")
    # the slots' own setters: Value.__setattr__ refuses every write
    new_mono, new_bino = Monomial.__new__, Binomial.__new__
    set_block, set_exps = Monomial.block.__set__, Monomial.exponents.__set__
    set_plus, set_minus = Binomial.plus.__set__, Binomial.minus.__set__
    mons = []
    for e in exps:
        m = new_mono(Monomial)
        set_block(m, block)
        set_exps(m, e)
        mons.append(m)
    out = []
    for a, b in pairs:
        g = new_bino(Binomial)
        set_plus(g, mons[a])
        set_minus(g, mons[b])
        out.append(g)
    return tuple(out)


def _canonical_key(b: Binomial) -> tuple:
    u, v = b.as_pair()
    return (sum(u), u, sum(v), v)


class MonomialOrder(Value):
    """A term order given by positive weights plus reverse lexicographic ties.

    The order compares weighted degrees first and breaks ties reverse
    lexicographically; ``cheapest`` picks which variable is smallest (by
    default the last one).
    """

    __slots__ = _fields = ("weights", "cheapest")

    def __init__(self, weights: tuple[int, ...],
                 cheapest: int | None = None) -> None:
        # Explicit, so that -O keeps them: a zero weight can loop forever.
        if not weights:
            raise ValueError("an order needs at least one weight")
        if not all(isinstance(w, int) and w > 0 for w in weights):
            raise ValueError(f"weights must be positive ints, got {weights}")
        if cheapest is not None and not 0 <= cheapest < len(weights):
            raise ValueError(f"cheapest variable {cheapest} is not one of "
                             f"the {len(weights)} variables")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "cheapest", cheapest)

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
        keys mean equal monomials.
        """
        w = self.weights
        tail = self._tie_order()
        # itemgetter of one index returns the item, not a 1-tuple
        pick = itemgetter(*tail) if len(w) > 1 else (lambda m: (m[0],))

        def key(m, _w=w, _pick=pick):
            return (sum(map(mul, _w, m)), *map(neg, _pick(m)))

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
    """Return a - b top-reduced: packed (lead, tail - lead), or None if zero.

    Only the larger monomial is reduced, by the first lead that divides
    it, until the two meet (None) or the larger one is irreducible: that
    is the lead, and the other side, as far as it got, the tail.  The
    lead is the larger of the two normal forms ``_nf_mono`` gives, and
    the result is None exactly when they agree (see the module
    docstring); only ``_reduced`` reduces tails.
    """
    guard, mask = pk.guard, pk.mask
    # the order keys, as _Packing.key computes them
    ka, kb = a - ((a & mask) << 1), b - ((b & mask) << 1)
    if ka < kb:
        a, b, ka, kb = b, a, kb, ka
    while a != b:
        g = a | guard
        for lead, step in basis:
            # no borrow crosses a guard bit; each stays set iff lead <= a
            if (g - lead) & guard == guard:
                a += step
                break
        else:
            return a, b - a
        ka = a - ((a & mask) << 1)
        if ka < kb:
            a, b, ka, kb = b, a, kb, ka
    return None


def _gm_update(pk: _Packing, basis, pairs, t: int) -> bool:
    """Add the pairs for the new element basis[t], pruned Gebauer-Moeller style.

    ``pairs`` holds live critical pairs as (lcm key, i, j, lcm) with
    i < j, sorted with the smallest record last; it is filtered and
    extended in place and stays sorted.  Returns False, and the run must
    restart wider, when an lcm passes the packing's limit.
    """
    guard, mask, rev, limit = pk.guard, pk.mask, pk.rev, pk.limit
    top, low, field = pk.top, pk.width - 1, pk.field
    shift = top - pk.width
    lt = basis[t][0]
    fields = lt & mask
    lcms, keys = [], []
    for lead, _ in basis[:t]:
        # fieldwise max: a guard bit survives where lead >= lt, and
        # spreads to a mask of the field below it, where diff holds
        # lead - lt; the other fields keep lt's
        diff = (lead | guard) - lt
        ge = diff & guard
        e = fields + (diff & (ge - (ge >> low)))
        d = (e * rev >> shift) & field
        if d > limit:  # an explicit check, so that -O keeps it
            return False
        d <<= top
        lcms.append(d | e)
        # the lcm's order key, as _Packing.key computes it from d | e
        keys.append(d - e)
    # drop old pairs whose S-polynomial the new element now takes care of
    survivors = []
    for entry in pairs:
        _, i, j, lij = entry
        if (((lij | guard) - lt) & guard == guard and lcms[i] != lij
                and lcms[j] != lij):
            continue
        survivors.append(entry)
    # among the new pairs keep only minimal lcms, one per value, and
    # finally discard those with coprime leading terms; a stable sort
    # on the keys visits them by (key, i), as the records order them
    chosen: list[int] = []
    for i in sorted(range(t), key=keys.__getitem__):
        lij = lcms[i]
        if lij == basis[i][0] + lt:  # coprime: the lcm is the product
            chosen.append(lij)
            continue
        g = lij | guard
        for c in chosen:
            if (g - c) & guard == guard:
                break
        else:
            chosen.append(lij)
            survivors.append((keys[i], i, t, lij))
    # two sorted runs, the survivors' and the new pairs': one merge
    survivors.sort(reverse=True)
    pairs[:] = survivors
    return True


def _complete(pk: _Packing, basis, pairs, upto: int | None = None) -> bool:
    """Process critical pairs, smallest lcm first, extending basis in place.

    ``pairs`` is sorted with the smallest record last, as ``_gm_update``
    keeps it, so the next pair is popped off its end.  Each S-polynomial
    is only top-reduced (``_reduce_pair``), so a new element has an
    irreducible lead but maybe a reducible tail.

    With ``upto`` given, stop once every remaining pair has an lcm of
    weighted degree above it.  For a homogeneous ideal the basis is then
    a Groebner basis up to that degree: every element of the ideal of
    weighted degree at most ``upto`` reduces to zero.  Returns False when
    the run must restart wider.
    """
    # A key above upto << top is exactly a weighted degree above upto.
    # Every lcm's degree is within the limit, so without upto no key
    # reaches the bound.
    bound = (pk.limit + 1 if upto is None else upto) << pk.top
    while pairs:
        if pairs[-1][0] > bound:
            return True
        _, i, j, lij = pairs.pop()
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


def _grow(pk: _Packing, seeds, basis, pairs) -> list[int] | None:
    """Add packed seeds (a, b), sorted by degree, to basis and pairs in place.

    Each seed is top-reduced after the pairs are completed up to a's
    weighted degree, and kept unless it reduces to zero; for a homogeneous
    ideal, exactly when it is not in the ideal of the seeds kept before
    it.  Returns the kept indices, or None to restart wider.
    """
    kept = []
    for n, (a, b) in enumerate(seeds):
        if not _complete(pk, basis, pairs, upto=a >> pk.top):
            return None
        r = _reduce_pair(pk, basis, a, b)
        if r is None:
            continue
        kept.append(n)
        basis.append(r)
        if not _gm_update(pk, basis, pairs, len(basis) - 1):
            return None
    return kept


def _buchberger(raw_gens, order: MonomialOrder) -> tuple[RawBinomial, ...]:
    """Return the reduced Groebner basis of the raw binomials under order.

    Any input: ``_grow``'s truncated completions only change the order in
    which pairs are handled, and the reduced basis is unique.
    """
    raw_gens = list(raw_gens)

    def run(pk):
        pack, mask = pk.pack, pk.mask
        keyed = set()
        for pr in raw_gens:
            a, b = map(pack, pr)
            # the order keys, as _Packing.key computes them; the larger
            # monomial leads
            ka, kb = a - ((a & mask) << 1), b - ((b & mask) << 1)
            if ka > kb:
                keyed.add((ka, kb, a, b))
            elif kb > ka:
                keyed.add((kb, ka, b, a))
        seeds = [(a, b) for _, _, a, b in sorted(keyed)]
        basis, pairs = [], []
        if _grow(pk, seeds, basis, pairs) is None:
            return None
        return basis if _complete(pk, basis, pairs) else None

    return _reduced(*_widening(order, raw_gens, run))


def _minimal_subset(raw, order: MonomialOrder) -> list[int]:
    """Return the kept indices of ``_grow`` on raw pairs sorted by degree."""
    raw = list(raw)
    return _widening(order, raw, lambda pk: _grow(
        pk, [tuple(map(pk.pack, pr)) for pr in raw], [], []))[1]


def _reduced(pk: _Packing, basis) -> tuple[RawBinomial, ...]:
    """Return the raw reduced Groebner basis given any packed one.

    One sort on the leads' order keys gives both the order in which the
    minimal leads are found, since a divisor's key is never larger, and
    the order of the result.
    """
    guard, mask, unpack = pk.guard, pk.mask, pk.unpack
    minimal = []
    # the order keys, as _Packing.key computes them; equal keys are equal
    # leads, and the tail reduced below makes either one the same element
    for _, lead, step in sorted([(lead - ((lead & mask) << 1), lead, step)
                                 for lead, step in basis]):
        g = lead | guard
        for c, _ in minimal:
            if (g - c) & guard == guard:
                break
        else:
            minimal.append((lead, step))
    reduced = []
    for lead, step in minimal:
        tail = _nf_mono(lead + step, minimal, guard)
        if tail == lead:  # an explicit check, so that -O keeps it
            raise AssertionError("a Groebner element reduced to zero")
        reduced.append((unpack(lead), unpack(tail)))
    return tuple(reduced)


def _interreduce(basis, order: MonomialOrder) -> tuple[RawBinomial, ...]:
    """Return the reduced Groebner basis given any raw one oriented by order."""
    return _reduced(*_widening(order, basis,
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
    if not _is_homogeneous(pairs, weights):  # explicit, so that -O keeps it
        raise ValueError("the generators are not homogeneous for the weights")
    p = len(weights)
    if variables is None:
        variables = range(p)
    current = list(pairs)
    for j in variables:
        order = MonomialOrder.degrevlex(weights, cheapest=j)
        stripped = []
        for u, v in _buchberger(current, order):
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
    if not gens:
        raise ValueError("cannot infer the variable block from no generators")
    block = gens[0].block
    for g in gens:
        _same_block(block, g.block)
    _same_length(order, block)
    gb = _buchberger([g.as_pair() for g in gens], order)
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


def _same_block(block: VariableBlock, other: VariableBlock) -> None:
    """Raise ValueError unless the blocks are equal: packing zips exponents."""
    # explicit, so that -O keeps it; identity first, the common case
    if block is not other and block != other:
        raise ValueError(f"blocks differ: {block.names}, {other.names}")


def _same_length(order: MonomialOrder, block: VariableBlock) -> None:
    """Raise ValueError unless the order has one weight per variable."""
    if len(order.weights) != block.size:  # explicit, so that -O keeps it
        raise ValueError("the order and the block differ in length")


def normal_form(f, basis, order: MonomialOrder):
    """Return the normal form of f modulo a Groebner basis, None if zero.

    f may be a Binomial or a Monomial; a monomial always has a nonzero
    (monomial) normal form.  f, basis and order share one block.
    """
    _same_length(order, f.block)
    for g in basis:
        _same_block(g.block, f.block)
    held = _HeldBasis(order, tuple(g.as_pair() for g in basis))
    if isinstance(f, Monomial):
        pk, packed, (m,) = held.fit([f.exponents])
        return Monomial(f.block, pk.unpack(_nf_mono(m, packed, pk.guard)))
    if not isinstance(f, Binomial):
        raise ValueError("f must be a Binomial or a Monomial")
    pk, packed, (a, b) = held.fit(f.as_pair())
    a, b = _nf_mono(a, packed, pk.guard), _nf_mono(b, packed, pk.guard)
    if a == b:
        return None
    if pk.key(a) < pk.key(b):
        a, b = b, a
    return Binomial.from_pair(f.block, (pk.unpack(a), pk.unpack(b)))


class BinomialIdeal(Value):
    """An ideal given by binomial generators, with cached Groebner bases.

    ``_bases`` maps each order to its held reduced basis; it is not a
    field, so equality, hash and repr ignore it.
    """

    _fields = ("block", "generators")
    __slots__ = (*_fields, "_bases")

    def __init__(self, block: VariableBlock, generators: tuple[Binomial, ...],
                 _bases: dict | None = None) -> None:
        if not all(isinstance(g, Binomial) for g in generators):
            raise ValueError("generators must be Binomials")
        for g in generators:
            _same_block(block, g.block)
        canon = tuple(sorted(set(generators), key=_canonical_key))
        self._store(block, canon)
        object.__setattr__(self, "_bases", {} if _bases is None else _bases)

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
            _same_length(order, self.block)
            held = self._bases[order] = _HeldBasis(order, _buchberger(
                [g.as_pair() for g in self.generators], order))
        return held

    def groebner(self, order: MonomialOrder) -> tuple[Binomial, ...]:
        """Return the reduced Groebner basis under the given order."""
        return tuple(Binomial.from_pair(self.block, g)
                     for g in self._basis(order).raw)

    def contains(self, f: Binomial) -> bool:
        """Return whether the binomial f lies in the ideal.

        Both monomials of f reduce to one normal form exactly when f is a
        member, under any Groebner basis; the first one held is used.
        While f fits the held packing it is packed against it directly.
        """
        if f.block is not self.block:  # no call in the common case
            _same_block(self.block, f.block)
        held = next(iter(self._bases.values()), None)
        if held is None:
            held = self._basis(_unit_order(self.block))
        pk = held.packing
        if pk is not None:
            a = sum(map(mul, f.plus.exponents, pk.units))
            b = sum(map(mul, f.minus.exponents, pk.units))
            # as in _HeldBasis.fit: P >> top is the weighted degree
            if max(a, b) >> pk.top <= pk.limit:
                return _reduce_pair(pk, held.packed, a, b) is None
        pk, packed, (a, b) = held.fit(f.as_pair())
        return _reduce_pair(pk, packed, a, b) is None


def _unit_order(block: VariableBlock) -> MonomialOrder:
    return MonomialOrder.degrevlex((1,) * block.size)


def ideal_equal(a: BinomialIdeal, b: BinomialIdeal) -> bool:
    """Return whether two binomial ideals over the same block are equal.

    Decided by comparing reduced Groebner bases, which are unique per
    ideal, under one shared order: the first that either ideal already
    holds, else unit weights.
    """
    _same_block(a.block, b.block)
    order = next(iter(a._bases or b._bases), None) or _unit_order(a.block)
    return a._basis(order).raw == b._basis(order).raw


def saturate(ideal: BinomialIdeal, variables=None, weights=None) -> BinomialIdeal:
    """Return the saturation of the ideal by the product of the variables.

    ``variables`` is an iterable of names, all of them by default.  The
    weights, unit weights when none are given, must be positive and the
    generators homogeneous under them; otherwise ValueError.
    """
    block = ideal.block
    pairs = [g.as_pair() for g in ideal.generators]
    if weights is None:
        weights = (1,) * block.size
    weights = tuple(int(w) for w in weights)
    if variables is None:
        idx = None
    else:
        idx = [block.index(nm) for nm in variables]
    sat = _saturate_raw(pairs, weights, idx)
    order = MonomialOrder.degrevlex(weights)
    if idx is None:
        # The last sweep ran under this order and left a Groebner basis.
        final = _interreduce(sat, order)
    else:
        final = _buchberger(sat, order)
    return BinomialIdeal.from_basis(block, order, final)


def embed(b: Binomial, target_block: VariableBlock, offset: int) -> Binomial:
    """Return b rewritten over a larger block containing its block at offset."""
    size = b.block.size
    if not (0 <= offset and offset + size <= target_block.size):
        raise ValueError("the block does not fit the target at offset")
    if target_block.names[offset:offset + size] != b.block.names:
        raise ValueError("the target does not hold the block at offset")
    head, pad = (0,) * offset, (0,) * (target_block.size - offset - size)
    return Binomial.from_pair(target_block,
                              tuple(head + m + pad for m in b.as_pair()))


def binomial_from_vector(block: VariableBlock, v) -> Binomial:
    """Return x^(v+) - x^(v-) for an integer vector v."""
    v = tuple(int(x) for x in v)
    if len(v) != block.size:
        raise ValueError("one entry per variable of the block")
    if all(x == 0 for x in v):
        raise ValueError("the zero vector gives the zero binomial")
    plus = tuple(x if x > 0 else 0 for x in v)
    minus = tuple(-x if x < 0 else 0 for x in v)
    return Binomial.from_pair(block, (plus, minus))

"""Exact integer linear algebra.

Everything here works over arbitrary-precision integers, with no
floating point.  One fraction-free Gauss-Jordan elimination, ``_bareiss``,
does every small exact solve: ``rank``, ``independent_suffix``, and
``gluing``'s meeting line and cone solutions.
The one lattice question, a saturated kernel basis of primitive vectors,
is ``kernel_lattice_basis``'s.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .value import Value

Vector = tuple[int, ...]


class ZeroVector(ValueError):
    """Raised when a nonzero vector is required."""


class IntegerMatrix(Value):
    """Immutable integer matrix stored as a tuple of rows."""

    __slots__ = _fields = ("entries",)

    def __init__(self, entries: tuple[tuple[int, ...], ...]) -> None:
        if not entries:  # explicit, so that -O keeps the checks
            raise ValueError("matrix needs at least one row")
        width = len(entries[0])
        if not width:
            raise ValueError("matrix needs at least one column")
        if any(len(row) != width for row in entries):
            raise ValueError("ragged rows")
        if not all(isinstance(x, int) for row in entries for x in row):
            raise ValueError("entries must be ints")
        object.__setattr__(self, "entries", entries)

    @classmethod
    def from_rows(cls, rows) -> "IntegerMatrix":
        return cls(tuple(tuple(int(x) for x in row) for row in rows))

    @classmethod
    def from_columns(cls, columns) -> "IntegerMatrix":
        cols = tuple(tuple(int(x) for x in col) for col in columns)
        if not cols:
            raise ValueError("matrix needs at least one column")
        if len({len(c) for c in cols}) > 1:
            raise ValueError("columns must all have the same length")
        return cls(tuple(zip(*cols)))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    def column(self, j: int) -> Vector:
        return tuple(row[j] for row in self.entries)

    def columns(self) -> tuple[Vector, ...]:
        return tuple(zip(*self.entries))

    def transpose(self) -> "IntegerMatrix":
        return IntegerMatrix(tuple(zip(*self.entries)))

    def matvec(self, v) -> Vector:
        if len(v) != self.cols:
            raise ValueError(f"the vector needs {self.cols} entries, "
                             f"got {len(v)}")
        return tuple(sum(a * x for a, x in zip(row, v)) for row in self.entries)

    def hstack(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.rows != other.rows:
            raise ValueError("stacked matrices need equal row counts")
        return IntegerMatrix(
            tuple(r + s for r, s in zip(self.entries, other.entries))
        )

    def scaled(self, k: int) -> "IntegerMatrix":
        if k == 0:
            raise ValueError("the scale must be nonzero")
        return IntegerMatrix(tuple(tuple(k * x for x in row) for row in self.entries))


def _bareiss(rows) -> tuple[list[list[int]], list[int]]:
    """Return the fraction-free reduced rows of a matrix and their pivots.

    Gauss-Jordan with Bareiss steps (Math. Comp. 22, 1968): each step
    clears the pivot column in every other row and divides exactly by
    the previous pivot, so entries stay minors of the input.  Row i is
    zero on every pivot column but pivots[i], where each row holds the
    same nonzero d; divided by d, the rows are the reduced row echelon
    form.  Zero rows are dropped.
    """
    a = [list(row) for row in rows]
    pivots: list[int] = []
    prev = 1
    for c in range(len(a[0]) if a else 0):
        r = len(pivots)
        p = next((i for i in range(r, len(a)) if a[i][c]), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        top = a[r]
        piv = top[c]
        for i, row in enumerate(a):
            if i != r:
                f = row[c]
                a[i] = [(piv * x - f * y) // prev for x, y in zip(row, top)]
        prev = piv
        pivots.append(c)
        if len(pivots) == len(a):
            break
    return a[:len(pivots)], pivots


def rank(m: IntegerMatrix) -> int:
    """Return the rank of m, its pivot count under ``_bareiss``."""
    return len(_bareiss(m.entries)[1])


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, s, t) with s*a + t*b == g == gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _round_half_even(num: int, den: int) -> int:
    """Return num / den rounded to the nearest int, ties to even; den > 0."""
    q, r = divmod(num, den)
    # num / den = q + r / den with 0 <= r < den
    if 2 * r > den or (2 * r == den and q % 2):
        q += 1
    return q


def _size_reduce(vectors: list[list[int]]) -> list[list[int]]:
    """Shorten a lattice basis by subtracting integer multiples in place.

    Elementary operations only, so the spanned lattice is unchanged;
    each accepted step strictly decreases a norm, so this terminates.
    """
    n = len(vectors)
    norms = [sum(x * x for x in v) for v in vectors]
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                num = sum(a * b for a, b in zip(vectors[i], vectors[j]))
                # num / norm within [-1/2, 1/2] rounds to 0 (half to even).
                if 2 * abs(num) <= norms[j]:
                    continue
                q = _round_half_even(num, norms[j])
                shorter = [a - q * b for a, b in zip(vectors[i], vectors[j])]
                norm = sum(x * x for x in shorter)
                if norm < norms[i]:
                    vectors[i], norms[i] = shorter, norm
                    changed = True
    return vectors


def kernel_lattice_basis(m: IntegerMatrix) -> tuple[Vector, ...]:
    """Return a basis of the lattice {v in Z^cols : m v = 0}.

    The result is the full integer kernel (saturated: any integer vector
    killed by m is an integer combination of the basis), each basis
    vector primitive with its first nonzero coordinate positive, sorted.
    Works by unimodular row reduction of the block matrix [m^T | I]:
    rows whose left half has been cleared to zero carry, in their right
    half, exactly the kernel relations among the columns of m.  The raw
    basis is then size reduced to keep the entries small.
    """
    p = m.cols
    n = m.rows
    # work rows: [ column_j(m) | e_j ]  for j = 0..p-1
    work = [list(m.column(j)) + [int(i == j) for i in range(p)] for j in range(p)]
    r = 0
    for c in range(n):
        # clear column c below row r using gcd row operations
        pivot = None
        for i in range(r, p):
            if work[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        for i in range(r + 1, p):
            if work[i][c] == 0:
                continue
            g, s, t = _xgcd(work[r][c], work[i][c])
            qr, qi = work[r][c] // g, work[i][c] // g
            new_r = [s * x + t * y for x, y in zip(work[r], work[i])]
            new_i = [qr * y - qi * x for x, y in zip(work[r], work[i])]
            work[r], work[i] = new_r, new_i
        r += 1
        if r == p:
            break
    # Rows above r keep a nonzero pivot, so the kernel has p - r rows.
    if any(x for i in range(r, p) for x in work[i][:n]):  # explicit, for -O
        raise AssertionError("a kernel row kept a nonzero entry")
    raw = [work[i][n:] for i in range(r, p)]
    if len(raw) > 1:
        raw = _size_reduce(raw)
    return tuple(sorted(primitive(tuple(v)) for v in raw))


class IndependentSuffix(NamedTuple):
    """The longest suffix of linearly independent columns, with an inverse.

    Columns ``start`` to the last are linearly independent, and column
    ``start - 1``, if there is one, lies in their rational span.  On the
    selected ``rows`` the suffix is an invertible square matrix T_R, and
    ``inverse`` is denominator * T_R^-1 with the smallest positive
    denominator that makes it integral.
    """

    start: int
    rows: tuple[int, ...]
    inverse: tuple[tuple[int, ...], ...]
    denominator: int


def independent_suffix(m: IntegerMatrix) -> IndependentSuffix:
    """Return the longest independent suffix of m's columns and its inverse.

    ``_bareiss`` takes pivots column by column.  On m's rows reversed,
    the suffix is its run of leading pivots 0, 1, ...; on the suffix's
    columns as rows, the pivots are the rows R of an invertible square
    block T_R, each row independent of those above it.  A third run
    inverts T_R.
    """
    _, pivots = _bareiss([row[::-1] for row in m.entries])
    start = m.cols - next((c for c, q in enumerate(pivots) if q != c),
                          len(pivots))
    cols = m.columns()
    rows = tuple(_bareiss(cols[start:])[1])
    r = len(rows)
    # Gauss-Jordan on [T_R | I] leaves [d I | d T_R^-1].
    reduced, _ = _bareiss([[cols[start + k][i] for k in range(r)]
                           + [int(i == t) for t in rows] for i in rows])
    d = reduced[0][0] if r else 1
    g = gcd(d, *(x for row in reduced for x in row[r:]))
    g = g if d > 0 else -g
    inverse = tuple(tuple(x // g for x in row[r:]) for row in reduced)
    return IndependentSuffix(start, rows, inverse, d // g)


def primitive(v) -> Vector:
    """Return v divided by the gcd of its entries, first nonzero positive."""
    v = tuple(int(x) for x in v)
    g = 0
    for x in v:
        g = gcd(g, x)
    if g == 0:
        raise ZeroVector("cannot normalize the zero vector")
    w = tuple(x // g for x in v)
    for x in w:
        if x != 0:
            if x < 0:
                w = tuple(-y for y in w)
            break
    return w

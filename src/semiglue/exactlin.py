"""Exact integer linear algebra.

Everything here works over arbitrary-precision integers: ranks via
fraction-free (Bareiss) elimination, kernels of integer matrices as
saturated lattices with primitive basis vectors, and the longest
independent suffix of a matrix's columns with an integer inverse over a
common denominator.  No floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import NamedTuple

Vector = tuple[int, ...]


class ZeroVector(ValueError):
    """Raised when a nonzero vector is required."""


@dataclass(frozen=True)
class IntegerMatrix:
    """Immutable integer matrix stored as a tuple of rows."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        assert len(self.entries) > 0, "matrix needs at least one row"
        width = len(self.entries[0])
        assert width > 0, "matrix needs at least one column"
        assert all(len(row) == width for row in self.entries), "ragged rows"
        assert all(
            isinstance(x, int) for row in self.entries for x in row
        ), "entries must be ints"

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
        assert self.rows == other.rows
        return IntegerMatrix(
            tuple(r + s for r, s in zip(self.entries, other.entries))
        )

    def scaled(self, k: int) -> "IntegerMatrix":
        assert k != 0
        return IntegerMatrix(tuple(tuple(k * x for x in row) for row in self.entries))

    def restrict_rows(self, keep) -> "IntegerMatrix":
        keep = tuple(keep)
        assert keep, "must keep at least one row"
        return IntegerMatrix(tuple(self.entries[i] for i in keep))


def rank(m: IntegerMatrix) -> int:
    """Return the rank of m, computed fraction-free."""
    a = [list(row) for row in m.entries]
    nrows, ncols = m.rows, m.cols
    r = 0
    prev = 1
    for pc in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if a[i][pc] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        piv = a[r][pc]
        for i in range(r + 1, nrows):
            for j in range(pc + 1, ncols):
                a[i][j] = (a[i][j] * piv - a[i][pc] * a[r][j]) // prev
            a[i][pc] = 0
        prev = piv
        r += 1
        if r == nrows:
            break
    return r


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
                q = round(Fraction(num, norms[j]))
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
    assert all(x == 0 for i in range(r, p) for x in work[i][:n])
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

    Reduces the columns from the last one backwards against an echelon
    basis, so the suffix's pivot rows come out of the same pass; the
    echelon vectors vanish on each other's pivots, so those rows carry
    an invertible square block.
    """
    cols = m.columns()
    echelon: list[tuple[int, list[Fraction]]] = []
    start = 0
    for j in range(len(cols) - 1, -1, -1):
        w = [Fraction(x) for x in cols[j]]
        for piv, e in echelon:
            if w[piv]:
                f = w[piv] / e[piv]
                w = [a - f * b for a, b in zip(w, e)]
        piv = next((i for i, x in enumerate(w) if x), None)
        if piv is None:
            start = j + 1
            break
        echelon.append((piv, w))
    rows = tuple(sorted(piv for piv, _ in echelon))
    r = len(rows)
    # Gauss-Jordan on [T_R | I].
    work = [[Fraction(cols[start + k][i]) for k in range(r)]
            + [Fraction(int(i == t)) for t in rows] for i in rows]
    for c in range(r):
        pivot = next(i for i in range(c, r) if work[i][c])
        work[c], work[pivot] = work[pivot], work[c]
        lead = work[c][c]
        work[c] = [x / lead for x in work[c]]
        for i in range(r):
            if i != c and work[i][c]:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[c])]
    inv = [row[r:] for row in work]
    den = 1
    for row in inv:
        for x in row:
            den = den * x.denominator // gcd(den, x.denominator)
    inverse = tuple(tuple(int(x * den) for x in row) for row in inv)
    return IndependentSuffix(start, rows, inverse, den)


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

"""Small exact linear algebra helpers over the rationals.

Everything here works on plain Python lists/tuples of Fraction (or int),
or on sparse dicts in RowSpan, and never touches floating point.
Matrices are small throughout the package, so simple Gaussian
elimination with exact pivots is the right tool; determinants of
integer matrices use fraction-free Bareiss elimination.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Tuple

from .errors import InternalInvariantError


def primitivize(v) -> Tuple[int, ...]:
    """The primitive integer vector on the ray of a nonzero vector with
    integer or Fraction entries."""
    den = lcm(*(x.denominator for x in v))
    ints = [int(x * den) for x in v]
    g = gcd(*ints)
    if g == 0:
        raise InternalInvariantError("zero vector has no primitive form")
    return tuple(x // g for x in ints)


def _as_fraction_rows(rows):
    return [[Fraction(x) for x in row] for row in rows]


def rref(rows):
    """Reduced row echelon form.  Returns (rref_rows, pivot_columns)."""
    m = _as_fraction_rows(rows)
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(m)):
            if m[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def rank(rows) -> int:
    return len(rref(rows)[1])


def nullspace(rows):
    """Basis of the right kernel of the matrix, deterministic order.

    Each basis vector carries 1 at one free column and the forced pivot
    entries elsewhere.
    """
    if not rows:
        return []
    ncols = len(rows[0])
    red, pivots = rref(rows)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][free]
        basis.append(v)
    return basis


def solve(rows, rhs):
    """Solve A x = rhs exactly.

    Returns (status, x) where status is "unique", "many" (x is one
    particular solution) or "none" (x is None).
    """
    if not rows:
        return "many", []
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    red, pivots = rref(aug)
    ncols = len(rows[0])
    if ncols in pivots:
        return "none", None
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    status = "unique" if len(pivots) == ncols else "many"
    return status, x


def det_int(matrix) -> int:
    """Determinant of a square integer matrix, fraction-free Bareiss."""
    n = len(matrix)
    if n == 0:
        return 1
    m = [[int(x) for x in row] for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


class RowSpan:
    """Incrementally built row space over Q in sparse echelon form.

    Vectors come as lists or as dicts (index -> coefficient).  Each
    stored row is a dict keyed by index whose least index is its pivot,
    where it carries 1.
    """

    def __init__(self):
        self.rows: Dict[int, Dict[int, Fraction]] = {}   # pivot -> row

    def add(self, vec) -> bool:
        """Insert a vector; returns True when the span grew."""
        items = vec.items() if isinstance(vec, dict) else enumerate(vec)
        v = {i: Fraction(c) for i, c in items if c != 0}
        while v:
            p = min(v)
            row = self.rows.get(p)
            if row is None:
                inv = v[p]
                self.rows[p] = {i: c / inv for i, c in v.items()}
                return True
            f = v[p]
            for i, c in row.items():
                nc = v.get(i, 0) - f * c
                if nc:
                    v[i] = nc
                else:
                    v.pop(i, None)
        return False

    @property
    def dim(self) -> int:
        return len(self.rows)

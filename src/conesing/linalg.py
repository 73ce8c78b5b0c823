"""Small exact linear algebra helpers over the rationals.

Nothing here touches floating point.  Every elimination is
fraction-free over the integers.  rank, solve and the kernel
(nullspace, dense, or kernel_vectors, sparse) read one Gauss-Jordan
echelon form, and the incremental row space RowSpan keeps its own
sparse one.  Each input row is scaled to integers once.  Rows
combine as a*v - b*row and are divided by their content (fraction-free
in the manner of Bareiss 1968).  So Fractions appear only at the
boundary: in the input, and in the solution that solve returns.
Determinants of integer matrices use Bareiss elimination, which keeps
the scale factors that primitive rows drop.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Iterator, List, Tuple

from .errors import InternalInvariantError


def _integer_scaling(values) -> Tuple[List[int], int]:
    """(ints, den): the integers den * x for int or Fraction entries x,
    with den > 0 the lcm of their denominators."""
    den = lcm(*(x.denominator for x in values))
    return [x.numerator * (den // x.denominator) for x in values], den


def primitivize(v) -> Tuple[int, ...]:
    """The primitive integer vector on the ray of a nonzero vector with
    integer or Fraction entries."""
    ints, _ = _integer_scaling(v)
    g = gcd(*ints)
    if g == 0:
        raise InternalInvariantError("zero vector has no primitive form")
    return tuple(x // g for x in ints)


def _primitive(v: List[int]) -> List[int]:
    """An integer vector divided by its content (unchanged when zero)."""
    g = gcd(*v)
    return v if g <= 1 else [x // g for x in v]


def _echelon(rows) -> Tuple[List[List[int]], List[int]]:
    """(m, pivots): the reduced row echelon form of the matrix up to a
    nonzero scale per row, and its pivot columns.  Row k of m is a
    primitive integer row with a nonzero entry at pivots[k] and zeros
    at the other pivot columns; rows past the pivots are zero.  The
    elimination is fraction-free Gauss-Jordan on the rows scaled to
    integers; the reduced echelon form is unique, so the pivots are the
    same as over Q."""
    m = [_primitive(_integer_scaling(row)[0]) for row in rows]
    pivots = []
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        pivot_row = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        prow = m[r]
        a = prow[c]
        for i, row in enumerate(m):
            b = row[c]
            if i != r and b:
                g = gcd(a, b)
                m[i] = _primitive([(a // g) * x - (b // g) * y
                                   for x, y in zip(row, prow)])
        pivots.append(c)
        if r + 1 == len(m):
            break
    return m, pivots


def rank(rows) -> int:
    return len(_echelon(rows)[1])


def kernel_vectors(m, pivots, ncols: int) -> Iterator[Dict[int, int]]:
    """The right kernel basis of a matrix with ncols columns, read off
    its echelon form (m, pivots) of _echelon one vector at a time, each
    sparse: a {column: entry} dict in column order, without zeros.

    One vector per free column, in column order: the primitive integer
    positive multiple of the reduced-echelon basis vector that carries
    1 at the free column and the forced pivot entries elsewhere.
    """
    pivot_set = set(pivots)
    for free in range(ncols):
        if free in pivot_set:
            continue
        # row k is zero left of its pivot, so the rows that force an
        # entry have their pivots left of the free column, in order
        forced = [(k, pc) for k, pc in enumerate(pivots) if m[k][free]]
        # the entries -m[k][free] / m[k][pc] over a common positive
        # denominator
        den = lcm(*(m[k][pc] for k, pc in forced))
        v = {pc: -m[k][free] * den // m[k][pc] for k, pc in forced}
        v[free] = den
        g = gcd(*v.values())
        yield v if g == 1 else {i: c // g for i, c in v.items()}


def nullspace(rows) -> List[List[int]]:
    """Basis of the right kernel of the matrix, deterministic order: the
    vectors of kernel_vectors, dense."""
    if not rows:
        return []
    ncols = len(rows[0])
    return [[sparse.get(i, 0) for i in range(ncols)]
            for sparse in kernel_vectors(*_echelon(rows), ncols)]


def solve(rows, rhs):
    """Solve A x = rhs exactly.

    Returns (status, x) where status is "unique", "many" (x is the
    particular solution whose free unknowns are 0) or "none" (x is
    None).  The entries of x are Fractions.
    """
    if not rows:
        return "many", []
    ncols = len(rows[0])
    m, pivots = _echelon([[*row, b] for row, b in zip(rows, rhs)])
    if ncols in pivots:
        return "none", None
    x = [Fraction(0)] * ncols
    for row, pc in zip(m, pivots):
        x[pc] = Fraction(row[ncols], row[pc])
    return ("unique" if len(pivots) == ncols else "many"), x


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

    Vectors come as lists or as dicts (index -> coefficient), with int
    or Fraction entries.  Each stored row is a primitive integer dict
    keyed by index whose least index is its pivot, where it is positive.
    """

    def __init__(self):
        self.rows: Dict[int, Dict[int, int]] = {}   # pivot -> row

    def add(self, vec) -> bool:
        """Insert a vector; returns True when the span grew."""
        items = vec.items() if isinstance(vec, dict) else enumerate(vec)
        v = {i: c for i, c in items if c}
        v = dict(zip(v, _integer_scaling(v.values())[0]))
        while v:
            g = gcd(*v.values())
            if g != 1:
                v = {i: c // g for i, c in v.items()}
            p = min(v)
            row = self.rows.get(p)
            if row is None:
                if v[p] < 0:
                    v = {i: -c for i, c in v.items()}
                self.rows[p] = v
                return True
            # v <- a v - b row with a/b = row[p]/v[p] in lowest terms
            # clears the pivot p
            a, b = row[p], v[p]
            h = gcd(a, b)
            a, b = a // h, b // h
            if a != 1:
                v = {i: a * c for i, c in v.items()}
            get = v.get
            for i, c in row.items():
                nc = get(i, 0) - b * c
                if nc:
                    v[i] = nc
                else:
                    del v[i]
        return False

    @property
    def dim(self) -> int:
        return len(self.rows)

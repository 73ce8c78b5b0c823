"""The standard-coefficient quotient pair and its discrepancy calculus.

A couple (line, D) determines a pair (line, B) with boundary
B = sum (1 - 1/q_i) [y_i].  Log discrepancies of the cone surface are
controlled by this pair: horizontal valuations (over points of the
line) have log discrepancy exactly 1, and the central exceptional curve
has log discrepancy -u/m where m(K + B) = H + u D with H integral of
degree zero and m minimal positive; H is built in integers as its terms,
in point order.  Each point's data is read off its own term p/q of D,
in one pass over the terms.

Sign convention: m > 0, u < 0, and the returned vertex log discrepancy
is the positive number -u/m = deg(-(K+B)) / deg(D).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Tuple

from .divisors import (PINF, CurveCouple, IntegralTerms, MarkedPoint,
                       _klt_boundary_degree, denominators_lcm)
from .errors import InternalInvariantError
from .records import Record


def log_fano_quotient(
        C: CurveCouple) -> Tuple[Tuple[MarkedPoint, Fraction], ...]:
    """The boundary B of the quotient pair as its terms, in point order:
    1 - 1/q at each point of D whose coefficient has denominator q >= 2."""
    return tuple((p, Fraction(c.denominator - 1, c.denominator))
                 for p, c in C.terms if c.denominator > 1)


class VertexData(Record):
    """Minimal decomposition m(K + B) = H + u D with H integral, deg 0,
    held as its (point, int) terms in point order."""

    _fields = ("m", "u", "H")

    def __init__(self, m: int, u: int, H: IntegralTerms):
        self.__dict__.update(m=m, u=u, H=H)


def _decomposition(C: CurveCouple) -> Tuple[int, int, IntegralTerms]:
    """m, u and the nonzero terms of H in point order, in integers.

    The least m > 0 in closed form: with r = deg(K+B)/deg D = s/t in
    lowest terms, the coefficient of m(K+B) - m r D at a point p of D is
    m (b_p - r c_p) (K is integral), so m(K+B) - uD is integral with
    u = m r exactly when t and every den(b_p - r c_p) divide m.  Over the
    lcm L of the denominators, b_p - r c_p = x_p / (t L) with the integer
    x_p = (t (q_p - 1) - s a_p) L / q_p for c_p = a_p / q_p.  H is then
    checked to be integral and of degree zero on these numerators."""
    ratio = (_klt_boundary_degree(C) - 2) / C.degree()       # u/m, negative
    s, t = ratio.numerator, ratio.denominator
    L = denominators_lcm(C)
    tl = t * L
    xs = {p: (t * (c.denominator - 1) - s * c.numerator) * (L // c.denominator)
          for p, c in C.terms}
    m = lcm(t, *(tl // gcd(x, tl) for x in xs.values()))
    u = m * s // t
    # K is the fixed divisor -2 [inf], and B lives on the points of D,
    # which are in point order: [inf] follows the finite points
    points = list(xs)
    if PINF not in xs:
        points.insert(sum(p.kind == "fin" for p in points), PINF)
    H = []
    for p in points:
        k = -2 * m if p == PINF else 0
        h, rest = divmod(m * xs.get(p, 0), tl)
        if rest:
            val = Fraction(m * xs[p], tl) + k
            raise InternalInvariantError(f"coefficient {val} at {p}")
        if h + k:
            H.append((p, h + k))
    if sum(h for _, h in H) != 0:
        raise InternalInvariantError(f"H has degree {sum(h for _, h in H)}")
    return m, u, tuple(H)


def vertex_decomposition(C: CurveCouple) -> VertexData:
    """The minimal decomposition m(K + B) = H + u D of _decomposition."""
    return VertexData(*_decomposition(C))


def vertex_log_discrepancy(C: CurveCouple) -> Fraction:
    return (2 - _klt_boundary_degree(C)) / C.degree()


def horizontal_log_discrepancies(
        C: CurveCouple) -> Tuple[Tuple[MarkedPoint, Fraction], ...]:
    """(point, log discrepancy of the invariant curve over it) for each
    term of D, in term order: (Weil index) * (pair log discrepancy) =
    q (1 - b) = 1, with q the denominator of the point's own coefficient
    and b = 1 - 1/q or 0 its boundary coefficient.  The boundary is
    built once and the product is asserted, not assumed."""
    _klt_boundary_degree(C)
    boundary = dict(log_fano_quotient(C))
    zero, one = Fraction(0), Fraction(1)
    out = []
    for p, c in C.terms:
        q, b = c.denominator, boundary.get(p, zero)
        # q (1 - b) = 1 in integers: b = n/d gives q (d - n) = d
        if q * (b.denominator - b.numerator) != b.denominator:
            raise InternalInvariantError(
                f"horizontal log discrepancy {q * (1 - b)} != 1 at {p}")
        out.append((p, one))
    return tuple(out)


def cartier_index_of_kx(C: CurveCouple) -> int:
    """Least m making m K Cartier on the cone surface: the m of the
    minimal decomposition, with its certificate checked."""
    return _decomposition(C)[0]

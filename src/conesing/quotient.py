"""The standard-coefficient quotient pair and its discrepancy calculus.

A couple (line, D) determines a pair (line, B) with boundary
B = sum (1 - 1/q_i) [y_i].  Log discrepancies of the cone surface are
controlled by this pair: horizontal valuations (over points of the
line) have log discrepancy exactly 1, and the central exceptional curve
has log discrepancy -u/m where m(K + B) = H + u D with H integral of
degree zero and m minimal positive.

Sign convention: m > 0, u < 0, and the returned vertex log discrepancy
is the positive number -u/m = deg(-(K+B)) / deg(D).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Tuple

from .divisors import (PINF, CurveCouple, IntegralDivisorP1, MarkedPoint,
                       _klt_boundary_degree, denominators_lcm)
from .errors import InternalNonIntegral, PreconditionError
from .records import Record


class StandardPair(Record):
    """Boundary with standard coefficients 1 - 1/q, q >= 2, on the line."""

    _fields = ("boundary",)

    def __init__(self, boundary: Tuple[Tuple[MarkedPoint, Fraction], ...]):
        for p, b in boundary:
            # b = n/d in lowest terms has 1 - b = (d - n)/d in lowest terms
            n, d = b.numerator, b.denominator
            if not (0 <= n < d) or d - n != 1:
                raise PreconditionError(
                    f"coefficient {b} at {p} is not of the form 1 - 1/q")
            if n == 0:
                raise PreconditionError("zero coefficients are not stored")
        self.__dict__["boundary"] = boundary

    def coeff(self, pt: MarkedPoint) -> Fraction:
        for p, b in self.boundary:
            if p == pt:
                return b
        return Fraction(0)


def log_fano_quotient(C: CurveCouple) -> StandardPair:
    terms = []
    for p, c in C.divisor.terms:
        q = c.denominator
        if q >= 2:
            terms.append((p, Fraction(q - 1, q)))
    return StandardPair(tuple(terms))


def curve_log_discrepancy(P: StandardPair, pt: MarkedPoint) -> Fraction:
    return 1 - P.coeff(pt)


class VertexData(Record):
    """Minimal decomposition m(K + B) = H + u D with H integral, deg 0."""

    _fields = ("m", "u", "H")

    def __init__(self, m: int, u: int, H: IntegralDivisorP1):
        self.__dict__.update(m=m, u=u, H=H)


def _decomposition(C: CurveCouple) -> Tuple[int, int, Dict[MarkedPoint, int]]:
    """m, u and the nonzero coefficients of H, in integers.

    The least m > 0 in closed form: with r = deg(K+B)/deg D = s/t in
    lowest terms, the coefficient of m(K+B) - m r D at a point p of D is
    m (b_p - r c_p) (K is integral), so m(K+B) - uD is integral with
    u = m r exactly when t and every den(b_p - r c_p) divide m.  Over the
    lcm L of the denominators, b_p - r c_p = x_p / (t L) with the integer
    x_p = (t (q_p - 1) - s a_p) L / q_p for c_p = a_p / q_p.  H is then
    checked to be integral and of degree zero on these numerators."""
    ratio = (_klt_boundary_degree(C) - 2) / C.degree()       # u/m, negative
    s, t = ratio.numerator, ratio.denominator
    D = C.divisor
    L = denominators_lcm(D)
    tl = t * L
    xs = {p: (t * (c.denominator - 1) - s * c.numerator) * (L // c.denominator)
          for p, c in D.terms}
    m = lcm(t, *(tl // gcd(x, tl) for x in xs.values()))
    u = m * s // t
    H = {}
    # K is the fixed divisor -2 [inf], and B lives on the points of D
    for p in dict.fromkeys([*xs, PINF]):
        k = -2 * m if p == PINF else 0
        h, rest = divmod(m * xs.get(p, 0), tl)
        if rest:
            val = Fraction(m * xs[p], tl) + k
            raise InternalNonIntegral(f"coefficient {val} at {p}")
        if h + k:
            H[p] = h + k
    if sum(H.values()) != 0:
        raise InternalNonIntegral(f"H has degree {sum(H.values())}")
    return m, u, H


def vertex_decomposition(C: CurveCouple) -> VertexData:
    """The minimal decomposition m(K + B) = H + u D of _decomposition."""
    m, u, H = _decomposition(C)
    return VertexData(m=m, u=u, H=IntegralDivisorP1.of(H))


def vertex_log_discrepancy(C: CurveCouple) -> Fraction:
    return (2 - _klt_boundary_degree(C)) / C.degree()


def horizontal_log_discrepancy(C: CurveCouple, pt: MarkedPoint) -> Fraction:
    """Log discrepancy of the invariant curve over a point of the line.

    Equals (Weil index) * (pair log discrepancy) = q * (1/q) = 1 at
    stored points and 1 elsewhere; the product is asserted, not assumed.
    """
    _klt_boundary_degree(C)
    w = C.divisor.coeff(pt).denominator
    a = w * curve_log_discrepancy(log_fano_quotient(C), pt)
    if a != 1:
        raise InternalNonIntegral(f"horizontal log discrepancy {a} != 1 at {pt}")
    return a


def cartier_index_of_kx(C: CurveCouple) -> int:
    """Least m making m K Cartier on the cone surface: the m of the
    minimal decomposition, with its certificate checked."""
    return _decomposition(C)[0]

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

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Tuple

from .divisors import (CurveCouple, IntegralDivisorP1, MarkedPoint,
                       canonical_divisor_p1)
from .errors import BadEpsilon, InternalNonIntegral, NotKlt, PreconditionError


@dataclass(frozen=True)
class StandardPair:
    """Boundary with standard coefficients 1 - 1/q, q >= 2, on the line."""

    boundary: Tuple[Tuple[MarkedPoint, Fraction], ...]

    def __post_init__(self):
        for p, b in self.boundary:
            one_minus = 1 - b
            if not (0 <= b < 1) or one_minus.numerator != 1:
                raise PreconditionError(
                    f"coefficient {b} at {p} is not of the form 1 - 1/q")
            if b == 0:
                raise PreconditionError("zero coefficients are not stored")

    def coeff(self, pt: MarkedPoint) -> Fraction:
        for p, b in self.boundary:
            if p == pt:
                return b
        return Fraction(0)

    def total(self) -> Fraction:
        return sum((b for _, b in self.boundary), Fraction(0))


def log_fano_quotient(C: CurveCouple) -> StandardPair:
    terms = []
    for p, c in C.divisor.terms:
        q = c.denominator
        if q >= 2:
            terms.append((p, Fraction(q - 1, q)))
    return StandardPair(tuple(terms))


def curve_log_discrepancy(P: StandardPair, pt: MarkedPoint) -> Fraction:
    return 1 - P.coeff(pt)


def validate_epsilon(eps) -> Fraction:
    """eps as a Fraction, checked to lie in (0, 1]."""
    eps = Fraction(eps)
    if not (0 < eps <= 1):
        raise BadEpsilon(f"epsilon {eps} outside (0, 1]")
    return eps


def is_log_fano(P: StandardPair) -> bool:
    # Coefficients below 1 are automatic for standard coefficients;
    # ampleness of -(K+B) on the line is a degree condition.
    return P.total() < 2


@dataclass(frozen=True)
class VertexData:
    """Minimal decomposition m(K + B) = H + u D with H integral, deg 0."""

    m: int
    u: int
    H: IntegralDivisorP1


def _pair_degree(P: StandardPair) -> Fraction:
    return Fraction(-2) + P.total()


def _log_fano_boundary(C: CurveCouple) -> StandardPair:
    """The quotient pair of C, which must be log Fano: otherwise the cone
    is not klt."""
    B = log_fano_quotient(C)
    if not is_log_fano(B):
        raise NotKlt(f"boundary degree {B.total()} is >= 2")
    return B


def vertex_decomposition(C: CurveCouple) -> VertexData:
    """The least m > 0 in closed form: with r = deg(K+B)/deg D, the
    coefficient of m(K+B) - m r D at a point p of D is m (b_p - r c_p)
    (K is integral), so m(K+B) - uD is integral with u = m r exactly
    when den(r) and every den(b_p - r c_p) divide m."""
    B = _log_fano_boundary(C)
    D = C.divisor
    ratio = _pair_degree(B) / D.degree()          # u/m, negative
    m = lcm(ratio.denominator,
            *((B.coeff(p) - ratio * c).denominator for p, c in D.terms))
    u = int(m * ratio)
    kcan = canonical_divisor_p1()
    terms = {}
    pts = set(D.points()) | set(kcan.points()) | {p for p, _ in B.boundary}
    for p in pts:
        val = m * (kcan.coeff(p) + B.coeff(p)) - u * D.coeff(p)
        if val.denominator != 1:
            raise InternalNonIntegral(f"coefficient {val} at {p}")
        if val != 0:
            terms[p] = int(val)
    H = IntegralDivisorP1.of(terms)
    if H.degree() != 0:
        raise InternalNonIntegral(f"H has degree {H.degree()}")
    return VertexData(m=m, u=u, H=H)


def vertex_log_discrepancy(C: CurveCouple) -> Fraction:
    return -_pair_degree(_log_fano_boundary(C)) / C.degree()


def horizontal_log_discrepancy(C: CurveCouple, pt: MarkedPoint) -> Fraction:
    """Log discrepancy of the invariant curve over a point of the line.

    Equals (Weil index) * (pair log discrepancy) = q * (1/q) = 1 at
    stored points and 1 elsewhere; the product is asserted, not assumed.
    """
    B = _log_fano_boundary(C)
    w = C.divisor.coeff(pt).denominator
    a = w * curve_log_discrepancy(B, pt)
    if a != 1:
        raise InternalNonIntegral(f"horizontal log discrepancy {a} != 1 at {pt}")
    return a


def cartier_index_of_kx(C: CurveCouple) -> int:
    """Least m making m K Cartier on the cone surface: the m of the
    minimal decomposition."""
    return vertex_decomposition(C).m

"""Couples: the projective line with an ample Q-divisor, held as its terms.

A couple is the projective line together with an ample Q-divisor
D = sum (p_i/q_i) [y_i] with reduced coefficients.  The line is fixed,
so a couple is the terms of D and nothing more.  The couple encodes a
normal affine surface with an effective one-torus action through its
graded section ring; every invariant of that surface computed in this
package starts from the data held here.

Conventions pinned once and used everywhere:

* all rationals are exact (fractions.Fraction), never floats;
* coefficients are stored reduced with positive denominator, zero
  coefficients are dropped, and the terms are in point order with no
  point repeated; CurveCouple.of is the one place that merges terms;
* an integral divisor such as floor(n D) is a tuple of (point, int)
  terms in point order;
* n D is read pointwise through floors, floor(n p/q), including for
  negative coefficients;
* the canonical divisor of the line is represented by the fixed divisor
  -2 [infinity] so that derived data is reproducible bit for bit.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, count
from math import lcm
from operator import itemgetter
from typing import Iterable, Mapping, Optional, Tuple, Union

from .errors import NotAmple, NotKlt, PreconditionError
from .records import Record

Rational = Union[int, Fraction]


# ---------------------------------------------------------------------------
# points
# ---------------------------------------------------------------------------

class MarkedPoint(Record):
    """A closed point of the line: finite coordinate, infinity, or a label.

    Label points are placeholders that receive deterministic coordinates
    (0, 1, infinity, 2, 3, ... skipping used ones) before any section
    computation needs them.
    """

    _fields = ("kind", "x", "name")

    def __init__(self, kind: str, x: Optional[Fraction] = None,
                 name: Optional[str] = None):
        # kind is "fin" | "inf" | "lbl"
        if kind not in ("fin", "inf", "lbl"):
            raise PreconditionError(f"bad point kind {kind!r}")
        if kind == "fin" and type(x) is not Fraction:
            x = Fraction(x)
        if kind == "lbl" and not name:
            raise PreconditionError("label point needs a name")
        d = self.__dict__
        d["kind"] = kind
        d["x"] = x
        d["name"] = name

    def sort_key(self):
        if self.kind == "fin":
            return (0, self.x, "")
        if self.kind == "inf":
            return (1, Fraction(0), "")
        return (2, Fraction(0), self.name)

    def __repr__(self):
        if self.kind == "fin":
            return f"[{self.x}]"
        if self.kind == "inf":
            return "[inf]"
        return f"[{self.name}]"


def finite_point(x: Rational) -> MarkedPoint:
    return MarkedPoint("fin", x)


def infinity_point() -> MarkedPoint:
    return MarkedPoint("inf")


def label_point(name: str) -> MarkedPoint:
    return MarkedPoint("lbl", name=name)


P0 = finite_point(0)
P1 = finite_point(1)
PINF = infinity_point()

# an integral divisor, such as floor(n D) or H: its terms in point order
IntegralTerms = Tuple[Tuple[MarkedPoint, int], ...]


# ---------------------------------------------------------------------------
# couples
# ---------------------------------------------------------------------------

def _fraction_sum(pairs) -> Fraction:
    """The sum of the fractions a/b over (a, b) pairs, b > 0, built in
    integers over the lcm of the denominators."""
    pairs = list(pairs)
    den = lcm(*(b for _, b in pairs))
    return Fraction(sum(a * (den // b) for a, b in pairs), den)


def _merge_terms(items) -> Tuple[Tuple[MarkedPoint, Fraction], ...]:
    acc = {}
    for pt, c in items:
        if type(c) is not Fraction:
            c = Fraction(c)
        acc[pt] = acc[pt] + c if pt in acc else c
    terms = [(pt, c) for pt, c in acc.items() if c != 0]
    terms.sort(key=lambda t: t[0].sort_key())
    return tuple(terms)


class CurveCouple(Record):
    """The line together with an ample Q-divisor D, held as its terms:
    (point, reduced Fraction) pairs in point order (sort_key), with no
    repeated point and no zero coefficient.  D must have positive
    degree; a caller that knows the degree passes it instead of having
    the terms summed."""

    _fields = ("terms",)

    def __init__(self, terms: Tuple[Tuple[MarkedPoint, Fraction], ...],
                 degree: Optional[Fraction] = None):
        self.__dict__.update(terms=terms, _degree=degree)
        if self.degree().numerator <= 0:
            raise NotAmple(f"degree {self.degree()} is not positive")

    @staticmethod
    def of(data: Union[Mapping[MarkedPoint, Rational],
                       Iterable[Tuple[MarkedPoint, Rational]]]) -> "CurveCouple":
        """The couple of any terms: repeated points are summed, zero
        coefficients dropped and the points sorted."""
        items = data.items() if isinstance(data, Mapping) else data
        return CurveCouple(_merge_terms(items))

    def degree(self) -> Fraction:
        """The sum of the coefficients, computed on the first call."""
        d = self.__dict__
        deg = d.get("_degree")
        if deg is None:
            deg = d["_degree"] = _fraction_sum(
                (c.numerator, c.denominator) for _, c in self.terms)
        return deg

    def boundary_degree(self) -> Fraction:
        """Degree of the standard boundary sum (1 - 1/q_p) [p] over the
        points whose coefficient has denominator q_p >= 2, computed on
        the first call."""
        d = self.__dict__
        deg = d.get("_boundary_degree")
        if deg is None:
            deg = d["_boundary_degree"] = _fraction_sum(
                (c.denominator - 1, c.denominator) for _, c in self.terms)
        return deg


def _klt_boundary_degree(C: CurveCouple) -> Fraction:
    """deg B of the quotient pair of C, which must be log Fano: otherwise
    the cone is not klt.  The couple computes it once."""
    deg_b = C.boundary_degree()
    if deg_b.numerator >= 2 * deg_b.denominator:
        raise NotKlt(f"boundary degree {deg_b} is >= 2")
    return deg_b


# ---------------------------------------------------------------------------
# index calculus
# ---------------------------------------------------------------------------

def floor_multiple(C: CurveCouple, n: int) -> IntegralTerms:
    """The terms of floor(n D), pointwise, in point order.  Points whose
    floor vanishes are dropped."""
    if n < 0:
        raise PreconditionError(f"multiple {n} must be nonnegative")
    out = []
    for p, c in C.terms:
        f = (n * c.numerator) // c.denominator
        if f != 0:
            out.append((p, f))
    return tuple(out)


def max_isotropy(C: CurveCouple) -> int:
    """Largest isotropy order.  Over a point it is the denominator of the
    coefficient of D there: on a smooth curve the local Weil and Cartier
    indices of D coincide."""
    return max((c.denominator for _, c in C.terms), default=1)


def denominators_lcm(C: CurveCouple) -> int:
    return lcm(*(c.denominator for _, c in C.terms))


# ---------------------------------------------------------------------------
# normal form
# ---------------------------------------------------------------------------

CANONICAL_POSITIONS = (P0, P1, PINF)


class NormalForm(Record):
    _fields = ("couple", "key")

    def __init__(self, couple: CurveCouple,
                 key: Tuple[Tuple[Fraction, ...], Fraction]):
        self.__dict__.update(couple=couple, key=key)


def normal_form(C: CurveCouple) -> NormalForm:
    """Canonical representative of the couple up to line automorphisms
    and adding integral degree-zero divisors.

    Fractional parts land at 0, 1, infinity in descending order (ties by
    denominator, then numerator of the stored coefficient); the leftover
    integral degree sits at infinity when free, otherwise it is folded
    into the coefficient at 0.  More than three fractional points have
    no canonical placement and are refused with PreconditionError.  A
    couple already in normal form is returned as it is.
    """
    fracs = []
    for p, c in C.terms:
        r = c.numerator % c.denominator     # numerator of c - floor(c)
        if r:
            f = c if r == c.numerator else Fraction(r, c.denominator)
            fracs.append((f, c.denominator, c.numerator))
    # descending, ties by (denominator, numerator): the sorts are stable
    fracs.sort(key=itemgetter(1, 2))
    fracs.sort(key=itemgetter(0), reverse=True)
    frac_values = tuple(f for f, _, _ in fracs)
    deg = C.degree()
    if C.terms != _canonical_terms(frac_values, deg):
        C = canonical_couple(frac_values, deg)
    return NormalForm(couple=C, key=(frac_values, deg))


def canonical_couple(fracs, degree) -> CurveCouple:
    """The couple with the fractional coefficients `fracs` at 0, 1,
    infinity in that order and total degree `degree`: the leftover
    integral degree sits at infinity when free, otherwise it is folded
    into the coefficient at 0.  More than three fractional points have
    no canonical placement and are refused."""
    degree = degree if type(degree) is Fraction else Fraction(degree)
    # the positions are in point order already, so the terms need no
    # merge.  _canonical_terms folds the leftover degree - sum fracs into
    # them and refuses it unless integral, so they sum to exactly
    # `degree`, which the couple keeps instead of summing them again
    return CurveCouple(_canonical_terms(fracs, degree), degree)


def _canonical_terms(fracs, degree: Fraction):
    """The divisor terms of canonical_couple(fracs, degree)."""
    if len(fracs) > len(CANONICAL_POSITIONS):
        raise PreconditionError(f"{len(fracs)} fractional points have no "
                                "canonical placement (at most 3)")
    coeffs = [f if type(f) is Fraction else Fraction(f) for f in fracs]
    # the integral leftover degree - sum coeffs, over M = lcm of the
    # denominators
    dd = degree.denominator
    M = lcm(dd, *(c.denominator for c in coeffs))
    leftover, rest = divmod(degree.numerator * (M // dd) - sum(
        c.numerator * (M // c.denominator) for c in coeffs), M)
    if rest:
        raise PreconditionError("degree incompatible with fractional type")
    if leftover:
        if len(coeffs) <= 2:
            coeffs.extend([0] * (2 - len(coeffs)) + [Fraction(leftover)])
        else:
            coeffs[0] += leftover
    return tuple((p, c) for p, c in zip(CANONICAL_POSITIONS, coeffs) if c)


def assign_coordinates(C: CurveCouple) -> CurveCouple:
    """Replace label points by deterministic coordinates.

    Labels are processed in name order and receive 0, 1, infinity,
    2, 3, ... skipping coordinates already present in the divisor.
    """
    labels = sorted((p for p, _ in C.terms if p.kind == "lbl"),
                    key=lambda p: p.name)
    if not labels:
        return C
    taken = {p for p, _ in C.terms}
    free = (p for p in chain(CANONICAL_POSITIONS, map(finite_point, count(2)))
            if p not in taken)
    mapping = dict(zip(labels, free))
    return CurveCouple.of((mapping.get(p, p), c) for p, c in C.terms)

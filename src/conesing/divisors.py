"""Q-divisors on the projective line and the couples they define.

A couple is the projective line together with an ample Q-divisor
D = sum (p_i/q_i) [y_i] with reduced coefficients.  The couple encodes a
normal affine surface with an effective one-torus action through its
graded section ring; every invariant of that surface computed in this
package starts from the data held here.

Conventions pinned once and used everywhere:

* all rationals are exact (fractions.Fraction), never floats;
* coefficients are stored reduced with positive denominator, zero
  coefficients are dropped;
* n D is read pointwise through floors, floor(n p/q), including for
  negative coefficients;
* the canonical divisor of the line is represented by the fixed divisor
  -2 [infinity] so that derived data is reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, Optional, Tuple, Union

from .errors import NotAmple, PreconditionError

Rational = Union[int, Fraction]


# ---------------------------------------------------------------------------
# points
# ---------------------------------------------------------------------------

@dataclass(frozen=True, order=False)
class MarkedPoint:
    """A closed point of the line: finite coordinate, infinity, or a label.

    Label points are placeholders that receive deterministic coordinates
    (0, 1, infinity, 2, 3, ... skipping used ones) before any section
    computation needs them.
    """

    kind: str                      # "fin" | "inf" | "lbl"
    x: Optional[Fraction] = None
    name: Optional[str] = None

    def __post_init__(self):
        if self.kind not in ("fin", "inf", "lbl"):
            raise PreconditionError(f"bad point kind {self.kind!r}")
        if self.kind == "fin":
            object.__setattr__(self, "x", Fraction(self.x))
        if self.kind == "lbl" and not self.name:
            raise PreconditionError("label point needs a name")

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
    return MarkedPoint("fin", Fraction(x))


def infinity_point() -> MarkedPoint:
    return MarkedPoint("inf")


def label_point(name: str) -> MarkedPoint:
    return MarkedPoint("lbl", name=name)


P0 = finite_point(0)
P1 = finite_point(1)
PINF = infinity_point()


# ---------------------------------------------------------------------------
# divisors
# ---------------------------------------------------------------------------

def _merge_terms(items) -> Tuple[Tuple[MarkedPoint, Fraction], ...]:
    acc = {}
    for pt, c in items:
        c = Fraction(c)
        if pt in acc:
            acc[pt] += c
        else:
            acc[pt] = c
    terms = [(pt, c) for pt, c in acc.items() if c != 0]
    terms.sort(key=lambda t: t[0].sort_key())
    return tuple(terms)


@dataclass(frozen=True)
class QDivisorP1:
    """Finite formal sum of points with exact rational coefficients."""

    terms: Tuple[Tuple[MarkedPoint, Fraction], ...]

    @staticmethod
    def of(data: Union[Mapping[MarkedPoint, Rational],
                       Iterable[Tuple[MarkedPoint, Rational]]]) -> "QDivisorP1":
        items = data.items() if isinstance(data, Mapping) else data
        return QDivisorP1(_merge_terms(items))

    def coeff(self, pt: MarkedPoint) -> Fraction:
        for p, c in self.terms:
            if p == pt:
                return c
        return Fraction(0)

    def points(self) -> Tuple[MarkedPoint, ...]:
        return tuple(p for p, _ in self.terms)

    def degree(self) -> Fraction:
        return sum((c for _, c in self.terms), Fraction(0))

    def __add__(self, other: "QDivisorP1") -> "QDivisorP1":
        return QDivisorP1(_merge_terms(list(self.terms) + list(other.terms)))

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"({c}){p}" for p, c in self.terms)


@dataclass(frozen=True)
class IntegralDivisorP1:
    """Divisor with integer coefficients only."""

    terms: Tuple[Tuple[MarkedPoint, int], ...]

    @staticmethod
    def of(data) -> "IntegralDivisorP1":
        items = data.items() if isinstance(data, Mapping) else data
        merged = _merge_terms(items)
        for _, c in merged:
            if c.denominator != 1:
                raise PreconditionError(f"non-integer coefficient {c}")
        return IntegralDivisorP1(tuple((p, int(c)) for p, c in merged))

    def coeff(self, pt: MarkedPoint) -> int:
        for p, c in self.terms:
            if p == pt:
                return c
        return 0

    def points(self):
        return tuple(p for p, _ in self.terms)

    def degree(self) -> int:
        return sum(c for _, c in self.terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"({c}){p}" for p, c in self.terms)


# Fixed representative of the canonical class of the line.
def canonical_divisor_p1() -> IntegralDivisorP1:
    return IntegralDivisorP1.of({PINF: -2})


@dataclass(frozen=True)
class CurveCouple:
    """The line together with an ample Q-divisor (positive degree)."""

    divisor: QDivisorP1

    def __post_init__(self):
        if self.divisor.degree() <= 0:
            raise NotAmple(f"degree {self.divisor.degree()} is not positive")

    @staticmethod
    def of(data) -> "CurveCouple":
        return CurveCouple(QDivisorP1.of(data))

    def degree(self) -> Fraction:
        return self.divisor.degree()


# ---------------------------------------------------------------------------
# index calculus
# ---------------------------------------------------------------------------

def floor_multiple(D: QDivisorP1, n: int) -> IntegralDivisorP1:
    """Pointwise floor of n D.  Points whose floor vanishes are dropped."""
    if n < 0:
        raise PreconditionError(f"multiple {n} must be nonnegative")
    out = []
    for p, c in D.terms:
        f = (n * c.numerator) // c.denominator
        if f != 0:
            out.append((p, f))
    return IntegralDivisorP1.of(out)


def max_isotropy(C: CurveCouple) -> int:
    """Largest isotropy order.  Over a point it is the denominator of the
    coefficient of D there: on a smooth curve the local Weil and Cartier
    indices of D coincide."""
    qs = [c.denominator for _, c in C.divisor.terms]
    return max(qs, default=1)


def denominators_lcm(D: QDivisorP1) -> int:
    return lcm(*(c.denominator for _, c in D.terms))


# ---------------------------------------------------------------------------
# normal form
# ---------------------------------------------------------------------------

CANONICAL_POSITIONS = (P0, P1, PINF)


@dataclass(frozen=True)
class NormalForm:
    couple: CurveCouple
    key: Tuple[Tuple[Fraction, ...], Fraction]
    moduli: bool

    def key_string(self) -> str:
        fracs, deg = self.key
        body = ",".join(str(f) for f in fracs)
        return f"f[{body}];deg={deg}" + (";moduli" if self.moduli else "")


def _frac_part(c: Fraction) -> Fraction:
    return c - (c.numerator // c.denominator)


def normal_form(C: CurveCouple) -> NormalForm:
    """Canonical representative of the couple up to line automorphisms
    and adding integral degree-zero divisors.

    Fractional parts land at 0, 1, infinity in descending order (ties by
    denominator, then numerator of the stored coefficient); the leftover
    integral degree sits at infinity when free, otherwise it is folded
    into the coefficient at 0.  With more than three fractional points
    the positions are genuine moduli: the input is returned unchanged
    and the key is flagged.
    """
    D = C.divisor
    fracs = []
    for p, c in D.terms:
        f = _frac_part(c)
        if f != 0:
            fracs.append((f, c.denominator, c.numerator))
    fracs.sort(key=lambda t: (-t[0], t[1], t[2]))
    frac_values = tuple(f for f, _, _ in fracs)
    deg = D.degree()
    key = (frac_values, deg)

    if len(fracs) > 3:
        return NormalForm(couple=C, key=key, moduli=True)
    return NormalForm(couple=canonical_couple(frac_values, deg), key=key,
                      moduli=False)


def canonical_couple(fracs, degree) -> CurveCouple:
    """The couple with the fractional coefficients `fracs` at 0, 1,
    infinity in that order and total degree `degree`: the leftover
    integral degree sits at infinity when free, otherwise it is folded
    into the coefficient at 0.  More than three fractional points have
    no canonical placement and are refused."""
    if len(fracs) > len(CANONICAL_POSITIONS):
        raise PreconditionError(f"{len(fracs)} fractional points have no "
                                "canonical placement (at most 3)")
    leftover = Fraction(degree) - sum(fracs, Fraction(0))
    if leftover.denominator != 1:
        raise PreconditionError("degree incompatible with fractional type")
    coeffs = dict(zip(CANONICAL_POSITIONS, fracs))
    if leftover:
        target = PINF if len(fracs) <= 2 else P0
        coeffs[target] = coeffs.get(target, 0) + leftover
    return CurveCouple.of(coeffs)


def assign_coordinates(C: CurveCouple) -> CurveCouple:
    """Replace label points by deterministic coordinates.

    Labels are processed in name order and receive 0, 1, infinity,
    2, 3, ... skipping coordinates already present in the divisor.
    """
    labels = sorted((p for p in C.divisor.points() if p.kind == "lbl"),
                    key=lambda p: p.name)
    if not labels:
        return C
    used_fin = {p.x for p in C.divisor.points() if p.kind == "fin"}
    has_inf = any(p.kind == "inf" for p in C.divisor.points())

    def candidates():
        yield finite_point(0)
        yield finite_point(1)
        yield infinity_point()
        k = 2
        while True:
            yield finite_point(k)
            k += 1

    mapping = {}
    gen = candidates()
    for lbl in labels:
        while True:
            cand = next(gen)
            if cand.kind == "inf":
                if not has_inf:
                    has_inf = True
                    mapping[lbl] = cand
                    break
            elif cand.x not in used_fin:
                used_fin.add(cand.x)
                mapping[lbl] = cand
                break
    new_terms = [(mapping.get(p, p), c) for p, c in C.divisor.terms]
    return CurveCouple.of(new_terms)

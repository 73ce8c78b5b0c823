"""The Hilbert series of the graded section ring of a couple.

The Hilbert series is the rational function numerator / ((1 - T)(1 - T^L))
with L the lcm of the denominators (Pinkham 1977).  Its values
h(n) = max(0, deg floor(nD) + 1) come from integers alone: with each
coefficient a_p/b_p of D in lowest terms, deg floor(nD) is the sum of
(n a_p) // b_p.  hilbert_series reads the numerator off these values and
checks it by expanding the closed form once against them; the tests
keep h0, which sums the terms of floor(nD) that floor_multiple builds,
as the independent oracle.
Commands that need only the series load this module, not sections.
"""

from __future__ import annotations

from itertools import islice, repeat
from math import ceil
from operator import add, floordiv
from typing import List, Tuple

from .divisors import CurveCouple, denominators_lcm
from .errors import InternalInvariantError, PreconditionError
from .records import Record


# Largest lcm L of the denominators that hilbert_series and presentation
# accept; both work through a few periods, degree by degree.
PERIOD_MAX = 10**6


class HilbertData(Record):
    """The closed form numerator / ((1 - T)(1 - T^L)) of the Hilbert
    series, L = lcm of the denominators."""

    _fields = ("period", "numerator")

    def __init__(self, period: int, numerator: Tuple[int, ...]):
        self.__dict__.update(period=period, numerator=numerator)

    def expansion(self, through: int) -> List[int]:
        """Coefficients of T^0 .. T^through from the closed form."""
        L = self.period
        num = list(self.numerator[:through + 1])
        num += [0] * (through + 1 - len(num))
        # h[k] = num[k] + h[k-1] + h[k-L] - h[k-L-1], with L + 1 zeros
        # standing in for the negative degrees
        h = [0] * (L + 1)
        for k, c in enumerate(num):
            h.append(c + h[-1] + h[k + 1] - h[k])
        return h[L + 1:]

    def to_json(self) -> dict:
        return {"numerator": list(self.numerator), "L": self.period}


def _checked_period(C: CurveCouple) -> int:
    """L, refused above PERIOD_MAX: the Hilbert data and the generator
    scan take time and memory linear in L."""
    L = denominators_lcm(C)
    if L > PERIOD_MAX:
        raise PreconditionError(
            f"period L = {L} exceeds PERIOD_MAX = {PERIOD_MAX}")
    return L


def nonnegative_from(C: CurveCouple) -> int:
    """A degree n0 from which every deg floor(nD) is nonnegative:
    ceil(#terms / deg D), since each term's floor loses less than 1."""
    return ceil(len(C.terms) / C.degree())


def hilbert_values(C: CurveCouple, through: int) -> List[int]:
    """h(0) .. h(through) as max(0, sum_p (n a_p) // b_p + 1), read off
    the integer pairs (a_p, b_p) of the coefficients of D."""
    # one running column of sums, so memory stays linear in through
    sums = [1] * (through + 1)
    for _, c in C.terms:
        a, b = c.numerator, c.denominator
        na = range(0, a * (through + 1), a)  # n a for n = 0 .. through
        sums = list(map(add, sums, map(floordiv, na, repeat(b))))
    return [s if s > 0 else 0 for s in sums]


def hilbert_series(C: CurveCouple) -> HilbertData:
    """The closed form of the Hilbert series, read off hilbert_values
    through n0 + 2L + 2 (n0 = nonnegative_from(C)) and certified twice:
    the numerator must vanish past n0 + L, and its expansion must give
    back the values."""
    L = _checked_period(C)
    # After n0 every floor degree is nonnegative and h is quasi-linear.
    n0 = nonnegative_from(C)
    stop = n0 + 2 * L + 2
    values = hilbert_values(C, stop)
    # h(k) - h(k-1) - h(k-L) + h(k-L-1), with h = 0 in negative degrees
    h = [0] * (L + 1) + values
    coeffs = [a - b - c + d for a, b, c, d in
              zip(islice(h, L + 1, None), islice(h, L, None),
                  islice(h, 1, None), h)]
    # The numerator must terminate; everything past n0 + L + 1 is zero.
    tail_start = n0 + L + 1
    for k in range(tail_start, stop + 1):
        if coeffs[k] != 0:
            raise InternalInvariantError(
                f"Hilbert numerator fails to terminate at {k}")
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    data = HilbertData(period=L, numerator=tuple(coeffs))
    through = min(stop, 3 * L + n0)
    expanded = data.expansion(through)
    if expanded != values[:through + 1]:
        n = next(k for k, (a, b) in enumerate(zip(expanded, values)) if a != b)
        raise InternalInvariantError(f"series expansion mismatch at degree {n}")
    return data

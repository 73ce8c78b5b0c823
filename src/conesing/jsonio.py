"""Shared JSON schema: rationals as reduced "p/q" strings, tagged points.

Every CLI command and every module that serializes data goes through
these helpers so that the wire format stays identical everywhere.
Schema version key: "conesing/1".
"""

from __future__ import annotations

import json
from fractions import Fraction

from .divisors import (CurveCouple, IntegralDivisorP1, MarkedPoint,
                       QDivisorP1, finite_point, infinity_point, label_point)
from .errors import ParseError

SCHEMA = "conesing/1"


def fmt_q(x) -> str:
    f = Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


# Numerators and denominators of parsed rationals have at most this many
# digits.  A decimal "0.00...01" has a power of ten as its denominator,
# one digit longer than the string's digits after the point, which could
# otherwise pass the interpreter's limit on int-to-string conversion.
MAX_DIGITS = 1000
_DIGIT_LIMIT = 10 ** MAX_DIGITS


def parse_q(s) -> Fraction:
    if isinstance(s, bool):
        raise ParseError(f"bad rational {s!r} (a boolean)")
    if isinstance(s, int):
        q = Fraction(s)
    elif isinstance(s, str):
        # "1e100000" would be a 100,001-digit rational from ten bytes
        if "e" in s.lower():
            raise ParseError(f"bad rational {s!r}: exponent notation is "
                             "not accepted")
        try:
            q = Fraction(s.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational {s!r}: {exc}") from None
    else:
        raise ParseError(f"bad rational {s!r} (expected string)")
    if abs(q.numerator) >= _DIGIT_LIMIT or q.denominator >= _DIGIT_LIMIT:
        raise ParseError("bad rational: its numerator or denominator has "
                         f"more than {MAX_DIGITS} digits")
    return q


def json_int(x, what: str) -> int:
    """A JSON integer; booleans and floats are refused."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise ParseError(f"{what} {x!r} is not an integer")
    return x


def point_to_json(p: MarkedPoint) -> dict:
    if p.kind == "fin":
        return {"t": "fin", "x": fmt_q(p.x)}
    if p.kind == "inf":
        return {"t": "inf"}
    return {"t": "lbl", "name": p.name}


def point_from_json(doc) -> MarkedPoint:
    if not isinstance(doc, dict) or "t" not in doc:
        raise ParseError(f"bad point {doc!r}")
    t = doc["t"]
    if t == "fin":
        return finite_point(parse_q(doc.get("x")))
    if t == "inf":
        return infinity_point()
    if t == "lbl":
        name = doc.get("name")
        if not isinstance(name, str) or not name:
            raise ParseError(f"bad label point {doc!r}")
        return label_point(name)
    raise ParseError(f"unknown point tag {t!r}")


def divisor_to_json(D) -> list:
    return [{"point": point_to_json(p), "coeff": fmt_q(c)} for p, c in D.terms]


def divisor_from_json(doc) -> QDivisorP1:
    if not isinstance(doc, list):
        raise ParseError("divisor must be an array of {point, coeff}")
    items = []
    for entry in doc:
        if not isinstance(entry, dict) or "point" not in entry or "coeff" not in entry:
            raise ParseError(f"bad divisor term {entry!r}")
        items.append((point_from_json(entry["point"]), parse_q(entry["coeff"])))
    return QDivisorP1.of(items)


def integral_divisor_to_json(H: IntegralDivisorP1) -> list:
    return [{"point": point_to_json(p), "coeff": c} for p, c in H.terms]


def couple_from_json(doc) -> CurveCouple:
    if not isinstance(doc, dict) or "divisor" not in doc:
        raise ParseError("couple file must be an object with a 'divisor' key")
    return CurveCouple(divisor_from_json(doc["divisor"]))


def loads(text: str):
    try:
        return json.loads(text)
    except ValueError as exc:   # also an integer past the digit limit
        raise ParseError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"

"""Shared JSON schema: rationals as reduced "p/q" strings, tagged points.

Every CLI command and every module that serializes data goes through
these helpers so that the wire format stays identical everywhere.
Schema version key: "conesing/1".  A couple is written as the
"divisor" array of its terms, and an integral divisor such as H as the
array of its (point, int) terms.  Only the couple (de)serializers
import `divisors`, in their own bodies, so that a command that reads
no couple does not load it.  Writing needs only the C string escaper,
so the json package is imported only by `loads` and for floats and
subclasses, and a command that reads no JSON does not load it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import TYPE_CHECKING

try:
    from _json import encode_basestring_ascii as _encode_str
except ImportError:     # an interpreter without json's C accelerator
    from json.encoder import encode_basestring_ascii as _encode_str

from .errors import ParseError

if TYPE_CHECKING:
    from .divisors import CurveCouple, MarkedPoint

SCHEMA = "conesing/1"


def fmt_q(x) -> str:
    f = Fraction(x)
    return fmt_ratio(f.numerator, f.denominator)


def fmt_ratio(n: int, d: int) -> str:
    """fmt_q of n/d for integers n and d > 0, without a Fraction."""
    g = gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


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
    from .divisors import finite_point, infinity_point, label_point
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


def terms_to_json(terms) -> list:
    """One {point, coeff} per (point, coefficient) term: an int
    coefficient, such as those of H, stays a JSON integer, and a Fraction
    is written as a fmt_q string."""
    return [{"point": point_to_json(p),
             "coeff": c if type(c) is int else fmt_q(c)} for p, c in terms]


def couple_from_json(doc) -> CurveCouple:
    """The couple of a {"divisor": [{point, coeff}, ...]} object; its
    terms are merged by CurveCouple.of."""
    from .divisors import CurveCouple
    if not isinstance(doc, dict) or "divisor" not in doc:
        raise ParseError("couple file must be an object with a 'divisor' key")
    terms = doc["divisor"]
    if not isinstance(terms, list):
        raise ParseError("divisor must be an array of {point, coeff}")
    items = []
    for entry in terms:
        if not isinstance(entry, dict) or "point" not in entry or "coeff" not in entry:
            raise ParseError(f"bad divisor term {entry!r}")
        items.append((point_from_json(entry["point"]), parse_q(entry["coeff"])))
    return CurveCouple.of(items)


def loads(text: str):
    import json
    try:
        return json.loads(text)
    except ValueError as exc:   # also an integer past the digit limit
        raise ParseError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None


def dumps(obj) -> str:
    """json.dumps(obj, indent=2, sort_keys=True) plus a newline, written
    directly: with an indent json runs its pure-Python encoder, while
    this writer escapes strings in C and joins each integer list at once."""
    return _text(obj, "\n") + "\n"


# the text json gives each exact scalar type
_SCALARS = {str: _encode_str, int: int.__repr__,
            type(None): lambda _: "null", bool: lambda b: "true" if b else "false"}


def _text(obj, newline: str) -> str:
    """The text of obj, nested at the indent that `newline` carries;
    scalar members are written in place, without a call of their own."""
    scalar = _SCALARS.get(type(obj))
    if scalar is not None:
        return scalar(obj)
    if not isinstance(obj, (list, tuple, dict)):
        import json     # floats and str or int subclasses
        return json.dumps(obj)
    if not obj:
        return "{}" if isinstance(obj, dict) else "[]"
    inner = newline + "  "
    sep = "," + inner
    get = _SCALARS.get
    if isinstance(obj, dict):
        # json writes a non-string key as its scalar JSON text
        body = sep.join([
            _encode_str(k if isinstance(k, str) else _text(k, "")) + ": "
            + (f(v) if (f := get(type(v))) else _text(v, inner))
            for k, v in sorted(obj.items())])
        return "{" + inner + body + newline + "}"
    if all(type(x) is int for x in obj):
        body = sep.join(map(int.__repr__, obj))
    else:
        body = sep.join([f(v) if (f := get(type(v))) else _text(v, inner)
                         for v in obj])
    return "[" + inner + body + newline + "]"

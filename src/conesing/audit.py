"""Re-verification of a stored catalog: the audit command.

Every stored entry (a JSON object as read from the file) is rebuilt from
its key, fractional type and degree by the enumerator's own path,
catalog._type_member, once per type, and compared with the stored entry
as canonical JSON, field by field when they differ.  Its couple's own
star graph, resolution.build_graph, is the independent oracle of a_e0,
the mld and the link determinant (read off its chains' continuants); it
solves the couple's chains from the couple and never calls the sweep's
chain solver.  With at most two chains the graph is a line, the
resolution of a cyclic quotient, whose continuants give the embedding
dimension without the blow-down that the entry shares.  The quotient
side's minimal decomposition, quotient.cartier_index_of_kx, is the
oracle of the index of K_X; the lcm L of the couple's denominators, of
the Hilbert period; L deg D, of the Hilbert numerator's sum; and
h(n) = 1 + deg floor(nD) from the couple's terms, of the values the
numerator gives at n = 1, L and 2L + 1.  Each entry's couple is built
once (a stored couple in normal form is its own normal form), and its
graph is blown down at most once, for the oracle and the rebuilt entry
alike.

Only the audit command imports this module: enumerate and mld-set do
not compile it.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import List, Tuple

from .catalog import SearchParams, _chain_solve, _type_member
from .divisors import canonical_couple, normal_form
from .errors import NotKlt, ParseError, PreconditionError
from .hilbert import _checked_period
from .jsonio import fmt_ratio, json_int, parse_q
from .quotient import cartier_index_of_kx
from .resolution import build_graph, hj_chain_length


def _defining_data(doc) -> Tuple[str, Tuple[Tuple[int, int], ...], Fraction]:
    """Key, fractional type and degree of a stored entry, read strictly."""
    try:
        key, fractional, degree = doc["key"], doc["fractional"], doc["degree"]
    except (KeyError, TypeError):
        raise ParseError("catalog entry must be an object with key, "
                         "fractional and degree") from None
    if not isinstance(key, str):
        raise ParseError(f"catalog key {key!r} is not a string")
    if not isinstance(fractional, list) or any(
            not isinstance(pq, list) or len(pq) != 2 for pq in fractional):
        raise ParseError(f"entry {key}: fractional must be an array of "
                         "[p, q] pairs")
    what = f"entry {key}: fractional entry"
    return (key, tuple((json_int(p, what), json_int(q, what))
                       for p, q in fractional), parse_q(degree))


def _plain(value) -> bool:
    """Whether a JSON value holds no boolean and no float.  The rebuilt
    entry holds neither, so a stored entry equal to it that is plain has
    the same JSON text: true == 1 and 1.0 == 1 in Python, but not in
    JSON."""
    t = type(value)
    if t is dict:
        return all(map(_plain, value.values()))
    if t is list:
        return all(map(_plain, value))
    return t is not bool and t is not float


def _field_failures(tag: str, doc: dict, rebuilt: dict) -> List[str]:
    """One failure per field whose canonical JSON text differs, so that
    true or 1.0 is not 1."""
    stored, rebuilt = ({k: json.dumps(v, sort_keys=True) for k, v in d.items()}
                       for d in (doc, rebuilt))
    out = []
    for field in sorted(stored.keys() | rebuilt.keys()):
        if field not in stored:
            out.append(f"{tag}: stored entry has no {field}")
        elif stored[field] != rebuilt.get(field):
            out.append(f"{tag}: stored {field} {stored[field]} is wrong")
    return out


def _cyclic_embedding_dimension(G) -> int:
    """Embedding dimension of the cyclic quotient 1/n(1, a) that a star
    graph with at most two chains resolves.  Its line c_1 .. c_k (the
    first chain reversed, the centre, the second chain, as positive
    entries) has the continuants n = K(c_1 .. c_k) and
    a = K(c_2 .. c_k) mod n; the embedding dimension is 2 when n = 1,
    and otherwise the length of the dual continued fraction n/(n - a)
    plus 2 (Riemenschneider 1974)."""
    first, second = (*G.chains, (), ())[:2]
    n, a = 1, 0
    for e in (*reversed(first), G.central_self_int, *second)[::-1]:
        n, a = -e * n - a, n
    return 2 if n == 1 else hj_chain_length(n, a % n) + 2


def _hilbert_values_agree(numerator, L: int, C) -> bool:
    """Whether h(n) read off the Hilbert numerator N, the sum over
    k <= n of N_k (floor((n - k)/L) + 1), is max(0, 1 + deg floor(nD))
    from the couple's terms at n = 1, L and 2L + 1.  The k with
    floor((n - k)/L) = j are those in (n - (j + 1) L, n - j L], so the
    sum takes one slice of N per j."""
    for n in (1, L, 2 * L + 1):
        series = sum((j + 1) * sum(numerator[max(n - (j + 1) * L + 1, 0):
                                             n - j * L + 1])
                     for j in range(n // L + 1))
        floors = 1 + sum(n * c.numerator // c.denominator for _, c in C.terms)
        if series != max(floors, 0):
            return False
    return True


def audit_catalog(docs, params: SearchParams) -> dict:
    """Rebuild and check every stored entry, and re-check the necessary
    conditions of membership.
    An entry whose isotropy exceeds N is not built.  Malformed defining
    data raises ParseError, and a period lcm q_i above PERIOD_MAX raises
    PreconditionError before its type is built; everything else goes
    into the report, the JSON object that the audit command prints."""
    eps, N = params.epsilon, params.isotropy_bound
    data = [_defining_data(doc) for doc in docs]
    failures = []
    keys = set()
    try:
        for doc, (key, pairs, degree) in zip(docs, data):
            tag = f"entry {key}"
            if key in keys:
                failures.append(f"{tag}: duplicate key")
            keys.add(key)
            try:
                C, (fracs, degree) = normal_form(canonical_couple(
                    tuple(Fraction(p, q) for p, q in pairs), degree))
            except (PreconditionError, ZeroDivisionError) as exc:
                failures.append(f"{tag}: cannot rebuild couple ({exc})")
                continue
            if max((f.denominator for f in fracs), default=1) > N:
                failures.append(f"{tag}: isotropy above the bound {N}")
                continue
            try:
                G = build_graph(C)
            except NotKlt as exc:
                failures.append(f"{tag}: rebuilt couple is not klt ({exc})")
                continue
            # the Hilbert numerator takes time linear in the period
            L = _checked_period(C)
            mld, rebuilt = _type_member(fracs)(degree, G)
            # field by field only when the entries differ
            if doc != rebuilt or not _plain(doc):
                failures.extend(_field_failures(tag, doc, rebuilt))
            # the strings are canonical: equal exactly when the rationals
            # are; the numerator at T = 1 is L deg D, as h(n) ~ n deg D
            den, m = G.denominator, G.mld
            for name, agrees, oracle in (
                    ("a_e0", rebuilt["a_e0"] == fmt_ratio(
                        den + G.numerators[0], den), "the resolution oracle"),
                    ("mld", rebuilt["mld"] == fmt_ratio(
                        m.numerator, m.denominator), "the resolution oracle"),
                    ("link_determinant", rebuilt["link_determinant"]
                     == G.determinant, "the star graph"),
                    ("cartier_index_kx", rebuilt["cartier_index_kx"]
                     == cartier_index_of_kx(C), "the quotient oracle"),
                    ("hilbert_period", rebuilt["hilbert_period"] == L,
                     "the lcm of the denominators"),
                    ("hilbert_numerator", sum(rebuilt["hilbert_numerator"])
                     == L * C.degree(), "L deg D at T = 1"),
                    ("hilbert_numerator", _hilbert_values_agree(
                        rebuilt["hilbert_numerator"], L, C),
                     "h(n) at n = 1, L and 2L + 1"),
                    ("embedding_dimension", len(G.chains) > 2
                     or rebuilt["embedding_dimension"]
                     == _cyclic_embedding_dimension(G), "the cyclic quotient")):
                if not agrees:
                    failures.append(f"{tag}: {name} disagrees with {oracle}")
            if mld < eps:
                failures.append(f"{tag}: mld below epsilon")
    finally:
        _chain_solve.cache_clear()
        _type_member.cache_clear()
    return {"checked": len(docs), "failures": failures, "ok": not failures}

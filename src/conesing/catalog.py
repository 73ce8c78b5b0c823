"""Exhaustive catalog of eps-lc cone surface singularities with bounded
isotropies.

The quotient pair forces at most three fractional points (which line
automorphisms pin to 0, 1, infinity, so normal-form keys classify
couples up to isomorphism), with denominators up to the isotropy bound.
The sweep visits only the types with deg B = sum (1 - 1/q_i) < 2.  A
type's chains do not depend on the degree, which moves only the central
curve, of self-intersection -(n + r) at degree sum p_i/q_i + n with r
points (Orlik-Wagreich 1971; Pinkham 1977).  Each chain is solved once
per sweep, in integers, by hj_chain on its pair (q, p); enumerate and
audit empty the caches of chains and types when they end, by a return
or a raise.  Vertex v has log discrepancy a_v = (S_v a_e0 + X_v)/q with
a_e0 = (2 - deg B)/deg D.  So the mld, min(a_e0, min_v a_v), does not
increase with the degree: a type's members are its degrees up to a
closed-form cap, each entry is read off the type's integers and its
degree, and only a central (-1)-curve needs a blow-down.  The embedding
dimension is Artin's 1 - Z^2 (klt surface singularities are rational).
Each entry is built once, as the JSON object the catalog file holds:
rationals are fmt_q strings written from integer pairs, and the sweep
keeps only the mld as a Fraction, next to the object, to compare it
with eps.

audit (conesing.audit) rebuilds stored entries by the same path; only
the audit command loads it, and the sweep loads no couple layer.
The tests keep the per-candidate path, the unpruned generator and a
graph-side enumeration as oracles.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod
from operator import add
from typing import List, Tuple

from .errors import (BadEpsilon, CatalogMismatch, InternalInvariantError,
                     InternalNonIntegral, NotKlt, PreconditionError)
from .jsonio import fmt_q, fmt_ratio, parse_q
from .records import Record
from .resolution import _chain_continuants, blow_down, hj_chain, star_edges


def validate_epsilon(eps) -> Fraction:
    """eps as a Fraction, checked to lie in (0, 1]."""
    eps = Fraction(eps)
    if not (0 < eps <= 1):
        raise BadEpsilon(f"epsilon {eps} outside (0, 1]")
    return eps


class SearchParams(Record):
    _fields = ("epsilon", "isotropy_bound")

    def __init__(self, epsilon: Fraction, isotropy_bound: int):
        epsilon = validate_epsilon(epsilon)
        if isotropy_bound < 1:
            raise PreconditionError(f"isotropy bound {isotropy_bound} < 1")
        self.__dict__.update(epsilon=epsilon, isotropy_bound=isotropy_bound)


def search_bounds(params: SearchParams) -> dict:
    """The bounds object of an enumerate document: at most three
    fractional points (the quotient pair is log Fano), denominators 2..N,
    degree at most 2/eps."""
    N = params.isotropy_bound
    return {"k_max": 3, "q_min": 2, "q_max": N,
            "degree_max": fmt_q(Fraction(2) / params.epsilon),
            "k_max_effective": 3 if N >= 2 else 0}


def _fractional_coefficients(q_max: int) -> List[Fraction]:
    out = []
    for q in range(2, q_max + 1):
        for p in range(1, q):
            if gcd(p, q) == 1:
                out.append(Fraction(p, q))
    # canonical order: descending value, ties by denominator then numerator
    out.sort(key=lambda f: (-f, f.denominator, f.numerator))
    return out


def _admissible_types(coeffs: List[Fraction]):
    """The types with deg B < 2 as index tuples into coeffs, in
    combinations_with_replacement order.  A triple with
    1/q_1 + 1/q_2 + 1/q_3 > 1 holds a 1/2, and its other denominators are
    2 and any, or 3 and one of 3..5: O(len(coeffs)) triples, not a cubic
    scan."""
    indices = range(len(coeffs))
    yield ()
    yield from itertools.combinations_with_replacement(indices, 1)
    yield from itertools.combinations_with_replacement(indices, 2)
    if Fraction(1, 2) not in coeffs:
        return
    h = coeffs.index(Fraction(1, 2))
    small = [i for i, f in enumerate(coeffs) if f.denominator <= 5]
    triples = {tuple(sorted((h, h, i))) for i in indices}
    triples.update(tuple(sorted((h, i, j))) for i in small for j in small)
    for triple in sorted(triples):
        q1, q2, q3 = (coeffs[i].denominator for i in triple)
        if q2 * q3 + q1 * q3 + q1 * q2 > q1 * q2 * q3:
            yield triple


@lru_cache(maxsize=None)
def _chain_solve(p: int, q: int):
    """The chain over a point p/q and, per vertex from the centre out,
    (S_v, X_v) with a_v = (S_v a_e0 + X_v)/q.  The a_v solve
    a_{v-1} - c_v a_v + a_{v+1} = 0 from a_e0 at the centre to 1 past
    the end; so do S_v = u_{v+1} of the elimination (q, then 0 past the
    end) and the first coordinate X_v of the hull ray (0, then q)."""
    chain = hj_chain(q, p)
    cs = [-e for e in chain]
    us, _ = _chain_continuants(cs)
    xs, x_prev, x = [], 0, 1
    for c in cs:
        xs.append(x)
        x_prev, x = x, c * x - x_prev
    # u_1 = q - p makes the central self-intersection integral
    if us[0] != q or us[1] != q - p or x != q:
        raise InternalInvariantError(f"chain over {p}/{q} misses its ends")
    return chain, tuple(zip(us[1:], xs))


@lru_cache(maxsize=None)
def _type_member(fracs: Tuple[Fraction, ...]):
    """member(degree, graph=None) -> (mld, entry): the type's member at
    that degree, whatever its mld, with its entry built once, as the JSON
    object that a catalog file holds (rationals as fmt_q strings, arrays
    as lists), from the type's integers.  A caller that holds the
    member's star graph passes it as graph, and a blow-down is read off
    it when its vertices are the member's own.  The setup runs on the
    first call for a type; enumerate and audit clear this cache and
    _chain_solve's when they end, by a return or a raise.  It is linear
    in the period L = lcm q_i: audit refuses L above PERIOD_MAX first,
    and a sweep's types have L <= N^2."""
    pairs = tuple((f.numerator, f.denominator) for f in fracs)
    r = len(pairs)
    L = lcm(*(q for _, q in pairs))
    # 2 - deg B = 2 - r + sum 1/q_i = top/L
    top = (2 - r) * L + sum(L // q for _, q in pairs)
    if top <= 0:
        raise NotKlt(f"boundary degree {Fraction(2 * L - top, L)} is >= 2")
    solved = [_chain_solve(p, q) for p, q in pairs]
    chains = tuple(chain for chain, _ in solved)
    # (S_v, X_v) over the common denominator L, the centre first
    vertices = ((L, 0), *((s * (L // q), x * (L // q)) for (_, sx), (_, q)
                          in zip(solved, pairs) for s, x in sx))
    # sum p_i/q_i = fn/fd in lowest terms
    fn = sum(p * (L // q) for p, q in pairs)
    g = gcd(fn, L)
    fn, fd = fn // g, L // g
    qprod = prod(q for _, q in pairs)
    max_q = max((q for _, q in pairs), default=1)
    # h(n) = 1 + n n0 + F(n), F(n) = sum floor(n p_i/q_i), is never
    # clamped at 0 when deg B < 2, so the Hilbert numerator
    # (1 - T)(1 - T^L) sum h(n) T^n is 1 + sum_{k=1..L} (F(k) - F(k-1)
    # + n0) T^k - T^L; each point's steps repeat with period q
    steps = [0] * L
    for p, q in pairs:
        steps = list(map(add, steps, [k * p // q - (k - 1) * p // q
                                      for k in range(1, q + 1)] * (L // q)))
    prefix = "f[" + ",".join(f"{p}/{q}" for p, q in pairs) + "];deg="
    tail = tuple(e for chain in chains for e in chain)
    excess = sum(-e - 2 for e in tail)

    def member(degree: Fraction, graph=None) -> Tuple[Fraction, dict]:
        dn, dd = degree.numerator, degree.denominator
        # degree = fn/fd + n has the denominator fd
        if dd != fd or dn <= 0:
            raise PreconditionError("degree incompatible with fractional type")
        n = (dn - fn) // dd
        b0 = n + r
        # a_e0 = A/B, and a_v = (S_v A + X_v B)/(L B)
        A, B = top * dd, L * dn
        low = min(s * A + x * B for s, x in vertices)      # L B mld
        if b0 >= max(r, 2):
            # all curves are (-2)-curves or below, so the star graph is
            # minimal, and Z = sum E_v has every Z.E_v <= 0, so it is the
            # fundamental cycle: 1 - Z^2 = 1 + b0 + sum (c_v - 2)
            blown_down, embdim = [-b0, *tail], 1 + b0 + excess
        else:
            # a central (-1)-curve is blown down; three chains on a
            # (-2)-curve take Laufer's loop.  The checks of
            # ResolutionGraph.mld: a smooth cone has mld 2, and the
            # blow-down keeps the graph minimum.
            if (graph is not None and graph.central_self_int == -b0
                    and graph.chains == chains):
                bd = graph.blown_down   # the caller's graph is this one
            else:
                bd = blow_down((-b0, *tail), star_edges(chains))
            if bd.empty:
                if low != 2 * L * B:
                    raise InternalNonIntegral("smooth cone with graph minimum "
                                              f"{Fraction(low, L * B)}")
            elif low != min(vertices[v][0] * A + vertices[v][1] * B
                            for v in bd.surviving):
                raise InternalNonIntegral("blow-down changed the graph minimum")
            embdim = bd.embedding_dimension
            if bd.empty != (embdim == 2):
                raise CatalogMismatch(f"{prefix}{degree}: graph blow-down "
                                      f"and embedding dimension {embdim} "
                                      "disagree")
            blown_down = None if bd.empty else list(bd.self_intersections)
        # the least m with m(K + B) - u D integral, u/m = s/t = -a_e0: t
        # divides m, and at p/q, q divides (m/t)(t(q - 1) - s p)
        g = gcd(A, B)
        s, t = -A // g, B // g
        numerator = [1, *map(n.__add__, steps)]
        numerator[-1] -= 1
        while numerator and numerator[-1] == 0:
            numerator.pop()
        deg = fmt_ratio(dn, dd)
        return Fraction(low, L * B), {
            "key": prefix + deg,
            "degree": deg,
            "fractional": [[p, q] for p, q in pairs],
            "a_e0": fmt_ratio(A, B),
            "mld": fmt_ratio(low, L * B),
            "cartier_index_kx": t * lcm(*(q // gcd(q, t + s * p)
                                          for p, q in pairs)),
            "max_isotropy": max_q,
            "link_determinant": dn * qprod // dd,
            "hilbert_numerator": numerator,
            "hilbert_period": L,
            "embedding_dimension": embdim,
            "graph": {"center": -b0, "chains": [list(c) for c in chains],
                      "blown_down": blown_down},
        }

    return member


def _candidate_types(params: SearchParams):
    """(type, degree) for every member: each admissible type through its
    mld cap, 2 - deg B times the least of 1/eps (from a_e0 >= eps) and,
    where X_v < eps q, S_v/(eps q - X_v) (from a_v >= eps).  Integer
    pairs looked up by coefficient index keep the O(k^2) types of k
    coefficients cheap; only a type with members gets its Fractions."""
    en, ed = params.epsilon.numerator, params.epsilon.denominator
    coeffs = _fractional_coefficients(params.isotropy_bound)
    points = []
    for f in coeffs:
        p, q = f.numerator, f.denominator
        cn, cd = ed, en                     # the factor cn/cd, first 1/eps
        for s, x in _chain_solve(p, q)[1]:
            gap = en * q - x * ed           # (eps q - X_v) ed
            if gap > 0 and s * ed * cd < cn * gap:
                cn, cd = s * ed, gap
        points.append((p, q, cn, cd))
    for indices in _admissible_types(coeffs):
        P, R, Q = 0, 0, 1                   # fsum = P/Q, sum 1/q_i = R/Q
        cn, cd = ed, en
        for i in indices:
            p, q, a, b = points[i]
            P, R, Q = P * q + p * Q, R * q + Q, Q * q
            if a * cd < cn * b:
                cn, cd = a, b
        top = (2 - len(indices)) * Q + R    # (2 - deg B) Q
        # degrees P/Q + n in (0, cap]
        lo, hi = -P // Q + 1, (top * cn - P * cd) // (Q * cd)
        if lo > hi:
            continue
        fracs = tuple(coeffs[i] for i in indices)
        fsum = Fraction(P, Q)
        for n in range(lo, hi + 1):
            yield fracs, fsum + n


def _evaluate_candidate(args):
    """The entry of a (fracs, degree, eps) candidate.  The sweep yields
    admissible types only, so none is refused as not klt, and each only
    through its mld cap, so a member below eps is a CatalogMismatch."""
    fracs, degree, eps = args
    mld, entry = _type_member(fracs)(degree)
    if mld < eps:
        raise CatalogMismatch(f"{entry['key']}: mld {entry['mld']} is below "
                              f"epsilon {fmt_q(eps)} under the degree cap")
    return entry


def enumerate_catalog(params: SearchParams) -> List[dict]:
    """The catalog at params as entry objects, ordered by degree, then
    key, swept in this process whatever the CLI's --jobs."""
    eps = params.epsilon
    seen = {}
    try:
        for fracs, degree in _candidate_types(params):
            e = _evaluate_candidate((fracs, degree, eps))
            key = e["key"]
            if key in seen:
                raise CatalogMismatch(f"duplicate catalog key {key}")
            seen[key] = degree, e
    finally:
        _chain_solve.cache_clear()
        _type_member.cache_clear()
    # degrees over their common denominator M compare as integers
    M = lcm(*(d.denominator for d, _ in seen.values()))
    return [e for _, e in sorted(seen.values(), key=lambda de: (
        de[0].numerator * (M // de[0].denominator), de[1]["key"]))]


def mld_spectrum(entries) -> Tuple[Fraction, ...]:
    """The distinct mlds of the entries, ascending."""
    return tuple(sorted(map(parse_q, {e["mld"] for e in entries})))


def catalog_to_json(entries, params: SearchParams) -> dict:
    return {
        "params": {"epsilon": fmt_q(params.epsilon),
                   "isotropy_bound": params.isotropy_bound},
        "entries": entries,
        "summary": {
            "count": len(entries),
            "mld_spectrum": [fmt_q(m) for m in mld_spectrum(entries)],
        },
    }

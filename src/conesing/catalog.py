"""Exhaustive catalog of eps-lc cone surface singularities with bounded
isotropies.

The search space is finite: the quotient pair forces at most three
fractional points (which line automorphisms pin to 0, 1, infinity, so
normal-form keys classify couples up to isomorphism) and denominators
are bounded by the isotropy bound.  The mld is at most the central log
discrepancy a_e0 = (2 - deg B)/deg D, with B the quotient boundary, so
a fractional type is swept only through degree (2 - deg B)/eps, at most
the 2/eps of the search bounds.  That cap only skips couples the
resolution oracle would reject; membership is the oracle's call on
every candidate swept.

The embedding dimension of an entry is Artin's 1 - Z^2 on the
blown-down graph (klt surface singularities are rational), not a
generator count; the generator scan of sections is its oracle in the
tests.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass
from fractions import Fraction
from math import floor, gcd
from typing import List, Optional, Tuple

from .divisors import (CurveCouple, _frac_part, canonical_couple,
                       max_isotropy, normal_form)
from .errors import CatalogMismatch, NotKlt, ParseError, PreconditionError
from .jsonio import fmt_q, json_int, parse_q
from .quotient import (cartier_index_of_kx, validate_epsilon,
                       vertex_log_discrepancy)
from .resolution import ResolutionGraph, build_graph
from .sections import hilbert_series


@dataclass(frozen=True)
class SearchParams:
    epsilon: Fraction
    isotropy_bound: int

    def __post_init__(self):
        object.__setattr__(self, "epsilon", validate_epsilon(self.epsilon))
        if self.isotropy_bound < 1:
            raise PreconditionError(
                f"isotropy bound {self.isotropy_bound} < 1")


@dataclass(frozen=True)
class SearchBounds:
    k_max: int
    q_min: int
    q_max: int
    degree_max: Fraction
    k_max_effective: int

    def to_json(self) -> dict:
        return {
            "k_max": self.k_max,
            "q_min": self.q_min,
            "q_max": self.q_max,
            "degree_max": fmt_q(self.degree_max),
            "k_max_effective": self.k_max_effective,
        }


def search_bounds(params: SearchParams) -> SearchBounds:
    """At most three fractional points (the quotient pair is log Fano),
    denominators 2..N, degree at most 2/eps."""
    N = params.isotropy_bound
    return SearchBounds(k_max=3, q_min=2, q_max=N,
                        degree_max=Fraction(2) / params.epsilon,
                        k_max_effective=3 if N >= 2 else 0)


@dataclass(frozen=True)
class GraphSummary:
    center: int
    chains: Tuple[Tuple[int, ...], ...]
    blown_down_vertices: Optional[Tuple[int, ...]]   # None means smooth

    def to_json(self) -> dict:
        return {
            "center": self.center,
            "chains": [list(c) for c in self.chains],
            "blown_down": (list(self.blown_down_vertices)
                           if self.blown_down_vertices is not None else None),
        }


@dataclass(frozen=True)
class CatalogEntry:
    key: str
    degree: Fraction
    fractional: Tuple[Tuple[int, int], ...]     # (p, q) pairs, canonical order
    a_e0: Fraction
    mld: Fraction
    cartier_index_kx: int
    max_isotropy: int
    link_determinant: int
    hilbert_numerator: Tuple[int, ...]
    hilbert_period: int
    embedding_dimension: int
    graph: GraphSummary

    def to_json(self) -> dict:
        return {
            "key": self.key,
            "degree": fmt_q(self.degree),
            "fractional": [[p, q] for p, q in self.fractional],
            "a_e0": fmt_q(self.a_e0),
            "mld": fmt_q(self.mld),
            "cartier_index_kx": self.cartier_index_kx,
            "max_isotropy": self.max_isotropy,
            "link_determinant": self.link_determinant,
            "hilbert_numerator": list(self.hilbert_numerator),
            "hilbert_period": self.hilbert_period,
            "embedding_dimension": self.embedding_dimension,
            "graph": self.graph.to_json(),
        }


def couple_from_entry_data(fractional, degree: Fraction) -> CurveCouple:
    """Rebuild the canonical couple from its fractional type and degree."""
    return canonical_couple([Fraction(p, q) for p, q in fractional], degree)


def _fractional_coefficients(q_max: int) -> List[Fraction]:
    out = []
    for q in range(2, q_max + 1):
        for p in range(1, q):
            if gcd(p, q) == 1:
                out.append(Fraction(p, q))
    # canonical order: descending value, ties by denominator then numerator
    out.sort(key=lambda f: (-f, f.denominator, f.numerator))
    return out


def _build_entry(C: CurveCouple, G: ResolutionGraph, key: str) -> CatalogEntry:
    bd = G.blown_down
    hd = hilbert_series(C)
    embdim = bd.embedding_dimension
    if bd.empty != (embdim == 2):
        raise CatalogMismatch(f"{key}: graph blow-down and embedding "
                              f"dimension {embdim} disagree")
    return CatalogEntry(
        key=key,
        degree=C.degree(),
        fractional=tuple((_frac_part(c).numerator, c.denominator)
                         for _, c in C.divisor.terms if c.denominator > 1),
        a_e0=vertex_log_discrepancy(C),
        mld=G.mld,
        cartier_index_kx=cartier_index_of_kx(C),
        max_isotropy=max_isotropy(C),
        link_determinant=G.determinant,
        hilbert_numerator=hd.numerator,
        hilbert_period=hd.period,
        embedding_dimension=embdim,
        graph=GraphSummary(
            center=G.central_self_int,
            chains=G.chains,
            blown_down_vertices=None if bd.empty else bd.self_intersections,
        ),
    )


def _candidate_types(params: SearchParams):
    """Fractional multisets within bounds, plus the degree offsets."""
    bounds = search_bounds(params)
    coeffs = _fractional_coefficients(bounds.q_max)
    types = [()]
    for k in (1, 2, 3):
        types.extend(itertools.combinations_with_replacement(coeffs, k))
    for fracs in types:
        deg_b = sum((Fraction(f.denominator - 1, f.denominator)
                     for f in fracs), Fraction(0))
        if deg_b >= 2:
            continue
        # mld <= a_e0 = (2 - deg B)/deg D, so an eps-lc member has
        # deg D <= (2 - deg B)/eps, which is at most 2/eps
        deg_cap = (2 - deg_b) / params.epsilon
        fsum = sum(fracs, Fraction(0))
        # degrees fsum + n0 in (0, deg_cap], from the least n0 > -fsum
        n0 = floor(-fsum) + 1
        while fsum + n0 <= deg_cap:
            yield fracs, fsum + n0
            n0 += 1


def _evaluate_candidate(args):
    fracs, degree, eps = args
    C = canonical_couple(fracs, degree)
    try:
        G = build_graph(C)
    except NotKlt:
        return None
    if G.mld < eps:
        return None
    nf = normal_form(C)
    if nf.couple.divisor != C.divisor:
        raise CatalogMismatch("candidate was not constructed in normal form")
    return _build_entry(C, G, nf.key_string())


# A process pool pays only when each worker gets at least this many
# candidates.  Measured on a 2-CPU x86-64 host: a 2-worker pool costs
# about 30-40 ms to start and feed, and a candidate within the degree cap
# takes about 0.4-0.7 ms, so 2 workers break even near 120 candidates;
# 128 per worker leaves a margin of about two.
MIN_CANDIDATES_PER_WORKER = 128


def _worker_count(jobs: int, candidates: int) -> int:
    """At most jobs workers, each with MIN_CANDIDATES_PER_WORKER
    candidates or more; 1 means in-process."""
    return max(1, min(jobs, candidates // MIN_CANDIDATES_PER_WORKER))


def enumerate_catalog(params: SearchParams, jobs: int = 1) -> List[CatalogEntry]:
    """The catalog at params.  jobs bounds the worker processes; a sweep
    too small to pay for a pool runs in-process."""
    cpus = os.cpu_count() or 1
    if not 1 <= jobs <= cpus:
        raise PreconditionError(f"jobs {jobs} is outside 1..{cpus} "
                                "(the CPU count)")
    cands = [(fracs, degree, params.epsilon)
             for fracs, degree in _candidate_types(params)]
    workers = _worker_count(jobs, len(cands))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as ex:
            results = list(ex.map(_evaluate_candidate, cands, chunksize=8))
    else:
        results = [_evaluate_candidate(c) for c in cands]
    entries = [e for e in results if e is not None]
    seen = {}
    for e in entries:
        if e.key in seen:
            raise CatalogMismatch(f"duplicate catalog key {e.key}")
        seen[e.key] = e
    out = sorted(seen.values(), key=lambda e: (e.degree, e.key))
    return out


def mld_spectrum(entries) -> Tuple[Fraction, ...]:
    return tuple(sorted({e.mld for e in entries}))


@dataclass(frozen=True)
class AuditReport:
    checked: int
    failures: Tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {"checked": self.checked, "failures": list(self.failures),
                "ok": self.ok}


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


def _canonical(doc: dict) -> dict:
    """Each field as canonical JSON text, so that true or 1.0 is not 1."""
    return {k: json.dumps(v, sort_keys=True) for k, v in doc.items()}


def audit_catalog(docs, params: SearchParams) -> AuditReport:
    """Rebuild every stored entry (a JSON object as read from the file)
    from its key, fractional type and degree with the builder of the
    enumerator, compare every stored field with the rebuilt one as
    canonical JSON, and re-check the necessary conditions of membership.
    An entry whose isotropy exceeds N is not built.  Malformed defining
    data raises ParseError; everything else is reported, not raised."""
    eps, N = params.epsilon, params.isotropy_bound
    data = [_defining_data(doc) for doc in docs]
    failures = []
    keys = set()
    for doc, (key, fractional, degree) in zip(docs, data):
        tag = f"entry {key}"
        if key in keys:
            failures.append(f"{tag}: duplicate key")
        keys.add(key)
        try:
            nf = normal_form(couple_from_entry_data(fractional, degree))
        except (PreconditionError, ZeroDivisionError) as exc:
            failures.append(f"{tag}: cannot rebuild couple ({exc})")
            continue
        C = nf.couple
        if max_isotropy(C) > N:
            failures.append(f"{tag}: isotropy above the bound {N}")
            continue
        try:
            G = build_graph(C)
        except NotKlt as exc:
            failures.append(f"{tag}: rebuilt couple is not klt ({exc})")
            continue
        e = _build_entry(C, G, nf.key_string())
        stored, rebuilt = _canonical(doc), _canonical(e.to_json())
        for field in sorted(stored.keys() | rebuilt.keys()):
            if field not in stored:
                failures.append(f"{tag}: stored entry has no {field}")
            elif stored[field] != rebuilt.get(field):
                failures.append(f"{tag}: stored {field} {stored[field]} is wrong")
        if 1 + G.discrepancies[0] != e.a_e0:
            failures.append(f"{tag}: a_e0 disagrees with the resolution oracle")
        if e.mld < eps:
            failures.append(f"{tag}: mld below epsilon")
    return AuditReport(checked=len(docs), failures=tuple(failures))


def catalog_to_json(entries, params: SearchParams) -> dict:
    return {
        "params": {"epsilon": fmt_q(params.epsilon),
                   "isotropy_bound": params.isotropy_bound},
        "entries": [e.to_json() for e in entries],
        "summary": {
            "count": len(entries),
            "mld_spectrum": [fmt_q(m) for m in mld_spectrum(entries)],
        },
    }

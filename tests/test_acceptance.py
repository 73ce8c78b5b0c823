"""Acceptance suite.

Each test covers one published criterion, prints a single PASS/FAIL
line, and asserts with zero tolerance: every comparison is between
exact rationals or integers.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
from fractions import Fraction
from math import gcd

import pytest

from conesing.catalog import (SearchParams, catalog_to_json,
                              enumerate_catalog, mld_spectrum)
from conesing.counterexamples import an_min_over_actions, rnc_family_report
from conesing.divisors import (CurveCouple, finite_point, infinity_point,
                               max_isotropy)
from conesing.errors import NotKlt
from conesing.linalg import det_int
from conesing.quotient import (horizontal_log_discrepancies,
                               log_fano_quotient, vertex_log_discrepancy)
from conesing.resolution import build_graph
from conesing.hilbert import hilbert_series
from conesing.sections import presentation
from conesing.toric import (cone_of_x, random_primitive_samples,
                            verify_comparison)
from helpers import (an_min_scan, cartier_index_on_cone, entry_couple, fan_p1,
                     h0, intersection_matrix, is_eps_lc_pair,
                     is_negative_definite, lattice_mld, random_couples,
                     random_instances, weil_index)

F = Fraction
P0 = finite_point(0)
P1 = finite_point(1)
PINF = infinity_point()

CATALOG_PARAMS = [(F(1), 1), (F(1), 2), (F(1, 2), 2), (F(1, 2), 3),
                  (F(1, 3), 4)]

TEST_COUPLES = [
    {P0: 1}, {P0: 2}, {P0: 5},
    {P0: F(1, 2), P1: F(1, 2)},
    {P0: F(1, 2), PINF: F(1, 2)},
    {P0: F(2, 3)}, {P0: F(2, 3), P1: F(4, 5)},
    {P0: F(1, 2), P1: F(1, 2), PINF: F(1, 2)},
    {P0: F(-1, 2), P1: F(1, 3), PINF: F(3, 4)},
    {P0: F(1, 6), PINF: F(1, 6)},
    {P0: F(5, 7), PINF: 1},
]


def _report(tag, ok, detail=""):
    line = f"[{tag}] {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    return ok


_catalog_cache = {}


def catalog(eps, N):
    key = (eps, N)
    if key not in _catalog_cache:
        _catalog_cache[key] = enumerate_catalog(
            SearchParams(epsilon=eps, isotropy_bound=N))
    return _catalog_cache[key]


def test_c01_vertex_formula_vs_oracle():
    ok = True
    for m in range(1, 51):
        C = CurveCouple.of({P0: m})
        ratio = vertex_log_discrepancy(C)
        G = build_graph(C)
        adjunction = 1 + G.discrepancies[0]
        ok = ok and ratio == adjunction == F(2, m)
    assert _report("C1 vertex formula, degrees 1..50", ok)


def test_c02_comparison_on_curve_base():
    couples = random_couples(seed=101, count=500, max_q=12, max_degree=10)
    ok = True
    for C in couples:
        rows = horizontal_log_discrepancies(C)
        ok = ok and [p for p, _ in rows] == [p for p, _ in C.terms]
        ok = ok and all(a == 1 for _, a in rows)
        G = build_graph(C)
        ok = ok and 1 + G.discrepancies[0] == vertex_log_discrepancy(C)
    assert _report("C2 curve-base comparison, 500 couples", ok)


def test_c03_comparison_toric():
    instances = random_instances(seed=301, count=100)
    violations = 0
    vertex_checks = 0
    for i, (label, fan, D) in enumerate(instances):
        samples = random_primitive_samples(seed=5000 + i, rank=fan.rank,
                                           count=20)
        report = verify_comparison(fan, D, samples)
        violations += len(report.violations)
        if report.vertex_ok is not None:
            vertex_checks += 1
            if not report.vertex_ok:
                violations += 1
    ok = violations == 0
    assert _report("C3 toric comparison, 100 instances x (rays + 20 samples)",
                   ok, f"{vertex_checks} vertex identities included")


def test_c04_weil_le_cartier():
    instances = random_instances(seed=401, count=60, require_qgorenstein=False)
    ok = True
    for i, (label, fan, D) in enumerate(instances):
        for v in random_primitive_samples(seed=6000 + i, rank=fan.rank,
                                          count=15):
            w = weil_index(fan, D, v)
            cart = cartier_index_on_cone(fan, D, fan.locate(v))
            ok = ok and (cart % w == 0) and w <= cart
    assert _report("C4 Weil index divides Cartier index on all samples", ok)


def test_c05_quotient_eps_over_n():
    ok = True
    checked = 0
    for eps, N in CATALOG_PARAMS:
        for entry in catalog(eps, N):
            C = entry_couple(entry)
            ok = ok and is_eps_lc_pair(log_fano_quotient(C), eps / N)
            checked += 1
    assert _report("C5 log Fano quotient is eps/N-lc on every entry", ok,
                   f"{checked} entries")


def test_c06_boundedness_and_mld_finiteness():
    ok = True
    c11 = catalog(F(1), 1)
    ok = ok and len(c11) == 2
    ok = ok and mld_spectrum(c11) == (F(1), F(2))
    for eps, N in CATALOG_PARAMS:
        entries = catalog(eps, N)
        spectrum = mld_spectrum(entries)
        ok = ok and len(entries) < 10 ** 6        # literally finite lists
        ok = ok and (not spectrum or min(spectrum) >= eps)
        params = SearchParams(epsilon=eps, isotropy_bound=N)
        again = enumerate_catalog(params)
        ok = ok and json.dumps(catalog_to_json(again, params)) == \
            json.dumps(catalog_to_json(entries, params))
    chain = [catalog(*p) for p in CATALOG_PARAMS]
    for small, big in zip(chain, chain[1:]):
        keys_small = {e["key"] for e in small}
        keys_big = {e["key"] for e in big}
        ok = ok and keys_small <= keys_big
    assert _report("C6 finite deterministic catalogs, spectra above eps, "
                   "monotone containment", ok,
                   f"sizes {[len(c) for c in chain]}")


def test_c07_du_val():
    ok = True
    singular = 0
    for N in range(1, 7):
        for entry in catalog(F(1), N):
            C = entry_couple(entry)
            bd = build_graph(C).blown_down
            if bd.empty:
                continue
            singular += 1
            ok = ok and all(s == -2 for s in bd.self_intersections)
    assert _report("C7 canonical entries blow down to -2 curves", ok,
                   f"{singular} singular entries, N <= 6")


def test_c08_section_ring():
    ok = True
    for terms in TEST_COUPLES:
        C = CurveCouple.of(terms)
        hd = hilbert_series(C)
        ok = ok and hd.expansion(200) == [h0(C, n) for n in range(201)]
    pres = presentation(CurveCouple.of({P0: 2}))
    ok = ok and pres["generators"] == [1, 1, 1]
    ok = ok and pres["relations"] == [2]
    for n in range(1, 7):
        C = CurveCouple.of({P0: F(1, n), PINF: F(1, n)})
        pres = presentation(C, gen_bound=2 * n + 2, rel_bound=2 * n + 2)
        expected_gens = [1, 1, 1] if n == 1 else [1, n, n]
        ok = ok and pres["generators"] == expected_gens
        ok = ok and pres["relations"] == [2 * n]
        ok = ok and len(pres["equations"]) == 1
        # structure x y = z^{2n}: the two degree-n generators multiply to
        # the 2n-th power of the degree-1 generator
        eq = pres["equations"][0]
        if n > 1:
            ok = ok and (f"x**{2 * n}" in eq) and ("y*z" in eq)
    a = presentation(CurveCouple.of({P0: F(1, 2), P1: F(1, 2)}))
    b = presentation(CurveCouple.of({P0: F(1, 2), PINF: F(1, 2)}))
    ok = ok and a["generators"] == b["generators"]
    ok = ok and a["relations"] == b["relations"]
    assert _report("C8 Hilbert data through degree 200; quadric and x y = "
                   "z^{2n} presentations; linear equivalence invariance", ok)


def test_c09_internal_consistency():
    ok = True
    # the graph builder asserts integral central self-intersection and
    # definiteness on every call; sweep it and re-verify densely, the
    # determinant included
    sweep = random_couples(seed=901, count=120, max_q=10)
    for C in sweep:
        G = build_graph(C)
        M = intersection_matrix(G)
        ok = ok and isinstance(G.central_self_int, int)
        ok = ok and is_negative_definite(M)
        ok = ok and abs(det_int(M)) == G.determinant
    # two-oracle mld agreement on couples with at most 2 fractional points
    pool = [CurveCouple.of(t) for t in TEST_COUPLES]
    for eps, N in CATALOG_PARAMS:
        pool.extend(entry_couple(e) for e in catalog(eps, N))
    compared = 0
    for C in pool:
        fracs = [(c.numerator % c.denominator, c.denominator)
                 for _, c in C.terms if c.denominator > 1]
        if len(fracs) > 2:
            continue
        c0 = F(fracs[0][0], fracs[0][1]) if fracs else F(0)
        cinf = F(fracs[1][0], fracs[1][1]) if len(fracs) > 1 else F(0)
        n0 = C.degree() - c0 - cinf
        rays, qform = cone_of_x(fan_p1(), (c0 + n0, cinf))
        if qform is None:
            ok = False
            continue
        ok = ok and lattice_mld(rays, qform) == build_graph(C).mld
        compared += 1
    assert _report("C9 integrality and definiteness assertions quiet; "
                   "two-oracle mld agreement", ok, f"{compared} couples")


def test_c10_counterexample_families():
    ok = True
    for n in range(1, 201):
        best, witness = an_min_over_actions(n, 500)
        a, b = witness
        ok = ok and best >= n and b != 0
        ok = ok and best == abs(a) + abs(b) * n
        # the exhaustive int64 scan agrees in value and witness
        ok = ok and (best, witness) == an_min_scan(n, 500)
    rows = rnc_family_report(50)
    for r in rows:
        m = r["m"]
        ok = ok and r["max_isotropy"] == 1
        ok = ok and F(r["a_e0"]) == F(2, m)
        ok = ok and r["link_determinant"] == m
        # canonical class is principal for even degree (the quadric cone
        # is a hypersurface); the index m / gcd(2, m) is still unbounded
        ok = ok and r["cartier_index_kx"] == m // gcd(2, m)
    ok = ok and max(r["cartier_index_kx"] for r in rows) == 49
    assert _report("C10 isotropy lower bound to n = 200, box 500; "
                   "unbounded canonical index with trivial isotropies", ok)

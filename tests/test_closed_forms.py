"""The closed forms of the library against the scans they replaced.

Each per-couple number with a closed form keeps an independent oracle
here: the upward scan and the Fraction form for the index m and the
decomposition, Bareiss on the dense star matrix for the link
determinant, the dense solve and the Fraction elimination for the
discrepancies, the edge scan for the blow-down, h0 (built on
floor_multiple) for the integer Hilbert values and the Hilbert series,
and the generator scan for Artin's embedding dimension.  Couples are
drawn by Hypothesis under the `repro` profile.
"""

import sys
from fractions import Fraction
from math import ceil, floor, gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conesing import hilbert, sections
from conesing.audit import audit_catalog
from conesing.catalog import SearchParams, enumerate_catalog
from conesing.divisors import (CurveCouple, canonical_couple,
                               denominators_lcm, finite_point)
from conesing.errors import InternalInvariantError, NotKlt
from conesing.linalg import det_int
from conesing.quotient import cartier_index_of_kx, vertex_decomposition
from conesing.resolution import (BlownDownGraph, _chain_continuants,
                                 blow_down, build_graph, star_edges)
from conesing.hilbert import hilbert_series
from conesing.sections import presentation
from helpers import (POSITIONS, brute_min_decomposition, discrepancies,
                     divisor_degree, edge_scan_blow_down, entry_couple,
                     fraction_chain_alphas_betas,
                     fraction_vertex_decomposition, h0, intersection_matrix,
                     random_couples, scanned_generators)


def fractions_up_to(max_q):
    return [Fraction(p, q) for q in range(2, max_q + 1)
            for p in range(1, q) if gcd(p, q) == 1]


@st.composite
def klt_couples(draw, max_q=9):
    """Couples with up to three fractional points whose quotient pair is
    log Fano, i.e. klt cones."""
    k = draw(st.integers(0, 3))
    pool = fractions_up_to(max_q)
    # three points are klt only for platonic denominators, which all
    # include a 2
    fracs = [draw(st.sampled_from(pool if i or k < 3 else [Fraction(1, 2)]))
             for i in range(k)]
    assume(sum(1 - Fraction(1, f.denominator) for f in fracs) < 2)
    positions = draw(st.permutations(POSITIONS))
    terms = {pos: f + draw(st.integers(-1, 2))
             for pos, f in zip(positions, fracs)}
    fsum = sum(terms.values(), Fraction(0))
    # the integral point brings the degree into [t, t + 1)
    terms[positions[len(fracs)]] = -floor(fsum) + draw(st.integers(0, 3))
    assume(divisor_degree(terms) > 0)
    return CurveCouple.of(terms)


@given(klt_couples())
def test_index_m_matches_upward_scan(C):
    vd = vertex_decomposition(C)
    # the scan stops at the least valid m, so a cap of vd.m suffices
    m, u, hterms = brute_min_decomposition(C, cap=vd.m)
    assert (vd.m, vd.u) == (m, u)
    assert dict(vd.H) == hterms


@given(st.integers(0, 10**6))
def test_integer_decomposition_matches_fraction_form(seed):
    for C in random_couples(seed, 4, klt_only=False):
        try:
            expected = fraction_vertex_decomposition(C)
        except NotKlt:
            for fn in (vertex_decomposition, cartier_index_of_kx):
                with pytest.raises(NotKlt):
                    fn(C)
            continue
        assert vertex_decomposition(C) == expected
        assert cartier_index_of_kx(C) == expected.m


def assert_continuants_match(cs):
    us, ws = _chain_continuants(cs)
    alphas, betas = fraction_chain_alphas_betas(
        cs, [Fraction(c - 2) for c in cs])
    assert [Fraction(us[j + 1], us[j]) for j in range(len(cs))] == alphas
    assert [Fraction(ws[j], us[j]) for j in range(len(cs))] == betas


@given(st.integers(0, 10**6))
def test_integer_chain_elimination_matches_fractions(seed):
    for C in random_couples(seed, 4):
        for chain in build_graph(C).chains:
            assert_continuants_match([-e for e in chain])


@given(st.lists(st.integers(1, 5), min_size=1, max_size=12))
def test_integer_chain_elimination_loses_definiteness_with_fractions(cs):
    try:
        fraction_chain_alphas_betas(cs, [Fraction(c - 2) for c in cs])
    except InternalInvariantError as exc:
        assert str(exc) == "chain elimination lost definiteness"
        with pytest.raises(InternalInvariantError, match="lost definiteness"):
            _chain_continuants(cs)
    else:
        assert_continuants_match(cs)


@given(st.integers(0, 10**6))
def test_worklist_blow_down_matches_edge_scan(seed):
    for C in random_couples(seed, 4):
        G = build_graph(C)
        assert blow_down(G.self_intersections(), star_edges(G.chains)) == \
            edge_scan_blow_down(G)


@settings(max_examples=6)
@given(st.integers(1001, 1300),
       st.sampled_from([0, 1, Fraction(1, 2), Fraction(2, 3), Fraction(5, 3)]))
@example(q=1001, extra=0)
@example(q=1299, extra=0)
def test_worklist_blow_down_matches_edge_scan_on_long_chains(q, extra):
    # (1/q)[0] resolves to a chain of q - 1 (-2)-curves; with extra = 0
    # the center is -1 and the whole star contracts one curve at a time
    C = CurveCouple.of({finite_point(0): Fraction(1, q),
                        finite_point(1): extra})
    G = build_graph(C)
    assert len(G.chains[0]) >= 1000
    assert blow_down(G.self_intersections(), star_edges(G.chains)) == \
        edge_scan_blow_down(G)


@given(klt_couples())
def test_link_determinant_matches_bareiss(C):
    G = build_graph(C)
    assert G.determinant == abs(det_int(intersection_matrix(G)))


@given(klt_couples())
def test_discrepancies_match_dense_solve(C):
    G = build_graph(C)
    assert discrepancies(G) == G.discrepancies


@given(klt_couples(max_q=7))
def test_hilbert_expansion_matches_h0(C):
    hd = hilbert_series(C)
    through = 3 * hd.period
    assert hd.expansion(through) == [h0(C, n) for n in range(through + 1)]


@st.composite
def any_couples(draw):
    """Couples of positive degree with any coefficients: negative,
    integral and fractional, klt or not."""
    coeff = st.fractions(min_value=-4, max_value=5, max_denominator=11)
    terms = draw(st.dictionaries(st.sampled_from(POSITIONS), coeff,
                                 min_size=1, max_size=5))
    assume(divisor_degree(terms) > 0)
    return CurveCouple.of(terms)


@given(any_couples(), st.integers(0, 40))
@example(CurveCouple.of({POSITIONS[0]: Fraction(-1, 2), POSITIONS[1]: 3,
                         POSITIONS[2]: Fraction(-2, 3)}), 13)
def test_integer_hilbert_values_match_h0(C, through):
    assert hilbert.hilbert_values(C, through) == \
        [h0(C, n) for n in range(through + 1)]


def test_star_edges_and_matrix():
    C = CurveCouple.of({POSITIONS[0]: Fraction(1, 3),
                        POSITIONS[1]: Fraction(1, 2)})
    G = build_graph(C)
    assert G.chains == ((-2, -2), (-2,))
    assert star_edges(G.chains) == ((0, 1), (1, 2), (0, 3))
    assert G.determinant == 5       # deg D * 3 * 2 with deg D = 5/6
    assert intersection_matrix(G) == [[-2, 1, 0, 1],
                                       [1, -2, 1, 0],
                                       [0, 1, -2, 0],
                                       [1, 0, 0, -2]]


def test_graph_blow_down_and_mld_never_build_the_dense_matrix(monkeypatch):
    def refuse(*args):
        raise AssertionError("dense linear algebra used")

    # every binding of the dense routines, the oracles' in helpers included
    for modname, mod in list(sys.modules.items()):
        if modname.split(".")[0] in ("conesing", "helpers"):
            for name in ("solve", "rref", "nullspace", "det_int"):
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, refuse)
    for C in random_couples(seed=31, count=60, max_q=12):
        G = build_graph(C)
        G.blown_down
        G.mld
        G.blown_down.embedding_dimension
    with pytest.raises(AssertionError, match="dense"):
        discrepancies(G)


def scanned_embedding_dimension(C):
    """Number of minimal generators of the section ring, by the scan.

    Multiplying by the full-period piece is surjective onto any degree
    whose predecessor one period down is nonempty, so generators stop
    by L + ceil(k / deg D); one extra period is kept as margin.
    """
    L = denominators_lcm(C)
    k = len(C.terms)
    return len(scanned_generators(C, 2 * L + ceil(Fraction(k) / C.degree())))


@given(klt_couples(max_q=7))
def test_artin_embedding_dimension_matches_generator_scan(C):
    G = build_graph(C)
    assert G.blown_down.embedding_dimension == scanned_embedding_dimension(C)


@pytest.mark.parametrize("eps,N", [(Fraction(1), 4), (Fraction(1, 2), 4)])
def test_catalog_embedding_dimensions_match_generator_scan(eps, N):
    entries = enumerate_catalog(SearchParams(epsilon=eps, isotropy_bound=N))
    assert entries
    for e in entries:
        C = entry_couple(e)
        assert e["embedding_dimension"] == scanned_embedding_dimension(C), \
            e["key"]


@pytest.mark.parametrize("fractional,degree,embdim", [
    ((), Fraction(1), 2),                                   # smooth
    (((1, 2), (1, 2)), Fraction(1), 3),                     # A3
    (((1, 2),) * 3, Fraction(1, 2), 3),                     # D4
    (((1, 2), (1, 3), (1, 5)), Fraction(1, 30), 3),         # E8
    ((), Fraction(3), 4),                   # cone over the twisted cubic
    ((), Fraction(5), 6),                   # rational normal cone, degree 5
])
def test_artin_examples(fractional, degree, embdim):
    C = canonical_couple([Fraction(p, q) for p, q in fractional], degree)
    assert build_graph(C).blown_down.embedding_dimension == embdim


def four_armed_star(center, arm):
    return BlownDownGraph(self_intersections=(center,) + (arm,) * 4,
                          edges=((0, 1), (0, 2), (0, 3), (0, 4)),
                          surviving=(0, 1, 2, 3, 4))


def test_laufer_loop_and_rationality_certificate():
    # On klt stars Laufer's loop raises only (-2)-curves, which leaves
    # Z^2 unchanged; four-armed stars (cones that are not klt) need the
    # loop and the certificate.  Both graphs come from couples with four
    # fractional points, center -(deg D + 4/q), one curve per arm.
    P = [POSITIONS[i] for i in range(4)]
    # halves, degree 1: center -3, Z = 2 E_0 + sum E_i, Z^2 = -4
    C = CurveCouple.of(dict(zip(P, [Fraction(1, 2)] * 3 + [Fraction(-1, 2)])))
    assert C.degree() == 1
    assert four_armed_star(-3, -2).embedding_dimension == 5
    assert scanned_embedding_dimension(C) == 5
    # two-thirds, degree 2/3: center -2, arms -3, p_a(Z) = 1 (minimally
    # elliptic, 4 generators), so 1 - Z^2 = 5 does not apply
    C = CurveCouple.of(dict(zip(P, [Fraction(2, 3)] * 3 + [Fraction(-4, 3)])))
    assert C.degree() == Fraction(2, 3)
    assert scanned_embedding_dimension(C) == 4
    with pytest.raises(InternalInvariantError, match="not rational"):
        four_armed_star(-2, -3).embedding_dimension


def test_catalog_never_runs_the_generator_scan(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("generator scan called")

    for name, mod in list(sys.modules.items()):
        if (name == "conesing" or name.startswith("conesing.")) and \
                getattr(mod, "presentation", None) is presentation:
            monkeypatch.setattr(mod, "presentation", refuse)
    assert sections.presentation is refuse
    params = SearchParams(epsilon=Fraction(1, 2), isotropy_bound=4)
    entries = enumerate_catalog(params)
    assert len(entries) == 40
    assert audit_catalog(entries, params)["ok"]

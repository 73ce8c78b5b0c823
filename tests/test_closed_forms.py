"""The closed forms of the library against the scans they replaced.

Each per-couple number with a closed form keeps an independent oracle
here: the upward scan for the index m, Bareiss on the dense star matrix
for the link determinant, the dense solve for the discrepancies, and h0
for the Hilbert series.  Couples are drawn by Hypothesis under the
`repro` profile.
"""

from fractions import Fraction
from math import floor, gcd

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conesing.divisors import CurveCouple, QDivisorP1
from conesing.linalg import det_int
from conesing.quotient import vertex_decomposition
from conesing.resolution import ResolutionGraph, build_graph, discrepancies
from conesing.sections import h0, hilbert_series
from helpers import POSITIONS, brute_min_decomposition, random_couples


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
    D = QDivisorP1.of(terms)
    assume(D.degree() > 0)
    return CurveCouple(D)


@given(klt_couples())
def test_index_m_matches_upward_scan(C):
    vd = vertex_decomposition(C)
    # the scan stops at the least valid m, so a cap of vd.m suffices
    m, u, hterms = brute_min_decomposition(C, cap=vd.m)
    assert (vd.m, vd.u) == (m, u)
    assert dict(vd.H.terms) == hterms


@given(klt_couples())
def test_link_determinant_matches_bareiss(C):
    G = build_graph(C)
    assert G.determinant == abs(det_int(G.intersection_matrix()))


@given(klt_couples())
def test_discrepancies_match_dense_solve(C):
    G = build_graph(C)
    assert discrepancies(G) == G.discrepancies


@given(klt_couples(max_q=7))
def test_hilbert_expansion_matches_h0(C):
    hd = hilbert_series(C)
    through = 3 * hd.period
    assert hd.expansion(through) == [h0(C, n) for n in range(through + 1)]
    assert hd.expand(through) == h0(C, through)


def test_star_edges_and_matrix():
    C = CurveCouple.of({POSITIONS[0]: Fraction(1, 3),
                        POSITIONS[1]: Fraction(1, 2)})
    G = build_graph(C)
    assert G.chains == ((-2, -2), (-2,))
    assert G.edges() == ((0, 1), (1, 2), (0, 3))
    assert G.determinant == 5       # deg D * 3 * 2 with deg D = 5/6
    assert G.intersection_matrix() == [[-2, 1, 0, 1],
                                       [1, -2, 1, 0],
                                       [0, 1, -2, 0],
                                       [1, 0, 0, -2]]


def test_graph_blow_down_and_mld_never_build_the_dense_matrix(monkeypatch):
    def refuse(self):
        raise AssertionError("dense intersection matrix built")

    monkeypatch.setattr(ResolutionGraph, "intersection_matrix", refuse)
    for C in random_couples(seed=31, count=60, max_q=12):
        G = build_graph(C)
        G.blown_down
        G.mld
    with pytest.raises(AssertionError, match="dense"):
        discrepancies(G)

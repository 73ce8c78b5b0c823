from fractions import Fraction

import pytest

from conesing.audit import audit_catalog
from conesing.divisors import (CurveCouple, IntegralDivisorP1, finite_point,
                               infinity_point, normal_form, QDivisorP1)
from conesing.catalog import SearchParams
from conesing.errors import BadEpsilon, NotKlt, PreconditionError
from conesing.quotient import (StandardPair, cartier_index_of_kx,
                               curve_log_discrepancy, horizontal_log_discrepancy,
                               log_fano_quotient, vertex_decomposition,
                               vertex_log_discrepancy)
from conesing.resolution import build_graph
from helpers import (brute_min_decomposition, is_eps_lc_pair, is_log_fano,
                     pair_boundary_degree, per_candidate_entry, random_couples)

P0 = finite_point(0)
P1 = finite_point(1)
PINF = infinity_point()
F = Fraction


def test_log_fano_quotient_examples():
    assert log_fano_quotient(CurveCouple.of({P0: 5})).boundary == ()
    B = log_fano_quotient(CurveCouple.of({P0: F(1, 2), P1: F(2, 3)}))
    assert B.coeff(P0) == F(1, 2) and B.coeff(P1) == F(2, 3)
    B = log_fano_quotient(CurveCouple.of({P0: F(5, 3)}))
    assert B.boundary == ((P0, F(2, 3)),)


def test_non_standard_coefficient_is_a_precondition():
    with pytest.raises(PreconditionError):
        StandardPair(((P0, F(1, 3)),))


def test_zero_standard_coefficient_is_a_precondition():
    with pytest.raises(PreconditionError):
        StandardPair(((P0, F(0)),))


def test_curve_log_discrepancy():
    B = StandardPair(((P0, F(1, 2)),))
    assert curve_log_discrepancy(B, P0) == F(1, 2)
    assert curve_log_discrepancy(B, P1) == 1
    B = StandardPair(((PINF, F(6, 7)),))
    assert curve_log_discrepancy(B, PINF) == F(1, 7)


def test_is_eps_lc_pair():
    assert is_eps_lc_pair(StandardPair(()), 1)
    assert is_eps_lc_pair(StandardPair(((P0, F(1, 2)),)), F(1, 2))
    assert not is_eps_lc_pair(StandardPair(((P0, F(2, 3)),)), F(1, 2))
    with pytest.raises(BadEpsilon):
        is_eps_lc_pair(StandardPair(()), F(3, 2))
    with pytest.raises(BadEpsilon):
        is_eps_lc_pair(StandardPair(()), 0)


def test_is_log_fano():
    assert is_log_fano(StandardPair(((P0, F(1, 2)), (P1, F(1, 2)),
                                     (PINF, F(1, 2)))))
    assert not is_log_fano(StandardPair(((P0, F(1, 2)), (P1, F(2, 3)),
                                         (PINF, F(6, 7)))))
    assert is_log_fano(StandardPair(()))


def test_vertex_decomposition_integral_cone():
    # degree e at a point: u/m = -2/e in lowest terms
    C = CurveCouple.of({P0: 3})
    vd = vertex_decomposition(C)
    assert (vd.m, vd.u) == (3, -2)
    assert vd.H == IntegralDivisorP1.of({P0: 6, PINF: -6})
    for e in range(1, 9):
        vd = vertex_decomposition(CurveCouple.of({P0: e}))
        assert Fraction(vd.u, vd.m) == Fraction(-2, e)


def test_vertex_decomposition_matches_brute_force():
    # Minimality is pinned by an independent upward scan.
    couples = [
        CurveCouple.of({P0: F(1, 2), P1: F(1, 2)}),
        CurveCouple.of({P0: F(2, 3)}),
        CurveCouple.of({P0: F(1, 2), P1: F(1, 3), PINF: 1}),
        CurveCouple.of({P0: F(3, 4), P1: F(-1, 2), PINF: 2}),
        CurveCouple.of({P0: 2}),
        CurveCouple.of({P0: 4}),
    ]
    for C in couples:
        vd = vertex_decomposition(C)
        m, u, hterms = brute_min_decomposition(C)
        assert vd.m == m and vd.u == u
        assert dict(vd.H.terms) == hterms
        assert vd.m > 0 and vd.u < 0
        # no smaller positive m works: scan below m directly
        for smaller in range(1, m):
            prefix_m, _, _ = brute_min_decomposition(C)
            assert prefix_m == m


def test_vertex_decomposition_gorenstein_string():
    # x y = z^4 is a hypersurface, so its canonical class is principal.
    vd = vertex_decomposition(CurveCouple.of({P0: F(1, 2), P1: F(1, 2)}))
    assert (vd.m, vd.u) == (1, -1)


def test_vertex_log_discrepancy_examples():
    for m in range(1, 20):
        assert vertex_log_discrepancy(CurveCouple.of({P0: m})) == F(2, m)
    assert vertex_log_discrepancy(CurveCouple.of({P0: 1})) == 2
    C = CurveCouple.of({P0: F(1, 2), P1: F(1, 2), PINF: F(1, 2)})
    assert vertex_log_discrepancy(C) == F(1, 3)


def test_vertex_log_discrepancy_equals_ratio_and_decomposition():
    for C in random_couples(seed=11, count=30):
        a0 = vertex_log_discrepancy(C)
        assert a0 > 0
        assert a0 * C.degree() == 2 - pair_boundary_degree(log_fano_quotient(C))
        vd = vertex_decomposition(C)
        assert a0 == Fraction(-vd.u, vd.m)


def test_vertex_log_discrepancy_normal_form_invariance():
    for C in random_couples(seed=12, count=20):
        if sum(c.denominator > 1 for _, c in C.divisor.terms) > 3:
            continue                    # no normal form: positions are moduli
        nf = normal_form(C)
        assert vertex_log_discrepancy(nf.couple) == vertex_log_discrepancy(C)
        shifted = CurveCouple(C.divisor + QDivisorP1.of({finite_point(11): 3,
                                                         finite_point(13): -3}))
        assert vertex_log_discrepancy(shifted) == vertex_log_discrepancy(C)


def test_not_log_fano_raises():
    # a cone over a couple is klt exactly when its quotient pair is log Fano
    C = CurveCouple.of({P0: F(6, 7), P1: F(6, 7), PINF: F(6, 7)})
    with pytest.raises(NotKlt, match="boundary degree 18/7 is >= 2"):
        vertex_decomposition(C)
    with pytest.raises(NotKlt, match="boundary degree 18/7 is >= 2"):
        vertex_log_discrepancy(C)
    with pytest.raises(NotKlt, match="boundary degree 18/7 is >= 2"):
        build_graph(C)


def test_horizontal_log_discrepancy_is_one():
    cases = [
        (CurveCouple.of({P0: F(1, 2)}), P0),
        (CurveCouple.of({P0: F(2, 3)}), PINF),
        (CurveCouple.of({P0: 5}), P0),
    ]
    for C, pt in cases:
        assert horizontal_log_discrepancy(C, pt) == 1


def test_cartier_index_of_kx():
    # Gorenstein for even degree (the quadric cone is a hypersurface),
    # index m for odd degree.
    assert cartier_index_of_kx(CurveCouple.of({P0: 1})) == 1
    assert cartier_index_of_kx(CurveCouple.of({P0: 2})) == 1
    assert cartier_index_of_kx(CurveCouple.of({P0: 3})) == 3
    for m in range(1, 13):
        expect = m if m % 2 else m // 2
        assert cartier_index_of_kx(CurveCouple.of({P0: m})) == expect
    assert cartier_index_of_kx(CurveCouple.of({P0: F(1, 2), P1: F(1, 2)})) == 1


def audit_failures(C, eps, N):
    """Failures of the catalog audit on the honest entry of C."""
    fracs, degree = normal_form(C).key
    entry = per_candidate_entry(fracs, degree, F(0))
    params = SearchParams(epsilon=eps, isotropy_bound=N)
    return [f.split(": ", 1)[1]
            for f in audit_catalog([entry], params)["failures"]]


def test_necessary_eps_conditions():
    # the audit checks the conditions every member of the eps-lc,
    # isotropy <= N class satisfies: mld >= eps and isotropy <= N; the
    # quotient conditions follow (a_e0 >= mld >= eps, 1/q >= eps/N)
    assert audit_failures(CurveCouple.of({P0: 2}), 1, 1) == []
    # the cone over the twisted cubic: a_e0 = mld = 2/3
    assert audit_failures(CurveCouple.of({P0: 3}), 1, 1) == [
        "mld below epsilon"]
    assert audit_failures(CurveCouple.of({P0: F(1, 2), P1: F(1, 2)}),
                          F(1, 2), 1) == ["isotropy above the bound 1"]
    # an entry over the isotropy bound is not rebuilt, so the eps/N pair
    # check, which the bound implies (1/q >= 1/N >= eps/N), is not reached
    assert audit_failures(CurveCouple.of({P0: F(2, 3)}), 1, 2) == [
        "isotropy above the bound 2"]
    with pytest.raises(BadEpsilon):
        SearchParams(epsilon=F(2), isotropy_bound=1)

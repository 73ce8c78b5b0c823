import contextlib
import io
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conesing import catalog, cli, resolution
from conesing.divisors import (CurveCouple, finite_point,
                               infinity_point)
from conesing.errors import InternalInvariantError, NotKlt, PreconditionError
from conesing.linalg import det_int
from conesing.quotient import vertex_log_discrepancy
from conesing.resolution import build_graph, hj_chain, hj_chain_length
from helpers import (POSITIONS, chart_cone, discrepancies, divisor_degree,
                     fraction_star_graph, intersection_matrix,
                     is_negative_definite, lattice_mld, random_couples)

GOLDEN = Path(__file__).resolve().parent / "golden"

P0 = finite_point(0)
P1 = finite_point(1)
PINF = infinity_point()
F = Fraction


def C(terms):
    return CurveCouple.of(terms)


# ---------------------------------------------------------------------------
# local cones and chains
# ---------------------------------------------------------------------------

def test_local_cone_examples():
    assert chart_cone(C({P0: F(1, 2)}), P0) == (2, 1)
    assert chart_cone(C({P0: F(2, 3)}), P0) == (3, 2)
    # an integral point has the smooth chart, which has no chain
    with pytest.raises(PreconditionError):
        hj_chain(*chart_cone(C({P0: 1}), P0))
    # only the fractional part matters
    assert chart_cone(C({P0: F(5, 3)}), P0) == (3, 2)
    assert chart_cone(C({P0: F(-1, 2), P1: 1}), P0) == (2, 1)


def test_bad_cone_data_is_a_precondition():
    # (1, 1) is the smooth chart of an integral point
    for q, p in ((3, 0), (2, 3), (4, 2), (1, 1)):
        with pytest.raises(PreconditionError, match="bad cone data"):
            hj_chain(q, p)
        with pytest.raises(PreconditionError, match="bad cone data"):
            hj_chain_length(q, p)


def cf_expand(a, b):
    """Ceiling continued fraction of a/b, independent reference."""
    out = []
    while b:
        c = -(-a // b)
        out.append(c)
        a, b = b, c * b - a
    return out


def hull_chain(q, p):
    """Direct lattice-hull oracle: walk the boundary of the convex hull
    of the nonzero lattice points of the cone spanned by (0,1), (q,p)."""
    def in_cone(x, y):
        # (x, y) = s(0,1) + t(q,p): t = x/q, s = y - x p / q
        return x >= 0 and q * y - p * x >= 0

    pts = [(x, y) for x in range(0, 2 * q + 1)
           for y in range(0, 2 * q + 2) if (x, y) != (0, 0) and in_cone(x, y)]
    hull = [(0, 1)]
    current = (0, 1)
    while current != (q, p):
        best = None
        for cand in pts:
            if cand == current or cand[0] < current[0]:
                continue
            if best is None:
                best = cand
                continue
            cross = (cand[0] - current[0]) * (best[1] - current[1]) - \
                    (cand[1] - current[1]) * (best[0] - current[0])
            if cross > 0 or (cross == 0 and abs(cand[0] - current[0]) <
                             abs(best[0] - current[0])):
                best = cand
        hull.append(best)
        current = best
    cs = []
    for i in range(1, len(hull) - 1):
        a, m, b = hull[i - 1], hull[i], hull[i + 1]
        s = (a[0] + b[0], a[1] + b[1])
        assert s[0] == -(-s[0] // m[0] if m[0] else 0) * m[0] or True
        c = (a[0] + b[0]) // m[0] if m[0] else (a[1] + b[1]) // m[1]
        assert (c * m[0], c * m[1]) == s
        cs.append(-c)
    return cs


@pytest.mark.parametrize("q,p,expected", [
    (2, 1, (-2,)),
    (3, 2, (-3,)),
    (3, 1, (-2, -2)),
    (5, 3, (-3, -2)),
    (5, 2, (-2, -3)),
    (9, 2, (-2, -2, -2, -3)),
    (7, 5, (-4, -2)),
])
def test_hj_chain_frozen(q, p, expected):
    assert hj_chain(q, p) == expected


@pytest.mark.parametrize("q", range(2, 13))
def test_hj_chain_against_hull_oracle(q):
    from math import gcd
    for p in range(1, q):
        if gcd(p, q) != 1:
            continue
        chain = hj_chain(q, p)
        assert list(chain) == hull_chain(q, p)
        # continued fraction of q/(q-p), and the continuant recovers q
        assert [-c for c in chain] == cf_expand(q, q - p)
        mat = [[chain[i] if i == j else (1 if abs(i - j) == 1 else 0)
                for j in range(len(chain))] for i in range(len(chain))]
        assert abs(det_int(mat)) == q


# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------

def test_build_graph_single_vertex():
    for m in range(1, 8):
        G = build_graph(C({P0: m}))
        assert G.central_self_int == -m
        assert G.chains == ()
        assert G.determinant == m


def test_build_graph_a3():
    G = build_graph(C({P0: F(1, 2), P1: F(1, 2)}))
    assert G.central_self_int == -2
    assert G.chains == ((-2,), (-2,))
    assert G.determinant == 4
    assert G.discrepancies == (F(0), F(0), F(0))


def test_build_graph_checks_its_determinant_against_the_closed_form(
        monkeypatch):
    # continuants scaled by 2 keep every alpha, beta and discrepancy, so
    # only the determinant read off them is wrong: with two chains it is
    # 4 deg D prod q_i = 4 (5/6) 6
    solve = resolution._chain_elimination

    def doubled(q, p):
        chain, cs, u1, u2, w1 = solve(q, p)
        return chain, cs, 2 * u1, 2 * u2, 2 * w1

    monkeypatch.setattr(resolution, "_chain_elimination", doubled)
    with pytest.raises(InternalInvariantError,
                       match=r"link determinant 20 is not deg D prod q_i = 5"):
        build_graph(C({P0: F(1, 2), PINF: F(1, 3), P1: 0}))


def test_build_graph_three_half_points():
    G = build_graph(C({P0: F(1, 2), P1: F(1, 2), PINF: F(1, 2)}))
    assert G.central_self_int == -3
    assert G.chains == ((-2,), (-2,), (-2,))
    assert G.discrepancies[0] == F(-2, 3)


def test_build_graph_rejects_non_klt():
    with pytest.raises(NotKlt):
        build_graph(C({P0: F(6, 7), P1: F(6, 7), PINF: F(6, 7)}))


@st.composite
def coprime_cones(draw):
    q = draw(st.integers(2, 3000))
    p = draw(st.integers(1, q - 1).filter(lambda p: gcd(p, q) == 1))
    return q, p


@given(coprime_cones())
def test_chain_length_from_runs_is_the_chain_length(cone):
    assert hj_chain_length(*cone) == len(hj_chain(*cone))


def test_chain_length_is_logarithmic_in_q():
    # q/1 is a run of q - 1 twos and (q^2 + 1)/q is [q + 1, 2, ..., 2]
    q = 10**300
    assert hj_chain_length(q, 1) == q - 1
    assert hj_chain_length(q * q + 1, q * q + 1 - q) == q


def test_chain_above_the_cap_is_a_precondition(monkeypatch):
    cone = (5, 1)                           # [-2, -2, -2, -2]
    monkeypatch.setattr(resolution, "CHAIN_LENGTH_MAX", 4)
    assert hj_chain(*cone) == (-2, -2, -2, -2)
    monkeypatch.setattr(resolution, "CHAIN_LENGTH_MAX", 3)
    with pytest.raises(PreconditionError,
                       match="chain length 4 .* exceeds CHAIN_LENGTH_MAX = 3"):
        hj_chain(*cone)


@st.composite
def klt_couples(draw):
    """Couples with at most three fractional points of denominator at
    most 40, at drawn positions, with drawn integral parts."""
    fracs = [f for f in (F(draw(st.integers(1, q - 1)), q) for q in
                         draw(st.lists(st.integers(2, 40), max_size=3)))
             if f.denominator > 1]
    assume(sum(1 - F(1, f.denominator) for f in fracs) < 2)
    points = draw(st.permutations(POSITIONS))
    terms = [(pt, f + draw(st.integers(-3, 3)))
             for pt, f in zip(points, fracs)]
    terms.append((points[3], draw(st.integers(-4, 6))))
    assume(divisor_degree(terms) > 0)
    return CurveCouple.of(terms)


@given(klt_couples())
def test_chains_are_those_of_the_chart_cones(Cp):
    # the chart cone of each fractional point, found by a scan of the
    # terms, against the pair build_graph reads off the point's own term
    frac = sorted((pt for pt, c in Cp.terms if c.denominator > 1),
                  key=lambda pt: pt.sort_key())
    assert build_graph(Cp).chains == tuple(hj_chain(*chart_cone(Cp, pt))
                                           for pt in frac)


@given(klt_couples())
def test_integer_graph_matches_the_fraction_elimination(Cp):
    G = build_graph(Cp)
    chains, disc, mld = fraction_star_graph(Cp)
    den = G.denominator
    assert G.chains == chains
    # a_e0 and the mld as audit reads them
    assert F(den + G.numerators[0], den) == 1 + disc[0]
    assert G.mld == mld
    assert G.discrepancies == disc
    assert G.size == len(G.discrepancies)


def test_build_graph_does_not_call_the_catalog(monkeypatch):
    # build_graph is audit's oracle of the catalog's entries: it must
    # give the same graphs with the catalog's chain solver and entry
    # builder out of reach
    couples = random_couples(seed=27, count=40, max_q=40)
    expected = [fraction_star_graph(Cp) for Cp in couples]

    def refuse(*args):
        raise AssertionError("build_graph called the catalog")

    monkeypatch.setattr(catalog, "_chain_solve", refuse)
    monkeypatch.setattr(catalog, "_type_member", refuse)
    for Cp, want in zip(couples, expected):
        G = build_graph(Cp)
        assert (G.chains, G.discrepancies, G.mld) == want
    for name in ("A1", "A3", "D4", "E6", "chain200"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["resolve", "--couple",
                             str(GOLDEN / "couples" / f"{name}.json")])
        assert code == 0
        assert out.getvalue() == (GOLDEN / f"resolve_{name}.json").read_text(
            encoding="utf-8")


def test_dense_solve_agrees_with_chain_elimination():
    for Cp in random_couples(seed=21, count=40):
        G = build_graph(Cp)
        assert discrepancies(G) == G.discrepancies


def test_matrix_negative_definite():
    for Cp in random_couples(seed=22, count=30, max_q=9):
        G = build_graph(Cp)
        assert is_negative_definite(intersection_matrix(G))


def test_central_self_intersection_closed_form():
    # b0 = sum of floors + number of fractional points
    for Cp in random_couples(seed=23, count=40):
        G = build_graph(Cp)
        b0 = sum(c.numerator // c.denominator for _, c in Cp.terms) + \
            sum(1 for _, c in Cp.terms if c.denominator > 1)
        assert G.central_self_int == -b0


def test_discrepancy_examples():
    for m in range(2, 9):
        G = build_graph(C({P0: m}))
        assert G.discrepancies == (F(2 - m, m),)
    G = build_graph(C({P0: 2}))
    assert G.discrepancies == (F(0),)


def mld_vertex(terms):
    return build_graph(C(terms)).mld


def test_mld_examples():
    assert mld_vertex({P0: 1}) == 2
    assert mld_vertex({P0: 2}) == 1
    for m in range(2, 12):
        assert mld_vertex({P0: m}) == F(2, m)
    assert mld_vertex({P0: F(1, 2), P1: F(1, 2)}) == 1
    assert mld_vertex({P0: F(1, 2)}) == 2          # weighted plane, smooth
    assert mld_vertex({P0: F(2, 3)}) == 1          # quadric cone again
    assert mld_vertex({P0: F(1, 2), P1: F(1, 2), PINF: F(1, 2)}) == F(1, 3)


def test_vertex_log_discrepancy_matches_graph():
    for Cp in random_couples(seed=24, count=60):
        G = build_graph(Cp)
        assert 1 + G.discrepancies[0] == vertex_log_discrepancy(Cp)


def test_blow_down():
    bd = build_graph(C({P0: F(1, 2)})).blown_down
    assert bd.empty
    bd = build_graph(C({P0: F(1, 3)})).blown_down
    assert bd.empty
    bd = build_graph(C({P0: 2})).blown_down
    assert bd.self_intersections == (-2,)
    bd = build_graph(C({P0: F(2, 3)})).blown_down
    assert bd.self_intersections == (-2,)
    # the D4 configuration survives untouched
    G = build_graph(C({P0: F(-1, 2), P1: F(1, 2), PINF: F(1, 2)}))
    bd = G.blown_down
    assert sorted(bd.self_intersections) == [-2, -2, -2, -2]
    # the graph computes its own blow-down once
    assert G.blown_down == bd and G.blown_down is G.blown_down


def test_germ_mld_matches_chain_germ():
    # Independent check: solve the chain adjunction system of the germ
    # spanned by (0,1), (q,p) alone and compare with the lattice-grid
    # enumeration on the same rank-2 cone.
    from math import gcd
    from conesing.linalg import solve
    for q in range(2, 11):
        for p in range(1, q):
            if gcd(p, q) != 1:
                continue
            chain = hj_chain(q, p)
            k = len(chain)
            mat = [[chain[i] if i == j else (1 if abs(i - j) == 1 else 0)
                    for j in range(k)] for i in range(k)]
            rhs = [F(-e - 2) for e in chain]
            status, d = solve(mat, rhs)
            assert status == "unique"
            rays = ((0, 1), (q, p))
            status, form = solve([list(r) for r in rays], [F(1), F(1)])
            assert status == "unique"
            assert lattice_mld(rays, tuple(form)) == 1 + min(d)


def test_is_eps_lc_x():
    # X is eps-lc exactly when the vertex mld is at least eps: the vertex
    # is the only singular point of a cone surface
    for m in range(1, 10):
        for eps in (F(1), F(1, 2), F(1, 3)):
            expected = (m == 1) or (F(2, m) >= eps)
            assert (mld_vertex({P0: m}) >= eps) == expected
    assert mld_vertex({P0: F(1, 2), P1: F(1, 2)}) >= 1
    # not klt at all, so not eps-lc for any eps
    with pytest.raises(NotKlt):
        build_graph(C({P0: F(6, 7), P1: F(6, 7), PINF: F(6, 7)}))
    # membership reads the vertex mld only: (2/3)[0] is A1, mld 1, then
    # A2 and a smooth point, although the chart germ of the partial
    # resolution over a 2/3 point has mld 2/3
    assert mld_vertex({P0: F(2, 3)}) == 1
    for terms, mld in (({P0: F(2, 3), P1: F(2, 3), PINF: -1}, 1),
                       ({P0: F(2, 3), P1: F(1, 2), PINF: -1}, 2)):
        assert mld_vertex(terms) == mld


def test_link_determinants():
    assert build_graph(C({P0: 5})).determinant == 5
    assert build_graph(C({P0: F(1, 2), P1: F(1, 2)})).determinant == 4
    # D4 star
    G = build_graph(C({P0: F(-1, 2), P1: F(1, 2), PINF: F(1, 2)}))
    assert G.central_self_int == -2
    assert G.determinant == 4
    # smooth couples have unimodular graphs
    assert build_graph(C({P0: F(1, 2)})).determinant == 1


def test_canonical_entries_are_du_val():
    # eps = 1 with nonempty blow-down forces every self-intersection -2
    for Cp in random_couples(seed=25, count=80, max_q=6):
        G = build_graph(Cp)
        if G.mld < 1:
            continue
        bd = G.blown_down
        if not bd.empty:
            assert all(s == -2 for s in bd.self_intersections)

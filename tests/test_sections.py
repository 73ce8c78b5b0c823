import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from conesing import hilbert, linalg, sections
from conesing.divisors import (CurveCouple, finite_point, floor_multiple,
                               infinity_point, label_point)
from conesing.errors import (BoundTooSmall, InternalInvariantError, NotAmple,
                             PreconditionError)
from conesing.jsonio import couple_from_json
from conesing.hilbert import hilbert_series
from conesing.sections import (SectionSpace, _monomials,
                               default_presentation_bound, presentation)
from helpers import (evaluation_kernel_dims, h0, multiplication_rank,
                     random_couples, scanned_generators, support)

P0 = finite_point(0)
P1 = finite_point(1)
PINF = infinity_point()
F = Fraction


def test_h0_examples():
    C = CurveCouple.of({P0: 1})
    for n in range(10):
        assert h0(C, n) == n + 1
    C = CurveCouple.of({P0: F(1, 2), P1: F(1, 2)})
    for n in range(20):
        assert h0(C, n) == 2 * (n // 2) + 1
    C = CurveCouple.of({P0: F(1, 2), PINF: -1, P1: F(3, 4)})
    assert h0(C, 1) == 0


def test_hilbert_series_closed_forms():
    hd = hilbert_series(CurveCouple.of({P0: 1}))
    assert hd.numerator == (1,) and hd.period == 1
    hd = hilbert_series(CurveCouple.of({P0: F(1, 2), P1: F(1, 2)}))
    assert hd.numerator == (1, 0, 1) and hd.period == 2
    hd = hilbert_series(CurveCouple.of({P0: 2}))
    assert hd.numerator == (1, 1) and hd.period == 1


@pytest.mark.parametrize("terms", [
    {P0: 1}, {P0: 2}, {P0: F(1, 2), P1: F(1, 2)},
    {P0: F(2, 3)}, {P0: F(2, 3), P1: F(4, 5)},
    {P0: F(-1, 2), P1: F(1, 3), PINF: F(1, 4)},
    {P0: F(1, 6), PINF: F(1, 6)},
])
def test_hilbert_series_matches_h0(terms):
    C = CurveCouple.of(terms)
    hd = hilbert_series(C)
    assert hd.expansion(59) == [h0(C, n) for n in range(60)]


# (q, p, e): the coefficient p/q + e after reducing p mod q
PARTS = st.tuples(st.integers(2, 9), st.integers(1, 8), st.integers(-3, 2))


@given(st.lists(PARTS, min_size=1, max_size=4))
# (-1/3)[0] + (-1/3)[1] + (7/9)[inf]: deg floor(D) = -2, so h(1) is clamped
@example([(3, 2, -1), (3, 2, -1), (9, 7, 0)])
def test_series_expansion_equals_the_direct_values_past_its_check(parts):
    # hilbert --through reads its values off the expansion, which the
    # series checks only through 3L + n0
    positions = (P0, P1, PINF, finite_point(2))
    try:
        C = CurveCouple.of({pos: F(p % q, q) + e
                            for pos, (q, p, e) in zip(positions, parts)})
    except NotAmple:
        assume(False)
    hd = hilbert_series(C)
    through = 5 * hd.period + 60
    assert hd.expansion(through) == hilbert.hilbert_values(C, through)


def test_section_basis_examples():
    # the canonical basis of degree n is t^j / (pole polynomial of
    # floor(nD)), j <= deg floor(nD); a bound at infinity is carried by
    # the numerator degree
    space = SectionSpace(CurveCouple.of({PINF: 1}))
    assert space.dim(1) == 2
    assert dict(floor_multiple(space.couple, 1)) == {PINF: 1}
    assert space.floor_data(1) == {"deg": 1, "fin": {}}

    space = SectionSpace(CurveCouple.of({P0: F(1, 2)}))
    assert space.dim(2) == 2
    assert dict(floor_multiple(space.couple, 2)) == {P0: 1}
    assert space.floor_data(2) == {"deg": 1, "fin": {0: 1}}

    space = SectionSpace(CurveCouple.of({P0: F(1, 2), P1: F(1, 2)}))
    assert space.dim(2) == 3
    assert dict(floor_multiple(space.couple, 2)) == {P0: 1, P1: 1}
    assert space.floor_data(2) == {"deg": 2, "fin": {0: 1, 1: 1}}


def test_section_basis_with_labels():
    space = SectionSpace(CurveCouple.of({label_point("p"): F(1, 2),
                                         label_point("q"): F(1, 2)}))
    assert space.dim(2) == 3
    assert all(p.kind != "lbl" for p in support(space.couple))


def test_multiplication_rank_examples():
    assert multiplication_rank(CurveCouple.of({P0: 1}), 1, 1) == (3, 0)
    assert multiplication_rank(
        CurveCouple.of({P0: F(1, 2), P1: F(1, 2)}), 1, 1) == (1, 2)
    # h(1) = 3 for degree 2, so the image is all of the 5-dimensional target
    assert multiplication_rank(CurveCouple.of({P0: 2}), 1, 1) == (5, 0)


def test_multiplication_rank_consistency():
    for terms in ({P0: F(2, 3)}, {P0: F(1, 2), PINF: F(1, 3)}, {P0: 3}):
        C = CurveCouple.of(terms)
        for a in range(1, 6):
            for b in range(1, 6):
                r, cok = multiplication_rank(C, a, b)
                assert r + cok == h0(C, a + b)
                if h0(C, a) and h0(C, b):
                    assert r == h0(C, a) + h0(C, b) - 1


def test_presentation_polynomial_ring():
    pres = presentation(CurveCouple.of({P0: 1}))
    assert pres["generators"] == [1, 1]
    assert pres["relations"] == []
    assert pres["equations"] == []


def test_presentation_quadric_cone():
    pres = presentation(CurveCouple.of({P0: 2}))
    assert pres["generators"] == [1, 1, 1]
    assert pres["relations"] == [2]
    assert len(pres["equations"]) == 1
    # the equation is the rank-3 quadric x z = y^2 in the monomial basis
    assert pres["equations"][0] in ("x*z - y**2", "y**2 - x*z")


def _structural_a_series(pres, n):
    """The relation must be (deg-n gen)*(deg-n gen) = (deg-1 gen)^{2n}."""
    assert pres["generators"] == ([1, n, n] if n > 1 else [1, 1, 1])
    assert pres["relations"] == [2 * n]
    assert len(pres["equations"]) == 1


def brute_monoid_presentation(n, bound):
    """Independent oracle for the couple (1/n)[0] + (1/n)[inf]: the ring
    is the monoid algebra on {(a, k): |a| <= floor(k/n)}; generators are
    the indecomposables, the relation count in each degree follows from
    pair collisions."""
    elems = [(a, k) for k in range(1, bound + 1)
             for a in range(-(k // n), k // n + 1)]
    elem_set = set(elems)
    gens = []
    for (a, k) in elems:
        dec = False
        for (b, j) in elems:
            if j < k and (a - b, k - j) in elem_set:
                dec = True
                break
        if not dec:
            gens.append((a, k))
    return sorted(k for _, k in gens)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_presentation_a_series(n):
    C = CurveCouple.of({P0: F(1, n), PINF: F(1, n)})
    pres = presentation(C, gen_bound=2 * n + 2, rel_bound=2 * n + 2)
    assert brute_monoid_presentation(n, 3 * n + 2) == pres["generators"]
    _structural_a_series(pres, n)
    # exponent structure of the single equation: one term mixes the two
    # degree-n generators, the other is the 2n-th power of the degree-1 one
    eq = pres["equations"][0]
    assert eq.count("*") >= 1


def test_presentation_linear_equivalence_invariance():
    a = presentation(CurveCouple.of({P0: F(1, 2), P1: F(1, 2)}))
    b = presentation(CurveCouple.of({P0: F(1, 2), PINF: F(1, 2)}))
    assert a["generators"] == b["generators"] == [1, 2, 2]
    assert a["relations"] == b["relations"] == [4]


def test_presentation_bound_too_small():
    C = CurveCouple.of({P0: F(1, 6), PINF: F(1, 6)})
    with pytest.raises(BoundTooSmall):
        presentation(C, gen_bound=3, rel_bound=3)


def test_presentation_refuses_rel_bound_below_forced_relation():
    # generators in degrees 1, 2, 2: the Hilbert series forces one
    # relation, in degree 4
    C = CurveCouple.of({P0: F(1, 2), P1: F(1, 2)})
    for rel_bound in (2, 3):
        with pytest.raises(BoundTooSmall):
            presentation(C, gen_bound=8, rel_bound=rel_bound)
    assert presentation(C, gen_bound=8, rel_bound=4)["relations"] == [4]


def test_embedding_dimension_and_smoothness():
    # the generator count at the default bound; a two-dimensional cone is
    # smooth exactly when two generators suffice
    def embdim(terms):
        C = CurveCouple.of(terms)
        return len(scanned_generators(C, default_presentation_bound(C)))

    assert embdim({P0: 1}) == 2
    assert embdim({P0: 2}) == 3
    assert embdim({P0: F(1, 2), P1: F(1, 2)}) == 3
    assert embdim({P0: F(1, 2)}) == 2
    # the quadric cone again, reached through a fractional coefficient
    assert embdim({P0: F(2, 3)}) == 3


def test_presentation_saturation_certificate():
    C = CurveCouple.of({P0: F(2, 3), P1: F(4, 5)})
    # the generated subalgebra reproduces h through twice the bound,
    # else the scan raises BoundTooSmall
    assert scanned_generators(C, 20) == (1, 2, 2, 3, 3, 4, 5)
    hd = hilbert_series(C)
    assert hd.expansion(40) == [h0(C, n) for n in range(41)]
    pres = presentation(CurveCouple.of({P0: F(1, 2), P1: F(1, 2)}),
                        gen_bound=5, rel_bound=7)
    assert pres["verified_through"] == 14


@given(st.integers(0, 10**6))
def test_relation_kernel_is_monomials_minus_dimension(seed):
    # the spanning certificate fixes the kernel of the evaluation map;
    # the oracle eliminates every degree's evaluations to get it
    C = random_couples(seed, 1, max_q=6, max_degree=3)[0]
    try:
        pres = presentation(C, gen_bound=8, rel_bound=8)
    except BoundTooSmall:
        assume(False)
    degrees = pres["generators"]
    space = SectionSpace(C)
    expected = {n: len(_monomials(degrees, n)) - space.dim(n)
                for n in range(2, 9) if len(_monomials(degrees, n)) >= 2}
    assert evaluation_kernel_dims(C, 8, 8) == expected


def test_presentation_certifies_the_kernel_dimension(monkeypatch):
    nullspace = linalg.nullspace
    monkeypatch.setattr(linalg, "nullspace", lambda rows: nullspace(rows)[:-1])
    with pytest.raises(InternalInvariantError, match="spanning certificate"):
        presentation(CurveCouple.of({P0: F(1, 2), P1: F(1, 2)}))


def test_period_above_the_cap_is_a_precondition(monkeypatch):
    C = CurveCouple.of({P0: F(1, 2), P1: F(1, 3)})    # L = 6
    monkeypatch.setattr(hilbert, "PERIOD_MAX", 6)
    assert hilbert_series(C).period == 6
    assert presentation(C)["generators"]
    monkeypatch.setattr(hilbert, "PERIOD_MAX", 5)
    for compute in (hilbert_series, presentation):
        with pytest.raises(PreconditionError,
                           match="period L = 6 exceeds PERIOD_MAX = 5"):
            compute(C)


GOLDEN_COUPLES = Path(__file__).resolve().parent / "golden" / "couples"


def golden_couple(name):
    return couple_from_json(json.loads(
        (GOLDEN_COUPLES / f"{name}.json").read_text(encoding="utf-8")))


def test_section_linear_algebra_stays_on_int(monkeypatch):
    # on the canonical placement every numerator is integral, so every
    # vector handed to a RowSpan, every stored row, and every generator
    # and basis vector of the scan is an int: a stray Fraction(0) seed
    # would leave Fractions behind
    spans, scans = [], []
    add, run = linalg.RowSpan.add, sections._GeneratorScan.run

    def recording_add(self, vec):
        spans.append((self, vec))
        return add(self, vec)

    def recording_run(self, *args):
        scans.append(self)
        return run(self, *args)

    monkeypatch.setattr(linalg.RowSpan, "add", recording_add)
    monkeypatch.setattr(sections._GeneratorScan, "run", recording_run)
    presentation(golden_couple("D4"))
    presentation(golden_couple("E6"), gen_bound=12, rel_bound=12)
    assert scanned_generators(golden_couple("A3"), 8) == (1, 2, 2)
    assert len(scans) == 3 and spans

    def all_int(values):
        return all(type(c) is int for c in values)

    for span, vec in spans:
        assert all_int(vec.values() if isinstance(vec, dict) else vec)
        assert all(all_int(row.values()) for row in span.rows.values())
    for scan in scans:
        assert all(all_int(v) for _, v in scan.gens)
        assert all(all_int(v) for vs in scan.basis.values() for v in vs)


def test_hilbert_values_memory_is_linear_in_through():
    import tracemalloc
    # 20 points: one floor column per point held at once peaked at
    # about 16 MB here
    C = CurveCouple.of({finite_point(k): F(2 * k + 1, 7) for k in range(20)})
    tracemalloc.start()
    try:
        values = hilbert.hilbert_values(C, 20000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    for n in (0, 1, 6, 7, 12345, 20000):
        assert values[n] == max(0, sum(n * (2 * k + 1) // 7
                                       for k in range(20)) + 1)


def test_presentation_command_computes_the_hilbert_series_once(monkeypatch,
                                                                capsys):
    # the presentation needs the series for the forced relation degree of
    # three generators, and returns it in the object the command prints
    from conesing import cli
    calls = []
    series = hilbert.hilbert_series

    def counting(C):
        calls.append(C)
        return series(C)

    for mod in (hilbert, sections):
        monkeypatch.setattr(mod, "hilbert_series", counting)
    golden = GOLDEN_COUPLES.parent / "presentation_E6.json"
    code = cli.main(["presentation", "--couple",
                     str(GOLDEN_COUPLES / "E6.json"), "--gen-bound", "12",
                     "--rel-bound", "12"])
    assert code == 0 and len(calls) == 1
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")
    pres = presentation(golden_couple("E6"), gen_bound=12, rel_bound=12)
    assert len(calls) == 2
    assert pres["series"] == series(golden_couple("E6")).to_json()

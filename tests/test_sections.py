import json
import re
from fractions import Fraction
from math import floor, gcd, lcm
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conesing import hilbert, linalg, sections
from conesing.divisors import (CurveCouple, finite_point, floor_multiple,
                               infinity_point, label_point)
from conesing.errors import InternalInvariantError, PreconditionError
from conesing.jsonio import couple_from_json
from conesing.hilbert import hilbert_series
from conesing.sections import SectionSpace, _monomials, presentation
from helpers import (POSITIONS, default_presentation_bound,
                     evaluation_kernel_dims, h0, multiplication_rank,
                     random_couples, saturated_presentation,
                     scanned_generators, support)

P0 = finite_point(0)
P1 = finite_point(1)
PINF = infinity_point()
F = Fraction
GOLDEN_COUPLES = Path(__file__).resolve().parent / "golden" / "couples"
# the refusals of a presentation search whose bounds are too small to
# certify its answer
BOUND_TOO_SMALL = (r"generators through degree \d+ do not span|"
                   r"(generator|relation) bound \d+ (finds|is below)")


def golden_couple(name):
    return couple_from_json(json.loads(
        (GOLDEN_COUPLES / f"{name}.json").read_text(encoding="utf-8")))


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
    except PreconditionError as exc:
        assert str(exc).endswith("is not positive")
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
    with pytest.raises(PreconditionError, match="generator bound 3 finds 1 "
                       "generators, below embedding dimension 3"):
        presentation(C, gen_bound=3, rel_bound=3)


def test_presentation_refuses_rel_bound_below_forced_relation():
    # generators in degrees 1, 2, 2: the Hilbert series forces one
    # relation, in degree 4
    C = CurveCouple.of({P0: F(1, 2), P1: F(1, 2)})
    for rel_bound in (2, 3):
        with pytest.raises(PreconditionError, match="relation bound "
                           f"{rel_bound} finds 0 relations, below Wahl's"):
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
    # else the scan raises a PreconditionError
    assert scanned_generators(C, 20) == (1, 2, 2, 3, 3, 4, 5)
    hd = hilbert_series(C)
    assert hd.expansion(40) == [h0(C, n) for n in range(41)]
    # the scan stops at Artin's count, here at the third generator
    pres = presentation(CurveCouple.of({P0: F(1, 2), P1: F(1, 2)}),
                        gen_bound=5, rel_bound=7)
    assert pres["verified_through"] == 2


def certificate_degree(C):
    """n0 + L - 1: every degree above it is the degree-L piece times a
    lower one."""
    return hilbert.nonnegative_from(C) + hilbert_series(C).period - 1


@st.composite
def small_period_couples(draw, klt):
    """Couples of degree below 1 whose denominators have lcm L <= 12:
    klt ones with up to three fractional points, and ones that are not
    klt with three or four, whose denominators divide 6.  This keeps the
    saturation scan and its relation search under a second."""
    if klt:
        qs = draw(st.lists(st.integers(2, 12), max_size=3))
        # three points are klt only for platonic denominators, which all
        # include a 2
        qs[:1] = [2] if len(qs) == 3 else qs[:1]
    else:
        qs = draw(st.lists(st.sampled_from([2, 3, 6]), min_size=3,
                           max_size=4))
    assume(lcm(*qs) <= 12)
    assume((sum(1 - F(1, q) for q in qs) < 2) == klt)
    positions = draw(st.permutations(POSITIONS))
    terms = {pos: F(draw(st.sampled_from([p for p in range(1, q)
                                          if gcd(p, q) == 1])), q)
             + draw(st.integers(-1, 1)) for pos, q in zip(positions, qs)}
    total = sum(terms.values(), F(0))
    terms[positions[len(qs)]] = -floor(total)
    assume(sum(terms.values(), F(0)) > 0)
    return CurveCouple.of(terms)


def presented(pres):
    return pres["generators"], pres["relations"], pres["equations"]


@settings(max_examples=40)
@given(small_period_couples(klt=True), st.integers(1, 40))
@example(golden_couple("E8"), 4)
@example(CurveCouple.of({P0: F(1, 2), P1: F(-1, 3), finite_point(3): F(1, 3),
                         finite_point(5): 2}), 2)
def test_klt_presentation_matches_the_saturation_scan(C, gen_bound):
    # the scan stops at Artin's count and the relation search at Wahl's;
    # the old path, with no count to stop at, saturates through twice
    # its bounds and lists every minimal relation through rel_bound
    pres = presentation(C)
    c = certificate_degree(C)
    top = 2 * max(pres["generators"])
    assert pres["verified_through"] == max(pres["generators"]) <= c
    assert max(pres["relations"], default=2) <= top
    assert presented(pres) == presented(saturated_presentation(C, c, top))
    assert presented(presentation(C, gen_bound=c, rel_bound=top)) == \
        presented(pres)
    # any gen_bound either refuses or finds the same generators
    try:
        capped = presentation(C, gen_bound=gen_bound, rel_bound=top)
    except PreconditionError as exc:
        assert re.match(BOUND_TOO_SMALL, str(exc))
        assert gen_bound < max(pres["generators"])
    else:
        assert presented(capped) == presented(pres)


@settings(max_examples=25)
@given(small_period_couples(klt=False), st.integers(0, 3))
def test_non_klt_presentation_matches_the_saturation_scan(C, extra):
    c = certificate_degree(C)
    degrees = scanned_generators(C, c)
    rel_bound = 2 * max(degrees)
    if len(degrees) == 3:
        # a hypersurface's one relation may lie above twice the top
        # generator degree when the couple is not klt
        rel_bound = max(rel_bound, sections._hypersurface_relation_degree(
            hilbert_series(C), list(degrees)))
    pres = presentation(C, gen_bound=c + extra, rel_bound=rel_bound)
    assert pres["verified_through"] == c
    assert presented(pres) == presented(
        saturated_presentation(C, c + extra, rel_bound))
    assert tuple(pres["generators"]) == degrees


def test_relations_through_states_the_cap_of_a_non_klt_list():
    # deg B = 3 (2/3) = 2, so no count ends the relation search
    C = CurveCouple.of({P0: F(2, 3), P1: F(2, 3), PINF: F(2, 3)})
    assert presentation(C, gen_bound=4, rel_bound=6)["relations_through"] == 6
    # --rel-bound defaults to --gen-bound
    assert presentation(C, gen_bound=4)["relations_through"] == 4
    # on a klt couple Wahl's count certifies the list
    assert "relations_through" not in presentation(
        CurveCouple.of({P0: F(1, 2), P1: F(1, 2)}), gen_bound=5, rel_bound=7)


def toric_generator_degrees(c0, c_inf):
    """The n-degrees of the Hilbert basis of the semigroup
    {(n, m) : -floor(n c0) <= m <= floor(n c_inf)}, by brute force.  The
    basis lies in the parallelogram of the primitive rays (q0, -p0) and
    (q_inf, p_inf), so n <= q0 + q_inf.  An element (n, m) is a sum of
    two elements exactly when, for some split n = a + b, m lies in
    [lo(a) + lo(b), hi(a) + hi(b)] with both pieces nonempty."""
    top = c0.denominator + c_inf.denominator
    lo = [-floor(n * c0) for n in range(top + 1)]
    hi = [floor(n * c_inf) for n in range(top + 1)]
    degrees = []
    for n in range(1, top + 1):
        sums = [(lo[a] + lo[n - a], hi[a] + hi[n - a])
                for a in range(1, n // 2 + 1)
                if lo[a] <= hi[a] and lo[n - a] <= hi[n - a]]
        degrees += [n] * sum(
            1 for m in range(lo[n], hi[n] + 1)
            if not any(low <= m <= high for low, high in sums))
    return degrees


@st.composite
def two_point_couples(draw):
    """Couples with at most two fractional points and L <= 30, whose
    toric basis has at most five elements: above that the relation
    search of presentation takes seconds to minutes."""
    qs = draw(st.lists(st.integers(1, 30), min_size=1, max_size=2))
    assume(lcm(*qs) <= 30)
    terms = {pos: F(draw(st.integers(-q, 2 * q)), q)
             for pos, q in zip(draw(st.permutations(POSITIONS)), qs)}
    terms[POSITIONS[7]] = F(draw(st.integers(-2, 2)))
    assume(sum(terms.values(), F(0)) > 0)
    C = CurveCouple.of(terms)
    assume(sum(1 for _, c in C.terms if c.denominator > 1) <= 2)
    return C


def toric_degrees_of(C):
    """A couple with at most two fractional points is linearly
    equivalent to c0 [0] + c_inf [inf], with c0 the coefficient of one
    fractional point (or of any point) and c_inf = deg D - c0: the other
    coefficients are integers."""
    fractional = [c for _, c in C.terms if c.denominator > 1]
    c0 = (fractional or [C.terms[0][1]])[0]
    return toric_generator_degrees(c0, C.degree() - c0)


@settings(max_examples=40)
@given(two_point_couples())
@example(golden_couple("chain200"))
@example(CurveCouple.of({P0: 2}))
def test_generators_are_the_toric_hilbert_basis(C):
    # at most two fractional points make a cyclic quotient singularity
    # (Riemenschneider 1974): the cone's lattice points are the ring
    degrees = toric_degrees_of(C)
    assume(len(degrees) <= 5)
    assert presentation(C)["generators"] == degrees


@given(st.integers(0, 10**6))
def test_relation_kernel_is_monomials_minus_dimension(seed):
    # the spanning certificate fixes the kernel of the evaluation map;
    # the oracle eliminates every degree's evaluations to get it
    C = random_couples(seed, 1, max_q=6, max_degree=3)[0]
    try:
        pres = presentation(C, gen_bound=8, rel_bound=8)
    except PreconditionError as exc:
        assert re.match(BOUND_TOO_SMALL, str(exc))
        assume(False)
    degrees = pres["generators"]
    space = SectionSpace(C)
    expected = {n: len(_monomials(degrees, n)) - space.dim(n)
                for n in range(2, 9) if len(_monomials(degrees, n)) >= 2}
    assert evaluation_kernel_dims(C, 8, 8) == expected


def test_presentation_certifies_the_kernel_dimension(monkeypatch):
    # one pivot dropped from the echelon form of the evaluations leaves
    # a kernel one larger than the spanning certificate gives
    echelon = linalg._echelon

    def one_pivot_short(rows):
        m, pivots = echelon(rows)
        return m, pivots[:-1]

    monkeypatch.setattr(linalg, "_echelon", one_pivot_short)
    with pytest.raises(InternalInvariantError, match="spanning certificate"):
        presentation(CurveCouple.of({P0: F(1, 2), P1: F(1, 2)}))


@pytest.mark.parametrize("C", [
    golden_couple("E6"), CurveCouple.of({P0: F(-1, 9), PINF: 1})],
    ids=["E6", "minus_1_9_at_0"])
def test_presentation_builds_no_dense_kernel(C, monkeypatch):
    # the relations are read off the echelon form's sparse kernel
    # vectors, one at a time; the saturation scan's dense nullspace is
    # the oracle, run before nullspace is made to raise
    pres = presentation(C)
    top = 2 * max(pres["generators"])
    expected = presented(saturated_presentation(C, certificate_degree(C), top))

    def refuse(rows):
        raise AssertionError("presentation built the dense kernel")

    monkeypatch.setattr(linalg, "nullspace", refuse)
    assert presented(presentation(C)) == expected


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

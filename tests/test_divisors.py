from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conesing.divisors import (CurveCouple, IntegralDivisorP1, MarkedPoint,
                               QDivisorP1, assign_coordinates, canonical_couple,
                               denominators_lcm, finite_point, floor_multiple,
                               infinity_point, label_point, max_isotropy,
                               normal_form)
from conesing.errors import NotAmple, PreconditionError

P0 = finite_point(0)
P1 = finite_point(1)
PINF = infinity_point()
F = Fraction


def D(*terms):
    return QDivisorP1.of(list(terms))


def test_degree_examples():
    assert D((P0, 2)).degree() == 2
    assert D((P0, F(1, 2)), (P1, F(1, 3))).degree() == F(5, 6)
    assert QDivisorP1.of([]).degree() == 0


def test_floor_multiple_examples():
    assert floor_multiple(D((P0, F(1, 2))), 3) == IntegralDivisorP1.of({P0: 1})
    assert floor_multiple(D((P0, F(2, 3)), (PINF, 1)), 2) == \
        IntegralDivisorP1.of({P0: 1, PINF: 2})
    assert floor_multiple(D((P0, F(-1, 2)), (PINF, 1)), 1) == \
        IntegralDivisorP1.of({P0: -1, PINF: 1})
    assert floor_multiple(D((P0, F(1, 2))), 0) == IntegralDivisorP1.of([])


def test_weil_and_cartier_indices():
    # on the line the local Weil and Cartier indices of D coincide; both
    # are the isotropy order of the invariant curve over the point, the
    # denominator of the coefficient there
    assert CurveCouple.of({P0: F(1, 2)}).divisor.coeff(P0).denominator == 2
    assert CurveCouple.of({P0: F(3, 2)}).divisor.coeff(P1).denominator == 1
    assert CurveCouple.of({P0: 2}).divisor.coeff(P0).denominator == 1
    assert CurveCouple.of({P0: F(5, 3)}).divisor.coeff(P0).denominator == 3
    assert CurveCouple.of({P0: F(5, 3)}).divisor.coeff(PINF).denominator == 1
    assert CurveCouple.of({P0: 7}).divisor.coeff(P0).denominator == 1


def test_isotropy_orders():
    for m in (1, 2, 5):
        C = CurveCouple.of({P0: m})
        assert C.divisor.coeff(P0).denominator == 1
        assert C.divisor.coeff(P1).denominator == 1
    C = CurveCouple.of({P0: F(1, 2), P1: F(1, 2)})
    assert C.divisor.coeff(P0).denominator == 2
    for n in (2, 3, 7):
        C = CurveCouple.of({P0: F(1, n), PINF: F(1, n)})
        assert C.divisor.coeff(P0).denominator == n


def test_max_isotropy():
    assert max_isotropy(CurveCouple.of({P0: 3})) == 1
    assert max_isotropy(CurveCouple.of({P0: F(1, 2), P1: F(2, 3)})) == 3
    assert max_isotropy(
        CurveCouple.of({P0: F(1, 2), P1: F(1, 2), PINF: F(5, 7)})) == 7


def test_couple_requires_positive_degree():
    with pytest.raises(NotAmple):
        CurveCouple.of({P0: F(-1, 2), P1: F(1, 4)})


def test_bad_point_kind_is_a_precondition():
    with pytest.raises(PreconditionError):
        MarkedPoint("finite", F(0))


def test_label_without_name_is_a_precondition():
    with pytest.raises(PreconditionError):
        MarkedPoint("lbl")


def test_non_integer_integral_divisor_is_a_precondition():
    with pytest.raises(PreconditionError):
        IntegralDivisorP1.of({P0: F(1, 2)})


def test_negative_floor_multiple_is_a_precondition():
    with pytest.raises(PreconditionError):
        floor_multiple(D((P0, F(1, 2))), -1)


def test_normal_form_examples():
    nf = normal_form(CurveCouple.of({finite_point(5): F(1, 2),
                                     finite_point(7): F(3, 2)}))
    assert nf.key == ((F(1, 2), F(1, 2)), F(2))
    assert nf.couple.divisor == D((P0, F(1, 2)), (P1, F(1, 2)), (PINF, 1))

    nf = normal_form(CurveCouple.of({finite_point(3): 4}))
    assert nf.key == ((), F(4))
    assert nf.couple.divisor == D((PINF, 4))

    a = normal_form(CurveCouple.of({P0: F(1, 2), PINF: F(1, 2)}))
    b = normal_form(CurveCouple.of({P0: F(1, 2), P1: F(1, 2)}))
    assert a.key == b.key
    assert a.couple == b.couple


def test_normal_form_idempotent_and_shift_invariant():
    C = CurveCouple.of({P0: F(2, 3), P1: F(-1, 2), PINF: 3})
    nf = normal_form(C)
    again = normal_form(nf.couple)
    assert again.couple == nf.couple and again.key == nf.key
    shifted = CurveCouple(C.divisor + QDivisorP1.of({finite_point(9): 5,
                                                     PINF: -5}))
    assert normal_form(shifted).key == nf.key
    assert normal_form(shifted).couple == nf.couple


@given(st.lists(st.tuples(st.integers(1, 40), st.integers(2, 40)), max_size=3),
       st.integers(-2, 5))
def test_canonical_couple_keeps_the_degree_its_terms_sum_to(pqs, n):
    # canonical_couple presets the divisor's degree instead of summing
    # the terms; the preset must be their sum
    fracs = [F(p % q, q) for p, q in pqs]
    degree = sum(fracs, F(n))
    assume(all(fracs) and degree > 0)
    C = canonical_couple(fracs, degree)
    assert C.degree() == degree == sum(c for _, c in C.divisor.terms)
    assert QDivisorP1(C.divisor.terms).degree() == degree


def test_normal_form_refuses_four_fractional_points():
    # four fractional points have no canonical placement: their positions
    # are moduli, so there is no normal form to return
    C = CurveCouple.of({P0: F(1, 2), P1: F(1, 3), finite_point(2): F(1, 5),
                        finite_point(7): F(1, 7)})
    with pytest.raises(PreconditionError, match="4 fractional points have no "
                       r"canonical placement \(at most 3\)"):
        normal_form(C)


def test_assign_coordinates_skips_used():
    C = CurveCouple.of({label_point("b"): F(1, 2), label_point("a"): F(1, 3),
                        P0: 1})
    fixed = assign_coordinates(C)
    pts = {p for p in fixed.divisor.points()}
    # label 'a' takes 1 (0 is used), label 'b' takes infinity
    assert finite_point(1) in pts and infinity_point() in pts
    assert fixed.divisor.coeff(finite_point(1)) == F(1, 3)
    assert fixed.divisor.coeff(infinity_point()) == F(1, 2)


def canonical_rank(p):
    """The place of p in 0, 1, infinity, 2, 3, ..., or None off it."""
    if p.kind == "inf":
        return 2
    if p.x.denominator != 1 or p.x < 0:
        return None
    return int(p.x) if p.x < 2 else int(p.x) + 1


@given(st.dictionaries(
    st.sampled_from([label_point(n) for n in "dbcae"]
                    + [P0, P1, PINF, finite_point(2), finite_point(3),
                       finite_point(F(1, 2)), finite_point(-1)]),
    st.fractions(min_value=F(1, 5), max_value=3, max_denominator=5),
    min_size=1, max_size=8))
def test_assign_coordinates_gives_labels_the_first_free_points(terms):
    labels = sorted(p.name for p in terms if p.kind == "lbl")
    assume(labels)
    taken = {p for p in terms if p.kind != "lbl"}
    fixed = assign_coordinates(CurveCouple.of(terms)).divisor
    # other terms are unchanged, and no label lands on a taken point or
    # on another label: the terms keep their number
    assert len(fixed.terms) == len(terms)
    assert all(fixed.coeff(p) == terms[p] for p in taken)
    assigned = sorted((p for p in fixed.points() if p not in taken),
                      key=canonical_rank)
    assert [fixed.coeff(p) for p in assigned] == [
        terms[label_point(n)] for n in labels]
    # the first free points: every earlier place is taken
    ranks = {canonical_rank(p) for p in taken | set(assigned)}
    assert set(range(canonical_rank(assigned[-1]) + 1)) <= ranks


coeff_strategy = st.fractions(min_value=-3, max_value=4,
                              max_denominator=9).filter(lambda f: f != 0)
divisor_strategy = st.dictionaries(
    st.sampled_from([P0, P1, PINF, finite_point(2), finite_point(-1)]),
    coeff_strategy, min_size=1, max_size=4)


@given(divisor_strategy, st.integers(0, 12), st.integers(0, 12))
def test_floor_superadditivity(terms, a, b):
    d = QDivisorP1.of(terms)
    fa, fb, fab = floor_multiple(d, a), floor_multiple(d, b), floor_multiple(d, a + b)
    for p in set(fa.points()) | set(fb.points()) | set(fab.points()):
        assert fab.coeff(p) >= fa.coeff(p) + fb.coeff(p)


@given(divisor_strategy, st.integers(1, 8))
def test_floor_degree_exact_on_period_multiples(terms, k):
    d = QDivisorP1.of(terms)
    n = k * denominators_lcm(d)
    assert floor_multiple(d, n).degree() == n * d.degree()


@given(divisor_strategy)
def test_weil_le_cartier_everywhere(terms):
    # the Weil index at each point divides the Cartier index of D, the
    # least L making L D integral
    d = QDivisorP1.of(terms)
    if d.degree() <= 0:
        return
    C = CurveCouple(d)
    L = denominators_lcm(d)
    for p in d.points():
        w = C.divisor.coeff(p).denominator
        assert L % w == 0 and w <= max_isotropy(C)


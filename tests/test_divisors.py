from fractions import Fraction
from math import floor

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conesing.divisors import (CurveCouple, MarkedPoint, assign_coordinates,
                               canonical_couple, denominators_lcm,
                               finite_point, floor_multiple, infinity_point,
                               label_point, max_isotropy, normal_form)
from conesing.errors import PreconditionError
from conesing.jsonio import terms_to_json
from helpers import (coeff, divisor, divisor_degree, integral_terms,
                     merged_terms, plus, support)

P0 = finite_point(0)
P1 = finite_point(1)
PINF = infinity_point()
F = Fraction


def D(*terms):
    return CurveCouple.of(list(terms))


def test_degree_examples():
    assert D((P0, 2)).degree() == 2
    assert D((P0, F(1, 2)), (P1, F(1, 3))).degree() == F(5, 6)
    with pytest.raises(PreconditionError, match="degree 0 is not positive"):
        CurveCouple.of([])


def test_floor_multiple_examples():
    assert floor_multiple(D((P0, F(1, 2))), 3) == integral_terms({P0: 1})
    assert floor_multiple(D((P0, F(2, 3)), (PINF, 1)), 2) == \
        integral_terms({P0: 1, PINF: 2})
    assert floor_multiple(D((P0, F(-1, 2)), (PINF, 1)), 1) == \
        integral_terms({P0: -1, PINF: 1})
    assert floor_multiple(D((P0, F(1, 2))), 0) == integral_terms([])


def test_weil_and_cartier_indices():
    # on the line the local Weil and Cartier indices of D coincide; both
    # are the isotropy order of the invariant curve over the point, the
    # denominator of the coefficient there
    assert coeff(CurveCouple.of({P0: F(1, 2)}), P0).denominator == 2
    assert coeff(CurveCouple.of({P0: F(3, 2)}), P1).denominator == 1
    assert coeff(CurveCouple.of({P0: 2}), P0).denominator == 1
    assert coeff(CurveCouple.of({P0: F(5, 3)}), P0).denominator == 3
    assert coeff(CurveCouple.of({P0: F(5, 3)}), PINF).denominator == 1
    assert coeff(CurveCouple.of({P0: 7}), P0).denominator == 1


def test_isotropy_orders():
    for m in (1, 2, 5):
        C = CurveCouple.of({P0: m})
        assert coeff(C, P0).denominator == 1
        assert coeff(C, P1).denominator == 1
    C = CurveCouple.of({P0: F(1, 2), P1: F(1, 2)})
    assert coeff(C, P0).denominator == 2
    for n in (2, 3, 7):
        C = CurveCouple.of({P0: F(1, n), PINF: F(1, n)})
        assert coeff(C, P0).denominator == n


def test_max_isotropy():
    assert max_isotropy(CurveCouple.of({P0: 3})) == 1
    assert max_isotropy(CurveCouple.of({P0: F(1, 2), P1: F(2, 3)})) == 3
    assert max_isotropy(
        CurveCouple.of({P0: F(1, 2), P1: F(1, 2), PINF: F(5, 7)})) == 7


def test_couple_requires_positive_degree():
    with pytest.raises(PreconditionError, match="degree -1/4 is not positive"):
        CurveCouple.of({P0: F(-1, 2), P1: F(1, 4)})


def test_bad_point_kind_is_a_precondition():
    with pytest.raises(PreconditionError):
        MarkedPoint("finite", F(0))


def test_label_without_name_is_a_precondition():
    with pytest.raises(PreconditionError):
        MarkedPoint("lbl")


def test_negative_floor_multiple_is_a_precondition():
    with pytest.raises(PreconditionError):
        floor_multiple(D((P0, F(1, 2))), -1)


def test_normal_form_examples():
    couple, key = normal_form(CurveCouple.of({finite_point(5): F(1, 2),
                                              finite_point(7): F(3, 2)}))
    assert key == ((F(1, 2), F(1, 2)), F(2))
    assert couple == D((P0, F(1, 2)), (P1, F(1, 2)), (PINF, 1))

    assert normal_form(CurveCouple.of({finite_point(3): 4})) == (
        D((PINF, 4)), ((), F(4)))

    a = normal_form(CurveCouple.of({P0: F(1, 2), PINF: F(1, 2)}))
    b = normal_form(CurveCouple.of({P0: F(1, 2), P1: F(1, 2)}))
    assert a == b


@given(st.lists(st.tuples(st.integers(-9, 9), st.integers(2, 6)),
                min_size=1, max_size=3))
def test_normal_form_fractional_parts_need_no_tie_break(pqs):
    # reduced fractions of equal value are equal, so the old tie-break
    # by (denominator, numerator) of the stored coefficient decides nothing
    points = (P0, P1, finite_point(2))
    items = [(p, F(a, q)) for p, (a, q) in zip(points, pqs)]
    terms = CurveCouple.of(items + [(PINF, 30)]).terms
    _, (fracs, _) = normal_form(CurveCouple(terms))
    tied = sorted(((c - floor(c), c.denominator, c.numerator)
                   for _, c in terms if c.denominator > 1),
                  key=lambda t: (-t[0], t[1], t[2]))
    assert fracs == tuple(f for f, _, _ in tied)


def test_normal_form_idempotent_and_shift_invariant():
    C = CurveCouple.of({P0: F(2, 3), P1: F(-1, 2), PINF: 3})
    nf = normal_form(C)
    assert normal_form(nf[0]) == nf
    shifted = plus(C, {finite_point(9): 5, PINF: -5})
    assert normal_form(shifted) == nf


@given(st.lists(st.tuples(st.integers(1, 40), st.integers(2, 40)), max_size=3),
       st.integers(-2, 5))
def test_canonical_couple_keeps_the_degree_its_terms_sum_to(pqs, n):
    # canonical_couple presets the couple's degree instead of summing
    # the terms; the preset must be their sum
    fracs = [F(p % q, q) for p, q in pqs]
    degree = sum(fracs, F(n))
    assume(all(fracs) and degree > 0)
    C = canonical_couple(fracs, degree)
    assert C.degree() == degree == sum(c for _, c in C.terms)
    assert CurveCouple(C.terms).degree() == degree


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
    pts = {p for p in support(fixed)}
    # label 'a' takes 1 (0 is used), label 'b' takes infinity
    assert finite_point(1) in pts and infinity_point() in pts
    assert coeff(fixed, finite_point(1)) == F(1, 3)
    assert coeff(fixed, infinity_point()) == F(1, 2)


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
    fixed = assign_coordinates(CurveCouple.of(terms))
    # other terms are unchanged, and no label lands on a taken point or
    # on another label: the terms keep their number
    assert len(fixed.terms) == len(terms)
    assert all(coeff(fixed, p) == terms[p] for p in taken)
    assigned = sorted((p for p in support(fixed) if p not in taken),
                      key=canonical_rank)
    assert [coeff(fixed, p) for p in assigned] == [
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
    d = divisor(terms)
    fa, fb, fab = floor_multiple(d, a), floor_multiple(d, b), floor_multiple(d, a + b)
    for p in set(support(fa)) | set(support(fb)) | set(support(fab)):
        assert coeff(fab, p) >= coeff(fa, p) + coeff(fb, p)


@given(divisor_strategy, st.integers(1, 8))
def test_floor_degree_exact_on_period_multiples(terms, k):
    d = divisor(terms)
    n = k * denominators_lcm(d)
    assert divisor_degree(floor_multiple(d, n)) == n * divisor_degree(d)


@given(divisor_strategy)
def test_weil_le_cartier_everywhere(terms):
    # the Weil index at each point divides the Cartier index of D, the
    # least L making L D integral
    d = divisor(terms)
    if divisor_degree(d) <= 0:
        return
    C = CurveCouple.of(terms)
    L = denominators_lcm(d)
    for p in support(d):
        w = coeff(C, p).denominator
        assert L % w == 0 and w <= max_isotropy(C)



# points of every kind: finite (integral and not), infinity and labels
merge_points = st.sampled_from(
    [P0, P1, PINF, finite_point(F(1, 2)), finite_point(-3), label_point("a"),
     label_point("b")])
term_lists = st.lists(st.tuples(merge_points, coeff_strategy), min_size=1,
                      max_size=8).filter(
    lambda items: divisor_degree(merged_terms(items)) > 0)


@given(term_lists, st.randoms(use_true_random=False))
def test_couple_of_is_the_merge_of_its_terms(items, rng):
    C = CurveCouple.of(items)
    assert C.terms == merged_terms(items)
    assert all(type(c) is F and c for _, c in C.terms)
    shuffled = list(items)
    rng.shuffle(shuffled)
    assert CurveCouple.of(shuffled) == C
    assert CurveCouple.of(dict(C.terms)) == C


@given(term_lists, st.data())
def test_couple_of_sums_split_coefficients_and_drops_zeros(items, data):
    C = CurveCouple.of(items)
    i = data.draw(st.integers(0, len(items) - 1))
    p, c = items[i]
    part = data.draw(coeff_strategy)
    split = items[:i] + [(p, part), (p, c - part)] + items[i + 1:]
    assert CurveCouple.of(split) == C
    zeros = data.draw(st.lists(st.tuples(merge_points, st.just(0)),
                               min_size=1, max_size=3))
    padded = list(items)
    for z in zeros:
        padded.insert(data.draw(st.integers(0, len(padded))), z)
    assert CurveCouple.of(padded) == C


@given(term_lists, st.integers(0, 30))
def test_floor_multiple_floors_pointwise_and_drops_zeros(items, n):
    C = CurveCouple.of(items)
    assert floor_multiple(C, n) == integral_terms(
        {p: floor(n * c) for p, c in C.terms})


def test_terms_to_json_keeps_ints_and_writes_fractions_as_strings():
    terms = ((finite_point(0), Fraction(1, 2)), (finite_point(1), 3),
             (infinity_point(), Fraction(-2)))
    assert terms_to_json(terms) == [
        {"point": {"t": "fin", "x": "0"}, "coeff": "1/2"},
        {"point": {"t": "fin", "x": "1"}, "coeff": 3},
        {"point": {"t": "inf"}, "coeff": "-2"}]

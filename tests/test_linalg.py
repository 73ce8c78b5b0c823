"""The fraction-free RowSpan, nullspace, solve and rank against their
Fraction oracles in helpers, as properties over random integer and
rational matrices with zero rows, repeated rows, negative entries and
rank deficiency."""

from fractions import Fraction
from math import gcd

from hypothesis import given
from hypothesis import strategies as st

from conesing.linalg import RowSpan, nullspace, rank, solve
from helpers import FractionRowSpan, fraction_nullspace, fraction_solve, rref

INTS = st.integers(-6, 6)
RATIONALS = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 7))


@st.composite
def matrices(draw):
    """A few independent-looking rows, then rows derived from them: zero
    rows, repeats, and combinations that keep the rank down."""
    ncols = draw(st.integers(1, 6))
    entries = draw(st.sampled_from([INTS, RATIONALS]))
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                         min_size=1, max_size=4))
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["zero", "repeat", "combination"]))
        if kind == "zero":
            rows.append([0] * ncols)
        elif kind == "repeat":
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(entries), draw(entries)
            rows.append([s * x + t * y for x, y in zip(a, b)])
    return draw(st.permutations(rows))


@st.composite
def systems(draw):
    """(rows, rhs): a drawn matrix with a right-hand side that is either
    A x for a drawn x, so consistent, or drawn freely, so often not."""
    rows = draw(matrices())
    entries = st.one_of(INTS, RATIONALS)
    if draw(st.booleans()):
        x = draw(st.lists(entries, min_size=len(rows[0]),
                          max_size=len(rows[0])))
        rhs = [sum(Fraction(a) * b for a, b in zip(row, x)) for row in rows]
    else:
        rhs = draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))
    return rows, rhs


def positive_multiple(v, w):
    """v = c w for some rational c > 0."""
    i = next(k for k, x in enumerate(w) if x != 0)
    c = Fraction(v[i]) / w[i]
    return c > 0 and all(x == c * y for x, y in zip(v, w))


@given(matrices(), st.booleans())
def test_rowspan_matches_fraction_oracle(rows, as_dicts):
    span, oracle = RowSpan(), FractionRowSpan()
    for row in rows:
        vec = {i: c for i, c in enumerate(row) if c} if as_dicts else row
        assert span.add(vec) == oracle.add(vec)
        assert span.dim == oracle.dim
    assert span.rows.keys() == oracle.rows.keys()
    for p, row in span.rows.items():
        assert all(type(c) is int for c in row.values())
        assert row[p] > 0 and gcd(*row.values()) == 1
        assert positive_multiple([row.get(i, 0) for i in range(len(rows[0]))],
                                 [oracle.rows[p].get(i, 0)
                                  for i in range(len(rows[0]))])


@given(matrices())
def test_nullspace_matches_fraction_oracle(rows):
    basis, oracle = nullspace(rows), fraction_nullspace(rows)
    assert len(basis) == len(oracle)
    for v, w in zip(basis, oracle):
        assert all(type(x) is int for x in v)
        assert gcd(*v) == 1
        assert positive_multiple(v, w)
        assert all(sum(Fraction(a) * x for a, x in zip(row, v)) == 0
                   for row in rows)


@given(systems())
def test_solve_and_rank_match_fraction_oracle(system):
    rows, rhs = system
    status, x = solve(rows, rhs)
    assert (status, x) == fraction_solve(rows, rhs)
    pivots = rref(rows)[1]
    assert rank(rows) == len(pivots)
    if status == "none":
        assert x is None
        return
    assert all(type(a) is Fraction for a in x)
    assert [sum(Fraction(a) * b for a, b in zip(row, x)) for row in rows] == rhs
    # "many" gives the solution whose free unknowns are 0
    assert status == ("unique" if len(pivots) == len(x) else "many")
    assert all(x[c] == 0 for c in range(len(x)) if c not in pivots)


def test_solve_and_rank_examples():
    assert solve([], []) == ("many", [])
    assert solve([[1, 1], [1, 1]], [1, 2]) == ("none", None)
    assert solve([[1, 1], [2, 2]], [3, 6]) == ("many", [3, 0])
    assert solve([[0, 2, 4]], [Fraction(1, 3)]) == ("many",
                                                   [0, Fraction(1, 6), 0])
    assert solve([[2, 0], [0, 3]], [1, 1]) == ("unique",
                                               [Fraction(1, 2), Fraction(1, 3)])
    assert solve([[Fraction(1, 2), 1], [1, -1]], [1, 0]) == (
        "unique", [Fraction(2, 3), Fraction(2, 3)])
    assert rank([]) == 0
    assert rank([[0, 0], [0, 0]]) == 0
    assert rank([[1, 2], [2, 4], [Fraction(1, 2), 1]]) == 1
    assert rank([[1, 2, 3], [0, 1, 1], [1, 3, 4], [0, 0, 5]]) == 3


def test_nullspace_examples():
    assert nullspace([]) == []
    assert nullspace([[0, 0]]) == [[1, 0], [0, 1]]
    assert nullspace([[2, 4]]) == [[-2, 1]]
    assert nullspace([[Fraction(1, 2), Fraction(1, 3), 0]]) == [[-2, 3, 0],
                                                               [0, 0, 1]]
    assert nullspace([[1, 1], [1, -1]]) == []

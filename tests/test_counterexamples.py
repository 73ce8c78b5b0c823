from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conesing.counterexamples import (an_min_over_actions, diagonal_cone_report,
                                      rnc_family_report)
from conesing.errors import PreconditionError
from helpers import an_min_scan

F = Fraction


def brute_min(n, box):
    best, witness = None, None
    for a in range(-box, box + 1):
        for b in range(-box, box + 1):
            if b == 0:
                continue
            val = max(abs(a + b * n), abs(-a + b * n))
            if best is None or val < best:
                best, witness = val, (a, b)
    return best, witness


@pytest.mark.parametrize("n", [1, 2, 3, 7, 12])
def test_an_min_matches_pure_python_scan(n):
    fast_val, fast_wit = an_min_over_actions(n, 9)
    slow_val, _ = brute_min(n, 9)
    assert fast_val == slow_val == n
    a, b = fast_wit
    assert b != 0 and max(abs(a + b * n), abs(-a + b * n)) == fast_val


@pytest.mark.parametrize("n", [1, 4, 25])
def test_an_isotropy_identity(n):
    # max(|a+bn|, |-a+bn|) = |a| + |b| n on a small exhaustive grid
    for a in range(-12, 13):
        for b in range(-12, 13):
            assert max(abs(a + b * n), abs(-a + b * n)) == abs(a) + abs(b) * n


def test_an_min_lower_bound():
    for n in (1, 5, 40, 200):
        val, _ = an_min_over_actions(n, 50)
        assert val == n


@given(st.integers(1, 60), st.integers(1, 40))
@example(1, 1)
@example(7, 1)
def test_an_min_closed_form_matches_int64_scan(n, box):
    # value and witness, so the witness order stays the scan's argmin
    assert an_min_over_actions(n, box) == an_min_scan(n, box)


def test_an_min_refusals_and_unbounded_box():
    for n, box in ((0, 5), (-3, 5), (4, 0)):
        with pytest.raises(PreconditionError):
            an_min_over_actions(n, box)
    # past the old int64 guard box * (n + 1) < 2^62 the answer is the same
    assert an_min_over_actions(9, 2 ** 62) == (9, (0, -1))


def test_rnc_family_report():
    rows = rnc_family_report(6)
    assert [r["m"] for r in rows] == [1, 2, 3, 4, 5, 6]
    for r in rows:
        m = r["m"]
        assert F(r["a_e0"]) * m == 2
        assert r["max_isotropy"] == 1
        assert r["link_determinant"] == m
        assert F(r["mld"]) == (2 if m == 1 else F(2, m))
        # canonical class is principal exactly when the degree is even
        assert r["cartier_index_kx"] == (m if m % 2 else m // 2)
    assert rows[4]["a_e0"] == "2/5"
    assert rows[1]["mld"] == "1"


def test_diagonal_cone_report():
    for d in (1, 2, 3):
        row = diagonal_cone_report(d)
        assert row == {"d": d, "a_e0": str(d + 1), "max_isotropy": 1,
                       "smooth": True}
    for d in (0, 4):
        with pytest.raises(PreconditionError):
            diagonal_cone_report(d)

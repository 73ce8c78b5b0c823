"""Families witnessing that each hypothesis of the boundedness of the
catalog is necessary: unbounded dimension, unbounded singularities, and
unbounded isotropies.

* the diagonal torus on affine (d+1)-space: smooth, trivial isotropies,
  central log discrepancy d+1, unbounded in the dimension;
* cones over rational normal curves of degree m: trivial isotropies,
  central log discrepancy 2/m, Gorenstein index and link determinant
  unbounded in m;
* the A-type hypersurface x y = z^n: every torus action giving it a
  cone structure has isotropy at least n along one of the two
  coordinate curves, because max(|a+bn|, |-a+bn|) = |a| + |b| n.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Tuple

from .divisors import CurveCouple, finite_point, max_isotropy
from .errors import InternalInvariantError, PreconditionError
from .jsonio import fmt_q
from .quotient import cartier_index_of_kx, vertex_log_discrepancy
from .records import Record
from .resolution import build_graph
from .toric import (ToricDivisor, cartier_index_global, cone_of_x,
                    fan_projective_space, log_discrepancy_x)


def an_min_over_actions(n: int, box: int) -> Tuple[int, Tuple[int, int]]:
    """Minimum over |a|, |b| <= box, b != 0 of the larger of the two
    curve isotropies, with a witness; always exactly n.

    By the identity max(|a+bn|, |-a+bn|) = |a| + |b| n the minimum is n,
    reached only at a = 0, b = +-1.  The witness (0, -1) is the first of
    these in the row-major order of the grid (a outer, b inner), which is
    the order of the exhaustive scan that the tests keep as the oracle.
    """
    if n < 1:
        raise PreconditionError(f"n {n} must be positive")
    if box < 1:
        raise PreconditionError(f"box {box} must be positive")
    a, b = 0, -1
    best = max(abs(a + b * n), abs(-a + b * n))
    if best != abs(a) + abs(b) * n:
        raise InternalInvariantError("isotropy identity violated at the witness")
    return best, (a, b)


class RncRow(Record):
    _fields = ("m", "a_e0", "cartier_index_kx", "max_isotropy", "mld",
               "link_determinant")

    def __init__(self, m: int, a_e0: Fraction, cartier_index_kx: int,
                 max_isotropy: int, mld: Fraction, link_determinant: int):
        self.__dict__.update(m=m, a_e0=a_e0, cartier_index_kx=cartier_index_kx,
                             max_isotropy=max_isotropy, mld=mld,
                             link_determinant=link_determinant)

    def to_json(self) -> dict:
        return {"m": self.m, "a_e0": fmt_q(self.a_e0),
                "cartier_index_kx": self.cartier_index_kx,
                "max_isotropy": self.max_isotropy,
                "mld": fmt_q(self.mld),
                "link_determinant": self.link_determinant}


def rnc_family_report(m_max: int) -> Tuple[RncRow, ...]:
    """Cones over rational normal curves of degree 1..m_max.

    The family keeps trivial isotropies while the mld 2/m tends to zero
    and the index data grows without bound.
    """
    if m_max < 1:
        raise PreconditionError(f"degree bound {m_max} must be positive")
    rows = []
    for m in range(1, m_max + 1):
        C = CurveCouple.of({finite_point(0): m})
        G = build_graph(C)
        rows.append(RncRow(
            m=m,
            a_e0=vertex_log_discrepancy(C),
            cartier_index_kx=cartier_index_of_kx(C),
            max_isotropy=max_isotropy(C),
            mld=G.mld,
            link_determinant=G.determinant,
        ))
    return tuple(rows)


class DiagonalConeRow(Record):
    _fields = ("d", "a_e0", "max_isotropy", "smooth")

    def __init__(self, d: int, a_e0: Fraction, max_isotropy: int,
                 smooth: bool):
        self.__dict__.update(d=d, a_e0=a_e0, max_isotropy=max_isotropy,
                             smooth=smooth)

    def to_json(self) -> dict:
        return {"d": self.d, "a_e0": fmt_q(self.a_e0),
                "max_isotropy": self.max_isotropy, "smooth": self.smooth}


def diagonal_cone_report(d: int) -> DiagonalConeRow:
    """The diagonal action on affine (d+1)-space via the hyperplane
    class on d-dimensional projective space (d <= 3 for the lattice
    computations)."""
    if not (1 <= d <= 3):
        raise PreconditionError(f"d {d} must be between 1 and 3")
    F = fan_projective_space(d)
    coeffs = [Fraction(0)] * d + [Fraction(1)]
    D = ToricDivisor.of(coeffs)
    K = cone_of_x(F, D)
    e_last = tuple([0] * d + [1])
    a0 = log_discrepancy_x(K, e_last)
    iso = cartier_index_global(F, D)
    # smooth <=> the lifted rays form a unimodular simplex
    from .linalg import det_int
    smooth = abs(det_int([list(r) for r in K.rays[: d + 1]])) == 1 \
        and len(K.rays) == d + 1
    return DiagonalConeRow(d=d, a_e0=a0, max_isotropy=iso, smooth=smooth)

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

The reports return their rows as the JSON objects verify-examples prints.
"""

from __future__ import annotations

from typing import List, Tuple

from .divisors import CurveCouple, finite_point, max_isotropy
from .errors import InternalInvariantError, PreconditionError
from .jsonio import fmt_q
from .quotient import cartier_index_of_kx, vertex_log_discrepancy
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


def rnc_family_report(m_max: int) -> List[dict]:
    """Cones over rational normal curves of degree 1..m_max, one row
    per degree, as the JSON object verify-examples prints.

    The family keeps trivial isotropies while the mld 2/m tends to zero
    and the index data grows without bound.
    """
    if m_max < 1:
        raise PreconditionError(f"degree bound {m_max} must be positive")
    rows = []
    for m in range(1, m_max + 1):
        C = CurveCouple.of({finite_point(0): m})
        G = build_graph(C)
        rows.append({"m": m, "a_e0": fmt_q(vertex_log_discrepancy(C)),
                     "cartier_index_kx": cartier_index_of_kx(C),
                     "max_isotropy": max_isotropy(C), "mld": fmt_q(G.mld),
                     "link_determinant": G.determinant})
    return rows


def diagonal_cone_report(d: int) -> dict:
    """The diagonal action on affine (d+1)-space via the hyperplane
    class on d-dimensional projective space (d <= 3 for the lattice
    computations), as the JSON row verify-examples prints."""
    if not (1 <= d <= 3):
        raise PreconditionError(f"d {d} must be between 1 and 3")
    F = fan_projective_space(d)
    D = ToricDivisor.of([0] * d + [1])
    K = cone_of_x(F, D)
    # smooth <=> the lifted rays form a unimodular simplex
    from .linalg import det_int
    smooth = len(K.rays) == d + 1 and abs(det_int(K.rays)) == 1
    return {"d": d, "a_e0": fmt_q(log_discrepancy_x(K, (0,) * d + (1,))),
            "max_isotropy": cartier_index_global(F, D), "smooth": smooth}

"""Shared test utilities: deterministic random couples and instances,
stock fans, and the reference oracles that the library's closed forms
and fast paths are checked against."""

import itertools
import random
from fractions import Fraction
from math import gcd
from typing import Dict, Optional

from conesing.divisors import (CurveCouple, QDivisorP1, finite_point,
                               floor_multiple, infinity_point)
from conesing.errors import (InternalInvariantError, NotQGorenstein,
                             PreconditionError, SingularMatrix)
from conesing.linalg import RowSpan, det_int, rref, solve
from conesing.sections import SectionSpace, _GeneratorScan
from conesing.toric import (Fan, ToricDivisor, _dot, _pair_form, cone_of_x,
                            is_ample)

POSITIONS = [finite_point(0), finite_point(1), infinity_point(),
             finite_point(2), finite_point(-1), finite_point(Fraction(1, 2)),
             finite_point(3), finite_point(Fraction(-2, 3))]


def random_couples(seed, count, max_q=12, max_degree=10, klt_only=True,
                   max_fractional=3):
    """Deterministic stream of valid couples for stress tests."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        k = rng.randint(0, max_fractional)
        positions = rng.sample(POSITIONS, k + 1)
        terms = {}
        boundary_total = Fraction(0)
        for i in range(k):
            q = rng.randint(2, max_q)
            p = rng.randint(1, q - 1)
            g = gcd(p, q)
            p, q = p // g, q // g
            if q == 1:
                continue
            extra = rng.randint(-1, 2)
            terms[positions[i]] = Fraction(p, q) + extra
            boundary_total += Fraction(q - 1, q)
        if klt_only and boundary_total >= 2:
            continue
        terms[positions[k]] = terms.get(positions[k], 0) + rng.randint(-2, 4)
        D = QDivisorP1.of(terms)
        deg = D.degree()
        if not (0 < deg <= max_degree):
            continue
        out.append(CurveCouple(D))
    return out


def brute_min_decomposition(C, cap=2000):
    """Independent oracle: scan m = 1, 2, ... for the least m such that
    m(K+B) - uD is integral of degree zero with u = m deg(K+B)/deg D."""
    from conesing.divisors import canonical_divisor_p1
    from conesing.quotient import log_fano_quotient

    B = log_fano_quotient(C)
    D = C.divisor
    kb_deg = Fraction(-2) + sum((b for _, b in B.boundary), Fraction(0))
    ratio = kb_deg / D.degree()
    kcan = canonical_divisor_p1()
    for m in range(1, cap + 1):
        u = m * ratio
        if u.denominator != 1:
            continue
        u = int(u)
        pts = set(D.points()) | set(kcan.points()) | {p for p, _ in B.boundary}
        vals = {p: m * (kcan.coeff(p) + B.coeff(p)) - u * D.coeff(p) for p in pts}
        if all(v.denominator == 1 for v in vals.values()):
            assert sum(vals.values()) == 0
            return m, u, {p: int(v) for p, v in vals.items() if v != 0}
    raise AssertionError("no decomposition found below the cap")


def an_min_scan(n, box):
    """Independent oracle for counterexamples.an_min_over_actions:
    exhaustive minimum over |a|, |b| <= box, b != 0 of the larger of the
    two curve isotropies, with the first minimizing (a, b) in row-major
    order as the witness.

    The scan is vectorized over int64, which is exact for the sizes
    involved (values are bounded by box * (n + 1)).
    """
    import numpy as np
    from conesing.errors import InternalInvariantError, PreconditionError

    if box < 1:
        raise PreconditionError(f"box {box} must be positive")
    if box * (n + 1) >= 2 ** 62:
        raise PreconditionError("scan box too large for exact int64 arithmetic")
    aa = np.arange(-box, box + 1, dtype=np.int64)
    bb = np.concatenate([np.arange(-box, 0, dtype=np.int64),
                         np.arange(1, box + 1, dtype=np.int64)])
    A, B = np.meshgrid(aa, bb, indexing="ij")
    val = np.maximum(np.abs(A + B * n), np.abs(-A + B * n))
    flat = int(np.argmin(val))
    best = int(val.flat[flat])
    witness = (int(A.flat[flat]), int(B.flat[flat]))
    if best < n:
        raise InternalInvariantError(f"scan minimum {best} below n={n}")
    # identity max(|a+bn|, |-a+bn|) = |a| + |b| n pins the bound
    a, b = witness
    if best != abs(a) + abs(b) * n:
        raise InternalInvariantError("isotropy identity violated at the witness")
    return best, witness


def count_build_graph(monkeypatch):
    """Route build_graph through a counter wherever a conesing module
    binds it; returns the list of couples it was called with."""
    import sys
    from conesing import resolution

    original = resolution.build_graph
    calls = []

    def counting(C):
        calls.append(C)
        return original(C)

    for name, mod in list(sys.modules.items()):
        if (name == "conesing" or name.startswith("conesing.")) and \
                getattr(mod, "build_graph", None) is original:
            monkeypatch.setattr(mod, "build_graph", counting)
    return calls


def is_eps_lc_pair(P, eps):
    """Whether the standard pair P is eps-lc: every boundary coefficient
    is at most 1 - eps.  The catalog needs no such test, since isotropy
    at most N already makes its quotient pair eps/N-lc."""
    from conesing.quotient import validate_epsilon

    eps = validate_epsilon(eps)
    return all(b <= 1 - eps for _, b in P.boundary)


def unpruned_candidate_types(params):
    """Oracle for catalog._candidate_types: every fractional type within
    the search bounds, each swept through degree 2/eps, with no cap from
    the type's quotient boundary."""
    from conesing.catalog import _fractional_coefficients, search_bounds

    bounds = search_bounds(params)
    coeffs = _fractional_coefficients(bounds.q_max)
    types = [()]
    for k in (1, 2, 3):
        types.extend(itertools.combinations_with_replacement(coeffs, k))
    for fracs in types:
        if sum((Fraction(f.denominator - 1, f.denominator) for f in fracs),
               Fraction(0)) >= 2:
            continue
        fsum = sum(fracs, Fraction(0))
        n0 = -int(fsum) if fsum else 1
        while fsum + n0 <= 0:
            n0 += 1
        while fsum + n0 <= bounds.degree_max:
            yield fracs, fsum + n0
            n0 += 1


# ---------------------------------------------------------------------------
# Fraction elimination oracles
# ---------------------------------------------------------------------------

class FractionRowSpan:
    """Oracle for linalg.RowSpan: the same echelon insertion over
    Fraction, each stored row scaled to 1 at its pivot."""

    def __init__(self):
        self.rows: Dict[int, Dict[int, Fraction]] = {}   # pivot -> row

    def add(self, vec) -> bool:
        """Insert a vector; returns True when the span grew."""
        items = vec.items() if isinstance(vec, dict) else enumerate(vec)
        v = {i: Fraction(c) for i, c in items if c != 0}
        while v:
            p = min(v)
            row = self.rows.get(p)
            if row is None:
                inv = v[p]
                self.rows[p] = {i: c / inv for i, c in v.items()}
                return True
            f = v[p]
            for i, c in row.items():
                nc = v.get(i, 0) - f * c
                if nc:
                    v[i] = nc
                else:
                    v.pop(i, None)
        return False

    @property
    def dim(self) -> int:
        return len(self.rows)


def fraction_nullspace(rows):
    """Oracle for linalg.nullspace: the kernel basis read off the
    Fraction reduced echelon form, one vector per free column carrying 1
    there and the forced pivot entries elsewhere."""
    if not rows:
        return []
    ncols = len(rows[0])
    red, pivots = rref(rows)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][free]
        basis.append(v)
    return basis


# ---------------------------------------------------------------------------
# section ring oracles
# ---------------------------------------------------------------------------

def h0(C, n):
    """Dimension of the degree-n piece: max(0, deg floor(nD) + 1), with
    floor(nD) built as a divisor."""
    return max(0, floor_multiple(C.divisor, n).degree() + 1)


def multiplication_rank(C, a, b):
    """Rank and cokernel dimension of multiplication into degree a + b,
    by exact elimination on the product vectors."""
    space = SectionSpace(C)
    da, db, dab = space.dim(a), space.dim(b), space.dim(a + b)
    span = RowSpan()
    for j in range(da):
        va = [Fraction(0)] * da
        va[j] = Fraction(1)
        for k in range(db):
            vb = [Fraction(0)] * db
            vb[k] = Fraction(1)
            span.add(space.multiply(a, va, b, vb))
    return span.dim, dab - span.dim


def scanned_generators(C, bound):
    """Minimal generator degrees from the generator scan alone, without
    the relation search: generators through `bound`, saturation checked
    through 2 * bound (BoundTooSmall otherwise)."""
    return tuple(sorted(_GeneratorScan(SectionSpace(C)).run(bound, 2 * bound)))


# ---------------------------------------------------------------------------
# dense star-graph oracles
# ---------------------------------------------------------------------------

def intersection_matrix(G):
    """The dense intersection matrix of a star graph."""
    selfints = G.self_intersections()
    m = [[0] * len(selfints) for _ in selfints]
    for i, e in enumerate(selfints):
        m[i][i] = e
    for i, j in G.edges():
        m[i][j] = m[j][i] = 1
    return m


def discrepancies(G):
    """Unique solution of M d = k, k_j = -E_j^2 - 2, solved densely;
    independent of the chain elimination in build_graph."""
    selfints = G.self_intersections()
    rhs = [Fraction(-e - 2) for e in selfints]
    status, x = solve(intersection_matrix(G), rhs)
    if status != "unique":
        raise SingularMatrix("intersection matrix must be invertible")
    return tuple(x)


def is_negative_definite(matrix):
    """Sign test on leading principal minors of a symmetric matrix."""
    n = len(matrix)
    for k in range(1, n + 1):
        minor = det_int([row[:k] for row in matrix[:k]])
        if minor == 0:
            raise SingularMatrix(f"leading {k}x{k} minor vanishes")
        if (minor > 0) != (k % 2 == 0):
            return False
    return True


# ---------------------------------------------------------------------------
# toric oracles, stock fans and seeded instances
# ---------------------------------------------------------------------------

def log_discrepancy_y(F, B, v):
    """Value at v of the piecewise-linear form equal to 1 - b_rho at rays."""
    if all(x == 0 for x in v):
        return Fraction(0)
    return _dot(_pair_form(F, B, F.locate(v)), v)


def lattice_mld(K):
    """Mld at the fixed point of a rank-2 lifted cone: minimum of the
    normalized form over interior lattice points, enumerated in the
    bounded region {form <= 2}."""
    if K.rank != 2:
        raise PreconditionError("lattice mld enumeration implemented for rank 2")
    if K.qgorenstein_form is None:
        raise NotQGorenstein("no covector takes value 1 on all rays")
    r1, r2 = K.rays
    det = r1[0] * r2[1] - r1[1] * r2[0]
    corners = [(0, 0), (2 * r1[0], 2 * r1[1]), (2 * r2[0], 2 * r2[1])]
    xs = [c[0] for c in corners]
    ys = [c[1] for c in corners]
    best: Optional[Fraction] = None
    for x in range(min(xs), max(xs) + 1):
        for y in range(min(ys), max(ys) + 1):
            if (x, y) == (0, 0):
                continue
            s = Fraction(x * r2[1] - y * r2[0], det)
            t = Fraction(y * r1[0] - x * r1[1], det)
            if s <= 0 or t <= 0:
                continue
            val = _dot(K.qgorenstein_form, (x, y))
            if val <= 2 and (best is None or val < best):
                best = val
    if best is None:
        raise InternalInvariantError("empty mld enumeration region")
    return best


def simplicial_walls_ok(rank, max_cones):
    """The combinatorial wall condition of a simplicial fan: every
    (rank - 1)-subset of a maximal cone lies in exactly two maximal
    cones."""
    facets = {}
    for ci, c in enumerate(max_cones):
        for facet in itertools.combinations(sorted(c), rank - 1):
            facets.setdefault(facet, []).append(ci)
    return all(len(owners) == 2 for owners in facets.values())


def fan_p1():
    return Fan(rank=1, rays=((1,), (-1,)), max_cones=((0,), (1,)))


def fan_p2():
    return Fan(rank=2, rays=((1, 0), (0, 1), (-1, -1)),
               max_cones=((0, 1), (1, 2), (0, 2)))


def fan_p1xp1():
    return Fan(rank=2, rays=((1, 0), (0, 1), (-1, 0), (0, -1)),
               max_cones=((0, 1), (1, 2), (2, 3), (0, 3)))


def fan_weighted_plane(a, b):
    """Rays (1,0), (0,1), (-a,-b) with a, b coprime positive integers."""
    if a <= 0 or b <= 0 or gcd(a, b) != 1:
        raise PreconditionError("weights must be coprime positive integers")
    return Fan(rank=2, rays=((1, 0), (0, 1), (-a, -b)),
               max_cones=((0, 1), (1, 2), (0, 2)))


def random_instances(seed, count, max_denominator=6, require_qgorenstein=True):
    """Deterministic stream of (label, fan, ample divisor) triples over
    the line, the plane, the quadric surface, and weighted planes."""
    rng = random.Random(seed)
    out = []
    attempts = 0
    while len(out) < count and attempts < 200 * count:
        attempts += 1
        kind = rng.choice(["p1", "p2", "p1xp1", "weighted"])
        if kind == "p1":
            F = fan_p1()
        elif kind == "p2":
            F = fan_p2()
        elif kind == "p1xp1":
            F = fan_p1xp1()
        else:
            while True:
                a, b = rng.randint(1, 3), rng.randint(1, 3)
                if gcd(a, b) == 1:
                    break
            F = fan_weighted_plane(a, b)
        coeffs = []
        for _ in F.rays:
            q = rng.randint(1, max_denominator)
            p = rng.randint(0, 4 * q)
            coeffs.append(Fraction(p, q))
        D = ToricDivisor.of(coeffs)
        if not is_ample(F, D):
            continue
        if require_qgorenstein:
            K = cone_of_x(F, D)
            if K.qgorenstein_form is None:
                continue
        out.append((f"{kind}#{len(out)}", F, D))
    if len(out) < count:
        raise InternalInvariantError("instance generator starved; widen the search")
    return out

"""Toric verification oracle: complete fans, invariant Q-divisors, the
lifted cone of the total space, and both sides of the discrepancy
comparison identity, all in exact lattice arithmetic.

Sign conventions are pinned operationally rather than trusted: the
support function takes the value c_rho at the ray rho, the lifted cone
has primitive rays equal to (Weil index) * (ray, coefficient), and the
log discrepancy at every lifted ray must come out exactly 1.  A wrong
convention anywhere fails loudly in the validation suite.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import gcd
from typing import List, Optional, Sequence, Tuple

from .errors import (FanInvalid, InternalInvariantError, NonCartierOnCone,
                     NotAmple, NotQCartierPair, NotQGorenstein,
                     PreconditionError)
from .jsonio import fmt_q
from .linalg import lcm_all, rank, rref, solve

Vector = Tuple[int, ...]


def _gcd_vec(v) -> int:
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    return g


def primitivize(v) -> Vector:
    g = _gcd_vec(v)
    if g == 0:
        raise InternalInvariantError("zero vector has no primitive form")
    return tuple(x // g for x in v)


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# fans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Fan:
    """Complete fan given by primitive rays and maximal cones.

    Validation covers ray primitivity and distinctness, full
    dimensionality of the maximal cones, and (for simplicial fans) the
    wall condition: every facet of a maximal cone is a facet of exactly
    one other.
    """

    rank: int
    rays: Tuple[Vector, ...]
    max_cones: Tuple[Tuple[int, ...], ...]

    def __post_init__(self):
        rays = tuple(tuple(int(x) for x in r) for r in self.rays)
        cones = tuple(tuple(sorted(c)) for c in self.max_cones)
        object.__setattr__(self, "rays", rays)
        object.__setattr__(self, "max_cones", cones)
        self._validate()

    def _validate(self):
        n = self.rank
        if n < 1:
            raise FanInvalid(f"rank {n} must be at least 1")
        for r in self.rays:
            if len(r) != n:
                raise FanInvalid(f"ray {r} has wrong length")
            if _gcd_vec(r) != 1:
                raise FanInvalid(f"ray {r} is not primitive")
        if len(set(self.rays)) != len(self.rays):
            raise FanInvalid("duplicate rays")
        if not self.max_cones:
            raise FanInvalid("no maximal cones")
        for c in self.max_cones:
            if any(i < 0 or i >= len(self.rays) for i in c):
                raise FanInvalid(f"cone {c} references a missing ray")
            mat = [list(self.rays[i]) for i in c]
            if rank(mat) != n:
                raise FanInvalid(f"cone {c} is not full-dimensional")
        if n == 1:
            if set(self.rays) != {(1,), (-1,)}:
                raise FanInvalid("a complete rank-1 fan has rays +1 and -1")
            return
        # Wall condition for simplicial fans.
        if all(len(c) == n for c in self.max_cones):
            facets = {}
            for ci, c in enumerate(self.max_cones):
                for facet in itertools.combinations(c, n - 1):
                    facets.setdefault(facet, []).append(ci)
            for facet, owners in facets.items():
                if len(owners) != 2:
                    raise FanInvalid(
                        f"facet {facet} belongs to {len(owners)} cones; fan not complete")

    @cached_property
    def cone_inequalities(self) -> Tuple[Tuple[Tuple[Vector, ...], ...], ...]:
        """Per maximal cone, in cone order: for every full-rank subset of
        rank-many of its rays, the rows of the subset's inverse matrix
        scaled by the positive lcm of their denominators.  v lies in the
        simplicial cone of a subset exactly when every row r has
        r . v >= 0 (Caratheodory: the cone is the union of these)."""
        n = self.rank
        unit = [[int(i == j) for j in range(n)] for i in range(n)]
        out = []
        for c in self.max_cones:
            tests = []
            for subset in itertools.combinations(c, n):
                # rows of [M | I] for the matrix M with the rays as columns
                aug = [[self.rays[j][i] for j in subset] + unit[i]
                       for i in range(n)]
                red, pivots = rref(aug)
                if pivots[:n] != list(range(n)):
                    continue
                inverse = [row[n:] for row in red]
                scale = lcm_all(x.denominator for row in inverse for x in row)
                tests.append(tuple(tuple(int(x * scale) for x in row)
                                   for row in inverse))
            out.append(tuple(tests))
        return tuple(out)

    def locate(self, v: Sequence[int]) -> int:
        """Index of the first maximal cone containing v."""
        for ci, tests in enumerate(self.cone_inequalities):
            for rows in tests:
                if all(_dot(row, v) >= 0 for row in rows):
                    return ci
        raise FanInvalid(f"{tuple(v)} is outside the fan support; fan not complete")

    def to_json(self) -> dict:
        return {"rank": self.rank,
                "rays": [list(r) for r in self.rays],
                "cones": [list(c) for c in self.max_cones]}


@dataclass(frozen=True)
class ToricDivisor:
    """One exact rational coefficient per ray."""

    coefficients: Tuple[Fraction, ...]

    @staticmethod
    def of(values) -> "ToricDivisor":
        return ToricDivisor(tuple(Fraction(v) for v in values))

    def to_json(self) -> list:
        return [fmt_q(c) for c in self.coefficients]


def _cone_linear_form(F: Fan, values: Sequence[Fraction], cone_index: int,
                      what: str) -> Tuple[Fraction, ...]:
    """The linear form matching prescribed ray values on one cone."""
    idx = F.max_cones[cone_index]
    rows = [list(F.rays[i]) for i in idx]
    rhs = [values[i] for i in idx]
    status, m = solve(rows, rhs)
    if status == "none":
        raise NonCartierOnCone(
            f"{what} admits no linear form on cone {cone_index}")
    if status == "many":
        raise NonCartierOnCone(
            f"cone {cone_index} is degenerate for {what}")
    return tuple(m)


def support_value(F: Fan, D: ToricDivisor, v: Sequence[int]) -> Fraction:
    """Value at v of the piecewise-linear extension of the ray data."""
    if all(x == 0 for x in v):
        return Fraction(0)
    ci = F.locate(v)
    m = _cone_linear_form(F, D.coefficients, ci, "divisor")
    return _dot(m, v)


def weil_index(F: Fan, D: ToricDivisor, v: Sequence[int]) -> int:
    """Denominator of the support value at a primitive lattice point."""
    return support_value(F, D, v).denominator


def cartier_index_on_cone(F: Fan, D: ToricDivisor, cone_index: int) -> int:
    """Least mu making mu D integral-linear on the cone."""
    m = _cone_linear_form(F, D.coefficients, cone_index, "divisor")
    return lcm_all(x.denominator for x in m) or 1


def cartier_index_global(F: Fan, D: ToricDivisor) -> int:
    return lcm_all(cartier_index_on_cone(F, D, ci)
                   for ci in range(len(F.max_cones))) or 1


def quotient_boundary(F: Fan, D: ToricDivisor) -> ToricDivisor:
    """Standard-coefficient boundary 1 - 1/q_rho from the denominators."""
    return ToricDivisor.of([Fraction(c.denominator - 1, c.denominator)
                            for c in D.coefficients])


def _pair_form(F: Fan, B: ToricDivisor, cone_index: int) -> Tuple[Fraction, ...]:
    """The linear form equal to 1 - b_rho at the rays of one cone."""
    values = [1 - b for b in B.coefficients]
    try:
        return _cone_linear_form(F, values, cone_index, "pair")
    except NonCartierOnCone as exc:
        raise NotQCartierPair(str(exc)) from None


def log_discrepancy_y(F: Fan, B: ToricDivisor, v: Sequence[int]) -> Fraction:
    """Value at v of the piecewise-linear form equal to 1 - b_rho at rays."""
    if all(x == 0 for x in v):
        return Fraction(0)
    return _dot(_pair_form(F, B, F.locate(v)), v)


def is_ample(F: Fan, D: ToricDivisor) -> bool:
    """Strict convexity of the support function across every wall:
    for each maximal cone, the cone's linear form undershoots the
    prescribed value at every ray outside the cone."""
    for ci, cone in enumerate(F.max_cones):
        m = _cone_linear_form(F, D.coefficients, ci, "divisor")
        for ri, ray in enumerate(F.rays):
            if ri in cone:
                continue
            if not _dot(m, ray) < D.coefficients[ri]:
                return False
    return True


# ---------------------------------------------------------------------------
# the lifted cone of the total space
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConeOfX:
    """Full-dimensional cone in rank d with one ray per fan ray,
    primitive generator W_rho * (v_rho, c_rho); the last coordinate
    vector is interior and names the central valuation."""

    rank: int
    rays: Tuple[Vector, ...]
    qgorenstein_form: Optional[Tuple[Fraction, ...]]

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "rays": [list(r) for r in self.rays],
            "qgorenstein_form": ([fmt_q(x) for x in self.qgorenstein_form]
                                 if self.qgorenstein_form is not None else None),
        }


def _facet_normals(rays: Sequence[Vector], dim: int) -> List[Tuple[Fraction, ...]]:
    """Inward normals of the facets of a full-dimensional pointed cone."""
    normals = []
    seen = set()
    from .linalg import nullspace
    for subset in itertools.combinations(range(len(rays)), dim - 1):
        mat = [[Fraction(x) for x in rays[i]] for i in subset]
        kernel_basis = nullspace(mat) if mat else []
        if len(kernel_basis) != 1:
            continue
        n = kernel_basis[0]
        pos = [i for i in range(len(rays)) if _dot(n, rays[i]) > 0]
        neg = [i for i in range(len(rays)) if _dot(n, rays[i]) < 0]
        if neg and pos:
            continue
        if neg:
            n = tuple(-x for x in n)
        scaled = _scale_to_primitive_int(n)
        if scaled in seen:
            continue
        seen.add(scaled)
        normals.append(scaled)
    return normals


def _scale_to_primitive_int(vec) -> Vector:
    den = 1
    for x in vec:
        f = Fraction(x)
        den = den * f.denominator // gcd(den, f.denominator)
    ints = [int(Fraction(x) * den) for x in vec]
    return primitivize(ints)


def cone_of_x(F: Fan, D: ToricDivisor) -> ConeOfX:
    if not is_ample(F, D):
        raise NotAmple("the divisor is not ample on the fan")
    d = F.rank + 1
    rays = []
    for v, c in zip(F.rays, D.coefficients):
        lifted = tuple(c.denominator * x for x in v) + (c.numerator,)
        if primitivize(lifted) != lifted:
            raise InternalInvariantError("lifted ray is not primitive")
        w = weil_index(F, D, v)
        expect = tuple(w * Fraction(x) for x in v) + (w * c,)
        if tuple(Fraction(x) for x in lifted) != expect:
            raise InternalInvariantError("lifted ray disagrees with the Weil index")
        rays.append(lifted)

    status, m = solve([list(r) for r in rays], [Fraction(1)] * len(rays))
    qform = tuple(m) if status == "unique" else None
    if status == "many":
        raise InternalInvariantError("lifted cone is not full-dimensional")

    # The last coordinate vector must lie strictly inside the cone.
    e_last = tuple(0 for _ in range(d - 1)) + (1,)
    for normal in _facet_normals(rays, d):
        if not _dot(normal, e_last) > 0:
            raise NotAmple("central vector is not interior; divisor not ample")
    return ConeOfX(rank=d, rays=tuple(rays), qgorenstein_form=qform)


def log_discrepancy_x(K: ConeOfX, w: Sequence[int]) -> Fraction:
    if K.qgorenstein_form is None:
        raise NotQGorenstein("no covector takes value 1 on all rays")
    return _dot(K.qgorenstein_form, w)


def lattice_mld(K: ConeOfX) -> Fraction:
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


# ---------------------------------------------------------------------------
# the comparison identity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComparisonCheck:
    v: Vector
    weil: int
    a_base: Fraction
    a_cone: Fraction

    @property
    def ok(self) -> bool:
        return self.a_cone == self.weil * self.a_base

    def to_json(self) -> dict:
        return {"v": list(self.v), "weil": self.weil,
                "a_base": fmt_q(self.a_base), "a_cone": fmt_q(self.a_cone),
                "ok": self.ok}


@dataclass(frozen=True)
class ComparisonReport:
    checks: Tuple[ComparisonCheck, ...]
    violations: Tuple[ComparisonCheck, ...]
    vertex_expected: Optional[Fraction]
    vertex_actual: Fraction
    vertex_ok: Optional[bool]

    def to_json(self) -> dict:
        return {
            "checks": [c.to_json() for c in self.checks],
            "violations": [c.to_json() for c in self.violations],
            "vertex_expected": (fmt_q(self.vertex_expected)
                                if self.vertex_expected is not None else None),
            "vertex_actual": fmt_q(self.vertex_actual),
            "vertex_ok": self.vertex_ok,
        }


def _vertex_ratio(F: Fan, D: ToricDivisor) -> Optional[Fraction]:
    """-lambda when the pair canonical class is lambda times the divisor
    class; None when the two are not proportional."""
    B = quotient_boundary(F, D)
    n = F.rank
    # unknowns: lambda, m_1..m_n; equations: lambda c_rho + <m, v_rho> = b_rho - 1
    rows = []
    rhs = []
    for v, c, b in zip(F.rays, D.coefficients, B.coefficients):
        rows.append([c] + list(v))
        rhs.append(b - 1)
    status, sol = solve(rows, rhs)
    if status == "none":
        return None
    if status != "unique":
        raise InternalInvariantError("ample divisor class cannot be degenerate")
    return -sol[0]


def verify_comparison(F: Fan, D: ToricDivisor,
                      samples: Sequence[Sequence[int]]) -> ComparisonReport:
    """Check a_cone(lifted v) = weil(v) * a_base(v) at every ray and
    every sample, plus the central degree-ratio identity when the pair
    canonical class is proportional to the divisor."""
    K = cone_of_x(F, D)
    if K.qgorenstein_form is None:
        raise NotQGorenstein("comparison needs a Q-Gorenstein lifted cone")
    B = quotient_boundary(F, D)
    # (divisor form, pair form) per cone, built when the first vector
    # lands in the cone, so a non-Q-Cartier pair fails at that vector
    forms = {}
    checks = []
    vectors = [tuple(r) for r in F.rays] + [tuple(v) for v in samples]
    for v in vectors:
        if all(x == 0 for x in v):
            continue
        v = primitivize(v)
        ci = F.locate(v)
        if ci not in forms:
            forms[ci] = (_cone_linear_form(F, D.coefficients, ci, "divisor"),
                         _pair_form(F, B, ci))
        divisor_form, pair_form = forms[ci]
        s = _dot(divisor_form, v)
        lifted = primitivize(tuple(s.denominator * x for x in v) + (s.numerator,))
        a_cone = log_discrepancy_x(K, lifted)
        checks.append(ComparisonCheck(v=v, weil=s.denominator,
                                      a_base=_dot(pair_form, v), a_cone=a_cone))
    violations = tuple(c for c in checks if not c.ok)

    e_last = tuple(0 for _ in range(F.rank)) + (1,)
    vertex_actual = log_discrepancy_x(K, e_last)
    vertex_expected = _vertex_ratio(F, D)
    vertex_ok = None if vertex_expected is None else vertex_actual == vertex_expected
    return ComparisonReport(checks=tuple(checks), violations=violations,
                            vertex_expected=vertex_expected,
                            vertex_actual=vertex_actual, vertex_ok=vertex_ok)


# ---------------------------------------------------------------------------
# stock fans and seeded instances
# ---------------------------------------------------------------------------

def fan_p1() -> Fan:
    return Fan(rank=1, rays=((1,), (-1,)), max_cones=((0,), (1,)))


def fan_p2() -> Fan:
    return Fan(rank=2, rays=((1, 0), (0, 1), (-1, -1)),
               max_cones=((0, 1), (1, 2), (0, 2)))


def fan_p1xp1() -> Fan:
    return Fan(rank=2, rays=((1, 0), (0, 1), (-1, 0), (0, -1)),
               max_cones=((0, 1), (1, 2), (2, 3), (0, 3)))


def fan_weighted_plane(a: int, b: int) -> Fan:
    """Rays (1,0), (0,1), (-a,-b) with a, b coprime positive integers."""
    if a <= 0 or b <= 0 or gcd(a, b) != 1:
        raise PreconditionError("weights must be coprime positive integers")
    return Fan(rank=2, rays=((1, 0), (0, 1), (-a, -b)),
               max_cones=((0, 1), (1, 2), (0, 2)))


def fan_projective_space(d: int) -> Fan:
    """The fan of d-dimensional projective space."""
    if d < 1:
        raise PreconditionError("d must be positive")
    rays = [tuple(1 if i == j else 0 for i in range(d)) for j in range(d)]
    rays.append(tuple(-1 for _ in range(d)))
    cones = tuple(tuple(sorted(c))
                  for c in itertools.combinations(range(d + 1), d))
    return Fan(rank=d, rays=tuple(rays), max_cones=cones)


def random_instances(seed: int, count: int, max_denominator: int = 6,
                     require_qgorenstein: bool = True):
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


def random_primitive_samples(seed: int, rank: int, count: int,
                             box: int = 5) -> List[Vector]:
    if count < 0:
        raise PreconditionError(f"sample count {count} is negative")
    if rank < 1 or box < 1:
        raise PreconditionError(f"sample rank {rank} and box {box} must be positive")
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        v = tuple(rng.randint(-box, box) for _ in range(rank))
        if all(x == 0 for x in v):
            continue
        out.append(primitivize(v))
    return out

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
from functools import cached_property
from fractions import Fraction
from math import gcd, lcm
from typing import List, Optional, Sequence, Tuple

from .errors import (FanInvalid, InternalInvariantError, NonCartierOnCone,
                     NotAmple, NotQCartierPair, NotQGorenstein,
                     PreconditionError)
from .jsonio import fmt_q, fmt_ratio
from .linalg import _integer_scaling, nullspace, primitivize, rank, solve
from .records import Record

Vector = Tuple[int, ...]


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# fans
# ---------------------------------------------------------------------------

class Fan(Record):
    """Complete fan given by primitive rays and maximal cones.

    Validation covers ray primitivity and distinctness, distinct rays
    within each maximal cone, full dimensionality and strict convexity
    of the maximal cones, the wall condition (every facet of a
    maximal cone is a facet of exactly one other, which lies on the
    other side of it) and a single cover: the sum of each maximal
    cone's rays lies in no other maximal cone.
    """

    _fields = ("rank", "rays", "max_cones")

    def __init__(self, rank: int, rays: Tuple[Vector, ...],
                 max_cones: Tuple[Tuple[int, ...], ...]):
        self.__dict__.update(
            rank=rank, rays=tuple(tuple(int(x) for x in r) for r in rays),
            max_cones=tuple(tuple(sorted(c)) for c in max_cones))
        self._validate()

    def _validate(self):
        n = self.rank
        if n < 1:
            raise FanInvalid(f"rank {n} must be at least 1")
        for r in self.rays:
            if len(r) != n:
                raise FanInvalid(f"ray {r} has wrong length")
            if gcd(*r) != 1:
                raise FanInvalid(f"ray {r} is not primitive")
        if len(set(self.rays)) != len(self.rays):
            raise FanInvalid("duplicate rays")
        if not self.max_cones:
            raise FanInvalid("no maximal cones")
        for c in self.max_cones:
            if any(i < 0 or i >= len(self.rays) for i in c):
                raise FanInvalid(f"cone {c} references a missing ray")
            if len(set(c)) != len(c):
                raise FanInvalid(f"cone {c} repeats a ray")
            mat = [list(self.rays[i]) for i in c]
            if rank(mat) != n:
                raise FanInvalid(f"cone {c} is not full-dimensional")
        # per maximal cone: inward facet normal by the facet's ray set
        walls = []
        for c, normals in zip(self.max_cones, self.facets):
            if rank(normals) != n:
                raise FanInvalid(f"cone {c} is not strictly convex")
            walls.append({frozenset(i for i in c if _dot(u, self.rays[i]) == 0): u
                          for u in normals})
        for c, own in zip(self.max_cones, walls):
            for wall, u in own.items():
                others = [w[wall] for w in walls if w is not own and wall in w]
                if others != [tuple(-x for x in u)]:
                    raise FanInvalid(
                        f"facet {sorted(wall)} of cone {c} is a facet of "
                        f"{len(others)} other cones, not of exactly one on "
                        "its other side; fan not complete")
        # With the walls paired, the cones cover space k times, and k = 1
        # exactly when the sum of each cone's rays, an interior point,
        # lies in no other cone.  For k > 1 that of the last cone lies in
        # an earlier one, so locate, which returns the first, finds it.
        for ci, c in enumerate(self.max_cones):
            inner = tuple(map(sum, zip(*(self.rays[i] for i in c))))
            first = self.locate(inner)
            if first != ci:
                raise FanInvalid(
                    f"the interior point {inner} of cone {c} lies in cone "
                    f"{self.max_cones[first]} too; the cones cover space "
                    "more than once")

    @cached_property
    def facets(self) -> Tuple[Tuple[Vector, ...], ...]:
        """Per maximal cone, in cone order, the primitive inward normals
        of its facets.  A pointed cone is the intersection of its facet
        half-spaces, so v lies in the cone exactly when u . v >= 0 for
        every normal u."""
        return tuple(tuple(_facet_normals([self.rays[i] for i in c], self.rank))
                     for c in self.max_cones)

    def locate(self, v: Sequence[int]) -> int:
        """Index of the first maximal cone containing v."""
        for ci, normals in enumerate(self.facets):
            if all(_dot(u, v) >= 0 for u in normals):
                return ci
        raise FanInvalid(f"{tuple(v)} is outside the fan support; fan not complete")


class ToricDivisor(Record):
    """One exact rational coefficient per ray."""

    _fields = ("coefficients",)

    def __init__(self, coefficients: Tuple[Fraction, ...]):
        self.__dict__["coefficients"] = coefficients

    @staticmethod
    def of(values) -> "ToricDivisor":
        return ToricDivisor(tuple(Fraction(v) for v in values))


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


def _divisor_form(F: Fan, D: ToricDivisor, cone_index: int) -> Tuple[Fraction, ...]:
    """The linear form matching D's coefficients at the rays of one
    cone, solved on first use and kept in the fan's instance dictionary,
    so that each (fan, divisor, cone) is solved once."""
    forms = F.__dict__.setdefault("_divisor_forms", {})
    key = (D.coefficients, cone_index)
    if key not in forms:
        forms[key] = _cone_linear_form(F, D.coefficients, cone_index, "divisor")
    return forms[key]


def cartier_index_global(F: Fan, D: ToricDivisor) -> int:
    """Least mu making mu D integral-linear on every cone."""
    return lcm(*(x.denominator for ci in range(len(F.max_cones))
                 for x in _divisor_form(F, D, ci)))


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


def is_ample(F: Fan, D: ToricDivisor) -> bool:
    """Strict convexity of the support function across every wall:
    for each maximal cone, the cone's linear form undershoots the
    prescribed value at every ray outside the cone."""
    return all(_dot(_divisor_form(F, D, ci), ray) < c
               for ci, cone in enumerate(F.max_cones)
               for ri, (ray, c) in enumerate(zip(F.rays, D.coefficients))
               if ri not in cone)


# ---------------------------------------------------------------------------
# the lifted cone of the total space
# ---------------------------------------------------------------------------

class ConeOfX(Record):
    """Full-dimensional cone in rank d with one ray per fan ray,
    primitive generator W_rho * (v_rho, c_rho); the last coordinate
    vector is interior and names the central valuation."""

    _fields = ("rank", "rays", "qgorenstein_form")

    def __init__(self, rank: int, rays: Tuple[Vector, ...],
                 qgorenstein_form: Optional[Tuple[Fraction, ...]]):
        self.__dict__.update(rank=rank, rays=rays,
                             qgorenstein_form=qgorenstein_form)


def _facet_normals(rays: Sequence[Vector], dim: int) -> List[Vector]:
    """Inward normals of the facets of a full-dimensional pointed cone."""
    normals = []
    seen = set()
    for subset in itertools.combinations(range(len(rays)), dim - 1):
        # in rank 1 the only facet is the origin, whose kernel is the line
        kernel_basis = nullspace([rays[i] for i in subset]) if subset else [(1,)]
        if len(kernel_basis) != 1:
            continue
        # nullspace returns primitive integer vectors
        n = tuple(kernel_basis[0])
        pos = [i for i in range(len(rays)) if _dot(n, rays[i]) > 0]
        neg = [i for i in range(len(rays)) if _dot(n, rays[i]) < 0]
        if neg and pos:
            continue
        if neg:
            n = tuple(-x for x in n)
        if n in seen:
            continue
        seen.add(n)
        normals.append(n)
    return normals


def cone_of_x(F: Fan, D: ToricDivisor) -> ConeOfX:
    if not is_ample(F, D):
        raise NotAmple("the divisor is not ample on the fan")
    d = F.rank + 1
    rays = []
    for v, c in zip(F.rays, D.coefficients):
        lifted = tuple(c.denominator * x for x in v) + (c.numerator,)
        if primitivize(lifted) != lifted:
            raise InternalInvariantError("lifted ray is not primitive")
        w = _dot(_divisor_form(F, D, F.locate(v)), v).denominator
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


# ---------------------------------------------------------------------------
# the comparison identity
# ---------------------------------------------------------------------------

class ComparisonReport(Record):
    _fields = ("checks", "violations", "vertex_expected", "vertex_actual",
               "vertex_ok")

    def __init__(self, checks: List[dict], violations: List[dict],
                 vertex_expected: Optional[Fraction], vertex_actual: Fraction,
                 vertex_ok: Optional[bool]):
        self.__dict__.update(checks=checks, violations=violations,
                             vertex_expected=vertex_expected,
                             vertex_actual=vertex_actual, vertex_ok=vertex_ok)

    def to_json(self) -> dict:
        expected = self.vertex_expected
        return {"checks": self.checks, "violations": self.violations,
                "vertex_expected": None if expected is None else fmt_q(expected),
                "vertex_actual": fmt_q(self.vertex_actual),
                "vertex_ok": self.vertex_ok}


def _vertex_ratio(F: Fan, D: ToricDivisor) -> Optional[Fraction]:
    """-lambda when the pair canonical class is lambda times the divisor
    class; None when the two are not proportional."""
    B = quotient_boundary(F, D)
    # unknowns: lambda, m_1..m_n; equations: lambda c_rho + <m, v_rho> = b_rho - 1
    status, sol = solve([[c, *v] for v, c in zip(F.rays, D.coefficients)],
                        [b - 1 for b in B.coefficients])
    if status == "none":
        return None
    if status != "unique":
        raise InternalInvariantError("ample divisor class cannot be degenerate")
    return -sol[0]


def verify_comparison(F: Fan, D: ToricDivisor,
                      samples: Sequence[Sequence[int]]) -> ComparisonReport:
    """Check a_cone(lifted v) = weil(v) * a_base(v) at every ray and
    every nonzero integer sample, plus the central degree-ratio identity
    when the pair canonical class is proportional to the divisor.  Each
    vector gives one row, the JSON object toric-check prints."""
    K = cone_of_x(F, D)
    if K.qgorenstein_form is None:
        raise NotQGorenstein("comparison needs a Q-Gorenstein lifted cone")
    B = quotient_boundary(F, D)
    # Each linear form as (integer form, positive denominator), so a
    # vector costs integer dots only.
    qform, qden = _integer_scaling(K.qgorenstein_form)
    # (divisor form, pair form) per cone, built when the first vector
    # lands in the cone, so a non-Q-Cartier pair fails at that vector
    forms = {}
    checks = []
    for v in [*F.rays, *samples]:
        g = gcd(*v)
        if g == 0:
            continue
        v = [x // g for x in v]
        ci = F.locate(v)
        if ci not in forms:
            forms[ci] = (_integer_scaling(_divisor_form(F, D, ci)),
                         _integer_scaling(_pair_form(F, B, ci)))
        (dform, dden), (pform, pden) = forms[ci]
        # D_sigma . v = s / weil in lowest terms; the lift (weil v, s) is
        # primitive, since v is and gcd(weil, s) = 1
        s = _dot(dform, v)
        g = gcd(s, dden)
        s, weil = s // g, dden // g
        base = _dot(pform, v)                           # a_base = base / pden
        cone = weil * _dot(qform, v) + qform[-1] * s    # a_cone = cone / qden
        checks.append({"v": v, "weil": weil,
                       "a_base": fmt_ratio(base, pden),
                       "a_cone": fmt_ratio(cone, qden),
                       "ok": cone * pden == weil * base * qden})
    violations = [c for c in checks if not c["ok"]]

    e_last = tuple(0 for _ in range(F.rank)) + (1,)
    vertex_actual = log_discrepancy_x(K, e_last)
    vertex_expected = _vertex_ratio(F, D)
    vertex_ok = None if vertex_expected is None else vertex_actual == vertex_expected
    return ComparisonReport(checks=checks, violations=violations,
                            vertex_expected=vertex_expected,
                            vertex_actual=vertex_actual, vertex_ok=vertex_ok)


# ---------------------------------------------------------------------------
# projective space and seeded samples
# ---------------------------------------------------------------------------

def fan_projective_space(d: int) -> Fan:
    """The fan of d-dimensional projective space."""
    if d < 1:
        raise PreconditionError("d must be positive")
    rays = [tuple(1 if i == j else 0 for i in range(d)) for j in range(d)]
    rays.append(tuple(-1 for _ in range(d)))
    cones = tuple(tuple(sorted(c))
                  for c in itertools.combinations(range(d + 1), d))
    return Fan(rank=d, rays=tuple(rays), max_cones=cones)


# sample coordinates lie in [-SAMPLE_BOX, SAMPLE_BOX]
SAMPLE_BOX = 5


def random_primitive_samples(seed: int, rank: int, count: int) -> List[Vector]:
    if count < 0:
        raise PreconditionError(f"sample count {count} is negative")
    if rank < 1:
        raise PreconditionError(f"sample rank {rank} must be positive")
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        v = tuple(rng.randint(-SAMPLE_BOX, SAMPLE_BOX) for _ in range(rank))
        g = gcd(*v)
        if g:               # not the zero vector
            out.append(tuple(x // g for x in v))
    return out

"""The graded section ring of a couple: explicit bases, multiplication,
minimal generators and relations.

The degree-n piece is the space of rational functions with divisor
bounded below by -floor(n D).  With E = floor(n D) the canonical basis
is t^j / prod_{finite y} (t - y)^{e_y} for j = 0 .. deg E, so a section
in degree n is identified with the coefficient vector of its numerator
polynomial.  Multiplying degrees a and b into a + b multiplies
numerators and the correction polynomial prod (t - y)^{delta_y} with
delta = floor((a+b)D) - floor(aD) - floor(bD) >= 0; the identification
turns on the superadditivity of floors.  Numerator coefficients are
ints whenever every finite coordinate y is integral, as on the
canonical placement 0, 1, infinity; a rational y brings in Fractions
through Python's own int/Fraction arithmetic.  The linear algebra on
them (RowSpan, nullspace) is fraction-free over the integers.  Only the
presentation path imports linalg and resolution.  The Hilbert series
lives in the hilbert module, which the presentation reads.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil
from typing import Dict, List, Optional, Tuple

from .divisors import (CurveCouple, Rational, assign_coordinates,
                       denominators_lcm, floor_multiple)
from .errors import BoundTooSmall, InternalInvariantError, NotKlt
from .hilbert import HilbertData, hilbert_series


# ---------------------------------------------------------------------------
# explicit bases and multiplication
# ---------------------------------------------------------------------------

def _poly_mul(a: List[Rational], b: List[Rational]) -> List[Rational]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _linear_factor_power(y: Fraction, e: int) -> List[Rational]:
    """(t - y)^e, with int coefficients when y is integral."""
    if y.denominator == 1:
        y = y.numerator
    out = [1]
    for _ in range(e):
        out = _poly_mul(out, [-y, 1])
    return out


def _unit_vectors(dim: int) -> List[List[int]]:
    return [[int(i == j) for i in range(dim)] for j in range(dim)]


class SectionSpace:
    """Canonical coordinates for all graded pieces of one couple."""

    def __init__(self, C: CurveCouple):
        self.couple = assign_coordinates(C)
        self._floor_cache: Dict[int, dict] = {}
        self._shift_cache: Dict[Tuple[int, int], List[Rational]] = {}

    def floor_data(self, n: int) -> dict:
        cached = self._floor_cache.get(n)
        if cached is None:
            E = floor_multiple(self.couple, n)
            fin = {p.x: c for p, c in E if p.kind == "fin"}
            cached = {"deg": sum(c for _, c in E), "fin": fin}
            self._floor_cache[n] = cached
        return cached

    def dim(self, n: int) -> int:
        return max(0, self.floor_data(n)["deg"] + 1)

    def shift_poly(self, a: int, b: int) -> List[Rational]:
        """prod (t - y)^{delta_y} with delta = floor((a+b)D) - floor(aD) - floor(bD)."""
        key = (a, b) if a <= b else (b, a)
        cached = self._shift_cache.get(key)
        if cached is not None:
            return cached
        fa = self.floor_data(a)["fin"]
        fb = self.floor_data(b)["fin"]
        fab = self.floor_data(a + b)["fin"]
        poly = [1]
        for y in sorted(set(fa) | set(fb) | set(fab)):
            delta = fab.get(y, 0) - fa.get(y, 0) - fb.get(y, 0)
            if delta < 0:
                raise InternalInvariantError("floor superadditivity violated")
            if delta > 0:
                poly = _poly_mul(poly, _linear_factor_power(y, delta))
        self._shift_cache[key] = poly
        return poly

    def multiply(self, a: int, va: List[Rational], b: int,
                 vb: List[Rational]) -> List[Rational]:
        """Coordinates of the product of sections of degrees a and b
        inside degree a + b."""
        out = _poly_mul(_poly_mul(va, vb), self.shift_poly(a, b))
        target = self.dim(a + b)
        if len(out) > target:
            raise InternalInvariantError("product escapes the target space")
        return out + [0] * (target - len(out))


# ---------------------------------------------------------------------------
# minimal generators and relations
# ---------------------------------------------------------------------------

def default_presentation_bound(C: CurveCouple) -> int:
    L = denominators_lcm(C)
    return 4 * L * max(1, ceil(1 / C.degree()))


VARIABLE_NAMES = ("x", "y", "z", "w")


def _monomials(gen_degrees: List[int], total: int) -> List[Tuple[int, ...]]:
    """Exponent tuples of weighted degree `total`, lexicographic order."""
    out = []

    def rec(idx: int, remaining: int, expt: List[int]):
        if idx == len(gen_degrees):
            if remaining == 0:
                out.append(tuple(expt))
            return
        d = gen_degrees[idx]
        for e in range(remaining // d, -1, -1):
            expt.append(e)
            rec(idx + 1, remaining - e * d, expt)
            expt.pop()

    rec(0, total, [])
    return sorted(out, reverse=True)


def _equation_string(ints, monomials) -> str:
    """Leading-positive polynomial in x, y, z, w from a primitive
    integer vector, as nullspace returns them."""
    lead = next(c for c in ints if c != 0)
    if lead < 0:
        ints = [-c for c in ints]
    parts = []
    for c, expt in zip(ints, monomials):
        if c == 0:
            continue
        factors = []
        for var, e in zip(VARIABLE_NAMES, expt):
            if e == 1:
                factors.append(var)
            elif e > 1:
                factors.append(f"{var}**{e}")
        mono = "*".join(factors) if factors else "1"
        coeff = abs(c)
        term = mono if coeff == 1 and factors else f"{coeff}*{mono}" if factors else str(coeff)
        parts.append(("- " if c < 0 else "+ ") + term)
    body = " ".join(parts)
    return body[2:] if body.startswith("+ ") else "-" + body[2:]


class _GeneratorScan:
    """Incremental span of the subalgebra generated so far, degree by degree.

    Degrees are processed explicitly until fullness becomes
    self-propagating: when one period L back the piece is already full
    and the floor deficit of (L, n - L) vanishes, multiplication by the
    degree-L piece is onto (numerator spaces multiply without
    constraint), so degree n is full without building vectors.  The
    precondition of that step is checked each time it is taken.
    """

    def __init__(self, space: SectionSpace):
        self.space = space
        self.period = denominators_lcm(space.couple)
        self.gens: List[Tuple[int, List[Rational]]] = []   # (degree, vector)
        self.basis: Dict[int, List[List[Rational]]] = {}
        self.full: Dict[int, bool] = {}

    def _period_step_applies(self, n: int) -> bool:
        L = self.period
        prev = n - L
        if prev < 1 or not self.full.get(prev) or not self.full.get(L):
            return False
        if self.space.dim(prev) < 1 or self.space.dim(L) < 1:
            return False
        # zero floor deficit at every point, infinity included
        if len(self.space.shift_poly(L, prev)) != 1:
            return False
        return self.space.dim(n) == self.space.dim(L) + self.space.dim(prev) - 1

    def _ensure_degree(self, n: int, allow_new_generators: bool) -> int:
        """Builds the subalgebra span in degree n; returns the number of
        new generators added (0 unless allowed)."""
        space = self.space
        dim_n = space.dim(n)
        if self._period_step_applies(n):
            self.full[n] = True
            self.basis[n] = _unit_vectors(dim_n)
            return 0
        from .linalg import RowSpan
        span = RowSpan()
        vectors: List[List[Rational]] = []
        for d, gvec in self.gens:
            if d >= n or span.dim == dim_n:
                continue
            for bvec in self.basis.get(n - d, []):
                prod = space.multiply(d, gvec, n - d, bvec)
                if span.add(prod):
                    vectors.append(prod)
                if span.dim == dim_n:
                    break
        new = 0
        if allow_new_generators:
            for e in _unit_vectors(dim_n):
                if span.add(e):
                    self.gens.append((n, e))
                    vectors.append(e)
                    new += 1
        self.full[n] = span.dim == dim_n
        self.basis[n] = vectors
        return new

    def run(self, gen_bound: int, verify_through: int):
        degrees = []
        for n in range(1, gen_bound + 1):
            added = self._ensure_degree(n, allow_new_generators=True)
            degrees.extend([n] * added)
            if not self.full[n]:
                raise InternalInvariantError(
                    "generator scan failed to saturate its degree")
        for n in range(gen_bound + 1, verify_through + 1):
            self._ensure_degree(n, allow_new_generators=False)
            if not self.full[n]:
                raise BoundTooSmall(
                    f"generators through degree {gen_bound} do not span degree {n}")
        return degrees


def _one_minus_power(k: int) -> List[int]:
    """Coefficients of 1 - T^k, k >= 1."""
    return [1] + [0] * (k - 1) + [-1]


def _hypersurface_relation_degree(hd: HilbertData,
                                  gen_degrees: List[int]) -> int:
    """The degree r of the one relation among three generators of degrees
    d_i: the ring is then k[x, y, z]/(f), so H(T) prod (1 - T^d_i) is
    1 - T^r, i.e. numerator * prod (1 - T^d_i) = (1 - T^r)(1 - T)(1 - T^L)."""
    lhs = list(hd.numerator)
    for d in gen_degrees:
        lhs = _poly_mul(lhs, _one_minus_power(d))
    r = len(lhs) - hd.period - 2
    if r < 1 or lhs != _poly_mul(_poly_mul(_one_minus_power(r), [1, -1]),
                                 _one_minus_power(hd.period)):
        raise InternalInvariantError(
            f"generators {sorted(gen_degrees)} do not give a hypersurface "
            f"with Hilbert numerator {list(hd.numerator)}")
    return r


def _certify_generator_count(C: CurveCouple, count: int) -> None:
    """For a klt couple the minimal generator count is the embedding
    dimension, which Artin's formula reads off the blown-down graph."""
    from .resolution import build_graph
    try:
        G = build_graph(C)
    except NotKlt:
        return
    expected = G.blown_down.embedding_dimension
    if count != expected:
        raise InternalInvariantError(
            f"the scan found {count} generators, but the blown-down graph "
            f"gives embedding dimension {expected}")


def presentation(C: CurveCouple, gen_bound: Optional[int] = None,
                 rel_bound: Optional[int] = None) -> dict:
    """The JSON object of the presentation command: the Hilbert series,
    minimal generator degrees, minimal relation degrees (ascending),
    explicit equations (empty above four generators) and
    verified_through.

    Correctness is certified by saturation: the subalgebra generated by
    the reported generators must reproduce the Hilbert function through
    verified_through = 2 max(gen_bound, rel_bound), else BoundTooSmall.
    For a klt couple their number must be Artin's embedding dimension.
    With three generators the Hilbert series forces one relation of a
    known degree: a rel_bound below it is BoundTooSmall, and the search
    must find exactly that relation.  Computing the Hilbert series first
    refuses a period above PERIOD_MAX before the scan starts.  Only
    Artin's count checks the default gen_bound, so a non-klt couple,
    which has none, needs an explicit gen_bound (NotKlt otherwise).
    """
    hd = hilbert_series(C)
    if gen_bound is None:
        deg_b = C.boundary_degree()
        if deg_b >= 2:
            raise NotKlt(f"boundary degree {deg_b} is >= 2, and the default "
                         "generator bound is certified only on a klt "
                         "couple; give --gen-bound")
        gen_bound = default_presentation_bound(C)
    if rel_bound is None:
        rel_bound = gen_bound
    verified_through = 2 * max(gen_bound, rel_bound)

    space = SectionSpace(C)
    scan = _GeneratorScan(space)
    gen_degrees = scan.run(gen_bound, verified_through)
    _certify_generator_count(C, len(gen_degrees))
    forced = None
    if len(gen_degrees) == 3:
        forced = _hypersurface_relation_degree(hd, gen_degrees)
        if rel_bound < forced:
            raise BoundTooSmall(
                f"relation bound {rel_bound} is below the degree {forced} "
                f"of the relation that the Hilbert series forces")

    relation_degrees: List[int] = []
    equations: List[str] = []
    if gen_degrees:
        from .linalg import RowSpan, nullspace
        gd = sorted(gen_degrees)
        gens_sorted = sorted(scan.gens, key=lambda g: g[0])
        # Cache of monomial evaluations, keyed by exponent tuple.
        eval_cache: Dict[Tuple[int, ...], List[Rational]] = {}

        def evaluate(expt: Tuple[int, ...], n: int) -> List[Rational]:
            # peel off one lowest-degree factor at a time down to a cached
            # monomial (or 1), then multiply back up, caching each step
            peeled = []
            while n > 0 and expt not in eval_cache:
                idx = next(i for i, e in enumerate(expt) if e > 0)
                peeled.append((expt, idx, n))
                sub = list(expt)
                sub[idx] -= 1
                expt, n = tuple(sub), n - gd[idx]
            val = eval_cache[expt] if n > 0 else [1]
            for expt, idx, n in reversed(peeled):
                d = gd[idx]
                val = space.multiply(d, gens_sorted[idx][1], n - d, val)
                eval_cache[expt] = val
            return val

        relations: List[Tuple[int, Dict[Tuple[int, ...], int]]] = []
        for n in range(2, rel_bound + 1):
            monos = _monomials(gd, n)
            if len(monos) < 2:
                continue
            # the scan certified that the generators span every degree
            # through verified_through >= rel_bound, so evaluation is onto
            kernel_dim = len(monos) - space.dim(n)
            if kernel_dim < 0:
                raise InternalInvariantError(
                    f"{len(monos)} monomials cannot span degree {n}")
            if kernel_dim == 0:
                continue
            index = {m: i for i, m in enumerate(monos)}
            old = RowSpan()
            for d_rel, rel in relations:
                for shift in _monomials(gd, n - d_rel):
                    shifted: Dict[int, int] = {}
                    for expt, c in rel.items():
                        combined = tuple(a + b for a, b in zip(expt, shift))
                        i = index[combined]
                        shifted[i] = shifted.get(i, 0) + c
                    old.add(shifted)
            new_count = kernel_dim - old.dim
            if new_count < 0:
                raise InternalInvariantError("shifted relations escaped the kernel")
            if new_count == 0:
                continue
            # relations are left-kernel vectors: combinations of monomials
            # evaluating to zero
            rows = [evaluate(m, n) for m in monos]
            kernel = nullspace([list(col) for col in zip(*rows)])
            if len(kernel) != kernel_dim:
                raise InternalInvariantError(
                    f"degree {n} has a {len(kernel)}-dimensional relation "
                    f"kernel, but the spanning certificate gives {kernel_dim}")
            found = 0
            for kv in kernel:
                if old.add(kv):
                    found += 1
                    relation_degrees.append(n)
                    relations.append(
                        (n, {m: c for m, c in zip(monos, kv) if c != 0}))
                    if len(gd) <= len(VARIABLE_NAMES):
                        equations.append(_equation_string(kv, monos))
            if found != new_count:
                raise InternalInvariantError("kernel extraction missed new relations")

    if forced is not None and relation_degrees != [forced]:
        raise InternalInvariantError(
            f"relation degrees {relation_degrees} differ from the forced {forced}")
    return {"series": hd.to_json(), "generators": sorted(gen_degrees),
            "relations": relation_degrees, "equations": equations,
            "verified_through": verified_through}

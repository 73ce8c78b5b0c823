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
from typing import Dict, List, Optional, Tuple

from .divisors import CurveCouple, Rational, assign_coordinates, floor_multiple
from .errors import BoundTooSmall, InternalInvariantError, NotKlt
from .hilbert import HilbertData, hilbert_series, nonnegative_from


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
    """Incremental span of the subalgebra generated so far, degree by
    degree: products of the generators with the spanning vectors of lower
    degrees, and the unit vectors they leave out as new generators."""

    def __init__(self, space: SectionSpace):
        self.space = space
        self.gens: List[Tuple[int, List[Rational]]] = []   # (degree, vector)
        self.basis: Dict[int, List[List[Rational]]] = {}

    def _span_degree(self, n: int, allow_new_generators: bool) -> int:
        """Spans degree n; returns the dimension the products leave out,
        which become that many new generators when they are allowed."""
        from .linalg import RowSpan
        space = self.space
        dim_n = space.dim(n)
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
        missing = dim_n - span.dim
        if allow_new_generators:
            for e in _unit_vectors(dim_n):
                if span.add(e):
                    self.gens.append((n, e))
                    vectors.append(e)
        self.basis[n] = vectors
        return missing

    def run(self, gen_bound: int, through: int,
            count: Optional[int] = None) -> List[int]:
        """Generator degrees from a scan of degrees 1 .. through that takes
        new generators through gen_bound and stops after the degree where
        it holds `count` of them; a degree above gen_bound that the
        generators do not span is BoundTooSmall."""
        degrees: List[int] = []
        for n in range(1, through + 1):
            missing = self._span_degree(n, n <= gen_bound)
            if n > gen_bound and missing:
                raise BoundTooSmall(
                    f"generators through degree {gen_bound} do not span degree {n}")
            degrees.extend([n] * missing)
            if count is not None and len(degrees) >= count:
                break
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


def presentation(C: CurveCouple, gen_bound: Optional[int] = None,
                 rel_bound: Optional[int] = None) -> dict:
    """The JSON object of the presentation command: the Hilbert series,
    minimal generator degrees, minimal relation degrees (ascending),
    explicit equations (empty above four generators) and
    verified_through, the last degree the generator scan spanned.

    The theory says where each search stops; the bounds only cap it
    (README).  Each degree past c = n0 + L - 1 is the degree-L piece
    times a lower one, so a scan that spans degrees 1 .. c has found
    every generator.  On a klt couple the scan stops at Artin's count e
    of generators, and the relation search at Wahl's count
    (e - 1)(e - 2)/2 of relations, each of degree at most twice the top
    generator degree; a given bound reached first is BoundTooSmall, any
    other shortfall an invariant breach.  Otherwise the scan spans every
    degree through c, and relations are listed through rel_bound
    (default gen_bound; NotKlt without either), which relations_through
    states.  Three generators make a hypersurface, whose relation degree
    the Hilbert series forces.
    """
    from .resolution import build_graph
    hd = hilbert_series(C)
    try:    # Artin's count of generators, as graded Nakayama reads it
        embdim = build_graph(C).blown_down.embedding_dimension
    except NotKlt:
        embdim = None
    if embdim is None and gen_bound is None and rel_bound is None:
        raise NotKlt("the couple is not klt, so no count of minimal "
                     "relations ends their search; give --rel-bound")
    certificate = nonnegative_from(C) + hd.period - 1
    new_through = certificate if gen_bound is None else min(gen_bound,
                                                             certificate)
    space = SectionSpace(C)
    scan = _GeneratorScan(space)
    if embdim is None:
        gd = scan.run(new_through, certificate)
        verified_through, wanted = certificate, None
        rel_cap = gen_bound if rel_bound is None else rel_bound
    else:
        gd = scan.run(new_through, new_through, embdim)
        count = len(gd)
        if count < embdim and new_through < certificate:
            raise BoundTooSmall(
                f"generator bound {gen_bound} finds {count} generators, "
                f"below embedding dimension {embdim}")
        if count != embdim:
            raise InternalInvariantError(
                f"the scan found {count} generators, but the blown-down "
                f"graph gives embedding dimension {embdim}")
        verified_through = gd[-1]
        wanted = (embdim - 1) * (embdim - 2) // 2
        rel_cap = 2 * verified_through if rel_bound is None else rel_bound

    from .linalg import RowSpan, nullspace
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
            # the scan lists the generators in increasing degree, as gd
            val = space.multiply(d, scan.gens[idx][1], n - d, val)
            eval_cache[expt] = val
        return val

    # each degree's monomials, listed once for this presentation
    monomials: Dict[int, List[Tuple[int, ...]]] = {}

    def monomials_of(n: int) -> List[Tuple[int, ...]]:
        if n not in monomials:
            monomials[n] = _monomials(gd, n)
        return monomials[n]

    relation_degrees: List[int] = []
    equations: List[str] = []
    relations: List[Tuple[int, Dict[Tuple[int, ...], int]]] = []
    for n in range(2, rel_cap + 1):
        if wanted is not None and len(relation_degrees) >= wanted:
            break
        monos = monomials_of(n)
        if len(monos) < 2:
            continue
        # the generators span every degree, so evaluation is onto
        kernel_dim = len(monos) - space.dim(n)
        if kernel_dim < 0:
            raise InternalInvariantError(
                f"{len(monos)} monomials cannot span degree {n}")
        if kernel_dim == 0:
            continue
        index = {m: i for i, m in enumerate(monos)}
        old = RowSpan()
        for d_rel, rel in relations:
            for shift in monomials_of(n - d_rel):
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

    listed = len(relation_degrees)
    if wanted is not None and listed != wanted:
        if listed < wanted and rel_bound is not None:
            raise BoundTooSmall(
                f"relation bound {rel_bound} finds {listed} relations, below "
                f"Wahl's count {wanted} for {embdim} generators")
        raise InternalInvariantError(
            f"the search listed {listed} relations through degree {rel_cap}, "
            f"but Wahl's count for {embdim} generators is {wanted}")
    if len(gd) == 3:
        forced = _hypersurface_relation_degree(hd, gd)
        if not relation_degrees and rel_cap < forced:
            raise BoundTooSmall(
                f"relation bound {rel_cap} is below the degree {forced} "
                f"of the relation that the Hilbert series forces")
        if relation_degrees != [forced]:
            raise InternalInvariantError(
                f"relation degrees {relation_degrees} differ from the "
                f"forced {forced}")
    doc = {"series": hd.to_json(), "generators": gd,
           "relations": relation_degrees, "equations": equations,
           "verified_through": verified_through}
    if wanted is None:     # no count certifies the list above rel_cap
        doc["relations_through"] = rel_cap
    return doc

"""Shared test utilities: deterministic random couples and instances,
stock fans, and the reference oracles that the library's closed forms
and fast paths are checked against."""

import itertools
import math
import random
from fractions import Fraction
from math import gcd, lcm
from types import SimpleNamespace
from typing import Dict, Optional

from conesing.divisors import (CurveCouple, denominators_lcm, finite_point,
                               floor_multiple, infinity_point)
from conesing.errors import InternalInvariantError, PreconditionError
from conesing.linalg import RowSpan, det_int, nullspace, solve
from conesing.sections import (SectionSpace, _equation_string,
                               _GeneratorScan, _monomials)
from conesing.toric import Fan, _cone_linear_form, _dot, cone_of_x, is_ample

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
        if not (0 < divisor_degree(terms) <= max_degree):
            continue
        out.append(CurveCouple.of(terms))
    return out


def merged_terms(items):
    """The terms of a divisor given as a mapping or as (point,
    coefficient) pairs: coefficients summed per point, zeros dropped, the
    points sorted.  The oracle of CurveCouple.of's merge."""
    acc = {}
    for p, c in (items.items() if isinstance(items, dict) else items):
        acc[p] = acc.get(p, 0) + Fraction(c)
    return tuple(sorted(((p, c) for p, c in acc.items() if c),
                        key=lambda t: t[0].sort_key()))


def integral_terms(items):
    """The (point, int) terms of an integral divisor, merged as by
    merged_terms: the shape of floor_multiple's result and of H."""
    terms = merged_terms(items)
    assert all(c.denominator == 1 for _, c in terms), terms
    return tuple((p, int(c)) for p, c in terms)


def plus(C, items):
    """The couple whose divisor is that of C plus the divisor of items."""
    items = items.items() if isinstance(items, dict) else items
    return CurveCouple(merged_terms([*C.terms, *items]))


def divisor(items):
    """A Q-divisor that need not be ample, held as a couple holds its
    terms: what floor_multiple and denominators_lcm read."""
    return SimpleNamespace(terms=merged_terms(items))


def terms_of(D):
    """The terms of a couple or a divisor, or a bare tuple of terms (such
    as the boundary of a quotient pair) itself."""
    return getattr(D, "terms", D)


def divisor_degree(D):
    """The sum of the coefficients of a divisor, of its terms or of a
    mapping from points to coefficients."""
    terms = D.items() if isinstance(D, dict) else terms_of(D)
    return sum((c for _, c in terms), Fraction(0))


def canonical_divisor_p1():
    """The fixed representative -2 [inf] of the canonical class."""
    return integral_terms({infinity_point(): -2})


def coeff(D, pt):
    """The coefficient at pt of a couple or a divisor (its terms) or of a
    quotient pair's boundary terms, by a scan of the terms; 0 off the
    support.  The library reads each point's coefficient off its own
    term instead."""
    return next((c for p, c in terms_of(D) if p == pt), 0)


def support(D):
    """The points of a divisor's terms, in term order."""
    return tuple(p for p, _ in terms_of(D))


def chart_cone(C, pt):
    """(q, p) of the chart cone over a point of C, by a scan of the terms
    for the point: q is the denominator of its coefficient and p the
    numerator of the fractional part (adding integral multiples of the
    point is a unimodular change of chart).  The oracle of the pair that
    build_graph reads off each term."""
    c = Fraction(coeff(C, pt))
    return c.denominator, c.numerator % c.denominator


def horizontal_log_discrepancy(C, pt):
    """The log discrepancy w (1 - b_p) of the invariant curve over pt,
    with w the denominator of the coefficient of D at pt and b_p that of
    the quotient boundary, each found by a scan of the terms.  The
    per-point oracle of quotient.horizontal_log_discrepancies."""
    from conesing.quotient import log_fano_quotient
    w = Fraction(coeff(C, pt)).denominator
    return w * (1 - Fraction(coeff(log_fano_quotient(C), pt)))


def pair_boundary_degree(B):
    """deg B of a quotient pair: the sum of its boundary coefficients."""
    return sum((b for _, b in B), Fraction(0))


def is_log_fano(B):
    """Standard coefficients are below 1, so the pair (line, B) is log
    Fano exactly when deg B < 2."""
    return pair_boundary_degree(B) < 2


def fraction_vertex_decomposition(C):
    """The minimal decomposition m(K + B) = H + u D in Fractions: m from
    the closed form, H from coefficient scans over the points of D, K and
    B.  The oracle of the integer form in quotient."""
    from math import lcm
    from conesing.errors import NotKlt
    from conesing.quotient import VertexData, log_fano_quotient
    B = log_fano_quotient(C)
    if not is_log_fano(B):
        raise NotKlt(f"boundary degree {pair_boundary_degree(B)} is >= 2")
    ratio = (pair_boundary_degree(B) - 2) / C.degree()     # u/m, negative
    m = lcm(ratio.denominator,
            *((coeff(B, p) - ratio * c).denominator for p, c in C.terms))
    u = int(m * ratio)
    kcan = canonical_divisor_p1()
    terms = {}
    pts = set(support(C)) | set(support(kcan)) | set(support(B))
    for p in pts:
        val = m * (coeff(kcan, p) + coeff(B, p)) - u * coeff(C, p)
        if val.denominator != 1:
            raise InternalInvariantError(f"coefficient {val} at {p}")
        if val != 0:
            terms[p] = int(val)
    H = integral_terms(terms)
    if divisor_degree(H) != 0:
        raise InternalInvariantError(f"H has degree {divisor_degree(H)}")
    return VertexData(m=m, u=u, H=H)


def brute_min_decomposition(C, cap=2000):
    """Independent oracle: scan m = 1, 2, ... for the least m such that
    m(K+B) - uD is integral of degree zero with u = m deg(K+B)/deg D."""
    from conesing.quotient import log_fano_quotient

    B = log_fano_quotient(C)
    kb_deg = Fraction(-2) + pair_boundary_degree(B)
    ratio = kb_deg / C.degree()
    kcan = canonical_divisor_p1()
    for m in range(1, cap + 1):
        u = m * ratio
        if u.denominator != 1:
            continue
        u = int(u)
        pts = set(support(C)) | set(support(kcan)) | set(support(B))
        vals = {p: m * (coeff(kcan, p) + coeff(B, p)) - u * coeff(C, p)
                for p in pts}
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


def is_eps_lc_pair(B, eps):
    """Whether the quotient pair with boundary terms B is eps-lc: every
    boundary coefficient is at most 1 - eps.  The catalog needs no such
    test, since isotropy at most N already makes its quotient pair
    eps/N-lc."""
    from conesing.catalog import validate_epsilon

    eps = validate_epsilon(eps)
    return all(b <= 1 - eps for _, b in B)


def key_string(nf):
    """The catalog key of a normal form (couple, (fracs, degree)): its
    fractional values and its degree."""
    _, (fracs, deg) = nf
    body = ",".join(str(f) for f in fracs)
    return f"f[{body}];deg={deg}"


def entry_couple(entry):
    """The canonical couple of a catalog entry's fractional type and
    degree."""
    from conesing.divisors import canonical_couple

    return canonical_couple([Fraction(p, q) for p, q in entry["fractional"]],
                            Fraction(entry["degree"]))


def capped_candidate_types(params):
    """Oracle for catalog._candidate_types: every fractional multiset of
    combinations_with_replacement whose quotient boundary has degree
    below 2, each swept through its central cap (2 - deg B)/eps, the
    bound a_e0 >= mld >= eps gives.  A superset of the members."""
    from conesing.catalog import _fractional_coefficients

    coeffs = _fractional_coefficients(params.isotropy_bound)
    types = [()]
    for k in (1, 2, 3):
        types.extend(itertools.combinations_with_replacement(coeffs, k))
    for fracs in types:
        deg_b = sum((Fraction(f.denominator - 1, f.denominator)
                     for f in fracs), Fraction(0))
        if deg_b >= 2:
            continue
        deg_cap = (2 - deg_b) / params.epsilon
        fsum = sum(fracs, Fraction(0))
        n0 = math.floor(-fsum) + 1
        while fsum + n0 <= deg_cap:
            yield fracs, fsum + n0
            n0 += 1


def per_candidate_entry(fracs, degree, eps):
    """Oracle for catalog._evaluate_candidate: the catalog entry of one
    candidate, as the JSON object a catalog file holds, built from its
    own couple (canonical placement, star graph, blow-down, normal form,
    Hilbert series, the index of K_X), or None when the couple is not
    klt or its mld is below eps."""
    from conesing.divisors import canonical_couple, max_isotropy, normal_form
    from conesing.errors import NotKlt
    from conesing.hilbert import hilbert_series
    from conesing.jsonio import fmt_q
    from conesing.quotient import cartier_index_of_kx, vertex_log_discrepancy
    from conesing.resolution import build_graph

    C = canonical_couple(fracs, degree)
    try:
        G = build_graph(C)
    except NotKlt:
        return None
    if G.mld < eps:
        return None
    nf = normal_form(C)
    assert nf[0] == C, "candidate not in normal form"
    bd = G.blown_down
    hd = hilbert_series(C)
    assert bd.empty == (bd.embedding_dimension == 2)
    return {
        "key": key_string(nf),
        "degree": fmt_q(C.degree()),
        "fractional": [[c.numerator % c.denominator, c.denominator]
                       for _, c in C.terms if c.denominator > 1],
        "a_e0": fmt_q(vertex_log_discrepancy(C)),
        "mld": fmt_q(G.mld),
        "cartier_index_kx": cartier_index_of_kx(C),
        "max_isotropy": max_isotropy(C),
        "link_determinant": G.determinant,
        "hilbert_numerator": list(hd.numerator),
        "hilbert_period": hd.period,
        "embedding_dimension": bd.embedding_dimension,
        "graph": {
            "center": G.central_self_int,
            "chains": [list(c) for c in G.chains],
            "blown_down": None if bd.empty else list(bd.self_intersections),
        },
    }


def per_candidate_catalog(params, candidates=capped_candidate_types):
    """Oracle for catalog.enumerate_catalog: per_candidate_entry on every
    candidate, sorted as the catalog is."""
    entries = [per_candidate_entry(fracs, degree, params.epsilon)
               for fracs, degree in candidates(params)]
    return sorted((e for e in entries if e is not None),
                  key=lambda e: (Fraction(e["degree"]), e["key"]))


def unpruned_candidate_types(params):
    """Oracle for catalog._candidate_types: every fractional type within
    the search bounds, each swept through degree 2/eps, with no cap from
    the type's quotient boundary."""
    from conesing.catalog import _fractional_coefficients

    coeffs = _fractional_coefficients(params.isotropy_bound)
    degree_max = 2 / params.epsilon
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
        while fsum + n0 <= degree_max:
            yield fracs, fsum + n0
            n0 += 1


def uncapped_catalog(params):
    """The catalog swept through degree 2/eps for every type
    (unpruned_candidate_types), each member kept when its mld is at
    least eps, sorted as the catalog is: the oracle of the mld cap,
    which enumerate_catalog checks instead of filtering."""
    from conesing.catalog import _chain_solve, _type_member

    members = []
    try:
        for fracs, degree in unpruned_candidate_types(params):
            mld, entry = _type_member(fracs)(degree)
            if mld >= params.epsilon:
                members.append((degree, entry))
    finally:
        _chain_solve.cache_clear()
        _type_member.cache_clear()
    members.sort(key=lambda de: (de[0], de[1]["key"]))
    return [e for _, e in members]


def continuant(cs):
    """The continuant of [c_1, ..., c_k]: the numerator of the
    Hirzebruch-Jung fraction c_1 - 1/(c_2 - 1/(... - 1/c_k)); 1 when
    empty."""
    u, u_next = 1, 0
    for c in reversed(cs):
        u, u_next = c * u - u_next, u
    return u


def hj_chains_through(N):
    """Every Hirzebruch-Jung chain [c_1, ..., c_k], all c_j >= 2, whose
    continuant alpha is at most N, as (chain, alpha, beta) with beta the
    continuant of [c_2, ..., c_k], so alpha/beta = [c_1, ..., c_k].
    Appending an entry, or raising one, raises the continuant, so a
    depth-first walk stops at the first entry past N."""
    out = []

    def walk(prefix):
        c = 2
        while continuant(prefix + [c]) <= N:
            chain = prefix + [c]
            out.append((tuple(chain), continuant(chain), continuant(chain[1:])))
            walk(chain)
            c += 1

    walk([])
    return out


def graph_side_catalog(eps, N):
    """The catalog at (eps, N) built from the graph side, independent of
    the catalog's generator: every star graph with central curve -b and
    at most three Hirzebruch-Jung chains of determinant alpha <= N, mapped
    back to its couple by Pinkham's inverse construction
    D = b [inf] - sum (beta_i/alpha_i) [x_i] (Pinkham 1977; Orlik-Wagreich
    1971), kept when 0 < deg D <= 2/eps and the mld from the dense solve
    is at least eps.  Returns {normal-form key: mld}."""
    import numpy as np
    from conesing.divisors import normal_form
    from conesing.resolution import ResolutionGraph

    eps = Fraction(eps)
    chains = hj_chains_through(N)
    out = {}
    for r in range(4):
        for star in itertools.combinations_with_replacement(chains, r):
            tail = sum((Fraction(beta, alpha) for _, alpha, beta in star),
                       Fraction(0))
            b = 1
            while b - tail <= 2 / eps:
                degree = b - tail
                b += 1
                if degree <= 0:
                    continue
                G = ResolutionGraph(
                    central_self_int=-(b - 1),
                    chains=tuple(tuple(-c for c in chain)
                                 for chain, _, _ in star),
                    numerators=(), denominator=1, determinant=0)
                # a float solve screens out the graphs far below eps; the
                # rest get the exact dense solve
                M = np.array(intersection_matrix(G), dtype=float)
                k = -2.0 - np.diag(M)
                if 1 + np.linalg.solve(M, k).min() < float(eps) - 1e-6:
                    continue
                # a graph that contracts to nothing is a smooth point, of
                # mld 2; any resolution of one has log discrepancies >= 2
                raw = 1 + min(discrepancies(G))
                if raw < eps:
                    continue
                mld = raw if edge_scan_blow_down(G).self_intersections else 2
                C = CurveCouple.of(
                    [(infinity_point(), b - 1)]
                    + [(finite_point(i), Fraction(-beta, alpha))
                       for i, (_, alpha, beta) in enumerate(star)])
                key = key_string(normal_form(C))
                assert key not in out, key
                out[key] = mld
    return out


# ---------------------------------------------------------------------------
# Fraction elimination oracles
# ---------------------------------------------------------------------------

def rref(rows):
    """Reduced row echelon form.  Returns (rref_rows, pivot_columns).
    The Fraction oracle of the fraction-free elimination in linalg."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(m)):
            if m[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


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


def fraction_solve(rows, rhs):
    """Oracle for linalg.solve: the Fraction reduced echelon form of the
    augmented matrix, with the free unknowns set to 0."""
    if not rows:
        return "many", []
    ncols = len(rows[0])
    red, pivots = rref([list(row) + [b] for row, b in zip(rows, rhs)])
    if ncols in pivots:
        return "none", None
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    return ("unique" if len(pivots) == ncols else "many"), x


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
    floor(nD) built as its terms."""
    return max(0, divisor_degree(floor_multiple(C, n)) + 1)


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
    through 2 * bound (PreconditionError otherwise)."""
    return tuple(sorted(_GeneratorScan(SectionSpace(C)).run(bound, 2 * bound)))


def monomial_evaluator(space, gens):
    """evaluate(expt, n): the coordinates in degree n of the monomial
    with exponents expt in the (degree, vector) generators, which the
    scan lists in increasing degree; each monomial is built once."""
    cache = {}

    def evaluate(expt, n):
        if n == 0:
            return [1]
        if expt not in cache:
            idx = next(i for i, e in enumerate(expt) if e > 0)
            sub = list(expt)
            sub[idx] -= 1
            d, vec = gens[idx]
            cache[expt] = space.multiply(d, vec, n - d,
                                         evaluate(tuple(sub), n - d))
        return cache[expt]

    return evaluate


def default_presentation_bound(C):
    """The generator bound that presentation guessed before its stopping
    rules came from the theory: 4 L ceil(1 / deg D)."""
    return 4 * denominators_lcm(C) * max(1, math.ceil(1 / C.degree()))


def saturated_presentation(C, gen_bound=None, rel_bound=None):
    """Generators, relations and equations as presentation found them
    before its stopping rules came from the theory: new generators
    through gen_bound (default_presentation_bound by default), every
    degree through 2 max(gen_bound, rel_bound) checked to be spanned
    (PreconditionError otherwise), and every minimal relation through
    rel_bound (gen_bound by default), with no count to stop at."""
    if gen_bound is None:
        gen_bound = default_presentation_bound(C)
    if rel_bound is None:
        rel_bound = gen_bound
    space = SectionSpace(C)
    scan = _GeneratorScan(space)
    degrees = scan.run(gen_bound, 2 * max(gen_bound, rel_bound))
    evaluate = monomial_evaluator(space, scan.gens)
    relations, equations = [], []
    for n in range(2, rel_bound + 1):
        monos = _monomials(degrees, n)
        # the scan spans degree n, so evaluation is onto
        kernel_dim = len(monos) - space.dim(n)
        if len(monos) < 2 or kernel_dim <= 0:
            continue
        index = {m: i for i, m in enumerate(monos)}
        old = RowSpan()
        for d, rel in relations:
            for shift in _monomials(degrees, n - d):
                shifted = {}
                for expt, c in rel.items():
                    i = index[tuple(a + b for a, b in zip(expt, shift))]
                    shifted[i] = shifted.get(i, 0) + c
                old.add(shifted)
        if old.dim == kernel_dim:
            continue
        kernel = nullspace([list(col) for col in
                            zip(*[evaluate(m, n) for m in monos])])
        for kv in kernel:
            if old.add(kv):
                relations.append((n, {m: c for m, c in zip(monos, kv) if c}))
                if len(degrees) <= 4:
                    equations.append(_equation_string(
                        {i: c for i, c in enumerate(kv) if c}, monos))
    return {"generators": sorted(degrees),
            "relations": [d for d, _ in relations], "equations": equations}


def evaluation_kernel_dims(C, gen_bound, rel_bound):
    """Per degree n = 2 .. rel_bound with at least two monomials in the
    scanned generators: the number of monomials minus the rank of their
    evaluations, eliminated in a RowSpan.  This is the relation kernel's
    dimension as presentation computed it before reading it off the
    spanning certificate (monomials minus dim of the degree-n piece)."""
    space = SectionSpace(C)
    scan = _GeneratorScan(space)
    degrees = scan.run(gen_bound, 2 * max(gen_bound, rel_bound))
    evaluate = monomial_evaluator(space, scan.gens)
    dims = {}
    for n in range(2, rel_bound + 1):
        monos = _monomials(degrees, n)
        if len(monos) < 2:
            continue
        span = RowSpan()
        for m in monos:
            span.add(evaluate(m, n))
        dims[n] = len(monos) - span.dim
    return dims


# ---------------------------------------------------------------------------
# dense star-graph oracles
# ---------------------------------------------------------------------------

def self_intersections(G):
    """Self-intersections of a star graph in its vertex order: the
    central curve, then each chain from the central side outward."""
    return (G.central_self_int, *(e for chain in G.chains for e in chain))


def intersection_matrix(G):
    """The dense intersection matrix of a star graph."""
    from conesing.resolution import star_edges
    selfints = self_intersections(G)
    m = [[0] * len(selfints) for _ in selfints]
    for i, e in enumerate(selfints):
        m[i][i] = e
    for i, j in star_edges(G.chains):
        m[i][j] = m[j][i] = 1
    return m


def discrepancies(G):
    """Unique solution of M d = k, k_j = -E_j^2 - 2, solved densely;
    independent of the chain elimination in build_graph."""
    selfints = self_intersections(G)
    rhs = [Fraction(-e - 2) for e in selfints]
    status, x = solve(intersection_matrix(G), rhs)
    if status != "unique":
        raise InternalInvariantError("intersection matrix must be invertible")
    return tuple(x)


def fraction_star_graph(C):
    """(chains, discrepancies, vertex mld) of the star graph of C by the
    Fraction elimination: the alphas and betas summed as Fractions, the
    central discrepancy divided out in Fractions, and each chain's
    discrepancies as Fractions; the mld is 1 + the least of them, read
    on the blown-down graph, or 2 when the graph blows down to nothing.
    The oracle of the integer numerators of build_graph."""
    from conesing.divisors import _fraction_sum, _klt_boundary_degree
    from conesing.resolution import _chain_continuants, blow_down, hj_chain

    _klt_boundary_degree(C)
    deg = C.degree()
    frac = sorted(((p, c) for p, c in C.terms if c.denominator > 1),
                  key=lambda t: t[0].sort_key())
    chains, elims = [], []
    for _, c in frac:
        chain = hj_chain(c.denominator, c.numerator % c.denominator)
        cs = [-e for e in chain]
        chains.append(chain)
        elims.append((cs, *_chain_continuants(cs)))
    alpha_sum = _fraction_sum((us[1], us[0]) for _, us, _ in elims)
    b0 = deg + alpha_sum
    assert b0.denominator == 1 and b0 - alpha_sum == deg > 0
    num = b0 - 2 - _fraction_sum((ws[0], us[0]) for _, us, ws in elims)
    d_center = num / (alpha_sum - b0)
    disc = [d_center]
    P, Q = d_center.numerator, d_center.denominator
    for cs, us, ws in elims:
        den = Q * us[0]
        prev, cur = P * us[0], us[1] * P + ws[0] * Q
        for c in cs:
            disc.append(Fraction(cur, den))
            prev, cur = cur, c * cur - prev + (c - 2) * den
        assert cur == 0
    assert min(disc) > -1
    raw = 1 + min(disc)
    bd = blow_down(-int(b0), chains)
    if bd.empty:
        assert raw == 2
        mld = Fraction(2)
    else:
        assert 1 + min(disc[v] for v in bd.surviving) == raw
        mld = raw
    return tuple(chains), tuple(disc), mld


def fraction_chain_alphas_betas(cs, ks):
    """Eliminate a chain from the outer end in Fractions: per position
    (alpha, beta) with d_j = alpha_j d_{j-1} + beta_j for the tridiagonal
    system d_{j-1} - c_j d_j + d_{j+1} = k_j, outer boundary zero.  The
    oracle of the integer continuants in resolution."""
    n = len(cs)
    alphas = [Fraction(0)] * n
    betas = [Fraction(0)] * n
    a_next, b_next = Fraction(0), Fraction(0)
    for j in range(n - 1, -1, -1):
        den = Fraction(cs[j]) - a_next
        if den <= 0:
            raise InternalInvariantError("chain elimination lost definiteness")
        alphas[j] = Fraction(1) / den
        betas[j] = (b_next - ks[j]) / den
        a_next, b_next = alphas[j], betas[j]
    return alphas, betas


def edge_scan_blow_down(G):
    """Contract the lowest-index (-1)-vertex until none is left, scanning
    every edge for the neighbours at each step: the quadratic oracle of
    resolution.blow_down."""
    from conesing.resolution import BlownDownGraph, star_edges
    selfints = list(self_intersections(G))
    mult = {e: 1 for e in star_edges(G.chains)}
    alive = set(range(len(selfints)))

    def neighbors(v):
        out = []
        for (i, j), w in mult.items():
            if i == v:
                out.append((j, w))
            elif j == v:
                out.append((i, w))
        return out

    while True:
        target = next((v for v in sorted(alive) if selfints[v] == -1), None)
        if target is None:
            break
        nbrs = neighbors(target)
        for v, w in nbrs:
            if w != 1:
                raise InternalInvariantError("contraction of a tangent curve")
            selfints[v] += 1
        for (a, wa) in nbrs:
            for (b, wb) in nbrs:
                if a < b:
                    key = (a, b)
                    mult[key] = mult.get(key, 0) + wa * wb
                    if mult[key] > 1:
                        raise InternalInvariantError(
                            "contraction created a tangency")
        for key in [k for k in mult if target in k]:
            del mult[key]
        alive.remove(target)

    surviving = tuple(sorted(alive))
    remap = {v: i for i, v in enumerate(surviving)}
    return BlownDownGraph(
        self_intersections=tuple(selfints[v] for v in surviving),
        edges=tuple(sorted((remap[i], remap[j]) for (i, j) in mult)),
        surviving=surviving,
    )


def is_negative_definite(matrix):
    """Sign test on leading principal minors of a symmetric matrix."""
    n = len(matrix)
    for k in range(1, n + 1):
        minor = det_int([row[:k] for row in matrix[:k]])
        if minor == 0:
            raise InternalInvariantError(f"leading {k}x{k} minor vanishes")
        if (minor > 0) != (k % 2 == 0):
            return False
    return True


# ---------------------------------------------------------------------------
# toric oracles, stock fans and seeded instances
# ---------------------------------------------------------------------------

def support_value(F, D, v):
    """Value at v of the piecewise-linear extension of the ray data,
    locating v and solving its cone's form again in every call."""
    if all(x == 0 for x in v):
        return Fraction(0)
    return _dot(_cone_linear_form(F, D, F.locate(v), "divisor"), v)


def weil_index(F, D, v):
    """Denominator of the support value at a primitive lattice point."""
    return support_value(F, D, v).denominator


def cartier_index_on_cone(F, D, cone_index):
    """Least mu making mu D integral-linear on the cone."""
    m = _cone_linear_form(F, D, cone_index, "divisor")
    return lcm(*(x.denominator for x in m))


def toric_divisor(values):
    """An invariant divisor as toric holds it: the tuple of its
    coefficients, one Fraction per ray."""
    return tuple(Fraction(v) for v in values)


def log_discrepancy_y(F, B, v):
    """Value at v of the piecewise-linear form equal to 1 - b_rho at the
    rays, for boundary coefficients B, one per ray, solving v's cone's
    form again in every call."""
    if all(x == 0 for x in v):
        return Fraction(0)
    return _dot(_cone_linear_form(F, [1 - b for b in B], F.locate(v), "pair"),
                v)


def lattice_mld(rays, qform):
    """Mld at the fixed point of a rank-2 lifted cone, given as cone_of_x
    gives it: minimum of the normalized form over interior lattice
    points, enumerated in the bounded region {form <= 2}."""
    if len(rays[0]) != 2:
        raise PreconditionError("lattice mld enumeration implemented for rank 2")
    if qform is None:
        raise PreconditionError("no covector takes value 1 on all rays")
    r1, r2 = rays
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
            val = _dot(qform, (x, y))
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
        D = tuple(coeffs)
        if not is_ample(F, D):
            continue
        if require_qgorenstein and cone_of_x(F, D)[1] is None:
            continue
        out.append((f"{kind}#{len(out)}", F, D))
    if len(out) < count:
        raise InternalInvariantError("instance generator starved; widen the search")
    return out

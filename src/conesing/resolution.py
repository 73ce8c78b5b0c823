"""Star-shaped resolution of the cone surface: exact discrepancies,
vertex mld, the link determinant and the embedding dimension.

The star graph is the per-couple analysis: build it once with
build_graph and read the determinant, the blow-down, the vertex mld
and the embedding dimension (on the blow-down) off it.  The vertex is
the only singular point of a cone surface, so X is eps-lc exactly when
the vertex mld is at least eps.

The partial resolution of the cone over a couple carries the central
curve together with one cyclic-quotient chart per fractional point; the
chart at a point with reduced fractional coefficient p/q is the
two-dimensional lattice cone spanned by (0,1) and (q,p), with (0,1) the
ray of the central curve and (q,p) the ray of the invariant curve over
the point.  Resolving each chart inserts the lattice points on the
compact faces of the convex hull of the nonzero cone lattice points,
which is the classical continued-fraction string of q/(q-p); the result
is the star graph.

The central self-intersection is solved from the rational identity
(central curve)^2 = -deg D rather than taken from a closed formula, and
the forced integrality is asserted at runtime.  Negative definiteness
follows from the chain elimination (every pivot positive) and the
central Schur complement -deg D < 0.  The link determinant is the
closed form deg D * prod q_i (Orlik-Wagreich 1971).  No dense
intersection matrix is built; the dense solve is an oracle in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Dict, List, Optional, Tuple

from .divisors import CurveCouple, MarkedPoint, _frac_part
from .errors import (BadChain, IntegralPoint, InternalInvariantError,
                     InternalNonIntegral, PreconditionError, SingularMatrix)
from .quotient import _log_fano_boundary


# ---------------------------------------------------------------------------
# local lattice cones and their chains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LatticeCone2:
    """Cone spanned by (0,1) and (q,p) in the rank-2 lattice,
    0 < p <= q, gcd(p,q) = 1.  p = q = 1 is the smooth chart."""

    q: int
    p: int

    def __post_init__(self):
        from math import gcd
        if not (0 < self.p <= self.q) or gcd(self.p, self.q) != 1:
            raise PreconditionError(f"bad cone data (q,p)=({self.q},{self.p})")

    def is_smooth(self) -> bool:
        return self.q == 1


def local_cone_at(C: CurveCouple, pt: MarkedPoint) -> LatticeCone2:
    """Chart cone of the partial resolution over a stored point.

    Only the fractional part of the coefficient matters: adding
    integral multiples of the point is a unimodular change of chart.
    """
    c = C.divisor.coeff(pt)
    q = c.denominator
    if q == 1:
        raise IntegralPoint(f"coefficient {c} at {pt} is integral, chart smooth")
    return LatticeCone2(q=q, p=_frac_part(c).numerator)


# Longest chain hj_chain builds; the graph, its discrepancies and its
# JSON are all linear in the chain length.
CHAIN_LENGTH_MAX = 10**6


def hj_chain_length(cone: LatticeCone2) -> int:
    """Length of hj_chain(cone) in O(log q) steps.

    hj_chain's recursion (a, b) -> (b, c b - a), c = ceil(a/b), keeps
    r = a - b fixed while c = 2, that is while r <= b, so a run of 2s
    from (a, b) has b // r entries and ends at (b - (k-1) r, b - k r)
    with k = b // r.  Every other step is one entry; between runs this
    is Euclid's algorithm, so the step count is logarithmic in q.
    """
    a, b = cone.q, cone.q - cone.p
    length = 0
    while b > 0:
        r = a - b
        if r <= b:
            k = b // r
            length += k
            a, b = b - (k - 1) * r, b - k * r
        else:
            length += 1
            a, b = b, -(-a // b) * b - a
    return length


def hj_chain(cone: LatticeCone2) -> Tuple[int, ...]:
    """Self-intersections [-c_1, ..., -c_k] of the chain resolving the
    cone, listed from the (0,1) side outward.

    The c_j are the ceiling continued fraction of q/(q-p).  The ray
    recursion v_{j+1} = c_j v_j - v_{j-1} starting from (0,1), (1,1) is
    replayed as a certificate: it must land exactly on (q,p) through
    primitive interior rays.  A chain longer than CHAIN_LENGTH_MAX is
    refused before any of this linear work.
    """
    if cone.is_smooth():
        raise IntegralPoint("smooth chart has no chain")
    length = hj_chain_length(cone)
    if length > CHAIN_LENGTH_MAX:
        raise PreconditionError(
            f"chain length {length} of q/p = {cone.q}/{cone.p} exceeds "
            f"CHAIN_LENGTH_MAX = {CHAIN_LENGTH_MAX}")
    q, p = cone.q, cone.p
    cs: List[int] = []
    a, b = q, q - p
    while b > 0:
        c = -(-a // b)          # ceil(a/b)
        cs.append(c)
        a, b = b, c * b - a
    if any(c < 2 for c in cs):
        raise BadChain(f"chain {cs} has an entry below 2")
    # Certificate: replay the hull recursion.
    from math import gcd
    v_prev, v = (0, 1), (1, 1)
    for c in cs:
        v_prev, v = v, (c * v[0] - v_prev[0], c * v[1] - v_prev[1])
        if gcd(abs(v[0]), abs(v[1])) != 1:
            raise BadChain("hull recursion left the primitive lattice")
    if v != (q, p):
        raise BadChain(f"hull recursion ended at {v}, expected {(q, p)}")
    return tuple(-c for c in cs)


# ---------------------------------------------------------------------------
# the star graph
# ---------------------------------------------------------------------------

def _chain_alphas_betas(cs: List[int], ks: List[Fraction]):
    """Eliminate a chain from the outer end.

    Returns per-position (alpha, beta) with
    d_j = alpha_j d_{j-1} + beta_j for the tridiagonal system
    d_{j-1} - c_j d_j + d_{j+1} = k_j, outer boundary zero.
    """
    n = len(cs)
    alphas = [Fraction(0)] * n
    betas = [Fraction(0)] * n
    a_next, b_next = Fraction(0), Fraction(0)
    for j in range(n - 1, -1, -1):
        den = Fraction(cs[j]) - a_next
        if den <= 0:
            raise SingularMatrix("chain elimination lost definiteness")
        alphas[j] = Fraction(1) / den
        betas[j] = (b_next - ks[j]) / den
        a_next, b_next = alphas[j], betas[j]
    return alphas, betas


@dataclass(frozen=True)
class ResolutionGraph:
    """Star graph: central curve with one chain per fractional point.

    Vertex order everywhere: central curve first, then the chains in
    the canonical order of their base points, each from the central
    side outward.  The blow-down and the vertex mld are computed on
    first use and kept.
    """

    central_self_int: int
    chains: Tuple[Tuple[int, ...], ...]
    discrepancies: Tuple[Fraction, ...]
    determinant: int

    @property
    def size(self) -> int:
        return len(self.discrepancies)

    def log_discrepancies(self) -> Tuple[Fraction, ...]:
        return tuple(1 + d for d in self.discrepancies)

    def self_intersections(self) -> Tuple[int, ...]:
        out = [self.central_self_int]
        for chain in self.chains:
            out.extend(chain)
        return tuple(out)

    def edges(self) -> Tuple[Tuple[int, int], ...]:
        """Edges (i, j), i < j, of the star, each of weight 1."""
        out = []
        idx = 1
        for chain in self.chains:
            for j in range(len(chain)):
                out.append((0 if j == 0 else idx - 1, idx))
                idx += 1
        return tuple(out)

    def to_json(self) -> dict:
        from .jsonio import fmt_q
        return {
            "center": self.central_self_int,
            "chains": [list(c) for c in self.chains],
            "discrepancies": [fmt_q(d) for d in self.discrepancies],
            "det": self.determinant,
        }

    @cached_property
    def blown_down(self) -> BlownDownGraph:
        return blow_down(self)

    @cached_property
    def mld(self) -> Fraction:
        """Minimal log discrepancy over the vertex.

        For klt input the minimum over the star graph equals the minimum
        over any partial blow-down of it (contractions only remove
        divisors whose log discrepancy is a sum of surviving ones); if
        the graph contracts to nothing the point is smooth and the mld
        is 2.
        """
        log_disc = self.log_discrepancies()
        raw = min(log_disc)
        bd = self.blown_down
        if bd.empty:
            if raw != 2:
                raise InternalNonIntegral(f"smooth cone with graph minimum {raw}")
            return Fraction(2)
        if min(log_disc[v] for v in bd.surviving) != raw:
            raise InternalNonIntegral("blow-down changed the graph minimum")
        return raw


def build_graph(C: CurveCouple) -> ResolutionGraph:
    _log_fano_boundary(C)           # NotKlt unless the quotient is log Fano
    D = C.divisor
    frac = [(p, c) for p, c in D.terms if c.denominator > 1]
    frac.sort(key=lambda t: t[0].sort_key())

    # One elimination per chain with the adjunction data k_j = c_j - 2:
    # the alphas do not depend on the right side, the betas give the
    # discrepancies below.
    chains = []
    alphas_all = []
    betas_all = []
    for pt, _ in frac:
        cone = local_cone_at(C, pt)
        chain = hj_chain(cone)
        cs = [-e for e in chain]
        alphas, betas = _chain_alphas_betas(cs, [Fraction(c - 2) for c in cs])
        chains.append(chain)
        alphas_all.append(alphas)
        betas_all.append(betas)

    # Central self-intersection from (central curve)^2 = -deg D.
    b0 = D.degree() + sum((al[0] for al in alphas_all), Fraction(0))
    if b0.denominator != 1:
        raise InternalNonIntegral(f"central self-intersection -{b0} not integral")
    b0 = int(b0)

    # Negative definiteness: the chains are standard and the Schur
    # complement at the center is -(b0 - sum alpha_1) = -deg D < 0.
    schur = b0 - sum((al[0] for al in alphas_all), Fraction(0))
    if schur != D.degree() or schur <= 0:
        raise SingularMatrix("central Schur complement is not -deg D")

    # Discrepancies from the chain betas and the central adjunction datum.
    k_center = Fraction(b0 - 2)
    num = k_center - sum((b[0] for b in betas_all), Fraction(0))
    den = sum((al[0] for al in alphas_all), Fraction(0)) - b0
    d_center = num / den
    disc = [d_center]
    for chain, alphas, betas in zip(chains, alphas_all, betas_all):
        prev = d_center
        for a, b in zip(alphas, betas):
            prev = a * prev + b
            disc.append(prev)

    for d in disc:
        if d <= -1:
            raise InternalNonIntegral(f"discrepancy {d} <= -1 on a klt cone")

    det = D.degree()
    for _, c in frac:
        det *= c.denominator
    if det.denominator != 1:
        raise InternalNonIntegral(f"link determinant {det} not integral")

    return ResolutionGraph(
        central_self_int=-b0,
        chains=tuple(chains),
        discrepancies=tuple(disc),
        determinant=int(det),
    )


# ---------------------------------------------------------------------------
# blow-down and mld
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlownDownGraph:
    """What remains after iteratively contracting all (-1)-vertices."""

    self_intersections: Tuple[int, ...]
    edges: Tuple[Tuple[int, int], ...]
    surviving: Tuple[int, ...]      # indices into the original graph

    @property
    def empty(self) -> bool:
        return not self.self_intersections

    @cached_property
    def embedding_dimension(self) -> int:
        """Embedding dimension of the vertex: 1 - Z^2 (Artin 1966).

        Z is the fundamental cycle, found by Laufer's loop (1972):
        start from the sum of all curves and add E_i while Z.E_i > 0.
        The formula holds for rational singularities; Artin's criterion
        p_a(Z) = 1 + (Z^2 + K.Z)/2 = 0, with K.E_i = -E_i^2 - 2,
        certifies rationality.  A smooth point has embedding dimension 2.
        """
        if self.empty:
            return 2
        selfints = self.self_intersections
        nbrs: List[List[int]] = [[] for _ in selfints]
        for i, j in self.edges:
            nbrs[i].append(j)
            nbrs[j].append(i)
        z = [1] * len(selfints)
        ze = [e + len(nb) for e, nb in zip(selfints, nbrs)]    # Z.E_i
        todo = [i for i, x in enumerate(ze) if x > 0]
        while todo:
            i = todo.pop()
            if ze[i] <= 0:
                continue
            z[i] += 1
            ze[i] += selfints[i]
            todo.append(i)
            for j in nbrs[i]:
                ze[j] += 1
                todo.append(j)
        z2 = sum(a * b for a, b in zip(z, ze))
        kz = sum(a * (-e - 2) for a, e in zip(z, selfints))
        if z2 + kz != -2:
            raise InternalInvariantError(
                f"fundamental cycle has p_a = {1 + Fraction(z2 + kz, 2)}, "
                "so the singularity is not rational")
        return 1 - z2

    def to_json(self) -> Optional[dict]:
        if self.empty:
            return None
        return {"vertices": list(self.self_intersections),
                "edges": [list(e) for e in self.edges]}


def blow_down(G: ResolutionGraph) -> BlownDownGraph:
    selfints = list(G.self_intersections())
    mult: Dict[Tuple[int, int], int] = {e: 1 for e in G.edges()}
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
                raise InternalNonIntegral("contraction of a tangent curve")
            selfints[v] += 1
        for (a, wa) in nbrs:
            for (b, wb) in nbrs:
                if a < b:
                    key = (a, b)
                    mult[key] = mult.get(key, 0) + wa * wb
                    if mult[key] > 1:
                        raise InternalNonIntegral("contraction created a tangency")
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

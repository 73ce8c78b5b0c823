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
central Schur complement -deg D < 0.  The link determinant is read off
the chains' continuants and checked against the closed form
deg D * prod q_i (Orlik-Wagreich 1971).  No dense
intersection matrix is built; the dense solve is an oracle in the tests.

build_graph works in integers: every discrepancy is an integer
numerator over one common denominator, from the continuants u and w of
each chain's elimination (done once per chart cone), and the vertex mld
is read off those integers, with a blow-down only when the central
curve is a (-1)-curve, the one curve a star graph can contract.  The
Fractions of the discrepancies are built only when they are read, as
resolve and describe do to print them.  build_graph is the oracle that
audit holds the catalog's entries against, so it never calls the
catalog's own chain solver.

Only build_graph reads a couple.  It reads each chart cone (q, p) off
its point's own term, in one pass over the terms, and imports divisors,
which holds its klt gate, in its own body: the catalog sweep, which
solves chains and builds graphs from integers, does not load it.  No
function here loads quotient.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from heapq import heapify, heappop, heappush
from math import gcd, lcm, prod
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from .errors import InternalInvariantError, PreconditionError
from .records import Record

if TYPE_CHECKING:
    from .divisors import CurveCouple


# ---------------------------------------------------------------------------
# chart cones and their chains
# ---------------------------------------------------------------------------

# Longest chain hj_chain builds; the graph, its discrepancies and its
# JSON are all linear in the chain length.
CHAIN_LENGTH_MAX = 10**6


def hj_chain_length(q: int, p: int) -> int:
    """Length of hj_chain(q, p) in O(log q) steps, for a chart cone:
    0 < p < q with gcd(p, q) = 1, or PreconditionError.

    hj_chain's recursion (a, b) -> (b, c b - a), c = ceil(a/b), keeps
    r = a - b fixed while c = 2, that is while r <= b, so a run of 2s
    from (a, b) has b // r entries and ends at (b - (k-1) r, b - k r)
    with k = b // r.  Every other step is one entry; between runs this
    is Euclid's algorithm, so the step count is logarithmic in q.
    """
    if not (0 < p < q) or gcd(p, q) != 1:
        raise PreconditionError(f"bad cone data (q,p)=({q},{p})")
    a, b = q, q - p
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


def hj_chain(q: int, p: int) -> Tuple[int, ...]:
    """Self-intersections [-c_1, ..., -c_k] of the chain resolving the
    chart cone (q, p) of hj_chain_length, from the (0,1) side outward.

    The c_j are the ceiling continued fraction of q/(q-p).  The ray
    recursion v_{j+1} = c_j v_j - v_{j-1} starting from (0,1), (1,1) is
    replayed as a certificate: it must land exactly on (q,p) through
    primitive interior rays.  A chain longer than CHAIN_LENGTH_MAX is
    refused before any of this linear work.
    """
    length = hj_chain_length(q, p)
    if length > CHAIN_LENGTH_MAX:
        raise PreconditionError(
            f"chain length {length} of q/p = {q}/{p} exceeds "
            f"CHAIN_LENGTH_MAX = {CHAIN_LENGTH_MAX}")
    cs: List[int] = []
    a, b = q, q - p
    while b > 0:
        c = -(-a // b)          # ceil(a/b)
        cs.append(c)
        a, b = b, c * b - a
    if any(c < 2 for c in cs):
        raise InternalInvariantError(f"chain {cs} has an entry below 2")
    # Certificate: replay the hull recursion.
    v_prev, v = (0, 1), (1, 1)
    for c in cs:
        v_prev, v = v, (c * v[0] - v_prev[0], c * v[1] - v_prev[1])
        if gcd(abs(v[0]), abs(v[1])) != 1:
            raise InternalInvariantError(
                "hull recursion left the primitive lattice")
    if v != (q, p):
        raise InternalInvariantError(
            f"hull recursion ended at {v}, expected {(q, p)}")
    return tuple(-c for c in cs)


# ---------------------------------------------------------------------------
# the star graph
# ---------------------------------------------------------------------------

def _chain_continuants(cs: List[int]) -> Tuple[List[int], List[int]]:
    """Eliminate a chain from its outer end, in integers.

    For the tridiagonal system d_{j-1} - c_j d_j + d_{j+1} = k_j with
    k_j = c_j - 2 and outer boundary zero, the elimination
    d_j = alpha_j d_{j-1} + beta_j has alpha_j = u_{j+1}/u_j and
    beta_j = w_j/u_j, where u_j = c_j u_{j+1} - u_{j+2} with u = 1, 0
    past the end, and w_j = w_{j+1} - k_j u_{j+1} with w = 0 past the
    end.  Returns u_1 .. u_{n+1} and w_1 .. w_n; every pivot
    c_j - alpha_{j+1} = u_j/u_{j+1} must be positive.
    """
    n = len(cs)
    us = [0] * (n + 2)
    ws = [0] * (n + 1)
    us[n] = 1
    for j in range(n - 1, -1, -1):
        c = cs[j]
        u = c * us[j + 1] - us[j + 2]
        if u <= 0:
            raise InternalInvariantError("chain elimination lost definiteness")
        us[j] = u
        ws[j] = ws[j + 1] - (c - 2) * us[j + 1]
    return us[:n + 1], ws[:n]


@lru_cache(maxsize=4096)
def _chain_elimination(q: int, p: int):
    """The chain resolving the chart cone (q, p), its entries c_j, and
    u_1, u_2 and w_1 of its elimination (_chain_continuants), kept for
    the most recent cones: audit meets a catalog's cones (the p/q with
    q <= N, about 1,100 at N = 60) again for every entry."""
    chain = hj_chain(q, p)
    cs = tuple(-e for e in chain)
    us, ws = _chain_continuants(cs)
    return chain, cs, us[0], us[1], ws[0]


def star_edges(chains) -> Tuple[Tuple[int, int], ...]:
    """Edges (i, j), i < j, of the star graph with these chains, each of
    weight 1, in the vertex order of ResolutionGraph."""
    out = []
    idx = 1
    for chain in chains:
        for j in range(len(chain)):
            out.append((0 if j == 0 else idx - 1, idx))
            idx += 1
    return tuple(out)


class ResolutionGraph(Record):
    """Star graph: central curve with one chain per fractional point.

    Vertex order everywhere: central curve first, then the chains in
    the canonical order of their base points, each from the central
    side outward.  The discrepancy of vertex v is numerators[v] over
    the common denominator, kept in integers; the Fractions, the
    blow-down and the vertex mld are computed on first use and kept.
    """

    _fields = ("central_self_int", "chains", "numerators", "denominator",
               "determinant")

    def __init__(self, central_self_int: int,
                 chains: Tuple[Tuple[int, ...], ...],
                 numerators: Tuple[int, ...], denominator: int,
                 determinant: int):
        d = self.__dict__
        d["central_self_int"] = central_self_int
        d["chains"] = chains
        d["numerators"] = numerators
        d["denominator"] = denominator
        d["determinant"] = determinant

    @property
    def size(self) -> int:
        return 1 + sum(map(len, self.chains))

    @cached_property
    def discrepancies(self) -> Tuple[Fraction, ...]:
        den = self.denominator
        return tuple(Fraction(n, den) for n in self.numerators)

    def self_intersections(self) -> Tuple[int, ...]:
        out = [self.central_self_int]
        for chain in self.chains:
            out.extend(chain)
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
        return blow_down(self.self_intersections(), star_edges(self.chains))

    @cached_property
    def mld(self) -> Fraction:
        """Minimal log discrepancy over the vertex.

        For klt input the minimum over the star graph equals the minimum
        over any partial blow-down of it (contractions only remove
        divisors whose log discrepancy is a sum of surviving ones); if
        the graph contracts to nothing the point is smooth and the mld
        is 2.  Chain curves are (-2)-curves or below (hj_chain), so only
        a central (-1)-curve can be contracted, and any other graph is
        its own blow-down.
        """
        nums, den = self.numerators, self.denominator
        low = min(nums)
        if self.central_self_int == -1:
            bd = self.blown_down
            if bd.empty:
                if low != den:
                    raise InternalInvariantError(
                        "smooth cone with graph minimum "
                        f"{Fraction(den + low, den)}")
                return Fraction(2)
            if min(nums[v] for v in bd.surviving) != low:
                raise InternalInvariantError(
                    "blow-down changed the graph minimum")
        return Fraction(den + low, den)


def build_graph(C: CurveCouple) -> ResolutionGraph:
    from .divisors import _klt_boundary_degree
    _klt_boundary_degree(C)         # NotKlt unless the quotient is log Fano
    deg = C.degree()
    dn, dd = deg.numerator, deg.denominator
    # the terms are in point order, which is the order of the chains
    frac = [c for _, c in C.terms if c.denominator > 1]

    # One integer elimination per chain with the adjunction data
    # k_j = c_j - 2: u gives the alphas, w the betas.  The chart cone
    # (q, p) is read off the fractional part p/q of the coefficient.
    elims = [_chain_elimination(c.denominator, c.numerator % c.denominator)
             for c in frac]

    # Over A = lcm u_1, the chains' alpha_1 = u_2/u_1 sum to alpha/A and
    # their beta_1 = w_1/u_1 to beta/A.
    A = lcm(*(u1 for _, _, u1, _, _ in elims))
    alpha = sum(u2 * (A // u1) for _, _, u1, u2, _ in elims)
    beta = sum(w1 * (A // u1) for _, _, u1, _, w1 in elims)

    # Central self-intersection from (central curve)^2 = -deg D.
    b0, rest = divmod(dn * A + alpha * dd, dd * A)
    if rest:
        raise InternalInvariantError(
            "central self-intersection "
            f"-{Fraction(dn * A + alpha * dd, dd * A)} not integral")

    # Negative definiteness: the chains are standard and the Schur
    # complement at the center is -(b0 - sum alpha_1) = -deg D < 0.
    if (b0 * A - alpha) * dd != dn * A or dn <= 0:
        raise InternalInvariantError("central Schur complement is not -deg D")

    # The central discrepancy from the chain betas and the central
    # adjunction datum: (b0 - 2 - sum beta_1)/(sum alpha_1 - b0) = P/Q.
    P, Q = (b0 - 2) * A - beta, b0 * A - alpha
    g = gcd(P, Q)
    P, Q = -P // g, Q // g
    if P <= -Q:
        raise InternalInvariantError(
            f"discrepancy {Fraction(P, Q)} <= -1 on a klt cone")
    # Every discrepancy is N_v/(Q A) with N_v an integer.  Along a chain,
    # N_1 = (u_2 P + w_1 Q) A/u_1 from the elimination, then the chain
    # equations d_{j+1} = c_j d_j - d_{j-1} + k_j, which must end at the
    # outer boundary N_{n+1} = 0.  d > -1 is N_v > -Q A.
    den = Q * A
    nums = [P * A]
    for _, cs, u1, u2, w1 in elims:
        prev, cur = P * A, (u2 * P + w1 * Q) * (A // u1)
        for c in cs:
            if cur <= -den:
                raise InternalInvariantError(
                    f"discrepancy {Fraction(cur, den)} <= -1 on a klt cone")
            nums.append(cur)
            prev, cur = cur, c * cur - prev + (c - 2) * den
        if cur != 0:
            raise InternalInvariantError(
                "chain discrepancies miss the outer boundary condition")

    # The determinant of the negated intersection matrix, by the Schur
    # complement at the center: (b0 - sum alpha_1) U with U = prod u_1.
    U = prod(u1 for _, _, u1, _, _ in elims)
    det = b0 * U - sum(u2 * (U // u1) for _, _, u1, u2, _ in elims)
    qprod = prod(c.denominator for c in frac)
    if det * dd != dn * qprod:
        raise InternalInvariantError(f"link determinant {det} is not "
                                     f"deg D prod q_i = {deg * qprod}")

    return ResolutionGraph(
        central_self_int=-b0,
        chains=tuple(chain for chain, *_ in elims),
        numerators=tuple(nums),
        denominator=den,
        determinant=det,
    )


# ---------------------------------------------------------------------------
# blow-down and mld
# ---------------------------------------------------------------------------

class BlownDownGraph(Record):
    """What remains after iteratively contracting all (-1)-vertices;
    surviving holds the indices of the remaining vertices in the
    original graph."""

    _fields = ("self_intersections", "edges", "surviving")

    def __init__(self, self_intersections: Tuple[int, ...],
                 edges: Tuple[Tuple[int, int], ...],
                 surviving: Tuple[int, ...]):
        self.__dict__.update(self_intersections=self_intersections,
                             edges=edges, surviving=surviving)

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


def blow_down(self_intersections: Tuple[int, ...],
              edges: Tuple[Tuple[int, int], ...]) -> BlownDownGraph:
    """Contract (-1)-vertices of the graph with these self-intersections
    and weight-1 edges, always the lowest-index one first, until none is
    left.  A contraction raises each neighbour's self-intersection by
    one and joins the neighbours pairwise, so only a neighbour can
    become a new (-1)-vertex; a heap holds the candidates, and a vertex
    that has since left -1 is skipped when it comes up."""
    selfints = list(self_intersections)
    nbrs: List[Dict[int, int]] = [{} for _ in selfints]     # neighbour -> weight
    for i, j in edges:
        nbrs[i][j] = nbrs[j][i] = 1
    alive = [True] * len(selfints)
    heap = [v for v, e in enumerate(selfints) if e == -1]
    heapify(heap)
    while heap:
        target = heappop(heap)
        if not alive[target] or selfints[target] != -1:
            continue
        around = nbrs[target]
        for v, w in around.items():
            if w != 1:
                raise InternalInvariantError("contraction of a tangent curve")
            selfints[v] += 1
        for a in around:
            for b in around:
                if a < b:
                    w = nbrs[a].get(b, 0) + 1
                    if w > 1:
                        raise InternalInvariantError(
                            "contraction created a tangency")
                    nbrs[a][b] = nbrs[b][a] = w
        for v in around:
            del nbrs[v][target]
            if selfints[v] == -1:
                heappush(heap, v)
        nbrs[target] = {}
        alive[target] = False

    surviving = tuple(v for v, a in enumerate(alive) if a)
    remap = {v: i for i, v in enumerate(surviving)}
    return BlownDownGraph(
        self_intersections=tuple(selfints[v] for v in surviving),
        edges=tuple(sorted((remap[i], remap[j])
                           for i in surviving for j in nbrs[i] if i < j)),
        surviving=surviving,
    )

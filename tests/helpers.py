"""Shared test utilities: deterministic random couples and small oracles."""

import random
from fractions import Fraction
from math import gcd

from conesing.divisors import (CurveCouple, QDivisorP1, finite_point,
                               infinity_point)

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

"""Handlers of the commands that read one couple: describe, hilbert,
presentation, discrepancy and resolve.  Each imports the layers it runs
in its own body."""

from __future__ import annotations

from .cli import _emit, _read_json
from .errors import PreconditionError

# Upper bound on --through, so oversized input exits 3 at once instead
# of exhausting memory.  The values are read off the certified series,
# in time and memory linear in L + through.
THROUGH_MAX = 10**6


def _load_couple(path: str):
    from .jsonio import couple_from_json
    return couple_from_json(_read_json(path))


def _discrepancy_doc(C) -> dict:
    """Quotient-side discrepancy data, shared by describe and discrepancy."""
    from .jsonio import fmt_q, integral_divisor_to_json, point_to_json
    from .quotient import (horizontal_log_discrepancies, log_fano_quotient,
                           vertex_decomposition, vertex_log_discrepancy)
    vd = vertex_decomposition(C)
    return {
        "quotient": [{"point": point_to_json(p), "coeff": fmt_q(b)}
                     for p, b in log_fano_quotient(C).boundary],
        "a_e0": fmt_q(vertex_log_discrepancy(C)),
        "horizontal": {repr(p): fmt_q(a)
                       for p, a in horizontal_log_discrepancies(C)},
        "m": vd.m, "u": vd.u, "H": integral_divisor_to_json(vd.H),
        "cartier_index_kx": vd.m,
    }


def cmd_describe(args) -> int:
    from .divisors import max_isotropy
    from .hilbert import hilbert_series
    from .jsonio import divisor_to_json, fmt_q
    from .resolution import build_graph
    C = _load_couple(args.couple)
    doc = _discrepancy_doc(C)
    G = build_graph(C)
    hd = hilbert_series(C)
    doc.update({
        "divisor": divisor_to_json(C),
        "degree": fmt_q(C.degree()),
        "mld": fmt_q(G.mld),
        "graph": G.to_json(),
        "blown_down": G.blown_down.to_json(),
        "det": G.determinant,
        "hilbert": hd.to_json(),
        "isotropies": {repr(p): c.denominator for p, c in C.terms},
        "max_isotropy": max_isotropy(C),
    })
    _emit(doc, args.out)
    return 0


def cmd_hilbert(args) -> int:
    from .hilbert import hilbert_series
    if args.through is not None and args.through < 0:
        raise PreconditionError(f"--through {args.through} must be >= 0")
    if args.through is not None and args.through > THROUGH_MAX:
        raise PreconditionError(
            f"--through {args.through} exceeds THROUGH_MAX = {THROUGH_MAX}")
    C = _load_couple(args.couple)
    hd = hilbert_series(C)
    doc = {"series": hd.to_json()}
    if args.through is not None:
        doc["values"] = hd.expansion(args.through)
    _emit(doc, args.out)
    return 0


def cmd_presentation(args) -> int:
    from .sections import presentation
    # Minimal generators have degree >= 1 and relations among them
    # degree >= 2, so smaller bounds search nothing.
    if args.gen_bound is not None and args.gen_bound < 1:
        raise PreconditionError(f"--gen-bound {args.gen_bound} must be >= 1")
    if args.rel_bound is not None and args.rel_bound < 2:
        raise PreconditionError(f"--rel-bound {args.rel_bound} must be >= 2")
    C = _load_couple(args.couple)
    _emit(presentation(C, gen_bound=args.gen_bound, rel_bound=args.rel_bound),
          args.out)
    return 0


def cmd_discrepancy(args) -> int:
    _emit(_discrepancy_doc(_load_couple(args.couple)), args.out)
    return 0


def cmd_resolve(args) -> int:
    from .jsonio import fmt_q
    from .resolution import build_graph
    C = _load_couple(args.couple)
    G = build_graph(C)
    doc = G.to_json()
    doc["mld"] = fmt_q(G.mld)
    doc["blown_down"] = G.blown_down.to_json()
    _emit(doc, args.out)
    return 0

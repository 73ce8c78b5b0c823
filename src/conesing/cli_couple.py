"""Handlers of the commands that read one couple: describe, hilbert,
presentation, discrepancy and resolve.  Each imports the layers it runs
in its own body and returns (document, exit code) to cli.main."""

from __future__ import annotations

from .cli import _read_json


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


def cmd_describe(args) -> tuple[dict, int]:
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
    return doc, 0


def cmd_hilbert(args) -> tuple[dict, int]:
    from .hilbert import hilbert_series
    C = _load_couple(args.couple)
    hd = hilbert_series(C)
    doc = {"series": hd.to_json()}
    if args.through is not None:
        doc["values"] = hd.expansion(args.through)
    return doc, 0


def cmd_presentation(args) -> tuple[dict, int]:
    from .sections import presentation
    C = _load_couple(args.couple)
    return presentation(C, gen_bound=args.gen_bound,
                        rel_bound=args.rel_bound), 0


def cmd_discrepancy(args) -> tuple[dict, int]:
    return _discrepancy_doc(_load_couple(args.couple)), 0


def cmd_resolve(args) -> tuple[dict, int]:
    from .jsonio import fmt_q
    from .resolution import build_graph
    C = _load_couple(args.couple)
    G = build_graph(C)
    doc = G.to_json()
    doc["mld"] = fmt_q(G.mld)
    doc["blown_down"] = G.blown_down.to_json()
    return doc, 0

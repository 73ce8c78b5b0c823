"""Handlers of the cross-checks: toric-check and verify-examples.  Each
imports the layers it runs in its own body and returns (document, exit
code) to cli.main.  toric-check samples with --seed, or with
DEFAULT_SEED when that is not given."""

from __future__ import annotations

from .cli import _read_json
from .errors import ParseError

DEFAULT_SEED = 20260801


def _int_rows(fan_doc: dict, key: str):
    from .jsonio import json_int
    rows = fan_doc[key]
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise ParseError(f"fan {key!r} must be an array of integer arrays")
    return tuple(tuple(json_int(x, f"fan {key} entry") for x in r) for r in rows)


def cmd_toric_check(args) -> tuple[dict, int]:
    from .jsonio import json_int, parse_q
    from .toric import Fan, random_primitive_samples, verify_comparison
    fan_doc = _read_json(args.fan)
    for key in ("rank", "rays", "cones"):
        if not isinstance(fan_doc, dict) or key not in fan_doc:
            raise ParseError(f"fan file missing {key!r}")
    F = Fan(rank=json_int(fan_doc["rank"], "fan rank"),
            rays=_int_rows(fan_doc, "rays"), max_cones=_int_rows(fan_doc, "cones"))
    div_doc = _read_json(args.divisor)
    if not isinstance(div_doc, list) or len(div_doc) != len(F.rays):
        raise ParseError("divisor file must list one coefficient per ray")
    D = tuple(parse_q(c) for c in div_doc)
    seed = DEFAULT_SEED if args.seed is None else args.seed
    samples = random_primitive_samples(seed, F.rank, args.samples)
    report = verify_comparison(F, D, samples)
    ok = not report.violations and report.vertex_ok is not False
    return report.to_json(), 0 if ok else 1


def cmd_verify_examples(args) -> tuple[dict, int]:
    from .counterexamples import (an_min_over_actions, diagonal_cone_report,
                                  rnc_family_report)
    from .jsonio import parse_q
    checks = []

    # only the printed rows are computed: all of them up to n = 12, else
    # the first three and the last three; every n gives (n, (0, -1)) by
    # the closed form, so the rows left out hold nothing that can fail
    top = args.an_n
    an_rows = []
    for n in (range(1, top + 1) if top <= 12
              else (1, 2, 3, top - 2, top - 1, top)):
        best, witness = an_min_over_actions(n, args.an_box)
        an_rows.append({"n": n, "min": best, "witness": list(witness),
                        "ok": best >= n})
    ok = an_ok = all(row["ok"] for row in an_rows)
    checks.append({"name": "a_type_isotropy_lower_bound",
                   "box": args.an_box, "ok": an_ok, "rows": an_rows})

    rnc_rows = rnc_family_report(args.rnc_max)
    # the rows hold rationals as strings, which parse_q reads back exactly
    rnc_ok = all(parse_q(r["a_e0"]) * r["m"] == 2 and r["max_isotropy"] == 1
                 and r["link_determinant"] == r["m"] for r in rnc_rows)
    index_unbounded = (max(r["cartier_index_kx"] for r in rnc_rows)
                       >= args.rnc_max // 2)
    ok = ok and rnc_ok and index_unbounded
    checks.append({"name": "rational_normal_cone_family",
                   "ok": rnc_ok and index_unbounded, "rows": rnc_rows})

    diag_rows = [diagonal_cone_report(d) for d in (1, 2, 3)]
    diag_ok = all(parse_q(r["a_e0"]) == r["d"] + 1 and r["max_isotropy"] == 1
                  and r["smooth"] for r in diag_rows)
    ok = ok and diag_ok
    checks.append({"name": "diagonal_cone_family", "ok": diag_ok,
                   "rows": diag_rows})

    return {"ok": ok, "checks": checks}, 0 if ok else 1

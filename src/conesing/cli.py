"""Command-line interface.

All output is JSON with rationals as reduced "p/q" strings and a
top-level schema tag.  Exit codes: 0 success, 1 verification failure,
2 parse error, 3 precondition violation, 4 internal invariant breach
(never expected).  CONESING_SEED overrides the default sampling seed.
Every command runs in one process: `enumerate` and `mld-set` accept and
range-check `--jobs` for compatibility, and it changes nothing.

Each handler imports the layers it runs in its own body, so a command
loads only its own modules.  `--version` alone, and a subcommand with
plain `--flag value` arguments, are answered without loading argparse;
help, abbreviated or repeated flags and every refusal go through it.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

from . import __version__
from .errors import (ConesingError, InternalInvariantError, ParseError,
                     PreconditionError)

DEFAULT_SEED = 20260801
# Upper bounds on the count flags, so oversized input exits 3 at once
# instead of running for minutes or exhausting memory.  hilbert_series
# calls hilbert_values through about 2 * PERIOD_MAX, so THROUGH_MAX
# bounds the flag here, not the function.
THROUGH_MAX = 10**6
SAMPLES_MAX = 10**5
AN_N_MAX = 10**6
RNC_DEGREE_MAX = 10**4


def _seed(args) -> int:
    env = os.environ.get("CONESING_SEED")
    if getattr(args, "seed", None) is not None:
        return args.seed
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ParseError(f"CONESING_SEED {env!r} is not an integer")
    return DEFAULT_SEED


def _read_json(path: str):
    from .jsonio import loads
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8: {exc}") from None
    return loads(text)


def _load_couple(path: str):
    from .jsonio import couple_from_json
    return couple_from_json(_read_json(path))


def _emit(doc: dict, out: str | None) -> None:
    from .jsonio import SCHEMA, dumps
    doc = {"schema": SCHEMA, **doc}
    text = dumps(doc)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _discrepancy_doc(C) -> dict:
    """Quotient-side discrepancy data, shared by describe and discrepancy."""
    from .jsonio import fmt_q, integral_divisor_to_json, point_to_json
    from .quotient import (horizontal_log_discrepancy, log_fano_quotient,
                           vertex_decomposition, vertex_log_discrepancy)
    vd = vertex_decomposition(C)
    return {
        "quotient": [{"point": point_to_json(p), "coeff": fmt_q(b)}
                     for p, b in log_fano_quotient(C).boundary],
        "a_e0": fmt_q(vertex_log_discrepancy(C)),
        "horizontal": {repr(p): fmt_q(horizontal_log_discrepancy(C, p))
                       for p, _ in C.divisor.terms},
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
        "divisor": divisor_to_json(C.divisor),
        "degree": fmt_q(C.degree()),
        "mld": fmt_q(G.mld),
        "graph": G.to_json(),
        "blown_down": G.blown_down.to_json(),
        "det": G.determinant,
        "hilbert": hd.to_json(),
        "isotropies": {repr(p): c.denominator for p, c in C.divisor.terms},
        "max_isotropy": max_isotropy(C),
    })
    _emit(doc, args.out)
    return 0


def cmd_hilbert(args) -> int:
    from .hilbert import hilbert_series, hilbert_values
    if args.through is not None and args.through < 0:
        raise PreconditionError(f"--through {args.through} must be >= 0")
    if args.through is not None and args.through > THROUGH_MAX:
        raise PreconditionError(
            f"--through {args.through} exceeds THROUGH_MAX = {THROUGH_MAX}")
    C = _load_couple(args.couple)
    hd = hilbert_series(C)
    doc = {"series": hd.to_json()}
    if args.through is not None:
        doc["values"] = hilbert_values(C, args.through)
    _emit(doc, args.out)
    return 0


def cmd_presentation(args) -> int:
    from .sections import hilbert_series, presentation
    # Minimal generators have degree >= 1 and relations among them
    # degree >= 2, so smaller bounds search nothing.
    if args.gen_bound is not None and args.gen_bound < 1:
        raise PreconditionError(f"--gen-bound {args.gen_bound} must be >= 1")
    if args.rel_bound is not None and args.rel_bound < 2:
        raise PreconditionError(f"--rel-bound {args.rel_bound} must be >= 2")
    C = _load_couple(args.couple)
    pres = presentation(C, gen_bound=args.gen_bound, rel_bound=args.rel_bound)
    hd = hilbert_series(C)
    doc = {"series": hd.to_json(),
           "generators": list(pres.generator_degrees),
           "relations": list(pres.relation_degrees),
           "equations": list(pres.equations or []),
           "verified_through": pres.verified_through}
    _emit(doc, args.out)
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


def _search_params(args) -> SearchParams:
    from .catalog import SearchParams
    from .jsonio import parse_q
    return SearchParams(epsilon=parse_q(args.epsilon),
                        isotropy_bound=args.isotropy_bound)


def _check_jobs(jobs: int) -> None:
    """Refuse --jobs outside 1..os.cpu_count().  The sweep always runs
    in one process; the flag is kept, and checked, for compatibility."""
    cpus = os.cpu_count() or 1
    if not 1 <= jobs <= cpus:
        raise PreconditionError(f"jobs {jobs} is outside 1..{cpus} "
                                "(the CPU count)")


def cmd_enumerate(args) -> int:
    from .catalog import catalog_to_json, enumerate_catalog, search_bounds
    params = _search_params(args)
    _check_jobs(args.jobs)
    entries = enumerate_catalog(params)
    doc = catalog_to_json(entries, params)
    doc["bounds"] = search_bounds(params).to_json()
    _emit(doc, args.out)
    return 0


def cmd_mld_set(args) -> int:
    from .catalog import catalog_to_json, enumerate_catalog
    params = _search_params(args)
    _check_jobs(args.jobs)
    catalog = catalog_to_json(enumerate_catalog(params), params)
    _emit({"params": catalog["params"], **catalog["summary"]}, args.out)
    return 0


def cmd_audit(args) -> int:
    from .catalog import audit_catalog
    params = _search_params(args)
    doc = _read_json(args.catalog)
    if not isinstance(doc, dict) or not isinstance(doc.get("entries"), list):
        raise ParseError("catalog file must carry an 'entries' array")
    report = audit_catalog(doc["entries"], params)
    _emit(report.to_json(), args.out)
    return 0 if report.ok else 1


def _int_rows(fan_doc: dict, key: str):
    from .jsonio import json_int
    rows = fan_doc[key]
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise ParseError(f"fan {key!r} must be an array of integer arrays")
    return tuple(tuple(json_int(x, f"fan {key} entry") for x in r) for r in rows)


def cmd_toric_check(args) -> int:
    from .jsonio import json_int, parse_q
    from .toric import (Fan, ToricDivisor, random_primitive_samples,
                        verify_comparison)
    if args.samples > SAMPLES_MAX:
        raise PreconditionError(
            f"--samples {args.samples} exceeds SAMPLES_MAX = {SAMPLES_MAX}")
    fan_doc = _read_json(args.fan)
    for key in ("rank", "rays", "cones"):
        if not isinstance(fan_doc, dict) or key not in fan_doc:
            raise ParseError(f"fan file missing {key!r}")
    F = Fan(rank=json_int(fan_doc["rank"], "fan rank"),
            rays=_int_rows(fan_doc, "rays"), max_cones=_int_rows(fan_doc, "cones"))
    div_doc = _read_json(args.divisor)
    if not isinstance(div_doc, list) or len(div_doc) != len(F.rays):
        raise ParseError("divisor file must list one coefficient per ray")
    D = ToricDivisor.of([parse_q(c) for c in div_doc])
    samples = random_primitive_samples(_seed(args), F.rank, args.samples)
    report = verify_comparison(F, D, samples)
    _emit(report.to_json(), args.out)
    return 0 if not report.violations and report.vertex_ok is not False else 1


def cmd_verify_examples(args) -> int:
    from .counterexamples import (an_min_over_actions, diagonal_cone_report,
                                  rnc_family_report)
    # The A-type family must have a member, and the index test below
    # (>= rnc_max // 2) must ask for more than the index 1 that every
    # member already has.
    if args.an_n < 1:
        raise PreconditionError(f"--an-n {args.an_n} must be >= 1")
    if args.an_n > AN_N_MAX:
        raise PreconditionError(f"--an-n {args.an_n} exceeds AN_N_MAX = {AN_N_MAX}")
    if args.rnc_max < 4:
        raise PreconditionError(f"--rnc-max {args.rnc_max} must be >= 4")
    if args.rnc_max > RNC_DEGREE_MAX:
        raise PreconditionError(
            f"--rnc-max {args.rnc_max} exceeds RNC_DEGREE_MAX = {RNC_DEGREE_MAX}")
    checks = []

    # only the rows that are printed are kept: all of them up to n = 12,
    # else the first three and the last three
    an_ok = True
    an_rows = []
    for n in range(1, args.an_n + 1):
        best, witness = an_min_over_actions(n, args.an_box)
        good = best >= n
        an_ok = an_ok and good
        if args.an_n <= 12 or n <= 3 or n > args.an_n - 3:
            an_rows.append({"n": n, "min": best, "witness": list(witness),
                            "ok": good})
    ok = an_ok
    checks.append({"name": "a_type_isotropy_lower_bound",
                   "box": args.an_box, "ok": an_ok, "rows": an_rows})

    rnc_rows = rnc_family_report(args.rnc_max)
    rnc_ok = all(r.a_e0 * r.m == 2 and r.max_isotropy == 1
                 and r.link_determinant == r.m for r in rnc_rows)
    index_unbounded = max(r.cartier_index_kx for r in rnc_rows) >= args.rnc_max // 2
    ok = ok and rnc_ok and index_unbounded
    checks.append({"name": "rational_normal_cone_family",
                   "ok": rnc_ok and index_unbounded,
                   "rows": [r.to_json() for r in rnc_rows]})

    diag_rows = [diagonal_cone_report(d) for d in (1, 2, 3)]
    diag_ok = all(r.a_e0 == r.d + 1 and r.max_isotropy == 1 and r.smooth
                  for r in diag_rows)
    ok = ok and diag_ok
    checks.append({"name": "diagonal_cone_family", "ok": diag_ok,
                   "rows": [r.to_json() for r in diag_rows]})

    _emit({"ok": ok, "checks": checks}, args.out)
    return 0 if ok else 1


def _commands() -> dict:
    """Each subcommand's handler, help line and options in help order;
    an option is (flag, type, required, default, help).  Built on every
    call, so that a handler replaced in this module (by a profiler's
    wrapper, say) is the one that runs."""
    couple = ("--couple", str, True, None, "couple JSON file ('-' for stdin)")
    out = ("--out", str, False, None, "write JSON here instead of stdout")
    search = (("--epsilon", str, True, None, None),
              ("--isotropy-bound", int, True, None, None))
    jobs = ("--jobs", int, False, os.cpu_count() or 1, None)
    return {
        "describe": (cmd_describe, "full invariant report for a couple",
                     (couple, out)),
        "hilbert": (cmd_hilbert, "Hilbert series of the section ring",
                    (couple, out,
                     ("--through", int, False, None, "also list h(0..N)"))),
        "presentation": (cmd_presentation, "generators and relations",
                         (couple, out, ("--gen-bound", int, False, None, None),
                          ("--rel-bound", int, False, None, None))),
        "discrepancy": (cmd_discrepancy, "quotient-side discrepancy data",
                        (couple, out)),
        "resolve": (cmd_resolve, "star-shaped resolution graph",
                    (couple, out)),
        "enumerate": (cmd_enumerate, "catalog of eps-lc cone singularities",
                      (*search, jobs, out)),
        "mld-set": (cmd_mld_set, "mld spectrum of a catalog",
                    (*search, jobs, out)),
        "audit": (cmd_audit, "re-verify a catalog file",
                  (("--catalog", str, True, None, None), *search, out)),
        "toric-check": (cmd_toric_check, "discrepancy comparison on a fan",
                        (("--fan", str, True, None, None),
                         ("--divisor", str, True, None, None),
                         ("--samples", int, False, 20, None),
                         ("--seed", int, False, None, None), out)),
        "verify-examples": (cmd_verify_examples,
                            "run the counterexample families",
                            (("--an-n", int, False, 200, None),
                             ("--an-box", int, False, 500, None),
                             ("--rnc-max", int, False, 50, None), out)),
    }


def build_parser():
    import argparse
    ap = argparse.ArgumentParser(
        prog="conesing",
        description="exact invariants of cone surface singularities")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (func, text, options) in _commands().items():
        p = sub.add_parser(name, help=text)
        for flag, kind, required, default, helptext in options:
            p.add_argument(flag, type=kind, required=required,
                           default=default, help=helptext)
        p.set_defaults(func=func)
    return ap


def _plain_args(argv):
    """The arguments argparse would parse from argv, when argv is a
    subcommand followed by `--flag value` pairs of its own flags, each
    flag once, every required flag present, no value starting with "-"
    and every int value an int; None for any other argv, which argparse
    then parses or refuses with its own messages."""
    spec = _commands().get(argv[0]) if argv else None
    if spec is None or len(argv) % 2 == 0:
        return None
    func, _, options = spec
    given = dict(zip(argv[1::2], argv[2::2]))
    if len(given) != len(argv) // 2:
        return None
    args = SimpleNamespace(command=argv[0], func=func)
    for flag, kind, required, default, _ in options:
        value = given.pop(flag, None)
        if value is None:
            if required:
                return None
            value = default
        elif value.startswith("-"):
            return None
        elif kind is int:
            try:
                value = int(value)
            except ValueError:
                return None
        setattr(args, flag[2:].replace("-", "_"), value)
    return None if given else args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv == ["--version"]:
        sys.stdout.write(__version__ + "\n")
        return 0
    args = _plain_args(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            # argparse exits 2 on bad flags, which matches the parse-error code
            return int(exc.code or 0)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 3
    except InternalInvariantError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 4
    except ConesingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

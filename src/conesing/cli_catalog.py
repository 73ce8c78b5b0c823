"""Handlers of the catalog commands: enumerate, mld-set and audit.
Each imports the layers it runs in its own body and returns (document,
exit code) to cli.main."""

from __future__ import annotations

from .cli import _read_json
from .errors import ParseError


def _search_params(args):
    from .catalog import SearchParams
    from .jsonio import parse_q
    return SearchParams(epsilon=parse_q(args.epsilon),
                        isotropy_bound=args.isotropy_bound)


def cmd_enumerate(args) -> tuple[dict, int]:
    from .catalog import catalog_to_json, enumerate_catalog, search_bounds
    params = _search_params(args)
    entries = enumerate_catalog(params)
    doc = catalog_to_json(entries, params)
    doc["bounds"] = search_bounds(params)
    return doc, 0


def cmd_mld_set(args) -> tuple[dict, int]:
    from .catalog import catalog_to_json, enumerate_catalog
    params = _search_params(args)
    catalog = catalog_to_json(enumerate_catalog(params), params)
    return {"params": catalog["params"], **catalog["summary"]}, 0


def cmd_audit(args) -> tuple[dict, int]:
    from .audit import audit_catalog
    params = _search_params(args)
    doc = _read_json(args.catalog)
    if not isinstance(doc, dict) or not isinstance(doc.get("entries"), list):
        raise ParseError("catalog file must carry an 'entries' array")
    report = audit_catalog(doc["entries"], params)
    return report, 0 if report["ok"] else 1

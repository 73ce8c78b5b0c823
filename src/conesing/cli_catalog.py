"""Handlers of the catalog commands: enumerate, mld-set and audit.
Each imports the layers it runs in its own body."""

from __future__ import annotations

import os

from .cli import _emit, _read_json
from .errors import ParseError, PreconditionError


def _search_params(args):
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
    doc["bounds"] = search_bounds(params)
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

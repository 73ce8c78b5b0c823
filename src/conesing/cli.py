"""Command-line interface: the dispatcher.

All output is JSON with rationals as reduced "p/q" strings and a
top-level schema tag.  Exit codes: 0 success, 1 verification failure,
2 parse error, 3 precondition violation or output that cannot be
written, 4 internal invariant breach (never expected).

The handlers live in one module per family of commands: `cli_couple`
(describe, hilbert, presentation, discrepancy, resolve), `cli_catalog`
(enumerate, mld-set, audit) and `cli_checks` (toric-check,
verify-examples).  `main` imports only the module of the command it
runs, and each handler imports the layers it runs in its own body, so
a command loads only its own modules.  `--version` alone, and a
subcommand with plain `--flag value` arguments, are answered without
loading argparse; help, abbreviated or repeated flags and every refusal
go through it.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

from . import __version__


def _read_json(path: str):
    from .errors import ParseError
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


class _StdoutFailed(Exception):
    """Raised by _emit once a failed write of stdout has been reported."""


def _emit(doc: dict, out: str | None) -> None:
    from .jsonio import SCHEMA, dumps
    doc = {"schema": SCHEMA, **doc}
    text = dumps(doc)
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            from .errors import ConesingError
            raise ConesingError(f"cannot write output: {exc}") from None
    elif _write_stdout(text):
        raise _StdoutFailed


def _write_stdout(text: str) -> int:
    """Write text to stdout and flush it; 0, or 3 when that fails."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        return write_failed(exc)
    return 0


def write_failed(exc: OSError) -> int:
    """Report output that cannot be written and return its exit code, 3.
    stdout is pointed at the null device first, so that what is left in
    its buffer cannot fail a second time when the process ends."""
    try:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except (OSError, ValueError):
        pass
    print(f"error: cannot write output: {exc}", file=sys.stderr)
    return 3


def _commands() -> dict:
    """Each subcommand's family, help line and options in help order;
    an option is (flag, type, required, default, help).  The handler of
    command `name` is `cmd_<name>` of the module `cli_<family>`."""
    couple = ("--couple", str, True, None, "couple JSON file ('-' for stdin)")
    out = ("--out", str, False, None, "write JSON here instead of stdout")
    search = (("--epsilon", str, True, None, None),
              ("--isotropy-bound", int, True, None, None))
    jobs = ("--jobs", int, False, os.cpu_count() or 1, None)
    return {
        "describe": ("couple", "full invariant report for a couple",
                     (couple, out)),
        "hilbert": ("couple", "Hilbert series of the section ring",
                    (couple, out,
                     ("--through", int, False, None, "also list h(0..N)"))),
        "presentation": ("couple", "generators and relations",
                         (couple, out, ("--gen-bound", int, False, None, None),
                          ("--rel-bound", int, False, None, None))),
        "discrepancy": ("couple", "quotient-side discrepancy data",
                        (couple, out)),
        "resolve": ("couple", "star-shaped resolution graph", (couple, out)),
        "enumerate": ("catalog", "catalog of eps-lc cone singularities",
                      (*search, jobs, out)),
        "mld-set": ("catalog", "mld spectrum of a catalog",
                    (*search, jobs, out)),
        "audit": ("catalog", "re-verify a catalog file",
                  (("--catalog", str, True, None, None), *search, out)),
        "toric-check": ("checks", "discrepancy comparison on a fan",
                        (("--fan", str, True, None, None),
                         ("--divisor", str, True, None, None),
                         ("--samples", int, False, 20, None),
                         ("--seed", int, False, None, None), out)),
        "verify-examples": ("checks", "run the counterexample families",
                            (("--an-n", int, False, 200, None),
                             ("--an-box", int, False, 500, None),
                             ("--rnc-max", int, False, 50, None), out)),
    }


def _handler(command: str):
    """The handler of a subcommand, looked up in its module when the
    command runs, so that a wrapper patched in there (by a profiler,
    say) is the one called."""
    from importlib import import_module
    module = import_module(f".cli_{_commands()[command][0]}", __package__)
    return getattr(module, "cmd_" + command.replace("-", "_"))


def build_parser():
    import argparse

    class Parser(argparse.ArgumentParser):
        def _print_message(self, message, file=None):
            # argparse drops a failed write; one to stdout (help, the
            # version) raises instead, so that main reports it
            if message and file is sys.stdout:
                file.write(message)
            else:
                super()._print_message(message, file)

    ap = Parser(
        prog="conesing",
        description="exact invariants of cone surface singularities")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (_, text, options) in _commands().items():
        p = sub.add_parser(name, help=text)
        for flag, kind, required, default, helptext in options:
            p.add_argument(flag, type=kind, required=required,
                           default=default, help=helptext)
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
    options = spec[2]
    given = dict(zip(argv[1::2], argv[2::2]))
    if len(given) != len(argv) // 2:
        return None
    args = SimpleNamespace(command=argv[0])
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
        return _write_stdout(__version__ + "\n")
    args = _plain_args(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            # argparse exits 2 on bad flags, which matches the parse-error code
            return int(exc.code or 0)
        except OSError as exc:
            return write_failed(exc)
    from .errors import (ConesingError, InternalInvariantError, ParseError,
                         PreconditionError)
    try:
        return _handler(args.command)(args)
    except _StdoutFailed:
        return 3
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

"""Command-line interface: the dispatcher.

All output is JSON with rationals as reduced "p/q" strings and a
top-level schema tag.  Exit codes: 0 success, 1 verification failure,
2 parse error, 3 precondition violation or output that cannot be
written, 4 internal invariant breach (never expected), as each class
of `conesing.errors` states.  `main` alone writes and flushes output.

The handlers live in one module per family of commands: `cli_couple`
(describe, hilbert, presentation, discrepancy, resolve), `cli_catalog`
(enumerate, mld-set, audit) and `cli_checks` (toric-check,
verify-examples).  `main` imports only the module of the command it
runs, and each handler imports the layers it runs in its own body, so
a command loads only its own modules.  `--version` alone, and a
subcommand with plain `--flag value` arguments, are answered without
loading argparse; help, abbreviated or repeated flags and argparse's
refusals go through it.  An int flag outside the range that the option
table accepts exits 3 before any handler is imported.
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


def _emit(doc: dict, out: str | None) -> None:
    from .jsonio import SCHEMA, dumps
    text = dumps({"schema": SCHEMA, **doc})
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


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
    an option is (flag, type, required, default, help, accepted), with
    accepted the (least, greatest) int values, either end None when it
    is open, or None for a flag that is not ranged.  The handler of
    command `name` is `cmd_<name>` of the module `cli_<family>`."""
    couple = ("--couple", str, True, None, "couple JSON file ('-' for stdin)",
              None)
    out = ("--out", str, False, None, "write JSON here instead of stdout",
           None)
    search = (("--epsilon", str, True, None, None, None),
              ("--isotropy-bound", int, True, None, None, (1, None)))
    cpus = os.cpu_count() or 1
    jobs = ("--jobs", int, False, cpus, None, (1, cpus))
    # upper ends stop runs of minutes, lower ends checks that are vacuous
    return {
        "describe": ("couple", "full invariant report for a couple",
                     (couple, out)),
        "hilbert": ("couple", "Hilbert series of the section ring",
                    (couple, out, ("--through", int, False, None,
                                   "also list h(0..N)", (0, 10**6)))),
        "presentation": ("couple", "generators and relations",
                         (couple, out,
                          ("--gen-bound", int, False, None, "cap on the "
                           "generator degrees; klt needs none", (1, None)),
                          ("--rel-bound", int, False, None, "cap on the "
                           "relation degrees; klt needs none, else it "
                           "defaults to --gen-bound", (2, None)))),
        "discrepancy": ("couple", "quotient-side discrepancy data",
                        (couple, out)),
        "resolve": ("couple", "star-shaped resolution graph", (couple, out)),
        "enumerate": ("catalog", "catalog of eps-lc cone singularities",
                      (*search, jobs, out)),
        "mld-set": ("catalog", "mld spectrum of a catalog",
                    (*search, jobs, out)),
        "audit": ("catalog", "re-verify a catalog file",
                  (("--catalog", str, True, None, None, None), *search, out)),
        "toric-check": ("checks", "discrepancy comparison on a fan",
                        (("--fan", str, True, None, None, None),
                         ("--divisor", str, True, None, None, None),
                         ("--samples", int, False, 20, None, (0, 10**5)),
                         ("--seed", int, False, None, None, None), out)),
        "verify-examples": ("checks", "run the counterexample families",
                            (("--an-n", int, False, 200, None, (1, 10**6)),
                             ("--an-box", int, False, 500, None, (1, None)),
                             ("--rnc-max", int, False, 50, None, (4, 10**4)),
                             out)),
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
        for flag, kind, required, default, helptext, _ in options:
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
    for flag, kind, required, default, _, _ in options:
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


def _run(argv) -> int:
    """Run argv's handler and write its document; a ConesingError is
    reported with its class's label and exit code."""
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
    from .errors import ConesingError, PreconditionError
    try:
        for flag, *_, accepted in _commands()[args.command][2]:
            value = getattr(args, flag[2:].replace("-", "_"))
            least, greatest = accepted or (None, None)
            if value is not None and least is not None and value < least:
                raise PreconditionError(f"{flag} {value} must be >= {least}")
            if value is not None and greatest is not None and value > greatest:
                raise PreconditionError(f"{flag} {value} exceeds {greatest}")
        doc, code = _handler(args.command)(args)
        _emit(doc, args.out)
    except ConesingError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    return code


def main(argv=None) -> int:
    """Run argv and flush stdout; output that cannot be written exits 3."""
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        code = _run(argv)
        sys.stdout.flush()
    except OSError as exc:
        return write_failed(exc)
    return code


if __name__ == "__main__":
    sys.exit(main())

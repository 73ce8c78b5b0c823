"""Exception hierarchy: each family carries the CLI's stderr label and
exit code.  ParseError covers malformed files and flags (exit 2),
PreconditionError bad but well-formed input (exit 3), and
InternalInvariantError a broken internal consistency assertion that is
supposed to be unreachable (exit 4); any other ConesingError exits 3.
A failure is raised as its family with a message that names it; NotKlt
is the one subclass, because audit and presentation catch it.
"""


class ConesingError(Exception):
    label, exit_code = "error", 3


class ParseError(ConesingError):
    label, exit_code = "parse error", 2


class PreconditionError(ConesingError):
    label, exit_code = "precondition violated", 3


class NotKlt(PreconditionError):
    """The cone singularity is not Kawamata log terminal: for a cone this
    is the same as a quotient pair that is not log Fano."""


class InternalInvariantError(ConesingError):
    label, exit_code = "internal invariant violated", 4

"""Exception hierarchy.

Two families matter for the CLI exit-code contract: PreconditionError
(bad but well-formed input, exit 3) and InternalInvariantError (a broken
internal consistency assertion that is supposed to be unreachable,
exit 4).  ParseError covers malformed files and flags (exit 2).
"""


class ConesingError(Exception):
    pass


class ParseError(ConesingError):
    pass


class PreconditionError(ConesingError):
    pass


class NotAmple(PreconditionError):
    """Divisor fails the positivity required of an ample Q-divisor."""


class NotKlt(PreconditionError):
    """The cone singularity is not Kawamata log terminal: for a cone this
    is the same as a quotient pair that is not log Fano."""


class BadEpsilon(PreconditionError):
    """epsilon outside (0, 1]."""


class BoundTooSmall(PreconditionError):
    """Bounds of the presentation search too small to certify the answer."""


class NotQGorenstein(PreconditionError):
    """No rational covector takes value 1 on every ray of the cone."""


class NotQCartierPair(PreconditionError):
    """K_Y + B admits no linear form on some cone of the fan."""


class NonCartierOnCone(PreconditionError):
    """The divisor admits no single linear form on a non-simplicial cone."""


class FanInvalid(PreconditionError):
    """Ray or cone data fails fan validation."""


class InternalInvariantError(ConesingError):
    pass


class InternalNonIntegral(InternalInvariantError):
    """A quantity forced to be an integer by theory came out fractional."""


class SingularMatrix(InternalInvariantError):
    """An intersection matrix that must be definite was singular."""


class BadChain(InternalInvariantError):
    """A Hirzebruch-Jung chain failed its hull-recursion certificate."""


class CatalogMismatch(InternalInvariantError):
    """Two derivations of a catalog entry that must agree did not."""

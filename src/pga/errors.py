"""Exception types shared across the package."""


class PgaError(Exception):
    """Base class for all errors raised by this package."""


class InvalidPermutationError(PgaError, ValueError):
    """Image list is not a bijection, or the degree is not positive."""


class DegreeMismatchError(PgaError, ValueError):
    """Operands act on point sets of different sizes."""


class PointOutOfRangeError(PgaError, ValueError):
    """A point is not in {0, ..., degree-1}."""


class CycleParseError(PgaError, ValueError):
    """Cycle text does not match the cycle grammar."""


class RepeatedPointError(CycleParseError):
    """A point occurs in more than one position of a cycle expression."""


class NotPrimeError(PgaError, ValueError):
    """An argument required to be prime is not."""


class NotAbelianError(PgaError, ValueError):
    """Operation defined only for abelian groups."""


class NotInGroupError(PgaError, ValueError):
    """A permutation is not a member of the group it must belong to."""


class NotTransitiveError(PgaError, ValueError):
    """Operation defined only for transitive groups."""


class TrivialGroupError(PgaError, ValueError):
    """Operation defined only for nontrivial groups."""


class CapExceededError(PgaError):
    """A configured resource cap would be exceeded.

    Callers must surface this as a distinct "skipped" outcome rather than
    silently truncating the computation.
    """


class LatticeCapExceededError(CapExceededError):
    """The normal-subgroup listing grew past the configured cap."""


class DegreeCapExceededError(CapExceededError):
    """The degree is too large for the closure backtracker."""


class GroupFileError(PgaError, ValueError):
    """A group file is malformed; carries the offending line number."""

    def __init__(self, message, *, line=None, source=None):
        loc = ""
        if source is not None:
            loc += f"{source}:"
        if line is not None:
            loc += f"{line}:"
        super().__init__(f"{loc} {message}" if loc else message)
        self.line = line
        self.source = source


class InvalidFamilyError(PgaError, ValueError):
    """Unknown builtin family or invalid family parameters."""


class UnknownCheckError(PgaError, ValueError):
    """Check id is not in the catalog."""

"""Exception types shared across the package.

Each class is kept because some caller reacts to it differently: the
command line exits 3 on `CapExceededError` and 2 on any other
`PgaError`, the harness turns a `CapExceededError` into a `skipped`
result, and `GroupFileError` carries where in a file the fault is.  Any
other failure is a plain `PgaError` whose message says what went wrong.
"""


class PgaError(ValueError):
    """Base class for all errors raised by this package."""


class CapExceededError(PgaError):
    """A configured resource cap would be exceeded, or the input leaves
    the quantity undefined (the fixity of the trivial group).

    Callers must surface this as a distinct "skipped" outcome rather than
    silently truncating the computation.
    """


class GroupFileError(PgaError):
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

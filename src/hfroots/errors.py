"""Shared exception types."""


class InternalInvariantError(RuntimeError):
    """A mathematically guaranteed identity failed at runtime.

    This always signals an implementation bug (or corrupted input that
    slipped past validation), never a property of the input manifold.
    The command line maps it to exit code 3.
    """


class ResourceLimitError(RuntimeError):
    """A computation reached one of its written-down resource limits.

    The input is valid and nothing is wrong with the code: the run would
    simply cost more than the limit allows.  The command line maps it to
    exit code 4.
    """

"""The library's own exception, in a module that imports nothing.

The command line catches GuardError before it has loaded numpy or any
module that computes; `core` re-exports this same class.
"""


class GuardError(RuntimeError):
    """A computation would exceed a configured safety guard."""

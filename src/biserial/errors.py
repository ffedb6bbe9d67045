"""The root of the library's exception hierarchy.

Every exception the library raises about its input derives from
DomainError; the CLI reports those as domain errors (exit 1).  Anything
else that escapes is a bug in the library.  The class lives in its own
module so that the lowest layer, ``fields``, can raise it too.
"""


class DomainError(Exception):
    """Base class for every error the library raises about its input."""

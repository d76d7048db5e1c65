"""lefweave: symbolic calculus for Lefschetz presentations.

Exact fiber lattices, vanishing-cycle moves (Hurwitz, rotation,
stabilization, boundary connect sum, subflexibilization), arc rewriting,
total-space invariants, and a syntactic flexibility-certificate system with
a small line-oriented scripting language (see the ``lefweave`` command).
"""

import operator

__version__ = "0.1.0"


class LefweaveError(ValueError):
    """Base of every lefweave error: a message plus keyword context."""

    def __init__(self, message, **context):
        super().__init__(message)
        self.context = dict(context)


def exact_ints(values, error, what):
    """``values`` as a tuple of ints, or ``error`` if one is no integer.

    operator.index takes ints and the integer types that say so, and
    refuses 1.5, 2.0 and "1", which int() would truncate or parse.
    """
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        raise error("%s must be integral" % what, values=values) from None


def exact_int(value, error, what):
    """exact_ints of one value: an int is returned as it is."""
    if type(value) is int:
        return value
    return exact_ints((value,), error, what)[0]


class Immutable:
    """Base of the value types: slotted, and closed to attribute assignment.

    Constructors and the engine's own caches write through
    ``object.__setattr__``.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

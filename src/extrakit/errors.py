"""Exception hierarchy shared across the library.

Every failure mode that a caller can meaningfully react to gets its own
class; all inherit from :class:`ExtrakitError` so a bare ``except
ExtrakitError`` catches library failures without swallowing bugs.
"""


class ExtrakitError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(ExtrakitError):
    """Bit lengths or block counts of the arguments do not fit together."""


class InvalidDistributionError(ExtrakitError):
    """A probability assignment is malformed (negative mass, wrong total, ...)."""


class EntropyDeficitError(ExtrakitError):
    """A source does not have the min-entropy the operation requires."""


class BudgetExceededError(ExtrakitError):
    """An exact enumeration would exceed the configured work budget.

    Raised instead of silently downgrading to sampling; the caller must
    shrink the instance or raise the budget explicitly.  ``requested`` is
    the size the call asked for and ``budget`` the cap it exceeded, in the
    unit the message names (subsets, cells, members, bits, messages).
    """

    def __init__(self, message, requested=None, budget=None):
        super().__init__(message)
        self.requested = requested
        self.budget = budget


class FormatError(ExtrakitError):
    """A text artifact (bit string, graph, design, distribution) is malformed."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class FeasibilityError(ExtrakitError):
    """Requested parameters violate a feasibility inequality of a construction."""


class InvalidPairError(ExtrakitError):
    """An operation defined only for distinct arguments got equal ones."""


class NoGoodNeighborError(ExtrakitError):
    """A left vertex has no usable (non-overloaded) neighbor on the right."""


class Verdict:
    """Pass/fail outcome of an exact check, with a witness on failure.

    Truthiness follows ``ok``, so verifiers can be used directly in
    assertions; ``witness`` carries whatever object demonstrates the
    failure (its shape is documented by each verifier).
    """

    __slots__ = ("ok", "witness", "note")

    def __init__(self, ok, witness=None, note=""):
        self.ok = bool(ok)
        self.witness = witness
        self.note = note

    def __bool__(self):
        return self.ok

    def __repr__(self):
        if self.ok:
            return f"Verdict(pass{', ' + self.note if self.note else ''})"
        return f"Verdict(fail, witness={self.witness!r}{', ' + self.note if self.note else ''})"

"""Exception hierarchy shared across the package."""

from __future__ import annotations


class OrdseqError(Exception):
    """Base class for all errors raised by this package."""


class SizeLimitError(OrdseqError):
    """An input exceeds a documented size cap."""


class ParseError(OrdseqError):
    """A group expression, sequence, or partition string failed to parse."""


class PreconditionError(OrdseqError):
    """An operation was called on arguments outside its contract."""


class LengthMismatch(PreconditionError):
    """Two order sequences of different lengths were compared."""


class SizeMismatch(PreconditionError):
    """Two partitions of different totals were compared."""


class NotMajorized(PreconditionError):
    """A box-move chain was requested between incomparable partitions."""


class NotSubgroup(PreconditionError):
    """A supplied element set is not a subgroup."""


class NotNormal(PreconditionError):
    """A supplied subgroup is not normal in its parent."""


class ActionNotAutomorphism(PreconditionError):
    """A group action maps some element to a non-automorphism."""


class ActionNotHomomorphism(PreconditionError):
    """A group action is not multiplicative in the acting group."""


class NoSuchOrder(PreconditionError):
    """No field element has the requested multiplicative order."""


class NoWitness(PreconditionError):
    """No (p, d, q) witness exists for the requested order."""


class NotAbelianPGroupSequence(PreconditionError):
    """A sequence is not the order sequence of any abelian p-group."""


class UnsupportedOrderError(OrdseqError):
    """No complete catalog is available for the requested group order."""

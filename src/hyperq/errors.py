"""Exception types shared across the package."""


class HyperqError(Exception):
    """Base class for all errors raised by this package."""


class SchemaError(HyperqError):
    """An input file cannot be read or does not conform to the hyperq/1
    JSON schema."""


class MalformedTable(HyperqError):
    """A table violates a structural invariant of its type (typing, the
    involution, identities, the domain of composition)."""


class BoundExceeded(HyperqError):
    """A site has more objects or compatible atom sets than its bound."""


class OrderBoundExceeded(HyperqError):
    """A group listing, or a coset input's subgroup or points, passed its order bound."""


class NotModular(HyperqError):
    """An atom table does not resolve to a hypergroupoid (unit resolution failed)."""


class DimensionMismatch(HyperqError):
    """Matrix shapes do not compose."""


class InfiniteCoefficient(HyperqError):
    """A finite coefficient was required but an infinite weight appeared."""


class ZeroWeight(HyperqError):
    """A weight that must be nonzero is zero."""


class NotSemisimple(HyperqError):
    """The hypergroupoid admits no simple factorization for some arrow."""

"""Exception types shared across the library."""


class NcvxError(Exception):
    """Base class for all library errors."""


class UsageError(NcvxError):
    """Bad arguments, malformed input, or an unsupported request."""


class DimensionMismatch(UsageError):
    pass


class DimensionCapExceeded(UsageError):
    pass


class ParseError(UsageError):
    pass


class EmptyPolyhedron(NcvxError):
    pass


class PointNotInSet(NcvxError):
    pass


class PointNotInGraph(NcvxError):
    pass


class NotNearlyConvex(NcvxError):
    pass


class InvalidEpigraph(NcvxError):
    """A set posing as an epigraph violates the vertical-ray or closed-slice rule."""


class EmptyDomain(NcvxError):
    pass


class ValueNotFinite(NcvxError):
    pass


class ImproperObjective(NcvxError):
    pass


class ImproperPerturbation(NcvxError):
    """The perturbation function of a duality scheme is improper."""


class EmptySolutionMap(NcvxError):
    pass


class QCViolated(NcvxError):
    """A qualification condition required by the requested operation fails."""


class CertificateError(NcvxError):
    """A certificate or an invariant checked by the engine failed; indicates a bug."""


class IdentityViolated(NcvxError):
    """An identity the engine asserts unconditionally failed; indicates a bug."""


class SamplingExhausted(NcvxError):
    """Rejection sampling for a random instance ran out of tries."""


class UnknownTheorem(UsageError):
    pass

"""Exception hierarchy. Everything raised on purpose derives from ConsensusError."""


class ConsensusError(Exception):
    """Base class for domain errors (CLI exit code 1)."""


class AsymmetricWeightError(ConsensusError):
    pass


class IndefiniteWeightError(ConsensusError):
    pass


class VertexOutOfRangeError(ConsensusError):
    pass


class InvalidPartitionError(ConsensusError):
    pass


class DimensionMismatchError(ConsensusError):
    pass


class NumericalFailureError(ConsensusError):
    pass


class AssumptionViolatedError(ConsensusError):
    pass


class DegenerateCouplingError(ConsensusError):
    pass


class ZeroThetaError(ConsensusError):
    pass


class NotContractingError(ConsensusError):
    pass


class NonFiniteError(ConsensusError):
    pass


class ScheduleExhaustedError(ConsensusError):
    pass


class FileFormatError(Exception):
    """Malformed input file (CLI exit code 2). Deliberately not a ConsensusError."""

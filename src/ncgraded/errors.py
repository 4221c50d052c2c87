"""Exception hierarchy shared by all ncgraded modules."""


class NcgError(Exception):
    """Base class for all errors raised by ncgraded."""


class FieldMismatch(NcgError):
    pass


class UnsupportedField(NcgError):
    pass


class NoSuchRoot(NcgError):
    pass


class NotInField(NcgError):
    pass


class NonHomogeneous(NcgError):
    pass


class TruncationTooLow(NcgError):
    pass


class DegreeBeyondTruncation(NcgError):
    pass


class WindowExceeded(NcgError):
    pass


class InvalidWindow(NcgError):
    pass


class InvalidDimension(NcgError):
    """A homological dimension d < 0 or degree i < 0, or a cluster-tilting order n < 1."""


class IncompleteKernel(NcgError):
    pass


class AlgebraMismatch(NcgError):
    pass


class InvalidAutomorphism(NcgError):
    pass


class ShapeMismatch(NcgError):
    pass


class NonSplitResidue(NcgError):
    pass


class FieldTooSmall(NcgError):
    pass


class NonSplit(NcgError):
    pass


class NotPeirce(NcgError):
    """The algebra's basis does not split its vertex idempotents' pieces."""


class NotQuadratic(NcgError):
    pass


class NotCentral(NcgError):
    pass


class NotStabilized(NcgError):
    pass


class NotCommutative(NcgError):
    pass


class NotSemisimple(NcgError):
    pass


class NotConnected(NcgError):
    pass


class ZeroAlgebra(NcgError):
    pass


class ParseError(NcgError):
    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line}, col {column}: {message}"
        super().__init__(message)


class UnknownReference(NcgError):
    pass

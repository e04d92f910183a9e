"""Exception types shared across the library.

The split matters for callers: ``EncodingError`` means the input bytes or
file could not even be parsed (CLI exit code 2), while cryptographic
rejects are reported through return values, never exceptions.
"""


class BlscesError(Exception):
    """Base class for all library errors."""


class ValidationError(BlscesError):
    """An argument violates a documented precondition."""


class EncodingError(BlscesError):
    """Bytes or a file do not decode to a well-formed object."""


class ProofTooLargeError(EncodingError):
    """A proof's header is longer than the parser's limit; it is
    rejected before it is parsed."""


class FileTooLargeError(EncodingError):
    """A file's text is longer than the parser's limit; it is rejected
    before it is parsed."""


class OffCurveError(ValidationError):
    """A point failed its curve-equation or subgroup check."""


class InvalidPublicKeyError(ValidationError):
    """A public key that parses but cannot be verified against: the G2
    identity pairs trivially with every message."""


class HashToCurveFailure(BlscesError):
    """Try-and-increment exhausted its counter bound."""


class DuplicateMessageError(ValidationError):
    """Aggregate verification was given a repeated message."""


class StatementError(BlscesError):
    """A constraint-system statement could not be built from the inputs."""


class ConstraintViolation(BlscesError):
    """A statement failed a constraint on the values the verifier
    regenerated; the message names the statement region that emitted
    it."""

"""Exception types shared across the package."""


class StreamMatchError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(StreamMatchError, ValueError):
    """A constructor or operation was given parameters outside its contract."""


class DomainError(StreamMatchError, ValueError):
    """A key, vertex id, or weight lies outside the declared domain."""


class ModelError(StreamMatchError, ValueError):
    """A stream operation is illegal for the current streaming model."""


class RecordError(StreamMatchError, ValueError):
    """Applying one stream record failed; ``index`` is its 0-based position
    in the record list."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


class StreamFormatError(StreamMatchError, ValueError):
    """A stream file is malformed.

    ``line_no`` is 1-based; it is 0 for file-level problems (missing
    header, no query record).
    """

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}" if line_no else message)
        self.line_no = line_no

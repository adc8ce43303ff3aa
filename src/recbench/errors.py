"""Exception types shared across the toolkit."""


class RecbenchError(Exception):
    """Base class for every error raised deliberately by this package."""


class ParseError(RecbenchError):
    """A data file could not be parsed.

    Carries the offending ``path`` and 1-based ``line`` so callers can point
    at the exact input row.
    """

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        location = ""
        if path is not None:
            location += f"{path}:"
        if line is not None:
            location += f"{line}:"
        super().__init__(f"{location} {message}" if location else message)
        self.path = path
        self.line = line


def decode_error(path) -> ParseError:
    """A ``ParseError`` locating the first bytes of the file ``path`` that
    are not valid UTF-8, by line and by byte offset from the file start."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        return ParseError(f"not valid UTF-8 at byte offset {exc.start}", path=str(path), line=line)
    return ParseError("not valid UTF-8", path=str(path))


class EmptyDatasetError(RecbenchError):
    """An input file contained no usable records."""


class ProtocolError(RecbenchError):
    """The holdout protocol cannot be applied to the given dataset."""


class ConfigurationError(RecbenchError):
    """Invalid configuration; the message enumerates every detected problem,
    after the configuration file's ``path`` when one is given."""

    def __init__(self, problems, path=None):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        message = "; ".join(self.problems)
        super().__init__(message if path is None else f"{path}: {message}")


class ColdStartError(RecbenchError):
    """A recommendation was requested for a user unknown to the model."""


class UndefinedMetricError(RecbenchError):
    """A metric has no defined value for the given input."""

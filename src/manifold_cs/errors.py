"""Shared exception types."""


class ResourceLimitError(RuntimeError):
    """An operation was refused because its projected cost exceeds the desk-scale budget."""


class CsvParseError(ValueError):
    """A CSV point-cloud file could not be parsed; carries the offending row number."""

    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row


class TooFewPointsError(ValueError):
    """A cloud has fewer points than a dictionary build needs to fit its planes."""


class FileFormatError(ValueError):
    """A dictionary/matrix container file is malformed or has an unknown version."""

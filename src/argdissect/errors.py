"""Exception hierarchy shared across the package.

All data-dependent failures derive from ``DataError`` so the CLI can map
them to a single exit code.
"""


class ArgdissectError(Exception):
    """Base class for all package errors."""


class DataError(ArgdissectError):
    """A problem with input data (malformed files, integrity violations)."""


class StandoffParseError(DataError):
    """Malformed standoff / layer file line."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class IntegrityError(DataError):
    """Cross-reference or surface-text mismatch between files."""


class OffsetError(IntegrityError):
    """A span's offsets fall outside its text or select other text than its surface."""


class AlignmentError(DataError):
    """Annotation layers do not line up (tree leaves vs. tokens, EAU vs. tokens)."""


class MissingLayerError(DataError):
    """A feature family was requested but its annotation layer is absent."""

    def __init__(self, layer: str):
        super().__init__(f"required annotation layer missing: {layer}")
        self.layer = layer


class ModelFormatError(ArgdissectError):
    """Model file is corrupt, truncated, or of an unsupported version."""

"""Typed exceptions raised across the package.

Every validation failure maps to one of these classes so callers (and the
CLI exit-code logic) can distinguish malformed inputs from internal bugs.
Each one pickles, so it reaches the CLI intact from a worker process.
"""


class MobilabelError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(MobilabelError):
    """Two rasters or label sets that must share dimensions do not."""


class SumMismatch(MobilabelError):
    """RLE counts do not sum to height * width."""


class EmptyTarget(MobilabelError):
    """Coverage requested against an empty target mask."""


class EmptyMask(MobilabelError):
    """An operation that needs foreground pixels got an all-zero mask."""


class NonPositiveDepth(MobilabelError):
    """A moving pixel has depth <= 0 or a non-finite value."""

    def __init__(self, row, col, value):
        super().__init__(f"depth {value!r} at pixel (row={row}, col={col}) is not a positive finite number")
        self.row = row
        self.col = col
        self.value = value

    def __reduce__(self):  # rebuild from the arguments, not the message
        return type(self), (self.row, self.col, self.value)


class InstanceInPadding(MobilabelError):
    """A transformed-space instance intersects the padded region."""


class MissingPredictions(MobilabelError):
    """A detector exchange lacks a prediction file for a requested frame."""

    def __init__(self, frame_id):
        super().__init__(f"no prediction file for frame {frame_id!r}")
        self.frame_id = frame_id

    def __reduce__(self):
        return type(self), (self.frame_id,)


class StageOrderViolation(MobilabelError):
    """A self-training stage was run before its prerequisite stage."""


class FrameMismatch(MobilabelError):
    """Prediction and ground-truth frame lists do not line up."""


class MissingAttribute(MobilabelError):
    """A ground-truth instance lacks a required attribute flag."""


class PlacementFailure(MobilabelError):
    """Synthetic scene generation could not place all objects."""


class FormatError(MobilabelError):
    """Base class for file-format validation failures."""


class BadMagic(FormatError):
    """A binary file does not start with the expected magic bytes."""


class BadHeader(FormatError):
    """A raster file header or overall structure is malformed."""


class TruncatedFile(FormatError):
    """A file ends before the declared payload."""


class NonFiniteValue(FormatError):
    """A raster file contains NaN or infinity."""


class SchemaViolation(FormatError):
    """A structured label file violates the schema."""

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.field_path = path
        self._message = message

    def __reduce__(self):
        return type(self), (self.field_path, self._message)


class RleSumMismatch(FormatError):
    """A label file contains an RLE whose counts do not sum to h*w."""


class BoxMaskInconsistency(FormatError):
    """A label file box is not the tight bounding box of its mask."""

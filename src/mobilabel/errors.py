"""Typed exceptions raised across the package, and the checks of settings.

Every validation failure maps to one of these classes so callers (and the
CLI exit-code logic) can distinguish malformed inputs from internal bugs.
Each one pickles, so it reaches the CLI intact from a worker process.

A setting is checked where it is built, by one rule per kind of value:
:func:`check_int` for counts and :func:`check_real` for thresholds,
fractions and lengths. Both raise ``ValueError`` (the CLI's usage error)
and refuse a bool; ``check_real`` also refuses NaN. A scale has its own
rule, (0, 1] with a finite reciprocal, in :func:`mobilabel.rescale.check_scale`,
which builds on ``check_real``. Neither check is exported: they serve the
config objects of the sibling modules.
"""

import math
import numbers

__all__ = [
    "MobilabelError",
    "DimensionMismatch",
    "EmptyTarget",
    "EmptyMask",
    "NonPositiveDepth",
    "InstanceInPadding",
    "MissingPredictions",
    "StageOrderViolation",
    "FrameMismatch",
    "UnsafeFrameId",
    "MissingAttribute",
    "PlacementFailure",
    "FormatError",
    "BadMagic",
    "BadHeader",
    "TruncatedFile",
    "NonFiniteValue",
    "SchemaViolation",
    "RleSumMismatch",
]


class MobilabelError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(MobilabelError):
    """Two rasters or label sets that must share dimensions do not."""


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
    """Frame ids do not line up: prediction against ground truth, a label
    file against its name, or a repeat within one frame list."""


class UnsafeFrameId(MobilabelError):
    """A frame id holds a path separator, so it cannot name a file."""


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
    """NaN or infinity where a format allows only finite numbers: in a
    raster file read, or in a raster or structured-text file to be written."""


class SchemaViolation(FormatError):
    """A structured label file violates the schema."""

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.field_path = path
        self._message = message

    def __reduce__(self):
        return type(self), (self.field_path, self._message)


class RleSumMismatch(FormatError):
    """RLE counts hold a negative run or do not sum to height * width."""


def check_int(name: str, value, low: int):
    """value, refused unless it is an integral number (numpy's too), not a bool, >= low."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    return value


def check_real(name: str, value, low: float, high: float = math.inf, ends: str = "[]"):
    """value, refused unless it is a real number (numpy's too) that a float can hold, not a
    bool or NaN, in the interval whose ends are written as in math: "(]" is (low, high];
    "[)" with no high, finite."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real) or not _fits_float(value)
            or not (low < value if ends[0] == "(" else low <= value)  # also false for NaN
            or not (value < high if ends[1] == ")" else value <= high)):
        raise ValueError(f"{name} must be a number in {ends[0]}{low}, {high}{ends[1]}, got {value!r}")
    return value


def _fits_float(value) -> bool:
    try:
        float(value)
    except OverflowError:  # an int (or fraction) beyond the float range
        return False
    return True

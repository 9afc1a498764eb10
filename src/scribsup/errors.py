"""Exception types shared across the toolkit, and the one rule for numeric settings.

Every numeric setting (SLIC, edge threshold, loss weights, network shape,
scribble margin, class counts) is checked by :func:`check_setting`, which
raises :class:`InvalidConfigError`, a ``ValueError`` that names the setting.
"""

import math
from numbers import Integral, Real


class ScribsupError(Exception):
    """Base class for all toolkit errors."""


class MalformedHeaderError(ScribsupError):
    """NIfTI header is structurally invalid (bad magic, size, or dims)."""


class UnsupportedDatatypeError(ScribsupError):
    """Voxel datatype outside the supported {uint8, int16, float32} set, or a
    file payload that the requested container refuses (the message names the file)."""


class UnsupportedScalingError(ScribsupError):
    """NIfTI header asks for intensity scaling (scl_slope/scl_inter)."""


class TruncatedDataError(ScribsupError):
    """File ends before the declared voxel payload."""


class ShapeMismatchError(ScribsupError, ValueError):
    """Two grids that must match differ in shape or spacing."""


class KTooLargeError(ScribsupError):
    """Requested cluster count exceeds the voxel count."""


class EmptyForegroundError(ScribsupError):
    """Ground truth contains no foreground class."""


class NoConfidentVoxelsError(ScribsupError):
    """Confidence mask is empty; partial cross-entropy is undefined."""


class InvalidConfigError(ScribsupError, ValueError):
    """Network or pipeline configuration violates its invariants."""


def check_setting(name: str, value, low, high=math.inf, integer: bool = False,
                  open_low: bool = False) -> None:
    """Raise InvalidConfigError unless ``value`` is a finite number in range.

    The range is ``low <= value < high`` (``low < value`` when ``open_low``).
    Bools, strings and other non-numbers, NaN and +-inf are refused; with
    ``integer`` only integers (numpy integers included) pass.
    """
    number = not isinstance(value, bool) and isinstance(value, Integral if integer else Real)
    if not (number and (isinstance(value, Integral) or math.isfinite(value))
            and (low < value if open_low else low <= value) and value < high):
        bound = f"> {low}" if open_low else f">= {low}"
        bound += f" and < {high}" if high < math.inf else ""
        kind = "an integer" if integer else "a finite number"
        raise InvalidConfigError(f"{name} must be {kind} {bound}, got {value!r}")


class BadPatchShapeError(ScribsupError):
    """Patch dims incompatible with the network's down/upsampling ladder."""

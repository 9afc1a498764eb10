"""Exception types shared across the toolkit."""


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


class InvalidConfigError(ScribsupError):
    """Network or pipeline configuration violates its invariants."""


class BadPatchShapeError(ScribsupError):
    """Patch dims incompatible with the network's down/upsampling ladder."""

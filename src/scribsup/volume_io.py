"""Every grid container of the toolkit and a minimal NIfTI-1 reader/writer.

All grids are indexed ``[x, y, z]`` with x varying fastest in the serialized
byte stream, matching the NIfTI voxel order. Spacing is physical, in
millimeters, one value per axis, positive and finite in float32 as every header
stores it. The reader/writer supports uncompressed single-file ``.nii`` only,
with datatype codes 2 (uint8), 4 (int16), 8 (int32) and 16 (float32);
qform/sform orientation is ignored and spacing is ``pixdim`` scaled to mm by
the spatial unit in ``xyzt_units``. Intensity scaling, a ``bitpix`` that does
not match ``datatype``, a length unit other than m, mm or micron and a
fractional ``vox_offset`` or one below 352 (bytes 348-351 hold the extension
flag) are rejected rather than ignored. A header with ``dim[0]=4`` and a
singleton fourth dimension is read as 3D.

Every grid container lives here and states only the values its grid may
hold; ``_own_array`` checks the array's ndim, stores a read-only copy the
container owns and checks the spacing for all of them, and
``_check_same_grid`` is the one place that decides whether two grids match.
A writable container lists its NIfTI datatypes for the writer (``_codes``); the reader makes the
container ``_KINDS`` names, and ``_refusal_names`` (the CLI's too) names the file in a refusal.
"""

from __future__ import annotations

import os
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field, replace
from typing import Tuple, Union

import numpy as np

from .errors import (
    BadPatchShapeError,
    InvalidConfigError,
    MalformedHeaderError,
    ShapeMismatchError,
    TruncatedDataError,
    UnsupportedDatatypeError,
    UnsupportedScalingError,
    check_setting,
)

__all__ = [
    "Volume",
    "LabelVolume",
    "BinaryVolume",
    "AnyVolume",
    "ProbVolume", "SupervoxelMap", "ScribbleSet", "PseudoLabels",
    "read_nifti",
    "write_nifti",
    "crop_or_pad",
]

# NIfTI-1 datatype codes supported by this subset.
DT_UINT8 = 2
DT_INT16 = 4
DT_INT32 = 8
DT_FLOAT32 = 16

_DTYPES = {
    DT_UINT8: np.dtype("<u1"),
    DT_INT16: np.dtype("<i2"),
    DT_INT32: np.dtype("<i4"),
    DT_FLOAT32: np.dtype("<f4"),
}

_HEADER_SIZE = 348
_VOX_OFFSET = 352
_MAGIC = b"n+1\x00"

_HEADER_DTYPE = np.dtype(
    [
        ("sizeof_hdr", "<i4"),
        ("data_type", "S10"),
        ("db_name", "S18"),
        ("extents", "<i4"),
        ("session_error", "<i2"),
        ("regular", "S1"),
        ("dim_info", "u1"),
        ("dim", "<i2", (8,)),
        ("intent_p1", "<f4"),
        ("intent_p2", "<f4"),
        ("intent_p3", "<f4"),
        ("intent_code", "<i2"),
        ("datatype", "<i2"),
        ("bitpix", "<i2"),
        ("slice_start", "<i2"),
        ("pixdim", "<f4", (8,)),
        ("vox_offset", "<f4"),
        ("scl_slope", "<f4"),
        ("scl_inter", "<f4"),
        ("slice_end", "<i2"),
        ("slice_code", "u1"),
        ("xyzt_units", "u1"),
        ("cal_max", "<f4"),
        ("cal_min", "<f4"),
        ("slice_duration", "<f4"),
        ("toffset", "<f4"),
        ("glmax", "<i4"),
        ("glmin", "<i4"),
        ("descrip", "S80"),
        ("aux_file", "S24"),
        ("qform_code", "<i2"),
        ("sform_code", "<i2"),
        ("quatern_b", "<f4"),
        ("quatern_c", "<f4"),
        ("quatern_d", "<f4"),
        ("qoffset_x", "<f4"),
        ("qoffset_y", "<f4"),
        ("qoffset_z", "<f4"),
        ("srow_x", "<f4", (4,)),
        ("srow_y", "<f4", (4,)),
        ("srow_z", "<f4", (4,)),
        ("intent_name", "S16"),
        ("magic", "S4"),
    ]
)
assert _HEADER_DTYPE.itemsize == _HEADER_SIZE


# every header stores spacing as float32; as Python floats, comparing with these casts nothing
_F32_LOW, _F32_HIGH = float(np.finfo(np.float32).smallest_subnormal), float(np.finfo(np.float32).max)


def _check_spacing(spacing) -> Tuple[float, float, float]:
    spacing = tuple(float(s) for s in spacing)
    if len(spacing) != 3 or not all(_F32_LOW <= s <= _F32_HIGH for s in spacing):  # NaN fails
        raise ValueError(f"spacing must be three positive values finite in float32, got {spacing}")
    return spacing


def _check_integers(data, limit, what: str, dtype) -> np.ndarray:
    """Cast ``data`` to ``dtype`` once it is known to hold only valid values.

    Valid values are finite, integral, nonnegative, below ``limit`` (which
    broadcasts against ``data``) and within ``dtype``, so the cast never
    truncates or wraps.
    """
    data = np.asarray(data)
    if data.dtype.kind == "f" and not (
        np.isfinite(data).all() and np.array_equal(data, np.trunc(data))
    ):
        raise ValueError(f"{what} must be integers")
    if data.size and data.min() < 0:
        raise ValueError(f"{what} must be nonnegative")
    top = np.iinfo(dtype).max
    over = (data >= limit) | (data > top)
    if over.any():
        raise ValueError(
            f"{what} must be below {limit} and at most {top}, got {int(data[over].max())}"
        )
    return data.astype(dtype, copy=False)


def _check_same_grid(a, b, what: str) -> None:
    """The one grid rule: ``a`` and ``b`` (named by ``what``) share shape and spacing exactly."""
    if (a.shape, a.spacing) != (b.shape, b.spacing):
        raise ShapeMismatchError(f"{what} lie on different grids: {a.shape} at {a.spacing} mm "
                                 f"vs {b.shape} at {b.spacing} mm")


def _normalize(data: np.ndarray) -> np.ndarray:
    """Min-max scale ``data`` to [0, 1] in float64; a constant volume maps to zeros."""
    data = data.astype(np.float64)
    lo, hi = float(data.min()), float(data.max())
    if hi <= lo:
        return np.zeros_like(data)
    return (data - lo) / (hi - lo)


def _own_array(grid, name: str, ndim: int, rule) -> None:
    """Store field ``name`` of ``grid``, which must be ``ndim``-D, as a read-only copy
    that ``grid`` owns, then check ``grid.spacing``. ``rule`` is the container's value
    rule: it raises on a bad value and returns the array to store (it may cast)."""
    data = np.asarray(getattr(grid, name))
    if data.ndim != ndim:
        raise ValueError(f"{type(grid).__name__} {name} must be {ndim}D, got {data.ndim}D")
    data = np.array(rule(data), order="C")  # own copy, so callers' buffers stay writable
    data.setflags(write=False)
    object.__setattr__(grid, name, data)
    object.__setattr__(grid, "spacing", _check_spacing(grid.spacing))


class _Grid:
    """A dense grid: its ``_ndim``-D array field ``_array`` passes the container's
    ``_values`` rule through ``_own_array``; ``shape`` is that array's first three axes."""

    _array, _ndim = "data", 3

    def __post_init__(self):
        _own_array(self, self._array, self._ndim, self._values)

    @property
    def shape(self) -> Tuple[int, int, int]:
        return getattr(self, self._array).shape[:3]


@dataclass(frozen=True)
class Volume(_Grid):
    """A 3D scalar intensity grid with per-axis physical spacing in mm.

    ``data`` is float32, shape ``(nx, ny, nz)``, indexed ``[x, y, z]``.
    Instances are immutable; the data buffer is marked read-only.
    """

    data: np.ndarray
    spacing: Tuple[float, float, float]
    _codes = (DT_FLOAT32,)

    def _values(self, data: np.ndarray) -> np.ndarray:
        data = data.astype(np.float32, copy=False)
        if not np.isfinite(data).all():
            raise ValueError("volume data must be finite everywhere")
        return data

    @property
    def voxel_volume_mm3(self) -> float:
        sx, sy, sz = self.spacing
        return sx * sy * sz


@dataclass(frozen=True)
class LabelVolume(_Grid):
    """Integer class-ID grid sharing a Volume's geometry.

    Values live in ``{0, ..., num_classes - 1}`` as uint16 (at most 65,535); class 0 is background.
    """

    data: np.ndarray
    spacing: Tuple[float, float, float]
    num_classes: int
    _codes = (DT_UINT8, DT_INT16, DT_INT32)  # labels stop at 65,535, so int32 holds them all

    def _values(self, data: np.ndarray) -> np.ndarray:
        check_setting("num_classes", self.num_classes, 2, integer=True)
        return _check_integers(data, self.num_classes, "labels", np.uint16)


@dataclass(frozen=True)
class BinaryVolume(_Grid):
    """A {0,1}-valued grid (masks, confidence maps, edge volumes)."""

    data: np.ndarray
    spacing: Tuple[float, float, float]
    _codes = (DT_UINT8,)

    def _values(self, data: np.ndarray) -> np.ndarray:
        if not ((data == 0) | (data == 1)).all():  # np.isin would cast to a float64 copy
            raise ValueError("binary volume values must be 0 or 1")
        return data.astype(np.uint8, copy=False)


AnyVolume = Union[Volume, LabelVolume, BinaryVolume]


# Slack on the per-voxel channel-sum check; loose enough that finite
# difference probes (step 1e-5) still construct valid instances.
_SUM_ATOL = 5e-5


def _check_probability_range(data: np.ndarray) -> None:
    """Raise ValueError unless every value of the non-empty ``data`` lies in [0, 1], within
    ``_SUM_ATOL``. The extremes compare as Python floats, so a float32 array tests exactly as
    its float64 cast would, with no cast made."""
    lo, hi = float(data.min()), float(data.max())  # NaN if any entry is NaN, which fails both tests
    if not (lo >= -_SUM_ATOL and hi <= 1.0 + _SUM_ATOL):
        raise ValueError("probabilities must lie in [0, 1]")


@dataclass(frozen=True)
class ProbVolume(_Grid):
    """Per-voxel per-class probabilities, shape (nx, ny, nz, channels).

    Multi-channel volumes must sum to 1 per voxel (softmax outputs);
    single-channel volumes are independent probability maps (sigmoid
    outputs) and skip the sum constraint.
    """

    data: np.ndarray
    spacing: Tuple[float, float, float]

    _ndim = 4

    def _values(self, data: np.ndarray) -> np.ndarray:
        data = data.astype(np.float64, copy=False)
        if data.size:
            _check_probability_range(data)
            if data.shape[3] >= 2 and np.abs(data.sum(axis=3) - 1.0).max() > _SUM_ATOL:
                raise ValueError("per-voxel channel sums must equal 1")
        return data

    @property
    def channels(self) -> int:
        return self.data.shape[3]


@dataclass(frozen=True)
class SupervoxelMap(_Grid):
    """Per-voxel supervoxel IDs forming a partition of the volume.

    IDs are contiguous in ``0..count-1`` and each occurs at least once, so
    ``count``, one more than the largest ID, is derived rather than passed.
    """

    ids: np.ndarray
    spacing: Tuple[float, float, float]
    count: int = field(init=False)
    _array = "ids"
    _codes = (DT_INT16, DT_INT32)  # never uint8, so old maps keep their bytes; IDs stay below 2**31

    def _values(self, ids: np.ndarray) -> np.ndarray:
        # every ID below count occurs, so each is below the voxel count (which bounds ``occurs``)
        ids = _check_integers(ids, ids.size, "supervoxel ids", np.int32)
        occurs = np.zeros(int(ids.max(initial=-1)) + 1, dtype=bool)
        occurs[ids] = True  # a scatter: no flat or int64 copy of the IDs
        if not occurs.all():
            raise ValueError("every supervoxel id must occur at least once")
        object.__setattr__(self, "count", len(occurs))
        return ids


@dataclass(frozen=True)
class ScribbleSet:
    """Sparse (voxel index, class ID) annotations on a host grid.

    ``indices`` is (K, 3) int; ``classes`` is (K,). A voxel index may not
    appear twice with conflicting classes.
    """

    indices: np.ndarray
    classes: np.ndarray
    num_classes: int
    shape: Tuple[int, int, int]
    spacing: Tuple[float, float, float]

    def __post_init__(self):
        shape = tuple(int(n) for n in self.shape)
        object.__setattr__(self, "shape", shape)
        check_setting("num_classes", self.num_classes, 2, integer=True)
        if np.shape(self.indices)[1:] != (3,):  # a (3, K) array is refused, not reinterpreted
            raise ValueError(f"scribble indices must have shape (K, 3), got {np.shape(self.indices)}")
        _own_array(self, "indices", 2, lambda idx: _check_integers(
            idx, np.asarray(shape), "scribble indices", np.int64))
        _own_array(self, "classes", 1, lambda cls: _check_integers(
            cls, self.num_classes, "scribble classes", np.uint16))
        idx, cls = self.indices, self.classes
        if len(idx) != len(cls):
            raise ValueError("indices and classes length mismatch")
        flat = idx[:, 0] * shape[1] * shape[2] + idx[:, 1] * shape[2] + idx[:, 2]
        order = np.argsort(flat, kind="stable")
        f, c = flat[order], cls[order]
        dup = f[1:] == f[:-1]
        if dup.any() and (c[1:][dup] != c[:-1][dup]).any():
            raise ValueError("conflicting classes at a shared voxel")

    def __len__(self) -> int:
        return len(self.classes)


@dataclass(frozen=True)
class PseudoLabels:
    """Dense pseudo mask plus the unique-label confidence mask."""

    mask: LabelVolume
    confident: BinaryVolume

    def __post_init__(self):
        _check_same_grid(self.mask, self.confident, "pseudo mask and confidence")


@contextmanager
def _refusal_names(path):
    """Re-raise a container's refusal of the values read from ``path``, or the network's
    refusal of its shape, as an error naming it."""
    try:
        yield
    except InvalidConfigError:  # a refused setting, such as a class count, is not the file's
        raise
    except (ValueError, OverflowError) as exc:
        raise UnsupportedDatatypeError(f"{path}: {exc}") from exc
    except BadPatchShapeError as exc:
        raise BadPatchShapeError(f"{path}: {exc}") from exc


def _parse_header(raw: bytes, path: str):
    if len(raw) < _HEADER_SIZE:
        raise MalformedHeaderError(f"{path}: file shorter than a NIfTI-1 header")
    hdr = np.frombuffer(raw[:_HEADER_SIZE], dtype=_HEADER_DTYPE)[0]
    if int(hdr["sizeof_hdr"]) != _HEADER_SIZE:
        raise MalformedHeaderError(
            f"{path}: sizeof_hdr is {int(hdr['sizeof_hdr'])}, expected 348 "
            "(big-endian or non-NIfTI file?)"
        )
    if raw[344:348] != _MAGIC:  # numpy S4 strips trailing nulls; check raw bytes
        raise MalformedHeaderError(f"{path}: bad magic {raw[344:348]!r}")
    dim = hdr["dim"]
    if int(dim[0]) != 3 and (int(dim[0]), int(dim[4])) != (4, 1):  # 4D with one frame is 3D
        raise MalformedHeaderError(f"{path}: dim[0] is {int(dim[0])}, dim[4] {int(dim[4])}; not 3D")
    shape = tuple(int(d) for d in dim[1:4])
    if any(d < 1 for d in shape):
        raise MalformedHeaderError(f"{path}: nonpositive dimension in {shape}")
    code = int(hdr["datatype"])
    if code not in _DTYPES:
        raise UnsupportedDatatypeError(f"{path}: datatype code {code} not supported")
    bits = 8 * _DTYPES[code].itemsize
    if int(hdr["bitpix"]) != bits:
        raise MalformedHeaderError(
            f"{path}: bitpix is {int(hdr['bitpix'])}, datatype code {code} needs {bits}"
        )
    spacing = tuple(float(p) for p in hdr["pixdim"][1:4])  # the container checks the scaled spacing
    units = int(hdr["xyzt_units"]) & 7  # spatial unit: 0 unknown (read as mm), 1 m, 2 mm, 3 micron
    if units > 3:
        raise MalformedHeaderError(f"{path}: xyzt_units spatial code {units} is not a length unit")
    spacing = tuple(s * 1000.0 if units == 1 else s / 1000.0 if units == 3 else s for s in spacing)
    vox_offset = float(hdr["vox_offset"])
    # bytes 348-351 hold the extension flag, so the payload starts at 352 or later
    if not (vox_offset.is_integer() and vox_offset >= _VOX_OFFSET):  # also refuses NaN and +-inf
        raise MalformedHeaderError(f"{path}: vox_offset {vox_offset} is not a whole number >= 352")
    # NIfTI-1: scl_slope 0 means unscaled; any other slope scales every voxel.
    slope, inter = float(hdr["scl_slope"]), float(hdr["scl_inter"])
    if slope != 0.0 and (slope != 1.0 or inter != 0.0):
        raise UnsupportedScalingError(
            f"{path}: scl_slope {slope} / scl_inter {inter} scaling is not supported"
        )
    return shape, spacing, code, int(vox_offset)


# each ``kind`` of ``read_nifti`` and its container; a label file's class count is its top label's,
# and ``auto`` reads a float file as an image and an integer file as labels
_KINDS = {"image": Volume, "binary": BinaryVolume, "supervoxels": SupervoxelMap,
          "labels": lambda data, spacing: LabelVolume(data, spacing, max(2, int(data.max()) + 1)),
          "auto": lambda data, spacing: _KINDS["image" if data.dtype.kind == "f" else "labels"](
              data, spacing)}


def read_nifti(path, kind: str = "auto") -> AnyVolume:
    """Read an uncompressed single-file NIfTI-1 volume.

    Args:
        path: Path to a ``.nii`` file.
        kind: a key of ``_KINDS``: ``"image"``, ``"labels"``, ``"binary"`` or
            ``"supervoxels"`` forces its container; ``"auto"`` reads a float file
            as ``"image"`` and an integer file as ``"labels"``.

    Returns:
        Volume, LabelVolume, BinaryVolume or SupervoxelMap; spacing in mm (``xyzt_units``).

    Raises:
        MalformedHeaderError: bad magic, size, dims, bitpix, spatial unit
            (``xyzt_units``), or a vox_offset that is not a whole number >= 352.
        UnsupportedDatatypeError: datatype outside {uint8, int16, int32, float32},
            or a payload or spacing the requested container refuses (a pixdim
            that is not positive and finite in float32 once scaled to mm).
        UnsupportedScalingError: scl_slope/scl_inter other than unscaled.
        TruncatedDataError: payload shorter than the header declares.
    """
    if kind not in _KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    with open(path, "rb") as fh:
        raw = fh.read()
    shape, spacing, code, vox_offset = _parse_header(raw, str(path))
    dtype, n = _DTYPES[code], int(np.prod(shape))
    end = vox_offset + n * dtype.itemsize
    if len(raw) < end:
        raise TruncatedDataError(f"{path}: expected {end} bytes, file has {len(raw)}")
    # a view of the file's bytes: the payload is not copied before a container owns it
    data = np.frombuffer(raw, dtype, count=n, offset=vox_offset).reshape(shape, order="F")
    with _refusal_names(path):
        return _KINDS[kind](data, spacing)


def _storage_code(vol) -> int:
    """The first of the container's datatypes, narrowest first, that holds its largest value."""
    if not getattr(vol, "_codes", ()):
        raise TypeError(f"cannot write object of type {type(vol).__name__}")
    *narrow, widest = vol._codes
    peak = int(getattr(vol, vol._array).max(initial=0)) if narrow else 0
    return next((c for c in narrow if peak <= np.iinfo(_DTYPES[c]).max), widest)


def write_nifti(vol: Union[AnyVolume, SupervoxelMap], path) -> None:
    """Write a volume as uncompressed NIfTI-1 (352-byte header + raw voxels).

    The datatype is the first of the container's ``_codes`` (narrowest first) that holds its
    largest value, so widths come from the values alone. Little-endian, x varying fastest.
    """
    code = _storage_code(vol)
    dtype = _DTYPES[code]
    hdr = np.zeros((), dtype=_HEADER_DTYPE)
    hdr["sizeof_hdr"] = _HEADER_SIZE
    hdr["dim"] = [3, *vol.shape, 1, 1, 1, 1]
    hdr["datatype"] = code
    hdr["bitpix"] = dtype.itemsize * 8
    hdr["pixdim"] = [1.0, *vol.spacing, 0.0, 0.0, 0.0, 0.0]
    hdr["vox_offset"] = _VOX_OFFSET
    hdr["scl_slope"] = 1.0
    hdr["xyzt_units"] = 2  # millimeters
    hdr["magic"] = _MAGIC
    payload = np.asarray(getattr(vol, vol._array), dtype=dtype).tobytes(order="F")
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.write(hdr.tobytes())
            fh.write(b"\x00" * (_VOX_OFFSET - _HEADER_SIZE))
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:  # a failed write leaves no temp file behind
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def crop_or_pad(vol: AnyVolume, target_shape) -> AnyVolume:
    """Centre-crop and/or zero-pad a volume to ``target_shape``.

    The source is centred on the output grid: source voxel (0,0,0) lands at
    index ``int((t - s) / 2)`` per axis, the offset rounded toward zero
    (negative where the axis is cropped). Voxels outside the source are
    zero; spacing is unchanged. Any positive target shape is valid.
    """
    target_shape = tuple(int(t) for t in target_shape)
    if len(target_shape) != 3 or any(t <= 0 for t in target_shape):
        raise ValueError(f"target shape must be three positive ints, got {target_shape}")
    src = vol.data
    origin = tuple(int((t - s) / 2) for t, s in zip(target_shape, src.shape))  # toward zero
    out = np.zeros(target_shape, dtype=src.dtype)
    # the overlap in source indices; centring leaves at least min(s, t) voxels per axis
    src_box = tuple(slice(max(0, -o), min(s, t - o))
                    for s, t, o in zip(src.shape, target_shape, origin))
    out[tuple(slice(b.start + o, b.stop + o) for b, o in zip(src_box, origin))] = src[src_box]
    return replace(vol, data=out)

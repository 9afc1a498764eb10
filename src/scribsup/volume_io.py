"""Every grid container of the toolkit and a minimal NIfTI-1 reader/writer.

All grids are indexed ``[x, y, z]`` with x varying fastest in the serialized
byte stream, matching the NIfTI voxel order. Spacing is physical, in
millimeters, one value per axis. The reader/writer supports uncompressed
single-file ``.nii`` only, with datatypes uint8 (code 2), int16 (code 4) and
float32 (code 16); qform/sform orientation is ignored and spacing is taken
from ``pixdim`` alone. Intensity scaling (``scl_slope``/``scl_inter``) is
rejected rather than ignored, and so is a ``bitpix`` that does not match
``datatype``. A header with ``dim[0]=4`` and a singleton fourth dimension
is read as 3D.

Every grid container lives here and states only the values its grid may
hold; ``_own_array`` checks the array's ndim, stores a read-only copy the
container owns and checks the spacing for all of them, and
``_check_same_grid`` is the one place that decides whether two grids match.
The reader passes the payload straight to the requested container and raises
``UnsupportedDatatypeError``, naming the file, when the container refuses it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Optional, Tuple, Union

import numpy as np

from .errors import (
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
DT_FLOAT32 = 16

_DTYPES = {
    DT_UINT8: np.dtype("<u1"),
    DT_INT16: np.dtype("<i2"),
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


def _check_spacing(spacing) -> Tuple[float, float, float]:
    spacing = tuple(float(s) for s in spacing)
    if len(spacing) != 3 or not all(np.isfinite(s) and s > 0 for s in spacing):
        raise ValueError(f"spacing must be three finite positive values, got {spacing}")
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

    Values live in ``{0, ..., num_classes - 1}``; class 0 is background.
    ``storage_datatype`` optionally pins the on-disk NIfTI datatype code so
    a read/write round-trip preserves the source byte layout.
    """

    data: np.ndarray
    spacing: Tuple[float, float, float]
    num_classes: int
    storage_datatype: Optional[int] = field(default=None, compare=False)

    def _values(self, data: np.ndarray) -> np.ndarray:
        check_setting("num_classes", self.num_classes, 2, integer=True)
        if self.storage_datatype not in (None, DT_UINT8, DT_INT16):
            raise UnsupportedDatatypeError(
                f"labels cannot be stored as datatype code {self.storage_datatype}"
            )
        return _check_integers(data, self.num_classes, "labels", np.uint16)


@dataclass(frozen=True)
class BinaryVolume(_Grid):
    """A {0,1}-valued grid (masks, confidence maps, edge volumes)."""

    data: np.ndarray
    spacing: Tuple[float, float, float]

    def _values(self, data: np.ndarray) -> np.ndarray:
        if not np.isin(data, (0, 1)).all():
            raise ValueError("binary volume values must be 0 or 1")
        return data.astype(np.uint8, copy=False)


AnyVolume = Union[Volume, LabelVolume, BinaryVolume]


# Slack on the per-voxel channel-sum check; loose enough that finite
# difference probes (step 1e-5) still construct valid instances.
_SUM_ATOL = 5e-5


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
            lo, hi = data.min(), data.max()  # NaN if any entry is NaN, which fails both tests
            if not (lo >= -_SUM_ATOL and hi <= 1.0 + _SUM_ATOL):
                raise ValueError("probabilities must lie in [0, 1]")
            if data.shape[3] >= 2 and np.abs(data.sum(axis=3) - 1.0).max() > _SUM_ATOL:
                raise ValueError("per-voxel channel sums must equal 1")
        return data

    @property
    def channels(self) -> int:
        return self.data.shape[3]


@dataclass(frozen=True)
class SupervoxelMap(_Grid):
    """Per-voxel supervoxel IDs forming a partition of the volume.

    IDs are contiguous in ``0..count-1`` and each occurs at least once.
    """

    ids: np.ndarray
    spacing: Tuple[float, float, float]
    count: int
    _array = "ids"

    def _values(self, ids: np.ndarray) -> np.ndarray:
        ids = _check_integers(ids, self.count, "supervoxel ids", np.int32)
        if ids.size and (np.bincount(ids.ravel(), minlength=self.count) == 0).any():
            raise ValueError("every supervoxel id must occur at least once")
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
        _own_array(self, "indices", 2, lambda idx: _check_integers(
            idx.reshape(-1, 3), np.asarray(shape), "scribble indices", np.int64))
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
    spacing = tuple(float(p) for p in hdr["pixdim"][1:4])
    if not all(np.isfinite(s) and s > 0 for s in spacing):
        raise MalformedHeaderError(f"{path}: nonpositive pixdim {spacing}")
    vox_offset = float(hdr["vox_offset"])
    if not (np.isfinite(vox_offset) and vox_offset >= _HEADER_SIZE):
        raise MalformedHeaderError(f"{path}: vox_offset {vox_offset} is not a finite value >= 348")
    # NIfTI-1: scl_slope 0 means unscaled; any other slope scales every voxel.
    slope, inter = float(hdr["scl_slope"]), float(hdr["scl_inter"])
    if slope != 0.0 and (slope != 1.0 or inter != 0.0):
        raise UnsupportedScalingError(
            f"{path}: scl_slope {slope} / scl_inter {inter} scaling is not supported"
        )
    return shape, spacing, code, int(vox_offset)


def read_nifti(path, kind: str = "auto") -> AnyVolume:
    """Read an uncompressed single-file NIfTI-1 volume.

    Args:
        path: Path to a ``.nii`` file.
        kind: One of ``"auto"``, ``"image"``, ``"labels"``, ``"binary"``.
            ``auto`` maps float32 files to :class:`Volume` and integer files
            to :class:`LabelVolume`; the explicit kinds force a container.

    Returns:
        Volume, LabelVolume, or BinaryVolume depending on ``kind``/datatype.

    Raises:
        MalformedHeaderError: bad magic, size, dims, bitpix, pixdim or
            vox_offset.
        UnsupportedDatatypeError: datatype outside {uint8, int16, float32},
            or a payload the requested container refuses.
        UnsupportedScalingError: scl_slope/scl_inter other than unscaled.
        TruncatedDataError: payload shorter than the header declares.
    """
    if kind not in ("auto", "image", "labels", "binary"):
        raise ValueError(f"unknown kind {kind!r}")
    with open(path, "rb") as fh:
        raw = fh.read()
    shape, spacing, code, vox_offset = _parse_header(raw, str(path))
    dtype = _DTYPES[code]
    nbytes = int(np.prod(shape)) * dtype.itemsize
    if len(raw) < vox_offset + nbytes:
        raise TruncatedDataError(
            f"{path}: expected {vox_offset + nbytes} bytes, file has {len(raw)}"
        )
    flat = np.frombuffer(raw[vox_offset : vox_offset + nbytes], dtype=dtype)
    data = flat.reshape(shape, order="F")
    try:
        if kind == "binary":
            return BinaryVolume(data, spacing)
        if kind == "labels" or (kind == "auto" and code != DT_FLOAT32):
            # float labels have no integer width to keep; the writer picks one
            storage = None if code == DT_FLOAT32 else code
            return LabelVolume(data, spacing, max(2, int(data.max()) + 1), storage)
        return Volume(data, spacing)
    except (ValueError, OverflowError) as exc:
        raise UnsupportedDatatypeError(f"{path}: {exc}") from exc


def _storage_code(vol) -> int:
    if isinstance(vol, Volume):
        return DT_FLOAT32
    if isinstance(vol, BinaryVolume):
        return DT_UINT8
    if isinstance(vol, SupervoxelMap):  # IDs run 0..count-1
        peak, code = vol.count - 1, DT_INT16
    elif isinstance(vol, LabelVolume):
        peak = int(vol.data.max()) if vol.data.size else 0
        code = vol.storage_datatype or (DT_UINT8 if peak <= 255 else DT_INT16)
    else:
        raise TypeError(f"cannot write object of type {type(vol).__name__}")
    if peak > np.iinfo(_DTYPES[code]).max:
        raise UnsupportedDatatypeError(f"label value {peak} does not fit datatype code {code}")
    return code


def write_nifti(vol: Union[AnyVolume, SupervoxelMap], path) -> None:
    """Write a volume as uncompressed NIfTI-1 (352-byte header + raw voxels).

    Volume data is stored as float32, BinaryVolume as uint8, LabelVolume as
    uint8 or int16 (honoring ``storage_datatype`` when set) and a
    SupervoxelMap's IDs as int16; a value that does not fit fails before any
    byte is written. Output is little-endian with x varying fastest.
    """
    code = _storage_code(vol)
    data = vol.ids if isinstance(vol, SupervoxelMap) else vol.data
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
    payload = np.asarray(data, dtype=dtype).tobytes(order="F")
    tmp = f"{path}.tmp{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(hdr.tobytes())
        fh.write(b"\x00" * (_VOX_OFFSET - _HEADER_SIZE))
        fh.write(payload)
    os.replace(tmp, path)


def crop_or_pad(vol: AnyVolume, target_shape, origin="center") -> AnyVolume:
    """Crop and/or zero-pad a volume to ``target_shape``.

    ``origin`` places source voxel (0,0,0) at that index of the output grid
    (may be negative, which crops). ``"center"`` centers the overlap,
    rounding the offset toward zero. Voxels outside the source are zero;
    spacing is unchanged. Total function: any target and origin are valid.
    """
    target_shape = tuple(int(t) for t in target_shape)
    if len(target_shape) != 3 or any(t <= 0 for t in target_shape):
        raise ValueError(f"target shape must be three positive ints, got {target_shape}")
    src = vol.data
    if origin == "center":
        origin = tuple(int((t - s) / 2) for t, s in zip(target_shape, src.shape))  # toward zero
    else:
        origin = tuple(int(o) for o in origin)
        if len(origin) != 3:
            raise ValueError("origin must have three components")

    out = np.zeros(target_shape, dtype=src.dtype)
    # the overlap in source indices; an axis without overlap gives an empty slice
    src_box = tuple(slice(max(0, -o), max(0, -o, min(s, t - o)))
                    for s, t, o in zip(src.shape, target_shape, origin))
    out[tuple(slice(b.start + o, b.stop + o) for b, o in zip(src_box, origin))] = src[src_box]
    return replace(vol, data=out)

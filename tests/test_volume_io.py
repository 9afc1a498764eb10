import dataclasses
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import datatype_and_bitpix, traced_peak_volumes
from scribsup.errors import (
    MalformedHeaderError,
    ScribsupError,
    TruncatedDataError,
    UnsupportedDatatypeError,
    UnsupportedScalingError,
)
from scribsup.volume_io import (
    DT_FLOAT32,
    DT_INT16,
    DT_INT32,
    DT_UINT8,
    BinaryVolume,
    LabelVolume,
    Volume,
    _normalize,
    crop_or_pad,
    read_nifti,
    write_nifti,
)
from scribsup.losses import ProbVolume
from scribsup.scribble_sim import ScribbleSet
from scribsup.supervoxel import SupervoxelMap


def _patched_file(tmp_path, patches, name="patched.nii"):
    """A 2x2x2 float32 zero volume with ``{offset: bytes}`` written over its file bytes."""
    path = tmp_path / name
    write_nifti(Volume(np.zeros((2, 2, 2), dtype=np.float32), (1, 1, 1)), path)
    raw = bytearray(path.read_bytes())
    for offset, value in patches.items():
        raw[offset : offset + len(value)] = value
    path.write_bytes(bytes(raw))
    return path


def test_read_zero_volume_with_anisotropic_spacing(tmp_path):
    vol = Volume(np.zeros((4, 4, 4), dtype=np.float32), (1.5, 1.5, 6.0))
    path = tmp_path / "zeros.nii"
    write_nifti(vol, path)
    back = read_nifti(path)
    assert isinstance(back, Volume)
    assert back.shape == (4, 4, 4)
    assert back.spacing == pytest.approx((1.5, 1.5, 6.0))
    assert np.array_equal(back.data, vol.data)


# the labels each integer width holds that the next narrower one does not
_WIDTH_VALUES = {DT_UINT8: (0, 256), DT_INT16: (256, 32768), DT_INT32: (32768, 65536)}


@pytest.mark.parametrize("code", [DT_UINT8, DT_INT16, DT_INT32, DT_FLOAT32])
def test_read_write_data_section_byte_identical(tmp_path, rng, code):
    shape = (5, 3, 4)
    src = tmp_path / "src.nii"
    if code == DT_FLOAT32:
        write_nifti(Volume(rng.random(shape).astype("<f4"), (1, 1, 1)), src)
    else:  # values that need this width, which the writer picks from them
        low, high = _WIDTH_VALUES[code]
        write_nifti(LabelVolume(rng.integers(low, high, size=shape), (1, 1, 1), high), src)
    assert datatype_and_bitpix(src)[0] == code
    round_tripped = tmp_path / "round.nii"
    write_nifti(read_nifti(src), round_tripped)
    assert src.read_bytes()[352:] == round_tripped.read_bytes()[352:]


@pytest.mark.parametrize("peak, code, bitpix", [
    (255, DT_UINT8, 8), (256, DT_INT16, 16), (300, DT_INT16, 16), (32767, DT_INT16, 16),
    (32768, DT_INT32, 32), (40000, DT_INT32, 32), (65535, DT_INT32, 32),
])
def test_large_labels_use_the_narrowest_width_that_holds_the_largest(tmp_path, peak, code, bitpix):
    data = np.arange(24).reshape((2, 3, 4)) * (peak // 23)
    data[1, 2, 3] = peak
    path = tmp_path / "labels.nii"
    write_nifti(LabelVolume(data, (1.0, 2.0, 3.0), peak + 1), path)
    assert datatype_and_bitpix(path) == (code, bitpix)
    assert path.stat().st_size == 352 + bitpix // 8 * data.size
    back = read_nifti(path, kind="labels")
    assert np.array_equal(back.data, data) and back.num_classes == peak + 1
    assert back.spacing == (1.0, 2.0, 3.0)


@pytest.mark.parametrize("code, stored", [(DT_INT16, "<i2"), (DT_INT32, "<i4")])
def test_a_wide_label_file_is_rewritten_in_the_narrowest_width(tmp_path, code, stored):
    labels = (np.arange(8) * 30).astype(stored)  # 0..210, all below 256
    header = np.array([code, 8 * np.dtype(stored).itemsize], "<i2").tobytes()  # datatype, bitpix
    path = _patched_file(tmp_path, {70: header, 352: labels.tobytes()})
    back = read_nifti(path, kind="labels")
    assert np.array_equal(back.data, labels.reshape((2, 2, 2), order="F"))
    write_nifti(back, tmp_path / "narrow.nii")
    assert datatype_and_bitpix(tmp_path / "narrow.nii") == (DT_UINT8, 8)
    assert np.array_equal(read_nifti(tmp_path / "narrow.nii", kind="labels").data, back.data)


def test_a_failed_write_raises_and_leaves_no_temp_file(tmp_path):
    """The temp file is written beside the target; replacing a directory with it fails."""
    target = tmp_path / "out.nii"
    target.mkdir()
    with pytest.raises(IsADirectoryError):
        write_nifti(Volume(np.zeros((2, 2, 2), dtype=np.float32), (1, 1, 1)), target)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.nii"]
    assert target.is_dir() and not any(target.iterdir())


def test_dim0_not_3_is_malformed(tmp_path):
    path = tmp_path / "ok.nii"
    write_nifti(Volume(np.zeros((2, 2, 2), dtype=np.float32), (1, 1, 1)), path)
    raw = bytearray(path.read_bytes())
    raw[40:42] = (2).to_bytes(2, "little")  # dim[0]
    bad = tmp_path / "bad.nii"
    bad.write_bytes(bytes(raw))
    with pytest.raises(MalformedHeaderError):
        read_nifti(bad)


def test_singleton_fourth_dim_reads_as_3d(tmp_path):
    four_d = {40: (4).to_bytes(2, "little"), 48: (1).to_bytes(2, "little")}  # dim[0], dim[4]
    vol = read_nifti(_patched_file(tmp_path, four_d))
    assert vol.shape == (2, 2, 2) and np.array_equal(vol.data, np.zeros((2, 2, 2)))
    for patch in ({**four_d, 48: (2).to_bytes(2, "little")}, {40: (5).to_bytes(2, "little")}):
        with pytest.raises(MalformedHeaderError):
            read_nifti(_patched_file(tmp_path, patch))


# 348-351 would read the extension flag (bytes 348-351) as the first voxel
@pytest.mark.parametrize("offset", [float("nan"), float("inf"), float("-inf"), 348.0, 351.0])
def test_non_finite_vox_offset_is_malformed(tmp_path, offset):
    path = _patched_file(tmp_path, {108: np.float32(offset).tobytes()})
    with pytest.raises(MalformedHeaderError, match=re.escape(str(path))):
        read_nifti(path)


def test_fractional_vox_offset_is_malformed(tmp_path):
    # int() used to truncate 352.5 and read the payload from byte 352
    path = _patched_file(tmp_path, {108: np.float32(352.5).tobytes()})
    with pytest.raises(MalformedHeaderError, match="352.5"):
        read_nifti(path)


_AS_MM, _M_AS_MM, _UM_AS_MM = (1.25, 2.0, 1000.0), (1250.0, 2000.0, 1e6), (0.00125, 0.002, 1.0)


# xyzt_units (byte 123): the low three bits are the spatial unit, the rest time
@pytest.mark.parametrize("units, spacing_mm", [
    (0, _AS_MM), (1, _M_AS_MM), (2, _AS_MM), (3, _UM_AS_MM),
    (2 | 8, _AS_MM), (1 | 16, _M_AS_MM), (3 | 24, _UM_AS_MM),
], ids=["unknown", "metre", "mm", "micron", "mm_seconds", "metre_ms", "micron_us"])
def test_spacing_is_scaled_to_mm_by_the_spatial_unit(tmp_path, units, spacing_mm):
    pixdim = np.array(_AS_MM, dtype="<f4").tobytes()  # pixdim[1..3]
    path = _patched_file(tmp_path, {80: pixdim, 123: bytes([units])})
    for kind in ("image", "labels", "binary"):
        assert read_nifti(path, kind=kind).spacing == spacing_mm


@pytest.mark.parametrize("units", [4, 5, 6, 7, 4 | 8])
def test_spatial_unit_other_than_a_length_is_malformed(tmp_path, units):
    path = _patched_file(tmp_path, {123: bytes([units])})
    with pytest.raises(MalformedHeaderError, match=re.escape(str(path))):
        read_nifti(path)


@pytest.mark.parametrize("units, pixdim", [
    (1, 1e36), (3, 1e-44), (2, 0.0), (2, -1.0), (2, np.nan), (2, np.inf),
], ids=["metre", "micron", "zero", "negative", "nan", "inf"])
def test_spacing_float32_cannot_hold_after_unit_scaling_is_refused(tmp_path, units, pixdim):
    # 1e36 m is 1e39 mm, and 1e-44 micron 1e-47 mm: neither is writable back as a float32
    # pixdim. The header checks no pixdim itself: the containers' spacing rule names each.
    path = _patched_file(tmp_path, {80: np.float32(pixdim).tobytes(), 123: bytes([units])})
    rule = re.escape(f"{path}: spacing must be three positive values finite in float32")
    for kind in ("auto", "image", "labels", "binary", "supervoxels"):
        with pytest.raises(UnsupportedDatatypeError, match=rule):
            read_nifti(path, kind=kind)


def test_bad_magic_and_bad_size(tmp_path):
    path = tmp_path / "ok.nii"
    write_nifti(Volume(np.zeros((2, 2, 2), dtype=np.float32), (1, 1, 1)), path)
    raw = bytearray(path.read_bytes())
    broken = bytearray(raw)
    broken[344:348] = b"ni1\x00"
    bad = tmp_path / "magic.nii"
    bad.write_bytes(bytes(broken))
    with pytest.raises(MalformedHeaderError):
        read_nifti(bad)
    broken = bytearray(raw)
    broken[0:4] = (349).to_bytes(4, "little")
    bad.write_bytes(bytes(broken))
    with pytest.raises(MalformedHeaderError):
        read_nifti(bad)


def test_file_shorter_than_a_header_is_malformed(tmp_path):
    path = tmp_path / "short.nii"
    path.write_bytes(_patched_file(tmp_path, {}).read_bytes()[:347])
    with pytest.raises(MalformedHeaderError, match="shorter than a NIfTI-1 header"):
        read_nifti(path)


def test_unknown_kind_is_refused(tmp_path):
    path = _patched_file(tmp_path, {})
    assert read_nifti(path, kind="image").shape == (2, 2, 2)
    with pytest.raises(ValueError, match="unknown kind 'volume'"):
        read_nifti(path, kind="volume")


def test_unsupported_datatype(tmp_path):
    path = tmp_path / "ok.nii"
    write_nifti(Volume(np.zeros((2, 2, 2), dtype=np.float32), (1, 1, 1)), path)
    raw = bytearray(path.read_bytes())
    raw[70:72] = (64).to_bytes(2, "little")  # float64
    bad = tmp_path / "dt.nii"
    bad.write_bytes(bytes(raw))
    with pytest.raises(UnsupportedDatatypeError):
        read_nifti(bad)


def test_truncated_payload(tmp_path):
    path = tmp_path / "ok.nii"
    write_nifti(Volume(np.ones((4, 4, 4), dtype=np.float32), (1, 1, 1)), path)
    raw = path.read_bytes()
    bad = tmp_path / "short.nii"
    bad.write_bytes(raw[:-8])
    with pytest.raises(TruncatedDataError):
        read_nifti(bad)


def test_label_roundtrip_preserves_values_and_classcount(tmp_path, rng):
    data = rng.integers(0, 7, size=(6, 5, 4)).astype(np.uint16)
    data.flat[0] = 6  # pin the max so the class count is stable
    lab = LabelVolume(data, (1.0, 2.0, 3.0), 7)
    path = tmp_path / "lab.nii"
    write_nifti(lab, path)
    back = read_nifti(path, kind="labels")
    assert isinstance(back, LabelVolume)
    assert np.array_equal(back.data, lab.data)
    assert back.num_classes == 7


def test_binary_roundtrip(tmp_path, rng):
    mask = BinaryVolume((rng.random((4, 4, 4)) > 0.5).astype(np.uint8), (1, 1, 2))
    path = tmp_path / "mask.nii"
    write_nifti(mask, path)
    back = read_nifti(path, kind="binary")
    assert isinstance(back, BinaryVolume)
    assert np.array_equal(back.data, mask.data)


def test_labels_range_checked_before_uint16_narrowing(tmp_path):
    data = np.zeros((2, 2, 2), dtype=np.int64)
    data[0, 0, 0] = 70000
    with pytest.raises(ValueError, match="70000"):
        LabelVolume(data, (1, 1, 1), 80000)
    data[0, 0, 0] = 65535
    assert LabelVolume(data, (1, 1, 1), 80000).data[0, 0, 0] == 65535
    # float32 label files reach the same check, and name the file when they fail it
    for bad in (70000.0, np.inf):
        path = _patched_file(tmp_path, {352: np.float32(bad).tobytes()})
        with pytest.raises(UnsupportedDatatypeError, match=re.escape(str(path))):
            read_nifti(path, kind="labels")


def test_labels_must_be_integral():
    with pytest.raises(ValueError, match="integer"):
        LabelVolume(np.full((2, 2, 2), 1.5), (1, 1, 1), 3)
    with pytest.raises(ValueError, match="integer"):
        LabelVolume(np.full((2, 2, 2), np.nan), (1, 1, 1), 3)
    assert LabelVolume(np.full((2, 2, 2), 2.0), (1, 1, 1), 3).data[0, 0, 0] == 2


@pytest.mark.parametrize("kind, value", [("image", np.nan), ("auto", np.inf), ("binary", 2.0)])
def test_payload_the_container_refuses_names_the_file(tmp_path, kind, value):
    path = _patched_file(tmp_path, {352: np.float32(value).tobytes()})
    with pytest.raises(UnsupportedDatatypeError, match=re.escape(str(path))):
        read_nifti(path, kind=kind)


def _with_scaling(tmp_path, slope: float, inter: float):
    path = tmp_path / "three.nii"
    write_nifti(Volume(np.full((2, 2, 2), 3.0, dtype=np.float32), (1, 1, 1)), path)
    raw = bytearray(path.read_bytes())
    raw[112:116] = np.float32(slope).tobytes()  # scl_slope
    raw[116:120] = np.float32(inter).tobytes()  # scl_inter
    scaled = tmp_path / "scaled.nii"
    scaled.write_bytes(bytes(raw))
    return scaled


def test_intensity_scaling_is_rejected_not_ignored(tmp_path):
    # slope 2, intercept 1 declares 7.0 for the stored 3.0
    for slope, inter in ((2.0, 1.0), (1.0, 0.5), (float("nan"), 0.0)):
        path = _with_scaling(tmp_path, slope, inter)
        with pytest.raises(UnsupportedScalingError, match=str(path)):
            read_nifti(path)
    # NIfTI-1: a zero slope means the data are not scaled
    for slope, inter in ((0.0, 0.0), (0.0, 4.0), (1.0, 0.0)):
        assert read_nifti(_with_scaling(tmp_path, slope, inter)).data[0, 0, 0] == 3.0


def test_volume_invariants():
    with pytest.raises(ValueError):
        Volume(np.full((2, 2, 2), np.nan, dtype=np.float32), (1, 1, 1))
    with pytest.raises(ValueError):
        Volume(np.zeros((2, 2, 2), dtype=np.float32), (1.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        LabelVolume(np.full((2, 2, 2), 5, dtype=np.uint16), (1, 1, 1), 3)
    with pytest.raises(ValueError):
        BinaryVolume(np.full((2, 2, 2), 2, dtype=np.uint8), (1, 1, 1))
    for bad in (256, 0.7, np.nan):  # checked before the uint8 cast, so none wraps
        with pytest.raises(ValueError):
            BinaryVolume(np.full((2, 2, 2), bad), (1, 1, 1))


def test_binary_volume_checks_a_uint8_map_within_half_a_volume(rng):
    """The value check compares in place: ``np.isin`` cast the map to float64
    and sorted it, 1.50 float64 volumes in all; two bool comparisons and the
    owned copy take 0.38."""
    shape = (96, 96, 16)
    data = (rng.random(shape) < 0.3).astype(np.uint8)
    peak = traced_peak_volumes(lambda: BinaryVolume(data, (1.25, 1.25, 5.0)), shape)
    assert peak <= 0.5, f"traced peak is {peak:.2f} float64 volumes"


@pytest.mark.parametrize("layout", ["C", "transposed"])
def test_normalize_scales_one_c_ordered_copy_in_place(rng, layout):
    """``_normalize`` gives the bytes of ``(x - lo) / (hi - lo)`` in one fresh C-ordered
    float64 array, whatever the input's layout. The cast then two out-of-place steps
    peaked at 2.00 float64 volumes; scaling the cast copy in place holds 1.00."""
    shape = (96, 96, 16)
    data = (5.0 * rng.random(shape) - 1.5).astype(np.float32)
    if layout == "transposed":  # an [x, y, z] view of a z-major array
        data = np.ascontiguousarray(data.transpose(2, 0, 1)).transpose(1, 2, 0)
    x = data.astype(np.float64)
    lo, hi = x.min(), x.max()
    want = np.ascontiguousarray((x - lo) / (hi - lo))
    out = []
    peak = traced_peak_volumes(lambda: out.append(_normalize(data)), shape)
    got = out[0]
    assert got.dtype == np.float64 and got.flags.c_contiguous and got.shape == shape
    assert got.tobytes() == want.tobytes()
    assert peak <= 1.05, f"traced peak is {peak:.2f} float64 volumes"


@pytest.mark.parametrize("value", [-2.5, 0.0, 3.25])
def test_normalize_maps_a_constant_volume_to_positive_zeros(value):
    got = _normalize(np.full((4, 3, 2), value, dtype=np.float32))
    assert got.flags.c_contiguous and (got == 0.0).all() and not np.signbit(got).any()


_CONTAINERS = pytest.mark.parametrize("make", [
    lambda sp: Volume(np.zeros((2, 2, 2), dtype=np.float32), sp),
    lambda sp: LabelVolume(np.zeros((2, 2, 2), dtype=np.uint16), sp, 2),
    lambda sp: BinaryVolume(np.zeros((2, 2, 2), dtype=np.uint8), sp),
    lambda sp: ProbVolume(np.full((2, 2, 2, 2), 0.5), sp),
    lambda sp: SupervoxelMap(np.zeros((2, 2, 2), dtype=np.int32), sp),
    lambda sp: ScribbleSet(np.array([[0, 0, 0]]), np.array([1]), 2, (2, 2, 2), sp),
], ids=["Volume", "LabelVolume", "BinaryVolume", "ProbVolume", "SupervoxelMap", "ScribbleSet"])


@_CONTAINERS
def test_every_container_checks_its_spacing(make):
    assert make((1.0, 2.0, 3.0)).spacing == (1.0, 2.0, 3.0)
    for bad in ((1.0, np.nan, 1.0), (1.0, -1.0, 1.0), (0.0, 1.0, 1.0), (1.0, 1.0),
                (1e39, 1, 1), (1e-46, 1, 1)):  # a header's float32 pixdim holds neither
        with pytest.raises(ValueError, match="spacing"):
            make(bad)


@_CONTAINERS
def test_every_container_checks_ndim_and_owns_a_read_only_copy(make):
    good = make((1.0, 1.0, 1.0))
    arrays = {f.name: getattr(good, f.name) for f in dataclasses.fields(good)
              if isinstance(getattr(good, f.name), np.ndarray)}
    for name, stored in arrays.items():
        assert not stored.flags.writeable
        with pytest.raises(ValueError, match=name):
            dataclasses.replace(good, **{name: stored[None]})
        mine = np.array(stored)  # the caller's buffer, already of the stored dtype
        held = getattr(dataclasses.replace(good, **{name: mine}), name)
        assert not held.flags.writeable and mine.flags.writeable
        assert not np.shares_memory(held, mine)


_ORIGIN = np.array([[0, 0, 0]])


@pytest.mark.parametrize("make", [
    lambda: SupervoxelMap(np.full((2, 2, 2), 2**32, dtype=np.int64), (1, 1, 1)),
    lambda: SupervoxelMap(np.full((2, 2, 2), 0.9), (1, 1, 1)),
    lambda: ScribbleSet(_ORIGIN, np.array([65537]), 2, (2, 2, 2), (1, 1, 1)),
    lambda: ScribbleSet(_ORIGIN, np.array([-65535]), 2, (2, 2, 2), (1, 1, 1)),
    lambda: ScribbleSet(_ORIGIN, np.array([1.6]), 2, (2, 2, 2), (1, 1, 1)),
    lambda: ScribbleSet(np.array([[0.7, 0, 0]]), np.array([1]), 2, (2, 2, 2), (1, 1, 1)),
], ids=["ids-2**32", "ids-0.9", "classes-65537", "classes--65535", "classes-1.6",
        "indices-0.7"])
def test_values_are_checked_before_narrowing(make):
    # each of these used to wrap or truncate to a valid value in the cast
    with pytest.raises(ValueError):
        make()


def test_writing_a_non_grid_object_fails_before_any_byte_is_written(tmp_path):
    scribbles = ScribbleSet(np.array([[0, 0, 0]]), np.array([1]), 2, (2, 2, 2), (1, 1, 1))
    with pytest.raises(TypeError, match="cannot write object of type ScribbleSet"):
        write_nifti(scribbles, tmp_path / "s.nii")
    assert not list(tmp_path.iterdir())


def test_bitpix_must_match_datatype(tmp_path):
    path = _patched_file(tmp_path, {72: (8).to_bytes(2, "little")})  # float32 needs 32
    with pytest.raises(MalformedHeaderError, match=re.escape(str(path))):
        read_nifti(path)


def test_crop_or_pad_to_patch_size():
    vol = Volume(np.ones((200, 200, 28), dtype=np.float32), (1.5, 1.5, 6.0))
    out = crop_or_pad(vol, (224, 224, 32))
    assert out.shape == (224, 224, 32)
    assert out.data.sum() == vol.data.sum()


@pytest.mark.parametrize("target", [(4, 4), (4, 4, 0), (4, -1, 4), (4, 4, 4, 1)],
                         ids=["2d", "zero", "negative", "4d"])
def test_crop_or_pad_refuses_a_target_that_is_not_three_positive_ints(target):
    vol = Volume(np.ones((4, 4, 4), dtype=np.float32), (1.0, 1.0, 1.0))
    with pytest.raises(ValueError, match="target shape must be three positive ints"):
        crop_or_pad(vol, target)


def test_crop_or_pad_inverse_with_aligned_origins(rng):
    # a centred pad then a centred crop back: odd differences 5 -> 8 and 6 -> 9, an even one 7 -> 9
    data = rng.random((5, 6, 7)).astype(np.float32)
    vol = Volume(data, (1, 1, 1))
    padded = crop_or_pad(vol, (8, 9, 9))
    assert np.array_equal(padded.data[1:6, 1:7, 1:8], data)  # offsets int(3/2), int(3/2), int(2/2)
    back = crop_or_pad(padded, (5, 6, 7))
    assert np.array_equal(back.data, data)


def test_crop_or_pad_idempotent_and_preserves_kind(rng):
    lab = LabelVolume(rng.integers(0, 3, size=(4, 4, 4)).astype(np.uint16), (1, 1, 1), 3)
    same = crop_or_pad(lab, (4, 4, 4))
    assert isinstance(same, LabelVolume)
    assert same.num_classes == 3
    assert np.array_equal(same.data, lab.data)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    pad=st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
)
def test_zero_padding_preserves_sum(seed, pad):
    r = np.random.default_rng(seed)
    shape = tuple(int(s) for s in r.integers(1, 6, size=3))
    data = r.random(shape).astype(np.float32)
    vol = Volume(data, (1, 1, 1))
    target = tuple(s + p for s, p in zip(shape, pad))
    out = crop_or_pad(vol, target)
    assert out.data.sum() == pytest.approx(data.sum(), rel=1e-6)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_write_read_roundtrip_bit_exact(tmp_path_factory, seed):
    r = np.random.default_rng(seed)
    shape = tuple(int(s) for s in r.integers(1, 7, size=3))
    spacing = tuple(float(s) for s in r.uniform(0.5, 8.0, size=3).astype(np.float32))
    vol = Volume(r.random(shape).astype(np.float32), spacing)
    path = tmp_path_factory.mktemp("rt") / "v.nii"
    write_nifti(vol, path)
    back = read_nifti(path)
    assert np.array_equal(back.data, vol.data)
    assert back.spacing == pytest.approx(spacing)


# sizeof_hdr, dim[0], dim[1], dim[4], datatype, bitpix, pixdim[1..3], vox_offset, scl_slope,
# scl_inter, xyzt_units, magic
_HEADER_FIELDS = [0, 40, 42, 48, 70, 72, 80, 84, 88, 108, 112, 116, 123, 344]
_SPECIAL_VALUES = [np.float32(v).tobytes() for v in (np.nan, np.inf, -np.inf, -1, 0, 1, 351, 1e30)]
_SPECIAL_VALUES += [np.int16(v).tobytes() for v in (-1, 0, 1, 2, 3, 4, 5, 8, 16, 32767)]
_NAN, _INF = np.float32(np.nan).tobytes(), np.float32(np.inf).tobytes()


@settings(max_examples=150, deadline=1000)
@given(
    mutations=st.lists(
        st.tuples(
            st.one_of(st.sampled_from(_HEADER_FIELDS), st.integers(0, 347)),
            st.one_of(st.sampled_from(_SPECIAL_VALUES), st.binary(min_size=1, max_size=4)),
        ),
        max_size=3,
    ),
    voxel=st.tuples(st.integers(0, 7), st.sampled_from([None, np.nan, np.inf, -3.0, 70000.0])),
)
@example(mutations=[(108, _NAN)], voxel=(0, None))
@example(mutations=[(108, _INF)], voxel=(0, None))
def test_fuzzed_file_reads_as_a_volume_or_raises_a_toolkit_error(
    tmp_path_factory, mutations, voxel
):
    path = tmp_path_factory.mktemp("fuzz") / "f.nii"
    write_nifti(Volume((np.arange(8) % 2).reshape(2, 2, 2).astype(np.float32), (1, 1, 2)), path)
    raw = bytearray(path.read_bytes())
    for offset, value in mutations:
        raw[offset : offset + len(value)] = value
    index, value = voxel
    if value is not None:
        raw[352 + 4 * index : 356 + 4 * index] = np.float32(value).tobytes()
    path.write_bytes(bytes(raw))
    for kind in ("auto", "image", "labels", "binary", "supervoxels"):
        try:
            vol = read_nifti(path, kind=kind)
        except ScribsupError:
            continue
        assert isinstance(vol, (Volume, LabelVolume, BinaryVolume, SupervoxelMap))
        data = vol.ids if isinstance(vol, SupervoxelMap) else vol.data
        assert data.ndim == 3 and not data.flags.writeable

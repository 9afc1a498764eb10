import dataclasses
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    DT_UINT8,
    BinaryVolume,
    LabelVolume,
    Volume,
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


@pytest.mark.parametrize("code", [DT_UINT8, DT_INT16, DT_FLOAT32])
def test_read_write_data_section_byte_identical(tmp_path, rng, code):
    shape = (5, 3, 4)
    if code == DT_UINT8:
        data = rng.integers(0, 200, size=shape).astype("<u1")
    elif code == DT_INT16:
        data = rng.integers(0, 3000, size=shape).astype("<i2")
    else:
        data = rng.random(shape).astype("<f4")
    src = tmp_path / "src.nii"
    if code == DT_FLOAT32:
        write_nifti(Volume(data, (1, 1, 1)), src)
    else:
        write_nifti(LabelVolume(data, (1, 1, 1), 4000, code), src)
    round_tripped = tmp_path / "round.nii"
    write_nifti(read_nifti(src), round_tripped)
    assert src.read_bytes()[352:] == round_tripped.read_bytes()[352:]


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


@pytest.mark.parametrize("offset", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_vox_offset_is_malformed(tmp_path, offset):
    path = _patched_file(tmp_path, {108: np.float32(offset).tobytes()})
    with pytest.raises(MalformedHeaderError, match=re.escape(str(path))):
        read_nifti(path)


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


def test_large_labels_use_int16_and_overflow_errors(tmp_path):
    data = np.zeros((2, 2, 2), dtype=np.uint16)
    data[0, 0, 0] = 300
    path = tmp_path / "big.nii"
    write_nifti(LabelVolume(data, (1, 1, 1), 301), path)
    assert read_nifti(path, kind="labels").data[0, 0, 0] == 300
    data[0, 0, 0] = 40000
    with pytest.raises(UnsupportedDatatypeError):
        write_nifti(LabelVolume(data, (1, 1, 1), 40001), tmp_path / "huge.nii")


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


_CONTAINERS = pytest.mark.parametrize("make", [
    lambda sp: Volume(np.zeros((2, 2, 2), dtype=np.float32), sp),
    lambda sp: LabelVolume(np.zeros((2, 2, 2), dtype=np.uint16), sp, 2),
    lambda sp: BinaryVolume(np.zeros((2, 2, 2), dtype=np.uint8), sp),
    lambda sp: ProbVolume(np.full((2, 2, 2, 2), 0.5), sp),
    lambda sp: SupervoxelMap(np.zeros((2, 2, 2), dtype=np.int32), sp, 1),
    lambda sp: ScribbleSet(np.array([[0, 0, 0]]), np.array([1]), 2, (2, 2, 2), sp),
], ids=["Volume", "LabelVolume", "BinaryVolume", "ProbVolume", "SupervoxelMap", "ScribbleSet"])


@_CONTAINERS
def test_every_container_checks_its_spacing(make):
    assert make((1.0, 2.0, 3.0)).spacing == (1.0, 2.0, 3.0)
    for bad in ((1.0, np.nan, 1.0), (1.0, -1.0, 1.0), (0.0, 1.0, 1.0), (1.0, 1.0)):
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
    lambda: SupervoxelMap(np.full((2, 2, 2), 2**32, dtype=np.int64), (1, 1, 1), 1),
    lambda: SupervoxelMap(np.full((2, 2, 2), 0.9), (1, 1, 1), 1),
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


def test_bitpix_must_match_datatype(tmp_path):
    path = _patched_file(tmp_path, {72: (8).to_bytes(2, "little")})  # float32 needs 32
    with pytest.raises(MalformedHeaderError, match=re.escape(str(path))):
        read_nifti(path)


def test_crop_or_pad_corner_origin():
    vol = Volume(np.ones((2, 2, 2), dtype=np.float32), (1, 1, 1))
    out = crop_or_pad(vol, (4, 4, 4), origin=(1, 1, 1))
    expected = np.zeros((4, 4, 4), dtype=np.float32)
    expected[1:3, 1:3, 1:3] = 1.0
    assert np.array_equal(out.data, expected)
    assert out.spacing == vol.spacing


def test_crop_or_pad_to_patch_size():
    vol = Volume(np.ones((200, 200, 28), dtype=np.float32), (1.5, 1.5, 6.0))
    out = crop_or_pad(vol, (224, 224, 32))
    assert out.shape == (224, 224, 32)
    assert out.data.sum() == vol.data.sum()


def test_crop_or_pad_inverse_with_aligned_origins(rng):
    data = rng.random((5, 6, 7)).astype(np.float32)
    vol = Volume(data, (1, 1, 1))
    padded = crop_or_pad(vol, (9, 9, 9), origin=(2, 1, 0))
    back = crop_or_pad(padded, (5, 6, 7), origin=(-2, -1, 0))
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
# scl_inter, magic
_HEADER_FIELDS = [0, 40, 42, 48, 70, 72, 80, 84, 88, 108, 112, 116, 344]
_SPECIAL_VALUES = [np.float32(v).tobytes() for v in (np.nan, np.inf, -np.inf, -1, 0, 1, 351, 1e30)]
_SPECIAL_VALUES += [np.int16(v).tobytes() for v in (-1, 0, 1, 2, 3, 4, 5, 16, 32767)]
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
    for kind in ("auto", "image", "labels", "binary"):
        try:
            vol = read_nifti(path, kind=kind)
        except ScribsupError:
            continue
        assert isinstance(vol, (Volume, LabelVolume, BinaryVolume)) and vol.data.ndim == 3
        assert not vol.data.flags.writeable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_volume, traced_peak_volumes
from oracles import brute_propagate, edge_slice_reference, random_partition
from scribsup.errors import ShapeMismatchError
from scribsup.label_propagation import propagate, static_boundary
from scribsup.scribble_sim import ScribbleSet
from scribsup.supervoxel import SupervoxelMap
from scribsup.volume_io import Volume


def _random_instance(rng, shape=(8, 8, 8), n_cells=10, n_scrib=12, n_classes=3):
    ids = random_partition(rng, shape, n_cells)
    sv = SupervoxelMap(ids, (1, 1, 1))
    idx = np.stack([rng.integers(0, s, size=n_scrib) for s in shape], axis=1)
    # dedupe so class conflicts at a voxel cannot occur
    flat = idx[:, 0] * shape[1] * shape[2] + idx[:, 1] * shape[2] + idx[:, 2]
    _, keep = np.unique(flat, return_index=True)
    idx = idx[keep]
    classes = rng.integers(0, n_classes, size=len(idx)).astype(np.uint16)
    scr = ScribbleSet(idx, classes, n_classes, shape, (1, 1, 1))
    return scr, sv


def test_single_supervoxel_single_scribble():
    sv = SupervoxelMap(np.zeros((4, 4, 4), dtype=np.int32), (1, 1, 1))
    scr = ScribbleSet(np.array([[1, 2, 3]]), np.array([1]), 2, (4, 4, 4), (1, 1, 1))
    pl = propagate(scr, sv)
    assert np.all(pl.mask.data == 1)
    assert np.all(pl.confident.data == 1)


def test_multi_class_supervoxel_excluded():
    ids = np.zeros((4, 4, 4), dtype=np.int32)
    ids[2:] = 1
    sv = SupervoxelMap(ids, (1, 1, 1))
    scr = ScribbleSet(
        np.array([[0, 0, 0], [1, 1, 1], [3, 3, 3]]),
        np.array([1, 2, 1]),
        3,
        (4, 4, 4),
        (1, 1, 1),
    )
    pl = propagate(scr, sv)
    # supervoxel 0 hit by classes {1, 2} -> excluded entirely
    assert np.all(pl.confident.data[:2] == 0)
    assert np.all(pl.mask.data[:2] == 0)
    # supervoxel 1 hit only by class 1
    assert np.all(pl.confident.data[2:] == 1)
    assert np.all(pl.mask.data[2:] == 1)


def test_random_instances_match_bruteforce(rng):
    for _ in range(20):
        scr, sv = _random_instance(rng)
        pl = propagate(scr, sv)
        mask, conf = brute_propagate(scr.indices, scr.classes, sv.ids, scr.num_classes)
        assert np.array_equal(pl.mask.data, mask)
        assert np.array_equal(pl.confident.data, conf)


def test_propagation_is_supervoxel_constant(rng):
    scr, sv = _random_instance(rng, n_cells=6)
    pl = propagate(scr, sv)
    for s in range(sv.count):
        sel = sv.ids == s
        assert len(np.unique(pl.mask.data[sel])) == 1
        assert len(np.unique(pl.confident.data[sel])) == 1


def test_monotonicity_adding_same_class_scribble(rng):
    scr, sv = _random_instance(rng)
    pl = propagate(scr, sv)
    conf_svs = np.unique(sv.ids[pl.confident.data == 1])
    if len(conf_svs) == 0:
        pytest.skip("instance produced no confident supervoxel")
    target = conf_svs[0]
    where = np.argwhere(sv.ids == target)
    extra_idx = where[len(where) // 2]
    cls = pl.mask.data[tuple(extra_idx)]
    flat_new = np.concatenate([scr.indices, extra_idx[None]], axis=0)
    cls_new = np.concatenate([scr.classes, np.array([cls], dtype=np.uint16)])
    # drop a possible duplicate-with-same-class (allowed) before building
    scr2 = ScribbleSet(flat_new, cls_new, scr.num_classes, scr.shape, scr.spacing)
    pl2 = propagate(scr2, sv)
    assert np.array_equal(pl.mask.data, pl2.mask.data)
    assert np.array_equal(pl.confident.data, pl2.confident.data)


def test_no_scribbles_means_no_confidence(rng):
    _, sv = _random_instance(rng)
    empty = ScribbleSet(
        np.empty((0, 3), dtype=np.int64), np.empty(0, dtype=np.uint16),
        3, sv.shape, (1, 1, 1),
    )
    pl = propagate(empty, sv)
    assert not pl.confident.data.any()
    assert not pl.mask.data.any()


def test_propagate_traced_peak_stays_within_one_volume(rng):
    """``propagate`` makes a uint16 label map and a uint8 confidence map and
    checks their values. Measured peaks in float64 volumes of this grid: 1.90
    while ``BinaryVolume`` checked the confidence map with ``np.isin`` (a
    float64 cast and its sort); 0.77 with two bool comparisons."""
    shape, spacing = (96, 96, 16), (1.25, 1.25, 5.0)
    x, y, z = np.indices(shape)
    sv = SupervoxelMap(((x // 8) * 12 + y // 8) * 4 + z // 4, spacing)  # 576 blocks
    flat = rng.choice(np.prod(shape), size=3000, replace=False)
    idx = np.stack(np.unravel_index(flat, shape), axis=1)
    scr = ScribbleSet(idx, rng.integers(0, 3, size=len(idx)), 3, shape, spacing)
    peak = traced_peak_volumes(lambda: propagate(scr, sv), shape)
    assert peak <= 1.0, f"traced peak is {peak:.2f} float64 volumes"


def test_shape_mismatch():
    sv = SupervoxelMap(np.zeros((4, 4, 4), dtype=np.int32), (1, 1, 1))
    scr = ScribbleSet(np.array([[0, 0, 0]]), np.array([1]), 2, (5, 4, 4), (1, 1, 1))
    with pytest.raises(ShapeMismatchError):
        propagate(scr, sv)


# ---------------------------------------------------------------------------
# static boundary


def test_constant_volume_has_no_edges():
    vol = make_volume(np.full((8, 8, 3), 7.0))
    assert not static_boundary(vol, 0.2).data.any()


def test_vertical_step_gives_single_column():
    data = np.zeros((16, 16, 1), dtype=np.float32)
    data[8:, :, :] = 1.0
    edges = static_boundary(make_volume(data), 0.2)
    xs, ys, _ = np.nonzero(edges.data)
    assert set(xs) == {8}
    assert len(xs) == 16  # the full column, one voxel wide


def test_stacked_slices_give_identical_edge_maps(rng):
    sl = rng.random((16, 16)).astype(np.float32)
    data = np.stack([sl, sl], axis=2)
    edges = static_boundary(make_volume(data), 0.2)
    assert np.array_equal(edges.data[:, :, 0], edges.data[:, :, 1])


def test_edges_match_per_pixel_reference(rng):
    for _ in range(5):
        img = rng.random((16, 16)).astype(np.float32)
        vol = make_volume(img[:, :, None])
        got = static_boundary(vol, 0.2).data[:, :, 0].astype(bool)
        want = edge_slice_reference(img, 0.2)
        assert np.array_equal(got, want)
    # Integer levels give exact magnitude ties and flat pixels; axes of 1-13
    # pixels put most neighbours off the slice.
    for _ in range(40):
        img = rng.integers(0, 3, size=tuple(rng.integers(1, 14, size=2))).astype(np.float32)
        vol = make_volume(img[:, :, None])
        for threshold in (0.2, 0.5):
            got = static_boundary(vol, threshold).data[:, :, 0].astype(bool)
            assert np.array_equal(got, edge_slice_reference(img, threshold))


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    scale=st.floats(0.25, 8.0),
    offset=st.floats(-5.0, 5.0),
)
def test_edges_invariant_under_positive_affine_rescale(seed, scale, offset):
    r = np.random.default_rng(seed)
    img = r.random((12, 12, 2)).astype(np.float32)
    base = static_boundary(Volume(img, (1, 1, 1)), 0.3)
    mapped = static_boundary(Volume(img * scale + offset, (1, 1, 1)), 0.3)
    assert np.array_equal(base.data, mapped.data)

import hashlib
import json
import time
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from scipy.ndimage import uniform_filter

from conftest import sphere_labels, traced_peak_volumes
from oracles import (
    all_ids_connected_6, brute_assign, brute_enforce_connectivity, compact_ids, flood_components_6,
    reference_cluster_sums, reference_perturb_seeds,
)
from scribsup import supervoxel
from scribsup.errors import KTooLargeError
from scribsup.supervoxel import (
    SlicParams,
    SupervoxelMap,
    enforce_connectivity,
    slic3d,
    _assign,
    _cluster_sums,
    _equal_id_components,
    _perturb_seeds,
    _seed_grid,
    _slic_state,
    _sweep,
)
from scribsup.volume_io import Volume


def _extents(svmap):
    out = []
    for sv in range(svmap.count):
        xs, ys, zs = np.nonzero(svmap.ids == sv)
        out.append((np.ptp(xs) + 1, np.ptp(ys) + 1, np.ptp(zs) + 1))
    return np.array(out)


def test_uniform_volume_k8_gives_equal_blocks(monkeypatch):
    sweeps = []  # the centres reach a fixed point after two rounds; every round still runs
    monkeypatch.setattr(supervoxel, "_assign", lambda *args: sweeps.append(1) or _assign(*args))
    vol = Volume(np.zeros((12, 12, 12), dtype=np.float32), (1, 1, 1))
    svmap = slic3d(vol, SlicParams(k=8))
    assert len(sweeps) == SlicParams(k=8).iterations + 1  # the count perfbench's opcounts assume
    assert svmap.count == 8
    counts = np.bincount(svmap.ids.ravel(), minlength=8)
    assert counts.sum() == 12 ** 3
    assert np.all(np.abs(counts - 216) <= 72)  # boundary rounding slack
    assert all_ids_connected_6(svmap.ids)


def test_two_region_volume_splits_exactly_on_intensity():
    data = np.zeros((8, 8, 8), dtype=np.float32)
    data[4:] = 1.0
    vol = Volume(data, (1, 1, 1))
    svmap = slic3d(vol, SlicParams(k=2, compactness=0.1))
    assert svmap.count == 2
    left = np.unique(svmap.ids[:4])
    right = np.unique(svmap.ids[4:])
    assert len(left) == 1 and len(right) == 1 and left[0] != right[0]


def test_two_region_assignment_is_nearest_center_by_brute_force():
    data = np.zeros((8, 8, 8), dtype=np.float32)
    data[4:] = 1.0
    vol = Volume(data, (1, 1, 1))
    params = SlicParams(k=2, compactness=0.1)
    labels, centers_pos, centers_int, step = _slic_state(vol, params)
    intensity = data.astype(np.float64)  # already in [0, 1]
    m_over_s = params.compactness / step
    for x in range(8):
        for y in range(8):
            for z in range(8):
                pos = np.array([x, y, z], dtype=np.float64)
                ds = []
                for cid in range(len(centers_pos)):
                    d_sp = np.linalg.norm(pos - centers_pos[cid])
                    d_int = intensity[x, y, z] - centers_int[cid]
                    ds.append(np.sqrt(d_int ** 2 + (d_sp * m_over_s) ** 2))
                own = ds[labels[x, y, z]]
                assert own <= min(ds) + 1e-12


def test_k_equals_voxel_count_gives_singletons():
    vol = Volume(np.zeros((4, 4, 4), dtype=np.float32), (1, 1, 1))
    svmap = slic3d(vol, SlicParams(k=64))
    assert svmap.count == 64
    assert np.bincount(svmap.ids.ravel()).max() == 1


def test_k_too_large_raises():
    vol = Volume(np.zeros((3, 3, 3), dtype=np.float32), (1, 1, 1))
    with pytest.raises(KTooLargeError):
        slic3d(vol, SlicParams(k=28))


def test_partition_and_determinism(rng):
    data = rng.random((14, 12, 10)).astype(np.float32)
    vol = Volume(data, (1.0, 1.2, 2.5))
    a = slic3d(vol, SlicParams(k=12))
    b = slic3d(vol, SlicParams(k=12))
    assert np.array_equal(a.ids, b.ids)
    assert a.count == b.count
    counts = np.bincount(a.ids.ravel(), minlength=a.count)
    assert counts.sum() == data.size and (counts > 0).all()


def test_anisotropy_supervoxels_follow_physical_space():
    vol = Volume(np.zeros((16, 16, 16), dtype=np.float32), (1, 1, 4))
    svmap = slic3d(vol, SlicParams(k=256))
    ext = _extents(svmap)
    mean_x = ext[:, 0].mean()
    mean_z = ext[:, 2].mean()
    assert abs(mean_z - mean_x / 4.0) <= 1.0


def test_enforce_connectivity_fixpoint():
    ids = np.zeros((6, 6, 6), dtype=np.int32)
    ids[3:] = 1
    svmap = SupervoxelMap(ids, (1, 1, 1))
    out = enforce_connectivity(svmap, min_size_voxels=ids.size / (4 * svmap.count))
    assert out.count == 2
    assert np.array_equal(out.ids, ids)


def test_enforce_connectivity_absorbs_small_island():
    ids = np.zeros((6, 6, 6), dtype=np.int32)
    ids[3:] = 1
    ids[1, 1, 1] = 1  # 1-voxel island of ID 1 inside ID 0 territory
    ids[1, 1, 2] = 1
    svmap = SupervoxelMap(ids, (1, 1, 1))
    out = enforce_connectivity(svmap, min_size_voxels=ids.size / (4 * svmap.count))
    assert out.count == 2
    # island absorbed by its host
    assert out.ids[1, 1, 1] == out.ids[0, 0, 0]
    assert out.ids[1, 1, 2] == out.ids[0, 0, 0]
    labels, n = flood_components_6(out.ids == out.ids[1, 1, 1])
    assert n == 1


def test_enforce_connectivity_checkerboard():
    shape = (6, 6, 6)
    grid = np.indices(shape).sum(axis=0)
    ids = (grid % 2).astype(np.int32)
    svmap = SupervoxelMap(ids, (1, 1, 1))
    out = enforce_connectivity(svmap, min_size_voxels=ids.size / (4 * svmap.count))
    assert all_ids_connected_6(out.ids)
    counts = np.bincount(out.ids.ravel(), minlength=out.count)
    assert counts.sum() == np.prod(shape) and (counts > 0).all()


def test_enforce_connectivity_keeps_large_fragments():
    # two far-apart 3x3x3 cubes share an ID; both exceed the orphan bound
    ids = np.zeros((12, 6, 6), dtype=np.int32)
    ids[0:3, 0:3, 0:3] = 1
    ids[9:12, 0:3, 0:3] = 1
    svmap = SupervoxelMap(ids, (1, 1, 1))
    out = enforce_connectivity(svmap, min_size_voxels=10.0)
    assert out.count == 3
    assert all_ids_connected_6(out.ids)


def test_slic_params_validation():
    for bad in [
        {"k": 0}, {"compactness": 0}, {"iterations": 0},
        {"k": 10.7}, {"k": True}, {"k": np.bool_(True)}, {"iterations": True},
        {"iterations": 2.5}, {"compactness": float("nan")}, {"compactness": float("inf")},
        {"compactness": "10"}, {"compactness": True},
    ]:
        with pytest.raises(ValueError):
            SlicParams(**{"k": 5, **bad})


def test_slic_params_accept_numpy_numbers():
    params = SlicParams(k=np.int64(5), compactness=np.float32(2.5), iterations=np.int16(3))
    assert (params.k, params.compactness, params.iterations) == (5, 2.5, 3)


_THIRDS = (0.0, 0.5, 1.0)
# squared differences round, so a sum in another axis order picks other seeds here
_INEXACT = (0.0, 0.1, 0.2, 0.3, 0.6, 1.0)
_PERTURB_CASES = {  # shape, spacing, intensity levels (None: continuous noise)
    "noise_aniso": ((9, 7, 5), (1.25, 0.8, 5.0), None),
    "thirds_iso": ((8, 8, 6), (1.0, 1.0, 1.0), _THIRDS),
    "thirds_aniso": ((10, 6, 4), (0.7, 1.3, 3.0), _THIRDS),
    "inexact_iso": ((12, 12, 8), (1.0, 1.0, 1.0), _INEXACT),
    "axis_1": ((1, 5, 4), (1.0, 2.0, 3.0), None),
    "axes_2_3": ((2, 3, 6), (1.5, 1.0, 2.0), _THIRDS),
    "axes_3_1_2": ((3, 1, 2), (1.0, 1.0, 4.0), None),
    "single_voxel": ((1, 1, 1), (1.0, 1.0, 1.0), None),
}


@pytest.mark.parametrize("name", sorted(_PERTURB_CASES))
def test_perturb_seeds_matches_full_volume_gradient(name):
    shape, spacing, levels = _PERTURB_CASES[name]
    rng = np.random.default_rng([9009, sorted(_PERTURB_CASES).index(name)])
    if levels is None:
        intensity = rng.random(shape)
    else:  # few levels: many equal gradients, so the first-minimum rule decides
        intensity = np.asarray(levels)[rng.integers(0, len(levels), size=shape)]
    extent = np.asarray(shape) * np.asarray(spacing)
    centres = (np.indices(shape).reshape(3, -1).T + 0.5) * np.asarray(spacing)  # one per voxel
    corners = np.array(list(product(*[(0.0, e) for e in extent])))
    # seeds on and beyond the border land on the first or last voxel of an axis
    scattered = rng.uniform(-np.asarray(spacing), extent + np.asarray(spacing), size=(60, 3))
    seeds_mm = np.concatenate([centres, corners, scattered])
    got = _perturb_seeds(seeds_mm, intensity, spacing)
    want = reference_perturb_seeds(seeds_mm, intensity, spacing)
    assert got.dtype == np.int64 and np.array_equal(got, want)


# sha256 of ``slic3d`` ID maps on small seeded volumes, captured with the
# per-seed ``_perturb_seeds`` loop and the per-fragment ``enforce_connectivity``
# scans that preceded the whole-array rewrite. IDs must stay byte-identical,
# so the file is never regenerated.
SLIC_GOLDEN_PATH = Path(__file__).parent / "data" / "slic_golden.json"


def _slic_golden_cases():
    """Name -> (volume, params): textured, tie-heavy, plateau, fragment-heavy."""
    rng = np.random.default_rng(5005)
    noise = rng.random((14, 12, 10)).astype(np.float32)
    quantised = rng.integers(0, 4, size=(16, 16, 8)).astype(np.float32)
    x, y, z = np.indices((20, 20, 6))
    plateau = ((x // 5 + y // 7 + z // 3) % 3).astype(np.float32)
    fragments = rng.random((24, 24, 8)).astype(np.float32)
    sphere = ((x - 9.5) ** 2 + (y - 8.0) ** 2 <= 36).astype(np.float32)
    sphere += 0.1 * rng.random(sphere.shape).astype(np.float32)
    # smooth noise at low compactness: some fragments reach min_size and stay
    smooth = uniform_filter(np.random.default_rng(5006).random((24, 24, 8)), 3)
    return {
        "noise_14x12x10": (Volume(noise, (1.0, 1.2, 2.5)), SlicParams(k=12)),
        "quantised_16x16x8": (Volume(quantised, (1.0, 1.0, 2.0)), SlicParams(k=24)),
        "plateau_20x20x6": (Volume(plateau, (1.0, 1.0, 1.0)), SlicParams(k=18)),
        "noise_c0.3_24x24x8": (
            Volume(fragments, (1.0, 1.0, 1.0)), SlicParams(k=36, compactness=0.3)
        ),
        "sphere_20x20x6": (Volume(sphere, (1.25, 1.25, 5.0)), SlicParams(k=10, iterations=4)),
        "smooth_c0.1_24x24x8": (Volume(smooth, (1.0, 1.0, 2.0)), SlicParams(k=36, compactness=0.1)),
    }


def _slic_digest(vol, params):
    svmap = slic3d(vol, params)
    ids = np.ascontiguousarray(svmap.ids, dtype="<i4")
    return {"count": svmap.count, "sha256": hashlib.sha256(ids.tobytes()).hexdigest()}


@pytest.mark.parametrize("name", sorted(_slic_golden_cases()))
def test_slic_matches_pre_change_golden(name):
    golden = json.loads(SLIC_GOLDEN_PATH.read_text())[name]
    vol, params = _slic_golden_cases()[name]
    assert _slic_digest(vol, params) == golden


def _fragmented_map(rng, kind):
    """A small ID map in which at least one ID is split into pieces."""
    while True:
        shape = tuple(int(n) for n in rng.integers(3, 9, size=3))
        if kind == "random":
            ids = rng.integers(0, rng.integers(2, 6), size=shape)
        elif kind == "checkerboard":
            ids = (np.indices(shape).sum(axis=0) + rng.integers(0, 2)) % rng.integers(2, 4)
        else:  # noisy blocks: a block partition with a few voxels relabelled
            x, y, z = np.indices(shape)
            ids = x // 3 + 3 * (y // 3) + 9 * (z // 4)
            flip = rng.random(shape) < 0.15
            ids[flip] = rng.integers(0, ids.max() + 1, size=int(flip.sum()))
        _, ids = np.unique(ids, return_inverse=True)
        ids = ids.reshape(shape)
        if any(flood_components_6(ids == v)[1] > 1 for v in np.unique(ids)):
            return SupervoxelMap(ids, (1.0, 1.0, 1.0))


_MAP_KINDS = ["random", "checkerboard", "noisy_blocks"]


@pytest.mark.parametrize("min_size", ["explicit"])  # the bound has no default
@pytest.mark.parametrize("kind", _MAP_KINDS)
def test_enforce_connectivity_matches_oracle(kind, min_size):
    rng = np.random.default_rng([7007, _MAP_KINDS.index(kind), 1])
    for _ in range(40):
        svmap = _fragmented_map(rng, kind)
        bound = float(rng.uniform(1.0, 6.0))
        want = brute_enforce_connectivity(np.asarray(svmap.ids), svmap.count, bound)
        got = enforce_connectivity(svmap, min_size_voxels=bound)
        assert np.array_equal(got.ids, want)
        assert got.count == int(want.max()) + 1


@pytest.mark.parametrize("kind", _MAP_KINDS)
def test_enforce_connectivity_ignores_input_id_numbering(kind):
    rng = np.random.default_rng([7010, _MAP_KINDS.index(kind)])
    for _ in range(30):
        svmap = _fragmented_map(rng, kind)
        permuted = rng.permutation(svmap.count)[np.asarray(svmap.ids)]
        bound = float(rng.uniform(1.0, 6.0))
        want = enforce_connectivity(svmap, min_size_voxels=bound)
        got = enforce_connectivity(SupervoxelMap(permuted, svmap.spacing),
                                   min_size_voxels=bound)
        assert np.array_equal(got.ids, want.ids) and got.count == want.count


@pytest.mark.parametrize("kind", _MAP_KINDS)
def test_slic3d_drops_ids_of_empty_clusters(monkeypatch, kind):
    rng = np.random.default_rng([7011, _MAP_KINDS.index(kind)])
    for _ in range(10):
        ids = np.asarray(_fragmented_map(rng, kind).ids)
        # cluster IDs with gaps below, between and above the used ones, as the
        # [x, y, z] view of a z-major array that ``_slic_state`` returns
        labels = (3 * rng.permutation(int(ids.max()) + 2)[ids] + 1).astype(np.int32)
        labels = np.ascontiguousarray(labels.transpose(2, 0, 1)).transpose(1, 2, 0)
        step = float(rng.uniform(1.0, 3.0))
        monkeypatch.setattr(supervoxel, "_slic_state", lambda vol, params: (labels, None, None, step))
        vol = Volume(np.zeros(ids.shape, dtype=np.float32), (1.0, 1.0, 2.0))
        raw = compact_ids(labels)
        want = enforce_connectivity(SupervoxelMap(raw, vol.spacing),
                                    min_size_voxels=step ** 3 / 4.0 / vol.voxel_volume_mm3)
        got = slic3d(vol, SlicParams(k=1))
        assert np.array_equal(got.ids, want.ids) and got.count == want.count


def _oracle_components(ids):
    """``flood_components_6`` once per ID, numbered by first voxel in scan order."""
    key, total = np.zeros(ids.shape, dtype=np.int64), 0
    for v in np.unique(ids):
        inside = ids == v
        labels, n = flood_components_6(inside)
        key[inside] = labels[inside] + total
        total += n
    _, first, inverse = np.unique(key.ravel(), return_index=True, return_inverse=True)
    rank = np.argsort(np.argsort(first))
    return rank[inverse].reshape(ids.shape), np.sort(first), total


def _assert_components_match_oracle(ids):
    comp, first = _equal_id_components(ids)
    want, want_first, count = _oracle_components(ids)
    assert np.array_equal(comp, want)
    assert np.array_equal(first, want_first)
    assert len(first) == count


@pytest.mark.parametrize("kind", _MAP_KINDS)
def test_equal_id_components_are_numbered_by_first_voxel(kind):
    rng = np.random.default_rng([7008, _MAP_KINDS.index(kind)])
    for _ in range(20):
        _assert_components_match_oracle(np.asarray(_fragmented_map(rng, kind).ids))


def test_equal_id_components_on_fragment_heavy_noise_match_oracle():
    # compactness 0.3 on uniform noise leaves ~12k equal-ID components
    vol = Volume(np.random.default_rng(0).random((64, 64, 16)).astype(np.float32), (1, 1, 1))
    labels = _slic_state(vol, SlicParams(k=65, compactness=0.3))[0]
    _assert_components_match_oracle(compact_ids(labels))


def test_enforce_connectivity_on_fragment_heavy_noise_is_fast():
    # compactness 0.3 on uniform noise leaves ~12k equal-ID components
    vol = Volume(np.random.default_rng(0).random((64, 64, 16)).astype(np.float32), (1, 1, 1))
    labels, _, _, step = _slic_state(vol, SlicParams(k=65, compactness=0.3))
    raw = compact_ids(labels)
    svmap = SupervoxelMap(raw, vol.spacing)
    start = time.perf_counter()
    out = enforce_connectivity(svmap, min_size_voxels=step ** 3 / 4.0)
    elapsed = time.perf_counter() - start
    assert out.count >= svmap.count
    assert elapsed < 1.5, f"enforce_connectivity took {elapsed:.2f}s"


def test_slic3d_traced_peak_stays_within_three_volumes():
    """Each sweep runs in place on z-major buffers, the Lloyd update sums slab
    by slab, connectivity labels each ID on its own box, the seed gradient is
    taken at the candidates only, and IDs are renumbered on component-sized
    arrays, so ``slic3d`` holds a few float64 volumes at once. Measured peaks
    on this input, in float64 volumes of its grid: 16.0 with a full-volume
    face graph for the equal-ID components and the three axis weights held
    across the Lloyd rounds; 6.3 without them, with full-volume ID sorts and
    a padded gradient volume; 3.6 without those (3.5 on the 224x224x32
    benchmark phantom), set by whole-volume weighted ``bincount`` calls in the
    Lloyd update; 2.8 with slab-wise sums, ID checks by a bool scatter and the
    cluster labels freed before connectivity (2.8 on the phantom too), set by
    ``_assign``'s two result volumes and its ±S sweep.
    """
    shape, spacing = (96, 96, 16), (1.25, 1.25, 5.0)
    centre = tuple(n / 2 for n in shape)
    classes = sphere_labels(shape, centre, 45.0, spacing) + sphere_labels(shape, centre, 20.0, spacing)
    rng = np.random.default_rng(0)
    image = (0.2 + 0.3 * classes + 0.05 * rng.standard_normal(shape)).astype(np.float32)
    vol, params = Volume(image, spacing), SlicParams(k=int(np.prod(shape)) // 1000)
    peak = traced_peak_volumes(lambda: slic3d(vol, params), shape)
    assert peak <= 3.0, f"traced peak is {peak:.2f} float64 volumes"


@pytest.mark.parametrize("spacing", [(0.7, 0.9, 3.3), (1.25, 1.25, 5.0)], ids=str)
def test_cluster_sums_match_whole_volume_bincount(spacing):
    """The slab-wise Lloyd sums equal one whole-volume weighted ``bincount`` byte for byte."""
    rng = np.random.default_rng([7012, int(10 * spacing[0])])
    for shape in ((13, 11, 5), (31, 24, 7)):
        n = 60
        used = rng.choice(n, size=40, replace=False)  # 20 clusters stay empty
        # z-major labels and intensity in their [x, y, z] view, as ``_slic_state`` holds them
        labels, intensity = (np.ascontiguousarray(a.transpose(2, 0, 1)).transpose(1, 2, 0) for a in
                             (used[rng.integers(0, len(used), size=shape)].astype(np.int32),
                              rng.random(shape)))
        coords_mm = tuple(np.arange(k) * s for k, s in zip(shape, spacing))
        got = _cluster_sums(labels, intensity, coords_mm, n)
        want = reference_cluster_sums(labels, intensity, coords_mm, n)
        assert (got[0] == 0).sum() == n - len(used)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()


def _assign_inputs(seed, spacing, quantised, jitter, shape=(20, 18, 8), k=24):
    """Intensities in [0, 1] and centres as ``_assign`` receives them.

    Without ``jitter`` the centres sit on voxels of the seed lattice with the
    intensity found there (a first sweep: many equal distances); with it they
    move up to S/2 off the lattice and take random intensities (a later sweep).
    """
    rng = np.random.default_rng([seed, int(quantised), int(jitter)])
    intensity = rng.random(shape)
    if quantised:
        intensity = np.floor(intensity * 3.0) / 2.0  # levels 0, 0.5, 1
    spacing = np.asarray(spacing)
    coords_mm = tuple(np.arange(n) * s for n, s in zip(shape, spacing))
    seeds_mm, step = _seed_grid(shape, spacing, k)
    idx = np.round(seeds_mm / spacing - 0.5).astype(np.int64)
    centers_pos = idx * spacing
    centers_int = intensity[idx[:, 0], idx[:, 1], idx[:, 2]]
    if jitter:
        centers_pos = centers_pos + rng.uniform(-step / 2, step / 2, size=centers_pos.shape)
        centers_int = rng.random(len(centers_int))
        if quantised:
            centers_int = np.floor(centers_int * 3.0) / 2.0
    return intensity, coords_mm, centers_pos, centers_int, step


@pytest.mark.parametrize("jitter", [False, True], ids=["lattice", "jittered"])
@pytest.mark.parametrize("quantised", [False, True], ids=["noise", "quantised"])
@pytest.mark.parametrize("compactness", [10.0, 1.0, 0.3, 0.1])
@pytest.mark.parametrize("spacing", [(1.25, 1.25, 5.0), (1.0, 1.0, 1.0)], ids=["aniso", "iso"])
def test_assign_matches_full_window_loop(spacing, compactness, quantised, jitter):
    args = _assign_inputs(11, spacing, quantised, jitter)
    want_labels, want_d2 = brute_assign(*args, compactness)
    got_labels, got_d2 = _assign(*args, compactness)
    assert np.array_equal(got_labels, want_labels)
    assert np.array_equal(got_d2, want_d2)


def test_assign_rechecks_voxels_the_short_windows_cannot_settle():
    compactness = 0.3
    args = _assign_inputs(3, (1.0, 1.0, 1.0), quantised=False, jitter=True)
    want_labels, want_d2 = brute_assign(*args, compactness)
    # A voxel whose full-window best D² is not below m² cannot have been settled
    # by the ±S pass (its ±S best is no smaller), so these voxels were rechecked.
    assert int((want_d2 >= compactness ** 2 * (1.0 - 1e-9)).sum()) > 0
    got_labels, got_d2 = _assign(*args, compactness)
    assert np.array_equal(got_labels, want_labels)
    assert np.array_equal(got_d2, want_d2)


@pytest.mark.parametrize("corners", [((0, 0, 0),), ((-1, -1, -1),), ((0, 0, 0), (-1, -1, -1))],
                         ids=["first", "last", "both"])
def test_recheck_box_reaches_a_lone_voxel_and_opposite_corners(corners):
    """The ±2S recheck is clipped to the bounding box of its voxels: one voxel at
    either end of the grid, or two in opposite corners (a box of the whole grid)."""
    compactness = 10.0
    intensity, coords_mm, centers_pos, centers_int, step = _assign_inputs(
        11, (1.25, 1.25, 5.0), quantised=False, jitter=False)
    want_labels, want_d2 = brute_assign(intensity, coords_mm, centers_pos, centers_int, step,
                                        compactness)
    zxy = np.ascontiguousarray(intensity.transpose(2, 0, 1))
    labels, best_d2 = np.full(zxy.shape, -1, dtype=np.int32), np.full(zxy.shape, np.inf)
    args = (zxy, coords_mm, centers_pos, centers_int, (compactness / step) ** 2)
    _sweep(*args, step, labels, best_d2)
    assert (best_d2 < compactness ** 2 * (1.0 - 1e-9)).all()  # every voxel is certified
    only = np.zeros(zxy.shape, dtype=bool)
    for x, y, z in corners:
        only[z, x, y] = True
    labels[only], best_d2[only] = -1, np.inf
    _sweep(*args, 2.0 * step, labels, best_d2, only=only)
    assert np.array_equal(labels.transpose(1, 2, 0), want_labels)
    assert np.array_equal(best_d2.transpose(1, 2, 0), want_d2)


@pytest.mark.parametrize("half_steps", [2.0, np.inf], ids=["2S", "unbounded"])
def test_sweep_updates_only_the_only_voxels(half_steps):
    """With ``only``, a voxel outside it keeps its label and D², even inside the
    clipped box (here the whole grid) with D² = inf; the ``only`` voxels get the
    windowed winner of the full-window loop, or with unbounded windows the
    nearest of all centres."""
    compactness = 10.0
    intensity, coords_mm, centers_pos, centers_int, step = _assign_inputs(
        11, (1.25, 1.25, 5.0), quantised=False, jitter=True)
    zxy = np.ascontiguousarray(intensity.transpose(2, 0, 1))
    labels, best_d2 = np.full(zxy.shape, -1, dtype=np.int32), np.full(zxy.shape, np.inf)
    only = np.zeros(zxy.shape, dtype=bool)
    only[0, 0, 0] = only[-1, -1, -1] = only[3, 9, 4] = True
    m2_over_s2 = (compactness / step) ** 2
    _sweep(zxy, coords_mm, centers_pos, centers_int, m2_over_s2, half_steps * step, labels, best_d2,
           only=only)
    assert (labels[~only] == -1).all() and np.isinf(best_d2[~only]).all()
    if half_steps == 2.0:
        want_labels, want_d2 = (a.transpose(2, 0, 1)[only] for a in brute_assign(
            intensity, coords_mm, centers_pos, centers_int, step, compactness))
    else:
        z, x, y = np.nonzero(only)
        d_sp2 = ((np.stack([coords_mm[0][x], coords_mm[1][y], coords_mm[2][z]], axis=1)[:, None]
                  - centers_pos) ** 2).sum(axis=2)
        d_int = zxy[only][:, None] - centers_int
        d2 = d_int * d_int + d_sp2 * m2_over_s2
        want_labels, want_d2 = np.argmin(d2, axis=1), d2.min(axis=1)
    assert np.array_equal(labels[only], want_labels)
    assert np.array_equal(best_d2[only], want_d2)


def test_assign_falls_back_to_all_centres_outside_every_window():
    rng = np.random.default_rng(17)
    intensity = rng.random((16, 16, 4))
    spacing = np.array([1.0, 1.0, 3.0])
    coords_mm = tuple(np.arange(n) * s for n, s in zip(intensity.shape, spacing))
    centers_pos = np.array([[0.0, 0.0, 0.0], [2.0, 1.0, 3.0], [1.0, 2.0, 0.0]])
    centers_int = np.array([0.2, 0.5, 0.5])
    step = 1.5
    grid = np.stack(np.meshgrid(*coords_mm, indexing="ij"), axis=-1)
    cheb = np.abs(grid[..., None, :] - centers_pos).max(axis=-1).min(axis=-1)
    assert (cheb > 2.0 * step + 1.0).any()  # some voxels lie clearly outside every ±2S window
    for compactness in (10.0, 0.3):
        args = (intensity, coords_mm, centers_pos, centers_int, step, compactness)
        want_labels, want_d2 = brute_assign(*args)
        got_labels, got_d2 = _assign(*args)
        assert np.array_equal(got_labels, want_labels)
        assert np.array_equal(got_d2, want_d2)

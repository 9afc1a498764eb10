import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest
from scipy.ndimage import uniform_filter

from conftest import make_labels, sphere_labels
from oracles import brute_deletable, brute_thin_once, chebyshev_ring
from scribsup import scribble_sim
from scribsup.errors import EmptyForegroundError
from scribsup.scribble_sim import (
    SCRIBBLE_SENTINEL,
    ScribbleSet,
    merge_scribbles,
    scribbles_from_label_volume,
    scribbles_to_label_volume,
    simulate_background_scribble,
    simulate_foreground_scribbles,
)


def _scribble_slice_mask(scribbles, z, shape):
    mask = np.zeros(shape[:2], dtype=bool)
    for x, y, zz in scribbles.indices:
        if zz == z:
            mask[x, y] = True
    return mask


def _has_2x2_block(mask):
    return bool((mask[:-1, :-1] & mask[1:, :-1] & mask[:-1, 1:] & mask[1:, 1:]).any())


def test_single_voxel_is_its_own_scribble():
    gt = np.zeros((8, 8, 2), dtype=np.uint16)
    gt[4, 4, 0] = 1
    scr = simulate_foreground_scribbles(make_labels(gt, 2))
    assert len(scr) == 1
    assert tuple(scr.indices[0]) == (4, 4, 0)
    assert scr.classes[0] == 1


def test_filled_square_skeleton_contained_and_thin():
    gt = np.zeros((32, 32, 1), dtype=np.uint16)
    gt[10:19, 10:19, 0] = 1
    scr = simulate_foreground_scribbles(make_labels(gt, 2))
    assert len(scr) >= 1
    for x, y, z in scr.indices:
        assert gt[x, y, z] == 1
    mask = _scribble_slice_mask(scr, 0, gt.shape)
    assert not _has_2x2_block(mask)


def test_straight_line_returned_unchanged():
    gt = np.zeros((16, 16, 1), dtype=np.uint16)
    gt[3:12, 8, 0] = 1
    scr = simulate_foreground_scribbles(make_labels(gt, 2))
    got = sorted((int(x), int(y)) for x, y, _ in scr.indices)
    assert got == [(x, 8) for x in range(3, 12)]


# (row, col) in a 3x3 window of neighbour P(i+2), i = 0..7, clockwise from north
_CLOCKWISE = [(0, 1), (0, 2), (1, 2), (2, 2), (2, 1), (2, 0), (1, 0), (0, 0)]


def test_deletion_tables_match_brute_rule_on_all_codes():
    for code in range(256):
        window = np.zeros((3, 3), dtype=bool)
        window[1, 1] = True
        for i, (r, c) in enumerate(_CLOCKWISE):
            window[r, c] = bool(code >> i & 1)
        assert scribble_sim._codes(window)[1, 1] == code
        if not 2 <= window.sum() - 1 <= 6:  # B outside 2..6: never a candidate in either subpass
            assert not scribble_sim._WALK[:, code].any(), code
        for first_pass, table in zip((True, False), scribble_sim._WALK):
            assert table[code] & 1 == brute_deletable(window, 1, 1, first_pass), (code, first_pass)


def _thinning_masks():
    """Every shape with an axis of 1-3 pixels (up to 13), all-true and
    all-false masks, then seeded random masks of 1-13 x 1-13 pixels at
    random densities."""
    rng = np.random.default_rng(18)
    shapes = [(h, w) for h in range(1, 14) for w in range(1, 14) if min(h, w) <= 3]
    for shape in shapes:
        yield rng.random(shape) < rng.uniform(0.2, 0.9)
    for shape in [(1, 1), (2, 2), (3, 3), (7, 5), (13, 13)]:
        yield np.ones(shape, dtype=bool)
        yield np.zeros(shape, dtype=bool)
    for _ in range(2000):
        h, w = (int(v) for v in rng.integers(1, 14, size=2))
        yield rng.random((h, w)) < rng.uniform(0.1, 0.95)


def test_thin_once_matches_pixel_by_pixel_oracle():
    for mask in _thinning_masks():
        assert np.array_equal(scribble_sim._thin_once(mask), brute_thin_once(mask)), mask.astype(int)


def test_multi_class_multi_slice_fidelity_and_sparsity():
    gt = np.zeros((40, 40, 4), dtype=np.uint16)
    gt[4:16, 4:16, 1] = 1
    gt[20:33, 18:30, 1] = 2
    gt[6:20, 22:36, 2] = 2
    lab = make_labels(gt, 3)
    scr = simulate_foreground_scribbles(lab)
    for (x, y, z), c in zip(scr.indices, scr.classes):
        assert gt[x, y, z] == c
    for z in range(4):
        for c in (1, 2):
            region = gt[:, :, z] == c
            if not region.any():
                continue
            count = sum(
                1
                for (x, y, zz), cc in zip(scr.indices, scr.classes)
                if zz == z and cc == c
            )
            assert count >= 1
            assert count <= 0.2 * region.sum()
            sl = np.zeros(gt.shape[:2], dtype=bool)
            for (x, y, zz), cc in zip(scr.indices, scr.classes):
                if zz == z and cc == c:
                    sl[x, y] = True
            assert not _has_2x2_block(sl)


def test_empty_foreground_raises():
    gt = np.zeros((8, 8, 2), dtype=np.uint16)
    with pytest.raises(EmptyForegroundError):
        simulate_foreground_scribbles(make_labels(gt, 2))
    with pytest.raises(EmptyForegroundError):
        simulate_background_scribble(make_labels(gt, 2), 10)


def test_background_ring_matches_chebyshev_oracle():
    gt = np.zeros((32, 32, 1), dtype=np.uint16)
    gt[14:17, 14:17, 0] = 1
    scr = simulate_background_scribble(make_labels(gt, 2), margin_vox=4)
    got = {(int(x), int(y)) for x, y, _ in scr.indices}
    assert got == chebyshev_ring(gt[:, :, 0] == 1, 4)
    assert np.all(scr.classes == 0)


def test_background_contour_clipped_at_border():
    gt = np.zeros((16, 16, 1), dtype=np.uint16)
    gt[0:3, 6:9, 0] = 1  # touches the x=0 border
    scr = simulate_background_scribble(make_labels(gt, 2), margin_vox=4)
    full_ring = chebyshev_ring(gt[:, :, 0] == 1, 4)
    got = {(int(x), int(y)) for x, y, _ in scr.indices}
    assert got
    assert got <= full_ring
    assert len(got) < 2 * len(full_ring)  # open curve, no wraparound invention
    for x, y, z in scr.indices:
        assert gt[x, y, z] == 0


def test_background_skips_empty_slices():
    gt = np.zeros((24, 24, 3), dtype=np.uint16)
    gt[10:13, 10:13, 1] = 1
    scr = simulate_background_scribble(make_labels(gt, 2), margin_vox=3)
    assert set(int(z) for _, _, z in scr.indices) == {1}


def test_sphere_scribbles_on_anisotropic_grid():
    gt = sphere_labels((24, 24, 8), (12, 12, 4), 7.0, spacing=(1, 1, 3))
    lab = make_labels(gt, 2, spacing=(1, 1, 3))
    fg = simulate_foreground_scribbles(lab)
    bg = simulate_background_scribble(lab, margin_vox=3)
    merged = merge_scribbles(fg, bg)
    for (x, y, z), c in zip(merged.indices, merged.classes):
        assert gt[x, y, z] == c if c else gt[x, y, z] == 0


@pytest.mark.parametrize("shape, spacing", [((8, 8, 3), (1, 1, 1)), ((8, 8, 2), (1, 1, 5))],
                         ids=["shape", "spacing"])
def test_merge_rejects_sets_on_another_grid(shape, spacing):
    a = ScribbleSet([[1, 1, 1]], [1], 2, (8, 8, 2), (1, 1, 1))
    b = ScribbleSet([[2, 2, 1]], [0], 2, shape, spacing)
    with pytest.raises(ValueError, match="different grids"):
        merge_scribbles(a, b)


def test_label_volume_round_trip():
    gt = np.zeros((10, 10, 2), dtype=np.uint16)
    gt[2:7, 4, 0] = 1
    lab = make_labels(gt, 2)
    scr = simulate_foreground_scribbles(lab)
    vol = scribbles_to_label_volume(scr)
    assert vol.data[0, 0, 0] == SCRIBBLE_SENTINEL
    back = scribbles_from_label_volume(vol, num_classes=2)
    assert back.num_classes == 2
    assert sorted(map(tuple, back.indices)) == sorted(map(tuple, scr.indices))
    assert np.array_equal(np.sort(back.classes), np.sort(scr.classes))


@pytest.mark.parametrize("num_classes", [-3, 1, 2.5, True])
def test_label_volume_class_count_is_zero_or_at_least_two(num_classes):
    vol = scribbles_to_label_volume(ScribbleSet([[1, 1, 1]], [1], 2, (4, 4, 2), (1, 1, 1)))
    assert scribbles_from_label_volume(vol, 0).num_classes == 2
    with pytest.raises(ValueError, match="num_classes"):
        scribbles_from_label_volume(vol, num_classes)


def test_scribble_set_refuses_indices_not_shaped_k_by_3():
    # both used to be reshaped to (K, 3) and stored as the wrong voxels, without an error
    mask = np.zeros((8, 8, 8), dtype=bool)
    mask[np.arange(6), np.arange(6), 2] = True
    for indices in (np.array(np.nonzero(mask)), np.zeros((2, 6), dtype=np.int64)):
        with pytest.raises(ValueError, match=re.escape(f"(K, 3), got {indices.shape}")):
            ScribbleSet(indices, np.ones(len(indices.T), dtype=np.uint16), 2, mask.shape, (1, 1, 1))


@pytest.mark.parametrize("n_indices, n_classes", [(2, 1), (1, 2)])
def test_scribble_set_refuses_indices_and_classes_of_different_lengths(n_indices, n_classes):
    with pytest.raises(ValueError, match="indices and classes length mismatch"):
        ScribbleSet(np.arange(3 * n_indices).reshape(n_indices, 3), np.ones(n_classes, np.uint16),
                    2, (8, 8, 8), (1, 1, 1))


def test_label_volume_refuses_a_class_count_that_collides_with_the_sentinel():
    scribbles = ScribbleSet([[1, 1, 1]], [1], SCRIBBLE_SENTINEL, (4, 4, 2), (1, 1, 1))
    assert scribbles_to_label_volume(scribbles).data[1, 1, 1] == 1
    with pytest.raises(ValueError, match="collides with the sentinel"):
        scribbles_to_label_volume(ScribbleSet([[1, 1, 1]], [1], SCRIBBLE_SENTINEL + 1, (4, 4, 2),
                                              (1, 1, 1)))


def test_scribble_set_rejects_conflicts():
    with pytest.raises(ValueError):
        ScribbleSet(
            np.array([[1, 1, 1], [1, 1, 1]]),
            np.array([1, 2]),
            3,
            (4, 4, 4),
            (1, 1, 1),
        )
    # duplicate with the same class is fine
    ScribbleSet(
        np.array([[1, 1, 1], [1, 1, 1]]),
        np.array([2, 2]),
        3,
        (4, 4, 4),
        (1, 1, 1),
    )


# sha256 of the foreground and background scribbles on small label volumes,
# captured with the per-pixel deletion test and the per-slice emission loops
# that preceded the lookup tables and whole-volume passes. Scribbles must stay
# byte-identical, so the file is never regenerated. It was written by running
# this module's helpers against that commit's tree, from the repository root:
#   D=$(mktemp -d) && git archive f152863 | tar -x -C "$D"
#   cp tests/test_scribble_sim.py tests/oracles.py "$D/tests/" && cd "$D"
#   PYTHONPATH=src:tests python -c "import json, test_scribble_sim as t; print(json.dumps(
#       {n: t._scribble_digest(*c) for n, c in t._scribble_golden_cases().items()},
#       indent=2, sort_keys=True))" > tests/data/scribble_golden.json
SCRIBBLE_GOLDEN_PATH = Path(__file__).parent / "data" / "scribble_golden.json"


def _scribble_golden_cases():
    """Name -> (labels, margin): several classes, an empty slice, border contact,
    a 1-px line, a 2-px bar, seeded random blobs, an anisotropic sphere and noise."""
    shapes = np.zeros((40, 36, 5), dtype=np.uint16)
    x, y = np.indices((40, 36))
    shapes[..., 0][(x - 3) ** 2 + (y - 12) ** 2 <= 49] = 1  # cut by the x = 0 border
    shapes[22:34, 4:19, 0] = 2
    shapes[8:26, 28, 1] = 3  # 1-px line
    shapes[30:32, 2:30, 1] = 3  # 2-px bar
    shapes[35:40, 30:36, 1] = 1  # corner block
    # slice 2 stays empty
    shapes[5:35, 5:31, 3] = 2
    shapes[12:28, 12:24, 3] = 1  # hole of class 1 inside class 2
    shapes[:, :, 4] = ((x // 6 + y // 5) % 3).astype(np.uint16)  # checkerboard to all borders
    smooth = uniform_filter(np.random.default_rng(6006).random((30, 27, 5)), (5, 5, 1))
    blobs = np.digitize(smooth, np.quantile(smooth, [0.45, 0.7, 0.88])).astype(np.uint16)
    blobs[:, :, 3] = 0
    sphere = sphere_labels((24, 24, 8), (11, 13, 4), 8.0, spacing=(1, 1, 3))
    # thresholded smooth noise: thinning leaves 2x2 blocks for the block removal
    noise = (uniform_filter(np.random.default_rng(5).random((24, 24, 16)), (3, 3, 1)) > 0.5)
    return {
        "shapes_m1": (make_labels(shapes, 4), 1),
        "shapes_m4": (make_labels(shapes, 4), 4),
        "blobs_m2": (make_labels(blobs, 4, spacing=(1.0, 1.2, 3.0)), 2),
        "blobs_m5": (make_labels(blobs, 4, spacing=(1.0, 1.2, 3.0)), 5),  # no ring survives
        "sphere_m3": (make_labels(sphere, 2, spacing=(1, 1, 3)), 3),
        "noise_m2": (make_labels(noise, 2), 2),
    }


def _scribble_digest(labels, margin):
    out = {}
    for name, scr in (("fg", simulate_foreground_scribbles(labels)),
                      ("bg", simulate_background_scribble(labels, margin))):
        data = np.ascontiguousarray(scr.indices, dtype="<i8").tobytes()
        data += np.ascontiguousarray(scr.classes, dtype="<u2").tobytes()
        out[name] = {"count": len(scr), "num_classes": scr.num_classes,
                     "sha256": hashlib.sha256(data).hexdigest()}
    return out


@pytest.mark.parametrize("name", sorted(_scribble_golden_cases()))
def test_scribbles_match_pre_change_golden(name):
    golden = json.loads(SCRIBBLE_GOLDEN_PATH.read_text())[name]
    assert _scribble_digest(*_scribble_golden_cases()[name]) == golden


def _random_slice_masks(n):
    """Seeded masks of thresholded smooth noise in a random sub-rectangle of a
    random-sized slice; about 40 % touch the slice border."""
    rng = np.random.default_rng(2024)
    for _ in range(n):
        h, w = (int(v) for v in rng.integers(6, 26, size=2))
        mask = np.zeros((h, w), dtype=bool)
        x0, y0 = int(rng.integers(0, h - 2)), int(rng.integers(0, w - 2))
        x1, y1 = int(rng.integers(x0 + 2, h + 1)), int(rng.integers(y0 + 2, w + 1))
        mask[x0:x1, y0:y1] = uniform_filter(rng.random((x1 - x0, y1 - y0)), 3) > rng.uniform(0.35, 0.6)
        mask[x0, y0] |= not mask.any()
        yield mask


def test_box_skeleton_equals_full_slice_skeleton():
    # A 2-pixel margin is the least that is exact: with margin 0 or 1 most of
    # these masks give a different skeleton.
    masks = list(_random_slice_masks(400))
    assert sum(m[[0, -1]].any() or m[:, [0, -1]].any() for m in masks) >= 100
    for mask in masks:
        box, skeleton = scribble_sim._box_skeleton(mask)
        got = np.zeros_like(mask)
        got[box] = skeleton
        assert np.array_equal(got, scribble_sim._slice_skeleton(mask))

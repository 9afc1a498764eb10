import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import sphere_labels, traced_peak_volumes
from oracles import brute_hd95
from scribsup.errors import ShapeMismatchError
from scribsup.metrics import dice, evaluate, hd95, precision
from scribsup.volume_io import LabelVolume


def _labels_from(mask, spacing=(1.0, 1.0, 1.0)):
    return LabelVolume(mask.astype(np.uint16), spacing, 2)


def test_dice_identity_and_disjoint():
    a = np.zeros((6, 6, 6), dtype=np.uint16)
    a[1:4, 1:4, 1:4] = 1
    b = np.zeros_like(a)
    b[4:6, 4:6, 4:6] = 1
    assert dice(_labels_from(a), _labels_from(a), 1) == 1.0
    assert dice(_labels_from(a), _labels_from(b), 1) == 0.0
    assert dice(_labels_from(b * 0), _labels_from(b * 0), 1) == 1.0  # both empty
    assert dice(_labels_from(a), _labels_from(b * 0), 1) == 0.0  # one empty


def test_dice_shifted_block_hand_count():
    p = np.zeros((8, 8, 1), dtype=np.uint16)
    g = np.zeros_like(p)
    p[2:5, 2:5, 0] = 1
    g[3:6, 2:5, 0] = 1
    assert dice(_labels_from(p), _labels_from(g), 1) == pytest.approx(2 * 6 / (9 + 9))


def test_precision_cases():
    g = np.zeros((6, 6, 2), dtype=np.uint16)
    g[1:5, 1:5, :] = 1
    inside = np.zeros_like(g)
    inside[2:4, 2:4, :] = 1
    assert precision(_labels_from(inside), _labels_from(g), 1) == 1.0
    outside = np.zeros_like(g)
    outside[5, 5, :] = 1
    assert precision(_labels_from(outside), _labels_from(g), 1) == 0.0
    assert precision(_labels_from(g * 0), _labels_from(g), 1) is None


def test_precision_hand_counts():
    p = np.zeros((4, 4, 1), dtype=np.uint16)
    g = np.zeros_like(p)
    p[0, 0:3, 0] = 1  # 3 voxels
    p[1, 0:3, 0] = 1
    p[2, 0:3, 0] = 1  # 9 predicted
    g[0:2, 0:3, 0] = 1  # first 6 are TP, last 3 FP
    assert precision(_labels_from(p), _labels_from(g), 1) == pytest.approx(2 / 3)


def test_hd95_identity_zero():
    m = sphere_labels((10, 10, 10), (5, 5, 5), 3.0)
    assert hd95(_labels_from(m), _labels_from(m), 1) == 0.0


def test_hd95_parallel_planes_constant_distance():
    p = np.zeros((6, 6, 8), dtype=np.uint16)
    g = np.zeros_like(p)
    p[:, :, 2] = 1
    g[:, :, 5] = 1
    got = hd95(_labels_from(p, (1, 1, 2)), _labels_from(g, (1, 1, 2)), 1)
    assert got == pytest.approx(6.0, abs=1e-12)


def test_hd95_empty_region_is_undefined():
    m = sphere_labels((8, 8, 8), (4, 4, 4), 2.0)
    empty = np.zeros_like(m)
    assert hd95(_labels_from(m), _labels_from(empty), 1) is None
    assert hd95(_labels_from(empty), _labels_from(m), 1) is None


def test_hd95_matches_bruteforce_on_random_blobs(rng):
    for _ in range(15):
        shape = tuple(int(s) for s in rng.integers(4, 13, size=3))
        spacing = tuple(float(s) for s in rng.uniform(0.5, 4.0, size=3))
        p = rng.random(shape) > 0.7
        g = rng.random(shape) > 0.7
        if not p.any() or not g.any():
            continue
        got = hd95(_labels_from(p, spacing), _labels_from(g, spacing), 1)
        want = brute_hd95(p, g, spacing)
        assert got == pytest.approx(want, abs=1e-9)



def _hd95_crop_cases():
    """Name -> (pred, gt): sets whose joint box is small, at the border, or wide."""
    shape = (24, 20, 10)
    border_p, border_g = np.zeros(shape, bool), np.zeros(shape, bool)
    border_p[:4, :3, :2] = True  # touches three faces of the image
    border_g[1:6, :2, :3] = True
    single_p, single_g = np.zeros(shape, bool), np.zeros(shape, bool)
    single_p[9, 7, 4] = True  # a one-voxel class
    single_g[7:13, 5:9, 3:6] = True
    far_p, far_g = np.zeros(shape, bool), np.zeros(shape, bool)
    far_p[1:3, 1:4, 0:2] = True  # opposite corners of the image
    far_g[20:23, 16:19, 8:10] = True
    return {"border": (border_p, border_g), "one_voxel": (single_p, single_g),
            "far_apart": (far_p, far_g)}


@pytest.mark.parametrize("spacing", [(1.0, 1.0, 1.0), (1.25, 1.25, 5.0), (0.7, 0.9, 3.3)])
@pytest.mark.parametrize("case", sorted(_hd95_crop_cases()))
def test_hd95_on_a_joint_box_matches_bruteforce(case, spacing):
    p, g = _hd95_crop_cases()[case]
    for a, b in ((p, g), (g, p)):
        got = hd95(_labels_from(a, spacing), _labels_from(b, spacing), 1)
        assert got == pytest.approx(brute_hd95(a, b, spacing), abs=1e-9)

def test_hd95_spacing_doubling_doubles_distance(rng):
    shape = (9, 9, 9)
    p = rng.random(shape) > 0.6
    g = rng.random(shape) > 0.6
    base = hd95(_labels_from(p, (1, 1, 2)), _labels_from(g, (1, 1, 2)), 1)
    doubled = hd95(_labels_from(p, (2, 2, 4)), _labels_from(g, (2, 2, 4)), 1)
    assert doubled == pytest.approx(2 * base, rel=1e-12)
    assert dice(_labels_from(p, (2, 2, 4)), _labels_from(g, (2, 2, 4)), 1) == dice(
        _labels_from(p, (1, 1, 2)), _labels_from(g, (1, 1, 2)), 1
    )


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_symmetry_dice_and_hd95(seed):
    r = np.random.default_rng(seed)
    shape = tuple(int(s) for s in r.integers(3, 9, size=3))
    p = r.random(shape) > 0.6
    g = r.random(shape) > 0.6
    lp, lg = _labels_from(p), _labels_from(g)
    assert dice(lp, lg, 1) == dice(lg, lp, 1)
    if p.any() and g.any():
        assert hd95(lp, lg, 1) == pytest.approx(hd95(lg, lp, 1), abs=1e-12)


def test_hd95_bounded_by_exact_hausdorff(rng):
    for _ in range(10):
        shape = (7, 7, 7)
        p = rng.random(shape) > 0.65
        g = rng.random(shape) > 0.65
        if not p.any() or not g.any():
            continue
        from oracles import boundary_set

        bp = boundary_set(p)
        bg = boundary_set(g)
        diff = bp[:, None, :] - bg[None, :, :]
        dmat = np.sqrt((diff ** 2).sum(axis=2))
        exact_hausdorff = max(dmat.min(axis=1).max(), dmat.min(axis=0).max())
        assert hd95(_labels_from(p), _labels_from(g), 1) <= exact_hausdorff + 1e-12


def test_evaluate_report(rng):
    gt = np.zeros((10, 10, 4), dtype=np.uint16)
    gt[2:6, 2:6, :] = 1
    gt[7:9, 7:9, :] = 2
    pred = gt.copy()
    pred[2, 2, :] = 0  # slight undersegmentation of class 1
    pred[pred == 2] = 0  # class 2 entirely missing
    p = LabelVolume(pred, (1, 1, 1), 3)
    g = LabelVolume(gt, (1, 1, 1), 3)
    report = evaluate(p, g)
    assert len(report.per_class) == 2
    c1, c2 = report.per_class
    assert c1.class_id == 1 and 0.9 < c1.dice < 1.0
    assert c2.dice == 0.0 and c2.hd95_mm is None and c2.precision is None
    assert {(u["class_id"], u["metric"]) for u in report.undefined} == {
        (2, "hd95_mm"),
        (2, "precision"),
    }
    # means exclude undefined entries
    assert report.mean_hd95_mm == pytest.approx(c1.hd95_mm)
    assert report.mean_precision == pytest.approx(c1.precision)
    d = report.to_dict()
    assert set(d) == {"classes", "mean", "undefined"}
    assert set(d["mean"]) == {"dice", "hd95_mm", "precision"}


def test_evaluate_report_pins_order_and_means():
    # row 0: class 1 in both; row 1: class 2 in GT only; row 2: class 3 in
    # prediction only; class 4 in neither
    gt = np.zeros((3, 6, 1), dtype=np.uint16)
    pred = np.zeros_like(gt)
    gt[0, :, 0] = 1
    pred[0, 2:4, 0] = 1
    gt[1, :2, 0] = 2
    pred[2, :2, 0] = 3
    spacing = (1.0, 0.5, 2.0)
    report = evaluate(LabelVolume(pred, spacing, 5), LabelVolume(gt, spacing, 5))
    assert report.to_dict() == {
        "classes": [
            {"class_id": 1, "dice": 0.5, "hd95_mm": 1.0, "precision": 1.0},
            {"class_id": 2, "dice": 0.0, "hd95_mm": None, "precision": None},
            {"class_id": 3, "dice": 0.0, "hd95_mm": None, "precision": 0.0},
            {"class_id": 4, "dice": 1.0, "hd95_mm": None, "precision": None},
        ],
        "mean": {"dice": 0.375, "hd95_mm": 1.0, "precision": 0.5},
        "undefined": [
            {"class_id": 2, "metric": "hd95_mm"},
            {"class_id": 2, "metric": "precision"},
            {"class_id": 3, "metric": "hd95_mm"},
            {"class_id": 4, "metric": "hd95_mm"},
            {"class_id": 4, "metric": "precision"},
        ],
    }


def test_evaluate_traced_peak_is_bounded():
    """Each HD95 distance map is read at the other boundary and freed before the
    next one is built. Measured peaks in float64 volumes of this grid: 4.62
    with both maps alive at once; 4.11 with one, nearly all of it inside the
    distance transform (its feature, index and float64 offset arrays)."""
    shape, spacing = (96, 96, 16), (1.25, 1.25, 5.0)
    centre = tuple(n / 2 for n in shape)
    gt = sphere_labels(shape, centre, 45.0, spacing) + sphere_labels(shape, centre, 20.0, spacing)
    moved = (centre[0] + 3, centre[1] - 2, centre[2] + 1)
    pred = sphere_labels(shape, moved, 40.0, spacing) + sphere_labels(shape, moved, 24.0, spacing)
    pred, gt = LabelVolume(pred, spacing, 3), LabelVolume(gt, spacing, 3)
    peak = traced_peak_volumes(lambda: evaluate(pred, gt), shape)
    assert peak <= 4.35, f"traced peak is {peak:.2f} float64 volumes"


def test_shape_mismatch():
    a = _labels_from(np.zeros((4, 4, 4), dtype=np.uint16))
    b = _labels_from(np.zeros((4, 4, 5), dtype=np.uint16))
    with pytest.raises(ShapeMismatchError):
        dice(a, b, 1)
    with pytest.raises(ShapeMismatchError):
        evaluate(a, b)

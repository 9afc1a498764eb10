"""Scribble-to-volume label propagation and the static boundary volume.

Propagation paints every supervoxel that is crossed by scribbles of exactly
one class with that class and marks it confident; untouched or
multiply-labeled supervoxels stay background with zero confidence. One
per-supervoxel confidence vector decides both outputs. The static boundary
stacks per-slice 2D edge maps (gradient magnitude, per-slice min-max
normalization, non-maximum suppression along one of four axes whose
neighbour pairs come from one table, fixed threshold) into a binary volume
that never changes during training.
"""

from __future__ import annotations

import numpy as np

from .errors import check_setting
from .volume_io import BinaryVolume, LabelVolume, PseudoLabels, ScribbleSet, SupervoxelMap, Volume
from .volume_io import _check_same_grid, _normalize

__all__ = ["PseudoLabels", "propagate", "static_boundary"]

# tan(22.5 deg) and tan(67.5 deg): direction quantization bounds for NMS.
_TAN_LO = 0.4142135623730951
_TAN_HI = 2.414213562373095
# Forward neighbour step of each NMS axis: horizontal, vertical, diagonal up, diagonal down.
_STEPS = ((1, 0), (0, 1), (1, 1), (1, -1))


def propagate(scribbles: ScribbleSet, sv: SupervoxelMap) -> PseudoLabels:
    """Expand scribbles to supervoxel-constant pseudo labels.

    A supervoxel hit by exactly one scribble class takes that class with
    confidence 1; supervoxels hit by zero or multiple classes get class 0
    and confidence 0.

    Raises:
        ShapeMismatchError: scribbles and supervoxel map lie on different grids.
    """
    _check_same_grid(scribbles, sv, "scribbles and supervoxels")
    idx = scribbles.indices
    sv_at = sv.ids[idx[:, 0], idx[:, 1], idx[:, 2]]
    pairs = np.unique(np.stack([sv_at, scribbles.classes.astype(np.int64)], axis=1), axis=0)
    confident = np.bincount(pairs[:, 0], minlength=sv.count) == 1
    label_of = np.zeros(sv.count, dtype=np.uint16)
    label_of[pairs[:, 0]] = pairs[:, 1]
    label_of[~confident] = 0
    return PseudoLabels(
        LabelVolume(label_of[sv.ids], sv.spacing, scribbles.num_classes),
        BinaryVolume(confident.astype(np.uint8)[sv.ids], sv.spacing),
    )


def _slice_edges(img: np.ndarray, threshold: float) -> np.ndarray:
    """Edge map of one slice: normalized gradient magnitude + NMS + threshold.

    Gradients use central differences with a replicated border. The gradient
    direction is folded to gx >= 0 and quantized to one of the four ``_STEPS`` axes; a pixel
    survives suppression when its magnitude is >= the backward neighbor and
    > the forward neighbor along that axis (out-of-bounds neighbors count 0).
    """
    pad = np.pad(img.astype(np.float64), 1, mode="edge")
    gx = (pad[2:, 1:-1] - pad[:-2, 1:-1]) / 2.0
    gy = (pad[1:-1, 2:] - pad[1:-1, :-2]) / 2.0
    mag = _normalize(np.sqrt(gx * gx + gy * gy))  # a flat slice gives zeros, hence no edges

    # folded to gx >= 0, a diagonal points up iff the signs agree; gx = gy = 0 reads vertical
    axis = 2 + ((gx > 0) != (gy > 0))
    axis[np.abs(gy) <= _TAN_LO * np.abs(gx)] = 0
    axis[np.abs(gy) >= _TAN_HI * np.abs(gx)] = 1

    h, w = mag.shape
    mpad = np.pad(mag, 1, mode="constant")
    keep = mag >= threshold
    for a, (dx, dy) in enumerate(_STEPS):
        fwd = mpad[1 + dx : h + 1 + dx, 1 + dy : w + 1 + dy]
        bwd = mpad[1 - dx : h + 1 - dx, 1 - dy : w + 1 - dy]
        keep &= (axis != a) | ((mag >= bwd) & (mag > fwd))
    return keep


def _check_edge_threshold(threshold: float) -> None:
    check_setting("edge_threshold", threshold, 0.0, 1.0, open_low=True)


def static_boundary(vol: Volume, edge_threshold: float) -> BinaryVolume:
    """Stack per-slice 2D edge maps into a static boundary volume.

    Args:
        vol: Intensity volume.
        edge_threshold: Fraction t of each slice's gradient-magnitude range,
            which must lie in (0, 1); a pixel can be kept only when its
            magnitude is >= min + t * (max - min) over that slice.
    """
    _check_edge_threshold(edge_threshold)
    out = np.zeros(vol.shape, dtype=np.uint8)
    for z in range(vol.shape[2]):
        out[:, :, z] = _slice_edges(vol.data[:, :, z], edge_threshold)
    return BinaryVolume(out, vol.spacing)

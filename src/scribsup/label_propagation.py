"""Scribble-to-volume label propagation and the static boundary volume.

Propagation paints every supervoxel that is crossed by scribbles of exactly
one class with that class and marks it confident; untouched or
multiply-labeled supervoxels stay background with zero confidence. The
static boundary stacks per-slice 2D edge maps (gradient magnitude,
per-slice normalization, non-maximum suppression, fixed threshold) into a
binary volume that never changes during training.
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
    hits = np.bincount(pairs[:, 0], minlength=sv.count)
    label_of = np.zeros(sv.count, dtype=np.uint16)
    label_of[pairs[:, 0]] = pairs[:, 1]
    unique = hits == 1
    mask_lut = np.where(unique, label_of, 0).astype(np.uint16)
    conf_lut = unique.astype(np.uint8)
    mask = mask_lut[sv.ids]
    conf = conf_lut[sv.ids]
    return PseudoLabels(
        LabelVolume(mask, sv.spacing, scribbles.num_classes),
        BinaryVolume(conf, sv.spacing),
    )


def _slice_edges(img: np.ndarray, threshold: float) -> np.ndarray:
    """Edge map of one slice: normalized gradient magnitude + NMS + threshold.

    Gradients use central differences with a replicated border. The gradient
    direction is folded to gx >= 0 and quantized to one of four axes; a pixel
    survives suppression when its magnitude is >= the backward neighbor and
    > the forward neighbor along that axis (out-of-bounds neighbors count 0).
    """
    pad = np.pad(img.astype(np.float64), 1, mode="edge")
    gx = (pad[2:, 1:-1] - pad[:-2, 1:-1]) / 2.0
    gy = (pad[1:-1, 2:] - pad[1:-1, :-2]) / 2.0
    mag = _normalize(np.sqrt(gx * gx + gy * gy))  # a flat slice gives zeros, hence no edges

    # folded to gx >= 0, a diagonal (gx, gy both nonzero) points up iff the signs agree
    ax_abs = np.abs(gx)
    ay_abs = np.abs(gy)
    horiz = ay_abs <= _TAN_LO * ax_abs
    vert = ay_abs >= _TAN_HI * ax_abs
    diag_up = ~horiz & ~vert & ((gx > 0) == (gy > 0))  # direction (+1, +1)
    diag_dn = ~horiz & ~vert & ((gx > 0) != (gy > 0))  # direction (+1, -1)

    mpad = np.pad(mag, 1, mode="constant")

    def shifted(dx, dy):
        return mpad[1 + dx : mpad.shape[0] - 1 + dx, 1 + dy : mpad.shape[1] - 1 + dy]

    fwd = np.zeros_like(mag)
    bwd = np.zeros_like(mag)
    for sel, (dx, dy) in (
        (horiz, (1, 0)),
        (vert, (0, 1)),
        (diag_up, (1, 1)),
        (diag_dn, (1, -1)),
    ):
        fwd = np.where(sel, shifted(dx, dy), fwd)
        bwd = np.where(sel, shifted(-dx, -dy), bwd)
    keep = (mag >= bwd) & (mag > fwd)
    return keep & (mag >= threshold)


def _check_edge_threshold(threshold: float) -> None:
    check_setting("edge_threshold", threshold, 0.0, 1.0, open_low=True)


def static_boundary(vol: Volume, edge_threshold: float = 0.2) -> BinaryVolume:
    """Stack per-slice 2D edge maps into a static boundary volume.

    Args:
        vol: Intensity volume.
        edge_threshold: Fraction of the per-slice maximum gradient magnitude
            below which responses are discarded; must lie in (0, 1).
    """
    _check_edge_threshold(edge_threshold)
    out = np.zeros(vol.shape, dtype=np.uint8)
    for z in range(vol.shape[2]):
        out[:, :, z] = _slice_edges(vol.data[:, :, z], edge_threshold)
    return BinaryVolume(out, vol.spacing)

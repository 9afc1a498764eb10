"""Synthetic scribble generation from dense ground-truth masks.

Foreground scribbles are per-slice skeletons obtained by alternating an
8-connected morphological closing with one thinning pass until the slice is
stable. Background scribbles are 1-voxel-wide contours drawn at a fixed
Chebyshev margin around the per-slice foreground.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np
from scipy.ndimage import binary_dilation, binary_erosion

from .errors import EmptyForegroundError
from .volume_io import LabelVolume, _check_integers, _check_spacing, _freeze

__all__ = [
    "ScribbleSet",
    "simulate_foreground_scribbles",
    "simulate_background_scribble",
    "merge_scribbles",
    "scribbles_to_label_volume",
    "scribbles_from_label_volume",
    "SCRIBBLE_SENTINEL",
]

# Unannotated voxels in a scribble label file carry this value.
SCRIBBLE_SENTINEL = 255

_SQUARE3 = np.ones((3, 3), dtype=bool)


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
        idx = np.asarray(self.indices).reshape(-1, 3)
        idx = _check_integers(idx, np.asarray(shape), "scribble indices", np.int64)
        cls = np.reshape(self.classes, -1)
        cls = _check_integers(cls, self.num_classes, "scribble classes", np.uint16)
        if len(idx) != len(cls):
            raise ValueError("indices and classes length mismatch")
        if self.num_classes < 2:
            raise ValueError("num_classes must be at least 2")
        flat = idx[:, 0] * shape[1] * shape[2] + idx[:, 1] * shape[2] + idx[:, 2]
        order = np.argsort(flat, kind="stable")
        f, c = flat[order], cls[order]
        dup = f[1:] == f[:-1]
        if dup.any() and (c[1:][dup] != c[:-1][dup]).any():
            raise ValueError("conflicting classes at a shared voxel")
        object.__setattr__(self, "indices", _freeze(idx))
        object.__setattr__(self, "classes", _freeze(cls))
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "spacing", _check_spacing(self.spacing))

    def __len__(self) -> int:
        return len(self.classes)


def _closing8(mask: np.ndarray) -> np.ndarray:
    """3x3 closing that never erodes at the image border."""
    dilated = binary_dilation(mask, structure=_SQUARE3, border_value=0)
    return binary_erosion(dilated, structure=_SQUARE3, border_value=1)


def _neighbors8(mask: np.ndarray):
    """Padded clockwise neighborhood P2..P9 (N, NE, E, SE, S, SW, W, NW)."""
    p = np.pad(mask, 1, mode="constant").astype(np.uint8)
    n = p[:-2, 1:-1]
    ne = p[:-2, 2:]
    e = p[1:-1, 2:]
    se = p[2:, 2:]
    s = p[2:, 1:-1]
    sw = p[2:, :-2]
    w = p[1:-1, :-2]
    nw = p[:-2, :-2]
    return [n, ne, e, se, s, sw, w, nw]


def _deletable(mask: np.ndarray, x: int, y: int, first_pass: bool) -> bool:
    """Thinning deletion test for one pixel against the current mask."""
    h, w = mask.shape

    def at(i, j):
        return 1 if 0 <= i < h and 0 <= j < w and mask[i, j] else 0

    seq = [
        at(x - 1, y), at(x - 1, y + 1), at(x, y + 1), at(x + 1, y + 1),
        at(x + 1, y), at(x + 1, y - 1), at(x, y - 1), at(x - 1, y - 1),
    ]
    b = sum(seq)
    if not (2 <= b <= 6):
        return False
    a = sum(1 for i in range(8) if seq[i] == 0 and seq[(i + 1) % 8] == 1)
    if a != 1:
        return False
    p2, p4, p6, p8 = seq[0], seq[2], seq[4], seq[6]
    if first_pass:
        return p2 * p4 * p6 == 0 and p4 * p6 * p8 == 0
    return p2 * p4 * p8 == 0 and p2 * p6 * p8 == 0


def _thin_once(mask: np.ndarray) -> np.ndarray:
    """One thinning iteration (two directional subpasses).

    Candidates are found in parallel but removed sequentially in scan order,
    revalidating against the current image, which preserves connectivity and
    endpoints even for patterns a purely parallel pass would annihilate.
    """
    out = mask.copy()
    for first_pass in (True, False):
        nb = _neighbors8(out)
        b = sum(n.astype(np.int16) for n in nb)
        cand = out & (b >= 2) & (b <= 6)
        for x, y in np.argwhere(cand):
            if out[x, y] and _deletable(out, x, y, first_pass):
                out[x, y] = False
    return out


def _remove_square_blocks(mask: np.ndarray) -> np.ndarray:
    """Delete simple pixels until no 2x2 solid block remains (best effort)."""
    out = mask.copy()
    for _ in range(out.size):
        blocks = out[:-1, :-1] & out[1:, :-1] & out[:-1, 1:] & out[1:, 1:]
        if not blocks.any():
            break
        removed = False
        for bx, by in np.argwhere(blocks):
            for x, y in ((bx, by), (bx, by + 1), (bx + 1, by), (bx + 1, by + 1)):
                if _deletable(out, x, y, True) or _deletable(out, x, y, False):
                    out[x, y] = False
                    removed = True
                    break
            if removed:
                break
        if not removed:
            break
    return out


def _slice_skeleton(mask: np.ndarray) -> np.ndarray:
    """Fixed point of closing followed by one thinning iteration."""
    cur = mask.copy()
    for _ in range(mask.size):
        nxt = _thin_once(_closing8(cur))
        if np.array_equal(nxt, cur):
            break
        cur = nxt
    cur = _remove_square_blocks(cur)
    return cur & mask  # clip closing overshoot so scribbles stay in-class


def simulate_foreground_scribbles(gt: LabelVolume) -> ScribbleSet:
    """Skeletonize every foreground class on every axial slice.

    Each (class, slice) mask is reduced to a one-pixel-wide curve via
    iterated closing + thinning; the surviving voxels are emitted with their
    class ID.

    Raises:
        EmptyForegroundError: when no class >= 1 is present.
    """
    labels = gt.data
    present = np.unique(labels)
    present = present[present >= 1]
    if present.size == 0:
        raise EmptyForegroundError("ground truth has no foreground class")
    idx_parts: List[np.ndarray] = []
    cls_parts: List[np.ndarray] = []
    for c in present:
        cls_mask = labels == c
        for z in range(gt.shape[2]):
            sl = cls_mask[:, :, z]
            if not sl.any():
                continue
            skel = _slice_skeleton(sl)
            xs, ys = np.nonzero(skel)
            if xs.size == 0:
                continue
            part = np.stack([xs, ys, np.full_like(xs, z)], axis=1)
            idx_parts.append(part)
            cls_parts.append(np.full(xs.size, c, dtype=np.uint16))
    if idx_parts:
        indices = np.concatenate(idx_parts)
        classes = np.concatenate(cls_parts)
    else:
        indices = np.empty((0, 3), dtype=np.int64)
        classes = np.empty(0, dtype=np.uint16)
    return ScribbleSet(indices, classes, gt.num_classes, gt.shape, gt.spacing)


def simulate_background_scribble(gt: LabelVolume, margin_vox: int = 10) -> ScribbleSet:
    """Draw a 1-voxel background curve at a Chebyshev margin from foreground.

    Per axial slice with foreground: the foreground union is dilated by
    ``margin_vox`` (8-connected ball), and the dilated region's inner
    contour (voxels with an in-bounds 4-neighbor outside the region) that
    is background in ``gt`` is emitted as class 0. The contour is clipped at
    the image border, so border-touching objects yield open curves.
    """
    if margin_vox < 1:
        raise ValueError("margin_vox must be at least 1")
    fg = gt.data >= 1
    if not fg.any():
        raise EmptyForegroundError("ground truth has no foreground class")
    idx_parts: List[np.ndarray] = []
    for z in range(gt.shape[2]):
        sl = fg[:, :, z]
        if not sl.any():
            continue
        dilated = binary_dilation(sl, structure=_SQUARE3, iterations=margin_vox, border_value=0)
        interior = binary_erosion(
            dilated, structure=np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool),
            border_value=1,
        )
        contour = dilated & ~interior & (gt.data[:, :, z] == 0)
        xs, ys = np.nonzero(contour)
        if xs.size:
            idx_parts.append(np.stack([xs, ys, np.full_like(xs, z)], axis=1))
    if idx_parts:
        indices = np.concatenate(idx_parts)
    else:
        indices = np.empty((0, 3), dtype=np.int64)
    classes = np.zeros(len(indices), dtype=np.uint16)
    return ScribbleSet(indices, classes, gt.num_classes, gt.shape, gt.spacing)


def merge_scribbles(a: ScribbleSet, b: ScribbleSet) -> ScribbleSet:
    """Union two scribble sets on the same grid."""
    if a.shape != b.shape:
        raise ValueError("scribble sets live on different grids")
    return ScribbleSet(
        np.concatenate([a.indices, b.indices]),
        np.concatenate([a.classes, b.classes]),
        max(a.num_classes, b.num_classes),
        a.shape,
        a.spacing,
    )


def scribbles_to_label_volume(scribbles: ScribbleSet) -> LabelVolume:
    """Render scribbles as labels; unannotated voxels get the 255 sentinel."""
    if scribbles.num_classes > SCRIBBLE_SENTINEL:
        raise ValueError("class count collides with the sentinel value")
    data = np.full(scribbles.shape, SCRIBBLE_SENTINEL, dtype=np.uint16)
    idx = scribbles.indices
    data[idx[:, 0], idx[:, 1], idx[:, 2]] = scribbles.classes
    return LabelVolume(data, scribbles.spacing, SCRIBBLE_SENTINEL + 1)


def scribbles_from_label_volume(vol: LabelVolume, num_classes: int = 0) -> ScribbleSet:
    """Inverse of :func:`scribbles_to_label_volume`."""
    mask = vol.data != SCRIBBLE_SENTINEL
    idx = np.argwhere(mask)
    cls = vol.data[mask]
    if num_classes <= 0:
        num_classes = max(2, int(cls.max()) + 1 if cls.size else 2)
    return ScribbleSet(idx, cls, num_classes, vol.shape, vol.spacing)

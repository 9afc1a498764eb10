"""Synthetic scribble generation from dense ground-truth masks.

Foreground scribbles are per-slice skeletons obtained by alternating an
8-connected morphological closing with one thinning pass until the slice is
stable. Background scribbles are 1-voxel-wide contours drawn at a fixed
Chebyshev margin around the per-slice foreground.
"""

from __future__ import annotations

import numpy as np
from scipy.ndimage import binary_dilation, binary_erosion, generate_binary_structure

from .errors import EmptyForegroundError, check_setting
from .volume_io import LabelVolume, ScribbleSet, _check_same_grid

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


def _closing8(mask: np.ndarray) -> np.ndarray:
    """3x3 closing that never erodes at the image border."""
    dilated = binary_dilation(mask, structure=_SQUARE3, border_value=0)
    return binary_erosion(dilated, structure=_SQUARE3, border_value=1)


def _deletion_tables():
    """B (foreground neighbours) and each subpass's thinning deletion rule per 8-neighbour code.

    Bit i of a code is neighbour P(i+2) of the clockwise sequence N, NE, E, SE,
    S, SW, W, NW; pixels outside the image count as background.
    """
    p = (np.arange(256)[:, None] >> np.arange(8)) & 1
    b = p.sum(axis=1)
    a = ((p == 0) & (np.roll(p, -1, axis=1) == 1)).sum(axis=1)
    p2, p4, p6, p8 = p[:, 0], p[:, 2], p[:, 4], p[:, 6]
    base = (2 <= b) & (b <= 6) & (a == 1)
    first = base & (p2 * p4 * p6 == 0) & (p4 * p6 * p8 == 0)
    second = base & (p2 * p4 * p8 == 0) & (p2 * p6 * p8 == 0)
    return b, np.stack([first, second])


_B, _DELETABLE = _deletion_tables()
# weight of the neighbour at offset (dx + 1, dy + 1) in a pixel's code; the
# flipped table is what a deleted pixel clears in its neighbours' codes
_CODE_WEIGHTS = np.array([[128, 1, 2], [64, 0, 4], [32, 16, 8]], dtype=np.uint8)
_CLEARED = _CODE_WEIGHTS[::-1, ::-1]


def _codes(mask: np.ndarray) -> np.ndarray:
    """Neighbour code of every pixel of ``mask`` padded by one; pixel (x, y) sits at (x+1, y+1)."""
    h, w = mask.shape
    p = np.pad(mask, 2).view(np.uint8)
    codes = np.zeros((h + 2, w + 2), dtype=np.uint8)
    for (dx, dy), weight in np.ndenumerate(_CODE_WEIGHTS):
        codes += weight * p[dx:dx + h + 2, dy:dy + w + 2]
    return codes


def _thin_once(mask: np.ndarray) -> np.ndarray:
    """One thinning iteration (two directional subpasses).

    Candidates (2 <= B <= 6) are fixed at the start of each subpass but removed
    sequentially in scan order, revalidating against the current image, which
    preserves connectivity and endpoints even for patterns a purely parallel
    pass would annihilate.
    """
    out = mask.copy()
    for deletable in _DELETABLE:
        codes = _codes(out)
        b = _B[codes[1:-1, 1:-1]]
        for x, y in np.argwhere(out & (b >= 2) & (b <= 6)).tolist():
            if deletable[codes[x + 1, y + 1]]:
                out[x, y] = False
                codes[x:x + 3, y:y + 3] -= _CLEARED
    return out


def _remove_square_blocks(mask: np.ndarray) -> np.ndarray:
    """Delete simple pixels until no 2x2 solid block remains (best effort).

    Each round removes the first deletable corner, in corner order, of the first
    block in scan order that has one, then looks at the blocks again.
    """
    either = _DELETABLE[0] | _DELETABLE[1]
    out = mask.copy()
    for _ in range(out.size):
        blocks = out[:-1, :-1] & out[1:, :-1] & out[:-1, 1:] & out[1:, 1:]
        ok = either[_codes(out)[1:-1, 1:-1]]
        corners = np.stack([ok[:-1, :-1], ok[:-1, 1:], ok[1:, :-1], ok[1:, 1:]]) & blocks
        hit = corners.any(axis=0)
        if not hit.any():
            break
        bx, by = np.unravel_index(np.argmax(hit), hit.shape)
        k = int(np.argmax(corners[:, bx, by]))
        out[bx + k // 2, by + k % 2] = False
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


def _box_skeleton(mask: np.ndarray):
    """``_slice_skeleton`` run on the mask's bounding box grown by 2 pixels and
    clipped to the image; returns (box, skeleton of ``mask[box]``).

    Equal to the full-slice skeleton inside the box and empty outside it: the
    dilation of the closing reaches 1 pixel past the box, the 2nd pixel keeps
    the erosion's border rule from reaching it, and thinning only removes
    pixels. Where the box is clipped, the image border applies as before.
    """
    box = []
    for axis, n in enumerate(mask.shape):
        idx = np.flatnonzero(mask.any(axis=1 - axis))
        box.append(slice(max(idx[0] - 2, 0), min(idx[-1] + 3, n)))
    box = tuple(box)
    return box, _slice_skeleton(mask[box])


def simulate_foreground_scribbles(gt: LabelVolume) -> ScribbleSet:
    """Skeletonize every foreground class on every axial slice.

    Each (class, slice) mask is reduced to a one-pixel-wide curve via
    iterated closing + thinning; the surviving voxels are emitted with their
    class ID, ordered by class, then slice, then in-slice scan order.

    Raises:
        EmptyForegroundError: when no class >= 1 is present.
    """
    labels = gt.data
    present = np.unique(labels)
    present = present[present >= 1]
    if present.size == 0:
        raise EmptyForegroundError("ground truth has no foreground class")
    skel = np.zeros((present.size,) + gt.shape, dtype=bool)
    for i, c in enumerate(present):
        for z in range(gt.shape[2]):
            sl = labels[:, :, z] == c
            if sl.any():
                box, sk = _box_skeleton(sl)
                skel[(i,) + box + (z,)] = sk
    ci, zs, xs, ys = np.nonzero(skel.transpose(0, 3, 1, 2))
    indices = np.stack([xs, ys, zs], axis=1)
    return ScribbleSet(indices, present[ci], gt.num_classes, gt.shape, gt.spacing)


def simulate_background_scribble(gt: LabelVolume, margin_vox: int = 10) -> ScribbleSet:
    """Draw a 1-voxel background curve at a Chebyshev margin from foreground.

    Per axial slice with foreground: the foreground union is dilated by
    ``margin_vox`` (8-connected ball), and the dilated region's inner
    contour (voxels with an in-bounds 4-neighbor outside the region) that
    is background in ``gt`` is emitted as class 0. The contour is clipped at
    the image border, so border-touching objects yield open curves.
    """
    check_setting("margin_vox", margin_vox, 1, integer=True)
    fg = gt.data >= 1
    if not fg.any():
        raise EmptyForegroundError("ground truth has no foreground class")
    # 3x3x1 structures never couple slices, so each slice is processed on its own
    dilated = binary_dilation(fg, structure=_SQUARE3[..., None], iterations=margin_vox, border_value=0)
    interior = binary_erosion(dilated, structure=generate_binary_structure(2, 1)[..., None], border_value=1)
    contour = dilated & ~interior & (gt.data == 0)
    zs, xs, ys = np.nonzero(contour.transpose(2, 0, 1))
    classes = np.zeros(len(zs), dtype=np.uint16)
    return ScribbleSet(np.stack([xs, ys, zs], axis=1), classes, gt.num_classes, gt.shape, gt.spacing)


def merge_scribbles(a: ScribbleSet, b: ScribbleSet) -> ScribbleSet:
    """Union two scribble sets on the same grid (shape and spacing)."""
    _check_same_grid(a, b, "scribble sets")
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
    """Inverse of :func:`scribbles_to_label_volume`; ``num_classes`` 0 infers the count."""
    mask = vol.data != SCRIBBLE_SENTINEL
    idx = np.argwhere(mask)
    cls = vol.data[mask]
    if num_classes == 0:
        num_classes = max(2, int(cls.max()) + 1 if cls.size else 2)
    check_setting("num_classes", num_classes, 2, integer=True)
    return ScribbleSet(idx, cls, num_classes, vol.shape, vol.spacing)

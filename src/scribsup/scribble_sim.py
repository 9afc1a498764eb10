"""Synthetic scribble generation from dense ground-truth masks.

Foreground scribbles are per-slice skeletons obtained by alternating an
8-connected morphological closing with one thinning pass until the slice is
stable. Each thinning subpass deletes its candidates one by one in scan order,
and is run as one walk over a table: a candidate's decision depends only on its
8-neighbour code at the start of the subpass and on which of its four earlier
scan-order neighbours were deleted, so one table, ``_WALK``, holds every
decision of both subpasses. Background scribbles are 1-voxel-wide contours
drawn at a fixed Chebyshev margin around the per-slice foreground.
"""

from __future__ import annotations

import numpy as np
from scipy.ndimage import binary_dilation, binary_erosion, generate_binary_structure

from .errors import EmptyForegroundError, InvalidConfigError, check_setting
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

# Unannotated voxels in a scribble label file carry this value, so its classes lie below it.
SCRIBBLE_SENTINEL = 255


def _check_class_count(n: int, what: str = "class count") -> None:
    if n > SCRIBBLE_SENTINEL:  # ``what`` names the count ``n`` in the refusal
        raise InvalidConfigError(f"{what} {n} collides with the sentinel value {SCRIBBLE_SENTINEL}")


_SQUARE3 = np.ones((3, 3), dtype=bool)


def _closing8(mask: np.ndarray) -> np.ndarray:
    """3x3 closing that never erodes at the image border."""
    dilated = binary_dilation(mask, structure=_SQUARE3, border_value=0)
    return binary_erosion(dilated, structure=_SQUARE3, border_value=1)


# weight of the neighbour at offset (dx + 1, dy + 1) in a pixel's code
_CODE_WEIGHTS = np.array([[128, 1, 2], [64, 0, 4], [32, 16, 8]], dtype=np.uint8)


def _walk_tables():
    """Each thinning subpass's 16-bit decision table per 8-neighbour code.

    Bit i of a code is neighbour P(i+2) of the clockwise sequence N, NE, E, SE,
    S, SW, W, NW; pixels outside the image count as background. Bit s of
    ``table[code]`` is the subpass's deletion rule for the code left once the
    subset s of the earlier scan-order neighbours (x-1, y-1), (x-1, y),
    (x-1, y+1) and (x, y-1) (bits 0-3 of s) has been deleted, so bit 0 is the
    rule for the code itself. A subset that clears a neighbour the code lacks
    cannot happen and reads 0, and a code outside 2 <= B <= 6 (B foreground
    neighbours) is never a candidate, so all of its bits are 0.
    """
    p = (np.arange(256)[:, None] >> np.arange(8)) & 1
    b = p.sum(axis=1)
    a = ((p == 0) & (np.roll(p, -1, axis=1) == 1)).sum(axis=1)
    p2, p4, p6, p8 = p[:, 0], p[:, 2], p[:, 4], p[:, 6]
    candidate = (2 <= b) & (b <= 6)
    base = candidate & (a == 1)
    rule = np.stack([base & (p2 * p4 * p6 == 0) & (p4 * p6 * p8 == 0),
                     base & (p2 * p4 * p8 == 0) & (p2 * p6 * p8 == 0)])
    subsets = (np.arange(16)[:, None] >> np.arange(4)) & 1
    # the first four neighbours in scan order are the earlier ones
    cleared = subsets @ _CODE_WEIGHTS.flat[:4]
    codes = np.arange(256)[:, None]
    held = ((codes & cleared) == cleared) & candidate[:, None]
    return ((rule[:, codes & ~cleared] & held) << np.arange(16)).sum(axis=2)


_WALK = _walk_tables()


def _codes(mask: np.ndarray) -> np.ndarray:
    """8-neighbour code of every pixel of ``mask``; pixels outside it count as background."""
    h, w = mask.shape
    p = np.zeros((h + 2, w + 2), dtype=np.uint8)
    p[1:-1, 1:-1] = mask
    codes = np.zeros((h, w), dtype=np.uint8)
    for (dx, dy), weight in np.ndenumerate(_CODE_WEIGHTS):
        codes += weight * p[dx:dx + h, dy:dy + w]
    return codes


def _thin_once(mask: np.ndarray) -> np.ndarray:
    """One thinning iteration (two directional subpasses).

    Candidates (foreground pixels with a nonzero ``_WALK`` entry) are fixed at
    the start of each subpass but removed sequentially in scan order,
    revalidating against the current image, which preserves connectivity and
    endpoints even for patterns a purely parallel pass would annihilate.

    Each subpass is one walk over a table. When a candidate's turn comes, only
    its four earlier scan-order neighbours (x-1, y-1), (x-1, y), (x-1, y+1)
    and (x, y-1) can have been deleted; every other neighbour still holds its
    value from the start of the subpass. So its decision is bit s of
    ``_WALK[pass][code]``, where ``code`` is its code at the start and s says
    which of those four were deleted. The walk reads s from the decisions
    already made, with a sentinel index (always 0) for a neighbour that is not
    a candidate, and all deletions are applied at the end.
    """
    out = mask.copy()
    h, w = out.shape
    for walk in _WALK:
        tables = walk[_codes(out)]
        xs, ys = np.nonzero(out & (tables != 0))
        n = xs.size
        # candidate numbers padded by one, n where there is no candidate
        index = np.full((h + 2, w + 2), n)
        index[xs + 1, ys + 1] = np.arange(n)
        earlier = (index[xs, ys], index[xs, ys + 1], index[xs, ys + 2], index[xs + 1, ys])
        dec = [0] * (n + 1)
        rows = zip(tables[xs, ys].tolist(), *(e.tolist() for e in earlier))
        for i, (table, nw, north, ne, west) in enumerate(rows):
            dec[i] = (table >> (dec[nw] | dec[north] << 1 | dec[ne] << 2 | dec[west] << 3)) & 1
        gone = np.array(dec[:n], dtype=bool)
        out[xs[gone], ys[gone]] = False
    return out


def _remove_square_blocks(mask: np.ndarray) -> np.ndarray:
    """Delete simple pixels until no 2x2 solid block remains (best effort).

    Each round removes the first deletable corner, in corner order, of the first
    block in scan order that has one, then looks at the blocks again.
    """
    either = ((_WALK[0] | _WALK[1]) & 1) == 1  # bit 0: the rule for the code itself
    out = mask.copy()
    for _ in range(out.size):
        blocks = out[:-1, :-1] & out[1:, :-1] & out[:-1, 1:] & out[1:, 1:]
        ok = either[_codes(out)]
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


def simulate_background_scribble(gt: LabelVolume, margin_vox: int) -> ScribbleSet:
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
    _check_class_count(scribbles.num_classes)
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
    return ScribbleSet(idx, cls, num_classes, vol.shape, vol.spacing)

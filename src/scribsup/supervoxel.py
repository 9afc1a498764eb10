"""Anisotropy-aware 3D SLIC supervoxel clustering.

Spatial distances are measured in millimeters (voxel index times spacing),
so strongly anisotropic volumes produce supervoxels that are roughly
isotropic in physical space rather than in index space. The assignment
distance between a voxel and a cluster center is

    D = sqrt(d_int**2 + (d_sp / S)**2 * m**2)

with d_int the normalized-intensity difference, d_sp the physical Euclidean
distance, S the seed grid step in mm, and m the compactness weight.

Each voxel is compared with the centres whose ±2S window (per physical
axis) covers it, and takes the nearest (lowest ID on ties). A sweep gets
that result exactly from ±S windows first: a centre outside a voxel's ±S
window is more than S away on some axis, so its D² is at least m², and a
voxel whose best D² is already below m² needs no wider window. Only the
remaining voxels are rechecked against the ±2S windows, which at the
default compactness is almost none; voxels outside every ±2S window are
compared with all centres.

Sweeps run on z-major ``(z, x, y)`` arrays, so window rows run along y, not
along the few z voxels of an anisotropic volume; the Lloyd update sums the
voxels in ``[x, y, z]`` flat order, so no float result depends on the layout.

No side pass sorts or pads the whole volume: the seed gradient is taken only
at the seeds' candidates, and final IDs are ranked by first voxel on
component-sized arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Optional, Tuple

import numpy as np
from scipy import ndimage
from scipy.sparse import coo_matrix

from .errors import KTooLargeError, check_setting
from .volume_io import SupervoxelMap, Volume, _normalize

__all__ = ["SupervoxelMap", "SlicParams", "slic3d", "enforce_connectivity"]


@dataclass(frozen=True)
class SlicParams:
    """Clustering knobs: requested cluster count, compactness, rounds."""

    k: int
    compactness: float = 10.0
    iterations: int = 10

    def __post_init__(self):
        check_setting("k", self.k, 1, integer=True)
        check_setting("iterations", self.iterations, 1, integer=True)
        check_setting("compactness", self.compactness, 0, open_low=True)


def _seed_grid(shape, spacing, k) -> Tuple[np.ndarray, float]:
    """Regular seed lattice with physical step S = (total mm^3 / k)^(1/3).

    Per-axis counts are rounded from the physical extent; if rounding
    undershoots k, the axis with the coarsest step is subdivided until the
    grid holds at least k seeds.
    """
    extents = [n * s for n, s in zip(shape, spacing)]
    total_mm3 = extents[0] * extents[1] * extents[2]
    step = (total_mm3 / k) ** (1.0 / 3.0)
    counts = [max(1, int(round(ext / step))) for ext in extents]
    while counts[0] * counts[1] * counts[2] < k:
        axis = int(np.argmax([ext / c for ext, c in zip(extents, counts)]))
        counts[axis] += 1
    axes = [
        (np.arange(c) + 0.5) * (ext / c)
        for c, ext in zip(counts, extents)
    ]
    gx, gy, gz = np.meshgrid(*axes, indexing="ij")
    seeds_mm = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)
    return seeds_mm, step


def _perturb_seeds(seeds_mm, intensity, spacing) -> np.ndarray:
    """Move each seed to the strictly lowest-gradient voxel in its 3^3 box.

    The gradient is the edge-padded central difference, taken at the
    candidates only: a ±1 neighbour clipped to the grid reads the edge pad.
    """
    top = np.asarray(intensity.shape) - 1
    idx = np.clip(np.round(seeds_mm / np.asarray(spacing) - 0.5).astype(np.int64), 0, top)
    # Candidate 0 is the seed, then the box in dx, dy, dz order: argmin takes the
    # first minimum, so a seed moves only to a strictly lower gradient (off-grid: inf).
    offsets = np.array([(0, 0, 0), *product((-1, 0, 1), repeat=3)], dtype=np.int64)
    cand = idx[:, None, :] + offsets
    at = np.clip(cand, 0, top)
    grad2 = np.zeros(cand.shape[:2])
    for axis, unit in enumerate(np.eye(3, dtype=np.int64)):
        fwd, bwd = (intensity[tuple(np.clip(at + o * unit, 0, top).T)] for o in (1, -1))
        d = (fwd - bwd).T / (2.0 * spacing[axis])
        grad2 += d * d
    grad = np.where((cand == at).all(axis=2), np.sqrt(grad2), np.inf)
    return cand[np.arange(len(cand)), np.argmin(grad, axis=1)]


def _sweep(intensity, coords_mm, centers_pos, centers_int, m2_over_s2, half, labels, best_d2,
           only=None):
    """Lower ``labels``/``best_d2`` over every centre's ±``half`` mm window, in place.

    ``intensity``, ``labels``, ``best_d2`` and ``only`` are C-contiguous
    ``(z, x, y)`` arrays; ``coords_mm`` and the centres are ``[x, y, z]``. The
    spatial term is summed as ``(dx² + dy²) + dz²`` in any layout, since float
    addition does not associate. Centres go in ID order and a voxel moves only
    to a strictly smaller D², so ties keep the lowest ID. With ``only``, a
    centre whose window holds no ``only`` voxel is skipped.
    """
    lo = np.stack([np.searchsorted(coords_mm[a], centers_pos[:, a] - half, side="left")
                   for a in range(3)], axis=1)
    hi = np.stack([np.searchsorted(coords_mm[a], centers_pos[:, a] + half, side="right")
                   for a in range(3)], axis=1)
    extent = hi - lo
    live = np.flatnonzero((extent > 0).all(axis=1))
    size = int(extent[live].prod(axis=1).max(initial=0))
    d2_buf, int_buf, better_buf = np.empty(size), np.empty(size), np.empty(size, dtype=bool)
    for cid in live:
        sx, sy, sz = (slice(lo[cid, a], hi[cid, a]) for a in range(3))
        sl = (sz, sx, sy)
        if only is not None and not only[sl].any():
            continue
        nx, ny, nz = extent[cid]
        shape, n = (nz, nx, ny), int(nx * ny * nz)
        cpos = centers_pos[cid]
        dx2, dy2, dz2 = ((coords_mm[a][s] - cpos[a]) ** 2 for a, s in enumerate((sx, sy, sz)))
        d2 = np.add(np.add.outer(dx2, dy2)[None], dz2[:, None, None],
                    out=d2_buf[:n].reshape(shape))
        np.multiply(d2, m2_over_s2, out=d2)
        d_int = np.subtract(intensity[sl], centers_int[cid], out=int_buf[:n].reshape(shape))
        np.multiply(d_int, d_int, out=d_int)
        np.add(d_int, d2, out=d2)
        best_view = best_d2[sl]
        better = np.less(d2, best_view, out=better_buf[:n].reshape(shape))
        np.copyto(labels[sl], cid, where=better)
        np.copyto(best_view, d2, where=better)


def _assign(intensity, coords_mm, centers_pos, centers_int, step, compactness):
    """One assignment sweep; returns labels and squared distances.

    Each voxel takes the nearest centre (by D, lowest ID on ties) among the
    centres whose ±2S window covers it. A ±S pass runs first: a centre
    outside v's ±S window lies more than S from v on some axis, so its D² is
    at least m². Every voxel whose best D² is already below m² (less a
    margin for rounding) therefore holds its ±2S winner; only the others are
    reset and rerun through the ±2S windows.

    ``intensity`` and the results are indexed ``[x, y, z]``; the transpose to
    the sweeps' ``(z, x, y)`` layout copies nothing when ``intensity`` is a view
    of a z-major array.
    """
    zxy = np.ascontiguousarray(intensity.transpose(2, 0, 1))
    best_d2 = np.full(zxy.shape, np.inf)
    labels = np.full(zxy.shape, -1, dtype=np.int32)
    m2_over_s2 = (compactness / step) ** 2
    args = (zxy, coords_mm, centers_pos, centers_int, m2_over_s2)
    _sweep(*args, step, labels, best_d2)
    recheck = best_d2 >= compactness ** 2 * (1.0 - 1e-9)
    if recheck.any():
        labels[recheck] = -1
        best_d2[recheck] = np.inf
        _sweep(*args, 2.0 * step, labels, best_d2, only=recheck)
    labels, best_d2 = labels.transpose(1, 2, 0), best_d2.transpose(1, 2, 0)
    # Voxels outside every search window fall back to a full comparison.
    if (labels < 0).any():
        miss = np.argwhere(labels < 0)
        pos = np.stack(
            [coords_mm[0][miss[:, 0]], coords_mm[1][miss[:, 1]], coords_mm[2][miss[:, 2]]],
            axis=1,
        )
        d_sp2 = ((pos[:, None, :] - centers_pos[None, :, :]) ** 2).sum(axis=2)
        d_int = intensity[miss[:, 0], miss[:, 1], miss[:, 2]][:, None] - centers_int[None, :]
        d2 = d_int * d_int + d_sp2 * m2_over_s2
        pick = np.argmin(d2, axis=1).astype(np.int32)
        labels[miss[:, 0], miss[:, 1], miss[:, 2]] = pick
        best_d2[miss[:, 0], miss[:, 1], miss[:, 2]] = d2[np.arange(len(pick)), pick]
    return labels, best_d2


def _slic_state(vol: Volume, params: SlicParams):
    """Run seeding plus Lloyd rounds; returns the pre-connectivity state.

    Returns ``(labels, centers_pos_mm, centers_int, step_mm)`` after a final
    assignment against the last center estimates, so every voxel is nearest
    (by D) to its own center among centers whose window covers it.
    """
    shape = vol.shape
    nvox = int(np.prod(shape))
    if params.k > nvox:
        raise KTooLargeError(f"k={params.k} exceeds voxel count {nvox}")
    intensity = _normalize(vol.data)
    seeds_mm, step = _seed_grid(shape, vol.spacing, params.k)
    seed_idx = _perturb_seeds(seeds_mm, intensity, vol.spacing)

    spacing = np.asarray(vol.spacing)
    coords_mm = tuple(np.arange(shape[a]) * spacing[a] for a in range(3))
    centers_pos = seed_idx.astype(np.float64) * spacing[None, :]
    centers_int = intensity[seed_idx[:, 0], seed_idx[:, 1], seed_idx[:, 2]].copy()
    # [x, y, z] view of a z-major copy: every sweep runs on it without a transpose
    intensity = np.ascontiguousarray(intensity.transpose(2, 0, 1)).transpose(1, 2, 0)

    axis_mm = np.meshgrid(*coords_mm, indexing="ij", sparse=True)  # centre-sum weights
    n = len(centers_pos)
    for _ in range(params.iterations):
        # bincount sums in flat order, so every centre sum walks the voxels in
        # [x, y, z] order; each ravel copies its operand into that order.
        flat = _assign(intensity, coords_mm, centers_pos, centers_int, step,
                       params.compactness)[0].ravel()
        counts = np.bincount(flat, minlength=n).astype(np.float64)
        sums = np.stack([np.bincount(flat, weights=np.broadcast_to(w, shape).ravel(), minlength=n)
                         for w in axis_mm], axis=1)
        int_sums = np.bincount(flat, weights=intensity.ravel(), minlength=n)
        del flat
        nonempty = counts > 0
        new_pos = centers_pos.copy()
        new_int = centers_int.copy()
        new_pos[nonempty] = sums[nonempty] / counts[nonempty, None]
        new_int[nonempty] = int_sums[nonempty] / counts[nonempty]
        moved = float(np.abs(new_pos - centers_pos).sum())
        centers_pos, centers_int = new_pos, new_int
        if moved == 0.0:
            break
    labels = _assign(intensity, coords_mm, centers_pos, centers_int, step, params.compactness)[0]
    return labels, centers_pos, centers_int, step


def slic3d(vol: Volume, params: SlicParams) -> SupervoxelMap:
    """Cluster a volume into supervoxels.

    Seeds start on a regular physical grid with step S, get perturbed to the
    lowest-gradient voxel of their 3x3x3 neighborhood (gradients taken there
    only), then run ``params.iterations`` Lloyd rounds of windowed assignment
    and center updates. Each assignment is the nearest center among those
    within 2S per physical axis, found by a ±S pass (certified wherever a
    voxel's best D² is below m²) plus a ±2S recheck of the other voxels. Empty
    clusters' IDs are dropped unsorted, as connectivity, enforced before
    returning, renumbers by first voxel: IDs are contiguous and each
    supervoxel is 6-connected.

    Raises:
        KTooLargeError: when ``params.k`` exceeds the voxel count.
    """
    labels, _, _, step = _slic_state(vol, params)
    min_size = (step ** 3) / 4.0 / vol.voxel_volume_mm3
    present = np.bincount(labels.ravel()) > 0
    raw = (np.cumsum(present, dtype=np.int32) - 1)[labels]
    return enforce_connectivity(
        SupervoxelMap(raw, vol.spacing, int(present.sum())), min_size_voxels=min_size
    )


def _face_pairs(arr: np.ndarray):
    """Yield the two sides of every interior voxel face, one axis at a time."""
    for axis in range(3):
        lo = tuple(slice(None, -1) if a == axis else slice(None) for a in range(3))
        hi = tuple(slice(1, None) if a == axis else slice(None) for a in range(3))
        yield arr[lo], arr[hi]


def _graph(edges, n: int):
    """Sparse n x n adjacency from a list of (rows, cols) index-array pairs."""
    rows, cols = (np.concatenate(side) for side in zip(*edges))
    return coo_matrix((np.ones(len(rows), dtype=bool), (rows, cols)), shape=(n, n)).tocsr()


_FACES = ndimage.generate_binary_structure(3, 1)  # 6-connectivity


def _equal_id_components(ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """6-connected components of constant-ID regions, numbered by first voxel in scan order.

    Each ID is labelled on its own bounding box, where ``ndimage.label``
    numbers the components in the box's scan order, which is their order in
    the volume's ``[x, y, z]`` scan. Returns the int32 component map and each
    component's first flat index (ascending).
    """
    comp = np.empty(ids.shape, dtype=np.int32)
    firsts, ncomp = [], 0
    for i, box in enumerate(ndimage.find_objects(ids + 1)):
        lab, n = ndimage.label(ids[box] == i, _FACES)
        np.copyto(comp[box], lab + (ncomp - 1), where=lab > 0)
        # labels first appear in increasing order, so the running maximum
        # reaches each label at its component's first voxel
        first = np.searchsorted(np.maximum.accumulate(lab.ravel()), np.arange(1, n + 1))
        corner = [s.start for s in box]
        firsts.append(np.ravel_multi_index(
            tuple(c + o for c, o in zip(np.unravel_index(first, lab.shape), corner)), ids.shape))
        ncomp += n
    firsts = np.concatenate(firsts)
    order = np.argsort(firsts)
    rank = np.empty(ncomp, dtype=np.int32)
    rank[order] = np.arange(ncomp, dtype=np.int32)
    return rank[comp], firsts[order]


def enforce_connectivity(
    svmap: SupervoxelMap, min_size_voxels: Optional[float] = None
) -> SupervoxelMap:
    """Split disconnected IDs and absorb small orphan fragments.

    For each ID, the largest 6-connected component keeps it (ties: earliest
    first voxel in scan order). Remaining fragments of at least
    ``min_size_voxels`` (default: voxel_count / (4 * count), the physical
    S^3/4 equivalent) become new supervoxels; cores and these are numbered
    by first voxel in scan order. Smaller fragments merge in passes: each
    pass visits the unresolved fragments in component order (the scan order
    of their first voxels), and a fragment with a resolved face neighbour
    joins the largest adjacent supervoxel (ties: the lowest ID), whose size
    grows at once, within the pass. IDs are finally renumbered contiguously
    by first scan-order occurrence: at its lowest-numbered component.
    """
    ids = svmap.ids
    if min_size_voxels is None:
        min_size_voxels = ids.size / (4.0 * svmap.count)
    comp, first_voxel = _equal_id_components(ids)
    ncomp = len(first_voxel)
    flat_comp = comp.ravel()
    comp_sizes = np.bincount(flat_comp, minlength=ncomp)

    # Largest component per original ID keeps it (ties: earliest in scan order).
    order = np.lexsort((first_voxel, -comp_sizes))
    _, first_of_id = np.unique(ids.ravel()[first_voxel[order]], return_index=True)
    keep = comp_sizes >= min_size_voxels
    keep[order[first_of_id]] = True

    # Cores and large fragments get their own supervoxels in scan order;
    # small fragments (-1) are resolved by merging below.
    kept = np.flatnonzero(keep)[np.argsort(first_voxel[keep])]
    final_of_comp = np.full(ncomp, -1, dtype=np.int64)
    final_of_comp[kept] = np.arange(len(kept))
    sv_sizes = comp_sizes[kept]

    pending = list(np.flatnonzero(~keep))
    if pending:
        edges = []
        for a, b in _face_pairs(comp):
            for x, y in ((a, b), (b, a)):
                touch = (x != y) & ~keep[x]
                edges.append((x[touch], y[touch]))
        adj = _graph(edges, ncomp)
        # Every ID keeps a core and the face graph of the grid is connected,
        # so each pass resolves at least one fragment and the loop ends.
        while pending:
            remaining = []
            for c in pending:
                cand = final_of_comp[adj.indices[adj.indptr[c] : adj.indptr[c + 1]]]
                cand = cand[cand >= 0]
                if cand.size == 0:
                    remaining.append(c)
                    continue
                # Largest adjacent supervoxel wins; ties go to the lowest id.
                sizes = sv_sizes[cand]
                target = cand[sizes == sizes.max()].min()
                final_of_comp[c] = target
                sv_sizes[target] += comp_sizes[c]
            pending = remaining

    _, lowest_comp = np.unique(final_of_comp, return_index=True)
    rank = np.empty(len(lowest_comp), dtype=np.int32)
    rank[np.argsort(lowest_comp)] = np.arange(len(lowest_comp), dtype=np.int32)
    return SupervoxelMap(rank[final_of_comp][comp], svmap.spacing, len(lowest_comp))

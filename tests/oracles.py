"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive (loops, dicts, all-pairs scans) and
shares no code with the production paths it verifies.
"""

from collections import deque

import numpy as np


def central_fd(loss_fn, base: np.ndarray, coord, step: float = 1e-5) -> float:
    """Central finite difference of a scalar function at one array entry."""
    plus = base.copy()
    minus = base.copy()
    plus[coord] += step
    minus[coord] -= step
    return (loss_fn(plus) - loss_fn(minus)) / (2.0 * step)


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-6)


def brute_propagate(indices, classes, ids, num_classes):
    """Per-supervoxel class-set enumeration with plain dicts."""
    hit = {}
    for (x, y, z), c in zip(indices, classes):
        hit.setdefault(int(ids[x, y, z]), set()).add(int(c))
    mask = np.zeros(ids.shape, dtype=np.uint16)
    conf = np.zeros(ids.shape, dtype=np.uint8)
    for sv, cs in hit.items():
        if len(cs) == 1:
            sel = ids == sv
            mask[sel] = cs.pop()
            conf[sel] = 1
    return mask, conf


def boundary_set(mask: np.ndarray):
    """Boundary voxels: in the set, with a non-set 6-neighbor or on the border."""
    out = []
    nx, ny, nz = mask.shape
    for x in range(nx):
        for y in range(ny):
            for z in range(nz):
                if not mask[x, y, z]:
                    continue
                edge = x in (0, nx - 1) or y in (0, ny - 1) or z in (0, nz - 1)
                if not edge:
                    for dx, dy, dz in (
                        (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1),
                    ):
                        if not mask[x + dx, y + dy, z + dz]:
                            edge = True
                            break
                if edge:
                    out.append((x, y, z))
    return np.array(out, dtype=np.float64).reshape(-1, 3)


def percentile_linear(values, q: float) -> float:
    """Order-statistic percentile with linear interpolation."""
    v = np.sort(np.asarray(values, dtype=np.float64))
    if len(v) == 1:
        return float(v[0])
    h = (len(v) - 1) * (q / 100.0)
    lo = int(np.floor(h))
    hi = min(lo + 1, len(v) - 1)
    frac = h - lo
    return float(v[lo] + frac * (v[hi] - v[lo]))


def brute_hd95(pred_mask, gt_mask, spacing):
    """All-pairs pooled bidirectional 95th-percentile boundary distance."""
    bp = boundary_set(pred_mask)
    bg = boundary_set(gt_mask)
    if len(bp) == 0 or len(bg) == 0:
        return None
    s = np.asarray(spacing, dtype=np.float64)
    diff = (bp[:, None, :] - bg[None, :, :]) * s[None, None, :]
    dmat = np.sqrt((diff ** 2).sum(axis=2))
    pooled = np.concatenate([dmat.min(axis=1), dmat.min(axis=0)])
    return percentile_linear(pooled, 95.0)


def flood_components_6(mask: np.ndarray):
    """BFS 6-connected component labeling of a boolean volume."""
    labels = np.full(mask.shape, -1, dtype=np.int64)
    nxt = 0
    nx, ny, nz = mask.shape
    for sx in range(nx):
        for sy in range(ny):
            for sz in range(nz):
                if not mask[sx, sy, sz] or labels[sx, sy, sz] >= 0:
                    continue
                queue = deque([(sx, sy, sz)])
                labels[sx, sy, sz] = nxt
                while queue:
                    x, y, z = queue.popleft()
                    for dx, dy, dz in (
                        (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1),
                    ):
                        a, b, c = x + dx, y + dy, z + dz
                        if 0 <= a < nx and 0 <= b < ny and 0 <= c < nz:
                            if mask[a, b, c] and labels[a, b, c] < 0:
                                labels[a, b, c] = nxt
                                queue.append((a, b, c))
                nxt += 1
    return labels, nxt


def all_ids_connected_6(ids: np.ndarray) -> bool:
    for sv in np.unique(ids):
        _, n = flood_components_6(ids == sv)
        if n != 1:
            return False
    return True


def chebyshev_ring(fg_slice: np.ndarray, margin: int):
    """Background pixels at Chebyshev distance exactly ``margin`` from fg."""
    obj = np.argwhere(fg_slice)
    ring = set()
    h, w = fg_slice.shape
    for x in range(h):
        for y in range(w):
            if fg_slice[x, y]:
                continue
            d = min(max(abs(x - a), abs(y - b)) for a, b in obj)
            if d == margin:
                ring.add((x, y))
    return ring


_TAN_LO = 0.4142135623730951
_TAN_HI = 2.414213562373095


def edge_slice_reference(img: np.ndarray, threshold: float) -> np.ndarray:
    """Per-pixel loop edition of the slice edge detector definition."""
    h, w = img.shape
    img = img.astype(np.float64)

    def px(i, j):
        return img[min(max(i, 0), h - 1), min(max(j, 0), w - 1)]

    gx = np.zeros((h, w))
    gy = np.zeros((h, w))
    for i in range(h):
        for j in range(w):
            gx[i, j] = (px(i + 1, j) - px(i - 1, j)) / 2.0
            gy[i, j] = (px(i, j + 1) - px(i, j - 1)) / 2.0
    mag = np.sqrt(gx ** 2 + gy ** 2)
    lo, hi = mag.min(), mag.max()
    if hi <= lo:
        return np.zeros((h, w), dtype=bool)
    mag = (mag - lo) / (hi - lo)

    def mag_at(i, j):
        if 0 <= i < h and 0 <= j < w:
            return mag[i, j]
        return 0.0

    out = np.zeros((h, w), dtype=bool)
    for i in range(h):
        for j in range(w):
            fx, fy = gx[i, j], gy[i, j]
            if fx < 0 or (fx == 0 and fy < 0):
                fx, fy = -fx, -fy
            ax, ay = abs(fx), abs(fy)
            if ay <= _TAN_LO * ax:
                d = (1, 0)
            elif ay >= _TAN_HI * ax:
                d = (0, 1)
            elif fy > 0:
                d = (1, 1)
            else:
                d = (1, -1)
            fwd = mag_at(i + d[0], j + d[1])
            bwd = mag_at(i - d[0], j - d[1])
            out[i, j] = mag[i, j] >= bwd and mag[i, j] > fwd and mag[i, j] >= threshold
    return out


def random_partition(rng, shape, n_cells):
    """Random connected-ish partition: nearest of n random anchors."""
    anchors = np.stack(
        [rng.integers(0, s, size=n_cells) for s in shape], axis=1
    ).astype(np.float64)
    grid = np.stack(
        np.meshgrid(*[np.arange(s) for s in shape], indexing="ij"), axis=-1
    ).astype(np.float64)
    d = ((grid[..., None, :] - anchors[None, None, None, :, :]) ** 2).sum(axis=-1)
    ids = np.argmin(d, axis=-1).astype(np.int32)
    # compact ids so every one occurs
    uniq = np.unique(ids)
    remap = np.zeros(int(uniq.max()) + 1, dtype=np.int32)
    remap[uniq] = np.arange(len(uniq), dtype=np.int32)
    return remap[ids]


def brute_conv3d(x, w, b, dilation=(1, 1, 1)):
    """Zero-padded 'same' 3D convolution in float64, one ``take`` per tap.

    ``x`` is (c_in, sx, sy, sz), ``w`` is (c_out, c_in, kx, ky, kz) with odd
    kernel sides; tap (i, j, l) reads input at offset
    ((i - kx // 2) * dx, (j - ky // 2) * dy, (l - kz // 2) * dz).
    """
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    c_out, _, kx, ky, kz = w.shape
    out = np.zeros((c_out,) + x.shape[1:]) + np.asarray(b, dtype=np.float64)[:, None, None, None]
    for i in range(kx):
        for j in range(ky):
            for l in range(kz):
                shifted = x
                for axis, k, tap, d in ((1, kx, i, dilation[0]), (2, ky, j, dilation[1]),
                                        (3, kz, l, dilation[2])):
                    n = x.shape[axis]
                    src = np.arange(n) + (tap - k // 2) * d
                    inside = ((src >= 0) & (src < n)).astype(np.float64)
                    shape = [1, 1, 1, 1]
                    shape[axis] = n
                    shifted = np.take(shifted, np.clip(src, 0, n - 1), axis=axis)
                    shifted = shifted * inside.reshape(shape)
                out += np.einsum("oc,cxyz->oxyz", w[:, :, i, j, l], shifted)
    return out


def ring_conv3d(x, w, b, dilation=(1, 1, 1)):
    """``refnet._conv3d`` before it stacked the x-taps into one GEMM per input x-row, copied
    verbatim: a y/z-im2col block per input x-row, kx GEMMs per output row.

    ``x`` is one (c, sx, sy, sz) array or a tuple of them on one grid, read as
    their channel concatenation. Each input x-row's (c_in, ky, kz, sy, sz) block
    is gathered exactly once, each in-plane tap copying its in-range box straight
    from the inputs, so no padded or concatenated copy is made. The blocks live
    in a ring of R = min(sx, (kx - 1) * dx + 1) slots indexed by row mod R, which
    holds every row the current output row reads. Output row ``xo`` is the sum,
    over the x-taps ``i`` that land on the grid, of ``w[:, :, i] @ block(xo + (i -
    kx // 2) * dx)`` (the shifted-block GEMMs of MEC, Cho & Brand, ICML 2017); the
    centre tap always lands. The strips outside the y/z grid are the same in every
    block, so the ring starts zeroed and they are never written.
    """
    parts = x if isinstance(x, tuple) else (x,)
    c_out, c_in, kx, ky, kz = w.shape
    sx, sy, sz = parts[0].shape[1:]
    dx, reach = dilation[0], kx // 2 * dilation[0]
    taps = np.moveaxis(w, 2, 0).reshape(kx, c_out, c_in * ky * kz)
    copies = []  # (ring-slot box, part number, box of that part's x-row) per in-plane tap
    for j, l in np.ndindex(ky, kz):
        dst, src = (), ()
        for o, size in (((j - ky // 2) * dilation[1], sy), ((l - kz // 2) * dilation[2], sz)):
            lo = min(max(0, -o), size)  # outputs [lo, hi) read sources inside [0, size)
            hi = max(lo, size - max(o, 0))
            dst, src = dst + (slice(lo, hi),), src + (slice(lo + o, hi + o),)
        c0 = 0
        for k, part in enumerate(parts):
            copies.append(((slice(c0, c0 + part.shape[0]), j, l) + dst, k, (slice(None),) + src))
            c0 += part.shape[0]
    n_slots = min(sx, 2 * reach + 1)
    ring = np.zeros((n_slots, c_in, ky, kz, sy, sz), dtype=np.float32)
    blocks = ring.reshape(n_slots, c_in * ky * kz, sy * sz)
    out = np.empty((c_out, sx, sy, sz), dtype=np.float32)
    rows_out = out.reshape(c_out, sx, sy * sz)
    scratch = np.empty((c_out, sy * sz), dtype=np.float32)
    gathered = 0  # input rows [0, gathered) have been gathered
    for xo in range(sx):
        for r in range(gathered, min(sx, xo + reach + 1)):
            slot, rows = ring[r % n_slots], [part[:, r] for part in parts]
            for dst, k, src in copies:
                slot[dst] = rows[k][src]
            gathered = r + 1
        (w0, r0), *rest = [(taps[i], r) for i, r in enumerate(range(xo - reach, xo + reach + 1, dx))
                           if 0 <= r < sx]
        row = rows_out[:, xo]
        np.matmul(w0, blocks[r0 % n_slots], out=row)
        for wi, r in rest:
            row += np.matmul(wi, blocks[r % n_slots], out=scratch)
        row += b[:, None]
    return out


def reference_maxpool(x, factor):
    """``refnet._maxpool`` before it took a running maximum over strided sub-grids, copied
    verbatim: one reshape that splits each axis into (blocks, factor), then a max over the
    factor axes."""
    c, sx, sy, sz = x.shape
    fx, fy, fz = factor
    return x.reshape(c, sx // fx, fx, sy // fy, fy, sz // fz, fz).max(axis=(2, 4, 6))


def brute_upsample(x, target):
    """Separable linear resize in float64, one output index at a time.

    Output index d on an axis of n_src inputs samples source coordinate
    (d + 0.5) * n_src / n_dst - 0.5, blending its two neighbours, each
    clamped into [0, n_src - 1].
    """
    out = np.asarray(x, dtype=np.float64)
    for axis, n_dst in zip((1, 2, 3), target):
        n_src = out.shape[axis]
        planes = []
        for d in range(n_dst):
            pos = (d + 0.5) * n_src / n_dst - 0.5
            lo = int(np.floor(pos))
            frac = pos - lo
            a = np.take(out, min(max(lo, 0), n_src - 1), axis=axis)
            b = np.take(out, min(max(lo + 1, 0), n_src - 1), axis=axis)
            planes.append((1.0 - frac) * a + frac * b)
        out = np.stack(planes, axis=axis)
    return out


def brute_enforce_connectivity(ids: np.ndarray, count: int, min_size_voxels=None) -> np.ndarray:
    """Connectivity enforcement spelled out with flood fills and dicts.

    Components are ordered by their first voxel in C scan order. Per ID, the
    largest component (ties: first in that order) is the core. Cores and
    fragments of at least ``min_size_voxels`` are numbered in component
    order. Smaller fragments merge in passes over the unresolved ones, in
    component order: a fragment with a numbered face neighbour joins the
    largest one (ties: lowest number), growing it at once. Output numbers are
    then renumbered by first scan-order occurrence.
    """
    nx, ny, nz = ids.shape
    if min_size_voxels is None:
        min_size_voxels = ids.size / (4.0 * count)
    comp_of = {}  # voxel -> (id, component label within that id)
    voxels = {}  # (id, label) -> list of voxels
    for sv in np.unique(ids):
        labels, n = flood_components_6(ids == sv)
        for x in range(nx):
            for y in range(ny):
                for z in range(nz):
                    if labels[x, y, z] >= 0:
                        key = (int(sv), int(labels[x, y, z]))
                        comp_of[(x, y, z)] = key
                        voxels.setdefault(key, []).append((x, y, z))
    comps = sorted(voxels, key=lambda key: min(voxels[key]))
    core = {}
    for key in comps:
        if key[0] not in core or len(voxels[key]) > len(voxels[core[key[0]]]):
            core[key[0]] = key
    number, size = {}, {}
    for key in comps:
        if core[key[0]] == key or len(voxels[key]) >= min_size_voxels:
            number[key] = len(size)
            size[number[key]] = len(voxels[key])
    pending = [key for key in comps if key not in number]
    while pending:
        remaining = []
        for key in pending:
            touching = set()
            for x, y, z in voxels[key]:
                for dx, dy, dz in (
                    (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1),
                ):
                    nb = comp_of.get((x + dx, y + dy, z + dz))
                    if nb in number:
                        touching.add(number[nb])
            if not touching:
                remaining.append(key)
                continue
            best = min(touching, key=lambda n: (-size[n], n))
            number[key] = best
            size[best] += len(voxels[key])
        assert len(remaining) < len(pending), "a merge pass resolved no fragment"
        pending = remaining
    out = np.zeros(ids.shape, dtype=np.int64)
    renumber = {}
    for x in range(nx):
        for y in range(ny):
            for z in range(nz):
                n = number[comp_of[(x, y, z)]]
                out[x, y, z] = renumber.setdefault(n, len(renumber))
    return out


def brute_deletable(mask: np.ndarray, x: int, y: int, first_pass: bool) -> bool:
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


def brute_thin_once(mask: np.ndarray) -> np.ndarray:
    """One thinning iteration, pixel by pixel, from ``brute_deletable`` alone.

    Each subpass fixes its candidates (2 <= B <= 6) on the image as it stood
    at the start of the subpass, then visits them in scan order and deletes
    each one the rule accepts against the current image.
    """
    out = np.array(mask, dtype=bool)
    h, w = out.shape
    for first_pass in (True, False):
        start = out.copy()
        candidates = [
            (x, y) for x in range(h) for y in range(w)
            if start[x, y] and 2 <= start[max(x - 1, 0):x + 2, max(y - 1, 0):y + 2].sum() - 1 <= 6
        ]
        for x, y in candidates:
            if brute_deletable(out, x, y, first_pass):
                out[x, y] = False
    return out


def brute_assign(intensity, coords_mm, centers_pos, centers_int, step, compactness):
    """One SLIC assignment sweep, each centre scanning its full ±2S window.

    The plain loop the certified two-pass ``_assign`` must reproduce exactly:
    returns labels (lowest centre ID on ties) and squared distances.
    """
    shape = intensity.shape
    best_d2 = np.full(shape, np.inf)
    labels = np.full(shape, -1, dtype=np.int32)
    m2_over_s2 = (compactness / step) ** 2
    half = 2.0 * step
    for cid in range(centers_pos.shape[0]):
        cpos = centers_pos[cid]
        windows = []
        for axis in range(3):
            ax = coords_mm[axis]
            lo = int(np.searchsorted(ax, cpos[axis] - half, side="left"))
            hi = int(np.searchsorted(ax, cpos[axis] + half, side="right"))
            if lo >= hi:
                windows = None
                break
            windows.append(slice(lo, hi))
        if windows is None:
            continue
        sl = tuple(windows)
        d_sp2 = (
            (coords_mm[0][sl[0], None, None] - cpos[0]) ** 2
            + (coords_mm[1][None, sl[1], None] - cpos[1]) ** 2
            + (coords_mm[2][None, None, sl[2]] - cpos[2]) ** 2
        )
        d_int = intensity[sl] - centers_int[cid]
        d2 = d_int * d_int + d_sp2 * m2_over_s2
        better = d2 < best_d2[sl]
        labels_view = labels[sl]
        labels_view[better] = cid
        best_view = best_d2[sl]
        best_view[better] = d2[better]
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


def reference_cluster_sums(labels, intensity, coords_mm, n):
    """``supervoxel._slic_state``'s Lloyd sums as whole-volume ``bincount`` calls.

    Counts, the x, y and z sums (one ``(n, 3)`` array) and the intensity sums
    of clusters ``0..n-1``, each from one weighted ``bincount`` over the
    raveled ``[x, y, z]`` labels, so every cluster's float64 sum adds its
    voxels in ``[x, y, z]`` flat order.
    """
    flat = labels.ravel()
    axis_mm = np.meshgrid(*coords_mm, indexing="ij", sparse=True)
    counts = np.bincount(flat, minlength=n).astype(np.float64)
    sums = np.stack([np.bincount(flat, weights=np.broadcast_to(w, labels.shape).ravel(),
                                 minlength=n) for w in axis_mm], axis=1)
    int_sums = np.bincount(flat, weights=intensity.ravel(), minlength=n)
    return counts, sums, int_sums


def reference_perturb_seeds(seeds_mm, intensity, spacing) -> np.ndarray:
    """``supervoxel._perturb_seeds`` as it was on a full-volume gradient.

    The central-difference gradient magnitude of the edge-padded volume,
    summed as ``((0 + d0²) + d1²) + d2²``; each seed moves to the first
    minimum of its 28 candidates (the seed, then its 3³ box in dx, dy, dz
    order) read from the gradient padded with inf.
    """
    padded = np.pad(intensity, 1, mode="edge")
    grad2 = np.zeros_like(intensity)
    for axis, s in enumerate(spacing):
        fwd = [slice(1, -1)] * 3
        bwd = [slice(1, -1)] * 3
        fwd[axis] = slice(2, None)
        bwd[axis] = slice(None, -2)
        d = (padded[tuple(fwd)] - padded[tuple(bwd)]) / (2.0 * s)
        grad2 += d * d
    grad = np.pad(np.sqrt(grad2), 1, mode="constant", constant_values=np.inf)
    idx = np.round(seeds_mm / np.asarray(spacing) - 0.5).astype(np.int64)
    idx = np.clip(idx, 0, np.asarray(intensity.shape) - 1)
    moved = []
    for x, y, z in idx:
        cands = [(x, y, z)] + [(x + i, y + j, z + k)
                               for i in (-1, 0, 1) for j in (-1, 0, 1) for k in (-1, 0, 1)]
        moved.append(cands[int(np.argmin([grad[c[0] + 1, c[1] + 1, c[2] + 1] for c in cands]))])
    return np.array(moved, dtype=np.int64).reshape(-1, 3)


def compact_ids(labels: np.ndarray) -> np.ndarray:
    """Renumber IDs to drop empty ones, ordered by first occurrence in scan order."""
    flat = labels.ravel()
    uniq, first = np.unique(flat, return_index=True)
    order = np.argsort(first)
    remap = np.empty(int(uniq.max()) + 1, dtype=np.int32)
    remap[uniq[order]] = np.arange(len(uniq), dtype=np.int32)
    return remap[flat].reshape(labels.shape)


def reference_active_boundary_loss(probs, image, params):
    """``losses.active_boundary_loss`` before its buffers were reused in place,
    copied verbatim but for the shape check; returns (value, grad).

    Every arithmetic step is the same IEEE operation in the same order in the
    in-place edition, so both must agree byte for byte.
    """
    v = image.data.astype(np.float64)
    lo, hi = v.min(), v.max()
    v = (v - lo) / (hi - lo) if hi > lo else np.zeros_like(v)
    omega = image.voxel_volume_mm3
    spacing = image.spacing
    eps = params.epsilon

    total = 0.0
    grad = np.zeros_like(probs.data)
    for c in range(1, probs.channels):
        u = probs.data[..., c]
        # forward differences with a zero-flux far border
        diffs = [np.diff(u, axis=a, append=u.take([-1], axis=a)) / spacing[a] for a in range(3)]
        phi = np.sqrt(diffs[0] ** 2 + diffs[1] ** 2 + diffs[2] ** 2 + eps)
        surface = float(phi.sum()) * omega

        su = float(u.sum())
        s1mu = float((1.0 - u).sum())
        c1 = float((u * v).sum()) / max(su, 1e-8)
        c2 = float(((1.0 - u) * v).sum()) / max(s1mu, 1e-8)
        r_in = (c1 - v) ** 2
        r_out = (c2 - v) ** 2
        vol_in = float((r_in * u).sum()) * omega
        vol_out = float((r_out * (1.0 - u)).sum()) * omega

        total += surface + params.lambda1 * vol_in + params.lambda2 * vol_out

        g = np.zeros_like(u)
        for a in range(3):
            # zero subgradient where the field vanishes (possible at eps = 0)
            w = np.divide(diffs[a], phi, out=np.zeros_like(u), where=phi > 0)
            g -= np.diff(w, axis=a, prepend=0.0) / spacing[a]
        g *= omega
        g += omega * (params.lambda1 * r_in - params.lambda2 * r_out)
        grad[..., c] = g
    return total, grad


def reference_grad_final(seg_final_grad, ab_grad, beta2):
    """``total_loss``'s final-mask gradient as one out-of-place sum (copied verbatim)."""
    return seg_final_grad + beta2 * ab_grad


_CLAMP_LO = 1e-7  # ``losses._CLAMP_LO``


def reference_partial_ce(probs, pl):
    """``losses.partial_ce`` before it picked and clamped in one buffer, copied
    verbatim but for the grid and class-count checks; returns (value, grad).

    It gathers with int64 labels and ``take_along_axis`` and scatters with
    ``put_along_axis``; the in-place edition makes the same IEEE operations on
    every voxel, so both must agree byte for byte.
    """
    conf = pl.confident.data.astype(bool)
    n_conf = int(conf.sum())
    labels = pl.mask.data.astype(np.int64)
    raw = np.take_along_axis(probs.data, labels[..., None], axis=3)[..., 0]
    picked = np.clip(raw, _CLAMP_LO, None)
    value = -float(np.sum(np.log(picked[conf]))) / n_conf
    grad = np.zeros_like(probs.data)
    coeff = np.where(conf & (raw > _CLAMP_LO), -1.0 / (n_conf * picked), 0.0)
    np.put_along_axis(grad, labels[..., None], coeff[..., None], axis=3)
    return value, grad


def reference_decoder_level(net, i, d, skip):
    """``refnet._decoder_level`` before it freed its ``conv1`` inputs early,
    copied verbatim; returns (features, gate).

    It keeps the upsampled ``d`` and the gated skip alive through the whole
    conv block. It runs the network's own primitives (their own tests check
    them), so what it pins is the order of the steps, not their arithmetic.
    """
    from scribsup.refnet import _conv1x1, _conv3d, _conv_block, _relu, _sigmoid64, _upsample_to

    params = net.params
    d_up = _upsample_to(d, skip.shape[1:])
    gate1 = params[f"dec{i}.gate1.w"][..., None, None, None]
    t = _relu(_conv3d((d_up, skip), gate1, params[f"dec{i}.gate1.b"]))
    gate = _sigmoid64(_conv1x1(t, params[f"dec{i}.gate2.w"], params[f"dec{i}.gate2.b"])[0])
    del t
    skip *= gate.astype(np.float32)[None]  # the caller popped the skip, so gate it in place
    return _conv_block(net, f"dec{i}", (d_up, skip)), gate

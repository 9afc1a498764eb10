"""Operation counts worked out from public config and shapes (not measured).

``refnet_gmacs`` counts the multiply-adds of one ``refnet.forward`` call;
``slic_window_evals`` counts the voxel-to-centre distance evaluations of
``supervoxel.slic3d``'s windowed sweeps, with the centres on the seed
lattice. Each count has a self-check that compares it, on a small input,
with a second derivation that does not share its rules, and raises
``AssertionError`` when the two disagree. The checks run once per
configuration and before any unit is measured (``Tracer.install``).
"""

from __future__ import annotations

import dataclasses
import functools
import re

import numpy as np

from scribsup import refnet, supervoxel
from scribsup.volume_io import Volume

# Bound before a tracer rebinds the module attributes, so self-checks make no spans.
_BUILD, _FORWARD = refnet.build, refnet.forward


def _level_grid(cfg, shape, level):
    nz_halvings = max(0, level - cfg.levels_2d)
    return (shape[0] >> level) * (shape[1] >> level) * (shape[2] >> nz_halvings)


def _layer_level(cfg, name):
    """Resolution level of the layer that owns weight ``name``; None for the
    channel-attention projections, which act on the pooled vector."""
    m = re.fullmatch(r"(enc|dec)(\d+)\.(conv1|conv2|gate1|gate2)\.w", name)
    if m:
        return int(m.group(2))
    m = re.fullmatch(r"sbpm\.proj(\d+)\.w", name)
    if m:  # 1x1 projection before the upsample
        return int(m.group(1))
    if re.fullmatch(r"aspp\.(branch\d+|fuse)\.w|init\.(conv1|conv2|head)\.w", name):
        return cfg.depth - 1
    if re.fullmatch(r"(sbpm|final)\.rcab\.fc[12]\.w", name):
        return None
    if name in ("sbpm.out.w", "final.head.w"):
        return 0
    raise AssertionError(f"no grid rule for weight {name!r}")


def _macs(net, shape) -> int:
    cfg = net.config
    total = 0
    for name, w in net.params.items():
        if name.endswith(".w"):
            level = _layer_level(cfg, name)
            total += w.size * (1 if level is None else _level_grid(cfg, shape, level))
    return total


def refnet_gmacs(net, shape) -> float:
    """Sum over every conv and dense weight of its size times its grid voxels."""
    _check_gmacs(dataclasses.replace(net.config, seed=0))
    return _macs(net, shape) / 1e9


@functools.lru_cache(maxsize=None)
def _check_gmacs(cfg) -> None:
    """Check the level rules against the network's own shapes.

    On one forward of a patch twice the smallest valid size: each level's grid
    is taken from the attention map the network returns for it (levels above
    the bottom) or from chaining ``cfg.factor`` (the bottom), the full grid
    from the output masks; and each weight must carry the channel count of the
    level the rules give it.
    """
    shape = tuple(2 * d for d in cfg.divisors)
    net = _BUILD(cfg)
    out = _FORWARD(net, Volume(np.zeros(shape, dtype=np.float32), (1.0, 1.0, 1.0)))
    grids = {}
    for level, gate in zip(range(cfg.depth - 2, -1, -1), out.attention_maps):
        grids[level] = int(np.prod(gate.shape))
    bottom = np.asarray(shape)
    for level in range(cfg.depth - 1):
        bottom = bottom // np.asarray(cfg.factor(level))
    grids[cfg.depth - 1] = int(np.prod(bottom))
    if grids[0] != int(np.prod(out.mask_final.data.shape[:3])):
        raise AssertionError("level-0 attention grid differs from the output grid")
    for level, grid in grids.items():
        if grid != _level_grid(cfg, shape, level):
            raise AssertionError(f"level {level}: grid rule gives {_level_grid(cfg, shape, level)}, "
                                 f"the network {grid}")
    for name, w in net.params.items():
        level = _layer_level(cfg, name) if name.endswith(".w") else None
        if level is None or name in ("sbpm.out.w", "final.head.w"):
            continue  # pooled vectors and heads over concatenated side outputs
        m = re.fullmatch(r"aspp\.branch(\d+)\.w", name)
        if m:  # dense connections: branch j also sees the j earlier branches
            ok = w.shape[1] == cfg.channels(level) + int(m.group(1)) * cfg.growth
        else:
            ok = cfg.channels(level) in w.shape[:2]
        if not ok:
            raise AssertionError(f"{name}: channels {w.shape[:2]} do not fit level {level}")


def _seed_counts(shape, spacing, k):
    """Per-axis seed-lattice counts and the physical step S (as slic3d seeds)."""
    extents = [n * s for n, s in zip(shape, spacing)]
    step = (extents[0] * extents[1] * extents[2] / k) ** (1.0 / 3.0)
    counts = [max(1, int(round(e / step))) for e in extents]
    while counts[0] * counts[1] * counts[2] < k:
        axis = int(np.argmax([e / c for e, c in zip(extents, counts)]))
        counts[axis] += 1
    return counts, extents, step


def _window_evals_per_sweep(shape, spacing, k) -> int:
    counts, extents, step = _seed_counts(shape, spacing, k)
    total = 1
    for n, s, c, e in zip(shape, spacing, counts, extents):
        coords = np.arange(n) * s
        centres = (np.arange(c) + 0.5) * (e / c)
        lo = np.searchsorted(coords, centres - 2.0 * step, side="left")
        hi = np.searchsorted(coords, centres + 2.0 * step, side="right")
        # Windows are boxes, so the sum over the centre lattice factorises per axis.
        total *= int((hi - lo).sum())
    return total


def slic_window_evals(shape, spacing, params) -> int:
    """Centres times +-2S window voxels, summed over the sweeps.

    Centres are counted on the seed lattice; ``iterations`` Lloyd sweeps plus
    the final assignment make ``iterations + 1`` sweeps.
    """
    return _window_evals_per_sweep(shape, spacing, params.k) * (params.iterations + 1)


def _brute_window_evals(shape, spacing, k) -> int:
    """One sweep's window voxels, counted voxel by voxel around every centre
    of ``slic3d``'s own seed lattice."""
    seeds_mm, step = supervoxel._seed_grid(shape, spacing, k)
    grid = np.meshgrid(*(np.arange(n) * s for n, s in zip(shape, spacing)), indexing="ij")
    half = 2.0 * step
    total = 0
    for centre in seeds_mm:
        inside = np.ones(shape, dtype=bool)
        for coords, c in zip(grid, centre):
            inside &= (coords >= c - half) & (coords <= c + half)
        total += int(inside.sum())
    return total


def check_window_evals() -> None:
    """Compare the per-axis count with a brute-force count on small volumes."""
    for shape, spacing, k in (((24, 20, 6), (1.25, 1.25, 5.0), 30),
                              ((17, 23, 11), (1.0, 1.0, 1.0), 50),
                              ((40, 12, 8), (0.7, 1.3, 2.5), 8)):
        brute = _brute_window_evals(shape, spacing, k)
        counted = _window_evals_per_sweep(shape, spacing, k)
        if brute != counted:
            raise AssertionError(f"window evals on {shape} at k={k}: {counted}, brute force {brute}")


def self_check(net_config) -> None:
    """Run both self-checks; ``net_config`` is the network configuration to check."""
    check_window_evals()
    _check_gmacs(dataclasses.replace(net_config, seed=0))

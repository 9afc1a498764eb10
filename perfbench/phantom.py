"""Deterministic synthetic phantoms for the benchmark.

A phantom is two nested ellipsoids plus a slab on a dark background:
class 1 is the outer ellipsoid shell, class 2 the inner ellipsoid, class 3
the slab. Intensity is a class-dependent mean plus Gaussian noise. The seed
shifts the centres and scales the radii, so every seed gives a different but
equally sized workload. Radii are given in voxels because the scribble
simulator's cost grows with object radius in pixels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

NUM_CLASSES = 4
CLASS_MEANS = (0.10, 0.40, 0.70, 0.95)
NOISE_SD = 0.04

# Object sizes for a 224 x 224 x 32 grid, in voxels; other grids scale them
# per axis.
_REF_SHAPE = (224, 224, 32)
_OUTER_RADII = (58.0, 46.0, 11.0)
_INNER_RADII = (26.0, 20.0, 6.0)
_SLAB_X = (176, 194)  # slab rows along x
_SLAB_MARGIN = (24, 4)  # slab inset along y and z


@dataclass(frozen=True)
class Phantom:
    image: np.ndarray  # float32, (nx, ny, nz)
    labels: np.ndarray  # uint16, (nx, ny, nz)
    spacing: Tuple[float, float, float]
    params: dict


def _ellipsoid(shape, centre, radii) -> np.ndarray:
    axes = [((np.arange(n) - c) / r) ** 2 for n, c, r in zip(shape, centre, radii)]
    return axes[0][:, None, None] + axes[1][None, :, None] + axes[2][None, None, :] <= 1.0


def make_phantom(shape, spacing, seed: int) -> Phantom:
    """Build the phantom for ``seed`` on a grid of ``shape`` voxels."""
    rng = np.random.default_rng(seed)
    scale = np.asarray(shape, dtype=np.float64) / np.asarray(_REF_SHAPE)
    shift = rng.uniform(-0.02, 0.02, size=3) * np.asarray(shape)
    centre = np.asarray(shape) / 2.0 - np.array([0.12 * shape[0], 0.0, 0.0]) + shift
    grow = rng.uniform(0.98, 1.02)
    outer = np.asarray(_OUTER_RADII) * scale * grow
    inner = np.asarray(_INNER_RADII) * scale * rng.uniform(0.98, 1.02)
    inner_centre = centre + rng.uniform(-0.15, 0.15, size=3) * (outer - inner)

    labels = np.zeros(shape, dtype=np.uint16)
    labels[_ellipsoid(shape, centre, outer)] = 1
    labels[_ellipsoid(shape, inner_centre, inner)] = 2
    x0 = int(round(_SLAB_X[0] * scale[0] + rng.integers(-2, 3) * scale[0]))
    x1 = x0 + max(2, int(round((_SLAB_X[1] - _SLAB_X[0]) * scale[0] * grow)))
    my = max(1, int(round(_SLAB_MARGIN[0] * scale[1])))
    mz = max(1, int(round(_SLAB_MARGIN[1] * scale[2])))
    labels[x0:x1, my:-my, mz:-mz] = 3

    means = np.asarray(CLASS_MEANS, dtype=np.float32)
    noise = rng.normal(0.0, NOISE_SD, size=shape).astype(np.float32)
    image = means[labels] + noise
    params = {
        "shape": list(shape),
        "spacing_mm": list(spacing),
        "num_classes": NUM_CLASSES,
        "outer_radii_vox": [round(float(r), 3) for r in outer],
        "inner_radii_vox": [round(float(r), 3) for r in inner],
        "slab_x_vox": [x0, x1],
        "class_means": list(CLASS_MEANS),
        "noise_sd": NOISE_SD,
    }
    return Phantom(image, labels, tuple(float(s) for s in spacing), params)

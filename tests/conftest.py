import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from scribsup.volume_io import LabelVolume, Volume


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def make_volume(arr, spacing=(1.0, 1.0, 1.0)) -> Volume:
    return Volume(np.asarray(arr, dtype=np.float32), spacing)


def make_labels(arr, num_classes, spacing=(1.0, 1.0, 1.0)) -> LabelVolume:
    return LabelVolume(np.asarray(arr, dtype=np.uint16), spacing, num_classes)


def random_softmax(rng, shape, channels):
    """Strictly interior per-voxel probability simplex samples."""
    logits = rng.normal(0.0, 1.0, size=shape + (channels,))
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    probs = e / e.sum(axis=-1, keepdims=True)
    # keep away from 0/1 so loss clamps stay inactive under FD probing
    probs = 0.9 * probs + 0.1 / channels
    return probs


def datatype_and_bitpix(path):
    """The NIfTI header's ``datatype`` and ``bitpix`` fields (bytes 70-73) of the file at ``path``."""
    return tuple(int(v) for v in np.frombuffer(Path(path).read_bytes(), "<i2", count=2, offset=70))


def traced_peak_volumes(fn, shape) -> float:
    """The traced allocation peak of ``fn()`` above what was live before it, in float64
    volumes of a grid of ``shape``."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak / (int(np.prod(shape)) * np.dtype(np.float64).itemsize)


def sphere_labels(shape, center, radius, spacing=(1.0, 1.0, 1.0)) -> np.ndarray:
    grid = np.stack(np.meshgrid(*[np.arange(s) for s in shape], indexing="ij"), axis=-1)
    d2 = (((grid - np.asarray(center)) * np.asarray(spacing)) ** 2).sum(axis=-1)
    return (d2 <= radius ** 2).astype(np.uint16)

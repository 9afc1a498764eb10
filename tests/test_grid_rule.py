"""The library's grid rule: every function that combines grids refuses a
partner with the same shape at another spacing, since its millimetres would
come from whichever argument it happened to read."""

import numpy as np
import pytest

from conftest import random_softmax, sphere_labels
from scribsup.errors import ShapeMismatchError
from scribsup.label_propagation import PseudoLabels, propagate
from scribsup.losses import (
    ProbVolume, active_boundary_loss, boundary_loss, partial_ce, total_loss,
)
from scribsup.metrics import dice, evaluate, hd95, precision
from scribsup.scribble_sim import ScribbleSet
from scribsup.supervoxel import SupervoxelMap
from scribsup.volume_io import BinaryVolume, LabelVolume, Volume

SHAPE = (8, 8, 4)
HERE = (1.0, 1.0, 1.0)
THERE = (1.25, 1.25, 5.0)


def _inputs(spacing):
    rng = np.random.default_rng(5)
    labels = sphere_labels(SHAPE, (4, 4, 2), 2.5)
    return {
        "image": Volume(rng.random(SHAPE).astype(np.float32), spacing),
        "labels": LabelVolume(labels, spacing, 2),
        "conf": BinaryVolume(np.ones(SHAPE, dtype=np.uint8), spacing),
        "edges": BinaryVolume((rng.random(SHAPE) > 0.5).astype(np.uint8), spacing),
        "boundary": ProbVolume(rng.uniform(0.1, 0.9, SHAPE + (1,)), spacing),
        "probs": ProbVolume(random_softmax(rng, SHAPE, 2), spacing),
        "scribbles": ScribbleSet(np.argwhere(labels == 1), np.ones(int(labels.sum())), 2,
                                 SHAPE, spacing),
        "sv": SupervoxelMap(labels.astype(np.int32), spacing),
    }


def _total(a, b):
    """``total_loss`` with the boundary pair from ``b`` and every other input from ``a``."""
    pl = PseudoLabels(a["labels"], a["conf"])
    return total_loss(b["boundary"], b["edges"], a["probs"], a["probs"], pl, a["image"])


CASES = {
    "boundary_loss": lambda a, b: boundary_loss(a["boundary"], b["edges"]),
    "partial_ce": lambda a, b: partial_ce(a["probs"], PseudoLabels(b["labels"], b["conf"])),
    "active_boundary_loss": lambda a, b: active_boundary_loss(a["probs"], b["image"]),
    "total_loss": _total,
    "dice": lambda a, b: dice(a["labels"], b["labels"], 1),
    "precision": lambda a, b: precision(a["labels"], b["labels"], 1),
    "evaluate": lambda a, b: evaluate(a["labels"], b["labels"]),
    "hd95": lambda a, b: hd95(a["labels"], b["labels"], 1),
    "hd95_swapped": lambda a, b: hd95(b["labels"], a["labels"], 1),
    "propagate": lambda a, b: propagate(a["scribbles"], b["sv"]),
    "PseudoLabels": lambda a, b: PseudoLabels(a["labels"], b["conf"]),
}


@pytest.mark.parametrize("case", CASES)
def test_partner_at_another_spacing_is_refused(case):
    here, there = _inputs(HERE), _inputs(THERE)
    CASES[case](here, here)  # the same grid is accepted
    with pytest.raises(ShapeMismatchError, match="different grids"):
        CASES[case](here, there)

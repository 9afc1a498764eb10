"""Segmentation evaluation: Dice, HD95 in millimeters, and precision.

HD95 pools the two directed lists of nearest boundary-to-boundary distances
(computed on 6-neighborhood boundary voxels, in physical units) and returns
the 95th percentile with linear interpolation between order statistics.
Empty regions yield ``None`` (undefined), never a silent 0 or infinity.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional

import numpy as np
from scipy.ndimage import binary_erosion, distance_transform_edt

from .volume_io import LabelVolume, _check_same_grid

__all__ = [
    "ClassMetrics",
    "MetricsReport",
    "dice",
    "hd95",
    "precision",
    "evaluate",
    "boundary_voxels",
]


@dataclass(frozen=True)
class ClassMetrics:
    class_id: int
    dice: float
    hd95_mm: Optional[float]
    precision: Optional[float]


@dataclass(frozen=True)
class MetricsReport:
    """Per-class metrics plus foreground means (undefined entries excluded)."""

    per_class: List[ClassMetrics]
    mean_dice: Optional[float]
    mean_hd95_mm: Optional[float]
    mean_precision: Optional[float]
    undefined: List[Dict[str, object]]

    def to_dict(self) -> dict:
        return {
            "classes": [asdict(m) for m in self.per_class],
            "mean": {
                "dice": self.mean_dice,
                "hd95_mm": self.mean_hd95_mm,
                "precision": self.mean_precision,
            },
            "undefined": self.undefined,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


def dice(pred: LabelVolume, gt: LabelVolume, c: int) -> float:
    """Dice overlap 2|P n G| / (|P| + |G|); 1.0 when both sets are empty."""
    _check_same_grid(pred, gt, "prediction and ground truth")
    p = pred.data == c
    g = gt.data == c
    denom = int(p.sum()) + int(g.sum())
    if denom == 0:
        return 1.0
    return 2.0 * int(np.logical_and(p, g).sum()) / denom


def precision(pred: LabelVolume, gt: LabelVolume, c: int) -> Optional[float]:
    """TP / (TP + FP); ``None`` when the prediction for class c is empty."""
    _check_same_grid(pred, gt, "prediction and ground truth")
    p = pred.data == c
    n_pred = int(p.sum())
    if n_pred == 0:
        return None
    tp = int(np.logical_and(p, gt.data == c).sum())
    return tp / n_pred


def boundary_voxels(mask: np.ndarray) -> np.ndarray:
    """Boundary of a bool set: set voxels with a non-set 6-neighbor or on
    the image border (the default erosion structure is the 6-neighbourhood)."""
    return mask & ~binary_erosion(mask, border_value=0)


def hd95(pred: LabelVolume, gt: LabelVolume, c: int) -> Optional[float]:
    """95th percentile of pooled bidirectional boundary distances, in mm.

    Returns ``None`` when either class-c region is empty. Distances come
    from an exact Euclidean distance transform with anisotropic sampling.
    """
    _check_same_grid(pred, gt, "prediction and ground truth")
    p = pred.data == c
    g = gt.data == c
    if not p.any() or not g.any():
        return None
    bp = boundary_voxels(p)
    bg = boundary_voxels(g)
    # Every feature and query voxel lies in the joint box, so the EDTs are exact on it.
    box = tuple(slice(idx.min(), idx.max() + 1) for idx in np.nonzero(bp | bg))
    bp, bg = bp[box], bg[box]
    dist_to_g = distance_transform_edt(~bg, sampling=gt.spacing)
    dist_to_p = distance_transform_edt(~bp, sampling=gt.spacing)
    pooled = np.concatenate([dist_to_g[bp], dist_to_p[bg]])
    return float(np.percentile(pooled, 95))


def evaluate(pred: LabelVolume, gt: LabelVolume) -> MetricsReport:
    """Per-foreground-class Dice/HD95/precision plus their means.

    Undefined entries (empty regions) are excluded from the means and
    listed under ``undefined``.
    """
    _check_same_grid(pred, gt, "prediction and ground truth")
    num_classes = max(pred.num_classes, gt.num_classes)
    per_class: List[ClassMetrics] = []
    undefined: List[Dict[str, object]] = []
    dices, hds, precs = [], [], []
    for c in range(1, num_classes):
        d = dice(pred, gt, c)
        h = hd95(pred, gt, c)
        p = precision(pred, gt, c)
        per_class.append(ClassMetrics(c, d, h, p))
        dices.append(d)
        if h is None:
            undefined.append({"class_id": c, "metric": "hd95_mm"})
        else:
            hds.append(h)
        if p is None:
            undefined.append({"class_id": c, "metric": "precision"})
        else:
            precs.append(p)
    return MetricsReport(
        per_class=per_class,
        mean_dice=float(np.mean(dices)) if dices else None,
        mean_hd95_mm=float(np.mean(hds)) if hds else None,
        mean_precision=float(np.mean(precs)) if precs else None,
        undefined=undefined,
    )

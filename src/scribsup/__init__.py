"""Scribble-supervised volumetric segmentation toolkit.

Turns sparse scribble annotations on anisotropic 3D volumes into dense
training supervision (pseudo masks, confidence masks, static boundaries),
provides boundary/partial-CE/active-boundary losses with analytic
gradients, evaluates segmentations, and ships a deterministic forward-only
network reference.
"""

from .errors import (
    BadPatchShapeError,
    EmptyForegroundError,
    InvalidConfigError,
    KTooLargeError,
    MalformedHeaderError,
    NoConfidentVoxelsError,
    ScribsupError,
    ShapeMismatchError,
    TruncatedDataError,
    UnsupportedDatatypeError,
    UnsupportedScalingError,
)
from .volume_io import (
    BinaryVolume,
    LabelVolume,
    Volume,
    crop_or_pad,
    read_nifti,
    write_nifti,
)
from .supervoxel import SlicParams, SupervoxelMap, enforce_connectivity, slic3d
from .scribble_sim import (
    ScribbleSet,
    merge_scribbles,
    scribbles_from_label_volume,
    scribbles_to_label_volume,
    simulate_background_scribble,
    simulate_foreground_scribbles,
)
from .label_propagation import PseudoLabels, propagate, static_boundary
from .losses import (
    AbParams,
    LossReport,
    ProbVolume,
    TotalLossReport,
    TotalLossWeights,
    active_boundary_loss,
    boundary_loss,
    partial_ce,
    total_loss,
)
from .metrics import MetricsReport, dice, evaluate, hd95, precision
from .refnet import (
    NetConfig,
    Network,
    NetworkOutputs,
    build,
    count_params,
    forward,
)

__version__ = "0.1.0"

__all__ = [
    "Volume", "LabelVolume", "BinaryVolume", "read_nifti", "write_nifti", "crop_or_pad",
    "SupervoxelMap", "SlicParams", "slic3d", "enforce_connectivity",
    "ScribbleSet", "simulate_foreground_scribbles", "simulate_background_scribble",
    "merge_scribbles", "scribbles_to_label_volume", "scribbles_from_label_volume",
    "PseudoLabels", "propagate", "static_boundary",
    "ProbVolume", "AbParams", "TotalLossWeights", "LossReport", "TotalLossReport",
    "boundary_loss", "partial_ce", "active_boundary_loss", "total_loss",
    "MetricsReport", "dice", "hd95", "precision", "evaluate",
    "NetConfig", "Network", "NetworkOutputs", "build", "forward", "count_params",
    "ScribsupError", "MalformedHeaderError", "UnsupportedDatatypeError",
    "UnsupportedScalingError", "TruncatedDataError", "ShapeMismatchError", "KTooLargeError",
    "EmptyForegroundError", "NoConfidentVoxelsError", "InvalidConfigError",
    "BadPatchShapeError",
]

"""Supervision losses with analytic gradients w.r.t. the prediction volume.

Three signals, each returning value plus exact gradient:

* two-sided boundary cross-entropy between a predicted edge probability
  map and the static boundary volume,
* partial cross-entropy restricted to confident pseudo-label voxels,
* an active-boundary functional: a smoothed total-variation surface term
  plus Chan-Vese inside/outside intensity-variance volume terms, applied
  per foreground class. Region means c1/c2 are recomputed from the current
  prediction and treated as constants in the gradient (alternating scheme).

Values for the cross-entropy losses are means (per voxel / per confident
voxel) so they are patch-size independent; the active-boundary terms are
physical integrals weighted by the voxel volume in mm^3. Gradients are built
in place, in the same IEEE operations and order as their out-of-place forms
(``tests/oracles.py``), so every value and gradient is byte-identical to them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from .errors import NoConfidentVoxelsError, ShapeMismatchError, check_setting
from .volume_io import BinaryVolume, ProbVolume, PseudoLabels, Volume, _check_same_grid, _normalize

__all__ = [
    "ProbVolume",
    "AbParams",
    "TotalLossWeights",
    "LossReport",
    "TotalLossReport",
    "boundary_loss",
    "partial_ce",
    "active_boundary_loss",
    "total_loss",
]

_CLAMP_LO = 1e-7
_CLAMP_HI = 1.0 - 1e-7
@dataclass(frozen=True)
class AbParams:
    """Active-boundary weights: lambda1 (inside), lambda2 (outside), epsilon."""

    lambda1: float = 1.0
    lambda2: float = 0.1
    epsilon: float = 1e-6

    def __post_init__(self):
        for name in ("lambda1", "lambda2", "epsilon"):
            check_setting(name, getattr(self, name), 0.0)


@dataclass(frozen=True)
class TotalLossWeights:
    """Top-level loss weights beta1 (boundary) and beta2 (active boundary)."""

    beta1: float = 0.3
    beta2: float = 0.3

    def __post_init__(self):
        for name in ("beta1", "beta2"):
            check_setting(name, getattr(self, name), 0.0)


@dataclass(frozen=True)
class LossReport:
    """Scalar loss value plus gradient matching the prediction's shape."""

    value: float
    grad: np.ndarray

    def __post_init__(self):
        if not np.isfinite(self.value):
            raise ValueError("loss value must be finite")
        if not np.all(np.isfinite(self.grad)):
            raise ValueError("gradient must be finite everywhere")


@dataclass(frozen=True)
class TotalLossReport:
    """Weighted total with a per-term breakdown and per-input gradients."""

    value: float
    terms: Dict[str, float]
    grad_boundary: np.ndarray
    grad_init: np.ndarray
    grad_final: np.ndarray


def boundary_loss(b: ProbVolume, target: BinaryVolume) -> LossReport:
    """Mean two-sided cross-entropy between the boundary probability map and static edges,

        -(1/V) * sum_x [B log b + (1 - B) log(1 - b)],

    whose minimum is b = B. Probabilities are clamped to [1e-7, 1 - 1e-7];
    the gradient is exactly zero where the clamp is active.
    """
    if b.channels != 1:
        raise ShapeMismatchError("boundary prediction must have one channel")
    _check_same_grid(b, target, "boundary prediction and target")
    raw = b.data[..., 0]
    x = np.clip(raw, _CLAMP_LO, _CLAMP_HI)
    t = target.data.astype(np.float64)
    n = x.size
    value = -float(np.sum(t * np.log(x) + (1.0 - t) * np.log(1.0 - x))) / n
    grad = -(t / x - (1.0 - t) / (1.0 - x)) / n
    grad = np.where((raw > _CLAMP_LO) & (raw < _CLAMP_HI), grad, 0.0)
    return LossReport(value, grad[..., None])


def partial_ce(probs: ProbVolume, pl: PseudoLabels) -> LossReport:
    """Cross-entropy restricted to confident pseudo-label voxels.

    value = -(1/|C|) * sum over confident x of log probs(x, mask(x)).
    The gradient is exactly zero at non-confident voxels and on channels
    other than the pseudo label.

    Raises:
        NoConfidentVoxelsError: when the confidence mask is empty.
        ShapeMismatchError: grid or class-count disagreement.
    """
    _check_same_grid(probs, pl.mask, "probabilities and pseudo labels")
    if probs.channels != pl.mask.num_classes:
        raise ShapeMismatchError(
            f"{probs.channels} channels vs {pl.mask.num_classes} classes"
        )
    conf = pl.confident.data.astype(bool)
    n_conf = int(conf.sum())
    if n_conf == 0:
        raise NoConfidentVoxelsError("no confident voxels to supervise")
    labels = pl.mask.data  # each label lies below the channel count, so every voxel is picked
    picked = np.empty(labels.shape)  # the picked probability, its clamp, then the coefficient
    for c in range(probs.channels):
        np.copyto(picked, probs.data[..., c], where=labels == c)
    keep = conf & (picked > _CLAMP_LO)  # the gradient is zero where the clamp is active
    value = -float(np.sum(np.log(np.maximum(picked, _CLAMP_LO, out=picked)[conf]))) / n_conf
    np.divide(-1.0, np.multiply(picked, n_conf, out=picked), out=picked)
    picked[~keep] = 0.0
    grad = np.zeros_like(probs.data)
    for c in range(probs.channels):
        np.copyto(grad[..., c], picked, where=labels == c)
    return LossReport(value, grad)


def _active_boundary_term(u, v, spacing, omega, params: AbParams):
    """One foreground channel's value and gradient; its temporaries die on return."""
    def diff(a):  # forward difference with a zero-flux far border, made where it is read
        return np.diff(u, axis=a, append=u.take([-1], axis=a)) / spacing[a]
    phi = np.square(diff(0))
    for a in (1, 2):  # ((d0^2 + d1^2) + d2^2) + eps, one difference alive at a time
        phi += np.square(diff(a))
    np.sqrt(np.add(phi, params.epsilon, out=phi), out=phi)
    surface = float(phi.sum()) * omega

    g = np.zeros_like(u)
    w = np.zeros_like(u)  # reused by every axis: only entries where phi > 0 are written
    for a in range(3):
        # zero subgradient where the field vanishes (possible at eps = 0)
        np.divide(diff(a), phi, out=w, where=phi > 0)
        g -= np.diff(w, axis=a, prepend=0.0) / spacing[a]
    del phi, w  # before the volume terms' temporaries
    g *= omega

    su = float(u.sum())
    s1mu = float((1.0 - u).sum())
    c1 = float((u * v).sum()) / max(su, 1e-8)
    c2 = float(((1.0 - u) * v).sum()) / max(s1mu, 1e-8)
    r_in = (c1 - v) ** 2
    r_out = (c2 - v) ** 2
    vol_in = float((r_in * u).sum()) * omega
    vol_out = float((r_out * (1.0 - u)).sum()) * omega
    g += omega * (params.lambda1 * r_in - params.lambda2 * r_out)
    return surface + params.lambda1 * vol_in + params.lambda2 * vol_out, g


def active_boundary_loss(
    probs: ProbVolume, image: Volume, params: AbParams = AbParams()
) -> LossReport:
    """Surface + lambda1 * Volume_In + lambda2 * Volume_Out per foreground class.

    With u one foreground channel, v the min-max normalized image, Omega the
    voxel volume in mm^3 and D_a the spacing-scaled forward difference:

        Surface    = sum_x sqrt(sum_a (D_a u)^2 + eps) * Omega
        c1         = sum(u * v) / max(sum(u), 1e-8)
        c2         = sum((1-u) * v) / max(sum(1-u), 1e-8)
        Volume_In  = sum_x (c1 - v)^2 * u * Omega
        Volume_Out = sum_x (c2 - v)^2 * (1-u) * Omega

    The gradient freezes c1 and c2 (alternating minimization); the surface
    gradient is the exact adjoint of the forward-difference operator. The
    background channel's gradient is zero.
    """
    _check_same_grid(probs, image, "probabilities and image")
    v = _normalize(image.data)
    total = 0.0
    grad = np.zeros_like(probs.data)
    for c in range(1, probs.channels):
        value, grad[..., c] = _active_boundary_term(  # on a contiguous copy of the channel
            np.ascontiguousarray(probs.data[..., c]), v, image.spacing, image.voxel_volume_mm3, params)
        total += value
    return LossReport(total, grad)


def total_loss(
    boundary: ProbVolume,
    static_edges: BinaryVolume,
    probs_init: ProbVolume,
    probs_final: ProbVolume,
    pl: PseudoLabels,
    image: Volume,
    ab: AbParams = AbParams(),
    weights: TotalLossWeights = TotalLossWeights(),
) -> TotalLossReport:
    """Weighted sum of all supervision terms.

        total = beta1 * L_bry + L_seg(init) + L_seg(final) + beta2 * L_AB(final)

    with L_bry the two-sided :func:`boundary_loss`. Gradients compose by linearity: the
    boundary gradient is scaled by beta1; the final-mask gradient is the partial CE
    gradient plus beta2 times the active-boundary gradient. The per-term breakdown echoes
    the weights in effect. Grids and channel counts are checked before any term runs.
    """
    channels = {"boundary": 1, "probs_init": pl.mask.num_classes, "probs_final": pl.mask.num_classes}
    for name, vol in zip(("boundary", "static_edges", "probs_init", "probs_final", "pl.mask"),
                         (boundary, static_edges, probs_init, probs_final, pl.mask)):
        _check_same_grid(vol, image, f"{name} and image")
        if name in channels and vol.channels != channels[name]:
            raise ShapeMismatchError(f"{name} has {vol.channels} channels, needs {channels[name]}")
    # the largest transient first, while no other gradient is held; the final-mask
    # gradient is summed into its buffer before the boundary and initial-mask terms run
    abl = active_boundary_loss(probs_final, image, ab)
    grad_final = abl.grad
    grad_final *= weights.beta2
    seg_final = partial_ce(probs_final, pl)
    grad_final += seg_final.grad
    l_seg_final = seg_final.value
    del seg_final
    bry = boundary_loss(boundary, static_edges)
    seg_init = partial_ce(probs_init, pl)
    value = (
        weights.beta1 * bry.value
        + seg_init.value
        + l_seg_final
        + weights.beta2 * abl.value
    )
    terms = {
        "l_bry": bry.value,
        "l_seg_init": seg_init.value,
        "l_seg_final": l_seg_final,
        "l_ab": abl.value,
        "total": value,
        "beta1": weights.beta1,
        "beta2": weights.beta2,
        "lambda1": ab.lambda1,
        "lambda2": ab.lambda2,
    }
    return TotalLossReport(
        value=value,
        terms=terms,
        grad_boundary=weights.beta1 * bry.grad,
        grad_init=seg_init.grad,
        grad_final=grad_final,
    )

"""Deterministic forward-only reference of the 2.5D segmentation network.

The backbone is an attention UNet whose top ``levels_2d`` encoder/decoder
levels use in-plane 3x3x1 convolutions with (2,2,1) down/upsampling, while
deeper levels use 3x3x3 convolutions with (2,2,2) resampling, so feature
grids become isotropic for ~4:1 anisotropic inputs. A densely connected
dilated-convolution block sits at the bottleneck. Three heads produce a
single-channel boundary probability map (multi-scale decoder features fused
through a residual channel attention block), an initial softmax mask from
the bottleneck, and a final softmax mask from the fused boundary features
concatenated with the pre-softmax initial logits.

Everything is plain NumPy: weights are drawn once from a seeded generator
(normal, mean 0, std 0.1) and never change, so the forward pass is a pure
function usable for wiring and invariant checks. Feature standardization
(per-channel, per-instance) follows every spatial convolution to keep
activations bounded; it is a non-architectural stabilizer and always on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Dict, List, Tuple

import numpy as np

from .errors import BadPatchShapeError, InvalidConfigError, check_setting
from .volume_io import ProbVolume, Volume

__all__ = [
    "NetConfig",
    "Network",
    "NetworkOutputs",
    "build",
    "forward",
    "count_params",
]

_INIT_STD = 0.1  # normal init: mean 0, variance 0.01
_NORM_EPS = 1e-5
# Sigmoid pre-activations are clipped here so gates stay strictly inside
# (1e-12, 1 - 1e-12) even for adversarial features.
_GATE_CLIP = 26.0


@dataclass(frozen=True)
class NetConfig:
    """Architecture hyper-parameters: the class count, the width and the weight seed.

    The shape is fixed: ``depth``, ``levels_2d`` and ``aspp_rates`` are
    constants, choices of this reference (the backbone/bottleneck designs
    leave them open) named here rather than settable. Inputs are
    single-channel, and each ASPP branch adds ``growth`` = 2 * ``base_filters`` channels.
    """

    depth: ClassVar[int] = 5
    levels_2d: ClassVar[int] = 2
    aspp_rates: ClassVar[Tuple[int, ...]] = (3, 6, 12, 18)

    num_classes: int
    base_filters: int = 8
    seed: int = 0

    def __post_init__(self):
        for name, low in (("num_classes", 2), ("base_filters", 1), ("seed", 0)):
            check_setting(name, getattr(self, name), low, integer=True)

    @property
    def growth(self) -> int:
        return 2 * self.base_filters

    def channels(self, level: int) -> int:
        return self.base_filters * (2 ** level)

    def kernel(self, level: int) -> Tuple[int, int, int]:
        return (3, 3, 1) if level < self.levels_2d else (3, 3, 3)

    def factor(self, level: int) -> Tuple[int, int, int]:
        """Resampling factor for the transition level -> level + 1."""
        return (2, 2, 1) if level < self.levels_2d else (2, 2, 2)

    @property
    def divisors(self) -> Tuple[int, int, int]:
        n_xy = self.depth - 1
        n_z = self.depth - 1 - self.levels_2d
        return (2 ** n_xy, 2 ** n_xy, 2 ** n_z)

    def check_patch_shape(self, shape) -> None:
        """Raise InvalidConfigError unless ``shape`` is three integers >= 1, then
        BadPatchShapeError unless it divides through the ladder."""
        if not isinstance(shape, (list, tuple)) or len(shape) != 3:
            raise InvalidConfigError(f"patch_shape must be three integers >= 1, got {shape!r}")
        for s in shape:
            check_setting(f"each entry of patch_shape {list(shape)}", s, 1, integer=True)
        div = self.divisors
        if any(s % d != 0 for s, d in zip(shape, div)):
            raise BadPatchShapeError(f"patch {tuple(shape)} must be divisible by {div} (x, y, z)")


@dataclass(frozen=True)
class Network:
    """Immutable weight store, read-only once built; ``params`` is in :func:`_param_specs` order."""

    config: NetConfig
    params: Dict[str, np.ndarray] = field(repr=False)


@dataclass(frozen=True)
class NetworkOutputs:
    """Forward-pass products, all at the input's spatial resolution.

    ``attention_maps`` lists the per-decoder-level gate volumes, deepest
    level first, each at that level's grid resolution with values strictly
    inside (0, 1).
    """

    boundary: ProbVolume
    mask_init: ProbVolume
    mask_final: ProbVolume
    attention_maps: List[np.ndarray]


def _param_specs(cfg: NetConfig) -> List[Tuple[str, Tuple[int, ...]]]:
    """Deterministic (name, shape) inventory for every learnable array."""
    specs: List[Tuple[str, Tuple[int, ...]]] = []

    def conv(name, c_out, c_in, kernel):
        specs.append((f"{name}.w", (c_out, c_in) + tuple(kernel)))
        specs.append((f"{name}.b", (c_out,)))

    def dense(name, c_out, c_in):
        specs.append((f"{name}.w", (c_out, c_in)))
        specs.append((f"{name}.b", (c_out,)))

    for i in range(cfg.depth):
        c_in = 1 if i == 0 else cfg.channels(i - 1)
        conv(f"enc{i}.conv1", cfg.channels(i), c_in, cfg.kernel(i))
        conv(f"enc{i}.conv2", cfg.channels(i), cfg.channels(i), cfg.kernel(i))

    bottom = cfg.channels(cfg.depth - 1)
    for j, _rate in enumerate(cfg.aspp_rates):
        conv(f"aspp.branch{j}", cfg.growth, bottom + j * cfg.growth, (3, 3, 3))
    dense("aspp.fuse", bottom, bottom + len(cfg.aspp_rates) * cfg.growth)

    for i in range(cfg.depth - 2, -1, -1):
        c_up = cfg.channels(i + 1)
        c_skip = cfg.channels(i)
        dense(f"dec{i}.gate1", c_skip, c_up + c_skip)
        dense(f"dec{i}.gate2", 1, c_skip)
        conv(f"dec{i}.conv1", c_skip, c_up + c_skip, cfg.kernel(i))
        conv(f"dec{i}.conv2", c_skip, c_skip, cfg.kernel(i))

    for i in range(cfg.depth - 2, -1, -1):
        dense(f"sbpm.proj{i}", cfg.base_filters, cfg.channels(i))
    c_sb = (cfg.depth - 1) * cfg.base_filters
    dense("sbpm.rcab.fc1", c_sb // 2, c_sb)
    dense("sbpm.rcab.fc2", c_sb, c_sb // 2)
    dense("sbpm.out", 1, c_sb)

    conv("init.conv1", bottom, bottom, (3, 3, 3))
    conv("init.conv2", bottom, bottom, (3, 3, 3))
    dense("init.head", cfg.num_classes, bottom)

    c_final = c_sb + cfg.num_classes
    dense("final.rcab.fc1", c_final // 2, c_final)
    dense("final.rcab.fc2", c_final, c_final // 2)
    dense("final.head", cfg.num_classes, c_final)
    return specs


def build(config: NetConfig) -> Network:
    """Create a network with all parameters drawn from N(0, 0.01 variance).

    The same seed always yields bit-identical weights; parameter order is
    the fixed inventory of :func:`_param_specs`.
    """
    rng = np.random.default_rng(config.seed)
    params: Dict[str, np.ndarray] = {}
    for name, shape in _param_specs(config):
        arr = rng.standard_normal(shape, dtype=np.float32) * np.float32(_INIT_STD)
        arr.setflags(write=False)
        params[name] = arr
    return Network(config=config, params=params)


def count_params(net: Network) -> int:
    """Total number of scalar parameters (weights and biases)."""
    return int(sum(p.size for p in net.params.values()))


# ---------------------------------------------------------------------------
# forward-pass primitives (channels-first float32 arrays)


def _conv3d(x, w, b, dilation=(1, 1, 1)):
    """Zero-padded 'same' convolution: one y/z-im2col block and one GEMM per input x-row.

    ``x`` is one (c, sx, sy, sz) array or a tuple of them on one grid, read as
    their channel concatenation. Each input x-row's (c_in, ky, kz, sy, sz) block
    is gathered once into one reused slot, each in-plane tap copying its in-range
    box straight from the inputs, so no padded or concatenated copy is made. The
    strips outside the y/z grid are the same in every row, so the slot starts
    zeroed and they are never written. One GEMM multiplies the block by the kx
    x-taps' weights stacked as a (kx * c_out, c_in * ky * kz) matrix (the
    shifted-block products of MEC, Cho & Brand, ICML 2017); tap ``i``'s c_out rows
    belong to output row ``r - (i - kx // 2) * dx`` when it is on the grid. Rows
    run in increasing ``r``, so each output row sums its landing taps in
    increasing ``i``: the first copies, later ones add, and the bias follows the last.
    """
    parts = x if isinstance(x, tuple) else (x,)
    c_out, c_in, kx, ky, kz = w.shape
    (sx, sy, sz), dx = parts[0].shape[1:], dilation[0]
    taps = np.moveaxis(w, 2, 0).reshape(kx * c_out, c_in * ky * kz)
    copies = []  # (slot box, part number, box of that part's x-row) per in-plane tap
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
    slot = np.zeros((c_in, ky, kz, sy, sz), dtype=np.float32)
    prods = np.empty((kx, c_out, sy * sz), dtype=np.float32)
    out = np.empty((c_out, sx, sy, sz), dtype=np.float32)
    rows_out = out.reshape(c_out, sx, sy * sz)
    for r in range(sx):
        rows = [part[:, r] for part in parts]
        for dst, k, src in copies:
            slot[dst] = rows[k][src]
        np.matmul(taps, slot.reshape(c_in * ky * kz, sy * sz), out=prods.reshape(kx * c_out, sy * sz))
        for i, prod in enumerate(prods):
            xo = r - (i - kx // 2) * dx
            if not 0 <= xo < sx:
                continue
            row = rows_out[:, xo]
            if i == 0 or r < dx:  # first tap to land: tap i - 1 would read row r - dx < 0
                np.copyto(row, prod)
            else:
                row += prod
            if i == kx - 1 or r + dx >= sx:  # last: tap i + 1 would read row r + dx >= sx
                row += b[:, None]
    return out


def _conv1x1(x, w, b):
    out = np.tensordot(w, x, axes=([1], [0]))
    out += b[:, None, None, None]
    return out


def _instance_norm(x):
    """Standardize each channel of ``x`` in place."""
    x -= x.mean(axis=(1, 2, 3), keepdims=True)
    var = np.square(x).sum(axis=(1, 2, 3), keepdims=True) / x[0].size  # the steps of ``x.var``
    x /= np.sqrt(var + _NORM_EPS)
    return x


def _relu(x):
    return np.maximum(x, 0.0, out=x)


def _sigmoid64(x):
    z = np.clip(x.astype(np.float64), -_GATE_CLIP, _GATE_CLIP)
    return 1.0 / (1.0 + np.exp(-z))


def _softmax64(logits):
    z = logits.astype(np.float64)
    z -= z.max(axis=0, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=0, keepdims=True)
    return z


def _maxpool(x, factor):
    """Max over each (fx, fy, fz) block, as a running maximum over its strided sub-grids."""
    fx, fy, fz = factor
    out = x[:, ::fx, ::fy, ::fz].copy()
    for i, j, k in list(np.ndindex(fx, fy, fz))[1:]:
        np.maximum(out, x[:, i::fx, j::fy, k::fz], out=out)
    return out


def _interp_matrix(n_src: int, n_dst: int) -> np.ndarray:
    """(n_dst, n_src) linear-interpolation matrix: half-pixel centres, clamped borders."""
    src = (np.arange(n_dst) + 0.5) * (n_src / n_dst) - 0.5
    i0 = np.floor(src).astype(np.int64)
    w1 = (src - i0).astype(np.float32)
    m = np.zeros((n_dst, n_src), dtype=np.float32)
    rows = np.arange(n_dst)
    np.add.at(m, (rows, np.clip(i0, 0, n_src - 1)), 1.0 - w1)
    np.add.at(m, (rows, np.clip(i0 + 1, 0, n_src - 1)), w1)
    return m


def _upsample_to(x, target):
    """Separable trilinear resize (half-pixel centers, clamped borders)."""
    for axis, n_dst in zip((1, 2, 3), target):
        if x.shape[axis] == n_dst:
            continue
        m = _interp_matrix(x.shape[axis], n_dst)
        c, sx, sy, sz = x.shape
        if axis == 1:
            x = (m @ x.reshape(c, sx, sy * sz)).reshape(c, n_dst, sy, sz)
        elif axis == 2:
            x = m @ x
        else:
            x = x @ m.T
    return x


def _conv_block(net, prefix, x):
    for tag in ("conv1", "conv2"):
        x = _conv3d(x, net.params[f"{prefix}.{tag}.w"], net.params[f"{prefix}.{tag}.b"])
        x = _relu(_instance_norm(x))
    return x


def _aspp(net, x):
    cfg = net.config
    feats = x
    for j, rate in enumerate(cfg.aspp_rates):
        y = _conv3d(
            feats,
            net.params[f"aspp.branch{j}.w"],
            net.params[f"aspp.branch{j}.b"],
            dilation=(rate, rate, rate),
        )
        y = _relu(_instance_norm(y))
        feats = np.concatenate([feats, y], axis=0)
    out = _conv1x1(feats, net.params["aspp.fuse.w"], net.params["aspp.fuse.b"])
    return _relu(_instance_norm(out))


def _grid_mean(x, target):
    """Per-channel mean of ``_upsample_to(x, target)``, taken on ``x``'s own grid.

    Upsampling is linear, so each source voxel weighs the column sums of the
    per-axis interpolation matrices, over the target's size.
    """
    m = x
    for n_src, n_dst in reversed(list(zip(x.shape[1:], target))):  # contract z, then y, then x
        m = m.reshape(-1, n_src) @ (_interp_matrix(n_src, n_dst).sum(axis=0) / n_dst)
    return m.astype(np.float64)


def _channel_gates(net, prefix, s):
    """Residual channel attention gates g from pooled channel means ``s``; the block is x * (1 + g)."""
    w1, b1 = net.params[f"{prefix}.fc1.w"], net.params[f"{prefix}.fc1.b"]
    w2, b2 = net.params[f"{prefix}.fc2.w"], net.params[f"{prefix}.fc2.b"]
    h = np.maximum(w1.astype(np.float64) @ s + b1, 0.0)
    return _sigmoid64(w2.astype(np.float64) @ h + b2)


def _decoder_level(net, i, d, skip):
    """Upsample ``d`` to ``skip``'s grid, gate the skip in place and run level ``i``'s conv
    block; returns (features, gate). The caller popped ``skip``, so both ``conv1`` inputs
    die once it has read them, before its instance norm and ``conv2`` allocate."""
    params = net.params
    d_up = _upsample_to(d, skip.shape[1:])
    gate1 = params[f"dec{i}.gate1.w"][..., None, None, None]
    t = _relu(_conv3d((d_up, skip), gate1, params[f"dec{i}.gate1.b"]))
    gate = _sigmoid64(_conv1x1(t, params[f"dec{i}.gate2.w"], params[f"dec{i}.gate2.b"])[0])
    del t
    skip *= gate.astype(np.float32)[None]
    x = _conv3d((d_up, skip), params[f"dec{i}.conv1.w"], params[f"dec{i}.conv1.b"])
    del d_up, skip
    x = _conv3d(_relu(_instance_norm(x)), params[f"dec{i}.conv2.w"], params[f"dec{i}.conv2.b"])
    return _relu(_instance_norm(x)), gate


def forward(net: Network, patch: Volume) -> NetworkOutputs:
    """Run the network on a patch; pure function of (net, patch).

    Raises:
        BadPatchShapeError: when the patch dims do not divide evenly through
            the resampling ladder (x and y by 2**(depth-1), z by
            2**(depth-1-levels_2d)).
    """
    cfg = net.config
    cfg.check_patch_shape(patch.shape)
    full_shape = patch.shape
    x = patch.data[None]

    skips = []  # the decoder reads every level but the bottom one
    for i in range(cfg.depth - 1):
        x = _conv_block(net, f"enc{i}", x)
        skips.append(x)
        x = _maxpool(x, cfg.factor(i))
    bottleneck = _aspp(net, _conv_block(net, f"enc{cfg.depth - 1}", x))

    params = net.params
    d = bottleneck
    attention: List[np.ndarray] = []
    projs = []  # SBPM projections, each at its decoder level's resolution
    for i in range(cfg.depth - 2, -1, -1):
        d, gate = _decoder_level(net, i, d, skips.pop())
        attention.append(gate)
        projs.append(_conv1x1(d, params[f"sbpm.proj{i}.w"], params[f"sbpm.proj{i}.b"]))
    del d

    spacing = patch.spacing
    h = _conv_block(net, "init", bottleneck)
    init_logits = _upsample_to(_conv1x1(h, params["init.head.w"], params["init.head.b"]), full_shape)
    mask_init = ProbVolume(np.moveaxis(_softmax64(init_logits), 0, -1), spacing)

    # Each RCAB scales the channels of its input by (1 + g), with g a function of
    # the full-resolution channel means only; so both scales fold into the head
    # weights, which then run on every level's grid before one upsampling.
    means = np.concatenate([_grid_mean(p, full_shape) for p in projs])
    scale_sb = 1.0 + _channel_gates(net, "sbpm.rcab", means)
    final_means = np.concatenate([means * scale_sb, init_logits.mean(axis=(1, 2, 3))])
    w_final = params["final.head.w"] * (1.0 + _channel_gates(net, "final.rcab", final_means))
    c_sb = means.size
    heads = (np.concatenate([params["sbpm.out.w"], w_final[:, :c_sb]]) * scale_sb).astype(np.float32)
    logits = None  # boundary logit, then the final logits, at full resolution
    for p, w in zip(projs, np.split(heads, len(projs), axis=1)):
        q = _upsample_to(np.tensordot(w, p, axes=1), full_shape)
        logits = q if logits is None else np.add(logits, q, out=logits)
    del projs, p, q
    boundary = ProbVolume(_sigmoid64(logits[0] + params["sbpm.out.b"][0])[..., None], spacing)
    final = logits[1:]
    final += np.tensordot(w_final[:, c_sb:].astype(np.float32), init_logits, axes=1)
    final += params["final.head.b"][:, None, None, None]
    del init_logits
    return NetworkOutputs(
        boundary=boundary,
        mask_init=mask_init,
        mask_final=ProbVolume(np.moveaxis(_softmax64(final), 0, -1), spacing),
        attention_maps=attention,
    )

import dataclasses
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from oracles import (brute_conv3d, brute_upsample, reference_decoder_level, reference_maxpool,
                     ring_conv3d)
from scribsup import refnet
from scribsup.errors import BadPatchShapeError, InvalidConfigError
from scribsup.refnet import (
    NetConfig,
    build,
    count_params,
    forward,
)
from scribsup.volume_io import Volume


def _patch(rng, shape, spacing=(1.0, 1.0, 4.0)):
    return Volume(rng.random(shape).astype(np.float32), spacing)


# Per-channel output summaries of ``forward`` captured with the per-tap
# ``tensordot`` convolution and ``take``-based upsampling that preceded the
# im2col/GEMM rewrite. Later implementations may reorder float32 sums, so
# they are compared within GOLDEN_ATOL, never regenerated.
GOLDEN_PATH = Path(__file__).parent / "data" / "refnet_forward_golden.json"
GOLDEN_ATOL = 1e-5
GOLDEN_SHAPES = ((32, 32, 8), (64, 64, 16))


def _summary(arr):
    """Mean, std, min, max and 16 evenly spaced values of one channel."""
    a = np.asarray(arr, dtype=np.float64).ravel()
    probes = a[np.linspace(0, a.size - 1, 16).astype(np.int64)]
    return [float(a.mean()), float(a.std()), float(a.min()), float(a.max())] + probes.tolist()


def _forward_summaries(shape):
    """Summaries of every output channel and attention map for a seeded patch."""
    net = build(NetConfig(num_classes=4, base_filters=8, seed=0))
    patch = _patch(np.random.default_rng(shape[0] * 1000 + shape[2]), shape)
    out = forward(net, patch)
    sums = {}
    for name in ("boundary", "mask_init", "mask_final"):
        data = getattr(out, name).data
        for c in range(data.shape[-1]):
            sums[f"{name}_c{c}"] = _summary(data[..., c])
    for k, gate in enumerate(out.attention_maps):
        sums[f"attention{k}"] = _summary(gate)
    return sums


def test_same_seed_identical_weights():
    a = build(NetConfig(num_classes=3, base_filters=2, seed=42))
    b = build(NetConfig(num_classes=3, base_filters=2, seed=42))
    assert list(a.params) == list(b.params)
    assert list(a.params) == [n for n, _ in refnet._param_specs(a.config)]
    for name in a.params:
        assert np.array_equal(a.params[name], b.params[name])


def test_different_seed_different_weights():
    a = build(NetConfig(num_classes=3, base_filters=2, seed=1))
    b = build(NetConfig(num_classes=3, base_filters=2, seed=2))
    assert any(not np.array_equal(a.params[n], b.params[n]) for n in a.params)


def test_weight_init_statistics():
    net = build(NetConfig(num_classes=4, base_filters=8, seed=0))
    flat = np.concatenate([p.ravel() for p in net.params.values()])
    assert flat.size >= 10 ** 5
    assert abs(flat.mean()) < 0.005
    assert 0.095 <= flat.std() <= 0.105


def test_hand_counted_parameter_total():
    # depth 5, levels_2d 2, base 2, classes 2, growth 4, rates (3,6,12,18);
    # channels 2, 4, 8, 16, 32; levels 0-1 use 3x3x1 kernels, levels 2-4 3x3x3
    cfg = NetConfig(num_classes=2, base_filters=2, seed=0)
    # encoder: (2*1*9+2) + (2*2*9+2) + (4*2*9+4) + (4*4*9+4) + (8*4*27+8) + (8*8*27+8)
    #        + (16*8*27+16) + (16*16*27+16) + (32*16*27+32) + (32*32*27+32)
    encoder = 20 + 38 + 76 + 148 + 872 + 1736 + 3472 + 6928 + 13856 + 27680
    # aspp branches on 32, 36, 40, 44 input channels -> growth 4, then fuse 48->32
    aspp = (4 * 32 * 27 + 4) + (4 * 36 * 27 + 4) + (4 * 40 * 27 + 4) + (4 * 44 * 27 + 4)
    aspp += 32 * 48 + 32
    # decoder level 3: gates (16x48 + 16, 1x16 + 1), convs (16*48*27+16, 16*16*27+16)
    dec3 = (768 + 16) + (16 + 1) + (20736 + 16) + (6912 + 16)
    # decoder level 2: gates (8x24 + 8, 1x8 + 1), convs (8*24*27+8, 8*8*27+8)
    dec2 = (192 + 8) + (8 + 1) + (5184 + 8) + (1728 + 8)
    # decoder level 1 (2D kernels): gates (4x12 + 4, 1x4 + 1), convs (4*12*9+4, 4*4*9+4)
    dec1 = (48 + 4) + (4 + 1) + (432 + 4) + (144 + 4)
    # decoder level 0 (2D kernels): gates (2x6 + 2, 1x2 + 1), convs (2*6*9+2, 2*2*9+2)
    dec0 = (12 + 2) + (2 + 1) + (108 + 2) + (36 + 2)
    # sbpm: projections (2x16+2, 2x8+2, 2x4+2, 2x2+2), rcab on 8 channels (4x8+4, 8x4+8),
    # out (1x8+1)
    sbpm = (32 + 2) + (16 + 2) + (8 + 2) + (4 + 2) + (32 + 4) + (32 + 8) + (8 + 1)
    # init head: two 32->32 3x3x3 convs plus 32->2 1x1x1
    init = (27648 + 32) + (27648 + 32) + (64 + 2)
    # final head: rcab on 10 channels (5x10+5, 10x5+10) plus 10->2 1x1x1
    final = (50 + 5) + (50 + 10) + (20 + 2)
    expected = encoder + aspp + dec3 + dec2 + dec1 + dec0 + sbpm + init + final
    assert count_params(build(cfg)) == expected


def test_param_count_monotone_in_width_and_depth():
    # the depth is fixed, so only the width varies
    base = count_params(build(NetConfig(num_classes=2, base_filters=2, seed=0)))
    wider = count_params(build(NetConfig(num_classes=2, base_filters=4, seed=0)))
    assert wider > base


def test_forward_shapes_softmax_attention(rng):
    cfg = NetConfig(num_classes=4, base_filters=4, seed=7)
    net = build(cfg)
    patch = _patch(rng, (32, 32, 8))
    out = forward(net, patch)
    assert out.boundary.data.shape == (32, 32, 8, 1)
    assert out.mask_init.data.shape == (32, 32, 8, 4)
    assert out.mask_final.data.shape == (32, 32, 8, 4)
    for pv in (out.mask_init, out.mask_final):
        sums = pv.data.sum(axis=-1)
        assert np.abs(sums - 1.0).max() <= 1e-5
        assert pv.data.min() >= 0.0 and pv.data.max() <= 1.0
    assert 0.0 < out.boundary.data.min() and out.boundary.data.max() < 1.0
    for gate in out.attention_maps:
        assert gate.min() >= 1e-12 and gate.max() <= 1.0 - 1e-12


def test_forward_is_pure(rng):
    net = build(NetConfig(num_classes=2, base_filters=2, seed=5))
    patch = _patch(rng, (16, 16, 4))
    a = forward(net, patch)
    b = forward(net, patch)
    assert np.array_equal(a.mask_final.data, b.mask_final.data)
    assert np.array_equal(a.boundary.data, b.boundary.data)
    for ga, gb in zip(a.attention_maps, b.attention_maps):
        assert np.array_equal(ga, gb)


def test_zero_input_finite_and_near_uniform():
    net = build(NetConfig(num_classes=4, base_filters=4, seed=7))
    patch = Volume(np.zeros((16, 16, 4), dtype=np.float32), (1, 1, 4))
    out = forward(net, patch)
    assert np.all(np.isfinite(out.mask_init.data))
    assert np.all(np.isfinite(out.mask_final.data))
    assert np.abs(out.mask_init.data - 0.25).max() < 0.5
    assert np.abs(out.mask_final.data - 0.25).max() < 0.5
    sums = out.mask_init.data.sum(axis=-1)
    assert np.abs(sums - 1.0).max() <= 1e-5


def test_anisotropy_wiring_level2_is_isotropic(rng):
    # input 4:1 voxel aspect; after two in-plane halvings the level-2 grid
    # carries equal physical spacing on all axes
    net = build(NetConfig(num_classes=2, base_filters=2, seed=3))
    shape = (32, 32, 8)
    spacing = np.array([1.0, 1.0, 4.0])
    out = forward(net, _patch(rng, shape, tuple(spacing)))
    # attention maps arrive deepest-first; level-2 is the second entry
    level2 = out.attention_maps[1]
    assert level2.shape == (8, 8, 8)
    feat_spacing = spacing * (np.array(shape) / np.array(level2.shape))
    assert np.allclose(feat_spacing, feat_spacing[0])


def test_bad_patch_shapes(rng):
    net = build(NetConfig(num_classes=2, base_filters=2, seed=0))
    for bad in ((30, 32, 8), (32, 32, 6), (8, 8, 4)):
        with pytest.raises(BadPatchShapeError):
            forward(net, _patch(rng, bad))


@pytest.mark.parametrize("shape", ["abc", [16, 16, 4.0], [True, 32, 8], (16, 16), 16, (16, 16, 0)],
                         ids=["string", "float_entry", "bool_entry", "two_entries", "int", "zero"])
def test_a_patch_shape_that_is_not_three_integers_is_refused_before_the_ladder(shape):
    with pytest.raises(InvalidConfigError, match="patch_shape"):
        NetConfig(num_classes=2).check_patch_shape(shape)


def test_invalid_configs():
    with pytest.raises(InvalidConfigError):
        NetConfig(num_classes=1)
    with pytest.raises(InvalidConfigError):
        NetConfig(num_classes=2, base_filters=0)
    # the shape is constant: only these three can be set
    fields = [f.name for f in dataclasses.fields(NetConfig)]
    assert fields == ["num_classes", "base_filters", "seed"]
    cfg = NetConfig(num_classes=2)
    assert (cfg.depth, cfg.levels_2d, cfg.aspp_rates) == (5, 2, (3, 6, 12, 18))
    assert cfg.divisors == (16, 16, 4)


@pytest.mark.parametrize("shape", GOLDEN_SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_forward_matches_pre_change_golden(shape):
    golden = json.loads(GOLDEN_PATH.read_text())["x".join(map(str, shape))]
    got = _forward_summaries(shape)
    assert sorted(got) == sorted(golden)
    for name, want in golden.items():
        err = np.abs(np.asarray(got[name]) - np.asarray(want)).max()
        assert err <= GOLDEN_ATOL, f"{name}: {err:.3g} from golden"


# x-rows of the test grid, against _conv3d's border rows, where an output row's first or
# last x-tap falls off the grid, so a later tap makes the copy or an earlier one is followed
# by the bias: at rate 1 the default grid's rows 0 and 10 are the border rows and rows 1-9
# take all three taps; at rate 3 its rows 0-2 start at the centre tap and rows 8-10 end there.
# Three rows have one full row (row 1) at rate 1. One row, three rows at rate 3, and rate 18
# on all three grids leave every row only the centre tap.
_CONV_ROWS = pytest.mark.parametrize("sx", [11, 1, 3], ids=["default", "1row", "3rows"])
_CONV_KERNELS = pytest.mark.parametrize("kernel", [(3, 3, 1), (3, 3, 3), (1, 1, 1)],
                                        ids=["3x3x1", "3x3x3", "1x1x1"])
_CONV_RATES = pytest.mark.parametrize("dil", [1, 3, 18], ids=["dil1", "dil3", "dil18"])


@_CONV_ROWS
@_CONV_KERNELS
@_CONV_RATES
def test_conv3d_matches_per_tap_reference(sx, kernel, dil):
    rng = np.random.default_rng(31)
    c_in, c_out, grid = 3, 5, (sx, 5, 9)
    x = rng.standard_normal((c_in,) + grid).astype(np.float32)
    w = rng.standard_normal((c_out, c_in) + kernel).astype(np.float32)
    b = rng.standard_normal(c_out).astype(np.float32)
    got = refnet._conv3d(x, w, b, dilation=(dil, dil, dil))
    assert got.dtype == np.float32 and got.shape == (c_out,) + grid
    assert np.abs(got - brute_conv3d(x, w, b, (dil, dil, dil))).max() <= 1e-5
    assert np.abs(got - ring_conv3d(x, w, b, (dil, dil, dil))).max() <= 1e-6


@pytest.mark.parametrize("target", [
    (10, 4, 3), (5, 8, 3), (5, 4, 6),  # 2x on one axis
    (7, 4, 3), (5, 9, 3), (5, 4, 5),  # non-integer ratio on one axis
    (13, 11, 7),  # all axes at once
], ids=lambda t: "x".join(map(str, t)))
def test_upsample_matches_per_axis_reference(target):
    x = np.random.default_rng(32).standard_normal((2, 5, 4, 3)).astype(np.float32)
    got = refnet._upsample_to(x, target)
    assert got.dtype == np.float32 and got.shape == (2,) + target
    assert np.abs(got - brute_upsample(x, target)).max() <= 1e-5


def test_forward_traced_peak_is_bounded():
    """One forward at 96x96x16 (bf 8, 4 classes) peaks within 20 full-resolution
    8-channel float32 tensors of traced allocations.

    Decoder temporaries, skips the decoder never reads and full-resolution
    side outputs held past their last use all raise this ratio: it was 29.9
    when ``forward`` kept them alive into the heads, and is 13.6 with each
    decoder step in its own function.
    """
    shape = (96, 96, 16)
    net = build(NetConfig(num_classes=4, base_filters=8, seed=0))
    patch = _patch(np.random.default_rng(0), shape)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        forward(net, patch)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    unit = 8 * int(np.prod(shape)) * np.dtype(np.float32).itemsize
    assert peak <= 20 * unit, f"traced peak is {peak / unit:.1f}x one 8-channel tensor"


@_CONV_ROWS
@_CONV_KERNELS
@_CONV_RATES
def test_conv3d_tuple_input_equals_concatenated_input(sx, kernel, dil):
    rng = np.random.default_rng(33)
    grid = (sx, 5, 9)
    parts = tuple(rng.standard_normal((c,) + grid).astype(np.float32) for c in (2, 1, 3))
    w = rng.standard_normal((4, 6) + kernel).astype(np.float32)
    b = rng.standard_normal(4).astype(np.float32)
    got = refnet._conv3d(parts, w, b, dilation=(dil, dil, dil))
    assert np.array_equal(got, refnet._conv3d(np.concatenate(parts), w, b, dilation=(dil, dil, dil)))
    assert np.abs(got - ring_conv3d(parts, w, b, (dil, dil, dil))).max() <= 1e-6


def test_conv3d_dilation_beyond_the_grid():
    # rate 18 on a 2x2x1 grid: every tap but the centre falls outside
    rng = np.random.default_rng(34)
    x = rng.standard_normal((3, 2, 2, 1)).astype(np.float32)
    w = rng.standard_normal((2, 3, 3, 3, 3)).astype(np.float32)
    b = rng.standard_normal(2).astype(np.float32)
    got = refnet._conv3d(x, w, b, dilation=(18, 18, 18))
    assert np.abs(got - brute_conv3d(x, w, b, (18, 18, 18))).max() <= 1e-5
    assert np.abs(got - ring_conv3d(x, w, b, (18, 18, 18))).max() <= 1e-6


@pytest.mark.parametrize("factor", [(2, 2, 2), (2, 2, 1)], ids=["2x2x2", "2x2x1"])
def test_maxpool_bytes_match_block_max_reference(factor):
    x = np.random.default_rng(35).standard_normal((3, 8, 6, 4)).astype(np.float32)
    got, want = refnet._maxpool(x, factor), reference_maxpool(x, factor)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("target", [(7, 4, 3), (5, 9, 3), (5, 4, 5), (13, 11, 7)],
                         ids=lambda t: "x".join(map(str, t)))
def test_grid_mean_equals_mean_of_upsampled(target):
    x = np.random.default_rng(32).standard_normal((2, 5, 4, 3)).astype(np.float32)
    want = refnet._upsample_to(x, target).astype(np.float64).mean(axis=(1, 2, 3))
    got = refnet._grid_mean(x, target)
    assert got.shape == (2,) and np.abs(got - want).max() <= 1e-6


@pytest.mark.parametrize("shape", [(64, 64, 16), (96, 96, 16)], ids=lambda s: "x".join(map(str, s)))
def test_forward_traced_peak_without_padded_or_concatenated_copies(shape):
    """One forward (bf 8, 4 classes) peaks within 10 full-resolution 8-channel
    float32 tensors of traced allocations.

    Padded convolution inputs (the ASPP's rate-18 pads set the peak at
    64x64x16), full-resolution concatenations in the decoder and heads run at
    full resolution all raise this ratio: it was 23.9 and 13.6 with them, and
    is 7.2 and 6.6 without.
    """
    net = build(NetConfig(num_classes=4, base_filters=8, seed=0))
    patch = _patch(np.random.default_rng(0), shape)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        forward(net, patch)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    unit = 8 * int(np.prod(shape)) * np.dtype(np.float32).itemsize
    assert peak <= 10 * unit, f"traced peak is {peak / unit:.1f}x one 8-channel tensor"


def _decoder_inputs(net, i, grid, seed):
    """Random features ``d`` of level ``i + 1`` and a skip of level ``i`` on ``grid``."""
    cfg, rng = net.config, np.random.default_rng(seed)
    coarse = tuple(n // f for n, f in zip(grid, cfg.factor(i)))
    d = rng.standard_normal((cfg.channels(i + 1),) + coarse).astype(np.float32)
    return d, rng.standard_normal((cfg.channels(i),) + grid).astype(np.float32)


@pytest.mark.parametrize("grid", [(8, 8, 4), (12, 4, 6), (16, 8, 2)], ids=lambda g: "x".join(map(str, g)))
def test_decoder_level_bytes_match_keep_alive_reference(grid):
    net = build(NetConfig(num_classes=3, base_filters=4, seed=1))
    for i in range(net.config.depth - 1):
        d, skip = _decoder_inputs(net, i, grid, seed=i)
        feats, gate = refnet._decoder_level(net, i, d, skip.copy())
        want_feats, want_gate = reference_decoder_level(net, i, d, skip.copy())
        assert feats.dtype == want_feats.dtype and feats.tobytes() == want_feats.tobytes()
        assert gate.dtype == want_gate.dtype and gate.tobytes() == want_gate.tobytes()


def test_level0_decoder_traced_peak_is_bounded():
    """One level-0 ``_decoder_level`` call at 64x64x16 (bf 8) peaks within 4.7
    level-0 tensors (8-channel float32) of traced allocations, the input ``d`` not
    counted and the popped skip handed over.

    It was 5.3 while the upsampled ``d`` (2 tensors) and the gated skip lived
    through the block's instance norms and ``conv2``, and is 4.1 with both freed
    once ``conv1`` has read them.
    """
    net = build(NetConfig(num_classes=4, base_filters=8, seed=0))
    grid = (64, 64, 16)
    d, skip = _decoder_inputs(net, 0, grid, seed=1)
    skips = [skip]
    del skip
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        refnet._decoder_level(net, 0, d, skips.pop())
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    unit = net.config.channels(0) * int(np.prod(grid)) * np.dtype(np.float32).itemsize
    assert peak <= 4.7 * unit, f"traced peak is {peak / unit:.2f} level-0 tensors"

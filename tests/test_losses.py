import math
import tracemalloc

import numpy as np
import pytest

from conftest import make_volume, random_softmax
from oracles import (
    central_fd, reference_active_boundary_loss, reference_grad_final, reference_partial_ce, rel_err,
)
from scribsup.errors import NoConfidentVoxelsError, ShapeMismatchError
from scribsup.label_propagation import PseudoLabels
from scribsup import losses
from scribsup.losses import (
    AbParams,
    LossReport,
    ProbVolume,
    TotalLossWeights,
    active_boundary_loss,
    boundary_loss,
    partial_ce,
    total_loss,
)
from scribsup.volume_io import BinaryVolume, LabelVolume, Volume

SHAPE = (6, 6, 4)
SPACING = (1.0, 1.0, 4.0)


def _random_binary(rng, shape=SHAPE):
    return BinaryVolume((rng.random(shape) > 0.5).astype(np.uint8), SPACING)


def _random_pl(rng, shape=SHAPE, n_classes=3):
    mask = rng.integers(0, n_classes, size=shape).astype(np.uint16)
    conf = (rng.random(shape) > 0.4).astype(np.uint8)
    mask = np.where(conf.astype(bool), mask, 0).astype(np.uint16)
    return PseudoLabels(
        LabelVolume(mask, SPACING, n_classes), BinaryVolume(conf, SPACING)
    )


# ---------------------------------------------------------------------------
# boundary loss


def test_boundary_perfect_prediction_is_zero(rng):
    target = _random_binary(rng)
    b = ProbVolume(target.data.astype(np.float64)[..., None], SPACING)
    assert boundary_loss(b, target).value <= 1e-5


def test_boundary_half_everywhere_is_log2(rng):
    target = _random_binary(rng)
    b = ProbVolume(np.full(SHAPE + (1,), 0.5), SPACING)
    assert boundary_loss(b, target).value == pytest.approx(math.log(2), abs=1e-12)


def test_boundary_grad_matches_fd(rng):
    target = _random_binary(rng)
    base = rng.uniform(0.05, 0.95, SHAPE)

    def value_at(arr):
        return boundary_loss(ProbVolume(arr[..., None], SPACING), target).value

    grad = boundary_loss(ProbVolume(base[..., None], SPACING), target).grad
    for _ in range(20):
        coord = tuple(rng.integers(0, s) for s in SHAPE)
        fd = central_fd(value_at, base, coord)
        assert rel_err(grad[coord + (0,)], fd) < 1e-4


def test_boundary_shape_checks(rng):
    target = _random_binary(rng)
    with pytest.raises(ShapeMismatchError):
        boundary_loss(ProbVolume(np.full((2, 2, 2, 2), 0.5), SPACING), target)
    with pytest.raises(ShapeMismatchError):
        boundary_loss(ProbVolume(np.full((2, 2, 2, 1), 0.5), SPACING), target)


# ---------------------------------------------------------------------------
# partial cross-entropy


def test_partial_ce_perfect_one_hot(rng):
    pl = _random_pl(rng)
    n = pl.mask.num_classes
    probs = np.full(SHAPE + (n,), 1.0 / n)
    onehot = np.eye(n)[pl.mask.data]
    conf = pl.confident.data.astype(bool)
    probs[conf] = onehot[conf]
    rep = partial_ce(ProbVolume(probs, SPACING), pl)
    assert rep.value <= 1e-5
    assert np.all(rep.grad[~conf] == 0.0)


def test_partial_ce_no_confident_raises(rng):
    mask = LabelVolume(np.zeros(SHAPE, dtype=np.uint16), SPACING, 3)
    conf = BinaryVolume(np.zeros(SHAPE, dtype=np.uint8), SPACING)
    probs = ProbVolume(random_softmax(rng, SHAPE, 3), SPACING)
    with pytest.raises(NoConfidentVoxelsError):
        partial_ce(probs, PseudoLabels(mask, conf))


def test_partial_ce_refuses_a_channel_count_other_than_the_class_count(rng):
    pl = _random_pl(rng, n_classes=3)
    probs = ProbVolume(random_softmax(rng, SHAPE, 2), SPACING)
    with pytest.raises(ShapeMismatchError, match="2 channels vs 3 classes"):
        partial_ce(probs, pl)


def test_partial_ce_matches_bruteforce_and_fd(rng):
    shape = (5, 5, 3)
    n = 3
    mask = rng.integers(0, n, size=shape).astype(np.uint16)
    conf = (rng.random(shape) > 0.5).astype(np.uint8)
    if not conf.any():
        conf[0, 0, 0] = 1
    pl = PseudoLabels(
        LabelVolume(mask, SPACING, n), BinaryVolume(conf, SPACING)
    )
    base = random_softmax(rng, shape, n)
    rep = partial_ce(ProbVolume(base, SPACING), pl)

    # brute-force per-voxel summation
    total = 0.0
    count = 0
    for x in range(shape[0]):
        for y in range(shape[1]):
            for z in range(shape[2]):
                if conf[x, y, z]:
                    total -= math.log(base[x, y, z, mask[x, y, z]])
                    count += 1
    assert rep.value == pytest.approx(total / count, abs=1e-10)

    def value_at(arr):
        return partial_ce(ProbVolume(arr, SPACING), pl).value

    for _ in range(20):
        coord = tuple(rng.integers(0, s) for s in shape) + (int(rng.integers(0, n)),)
        fd = central_fd(value_at, base, coord)
        assert rel_err(rep.grad[coord], fd) < 1e-4


def test_partial_ce_grad_support_is_confident_only(rng):
    pl = _random_pl(rng)
    probs = ProbVolume(random_softmax(rng, SHAPE, pl.mask.num_classes), SPACING)
    rep = partial_ce(probs, pl)
    conf = pl.confident.data.astype(bool)
    assert np.all(rep.grad[~conf] == 0.0)
    assert np.any(rep.grad[conf] != 0.0)


# ---------------------------------------------------------------------------
# active boundary loss


def _frozen_ab_value(u_all, v_norm, c1s, c2s, params, spacing):
    """Independent frozen-mean evaluation of the functional."""
    omega = spacing[0] * spacing[1] * spacing[2]
    shape = u_all.shape[:3]
    total = 0.0
    for c in range(1, u_all.shape[3]):
        u = u_all[..., c]
        phi2 = np.full(shape, params.epsilon, dtype=np.float64)
        for a in range(3):
            d = np.zeros(shape)
            src = [slice(None)] * 3
            dst = [slice(None)] * 3
            src[a] = slice(1, None)
            dst[a] = slice(None, -1)
            d[tuple(dst)] = (u[tuple(src)] - u[tuple(dst)]) / spacing[a]
            phi2 += d * d
        total += np.sqrt(phi2).sum() * omega
        total += params.lambda1 * (((c1s[c] - v_norm) ** 2) * u).sum() * omega
        total += params.lambda2 * (((c2s[c] - v_norm) ** 2) * (1 - u)).sum() * omega
    return total


def test_ab_constant_u_surface_floor(rng):
    n = 2
    probs = np.zeros(SHAPE + (n,))
    probs[..., 1] = 0.42
    probs[..., 0] = 0.58
    v = make_volume(rng.random(SHAPE), SPACING)
    params = AbParams(lambda1=0.0, lambda2=0.0, epsilon=1e-6)
    rep = active_boundary_loss(ProbVolume(probs, SPACING), v, params)
    floor = math.sqrt(params.epsilon) * np.prod(SHAPE) * np.prod(SPACING)
    assert rep.value == pytest.approx(floor, rel=1e-12)


def test_ab_chan_vese_fixed_point():
    data = np.zeros(SHAPE, dtype=np.float32)
    data[3:, :, :] = 5.0  # two-level image
    v = Volume(data, SPACING)
    u = np.zeros(SHAPE + (2,))
    u[..., 1] = (data > 0).astype(np.float64)
    u[..., 0] = 1.0 - u[..., 1]
    params = AbParams(epsilon=0.0)
    rep = active_boundary_loss(ProbVolume(u, SPACING), v, params)
    surface_only = active_boundary_loss(
        ProbVolume(u, SPACING), v, AbParams(lambda1=0.0, lambda2=0.0, epsilon=0.0)
    )
    vin_plus_vout = rep.value - surface_only.value
    assert abs(vin_plus_vout) <= 1e-10


def test_ab_grad_matches_frozen_fd(rng):
    n = 3
    base = random_softmax(rng, SHAPE, n)
    v = make_volume(rng.random(SHAPE), SPACING)
    params = AbParams()
    rep = active_boundary_loss(ProbVolume(base, SPACING), v, params)

    v64 = v.data.astype(np.float64)
    v_norm = (v64 - v64.min()) / (v64.max() - v64.min())
    c1s, c2s = {}, {}
    for c in range(1, n):
        u = base[..., c]
        c1s[c] = (u * v_norm).sum() / max(u.sum(), 1e-8)
        c2s[c] = ((1 - u) * v_norm).sum() / max((1 - u).sum(), 1e-8)

    def frozen(arr):
        return _frozen_ab_value(arr, v_norm, c1s, c2s, params, SPACING)

    assert rep.value == pytest.approx(frozen(base), rel=1e-12)
    for _ in range(20):
        coord = tuple(rng.integers(0, s) for s in SHAPE) + (int(rng.integers(1, n)),)
        fd = central_fd(frozen, base, coord)
        assert rel_err(rep.grad[coord], fd) < 1e-4
    assert np.all(rep.grad[..., 0] == 0.0)


def test_ab_surface_symmetric_under_complement(rng):
    base = random_softmax(rng, SHAPE, 2)
    flipped = base[..., ::-1].copy()
    v = make_volume(rng.random(SHAPE), SPACING)
    surf = AbParams(lambda1=0.0, lambda2=0.0)
    a = active_boundary_loss(ProbVolume(base, SPACING), v, surf).value
    b = active_boundary_loss(ProbVolume(flipped, SPACING), v, surf).value
    assert a == pytest.approx(b, rel=1e-12)


def _ab_cases():
    """Seeded (probs, image, params): random shapes and spacings, every third
    spacing quantised to quarters, eps in {0, 1e-6, 1e-3}, some constant images
    and some channels flat enough that the field vanishes at eps = 0; last, one
    40x36x12 case with 4 channels, whose sums span many of numpy's pairwise blocks."""
    for case in range(24):
        rng = np.random.default_rng(700 + case)
        shape = tuple(int(n) for n in rng.integers(2, 9, size=3))
        spacing = tuple(float(s) for s in rng.uniform(0.3, 5.0, size=3))
        if case % 3 == 0:
            spacing = tuple(max(0.25, round(s * 4) / 4) for s in spacing)
        logits = rng.normal(size=shape + (int(rng.integers(2, 5)),))
        if case % 4 == 0:
            logits[:] = 0.0  # uniform channels: every difference is 0
        e = np.exp(logits)
        image = rng.random(shape)
        if case % 5 == 0:
            image[:] = 0.7
        params = AbParams(float(rng.uniform(0, 2)), float(rng.uniform(0, 1)), [0.0, 1e-6, 1e-3][case % 3])
        yield ProbVolume(e / e.sum(-1, keepdims=True), spacing), make_volume(image, spacing), params
    rng = np.random.default_rng(724)
    e = np.exp(rng.normal(size=(40, 36, 12, 4)))
    spacing = (0.8, 0.9, 3.0)
    yield (ProbVolume(e / e.sum(-1, keepdims=True), spacing), make_volume(rng.random((40, 36, 12)), spacing),
           AbParams(1.0, 0.5, 1e-6))


def test_ab_bytes_match_out_of_place_reference():
    for probs, image, params in _ab_cases():
        rep = active_boundary_loss(probs, image, params)
        value, grad = reference_active_boundary_loss(probs, image, params)
        assert rep.value == value
        assert rep.grad.dtype == grad.dtype and rep.grad.tobytes() == grad.tobytes()


# ---------------------------------------------------------------------------
# total loss


def _total_fixture(rng, n=3):
    pl = _random_pl(rng, n_classes=n)
    probs_init = ProbVolume(random_softmax(rng, SHAPE, n), SPACING)
    probs_final = ProbVolume(random_softmax(rng, SHAPE, n), SPACING)
    boundary = ProbVolume(rng.uniform(0.1, 0.9, SHAPE)[..., None], SPACING)
    edges = _random_binary(rng)
    image = make_volume(rng.random(SHAPE), SPACING)
    return boundary, edges, probs_init, probs_final, pl, image


@pytest.mark.parametrize("off, channels, message", [
    ("boundary", 2, "boundary has 2 channels, needs 1"),
    ("probs_init", 3, "probs_init has 3 channels, needs 2"),
    ("probs_final", 3, "probs_final has 3 channels, needs 2"),
], ids=["boundary", "probs_init", "probs_final"])
def test_total_loss_refuses_a_channel_count_before_any_term_runs(rng, monkeypatch, off, channels,
                                                                 message):
    boundary, edges, probs_init, probs_final, pl, image = _total_fixture(rng, n=2)
    inputs = {"boundary": boundary, "probs_init": probs_init, "probs_final": probs_final}
    inputs[off] = ProbVolume(random_softmax(rng, SHAPE, channels), SPACING)
    calls = []
    for name in ("active_boundary_loss", "partial_ce", "boundary_loss"):
        monkeypatch.setattr(losses, name, lambda *a, _name=name, **k: calls.append(_name))
    with pytest.raises(ShapeMismatchError, match=message):
        total_loss(inputs["boundary"], edges, inputs["probs_init"], inputs["probs_final"], pl, image)
    assert calls == []


def test_total_weights_zero_leaves_only_seg_terms(rng):
    boundary, edges, pi, pf, pl, image = _total_fixture(rng)
    rep = total_loss(
        boundary, edges, pi, pf, pl, image, weights=TotalLossWeights(0.0, 0.0)
    )
    assert rep.value == pytest.approx(
        partial_ce(pi, pl).value + partial_ce(pf, pl).value, rel=1e-12
    )
    assert np.all(rep.grad_boundary == 0.0)


def test_total_linear_in_betas(rng):
    boundary, edges, pi, pf, pl, image = _total_fixture(rng)
    base = total_loss(boundary, edges, pi, pf, pl, image, weights=TotalLossWeights(0.0, 0.0))
    b1 = total_loss(boundary, edges, pi, pf, pl, image, weights=TotalLossWeights(1.0, 0.0))
    b2 = total_loss(boundary, edges, pi, pf, pl, image, weights=TotalLossWeights(0.0, 1.0))
    mixed = total_loss(boundary, edges, pi, pf, pl, image, weights=TotalLossWeights(0.4, 0.7))
    predicted = base.value + 0.4 * (b1.value - base.value) + 0.7 * (b2.value - base.value)
    assert mixed.value == pytest.approx(predicted, rel=1e-10)


def test_total_breakdown_echoes_defaults(rng):
    boundary, edges, pi, pf, pl, image = _total_fixture(rng)
    rep = total_loss(boundary, edges, pi, pf, pl, image)
    assert rep.terms["beta1"] == 0.3
    assert rep.terms["beta2"] == 0.3
    assert rep.terms["lambda1"] == 1.0
    assert rep.terms["lambda2"] == 0.1
    assert rep.terms["total"] == pytest.approx(rep.value)
    assert set(rep.terms) >= {"l_bry", "l_seg_init", "l_seg_final", "l_ab", "total"}


def test_total_at_component_minima(rng):
    n = 2
    # whole volume is one confident class-1 region; u identically 1
    mask = LabelVolume(np.ones(SHAPE, dtype=np.uint16), SPACING, n)
    conf = BinaryVolume(np.ones(SHAPE, dtype=np.uint8), SPACING)
    pl = PseudoLabels(mask, conf)
    probs = np.zeros(SHAPE + (n,))
    probs[..., 1] = 1.0
    pv = ProbVolume(probs, SPACING)
    edges = BinaryVolume(np.zeros(SHAPE, dtype=np.uint8), SPACING)
    boundary = ProbVolume(np.zeros(SHAPE + (1,)), SPACING)
    image = make_volume(np.full(SHAPE, 3.0), SPACING)
    ab = AbParams()
    rep = total_loss(boundary, edges, pv, pv, pl, image, ab=ab)
    floor = 0.3 * math.sqrt(ab.epsilon) * np.prod(SHAPE) * np.prod(SPACING)
    assert abs(rep.value - floor) < 1e-4


def test_gradients_compose_by_linearity(rng):
    boundary, edges, pi, pf, pl, image = _total_fixture(rng)
    w = TotalLossWeights(0.3, 0.3)
    rep = total_loss(boundary, edges, pi, pf, pl, image, weights=w)
    bry = boundary_loss(boundary, edges)
    seg_f = partial_ce(pf, pl)
    abl = active_boundary_loss(pf, image)
    assert np.allclose(rep.grad_boundary, 0.3 * bry.grad, atol=1e-12)
    assert np.allclose(rep.grad_final, seg_f.grad + 0.3 * abl.grad, atol=1e-12)
    assert np.allclose(rep.grad_init, partial_ce(pi, pl).grad, atol=1e-12)


def test_total_grad_final_bytes_match_out_of_place_sum():
    for case, (probs, image, params) in enumerate(_ab_cases()):
        rng = np.random.default_rng(800 + case)
        shape, n = probs.shape, probs.channels
        conf = rng.random(shape) > 0.4
        conf.flat[0] = True
        mask = np.where(conf, rng.integers(0, n, size=shape), 0).astype(np.uint16)
        pl = PseudoLabels(LabelVolume(mask, probs.spacing, n),
                          BinaryVolume(conf.astype(np.uint8), probs.spacing))
        boundary = ProbVolume(rng.uniform(0.1, 0.9, shape)[..., None], probs.spacing)
        edges = BinaryVolume((rng.random(shape) > 0.5).astype(np.uint8), probs.spacing)
        beta2 = float(rng.uniform(0, 1))
        rep = total_loss(boundary, edges, probs, probs, pl, image, ab=params,
                         weights=TotalLossWeights(0.3, beta2))
        want = reference_grad_final(partial_ce(probs, pl).grad,
                                    reference_active_boundary_loss(probs, image, params)[1], beta2)
        assert rep.grad_final.tobytes() == want.tobytes()


@pytest.mark.parametrize("channels", [1, 3])
def test_prob_volume_rejects_nan(channels):
    data = np.full((4, 4, 2, channels), 1.0 / channels)
    ProbVolume(data, SPACING)
    data[1, 2, 0, 0] = np.nan
    with pytest.raises(ValueError, match="probabilities must lie in"):
        ProbVolume(data, SPACING)


@pytest.mark.parametrize("value, grad, message", [
    (np.nan, np.zeros(3), "loss value must be finite"),
    (np.inf, np.zeros(3), "loss value must be finite"),
    (1.0, np.array([0.0, np.nan, 0.0]), "gradient must be finite everywhere"),
    (1.0, np.array([0.0, 0.0, -np.inf]), "gradient must be finite everywhere"),
], ids=["nan_value", "inf_value", "nan_grad", "inf_grad"])
def test_loss_report_refuses_a_non_finite_value_or_gradient(value, grad, message):
    LossReport(1.0, np.zeros(3))
    with pytest.raises(ValueError, match=message):
        LossReport(value, grad)


# ---------------------------------------------------------------------------
# in-place partial CE and total loss against the out-of-place references


def _ce_cases():
    """Seeded (probs, pseudo labels, image, ab params): random shapes, spacings and
    class counts; every class among the confident labels; all, most or few voxels
    confident, with labels off the confident set in every other case; ~1/5 of the
    voxels clamp-active, their labelled probability 0, below, at or just above
    1e-7; eps in {0, 1e-6}; every fourth image constant."""
    clamped = np.array([0.0, 5e-8, 1e-7, np.nextafter(1e-7, 1.0)])
    for case in range(24):
        rng = np.random.default_rng(900 + case)
        shape = tuple(int(n) for n in rng.integers(2, 9, size=3))
        spacing = tuple(float(s) for s in rng.uniform(0.3, 5.0, size=3))
        n = int(rng.integers(2, 6))
        conf = rng.random(shape) >= (0.0, 0.4, 0.9)[case % 3]
        labels = rng.integers(0, n, size=shape)
        conf.flat[:n], labels.flat[:n] = True, np.arange(n)
        if case % 2:
            labels = np.where(conf, labels, 0)
        probs = random_softmax(rng, shape, n)
        onehot = np.eye(n, dtype=bool)[labels]
        tiny = rng.choice(clamped, size=shape)[..., None]
        rest = np.where(onehot, 0.0, probs)
        rest *= (1.0 - tiny) / rest.sum(-1, keepdims=True)
        probs = np.where((rng.random(shape) < 0.2)[..., None], np.where(onehot, tiny, rest), probs)
        pl = PseudoLabels(LabelVolume(labels.astype(np.uint16), spacing, n),
                          BinaryVolume(conf.astype(np.uint8), spacing))
        image = rng.random(shape)
        if case % 4 == 0:
            image[:] = 0.3
        params = AbParams(float(rng.uniform(0, 2)), float(rng.uniform(0, 1)), (0.0, 1e-6)[case % 2])
        yield ProbVolume(probs, spacing), pl, make_volume(image, spacing), params


def test_partial_ce_bytes_match_out_of_place_reference():
    hit_clamp = 0
    for probs, pl, _, _ in _ce_cases():
        rep = partial_ce(probs, pl)
        value, grad = reference_partial_ce(probs, pl)
        assert rep.value == value
        assert rep.grad.dtype == grad.dtype and rep.grad.tobytes() == grad.tobytes()
        picked = np.take_along_axis(probs.data, pl.mask.data[..., None].astype(np.int64), 3)
        hit_clamp += int((picked[pl.confident.data.astype(bool)] <= 1e-7).sum())
    assert hit_clamp > 0  # the cases exercise the clamp


def test_total_loss_bytes_match_out_of_place_references():
    for case, (probs_final, pl, image, params) in enumerate(_ce_cases()):
        rng = np.random.default_rng(1000 + case)
        shape, n, spacing = probs_final.shape, probs_final.channels, probs_final.spacing
        probs_init = ProbVolume(random_softmax(rng, shape, n), spacing)
        boundary = ProbVolume(rng.uniform(0.1, 0.9, shape)[..., None], spacing)
        edges = BinaryVolume((rng.random(shape) > 0.5).astype(np.uint8), spacing)
        weights = TotalLossWeights(float(rng.uniform(0, 1)), float(rng.uniform(0, 1)))
        rep = total_loss(boundary, edges, probs_init, probs_final, pl, image, ab=params,
                         weights=weights)

        l_ab, ab_grad = reference_active_boundary_loss(probs_final, image, params)
        l_init, grad_init = reference_partial_ce(probs_init, pl)
        l_final, seg_grad = reference_partial_ce(probs_final, pl)
        bry = boundary_loss(boundary, edges)
        value = weights.beta1 * bry.value + l_init + l_final + weights.beta2 * l_ab
        want = {"l_bry": bry.value, "l_seg_init": l_init, "l_seg_final": l_final, "l_ab": l_ab,
                "total": value}
        assert {k: repr(rep.terms[k]) for k in want} == {k: repr(v) for k, v in want.items()}
        assert repr(rep.value) == repr(value)
        for got, ref in ((rep.grad_init, grad_init),
                         (rep.grad_final, reference_grad_final(seg_grad, ab_grad, weights.beta2)),
                         (rep.grad_boundary, weights.beta1 * bry.grad)):
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


def test_total_loss_traced_peak_is_bounded():
    """``total_loss`` at 64x64x16 with 4 classes peaks within 13 float64 volumes of
    traced allocations, of which its three gradients (2 * 4 + 1) are the result.

    It was 18.3 volumes while every term's gradient and ``partial_ce``'s int64
    labels, gathered copies and coefficient volume were alive together, and is 10.8
    with the final-mask gradient summed into the active-boundary buffer first.
    """
    shape, n = (64, 64, 16), 4
    rng = np.random.default_rng(5)
    conf = rng.random(shape) > 0.4
    mask = np.where(conf, rng.integers(0, n, size=shape), 0).astype(np.uint16)
    pl = PseudoLabels(LabelVolume(mask, SPACING, n), BinaryVolume(conf.astype(np.uint8), SPACING))
    probs_init = ProbVolume(random_softmax(rng, shape, n), SPACING)
    probs_final = ProbVolume(random_softmax(rng, shape, n), SPACING)
    boundary = ProbVolume(rng.uniform(0.1, 0.9, shape)[..., None], SPACING)
    edges = BinaryVolume((rng.random(shape) > 0.5).astype(np.uint8), SPACING)
    image = make_volume(rng.random(shape), SPACING)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        total_loss(boundary, edges, probs_init, probs_final, pl, image)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    unit = int(np.prod(shape)) * np.dtype(np.float64).itemsize
    assert peak <= 13 * unit, f"traced peak is {peak / unit:.1f} float64 volumes"

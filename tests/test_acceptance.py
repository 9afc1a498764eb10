"""Acceptance gate: one test per criterion, printed pass/fail per line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines even on success. Each criterion enforces its stated tolerance and,
where given, its runtime budget.
"""

import hashlib
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import random_softmax, sphere_labels
from oracles import (
    all_ids_connected_6,
    brute_hd95,
    brute_propagate,
    central_fd,
    chebyshev_ring,
    random_partition,
    rel_err,
)
from scribsup.cli import run_pipeline
from scribsup.label_propagation import PseudoLabels, propagate
from scribsup.losses import (
    AbParams,
    ProbVolume,
    active_boundary_loss,
    boundary_loss,
    partial_ce,
)
from scribsup.metrics import dice, hd95, precision
from scribsup.refnet import NetConfig, build, forward
from scribsup.scribble_sim import (
    ScribbleSet,
    simulate_background_scribble,
    simulate_foreground_scribbles,
)
from scribsup.supervoxel import SlicParams, slic3d
from scribsup.volume_io import (
    BinaryVolume,
    LabelVolume,
    Volume,
    read_nifti,
    write_nifti,
)


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {title}")
        raise
    print(f"[PASS] criterion {number}: {title}")


# ---------------------------------------------------------------------------


def test_criterion_1_gradient_fidelity():
    with criterion(1, "analytic gradients match central finite differences"):
        start = time.perf_counter()
        rng = np.random.default_rng(1001)
        spacing = (1.0, 1.0, 4.0)
        for _ in range(10):
            shape = tuple(int(s) for s in rng.integers(3, 9, size=2)) + (
                int(rng.integers(2, 5)),
            )
            n = int(rng.integers(2, 5))

            # boundary loss
            target = BinaryVolume((rng.random(shape) > 0.5).astype(np.uint8), spacing)
            base_b = rng.uniform(0.05, 0.95, shape)
            grad_b = boundary_loss(ProbVolume(base_b[..., None], spacing), target).grad

            def bry_value(arr):
                return boundary_loss(ProbVolume(arr[..., None], spacing), target).value

            for _ in range(20):
                coord = tuple(rng.integers(0, s) for s in shape)
                fd = central_fd(bry_value, base_b, coord)
                assert rel_err(grad_b[coord + (0,)], fd) < 1e-4

            # partial cross-entropy
            mask = rng.integers(0, n, size=shape).astype(np.uint16)
            conf = (rng.random(shape) > 0.4).astype(np.uint8)
            conf.flat[0] = 1
            pl = PseudoLabels(
                LabelVolume(mask, spacing, n), BinaryVolume(conf, spacing)
            )
            base_p = random_softmax(rng, shape, n)
            grad_p = partial_ce(ProbVolume(base_p, spacing), pl).grad

            def pce_value(arr):
                return partial_ce(ProbVolume(arr, spacing), pl).value

            for _ in range(20):
                coord = tuple(rng.integers(0, s) for s in shape) + (
                    int(rng.integers(0, n)),
                )
                fd = central_fd(pce_value, base_p, coord)
                assert rel_err(grad_p[coord], fd) < 1e-4

            # active boundary loss with frozen region means
            image = Volume(rng.random(shape).astype(np.float32), spacing)
            params = AbParams()
            base_u = random_softmax(rng, shape, n)
            grad_u = active_boundary_loss(ProbVolume(base_u, spacing), image, params).grad
            v64 = image.data.astype(np.float64)
            v_norm = (v64 - v64.min()) / (v64.max() - v64.min())
            omega = float(np.prod(spacing))
            c1s = {}
            c2s = {}
            for c in range(1, n):
                u = base_u[..., c]
                c1s[c] = (u * v_norm).sum() / max(u.sum(), 1e-8)
                c2s[c] = ((1 - u) * v_norm).sum() / max((1 - u).sum(), 1e-8)

            def ab_frozen(arr):
                total = 0.0
                for c in range(1, n):
                    u = arr[..., c]
                    phi2 = np.full(shape, params.epsilon)
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

            for _ in range(20):
                coord = tuple(rng.integers(0, s) for s in shape) + (
                    int(rng.integers(1, n)),
                )
                fd = central_fd(ab_frozen, base_u, coord)
                assert rel_err(grad_u[coord], fd) < 1e-4
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"gradient checks took {elapsed:.1f}s"


def test_criterion_2_propagation_oracle_equivalence():
    with criterion(2, "propagate() equals the brute-force class-set oracle"):
        start = time.perf_counter()
        rng = np.random.default_rng(2002)
        shape = (8, 8, 8)
        for _ in range(100):
            n_cells = int(rng.integers(1, 13))
            ids = random_partition(rng, shape, n_cells)
            from scribsup.supervoxel import SupervoxelMap

            sv = SupervoxelMap(ids, (1, 1, 1))
            n_classes = int(rng.integers(2, 5))
            n_scrib = int(rng.integers(0, 15))
            idx = np.stack([rng.integers(0, s, size=n_scrib) for s in shape], axis=1)
            flat = idx[:, 0] * 64 + idx[:, 1] * 8 + idx[:, 2]
            _, keep = np.unique(flat, return_index=True)
            idx = idx[keep]
            classes = rng.integers(0, n_classes, size=len(idx)).astype(np.uint16)
            scr = ScribbleSet(idx, classes, n_classes, shape, (1, 1, 1))
            pl = propagate(scr, sv)
            mask, conf = brute_propagate(idx, classes, ids, n_classes)
            assert np.array_equal(pl.mask.data, mask)
            assert np.array_equal(pl.confident.data, conf)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"propagation oracle took {elapsed:.1f}s"


def test_criterion_3_slic_invariants():
    with criterion(3, "SLIC partition, connectivity, determinism, anisotropy"):
        start = time.perf_counter()
        rng = np.random.default_rng(3003)

        # partition completeness + determinism on a textured volume
        data = rng.random((20, 18, 12)).astype(np.float32)
        vol = Volume(data, (1.0, 1.1, 2.0))
        a = slic3d(vol, SlicParams(k=16))
        b = slic3d(vol, SlicParams(k=16))
        assert np.array_equal(a.ids, b.ids)
        counts = np.bincount(a.ids.ravel(), minlength=a.count)
        assert counts.sum() == data.size and (counts > 0).all()
        assert all_ids_connected_6(a.ids)

        # 6-connectivity on a two-region fixture
        two = np.zeros((16, 16, 8), dtype=np.float32)
        two[8:] = 1.0
        svmap = slic3d(Volume(two, (1, 1, 1)), SlicParams(k=6))
        assert all_ids_connected_6(svmap.ids)

        # anisotropy: spacing (1,1,4), uniform intensity
        uni = Volume(np.zeros((16, 16, 16), dtype=np.float32), (1, 1, 4))
        svmap = slic3d(uni, SlicParams(k=256))
        ext = []
        for sv in range(svmap.count):
            xs, ys, zs = np.nonzero(svmap.ids == sv)
            ext.append((np.ptp(xs) + 1, np.ptp(zs) + 1))
        ext = np.array(ext, dtype=np.float64)
        assert abs(ext[:, 1].mean() - ext[:, 0].mean() / 4.0) <= 1.0
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"SLIC invariants took {elapsed:.1f}s"


def test_criterion_4_metric_oracle_equivalence():
    with criterion(4, "hd95/dice/precision match brute-force oracles"):
        start = time.perf_counter()
        rng = np.random.default_rng(4004)
        done = 0
        while done < 50:
            shape = tuple(int(s) for s in rng.integers(3, 13, size=3))
            spacing = tuple(float(s) for s in rng.uniform(0.5, 4.0, size=3))
            p = rng.random(shape) > 0.7
            g = rng.random(shape) > 0.7
            lp = LabelVolume(p.astype(np.uint16), spacing, 2)
            lg = LabelVolume(g.astype(np.uint16), spacing, 2)

            # dice / precision by direct counting
            inter = int(np.logical_and(p, g).sum())
            if int(p.sum()) + int(g.sum()) > 0:
                assert dice(lp, lg, 1) == 2 * inter / (int(p.sum()) + int(g.sum()))
            if p.sum() > 0:
                assert precision(lp, lg, 1) == inter / int(p.sum())

            if not p.any() or not g.any():
                assert hd95(lp, lg, 1) is None
                continue
            got = hd95(lp, lg, 1)
            want = brute_hd95(p, g, spacing)
            assert abs(got - want) <= 1e-9

            # spacing-doubling covariance
            sp2 = tuple(2 * s for s in spacing)
            lp2 = LabelVolume(p.astype(np.uint16), sp2, 2)
            lg2 = LabelVolume(g.astype(np.uint16), sp2, 2)
            assert hd95(lp2, lg2, 1) == pytest.approx(2 * got, rel=1e-12)
            assert dice(lp2, lg2, 1) == dice(lp, lg, 1)
            done += 1
        elapsed = time.perf_counter() - start
        assert elapsed < 20.0, f"metric oracles took {elapsed:.1f}s"


def test_criterion_5_ab_loss_fixed_point():
    with criterion(5, "active boundary loss vanishes at the Chan-Vese fixed point"):
        shape = (8, 8, 4)
        spacing = (1.0, 1.0, 4.0)
        data = np.zeros(shape, dtype=np.float32)
        data[2:6, 2:6, 1:3] = 7.0
        v = Volume(data, spacing)
        u = np.zeros(shape + (2,))
        u[..., 1] = (data > 0).astype(np.float64)
        u[..., 0] = 1.0 - u[..., 1]
        pv = ProbVolume(u, spacing)
        full = active_boundary_loss(pv, v, AbParams(epsilon=0.0)).value
        surface = active_boundary_loss(
            pv, v, AbParams(lambda1=0.0, lambda2=0.0, epsilon=0.0)
        ).value
        assert abs(full - surface) <= 1e-10  # Volume_In + Volume_Out = 0

        # constant-u fixture: surface sits exactly on the epsilon floor
        eps = 1e-6
        const = np.zeros(shape + (2,))
        const[..., 1] = 0.3
        const[..., 0] = 0.7
        floor = math.sqrt(eps) * np.prod(shape) * np.prod(spacing)
        got = active_boundary_loss(
            ProbVolume(const, spacing), v, AbParams(lambda1=0.0, lambda2=0.0, epsilon=eps)
        ).value
        assert abs(got - floor) <= floor * 1e-12 + 1e-12


def test_criterion_6_refnet_contract():
    with criterion(6, "network shapes, softmax sums, attention range, determinism, init stats"):
        rng = np.random.default_rng(6006)
        cases = [
            ((32, 32, 8), 4),
            ((64, 64, 16), 4),
            ((224, 224, 32), 2),
        ]
        for shape, bf in cases:
            for n in (2, 4):
                net = build(NetConfig(num_classes=n, base_filters=bf, seed=11))
                patch = Volume(
                    rng.random(shape).astype(np.float32), (1.0, 1.0, 4.0)
                )
                out1 = forward(net, patch)
                out2 = forward(net, patch)
                assert out1.boundary.data.shape == shape + (1,)
                assert out1.mask_init.data.shape == shape + (n,)
                assert out1.mask_final.data.shape == shape + (n,)
                for pv in (out1.mask_init, out1.mask_final):
                    assert np.abs(pv.data.sum(axis=-1) - 1.0).max() <= 1e-5
                for gate in out1.attention_maps:
                    assert gate.min() > 0.0 and gate.max() < 1.0
                assert np.array_equal(out1.mask_final.data, out2.mask_final.data)
                assert np.array_equal(out1.boundary.data, out2.boundary.data)

        net = build(NetConfig(num_classes=4, base_filters=8, seed=0))
        flat = np.concatenate([p.ravel() for p in net.params.values()])
        assert flat.size >= 10 ** 5
        assert abs(flat.mean()) < 0.005
        assert 0.095 <= flat.std() <= 0.105


def test_criterion_7_scribble_simulation():
    with criterion(7, "scribbles contained, thin, and background ring exact"):
        gt = np.zeros((40, 40, 3), dtype=np.uint16)
        gt[8:21, 8:21, 0] = 1
        gt[10:26, 12:30, 1] = 1
        gt[24:35, 5:14, 1] = 2
        lab = LabelVolume(gt, (1, 1, 1), 3)
        scr = simulate_foreground_scribbles(lab)
        for (x, y, z), c in zip(scr.indices, scr.classes):
            assert gt[x, y, z] == c
        for z in range(3):
            for c in (1, 2):
                sl = np.zeros((40, 40), dtype=bool)
                for (x, y, zz), cc in zip(scr.indices, scr.classes):
                    if zz == z and cc == c:
                        sl[x, y] = True
                blocks = sl[:-1, :-1] & sl[1:, :-1] & sl[:-1, 1:] & sl[1:, 1:]
                assert not blocks.any()

        ring_gt = np.zeros((32, 32, 1), dtype=np.uint16)
        ring_gt[14:17, 14:17, 0] = 1
        bg = simulate_background_scribble(LabelVolume(ring_gt, (1, 1, 1), 2), 4)
        got = {(int(x), int(y)) for x, y, _ in bg.indices}
        assert got == chebyshev_ring(ring_gt[:, :, 0] == 1, 4)


def test_criterion_8_pipeline_determinism(tmp_path):
    with criterion(8, "pipeline runs are byte-identical; paper defaults in manifest"):
        shape = (32, 32, 8)
        spacing = (1.0, 1.0, 4.0)
        gt = sphere_labels(shape, (16, 16, 4), 9.0, spacing)
        noise = np.random.default_rng(88).random(shape).astype(np.float32)
        img = 0.15 + 0.7 * gt.astype(np.float32) + 0.02 * noise
        img_path = tmp_path / "sphere.nii"
        gt_path = tmp_path / "sphere_gt.nii"
        write_nifti(Volume(img, spacing), img_path)
        write_nifti(LabelVolume(gt, spacing, 2), gt_path)

        manifests = []
        for run in ("one", "two"):
            manifests.append(
                run_pipeline(
                    {
                        "image": str(img_path),
                        "gt": str(gt_path),
                        "output_dir": str(tmp_path / run),
                        "slic": {"k": 24},
                        "margin_vox": 3,
                    },
                    echo=lambda *_: None,
                )
            )
        names = [a["name"] for a in manifests[0]["artifacts"]]
        assert len(names) == 6
        assert names == [
            "scribbles", "supervoxels", "pseudo_mask", "confidence", "edges", "eval",
        ]
        h0 = {a["name"]: a["sha256"] for a in manifests[0]["artifacts"]}
        h1 = {a["name"]: a["sha256"] for a in manifests[1]["artifacts"]}
        assert h0 == h1

        cfg = manifests[0]["config"]
        assert cfg["ab"]["lambda1"] == 1.0
        assert cfg["ab"]["lambda2"] == 0.1
        assert cfg["weights"]["beta1"] == 0.3
        assert cfg["weights"]["beta2"] == 0.3
        assert cfg["patch_shape"] == [224, 224, 32]
        assert cfg["edge_threshold"] == 0.2


def test_criterion_9_nifti_roundtrip_bit_exact(tmp_path):
    with criterion(9, "NIfTI round-trip is bit-exact for uint8, int16, float32"):
        rng = np.random.default_rng(9009)
        shape = (7, 6, 5)
        spacing = (0.7, 1.3, 5.5)

        fvol = Volume(rng.random(shape).astype(np.float32), spacing)
        write_nifti(fvol, tmp_path / "f.nii")
        fback = read_nifti(tmp_path / "f.nii")
        assert np.array_equal(fback.data, fvol.data)
        assert fback.data.dtype == np.float32

        u8 = rng.integers(0, 200, size=shape).astype(np.uint16)
        lab8 = LabelVolume(u8, spacing, 201)
        write_nifti(lab8, tmp_path / "u8.nii")
        assert np.array_equal(read_nifti(tmp_path / "u8.nii", kind="labels").data, u8)

        i16 = rng.integers(0, 30000, size=shape).astype(np.uint16)
        lab16 = LabelVolume(i16, spacing, 30001)
        write_nifti(lab16, tmp_path / "i16.nii")
        assert np.array_equal(read_nifti(tmp_path / "i16.nii", kind="labels").data, i16)

        # and the serialized payloads survive a read-write cycle untouched
        for name in ("f.nii", "u8.nii", "i16.nii"):
            src = tmp_path / name
            dst = tmp_path / f"re_{name}"
            write_nifti(read_nifti(src), dst)
            assert (
                hashlib.sha256(src.read_bytes()[352:]).hexdigest()
                == hashlib.sha256(dst.read_bytes()[352:]).hexdigest()
            )

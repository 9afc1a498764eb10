"""The benchmark's three closed-loop workloads and their per-unit checks.

Each workload has a ``setup`` (repeated ``setup_repeats`` times), untimed
``warmup_units``, a timed ``unit`` and an untimed ``check``. Units call
the program only through module attributes (``cli.run_pipeline``,
``refnet.forward``, ...), so a traced run sees every call.

``check`` returns the unit's failures and stores under ``rec["outcomes"]``
one outcome per input volume: artifact digests, the pseudo-label Dice and,
where the network ran, output summaries and loss terms. On the default seed
each outcome is compared with its golden entry.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from scribsup import cli, label_propagation, losses, refnet, scribble_sim, supervoxel, volume_io

import phantom

SPACING_ANISO = (1.25, 1.25, 5.0)
SPACING_ISO = (1.0, 1.0, 1.0)
SUMMARY_ATOL = 1e-5  # network output summaries against the golden
LOSS_RTOL = 1e-4  # loss terms against the golden
PROB_SUM_ATOL = 1e-5  # per-voxel channel sums of probability outputs
LOSS_TERMS = ("l_bry", "l_seg_init", "l_seg_final", "l_ab", "total")


def is_network_output(name: str) -> bool:
    """Network outputs and the loss terms derived from them are compared with a
    tolerance, not by hash: BLAS may reorder float32 sums."""
    return name.startswith(("boundary", "mask_", "loss"))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def summary(arr) -> list:
    """Mean, std, min, max and 16 evenly spaced values of an array."""
    a = np.asarray(arr, dtype=np.float64).ravel()
    probes = a[np.linspace(0, a.size - 1, 16).astype(np.int64)]
    return [float(a.mean()), float(a.std()), float(a.min()), float(a.max())] + probes.tolist()


def mean_fg_dice(pred: np.ndarray, gt: np.ndarray) -> float:
    dices = []
    for c in range(1, phantom.NUM_CLASSES):
        p, g = pred == c, gt == c
        denom = int(p.sum()) + int(g.sum())
        dices.append(1.0 if denom == 0 else 2.0 * int((p & g).sum()) / denom)
    return float(np.mean(dices))


def write_phantom(ph: phantom.Phantom, directory: Path, tag: str):
    directory.mkdir(parents=True, exist_ok=True)
    img_path, gt_path = directory / f"{tag}_image.nii", directory / f"{tag}_gt.nii"
    volume_io.write_nifti(volume_io.Volume(ph.image, ph.spacing), img_path)
    volume_io.write_nifti(
        volume_io.LabelVolume(ph.labels, ph.spacing, phantom.NUM_CLASSES), gt_path
    )
    return img_path, gt_path


def golden_entry(outcome: dict) -> dict:
    entry = {"digests": {k: v for k, v in outcome["digests"].items() if not is_network_output(k)}}
    entry.update({k: outcome[k] for k in ("summaries", "loss") if k in outcome})
    return entry


def compare_golden(outcome, golden, errors):
    for name, digest in golden["digests"].items():
        if outcome["digests"].get(name) != digest:
            errors.append(f"{name}: sha256 differs from golden")
    for name, want in golden.get("summaries", {}).items():
        got = outcome.get("summaries", {}).get(name)
        if got is None or len(got) != len(want):
            errors.append(f"{name}: output summary missing or misshapen")
        elif max(abs(g - w) for g, w in zip(got, want)) > SUMMARY_ATOL:
            errors.append(f"{name}: output summary differs from golden by more than {SUMMARY_ATOL}")
    for term, want in golden.get("loss", {}).items():
        got = outcome.get("loss", {}).get(term)
        if got is None or not math.isclose(got, want, rel_tol=LOSS_RTOL):
            errors.append(f"loss term {term}: {got!r} vs golden {want!r}")


def check_pseudo_labels(ids, scribbles, mask, conf, errors):
    """Supervoxel partition and the sole-scribble-class rule of propagation."""
    count = int(ids.max()) + 1
    if ids.min() < 0 or (np.bincount(ids.ravel(), minlength=count) == 0).any():
        errors.append("supervoxel ids are not a contiguous partition")
        return
    marked = scribbles != scribble_sim.SCRIBBLE_SENTINEL
    pairs = np.unique(
        np.stack([ids[marked].astype(np.int64), scribbles[marked].astype(np.int64)], axis=1), axis=0
    )
    n_classes = np.bincount(pairs[:, 0], minlength=count)
    sole = np.zeros(count, dtype=np.int64)
    sole[pairs[:, 0]] = pairs[:, 1]
    want_conf = (n_classes == 1)[ids]
    if not np.array_equal(conf.astype(bool), want_conf):
        errors.append("confidence is not 'supervoxel has exactly one scribble class'")
    if not np.array_equal(mask, np.where(want_conf, sole[ids], 0)):
        errors.append("a confident voxel's pseudo class is not its supervoxel's scribble class")


def check_prob_sums(channels, name, errors):
    total = np.sum([np.asarray(c, dtype=np.float64) for c in channels], axis=0)
    if np.abs(total - 1.0).max() > PROB_SUM_ATOL:
        errors.append(f"{name}: probability channels do not sum to 1")


class PipelineWorkload:
    """Shared run and checks of the two ``cli.run_pipeline`` workloads."""

    forward = False

    def pipeline_config(self, img_path, gt_path, out_dir):
        cfg = {"image": str(img_path), "gt": str(gt_path), "output_dir": str(out_dir),
               "forward": self.forward}
        if self.forward:
            cfg["patch_shape"] = list(self.shape)
        return cfg

    def run_pipeline(self, cfg):
        manifest = cli.run_pipeline(cfg, echo=lambda _msg: None)
        return {"digests": {a["name"]: a["sha256"] for a in manifest["artifacts"]},
                "paths": {a["name"]: a["path"] for a in manifest["artifacts"]}}

    def check_volume(self, run, vols, gt, golden, errors) -> dict:
        """Check one pipeline run; ``vols`` maps artifact names to arrays read back."""
        check_pseudo_labels(
            vols["supervoxels"], vols["scribbles"], vols["pseudo_mask"], vols["confidence"], errors
        )
        dice = mean_fg_dice(vols["pseudo_mask"], gt)
        reported = json.loads(Path(run["paths"]["eval"]).read_text())["mean"]["dice"]
        if not math.isclose(dice, reported, rel_tol=1e-12):
            errors.append(f"eval.json mean dice {reported} != recomputed {dice}")
        outcome = {"digests": run["digests"], "pseudo_dice": dice}
        if self.forward:
            for tag in ("init", "final"):
                check_prob_sums(
                    [vols[f"mask_{tag}_c{c}"] for c in range(phantom.NUM_CLASSES)],
                    f"mask_{tag}", errors,
                )
            terms = json.loads(Path(run["paths"]["loss"]).read_text())
            if not all(math.isfinite(terms[t]) for t in LOSS_TERMS):
                errors.append("loss terms are not finite")
            outcome["summaries"] = {k: summary(v) for k, v in vols.items() if is_network_output(k)}
            outcome["loss"] = {t: terms[t] for t in LOSS_TERMS}
        if golden is not None:
            compare_golden(outcome, golden, errors)
        return outcome


class PseudoLabel224(PipelineWorkload):
    """``cli.run_pipeline`` without forward on one 224x224x32 phantom."""

    name = "pseudolabel_224"
    shape = (224, 224, 32)
    volumes_per_unit = 1
    setup_repeats = 9
    warmup_units = ()

    def setup(self, seed, workdir: Path):
        self.ph = phantom.make_phantom(self.shape, SPACING_ANISO, seed)
        self.params = {"phantom": self.ph.params, "k": int(np.prod(self.shape)) // 1000}
        img, gt = write_phantom(self.ph, workdir / "inputs", "p")
        self.cfg = self.pipeline_config(img, gt, workdir / "out")

    def unit(self, u):
        return self.run_pipeline(self.cfg)

    def check(self, u, rec, golden):
        errors = []
        vols = {k: volume_io.read_nifti(rec["paths"][k]).data
                for k in ("supervoxels", "scribbles", "pseudo_mask", "confidence")}
        outcome = self.check_volume(rec, vols, self.ph.labels, golden and golden["volume"], errors)
        rec["outcomes"] = {"volume": outcome}
        return errors


class SmallBatch96(PipelineWorkload):
    """Batches of two 96x96x16 phantoms, one anisotropic and one isotropic.

    The stream holds four phantoms, so units alternate between two batches.
    Each volume goes through ``cli.run_pipeline`` with forward on, then every
    NIfTI artifact is read back with ``read_nifti`` and re-hashed.
    """

    name = "smallbatch_96"
    shape = (96, 96, 16)
    stream = 4
    volumes_per_unit = 2
    setup_repeats = 9
    warmup_units = (1, 2)  # one pass over the stream
    forward = True

    def setup(self, seed, workdir: Path):
        self.entries = []
        for j in range(self.stream):
            spacing = SPACING_ANISO if j % 2 == 0 else SPACING_ISO
            ph = phantom.make_phantom(self.shape, spacing, seed * self.stream + j)
            img, gt = write_phantom(ph, workdir / "inputs", f"p{j}")
            self.entries.append((ph, self.pipeline_config(img, gt, workdir / f"out{j}")))
        self.params = {
            "phantoms": [ph.params for ph, _ in self.entries],
            "k": int(np.prod(self.shape)) // 1000,
            "patch_shape": list(self.shape),
        }

    def batch(self, u):
        first = self.volumes_per_unit * ((u - 1) % (self.stream // self.volumes_per_unit))
        return range(first, first + self.volumes_per_unit)

    def unit(self, u):
        runs = {}
        for j in self.batch(u):
            run = self.run_pipeline(self.entries[j][1])
            run["vols"], run["rehash_ok"] = {}, True
            for name, path in run["paths"].items():
                if path.endswith(".nii"):
                    run["vols"][name] = volume_io.read_nifti(path).data
                    run["rehash_ok"] &= sha256(Path(path).read_bytes()) == run["digests"][name]
            runs[f"entry{j}"] = run
        return {"runs": runs}

    def check(self, u, rec, golden):
        errors, outcomes = [], {}
        for j, (key, run) in zip(self.batch(u), rec.pop("runs").items()):
            if not run["rehash_ok"]:
                errors.append(f"{key}: re-hash of a read-back artifact differs from the manifest")
            want = None if golden is None else golden.get(key)
            if golden is not None and want is None:
                errors.append(f"{key}: no golden entry")
            outcomes[key] = self.check_volume(run, run["vols"], self.entries[j][0].labels, want, errors)
        rec["outcomes"] = outcomes
        return errors


class NetLoss224:
    """``refnet.forward`` then ``losses.total_loss`` on one 224x224x32 patch."""

    name = "netloss_224"
    shape = (224, 224, 32)
    volumes_per_unit = 1
    setup_repeats = 1  # set-up runs scribble simulation and SLIC, too slow to repeat
    warmup_units = (1,)

    def setup(self, seed, workdir: Path):
        ph = phantom.make_phantom(self.shape, SPACING_ANISO, seed)
        gt = volume_io.LabelVolume(ph.labels, ph.spacing, phantom.NUM_CLASSES)
        self.image = volume_io.Volume(ph.image, ph.spacing)
        scribbles = scribble_sim.merge_scribbles(
            scribble_sim.simulate_foreground_scribbles(gt),
            scribble_sim.simulate_background_scribble(gt, 10),
        )
        k = int(np.prod(self.shape)) // 1000
        sv = supervoxel.slic3d(self.image, supervoxel.SlicParams(k))
        self.pl = label_propagation.propagate(scribbles, sv)
        self.edges = label_propagation.static_boundary(self.image, 0.2)
        self.net = refnet.build(refnet.NetConfig(num_classes=phantom.NUM_CLASSES))
        self.params = {"phantom": ph.params, "k": k, "base_filters": 8}
        self.setup_digests = {
            "supervoxels": sha256(sv.ids.tobytes()),
            "pseudo_mask": sha256(self.pl.mask.data.tobytes()),
            "confidence": sha256(self.pl.confident.data.tobytes()),
            "edges": sha256(self.edges.data.tobytes()),
        }
        self.setup_errors = []
        check_pseudo_labels(
            sv.ids, scribble_sim.scribbles_to_label_volume(scribbles).data,
            self.pl.mask.data, self.pl.confident.data, self.setup_errors,
        )
        self.dice = mean_fg_dice(self.pl.mask.data, ph.labels)

    def unit(self, u):
        out = refnet.forward(self.net, self.image)
        report = losses.total_loss(
            out.boundary, self.edges, out.mask_init, out.mask_final, self.pl, self.image
        )
        return {"out": out, "report": report}

    def check(self, u, rec, golden):
        out, report = rec.pop("out"), rec.pop("report")
        errors = list(self.setup_errors)
        outputs = {"boundary": out.boundary.data, "mask_init": out.mask_init.data,
                   "mask_final": out.mask_final.data}
        for name in ("mask_init", "mask_final"):
            check_prob_sums(np.moveaxis(outputs[name], -1, 0), name, errors)
        grads = {"grad_boundary": (report.grad_boundary, "boundary"),
                 "grad_init": (report.grad_init, "mask_init"),
                 "grad_final": (report.grad_final, "mask_final")}
        for name, (g, of) in grads.items():
            if g.shape != outputs[of].shape or not np.all(np.isfinite(g)):
                errors.append(f"{name}: shape {g.shape} (want {outputs[of].shape}) or non-finite")
        if not math.isfinite(report.value):
            errors.append("total loss is not finite")
        digests = dict(self.setup_digests)
        digests.update({k: sha256(np.ascontiguousarray(v).tobytes()) for k, v in outputs.items()})
        outcome = {
            "digests": digests,
            "pseudo_dice": self.dice,
            "summaries": {f"{k}_c{c}": summary(v[..., c])
                          for k, v in outputs.items() for c in range(v.shape[-1])},
            "loss": {t: report.terms[t] for t in LOSS_TERMS},
        }
        if golden is not None:
            compare_golden(outcome, golden["volume"], errors)
        rec["outcomes"] = {"volume": outcome}
        return errors


WORKLOADS = {w.name: w for w in (PseudoLabel224, NetLoss224, SmallBatch96)}

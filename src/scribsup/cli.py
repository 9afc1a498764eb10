"""Command-line interface: one subcommand per pipeline stage plus `pipeline`.

Each stage has one implementation, shared by its subcommand and by
`run_pipeline`. A failure inside a stage raises `PipelineStageError`, which
the command group prints as ``error in stage '<name>': ...`` before exiting 1.

Multi-channel probability volumes cross the CLI boundary as one 3D NIfTI
file per class channel (the file format here is strictly 3D); repeatable
flags take the channel files in class order. Scribble files are label
volumes where unannotated voxels carry the sentinel value 255.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from contextlib import contextmanager
from pathlib import Path

import click
import numpy as np

from . import label_propagation, losses, metrics, refnet, scribble_sim, supervoxel
from .errors import ScribsupError, UnsupportedDatatypeError, check_setting
from .volume_io import (
    BinaryVolume, LabelVolume, ProbVolume, PseudoLabels, Volume, _check_same_grid, crop_or_pad,
    read_nifti, write_nifti,
)

_MAX_INT16_ID = 32767

# Every default of the pipeline config; the subcommands' options read theirs
# from here too.
_DEFAULTS = {
    "image": None, "scribbles": None, "gt": None, "edges_input": None, "output_dir": None,
    "slic": {"k": None, "compactness": 10.0, "iterations": 10},
    "edge_threshold": 0.2,
    "ab": {"lambda1": 1.0, "lambda2": 0.1, "epsilon": 1e-6},
    "weights": {"beta1": 0.3, "beta2": 0.3},
    "patch_shape": [224, 224, 32], "margin_vox": 10, "seed": 0, "forward": False,
    "forward_base_filters": 8, "num_classes": 0,
}


class PipelineStageError(ScribsupError):
    """Wraps a failure with the pipeline stage it occurred in."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage '{stage}': {cause}")
        self.stage = stage
        self.cause = cause


@contextmanager
def stage(name: str):
    """Re-raise any failure in the block as a PipelineStageError tagged ``name``."""
    try:
        yield
    except PipelineStageError:
        raise
    except Exception as exc:
        raise PipelineStageError(name, exc) from exc


class _StageGroup(click.Group):
    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except PipelineStageError as exc:
            click.echo(f"error in {exc}", err=True)
            ctx.exit(1)


@click.group(cls=_StageGroup)
def main():
    """Scribble-supervised volumetric segmentation toolkit."""


# --- stages: one implementation each, shared by the subcommands and run_pipeline


def _read_on_grid(path, kind: str, ref, ref_path):
    """Read ``path`` and check its shape and spacing against ``ref``, read from ``ref_path``."""
    vol = read_nifti(path, kind=kind)
    _check_same_grid(vol, ref, f"{path} and {ref_path}")
    return vol


@contextmanager
def _refusal_names(path):
    """Re-raise a container's refusal of the values read from ``path`` as an error naming it."""
    try:
        yield
    except ValueError as exc:
        raise UnsupportedDatatypeError(f"{path}: {exc}") from exc


def _simulate_scribbles(gt: LabelVolume, margin: int, num_classes: int = 0):
    """Foreground skeletons plus the background ring; ``num_classes`` widens the set."""
    merged = scribble_sim.merge_scribbles(
        scribble_sim.simulate_foreground_scribbles(gt),
        scribble_sim.simulate_background_scribble(gt, margin),
    )
    return dataclasses.replace(merged, num_classes=num_classes) if num_classes else merged


def _slic_params(image: Volume, k, compactness: float, iterations: int) -> supervoxel.SlicParams:
    """SLIC settings; ``k`` defaults to one per 1000 voxels and must fit an int16 ID map."""
    k = max(1, image.data.size // 1000) if k is None else k
    params = supervoxel.SlicParams(k, compactness, iterations)  # a non-integer k fails here
    if k > _MAX_INT16_ID:
        raise ScribsupError(f"k={k} supervoxels exceed the int16 NIfTI limit ({_MAX_INT16_ID})")
    return params


def _read_edge_probs(path, image: Volume, image_path) -> Volume:
    """A precomputed edge volume on the image grid, held to ProbVolume's value rule."""
    edges = _read_on_grid(path, "image", image, image_path)
    with _refusal_names(path):
        ProbVolume(edges.data[..., None], edges.spacing)
    return edges


def _edges(image: Volume, threshold: float, precomputed: Volume | None = None) -> BinaryVolume:
    """Static boundary: the built-in detector, or ``precomputed`` probabilities thresholded."""
    if precomputed is None:
        return label_propagation.static_boundary(image, threshold)
    label_propagation._check_edge_threshold(threshold)
    return BinaryVolume((precomputed.data >= threshold).astype(np.uint8), precomputed.spacing)


def _forward(image: Volume, num_classes: int, seed: int, base_filters: int, patch_shape=None):
    """Center-crop/pad to ``patch_shape`` (if given), build the network, run it."""
    patch = crop_or_pad(image, patch_shape, origin="center") if patch_shape else image
    net = refnet.build(refnet.NetConfig(num_classes, base_filters=base_filters, seed=seed))
    return patch, net, refnet.forward(net, patch)


def _write_channels(data: np.ndarray, spacing, paths) -> list:
    """Write channel ``c`` of ``data`` (last axis) as float32 to ``paths[c]``."""
    for c, path in enumerate(paths):
        write_nifti(Volume(data[..., c].astype(np.float32), spacing), path)
    return [str(p) for p in paths]


def _write_forward(outputs: refnet.NetworkOutputs, boundary_path, mask_prefix) -> dict:
    """Write the boundary map and one file per class channel of both masks."""
    b = outputs.boundary
    written = {"boundary": _write_channels(b.data, b.spacing, [boundary_path])[0]}
    for tag in ("init", "final"):
        pv = getattr(outputs, f"mask_{tag}")
        paths = [f"{mask_prefix}_{tag}_c{c}.nii" for c in range(pv.channels)]
        written[f"mask_{tag}"] = _write_channels(pv.data, pv.spacing, paths)
    return written


def _write_json(obj, path) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True))


# --- subcommands


@main.command("slic")
@click.option("--input", "input_path", required=True, type=click.Path(exists=True))
@click.option("--k", type=int, default=_DEFAULTS["slic"]["k"],
              help="Cluster count; default voxel_count/1000.")
@click.option("--compactness", type=float, default=_DEFAULTS["slic"]["compactness"], show_default=True)
@click.option("--iters", type=int, default=_DEFAULTS["slic"]["iterations"], show_default=True)
@click.option("--output", required=True, type=click.Path())
def slic_cmd(input_path, k, compactness, iters, output):
    """Cluster a volume into supervoxels and write the ID map (int16)."""
    with stage("slic"):
        image = read_nifti(input_path, kind="image")
        sv = supervoxel.slic3d(image, _slic_params(image, k, compactness, iters))
        write_nifti(sv, output)
        click.echo(f"wrote {sv.count} supervoxels to {output}")


@main.command("simulate-scribbles")
@click.option("--gt", "gt_path", required=True, type=click.Path(exists=True))
@click.option("--margin", type=int, default=_DEFAULTS["margin_vox"], show_default=True)
@click.option("--output", required=True, type=click.Path())
def simulate_scribbles_cmd(gt_path, margin, output):
    """Generate foreground skeleton + background ring scribbles from a mask."""
    with stage("simulate-scribbles"):
        merged = _simulate_scribbles(read_nifti(gt_path, kind="labels"), margin)
        write_nifti(scribble_sim.scribbles_to_label_volume(merged), output)
        click.echo(f"wrote {len(merged)} scribble voxels to {output}")


@main.command("propagate")
@click.option("--scribbles", "scribbles_path", required=True, type=click.Path(exists=True))
@click.option("--supervoxels", "sv_path", required=True, type=click.Path(exists=True))
@click.option("--classes", type=int, default=_DEFAULTS["num_classes"],
              help="Class count; default inferred.")
@click.option("--output-mask", required=True, type=click.Path())
@click.option("--output-conf", required=True, type=click.Path())
def propagate_cmd(scribbles_path, sv_path, classes, output_mask, output_conf):
    """Expand scribbles through supervoxels into pseudo labels."""
    with stage("propagate"):
        scribble_vol = read_nifti(scribbles_path, kind="labels")
        scribbles = scribble_sim.scribbles_from_label_volume(scribble_vol, classes)
        ids = _read_on_grid(sv_path, "labels", scribble_vol, scribbles_path)
        with _refusal_names(sv_path):
            sv = supervoxel.SupervoxelMap(ids.data, ids.spacing, int(ids.data.max()) + 1)
        pl = label_propagation.propagate(scribbles, sv)
        write_nifti(pl.mask, output_mask)
        write_nifti(pl.confident, output_conf)
        click.echo(f"confident voxels: {int(pl.confident.data.sum())}")


@main.command("edges")
@click.option("--input", "input_path", required=True, type=click.Path(exists=True))
@click.option("--threshold", type=float, default=_DEFAULTS["edge_threshold"], show_default=True)
@click.option("--output", required=True, type=click.Path())
@click.option("--edges", "precomputed", type=click.Path(exists=True), default=None,
              help="Precomputed edge-probability volume to threshold instead of the built-in detector.")
def edges_cmd(input_path, threshold, output, precomputed):
    """Compute the static boundary volume (stacked per-slice 2D edges)."""
    with stage("edges"):
        image = read_nifti(input_path, kind="image")
        pre = _read_edge_probs(precomputed, image, input_path) if precomputed else None
        edge_vol = _edges(image, threshold, pre)
        write_nifti(edge_vol, output)
        click.echo(f"edge voxels: {int(edge_vol.data.sum())}")


@main.command("forward")
@click.option("--input", "input_path", required=True, type=click.Path(exists=True))
@click.option("--classes", type=int, required=True)
@click.option("--seed", type=int, default=_DEFAULTS["seed"], show_default=True)
@click.option("--base-filters", type=int, default=_DEFAULTS["forward_base_filters"], show_default=True)
@click.option("--patch", default=None, help="Crop/pad to X,Y,Z before the forward pass.")
@click.option("--out-prefix", required=True)
def forward_cmd(input_path, classes, seed, base_filters, patch, out_prefix):
    """Run the deterministic reference network and write its outputs."""
    with stage("forward"):
        patch_shape = tuple(int(t) for t in patch.split(",")) if patch else None
        image = read_nifti(input_path, kind="image")
        vol, net, outputs = _forward(image, classes, seed, base_filters, patch_shape)
        summary = {"input_shape": list(vol.shape), "num_classes": classes, "seed": seed,
                   "base_filters": base_filters, "param_count": refnet.count_params(net),
                   **_write_forward(outputs, f"{out_prefix}_boundary.nii", out_prefix)}
        _write_json(summary, f"{out_prefix}_summary.json")
        click.echo(f"wrote forward outputs with prefix {out_prefix}")


@main.command("loss")
@click.option("--pred-init", "pred_init", multiple=True, required=True, type=click.Path(exists=True))
@click.option("--pred-final", "pred_final", multiple=True, required=True, type=click.Path(exists=True))
@click.option("--boundary-pred", required=True, type=click.Path(exists=True))
@click.option("--pseudo", required=True, type=click.Path(exists=True))
@click.option("--conf", required=True, type=click.Path(exists=True))
@click.option("--edges", "edges_path", required=True, type=click.Path(exists=True))
@click.option("--image", "image_path", required=True, type=click.Path(exists=True))
@click.option("--beta1", type=float, default=_DEFAULTS["weights"]["beta1"], show_default=True)
@click.option("--beta2", type=float, default=_DEFAULTS["weights"]["beta2"], show_default=True)
@click.option("--lambda1", type=float, default=_DEFAULTS["ab"]["lambda1"], show_default=True)
@click.option("--lambda2", type=float, default=_DEFAULTS["ab"]["lambda2"], show_default=True)
@click.option("--literal-bry", is_flag=True, help="Use the one-sided boundary CE form.")
@click.option("--grad-prefix", default=None, help="Also write gradient volumes with this prefix.")
@click.option("--report", "report_path", required=True, type=click.Path())
def loss_cmd(pred_init, pred_final, boundary_pred, pseudo, conf, edges_path, image_path,
             beta1, beta2, lambda1, lambda2, literal_bry, grad_prefix, report_path):
    """Evaluate all loss terms on saved predictions; emit a JSON breakdown."""
    with stage("loss"):
        ab = losses.AbParams(lambda1, lambda2, _DEFAULTS["ab"]["epsilon"])
        weights = losses.TotalLossWeights(beta1, beta2)
        image = read_nifti(image_path, kind="image")

        def on_grid(path, kind="image"):
            return _read_on_grid(path, kind, image, image_path)

        def probs(paths):  # one file per class channel
            data = np.stack([on_grid(p).data for p in paths], axis=-1)
            with _refusal_names(", ".join(map(str, paths))):
                return ProbVolume(data, image.spacing)

        probs_init, probs_final, boundary = map(probs, (pred_init, pred_final, (boundary_pred,)))
        mask = on_grid(pseudo, "labels")
        if mask.num_classes != probs_init.channels:
            with _refusal_names(pseudo):
                mask = LabelVolume(mask.data, mask.spacing, probs_init.channels)
        pl = PseudoLabels(mask, on_grid(conf, "binary"))
        static_edges = on_grid(edges_path, "binary")
        report = losses.total_loss(
            boundary, static_edges, probs_init, probs_final, pl, image,
            ab=ab, weights=weights, literal_boundary=literal_bry,
        )
        _write_json(report.terms, report_path)
        if grad_prefix:
            _write_channels(report.grad_boundary, image.spacing, [f"{grad_prefix}_grad_boundary.nii"])
            for name, grad in (("init", report.grad_init), ("final", report.grad_final)):
                paths = [f"{grad_prefix}_grad_{name}_c{c}.nii" for c in range(grad.shape[-1])]
                _write_channels(grad, image.spacing, paths)
        click.echo(f"total loss: {report.value:.6f}")


@main.command("eval")
@click.option("--pred", "pred_path", required=True, type=click.Path(exists=True))
@click.option("--gt", "gt_path", required=True, type=click.Path(exists=True))
@click.option("--report", "report_path", required=True, type=click.Path())
def eval_cmd(pred_path, gt_path, report_path):
    """Dice / HD95 / precision per class, plus foreground means."""
    with stage("eval"):
        gt = read_nifti(gt_path, kind="labels")
        report = metrics.evaluate(_read_on_grid(pred_path, "labels", gt, gt_path), gt)
        Path(report_path).write_text(report.to_json())
        click.echo(f"mean dice: {report.mean_dice}")


# --- pipeline


def _merge_config(user: dict) -> dict:
    if not isinstance(user, dict):
        raise ScribsupError(f"config document must be a JSON object, got {type(user).__name__}")
    cfg = json.loads(json.dumps(_DEFAULTS))
    for key, value in user.items():
        if key not in cfg:
            raise ScribsupError(f"unknown config key {key!r}")
        if isinstance(cfg[key], dict):
            if not isinstance(value, dict):
                raise ScribsupError(f"config key {key!r} must be an object, got {value!r}")
            for sub, sval in value.items():
                if sub not in cfg[key]:
                    raise ScribsupError(f"unknown config key {key}.{sub}")
                cfg[key][sub] = sval
        else:
            cfg[key] = value
    return cfg


def run_pipeline(cfg: dict, echo=click.echo) -> dict:
    """Execute slic -> propagate -> edges -> (forward) -> loss/eval.

    Every intermediate lands in ``output_dir`` as NIfTI or JSON; the
    returned manifest records the full effective config and a sha256 per
    artifact. Raises PipelineStageError naming the stage that failed.
    """
    with stage("config"):
        cfg = _merge_config(cfg)
        if not cfg["image"] or not cfg["output_dir"]:
            raise ScribsupError("config must set 'image' and 'output_dir'")
        for key in ("image", "scribbles", "gt", "edges_input"):
            if cfg[key] and not Path(cfg[key]).exists():
                raise ScribsupError(f"input path for {key!r} does not exist: {cfg[key]}")
        if not cfg["scribbles"] and not cfg["gt"]:
            raise ScribsupError("need either 'scribbles' or 'gt' (to simulate them)")
        label_propagation._check_edge_threshold(cfg["edge_threshold"])
        check_setting("margin_vox", cfg["margin_vox"], 1, integer=True)
        # num_classes 0 is inferred from the scribbles later; any other count is checked here
        net_cfg = refnet.NetConfig(2 if cfg["num_classes"] == 0 else cfg["num_classes"],
                                   cfg["forward_base_filters"], seed=cfg["seed"])
        if cfg["forward"]:
            net_cfg.check_patch_shape(tuple(cfg["patch_shape"]))
            ab, weights = losses.AbParams(**cfg["ab"]), losses.TotalLossWeights(**cfg["weights"])
        out_dir = Path(cfg["output_dir"])
        out_dir.mkdir(parents=True, exist_ok=True)
    artifacts = []

    def emit(name: str, path):
        artifacts.append({"name": name, "path": str(path)})

    def write(vol, name: str):
        write_nifti(vol, out_dir / f"{name}.nii")
        emit(name, out_dir / f"{name}.nii")

    with stage("read"):
        image = read_nifti(cfg["image"], kind="image")
        slic_params = _slic_params(image, **cfg["slic"])  # bad settings fail before any compute
        gt, scribble_vol = (
            _read_on_grid(cfg[key], "labels", image, cfg["image"]) if cfg[key] else None
            for key in ("gt", "scribbles")
        )
        edges_in = (_read_edge_probs(cfg["edges_input"], image, cfg["image"])
                    if cfg["edges_input"] else None)

    with stage("scribbles"):
        if scribble_vol is not None:
            scribbles = scribble_sim.scribbles_from_label_volume(scribble_vol, cfg["num_classes"])
        else:
            scribbles = _simulate_scribbles(gt, cfg["margin_vox"], cfg["num_classes"])
            write(scribble_sim.scribbles_to_label_volume(scribbles), "scribbles")

    with stage("slic"):
        sv = supervoxel.slic3d(image, slic_params)
        write(sv, "supervoxels")

    with stage("propagate"):
        pl = label_propagation.propagate(scribbles, sv)
        write(pl.mask, "pseudo_mask")
        write(pl.confident, "confidence")

    with stage("edges"):
        edge_vol = _edges(image, cfg["edge_threshold"], edges_in)
        write(edge_vol, "edges")

    if cfg["forward"]:
        with stage("forward"):
            patch_shape = tuple(cfg["patch_shape"])
            patch, _, outputs = _forward(image, scribbles.num_classes, cfg["seed"],
                                         cfg["forward_base_filters"], patch_shape)
            written = _write_forward(outputs, out_dir / "boundary_pred.nii", out_dir / "mask")
            for path in (written["boundary"], *written["mask_init"], *written["mask_final"]):
                emit(Path(path).stem, path)

        with stage("loss"):
            def crop(vol):
                return crop_or_pad(vol, patch_shape, origin="center")

            pl_patch = PseudoLabels(crop(pl.mask), crop(pl.confident))
            report = losses.total_loss(
                outputs.boundary, crop(edge_vol), outputs.mask_init, outputs.mask_final,
                pl_patch, patch, ab=ab, weights=weights,
            )
            _write_json(report.terms, out_dir / "loss.json")
            emit("loss", out_dir / "loss.json")

    if gt is not None:
        with stage("eval"):
            (out_dir / "eval.json").write_text(metrics.evaluate(pl.mask, gt).to_json())
            emit("eval", out_dir / "eval.json")

    with stage("manifest"):
        for art in artifacts:
            art["sha256"] = hashlib.sha256(Path(art["path"]).read_bytes()).hexdigest()
        manifest = {"config": cfg, "artifacts": artifacts}
        _write_json(manifest, out_dir / "manifest.json")
        echo(f"pipeline complete: {len(artifacts)} artifacts in {out_dir}")
        return manifest


@main.command("pipeline")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
def pipeline_cmd(config_path):
    """Run the full pipeline from a JSON config document."""
    with stage("config"):
        cfg = json.loads(Path(config_path).read_text())
    run_pipeline(cfg)


if __name__ == "__main__":
    main()

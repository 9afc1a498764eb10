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

import hashlib
import json
from contextlib import contextmanager
from dataclasses import asdict, replace
from pathlib import Path

import click
import numpy as np

from . import label_propagation, losses, metrics, refnet, scribble_sim, supervoxel
from .errors import InvalidConfigError, NoConfidentVoxelsError, ScribsupError, check_setting
from .volume_io import (
    BinaryVolume, LabelVolume, ProbVolume, PseudoLabels, Volume, _check_probability_range,
    _check_same_grid, _refusal_names, crop_or_pad, read_nifti, write_nifti,
)

# Every default of the pipeline config; the subcommands' options read theirs
# from here too. Those of the SLIC, loss and network settings are the library's.
_DEFAULTS = {
    "image": None, "scribbles": None, "gt": None, "edges_input": None, "output_dir": None,
    "slic": {"k": None, "compactness": supervoxel.SlicParams.compactness,
             "iterations": supervoxel.SlicParams.iterations},
    "edge_threshold": 0.2,
    "ab": asdict(losses.AbParams()), "weights": asdict(losses.TotalLossWeights()),
    "patch_shape": [224, 224, 32], "margin_vox": 10, "seed": refnet.NetConfig.seed,
    "forward": False, "forward_base_filters": refnet.NetConfig.base_filters, "num_classes": 0,
}
_MANIFEST = "manifest.json"  # run_pipeline's last file, which lists its artifacts


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


def _simulate_scribbles(gt: LabelVolume, margin: int):
    """Foreground skeletons plus the background ring, with ``gt``'s class count."""
    background = scribble_sim.simulate_background_scribble(gt, margin)  # refuses a bad margin first
    return scribble_sim.merge_scribbles(scribble_sim.simulate_foreground_scribbles(gt), background)


def _slic_params(image: Volume, k, compactness: float, iterations: int) -> supervoxel.SlicParams:
    """SLIC settings; ``k`` defaults to one per 1000 voxels and must not exceed the voxel count."""
    k = max(1, image.data.size // 1000) if k is None else k
    params = supervoxel.SlicParams(k, compactness, iterations)  # a non-integer k fails here
    params.check_fits(image.shape)
    return params


def _read_edge_probs(path, image: Volume, image_path, threshold: float) -> BinaryVolume:
    """The static boundary from a precomputed edge-probability volume on the image grid: its
    values held to ProbVolume's range rule, kept where they reach ``threshold``."""
    label_propagation._check_edge_threshold(threshold)
    edges = _read_on_grid(path, "image", image, image_path)
    with _refusal_names(path):
        _check_probability_range(edges.data)
    return BinaryVolume((edges.data >= threshold).astype(np.uint8), edges.spacing)


def _heads(spacing, boundary_name: str, prefix: str, boundary, init, final):
    """Yield each network head channel as ``(name, float32 volume)``: ``boundary``'s one channel
    as ``boundary_name``, then channel ``c`` (last axis) of ``init``/``final`` as
    ``{prefix}_{init,final}_c{c}``."""
    yield boundary_name, Volume(boundary[..., 0].astype(np.float32), spacing)
    for tag, data in (("init", init), ("final", final)):
        for c in range(data.shape[-1]):
            yield f"{prefix}_{tag}_c{c}", Volume(data[..., c].astype(np.float32), spacing)


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
    """Cluster a volume into supervoxels and write the ID map (int16, int32 above 32,768 IDs)."""
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
        gt = read_nifti(gt_path, kind="labels")
        scribble_sim._check_class_count(gt.num_classes, f"{gt_path}: class count")
        merged = _simulate_scribbles(gt, margin)
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
        with _refusal_names(scribbles_path):
            scribbles = scribble_sim.scribbles_from_label_volume(scribble_vol, classes)
        sv = _read_on_grid(sv_path, "supervoxels", scribble_vol, scribbles_path)
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
        edge_vol = (_read_edge_probs(precomputed, image, input_path, threshold) if precomputed
                    else label_propagation.static_boundary(image, threshold))
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
        net_cfg = refnet.NetConfig(classes, base_filters, seed)
        try:
            patch_shape = tuple(int(t) for t in patch.split(",")) if patch else None
        except ValueError:
            raise InvalidConfigError(f"--patch must be X,Y,Z integers, got {patch!r}") from None
        if patch_shape:  # a given patch is refused before the read
            net_cfg.check_patch_shape(patch_shape)
        image = read_nifti(input_path, kind="image")
        with _refusal_names(input_path):  # without --patch the image itself is the patch
            net_cfg.check_patch_shape(patch_shape or image.shape)
        vol = crop_or_pad(image, patch_shape or image.shape)
        net = refnet.build(net_cfg)
        out = refnet.forward(net, vol)
        paths = []
        for name, head in _heads(vol.spacing, f"{out_prefix}_boundary", out_prefix,
                                 out.boundary.data, out.mask_init.data, out.mask_final.data):
            paths.append(f"{name}.nii")
            write_nifti(head, paths[-1])
        summary = {"input_shape": list(vol.shape), **asdict(net_cfg),
                   "param_count": refnet.count_params(net), "boundary": paths[0],
                   "mask_init": paths[1:classes + 1], "mask_final": paths[classes + 1:]}
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
@click.option("--grad-prefix", default=None, help="Also write gradient volumes with this prefix.")
@click.option("--report", "report_path", required=True, type=click.Path())
def loss_cmd(pred_init, pred_final, boundary_pred, pseudo, conf, edges_path, image_path,
             beta1, beta2, lambda1, lambda2, grad_prefix, report_path):
    """Evaluate all loss terms on saved predictions; emit a JSON breakdown."""
    with stage("loss"):
        ab = losses.AbParams(lambda1, lambda2)
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
        with _refusal_names(pseudo):
            mask = LabelVolume(mask.data, mask.spacing, probs_init.channels)
        pl = PseudoLabels(mask, on_grid(conf, "binary"))
        static_edges = on_grid(edges_path, "binary")
        report = losses.total_loss(boundary, static_edges, probs_init, probs_final, pl, image,
                                   ab=ab, weights=weights)
        _write_json(report.terms, report_path)
        if grad_prefix:
            for name, head in _heads(image.spacing, f"{grad_prefix}_grad_boundary", f"{grad_prefix}_grad",
                                     report.grad_boundary, report.grad_init, report.grad_final):
                write_nifti(head, f"{name}.nii")
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
        _write_json(report.to_dict(), report_path)
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


def _artifacts(cfg: dict, num_classes: int) -> dict:
    """What ``run_pipeline`` writes for merged ``cfg`` at ``num_classes``: name -> file, in order."""
    heads = [f"mask_{tag}_c{c}.nii" for tag in ("init", "final") for c in range(num_classes)]
    rows = [(["scribbles.nii"], not cfg["scribbles"]),  # files, whether this config writes them
            (["supervoxels.nii", "pseudo_mask.nii", "confidence.nii", "edges.nii"], True),
            (["boundary_pred.nii", *heads, "loss.json"], cfg["forward"]), (["eval.json"], bool(cfg["gt"]))]
    return {Path(f).stem: f for files, written in rows if written for f in files}


def run_pipeline(cfg: dict, echo=click.echo) -> dict:
    """Execute slic -> propagate -> edges -> (forward) -> loss/eval.

    Writes to ``output_dir``, in ``_artifacts``' order: ``scribbles.nii`` if simulated from ``gt``;
    ``supervoxels``, ``pseudo_mask``, ``confidence`` and ``edges`` ``.nii`` always; with ``forward``
    ``boundary_pred.nii``, ``mask_{init,final}_c{c}.nii`` per class and ``loss.json``; with ``gt``
    ``eval.json``. Last, ``manifest.json`` records the full effective config and each artifact's
    sha256, and is returned; before it, any other file of the table at 255 classes with every row
    on is removed unless it is an input, so a reused ``output_dir`` holds no earlier run's leftovers.
    Stage ``config`` refuses an input at any of these paths. Raises PipelineStageError naming the
    stage that failed.
    """
    with stage("config"):
        cfg = _merge_config(cfg)
        for key in ("image", "scribbles", "gt", "edges_input", "output_dir"):
            if cfg[key] is not None and not (isinstance(cfg[key], str) and cfg[key]):
                raise InvalidConfigError(f"{key} must be a non-empty path or null, got {cfg[key]!r}")
        if not cfg["image"] or not cfg["output_dir"]:
            raise ScribsupError("config must set 'image' and 'output_dir'")
        for key in ("image", "scribbles", "gt", "edges_input"):
            if cfg[key] and not Path(cfg[key]).exists():
                raise ScribsupError(f"input path for {key!r} does not exist: {cfg[key]}")
        if not cfg["scribbles"] and not cfg["gt"]:
            raise ScribsupError("need either 'scribbles' or 'gt' (to simulate them)")
        label_propagation._check_edge_threshold(cfg["edge_threshold"])
        check_setting("margin_vox", cfg["margin_vox"], 1, integer=True)
        # only an integer 0 is inferred from the scribbles later; any other count is checked here
        check_setting("num_classes (0 infers it)", cfg["num_classes"], 0, integer=True)
        if not cfg["scribbles"]:  # the simulated scribbles are written below the sentinel
            scribble_sim._check_class_count(cfg["num_classes"], "num_classes")
        if not isinstance(cfg["forward"], bool):  # a string "false" would read as on
            raise InvalidConfigError(f"forward must be true or false, got {cfg['forward']!r}")
        # the forward stage runs this config with the scribbles' class count
        net_cfg = refnet.NetConfig(2 if cfg["num_classes"] == 0 else cfg["num_classes"],
                                   cfg["forward_base_filters"], seed=cfg["seed"])
        net_cfg.check_patch_shape(cfg["patch_shape"])
        patch_shape = tuple(cfg["patch_shape"])
        ab, weights = losses.AbParams(**cfg["ab"]), losses.TotalLossWeights(**cfg["weights"])
        out_dir = Path(cfg["output_dir"])
        files = _artifacts(cfg, cfg["num_classes"] or 255)  # inferred: below the 255 sentinel
        inputs = {key: Path(cfg[key]).resolve() for key in ("image", "scribbles", "gt", "edges_input")
                  if cfg[key]}
        for key, path in inputs.items():  # an input at a file this run writes: named, then overwritten
            if path.parent == out_dir.resolve() and path.name in {*files.values(), _MANIFEST}:
                raise InvalidConfigError(f"input path for {key!r} is written by this run: {cfg[key]}")
        out_dir.mkdir(parents=True, exist_ok=True)
    artifacts = []

    def write(obj, name: str):  # a name the table lacks raises KeyError; ``write_nifti`` is the
        path = out_dir / files[name]  # module global at each call, so a tracer can rebind it
        (write_nifti if path.suffix == ".nii" else _write_json)(obj, path)
        artifacts.append({"name": name, "path": str(path),
                          "sha256": hashlib.sha256(path.read_bytes()).hexdigest()})

    with stage("read"):
        image = read_nifti(cfg["image"], kind="image")
        slic_params = _slic_params(image, **cfg["slic"])  # bad settings fail before any compute
        gt, scribble_vol = (
            _read_on_grid(cfg[key], "labels", image, cfg["image"]) if cfg[key] else None
            for key in ("gt", "scribbles")
        )
        if gt is not None and cfg["num_classes"]:  # a class above the count fails before compute
            with _refusal_names(cfg["gt"]):
                gt = LabelVolume(gt.data, gt.spacing, cfg["num_classes"])
        if scribble_vol is None:  # an inferred class count fails here too, naming the file
            scribble_sim._check_class_count(gt.num_classes, f"{cfg['gt']}: class count")
        edges_in = (_read_edge_probs(cfg["edges_input"], image, cfg["image"], cfg["edge_threshold"])
                    if cfg["edges_input"] else None)

    with stage("scribbles"):
        if scribble_vol is not None:
            with _refusal_names(cfg["scribbles"]):
                scribbles = scribble_sim.scribbles_from_label_volume(scribble_vol, cfg["num_classes"])
        else:
            scribbles = _simulate_scribbles(gt, cfg["margin_vox"])
            write(scribble_sim.scribbles_to_label_volume(scribbles), "scribbles")

    with stage("slic"):
        sv = supervoxel.slic3d(image, slic_params)
        write(sv, "supervoxels")

    with stage("propagate"):
        pl = label_propagation.propagate(scribbles, sv)
        write(pl.mask, "pseudo_mask")
        write(pl.confident, "confidence")
        if cfg["forward"]:  # the loss supervises the centre patch only: refuse an empty one now
            pl_patch = PseudoLabels(*(crop_or_pad(v, patch_shape) for v in (pl.mask, pl.confident)))
            if not pl_patch.confident.data.any():
                raise NoConfidentVoxelsError(f"no confident voxels in the centre patch {patch_shape}")

    with stage("edges"):
        edge_vol = edges_in or label_propagation.static_boundary(image, cfg["edge_threshold"])
        write(edge_vol, "edges")

    if cfg["forward"]:
        with stage("forward"):
            patch = crop_or_pad(image, patch_shape)
            net = refnet.build(replace(net_cfg, num_classes=scribbles.num_classes))
            outputs = refnet.forward(net, patch)
            for name, head in _heads(patch.spacing, "boundary_pred", "mask", outputs.boundary.data,
                                     outputs.mask_init.data, outputs.mask_final.data):
                write(head, name)

        with stage("loss"):
            write(losses.total_loss(outputs.boundary, crop_or_pad(edge_vol, patch_shape),
                                    outputs.mask_init, outputs.mask_final, pl_patch, patch,
                                    ab=ab, weights=weights).terms, "loss")

    if gt is not None:
        with stage("eval"):
            write(metrics.evaluate(pl.mask, gt).to_dict(), "eval")

    with stage("manifest"):
        written = {a["path"] for a in artifacts}  # any other file some config writes is an earlier
        for file in _artifacts({**cfg, "scribbles": None, "gt": True, "forward": True}, 255).values():
            path = out_dir / file  # run's, and goes unless it is one of this run's inputs
            if str(path) not in written and path.is_file() and path.resolve() not in inputs.values():
                path.unlink()
        manifest = {"config": cfg, "artifacts": artifacts}
        _write_json(manifest, out_dir / _MANIFEST)
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

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from conftest import sphere_labels
from scribsup import cli, scribble_sim, supervoxel
from scribsup.cli import main, run_pipeline, PipelineStageError
from scribsup.errors import BadPatchShapeError, InvalidConfigError, ScribsupError, ShapeMismatchError
from scribsup.volume_io import BinaryVolume, LabelVolume, Volume, read_nifti, write_nifti


@pytest.fixture
def runner():
    return CliRunner()


def _phantom(tmp_path, shape=(32, 32, 8), spacing=(1.0, 1.0, 4.0)):
    """Sphere phantom: bright ball on a dark background plus its gt mask."""
    gt = sphere_labels(shape, tuple(s // 2 for s in shape), 9.0, spacing)
    rng = np.random.default_rng(99)
    img = 0.2 + 0.6 * gt.astype(np.float32) + 0.02 * rng.random(shape).astype(np.float32)
    img_path = tmp_path / "image.nii"
    gt_path = tmp_path / "gt.nii"
    write_nifti(Volume(img, spacing), img_path)
    write_nifti(LabelVolume(gt, spacing, 2), gt_path)
    return img_path, gt_path


def test_slic_command_writes_id_map(tmp_path, runner):
    img_path, _ = _phantom(tmp_path)
    out = tmp_path / "sv.nii"
    result = runner.invoke(
        main, ["slic", "--input", str(img_path), "--k", "16", "--output", str(out)]
    )
    assert result.exit_code == 0, result.output
    sv = read_nifti(out, kind="labels")
    assert sv.shape == (32, 32, 8)
    counts = np.bincount(sv.data.ravel())
    assert (counts > 0).all()


def test_simulate_propagate_edges_eval_chain(tmp_path, runner):
    img_path, gt_path = _phantom(tmp_path)
    scrib = tmp_path / "scrib.nii"
    sv = tmp_path / "sv.nii"
    mask = tmp_path / "mask.nii"
    conf = tmp_path / "conf.nii"
    edges = tmp_path / "edges.nii"
    report = tmp_path / "eval.json"

    for args in (
        ["simulate-scribbles", "--gt", str(gt_path), "--margin", "3", "--output", str(scrib)],
        ["slic", "--input", str(img_path), "--k", "24", "--output", str(sv)],
        ["propagate", "--scribbles", str(scrib), "--supervoxels", str(sv),
         "--output-mask", str(mask), "--output-conf", str(conf)],
        ["edges", "--input", str(img_path), "--threshold", "0.2", "--output", str(edges)],
        ["eval", "--pred", str(mask), "--gt", str(gt_path), "--report", str(report)],
    ):
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 0, f"{args}: {result.output}"

    payload = json.loads(report.read_text())
    assert set(payload) == {"classes", "mean", "undefined"}
    assert payload["classes"][0]["class_id"] == 1
    assert 0.0 <= payload["classes"][0]["dice"] <= 1.0


def test_forward_and_loss_commands(tmp_path, runner):
    img_path, gt_path = _phantom(tmp_path, shape=(16, 16, 4))
    prefix = str(tmp_path / "run")
    result = runner.invoke(
        main,
        ["forward", "--input", str(img_path), "--classes", "2", "--seed", "3",
         "--base-filters", "2", "--out-prefix", prefix],
    )
    assert result.exit_code == 0, result.output
    summary = json.loads((tmp_path / "run_summary.json").read_text())
    assert summary["param_count"] > 0
    assert len(summary["mask_init"]) == 2

    scrib = tmp_path / "scrib.nii"
    sv = tmp_path / "sv.nii"
    mask = tmp_path / "mask.nii"
    conf = tmp_path / "conf.nii"
    edges = tmp_path / "edges.nii"
    for args in (
        ["simulate-scribbles", "--gt", str(gt_path), "--margin", "2", "--output", str(scrib)],
        ["slic", "--input", str(img_path), "--k", "8", "--output", str(sv)],
        ["propagate", "--scribbles", str(scrib), "--supervoxels", str(sv),
         "--classes", "2", "--output-mask", str(mask), "--output-conf", str(conf)],
        ["edges", "--input", str(img_path), "--output", str(edges)],
    ):
        assert CliRunner().invoke(main, args).exit_code == 0

    report = tmp_path / "loss.json"
    args = ["loss", "--boundary-pred", f"{prefix}_boundary.nii",
            "--pseudo", str(mask), "--conf", str(conf), "--edges", str(edges),
            "--image", str(img_path), "--report", str(report)]
    for c in range(2):
        args += ["--pred-init", f"{prefix}_init_c{c}.nii"]
        args += ["--pred-final", f"{prefix}_final_c{c}.nii"]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    payload = json.loads(report.read_text())
    assert {"l_bry", "l_seg_init", "l_seg_final", "l_ab", "total"} <= set(payload)
    assert payload["beta1"] == 0.3 and payload["lambda2"] == 0.1


def test_edges_precomputed_volume(tmp_path, runner):
    img_path, _ = _phantom(tmp_path, shape=(8, 8, 2))
    pre = tmp_path / "pre.nii"
    probs = np.zeros((8, 8, 2), dtype=np.float32)
    probs[4, :, :] = 0.9
    write_nifti(Volume(probs, (1.0, 1.0, 4.0)), pre)
    out = tmp_path / "edges.nii"
    result = runner.invoke(
        main, ["edges", "--input", str(img_path), "--edges", str(pre),
               "--threshold", "0.5", "--output", str(out)]
    )
    assert result.exit_code == 0, result.output
    edges = read_nifti(out, kind="binary")
    assert np.array_equal(np.unique(np.nonzero(edges.data)[0]), [4])


def test_pipeline_end_to_end_and_determinism(tmp_path):
    img_path, gt_path = _phantom(tmp_path)
    cfgs = []
    for run in ("a", "b"):
        cfgs.append({
            "image": str(img_path),
            "gt": str(gt_path),
            "output_dir": str(tmp_path / run),
            "slic": {"k": 24},
            "margin_vox": 3,
        })
    manifests = [run_pipeline(cfg, echo=lambda *_: None) for cfg in cfgs]
    names = [a["name"] for a in manifests[0]["artifacts"]]
    assert names == ["scribbles", "supervoxels", "pseudo_mask", "confidence", "edges", "eval"]
    for art in manifests[0]["artifacts"]:
        if art["path"].endswith(".nii"):
            assert read_nifti(art["path"]) is not None
        else:
            json.loads(Path(art["path"]).read_text())
    hashes = [
        {a["name"]: a["sha256"] for a in m["artifacts"]} for m in manifests
    ]
    assert hashes[0] == hashes[1]
    # paper defaults echoed verbatim
    cfg = manifests[0]["config"]
    assert cfg["ab"]["lambda1"] == 1.0 and cfg["ab"]["lambda2"] == 0.1
    assert cfg["weights"]["beta1"] == 0.3 and cfg["weights"]["beta2"] == 0.3
    assert cfg["patch_shape"] == [224, 224, 32]
    assert cfg["edge_threshold"] == 0.2


def test_pipeline_missing_input_fails_with_stage(tmp_path, runner):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "image": str(tmp_path / "nope.nii"),
        "gt": None,
        "scribbles": None,
        "output_dir": str(tmp_path / "out"),
    }))
    result = runner.invoke(main, ["pipeline", "--config", str(cfg_path)])
    assert result.exit_code != 0
    assert "stage 'config'" in result.output


def test_pipeline_rejects_unknown_keys(tmp_path):
    with pytest.raises(PipelineStageError):
        run_pipeline({"image": "x.nii", "output_dir": "y", "bogus": 1})


def test_pipeline_with_forward(tmp_path):
    img_path, gt_path = _phantom(tmp_path, shape=(16, 16, 4))
    cfg = {
        "image": str(img_path),
        "gt": str(gt_path),
        "output_dir": str(tmp_path / "out"),
        "slic": {"k": 8},
        "margin_vox": 2,
        "patch_shape": [16, 16, 4],
        "forward": True,
        "forward_base_filters": 2,
    }
    manifest = run_pipeline(cfg, echo=lambda *_: None)
    names = {a["name"] for a in manifest["artifacts"]}
    assert {"boundary_pred", "loss", "eval"} <= names
    loss_art = next(a for a in manifest["artifacts"] if a["name"] == "loss")
    payload = json.loads(Path(loss_art["path"]).read_text())
    assert np.isfinite(payload["total"])


def test_subcommands_and_pipeline_write_identical_artifacts(tmp_path, runner):
    img_path, gt_path = _phantom(tmp_path)
    manifest = run_pipeline(
        {"image": str(img_path), "gt": str(gt_path), "output_dir": str(tmp_path / "pipe"),
         "slic": {"k": 24, "compactness": 8.0, "iterations": 6}, "edge_threshold": 0.3,
         "margin_vox": 3},
        echo=lambda *_: None,
    )
    want = {a["name"]: a["sha256"] for a in manifest["artifacts"]}
    out = {name: tmp_path / f"cmd_{name}" for name in
           ("scribbles", "supervoxels", "pseudo_mask", "confidence", "edges", "eval")}
    for args in (
        ["simulate-scribbles", "--gt", gt_path, "--margin", "3", "--output", out["scribbles"]],
        ["slic", "--input", img_path, "--k", "24", "--compactness", "8", "--iters", "6",
         "--output", out["supervoxels"]],
        ["propagate", "--scribbles", out["scribbles"], "--supervoxels", out["supervoxels"],
         "--output-mask", out["pseudo_mask"], "--output-conf", out["confidence"]],
        ["edges", "--input", img_path, "--threshold", "0.3", "--output", out["edges"]],
        ["eval", "--pred", out["pseudo_mask"], "--gt", gt_path, "--report", out["eval"]],
    ):
        result = runner.invoke(main, [str(a) for a in args])
        assert result.exit_code == 0, f"{args}: {result.output}"
    got = {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in out.items()}
    assert got == want


def _write_edges(tmp_path, shape):
    path = tmp_path / "pre.nii"
    write_nifti(Volume(np.full(shape, 0.5, dtype=np.float32), (1.0, 1.0, 4.0)), path)
    return path


def test_precomputed_edges_on_another_grid_are_rejected(tmp_path, runner):
    img_path, gt_path = _phantom(tmp_path, shape=(16, 16, 4))
    pre = _write_edges(tmp_path, (20, 12, 4))
    result = runner.invoke(main, ["edges", "--input", str(img_path), "--edges", str(pre),
                                  "--output", str(tmp_path / "e.nii")])
    assert result.exit_code == 1
    assert "error in stage 'edges'" in result.output and str(pre) in result.output
    with pytest.raises(PipelineStageError) as info:
        run_pipeline({"image": str(img_path), "gt": str(gt_path), "edges_input": str(pre),
                      "output_dir": str(tmp_path / "out"), "forward": True,
                      "patch_shape": [16, 16, 4]})
    assert isinstance(info.value.cause, ShapeMismatchError)
    assert str(pre) in str(info.value)


def test_precomputed_edges_threshold_must_lie_in_unit_interval(tmp_path, runner):
    img_path, gt_path = _phantom(tmp_path, shape=(16, 16, 4))
    pre = _write_edges(tmp_path, (16, 16, 4))
    result = runner.invoke(main, ["edges", "--input", str(img_path), "--edges", str(pre),
                                  "--threshold", "5.0", "--output", str(tmp_path / "e.nii")])
    assert result.exit_code == 1
    assert "error in stage 'edges'" in result.output
    with pytest.raises(PipelineStageError) as info:
        run_pipeline({"image": str(img_path), "gt": str(gt_path), "edges_input": str(pre),
                      "edge_threshold": 5.0, "output_dir": str(tmp_path / "out")},
                     echo=lambda *_: None)
    assert info.value.stage == "config"


def _write_intensities(tmp_path, shape):
    """A float32 volume of raw intensities in [0, 1000], not edge probabilities."""
    path = tmp_path / "intensities.nii"
    data = np.random.default_rng(3).uniform(0.0, 1000.0, shape).astype(np.float32)
    write_nifti(Volume(data, (1.0, 1.0, 4.0)), path)
    return path


def test_edges_command_refuses_precomputed_values_outside_unit_interval(tmp_path, runner):
    img_path, _ = _phantom(tmp_path, shape=(16, 16, 4))
    pre, out = _write_intensities(tmp_path, (16, 16, 4)), tmp_path / "e.nii"
    result = runner.invoke(main, ["edges", "--input", str(img_path), "--edges", str(pre),
                                  "--output", str(out)])
    assert result.exit_code == 1
    assert "error in stage 'edges'" in result.output and str(pre) in result.output
    assert "probabilities must lie in [0, 1]" in result.output
    assert not out.exists()


def test_pipeline_refuses_precomputed_edge_values_in_read_before_any_compute(tmp_path, monkeypatch):
    img_path, gt_path = _phantom(tmp_path, shape=(16, 16, 4))
    pre = _write_intensities(tmp_path, (16, 16, 4))

    def no_compute(*args, **kwargs):
        raise AssertionError("compute ran before the edge volume was checked")

    monkeypatch.setattr(supervoxel, "slic3d", no_compute)
    monkeypatch.setattr(scribble_sim, "simulate_foreground_scribbles", no_compute)
    with pytest.raises(PipelineStageError) as info:
        run_pipeline({"image": str(img_path), "gt": str(gt_path), "edges_input": str(pre),
                      "output_dir": str(tmp_path / "out")}, echo=lambda *_: None)
    assert info.value.stage == "read"
    assert isinstance(info.value.cause, ScribsupError)
    assert str(pre) in str(info.value) and "probabilities must lie in [0, 1]" in str(info.value)


def test_precomputed_edges_are_thresholded_as_float32(tmp_path, runner):
    """float32(0.7) lies below the float64 0.7; the threshold compares in float32 and keeps it."""
    img_path, _ = _phantom(tmp_path, shape=(8, 8, 2))
    pre, out = tmp_path / "pre.nii", tmp_path / "edges.nii"
    probs = np.zeros((8, 8, 2), dtype=np.float32)
    probs[3, :, :] = 0.7
    probs[5, :, :] = np.nextafter(np.float32(0.7), np.float32(0))
    write_nifti(Volume(probs, (1.0, 1.0, 4.0)), pre)
    result = runner.invoke(main, ["edges", "--input", str(img_path), "--edges", str(pre),
                                  "--threshold", "0.7", "--output", str(out)])
    assert result.exit_code == 0, result.output
    assert np.array_equal(read_nifti(out, kind="binary").data, (probs == probs[3, 0, 0]))


@pytest.mark.parametrize("setting, cause", [
    ({"patch_shape": [24, 16, 4]}, BadPatchShapeError),
    ({"forward_base_filters": 0}, InvalidConfigError),
    ({"edge_threshold": 0.0}, ValueError),
    ({"ab": {"lambda1": -1}}, ValueError),
    ({"weights": {"beta2": -1}}, ValueError),
    ({"ab": {"lambda1": float("nan")}}, InvalidConfigError),
    ({"ab": {"epsilon": float("inf")}}, InvalidConfigError),
    ({"ab": {"lambda2": True}}, InvalidConfigError),
    ({"weights": {"beta1": float("inf")}}, InvalidConfigError),
    ({"forward_base_filters": 2.5}, InvalidConfigError),
    ({"forward_base_filters": True}, InvalidConfigError),
], ids=["patch_shape", "base_filters", "edge_threshold", "ab_lambda1", "weights_beta2",
        "nan_lambda1", "inf_epsilon", "bool_lambda2", "inf_beta1", "fractional_base_filters",
        "bool_base_filters"])
def test_forward_and_edge_settings_fail_in_config_before_any_compute(
        tmp_path, monkeypatch, setting, cause):
    img_path, gt_path = _phantom(tmp_path, shape=(16, 16, 4))

    def no_compute(*args, **kwargs):
        raise AssertionError("compute ran before the settings were checked")

    monkeypatch.setattr(supervoxel, "slic3d", no_compute)
    monkeypatch.setattr(scribble_sim, "simulate_foreground_scribbles", no_compute)
    cfg = {"image": str(img_path), "gt": str(gt_path), "output_dir": str(tmp_path / "out"),
           "forward": True, "patch_shape": [16, 16, 4], **setting}
    with pytest.raises(PipelineStageError) as info:
        run_pipeline(cfg, echo=lambda *_: None)
    assert info.value.stage == "config"
    assert isinstance(info.value.cause, cause)


@pytest.mark.parametrize("k, limit", [(40000, cli._MAX_INT16_ID), (None, 0)],
                         ids=["given_k", "default_k"])
def test_oversized_k_fails_before_slic(tmp_path, monkeypatch, runner, k, limit):
    img_path, gt_path = _phantom(tmp_path, shape=(16, 16, 4))

    def no_compute(*args, **kwargs):
        raise AssertionError("compute ran before k was checked")

    monkeypatch.setattr(supervoxel, "slic3d", no_compute)
    monkeypatch.setattr(scribble_sim, "simulate_foreground_scribbles", no_compute)
    # the default k of a 1024-voxel image is 1, so a limit of 0 stands in for a huge volume
    monkeypatch.setattr(cli, "_MAX_INT16_ID", limit)
    args = ["slic", "--input", str(img_path), "--output", str(tmp_path / "sv.nii")]
    result = runner.invoke(main, args + (["--k", str(k)] if k else []))
    assert result.exit_code == 1
    assert "error in stage 'slic'" in result.output and "int16 NIfTI limit" in result.output
    with pytest.raises(PipelineStageError) as info:
        run_pipeline({"image": str(img_path), "gt": str(gt_path), "slic": {"k": k},
                      "output_dir": str(tmp_path / "out")}, echo=lambda *_: None)
    assert info.value.stage == "read"
    assert "int16 NIfTI limit" in str(info.value)


@pytest.mark.parametrize("slic", [
    {"compactness": -1}, {"k": -3}, {"iterations": 0},
    {"k": 10.7}, {"k": True}, {"iterations": True}, {"iterations": 2.5},
    {"compactness": float("nan")}, {"compactness": "10"}, {"k": "10"}, {"k": 0}, {"k": False},
], ids=["compactness", "k", "iterations", "fractional_k", "bool_k", "bool_iterations",
        "fractional_iterations", "nan_compactness", "string_compactness", "string_k", "zero_k",
        "false_k"])
def test_slic_settings_fail_in_read_before_any_compute(tmp_path, monkeypatch, slic):
    img_path, gt_path = _phantom(tmp_path, shape=(16, 16, 4))

    def no_compute(*args, **kwargs):
        raise AssertionError("compute ran before the SLIC settings were checked")

    monkeypatch.setattr(supervoxel, "slic3d", no_compute)
    monkeypatch.setattr(scribble_sim, "simulate_foreground_scribbles", no_compute)
    with pytest.raises(PipelineStageError) as info:
        run_pipeline({"image": str(img_path), "gt": str(gt_path), "slic": slic,
                      "output_dir": str(tmp_path / "out")}, echo=lambda *_: None)
    assert info.value.stage == "read"
    assert isinstance(info.value.cause, ValueError)


def test_config_section_must_be_an_object(tmp_path):
    img_path, gt_path = _phantom(tmp_path, shape=(16, 16, 4))
    with pytest.raises(PipelineStageError, match="'slic' must be an object") as info:
        run_pipeline({"image": str(img_path), "gt": str(gt_path), "slic": 5,
                      "output_dir": str(tmp_path / "out")}, echo=lambda *_: None)
    assert info.value.stage == "config"
    assert type(info.value.cause) is ScribsupError



@pytest.mark.parametrize("setting", [
    {"seed": -1}, {"seed": 1.5}, {"margin_vox": 0}, {"num_classes": 1}, {"num_classes": -2},
    {"margin_vox": True}, {"margin_vox": 2.5},
], ids=["negative_seed", "fractional_seed", "margin_vox", "num_classes_1", "num_classes_-2",
        "bool_margin_vox", "fractional_margin_vox"])
def test_run_settings_fail_in_config_before_any_compute(tmp_path, monkeypatch, setting):
    img_path, gt_path = _phantom(tmp_path, shape=(16, 16, 4))

    def no_compute(*args, **kwargs):
        raise AssertionError("compute ran before the settings were checked")

    monkeypatch.setattr(supervoxel, "slic3d", no_compute)
    monkeypatch.setattr(scribble_sim, "simulate_foreground_scribbles", no_compute)
    cfg = {"image": str(img_path), "gt": str(gt_path), "output_dir": str(tmp_path / "out"),
           **setting}
    with pytest.raises(PipelineStageError) as info:
        run_pipeline(cfg, echo=lambda *_: None)
    assert info.value.stage == "config"
    assert isinstance(info.value.cause, InvalidConfigError)
    assert next(iter(setting)) in str(info.value)


def test_config_document_must_be_an_object(tmp_path, monkeypatch):
    def no_compute(*args, **kwargs):
        raise AssertionError("compute ran before the config was checked")

    monkeypatch.setattr(supervoxel, "slic3d", no_compute)
    monkeypatch.setattr(scribble_sim, "simulate_foreground_scribbles", no_compute)
    with pytest.raises(PipelineStageError, match="must be a JSON object, got list") as info:
        run_pipeline([1], echo=lambda *_: None)
    assert info.value.stage == "config"
    assert type(info.value.cause) is ScribsupError

@pytest.mark.parametrize("key", ["gt", "scribbles"])
def test_input_on_another_grid_fails_in_read_before_any_compute(tmp_path, monkeypatch, key):
    img_path, _ = _phantom(tmp_path, shape=(16, 16, 4))
    other = tmp_path / "other.nii"
    write_nifti(LabelVolume(np.ones((16, 12, 4), dtype=np.uint16), (1.0, 1.0, 4.0), 2), other)

    def no_compute(*args, **kwargs):
        raise AssertionError("compute ran before the input grids were checked")

    monkeypatch.setattr(supervoxel, "slic3d", no_compute)
    monkeypatch.setattr(scribble_sim, "simulate_foreground_scribbles", no_compute)
    with pytest.raises(PipelineStageError) as info:
        run_pipeline({"image": str(img_path), key: str(other), "output_dir": str(tmp_path / "out")})
    assert info.value.stage == "read"
    assert isinstance(info.value.cause, ShapeMismatchError)
    assert str(other) in str(info.value)


def test_pipeline_file_io_goes_through_cli_module_attributes(tmp_path, monkeypatch):
    """The benchmark tracer times I/O by rebinding ``cli.read_nifti``/``cli.write_nifti``."""
    img_path, gt_path = _phantom(tmp_path, shape=(16, 16, 4))
    read, written = [], []

    def counting(fn, log, path_arg):
        def wrapper(*args, **kwargs):
            log.append(str(args[path_arg]))
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli, "read_nifti", counting(cli.read_nifti, read, 0))
    monkeypatch.setattr(cli, "write_nifti", counting(cli.write_nifti, written, 1))
    manifest = run_pipeline(
        {"image": str(img_path), "gt": str(gt_path), "output_dir": str(tmp_path / "out"),
         "slic": {"k": 8}, "margin_vox": 2, "patch_shape": [16, 16, 4], "forward": True,
         "forward_base_filters": 2},
        echo=lambda *_: None,
    )
    nii = [a["path"] for a in manifest["artifacts"] if a["path"].endswith(".nii")]
    assert len(nii) == 10  # scribbles .. edges, boundary_pred, 2 x 2 mask channels
    assert written == nii
    assert read == [str(img_path), str(gt_path)]


# An input whose shape matches but whose pixdim does not lies on another grid:
# HD95 and the active-boundary terms would be measured in the wrong millimetres.
_OFF_SPACING = (2.0, 2.0, 8.0)


@pytest.mark.parametrize("key, kind", [("gt", "labels"), ("scribbles", "labels"),
                                       ("edges_input", "image")])
def test_input_at_another_spacing_fails_in_read_before_any_compute(tmp_path, monkeypatch, key, kind):
    img_path, gt_path = _phantom(tmp_path, shape=(16, 16, 4))
    other = tmp_path / "other.nii"
    data = np.ones((16, 16, 4), dtype=np.float32)
    write_nifti(Volume(data, _OFF_SPACING) if kind == "image"
                else LabelVolume(data.astype(np.uint16), _OFF_SPACING, 2), other)

    def no_compute(*args, **kwargs):
        raise AssertionError("compute ran before the input grids were checked")

    monkeypatch.setattr(supervoxel, "slic3d", no_compute)
    monkeypatch.setattr(scribble_sim, "simulate_foreground_scribbles", no_compute)
    cfg = {"image": str(img_path), "gt": str(gt_path), "output_dir": str(tmp_path / "out"),
           key: str(other)}
    with pytest.raises(PipelineStageError) as info:
        run_pipeline(cfg, echo=lambda *_: None)
    assert info.value.stage == "read"
    assert isinstance(info.value.cause, ShapeMismatchError)
    assert str(other) in str(info.value) and "(2.0, 2.0, 8.0)" in str(info.value)


def test_precomputed_edges_at_another_spacing_are_rejected(tmp_path, runner):
    img_path, _ = _phantom(tmp_path, shape=(16, 16, 4))
    pre = tmp_path / "pre.nii"
    write_nifti(Volume(np.full((16, 16, 4), 0.5, dtype=np.float32), _OFF_SPACING), pre)
    result = runner.invoke(main, ["edges", "--input", str(img_path), "--edges", str(pre),
                                  "--output", str(tmp_path / "e.nii")])
    assert result.exit_code == 1
    assert "error in stage 'edges'" in result.output and str(pre) in result.output


def test_eval_prediction_at_another_spacing_is_rejected(tmp_path, runner):
    _, gt_path = _phantom(tmp_path, shape=(16, 16, 4))
    pred = tmp_path / "pred.nii"
    gt = read_nifti(gt_path, kind="labels")
    write_nifti(LabelVolume(gt.data, _OFF_SPACING, 2), pred)
    report = tmp_path / "eval.json"
    result = runner.invoke(main, ["eval", "--pred", str(pred), "--gt", str(gt_path),
                                  "--report", str(report)])
    assert result.exit_code == 1
    assert "error in stage 'eval'" in result.output and str(pred) in result.output
    assert not report.exists()


def test_propagate_supervoxels_at_another_spacing_are_rejected(tmp_path, runner):
    scrib, sv = tmp_path / "scrib.nii", tmp_path / "sv.nii"
    labels = np.full((8, 8, 2), 255, dtype=np.uint16)
    labels[2, 2, 0], labels[6, 6, 1] = 0, 1
    write_nifti(LabelVolume(labels, (1.0, 1.0, 4.0), 256), scrib)
    write_nifti(LabelVolume(np.zeros((8, 8, 2), dtype=np.uint16), _OFF_SPACING, 2), sv)
    result = runner.invoke(main, ["propagate", "--scribbles", str(scrib), "--supervoxels", str(sv),
                                  "--output-mask", str(tmp_path / "m.nii"),
                                  "--output-conf", str(tmp_path / "c.nii")])
    assert result.exit_code == 1
    assert "error in stage 'propagate'" in result.output and str(sv) in result.output


def test_propagate_refuses_a_negative_class_count(tmp_path, runner):
    scrib, sv = tmp_path / "scrib.nii", tmp_path / "sv.nii"
    labels = np.full((8, 8, 2), 255, dtype=np.uint16)
    labels[2, 2, 0], labels[6, 6, 1] = 0, 1
    write_nifti(LabelVolume(labels, (1.0, 1.0, 4.0), 256), scrib)
    write_nifti(LabelVolume(np.zeros((8, 8, 2), dtype=np.uint16), (1.0, 1.0, 4.0), 2), sv)
    result = runner.invoke(main, ["propagate", "--scribbles", str(scrib), "--supervoxels", str(sv),
                                  "--classes", "-3", "--output-mask", str(tmp_path / "m.nii"),
                                  "--output-conf", str(tmp_path / "c.nii")])
    assert result.exit_code == 1
    assert "error in stage 'propagate'" in result.output and "num_classes" in result.output
    assert not (tmp_path / "m.nii").exists()


def test_loss_settings_fail_before_any_file_is_read(tmp_path, runner):
    # an empty file fails any read, so only a settings check can produce this error
    empty = tmp_path / "empty.nii"
    empty.touch()
    report = tmp_path / "loss.json"
    args = ["loss", "--beta1", "nan", "--report", str(report)]
    for flag in ("--pred-init", "--pred-final", "--boundary-pred", "--pseudo", "--conf",
                 "--edges", "--image"):
        args += [flag, str(empty)]
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert "error in stage 'loss'" in result.output and "beta1" in result.output
    assert not report.exists()


def test_propagate_names_a_supervoxel_file_with_a_missing_id(tmp_path, runner):
    scrib, sv = tmp_path / "scrib.nii", tmp_path / "sv.nii"
    labels = np.full((8, 8, 2), 255, dtype=np.uint16)
    labels[2, 2, 0], labels[6, 6, 1] = 0, 1
    write_nifti(LabelVolume(labels, (1.0, 1.0, 4.0), 256), scrib)
    ids = np.zeros((8, 8, 2), dtype=np.uint16)
    ids[4:] = 2  # id 1 never occurs
    write_nifti(LabelVolume(ids, (1.0, 1.0, 4.0), 3), sv)
    result = runner.invoke(main, ["propagate", "--scribbles", str(scrib), "--supervoxels", str(sv),
                                  "--output-mask", str(tmp_path / "m.nii"),
                                  "--output-conf", str(tmp_path / "c.nii")])
    assert result.exit_code == 1
    assert "error in stage 'propagate'" in result.output and str(sv) in result.output
    assert "every supervoxel id must occur at least once" in result.output
    assert not (tmp_path / "m.nii").exists()


@pytest.mark.parametrize("bad, message", [
    ("pred_init", "probabilities must lie in [0, 1]"),
    ("boundary", "probabilities must lie in [0, 1]"),
    ("pseudo", "labels must be below 2"),
], ids=["pred_init", "boundary", "pseudo"])
def test_loss_names_a_file_whose_values_are_refused(tmp_path, runner, bad, message):
    shape, spacing = (8, 8, 2), (1.0, 1.0, 4.0)
    img_path, _ = _phantom(tmp_path, shape=shape)
    pseudo = np.zeros(shape, dtype=np.uint16)
    pseudo[:4] = 2 if bad == "pseudo" else 1  # class 2 with two class channels
    raw = np.random.default_rng(3).uniform(0.0, 1000.0, shape).astype(np.float32)
    vols = {
        "pred_init": Volume(raw if bad == "pred_init" else np.full(shape, 0.5, np.float32), spacing),
        "pred_final": Volume(np.full(shape, 0.5, dtype=np.float32), spacing),
        "boundary": Volume(raw if bad == "boundary" else np.full(shape, 0.25, np.float32), spacing),
        "pseudo": LabelVolume(pseudo, spacing, 3),
        "conf": BinaryVolume(np.ones(shape, dtype=np.uint8), spacing),
        "edges": BinaryVolume(np.zeros(shape, dtype=np.uint8), spacing),
    }
    paths = {name: tmp_path / f"{name}.nii" for name in vols}
    for name, vol in vols.items():
        write_nifti(vol, paths[name])
    args = ["loss", "--boundary-pred", paths["boundary"], "--pseudo", paths["pseudo"],
            "--conf", paths["conf"], "--edges", paths["edges"], "--image", img_path,
            "--report", tmp_path / "loss.json"]
    for _ in range(2):  # two class channels from the same file
        args += ["--pred-init", paths["pred_init"], "--pred-final", paths["pred_final"]]
    result = runner.invoke(main, [str(a) for a in args])
    assert result.exit_code == 1
    assert "error in stage 'loss'" in result.output and str(paths[bad]) in result.output
    assert message in result.output
    assert not (tmp_path / "loss.json").exists()


@pytest.mark.parametrize("off", [None, "pred_final", "boundary", "pseudo", "conf", "edges"])
def test_loss_inputs_must_lie_on_the_image_grid(tmp_path, runner, off):
    shape, spacing = (8, 8, 2), (1.0, 1.0, 4.0)
    img_path, _ = _phantom(tmp_path, shape=shape)
    pseudo = np.zeros(shape, dtype=np.uint16)
    pseudo[:4] = 1
    vols = {
        "pred_init": Volume(np.full(shape, 0.5, dtype=np.float32), spacing),
        "pred_final": Volume(np.full(shape, 0.5, dtype=np.float32), spacing),
        "boundary": Volume(np.full(shape, 0.25, dtype=np.float32), spacing),
        "pseudo": LabelVolume(pseudo, spacing, 2),
        "conf": BinaryVolume(np.ones(shape, dtype=np.uint8), spacing),
        "edges": BinaryVolume(np.zeros(shape, dtype=np.uint8), spacing),
    }
    if off:
        vols[off] = dataclasses.replace(vols[off], spacing=_OFF_SPACING)
    paths = {name: tmp_path / f"{name}.nii" for name in vols}
    for name, vol in vols.items():
        write_nifti(vol, paths[name])
    args = ["loss", "--boundary-pred", paths["boundary"], "--pseudo", paths["pseudo"],
            "--conf", paths["conf"], "--edges", paths["edges"], "--image", img_path,
            "--report", tmp_path / "loss.json"]
    for _ in range(2):  # two class channels of 0.5 each, from the same file
        args += ["--pred-init", paths["pred_init"], "--pred-final", paths["pred_final"]]
    result = runner.invoke(main, [str(a) for a in args])
    if off is None:
        assert result.exit_code == 0, result.output
    else:
        assert result.exit_code == 1
        assert "error in stage 'loss'" in result.output and str(paths[off]) in result.output


def test_loss_refuses_nan_prediction_at_an_unsupervised_voxel(tmp_path, runner):
    shape, spacing = (8, 8, 2), (1.0, 1.0, 4.0)
    img_path, _ = _phantom(tmp_path, shape=shape)
    conf = np.ones(shape, dtype=np.uint8)
    conf[7, 7, 1] = 0  # the NaN sits where partial CE never looks
    vols = {
        "half": Volume(np.full(shape, 0.5, dtype=np.float32), spacing),
        "boundary": Volume(np.full(shape, 0.25, dtype=np.float32), spacing),
        "pseudo": LabelVolume(np.zeros(shape, dtype=np.uint16), spacing, 2),
        "conf": BinaryVolume(conf, spacing),
        "edges": BinaryVolume(np.zeros(shape, dtype=np.uint8), spacing),
    }
    paths = {name: tmp_path / f"{name}.nii" for name in vols}
    for name, vol in vols.items():
        write_nifti(vol, paths[name])
    nan_path = tmp_path / "nan.nii"
    raw = bytearray(paths["half"].read_bytes())
    last = 352 + 4 * (int(np.prod(shape)) - 1)  # voxel (7, 7, 1): x runs fastest on disk
    raw[last:last + 4] = np.float32(np.nan).tobytes()
    nan_path.write_bytes(bytes(raw))
    args = ["loss", "--boundary-pred", paths["boundary"], "--pseudo", paths["pseudo"],
            "--conf", paths["conf"], "--edges", paths["edges"], "--image", img_path,
            "--report", tmp_path / "loss.json",
            "--pred-init", nan_path, "--pred-init", paths["half"],
            "--pred-final", paths["half"], "--pred-final", paths["half"]]
    result = runner.invoke(main, [str(a) for a in args])
    assert result.exit_code == 1
    assert "error in stage 'loss'" in result.output and str(nan_path) in result.output
    assert not (tmp_path / "loss.json").exists()

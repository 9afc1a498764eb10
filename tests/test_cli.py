import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from conftest import sphere_labels, traced_peak_volumes
from scribsup import cli, losses, refnet, scribble_sim, supervoxel
from scribsup.cli import main, run_pipeline, PipelineStageError
from scribsup.errors import (
    BadPatchShapeError, InvalidConfigError, KTooLargeError, NoConfidentVoxelsError, ScribsupError,
    ShapeMismatchError,
)
from scribsup.volume_io import (
    BinaryVolume, LabelVolume, ProbVolume, PseudoLabels, Volume, read_nifti, write_nifti,
)


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
    grad_prefix = str(tmp_path / "g")
    args += ["--grad-prefix", grad_prefix]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    payload = json.loads(report.read_text())
    assert {"l_bry", "l_seg_init", "l_seg_final", "l_ab", "total"} <= set(payload)
    assert payload["beta1"] == 0.3 and payload["lambda2"] == 0.1

    # each gradient file is the matching total_loss gradient channel, as float32 on the image grid
    image = read_nifti(img_path, kind="image")

    def probs(paths):
        return ProbVolume(np.stack([read_nifti(p).data for p in paths], axis=-1), image.spacing)

    want = losses.total_loss(
        probs([f"{prefix}_boundary.nii"]), read_nifti(edges, kind="binary"),
        probs([f"{prefix}_init_c{c}.nii" for c in range(2)]),
        probs([f"{prefix}_final_c{c}.nii" for c in range(2)]),
        PseudoLabels(read_nifti(mask, kind="labels"), read_nifti(conf, kind="binary")), image,
    )
    assert payload == want.terms
    expected = {f"{grad_prefix}_grad_boundary.nii": want.grad_boundary[..., 0]}
    for tag, grad in (("init", want.grad_init), ("final", want.grad_final)):
        expected.update({f"{grad_prefix}_grad_{tag}_c{c}.nii": grad[..., c] for c in range(2)})
    assert sorted(str(p) for p in tmp_path.glob("g_*")) == sorted(expected)
    for path, grad in expected.items():
        got = read_nifti(path, kind="image")
        assert (got.shape, got.spacing) == (image.shape, image.spacing)
        assert np.array_equal(got.data, grad.astype(np.float32))


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


def test_precomputed_edges_are_read_within_one_float64_volume(tmp_path):
    """The range test runs on the float32 array as read. A ProbVolume built only to test it
    cast the array to float64 and copied it: 2.50 float64 volumes in all, against 1.00."""
    shape, spacing = (96, 96, 16), (1.25, 1.25, 5.0)
    probs = np.random.default_rng(4).random(shape).astype(np.float32)
    pre = tmp_path / "pre.nii"
    write_nifti(Volume(probs, spacing), pre)
    image = Volume(np.zeros(shape, dtype=np.float32), spacing)
    edges = []
    peak = traced_peak_volumes(lambda: edges.append(cli._read_edge_probs(pre, image, "image.nii", 0.5)),
                               shape)
    assert peak <= 1.05, f"traced peak is {peak:.2f} float64 volumes"
    assert np.array_equal(edges[0].data, probs >= np.float32(0.5))


_FORWARD_SETTINGS = [
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
    ({"patch_shape": "abc"}, InvalidConfigError),
    ({"patch_shape": [16, 16, 4.0]}, InvalidConfigError),
    ({"patch_shape": [True, 32, 8]}, InvalidConfigError),
    ({"patch_shape": [16, 16]}, InvalidConfigError),
    ({"patch_shape": 16}, InvalidConfigError),
    ({"weights": {"beta1": float("nan")}}, InvalidConfigError),
    ({"ab": {"lambda2": float("inf")}}, InvalidConfigError),
]
_FORWARD_SETTING_IDS = [
    "patch_shape", "base_filters", "edge_threshold", "ab_lambda1", "weights_beta2", "nan_lambda1",
    "inf_epsilon", "bool_lambda2", "inf_beta1", "fractional_base_filters", "bool_base_filters",
    "string_patch_shape", "float_patch_shape", "bool_patch_shape", "two_entry_patch_shape",
    "int_patch_shape", "nan_beta1", "inf_lambda2"]


@pytest.mark.parametrize("forward, setting, cause", [
    pytest.param(forward, setting, cause, id=prefix + name)
    for forward, prefix in ((True, ""), (False, "forward_off-"))
    for (setting, cause), name in zip(_FORWARD_SETTINGS, _FORWARD_SETTING_IDS)
])
def test_forward_and_edge_settings_fail_in_config_before_any_compute(
        tmp_path, monkeypatch, forward, setting, cause):
    """Every setting is checked in stage ``config``, whether or not the forward runs."""
    img_path, gt_path = _phantom(tmp_path, shape=(16, 16, 4))

    def no_compute(*args, **kwargs):
        raise AssertionError("compute ran before the settings were checked")

    monkeypatch.setattr(supervoxel, "slic3d", no_compute)
    monkeypatch.setattr(scribble_sim, "simulate_foreground_scribbles", no_compute)
    cfg = {"image": str(img_path), "gt": str(gt_path), "output_dir": str(tmp_path / "out"),
           "forward": forward, "patch_shape": [16, 16, 4], **setting}
    with pytest.raises(PipelineStageError) as info:
        run_pipeline(cfg, echo=lambda *_: None)
    assert info.value.stage == "config"
    assert isinstance(info.value.cause, cause)


@pytest.mark.parametrize("k", [40000], ids=["given_k"])  # no default k exceeds the voxel count
def test_oversized_k_fails_before_slic(tmp_path, monkeypatch, runner, k):
    img_path, gt_path = _phantom(tmp_path, shape=(16, 16, 4))

    def no_compute(*args, **kwargs):
        raise AssertionError("compute ran before k was checked")

    monkeypatch.setattr(supervoxel, "slic3d", no_compute)
    monkeypatch.setattr(scribble_sim, "simulate_foreground_scribbles", no_compute)
    result = runner.invoke(main, ["slic", "--input", str(img_path), "--k", str(k),
                                  "--output", str(tmp_path / "sv.nii")])
    assert result.exit_code == 1
    assert "error in stage 'slic'" in result.output
    assert f"k={k} exceeds voxel count 1024" in result.output
    assert not (tmp_path / "sv.nii").exists()
    with pytest.raises(PipelineStageError) as info:
        run_pipeline({"image": str(img_path), "gt": str(gt_path), "slic": {"k": k},
                      "output_dir": str(tmp_path / "out")}, echo=lambda *_: None)
    assert info.value.stage == "read"
    assert f"k={k} exceeds voxel count 1024" in str(info.value)


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
    {"margin_vox": True}, {"margin_vox": 2.5}, {"forward": "false"}, {"forward": 1},
    {"scribbles": 0}, {"scribbles": []}, {"scribbles": False}, {"scribbles": ""}, {"gt": 5},
    {"output_dir": ["x"]}, {"image": 1.5}, {"edges_input": {}},
], ids=["negative_seed", "fractional_seed", "margin_vox", "num_classes_1", "num_classes_-2",
        "bool_margin_vox", "fractional_margin_vox", "string_forward", "int_forward",
        "zero_scribbles", "list_scribbles", "false_scribbles", "empty_scribbles", "int_gt",
        "list_output_dir", "float_image", "object_edges_input"])
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


@pytest.mark.parametrize("drop, extra, message", [
    ("image", {}, "config must set 'image' and 'output_dir'"),
    ("output_dir", {}, "config must set 'image' and 'output_dir'"),
    ("gt", {}, "need either 'scribbles' or 'gt'"),
    (None, {"slic": {"kk": 3}}, "unknown config key slic.kk"),
], ids=["no_image", "no_output_dir", "no_scribbles_or_gt", "unknown_section_key"])
def test_incomplete_config_fails_in_config_naming_what_is_wrong(tmp_path, drop, extra, message):
    img_path, gt_path = _phantom(tmp_path, shape=(16, 16, 4))
    cfg = {"image": str(img_path), "gt": str(gt_path), "output_dir": str(tmp_path / "out"),
           **extra}
    cfg.pop(drop, None)
    with pytest.raises(PipelineStageError, match=message) as info:
        run_pipeline(cfg, echo=lambda *_: None)
    assert info.value.stage == "config"
    assert type(info.value.cause) is ScribsupError


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
    assert sorted(written) == sorted(str(p) for p in (tmp_path / "out").glob("*.nii"))  # no bypass
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
    assert str(scrib) not in result.output  # the setting is refused, not the file
    assert not (tmp_path / "m.nii").exists()


def _scribbles_with_class_3(path, shape=(8, 8, 2), spacing=(1.0, 1.0, 4.0)):
    labels = np.full(shape, 255, dtype=np.uint16)
    labels[2, 2, 0], labels[6, 6, 1], labels[4, 4, 1] = 0, 1, 3
    write_nifti(LabelVolume(labels, spacing, 256), path)


def test_propagate_names_a_scribble_file_above_the_class_count(tmp_path, runner):
    scrib, sv = tmp_path / "scrib.nii", tmp_path / "sv.nii"
    _scribbles_with_class_3(scrib)
    write_nifti(LabelVolume(np.zeros((8, 8, 2), dtype=np.uint16), (1.0, 1.0, 4.0), 2), sv)
    result = runner.invoke(main, ["propagate", "--scribbles", str(scrib), "--supervoxels", str(sv),
                                  "--classes", "2", "--output-mask", str(tmp_path / "m.nii"),
                                  "--output-conf", str(tmp_path / "c.nii")])
    assert result.exit_code == 1
    assert "error in stage 'propagate'" in result.output and str(scrib) in result.output
    assert "scribble classes must be below 2" in result.output
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
    ("pred_final", "per-voxel channel sums must equal 1"),
], ids=["pred_init", "boundary", "pseudo", "pred_final_sums"])
def test_loss_names_a_file_whose_values_are_refused(tmp_path, runner, bad, message):
    shape, spacing = (8, 8, 2), (1.0, 1.0, 4.0)
    img_path, _ = _phantom(tmp_path, shape=shape)
    pseudo = np.zeros(shape, dtype=np.uint16)
    pseudo[:4] = 2 if bad == "pseudo" else 1  # class 2 with two class channels
    raw = np.random.default_rng(3).uniform(0.0, 1000.0, shape).astype(np.float32)
    vols = {
        "pred_init": Volume(raw if bad == "pred_init" else np.full(shape, 0.5, np.float32), spacing),
        # two channels of 0.3 each sum to 0.6
        "pred_final": Volume(np.full(shape, 0.3 if bad == "pred_final" else 0.5, np.float32),
                             spacing),
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


def test_loss_refuses_unequal_init_and_final_channel_counts(tmp_path, runner):
    shape, spacing = (8, 8, 2), (1.0, 1.0, 4.0)
    img_path, _ = _phantom(tmp_path, shape=shape)
    pseudo = np.zeros(shape, dtype=np.uint16)
    pseudo[:4] = 1
    vols = {
        "half": Volume(np.full(shape, 0.5, dtype=np.float32), spacing),
        "third": Volume(np.full(shape, 1 / 3, dtype=np.float32), spacing),
        "boundary": Volume(np.full(shape, 0.25, dtype=np.float32), spacing),
        "pseudo": LabelVolume(pseudo, spacing, 2),
        "conf": BinaryVolume(np.ones(shape, dtype=np.uint8), spacing),
        "edges": BinaryVolume(np.zeros(shape, dtype=np.uint8), spacing),
    }
    paths = {name: tmp_path / f"{name}.nii" for name in vols}
    for name, vol in vols.items():
        write_nifti(vol, paths[name])
    args = ["loss", "--boundary-pred", paths["boundary"], "--pseudo", paths["pseudo"],
            "--conf", paths["conf"], "--edges", paths["edges"], "--image", img_path,
            "--report", tmp_path / "loss.json"]
    args += ["--pred-init", paths["half"]] * 2 + ["--pred-final", paths["third"]] * 3
    result = runner.invoke(main, [str(a) for a in args])
    assert result.exit_code == 1
    assert "error in stage 'loss'" in result.output
    assert "probs_final has 3 channels, needs 2" in result.output
    assert not (tmp_path / "loss.json").exists()


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


def _record_compute(monkeypatch, *also):
    """Record calls to the four expensive steps and to each ``(module, name)`` in ``also``;
    each still runs."""
    calls = []
    for module, name in ((scribble_sim, "simulate_foreground_scribbles"), (supervoxel, "slic3d"),
                         (refnet, "forward"), (losses, "total_loss"), *also):
        def recorded(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, recorded)
    return calls


def test_simulate_scribbles_refuses_margin_before_skeletonising(tmp_path, monkeypatch, runner):
    _, gt_path = _phantom(tmp_path, shape=(16, 16, 4))
    calls = _record_compute(monkeypatch)
    result = runner.invoke(main, ["simulate-scribbles", "--gt", str(gt_path), "--margin", "0",
                                  "--output", str(tmp_path / "s.nii")])
    assert result.exit_code == 1
    assert "error in stage 'simulate-scribbles'" in result.output
    assert "margin_vox must be an integer >= 1, got 0" in result.output
    assert calls.count("simulate_foreground_scribbles") == 0
    assert not (tmp_path / "s.nii").exists()


@pytest.mark.parametrize("value", [False, True, 0.0], ids=["false", "true", "float_zero"])
def test_only_an_integer_zero_infers_num_classes_before_any_compute(tmp_path, monkeypatch, value):
    img_path, gt_path = _phantom(tmp_path, shape=(16, 16, 4))
    calls = _record_compute(monkeypatch)
    with pytest.raises(PipelineStageError) as info:
        run_pipeline({"image": str(img_path), "gt": str(gt_path), "num_classes": value,
                      "output_dir": str(tmp_path / "out")}, echo=lambda *_: None)
    assert info.value.stage == "config"
    assert isinstance(info.value.cause, InvalidConfigError)
    assert "num_classes" in str(info.value) and "integer" in str(info.value)
    assert calls == [] and not (tmp_path / "out" / "manifest.json").exists()


@pytest.mark.parametrize("inputs, settings, key", [
    ({"image": "out/edges.nii", "gt": "out/pseudo_mask.nii"}, {}, "image"),
    ({"gt": "out/scribbles.nii"}, {}, "gt"),  # the simulated scribbles would land on the gt
    ({"gt": "out/eval.json"}, {}, "gt"),
    ({"scribbles": "out/boundary_pred.nii"}, {"forward": True, "patch_shape": [16, 16, 4]},
     "scribbles"),
    ({"edges_input": "out/mask_final_c1.nii"}, {"forward": True, "patch_shape": [16, 16, 4]},
     "edges_input"),
    ({"edges_input": "out/mask_init_c2.nii"},
     {"forward": True, "patch_shape": [16, 16, 4], "num_classes": 3}, "edges_input"),
], ids=["image_and_gt", "gt_at_scribbles", "gt_at_eval", "scribbles_at_boundary",
        "edges_at_mask_head", "edges_at_mask_head_of_a_given_count"])
def test_an_input_at_an_artifact_path_fails_in_config_before_any_compute(
        tmp_path, monkeypatch, inputs, settings, key):
    img_path, gt_path = _phantom(tmp_path, shape=(16, 16, 4))
    (tmp_path / "out").mkdir()
    kept = {}
    for name, rel in inputs.items():  # relative paths, against an absolute output_dir
        kept[rel] = (img_path if name in ("image", "edges_input") else gt_path).read_bytes()
        (tmp_path / rel).write_bytes(kept[rel])
    monkeypatch.chdir(tmp_path)
    calls = _record_compute(monkeypatch)
    with pytest.raises(PipelineStageError) as info:
        run_pipeline({"image": str(img_path), "gt": str(gt_path), "output_dir": str(tmp_path / "out"),
                      **settings, **inputs}, echo=lambda *_: None)
    assert info.value.stage == "config"
    assert isinstance(info.value.cause, InvalidConfigError)
    assert f"input path for {key!r} is written by this run: {inputs[key]}" in str(info.value)
    assert calls == [] and {p.name for p in (tmp_path / "out").iterdir()} == {
        Path(rel).name for rel in inputs.values()}
    assert all((tmp_path / rel).read_bytes() == raw for rel, raw in kept.items())


def _three_class_phantom(tmp_path, shape=(16, 16, 4), spacing=(1.0, 1.0, 4.0)):
    """A class-1 ball inside a class-2 shell on a dark background, and its image."""
    centre = tuple(s // 2 for s in shape)
    gt = sphere_labels(shape, centre, 5.0, spacing)
    gt[(sphere_labels(shape, centre, 9.0, spacing) > 0) & (gt == 0)] = 2
    noise = 0.02 * np.random.default_rng(99).random(shape).astype(np.float32)
    img_path, gt_path = tmp_path / "image.nii", tmp_path / "gt.nii"
    write_nifti(Volume(0.1 + 0.3 * gt.astype(np.float32) + noise, spacing), img_path)
    write_nifti(LabelVolume(gt, spacing, 3), gt_path)
    return img_path, gt_path


_SMALL_RUN = {"slic": {"k": 8}, "margin_vox": 2, "patch_shape": [16, 16, 4], "forward_base_filters": 2}


@pytest.mark.parametrize("scribbles", ["simulated", "given"])
@pytest.mark.parametrize("forward", [False, True], ids=["forward_off", "forward_on"])
def test_a_run_writes_exactly_the_table_files_in_write_order(tmp_path, monkeypatch, forward, scribbles):
    """``output_dir`` holds the artifact table's files for the config at the realised class
    count, plus ``manifest.json``, and the manifest lists them in the order they were written."""
    img_path, gt_path = _three_class_phantom(tmp_path)
    out = tmp_path / "out"
    cfg = {"image": str(img_path), "gt": str(gt_path), "output_dir": str(out), **_SMALL_RUN,
           "forward": forward}
    if scribbles == "given":
        merged = cli._simulate_scribbles(read_nifti(gt_path, kind="labels"), 2)
        write_nifti(scribble_sim.scribbles_to_label_volume(merged), tmp_path / "scribbles.nii")
        cfg["scribbles"] = str(tmp_path / "scribbles.nii")
    order = []
    for name in ("write_nifti", "_write_json"):
        def recorded(obj, path, _fn=getattr(cli, name)):
            order.append(str(path))
            return _fn(obj, path)
        monkeypatch.setattr(cli, name, recorded)
    manifest = run_pipeline(cfg, echo=lambda *_: None)
    table = cli._artifacts(manifest["config"], 3)  # the class count the gt realises
    # supervoxels, pseudo_mask, confidence, edges and eval; the simulated scribbles; with
    # forward boundary_pred, 2 x 3 mask channels and loss
    assert len(table) == 5 + (scribbles == "simulated") + 8 * forward
    assert sorted(p.name for p in out.iterdir()) == sorted([*table.values(), "manifest.json"])
    assert [(a["name"], a["path"]) for a in manifest["artifacts"]] == [
        (name, str(out / file)) for name, file in table.items()]
    assert order == [a["path"] for a in manifest["artifacts"]] + [str(out / "manifest.json")]


def test_each_file_a_run_wrote_is_refused_as_its_gt_in_config_before_any_compute(
        tmp_path, monkeypatch):
    """Driven by the files a real run left, not by the artifact table, so a file the run writes
    but the table lacks fails here."""
    img_path, gt_path = _three_class_phantom(tmp_path)
    cfg = {"image": str(img_path), "gt": str(gt_path), "output_dir": str(tmp_path / "out"),
           "num_classes": 3, "forward": True, **_SMALL_RUN}
    run_pipeline(cfg, echo=lambda *_: None)
    written = {path: path.read_bytes() for path in (tmp_path / "out").iterdir()}
    assert len(written) == 15  # 14 artifacts and the manifest
    calls = _record_compute(monkeypatch, (cli, "read_nifti"))
    for path in written:
        with pytest.raises(PipelineStageError) as info:
            run_pipeline({**cfg, "gt": str(path)}, echo=lambda *_: None)
        assert info.value.stage == "config", path.name
        assert f"input path for 'gt' is written by this run: {path}" in str(info.value)
    assert calls == []
    assert {path: path.read_bytes() for path in (tmp_path / "out").iterdir()} == written


def test_scribbles_an_earlier_run_wrote_to_the_output_dir_are_read_again(tmp_path):
    img_path, gt_path = _phantom(tmp_path, shape=(16, 16, 4))
    cfg = {"image": str(img_path), "gt": str(gt_path), "output_dir": str(tmp_path / "out")}
    run_pipeline(cfg, echo=lambda *_: None)
    scribbles = tmp_path / "out" / "scribbles.nii"
    raw = scribbles.read_bytes()
    manifest = run_pipeline({**cfg, "scribbles": str(scribbles)}, echo=lambda *_: None)
    assert scribbles.read_bytes() == raw  # given, so this run does not write it
    assert "scribbles" not in [a["name"] for a in manifest["artifacts"]]


def test_a_second_run_into_one_output_dir_leaves_only_its_own_files(tmp_path):
    """A forward-off run after a forward-on one removes the heads, boundary and loss that only the
    first run wrote, and keeps a file no config writes."""
    img_path, gt_path = _three_class_phantom(tmp_path)
    out = tmp_path / "out"
    cfg = {"image": str(img_path), "gt": str(gt_path), "output_dir": str(out), **_SMALL_RUN}
    run_pipeline({**cfg, "forward": True}, echo=lambda *_: None)
    (out / "notes.txt").write_text("kept")
    manifest = run_pipeline({**cfg, "forward": False}, echo=lambda *_: None)
    assert sorted(p.name for p in out.iterdir()) == sorted(
        [Path(a["path"]).name for a in manifest["artifacts"]] + ["manifest.json", "notes.txt"])
    assert (out / "notes.txt").read_text() == "kept"


def test_k_above_the_voxel_count_fails_in_read_before_any_compute(tmp_path, monkeypatch):
    img_path, gt_path = _phantom(tmp_path, shape=(16, 16, 4))  # 1,024 voxels
    calls = _record_compute(monkeypatch)
    with pytest.raises(PipelineStageError) as info:
        run_pipeline({"image": str(img_path), "gt": str(gt_path), "slic": {"k": 2000},
                      "output_dir": str(tmp_path / "out")}, echo=lambda *_: None)
    assert info.value.stage == "read"
    assert isinstance(info.value.cause, KTooLargeError)
    assert "k=2000 exceeds voxel count 1024" in str(info.value)
    assert calls == []


@pytest.mark.parametrize("key, stage, message", [
    ("gt", "read", "labels must be below 2"),
    ("scribbles", "scribbles", "scribble classes must be below 2"),
], ids=["gt", "scribbles"])
def test_a_label_file_above_num_classes_is_named_before_any_compute(
        tmp_path, monkeypatch, key, stage, message):
    shape, spacing = (16, 16, 4), (1.0, 1.0, 4.0)
    img_path, gt_path = _phantom(tmp_path, shape=shape, spacing=spacing)
    path = tmp_path / "class3.nii"
    if key == "gt":
        gt = read_nifti(gt_path, kind="labels").data.copy()
        gt[0, 0, 0] = 3
        write_nifti(LabelVolume(gt, spacing, 4), path)
    else:
        _scribbles_with_class_3(path, shape, spacing)
    calls = _record_compute(monkeypatch)
    with pytest.raises(PipelineStageError) as info:
        run_pipeline({"image": str(img_path), key: str(path), "num_classes": 2,
                      "output_dir": str(tmp_path / "out")}, echo=lambda *_: None)
    assert info.value.stage == stage
    assert str(path) in str(info.value) and message in str(info.value)
    assert calls == []


def test_a_num_classes_above_the_scribble_sentinel_fails_in_config_when_simulating(
        tmp_path, monkeypatch):
    img_path, gt_path = _phantom(tmp_path, shape=(16, 16, 4))
    calls = _record_compute(monkeypatch)
    with pytest.raises(PipelineStageError) as info:
        run_pipeline({"image": str(img_path), "gt": str(gt_path), "num_classes": 300,
                      "output_dir": str(tmp_path / "out")}, echo=lambda *_: None)
    assert info.value.stage == "config"
    assert isinstance(info.value.cause, InvalidConfigError)
    assert "num_classes 300 collides with the sentinel value 255" in str(info.value)
    assert calls == []
    # given scribbles are not simulated, so the same class count runs
    scrib = tmp_path / "scrib.nii"
    _scribbles_with_class_3(scrib, (16, 16, 4))
    manifest = run_pipeline({"image": str(img_path), "scribbles": str(scrib), "num_classes": 300,
                             "slic": {"k": 4}, "output_dir": str(tmp_path / "given")},
                            echo=lambda *_: None)
    assert manifest["config"]["num_classes"] == 300
    assert "pseudo_mask" in [a["name"] for a in manifest["artifacts"]]


def _gt_with_class_300(tmp_path, spacing=(1.0, 1.0, 4.0)):
    """A 32x32x4 image and a gt whose foreground is class 300, which no scribble file holds."""
    img_path, gt_path = _phantom(tmp_path, shape=(32, 32, 4), spacing=spacing)
    gt = read_nifti(gt_path, kind="labels").data * 300
    path = tmp_path / "gt300.nii"
    write_nifti(LabelVolume(gt, spacing, 301), path)
    return img_path, path


def test_a_gt_with_more_classes_than_a_scribble_file_holds_is_named_in_read(tmp_path, monkeypatch):
    img_path, gt_path = _gt_with_class_300(tmp_path)
    calls = _record_compute(monkeypatch)
    with pytest.raises(PipelineStageError) as info:
        run_pipeline({"image": str(img_path), "gt": str(gt_path),
                      "output_dir": str(tmp_path / "out")}, echo=lambda *_: None)
    assert info.value.stage == "read"
    assert f"{gt_path}: class count 301 collides with the sentinel value 255" in str(info.value)
    assert calls == [] and not (tmp_path / "out" / "scribbles.nii").exists()


def test_simulate_scribbles_refuses_a_gt_above_the_sentinel_before_simulating(
        tmp_path, monkeypatch, runner):
    _, gt_path = _gt_with_class_300(tmp_path)
    calls = _record_compute(monkeypatch)
    out = tmp_path / "s.nii"
    result = runner.invoke(main, ["simulate-scribbles", "--gt", str(gt_path), "--output", str(out)])
    assert result.exit_code == 1
    assert "error in stage 'simulate-scribbles'" in result.output
    assert f"{gt_path}: class count 301 collides with the sentinel value 255" in result.output
    assert calls == [] and not out.exists()


def test_no_confident_voxel_in_the_patch_fails_in_propagate_before_any_compute(tmp_path, monkeypatch):
    """Scribbles in one corner of a 96x96x8 image leave the centre 32x32x8 patch
    without a confident voxel; the loss could not supervise it, so the run stops
    before the forward pass."""
    img_path, _ = _phantom(tmp_path, shape=(96, 96, 8))
    labels = np.full((96, 96, 8), 255, dtype=np.uint16)
    labels[0:3, 0:3, :], labels[6:9, 0:3, :] = 1, 0
    scrib = tmp_path / "scribbles.nii"
    write_nifti(LabelVolume(labels, (1.0, 1.0, 4.0), 256), scrib)
    calls = _record_compute(monkeypatch)
    out = tmp_path / "out"
    with pytest.raises(PipelineStageError) as info:
        run_pipeline({"image": str(img_path), "scribbles": str(scrib), "output_dir": str(out),
                      "slic": {"k": 300}, "forward": True, "patch_shape": [32, 32, 8],
                      "forward_base_filters": 2}, echo=lambda *_: None)
    assert info.value.stage == "propagate"
    assert isinstance(info.value.cause, NoConfidentVoxelsError)
    assert "centre patch (32, 32, 8)" in str(info.value)
    assert calls == ["slic3d"]
    assert read_nifti(out / "confidence.nii", kind="binary").data.any()  # confident elsewhere


def test_the_default_config_is_echoed_whole_in_the_manifest(tmp_path):
    """Every top-level key and every nested SLIC, loss and weight default, with its JSON type."""
    img_path, gt_path = _phantom(tmp_path)
    out = tmp_path / "out"
    manifest = run_pipeline({"image": str(img_path), "gt": str(gt_path), "output_dir": str(out)},
                            echo=lambda *_: None)
    want = {
        "image": str(img_path), "scribbles": None, "gt": str(gt_path), "edges_input": None,
        "output_dir": str(out),
        "slic": {"k": None, "compactness": 10.0, "iterations": 10},
        "edge_threshold": 0.2,
        "ab": {"lambda1": 1.0, "lambda2": 0.1, "epsilon": 1e-6},
        "weights": {"beta1": 0.3, "beta2": 0.3},
        "patch_shape": [224, 224, 32], "margin_vox": 10, "seed": 0, "forward": False,
        "forward_base_filters": 8, "num_classes": 0,
    }
    assert len(want) == 15

    def strict(name):
        raise AssertionError(f"manifest.json holds the non-JSON constant {name}")

    written = json.loads((out / "manifest.json").read_text(), parse_constant=strict)["config"]
    for cfg in (manifest["config"], written):  # 10.0 and 10 differ in JSON, not under ==
        assert json.dumps(cfg, sort_keys=True) == json.dumps(want, sort_keys=True)


def test_forward_names_a_patch_option_that_is_not_three_integers(tmp_path, monkeypatch, runner):
    """Each network and patch setting is refused, named, before the image is read or the
    network built."""
    img_path, _ = _phantom(tmp_path, shape=(16, 16, 4))
    calls = _record_compute(monkeypatch, (cli, "read_nifti"), (refnet, "build"))
    prefix = tmp_path / "fwd"
    for option, value, message in (
        ("--patch", "16,16,x", "--patch must be X,Y,Z integers, got '16,16,x'"),
        ("--patch", "16,16,0",
         "each entry of patch_shape [16, 16, 0] must be an integer >= 1, got 0"),
        ("--patch", "16,16", "patch_shape must be three integers >= 1, got (16, 16)"),
        ("--patch", "24,16,4", "patch (24, 16, 4) must be divisible by (16, 16, 4) (x, y, z)"),
        ("--classes", "1", "num_classes must be an integer >= 2, got 1"),
        ("--base-filters", "0", "base_filters must be an integer >= 1, got 0"),
        ("--seed", "-1", "seed must be an integer >= 0, got -1"),
    ):
        options = {"--input": str(img_path), "--classes": "2", "--out-prefix": str(prefix),
                   option: value}
        result = runner.invoke(main, ["forward", *(t for kv in options.items() for t in kv)])
        assert result.exit_code == 1, (option, value, result.output)
        assert f"error in stage 'forward': {message}" in result.output, (option, value)
        assert calls == [] and list(tmp_path.glob("fwd*")) == [], (option, value)


def test_forward_refuses_an_image_off_the_ladder_before_the_build(tmp_path, monkeypatch, runner):
    """Without ``--patch`` the image is the patch: a shape the network cannot take is refused
    right after the read, naming the file, before the network is built or run."""
    img_path, _ = _phantom(tmp_path, shape=(20, 16, 4))
    calls = _record_compute(monkeypatch, (refnet, "build"))
    result = runner.invoke(main, ["forward", "--input", str(img_path), "--classes", "2",
                                  "--out-prefix", str(tmp_path / "fwd")])
    assert result.exit_code == 1, result.output
    assert (f"error in stage 'forward': {img_path}: patch (20, 16, 4) must be divisible by "
            "(16, 16, 4) (x, y, z)") in result.output
    assert calls == [] and list(tmp_path.glob("fwd*")) == []


def test_forward_summary_keeps_its_bytes(tmp_path, runner):
    """The summary JSON, with the run directory replaced, is pinned byte for byte."""
    img_path, _ = _phantom(tmp_path, shape=(16, 16, 4))
    result = runner.invoke(main, ["forward", "--input", str(img_path), "--classes", "3",
                                  "--seed", "5", "--base-filters", "2", "--patch", "32,16,4",
                                  "--out-prefix", str(tmp_path / "run")])
    assert result.exit_code == 0, result.output
    got = (tmp_path / "run_summary.json").read_text().replace(str(tmp_path), "DIR")
    assert got == """{
  "base_filters": 2,
  "boundary": "DIR/run_boundary.nii",
  "input_shape": [
    32,
    16,
    4
  ],
  "mask_final": [
    "DIR/run_final_c0.nii",
    "DIR/run_final_c1.nii",
    "DIR/run_final_c2.nii"
  ],
  "mask_init": [
    "DIR/run_init_c0.nii",
    "DIR/run_init_c1.nii",
    "DIR/run_init_c2.nii"
  ],
  "num_classes": 3,
  "param_count": 165024,
  "seed": 5
}"""

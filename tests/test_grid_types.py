"""Every grid type lives in ``volume_io``: the stage modules import only it and
``errors`` from the package, the value and spacing helpers stay private to it,
and the writer stores a supervoxel ID map as int16 by itself."""

import ast
from pathlib import Path

import numpy as np
import pytest

import scribsup
from conftest import sphere_labels
from scribsup import label_propagation, losses, scribble_sim, supervoxel, volume_io
from scribsup.cli import PipelineStageError, run_pipeline
from scribsup.errors import UnsupportedDatatypeError
from scribsup.volume_io import (
    DT_INT16, LabelVolume, SupervoxelMap, Volume, read_nifti, write_nifti,
)

SRC = Path(scribsup.__file__).parent
STAGE_MODULES = ("supervoxel", "scribble_sim", "label_propagation", "losses", "metrics", "refnet")
PRIVATE_HELPERS = {"_check_integers", "_own_array", "_check_spacing"}
GRID_TYPES = ("Volume", "LabelVolume", "BinaryVolume", "ProbVolume", "SupervoxelMap",
              "ScribbleSet", "PseudoLabels")


def _tree(name):
    return ast.parse((SRC / f"{name}.py").read_text())


def _package_imports(tree):
    """Package modules a module imports: ``from .x import ...``, ``from . import x``,
    ``import scribsup.x`` and ``from scribsup.x import ...``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level and node.module:
                found.add(node.module.split(".")[0])
            elif node.level or node.module == "scribsup":
                found.update(alias.name for alias in node.names)
            elif node.module and node.module.startswith("scribsup."):
                found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names if a.name.startswith("scribsup."))
    return found


def _identifiers(tree):
    """Every name a module binds, reads or imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
    return names


@pytest.mark.parametrize("name", STAGE_MODULES)
def test_stage_modules_import_only_volume_io_and_errors(name):
    assert _package_imports(_tree(name)) <= {"volume_io", "errors"}


def test_import_scan_sees_every_import_form():
    tree = ast.parse("from .losses import ProbVolume\nfrom . import refnet\n"
                     "import scribsup.metrics\nfrom scribsup.cli import main\n")
    assert _package_imports(tree) == {"losses", "refnet", "metrics", "cli"}


def test_value_and_spacing_helpers_are_private_to_volume_io():
    modules = sorted(p.stem for p in SRC.glob("*.py"))
    users = {m for m in modules if PRIVATE_HELPERS & _identifiers(_tree(m))}
    assert users == {"volume_io"}


def test_grid_types_are_defined_only_in_volume_io():
    defined = {}
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and node.name in GRID_TYPES:
                defined.setdefault(node.name, []).append(path.stem)
    assert defined == {name: ["volume_io"] for name in GRID_TYPES}


@pytest.mark.parametrize("module, name", [
    (losses, "ProbVolume"), (supervoxel, "SupervoxelMap"), (scribble_sim, "ScribbleSet"),
    (label_propagation, "PseudoLabels"),
])
def test_old_import_paths_name_the_volume_io_types(module, name):
    assert getattr(module, name) is getattr(volume_io, name)
    assert getattr(scribsup, name) is getattr(volume_io, name)


def _id_map(shape, count):
    """IDs ``0..count-1`` in scan order, the last one filling the rest of the grid."""
    ids = np.minimum(np.arange(int(np.prod(shape))), count - 1).reshape(shape)
    return SupervoxelMap(ids, (1.0, 1.0, 2.5), count)


@pytest.mark.parametrize("count", [1, 2, 200, 255])
def test_small_id_map_is_written_as_int16(tmp_path, count):
    sv = _id_map((16, 16, 4), count)
    write_nifti(sv, tmp_path / "sv.nii")
    write_nifti(LabelVolume(sv.ids, sv.spacing, max(2, count), DT_INT16), tmp_path / "labels.nii")
    assert (tmp_path / "sv.nii").read_bytes() == (tmp_path / "labels.nii").read_bytes()
    back = read_nifti(tmp_path / "sv.nii", kind="labels")
    assert back.storage_datatype == DT_INT16
    assert np.array_equal(back.data, sv.ids)


def test_id_map_with_largest_id_32767_writes(tmp_path):
    sv = _id_map((64, 64, 8), 32768)
    write_nifti(sv, tmp_path / "sv.nii")
    back = read_nifti(tmp_path / "sv.nii", kind="labels")
    assert int(back.data.max()) == 32767 and np.array_equal(back.data, sv.ids)


def test_id_map_above_int16_fails_before_any_byte_is_written(tmp_path):
    with pytest.raises(UnsupportedDatatypeError, match="32768"):
        write_nifti(_id_map((64, 64, 9), 32769), tmp_path / "sv.nii")
    assert list(tmp_path.iterdir()) == []


def test_pipeline_with_id_32768_fails_in_slic_and_writes_no_map(tmp_path, monkeypatch):
    shape, spacing = (64, 64, 9), (1.0, 1.0, 2.5)
    gt = sphere_labels(shape, (32, 32, 4), 8.0, spacing)
    img_path, gt_path, out = tmp_path / "image.nii", tmp_path / "gt.nii", tmp_path / "out"
    write_nifti(Volume(gt.astype(np.float32), spacing), img_path)
    write_nifti(LabelVolume(gt, spacing, 2), gt_path)
    monkeypatch.setattr(supervoxel, "slic3d", lambda image, params: _id_map(shape, 32769))
    with pytest.raises(PipelineStageError) as info:
        run_pipeline({"image": str(img_path), "gt": str(gt_path), "output_dir": str(out)},
                     echo=lambda *_: None)
    assert info.value.stage == "slic"
    assert isinstance(info.value.cause, UnsupportedDatatypeError)
    assert sorted(p.name for p in out.iterdir()) == ["scribbles.nii"]

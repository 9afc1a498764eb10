"""The console-script checks as one table: ``python3 tools/console_checks.py`` exits 1 if a row
fails. A row runs in a fresh directory ``{d}``; its commands run until one exits non-zero. Stdlib
only: the set-ups import numpy and ``scribsup``, which the console script needs anyway."""

import hashlib
import json
import shutil
import struct
import subprocess
import sys
import tempfile
from pathlib import Path


def _block(d, shape, name="image", value=0, classes=0):  # an image, or labels for classes > 0
    import numpy as np
    from scribsup.volume_io import LabelVolume, Volume, write_nifti
    data = np.zeros(shape, dtype=np.uint16)
    data[8:24, 8:24, :] = value
    vol = LabelVolume(data, (1, 1, 4), classes) if classes else Volume(data.astype("f4"), (1, 1, 4))
    write_nifti(vol, d / f"{name}.nii")


def _phantom(d):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    from phantom import NUM_CLASSES, make_phantom
    from scribsup.volume_io import LabelVolume, Volume, write_nifti
    p = make_phantom((128, 128, 32), (1.0, 1.0, 2.5), seed=0)
    write_nifti(Volume(p.image, p.spacing), d / "image.nii")
    write_nifti(LabelVolume(p.labels, p.spacing, NUM_CLASSES), d / "gt.nii")


def _int32_map(d):
    raw = (d / "sv.nii").read_bytes()
    types = (int.from_bytes(raw[70:72], "little"), int.from_bytes(raw[72:74], "little"))
    count = max(memoryview(raw[352:]).cast("i")) + 1 if types == (8, 32) else 0
    return None if count > 32767 else f"datatype, bitpix {types}; {count} supervoxel IDs"


def _config(**settings):  # a set-up: a 32x32x4 image and gt, and a config that adds ``settings``
    def setup(d):
        _block(d, (32, 32, 4), "gt", 1, 2)
        _block(d, (32, 32, 4), "image", 1)
        (d / "config.json").write_text(json.dumps({
            "image": f"{d}/image.nii", "gt": f"{d}/gt.nii", "output_dir": f"{d}/out", **settings}))
    return setup


def _pixdim_image(pixdim, units):  # a set-up: an image with pixdim[1] in spatial unit ``units``
    def setup(d):
        _block(d, (32, 32, 4))
        raw = bytearray((d / "image.nii").read_bytes())
        raw[80:84], raw[123] = struct.pack("<f", pixdim), units  # pixdim[1], xyzt_units
        (d / "image.nii").write_bytes(raw)
    return setup


_AT_ARTIFACTS = (("image", "edges"), ("gt", "pseudo_mask"))  # each input at the artifact's path


def _inputs_at_artifacts(d):
    _config(**{key: f"{d}/out/{name}.nii" for key, name in _AT_ARTIFACTS})(d)
    (d / "out").mkdir()
    for key, name in _AT_ARTIFACTS:
        shutil.copy(d / f"{key}.nii", d / "out" / f"{name}.nii")


def _inputs_kept(d):
    return next((f"out/{name}.nii changed" for key, name in _AT_ARTIFACTS
                 if (d / "out" / f"{name}.nii").read_bytes() != (d / f"{key}.nii").read_bytes()), None)


def _manifest_files(d):  # out/ holds the manifest's files and manifest.json, each at its sha256
    arts = json.loads((d / "out" / "manifest.json").read_text())["artifacts"]
    listed = sorted([*(Path(a["path"]).name for a in arts), "manifest.json"])
    found = sorted(p.name for p in (d / "out").iterdir())
    if found != listed:
        return f"out/ holds {found}, not the manifest's {listed}"
    return next((f"{a['path']}: sha256 differs from the manifest" for a in arts
                 if hashlib.sha256(Path(a["path"]).read_bytes()).hexdigest() != a["sha256"]), None)


SIM = "scribsup simulate-scribbles --gt {d}/gt.nii --output {d}/scribbles.nii"
PIPE = "scribsup pipeline --config {d}/config.json"
FWD = "scribsup forward --input {d}/image.nii --classes 2 --out-prefix {d}/o"
EDGES = "scribsup edges --input {d}/image.nii --output {d}/edges.nii"
ROWS = [  # name, set-up, commands, the last one's exit code and stderr, globs of no path[, check]
    ("console entry points", lambda d: None, ["scribsup --help", "scribsup pipeline --help",
                                              "{py} -m scribsup.cli --help"], 0, "", []),
    ("a real supervoxel map above 32,767 IDs, written as int32", _phantom, [
        SIM, "scribsup slic --input {d}/image.nii --k 32767 --output {d}/sv.nii",
        "scribsup propagate --scribbles {d}/scribbles.nii --supervoxels {d}/sv.nii --output-mask "
        "{d}/mask.nii --output-conf {d}/conf.nii"], 0, "", [], _int32_map),
    ("a gt class at the scribble sentinel is refused before simulation",
     lambda d: _block(d, (32, 32, 4), "gt", 255, 256), [SIM], 1, "{d}/gt.nii", ["scribbles.nii"]),
    ("a path setting that is not a string is refused before any output", _config(scribbles=0),
     [PIPE], 1, "scribbles", ["out"]),
    ("a forward-off config with a NaN loss weight is refused before any output",
     _config(forward=False, weights={"beta1": float("nan")}), [PIPE], 1, "beta1", ["out"]),
    ("a zero --patch entry is refused, naming patch_shape", lambda d: _block(d, (16, 16, 4)),
     [FWD + " --patch 16,16,0"], 1, "patch_shape", ["o*"]),
    ("an image off the ladder is refused, naming the file", lambda d: _block(d, (20, 16, 4)),
     [FWD], 1, "{d}/image.nii: patch (20, 16, 4)", ["o*"]),
    ("a spacing float32 cannot hold is refused, naming the file",  # 1e36 m is 1e39 mm
     _pixdim_image(1e36, 1), [EDGES], 1, "{d}/image.nii", ["edges*"]),
    ("a NaN pixdim is refused by the spacing rule, naming the file", _pixdim_image(float("nan"), 2),
     [EDGES], 1, "{d}/image.nii: spacing must be three positive values finite in float32",
     ["edges*"]),
    ("an input at an artifact path is refused before any output", _inputs_at_artifacts, [PIPE], 1,
     "'image'", ["out/*.json", "out/s*", "out/c*"], _inputs_kept),
    ("a forward-on pipeline writes exactly its manifest's files",
     _config(forward=True, patch_shape=[32, 32, 4], forward_base_filters=2, margin_vox=2), [PIPE], 0,
     "", [], _manifest_files),
]


def run(name, setup, commands, status, stderr, absent, check=None) -> bool:
    with tempfile.TemporaryDirectory() as tmp:
        d, stderr = Path(tmp), stderr.format(d=tmp)
        setup(d)
        for cmd in (c.format(d=d, py=sys.executable) for c in commands):
            proc = subprocess.run(cmd.split(), capture_output=True, text=True)
            if proc.returncode:
                break
        errors = [f"exit {proc.returncode}, not {status}"] * (proc.returncode != status)
        errors += [f"stderr lacks {stderr!r}: {proc.stderr.strip()}"] * (stderr not in proc.stderr)
        errors += [f"{p} exists" for pattern in absent for p in d.glob(pattern)]
        errors += [e for e in [check and not errors and check(d)] if e]
    print(f"{'FAIL' if errors else 'ok'}: {name}" + "".join(f"\n  {e}" for e in errors))
    return not errors


if __name__ == "__main__":
    sys.exit(0 if all([run(*row) for row in ROWS]) else 1)

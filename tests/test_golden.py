"""Golden outputs: segment -> track -> classify on every bundled scenario.

Each run's manifest, trajectory files and report are hashed and compared
with digests pinned here, so a change that should leave outputs
byte-identical is held to it on every build. The file-backend runs write
each scenario's frames as PGM files and its annotations as JSON Lines,
then run the same three commands over them, and must give the synthetic
backend's bytes; ``match_5pct`` is left out of those, as its frames would
take about 0.9 GB. The synthetic-backend runs also export their clips'
frames, and the exported files are hashed too.

A change that means to alter outputs updates these digests and says why.
"""

from __future__ import annotations

import hashlib
import shutil

import pytest

from cricseg.backend import dump_annotations
from cricseg.cli import main
from cricseg.frames import write_pgm
from cricseg.scenario import frame_stream, resolve_script, synthetic_backend

GOLDEN = {
    "delivery_plus_replay": {
        "manifest": "7b68f90d8f03a9aa0638bb16bdf3f6d22392702d99f942efcbc9721b5b6ebbc6",
        "trajectories": "5f156bc74002f5a5a736f08404f9f72560394de02c3c67f247c17f8b15f5a5ac",
        "report": "6c5127a4603e6c1b1a234b4dbdbb878a2e82b2f9bb259348870e4f9060cab542",
        "export": "2c05a3885a659615782cc2e084a61d58e48fab008f1e744d45ca575b97b715c4",
    },
    "match_5pct": {
        "manifest": "6aab820faa0d6b00eaec09f089596eff5a9e0b4d6f7d3aceed7839fc2c6fd818",
        "trajectories": "7d14b601369c9c9879b0f947abebb4377d8992150ee4961d4723ee8ea2edb95f",
        "report": "41514f842ffba83eac7906e72fbd756d9e5abf697c0d5aacf6019e2d6d8c6871",
        "export": "3b7fcf6b87b5bda95dcc4a218369cf11b9ff9fdb9245c2f9363f53896897b596",
    },
    "one_delivery": {
        "manifest": "f1656dd4840219ed70ffc3de8b1d9b20ea35f681f5579a0cae34825c8e97a24e",
        "trajectories": "a0909eccd77ec58ce8a20b95749c2af1c78b69a1aee8e4ad981758f680ca0b9e",
        "report": "3df99fdecd433e15aa51b6515679b6511a91a54f653001219d426a7d2b1e797a",
        "export": "3f4d187b9e80dcf43cf0bf10b7a94e873dd714964fec3e6654b6ff9096a43bf4",
    },
    "three_lengths": {
        "manifest": "1e768fc4f04b17e7da419657d978958b5bfe1815bf7dd3e239fb773eac19bd7b",
        "trajectories": "f13891c63f7debbc87c22b7a5dc1d69e309a915cbae435c9c4569f37377e64d9",
        "report": "f38d04a7c02763c0d1a79af5e6ee805658c75527dd75f9b2b14fe0e1c04811fc",
        "export": "6ea9e94ee777174de8e3082b8d033a23bb9a1fd6a5390127aa73e819cf28ad4a",
    },
}


def _tree_digest(root):
    """SHA-256 of the files under ``root``: relative paths and bytes, in
    path order."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def _pipeline_digests(tmp_path, common, export=False):
    """SHA-256 of the manifest, of the trajectory files (names and bytes,
    in name order) and of the report of one three-command run; with
    ``export``, also of the frames that ``segment`` exported."""
    manifest = tmp_path / "manifest.jsonl"
    traj_dir = tmp_path / "trajectories"
    report = tmp_path / "report.jsonl"
    export_dir = tmp_path / "export"
    flags = ["--export-frames", str(export_dir)] if export else []
    assert main(["segment", *common, "--out", str(manifest), *flags]) == 0
    assert main(["track", *common, "--manifest", str(manifest), "--out", str(traj_dir)]) == 0
    assert main(["classify", *common, "--trajectories", str(traj_dir), "--out", str(report)]) == 0
    trajectories = hashlib.sha256()
    for path in sorted(traj_dir.iterdir()):
        trajectories.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    digests = {
        "manifest": hashlib.sha256(manifest.read_bytes()).hexdigest(),
        "trajectories": trajectories.hexdigest(),
        "report": hashlib.sha256(report.read_bytes()).hexdigest(),
    }
    if export:
        digests["export"] = _tree_digest(export_dir)
        # 23-46 MB a scenario, which pytest would otherwise keep.
        shutil.rmtree(export_dir)
    return digests


@pytest.mark.parametrize(
    "name", ["delivery_plus_replay", "match_5pct", "one_delivery", "three_lengths"]
)
def test_synthetic_backend_outputs(tmp_path, name):
    common = ["--scenario", name, "--backend", "synthetic"]
    assert _pipeline_digests(tmp_path, common, export=True) == GOLDEN[name]


@pytest.mark.parametrize("name", ["delivery_plus_replay", "one_delivery", "three_lengths"])
def test_file_backend_outputs(tmp_path, name):
    script = resolve_script(name)
    frames_dir = tmp_path / "frames"
    frames_dir.mkdir()
    for frame in frame_stream(script):
        write_pgm(frame.luma, frames_dir / f"{frame.index:06d}.pgm")
    backend = synthetic_backend(script)
    ann_path = tmp_path / "annotations.jsonl"
    dump_annotations([backend.by_index(i) for i in range(script.n_frames)], ann_path)
    common = [
        "--source", str(frames_dir),
        "--backend", f"file:{ann_path}",
        "--fps", f"{script.fps:g}",
        "--width", str(script.width),
        "--height", str(script.height),
    ]
    want = {key: digest for key, digest in GOLDEN[name].items() if key != "export"}
    assert _pipeline_digests(tmp_path, common) == want

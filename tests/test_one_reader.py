"""Every read of a dataset mixture or source image goes through
:meth:`ssk.dataset_io.Manifest.read`, which checks the file against the
manifest's sample rate and microphone count; no stage reads one around it."""

import shutil
import sys
import threading
from pathlib import Path

from ssk import dataset_io, evaluation, pipeline, simulation  # noqa: F401 (bound below)
from ssk.cli import main
from ssk.stages import METHODS


def test_every_mixture_and_image_read_goes_through_the_manifest(tmp_path, monkeypatch):
    read_wav, manifest_read = dataset_io.read_wav, dataset_io.Manifest.read
    inside = threading.local()
    stage = [""]
    reads: list[tuple[str, str, bool]] = []  # (stage, file name, through the manifest)

    def traced_manifest_read(self, relative, **kwargs):
        inside.depth = getattr(inside, "depth", 0) + 1
        try:
            return manifest_read(self, relative, **kwargs)
        finally:
            inside.depth -= 1

    def traced_read_wav(path, **kwargs):
        reads.append((stage[0], Path(path).name, getattr(inside, "depth", 0) > 0))
        return read_wav(path, **kwargs)

    monkeypatch.setattr(dataset_io.Manifest, "read", traced_manifest_read)
    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "ssk"]:
        if getattr(module, "read_wav", None) is read_wav:
            monkeypatch.setattr(module, "read_wav", traced_read_wav)

    scenes = ["--seed", "5", "--num-scenes", "2", "--num-speakers", "2", "--duration", "0.4"]
    assert main(["simulate", *scenes, "--out", str(tmp_path / "first")]) == 0
    pool = tmp_path / "pool"
    pool.mkdir()
    for dry in (tmp_path / "first" / "wav").glob("*_dry.wav"):
        shutil.copy(dry, pool)
    m = str(tmp_path / "data" / "manifest.json")
    runs = {"simulate": ["simulate", *scenes, "--source-dir", str(pool),
                         "--out", str(tmp_path / "data")],
            "features": ["features", "--manifest", m, "--out", str(tmp_path / "feat"),
                         "--features", "lps,cosipd,sinipd,af,dpr", "--cond", "tgt+intf"],
            "perturb": ["perturb", "--manifest", m, "--out", str(tmp_path / "sweep"),
                        "--direction-error-deg", "0,5", "--jobs", "2"]}
    for method in METHODS:
        est = str(tmp_path / method)
        runs[method] = ["separate", "--manifest", m, "--out", est, "--method", method,
                        "--jobs", "2"]
        runs[f"evaluate {method}"] = ["evaluate", "--manifest", m, "--estimates", est,
                                      "--out", str(tmp_path / f"{method}-report")]
    for label, argv in runs.items():
        stage[0] = label
        assert main(argv) == 0, label

    for label in runs:
        dataset = [through for s, name, through in reads
                   if s == label and name.endswith(("_mix.wav", "_img.wav"))]
        # simulate reads only its pool of dry sources.
        assert (dataset == []) if label == "simulate" else (dataset and all(dataset)), label
    assert {name for s, name, _ in reads if s == "simulate"} <= {p.name for p in pool.iterdir()}

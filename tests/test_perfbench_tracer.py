"""The benchmark's tracer (perfbench/tracer.py) wraps uqdvr functions by their
module attribute names, so renaming or dropping one breaks the traced
benchmark runs.  These tests load the tracer by path, install its wrappers,
run both experiment modes and a hixel estimate through them, and remove them
again."""

import importlib.util
from pathlib import Path

from uqdvr import classify, cli, density, render, synth, volcore

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
PATCHED = (classify, cli, density, render, synth, volcore, volcore.EnsembleVolume,
           classify.TransferFunction1D)


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def test_install_and_restore_every_wrapped_name():
    before = {owner: dict(vars(owner)) for owner in PATCHED}
    tracer = load_tracer()
    tracer.install_setup()
    tracer.install()
    try:
        wrapped = [(owner, name) for owner in PATCHED for name, value in vars(owner).items()
                   if value is not before[owner].get(name)]
        assert (cli, "downsample_hixel") in wrapped
        assert (cli, "build_distribution_volume") in wrapped
        assert (cli, "quantile_volumes_multi") in wrapped
    finally:
        tracer.restore()
    for owner in PATCHED:
        after = vars(owner)
        assert after.keys() == before[owner].keys(), owner
        assert all(after[name] is value for name, value in before[owner].items()), owner


def test_traced_fits_of_both_modes(tmp_path):
    common = {"dims": [8, 8, 8], "models": ["mean"], "qvals": [0.5], "size": [8, 8]}
    manifests = [
        {**common, "field": "tangle", "members": [3], "noise": {"kind": "gaussian"}},
        {**common, "mode": "hixel", "field": "nested-spheres", "brick": [2, 2, 2],
         "tf": "preset:spheres", "camera": "preset:spheres"},
    ]
    hi = synth.sample_field("nested-spheres", (8, 8, 8))
    volcore.save_raw(hi, tmp_path / "hi.f32raw", "f32")
    tracer = load_tracer()
    tracer.install()
    try:
        for i, manifest in enumerate(manifests):
            cli.run_experiment(manifest, tmp_path / str(i))
        assert cli.main(["estimate", "--volume", str(tmp_path / "hi.f32raw"),
                         "--dims", "8,8,8", "--brick", "2,2,2", "--model", "gaussian",
                         "--out", str(tmp_path / "hix.dvol")]) == 0
    finally:
        tracer.restore()
    fits = [s["attrs"] for s in tracer.spans if s["name"] == "density.fit"]
    # Per sample set: one fit per model and one multi-qval quantile fit.
    assert [(f["model"], f["voxels"]) for f in fits] == [
        ("mean", 512), ("quantile", 512), ("mean", 64), ("quantile", 64), ("gaussian", 64)]
    metrics = tracer.metrics(0)
    assert metrics["density.kde_s"] > 0 and metrics["density.const_voxels"] > 0


def test_traced_estimate_from_saved_ensemble(tmp_path):
    """The benchmark's traced estimate path: a file-backed ensemble, whose
    constant voxels the tracer counts through its members."""
    gt = synth.sample_field("constant(0.5)", (4, 4, 4))
    synth.save_ensemble(synth.make_ensemble(gt, synth.NoiseSpec("gaussian", sigma=0.0,
                                                                members=3)), tmp_path / "ens")
    tracer = load_tracer()
    tracer.install()
    try:
        assert cli.main(["estimate", "--ensemble", str(tmp_path / "ens"), "--model", "gaussian",
                         "--out", str(tmp_path / "g.dvol")]) == 0
    finally:
        tracer.restore()
    fits = [s["attrs"] for s in tracer.spans if s["name"] == "density.fit"]
    assert fits == [{"model": "gaussian", "voxels": 64, "const": 64}]

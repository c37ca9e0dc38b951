"""Byte-identity gate: sha256 of fits, renders and manifest outputs at seed 7.

golden.json holds one hash per output, next to the numpy and scipy versions
and the CPU model it was recorded under.  A refactor that keeps every output
byte passes this test with the table unchanged.  A change that moves outputs
on purpose re-records the table and says which keys moved and why:

    PYTHONPATH=src python tests/test_golden.py --record

rewrites golden.json and prints the keys that changed.  On another numpy,
scipy or CPU the hashes mean nothing, so the test fails and asks for a
re-record instead of passing or skipping.
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy

from uqdvr import presets, render
from uqdvr.cli import run_experiment
from uqdvr.density import (KdeConfig, brick_ensemble, build_distribution_volume,
                           downsample_hixel, quantile_volumes_multi)
from uqdvr.render import RenderJob, raycast, render_quartile_views
from uqdvr.synth import NoiseSpec, load_ensemble, make_ensemble, sample_field, save_ensemble
from uqdvr.volcore import MODEL_KINDS, DistributionVolume, ScalarGrid

GOLDEN = Path(__file__).with_name("golden.json")
SEED = 7
THREADS = (1, 2)
FITS = (("mean", {}), ("uniform", {}), ("gaussian", {}), ("samples", {}),
        ("gmm", {"k": 2}), ("quantile", {"qval": 0.125}))
# (scheme, fitted volume) of every render, each at 32^2 on 12^3 volumes.
RENDERS = (("mean", "mean"), ("uniform", "uniform"), ("gaussian", "gaussian"),
           ("gmm-ordered", "gmm"), ("gmm-mc", "gmm"), ("quantile-range", "quantile"),
           ("quantile-mean", "quantile"), ("tf2d", "uniform"))
SPHERE_RENDERS = (("mean", "mean"), ("quantile-mean", "quantile"),
                  ("quantile-range", "quantile"))


def environment() -> dict[str, str]:
    cpu = platform.processor() or platform.machine()
    try:
        lines = Path("/proc/cpuinfo").read_text().splitlines()
        cpu = next(ln.split(":", 1)[1].strip() for ln in lines if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"numpy": np.__version__, "scipy": scipy.__version__, "cpu": cpu}


def _sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _model_sha(vol: DistributionVolume) -> str:
    return _sha(*(getattr(vol.model, f) for f in vol.model.FIELDS))


def _tangle_ensemble(n: int, members: int):
    spec = NoiseSpec(members=members, seed=SEED, **presets.TANGLE_NOISE)
    gt = sample_field("tangle", (n, n, n))
    return gt, make_ensemble(gt, spec), spec


def _fit_outputs(tmp: Path) -> dict[str, str]:
    out = {}
    _, ens, spec = _tangle_ensemble(8, 12)
    save_ensemble(ens, tmp / "ens", spec, field="tangle")
    for source, e in (("memory", ens), ("files", load_ensemble(tmp / "ens"))):
        for threads in THREADS:
            for kind, opts in FITS:
                vol = build_distribution_volume(e, kind, threads=threads, **opts)
                out[f"fit/{kind}/{source}/t{threads}"] = _model_sha(vol)
    # 10^3 = 1,000 voxels cross the 512-row EM sub-block boundary; 8^3 does not.
    _, ens10, _ = _tangle_ensemble(10, 12)
    for threads in THREADS:
        vol = build_distribution_volume(ens10, "gmm", threads=threads, k=2)
        out[f"fit/gmm/memory-10/t{threads}"] = _model_sha(vol)
    for qv, vol in quantile_volumes_multi(ens, [0.25, 0.125]).items():
        out[f"fit/quantile-multi/q{round(1 / qv)}"] = _model_sha(vol)
    vol, mean_grid = downsample_hixel(sample_field("nested-spheres", (16, 16, 16)), (4, 4, 4),
                                      "quantile", qval=0.125, config=KdeConfig(bandwidth=0.02))
    out["fit/hixel-quantile"] = _model_sha(vol)
    out["fit/hixel-quantile/mean"] = _sha(mean_grid.values)
    return out


def _render_outputs() -> dict[str, str]:
    out = {}
    _, ens, _ = _tangle_ensemble(12, 12)
    vols = {kind: build_distribution_volume(ens, kind, **opts) for kind, opts in FITS
            if kind != "samples"}
    mean_grid = ScalarGrid(ens.dims, ens.spacing, ens.origin, vols["mean"].model.values)
    tf, tf2 = presets.tangle_tf(), presets.fiber_tf2d()
    for threads in THREADS:
        for scheme, kind in RENDERS:
            vol = vols[kind]
            job = RenderJob(vol, scheme, presets.tangle_camera(vol, 32, 32), tf=tf, tf2=tf2,
                            seed=SEED, mean_grid=mean_grid, tf2d_samples=64)
            out[f"render/{scheme}/t{threads}"] = _sha(raycast(job, threads=threads).pixels)
        vol = vols["quantile"]
        job = RenderJob(vol, "quantile-range", presets.tangle_camera(vol, 32, 32), tf=tf,
                        seed=SEED)
        views = render_quartile_views(vol, job, threads=threads)
        for name, img in zip(("lower", "middle", "upper"), views):
            out[f"render/quartile-{name}/t{threads}"] = _sha(img.pixels)
    # Quartile views at the narrowest and a wide piece count beside the q=8 above.
    for q in (4, 32):
        vol = build_distribution_volume(ens, "quantile", qval=1.0 / q)
        job = RenderJob(vol, "quantile-range", presets.tangle_camera(vol, 32, 32), tf=tf,
                        seed=SEED)
        for threads in THREADS:
            views = render_quartile_views(vol, job, threads=threads)
            for name, img in zip(("lower", "middle", "upper"), views):
                out[f"render/quartile-{name}-q{q}/t{threads}"] = _sha(img.pixels)
    # Nested spheres at 32^3 (64^3 in 2^3 bricks), 96^2 in three chunks: most
    # samples lie in empty space, and the box corners are 4 or more cells from
    # any visible shell.
    ens = brick_ensemble(sample_field("nested-spheres", (64, 64, 64)), (2, 2, 2))
    spheres = {"mean": build_distribution_volume(ens, "mean"),
               "quantile": build_distribution_volume(ens, "quantile", qval=0.125,
                                                     config=KdeConfig(bandwidth=0.02))}
    for threads in THREADS:
        for scheme, kind in SPHERE_RENDERS:
            vol = spheres[kind]
            job = RenderJob(vol, scheme, presets.spheres_camera(vol, 96, 96),
                            tf=presets.spheres_tf(), seed=SEED)
            out[f"render/spheres-{scheme}/t{threads}"] = _sha(raycast(job, threads=threads).pixels)
    return out


def _manifest_outputs(tmp: Path) -> dict[str, str]:
    out = {}
    manifests = {
        "tangle": presets.tangle_manifest(dims=(16, 16, 16), members=(8,), size=(32, 32),
                                          seed=SEED),
        "spheres": presets.spheres_manifest(dims=(32, 32, 32), size=(32, 32), seed=SEED),
    }
    for name, manifest in manifests.items():
        run_experiment(manifest, tmp / name)
        for p in sorted((tmp / name).iterdir()):
            out[f"manifest/{name}/{p.name}"] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


def outputs(tmp: Path) -> dict[str, str]:
    return {**_fit_outputs(tmp), **_render_outputs(), **_manifest_outputs(tmp)}


def test_the_table_covers_every_scheme_and_fit_kind():
    """A scheme or fit kind added later is gated here too."""
    assert sorted(scheme for scheme, _ in RENDERS) == sorted(render.SCHEMES)
    assert sorted(kind for kind, _ in FITS) == sorted(MODEL_KINDS)


def test_in_memory_and_on_disk_fits_are_the_same_bytes():
    """An ensemble fitted in memory and after a save and a load: both hold
    the same float32 members, so every fit keeps its bytes."""
    table = json.loads(GOLDEN.read_text())["sha256"]
    memory = sorted(k for k in table if "/memory/" in k)
    assert len(memory) == len(FITS) * len(THREADS)
    for key in memory:
        assert table[key] == table[key.replace("/memory/", "/files/")], key


def test_outputs_match_the_recorded_table(tmp_path):
    table = json.loads(GOLDEN.read_text())
    if table["environment"] != environment():
        pytest.fail(f"golden.json was recorded under {table['environment']}, this is "
                    f"{environment()}: re-record it with "
                    "`PYTHONPATH=src python tests/test_golden.py --record`")
    got, want = outputs(tmp_path), table["sha256"]
    changed = sorted(k for k in got.keys() | want.keys() if got.get(k) != want.get(k))
    assert not changed, f"{len(changed)} of {len(want)} outputs changed: {changed}"


def record() -> None:
    """Rewrite golden.json from this tree and print the keys that changed."""
    old = json.loads(GOLDEN.read_text())["sha256"] if GOLDEN.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        new = outputs(Path(tmp))
    GOLDEN.write_text(json.dumps({"environment": environment(), "sha256": new}, indent=1,
                                 sort_keys=True) + "\n")
    changed = sorted(k for k in new.keys() | old.keys() if new.get(k) != old.get(k))
    print(f"{len(new)} outputs recorded, {len(changed)} changed")
    for key in changed:
        print(key)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden.py --record")
    record()

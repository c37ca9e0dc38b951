"""The benchmark's workloads.

Each workload has a set-up step that writes its inputs from the seed, a
loader, a timed body that calls into `uqdvr`, checks on the body's outputs,
a digest of those outputs for byte comparisons, and one operation repeated
at another thread count to check that output bytes do not depend on it.

The body looks up every `uqdvr` function through its module at call time, so
that the tracer's wrappers see the calls.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

REFERENCE_SEED = 7
MEMBERS = 50
REFERENCE = json.loads((Path(__file__).with_name("reference.json")).read_text())


def tangle_ensemble(dims, seed: int):
    """The declared tangle field and its M=50 bimodal noise ensemble."""
    from uqdvr import presets, synth

    spec = synth.NoiseSpec(members=MEMBERS, seed=seed, **presets.TANGLE_NOISE)
    gt = synth.sample_field("tangle", dims)
    return gt, synth.make_ensemble(gt, spec), spec


def file_digests(root: Path) -> dict[str, str]:
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def image_problems(name: str, img, width: int, height: int, nonblank: bool) -> list[str]:
    px = img.pixels
    if px.shape != (height, width, 4):
        return [f"{name}: shape {px.shape} != {(height, width, 4)}"]
    if not np.all(np.isfinite(px)):
        return [f"{name}: non-finite pixels"]
    if px.min() < 0.0 or px.max() > 1.0:
        return [f"{name}: pixels outside [0, 1]"]
    if nonblank and px[..., :3].max() < 0.05:
        return [f"{name}: image is blank"]
    return []


def compare(a: dict, b: dict, what: str) -> list[str]:
    if a.keys() != b.keys():
        return [f"{what}: output names differ"]
    return [f"{what}: {k} differs" for k in sorted(a) if a[k] != b[k]]


# ---------------------------------------------------------------------------


class Workload:
    """Defaults: outputs are the files under the output directory, and the
    workload reports no metric beyond the end-to-end ones."""

    def digests(self, result: dict, out: Path) -> dict[str, str]:
        return file_digests(out)

    def extra_metrics(self, result: dict) -> dict[str, float]:
        return {}


class Manifests(Workload):
    """`cli.run_experiment` on the tangle manifest at 32^3 / 128^2 and on the
    spheres manifest as declared (128^3, brick 4^3, 256^2)."""

    name = "manifests"
    threads = 1

    def setup(self, seed: int, inputs: Path) -> None:
        from uqdvr import presets

        manifests = {
            "tangle": presets.tangle_manifest(dims=(32, 32, 32), size=(128, 128), seed=seed),
            "spheres": presets.spheres_manifest(seed=seed),
        }
        (inputs / "manifests.json").write_text(json.dumps(manifests))

    def load(self, seed: int, inputs: Path) -> dict:
        return {"seed": seed, "manifests": json.loads((inputs / "manifests.json").read_text())}

    def body(self, ctx: dict, out: Path, threads: int) -> dict:
        import uqdvr.cli

        return {name: uqdvr.cli.run_experiment(m, out / name, threads=threads)
                for name, m in ctx["manifests"].items()}

    def check(self, ctx: dict, result: dict, out: Path) -> list[str]:
        from uqdvr.render import load_image_f32
        from uqdvr.volcore import VolumeError

        bad = []
        for name, manifest in ctx["manifests"].items():
            rows = result[name]
            want = (len(manifest.get("models", [])) + len(manifest.get("qvals", []))
                    * len(manifest.get("quantile_schemes", [])))
            if len(rows) != want:
                bad.append(f"{name}: {len(rows)} result rows, expected {want}")
            for r in rows:
                if not (0.0 < r["rmse"] < 1.0):
                    bad.append(f"{name}: rmse {r['rmse']!r} for {r['scheme']} q={r['q']}")
            if not (out / name / "results.csv").is_file():
                bad.append(f"{name}: results.csv missing")
            width, height = manifest["size"]
            sidecars = sorted((out / name).glob("*.ppm.f32"))
            if len(sidecars) != want + 1:
                bad.append(f"{name}: {len(sidecars)} images, expected {want + 1}")
            for side in sidecars:
                try:
                    img = load_image_f32(side)
                except VolumeError as e:
                    bad.append(f"{name}: {side.name}: {e}")
                    continue
                bad += image_problems(f"{name}/{side.name}", img, width, height, nonblank=True)
                ppm = side.with_suffix("")
                if ppm.stat().st_size != len(f"P6\n{width} {height}\n255\n") + width * height * 3:
                    bad.append(f"{name}: {ppm.name} has the wrong size")
        if ctx["seed"] == REFERENCE_SEED:
            bad += self._reference_problems(result)
        return bad

    def _reference_problems(self, result: dict) -> list[str]:
        """Quantile-mean RMSE rows against the rows recorded at the reference
        seed.  Baseline-scheme rows are not compared: their classification
        is expected to change."""
        tol = REFERENCE["rmse_abs_tolerance"]
        bad = []
        for name, ref_rows in REFERENCE["quantile_mean_rmse"].items():
            got = {str(r["q"]): r["rmse"] for r in result[name] if r["scheme"] == "quantile-mean"}
            for q, ref in ref_rows.items():
                if q not in got or abs(got[q] - ref) > tol:
                    bad.append(f"{name}: quantile-mean q={q} rmse {got.get(q)} vs reference "
                               f"{ref} (tolerance {tol})")
        return bad

    def extra_metrics(self, result: dict) -> dict[str, float]:
        def qm8(rows):
            return next(r["rmse"] for r in rows
                        if r["scheme"] == "quantile-mean" and r["q"] == 8)
        return {"rmse_tangle_qm8": qm8(result["tangle"]),
                "rmse_spheres_qm8": qm8(result["spheres"])}

    def determinism(self, ctx: dict, result: dict, out: Path, spare: Path) -> list[str]:
        """The spheres manifest at threads=2 against the body's threads=1 run."""
        import uqdvr.cli

        uqdvr.cli.run_experiment(ctx["manifests"]["spheres"], spare / "spheres", threads=2)
        return compare(file_digests(spare / "spheres"), file_digests(out / "spheres"),
                       "spheres threads=2 vs threads=1")


# ---------------------------------------------------------------------------

RENDER_SIZE = 128
TF2D_SIZE = 24
# (output name, scheme, volume); every render is RENDER_SIZE^2.
RENDERS = (
    ("mean", "mean", "mean"),
    ("gaussian", "gaussian", "gaussian"),
    ("uniform", "uniform", "uniform"),
    ("gmm-ordered", "gmm-ordered", "gmm"),
    ("gmm-mc", "gmm-mc", "gmm"),
    ("quantile-range-q8", "quantile-range", "q8"),
    ("quantile-mean-q8", "quantile-mean", "q8"),
    ("quantile-range-q32", "quantile-range", "q32"),
    ("quantile-mean-q32", "quantile-mean", "q32"),
)
QUARTILES = ("quartile-lower-q8", "quartile-middle-q8", "quartile-upper-q8")


def empirical_quantiles(sorted_rows: np.ndarray, q: int) -> np.ndarray:
    """q+1 boundaries per row at masses 0, 1/q, ..., 1 by linear
    interpolation between order statistics."""
    m = sorted_rows.shape[1]
    pos = np.linspace(0.0, 1.0, q + 1) * (m - 1)
    lo = np.floor(pos).astype(np.int64)
    hi = np.minimum(lo + 1, m - 1)
    frac = pos - lo
    b = sorted_rows[:, lo] * (1.0 - frac) + sorted_rows[:, hi] * frac
    # Rounding can step back by an ulp between tied order statistics.
    return np.maximum.accumulate(b, axis=1)


class Render(Workload):
    """`render.raycast` of every scheme at 128^2 on 64^3 tangle volumes built
    with numpy from an M=50 bimodal ensemble, quartile views at q=8, and tf2d
    at 24^2."""

    name = "render"
    threads = 2

    def setup(self, seed: int, inputs: Path) -> None:
        from uqdvr import presets

        gt, ens, _ = tangle_ensemble((64, 64, 64), seed)
        s = ens.stacked()
        srt = np.sort(s, axis=1)
        noise = presets.TANGLE_NOISE
        arrays = {
            "q8": empirical_quantiles(srt, 8),
            "q32": empirical_quantiles(srt, 32),
            "mean": s.mean(axis=1),
            "sigma": s.std(axis=1, ddof=1),
            "lo": srt[:, 0],
            "hi": srt[:, -1],
            # The analytic two-component mixture behind the bimodal noise.
            "gmm_means": np.stack([gt.values, gt.values + noise["offset"]], axis=1),
        }
        for key, arr in arrays.items():
            np.save(inputs / f"{key}.npy", arr)
        geo = {"dims": gt.dims, "spacing": gt.spacing, "origin": gt.origin,
               "p_main": noise["p_main"], "sigmas": [noise["sigma"], noise["outlier_sigma"]]}
        (inputs / "geometry.json").write_text(json.dumps(geo))

    def load(self, seed: int, inputs: Path) -> dict:
        from uqdvr import presets
        from uqdvr.volcore import (DistributionVolume, GaussianModel, GmmVolumeModel,
                                   MeanFieldModel, QuantileModel, ScalarGrid, UniformModel)

        geo = json.loads((inputs / "geometry.json").read_text())
        g = (tuple(geo["dims"]), tuple(geo["spacing"]), tuple(geo["origin"]))
        a = {p.stem: np.load(p) for p in inputs.glob("*.npy")}
        n = a["mean"].size
        weights = np.tile([geo["p_main"], 1.0 - geo["p_main"]], (n, 1))
        models = {
            "mean": MeanFieldModel(a["mean"]),
            "gaussian": GaussianModel(a["mean"], a["sigma"]),
            "uniform": UniformModel(0.5 * (a["lo"] + a["hi"]), a["hi"] - a["lo"]),
            "gmm": GmmVolumeModel(2, weights, a["gmm_means"], np.tile(geo["sigmas"], (n, 1))),
            "q8": QuantileModel(1.0 / 8, a["q8"]),
            "q32": QuantileModel(1.0 / 32, a["q32"]),
        }
        return {
            "seed": seed,
            "volumes": {k: DistributionVolume(*g, m) for k, m in models.items()},
            "mean_grid": ScalarGrid(*g, a["mean"]),
            "tf": presets.tangle_tf(),
            "tf2": presets.fiber_tf2d(),
        }

    def _job(self, ctx: dict, scheme: str, vol_key: str, size: int = RENDER_SIZE, **kw):
        import uqdvr.presets
        import uqdvr.render

        vol = ctx["volumes"][vol_key]
        cam = uqdvr.presets.tangle_camera(vol, size, size)
        return uqdvr.render.RenderJob(vol, scheme, cam, seed=ctx["seed"], **kw)

    def body(self, ctx: dict, out: Path, threads: int) -> dict:
        import uqdvr.render

        images = {}
        for name, scheme, vol_key in RENDERS:
            job = self._job(ctx, scheme, vol_key, tf=ctx["tf"])
            images[name] = uqdvr.render.raycast(job, threads=threads)
        job = self._job(ctx, "quantile-range", "q8", tf=ctx["tf"])
        views = uqdvr.render.render_quartile_views(ctx["volumes"]["q8"], job, threads=threads)
        images.update(zip(QUARTILES, views))
        job = self._job(ctx, "tf2d", "uniform", size=TF2D_SIZE, tf2=ctx["tf2"],
                        mean_grid=ctx["mean_grid"])
        images["tf2d"] = uqdvr.render.raycast(job, threads=threads)
        return images

    def check(self, ctx: dict, result: dict, out: Path) -> list[str]:
        bad = []
        want = [r[0] for r in RENDERS] + list(QUARTILES) + ["tf2d"]
        if list(result) != want:
            return [f"rendered {list(result)}, expected {want}"]
        for name, img in result.items():
            size = TF2D_SIZE if name == "tf2d" else RENDER_SIZE
            bad += image_problems(name, img, size, size, nonblank=name != "tf2d")
        return bad

    def digests(self, result: dict, out: Path) -> dict[str, str]:
        return {k: hashlib.sha256(img.pixels.tobytes()).hexdigest() for k, img in result.items()}

    def determinism(self, ctx: dict, result: dict, out: Path, spare: Path) -> list[str]:
        """gmm-mc, the scheme with per-chunk random streams, at threads=1
        against the body's threads=2 render."""
        import uqdvr.render

        img = uqdvr.render.raycast(self._job(ctx, "gmm-mc", "gmm", tf=ctx["tf"]), threads=1)
        return compare({"gmm-mc": img.pixels.tobytes()},
                       {"gmm-mc": result["gmm-mc"].pixels.tobytes()},
                       "gmm-mc threads=1 vs threads=2")


# ---------------------------------------------------------------------------

# (output file, ensemble, estimate options, expected model class, dims)
ESTIMATES = (
    ("quantile.qvol", "e24", ["--model", "quantile", "--qval", "0.125"], "QuantileModel", 24),
    ("gmm.dvol", "e24", ["--model", "gmm", "--k", "2"], "GmmVolumeModel", 24),
    ("gaussian.dvol", "e96", ["--model", "gaussian"], "GaussianModel", 96),
    ("uniform.dvol", "e96", ["--model", "uniform"], "UniformModel", 96),
)
ENSEMBLE_DIMS = {"e24": 24, "e96": 96}


def _member_stats(ens_dir: Path, n_vox: int) -> dict[str, np.ndarray]:
    """Per-voxel mean, sigma, min and max read straight from the member
    files, one member at a time."""
    s1 = np.zeros(n_vox)
    s2 = np.zeros(n_vox)
    lo = np.full(n_vox, np.inf)
    hi = np.full(n_vox, -np.inf)
    for i in range(MEMBERS):
        v = np.fromfile(ens_dir / f"member_{i:03d}.f32raw", dtype="<f4").astype(np.float64)
        s1 += v
        s2 += v * v
        np.minimum(lo, v, out=lo)
        np.maximum(hi, v, out=hi)
    mean = s1 / MEMBERS
    var = np.maximum(s2 - MEMBERS * mean * mean, 0.0) / (MEMBERS - 1)
    return {"mean": mean, "sigma": np.sqrt(var), "lo": lo, "hi": hi}


def _close(a, b, tol: float) -> bool:
    return bool(np.all(np.abs(a - b) <= tol * (1.0 + np.abs(b))))


class Estimate(Workload):
    """`cli.main(["--threads", "2", "estimate", ...])` in-process: quantile
    q=8 and gmm k=2 from a 24^3 ensemble, gaussian and uniform from a 96^3
    ensemble, each M=50 and on disk."""

    name = "estimate"
    threads = 2

    def setup(self, seed: int, inputs: Path) -> None:
        from uqdvr import synth

        for key, n in ENSEMBLE_DIMS.items():
            _, ens, spec = tangle_ensemble((n, n, n), seed)
            synth.save_ensemble(ens, inputs / key, spec, field="tangle")

    def load(self, seed: int, inputs: Path) -> dict:
        return {"seed": seed, "inputs": inputs, "stats": {}}

    def _estimate(self, ctx: dict, out_file: Path, ens: str, opts: list[str], threads: int) -> int:
        import uqdvr.cli

        return uqdvr.cli.main(["--threads", str(threads), "estimate",
                               "--ensemble", str(ctx["inputs"] / ens), *opts,
                               "--out", str(out_file)])

    def body(self, ctx: dict, out: Path, threads: int) -> dict:
        out.mkdir(parents=True, exist_ok=True)
        return {fname: self._estimate(ctx, out / fname, ens, opts, threads)
                for fname, ens, opts, _, _ in ESTIMATES}

    def check(self, ctx: dict, result: dict, out: Path) -> list[str]:
        from uqdvr import volcore

        bad = []
        for fname, ens, _, model_cls, n in ESTIMATES:
            if result.get(fname) != 0:
                bad.append(f"{fname}: estimate exited {result.get(fname)}")
                continue
            try:
                vol = volcore.load_volume(out / fname)
            except volcore.VolumeError as e:
                bad.append(f"{fname}: does not reload: {e}")
                continue
            if type(vol.model).__name__ != model_cls or vol.dims != (n, n, n):
                bad.append(f"{fname}: reloads as {type(vol.model).__name__} {vol.dims}")
                continue
            if ens not in ctx["stats"]:
                ctx["stats"][ens] = _member_stats(ctx["inputs"] / ens, n ** 3)
            bad += [f"{fname}: {p}" for p in _model_problems(vol.model, ctx["stats"][ens])]
        return bad

    def determinism(self, ctx: dict, result: dict, out: Path, spare: Path) -> list[str]:
        """The quantile fit at threads=1 against the body's threads=2 fit."""
        fname, ens, opts, _, _ = ESTIMATES[0]
        spare.mkdir(parents=True, exist_ok=True)
        if self._estimate(ctx, spare / fname, ens, opts, threads=1) != 0:
            return [f"{fname}: threads=1 estimate failed"]
        return compare(file_digests(spare), {fname: file_digests(out)[fname]},
                       "quantile threads=1 vs threads=2")


def _model_problems(model, st: dict[str, np.ndarray]) -> list[str]:
    """Fitted parameters against statistics of the member files.  Stored
    parameters are f32, hence the 1e-6 relative tolerance."""
    lo, hi = st["lo"], st["hi"]
    name = type(model).__name__
    if name == "GaussianModel":
        if not (_close(model.mean, st["mean"], 1e-6) and _close(model.sigma, st["sigma"], 1e-5)):
            return ["gaussian mean/sigma disagree with the member files"]
    elif name == "UniformModel":
        if not (_close(model.center, 0.5 * (lo + hi), 1e-6) and _close(model.width, hi - lo, 1e-6)):
            return ["uniform center/width disagree with the member files"]
    elif name == "QuantileModel":
        b = model.boundaries
        # The KDE lattice spans [min - 3h, max + 3h] with h from Silverman's
        # rule, and the KDE median lies in [min, max] up to one lattice cell.
        h = 1.06 * st["sigma"] * MEMBERS ** -0.2
        cell = (hi - lo + 6.0 * h) / 511 + 1e-5
        if model.q != 8:
            return [f"q={model.q}, expected 8"]
        if np.any(b[:, 0] < lo - 3 * h - cell) or np.any(b[:, -1] > hi + 3 * h + cell):
            return ["quantile boundaries outside the KDE lattice"]
        if np.any(b[:, 4] < lo - cell) or np.any(b[:, 4] > hi + cell):
            return ["quantile median outside the sample range"]
    elif name == "GmmVolumeModel":
        if model.k != 2:
            return [f"k={model.k}, expected 2"]
        if not _close(model.weights.sum(axis=1), 1.0, 1e-5):
            return ["gmm weights do not sum to 1"]
        if np.any(model.means < lo[:, None] - 1e-5) or np.any(model.means > hi[:, None] + 1e-5):
            return ["gmm means outside the sample range"]
        if np.any(model.sigmas <= 0):
            return ["gmm sigmas not positive"]
    return []


WORKLOADS = {w.name: w for w in (Manifests(), Render(), Estimate())}

"""Command-line interface: the full pipeline as reproducible subcommands."""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from . import presets, render, volcore
from .classify import load_tf1d, load_tf2d
from .density import (KdeConfig, brick_ensemble, build_distribution_volume, downsample_hixel,
                      quantile_volumes_multi)
from .render import Camera, RenderJob, diff_image, load_image_f32, raycast, render_quartile_views, save_image
from .synth import NoiseSpec, load_ensemble, make_ensemble, noisy_members, sample_field, save_members
from .volcore import (
    DistributionVolume,
    MeanFieldModel,
    VolumeError,
    load_raw,
    load_volume,
    require_int,
    require_ints,
    require_positive,
    save_dvol,
    save_qvol,
    save_raw,
)


def _stage(msg: str) -> None:
    print(msg, file=sys.stderr)


def _parse_counts(text: str, n: int, form: str) -> tuple[int, ...]:
    """n integers separated by x, X or commas."""
    parts = text.lower().replace("x", ",").split(",")
    if len(parts) != n:
        raise argparse.ArgumentTypeError(f"expected {form} ({n} integers), got {text!r}")
    return tuple(int(p) for p in parts)


def parse_dims(text: str) -> tuple[int, int, int]:
    return _parse_counts(text, 3, "WxHxD")


def parse_size(text: str) -> tuple[int, int]:
    return _parse_counts(text, 2, "WxH")


def parse_noise(text: str, members: int, seed: int) -> NoiseSpec:
    kind, _, rest = text.partition(":")
    kwargs = {}
    if rest:
        for item in rest.split(","):
            key, _, val = item.partition("=")
            try:
                kwargs[key.strip()] = float(val)
            except ValueError:
                raise VolumeError(f"bad noise option {item!r}") from None
    try:
        return NoiseSpec(kind=kind.strip(), members=members, seed=seed, **kwargs)
    except TypeError as e:
        raise VolumeError(f"bad noise spec {text!r}: {e}") from e


def parse_camera(text: str, volume, width: int, height: int) -> Camera:
    if text.startswith("preset:"):
        return presets.preset_camera(text.split(":", 1)[1], volume, width, height)
    try:
        vals = [float(v) for v in text.split(",")]
    except ValueError:
        vals = []
    if len(vals) != 10:
        raise VolumeError("camera needs 10 values: eye, look-at, up, fov")
    return Camera(tuple(vals[0:3]), tuple(vals[3:6]), tuple(vals[6:9]),
                  vals[9], width, height)


def resolve_tf1d(text: str):
    if text.startswith("preset:"):
        return presets.preset_tf1d(text.split(":", 1)[1])
    return load_tf1d(text)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_gen(args) -> int:
    spec = parse_noise(args.noise, args.members, args.seed)
    gt = sample_field(args.field, args.dims)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_raw(gt, out / "gt.f32raw", "f32")
    _stage(f"gen: field={args.field} dims={args.dims} members={spec.members}")
    save_members(noisy_members(gt, spec), out, spec, field=args.field)
    return 0


def cmd_estimate(args) -> int:
    cfg = KdeConfig(lattice=args.kde_lattice)
    mean_grid = None
    if args.brick is not None:
        if args.volume is None or args.dims is None:
            raise VolumeError("hixel estimation needs --volume and --dims")
        hi = load_raw(args.volume, args.dims, args.encoding)
        vol, mean_grid = downsample_hixel(hi, args.brick, args.model, qval=args.qval,
                                          k=args.k, config=cfg, threads=args.threads)
        _stage(f"estimate: fitted hixel {args.model} brick={args.brick}")
    else:
        if args.ensemble is None:
            raise VolumeError("estimation needs --ensemble or --volume with --brick")
        ens = load_ensemble(args.ensemble)
        _stage(f"estimate: {args.model} from M={ens.member_count} ensemble")
        vol = build_distribution_volume(ens, args.model, qval=args.qval, k=args.k,
                                        config=cfg, threads=args.threads)
    if isinstance(vol.model, volcore.QuantileModel):
        save_qvol(vol, args.out)
    else:
        save_dvol(vol, args.out)
    if mean_grid is not None:  # after the save that rejects an --out such as "."
        save_raw(mean_grid, Path(args.out).with_suffix(".mean.f32raw"), "f32")
    return 0


def _job_from_args(args, scheme, volume, **extra) -> RenderJob:
    """The job of the flags that render and quartiles share."""
    width, height = args.size
    cam = parse_camera(args.camera, volume, width, height)
    tf = resolve_tf1d(args.tf) if args.tf else None
    return RenderJob(volume, scheme, cam, tf=tf, step=args.step, **extra)


def cmd_render(args) -> int:
    volume = load_volume(args.volume, dims=args.dims, encoding=args.encoding)
    tf2 = load_tf2d(args.tf2d) if args.tf2d else None
    mean_grid = (load_raw(args.mean_volume, volume.dims, "f32", volume.spacing, volume.origin)
                 if args.mean_volume else None)
    job = _job_from_args(args, args.scheme, volume, tf2=tf2, seed=args.seed,
                         mean_grid=mean_grid, mc_samples=args.mc_samples,
                         tf2d_samples=args.tf2d_samples)
    _stage(f"render: scheme={args.scheme} size={args.size[0]}x{args.size[1]}")
    img = raycast(job, threads=args.threads)
    save_image(img, args.out)
    return 0


def cmd_quartiles(args) -> int:
    out = Path(args.out)
    if not out.name:  # the three view names derive from it
        raise VolumeError(f"--out {args.out!r} names no file")
    job = _job_from_args(args, "quantile-range", load_volume(args.volume))
    _stage("quartiles: lower / middle / upper")
    views = render_quartile_views(job.volume, job, threads=args.threads)
    for name, img in zip(("lower", "middle", "upper"), views):
        save_image(img, out.with_suffix(f".{name}{out.suffix or '.ppm'}"))
    return 0


def cmd_diff(args) -> int:
    img = load_image_f32(args.img)
    ref = load_image_f32(args.ref)
    diff, rmse = diff_image(img, ref, scale=args.scale)
    if args.out:
        save_image(diff, args.out)
    print(f"rmse={rmse:.6g}")
    return 0


# ---------------------------------------------------------------------------
# Experiment pipeline


_MANIFEST_KEYS = {"mode", "field", "dims", "models", "k", "qvals", "quantile_schemes",
                  "kde_bandwidth", "kde_lattice", "tf", "camera", "size", "step", "seed"}
_MODE_KEYS = {"ensemble": {"noise", "members"}, "hixel": {"brick"}}


def run_experiment(manifest: dict, outdir, threads: int = 1) -> list[dict]:
    """Execute a manifest end to end; returns the result rows and writes
    images plus results.csv (scheme, q, M, rmse) under outdir.

    Every sample set runs the same fits and renders: in ensemble mode one
    noise ensemble per members entry, in hixel mode the bricks of the
    ground truth as one ensemble on the brick-centre lattice."""
    threads = require_int(threads, "threads")
    try:
        mode = manifest.get("mode", "ensemble")
        if mode not in _MODE_KEYS:
            raise VolumeError(f"unknown experiment mode {mode!r}")
        unknown = sorted(set(manifest) - _MANIFEST_KEYS - _MODE_KEYS[mode])
        if unknown:
            raise VolumeError(f"{mode} mode reads no keys {unknown}")
        field, dims = manifest["field"], require_ints(manifest["dims"], 3, "dims")
        tf, cam = manifest.get("tf", "preset:tangle"), manifest.get("camera", "preset:tangle")
        if not (isinstance(field, str) and isinstance(tf, str)):
            raise TypeError("field and tf must be text")
        cam = cam if isinstance(cam, str) else ",".join(str(v) for v in cam)
        width, height = require_ints(manifest.get("size", [256, 256]), 2, "image size")
        step = float(require_positive(manifest.get("step", 0.5), "step", ()))
        seed = require_int(manifest.get("seed", 0), "seed", 0)
        k = require_int(manifest.get("k", 4), "k")
        qvals = [float(q) for q in manifest.get("qvals", [])]
        for qv in qvals:
            volcore._quantile_masses(qv)  # VolumeError unless a unit fraction
        qs = [round(1.0 / qv) for qv in qvals]
        models = list(manifest.get("models", []))
        fit_kinds = [render.scheme_model(scheme).kind for scheme in models]
        qschemes = list(manifest.get("quantile_schemes", ["quantile-mean"]))
        qkinds = [render.scheme_model(scheme).kind for scheme in qschemes]
        if "quantile" in fit_kinds or any(kind != "quantile" for kind in qkinds):
            raise VolumeError("quantile schemes belong in quantile_schemes, the others in models")
        if "tf2d" in models:
            raise VolumeError("tf2d scheme needs a 2D transfer function; manifests take 1D ones")
        cfg = KdeConfig(bandwidth=manifest.get("kde_bandwidth", "auto"),
                        lattice=manifest.get("kde_lattice", KdeConfig.lattice))
        if mode == "ensemble":
            noise = {"kind": None, **manifest.get("noise", {"kind": "bimodal"})}
            specs = [NoiseSpec(**noise, members=m, seed=seed)
                     for m in manifest.get("members", [50])]
            sizes = [spec.members for spec in specs]
        else:
            brick = require_ints(manifest.get("brick", [4, 4, 4]), 3, "brick size")
            sizes = [brick[0] * brick[1] * brick[2]]
        if not sizes:
            raise VolumeError("members must name at least one ensemble size")
        # Each entry names its images and result rows, so a repeat would overwrite them.
        for what, entries in (("members", sizes), ("models", models),
                              ("quantile_schemes", qschemes), ("qvals' q", qs)):
            if len(set(entries)) != len(entries):
                raise VolumeError(f"{what} must not repeat an entry, got {entries}")
        for m in sizes:  # M of each sample set
            if m < 2 and (qvals or any(kind != "mean" for kind in fit_kinds)):
                raise VolumeError(f"non-mean models and qvals need M >= 2, got M={m}")
            if "gmm" in fit_kinds and k > m:
                raise VolumeError(f"gmm models need k <= M, got k={k} and M={m}")
    except (KeyError, TypeError, ValueError) as e:
        raise VolumeError(f"bad experiment manifest: {e}") from None

    gt = sample_field(field, dims)
    if mode == "hixel":
        sample_sets = [brick_ensemble(gt, brick)]
    else:
        sample_sets = (make_ensemble(gt, spec) for spec in specs)
    gt_vol = DistributionVolume(gt.dims, gt.spacing, gt.origin, MeanFieldModel(gt.values))
    tf = resolve_tf1d(tf)
    camera = parse_camera(cam, gt_vol, width, height)
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    rows: list[dict] = []

    def render_to(tag, volume, scheme):
        job = RenderJob(volume, scheme, camera, tf=tf, step=step, seed=seed)
        img = raycast(job, threads=threads)
        save_image(img, outdir / f"{tag}.ppm")
        return img

    def add_row(name, volume, scheme, q, m):
        tag = f"hixel_{name}" if mode == "hixel" else f"{name}_m{m}"
        _, rmse = diff_image(render_to(tag, volume, scheme), ref)
        rows.append({"scheme": scheme, "q": q, "M": m, "rmse": rmse})

    _stage(f"experiment: {mode} mode, rendering the reference")
    ref = render_to("ground_truth" if mode == "ensemble" else "full_resolution", gt_vol, "mean")
    for ens in sample_sets:
        m = ens.member_count
        fitted = {}  # each kind's volume, until its last scheme has rendered it
        for i, (scheme, kind) in enumerate(zip(models, fit_kinds)):
            vol = fitted.pop(kind, None) or build_distribution_volume(ens, kind, k=k, config=cfg,
                                                                       threads=threads)
            if kind in fit_kinds[i + 1:]:
                fitted[kind] = vol
            _stage(f"experiment: render {scheme} M={m}")
            add_row(scheme, vol, scheme, "", m)
        if qvals:
            _stage(f"experiment: quantile volumes M={m}")
            qvols = quantile_volumes_multi(ens, qvals, config=cfg, threads=threads)
            for qv, q in zip(qvals, qs):
                for scheme in qschemes:
                    _stage(f"experiment: render {scheme} q={q} M={m}")
                    add_row(f"{scheme}_q{q}", qvols[qv], scheme, q, m)

    with open(outdir / "results.csv", "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=["scheme", "q", "M", "rmse"])
        writer.writeheader()
        for row in rows:
            writer.writerow({**row, "rmse": f"{row['rmse']:.8f}"})
    return rows


def cmd_experiment(args) -> int:
    raw = volcore.read_file(args.manifest)
    try:
        manifest = json.loads(raw)
    except ValueError as e:
        raise VolumeError(f"{args.manifest}: not a JSON manifest: {e}") from e
    if not isinstance(manifest, dict):
        raise VolumeError(f"{args.manifest}: a manifest is a JSON object")
    rows = run_experiment(manifest, args.out, threads=args.threads)
    for row in rows:
        print(f"scheme={row['scheme']} q={row['q']} M={row['M']} rmse={row['rmse']:.6f}")
    return 0


# ---------------------------------------------------------------------------
# Argument wiring


def _add_common_render_args(p, volume_help):
    p.add_argument("--volume", required=True, help=volume_help)
    p.add_argument("--tf", default=None, help="TF1D path or preset:NAME")
    p.add_argument("--camera", default="preset:tangle",
                   help="'ex,ey,ez,ax,ay,az,ux,uy,uz,fov' or preset:NAME")
    p.add_argument("--size", type=parse_size, default=(256, 256), help="image WxH")
    p.add_argument("--step", type=float, default=0.5,
                   help="step as a fraction of voxel spacing")
    p.add_argument("--out", required=True)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="uqdvr",
                                 description="Uncertainty-aware DVR with quantile interpolation")
    ap.add_argument("--threads", type=int, default=1,
                    help="worker threads; output is identical for any value")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a synthetic field and noisy ensemble")
    g.add_argument("--field", required=True,
                   help="tangle | teardrop | nested-spheres | linear(a,b,c) | constant(c)")
    g.add_argument("--dims", type=parse_dims, required=True)
    g.add_argument("--members", type=int, default=50)
    g.add_argument("--noise", default="bimodal",
                   help="kind[:k=v,...] with kind in gaussian|uniform|bimodal")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen)

    e = sub.add_parser("estimate", help="fit per-voxel models from an ensemble or bricks")
    e.add_argument("--ensemble", default=None, help="ensemble directory from gen")
    e.add_argument("--volume", default=None, help="raw volume for hixel downsampling")
    e.add_argument("--dims", type=parse_dims, default=None)
    e.add_argument("--encoding", default="f32", choices=sorted(volcore.RAW_ENCODINGS))
    e.add_argument("--brick", type=parse_dims, default=None)
    e.add_argument("--model", required=True, choices=list(volcore.MODEL_KINDS))
    e.add_argument("--qval", type=float, default=None)
    e.add_argument("--k", type=int, default=None)
    e.add_argument("--kde-lattice", type=int, default=KdeConfig.lattice)
    e.add_argument("--out", required=True)
    e.set_defaults(func=cmd_estimate)

    r = sub.add_parser("render", help="raycast a volume with a chosen scheme")
    r.add_argument("--scheme", required=True, choices=render.SCHEMES)
    _add_common_render_args(r, "QVOL1/DVOL1/raw volume file")
    r.add_argument("--dims", type=parse_dims, default=None, help="dims for raw volume input")
    r.add_argument("--encoding", default="f32", choices=sorted(volcore.RAW_ENCODINGS))
    r.add_argument("--tf2d", default=None, help="TF2D table path")
    r.add_argument("--mean-volume", default=None,
                   help="companion mean raw f32 volume (tf2d scheme)")
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--mc-samples", type=int, default=64)
    r.add_argument("--tf2d-samples", type=int, default=1024)
    r.set_defaults(func=cmd_render)

    q = sub.add_parser("quartiles", help="lower/middle/upper quartile views")
    _add_common_render_args(q, "QVOL1 quantile volume file")
    q.set_defaults(func=cmd_quartiles)

    d = sub.add_parser("diff", help="difference image and RMSE between f32 sidecars")
    d.add_argument("--img", required=True)
    d.add_argument("--ref", required=True)
    d.add_argument("--scale", type=float, default=None)
    d.add_argument("--out", default=None)
    d.set_defaults(func=cmd_diff)

    x = sub.add_parser("experiment", help="run a JSON experiment manifest")
    x.add_argument("--manifest", required=True)
    x.add_argument("--out", required=True)
    x.set_defaults(func=cmd_experiment)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        require_int(args.threads, "threads")
        return args.func(args)
    except (VolumeError, OSError) as e:  # OSError: an output that cannot be written
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

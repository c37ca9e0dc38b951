"""Spans and counters recorded from outside the `uqdvr` package.

The tracer replaces the module attributes through which one layer calls
another with timing wrappers, and puts the originals back when the traced
operation ends, so no source file changes.  Spans live in memory on a
per-thread stack; a span opened on a worker thread with an empty stack takes
the innermost open span of the main thread as its parent, because in this
program worker threads only run inside a call made from the main thread.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

SCHEMES = ("mean", "uniform", "gaussian", "gmm-ordered", "gmm-mc",
           "quantile-range", "quantile-mean", "tf2d")
DENSITY_MODELS = ("mean", "uniform", "gaussian", "quantile", "gmm")
CLASSIFY_KERNELS = ("gauss_hermite_batch", "quantile_mean_batch",
                    "quantile_range_batch", "expected_color_2d_batch")
MOMENT_MODELS = ("mean", "uniform", "gaussian")


def _per_layer_catalog() -> dict[str, tuple[str, str]]:
    """Every per-layer metric: name -> (unit, better)."""
    cat = {
        "density.kde_s": ("s", "lower"),
        "density.em_s": ("s", "lower"),
        "density.moments_s": ("s", "lower"),
    }
    for m in DENSITY_MODELS:
        cat[f"density.voxels_per_s.{m}"] = ("1/s", "higher")
    cat.update({
        "density.em_iterations": ("count", "lower"),
        "density.em_nonconverged": ("count", "lower"),
        "density.const_voxels": ("count", "lower"),
        "density.thread_speedup.quantile": ("x", "higher"),
        "density.thread_speedup.gmm": ("x", "higher"),
    })
    for k in CLASSIFY_KERNELS:
        cat[f"classify.{k}_s"] = ("s", "lower")
        cat[f"classify.{k}.rows"] = ("count", "lower")
    cat["classify.tf_sample_s"] = ("s", "lower")
    cat["interp.uniform_conv_s"] = ("s", "lower")
    cat["interp.uniform_conv.rows"] = ("count", "lower")
    for s in SCHEMES:
        cat[f"render.raycast_s.{s}"] = ("s", "lower")
        cat[f"render.self_s.{s}"] = ("s", "lower")
        cat[f"render.samples.{s}"] = ("count", "lower")
        cat[f"render.samples_per_s.{s}"] = ("1/s", "higher")
    cat.update({
        "render.image_io_s": ("s", "lower"),
        "render.diff_s": ("s", "lower"),
        "volcore.load_s": ("s", "lower"),
        "volcore.save_s": ("s", "lower"),
        "volcore.stacked_s": ("s", "lower"),
        "volcore.read_mb": ("MB", "lower"),
        "volcore.write_mb": ("MB", "lower"),
        "volcore.stacked_mb": ("MB", "lower"),
        "synth.sample_field_s": ("s", "lower"),
        "synth.make_ensemble_s": ("s", "lower"),
        "cli.self_s": ("s", "lower"),
        "trace.overhead_pct": ("%", "lower"),
    })
    return cat


PER_LAYER = _per_layer_catalog()

_RAW_BYTES = {"u8": 1, "u16": 2, "f32": 4}


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[dict] = []
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []
        self.run_id = 0

    # -- spans and counters -------------------------------------------------

    def _stack(self) -> list[dict]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> dict | None:
        stack = self._stack()
        if stack:
            return stack[-1]
        return self._main_stack[-1] if self._main_stack else None

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self.current()
        rec = {"id": next(self._ids), "name": name, "layer": name.split(".", 1)[0],
               "parent": parent["id"] if parent else None, "run": self.run_id,
               "thread": threading.get_ident(), "attrs": attrs}
        stack = self._stack()
        stack.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(rec)

    def count(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[name] += value

    # -- patching -----------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def wrap(self, owner, attr: str, name: str, attrs=None, after=None) -> None:
        """Time every call of owner.attr as span `name`.  attrs(args, kwargs)
        runs before the span opens and returns span attributes; after(rec,
        result, args, kwargs) runs once it has closed."""
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            extra = attrs(args, kwargs) if attrs else {}
            with self.span(name, **extra) as rec:
                result = orig(*args, **kwargs)
            if after:
                after(rec, result, args, kwargs)
            return result

        self._patch(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- the layer boundaries of uqdvr --------------------------------------

    def install_setup(self) -> None:
        """Synthesis calls the benchmark's set-up step makes."""
        from uqdvr import synth
        self.wrap(synth, "sample_field", "synth.sample_field")
        self.wrap(synth, "make_ensemble", "synth.make_ensemble")

    def install(self) -> None:
        from uqdvr import classify, cli, density, render, synth, volcore

        self.wrap(cli, "run_experiment", "cli.run_experiment")
        self.wrap(cli, "main", "cli.main")

        self.wrap(cli, "sample_field", "synth.sample_field")
        self.wrap(cli, "make_ensemble", "synth.make_ensemble")
        self.wrap(cli, "load_ensemble", "synth.load_ensemble")

        def fit_attrs(kind_pos):
            def attrs(args, kwargs):
                kind = "quantile" if kind_pos is None else _arg(args, kwargs, kind_pos, "kind")
                ens = args[0]
                return {"model": kind, "voxels": _voxels(ens), "const": _const_voxels(ens)}
            return attrs

        def hixel_attrs(args, kwargs):
            hi, brick, kind = args[0], _arg(args, kwargs, 1, "brick"), _arg(args, kwargs, 2, "kind")
            lo = [n // int(b) for n, b in zip(hi.dims, brick)]
            return {"model": kind, "voxels": lo[0] * lo[1] * lo[2],
                    "const": _const_bricks(hi, brick)}

        self.wrap(cli, "build_distribution_volume", "density.fit", attrs=fit_attrs(1))
        self.wrap(cli, "quantile_volumes_multi", "density.fit", attrs=fit_attrs(None))
        self.wrap(cli, "downsample_hixel", "density.fit", attrs=hixel_attrs)
        self._wrap_em(density)

        def stacked_attrs(args, kwargs):
            ens = args[0]
            return {"mb": _voxels(ens) * ens.member_count * 8 / 1e6}

        def raw_read_attrs(args, kwargs):
            dims = _arg(args, kwargs, 1, "dims")
            enc = _arg(args, kwargs, 2, "encoding")
            n = int(dims[0]) * int(dims[1]) * int(dims[2])
            return {"mb": n * _RAW_BYTES.get(enc, 4) / 1e6}

        def file_read_attrs(args, kwargs):
            return {"mb": os.path.getsize(args[0]) / 1e6}

        def written(rec, result, args, kwargs):
            rec["attrs"]["mb"] = os.path.getsize(args[1]) / 1e6

        self.wrap(volcore.EnsembleVolume, "stacked", "volcore.stacked", attrs=stacked_attrs)
        self.wrap(synth, "load_raw", "volcore.load", attrs=raw_read_attrs)
        self.wrap(cli, "load_raw", "volcore.load", attrs=raw_read_attrs)
        self.wrap(cli, "load_volume", "volcore.load", attrs=file_read_attrs)
        for attr in ("save_qvol", "save_dvol", "save_raw"):
            self.wrap(cli, attr, "volcore.save", after=written)

        def job_scheme(args, kwargs):
            return {"scheme": args[0].scheme}

        self.wrap(cli, "raycast", "render.raycast", attrs=job_scheme)
        self.wrap(render, "raycast", "render.raycast", attrs=job_scheme)
        self.wrap(cli, "render_quartile_views", "render.quartile_views")
        self.wrap(render, "render_quartile_views", "render.quartile_views")
        for attr in ("save_image", "load_image_f32"):
            self.wrap(cli, attr, "render.image_io")
        self.wrap(cli, "diff_image", "render.diff")
        self._count_samples(render)

        for kernel in CLASSIFY_KERNELS:
            self.wrap(render, kernel, f"classify.{kernel}",
                      attrs=lambda args, kwargs: {"rows": len(args[0])})
        self.wrap(render, "uniform_sum_density_batch", "interp.uniform_conv",
                  attrs=lambda args, kwargs: {"rows": len(args[0])})
        self._wrap_tf_sample(classify)

    def _wrap_em(self, density) -> None:
        """Count EM iterations and non-converged fits by passing trace= to
        fit_gmm_em.  The non-convergence test restates the stopping rule in
        fit_gmm_em: no break means the last log-likelihood step was not
        below 1e-8 after max_iter iterations."""
        orig = density.fit_gmm_em
        default_iter = inspect.signature(orig).parameters["max_iter"].default

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            ll = kwargs.get("trace")
            if ll is None:
                ll = kwargs["trace"] = []
            result = orig(*args, **kwargs)
            max_iter = _arg(args, kwargs, 3, "max_iter", default_iter)
            n = len(ll)
            stalled = n >= max_iter and not (n >= 2 and ll[-1] - ll[-2] < 1e-8)
            with self._lock:
                self.counters["density.em_iterations"] += n
                self.counters["density.em_nonconverged"] += int(stalled)
            return result

        self._patch(density, "fit_gmm_em", wrapper)

    def _count_samples(self, render) -> None:
        """Samples classified per scheme, counted at the renderer's per-step
        classification call."""
        orig = render._classify_chunk

        @functools.wraps(orig)
        def wrapper(state, pos, *rest):
            self.count(f"render.samples.{state.job.scheme}", len(pos))
            return orig(state, pos, *rest)

        self._patch(render, "_classify_chunk", wrapper)

    def _wrap_tf_sample(self, classify) -> None:
        """1D TF lookups made directly by the renderer; lookups made inside a
        classify kernel belong to that kernel's span."""
        cls = classify.TransferFunction1D
        orig = cls.sample

        @functools.wraps(orig)
        def wrapper(tf, x):
            cur = self.current()
            if cur is not None and cur["layer"] == "classify":
                return orig(tf, x)
            with self.span("classify.tf_sample"):
                return orig(tf, x)

        self._patch(cls, "sample", wrapper)

    # -- metrics ------------------------------------------------------------

    def metrics(self, run_id: int) -> dict[str, float]:
        """Per-layer metrics of one traced run; layers the run never entered
        read 0."""
        spans = [s for s in self.spans if s["run"] == run_id]
        children = defaultdict(list)
        for s in spans:
            children[s["parent"]].append(s)

        def dur(s):
            return s["end"] - s["start"]

        def self_time(s):
            return dur(s) - _covered(s, children[s["id"]])

        def named(name, **match):
            return [s for s in spans if s["name"] == name
                    and all(s["attrs"].get(k) == v for k, v in match.items())]

        out = {name: 0.0 for name in PER_LAYER}

        fit_self = defaultdict(float)
        fit_vox = defaultdict(float)
        for s in named("density.fit"):
            fit_self[s["attrs"]["model"]] += self_time(s)
            fit_vox[s["attrs"]["model"]] += s["attrs"]["voxels"]
            out["density.const_voxels"] += s["attrs"]["const"]
        out["density.kde_s"] = fit_self["quantile"]
        out["density.em_s"] = fit_self["gmm"]
        out["density.moments_s"] = sum(fit_self[m] for m in MOMENT_MODELS)
        for m in DENSITY_MODELS:
            if fit_self[m] > 0:
                out[f"density.voxels_per_s.{m}"] = fit_vox[m] / fit_self[m]

        for k in CLASSIFY_KERNELS:
            ks = named(f"classify.{k}")
            out[f"classify.{k}_s"] = sum(map(dur, ks))
            out[f"classify.{k}.rows"] = sum(s["attrs"]["rows"] for s in ks)
        out["classify.tf_sample_s"] = sum(map(dur, named("classify.tf_sample")))
        conv = named("interp.uniform_conv")
        out["interp.uniform_conv_s"] = sum(map(dur, conv))
        out["interp.uniform_conv.rows"] = sum(s["attrs"]["rows"] for s in conv)

        for scheme in SCHEMES:
            rays = named("render.raycast", scheme=scheme)
            wall = sum(map(dur, rays))
            out[f"render.raycast_s.{scheme}"] = wall
            out[f"render.self_s.{scheme}"] = sum(map(self_time, rays))
            samples = self.counters.get(f"render.samples.{scheme}", 0.0)
            out[f"render.samples.{scheme}"] = samples
            if wall > 0:
                out[f"render.samples_per_s.{scheme}"] = samples / wall
        out["render.image_io_s"] = sum(map(dur, named("render.image_io")))
        out["render.diff_s"] = sum(map(dur, named("render.diff")))

        for op in ("load", "save", "stacked"):
            ss = named(f"volcore.{op}")
            out[f"volcore.{op}_s"] = sum(map(dur, ss))
            mb_key = {"load": "read_mb", "save": "write_mb", "stacked": "stacked_mb"}[op]
            out[f"volcore.{mb_key}"] = sum(s["attrs"].get("mb", 0.0) for s in ss)

        out["synth.sample_field_s"] = sum(map(dur, named("synth.sample_field")))
        out["synth.make_ensemble_s"] = sum(map(dur, named("synth.make_ensemble")))
        out["cli.self_s"] = sum(self_time(s) for s in spans if s["layer"] == "cli")

        for name in ("density.em_iterations", "density.em_nonconverged"):
            out[name] = self.counters.get(name, 0.0)
        return {k: float(v) for k, v in out.items()}


def _covered(parent: dict, kids: list[dict]) -> float:
    """Length of the part of parent's interval that the union of kids covers."""
    ivs = sorted((max(k["start"], parent["start"]), min(k["end"], parent["end"])) for k in kids)
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in ivs:
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _voxels(ens) -> int:
    d = ens.dims
    return d[0] * d[1] * d[2]


def _const_voxels(ens) -> int:
    """Voxels whose ensemble members all agree, counted from the input."""
    import numpy as np

    first = ens.members[0].values
    same = np.ones(first.shape, dtype=bool)
    for g in ens.members[1:]:
        same &= g.values == first
    return int(same.sum())


def _const_bricks(hi, brick) -> int:
    """Constant bricks of a high-resolution grid, counted from the input."""
    bx, by, bz = (int(b) for b in brick)
    nx, ny, nz = hi.dims
    blocks = hi.values3d.reshape(nz // bz, bz, ny // by, by, nx // bx, bx)
    return int((blocks.max(axis=(1, 3, 5)) == blocks.min(axis=(1, 3, 5))).sum())

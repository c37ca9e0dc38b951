"""CPU raycaster: camera, ray marching, statistical classification per sample,
front-to-back compositing, quartile views, difference images, and RMSE.

Rays are processed in fixed-size pixel chunks; chunk boundaries and per-chunk
seeds never depend on the worker count, so a job renders bit-identically for
any thread count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import classify as _classify
from .classify import (
    NEIGHBOR_OFFSETS,
    TransferFunction1D,
    TransferFunction2D,
    expected_color_2d_batch,
    gauss_hermite_batch,
    quantile_mean_batch,
    quantile_range_batch,
    sobol_points,
)
from .interp import uniform_sum_density_batch
from .volcore import (
    DistributionVolume,
    GaussianModel,
    GmmVolumeModel,
    MeanFieldModel,
    QuantileModel,
    ScalarGrid,
    UniformModel,
    VolumeError,
    require_finite,
)

CHUNK_PIXELS = 4096

SCHEMES = ("mean", "uniform", "gaussian", "gmm-ordered", "gmm-mc",
           "quantile-range", "quantile-mean", "tf2d")

_SCHEME_MODEL = {
    "mean": MeanFieldModel,
    "uniform": UniformModel,
    "gaussian": GaussianModel,
    "gmm-ordered": GmmVolumeModel,
    "gmm-mc": GmmVolumeModel,
    "quantile-range": QuantileModel,
    "quantile-mean": QuantileModel,
    "tf2d": UniformModel,
}

DIVERGING_BLUE = np.array([0.23, 0.30, 0.75])
DIVERGING_WHITE = np.array([1.0, 1.0, 1.0])
DIVERGING_YELLOW = np.array([0.87, 0.78, 0.09])


@dataclass(frozen=True)
class Camera:
    eye: tuple[float, float, float]
    look_at: tuple[float, float, float]
    up: tuple[float, float, float]
    fov_deg: float
    width: int
    height: int

    def __post_init__(self):
        eye = np.asarray(self.eye, dtype=np.float64)
        at = np.asarray(self.look_at, dtype=np.float64)
        up = np.asarray(self.up, dtype=np.float64)
        for name, vec in (("eye", eye), ("look-at", at), ("up", up)):
            require_finite(vec, f"camera {name}")
        if np.allclose(eye, at):
            raise VolumeError("camera eye must differ from look-at")
        fwd = at - eye
        if np.linalg.norm(np.cross(fwd, up)) < 1e-12:
            raise VolumeError("camera up must not be parallel to the view direction")
        if not (0.0 < self.fov_deg < 180.0):
            raise VolumeError("vertical fov must lie in (0, 180) degrees")
        if self.width < 1 or self.height < 1:
            raise VolumeError("image size must be positive")


def camera_rays(cam: Camera) -> tuple[np.ndarray, np.ndarray]:
    """Pixel-center ray origins and unit directions, row-major from top-left."""
    eye = np.asarray(cam.eye, dtype=np.float64)
    fwd = np.asarray(cam.look_at, dtype=np.float64) - eye
    fwd /= np.linalg.norm(fwd)
    right = np.cross(fwd, np.asarray(cam.up, dtype=np.float64))
    right /= np.linalg.norm(right)
    true_up = np.cross(right, fwd)
    half_h = np.tan(np.radians(cam.fov_deg) * 0.5)
    half_w = half_h * cam.width / cam.height
    px = (np.arange(cam.width) + 0.5) / cam.width * 2.0 - 1.0
    py = 1.0 - (np.arange(cam.height) + 0.5) / cam.height * 2.0
    u, v = np.meshgrid(px, py)
    dirs = (fwd[None, :] + (u.ravel() * half_w)[:, None] * right[None, :]
            + (v.ravel() * half_h)[:, None] * true_up[None, :])
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    origins = np.broadcast_to(eye, dirs.shape).copy()
    return origins, dirs


def default_camera(volume, width: int, height: int, fov_deg: float = 35.0,
                   direction=(1.0, 0.9, 0.75), distance: float = 2.4) -> Camera:
    """A diagonal view of the volume bounding box."""
    center = 0.5 * (volume.world_min + volume.world_max)
    extent = float(np.linalg.norm(volume.world_max - volume.world_min))
    d = np.asarray(direction, dtype=np.float64)
    d /= np.linalg.norm(d)
    eye = center + distance * extent * d
    return Camera(tuple(eye), tuple(center), (0.0, 0.0, 1.0), fov_deg, width, height)


@dataclass(frozen=True)
class Image:
    width: int
    height: int
    pixels: np.ndarray  # (height, width, 4) float32, row-major from top-left

    def __post_init__(self):
        p = np.ascontiguousarray(self.pixels, dtype=np.float32)
        if p.shape != (self.height, self.width, 4):
            raise VolumeError("image pixels must be (height, width, 4)")
        if not np.all(np.isfinite(p)):
            raise VolumeError("image channels must be finite")
        object.__setattr__(self, "pixels", p)


@dataclass(frozen=True)
class RenderJob:
    volume: DistributionVolume
    scheme: str
    camera: Camera
    tf: TransferFunction1D | None = None
    tf2: TransferFunction2D | None = None
    step: float = 0.5  # fraction of the voxel spacing
    termination: float = 0.99
    background: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 1.0)
    seed: int = 0
    mean_grid: ScalarGrid | None = None  # gradient source for the tf2d scheme
    quantile_subrange: tuple[int, int] | None = None  # piece range [lo, hi)
    mc_samples: int = 64
    tf2d_samples: int = 1024
    conv_lattice: int = 64

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise VolumeError(f"unknown scheme {self.scheme!r}")
        want = _SCHEME_MODEL[self.scheme]
        if not isinstance(self.volume.model, want):
            raise VolumeError(
                f"scheme {self.scheme!r} needs a {want.__name__} volume, "
                f"got {type(self.volume.model).__name__}"
            )
        if self.scheme == "tf2d":
            if self.tf2 is None:
                raise VolumeError("tf2d scheme needs a 2D transfer function")
            if self.mean_grid is None:
                raise VolumeError("tf2d scheme needs the companion mean grid")
            if self.mean_grid.dims != self.volume.dims:
                raise VolumeError("mean grid must be congruent with the volume")
        elif self.tf is None:
            raise VolumeError(f"scheme {self.scheme!r} needs a 1D transfer function")
        if not (np.isfinite(self.step) and self.step > 0):
            raise VolumeError("step must be finite and positive")
        if self.mc_samples < 1:
            raise VolumeError("mc_samples must be at least 1")
        if self.tf2d_samples < 1:
            raise VolumeError("tf2d_samples must be at least 1")
        if self.conv_lattice < 2:
            raise VolumeError("conv_lattice must be at least 2")
        if not (0.0 < self.termination <= 1.0):
            raise VolumeError("termination must lie in (0, 1]")
        if self.quantile_subrange is not None:
            lo, hi = self.quantile_subrange
            q = self.volume.model.q
            if not (0 <= lo < hi <= q):
                raise VolumeError(f"quantile subrange {self.quantile_subrange} outside [0, {q}]")
        if any(d < 2 for d in self.volume.dims):
            raise VolumeError("rendering needs dims >= 2 per axis")


def _ray_box(origins, dirs, wmin, wmax):
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / dirs
        t1 = (wmin[None, :] - origins) * inv
        t2 = (wmax[None, :] - origins) * inv
        tlo = np.fmin(t1, t2)
        thi = np.fmax(t1, t2)
        parallel = np.abs(dirs) < 1e-300
        if np.any(parallel):
            inside = (origins >= wmin[None, :]) & (origins <= wmax[None, :])
            tlo = np.where(parallel, np.where(inside, -np.inf, np.inf), tlo)
            thi = np.where(parallel, np.where(inside, np.inf, -np.inf), thi)
    tnear = np.maximum(tlo.max(axis=1), 0.0)
    tfar = thi.min(axis=1)
    return tnear, tfar


class _SchemeState:
    """Per-job precomputation shared by every chunk (read-only)."""

    def __init__(self, job: RenderJob):
        self.job = job
        m = job.volume.model
        nx, ny, nz = job.volume.dims
        bits = np.arange(8)
        self.corner_flat = ((bits & 1) + nx * (((bits >> 1) & 1) + ny * ((bits >> 2) & 1)))
        if isinstance(m, GmmVolumeModel):
            order = np.argsort(m.means, axis=1, kind="stable")
            self.gmm_weights = np.take_along_axis(m.weights, order, axis=1)
            self.gmm_means = np.take_along_axis(m.means, order, axis=1)
            self.gmm_sigmas = np.take_along_axis(m.sigmas, order, axis=1)
        if job.scheme == "tf2d":
            self.tf2d_points = sobol_points(NEIGHBOR_OFFSETS.shape[0], job.tf2d_samples,
                                            seed=job.seed)
            self.neigh_flat = (NEIGHBOR_OFFSETS[:, 0] + nx * (NEIGHBOR_OFFSETS[:, 1]
                               + ny * NEIGHBOR_OFFSETS[:, 2]))
            self.deriv = _classify._derivative_matrices(job.volume.spacing)


def _corner_weights_batch(frac: np.ndarray) -> np.ndarray:
    """(A, 8) trilinear weights in corner-bit order."""
    a, b, g = frac[:, 0], frac[:, 1], frac[:, 2]
    wx = np.stack([1.0 - a, a], axis=1)
    wy = np.stack([1.0 - b, b], axis=1)
    wz = np.stack([1.0 - g, g], axis=1)
    bits = np.arange(8)
    return wx[:, bits & 1] * wy[:, (bits >> 1) & 1] * wz[:, (bits >> 2) & 1]


def _classify_chunk(state: _SchemeState, pos: np.ndarray, rng) -> np.ndarray:
    """RGBA for sample positions inside the volume bounding box."""
    job = state.job
    vol = job.volume
    nx, ny, nz = vol.dims
    nd = np.array([nx, ny, nz], dtype=np.float64)
    g = (pos - vol.world_min[None, :]) / np.asarray(vol.spacing)[None, :]
    g = np.clip(g, 0.0, nd - 1.0)
    base = np.minimum(g.astype(np.int64), (nd - 2).astype(np.int64))
    base = np.maximum(base, 0)
    frac = g - base
    flat = base[:, 0] + nx * (base[:, 1] + ny * base[:, 2])
    w8 = _corner_weights_batch(frac)
    idx8 = flat[:, None] + state.corner_flat[None, :]
    m = vol.model
    scheme = job.scheme

    if scheme == "mean":
        x = np.einsum("ac,ac->a", w8, m.values[idx8])
        return job.tf.sample(x)

    if scheme == "gaussian":
        mu = np.einsum("ac,ac->a", w8, m.mean[idx8])
        var = np.einsum("ac,ac->a", w8 * w8, m.sigma[idx8] ** 2)
        return gauss_hermite_batch(mu, np.sqrt(var), job.tf)

    if scheme == "uniform":
        centers = m.center[idx8]
        widths = m.width[idx8]
        origins, pdf, du = uniform_sum_density_batch(centers, widths, w8, job.conv_lattice)
        xs = origins[:, None] + np.arange(pdf.shape[1])[None, :] * du[:, None]
        mass = pdf * du[:, None]
        mass /= mass.sum(axis=1, keepdims=True)
        return np.einsum("an,anc->ac", mass, job.tf.sample(xs))

    if scheme in ("quantile-range", "quantile-mean"):
        bnd = np.einsum("ac,acq->aq", w8, m.boundaries[idx8])
        qval = m.qval
        if job.quantile_subrange is not None:
            lo, hi = job.quantile_subrange
            bnd = bnd[:, lo:hi + 1]
            qval = 1.0 / (hi - lo)
        if scheme == "quantile-range":
            return quantile_range_batch(bnd, qval, job.tf)
        return quantile_mean_batch(bnd, qval, job.tf)

    if scheme == "gmm-ordered":
        cw = state.gmm_weights[idx8]  # (A, 8, k)
        cm = state.gmm_means[idx8]
        cs = state.gmm_sigmas[idx8]
        ws = np.einsum("ac,ack->ak", w8, cw)
        ws /= ws.sum(axis=1, keepdims=True)
        mus = np.einsum("ac,ack->ak", w8, cm)
        sgs = np.sqrt(np.einsum("ac,ack->ak", w8 * w8, cs * cs))
        a, k = mus.shape
        colors = gauss_hermite_batch(mus.ravel(), sgs.ravel(), job.tf).reshape(a, k, 4)
        return np.einsum("ak,akc->ac", ws, colors)

    if scheme == "gmm-mc":
        a = pos.shape[0]
        n = job.mc_samples
        k = m.k
        means, sigmas = m.means.ravel(), m.sigmas.ravel()
        x = np.zeros((a, n))
        for c in range(8):
            vox = idx8[:, c]
            cum = np.cumsum(m.weights[vox], axis=1)
            u = rng.random((a, n))
            # The first component whose cumulative weight exceeds u; the last
            # takes whatever mass rounding leaves above the others.
            comp = (u[:, None, :] >= cum[:, :-1, None]).sum(axis=1)
            flat_comp = vox[:, None] * k + comp
            x += w8[:, c][:, None] * (means[flat_comp]
                                      + sigmas[flat_comp] * rng.standard_normal((a, n)))
        return job.tf.sample(x).mean(axis=1)

    if scheme == "tf2d":
        a = pos.shape[0]
        rgba = np.zeros((a, 4))
        valid = ((base[:, 0] >= 1) & (base[:, 0] <= nx - 3)
                 & (base[:, 1] >= 1) & (base[:, 1] <= ny - 3)
                 & (base[:, 2] >= 1) & (base[:, 2] <= nz - 3))
        if not np.any(valid):
            return rgba
        vidx = np.nonzero(valid)[0]
        flat32 = flat[vidx][:, None] + state.neigh_flat[None, :]  # (V, 32)
        axis_w = np.einsum("ac,xcn->axn", w8[vidx], state.deriv)  # (V, 3, 32)
        mean_grad = np.einsum("axn,an->ax", axis_w, job.mean_grid.values[flat32])
        norm = np.linalg.norm(mean_grad, axis=1)
        degenerate = norm < 1e-12
        direction = mean_grad / np.where(degenerate, 1.0, norm)[:, None]
        u = np.einsum("ax,axn->an", direction, axis_w)
        u[degenerate] = 0.0
        w32 = np.zeros((vidx.size, state.neigh_flat.size))
        w32[:, :8] = w8[vidx]
        rgba[vidx] = expected_color_2d_batch(
            m.center[flat32], m.width[flat32], w32, u, job.tf2,
            state.tf2d_points, degenerate=degenerate)
        return rgba

    raise VolumeError(f"unhandled scheme {scheme!r}")


def _render_chunk(state: _SchemeState, chunk_id: int, origins, dirs) -> np.ndarray:
    job = state.job
    vol = job.volume
    n = origins.shape[0]
    tnear, tfar = _ray_box(origins, dirs, vol.world_min, vol.world_max)
    step_len = job.step * float(min(vol.spacing))
    ref_len = float(min(vol.spacing))
    t_floor = 1.0 - job.termination

    rgb = np.zeros((n, 3))
    trans = np.ones(n)
    alive = tfar > tnear
    k = 0
    while True:
        t_lo = tnear + k * step_len
        dt = np.minimum(step_len, tfar - t_lo)
        active = alive & (dt > 1e-12)
        if not np.any(active):
            break
        idx = np.nonzero(active)[0]
        # One deterministic stream per (job seed, chunk, step); consumption
        # order inside the chunk is fixed by the active-row order.
        rng = (np.random.default_rng(np.random.SeedSequence((job.seed, chunk_id, k)))
               if job.scheme == "gmm-mc" else None)
        t_mid = t_lo[idx] + 0.5 * dt[idx]
        pos = origins[idx] + dirs[idx] * t_mid[:, None]
        rgba = _classify_chunk(state, pos, rng)
        alpha = np.clip(rgba[:, 3], 0.0, 1.0)
        corrected = 1.0 - (1.0 - alpha) ** (dt[idx] / ref_len)
        weight = trans[idx] * corrected
        rgb[idx] += weight[:, None] * np.clip(rgba[:, :3], 0.0, 1.0)
        trans[idx] *= 1.0 - corrected
        alive[idx] = trans[idx] > t_floor
        k += 1

    bg = np.asarray(job.background, dtype=np.float64)
    out = np.empty((n, 4))
    out[:, :3] = rgb + (trans * bg[3])[:, None] * bg[None, :3]
    out[:, 3] = 1.0 - trans * (1.0 - bg[3])
    return out


def raycast(job: RenderJob, threads: int = 1) -> Image:
    """Render a job; bit-identical output for any thread count."""
    cam = job.camera
    origins, dirs = camera_rays(cam)
    n = origins.shape[0]
    state = _SchemeState(job)
    out = np.empty((n, 4))
    starts = list(range(0, n, CHUNK_PIXELS))

    def work(ci):
        s = starts[ci]
        e = min(s + CHUNK_PIXELS, n)
        out[s:e] = _render_chunk(state, ci, origins[s:e], dirs[s:e])

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(work, range(len(starts))))
    else:
        for ci in range(len(starts)):
            work(ci)
    pixels = np.clip(out, 0.0, 1.0).reshape(cam.height, cam.width, 4)
    return Image(cam.width, cam.height, pixels)


def render_quartile_views(volume: DistributionVolume, job: RenderJob,
                          threads: int = 1) -> tuple[Image, Image, Image]:
    """Lower 25%, middle 50%, and upper 25% population renders, each
    renormalized to unit mass and classified with the quantile-range scheme."""
    if not isinstance(volume.model, QuantileModel):
        raise VolumeError("quartile views need a quantile-model volume")
    q = volume.model.q
    if q % 4 != 0:
        raise VolumeError(f"quartile views need q divisible by 4, got q={q}")
    quarter = q // 4
    views = []
    for lo, hi in ((0, quarter), (quarter, 3 * quarter), (3 * quarter, q)):
        sub = replace(job, volume=volume, scheme="quantile-range",
                      quantile_subrange=(lo, hi))
        views.append(raycast(sub, threads=threads))
    return tuple(views)


def diff_image(img: Image, ref: Image, scale: float | None = None) -> tuple[Image, float]:
    """Absolute difference of per-pixel RGB means, its RMSE, and a diff image
    through a blue-white-yellow diverging map centered at zero difference."""
    if (img.width, img.height) != (ref.width, ref.height):
        raise VolumeError("diff images must be congruent")
    a = img.pixels[..., :3].astype(np.float64).mean(axis=2)
    b = ref.pixels[..., :3].astype(np.float64).mean(axis=2)
    signed = a - b
    d = np.abs(signed)
    rmse = float(np.sqrt(np.mean(d * d)))
    if scale is None:
        scale = float(d.max())
    if scale <= 0:
        scale = 1.0
    t = np.clip(signed / scale, -1.0, 1.0)
    w = np.abs(t)[..., None]
    cold = (1 - w) * DIVERGING_WHITE + w * DIVERGING_BLUE
    warm = (1 - w) * DIVERGING_WHITE + w * DIVERGING_YELLOW
    rgb = np.where((t < 0)[..., None], cold, warm)
    pixels = np.concatenate([rgb, np.ones(rgb.shape[:2] + (1,))], axis=2)
    return Image(img.width, img.height, pixels), rmse


def save_image(img: Image, path, sidecar: bool = True) -> None:
    """Write an 8-bit binary pixmap (P6) and, optionally, a lossless f32
    sidecar (`width height` text header plus row-major RGBA f32)."""
    path = Path(path)
    rgb = np.clip(img.pixels[..., :3], 0.0, 1.0)
    data = np.rint(rgb * 255.0).astype(np.uint8)
    header = f"P6\n{img.width} {img.height}\n255\n".encode("ascii")
    path.write_bytes(header + data.tobytes())
    if sidecar:
        side = path.with_suffix(path.suffix + ".f32")
        shead = f"{img.width} {img.height}\n".encode("ascii")
        side.write_bytes(shead + img.pixels.astype("<f4").tobytes())


def load_image_f32(path) -> Image:
    raw = Path(path).read_bytes()
    nl = raw.find(b"\n")
    if nl < 0:
        raise VolumeError(f"{path}: missing f32 sidecar header")
    try:
        w_s, h_s = raw[:nl].decode("ascii").split()
        w, h = int(w_s), int(h_s)
    except ValueError as e:
        raise VolumeError(f"{path}: bad f32 sidecar header") from e
    body = raw[nl + 1:]
    if len(body) != w * h * 4 * 4:
        raise VolumeError(f"{path}: f32 sidecar payload size mismatch")
    pixels = np.frombuffer(body, dtype="<f4").reshape(h, w, 4)
    return Image(w, h, pixels)

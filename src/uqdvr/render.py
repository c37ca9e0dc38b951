"""CPU raycaster: camera, ray marching, statistical classification per sample,
front-to-back compositing, quartile views, difference images, and RMSE.

Rays are processed in fixed-size pixel chunks; chunk boundaries and per-chunk
seeds never depend on the worker count, so a job renders bit-identically for
any thread count.  Each chunk runs one loop over its live rays, kept compacted
in ray order with a step index kk per ray; a ray's colour goes to the output
once, when it leaves the box or terminates.

The `mean`, `quantile-mean` and `quantile-range` schemes leap over empty space
(Levoy, ACM TOG 9(3), 1990), with the chessboard distance table of Cohen and
Sheffer's proximity clouds (1994).  A cell is empty when every value its
classifier blends lies inside one zero-alpha run of the TF, with a margin of a
few ulps; the table holds each empty cell's distance D in cells to the nearest
cell that is not, capped at EMPTY_DISTANCE_CAP (a job with few empty cells
gets no table).  A sample in a cell at D >= 1 is not classified, and its ray
advances kk by 1 + floor((D - 1) * min_spacing / step_len), less a slack: the
samples skipped lie within D - 1 cells of it.  No byte changes: a skipped
sample would have had alpha exactly 0, which adds 0 to the colour and
multiplies the transmittance by exactly 1; each sample's position depends only
on its ray and kk; and each classified sample's colour depends only on its own
position, not on the samples that share its call.  The other schemes build no
table (Gaussian and FFT-lattice densities are never exactly 0, `gmm-mc` draws
its random numbers per step and `tf2d` is left out), so all their live rays
take every step together at kk == k.

One table maps each scheme to its model type and classifier, which calls an
interp and a classify kernel by this module's names at call time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import interp
from .classify import (
    TransferFunction1D,
    TransferFunction2D,
    expected_color_2d_batch,
    gauss_hermite_batch,
    lattice_color_batch,
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
    map_chunks,
    read_headed_f32,
    require_finite,
    require_int,
    require_ints,
    require_positive,
    sort_components,
    write_file,
)

CHUNK_PIXELS = 4096
# Most samples a ray may take: the bounding-box diagonal over the step length.
MAX_RAY_SAMPLES = 1 << 16
# A ray stops once its accumulated opacity reaches this.
TERMINATION = 0.99
# Lattice points of the `uniform` scheme's convolved density per sample: the
# most whose 8-factor lattice is 64 cells, since F >= npoints + 8 + 1.
CONV_LATTICE = 55
# Cap of the empty-space distance table in cells; a leap spans at most
# cap - 1 cells.  On the spheres reference (`mean`, 128^3 at 256^2, 2-core
# x86 box) caps 4/8/16/32 took 505k/386k/359k/358k ray steps, built the table
# in 43/58/82/134 ms and raycast in a median 0.30-0.37/0.30-0.35/0.31-0.36/
# 0.42 s of CPU over two rounds of 7 runs.
EMPTY_DISTANCE_CAP = 8
# Voxels whose run codes are computed at once while building the table: each
# slab takes a float64 copy of its float32 values and int64 run codes.
_TABLE_SLAB_CELLS = 1 << 17
# A job whose share of empty cells is below this renders without a table: its
# rays meet too little empty space to repay a lookup per sample.  The tangle
# ground truth at 64^3 (`mean`, 256^2) has 6.5% empty cells and raycast in
# 0.43-0.50 s with its table against 0.27-0.39 s without; the spheres
# reference has 58% and gains 3x.
_MIN_EMPTY_SHARE = 0.25
# A ray's last sample is taken only if it spans more than this fraction of a step.
_SLIVER = 2.0 ** -40
# Each finite zero-alpha run end is moved inward by _VALUE_MARGIN of its
# magnitude (16-32 ulps) plus _TINY (where products of subnormals round).
_VALUE_MARGIN = 2.0 ** -48
_TINY = 2.0 ** -1068

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
        eye, at, up = (require_finite(getattr(self, name), f"camera {name}", (3,), f32_range=True)
                       for name in ("eye", "look_at", "up"))
        if np.array_equal(eye, at):
            raise VolumeError("camera eye must differ from look-at")
        if not up.any() or np.linalg.norm(np.cross(_unit(at - eye), _unit(up))) < 1e-12:
            raise VolumeError("camera up must not be parallel to the view direction")
        fov = float(require_finite(self.fov_deg, "vertical fov", ()))
        if not (0.0 < fov < 180.0):
            raise VolumeError("vertical fov must lie in (0, 180) degrees")
        object.__setattr__(self, "fov_deg", fov)
        require_ints((self.width, self.height), 2, "image size")


def _scaled(v: np.ndarray) -> tuple[np.ndarray, int]:
    """(v / 2^e, e) for a finite vector, with 2^e its largest magnitude rounded
    up to a power of two: exact, so the norm of v / 2^e cannot over- or underflow."""
    e = int(np.frexp(np.abs(v).max())[1])
    return np.ldexp(v, -e), e


def _unit(v: np.ndarray) -> np.ndarray:
    """v / |v| for a finite nonzero vector."""
    v = _scaled(v)[0]
    return v / np.linalg.norm(v)


def _norm(v: np.ndarray) -> float:
    """|v| for a finite vector, free of the under- and overflow of its squares."""
    v, e = _scaled(v)
    return float(np.ldexp(np.linalg.norm(v), e))


def camera_rays(cam: Camera) -> tuple[np.ndarray, np.ndarray]:
    """Pixel-center ray origins and unit directions, row-major from top-left."""
    eye = np.asarray(cam.eye, dtype=np.float64)
    fwd = _unit(np.asarray(cam.look_at, dtype=np.float64) - eye)
    right = _unit(np.cross(fwd, np.asarray(cam.up, dtype=np.float64)))
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
    extent = _norm(volume.world_max - volume.world_min)
    d = require_finite(direction, "camera direction", (3,))
    if not d.any():
        raise VolumeError("camera direction must be nonzero")
    d = _unit(d)
    eye = center + float(require_finite(distance, "camera distance", ())) * extent * d
    return Camera(tuple(eye), tuple(center), (0.0, 0.0, 1.0), fov_deg, width, height)


@dataclass(frozen=True)
class Image:
    width: int
    height: int
    pixels: np.ndarray  # (height, width, 4) float32, row-major from top-left

    def __post_init__(self):
        width, height = require_ints((self.width, self.height), 2, "image size", 0)
        if width < 1 or height < 1:
            raise VolumeError("image size must be positive")
        pixels = require_finite(self.pixels, "image channels", (height, width, 4), np.float32)
        object.__setattr__(self, "pixels", pixels)


@dataclass(frozen=True)
class RenderJob:
    volume: DistributionVolume
    scheme: str
    camera: Camera
    tf: TransferFunction1D | None = None
    tf2: TransferFunction2D | None = None
    step: float = 0.5  # fraction of the voxel spacing
    seed: int = 0
    mean_grid: ScalarGrid | None = None  # gradient source for the tf2d scheme
    mc_samples: int = 64
    tf2d_samples: int = 1024

    def __post_init__(self):
        want = scheme_model(self.scheme)
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
        object.__setattr__(self, "step", float(require_positive(self.step, "step", ())))
        step_len = self.step * min(self.volume.spacing)
        if _norm(self.volume.world_max - self.volume.world_min) > MAX_RAY_SAMPLES * step_len:
            raise VolumeError(f"step {self.step} takes more than {MAX_RAY_SAMPLES} "
                              "samples along the volume diagonal")
        for name in ("mc_samples", "tf2d_samples"):
            object.__setattr__(self, name, require_int(getattr(self, name), name))
        object.__setattr__(self, "seed", require_int(self.seed, "seed", 0))
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
    return np.maximum(tlo.max(axis=1), 0.0), thi.min(axis=1)  # tnear, tfar


class _SchemeState:
    """Per-job precomputation shared by every chunk (read-only)."""

    def __init__(self, job: RenderJob):
        self.job = job
        m = job.volume.model
        if job.scheme in ("gaussian", "gmm-ordered"):
            if job.scheme == "gaussian":  # a one-component mixture, sorted as it stands
                ws, mus, sgs = (np.ones((m.voxel_count, 1), m.DTYPE), m.mean[:, None],
                                m.sigma[:, None])
            else:  # a permutation of each row: the float32 values as they stand
                ws, mus, sgs = sort_components(m.weights, m.means, m.sigmas)
            # Weights stacked over means, (V, 2, k) float32, blend in one pass
            # (blend reads them in float64); variance_table squares in float64.
            self.gmm_sorted = np.stack((ws, mus), axis=1), interp.variance_table(sgs)
        if job.scheme == "tf2d":
            self.tf2d_points = sobol_points(interp.NEIGHBOR_OFFSETS.shape[0], job.tf2d_samples,
                                            seed=job.seed)
            self.deriv = interp.derivative_matrices(job.volume.spacing)
        self.dist = _distance_table(job)
        if self.dist is not None:
            self.advance = _leap_steps(job)


def _distance_table(job: RenderJob) -> np.ndarray | None:
    """Each cell's chessboard distance in cells, capped at EMPTY_DISTANCE_CAP,
    to the nearest cell that is not empty, as a uint8 table over the cells'
    flat base voxel ids; None for schemes without one or with few empty cells.

    A cell is empty when every value its classifier blends lies inside one
    zero-alpha run of the TF: its corners' values for `mean`, their b_0 to
    b_q for the quantile schemes (whose blended boundaries lie between).  A
    blend of 8 corners under weights that sum to 1 within a few ulps strays
    past the corners by a few ulps of their magnitude, so each corner must
    lie inside the run with its finite ends moved inward by a margin: a
    corner near an end has about the end's magnitude, and one much larger
    lies so far inside that its rounding cannot reach the end.
    """
    m = job.volume.model
    if job.scheme == "mean":
        lo = hi = m.values
    elif job.scheme in ("quantile-mean", "quantile-range"):
        lo, hi = m.boundaries[:, 0], m.boundaries[:, -1]
    else:
        return None
    runs = np.array(job.tf.zero_alpha_runs()).reshape(-1, 2)
    runs += np.where(np.isinf(runs), 0.0, np.abs(runs) * _VALUE_MARGIN + _TINY) * [1.0, -1.0]
    runs = runs[runs[:, 0] <= runs[:, 1]]
    if not len(runs):
        return None
    # A value x lies in run k iff it is at or above 2k + 1 of these edges.
    edges = np.column_stack([runs[:, 0], np.nextafter(runs[:, 1], np.inf)]).ravel()
    code = np.min_scalar_type(edges.size)
    nx, ny, nz = job.volume.dims
    one_sided = hi is lo
    lo, hi = lo.reshape(nz, ny, nx), hi.reshape(nz, ny, nx)
    table = np.zeros((nz, ny, nx), np.uint8)
    dist = table[:-1, :-1, :-1]
    slab = max(1, _TABLE_SLAB_CELLS // (nx * ny))
    for z in range(0, nz - 1, slab):  # the float32 values compared in float64
        block = lo[z:z + slab + 1].astype(np.float64)
        run = np.searchsorted(edges, block, side="right").astype(code)
        if not one_sided:
            block = hi[z:z + slab + 1].astype(np.float64)
            run[run != np.searchsorted(edges, block, side="right")] = 0
        first, last = _corner_reduce(np.minimum, run), _corner_reduce(np.maximum, run)
        dist[z:z + slab] = (first == last) & (first % 2 == 1)
    del block, run, first, last  # the last slab's arrays, before the erosion buffers
    level = dist.astype(bool)
    if np.count_nonzero(level) < _MIN_EMPTY_SHARE * level.size:
        return None
    scratch = np.empty_like(level)
    for _ in range(EMPTY_DISTANCE_CAP - 1):  # cells at distance >= d + 1 survive d erosions
        _erode(level, scratch)
        if not level.any():
            break
        dist += level
    return table.ravel()


def _corner_reduce(op, a: np.ndarray) -> np.ndarray:
    """op over the 8 corners of each cell of a (z, y, x) block of voxels."""
    a = op(a[:, :, :-1], a[:, :, 1:])
    a = op(a[:, :-1], a[:, 1:])
    return op(a[:-1], a[1:])


def _erode(b: np.ndarray, scratch: np.ndarray) -> None:
    """Keep in b only the cells whose neighbours inside the grid all lie in
    b; scratch is a bool array of b's shape that the erosion overwrites."""
    for axis in range(3):
        head = tuple(slice(None, -1) if i == axis else slice(None) for i in range(3))
        tail = tuple(slice(1, None) if i == axis else slice(None) for i in range(3))
        pairs = scratch[head]  # cell i and its + neighbour along axis
        np.logical_and(b[head], b[tail], out=pairs)
        b[head] &= pairs
        b[tail] &= pairs


def _leap_steps(job: RenderJob) -> np.ndarray:
    """Steps a ray advances from a sample in a cell at distance D: 1 at D = 0
    (a classified sample), else 1 + floor((D - 1) * min_spacing / step_len).
    The samples skipped on the way lie within D - 1 cells, since each grid
    coordinate moves at most |dir_i| / spacing_i <= 1 / min_spacing per unit
    of t, and locate's clamp and floor move a cell by less than that plus 1.
    The leap stops a slack short: 2^-40 of the largest coordinate in
    cells, far above the rounding of the positions."""
    vol = job.volume
    span = max(float(np.abs(a).max()) for a in (job.camera.eye, vol.world_min, vol.world_max))
    slack = span / float(min(vol.spacing)) * 2.0 ** -40
    reach = (np.arange(EMPTY_DISTANCE_CAP + 1) - 1.0 - slack) / job.step
    return 1 + np.floor(np.maximum(reach, 0.0)).astype(np.int64)


# Classifiers: (job, model, cells, state, rng) -> (A, 4) RGBA.


def _mean_rgba(job, m, c, state, rng):
    return job.tf.sample(interp.blend(m.values, c.idx8, c.w8))


def _gathered(field: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """A model field's values at voxel ids, in float64."""
    return field.take(ids).astype(np.float64)


def _uniform_rgba(job, m, c, state, rng):
    return lattice_color_batch(*uniform_sum_density_batch(
        _gathered(m.center, c.idx8), _gathered(m.width, c.idx8), c.w8, CONV_LATTICE), job.tf)


def _quantile_range_rgba(job, m, c, state, rng):
    return quantile_range_batch(interp.blend(m.boundaries, c.idx8, c.w8), m.qval, job.tf)


def _quantile_mean_rgba(job, m, c, state, rng):
    return quantile_mean_batch(interp.blend(m.boundaries, c.idx8, c.w8), m.qval, job.tf)


def _gmm_ordered_rgba(job, m, c, state, rng):
    ws, mus, sgs = interp.blend_gmm_ordered(*state.gmm_sorted, c.idx8, c.w8)
    colors = gauss_hermite_batch(mus.ravel(), sgs.ravel(), job.tf).reshape(*mus.shape, 4)
    return np.einsum("ak,akc->ac", ws, colors)


def _gmm_mc_rgba(job, m, c, state, rng):
    x = interp.sample_gmm_batch(m.weights, m.means, m.sigmas, c.idx8, c.w8, job.mc_samples, rng)
    return np.einsum("anc->ac", job.tf.sample(x)) / x.shape[1]


def _tf2d_rgba(job, m, c, state, rng):
    """Samples too close to the boundary for central differences stay clear."""
    rgba = np.zeros((c.flat.shape[0], 4))
    vidx = np.nonzero(interp.stencil_fits(job.volume.dims, c.base))[0]
    if vidx.size:
        flat32, w32, u, _, _, degenerate = interp.gradient_stencil_batch(
            job.volume.dims, c.flat[vidx], c.w8[vidx], state.deriv, job.mean_grid.values)
        rgba[vidx] = expected_color_2d_batch(_gathered(m.center, flat32), _gathered(m.width, flat32),
                                             w32, u, job.tf2, state.tf2d_points,
                                             degenerate=degenerate)
    return rgba


_SCHEMES = {
    "mean": (MeanFieldModel, _mean_rgba),
    "uniform": (UniformModel, _uniform_rgba),
    "gaussian": (GaussianModel, _gmm_ordered_rgba),
    "gmm-ordered": (GmmVolumeModel, _gmm_ordered_rgba),
    "gmm-mc": (GmmVolumeModel, _gmm_mc_rgba),
    "quantile-range": (QuantileModel, _quantile_range_rgba),
    "quantile-mean": (QuantileModel, _quantile_mean_rgba),
    "tf2d": (UniformModel, _tf2d_rgba),
}
SCHEMES = tuple(_SCHEMES)


def scheme_model(scheme: str) -> type:
    """The voxel-model class that a scheme renders."""
    if scheme not in _SCHEMES:
        raise VolumeError(f"unknown scheme {scheme!r}")
    return _SCHEMES[scheme][0]


def _classify_chunk(state: _SchemeState, pos: np.ndarray, rng) -> np.ndarray:
    """RGBA for sample positions inside the volume bounding box."""
    job = state.job
    vol = job.volume
    cells = interp.locate(vol.dims, vol.spacing, vol.origin, pos)
    return _SCHEMES[job.scheme][1](job, vol.model, cells, state, rng)


def _render_chunk(state: _SchemeState, chunk_id: int, origins, dirs) -> np.ndarray:
    job = state.job
    vol = job.volume
    out = np.zeros((origins.shape[0], 4))
    out[:, 3] = 1.0  # over opaque black
    tnear, tfar = _ray_box(origins, dirs, vol.world_min, vol.world_max)
    step_len = job.step * float(min(vol.spacing))
    ref_len = float(min(vol.spacing))
    t_floor = 1.0 - TERMINATION

    # The live rays' state, compacted in ray order.  A ray's sample kk lies
    # at t = tnear + (kk + 1/2) * step_len, its last one centred in what is left.
    ray = np.nonzero(tfar > tnear)[0]
    o, d, t0, t1 = origins[ray], dirs[ray], tnear[ray], tfar[ray]
    rgb, trans, kk = np.zeros((ray.size, 3)), np.ones(ray.size), np.zeros(ray.size, np.int64)
    k = 0
    while True:
        t_lo = t0 + kk * step_len
        dt = np.minimum(step_len, t1 - t_lo)
        keep = (dt > _SLIVER * step_len) & (trans > t_floor)
        if not keep.all():  # rays that left the box or terminated
            out[ray[~keep], :3] = rgb[~keep]
            sel = np.flatnonzero(keep)
            ray, o, d, t0, t1, rgb, trans, kk, t_lo, dt = (
                a.take(sel, axis=0) for a in (ray, o, d, t0, t1, rgb, trans, kk, t_lo, dt))
        if not ray.size:
            return out
        pos = o + d * (t_lo + 0.5 * dt)[:, None]
        if state.dist is None:
            hit = slice(None)
            kk += 1
        else:  # samples in empty cells have alpha 0: leap over them
            dist = state.dist[interp.cell_ids(vol.dims, vol.spacing, vol.origin, pos)]
            kk += state.advance[dist]
            hit = np.flatnonzero(dist == 0)
            pos = pos.take(hit, axis=0)
        if len(pos):
            # One deterministic stream per (job seed, chunk, step); every ray
            # of a scheme without a table is at step kk == k, and consumption
            # order inside the chunk is fixed by the live-ray order.
            rng = (np.random.default_rng(np.random.SeedSequence((job.seed, chunk_id, k)))
                   if job.scheme == "gmm-mc" else None)
            rgba = _classify_chunk(state, pos, rng)
            alpha = np.clip(rgba[:, 3], 0.0, 1.0)
            corrected = 1.0 - (1.0 - alpha) ** (dt[hit] / ref_len)
            rgb[hit] += (trans[hit] * corrected)[:, None] * np.clip(rgba[:, :3], 0.0, 1.0)
            trans[hit] *= 1.0 - corrected
        k += 1


def raycast(job: RenderJob, threads: int = 1) -> Image:
    """Render a job; bit-identical output for any thread count."""
    cam = job.camera
    origins, dirs = camera_rays(cam)
    n = origins.shape[0]
    state = _SchemeState(job)
    out = np.empty((n, 4))

    def work(lo, hi):
        out[lo:hi] = _render_chunk(state, lo // CHUNK_PIXELS, origins[lo:hi], dirs[lo:hi])

    map_chunks(work, n, threads, CHUNK_PIXELS)
    pixels = np.clip(out, 0.0, 1.0).reshape(cam.height, cam.width, 4)
    return Image(cam.width, cam.height, pixels)


def render_quartile_views(volume: DistributionVolume, job: RenderJob,
                          threads: int = 1) -> tuple[Image, Image, Image]:
    """Lower 25%, middle 50%, and upper 25% population renders with the
    quantile-range scheme.  Pieces lo..hi of a voxel are themselves a quantile
    distribution of hi - lo equal-mass pieces, so each view renders the volume
    sliced to those boundary columns.  volume must be job.volume itself."""
    if volume is not job.volume:
        raise VolumeError("quartile views need volume to be job.volume")
    if not isinstance(volume.model, QuantileModel):
        raise VolumeError("quartile views need a quantile-model volume")
    q = volume.model.q
    if q % 4 != 0:
        raise VolumeError(f"quartile views need q divisible by 4, got q={q}")
    quarter = q // 4
    views = []
    for lo, hi in ((0, quarter), (quarter, 3 * quarter), (3 * quarter, q)):
        model = QuantileModel(1.0 / (hi - lo), volume.model.boundaries[:, lo:hi + 1])
        sub = replace(job, volume=replace(volume, model=model), scheme="quantile-range")
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
    if scale is None:  # identical images have no difference to scale by
        scale = d.max() or 1.0
    scale = float(require_positive(scale, "diff scale", ()))
    t = np.clip(signed / scale, -1.0, 1.0)
    w = np.abs(t)[..., None]
    cold = (1 - w) * DIVERGING_WHITE + w * DIVERGING_BLUE
    warm = (1 - w) * DIVERGING_WHITE + w * DIVERGING_YELLOW
    rgb = np.where((t < 0)[..., None], cold, warm)
    pixels = np.concatenate([rgb, np.ones(rgb.shape[:2] + (1,))], axis=2)
    return Image(img.width, img.height, pixels), rmse


def save_image(img: Image, path) -> None:
    """Write an 8-bit binary pixmap (P6) and its lossless f32 sidecar
    (`width height` text header plus row-major RGBA f32)."""
    path = Path(path)
    rgb = np.clip(img.pixels[..., :3], 0.0, 1.0)
    rgb *= 255.0
    data = np.rint(rgb, out=rgb).astype(np.uint8)
    write_file(path, f"P6\n{img.width} {img.height}\n255\n".encode("ascii"), data)
    write_file(path.with_suffix(path.suffix + ".f32"), f"{img.width} {img.height}\n".encode("ascii"),
               img.pixels.astype("<f4", copy=False))


def load_image_f32(path) -> Image:
    (w, h), pixels = read_headed_f32(path, (int, int), "f32 sidecar")
    return Image(w, h, pixels.reshape(h, w, 4))

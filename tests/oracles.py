"""Independent oracles of the tests: the rational per-piece form of trilinear
quantile interpolation, a Monte Carlo resampling oracle, Kolmogorov-Smirnov
distances, the pointwise expected color of a lattice distribution, the
corner blend as a gather then a contraction, the bivariate test fields, the dense ray loop, the exact CDF of a blend of 8
Gaussian mixtures, a gmm-mc classifier with its own component pick, the
closed-form fields evaluated on a full meshgrid, the noise draw by whole-array
formulas, a float64 stand-in for a voxel model, the moment fits as plain
member-by-member float64 sums, and a traced memory peak.  Most
use only the public API of uqdvr, so they check the package's kernels
without sharing code with them.  kde_cdf exposes a private kernel: the KDE
fit's lattice CDF and pdf, which the fit inverts without building its
lattice; exact_kde_cdf and exact_kde_quantiles are the KDE without a lattice.
raycast_dense drives the renderer's own per-step classifier through the loop
that takes every step of every ray, so a skip in raycast that changes a byte
shows against it."""

from __future__ import annotations

import itertools
import tracemalloc
from typing import Sequence

import numpy as np
from scipy.interpolate import CubicHermiteSpline
from scipy.special import ndtr

from uqdvr import density, interp, render
from uqdvr.classify import TransferFunction1D
from uqdvr.volcore import (EPS_WIDTH, QuantilePdf, ScalarGrid, VolumeError, map_chunks,
                           require_finite, require_int, require_ints)


def _vectors(*arrays) -> list[np.ndarray]:
    """The inputs as float64 vectors, checked to be congruent, nonempty and finite."""
    out = [require_finite(a, "inputs").ravel() for a in arrays]
    if out[0].size == 0 or any(a.size != out[0].size for a in out):
        raise VolumeError("inputs must be nonempty vectors of one shared length")
    return out


def _corner_boundary_matrix(corners: Sequence[QuantilePdf]) -> tuple[float, np.ndarray]:
    if len(corners) != 8 or len({(c.qval, c.q) for c in corners}) != 1:
        raise VolumeError("trilinear interpolation needs 8 corner pdfs sharing qval")
    return corners[0].qval, np.stack([c.boundaries for c in corners], axis=0)


def quantile_interp_3d_rational(corners: Sequence[QuantilePdf], alpha: float, beta: float,
                                gamma: float) -> np.ndarray:
    """Per-piece densities from the rational form (terms t1..t7), kept as a
    cross-check of the boundary-blend path; zero widths take the density floor."""
    qval, b = _corner_boundary_matrix(corners)
    widths = np.diff(b, axis=1)  # (8, q)
    pr = qval / np.maximum(widths, EPS_WIDTH)
    p1, p2, p3, p4, p5, p6, p7, p8 = pr

    t1 = alpha * p1 + (1 - alpha) * p2
    t2 = alpha * p3 + (1 - alpha) * p4
    t3 = alpha * p5 + (1 - alpha) * p6
    t4 = alpha * p7 + (1 - alpha) * p8
    t5 = beta * p1 * p2 / t1 + (1 - beta) * p3 * p4 / t2
    t6 = beta * p5 * p6 / t3 + (1 - beta) * p7 * p8 / t4
    t7 = (gamma * p1 * p2 * p3 * p4 / (t1 * t2 * t5)
          + (1 - gamma) * p5 * p6 * p7 * p8 / (t3 * t4 * t6))
    return p1 * p2 * p3 * p4 * p5 * p6 * p7 * p8 / (t1 * t2 * t3 * t4 * t5 * t6 * t7)


def mc_oracle_interp(corner_samples: Sequence[np.ndarray], weights, n: int,
                     seed: int, coupling: str = "ordered") -> np.ndarray:
    """Monte Carlo oracle for X = sum_i w_i X_i by with-replacement resampling
    from the corner sample sets (test-only).  Returns sorted realizations.

    coupling "ordered": every realization draws one shared rank u and combines
    the corners' same-rank empirical quantiles, matching the order-statistics
    coupling that quantile interpolation realizes.  coupling "independent":
    each corner is resampled independently, matching the convolution semantics
    of the parametric interpolation routes.
    """
    if len(corner_samples) != len(tuple(weights)):
        raise VolumeError("one weight per corner sample set")
    n = require_int(n, "n")
    if coupling not in ("ordered", "independent"):
        raise VolumeError(f"unknown coupling {coupling!r}")
    sorted_sets = [np.sort(_vectors(s)[0]) for s in corner_samples]
    rng = np.random.default_rng(seed)
    out = np.zeros(n)
    if coupling == "ordered":
        u = rng.random(n)
        for w, s in zip(weights, sorted_sets):
            idx = np.minimum((u * s.size).astype(np.int64), s.size - 1)
            out += w * s[idx]
    else:
        for w, s in zip(weights, sorted_sets):
            out += w * s[rng.integers(0, s.size, n)]
    return np.sort(out)


def ks_distance(pdf: QuantilePdf, samples: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance between a quantile pdf's piecewise-linear
    CDF and the empirical CDF of a sample list."""
    s = np.sort(_vectors(samples)[0])
    n = s.size
    f = pdf.cdf(s)
    lo = np.arange(n) / n
    hi = np.arange(1, n + 1) / n
    d_samples = max(np.max(np.abs(f - lo)), np.max(np.abs(f - hi)))
    # The CDF difference is also extremal where the piecewise CDF has kinks.
    masses = np.arange(pdf.q + 1) * pdf.qval
    emp_at_b = np.searchsorted(s, pdf.boundaries, side="right") / n
    d_knots = np.max(np.abs(masses - emp_at_b))
    return float(max(d_samples, d_knots))


def ks_two_sample(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample KS distance between sorted or unsorted sample lists."""
    a, b = (np.sort(_vectors(v)[0]) for v in (a, b))
    allv = np.concatenate([a, b])
    fa = np.searchsorted(a, allv, side="right") / a.size
    fb = np.searchsorted(b, allv, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))


def lattice_color_einsum(xs: np.ndarray, mass: np.ndarray, tf: TransferFunction1D) -> np.ndarray:
    """Expected RGBA of (P, F) masses at the (P, F) points xs: the TF read at
    every point, weighted by the normalized masses."""
    w = mass / mass.sum(axis=1, keepdims=True)
    return np.einsum("an,anc->ac", w, tf.sample(xs))


def kde_cdf(samples, config: density.KdeConfig = density.KdeConfig()):
    """(x, F) for one sample set that is not constant: x is the KDE fit's
    lattice and F the cubic Hermite CDF through its lattice values and pdf
    slopes, scipy's CubicHermiteSpline, which estimate_quantiles inverts.
    estimate_quantiles collapses constant sets to their value without
    smoothing them."""
    s = density._sample_set(samples, "kde_cdf", 1)
    lo, du, cdf, slope = density._kde_lattice_cdf(s, density._bandwidths(s, config),
                                                  config.lattice)
    x = lo[0] + du[0] * np.arange(config.lattice)
    return x, CubicHermiteSpline(x, cdf[0], slope[0] / du[0])


def exact_kde_cdf(samples: np.ndarray, h: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The exact Gaussian-kernel KDE CDF of each row of (V, M) samples, with
    bandwidths h (V,), at the (V, P) points x: the mean of ndtr((x - s) / h),
    renormalised to run from 0 to 1 over the padded range [min - 3h, max + 3h]
    that the KDE fit spans."""
    def raw(at):
        return ndtr((at[:, :, None] - samples[:, None, :]) / h[:, None, None]).mean(axis=2)

    ends = raw(np.stack([samples.min(axis=1) - 3.0 * h, samples.max(axis=1) + 3.0 * h], axis=1))
    return (raw(x) - ends[:, :1]) / (ends[:, 1:] - ends[:, :1])


def exact_kde_quantiles(samples: np.ndarray, h: np.ndarray, masses: np.ndarray) -> np.ndarray:
    """(V, P) inverses of exact_kde_cdf at the masses, by 80 bisection steps
    on the padded range of each row."""
    lo = np.repeat((samples.min(axis=1) - 3.0 * h)[:, None], masses.size, axis=1)
    hi = np.repeat((samples.max(axis=1) + 3.0 * h)[:, None], masses.size, axis=1)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        below = exact_kde_cdf(samples, h, mid) < masses
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def make_bivariate(dims) -> tuple[ScalarGrid, ScalarGrid]:
    """Two smooth coupled fields for 2D-TF and fuzzy-fiber-surface tests on
    the box [-1, 1]^3: a radial pressure-like well and a shifted, nonlinearly
    warped companion, each min-max normalized to [0, 1]."""
    dims = require_ints(dims, 3, "field dims", 2)
    z, y, x = np.meshgrid(*(np.linspace(-1.0, 1.0, n) for n in dims[::-1]), indexing="ij")
    a = np.exp(-1.6 * (x * x + y * y + z * z))
    b = np.exp(-1.1 * ((x - 0.15) ** 2 + (y - 0.1) ** 2 + (z + 0.05) ** 2)) ** 1.7
    spacing = tuple(2.0 / (n - 1) for n in dims)
    return tuple(ScalarGrid(dims, spacing, (-1.0, -1.0, -1.0),
                            (v.ravel() - v.min()) / np.ptp(v) if np.ptp(v) > 0 else v.ravel())
                 for v in (a, b))


def blend_gathered(values: np.ndarray, idx8: np.ndarray, w8: np.ndarray) -> np.ndarray:
    """interp.blend as a gather of the (A, 8, ...) corners, contracted by
    np.einsum, or with one value per corner by an in-order loop (einsum picks
    its loop order from the operands' strides and summed a lone row another
    way)."""
    corners = values[idx8]
    if np.prod(corners.shape[2:]) > 1:
        return np.einsum("ac,ac...->a...", w8, corners)
    w = w8.reshape(w8.shape + (1,) * (corners.ndim - 2))
    out = w[:, 0] * corners[:, 0]
    for c in range(1, w.shape[1]):
        out += w[:, c] * corners[:, c]
    return out


def gmm_sum_cdf(weights, means, sigmas, w8, x) -> np.ndarray:
    """CDF at x of sum_c w8_c X_c with X_c independent draws from the (8, k)
    corner mixtures: every one of the k^8 component picks makes one normal,
    N(sum w8 mu, sum w8^2 sigma^2), with the product of the picked weights."""
    x = np.asarray(x, dtype=np.float64)
    cdf = np.zeros_like(x)
    k = np.shape(weights)[1]
    for picks in itertools.product(range(k), repeat=8):
        corner = (np.arange(8), list(picks))
        p = np.prod(weights[corner])
        if p == 0.0:
            continue
        mu = np.dot(w8, means[corner])
        sd = np.sqrt(np.dot(w8 ** 2, sigmas[corner] ** 2))
        cdf += p * (ndtr((x - mu) / sd) if sd > 0 else x >= mu)
    return cdf


def argmax_gmm_mc_chunk(state, pos, rng):
    """render._classify_chunk for gmm-mc with the argmax component pick and
    take_along_axis gathers that the count-based pick replaced, on the same
    stream: the 8 corners' (A, n) pick uniforms in corner order, then one
    (A, n) array of normals.  Its variance is summed unscaled, which gives
    the kernel's bytes while no square underflows."""
    job = state.job
    vol = job.volume
    m = vol.model
    nx, ny, nz = vol.dims
    nd = np.array([nx, ny, nz], dtype=np.float64)
    g = np.clip((pos - vol.world_min[None, :]) / np.asarray(vol.spacing)[None, :], 0.0, nd - 1.0)
    base = np.maximum(np.minimum(g.astype(np.int64), (nd - 2).astype(np.int64)), 0)
    frac = g - base
    flat = base[:, 0] + nx * (base[:, 1] + ny * base[:, 2])
    bits = np.arange(8)
    w8 = (np.stack([1 - frac[:, 0], frac[:, 0]], 1)[:, bits & 1]
          * np.stack([1 - frac[:, 1], frac[:, 1]], 1)[:, (bits >> 1) & 1]
          * np.stack([1 - frac[:, 2], frac[:, 2]], 1)[:, (bits >> 2) & 1])
    idx8 = flat[:, None] + interp.corner_offsets(vol.dims)[None, :]
    a, n = pos.shape[0], job.mc_samples
    mu, var = np.zeros((a, n)), np.zeros((a, n))
    for c in range(8):
        vox = idx8[:, c]
        cum = np.cumsum(m.weights[vox], axis=1, dtype=np.float64)
        cum[:, -1] = 1.0
        u = rng.random((a, n))
        comp = (u[:, None, :] < cum[:, :, None]).argmax(axis=1)
        mu += w8[:, c][:, None] * np.take_along_axis(m.means[vox], comp, axis=1)
        var += (w8[:, c][:, None] * np.take_along_axis(m.sigmas[vox], comp, axis=1)) ** 2
    x = mu + np.sqrt(var) * rng.standard_normal((a, n))
    return job.tf.sample(x).mean(axis=1)


def _render_chunk_dense(state, chunk_id: int, origins, dirs) -> np.ndarray:
    """The ray loop that takes every step of every ray at a shared step index k."""
    job = state.job
    vol = job.volume
    n = origins.shape[0]
    tnear, tfar = render._ray_box(origins, dirs, vol.world_min, vol.world_max)
    step_len = job.step * float(min(vol.spacing))
    ref_len = float(min(vol.spacing))
    t_floor = 1.0 - render.TERMINATION

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
        rng = (np.random.default_rng(np.random.SeedSequence((job.seed, chunk_id, k)))
               if job.scheme == "gmm-mc" else None)
        t_mid = t_lo[idx] + 0.5 * dt[idx]
        pos = origins[idx] + dirs[idx] * t_mid[:, None]
        rgba = render._classify_chunk(state, pos, rng)
        alpha = np.clip(rgba[:, 3], 0.0, 1.0)
        corrected = 1.0 - (1.0 - alpha) ** (dt[idx] / ref_len)
        weight = trans[idx] * corrected
        rgb[idx] += weight[:, None] * np.clip(rgba[:, :3], 0.0, 1.0)
        trans[idx] *= 1.0 - corrected
        alive[idx] = trans[idx] > t_floor
        k += 1
    return np.concatenate([rgb, np.ones((n, 1))], axis=1)  # over opaque black


def raycast_dense(job: render.RenderJob, threads: int = 1) -> render.Image:
    """render.raycast with every sample classified: no leaps over empty space."""
    cam = job.camera
    origins, dirs = render.camera_rays(cam)
    n = origins.shape[0]
    state = render._SchemeState(job)
    out = np.empty((n, 4))

    def work(lo, hi):
        out[lo:hi] = _render_chunk_dense(state, lo // render.CHUNK_PIXELS, origins[lo:hi],
                                         dirs[lo:hi])

    map_chunks(work, n, threads, render.CHUNK_PIXELS)
    pixels = np.clip(out, 0.0, 1.0).reshape(cam.height, cam.width, 4)
    return render.Image(cam.width, cam.height, pixels)


def float64_model(model, **fields):
    """A stand-in for a voxel model or a grid, made with object.__new__ so
    that it skips the constructor: its value fields taken to float64, or the
    float64 arrays given by name.  The kernels read float64 tables as they
    read the float32 ones, at any scale a float64 holds."""
    stand_in = object.__new__(type(model))
    for name, value in vars(model).items():
        if name in getattr(model, "FIELDS", ("values",)):
            value = fields[name] if name in fields else value.astype(np.float64)
        object.__setattr__(stand_in, name, value)
    return stand_in


def noise_draw_where(rng, spec, n: int) -> np.ndarray:
    """synth._noise_draw by whole-array formulas on the same stream: bimodal
    noise takes np.where over full main and outlier draws."""
    if spec.kind == "gaussian":
        return spec.sigma * rng.standard_normal(n)
    if spec.kind == "uniform":
        return spec.width * (rng.random(n) - 0.5)
    pick_main = rng.random(n) < spec.p_main
    main = spec.sigma * rng.standard_normal(n)
    outlier = spec.offset + spec.outlier_sigma * rng.standard_normal(n)
    return np.where(pick_main, main, outlier)


def member_order_moments(members, kind: str) -> tuple:
    """The mean, uniform or gaussian fit parameters of each voxel from the
    members' values (arrays of one shape), taken to float64 and summed one
    member after another: mean sum(x) / M, sigma sqrt(sum((x - mean)^2) /
    (M - 1)), and the midrange and range of the min and max."""
    xs = [np.asarray(x, dtype=np.float64) for x in members]
    if kind == "uniform":
        lo, hi = xs[0], xs[0]
        for x in xs[1:]:
            lo, hi = np.minimum(lo, x), np.maximum(hi, x)
        return 0.5 * (lo + hi), hi - lo
    total = np.zeros(xs[0].shape)
    for x in xs:
        total = total + x
    mean = total / len(xs)
    if kind == "mean":
        return (mean,)
    dev = np.zeros(mean.shape)
    for x in xs:
        dev = dev + (x - mean) ** 2
    return mean, np.sqrt(dev / (len(xs) - 1))


def field_bytes(model) -> int:
    """The bytes of the arrays that a VoxelModel keeps."""
    return sum(a.nbytes for a in vars(model).values() if isinstance(a, np.ndarray))


def traced_peak(fn):
    """(fn(), the peak of the memory that tracemalloc traced while fn ran)."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def meshgrid_field(name: str, dims) -> np.ndarray:
    """The x-fastest values of synth.sample_field(name, dims), evaluated on a
    full (z, y, x) meshgrid of its default box and min-max normalized."""
    kind, _, rest = name.partition("(")
    args = [float(v) for v in rest.rstrip(")").split(",")] if rest else []
    half = {"tangle": 2.5, "teardrop": 1.2, "nested-spheres": 1.0}.get(kind)
    lo, hi = (-half, half) if half else (0.0, 1.0)
    nx, ny, nz = dims
    z, y, x = np.meshgrid(np.linspace(lo, hi, nz), np.linspace(lo, hi, ny),
                          np.linspace(lo, hi, nx), indexing="ij")
    if kind == "tangle":
        vals = (x**4 - 5 * x**2) + (y**4 - 5 * y**2) + (z**4 - 5 * z**2) + 11.8
    elif kind == "teardrop":
        vals = 0.5 * x**5 + 0.5 * x**4 - y**2 - z**2
    elif kind == "nested-spheres":
        r = np.sqrt(x * x + y * y + z * z) / half
        vals = np.zeros_like(r)
        for radius, value in zip((0.20, 0.42, 0.64, 0.86), (0.25, 0.5, 0.75, 1.0)):
            vals = np.where(np.abs(r - radius) < 0.5 * 0.16, value, vals)
    elif kind == "linear":
        vals = args[0] * x + args[1] * y + args[2] * z
    else:
        vals = np.full_like(x, args[0])
    vals = vals.ravel()
    if vals.max() > vals.min():
        vals = (vals - vals.min()) / (vals.max() - vals.min())
    return vals

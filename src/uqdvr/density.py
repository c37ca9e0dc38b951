"""Per-voxel probability model estimation from noise samples.

Covers Gaussian-kernel KDE reduced to quantile representations, moment-fit
parametric models and EM-fit Gaussian mixtures.  Every fit reads the sample
sets of an EnsembleVolume; hixel bricks of a high-resolution volume become one
with brick_ensemble.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .volcore import (
    DistributionVolume,
    EnsembleVolume,
    F32_MAX,
    GmmModel,
    GmmVolumeModel,
    MAX_LATTICE,
    MODEL_KINDS,
    QuantileModel,
    QuantilePdf,
    SamplesModel,
    ScalarGrid,
    VolumeError,
    _quantile_masses,
    map_chunks,
    require_int,
    require_ints,
    require_finite,
    require_positive,
)

# Sigma floor for EM fits, relative to the sample range.
_GMM_SIGMA_FLOOR_REL = 1e-6
_CHUNK_VOXELS = 4096
# Voxels per member read of the moment fits: smaller slabs contend for the GIL
# (2^12 took 7x the time of 2^16), larger ones leave L2 (2^18 took 1.2x).
_MOMENT_SLAB = 1 << 16
# Cells of padded FFT lattice smoothed at once: 512 rows at the default lattice
# of 128, fewer at finer lattices.  Its (rows, 2 * lattice) float64 arrays take
# 1 MB, and a block of 50 samples a row peaks at 2.9 MB traced, which keeps the
# per-thread working set (and what the allocator retains after it) small.
# Blocks of 128 to 512 rows fit equally fast; 1,024 rows took 1.3x the time.
_FFT_CELLS = 1 << 17
# Rows read and fitted at once by EM, for the same reason: its (M, k, rows)
# float64 temporaries take 0.4 MB each at M=50, k=2 (3.3 MB at 4,096 rows).  Rows
# are the innermost axis, so each operation runs along them, while components
# and members still add up in the order of one sample set (see _gmm_em_rows).
# 256 to 1,024 rows run equally fast.
_EM_ROWS = 512
_MIN_BANDWIDTH = float(np.finfo(float).tiny)  # the smallest normal float


@dataclass(frozen=True)
class KdeConfig:
    """Gaussian-kernel KDE settings.

    The density is evaluated on a uniform value lattice spanning the sample
    range padded by 3 bandwidths.  bandwidth "auto" is Silverman's rule;
    otherwise it is a number from the smallest normal float to F32_MAX.
    lattice is an integer number of lattice points in [64, 65536].
    """

    bandwidth: float | str = "auto"
    lattice: int = 128

    def __post_init__(self):
        if not (isinstance(self.bandwidth, str) and self.bandwidth == "auto"):
            bw = float(require_positive(self.bandwidth, "explicit bandwidth", ()))
            if not _MIN_BANDWIDTH <= bw <= F32_MAX:
                raise VolumeError(f"explicit bandwidth must lie in [{_MIN_BANDWIDTH:.2g}, F32_MAX]")
            object.__setattr__(self, "bandwidth", bw)
        lattice = require_int(self.lattice, "KDE lattice")
        if not 64 <= lattice <= MAX_LATTICE:
            raise VolumeError(f"lattice resolution must lie in [64, {MAX_LATTICE}]")
        object.__setattr__(self, "lattice", lattice)


def _bandwidths(samples: np.ndarray, config: KdeConfig) -> np.ndarray:
    """Per-row bandwidths for (V, M) sample sets; "auto" is Silverman's rule,
    0 for a constant row and at least the smallest normal float otherwise."""
    v, m = samples.shape
    if config.bandwidth != "auto":
        return np.full(v, config.bandwidth)
    if m == 1:
        return np.zeros(v)
    lo, hi = samples.min(axis=1), samples.max(axis=1)
    # sigma-hat in units of 2^e, 2^e the row's largest |sample| rounded up to a
    # power of two, so that squared deviations of tiny spreads cannot
    # underflow; the scalings are exact, as in interp.variance_table.
    e = np.frexp(np.maximum(hi, -lo))[1]
    sd = np.ldexp(np.std(np.ldexp(samples, -e[:, None]), axis=1, ddof=1), e)
    return np.where(hi > lo, np.maximum(1.06 * sd * m ** (-0.2), _MIN_BANDWIDTH), 0.0)


def _sample_set(samples, what: str, least: int) -> np.ndarray:
    """One sample set as a (1, M) row; VolumeError unless it holds at least
    least samples, all within +-F32_MAX, the domain of every grid and model."""
    s = require_finite(samples, f"{what} samples", f32_range=True).reshape(1, -1)
    if s.shape[1] < least:
        raise VolumeError(f"{what} needs at least {least} samples")
    return s


def silverman_bandwidth(samples) -> float:
    """1.06 * sigma-hat * n^(-1/5) for n samples, at least the smallest normal
    float; 0 when the samples are all equal."""
    return float(_bandwidths(_sample_set(samples, "silverman_bandwidth", 1), KdeConfig())[0])


def _kde_lattice_cdf(samples: np.ndarray, h: np.ndarray, lattice: int):
    """KDE CDF and pdf on a value lattice for each row of (V, M) samples.

    Samples are binned by the cubic B-spline's four taps onto a zero-padded
    circular grid of 2*lattice cells, lattice point j at cell j + 1, so the
    convolution never wraps (Wand 1994).  One rFFT, the Gaussian's spectrum
    in closed form over the B-spline's sinc^4 (Silverman 1982) and one
    inverse rFFT give the pdf p at the lattice points; cell j's mass is
    (-p[j-1] + 13 p[j] + 13 p[j+1] - p[j+2]) / 24, clipped at 0.  Each step
    is fourth order in the lattice step.

    Returns (lo, du, cdf, slope): row v's lattice is lo[v] + du[v] *
    arange(lattice), and slope is the pdf clipped at 0 in units of the
    normalised (V, lattice) cdf per lattice step.  Rows need samples within
    +-F32_MAX that are not all equal and an h of at least the smallest normal
    float, as _kde_quantile_rows sends them: the lattice then spans at least
    6h, so du > 0 and h/du <= (lattice - 1)/6.
    """
    v = samples.shape[0]
    lo = np.maximum(samples.min(axis=1) - 3.0 * h, -F32_MAX)  # padded within the f32 range
    hi = np.minimum(samples.max(axis=1) + 3.0 * h, F32_MAX)
    du = (hi - lo) / (lattice - 1)
    n = 2 * lattice

    # Kernel and bin scale factors drop out when the CDF is normalised.
    f = samples - lo[:, None]
    f /= du[:, None]
    cell = np.minimum(f.astype(np.intp), lattice - 2)
    f -= cell
    cell += n * np.arange(v)[:, None]  # the cell of the tap below the sample
    g, w = 1.0 - f, np.empty_like(f)
    counts = np.zeros(v * n)
    # The taps lie 2 - g, f, g and 2 - f from the sample, and the B-spline is
    # B(2 - x) = x^3 / 6 and B(x) = (x / 2 - 1) x^2 + 2/3, taken into w in place.
    outer, inner = (1.0 / 6.0, 0.0, 0.0), (0.5, -1.0, 2.0 / 3.0)
    for x, (c3, c2, c0) in ((g, outer), (f, inner), (g, inner), (f, outer)):
        np.multiply(x, c3, out=w)
        w += c2
        w *= x
        w *= x
        w += c0
        counts += np.bincount(cell.ravel(), w.ravel(), v * n)
        cell += 1
    del f, g, w, cell
    spectrum = np.fft.rfft(counts.reshape(v, n))
    del counts
    k = np.arange(lattice + 1)
    sigma_omega = np.multiply.outer(h / du, k * (np.pi / lattice))  # sigma in lattice steps
    spectrum *= np.exp(-0.5 * sigma_omega ** 2) / np.sinc(k / n) ** 4
    del sigma_omega
    pdf = np.fft.irfft(spectrum, n)
    del spectrum
    mass = (13.0 * (pdf[:, 1:lattice] + pdf[:, 2:lattice + 1])
            - pdf[:, :lattice - 1] - pdf[:, 3:lattice + 2])
    np.maximum(mass, 0.0, out=mass)
    # Allocated after the FFT arrays: allocated before them, it gave a KDE fit
    # several times the page faults and a quarter more time (glibc malloc).
    cdf = np.zeros((v, lattice))
    np.cumsum(mass, axis=1, out=cdf[:, 1:])
    del mass
    # The cumulative sum of clipped masses never decreases, and dividing by
    # one positive total keeps that order, so the CDF is monotone as it stands.
    total = cdf[:, -1:].copy()
    cdf /= total
    slope = np.maximum(pdf[:, 1:lattice + 1], 0.0)
    slope *= 24.0 / total
    return lo, du, cdf, slope


def _invert_cdf_rows(origin: np.ndarray, du: np.ndarray, cdf: np.ndarray, slope: np.ndarray,
                     masses: np.ndarray) -> np.ndarray:
    """The inverse at the masses of each row's monotone cubic Hermite CDF,
    whose values and slopes at row v's lattice points origin[v] + du[v] *
    arange(n) are cdf[v] and slope[v] (per lattice step).

    Rows need cdf[:, 0] <= masses[0].  A bisection run on all rows at once
    finds the last lattice point j with cdf <= mass, which is the bracket
    np.interp uses, and np.interp's arithmetic gives the linear inverse in it.
    On [j, j + 1] the cubic is c0 + d t + t (1 - t) (a (1 - t) - b t), with
    d = c1 - c0 and a and b the end slopes less d.  Three Newton steps from
    the linear inverse, clipped to the cell, solve it where it is monotone,
    which holds when the squares of the end slopes sum to at most 9 d^2
    (Fritsch and Carlson 1980); elsewhere the linear inverse stands.  On the
    tests' budget sets three steps leave the cubic within 2e-12 of the mass.
    A cell whose slopes equal d keeps the linear inverse's bytes.  Each
    (row, mass) entry depends on that row and mass only.
    """
    v, n = cdf.shape
    rows = np.arange(v)[:, None]
    lo = np.zeros((v, masses.size), dtype=np.intp)
    hi = np.full((v, masses.size), n, dtype=np.intp)
    for _ in range(n.bit_length()):
        mid = (lo + hi) >> 1
        below = (cdf[rows, np.minimum(mid, n - 1)] <= masses) & (mid < hi)
        lo = np.where(below, mid + 1, lo)
        hi = np.where(below, hi, mid)
    j = np.minimum(lo - 1, n - 2)
    c0, c1 = cdf[rows, j], cdf[rows, j + 1]
    o, step = origin[:, None], du[:, None]
    x0, x1 = o + step * j, o + step * (j + 1)
    d = c1 - c0
    a, b = slope[rows, j] - d, slope[rows, j + 1] - d
    with np.errstate(divide="ignore", invalid="ignore"):
        linear = (x1 - x0) / d * (masses - c0) + x0
        t0 = (masses - c0) / d
        t = t0
        for _ in range(3):
            s = 1.0 - t
            bend = a * s - b * t
            f = d * (t - t0) + t * s * bend  # the cubic at t less the mass
            df = d + (s - t) * bend - t * s * (a + b)
            t = np.clip(t - np.where(df > 0.0, f / df, 0.0), 0.0, 1.0)
        cubic = (a + d) ** 2 + (b + d) ** 2 <= 9.0 * d * d
        x = np.where(cubic & (d > 0.0), linear + step * (t - t0), linear)
    x = np.where(c0 == masses, x0, x)
    return np.where(lo == n, o + step * (n - 1), x)


def _kde_quantile_rows(samples: np.ndarray, masses: list, config: KdeConfig) -> list:
    """Quantile boundaries of (V, M) sample sets at each mass vector, all from
    one KDE CDF per row; constant rows collapse to their value.  The union of
    the mass vectors is inverted once; each vector then takes its own columns,
    made monotone, which gives the bytes of inverting it alone."""
    h = _bandwidths(samples, config)
    const = samples.max(axis=1) == samples.min(axis=1)
    outs = [np.repeat(samples[:, :1], mv.size, axis=1) for mv in masses]
    union, where = np.unique(np.concatenate(masses), return_inverse=True)
    columns = np.split(where, np.cumsum([mv.size for mv in masses])[:-1])
    live = np.nonzero(~const)[0]
    step = max(1, _FFT_CELLS // (2 * config.lattice))
    for start in range(0, live.size, step):
        rows = live[start:start + step]
        b = _invert_cdf_rows(*_kde_lattice_cdf(samples[rows], h[rows], config.lattice), union)
        for out, cols in zip(outs, columns):
            # Lattice points near F32_MAX may round one ulp beyond it.
            out[rows] = np.minimum(np.maximum.accumulate(b[:, cols], axis=1), F32_MAX)
    return outs


def _batch_quantiles(samples: np.ndarray, qval: float, config: KdeConfig) -> np.ndarray:
    """Quantile boundaries (V, q+1) for (V, M) sample sets via the KDE path."""
    return _kde_quantile_rows(samples, [_quantile_masses(qval)], config)[0]


def estimate_quantiles(samples, qval: float, config: KdeConfig = KdeConfig()) -> QuantilePdf:
    """KDE-based quantile boundaries for one sample set.

    The KDE's pdf and CDF are formed on a lattice of config.lattice points
    (see _kde_lattice_cdf), and the cubic Hermite CDF through them is
    inverted at masses {0, qval, ..., 1}.
    """
    boundaries = _batch_quantiles(_sample_set(samples, "estimate_quantiles", 2), qval, config)[0]
    return QuantilePdf(qval, boundaries)


def _member_moments(members, count: int, kind: str) -> tuple:
    """Moment-fit parameters of sample sets whose count members, arrays of one
    shape, members() yields in member order (twice for gaussian).  Sums run in
    float64 in member order: mean sum(x) / M, sigma sqrt(sum((x - mean)^2) /
    (M - 1)); uniform takes the min and max, then midrange and range."""
    it = members()
    first = next(it)
    if kind == "uniform":
        lo, hi = first.copy(), first.copy()
        for x in it:
            np.minimum(lo, x, out=lo)
            np.maximum(hi, x, out=hi)
        lo, hi = lo.astype(np.float64), hi.astype(np.float64)
        return 0.5 * (lo + hi), hi - lo
    total = np.zeros(first.shape) + first
    for x in it:
        total += x
    mean = total / count
    if kind == "mean":
        return (mean,)
    dev, sq = np.zeros(mean.shape), np.empty(mean.shape)
    for x in members():
        dev += np.square(np.subtract(x, mean, out=sq), out=sq)
    return mean, np.sqrt(dev / (count - 1))


def _fit_moments(samples, kind: str, least: int) -> tuple:
    """_member_moments of one sample set of at least `least` samples, as floats."""
    s = _sample_set(samples, f"fit_{kind}", least)
    return tuple(float(p[0]) for p in _member_moments(lambda: iter(s.T), s.shape[1], kind))


def fit_mean(samples) -> float:
    return _fit_moments(samples, "mean", 1)[0]


def fit_uniform(samples) -> tuple[float, float]:
    """Midrange and range."""
    return _fit_moments(samples, "uniform", 1)


def fit_gaussian(samples) -> tuple[float, float]:
    """Sample mean and unbiased sample sigma."""
    return _fit_moments(samples, "gaussian", 2)


def _gmm_em_rows(samples: np.ndarray, k: int, max_iter: int, trace: list | None = None):
    """EM fits of k-component mixtures to every row of (V, M) samples.

    Returns (weights, means, sigmas), each C-contiguous (V, k).  Every row runs
    the one-sample-set EM of fit_gmm_em with its arithmetic and reductions, so
    a row's result does not depend on the rows batched with it; a row leaves
    the active set once its own stopping test fires.  A list passed as trace
    collects the mean log-likelihoods of the active rows at each iteration.

    The loop runs in an (M, k, rows) layout (samples transposed once to
    (M, 1, rows); w, mu and sigma (k, rows)), so every operation runs along
    the contiguous rows axis rather than a k-wide one.  Reductions keep the
    order of one sample set: components and members add up in index order,
    and the log-likelihood mean is taken over a contiguous (rows, M) copy, so
    it stays pairwise.  A (k, M, rows) layout does not reproduce the member
    sums.
    """
    v, m = samples.shape
    k = require_int(k, "fit_gmm_em k")
    if m < k:
        raise VolumeError(f"need at least k={k} samples, got {m}")
    require_int(max_iter, "max_iter")
    floor = np.maximum(_GMM_SIGMA_FLOOR_REL * (samples.max(axis=1) - samples.min(axis=1)), 1e-12)
    pooled = np.std(samples, axis=1, ddof=1) if m > 1 else np.zeros(v)
    if k == 1:
        # One component: fit_gaussian's mean and ddof=1 sigma, floored; EM's
        # fixed point would take the ddof=0 sigma.
        return np.ones((v, 1)), samples.mean(axis=1)[:, None], np.maximum(pooled, floor)[:, None]

    edges = np.quantile(samples, np.linspace(0, 1, k + 1), axis=1)
    mu = 0.5 * (edges[:-1] + edges[1:])
    sg = np.repeat(np.maximum(pooled / k, floor)[None, :], k, axis=0)
    w = np.full((k, v), 1.0 / k)
    fit = np.empty((3, k, v))
    rows, prev_ll = np.arange(v), np.full(v, -np.inf)
    s = np.ascontiguousarray(samples.T[:, None, :])
    for it in range(max_iter):
        z = (s - mu) / sg  # sg >= floor >= 1e-12
        logp = (np.log(np.maximum(w, 1e-300)) - np.log(sg)) - 0.5 * z * z
        peak = logp.max(axis=1, keepdims=True)
        p = np.exp(logp - peak)
        norm = p.sum(axis=1, keepdims=True)
        point_ll = np.ascontiguousarray((np.log(norm[:, 0]) + peak[:, 0]).T)
        ll = np.mean(point_ll, axis=1) - 0.5 * np.log(2.0 * np.pi)
        if trace is not None:
            trace.append(ll)
        resp = p / norm
        nk = np.maximum(resp.sum(axis=0), 1e-300)
        w = nk / m
        # A mean lies among its row's samples and a sigma within half their
        # range, but near F32_MAX either may round one ulp beyond it.
        mu = np.clip((resp * s).sum(axis=0) / nk, -F32_MAX, F32_MAX)
        var = (resp * (s - mu) ** 2).sum(axis=0) / nk
        sg = np.minimum(np.maximum(np.sqrt(var), floor), F32_MAX)
        done = ((ll - prev_ll < 1e-8) & np.isfinite(prev_ll)) | (it == max_iter - 1)
        if done.any():
            fit[:, :, rows[done]] = w[:, done], mu[:, done], sg[:, done]
            keep = ~done
            rows, floor, ll = rows[keep], floor[keep], ll[keep]
            s, w, mu, sg = (a[..., keep] for a in (s, w, mu, sg))
            if rows.size == 0:
                break
        prev_ll = ll
    weights, means, sigmas = (np.ascontiguousarray(a.T) for a in fit)
    return weights / weights.sum(axis=1, keepdims=True), means, sigmas


def fit_gmm_em(samples, k: int, max_iter: int = 100, trace: list | None = None) -> GmmModel:
    """Standard EM with deterministic initialization.

    Means start at the midpoints of k equal-mass empirical quantile pieces,
    sigmas at the pooled sigma / k, weights equal.  Stops when the mean
    log-likelihood moves by less than 1e-8, or after max_iter >= 1
    iterations.  A list passed as trace collects the per-iteration mean
    log-likelihood.
    """
    lls = [] if trace is not None else None
    w, mu, sg = _gmm_em_rows(_sample_set(samples, "fit_gmm_em", 1), k, max_iter, lls)
    if trace is not None:
        trace.extend(float(ll[0]) for ll in lls)
    return GmmModel(w[0], mu[0], sg[0])


def _fit_blocks(fit, ensemble: EnsembleVolume, threads: int, cls, chunk=_CHUNK_VOXELS) -> list:
    """The outputs of fit(lo, hi), a tuple of arrays over voxels lo..hi-1, for
    each chunk-voxel block of the ensemble, cast by cls.cast and joined; each
    voxel's fit depends on that voxel only, so blocks never change the result."""
    parts = map_chunks(lambda lo, hi: [cls.cast(a) for a in fit(lo, hi)],
                       ensemble.voxel_count, threads, chunk)
    return [np.concatenate(p) for p in zip(*parts)]


def build_distribution_volume(ensemble: EnsembleVolume, kind: str, *, qval=None, k=None,
                              max_iter: int = 100, config: KdeConfig = KdeConfig(),
                              threads: int = 1) -> DistributionVolume:
    """Fit the chosen model independently at every voxel of an ensemble."""
    if kind == "quantile":
        if qval is None:
            raise VolumeError("quantile model needs qval")
        return quantile_volumes_multi(ensemble, [qval], config, threads)[qval]
    m = ensemble.member_count
    if kind != "mean" and m < 2:
        raise VolumeError("non-mean models need an ensemble with M >= 2")
    if kind in ("mean", "uniform", "gaussian"):
        cls = MODEL_KINDS[kind]
        model = cls(*_fit_blocks(lambda lo, hi: _member_moments(
            lambda: ensemble.member_values(lo, hi), m, kind), ensemble, threads, cls, _MOMENT_SLAB))
    elif kind == "samples":
        model = SamplesModel(m, *_fit_blocks(lambda lo, hi: (ensemble.rows(lo, hi),), ensemble,
                                             threads, SamplesModel))
    elif kind == "gmm":
        if k is None:
            raise VolumeError("gmm model needs k")
        model = GmmVolumeModel(k, *_fit_blocks(lambda lo, hi: _gmm_em_rows(
            ensemble.rows(lo, hi), k, max_iter), ensemble, threads, GmmVolumeModel, _EM_ROWS))
    else:
        raise VolumeError(f"unknown model kind {kind!r}")
    return DistributionVolume(ensemble.dims, ensemble.spacing, ensemble.origin, model)


def quantile_volumes_multi(ensemble: EnsembleVolume, qvals, config: KdeConfig = KdeConfig(),
                           threads: int = 1) -> dict[float, DistributionVolume]:
    """Quantile volumes for several qvals from a single KDE pass."""
    if ensemble.member_count < 2:
        raise VolumeError("quantile model needs M >= 2")
    masses = [_quantile_masses(qv) for qv in qvals]
    bounds = _fit_blocks(lambda lo, hi: _kde_quantile_rows(ensemble.rows(lo, hi), masses, config),
                         ensemble, threads, QuantileModel)
    geo = (ensemble.dims, ensemble.spacing, ensemble.origin)
    return {qv: DistributionVolume(*geo, QuantileModel(qv, b)) for qv, b in zip(qvals, bounds)}


def brick_ensemble(hi: ScalarGrid, brick) -> EnsembleVolume:
    """The bricks of a high-resolution grid as an ensemble on the lattice of
    brick centres: member j holds voxel j (x fastest) of every brick."""
    bx, by, bz = require_ints(brick, 3, "brick size")
    nx, ny, nz = hi.dims
    if nx % bx or ny % by or nz % bz:
        raise VolumeError(f"dims {hi.dims} not divisible by brick {(bx, by, bz)}")
    dims = (nx // bx, ny // by, nz // bz)
    blocks = hi.values3d.reshape(dims[2], bz, dims[1], by, dims[0], bx)
    members = blocks.transpose(1, 3, 5, 0, 2, 4).reshape(bz * by * bx, -1)
    b = (bx, by, bz)
    spacing = tuple(s * n for s, n in zip(hi.spacing, b))
    origin = tuple(o + 0.5 * (n - 1) * s for o, s, n in zip(hi.origin, hi.spacing, b))
    return EnsembleVolume(tuple(ScalarGrid(dims, spacing, origin, v) for v in members))


def downsample_hixel(hi: ScalarGrid, brick, kind: str,
                     **fit) -> tuple[DistributionVolume, ScalarGrid]:
    """build_distribution_volume(brick_ensemble(hi, brick), kind, **fit) and
    the grid of per-brick means."""
    ens = brick_ensemble(hi, brick)
    mean = build_distribution_volume(ens, "mean", threads=fit.get("threads", 1))
    mean_grid = ScalarGrid(ens.dims, ens.spacing, ens.origin, mean.model.values)
    return (mean if kind == "mean" else build_distribution_volume(ens, kind, **fit)), mean_grid

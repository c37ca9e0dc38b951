"""Closed-form interpolation of per-voxel distributions at arbitrary sample points.

Cell corners are ordered so that index bit 0 advances +x, bit 1 advances +y,
and bit 2 advances +z; alpha blends along x, beta along y, gamma along z.
All operations are pure functions over immutable inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .density import GmmModel, KdeConfig
from .volcore import EPS_WIDTH, QuantilePdf, VolumeError

# The interpolated PDF has exactly the QuantilePdf shape.
InterpolatedPdf = QuantilePdf


@dataclass(frozen=True)
class TrilinearCoords:
    """Cell base index plus local parameters (alpha, beta, gamma) in [0,1]."""

    base: tuple[int, int, int]
    frac: tuple[float, float, float]

    def __post_init__(self):
        base = tuple(int(v) for v in self.base)
        frac = tuple(min(1.0, max(0.0, float(v))) for v in self.frac)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "frac", frac)


def trilinear_coords(dims, spacing, origin, point) -> TrilinearCoords:
    """Locate a world-space point inside its grid cell; all 8 corners in bounds."""
    p = np.asarray(point, dtype=np.float64)
    g = (p - np.asarray(origin)) / np.asarray(spacing)
    nd = np.asarray(dims)
    if np.any(g < 0) or np.any(g > nd - 1):
        raise VolumeError(f"point {point} outside the grid")
    base = np.minimum(g.astype(np.int64), nd - 2)
    base = np.maximum(base, 0)
    return TrilinearCoords(tuple(base), tuple(g - base))


def corner_weights(alpha: float, beta: float, gamma: float) -> np.ndarray:
    """The 8 trilinear weights in corner-bit order."""
    wx = np.array([1.0 - alpha, alpha])
    wy = np.array([1.0 - beta, beta])
    wz = np.array([1.0 - gamma, gamma])
    idx = np.arange(8)
    return wx[idx & 1] * wy[(idx >> 1) & 1] * wz[(idx >> 2) & 1]


def quantile_interp_1d(a: QuantilePdf, b: QuantilePdf, alpha: float) -> InterpolatedPdf:
    """Linear quantile interpolation: same-rank boundaries blend linearly.

    This realizes the 1D width rule w_j = alpha*w_bj + (1-alpha)*w_aj, so the
    density of piece j is qval / w_j.
    """
    if a.qval != b.qval or a.q != b.q:
        raise VolumeError("quantile pdfs must share qval to interpolate")
    if not (0.0 <= alpha <= 1.0):
        raise VolumeError("alpha must lie in [0, 1]")
    boundaries = (1.0 - alpha) * a.boundaries + alpha * b.boundaries
    return QuantilePdf(a.qval, boundaries)


def _corner_boundary_matrix(corners: Sequence[QuantilePdf]) -> tuple[float, np.ndarray]:
    if len(corners) != 8:
        raise VolumeError("trilinear interpolation needs exactly 8 corner pdfs")
    qval = corners[0].qval
    q = corners[0].q
    for c in corners[1:]:
        if c.qval != qval or c.q != q:
            raise VolumeError("all 8 corners must share qval")
    return qval, np.stack([c.boundaries for c in corners], axis=0)


def quantile_interp_3d(corners: Sequence[QuantilePdf], alpha: float, beta: float,
                       gamma: float) -> InterpolatedPdf:
    """Trilinear quantile interpolation via the proven boundary-blend form."""
    qval, b = _corner_boundary_matrix(corners)
    for name, v in (("alpha", alpha), ("beta", beta), ("gamma", gamma)):
        if not (0.0 <= v <= 1.0):
            raise VolumeError(f"{name} must lie in [0, 1]")
    w = corner_weights(alpha, beta, gamma)
    return QuantilePdf(qval, w @ b)


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
    if n < 1:
        raise VolumeError("n must be positive")
    if coupling not in ("ordered", "independent"):
        raise VolumeError(f"unknown coupling {coupling!r}")
    sorted_sets = []
    for s in corner_samples:
        s = np.asarray(s, dtype=np.float64).ravel()
        if s.size == 0:
            raise VolumeError("corner sample sets must be nonempty")
        sorted_sets.append(np.sort(s))
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


def interp_gaussian(means, sigmas, weights) -> tuple[float, float]:
    """Linear transform of mean and variance: mu = sum w mu_i, var = sum w^2 var_i."""
    mu = np.asarray(means, dtype=np.float64)
    sg = np.asarray(sigmas, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if np.any(sg < 0):
        raise VolumeError("sigmas must be nonnegative")
    return float(w @ mu), float(np.sqrt((w * w) @ (sg * sg)))


@dataclass(frozen=True)
class NumericDensity:
    """A density sampled on a uniform value lattice."""

    x: np.ndarray
    pdf: np.ndarray

    def __post_init__(self):
        x = np.ascontiguousarray(self.x, dtype=np.float64)
        p = np.ascontiguousarray(self.pdf, dtype=np.float64)
        if x.shape != p.shape or x.ndim != 1 or x.size < 2:
            raise VolumeError("numeric density needs matching 1D x/pdf lattices")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "pdf", p)

    def cdf(self) -> np.ndarray:
        du = self.x[1] - self.x[0]
        inc = 0.5 * (self.pdf[:-1] + self.pdf[1:]) * du
        c = np.concatenate([[0.0], np.cumsum(inc)])
        return c / c[-1] if c[-1] > 0 else c

    def mean(self) -> float:
        return float(np.trapezoid(self.x * self.pdf, self.x))


def _box_spectra(m: np.ndarray, f_len: int) -> tuple[np.ndarray, np.ndarray]:
    """rFFT terms of unit-mass boxes [0, s] rasterized onto cells of width du
    centred on 0, du, 2du, ...: with m = ceil(s/du - 1/2) the box covers half
    of cell 0, all of cells 1..m-1 and part of cell m, so its spectrum is
    ramp/s + phase/du.  Returns (len(m), f_len/2 + 1) rows for the given m
    only, gathered from one table of 2F unit roots.  With r = exp(-2 pi i k/F),
    sum_{c=1}^{m-1} r^c is taken in the Dirichlet form
    r^(m/2) sin((m-1) pi k/F) / sin(pi k/F) (m - 1 at k = 0).
    m = 0 rows are exactly 0, so a box narrower than half a cell is a point
    mass of 1/du in cell 0."""
    mask = 2 * f_len - 1  # index mod 2F (F is a power of two)
    theta = np.pi * np.arange(f_len) / f_len
    h = np.empty(2 * f_len, dtype=np.complex128)  # h[j] = exp(-i pi j/F)
    h.real[:f_len], h.imag[:f_len] = np.cos(theta), -np.sin(theta)
    h[f_len:] = -h[:f_len]
    k = np.arange(f_len // 2 + 1)
    mk = m[:, None] * k[None, :]
    phase = h[(2 * mk) & mask]  # r^m
    inner = np.empty(phase.shape, dtype=np.complex128)
    inner[:, 0] = m - 1
    # sin(pi j/F) = -Im h[j]; the signs cancel in the ratio.
    sin_ratio = h.imag[(mk[:, 1:] - k[1:]) & mask] / h.imag[k[1:]]
    inner[:, 1:] = h[mk[:, 1:] & mask] * sin_ratio
    ramp = 0.5 + inner - (m[:, None] - 0.5) * phase
    ramp[m == 0] = 0.0
    return phase, ramp


def uniform_sum_density_batch(centers: np.ndarray, widths: np.ndarray, weights: np.ndarray,
                              npoints: int) -> tuple[np.ndarray, np.ndarray, float | np.ndarray]:
    """Density of sum_i w_i U_i for batches of scaled uniforms.

    centers/widths/weights are (V, K).  Returns (origins (V,), pdf (V, F), du)
    where row v's lattice is origins[v] + arange(F)*du[v].  Each factor's box
    is rasterized onto the lattice; one inverse rFFT turns the product of
    their exact spectra into the density.  Zero-width factors act as shifts.
    """
    c = np.atleast_2d(np.asarray(centers, dtype=np.float64))
    d = np.atleast_2d(np.asarray(widths, dtype=np.float64))
    w = np.atleast_2d(np.asarray(weights, dtype=np.float64))
    if np.any(d < 0):
        raise VolumeError("uniform widths must be nonnegative")
    v, k = c.shape
    m = w * c  # scaled centers
    s = np.abs(w) * d  # scaled support widths
    total = s.sum(axis=1)
    origins = m.sum(axis=1) - 0.5 * total

    f_len = 1 << int(np.ceil(np.log2(npoints + 2 * k + 4)))
    # Degenerate rows (all factors are point masses) get a one-cell spike.
    span = np.where(total > 0, total, 1.0)
    du = span / (npoints - 1)

    cells = np.clip(np.ceil(s / du[:, None] - 0.5), 0, f_len).astype(np.int64)  # (V, K)
    inv_s = 1.0 / np.where(s > 0, s, 1.0)
    inv_du = (1.0 / du)[:, None]
    # Spectra only for the distinct m in use: s_i <= total bounds m by npoints - 1,
    # so there are at most min(V*K, npoints) rows.
    rows, idx = np.unique(cells, return_inverse=True)
    phase, ramp = _box_spectra(rows, f_len)
    idx = idx.reshape(cells.shape)
    spec = np.ones((v, f_len // 2 + 1), dtype=np.complex128)
    for i in range(k):
        spec *= ramp[idx[:, i]] * inv_s[:, i, None] + phase[idx[:, i]] * inv_du
    pdf = np.fft.irfft(spec, n=f_len, axis=1) * du[:, None] ** (k - 1)
    np.clip(pdf, 0.0, None, out=pdf)
    degen = total <= 0
    if np.any(degen):
        pdf[degen] = 0.0
        pdf[degen, 0] = 1.0 / du[degen]
    return origins, pdf, du


def interp_uniform(centers, widths, weights, config: KdeConfig = KdeConfig()) -> NumericDensity:
    """Density of the trilinear combination of uniform corner models."""
    c = np.asarray(centers, dtype=np.float64).ravel()
    d = np.asarray(widths, dtype=np.float64).ravel()
    w = np.asarray(weights, dtype=np.float64).ravel()
    origins, pdf, du = uniform_sum_density_batch(c[None, :], d[None, :], w[None, :],
                                                 config.lattice)
    x = origins[0] + np.arange(pdf.shape[1]) * float(du[0])
    return NumericDensity(x, pdf[0])


def interp_gmm_ordered(corner_gmms: Sequence[GmmModel], weights) -> GmmModel:
    """Rank-matched GMM interpolation: components sorted by mean, then each
    rank blends weights linearly and variances quadratically."""
    k = corner_gmms[0].k
    for g in corner_gmms[1:]:
        if g.k != k:
            raise VolumeError("all corner GMMs must share k")
    w = np.asarray(weights, dtype=np.float64)
    ordered = [g.sorted_by_mean() for g in corner_gmms]
    cw = np.stack([g.weights for g in ordered])  # (8, k)
    cm = np.stack([g.means for g in ordered])
    cs = np.stack([g.sigmas for g in ordered])
    out_w = w @ cw
    out_w = out_w / out_w.sum()
    out_m = w @ cm
    out_s = np.sqrt((w * w) @ (cs * cs))
    return GmmModel(out_w, out_m, out_s)


def sample_gmm_mc(corner_gmms: Sequence[GmmModel], weights, n: int, seed: int) -> np.ndarray:
    """MC sampling of sum_i w_i X_i with X_i drawn independently from each
    corner's GMM; returns sorted realizations."""
    if n < 1:
        raise VolumeError("n must be positive")
    rng = np.random.default_rng(seed)
    out = np.zeros(n)
    for w, g in zip(weights, corner_gmms):
        cum = np.cumsum(g.weights)
        cum[-1] = 1.0
        comp = np.searchsorted(cum, rng.random(n), side="right")
        comp = np.minimum(comp, g.k - 1)
        out += w * (g.means[comp] + g.sigmas[comp] * rng.standard_normal(n))
    return np.sort(out)


def ks_distance(pdf: QuantilePdf, samples: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance between a quantile pdf's piecewise-linear
    CDF and the empirical CDF of a sample list."""
    s = np.sort(np.asarray(samples, dtype=np.float64).ravel())
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
    a = np.sort(np.asarray(a, dtype=np.float64).ravel())
    b = np.sort(np.asarray(b, dtype=np.float64).ravel())
    allv = np.concatenate([a, b])
    fa = np.searchsorted(a, allv, side="right") / a.size
    fb = np.searchsorted(b, allv, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))

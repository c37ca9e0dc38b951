"""Closed-form interpolation of per-voxel distributions at arbitrary sample points.

Cell corners are ordered so that index bit 0 advances +x, bit 1 advances +y,
and bit 2 advances +z; alpha blends along x, beta along y, gamma along z.

The renderer calls one batch kernel per computation: `locate` finds cells and
corner weights, then one kernel per model blends its per-voxel tables at the
corner ids idx8, each written with `blend`, which reads every corner straight
from the table.  The scalar APIs check their inputs and call the same kernels
on one row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .volcore import (MAX_LATTICE, GmmModel, QuantilePdf, ScalarGrid, VolumeError, require_finite,
                      require_int, require_ints, require_positive, sort_components)


@dataclass(frozen=True)
class TrilinearCoords:
    """Cell base index plus local parameters (alpha, beta, gamma) in [0,1]."""

    base: tuple[int, int, int]
    frac: tuple[float, float, float]

    def __post_init__(self):
        frac = np.clip(require_finite(self.frac, "cell fractions", (3,)), 0.0, 1.0)
        object.__setattr__(self, "base", require_ints(self.base, 3, "cell base", 0))
        object.__setattr__(self, "frac", tuple(frac.tolist()))


class Cells(NamedTuple):
    """Cells of A points: (A, 3) base and frac, (A,) flat, (A, 8) idx8 and w8."""

    base: np.ndarray
    frac: np.ndarray
    flat: np.ndarray
    idx8: np.ndarray
    w8: np.ndarray


_CORNER_BITS = np.array([(c & 1, (c >> 1) & 1, (c >> 2) & 1) for c in range(8)])
# Spectrum terms multiplied at once in uniform_sum_density_batch (256 rows of
# 65), so a block's arrays stay in cache across its factors.  On a 2-core x86
# box 4,096 rows took 13 ms so, 15-19 ms in blocks of 128 to 1,024 rows and
# 24-28 ms unblocked.
_SPECTRUM_CELLS = 1 << 14


def _flat(dims, ijk: np.ndarray) -> np.ndarray:
    """Flat x-fastest voxel ids of (..., 3) integer grid coordinates."""
    nx, ny, _ = dims
    return ijk[..., 0] + nx * (ijk[..., 1] + ny * ijk[..., 2])


def corner_offsets(dims) -> np.ndarray:
    """(8,) flat id offsets of a cell's corners from its base voxel."""
    return _flat(dims, _CORNER_BITS)


def _cell_weights(frac: np.ndarray) -> np.ndarray:
    """(A, 8) trilinear corner weights of (A, 3) in-cell fractions."""
    w = np.stack([1.0 - frac, frac], axis=2)  # (A, axis, bit)
    bits = _CORNER_BITS
    return w[:, 0, bits[:, 0]] * w[:, 1, bits[:, 1]] * w[:, 2, bits[:, 2]]


def _grid_base(dims, spacing, origin, pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(A, 3) grid coordinates clamped into the grid box and their cells' base voxels."""
    nd = np.asarray(dims, dtype=np.float64)
    g = (pos - np.asarray(origin, dtype=np.float64)[None, :]) / np.asarray(spacing)[None, :]
    g = np.clip(g, 0.0, nd - 1.0)
    base = np.minimum(g.astype(np.int64), (nd - 2).astype(np.int64))
    return g, np.maximum(base, 0)


def locate(dims, spacing, origin, pos: np.ndarray) -> Cells:
    """Cells of (A, 3) world positions clamped into the grid box (upper faces
    go to the last cell of each axis): base voxel ids and corner weights."""
    g, base = _grid_base(dims, spacing, origin, pos)
    frac = g - base
    flat = _flat(dims, base)
    return Cells(base, frac, flat, flat[:, None] + corner_offsets(dims)[None, :],
                 _cell_weights(frac))


def cell_ids(dims, spacing, origin, pos: np.ndarray) -> np.ndarray:
    """The flat base voxel id of the cell that locate gives each (A, 3) position."""
    return _flat(dims, _grid_base(dims, spacing, origin, pos)[1])


def trilinear_coords(dims, spacing, origin, point) -> TrilinearCoords:
    """Locate a world-space point inside its grid cell; all 8 corners in bounds."""
    dims = require_ints(dims, 3, "dims")
    spacing = require_positive(spacing, "spacing", (3,))
    lo = require_finite(origin, "origin", (3,))
    p = require_finite(point, "point", (3,))[None, :]
    hi = lo + (np.asarray(dims) - 1) * spacing
    if not np.all((p >= lo) & (p <= hi)):
        raise VolumeError(f"point {point} is not inside the grid box [{lo}, {hi}]")
    cells = locate(dims, spacing, lo, p)
    return TrilinearCoords(tuple(cells.base[0]), tuple(cells.frac[0]))


def corner_weights(alpha: float, beta: float, gamma: float) -> np.ndarray:
    """The 8 trilinear weights in corner-bit order."""
    frac = require_finite([[alpha, beta, gamma]], "alpha, beta and gamma", (1, 3))
    if not np.all((frac >= 0.0) & (frac <= 1.0)):
        raise VolumeError("alpha, beta and gamma must lie in [0, 1]")
    return _cell_weights(frac)[0]


def blend(values: np.ndarray, idx8: np.ndarray, w8: np.ndarray) -> np.ndarray:
    """(A, ...) float64 blends of a (V, ...) per-voxel table, float32 or
    float64, at the corner ids idx8 under the corner weights w8, both (A, 8):
    the one corner contraction (the scalar wrappers pass other corner
    counts).  Corner c adds w8[:, c] * values[idx8[:, c]] in order, each
    product taken in float64, so a row's blend never depends on the rows that
    share the call, nor on the table's dtype once its values are the same.
    """
    w = w8.reshape(w8.shape + (1,) * (values.ndim - 1))
    out = np.multiply(w[:, 0], values.take(idx8[:, 0], axis=0), dtype=np.float64)
    for c in range(1, w.shape[1]):
        out += np.multiply(w[:, c], values.take(idx8[:, c], axis=0), dtype=np.float64)
    return out


def _vectors(*arrays) -> list[np.ndarray]:
    """The inputs as float64 vectors, checked to be congruent, nonempty and finite."""
    out = [require_finite(a, "inputs").ravel() for a in arrays]
    if out[0].size == 0 or any(a.size != out[0].size for a in out):
        raise VolumeError("inputs must be nonempty vectors of one shared length")
    return out


def quantile_interp_1d(a: QuantilePdf, b: QuantilePdf, alpha: float) -> QuantilePdf:
    """Linear quantile interpolation: same-rank boundaries blend linearly.

    This realizes the 1D width rule w_j = alpha*w_bj + (1-alpha)*w_aj, so the
    density of piece j is qval / w_j.  It is the trilinear blend along x.
    """
    return quantile_interp_3d([a, b] * 4, alpha, 0.0, 0.0)


def quantile_interp_3d(corners: Sequence[QuantilePdf], alpha: float, beta: float,
                       gamma: float) -> QuantilePdf:
    """Trilinear quantile interpolation via the proven boundary-blend form."""
    if len(corners) != 8 or len({(c.qval, c.q) for c in corners}) != 1:
        raise VolumeError("trilinear interpolation needs 8 corner pdfs sharing qval")
    b = np.stack([c.boundaries for c in corners])
    w = corner_weights(alpha, beta, gamma)
    return QuantilePdf(corners[0].qval, blend(b, np.arange(8)[None, :], w[None])[0])


def variance_table(sigma: np.ndarray) -> tuple[np.ndarray, int]:
    """(sigma^2 in units of 4^e, e), in float64 for float32 or float64 sigma,
    with 2^e the largest sigma rounded up to a power of two, so that squaring
    tiny spreads cannot underflow.  The scalings are exact: each square keeps
    its bytes for sigma >= 2^(e - 511)."""
    sigma = np.asarray(sigma, dtype=np.float64)
    e = int(np.frexp(np.max(sigma, initial=0.0))[1])
    return np.square(np.ldexp(sigma, -e)), e


def interp_gaussian(means, sigmas, weights) -> tuple[float, float]:
    """Linear transform of mean and variance: mu = sum w mu_i, var = sum w^2 var_i."""
    mu, sg, w = _vectors(means, sigmas, weights)
    if np.any(sg < 0):
        raise VolumeError("sigmas must be nonnegative")
    with np.errstate(invalid="ignore"):  # weights summing to 0 leave the unused one NaN
        _, mu, sg = blend_gmm_ordered(np.stack((np.ones(w.size), mu), axis=1)[:, :, None],
                                      variance_table(sg[:, None]), np.arange(w.size)[None], w[None])
    return float(mu[0, 0]), float(sg[0, 0])


@dataclass(frozen=True)
class NumericDensity:
    """A density sampled at the points x of a value lattice, uniform or not."""

    x: np.ndarray
    pdf: np.ndarray

    def __post_init__(self):
        x, p = (require_finite(a, "numeric density lattice and pdf") for a in (self.x, self.pdf))
        if x.shape != p.shape or x.ndim != 1 or x.size < 2:
            raise VolumeError("numeric density needs matching 1D x/pdf lattices")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "pdf", p)

    def cdf(self) -> np.ndarray:
        """The trapezoid-rule CDF at x, over each cell's own width, normalised to end at 1."""
        inc = 0.5 * (self.pdf[:-1] + self.pdf[1:]) * np.diff(self.x)
        c = np.concatenate([[0.0], np.cumsum(inc)])
        return c / c[-1] if c[-1] > 0 else c


def _box_spectra(m: np.ndarray, f_len: int) -> tuple[np.ndarray, np.ndarray]:
    """rFFT terms of unit-mass boxes [0, s] rasterized onto cells of width du
    centred on 0, du, 2du, ...: with m = ceil(s/du - 1/2) the box covers half
    of cell 0, all of cells 1..m-1 and part of cell m, so the spectrum of its
    cell masses is phase + (du/s) ramp.  Returns (len(m), f_len/2 + 1) rows
    for the given m only, gathered from one table of 2F unit roots.  With
    r = exp(-2 pi i k/F), sum_{c=1}^{m-1} r^c is taken in the Dirichlet form
    r^(m/2) sin((m-1) pi k/F) / sin(pi k/F) (m - 1 at k = 0).
    m = 0 rows of ramp are exactly 0, so a box narrower than half a cell is
    a unit mass in cell 0."""
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


def uniform_lattice_len(npoints: int, k: int) -> int:
    """Cells F of the lattice uniform_sum_density_batch returns for k factors."""
    return 1 << int(np.ceil(np.log2(npoints + 2 * k + 4)))


def uniform_sum_density_batch(centers: np.ndarray, widths: np.ndarray, weights: np.ndarray,
                              npoints: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lattice masses of sum_i w_i U_i for batches of scaled uniforms.

    centers/widths/weights are (V, K).  Returns (origins (V,), mass (V, F),
    du (V,)) where row v's masses sit at origins[v] + arange(F)*du[v] and add
    up to 1 within rounding.  Each factor's box is rasterized onto the
    lattice in per-cell mass units; one inverse rFFT turns the product of
    their exact spectra, each of modulus at most 1, into the masses.
    Zero-width factors act as shifts.  A row whose lattice step underflows to
    0 (zero total width) is a unit mass at its mean, with du = 1/(npoints-1).
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
    mean = m.sum(axis=1)
    du = total / (npoints - 1)
    point = du == 0
    origins = np.where(point, mean, mean - 0.5 * total)
    du[point] = 1.0 / (npoints - 1)

    f_len = uniform_lattice_len(npoints, k)
    cells = np.clip(np.ceil(s / du[:, None] - 0.5), 0, f_len).astype(np.int64)  # (V, K)
    # du/s <= 2 wherever cells > 0; ramp is 0 where cells is 0.
    ratio = du[:, None] / np.where(cells > 0, s, 1.0)
    # Spectra only for the distinct m in use: s_i <= total bounds m by npoints - 1,
    # so there are at most min(V*K, npoints) rows.
    rows, idx = np.unique(cells, return_inverse=True)
    phase, ramp = _box_spectra(rows, f_len)
    idx = idx.reshape(cells.shape)
    spec = np.ones((v, f_len // 2 + 1), dtype=np.complex128)
    block = max(1, _SPECTRUM_CELLS // spec.shape[1])
    for lo in range(0, v, block):
        acc = spec[lo:lo + block]
        for i in range(k):
            fac = ramp[idx[lo:lo + block, i]]
            re_im = fac.view(np.float64)  # real and imaginary parts side by side
            re_im *= ratio[lo:lo + block, i, None]
            fac += phase[idx[lo:lo + block, i]]
            acc *= fac
    mass = np.fft.irfft(spec, n=f_len, axis=1)
    np.clip(mass, 0.0, None, out=mass)
    return origins, mass, du


def interp_uniform(centers, widths, weights, npoints: int = 512) -> NumericDensity:
    """Density of the trilinear combination of uniform corner models on npoints lattice points."""
    c, d, w = _vectors(centers, widths, weights)
    npoints = require_int(npoints, "npoints")
    if not 64 <= npoints <= MAX_LATTICE:
        raise VolumeError(f"npoints must lie in [64, {MAX_LATTICE}]")
    origins, mass, du = uniform_sum_density_batch(c[None, :], d[None, :], w[None, :], npoints)
    x = origins[0] + np.arange(mass.shape[1]) * float(du[0])
    return NumericDensity(x, mass[0] / du[0])


def blend_gmm_ordered(table: np.ndarray, var: tuple[np.ndarray, int],
                      idx8: np.ndarray, w8: np.ndarray) -> tuple[np.ndarray, ...]:
    """(A, k) rank-matched blends of (V, k) mixtures sorted by mean, given as
    the (V, 2, k) table of weights stacked over means, which blend in one
    pass, and var from variance_table: weights blend linearly and are
    renormalized, and each rank's Gaussian takes mu = sum w mu_i and
    sigma = sqrt(sum w^2 var_i).  A Gaussian is the one-component mixture."""
    wm = blend(table, idx8, w8)
    ws = wm[:, 0]
    ws /= ws.sum(axis=1, keepdims=True)
    sq, e = var
    return ws, wm[:, 1], np.ldexp(np.sqrt(blend(sq, idx8, w8 * w8)), e)


def _gmm_corners(corner_gmms: Sequence[GmmModel], weights):
    """The corner weights, and the corner mixtures stacked (corners, k)."""
    (w,) = _vectors(weights)
    if len(corner_gmms) != w.size or len({g.k for g in corner_gmms}) != 1:
        raise VolumeError("need one weight per corner GMM, all with the same k")
    return w, [np.stack([getattr(g, a) for g in corner_gmms])
               for a in ("weights", "means", "sigmas")]


def interp_gmm_ordered(corner_gmms: Sequence[GmmModel], weights) -> GmmModel:
    """Rank-matched GMM interpolation: components sorted by mean, then each
    rank blends weights linearly and variances quadratically."""
    w, params = _gmm_corners(corner_gmms, weights)
    ws, mus, sgs = sort_components(*params)
    ws, mus, sgs = blend_gmm_ordered(np.stack((ws, mus), axis=1), variance_table(sgs),
                                     np.arange(w.size)[None, :], w[None, :])
    return GmmModel(ws[0], mus[0], sgs[0])


def sample_gmm_batch(weights: np.ndarray, means: np.ndarray, sigmas: np.ndarray,
                     idx8: np.ndarray, w8: np.ndarray, n: int, rng) -> np.ndarray:
    """(A, n) draws of sum_c w_c X_c with X_c from corner c's (V, k) mixture,
    whose tables may be float32: every gather is taken to float64.

    Once each corner c has picked its component j_c, sum_c w_c X_c is the one
    normal N(sum_c w_c mu_cj, sum_c (w_c sigma_cj)^2), so a draw takes one
    normal.  rng gives corner 0's (A, n) pick uniforms, then corner 1's, and
    so on to corner 7's, then one (A, n) array of standard normals.  The
    variance is summed in units of each row's largest w_c sigma_cj, rounded
    up to a power of two, so that squaring tiny spreads cannot underflow."""
    a, k = idx8.shape[0], weights.shape[1]
    sd = np.multiply(w8[:, :, None], sigmas.take(idx8, axis=0), dtype=np.float64)  # (A, 8, k)
    exp = np.frexp(sd.max(axis=(1, 2)))[1]
    sd2 = np.square(np.ldexp(sd, -exp[:, None, None]))  # in units of 4^exp
    shift = np.multiply(w8[:, :, None], means.take(idx8, axis=0), dtype=np.float64)
    rows = np.arange(0, a * k, k)[:, None]
    mu, var = np.zeros((a, n)), np.zeros((a, n))
    pick = np.empty((a, n), np.int64)
    for c in range(idx8.shape[1]):
        cum = np.cumsum(weights.take(idx8[:, c], axis=0), axis=1, dtype=np.float64)
        u = rng.random((a, n))
        # The first component whose cumulative weight exceeds u; the last
        # takes whatever mass rounding leaves above the others.
        pick[...] = rows
        for j in range(k - 1):
            pick += u >= cum[:, j, None]
        mu += np.take(shift[:, c].ravel(), pick)
        var += np.take(sd2[:, c].ravel(), pick)
    std = np.sqrt(var, out=var)
    std *= np.ldexp(1.0, exp)[:, None]
    std *= rng.standard_normal((a, n))
    mu += std
    return mu


def sample_gmm_mc(corner_gmms: Sequence[GmmModel], weights, n: int, seed: int) -> np.ndarray:
    """MC sampling of sum_i w_i X_i with X_i drawn independently from each
    corner's GMM; returns sorted realizations."""
    n = require_int(n, "n")
    w, params = _gmm_corners(corner_gmms, weights)
    x = sample_gmm_batch(*params, np.arange(w.size)[None, :], w[None, :], n,
                         np.random.default_rng(seed))
    return np.sort(x[0])


# ---------------------------------------------------------------------------
# Gradient reconstruction

def _build_neighborhood():
    """The 32-voxel neighborhood of a cell under blended central differences
    (the 8 corners, then the +-1 axis neighbors of each corner in first-seen
    order) and the (axis, corner, neighbor, sign) terms of the differences."""
    index = {c: i for i, c in enumerate(map(tuple, _CORNER_BITS.tolist()))}
    terms = []
    for ci, c in enumerate(list(index)):
        for axis in range(3):
            for sign in (1, -1):
                o = tuple(v + sign * (i == axis) for i, v in enumerate(c))
                terms.append((axis, ci, index.setdefault(o, len(index)), sign))
    return np.array(list(index), dtype=np.int64), terms


NEIGHBOR_OFFSETS, _DIFF_TERMS = _build_neighborhood()
_N_NEIGH = NEIGHBOR_OFFSETS.shape[0]


def derivative_matrices(spacing) -> np.ndarray:
    """(3, 8, 32) maps from corner trilinear weights to per-axis stencil weights."""
    d = np.zeros((3, 8, _N_NEIGH))
    for axis, ci, n, sign in _DIFF_TERMS:
        d[axis, ci, n] += sign / (2.0 * spacing[axis])
    return d


@dataclass(frozen=True)
class GradientStencil:
    """Per-sample interpolation and directional-derivative weights over the
    32-voxel neighborhood, plus the mean gradient there."""

    indices: np.ndarray  # (32,) flat voxel ids
    w: np.ndarray  # (32,) interpolation weights; nonzero on the 8 corners
    u: np.ndarray  # (32,) directional-derivative weights
    axis_weights: np.ndarray  # (3, 32) per-axis derivative weights
    mean_gradient: np.ndarray  # (3,)
    degenerate: bool


def stencil_fits(dims, base: np.ndarray) -> np.ndarray:
    """(A,) mask of the cell bases at least one voxel from every boundary."""
    return np.all((base >= 1) & (base <= np.asarray(dims) - 3), axis=1)


def gradient_stencil_batch(dims, flat: np.ndarray, w8: np.ndarray, deriv: np.ndarray,
                           mean_values: np.ndarray) -> tuple[np.ndarray, ...]:
    """The GradientStencil fields, one row per cell with base voxel flat and
    corner weights w8: indices, w, u (A, 32), axis weights (A, 3, 32), mean
    gradient (A, 3) and degenerate (A,); a zero mean gradient leaves u = 0.
    mean_values, float32 or float64, is gathered to float64."""
    flat32 = flat[:, None] + _flat(dims, NEIGHBOR_OFFSETS)[None, :]
    axis_w = np.einsum("ac,xcn->axn", w8, deriv)
    mean_grad = np.einsum("axn,an->ax", axis_w, mean_values.take(flat32).astype(np.float64))
    norm = np.linalg.norm(mean_grad, axis=1)
    degenerate = norm < 1e-12
    direction = mean_grad / np.where(degenerate, 1.0, norm)[:, None]
    u = np.einsum("ax,axn->an", direction, axis_w)
    u[degenerate] = 0.0
    w32 = np.zeros((flat.size, _N_NEIGH))
    w32[:, :8] = w8
    return flat32, w32, u, axis_w, mean_grad, degenerate


def gradient_stencil(dims, spacing, coords: TrilinearCoords,
                     mean_grid: ScalarGrid) -> GradientStencil:
    """Blended central-difference stencil at a trilinear sample point.

    Needs every central-difference neighbor in bounds, i.e. the cell base at
    least one voxel from the boundary.  A zero mean gradient flags the stencil
    degenerate instead of raising.
    """
    base = np.array([coords.base])
    if not stencil_fits(dims, base)[0]:
        raise VolumeError(f"cell base {coords.base} too close to the boundary for central "
                          "differences")
    w8 = corner_weights(*coords.frac)[None, :]
    rows = gradient_stencil_batch(dims, _flat(dims, base), w8, derivative_matrices(spacing),
                                  mean_grid.values)
    *fields, degenerate = (r[0] for r in rows)
    return GradientStencil(*fields, bool(degenerate))

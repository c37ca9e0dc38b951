"""Transfer functions and expected-color classification.

The 1D quantile schemes realize the expected-TF integral either by exact
per-piece averaging of the piecewise-linear TF (quantile range) or by TF
lookups at piece midpoints with density-proportional weights (quantile mean).
Gaussian models use the closed-form expectation of the piecewise-linear TF
(the Gaussian-convolved TF of Kniss et al., Vis 2005), and lattice
distributions (the uniform scheme) its exact expectation over lattice masses,
taken per segment in the same way.  Each scheme has one
batch kernel over P rows, which the renderer calls on the output of the interp
kernels; the scalar functions check their inputs and call it on one row.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import ndtr

from .interp import GradientStencil, NumericDensity
from .volcore import (EPS_WIDTH, GmmModel, QuantilePdf, VolumeError, read_file, read_headed_f32,
                      require_finite, require_int, require_positive)

_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)
# Points per block in the TF lookups (and table bins per block in the 2D
# splat), so each block's temporaries stay in cache.  On a 2-core x86 box this
# cut a 1D lookup of 256k lattice points from ~12 to 5-7 ms, and the 2D splat
# of 576 rows of 1024 points from ~62 ms (blocks of 256 rows) to ~20 ms.
_BLOCK = 1 << 14
# The 2D splat costs about R*C per row (it fills and contracts every table
# cell), the pointwise gathers about n.  Splat only while R*C <= this many
# times n: on the same box the splat won 1.9-5.8x at R*C/n <= 16, and the
# gathers won or tied at R*C/n >= 64 except at 512^2 cells with n = 4096.
_SPLAT_CELLS_PER_POINT = 16


@dataclass(frozen=True)
class TransferFunction1D:
    """Piecewise-linear RGBA map over intensity, constant outside the knots.

    points is (n, 5): columns intensity, r, g, b, a.  The knot spacings, the
    segment slopes and the cumulative segment integrals must all be finite.
    """

    points: np.ndarray

    def __post_init__(self):
        p = require_finite(self.points, "TF1D knots and channels")
        if p.ndim != 2 or p.shape[1] != 5 or p.shape[0] < 1:
            raise VolumeError("TF1D needs an (n, 5) control-point table")
        if np.any(p[:, 1:] < 0) or np.any(p[:, 1:] > 1):
            raise VolumeError("TF1D channels must lie in [0, 1]")
        x, vals = p[:, 0], p[:, 1:]
        try:
            with np.errstate(over="raise", divide="raise"):
                dx = np.diff(x)
                if np.any(dx <= 0):
                    raise VolumeError("TF1D intensities must be strictly increasing")
                slopes = np.diff(vals, axis=0) / dx[:, None]  # (n-1, 4)
                cum = np.cumsum(0.5 * (vals[:-1] + vals[1:]) * dx[:, None], axis=0)
        except FloatingPointError:
            raise VolumeError("TF1D knot spacings, slopes and segment integrals must not "
                              "overflow") from None
        p.setflags(write=False)
        object.__setattr__(self, "points", p)
        # Segment tables for sample and integral_to: row 0 extends the first
        # value below the knots, row j+1 is segment j, row n extends the last
        # value above.
        cum = np.vstack([np.zeros(4), cum])
        tables = {
            "_seg_x": np.concatenate([x[:1], x]),
            "_seg_cum": np.vstack([cum[:1], cum]),
            "_seg_val": np.vstack([vals[:1], vals]),
            "_seg_slope": np.vstack([np.zeros((1, 4)), slopes, np.zeros((1, 4))]),
        }
        for name, arr in tables.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def knots(self) -> np.ndarray:
        return self.points[:, 0]

    def zero_alpha_runs(self) -> list[tuple[float, float]]:
        """Closed intervals on which sample and integral_to see alpha 0 alone:
        runs of consecutive knots with alpha 0, a run at the first or last
        knot extended to -inf or +inf."""
        edge = np.diff(np.concatenate([[0], self.points[:, 4] == 0.0, [0]]).astype(np.int8))
        first, last = np.nonzero(edge == 1)[0], np.nonzero(edge == -1)[0] - 1
        n = len(self.knots)
        lo = np.where(first == 0, -np.inf, self.knots[first])
        hi = np.where(last == n - 1, np.inf, self.knots[last])
        return list(zip(lo.tolist(), hi.tolist()))

    def sample(self, x) -> np.ndarray:
        """RGBA at intensities x; shape x.shape + (4,).

        One segment search for all four channels, then slope_j * (x - x_j) +
        y_j: the arithmetic of np.interp, so the result equals it bit for bit
        (NaN maps to NaN).
        """
        return self._by_block(x, self._sample_block)

    def integral_to(self, x) -> np.ndarray:
        """Antiderivative of each channel at x, zero at the first knot."""
        return self._by_block(x, self._integral_block)

    def _by_block(self, x, fill) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        out = np.empty(x.shape + (4,))
        flat, rows = x.reshape(-1), out.reshape(-1, 4)
        for s in range(0, flat.size, _BLOCK):
            fill(flat[s:s + _BLOCK], rows[s:s + _BLOCK])
        return out

    def _sample_block(self, x, out) -> None:
        x = np.clip(x, self.knots[0], self.knots[-1])
        seg = np.searchsorted(self.knots, x, side="right")
        np.take(self._seg_slope, seg, axis=0, out=out)
        x -= np.take(self._seg_x, seg)
        out *= x[:, None]
        out += np.take(self._seg_val, seg, axis=0)

    def _integral_block(self, x, out) -> None:
        seg = np.searchsorted(self.knots, x, side="right")
        dx = (x - np.take(self._seg_x, seg))[:, None]
        # The operation order of cum + val * dx + 0.5 * slope * dx * dx.
        head = np.take(self._seg_val, seg, axis=0)
        head *= dx
        head += np.take(self._seg_cum, seg, axis=0)
        np.take(self._seg_slope, seg, axis=0, out=out)
        out *= 0.5
        out *= dx
        out *= dx
        out += head


def save_tf1d(tf: TransferFunction1D, path) -> None:
    lines = [" ".join(f"{v:.9g}" for v in row) for row in tf.points]
    Path(path).write_text("\n".join(lines) + "\n")


def load_tf1d(path) -> TransferFunction1D:
    try:
        text = read_file(path).decode("utf-8")
    except UnicodeDecodeError as e:
        raise VolumeError(f"{path}: transfer function is not UTF-8 text") from e
    rows = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 5:
            raise VolumeError(f"{path}:{lineno}: expected 'intensity r g b a'")
        try:
            rows.append([float(v) for v in parts])
        except ValueError as e:
            raise VolumeError(f"{path}:{lineno}: non-numeric value") from e
    if not rows:
        raise VolumeError(f"{path}: empty transfer function")
    return TransferFunction1D(np.asarray(rows))


@dataclass(frozen=True)
class TransferFunction2D:
    """Dense RGBA table over intensity [0,1] x gradient magnitude [0,gmax];
    bilinear lookup with clamping."""

    table: np.ndarray  # (rows, cols, 4); rows run along the gradient axis
    gmax: float

    def __post_init__(self):
        t = require_finite(self.table, "TF2D table")
        if t.ndim != 3 or t.shape[2] != 4 or t.shape[0] < 2 or t.shape[1] < 2:
            raise VolumeError("TF2D needs an (R>=2, C>=2, 4) table")
        gmax = float(require_positive(self.gmax, "TF2D gmax", ()))
        if np.any(t < 0) or np.any(t > 1):
            raise VolumeError("TF2D channels must lie in [0, 1]")
        _qmc()  # every Sobol use needs a 2D TF: load scipy.stats now, not in a render
        t.setflags(write=False)
        object.__setattr__(self, "table", t)
        object.__setattr__(self, "gmax", gmax)

    def _cell(self, x, y):
        """Clamped lower-left cell (r0, c0) and fractions (fu, fv) of (x, y)."""
        rows, cols, _ = self.table.shape
        u = np.clip(np.asarray(x, dtype=np.float64), 0.0, 1.0) * (cols - 1)
        v = np.clip(np.asarray(y, dtype=np.float64), 0.0, self.gmax) / self.gmax * (rows - 1)
        c0 = np.minimum(u.astype(np.int64), cols - 2)
        r0 = np.minimum(v.astype(np.int64), rows - 2)
        return r0, c0, u - c0, v - r0

    def sample(self, x, y) -> np.ndarray:
        """Bilinear RGBA at (intensity x, gradient magnitude y)."""
        r0, c0, fu, fv = self._cell(x, y)
        fu = fu[..., None]
        fv = fv[..., None]
        t = self.table
        top = t[r0, c0] * (1 - fu) + t[r0, c0 + 1] * fu
        bot = t[r0 + 1, c0] * (1 - fu) + t[r0 + 1, c0 + 1] * fu
        return top * (1 - fv) + bot * fv

    def mean_sample(self, x, y) -> np.ndarray:
        """Mean of sample(x, y) over the last axis of (P, n) points; (P, 4).

        For tables of at most _SPLAT_CELLS_PER_POINT * n cells, each row's
        bilinear corner weights are splatted onto the table cells with one
        bincount, then contracted with the flattened table in one matmul, per
        block of rows.  That agrees with sample(x, y).mean(axis=-1) to
        rounding; BLAS may sum a row in an order that depends on the block.
        Larger tables take the pointwise lookups, a block of rows at a time.
        """
        rows, cols, _ = self.table.shape
        cells = rows * cols
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        p, n = x.shape
        out = np.empty((p, 4))
        if cells > _SPLAT_CELLS_PER_POINT * n:
            block = max(1, _BLOCK // n)
            for s in range(0, p, block):
                out[s:s + block] = self.sample(x[s:s + block], y[s:s + block]).mean(axis=1)
            return out
        flat = self.table.reshape(cells, 4)
        block = max(1, _BLOCK // max(cells, n))
        for s in range(0, p, block):
            e = min(s + block, p)
            r0, c0, fu, fv = self._cell(x[s:e], y[s:e])
            corner = r0 * cols + c0 + (np.arange(e - s) * cells)[:, None]
            idx = np.concatenate([corner, corner + 1, corner + cols, corner + (cols + 1)],
                                 axis=None)
            gu, gv = 1.0 - fu, 1.0 - fv
            wts = np.concatenate([gu * gv, fu * gv, gu * fv, fu * fv], axis=None)
            splat = np.bincount(idx, wts, minlength=(e - s) * cells)
            out[s:e] = splat.reshape(e - s, cells) @ flat
        out /= n
        return out


def save_tf2d(tf: TransferFunction2D, path) -> None:
    rows, cols, _ = tf.table.shape
    header = f"{rows} {cols} {tf.gmax:.9g}\n".encode("ascii")
    Path(path).write_bytes(header + tf.table.astype("<f4").tobytes())


def load_tf2d(path) -> TransferFunction2D:
    (rows, cols, gmax), table = read_headed_f32(path, (int, int, float), "TF2D")
    return TransferFunction2D(table.reshape(rows, cols, 4), gmax)


# ---------------------------------------------------------------------------
# 1D classification schemes


def quantile_range_batch(boundaries: np.ndarray, qval: float,
                         tf: TransferFunction1D) -> np.ndarray:
    """Expected RGBA for (P, q+1) boundary rows via exact per-piece TF averages;
    zero-width pieces sample the TF at their left end."""
    widths = np.diff(boundaries, axis=1)
    zero = widths <= 0
    avg = np.diff(tf.integral_to(boundaries), axis=1)  # (P, q, 4)
    avg /= np.where(zero, 1.0, widths)[..., None]
    if np.any(zero):
        avg[zero] = tf.sample(boundaries[:, :-1][zero])
    return qval * np.einsum("pqc->pc", avg)


def quantile_mean_batch(boundaries: np.ndarray, qval: float,
                        tf: TransferFunction1D) -> np.ndarray:
    """Expected RGBA from TF lookups at piece midpoints, weighted by the
    normalized piece densities qval/width."""
    widths = np.diff(boundaries, axis=1)
    mids = 0.5 * (boundaries[:, :-1] + boundaries[:, 1:])
    pr = qval / np.maximum(widths, EPS_WIDTH)
    pr = pr / pr.sum(axis=1, keepdims=True)
    return np.einsum("pq,pqc->pc", pr, tf.sample(mids))


def expected_color_quantile_range(pdf: QuantilePdf, tf: TransferFunction1D) -> np.ndarray:
    return quantile_range_batch(pdf.boundaries[None, :], pdf.qval, tf)[0]


def expected_color_quantile_mean(pdf: QuantilePdf, tf: TransferFunction1D) -> np.ndarray:
    return quantile_mean_batch(pdf.boundaries[None, :], pdf.qval, tf)[0]


def gauss_hermite_batch(mu: np.ndarray, sigma: np.ndarray,
                        tf: TransferFunction1D) -> np.ndarray:
    """Exact E[TF(N(mu, sigma^2))] for (P,) rows of mu and sigma.

    With TF = v0 + sum_j slope_j * clip(x - x_j, 0, x_{j+1} - x_j), each
    segment contributes slope_j * (H(d_j) - H(d_{j+1})) with d = mu - x and
    H(d) = E[max(X - x, 0)] = d Phi(d/sigma) + sigma phi(d/sigma).  As
    H(d) = max(d, 0) + G(d) with G(d) = H(-|d|), a segment wholly below mu
    takes its knot width for max(d_j, 0) - max(d_{j+1}, 0): a mean far above
    the knots keeps the widths that mu - x_j would round away.  G is
    evaluated once per knot for all four channels; sigma = 0 rows are lookups.
    The name predates the closed form and stays because perfbench wraps it.
    """
    point = sigma <= 0
    d = mu[:, None] - tf.knots[None, :]  # (P, n)
    s = np.where(point, 1.0, sigma)[:, None]
    a = np.abs(d)
    with np.errstate(over="ignore"):  # sigma << |d|: z -> inf, G -> 0
        z = a / s
        a *= ndtr(-z)
        np.square(z, out=z)
    z *= -0.5
    np.exp(z, out=z)
    z *= _INV_SQRT_2PI * s
    g = z - a  # G = sigma phi(|d|/sigma) - |d| Phi(-|d|/sigma)
    # max(d_j, 0) - max(d_{j+1}, 0), with the exact knot width below mu.
    ramp = np.clip(d[:, :-1], 0.0, np.diff(tf.knots))
    ramp += g[:, :-1]
    ramp -= g[:, 1:]
    out = tf.points[0, 1:] + ramp @ tf._seg_slope[1:-1]
    if np.any(point):
        out[point] = tf.sample(mu[point])
    return out


def _lattice_expectation(mass: np.ndarray, pos: np.ndarray, scale, origins: np.ndarray,
                         below: np.ndarray, tf: TransferFunction1D) -> np.ndarray:
    """E[TF(X)] for X on the points origins + scale * pos of each row, with
    (P, F) masses, normalized here; below (P, n) counts each row's points at
    or below each knot.

    With TF = v0 + sum_j slope_j * clip(x - x_j, 0, x_{j+1} - x_j), segment j
    adds slope_j times the mass of each point inside it times x - x_j, plus
    its width times the mass above it.  Both come from cumulative sums of the
    masses and of the masses times pos, gathered at the knots.  A segment
    with no point inside it takes no difference of two large numbers, so
    knots far from the points cost no precision.
    """
    p, f = mass.shape
    sums = np.zeros((2, p, f + 1))
    np.cumsum(mass, axis=1, out=sums[0, :, 1:])
    np.cumsum(mass * pos, axis=1, out=sums[1, :, 1:])
    at = sums.reshape(2, -1)[:, below + (f + 1) * np.arange(p)[:, None]]  # (2, P, n)
    total = sums[0, :, -1:]
    inside = np.diff(at, axis=2)  # (2, P, n - 1)
    knots = tf.knots
    seg = (origins[:, None] - knots[:-1]) * inside[0]
    seg += scale * inside[1]
    seg += np.diff(knots) * (total - at[0, :, 1:])
    return tf.points[0, 1:] + (seg @ tf._seg_slope[1:-1]) / total


def lattice_color_batch(origins: np.ndarray, mass: np.ndarray, du: np.ndarray,
                        tf: TransferFunction1D) -> np.ndarray:
    """Expected RGBA of (P, F) lattice masses at origins + arange(F) * du, as
    uniform_sum_density_batch returns them.  The points at or below a knot
    are counted from the lattice arithmetic; the offset is clipped to the
    lattice first, so a tiny du cannot overflow the division."""
    f = mass.shape[1]
    o, step = origins[:, None], du[:, None]
    t = np.clip(tf.knots[None, :] - o, -step, f * step) / step
    below = np.clip(np.floor(t) + 1.0, 0, f).astype(np.intp)
    return _lattice_expectation(mass, np.arange(f), step, origins, below, tf)


def numeric_density_color(density: NumericDensity, tf: TransferFunction1D) -> np.ndarray:
    """Expected RGBA of a NumericDensity: the TF at each stored point,
    weighted by the pdf there (the lattice need not be uniform)."""
    x = density.x
    if not np.all(x[1:] > x[:-1]) or not np.sum(density.pdf) > 0:
        raise VolumeError("numeric density needs an increasing lattice carrying mass")
    below = np.searchsorted(x, tf.knots, side="right")[None, :]
    return _lattice_expectation(density.pdf[None, :], x - x[0], 1.0, x[:1], below, tf)[0]


def expected_color_parametric(model, tf: TransferFunction1D) -> np.ndarray:
    """Expected RGBA for a scalar, (mu, sigma) Gaussian, GmmModel, or
    NumericDensity sample model."""
    if isinstance(model, GmmModel):
        colors = gauss_hermite_batch(model.means, model.sigmas, tf)
        return model.weights @ colors
    if isinstance(model, NumericDensity):
        return numeric_density_color(model, tf)
    if isinstance(model, (int, float, np.floating)):
        return tf.sample(require_finite(model, "scalar model"))
    mu_sigma = require_finite(model, "a gaussian model (mu, sigma)", (2,))
    if mu_sigma[1] < 0:
        raise VolumeError("a gaussian model needs a finite mu and a finite sigma >= 0")
    return gauss_hermite_batch(mu_sigma[:1], mu_sigma[1:], tf)[0]


# ---------------------------------------------------------------------------
# 2D TF integration


def _qmc():
    """scipy.stats.qmc, imported on first use: only the tf2d scheme needs it,
    and it triples the import time of the package (`import uqdvr.cli` took
    1.5-1.7 s and 101 MB with it, 0.5-0.6 s and 55 MB without, on a 2-core
    x86 box)."""
    from scipy.stats import qmc

    return qmc


def sobol_points(dim: int, n: int, seed: int) -> np.ndarray:
    """Scrambled Sobol points in [0,1)^dim; deterministic for a fixed seed."""
    eng = _qmc().Sobol(d=dim, scramble=True, seed=seed)
    return eng.random(n)


def expected_color_2d_batch(centers: np.ndarray, widths: np.ndarray, w: np.ndarray,
                            u: np.ndarray, tf2: TransferFunction2D,
                            points: np.ndarray, degenerate=None) -> np.ndarray:
    """E[TF2(X, Y)] for batches of uniform voxel models.

    centers/widths/w/u are (P, M); points is the shared (n, M) unit-cube
    sequence.  X = sum w_i X_i and Y = sum u_i X_i share realizations X_i.
    Degenerate rows integrate against the y=0 row of the table.
    """
    offsets = points.T - 0.5  # (M, n)
    x = (w * centers).sum(axis=1, keepdims=True) + (w * widths) @ offsets
    y = (u * centers).sum(axis=1, keepdims=True) + (u * widths) @ offsets
    if degenerate is not None and np.any(degenerate):
        y = np.where(degenerate[:, None], 0.0, y)
    return tf2.mean_sample(x, y)


def expected_color_2d(corner_models, stencil: GradientStencil, tf2: TransferFunction2D,
                      n: int, seed: int) -> np.ndarray:
    """Expected RGBA under the joint (intensity, directional-derivative) model.

    corner_models is a (center, width) pair per stencil voxel.  The signed
    directional derivative stands in for the gradient magnitude and is clamped
    into the table domain.  Deterministic for a fixed seed.
    """
    if stencil.degenerate:
        raise VolumeError("degenerate stencil: mean gradient is zero")
    n = require_int(n, "n")
    voxels = np.size(stencil.indices)
    models = require_finite(corner_models, "one (center, width) model per stencil voxel",
                            (voxels, 2))
    w, u = (require_finite(v, "stencil weights", (voxels,)) for v in (stencil.w, stencil.u))
    if np.any(models[:, 1] < 0):
        raise VolumeError("uniform widths must be nonnegative")
    pts = sobol_points(voxels, n, seed)
    return expected_color_2d_batch(models[None, :, 0], models[None, :, 1], w[None, :],
                                   u[None, :], tf2, pts)[0]

"""Transfer functions and expected-color classification.

The 1D quantile schemes realize the expected-TF integral either by exact
per-piece averaging of the piecewise-linear TF (quantile range) or by TF
lookups at piece midpoints with density-proportional weights (quantile mean).
Gaussian models use the closed-form expectation of the piecewise-linear TF
(the Gaussian-convolved TF of Kniss et al., Vis 2005).  Batched variants carry
the same math across many interpolated pdfs at once for the renderer.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import ndtr
from scipy.stats import qmc

from .density import GmmModel
from .interp import NumericDensity, corner_weights
from .volcore import EPS_WIDTH, QuantilePdf, ScalarGrid, VolumeError, require_finite

_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


@dataclass(frozen=True)
class TransferFunction1D:
    """Piecewise-linear RGBA map over intensity, constant outside the knots.

    points is (n, 5): columns intensity, r, g, b, a.
    """

    points: np.ndarray

    def __post_init__(self):
        p = np.ascontiguousarray(self.points, dtype=np.float64)
        if p.ndim != 2 or p.shape[1] != 5 or p.shape[0] < 1:
            raise VolumeError("TF1D needs an (n, 5) control-point table")
        require_finite(p, "TF1D knots and channels")
        if np.any(np.diff(p[:, 0]) <= 0):
            raise VolumeError("TF1D intensities must be strictly increasing")
        if np.any(p[:, 1:] < 0) or np.any(p[:, 1:] > 1):
            raise VolumeError("TF1D channels must lie in [0, 1]")
        p.setflags(write=False)
        object.__setattr__(self, "points", p)
        x, vals = p[:, 0], p[:, 1:]
        slopes = np.diff(vals, axis=0) / np.diff(x)[:, None]  # (n-1, 4)
        # Segment tables for integral_to: row 0 extends the first value below
        # the knots, row j+1 is segment j, row n extends the last value above.
        mid = 0.5 * (vals[:-1] + vals[1:])
        cum = np.vstack([np.zeros(4), np.cumsum(mid * np.diff(x)[:, None], axis=0)])
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

    def sample(self, x) -> np.ndarray:
        """RGBA at intensities x; shape x.shape + (4,)."""
        x = np.asarray(x, dtype=np.float64)
        out = np.empty(x.shape + (4,))
        for ch in range(4):
            out[..., ch] = np.interp(x, self.points[:, 0], self.points[:, ch + 1])
        return out

    def integral_to(self, x) -> np.ndarray:
        """Antiderivative of each channel at x, zero at the first knot."""
        x = np.asarray(x, dtype=np.float64)
        seg = np.searchsorted(self.points[:, 0], x, side="right")
        dx = (x - self._seg_x[seg])[..., None]
        return self._seg_cum[seg] + self._seg_val[seg] * dx + 0.5 * self._seg_slope[seg] * dx * dx


def save_tf1d(tf: TransferFunction1D, path) -> None:
    lines = [" ".join(f"{v:.9g}" for v in row) for row in tf.points]
    Path(path).write_text("\n".join(lines) + "\n")


def load_tf1d(path) -> TransferFunction1D:
    rows = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 5:
            raise VolumeError(f"{path}:{lineno}: expected 'intensity r g b a'")
        rows.append([float(v) for v in parts])
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
        t = np.ascontiguousarray(self.table, dtype=np.float64)
        if t.ndim != 3 or t.shape[2] != 4 or t.shape[0] < 2 or t.shape[1] < 2:
            raise VolumeError("TF2D needs an (R>=2, C>=2, 4) table")
        require_finite(t, "TF2D table")
        require_finite(self.gmax, "TF2D gmax")
        if np.any(t < 0) or np.any(t > 1):
            raise VolumeError("TF2D channels must lie in [0, 1]")
        if not (float(self.gmax) > 0):
            raise VolumeError("TF2D gmax must be positive")
        t.setflags(write=False)
        object.__setattr__(self, "table", t)
        object.__setattr__(self, "gmax", float(self.gmax))

    def sample(self, x, y) -> np.ndarray:
        """Bilinear RGBA at (intensity x, gradient magnitude y)."""
        rows, cols, _ = self.table.shape
        u = np.clip(np.asarray(x, dtype=np.float64), 0.0, 1.0) * (cols - 1)
        v = np.clip(np.asarray(y, dtype=np.float64), 0.0, self.gmax) / self.gmax * (rows - 1)
        c0 = np.minimum(u.astype(np.int64), cols - 2)
        r0 = np.minimum(v.astype(np.int64), rows - 2)
        fu = (u - c0)[..., None]
        fv = (v - r0)[..., None]
        t = self.table
        top = t[r0, c0] * (1 - fu) + t[r0, c0 + 1] * fu
        bot = t[r0 + 1, c0] * (1 - fu) + t[r0 + 1, c0 + 1] * fu
        return top * (1 - fv) + bot * fv


def save_tf2d(tf: TransferFunction2D, path) -> None:
    rows, cols, _ = tf.table.shape
    header = f"{rows} {cols} {tf.gmax:.9g}\n".encode("ascii")
    Path(path).write_bytes(header + tf.table.astype("<f4").tobytes())


def load_tf2d(path) -> TransferFunction2D:
    raw = Path(path).read_bytes()
    nl = raw.find(b"\n")
    if nl < 0:
        raise VolumeError(f"{path}: missing TF2D header line")
    try:
        r_s, c_s, g_s = raw[:nl].decode("ascii").split()
        rows, cols, gmax = int(r_s), int(c_s), float(g_s)
    except ValueError as e:
        raise VolumeError(f"{path}: bad TF2D header") from e
    body = raw[nl + 1:]
    expected = rows * cols * 4 * 4
    if len(body) != expected:
        raise VolumeError(f"{path}: TF2D payload {len(body)} != {expected} bytes")
    table = np.frombuffer(body, dtype="<f4").astype(np.float64).reshape(rows, cols, 4)
    return TransferFunction2D(table, gmax)


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
    return qval * avg.sum(axis=1)


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
    H(d) = E[max(X - x, 0)] = d Phi(d/sigma) + sigma phi(d/sigma).  H is
    evaluated once per knot for all four channels; sigma = 0 rows are lookups.
    The name predates the closed form and stays because perfbench wraps it.
    """
    point = sigma <= 0
    d = mu[:, None] - tf.knots[None, :]  # (P, n)
    s = np.where(point, 1.0, sigma)[:, None]
    with np.errstate(over="ignore"):  # sigma << |d|: z -> +-inf, H -> max(d, 0)
        z = d / s
        h = d * ndtr(z) + s * (_INV_SQRT_2PI * np.exp(-0.5 * z * z))
    out = tf.points[0, 1:] + (h[:, :-1] - h[:, 1:]) @ tf._seg_slope[1:-1]
    if np.any(point):
        out[point] = tf.sample(mu[point])
    return out


def numeric_density_color(density: NumericDensity, tf: TransferFunction1D) -> np.ndarray:
    du = density.x[1] - density.x[0]
    mass = density.pdf * du
    total = mass.sum()
    if total <= 0:
        raise VolumeError("numeric density carries no mass")
    return np.einsum("n,nc->c", mass / total, tf.sample(density.x))


def expected_color_parametric(model, tf: TransferFunction1D) -> np.ndarray:
    """Expected RGBA for a scalar, (mu, sigma) Gaussian, GmmModel, or
    NumericDensity sample model."""
    if isinstance(model, GmmModel):
        colors = gauss_hermite_batch(model.means, model.sigmas, tf)
        return model.weights @ colors
    if isinstance(model, NumericDensity):
        return numeric_density_color(model, tf)
    if isinstance(model, (int, float, np.floating)):
        return tf.sample(np.float64(model))
    mu, sigma = model
    return gauss_hermite_batch(np.atleast_1d(np.float64(mu)),
                               np.atleast_1d(np.float64(sigma)), tf)[0]


# ---------------------------------------------------------------------------
# Gradient reconstruction

# The 32-voxel neighborhood of a cell under blended central differences:
# the 8 corners plus the +-1 axis neighbors of each corner.


def _build_neighborhood():
    offsets = []
    seen = {}

    def add(o):
        if o not in seen:
            seen[o] = len(offsets)
            offsets.append(o)
        return seen[o]

    corners = [(i & 1, (i >> 1) & 1, (i >> 2) & 1) for i in range(8)]
    for c in corners:
        add(c)
    plus = np.zeros((8, 3), dtype=np.int64)
    minus = np.zeros((8, 3), dtype=np.int64)
    for ci, c in enumerate(corners):
        for axis in range(3):
            e = [0, 0, 0]
            e[axis] = 1
            plus[ci, axis] = add((c[0] + e[0], c[1] + e[1], c[2] + e[2]))
            minus[ci, axis] = add((c[0] - e[0], c[1] - e[1], c[2] - e[2]))
    return np.asarray(offsets, dtype=np.int64), plus, minus


NEIGHBOR_OFFSETS, _PLUS_IDX, _MINUS_IDX = _build_neighborhood()
_N_NEIGH = NEIGHBOR_OFFSETS.shape[0]


def _derivative_matrices(spacing) -> np.ndarray:
    """(3, 8, 32) maps from corner trilinear weights to per-axis stencil weights."""
    d = np.zeros((3, 8, _N_NEIGH))
    for axis in range(3):
        inv2h = 1.0 / (2.0 * spacing[axis])
        for ci in range(8):
            d[axis, ci, _PLUS_IDX[ci, axis]] += inv2h
            d[axis, ci, _MINUS_IDX[ci, axis]] -= inv2h
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


def gradient_stencil(dims, spacing, coords, mean_grid: ScalarGrid) -> GradientStencil:
    """Blended central-difference stencil at a trilinear sample point.

    Needs every central-difference neighbor in bounds, i.e. the cell base at
    least one voxel from the boundary.  A zero mean gradient flags the stencil
    degenerate instead of raising.
    """
    nx, ny, nz = dims
    bx, by, bz = coords.base
    if not (1 <= bx <= nx - 3 and 1 <= by <= ny - 3 and 1 <= bz <= nz - 3):
        raise VolumeError(
            f"cell base {coords.base} too close to the boundary for central differences"
        )
    wts = corner_weights(*coords.frac)  # (8,)
    deriv = _derivative_matrices(spacing)  # (3, 8, 32)
    axis_w = np.einsum("c,acn->an", wts, deriv)  # (3, 32)

    off = NEIGHBOR_OFFSETS
    flat = (bx + off[:, 0]) + nx * ((by + off[:, 1]) + ny * (bz + off[:, 2]))
    vals = mean_grid.values[flat]
    mean_grad = axis_w @ vals  # (3,)

    w_full = np.zeros(_N_NEIGH)
    w_full[:8] = wts
    norm = float(np.linalg.norm(mean_grad))
    if norm < 1e-12:
        u = np.zeros(_N_NEIGH)
        degenerate = True
    else:
        u = (mean_grad / norm) @ axis_w
        degenerate = False
    return GradientStencil(flat, w_full, u, axis_w, mean_grad, degenerate)


# ---------------------------------------------------------------------------
# 2D TF integration


def sobol_points(dim: int, n: int, seed: int) -> np.ndarray:
    """Scrambled Sobol points in [0,1)^dim; deterministic for a fixed seed."""
    eng = qmc.Sobol(d=dim, scramble=True, seed=seed)
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
    colors = tf2.sample(x, np.clip(y, 0.0, tf2.gmax))  # (P, n, 4)
    return colors.mean(axis=1)


def expected_color_2d(corner_models, stencil: GradientStencil, tf2: TransferFunction2D,
                      n: int, seed: int) -> np.ndarray:
    """Expected RGBA under the joint (intensity, directional-derivative) model.

    corner_models is a (center, width) pair per stencil voxel.  The signed
    directional derivative stands in for the gradient magnitude and is clamped
    into the table domain.  Deterministic for a fixed seed.
    """
    if stencil.degenerate:
        raise VolumeError("degenerate stencil: mean gradient is zero")
    centers = np.asarray([m[0] for m in corner_models], dtype=np.float64)
    widths = np.asarray([m[1] for m in corner_models], dtype=np.float64)
    if centers.size != stencil.indices.size:
        raise VolumeError("need one (center, width) model per stencil voxel")
    if np.any(widths < 0):
        raise VolumeError("uniform widths must be nonnegative")
    pts = sobol_points(centers.size, n, seed)
    return expected_color_2d_batch(centers[None, :], widths[None, :],
                                   stencil.w[None, :], stencil.u[None, :], tf2, pts)[0]

import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import uqdvr
from uqdvr import classify
from uqdvr.classify import (
    GradientStencil,
    TransferFunction1D,
    TransferFunction2D,
    expected_color_2d,
    expected_color_2d_batch,
    expected_color_parametric,
    expected_color_quantile_mean,
    expected_color_quantile_range,
    gauss_hermite_batch,
    load_tf1d,
    load_tf2d,
    quantile_range_batch,
    save_tf1d,
    save_tf2d,
    sobol_points,
)
from uqdvr.density import GmmModel
from uqdvr.interp import (NumericDensity, TrilinearCoords, derivative_matrices, gradient_stencil,
                          trilinear_coords)
from uqdvr.render import Image, load_image_f32, save_image
from uqdvr.synth import load_ensemble, save_ensemble
from uqdvr.volcore import (
    F32_MAX,
    DistributionVolume,
    EnsembleVolume,
    FormatError,
    GaussianModel,
    GmmVolumeModel,
    MeanFieldModel,
    QuantileModel,
    QuantilePdf,
    SamplesModel,
    ScalarGrid,
    UniformModel,
    VolumeError,
    load_dvol,
    load_qvol,
    save_dvol,
    save_qvol,
)

from oracles import lattice_color_einsum


def ramp_tf():
    # Red channel ramps 0 -> 1 over [0, 1]; alpha constant 1.
    return TransferFunction1D([[0.0, 0.0, 0.2, 0.7, 1.0], [1.0, 1.0, 0.2, 0.7, 1.0]])


def brute_force_expected_color(pdf, tf, n=10**6):
    """Midpoint-rule quadrature of the expected-TF integral for a piecewise
    constant density; the independent oracle for both 1D schemes."""
    lo, hi = pdf.boundaries[0], pdf.boundaries[-1]
    if hi <= lo:
        return tf.sample(lo)
    x = lo + (np.arange(n) + 0.5) * (hi - lo) / n
    dens = np.zeros(n)
    for j in range(pdf.q):
        a, b = pdf.boundaries[j], pdf.boundaries[j + 1]
        if b > a:
            dens += np.where((x >= a) & (x < b), pdf.qval / (b - a), 0.0)
    dx = (hi - lo) / n
    w = dens * dx
    return np.einsum("n,nc->c", w, tf.sample(x)) / w.sum()


class TestTransferFunction1D:
    def test_validation(self):
        with pytest.raises(VolumeError):
            TransferFunction1D([[0, 0, 0, 0, 0], [0, 1, 1, 1, 1]])
        with pytest.raises(VolumeError):
            TransferFunction1D([[0, 0, 0, 0, 2]])

    def test_constant_extension(self):
        tf = ramp_tf()
        np.testing.assert_allclose(tf.sample(-5.0), [0, 0.2, 0.7, 1.0])
        np.testing.assert_allclose(tf.sample(7.0), [1, 0.2, 0.7, 1.0])

    def test_integral_matches_dense_trapezoid(self):
        rng = np.random.default_rng(0)
        x = np.array([0.0, 0.13, 0.4, 0.55, 0.9, 1.0])
        tf = TransferFunction1D(np.column_stack([x, rng.random((6, 4))]))
        for a, b in [(-0.5, 0.3), (0.1, 0.1001), (0.0, 1.0), (0.45, 1.7), (-1.0, 2.0)]:
            grid = np.linspace(a, b, 200001)
            dense = np.trapezoid(tf.sample(grid), grid, axis=0)
            got = tf.integral_to(b) - tf.integral_to(a)
            np.testing.assert_allclose(got, dense, atol=1e-7)

    def test_text_round_trip(self, tmp_path):
        tf = ramp_tf()
        p = tmp_path / "tf.txt"
        save_tf1d(tf, p)
        back = load_tf1d(p)
        np.testing.assert_allclose(back.points, tf.points)


class TestQuantileRange:
    def test_constant_tf(self):
        tf = TransferFunction1D([[0.0, 0.3, 0.3, 0.3, 0.3], [1.0, 0.3, 0.3, 0.3, 0.3]])
        rng = np.random.default_rng(1)
        for _ in range(10):
            pdf = QuantilePdf(0.25, np.sort(rng.random(5)))
            np.testing.assert_allclose(expected_color_quantile_range(pdf, tf), 0.3, atol=1e-12)

    def test_single_piece_ramp_average(self):
        pdf = QuantilePdf(1.0, [0.0, 1.0])
        out = expected_color_quantile_range(pdf, ramp_tf())
        assert abs(out[0] - 0.5) < 1e-12

    def test_matches_brute_force_quadrature(self):
        tf = TransferFunction1D([[0.0, 0.0, 1.0, 0.5, 0.1],
                                 [0.35, 1.0, 0.2, 0.5, 0.9],
                                 [1.0, 0.4, 0.8, 0.5, 0.3]])
        pdf = QuantilePdf(0.25, [0.0, 0.1, 0.2, 0.6, 1.0])
        got = expected_color_quantile_range(pdf, tf)
        want = brute_force_expected_color(pdf, tf)
        np.testing.assert_allclose(got, want, atol=1e-4)

    def test_linear_tf_gives_mean(self):
        pdf = QuantilePdf(0.25, [0.2, 0.35, 0.5, 0.65, 0.8])
        out = expected_color_quantile_range(pdf, ramp_tf())
        assert abs(out[0] - pdf.mean()) < 1e-9

    def test_zero_width_pieces_sample_tf(self):
        pdf = QuantilePdf(0.5, [0.3, 0.3, 0.3])
        out = expected_color_quantile_range(pdf, ramp_tf())
        np.testing.assert_allclose(out, ramp_tf().sample(0.3), atol=1e-12)


class TestQuantileMean:
    def test_constant_tf_proves_unit_weight_sum(self):
        # With TF == c the output equals c times the weight sum.
        tf = TransferFunction1D([[0.0, 0.3, 0.3, 0.3, 0.3], [1.0, 0.3, 0.3, 0.3, 0.3]])
        rng = np.random.default_rng(21)
        for _ in range(20):
            incr = rng.uniform(0.0, 1.0, 9)
            incr[0] = rng.uniform(-1, 1)
            pdf = QuantilePdf(0.125, np.cumsum(incr))
            out = expected_color_quantile_mean(pdf, tf)
            np.testing.assert_allclose(out, 0.3, atol=1e-12)

    def test_delta_distribution(self):
        pdf = QuantilePdf(0.125, np.full(9, 0.42))
        out = expected_color_quantile_mean(pdf, ramp_tf())
        np.testing.assert_allclose(out, ramp_tf().sample(0.42), atol=1e-12)

    def test_equal_widths_average_midpoints(self):
        pdf = QuantilePdf(0.25, [0.0, 0.25, 0.5, 0.75, 1.0])
        tf = ramp_tf()
        out = expected_color_quantile_mean(pdf, tf)
        mids = [0.125, 0.375, 0.625, 0.875]
        np.testing.assert_allclose(out, tf.sample(np.array(mids)).mean(axis=0), atol=1e-12)

    def test_hand_evaluated_unequal_widths(self):
        # Widths {1, 3} at qval 0.5: densities {.5, 1/6} normalize to {.75, .25}.
        pdf = QuantilePdf(0.5, [0.0, 1.0, 4.0])
        tf = ramp_tf()
        out = expected_color_quantile_mean(pdf, tf)
        want = 0.75 * tf.sample(0.5) + 0.25 * tf.sample(2.5)
        np.testing.assert_allclose(out, want, atol=1e-12)

    def test_schemes_converge_at_q1000(self):
        # A uniform-density pdf, where the midpoint scheme is consistent.
        q = 1000
        pdf = QuantilePdf(1.0 / q, np.linspace(0.1, 0.9, q + 1))
        tf = TransferFunction1D([[0.0, 0.0, 1.0, 0.5, 0.1],
                                 [0.3, 1.0, 0.2, 0.5, 0.9],
                                 [0.8, 0.3, 0.9, 0.5, 0.2],
                                 [1.0, 0.4, 0.8, 0.5, 0.3]])
        qr = expected_color_quantile_range(pdf, tf)
        qm = expected_color_quantile_mean(pdf, tf)
        assert np.max(np.abs(qr - qm)) < 1e-3
        np.testing.assert_allclose(qr, brute_force_expected_color(pdf, tf), atol=1e-4)


class TestParametric:
    def test_sigma_zero_is_lookup(self):
        tf = ramp_tf()
        np.testing.assert_allclose(expected_color_parametric((0.37, 0.0), tf),
                                   tf.sample(0.37), atol=1e-12)

    def test_scalar_is_lookup(self):
        tf = ramp_tf()
        np.testing.assert_allclose(expected_color_parametric(0.25, tf), tf.sample(0.25))

    def test_constant_tf_for_every_model(self):
        tf = TransferFunction1D([[0.0, 0.6, 0.6, 0.6, 0.6], [1.0, 0.6, 0.6, 0.6, 0.6]])
        models = [
            0.4,
            (0.4, 0.2),
            GmmModel([0.3, 0.7], [0.2, 0.6], [0.05, 0.1]),
            NumericDensity(np.linspace(0, 1, 101), np.full(101, 1.0)),
        ]
        for m in models:
            np.testing.assert_allclose(expected_color_parametric(m, tf), 0.6, atol=1e-9)

    def test_gaussian_ramp_linearity(self):
        out = expected_color_parametric((0.5, 0.1), ramp_tf())
        assert abs(out[0] - 0.5) < 1e-4

    def test_gmm_mixes_components(self):
        tf = ramp_tf()
        g = GmmModel([0.25, 0.75], [0.3, 0.6], [0.01, 0.02])
        out = expected_color_parametric(g, tf)
        want = 0.25 * expected_color_parametric((0.3, 0.01), tf) \
            + 0.75 * expected_color_parametric((0.6, 0.02), tf)
        np.testing.assert_allclose(out, want, atol=1e-12)

    def test_numeric_density_dot_product(self):
        x = np.linspace(0.2, 0.8, 301)
        dens = NumericDensity(x, np.full_like(x, 1.0 / 0.6))
        out = expected_color_parametric(dens, ramp_tf())
        assert abs(out[0] - 0.5) < 1e-3

    def test_numeric_density_matches_the_einsum_oracle(self):
        # Non-uniform lattices, some points on the knots, some rows wholly
        # above or below them: the segment-table expectation agrees with the
        # TF read at every stored point.
        rng = np.random.default_rng(23)
        tf = random_tf(rng, 6)
        for i in range(60):
            x = rng.uniform(-1.0, 1.0) + np.cumsum(rng.uniform(1e-3, 0.2, 40))
            x[rng.integers(0, 40, 3)] = rng.choice(tf.knots, 3)
            x = np.unique(np.concatenate([x, x[:1] + (40.0 if i % 3 == 1 else -40.0)]))
            pdf = rng.random(x.size) * (rng.random(x.size) < 0.7) + 1e-3
            want = lattice_color_einsum(x[None, :], pdf[None, :], tf)[0]
            got = expected_color_parametric(NumericDensity(x, pdf), tf)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def trilerp(grid, p):
    """Independent trilinear interpolation oracle."""
    g = (np.asarray(p, float) - np.asarray(grid.origin)) / np.asarray(grid.spacing)
    base = np.minimum(g.astype(int), np.asarray(grid.dims) - 2)
    f = g - base
    out = 0.0
    for c in range(8):
        dx, dy, dz = c & 1, (c >> 1) & 1, (c >> 2) & 1
        w = ((f[0] if dx else 1 - f[0]) * (f[1] if dy else 1 - f[1])
             * (f[2] if dz else 1 - f[2]))
        out += w * grid.at(base[0] + dx, base[1] + dy, base[2] + dz)
    return out


class TestGradientStencil:
    def make_linear_grid(self, a, b, c, n=8):
        idx = np.arange(n)
        z, y, x = np.meshgrid(idx, idx, idx, indexing="ij")
        vals = a * x + b * y + c * z
        return ScalarGrid((n, n, n), (1, 1, 1), (0, 0, 0), vals.ravel())

    def test_linear_field_exact(self):
        # Dyadic slopes, so that the float32 grid holds the field exactly.
        grid = self.make_linear_grid(0.375, -0.625, 1.125)
        rng = np.random.default_rng(2)
        for _ in range(20):
            coords = trilinear_coords(grid.dims, grid.spacing, grid.origin,
                                      rng.uniform(1.5, 5.5, 3))
            st = gradient_stencil(grid.dims, grid.spacing, coords, grid)
            np.testing.assert_allclose(st.mean_gradient, [0.375, -0.625, 1.125], atol=1e-12)
            assert not st.degenerate

    def test_constant_field_degenerate(self):
        grid = ScalarGrid((6, 6, 6), (1, 1, 1), (0, 0, 0), np.full(216, 0.5))
        coords = TrilinearCoords((2, 2, 2), (0.5, 0.5, 0.5))
        st = gradient_stencil(grid.dims, grid.spacing, coords, grid)
        assert st.degenerate
        np.testing.assert_allclose(st.mean_gradient, 0.0, atol=1e-12)

    def test_weight_sums(self):
        grid = self.make_linear_grid(1.0, 2.0, 3.0)
        coords = TrilinearCoords((3, 2, 4), (0.3, 0.8, 0.1))
        st = gradient_stencil(grid.dims, grid.spacing, coords, grid)
        assert abs(st.w.sum() - 1.0) < 1e-12
        np.testing.assert_allclose(st.axis_weights.sum(axis=1), 0.0, atol=1e-12)

    def test_matches_fd_of_interpolated_field(self):
        n = 48
        idx = np.arange(n, dtype=float)
        z, y, x = np.meshgrid(idx, idx, idx, indexing="ij")
        rng = np.random.default_rng(3)
        vals = 0.05 * x + 0.04 * y + 0.06 * z
        for _ in range(3):
            cx, cy, cz = rng.uniform(10, 38, 3)
            s = rng.uniform(26, 36)
            vals += rng.uniform(0.5, 1.0) * np.exp(
                -((x - cx) ** 2 + (y - cy) ** 2 + (z - cz) ** 2) / (2 * s * s))
        grid = ScalarGrid((n, n, n), (1, 1, 1), (0, 0, 0), vals.ravel())
        h = 1e-4
        for _ in range(25):
            base = rng.integers(4, n - 5, 3)
            p = base + 0.5
            coords = trilinear_coords(grid.dims, grid.spacing, grid.origin, p)
            st = gradient_stencil(grid.dims, grid.spacing, coords, grid)
            fd = np.array([
                (trilerp(grid, p + h * e) - trilerp(grid, p - h * e)) / (2 * h)
                for e in np.eye(3)
            ])
            rel = np.linalg.norm(st.mean_gradient - fd) / max(np.linalg.norm(fd), 1e-12)
            assert rel < 1e-3

    def test_boundary_proximity_rejected(self):
        grid = self.make_linear_grid(1, 1, 1, n=6)
        with pytest.raises(VolumeError):
            gradient_stencil(grid.dims, grid.spacing,
                             TrilinearCoords((0, 2, 2), (0.5, 0.5, 0.5)), grid)


def checker_tf2d(rows=8, cols=8, gmax=2.0):
    rng = np.random.default_rng(7)
    return TransferFunction2D(rng.random((rows, cols, 4)), gmax)


def two_voxel_stencil(w, u):
    return GradientStencil(
        indices=np.array([0, 1]),
        w=np.asarray(w, float),
        u=np.asarray(u, float),
        axis_weights=np.zeros((3, 2)),
        mean_gradient=np.array([1.0, 0.0, 0.0]),
        degenerate=False,
    )


class TestExpectedColor2d:
    def test_zero_widths_exact_lookup(self):
        tf2 = checker_tf2d()
        st = two_voxel_stencil([0.6, 0.4], [0.8, -0.3])
        models = [(0.5, 0.0), (0.9, 0.0)]
        out = expected_color_2d(models, st, tf2, n=64, seed=0)
        x = 0.6 * 0.5 + 0.4 * 0.9
        y = 0.8 * 0.5 - 0.3 * 0.9
        np.testing.assert_allclose(out, tf2.sample(x, np.clip(y, 0, tf2.gmax)), atol=1e-12)

    def test_constant_tf2d(self):
        table = np.full((4, 4, 4), 0.35)
        tf2 = TransferFunction2D(table, 1.5)
        st = two_voxel_stencil([0.5, 0.5], [1.0, -1.0])
        out = expected_color_2d([(0.4, 0.2), (0.6, 0.1)], st, tf2, n=256, seed=1)
        np.testing.assert_allclose(out, 0.35, atol=1e-12)

    def test_m2_matches_numeric_convolution_oracle(self):
        tf2 = checker_tf2d(rows=6, cols=6, gmax=1.0)
        w = np.array([0.55, 0.45])
        u = np.array([0.9, -0.5])
        centers = np.array([0.45, 0.65])
        widths = np.array([0.3, 0.2])
        st = two_voxel_stencil(w, u)
        out = expected_color_2d(list(zip(centers, widths)), st, tf2, n=2**16, seed=2)
        # Brute-force product quadrature over the two uniform factors.
        npts = 1200
        x1 = centers[0] + widths[0] * ((np.arange(npts) + 0.5) / npts - 0.5)
        x2 = centers[1] + widths[1] * ((np.arange(npts) + 0.5) / npts - 0.5)
        g1, g2 = np.meshgrid(x1, x2, indexing="ij")
        xs = w[0] * g1 + w[1] * g2
        ys = np.clip(u[0] * g1 + u[1] * g2, 0, tf2.gmax)
        want = tf2.sample(xs.ravel(), ys.ravel()).mean(axis=0)
        np.testing.assert_allclose(out, want, atol=5e-3)

    def test_output_within_table_hull(self):
        tf2 = checker_tf2d()
        st = two_voxel_stencil([0.5, 0.5], [0.4, 0.6])
        out = expected_color_2d([(0.3, 0.4), (0.7, 0.5)], st, tf2, n=512, seed=3)
        for ch in range(4):
            assert tf2.table[..., ch].min() - 1e-12 <= out[ch] <= tf2.table[..., ch].max() + 1e-12

    def test_degenerate_stencil_rejected(self):
        tf2 = checker_tf2d()
        st = GradientStencil(np.array([0]), np.array([1.0]), np.array([0.0]),
                             np.zeros((3, 1)), np.zeros(3), True)
        with pytest.raises(VolumeError):
            expected_color_2d([(0.5, 0.1)], st, tf2, n=16, seed=0)

    def test_batch_degenerate_rows_use_y0_row(self):
        tf2 = checker_tf2d()
        pts = sobol_points(1, 128, seed=5)
        out = expected_color_2d_batch(
            np.array([[0.5]]), np.array([[0.0]]), np.array([[1.0]]),
            np.array([[0.7]]), tf2, pts, degenerate=np.array([True]))
        np.testing.assert_allclose(out[0], tf2.sample(0.5, 0.0), atol=1e-12)


class TestLazyScipyStats:
    """scipy.stats, behind sobol_points alone, is loaded by the first 2D TF or
    Sobol call, not by importing the package."""

    @pytest.mark.parametrize("call", [
        "uqdvr.classify.TransferFunction2D(np.zeros((2, 2, 4)), 1.0)",
        "uqdvr.classify.sobol_points(2, 4, 0)",
    ])
    def test_loaded_by_the_first_2d_tf_or_sobol_call(self, call):
        env = {**os.environ, "PYTHONPATH": str(Path(uqdvr.__file__).resolve().parents[1])}
        script = ("import sys; import numpy as np; import uqdvr, uqdvr.cli; "
                  "print('scipy.stats' in sys.modules); "
                  f"{call}; print('scipy.stats' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out.split() == ["False", "True"]


class TestTransferFunction2DIO:
    def test_bilinear_known_values(self):
        table = np.zeros((2, 2, 4))
        table[0, 0] = 0.0
        table[0, 1] = 1.0
        table[1, 0] = 0.5
        table[1, 1] = 0.75
        tf2 = TransferFunction2D(table, 4.0)
        np.testing.assert_allclose(tf2.sample(0.0, 0.0), 0.0)
        np.testing.assert_allclose(tf2.sample(1.0, 0.0), 1.0)
        np.testing.assert_allclose(tf2.sample(0.5, 2.0), np.mean([0, 1, 0.5, 0.75]))
        # Clamped outside the domain.
        np.testing.assert_allclose(tf2.sample(2.0, -1.0), 1.0)

    def test_round_trip(self, tmp_path):
        tf2 = checker_tf2d(rows=5, cols=3, gmax=2.5)
        p = tmp_path / "tf2.bin"
        save_tf2d(tf2, p)
        back = load_tf2d(p)
        assert back.gmax == 2.5
        np.testing.assert_allclose(back.table, tf2.table.astype(np.float32), atol=1e-7)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "bad.bin"
        p.write_bytes(b"nope\n" + b"\x00" * 16)
        with pytest.raises(VolumeError):
            load_tf2d(p)


class TestNonFiniteTransferFunctions:
    @pytest.mark.parametrize("row, col", [(0, 0), (1, 0), (1, 2), (2, 4)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_tf1d_rejects_non_finite(self, row, col, bad):
        pts = np.array([[0.0, 0, 0, 0, 0], [0.5, 0.2, 0.4, 0.6, 0.8], [1.0, 1, 1, 1, 1]])
        pts[row, col] = bad
        with pytest.raises(VolumeError, match="finite"):
            TransferFunction1D(pts)

    def test_tf1d_file_with_nan_rejected(self, tmp_path):
        p = tmp_path / "tf.txt"
        p.write_text("0 0 0 0 0\nnan 1 1 1 1\n")
        with pytest.raises(VolumeError):
            load_tf1d(p)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_tf2d_rejects_non_finite_table(self, bad):
        table = np.full((3, 3, 4), 0.5)
        table[1, 2, 3] = bad
        with pytest.raises(VolumeError, match="finite"):
            TransferFunction2D(table, 1.0)

    @pytest.mark.parametrize("gmax", [np.inf, np.nan])
    def test_tf2d_rejects_non_finite_gmax(self, gmax):
        with pytest.raises(VolumeError):
            TransferFunction2D(np.full((2, 2, 4), 0.5), gmax)


def random_tf(rng, n):
    x = np.cumsum(rng.uniform(0.02, 0.3, n)) - 0.3
    return TransferFunction1D(np.column_stack([x, rng.random((n, 4))]))


def dense_gaussian_oracle(tf, mu, sigma, nodes=64):
    """E[TF(N(mu, sigma^2))] by Gauss-Legendre quadrature on each smooth piece
    of TF * pdf over mu +- 12 sigma (pieces split at the knots)."""
    if sigma == 0:
        return tf.sample(mu)
    lo, hi = mu - 12 * sigma, mu + 12 * sigma
    cuts = np.concatenate([[lo], tf.knots[(tf.knots > lo) & (tf.knots < hi)], [hi]])
    t, w = np.polynomial.legendre.leggauss(nodes)
    out = np.zeros(4)
    for a, b in zip(cuts[:-1], cuts[1:]):
        x = 0.5 * (b - a) * t + 0.5 * (a + b)
        pdf = np.exp(-0.5 * ((x - mu) / sigma) ** 2) / (sigma * np.sqrt(2 * np.pi))
        out += 0.5 * (b - a) * (w * pdf) @ tf.sample(x)
    return out


class TestGaussianClosedForm:
    def check(self, tf, mu, sigma):
        mu = np.asarray(mu, dtype=np.float64)
        sigma = np.asarray(sigma, dtype=np.float64)
        got = gauss_hermite_batch(mu, sigma, tf)
        want = np.array([dense_gaussian_oracle(tf, m, s) for m, s in zip(mu, sigma)])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-7)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_tfs_match_dense_oracle(self, seed):
        rng = np.random.default_rng(100 + seed)
        tf = random_tf(rng, int(rng.integers(2, 9)))
        mu = rng.uniform(tf.knots[0] - 0.5, tf.knots[-1] + 0.5, 40)
        sigma = rng.uniform(0.0, 0.6, 40)
        self.check(tf, mu, sigma)

    def test_zero_sigma_rows_are_lookups(self):
        tf = random_tf(np.random.default_rng(1), 5)
        mu = np.linspace(-1.0, 2.0, 13)
        got = gauss_hermite_batch(mu, np.zeros(13), tf)
        np.testing.assert_array_equal(got, tf.sample(mu))

    def test_sigma_far_below_knot_spacing(self):
        tf = random_tf(np.random.default_rng(2), 6)
        mu = np.concatenate([tf.knots, tf.knots + 1e-9, np.linspace(-0.2, 1.2, 9)])
        self.check(tf, mu, np.full(mu.size, 1e-6))
        tiny = gauss_hermite_batch(mu, np.full(mu.size, 1e-300), tf)
        np.testing.assert_allclose(tiny, tf.sample(mu), rtol=0, atol=1e-12)

    def test_mu_far_outside_knots(self):
        tf = random_tf(np.random.default_rng(3), 4)
        mu = np.array([-50.0, -1e6, 80.0, 3e7])
        sigma = np.array([0.3, 2.0, 0.05, 1.0])
        self.check(tf, mu, sigma)
        got = gauss_hermite_batch(mu, sigma, tf)
        np.testing.assert_allclose(got[:2], tf.points[[0, 0], 1:], atol=1e-12)
        np.testing.assert_allclose(got[2:], tf.points[[-1, -1], 1:], atol=1e-9)

    @pytest.mark.parametrize("mu", [1e15, 1e17, F32_MAX])
    def test_means_far_beyond_the_knots_keep_the_segment_widths(self, mu):
        # mu - x_j rounds every knot width of this TF away at these means.
        tf = TransferFunction1D([[0.0, 0.0, 0.0, 0.0, 0.0], [0.3, 0.1, 0.4, 0.9, 0.1],
                                 [0.6, 0.9, 0.6, 0.1, 0.6], [1.0, 0.2, 0.2, 0.2, 0.9]])
        got = gauss_hermite_batch(np.array([mu, -mu]), np.ones(2), tf)
        np.testing.assert_allclose(got, tf.points[[-1, 0], 1:], rtol=0, atol=1e-12)

    def test_single_knot_tf_is_constant(self):
        tf = TransferFunction1D([[0.5, 0.1, 0.2, 0.3, 0.4]])
        got = gauss_hermite_batch(np.array([0.0, 0.5, 9.0]), np.array([1.0, 0.0, 0.1]), tf)
        np.testing.assert_allclose(got, np.tile([0.1, 0.2, 0.3, 0.4], (3, 1)), atol=1e-15)

    def test_gmm_parametric_matches_dense_oracle(self):
        rng = np.random.default_rng(4)
        tf = random_tf(rng, 7)
        g = GmmModel([0.2, 0.5, 0.3], [0.1, 0.45, 0.9], [0.0, 0.03, 0.2])
        want = sum(w * dense_gaussian_oracle(tf, m, s)
                   for w, m, s in zip(g.weights, g.means, g.sigmas))
        np.testing.assert_allclose(expected_color_parametric(g, tf), want, atol=1e-7)


def legacy_integral_to(tf, x):
    """The clip-and-mask antiderivative the segment tables replaced."""
    x = np.asarray(x, dtype=np.float64)
    knots, vals = tf.points[:, 0], tf.points[:, 1:]
    mid = 0.5 * (vals[:-1] + vals[1:])
    cum = np.vstack([np.zeros(4), np.cumsum(mid * np.diff(knots)[:, None], axis=0)])
    seg = np.clip(np.searchsorted(knots, x, side="right") - 1, 0, knots.size - 1)
    x0, v0 = knots[seg], vals[seg]
    dx = (x - x0)[..., None]
    out = cum[seg] + v0 * dx
    interior = seg < knots.size - 1
    if np.any(interior):
        nxt = np.minimum(seg + 1, knots.size - 1)
        width = knots[nxt] - x0
        ok = width[..., None] > 0
        slope = np.where(ok, (vals[nxt] - v0) / np.where(ok, width[..., None], 1.0), 0.0)
        out = out + np.where(interior[..., None], 0.5 * slope * dx * dx, 0.0)
    below = x < knots[0]
    if np.any(below):
        out = np.where(below[..., None], vals[0] * (x - knots[0])[..., None], out)
    return out


def legacy_quantile_range_batch(boundaries, qval, tf):
    """Per-piece averages from two antiderivative calls per piece."""
    a, b = boundaries[:, :-1], boundaries[:, 1:]
    width = b - a
    safe = np.where(width > 0, width, 1.0)
    avg = (legacy_integral_to(tf, b) - legacy_integral_to(tf, a)) / safe[..., None]
    avg = np.where((width > 0)[..., None], avg, tf.sample(a))
    return qval * avg.sum(axis=1)


class TestQuantileRangeLegacyOracle:
    @pytest.mark.parametrize("seed", range(4))
    def test_bit_identical_to_two_sided_averages(self, seed):
        rng = np.random.default_rng(200 + seed)
        tf = random_tf(rng, int(rng.integers(1, 8)))
        q = int(rng.choice([1, 4, 8, 32]))
        bnd = np.sort(rng.normal(0.4, 0.6, (500, q + 1)), axis=1)
        bnd[::5, 1:] = bnd[::5, :1]  # all pieces zero-width
        bnd[1::7, q // 2:] = bnd[1::7, q // 2, None]  # upper pieces zero-width
        bnd[2::9] = np.sort(rng.choice(tf.knots, (bnd[2::9].shape)), axis=1)  # on knots
        got = quantile_range_batch(bnd, 1.0 / q, tf)
        assert np.array_equal(got, legacy_quantile_range_batch(bnd, 1.0 / q, tf))

    def test_integral_to_bit_identical(self):
        rng = np.random.default_rng(9)
        tf = random_tf(rng, 6)
        x = np.concatenate([rng.uniform(-2, 3, 2000), tf.knots])
        assert np.array_equal(tf.integral_to(x), legacy_integral_to(tf, x))


def interp_sample(tf, x):
    """The four-np.interp lookup that the segment-table sample replaced."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty(x.shape + (4,))
    for ch in range(4):
        out[..., ch] = np.interp(x, tf.points[:, 0], tf.points[:, ch + 1])
    return out


def fancy_index_integral_to(tf, x):
    """The fancy-index antiderivative that the np.take gathers replaced."""
    x = np.asarray(x, dtype=np.float64)
    seg = np.searchsorted(tf.points[:, 0], x, side="right")
    dx = (x - tf._seg_x[seg])[..., None]
    return tf._seg_cum[seg] + tf._seg_val[seg] * dx + 0.5 * tf._seg_slope[seg] * dx * dx


def probe_points(rng, tf):
    """Random x, every knot, points below and above the knots, and a sorted
    lattice across them."""
    lo, hi = tf.knots[0], tf.knots[-1]
    return np.concatenate([
        rng.uniform(lo - 1.0, hi + 1.0, 300),
        tf.knots,
        [lo - 1e-12, lo - 5.0, -1e300, hi + 1e-12, hi + 5.0, 1e300],
        np.linspace(lo - 0.5, hi + 0.5, 257),
    ])


class TestTableLookupOracles:
    @pytest.mark.parametrize("seed", range(8))
    def test_sample_bit_identical_to_interp(self, seed):
        rng = np.random.default_rng(300 + seed)
        tf = random_tf(rng, 1 + seed)  # seed 0 is the one-knot TF
        x = probe_points(rng, tf)
        assert np.array_equal(tf.sample(x), interp_sample(tf, x))
        grid = rng.uniform(tf.knots[0] - 1, tf.knots[-1] + 1, (7, 5))
        assert np.array_equal(tf.sample(grid), interp_sample(tf, grid))
        assert np.array_equal(tf.sample(x[3]), interp_sample(tf, x[3]))

    def test_many_blocks_and_empty(self):
        rng = np.random.default_rng(7)
        tf = random_tf(rng, 6)
        x = rng.uniform(tf.knots[0] - 1, tf.knots[-1] + 1, (3, classify._BLOCK + 1001))
        assert np.array_equal(tf.sample(x), interp_sample(tf, x))
        assert np.array_equal(tf.integral_to(x), fancy_index_integral_to(tf, x))
        assert np.array_equal(tf.sample(x.T), interp_sample(tf, x.T))  # non-contiguous
        assert tf.sample(np.empty((0, 3))).shape == (0, 3, 4)

    def test_sample_infinite_and_nan(self):
        tf = random_tf(np.random.default_rng(5), 4)
        x = np.array([-np.inf, np.inf])
        assert np.array_equal(tf.sample(x), interp_sample(tf, x))
        assert np.all(np.isnan(tf.sample(np.nan)))

    @pytest.mark.parametrize("seed", range(8))
    def test_integral_to_bit_identical_to_fancy_index(self, seed):
        rng = np.random.default_rng(400 + seed)
        tf = random_tf(rng, 1 + seed)
        x = probe_points(rng, tf)[:-6]  # |x| = 1e300 overflows dx * dx
        x = np.concatenate([x, tf.knots[:1] - 1e-12, tf.knots[-1:] + 1e-12])
        assert np.array_equal(tf.integral_to(x), fancy_index_integral_to(tf, x))
        rows = np.sort(rng.uniform(tf.knots[0] - 1, tf.knots[-1] + 1, (9, 6)), axis=1)
        assert np.array_equal(tf.integral_to(rows), fancy_index_integral_to(tf, rows))


def gather_expected_color_2d_batch(centers, widths, w, u, tf2, points, degenerate=None):
    """The per-point bilinear gathers and mean that the splat replaced."""
    offsets = points.T - 0.5
    x = (w * centers).sum(axis=1, keepdims=True) + (w * widths) @ offsets
    y = (u * centers).sum(axis=1, keepdims=True) + (u * widths) @ offsets
    if degenerate is not None and np.any(degenerate):
        y = np.where(degenerate[:, None], 0.0, y)
    return tf2.sample(x, np.clip(y, 0.0, tf2.gmax)).mean(axis=1)


def render_like_rows(rng, p, m=32):
    centers = rng.uniform(0.0, 1.0, (p, m))
    widths = rng.uniform(0.0, 0.4, (p, m))
    widths[::5] = 0.0
    w = np.zeros((p, m))
    w[:, :8] = rng.dirichlet(np.ones(8), p)
    u = rng.normal(0.0, 2.0, (p, m))
    degenerate = np.zeros(p, dtype=bool)
    degenerate[1::4] = True
    return centers, widths, w, u, degenerate


class TestSplatExpectation2d:
    @pytest.mark.parametrize("rows, cols, n", [(64, 64, 1024), (2, 2, 64), (5, 9, 256),
                                               (300, 300, 16)])
    def test_matches_gather_oracle(self, rows, cols, n):
        rng = np.random.default_rng(rows + cols + n)
        tf2 = TransferFunction2D(rng.random((rows, cols, 4)), 1.5)
        args = render_like_rows(rng, 40)
        pts = sobol_points(32, n, seed=3)
        got = expected_color_2d_batch(*args[:4], tf2, pts, degenerate=args[4])
        want = gather_expected_color_2d_batch(*args[:4], tf2, pts, degenerate=args[4])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n, splat", [(77, True), (1, False)])
    def test_mean_sample_matches_pointwise_mean(self, n, splat):
        rng = np.random.default_rng(11)
        tf2 = checker_tf2d(rows=7, cols=4, gmax=2.0)
        # n = 1 puts the 28-cell table above the splat bound: pointwise path.
        assert (7 * 4 <= classify._SPLAT_CELLS_PER_POINT * n) == splat
        x = rng.uniform(-0.2, 1.2, (30, n))
        y = rng.uniform(-0.5, 2.5, (30, n))
        y[4] = 0.0
        want = tf2.sample(x, np.clip(y, 0.0, tf2.gmax)).mean(axis=1)
        np.testing.assert_allclose(tf2.mean_sample(x, y), want, rtol=0, atol=1e-12)

    def test_rows_independent_of_block(self):
        rng = np.random.default_rng(12)
        tf2 = TransferFunction2D(rng.random((64, 64, 4)), 1.0)
        x = rng.uniform(0.0, 1.0, (37, 1024))
        y = rng.uniform(0.0, 1.0, (37, 1024))
        block = classify._BLOCK // 4096
        assert 37 > block  # more than one block
        whole = tf2.mean_sample(x, y)
        single = np.vstack([tf2.mean_sample(x[i:i + 1], y[i:i + 1]) for i in range(37)])
        # Only the BLAS summation order of a row's 4096 products may differ.
        np.testing.assert_allclose(whole, single, rtol=0, atol=1e-14)
        np.testing.assert_allclose(tf2.mean_sample(x[5:9], y[5:9]), whole[5:9],
                                   rtol=0, atol=1e-14)
        # A call whose rows are exactly one block of the whole call.
        np.testing.assert_array_equal(tf2.mean_sample(x[block:2 * block], y[block:2 * block]),
                                      whole[block:2 * block])


def tf1d_lines():
    token = st.one_of(
        st.floats(allow_nan=True, allow_infinity=True).map(repr),
        st.floats(0.0, 1.0).map(repr),
        st.text(max_size=3),
    )
    return st.lists(st.lists(token, max_size=6).map(" ".join), max_size=6).map("\n".join)


@st.composite
def tf2d_files(draw):
    rows = draw(st.integers(-3, 5))
    cols = draw(st.integers(-3, 5))
    gmax = draw(st.floats(allow_nan=True, allow_infinity=True))
    header = f"{rows} {cols} {gmax!r}\n".encode("ascii")
    n = max(rows, 0) * max(cols, 0) * 4
    values = draw(st.lists(st.floats(-0.5, 1.5, width=32), min_size=n, max_size=n))
    body = np.asarray(values, dtype="<f4").tobytes() + draw(st.binary(max_size=3))
    return header + body


def valid_tf1d():
    return st.integers(1, 8).flatmap(lambda n: st.tuples(
        st.floats(-1e3, 1e3),
        st.lists(st.floats(1e-3, 10.0), min_size=n - 1, max_size=n - 1),
        st.lists(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4), min_size=n, max_size=n),
    )).map(lambda t: TransferFunction1D(np.column_stack(
        [t[0] + np.concatenate([[0.0], np.cumsum(t[1])]), np.asarray(t[2])])))


def valid_tf2d():
    return st.tuples(st.integers(2, 6), st.integers(2, 6), st.floats(1e-6, 1e6),
                     st.integers(0, 2**32 - 1)).map(
        lambda t: TransferFunction2D(np.random.default_rng(t[3]).random((t[0], t[1], 4)), t[2]))


FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestTransferFunctionLoaderFuzz:
    def check_tf1d(self, path):
        try:
            tf = load_tf1d(path)
        except VolumeError:
            return
        p = tf.points
        assert np.all(np.isfinite(p)) and np.all(np.diff(p[:, 0]) > 0)
        assert np.all((p[:, 1:] >= 0) & (p[:, 1:] <= 1))

    def check_tf2d(self, path):
        try:
            tf2 = load_tf2d(path)
        except VolumeError:
            return
        assert tf2.table.shape[0] >= 2 and tf2.table.shape[1] >= 2
        assert np.all((tf2.table >= 0) & (tf2.table <= 1))
        assert np.isfinite(tf2.gmax) and tf2.gmax > 0

    @pytest.mark.parametrize("load", [load_tf1d, load_tf2d])
    def test_unreadable_path_is_a_volume_error(self, tmp_path, load):
        for path in (tmp_path / "missing.tf", tmp_path):
            with pytest.raises(VolumeError, match="cannot read"):
                load(path)

    @FUZZ
    @given(raw=st.binary(max_size=200))
    def test_tf1d_any_bytes(self, tmp_path, raw):
        p = tmp_path / "tf.txt"
        p.write_bytes(raw)
        self.check_tf1d(p)

    @FUZZ
    @given(text=tf1d_lines())
    def test_tf1d_any_text(self, tmp_path, text):
        p = tmp_path / "tf.txt"
        p.write_bytes(text.encode("utf-8", "surrogatepass"))
        self.check_tf1d(p)

    @FUZZ
    @given(raw=st.binary(max_size=200))
    def test_tf2d_any_bytes(self, tmp_path, raw):
        p = tmp_path / "tf2.bin"
        p.write_bytes(raw)
        self.check_tf2d(p)

    @FUZZ
    @given(raw=tf2d_files())
    def test_tf2d_any_header_and_payload(self, tmp_path, raw):
        p = tmp_path / "tf2.bin"
        p.write_bytes(raw)
        self.check_tf2d(p)

    @pytest.mark.parametrize("text", [b"0 1 1 1 x\n", b"0 0 0 0 0\n\xff\xfe 1 1 1 1\n"])
    def test_tf1d_bad_tokens(self, tmp_path, text):
        p = tmp_path / "tf.txt"
        p.write_bytes(text)
        with pytest.raises(VolumeError):
            load_tf1d(p)

    @pytest.mark.parametrize("header", [b"-2 -2 1\n", b"0 4 1\n", b"1 3 1\n"])
    def test_tf2d_bad_dims(self, tmp_path, header):
        rows, cols = (abs(int(v)) for v in header.split()[:2])
        p = tmp_path / "tf2.bin"
        p.write_bytes(header + np.full(rows * cols * 4, 0.5, "<f4").tobytes())
        with pytest.raises(VolumeError):
            load_tf2d(p)

    @FUZZ
    @given(tf=valid_tf1d())
    def test_tf1d_round_trip(self, tmp_path, tf):
        p = tmp_path / "tf.txt"
        save_tf1d(tf, p)
        back = load_tf1d(p)
        np.testing.assert_allclose(back.points, tf.points, rtol=1e-8, atol=1e-12)
        text = p.read_bytes()
        save_tf1d(back, p)
        assert p.read_bytes() == text

    @FUZZ
    @given(tf2=valid_tf2d())
    def test_tf2d_round_trip(self, tmp_path, tf2):
        p = tmp_path / "tf2.bin"
        save_tf2d(tf2, p)
        back = load_tf2d(p)
        assert np.array_equal(back.table, tf2.table.astype(np.float32))
        assert back.gmax == float(f"{tf2.gmax:.9g}")
        raw = p.read_bytes()
        save_tf2d(back, p)
        assert p.read_bytes() == raw


# Small dims, plus one so large that only a size check can reject it.
LOADER_DIM = st.sampled_from([0, 1, 2, 3, 2**32 - 1])
ANY_F64 = st.floats(width=64)
F32_VALUES = st.floats(-2.0, 2.0, width=32)


def _payload(draw, n, sort_width=None):
    """n f32 values (random bytes when n is large), sometimes sorted in rows,
    with a few stray bytes now and then."""
    if n > 64:
        return draw(st.binary(max_size=64))
    values = np.asarray(draw(st.lists(F32_VALUES, min_size=n, max_size=n)), dtype="<f4")
    if sort_width and n and draw(st.booleans()):
        values = np.sort(values.reshape(-1, sort_width), axis=1)
    return values.tobytes() + draw(st.binary(max_size=3))


@st.composite
def qvol_files(draw):
    dims = draw(st.tuples(LOADER_DIM, LOADER_DIM, LOADER_DIM))
    q = draw(st.integers(0, 9))
    qval = draw(st.one_of(st.just(1.0 / max(q, 1)), ANY_F64))
    header = struct.pack("<5s3I3d3dId", b"QVOL1", *dims,
                         *draw(st.tuples(ANY_F64, ANY_F64, ANY_F64)),
                         *draw(st.tuples(ANY_F64, ANY_F64, ANY_F64)), q, qval)
    return header + _payload(draw, dims[0] * dims[1] * dims[2] * (q + 1), q + 1)


@st.composite
def dvol_files(draw):
    tag, extra = draw(st.integers(0, 5)), draw(st.integers(0, 3))
    dims = draw(st.tuples(LOADER_DIM, LOADER_DIM, LOADER_DIM))
    header = struct.pack("<5sB3I3d3dI", b"DVOL1", tag, *dims,
                         *draw(st.tuples(ANY_F64, ANY_F64, ANY_F64)),
                         *draw(st.tuples(ANY_F64, ANY_F64, ANY_F64)), extra)
    per_voxel = [1, 2, 2, 3 * extra, extra, 1][tag]
    return header + _payload(draw, dims[0] * dims[1] * dims[2] * per_voxel)


@st.composite
def image_files(draw):
    w, h = draw(st.integers(-3, 4)), draw(st.integers(-3, 4))
    values = st.floats(width=32, allow_nan=draw(st.booleans()))
    n = abs(w * h) * 4
    body = np.asarray(draw(st.lists(values, min_size=n, max_size=n)), dtype="<f4")
    return f"{w} {h}\n".encode("ascii") + body.tobytes() + draw(st.binary(max_size=3))


@st.composite
def ensemble_manifests(draw):
    """Manifest text over two 2x2x2 member files; any field may be garbage."""
    def field(valid):
        return draw(st.one_of(st.just(valid), st.text(max_size=12)))

    vec = st.sampled_from(["1,1,1", "0.5,2,1e-3", "1,nan,1", "1,-1,1", "1,1", "0,0,inf"])
    lines = [f"members={field(str(draw(st.integers(-1, 3))))}",
             f"dims={field(draw(st.sampled_from(['2,2,2', '2,2,1', '8,1,1', '0,2,4'])))}",
             f"spacing={field(draw(vec))}", f"origin={field(draw(vec))}"]
    lines = draw(st.permutations(lines))[:draw(st.integers(0, 4))]
    return "\n".join(lines + draw(st.lists(st.text(max_size=12), max_size=2)))


def valid_volume(model_of):
    """DistributionVolumes of small random dims, spacing and origin whose
    model is model_of(rng, nvox)."""
    def build(t):
        dims, seed = t
        rng = np.random.default_rng(seed)
        nvox = dims[0] * dims[1] * dims[2]
        spacing = tuple(rng.uniform(0.1, 3.0, 3))
        return DistributionVolume(dims, spacing, tuple(rng.normal(size=3)), model_of(rng, nvox))
    dim = st.integers(1, 4)
    return st.tuples(st.tuples(dim, dim, dim), st.integers(0, 2**32 - 1)).map(build)


def _f32(a):
    return np.asarray(a, dtype=np.float32).astype(np.float64)


def _quantile_model(rng, nvox):
    q = int(rng.choice([1, 2, 4, 8]))
    return QuantileModel(1.0 / q, np.sort(_f32(rng.normal(size=(nvox, q + 1))), axis=1))


def _gmm_model(rng, nvox):
    k = int(rng.integers(1, 4))
    w = rng.random((nvox, k)) + 0.1
    return GmmVolumeModel(k, w / w.sum(axis=1, keepdims=True), rng.normal(size=(nvox, k)),
                          rng.random((nvox, k)))


DVOL_MODELS = [
    lambda rng, nvox: MeanFieldModel(rng.normal(size=nvox)),
    lambda rng, nvox: UniformModel(rng.normal(size=nvox), rng.random(nvox)),
    lambda rng, nvox: GaussianModel(rng.normal(size=nvox), rng.random(nvox)),
    _gmm_model,
    lambda rng, nvox: SamplesModel(3, rng.normal(size=(nvox, 3))),
]


class TestVolumeLoaderFuzz:
    """Any input to a volume, image or ensemble loader gives a valid object or
    a VolumeError, and every writer's files load back to what was written."""

    def check_volume(self, load, path):
        try:
            vol = load(path)
        except VolumeError:
            return
        assert min(vol.dims) >= 1 and vol.model.voxel_count == np.prod(vol.dims)
        assert np.all(np.isfinite(vol.spacing)) and min(vol.spacing) > 0
        assert np.all(np.isfinite(vol.origin))
        for arr in vars(vol.model).values():
            if isinstance(arr, np.ndarray):
                assert np.all(np.isfinite(arr))

    def check_image(self, path):
        try:
            img = load_image_f32(path)
        except VolumeError:
            return
        assert img.width >= 1 and img.height >= 1
        assert img.pixels.shape == (img.height, img.width, 4)
        assert np.all(np.isfinite(img.pixels))

    @FUZZ
    @given(raw=st.binary(max_size=200), magic=st.sampled_from([b"", b"QVOL1", b"DVOL1"]))
    def test_volume_any_bytes(self, tmp_path, raw, magic):
        p = tmp_path / "vol.bin"
        p.write_bytes(magic + raw)
        self.check_volume(load_qvol, p)
        self.check_volume(load_dvol, p)

    @FUZZ
    @given(raw=qvol_files())
    def test_qvol_any_header_and_payload(self, tmp_path, raw):
        p = tmp_path / "vol.qvol"
        p.write_bytes(raw)
        self.check_volume(load_qvol, p)

    @FUZZ
    @given(raw=dvol_files())
    def test_dvol_any_header_and_payload(self, tmp_path, raw):
        p = tmp_path / "vol.dvol"
        p.write_bytes(raw)
        self.check_volume(load_dvol, p)

    @pytest.mark.parametrize("tag", [3, 4])
    def test_dvol_without_values_per_voxel(self, tmp_path, tag):
        p = tmp_path / "vol.dvol"
        dims = (2**32 - 1,) * 3
        p.write_bytes(struct.pack("<5sB3I3d3dI", b"DVOL1", tag, *dims, 1, 1, 1, 0, 0, 0, 0))
        with pytest.raises(VolumeError, match="no values per voxel"):
            load_dvol(p)

    @pytest.mark.parametrize("tag", [0, 1, 2])
    def test_dvol_width_field_of_a_model_without_one(self, tmp_path, tag):
        """Tags 0-2 (mean, uniform, gaussian) have no WIDTH field, so its slot
        must hold 0, even when the payload fits the model."""
        p = tmp_path / "vol.dvol"

        def write(extra):
            header = struct.pack("<5sB3I3d3dI", b"DVOL1", tag, 1, 1, 1, 1, 1, 1, 0, 0, 0, extra)
            p.write_bytes(header + np.ones([1, 2, 2][tag], "<f4").tobytes())
            return p

        assert load_dvol(write(0)).model.kind == ("mean", "uniform", "gaussian")[tag]
        with pytest.raises(FormatError, match="volume with a width field of 7"):
            load_dvol(write(7))

    @FUZZ
    @given(raw=st.binary(max_size=100))
    def test_image_any_bytes(self, tmp_path, raw):
        p = tmp_path / "img.f32"
        p.write_bytes(raw)
        self.check_image(p)

    @FUZZ
    @given(raw=image_files())
    def test_image_any_header_and_payload(self, tmp_path, raw):
        p = tmp_path / "img.f32"
        p.write_bytes(raw)
        self.check_image(p)

    @FUZZ
    @given(text=ensemble_manifests(), raw=st.binary(max_size=100), use_raw=st.booleans())
    def test_ensemble_any_manifest(self, tmp_path, text, raw, use_raw):
        for m in range(2):
            (tmp_path / f"member_{m:03d}.f32raw").write_bytes(np.full(8, m, "<f4").tobytes())
        manifest = tmp_path / "ensemble.txt"
        manifest.write_bytes(raw if use_raw else text.encode("utf-8", "surrogatepass"))
        try:
            ens = load_ensemble(tmp_path)
        except VolumeError:
            return
        assert isinstance(ens, EnsembleVolume) and 1 <= ens.member_count <= 2
        assert ens.voxel_count == 8 and min(ens.spacing) > 0
        assert np.all(np.isfinite(ens.origin))

    @FUZZ
    @given(vol=valid_volume(_quantile_model))
    def test_qvol_round_trip(self, tmp_path, vol):
        p = tmp_path / "vol.qvol"
        save_qvol(vol, p)
        back = load_qvol(p)
        assert (back.dims, back.spacing, back.origin) == (vol.dims, vol.spacing, vol.origin)
        assert back.model.qval == vol.model.qval
        assert np.array_equal(back.model.boundaries, vol.model.boundaries)
        raw = p.read_bytes()
        save_qvol(back, p)
        assert p.read_bytes() == raw

    @FUZZ
    @given(vol=st.sampled_from(DVOL_MODELS).flatmap(valid_volume))
    def test_dvol_round_trip(self, tmp_path, vol):
        p = tmp_path / "vol.dvol"
        save_dvol(vol, p)
        back = load_dvol(p)
        assert (back.dims, back.spacing, back.origin) == (vol.dims, vol.spacing, vol.origin)
        assert type(back.model) is type(vol.model)
        for name, arr in vars(vol.model).items():
            if isinstance(arr, np.ndarray):
                assert np.array_equal(getattr(back.model, name), _f32(arr)), name
        raw = p.read_bytes()
        save_dvol(back, p)
        assert p.read_bytes() == raw

    @FUZZ
    @given(shape=st.tuples(st.integers(1, 5), st.integers(1, 5)), seed=st.integers(0, 2**32 - 1))
    def test_image_round_trip(self, tmp_path, shape, seed):
        h, w = shape
        img = Image(w, h, np.random.default_rng(seed).normal(size=(h, w, 4)))
        save_image(img, tmp_path / "img.ppm")
        side = tmp_path / "img.ppm.f32"
        back = load_image_f32(side)
        assert (back.width, back.height) == (w, h)
        assert np.array_equal(back.pixels, img.pixels)
        raw = side.read_bytes()
        save_image(back, tmp_path / "img.ppm")
        assert side.read_bytes() == raw

    @FUZZ
    @given(members=st.integers(1, 3), dims=st.tuples(*[st.integers(1, 3)] * 3),
           seed=st.integers(0, 2**32 - 1))
    def test_ensemble_round_trip(self, tmp_path, members, dims, seed):
        rng = np.random.default_rng(seed)
        spacing, origin = tuple(rng.uniform(0.1, 3.0, 3)), tuple(rng.normal(size=3))
        nvox = dims[0] * dims[1] * dims[2]
        ens = EnsembleVolume(tuple(ScalarGrid(dims, spacing, origin, rng.normal(size=nvox))
                                   for _ in range(members)))
        save_ensemble(ens, tmp_path / "ens")
        back = load_ensemble(tmp_path / "ens")
        assert back.member_count == members
        assert (back.dims, back.spacing, back.origin) == (dims, spacing, origin)
        assert np.array_equal(back.stacked(), _f32(ens.stacked()))


def test_derivative_matrices_is_public():
    d = derivative_matrices((1.0, 2.0, 4.0))
    assert d.shape == (3, 8, 32)
    np.testing.assert_allclose(d.sum(axis=2), 0.0, atol=1e-15)
    np.testing.assert_allclose(np.abs(d).sum(axis=2), [[1.0] * 8, [0.5] * 8, [0.25] * 8])


class TestScalarClassifyRaisesVolumeError:
    """Bad inputs to the scalar classify entry points surface as VolumeError."""

    @pytest.mark.parametrize("n", [0, -2, 2.5])
    def test_expected_color_2d_sample_count(self, n):
        st = two_voxel_stencil([0.5, 0.5], [1.0, -1.0])
        with pytest.raises(VolumeError):
            expected_color_2d([(0.4, 0.2), (0.6, 0.1)], st, checker_tf2d(), n=n, seed=0)

    @pytest.mark.parametrize("models, w, u", [
        ([(np.nan, 0.2), (0.6, 0.1)], [0.5, 0.5], [1.0, -1.0]),
        ([(0.4, np.inf), (0.6, 0.1)], [0.5, 0.5], [1.0, -1.0]),
        ([(0.4, 0.2), (0.6, 0.1)], [np.nan, 0.5], [1.0, -1.0]),
        ([(0.4, 0.2), (0.6, 0.1)], [0.5, 0.5], [1.0, np.inf]),
        ([(0.4, 0.2)], [0.5, 0.5], [1.0, -1.0]),
    ])
    def test_expected_color_2d_models(self, models, w, u):
        with pytest.raises(VolumeError):
            expected_color_2d(models, two_voxel_stencil(w, u), checker_tf2d(), n=16, seed=0)

    @pytest.mark.parametrize("model", [
        (np.nan, 0.1), (0.5, np.inf), (0.5, np.nan), (0.5, -0.1), np.nan, np.inf,
    ])
    def test_expected_color_parametric(self, model):
        with pytest.raises(VolumeError):
            expected_color_parametric(model, ramp_tf())

    @pytest.mark.parametrize("x, pdf", [
        (np.linspace(0, 1, 5), [1.0, np.nan, 1.0, 1.0, 1.0]),
        (np.linspace(0, 1, 5), [1.0, np.inf, 1.0, 1.0, 1.0]),
        ([0.0, np.nan, 0.5, 0.75, 1.0], np.ones(5)),
    ])
    def test_numeric_density_rejects_non_finite(self, x, pdf):
        with pytest.raises(VolumeError):
            NumericDensity(x, pdf)

    def test_numeric_density_without_mass(self):
        with pytest.raises(VolumeError):
            expected_color_parametric(NumericDensity(np.linspace(0, 1, 5), np.zeros(5)),
                                      ramp_tf())

    def test_numeric_density_on_a_lattice_that_turns_back(self):
        with pytest.raises(VolumeError, match="increasing"):
            expected_color_parametric(NumericDensity([0.0, 0.5, 0.25, 0.75, 1.0], np.ones(5)),
                                      ramp_tf())

    def test_numeric_density_samples_its_own_lattice(self):
        # The TF is read at the stored points, also on a non-uniform lattice.
        tf = TransferFunction1D(np.array([[0.0, 0, 0, 0, 0], [0.5, 1, 0, 0, 1],
                                          [1.0, 0, 1, 0, 1]]))
        x = np.array([0.0, 0.1, 0.5, 0.9])
        pdf = np.array([0.0, 1.0, 3.0, 0.0])
        want = (pdf / pdf.sum()) @ tf.sample(x)
        np.testing.assert_allclose(expected_color_parametric(NumericDensity(x, pdf), tf), want,
                                   rtol=0, atol=1e-15)


def test_gmm_model_lives_in_volcore_and_classify_skips_density():
    import ast
    import inspect

    import uqdvr
    from uqdvr import density, interp, render, volcore

    assert uqdvr.GmmModel is density.GmmModel is volcore.GmmModel is GmmModel
    for module in (interp, classify, render):  # the layers after the fit
        tree = ast.parse(inspect.getsource(module))
        imported = {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}
        imported |= {a.name for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))
                     for a in n.names}
        assert not {"density", "uqdvr.density"} & imported, module.__name__

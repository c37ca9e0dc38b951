import numpy as np
import pytest

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
    gradient_stencil,
    load_tf1d,
    load_tf2d,
    quantile_range_batch,
    save_tf1d,
    save_tf2d,
    sobol_points,
)
from uqdvr.density import GmmModel
from uqdvr.interp import NumericDensity, TrilinearCoords, trilinear_coords
from uqdvr.volcore import QuantilePdf, ScalarGrid, VolumeError


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
        grid = self.make_linear_grid(0.3, -0.7, 1.1)
        rng = np.random.default_rng(2)
        for _ in range(20):
            coords = trilinear_coords(grid.dims, grid.spacing, grid.origin,
                                      rng.uniform(1.5, 5.5, 3))
            st = gradient_stencil(grid.dims, grid.spacing, coords, grid)
            np.testing.assert_allclose(st.mean_gradient, [0.3, -0.7, 1.1], atol=1e-12)
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

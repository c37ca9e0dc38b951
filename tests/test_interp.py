import numpy as np
import pytest
from scipy.special import ndtr

from uqdvr.density import GmmModel, KdeConfig, estimate_quantiles
from uqdvr.interp import (
    TrilinearCoords,
    corner_weights,
    interp_gaussian,
    interp_gmm_ordered,
    interp_uniform,
    ks_distance,
    ks_two_sample,
    mc_oracle_interp,
    quantile_interp_1d,
    quantile_interp_3d,
    quantile_interp_3d_rational,
    sample_gmm_mc,
    trilinear_coords,
    uniform_sum_density_batch,
)
from uqdvr.volcore import QuantilePdf, VolumeError, gaussian_quantiles


def random_pdf(rng, q=4, min_width=1e-3, max_width=2.0):
    incr = rng.uniform(min_width, max_width, q + 1)
    incr[0] = rng.uniform(-1, 1)
    return QuantilePdf(1.0 / q, np.cumsum(incr))


class TestCoords:
    def test_frac_clamped(self):
        c = TrilinearCoords((0, 0, 0), (-0.2, 1.4, 0.5))
        assert c.frac == (0.0, 1.0, 0.5)

    def test_world_lookup(self):
        c = trilinear_coords((4, 4, 4), (2, 2, 2), (1, 1, 1), (2.0, 1.0, 6.9))
        assert c.base == (0, 0, 2)
        np.testing.assert_allclose(c.frac, (0.5, 0.0, 0.95))

    def test_upper_face_uses_last_full_cell(self):
        c = trilinear_coords((4, 4, 4), (1, 1, 1), (0, 0, 0), (3.0, 0.0, 0.0))
        assert c.base == (2, 0, 0)
        assert c.frac[0] == 1.0

    def test_outside_rejected(self):
        with pytest.raises(VolumeError):
            trilinear_coords((4, 4, 4), (1, 1, 1), (0, 0, 0), (3.1, 0, 0))

    def test_corner_weights_partition_unity(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            w = corner_weights(*rng.random(3))
            assert abs(w.sum() - 1.0) < 1e-12
            assert np.all(w >= 0)


class TestQuantileInterp1d:
    def test_endpoint_identity(self):
        rng = np.random.default_rng(1)
        a, b = random_pdf(rng), random_pdf(rng)
        out = quantile_interp_1d(a, b, 0.0)
        assert np.array_equal(out.boundaries, a.boundaries)
        out = quantile_interp_1d(a, b, 1.0)
        assert np.array_equal(out.boundaries, b.boundaries)

    def test_width_blend(self):
        a = QuantilePdf(0.25, [0.0, 2.0, 4.0, 6.0, 8.0])
        b = QuantilePdf(0.25, [0.0, 4.0, 8.0, 12.0, 16.0])
        out = quantile_interp_1d(a, b, 0.5)
        np.testing.assert_allclose(out.widths, 3.0)
        np.testing.assert_allclose(out.densities(), 0.25 / 3.0)

    def test_gaussian_shift_preserves_shape(self):
        qval = 0.001
        a = QuantilePdf(qval, gaussian_quantiles(0.0, 1.0, qval))
        b = QuantilePdf(qval, gaussian_quantiles(10.0, 1.0, qval))
        out = quantile_interp_1d(a, b, 0.3)
        expect = gaussian_quantiles(3.0, 1.0, qval)
        assert np.max(np.abs(out.boundaries[1:-1] - expect[1:-1])) < 0.02

    def test_mismatched_q_rejected(self):
        a = QuantilePdf(0.5, [0.0, 1.0, 2.0])
        b = QuantilePdf(0.25, [0.0, 1.0, 2.0, 3.0, 4.0])
        with pytest.raises(VolumeError):
            quantile_interp_1d(a, b, 0.5)


class TestQuantileInterp3d:
    def test_vertex_recovery_all_corners(self):
        rng = np.random.default_rng(2)
        corners = [random_pdf(rng) for _ in range(8)]
        for idx in range(8):
            abg = (idx & 1, (idx >> 1) & 1, (idx >> 2) & 1)
            out = quantile_interp_3d(corners, *(float(v) for v in abg))
            assert np.array_equal(out.boundaries, corners[idx].boundaries)

    def test_constancy(self):
        rng = np.random.default_rng(3)
        c = random_pdf(rng)
        out = quantile_interp_3d([c] * 8, 0.31, 0.62, 0.97)
        np.testing.assert_allclose(out.boundaries, c.boundaries, rtol=1e-12)

    def test_separability_reduces_to_1d(self):
        rng = np.random.default_rng(4)
        a, b = random_pdf(rng), random_pdf(rng)
        others = [random_pdf(rng) for _ in range(6)]
        corners = [a, b] + others
        for alpha in (0.0, 0.25, 0.75, 1.0):
            got = quantile_interp_3d(corners, alpha, 0.0, 0.0)
            want = quantile_interp_1d(a, b, alpha)
            np.testing.assert_allclose(got.boundaries, want.boundaries, rtol=1e-14)

    def test_monotonicity_preserved(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            corners = [random_pdf(rng, q=8, min_width=0.0) for _ in range(8)]
            out = quantile_interp_3d(corners, *rng.random(3))
            assert np.all(np.diff(out.boundaries) >= 0)

    def test_shape_preservation_for_shifted_copies(self):
        rng = np.random.default_rng(6)
        base = random_pdf(rng, q=8)
        shifts = rng.uniform(-3, 3, 8)
        corners = [QuantilePdf(base.qval, base.boundaries + s) for s in shifts]
        out = quantile_interp_3d(corners, 0.2, 0.5, 0.8)
        diffs = out.boundaries - base.boundaries
        assert np.max(diffs) - np.min(diffs) < 1e-9

    def test_variance_floor_per_piece(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            corners = [random_pdf(rng) for _ in range(8)]
            out = quantile_interp_3d(corners, *rng.random(3))
            min_w = np.min([c.widths for c in corners], axis=0)
            assert np.all(out.widths >= min_w - 1e-12)

    def test_rational_form_agrees_with_blend(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            corners = [random_pdf(rng) for _ in range(8)]
            abg = rng.random(3)
            blend = quantile_interp_3d(corners, *abg)
            rational = quantile_interp_3d_rational(corners, *abg)
            np.testing.assert_allclose(rational, blend.densities(), rtol=1e-9)

    def test_blended_cdf_matches_mc_oracle(self):
        rng = np.random.default_rng(9)
        qval, n_est, n_mc = 0.005, 2 * 10**5, 2 * 10**5
        sample_sets, corners = [], []
        for i in range(8):
            mix = np.concatenate([
                rng.normal(rng.uniform(0.2, 0.4), rng.uniform(0.04, 0.08), n_est // 2),
                rng.normal(rng.uniform(0.6, 0.8), rng.uniform(0.04, 0.08), n_est - n_est // 2),
            ])
            sample_sets.append(mix)
            corners.append(estimate_quantiles(mix, qval, KdeConfig(lattice=2048)))
        out = quantile_interp_3d(corners, 0.5, 0.5, 0.5)
        oracle = mc_oracle_interp(sample_sets, corner_weights(0.5, 0.5, 0.5), n_mc, seed=1)
        assert ks_distance(out, oracle) < 0.02


class TestMcOracle:
    def test_constant_corners(self):
        sets = [np.full(10, 2.0)] * 8
        out = mc_oracle_interp(sets, np.full(8, 0.125), 100, seed=0)
        assert np.all(out == 2.0)

    def test_one_hot_recovers_corner(self):
        rng = np.random.default_rng(10)
        sets = [rng.normal(i, 0.5, 10**4) for i in range(8)]
        w = np.zeros(8)
        w[3] = 1.0
        for coupling in ("ordered", "independent"):
            out = mc_oracle_interp(sets, w, 10**6, seed=1, coupling=coupling)
            assert ks_two_sample(out, sets[3]) < 0.01

    def test_seed_determinism(self):
        rng = np.random.default_rng(11)
        sets = [rng.normal(0, 1, 100) for _ in range(8)]
        w = corner_weights(0.3, 0.6, 0.9)
        a = mc_oracle_interp(sets, w, 5000, seed=42)
        b = mc_oracle_interp(sets, w, 5000, seed=42)
        assert np.array_equal(a, b)

    def test_empty_corner_rejected(self):
        with pytest.raises(VolumeError):
            mc_oracle_interp([np.array([])] * 8, np.full(8, 0.125), 10, seed=0)


class TestInterpGaussian:
    def test_zero_sigma(self):
        w = corner_weights(0.2, 0.4, 0.6)
        mus = np.arange(8.0)
        mu, sg = interp_gaussian(mus, np.zeros(8), w)
        assert sg == 0.0
        assert abs(mu - w @ mus) < 1e-12

    def test_one_hot(self):
        w = np.zeros(8)
        w[5] = 1.0
        mu, sg = interp_gaussian(np.arange(8.0), np.arange(1.0, 9.0), w)
        assert (mu, sg) == (5.0, 6.0)

    def test_equal_weights_unit_sigma(self):
        mu, sg = interp_gaussian(np.zeros(8), np.ones(8), np.full(8, 0.125))
        assert abs(sg - 1.0 / np.sqrt(8)) < 1e-12


class TestInterpUniform:
    def test_all_zero_widths_is_delta(self):
        w = corner_weights(0.3, 0.5, 0.7)
        centers = np.linspace(0, 1, 8)
        dens = interp_uniform(centers, np.zeros(8), w)
        nz = np.nonzero(dens.pdf)[0]
        assert nz.size == 1
        assert abs(dens.x[nz[0]] - w @ centers) < 1e-12

    def test_two_factor_triangle(self):
        dens = interp_uniform([0.5, 0.5], [1.0, 1.0], [0.5, 0.5])
        xs, pdf = dens.x, dens.pdf
        inside = (xs > 0.02) & (xs < 0.98)
        expect = np.where(xs < 0.5, 4 * xs, 4 * (1 - xs))
        assert np.max(np.abs(pdf[inside] - expect[inside])) < 0.05
        assert abs(np.trapezoid(pdf, xs) - 1.0) < 1e-5

    def test_eight_factor_sum_matches_independent_mc(self):
        rng = np.random.default_rng(12)
        w = np.full(8, 0.125)
        dens = interp_uniform(np.full(8, 0.5), np.ones(8), w)
        sets = [rng.random(10**5) for _ in range(8)]
        oracle = mc_oracle_interp(sets, w, 10**5, seed=3, coupling="independent")
        cdf = dens.cdf()
        at = np.interp(oracle, dens.x, cdf)
        emp = np.arange(1, oracle.size + 1) / oracle.size
        assert np.max(np.abs(at - emp)) < 0.02

    def test_trilinear_mixed_widths_match_independent_mc(self):
        rng = np.random.default_rng(13)
        w = corner_weights(0.2, 0.65, 0.4)
        centers = rng.uniform(0.0, 1.0, 8)
        widths = rng.uniform(0.05, 0.6, 8)
        widths[[1, 6]] = 0.0
        dens = interp_uniform(centers, widths, w)
        sets = [c + d * (rng.random(10**5) - 0.5) for c, d in zip(centers, widths)]
        oracle = mc_oracle_interp(sets, w, 10**5, seed=4, coupling="independent")
        at = np.interp(oracle, dens.x, dens.cdf())
        emp = np.arange(1, oracle.size + 1) / oracle.size
        assert np.max(np.abs(at - emp)) < 0.01


def rasterized_uniform_sum_density(centers, widths, weights, npoints):
    """Rasterize each factor's box onto the lattice cells, then multiply the
    factors' rFFTs: the reference for the analytic box spectra.  Overlaps are
    taken in cell units, so interior cells are exactly one cell wide; in length
    units (lo + du) - lo rounds by about eps * m, which reaches 1e-12 relative
    at the largest lattices."""
    c, d, w = (np.atleast_2d(np.asarray(a, dtype=np.float64)) for a in (centers, widths, weights))
    v, k = c.shape
    s = np.abs(w) * d
    total = s.sum(axis=1)
    origins = (w * c).sum(axis=1) - 0.5 * total
    f_len = 1 << int(np.ceil(np.log2(npoints + 2 * k + 4)))
    du = np.where(total > 0, total, 1.0) / (npoints - 1)
    spec = np.ones((v, f_len // 2 + 1), dtype=np.complex128)
    cell = np.arange(f_len)
    for i in range(k):
        si = s[:, i][:, None]
        cells = si / du[:, None]  # box width in cells
        overlap = np.clip(np.minimum(cell + 0.5, cells) - np.maximum(cell - 0.5, 0.0), 0.0, None)
        fac = np.where(si > 0, overlap / np.where(si > 0, si, 1.0), 0.0)
        point = s[:, i] <= 0
        fac[point, 0] = 1.0 / du[point]
        fac[point, 1:] = 0.0
        spec *= np.fft.rfft(fac, axis=1)
    pdf = np.clip(np.fft.irfft(spec, n=f_len, axis=1) * du[:, None] ** (k - 1), 0.0, None)
    degen = total <= 0
    pdf[degen] = 0.0
    pdf[degen, 0] = 1.0 / du[degen]
    return origins, pdf, du


class TestUniformSumSpectra:
    @pytest.mark.parametrize("npoints", [2, 17, 64, 512])
    def test_matches_rasterized_rfft(self, npoints):
        rng = np.random.default_rng(npoints)
        v = 400
        centers = rng.uniform(-1, 1, (v, 8))
        widths = rng.uniform(0, 0.5, (v, 8))
        weights = rng.dirichlet(np.ones(8), v)
        weights[::6] *= rng.choice([-1.0, 1.0], (weights[::6].shape))
        widths[::3, 2] = 0.0  # point-mass factors
        widths[1::5, :4] = 1e-9  # boxes narrower than half a cell: m = 0
        widths[2::11] = 0.0  # all-degenerate rows
        widths[3::13, 0] = 50.0  # one factor spans the lattice: m near npoints
        got = uniform_sum_density_batch(centers, widths, weights, npoints)
        want = rasterized_uniform_sum_density(centers, widths, weights, npoints)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[2], want[2])
        scale = want[1].max(axis=1, keepdims=True)
        assert np.max(np.abs(got[1] - want[1]) / scale) < 1e-12

    def test_cell_boundary_widths(self):
        # Widths at exact half-cell multiples sit on the m = ceil(s/du - 1/2) edges.
        du = 0.1
        halves = np.arange(0, 12) * 0.5 * du
        for h in halves:
            widths = np.array([[h, 2.0 - h]])
            got = uniform_sum_density_batch([[0.0, 0.0]], widths, [[1.0, 1.0]], 21)
            want = rasterized_uniform_sum_density([[0.0, 0.0]], widths, [[1.0, 1.0]], 21)
            assert np.max(np.abs(got[1] - want[1])) / want[1].max() < 1e-12

    @pytest.mark.parametrize("lattice", [4096, 65536])
    def test_interp_uniform_large_lattice(self, lattice):
        # One row on a long lattice, up to the largest KdeConfig allows: the
        # spectra are built for the row's own m values, so memory stays O(F).
        rng = np.random.default_rng(lattice)
        centers = rng.uniform(0.0, 1.0, 8)
        widths = rng.uniform(0.0, 0.6, 8)
        widths[[1, 5]] = [0.0, 1e-9]  # a point mass and an m = 0 box
        w = corner_weights(0.3, 0.6, 0.2)
        dens = interp_uniform(centers, widths, w, KdeConfig(lattice=lattice))
        origins, want, du = rasterized_uniform_sum_density(centers[None], widths[None],
                                                           w[None], lattice)
        np.testing.assert_array_equal(dens.x, origins[0] + np.arange(want.shape[1]) * du[0])
        assert np.max(np.abs(dens.pdf - want[0])) / want.max() < 1e-12


class TestGmmOrdered:
    def test_identical_corners(self):
        g = GmmModel([0.4, 0.6], [0.0, 2.0], [0.5, 0.25])
        out = interp_gmm_ordered([g] * 8, np.full(8, 0.125))
        np.testing.assert_allclose(out.weights, g.weights, atol=1e-12)
        np.testing.assert_allclose(out.means, g.means, atol=1e-12)
        # Variances blend quadratically: sum of (1/8)^2 over 8 corners is 1/8.
        np.testing.assert_allclose(out.sigmas, g.sigmas / np.sqrt(8), atol=1e-12)

    def test_k1_reduces_to_interp_gaussian(self):
        rng = np.random.default_rng(13)
        mus, sgs = rng.normal(size=8), rng.random(8)
        w = corner_weights(0.1, 0.8, 0.4)
        corners = [GmmModel([1.0], [m], [s]) for m, s in zip(mus, sgs)]
        out = interp_gmm_ordered(corners, w)
        mu, sg = interp_gaussian(mus, sgs, w)
        assert abs(out.means[0] - mu) < 1e-12
        assert abs(out.sigmas[0] - sg) < 1e-12

    def test_component_order_invariance(self):
        rng = np.random.default_rng(14)
        w = corner_weights(0.3, 0.3, 0.3)
        straight, shuffled = [], []
        for _ in range(8):
            wts = rng.dirichlet(np.ones(2))
            mus = np.sort(rng.normal(size=2))
            sgs = rng.random(2)
            straight.append(GmmModel(wts, mus, sgs))
            shuffled.append(GmmModel(wts[::-1], mus[::-1], sgs[::-1]))
        a = interp_gmm_ordered(straight, w)
        b = interp_gmm_ordered(shuffled, w)
        np.testing.assert_allclose(a.means, b.means, atol=1e-12)
        np.testing.assert_allclose(a.weights, b.weights, atol=1e-12)

    def test_mismatched_k_rejected(self):
        g1 = GmmModel([1.0], [0.0], [1.0])
        g2 = GmmModel([0.5, 0.5], [0.0, 1.0], [1.0, 1.0])
        with pytest.raises(VolumeError):
            interp_gmm_ordered([g1] * 7 + [g2], np.full(8, 0.125))


class TestSampleGmmMc:
    def test_deterministic_point_masses(self):
        w = corner_weights(0.5, 0.5, 0.5)
        corners = [GmmModel([1.0], [float(i)], [0.0]) for i in range(8)]
        out = sample_gmm_mc(corners, w, 1000, seed=0)
        assert np.allclose(out, w @ np.arange(8.0))

    def test_matches_interp_gaussian_for_k1(self):
        rng = np.random.default_rng(15)
        mus, sgs = rng.normal(size=8), rng.uniform(0.2, 1.0, 8)
        w = corner_weights(0.4, 0.7, 0.2)
        corners = [GmmModel([1.0], [m], [s]) for m, s in zip(mus, sgs)]
        out = sample_gmm_mc(corners, w, 10**5, seed=5)
        mu, sg = interp_gaussian(mus, sgs, w)
        emp = np.arange(1, out.size + 1) / out.size
        gauss = ndtr((out - mu) / sg)
        assert np.max(np.abs(gauss - emp)) < 0.01

    def test_seed_determinism(self):
        corners = [GmmModel([0.5, 0.5], [0.0, 1.0], [0.1, 0.2])] * 8
        w = np.full(8, 0.125)
        a = sample_gmm_mc(corners, w, 2000, seed=9)
        b = sample_gmm_mc(corners, w, 2000, seed=9)
        assert np.array_equal(a, b)

import numpy as np
import pytest
from scipy.special import ndtr

from uqdvr import presets, render
from uqdvr.classify import TransferFunction1D, lattice_color_batch
from uqdvr.density import GmmModel, KdeConfig, build_distribution_volume, estimate_quantiles
from uqdvr.interp import (
    NumericDensity,
    TrilinearCoords,
    corner_weights,
    interp_gaussian,
    interp_gmm_ordered,
    interp_uniform,
    locate,
    quantile_interp_1d,
    quantile_interp_3d,
    sample_gmm_mc,
    trilinear_coords,
    uniform_lattice_len,
    uniform_sum_density_batch,
)
from uqdvr.synth import NoiseSpec, make_ensemble, sample_field
from uqdvr.volcore import QuantilePdf, VolumeError, gaussian_quantiles

from oracles import (blend_gathered, exact_uniform_color, gmm_sum_cdf, ks_distance,
                     ks_two_sample, lattice_color_einsum, mc_oracle_interp,
                     quantile_interp_3d_rational)


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

    def test_weights_summing_to_zero(self):
        """A difference of Gaussians: the one-component mixture weight that it
        leaves undefined is not used."""
        assert interp_gaussian([1.0, 2.0], [0.5, 0.5], [1.0, -1.0]) == (-1.0, np.sqrt(0.5))


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

    @pytest.mark.parametrize("npoints", [64, 512, 4096])
    def test_npoints_sets_the_lattice_of_the_batch_kernel(self, npoints):
        rng = np.random.default_rng(npoints)
        centers, widths = rng.uniform(0.0, 1.0, 8), rng.uniform(0.0, 0.6, 8)
        w = corner_weights(0.3, 0.6, 0.2)
        dens = interp_uniform(centers, widths, w, npoints=npoints)
        origins, mass, du = uniform_sum_density_batch(centers[None], widths[None], w[None],
                                                      npoints)
        assert dens.x.tobytes() == (origins[0] + np.arange(mass.shape[1]) * du[0]).tobytes()
        assert dens.pdf.tobytes() == (mass[0] / du[0]).tobytes()

    def test_cdf_integrates_each_cell_over_its_own_width(self):
        dens = NumericDensity([0.0, 0.1, 0.5, 1.0], np.ones(4))
        np.testing.assert_allclose(dens.cdf(), [0.0, 0.1, 0.5, 1.0], rtol=0, atol=1e-15)


def rasterized_uniform_sum_density(centers, widths, weights, npoints):
    """Rasterize each factor's box [-s/2, s/2] as the masses of its overlaps
    with the cells [j - 1/2, j + 1/2], j = -F/2 .. F/2 - 1 at index j mod F,
    the widest box about the cell boundary 1/2 and the others about cell 0,
    multiply the factors' rFFTs, invert and roll the mass by F/2 - 1 cells:
    the reference for the analytic box spectra.  Rows of zero width are a
    unit mass in cell F/2.  Overlaps are taken in cell units, so interior
    cells are exactly one cell wide; in length units (lo + du) - lo rounds by
    about eps * m, which reaches 1e-12 relative at the largest lattices."""
    c, d, w = (np.atleast_2d(np.asarray(a, dtype=np.float64)) for a in (centers, widths, weights))
    v, k = c.shape
    s = np.abs(w) * d
    total = s.sum(axis=1)
    f_len = 1 << int(np.ceil(np.log2(npoints + k + 1)))
    point = total == 0
    du = np.where(point, 1.0, total) / (npoints - 1)
    du[~point] = [np.nextafter(u, np.inf) if u * (npoints - 1) < t else u
                  for u, t in zip(du[~point], total[~point])]
    origins = (w * c).sum(axis=1) - np.where(point, f_len // 2, (f_len - 1) / 2) * du
    spec = np.ones((v, f_len // 2 + 1), dtype=np.complex128)
    cell = np.fft.fftfreq(f_len, 1.0 / f_len)  # 0, 1, ..., F/2 - 1, -F/2, ..., -1
    wide = np.argmax(s, axis=1)
    for i in range(k):
        half = (0.5 * (s[:, i] / du))[:, None]  # box half-width in cells
        off = cell - 0.5 * (wide == i)[:, None]  # cell centres from the box's centre
        overlap = np.clip(np.minimum(off + 0.5, half) - np.maximum(off - 0.5, -half), 0.0, None)
        fac = overlap / np.where(half > 0, 2.0 * half, 1.0)
        fac[s[:, i] <= 0] = cell == 0  # only rows of zero width have a zero-width widest box
        spec *= np.fft.rfft(fac, axis=1)
    mass = np.roll(np.fft.irfft(spec, n=f_len, axis=1), f_len // 2 - 1, axis=1)
    mass[point] = np.arange(f_len) == f_len // 2
    return origins, np.clip(mass, 0.0, None), du


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
        widths[1::5, :4] = 1e-9  # boxes narrower than a cell: unit masses
        widths[2::11] = 0.0  # all-degenerate rows
        widths[3::13, 0] = 50.0  # one factor spans the lattice: n near npoints/2
        got = uniform_sum_density_batch(centers, widths, weights, npoints)
        want = rasterized_uniform_sum_density(centers, widths, weights, npoints)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[2], want[2])
        scale = want[1].max(axis=1, keepdims=True)
        assert np.max(np.abs(got[1] - want[1]) / scale) < 1e-12

    def test_cell_boundary_widths(self):
        # Widths at exact half-cell multiples: those of an odd number of cells
        # sit on the n = floor(s/(2 du) - 1/2) edges, where the edge cells
        # hold nothing.
        du = 0.1
        halves = np.arange(0, 12) * 0.5 * du
        for h in halves:
            widths = np.array([[h, 2.0 - h]])
            got = uniform_sum_density_batch([[0.0, 0.0]], widths, [[1.0, 1.0]], 21)
            want = rasterized_uniform_sum_density([[0.0, 0.0]], widths, [[1.0, 1.0]], 21)
            assert np.max(np.abs(got[1] - want[1])) / want[1].max() < 1e-12

    @pytest.mark.parametrize("k, widths", [
        (1, [61.0]), (2, [30.5, 29.5]), (8, [46.125] + [1.125] * 7)])
    def test_a_full_lattice_leaves_its_end_cells_empty(self, k, widths):
        # npoints = F - k - 1 is the most a 64-cell lattice takes.  With unit
        # weights du = 1, so the widths are in cells: row 0 puts its edges
        # where the mass reaches furthest, F/2 - 3/2 cells from the centre,
        # rows 1 and 2 have their first or last factor spanning the lattice,
        # row 3 has subnormal widths of 10 ulps, whose du must round up (at
        # k = 8, 80/54 ulps rounded to 1 ulp would put 40 cells of
        # half-widths on either side and wrap), and rows 4.. are random.
        # Cells 0 and F - 1 stay empty.
        f_len = 64
        npoints = f_len - k - 1
        assert uniform_lattice_len(npoints, k) == f_len
        assert uniform_lattice_len(npoints + 1, k) == 2 * f_len
        rng = np.random.default_rng(k)
        ulp = np.nextafter(0.0, 1.0)
        rows = np.vstack([widths, np.eye(1, k), np.eye(1, k, k - 1), np.full((1, k), 10 * ulp),
                          rng.uniform(0.0, 1.0, (30, k))])
        centers = rng.uniform(-1.0, 1.0, rows.shape)
        origins, mass, du = uniform_sum_density_batch(centers, rows, np.ones(rows.shape), npoints)
        np.testing.assert_allclose(mass.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert du[0] == 1.0 and du[3] * (npoints - 1) >= 10 * k * ulp
        assert np.max(mass[:, [0, f_len - 1]]) < 1e-15
        assert mass[0, 1] > 1e-15 and mass[0, f_len - 2] > 1e-15
        want = rasterized_uniform_sum_density(centers, rows, np.ones(rows.shape), npoints)
        assert np.max(np.abs(mass - want[1])) < 1e-12

    @pytest.mark.parametrize("lattice", [4096, 65536])
    def test_interp_uniform_large_lattice(self, lattice):
        # One row on a long lattice, up to MAX_LATTICE: the spectra are built
        # for the row's own n values, so memory stays O(F).
        rng = np.random.default_rng(lattice)
        centers = rng.uniform(0.0, 1.0, 8)
        widths = rng.uniform(0.0, 0.6, 8)
        widths[[1, 5]] = [0.0, 1e-9]  # a point mass and a box narrower than a cell
        w = corner_weights(0.3, 0.6, 0.2)
        dens = interp_uniform(centers, widths, w, npoints=lattice)
        origins, want, du = rasterized_uniform_sum_density(centers[None], widths[None],
                                                           w[None], lattice)
        np.testing.assert_array_equal(dens.x, origins[0] + np.arange(want.shape[1]) * du[0])
        assert np.max(np.abs(dens.pdf * du[0] - want[0])) / want.max() < 1e-12


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
        assert out.means[0] == mu
        assert out.sigmas[0] == sg

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

    @pytest.mark.parametrize("k", [2, 3])
    def test_matches_the_exact_mixture_cdf(self, k):
        rng = np.random.default_rng(20 + k)
        weights = rng.dirichlet(np.ones(k), 8)
        weights[2, 0] = 0.0  # an empty component
        weights[2] /= weights[2].sum()
        weights[5:7] = np.eye(k)[[1, 0]]  # one-hot corners
        means, sigmas = rng.normal(size=(8, k)), rng.uniform(0.2, 1.0, (8, k))
        w = corner_weights(0.4, 0.7, 0.2)
        corners = [GmmModel(*p) for p in zip(weights, means, sigmas)]
        out = sample_gmm_mc(corners, w, 10**5, seed=k)
        cdf = gmm_sum_cdf(weights, means, sigmas, w, out)
        n = out.size
        assert max(np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(n) / n)) < 0.01

    def test_seed_determinism(self):
        corners = [GmmModel([0.5, 0.5], [0.0, 1.0], [0.1, 0.2])] * 8
        w = np.full(8, 0.125)
        a = sample_gmm_mc(corners, w, 2000, seed=9)
        b = sample_gmm_mc(corners, w, 2000, seed=9)
        assert np.array_equal(a, b)


class TestTrilinearCoordsRejectsNonFinite:
    @pytest.mark.parametrize("spacing, origin, point", [
        ((1, 1, 1), (0, 0, 0), (np.nan, 1, 1)),
        ((1, 1, 1), (0, 0, 0), (1, np.inf, 1)),
        ((1, 1, 1), (0, 0, 0), (1, 1, -np.inf)),
        ((1, np.inf, 1), (0, 0, 0), (1, 1, 1)),
        ((1, 1, np.nan), (0, 0, 0), (1, 1, 1)),
        ((0, 1, 1), (0, 0, 0), (1, 1, 1)),
        ((1, -1, 1), (0, 0, 0), (1, -1, 1)),
        ((1, 1, 1), (np.nan, 0, 0), (1, 1, 1)),
        ((1, 1, 1), (0, -np.inf, 0), (1, 1, 1)),
    ])
    def test_rejected(self, spacing, origin, point):
        with pytest.raises(VolumeError):
            trilinear_coords((4, 4, 4), spacing, origin, point)

    @pytest.mark.parametrize("frac", [(np.nan, 0.5, 0.5), (0.5, -0.1, 0.5), (0.5, 0.5, 1.5)])
    def test_corner_weights_reject_fractions_outside_the_cell(self, frac):
        with pytest.raises(VolumeError):
            corner_weights(*frac)


def gmm_corners(n=8, k=2):
    return [GmmModel(np.full(k, 1.0 / k), np.arange(k) + 0.1 * i, np.full(k, 0.2))
            for i in range(n)]


W8 = np.full(8, 0.125)
WITH_NAN = np.where(np.arange(8) == 3, np.nan, 1.0)


class TestScalarWrappersRaiseVolumeError:
    """Every bad input of the scalar interp wrappers surfaces as VolumeError."""

    @pytest.mark.parametrize("call", [
        # 7 weights for 8 corners
        lambda: interp_gaussian(np.zeros(8), np.ones(8), np.full(7, 1 / 7)),
        lambda: interp_uniform(np.zeros(8), np.ones(8), np.full(7, 1 / 7)),
        lambda: interp_gmm_ordered(gmm_corners(), np.full(7, 1 / 7)),
        lambda: sample_gmm_mc(gmm_corners(), np.full(7, 1 / 7), 10, seed=0),
        lambda: interp_gmm_ordered(gmm_corners(7), W8),
        # non-finite centers, means and weights
        lambda: interp_gaussian(WITH_NAN, np.ones(8), W8),
        lambda: interp_gaussian(np.zeros(8), np.ones(8), WITH_NAN),
        lambda: interp_uniform(WITH_NAN, np.ones(8), W8),
        lambda: interp_uniform(np.zeros(8), np.ones(8) * np.inf, W8),
        lambda: interp_gmm_ordered(gmm_corners(), WITH_NAN),
        # negative widths and sigmas
        lambda: interp_gaussian(np.zeros(8), -np.ones(8), W8),
        lambda: interp_uniform(np.zeros(8), -np.ones(8), W8),
        # empty corner sets
        lambda: interp_gaussian([], [], []),
        lambda: interp_uniform([], [], []),
        # sample counts that are not integers >= 1
        lambda: sample_gmm_mc(gmm_corners(), W8, 2.5, seed=0),
        lambda: sample_gmm_mc(gmm_corners(), W8, 0, seed=0),
        lambda: mc_oracle_interp([np.arange(3.0)] * 8, W8, 2.5, seed=0),
        lambda: mc_oracle_interp([np.arange(3.0)] * 8, W8, 0, seed=0),
        lambda: mc_oracle_interp([np.array([0.0, np.nan])] * 8, W8, 10, seed=0),
        # empty or non-finite sample lists
        lambda: ks_distance(QuantilePdf(0.5, [0.0, 1.0, 2.0]), []),
        lambda: ks_distance(QuantilePdf(0.5, [0.0, 1.0, 2.0]), [0.5, np.nan]),
        lambda: ks_two_sample([], [1.0, 2.0]),
        lambda: ks_two_sample([1.0, 2.0], []),
        lambda: ks_two_sample([1.0, np.inf], [1.0, 2.0]),
        # quantile corners
        lambda: quantile_interp_3d([QuantilePdf(0.5, [0.0, 1.0, 2.0])] * 7, 0.5, 0.5, 0.5),
        lambda: quantile_interp_3d([QuantilePdf(0.5, [0.0, 1.0, 2.0])] * 8, np.nan, 0.5, 0.5),
        lambda: quantile_interp_1d(QuantilePdf(0.5, [0.0, 1.0, 2.0]),
                                   QuantilePdf(0.5, [0.0, 1.0, 2.0]), 1.5),
    ])
    def test_rejected(self, call):
        with pytest.raises(VolumeError):
            call()


class TestBlend:
    """blend adds the 8 corners of a per-voxel table in order, for one value,
    q + 1 boundaries or k components per voxel."""

    @pytest.mark.parametrize("rows", [1, 2, 7, 4096])
    @pytest.mark.parametrize("tail", [(), (1,), (2,), (3,), (9,), (33,)],
                             ids=["one", "1", "2", "3", "9", "33"])
    def test_matches_the_gathered_contraction(self, tail, rows):
        from uqdvr.interp import blend, locate

        rng = np.random.default_rng([rows, *tail])
        dims = (9, 8, 7)
        values = rng.normal(size=(504,) + tail) * 10.0 ** rng.integers(-6, 7, (504,) + tail)
        pos = rng.random((rows, 3)) * (np.asarray(dims) - 1)
        cells = locate(dims, (1, 1, 1), (0, 0, 0), pos)
        got = blend(values, cells.idx8, cells.w8)
        assert got.shape == (rows,) + tail
        assert np.array_equal(got, blend_gathered(values, cells.idx8, cells.w8))
        for i in range(rows):  # a row's blend does not depend on the rows beside it
            assert np.array_equal(blend(values, cells.idx8[i:i + 1], cells.w8[i:i + 1])[0],
                                  got[i])


class TestScalarWrappersShareTheBatchKernels:
    def test_one_row_of_the_batch_kernels(self):
        from uqdvr.interp import blend, blend_gmm_ordered, locate, variance_table
        from uqdvr.volcore import sort_components

        rng = np.random.default_rng(21)
        dims, spacing, origin = (5, 4, 6), (0.5, 1.5, 0.75), (-1.0, 2.0, 0.3)
        pos = np.asarray(origin) + rng.random((30, 3)) * (np.asarray(dims) - 1) * spacing
        cells = locate(dims, spacing, origin, pos)
        idx8 = np.tile(np.arange(8), (30, 1))
        corners = [random_pdf(rng) for _ in range(8)]
        bounds = np.stack([c.boundaries for c in corners])
        blended = blend(bounds, idx8, cells.w8)
        mus, sgs = rng.normal(size=8), rng.random(8)
        _, mu, sg = blend_gmm_ordered(np.stack((np.ones(8), mus), axis=1)[:, :, None],
                                      variance_table(sgs[:, None]), idx8, cells.w8)
        mu, sg = mu[:, 0], sg[:, 0]
        gmms = [GmmModel(rng.dirichlet(np.ones(3)), rng.normal(size=3), rng.random(3))
                for _ in range(8)]
        ws, gmus, gsgs = sort_components(*(np.stack([getattr(g, a) for g in gmms])
                                           for a in ("weights", "means", "sigmas")))
        mix = blend_gmm_ordered(np.stack((ws, gmus), axis=1), variance_table(gsgs), idx8, cells.w8)
        # The stacked table blends each of its two layers as a lone table would.
        assert mix[0].tobytes() == (blend(ws, idx8, cells.w8)
                                    / blend(ws, idx8, cells.w8).sum(axis=1, keepdims=True)).tobytes()
        assert mix[1].tobytes() == blend(gmus, idx8, cells.w8).tobytes()
        for i, p in enumerate(pos):
            c = trilinear_coords(dims, spacing, origin, p)
            assert c.base == tuple(cells.base[i])
            assert np.array_equal(corner_weights(*c.frac), cells.w8[i])
            assert np.array_equal(quantile_interp_3d(corners, *c.frac).boundaries, blended[i])
            assert interp_gaussian(mus, sgs, cells.w8[i]) == (mu[i], sg[i])
            out = interp_gmm_ordered(gmms, cells.w8[i])
            for got, want in zip((out.weights, out.means, out.sigmas), mix):
                assert np.array_equal(got, want[i])


class TestUniformSumNarrowRows:
    """Each factor's spectrum is in per-cell mass units, of modulus at most 1,
    so the product of any number of them stays finite however narrow the row:
    only rows whose lattice step underflows to 0 are point masses."""

    @pytest.mark.parametrize("tiny", [5e-324, 1e-310, 3.5e-283, 1e-40])
    def test_point_mass_rows_stay_finite(self, tiny):
        # Row 0 is a point mass at 5e-324 only, where its width underflows to 0.
        centers = np.full((3, 8), 0.3)
        widths = np.zeros((3, 8))
        widths[0, 3] = tiny
        widths[1] = 0.2
        widths[2, 5] = tiny  # a subnormal factor beside normal ones
        widths[2, :4] = 0.1
        weights = np.full((3, 8), 0.125)
        origins, mass, du = uniform_sum_density_batch(centers, widths, weights, 64)
        assert np.all(np.isfinite(mass)) and np.all(mass >= 0) and np.all(du > 0)
        np.testing.assert_allclose(mass.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        want = uniform_sum_density_batch(centers[1:], np.where(widths[1:] == tiny, 0.0,
                                                               widths[1:]), weights[1:], 64)
        np.testing.assert_allclose(mass[1:], want[1], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("k, npoints", [(2, 2), (2, 64), (3, 8), (8, 64), (8, 1024),
                                            (50, 64)])
    def test_threshold_rows(self, k, npoints):
        # Rows just below and just above the bound (npoints - 1) (F/DBL_MAX)^(1/k)
        # on their total width, where pdf-unit spectra would overflow, keep
        # their shape: finite unit masses that match the rasterized reference.
        f_len = uniform_lattice_len(npoints, k)
        edge = (npoints - 1) * (f_len / np.finfo(np.float64).max) ** (1.0 / k)
        centers = np.linspace(0.2, 0.7, 2 * k).reshape(2, k)
        weights = np.full((2, k), 1.0 / k)
        widths = np.zeros((2, k))
        widths[0, 0] = 0.999 * edge * k
        widths[1, :] = 1.001 * edge * k
        origins, mass, du = uniform_sum_density_batch(centers, widths, weights, npoints)
        want = rasterized_uniform_sum_density(centers, widths, weights, npoints)
        assert np.all(np.isfinite(mass)) and np.all(du > 0)
        np.testing.assert_allclose(mass.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(origins, want[0])
        assert np.max(np.abs(mass - want[1])) < 1e-12
        assert origins[0] == (weights[0] * centers[0]).sum() - (f_len - 1) / 2 * du[0]

    @pytest.mark.parametrize("step", [7.8e-7, 1e-20, 1e-300])
    def test_many_factor_rows_keep_their_shape(self, step):
        # 50 factors on a 1,024-cell lattice: in pdf units the spectra overflowed
        # below du = 7.9e-7, where rows had to collapse to a spike at their mean.
        k, npoints = 50, 512
        assert uniform_lattice_len(npoints, k) == 1024
        rng = np.random.default_rng(50)
        centers = rng.uniform(-1.0, 1.0, (4, k))
        weights = rng.dirichlet(np.ones(k), 4)
        widths = rng.uniform(0.5, 1.0, (4, k))
        widths *= (step * (npoints - 1) / (weights * widths).sum(axis=1))[:, None]
        origins, mass, du = uniform_sum_density_batch(centers, widths, weights, npoints)
        want = rasterized_uniform_sum_density(centers, widths, weights, npoints)
        np.testing.assert_allclose(du, step, rtol=1e-12)
        np.testing.assert_array_equal(origins, want[0])
        np.testing.assert_array_equal(du, want[2])
        assert np.max(np.abs(mass - want[1])) / want[1].max() < 1e-12
        assert np.all(np.count_nonzero(mass > 1e-3, axis=1) > 10)  # no spikes

    def test_colors_match_the_einsum_oracle(self):
        # Rows of every width, down to subnormal lattice steps, and rows far
        # above or below the knots: the segment-table expectation agrees with
        # the TF read at every lattice point.
        rng = np.random.default_rng(9)
        v = 700
        centers = rng.uniform(-1.0, 1.0, (v, 8))
        widths = rng.uniform(0.0, 0.5, (v, 8))
        weights = rng.dirichlet(np.ones(8), v)
        widths[::7] *= 1e-300
        widths[1::7] *= 1e-321  # subnormal widths
        widths[2::7] = 0.0
        centers[3::7] *= 1e30
        widths[4::7] *= 1e30
        centers[5::7] *= 3e38
        widths[5::7] *= 1e37
        tf = TransferFunction1D(np.array([[-0.5, 0, 0, 0, 0], [-0.1, 1, 0.2, 0, 0.5],
                                          [0.0, 1, 0.2, 0, 0.5], [0.3, 0, 1, 0.4, 0.9],
                                          [0.9, 0.3, 0.3, 1, 0.1]]))
        origins, mass, du = uniform_sum_density_batch(centers, widths, weights, 64)
        xs = origins[:, None] + np.arange(mass.shape[1])[None, :] * du[:, None]
        np.testing.assert_allclose(lattice_color_batch(origins, mass, du, tf),
                                   lattice_color_einsum(xs, mass, tf), rtol=0, atol=1e-12)


def tangle_uniform_rows(n=150):
    """(centers, widths, w8) of n random positions in the uniform fit of the
    tangle ensemble at 32^3, M = 50, as the renderer gathers them."""
    gt = sample_field("tangle", (32, 32, 32))
    ens = make_ensemble(gt, NoiseSpec(members=50, seed=7, **presets.TANGLE_NOISE))
    vol = build_distribution_volume(ens, "uniform")
    rng = np.random.default_rng(30)
    pos = vol.world_min + rng.random((n, 3)) * (vol.world_max - vol.world_min)
    cells = locate(vol.dims, vol.spacing, vol.origin, pos)
    return (vol.model.center.take(cells.idx8).astype(np.float64),
            vol.model.width.take(cells.idx8).astype(np.float64), cells.w8)


def near_vertex_uniform_rows(n=150):
    """(centers, widths, w8) of n rows whose corner fractions lie within 0.05
    of a cell vertex, with widths from 1e-3 to 10^-0.3 and one zero-width
    factor in every 5th row."""
    rng = np.random.default_rng(31)
    frac = rng.uniform(0.0, 0.05, (n, 3))
    frac = np.where(rng.random((n, 3)) < 0.5, frac, 1.0 - frac)
    w8 = np.array([corner_weights(*f) for f in frac])
    centers = rng.uniform(0.0, 1.0, (n, 8))
    widths = 10.0 ** rng.uniform(-3.0, -0.3, (n, 8))
    widths[::5, 0] = 0.0
    return centers, widths, w8


class TestUniformErrorBudget:
    """The renderer's uniform colors against the exact expectation, on the
    tangle TF.  Each error (max, p99 and rms over every row and channel) is
    at most half of what the lattice kernel that rasterized each box from its
    lower end gave at 64 points on 128 cells, measured on these sets: that
    kernel's mean was biased by up to a quarter cell per factor."""

    BEFORE = {"tangle": (5.57e-3, 3.63e-3, 1.24e-3), "near-vertex": (6.94e-3, 2.97e-3, 7.07e-4)}
    ROWS = {"tangle": tangle_uniform_rows, "near-vertex": near_vertex_uniform_rows}

    @pytest.mark.parametrize("name", list(ROWS))
    def test_errors_are_at_most_half_of_the_old_kernels(self, name):
        tf = presets.tangle_tf()
        centers, widths, w8 = self.ROWS[name]()
        want = np.array([exact_uniform_color(*r, tf) for r in zip(centers, widths, w8)])
        got = lattice_color_batch(*uniform_sum_density_batch(centers, widths, w8,
                                                             render.CONV_LATTICE), tf)
        err = np.abs(got - want)
        errors = (err.max(), np.percentile(err, 99), np.sqrt(np.mean(err ** 2)))
        assert all(e <= 0.5 * b for e, b in zip(errors, self.BEFORE[name])), errors

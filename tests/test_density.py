import numpy as np
import pytest

from uqdvr import density, presets, volcore
from uqdvr.density import (
    KdeConfig,
    brick_ensemble,
    build_distribution_volume,
    downsample_hixel,
    estimate_quantiles,
    fit_gaussian,
    fit_gmm_em,
    fit_mean,
    fit_uniform,
    quantile_volumes_multi,
    silverman_bandwidth,
)
from uqdvr.synth import (NoiseSpec, load_ensemble, make_ensemble as make_noise_ensemble,
                         sample_field, save_ensemble)
from uqdvr.volcore import (EnsembleVolume, QuantileModel, ScalarGrid, VolumeError, map_chunks,
                           voxel_pdf)

from oracles import (exact_kde_cdf, exact_kde_quantiles, field_bytes, kde_cdf, member_order_moments,
                     traced_peak)


def make_ensemble(values_per_member, dims):
    members = [ScalarGrid(dims, (1, 1, 1), (0, 0, 0), v) for v in values_per_member]
    return EnsembleVolume(tuple(members))


class TestEstimateQuantiles:
    def test_constant_samples_collapse(self):
        pdf = estimate_quantiles(np.full(20, 3.5), 0.25)
        assert np.all(pdf.boundaries == 3.5)

    def test_octile_count(self):
        pdf = estimate_quantiles(np.random.default_rng(0).normal(size=100), 0.125)
        assert pdf.q == 8
        assert pdf.boundaries.size == 9

    def test_uniform_law_of_large_numbers(self):
        rng = np.random.default_rng(42)
        s = rng.random(10**6)
        pdf = estimate_quantiles(s, 0.25)
        # Interior boundaries converge to the analytic quantiles; the two
        # outermost sit at the lattice edges, 3 bandwidths past the data.
        np.testing.assert_allclose(pdf.boundaries[1:-1], [0.25, 0.5, 0.75], atol=0.01)
        pad = 3 * silverman_bandwidth(s) + 0.01
        assert abs(pdf.boundaries[0] - 0.0) < pad
        assert abs(pdf.boundaries[-1] - 1.0) < pad

    def test_rejects_bad_inputs(self):
        with pytest.raises(VolumeError):
            estimate_quantiles([1.0], 0.5)
        with pytest.raises(VolumeError):
            estimate_quantiles([1.0, 2.0], 0.3)

    def test_monotone_boundaries_for_any_input(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(2, 200))
            s = rng.normal(rng.uniform(-5, 5), rng.uniform(0.01, 3), n)
            pdf = estimate_quantiles(s, 0.125)
            assert np.all(np.diff(pdf.boundaries) >= 0)

    def test_piecewise_cdf_matches_kde_cdf_at_boundaries(self):
        rng = np.random.default_rng(8)
        s = np.concatenate([rng.normal(0, 1, 400), rng.normal(4, 0.5, 200)])
        cfg = KdeConfig()
        pdf = estimate_quantiles(s, 0.125, cfg)
        _, cdf = kde_cdf(s, cfg)
        masses = np.arange(pdf.q + 1) * pdf.qval
        np.testing.assert_allclose(cdf(pdf.boundaries), masses, atol=1e-9)

    def test_binned_path_agrees_with_exact_path(self):
        rng = np.random.default_rng(10)
        s = rng.normal(1.0, 0.3, 5000)  # just over the binned threshold
        exact = density._batch_quantiles(s[None, :4000], 0.125, KdeConfig())[0]
        binned = estimate_quantiles(s, 0.125).boundaries
        np.testing.assert_allclose(exact[1:-1], binned[1:-1], atol=0.02)

    def test_wasserstein_shrinks_with_sample_count(self):
        rng = np.random.default_rng(12)
        masses = np.arange(9) / 8
        u = np.linspace(0, 1, 2001)

        def w1(pdf):
            est = np.interp(u, masses, pdf.boundaries)
            return np.mean(np.abs(est - u))

        dists = []
        for n in (10**2, 10**4, 10**6):
            pdf = estimate_quantiles(rng.random(n), 0.125)
            dists.append(w1(pdf))
        assert dists[0] > dists[1] > dists[2]


class TestMomentFits:
    def test_constant_data(self):
        assert fit_mean([1, 1, 1]) == 1.0
        assert fit_uniform([1, 1, 1]) == (1.0, 0.0)
        assert fit_gaussian([1, 1, 1]) == (1.0, 0.0)

    def test_two_point_range(self):
        assert fit_uniform([0.0, 1.0]) == (0.5, 1.0)

    def test_gaussian_consistency(self):
        rng = np.random.default_rng(77)
        s = rng.normal(2.0, 0.5, 10**5)
        mu, sg = fit_gaussian(s)
        assert abs(mu - 2.0) < 0.01
        assert abs(sg - 0.5) < 0.01

    def test_empty_rejected(self):
        for f in (fit_mean, fit_uniform, fit_gaussian):
            with pytest.raises(VolumeError):
                f([])


class TestGmmEm:
    def test_k1_matches_fit_gaussian(self):
        rng = np.random.default_rng(3)
        s = rng.normal(size=500)
        g = fit_gmm_em(s, 1)
        mu, sg = fit_gaussian(s)
        assert abs(g.means[0] - mu) < 1e-9
        assert abs(g.sigmas[0] - sg) < 1e-9
        assert g.weights[0] == 1.0

    def test_two_separated_clusters(self):
        rng = np.random.default_rng(4)
        a = rng.normal(0.0, 0.3, 400)
        b = rng.normal(10.0, 0.3, 400)
        s = np.concatenate([a, b])
        g = fit_gmm_em(s, 2).sorted_by_mean()
        np.testing.assert_allclose(g.means, [a.mean(), b.mean()], atol=0.1)
        np.testing.assert_allclose(g.weights, [0.5, 0.5], atol=0.05)

    def test_identical_samples_no_nan(self):
        g = fit_gmm_em(np.full(10, 2.0), 2)
        assert np.all(np.isfinite(g.means))
        assert np.all(np.isfinite(g.sigmas))
        assert np.all(g.sigmas <= 1e-10)

    def test_log_likelihood_nondecreasing(self):
        rng = np.random.default_rng(6)
        s = np.concatenate([rng.normal(-1, 0.5, 300), rng.normal(2, 0.8, 300)])
        trace = []
        fit_gmm_em(s, 3, trace=trace)
        assert len(trace) >= 2
        assert np.all(np.diff(trace) >= -1e-12)

    def test_k_larger_than_sample_count(self):
        with pytest.raises(VolumeError):
            fit_gmm_em([1.0, 2.0], 3)


class TestBuildVolume:
    def test_zero_noise_quantile_volume(self):
        dims = (3, 3, 3)
        gt = np.random.default_rng(1).random(27)
        ens = make_ensemble([gt] * 5, dims)
        vol = build_distribution_volume(ens, "quantile", qval=0.25)
        # The members hold gt rounded to float32.
        np.testing.assert_array_equal(vol.model.boundaries,
                                      np.tile(gt.astype(np.float32)[:, None], (1, 5)))

    def test_m50_octile_volume_round_trips(self, tmp_path):
        rng = np.random.default_rng(2)
        dims = (4, 4, 4)
        members = [rng.normal(0.5, 0.1, 64) for _ in range(50)]
        ens = make_ensemble(members, dims)
        vol = build_distribution_volume(ens, "quantile", qval=0.125)
        assert vol.model.boundaries.shape == (64, 9)
        p = tmp_path / "v.qvol"
        volcore.save_qvol(vol, p)
        back = volcore.load_qvol(p)  # validates all invariants on load
        assert back.model.q == 8

    def test_determinism(self):
        rng = np.random.default_rng(3)
        dims = (3, 2, 2)
        members = [rng.normal(0, 1, 12) for _ in range(20)]
        ens = make_ensemble(members, dims)
        a = build_distribution_volume(ens, "quantile", qval=0.25)
        b = build_distribution_volume(ens, "quantile", qval=0.25)
        assert np.array_equal(a.model.boundaries, b.model.boundaries)
        ga = build_distribution_volume(ens, "gmm", k=2)
        gb = build_distribution_volume(ens, "gmm", k=2)
        assert np.array_equal(ga.model.means, gb.model.means)

    def test_thread_count_does_not_change_results(self):
        rng = np.random.default_rng(13)
        dims = (4, 3, 2)
        members = [rng.normal(0, 1, 24) for _ in range(16)]
        ens = make_ensemble(members, dims)
        a = build_distribution_volume(ens, "quantile", qval=0.25, threads=1)
        b = build_distribution_volume(ens, "quantile", qval=0.25, threads=4)
        assert np.array_equal(a.model.boundaries, b.model.boundaries)

    def test_gmm_thread_count_does_not_change_results(self, monkeypatch):
        monkeypatch.setattr(density, "_CHUNK_VOXELS", 16)
        rng = np.random.default_rng(14)
        members = [rng.normal(0, 1, 96) + (rng.random(96) < 0.3) for _ in range(16)]
        ens = make_ensemble(members, (4, 4, 6))
        a = build_distribution_volume(ens, "gmm", k=2, threads=1)
        b = build_distribution_volume(ens, "gmm", k=2, threads=4)
        for name in ("weights", "means", "sigmas"):
            assert getattr(a.model, name).tobytes() == getattr(b.model, name).tobytes()

    def test_parametric_fits_match_scalar_helpers(self):
        rng = np.random.default_rng(4)
        members = [rng.normal(0, 1, 8) for _ in range(10)]
        ens = make_ensemble(members, (2, 2, 2))
        stacked = ens.stacked()
        g = build_distribution_volume(ens, "gaussian")
        u = build_distribution_volume(ens, "uniform")
        m = build_distribution_volume(ens, "mean")
        for vox in range(8):
            mu, sg = fit_gaussian(stacked[vox])
            assert abs(g.model.mean[vox] - mu) < 1e-12
            assert abs(g.model.sigma[vox] - sg) < 1e-12
            c, w = fit_uniform(stacked[vox])
            assert abs(u.model.center[vox] - c) < 1e-12
            assert abs(u.model.width[vox] - w) < 1e-12
            assert abs(m.model.values[vox] - fit_mean(stacked[vox])) < 1e-12

    def test_multi_qval_matches_single(self):
        rng = np.random.default_rng(5)
        members = [rng.normal(0, 1, 8) for _ in range(25)]
        ens = make_ensemble(members, (2, 2, 2))
        multi = quantile_volumes_multi(ens, [0.5, 0.125])
        single = build_distribution_volume(ens, "quantile", qval=0.125)
        np.testing.assert_allclose(
            multi[0.125].model.boundaries, single.model.boundaries, atol=1e-12
        )

    def test_mean_only_allows_single_member(self):
        ens = make_ensemble([np.zeros(8)], (2, 2, 2))
        build_distribution_volume(ens, "mean")
        with pytest.raises(VolumeError):
            build_distribution_volume(ens, "quantile", qval=0.5)

    def test_multi_qval_needs_two_members(self):
        ens = make_ensemble([np.arange(8.0)], (2, 2, 2))
        with pytest.raises(VolumeError, match="M >= 2"):
            quantile_volumes_multi(ens, [0.5, 0.25])


class TestHixel:
    def test_constant_volume(self):
        hi = ScalarGrid((8, 8, 8), (1, 1, 1), (0, 0, 0), np.full(512, 0.4))
        vol, mean = downsample_hixel(hi, (2, 2, 2), "quantile", qval=0.25)
        assert mean.dims == (4, 4, 4)
        assert np.all(mean.values == 0.4)
        assert np.all(vol.model.boundaries == 0.4)

    def test_hand_computed_empirical_quartiles(self):
        hi = ScalarGrid((4, 1, 1), (1, 1, 1), (0, 0, 0), [0.0, 1.0, 2.0, 3.0])
        vol, mean = downsample_hixel(hi, (4, 1, 1), "samples")
        pdf = voxel_pdf(vol, (0, 0, 0), qval=0.25)
        np.testing.assert_allclose(pdf.boundaries, [0.0, 0.75, 1.5, 2.25, 3.0])
        assert mean.values[0] == 1.5

    def test_brick_sample_gathering_order(self):
        # Values equal to their x index: every 2x2x2 brick collects its own x pair.
        nx, ny, nz = 4, 2, 2
        vals = np.array([x for z in range(nz) for y in range(ny) for x in range(nx)], float)
        hi = ScalarGrid((nx, ny, nz), (1, 1, 1), (0, 0, 0), vals)
        vol, mean = downsample_hixel(hi, (2, 2, 2), "uniform")
        np.testing.assert_allclose(mean.values, [0.5, 2.5])
        np.testing.assert_allclose(vol.model.center, [0.5, 2.5])
        np.testing.assert_allclose(vol.model.width, [1.0, 1.0])

    @pytest.mark.parametrize("kind", ["mean", "gaussian"])
    def test_mean_is_fitted_once(self, monkeypatch, kind):
        hi = ScalarGrid((4, 4, 4), (1, 1, 1), (0, 0, 0), np.arange(64.0))
        want = downsample_hixel(hi, (2, 2, 2), kind)
        build, kinds = density.build_distribution_volume, []

        def counting(ens, fit_kind, **fit):
            kinds.append(fit_kind)
            return build(ens, fit_kind, **fit)

        monkeypatch.setattr(density, "build_distribution_volume", counting)
        vol, mean = downsample_hixel(hi, (2, 2, 2), kind)
        assert kinds == (["mean"] if kind == "mean" else ["mean", kind])
        assert mean.values.tobytes() == want[1].values.tobytes()
        for name in vol.model.FIELDS:
            assert getattr(vol.model, name).tobytes() == getattr(want[0].model, name).tobytes()

    def test_indivisible_dims_rejected(self):
        hi = ScalarGrid((5, 4, 4), (1, 1, 1), (0, 0, 0), np.zeros(80))
        with pytest.raises(VolumeError):
            downsample_hixel(hi, (2, 2, 2), "mean")

    def test_low_res_geometry(self):
        hi = ScalarGrid((8, 8, 8), (0.5, 1.0, 2.0), (1, 2, 3), np.zeros(512))
        vol, mean = downsample_hixel(hi, (4, 4, 4), "mean")
        assert vol.dims == (2, 2, 2)
        assert vol.spacing == (2.0, 4.0, 8.0)
        assert vol.origin == (1 + 0.75, 2 + 1.5, 3 + 3.0)

    @pytest.mark.parametrize("brick", [(0, 4, 4), (-2, 4, 4), (2.5, 4, 4), (4, 4), (4, 4, 4, 4),
                                       (3, 4, 4), (4, 4, 8), ("4", 4, 4), 4])
    def test_bad_brick_sizes_rejected(self, brick):
        hi = ScalarGrid((8, 8, 4), (1, 1, 1), (0, 0, 0), np.zeros(256))
        with pytest.raises(VolumeError):
            brick_ensemble(hi, brick)
        with pytest.raises(VolumeError):
            downsample_hixel(hi, brick, "mean")

    def test_brick_ensemble_members_are_brick_voxels(self):
        # Every voxel holds its own flat index, so member j of brick b must
        # hold the index of voxel j (x fastest) inside brick b.
        dims, brick = (4, 6, 4), (2, 3, 2)
        hi = ScalarGrid(dims, (0.5, 1.0, 2.0), (1, 2, 3), np.arange(96.0))
        ens = brick_ensemble(hi, np.array(brick))
        assert ens.dims == (2, 2, 2) and ens.member_count == 12
        assert ens.spacing == (1.0, 3.0, 4.0) and ens.origin == (1.25, 3.0, 4.0)
        for b in range(ens.voxel_count):
            bx, by, bz = b % 2, (b // 2) % 2, b // 4
            for j in range(12):
                x, y, z = 2 * bx + j % 2, 3 * by + (j // 2) % 3, 2 * bz + j // 6
                assert ens.members[j].values[b] == x + 4 * (y + 6 * z)

    def test_hixel_fit_is_the_brick_ensemble_fit(self):
        hi = sample_field("nested-spheres", (16, 16, 16))
        vol, mean = downsample_hixel(hi, (4, 4, 2), "quantile", qval=0.25, threads=2)
        ens = brick_ensemble(hi, (4, 4, 2))
        want = build_distribution_volume(ens, "quantile", qval=0.25)
        assert vol.model.boundaries.tobytes() == want.model.boundaries.tobytes()
        assert mean.values.tobytes() == ens.stacked().mean(axis=1).astype(np.float32).tobytes()
        assert (vol.dims, vol.spacing, vol.origin) == (ens.dims, ens.spacing, ens.origin)


class TestKdeConfig:
    def test_validation(self):
        with pytest.raises(VolumeError):
            KdeConfig(bandwidth=-1.0)
        with pytest.raises(VolumeError):
            KdeConfig(lattice=32)

    @pytest.mark.parametrize("bandwidth", [1e-309, 5e-324, 3.5e38, 1e308])
    def test_bandwidth_beyond_its_range_is_rejected(self, bandwidth):
        """Below the smallest normal float the lattice step can underflow to 0;
        beyond F32_MAX the 3-bandwidth padding can overflow."""
        with pytest.raises(VolumeError, match="explicit bandwidth must lie in"):
            KdeConfig(bandwidth=bandwidth)

    @pytest.mark.parametrize("bandwidth", [1e-160, 1e-200, 1e-300, np.finfo(float).tiny])
    def test_bandwidth_far_below_the_lattice_step_is_a_delta_kernel(self, bandwidth):
        """du/h of 1e158 and more, whose square overflowed a sampled kernel,
        gives the interior boundaries of a bandwidth of 1e-150, whose spectrum
        is already 1 at every frequency; only the padded lower end, min - 3h,
        moves."""
        s = np.linspace(0.0, 511.0, 40)
        got = estimate_quantiles(s, 0.25, KdeConfig(bandwidth=bandwidth)).boundaries
        ref = estimate_quantiles(s, 0.25, KdeConfig(bandwidth=1e-150)).boundaries
        assert got[1:].tobytes() == ref[1:].tobytes()
        assert got[0] == -3.0 * bandwidth

    def test_smallest_bandwidth_fits_a_subnormal_spread(self):
        s = np.arange(40) * 5e-324
        b = estimate_quantiles(s, 0.25, KdeConfig(bandwidth=np.finfo(float).tiny)).boundaries
        assert np.all(np.diff(b) >= 0) and b[0] <= s[0] and b[-1] >= s[-1]

    @pytest.mark.parametrize("s", [[1e-300, 0.0, 5e-301, 2e-300], [1e-323, 0.0, 5e-324, 2e-323]])
    def test_auto_bandwidth_of_a_tiny_spread(self, s):
        """The squared deviations of these spreads underflow, so an unscaled
        sigma-hat read 0 and the quantiles collapsed onto the first sample."""
        assert silverman_bandwidth(s) >= np.finfo(float).tiny
        b = estimate_quantiles(s, 0.25).boundaries
        assert np.all(np.diff(b) >= 0) and b[0] <= min(s) and b[-1] >= max(s)

    def test_scaled_auto_bandwidth_keeps_the_unscaled_bytes(self):
        rng = np.random.default_rng(3)
        for scale in (1e-30, 1e-3, 1.0, 7.5, 1e5, 3e37):
            s = scale * rng.standard_normal((200, 7)) + scale * rng.random((200, 1))
            want = 1.06 * np.std(s, axis=1, ddof=1) * 7 ** (-0.2)
            assert density._bandwidths(s, KdeConfig()).tobytes() == want.tobytes()

    def test_explicit_bandwidth_used(self):
        s = np.array([0.0, 1.0])
        x, _ = kde_cdf(s, KdeConfig(bandwidth=0.5))
        assert abs(x[0] - (0.0 - 1.5)) < 1e-12
        assert abs(x[-1] - (1.0 + 1.5)) < 1e-12


def _direct_sum_lattice_cdf(samples, h, lattice):
    """Reference KDE CDF: the O(V*M*L) direct kernel sum on each row's lattice
    [min - 3h, max + 3h], trapezoid-accumulated and normalised."""
    lo = samples.min(axis=1) - 3.0 * h
    du = (samples.max(axis=1) + 3.0 * h - lo) / (lattice - 1)
    x = lo[:, None] + du[:, None] * np.arange(lattice)[None, :]
    pdf = np.zeros_like(x)
    for col in range(samples.shape[1]):
        z = (x - samples[:, col][:, None]) / h[:, None]
        pdf += np.exp(-0.5 * z * z)
    cdf = np.concatenate([np.zeros((len(x), 1)), np.cumsum(pdf[:, :-1] + pdf[:, 1:], axis=1)], axis=1)
    return x, np.maximum.accumulate(cdf / cdf[:, -1:], axis=1)


def _interp_rows(x, cdf, masses):
    """Reference inversion: np.interp row by row, made monotone."""
    return np.array([np.maximum.accumulate(np.interp(masses, c, r)) for r, c in zip(x, cdf)])


def _per_voxel_em(s, k, max_iter=100):
    """Reference one-sample-set EM (deterministic start, stop at a mean
    log-likelihood step below 1e-8); returns (weights, means, sigmas, trace),
    trace being the mean log-likelihood of every iteration run."""
    floor = max(1e-6 * float(s.max() - s.min()), 1e-12)
    if k == 1:
        return np.ones(1), np.array([s.mean()]), np.array([max(np.std(s, ddof=1), floor)]), []
    edges = np.quantile(s, np.linspace(0, 1, k + 1))
    mu = 0.5 * (edges[:-1] + edges[1:])
    sg = np.full(k, max(np.std(s, ddof=1) / k, floor))
    w = np.full(k, 1.0 / k)
    prev_ll, trace = -np.inf, []
    for it in range(max_iter):
        safe = np.maximum(sg, 1e-300)
        z = (s[:, None] - mu[None, :]) / safe[None, :]
        logp = (np.log(np.maximum(w, 1e-300)) - np.log(safe))[None, :] - 0.5 * z * z
        peak = logp.max(axis=1, keepdims=True)
        p = np.exp(logp - peak)
        norm = p.sum(axis=1, keepdims=True)
        ll = float(np.mean(np.log(norm[:, 0]) + peak[:, 0]) - 0.5 * np.log(2.0 * np.pi))
        trace.append(ll)
        resp = p / norm
        nk = np.maximum(resp.sum(axis=0), 1e-300)
        w = nk / s.size
        mu = (resp * s[:, None]).sum(axis=0) / nk
        var = (resp * (s[:, None] - mu[None, :]) ** 2).sum(axis=0) / nk
        sg = np.maximum(np.sqrt(var), floor)
        if ll - prev_ll < 1e-8 and np.isfinite(prev_ll):
            break
        prev_ll = ll
    return w / w.sum(), mu, sg, trace


def _tangle_samples(n=16, members=50, seed=3):
    """(n^3, members) bimodal-noise tangle samples with constant and two-valued rows."""
    gt = sample_field("tangle", (n, n, n))
    s = make_noise_ensemble(gt, NoiseSpec(kind="bimodal", members=members, seed=seed)).stacked().copy()
    s[:40] = 0.25
    s[40:80] = np.where(np.arange(members) % 3 == 0, 1.0, 0.0)
    return s


class TestBinnedKde:
    @pytest.mark.parametrize("bandwidth", [0.03, "auto"])
    @pytest.mark.parametrize("lattice", [512, 2048])
    def test_interior_boundaries_match_direct_sum(self, bandwidth, lattice):
        rng = np.random.default_rng(21)
        v, m = 300, 50
        modes = rng.random((v, m)) < rng.uniform(0.2, 0.8, (v, 1))
        s = np.where(modes, rng.normal(0.3, 0.04, (v, m)), rng.normal(0.7, 0.06, (v, m)))
        cfg = KdeConfig(bandwidth=bandwidth, lattice=lattice)
        masses = np.arange(9) / 8
        x, cdf = _direct_sum_lattice_cdf(s, density._bandwidths(s, cfg), lattice)
        ref = _interp_rows(x, cdf, masses)
        got = density._batch_quantiles(s, 0.125, cfg)
        np.testing.assert_allclose(got[:, 1:-1], ref[:, 1:-1], rtol=0, atol=1e-4)
        np.testing.assert_allclose(got[:, [0, -1]], ref[:, [0, -1]], rtol=0, atol=1e-12)

    def test_vectorised_inversion_keeps_the_interp_bracket(self):
        """Any slopes, monotone cubic or not: each inverse lies in the cell
        np.interp brackets, on its left end where the CDF meets the mass and
        on the last point once the mass reaches the CDF's end."""
        rng = np.random.default_rng(22)
        v, n = 200, 64
        steps = rng.random((v, n - 1)) * (rng.random((v, n - 1)) < 0.6)  # flat stretches
        cdf = np.concatenate([np.zeros((v, 1)), np.cumsum(steps, axis=1)], axis=1)
        cdf /= cdf[:, -1:]
        slope = rng.random((v, n)) * rng.choice([0.0, 0.02, 0.2], (v, n))
        lo, du = rng.uniform(-5.0, 5.0, v), rng.uniform(1e-3, 2.0, v)
        x = lo[:, None] + du[:, None] * np.arange(n)[None, :]
        masses = np.sort(np.concatenate([np.arange(17) / 16, cdf[0, 5:8], rng.random(20)]))
        got = density._invert_cdf_rows(lo, du, cdf, slope, masses)
        j = np.array([np.searchsorted(c, masses, side="right") - 1 for c in cdf])
        left = np.take_along_axis(x, np.minimum(j, n - 2), axis=1)
        right = np.take_along_axis(x, np.minimum(j + 1, n - 1), axis=1)
        tol = 1e-13 * np.abs(x).max()
        assert np.all((got >= left - tol) & (got <= right + tol))
        on_point = np.take_along_axis(cdf, j, axis=1) == masses
        assert np.array_equal(got[on_point], np.take_along_axis(x, j, axis=1)[on_point])

    @pytest.mark.parametrize("pdf", [1.0 / 32.0, 1.0])
    def test_inversion_with_secant_or_steep_slopes_matches_interp(self, pdf):
        """Rows of 32 equal steps of 1/32 among flat cells.  A pdf of 1/32 at
        every point gives each bracketed cell end slopes equal to its secant
        slope, so the cubic is the line; a pdf of 1 makes the cubic not
        monotone, so the linear inverse stands.  Either way the inverse keeps
        np.interp's bytes."""
        rng = np.random.default_rng(23)
        v, n = 200, 64
        steps = np.zeros((v, n - 1))
        for row in steps:
            row[rng.choice(n - 1, 32, replace=False)] = 1.0 / 32.0
        cdf = np.concatenate([np.zeros((v, 1)), np.cumsum(steps, axis=1)], axis=1)
        lo, du = rng.uniform(-5.0, 5.0, v), rng.uniform(1e-3, 2.0, v)
        x = lo[:, None] + du[:, None] * np.arange(n)[None, :]
        masses = np.sort(np.concatenate([np.arange(17) / 16, rng.random(20)]))
        got = density._invert_cdf_rows(lo, du, cdf, np.full((v, n), pdf), masses)
        want = np.array([np.interp(masses, c, r) for r, c in zip(x, cdf)])
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("data", ["tangle", "huge", "tied"])
    @pytest.mark.parametrize("qvals, near_equal", [((1 / 3, 1 / 6), 0), ((1 / 5, 1 / 15), 1),
                                                   ((1 / 2, 1 / 4, 1 / 8), 0)])
    def test_union_inversion_matches_each_qval_alone(self, data, qvals, near_equal):
        # The masses of 2/5 and 6/15 differ in their last bit, so the union
        # holds both; those of 1/3 and 2/6 are bit-equal.
        masses = [volcore._quantile_masses(qv) for qv in qvals]
        union = np.unique(np.concatenate(masses))
        assert union.size - np.unique(union.round(12)).size == near_equal
        s = _tangle_samples(n=8)
        cfg = KdeConfig()
        if data == "huge":
            s = s * 1e30
        elif data == "tied":
            s, cfg = np.round(s * 4.0) / 4.0, KdeConfig(lattice=1024)
        together = density._kde_quantile_rows(s, masses, cfg)
        for mv, got in zip(masses, together, strict=True):
            assert got.tobytes() == density._kde_quantile_rows(s, [mv], cfg)[0].tobytes()


@pytest.fixture(scope="module")
def budget_sets():
    """600 seeded non-constant rows of each of three sets, as float64: the
    tangle manifest's 32^3 M=50 ensemble at seed 7 with h=0.03 and with
    Silverman's rule, and the spheres manifest's 4^3 bricks of its 128^3
    field with h=0.02."""
    gt = sample_field("tangle", (32, 32, 32))
    tangle = make_noise_ensemble(gt, NoiseSpec(members=50, seed=7, **presets.TANGLE_NOISE))
    spheres = brick_ensemble(sample_field("nested-spheres", (128, 128, 128)), (4, 4, 4))
    out = {}
    for name, ens, bw in (("tangle h=0.03", tangle, 0.03), ("tangle auto", tangle, "auto"),
                          ("spheres h=0.02", spheres, 0.02)):
        s = ens.rows(0, ens.voxel_count)
        live = np.nonzero(s.max(axis=1) > s.min(axis=1))[0]
        rows = np.sort(np.random.default_rng(7).choice(live, 600, replace=False))
        out[name] = (s[rows], bw)
    return out


def _kde_errors(s, bw, lattice):
    """(the largest |F(b) - p| over the interior masses p = k/8, the largest
    |b - F^-1(p)| / h), F the exact KDE CDF and b the fitted boundaries."""
    masses = np.arange(1, 8) / 8
    h = density._bandwidths(s, KdeConfig(bandwidth=bw))
    b = density._batch_quantiles(s, 0.125, KdeConfig(bandwidth=bw, lattice=lattice))[:, 1:-1]
    mass_err = np.abs(exact_kde_cdf(s, h, b) - masses).max()
    return mass_err, (np.abs(b - exact_kde_quantiles(s, h, masses)) / h[:, None]).max()


class TestKdeErrorBudget:
    """The KDE fit against the exact KDE.  The budgets are the mass errors of
    the fit before its fourth-order lattice steps (linear binning, a sampled
    kernel, trapezoid masses, linear inversion) at its lattice of 512."""

    BUDGET = {"tangle h=0.03": 1.19e-4, "tangle auto": 4.45e-5, "spheres h=0.02": 8.86e-4}

    @pytest.mark.parametrize("name", list(BUDGET))
    def test_default_lattice_meets_the_budget(self, budget_sets, name):
        mass_err, _ = _kde_errors(*budget_sets[name], KdeConfig().lattice)
        assert mass_err <= self.BUDGET[name], mass_err

    @pytest.mark.parametrize("name", list(BUDGET))
    def test_boundaries_solve_the_hermite_cdf(self, budget_sets, name):
        """Three Newton steps leave no boundary's cubic off its mass by more
        than 2e-12 on these rows; one or two steps miss by 1e-4 or 3e-7."""
        s, bw = budget_sets[name]
        cfg = KdeConfig(bandwidth=bw)
        for row in s[:200]:
            _, cdf = kde_cdf(row, cfg)
            pdf = estimate_quantiles(row, 0.125, cfg)
            np.testing.assert_allclose(cdf(pdf.boundaries), np.arange(9) / 8, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("name", list(BUDGET))
    def test_doubling_the_lattice_lowers_the_error(self, budget_sets, name):
        """The spheres' bricks have gaps in which a mass's inverse is nearly
        free, so only the tangle sets compare boundaries."""
        lattice = KdeConfig().lattice
        coarse, fine = (_kde_errors(*budget_sets[name], lat) for lat in (lattice, 2 * lattice))
        assert fine[0] <= coarse[0]
        if name.startswith("tangle"):
            assert fine[1] <= coarse[1]


class TestKdeRobustness:
    """Inputs where dividing out the B-spline's sinc^4, up to (pi/2)^4 = 6.1x
    at the top frequency, meets a kernel far narrower than a lattice step or
    flat CDF stretches.  Each set spans two fit chunks and several row blocks."""

    @staticmethod
    def _rows(kind):
        rng = np.random.default_rng(31)
        if kind == "narrow":  # rows spanning [0, 1] exactly, h = 1e-6
            s = rng.random((4500, 50))
            s[:, 0], s[:, 1] = 0.0, 1.0
            return s, KdeConfig(bandwidth=1e-6)
        if kind.startswith("tied"):  # as in test_union_inversion_matches_each_qval_alone
            lattice = 1024 if kind == "tied-1024" else KdeConfig().lattice
            return np.round(_tangle_samples(n=17) * 4.0) / 4.0, KdeConfig(lattice=lattice)
        top = float(volcore.F32_MAX)  # rows at either end of the f32 range
        s = top * (1.0 - 1e-7 * rng.random((4500, 50)))
        s[::2] *= -1.0
        return s, KdeConfig()

    @pytest.mark.parametrize("kind", ["narrow", "tied", "tied-1024", "huge"])
    def test_boundaries_are_finite_monotone_and_padded(self, kind):
        s, cfg = self._rows(kind)
        h = density._bandwidths(s, cfg)
        lo = np.maximum(s.min(axis=1) - 3.0 * h, -volcore.F32_MAX)
        hi = np.minimum(s.max(axis=1) + 3.0 * h, volcore.F32_MAX)
        slack = 1e-12 * np.maximum(np.abs(lo), np.abs(hi))  # the lattice's own rounding
        for qval in (0.5, 0.125, 1 / 32):
            b = density._batch_quantiles(s, qval, cfg)
            assert np.all(np.isfinite(b)) and np.all(np.diff(b, axis=1) >= 0)
            assert np.all(b >= (lo - slack)[:, None]) and np.all(b <= (hi + slack)[:, None])

    @pytest.mark.parametrize("kind", ["narrow", "tied", "tied-1024", "huge"])
    def test_thread_count_gives_identical_bytes(self, kind):
        s, cfg = self._rows(kind)
        ens = make_ensemble(s.T, (s.shape[0], 1, 1))
        a, b = (quantile_volumes_multi(ens, [0.5, 0.125], cfg, threads=t) for t in (1, 2))
        for qv in (0.5, 0.125):
            assert a[qv].model.boundaries.tobytes() == b[qv].model.boundaries.tobytes()


class TestBatchedEm:
    def test_bit_identical_to_per_voxel_loop(self):
        s = _tangle_samples()
        assert s.shape[0] >= 4096
        for k in (1, 2, 3):
            w, mu, sg = density._gmm_em_rows(s, k, max_iter=10)
            iters = []
            for row in range(s.shape[0]):
                rw, rmu, rsg, trace = _per_voxel_em(s[row], k, max_iter=10)
                iters.append(len(trace))
                assert w[row].tobytes() == rw.tobytes(), (k, row)
                assert mu[row].tobytes() == rmu.tobytes(), (k, row)
                assert sg[row].tobytes() == rsg.tobytes(), (k, row)
            if k == 2:  # both stopping paths are exercised
                assert 0 < iters.count(10) < len(iters)

    def test_scalar_trace_matches_reference(self):
        s = _tangle_samples(n=4)
        for row in (0, 45, 63):
            trace = []
            g = fit_gmm_em(s[row], 2, trace=trace)
            rw, rmu, rsg, want = _per_voxel_em(s[row], 2)
            assert np.array(trace).tobytes() == np.array(want).tobytes()
            for got, ref in ((g.weights, rw), (g.means, rmu), (g.sigmas, rsg)):
                assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("k", [2, 3])
    def test_batch_trace_matches_reference(self, k):
        # trace[it] holds the rows still active at iteration it, in row order.
        s = _tangle_samples(n=4)
        trace = []
        density._gmm_em_rows(s, k, 100, trace)
        per_row = [_per_voxel_em(s[row], k)[3] for row in range(s.shape[0])]
        want = [[ll[it] for ll in per_row if len(ll) > it] for it in range(len(trace))]
        assert max(map(len, per_row)) == len(trace)
        for it, (got, ref) in enumerate(zip(trace, want)):
            assert got.tobytes() == np.array(ref).tobytes(), it

    @pytest.mark.parametrize("max_iter", [0, -3, 2.5])
    def test_max_iter_validated(self, max_iter):
        s = np.random.default_rng(0).normal(size=40)
        for k in (1, 2):
            with pytest.raises(VolumeError):
                fit_gmm_em(s, k, max_iter=max_iter)
        ens = make_ensemble([np.full(8, float(i)) for i in range(4)], (2, 2, 2))
        with pytest.raises(VolumeError):
            build_distribution_volume(ens, "gmm", k=2, max_iter=max_iter)

    @pytest.mark.parametrize("k", [0, -1, 1.5, 2.5])
    def test_k_validated(self, k):
        with pytest.raises(VolumeError):
            fit_gmm_em(np.random.default_rng(0).normal(size=40), k)


class TestEmActiveSet:
    def test_last_active_row_matches_per_voxel_loop(self):
        # A two-valued row stops within 5 iterations and bimodal rows each at
        # their own count, so the batch runs on with exactly one active row.
        rng = np.random.default_rng(17)
        m = 50
        rows = [np.where(np.arange(m) % 3 == 0, 1.0, 0.0)]
        for sep in (1.0, 2.0, 3.0):
            rows.append(np.where(rng.random(m) < 0.4, rng.normal(0, 1, m), rng.normal(sep, 1, m)))
        s = np.array(rows)
        for k in (2, 3):
            trace = []
            fit = density._gmm_em_rows(s, k, 100, trace)
            active = [ll.size for ll in trace]
            assert active[0] == 4 and active.count(1) >= 5, (k, active)
            for row in range(4):
                ref = _per_voxel_em(s[row], k)
                for got, want in zip(fit, ref):
                    assert got[row].tobytes() == want.tobytes(), (k, row)


class TestEmSubBlocks:
    """EM runs in sub-blocks of density._EM_ROWS rows inside each chunk."""

    def test_rows_beside_the_sub_block_boundary_match_single_row_fits(self):
        gt = sample_field("tangle", (10, 10, 10))
        ens = make_noise_ensemble(gt, NoiseSpec(members=12, seed=7, **presets.TANGLE_NOISE))
        assert ens.voxel_count > density._EM_ROWS
        model = build_distribution_volume(ens, "gmm", k=2).model
        s = ens.rows(0, ens.voxel_count)
        for row in range(density._EM_ROWS - 3, density._EM_ROWS + 3):
            want = density._gmm_em_rows(s[row:row + 1], 2, 100)
            for name, w in zip(("weights", "means", "sigmas"), want):
                assert getattr(model, name)[row].tobytes() == w[0].astype(np.float32).tobytes(), \
                    (row, name)

    def test_fit_working_set_is_bounded(self):
        gt = sample_field("tangle", (16, 16, 16))
        ens = make_noise_ensemble(gt, NoiseSpec(members=50, seed=7, **presets.TANGLE_NOISE))
        _, peak = traced_peak(lambda: build_distribution_volume(ens, "gmm", k=2, threads=1))
        assert peak < 10e6, f"gmm fit of 16^3 M=50 peaked at {peak / 1e6:.1f} MB"


class TestChunkIndependence:
    def test_permuted_rows_give_identical_bytes(self):
        s = _tangle_samples(n=17, members=20)  # more than one chunk
        assert s.shape[0] > density._CHUNK_VOXELS
        perm = np.random.default_rng(23).permutation(s.shape[0])
        cfg = KdeConfig(bandwidth=0.03)

        def fit(rows, kind, kw):
            ens = make_ensemble(rows.T, (rows.shape[0], 1, 1))
            return build_distribution_volume(ens, kind, **kw).model

        for kind, kw in (("quantile", {"qval": 0.125, "config": cfg}),
                         ("quantile", {"qval": 0.25}), ("gmm", {"k": 2})):
            a = fit(s, kind, kw)
            b = fit(s[perm], kind, kw)
            names = ("boundaries",) if kind == "quantile" else ("weights", "means", "sigmas")
            for name in names:
                pa, pb = getattr(a, name)[perm], getattr(b, name)
                for row in range(s.shape[0]):
                    assert pa[row].tobytes() == pb[row].tobytes(), (kind, name, row)


class TestKdeConfigBoundary:
    @pytest.mark.parametrize("kw", [
        {"bandwidth": float("inf")}, {"bandwidth": float("nan")}, {"bandwidth": "wide"},
        {"bandwidth": 0.0}, {"bandwidth": None},
        {"lattice": float("inf")}, {"lattice": float("nan")}, {"lattice": 100.7},
        {"lattice": 512.0}, {"lattice": "512"}, {"lattice": 10**9}, {"lattice": 65537},
        {"lattice": 63},
    ])
    def test_rejected_when_built(self, kw):
        with pytest.raises(VolumeError):
            KdeConfig(**kw)

    def test_accepted_range(self):
        assert KdeConfig(lattice=65536).lattice == 65536
        assert KdeConfig(lattice=np.int64(64)).lattice == 64
        assert KdeConfig(bandwidth=np.float32(0.5)).bandwidth == 0.5


# The three moment kinds first, then the kinds fitted from rows blocks.
ROW_KINDS = [("mean", {}), ("uniform", {}), ("gaussian", {}),
             ("quantile", {"qval": 0.125}), ("gmm", {"k": 2, "max_iter": 20})]


def _whole_array_fit(s, kind, qval=None, k=None, max_iter=100):
    """Each model's parameters from one call over the whole (V, M) array."""
    if kind == "mean":
        return {"values": s.mean(axis=1)}
    if kind == "uniform":
        lo, hi = s.min(axis=1), s.max(axis=1)
        return {"center": 0.5 * (lo + hi), "width": hi - lo}
    if kind == "gaussian":
        return {"mean": s.mean(axis=1), "sigma": np.std(s, axis=1, ddof=1)}
    if kind == "quantile":
        return {"boundaries": density._batch_quantiles(s, qval, KdeConfig())}
    w, mu, sg = density._gmm_em_rows(s, k, max_iter)
    return {"weights": w, "means": mu, "sigmas": sg}


def _assert_same_bytes(model, params):
    """The model's fields are the float64 params rounded once to float32."""
    for name, want in params.items():
        assert getattr(model, name).tobytes() == want.astype(np.float32).tobytes(), name


def _row_source_ensemble():
    gt = sample_field("tangle", (17, 16, 16))
    return make_noise_ensemble(gt, NoiseSpec(kind="bimodal", members=12, seed=4))


class TestRowSourceFits:
    """Fits read (chunk, M) row blocks; 17*16*16 = 4352 voxels make one full
    chunk and a partial one."""

    @pytest.fixture(scope="class")
    def ens(self):
        return _row_source_ensemble()

    @pytest.mark.parametrize("kind,kw", ROW_KINDS)
    def test_ensemble_fit_matches_whole_array_oracle(self, ens, kind, kw):
        assert ens.voxel_count % density._CHUNK_VOXELS != 0
        vol = build_distribution_volume(ens, kind, threads=2, **kw)
        _assert_same_bytes(vol.model, _whole_array_fit(ens.stacked(), kind, **kw))

    @pytest.mark.parametrize("kind,kw", ROW_KINDS)
    def test_hixel_fit_matches_whole_array_oracle(self, kind, kw):
        hi = sample_field("tangle", (34, 32, 32))
        vol, mean_grid = downsample_hixel(hi, (2, 2, 2), kind, threads=2, **kw)
        bricks = hi.values3d.reshape(16, 2, 16, 2, 17, 2).transpose(0, 2, 4, 1, 3, 5)
        s = np.ascontiguousarray(bricks.reshape(-1, 8), dtype=np.float64)
        assert s.shape[0] % density._CHUNK_VOXELS != 0
        _assert_same_bytes(vol.model, _whole_array_fit(s, kind, **kw))
        assert mean_grid.values.tobytes() == s.mean(axis=1).astype(np.float32).tobytes()

    def test_thread_count_gives_identical_bytes(self, ens):
        def fits(threads):
            out = [build_distribution_volume(ens, kind, threads=threads, **kw).model
                   for kind, kw in ROW_KINDS]
            multi = quantile_volumes_multi(ens, [0.5, 0.125], threads=threads)
            return out + [v.model for v in multi.values()]

        for a, b in zip(fits(1), fits(4)):
            for name, arr in vars(a).items():
                if isinstance(arr, np.ndarray):
                    assert arr.tobytes() == getattr(b, name).tobytes(), (type(a), name)

    def test_no_whole_volume_copy(self, ens, monkeypatch):
        def refuse(self):
            raise AssertionError("stacked() called")

        blocks, slabs = [], []
        rows, member_values = type(ens).rows, type(ens).member_values

        def recording_rows(self, lo, hi):
            blocks.append(hi - lo)
            return rows(self, lo, hi)

        def recording_member_values(self, lo, hi):
            slabs.append(hi - lo)
            return member_values(self, lo, hi)

        monkeypatch.setattr(EnsembleVolume, "stacked", refuse)
        monkeypatch.setattr(type(ens), "rows", recording_rows)
        monkeypatch.setattr(type(ens), "member_values", recording_member_values)
        # The moment fits read members slab by slab, gaussian twice, and never rows.
        for kind, kw in ROW_KINDS[:3]:
            build_distribution_volume(ens, kind, threads=2, **kw)
        assert not blocks
        assert max(slabs) <= density._MOMENT_SLAB and sum(slabs) == 4 * ens.voxel_count
        slabs.clear()
        # The row kinds read rows, and each rows block reads member_values once
        # over its own range.
        for kind, kw in ROW_KINDS[3:]:
            build_distribution_volume(ens, kind, **kw)
        quantile_volumes_multi(ens, [0.5, 0.125], threads=2)
        assert sorted(slabs) == sorted(blocks)
        assert max(blocks) == density._CHUNK_VOXELS
        assert sum(blocks) == 3 * ens.voxel_count
        # The samples model stores every sample set, read in blocks like every other fit's.
        blocks.clear()
        slabs.clear()
        vol = build_distribution_volume(ens, "samples")
        assert max(blocks) <= density._CHUNK_VOXELS and sum(blocks) == ens.voxel_count
        assert sorted(slabs) == sorted(blocks)
        assert vol.model.samples.shape == (ens.voxel_count, ens.member_count)

    def test_rows_are_contiguous_blocks_of_stacked(self, ens):
        full = _member_oracle(ens)
        assert ens.stacked().tobytes() == full.tobytes()
        for lo, hi in ((0, 1), (100, 4196), (4096, 4352), (4300, 4352), (7, 7)):
            block = ens.rows(lo, hi)
            assert block.flags.c_contiguous and block.dtype == np.float64
            assert block.shape == (hi - lo, ens.member_count)
            assert block.tobytes() == full[lo:hi].tobytes()
        for threads in (1, 2):
            blocks = map_chunks(ens.rows, ens.voxel_count, threads, density._CHUNK_VOXELS)
            assert [len(b) for b in blocks] == [density._CHUNK_VOXELS, 256]
            assert np.concatenate(blocks).tobytes() == full.tobytes()

    def test_member_values_are_columns_of_stacked(self, ens):
        full = _member_oracle(ens)
        for lo, hi in ((0, 1), (100, 4196), (4300, 4352), (7, 7)):
            got = [x.copy() for x in ens.member_values(lo, hi)]  # a file buffer is reused
            assert all(x.dtype == np.float32 for x in got)
            assert np.array_equal(np.array(got).T, full[lo:hi])


def _member_oracle(ens):
    """The (V, M) float64 sample sets, stacked from the member grids; a file
    ensemble's members are read whole through load_raw."""
    return np.stack([g.values for g in ens.members], axis=1).astype(np.float64)


class _ReversedMembers(EnsembleVolume):
    """An ensemble whose one override is member_values: the members in reverse."""

    def member_values(self, lo, hi):
        return (g.values[lo:hi] for g in reversed(self.members))


def test_rows_and_stacked_follow_a_member_values_override():
    ens = _ReversedMembers(_row_source_ensemble().members)
    want = _member_oracle(ens)[:, ::-1]
    assert ens.stacked().tobytes() == want.tobytes()
    assert ens.rows(4000, 4352).tobytes() == want[4000:].tobytes()
    samples = build_distribution_volume(ens, "samples", threads=2).model.samples
    assert samples.tobytes() == want.astype(np.float32).tobytes()


class TestFitPeak:
    """A fit casts each row block's outputs to float32 before it joins them,
    so it peaks at about twice the float32 fields it keeps (the blocks and
    their join), plus one block's float64 working set."""

    @pytest.fixture(scope="class")
    def ens(self):
        gt = sample_field("tangle", (48, 48, 48))
        return make_noise_ensemble(gt, NoiseSpec(kind="bimodal", members=10, seed=7))

    @pytest.mark.parametrize("kind,kw", [
        ("mean", {}), ("uniform", {}), ("gaussian", {}), ("samples", {}),
        ("quantile", {"qval": 0.125, "config": KdeConfig(lattice=64)}),
        ("gmm", {"k": 2, "max_iter": 3})])
    def test_fit_peaks_at_twice_its_fields(self, ens, kind, kw):
        vol, peak = traced_peak(lambda: build_distribution_volume(ens, kind, **kw))
        kept = field_bytes(vol.model)
        assert peak <= 2 * kept + (4 << 20), (kind, peak / kept)


class TestRowSourceFitsFromFiles(TestRowSourceFits):
    """The same cases on the ensemble after save_ensemble/load_ensemble, whose
    rows are read from the member files."""

    test_hixel_fit_matches_whole_array_oracle = None  # reads no ensemble

    @pytest.fixture(scope="class")
    def ens(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("ens")
        save_ensemble(_row_source_ensemble(), path)
        return load_ensemble(path)


MOMENT_KINDS = ("mean", "uniform", "gaussian")


class _Float64:
    """A model class whose cast keeps the float64 fit outputs."""
    cast = staticmethod(lambda a: a)


class TestMemberMoments:
    """The moment fits read each member once per slab (twice for gaussian)
    and sum in member order; 60*48*48 voxels make two full slabs and a
    partial one."""

    @pytest.fixture(scope="class")
    def memory(self):
        gt = sample_field("tangle", (60, 48, 48))
        return make_noise_ensemble(gt, NoiseSpec(kind="bimodal", members=12, seed=5))

    @pytest.fixture(scope="class")
    def saved(self, memory, tmp_path_factory):
        path = tmp_path_factory.mktemp("moments")
        save_ensemble(memory, path)
        return path

    @pytest.fixture(scope="class", params=["memory", "files"])
    def ens(self, request, memory, saved):
        return memory if request.param == "memory" else load_ensemble(saved)

    @staticmethod
    def slab_fit(ens, kind, threads):
        """The slab driver's float64 outputs, before the cast."""
        return density._fit_blocks(lambda lo, hi: density._member_moments(
            lambda: ens.member_values(lo, hi), ens.member_count, kind), ens, threads, _Float64,
            density._MOMENT_SLAB)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("kind", MOMENT_KINDS)
    def test_equals_member_order_oracle(self, ens, kind, threads):
        n = ens.voxel_count
        assert 2 * density._MOMENT_SLAB < n and n % density._MOMENT_SLAB
        want = member_order_moments([g.values for g in ens.members], kind)
        got = self.slab_fit(ens, kind, threads)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        model = build_distribution_volume(ens, kind, threads=threads).model
        for name, a in zip(model.FIELDS, want):
            assert getattr(model, name).tobytes() == a.astype(np.float32).tobytes(), name

    @pytest.mark.parametrize("kind,fit", [("mean", fit_mean), ("uniform", fit_uniform),
                                          ("gaussian", fit_gaussian)])
    def test_scalar_fit_equals_the_kernel_row(self, memory, kind, fit):
        got = self.slab_fit(memory, kind, 1)
        full = memory.stacked()
        for v in (0, 1, density._MOMENT_SLAB - 1, density._MOMENT_SLAB, 2 * density._MOMENT_SLAB,
                  memory.voxel_count - 1):
            want = tuple(float(a[v]) for a in got)
            assert fit(full[v]) == (want[0] if kind == "mean" else want), v

    @pytest.mark.parametrize("kind,passes", [("mean", 1), ("uniform", 1), ("gaussian", 2)])
    def test_opens_each_member_once_per_slab_and_pass(self, saved, monkeypatch, kind, passes):
        ens = load_ensemble(saved)
        opens = {}
        with_fd = volcore._with_fd

        def counting(path, call, *args):
            opens[path] = opens.get(path, 0) + 1
            return with_fd(path, call, *args)

        monkeypatch.setattr(volcore, "_with_fd", counting)
        build_distribution_volume(ens, kind, threads=2)
        slabs = -(-ens.voxel_count // density._MOMENT_SLAB)
        assert len(opens) == ens.member_count
        assert set(opens.values()) == {passes * slabs}

    @pytest.mark.parametrize("kind,kw", [("mean", {}), ("uniform", {}), ("gaussian", {}),
                                         ("quantile", {"qval": 0.25,
                                                       "config": KdeConfig(lattice=64)})])
    def test_non_finite_value_past_the_first_slab_names_the_member(self, saved, tmp_path,
                                                                    kind, kw):
        for f in saved.iterdir():
            (tmp_path / f.name).write_bytes(f.read_bytes())
        member = tmp_path / "member_007.f32raw"
        values = np.fromfile(member, "<f4")
        values[density._MOMENT_SLAB + 4500] = np.nan
        values.tofile(member)
        with pytest.raises(volcore.FormatError, match="member_007.f32raw: non-finite"):
            build_distribution_volume(load_ensemble(tmp_path), kind, threads=2, **kw)

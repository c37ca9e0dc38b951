import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from uqdvr import presets, render
from uqdvr.classify import TransferFunction1D, TransferFunction2D
from uqdvr.density import build_distribution_volume
from uqdvr.render import (
    Camera,
    Image,
    RenderJob,
    camera_rays,
    default_camera,
    diff_image,
    load_image_f32,
    raycast,
    render_quartile_views,
    save_image,
)
from uqdvr.synth import NoiseSpec, make_ensemble, sample_field
from uqdvr.volcore import (
    F32_MAX,
    DistributionVolume,
    GaussianModel,
    GmmVolumeModel,
    MeanFieldModel,
    QuantileModel,
    ScalarGrid,
    UniformModel,
    VolumeError,
)

from oracles import argmax_gmm_mc_chunk, raycast_dense


def constant_tf(rgb=(0.8, 0.5, 0.2), alpha=0.7):
    r, g, b = rgb
    return TransferFunction1D([[0.0, r, g, b, alpha], [1.0, r, g, b, alpha]])


def band_tf():
    return TransferFunction1D([
        [0.0, 0.0, 0.0, 0.0, 0.0],
        [0.3, 0.1, 0.4, 0.9, 0.1],
        [0.6, 0.9, 0.6, 0.1, 0.6],
        [1.0, 0.2, 0.2, 0.2, 0.9],
    ])


def mean_volume(grid):
    return DistributionVolume(grid.dims, grid.spacing, grid.origin,
                              MeanFieldModel(grid.values))


def quantile_volume_from(grid, spread, q=8):
    offsets = np.linspace(-spread, spread, q + 1)
    boundaries = grid.values[:, None] + offsets[None, :]
    return DistributionVolume(grid.dims, grid.spacing, grid.origin,
                              QuantileModel(1.0 / q, boundaries))


class TestCamera:
    def test_validation(self):
        with pytest.raises(VolumeError):
            Camera((0, 0, 0), (0, 0, 0), (0, 0, 1), 30, 8, 8)
        with pytest.raises(VolumeError):
            Camera((0, 0, 0), (1, 0, 0), (1, 0, 0), 30, 8, 8)
        with pytest.raises(VolumeError):
            Camera((0, 0, 0), (1, 0, 0), (0, 0, 1), 0.0, 8, 8)

    def test_rays_unit_and_centered(self):
        cam = Camera((0, 0, 0), (5, 0, 0), (0, 0, 1), 40, 5, 5)
        o, d = camera_rays(cam)
        np.testing.assert_allclose(np.linalg.norm(d, axis=1), 1.0, atol=1e-12)
        center = d[2 * 5 + 2]
        np.testing.assert_allclose(center, [1, 0, 0], atol=1e-12)

    def test_row_major_top_left(self):
        cam = Camera((0, 0, 0), (5, 0, 0), (0, 0, 1), 40, 3, 3)
        _, d = camera_rays(cam)
        assert d[0][2] > 0  # first pixel looks up (top row)
        assert d[6][2] < 0  # last row looks down


    @pytest.mark.parametrize("field", ["eye", "look_at", "up"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_vectors_rejected(self, field, bad):
        vecs = {"eye": [-3.0, 0.0, 0.0], "look_at": [0.0, 0.0, 0.0], "up": [0.0, 0.0, 1.0]}
        vecs[field][1] = bad
        with pytest.raises(VolumeError, match="finite"):
            Camera(tuple(vecs["eye"]), tuple(vecs["look_at"]), tuple(vecs["up"]), 30, 8, 8)


class TestRenderJobBounds:
    @pytest.mark.parametrize("field, value", [
        ("step", np.inf), ("step", np.nan), ("step", 0.0), ("step", -0.5),
        ("mc_samples", 0), ("mc_samples", -3),
        ("tf2d_samples", 0),
        ("seed", -1), ("seed", "x"),
    ])
    def test_invalid_values_rejected_at_construction(self, field, value):
        grid = sample_field("constant(0.5)", (4, 4, 4))
        vol = mean_volume(grid)
        with pytest.raises(VolumeError):
            RenderJob(vol, "mean", default_camera(vol, 4, 4), tf=band_tf(), **{field: value})

    def test_smallest_valid_values_accepted(self):
        grid = sample_field("constant(0.5)", (4, 4, 4))
        vol = mean_volume(grid)
        RenderJob(vol, "mean", default_camera(vol, 4, 4), tf=band_tf(), step=1e-3,
                  mc_samples=1, tf2d_samples=1)


def gmm_volume(k, seed, scale=1.0):
    """A 7x6x5 GMM volume with random, empty-component and one-hot weights,
    its means and sigmas multiplied by scale."""
    rng = np.random.default_rng(seed)
    dims = (7, 6, 5)
    nvox = 7 * 6 * 5
    weights = rng.dirichlet(np.ones(k), nvox)
    if k > 1:
        weights[::4, 0] = 0.0  # empty components
        weights[::4] /= weights[::4].sum(axis=1, keepdims=True)
        weights[1::5] = np.eye(k)[rng.integers(0, k, weights[1::5].shape[0])]
    means = rng.uniform(0.0, 1.0, (nvox, k))
    sigmas = rng.uniform(0.0, 0.15, (nvox, k))
    return DistributionVolume(dims, (1, 1, 1), (0, 0, 0),
                              GmmVolumeModel(k, weights, means * scale, sigmas * scale))


class TestGmmMcComponentPick:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_pixels_match_argmax_pick(self, k, monkeypatch):
        vol = gmm_volume(k, 30 + k)
        job = RenderJob(vol, "gmm-mc", default_camera(vol, 20, 16), tf=band_tf(),
                        seed=k, mc_samples=12)
        got = raycast(job, threads=2)
        monkeypatch.setattr(render, "_classify_chunk", argmax_gmm_mc_chunk)
        want = raycast(job, threads=2)
        assert np.array_equal(got.pixels, want.pixels)

    @pytest.mark.parametrize("scale", [2.0 ** -1000, 2.0 ** 100], ids=["2^-1000", "2^100"])
    def test_image_is_free_of_the_value_scale(self, scale):
        """Means, sigmas and knots scaled by a power of two leave every draw
        scaled exactly, unless a squared spread underflows or overflows."""
        def image(s, threads):
            vol = gmm_volume(2, 40, s)
            tf = TransferFunction1D(band_tf().points * [s, 1, 1, 1, 1])
            job = RenderJob(vol, "gmm-mc", default_camera(vol, 20, 16), tf=tf, seed=5,
                            mc_samples=12)
            return raycast(job, threads=threads).pixels

        for threads in (1, 2):
            assert np.array_equal(image(scale, threads), image(1.0, threads))


class TestParametricValueScale:
    @pytest.mark.parametrize("scale", [2.0 ** -1000, 2.0 ** 100], ids=["2^-1000", "2^100"])
    @pytest.mark.parametrize("scheme", ["gaussian", "gmm-ordered"])
    def test_image_is_free_of_the_value_scale(self, scheme, scale):
        """Means, sigmas and knots scaled by a power of two scale every blended
        mean and spread exactly: the squared spreads are taken in units of the
        largest sigma, so tiny ones do not underflow."""
        def image(s, threads):
            vol = gmm_volume(2, 41, s)
            if scheme == "gaussian":
                m = vol.model
                vol = DistributionVolume(vol.dims, vol.spacing, vol.origin,
                                         GaussianModel(m.means[:, 0], m.sigmas[:, 0]))
            tf = TransferFunction1D(band_tf().points * [s, 1, 1, 1, 1])
            return raycast(RenderJob(vol, scheme, default_camera(vol, 20, 16), tf=tf),
                           threads=threads).pixels

        for threads in (1, 2):
            assert np.array_equal(image(scale, threads), image(1.0, threads))


class TestGeometryScale:
    """Spacing, origin and camera scaled by a power of two scale every ray
    parameter exactly, so the image may not change.  Before, the camera checks
    and the sliver test of a ray's last sample used absolute thresholds: the
    scene rendered black at 2^-40, and a camera on spacing 1e-12 was refused."""

    TF = TransferFunction1D([[0.0, 0, 0, 0, 0], [0.45, 0, 0, 0, 0], [0.6, 0.9, 0.5, 0.2, 0.7],
                             [1.0, 0.2, 0.4, 0.9, 0.4]])

    def job(self, scheme, scale):
        grid = sample_field("tangle", (8, 8, 8))
        model = (MeanFieldModel(grid.values) if scheme == "mean" else
                 QuantileModel(0.125, grid.values[:, None] + np.linspace(-0.05, 0.05, 9)))
        vol = DistributionVolume(grid.dims, tuple(np.multiply(grid.spacing, scale)),
                                 tuple(np.multiply(grid.origin, scale)), model)
        return RenderJob(vol, scheme, presets.tangle_camera(vol, 96, 96), tf=self.TF)

    @pytest.mark.parametrize("scheme", ["mean", "quantile-range"])
    def test_image_is_free_of_the_geometry_scale(self, scheme):
        ref = raycast(self.job(scheme, 1.0))
        assert render._SchemeState(self.job(scheme, 1.0)).dist is not None  # rays leap
        assert ref.pixels[..., :3].max() > 0.1
        for exponent in (-40, -20, 20, 40):
            for threads in (1, 2):
                img = raycast(self.job(scheme, 2.0 ** exponent), threads=threads)
                assert img.pixels.tobytes() == ref.pixels.tobytes(), (exponent, threads)

    @pytest.mark.parametrize("spacing", [1e-12, 1e-150, 1e30])
    def test_default_camera_of_a_tiny_or_huge_spacing(self, spacing):
        grid = ScalarGrid((2, 2, 2), (spacing,) * 3, (0.0, 0.0, 0.0), np.zeros(8))
        _, dirs = camera_rays(default_camera(mean_volume(grid), 4, 4))
        assert np.all(np.isfinite(dirs))

    def test_camera_checks_directions_not_distances(self):
        Camera((0, 0, 0), (1e-300, 0, 0), (0, 1e-300, 0), 30, 4, 4)
        Camera((1e10, 0, 0), (1e10 + 1e-5, 0, 0), (0, 0, 1), 30, 4, 4)
        for up in ((1e-300, 0, 0), (0, 0, 0)):
            with pytest.raises(VolumeError, match="parallel"):
                Camera((0, 0, 0), (1e-300, 0, 0), up, 30, 4, 4)


class TestRaycast:
    def test_zero_opacity_gives_background(self):
        grid = sample_field("tangle", (8, 8, 8))
        vol = mean_volume(grid)
        tf = TransferFunction1D([[0.0, 1, 1, 1, 0.0], [1.0, 1, 1, 1, 0.0]])
        cam = default_camera(vol, 16, 12)
        img = raycast(RenderJob(vol, "mean", cam, tf=tf))
        expect = np.array([0.0, 0.0, 0.0, 1.0], dtype=np.float32)
        assert np.all(img.pixels == expect[None, None, :])

    def test_single_slab_matches_hand_chain(self):
        value, color, alpha = 0.5, (0.9, 0.4, 0.1), 0.6
        grid = ScalarGrid((2, 8, 8), (1, 1, 1), (0, 0, 0), np.full(128, value))
        vol = mean_volume(grid)
        cam = Camera((-3.0, 3.5, 3.5), (0.5, 3.5, 3.5), (0, 0, 1), 10, 3, 3)
        job = RenderJob(vol, "mean", cam, tf=constant_tf(color, alpha), step=0.5)
        img = raycast(job)
        # Center ray: enters x=0 at t=3, exits x=1 at t=4, two 0.5 steps.
        a_step = 1.0 - (1.0 - alpha) ** 0.5
        t = 1.0
        rgb = np.zeros(3)
        for _ in range(2):
            rgb += t * a_step * np.asarray(color)
            t *= 1.0 - a_step
        center = img.pixels[1, 1]
        np.testing.assert_allclose(center[:3], rgb, atol=1e-6)
        assert center[3] == 1.0  # composited over opaque black

    def test_statistical_schemes_degenerate_to_mean(self):
        gt = sample_field("tangle", (12, 12, 12))
        ens = make_ensemble(gt, NoiseSpec("gaussian", sigma=0.0, members=6, seed=1))
        tf = band_tf()
        cam = default_camera(mean_volume(gt), 24, 24)
        ref = raycast(RenderJob(mean_volume(gt), "mean", cam, tf=tf))
        cases = [
            ("quantile-mean", build_distribution_volume(ens, "quantile", qval=0.125)),
            ("quantile-range", build_distribution_volume(ens, "quantile", qval=0.125)),
            ("gaussian", build_distribution_volume(ens, "gaussian")),
            ("uniform", build_distribution_volume(ens, "uniform")),
            ("gmm-ordered", build_distribution_volume(ens, "gmm", k=2)),
        ]
        for scheme, vol in cases:
            img = raycast(RenderJob(vol, scheme, cam, tf=tf))
            diff = np.abs(img.pixels - ref.pixels).max()
            assert diff < 1e-4, f"{scheme}: {diff}"

    def test_opacity_correction_step_invariance(self):
        grid = ScalarGrid((8, 8, 8), (1, 1, 1), (0, 0, 0), np.full(512, 0.5))
        vol = mean_volume(grid)
        cam = default_camera(vol, 12, 12)
        tf = constant_tf(alpha=0.3)
        a = raycast(RenderJob(vol, "mean", cam, tf=tf, step=0.5))
        b = raycast(RenderJob(vol, "mean", cam, tf=tf, step=0.25))
        assert np.abs(a.pixels - b.pixels).max() < 1e-3

    def test_channels_bounded(self):
        gt = sample_field("tangle", (10, 10, 10))
        ens = make_ensemble(gt, NoiseSpec("gaussian", sigma=0.1, members=8, seed=2))
        vol = build_distribution_volume(ens, "quantile", qval=0.25)
        cam = default_camera(vol, 20, 16)
        img = raycast(RenderJob(vol, "quantile-range", cam, tf=band_tf()))
        assert np.all(img.pixels >= 0.0)
        assert np.all(img.pixels <= 1.0)

    def test_scheme_model_mismatch(self):
        grid = sample_field("constant(0.5)", (4, 4, 4))
        gmodel = GaussianModel(grid.values, np.full(64, 0.1))
        vol = DistributionVolume(grid.dims, grid.spacing, grid.origin, gmodel)
        cam = default_camera(vol, 8, 8)
        with pytest.raises(VolumeError):
            RenderJob(vol, "quantile-mean", cam, tf=band_tf())

    def test_determinism_across_runs_and_threads(self):
        gt = sample_field("tangle", (8, 8, 8))
        ens = make_ensemble(gt, NoiseSpec("bimodal", sigma=0.03, members=10, seed=3))
        tf = band_tf()
        jobs = []
        qvol = build_distribution_volume(ens, "quantile", qval=0.25)
        cam = default_camera(qvol, 24, 20)
        jobs.append(RenderJob(qvol, "quantile-mean", cam, tf=tf, seed=5))
        gmm = build_distribution_volume(ens, "gmm", k=2)
        jobs.append(RenderJob(gmm, "gmm-mc", cam, tf=tf, seed=5, mc_samples=16))
        for job in jobs:
            a = raycast(job, threads=1)
            b = raycast(job, threads=1)
            c = raycast(job, threads=4)
            d = raycast(job, threads=8)
            assert np.array_equal(a.pixels, b.pixels)
            assert np.array_equal(a.pixels, c.pixels)
            assert np.array_equal(a.pixels, d.pixels)

    def test_tf2d_scheme_runs_and_is_deterministic(self):
        gt = sample_field("tangle", (12, 12, 12))
        ens = make_ensemble(gt, NoiseSpec("uniform", width=0.08, members=6, seed=4))
        vol = build_distribution_volume(ens, "uniform")
        mean = build_distribution_volume(ens, "mean")
        mean_grid = ScalarGrid(vol.dims, vol.spacing, vol.origin, mean.model.values)
        rng = np.random.default_rng(0)
        tf2 = TransferFunction2D(rng.random((8, 8, 4)), gmax=1.0)
        cam = default_camera(vol, 16, 12)
        job = RenderJob(vol, "tf2d", cam, tf2=tf2, mean_grid=mean_grid,
                        seed=6, tf2d_samples=64)
        a = raycast(job, threads=1)
        b = raycast(job, threads=4)
        assert np.array_equal(a.pixels, b.pixels)
        assert np.all(a.pixels >= 0) and np.all(a.pixels <= 1)


class TestQuartileViews:
    def test_zero_noise_views_identical(self):
        gt = sample_field("tangle", (10, 10, 10))
        vol = quantile_volume_from(gt, spread=0.0, q=8)
        cam = default_camera(vol, 20, 16)
        job = RenderJob(vol, "quantile-range", cam, tf=band_tf())
        lower, middle, upper = render_quartile_views(vol, job)
        _, rmse_lm = diff_image(lower, middle)
        _, rmse_lu = diff_image(lower, upper)
        assert rmse_lm < 1e-6
        assert rmse_lu < 1e-6

    def test_middle_view_uses_pieces_3_to_6(self):
        gt = sample_field("tangle", (8, 8, 8))
        vol = quantile_volume_from(gt, spread=0.1, q=8)
        cam = default_camera(vol, 12, 12)
        job = RenderJob(vol, "quantile-range", cam, tf=band_tf())
        _, middle, _ = render_quartile_views(vol, job)
        pieces = QuantileModel(0.25, vol.model.boundaries[:, 2:7])
        sliced = DistributionVolume(vol.dims, vol.spacing, vol.origin, pieces)
        manual = raycast(RenderJob(sliced, "quantile-range", cam, tf=band_tf()))
        assert np.array_equal(middle.pixels, manual.pixels)

    def test_volume_must_be_the_jobs_own(self):
        gt = sample_field("tangle", (6, 6, 6))
        vol = quantile_volume_from(gt, spread=0.1, q=4)
        job = RenderJob(vol, "quantile-range", default_camera(vol, 6, 6), tf=band_tf())
        assert len(render_quartile_views(vol, job)) == 3
        other = quantile_volume_from(gt, spread=0.2, q=4)
        for volume in (other, replace(vol)):  # a different volume, and an equal copy
            with pytest.raises(VolumeError, match="job.volume"):
                render_quartile_views(volume, job)

    def test_q_not_divisible_by_4_rejected(self):
        gt = sample_field("constant(0.5)", (4, 4, 4))
        vol = quantile_volume_from(gt, spread=0.05, q=2)
        cam = default_camera(vol, 8, 8)
        job = RenderJob(vol, "quantile-range", cam, tf=band_tf())
        with pytest.raises(VolumeError):
            render_quartile_views(vol, job)


class TestDiffImage:
    def test_identity_is_white_and_zero_rmse(self):
        rng = np.random.default_rng(1)
        px = rng.random((6, 8, 4)).astype(np.float32)
        img = Image(8, 6, px)
        diff, rmse = diff_image(img, img, scale=0.5)
        assert rmse == 0.0
        np.testing.assert_allclose(diff.pixels[..., :3], 1.0, atol=1e-7)

    def test_constant_offset_rmse(self):
        base = np.zeros((4, 4, 4), dtype=np.float32)
        base[..., 3] = 1.0
        shifted = base.copy()
        shifted[..., :3] += 0.1
        a = Image(4, 4, shifted)
        b = Image(4, 4, base)
        _, rmse = diff_image(a, b)
        assert abs(rmse - 0.1) < 1e-7

    def test_size_mismatch(self):
        a = Image(2, 2, np.zeros((2, 2, 4)))
        b = Image(3, 2, np.zeros((2, 3, 4)))
        with pytest.raises(VolumeError):
            diff_image(a, b)


class TestImageIO:
    def test_one_by_one_white(self, tmp_path):
        img = Image(1, 1, np.ones((1, 1, 4)))
        p = tmp_path / "white.ppm"
        save_image(img, p)
        assert p.read_bytes() == b"P6\n1 1\n255\n\xff\xff\xff"

    def test_f32_sidecar_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        img = Image(5, 3, rng.random((3, 5, 4)).astype(np.float32))
        p = tmp_path / "img.ppm"
        save_image(img, p)
        back = load_image_f32(tmp_path / "img.ppm.f32")
        assert np.array_equal(back.pixels, img.pixels)

    @pytest.mark.parametrize("raw", [b"-1 -4\n" + bytes(64), b"0 5\n", b"5 0\n", b"-2 3\n"])
    def test_empty_or_negative_size_rejected(self, tmp_path, raw):
        p = tmp_path / "img.f32"
        p.write_bytes(raw)
        with pytest.raises(VolumeError, match="sidecar"):
            load_image_f32(p)

    def test_missing_file_is_a_volume_error(self, tmp_path):
        with pytest.raises(VolumeError, match="cannot read"):
            load_image_f32(tmp_path / "missing.f32")
        with pytest.raises(VolumeError, match="size must be positive"):
            Image(0, 5, np.zeros((5, 0, 4)))

    def test_two_by_two_gradient_golden(self, tmp_path):
        px = np.zeros((2, 2, 4), dtype=np.float32)
        px[0, 0, :3] = 0.0
        px[0, 1, :3] = 1.0 / 3.0
        px[1, 0, :3] = 2.0 / 3.0
        px[1, 1, :3] = 1.0
        img = Image(2, 2, px)
        p = tmp_path / "grad.ppm"
        save_image(img, p)
        want = b"P6\n2 2\n255\n" + bytes([0, 0, 0, 85, 85, 85, 170, 170, 170, 255, 255, 255])
        assert p.read_bytes() == want


class TestRenderWorkBounds:
    def job(self, **kw):
        grid = sample_field("constant(0.5)", (5, 5, 5))
        vol = mean_volume(grid)
        return RenderJob(vol, "mean", default_camera(vol, 4, 4), tf=band_tf(), **kw)

    @pytest.mark.parametrize("field", ["mc_samples", "tf2d_samples"])
    def test_sample_counts_must_be_integers(self, field):
        with pytest.raises(VolumeError, match="integer"):
            self.job(**{field: 2.5})
        assert getattr(self.job(**{field: np.int64(3)}), field) == 3

    def test_samples_per_ray_capped(self):
        vol = self.job().volume
        diagonal = np.linalg.norm(vol.world_max - vol.world_min) / min(vol.spacing)
        smallest = diagonal / render.MAX_RAY_SAMPLES
        self.job(step=smallest * 1.001)
        for step in (smallest * 0.999, 1e-300, 5e-324):
            with pytest.raises(VolumeError, match="samples"):
                self.job(step=step)


def small_volumes(dims=(7, 6, 8), spacing=(0.6, 0.9, 0.7), origin=(-1.0, 0.5, 0.2), seed=40):
    """One volume per model type on a smooth random field, plus its mean grid."""
    rng = np.random.default_rng(seed)
    nvox = dims[0] * dims[1] * dims[2]
    z, y, x = np.meshgrid(*(np.linspace(0, 1, n) for n in dims[::-1]), indexing="ij")
    base = (0.5 + 0.3 * np.sin(3 * x + 2 * y) * np.cos(2 * z)).ravel()
    base = base + 0.02 * rng.standard_normal(nvox)
    k = 2
    weights = rng.dirichlet(np.ones(k), nvox)
    q = 4
    incr = rng.uniform(0.0, 0.05, (nvox, q))
    incr[::5, 1] = 0.0  # zero-width pieces
    models = {
        "mean": MeanFieldModel(base),
        "gaussian": GaussianModel(base, np.where(np.arange(nvox) % 4 == 0, 0.0,
                                                 rng.uniform(0, 0.1, nvox))),
        "uniform": UniformModel(base, np.where(np.arange(nvox) % 3 == 0, 0.0,
                                               rng.uniform(0, 0.2, nvox))),
        "gmm": GmmVolumeModel(k, weights, base[:, None] + rng.normal(0, 0.1, (nvox, k)),
                              rng.uniform(0, 0.08, (nvox, k))),
        "quantile": QuantileModel(1.0 / q, np.cumsum(
            np.concatenate([base[:, None] - 0.1, incr], axis=1), axis=1)),
    }
    vols = {key: DistributionVolume(dims, spacing, origin, m) for key, m in models.items()}
    return vols, ScalarGrid(dims, spacing, origin, base)


SCHEME_VOLUME = {"mean": "mean", "gaussian": "gaussian", "uniform": "uniform",
                 "gmm-ordered": "gmm", "gmm-mc": "gmm", "quantile-range": "quantile",
                 "quantile-mean": "quantile", "tf2d": "uniform"}


def small_job(scheme, size=12, **kw):
    vols, mean_grid = small_volumes()
    vol = vols[SCHEME_VOLUME[scheme]]
    extra = ({"tf2": TransferFunction2D(np.random.default_rng(3).random((5, 6, 4)), 1.0),
              "mean_grid": mean_grid, "tf2d_samples": 16} if scheme == "tf2d"
             else {"tf": band_tf()})
    return RenderJob(vol, scheme, default_camera(vol, size, size), mc_samples=8,
                     **extra, **kw)


RENDER_KERNELS = ("uniform_sum_density_batch", "gauss_hermite_batch", "quantile_mean_batch",
                  "quantile_range_batch", "expected_color_2d_batch")


class TestRenderHooksReached:
    """The renderer reaches every kernel through its own module names, so
    wrapping those names sees all classification work."""

    @pytest.mark.parametrize("scheme, used", [
        ("mean", set()),
        ("uniform", {"uniform_sum_density_batch"}),
        ("gaussian", {"gauss_hermite_batch"}),
        ("gmm-ordered", {"gauss_hermite_batch"}),
        ("gmm-mc", set()),
        ("quantile-range", {"quantile_range_batch"}),
        ("quantile-mean", {"quantile_mean_batch"}),
        ("tf2d", {"expected_color_2d_batch"}),
    ])
    def test_scheme_calls_its_kernels(self, monkeypatch, scheme, used):
        calls = {name: 0 for name in RENDER_KERNELS + ("_classify_chunk", "tf.sample")}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in RENDER_KERNELS + ("_classify_chunk",):
            monkeypatch.setattr(render, name, counting(name, getattr(render, name)))
        monkeypatch.setattr(TransferFunction1D, "sample",
                            counting("tf.sample", TransferFunction1D.sample))
        render.raycast(small_job(scheme), threads=2)
        assert calls["_classify_chunk"] > 0
        assert {name for name in RENDER_KERNELS if calls[name]} == used
        if scheme in ("mean", "gmm-mc"):
            assert calls["tf.sample"] > 0
        if scheme == "uniform":  # the segment tables replace per-point lookups
            assert calls["tf.sample"] == 0

    def test_quartile_views_call_raycast_by_name(self, monkeypatch):
        vol = small_volumes()[0]["quantile"]
        job = RenderJob(vol, "quantile-range", default_camera(vol, 6, 6), tf=band_tf())
        calls = []
        orig = render.raycast

        def recording(j, threads=1):
            calls.append(j)
            return orig(j, threads)

        monkeypatch.setattr(render, "raycast", recording)
        render_quartile_views(vol, job)
        bnd = vol.model.boundaries
        assert [j.scheme for j in calls] == ["quantile-range"] * 3
        for j, (lo, hi) in zip(calls, [(0, 1), (1, 3), (3, 4)], strict=True):
            assert j.volume.model.qval == 1.0 / (hi - lo)
            assert np.array_equal(j.volume.model.boundaries, bnd[:, lo:hi + 1])


class TestRenderMatchesScalarPipeline:
    """Row i of the renderer's classification equals trilinear_coords, then
    the scalar interpolation, then the scalar color, at the same point."""

    @pytest.mark.parametrize("scheme", ["mean", "gaussian", "uniform", "quantile-range",
                                        "quantile-mean", "gmm-ordered", "tf2d"])
    def test_rows_agree(self, scheme, monkeypatch):
        from uqdvr.classify import (expected_color_2d, expected_color_parametric,
                                    expected_color_quantile_mean,
                                    expected_color_quantile_range)
        from uqdvr.density import KdeConfig
        from uqdvr.interp import (corner_weights, gradient_stencil, interp_gaussian,
                                  interp_gmm_ordered, interp_uniform, quantile_interp_3d,
                                  trilinear_coords)
        from uqdvr.volcore import GmmModel, QuantilePdf

        monkeypatch.setattr(render, "CONV_LATTICE", 100)  # a lattice other than the default
        job = small_job(scheme)
        vol, m, tf = job.volume, job.volume.model, job.tf
        rng = np.random.default_rng(len(scheme))
        pos = vol.world_min + rng.random((40, 3)) * (vol.world_max - vol.world_min)
        pos[:4] = [vol.world_min, vol.world_max, [vol.world_max[0], *vol.world_min[1:]],
                   0.5 * (vol.world_min + vol.world_max)]
        got = render._classify_chunk(render._SchemeState(job), pos, None)
        for i, p in enumerate(pos):
            c = trilinear_coords(vol.dims, vol.spacing, vol.origin, p)
            ids = [vol.flat_index(c.base[0] + (b & 1), c.base[1] + ((b >> 1) & 1),
                                  c.base[2] + ((b >> 2) & 1)) for b in range(8)]
            w = corner_weights(*c.frac)
            if scheme == "mean":
                want = expected_color_parametric(interp_gaussian(m.values[ids], np.zeros(8), w), tf)
            elif scheme == "gaussian":
                want = expected_color_parametric(interp_gaussian(m.mean[ids], m.sigma[ids], w), tf)
            elif scheme == "uniform":
                dens = interp_uniform(m.center[ids], m.width[ids], w,
                                      KdeConfig(lattice=render.CONV_LATTICE))
                want = expected_color_parametric(dens, tf)
            elif scheme.startswith("quantile"):
                pdf = quantile_interp_3d([QuantilePdf(m.qval, m.boundaries[j]) for j in ids],
                                         *c.frac)
                color = (expected_color_quantile_range if scheme == "quantile-range"
                         else expected_color_quantile_mean)
                want = color(pdf, tf)
            elif scheme == "gmm-ordered":
                gmms = [GmmModel(m.weights[j], m.means[j], m.sigmas[j]) for j in ids]
                want = expected_color_parametric(interp_gmm_ordered(gmms, w), tf)
            else:
                try:
                    st = gradient_stencil(vol.dims, vol.spacing, c, job.mean_grid)
                except VolumeError:
                    assert np.all(got[i] == 0.0)  # too close to the boundary
                    continue
                models = list(zip(m.center[st.indices], m.width[st.indices]))
                want = expected_color_2d(models, st, job.tf2, n=job.tf2d_samples, seed=job.seed)
            np.testing.assert_allclose(got[i], want, rtol=0, atol=1e-12)


def render_jobs():
    """Any RenderJob the constructors accept, on volumes of 2-5 voxels per
    axis, with zero widths and sigmas allowed and cameras inside or outside
    the volume; None when a constructor rejects the draw.  Model values and
    spreads share one magnitude, from subnormal up to F32_MAX / 8, so tiny
    spreads sit next to knots far larger than them and large values far
    beyond the knots."""
    values = st.floats(-2.0, 2.0)
    scales = st.one_of(st.just(0.0), st.floats(0.0, 1.0))
    magnitudes = st.one_of(st.just(1.0), st.sampled_from([5e-324, 1e-310, 1e30, F32_MAX / 8]),
                           st.floats(5e-324, F32_MAX / 8))

    @st.composite
    def jobs(draw):
        dims = tuple(draw(st.integers(2, 5)) for _ in range(3))
        nvox = dims[0] * dims[1] * dims[2]
        spacing = tuple(draw(st.floats(0.1, 3.0)) for _ in range(3))
        origin = tuple(draw(values) for _ in range(3))
        scheme = draw(st.sampled_from(render.SCHEMES))
        magnitude = draw(magnitudes)
        arr = lambda elems: np.array(draw(st.lists(elems, min_size=nvox, max_size=nvox)))
        field = lambda elems: arr(elems) * magnitude
        kind = SCHEME_VOLUME[scheme]
        if kind == "mean":
            model = MeanFieldModel(field(values))
        elif kind == "gaussian":
            model = GaussianModel(field(values), field(scales))
        elif kind == "uniform":
            model = UniformModel(field(values), field(scales))
        elif kind == "quantile":
            q = draw(st.sampled_from([1, 2, 4]))
            incr = np.stack([field(scales) for _ in range(q)], axis=1)
            model = QuantileModel(1.0 / q, np.cumsum(np.concatenate(
                [field(values)[:, None], incr], axis=1), axis=1))
            if draw(st.booleans()):  # pieces lo..hi, rendered as a sliced volume
                lo_q = draw(st.integers(0, q - 1))
                hi_q = draw(st.integers(lo_q + 1, q))
                model = QuantileModel(1.0 / (hi_q - lo_q), model.boundaries[:, lo_q:hi_q + 1])
        else:
            k = draw(st.integers(1, 3))
            w = np.stack([arr(st.floats(0.0, 1.0)) for _ in range(k)], axis=1) + 1e-3
            model = GmmVolumeModel(k, w / w.sum(axis=1, keepdims=True),
                                   np.stack([field(values) for _ in range(k)], axis=1),
                                   np.stack([field(scales) for _ in range(k)], axis=1))
        vol = DistributionVolume(dims, spacing, origin, model)
        lo, hi = vol.world_min, vol.world_max
        inside = draw(st.booleans())
        t = np.array([draw(st.floats(0.0, 1.0)) for _ in range(3)])
        eye = lo + t * (hi - lo) if inside else hi + (hi - lo + 1.0) * draw(st.floats(0.5, 2.0))
        look = lo + np.array([draw(st.floats(0.0, 1.0)) for _ in range(3)]) * (hi - lo)
        extra = {"tf": band_tf()}
        if scheme == "tf2d":
            extra = {"tf2": TransferFunction2D(np.random.default_rng(0).random((3, 4, 4)), 1.0),
                     "mean_grid": ScalarGrid(dims, spacing, origin, field(values)),
                     "tf2d_samples": draw(st.sampled_from([1, 2, 8]))}
        try:
            cam = Camera(tuple(eye), tuple(look), (0.0, 0.0, 1.0), draw(st.floats(10, 120)), 3, 2)
            return RenderJob(vol, scheme, cam, step=draw(st.floats(0.2, 1.5)),
                             mc_samples=draw(st.integers(1, 4)),
                             seed=draw(st.integers(0, 3)), **extra)
        except VolumeError:
            return None

    return jobs()


class TestRaycastFuzz:
    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(render_jobs())
    def test_valid_jobs_render_finite_pixels_in_unit_range(self, job):
        assume(job is not None)
        px = raycast(job, threads=1).pixels
        assert np.all(np.isfinite(px))
        assert px.min() >= 0.0 and px.max() <= 1.0

    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(render_jobs())
    def test_valid_jobs_match_the_dense_loop(self, job):
        assume(job is not None)
        dense = raycast_dense(job).pixels
        for threads in (1, 2):
            assert np.array_equal(raycast(job, threads=threads).pixels, dense)


def ulps(x: float, n: int) -> float:
    """x moved by n units in the last place (up for n > 0)."""
    for _ in range(abs(n)):
        x = np.nextafter(x, np.inf if n > 0 else -np.inf)
    return float(x)


def steep_tf(c: float) -> TransferFunction1D:
    """Zero-alpha runs (-inf, 0.75c] and [1.25c, inf) whose alpha reaches 1
    within 4 ulps of each end, so a sample that strays an ulp past an end
    changes the image."""
    lo, hi = 0.75 * c, 1.25 * c
    return TransferFunction1D([
        [lo, 0.2, 0.4, 0.6, 0.0],
        [ulps(lo, 4), 0.9, 0.5, 0.1, 1.0],
        [c, 0.3, 0.8, 0.3, 0.4],
        [ulps(hi, -4), 0.1, 0.2, 0.9, 1.0],
        [hi, 0.5, 0.5, 0.5, 0.0],
    ])


@st.composite
def leap_jobs(draw):
    """mean and quantile jobs on 6-16 voxels per axis of empty space (values
    deep inside a zero-alpha run of steep_tf) holding 1-3 boxes whose values
    sit on a run end or within 4 ulps of it, or are visible, or both."""
    c = draw(st.one_of(st.sampled_from([1.0, 1e-280, 1e30, F32_MAX / 8]),
                       st.floats(1e-280, F32_MAX / 8)))
    dims = tuple(draw(st.integers(6, 16)) for _ in range(3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scheme = draw(st.sampled_from(["mean", "quantile-mean", "quantile-range"]))
    q = draw(st.sampled_from([1, 2, 4])) if scheme != "mean" else 0
    values = np.full(dims[::-1] + (q + 1,), draw(st.sampled_from([0.25 * c, 2.0 * c])))
    for _ in range(draw(st.integers(1, 3))):
        lo = rng.integers(0, dims[::-1])
        box = values[tuple(slice(a, a + n) for a, n in zip(lo, rng.integers(1, 7, 3)))]
        end = (0.75 * c, 1.25 * c)[rng.integers(2)]
        first = draw(st.integers(-4, 4))  # a window of 1-3 ulp offsets from the end
        near_end = [ulps(end, n) for n in range(first, min(first + draw(st.integers(1, 3)), 5))]
        visible = list(c * rng.uniform(0.8, 1.2, 4))
        pools = [[end], near_end, visible, near_end + visible]
        box[...] = rng.choice(draw(st.sampled_from(pools)), box.shape)
    values = np.sort(values.reshape(-1, q + 1), axis=1)
    spacing = tuple(draw(st.floats(0.5, 2.0)) for _ in range(3))
    origin = tuple(draw(st.floats(-3.0, 3.0)) for _ in range(3))
    model = (MeanFieldModel(values[:, 0]) if scheme == "mean"
             else QuantileModel(1.0 / q, values))
    vol = DistributionVolume(dims, spacing, origin, model)
    direction = tuple(draw(st.floats(-1.0, 1.0)) for _ in range(3))
    assume(max(abs(direction[0]), abs(direction[1])) > 0.1)  # not parallel to up
    cam = default_camera(vol, 10, 8, direction=direction, distance=draw(st.floats(0.8, 2.5)))
    return RenderJob(vol, scheme, cam, tf=steep_tf(c), step=draw(st.floats(0.2, 1.5)))


class TestEmptySpaceLeaps:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(leap_jobs())
    def test_leaps_keep_every_byte(self, job):
        assume(render._SchemeState(job).dist is not None)  # some cell is empty
        assert np.array_equal(raycast(job).pixels, raycast_dense(job).pixels)

    def test_table_holds_chessboard_distances(self):
        # One visible voxel at (4, 5, 6): the cells with it as a corner are at
        # distance 0, and distances grow by one per ring up to the cap.
        dims = (12, 11, 10)
        values = np.full(dims[::-1], -1.0)
        values[6, 5, 4] = 0.5
        vol = DistributionVolume(dims, (1, 1, 1), (0, 0, 0), MeanFieldModel(values.ravel()))
        job = RenderJob(vol, "mean", default_camera(vol, 4, 4), tf=band_tf())
        got = render._SchemeState(job).dist.reshape(dims[::-1])[:-1, :-1, :-1]
        k, j, i = np.meshgrid(*(np.arange(n - 1) for n in dims[::-1]), indexing="ij")
        ring = np.maximum.reduce([np.maximum(np.maximum(6 - 1 - k, k - 6), 0),
                                  np.maximum(np.maximum(5 - 1 - j, j - 5), 0),
                                  np.maximum(np.maximum(4 - 1 - i, i - 4), 0)])
        assert np.array_equal(got, np.minimum(ring, render.EMPTY_DISTANCE_CAP))

    def test_table_build_erodes_in_place(self):
        # At 128^3 the slabs of run codes are smaller than the grid, so the
        # peak is the table, the cells' bool level and one erosion buffer.
        grid = sample_field("nested-spheres", (128, 128, 128))
        vol = mean_volume(grid)
        job = RenderJob(vol, "mean", presets.spheres_camera(vol, 8, 8), tf=presets.spheres_tf())
        tracemalloc.start()
        try:
            assert render._SchemeState(job).dist is not None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.6 * grid.values.size

    def test_schemes_without_a_leap_rule_have_no_table(self):
        for scheme in ("gaussian", "uniform", "gmm-ordered", "gmm-mc", "tf2d"):
            assert render._SchemeState(small_job(scheme)).dist is None


def test_uniform_render_with_subnormal_width_is_finite():
    widths = np.zeros(30)
    widths[-1] = 3.54463326e-283
    vol = DistributionVolume((2, 3, 5), (1, 1, 1), (0, 0, 0), UniformModel(np.zeros(30), widths))
    cam = Camera((3.0, 5.0, 9.0), (0.0, 0.0, 0.0), (0.0, 0.0, 1.0), 10.0, 3, 2)
    px = raycast(RenderJob(vol, "uniform", cam, tf=band_tf(), step=1.0)).pixels
    assert np.all(np.isfinite(px))


@pytest.mark.parametrize("width", [1e-310, 5e-324])
def test_uniform_render_with_a_subnormal_lattice_step_is_finite(width):
    # The lattice step is subnormal, or 0 where the width underflows: a knot's
    # offset from the lattice, divided by the step, would overflow.  Values
    # within 1e-310 of the TF's first knot render as the zero-width volume.
    cam = Camera((3.0, 5.0, 9.0), (0.0, 0.0, 0.0), (0.0, 0.0, 1.0), 10.0, 3, 2)
    images = []
    for w in (width, 0.0):
        widths = np.full(30, w)
        vol = DistributionVolume((2, 3, 5), (1, 1, 1), (0, 0, 0),
                                 UniformModel(np.zeros(30), widths))
        images.append(raycast(RenderJob(vol, "uniform", cam, tf=band_tf(), step=1.0)).pixels)
    assert np.all(np.isfinite(images[0]))
    assert np.array_equal(images[0], images[1])

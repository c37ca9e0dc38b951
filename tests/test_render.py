import numpy as np
import pytest

from uqdvr import render
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
    DistributionVolume,
    GaussianModel,
    GmmVolumeModel,
    MeanFieldModel,
    QuantileModel,
    ScalarGrid,
    UniformModel,
    VolumeError,
)


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
        ("conv_lattice", 1), ("conv_lattice", 0),
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
                  mc_samples=1, tf2d_samples=1, conv_lattice=2)


def argmax_gmm_mc_chunk(state, pos, rng):
    """The gmm-mc classification with the argmax component pick and
    take_along_axis gathers that the count-based pick replaced."""
    job = state.job
    vol = job.volume
    m = vol.model
    nx, ny, nz = vol.dims
    nd = np.array([nx, ny, nz], dtype=np.float64)
    g = np.clip((pos - vol.world_min[None, :]) / np.asarray(vol.spacing)[None, :], 0.0, nd - 1.0)
    base = np.maximum(np.minimum(g.astype(np.int64), (nd - 2).astype(np.int64)), 0)
    frac = g - base
    flat = base[:, 0] + nx * (base[:, 1] + ny * base[:, 2])
    bits = np.arange(8)
    w8 = (np.stack([1 - frac[:, 0], frac[:, 0]], 1)[:, bits & 1]
          * np.stack([1 - frac[:, 1], frac[:, 1]], 1)[:, (bits >> 1) & 1]
          * np.stack([1 - frac[:, 2], frac[:, 2]], 1)[:, (bits >> 2) & 1])
    idx8 = flat[:, None] + state.corner_flat[None, :]
    a, n = pos.shape[0], job.mc_samples
    x = np.zeros((a, n))
    for c in range(8):
        vox = idx8[:, c]
        cum = np.cumsum(m.weights[vox], axis=1)
        cum[:, -1] = 1.0
        u = rng.random((a, n))
        comp = (u[:, None, :] < cum[:, :, None]).argmax(axis=1)
        mval = np.take_along_axis(m.means[vox], comp, axis=1)
        sval = np.take_along_axis(m.sigmas[vox], comp, axis=1)
        x += w8[:, c][:, None] * (mval + sval * rng.standard_normal((a, n)))
    return job.tf.sample(x).mean(axis=1)


class TestGmmMcComponentPick:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_pixels_match_argmax_pick(self, k, monkeypatch):
        rng = np.random.default_rng(30 + k)
        dims = (7, 6, 5)
        nvox = 7 * 6 * 5
        weights = rng.dirichlet(np.ones(k), nvox)
        if k > 1:
            weights[::4, 0] = 0.0  # empty components
            weights[::4] /= weights[::4].sum(axis=1, keepdims=True)
            weights[1::5] = np.eye(k)[rng.integers(0, k, weights[1::5].shape[0])]
        means = rng.uniform(0.0, 1.0, (nvox, k))
        sigmas = rng.uniform(0.0, 0.15, (nvox, k))
        vol = DistributionVolume(dims, (1, 1, 1), (0, 0, 0),
                                 GmmVolumeModel(k, weights, means, sigmas))
        job = RenderJob(vol, "gmm-mc", default_camera(vol, 20, 16), tf=band_tf(),
                        seed=k, mc_samples=12)
        got = raycast(job, threads=2)
        monkeypatch.setattr(render, "_classify_chunk", argmax_gmm_mc_chunk)
        want = raycast(job, threads=2)
        assert np.array_equal(got.pixels, want.pixels)


class TestRaycast:
    def test_zero_opacity_gives_background(self):
        grid = sample_field("tangle", (8, 8, 8))
        vol = mean_volume(grid)
        tf = TransferFunction1D([[0.0, 1, 1, 1, 0.0], [1.0, 1, 1, 1, 0.0]])
        cam = default_camera(vol, 16, 12)
        job = RenderJob(vol, "mean", cam, tf=tf, background=(0.2, 0.3, 0.4, 1.0))
        img = raycast(job)
        expect = np.array([0.2, 0.3, 0.4, 1.0], dtype=np.float32)
        assert np.all(img.pixels == expect[None, None, :])

    def test_single_slab_matches_hand_chain(self):
        value, color, alpha = 0.5, (0.9, 0.4, 0.1), 0.6
        grid = ScalarGrid((2, 8, 8), (1, 1, 1), (0, 0, 0), np.full(128, value))
        vol = mean_volume(grid)
        cam = Camera((-3.0, 3.5, 3.5), (0.5, 3.5, 3.5), (0, 0, 1), 10, 3, 3)
        job = RenderJob(vol, "mean", cam, tf=constant_tf(color, alpha), step=0.5,
                        background=(0, 0, 0, 0))
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
        np.testing.assert_allclose(center[3], 1.0 - t, atol=1e-6)

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
        manual = raycast(RenderJob(vol, "quantile-range", cam, tf=band_tf(),
                                   quantile_subrange=(2, 6)))
        assert np.array_equal(middle.pixels, manual.pixels)

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
        save_image(img, p, sidecar=False)
        assert p.read_bytes() == b"P6\n1 1\n255\n\xff\xff\xff"

    def test_f32_sidecar_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        img = Image(5, 3, rng.random((3, 5, 4)).astype(np.float32))
        p = tmp_path / "img.ppm"
        save_image(img, p)
        back = load_image_f32(tmp_path / "img.ppm.f32")
        assert np.array_equal(back.pixels, img.pixels)

    def test_two_by_two_gradient_golden(self, tmp_path):
        px = np.zeros((2, 2, 4), dtype=np.float32)
        px[0, 0, :3] = 0.0
        px[0, 1, :3] = 1.0 / 3.0
        px[1, 0, :3] = 2.0 / 3.0
        px[1, 1, :3] = 1.0
        img = Image(2, 2, px)
        p = tmp_path / "grad.ppm"
        save_image(img, p, sidecar=False)
        want = b"P6\n2 2\n255\n" + bytes([0, 0, 0, 85, 85, 85, 170, 170, 170, 255, 255, 255])
        assert p.read_bytes() == want

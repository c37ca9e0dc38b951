"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v`.  The tangle and nested-spheres
comparisons run the declared manifests at full scale, so this module takes
several minutes.
"""

import time

import numpy as np
import pytest
from scipy.special import ndtr

from uqdvr import presets
from uqdvr.classify import (
    GradientStencil,
    TransferFunction1D,
    TransferFunction2D,
    expected_color_2d,
    expected_color_quantile_mean,
    expected_color_quantile_range,
    gradient_stencil,
)
from uqdvr.cli import main as cli_main
from uqdvr.cli import run_experiment
from uqdvr.density import KdeConfig, build_distribution_volume, estimate_quantiles
from uqdvr.interp import (
    corner_weights,
    ks_distance,
    mc_oracle_interp,
    quantile_interp_3d,
    quantile_interp_3d_rational,
    trilinear_coords,
)
from uqdvr.render import RenderJob, default_camera, diff_image, raycast, render_quartile_views
from uqdvr.synth import NoiseSpec, make_ensemble, sample_field
from uqdvr.volcore import DistributionVolume, QuantileModel, QuantilePdf, ScalarGrid

pytestmark = pytest.mark.slow


def report(criterion, ok, detail=""):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, detail


@pytest.fixture(scope="session")
def tangle_m50(tmp_path_factory):
    """The declared tangle comparison, M=50, single-threaded and timed."""
    manifest = presets.tangle_manifest(members=(50,))
    start = time.monotonic()
    rows = run_experiment(manifest, tmp_path_factory.mktemp("tangle_m50"), threads=1)
    elapsed = time.monotonic() - start
    return {(r["scheme"], r["q"]): r["rmse"] for r in rows}, elapsed


@pytest.fixture(scope="session")
def tangle_m5(tmp_path_factory):
    manifest = presets.tangle_manifest(members=(5,))
    rows = run_experiment(manifest, tmp_path_factory.mktemp("tangle_m5"), threads=4)
    return {(r["scheme"], r["q"]): r["rmse"] for r in rows}


class TestC01OracleEquivalence:
    def test_trilinear_blend_matches_mc_oracle(self):
        # 20 random cells; corner PDFs estimated from 2e6 samples each at
        # qval=0.001; KS(closed form, MC oracle at n=1e6) < 0.02 per cell.
        rng = np.random.default_rng(20240811)
        qval, n_est, n_mc = 0.001, 2 * 10**6, 10**6
        weights = corner_weights(0.5, 0.5, 0.5)
        cfg = KdeConfig(lattice=4096)
        start = time.monotonic()
        worst = 0.0
        for cell in range(20):
            sets, corners = [], []
            for _ in range(8):
                k = rng.integers(2, 4)
                w = rng.dirichlet(np.ones(k))
                mus = rng.uniform(0.15, 0.85, k)
                sgs = rng.uniform(0.04, 0.1, k)
                comp = rng.choice(k, n_est, p=w)
                s = mus[comp] + sgs[comp] * rng.standard_normal(n_est)
                sets.append(s)
                corners.append(estimate_quantiles(s, qval, cfg))
            blended = quantile_interp_3d(corners, 0.5, 0.5, 0.5)
            oracle = mc_oracle_interp(sets, weights, n_mc, seed=1000 + cell)
            ks = ks_distance(blended, oracle)
            worst = max(worst, ks)
            assert ks < 0.02, f"cell {cell}: KS {ks}"
        elapsed = time.monotonic() - start
        report("C01 interpolated-cdf-vs-mc-oracle", worst < 0.02 and elapsed < 120,
               f"worst KS={worst:.4f} runtime={elapsed:.0f}s")


class TestC02SimplificationIdentity:
    def test_rational_equals_blend(self):
        rng = np.random.default_rng(2)
        worst = 0.0
        for _ in range(1000):
            q = int(rng.choice([2, 4, 8]))
            corners = []
            for _ in range(8):
                incr = rng.uniform(1e-3, 2.0, q + 1)
                incr[0] = rng.uniform(-1, 1)
                corners.append(QuantilePdf(1.0 / q, np.cumsum(incr)))
            abg = rng.random(3)
            blend = quantile_interp_3d(corners, *abg).densities()
            rational = quantile_interp_3d_rational(corners, *abg)
            rel = np.max(np.abs(rational - blend) / blend)
            worst = max(worst, rel)
        report("C02 rational-form-vs-boundary-blend", worst < 1e-9, f"worst rel={worst:.2e}")


class TestC03VertexRecoveryShapePreservation:
    def test_vertex_recovery_exact(self):
        rng = np.random.default_rng(3)
        corners = []
        for _ in range(8):
            incr = rng.uniform(0.0, 1.0, 9)
            incr[0] = rng.uniform(-1, 1)
            corners.append(QuantilePdf(0.125, np.cumsum(incr)))
        exact = True
        for idx in range(8):
            abg = (float(idx & 1), float((idx >> 1) & 1), float((idx >> 2) & 1))
            out = quantile_interp_3d(corners, *abg)
            exact &= bool(np.array_equal(out.boundaries, corners[idx].boundaries))
        rng2 = np.random.default_rng(4)
        base = QuantilePdf(0.125, np.cumsum(rng2.uniform(0.01, 1.0, 9)))
        shifts = rng2.uniform(-3, 3, 8)
        shifted = [QuantilePdf(0.125, base.boundaries + s) for s in shifts]
        const_dev = 0.0
        for _ in range(20):
            out = quantile_interp_3d(shifted, *rng2.random(3))
            diffs = out.boundaries - base.boundaries
            const_dev = max(const_dev, float(np.max(diffs) - np.min(diffs)))
        report("C03 vertex-recovery-shape-preservation",
               exact and const_dev < 1e-9,
               f"vertex_exact={exact} shape_dev={const_dev:.2e}")


def _brute_force_expected(pdf: QuantilePdf, tf: TransferFunction1D, n=10**6):
    """Midpoint-rule quadrature of the expected-TF integral, via searchsorted."""
    lo, hi = pdf.boundaries[0], pdf.boundaries[-1]
    x = lo + (np.arange(n) + 0.5) * (hi - lo) / n
    piece = np.clip(np.searchsorted(pdf.boundaries, x, side="right") - 1, 0, pdf.q - 1)
    widths = np.diff(pdf.boundaries)
    dens = pdf.qval / widths[piece]
    w = dens * (hi - lo) / n
    w /= w.sum()
    return np.einsum("n,nc->c", w, tf.sample(x))


def _random_tf(rng, npts=6):
    x = np.concatenate([[0.0], np.sort(rng.uniform(0.05, 0.95, npts - 2)), [1.0]])
    while np.any(np.diff(x) < 1e-3):
        x = np.concatenate([[0.0], np.sort(rng.uniform(0.05, 0.95, npts - 2)), [1.0]])
    return TransferFunction1D(np.column_stack([x, rng.random((npts, 4))]))


class TestC04TfIntegrationOracle:
    def test_schemes_match_brute_force(self):
        rng = np.random.default_rng(44)
        worst_range, worst_mean, worst_gap = 0.0, 0.0, 0.0
        for _ in range(100):
            tf = _random_tf(rng)
            # General unequal-width pdf: the range scheme integrates exactly.
            q = int(rng.choice([4, 8, 16]))
            incr = rng.uniform(1e-3, 0.2, q + 1)
            incr[0] = rng.uniform(0.0, 0.3)
            general = QuantilePdf(1.0 / q, np.cumsum(incr))
            got = expected_color_quantile_range(general, tf)
            want = _brute_force_expected(general, tf)
            worst_range = max(worst_range, float(np.max(np.abs(got - want))))
            # Equal-width pdf at q=1000, where the midpoint scheme's
            # density-proportional weights coincide with the piece masses.
            lo = rng.uniform(0.0, 0.4)
            hi = lo + rng.uniform(0.2, 0.6)
            flat = QuantilePdf(1e-3, np.linspace(lo, hi, 1001))
            qr = expected_color_quantile_range(flat, tf)
            qm = expected_color_quantile_mean(flat, tf)
            bf = _brute_force_expected(flat, tf)
            worst_mean = max(worst_mean, float(np.max(np.abs(qm - bf))))
            worst_range = max(worst_range, float(np.max(np.abs(qr - bf))))
            worst_gap = max(worst_gap, float(np.max(np.abs(qr - qm))))
        ok = worst_range < 1e-4 and worst_mean < 1e-4 and worst_gap < 1e-3
        report("C04 tf-integration-oracle", ok,
               f"range_err={worst_range:.2e} mean_err={worst_mean:.2e} gap@q1000={worst_gap:.2e}")


class TestC05TangleRmseOrdering:
    def test_ordering_and_runtime(self, tangle_m50):
        v, elapsed = tangle_m50
        mean, unif = v[("mean", "")], v[("uniform", "")]
        gauss, qm8 = v[("gaussian", "")], v[("quantile-mean", 8)]
        ok = (qm8 < gauss < mean) and (unif < mean) and elapsed < 600
        report("C05 tangle-rmse-ordering", ok,
               f"qm8={qm8:.4f} gauss={gauss:.4f} mean={mean:.4f} unif={unif:.4f} "
               f"runtime={elapsed:.0f}s")


class TestC06QuantileCountSensitivity:
    def test_m50_q4_not_worse_than_q2(self, tangle_m50, tangle_m5):
        v50, _ = tangle_m50
        q2, q4, q8 = (v50[("quantile-mean", q)] for q in (2, 4, 8))
        m5 = {q: tangle_m5[("quantile-mean", q)] for q in (2, 4, 8)}
        ok = q4 <= q2
        report("C06 quantile-count-sensitivity", ok,
               f"M50: q2={q2:.4f} q4={q4:.4f} q8={q8:.4f} | "
               f"M5: q2={m5[2]:.4f} q4={m5[4]:.4f} q8={m5[8]:.4f} "
               f"(M5 inversion permitted)")


class TestC07HixelDownsampling:
    def test_nested_spheres_quantile_beats_mean(self, tmp_path):
        rows = run_experiment(presets.spheres_manifest(), tmp_path, threads=1)
        v = {r["scheme"]: r["rmse"] for r in rows}
        ok = v["quantile-mean"] < v["mean"]
        report("C07 hixel-downsampling", ok,
               f"qm8={v['quantile-mean']:.4f} mean={v['mean']:.4f}")


class TestC08GradientExactness:
    def test_linear_field_exact(self):
        n = 12
        a, b, c = 0.37, -0.81, 1.23
        idx = np.arange(n, dtype=float)
        z, y, x = np.meshgrid(idx, idx, idx, indexing="ij")
        grid = ScalarGrid((n, n, n), (1, 1, 1), (0, 0, 0), (a * x + b * y + c * z).ravel())
        rng = np.random.default_rng(8)
        worst = 0.0
        for _ in range(1000):
            p = rng.uniform(1.5, n - 2.5, 3)
            coords = trilinear_coords(grid.dims, grid.spacing, grid.origin, p)
            st = gradient_stencil(grid.dims, grid.spacing, coords, grid)
            worst = max(worst, float(np.max(np.abs(st.mean_gradient - [a, b, c]))))
        ok_linear = worst < 1e-6

        # Random smooth field: blended central differences against finite
        # differences of the trilinearly interpolated mean field.
        m = 48
        idx = np.arange(m, dtype=float)
        z, y, x = np.meshgrid(idx, idx, idx, indexing="ij")
        vals = 0.05 * x + 0.04 * y + 0.06 * z
        for _ in range(3):
            cx, cy, cz = rng.uniform(10, 38, 3)
            s = rng.uniform(26, 36)
            vals += rng.uniform(0.5, 1.0) * np.exp(
                -((x - cx) ** 2 + (y - cy) ** 2 + (z - cz) ** 2) / (2 * s * s))
        sgrid = ScalarGrid((m, m, m), (1, 1, 1), (0, 0, 0), vals.ravel())

        def trilerp(g, p):
            gg = (np.asarray(p, float) - np.asarray(g.origin)) / np.asarray(g.spacing)
            base = np.minimum(gg.astype(int), np.asarray(g.dims) - 2)
            f = gg - base
            out = 0.0
            for ci in range(8):
                dx, dy, dz = ci & 1, (ci >> 1) & 1, (ci >> 2) & 1
                w = ((f[0] if dx else 1 - f[0]) * (f[1] if dy else 1 - f[1])
                     * (f[2] if dz else 1 - f[2]))
                out += w * g.at(base[0] + dx, base[1] + dy, base[2] + dz)
            return out

        h = 1e-4
        worst_rel = 0.0
        for _ in range(50):
            base = rng.integers(4, m - 5, 3)
            p = base + 0.5
            coords = trilinear_coords(sgrid.dims, sgrid.spacing, sgrid.origin, p)
            st = gradient_stencil(sgrid.dims, sgrid.spacing, coords, sgrid)
            fd = np.array([(trilerp(sgrid, p + h * e) - trilerp(sgrid, p - h * e)) / (2 * h)
                           for e in np.eye(3)])
            rel = np.linalg.norm(st.mean_gradient - fd) / np.linalg.norm(fd)
            worst_rel = max(worst_rel, float(rel))
        ok_smooth = worst_rel < 1e-3
        report("C08 gradient-exactness", ok_linear and ok_smooth,
               f"linear_err={worst:.2e} smooth_rel={worst_rel:.2e}")


class TestC09TwoDTfChecks:
    def test_degenerate_and_oracle(self):
        rng = np.random.default_rng(9)
        tf2 = TransferFunction2D(rng.random((8, 8, 4)), gmax=1.0)
        st = GradientStencil(np.array([0, 1]), np.array([0.6, 0.4]),
                             np.array([0.8, -0.3]), np.zeros((3, 2)),
                             np.array([1.0, 0.0, 0.0]), False)
        out = expected_color_2d([(0.5, 0.0), (0.9, 0.0)], st, tf2, n=64, seed=0)
        x = 0.6 * 0.5 + 0.4 * 0.9
        yv = np.clip(0.8 * 0.5 - 0.3 * 0.9, 0.0, 1.0)
        degen_err = float(np.max(np.abs(out - tf2.sample(x, yv))))

        w = np.array([0.55, 0.45])
        u = np.array([0.9, -0.5])
        centers = np.array([0.45, 0.65])
        widths = np.array([0.3, 0.2])
        st2 = GradientStencil(np.array([0, 1]), w, u, np.zeros((3, 2)),
                              np.array([1.0, 0.0, 0.0]), False)
        got = expected_color_2d(list(zip(centers, widths)), st2, tf2, n=2**16, seed=2)
        npts = 1200
        x1 = centers[0] + widths[0] * ((np.arange(npts) + 0.5) / npts - 0.5)
        x2 = centers[1] + widths[1] * ((np.arange(npts) + 0.5) / npts - 0.5)
        g1, g2 = np.meshgrid(x1, x2, indexing="ij")
        xs = w[0] * g1 + w[1] * g2
        ys = np.clip(u[0] * g1 + u[1] * g2, 0, tf2.gmax)
        want = tf2.sample(xs.ravel(), ys.ravel()).mean(axis=0)
        conv_err = float(np.max(np.abs(got - want)))
        ok = degen_err < 1e-12 and conv_err < 5e-3
        report("C09 tf2d-degenerate-and-oracle", ok,
               f"degenerate_err={degen_err:.2e} conv_oracle_err={conv_err:.2e}")


class TestC10DeterminismSuite:
    def test_commands_byte_identical_across_workers(self, tmp_path, capsys):
        gt = sample_field("tangle", (12, 12, 12))
        from uqdvr.synth import save_ensemble

        ens = make_ensemble(gt, NoiseSpec("bimodal", sigma=0.05, offset=0.7,
                                          members=10, seed=6))
        ens_dir = tmp_path / "ens"
        save_ensemble(ens, ens_dir)

        def run(argv):
            assert cli_main(argv) == 0
            capsys.readouterr()

        failures = []
        # Estimation commands across 1/4/8 workers and repeated runs.
        for model, extra in (("quantile", ["--qval", "0.125"]), ("gmm", ["--k", "2"])):
            outs = []
            for tag, threads in (("t1", 1), ("t4", 4), ("t8", 8), ("t1b", 1)):
                out = tmp_path / f"est_{model}_{tag}.vol"
                run(["--threads", str(threads), "estimate", "--ensemble", str(ens_dir),
                     "--model", model, *extra, "--seed", "3", "--out", str(out)])
                outs.append(out.read_bytes())
            if not all(o == outs[0] for o in outs):
                failures.append(f"estimate:{model}")

        # Render commands for every scheme.
        vols = {
            "mean": build_distribution_volume(ens, "mean"),
            "uniform": build_distribution_volume(ens, "uniform"),
            "gaussian": build_distribution_volume(ens, "gaussian"),
            "gmm": build_distribution_volume(ens, "gmm", k=2),
            "quantile": build_distribution_volume(ens, "quantile", qval=0.125),
        }
        from uqdvr.volcore import save_dvol, save_qvol

        files = {}
        for name, vol in vols.items():
            p = tmp_path / f"{name}.vol"
            (save_qvol if name == "quantile" else save_dvol)(vol, p)
            files[name] = p
        mean_raw = tmp_path / "mean.f32raw"
        from uqdvr.volcore import save_raw

        save_raw(ScalarGrid(vols["mean"].dims, vols["mean"].spacing, vols["mean"].origin,
                            vols["mean"].model.values), mean_raw, "f32")
        tf2_path = tmp_path / "tf2.bin"
        from uqdvr.classify import save_tf2d

        rng = np.random.default_rng(0)
        save_tf2d(TransferFunction2D(rng.random((8, 8, 4)), 1.0), tf2_path)

        scheme_args = {
            "mean": ["--volume", str(files["mean"]), "--tf", "preset:tangle"],
            "uniform": ["--volume", str(files["uniform"]), "--tf", "preset:tangle"],
            "gaussian": ["--volume", str(files["gaussian"]), "--tf", "preset:tangle"],
            "gmm-ordered": ["--volume", str(files["gmm"]), "--tf", "preset:tangle"],
            "gmm-mc": ["--volume", str(files["gmm"]), "--tf", "preset:tangle",
                       "--mc-samples", "16"],
            "quantile-range": ["--volume", str(files["quantile"]), "--tf", "preset:tangle"],
            "quantile-mean": ["--volume", str(files["quantile"]), "--tf", "preset:tangle"],
            "tf2d": ["--volume", str(files["uniform"]), "--tf2d", str(tf2_path),
                     "--mean-volume", str(mean_raw), "--tf2d-samples", "64"],
        }
        for scheme, args in scheme_args.items():
            outs = []
            for tag, threads in (("t1", 1), ("t4", 4), ("t8", 8), ("t1b", 1)):
                out = tmp_path / f"r_{scheme}_{tag}.ppm"
                run(["--threads", str(threads), "render", "--scheme", scheme, *args,
                     "--camera", "preset:tangle", "--size", "24x20", "--seed", "5",
                     "--out", str(out)])
                outs.append(out.read_bytes() + out.with_suffix(".ppm.f32").read_bytes())
            if not all(o == outs[0] for o in outs):
                failures.append(f"render:{scheme}")
        report("C10 determinism-suite", not failures, f"failures={failures or 'none'}")


class TestC11QuartileViewCoherence:
    def test_zero_noise_views_identical(self):
        gt = sample_field("tangle", (16, 16, 16))
        boundaries = np.tile(gt.values[:, None], (1, 9))
        vol = DistributionVolume(gt.dims, gt.spacing, gt.origin,
                                 QuantileModel(0.125, boundaries))
        cam = presets.tangle_camera(vol, 64, 64)
        job = RenderJob(vol, "quantile-range", cam, tf=presets.tangle_tf())
        lower, middle, upper = render_quartile_views(vol, job)
        _, rmse_lm = diff_image(lower, middle)
        _, rmse_lu = diff_image(lower, upper)
        _, rmse_mu = diff_image(middle, upper)
        worst = max(rmse_lm, rmse_lu, rmse_mu)
        report("C11a quartile-zero-noise", worst < 1e-6, f"pairwise rmse<={worst:.2e}")

    def test_localized_noise_shows_in_region(self):
        dims = (32, 32, 32)
        gt = sample_field("tangle", dims)
        idx = np.arange(32, dtype=float)
        zz, yy, xx = np.meshgrid(idx, idx, idx, indexing="ij")
        center = np.array([20.0, 16.0, 16.0])  # (x, y, z) in grid units
        radius = 6.0
        ball = (np.sqrt((xx - center[0]) ** 2 + (yy - center[1]) ** 2
                        + (zz - center[2]) ** 2) < radius).ravel()
        rng = np.random.default_rng(11)
        members = []
        for _ in range(24):
            noise = np.where(ball, rng.normal(0.0, 0.25, gt.voxel_count), 0.0)
            members.append(ScalarGrid(dims, gt.spacing, gt.origin, gt.values + noise))
        from uqdvr.volcore import EnsembleVolume

        ens = EnsembleVolume(tuple(members))
        vol = build_distribution_volume(ens, "quantile", qval=0.125)
        width = height = 96
        cam = presets.tangle_camera(vol, width, height)
        job = RenderJob(vol, "quantile-range", cam, tf=presets.tangle_tf())
        lower, middle, upper = render_quartile_views(vol, job)
        d = np.abs(lower.pixels[..., :3].astype(np.float64).mean(axis=2)
                   - upper.pixels[..., :3].astype(np.float64).mean(axis=2))

        # Project the noised ball to image space with the camera model.
        eye = np.asarray(cam.eye)
        fwd = np.asarray(cam.look_at) - eye
        fwd /= np.linalg.norm(fwd)
        right = np.cross(fwd, np.asarray(cam.up))
        right /= np.linalg.norm(right)
        true_up = np.cross(right, fwd)
        world_center = vol.world_min + center * np.asarray(vol.spacing)
        rel = world_center - eye
        depth = rel @ fwd
        half_h = np.tan(np.radians(cam.fov_deg) / 2)
        px = (rel @ right) / (depth * half_h * width / height) * (width / 2) + width / 2
        py = height / 2 - (rel @ true_up) / (depth * half_h) * (height / 2)
        r_pix = radius * float(np.mean(vol.spacing)) / (depth * half_h) * (height / 2)
        ys, xs = np.mgrid[0:height, 0:width]
        mask = (xs - px) ** 2 + (ys - py) ** 2 < (1.8 * r_pix) ** 2

        inside = d[mask].mean()
        outside = d[~mask].mean()
        ok = inside > 5 * max(outside, 1e-12)
        report("C11b quartile-localized-noise", ok,
               f"diff inside={inside:.4f} outside={outside:.4f}")

import numpy as np
import pytest
from scipy import ndimage

from uqdvr.classify import TransferFunction2D
from uqdvr.cli import main
from uqdvr.density import build_distribution_volume
from uqdvr import density, synth, volcore
from uqdvr.synth import (
    NoiseSpec,
    load_ensemble,
    make_ensemble,
    noisy_members,
    parse_field_name,
    sample_field,
    save_ensemble,
    save_members,
)
from uqdvr.volcore import EnsembleVolume, FormatError, VolumeError

from oracles import make_bivariate, meshgrid_field, noise_draw_where, traced_peak


class TestSampleField:
    def test_constant_passes_through(self):
        g = sample_field("constant(0.7)", (4, 4, 4))
        assert np.all(g.values == 0.7)

    def test_tangle_permutation_symmetry(self):
        g = sample_field("tangle", (16, 16, 16))
        v = g.values3d
        np.testing.assert_allclose(v, v.transpose(1, 0, 2), atol=1e-12)
        np.testing.assert_allclose(v, v.transpose(2, 1, 0), atol=1e-12)

    def test_teardrop_axis_symmetry(self):
        # Rotationally symmetric about x: swapping y and z leaves it unchanged.
        g = sample_field("teardrop", (12, 12, 12))
        v = g.values3d
        np.testing.assert_allclose(v, v.transpose(1, 0, 2).copy(), atol=1e-12)

    def test_nested_spheres_value_set(self):
        g = sample_field("nested-spheres", (64, 64, 64))
        distinct = np.unique(g.values)
        assert distinct.size == 5
        np.testing.assert_allclose(distinct, [0, 0.25, 0.5, 0.75, 1.0])

    def test_normalized_range(self):
        for name in ("tangle", "teardrop", "nested-spheres", "linear(1,2,3)"):
            g = sample_field(name, (8, 8, 8))
            assert g.values.min() == 0.0
            assert g.values.max() == 1.0

    @pytest.mark.parametrize("dims", [(5, 7, 9), (9, 7, 5), (40, 33, 50)])
    @pytest.mark.parametrize("name", ["tangle", "teardrop", "nested-spheres", "linear(1,2,3)",
                                      "constant(2)"])
    def test_matches_the_meshgrid_evaluation(self, name, dims):
        """Same bytes as the formulas on a full meshgrid, x fastest, rounded
        once to float32; 40x33x50 takes three slabs of z-planes, the last a
        partial one."""
        want = meshgrid_field(name, dims).astype(np.float32)
        assert sample_field(name, dims).values.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", ["tangle", "teardrop", "nested-spheres", "linear(1,2,3)",
                                      "constant(2)"])
    def test_working_set_is_about_the_output_grid(self, name):
        grid, peak = traced_peak(lambda: sample_field(name, (72, 64, 56)))  # 2 MiB of values
        assert peak <= 2 * grid.values.nbytes + (1 << 20), peak / grid.values.nbytes

    def test_unknown_field(self):
        with pytest.raises(VolumeError):
            sample_field("whirl", (4, 4, 4))

    def test_parse_field_name(self):
        assert parse_field_name("linear(1,2,3)") == ("linear", (1.0, 2.0, 3.0))
        assert parse_field_name("tangle") == ("tangle", ())


class TestNoiseDraw:
    @pytest.mark.parametrize("kind", ["gaussian", "uniform", "bimodal"])
    def test_same_bytes_as_the_where_formula(self, kind):
        spec = NoiseSpec(kind, p_main=0.7, members=3, seed=5)
        for m in range(spec.members):
            got = synth._noise_draw(synth._member_rng(spec.seed, m), spec, 10007)
            want = noise_draw_where(synth._member_rng(spec.seed, m), spec, 10007)
            assert got.tobytes() == want.tobytes(), m

    def test_member_peak_is_about_two_float64_grids(self):
        """Bimodal noise holds the noise, a pick mask and the outliers'
        normals, then the noise and the float32 member."""
        gt = sample_field("tangle", (48, 48, 48))
        grid64 = 8 * gt.voxel_count
        members = noisy_members(gt, NoiseSpec("bimodal", members=3, seed=1))
        for _ in range(3):
            member, peak = traced_peak(lambda: next(members))
            assert member.values.dtype == np.float32
            assert peak <= 2.2 * grid64, peak / grid64


class TestMakeEnsemble:
    def test_zero_noise(self):
        gt = sample_field("constant(0.5)", (4, 4, 4))
        ens = make_ensemble(gt, NoiseSpec("gaussian", sigma=0.0, members=3))
        for m in ens.members:
            assert np.array_equal(m.values, gt.values)

    def test_seeded_determinism(self):
        gt = sample_field("tangle", (8, 8, 8))
        spec = NoiseSpec("bimodal", sigma=0.03, members=5, seed=11)
        a = make_ensemble(gt, spec)
        b = make_ensemble(gt, spec)
        for ga, gb in zip(a.members, b.members):
            assert np.array_equal(ga.values, gb.values)

    def test_bimodal_mixture_mean(self):
        gt = sample_field("constant(0.0)", (2, 2, 2))
        spec = NoiseSpec("bimodal", sigma=0.03, offset=0.4, p_main=0.8,
                         outlier_sigma=0.02, members=1, seed=3)
        # One voxel, many members: pool draws across members instead.
        big = NoiseSpec("bimodal", sigma=0.03, offset=0.4, p_main=0.8,
                        outlier_sigma=0.02, members=2000, seed=3)
        ens = make_ensemble(gt, big)
        draws = ens.stacked()[0]
        analytic = spec.analytic_mean()
        se = np.sqrt(np.var(draws) / draws.size)
        assert abs(draws.mean() - analytic) < 3 * se + 1e-9

    @pytest.mark.parametrize("kind", ["gaussian", "uniform"])
    def test_zero_mean_noise_has_mean_zero(self, kind):
        assert NoiseSpec(kind, sigma=0.3, width=0.2, offset=0.5).analytic_mean() == 0.0

    def test_members_differ_and_voxels_decorrelated(self):
        gt = sample_field("constant(0.0)", (10, 10, 10))
        ens = make_ensemble(gt, NoiseSpec("gaussian", sigma=1.0, members=20, seed=5))
        stacked = ens.stacked()
        assert not np.array_equal(stacked[:, 0], stacked[:, 1])
        # Empirical cross-voxel correlation over 10^4 pair draws stays small.
        rng = np.random.default_rng(0)
        pairs = rng.integers(0, stacked.shape[0], (10**4, 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        prods = (stacked[pairs[:, 0]] * stacked[pairs[:, 1]]).mean(axis=1)
        corr = prods.mean()
        assert abs(corr) < 0.02

    def test_ensemble_mean_converges_with_member_count(self):
        gt = sample_field("tangle", (6, 6, 6))
        devs = []
        for m in (5, 50, 500):
            spec = NoiseSpec("bimodal", sigma=0.05, offset=0.7, members=m, seed=9)
            ens = make_ensemble(gt, spec)
            target = gt.values + spec.analytic_mean()
            devs.append(np.abs(ens.stacked().mean(axis=1) - target).mean())
        assert devs[0] > devs[1] > devs[2]

    def test_values_not_clamped(self):
        gt = sample_field("constant(0.0)", (6, 6, 6))
        ens = make_ensemble(gt, NoiseSpec("gaussian", sigma=0.5, members=10, seed=1))
        assert ens.stacked().min() < 0.0

    def test_bad_spec_rejected(self):
        with pytest.raises(VolumeError):
            NoiseSpec("lognormal")
        with pytest.raises(VolumeError):
            NoiseSpec("gaussian", p_main=1.5)

    @pytest.mark.parametrize("field, value", [("sigma", np.nan), ("offset", np.inf),
                                              ("width", np.nan), ("members", 2.5),
                                              ("seed", -1), ("seed", "x"), ("seed", 2.5),
                                              ("sigma", "x")])
    def test_non_finite_or_fractional_fields_rejected(self, field, value):
        with pytest.raises(VolumeError):
            NoiseSpec("bimodal", **{field: value})

    def test_seed_zero_accepted(self):
        assert NoiseSpec("bimodal", seed=0).seed == 0
        assert NoiseSpec("bimodal", seed=np.int64(3)).seed == 3


class TestEnsembleIO:
    def test_round_trip(self, tmp_path):
        gt = sample_field("tangle", (6, 6, 6))
        spec = NoiseSpec("bimodal", members=4, seed=2)
        ens = make_ensemble(gt, spec)
        save_ensemble(ens, tmp_path / "ens", spec, field="tangle")
        back = load_ensemble(tmp_path / "ens")
        assert back.member_count == 4
        for a, b in zip(ens.members, back.members):
            np.testing.assert_allclose(a.values, b.values, atol=1e-7)
        assert back.spacing == pytest.approx(ens.spacing)

    def test_gen_writes_the_files_of_save_ensemble(self, tmp_path):
        assert main(["gen", "--field", "teardrop", "--dims", "9x7x5", "--members", "3",
                     "--noise", "bimodal:sigma=0.1", "--seed", "4",
                     "--out", str(tmp_path / "gen")]) == 0
        spec = NoiseSpec("bimodal", sigma=0.1, members=3, seed=4)
        ens = make_ensemble(sample_field("teardrop", (9, 7, 5)), spec)
        save_ensemble(ens, tmp_path / "lib", spec, field="teardrop")
        names = sorted(p.name for p in (tmp_path / "lib").iterdir())
        assert names == ["ensemble.txt", "member_000.f32raw", "member_001.f32raw",
                         "member_002.f32raw"]
        for name in names:
            assert (tmp_path / "gen" / name).read_bytes() == (tmp_path / "lib" / name).read_bytes()

    def test_no_members_is_a_volume_error(self, tmp_path):
        with pytest.raises(VolumeError, match="at least one member"):
            save_members(iter(()), tmp_path)

    def test_gen_peak_does_not_grow_with_members(self, tmp_path):
        grid = 8 * 48**3
        for m in (4, 40):
            argv = ["gen", "--field", "tangle", "--dims", "48x48x48", "--members", str(m),
                    "--out", str(tmp_path / f"m{m}")]
            code, peak = traced_peak(lambda: main(argv))
            assert code == 0 and peak <= 8 * grid, (m, peak / grid)

    def test_unreadable_manifest_is_a_volume_error(self, tmp_path):
        with pytest.raises(VolumeError, match="cannot read"):
            load_ensemble(tmp_path / "missing")
        (tmp_path / "empty").mkdir()
        with pytest.raises(VolumeError, match="cannot read"):
            load_ensemble(tmp_path / "empty")
        (tmp_path / "ensemble.txt").write_bytes(b"members=2\n\xff\xfe\n")
        with pytest.raises(VolumeError, match="cannot read"):
            load_ensemble(tmp_path)


class TestFileEnsemble:
    """load_ensemble checks the member files and the fits read them block by
    block, or slab by slab for the moment fits."""

    @pytest.fixture
    def saved(self, tmp_path):
        gt = sample_field("tangle", (17, 16, 16))  # two 4,096-voxel blocks
        save_ensemble(make_ensemble(gt, NoiseSpec("gaussian", members=3, seed=1)), tmp_path)
        return tmp_path

    def test_members_are_the_saved_members_read_by_member_values(self, saved, monkeypatch):
        memory = make_ensemble(sample_field("tangle", (17, 16, 16)),
                               NoiseSpec("gaussian", members=3, seed=1))
        monkeypatch.setattr(volcore, "load_raw", None)  # the one reader is member_values
        files = load_ensemble(saved).members
        assert [g.values.tobytes() for g in files] == [g.values.tobytes() for g in memory.members]
        assert {(g.dims, g.spacing, g.origin) for g in files} == {
            (memory.dims, memory.spacing, memory.origin)}

    def test_save_ensemble_of_files_holds_about_one_member(self, tmp_path):
        gt = sample_field("tangle", (48, 48, 48))
        save_ensemble(make_ensemble(gt, NoiseSpec("gaussian", members=20, seed=1)), tmp_path / "a")
        ens = load_ensemble(tmp_path / "a")
        _, peak = traced_peak(lambda: save_ensemble(ens, tmp_path / "b"))
        grid = 4 * ens.voxel_count
        assert peak <= 1.5 * grid, peak / grid  # 20 grids when it built every member first
        for path in (tmp_path / "a").iterdir():
            assert (tmp_path / "b" / path.name).read_bytes() == path.read_bytes(), path.name

    @pytest.mark.parametrize("kind,kw", [("mean", {}), ("uniform", {}), ("gaussian", {}),
                                         ("quantile", {"qval": 0.25}), ("gmm", {"k": 2}),
                                         ("samples", {})])
    def test_fit_matches_the_same_values_in_memory(self, saved, kind, kw):
        files = load_ensemble(saved)
        memory = EnsembleVolume(files.members)  # the f32 values, widened, in memory
        a = build_distribution_volume(files, kind, threads=2, **kw).model
        b = build_distribution_volume(memory, kind, **kw).model
        for name, arr in vars(a).items():
            if isinstance(arr, np.ndarray):
                assert arr.tobytes() == getattr(b, name).tobytes(), name

    def test_non_finite_member_value_fails_at_fit_time(self, saved, capsys):
        member = saved / "member_001.f32raw"
        values = np.fromfile(member, "<f4")
        values[4300] = np.nan  # in the second block, read on a worker thread
        values.tofile(member)
        ens = load_ensemble(saved)
        with pytest.raises(FormatError, match="member_001.f32raw: non-finite"):
            build_distribution_volume(ens, "gaussian", threads=2)
        code = main(["estimate", "--ensemble", str(saved), "--model", "mean",
                     "--out", str(saved / "m.dvol")])
        err = capsys.readouterr().err
        assert code == 2 and "Traceback" not in err
        assert err.splitlines()[-1].startswith("error: ") and "member_001.f32raw" in err
        assert not (saved / "m.dvol").exists()

    def test_member_truncated_after_load_is_a_short_read(self, saved):
        ens = load_ensemble(saved)
        member = saved / "member_002.f32raw"
        member.write_bytes(member.read_bytes()[:-4])
        # The moment fits read one 65,536-voxel slab, the other fits 4,096-voxel row blocks.
        for kind, kw, voxels in (("mean", {}, "0..4351"),
                                 ("quantile", {"qval": 0.25}, "4096..4351")):
            with pytest.raises(FormatError,
                               match=f"member_002.f32raw: short read of voxels {voxels}$"):
                build_distribution_volume(ens, kind, **kw)

    @pytest.mark.parametrize("kind,kw,block", [
        ("quantile", {"qval": 0.25}, density._CHUNK_VOXELS), ("samples", {}, density._CHUNK_VOXELS),
        ("gmm", {"k": 2, "max_iter": 5}, density._EM_ROWS)])
    def test_row_kinds_open_each_member_once_per_block(self, saved, monkeypatch, kind, kw, block):
        ens = load_ensemble(saved)
        opens = {}
        with_fd = volcore._with_fd

        def counting(path, call, *args):
            opens[path] = opens.get(path, 0) + 1
            return with_fd(path, call, *args)

        monkeypatch.setattr(volcore, "_with_fd", counting)
        build_distribution_volume(ens, kind, threads=2, **kw)
        blocks = -(-ens.voxel_count // block)
        assert blocks > 1 and len(opens) == ens.member_count
        assert set(opens.values()) == {blocks}

    def test_block_errors_come_in_member_order(self, tmp_path):
        gt = sample_field("tangle", (17, 16, 16))
        save_ensemble(make_ensemble(gt, NoiseSpec("gaussian", members=6, seed=1)), tmp_path)
        ens = load_ensemble(tmp_path)
        nan = tmp_path / "member_002.f32raw"
        values = np.fromfile(nan, "<f4")
        values[4300] = np.nan  # in the last block, which member_005 now ends short of
        values.tofile(nan)
        short = tmp_path / "member_005.f32raw"
        short.write_bytes(short.read_bytes()[:-4])
        # Each member is read and checked before the next one is read.
        for fit in (lambda: build_distribution_volume(ens, "quantile", qval=0.25),
                    lambda: build_distribution_volume(ens, "samples"),
                    lambda: ens.rows(4096, 4352)):
            with pytest.raises(FormatError, match="member_002.f32raw: non-finite"):
                fit()
        # Past the NaN, the short read is the first fault.
        with pytest.raises(FormatError, match="member_005.f32raw: short read of voxels 4301..4351"):
            ens.rows(4301, 4352)

    def test_truncated_member_fails_at_load(self, saved):
        member = saved / "member_002.f32raw"
        member.write_bytes(member.read_bytes()[:-4])
        with pytest.raises(FormatError, match="member_002.f32raw: payload size"):
            load_ensemble(saved)

    def test_missing_member_fails_at_load(self, saved):
        (saved / "member_000.f32raw").unlink()
        with pytest.raises(FormatError, match="cannot read .*member_000.f32raw"):
            load_ensemble(saved)

    def test_fit_memory_is_bounded_by_the_blocks(self, tmp_path):
        dims, members = (48, 48, 48), 50
        rng = np.random.default_rng(0)
        for m in range(members):
            rng.random(48**3, dtype=np.float32).tofile(tmp_path / f"member_{m:03d}.f32raw")
        (tmp_path / "ensemble.txt").write_text(
            f"members={members}\ndims=48,48,48\nspacing=1,1,1\norigin=0,0,0\n")
        whole = 8 * 48**3 * members  # 44 MB of float64 samples
        vol, peak = traced_peak(
            lambda: build_distribution_volume(load_ensemble(tmp_path), "gaussian", threads=2))
        assert vol.dims == dims
        assert peak < whole / 4, peak


class TestBivariate:
    def test_deterministic_and_normalized(self):
        a1, b1 = make_bivariate((16, 16, 16))
        a2, b2 = make_bivariate((16, 16, 16))
        assert np.array_equal(a1.values, a2.values)
        assert np.array_equal(b1.values, b2.values)
        for g in (a1, b1):
            assert g.values.min() == 0.0
            assert g.values.max() == 1.0

    def test_thin_range_curve_classifies_closed_connected_surface(self):
        a, b = make_bivariate((128, 128, 128))
        # Paint a thin curve in range space: a narrow intensity band around
        # a0 crossed with the B interval attained on that band.
        a0, da = 0.55, 0.03
        near = np.abs(a.values - a0) < da
        b_lo, b_hi = b.values[near].min(), b.values[near].max()
        res = 64
        xs = np.linspace(0, 1, res)
        table = np.zeros((res, res, 4))
        in_x = np.abs(xs - a0) < da
        in_y = (xs >= b_lo - 0.02) & (xs <= b_hi + 0.02)
        table[np.ix_(in_y, in_x)] = [1.0, 0.5, 0.1, 1.0]
        tf2 = TransferFunction2D(table, gmax=1.0)
        opacity = tf2.sample(a.values, b.values)[:, 3]
        mask3d = (opacity > 0).reshape(a.values3d.shape)
        assert mask3d.sum() > 0
        _, ncomp = ndimage.label(mask3d, structure=np.ones((3, 3, 3)))
        assert ncomp == 1

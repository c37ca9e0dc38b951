import hashlib

import numpy as np
import pytest

from uqdvr import volcore
from uqdvr.classify import TransferFunction2D, load_tf2d, save_tf2d
from uqdvr.render import Image, load_image_f32, save_image
from uqdvr.volcore import (
    DistributionVolume,
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
    load_qvol,
    load_raw,
    save_qvol,
    save_raw,
    voxel_pdf,
)

from oracles import field_bytes, traced_peak


def make_quantile_volume(rng, dims=(3, 2, 2), q=4):
    nvox = dims[0] * dims[1] * dims[2]
    incr = rng.random((nvox, q + 1))
    boundaries = np.cumsum(incr, axis=1)
    return DistributionVolume(
        dims, (1.0, 1.0, 1.0), (0.0, 0.0, 0.0), QuantileModel(1.0 / q, boundaries)
    )


class TestScalarGrid:
    def test_flat_order_is_x_fastest(self):
        vals = np.arange(24.0)
        g = ScalarGrid((2, 3, 4), (1, 1, 1), (0, 0, 0), vals)
        assert g.at(1, 0, 0) == 1.0
        assert g.at(0, 1, 0) == 2.0
        assert g.at(0, 0, 1) == 6.0
        assert g.values3d[3, 2, 1] == 23.0

    def test_rejects_bad_length(self):
        with pytest.raises(VolumeError):
            ScalarGrid((2, 2, 2), (1, 1, 1), (0, 0, 0), np.zeros(7))

    def test_rejects_nonfinite(self):
        with pytest.raises(VolumeError):
            ScalarGrid((2, 1, 1), (1, 1, 1), (0, 0, 0), [0.0, np.nan])

    def test_values_are_immutable(self):
        g = ScalarGrid((2, 1, 1), (1, 1, 1), (0, 0, 0), [0.0, 1.0])
        with pytest.raises(ValueError):
            g.values[0] = 5.0


class TestQuantilePdf:
    def test_mass_check(self):
        with pytest.raises(VolumeError):
            QuantilePdf(0.3, [0.0, 0.5, 1.0, 1.5, 2.0])

    def test_monotonicity_check(self):
        with pytest.raises(VolumeError):
            QuantilePdf(0.5, [0.0, 1.0, 0.5])

    def test_densities_use_width_floor(self):
        pdf = QuantilePdf(0.5, [1.0, 1.0, 2.0])
        d = pdf.densities()
        assert d[0] == 0.5 / volcore.EPS_WIDTH
        assert d[1] == 0.5

    def test_degenerate_boundaries_are_storable(self):
        pdf = QuantilePdf(0.25, np.full(5, 3.0))
        assert pdf.q == 4
        assert np.all(pdf.widths == 0.0)


class TestRawIO:
    def test_zero_f32_volume(self, tmp_path):
        p = tmp_path / "z.raw"
        p.write_bytes(np.zeros(8, dtype="<f4").tobytes())
        g = load_raw(p, (2, 2, 2), "f32")
        assert np.all(g.values == 0.0)

    def test_u8_normalization_endpoints(self, tmp_path):
        p = tmp_path / "u8.raw"
        p.write_bytes(bytes([0, 255]))
        g = load_raw(p, (2, 1, 1), "u8")
        assert g.values.tolist() == [0.0, 1.0]

    def test_u16_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        vals = np.rint(rng.random(27) * 65535) / 65535
        g = ScalarGrid((3, 3, 3), (1, 1, 1), (0, 0, 0), vals)
        p = tmp_path / "v.raw"
        save_raw(g, p, "u16")
        back = load_raw(p, (3, 3, 3), "u16")
        assert np.array_equal(back.values, g.values)

    def test_raw_file_without_dims_is_not_a_volume(self, tmp_path):
        p = tmp_path / "v.raw"
        p.write_bytes(np.zeros(8, dtype="<f4").tobytes())
        with pytest.raises(FormatError, match="not a QVOL1/DVOL1 file and no dims given"):
            volcore.load_volume(p)
        assert volcore.load_volume(p, dims=(2, 2, 2)).model.kind == "mean"

    def test_size_mismatch(self, tmp_path):
        p = tmp_path / "bad.raw"
        p.write_bytes(b"\x00" * 7)
        with pytest.raises(FormatError):
            load_raw(p, (2, 2, 2), "u8")

    def test_nonfinite_f32_rejected(self, tmp_path):
        p = tmp_path / "nan.raw"
        p.write_bytes(np.array([0.0, np.nan], dtype="<f4").tobytes())
        with pytest.raises(FormatError):
            load_raw(p, (2, 1, 1), "f32")


class TestQvol:
    def test_round_trip_identity_at_f32(self, tmp_path):
        rng = np.random.default_rng(3)
        for trial in range(5):
            vol = make_quantile_volume(rng, q=int(rng.integers(1, 9)))
            p = tmp_path / f"v{trial}.qvol"
            save_qvol(vol, p)
            back = load_qvol(p)
            assert back.dims == vol.dims
            assert back.spacing == vol.spacing
            assert back.origin == vol.origin
            expect = vol.model.boundaries.astype(np.float32).astype(np.float64)
            assert np.array_equal(back.model.boundaries, expect)

    def test_bad_mass_header_rejected(self, tmp_path):
        rng = np.random.default_rng(4)
        vol = make_quantile_volume(rng, q=4)
        p = tmp_path / "v.qvol"
        save_qvol(vol, p)
        raw = bytearray(p.read_bytes())
        # qval lives in the last 8 header bytes; 0.3 breaks q*qval == 1.
        import struct

        struct.pack_into("<d", raw, volcore._QVOL_HEADER.size - 8, 0.3)
        p.write_bytes(bytes(raw))
        with pytest.raises(VolumeError):
            load_qvol(p)

    def test_payload_size_formula(self, tmp_path):
        q = 8
        dims = (64, 64, 64)
        nvox = 64**3
        boundaries = np.tile(np.linspace(0, 1, q + 1), (nvox, 1))
        vol = DistributionVolume(dims, (1, 1, 1), (0, 0, 0), QuantileModel(1 / q, boundaries))
        p = tmp_path / "big.qvol"
        save_qvol(vol, p)
        assert p.stat().st_size == volcore._QVOL_HEADER.size + nvox * (q + 1) * 4

    def test_truncated_payload(self, tmp_path):
        rng = np.random.default_rng(5)
        vol = make_quantile_volume(rng)
        p = tmp_path / "t.qvol"
        save_qvol(vol, p)
        p.write_bytes(p.read_bytes()[:-4])
        with pytest.raises(FormatError):
            load_qvol(p)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "m.qvol"
        p.write_bytes(b"XVOL1" + b"\x00" * 100)
        with pytest.raises(FormatError):
            load_qvol(p)

    def test_monotonicity_violation_rejected(self, tmp_path):
        boundaries = np.array([[0.0, 2.0, 1.0]])
        with pytest.raises(VolumeError):
            QuantileModel(0.5, boundaries)

    @pytest.mark.parametrize("row", [0, 2500, 4999])
    @pytest.mark.parametrize("col", [0, 31])
    def test_decrease_in_an_end_column_rejected(self, row, col):
        boundaries = np.tile(np.arange(33.0), (5000, 1))  # the check spans several row blocks
        boundaries[row, col] = boundaries[row, col + 1] + 0.5
        with pytest.raises(VolumeError, match="nondecreasing"):
            QuantileModel(1 / 32, boundaries)

    def test_order_check_needs_no_boundary_sized_temporary(self):
        # float32, as the model holds them, so that the model makes no copy.
        boundaries = np.tile(np.arange(33.0, dtype=np.float32), (20000, 1))
        _, peak = traced_peak(lambda: QuantileModel(1 / 32, boundaries))
        assert peak < boundaries.nbytes / 4, (peak, boundaries.nbytes)


class TestRequireFinite:
    def test_check_needs_no_full_size_temporary(self):
        a = np.linspace(-1.0, 1.0, 1 << 20)
        _, peak = traced_peak(lambda: volcore.require_finite(a, "values", f32_range=True))
        assert peak < a.nbytes / 64, (peak, a.nbytes)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at", [0, 1000, -1])
    @pytest.mark.parametrize("f32_range", [False, True])
    def test_any_non_finite_entry_rejected(self, bad, at, f32_range):
        a = np.linspace(-1.0, 1.0, 2001)
        a[at] = bad
        with pytest.raises(VolumeError, match="values must be finite"):
            volcore.require_finite(a, "values", f32_range=f32_range)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_empty_arrays_pass(self, dtype):
        assert volcore.require_finite([], "values", dtype=dtype, f32_range=True).size == 0


class TestDvol:
    def test_round_trips(self, tmp_path):
        rng = np.random.default_rng(11)
        dims = (2, 2, 2)
        nvox = 8
        models = [
            MeanFieldModel(rng.random(nvox)),
            UniformModel(rng.random(nvox), rng.random(nvox)),
            GaussianModel(rng.random(nvox), rng.random(nvox)),
            SamplesModel(3, rng.random((nvox, 3))),
        ]
        w = rng.random((nvox, 2))
        w /= w.sum(axis=1, keepdims=True)
        models.append(GmmVolumeModel(2, w, rng.random((nvox, 2)), rng.random((nvox, 2))))
        for m in models:
            vol = DistributionVolume(dims, (1, 2, 3), (0, -1, 4), m)
            p = tmp_path / f"{type(m).__name__}.dvol"
            volcore.save_dvol(vol, p)
            back = volcore.load_dvol(p)
            assert type(back.model) is type(m)
            assert back.spacing == vol.spacing


    # sha256 of save_dvol output for fixed 4-voxel volumes, one per DVOL1
    # model tag; a layout change made alike in save and load changes these.
    GOLDEN = {
        "mean": "19959a7065433beea831aa6486ef114d4ca6bcedca189ddc234a6136dcebcc9c",
        "uniform": "1a75c381a61427ca5cdb9f6052f2dfcd6ec1bfaae2523600e9e79e25f9daf452",
        "gaussian": "dc5fa14ce49346187775c2c5fcfbc69519a08087419ab02e046e0e77774dd1d3",
        "gmm": "e4164e948a115a37ead8099e81ab1b361b9181d03faea90a3722b4627ee8fbb6",
        "samples": "e688c6fb6ecc13b5bfd2a3f03e26485fd2a20ee8c6929eac105e4832889f5f60",
    }

    @pytest.mark.parametrize("kind", sorted(GOLDEN))
    def test_golden_bytes(self, tmp_path, kind):
        x = np.array([0.5, -1.25, 2.0, 3.75])
        w = np.array([[0.25, 0.75], [0.5, 0.5], [1.0, 0.0], [0.125, 0.875]])
        model = {
            "mean": lambda: MeanFieldModel(x),
            "uniform": lambda: UniformModel(x, np.abs(x) / 2),
            "gaussian": lambda: GaussianModel(-x, np.abs(x) / 3),
            "gmm": lambda: GmmVolumeModel(2, w, np.stack([x, 2 * x], axis=1),
                                          np.stack([np.abs(x), 0.1 + np.abs(x)], axis=1)),
            "samples": lambda: SamplesModel(3, np.stack([x, x + 1, x * x], axis=1)),
        }[kind]()
        p = tmp_path / f"{kind}.dvol"
        vol = DistributionVolume((2, 1, 2), (0.5, 1.0, 2.0), (-1.0, 0.0, 3.0), model)
        volcore.save_dvol(vol, p)
        assert hashlib.sha256(p.read_bytes()).hexdigest() == self.GOLDEN[kind]


class TestF32Payloads:
    """Every saver narrows its f32 payload before writing: a value beyond the
    f32 range is a VolumeError that leaves no file, and the range's ends
    still reload."""

    SAVERS = {
        "raw": lambda x, p: save_raw(ScalarGrid((2, 1, 1), (1, 1, 1), (0, 0, 0), x), p, "f32"),
        "qvol": lambda x, p: save_qvol(DistributionVolume((2, 1, 1), (1, 1, 1), (0, 0, 0),
                                                          QuantileModel(1.0, np.sort(x)[None, :]
                                                                        .repeat(2, 0))), p),
        "dvol": lambda x, p: volcore.save_dvol(DistributionVolume((2, 1, 1), (1, 1, 1), (0, 0, 0),
                                                                  MeanFieldModel(x)), p),
    }

    @pytest.mark.parametrize("saver", sorted(SAVERS))
    @pytest.mark.parametrize("value", [1e39, -1e39, 1e300])
    def test_beyond_f32_is_a_volume_error_and_no_file(self, tmp_path, saver, value):
        p = tmp_path / "out"
        with pytest.raises(VolumeError, match="f32"):
            self.SAVERS[saver](np.array([0.0, value]), p)
        assert not p.exists()

    @pytest.mark.parametrize("saver", sorted(SAVERS))
    def test_f32_range_ends_round_trip(self, tmp_path, saver):
        p = tmp_path / "out"
        x = np.array([-3.4e38, 3.4e38])
        self.SAVERS[saver](x, p)
        vol = volcore.load_volume(p, dims=(2, 1, 1))
        got = vol.model.boundaries[0] if saver == "qvol" else vol.model.values
        np.testing.assert_array_equal(got, x.astype(np.float32))


class TestVoxelPdf:
    def test_uniform_quartiles(self):
        m = UniformModel(np.array([0.5]), np.array([1.0]))
        vol = DistributionVolume((1, 1, 1), (1, 1, 1), (0, 0, 0), m)
        pdf = voxel_pdf(vol, (0, 0, 0), qval=0.25)
        np.testing.assert_allclose(pdf.boundaries, [0, 0.25, 0.5, 0.75, 1.0], atol=1e-12)

    def test_gaussian_median_and_clamp(self):
        m = GaussianModel(np.array([0.0]), np.array([1.0]))
        vol = DistributionVolume((1, 1, 1), (1, 1, 1), (0, 0, 0), m)
        pdf = voxel_pdf(vol, (0, 0, 0), qval=0.5)
        np.testing.assert_allclose(pdf.boundaries, [-6.0, 0.0, 6.0], atol=1e-12)

    def test_empirical_quantile_rule(self):
        m = SamplesModel(4, np.array([[1.0, 2.0, 3.0, 4.0]]))
        vol = DistributionVolume((1, 1, 1), (1, 1, 1), (0, 0, 0), m)
        pdf = voxel_pdf(vol, (0, 0, 0), qval=0.25)
        np.testing.assert_allclose(pdf.boundaries, [1.0, 1.75, 2.5, 3.25, 4.0])

    def test_zero_variance_models_collapse(self):
        for m in [
            GaussianModel(np.array([0.7]), np.array([0.0])),
            UniformModel(np.array([0.7]), np.array([0.0])),
            MeanFieldModel(np.array([0.7])),
            SamplesModel(3, np.full((1, 3), 0.7)),
        ]:
            vol = DistributionVolume((1, 1, 1), (1, 1, 1), (0, 0, 0), m)
            pdf = voxel_pdf(vol, (0, 0, 0), qval=0.25)
            assert np.all(pdf.boundaries == np.float32(0.7))  # as the model holds it

    def test_gmm_quantiles_match_gaussian_for_k1(self):
        g = GmmVolumeModel(1, np.ones((1, 1)), np.full((1, 1), 2.0), np.full((1, 1), 0.5))
        vol = DistributionVolume((1, 1, 1), (1, 1, 1), (0, 0, 0), g)
        pdf = voxel_pdf(vol, (0, 0, 0), qval=0.25)
        expect = volcore.gaussian_quantiles(2.0, 0.5, 0.25)
        np.testing.assert_allclose(pdf.boundaries, expect, atol=1e-9)

    def test_gmm_of_zero_width_is_a_point(self):
        """Components with sigma 0 at one mean have no support to bisect."""
        b = volcore.gmm_quantiles([0.25, 0.75], [1.5, 1.5], [0.0, 0.0], 0.25)
        assert b.tolist() == [1.5] * 5

    def test_out_of_bounds_index(self):
        m = MeanFieldModel(np.zeros(8))
        vol = DistributionVolume((2, 2, 2), (1, 1, 1), (0, 0, 0), m)
        with pytest.raises(VolumeError):
            voxel_pdf(vol, (2, 0, 0), qval=0.5)

    def test_quantile_model_pass_through(self):
        rng = np.random.default_rng(2)
        vol = make_quantile_volume(rng, dims=(2, 2, 2), q=4)
        pdf = voxel_pdf(vol, (1, 1, 1))
        flat = vol.flat_index(1, 1, 1)
        assert np.array_equal(pdf.boundaries, vol.model.boundaries[flat])

    def test_quantile_model_serves_only_its_qval(self):
        vol = make_quantile_volume(np.random.default_rng(2), dims=(2, 2, 2), q=4)
        assert voxel_pdf(vol, (0, 1, 0), qval=0.25).qval == 0.25
        with pytest.raises(VolumeError, match="cannot serve"):
            voxel_pdf(vol, (0, 1, 0), qval=0.5)

    @pytest.mark.parametrize("kind", sorted(set(volcore.MODEL_KINDS) - {"quantile"}))
    def test_every_kind_reads_its_own_voxel(self, kind):
        # Voxel (1, 0, 1) of a 2x2x2 volume is flat index 5; it alone holds
        # a nondegenerate distribution around 3.
        spread = np.where(np.arange(8) == 5, 1.0, 0.0)
        centre = 3.0 * spread
        fields = {"mean": (centre,), "uniform": (centre, spread), "gaussian": (centre, spread),
                  "gmm": (2, np.full((8, 2), 0.5),
                          centre[:, None] + [[-0.5, 0.5]] * spread[:, None], np.full((8, 2), 0.1)),
                  "samples": (3, centre[:, None] + [[-1.0, 0.0, 1.0]] * spread[:, None])}
        vol = DistributionVolume((2, 2, 2), (1, 1, 1), (0, 0, 0),
                                 volcore.MODEL_KINDS[kind](*fields[kind]))
        pdf = voxel_pdf(vol, (1, 0, 1), qval=0.25)
        other = voxel_pdf(vol, (0, 0, 1), qval=0.25)
        assert pdf.q == 4 and abs(pdf.mean() - 3.0) < 0.05
        assert np.all(np.abs(other.boundaries) < 0.7)

    def test_parametric_needs_qval(self):
        m = GaussianModel(np.zeros(1), np.ones(1))
        vol = DistributionVolume((1, 1, 1), (1, 1, 1), (0, 0, 0), m)
        with pytest.raises(VolumeError):
            voxel_pdf(vol, (0, 0, 0))

    def test_every_pdf_satisfies_invariants(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            samples = rng.normal(size=8)
            m = SamplesModel(8, samples[None, :])
            vol = DistributionVolume((1, 1, 1), (1, 1, 1), (0, 0, 0), m)
            pdf = voxel_pdf(vol, (0, 0, 0), qval=0.125)
            assert np.all(np.diff(pdf.boundaries) >= 0)
            assert abs(pdf.q * pdf.qval - 1.0) < 1e-9


class TestFiniteParameters:
    BAD = [np.nan, np.inf, -np.inf]

    @pytest.mark.parametrize("bad", BAD)
    def test_quantile_qval_rejected(self, bad):
        with pytest.raises(VolumeError):
            QuantilePdf(bad, [0.0, 1.0])
        with pytest.raises(VolumeError):
            QuantileModel(bad, np.array([[0.0, 1.0]]))

    @pytest.mark.parametrize("cls", ["grid", "volume"])
    @pytest.mark.parametrize("field", ["spacing", "origin"])
    @pytest.mark.parametrize("bad", BAD)
    def test_spacing_and_origin_rejected(self, cls, field, bad):
        geo = {"spacing": [1.0, 1.0, 1.0], "origin": [0.0, 0.0, 0.0]}
        geo[field][1] = bad
        with pytest.raises(VolumeError, match="finite"):
            if cls == "grid":
                ScalarGrid((2, 1, 1), geo["spacing"], geo["origin"], [0.0, 1.0])
            else:
                DistributionVolume((2, 1, 1), geo["spacing"], geo["origin"],
                                   MeanFieldModel([0.0, 1.0]))

    @pytest.mark.parametrize("spacing", [0.0, -1.0])
    def test_non_positive_spacing_rejected(self, spacing):
        with pytest.raises(VolumeError, match="positive"):
            ScalarGrid((2, 1, 1), (1.0, spacing, 1.0), (0, 0, 0), [0.0, 1.0])

    @pytest.mark.parametrize("field", ["weights", "means", "sigmas"])
    @pytest.mark.parametrize("bad", BAD)
    def test_gmm_parameters_rejected(self, field, bad):
        params = {"weights": [[0.5, 0.5]], "means": [[0.2, 0.7]], "sigmas": [[0.1, 0.2]]}
        params[field][0][1] = bad
        with pytest.raises(VolumeError):
            GmmVolumeModel(2, params["weights"], params["means"], params["sigmas"])

    @pytest.mark.parametrize("k", [0, 1.5, 2.0])
    def test_gmm_k_must_be_a_positive_integer(self, k):
        with pytest.raises(VolumeError, match="gmm k must be"):
            GmmVolumeModel(k, [[0.5, 0.5]], [[0.2, 0.7]], [[0.1, 0.2]])

    def test_require_positive(self):
        volcore.require_positive([1e-300, 2.0], "x")
        for bad in ([1.0, 0.0], [np.nan], [np.inf], -1.0):
            with pytest.raises(VolumeError, match="x must be finite and positive"):
                volcore.require_positive(bad, "x")

    def test_nan_qval_header_rejected(self, tmp_path):
        vol = make_quantile_volume(np.random.default_rng(5), q=4)
        p = tmp_path / "v.qvol"
        save_qvol(vol, p)
        raw = bytearray(p.read_bytes())
        import struct

        struct.pack_into("<d", raw, volcore._QVOL_HEADER.size - 8, np.nan)
        p.write_bytes(bytes(raw))
        with pytest.raises(VolumeError):
            load_qvol(p)


# Keyword arguments of a valid 2-voxel model of each kind, and the fields
# that must be nonnegative.
VALID_MODELS = {
    "mean": ({"values": [0.1, 0.2]}, ()),
    "uniform": ({"center": [0.1, 0.2], "width": [0.3, 0.0]}, ("width",)),
    "gaussian": ({"mean": [0.1, 0.2], "sigma": [0.3, 0.0]}, ("sigma",)),
    "gmm": ({"k": 2, "weights": [[0.5, 0.5], [0.25, 0.75]], "means": [[0.0, 1.0], [0.2, 0.4]],
             "sigmas": [[0.1, 0.2], [0.0, 0.3]]}, ("weights", "sigmas")),
    "quantile": ({"qval": 0.5, "boundaries": [[0.0, 0.5, 1.0], [0.2, 0.2, 0.3]]}, ()),
    "samples": ({"count": 3, "samples": [[0.0, 0.1, 0.2], [1.0, 1.0, 1.0]]}, ()),
}


@pytest.mark.parametrize("kind", sorted(volcore.MODEL_KINDS))
def test_every_model_rejects_bad_fields(kind):
    """NaN, inf, non-congruent fields and a negative value in each
    nonnegative field are VolumeErrors for every per-voxel model."""
    cls, (valid, nonneg) = volcore.MODEL_KINDS[kind], VALID_MODELS[kind]
    assert cls(**valid).voxel_count == 2

    def rejected(field, value, match=None):
        with pytest.raises(VolumeError, match=match):
            cls(**{**valid, field: value})

    for field in cls.FIELDS:
        good = np.array(valid[field], dtype=np.float64)
        for bad in (np.nan, np.inf, -np.inf):
            arr = good.copy()
            arr.flat[-1] = bad
            rejected(field, arr, "finite")
        if kind != "mean":  # one value short of the other fields or of a whole row
            rejected(field, good.ravel()[:-1])
    for field in nonneg:
        arr = np.array(valid[field], dtype=np.float64)
        arr.flat[0], arr.flat[1] = -0.5, arr.flat[0] + arr.flat[1] + 0.5  # gmm rows still sum to 1
        rejected(field, arr, "nonnegative")


class TestSaversWriteFromTheArray:
    def test_no_joined_copy_of_the_payload(self, tmp_path):
        """A saver holds its f32 payload and, for DVOL1, the per-field f32
        columns it interleaves, and the image saver its 8-bit RGB staging; no
        bytes copy of the payload or of header plus payload."""
        rng = np.random.default_rng(2)
        dims, n = (50, 40, 30), 60000
        grid = ScalarGrid(dims, (1, 1, 1), (0, 0, 0), rng.random(n))
        _, peak = traced_peak(lambda: save_raw(grid, tmp_path / "g.f32raw", "f32"))
        assert peak < 1.5 * 4 * n, peak
        bounds = np.sort(rng.random((n, 9)), axis=1)
        qvol = DistributionVolume(dims, (1, 1, 1), (0, 0, 0), QuantileModel(0.125, bounds))
        _, peak = traced_peak(lambda: save_qvol(qvol, tmp_path / "q.qvol"))
        assert peak < 1.5 * 4 * bounds.size, peak
        gmm = GmmVolumeModel(3, rng.dirichlet(np.ones(3), n), rng.random((n, 3)), rng.random((n, 3)))
        dvol = DistributionVolume(dims, (1, 1, 1), (0, 0, 0), gmm)
        _, peak = traced_peak(lambda: volcore.save_dvol(dvol, tmp_path / "g.dvol"))
        assert peak < 2.5 * 4 * 9 * n, peak
        assert volcore.load_dvol(tmp_path / "g.dvol").model.means.tobytes() == gmm.means.tobytes()
        tf = TransferFunction2D(rng.random((250, 240, 4)), 2.0)
        _, peak = traced_peak(lambda: save_tf2d(tf, tmp_path / "t.tf2d"))
        assert peak < 1.5 * 4 * tf.table.size, peak
        assert (tmp_path / "t.tf2d").read_bytes() == b"250 240 2\n" + tf.table.astype("<f4").tobytes()
        assert np.array_equal(load_tf2d(tmp_path / "t.tf2d").table, tf.table.astype(np.float32))
        img = Image(300, 200, rng.random((200, 300, 4)))
        _, peak = traced_peak(lambda: save_image(img, tmp_path / "i.ppm"))
        assert peak < 1.1 * img.pixels.nbytes, peak / img.pixels.nbytes
        assert load_image_f32(tmp_path / "i.ppm.f32").pixels.tobytes() == img.pixels.tobytes()


class TestLoadersHoldThePayloadOnce:
    """A loader reads its f32 payload from the open file into one aligned
    array after its header, whatever the header's length; a model then casts
    its fields from it, a copy only for fields that DVOL1 interleaves."""

    DIMS = (48, 48, 48)

    def volume(self, model):
        return DistributionVolume(self.DIMS, (1, 1, 1), (0, 0, 0), model)

    def test_f32_raw_and_qvol_loads_hold_one_copy(self, tmp_path):
        rng = np.random.default_rng(8)
        grid = ScalarGrid(self.DIMS, (1, 1, 1), (0, 0, 0), rng.random(48**3))
        save_raw(grid, tmp_path / "g.f32raw", "f32")
        back, peak = traced_peak(lambda: load_raw(tmp_path / "g.f32raw", self.DIMS, "f32"))
        assert back.values.tobytes() == grid.values.tobytes()
        assert peak <= 1.1 * grid.values.nbytes + (1 << 20), peak / grid.values.nbytes
        vol = self.volume(QuantileModel(0.125, np.sort(rng.random((48**3, 9)), axis=1)))
        save_qvol(vol, tmp_path / "q.qvol")
        assert volcore._QVOL_HEADER.size % 4  # an unaligned payload offset
        back, peak = traced_peak(lambda: load_qvol(tmp_path / "q.qvol"))
        assert back.model.boundaries.tobytes() == vol.model.boundaries.tobytes()
        kept = field_bytes(vol.model)
        assert peak <= 1.1 * kept + (1 << 20), peak / kept

    @pytest.mark.parametrize("model_of", [
        lambda rng, n: GaussianModel(rng.random(n), rng.random(n)),
        lambda rng, n: GmmVolumeModel(3, rng.dirichlet(np.ones(3), n), rng.random((n, 3)),
                                      rng.random((n, 3)))])
    def test_dvol_load_holds_the_payload_and_the_fields(self, tmp_path, model_of):
        """The interleaved fields are copied out of the payload once; the gmm
        weight-sum check adds one float64 value per voxel."""
        vol = self.volume(model_of(np.random.default_rng(9), 48**3))
        volcore.save_dvol(vol, tmp_path / "v.dvol")
        assert volcore._DVOL_HEADER.size % 4
        back, peak = traced_peak(lambda: volcore.load_dvol(tmp_path / "v.dvol"))
        for name in vol.model.FIELDS:
            assert getattr(back.model, name).tobytes() == getattr(vol.model, name).tobytes()
        kept = field_bytes(vol.model)
        assert peak <= 2.2 * kept + (1 << 20), peak / kept


class TestFloat32Values:
    """Grids and models hold float32 values, made by one checked cast of the
    arrays given; every check reads the rounded values."""

    def test_quantile_model_from_f_ordered_float64_is_one_cast(self):
        b = np.asfortranarray(np.sort(np.random.default_rng(3).random((20000, 33)), axis=1))
        model, peak = traced_peak(lambda: QuantileModel(1 / 32, b))
        assert peak <= 1.1 * 4 * b.size + (1 << 20), peak / (4 * b.size)
        f32 = model.boundaries
        assert f32.dtype == np.float32 and f32.flags.c_contiguous
        assert f32.tobytes() == np.ascontiguousarray(b, dtype=np.float32).tobytes()

    def test_scalar_grid_from_strided_float64_is_one_cast(self):
        pairs = np.random.default_rng(4).random((100 * 100 * 100, 2))
        grid, peak = traced_peak(lambda: ScalarGrid((100, 100, 100), (1, 1, 1), (0, 0, 0),
                                                    pairs[:, 0]))
        assert peak <= 1.1 * 4 * len(pairs) + (1 << 20), peak / (4 * len(pairs))
        f32 = grid.values
        assert f32.dtype == np.float32 and f32.flags.c_contiguous
        assert f32.tobytes() == pairs[:, 0].astype(np.float32).tobytes()

    def test_a_value_the_cast_overflows_is_out_of_range(self):
        f32_max = float(np.finfo(np.float32).max)
        # Rounds down to F32_MAX, so it lies in range; twice F32_MAX does not.
        assert ScalarGrid((1, 1, 1), (1, 1, 1), (0, 0, 0), [f32_max * (1 + 2.0 ** -25)]).at(
            0, 0, 0) == f32_max
        with pytest.raises(VolumeError, match="f32 range"):
            ScalarGrid((1, 1, 1), (1, 1, 1), (0, 0, 0), [2 * f32_max])
        with pytest.raises(VolumeError, match="finite"):
            ScalarGrid((1, 1, 1), (1, 1, 1), (0, 0, 0), [np.inf])

    # Below half the smallest float32 subnormal, 2^-149, so it rounds to 0.
    TINY = 2.0 ** -151

    def test_tiny_spreads_round_to_zero_in_memory_as_on_disk(self, tmp_path):
        tiny = self.TINY
        models = [
            GaussianModel([0.5, 0.25], [tiny, 0.1]),
            UniformModel([0.5, 0.25], [tiny, 0.1]),
            GmmVolumeModel(2, [[0.5, 0.5]] * 2, [[0.2, 0.6]] * 2, [[tiny, 0.1]] * 2),
        ]
        for m in models:
            spread = getattr(m, m.FIELDS[-1])
            assert spread.ravel()[0] == 0.0, m.kind
            vol = DistributionVolume((2, 1, 1), (1, 1, 1), (0, 0, 0), m)
            volcore.save_dvol(vol, tmp_path / "m.dvol")
            back = volcore.load_dvol(tmp_path / "m.dvol").model
            for f in m.FIELDS:
                assert getattr(back, f).tobytes() == getattr(m, f).tobytes(), (m.kind, f)

    def test_a_tiny_sigma_is_a_point_mass(self):
        vol = DistributionVolume((1, 1, 1), (1, 1, 1), (0, 0, 0),
                                 GaussianModel([0.5], [self.TINY]))
        pdf = voxel_pdf(vol, (0, 0, 0), qval=0.25)
        assert np.all(pdf.boundaries == np.float32(0.5))

    def test_gmm_weight_sum_check_reads_the_rounded_weights(self):
        w = 0.5 + 9.9e-7  # within 1e-6 of summing to 1 with 0.5; its float32 is not
        assert abs(w + 0.5 - 1.0) <= 1e-6 < abs(float(np.float32(w)) + 0.5 - 1.0)
        with pytest.raises(VolumeError, match="sum to 1"):
            GmmVolumeModel(2, [[w, 0.5]], [[0.0, 1.0]], [[1.0, 1.0]])
        # One mixture, as the scalar APIs take it, keeps its float64 weights.
        assert volcore.GmmModel([w, 0.5], [0.0, 1.0], [1.0, 1.0]).weights[0] == w

"""Every number that enters the package from outside becomes a valid object or
a VolumeError: never another exception, a truncated value or a NaN result."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from uqdvr import classify, cli, density, interp, presets, render, synth, volcore
from uqdvr.volcore import DistributionVolume, MeanFieldModel, ScalarGrid, VolumeError

import oracles

NAN = float("nan")
UNIT = ((1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
TF = classify.TransferFunction1D([[0.0, 0, 0, 0, 0], [1.0, 1, 1, 1, 1]])


def grid(dims=(2, 2, 2), spacing=(1.0, 1.0, 1.0), origin=(0.0, 0.0, 0.0)):
    return ScalarGrid(dims, spacing, origin, np.zeros(8))


def mean_volume():
    return DistributionVolume((2, 2, 2), *UNIT, MeanFieldModel(np.arange(8.0) / 8))


def ensemble():
    return synth.make_ensemble(synth.sample_field("linear(1,0,0)", (3, 3, 3)),
                               synth.NoiseSpec("gaussian", members=3))


def camera(fov=30.0, width=4, height=4):
    return render.Camera((3.0, 3.0, 3.0), (0.5, 0.5, 0.5), (0.0, 0.0, 1.0), fov, width, height)


def job(**kw):
    return render.RenderJob(mean_volume(), "mean", camera(), tf=TF, **kw)


def image():
    return render.Image(2, 2, np.zeros((2, 2, 4)))


SAMPLES = np.linspace(0.0, 1.0, 9)

PROBES = {
    "grid-dims-fraction": lambda: grid(dims=(2.9, 2, 2)),
    "grid-dims-text": lambda: grid(dims=("a", 2, 2)),
    "grid-dims-generator": lambda: grid(dims=(d for d in (2, 2, 2))),
    "grid-spacing-text": lambda: grid(spacing=("x", 1, 1)),
    "grid-spacing-none": lambda: grid(spacing=None),
    "volume-origin-text": lambda: DistributionVolume((2, 2, 2), (1, 1, 1), ("x", 0, 0),
                                                     MeanFieldModel(np.zeros(8))),
    "field-dims-fraction": lambda: synth.sample_field("tangle", (4.7, 4, 4)),
    "bivariate-dims-fraction": lambda: oracles.make_bivariate((4.5, 4, 4)),
    "bivariate-dims-short": lambda: oracles.make_bivariate((4, 4)),
    "camera-width-fraction": lambda: camera(width=2.5),
    "camera-width-text": lambda: camera(width="4"),
    "camera-fov-text": lambda: camera(fov="x"),
    "default-camera-direction-text": lambda: render.default_camera(mean_volume(), 4, 4,
                                                                   direction="x"),
    "image-pixels-text": lambda: render.Image(1, 1, "x"),
    "image-pixel-beyond-f32": lambda: render.Image(1, 1, np.full((1, 1, 4), 1e39)),
    "quantile-ragged-boundaries": lambda: volcore.QuantileModel(0.5, [[0, 1, 2], [0, 1]]),
    "coords-base-fraction": lambda: interp.TrilinearCoords((1.7, 0, 0), (0.5, 0.5, 0.5)),
    "job-step-text": lambda: job(step="x"),
    "tf1d-text-knot": lambda: classify.TransferFunction1D([["x", 0, 0, 0, 0], [1, 1, 1, 1, 1]]),
    "tf2d-gmax-text": lambda: classify.TransferFunction2D(np.zeros((2, 2, 4)), "x"),
    "voxel-pdf-fraction": lambda: volcore.voxel_pdf(mean_volume(), (1.5, 0, 0), 0.5),
    "voxel-pdf-text": lambda: volcore.voxel_pdf(mean_volume(), ("a", 0, 0), 0.5),
    "grid-at-fraction": lambda: grid().at(1.5, 0, 0),
    "corner-weights-text": lambda: interp.corner_weights("x", 0, 0),
    "quantiles-qval-text": lambda: density.estimate_quantiles(SAMPLES, "x"),
    "quantiles-nan-sample": lambda: density.estimate_quantiles([*SAMPLES, NAN], 0.25),
    "build-qval-text": lambda: density.build_distribution_volume(ensemble(), "quantile",
                                                                 qval="x"),
    "build-threads-zero": lambda: density.build_distribution_volume(ensemble(), "mean",
                                                                    threads=0),
    "build-threads-fraction": lambda: density.build_distribution_volume(ensemble(), "mean",
                                                                        threads=2.5),
    "raycast-threads-text": lambda: render.raycast(job(), threads="x"),
    "fit-mean-nan": lambda: density.fit_mean([1.0, NAN]),
    "fit-gaussian-nan": lambda: density.fit_gaussian([1.0, NAN]),
    "silverman-nan": lambda: density.silverman_bandwidth([1.0, NAN]),
    "interp-gaussian-text": lambda: interp.interp_gaussian(["x"], [1], [1]),
    "diff-scale-text": lambda: render.diff_image(image(), image(), scale="x"),
}


@pytest.mark.parametrize("case", list(PROBES))
def test_outside_number_is_a_volume_error(case):
    with pytest.raises(VolumeError):
        PROBES[case]()


def uniform_volume():
    return DistributionVolume((2, 2, 2), *UNIT, volcore.UniformModel(np.zeros(8), np.ones(8)))


def quantile_volume():
    return DistributionVolume((2, 2, 2), *UNIT, volcore.QuantileModel(0.5, np.zeros((8, 3))))


def quartiles_of(j):
    return render.render_quartile_views(j.volume, j)


TF2 = classify.TransferFunction2D(np.zeros((2, 2, 4)), 1.0)
STENCIL = interp.GradientStencil(np.array([0, 1]), np.array([0.5, 0.5]), np.array([1.0, -1.0]),
                                 np.zeros((3, 2)), np.array([1.0, 0.0, 0.0]), False)

# One probe per input check, each matched by its message so that no other
# check stands in for it.
CHECKS = {
    "gmm-weight-sum": ("sum to 1", lambda: volcore.GmmVolumeModel(
        2, [[0.5, 0.6]], [[0.0, 1.0]], [[1.0, 1.0]])),
    "volume-voxel-count": ("model holds 7 voxels", lambda: DistributionVolume(
        (2, 2, 2), *UNIT, MeanFieldModel(np.zeros(7)))),
    "ensemble-empty": ("at least one member", lambda: volcore.EnsembleVolume([])),
    "file-ensemble-empty": ("at least one member", lambda: volcore.FileEnsemble(
        [], (2, 2, 2), *UNIT)),
    "ensemble-incongruent": ("congruent", lambda: volcore.EnsembleVolume(
        [grid(), grid(spacing=(2.0, 1.0, 1.0))])),
    "load-raw-encoding": ("unknown raw encoding", lambda: volcore.load_raw(
        "unread", (2, 2, 2), "f64")),
    "save-raw-encoding": ("unknown raw encoding", lambda: volcore.save_raw(
        grid(), "unwritten", "f64")),
    "save-qvol-kind": ("requires a quantile-model", lambda: volcore.save_qvol(
        mean_volume(), "unwritten")),
    "save-dvol-kind": ("use save_qvol", lambda: volcore.save_dvol(
        quantile_volume(), "unwritten")),
    "camera-eye-beyond-f32": ("camera eye must lie in the f32 range", lambda: render.Camera(
        (1e39, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 1.0), 30.0, 4, 4)),
    "default-camera-zero-direction": ("direction must be nonzero", lambda: render.default_camera(
        mean_volume(), 4, 4, direction=(0.0, 0.0, 0.0))),
    "job-tf2d-without-table": ("2D transfer function", lambda: render.RenderJob(
        uniform_volume(), "tf2d", camera())),
    "job-tf2d-without-mean-grid": ("companion mean grid", lambda: render.RenderJob(
        uniform_volume(), "tf2d", camera(), tf2=TF2)),
    "job-tf2d-mean-grid-dims": ("congruent", lambda: render.RenderJob(
        uniform_volume(), "tf2d", camera(), tf2=TF2,
        mean_grid=ScalarGrid((2, 2, 3), *UNIT, np.zeros(12)))),
    "job-without-tf": ("1D transfer function", lambda: render.RenderJob(
        mean_volume(), "mean", camera())),
    "job-dims-below-2": ("dims >= 2", lambda: render.RenderJob(
        DistributionVolume((1, 2, 2), *UNIT, MeanFieldModel(np.zeros(4))), "mean", camera(),
        tf=TF)),
    "quartiles-of-mean-volume": ("quantile-model volume", lambda: quartiles_of(job())),
    "build-quantile-without-qval": ("needs qval", lambda: density.build_distribution_volume(
        ensemble(), "quantile")),
    "build-gmm-without-k": ("needs k", lambda: density.build_distribution_volume(
        ensemble(), "gmm")),
    "build-gaussian-of-one-member": ("M >= 2", lambda: density.build_distribution_volume(
        volcore.EnsembleVolume([grid()]), "gaussian")),
    "build-unknown-kind": ("unknown model kind", lambda: density.build_distribution_volume(
        ensemble(), "nope")),
    "noise-negative-scale": ("nonnegative", lambda: synth.NoiseSpec("gaussian", sigma=-1.0)),
    "field-unparsable": ("cannot parse", lambda: synth.sample_field("Tangle!", (2, 2, 2))),
    "field-linear-arity": ("linear field needs", lambda: synth.sample_field(
        "linear(1,2)", (2, 2, 2))),
    "field-constant-arity": ("constant field needs", lambda: synth.sample_field(
        "constant(1,2)", (2, 2, 2))),
    "cli-noise-key": ("bad noise spec", lambda: cli.parse_noise("gaussian:sigmaa=1", 2, 0)),
    "tf1d-shape": ("control-point table", lambda: classify.TransferFunction1D([[0, 0, 0, 0]])),
    "expected-color-2d-negative-width": ("widths must be nonnegative",
                                         lambda: classify.expected_color_2d(
                                             [(0.5, 0.1), (0.5, -0.1)], STENCIL, TF2, 4, 0)),
    "numeric-density-shape": ("matching 1D", lambda: interp.NumericDensity([0, 1], [1, 1, 1])),
    "preset-tf-unknown": ("unknown TF preset", lambda: presets.preset_tf1d("nope")),
    "preset-camera-unknown": ("unknown camera preset", lambda: presets.preset_camera(
        "nope", mean_volume(), 4, 4)),
}


@pytest.mark.parametrize("case", list(CHECKS))
def test_each_input_check_is_a_volume_error(case):
    match, probe = CHECKS[case]
    with pytest.raises(VolumeError, match=match):
        probe()


# Arbitrary outside values: numbers, text, None, booleans and nested lists.
OUTSIDE = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 8) | st.text(max_size=3)
    | st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(["auto", "2", "0.5"]),
    lambda inner: st.lists(inner, max_size=4), max_leaves=8)

TARGETS = {
    "grid-dims": lambda v: grid(dims=v),
    "grid-spacing": lambda v: grid(spacing=v),
    "grid-origin": lambda v: grid(origin=v),
    "camera-width": lambda v: camera(width=v),
    "camera-height": lambda v: camera(height=v),
    "camera-direction": lambda v: render.default_camera(mean_volume(), 4, 4, direction=v),
    "image-pixels": lambda v: render.Image(1, 1, v),
    "quantile-boundaries": lambda v: volcore.QuantileModel(0.5, v),
    "kde-bandwidth": lambda v: density.KdeConfig(bandwidth=v),
    "kde-lattice": lambda v: density.KdeConfig(lattice=v),
    "map-chunks-threads": lambda v: volcore.map_chunks(lambda lo, hi: hi - lo, 10, v, 4),
}


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(target=st.sampled_from(sorted(TARGETS)), value=OUTSIDE)
def test_any_outside_value_constructs_or_is_a_volume_error(target, value):
    try:
        TARGETS[target](value)
    except VolumeError:
        pass


# Values beyond the f32 range of the file formats: finite members and
# parameters whose fits or renders overflowed into numpy errors, misleading
# "must be finite" messages or NaN pixels.  Each is now a VolumeError from the
# grid or model constructor, before any fit or render runs.
HUGE = np.geomspace(1e154, 1e300, 8)


def huge_fit(kind, **opts):
    members = [ScalarGrid((2, 2, 2), *UNIT, HUGE * (-1) ** j) for j in range(4)]
    return density.build_distribution_volume(volcore.EnsembleVolume(members), kind, **opts)


def huge_render(scheme, model):
    vol = DistributionVolume((2, 2, 2), *UNIT, model)
    return render.raycast(render.RenderJob(vol, scheme, camera(), tf=TF))


BEYOND_F32 = {
    "quantile-fit": ("grid values", lambda: huge_fit("quantile", qval=0.5)),
    "gaussian-fit": ("grid values", lambda: huge_fit("gaussian")),
    "gmm-fit": ("grid values", lambda: huge_fit("gmm", k=2)),
    "uniform-render": ("uniform parameters", lambda: huge_render(
        "uniform", volcore.UniformModel(np.full(8, 1e150), np.full(8, 1e150)))),
    "gaussian-render": ("gaussian parameters", lambda: huge_render(
        "gaussian", volcore.GaussianModel(np.full(8, 1e300), np.full(8, 1e300)))),
    "gmm-ordered-render": ("gmm parameters", lambda: huge_render(
        "gmm-ordered", volcore.GmmVolumeModel(2, np.full((8, 2), 0.5), np.full((8, 2), 1e300),
                                              np.full((8, 2), 1e300)))),
}


@pytest.mark.parametrize("case", list(BEYOND_F32))
def test_beyond_f32_is_a_volume_error_at_construction(case):
    what, probe = BEYOND_F32[case]
    with pytest.raises(VolumeError, match=f"{what} must lie in the f32 range"):
        probe()


F32_END = 3.4e38
FIT_KINDS = (("mean", {}), ("uniform", {}), ("gaussian", {}), ("samples", {}),
             ("gmm", {"k": 2}), ("quantile", {"qval": 0.25}))
SIGNS = np.array([1.0, -1.0] * 4)


def test_f32_range_ends_fit_and_render_finite():
    """Members at +-3.4e38 construct and every kind fits them; parameters at
    +-3.4e38 construct and every 1D scheme renders them to finite pixels."""
    members = [ScalarGrid((2, 2, 2), *UNIT, SIGNS * F32_END * (1 - 1e-6 * j)) for j in range(6)]
    ens = volcore.EnsembleVolume(members)
    fits = {kind: density.build_distribution_volume(ens, kind, **opts) for kind, opts in FIT_KINDS}
    at_end = np.full(8, F32_END)
    params = {
        "mean": volcore.MeanFieldModel(SIGNS * F32_END),
        "uniform": volcore.UniformModel(SIGNS * F32_END, at_end),
        "gaussian": volcore.GaussianModel(SIGNS * F32_END, at_end),
        "gmm": volcore.GmmVolumeModel(2, np.full((8, 2), 0.5), np.stack([SIGNS, -SIGNS], 1)
                                      * F32_END, np.stack([at_end, at_end], 1)),
        "quantile": volcore.QuantileModel(0.5, np.stack([-at_end, SIGNS * F32_END, at_end], 1)),
    }
    for scheme in render.SCHEMES:
        if scheme == "tf2d":
            continue
        kind = render.scheme_model(scheme).kind
        for vol in (fits[kind], DistributionVolume((2, 2, 2), *UNIT, params[kind])):
            img = render.raycast(render.RenderJob(vol, scheme, camera(), tf=TF))
            assert np.all(np.isfinite(img.pixels)), (scheme, kind)


def test_fits_of_members_spanning_the_f32_range_are_valid_or_name_the_kind():
    """Members at both ends of the range: a fit whose parameters leave it (the
    uniform width, the gaussian sigma) is a VolumeError naming the kind; every
    other fit is a valid model, the quantile fit among them."""
    members = [ScalarGrid((2, 2, 2), *UNIT, SIGNS * F32_END * (-1) ** j) for j in range(6)]
    ens = volcore.EnsembleVolume(members)
    for kind, opts in FIT_KINDS:
        try:
            vol = density.build_distribution_volume(ens, kind, **opts)
        except VolumeError as e:
            assert kind != "quantile" and f"{kind} parameters must lie in the f32 range" in str(e)
        else:
            assert vol.model.kind == kind


@pytest.mark.parametrize("values", [
    [1e38, -1e38, 2e38, 0.0],
    [3.4e38, 3.39e38, 3.38e38, 3.4e38],
    # The padded lattice ends at F32_MAX, and its last point rounds one ulp beyond it.
    [-1.5e37, 2.69e38] + [3.4e38] * 10,
])
def test_kde_lattice_stays_in_the_f32_range(values):
    """Quantile fits of in-range members whose KDE padding of 3 bandwidths
    would leave the range: the lattice is clamped to it, and the outer
    boundaries still enclose the members."""
    ens = volcore.EnsembleVolume([ScalarGrid((2, 2, 2), *UNIT, np.full(8, v)) for v in values])
    for qval in (0.25, 1 / 32):
        b = density.build_distribution_volume(ens, "quantile", qval=qval).model.boundaries
        assert np.all(b[:, 0] <= min(values)) and np.all(b[:, -1] >= max(values))


F32_VALUES = st.one_of(st.floats(-volcore.F32_MAX, volcore.F32_MAX),
                       st.sampled_from([volcore.F32_MAX, -volcore.F32_MAX, 3.4e38, 0.0]),
                       st.floats(-2.0, 2.0))


def _saved(vol, path):
    save = volcore.save_qvol if vol.model.kind == "quantile" else volcore.save_dvol
    save(vol, path)
    return path.read_bytes()


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(fit=st.sampled_from(FIT_KINDS + (("quantile", {"qval": 1 / 32}),)),
       members=st.lists(st.lists(F32_VALUES, min_size=8, max_size=8), min_size=2, max_size=6))
def test_fits_of_f32_range_members_are_valid_and_round_trip(fit, members):
    """Any 2^3 ensemble of f32-range members fits to a valid model, or, for
    the kinds whose width or sigma of such members can truly exceed the range,
    to a VolumeError that names the kind.  A model that constructs saves,
    reloads with its fields equal to their f32 narrowing, and saves to the
    same bytes."""
    kind, opts = fit
    ens = volcore.EnsembleVolume([ScalarGrid((2, 2, 2), *UNIT, m) for m in members])
    try:
        vol = density.build_distribution_volume(ens, kind, **opts)
    except VolumeError as e:
        assert kind in ("uniform", "gaussian") and kind in str(e), e
        return
    with tempfile.TemporaryDirectory() as tmp:
        first = _saved(vol, Path(tmp) / "a")
        back = volcore.load_volume(Path(tmp) / "a")
        assert _saved(back, Path(tmp) / "b") == first
    assert (back.dims, back.spacing, back.origin) == (vol.dims, vol.spacing, vol.origin)
    assert type(back.model) is type(vol.model)
    if vol.model.WIDTH:
        assert getattr(back.model, vol.model.WIDTH) == getattr(vol.model, vol.model.WIDTH)
    for name in vol.model.FIELDS:
        want = getattr(vol.model, name).astype(np.float32)
        assert np.array_equal(getattr(back.model, name), want), name


# Sample sets and knot tables are checked where they enter.  Before, samples
# beyond the f32 range fitted to an infinite sigma, a RuntimeWarning or a
# bincount ValueError, and a knot table whose slopes overflowed sampled NaN
# at its first knot or 0 where it should read 0.5.
BEYOND_F32_SAMPLES = [1e300, -1e300, 5e299]

SAMPLE_SET_FITS = {
    "estimate-quantiles": lambda s: density.estimate_quantiles(s, 0.25),
    "fit-mean": density.fit_mean,
    "fit-uniform": density.fit_uniform,
    "fit-gaussian": density.fit_gaussian,
    "fit-gmm-em": lambda s: density.fit_gmm_em(s, 2),
    "silverman-bandwidth": density.silverman_bandwidth,
}


@pytest.mark.parametrize("fit", list(SAMPLE_SET_FITS))
@pytest.mark.parametrize("samples", [BEYOND_F32_SAMPLES, [0.0, 1.0, 3.5e38]])
def test_sample_sets_beyond_f32_are_a_volume_error(fit, samples):
    with pytest.raises(VolumeError, match="samples must lie in the f32 range"):
        SAMPLE_SET_FITS[fit](samples)


@pytest.mark.parametrize("points", [
    [[-1e308, 0, 0, 0, 0], [1e308, 1, 1, 1, 1]],  # the spacing overflows
    [[0, 0, 0, 0, 0], [1e-320, 1, 1, 1, 1]],  # the slope overflows
    [[-1.5e308, 1, 1, 1, 1], [0, 1, 1, 1, 1], [1.5e308, 1, 1, 1, 1]],  # the integral overflows
])
def test_tf_tables_that_overflow_are_a_volume_error(points):
    with pytest.raises(VolumeError, match="must not overflow"):
        classify.TransferFunction1D(points)


def test_tf_with_wide_finite_tables_samples_its_knots():
    """Knots 1e308 apart whose tables stay finite construct and sample their
    knot values exactly."""
    tf = classify.TransferFunction1D([[-1e308, 0, 0, 0, 0], [0, 1, 1, 1, 1], [1e308, 1, 1, 1, 0]])
    np.testing.assert_array_equal(tf.sample([-1e308, 0.0, 1e308]),
                                  [[0, 0, 0, 0], [1, 1, 1, 1], [1, 1, 1, 0]])
    assert tf.zero_alpha_runs() == [(-np.inf, -1e308), (1e308, np.inf)]

"""Every number that enters the package from outside becomes a valid object or
a VolumeError: never another exception, a truncated value or a NaN result."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from uqdvr import classify, density, interp, render, synth, volcore
from uqdvr.volcore import DistributionVolume, MeanFieldModel, ScalarGrid, VolumeError

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
    "grid-spacing-text": lambda: grid(spacing=("x", 1, 1)),
    "grid-spacing-none": lambda: grid(spacing=None),
    "volume-origin-text": lambda: DistributionVolume((2, 2, 2), (1, 1, 1), ("x", 0, 0),
                                                     MeanFieldModel(np.zeros(8))),
    "field-dims-fraction": lambda: synth.sample_field("tangle", (4.7, 4, 4)),
    "bivariate-dims-fraction": lambda: synth.make_bivariate((4.5, 4, 4)),
    "bivariate-dims-short": lambda: synth.make_bivariate((4, 4)),
    "camera-width-fraction": lambda: camera(width=2.5),
    "camera-width-text": lambda: camera(width="4"),
    "camera-fov-text": lambda: camera(fov="x"),
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

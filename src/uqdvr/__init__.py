"""Uncertainty-aware direct volume rendering with closed-form quantile interpolation."""

from .volcore import (
    DistributionVolume,
    EnsembleVolume,
    GaussianModel,
    GmmModel,
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
from .density import (
    KdeConfig,
    build_distribution_volume,
    downsample_hixel,
    estimate_quantiles,
    fit_gaussian,
    fit_gmm_em,
    fit_mean,
    fit_uniform,
)
from .interp import (
    GradientStencil,
    NumericDensity,
    TrilinearCoords,
    gradient_stencil,
    interp_gaussian,
    interp_gmm_ordered,
    interp_uniform,
    quantile_interp_1d,
    quantile_interp_3d,
    sample_gmm_mc,
)
from .classify import (
    TransferFunction1D,
    TransferFunction2D,
    expected_color_2d,
    expected_color_parametric,
    expected_color_quantile_mean,
    expected_color_quantile_range,
)
from .render import (
    Camera,
    Image,
    RenderJob,
    diff_image,
    raycast,
    render_quartile_views,
    save_image,
)
from .synth import NoiseSpec, make_ensemble, sample_field

__version__ = "0.1.0"

"""Declared transfer functions and cameras for the built-in experiments.

These are the fixed choices behind the reproducible RMSE comparisons; the
numbers are design decisions of this artifact, not tuned per run.
"""

from __future__ import annotations

import numpy as np

from .classify import TransferFunction1D, TransferFunction2D
from .render import Camera, default_camera
from .volcore import VolumeError

# The tangle map: a bright band at the classic iso level (normalized ~0.164)
# plus a fast-varying translucent colormap across the rest of the range, so
# both sharp-feature displacement and smooth-ramp shifts register as error.
TANGLE_TF_POINTS = [
    [0.00, 0.00, 0.00, 0.00, 0.00],
    [0.10, 0.00, 0.00, 0.00, 0.00],
    [0.13, 1.00, 0.60, 0.10, 0.55],
    [0.23, 0.95, 0.35, 0.05, 0.50],
    [0.27, 0.05, 0.20, 0.60, 0.22],
    [0.40, 0.10, 0.65, 0.70, 0.28],
    [0.55, 0.60, 0.70, 0.15, 0.24],
    [0.70, 0.20, 0.30, 0.65, 0.26],
    [0.85, 0.65, 0.45, 0.30, 0.22],
    [1.00, 0.30, 0.55, 0.50, 0.20],
]

# Declared noise for the tangle comparison: an 80/20 bimodal mixture whose
# outlier mode sits far above the data range of most transfer-function
# features.  The KDE bandwidth is pinned to resolve the two modes; Silverman's
# rule would smear them together (its sigma-hat absorbs the mode separation).
TANGLE_NOISE = {"kind": "bimodal", "sigma": 0.05, "offset": 0.7,
                "p_main": 0.8, "outlier_sigma": 0.02}
TANGLE_KDE_BANDWIDTH = 0.03


def tangle_manifest(dims=(64, 64, 64), members=(50,), size=(256, 256), seed=7) -> dict:
    """The declared tangle-ensemble comparison manifest."""
    return {
        "mode": "ensemble",
        "field": "tangle",
        "dims": list(dims),
        "noise": dict(TANGLE_NOISE),
        "members": list(members),
        "models": ["mean", "uniform", "gaussian"],
        "qvals": [0.5, 0.25, 0.125],
        "quantile_schemes": ["quantile-mean"],
        "tf": "preset:tangle",
        "camera": "preset:tangle",
        "size": list(size),
        "step": 0.5,
        "seed": seed,
        "kde_bandwidth": TANGLE_KDE_BANDWIDTH,
    }


def spheres_manifest(dims=(128, 128, 128), brick=(4, 4, 4), size=(256, 256), seed=7) -> dict:
    """The declared nested-spheres hixel-downsampling manifest."""
    return {
        "mode": "hixel",
        "field": "nested-spheres",
        "dims": list(dims),
        "brick": list(brick),
        "models": ["mean"],
        "qvals": [0.125],
        "quantile_schemes": ["quantile-mean"],
        "tf": "preset:spheres",
        "camera": "preset:spheres",
        "size": list(size),
        "step": 0.5,
        "seed": seed,
        # Brick samples are near-discrete spikes; keep the KDE from smearing
        # them across the transfer-function triangles.
        "kde_bandwidth": 0.02,
    }

# Four opacity triangles with distinct colors, one per nested-spheres shell
# intensity; valleys keep the gaps and the zero background transparent.
_SPHERE_PEAKS = ((0.25, (0.20, 0.35, 0.95)), (0.50, (0.15, 0.80, 0.25)),
                 (0.75, (0.95, 0.60, 0.10)), (1.00, (0.90, 0.12, 0.12)))
_SPHERE_HALF_WIDTH = 0.09
_SPHERE_PEAK_ALPHA = 0.75


def tangle_tf() -> TransferFunction1D:
    return TransferFunction1D(TANGLE_TF_POINTS)


def spheres_tf() -> TransferFunction1D:
    rows = [[0.0, 0.0, 0.0, 0.0, 0.0], [0.12, 0.0, 0.0, 0.0, 0.0]]
    for center, (r, g, b) in _SPHERE_PEAKS:
        lo = center - _SPHERE_HALF_WIDTH
        hi = center + _SPHERE_HALF_WIDTH
        if rows[-1][0] < lo:
            rows.append([lo, 0.0, 0.0, 0.0, 0.0])
        rows.append([center, r, g, b, _SPHERE_PEAK_ALPHA])
        if hi < 1.0:
            rows.append([hi, 0.0, 0.0, 0.0, 0.0])
    return TransferFunction1D(rows)


def tangle_camera(volume, width: int, height: int) -> Camera:
    return default_camera(volume, width, height, fov_deg=32.0,
                          direction=(1.0, 0.75, 0.6), distance=2.1)


def spheres_camera(volume, width: int, height: int) -> Camera:
    return default_camera(volume, width, height, fov_deg=34.0,
                          direction=(1.0, 0.55, 0.8), distance=2.0)


def fiber_tf2d() -> TransferFunction2D:
    """The fuzzy-fiber-surface selector: a narrow intensity band around 0.55
    on a 64x64 table, the same at every gradient magnitude."""
    xs = np.linspace(0.0, 1.0, 64)
    table = np.zeros((64, 64, 4))
    table[:, np.abs(xs - 0.55) < 0.03] = [0.95, 0.55, 0.15, 0.9]
    return TransferFunction2D(table, gmax=1.0)


def preset_tf1d(name: str) -> TransferFunction1D:
    if name == "tangle":
        return tangle_tf()
    if name == "spheres":
        return spheres_tf()
    raise VolumeError(f"unknown TF preset {name!r}")


def preset_camera(name: str, volume, width: int, height: int) -> Camera:
    if name == "tangle":
        return tangle_camera(volume, width, height)
    if name == "spheres":
        return spheres_camera(volume, width, height)
    raise VolumeError(f"unknown camera preset {name!r}")

"""Core data model for deterministic and uncertain volumes, plus binary file formats.

Voxel payloads are stored flat in x-fastest order (index = x + nx*(y + ny*z)).
All binary formats are little-endian.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np
from scipy.special import ndtri

# Width floor applied whenever a quantile width is turned into a density.
# Stored boundaries may be exactly equal; the floor never enters storage.
EPS_WIDTH = 1e-12

# Finite-support clamp for Gaussian quantile extraction; mass error < 1e-8.
GAUSS_TAIL_SIGMAS = 6.0

QVOL_MAGIC = b"QVOL1"
DVOL_MAGIC = b"DVOL1"

Vec3 = tuple[float, float, float]
Dims = tuple[int, int, int]

RAW_ENCODINGS = {
    "u8": (np.dtype("u1"), 255.0),
    "u16": (np.dtype("<u2"), 65535.0),
    "f32": (np.dtype("<f4"), None),
}


class VolumeError(ValueError):
    """Invalid volume data or parameters."""


class FormatError(VolumeError):
    """Malformed, truncated, or inconsistent volume file."""


def _as_dims(dims) -> Dims:
    dims = tuple(int(d) for d in dims)
    if len(dims) != 3 or any(d < 1 for d in dims):
        raise VolumeError(f"dims must be three positive integers, got {dims}")
    return dims


def _as_vec3(v) -> Vec3:
    v = tuple(float(x) for x in v)
    if len(v) != 3:
        raise VolumeError(f"expected a 3-vector, got {v}")
    return v


def require_finite(values, what: str) -> None:
    """Raise VolumeError unless every entry of values is finite."""
    if not np.all(np.isfinite(values)):
        raise VolumeError(f"{what} must be finite")


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class ScalarGrid:
    """Deterministic scalar field on a regular grid.

    values holds nx*ny*nz intensities, x-fastest.  Immutable after
    construction; safe for concurrent reads.
    """

    dims: Dims
    spacing: Vec3
    origin: Vec3
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dims", _as_dims(self.dims))
        object.__setattr__(self, "spacing", _as_vec3(self.spacing))
        object.__setattr__(self, "origin", _as_vec3(self.origin))
        if any(s <= 0 for s in self.spacing):
            raise VolumeError(f"spacing must be positive, got {self.spacing}")
        vals = np.ascontiguousarray(self.values, dtype=np.float64).ravel()
        if vals.size != self.voxel_count:
            raise VolumeError(
                f"value count {vals.size} != nx*ny*nz = {self.voxel_count}"
            )
        require_finite(vals, "grid values")
        object.__setattr__(self, "values", _frozen(vals))

    @property
    def voxel_count(self) -> int:
        nx, ny, nz = self.dims
        return nx * ny * nz

    @property
    def values3d(self) -> np.ndarray:
        """View shaped (nz, ny, nx); C order matches the x-fastest layout."""
        nx, ny, nz = self.dims
        return self.values.reshape(nz, ny, nx)

    def flat_index(self, i: int, j: int, k: int) -> int:
        nx, ny, nz = self.dims
        if not (0 <= i < nx and 0 <= j < ny and 0 <= k < nz):
            raise VolumeError(f"voxel index {(i, j, k)} out of bounds {self.dims}")
        return i + nx * (j + ny * k)

    def at(self, i: int, j: int, k: int) -> float:
        return float(self.values[self.flat_index(i, j, k)])

    @property
    def world_min(self) -> np.ndarray:
        return np.asarray(self.origin, dtype=np.float64)

    @property
    def world_max(self) -> np.ndarray:
        d = np.asarray(self.dims, dtype=np.float64) - 1.0
        return self.world_min + d * np.asarray(self.spacing, dtype=np.float64)


@dataclass(frozen=True)
class QuantilePdf:
    """Piecewise-constant PDF stored as q+1 nondecreasing quantile boundaries.

    Each of the q pieces carries probability mass qval; the density on piece j
    is qval / max(width_j, EPS_WIDTH).
    """

    qval: float
    boundaries: np.ndarray

    def __post_init__(self):
        b = np.ascontiguousarray(self.boundaries, dtype=np.float64).ravel()
        if b.size < 2:
            raise VolumeError("a quantile pdf needs at least two boundaries")
        require_finite(b, "quantile boundaries")
        if np.any(np.diff(b) < 0):
            raise VolumeError("quantile boundaries must be nondecreasing")
        q = b.size - 1
        if abs(q * self.qval - 1.0) > 1e-9:
            raise VolumeError(f"q*qval must equal 1 (q={q}, qval={self.qval})")
        object.__setattr__(self, "qval", float(self.qval))
        object.__setattr__(self, "boundaries", _frozen(b))

    @property
    def q(self) -> int:
        return self.boundaries.size - 1

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.boundaries)

    def densities(self) -> np.ndarray:
        """Per-piece density qval/width with the degenerate-width floor."""
        return self.qval / np.maximum(self.widths, EPS_WIDTH)

    def cdf(self, x) -> np.ndarray:
        """Piecewise-linear CDF evaluated at x."""
        masses = np.arange(self.q + 1, dtype=np.float64) * self.qval
        return np.interp(x, self.boundaries, masses)

    def mean(self) -> float:
        mids = 0.5 * (self.boundaries[:-1] + self.boundaries[1:])
        return float(np.sum(mids) * self.qval)


# Per-voxel payload containers.  One model tag applies to the whole volume.


@dataclass(frozen=True)
class MeanFieldModel:
    values: np.ndarray  # (nvox,)

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=np.float64).ravel()
        require_finite(v, "mean-field values")
        object.__setattr__(self, "values", _frozen(v))

    @property
    def voxel_count(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class UniformModel:
    center: np.ndarray  # (nvox,)
    width: np.ndarray  # (nvox,)

    def __post_init__(self):
        c = np.ascontiguousarray(self.center, dtype=np.float64).ravel()
        w = np.ascontiguousarray(self.width, dtype=np.float64).ravel()
        if c.size != w.size:
            raise VolumeError("uniform center/width grids must be congruent")
        require_finite(c, "uniform parameters")
        require_finite(w, "uniform parameters")
        if np.any(w < 0):
            raise VolumeError("uniform widths must be nonnegative")
        object.__setattr__(self, "center", _frozen(c))
        object.__setattr__(self, "width", _frozen(w))

    @property
    def voxel_count(self) -> int:
        return self.center.size


@dataclass(frozen=True)
class GaussianModel:
    mean: np.ndarray  # (nvox,)
    sigma: np.ndarray  # (nvox,)

    def __post_init__(self):
        m = np.ascontiguousarray(self.mean, dtype=np.float64).ravel()
        s = np.ascontiguousarray(self.sigma, dtype=np.float64).ravel()
        if m.size != s.size:
            raise VolumeError("gaussian mean/sigma grids must be congruent")
        require_finite(m, "gaussian parameters")
        require_finite(s, "gaussian parameters")
        if np.any(s < 0):
            raise VolumeError("gaussian sigmas must be nonnegative")
        object.__setattr__(self, "mean", _frozen(m))
        object.__setattr__(self, "sigma", _frozen(s))

    @property
    def voxel_count(self) -> int:
        return self.mean.size


@dataclass(frozen=True)
class GmmVolumeModel:
    """Per-voxel Gaussian mixtures with a shared component count k."""

    k: int
    weights: np.ndarray  # (nvox, k)
    means: np.ndarray  # (nvox, k)
    sigmas: np.ndarray  # (nvox, k)

    def __post_init__(self):
        k = int(self.k)
        if k < 1:
            raise VolumeError("gmm needs k >= 1")
        w = np.ascontiguousarray(self.weights, dtype=np.float64).reshape(-1, k)
        m = np.ascontiguousarray(self.means, dtype=np.float64).reshape(-1, k)
        s = np.ascontiguousarray(self.sigmas, dtype=np.float64).reshape(-1, k)
        if not (w.shape == m.shape == s.shape):
            raise VolumeError("gmm parameter grids must be congruent")
        if np.any(w < 0) or np.any(s < 0):
            raise VolumeError("gmm weights and sigmas must be nonnegative")
        if np.any(np.abs(w.sum(axis=1) - 1.0) > 1e-6):
            raise VolumeError("gmm weights must sum to 1 within 1e-6")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "weights", _frozen(w))
        object.__setattr__(self, "means", _frozen(m))
        object.__setattr__(self, "sigmas", _frozen(s))

    @property
    def voxel_count(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True)
class QuantileModel:
    qval: float
    boundaries: np.ndarray  # (nvox, q+1)

    def __post_init__(self):
        b = np.ascontiguousarray(self.boundaries, dtype=np.float64)
        if b.ndim != 2 or b.shape[1] < 2:
            raise VolumeError("quantile boundaries must be (nvox, q+1)")
        q = b.shape[1] - 1
        if abs(q * self.qval - 1.0) > 1e-9:
            raise VolumeError(f"q*qval must equal 1 (q={q}, qval={self.qval})")
        require_finite(b, "quantile boundaries")
        if np.any(np.diff(b, axis=1) < 0):
            raise VolumeError("quantile boundaries must be nondecreasing")
        object.__setattr__(self, "qval", float(self.qval))
        object.__setattr__(self, "boundaries", _frozen(b))

    @property
    def q(self) -> int:
        return self.boundaries.shape[1] - 1

    @property
    def voxel_count(self) -> int:
        return self.boundaries.shape[0]


@dataclass(frozen=True)
class SamplesModel:
    count: int
    samples: np.ndarray  # (nvox, M)

    def __post_init__(self):
        count = int(self.count)
        s = np.ascontiguousarray(self.samples, dtype=np.float64).reshape(-1, count)
        if count < 1:
            raise VolumeError("samples model needs M >= 1")
        require_finite(s, "samples")
        object.__setattr__(self, "count", count)
        object.__setattr__(self, "samples", _frozen(s))

    @property
    def voxel_count(self) -> int:
        return self.samples.shape[0]


VoxelModel = Union[
    MeanFieldModel, UniformModel, GaussianModel, GmmVolumeModel, QuantileModel, SamplesModel
]


@dataclass(frozen=True)
class DistributionVolume:
    """3D grid whose voxels carry one shared uncertainty model."""

    dims: Dims
    spacing: Vec3
    origin: Vec3
    model: VoxelModel

    def __post_init__(self):
        object.__setattr__(self, "dims", _as_dims(self.dims))
        object.__setattr__(self, "spacing", _as_vec3(self.spacing))
        object.__setattr__(self, "origin", _as_vec3(self.origin))
        if any(s <= 0 for s in self.spacing):
            raise VolumeError(f"spacing must be positive, got {self.spacing}")
        nvox = self.voxel_count
        if self.model.voxel_count != nvox:
            raise VolumeError(
                f"model holds {self.model.voxel_count} voxels, dims need {nvox}"
            )

    @property
    def voxel_count(self) -> int:
        nx, ny, nz = self.dims
        return nx * ny * nz

    def flat_index(self, i: int, j: int, k: int) -> int:
        nx, ny, nz = self.dims
        if not (0 <= i < nx and 0 <= j < ny and 0 <= k < nz):
            raise VolumeError(f"voxel index {(i, j, k)} out of bounds {self.dims}")
        return i + nx * (j + ny * k)

    @property
    def world_min(self) -> np.ndarray:
        return np.asarray(self.origin, dtype=np.float64)

    @property
    def world_max(self) -> np.ndarray:
        d = np.asarray(self.dims, dtype=np.float64) - 1.0
        return self.world_min + d * np.asarray(self.spacing, dtype=np.float64)


@dataclass(frozen=True)
class EnsembleVolume:
    """M member grids with identical dims/spacing/origin."""

    members: tuple[ScalarGrid, ...]

    def __post_init__(self):
        members = tuple(self.members)
        if not members:
            raise VolumeError("an ensemble needs at least one member")
        first = members[0]
        for g in members[1:]:
            if (g.dims, g.spacing, g.origin) != (first.dims, first.spacing, first.origin):
                raise VolumeError("ensemble members must be congruent")
        object.__setattr__(self, "members", members)

    @property
    def member_count(self) -> int:
        return len(self.members)

    @property
    def dims(self) -> Dims:
        return self.members[0].dims

    @property
    def spacing(self) -> Vec3:
        return self.members[0].spacing

    @property
    def origin(self) -> Vec3:
        return self.members[0].origin

    def stacked(self) -> np.ndarray:
        """Member values as (nvox, M); the per-voxel sample sets."""
        return np.stack([g.values for g in self.members], axis=1)


# ---------------------------------------------------------------------------
# Raw volume I/O


def load_raw(path, dims, encoding: str, spacing=(1.0, 1.0, 1.0), origin=(0.0, 0.0, 0.0)) -> ScalarGrid:
    """Read a raw volume file; integer encodings are normalized to [0, 1]."""
    dims = _as_dims(dims)
    if encoding not in RAW_ENCODINGS:
        raise FormatError(f"unknown raw encoding {encoding!r}")
    dtype, denom = RAW_ENCODINGS[encoding]
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as e:
        raise FormatError(f"cannot read {path}: {e}") from e
    nvox = dims[0] * dims[1] * dims[2]
    expected = nvox * dtype.itemsize
    if len(raw) != expected:
        raise FormatError(
            f"{path}: size {len(raw)} != {expected} for dims {dims} encoding {encoding}"
        )
    vals = np.frombuffer(raw, dtype=dtype).astype(np.float64)
    if denom is not None:
        vals = vals / denom
    elif not np.all(np.isfinite(vals)):
        raise FormatError(f"{path}: non-finite f32 values")
    return ScalarGrid(dims, spacing, origin, vals)


def save_raw(grid: ScalarGrid, path, encoding: str) -> None:
    """Write a raw volume file; integer encodings assume values in [0, 1]."""
    if encoding not in RAW_ENCODINGS:
        raise FormatError(f"unknown raw encoding {encoding!r}")
    dtype, denom = RAW_ENCODINGS[encoding]
    vals = grid.values
    if denom is not None:
        out = np.clip(np.rint(vals * denom), 0, denom).astype(dtype)
    else:
        out = vals.astype(dtype)
    Path(path).write_bytes(out.tobytes())


# ---------------------------------------------------------------------------
# QVOL1: quantile-model volume format
#
#   magic "QVOL1" | nx ny nz u32 | spacing f64*3 | origin f64*3 | q u32 |
#   qval f64 | per-voxel q+1 f32 boundaries, voxels x-fastest.

_QVOL_HEADER = struct.Struct("<5s3I3d3dId")


def save_qvol(volume: DistributionVolume, path) -> None:
    if not isinstance(volume.model, QuantileModel):
        raise VolumeError("save_qvol requires a quantile-model volume")
    m = volume.model
    header = _QVOL_HEADER.pack(
        QVOL_MAGIC, *volume.dims, *volume.spacing, *volume.origin, m.q, m.qval
    )
    payload = m.boundaries.astype("<f4").tobytes()
    Path(path).write_bytes(header + payload)


def load_qvol(path) -> DistributionVolume:
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as e:
        raise FormatError(f"cannot read {path}: {e}") from e
    if len(raw) < _QVOL_HEADER.size:
        raise FormatError(f"{path}: truncated header")
    magic, nx, ny, nz, sx, sy, sz, ox, oy, oz, q, qval = _QVOL_HEADER.unpack_from(raw)
    if magic != QVOL_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    nvox = nx * ny * nz
    expected = _QVOL_HEADER.size + nvox * (q + 1) * 4
    if len(raw) != expected:
        raise FormatError(f"{path}: payload size {len(raw)} != {expected}")
    boundaries = np.frombuffer(raw, dtype="<f4", offset=_QVOL_HEADER.size)
    boundaries = boundaries.astype(np.float64).reshape(nvox, q + 1)
    # QuantileModel validates qval*q, monotonicity, and finiteness.
    model = QuantileModel(qval=qval, boundaries=boundaries)
    return DistributionVolume((nx, ny, nz), (sx, sy, sz), (ox, oy, oz), model)


# ---------------------------------------------------------------------------
# DVOL1: container for the non-quantile models (artifact plumbing)
#
#   magic "DVOL1" | tag u8 | nx ny nz u32 | spacing f64*3 | origin f64*3 |
#   extra u32 (k for gmm, M for samples, else 0) | per-voxel f32 payload.

_DVOL_HEADER = struct.Struct("<5sB3I3d3dI")

_DVOL_TAGS = {"mean": 0, "uniform": 1, "gaussian": 2, "gmm": 3, "samples": 4}
_DVOL_KINDS = {v: k for k, v in _DVOL_TAGS.items()}


def _dvol_payload(model: VoxelModel) -> tuple[int, int, np.ndarray]:
    if isinstance(model, MeanFieldModel):
        return _DVOL_TAGS["mean"], 0, model.values[:, None]
    if isinstance(model, UniformModel):
        return _DVOL_TAGS["uniform"], 0, np.stack([model.center, model.width], axis=1)
    if isinstance(model, GaussianModel):
        return _DVOL_TAGS["gaussian"], 0, np.stack([model.mean, model.sigma], axis=1)
    if isinstance(model, GmmVolumeModel):
        interleaved = np.stack([model.weights, model.means, model.sigmas], axis=2)
        return _DVOL_TAGS["gmm"], model.k, interleaved.reshape(model.voxel_count, -1)
    if isinstance(model, SamplesModel):
        return _DVOL_TAGS["samples"], model.count, model.samples
    raise VolumeError(f"save_dvol does not handle {type(model).__name__}; use save_qvol")


def save_dvol(volume: DistributionVolume, path) -> None:
    tag, extra, payload = _dvol_payload(volume.model)
    header = _DVOL_HEADER.pack(
        DVOL_MAGIC, tag, *volume.dims, *volume.spacing, *volume.origin, extra
    )
    Path(path).write_bytes(header + payload.astype("<f4").tobytes())


def load_dvol(path) -> DistributionVolume:
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as e:
        raise FormatError(f"cannot read {path}: {e}") from e
    if len(raw) < _DVOL_HEADER.size:
        raise FormatError(f"{path}: truncated header")
    magic, tag, nx, ny, nz, sx, sy, sz, ox, oy, oz, extra = _DVOL_HEADER.unpack_from(raw)
    if magic != DVOL_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if tag not in _DVOL_KINDS:
        raise FormatError(f"{path}: unknown model tag {tag}")
    kind = _DVOL_KINDS[tag]
    nvox = nx * ny * nz
    per_voxel = {"mean": 1, "uniform": 2, "gaussian": 2, "gmm": 3 * extra, "samples": extra}[kind]
    expected = _DVOL_HEADER.size + nvox * per_voxel * 4
    if len(raw) != expected:
        raise FormatError(f"{path}: payload size {len(raw)} != {expected}")
    flat = np.frombuffer(raw, dtype="<f4", offset=_DVOL_HEADER.size).astype(np.float64)
    flat = flat.reshape(nvox, per_voxel)
    if kind == "mean":
        model: VoxelModel = MeanFieldModel(flat[:, 0])
    elif kind == "uniform":
        model = UniformModel(flat[:, 0], flat[:, 1])
    elif kind == "gaussian":
        model = GaussianModel(flat[:, 0], flat[:, 1])
    elif kind == "gmm":
        p = flat.reshape(nvox, extra, 3)
        model = GmmVolumeModel(extra, p[:, :, 0], p[:, :, 1], p[:, :, 2])
    else:
        model = SamplesModel(extra, flat)
    return DistributionVolume((nx, ny, nz), (sx, sy, sz), (ox, oy, oz), model)


def load_volume(path, dims=None, encoding="f32") -> DistributionVolume:
    """Open a QVOL1/DVOL1 file, or a raw file (needs dims) as a mean field."""
    path = Path(path)
    try:
        with open(path, "rb") as f:
            magic = f.read(5)
    except OSError as e:
        raise FormatError(f"cannot read {path}: {e}") from e
    if magic == QVOL_MAGIC:
        return load_qvol(path)
    if magic == DVOL_MAGIC:
        return load_dvol(path)
    if dims is None:
        raise FormatError(f"{path}: not a QVOL1/DVOL1 file and no dims given")
    grid = load_raw(path, dims, encoding)
    return DistributionVolume(grid.dims, grid.spacing, grid.origin, MeanFieldModel(grid.values))


# ---------------------------------------------------------------------------
# Quantile extraction per voxel


def _quantile_masses(qval: float) -> np.ndarray:
    q = int(round(1.0 / qval))
    if abs(q * qval - 1.0) > 1e-9 or q < 1:
        raise VolumeError(f"qval {qval} is not a unit fraction")
    return np.arange(q + 1, dtype=np.float64) * qval


def gaussian_quantiles(mean: float, sigma: float, qval: float) -> np.ndarray:
    """Gaussian quantile boundaries with outermost values clamped to mu +- 6 sigma."""
    masses = _quantile_masses(qval)
    if sigma == 0.0:
        return np.full(masses.size, mean)
    z = np.empty(masses.size)
    z[0] = -GAUSS_TAIL_SIGMAS
    z[-1] = GAUSS_TAIL_SIGMAS
    z[1:-1] = ndtri(masses[1:-1])
    return mean + sigma * z


def uniform_quantiles(center: float, width: float, qval: float) -> np.ndarray:
    masses = _quantile_masses(qval)
    return (center - 0.5 * width) + width * masses


def empirical_quantiles(samples: np.ndarray, qval: float) -> np.ndarray:
    """Linear interpolation between adjacent order statistics (inclusive rule)."""
    masses = _quantile_masses(qval)
    return np.quantile(np.asarray(samples, dtype=np.float64), masses)


def gmm_quantiles(weights, means, sigmas, qval: float) -> np.ndarray:
    """Mixture quantiles by bisection on the mixture CDF; tails clamped at 6 sigma."""
    from scipy.special import ndtr

    masses = _quantile_masses(qval)
    w = np.asarray(weights, dtype=np.float64)
    mu = np.asarray(means, dtype=np.float64)
    sg = np.asarray(sigmas, dtype=np.float64)
    lo = float(np.min(mu - GAUSS_TAIL_SIGMAS * sg))
    hi = float(np.max(mu + GAUSS_TAIL_SIGMAS * sg))
    if hi <= lo:
        return np.full(masses.size, lo)

    def cdf(x):
        safe = np.maximum(sg, 1e-300)
        comp = ndtr((x[:, None] - mu[None, :]) / safe[None, :])
        return comp @ w

    out = np.empty(masses.size)
    out[0], out[-1] = lo, hi
    interior = masses[1:-1]
    a = np.full(interior.size, lo)
    b = np.full(interior.size, hi)
    for _ in range(80):
        mid = 0.5 * (a + b)
        below = cdf(mid) < interior
        a = np.where(below, mid, a)
        b = np.where(below, b, mid)
    out[1:-1] = 0.5 * (a + b)
    return np.maximum.accumulate(out)


def voxel_pdf(volume: DistributionVolume, index, qval: float | None = None) -> QuantilePdf:
    """Quantile representation of one voxel's distribution.

    Parametric models need a target qval; the quantile model passes through.
    """
    i, j, k = index
    flat = volume.flat_index(int(i), int(j), int(k))
    m = volume.model
    if isinstance(m, QuantileModel):
        if qval is not None and abs(qval - m.qval) > 1e-12:
            raise VolumeError(f"volume stores qval={m.qval}, cannot serve qval={qval}")
        return QuantilePdf(m.qval, m.boundaries[flat])
    if qval is None:
        raise VolumeError("parametric models need a target qval")
    if isinstance(m, MeanFieldModel):
        masses = _quantile_masses(qval)
        return QuantilePdf(qval, np.full(masses.size, m.values[flat]))
    if isinstance(m, UniformModel):
        return QuantilePdf(qval, uniform_quantiles(m.center[flat], m.width[flat], qval))
    if isinstance(m, GaussianModel):
        return QuantilePdf(qval, gaussian_quantiles(m.mean[flat], m.sigma[flat], qval))
    if isinstance(m, GmmVolumeModel):
        b = gmm_quantiles(m.weights[flat], m.means[flat], m.sigmas[flat], qval)
        return QuantilePdf(qval, b)
    if isinstance(m, SamplesModel):
        return QuantilePdf(qval, empirical_quantiles(m.samples[flat], qval))
    raise VolumeError(f"unhandled model {type(m).__name__}")

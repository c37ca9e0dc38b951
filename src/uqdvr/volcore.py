"""Core data model for deterministic and uncertain volumes, plus binary file formats.

Voxel payloads are stored flat in x-fastest order (index = x + nx*(y + ny*z)).
All binary formats are little-endian.
"""

from __future__ import annotations

import math
import operator
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import ndtr, ndtri

# Width floor applied whenever a quantile width is turned into a density.
# Stored boundaries may be exactly equal; the floor never enters storage.
EPS_WIDTH = 1e-12

# Finite-support clamp for Gaussian quantile extraction; mass error < 1e-8.
GAUSS_TAIL_SIGMAS = 6.0

# Largest value lattice a KDE fit or a uniform-sum convolution may use.
MAX_LATTICE = 65536

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


def _floats(values, shape, dtype=np.float64) -> np.ndarray | None:
    """values as a C-contiguous float array of dtype, or None unless they are
    numbers (in the given shape, when there is one)."""
    try:
        a = np.require(values, dtype, "C")
    except (TypeError, ValueError, OverflowError):
        return None
    return a if shape is None or a.shape == shape else None


def _of_shape(shape) -> str:
    return "" if shape is None else f" with shape {shape}"


def require_finite(values, what: str, shape: tuple | None = None,
                   dtype=np.float64) -> np.ndarray:
    """values as a checked C-contiguous float array of dtype (float64 unless
    given); VolumeError unless they are numbers, every one finite once
    converted, in the given shape when there is one."""
    a = _floats(values, shape, dtype)
    if a is None or not np.all(np.isfinite(a)):
        raise VolumeError(f"{what} must be finite{_of_shape(shape)}")
    return a


def require_positive(values, what: str, shape: tuple | None = None) -> np.ndarray:
    """require_finite, and every entry positive."""
    a = _floats(values, shape)
    if a is None or not np.all(np.isfinite(a) & (a > 0)):
        raise VolumeError(f"{what} must be finite and positive{_of_shape(shape)}, got {values}")
    return a


def require_int(value, what: str, least: int = 1) -> int:
    """value as an int; VolumeError unless it is an integer >= least."""
    try:
        v = operator.index(value)
    except TypeError:
        raise VolumeError(f"{what} must be an integer") from None
    if v < least:
        raise VolumeError(f"{what} must be at least {least}")
    return v


def require_ints(values, n: int, what: str, least: int = 1) -> tuple[int, ...]:
    """values as a tuple of n ints; VolumeError unless there are n of them and
    each is an integer >= least.  An iterable without a length, such as a
    generator, is not n of anything."""
    try:
        sized = len(values) == n
    except TypeError:
        sized = False
    if not sized:
        raise VolumeError(f"{what} must be {n} integers, got {values!r}")
    return tuple(require_int(v, what, least) for v in values)


def map_chunks(fn, v: int, threads: int, chunk: int) -> list:
    """[fn(lo, hi)] over consecutive chunk-row ranges of v rows; the ranges
    never depend on threads, so neither do the results."""
    threads = require_int(threads, "threads")
    bounds = [(lo, min(lo + chunk, v)) for lo in range(0, v, chunk)]
    if threads > 1 and len(bounds) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(lambda b: fn(*b), bounds))
    return [fn(lo, hi) for lo, hi in bounds]


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class _Geometry:
    """The dims, spacing and origin of a regular grid with x-fastest voxel ids."""

    def _check_geometry(self) -> None:
        object.__setattr__(self, "dims", require_ints(self.dims, 3, "dims"))
        for name, check in (("spacing", require_positive), ("origin", require_finite)):
            object.__setattr__(self, name, tuple(check(getattr(self, name), name, (3,)).tolist()))

    @property
    def voxel_count(self) -> int:
        nx, ny, nz = self.dims
        return nx * ny * nz

    def flat_index(self, i: int, j: int, k: int) -> int:
        i, j, k = require_ints((i, j, k), 3, "voxel index", 0)
        nx, ny, nz = self.dims
        if not (i < nx and j < ny and k < nz):
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
class ScalarGrid(_Geometry):
    """Deterministic scalar field on a regular grid.

    values holds nx*ny*nz intensities, x-fastest.  Immutable after
    construction; safe for concurrent reads.
    """

    dims: Dims
    spacing: Vec3
    origin: Vec3
    values: np.ndarray

    def __post_init__(self):
        self._check_geometry()
        vals = require_finite(self.values, "grid values").ravel()
        if vals.size != self.voxel_count:
            raise VolumeError(
                f"value count {vals.size} != nx*ny*nz = {self.voxel_count}"
            )
        object.__setattr__(self, "values", _frozen(vals))

    @property
    def values3d(self) -> np.ndarray:
        """View shaped (nz, ny, nx); C order matches the x-fastest layout."""
        nx, ny, nz = self.dims
        return self.values.reshape(nz, ny, nx)

    def at(self, i: int, j: int, k: int) -> float:
        return float(self.values[self.flat_index(i, j, k)])


@dataclass(frozen=True)
class QuantilePdf:
    """Piecewise-constant PDF stored as q+1 nondecreasing quantile boundaries.

    Each of the q pieces carries probability mass qval; the density on piece j
    is qval / max(width_j, EPS_WIDTH).
    """

    qval: float
    boundaries: np.ndarray

    def __post_init__(self):
        model = QuantileModel(self.qval, np.ravel(self.boundaries)[None, :])  # one voxel's checks
        object.__setattr__(self, "qval", model.qval)
        object.__setattr__(self, "boundaries", model.boundaries[0])

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


# ---------------------------------------------------------------------------
# Quantile boundaries of one voxel's distribution, for each model kind


def _quantile_masses(qval: float) -> np.ndarray:
    qval = float(require_positive(qval, "qval", ()))
    q = round(1.0 / qval)
    if abs(q * qval - 1.0) > 1e-9:
        raise VolumeError(f"qval {qval} is not a unit fraction")
    return np.arange(q + 1, dtype=np.float64) * qval


def constant_quantiles(value: float, qval: float) -> np.ndarray:
    return np.full(_quantile_masses(qval).size, value)


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


# Per-voxel payload containers.  One model tag applies to the whole volume.


class VoxelModel:
    """A per-voxel model, declared by its kind name, its parameter FIELDS in
    DVOL1 payload order, the NONNEG fields that must be >= 0, and WIDTH, the
    integer field (if any) that gives the row length of (nvox, width) fields.
    The constructor check and the DVOL1 layout are derived from these.
    QUANTILES maps one voxel's FIELDS values and a qval to its quantile
    boundaries."""

    kind: str
    FIELDS: tuple[str, ...]
    NONNEG: tuple[str, ...] = ()
    WIDTH: str | None = None

    def __post_init__(self):
        width = None
        if self.WIDTH:
            width = require_int(getattr(self, self.WIDTH), f"{self.kind} {self.WIDTH}")
            object.__setattr__(self, self.WIDTH, width)
        self._check_fields(width)

    def _check_fields(self, width: int | None) -> None:
        """Store each field as a frozen contiguous float64 array, (nvox,) when
        width is None else (nvox, width), once the fields are congruent and
        finite and the NONNEG ones nonnegative."""
        arrays = [require_finite(getattr(self, f), f"{self.kind} parameters") for f in self.FIELDS]
        if len({a.size for a in arrays}) > 1 or (width and arrays[0].size % width):
            raise VolumeError(f"{self.kind} parameter grids must be congruent")
        for name, a in zip(self.FIELDS, arrays):
            a = a.ravel() if width is None else a.reshape(-1, width)
            if name in self.NONNEG and np.any(a < 0):
                raise VolumeError(f"{self.kind} {name} must be nonnegative")
            object.__setattr__(self, name, _frozen(a))

    @property
    def voxel_count(self) -> int:
        return getattr(self, self.FIELDS[0]).shape[0]

    def voxel_pdf(self, flat: int, qval: float | None) -> QuantilePdf:
        """Quantile representation of voxel flat at the target qval, which
        parametric models need; the quantile model passes its pdf through."""
        if qval is None:
            raise VolumeError("parametric models need a target qval")
        params = (getattr(self, f)[flat] for f in self.FIELDS)
        return QuantilePdf(qval, self.QUANTILES(*params, qval))


@dataclass(frozen=True)
class MeanFieldModel(VoxelModel):
    kind, FIELDS, QUANTILES = "mean", ("values",), staticmethod(constant_quantiles)

    values: np.ndarray  # (nvox,)


@dataclass(frozen=True)
class UniformModel(VoxelModel):
    kind, FIELDS, NONNEG = "uniform", ("center", "width"), ("width",)
    QUANTILES = staticmethod(uniform_quantiles)

    center: np.ndarray  # (nvox,)
    width: np.ndarray  # (nvox,)


@dataclass(frozen=True)
class GaussianModel(VoxelModel):
    kind, FIELDS, NONNEG = "gaussian", ("mean", "sigma"), ("sigma",)
    QUANTILES = staticmethod(gaussian_quantiles)

    mean: np.ndarray  # (nvox,)
    sigma: np.ndarray  # (nvox,)


def sort_components(weights, means, sigmas) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mixture parameters with the components of each row in stable mean order."""
    order = np.argsort(means, axis=-1, kind="stable")
    return tuple(np.take_along_axis(a, order, axis=-1) for a in (weights, means, sigmas))


@dataclass(frozen=True)
class GmmVolumeModel(VoxelModel):
    """Per-voxel Gaussian mixtures with a shared component count k."""

    kind, FIELDS, NONNEG, WIDTH = "gmm", ("weights", "means", "sigmas"), ("weights", "sigmas"), "k"
    QUANTILES = staticmethod(gmm_quantiles)

    k: int
    weights: np.ndarray  # (nvox, k)
    means: np.ndarray  # (nvox, k)
    sigmas: np.ndarray  # (nvox, k)

    def __post_init__(self):
        super().__post_init__()
        if np.any(np.abs(self.weights.sum(axis=1) - 1.0) > 1e-6):
            raise VolumeError("gmm weights must sum to 1 within 1e-6")


@dataclass(frozen=True)
class GmmModel:
    """One Gaussian mixture: k components of (weight, mean, sigma)."""

    weights: np.ndarray
    means: np.ndarray
    sigmas: np.ndarray

    def __post_init__(self):
        model = GmmVolumeModel(np.size(self.weights), self.weights, self.means, self.sigmas)
        for name in model.FIELDS:  # the checks of one voxel's mixture
            object.__setattr__(self, name, getattr(model, name)[0])

    @property
    def k(self) -> int:
        return self.weights.size

    def sorted_by_mean(self) -> "GmmModel":
        return GmmModel(*sort_components(self.weights, self.means, self.sigmas))


@dataclass(frozen=True)
class QuantileModel(VoxelModel):
    kind, FIELDS = "quantile", ("boundaries",)

    qval: float
    boundaries: np.ndarray  # (nvox, q+1)

    def __post_init__(self):
        b = _floats(self.boundaries, None)  # _check_fields makes the one finite pass
        if b is None or b.ndim != 2 or b.shape[1] < 2:
            raise VolumeError("quantile boundaries must be (nvox, q+1)")
        qval = float(require_positive(self.qval, "qval", ()))
        if abs((b.shape[1] - 1) * qval - 1.0) > 1e-9:
            raise VolumeError(f"q*qval must equal 1 (q={b.shape[1] - 1}, qval={qval})")
        object.__setattr__(self, "qval", qval)
        object.__setattr__(self, "boundaries", b)
        self._check_fields(b.shape[1])
        if np.any(np.diff(self.boundaries, axis=1) < 0):
            raise VolumeError("quantile boundaries must be nondecreasing")

    @property
    def q(self) -> int:
        return self.boundaries.shape[1] - 1

    def voxel_pdf(self, flat: int, qval: float | None) -> QuantilePdf:
        """The stored pdf of voxel flat; qval, if given, must be the stored one."""
        if qval is not None and abs(float(require_positive(qval, "qval", ())) - self.qval) > 1e-12:
            raise VolumeError(f"volume stores qval={self.qval}, cannot serve qval={qval}")
        return QuantilePdf(self.qval, self.boundaries[flat])


@dataclass(frozen=True)
class SamplesModel(VoxelModel):
    kind, FIELDS, WIDTH = "samples", ("samples",), "count"
    QUANTILES = staticmethod(empirical_quantiles)

    count: int
    samples: np.ndarray  # (nvox, M)


# The index of each class is its DVOL1 model tag.
_DVOL_MODELS = (MeanFieldModel, UniformModel, GaussianModel, GmmVolumeModel, SamplesModel)
MODEL_KINDS = {cls.kind: cls for cls in (*_DVOL_MODELS, QuantileModel)}


@dataclass(frozen=True)
class DistributionVolume(_Geometry):
    """3D grid whose voxels carry one shared uncertainty model."""

    dims: Dims
    spacing: Vec3
    origin: Vec3
    model: VoxelModel

    def __post_init__(self):
        self._check_geometry()
        nvox = self.voxel_count
        if self.model.voxel_count != nvox:
            raise VolumeError(
                f"model holds {self.model.voxel_count} voxels, dims need {nvox}"
            )


class EnsembleVolume(_Geometry):
    """M member grids with identical dims/spacing/origin: the M samples of
    every voxel, which the fits read as (chunk, M) row blocks.  Not modified
    after construction; safe for concurrent reads."""

    def __init__(self, members):
        members = tuple(members)
        if not members:
            raise VolumeError("an ensemble needs at least one member")
        first = members[0]
        for g in members[1:]:
            if (g.dims, g.spacing, g.origin) != (first.dims, first.spacing, first.origin):
                raise VolumeError("ensemble members must be congruent")
        self._members = members
        self.dims, self.spacing, self.origin = first.dims, first.spacing, first.origin
        self.member_count = len(members)

    @property
    def members(self) -> tuple[ScalarGrid, ...]:
        return self._members

    def rows(self, lo: int, hi: int) -> np.ndarray:
        """Sample sets of voxels lo..hi-1 as a C-contiguous (hi-lo, M) float64 block."""
        return np.stack([g.values[lo:hi] for g in self._members], axis=1)

    def stacked(self) -> np.ndarray:
        """Member values as (nvox, M); the per-voxel sample sets."""
        return self.rows(0, self.voxel_count)


def _with_fd(path, call, *args):
    """call(fd, *args) on path opened for reading; FormatError when it cannot
    be read."""
    try:
        fd = os.open(path, os.O_RDONLY)
        try:
            return call(fd, *args)
        finally:
            os.close(fd)
    except OSError as e:
        raise FormatError(f"cannot read {path}: {e}") from e


class FileEnsemble(EnsembleVolume):
    """An ensemble whose members stay on disk, one raw little-endian f32 file
    per member grid.  Construction checks the geometry and that each file
    holds exactly one grid; rows reads each block straight from the files, so
    memory does not grow with the ensemble, and raises FormatError, naming the
    file, for a non-finite value in the block."""

    def __init__(self, paths, dims, spacing, origin):
        self.dims, self.spacing, self.origin = dims, spacing, origin
        self._check_geometry()
        size = 4 * self.voxel_count
        checked = []
        for path in paths:  # stops at the first bad file of a long path iterable
            found = _with_fd(path, os.fstat).st_size
            if found != size:
                raise FormatError(f"{path}: payload size {found} != {size}")
            checked.append(path)
        if not checked:
            raise VolumeError("an ensemble needs at least one member")
        self._paths = tuple(checked)
        self.member_count = len(checked)

    @property
    def members(self) -> tuple[ScalarGrid, ...]:
        """The member grids, read from the files on each access."""
        return tuple(load_raw(p, self.dims, "f32", self.spacing, self.origin) for p in self._paths)

    def rows(self, lo: int, hi: int) -> np.ndarray:
        """Sample sets of voxels lo..hi-1 as a C-contiguous (hi-lo, M) float64
        block: one positioned read per member file, one transposing copy."""
        buf = np.empty((self.member_count, hi - lo), "<f4")
        for path, row in zip(self._paths, buf):
            if _with_fd(path, os.preadv, [row], 4 * lo) != row.nbytes:
                raise FormatError(f"{path}: short read of voxels {lo}..{hi - 1}")
        finite = np.isfinite(buf)
        if not finite.all():
            bad = self._paths[np.flatnonzero(~finite.all(axis=1))[0]]
            raise FormatError(f"{bad}: non-finite f32 values")
        return buf.T.astype(np.float64, order="C")


# ---------------------------------------------------------------------------
# Raw volume I/O


def read_file(path, limit: int = -1) -> bytes:
    """The first limit bytes of a file (all of it when limit < 0); FormatError
    when it cannot be read."""
    try:
        with open(path, "rb") as f:
            return f.read(limit)
    except OSError as e:
        raise FormatError(f"cannot read {path}: {e}") from e


def read_headed_f32(path, kinds: tuple, what: str) -> tuple[list, np.ndarray]:
    """The fields and payload of a file that starts with one ASCII line of
    len(kinds) numbers, each parsed by its kind (int or float), followed by
    four little-endian f32 channels per cell; the int fields, each at least 1,
    count the cells.  FormatError, naming what, when the file does not."""
    head, newline, body = read_file(path).partition(b"\n")
    if not newline:
        raise FormatError(f"{path}: missing {what} header")
    try:
        fields = [kind(v) for kind, v in zip(kinds, head.decode("ascii").split(), strict=True)]
    except ValueError as e:
        raise FormatError(f"{path}: bad {what} header") from e
    counts = [f for f, kind in zip(fields, kinds) if kind is int]
    if min(counts) < 1 or len(body) != 16 * math.prod(counts):
        raise FormatError(f"{path}: {what} of {counts} cells with a {len(body)}-byte payload")
    return fields, np.frombuffer(body, dtype="<f4")


def _unpack_header(raw: bytes, header: struct.Struct, magic: bytes, path) -> list:
    """The header fields after the magic; FormatError when raw is shorter than
    the header or starts with another magic."""
    if len(raw) < header.size:
        raise FormatError(f"{path}: truncated header")
    found, *fields = header.unpack_from(raw)
    if found != magic:
        raise FormatError(f"{path}: bad magic {found!r}")
    return fields


def _payload(raw: bytes, offset: int, rows: int, cols: int, dtype, path) -> np.ndarray:
    """raw[offset:] as a float64 (rows, cols) array; FormatError unless it
    holds exactly rows*cols values of dtype."""
    dtype = np.dtype(dtype)
    expected = offset + rows * cols * dtype.itemsize
    if len(raw) != expected:
        raise FormatError(f"{path}: payload size {len(raw)} != {expected}")
    return np.frombuffer(raw, dtype=dtype, offset=offset).astype(np.float64).reshape(rows, cols)


def load_raw(path, dims, encoding: str, spacing=(1.0, 1.0, 1.0), origin=(0.0, 0.0, 0.0)) -> ScalarGrid:
    """Read a raw volume file; integer encodings are normalized to [0, 1]."""
    dims = require_ints(dims, 3, "dims")
    if encoding not in RAW_ENCODINGS:
        raise FormatError(f"unknown raw encoding {encoding!r}")
    dtype, denom = RAW_ENCODINGS[encoding]
    vals = _payload(read_file(path), 0, dims[0] * dims[1] * dims[2], 1, dtype, path).ravel()
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
    raw = read_file(path)
    nx, ny, nz, sx, sy, sz, ox, oy, oz, q, qval = _unpack_header(raw, _QVOL_HEADER,
                                                                   QVOL_MAGIC, path)
    boundaries = _payload(raw, _QVOL_HEADER.size, nx * ny * nz, q + 1, "<f4", path)
    # QuantileModel validates qval*q, monotonicity, and finiteness.
    model = QuantileModel(qval=qval, boundaries=boundaries)
    return DistributionVolume((nx, ny, nz), (sx, sy, sz), (ox, oy, oz), model)


# ---------------------------------------------------------------------------
# DVOL1: container for the non-quantile models (artifact plumbing)
#
#   magic "DVOL1" | tag u8 | nx ny nz u32 | spacing f64*3 | origin f64*3 |
#   extra u32 (the WIDTH field: k for gmm, M for samples, else 0) |
#   per-voxel f32 payload: the model's FIELDS interleaved, column by column
#   for (nvox, width) fields (gmm: w0 mu0 sigma0 w1 ...).

_DVOL_HEADER = struct.Struct("<5sB3I3d3dI")


def save_dvol(volume: DistributionVolume, path) -> None:
    m = volume.model
    if type(m) not in _DVOL_MODELS:
        raise VolumeError(f"save_dvol does not handle {type(m).__name__}; use save_qvol")
    header = _DVOL_HEADER.pack(DVOL_MAGIC, _DVOL_MODELS.index(type(m)), *volume.dims,
                               *volume.spacing, *volume.origin,
                               getattr(m, m.WIDTH) if m.WIDTH else 0)
    payload = np.stack([getattr(m, f).astype("<f4") for f in m.FIELDS], axis=-1)
    Path(path).write_bytes(header + payload.tobytes())


def load_dvol(path) -> DistributionVolume:
    raw = read_file(path)
    tag, nx, ny, nz, sx, sy, sz, ox, oy, oz, extra = _unpack_header(raw, _DVOL_HEADER,
                                                                     DVOL_MAGIC, path)
    if tag >= len(_DVOL_MODELS):
        raise FormatError(f"{path}: unknown model tag {tag}")
    cls = _DVOL_MODELS[tag]
    lead = (extra,) if cls.WIDTH else ()
    width = extra if cls.WIDTH else 1
    if width < 1:
        raise FormatError(f"{path}: {cls.kind} volume with no values per voxel")
    nvox, nfields = nx * ny * nz, len(cls.FIELDS)
    flat = _payload(raw, _DVOL_HEADER.size, nvox, width * nfields, "<f4", path)
    fields = np.moveaxis(flat.reshape(nvox, width, nfields), -1, 0)
    return DistributionVolume((nx, ny, nz), (sx, sy, sz), (ox, oy, oz), cls(*lead, *fields))


def load_volume(path, dims=None, encoding="f32") -> DistributionVolume:
    """Open a QVOL1/DVOL1 file, or a raw file (needs dims) as a mean field."""
    magic = read_file(path, len(QVOL_MAGIC))
    if magic == QVOL_MAGIC:
        return load_qvol(path)
    if magic == DVOL_MAGIC:
        return load_dvol(path)
    if dims is None:
        raise FormatError(f"{path}: not a QVOL1/DVOL1 file and no dims given")
    grid = load_raw(path, dims, encoding)
    return DistributionVolume(grid.dims, grid.spacing, grid.origin, MeanFieldModel(grid.values))


def voxel_pdf(volume: DistributionVolume, index, qval: float | None = None) -> QuantilePdf:
    """Quantile representation of one voxel's distribution (VoxelModel.voxel_pdf)."""
    flat = volume.flat_index(*require_ints(index, 3, "voxel index", 0))
    return volume.model.voxel_pdf(flat, qval)

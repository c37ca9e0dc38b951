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

import numpy as np
from scipy.special import ndtr, ndtri

# Width floor applied whenever a quantile width is turned into a density.
# Stored boundaries may be exactly equal; the floor never enters storage.
EPS_WIDTH = 1e-12

# Finite-support clamp for Gaussian quantile extraction; mass error < 1e-8.
GAUSS_TAIL_SIGMAS = 6.0

# Largest value lattice a KDE fit or a uniform-sum convolution may use.
MAX_LATTICE = 65536

# Cells compared at once by the QuantileModel order check, which then needs
# no temporary the size of the boundaries.
_ORDER_CHECK_CELLS = 1 << 16

QVOL_MAGIC = b"QVOL1"
DVOL_MAGIC = b"DVOL1"

Vec3 = tuple[float, float, float]
Dims = tuple[int, int, int]

RAW_ENCODINGS = {
    "u8": (np.dtype("u1"), 255.0),
    "u16": (np.dtype("<u2"), 65535.0),
    "f32": (np.dtype("<f4"), None),
}


# The value domain of every grid and model: the f32 values of the file formats.
F32_MAX = float(np.finfo(np.float32).max)


class VolumeError(ValueError):
    """Invalid volume data or parameters."""


class FormatError(VolumeError):
    """Malformed, truncated, or inconsistent volume file."""


def _floats(values, shape, dtype=np.float64) -> np.ndarray | None:
    """values as a C-contiguous float array of dtype, made by at most one
    cast, or None unless they are numbers (in the given shape, when there is
    one).  A narrowing dtype turns values beyond its range into inf."""
    try:
        with np.errstate(over="ignore"):
            a = np.asarray(values, dtype, order="C")
    except (TypeError, ValueError, OverflowError):
        return None
    return a if shape is None or a.shape == shape else None


def _of_shape(shape) -> str:
    return "" if shape is None else f" with shape {shape}"


def require_finite(values, what: str, shape: tuple | None = None,
                   dtype=np.float64, f32_range: bool = False) -> np.ndarray:
    """values as a checked C-contiguous float array of dtype (float64 unless
    given); VolumeError unless they are numbers, every one finite once
    converted, in the given shape when there is one, and with f32_range
    within +-F32_MAX.  With dtype float32 the cast is the f32 range check: a
    finite value that it rounds to +-inf is out of range.  A NaN or inf shows
    in the min or the max, so both checks read those two and make no
    full-size temporary."""
    a = _floats(values, shape, dtype)
    lo, hi = (a.min(), a.max()) if a is not None and a.size else (0.0, 0.0)
    if a is None or not (np.isfinite(lo) and np.isfinite(hi)):
        if a is None or a.dtype == np.float64 or not _all_finite(values):
            raise VolumeError(f"{what} must be finite{_of_shape(shape)}")
        f32_range = True  # finite values that the cast rounded to +-inf
    if f32_range and not (lo >= -F32_MAX and hi <= F32_MAX):
        raise VolumeError(f"{what} must lie in the f32 range +-{F32_MAX:.8g}")
    return a


def _all_finite(values) -> bool:
    a = _floats(values, None)
    return a is not None and bool(np.isfinite(a).all())


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

    values holds nx*ny*nz float32 intensities, x-fastest: the one checked
    cast of the values given (see require_finite), so a grid holds the bytes
    that save_raw writes.  Immutable after construction; safe for concurrent
    reads.
    """

    dims: Dims
    spacing: Vec3
    origin: Vec3
    values: np.ndarray

    def __post_init__(self):
        self._check_geometry()
        vals = require_finite(self.values, "grid values", dtype=np.float32).ravel()
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
        model = _PdfChecks(self.qval, np.ravel(self.boundaries)[None, :])  # one voxel's checks
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
    boundaries.

    Every field holds the float32 values that the file formats store, made by
    one checked cast of the array given, and every check runs on those
    rounded values.  A positive sigma or width of at most 2^-150, half the
    smallest float32 subnormal, rounds to 0, as a save rounds it, and is then
    a point mass.  Kernels upcast a field to float64 where they read it."""

    kind: str
    FIELDS: tuple[str, ...]
    NONNEG: tuple[str, ...] = ()
    WIDTH: str | None = None
    DTYPE = np.float32

    def __post_init__(self):
        width = None
        if self.WIDTH:
            width = require_int(getattr(self, self.WIDTH), f"{self.kind} {self.WIDTH}")
            object.__setattr__(self, self.WIDTH, width)
        self._check_fields(width)

    @classmethod
    def cast(cls, values) -> np.ndarray:
        """values as a field holds them: one checked cast to DTYPE (require_finite)."""
        return require_finite(values, f"{cls.kind} parameters", dtype=cls.DTYPE, f32_range=True)

    def _check_fields(self, width: int | None) -> None:
        """Store each field as a frozen contiguous DTYPE array, (nvox,) when
        width is None else (nvox, width), once the fields are cast (see cast)
        and congruent, and the NONNEG ones nonnegative."""
        arrays = [self.cast(getattr(self, f)) for f in self.FIELDS]
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
        params = (getattr(self, f)[flat].astype(np.float64) for f in self.FIELDS)
        return QuantilePdf(qval, self.QUANTILES(*params, qval))


@dataclass(frozen=True)
class MeanFieldModel(VoxelModel):
    kind, FIELDS = "mean", ("values",)
    QUANTILES = staticmethod(lambda value, qval: gaussian_quantiles(value, 0.0, qval))

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
        # On the rounded weights, summed in float64: one temporary of nvox.
        total = self.weights.sum(axis=1, dtype=np.float64)
        if max(total.max(initial=1.0) - 1.0, 1.0 - total.min(initial=1.0)) > 1e-6:
            raise VolumeError("gmm weights must sum to 1 within 1e-6")


@dataclass(frozen=True)
class GmmModel:
    """One Gaussian mixture: k components of (weight, mean, sigma)."""

    weights: np.ndarray
    means: np.ndarray
    sigmas: np.ndarray

    def __post_init__(self):
        model = _MixtureChecks(np.size(self.weights), self.weights, self.means, self.sigmas)
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
        b = self.cast(self.boundaries)
        if b.ndim != 2 or b.shape[1] < 2:
            raise VolumeError("quantile boundaries must be (nvox, q+1)")
        qval = float(require_positive(self.qval, "qval", ()))
        if abs((b.shape[1] - 1) * qval - 1.0) > 1e-9:
            raise VolumeError(f"q*qval must equal 1 (q={b.shape[1] - 1}, qval={qval})")
        object.__setattr__(self, "qval", qval)
        object.__setattr__(self, "boundaries", _frozen(b))
        step = max(1, _ORDER_CHECK_CELLS // b.shape[1])
        if any(np.any(b[i:i + step, 1:] < b[i:i + step, :-1]) for i in range(0, len(b), step)):
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


class _PdfChecks(QuantileModel):
    """The checks of QuantilePdf: one voxel's unrounded float64 boundaries."""

    DTYPE = np.float64


class _MixtureChecks(GmmVolumeModel):
    """The checks of GmmModel: one unrounded float64 mixture."""

    DTYPE = np.float64


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
    every voxel.  member_values is the one reader of a class; the fits read
    it member by member, or as (chunk, M) float64 row blocks that rows builds
    from it.  Not modified after construction; safe for concurrent reads."""

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

    def member_values(self, lo: int, hi: int):
        """Each member's float32 values of voxels lo..hi-1, in member order;
        a consumer uses each array before it asks for the next one."""
        return (g.values[lo:hi] for g in self._members)

    def rows(self, lo: int, hi: int) -> np.ndarray:
        """Sample sets of voxels lo..hi-1 as a C-contiguous (hi-lo, M) float64
        block: member_values in the rows of an (M, hi-lo) buffer, transposed."""
        buf = np.empty((self.member_count, hi - lo), np.float32)
        for row, values in zip(buf, self.member_values(lo, hi), strict=True):
            row[:] = values
        return buf.T.astype(np.float64, order="C")

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
    holds exactly one grid; member_values reads each block straight from the
    files, one member after another, so memory does not grow with the
    ensemble, and raises FormatError, naming the file, for a short read or a
    non-finite value."""

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
        """The member grids, copied from member_values on each access."""
        return tuple(ScalarGrid(self.dims, self.spacing, self.origin, v.copy())
                     for v in self.member_values(0, self.voxel_count))

    def member_values(self, lo: int, hi: int):
        """Each member's float32 values of voxels lo..hi-1, in member order,
        from one positioned read per member file into one reused buffer."""
        buf = np.empty(hi - lo, "<f4")
        for path in self._paths:
            if _with_fd(path, os.preadv, [buf], 4 * lo) != buf.nbytes:
                raise FormatError(f"{path}: short read of voxels {lo}..{hi - 1}")
            if buf.size and not (np.isfinite(buf.min()) and np.isfinite(buf.max())):
                raise FormatError(f"{path}: non-finite f32 values")  # as require_finite
            yield buf


# ---------------------------------------------------------------------------
# Raw volume I/O


def read_file(path, read=None):
    """read(f) on the file at path opened for binary reading, or all its bytes
    when read is None; FormatError when it cannot be read."""
    try:
        with open(path, "rb") as f:
            return read(f) if read else f.read()
    except OSError as e:
        raise FormatError(f"cannot read {path}: {e}") from e


def write_file(path, header: bytes, payload: np.ndarray) -> None:
    """Write header, then the bytes of the C-contiguous array payload, from
    its own buffer: no joined copy of the two is built."""
    with open(path, "wb") as f:
        f.write(header)
        f.write(payload.data)


def _read_payload(f, path, shape: tuple, dtype="<f4", mismatch=None) -> np.ndarray:
    """The rest of the open file f as an array of shape and dtype, read into
    one aligned array; FormatError unless the rest holds exactly its bytes:
    mismatch(n) for a rest of n bytes, else the file size against them."""
    count, start, size = math.prod(shape), f.tell(), os.fstat(f.fileno()).st_size
    expected = start + count * np.dtype(dtype).itemsize
    if size != expected:
        raise FormatError(mismatch(size - start) if mismatch else
                          f"{path}: payload size {size} != {expected}")
    return np.fromfile(f, dtype, count).reshape(shape)


def read_headed_f32(path, kinds: tuple, what: str) -> tuple[list, np.ndarray]:
    """The fields and payload of a file that starts with one ASCII line of
    len(kinds) numbers, each parsed by its kind (int or float), followed by
    four little-endian f32 channels per cell, as (cells, 4); the int fields,
    each at least 1, count the cells.  FormatError, naming what, when the file
    does not."""
    def read(f):
        head = f.readline()
        if not head.endswith(b"\n"):
            raise FormatError(f"{path}: missing {what} header")
        try:
            fields = [kind(v) for kind, v in zip(kinds, head.decode("ascii").split(), strict=True)]
        except ValueError as e:
            raise FormatError(f"{path}: bad {what} header") from e
        counts = [v for v, kind in zip(fields, kinds) if kind is int]
        cells = math.prod(counts) if min(counts) >= 1 else -1  # -1 cells fit no payload
        return fields, _read_payload(f, path, (cells, 4), mismatch=lambda n: (
            f"{path}: {what} of {counts} cells with a {n}-byte payload"))
    return read_file(path, read)


def _unpack_header(f, header: struct.Struct, magic: bytes, path) -> list:
    """The header fields after the magic, read from the open file f;
    FormatError when it is shorter than the header or has another magic."""
    raw = f.read(header.size)
    if len(raw) < header.size:
        raise FormatError(f"{path}: truncated header")
    found, *fields = header.unpack(raw)
    if found != magic:
        raise FormatError(f"{path}: bad magic {found!r}")
    return fields


def load_raw(path, dims, encoding: str, spacing=(1.0, 1.0, 1.0), origin=(0.0, 0.0, 0.0)) -> ScalarGrid:
    """Read a raw volume file; integer encodings are normalized to [0, 1] in
    float64, then rounded to the grid's float32.  An f32 grid holds the file's
    payload as it stands."""
    dims = require_ints(dims, 3, "dims")
    if encoding not in RAW_ENCODINGS:
        raise FormatError(f"unknown raw encoding {encoding!r}")
    dtype, denom = RAW_ENCODINGS[encoding]
    vals = read_file(path, lambda f: _read_payload(f, path, (math.prod(dims),), dtype))
    if denom is not None:
        vals = np.divide(vals, denom, dtype=np.float64)
    elif not (np.isfinite(vals.min()) and np.isfinite(vals.max())):  # as require_finite
        raise FormatError(f"{path}: non-finite f32 values")
    return ScalarGrid(dims, spacing, origin, vals)


def save_raw(grid: ScalarGrid, path, encoding: str) -> None:
    """Write a raw volume file; integer encodings assume values in [0, 1].
    Grid and model values are float32 already, so the f32 payloads of the
    three savers are their bytes (save_dvol interleaves the fields), and
    always reload."""
    if encoding not in RAW_ENCODINGS:
        raise FormatError(f"unknown raw encoding {encoding!r}")
    dtype, denom = RAW_ENCODINGS[encoding]
    vals = grid.values
    if denom is not None:
        vals = np.clip(np.rint(np.multiply(vals, denom, dtype=np.float64)), 0, denom)
    write_file(path, b"", vals.astype(dtype, copy=False))


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
    write_file(path, header, m.boundaries.astype("<f4", copy=False))


def load_qvol(path) -> DistributionVolume:
    def read(f):
        nx, ny, nz, sx, sy, sz, ox, oy, oz, q, qval = _unpack_header(
            f, _QVOL_HEADER, QVOL_MAGIC, path)
        # QuantileModel validates qval*q, monotonicity, and finiteness.
        model = QuantileModel(qval, _read_payload(f, path, (nx * ny * nz, q + 1)))
        return DistributionVolume((nx, ny, nz), (sx, sy, sz), (ox, oy, oz), model)
    return read_file(path, read)


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
    payload = np.stack([getattr(m, f) for f in m.FIELDS], axis=-1, dtype="<f4")
    write_file(path, header, payload)


def load_dvol(path) -> DistributionVolume:
    def read(f):
        tag, nx, ny, nz, sx, sy, sz, ox, oy, oz, extra = _unpack_header(
            f, _DVOL_HEADER, DVOL_MAGIC, path)
        if tag >= len(_DVOL_MODELS):
            raise FormatError(f"{path}: unknown model tag {tag}")
        cls = _DVOL_MODELS[tag]
        if extra and not cls.WIDTH:
            raise FormatError(f"{path}: {cls.kind} volume with a width field of {extra}")
        lead = (extra,) if cls.WIDTH else ()
        width = extra if cls.WIDTH else 1
        if width < 1:
            raise FormatError(f"{path}: {cls.kind} volume with no values per voxel")
        flat = _read_payload(f, path, (nx * ny * nz, width, len(cls.FIELDS)))
        fields = np.moveaxis(flat, -1, 0)
        return DistributionVolume((nx, ny, nz), (sx, sy, sz), (ox, oy, oz), cls(*lead, *fields))
    return read_file(path, read)


def load_volume(path, dims=None, encoding="f32") -> DistributionVolume:
    """Open a QVOL1/DVOL1 file, or a raw file (needs dims) as a mean field."""
    magic = read_file(path, lambda f: f.read(len(QVOL_MAGIC)))
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

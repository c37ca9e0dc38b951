"""Synthetic ground-truth fields, noise injection, and ensemble generation.

The tangle and teardrop closed forms follow the fast-isosurfacing literature
the experiments borrow their test functions from; constants here are tested
through symmetry and level-set properties only.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# load_raw stays importable from here: perfbench/tracer.py times synth.load_raw.
from .volcore import (EnsembleVolume, FileEnsemble, FormatError, ScalarGrid, VolumeError,
                      load_raw, require_finite, require_int, require_ints, save_raw)

_DEFAULT_BOXES = {
    "tangle": ((-2.5, -2.5, -2.5), (2.5, 2.5, 2.5)),
    "teardrop": ((-1.2, -1.2, -1.2), (1.2, 1.2, 1.2)),
    "nested-spheres": ((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0)),
}

# Shell radii (relative to the box half-extent), shared thickness, and the
# four distinct nonzero shell intensities of the nested-spheres field.  The
# shells are thick relative to a 4-voxel brick at 128^3 so that downsampled
# bricks span the pure-interior, boundary-mixture, and empty-gap regimes.
_SPHERE_RADII = (0.20, 0.42, 0.64, 0.86)
_SPHERE_THICKNESS = 0.16
_SPHERE_VALUES = (0.25, 0.5, 0.75, 1.0)


@dataclass(frozen=True)
class NoiseSpec:
    """Per-voxel noise model for ensemble generation.

    kind "gaussian" uses sigma; "uniform" uses width; "bimodal" mixes
    N(0, sigma^2) with probability p_main and N(offset, outlier_sigma^2)
    otherwise.  members is the ensemble size M.
    """

    kind: str
    sigma: float = 0.05
    width: float = 0.1
    p_main: float = 0.8
    offset: float = 0.4
    outlier_sigma: float = 0.02
    members: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("gaussian", "uniform", "bimodal"):
            raise VolumeError(f"unknown noise kind {self.kind!r}")
        names = ("sigma", "width", "p_main", "offset", "outlier_sigma")
        values = require_finite([getattr(self, n) for n in names], "noise parameters", (5,))
        for name, value in zip(names, values.tolist()):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "members", require_int(self.members, "ensemble members"))
        object.__setattr__(self, "seed", require_int(self.seed, "noise seed", 0))
        if not (0.0 <= self.p_main <= 1.0):
            raise VolumeError("p_main must lie in [0, 1]")
        if self.sigma < 0 or self.width < 0 or self.outlier_sigma < 0:
            raise VolumeError("noise scales must be nonnegative")

    def analytic_mean(self) -> float:
        if self.kind == "bimodal":
            return (1.0 - self.p_main) * self.offset
        return 0.0


_FIELD_RE = re.compile(r"^([a-z-]+)(?:\(([^)]*)\))?$")


def parse_field_name(name: str) -> tuple[str, tuple[float, ...]]:
    m = _FIELD_RE.match(name.strip())
    if not m:
        raise VolumeError(f"cannot parse field name {name!r}")
    try:
        args = tuple(float(v) for v in m.group(2).split(",")) if m.group(2) else ()
    except ValueError:
        raise VolumeError(f"cannot parse field name {name!r}") from None
    return m.group(1), args


# Voxels evaluated at once: slabs of z-planes of about 256 KB per float64
# temporary, so a field costs its float32 output grid and a few slabs.
_SLAB_VOXELS = 1 << 15


def _axes(dims, box):
    """The lattice coordinates as broadcast axes: x (1, 1, nx), y (1, ny, 1)
    and z (nz, 1, 1), so (z, y, x) indexing is x-fastest."""
    (x0, y0, z0), (x1, y1, z1) = box
    nx, ny, nz = dims
    return (np.linspace(x0, x1, nx)[None, None, :], np.linspace(y0, y1, ny)[None, :, None],
            np.linspace(z0, z1, nz)[:, None, None])


def _tangle(x, y, z):
    return (x**4 - 5 * x**2) + (y**4 - 5 * y**2) + (z**4 - 5 * z**2) + 11.8


def _teardrop(x, y, z):
    return 0.5 * x**5 + 0.5 * x**4 - y**2 - z**2


def _nested_spheres(x, y, z, half_extent):
    r = np.sqrt(x * x + y * y + z * z) / half_extent
    out = np.zeros_like(r)
    for radius, value in zip(_SPHERE_RADII, _SPHERE_VALUES):
        out = np.where(np.abs(r - radius) < 0.5 * _SPHERE_THICKNESS, value, out)
    return out


def _normalized_grid(field, dims, box) -> ScalarGrid:
    """field(x, y, z) on the lattice of box, min-max normalized to [0, 1] in
    float64 and rounded to the grid's float32; zero-range values pass through
    unnormalized.  field broadcasts its axes elementwise and is evaluated one
    slab of z-planes at a time, twice: once for the range, once for the
    values, so no float64 grid is held."""
    x, y, z = _axes(dims, box)
    planes = max(1, _SLAB_VOXELS // (dims[0] * dims[1]))
    slabs = [slice(k, k + planes) for k in range(0, dims[2], planes)]
    ranges = [(np.min(v), np.max(v)) for v in (field(x, y, z[s]) for s in slabs)]
    lo, hi = min(r[0] for r in ranges), max(r[1] for r in ranges)
    vals = np.empty(dims[::-1], np.float32)
    for s in slabs:
        v = field(x, y, z[s])
        vals[s] = (v - lo) / (hi - lo) if hi > lo else v
    (x0, y0, z0), (x1, y1, z1) = box
    spacing = ((x1 - x0) / (dims[0] - 1), (y1 - y0) / (dims[1] - 1), (z1 - z0) / (dims[2] - 1))
    return ScalarGrid(dims, spacing, (x0, y0, z0), vals.ravel())


def sample_field(name: str, dims) -> ScalarGrid:
    """Evaluate a named closed-form field on the voxel lattice of its default
    box and min-max normalize to [0, 1]."""
    dims = require_ints(dims, 3, "field dims", 2)
    kind, args = parse_field_name(name)
    box = _DEFAULT_BOXES.get(kind, ((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)))
    if kind == "tangle":
        field = _tangle
    elif kind == "teardrop":
        field = _teardrop
    elif kind == "nested-spheres":
        half = max(abs(v) for corner in box for v in corner)
        field = lambda x, y, z: _nested_spheres(x, y, z, half)
    elif kind == "linear":
        if len(args) != 3:
            raise VolumeError("linear field needs (a, b, c)")
        a, b, c = args
        field = lambda x, y, z: a * x + b * y + c * z
    elif kind == "constant":
        if len(args) != 1:
            raise VolumeError("constant field needs (c)")
        field = lambda x, y, z: args[0]
    else:
        raise VolumeError(f"unknown field {kind!r}")
    return _normalized_grid(field, dims, box)


def _member_rng(seed: int, member: int) -> np.random.Generator:
    # Philox keyed by (seed, member): each member's draws are a pure function
    # of (seed, member, voxel order), independent across members and voxels.
    key = np.random.SeedSequence((seed, member)).generate_state(2, np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _noise_draw(rng: np.random.Generator, spec: NoiseSpec, n: int) -> np.ndarray:
    """n float64 noise values, drawn in place: bimodal noise holds, beside
    them, a pick mask and the outliers' normals."""
    if spec.kind == "gaussian":
        noise = rng.standard_normal(n)
        noise *= spec.sigma
        return noise
    noise = rng.random(n)
    if spec.kind == "uniform":
        noise -= 0.5
        noise *= spec.width
        return noise
    # bimodal: fixed consumption order (picks, main normals, outlier normals)
    # keeps draws reproducible.
    outlier = noise >= spec.p_main
    rng.standard_normal(out=noise)
    noise *= spec.sigma
    z = rng.standard_normal(n)
    z *= spec.outlier_sigma
    z += spec.offset
    np.copyto(noise, z, where=outlier)
    return noise


def noisy_members(gt: ScalarGrid, spec: NoiseSpec):
    """The members of make_ensemble(gt, spec), drawn one at a time: the
    ground truth plus noise in float64, rounded once to float32."""
    for m in range(spec.members):
        noise = _noise_draw(_member_rng(spec.seed, m), spec, gt.voxel_count)
        noise += gt.values
        yield ScalarGrid(gt.dims, gt.spacing, gt.origin, noise)


def make_ensemble(gt: ScalarGrid, spec: NoiseSpec) -> EnsembleVolume:
    """M members of gt plus independent per-voxel noise; deterministic in
    (seed, member, voxel).  Values are intentionally not clamped to [0, 1]."""
    return EnsembleVolume(noisy_members(gt, spec))


# ---------------------------------------------------------------------------
# Ensemble persistence: one raw f32 file per member plus a text manifest.


def save_members(members, outdir, spec: NoiseSpec | None = None, field: str = "") -> Path:
    """Write each of a nonempty iterable of congruent member grids as it
    comes, then the manifest; one member is held at a time."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    count = 0
    for g in members:
        save_raw(g, outdir / f"member_{count:03d}.f32raw", "f32")
        count += 1
    if not count:
        raise VolumeError("an ensemble needs at least one member")
    lines = [
        f"members={count}",
        f"dims={g.dims[0]},{g.dims[1]},{g.dims[2]}",
        f"spacing={g.spacing[0]!r},{g.spacing[1]!r},{g.spacing[2]!r}",
        f"origin={g.origin[0]!r},{g.origin[1]!r},{g.origin[2]!r}",
    ]
    if field:
        lines.append(f"field={field}")
    if spec is not None:
        lines.append(
            f"noise={spec.kind}:sigma={spec.sigma!r},width={spec.width!r},"
            f"p_main={spec.p_main!r},offset={spec.offset!r},"
            f"outlier_sigma={spec.outlier_sigma!r}"
        )
        lines.append(f"seed={spec.seed}")
    manifest = outdir / "ensemble.txt"
    manifest.write_text("\n".join(lines) + "\n")
    return manifest


def save_ensemble(ens: EnsembleVolume, outdir, spec: NoiseSpec | None = None,
                  field: str = "") -> Path:
    """save_members of the grids of member_values: one member is held at a time."""
    return save_members((ScalarGrid(ens.dims, ens.spacing, ens.origin, v)
                         for v in ens.member_values(0, ens.voxel_count)), outdir, spec, field)


def load_ensemble(path) -> FileEnsemble:
    """Open an ensemble directory via its manifest file.  The member files are
    checked here and read block by block by the ensemble's member_values."""
    path = Path(path)
    manifest = path / "ensemble.txt" if path.is_dir() else path
    outdir = manifest.parent
    try:
        text = manifest.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise FormatError(f"cannot read ensemble manifest {manifest}: {e}") from e
    fields = {}
    for line in text.splitlines():
        if "=" in line:
            key, val = line.split("=", 1)
            fields[key.strip()] = val.strip()
    try:
        count = int(fields["members"])
        dims = tuple(int(v) for v in fields["dims"].split(","))
        spacing = tuple(float(v) for v in fields["spacing"].split(","))
        origin = tuple(float(v) for v in fields["origin"].split(","))
    except (KeyError, ValueError) as e:
        raise VolumeError(f"{manifest}: bad ensemble manifest: {e}") from e
    paths = (outdir / f"member_{m:03d}.f32raw" for m in range(count))
    return FileEnsemble(paths, dims, spacing, origin)

"""Concentration grids, the disc phantom, and grid file formats.

Grids are cell-centered boxes.  The flat cell order is x-fastest
(k = ix + nx*(iy + ny*iz)), which is also the binary file order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .artifacts import atomic_open, open_input
from .errors import ConfigError, check_memory


@dataclass
class ConcentrationGrid:
    """Cell values on a regular grid.

    values has shape (nx, ny, nz); spacing and origin are 3-vectors, where
    origin is the center of cell (0, 0, 0).  Treated as immutable.  Phantoms
    are nonnegative by construction; reconstructed images reuse this
    container and may carry negative cells.
    """

    values: np.ndarray
    spacing: tuple
    origin: tuple

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 3:
            raise ConfigError("grid values must be 3-D (nx, ny, nz)")
        if not np.all(np.isfinite(self.values)):
            raise ConfigError("grid values must be finite")
        self.spacing = tuple(float(s) for s in self.spacing)
        self.origin = tuple(float(o) for o in self.origin)
        if len(self.spacing) != 3 or len(self.origin) != 3:
            raise ConfigError("spacing and origin must have length 3")
        if not all(s > 0 for s in self.spacing):
            raise ConfigError("grid spacing must be positive")
        if not all(math.isfinite(v) for v in self.spacing + self.origin):
            raise ConfigError("grid spacing and origin must be finite")

    @property
    def dims(self) -> tuple:
        return self.values.shape

    @property
    def n_cells(self) -> int:
        return int(self.values.size)

    @property
    def cell_volume(self) -> float:
        return self.spacing[0] * self.spacing[1] * self.spacing[2]

    def axis_coords(self, axis: int) -> np.ndarray:
        n = self.dims[axis]
        return self.origin[axis] + self.spacing[axis] * np.arange(n)

    def centers(self) -> np.ndarray:
        """All cell centers, shape (n_cells, 3), x-fastest order."""
        xs, ys, zs = (self.axis_coords(a) for a in range(3))
        gx, gy, gz = np.meshgrid(xs, ys, zs, indexing="ij")
        return np.column_stack([gx.ravel(order="F"), gy.ravel(order="F"),
                                gz.ravel(order="F")])

    def flat(self) -> np.ndarray:
        """Values as a 1-D array in the same x-fastest order as centers()."""
        return self.values.ravel(order="F")

    def with_values(self, values) -> "ConcentrationGrid":
        """Same geometry, new values; accepts flat (x-fastest) or shaped arrays."""
        values = np.asarray(values, dtype=float)
        if values.ndim == 1:
            values = values.reshape(self.dims, order="F")
        return ConcentrationGrid(values=values, spacing=self.spacing,
                                 origin=self.origin)

    def meta_matches(self, other: "ConcentrationGrid") -> bool:
        return matches_geometry(other, self.dims, self.spacing, self.origin)


def matches_geometry(grid: ConcentrationGrid, dims, spacing, origin) -> bool:
    """Whether grid has dims, and spacing and origin within 1e-9 m of these."""
    return (grid.dims == tuple(dims)
            and np.allclose(grid.spacing, spacing, rtol=0, atol=1e-9)
            and np.allclose(grid.origin, origin, rtol=0, atol=1e-9))


def cell_offsets(grid: ConcentrationGrid, subsampling: int = 1) -> np.ndarray:
    """Sub-point offsets from a cell center, shape (n_sub, 3), x slowest.

    Each axis with more than one cell is split into subsampling equal
    parts, whose midpoints are the sub-points; a one-cell axis keeps the
    center.  subsampling 1 gives the center alone.
    """
    if subsampling < 1:
        raise ConfigError("subsampling must be >= 1")
    axes = [(np.arange(subsampling) + 0.5) / subsampling - 0.5 if n > 1
            else np.zeros(1) for n in grid.dims]
    return np.array(list(product(*axes))) * grid.spacing


def empty_grid(fov: float, spacing: float, nz: int = 1,
               z_spacing: float = 1e-3) -> ConcentrationGrid:
    """Square x-y grid of width fov centered on the origin, nz planes in z;
    ResourceCapError when its cells would not fit in physical memory."""
    if not (fov > 0 and spacing > 0):
        raise ConfigError("fov and spacing must be positive")
    n = round(fov / spacing) if fov / spacing < math.inf else math.inf
    if n < 1:
        raise ConfigError("fov smaller than one cell")
    check_memory(f"fov {fov:g} m at spacing {spacing:g} m ({n:g} x {n:g} x {nz} "
                 f"cells)", 8 * n * n * nz)
    ox = -(n - 1) / 2.0 * spacing
    oz = -(nz - 1) / 2.0 * z_spacing
    return ConcentrationGrid(values=np.zeros((n, n, nz)),
                             spacing=(spacing, spacing, z_spacing),
                             origin=(ox, ox, oz))


def default_disc_centers(fov: float, count: int) -> list:
    """Deterministic layout: discs on a ring of radius fov/4, largest first.

    The first disc sits at angle 0.3 rad and successive discs advance by
    2 pi / count; the small offset keeps disc rims off the grid axes.
    """
    radius = fov / 4.0
    start = 0.3
    return [(radius * math.cos(start + 2 * math.pi * i / count),
             radius * math.sin(start + 2 * math.pi * i / count))
            for i in range(count)]


def build_disc_phantom(fov: float, disc_diameters, spacing: float,
                       centers=None, nz: int = 1,
                       z_spacing: float = 1e-3) -> ConcentrationGrid:
    """Binary phantom of filled discs inside the FOV circle.

    Cells whose center lies strictly inside a disc get value 1.  Discs are
    sorted by diameter (descending) onto the default ring layout unless
    explicit centers are given.  Overlapping discs, discs poking out of the
    FOV circle and diameters not finite and positive raise ConfigError.  An
    empty diameter list yields the all-zero grid.
    """
    grid = empty_grid(fov, spacing, nz=nz, z_spacing=z_spacing)
    diameters = sorted((float(d) for d in disc_diameters), reverse=True)
    if not all(0 < d < math.inf for d in diameters):
        raise ConfigError(f"disc diameters must be finite and positive: {diameters}")
    if not diameters:
        return grid
    if centers is None:
        centers = default_disc_centers(fov, len(diameters))
    if len(centers) != len(diameters):
        raise ConfigError("need one center per disc")
    discs = [(float(cx), float(cy), d / 2.0)
             for (cx, cy), d in zip(centers, diameters)]
    for cx, cy, r in discs:
        if math.hypot(cx, cy) + r > fov / 2.0 + 1e-12:
            raise ConfigError(f"disc at ({cx:g}, {cy:g}) r={r:g} leaves the FOV circle")
    for i in range(len(discs)):
        for j in range(i + 1, len(discs)):
            xi, yi, ri = discs[i]
            xj, yj, rj = discs[j]
            if math.hypot(xi - xj, yi - yj) < ri + rj:
                raise ConfigError("discs overlap")
    xs = grid.axis_coords(0)
    ys = grid.axis_coords(1)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    plane = np.zeros_like(gx)
    for cx, cy, r in discs:
        plane[(gx - cx) ** 2 + (gy - cy) ** 2 < r * r] = 1.0
    values = np.repeat(plane[:, :, None], nz, axis=2)
    return grid.with_values(values)


def line_profile(grid: ConcentrationGrid, axis: str, offset: float) -> np.ndarray:
    """Values along a horizontal (vary x) or vertical (vary y) line.

    offset selects the fixed coordinate (y for horizontal, x for vertical);
    the nearest grid line of the first z plane is used.  Offsets outside
    the grid raise.
    """
    if axis not in ("horizontal", "vertical"):
        raise ConfigError(f"axis must be horizontal or vertical, got {axis!r}")
    fixed_axis = 1 if axis == "horizontal" else 0
    coords = grid.axis_coords(fixed_axis)
    half = grid.spacing[fixed_axis] / 2.0
    if offset < coords[0] - half or offset > coords[-1] + half:
        raise ConfigError(f"offset {offset:g} outside the grid")
    idx = int(np.argmin(np.abs(coords - offset)))
    if axis == "horizontal":
        return grid.values[:, idx, 0].copy()
    return grid.values[idx, :, 0].copy()


def grid_line(dims, spacing, origin) -> str:
    """'nx ny nz sx sy sz ox oy oz', floats at .17g: the header line of a
    .grid file, and the fourth header line of a matrix file."""
    return " ".join([*map(str, dims), *(f"{v:.17g}" for v in (*spacing, *origin))])


def parse_grid_line(text: str) -> tuple:
    """(dims, spacing, origin) of a grid_line, as tuples of ints and floats;
    ValueError unless it holds 9 fields, dims >= 1, a finite, positive
    spacing and a finite origin.  Nothing is allocated from the dims."""
    fields = text.split()
    if len(fields) != 9:
        raise ValueError(f"grid line needs 9 fields, got {len(fields)}")
    dims = tuple(int(v) for v in fields[:3])
    spacing, origin = (tuple(float(v) for v in fields[i:i + 3]) for i in (3, 6))
    if min(dims) < 1:
        raise ValueError(f"grid dims {dims} must be positive")
    if not (all(0 < s < math.inf for s in spacing) and all(map(math.isfinite, origin))):
        raise ValueError("grid spacing must be finite and positive, origin finite")
    return dims, spacing, origin


def save_grid(grid: ConcentrationGrid, path, comments=()):
    """Optional '# ...' comment lines (metadata such as a stamp), one ASCII
    header line, grid_line of the grid, then the float64 cells."""
    with atomic_open(path) as fh:
        for line in comments:
            fh.write(f"# {line}\n".encode("ascii"))
        fh.write(f"{grid_line(grid.dims, grid.spacing, grid.origin)}\n".encode("ascii"))
        fh.write(grid.flat().astype("<f8").tobytes())


def load_grid(path) -> ConcentrationGrid:
    """Inverse of save_grid, its header read by parse_grid_line; a malformed
    or truncated file raises ConfigError."""
    with open_input(path) as fh:
        try:
            line = fh.readline().decode("ascii")
            while line.lstrip().startswith("#"):
                line = fh.readline().decode("ascii")
            dims, spacing, origin = parse_grid_line(line)
        except ValueError as exc:
            raise ConfigError(f"{path}: malformed grid header: {exc}") from None
        raw = fh.read()
    n = math.prod(dims)
    if len(raw) != 8 * n:
        raise ConfigError(f"{path}: expected {n} cells, got {len(raw) / 8:g}")
    values = np.frombuffer(raw, dtype="<f8").reshape(dims, order="F")
    return ConcentrationGrid(values=values, spacing=spacing, origin=origin)


def save_pgm(path, plane, vmin: float = 0.0, vmax: float | None = None):
    """16-bit binary PGM of a 2-D array; x maps to columns, y rows (y up).

    Values are clipped at vmin (negatives render black by default) and
    scaled so vmax maps to 65535.
    """
    plane = np.asarray(plane, dtype=float)
    if plane.ndim == 3 and plane.shape[2] == 1:
        plane = plane[:, :, 0]
    if plane.ndim != 2:
        raise ConfigError("PGM export needs a 2-D array")
    if vmax is None:
        vmax = float(plane.max())
    if vmax <= vmin:
        vmax = vmin + 1.0
    norm = np.clip((plane - vmin) / (vmax - vmin), 0.0, 1.0)
    img = np.round(norm * 65535.0).astype(">u2")
    img = img.T[::-1]
    with atomic_open(path) as fh:
        fh.write(f"P5\n{img.shape[1]} {img.shape[0]}\n65535\n".encode("ascii"))
        fh.write(img.tobytes())

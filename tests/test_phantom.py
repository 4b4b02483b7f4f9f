"""Grid container, disc phantom geometry, and grid file formats."""

import math

import numpy as np
import pytest

from mpisim.errors import ConfigError, ResourceCapError
from mpisim.phantom import (
    ConcentrationGrid,
    build_disc_phantom,
    default_disc_centers,
    empty_grid,
    line_profile,
    load_grid,
    save_grid,
    save_pgm,
)

FOV = 0.1
DIAMETERS = [0.020, 0.015, 0.010, 0.007, 0.004]


def test_empty_grid_geometry():
    g = empty_grid(0.1, 0.00125)
    assert g.dims == (80, 80, 1)
    assert g.spacing == (0.00125, 0.00125, 0.001)
    # cell-centered and symmetric about the origin
    xs = g.axis_coords(0)
    assert xs[0] == pytest.approx(-xs[-1])
    assert np.allclose(np.diff(xs), 0.00125)
    assert g.n_cells == 80 * 80
    assert g.cell_volume == pytest.approx(0.00125 * 0.00125 * 0.001)


def test_empty_grid_validation():
    with pytest.raises(ConfigError):
        empty_grid(-0.1, 0.001)
    with pytest.raises(ConfigError):
        empty_grid(0.1, 0.0)
    with pytest.raises(ConfigError):
        empty_grid(0.0004, 0.001)  # smaller than one cell


def test_grid_rejects_non_finite_and_bad_shapes():
    with pytest.raises(ConfigError):
        ConcentrationGrid(np.full((4, 4, 1), np.nan), (1e-3,) * 3, (0.0,) * 3)
    with pytest.raises(ConfigError):
        ConcentrationGrid(np.zeros((4, 4)), (1e-3,) * 3, (0.0,) * 3)
    with pytest.raises(ConfigError):
        ConcentrationGrid(np.zeros((4, 4, 1)), (1e-3, -1e-3, 1e-3), (0.0,) * 3)
    # negative cells are allowed (reconstructions are not clipped)
    g = ConcentrationGrid(np.full((4, 4, 1), -2.0), (1e-3,) * 3, (0.0,) * 3)
    assert g.values.min() == -2.0


def test_flat_order_is_x_fastest():
    g = empty_grid(0.01, 0.002, nz=2)
    nx, ny, nz = g.dims
    vals = np.arange(g.n_cells, dtype=float)
    g2 = g.with_values(vals)
    for k in (0, 1, 7, nx * ny, g.n_cells - 1):
        ix = k % nx
        iy = (k // nx) % ny
        iz = k // (nx * ny)
        assert g2.values[ix, iy, iz] == k
        assert g2.flat()[k] == k
    # centers() follows the same order
    c = g2.centers()
    assert c.shape == (g.n_cells, 3)
    k = 3 + nx * (2 + ny * 1)
    expect = [g.axis_coords(0)[3], g.axis_coords(1)[2], g.axis_coords(2)[1]]
    assert np.allclose(c[k], expect)


def test_with_values_keeps_geometry():
    g = empty_grid(0.01, 0.001)
    g2 = g.with_values(np.ones(g.n_cells))
    assert g2.meta_matches(g)
    assert g2.values.shape == g.dims
    assert not g.meta_matches(empty_grid(0.01, 0.002))


def disc_areas(spacing):
    ph = build_disc_phantom(FOV, DIAMETERS, spacing)
    plane = ph.values[:, :, 0]
    xs = ph.axis_coords(0)
    ys = ph.axis_coords(1)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    centers = default_disc_centers(FOV, len(DIAMETERS))
    areas, lit = [], 0
    for (cx, cy), diam in zip(centers, sorted(DIAMETERS, reverse=True)):
        r = diam / 2.0
        mask = (gx - cx) ** 2 + (gy - cy) ** 2 < r * r
        areas.append(plane[mask].sum() * spacing**2)
        lit += plane[mask].sum()
    assert lit == plane.sum()  # every lit cell belongs to exactly one disc
    return areas


def test_disc_raster_areas():
    analytic = [math.pi * (d / 2.0) ** 2 for d in sorted(DIAMETERS, reverse=True)]
    coarse = disc_areas(0.00125)
    fine = disc_areas(0.0005)
    for a_coarse, a_fine, a_true, diam in zip(
            coarse, fine, analytic, sorted(DIAMETERS, reverse=True)):
        # discretization error bounded by a one-cell band around the rim
        band = 2.0 * 0.00125 / (diam / 2.0)
        assert abs(a_coarse / a_true - 1.0) < max(0.10, band)
        assert a_fine == pytest.approx(a_true, rel=0.02)
        assert abs(a_fine - a_true) <= abs(a_coarse - a_true) + 1e-12


def test_disc_layout_and_validation():
    centers = default_disc_centers(FOV, 5)
    for cx, cy in centers:
        assert math.hypot(cx, cy) == pytest.approx(FOV / 4.0)
    with pytest.raises(ConfigError):
        build_disc_phantom(FOV, [0.02, 0.02], 0.00125,
                           centers=[(0.0, 0.0), (0.01, 0.0)])  # overlap
    with pytest.raises(ConfigError):
        build_disc_phantom(FOV, [0.02], 0.00125, centers=[(0.045, 0.0)])
    with pytest.raises(ConfigError):
        build_disc_phantom(FOV, [0.02, 0.01], 0.00125, centers=[(0.0, 0.0)])
    empty = build_disc_phantom(FOV, [], 0.00125)
    assert empty.values.sum() == 0.0


@pytest.mark.parametrize("diameter", [-0.003, 0.0, -0.0, math.nan, math.inf])
def test_disc_diameter_must_be_finite_and_positive(diameter):
    # the rim test squares r, so -3 mm would fill the 2 cells of +3 mm
    assert build_disc_phantom(0.02, [0.003], 0.0025).values.sum() == 2
    with pytest.raises(ConfigError, match="finite and positive"):
        build_disc_phantom(0.02, [diameter], 0.0025)
    with pytest.raises(ConfigError, match="finite and positive"):
        build_disc_phantom(0.02, [0.003, diameter], 0.0025)


def test_line_profile():
    g = empty_grid(0.01, 0.001)
    vals = np.zeros(g.dims)
    vals[:, 4, 0] = np.arange(g.dims[0])
    g = g.with_values(vals)
    y4 = g.axis_coords(1)[4]
    prof = line_profile(g, "horizontal", y4)
    assert np.array_equal(prof, np.arange(g.dims[0]))
    # nearest grid line wins
    prof2 = line_profile(g, "horizontal", y4 + 0.03e-3)
    assert np.array_equal(prof2, prof)
    vert = line_profile(g, "vertical", g.axis_coords(0)[7])
    assert vert[4] == 7.0 and vert.sum() == 7.0
    with pytest.raises(ConfigError):
        line_profile(g, "diagonal", 0.0)
    with pytest.raises(ConfigError):
        line_profile(g, "horizontal", 0.02)


def test_grid_file_round_trip(tmp_path):
    ph = build_disc_phantom(0.02, [0.006, 0.004], 0.001)
    path = tmp_path / "ph.grid"
    save_grid(ph, path, comments=["config 0123abcd", "phantom discs"])
    back = load_grid(path)
    assert back.meta_matches(ph)
    assert np.array_equal(back.values, ph.values)
    text = path.read_bytes()
    assert text.startswith(b"# config 0123abcd\n# phantom discs\n")


def test_load_grid_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.grid"
    bad.write_bytes(b"1 2 3\n")
    with pytest.raises(ConfigError):
        load_grid(bad)
    short = tmp_path / "short.grid"
    g = empty_grid(0.01, 0.001)
    save_grid(g, short)
    data = short.read_bytes()
    short.write_bytes(data[:-16])  # drop two cells
    with pytest.raises(ConfigError):
        load_grid(short)


def test_save_pgm(tmp_path):
    g = empty_grid(0.01, 0.001)
    vals = np.zeros(g.dims)
    vals[3, 5, 0] = 2.0
    vals[0, 0, 0] = -1.0  # clips to black
    path = tmp_path / "img.pgm"
    save_pgm(path, g.with_values(vals).values)
    raw = path.read_bytes()
    header, rest = raw.split(b"65535\n", 1)
    assert header == b"P5\n10 10\n"
    img = np.frombuffer(rest, dtype=">u2").reshape(10, 10)
    # x -> columns, y -> rows with y up: row index counts down from ymax
    assert img[10 - 1 - 5, 3] == 65535
    assert img[10 - 1 - 0, 0] == 0
    assert img.sum() == 65535


@pytest.mark.parametrize("fov, spacing, cells", [(1e5, 2.5e-3, "4e+07 x 4e+07 x 1"),
                                                 (0.02, 1e-310, "inf x inf x 1")])
def test_a_grid_beyond_memory_is_a_resource_cap(fov, spacing, cells):
    # checked before the cells are allocated, also when their count overflows
    with pytest.raises(ResourceCapError, match="bytes of physical memory") as exc:
        empty_grid(fov, spacing)
    assert f"fov {fov:g} m at spacing {spacing:g} m ({cells} cells)" in str(exc.value)

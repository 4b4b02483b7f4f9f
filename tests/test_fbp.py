"""Radon tools and the filtered-back-projection chain."""

import math

import numpy as np
import pytest

from mpisim import magnetization as mag
from mpisim.errors import ConfigError
from mpisim.fbp import (
    _ramp_filter,
    _wrap_angle,
    Sinogram,
    check_axis,
    fbp_reconstruct,
    radon_transform,
    save_sinogram_csv,
    scan_projections,
    signal_to_sinogram,
    subtract_edge_baseline,
)
from mpisim.fields import (build_topology, load_field_coefficients,
                           perturb_field, write_field_coefficients)
from mpisim.forward import (AcquisitionConfig, SignalTrace, coil_along,
                            simulate_parallel)
from mpisim.phantom import build_disc_phantom, empty_grid
from mpisim.recon import nrmse, optimal_scale


def _wrap_angle_loop(theta):
    """Reference: shift by pi one half turn at a time, flipping each time."""
    flip = False
    while theta < 0:
        theta += math.pi
        flip = not flip
    while theta >= math.pi:
        theta -= math.pi
        flip = not flip
    return theta, flip


def test_wrap_angle_matches_loop():
    thetas = [*np.linspace(-1e3, 1e3, 4001),
              *np.random.default_rng(9).uniform(-20.0, 20.0, 500),
              *(k * math.pi for k in range(-9, 10)),
              -0.0, -1e-300, math.nextafter(math.pi, 0.0), -math.pi / 2]
    for theta in thetas:
        angle, flip = _wrap_angle(theta)
        ref_angle, ref_flip = _wrap_angle_loop(theta)
        assert 0.0 <= angle < math.pi, theta
        # the loop rounds once per half turn; the constant-time form once
        tol = (abs(theta) / math.pi + 2) * 2.0 ** -52 * max(abs(theta), math.pi)
        if flip == ref_flip:
            assert abs(angle - ref_angle) <= tol, theta
        else:  # the same normal line, landed on either side of the wrap
            assert min(angle, ref_angle) <= tol, theta
            assert max(angle, ref_angle) >= math.pi - tol, theta
    assert _wrap_angle(1e6) == (math.fmod(1e6, math.pi), 318309 % 2 == 1)


def disc_grid(radius=0.015, fov=0.05, spacing=0.05 / 64):
    return build_disc_phantom(fov, [2 * radius], spacing, centers=[(0.0, 0.0)])


def analytic_disc_sinogram(radius, angles, displacements):
    s = np.asarray(displacements)
    chord = 2.0 * np.sqrt(np.maximum(radius**2 - s**2, 0.0))
    return Sinogram(values=np.tile(chord, (len(angles), 1)),
                    angles=np.asarray(angles), displacements=s)


def test_sinogram_shape_validation():
    with pytest.raises(ConfigError):
        Sinogram(values=np.zeros((3, 5)), angles=np.zeros(3),
                 displacements=np.zeros(4))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_sinogram_values_must_be_finite(bad):
    values = np.zeros((3, 5))
    values[1, 2] = bad
    with pytest.raises(ConfigError, match="sinogram values must be finite"):
        Sinogram(values=values, angles=np.zeros(3), displacements=np.arange(5.0))


def test_radon_disc_chords():
    grid = disc_grid()
    r = 0.015
    s = np.linspace(-0.025, 0.025, 51)
    sino = radon_transform(grid, [0.0, 0.7, 1.3], s)
    mid = s.size // 2
    for row in sino.values:
        # center chord equals the diameter; profile decays away from center
        assert row[mid] == pytest.approx(2 * r, rel=0.02)
        assert np.all(row[np.abs(s) > r + 0.002] < 1e-12)
        inner = row[mid:]
        assert np.all(np.diff(inner) < 0.002)
    # rotation invariance of the centered disc, away from the rastered rim
    core = np.abs(s) < r - 0.003
    assert np.allclose(sino.values[0][core], sino.values[1][core],
                       atol=0.05 * 2 * r)


def test_radon_shift_and_linearity():
    fov, spacing = 0.05, 0.05 / 64
    a = build_disc_phantom(fov, [0.012], spacing, centers=[(0.008, -0.004)])
    b = build_disc_phantom(fov, [0.008], spacing, centers=[(-0.01, 0.006)])
    s = np.linspace(-0.024, 0.024, 97)
    angles = [0.0, 0.5, 1.1, 2.0]
    both = a.with_values(a.values + b.values)
    sino_a = radon_transform(a, angles, s)
    sino_b = radon_transform(b, angles, s)
    sino_ab = radon_transform(both, angles, s)
    assert np.allclose(sino_ab.values, sino_a.values + sino_b.values,
                       atol=1e-12)
    for i, ang in enumerate(angles):
        expect = 0.008 * math.cos(ang) - 0.004 * math.sin(ang)
        peak = s[np.argmax(sino_a.values[i])]
        assert abs(peak - expect) <= 2 * (s[1] - s[0])
    # mass conservation: integral of each projection equals the disc area
    area = a.values[:, :, 0].sum() * spacing**2
    ds = s[1] - s[0]
    assert np.allclose(sino_a.values.sum(axis=1) * ds, area, rtol=0.02)


def test_subtract_edge_baseline():
    s = np.linspace(-0.02, 0.02, 40)
    bump = np.exp(-(s / 0.004) ** 2)
    offsets = np.array([[0.3], [-1.2], [4.5]])
    sino = Sinogram(values=bump[None, :] + offsets,
                    angles=np.array([0.0, 1.0, 2.0]),
                    displacements=s)
    fixed = subtract_edge_baseline(sino)
    # exact up to the Gaussian's own tail mass in the edge bins
    assert np.allclose(fixed.values, bump[None, :], atol=1e-6)


def test_fbp_recovers_disc_from_analytic_sinogram():
    r = 0.015
    angles = np.linspace(0.0, math.pi, 90, endpoint=False)
    s = np.linspace(-0.025, 0.025, 101)
    sino = analytic_disc_sinogram(r, angles, s)
    template = empty_grid(0.05, 0.05 / 64)
    recon = fbp_reconstruct(sino, template)
    ref = disc_grid()
    scaled = recon.with_values(optimal_scale(recon, ref) * recon.values)
    assert nrmse(scaled, ref) < 0.25
    hann = fbp_reconstruct(sino, template, window="hann")
    scaled_h = hann.with_values(optimal_scale(hann, ref) * hann.values)
    assert nrmse(scaled_h, ref) < 0.30
    # the apodized window suppresses the rim oscillations of the sharp one
    assert scaled_h.values.max() < scaled.values.max()
    with pytest.raises(ConfigError):
        fbp_reconstruct(sino, template, window="boxcar")


def test_fbp_needs_two_bins():
    sino = Sinogram(values=np.ones((1, 1)), angles=np.zeros(1),
                    displacements=np.zeros(1))
    with pytest.raises(ConfigError):
        fbp_reconstruct(sino, empty_grid(0.01, 0.001))


@pytest.mark.parametrize("window", ["ramlak", "hann"])
def test_fbp_rejects_an_axis_whose_padded_span_overflows(window):
    # 16 bins pad to 32: 32 x 6.25e306 m overflows, so every ramp frequency
    # would be 0 (an all-zero image) and the Hann window 0 / 0
    sino = Sinogram(values=np.ones((2, 16)), angles=[0.0, 1.0],
                    displacements=np.arange(16) * 6.25e306)
    with pytest.raises(ConfigError, match="ramp filter gain, got 16 bins 6.25e[+]306 m "
                                          "apart, zero-padded to inf m"):
        fbp_reconstruct(sino, empty_grid(0.01, 0.001), window=window)


@pytest.mark.parametrize("ds, prefactor", [
    (0.0, 1.0),  # bins of zero width: fftfreq divides by a zero span
    (1e-320, 1.0),  # a subnormal span: its top frequency is inf
    (1e-3, 0.0),
    (1e-3, math.inf),  # every projection would divide to 0
    (1e-3, math.nan),
    # field.d = 1e-300 T at g = 1 T/m on 16 bins: a volt divided by the
    # prefactor and filtered at the top frequency, 8e300 1/m, overflows
    (6.25e-302, -1.97e-304),
])
def test_check_axis_needs_a_finite_nonzero_filter_gain(ds, prefactor):
    with pytest.raises(ConfigError, match="need a finite, nonzero ramp filter gain"):
        check_axis(16, ds, prefactor)
    check_axis(16, 2.5e-3, -7.9e-6)  # the desk scan's axis


def test_signal_to_sinogram_rejects_a_sweep_too_narrow_to_filter(point_scan):
    # unchecked, d = 5e-324 T divided by zero and d = 1e-300 T overflowed
    # in the ramp filter; both gave an FBP image of NRMSE 1
    traces, coils, model, params, point = point_scan
    for d in (5e-324, 1e-300):
        narrow = build_topology("rotating_ffl", g=1.0, d=d, f_d=25e3, f_rot=1e3)
        with pytest.raises(ConfigError, match="ramp filter gain"):
            signal_to_sinogram(traces, coils, narrow)


@pytest.fixture(scope="module")
def point_scan():
    """Rotating line scan of a single lit cell at (6, -3) mm."""
    model = build_topology("rotating_ffl", g=1.0, d=0.1, f_d=25e3, f_rot=1e3)
    grid = empty_grid(0.05, 0.05 / 32)
    vals = np.zeros(grid.dims)
    ix = int(np.argmin(np.abs(grid.axis_coords(0) - 0.006)))
    iy = int(np.argmin(np.abs(grid.axis_coords(1) + 0.003)))
    vals[ix, iy, 0] = 1.0
    grid = grid.with_values(vals)
    point = (grid.axis_coords(0)[ix], grid.axis_coords(1)[iy])
    config = AcquisitionConfig(f_d=25e3, sample_rate=4e6, duration=1e-3,
                               f_rot=1e3)
    params = mag.LangevinParams(m0=1.0, lam=1600.0)
    coils = [coil_along("x"), coil_along("y")]
    traces = simulate_parallel(model, grid, coils, config, params)
    return traces, coils, model, params, point


def test_signal_to_sinogram_geometry(point_scan):
    traces, coils, model, params, point = point_scan
    sino = signal_to_sinogram(traces, coils, model, n_bins=96)
    assert sino.values.shape == (25, 96)
    assert np.all((sino.angles >= 0) & (sino.angles < math.pi))
    assert np.all(np.diff(sino.angles) >= 0)
    assert np.all(np.isfinite(sino.values))
    # each projection peaks at the point's signed distance to the line
    px, py = point
    for i in (0, 6, 12, 18, 24):
        theta = sino.angles[i]
        expect = px * math.cos(theta) + py * math.sin(theta)
        peak = sino.displacements[np.argmax(np.abs(sino.values[i]))]
        assert abs(peak - expect) <= 2.5 * (sino.displacements[1]
                                            - sino.displacements[0])


def test_signal_to_sinogram_fills_sparse_bins(point_scan):
    traces, coils, model, params, point = point_scan
    # 128 bins > samples per half sweep, so some bins get no samples and
    # must be bridged by interpolation rather than left at zero
    sino = signal_to_sinogram(traces, coils, model, n_bins=128)
    assert np.all(np.isfinite(sino.values))
    row = np.abs(sino.values[12])
    support = np.where(row > row.max() * 1e-3)[0]
    assert support.size >= 3


def test_row_filters_filter_each_row_alone(point_scan):
    # one FFT call filters every row; each row comes out as it would alone
    traces, coils, model, params, point = point_scan
    sino = signal_to_sinogram(traces, coils, model, n_bins=96)
    s = sino.displacements
    for filt in (lambda rows: _ramp_filter(rows, s[1] - s[0], "ramlak"),
                 lambda rows: _ramp_filter(rows, s[1] - s[0], "hann")):
        batched = filt(sino.values)
        for i, row in enumerate(sino.values):
            assert np.array_equal(batched[i], filt(row[None, :])[0])


def test_signal_to_sinogram_validation(point_scan):
    traces, coils, model, params, point = point_scan
    with pytest.raises(ConfigError):
        signal_to_sinogram(traces, coils[:1], model)
    with pytest.raises(ConfigError):
        signal_to_sinogram([], [], model)


def test_signal_to_sinogram_needs_the_nominal_scan(tmp_path, point_scan):
    # the baseline inverts the ideal line sweep; a perturbed or tabulated
    # field has no closed-form line to regrid along
    traces, coils, model, params, point = point_scan
    path = tmp_path / "field.txt"
    write_field_coefficients(model, path)
    for other in (perturb_field(model, seed=1, magnitude=0.35),
                  load_field_coefficients(path)):
        with pytest.raises(ConfigError):
            signal_to_sinogram(traces, coils, other)


def test_scan_projections():
    # desk scan: 25 drive periods of 160 samples, each half-sweep 80 long
    projections = scan_projections(25e3, 4e6, 4000)
    assert len(projections) == 25
    for p, (idx, phase, cosphi) in enumerate(projections):
        assert 40 + 160 * p <= idx[0] and idx[-1] < 120 + 160 * p
        assert np.array_equal(phase, 2 * math.pi * 25e3 * (idx / 4e6))
        assert np.array_equal(cosphi, np.cos(phase))
        assert np.all(np.abs(cosphi) >= 0.05)
    # 74.07 samples per drive period: the sample nearest cos = +-1 drifts
    # from period to period; projections 0-4 keep it at cos_guard 0.9995,
    # but in projection 5 it has |cos| = 0.99940
    assert len(scan_projections(27e3, 2e6, 371, cos_guard=0.9995)) == 5
    with pytest.raises(ConfigError, match="projection 5 keeps no sample"):
        scan_projections(27e3, 2e6, 2000, cos_guard=0.9995)
    # only whole drive periods count
    assert len(scan_projections(25e3, 4e6, 4000 + 159)) == 25
    with pytest.raises(ConfigError, match="shorter than one drive period"):
        scan_projections(25e3, 4e6, 159)


def test_signal_to_sinogram_needs_a_sample_per_projection():
    # the desk scan samples cos = +-1 in every projection, so no cos_guard
    # below 1 empties one; a 27 kHz drive at 2 MHz drifts off those peaks
    model = build_topology("rotating_ffl", g=1.0, d=0.1, f_d=27e3, f_rot=1e3)
    coils = [coil_along("x")]
    traces = [SignalTrace(samples=np.ones(2000), sample_rate=2e6)]
    with pytest.raises(ConfigError, match="keeps no sample"):
        signal_to_sinogram(traces, coils, model, cos_guard=0.9995)
    assert signal_to_sinogram(traces, coils, model).angles.size == 27


def test_sinogram_csv_round_trip(tmp_path, point_scan):
    traces, coils, model, params, point = point_scan
    sino = signal_to_sinogram(traces, coils, model, n_bins=32)
    path = tmp_path / "sino.csv"
    save_sinogram_csv(sino, path)
    # shortest round-trip text: the header lines and a plain CSV reader give
    # every number back
    head, angles, disp = (line.split() for line in path.read_text().splitlines()[:3])
    assert head == ["#", "sinogram", str(sino.angles.size),
                    str(sino.displacements.size)]
    assert angles[:2] == ["#", "angles"] and disp[:2] == ["#", "displacements"]
    assert np.array_equal(np.array(angles[2:], dtype=float), sino.angles)
    assert np.array_equal(np.array(disp[2:], dtype=float), sino.displacements)
    assert np.array_equal(np.loadtxt(path, delimiter=",", ndmin=2), sino.values)

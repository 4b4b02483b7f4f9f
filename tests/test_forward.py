"""Receive chain: coils, acquisition timing, the three simulators, filtering."""

import dataclasses
import logging

import numpy as np
import pytest

from mpisim import forward
from mpisim import magnetization as mag
from mpisim.errors import ConfigError
from mpisim.fields import MU0, FieldEvaluator, build_topology, perturb_field
from mpisim.forward import (
    AcquisitionConfig,
    ReceiveCoil,
    SignalTrace,
    add_noise,
    apply_highpass,
    coil_along,
    highpass_mask,
    load_trace_bin,
    load_trace_csv,
    save_trace_bin,
    save_trace_csv,
    simulate_general,
    simulate_parallel,
    simulate_piecewise,
)
from mpisim.phantom import build_disc_phantom


def small_scene(sample_rate=1e7):
    """Static FFL over a 16x16 grid with a centered disc.

    The drive is small enough that the line stays near the grid and the
    sample rate resolves the sweep of the magnetization kernel, which the
    second-order time differentiation in the general model needs.
    """
    model = build_topology("static_ffl", g=1.0, d=0.02, f_d=25e3, alpha=0.4)
    grid = build_disc_phantom(0.010, [0.008], 0.010 / 16, centers=[(0.0, 0.0)])
    config = AcquisitionConfig(f_d=25e3, sample_rate=sample_rate, duration=4e-5)
    params = mag.LangevinParams(m0=1.0, lam=2500.0)
    return model, grid, config, params


def test_coil_along():
    for i, axis in enumerate("xyz"):
        c = coil_along(axis)
        assert c.vector[i] == 1.0 and np.sum(np.abs(c.vector)) == 1.0
        assert c.index == i
    assert coil_along("y", index=5).index == 5
    with pytest.raises(ConfigError):
        coil_along("w")
    with pytest.raises(ConfigError):
        ReceiveCoil(sensitivity=(0.0, 0.0, 0.0))


def test_acquisition_config():
    cfg = AcquisitionConfig(f_d=25e3, sample_rate=4e6, duration=1e-3, f_rot=1e3)
    assert cfg.n_samples == 4000
    t = cfg.times()
    assert t[0] == 0.0 and t.size == 4000
    assert np.allclose(np.diff(t), 2.5e-7)
    with pytest.raises(ConfigError):
        AcquisitionConfig(f_d=25e3, sample_rate=40e3, duration=1e-3)  # Nyquist
    with pytest.raises(ConfigError):
        AcquisitionConfig(f_d=25e3, sample_rate=4e6, duration=1.3e-7)
    with pytest.raises(ConfigError):
        # 0.25 rotation periods
        AcquisitionConfig(f_d=25e3, sample_rate=4e6, duration=2.5e-4, f_rot=1e3)


def test_trace_rms():
    tr = SignalTrace(samples=np.array([3.0, -3.0, 3.0, -3.0]), sample_rate=1.0)
    assert tr.rms == 3.0
    with pytest.raises(ConfigError):
        SignalTrace(samples=np.zeros((4, 2)), sample_rate=1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_trace_rejects_non_finite(bad):
    with pytest.raises(ConfigError, match="finite"):
        SignalTrace(samples=np.array([0.0, bad, 1.0]), sample_rate=1e6)
    with pytest.raises(ConfigError, match="sample rate"):
        SignalTrace(samples=np.zeros(3), sample_rate=bad)
    with pytest.raises(ConfigError, match="t0"):
        SignalTrace(samples=np.zeros(3), sample_rate=1e6, t0=bad)
    with pytest.raises(ConfigError, match="sample rate"):
        SignalTrace(samples=np.zeros(3), sample_rate=0.0)


def test_add_noise_seeded():
    tr = SignalTrace(samples=np.zeros(512), sample_rate=1e6)
    a = add_noise(tr, 0.5, seed=9)
    b = add_noise(tr, 0.5, seed=9)
    c = add_noise(tr, 0.5, seed=10)
    assert np.array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)
    assert np.std(a.samples) == pytest.approx(0.5, rel=0.2)
    assert np.array_equal(add_noise(tr, 0.0, seed=1).samples, tr.samples)
    with pytest.raises(ConfigError):
        add_noise(tr, -1.0, seed=0)


def test_highpass_brick_wall():
    rate, n = 1e6, 2000
    t = np.arange(n) / rate
    low = np.sin(2 * np.pi * 10e3 * t)
    high = np.cos(2 * np.pi * 50e3 * t)
    tr = SignalTrace(samples=low + high, sample_rate=rate)
    out = apply_highpass(tr, 35e3)
    assert np.allclose(out.samples, high, atol=1e-10)
    mask = highpass_mask(n, rate, 35e3)
    freqs = np.fft.fftfreq(n, d=1 / rate)
    assert np.array_equal(mask == 1.0, np.abs(freqs) >= 35e3)
    with pytest.raises(ConfigError):
        apply_highpass(tr, 0.0)


def test_trace_csv_round_trip(tmp_path):
    tr = SignalTrace(samples=np.sin(np.arange(40)), sample_rate=2e6,
                     t0=1e-6, coil_index=1)
    path = tmp_path / "trace.csv"
    save_trace_csv(tr, path, comments=["coil y"])
    back = load_trace_csv(path, coil_index=1)
    assert back.sample_rate == pytest.approx(2e6)
    assert back.t0 == pytest.approx(1e-6)
    assert back.coil_index == 1
    assert np.allclose(back.samples, tr.samples, atol=1e-15)
    assert path.read_text().startswith("# coil y\nt,volts\n")
    bad = tmp_path / "bad.csv"
    bad.write_text("t,volts\n0.0,1.0\n")
    with pytest.raises(ConfigError):
        load_trace_csv(bad)


def test_trace_bin_round_trip(tmp_path):
    tr = SignalTrace(samples=np.linspace(-1, 1, 33), sample_rate=4e6,
                     t0=-2e-6, coil_index=2)
    path = tmp_path / "trace.bin"
    save_trace_bin(tr, path)
    back = load_trace_bin(path)
    assert np.array_equal(back.samples, tr.samples)
    assert (back.sample_rate, back.t0, back.coil_index) == (4e6, -2e-6, 2)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ConfigError):
        load_trace_bin(path)


def test_parallel_linearity_and_plane_symmetry():
    model, grid, config, params = small_scene(sample_rate=1e6)
    coil = coil_along("x")
    tr1 = simulate_parallel(model, grid, coil, config, params)
    tr2 = simulate_parallel(model, grid.with_values(2.0 * grid.values),
                            coil, config, params)
    assert np.allclose(tr2.samples, 2.0 * tr1.samples, atol=1e-18)
    assert tr1.rms > 0
    # on the z=0 plane the field has no z component, so a z coil sees nothing
    trz = simulate_parallel(model, grid, coil_along("z"), config, params)
    assert np.max(np.abs(trz.samples)) < 1e-20


def test_general_close_to_parallel_for_static_line():
    # the ideal static line field keeps a fixed direction on the z=0 plane,
    # so the no-assumption model and the parallel model agree analytically;
    # what remains is the finite-difference error of the general simulator
    model, grid, config, params = small_scene()
    coil = coil_along("x")
    par = simulate_parallel(model, grid, coil, config, params)
    gen = simulate_general(model, grid, coil, config, params)
    scale = np.linalg.norm(par.samples)
    assert np.linalg.norm(gen.samples - par.samples) / scale < 0.01


def test_piecewise_tracks_parallel():
    model, grid, config, params = small_scene(sample_rate=1e6)
    coil = coil_along("x")
    b = 10e-3
    approx = mag.build_approx(params, mag.nodes_equidistant(29, b), b,
                              scheme="secant")
    par = simulate_parallel(model, grid, coil, config, params)
    pw = simulate_piecewise(model, grid, coil, config, approx, subsampling=1)
    scale = np.linalg.norm(par.samples)
    assert np.linalg.norm(pw.samples - par.samples) / scale < 0.03


# --- quadrature simulators on the filled cells --------------------------------

def _full_grid_trace(simulate, model, grid, coil, config, params):
    """The quadrature sum over every cell of the grid, empty ones included.

    The oracle for the simulators, which evaluate the field at the filled
    cells only: the same formulas, one BLAS product over all cells.
    """
    ev = FieldEvaluator(model, grid.centers())
    weights = grid.flat() * grid.cell_volume
    rho = coil.vector
    dt = 1.0 / config.sample_rate
    times = config.times()
    if simulate is simulate_parallel:
        b, bdot = ev.field(times), ev.field_dt(times)
        mag_b = np.sqrt(np.einsum("jkt,jkt->kt", b, b))
        proj = np.einsum("j,jkt->kt", rho, bdot)
        return -MU0 * (weights @ (proj * mag.mbar_prime(params, mag_b)))
    extended = np.concatenate([[times[0] - dt], times, [times[-1] + dt]])
    b = ev.field(extended)
    mag_b = np.sqrt(np.einsum("jkt,jkt->kt", b, b))
    proj = np.einsum("j,jkt->kt", rho, b)
    ivals = weights @ (proj * mag.mbar_over_b(params, mag_b))
    return -MU0 * (ivals[2:] - ivals[:-2]) / (2.0 * dt)


def _desk_ffl_scene(magnitude=0.0):
    """Rotating FFL of the desk scanner over one rotation, on a 24x24 grid."""
    model = build_topology("rotating_ffl", g=1.0, d=0.1, f_d=25e3, f_rot=1e3,
                           validity_radius=0.1)
    if magnitude:
        model = perturb_field(model, seed=1, magnitude=magnitude)
    grid = build_disc_phantom(0.06, [0.02, 0.012], 0.06 / 24)
    config = AcquisitionConfig(f_d=25e3, sample_rate=1e6, duration=1e-3, f_rot=1e3)
    return model, grid, config, mag.LangevinParams(m0=1.0, lam=1600.0)


def _lissajous_3d_scene():
    """3-D Lissajous FFP over a 12x12x4 grid with a disc in every plane."""
    model = build_topology("lissajous_ffp", g=1.0, d=(0.012, 0.012, 0.012),
                           f=(25e3, 26e3, 27e3))
    grid = build_disc_phantom(0.03, [0.012], 0.03 / 12, centers=[(0.002, -0.001)],
                              nz=4, z_spacing=2.5e-3)
    config = AcquisitionConfig(f_d=27e3, sample_rate=2e6, duration=2e-4)
    return model, grid, config, mag.LangevinParams(m0=1.0, lam=2500.0)


def _signed_scene():
    """Perturbed desk field over a grid of fractional and negative cells."""
    model, grid, config, params = _desk_ffl_scene(magnitude=0.35)
    rng = np.random.default_rng(5)
    values = rng.uniform(-1.0, 2.0, grid.n_cells) * (rng.random(grid.n_cells) < 0.2)
    assert np.any(values < 0) and np.any((values > 0) & (values != 1))
    return model, grid.with_values(values), config, params


SCENES = {
    "ideal_rotating_ffl": lambda: _desk_ffl_scene(),
    "perturbed_rotating_ffl": lambda: _desk_ffl_scene(magnitude=0.35),
    "lissajous_3d": _lissajous_3d_scene,
    "signed_values": _signed_scene,
}


@pytest.mark.parametrize("simulate", [simulate_general, simulate_parallel])
@pytest.mark.parametrize("scene", sorted(SCENES))
def test_filled_cell_simulators_match_full_grid_oracle(scene, simulate):
    model, grid, config, params = SCENES[scene]()
    assert 0 < np.count_nonzero(grid.flat()) < grid.n_cells
    oracle = _full_grid_trace(simulate, model, grid, coil_along("x"), config, params)
    got = simulate(model, grid, coil_along("x"), config, params).samples
    scale = np.max(np.abs(oracle))
    assert scale > 0
    assert np.max(np.abs(got - oracle)) <= 1e-12 * scale


@pytest.mark.parametrize("simulate", [simulate_general, simulate_parallel])
def test_empty_phantom_gives_zero_trace(simulate):
    model, grid, config, params = _desk_ffl_scene()
    empty = grid.with_values(np.zeros(grid.dims))
    trace = simulate(model, empty, coil_along("x"), config, params)
    assert trace.samples.size == config.n_samples
    assert np.all(trace.samples == 0.0)


@pytest.mark.parametrize("simulate", [simulate_general, simulate_parallel])
def test_simulators_evaluate_the_field_at_the_filled_cells_only(simulate,
                                                                monkeypatch):
    model, grid, config, params = _signed_scene()
    built = []

    class RecordingEvaluator(FieldEvaluator):
        def __init__(self, model, points):
            super().__init__(model, points)
            built.append(self.points)

    monkeypatch.setattr(forward, "FieldEvaluator", RecordingEvaluator)
    simulate(model, grid, coil_along("x"), config, params)
    filled = np.flatnonzero(grid.flat())
    assert len(built) == 1
    assert np.array_equal(built[0], grid.centers()[filled])


@pytest.mark.parametrize("simulate", [simulate_general, simulate_parallel])
def test_non_finite_cell_reaches_the_trace_check(simulate):
    # an empty corner cell turned NaN behind the grid's own finite check:
    # it is nonzero, so it reaches the sum and the trace is rejected
    model, grid, config, params = _desk_ffl_scene()
    values = grid.values.copy()
    assert values[0, 0, 0] == 0.0
    values[0, 0, 0] = np.nan
    grid.values = values
    with pytest.raises(ConfigError, match="finite"):
        simulate(model, grid, coil_along("x"), config, params)


@pytest.mark.parametrize("simulate", [simulate_general, simulate_parallel])
def test_validity_warning_counts_filled_cells_only(simulate, caplog):
    # the sphere holds the disc at the center; the grid corners lie outside
    model = build_topology("static_ffl", g=1.0, d=0.02, f_d=25e3, alpha=0.4,
                           validity_radius=0.005)
    _, grid, config, params = small_scene(sample_rate=1e6)
    assert np.max(np.linalg.norm(grid.centers(), axis=1)) > 0.005
    inside = build_disc_phantom(0.010, [0.008], 0.010 / 16, centers=[(0.0, 0.0)])
    with caplog.at_level(logging.WARNING, logger="mpisim.fields"):
        simulate(model, inside, coil_along("x"), config, params)
    assert not any("validity" in rec.message for rec in caplog.records)
    corner = inside.values.copy()
    corner[0, 0, 0] = 0.5
    with caplog.at_level(logging.WARNING, logger="mpisim.fields"):
        simulate(model, inside.with_values(corner), coil_along("x"), config, params)
    assert any("1 of" in rec.message and "validity" in rec.message
               for rec in caplog.records)


def test_workers_and_blocks_do_not_change_results():
    model, grid, config, params = _signed_scene()
    config = dataclasses.replace(config, duration=2e-4, f_rot=0.0)
    coil = coil_along("y")
    for simulate in (simulate_general, simulate_parallel):
        base = simulate(model, grid, coil, config, params).samples
        for workers in (1, 2, 3):
            for block in (1, 7, 256):
                split = simulate(model, grid, coil, config, params,
                                 n_workers=workers, block=block)
                assert np.array_equal(split.samples, base), (simulate, workers, block)

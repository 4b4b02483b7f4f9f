"""Receive chain: coils, acquisition timing, the three simulators, filtering."""

import dataclasses
import logging
import threading
import time

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
    map_time_blocks,
    save_trace_bin,
    save_trace_csv,
    simulate_general,
    simulate_parallel,
    simulate_piecewise,
)
from mpisim.phantom import build_disc_phantom, cell_offsets
from mpisim.sysmat import CellQuadrature


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


def test_acquisition_needs_one_sample():
    # 1e-13 s at 4 MHz is 4e-7 samples: an integer count, within the
    # rounding tolerance, but zero of them
    with pytest.raises(ConfigError, match="at least one sample"):
        AcquisitionConfig(f_d=25e3, sample_rate=4e6, duration=1e-13)
    one = AcquisitionConfig(f_d=25e3, sample_rate=4e6, duration=2.5e-7)
    assert one.n_samples == 1 and np.array_equal(one.times(), [0.0])


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
    with pytest.raises(ConfigError, match="seed"):
        add_noise(tr, 0.5, seed=-1)


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
    assert path.read_text().startswith("# coil y\nt,volts\n")
    # .17g columns: a plain CSV reader gets every time and sample back exactly
    t, volts = np.loadtxt(path, delimiter=",", skiprows=2, unpack=True)
    assert np.array_equal(t, tr.times())
    assert np.array_equal(volts, tr.samples)
    # the bytes of one line per sample formatted from the numpy scalars
    for trace in (tr, SignalTrace(samples=[-0.0, 5e-324, -1e300, 1 / 3],
                                  sample_rate=3e6, t0=-1e-7)):
        save_trace_csv(trace, path)
        expected = "".join(f"{ti:.17g},{vi:.17g}\n"
                           for ti, vi in zip(trace.times(), trace.samples))
        assert path.read_text() == "t,volts\n" + expected


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
    [tr1] = simulate_parallel(model, grid, [coil], config, params)
    [tr2] = simulate_parallel(model, grid.with_values(2.0 * grid.values),
                              [coil], config, params)
    assert np.allclose(tr2.samples, 2.0 * tr1.samples, atol=1e-18)
    assert tr1.rms > 0
    # on the z=0 plane the field has no z component, so a z coil sees nothing
    [trz] = simulate_parallel(model, grid, [coil_along("z")], config, params)
    assert np.max(np.abs(trz.samples)) < 1e-20


def test_general_close_to_parallel_for_static_line():
    # the ideal static line field keeps a fixed direction on the z=0 plane,
    # so the no-assumption model and the parallel model agree analytically;
    # what remains is the finite-difference error of the general simulator
    model, grid, config, params = small_scene()
    coil = coil_along("x")
    [par] = simulate_parallel(model, grid, [coil], config, params)
    [gen] = simulate_general(model, grid, [coil], config, params)
    scale = np.linalg.norm(par.samples)
    assert np.linalg.norm(gen.samples - par.samples) / scale < 0.01


def test_piecewise_tracks_parallel():
    model, grid, config, params = small_scene(sample_rate=1e6)
    coil = coil_along("x")
    b = 10e-3
    approx = mag.build_approx(params, mag.nodes_equidistant(29, b), b,
                              scheme="secant")
    [par] = simulate_parallel(model, grid, [coil], config, params)
    [pw] = simulate_piecewise(model, grid, [coil], config, approx, subsampling=1)
    scale = np.linalg.norm(par.samples)
    assert np.linalg.norm(pw.samples - par.samples) / scale < 0.03


# --- quadrature simulators on the filled cells --------------------------------

def _staircase(params):
    b = 10e-3
    return mag.build_approx(params, mag.nodes_equidistant(29, b), b, scheme="secant")


def simulate_piecewise_sub2(model, grid, coils, config, params, **kwargs):
    """simulate_piecewise on a 30-interval secant staircase, subsampling 2."""
    return simulate_piecewise(model, grid, coils, config, _staircase(params),
                              subsampling=2, **kwargs)


SIMULATORS = [simulate_general, simulate_parallel, simulate_piecewise_sub2]
SUBSAMPLING = {simulate_piecewise_sub2: 2}


def _full_grid_trace(simulate, model, grid, coil, config, params):
    """The quadrature sum over every cell of the grid, empty ones included.

    The oracle for the simulators, which evaluate the field at the filled
    cells only: the same formulas, one BLAS product over all cells.  For
    the piecewise model it is the dense system matrix entries of
    sysmat.CellQuadrature.weights times the flat concentration.
    """
    if simulate is simulate_piecewise_sub2:
        quad = CellQuadrature(model, grid, SUBSAMPLING[simulate])
        return (quad.weights(_staircase(params), coil.vector, config.times()).T
                @ grid.flat())
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


def _short_signed_scene():
    """_signed_scene over 200 samples without rotation."""
    model, grid, config, params = _signed_scene()
    config = dataclasses.replace(config, duration=2e-4, f_rot=0.0)
    return model, grid, config, params


SCENES = {
    "ideal_rotating_ffl": lambda: _desk_ffl_scene(),
    "perturbed_rotating_ffl": lambda: _desk_ffl_scene(magnitude=0.35),
    "lissajous_3d": _lissajous_3d_scene,
    "signed_values": _signed_scene,
}


@pytest.mark.parametrize("simulate", SIMULATORS)
@pytest.mark.parametrize("scene", sorted(SCENES))
def test_filled_cell_simulators_match_full_grid_oracle(scene, simulate):
    model, grid, config, params = SCENES[scene]()
    assert 0 < np.count_nonzero(grid.flat()) < grid.n_cells
    oracle = _full_grid_trace(simulate, model, grid, coil_along("x"), config, params)
    [trace] = simulate(model, grid, [coil_along("x")], config, params)
    got = trace.samples
    scale = np.max(np.abs(oracle))
    assert scale > 0
    assert np.max(np.abs(got - oracle)) <= 1e-12 * scale


@pytest.mark.parametrize("simulate", SIMULATORS)
def test_empty_phantom_gives_zero_trace(simulate):
    model, grid, config, params = _desk_ffl_scene()
    empty = grid.with_values(np.zeros(grid.dims))
    [trace] = simulate(model, empty, [coil_along("x")], config, params)
    assert trace.samples.size == config.n_samples
    assert np.all(trace.samples == 0.0)


@pytest.mark.parametrize("simulate", SIMULATORS)
def test_simulators_evaluate_the_field_at_the_filled_cells_only(simulate,
                                                                monkeypatch):
    model, grid, config, params = _signed_scene()
    built = []

    class RecordingEvaluator(FieldEvaluator):
        def __init__(self, model, points):
            super().__init__(model, points)
            built.append(self.points)

    # every cell's sub-points, built independently by the system matrix's
    # quadrature; the filled cells' rows are the ones expected
    quad = CellQuadrature(model, grid, SUBSAMPLING.get(simulate, 1))
    per_cell = quad.evaluator.points.reshape(grid.n_cells, quad.n_sub, 3)
    monkeypatch.setattr(forward, "FieldEvaluator", RecordingEvaluator)
    simulate(model, grid, [coil_along("x")], config, params)
    filled = np.flatnonzero(grid.flat())
    assert len(built) == 1
    assert np.array_equal(built[0], per_cell[filled].reshape(-1, 3))


@pytest.mark.parametrize("simulate", SIMULATORS)
def test_non_finite_cell_reaches_the_trace_check(simulate):
    # an empty corner cell turned NaN behind the grid's own finite check:
    # it is nonzero, so it reaches the sum and the trace is rejected
    model, grid, config, params = _desk_ffl_scene()
    values = grid.values.copy()
    assert values[0, 0, 0] == 0.0
    values[0, 0, 0] = np.nan
    grid.values = values
    with pytest.raises(ConfigError, match="finite"):
        simulate(model, grid, [coil_along("x")], config, params)


@pytest.mark.parametrize("simulate", SIMULATORS)
def test_validity_warning_counts_filled_cells_only(simulate, caplog):
    # the sphere holds the disc at the center; the grid corners lie outside
    model = build_topology("static_ffl", g=1.0, d=0.02, f_d=25e3, alpha=0.4,
                           validity_radius=0.005)
    _, grid, config, params = small_scene(sample_rate=1e6)
    assert np.max(np.linalg.norm(grid.centers(), axis=1)) > 0.005
    inside = build_disc_phantom(0.010, [0.008], 0.010 / 16, centers=[(0.0, 0.0)])
    with caplog.at_level(logging.WARNING, logger="mpisim.fields"):
        simulate(model, inside, [coil_along("x")], config, params)
    assert not any("validity" in rec.message for rec in caplog.records)
    corner = inside.values.copy()
    corner[0, 0, 0] = 0.5
    with caplog.at_level(logging.WARNING, logger="mpisim.fields"):
        simulate(model, inside.with_values(corner), [coil_along("x")], config,
                 params)
    # the corner cell's sub-points all lie outside the sphere
    n_sub = len(cell_offsets(inside, SUBSAMPLING.get(simulate, 1)))
    assert any(f"{n_sub} of" in rec.message and "validity" in rec.message
               for rec in caplog.records)


THREE_COILS = [coil_along("x"), coil_along("y"),
               ReceiveCoil((1.0, 2.0, 3.0), index=7)]


def test_workers_and_blocks_do_not_change_results():
    # nor does the number of coils: one call on three coils gives each
    # coil's own one-coil trace, bit for bit
    model, grid, config, params = _short_signed_scene()
    for simulate in SIMULATORS:
        singles = [simulate(model, grid, [coil], config, params)[0]
                   for coil in THREE_COILS]
        for workers in (1, 2, 3):
            for block in (1, 7, 256):
                traces = simulate(model, grid, THREE_COILS, config, params,
                                  n_workers=workers, block=block)
                assert len(traces) == len(THREE_COILS)
                for coil, got, single in zip(THREE_COILS, traces, singles):
                    assert got.coil_index == coil.index
                    assert np.array_equal(got.samples, single.samples), (
                        simulate, workers, block, coil)


@pytest.mark.parametrize("simulate", SIMULATORS)
def test_empty_coil_list_is_rejected(simulate):
    model, grid, config, params = _short_signed_scene()
    with pytest.raises(ConfigError, match="receive coil"):
        simulate(model, grid, [], config, params)


@pytest.mark.parametrize("simulate", SIMULATORS)
def test_field_is_evaluated_once_per_time_block_for_all_coils(simulate,
                                                              monkeypatch):
    model, grid, config, params = _short_signed_scene()
    calls = {"field": [], "field_dt": []}
    for name in calls:
        def counting(self, times, _real=getattr(FieldEvaluator, name),
                     _calls=calls[name]):
            _calls.append(np.size(times))
            return _real(self, times)
        monkeypatch.setattr(FieldEvaluator, name, counting)
    # the general model differentiates over one extra sample at each end
    n_times = config.n_samples + (2 if simulate is simulate_general else 0)
    for coils in (THREE_COILS[:1], THREE_COILS):
        for name in calls:
            calls[name].clear()
        simulate(model, grid, coils, config, params, n_workers=2, block=7)
        assert len(calls["field"]) == -(-n_times // 7)
        assert sum(calls["field"]) == n_times
        # the parallel models also take dB/dt once per block; general never
        expected = 0 if simulate is simulate_general else n_times
        assert sum(calls["field_dt"]) == expected
        assert len(calls["field_dt"]) == -(-expected // 7)


def _pool_threads():
    return {t for t in threading.enumerate()
            if t.name.startswith("ThreadPoolExecutor")}


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_map_time_blocks_yields_in_span_order(workers):
    times = np.arange(23.0)

    def late_first(span):
        # the first spans finish last, so a pool completes them out of order
        time.sleep(0.002 * (23 - span[0]) / 23)
        return span.copy()

    got = list(map_time_blocks(late_first, times, workers, 4))
    assert [g.tolist() for g in got] == [times[lo:lo + 4].tolist()
                                         for lo in range(0, 23, 4)]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_map_time_blocks_runs_at_most_two_spans_per_worker_ahead(workers):
    started, lock = [], threading.Lock()

    def record(span):
        with lock:
            started.append(int(span[0]))
        return int(span[0])

    in_flight = []
    for i, first in enumerate(map_time_blocks(record, np.arange(40.0), workers, 1)):
        assert first == i
        time.sleep(0.005)  # a slow consumer: the pool would run on
        with lock:
            in_flight.append(max(started) - i + 1)  # this span and those started after it
    assert max(in_flight) <= 2 * workers
    if workers > 1:
        assert max(in_flight) == 2 * workers  # the pool does run ahead


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_map_time_blocks_raises_a_worker_error(workers):
    before = _pool_threads()

    def fail_at_5(span):
        if span[0] == 5:
            raise ValueError("span 5 failed")
        return int(span[0])

    blocks = map_time_blocks(fail_at_5, np.arange(12.0), workers, 1)
    assert [next(blocks) for _ in range(5)] == [0, 1, 2, 3, 4]
    with pytest.raises(ValueError, match="span 5 failed"):
        next(blocks)
    assert _pool_threads() <= before


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_closing_map_time_blocks_stops_its_pool(workers):
    before = _pool_threads()
    calls = []

    def slow(span):
        calls.append(int(span[0]))
        time.sleep(0.002)
        return int(span[0])

    blocks = map_time_blocks(slow, np.arange(100.0), workers, 1)
    assert next(blocks) == 0
    blocks.close()
    assert _pool_threads() <= before
    n_calls = len(calls)
    assert n_calls <= 2 * workers
    time.sleep(0.01)
    assert len(calls) == n_calls

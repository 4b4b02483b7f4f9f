"""System-matrix assembly, hashing, persistence, and row filtering."""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import mpisim
from mpisim import magnetization as mag
from mpisim.errors import (
    ConfigError,
    HashMismatchError,
    MissingInputError,
    ResourceCapError,
)
from mpisim.fields import FieldEvaluator, build_topology, perturb_field
from mpisim.forward import (
    AcquisitionConfig,
    apply_highpass,
    SignalTrace,
    coil_along,
    highpass_mask,
    simulate_piecewise,
)
from mpisim.phantom import build_disc_phantom, empty_grid
from mpisim.recon import LsqrOptions, lsqr_solve
from mpisim.sysmat import (
    CellQuadrature,
    FilteredOperator,
    SystemMatrix,
    apply_highpass_rows,
    build_system_matrix,
    chain_highpass_hash,
    config_hash,
    load_system_matrix,
    save_system_matrix,
    stack_coils,
)


def _densified_highpass(sm, cutoff):
    """Oracle: filter every column of each coil block through the DFT mask.

    This is the dense, explicit F S that SystemMatrix.operator() applies
    matrix-free.
    """
    n = sm.rows_per_coil
    mask = highpass_mask(n, sm.sample_rate, cutoff)
    blocks = []
    for i in range(len(sm.coil_indices)):
        dense = sm.matrix[i * n:(i + 1) * n].toarray()
        blocks.append(np.real(np.fft.ifft(np.fft.fft(dense, axis=0)
                                          * mask[:, None], axis=0)))
    return np.vstack(blocks)


def _zero_trace(config):
    return SignalTrace(np.zeros(config.n_samples), config.sample_rate)


def _rel_err(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


def _desk_ffl(magnitude=0.0):
    """The desk scanner: rotating FFL, 1 T/m, 0.1 T drive at 25 kHz, 1 kHz."""
    model = build_topology("rotating_ffl", g=1.0, d=0.1, f_d=25e3, f_rot=1e3,
                           validity_radius=0.1)
    return perturb_field(model, seed=1, magnitude=magnitude)


def _desk_approx(b=10e-3):
    return mag.build_approx(mag.LangevinParams(m0=1.0, lam=1600.0),
                            mag.nodes_equidistant(30, b), b, scheme="secant")


def _assert_matches_unpruned(model, approx, coil, times, grid, subsampling):
    """Pruned assembly against the dense quadrature it replaces.

    The pattern must be identical.  Values may differ by the reordered
    term sum only: at most 1e-12 of the largest entry, since entries that
    cancel to far below it carry the rounding of their summands.
    """
    sm = build_system_matrix(model, approx, coil, times, grid, subsampling)
    quad = CellQuadrature(model, grid, subsampling)
    oracle = sp.csr_matrix(quad.weights(approx, coil.vector, times).T)
    assert oracle.nnz > 0
    assert np.array_equal(sm.matrix.indptr, oracle.indptr)
    assert np.array_equal(sm.matrix.indices, oracle.indices)
    scale = np.max(np.abs(oracle.data))
    assert np.max(np.abs(sm.matrix.data - oracle.data)) <= 1e-12 * scale
    return sm


@pytest.fixture(scope="module")
def scene():
    model = build_topology("static_ffl", g=1.0, d=0.02, f_d=25e3, alpha=0.4)
    grid = build_disc_phantom(0.010, [0.008], 0.010 / 16, centers=[(0.0, 0.0)])
    config = AcquisitionConfig(f_d=25e3, sample_rate=1e6, duration=4e-5)
    params = mag.LangevinParams(m0=1.0, lam=2500.0)
    b = 10e-3
    approx = mag.build_approx(params, mag.nodes_equidistant(29, b), b,
                              scheme="secant")
    return model, grid, config, approx


@pytest.fixture(scope="module")
def matrix_x(scene):
    model, grid, config, approx = scene
    return build_system_matrix(model, approx, coil_along("x"), config.times(),
                               grid, subsampling=2)


def test_matrix_shape_and_metadata(scene, matrix_x):
    model, grid, config, approx = scene
    sm = matrix_x
    assert sm.shape == (config.n_samples, grid.n_cells)
    assert sm.rows_per_coil == config.n_samples
    assert sm.sample_rate == pytest.approx(config.sample_rate)
    assert sm.coil_indices == (0,)
    assert sm.coil_vectors == ((1.0, 0.0, 0.0),)
    assert sm.grid_meta_matches(grid)
    assert sm.highpass is None
    assert 0 < sm.nnz < sm.shape[0] * sm.shape[1]  # staircase support is local


def test_matrix_vector_product_equals_piecewise(scene, matrix_x):
    model, grid, config, approx = scene
    pw = simulate_piecewise(model, grid, coil_along("x"), config, approx,
                            subsampling=2)
    assert np.max(np.abs(matrix_x.matrix @ grid.flat() - pw.samples)) < 1e-12


@settings(max_examples=25, deadline=None)
@given(topology=st.sampled_from(["rotating_ffl", "lissajous_ffp"]),
       perturbed=st.booleans(), cells=st.integers(2, 8), nz=st.sampled_from([1, 2]),
       subsampling=st.sampled_from([1, 2]), n_times=st.integers(40, 200),
       axis=st.sampled_from("xy"), b=st.floats(4e-3, 10e-3),
       intervals=st.integers(4, 30), scheme=st.sampled_from(["secant", "tangent"]),
       seed=st.integers(0, 2**32 - 1))
def test_matrix_vector_product_equals_piecewise_on_random_scenes(
        topology, perturbed, cells, nz, subsampling, n_times, axis, b, intervals,
        scheme, seed):
    # S c and the piecewise simulator share one quadrature and differ only
    # in the order of the term sum.  The zero locus starts at the center of
    # the 10 mm grid, within b of a cell center, so u is never zero.
    rng = np.random.default_rng(seed)
    if topology == "rotating_ffl":
        model = build_topology(topology, g=1.0, d=0.02, f_d=25e3, f_rot=1e3,
                               validity_radius=0.1)
    else:
        model = build_topology(topology, g=1.0, d=(0.012, 0.012, 0.012),
                               f=(25e3, 26e3, 27e3), validity_radius=0.1)
    if perturbed:
        model = perturb_field(model, seed=int(rng.integers(1000)), magnitude=0.35)
    grid = empty_grid(0.01, 0.01 / cells, nz=nz, z_spacing=1e-3)
    grid = grid.with_values(rng.uniform(0.0, 1.0, grid.n_cells))
    config = AcquisitionConfig(f_d=25e3, sample_rate=1e6, duration=n_times * 1e-6)
    approx = mag.build_approx(mag.LangevinParams(m0=1.0, lam=1600.0),
                              mag.nodes_equidistant(intervals - 1, b), b,
                              scheme=scheme)
    coil = coil_along(axis)
    sm = build_system_matrix(model, approx, coil, config.times(), grid, subsampling)
    u = simulate_piecewise(model, grid, coil, config, approx,
                           subsampling=subsampling).samples
    scale = np.max(np.abs(u))
    assert scale > 0
    assert np.max(np.abs(sm.matrix @ grid.flat() - u)) <= 1e-12 * scale


def test_pruned_matches_unpruned_static_ffl(scene):
    model, grid, config, approx = scene
    _assert_matches_unpruned(model, approx, coil_along("x"), config.times(),
                             grid, subsampling=2)


def test_pruned_matches_unpruned_subsampling_1(scene):
    model, grid, config, approx = scene
    for axis in "xy":
        _assert_matches_unpruned(model, approx, coil_along(axis),
                                 config.times(), grid, subsampling=1)


def test_pruned_matches_unpruned_perturbed_rotating_ffl():
    # degree 2..4 terms on every coil: the Lipschitz bound is no longer exact
    model = _desk_ffl(magnitude=0.35)
    assert {t.degree for t in model.terms} >= {2, 3, 4}
    times = np.arange(500) * 2e-6
    grid = empty_grid(0.1, 0.1 / 32)
    for b in (4e-3, 10e-3):
        _assert_matches_unpruned(model, _desk_approx(b), coil_along("y"),
                                 times, grid, subsampling=2)


def test_pruned_matches_unpruned_3d_lissajous(scene):
    model = build_topology("lissajous_ffp", g=1.0, d=(0.012, 0.012, 0.012),
                           f=(25e3, 26e3, 27e3))
    grid = empty_grid(0.03, 0.03 / 12, nz=4, z_spacing=2.5e-3)
    assert CellQuadrature(model, grid, 2).n_sub == 8
    _assert_matches_unpruned(model, scene[3], coil_along("z"),
                             np.arange(400) * 2.5e-7, grid, subsampling=2)


def test_lipschitz_bound_covers_center_to_sub_point_steps():
    # strong degree 2..4 terms: a bound from the degree-1 terms alone fails
    model = _desk_ffl(magnitude=3.0)
    grid = empty_grid(0.1, 0.1 / 16)
    quad = CellQuadrature(model, grid, 2)
    times = np.arange(100) * 1e-5
    sub = quad.evaluator.field(times).reshape(3, quad.n_cells, quad.n_sub, -1)
    center = FieldEvaluator(model, grid.centers()).field(times)[:, :, None, :]
    step = np.sqrt(np.sum((sub - center) ** 2, axis=0)).max(axis=(0, 1))
    assert quad.reach == pytest.approx(np.sqrt(2) * 0.1 / 16 / 4)
    assert np.all(step <= quad.lipschitz(times) * quad.reach)


def test_pruned_assembly_staircases_few_values(monkeypatch):
    # a silent fall-back to dense assembly would pass every value through
    counted = []
    real_eval = mag.MagnetizationApprox.eval

    def counting_eval(self, x):
        counted.append(np.size(x))
        return real_eval(self, x)

    monkeypatch.setattr(mag.MagnetizationApprox, "eval", counting_eval)
    grid = empty_grid(0.1, 0.1 / 64)
    times = np.arange(0, 4000, 10) * 2.5e-7
    sm = build_system_matrix(_desk_ffl(), _desk_approx(), coil_along("x"), times,
                             grid, subsampling=2)
    assert sm.nnz > 0
    dense_values = grid.n_cells * 4 * times.size
    assert sum(counted) <= 0.2 * dense_values


def test_worker_count_does_not_change_matrix(scene, matrix_x):
    model, grid, config, approx = scene
    base = matrix_x.matrix
    for workers in (1, 2, 3):
        for block in ({"block": 1}, {"block": 7}, {}):  # {}: the default block
            split = build_system_matrix(model, approx, coil_along("x"),
                                        config.times(), grid, subsampling=2,
                                        n_workers=workers, **block)
            for part in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(split.matrix, part),
                                      getattr(base, part)), (workers, block, part)
            assert split.config_hash == matrix_x.config_hash


def test_config_hash_sensitivity(scene):
    model, grid, config, approx = scene
    times = config.times()
    coil = coil_along("x")
    base = config_hash(model, approx, grid, times, coil, subsampling=2)
    assert base == config_hash(model, approx, grid, times.copy(), coil, 2)
    assert len(base) == 16
    other_model = build_topology("static_ffl", g=1.0, d=0.02, f_d=25e3,
                                 alpha=0.41)
    changed = [
        config_hash(other_model, approx, grid, times, coil, 2),
        config_hash(model, approx, grid, times, coil_along("y"), 2),
        config_hash(model, approx, grid, times[:-1], coil, 2),
        config_hash(model, approx, grid, times, coil, 1),
        config_hash(model, approx,
                    build_disc_phantom(0.010, [0.006], 0.010 / 16,
                                       centers=[(0.0, 0.0)]),
                    times, coil, 2),
    ]
    # grids with identical geometry hash alike regardless of cell values;
    # everything else must move the digest
    assert changed[4] == base
    assert len(set(changed[:4] + [base])) == 5
    params = mag.LangevinParams(m0=1.0, lam=2500.0)
    other_approx = mag.build_approx(params, mag.nodes_equidistant(19, 10e-3),
                                    10e-3, scheme="secant")
    assert config_hash(model, other_approx, grid, times, coil, 2) != base


def test_nnz_cap(scene):
    model, grid, config, approx = scene
    with pytest.raises(ResourceCapError):
        build_system_matrix(model, approx, coil_along("x"), config.times(),
                            grid, subsampling=2, nnz_cap=100)


def test_times_validation(scene):
    model, grid, config, approx = scene
    bad = np.array([0.0, 1e-6, 3e-6])
    with pytest.raises(ConfigError):
        build_system_matrix(model, approx, coil_along("x"), bad, grid)
    with pytest.raises(ConfigError):
        build_system_matrix(model, approx, coil_along("x"), np.array([]), grid)


def test_save_load_round_trip(scene, matrix_x, tmp_path):
    path = tmp_path / "sm.bin"
    save_system_matrix(matrix_x, path)
    back = load_system_matrix(path, expected_hash=matrix_x.config_hash)
    assert (back.matrix != matrix_x.matrix).nnz == 0
    assert back.config_hash == matrix_x.config_hash
    assert back.rows_per_coil == matrix_x.rows_per_coil
    assert back.coil_indices == matrix_x.coil_indices
    assert back.coil_vectors == matrix_x.coil_vectors
    assert back.grid_dims == matrix_x.grid_dims
    assert back.highpass is None


def test_load_hash_mismatch_and_force(scene, matrix_x, tmp_path):
    path = tmp_path / "sm.bin"
    save_system_matrix(matrix_x, path)
    with pytest.raises(HashMismatchError):
        load_system_matrix(path, expected_hash="0" * 16)
    forced = load_system_matrix(path, expected_hash="0" * 16, force=True)
    assert forced.config_hash == matrix_x.config_hash
    with pytest.raises(MissingInputError):
        load_system_matrix(tmp_path / "absent.bin")
    data = path.read_bytes()
    (tmp_path / "cut.bin").write_bytes(data[:-8])
    with pytest.raises(ConfigError):
        load_system_matrix(tmp_path / "cut.bin")


def _tiny_matrix():
    dense = np.array([[1.0, 0.0, 2.0], [0.0, 3.0, 0.0], [0.0, 0.0, 4.0]])
    return SystemMatrix(matrix=sp.csr_matrix(dense), sample_rate=1e6, t0=0.0,
                        rows_per_coil=3, coil_indices=(0,),
                        coil_vectors=((1.0, 0.0, 0.0),), grid_dims=(3, 1, 1),
                        grid_spacing=(1e-3, 1e-3, 1e-3), grid_origin=(0.0, 0.0, 0.0),
                        config_hash="0123456789abcdef")


def _rewrite(path, header=None, row=None, col=None, val=None):
    """Replace header lines (by index) or triplet arrays of a saved matrix."""
    lines = path.read_bytes().split(b"\n", 4)
    payload = lines.pop()
    for i, text in (header or {}).items():
        lines[i] = text
    nnz = len(payload) // 24
    arrays = [np.frombuffer(payload[k * 8 * nnz:(k + 1) * 8 * nnz], dtype=dt).copy()
              for k, dt in enumerate(("<i8", "<i8", "<f8"))]
    for array, new in zip(arrays, (row, col, val)):
        if new is not None:
            array[0] = new
    path.write_bytes(b"\n".join(lines) + b"\n" + b"".join(a.tobytes() for a in arrays))


@pytest.mark.parametrize("header", [
    {0: b"3 3 four 0123456789abcdef"},
    {0: b"3 3 4"},
    {0: b"-3 3 4 0123456789abcdef"},
    {1: b"1e6 0 3"},
    {1: b"fast 0 3 none"},
    {2: b"0:1,0"},
    {2: b"0=1,0,0"},
    {3: b"3 1 1 0.001 0.001 0.001 0 0"},
    {0: b"\xff\xfe 3 4 0123456789abcdef"},
    # impossible metadata: sample rate, t0 and high-pass
    {1: b"nan 0 3 none"},
    {1: b"inf 0 3 none"},
    {1: b"-1e6 0 3 none"},
    {1: b"1e6 nan 3 none"},
    {1: b"1e6 -inf 3 none"},
    {1: b"1e6 0 3 nan"},
    {1: b"1e6 0 3 inf"},
    {1: b"1e6 0 3 0"},
    {1: b"1e6 0 3 -35000"},
    {1: b"0 0 3 35000"},
    # rows against rows_per_coil and the coils
    {0: b"4 3 4 0123456789abcdef"},
    {0: b"0 3 4 0123456789abcdef", 1: b"1e6 0 0 none"},
    {1: b"1e6 0 2 none"},
    {2: b"0:1,0,0 1:0,1,0"},
    {2: b""},
    {2: b"0:nan,0,0"},
    {2: b"0:1,inf,0"},
    # grid dims against the columns, spacing and origin
    {3: b"-3 -1 1 0.001 0.001 0.001 0 0 0"},
    {3: b"2 1 1 0.001 0.001 0.001 0 0 0"},
    {3: b"3 1 1 0 0.001 0.001 0 0 0"},
    {3: b"3 1 1 0.001 -0.001 0.001 0 0 0"},
    {3: b"3 1 1 0.001 0.001 nan 0 0 0"},
    {3: b"3 1 1 0.001 0.001 inf 0 0 0"},
    {3: b"3 1 1 0.001 0.001 0.001 nan 0 0"},
    {3: b"3 1 1 0.001 0.001 0.001 0 0 -inf"},
])
def test_load_rejects_malformed_header(tmp_path, header):
    path = tmp_path / "sm.mat"
    save_system_matrix(_tiny_matrix(), path)
    _rewrite(path, header=header)
    with pytest.raises(ConfigError, match="malformed header"):
        load_system_matrix(path)


@pytest.mark.parametrize("triplet", [
    {"row": 99}, {"row": -1}, {"col": 3}, {"col": -2},
])
def test_load_rejects_out_of_range_indices(tmp_path, triplet):
    path = tmp_path / "sm.mat"
    save_system_matrix(_tiny_matrix(), path)
    _rewrite(path, **triplet)
    with pytest.raises(ConfigError, match="outside the 3x3 shape"):
        load_system_matrix(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_load_rejects_non_finite_values(tmp_path, value):
    path = tmp_path / "sm.mat"
    save_system_matrix(_tiny_matrix(), path)
    _rewrite(path, val=value)
    with pytest.raises(ConfigError, match="non-finite"):
        load_system_matrix(path)


def test_load_maps_an_unallocatable_shape_to_the_resource_cap(tmp_path):
    # a consistent header for 10^12 rows: the CSR row pointer alone needs
    # 7.28 TiB.  The address-space limit applies to the child process only,
    # so the allocation fails there instead of being overcommitted.
    path = tmp_path / "sm.mat"
    save_system_matrix(_tiny_matrix(), path)
    rows = 10 ** 12
    _rewrite(path, header={0: f"{rows} 3 4 0123456789abcdef".encode(),
                           1: f"1000000 0 {rows} none".encode()})
    probe = ("import resource, sys\n"
             "resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))\n"
             "from mpisim.errors import ResourceCapError\n"
             "from mpisim.sysmat import load_system_matrix\n"
             "try:\n"
             "    load_system_matrix(sys.argv[1])\n"
             "except ResourceCapError as exc:\n"
             "    print(f'exit {exc.exit_code}: {exc}')\n")
    env = {**os.environ, "PYTHONPATH": str(Path(mpisim.__file__).parents[1]),
           "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", probe, str(path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("exit 5: ") and "memory" in proc.stdout


def test_highpass_rows_reject_a_cutoff_that_keeps_no_bin():
    # 3 rows at 1 MHz: the bins sit at 0 and +-333 kHz
    with pytest.raises(ConfigError, match="keeps no DFT bin"):
        apply_highpass_rows(_tiny_matrix(), 4e5)
    assert apply_highpass_rows(_tiny_matrix(), 3e5).highpass == 3e5


def test_load_accepts_an_unfiltered_zero_sample_rate(tmp_path):
    # what a one-sample build stores
    path = tmp_path / "sm.mat"
    save_system_matrix(replace(_tiny_matrix(), sample_rate=0.0), path)
    assert load_system_matrix(path).sample_rate == 0.0


def test_rewrite_helper_keeps_a_valid_file(tmp_path):
    path = tmp_path / "sm.mat"
    tiny = _tiny_matrix()
    save_system_matrix(tiny, path)
    _rewrite(path, header={3: b"3 1 1 0.001 0.001 0.001 0 0 0"}, val=1.0)
    back = load_system_matrix(path, expected_hash=tiny.config_hash)
    assert back.matrix.nnz == 4 and (back.matrix != tiny.matrix).nnz == 0


class _FailingCoo:
    """COO triplets whose values fail to arrive, after rows and cols did."""

    def __init__(self, coo, on_fail):
        self.nnz, self.row, self.col = coo.nnz, coo.row, coo.col
        self._on_fail = on_fail

    @property
    def data(self):
        self._on_fail()
        raise OSError("no space left on device")


def test_save_interrupted_leaves_no_partial_file(matrix_x, tmp_path):
    path = tmp_path / "sm.mat"
    during = []

    class FailingMatrix:
        shape = matrix_x.shape

        def tocoo(self):
            return _FailingCoo(matrix_x.matrix.tocoo(),
                               lambda: during.append(sorted(tmp_path.iterdir())))

    broken = replace(matrix_x, matrix=FailingMatrix())
    with pytest.raises(OSError):
        save_system_matrix(broken, path)
    # the bytes went to a temporary file beside the target, now removed
    assert len(during[0]) == 1 and during[0][0].parent == tmp_path
    assert during[0][0] != path
    assert list(tmp_path.iterdir()) == []
    # an existing matrix survives a failed overwrite untouched
    save_system_matrix(matrix_x, path)
    before = path.read_bytes()
    with pytest.raises(OSError):
        save_system_matrix(broken, path)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def test_stack_coils(scene, matrix_x):
    model, grid, config, approx = scene
    my = build_system_matrix(model, approx, coil_along("y"), config.times(),
                             grid, subsampling=2)
    tx = simulate_piecewise(model, grid, coil_along("x"), config, approx,
                            subsampling=2)
    ty = simulate_piecewise(model, grid, coil_along("y"), config, approx,
                            subsampling=2)
    stacked, rhs = stack_coils([matrix_x, my], [tx, ty])
    n = config.n_samples
    assert stacked.shape == (2 * n, grid.n_cells)
    assert stacked.coil_indices == (0, 1)
    assert np.array_equal(rhs[:n], tx.samples)
    assert np.array_equal(rhs[n:], ty.samples)
    assert (stacked.matrix[:n] != matrix_x.matrix).nnz == 0
    assert (stacked.matrix[n:] != my.matrix).nnz == 0
    with pytest.raises(ConfigError):
        stack_coils([matrix_x, my], [tx])
    short = simulate_piecewise(
        model, grid, coil_along("x"),
        AcquisitionConfig(f_d=25e3, sample_rate=1e6, duration=2e-5),
        approx, subsampling=2)
    with pytest.raises(ConfigError):
        stack_coils([matrix_x, my], [tx, short])


def test_highpass_rows_commutes(scene, matrix_x):
    model, grid, config, approx = scene
    cutoff = 35e3
    filtered = apply_highpass_rows(matrix_x, cutoff)
    assert filtered.highpass == cutoff
    assert filtered.config_hash == chain_highpass_hash(matrix_x.config_hash,
                                                       cutoff)
    assert filtered.matrix is matrix_x.matrix  # stored sparse, unfiltered
    assert matrix_x.operator() is matrix_x.matrix
    pw = simulate_piecewise(model, grid, coil_along("x"), config, approx,
                            subsampling=2)
    via_trace = apply_highpass(pw, cutoff).samples
    via_rows = filtered.operator() @ grid.flat()
    assert np.allclose(via_rows, via_trace, atol=1e-12 * max(1.0, pw.rms))
    with pytest.raises(ConfigError):
        apply_highpass_rows(matrix_x, 0.0)
    with pytest.raises(ConfigError, match="sample rate"):
        apply_highpass_rows(replace(matrix_x, sample_rate=0.0), cutoff)


def test_highpass_operator_matches_densified_oracle(matrix_x):
    cutoff = 35e3
    op = apply_highpass_rows(matrix_x, cutoff).operator()
    oracle = _densified_highpass(matrix_x, cutoff)
    rng = np.random.default_rng(4)
    x = rng.normal(size=op.shape[1])
    y = rng.normal(size=op.shape[0])
    assert op.shape == oracle.shape
    assert _rel_err(op @ x, oracle @ x) < 1e-12
    assert _rel_err(op.T @ y, oracle.T @ y) < 1e-12


def test_highpass_operator_adjoint_identity(matrix_x):
    op = apply_highpass_rows(matrix_x, 35e3).operator()
    rng = np.random.default_rng(5)
    x = rng.normal(size=op.shape[1])
    y = rng.normal(size=op.shape[0])
    fsx, stfy = op @ x, op.T @ y
    lhs, rhs = fsx @ y, x @ stfy
    scale = np.linalg.norm(fsx) * np.linalg.norm(y)
    assert abs(lhs - rhs) < 1e-12 * scale


def test_highpass_operator_keeps_coil_blocks_apart(scene, matrix_x):
    model, grid, config, approx = scene
    cutoff = 35e3
    my = build_system_matrix(model, approx, coil_along("y"), config.times(),
                             grid, subsampling=2)
    singles = [apply_highpass_rows(m, cutoff) for m in (matrix_x, my)]
    stacked, _ = stack_coils(singles, [_zero_trace(config)] * 2)
    op = stacked.operator()
    n = config.n_samples
    rng = np.random.default_rng(6)
    x = rng.normal(size=grid.n_cells)
    y = rng.normal(size=2 * n)
    fx, fty = op @ x, op.T @ y
    for i, single in enumerate(singles):
        block = slice(i * n, (i + 1) * n)
        assert _rel_err(fx[block], single.operator() @ x) < 1e-12
    want = sum(single.operator().T @ y[i * n:(i + 1) * n]
               for i, single in enumerate(singles))
    assert _rel_err(fty, want) < 1e-12


def _linear_operator_oracle(sm):
    """Oracle: F S as the scipy LinearOperator that FilteredOperator replaces.

    Same mask, same FFT calls in the same order, so results are bit-equal.
    """
    from scipy.sparse.linalg import LinearOperator

    mask = highpass_mask(sm.rows_per_coil, sm.sample_rate, sm.highpass)

    def f(y):
        y = np.reshape(y, (-1, sm.rows_per_coil))
        return np.real(np.fft.ifft(np.fft.fft(y) * mask)).ravel()

    return LinearOperator(sm.shape, matvec=lambda x: f(sm.matrix @ x),
                          rmatvec=lambda y: sm.matrix.T @ f(y), dtype=float)


@pytest.mark.parametrize("n_coils", [1, 2])
def test_filtered_operator_is_bit_equal_to_linear_operator(scene, matrix_x,
                                                           n_coils):
    model, grid, config, approx = scene
    filtered = apply_highpass_rows(matrix_x, 35e3)
    if n_coils == 2:
        my = build_system_matrix(model, approx, coil_along("y"),
                                 config.times(), grid, subsampling=2)
        filtered, _ = stack_coils(
            [filtered, apply_highpass_rows(my, 35e3)],
            [_zero_trace(config)] * 2)
    op, oracle = filtered.operator(), _linear_operator_oracle(filtered)
    assert isinstance(op, FilteredOperator)
    assert op.shape == oracle.shape and op.T.shape == oracle.T.shape
    rng = np.random.default_rng(8)
    x = rng.normal(size=op.shape[1])
    y = rng.normal(size=op.shape[0])
    assert np.array_equal(op @ x, oracle @ x)
    assert np.array_equal(op.T @ y, oracle.T @ y)
    # LSQR sees only shape, @ and .T, so both operators take the same steps
    rhs = oracle @ grid.flat()
    got = lsqr_solve(op, rhs, LsqrOptions(max_iterations=20))
    want = lsqr_solve(oracle, rhs, LsqrOptions(max_iterations=20))
    assert got.iterations == want.iterations > 0
    assert np.array_equal(got.residuals, want.residuals)
    assert np.array_equal(got.x, want.x)


def test_highpass_save_load_round_trip(matrix_x, tmp_path):
    filtered = apply_highpass_rows(matrix_x, 35e3)
    path = tmp_path / "sm_hp.bin"
    save_system_matrix(filtered, path)
    back = load_system_matrix(path, expected_hash=filtered.config_hash)
    assert back.highpass == filtered.highpass
    assert back.config_hash == filtered.config_hash
    assert back.nnz == matrix_x.nnz
    assert sp.issparse(back.matrix)
    x = np.random.default_rng(7).normal(size=filtered.shape[1])
    assert np.array_equal(back.operator() @ x, filtered.operator() @ x)


def test_stack_rejects_mixed_filtering(scene, matrix_x):
    model, grid, config, approx = scene
    my = build_system_matrix(model, approx, coil_along("y"), config.times(),
                             grid, subsampling=2)
    ty = simulate_piecewise(model, grid, coil_along("y"), config, approx,
                            subsampling=2)
    tx = simulate_piecewise(model, grid, coil_along("x"), config, approx,
                            subsampling=2)
    with pytest.raises(ConfigError):
        stack_coils([apply_highpass_rows(matrix_x, 35e3), my], [tx, ty])


@pytest.mark.parametrize("field, shift", [("grid_spacing", 1e-3),
                                          ("grid_origin", 5e-3)])
def test_stack_rejects_mixed_grid_geometry(scene, matrix_x, field, shift):
    config = scene[2]
    other = replace(matrix_x, **{
        field: tuple(v + shift for v in getattr(matrix_x, field))})
    assert other.grid_dims == matrix_x.grid_dims
    with pytest.raises(ConfigError, match="grid"):
        stack_coils([matrix_x, other], [_zero_trace(config)] * 2)

"""System-matrix assembly, hashing, persistence, and row filtering."""

import numpy as np
import pytest
import scipy.sparse as sp

from mpisim import magnetization as mag
from mpisim.errors import (
    ConfigError,
    HashMismatchError,
    MissingInputError,
    ResourceCapError,
)
from mpisim.fields import build_topology
from mpisim.forward import (
    AcquisitionConfig,
    apply_highpass,
    coil_along,
    highpass_mask,
    simulate_piecewise,
)
from mpisim.phantom import build_disc_phantom
from mpisim.sysmat import (
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


def _rel_err(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


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


def test_worker_count_does_not_change_matrix(scene, matrix_x):
    model, grid, config, approx = scene
    split = build_system_matrix(model, approx, coil_along("x"), config.times(),
                                grid, subsampling=2, n_workers=3, block=7)
    assert (split.matrix != matrix_x.matrix).nnz == 0
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
    stacked, _ = stack_coils(singles, [np.zeros(config.n_samples)] * 2)
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

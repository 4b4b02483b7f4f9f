"""System-matrix assembly, hashing, persistence, and row filtering."""

import ctypes
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import threading
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mpisim
from mpisim import errors
from mpisim import magnetization as mag
from mpisim.cli import _carried_stamp
from mpisim.errors import (
    ConfigError,
    MissingInputError,
    ResourceCapError,
)
from mpisim.fields import FieldEvaluator, build_topology, perturb_field
from mpisim.forward import (
    AcquisitionConfig,
    apply_highpass,
    coil_along,
    highpass_mask,
    simulate_piecewise,
)
from mpisim.phantom import (ConcentrationGrid, build_disc_phantom, empty_grid, load_grid,
                            matches_geometry, parse_grid_line, save_grid)
from mpisim.recon import LsqrOptions, lsqr_solve
from mpisim.sysmat import (
    CellQuadrature,
    CoilOperator,
    CsrBlock,
    SystemMatrix,
    apply_highpass_rows,
    build_system_matrices,
    build_system_matrix,
    load_system_matrices,
    load_system_matrix,
    save_system_matrix,
    stack_coils,
    staircase_slopes,
)


def _densified_highpass(sm, cutoff):
    """Oracle: filter every column of each coil block through the DFT mask.

    This is the dense, explicit F S that SystemMatrix.operator() applies
    matrix-free.
    """
    mask = highpass_mask(sm.rows_per_coil, sm.sample_rate, cutoff)
    return np.vstack([np.real(np.fft.ifft(np.fft.fft(_scipy_csr(b).toarray(), axis=0)
                                          * mask[:, None], axis=0))
                      for b in sm.blocks])


def _scipy_csr(block):
    """Oracle: a CsrBlock as scipy's own CSR of its arrays."""
    return sp.csr_matrix((block.data, block.indices, block.indptr), shape=block.shape)


def _block(csr):
    """A scipy CSR as the CsrBlock of its arrays."""
    return CsrBlock(csr.data, csr.indices, csr.indptr, csr.shape)


def _stacked(sm):
    """Oracle: sm's coil blocks stacked into one CSR by scipy."""
    return sp.vstack([_scipy_csr(b) for b in sm.blocks], format="csr")


def _coil(sm, k):
    """The k-th coil of sm as a one-coil matrix."""
    return replace(sm, blocks=sm.blocks[k:k + 1], coils=sm.coils[k:k + 1])


def _assert_same_csr(got, want, context=None):
    """Bit-equal CSR arrays, dtypes included.  A CsrBlock want is compared
    as scipy's own CSR of its arrays, so a block must hold what scipy
    would."""
    if not sp.issparse(want):
        want = _scipy_csr(want)
    for part in ("indptr", "indices", "data"):
        a, b = getattr(got, part), getattr(want, part)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (context, part)


# time blocks the invariance tests assemble with; the last is the default
_BLOCKS = (1, 7, mpisim.forward._TIME_BLOCK)


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


def _assert_matches_unpruned(model, approx, coil, acq, grid, subsampling):
    """Pruned assembly against the dense quadrature it replaces.

    The pattern must be identical.  Values may differ by the reordered
    term sum only: at most 1e-12 of the largest entry, since entries that
    cancel to far below it carry the rounding of their summands.
    """
    sm = build_system_matrix(model, approx, [coil], acq, grid, subsampling)
    quad = CellQuadrature(model, grid, subsampling)
    oracle = sp.csr_matrix(quad.weights(approx, coil.vector, acq.times()).T)
    assert oracle.nnz > 0
    [block] = sm.blocks
    assert np.array_equal(block.indptr, oracle.indptr)
    assert np.array_equal(block.indices, oracle.indices)
    scale = np.max(np.abs(oracle.data))
    assert np.max(np.abs(block.data - oracle.data)) <= 1e-12 * scale
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


# the digest matrix_x's files are saved under
_X_HASH = "0487af29816cfbdf"


@pytest.fixture(scope="module")
def matrix_x(scene):
    model, grid, config, approx = scene
    return build_system_matrix(model, approx, [coil_along("x")], config,
                               grid, subsampling=2)


def test_matrix_shape_and_metadata(scene, matrix_x):
    model, grid, config, approx = scene
    sm = matrix_x
    assert sm.shape == (config.n_samples, grid.n_cells)
    assert sm.rows_per_coil == config.n_samples
    assert sm.sample_rate == pytest.approx(config.sample_rate)
    assert sm.coils == (coil_along("x"),)
    assert matches_geometry(grid, sm.grid_dims, sm.grid_spacing, sm.grid_origin)
    assert sm.highpass is None
    assert 0 < sm.nnz < sm.shape[0] * sm.shape[1]  # staircase support is local


def test_matrix_vector_product_equals_piecewise(scene, matrix_x):
    model, grid, config, approx = scene
    [pw] = simulate_piecewise(model, grid, [coil_along("x")], config, approx,
                              subsampling=2)
    assert np.max(np.abs(matrix_x.operator() @ grid.flat() - pw.samples)) < 1e-12


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
    sm = build_system_matrix(model, approx, [coil], config, grid,
                             subsampling)
    [trace] = simulate_piecewise(model, grid, [coil], config, approx,
                                 subsampling=subsampling)
    u = trace.samples
    scale = np.max(np.abs(u))
    assert scale > 0
    assert np.max(np.abs(sm.operator() @ grid.flat() - u)) <= 1e-12 * scale


def test_pruned_matches_unpruned_static_ffl(scene):
    model, grid, config, approx = scene
    _assert_matches_unpruned(model, approx, coil_along("x"), config,
                             grid, subsampling=2)


def test_pruned_matches_unpruned_subsampling_1(scene):
    model, grid, config, approx = scene
    for axis in "xy":
        _assert_matches_unpruned(model, approx, coil_along(axis),
                                 config, grid, subsampling=1)


def test_pruned_matches_unpruned_perturbed_rotating_ffl():
    # degree 2..4 terms on every coil: the Lipschitz bound is no longer exact
    model = _desk_ffl(magnitude=0.35)
    assert {t.degree for t in model.terms} >= {2, 3, 4}
    acq = AcquisitionConfig(f_d=25e3, sample_rate=500e3, duration=1e-3)
    grid = empty_grid(0.1, 0.1 / 32)
    for b in (4e-3, 10e-3):
        _assert_matches_unpruned(model, _desk_approx(b), coil_along("y"),
                                 acq, grid, subsampling=2)


def test_pruned_matches_unpruned_3d_lissajous(scene):
    model = build_topology("lissajous_ffp", g=1.0, d=(0.012, 0.012, 0.012),
                           f=(25e3, 26e3, 27e3))
    grid = empty_grid(0.03, 0.03 / 12, nz=4, z_spacing=2.5e-3)
    assert CellQuadrature(model, grid, 2).n_sub == 8
    acq = AcquisitionConfig(f_d=25e3, sample_rate=4e6, duration=1e-4)
    _assert_matches_unpruned(model, scene[3], coil_along("z"), acq, grid,
                             subsampling=2)


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
    assert np.all(step <= quad.lipschitz(quad.evaluator.factors(times)) * quad.reach)


def test_pruned_assembly_staircases_few_values(monkeypatch):
    # a silent fall-back to dense assembly would pass every value through
    # the staircase lookup
    counted = []
    real_lookup = mpisim.sysmat.staircase_slopes

    def counting_lookup(approxes):
        lookup = real_lookup(approxes)

        def counting(mag):
            counted.append(np.size(mag))
            return lookup(mag)

        return counting

    monkeypatch.setattr(mpisim.sysmat, "staircase_slopes", counting_lookup)
    grid = empty_grid(0.1, 0.1 / 64)
    acq = AcquisitionConfig(f_d=25e3, sample_rate=400e3, duration=1e-3)
    sm = build_system_matrix(_desk_ffl(), _desk_approx(), [coil_along("x")], acq,
                             grid, subsampling=2)
    assert sm.nnz > 0
    dense_values = grid.n_cells * 4 * acq.n_samples
    assert sum(counted) <= 0.2 * dense_values


def test_worker_count_does_not_change_matrix(scene, matrix_x, monkeypatch):
    model, grid, config, approx = scene
    for workers in (1, 2, 3):
        for block in _BLOCKS:
            monkeypatch.setattr(mpisim.forward, "_TIME_BLOCK", block)
            split = build_system_matrix(model, approx, [coil_along("x")],
                                        config, grid, subsampling=2,
                                        n_workers=workers)
            _assert_same_csr(split.blocks[0], matrix_x.blocks[0], (workers, block))


def test_one_pass_equals_stacked_single_coil_builds(scene, matrix_x, monkeypatch):
    # oracle: one build per coil
    model, grid, config, approx = scene
    my = build_system_matrix(model, approx, [coil_along("y")], config,
                             grid, subsampling=2)
    assert matrix_x.nnz > 0 and my.nnz > 0
    for workers in (1, 2, 3):
        for block in _BLOCKS:
            monkeypatch.setattr(mpisim.forward, "_TIME_BLOCK", block)
            both = build_system_matrix(model, approx,
                                       [coil_along("x"), coil_along("y")],
                                       config, grid, subsampling=2,
                                       n_workers=workers)
            for i, single in enumerate((matrix_x, my)):
                _assert_same_csr(both.blocks[i], single.blocks[0], (workers, block, i))
            assert both.coils == (coil_along("x"), coil_along("y"))
            assert both.shape == (2 * config.n_samples, grid.n_cells)


def test_coil_without_signal_gets_an_empty_block(tmp_path):
    # the ideal desk FFL rotates in the z = 0 plane: <rho_z, dB/dt> is 0
    # there, so z's rows hold no entry while x's keep their own
    model, approx = _desk_ffl(), _desk_approx()
    grid = empty_grid(0.1, 0.1 / 32)
    acq = AcquisitionConfig(f_d=25e3, sample_rate=500e3, duration=1e-3)
    alone = build_system_matrix(model, approx, [coil_along("x")], acq, grid,
                                subsampling=2)
    both = build_system_matrix(model, approx, [coil_along("x"), coil_along("z")],
                               acq, grid, subsampling=2)
    assert alone.nnz > 0
    assert both.blocks[1].nnz == 0
    _assert_same_csr(both.blocks[0], alone.blocks[0])
    # loaded from their files, the coils' runs differ, so the empty coil
    # gets its own arrays
    paths = _save_coil_files(tmp_path, [_coil(both, 0), _coil(both, 1)])
    x, z = load_system_matrices(paths).blocks
    _assert_same_csr(x, alone.blocks[0])
    assert z.nnz == 0 and not np.any(z.indptr)
    assert not np.shares_memory(z.indptr, x.indptr)


def test_empty_coil_list_is_rejected(scene):
    model, grid, config, approx = scene
    with pytest.raises(ConfigError, match="coil"):
        build_system_matrix(model, approx, [], config, grid)


def test_nnz_cap_is_per_coil(scene, matrix_x, monkeypatch):
    model, grid, config, approx = scene
    coils = [coil_along("x"), coil_along("y")]
    my = build_system_matrix(model, approx, [coil_along("y")], config,
                             grid, subsampling=2)
    largest, total = max(matrix_x.nnz, my.nnz), matrix_x.nnz + my.nnz
    cap = total - 1  # above each coil's count and estimate, below their sum
    assert largest < cap
    monkeypatch.setattr(mpisim.sysmat, "NNZ_CAP", cap)
    both = build_system_matrix(model, approx, coils, config, grid, subsampling=2)
    assert both.nnz == total > cap
    monkeypatch.setattr(mpisim.sysmat, "NNZ_CAP", min(matrix_x.nnz, my.nnz) - 1)
    with pytest.raises(ResourceCapError, match="one coil"):
        build_system_matrix(model, approx, coils, config, grid, subsampling=2)


def _sweep_staircases():
    """Staircases that differ in b, N, scheme and node placement; the
    largest b is not first."""
    params = mag.LangevinParams(m0=1.0, lam=1600.0)
    return [
        mag.build_approx(params, mag.nodes_equidistant(29, 4e-3), 4e-3),
        mag.build_approx(params, mag.nodes_equidistant(7, 10e-3), 10e-3),
        mag.build_approx(params, mag.nodes_equidistant(29, 7e-3), 7e-3,
                         scheme="tangent"),
        mag.build_approx(params, mag.nodes_l1_optimal(7, 10e-3, params,
                                                      scheme="tangent"),
                         10e-3, scheme="tangent"),
    ]


@pytest.mark.parametrize("magnitude", [0.0, 0.35])  # ideal, perturbed desk field
def test_one_pass_per_staircase_equals_fresh_builds(magnitude, monkeypatch):
    # oracle: one build_system_matrix per staircase
    model, approxes = _desk_ffl(magnitude), _sweep_staircases()
    grid = empty_grid(0.1, 0.1 / 32)
    acq = AcquisitionConfig(f_d=25e3, sample_rate=100e3, duration=1e-3)
    coils = [coil_along("x"), coil_along("y")]
    fresh = [build_system_matrix(model, approx, coils, acq, grid, subsampling=2)
             for approx in approxes]
    assert min(sm.nnz for sm in fresh) > 0
    for workers in (1, 2, 3):
        for block in _BLOCKS:
            monkeypatch.setattr(mpisim.forward, "_TIME_BLOCK", block)
            many = build_system_matrices(model, approxes, coils, acq, grid,
                                         subsampling=2, n_workers=workers)
            assert len(many) == len(fresh)
            for i, (got, want) in enumerate(zip(many, fresh)):
                for k, (a, b) in enumerate(zip(got.blocks, want.blocks, strict=True)):
                    _assert_same_csr(a, b, (workers, block, i, k))
                assert got.coils == want.coils


def test_contiguous_sub_point_table_equals_the_strided_view():
    # oracle: the evaluator's polys read in place through a transposed view
    model = _desk_ffl(0.35)
    grid = empty_grid(0.1, 0.1 / 32)
    times = AcquisitionConfig(f_d=25e3, sample_rate=100e3, duration=1e-3).times()
    quad = CellQuadrature(model, grid, subsampling=2)
    table = quad._sub_polys
    assert table.flags.c_contiguous
    approxes = _sweep_staircases()[:2]
    rhos = [coil_along("x").vector, coil_along("y").vector]
    fast = quad.sparse_weights(approxes, rhos, times)
    quad._sub_polys = quad.evaluator.polys.T.reshape(
        quad.n_cells, quad.n_sub, len(quad.evaluator.harmonics))
    assert not quad._sub_polys.flags.c_contiguous
    assert np.array_equal(quad._sub_polys, table)
    slow = quad.sparse_weights(approxes, rhos, times)
    for i, k in np.ndindex(len(approxes), len(rhos)):
        assert fast[i][k][0].size > 0
        # values, cells and per-time counts
        for part, (got, want) in enumerate(zip(fast[i][k], slow[i][k])):
            assert np.array_equal(got, want), (i, k, part)


def _all_center_survivors(quad, fac, limit):
    """Oracle: |B| at every cell center at every time, against limit[t]."""
    b_c = quad._center_polys @ fac
    mag_c = np.sqrt(np.einsum("jpt,jpt->pt", b_c, b_c))
    tidx, cells = divmod(np.flatnonzero((mag_c < limit).T), quad.n_cells)
    return tidx, cells.astype(np.int32)


def _assert_tiles_match_all_centers(quad, approxes, rhos, times):
    """Tiled center tests against the all-centers oracle: the same survivors
    in the same order, and bit-equal CSR pieces."""
    tiled = quad.sparse_weights(approxes, rhos, times)
    pairs = []

    def all_centers(fac, limit):
        want = _all_center_survivors(quad, fac, limit)
        pairs.append((want, CellQuadrature.center_survivors(quad, fac, limit)))
        return *want, quad.n_cells * fac.shape[2]

    quad.center_survivors = all_centers
    try:
        oracle = quad.sparse_weights(approxes, rhos, times)
    finally:
        del quad.center_survivors
    [((want_t, want_c), (got_t, got_c, _))] = pairs
    assert want_t.size > 0
    assert np.array_equal(got_t, want_t)
    assert got_c.dtype == np.int32 and np.array_equal(got_c, want_c)
    for i, k in np.ndindex(len(approxes), len(rhos)):
        for part, (got, want) in enumerate(zip(tiled[i][k], oracle[i][k])):
            assert np.array_equal(got, want), (i, k, part)


def _tiling_scene(name, static_scene):
    """(CellQuadrature, staircases, coil vectors, times) of a named scene."""
    xy = [coil_along("x").vector, coil_along("y").vector]
    if name in ("static_ffl", "subsampling_1"):
        model, grid, config, approx = static_scene
        quad = CellQuadrature(model, grid, 2 if name == "static_ffl" else 1)
        return quad, [approx], xy, config.times()
    if name == "lissajous_3d":
        model = build_topology("lissajous_ffp", g=1.0, d=(0.012, 0.012, 0.012),
                               f=(25e3, 26e3, 27e3))
        grid = empty_grid(0.03, 0.03 / 12, nz=4, z_spacing=2.5e-3)
        acq = AcquisitionConfig(f_d=25e3, sample_rate=4e6, duration=1e-4)
        return (CellQuadrature(model, grid, 2), [static_scene[3]],
                [*xy, coil_along("z").vector], acq.times())
    magnitude = float(name.removeprefix("perturbed_"))
    acq = AcquisitionConfig(f_d=25e3, sample_rate=500e3, duration=1e-3)
    return (CellQuadrature(_desk_ffl(magnitude), empty_grid(0.1, 0.1 / 32), 2),
            _sweep_staircases()[:2], xy, acq.times())


@pytest.mark.parametrize("name", ["static_ffl", "subsampling_1", "perturbed_0.35",
                                  "perturbed_3", "lissajous_3d"])
def test_tiled_pruning_equals_the_all_centers_test(scene, name):
    quad, approxes, rhos, times = _tiling_scene(name, scene)
    _assert_tiles_match_all_centers(quad, approxes, rhos, times)


@pytest.mark.parametrize("magnitude", ["0.35", "3"])
@pytest.mark.parametrize("span", ["one time", "remainder tile", "probe times"])
def test_tiled_pruning_on_short_and_scattered_spans(scene, magnitude, span):
    # the probe times are build_system_matrices' nnz estimate: one tile
    # whose times lie far apart
    quad, approxes, rhos, times = _tiling_scene(f"perturbed_{magnitude}", scene)
    if span == "one time":
        times = times[250:251]
    elif span == "remainder tile":
        times = times[240:253]
    else:
        times = times[np.unique(np.linspace(0, times.size - 1, 8).astype(int))]
    _assert_tiles_match_all_centers(quad, approxes, rhos, times)


def test_tiled_pruning_evaluates_few_centers(monkeypatch):
    # the desk scene at its 4 MHz sample rate: one test per tile of 8 plus
    # the candidates' exact |B| stay below 40% of every center at every time
    counted = []
    tiled = CellQuadrature.center_survivors

    def counting(self, fac, limit):
        out = tiled(self, fac, limit)
        counted.append(out[2])
        return out

    monkeypatch.setattr(CellQuadrature, "center_survivors", counting)
    grid = empty_grid(0.1, 0.1 / 64)
    acq = AcquisitionConfig(f_d=25e3, sample_rate=4e6, duration=2.5e-4)
    sm = build_system_matrix(_desk_ffl(), _desk_approx(), [coil_along("x")], acq,
                             grid, subsampling=2)
    assert sm.nnz > 0
    assert len(counted) > 1  # the nnz estimate, then the blocks
    assert sum(counted) <= 0.4 * grid.n_cells * acq.n_samples


def test_sparse_weights_are_the_csr_of_the_dense_weights():
    # oracle: the unpruned quadrature; values, int32 cells, per-time counts
    model, approxes = _desk_ffl(0.35), _sweep_staircases()[:2]
    grid = empty_grid(0.1, 0.1 / 16)
    times = AcquisitionConfig(f_d=25e3, sample_rate=100e3, duration=1e-3).times()
    quad = CellQuadrature(model, grid, subsampling=2)
    rhos = [coil_along("x").vector, coil_along("y").vector]
    pieces = quad.sparse_weights(approxes, rhos, times)
    for i, k in np.ndindex(len(approxes), len(rhos)):
        vals, cells, counts = pieces[i][k]
        oracle = sp.csr_matrix(quad.weights(approxes[i], rhos[k], times).T)
        assert cells.dtype == np.int32 and counts.size == times.size
        assert np.array_equal(np.concatenate([[0], np.cumsum(counts)]), oracle.indptr)
        assert np.array_equal(cells, oracle.indices)
        assert np.max(np.abs(vals - oracle.data)) <= 1e-12 * np.max(np.abs(oracle.data))


def test_staircase_slopes_equal_each_eval():
    # oracle: each staircase's own eval; the ladders share 0, 10 mT and the
    # nodes of the coarser 10 mT ladder, which are nodes of the finer one
    params = mag.LangevinParams(m0=1.0, lam=1600.0)
    approxes = [*_sweep_staircases(),
                mag.build_approx(params, mag.nodes_equidistant(3, 10e-3), 10e-3)]
    ladders = [set(approx.ladder) for approx in approxes]
    assert len(ladders[1] & ladders[4]) > 2
    edges = np.unique(np.concatenate([approx.ladder for approx in approxes]))
    x = np.concatenate([
        [0.0, np.nan, np.inf, 1.0], edges, np.nextafter(edges, np.inf),
        np.nextafter(edges[1:], 0.0), [2 * approx.threshold for approx in approxes],
        np.random.default_rng(3).uniform(0.0, 12e-3, 1001)])
    for values in (x, x.reshape(-1, 1)):
        for group in (approxes, approxes[:1], approxes[2:]):
            got = list(staircase_slopes(group)(values))
            assert len(got) == len(group)
            for approx, slopes in zip(group, got):
                assert slopes.shape == values.shape
                assert np.array_equal(slopes, approx.eval(values))


# sha256 of indptr (<i8), indices (<i4) and data (<f8) of both staircases'
# two-coil matrices, recorded on the assembly that built one scipy CSR per
# block and coil and stacked them with sp.vstack
_PINNED_BUILD = "7496a357be6f2ef2d8100d0dc5e46398b91d628cb6b63fc41bef36230a0fef57"


def test_assembled_bytes_are_pinned(monkeypatch):
    _assert_pinned_build(monkeypatch)


def _assert_pinned_build(monkeypatch):
    model, approxes = _desk_ffl(0.35), _sweep_staircases()[:2]
    grid = empty_grid(0.1, 0.1 / 32)
    acq = AcquisitionConfig(f_d=25e3, sample_rate=100e3, duration=1e-3)
    coils = [coil_along("x"), coil_along("y")]
    for workers, block in ((1, 64), (2, 7)):
        monkeypatch.setattr(mpisim.forward, "_TIME_BLOCK", block)
        digest = hashlib.sha256()
        for sm in build_system_matrices(model, approxes, coils, acq, grid,
                                        subsampling=2, n_workers=workers):
            for part, dtype in (("indptr", "<i8"), ("indices", "<i4"), ("data", "<f8")):
                digest.update(np.ascontiguousarray(getattr(_stacked(sm), part),
                                                   dtype).tobytes())
        assert digest.hexdigest() == _PINNED_BUILD, (workers, block)


def _pool_threads():
    return {t for t in threading.enumerate() if t.name.startswith("ThreadPoolExecutor")}


@pytest.mark.parametrize("to_files", [False, True])
def test_build_releases_the_heap_once_its_workers_are_gone(scene, tmp_path, monkeypatch,
                                                           to_files):
    # one release, after the pool is joined and every file written, and
    # before an in-memory build loads its files back
    model, grid, config, approx = scene
    coils = [coil_along("x"), coil_along("y")]
    files = [(tmp_path / f"{axis}.mat", "0123456789abcdef") for axis in "xy"]
    before = _pool_threads()
    events = []

    def release():
        written = len(list(tmp_path.rglob("*.mat")))
        events.append(("release", _pool_threads() - before, written))

    def loading(paths):
        events.append(("load", len(paths)))
        return real(paths)

    def working(self, *args):
        events.append(("block", threading.current_thread().name))
        return sparse_weights(self, *args)

    real, sparse_weights = load_system_matrices, CellQuadrature.sparse_weights
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setattr(mpisim.sysmat, "release_heap", release)
    monkeypatch.setattr(mpisim.sysmat, "load_system_matrices", loading)
    monkeypatch.setattr(CellQuadrature, "sparse_weights", working)
    monkeypatch.setattr(mpisim.forward, "_TIME_BLOCK", 4)
    build_system_matrix(model, approx, coils, config, grid, subsampling=2, n_workers=2,
                        files=files if to_files else None)
    blocks = [e[1] for e in events if e[0] == "block"]
    assert len(blocks) == 1 + config.n_samples // 4  # the probe, then the blocks
    assert any(name.startswith("ThreadPoolExecutor") for name in blocks)
    rest = [e for e in events if e[0] != "block"]
    assert rest == [("release", set(), 2)] + ([] if to_files else [("load", 2)])


@pytest.mark.parametrize("libc", [None, object()], ids=["no libc", "no malloc_trim"])
def test_release_heap_without_malloc_trim_does_nothing(monkeypatch, libc):
    def cdll(name):
        if libc is None:
            raise OSError("no C library")
        return libc

    errors._malloc_trim.cache_clear()
    try:
        monkeypatch.setattr(ctypes, "CDLL", cdll)
        assert errors._malloc_trim() is None
        errors.release_heap()
        _assert_pinned_build(monkeypatch)
    finally:
        errors._malloc_trim.cache_clear()


@pytest.mark.parametrize("subsampling", [1, 2])
def test_streamed_files_equal_the_build_in_memory(tmp_path, subsampling, monkeypatch):
    # oracle: the in-memory build of the pinned scene, saved coil by coil;
    # every streamed file loads bit-equal to its CSR rows and is byte-equal
    # to its saved file, whatever the worker count and block size
    model, approxes = _desk_ffl(0.35), _sweep_staircases()[:2]
    grid = empty_grid(0.1, 0.1 / 32)
    acq = AcquisitionConfig(f_d=25e3, sample_rate=100e3, duration=1e-3)
    coils = [coil_along("x"), coil_along("y")]
    held = build_system_matrices(model, approxes, coils, acq, grid, subsampling)
    digests = [[f"{i}{k}".zfill(16) for k in range(len(coils))]
               for i in range(len(approxes))]
    saved = {}
    for i, sm in enumerate(held):
        for k in range(len(coils)):
            saved[i, k] = tmp_path / f"saved_{i}{k}.mat"
            save_system_matrix(_coil(sm, k), saved[i, k], digests[i][k])
    for workers, block in ((1, 64), (2, 7), (1, 7), (2, 64)):
        monkeypatch.setattr(mpisim.forward, "_TIME_BLOCK", block)
        files = [[(tmp_path / f"stream_{i}{k}.mat", digest) for k, digest in enumerate(row)]
                 for i, row in enumerate(digests)]
        stored = build_system_matrices(model, approxes, coils, acq, grid, subsampling,
                                       n_workers=workers, files=files)
        for i, (sm, record) in enumerate(zip(held, stored)):
            assert record.shape == sm.shape and record.nnz == sm.nnz
            paths = [path for path, _ in files[i]]
            assert list(record.paths) == paths
            loaded = load_system_matrices(paths)
            assert [_carried_stamp(path) for path in paths] == digests[i]
            for k, path in enumerate(paths):
                _assert_same_csr(loaded.blocks[k], sm.blocks[k], (workers, block, i, k))
                assert record.coil_nnz[k] == sm.blocks[k].nnz
                assert path.read_bytes() == saved[i, k].read_bytes(), (workers, block, i, k)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            [p.name for p in saved.values()] + [p.name for row in files for p, _ in row])


def test_streamed_build_holds_no_matrix(tmp_path):
    # 4000 rows in blocks of 64: holding the matrix, as the in-memory build
    # does, would take its data and indices at least; streaming holds the
    # runs and a few blocks
    acq = AcquisitionConfig(f_d=25e3, sample_rate=1e6, duration=4e-3)
    args = (_desk_ffl(), _desk_approx(20e-3), [coil_along("x")], acq,
            empty_grid(0.1, 0.1 / 32))
    path = tmp_path / "sm.mat"
    tracemalloc.start()
    try:
        stored = build_system_matrix(*args, files=[(path, _X_HASH)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    [held] = load_system_matrix(path).blocks
    assert held.nnz == stored.nnz > 500_000
    assert peak < (held.data.nbytes + held.indices.nbytes) / 2


def test_empty_staircase_list_is_rejected(scene):
    model, grid, config, approx = scene
    with pytest.raises(ConfigError, match="staircase"):
        build_system_matrices(model, [], [coil_along("x")], config, grid)


def test_nnz_cap_is_per_staircase_and_coil(monkeypatch):
    model, approxes = _desk_ffl(), _sweep_staircases()[:2]  # 4 mT and 10 mT
    grid = empty_grid(0.1, 0.1 / 32)
    acq = AcquisitionConfig(f_d=25e3, sample_rate=500e3, duration=1e-3)
    coils = [coil_along("x"), coil_along("y")]
    counts = [build_system_matrix(model, approx, [coil], acq, grid,
                                  subsampling=2).nnz
              for approx in approxes for coil in coils]
    # above every (staircase, coil) count, below any sum of two of them
    monkeypatch.setattr(mpisim.sysmat, "NNZ_CAP", max(counts) + min(counts) - 1)
    many = build_system_matrices(model, approxes, coils, acq, grid, subsampling=2)
    assert [sm.nnz for sm in many] == [counts[0] + counts[1],
                                       counts[2] + counts[3]]
    monkeypatch.setattr(mpisim.sysmat, "NNZ_CAP", min(counts) - 1)
    with pytest.raises(ResourceCapError, match="one coil"):
        build_system_matrices(model, approxes, coils, acq, grid, subsampling=2)


def _counting_sparse_weights(monkeypatch):
    """Count CellQuadrature.sparse_weights calls and the results alive at once.

    A result is alive until its first value array is freed; all of its
    arrays go together.
    """
    real = CellQuadrature.sparse_weights
    stats = {"calls": 0, "alive": 0, "most": 0}
    lock = threading.Lock()

    def freed():
        with lock:
            stats["alive"] -= 1

    def counting(self, approxes, rhos, times):
        out = real(self, approxes, rhos, times)
        with lock:
            stats["calls"] += 1
            stats["alive"] += 1
            stats["most"] = max(stats["most"], stats["alive"])
        weakref.finalize(out[0][0][0], freed)
        return out

    monkeypatch.setattr(CellQuadrature, "sparse_weights", counting)
    return stats


@pytest.mark.parametrize("workers", [1, 2])
def test_assembly_holds_a_window_of_blocks(scene, monkeypatch, workers):
    model, grid, config, approx = scene
    coils = [coil_along("x"), coil_along("y")]
    oracle = build_system_matrix(model, approx, coils, config, grid, subsampling=2)
    stats = _counting_sparse_weights(monkeypatch)
    monkeypatch.setattr(mpisim.forward, "_TIME_BLOCK", 2)
    sm = build_system_matrix(model, approx, coils, config, grid, subsampling=2,
                             n_workers=workers)
    for got, want in zip(sm.blocks, oracle.blocks, strict=True):
        _assert_same_csr(got, want)
    assert stats["calls"] == 1 + config.n_samples // 2  # the probe, then 20 blocks
    # the window of map_time_blocks, plus the block the build still holds
    assert stats["most"] <= 2 * workers + 1
    assert stats["alive"] == 0


@pytest.mark.parametrize("workers", [1, 2])
def test_nnz_cap_stops_the_build_at_its_running_count(scene, matrix_x, monkeypatch,
                                                      workers):
    # an estimate under the cap lets assembly start; the count that passes it
    # stops the build long before its last block, and its pool with it
    model, grid, config, approx = scene
    monkeypatch.setattr(mpisim.sysmat, "_estimate_nnz", lambda *args: 0)
    monkeypatch.setattr(mpisim.sysmat, "NNZ_CAP", matrix_x.nnz // 2)
    stats = _counting_sparse_weights(monkeypatch)
    monkeypatch.setattr(mpisim.forward, "_TIME_BLOCK", 1)
    before = _pool_threads()
    with pytest.raises(ResourceCapError, match="one coil"):
        build_system_matrix(model, approx, [coil_along("x")], config, grid,
                            subsampling=2, n_workers=workers)
    assert stats["calls"] < 0.75 * config.n_samples
    assert _pool_threads() <= before


def test_build_in_memory_leaves_no_file(scene, matrix_x, tmp_path, monkeypatch):
    # the build streams into a temporary directory and loads its files
    # back; the directory goes when the build ends and when it stops
    model, grid, config, approx = scene
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(tmp))
    loaded = []
    real = mpisim.sysmat.load_system_matrices

    def recording(paths, *args, **kwargs):
        assert all(Path(path).parent.parent == tmp for path in paths)
        loaded.append(paths)
        return real(paths, *args, **kwargs)

    monkeypatch.setattr(mpisim.sysmat, "load_system_matrices", recording)
    coils = [coil_along("x"), coil_along("y")]
    both = build_system_matrix(model, approx, coils, config, grid, subsampling=2)
    _assert_same_csr(both.blocks[0], matrix_x.blocks[0])
    assert len(loaded) == 1 and len(loaded[0]) == 2
    assert list(tmp.iterdir()) == []
    monkeypatch.setattr(mpisim.sysmat, "_estimate_nnz", lambda *args: 0)
    monkeypatch.setattr(mpisim.sysmat, "NNZ_CAP", matrix_x.nnz // 2)
    monkeypatch.setattr(mpisim.forward, "_TIME_BLOCK", 1)
    with pytest.raises(ResourceCapError, match="one coil"):
        build_system_matrix(model, approx, coils, config, grid, subsampling=2)
    assert len(loaded) == 1
    assert list(tmp.iterdir()) == []


def test_coils_whose_runs_agree_share_indices_in_memory(matrix_xyz):
    # the x and y coils of the scene have one pattern, z an empty one
    x, y, z = matrix_xyz.blocks
    assert x.nnz > 0 and z.nnz == 0
    assert np.shares_memory(x.indices, y.indices)
    assert np.shares_memory(x.indptr, y.indptr)
    assert not np.shares_memory(x.data, y.data)
    assert not np.shares_memory(x.indptr, z.indptr)


@pytest.mark.parametrize("case", ["one path", "an alias", "two staircases",
                                  "a short row", "a long row", "a missing row",
                                  "bad digest"])
def test_build_files_are_checked_before_any_is_opened(scene, tmp_path, case):
    # two writers of one path would share its spill file, and the file
    # would load with one coil's header and the other's values
    model, grid, config, approx = scene
    out = tmp_path / "out"
    out.mkdir()
    (tmp_path / "alias").symlink_to(out, target_is_directory=True)
    coils = [coil_along("x"), coil_along("y")]
    x, y, z = (out / f"{axis}.mat" for axis in "xyz")
    twice, off = "given to two", r"for \d coil\(s\)"
    n_staircases, files, message = {  # a row of (path, digest) per staircase
        "one path": (1, [[(x, _X_HASH), (x, _X_HASH)]], twice),
        "an alias": (1, [[(x, _X_HASH), (tmp_path / "alias" / "x.mat", _X_HASH)]],
                     twice),
        "two staircases": (2, [[(x, _X_HASH), (y, _X_HASH)],
                               [(z, _X_HASH), (y, _X_HASH)]], twice),
        "a short row": (1, [[(x, _X_HASH)]], off),
        "a long row": (1, [[(x, _X_HASH), (y, _X_HASH), (z, _X_HASH)]], off),
        "a missing row": (2, [[(x, _X_HASH), (y, _X_HASH)]], "for 2 staircase"),
        "bad digest": (1, [[(x, _X_HASH), (y, "NOT-A-DIGEST")]], "not 16 hex digits"),
    }[case]
    with pytest.raises(ConfigError, match=message):
        build_system_matrices(model, [approx] * n_staircases, coils, config, grid,
                              subsampling=2, files=files)
    assert list(out.iterdir()) == []


def test_nnz_cap(scene, monkeypatch):
    # the cap is read when the build runs, by the estimate and by the running
    # count alike, not bound as a default when the module loads
    model, grid, config, approx = scene
    monkeypatch.setattr(mpisim.sysmat, "NNZ_CAP", 100)
    with pytest.raises(ResourceCapError, match="estimated .* cap of 100;"):
        build_system_matrix(model, approx, [coil_along("x")], config,
                            grid, subsampling=2)
    monkeypatch.setattr(mpisim.sysmat, "_estimate_nnz", lambda *args: 0)
    with pytest.raises(ResourceCapError, match="assembled .* over the cap of 100$"):
        build_system_matrix(model, approx, [coil_along("x")], config,
                            grid, subsampling=2)


def test_save_load_round_trip(scene, matrix_x, tmp_path):
    path = tmp_path / "sm.mat"
    save_system_matrix(matrix_x, path, _X_HASH)
    back = load_system_matrix(path)
    assert _carried_stamp(path) == _X_HASH
    _assert_same_csr(back.blocks[0], matrix_x.blocks[0])
    assert back.rows_per_coil == matrix_x.rows_per_coil
    assert back.coils == matrix_x.coils
    assert back.grid_dims == matrix_x.grid_dims
    assert back.highpass is None
    # a matrix with no nonzeros is a row pointer of zeros and nothing else
    empty = replace(matrix_x, blocks=(_block(sp.csr_matrix(matrix_x.shape)),))
    save_system_matrix(empty, path, _X_HASH)
    back = load_system_matrix(path)
    assert back.shape == matrix_x.shape and back.nnz == 0
    assert np.array_equal(back.blocks[0].indptr, np.zeros(matrix_x.shape[0] + 1))


def test_load_hash_mismatch_and_force(scene, matrix_x, tmp_path):
    # the loader compares no hash, so it has nothing to force: a stage's
    # Workspace.check judges the hash (test_exit_codes in test_cli); the
    # loader still rejects a missing or truncated file
    path = tmp_path / "sm.bin"
    save_system_matrix(matrix_x, path, _X_HASH)
    with pytest.raises(MissingInputError):
        load_system_matrix(tmp_path / "absent.bin")
    data = path.read_bytes()
    (tmp_path / "cut.bin").write_bytes(data[:-8])
    with pytest.raises(ConfigError):
        load_system_matrix(tmp_path / "cut.bin")


_TINY_HASH = "0123456789abcdef"


def _tiny_matrix():
    dense = np.array([[1.0, 0.0, 2.0], [0.0, 3.0, 0.0], [0.0, 0.0, 4.0]])
    return SystemMatrix(blocks=(_block(sp.csr_matrix(dense)),), sample_rate=1e6,
                        t0=0.0, rows_per_coil=3, coils=(coil_along("x"),),
                        grid_dims=(3, 1, 1), grid_spacing=(1e-3, 1e-3, 1e-3),
                        grid_origin=(0.0, 0.0, 0.0))


def _rewrite(path, header=None, **parts):
    """Replace header lines (by index) and payload arrays of a stored matrix.

    parts maps run_ptr, starts, lengths or data to a list, which replaces
    the whole array, or to a scalar, which replaces its first entry.  The
    payload is split by the header the matrix was saved with.
    """
    lines = path.read_bytes().split(b"\n", 4)
    payload = lines.pop()
    rows, _, nnz, _, _, n_runs = lines[0].split()
    for i, text in (header or {}).items():
        lines[i] = text
    layout = {"run_ptr": (int(rows) + 1, "<i8"), "starts": (int(n_runs), "<i4"),
              "lengths": (int(n_runs), "<i4"), "data": (int(nnz), "<f8")}
    arrays, offset = {}, 0
    for name, (count, dt) in layout.items():
        arrays[name] = np.frombuffer(payload, dt, count, offset).copy()
        offset += arrays[name].nbytes
    for name, new in parts.items():
        if np.ndim(new):
            arrays[name] = np.asarray(new, layout[name][1])
        else:
            arrays[name][0] = new
    path.write_bytes(b"\n".join(lines) + b"\n"
                     + b"".join(a.tobytes() for a in arrays.values()))


@pytest.mark.parametrize("header", [
    {0: b"3 3 four 0123456789abcdef runs 4"},
    {0: b"3 3 4"},
    {0: b"-3 3 4 0123456789abcdef runs 4"},
    {1: b"1e6 0"},
    {1: b"1e6 0 3 35000 0"},
    {1: b"fast 0 3"},
    {2: b"0:1,0"},
    {2: b"0=1,0,0"},
    {3: b"3 1 1 0.001 0.001 0.001 0 0"},
    {0: b"\xff\xfe 3 4 0123456789abcdef runs 4"},
    # impossible metadata: sample rate, t0 and rows per coil
    {1: b"nan 0 3"},
    {1: b"inf 0 3"},
    {1: b"-1e6 0 3"},
    {1: b"1e6 nan 3"},
    {1: b"1e6 -inf 3"},
    {1: b"1e6 inf 3"},
    {1: b"0 0 3"},
    {1: b"1e6 0 3.5"},
    {1: b"1e6 0 -3"},
    # line 1 as older files wrote it, ending in a high-pass cut-off or none
    {1: b"1e6 0 3 none"},
    # rows against rows_per_coil and the coils
    {0: b"4 3 4 0123456789abcdef runs 4"},
    {0: b"0 3 4 0123456789abcdef runs 4", 1: b"1e6 0 0"},
    {1: b"1e6 0 2"},
    {2: b"0:1,0,0 1:0,1,0"},
    {2: b""},
    {2: b"0:nan,0,0"},
    {2: b"0:1,inf,0"},
    {2: b"0:0,0,0"},
    # grid dims against the columns, spacing and origin
    {3: b"-3 -1 1 0.001 0.001 0.001 0 0 0"},
    {3: b"2 1 1 0.001 0.001 0.001 0 0 0"},
    {3: b"3 1 1 0 0.001 0.001 0 0 0"},
    {3: b"3 1 1 0.001 -0.001 0.001 0 0 0"},
    {3: b"3 1 1 0.001 0.001 nan 0 0 0"},
    {3: b"3 1 1 0.001 0.001 inf 0 0 0"},
    {3: b"3 1 1 0.001 0.001 0.001 nan 0 0"},
    {3: b"3 1 1 0.001 0.001 0.001 0 0 -inf"},
    # line 0 without the runs layout token: the old triplet layout, or another
    {0: b"3 3 4 0123456789abcdef"},
    {0: b"3 3 4 0123456789abcdef coo"},
    # the csr layout, and run counts that are missing, malformed or impossible
    {0: b"3 3 4 0123456789abcdef csr"},
    {0: b"3 3 4 0123456789abcdef runs"},
    {0: b"3 3 4 0123456789abcdef runs four"},
    {0: b"3 3 4 0123456789abcdef runs -4"},
    {0: b"3 3 4 0123456789abcdef runs 4 4"},
    {0: b"3 3 4 0123456789abcdef runs 5"},
    {0: b"3 3 4 0123456789abcdef runs 0"},
    # more columns than int32 indices address
    {0: b"3 2147483648 4 0123456789abcdef runs 4",
     3: b"2147483648 1 1 0.001 0.001 0.001 0 0 0"},
])
def test_load_rejects_malformed_header(tmp_path, header):
    path = tmp_path / "sm.mat"
    save_system_matrix(_tiny_matrix(), path, _TINY_HASH)
    _rewrite(path, header=header)
    with pytest.raises(ConfigError, match="malformed header"):
        load_system_matrix(path)


def test_a_matrix_grid_line_is_a_grid_file_header(tmp_path):
    # phantom.grid_line writes both, and parse_grid_line reads both back
    sm = replace(_tiny_matrix(), grid_spacing=(1e-3 / 3, 0.1, 2.5e-3),
                 grid_origin=(-1 / 7, 0.0, 1e-9))
    save_system_matrix(sm, tmp_path / "sm.mat", _TINY_HASH)
    save_grid(ConcentrationGrid(np.zeros(sm.grid_dims), sm.grid_spacing, sm.grid_origin),
              tmp_path / "sm.grid", comments=[f"stamp {_TINY_HASH}"])
    line = (tmp_path / "sm.mat").read_bytes().split(b"\n")[3]
    assert (tmp_path / "sm.grid").read_bytes().split(b"\n")[1] == line
    assert parse_grid_line(line.decode()) == (sm.grid_dims, sm.grid_spacing,
                                              sm.grid_origin)
    back = load_system_matrix(tmp_path / "sm.mat")
    assert (back.grid_dims, back.grid_spacing, back.grid_origin) == (
        sm.grid_dims, sm.grid_spacing, sm.grid_origin)


# malformed grid lines of a 3x1x1 grid, and what parse_grid_line says of each
BAD_GRID_LINES = {
    "8_fields": (b"3 1 1 0.001 0.001 0.001 0 0", "needs 9 fields, got 8"),
    "zero_dim": (b"3 0 1 0.001 0.001 0.001 0 0 0", "must be positive"),
    "non_integer_dim": (b"3 1.5 1 0.001 0.001 0.001 0 0 0", "invalid literal"),
    "nan_spacing": (b"3 1 1 nan 0.001 0.001 0 0 0", "finite and positive"),
    "inf_spacing": (b"3 1 1 0.001 inf 0.001 0 0 0", "finite and positive"),
    "zero_spacing": (b"3 1 1 0.001 0.001 0 0 0 0", "finite and positive"),
    "inf_origin": (b"3 1 1 0.001 0.001 0.001 0 inf 0", "origin finite"),
}


@pytest.mark.parametrize("line, message", BAD_GRID_LINES.values(), ids=BAD_GRID_LINES)
@pytest.mark.parametrize("kind", ["grid", "matrix"])
def test_both_formats_reject_a_malformed_grid_line(tmp_path, kind, line, message):
    # a .grid header and a matrix header's line 3 go through the one parser
    path = tmp_path / f"sm.{kind}"
    if kind == "grid":
        save_grid(ConcentrationGrid(np.ones((3, 1, 1)), (1e-3,) * 3, (0, 0, 0)), path,
                  comments=[f"stamp {_TINY_HASH}"])
        head, _, payload = path.read_bytes().split(b"\n", 2)
        path.write_bytes(b"\n".join([head, line, payload]))
    else:
        save_system_matrix(_tiny_matrix(), path, _TINY_HASH)
        _rewrite(path, header={3: line})
    with pytest.raises(ConfigError, match=f"malformed .*header: .*{message}") as exc:
        (load_grid if kind == "grid" else load_system_matrix)(path)
    assert exc.value.exit_code == 2


# the tiny matrix is stored as run_ptr [0, 2, 3, 4], starts [0, 2, 1, 2]
# and lengths [1, 1, 1, 1]
@pytest.mark.parametrize("col", [3, -1])
def test_load_rejects_out_of_range_indices(tmp_path, col):
    path = tmp_path / "sm.mat"
    save_system_matrix(_tiny_matrix(), path, _TINY_HASH)
    _rewrite(path, starts=col)
    with pytest.raises(ConfigError, match="outside the 3x3 shape"):
        load_system_matrix(path)


@pytest.mark.parametrize("run_ptr", [[1, 2, 3, 4], [0, 3, 2, 4], [0, 2, 3, 3]],
                         ids=["starts_at_1", "decreasing", "ends_below_nnz"])
def test_load_rejects_a_bad_row_pointer(tmp_path, run_ptr):
    path = tmp_path / "sm.mat"
    save_system_matrix(_tiny_matrix(), path, _TINY_HASH)
    _rewrite(path, run_ptr=run_ptr)
    with pytest.raises(ConfigError, match="row pointer"):
        load_system_matrix(path)


@pytest.mark.parametrize("parts, message", [
    ({"lengths": 0}, "at least 1"),
    ({"lengths": -1}, "at least 1"),
    ({"starts": -1}, "outside the 3x3 shape"),
    ({"lengths": [1, 2, 1, 1]}, "outside the 3x3 shape"),
    ({"starts": [0, 1, 1, 2]}, "at least 2 past"),
    ({"starts": [2, 0, 1, 2]}, "at least 2 past"),
    ({"lengths": [1, 1, 2, 1]}, "sum to more than 4"),
    ({"header": {0: b"3 3 5 0123456789abcdef runs 4"}, "data": [1.0] * 5},
     "sum to 4, not 5"),
    ({"run_ptr": [0, 1, 3, 4]}, "at least 2 past"),
], ids=["length_0", "length_negative", "start", "end", "adjacent", "reversed",
        "sum_over", "sum_under", "run_ptr"])
@pytest.mark.parametrize("chunk", [1, 3, 1 << 16])
def test_load_rejects_bad_runs(tmp_path, monkeypatch, parts, message, chunk):
    # one stored matrix has one encoding: a run is at least 1 long, inside
    # the shape, and at least 2 past the last column of the run before it
    # in its row (adjacent runs would be one); the lengths sum to nnz.  The
    # checks hold across the decoder's chunks of runs.
    monkeypatch.setattr(mpisim.sysmat, "_CHUNK", chunk)
    path = tmp_path / "sm.mat"
    save_system_matrix(_tiny_matrix(), path, _TINY_HASH)
    _rewrite(path, **parts)
    with pytest.raises(ConfigError, match=message):
        load_system_matrix(path)


def _runs_oracle(csr) -> int:
    """The number of runs of consecutive columns in csr's rows, row by row."""
    return sum(int(np.sum(np.diff(row.indices) != 1)) + 1
               for row in csr if row.nnz)


@settings(max_examples=60, deadline=None)
@given(kinds=st.lists(st.sampled_from(["empty", "full", "runs"]), min_size=1,
                      max_size=12),
       cols=st.sampled_from([1, 2, 7, 70_000]), chunk=st.sampled_from([1, 2, 3, 1 << 18]),
       seed=st.integers(0, 2**32 - 1))
@example(kinds=["empty"] * 3, cols=7, chunk=1, seed=0)
@example(kinds=["full", "runs", "empty"], cols=1, chunk=2, seed=1)
@example(kinds=["runs", "full", "empty", "runs"], cols=70_000, chunk=3, seed=2)
def test_runs_round_trip_is_bit_equal(kinds, cols, chunk, seed):
    # sorted CSRs with empty and full rows, no nonzeros, one column, and
    # more columns than uint16 indices address; the encoder and the decoder
    # take whole rows per step, at most chunk entries (runs) or one row, so
    # small chunks make a step of each row that holds more
    rng = np.random.default_rng(seed)
    mask = np.zeros((len(kinds), cols), bool)
    for row, kind in zip(mask, kinds):
        if kind == "full":
            row[:] = True
        elif kind == "runs":
            for _ in range(rng.integers(1, 6)):
                lo = rng.integers(cols)
                row[lo:lo + rng.choice([1, 2, rng.integers(1, cols + 1)])] = True
    cells = np.nonzero(mask)
    indptr = np.concatenate([[0], np.cumsum(mask.sum(axis=1))]).astype(np.int64)
    csr = sp.csr_matrix((rng.standard_normal(indptr[-1]), cells[1].astype(np.int32),
                         indptr), shape=mask.shape)
    sm = replace(_tiny_matrix(), blocks=(_block(csr),), rows_per_coil=len(kinds),
                 grid_dims=(cols, 1, 1))
    appended = []  # the row lengths of each step of the encoder
    real_append = mpisim.sysmat._RunWriter.append

    def append(writer, vals, cells, counts):
        appended.append(np.array(counts))
        real_append(writer, vals, cells, counts)

    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(mpisim.sysmat, "_CHUNK", chunk), \
            mock.patch.object(mpisim.sysmat._RunWriter, "append", append):
        path = Path(tmp) / "sm.mat"
        save_system_matrix(sm, path, _TINY_HASH)
        n_runs = int(path.read_bytes().split(b"\n")[0].split()[-1])
        [back] = load_system_matrix(path).blocks
        assert _carried_stamp(path) == _TINY_HASH
    assert n_runs == _runs_oracle(csr)
    _assert_same_csr(back, csr)
    assert np.array_equal(np.concatenate(appended), np.diff(indptr))
    assert all(c.size == 1 or c.sum() <= chunk for c in appended)
    if chunk == 1:
        # one append per row that holds entries
        assert sum(map(np.any, appended)) == np.count_nonzero(np.diff(indptr))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_load_rejects_non_finite_values(tmp_path, value):
    path = tmp_path / "sm.mat"
    save_system_matrix(_tiny_matrix(), path, _TINY_HASH)
    _rewrite(path, data=value)
    with pytest.raises(ConfigError, match="non-finite"):
        load_system_matrix(path)
    # a file without values has none to reject
    empty = replace(_tiny_matrix(), blocks=(_block(sp.csr_matrix((3, 3))),))
    save_system_matrix(empty, path, _TINY_HASH)
    assert load_system_matrix(path).blocks[0].data.size == 0


def test_load_rejects_an_unallocatable_shape_as_truncated(tmp_path):
    # a consistent header for 10^12 rows: the run_ptr alone would
    # need 7.28 TiB, but it is read from the file, so the payload length
    # check rejects it before anything shape-sized is allocated.  The
    # address-space limit applies to the child process only, so an
    # allocation from the header would fail there instead of being
    # overcommitted.
    path = tmp_path / "sm.mat"
    save_system_matrix(_tiny_matrix(), path, _TINY_HASH)
    rows = 10 ** 12
    _rewrite(path, header={0: f"{rows} 3 4 0123456789abcdef runs 4".encode(),
                           1: f"1000000 0 {rows}".encode()})
    probe = ("import resource, sys\n"
             "resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))\n"
             "from mpisim.errors import MpiSimError\n"
             "from mpisim.sysmat import load_system_matrix\n"
             "try:\n"
             "    load_system_matrix(sys.argv[1])\n"
             "except MpiSimError as exc:\n"
             "    print(f'exit {exc.exit_code}: {exc}')\n")
    env = {**os.environ, "PYTHONPATH": str(Path(mpisim.__file__).parents[1]),
           "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", probe, str(path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("exit 2: ") and "truncated" in proc.stdout
    assert "MemoryError" not in proc.stdout + proc.stderr


def test_highpass_rows_reject_a_cutoff_that_keeps_no_bin():
    # 3 rows at 1 MHz: the bins sit at 0 and +-333 kHz
    with pytest.raises(ConfigError, match="keeps no DFT bin"):
        apply_highpass_rows(_tiny_matrix(), 4e5)
    assert apply_highpass_rows(_tiny_matrix(), 3e5).highpass == 3e5


def test_one_sample_acquisition(scene, tmp_path):
    # the matrix stores the acquisition's rate, not one worked out from a
    # sample spacing that a single sample does not have
    model, grid, config, approx = scene
    one = replace(config, duration=1 / config.sample_rate)
    sm = build_system_matrix(model, approx, [coil_along("x")], one, grid,
                             subsampling=2)
    assert sm.shape == (1, grid.n_cells)
    assert sm.rows_per_coil == 1 and sm.sample_rate == config.sample_rate
    path = tmp_path / "sm.mat"
    save_system_matrix(sm, path, _TINY_HASH)
    back = load_system_matrix(path)
    assert _carried_stamp(path) == _TINY_HASH
    assert back.sample_rate == config.sample_rate and back.highpass is None
    _assert_same_csr(back.blocks[0], sm.blocks[0])
    # the only DFT bin of one sample is 0 Hz
    with pytest.raises(ConfigError, match="keeps no DFT bin"):
        apply_highpass_rows(sm, 35e3)


def test_header_stores_the_exact_sample_rate(scene, tmp_path):
    # 1 / (1 / 7 MHz) is 7000000.000000001: the rate is not recovered from
    # the sample spacing
    model, grid, config, approx = scene
    acq = AcquisitionConfig(f_d=25e3, sample_rate=7e6, duration=4e-6)
    assert 1 / (acq.times()[1] - acq.times()[0]) != 7e6
    sm = build_system_matrix(model, approx, [coil_along("x")], acq, grid)
    assert sm.sample_rate == 7e6
    path = tmp_path / "sm.mat"
    save_system_matrix(sm, path, _TINY_HASH)
    assert path.read_bytes().split(b"\n")[1].split()[0] == b"7000000"
    assert load_system_matrix(path).sample_rate == 7e6


def test_rewrite_helper_keeps_a_valid_file(tmp_path):
    path = tmp_path / "sm.mat"
    tiny = _tiny_matrix()
    save_system_matrix(tiny, path, _TINY_HASH)
    _rewrite(path, header={3: b"3 1 1 0.001 0.001 0.001 0 0 0"}, data=1.0)
    back = load_system_matrix(path)
    assert _carried_stamp(path) == _TINY_HASH
    assert back.nnz == 4
    _assert_same_csr(back.blocks[0], tiny.blocks[0])


def test_save_interrupted_leaves_no_partial_file(matrix_x, tmp_path):
    path = tmp_path / "sm.mat"
    during = []

    class FailingMatrix:
        """CSR arrays whose values fail to arrive, after indptr and indices did."""

        shape, nnz = matrix_x.shape, matrix_x.nnz
        indptr, indices = matrix_x.blocks[0].indptr, matrix_x.blocks[0].indices

        @property
        def data(self):
            during.append(sorted(tmp_path.iterdir()))
            raise OSError("no space left on device")

    broken = replace(matrix_x, blocks=(FailingMatrix(),))
    with pytest.raises(OSError):
        save_system_matrix(broken, path, _X_HASH)
    # the bytes went to a temporary file beside the target, now removed
    assert len(during[0]) == 1 and during[0][0].parent == tmp_path
    assert during[0][0] != path
    assert list(tmp_path.iterdir()) == []
    # an existing matrix survives a failed overwrite untouched
    save_system_matrix(matrix_x, path, _X_HASH)
    before = path.read_bytes()
    with pytest.raises(OSError):
        save_system_matrix(broken, path, _X_HASH)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def test_stack_coils(scene):
    model, grid, config, approx = scene
    coils = [coil_along("x"), coil_along("y")]
    both = build_system_matrix(model, approx, coils, config, grid, subsampling=2)
    tx, ty = simulate_piecewise(model, grid, coils, config, approx, subsampling=2)
    assert (tx.coil_index, ty.coil_index) == (0, 1)
    rhs = stack_coils(both, [tx, ty])
    n = config.n_samples
    assert np.array_equal(rhs[:n], tx.samples)
    assert np.array_equal(rhs[n:], ty.samples)
    assert np.max(np.abs(both.operator() @ grid.flat() - rhs)) < 1e-12
    with pytest.raises(ConfigError, match="one trace per coil"):
        stack_coils(both, [tx])
    # each trace must be of its own coil: swapped, both fit the time axis
    with pytest.raises(ConfigError, match="trace 0 is of coil 1, but the matrix's "
                                          "coil 0 has index 0"):
        stack_coils(both, [ty, tx])
    [short] = simulate_piecewise(
        model, grid, [coil_along("x")],
        AcquisitionConfig(f_d=25e3, sample_rate=1e6, duration=2e-5),
        approx, subsampling=2)
    with pytest.raises(ConfigError):
        stack_coils(both, [tx, short])
    # same length, other sample rate or t0; both headers store them at .17g,
    # so they are compared exactly: 5 ns is 0.5% of a sample here, 20 Hz
    # 20 ppm of the rate
    for other in (replace(ty, sample_rate=2e6), replace(ty, t0=1e-3),
                  replace(ty, t0=ty.t0 + 5e-9),
                  replace(ty, sample_rate=ty.sample_rate + 20.0)):
        assert other.samples.size == n
        with pytest.raises(ConfigError, match="sample rate or t0"):
            stack_coils(both, [tx, other])


class _WatchedNumpy:
    """numpy as sysmat sees it, with each np.empty recorded, or refused."""

    def __init__(self, refuse=False):
        self.refuse, self.allocated = refuse, []

    def empty(self, *args, **kwargs):
        if self.refuse:
            raise AssertionError("a payload array was allocated")
        self.allocated.append(np.empty(*args, **kwargs))
        return self.allocated[-1]

    def __getattr__(self, name):
        return getattr(np, name)


def _save_coil_files(tmp_path, matrices):
    """Save each matrix as coil file i, under digest i; return the paths."""
    paths = [tmp_path / f"coil{i}.mat" for i in range(len(matrices))]
    for i, (sm, path) in enumerate(zip(matrices, paths)):
        save_system_matrix(sm, path, f"{i:016x}")
    return paths


def test_stack_of_one_matrix_shares_its_data(scene, matrix_x, tmp_path, monkeypatch):
    # each loaded block holds the arrays its file's payload was read into:
    # no copy of the nonzeros, for one file and for a stack of two
    model, grid, config, approx = scene
    my = build_system_matrix(model, approx, [coil_along("y")], config, grid,
                             subsampling=2)
    paths = _save_coil_files(tmp_path, [matrix_x, my])
    for stack in (paths[:1], paths):
        watch = _WatchedNumpy()
        monkeypatch.setattr(mpisim.sysmat, "np", watch)
        back = load_system_matrices(stack)
        monkeypatch.undo()
        # x's run_ptr, indices and values; y's runs are x's in this scene,
        # so its file adds only its values
        _, indices, *values = watch.allocated
        for block, data in zip(back.blocks, values, strict=True):
            assert np.shares_memory(block.indices, indices)
            assert np.shares_memory(block.data, data)
            assert block.nnz == data.size > 0


def _runs_matrix(rng, rows=200, cols=4000):
    """A one-coil matrix of rows rows, each ten runs of 50-149 columns at
    random places, with random values."""
    mask = np.zeros((rows, cols), bool)
    for row in mask:
        for lo in rng.integers(0, cols, 10):
            row[lo:lo + rng.integers(50, 150)] = True
    indptr = np.concatenate([[0], np.cumsum(mask.sum(axis=1))])
    csr = sp.csr_matrix((rng.standard_normal(indptr[-1]),
                         np.nonzero(mask)[1].astype(np.int32), indptr), shape=mask.shape)
    return replace(_tiny_matrix(), blocks=(_block(csr),), rows_per_coil=rows,
                   grid_dims=(cols, 1, 1))


def test_identical_runs_are_decoded_once(tmp_path, monkeypatch):
    # two coil files with one pattern: the load holds one indices array and
    # both coils' values, 4 + 2 * 8 bytes per nonzero of a coil, and beyond
    # that little more than the decoder's and the comparison's chunks.
    # Holding the indices twice would take 4 bytes per nonzero more.
    monkeypatch.setattr(mpisim.sysmat, "_CHUNK", 1 << 12)
    rng = np.random.default_rng(11)
    sm = _runs_matrix(rng)
    other = replace(sm, blocks=(replace(sm.blocks[0], data=sm.blocks[0].data * 3),),
                    coils=(coil_along("y"),))
    paths = _save_coil_files(tmp_path, [sm, other])
    nnz = sm.nnz
    tracemalloc.start()
    try:
        back = load_system_matrices(paths)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.nnz == 2 * nnz and 4 * nnz > 10 * 16 * mpisim.sysmat._CHUNK
    assert peak < nnz * (2 * 8 + 4) + 16 * mpisim.sysmat._CHUNK


def _one_byte_shift(starts, lengths, run_ptr, cols):
    """starts with one run moved one column right, keeping the runs valid:
    the first run, in its row's last place, whose end is at least 2 columns
    short of cols and whose start's low byte is not 0xff."""
    lasts = run_ptr[1:][np.diff(run_ptr) > 0] - 1
    k = next(k for k in lasts
             if starts[k] + lengths[k] + 2 <= cols and starts[k] % 256 != 255)
    moved = starts.copy()
    moved[k] += 1
    return moved


class _LoggedFile:
    """A file that open_input opened, logging each read as (path, offset,
    bytes read) and each seek as (path, "seek", 0); it offers nothing else
    but tell, fileno and use as a context manager."""

    def __init__(self, path, fh, log):
        self.path, self.fh, self.log = path, fh, log

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def tell(self):
        return self.fh.tell()

    def fileno(self):
        return self.fh.fileno()

    def seek(self, *args):
        self.log.append((self.path, "seek", 0))
        return self.fh.seek(*args)

    def _logged(self, read, *args):
        at = self.fh.tell()
        out = read(*args)
        self.log.append((self.path, at, out if isinstance(out, int) else len(out)))
        return out

    def read(self, *args):
        return self._logged(self.fh.read, *args)

    def readline(self, *args):
        return self._logged(self.fh.readline, *args)

    def readinto(self, buf):
        return self._logged(self.fh.readinto, buf)


@pytest.mark.parametrize("chunk", [3, 1 << 16])
@pytest.mark.parametrize("case", ["valid byte", "invalid byte", "nan", "truncated",
                                  "shorter", "shorter and valid"])
def test_a_second_coil_is_compared_within_its_payload(tmp_path, monkeypatch, chunk,
                                                      case):
    # the second file starts from the first's runs; whatever it changes, the
    # load reads each file once, front to back and with no seek: both
    # headers, then both run sections, then both files' values, as far as
    # it gets.  It shares the first file's arrays only when the runs are the
    # same
    monkeypatch.setattr(mpisim.sysmat, "_CHUNK", chunk)
    sm = _runs_matrix(np.random.default_rng(12), rows=20, cols=600)
    paths = _save_coil_files(tmp_path, [sm, replace(sm, coils=(coil_along("y"),))])
    lines = paths[1].read_bytes().split(b"\n", 4)
    fields = lines[0].split()
    rows, cols, nnz, n_runs = (int(fields[i]) for i in (0, 1, 2, 5))
    payload = np.frombuffer(lines[4], np.uint8)
    run_ptr = payload[:8 * (rows + 1)].view("<i8")
    starts, lengths = payload[8 * (rows + 1):].view("<i4")[:2 * n_runs].reshape(2, -1)
    data = payload[-8 * nnz:].view("<f8")
    last = lengths[-1]  # the last row's last run
    if case == "valid byte":
        _rewrite(paths[1], starts=_one_byte_shift(starts, lengths, run_ptr, cols))
    elif case == "invalid byte":
        _rewrite(paths[1], lengths=np.concatenate([lengths[:-1], [0]]))
    elif case == "nan":
        _rewrite(paths[1], data=np.nan)
    elif case == "truncated":
        paths[1].write_bytes(paths[1].read_bytes()[:-8])
    else:  # the last run dropped, and with "valid" its values too
        kept = nnz - last if case == "shorter and valid" else nnz
        _rewrite(paths[1], header={0: f"{rows} {cols} {kept} {'0' * 15}1 runs "
                                      f"{n_runs - 1}".encode()},
                 run_ptr=np.concatenate([run_ptr[:-1], [n_runs - 1]]),
                 starts=starts[:-1], lengths=lengths[:-1], data=data[:kept])
    assert paths[1].read_bytes() != paths[0].read_bytes()
    log = []
    real = mpisim.sysmat.open_input
    monkeypatch.setattr(mpisim.sysmat, "open_input",
                        lambda path: _LoggedFile(path, real(path), log))
    if case in ("valid byte", "shorter and valid"):
        first, second = load_system_matrices(paths).blocks
        reads = list(log)
        _assert_same_csr(second, load_system_matrix(paths[1]).blocks[0])
        assert not np.shares_memory(second.indices, first.indices)
        assert not np.shares_memory(second.indptr, first.indptr)
        assert second.nnz == (nnz - last if case == "shorter and valid" else nnz)
    else:
        message = {"invalid byte": "at least 1", "nan": "non-finite",
                   "truncated": "truncated", "shorter": f"sum to {nnz - last}, not"}
        with pytest.raises(ConfigError, match=message[case]) as exc:
            load_system_matrices(paths)
        assert str(paths[1]) in str(exc.value) and exc.value.exit_code == 2
        reads = list(log)
    # every read starts where the file's last one ended (a seek would log
    # "seek"), and a load that checks the values has read each file to its end
    ends = dict.fromkeys(paths, 0)
    for path, at, size in reads:
        assert at == ends[path], (path, at)
        ends[path] += size
    phases = [*[paths[0]] * 4, *[paths[1]] * 4, *paths, *paths]
    order = [path for path, *_ in reads]
    assert order == phases[:len(order)]
    if case in ("valid byte", "shorter and valid", "nan"):
        assert order == phases
        assert ends == {path: path.stat().st_size for path in paths}


def test_stacked_load_equals_the_vstack_of_single_loads(scene, matrix_x, tmp_path):
    # oracle: one load per file, stacked by scipy.  Between x and y an
    # empty coil; then x's runs with other values
    model, grid, config, approx = scene
    coils = [coil_along("x"), coil_along("y")]
    both = apply_highpass_rows(build_system_matrix(model, approx, coils, config,
                                                   grid, subsampling=2), 35e3)
    x, y = _coil(both, 0), _coil(both, 1)
    empty = replace(x, blocks=(_block(sp.csr_matrix(matrix_x.shape)),),
                    coils=(coil_along("z"),))
    again = replace(x, blocks=(replace(x.blocks[0], data=2 * x.blocks[0].data),),
                    coils=(coil_along("x", index=3),))
    paths = _save_coil_files(tmp_path, [x, empty, y, again])
    stacked = load_system_matrices(paths)
    assert [_carried_stamp(p) for p in paths] == [f"{i:016x}" for i in range(4)]
    assert stacked.highpass is None  # the files hold S alone
    stacked = apply_highpass_rows(stacked, 35e3)
    oracle = sp.vstack([_stacked(load_system_matrix(p)) for p in paths], format="csr")
    _assert_same_csr(_stacked(stacked), oracle)
    assert stacked.coils == (coils[0], coil_along("z"), coils[1], again.coils[0])
    assert stacked.shape == (4 * config.n_samples, grid.n_cells)
    assert stacked.rows_per_coil == config.n_samples
    assert stacked.highpass == 35e3 and matches_geometry(
        grid, stacked.grid_dims, stacked.grid_spacing, stacked.grid_origin)
    # files whose runs are x's share x's decoded indptr and indices; the
    # empty coil, whose runs differ, gets its own
    bx, bz, by, b_again = stacked.blocks
    for block in (by, b_again):
        assert np.shares_memory(block.indices, bx.indices)
        assert np.shares_memory(block.indptr, bx.indptr)
        assert not np.shares_memory(block.data, bx.data)
    assert not np.shares_memory(bz.indptr, bx.indptr)
    assert not np.shares_memory(bz.indices, bx.indices)
    assert bx.nnz > 0 and np.array_equal(b_again.data, 2 * bx.data)
    # the one-file loader is the stacked loader with one path
    one = load_system_matrix(paths[0])
    assert _carried_stamp(paths[0]) == f"{0:016x}"
    _assert_same_csr(one.blocks[0], both.blocks[0])
    with pytest.raises(ConfigError, match="at least one"):
        load_system_matrices([])


@pytest.mark.parametrize("flaw", ["truncated", "rows", "t0"])
def test_stacked_load_checks_every_header_before_any_payload(
        scene, matrix_x, tmp_path, monkeypatch, flaw):
    # the second file fails; no payload array has been allocated by then
    model, grid, config, approx = scene
    if flaw == "rows":
        second = build_system_matrix(model, approx, [coil_along("y")],
                                     replace(config, duration=2e-5), grid,
                                     subsampling=2)
    else:
        second = replace(matrix_x, coils=(coil_along("y"),),
                         t0=1e-3 if flaw == "t0" else matrix_x.t0)
    paths = _save_coil_files(tmp_path, [matrix_x, second])
    if flaw == "truncated":
        paths[1].write_bytes(paths[1].read_bytes()[:-8])
    message = {"truncated": "truncated", "rows": "rows_per_coil not as in",
               "t0": "t0 not as in"}[flaw]
    monkeypatch.setattr(mpisim.sysmat, "np", _WatchedNumpy(refuse=True))
    with pytest.raises(ConfigError, match=message) as exc:
        load_system_matrices(paths)
    assert str(paths[1]) in str(exc.value)


def test_highpass_rows_commutes(scene, matrix_x):
    model, grid, config, approx = scene
    cutoff = 35e3
    filtered = apply_highpass_rows(matrix_x, cutoff)
    assert filtered.highpass == cutoff
    assert filtered.blocks is matrix_x.blocks  # stored sparse, unfiltered
    # without a high-pass the operator is S itself
    x = np.random.default_rng(2).normal(size=grid.n_cells)
    assert matrix_x.operator().mask is None
    assert np.array_equal(matrix_x.operator() @ x, _scipy_csr(matrix_x.blocks[0]) @ x)
    [pw] = simulate_piecewise(model, grid, [coil_along("x")], config, approx,
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
    my = build_system_matrix(model, approx, [coil_along("y")], config,
                             grid, subsampling=2)
    singles = [apply_highpass_rows(m, cutoff) for m in (matrix_x, my)]
    both = build_system_matrix(model, approx, [coil_along("x"), coil_along("y")],
                               config, grid, subsampling=2)
    op = apply_highpass_rows(both, cutoff).operator()
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
    """Oracle: F S as a scipy LinearOperator over the stacked CSR.

    Same mask, same FFT calls in the same order, so results are bit-equal.
    """
    from scipy.sparse.linalg import LinearOperator

    mask = highpass_mask(sm.rows_per_coil, sm.sample_rate, sm.highpass)

    def f(y):
        y = np.reshape(y, (-1, sm.rows_per_coil))
        return np.real(np.fft.ifft(np.fft.fft(y) * mask)).ravel()

    csr = _stacked(sm)
    return LinearOperator(sm.shape, matvec=lambda x: f(csr @ x),
                          rmatvec=lambda y: csr.T @ f(y), dtype=float)


def _assert_operator_is_the_stacked_csr(sm, grid):
    """sm.operator() against the stacked CSR, or the LinearOperator over it
    when sm has a high-pass: bit-equal S x and S^T y, and 20 LSQR
    iterations that take the same steps."""
    op = sm.operator()
    oracle = _stacked(sm) if sm.highpass is None else _linear_operator_oracle(sm)
    assert isinstance(op, CoilOperator)
    assert op.shape == oracle.shape and op.T.shape == oracle.T.shape
    rng = np.random.default_rng(8)
    x = rng.normal(size=op.shape[1])
    y = rng.normal(size=op.shape[0])
    assert np.array_equal(op @ x, oracle @ x)
    assert np.array_equal(op.T @ y, oracle.T @ y)
    # the kernels trust their sizes: a vector one short or one long of
    # either product is refused, never read past
    for product, v in ((op, x), (op.T, y)):
        for wrong in (v[:-1], np.append(v, 1.0)):
            with pytest.raises(ValueError, match="dimension mismatch"):
                product @ wrong
    # LSQR sees only shape, @ and .T, so both operators take the same steps
    rhs = oracle @ grid.flat()
    got = lsqr_solve(op, rhs, LsqrOptions(max_iterations=20))
    want = lsqr_solve(oracle, rhs, LsqrOptions(max_iterations=20))
    assert got.iterations == want.iterations > 0
    assert np.array_equal(got.residuals, want.residuals)
    assert np.array_equal(got.x, want.x)


@pytest.mark.parametrize("n_coils", [1, 2])
def test_filtered_operator_is_bit_equal_to_linear_operator(scene, matrix_x,
                                                           n_coils):
    model, grid, config, approx = scene
    filtered = apply_highpass_rows(matrix_x, 35e3)
    if n_coils == 2:
        filtered = apply_highpass_rows(build_system_matrix(
            model, approx, [coil_along("x"), coil_along("y")], config, grid,
            subsampling=2), 35e3)
    _assert_operator_is_the_stacked_csr(filtered, grid)


@pytest.fixture(scope="module")
def matrix_xyz(scene):
    """The scene's x, y and z coils from one pass: x's and y's runs are
    the same, z's rows are empty."""
    model, grid, config, approx = scene
    return build_system_matrix(model, approx, [coil_along(axis) for axis in "xyz"],
                               config, grid, subsampling=2)


# the filtered one and two coils: test_filtered_operator_is_bit_equal_to_linear_operator
@pytest.mark.parametrize("highpass, case", [
    *((None, case) for case in ("1 coil", "2 coils", "3 coils", "shared runs")),
    *((35e3, case) for case in ("3 coils", "shared runs"))])
def test_operator_is_bit_equal_to_the_stacked_csr(scene, matrix_xyz, tmp_path,
                                                  highpass, case):
    sm = matrix_xyz
    if case in ("1 coil", "2 coils", "3 coils"):
        n = int(case[0])
        sm = replace(sm, blocks=sm.blocks[:n], coils=sm.coils[:n])
    else:
        paths = _save_coil_files(tmp_path, [_coil(sm, 0), _coil(sm, 1)])
        sm = load_system_matrices(paths)
        assert np.shares_memory(sm.blocks[0].indices, sm.blocks[1].indices)
    if highpass is not None:  # marked once loaded: the files hold S alone
        sm = apply_highpass_rows(sm, highpass)
    assert sm.highpass == highpass and sm.nnz > 0
    _assert_operator_is_the_stacked_csr(sm, scene[1])


def test_operator_checks_its_blocks_once(matrix_x):
    # blocks of other real dtypes act as scipy's CSR of them, whose products
    # upcast them to float64: the block casts its data once, when it is
    # made; blocks the operator cannot stack are refused when it is made,
    # not at the first product
    block = matrix_x.blocks[0]
    rng = np.random.default_rng(9)
    x, y = rng.normal(size=block.shape[1]), rng.normal(size=block.shape[0])
    for dtype in (np.float32, np.int64):
        narrow = _scipy_csr(block).astype(dtype)
        cast = _block(narrow)
        assert cast.data.dtype == np.float64
        op = CoilOperator((cast, cast))
        assert np.array_equal(op @ x, np.concatenate([narrow @ x] * 2))
        assert np.array_equal(op.T @ np.concatenate([y, y]),
                              sp.vstack([narrow, narrow], format="csr").T
                              @ np.concatenate([y, y]))
    assert op.T is op.T  # made once, as LSQR asks for it every iteration
    with pytest.raises(ValueError, match="columns"):
        CoilOperator((block, _block(_scipy_csr(block)[:, :-1])))
    with pytest.raises(TypeError, match="not real"):
        _block(_scipy_csr(block).astype(complex))


@pytest.mark.parametrize("shape, indptr", [
    ((3, 4), np.int64), ((3, 4), np.int32), ((1, 2**31), np.int32),
    ((1, 2**31), np.int64)])
def test_block_index_dtype_is_the_one_scipy_chooses(shape, indptr):
    # int32 while it addresses the rows, the columns and nnz, else int64,
    # whatever the dtype of the arrays handed in
    ptr = np.zeros(shape[0] + 1, indptr)
    block = CsrBlock(np.zeros(0, np.float32), np.zeros(0, np.int64), ptr, shape)
    oracle = sp.csr_matrix((np.zeros(0), np.zeros(0, np.int64), ptr), shape=shape)
    assert (block.indptr.dtype, block.indices.dtype) == (oracle.indptr.dtype,
                                                          oracle.indices.dtype)
    assert block.data.dtype == np.float64 and block.shape == shape
    assert block.nnz == 0


def test_block_must_be_a_csr_the_kernels_can_read():
    # the kernels trust the arrays: a pointer or index that would take them
    # out of bounds is refused when the block is made
    ok = dict(data=np.ones(2), indices=np.array([0, 2]), indptr=np.array([0, 1, 2]),
              shape=(2, 3))
    assert CsrBlock(**ok).nnz == 2
    for flaw in (dict(indptr=np.array([0, 2])), dict(indptr=np.array([0, 1, 3])),
                 dict(indptr=np.array([1, 1, 2])), dict(indptr=np.array([0, 3, 2])),
                 dict(indices=np.array([0])), dict(data=np.ones(3)),
                 dict(indices=np.array([0, 3])), dict(indices=np.array([-1, 2]))):
        with pytest.raises(ValueError, match="not a 2x3 CSR"):
            CsrBlock(**{**ok, **flaw})
    for flaw in (dict(indices=np.array([0.0, 2.0])), dict(indptr=np.array([0.0, 1, 2]))):
        with pytest.raises(TypeError):
            CsrBlock(**{**ok, **flaw})


def test_csc_matvec_adds_into_its_output():
    # CoilOperator.T adds each coil block's product into one output through
    # scipy's private csc_matvec(n_row, n_col, Ap, Ai, Ax, Xx, Yx), which
    # computes Yx += A Xx for the CSC matrix A; checked on scipy 1.17.1
    import scipy

    version = f"scipy {scipy.__version__}"
    a = sp.csr_matrix(np.array([[1.0, 0.0, 2.0], [0.0, 3.0, 4.0]]))
    out = np.array([10.0, 20.0, 30.0])
    try:
        from scipy.sparse import _sparsetools

        _sparsetools.csc_matvec(3, 2, a.indptr, a.indices, a.data,
                                np.array([5.0, 7.0]), out)
    except Exception as exc:  # a renamed module or a new signature
        pytest.fail(f"{version}: csc_matvec of a 2x3 CSR's transpose failed: {exc!r}")
    # a.T @ [5, 7] is [5, 21, 38]
    assert np.array_equal(out, [15.0, 41.0, 68.0]), (
        f"{version}: csc_matvec no longer adds A x into its output, it gave "
        f"{out}; CoilOperator.T relies on it")


def test_csr_matvec_adds_into_its_output():
    # CoilOperator writes each coil block's product into its slice of one
    # output through scipy's private csr_matvec(n_row, n_col, Ap, Aj, Ax,
    # Xx, Yx), which computes Yx += A Xx for the CSR matrix A; checked on
    # scipy 1.17.1
    import scipy

    version = f"scipy {scipy.__version__}"
    a = sp.csr_matrix(np.array([[1.0, 0.0, 2.0], [0.0, 3.0, 4.0]]))
    out = np.array([10.0, 20.0, 30.0, 40.0])
    try:
        mpisim.sysmat._sparsetools().csr_matvec(
            2, 3, a.indptr, a.indices, a.data, np.array([5.0, 6.0, 7.0]), out[1:3])
    except Exception as exc:  # a renamed module or a new signature
        pytest.fail(f"{version}: csr_matvec of a 2x3 CSR into a slice failed: {exc!r}")
    # a @ [5, 6, 7] is [19, 46]
    assert np.array_equal(out, [10.0, 39.0, 76.0, 40.0]), (
        f"{version}: csr_matvec no longer adds A x into its output slice, it "
        f"gave {out}; CoilOperator relies on it")


# Run in a fresh interpreter: loads the kernels through sysmat and imports
# scipy.sparse, in the order argv names, and prints whether both are one
# module or one extension file, which scipy modules the helper alone
# loaded, and what scipy.sparse then binds and computes
_KERNELS_PROBE = """\
import json, sys
import numpy as np
from mpisim import sysmat

seen = {}
for step in sys.argv[1:]:
    if step == "helper":
        helper = sysmat._sparsetools()
        seen["helper"] = sorted(m for m in sys.modules if m.startswith("scipy"))
    else:
        import scipy.sparse
        bound = scipy.sparse._sparsetools
        product = scipy.sparse.csr_matrix(np.eye(3)) @ np.ones(3)
print(json.dumps({**seen, "same": helper is bound, "file": helper.__file__ == bound.__file__,
                  "csr_matvec": callable(bound.csr_matvec), "product": product.tolist(),
                  "cached": sysmat._sparsetools() is helper}))
"""


@pytest.mark.parametrize("order", [("helper", "scipy"), ("scipy", "helper")])
def test_sparsetools_is_scipys_own_module(order):
    # scipy's own extension whichever is loaded first, so scipy.sparse,
    # imported after a solve, runs the same kernels the operator ran, and
    # binds them as its _sparsetools; one module object when scipy.sparse
    # has loaded it first
    proc = subprocess.run(
        [sys.executable, "-c", _KERNELS_PROBE, *order], capture_output=True,
        text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(Path(mpisim.__file__).parents[1])})
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen["file"] and seen["cached"]
    assert seen["csr_matvec"] and seen["product"] == [1.0, 1.0, 1.0]
    if order[0] == "helper":
        # scipy's and scipy.sparse's __init__ never ran, and nothing went
        # under scipy's name, so scipy.sparse loaded its own copy
        assert seen["helper"] == [] and not seen["same"]
    else:
        assert seen["same"]


def test_highpass_save_load_round_trip(matrix_x, tmp_path):
    # the file holds S alone: a marked matrix is saved as the unmarked one
    # and loads unmarked; marked again, it is the same operator
    filtered = apply_highpass_rows(matrix_x, 35e3)
    path, plain = tmp_path / "sm_hp.mat", tmp_path / "sm.mat"
    save_system_matrix(filtered, path, _X_HASH)
    save_system_matrix(matrix_x, plain, _X_HASH)
    assert path.read_bytes() == plain.read_bytes()
    back = load_system_matrix(path)
    assert _carried_stamp(path) == _X_HASH
    assert back.highpass is None
    assert back.nnz == matrix_x.nnz
    assert all(isinstance(block, CsrBlock) for block in back.blocks)
    op, want = apply_highpass_rows(back, 35e3).operator(), filtered.operator()
    rng = np.random.default_rng(7)
    x, y = rng.normal(size=filtered.shape[1]), rng.normal(size=filtered.shape[0])
    assert np.array_equal(op @ x, want @ x)
    assert np.array_equal(op.T @ y, want.T @ y)


@pytest.mark.parametrize("field, shift", [("grid_spacing", 1e-3),
                                          ("grid_origin", 5e-3)])
def test_stack_rejects_mixed_grid_geometry(scene, matrix_x, field, shift, tmp_path,
                                           monkeypatch):
    other = replace(matrix_x, **{
        field: tuple(v + shift for v in getattr(matrix_x, field))})
    assert other.grid_dims == matrix_x.grid_dims
    paths = _save_coil_files(tmp_path, [matrix_x, other])
    monkeypatch.setattr(mpisim.sysmat, "np", _WatchedNumpy(refuse=True))
    with pytest.raises(ConfigError, match=f"{field} not as in"):
        load_system_matrices(paths)

"""System-matrix assembly, hashing, persistence, and row filtering."""

import hashlib
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
    build_system_matrices,
    build_system_matrix,
    config_hash,
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
    n = sm.rows_per_coil
    mask = highpass_mask(n, sm.sample_rate, cutoff)
    blocks = []
    for i in range(len(sm.coils)):
        dense = sm.matrix[i * n:(i + 1) * n].toarray()
        blocks.append(np.real(np.fft.ifft(np.fft.fft(dense, axis=0)
                                          * mask[:, None], axis=0)))
    return np.vstack(blocks)


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


# config_hash of matrix_x, unfiltered and high-passed at 35 kHz
_X_HASH, _X_HP_HASH = "0487af29816cfbdf", "dd6fe44b5c65ee05"


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
    assert sm.grid_meta_matches(grid)
    assert sm.highpass is None
    assert 0 < sm.nnz < sm.shape[0] * sm.shape[1]  # staircase support is local


def test_matrix_vector_product_equals_piecewise(scene, matrix_x):
    model, grid, config, approx = scene
    [pw] = simulate_piecewise(model, grid, [coil_along("x")], config, approx,
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
    sm = build_system_matrix(model, approx, [coil], config, grid,
                             subsampling)
    [trace] = simulate_piecewise(model, grid, [coil], config, approx,
                                 subsampling=subsampling)
    u = trace.samples
    scale = np.max(np.abs(u))
    assert scale > 0
    assert np.max(np.abs(sm.matrix @ grid.flat() - u)) <= 1e-12 * scale


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


def test_worker_count_does_not_change_matrix(scene, matrix_x):
    model, grid, config, approx = scene
    base = matrix_x.matrix
    for workers in (1, 2, 3):
        for block in ({"block": 1}, {"block": 7}, {}):  # {}: the default block
            split = build_system_matrix(model, approx, [coil_along("x")],
                                        config, grid, subsampling=2,
                                        n_workers=workers, **block)
            for part in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(split.matrix, part),
                                      getattr(base, part)), (workers, block, part)


def test_one_pass_equals_stacked_single_coil_builds(scene, matrix_x):
    # oracle: one build per coil, stacked
    model, grid, config, approx = scene
    my = build_system_matrix(model, approx, [coil_along("y")], config,
                             grid, subsampling=2)
    assert matrix_x.nnz > 0 and my.nnz > 0
    oracle = sp.vstack([matrix_x.matrix, my.matrix], format="csr")
    for workers in (1, 2, 3):
        for block in ({"block": 1}, {"block": 7}, {}):  # {}: the default block
            both = build_system_matrix(model, approx,
                                       [coil_along("x"), coil_along("y")],
                                       config, grid, subsampling=2,
                                       n_workers=workers, **block)
            for part in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(both.matrix, part),
                                      getattr(oracle, part)), (workers, block, part)
            assert both.coils == (coil_along("x"), coil_along("y"))
    # coil_block undoes the stacking
    for i, single in enumerate((matrix_x, my)):
        block = both.coil_block(i)
        assert (block.matrix != single.matrix).nnz == 0
        assert block.shape == single.shape
        assert block.coils == single.coils


def test_coil_without_signal_gets_an_empty_block():
    # the ideal desk FFL rotates in the z = 0 plane: <rho_z, dB/dt> is 0
    # there, so z's rows hold no entry while x's keep their own
    model, approx = _desk_ffl(), _desk_approx()
    grid = empty_grid(0.1, 0.1 / 32)
    acq = AcquisitionConfig(f_d=25e3, sample_rate=500e3, duration=1e-3)
    alone = build_system_matrix(model, approx, [coil_along("x")], acq, grid,
                                subsampling=2)
    both = build_system_matrix(model, approx, [coil_along("x"), coil_along("z")],
                               acq, grid, subsampling=2)
    n = acq.n_samples
    assert alone.nnz > 0
    assert both.matrix[n:].nnz == 0
    x_rows = both.matrix[:n]
    for part in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(x_rows, part), getattr(alone.matrix, part))


def test_empty_coil_list_is_rejected(scene):
    model, grid, config, approx = scene
    with pytest.raises(ConfigError, match="coil"):
        build_system_matrix(model, approx, [], config, grid)


def test_nnz_cap_is_per_coil(scene, matrix_x):
    model, grid, config, approx = scene
    coils = [coil_along("x"), coil_along("y")]
    my = build_system_matrix(model, approx, [coil_along("y")], config,
                             grid, subsampling=2)
    largest, total = max(matrix_x.nnz, my.nnz), matrix_x.nnz + my.nnz
    cap = total - 1  # above each coil's count and estimate, below their sum
    assert largest < cap
    both = build_system_matrix(model, approx, coils, config, grid,
                               subsampling=2, nnz_cap=cap)
    assert both.nnz == total > cap
    with pytest.raises(ResourceCapError, match="one coil"):
        build_system_matrix(model, approx, coils, config, grid,
                            subsampling=2, nnz_cap=min(matrix_x.nnz, my.nnz) - 1)


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
def test_one_pass_per_staircase_equals_fresh_builds(magnitude):
    # oracle: one build_system_matrix per staircase
    model, approxes = _desk_ffl(magnitude), _sweep_staircases()
    grid = empty_grid(0.1, 0.1 / 32)
    acq = AcquisitionConfig(f_d=25e3, sample_rate=100e3, duration=1e-3)
    coils = [coil_along("x"), coil_along("y")]
    fresh = [build_system_matrix(model, approx, coils, acq, grid, subsampling=2)
             for approx in approxes]
    assert len({config_hash(model, approx, grid, acq, coils[0], 2)
                for approx in approxes}) == len(approxes)
    assert min(sm.nnz for sm in fresh) > 0
    for workers in (1, 2, 3):
        for block in ({"block": 1}, {"block": 7}, {}):  # {}: the default block
            many = build_system_matrices(model, approxes, coils, acq, grid,
                                         subsampling=2, n_workers=workers,
                                         **block)
            assert len(many) == len(fresh)
            for i, (got, want) in enumerate(zip(many, fresh)):
                for part in ("indptr", "indices", "data"):
                    assert np.array_equal(getattr(got.matrix, part),
                                          getattr(want.matrix, part)), (
                        workers, block, i, part)
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


def test_assembled_bytes_are_pinned():
    model, approxes = _desk_ffl(0.35), _sweep_staircases()[:2]
    grid = empty_grid(0.1, 0.1 / 32)
    acq = AcquisitionConfig(f_d=25e3, sample_rate=100e3, duration=1e-3)
    coils = [coil_along("x"), coil_along("y")]
    for workers, block in ((1, 64), (2, 7)):
        digest = hashlib.sha256()
        for sm in build_system_matrices(model, approxes, coils, acq, grid,
                                        subsampling=2, n_workers=workers,
                                        block=block):
            for part, dtype in (("indptr", "<i8"), ("indices", "<i4"), ("data", "<f8")):
                digest.update(np.ascontiguousarray(getattr(sm.matrix, part),
                                                   dtype).tobytes())
        assert digest.hexdigest() == _PINNED_BUILD, (workers, block)


@pytest.mark.parametrize("subsampling", [1, 2])
def test_streamed_files_equal_the_build_in_memory(tmp_path, subsampling):
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
            save_system_matrix(sm.coil_block(k), saved[i, k], digests[i][k])
    for workers, block in ((1, 64), (2, 7), (1, 7), (2, 64)):
        files = [[(tmp_path / f"stream_{i}{k}.mat", digest) for k, digest in enumerate(row)]
                 for i, row in enumerate(digests)]
        stored = build_system_matrices(model, approxes, coils, acq, grid, subsampling,
                                       n_workers=workers, block=block, files=files)
        for i, (sm, record) in enumerate(zip(held, stored)):
            assert record.shape == sm.shape and record.nnz == sm.nnz
            paths = [path for path, _ in files[i]]
            assert list(record.paths) == paths
            loaded = load_system_matrices(paths, digests[i])
            for part in ("indptr", "indices", "data"):
                got, want = getattr(loaded.matrix, part), getattr(sm.matrix, part)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (
                    workers, block, i, part)
            for k, path in enumerate(paths):
                assert record.coil_nnz[k] == sm.coil_block(k).nnz
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
    held = load_system_matrix(path).matrix
    assert held.nnz == stored.nnz > 500_000
    assert peak < (held.data.nbytes + held.indices.nbytes) / 2


def test_empty_staircase_list_is_rejected(scene):
    model, grid, config, approx = scene
    with pytest.raises(ConfigError, match="staircase"):
        build_system_matrices(model, [], [coil_along("x")], config, grid)


def test_nnz_cap_is_per_staircase_and_coil():
    model, approxes = _desk_ffl(), _sweep_staircases()[:2]  # 4 mT and 10 mT
    grid = empty_grid(0.1, 0.1 / 32)
    acq = AcquisitionConfig(f_d=25e3, sample_rate=500e3, duration=1e-3)
    coils = [coil_along("x"), coil_along("y")]
    counts = [build_system_matrix(model, approx, [coil], acq, grid,
                                  subsampling=2).nnz
              for approx in approxes for coil in coils]
    # above every (staircase, coil) count, below any sum of two of them
    cap = max(counts) + min(counts) - 1
    many = build_system_matrices(model, approxes, coils, acq, grid,
                                 subsampling=2, nnz_cap=cap)
    assert [sm.nnz for sm in many] == [counts[0] + counts[1],
                                       counts[2] + counts[3]]
    with pytest.raises(ResourceCapError, match="one coil"):
        build_system_matrices(model, approxes, coils, acq, grid,
                              subsampling=2, nnz_cap=min(counts) - 1)


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
    sm = build_system_matrix(model, approx, coils, config, grid, subsampling=2,
                             n_workers=workers, block=2)
    assert (sm.matrix != oracle.matrix).nnz == 0
    assert stats["calls"] == 1 + config.n_samples // 2  # the probe, then 20 blocks
    # the window of map_time_blocks, plus the block the build still holds
    assert stats["most"] <= 2 * workers + 1
    assert stats["alive"] == 0


def test_assembly_from_a_one_entry_capacity_is_bit_equal(scene, monkeypatch):
    model, grid, config, _ = scene
    approxes, coils = _sweep_staircases()[:2], [coil_along("x"), coil_along("y")]
    default = build_system_matrices(model, approxes, coils, config, grid,
                                    subsampling=2, block=7)
    monkeypatch.setattr(mpisim.sysmat, "_estimate_nnz", lambda *args: 1)
    for workers in (1, 2):
        grown = build_system_matrices(model, approxes, coils, config, grid,
                                      subsampling=2, n_workers=workers, block=7)
        for got, want in zip(grown, default, strict=True):
            assert got.nnz > 100
            for part in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(got.matrix, part),
                                      getattr(want.matrix, part)), (workers, part)


@pytest.mark.parametrize("capacity", [0, 1, 19, 21, 24, 1000])
@pytest.mark.parametrize("chunk", [2, 3, 1 << 18])
def test_coil_rows_stack_like_a_concatenation(monkeypatch, capacity, chunk):
    # blocks of 3 coils with 0-4 entries per row: whatever the first
    # capacity (regrown or not) and chunk (a move that overlaps its target
    # or not), stacked() is the coil-major concatenation
    monkeypatch.setattr(mpisim.sysmat, "_CHUNK", chunk)
    rng = np.random.default_rng(5)
    blocks = []
    for rows in (2, 1, 3, 2):
        per_coil = []
        for _ in range(3):
            counts = rng.integers(0, 5, rows)
            per_coil.append((rng.random(counts.sum()),
                             rng.integers(0, 99, counts.sum()).astype(np.int32),
                             counts))
        blocks.append(per_coil)
    acc = mpisim.sysmat._CoilRows(3, capacity, 8)
    for per_coil in blocks:
        acc.append(per_coil)
    assert acc.nnz == [sum(b[k][0].size for b in blocks) for k in range(3)]
    data, indices, indptr = acc.stacked()
    for got, part in ((data, 0), (indices, 1)):
        want = np.concatenate([b[k][part] for k in range(3) for b in blocks])
        assert got.dtype == want.dtype and np.array_equal(got, want)
    counts = np.concatenate([b[k][2] for k in range(3) for b in blocks])
    assert np.array_equal(indptr, np.concatenate([[0], np.cumsum(counts)]))


@pytest.mark.parametrize("workers", [1, 2])
def test_nnz_cap_stops_the_build_at_its_running_count(scene, matrix_x, monkeypatch,
                                                      workers):
    # an estimate under the cap lets assembly start; the count that passes it
    # stops the build long before its last block, and its pool with it
    model, grid, config, approx = scene
    monkeypatch.setattr(mpisim.sysmat, "_estimate_nnz", lambda *args: 0)
    stats = _counting_sparse_weights(monkeypatch)
    before = {t for t in threading.enumerate()
              if t.name.startswith("ThreadPoolExecutor")}
    with pytest.raises(ResourceCapError, match="one coil"):
        build_system_matrix(model, approx, [coil_along("x")], config, grid,
                            subsampling=2, nnz_cap=matrix_x.nnz // 2,
                            n_workers=workers, block=1)
    assert stats["calls"] < 0.75 * config.n_samples
    assert {t for t in threading.enumerate()
            if t.name.startswith("ThreadPoolExecutor")} <= before


def test_config_hash_sensitivity(scene):
    model, grid, config, approx = scene
    coil = coil_along("x")
    base = config_hash(model, approx, grid, config, coil, subsampling=2)
    assert base == config_hash(
        model, approx, grid,
        AcquisitionConfig(f_d=25e3, sample_rate=1e6, duration=4e-5), coil, 2)
    assert len(base) == 16
    # grids with identical geometry hash alike regardless of cell values
    assert config_hash(model, approx,
                       build_disc_phantom(0.010, [0.006], 0.010 / 16,
                                          centers=[(0.0, 0.0)]),
                       config, coil, 2) == base
    # everything else must move the digest: the time axis by its sample
    # count, its spacing and its t0
    other_model = build_topology("static_ffl", g=1.0, d=0.02, f_d=25e3,
                                 alpha=0.41)
    changed = [
        config_hash(other_model, approx, grid, config, coil, 2),
        config_hash(model, approx, grid, config, coil_along("y"), 2),
        config_hash(model, approx, grid, replace(config, duration=3.9e-5), coil, 2),
        config_hash(model, approx, grid,
                    replace(config, sample_rate=2e6, duration=2e-5), coil, 2),
        config_hash(model, approx, grid, replace(config, t0=1e-6), coil, 2),
        config_hash(model, approx, grid, config, coil, 1),
    ]
    assert len(set(changed + [base])) == len(changed) + 1
    params = mag.LangevinParams(m0=1.0, lam=2500.0)
    other_approx = mag.build_approx(params, mag.nodes_equidistant(19, 10e-3),
                                    10e-3, scheme="secant")
    assert config_hash(model, other_approx, grid, config, coil, 2) != base
    assert config_hash(model, approx, grid, config, coil, 2, highpass=35e3) != base


# digests stored in the headers of existing files: if one moves, every
# matrix saved before the change fails its hash check
@pytest.mark.parametrize("axis, highpass, digest", [
    ("x", None, _X_HASH),
    ("x", 35e3, _X_HP_HASH),
    ("y", None, "b5de8c9370cb8d96"),
    ("y", 35e3, "2bfa5283063b95f7"),
])
def test_config_hash_digests_are_pinned(scene, axis, highpass, digest):
    model, grid, config, approx = scene
    assert config_hash(model, approx, grid, config, coil_along(axis), 2,
                       highpass=highpass) == digest


def test_nnz_cap(scene):
    model, grid, config, approx = scene
    with pytest.raises(ResourceCapError):
        build_system_matrix(model, approx, [coil_along("x")], config,
                            grid, subsampling=2, nnz_cap=100)


def test_save_load_round_trip(scene, matrix_x, tmp_path):
    path = tmp_path / "sm.bin"
    save_system_matrix(matrix_x, path, _X_HASH)
    back = load_system_matrix(path, expected_hash=_X_HASH)
    assert (back.matrix != matrix_x.matrix).nnz == 0
    assert back.rows_per_coil == matrix_x.rows_per_coil
    assert back.coils == matrix_x.coils
    assert back.grid_dims == matrix_x.grid_dims
    assert back.highpass is None
    # a matrix with no nonzeros is a row pointer of zeros and nothing else
    empty = replace(matrix_x, matrix=sp.csr_matrix(matrix_x.shape))
    save_system_matrix(empty, path, _X_HASH)
    back = load_system_matrix(path)
    assert back.shape == matrix_x.shape and back.nnz == 0
    assert np.array_equal(back.matrix.indptr, np.zeros(matrix_x.shape[0] + 1))


def test_load_hash_mismatch_and_force(scene, matrix_x, tmp_path):
    path = tmp_path / "sm.bin"
    save_system_matrix(matrix_x, path, _X_HASH)
    with pytest.raises(HashMismatchError, match=_X_HASH):
        load_system_matrix(path, expected_hash="0" * 16)
    forced = load_system_matrix(path, expected_hash="0" * 16, force=True)
    assert (forced.matrix != matrix_x.matrix).nnz == 0
    with pytest.raises(MissingInputError):
        load_system_matrix(tmp_path / "absent.bin")
    data = path.read_bytes()
    (tmp_path / "cut.bin").write_bytes(data[:-8])
    with pytest.raises(ConfigError):
        load_system_matrix(tmp_path / "cut.bin")


_TINY_HASH = "0123456789abcdef"


def _tiny_matrix():
    dense = np.array([[1.0, 0.0, 2.0], [0.0, 3.0, 0.0], [0.0, 0.0, 4.0]])
    return SystemMatrix(matrix=sp.csr_matrix(dense), sample_rate=1e6, t0=0.0,
                        rows_per_coil=3, coils=(coil_along("x"),),
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
    {1: b"1e6 0 3"},
    {1: b"fast 0 3 none"},
    {2: b"0:1,0"},
    {2: b"0=1,0,0"},
    {3: b"3 1 1 0.001 0.001 0.001 0 0"},
    {0: b"\xff\xfe 3 4 0123456789abcdef runs 4"},
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
    {1: b"0 0 3 none"},
    # rows against rows_per_coil and the coils
    {0: b"4 3 4 0123456789abcdef runs 4"},
    {0: b"0 3 4 0123456789abcdef runs 4", 1: b"1e6 0 0 none"},
    {1: b"1e6 0 2 none"},
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
    # more columns than uint16 indices address; small chunks split rows
    # and runs across the encoder's and decoder's steps
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
    sm = replace(_tiny_matrix(), matrix=sp.csr_matrix(
        (rng.standard_normal(indptr[-1]), cells[1].astype(np.int32), indptr),
        shape=mask.shape), rows_per_coil=len(kinds), grid_dims=(cols, 1, 1))
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(mpisim.sysmat, "_CHUNK", chunk):
        path = Path(tmp) / "sm.mat"
        save_system_matrix(sm, path, _TINY_HASH)
        n_runs = int(path.read_bytes().split(b"\n")[0].split()[-1])
        back = load_system_matrix(path, expected_hash=_TINY_HASH).matrix
    assert n_runs == _runs_oracle(sm.matrix)
    for name in ("indptr", "indices", "data"):
        want, got = getattr(sm.matrix, name), getattr(back, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_load_rejects_non_finite_values(tmp_path, value):
    path = tmp_path / "sm.mat"
    save_system_matrix(_tiny_matrix(), path, _TINY_HASH)
    _rewrite(path, data=value)
    with pytest.raises(ConfigError, match="non-finite"):
        load_system_matrix(path)


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
                           1: f"1000000 0 {rows} none".encode()})
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
    back = load_system_matrix(path, expected_hash=_TINY_HASH)
    assert back.sample_rate == config.sample_rate and back.highpass is None
    assert (back.matrix != sm.matrix).nnz == 0
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
    back = load_system_matrix(path, expected_hash=_TINY_HASH)
    assert back.matrix.nnz == 4 and (back.matrix != tiny.matrix).nnz == 0


def test_save_interrupted_leaves_no_partial_file(matrix_x, tmp_path):
    path = tmp_path / "sm.mat"
    during = []

    class FailingMatrix:
        """CSR arrays whose values fail to arrive, after indptr and indices did."""

        shape, nnz = matrix_x.shape, matrix_x.nnz
        indptr, indices = matrix_x.matrix.indptr, matrix_x.matrix.indices

        @property
        def data(self):
            during.append(sorted(tmp_path.iterdir()))
            raise OSError("no space left on device")

    broken = replace(matrix_x, matrix=FailingMatrix())
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
    rhs = stack_coils(both, [tx, ty])
    n = config.n_samples
    assert np.array_equal(rhs[:n], tx.samples)
    assert np.array_equal(rhs[n:], ty.samples)
    assert np.max(np.abs(both.matrix @ grid.flat() - rhs)) < 1e-12
    with pytest.raises(ConfigError, match="one trace per coil"):
        stack_coils(both, [tx])
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
    # the loaded CSR holds the arrays the payloads were read into: no copy
    # of the nonzeros, for one file and for a stack of two
    model, grid, config, approx = scene
    my = build_system_matrix(model, approx, [coil_along("y")], config, grid,
                             subsampling=2)
    paths = _save_coil_files(tmp_path, [matrix_x, my])
    for stack in (paths[:1], paths):
        watch = _WatchedNumpy()
        monkeypatch.setattr(mpisim.sysmat, "np", watch)
        back = load_system_matrices(stack)
        monkeypatch.undo()
        _, indices, data = watch.allocated
        assert np.shares_memory(back.matrix.indices, indices)
        assert np.shares_memory(back.matrix.data, data)
        assert back.nnz == data.size > 0


def test_stacked_load_equals_the_vstack_of_single_loads(scene, matrix_x, tmp_path):
    # oracle: one load per file, stacked by scipy; an empty coil in between
    model, grid, config, approx = scene
    coils = [coil_along("x"), coil_along("y")]
    both = apply_highpass_rows(build_system_matrix(model, approx, coils, config,
                                                   grid, subsampling=2), 35e3)
    empty = replace(both.coil_block(0), matrix=sp.csr_matrix(matrix_x.shape),
                    coils=(coil_along("z"),))
    paths = _save_coil_files(tmp_path, [both.coil_block(0), empty, both.coil_block(1)])
    stacked = load_system_matrices(paths, [f"{i:016x}" for i in range(3)])
    oracle = sp.vstack([load_system_matrix(p).matrix for p in paths], format="csr")
    for part in ("indptr", "indices", "data"):
        got, want = getattr(stacked.matrix, part), getattr(oracle, part)
        assert got.dtype == want.dtype and np.array_equal(got, want), part
    assert stacked.coils == (coils[0], coil_along("z"), coils[1])
    assert stacked.shape == (3 * config.n_samples, grid.n_cells)
    assert stacked.rows_per_coil == config.n_samples
    assert stacked.highpass == 35e3 and stacked.grid_meta_matches(grid)
    # the one-file loader is the stacked loader with one path
    one = load_system_matrix(paths[0], expected_hash=f"{0:016x}")
    assert (one.matrix != both.matrix[:config.n_samples]).nnz == 0
    with pytest.raises(ConfigError, match="at least one"):
        load_system_matrices([])


@pytest.mark.parametrize("flaw", ["truncated", "hash", "rows", "t0"])
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
    hashes = [f"{0:016x}", "f" * 16 if flaw == "hash" else f"{1:016x}"]
    error, message = {"truncated": (ConfigError, "truncated"),
                      "hash": (HashMismatchError, "does not match"),
                      "rows": (ConfigError, "rows_per_coil not as in"),
                      "t0": (ConfigError, "t0 not as in")}[flaw]
    monkeypatch.setattr(mpisim.sysmat, "np", _WatchedNumpy(refuse=True))
    with pytest.raises(error, match=message) as exc:
        load_system_matrices(paths, hashes)
    assert str(paths[1]) in str(exc.value)


def test_highpass_rows_commutes(scene, matrix_x):
    model, grid, config, approx = scene
    cutoff = 35e3
    filtered = apply_highpass_rows(matrix_x, cutoff)
    assert filtered.highpass == cutoff
    assert filtered.matrix is matrix_x.matrix  # stored sparse, unfiltered
    assert matrix_x.operator() is matrix_x.matrix
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
        filtered = apply_highpass_rows(build_system_matrix(
            model, approx, [coil_along("x"), coil_along("y")], config, grid,
            subsampling=2), 35e3)
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
    save_system_matrix(filtered, path, _X_HP_HASH)
    back = load_system_matrix(path, expected_hash=_X_HP_HASH)
    assert back.highpass == filtered.highpass
    assert back.nnz == matrix_x.nnz
    assert sp.issparse(back.matrix)
    x = np.random.default_rng(7).normal(size=filtered.shape[1])
    assert np.array_equal(back.operator() @ x, filtered.operator() @ x)


def test_stack_rejects_mixed_filtering(scene, matrix_x, tmp_path, monkeypatch):
    # the stacked load checks the second header before any payload
    paths = _save_coil_files(tmp_path, [apply_highpass_rows(matrix_x, 35e3),
                                        replace(matrix_x, coils=(coil_along("y"),))])
    monkeypatch.setattr(mpisim.sysmat, "np", _WatchedNumpy(refuse=True))
    with pytest.raises(ConfigError, match="highpass not as in"):
        load_system_matrices(paths)


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

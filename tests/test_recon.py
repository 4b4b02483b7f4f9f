"""Least-squares solver behavior and image metrics."""

import numpy as np
import pytest
import scipy.sparse as sp

from mpisim.errors import ConfigError
from mpisim.phantom import empty_grid
from mpisim.recon import (
    LsqrOptions,
    LsqrResult,
    lsqr_solve,
    nrmse,
    optimal_scale,
)


def well_conditioned(m=60, n=30, seed=3):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(m, n)) + 3.0 * np.eye(m, n)
    x = rng.normal(size=n)
    return a, x


def test_exact_recovery_against_direct_solve():
    a, x_true = well_conditioned()
    b = a @ x_true
    res = lsqr_solve(a, b, LsqrOptions(max_iterations=200, atol=1e-14,
                                       btol=1e-14))
    oracle = np.linalg.lstsq(a, b, rcond=None)[0]
    assert np.linalg.norm(res.x - oracle) / np.linalg.norm(oracle) < 1e-10
    assert res.stop_reason == "converged"
    assert res.residuals[-1] < 1e-10 * np.linalg.norm(b)


def test_residual_history_monotone():
    a, x_true = well_conditioned(m=80, n=50, seed=11)
    b = a @ x_true + 0.05 * np.random.default_rng(0).normal(size=80)
    res = lsqr_solve(a, b, LsqrOptions(max_iterations=40))
    assert res.residuals.size == res.iterations + 1
    assert res.residuals[0] == pytest.approx(np.linalg.norm(b))
    assert np.all(np.diff(res.residuals) <= 1e-12 * res.residuals[0])
    # recorded phibar matches the true residual norm at the final iterate
    assert res.residuals[-1] == pytest.approx(
        np.linalg.norm(a @ res.x - b), rel=1e-8)


def test_fixed_iteration_stop():
    a, x_true = well_conditioned(m=100, n=70, seed=5)
    b = a @ x_true + 0.1 * np.random.default_rng(1).normal(size=100)
    res = lsqr_solve(a, b, LsqrOptions(max_iterations=7))
    assert res.iterations == 7
    assert res.stop_reason == "max_iterations"
    again = lsqr_solve(a, b, LsqrOptions(max_iterations=7))
    assert np.array_equal(res.x, again.x)  # deterministic


def test_sparse_and_wrapper_inputs():
    a, x_true = well_conditioned()
    b = a @ x_true
    opts = LsqrOptions(max_iterations=60)
    dense = lsqr_solve(a, b, opts)
    sparse = lsqr_solve(sp.csr_matrix(a), b, opts)
    assert np.allclose(dense.x, sparse.x, atol=1e-12)


def test_zero_rhs_and_zero_operator():
    res = lsqr_solve(np.zeros((5, 3)), np.zeros(5))
    assert res.stop_reason == "zero_rhs" and np.all(res.x == 0)
    res2 = lsqr_solve(np.zeros((5, 3)), np.ones(5))
    assert res2.stop_reason == "zero_operator"
    assert np.all(res2.x == 0)
    with pytest.raises(ConfigError):
        lsqr_solve(np.eye(4), np.ones(3))
    with pytest.raises(ConfigError):
        LsqrOptions(max_iterations=-1)


@pytest.mark.parametrize("tolerances", [{"atol": -1.0}, {"btol": -1e-8},
                                        {"atol": np.nan}])
def test_negative_stopping_tolerance_is_rejected(tolerances):
    with pytest.raises(ConfigError, match="atol >= 0 and btol >= 0"):
        LsqrOptions(**tolerances)
    assert LsqrOptions(atol=0.0, btol=0.0).atol == 0.0


def test_lsqr_scale_equivariance():
    a, x_true = well_conditioned(seed=8)
    b = a @ x_true
    opts = LsqrOptions(max_iterations=12)
    base = lsqr_solve(a, b, opts)
    scaled = lsqr_solve(a, 10.0 * b, opts)
    assert np.allclose(scaled.x, 10.0 * base.x, rtol=1e-12)


def test_optimal_scale_closed_form():
    rng = np.random.default_rng(2)
    a = rng.normal(size=200)
    b = rng.normal(size=200)
    alpha = optimal_scale(a, b)
    assert alpha == pytest.approx((a @ b) / (a @ a))
    # alpha minimizes the misfit: perturbing it can only increase the error
    best = np.linalg.norm(alpha * a - b)
    for eps in (-1e-3, 1e-3):
        assert np.linalg.norm((alpha + eps) * a - b) >= best
    assert optimal_scale(np.zeros(5), b[:5]) == 0.0
    assert optimal_scale(2.0 * b, b) == pytest.approx(0.5)


def test_nrmse_contract():
    ref = np.array([3.0, 4.0])
    assert nrmse(ref, ref) == 0.0
    assert nrmse(np.zeros(2), ref) == 1.0
    assert nrmse(np.array([3.0, 4.0 + 5.0]), ref) == pytest.approx(1.0)
    with pytest.raises(ConfigError):
        nrmse(np.zeros(3), ref)
    with pytest.raises(ConfigError):
        nrmse(ref, np.zeros(2))


def test_nrmse_on_grids():
    g = empty_grid(0.01, 0.001)
    ref = g.with_values(np.ones(g.n_cells))
    rec = g.with_values(np.full(g.n_cells, 1.1))
    assert nrmse(rec, ref) == pytest.approx(0.1)
    other = empty_grid(0.01, 0.002)
    with pytest.raises(ConfigError):
        nrmse(other.with_values(np.ones(other.n_cells)), ref)


def test_optimal_scale_checks_what_nrmse_checks():
    # one check for both metrics: grids of another geometry, arrays of
    # another size
    g = empty_grid(0.01, 0.001)
    ref = g.with_values(np.ones(g.n_cells))
    other = empty_grid(0.01, 0.002)
    for metric in (nrmse, optimal_scale):
        with pytest.raises(ConfigError, match="geometry"):
            metric(other.with_values(np.ones(other.n_cells)), ref)
        with pytest.raises(ConfigError, match="shape"):
            metric(np.ones(3), np.ones(2))


def test_result_defaults():
    r = LsqrResult(x=np.zeros(3))
    assert r.iterations == 0
    assert r.stop_reason == "max_iterations"

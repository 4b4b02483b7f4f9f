"""Langevin magnetization law and its staircase approximation."""

import numpy as np
import pytest

from mpisim import (
    ConfigError,
    LangevinParams,
    build_approx,
    l1_functional,
    langevin,
    langevin_derivative,
    mbar,
    mbar_prime,
    mbar_second,
    nodes_equidistant,
    nodes_l1_optimal,
    sup_second_derivative,
)
from mpisim.magnetization import _SECOND_SERIES_CUTOFF, _l1_gradient

# coth(5) - 1/5, evaluated once with mpmath at 30 digits and frozen here
L_OF_5 = 0.80009080398201938


def test_langevin_known_values():
    assert langevin(0.0) == 0.0
    assert langevin(5.0) == pytest.approx(L_OF_5, abs=1e-15)
    # odd function
    xs = np.linspace(0.1, 40.0, 57)
    np.testing.assert_allclose(langevin(-xs), -langevin(xs), rtol=0, atol=1e-15)
    # saturation: L(x) ~ 1 - 1/x for large x
    assert langevin(100.0) == pytest.approx(1.0 - 1.0 / 100.0, abs=1e-6)


def test_langevin_series_matches_direct_form_near_cutoff():
    # the small-|x| series branch must join the coth form smoothly
    xs = np.linspace(1e-4, 0.5, 400)
    direct = 1.0 / np.tanh(xs) - 1.0 / xs
    np.testing.assert_allclose(langevin(xs), direct, rtol=0, atol=1e-12)


def test_langevin_derivative_at_zero_exact():
    assert langevin_derivative(0.0) == pytest.approx(1.0 / 3.0, abs=0)


def test_langevin_derivative_centered_difference():
    rng = np.random.default_rng(7)
    xs = rng.uniform(-50.0, 50.0, 300)
    xs = xs[np.abs(xs) > 1e-3]
    h = 1e-4
    fd = (langevin(xs + h) - langevin(xs - h)) / (2.0 * h)
    np.testing.assert_allclose(langevin_derivative(xs), fd, rtol=0, atol=1e-6)


def test_langevin_derivative_large_argument_no_overflow():
    with np.errstate(over="raise"):
        out = langevin_derivative(np.array([200.0, 400.0, 1e6]))
    np.testing.assert_allclose(out, [1 / 200.0**2, 1 / 400.0**2, 1e-12], rtol=1e-12)


def test_mbar_scaling_and_saturation():
    params = LangevinParams(m0=2.5, lam=800.0)
    assert mbar(params, 0.0) == 0.0
    assert mbar_prime(params, 0.0) == pytest.approx(2.5 * 800.0 / 3.0, rel=1e-14)
    # saturation to m0
    assert mbar(params, 1.0) == pytest.approx(2.5, rel=1e-2)
    # chain rule: mbar'(B) = m0 lam L'(lam B)
    b = 0.007
    assert mbar_prime(params, b) == pytest.approx(
        2.5 * 800.0 * langevin_derivative(800.0 * b), rel=1e-14)


def test_params_validation():
    with pytest.raises(ConfigError):
        LangevinParams(m0=-1.0, lam=100.0)
    with pytest.raises(ConfigError):
        LangevinParams(m0=1.0, lam=0.0)


def test_nodes_equidistant_spacing():
    nodes = nodes_equidistant(29, 0.010)
    assert nodes.shape == (29,)
    assert nodes[0] == pytest.approx(0.010 / 30)
    np.testing.assert_allclose(np.diff(nodes), 0.010 / 30, rtol=1e-12)
    assert nodes[-1] < 0.010


def test_nodes_validation():
    with pytest.raises(ConfigError):
        nodes_equidistant(0, 0.01)
    with pytest.raises(ConfigError):
        nodes_equidistant(5, -0.01)
    params = LangevinParams(m0=1.0, lam=200.0)
    with pytest.raises(ConfigError):
        build_approx(params, [0.005, 0.002], 0.01)  # not increasing
    with pytest.raises(ConfigError):
        build_approx(params, [0.005, 0.02], 0.01)  # beyond b


def test_secant_antiderivative_matches_mbar_at_ladder():
    # chord slopes telescope: the staircase antiderivative hits mbar exactly
    # at every breakpoint
    params = LangevinParams(m0=1.0, lam=1600.0)
    ap = build_approx(params, nodes_equidistant(7, 0.010), 0.010, scheme="secant")
    ladder = np.asarray(ap.ladder)
    np.testing.assert_allclose(
        ap.eval_antiderivative(ladder), mbar(params, ladder),
        rtol=0, atol=1e-15)


def test_tangent_slopes():
    params = LangevinParams(m0=1.0, lam=1600.0)
    ap = build_approx(params, nodes_equidistant(7, 0.010), 0.010, scheme="tangent")
    ladder = np.asarray(ap.ladder)
    mids = (ladder[:-1] + ladder[1:]) / 2.0
    expect = mbar_prime(params, mids)
    expect[0] = mbar_prime(params, 0.0)
    np.testing.assert_allclose(ap.slopes, expect, rtol=1e-14)


def test_unknown_scheme_rejected():
    params = LangevinParams(m0=1.0, lam=100.0)
    with pytest.raises(ConfigError):
        build_approx(params, nodes_equidistant(3, 0.01), 0.01, scheme="spline")
    with pytest.raises(ConfigError):
        l1_functional(params, nodes_equidistant(3, 0.01), 0.01, scheme="spline")
    with pytest.raises(ConfigError):
        nodes_l1_optimal(3, 0.01, params, scheme="spline")


def test_staircase_even_and_zero_beyond_threshold():
    params = LangevinParams(m0=1.0, lam=1600.0)
    ap = build_approx(params, nodes_equidistant(9, 0.010), 0.010)
    xs = np.array([0.0, 0.0031, 0.0099])
    np.testing.assert_allclose(ap.eval(-xs), ap.eval(xs))
    assert ap.eval(0.010) == 0.0
    assert ap.eval(0.5) == 0.0
    # antiderivative: odd, constant beyond b
    assert ap.eval_antiderivative(-0.004) == pytest.approx(
        -ap.eval_antiderivative(0.004), rel=1e-14)
    plateau = ap.eval_antiderivative(0.010)
    assert ap.eval_antiderivative(3.0) == pytest.approx(plateau, rel=1e-14)


def test_staircase_constant_within_interval():
    params = LangevinParams(m0=1.0, lam=1600.0)
    ap = build_approx(params, nodes_equidistant(4, 0.010), 0.010)
    ladder = np.asarray(ap.ladder)
    for k in range(len(ap.slopes)):
        inside = np.linspace(ladder[k], ladder[k + 1], 7, endpoint=False)
        np.testing.assert_allclose(ap.eval(inside), ap.slopes[k])


def _sup_error(params, ap, kind):
    xs = np.linspace(0.0, ap.threshold, 30001, endpoint=False)
    if kind == "derivative":
        return float(np.max(np.abs(mbar_prime(params, xs) - ap.eval(xs))))
    return float(np.max(np.abs(mbar(params, xs)
                               - ap.eval_antiderivative(xs))))


def test_error_bounds_single_case():
    # deeper N/scheme/node grid runs in the acceptance suite
    params = LangevinParams(m0=1.0, lam=1600.0)
    b = 0.010
    sup2 = sup_second_derivative(params, b)
    ap = build_approx(params, nodes_equidistant(7, b), b, scheme="secant")
    ladder = np.asarray(ap.ladder)
    spacing = np.diff(ladder)
    assert _sup_error(params, ap, "derivative") <= sup2 * spacing.max()
    assert _sup_error(params, ap, "antiderivative") <= sup2 * np.sum(spacing**2)


def test_mbar_second_matches_difference_of_mbar_prime():
    params = LangevinParams(m0=2.0, lam=1600.0)
    assert mbar_second(params, 0.0) == 0.0
    bs = np.geomspace(1e-9, 1.0, 300)
    np.testing.assert_array_equal(mbar_second(params, -bs), -mbar_second(params, bs))
    assert np.all(mbar_second(params, bs) < 0)
    # lam b from 0.02 to 500: the series branch, the closed form and the
    # 1/b^3 tail; below that the difference of mbar' drowns in rounding
    bs = np.geomspace(0.02, 500.0, 200) / params.lam
    h = 1e-3 * bs
    fd = (mbar_prime(params, bs + h) - mbar_prime(params, bs - h)) / (2.0 * h)
    np.testing.assert_allclose(mbar_second(params, bs), fd, rtol=1e-5, atol=0)
    # the series branch joins the closed form at its cutoff
    edge = _SECOND_SERIES_CUTOFF / params.lam * np.array([1.0 - 1e-9, 1.0 + 1e-9])
    below, above = mbar_second(params, edge)
    assert below == pytest.approx(above, rel=1e-8)
    # near the origin mbar'' = -2 m0 lam^3 b / 15 to leading order
    tiny = np.array([1e-12, 1e-9, 1e-8])
    np.testing.assert_allclose(mbar_second(params, tiny),
                               -2.0 * params.m0 * params.lam ** 3 * tiny / 15.0,
                               rtol=1e-9)


def _sampled_l1_error(params, nodes, b, scheme, samples=200001):
    """Trapezoid over |mbar' - staircase|, the staircase as l1_functional
    defines it, and the rule's error bound h * sum of the staircase's jumps."""
    ladder = np.concatenate([[0.0], nodes, [b]])
    lo, hi = ladder[:-1], ladder[1:]
    if scheme == "secant":
        slopes = (mbar(params, hi) - mbar(params, lo)) / (hi - lo)
    else:
        slopes = mbar_prime(params, (lo + hi) / 2.0)
    xs = np.linspace(0.0, b, samples)
    stair = slopes[np.clip(np.searchsorted(ladder, xs, side="right") - 1,
                           0, len(slopes) - 1)]
    error = float(np.trapezoid(np.abs(mbar_prime(params, xs) - stair), xs))
    bound = (xs[1] - xs[0]) * float(np.sum(np.abs(np.diff(slopes))))
    return error, bound


# The L1-node configurations the acceptance criteria and the l1_sweep
# benchmark use (criteria 4 and 9, threshold_b sweep), plus a mild-lam case.
L1_CASES = [("tangent", n, 0.010, 1600.0) for n in (4, 7, 8, 16, 29, 32)] + [
    ("tangent", 7, 0.010, 200.0),
    ("secant", 7, 0.004, 1600.0),
    ("secant", 7, 0.010, 1600.0),
]


@pytest.mark.parametrize("scheme,n,b,lam", L1_CASES)
def test_l1_functional_and_optimal_nodes(scheme, n, b, lam):
    params = LangevinParams(m0=1.0, lam=lam)
    eq = nodes_equidistant(n, b)
    opt = nodes_l1_optimal(n, b, params, scheme=scheme)
    assert opt.shape == (n,)
    assert np.all(np.diff(opt) > 0)
    assert opt[0] > 0 and opt[-1] < b
    ladder = np.concatenate([[0.0], opt, [b]])
    assert np.max(np.abs(_l1_gradient(params, ladder, scheme))) <= 1e-10 * lam
    f_eq = l1_functional(params, eq, b, scheme)
    f_opt = l1_functional(params, opt, b, scheme)
    assert 0 < f_opt <= f_eq
    # a local minimum: no single node moves downhill
    for k in range(n):
        for sign in (-1.0, 1.0):
            moved = opt.copy()
            moved[k] += sign * 1e-6 * b
            assert l1_functional(params, moved, b, scheme) >= f_opt
    # the closed form agrees with the sampled oracle, at both node sets
    for nodes, value in ((eq, f_eq), (opt, f_opt)):
        sampled, bound = _sampled_l1_error(params, nodes, b, scheme)
        assert abs(value - sampled) <= bound


@pytest.mark.parametrize("scheme", ["tangent", "secant"])
def test_l1_gradient_matches_difference(scheme):
    params = LangevinParams(m0=1.0, lam=1600.0)
    b = 0.010
    rng = np.random.default_rng(3)
    nodes = np.sort(rng.uniform(0.0, b, 9))
    ladder = np.concatenate([[0.0], nodes, [b]])
    h = 1e-6 * b
    fd = np.empty_like(nodes)
    for k in range(nodes.size):
        up, down = nodes.copy(), nodes.copy()
        up[k] += h
        down[k] -= h
        fd[k] = (l1_functional(params, up, b, scheme)
                 - l1_functional(params, down, b, scheme)) / (2.0 * h)
    np.testing.assert_allclose(_l1_gradient(params, ladder, scheme), fd,
                               rtol=1e-6, atol=1e-8 * params.lam)


def test_sup_second_derivative_scales():
    p1 = LangevinParams(m0=1.0, lam=100.0)
    p2 = LangevinParams(m0=3.0, lam=100.0)
    s1 = sup_second_derivative(p1, 0.05)
    assert s1 > 0
    assert sup_second_derivative(p2, 0.05) == pytest.approx(3.0 * s1, rel=1e-12)

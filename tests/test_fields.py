"""Spherical-harmonic field models: basis functions, topologies, loci."""

import logging
import math

import numpy as np
import pytest
import scipy.special

from mpisim import (
    ConfigError,
    FieldEvaluator,
    build_topology,
    eval_field,
    eval_field_dt,
    eval_harmonic_polynomial,
    eval_spherical_harmonic,
    ffl_locus,
    ffp_position,
    lfv_mask,
    load_field_coefficients,
    perturb_field,
    write_field_coefficients,
    empty_grid,
)
from mpisim.fields import (
    FieldModel,
    SHTerm,
    TimeModulation,
    assoc_legendre,
    ffl_half_angle,
    harmonic_gradient_bound,
)


def test_assoc_legendre_against_scipy():
    # scipy's lpmv carries the Condon-Shortley phase; ours does not
    xs = np.linspace(-0.999, 0.999, 41)
    for l in range(7):
        for m in range(l + 1):
            expect = (-1.0) ** m * scipy.special.lpmv(m, l, xs)
            np.testing.assert_allclose(
                assoc_legendre(l, m, xs), expect, rtol=1e-12, atol=1e-12,
                err_msg=f"l={l} m={m}")


def _harmonic_gradients(l, m, pts, step):
    """Central-difference gradient of p_lm at pts, shape (len(pts), 3)."""
    grad = np.empty_like(pts)
    for a in range(3):
        e = np.zeros(3)
        e[a] = step
        grad[:, a] = (eval_harmonic_polynomial(l, m, pts + e)
                      - eval_harmonic_polynomial(l, m, pts - e)) / (2 * step)
    return grad


def test_harmonic_gradient_bound():
    radius = 0.07
    assert harmonic_gradient_bound(0, radius) == 0.0
    assert harmonic_gradient_bound(1, radius) == 1.0
    dirs = np.random.default_rng(8).normal(size=(4000, 3))
    sphere = radius * dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
    for l in range(1, 5):
        bound = harmonic_gradient_bound(l, radius)
        sq = np.zeros(len(sphere))
        sup = 0.0
        for m in range(-l, l + 1):
            norms = np.linalg.norm(_harmonic_gradients(l, m, sphere, 1e-5 * radius),
                                   axis=1)
            assert norms.max() <= bound * (1 + 1e-8), (l, m)
            sq += norms ** 2
            sup = max(sup, norms.max())
        # the identity behind the bound, and how loose it is: the sampled
        # sup is l R^(l-1), a factor sqrt((2l+1)/l) below G_l for l >= 2
        np.testing.assert_allclose(sq, l * (2 * l + 1) * radius ** (2 * l - 2),
                                   rtol=1e-8)
        assert sup >= 0.99 * l * radius ** (l - 1)


def test_spherical_harmonic_low_degree_closed_forms():
    rng = np.random.default_rng(3)
    theta = rng.uniform(0.0, np.pi, 50)
    phi = rng.uniform(0.0, 2 * np.pi, 50)
    st, ct = np.sin(theta), np.cos(theta)
    cases = {
        (0, 0): np.ones_like(theta),
        (1, 1): st * np.cos(phi),
        (1, 0): ct,
        (1, -1): st * np.sin(phi),
        (2, 2): math.sqrt(3) / 2 * st**2 * np.cos(2 * phi),
        (2, 1): math.sqrt(3) * st * ct * np.cos(phi),
        (2, 0): 0.5 * (3 * ct**2 - 1),
        (2, -1): math.sqrt(3) * st * ct * np.sin(phi),
        (2, -2): math.sqrt(3) / 2 * st**2 * np.sin(2 * phi),
    }
    for (l, m), expect in cases.items():
        np.testing.assert_allclose(
            eval_spherical_harmonic(l, m, theta, phi), expect,
            rtol=1e-12, atol=1e-12, err_msg=f"l={l} m={m}")


def test_harmonic_polynomial_cartesian_forms():
    rng = np.random.default_rng(4)
    pts = rng.uniform(-1.0, 1.0, (30, 3))
    x, y, z = pts.T
    cases = {
        (0, 0): np.ones(30),
        (1, 1): x,
        (1, 0): z,
        (1, -1): y,
        (2, 2): math.sqrt(3) / 2 * (x**2 - y**2),
        (2, 1): math.sqrt(3) * x * z,
        (2, 0): z**2 - 0.5 * x**2 - 0.5 * y**2,
        (2, -1): math.sqrt(3) * y * z,
        (2, -2): math.sqrt(3) * x * y,
    }
    for (l, m), expect in cases.items():
        np.testing.assert_allclose(
            eval_harmonic_polynomial(l, m, pts), expect,
            rtol=1e-12, atol=1e-12, err_msg=f"l={l} m={m}")


def test_harmonic_polynomial_consistent_with_spherical_form():
    # p_lm(r) = r^l Y_lm(theta, phi)
    rng = np.random.default_rng(5)
    pts = rng.uniform(-0.5, 0.5, (40, 3))
    r = np.sqrt(np.sum(pts**2, axis=1))
    theta = np.arccos(pts[:, 2] / r)
    phi = np.arctan2(pts[:, 1], pts[:, 0])
    for l in range(5):
        for m in range(-l, l + 1):
            np.testing.assert_allclose(
                eval_harmonic_polynomial(l, m, pts),
                r**l * eval_spherical_harmonic(l, m, theta, phi),
                rtol=1e-10, atol=1e-13, err_msg=f"l={l} m={m}")


def test_rotating_ffl_term_table():
    g, d = 1.0, 0.1
    model = build_topology("rotating_ffl", g=g, d=d, f_d=25e3, f_rot=1e3)
    cells = sorted((t.component, t.degree, t.order, t.coefficient,
                    t.modulation.kind) for t in model.terms)
    assert len(cells) == 9
    assert cells == sorted([
        (1, 1, 1, -g, "const"), (2, 1, -1, -g, "const"), (3, 1, 0, 2 * g, "const"),
        (1, 1, 1, g, "cos"), (2, 1, -1, -g, "cos"),
        (1, 1, -1, g, "sin"), (2, 1, 1, g, "sin"),
        (1, 0, 0, d, "sinsin"), (2, 0, 0, d, "sincos"),
    ])


def test_topology_validation():
    with pytest.raises(ConfigError):
        build_topology("helix", g=1.0)
    with pytest.raises(ConfigError):
        build_topology("rotating_ffl", g=-1.0, d=0.1, f_d=25e3, f_rot=1e3)
    with pytest.raises(ConfigError):
        build_topology("lissajous_ffp", g=1.0, d=(0.01, 0.01), f=(1, 2, 3))
    with pytest.raises(ConfigError):
        build_topology("static_ffl", g=1.0, d=0.1, f_d=25e3, alpha=0.0, junk=1)


def test_lissajous_ffp_zero_locus():
    model = build_topology(
        "lissajous_ffp", g=1.0, d=(0.01, 0.01, 0.01),
        f=(25e3, 25e3 * 33 / 32, 25e3 * 34 / 33))
    rng = np.random.default_rng(11)
    for t in rng.uniform(0.0, 1e-3, 25):
        b = eval_field(model, ffp_position(model, t), t)
        assert np.linalg.norm(b) < 1e-12


def test_ffl_zero_locus_rotating_and_static():
    rng = np.random.default_rng(12)
    for model in (
        build_topology("rotating_ffl", g=1.0, d=0.1, f_d=25e3, f_rot=1e3,
                       validity_radius=0.1),
        build_topology("static_ffl", g=1.0, d=0.1, f_d=25e3, alpha=0.7,
                       validity_radius=0.1),
    ):
        for t in rng.uniform(0.0, 1e-3, 10):
            locus = ffl_locus(model, t)
            assert abs(np.linalg.norm(locus.direction) - 1.0) < 1e-14
            for s in rng.uniform(-0.05, 0.05, 5):
                p = locus.point + s * locus.direction
                b = eval_field(model, p, t)
                assert np.linalg.norm(b) < 1e-12


def test_ffl_locus_offset_follows_drive():
    model = build_topology("rotating_ffl", g=1.0, d=0.1, f_d=25e3, f_rot=1e3)
    t = 7.3e-5
    locus = ffl_locus(model, t)
    beta = ffl_half_angle(model, t)
    normal = np.array([math.sin(beta), -math.cos(beta), 0.0])
    s = 0.1 / 2.0 * math.sin(2 * math.pi * 25e3 * t)
    np.testing.assert_allclose(locus.point, s * normal, atol=1e-15)
    assert abs(np.dot(locus.direction, normal)) < 1e-14


def test_field_dt_matches_finite_difference():
    model = perturb_field(
        build_topology("rotating_ffl", g=1.0, d=0.1, f_d=25e3, f_rot=1e3,
                       validity_radius=0.1),
        seed=2, magnitude=0.3)
    rng = np.random.default_rng(13)
    pts = rng.uniform(-0.05, 0.05, (8, 3))
    times = rng.uniform(0.0, 1e-3, 6)
    h = 1e-9
    ev = FieldEvaluator(model, pts)
    for t in times:
        fd = (ev.field(t + h)[:, :, 0] - ev.field(t - h)[:, :, 0]) / (2 * h)
        an = ev.field_dt(float(t))[:, :, 0]
        np.testing.assert_allclose(an, fd, rtol=1e-5, atol=1e-4 * np.abs(an).max())


def test_eval_field_point_matches_evaluator():
    model = build_topology("rotating_ffl", g=1.0, d=0.1, f_d=25e3, f_rot=1e3)
    r, t = np.array([0.01, -0.02, 0.005]), 3.7e-5
    ev = FieldEvaluator(model, r.reshape(1, 3))
    np.testing.assert_allclose(eval_field(model, r, t), ev.field(t)[:, 0, 0])
    np.testing.assert_allclose(eval_field_dt(model, r, t), ev.field_dt(t)[:, 0, 0])


def _perturbed_rotating_ffl():
    return perturb_field(
        build_topology("rotating_ffl", g=1.0, d=0.1, f_d=25e3, f_rot=1e3,
                       validity_radius=0.1),
        seed=1, magnitude=0.35)


def _z_only_table():
    return FieldModel(terms=(
        SHTerm(3, 1, 0, 2.0, TimeModulation("const")),
        SHTerm(3, 2, 1, 0.3, TimeModulation("sin", f1=25e3, phase=0.2)),
        SHTerm(3, 1, 0, 0.1, TimeModulation("sincos", f1=25e3, f2=1e3)),
    ), validity_radius=0.1)


@pytest.mark.parametrize("make_model", [_perturbed_rotating_ffl, _z_only_table])
def test_evaluator_matches_term_by_term_sum(make_model):
    model = make_model()
    rng = np.random.default_rng(21)
    pts = rng.uniform(-0.05, 0.05, (30, 3))
    times = rng.uniform(0.0, 1e-3, 7)
    want_b = np.zeros((3, len(pts), times.size))
    want_dt = np.zeros_like(want_b)
    for t in model.terms:
        p = eval_harmonic_polynomial(t.degree, t.order, pts)
        want_b[t.component - 1] += t.coefficient * np.outer(p, t.modulation.eval(times))
        want_dt[t.component - 1] += t.coefficient * np.outer(
            p, t.modulation.eval_dt(times))
    ev = FieldEvaluator(model, pts)
    for got, want in ((ev.field(times), want_b), (ev.field_dt(times), want_dt)):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    distinct = {(t.degree, t.order) for t in model.terms}
    assert len(ev.harmonics) == len(distinct) == len(ev.polys)
    # a harmonic repeats within a component, so the table merges terms
    per_component = [[(t.degree, t.order) for t in model.terms if t.component == j]
                     for j in (1, 2, 3)]
    assert any(len(set(lms)) < len(lms) for lms in per_component)


def test_validity_radius_warning(caplog):
    model = build_topology("rotating_ffl", g=1.0, d=0.1, f_d=25e3, f_rot=1e3,
                           validity_radius=0.02)
    pts = np.array([[0.0, 0.0, 0.0], [0.05, 0.0, 0.0]])
    with caplog.at_level(logging.WARNING, logger="mpisim.fields"):
        FieldEvaluator(model, pts)
    assert any("validity" in rec.message for rec in caplog.records)


def test_perturb_field_deterministic_and_scaled():
    base = build_topology("rotating_ffl", g=1.0, d=0.1, f_d=25e3, f_rot=1e3,
                          validity_radius=0.1)
    assert perturb_field(base, seed=1, magnitude=0.0) is base
    p1 = perturb_field(base, seed=1, magnitude=0.35)
    p2 = perturb_field(base, seed=1, magnitude=0.35)
    assert [(t.degree, t.order, t.coefficient) for t in p1.terms] == \
           [(t.degree, t.order, t.coefficient) for t in p2.terms]
    extra = [t for t in p1.terms if t not in base.terms]
    assert extra
    assert all(2 <= t.degree <= 4 for t in extra)
    assert all(t.component in (1, 2) for t in extra)  # z stays ideal
    with pytest.raises(ConfigError):
        perturb_field(base, seed=1, magnitude=-0.1)


def test_perturbation_magnitude_bounds_added_field():
    base = build_topology("rotating_ffl", g=1.0, d=0.1, f_d=25e3, f_rot=1e3,
                          validity_radius=0.1)
    mag = 0.35
    pert = perturb_field(base, seed=1, magnitude=mag)
    rng = np.random.default_rng(14)
    pts = 0.1 * rng.uniform(-1, 1, (200, 3)) / math.sqrt(3)
    times = np.linspace(0.0, 1e-3, 11)
    dev = FieldEvaluator(pert, pts).field(times) - FieldEvaluator(base, pts).field(times)
    # reference scale: largest degree-1 coefficient contribution at the radius
    ref = max(abs(t.coefficient) * 0.1 for t in base.terms if t.degree == 1)
    assert np.abs(dev).max() <= mag * ref * (1 + 1e-9)


def test_lfv_mask_matches_direct_magnitude():
    model = build_topology("rotating_ffl", g=1.0, d=0.1, f_d=25e3, f_rot=1e3,
                           validity_radius=0.1)
    grid = empty_grid(0.08, 0.005)
    t = 1.725e-5
    idx = lfv_mask(model, t, grid, 0.0, 0.002)
    ev = FieldEvaluator(model, grid.centers())
    mag = np.linalg.norm(ev.field(t)[:, :, 0], axis=0)
    np.testing.assert_array_equal(idx, np.flatnonzero(mag < 0.002))
    assert idx.size > 0
    with pytest.raises(ConfigError):
        lfv_mask(model, t, grid, 0.005, 0.001)


@pytest.mark.parametrize("row", [
    (4, 1, 0, 1.0),  # no such component
    (1, 1, 2, 1.0),  # |order| above the degree
    (1, 1, 0, math.inf),
])
def test_invalid_term_raises_config_error(row):
    with pytest.raises(ConfigError):
        SHTerm(*row, TimeModulation("const"))


def test_coefficient_file_round_trip(tmp_path):
    model = perturb_field(
        build_topology("rotating_ffl", g=1.0, d=0.1, f_d=25e3, f_rot=1e3,
                       validity_radius=0.1),
        seed=5, magnitude=0.2)
    path = tmp_path / "field.coeffs"
    write_field_coefficients(model, path)
    loaded = load_field_coefficients(path, validity_radius=0.1)
    assert len(loaded.terms) == len(model.terms)
    rng = np.random.default_rng(15)
    pts = rng.uniform(-0.05, 0.05, (20, 3))
    times = rng.uniform(0, 1e-3, 5)
    np.testing.assert_allclose(
        FieldEvaluator(loaded, pts).field(times),
        FieldEvaluator(model, pts).field(times), rtol=1e-12, atol=1e-15)

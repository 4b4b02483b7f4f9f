"""Spherical-harmonic field models: basis functions, topologies, loci."""

import hashlib
import logging
import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from mpisim import (
    ConfigError,
    UnsupportedTopologyError,
    FieldEvaluator,
    build_topology,
    eval_field,
    eval_harmonic_polynomial,
    eval_spherical_harmonic,
    ffl_locus,
    ffp_position,
    load_field_coefficients,
    perturb_field,
    write_field_coefficients,
)
from mpisim.fields import (
    FieldModel,
    SHTerm,
    TimeModulation,
    assoc_legendre,
    ffl_amplitude,
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


def test_ffl_amplitude():
    rotating = build_topology("rotating_ffl", g=1.0, d=0.1, f_d=25e3, f_rot=1e3)
    assert ffl_amplitude(rotating) == pytest.approx(0.05)
    static = build_topology("static_ffl", g=2.0, d=0.1, f_d=25e3, alpha=0.8)
    assert ffl_amplitude(static) == pytest.approx(0.025)
    assert ffl_half_angle(static, 123.0) == pytest.approx(0.4)
    ffp = build_topology("lissajous_ffp", g=1.0, d=(0.01, 0.01, 0.01),
                         f=(25e3, 26e3, 27e3))
    for model in (ffp, perturb_field(rotating, seed=1, magnitude=0.35)):
        with pytest.raises(UnsupportedTopologyError):
            ffl_amplitude(model)


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


def _factors_term_by_term(ev, model, times, use_dt):
    """The reference for FieldEvaluator.factors: every term's c_i h_i(t),
    its modulation evaluated anew, added in term order."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    out = np.zeros((3, len(ev.harmonics), times.size))
    for t in sorted(model.terms, key=lambda t: t.component):
        h = t.modulation.eval_dt(times) if use_dt else t.modulation.eval(times)
        out[t.component - 1, ev.harmonics.index((t.degree, t.order))] += (
            t.coefficient * h)
    return out


_TOPOLOGIES = {
    "lissajous_ffp": dict(g=1.0, d=(0.012, 0.012, 0.006), f=(25e3, 24.5e3, 26e3)),
    "line_ffp": dict(g=1.0, d=(0.012, 0.0, 0.006), f_d=25e3),
    "rotating_ffl": dict(g=1.0, d=0.04, f_d=25e3, f_rot=1e3),
    "static_ffl": dict(g=1.0, d=0.04, f_d=25e3, alpha=0.7),
}
# a few modulations, so that a drawn table repeats some of them
_MODULATIONS = [TimeModulation("const", scale=0.5), TimeModulation("sin", f1=25e3),
                TimeModulation("cos", f1=1e3, phase=0.3),
                TimeModulation("sinsin", f1=25e3, f2=1e3, scale=-1.0),
                TimeModulation("sincos", f1=24e3, f2=2e3)]
# sha256 of write_field_coefficients of each _TOPOLOGIES entry
_TOPOLOGY_TABLES = {
    "lissajous_ffp": "bfb712be557232a34f15cd262e7ad875b56ae45fa95fa0e992c16bf2f9be8068",
    "line_ffp": "cb6661f279721abcd1a3ff2ce714b9b5c8786b212088777547560a136c17985e",
    "rotating_ffl": "51b6625be79269f6119217da47da57ac6f2f0e9a034384c67002be3f9891d132",
    "static_ffl": "c904bcbbeff4cae4034d8d50897ed3d5c9e0662d8ce852f853ec4f4ada960627",
}


@pytest.mark.parametrize("kind", _TOPOLOGIES)
def test_topology_coefficient_tables_are_pinned(tmp_path, kind):
    # every term of a built-in topology, to the last bit of its text
    path = tmp_path / f"{kind}.coeffs"
    write_field_coefficients(build_topology(kind, **_TOPOLOGIES[kind]), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == _TOPOLOGY_TABLES[kind]


def test_line_ffp_is_a_one_frequency_lissajous_ffp():
    params = _TOPOLOGIES["line_ffp"]
    f_d = params["f_d"]
    line = build_topology("line_ffp", **params)
    lissajous = build_topology("lissajous_ffp", g=params["g"], d=params["d"],
                               f=(f_d,) * 3)
    assert line.terms == lissajous.terms
    rng = np.random.default_rng(31)
    pts = rng.uniform(-0.025, 0.025, (500, 3))
    times = rng.uniform(-1e-3, 1e-3, 16)
    a, b = FieldEvaluator(line, pts), FieldEvaluator(lissajous, pts)
    assert np.array_equal(a.field(times), b.field(times))
    assert np.array_equal(a.field_dt(times), b.field_dt(times))
    for t in rng.uniform(-1e-3, 1e-3, 2000):
        assert np.array_equal(ffp_position(line, t), ffp_position(lissajous, t))


@st.composite
def _coefficient_tables(draw):
    terms = []
    for _ in range(draw(st.integers(1, 12))):
        degree = draw(st.integers(0, 3))
        terms.append(SHTerm(draw(st.integers(1, 3)), degree,
                            draw(st.integers(-degree, degree)),
                            draw(st.floats(-2.0, 2.0, allow_subnormal=False)),
                            draw(st.sampled_from(_MODULATIONS))))
    return FieldModel(terms=tuple(terms), validity_radius=0.1)


@settings(max_examples=60, deadline=None)
@given(model=st.one_of(
           st.builds(perturb_field,
                     st.sampled_from(sorted(_TOPOLOGIES)).map(
                         lambda kind: build_topology(kind, **_TOPOLOGIES[kind])),
                     seed=st.integers(0, 2**32 - 1), magnitude=st.floats(0.0, 1.0)),
           _coefficient_tables()),
       n_times=st.integers(1, 130), t0=st.floats(-1e-3, 1e-3),
       use_dt=st.booleans())
def test_factors_equal_the_term_by_term_sum(model, n_times, t0, use_dt):
    # one evaluation per distinct modulation and one step per term rank
    # add the same products in the same order as the term loop
    ev = FieldEvaluator(model, np.zeros((1, 3)))
    times = t0 + np.arange(n_times) / 2e6
    got = ev.factors(times, use_dt)
    assert np.array_equal(got, _factors_term_by_term(ev, model, times, use_dt))


@pytest.mark.parametrize("use_dt", [False, True])
def test_factors_evaluate_each_distinct_modulation_once(use_dt, monkeypatch):
    model = _perturbed_rotating_ffl()
    distinct = {t.modulation for t in model.terms}
    assert len(distinct) < len(model.terms)
    calls = []
    name = "eval_dt" if use_dt else "eval"
    real = getattr(TimeModulation, name)

    def counting(self, t):
        calls.append(self)
        return real(self, t)

    monkeypatch.setattr(TimeModulation, name, counting)
    ev = FieldEvaluator(model, np.zeros((1, 3)))
    for n_times in (1, 64):
        calls.clear()
        ev.factors(np.arange(n_times) / 2e6, use_dt)
        assert len(calls) == len(distinct) and set(calls) == distinct


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
    # numpy's generator takes no negative seed: typed, also at magnitude 0
    for magnitude in (0.0, 0.35):
        with pytest.raises(ConfigError, match="seed"):
            perturb_field(base, seed=-1, magnitude=magnitude)


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


@pytest.mark.parametrize("row", [
    (4, 1, 0, 1.0),  # no such component
    (1, 1, 2, 1.0),  # |order| above the degree
    (1, 1, 0, math.inf),
])
def test_invalid_term_raises_config_error(row):
    with pytest.raises(ConfigError):
        SHTerm(*row, TimeModulation("const"))


@pytest.mark.parametrize("column, value", [
    ("f1", "nan"), ("f2", "inf"), ("phase", "inf"), ("scale", "-inf"),
])
def test_coefficient_file_rejects_a_non_finite_modulation(tmp_path, column, value):
    # a NaN f1 would make every sample's field NaN, so that an assembly
    # keeps no entry; the loader names the line, as for a bad coefficient
    row = {"f1": "25000", "f2": "1000", "phase": "0", "scale": "1", column: value}
    path = tmp_path / "field.coeffs"
    path.write_text("# component degree order coefficient kind f1 f2 phase scale\n"
                    "3 1 0 1 const 0 0 0 1\n"
                    f"1 1 1 0.1 sinsin {row['f1']} {row['f2']} {row['phase']} "
                    f"{row['scale']}\n")
    with pytest.raises(ConfigError, match="field.coeffs:3: .*must be finite"):
        load_field_coefficients(path)
    with pytest.raises(ConfigError, match="must be finite"):
        TimeModulation("sinsin", **{k: float(v) for k, v in row.items()})


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

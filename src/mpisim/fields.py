"""Magnetic field models built from solid spherical harmonics.

A field model is a sum of terms c * p_lm(r) * h(t) per spatial component,
where p_lm is the degree-l solid harmonic (Schmidt semi-normalized, no
Condon-Shortley phase) and h(t) a separable time modulation.  Built-in
topologies cover the ideal Lissajous / one-dimensional field-free-point
scanners and the rotating / static field-free-line scanner; measured or
perturbed fields load from a plain text coefficient table.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .artifacts import atomic_open, open_input
from .errors import ConfigError, UnsupportedTopologyError

log = logging.getLogger(__name__)

MU0 = 4e-7 * math.pi
TWO_PI = 2.0 * math.pi

MODULATION_KINDS = ("const", "sin", "cos", "sinsin", "sincos")


@dataclass(frozen=True)
class TimeModulation:
    """Separable time factor of one field term.

    Kinds (f1 is the drive frequency, f2 the rotation frequency):

    - ``const``:  scale
    - ``sin``:    scale * sin(2 pi f1 t + phase)
    - ``cos``:    scale * cos(2 pi f1 t + phase)
    - ``sinsin``: scale * sin(2 pi f1 t + phase) * sin(pi f2 t)
    - ``sincos``: scale * sin(2 pi f1 t + phase) * cos(pi f2 t)

    The product forms use the half-angle pi*f2*t of the line rotation.
    """

    kind: str
    f1: float = 0.0
    f2: float = 0.0
    phase: float = 0.0
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in MODULATION_KINDS:
            raise ConfigError(f"unknown modulation kind {self.kind!r}")

    def eval(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "const":
            return np.full_like(t, self.scale)
        a = TWO_PI * self.f1 * t + self.phase
        if self.kind == "sin":
            return self.scale * np.sin(a)
        if self.kind == "cos":
            return self.scale * np.cos(a)
        b = math.pi * self.f2 * t
        if self.kind == "sinsin":
            return self.scale * np.sin(a) * np.sin(b)
        return self.scale * np.sin(a) * np.cos(b)

    def eval_dt(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "const":
            return np.zeros_like(t)
        w1 = TWO_PI * self.f1
        a = w1 * t + self.phase
        if self.kind == "sin":
            return self.scale * w1 * np.cos(a)
        if self.kind == "cos":
            return -self.scale * w1 * np.sin(a)
        w2 = math.pi * self.f2
        b = w2 * t
        if self.kind == "sinsin":
            return self.scale * (w1 * np.cos(a) * np.sin(b) + w2 * np.sin(a) * np.cos(b))
        return self.scale * (w1 * np.cos(a) * np.cos(b) - w2 * np.sin(a) * np.sin(b))


@dataclass(frozen=True)
class SHTerm:
    """One solid-harmonic contribution to one field component.

    component is 1, 2 or 3 (x, y, z); coefficient is in T * m^(-degree).
    """

    component: int
    degree: int
    order: int
    coefficient: float
    modulation: TimeModulation

    def __post_init__(self):
        if self.component not in (1, 2, 3):
            raise ConfigError(f"component must be 1..3, got {self.component}")
        if self.degree < 0:
            raise ConfigError(f"degree must be >= 0, got {self.degree}")
        if abs(self.order) > self.degree:
            raise ConfigError(
                f"|order| must not exceed degree, got l={self.degree} m={self.order}")
        if not math.isfinite(self.coefficient):
            raise ConfigError(f"coefficient must be finite, got {self.coefficient}")


@dataclass
class FieldModel:
    """A time-dependent field as a finite sum of SHTerm contributions."""

    terms: tuple
    validity_radius: float = 0.05
    topology: str | None = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        self.terms = tuple(self.terms)
        if self.validity_radius <= 0:
            raise ConfigError("validity radius must be positive")

    @property
    def max_degree(self) -> int:
        return max((t.degree for t in self.terms), default=0)


@dataclass
class LineLocus:
    """A line in the z = 0 plane: direction is unit length, point lies on it."""

    direction: np.ndarray
    point: np.ndarray


def _schmidt_factor(l: int, m: int) -> float:
    if m == 0:
        return 1.0
    return math.sqrt(2.0 * math.factorial(l - m) / math.factorial(l + m))


def assoc_legendre(l: int, m: int, x):
    """Associated Legendre P_l^m without the Condon-Shortley phase.

    Upward recurrence in l at fixed m; x may be an array in [-1, 1].
    """
    if m < 0 or l < 0 or m > l:
        raise ValueError(f"need 0 <= m <= l, got l={l} m={m}")
    x = np.asarray(x, dtype=float)
    sint = np.sqrt(np.maximum(0.0, (1.0 - x) * (1.0 + x)))
    pmm = np.ones_like(x)
    for i in range(1, m + 1):
        pmm = pmm * ((2 * i - 1) * sint)
    if l == m:
        return pmm
    pm1 = x * (2 * m + 1) * pmm
    if l == m + 1:
        return pm1
    for ll in range(m + 2, l + 1):
        pm2, pm1 = pm1, (x * (2 * ll - 1) * pm1 - (ll + m - 1) * pmm) / (ll - m)
        pmm = pm2
    return pm1


def _ylm_from_cos(l: int, m: int, costheta, phi):
    am = abs(m)
    base = _schmidt_factor(l, am) * assoc_legendre(l, am, costheta)
    if m > 0:
        return base * np.cos(am * np.asarray(phi, dtype=float))
    if m < 0:
        return base * np.sin(am * np.asarray(phi, dtype=float))
    return base


def eval_spherical_harmonic(l: int, m: int, theta, phi):
    """Schmidt semi-normalized real Y_lm(theta, phi), no Condon-Shortley phase."""
    if abs(m) > l:
        raise ValueError(f"|m| must not exceed l, got l={l} m={m}")
    return _ylm_from_cos(l, m, np.cos(np.asarray(theta, dtype=float)), phi)


def eval_harmonic_polynomial(l: int, m: int, points):
    """Solid harmonic p_lm(r) = |r|^l * Y_lm evaluated at Cartesian points.

    points has shape (..., 3).  The origin is handled explicitly: p_00 = 1
    and every l >= 1 polynomial vanishes there.
    """
    if abs(m) > l:
        raise ValueError(f"|m| must not exceed l, got l={l} m={m}")
    pts = np.asarray(points, dtype=float)
    if pts.shape[-1] != 3:
        raise ValueError("points must have a trailing axis of size 3")
    rad = np.sqrt(np.sum(pts * pts, axis=-1))
    with np.errstate(invalid="ignore", divide="ignore"):
        costheta = np.where(rad > 0.0, pts[..., 2] / np.where(rad > 0, rad, 1.0), 1.0)
    phi = np.arctan2(pts[..., 1], pts[..., 0])
    return rad ** l * _ylm_from_cos(l, m, costheta, phi)


class FieldEvaluator:
    """Field and time-derivative evaluation for a fixed point set.

    The model is laid out as one table of distinct solid harmonics:
    harmonics lists each (degree, order) once, in component-major first-use
    order, and polys[k] holds harmonic k at every point, evaluated once at
    construction.  factors(times)[j, k] sums c_i h_i(t) over the terms of
    component j on harmonic k, so B_j = sum_k F[j, k] p_k.  Each call for a
    block of times is one einsum per component over the harmonics that
    component uses, summed in harmonic order for every (point, time).  A
    BLAS product would pick its kernel, and with it the summation order, by
    the number of times, so values would depend on how the times are blocked.
    """

    def __init__(self, model: FieldModel, points):
        pts = np.ascontiguousarray(np.atleast_2d(np.asarray(points, dtype=float)))
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError("points must have shape (K, 3)")
        self.model = model
        self.points = pts
        outside = int(np.count_nonzero(
            np.linalg.norm(pts, axis=1) > model.validity_radius))
        if outside:
            log.warning("%d of %d evaluation points lie outside the validity "
                        "sphere (radius %g m)", outside, len(pts),
                        model.validity_radius)
        terms = sorted(model.terms, key=lambda t: t.component)
        column = {}
        for t in terms:
            column.setdefault((t.degree, t.order), len(column))
        self.harmonics = tuple(column)
        self.polys = np.reshape(
            [eval_harmonic_polynomial(l, m, pts) for l, m in self.harmonics],
            (len(column), len(pts)))
        # (component, harmonic, coefficient, modulation) in term order
        self._terms = [(t.component - 1, column[t.degree, t.order],
                        t.coefficient, t.modulation) for t in terms]
        self._used = [sorted({k for j, k, _, _ in self._terms if j == c})
                      for c in range(3)]

    def factors(self, times, use_dt: bool = False) -> np.ndarray:
        """F[j, k, t]: c_i h_i(t) of component j's terms on harmonic k.

        Shape (3, n_harmonics, len(times)), added up in term order.  With
        use_dt the modulations are differentiated: c_i h_i'(t).
        """
        times = np.atleast_1d(np.asarray(times, dtype=float))
        out = np.zeros((3, len(self.harmonics), times.size))
        for j, k, c, mod in self._terms:
            out[j, k] += c * (mod.eval_dt(times) if use_dt else mod.eval(times))
        return out

    def _accumulate(self, times, use_dt: bool):
        fac = self.factors(times, use_dt)
        out = np.zeros((3, self.points.shape[0], fac.shape[-1]))
        for j, used in enumerate(self._used):
            if used:
                np.einsum("kp,kt->pt", self.polys[used], fac[j, used], out=out[j])
        return out

    def field(self, times):
        """B at all points for the given times, shape (3, K, len(times))."""
        return self._accumulate(times, use_dt=False)

    def field_dt(self, times):
        """dB/dt at all points for the given times, shape (3, K, len(times))."""
        return self._accumulate(times, use_dt=True)


def harmonic_gradient_bound(l: int, radius: float) -> float:
    """G_l: a bound on |grad p_lm| over the ball |r| <= radius, for every m.

    p_1m are x, z and y, so G_1 = 1 and G_0 = 0.  For l >= 2 the addition
    theorem sum_m p_lm^2 = |r|^(2l) of the Schmidt harmonics, with every
    p_lm harmonic, gives sum_m |grad p_lm|^2 = l (2l + 1) |r|^(2l - 2), so
    G_l = sqrt(l (2l + 1)) * radius^(l - 1).
    """
    if l <= 1:
        return float(l)
    return math.sqrt(l * (2 * l + 1)) * radius ** (l - 1)


def eval_field(model: FieldModel, r, t):
    """B(r, t) for points r of shape (..., 3) at scalar time t, in tesla."""
    pts = np.asarray(r, dtype=float)
    single = pts.ndim == 1
    b = FieldEvaluator(model, pts.reshape(-1, 3)).field(float(t))[:, :, 0].T
    return b[0] if single else b.reshape(pts.shape)


def _check_positive(**kw):
    for name, value in kw.items():
        if not value > 0:
            raise ConfigError(f"{name} must be positive, got {value}")


def build_topology(kind: str, **params) -> FieldModel:
    """Construct one of the built-in ideal scanner fields.

    Parameters
    ----------
    kind : str
        One of ``lissajous_ffp``, ``line_ffp``, ``rotating_ffl``,
        ``static_ffl``.
    params :
        ``g`` gradient strength in T/m for all kinds.  Point topologies take
        drive amplitudes ``d`` (3-tuple, tesla) and frequencies ``f`` (3-tuple,
        lissajous) or ``f_d`` (line).  Line topologies take scalar ``d``,
        ``f_d`` and either ``f_rot`` (rotating) or ``alpha`` (static).
        ``validity_radius`` is accepted by every kind (default 0.05 m).
    """
    radius = float(params.pop("validity_radius", 0.05))
    g = float(params.pop("g"))
    _check_positive(g=g, validity_radius=radius)
    const = TimeModulation("const")
    selection = (
        SHTerm(1, 1, 1, -g, const),
        SHTerm(2, 1, -1, -g, const),
        SHTerm(3, 1, 0, 2 * g, const),
    )

    if kind == "lissajous_ffp":
        d = tuple(float(v) for v in params.pop("d"))
        f = tuple(float(v) for v in params.pop("f"))
        if len(d) != 3 or len(f) != 3:
            raise ConfigError("lissajous_ffp needs 3-tuples d and f")
        _check_positive(f_x=f[0], f_y=f[1], f_z=f[2])
        drives = tuple(SHTerm(j + 1, 0, 0, d[j], TimeModulation("sin", f1=f[j]))
                       for j in range(3))
        model_params = {"g": g, "d": d, "f": f}
    elif kind == "line_ffp":
        d = tuple(float(v) for v in params.pop("d"))
        f_d = float(params.pop("f_d"))
        if len(d) != 3:
            raise ConfigError("line_ffp needs a 3-tuple d")
        _check_positive(f_d=f_d)
        drives = tuple(SHTerm(j + 1, 0, 0, d[j], TimeModulation("sin", f1=f_d))
                       for j in range(3))
        model_params = {"g": g, "d": d, "f_d": f_d}
    elif kind == "rotating_ffl":
        d = float(params.pop("d"))
        f_d = float(params.pop("f_d"))
        f_rot = float(params.pop("f_rot"))
        _check_positive(d=d, f_d=f_d, f_rot=f_rot)
        quad0 = TimeModulation("cos", f1=f_rot)
        quad45 = TimeModulation("sin", f1=f_rot)
        drives = (
            SHTerm(1, 1, 1, g, quad0),
            SHTerm(2, 1, -1, -g, quad0),
            SHTerm(1, 1, -1, g, quad45),
            SHTerm(2, 1, 1, g, quad45),
            SHTerm(1, 0, 0, d, TimeModulation("sinsin", f1=f_d, f2=f_rot)),
            SHTerm(2, 0, 0, d, TimeModulation("sincos", f1=f_d, f2=f_rot, scale=-1.0)),
        )
        model_params = {"g": g, "d": d, "f_d": f_d, "f_rot": f_rot}
    elif kind == "static_ffl":
        d = float(params.pop("d"))
        f_d = float(params.pop("f_d"))
        alpha = float(params.pop("alpha"))
        _check_positive(d=d, f_d=f_d)
        ca, sa = math.cos(alpha), math.sin(alpha)
        drives = (
            SHTerm(1, 1, 1, g, TimeModulation("const", scale=ca)),
            SHTerm(2, 1, -1, -g, TimeModulation("const", scale=ca)),
            SHTerm(1, 1, -1, g, TimeModulation("const", scale=sa)),
            SHTerm(2, 1, 1, g, TimeModulation("const", scale=sa)),
            SHTerm(1, 0, 0, d, TimeModulation("sin", f1=f_d, scale=math.sin(alpha / 2))),
            SHTerm(2, 0, 0, d, TimeModulation("sin", f1=f_d, scale=-math.cos(alpha / 2))),
        )
        model_params = {"g": g, "d": d, "f_d": f_d, "alpha": alpha}
    else:
        raise ConfigError(f"unknown topology {kind!r}")
    if params:
        raise ConfigError(f"unexpected parameters for {kind}: {sorted(params)}")
    return FieldModel(terms=selection + drives, validity_radius=radius,
                      topology=kind, params=model_params)


def ffp_position(model: FieldModel, t):
    """Field-free point of an ideal FFP topology at time t."""
    p = model.params
    if model.topology == "lissajous_ffp":
        g, d, f = p["g"], p["d"], p["f"]
        return np.array([
            d[0] / g * math.sin(TWO_PI * f[0] * t),
            d[1] / g * math.sin(TWO_PI * f[1] * t),
            -d[2] / (2 * g) * math.sin(TWO_PI * f[2] * t),
        ])
    if model.topology == "line_ffp":
        g, d, f_d = p["g"], p["d"], p["f_d"]
        v = np.array([d[0] / g, d[1] / g, -d[2] / (2 * g)])
        return v * math.sin(TWO_PI * f_d * t)
    raise UnsupportedTopologyError(
        f"ffp_position needs an ideal FFP topology, model has {model.topology!r}")


def _ffl_params(model: FieldModel) -> dict:
    if model.topology not in ("rotating_ffl", "static_ffl"):
        raise UnsupportedTopologyError(
            f"need an ideal FFL topology, model has {model.topology!r}")
    return model.params


def ffl_half_angle(model: FieldModel, t) -> float:
    """Half angle beta: the line direction is (cos beta, sin beta, 0)."""
    p = _ffl_params(model)
    if model.topology == "rotating_ffl":
        return math.pi * p["f_rot"] * t
    return p["alpha"] / 2.0


def ffl_amplitude(model: FieldModel) -> float:
    """Largest offset d/(2g) of an ideal FFL from the origin."""
    p = _ffl_params(model)
    return p["d"] / (2.0 * p["g"])


def ffl_locus(model: FieldModel, t) -> LineLocus:
    """Field-free line of an ideal FFL topology at time t.

    The returned point is the foot of the perpendicular from the origin;
    its signed offset along the unit normal (sin b, -cos b, 0) equals
    ffl_amplitude * sin(2 pi f_d t).
    """
    beta = ffl_half_angle(model, t)
    s = ffl_amplitude(model) * math.sin(TWO_PI * model.params["f_d"] * t)
    normal = np.array([math.sin(beta), -math.cos(beta), 0.0])
    direction = np.array([math.cos(beta), math.sin(beta), 0.0])
    return LineLocus(direction=direction, point=s * normal)


def perturb_field(model: FieldModel, seed: int, magnitude: float) -> FieldModel:
    """Add deterministic pseudo-random degree 2..4 terms to every term group.

    A group is the set of terms sharing one modulation (one physical coil).
    For each group, three (l, m) draws per transverse component (x and y)
    are added; z stays an ideal selection gradient.  Coefficients are scaled
    so each group's added field at the validity radius stays below
    magnitude times the largest degree-1 coefficient contribution there.
    Harmonicity is preserved since only solid harmonics are added.
    """
    if magnitude < 0 or seed < 0:
        raise ConfigError("perturbation magnitude and seed must be >= 0")
    if magnitude == 0:
        return model
    radius = model.validity_radius
    deg1 = [abs(t.coefficient) * radius for t in model.terms if t.degree == 1]
    if not deg1:
        raise ConfigError("model has no degree-1 term to scale the perturbation")
    ref = max(deg1)
    groups: dict[TimeModulation, None] = {}
    for t in model.terms:
        groups.setdefault(t.modulation, None)
    rng = np.random.default_rng(seed)
    draws_per_component = 3
    extra = []
    for mod in groups:
        for comp in (1, 2):
            for _ in range(draws_per_component):
                l = int(rng.integers(2, 5))
                m = int(rng.integers(-l, l + 1))
                amp = rng.uniform(-1.0, 1.0) * magnitude * ref
                coeff = amp / (radius ** l * draws_per_component)
                extra.append(SHTerm(comp, l, m, coeff, mod))
    topo = f"{model.topology}_perturbed" if model.topology else None
    return FieldModel(terms=model.terms + tuple(extra), validity_radius=radius,
                      topology=topo, params=dict(model.params))


def write_field_coefficients(model: FieldModel, path):
    """Plain text table, one term per line: j l m c kind f1 f2 phase scale."""
    with atomic_open(path, "w") as fh:
        fh.write("# component degree order coefficient kind f1 f2 phase scale\n")
        for t in model.terms:
            mod = t.modulation
            fh.write(f"{t.component} {t.degree} {t.order} {t.coefficient:.17g} "
                     f"{mod.kind} {mod.f1:.17g} {mod.f2:.17g} {mod.phase:.17g} "
                     f"{mod.scale:.17g}\n")


def load_field_coefficients(path, validity_radius: float = 0.05) -> FieldModel:
    """Read a coefficient table written by write_field_coefficients.

    Lines starting with '#' and blank lines are skipped.  Malformed rows
    raise ConfigError with the 1-based line number, as does a file that is
    not text or holds no term; a missing file raises MissingInputError.
    """
    with open_input(path, "r") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: {exc}") from None
    terms = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 9:
            raise ConfigError(
                f"{path}:{lineno}: expected 9 fields, got {len(fields)}")
        try:
            j, l, m = int(fields[0]), int(fields[1]), int(fields[2])
            c = float(fields[3])
            kind = fields[4]
            f1, f2, phase, scale = (float(v) for v in fields[5:9])
            mod = TimeModulation(kind, f1=f1, f2=f2, phase=phase, scale=scale)
            terms.append(SHTerm(j, l, m, c, mod))
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from exc
    if not terms:
        raise ConfigError(f"{path}: no terms")
    return FieldModel(terms=tuple(terms), validity_radius=validity_radius)

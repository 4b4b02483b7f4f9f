"""Langevin mean magnetization and its piecewise-constant approximation.

The scalar magnetization modulus is mbar(B) = m0 * L(lam * B) with the
Langevin function L(x) = coth(x) - 1/x.  Forward models need the derivative
mbar'; the discretized system matrix replaces mbar' by a staircase
mbar'_N that is constant on intervals between nodes 0 = x_0 < ... < x_{N+1} = b
and zero beyond the threshold b.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

log = logging.getLogger(__name__)

_SERIES_CUTOFF = 1e-4
_SECOND_SERIES_CUTOFF = 0.05  # below it the closed form of L'' cancels; use its series
_GRAD_TOL = 1e-10  # nodes_l1_optimal stops at max |grad F| <= _GRAD_TOL * m0 * lam


def langevin(x):
    """L(x) = coth(x) - 1/x, odd, with a Taylor branch near the origin."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < _SERIES_CUTOFF
    xs = np.where(small, 1.0, x)
    out = 1.0 / np.tanh(xs) - 1.0 / xs
    x2 = x * x
    series = x * (1.0 / 3.0 - x2 / 45.0 + 2.0 * x2 * x2 / 945.0)
    return np.where(small, series, out)[()]


def langevin_derivative(x):
    """L'(x) = 1/x^2 - 1/sinh(x)^2; L'(0) = 1/3 on an explicit branch."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < _SERIES_CUTOFF
    # beyond ~350 sinh(x)^2 overflows; the term is below eps from ~20 on
    big = np.abs(x) > 350.0
    xs = np.where(small | big, 1.0, x)
    out = 1.0 / (xs * xs) - 1.0 / np.sinh(xs) ** 2
    out = np.where(big, 1.0 / np.where(big, x * x, 1.0), out)
    x2 = x * x
    series = 1.0 / 3.0 - x2 / 15.0 + 2.0 * x2 * x2 / 189.0
    return np.where(small, series, out)[()]


def langevin_over_x(x):
    """L(x)/x, even, finite at 0 (value 1/3).  Used for mbar(B)/B."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < _SERIES_CUTOFF
    xs = np.where(small, 1.0, x)
    out = (1.0 / np.tanh(xs) - 1.0 / xs) / xs
    x2 = x * x
    series = 1.0 / 3.0 - x2 / 45.0 + 2.0 * x2 * x2 / 945.0
    return np.where(small, series, out)[()]


@dataclass(frozen=True)
class LangevinParams:
    """Particle parameters: saturation moment m0 (A m^2) and lam = mu0 m0 / (kB T)."""

    m0: float
    lam: float

    def __post_init__(self):
        if not (self.m0 > 0 and self.lam > 0):
            raise ConfigError("m0 and lam must be positive")


def mbar(params: LangevinParams, b):
    """Mean magnetization modulus at field magnitude b (tesla)."""
    return params.m0 * langevin(params.lam * np.asarray(b, dtype=float))


def mbar_prime(params: LangevinParams, b):
    """d mbar / dB at field magnitude b; mbar'(0) = m0 lam / 3."""
    return params.m0 * params.lam * langevin_derivative(
        params.lam * np.asarray(b, dtype=float))


def mbar_over_b(params: LangevinParams, b):
    """mbar(b)/b, finite at b = 0.  Stable direction factor for M = mbar(B) B/|B|."""
    return params.m0 * params.lam * langevin_over_x(
        params.lam * np.asarray(b, dtype=float))


def mbar_second(params: LangevinParams, b):
    """d^2 mbar / dB^2 at field magnitude b; odd, zero at b = 0."""
    x = params.lam * np.asarray(b, dtype=float)
    ax = np.abs(x)  # evaluated at |x| and signed, so exactly odd
    small = ax < _SECOND_SERIES_CUTOFF
    xs = np.where(small, 1.0, ax)
    t = np.exp(-2.0 * xs)  # 2 cosh/sinh^3 = 8 t (1 + t) / (1 - t)^3 cannot overflow
    out = -2.0 / xs ** 3 + 8.0 * t * (1.0 + t) / (1.0 - t) ** 3
    series = ax * (-2.0 / 15.0 + x * x * (8.0 / 189.0 - 2.0 * x * x / 225.0))
    return (params.m0 * params.lam ** 2 * np.sign(x)
            * np.where(small, series, out))[()]


@dataclass(frozen=True)
class MagnetizationApprox:
    """Piecewise-constant approximation of mbar' on [0, b), even in its argument.

    ladder holds the full node sequence (0, x_1, ..., x_N, b); slopes[n] is
    the constant value on [ladder[n], ladder[n+1]).  Beyond b the value is 0.
    """

    ladder: tuple
    slopes: tuple
    scheme: str
    threshold: float

    def eval(self, x):
        """mbar'_N(|x|); zero for |x| >= threshold."""
        ax = np.abs(np.asarray(x, dtype=float))
        ladder = np.asarray(self.ladder)
        idx = np.searchsorted(ladder, ax, side="right") - 1
        idx = np.clip(idx, 0, len(self.slopes))
        padded = np.append(np.asarray(self.slopes), 0.0)
        return padded[idx][()]

    def eval_antiderivative(self, x):
        """The odd antiderivative mbar_N with mbar_N(0) = 0, constant beyond b."""
        x = np.asarray(x, dtype=float)
        ax = np.abs(x)
        ladder = np.asarray(self.ladder)
        slopes = np.asarray(self.slopes)
        cum = np.concatenate([[0.0], np.cumsum(slopes * np.diff(ladder))])
        idx = np.searchsorted(ladder, ax, side="right") - 1
        idx = np.clip(idx, 0, len(slopes))
        padded_slope = np.append(slopes, 0.0)
        base = cum[idx] + padded_slope[idx] * (np.minimum(ax, self.threshold)
                                               - ladder[np.minimum(idx, len(slopes))])
        return (np.sign(x) * base)[()]


def _validate_nodes(nodes, b: float) -> np.ndarray:
    nodes = np.asarray(nodes, dtype=float)
    if nodes.ndim != 1:
        raise ConfigError("nodes must be a 1-D sequence")
    ladder = np.concatenate([[0.0], nodes, [b]])
    if not np.all(np.diff(ladder) > 0):
        raise ConfigError("nodes must be strictly increasing inside (0, b)")
    return ladder


def build_approx(params: LangevinParams, nodes, b: float,
                 scheme: str = "secant") -> MagnetizationApprox:
    """Build the staircase approximation from interior nodes and threshold b.

    scheme 'secant' uses the difference quotient of mbar over each interval
    (the antiderivative then matches mbar at every node); scheme 'tangent'
    uses mbar'(0) on the first interval and mbar' at interval midpoints
    elsewhere.
    """
    if not b > 0:
        raise ConfigError("threshold b must be positive")
    ladder = _validate_nodes(nodes, b)
    lo, hi = ladder[:-1], ladder[1:]
    if scheme == "secant":
        slopes = (mbar(params, hi) - mbar(params, lo)) / (hi - lo)
    elif scheme == "tangent":
        slopes = mbar_prime(params, (lo + hi) / 2.0)
        slopes[0] = mbar_prime(params, 0.0)
    else:
        raise ConfigError(f"unknown scheme {scheme!r}")
    return MagnetizationApprox(ladder=tuple(ladder), slopes=tuple(slopes),
                               scheme=scheme, threshold=float(b))


def nodes_equidistant(n: int, b: float) -> np.ndarray:
    """Interior nodes x_k = b k / (N + 1), k = 1..N."""
    if n < 1:
        raise ConfigError("need at least one interior node")
    if not b > 0:
        raise ConfigError("threshold b must be positive")
    return b * np.arange(1, n + 1) / (n + 1)


def _interval_l1(params: LangevinParams, lo: np.ndarray, hi: np.ndarray,
                 scheme: str):
    """Per-interval L1 error of the staircase on [lo, hi] and its derivatives in lo, hi.

    mbar' is decreasing on [0, b], so it crosses the slope s once, at x*, and
    the error is 2 mbar(x*) - mbar(lo) - mbar(hi) - s (2 x* - lo - hi).  The
    tangent slope puts x* at the midpoint; for the secant slope the mean
    value theorem puts it inside the interval, where bisection finds it.
    """
    if scheme == "tangent":
        cross = (lo + hi) / 2.0
        slope = mbar_prime(params, cross)
    elif scheme == "secant":
        slope = (mbar(params, hi) - mbar(params, lo)) / (hi - lo)
        cross, half = (lo + hi) / 2.0, (hi - lo) / 2.0
        for _ in range(60):  # enough halvings to reach the spacing of doubles
            half /= 2.0
            cross += np.where(mbar_prime(params, cross) > slope, half, -half)
    else:
        raise ConfigError(f"unknown scheme {scheme!r}")
    error = (2.0 * mbar(params, cross) - mbar(params, lo) - mbar(params, hi)
             - slope * (2.0 * cross - lo - hi))
    d_lo = 2.0 * (slope - mbar_prime(params, lo)) * (hi - cross) / (hi - lo)
    d_hi = 2.0 * (slope - mbar_prime(params, hi)) * (cross - lo) / (hi - lo)
    return error, d_lo, d_hi


def l1_functional(params: LangevinParams, nodes, b: float,
                  scheme: str = "tangent") -> float:
    """Closed-form L1 error of the staircase: the integral of |mbar' - mbar'_N| on [0, b].

    The tangent scheme here uses the midpoint value on every interval;
    build_approx instead uses mbar'(0) on [0, x_1].
    """
    ladder = _validate_nodes(nodes, b)
    return float(np.sum(_interval_l1(params, ladder[:-1], ladder[1:], scheme)[0]))


def _l1_gradient(params: LangevinParams, ladder: np.ndarray,
                 scheme: str) -> np.ndarray:
    """Gradient of l1_functional with respect to the interior nodes."""
    _, d_lo, d_hi = _interval_l1(params, ladder[:-1], ladder[1:], scheme)
    return d_hi[:-1] + d_lo[1:]


def _l1_jacobian(params: LangevinParams, ladder: np.ndarray,
                 scheme: str) -> np.ndarray:
    """Symmetric tridiagonal Jacobian of _l1_gradient by central differences."""
    lo, hi = ladder[:-1], ladder[1:]
    h = 1e-4 * np.min(hi - lo)
    _, lo_up, hi_up = _interval_l1(params, lo, hi + h, scheme)
    _, lo_down, hi_down = _interval_l1(params, lo, hi - h, scheme)
    lo_lo = (_interval_l1(params, lo + h, hi, scheme)[1]
             - _interval_l1(params, lo - h, hi, scheme)[1]) / (2.0 * h)
    hi_hi, lo_hi = (hi_up - hi_down) / (2.0 * h), (lo_up - lo_down) / (2.0 * h)
    return (np.diag(hi_hi[:-1] + lo_lo[1:])
            + np.diag(lo_hi[1:-1], 1) + np.diag(lo_hi[1:-1], -1))


def nodes_l1_optimal(n: int, b: float, params: LangevinParams,
                     scheme: str = "tangent") -> np.ndarray:
    """Interior nodes minimizing the L1 error of the staircase on [0, b].

    Damped Newton on grad l1_functional = 0, from the nodes that split the
    integral of |mbar''|^(1/2) (the asymptotically L1-optimal density) into
    equal parts.  The tridiagonal Jacobian is a central difference of the
    analytic gradient; a step is halved until the nodes stay increasing and
    max |grad| drops.  Stops at max |grad| <= 1e-10 m0 lam; on a stall it
    logs a warning and returns the best nodes reached.
    """
    xs = np.linspace(0.0, b, 1001)
    density = np.sqrt(np.abs(mbar_second(params, xs)))
    mass = np.concatenate([[0.0], np.cumsum(density[1:] + density[:-1])])
    start = np.interp(nodes_equidistant(n, b) / b * mass[-1], mass, xs)
    ladder = np.concatenate([[0.0], start, [b]])
    grad = _l1_gradient(params, ladder, scheme)
    for _ in range(50):
        norm = np.max(np.abs(grad))
        if norm <= _GRAD_TOL * params.m0 * params.lam:
            return ladder[1:-1]
        jac = _l1_jacobian(params, ladder, scheme)
        step = np.pad(np.linalg.lstsq(jac, -grad, rcond=None)[0], 1)  # J may be singular
        for _ in range(40):
            trial = ladder + step
            if np.all(np.diff(trial) > 0):
                trial_grad = _l1_gradient(params, trial, scheme)
                if np.max(np.abs(trial_grad)) < norm:
                    break
            step /= 2.0
        else:
            break
        ladder, grad = trial, trial_grad
    log.warning("nodes_l1_optimal(%d, %s) stalled at max |grad F| = %.3g m0 lam",
                n, scheme, np.max(np.abs(grad)) / (params.m0 * params.lam))
    return ladder[1:-1]


def sup_second_derivative(params: LangevinParams, b: float,
                          samples: int = 100001) -> float:
    """Dense-sampling estimate of sup |mbar''| on [0, b]."""
    return float(np.max(np.abs(mbar_second(params, np.linspace(0.0, b, samples)))))

"""Algebraic reconstruction: LSQR with early stopping, plus image metrics.

Twenty LSQR iterations on the coils' system, their matrix blocks stacked,
act as the only regularization; the residual history makes the
semi-convergence visible.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .phantom import ConcentrationGrid

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class LsqrOptions:
    max_iterations: int = 20
    atol: float = 1e-8
    btol: float = 1e-8

    def __post_init__(self):
        if self.max_iterations < 0:
            raise ConfigError("max_iterations must be >= 0")
        if not (self.atol >= 0 and self.btol >= 0):
            raise ConfigError(f"need atol >= 0 and btol >= 0, got atol="
                              f"{self.atol:g} and btol={self.btol:g}")


@dataclass
class LsqrResult:
    x: np.ndarray
    residuals: np.ndarray = field(default_factory=lambda: np.zeros(0))
    iterations: int = 0
    stop_reason: str = "max_iterations"


def lsqr_solve(a, b, options: LsqrOptions | None = None) -> LsqrResult:
    """Golub-Kahan bidiagonalization least squares (Paige and Saunders 1982).

    Starts from x = 0 and records ||A x_i - b|| after every iteration via
    the phibar recurrence, which is non-increasing by construction.  A zero
    rhs or an operator that annihilates it returns the zero solution with
    stop_reason zero_rhs or zero_operator instead of iterating.  a is an
    operator, used through shape, a @ v and a.T @ u only: a dense or sparse
    array, or SystemMatrix.operator(), which applies the coils' blocks one
    after another and never stacks them.
    """
    opts = options or LsqrOptions()
    b = np.asarray(b, dtype=float).ravel()
    m, n = a.shape
    if b.size != m:
        raise ConfigError(f"rhs has {b.size} entries, operator {m} rows")
    x = np.zeros(n)

    beta = float(np.linalg.norm(b))
    residuals = [beta]
    if beta == 0.0:
        return LsqrResult(x=x, residuals=np.asarray(residuals), iterations=0,
                          stop_reason="zero_rhs")
    u = b / beta
    v = np.asarray(a.T @ u, dtype=float).ravel()
    alfa = float(np.linalg.norm(v))
    if alfa == 0.0:
        log.warning("operator annihilates the rhs; returning the zero solution")
        return LsqrResult(x=x, residuals=np.asarray(residuals), iterations=0,
                          stop_reason="zero_operator")
    v /= alfa
    w = v.copy()
    phibar, rhobar = beta, alfa
    anorm2 = alfa * alfa
    iterations = 0
    stop_reason = "max_iterations"
    for it in range(1, opts.max_iterations + 1):
        u = np.asarray(a @ v, dtype=float).ravel() - alfa * u
        beta = float(np.linalg.norm(u))
        if beta > 0:
            u /= beta
        v = np.asarray(a.T @ u, dtype=float).ravel() - beta * v
        alfa = float(np.linalg.norm(v))
        if alfa > 0:
            v /= alfa
        anorm2 += beta * beta + alfa * alfa

        rho = np.hypot(rhobar, beta)
        c, s = rhobar / rho, beta / rho
        theta = s * alfa
        rhobar = -c * alfa
        phi = c * phibar
        phibar = s * phibar

        x += (phi / rho) * w
        w = v - (theta / rho) * w
        residuals.append(phibar)
        iterations = it

        bnorm = residuals[0]
        anorm = np.sqrt(anorm2)
        xnorm = float(np.linalg.norm(x))
        if phibar <= opts.btol * bnorm + opts.atol * anorm * xnorm:
            stop_reason = "converged"
            break
        if alfa == 0.0:
            stop_reason = "breakdown"
            break
    return LsqrResult(x=x, residuals=np.asarray(residuals), iterations=iterations,
                      stop_reason=stop_reason)


def _values(recon, reference) -> tuple:
    """The flat float values of recon and reference, arrays or
    ConcentrationGrid objects; grids must agree on geometry, arrays on shape.
    """
    if isinstance(recon, ConcentrationGrid):
        if not (isinstance(reference, ConcentrationGrid)
                and recon.meta_matches(reference)):
            raise ConfigError("grids disagree on geometry")
    a, b = (v.flat() if isinstance(v, ConcentrationGrid)
            else np.asarray(v, dtype=float).ravel() for v in (recon, reference))
    if a.shape != b.shape:
        raise ConfigError("shape mismatch")
    return a, b


def nrmse(recon, reference) -> float:
    """||recon - reference||_2 / ||reference||_2 over the flat values of two
    arrays or two grids, checked by _values."""
    a, b = _values(recon, reference)
    denom = float(np.linalg.norm(b))
    if denom == 0.0:
        raise ConfigError("reference has zero norm")
    return float(np.linalg.norm(a - b) / denom)


def optimal_scale(recon, reference) -> float:
    """Least-squares intensity factor alpha minimizing ||alpha*recon - ref||."""
    a, b = _values(recon, reference)
    denom = float(a @ a)
    return float(a @ b) / denom if denom > 0 else 0.0

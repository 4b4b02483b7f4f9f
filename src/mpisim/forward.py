"""Receive-coil voltage simulation for field models and particle ensembles.

Three simulators of decreasing generality:

- simulate_general: Faraday's law on the mean magnetization integral,
  differentiated by central differences at the sample spacing.  Valid for
  any field; serves as the reference oracle.
- simulate_parallel: assumes B and dB/dt are parallel wherever the
  concentration sits, which turns the derivative into the scalar factor
  mbar'(|B|).  Exact for static field-free-line fields in the z = 0 plane
  and for one-dimensional field-free-point drives; a good approximation
  for slowly rotating lines (f_d >> f_rot).
- simulate_piecewise: the parallel model with mbar' replaced by its
  staircase approximation, on the system matrix's cell sub-points, so that
  the trace equals the matrix-vector product.

All three are one quadrature (_quadrature) that evaluates the field at the
cells with c != 0 only; the integrand is the only difference.  Each takes
a sequence of receive coils and returns one SignalTrace per coil, in
order: B, |B| and the magnetization factor are evaluated once per time
block for every coil, and only the projection on each coil's sensitivity
is per coil, so each trace is bit-equal to a one-coil call.

AcquisitionConfig is the sampled time axis.  The simulators sample it and
sysmat's builders take it as the matrix's row axis, so a trace and a
matrix built from one AcquisitionConfig share sample rate, t0 and length.
"""

from __future__ import annotations

import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .artifacts import atomic_open, open_input
from .errors import ConfigError
from .fields import MU0, FieldEvaluator, FieldModel
from .magnetization import LangevinParams, MagnetizationApprox, mbar_over_b, mbar_prime
from .phantom import ConcentrationGrid, cell_offsets

_DEFAULT_BLOCK = 256


@dataclass(frozen=True)
class ReceiveCoil:
    """Homogeneous receive coil: constant sensitivity vector (T/A by convention)."""

    sensitivity: tuple
    index: int = 0

    def __post_init__(self):
        s = tuple(float(v) for v in self.sensitivity)
        if len(s) != 3 or not np.any(np.asarray(s)):
            raise ConfigError("coil sensitivity must be a nonzero 3-vector")
        object.__setattr__(self, "sensitivity", s)

    @property
    def vector(self) -> np.ndarray:
        return np.asarray(self.sensitivity)


def coil_along(axis: str, index: int | None = None) -> ReceiveCoil:
    try:
        i = "xyz".index(axis)
    except ValueError:
        raise ConfigError(f"coil axis must be x, y or z, got {axis!r}") from None
    vec = [0.0, 0.0, 0.0]
    vec[i] = 1.0
    return ReceiveCoil(sensitivity=tuple(vec), index=i if index is None else index)


@dataclass(frozen=True)
class AcquisitionConfig:
    """Sampling and scan-timing parameters.

    f_rot = 0 means a non-rotating scan (static line or point drive).  When
    f_rot > 0 the duration must cover an integer number of line rotation
    periods 1/f_rot so spectra resolve on the rotation grid.  It must hold
    at least one sample.
    """

    f_d: float
    sample_rate: float
    duration: float
    f_rot: float = 0.0
    t0: float = 0.0

    def __post_init__(self):
        if not (self.f_d > 0 and self.sample_rate > 0 and self.duration > 0):
            raise ConfigError("f_d, sample_rate and duration must be positive")
        if self.f_rot < 0:
            raise ConfigError("f_rot must be >= 0")
        if self.sample_rate <= 2 * self.f_d:
            raise ConfigError("sample rate must exceed twice the drive frequency")
        n = self.duration * self.sample_rate
        if abs(n - round(n)) > 1e-6:
            raise ConfigError("duration must be an integer number of samples")
        if self.n_samples < 1:
            raise ConfigError("duration must cover at least one sample")
        if self.f_rot > 0:
            k = self.duration * self.f_rot
            if abs(k - round(k)) > 1e-9:
                raise ConfigError(
                    "duration must be an integer number of rotation periods")

    @property
    def n_samples(self) -> int:
        return int(round(self.duration * self.sample_rate))

    def times(self) -> np.ndarray:
        return self.t0 + np.arange(self.n_samples) / self.sample_rate


@dataclass
class SignalTrace:
    """Uniformly sampled coil voltage."""

    samples: np.ndarray
    sample_rate: float
    t0: float = 0.0
    coil_index: int = 0

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.ndim != 1:
            raise ConfigError("trace samples must be 1-D")
        if not np.all(np.isfinite(self.samples)):
            raise ConfigError("trace samples must be finite")
        if not (math.isfinite(self.sample_rate) and self.sample_rate > 0):
            raise ConfigError("trace sample rate must be positive and finite")
        if not math.isfinite(self.t0):
            raise ConfigError("trace t0 must be finite")

    def times(self) -> np.ndarray:
        return self.t0 + np.arange(self.samples.size) / self.sample_rate

    @property
    def rms(self) -> float:
        return float(np.sqrt(np.mean(self.samples ** 2)))


def map_time_blocks(fn, times: np.ndarray, n_workers: int, block: int):
    """Yield fn(times[lo:lo + block]) for each consecutive span, in span order.

    Spans run on a thread pool when n_workers > 1 and there is more than
    one of them, serially otherwise.  The pool runs at most 2 n_workers
    spans ahead of the consumer, counting the result it holds, so a
    consumer that drops each result holds at most that many at once.  An
    exception in fn reaches the consumer at its span.  When the generator
    finishes, raises or is closed, the spans not yet started are cancelled
    and the running ones waited for, so no pool thread outlives it.
    """
    spans = [times[lo:lo + block] for lo in range(0, times.size, block)]
    if n_workers <= 1 or len(spans) <= 1:
        yield from map(fn, spans)
        return
    pool = ThreadPoolExecutor(max_workers=n_workers)
    pending = deque()
    try:
        for span in spans:
            pending.append(pool.submit(fn, span))
            if len(pending) == 2 * n_workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def _filled_cells(model: FieldModel, grid: ConcentrationGrid, subsampling: int):
    """Field evaluator on the sub-points of the cells that hold particles.

    A cell with c = 0 adds exactly nothing to the quadrature sum, so B is
    evaluated only where c != 0; negative and NaN cells are kept, so they
    still reach the sum.  A cell's sub-points (phantom.cell_offsets) are
    consecutive.  Returns (FieldEvaluator, c_k * cell volume / n_sub).
    """
    flat = grid.flat()
    keep = np.flatnonzero(flat)
    offsets = cell_offsets(grid, subsampling)
    points = grid.centers()[keep][:, None, :] + offsets
    weights = np.repeat(flat[keep] * grid.cell_volume / len(offsets), len(offsets))
    return FieldEvaluator(model, points.reshape(-1, 3)), weights


def _quadrature(model: FieldModel, grid: ConcentrationGrid, times: np.ndarray,
                integrand, coils, subsampling: int, n_workers: int,
                block: int) -> list:
    """One sum per coil: sum_k w_k <rho, v(r_k, t)> factor(r_k, t).

    integrand(ev, times) returns the vector field v (3, points, times) and
    the scalar factor (points, times) at the points of _filled_cells, which
    holds the weights w_k.  Both are evaluated once per time block for all
    coils; only the projection on each coil's rho is per coil.  A BLAS
    product sums the points in an order that depends on the number of
    times in a block; a pairwise sum over each time's contiguous row does
    not, so the result does not depend on the block size.
    """
    if not coils:
        raise ConfigError("need at least one receive coil")
    ev, weights = _filled_cells(model, grid, subsampling)

    def worker(tblock):
        v, factor = integrand(ev, tblock)
        sums = []
        for coil in coils:
            values = weights[:, None] * (np.einsum("j,jkt->kt", coil.vector, v)
                                         * factor)
            sums.append(np.ascontiguousarray(values.T).sum(axis=1))
        return sums

    blocks = map_time_blocks(worker, times, n_workers, block)
    return [np.concatenate(sums) for sums in zip(*blocks)]


def _magnitude(b: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("jkt,jkt->kt", b, b))


def _parallel_traces(model, grid, coils, config, slope, subsampling, n_workers,
                     block) -> list:
    """u(t) = -mu0 * sum_k c_k <rho, dB/dt(r_k, t)> slope(|B(r_k, t)|) vol."""
    def integrand(ev, tblock):
        factor = slope(_magnitude(ev.field(tblock)))
        return ev.field_dt(tblock), factor

    sums = _quadrature(model, grid, config.times(), integrand, coils,
                       subsampling, n_workers, block)
    return [SignalTrace(-MU0 * s, config.sample_rate, config.t0, coil.index)
            for coil, s in zip(coils, sums)]


def simulate_parallel(model: FieldModel, grid: ConcentrationGrid, coils,
                      config: AcquisitionConfig, params: LangevinParams,
                      n_workers: int = 1, block: int = _DEFAULT_BLOCK) -> list:
    """Voltage under the parallel-velocity-field model, one trace per coil.

    u(t) = -mu0 * sum_k c_k <rho, dB/dt(r_k, t)> mbar'(|B(r_k, t)|) vol,
    summed over the filled cells only (see _filled_cells).
    """
    return _parallel_traces(model, grid, coils, config,
                            lambda mag: mbar_prime(params, mag), 1, n_workers, block)


def simulate_general(model: FieldModel, grid: ConcentrationGrid, coils,
                     config: AcquisitionConfig, params: LangevinParams,
                     n_workers: int = 1, block: int = _DEFAULT_BLOCK) -> list:
    """Faraday-law voltage without any parallelity assumption, one trace per coil.

    The magnetization integral I(t) = int <rho, mbar(|B|) B/|B|> c dr is
    evaluated at the sample times extended by one step on each side and
    differentiated by central differences, so the trace keeps full length.
    The field is evaluated at the filled cells only (see _filled_cells).
    """
    dt = 1.0 / config.sample_rate

    def integrand(ev, tblock):
        b = ev.field(tblock)
        return b, mbar_over_b(params, _magnitude(b))

    times = config.times()
    extended = np.concatenate([[times[0] - dt], times, [times[-1] + dt]])
    sums = _quadrature(model, grid, extended, integrand, coils, 1, n_workers, block)
    return [SignalTrace(-MU0 * (ivals[2:] - ivals[:-2]) / (2.0 * dt),
                        config.sample_rate, config.t0, coil.index)
            for coil, ivals in zip(coils, sums)]


def simulate_piecewise(model: FieldModel, grid: ConcentrationGrid, coils,
                       config: AcquisitionConfig, approx: MagnetizationApprox,
                       subsampling: int = 1, n_workers: int = 1,
                       block: int = _DEFAULT_BLOCK) -> list:
    """simulate_parallel with the staircase mbar'_N, averaged over sub-points.

    With sysmat's grid and subsampling (phantom.cell_offsets) each trace
    equals its coil's system matrix times the flat concentration, up to
    summation order.
    """
    return _parallel_traces(model, grid, coils, config, approx.eval, subsampling,
                            n_workers, block)


def highpass_mask(n: int, sample_rate: float, cutoff: float) -> np.ndarray:
    """DFT-bin keep mask: bins with |frequency| < cutoff are dropped.

    A cut-off above every bin (at or above Nyquist) would zero the whole
    signal and raises ConfigError.
    """
    freqs = np.fft.fftfreq(n, d=1.0 / sample_rate)
    mask = (np.abs(freqs) >= cutoff).astype(float)
    if not mask.any():
        raise ConfigError(
            f"a high-pass at {cutoff:.6g} Hz keeps no DFT bin of {n} samples "
            f"at {sample_rate:.6g} Hz (Nyquist {sample_rate / 2:.6g} Hz)")
    return mask


def apply_dft_mask(y: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Real part of the inverse DFT of fft(y) * mask, along y's last axis."""
    return np.real(np.fft.ifft(np.fft.fft(y) * mask))


def apply_highpass(trace: SignalTrace, cutoff: float) -> SignalTrace:
    """Ideal DFT brick-wall high-pass; removes every bin below cutoff."""
    if cutoff <= 0:
        raise ConfigError("cutoff must be positive")
    mask = highpass_mask(trace.samples.size, trace.sample_rate, cutoff)
    return replace(trace, samples=apply_dft_mask(trace.samples, mask))


def add_noise(trace: SignalTrace, sigma: float, seed: int) -> SignalTrace:
    """Additive white Gaussian noise from a seeded generator; sigma 0 is exact."""
    if sigma < 0:
        raise ConfigError("noise sigma must be >= 0")
    if seed < 0:
        raise ConfigError(f"noise seed must be >= 0, got {seed}")
    noise = np.random.default_rng(seed).normal(0.0, sigma, trace.samples.size)
    return replace(trace, samples=trace.samples + noise)


def save_trace_csv(trace: SignalTrace, path, comments=()):
    with atomic_open(path, "w") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        fh.write("t,volts\n")
        fh.write("".join(f"{t:.17g},{v:.17g}\n" for t, v in
                         zip(trace.times().tolist(), trace.samples.tolist())))


def save_trace_bin(trace: SignalTrace, path):
    """ASCII header 'T sample_rate t0 coil', then float64 samples."""
    header = (f"{trace.samples.size} {trace.sample_rate:.17g} "
              f"{trace.t0:.17g} {trace.coil_index}\n")
    with atomic_open(path) as fh:
        fh.write(header.encode("ascii"))
        fh.write(trace.samples.astype("<f8").tobytes())


def load_trace_bin(path) -> SignalTrace:
    """Inverse of save_trace_bin; a malformed or truncated file raises ConfigError."""
    with open_input(path) as fh:
        line = fh.readline()
        raw = fh.read()
    try:
        header = line.decode("ascii").split()
        if len(header) != 4:
            raise ValueError(f"expected 4 fields, got {len(header)}")
        n, rate, t0, coil = (int(header[0]), float(header[1]), float(header[2]),
                             int(header[3]))
    except ValueError as exc:
        raise ConfigError(f"{path}: malformed trace header: {exc}") from None
    if len(raw) != 8 * n:
        raise ConfigError(f"{path}: expected {n} samples, got {len(raw) / 8:g}")
    return SignalTrace(samples=np.frombuffer(raw, dtype="<f8").copy(),
                       sample_rate=rate, t0=t0, coil_index=coil)

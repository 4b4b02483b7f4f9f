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
cells with c != 0 only; the integrand is the only difference.  Each time
block evaluates the field's time factors c_i h_i(t) for its own times and
multiplies them into the harmonics at the points, and the pass writes every
block's (point, time) arrays into the same buffers, so what it holds over
all its times is one vector per coil and the times themselves.  The pass
runs on the calling thread: its einsums hold the GIL, so a second thread
would add no speed, only its own buffers and heap.
Each simulator takes a sequence of receive coils and returns one
SignalTrace per coil, in order: B, |B| and the magnetization factor are
evaluated once per time block for every coil, and only the projection on
each coil's sensitivity is per coil, so each trace is bit-equal to a
one-coil call.  The block size changes no trace.

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

from .artifacts import atomic_open, check_digest, float_lines, open_input
from .errors import ConfigError, check_memory
from .fields import MU0, FieldEvaluator, FieldModel
from .magnetization import LangevinParams, MagnetizationApprox, mbar_over_b, mbar_prime
from .phantom import ConcentrationGrid, cell_offsets


@dataclass(frozen=True)
class ReceiveCoil:
    """Homogeneous receive coil: finite, nonzero sensitivity 3-vector (T/A by convention)."""

    sensitivity: tuple
    index: int = 0

    def __post_init__(self):
        s = tuple(float(v) for v in self.sensitivity)
        if len(s) != 3 or not any(s) or not all(map(math.isfinite, s)):
            raise ConfigError(f"coil sensitivity {s} must be a finite, nonzero 3-vector")
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
    periods 1/f_rot so spectra resolve on the rotation grid.  It holds at
    least one sample, and no more than memory holds (ResourceCapError).
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
        check_memory(f"acquisition.duration {self.duration:g} s at sample_rate "
                     f"{self.sample_rate:g} Hz ({n:.4g} samples)", 8 * n)
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


# times per block of every simulate and assembly pass; no result depends on
# it.  A simulate pass walks its blocks in order on the calling thread and
# keeps a block's (points, times) float arrays from block to block
# (_Buffers): B or dB/dt, |B| and its factor with the Langevin factor's work
# array, the coil projection and its rows.  Only the slopes of the parallel
# and staircase models and one 1/x of the Langevin factor are allocated anew
# per block, so the block sets what a pass holds beyond its traces.
# Smaller blocks cost cpu, since einsum's inner loops run over a block's
# times: in-process, the general model took 40% more cpu at 32 than at 64,
# and the piecewise model, with 4 sub-points per cell, was fastest at 48-64
# and took 50% more cpu at 256.  Only the assembly runs its blocks on a pool
# (map_time_blocks); an assembly block's temporaries stay a few MB
# (sysmat._PAIRS), and at most two blocks per worker are in flight, so
# they are what a build holds beyond its runs: 32 held about 9 MiB less on
# the desk scene, but desk_run and l1_sweep ran 7-12% longer end to end.  A
# build hands the free memory of every arena back when it ends
# (errors.release_heap); a simulate pass does not, since its own peak falls
# inside the pass.
_TIME_BLOCK = 64


def map_time_blocks(fn, times: np.ndarray, n_workers: int):
    """Yield fn(span) for each consecutive span of _TIME_BLOCK times, in order.

    The one threading helper, and it serves only the assembly (sysmat): a
    simulate pass runs its spans on the calling thread (_quadrature).  Spans
    run on a thread pool when n_workers > 1 and there is more than one of
    them, serially otherwise.  The pool runs at most 2 n_workers
    spans ahead of the consumer, counting the result it holds, so a
    consumer that drops each result holds at most that many at once.  An
    exception in fn reaches the consumer at its span.  When the generator
    finishes, raises or is closed, the spans not yet started are cancelled
    and the running ones waited for, so no pool thread outlives it.
    """
    spans = [times[lo:lo + _TIME_BLOCK] for lo in range(0, times.size, _TIME_BLOCK)]
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
    evaluated only where c != 0; negative cells are kept, so they still
    reach the sum (ConcentrationGrid admits no NaN).  A cell's sub-points
    (phantom.cell_offsets) are consecutive.  Returns (FieldEvaluator, c_k * cell volume / n_sub).
    """
    flat = grid.flat()
    keep = np.flatnonzero(flat)
    offsets = cell_offsets(grid, subsampling)
    points = grid.centers()[keep][:, None, :] + offsets
    weights = np.repeat(flat[keep] * grid.cell_volume / len(offsets), len(offsets))
    return FieldEvaluator(model, points.reshape(-1, 3)), weights


class _Buffers:
    """A pass's block arrays, reused from block to block.

    take(name, shape) gives the leading part of the flat array kept under
    name, reshaped, so that it is C-contiguous like a new array and a
    shorter block takes a leading slice.  Each name has its own array,
    allocated (or grown) the first time a block needs it: one slab for all
    of them, freed when the pass ends, would raise glibc's mmap threshold
    to its size, and the later stages' temporaries would stay in the heap.
    """

    def __init__(self):
        self._flat = {}

    def take(self, name: str, shape: tuple) -> np.ndarray:
        size = math.prod(shape)
        flat = self._flat.get(name)
        if flat is None or flat.size < size:
            flat = self._flat[name] = np.empty(size)
        return flat[:size].reshape(shape)


def _quadrature(model: FieldModel, grid: ConcentrationGrid, times: np.ndarray,
                integrand, coils, subsampling: int) -> list:
    """One sum per coil: sum_k w_k <rho, v(r_k, t)> factor(r_k, t).

    integrand(ev, times, take) returns the vector field v (3, points, times)
    and the scalar factor (points, times) at the points of _filled_cells,
    which holds the weights w_k, for one block of times; take is the pass's
    _Buffers.take, for the arrays it reuses from block to block.  The blocks
    run in order on the calling thread; map_time_blocks serves the assembly.
    v and the factor are evaluated once per time block for all coils; only
    the projection on each coil's rho is per coil.  A BLAS product sums
    the points in an order that depends on the number of times in a block;
    a pairwise sum over each time's contiguous row does not, so the result
    does not depend on the block size.
    """
    if not coils:
        raise ConfigError("need at least one receive coil")
    ev, weights = _filled_cells(model, grid, subsampling)
    column = weights[:, None]
    take = _Buffers().take
    sums = np.empty((len(coils), times.size))
    for lo in range(0, times.size, _TIME_BLOCK):
        v, factor = integrand(ev, times[lo:lo + _TIME_BLOCK], take)
        values = take("values", factor.shape)
        rows = take("rows", factor.shape[::-1])
        for coil, out in zip(coils, sums[:, lo:lo + len(rows)]):
            np.einsum("j,jkt->kt", coil.vector, v, out=values)
            np.multiply(values, factor, out=values)
            np.multiply(column, values, out=values)
            np.copyto(rows, values.T)
            rows.sum(axis=1, out=out)
    return list(sums)


def _field_and_magnitude(ev, tblock, take):
    """B at the block's times and |B|, in the pass's "field" and "mag" arrays."""
    shape = (3, len(ev.points), tblock.size)
    b = ev.field(tblock, out=take("field", shape))
    mag = np.einsum("jkt,jkt->kt", b, b, out=take("mag", shape[1:]))
    return b, np.sqrt(mag, out=mag)


def _parallel_traces(model, grid, coils, config, slope, subsampling) -> list:
    """u(t) = -mu0 * sum_k c_k <rho, dB/dt(r_k, t)> slope(|B(r_k, t)|) vol."""
    def integrand(ev, tblock, take):
        b, mag = _field_and_magnitude(ev, tblock, take)
        factor = slope(mag)
        # B is spent once slope has read |B|: dB/dt takes its array
        return ev.field_dt(tblock, out=b), factor

    sums = _quadrature(model, grid, config.times(), integrand, coils, subsampling)
    return [SignalTrace(-MU0 * s, config.sample_rate, config.t0, coil.index)
            for coil, s in zip(coils, sums)]


def simulate_parallel(model: FieldModel, grid: ConcentrationGrid, coils,
                      config: AcquisitionConfig, params: LangevinParams) -> list:
    """Voltage under the parallel-velocity-field model, one trace per coil.

    u(t) = -mu0 * sum_k c_k <rho, dB/dt(r_k, t)> mbar'(|B(r_k, t)|) vol,
    summed over the filled cells only (see _filled_cells).
    """
    return _parallel_traces(model, grid, coils, config,
                            lambda mag: mbar_prime(params, mag), 1)


def simulate_general(model: FieldModel, grid: ConcentrationGrid, coils,
                     config: AcquisitionConfig, params: LangevinParams) -> list:
    """Faraday-law voltage without any parallelity assumption, one trace per coil.

    The magnetization integral I(t) = int <rho, mbar(|B|) B/|B|> c dr is
    evaluated at the sample times extended by one step on each side and
    differentiated by central differences, so the trace keeps full length.
    The field is evaluated at the filled cells only (see _filled_cells).
    """
    dt = 1.0 / config.sample_rate

    def integrand(ev, tblock, take):
        b, mag = _field_and_magnitude(ev, tblock, take)
        return b, mbar_over_b(params, mag, out=mag, work=take("work", mag.shape))

    times = config.times()
    extended = np.concatenate([[times[0] - dt], times, [times[-1] + dt]])
    sums = _quadrature(model, grid, extended, integrand, coils, 1)
    return [SignalTrace(-MU0 * (ivals[2:] - ivals[:-2]) / (2.0 * dt),
                        config.sample_rate, config.t0, coil.index)
            for coil, ivals in zip(coils, sums)]


def simulate_piecewise(model: FieldModel, grid: ConcentrationGrid, coils,
                       config: AcquisitionConfig, approx: MagnetizationApprox,
                       subsampling: int = 1) -> list:
    """simulate_parallel with the staircase mbar'_N, averaged over sub-points.

    With sysmat's grid and subsampling (phantom.cell_offsets) each trace
    equals its coil's system matrix times the flat concentration, up to
    summation order.
    """
    return _parallel_traces(model, grid, coils, config, approx.eval, subsampling)


def highpass_mask(n: int, sample_rate: float, cutoff: float) -> np.ndarray:
    """DFT-bin keep mask of a cut-off check_cutoff accepts: bins with
    |frequency| < cutoff are dropped."""
    check_cutoff(n, sample_rate, cutoff)
    return (np.abs(np.fft.fftfreq(n, d=1.0 / sample_rate)) >= cutoff).astype(float)


def check_cutoff(n: int, sample_rate: float, cutoff: float) -> None:
    """ConfigError unless cutoff is positive and a high-pass at it keeps a DFT
    bin of n samples at sample_rate; allocates nothing, so a plan can check
    any scan."""
    if cutoff <= 0:
        raise ConfigError("cutoff must be positive")
    # fftfreq's largest |frequency|, (n // 2) / (n d), computed as it computes it
    if not (n // 2) * (1.0 / (n * (1.0 / sample_rate))) >= cutoff:
        raise ConfigError(
            f"a high-pass at {cutoff:.6g} Hz keeps no DFT bin of {n} samples "
            f"at {sample_rate:.6g} Hz (Nyquist {sample_rate / 2:.6g} Hz)")


def apply_dft_mask(y: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Real part of the inverse DFT of fft(y) * mask, along y's last axis."""
    return np.real(np.fft.ifft(np.fft.fft(y) * mask))


def apply_highpass(trace: SignalTrace, cutoff: float) -> SignalTrace:
    """Ideal DFT brick-wall high-pass; removes every bin below cutoff."""
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
        fh.write(float_lines(np.column_stack((trace.times(), trace.samples))))


def save_trace_bin(trace: SignalTrace, path, stamp: str):
    """ASCII header 'T sample_rate t0 coil stamp', then float64 samples."""
    header = (f"{trace.samples.size} {trace.sample_rate:.17g} "
              f"{trace.t0:.17g} {trace.coil_index} {stamp}\n")
    with atomic_open(path) as fh:
        fh.write(header.encode("ascii"))
        fh.write(trace.samples.astype("<f8").tobytes())


def load_trace_bin(path) -> SignalTrace:
    """Inverse of save_trace_bin.

    A malformed, truncated or unstamped file raises ConfigError.  Whether
    its stamp is current is for the stage that reads it to check.
    """
    with open_input(path) as fh:
        line = fh.readline()
        raw = fh.read()
    try:
        header = line.decode("ascii").split()
        if len(header) == 4:
            raise ValueError("written without a stamp; re-run `mpisim simulate`")
        if len(header) != 5:
            raise ValueError(f"expected 5 fields, got {len(header)}")
        n, rate, t0, coil, stamp = (int(header[0]), float(header[1]), float(header[2]),
                                    int(header[3]), header[4])
        check_digest(stamp)
    except (ValueError, ConfigError) as exc:
        raise ConfigError(f"{path}: malformed trace header: {exc}") from None
    if len(raw) != 8 * n:
        raise ConfigError(f"{path}: expected {n} samples, got {len(raw) / 8:g}")
    return SignalTrace(samples=np.frombuffer(raw, dtype="<f8").copy(),
                       sample_rate=rate, t0=t0, coil_index=coil)

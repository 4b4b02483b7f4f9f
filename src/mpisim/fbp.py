"""Radon-domain baseline: sinogram extraction and filtered back-projection.

The baseline assumes the ideal field: the scan it inverts is the nominal
line sweep of an ideal FFL model (fields.build_topology's rotating_ffl or
static_ffl), whatever field produced the voltages.  Line-scanner voltages
divide by the sweep velocity factor to become projection samples;
regridding onto uniform displacements and angles gives a sinogram that
classic Ram-Lak FBP inverts.  scan_projections alone decides the scan's
projections and their samples, so a driver can check a scan before any
trace exists.  The continuous line rotation is deliberately not corrected
inside a projection window, and the magnetization kernel stays in the
image.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .artifacts import atomic_open, float_lines, number_text
from .errors import ConfigError
from .fields import MU0, TWO_PI, FieldModel, ffl_amplitude, ffl_half_angle
from .phantom import ConcentrationGrid

log = logging.getLogger(__name__)

# Extent of the (planar) object along z; dividing by it converts the
# scanner's volume integrals into in-plane line integrals, so scan sinograms
# share units with radon_transform output.
SLAB_THICKNESS = 1e-3


@dataclass
class Sinogram:
    """Projection stack: values[i, j] at angles[i], displacements[j].

    The angle refers to the line normal (cos a, sin a); displacements are
    signed offsets along that normal in meters.
    """

    values: np.ndarray
    angles: np.ndarray
    displacements: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.angles = np.asarray(self.angles, dtype=float)
        self.displacements = np.asarray(self.displacements, dtype=float)
        if self.values.shape != (self.angles.size, self.displacements.size):
            raise ConfigError("sinogram shape does not match its axes")
        if not np.all(np.isfinite(self.values)):
            raise ConfigError("sinogram values must be finite")


def _bilinear_plane(grid: ConcentrationGrid, x, y):
    """Bilinear interpolation on the z-index-0 plane, zero outside."""
    plane = grid.values[:, :, 0]
    nx, ny = plane.shape
    fx = (np.asarray(x) - grid.origin[0]) / grid.spacing[0]
    fy = (np.asarray(y) - grid.origin[1]) / grid.spacing[1]
    i0 = np.floor(fx).astype(int)
    j0 = np.floor(fy).astype(int)
    tx = fx - i0
    ty = fy - j0
    out = np.zeros(np.broadcast(fx, fy).shape)
    for di, wdi in ((0, 1.0 - tx), (1, tx)):
        for dj, wdj in ((0, 1.0 - ty), (1, ty)):
            ii = i0 + di
            jj = j0 + dj
            ok = (ii >= 0) & (ii < nx) & (jj >= 0) & (jj < ny)
            vals = np.where(ok, plane[np.clip(ii, 0, nx - 1),
                                      np.clip(jj, 0, ny - 1)], 0.0)
            out = out + wdi * wdj * vals
    return out


def radon_transform(grid: ConcentrationGrid, angles, displacements) -> Sinogram:
    """Sampled line integrals of the z = 0 plane.

    For each angle the integration direction is perpendicular to the normal
    (cos a, sin a); samples are spaced half the smaller cell side and
    interpolated bilinearly, zero outside the grid.
    """
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    displacements = np.atleast_1d(np.asarray(displacements, dtype=float))
    step = 0.5 * min(grid.spacing[0], grid.spacing[1])
    nx, ny = grid.dims[0], grid.dims[1]
    half = 0.5 * math.hypot(nx * grid.spacing[0], ny * grid.spacing[1])
    w = np.arange(-half, half + step, step)
    values = np.empty((angles.size, displacements.size))
    for i, a in enumerate(angles):
        normal = np.array([math.cos(a), math.sin(a)])
        tangent = np.array([-math.sin(a), math.cos(a)])
        x = displacements[:, None] * normal[0] + w[None, :] * tangent[0]
        y = displacements[:, None] * normal[1] + w[None, :] * tangent[1]
        values[i] = _bilinear_plane(grid, x, y).sum(axis=1) * step
    return Sinogram(values=values, angles=angles, displacements=displacements)


def _wrap_angle(theta: float):
    """Map a normal angle into [0, pi); returns (angle, flip_sign_of_s).

    angle = theta - n pi for the integer n that lands it in [0, pi); each
    half turn reverses the normal, so the sign of s flips when n is odd.
    """
    angle = math.fmod(theta, math.pi)  # exact, with the sign of theta
    n = round((theta - angle) / math.pi)
    if angle < 0:
        angle += math.pi
        n -= 1
    if angle >= math.pi:  # a remainder of -tiny rounds up to pi
        angle -= math.pi
        n += 1
    return angle, n % 2 == 1


# smallest fbp cos_guard: far above the rounding of |cos| at a quarter
# period (a phase of 1e6 rad rounds by ~1e-10), below sin(2 pi / n), the
# |cos| of the samples next to it, up to n = 10^6 samples per drive period
COS_GUARD_MIN = 1e-6


def check_settings(n_bins: int = 80, cos_guard: float = 0.05,
                   window: str = "ramlak"):
    """Raise ConfigError unless every FBP setting is usable.

    signal_to_sinogram and fbp_reconstruct check their settings here.
    cos_guard must be at least COS_GUARD_MIN: with a multiple of 4 samples
    per drive period, each half-sweep starts at a sample whose |cos| is not
    0 but the rounding of the phase, ~1e-16 to 1e-14, and a guard below
    that keeps it and divides by it.
    """
    if n_bins < 2:
        raise ConfigError(f"need n_bins >= 2, got n_bins={n_bins}")
    if not COS_GUARD_MIN <= cos_guard < 1:
        raise ConfigError(f"need {COS_GUARD_MIN:g} <= cos_guard < 1, got "
                          f"cos_guard={cos_guard:g}")
    if window not in ("ramlak", "hann"):
        raise ConfigError(f"unknown filter window {window!r}; need ramlak or hann")


def scan_projections(f_d: float, sample_rate: float, n_samples: int,
                     cos_guard: float = 0.05) -> list:
    """Every projection of a scan of n_samples samples at sample_rate.

    One projection per whole drive period 1/f_d; projection p holds the
    samples of its monotone half-sweep t in [(p + 1/4)/f_d, (p + 3/4)/f_d)
    where |cos 2 pi f_d t| >= cos_guard.
    Returns one (indices, phases 2 pi f_d t, cosines) triple per projection.
    Raises ConfigError when the scan holds no drive period or a projection
    keeps no sample.
    """
    n_proj = int(n_samples / sample_rate * f_d + 1e-9)
    if n_proj < 1:
        raise ConfigError("scan shorter than one drive period")
    projections = []
    for p in range(n_proj):
        # each half-sweep ends before its drive period, so inside the scan
        j0 = int(np.ceil((p + 0.25) / f_d * sample_rate - 1e-9))
        j1 = int(np.ceil((p + 0.75) / f_d * sample_rate - 1e-9))
        idx = np.arange(j0, j1)
        phase = TWO_PI * f_d * (idx / sample_rate)
        cosphi = np.cos(phase)
        keep = np.abs(cosphi) >= cos_guard
        if not keep.any():
            raise ConfigError(f"projection {p} keeps no sample; need a smaller "
                              f"cos_guard, got cos_guard={cos_guard:g}")
        projections.append((idx[keep], phase[keep], cosphi[keep]))
    return projections


def signal_to_sinogram(traces, coils, model: FieldModel, n_bins: int = 80,
                       cos_guard: float = 0.05) -> Sinogram:
    """Regrid line-scanner voltages into a sinogram of the nominal scan.

    model is the ideal rotating_ffl or static_ffl whose line sweep the
    projections follow; any other model, a perturbed one included, raises
    ConfigError.  Projections and their samples are those scan_projections
    picks at the traces' sample rate and length: each half-sweep's samples
    with |cos 2 pi f_d t| >= cos_guard.  The samples divide by the
    velocity factor -2 pi d mu0 f_d cos(2 pi f_d t) <rho, e> and bin-average
    onto n_bins uniform displacements up to fields.ffl_amplitude either side.
    Multiple coils combine by least squares over their geometric weights
    <rho, e>.
    """
    check_settings(n_bins=n_bins, cos_guard=cos_guard)
    amp, prefactor = sweep_axis(model, n_bins)
    if not traces or len(traces) != len(coils):
        raise ConfigError("need one coil per trace")
    first = traces[0]
    for tr in traces:
        if tr.samples.size != first.samples.size or tr.sample_rate != first.sample_rate:
            raise ConfigError("traces disagree on sampling")
    f_d = model.params["f_d"]
    projections = scan_projections(f_d, first.sample_rate, first.samples.size,
                                   cos_guard)
    edges = np.linspace(-amp, amp, n_bins + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    rhos = np.array([c.vector for c in coils])

    rows = np.zeros((len(projections), n_bins))
    angles = np.empty(len(projections))
    weak = 0
    for p, (idx, phase, cosphi) in enumerate(projections):
        beta = ffl_half_angle(model, (p + 0.5) / f_d)
        e = np.array([math.sin(beta), -math.cos(beta), 0.0])
        a = rhos @ e
        denom = float(a @ a)
        if denom < 0.1:
            weak += 1
        s = amp * np.sin(phase)
        u = np.stack([tr.samples[idx] for tr in traces])
        proj = (a @ u) / (prefactor * cosphi * max(denom, 1e-12))

        theta, flip = _wrap_angle(beta - math.pi / 2.0)
        if flip:
            s = -s
        angles[p] = theta
        which = np.clip(np.digitize(s, edges) - 1, 0, n_bins - 1)
        sums = np.bincount(which, weights=proj, minlength=n_bins)
        counts = np.bincount(which, minlength=n_bins)
        filled = counts > 0
        row = np.where(filled, sums / np.maximum(counts, 1), 0.0)
        if not filled.all():
            # the sine sweep spends little time near s = 0, so interior bins
            # can end up without samples; bridge them from filled neighbors
            row = np.interp(centers, centers[filled], row[filled])
        rows[p] = row
    if weak:
        log.warning("%d projections have weak coil coverage (<rho, e> near 0)",
                    weak)
    span = angles.max() - angles.min()
    if angles.size > 1 and span < math.radians(150.0):
        log.warning("angular coverage spans only %.1f degrees", math.degrees(span))
    order = np.argsort(angles)
    rows = rows[order]
    angles = angles[order]
    return Sinogram(values=rows, angles=angles, displacements=centers)


def _next_pow2(n: int) -> int:
    return 1 << max(0, (n - 1)).bit_length()


def check_axis(n_bins: int, ds: float, prefactor: float = 1.0):
    """Raise ConfigError unless the ramp filter can take n_bins displacement
    bins ds apart, of samples divided by a velocity prefactor: a unit sample
    so divided and filtered at the top frequency must be finite and nonzero.
    The frequencies divide by the zero-padded span, so a huge ds makes them
    0 (the span overflows) and a zero or tiny one inf."""
    nfft = _next_pow2(2 * n_bins)
    span = nfft * float(ds)
    # fftfreq's top |frequency|, (nfft // 2) / (nfft ds), as it computes it
    gain = (nfft // 2) * (1.0 / span) / prefactor if span and prefactor else math.inf
    if not (math.isfinite(gain) and gain):
        raise ConfigError(f"need a finite, nonzero ramp filter gain, got {n_bins} "
                          f"bins {ds:g} m apart, zero-padded to {span:g} m, and a "
                          f"velocity prefactor {prefactor:g}")


def sweep_axis(model: FieldModel, n_bins: int) -> tuple:
    """(amplitude, velocity prefactor -2 pi d mu0 f_d SLAB_THICKNESS) of the
    ideal FFL model's line sweep, whose n_bins bins check_axis accepts."""
    amp, p = ffl_amplitude(model), model.params
    prefactor = -TWO_PI * p["d"] * MU0 * p["f_d"] * SLAB_THICKNESS
    check_axis(n_bins, 2 * amp / n_bins, prefactor)
    return amp, prefactor


def subtract_edge_baseline(sino: Sinogram) -> Sinogram:
    """Remove per-projection constant offsets, estimated from the edge bins.

    A high-pass on the raw voltages deletes their drive-frequency component,
    which after velocity division reappears as one constant per projection.
    When the object keeps clear of the sweep limits the outer tenth of the
    displacement bins on either side carries no signal, so its mean
    estimates that constant exactly.  Unfiltered traces leave no constant.
    """
    n = sino.displacements.size
    k = max(1, int(round(0.1 * n)))
    edges = np.concatenate([sino.values[:, :k], sino.values[:, -k:]], axis=1)
    return replace(sino, values=sino.values - edges.mean(axis=1, keepdims=True))


def _ramp_filter(rows: np.ndarray, ds: float, window: str) -> np.ndarray:
    n = rows.shape[1]
    nfft = _next_pow2(2 * n)
    freqs = np.fft.fftfreq(nfft, d=ds)
    filt = np.abs(freqs)
    if window == "hann":
        fmax = np.abs(freqs).max()
        filt = filt * 0.5 * (1.0 + np.cos(math.pi * freqs / fmax))
    return np.real(np.fft.ifft(np.fft.fft(rows, nfft) * filt))[:, :n]


def fbp_reconstruct(sino: Sinogram, template: ConcentrationGrid,
                    window: str = "ramlak") -> ConcentrationGrid:
    """Ram-Lak filtered back-projection onto the template's grid.

    Each projection is DFT-filtered with |frequency| (zero-padded to kill
    circular wrap; check_axis judges the filter's gain), back-projected
    with linear interpolation along the displacement axis, and the angle
    sum is scaled by pi / n_angles.
    """
    check_settings(n_bins=sino.displacements.size, window=window)
    ds = sino.displacements[1] - sino.displacements[0]
    check_axis(sino.displacements.size, ds)
    xs = template.axis_coords(0)
    ys = template.axis_coords(1)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    accum = np.zeros_like(gx)
    filtered = _ramp_filter(sino.values, ds, window)
    for a, q in zip(sino.angles, filtered):
        s = gx * math.cos(a) + gy * math.sin(a)
        accum += np.interp(s, sino.displacements, q, left=0.0, right=0.0)
    accum *= math.pi / sino.angles.size
    values = np.repeat(accum[:, :, None], template.dims[2], axis=2)
    return ConcentrationGrid(values=values, spacing=template.spacing,
                             origin=template.origin)


def save_sinogram_csv(sino: Sinogram, path):
    with atomic_open(path, "w") as fh:
        fh.write(f"# sinogram {sino.angles.size} {sino.displacements.size}\n")
        fh.write("# angles " + " ".join(map(number_text, sino.angles)) + "\n")
        fh.write("# displacements "
                 + " ".join(map(number_text, sino.displacements)) + "\n")
        fh.write(float_lines(sino.values))

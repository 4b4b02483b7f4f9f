"""Sparse system matrix assembly for the piecewise magnetization model.

Entry (j, k) holds -mu0 <rho, dB/dt(r_k, t_j)> mbar'_N(|B(r_k, t_j)|) vol_k,
optionally averaged over a subsampled cell, so a row times the flat
concentration reproduces simulate_piecewise at that sample.  Cells outside
every staircase interval (|B| >= b) contribute exact zeros, which is what
makes the matrix sparse.  It is stored sparse; filtered on application.
"""

from __future__ import annotations

import hashlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from itertools import product

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, HashMismatchError, MissingInputError, ResourceCapError
from .fields import MU0, FieldEvaluator, FieldModel
from .forward import highpass_mask
from .magnetization import MagnetizationApprox
from .phantom import ConcentrationGrid

_DEFAULT_BLOCK = 256
DEFAULT_NNZ_CAP = 50_000_000


class CellQuadrature:
    """Midpoint (or subsampled) cell quadrature bound to one model and grid."""

    def __init__(self, model: FieldModel, grid: ConcentrationGrid,
                 subsampling: int = 1):
        if subsampling < 1:
            raise ConfigError("subsampling must be >= 1")
        centers = grid.centers()
        offsets = [np.zeros(3)]
        if subsampling > 1:
            axes = []
            for a in range(3):
                if grid.dims[a] > 1:
                    step = grid.spacing[a]
                    axes.append(((np.arange(subsampling) + 0.5) / subsampling - 0.5)
                                * step)
                else:
                    axes.append(np.zeros(1))
            offsets = [np.array(o) for o in product(axes[0], axes[1], axes[2])]
        self.n_sub = len(offsets)
        self.n_cells = grid.n_cells
        self.cell_volume = grid.cell_volume
        pts = (centers[:, None, :] + np.asarray(offsets)[None, :, :]).reshape(-1, 3)
        self.evaluator = FieldEvaluator(model, pts)

    def weights(self, approx: MagnetizationApprox, rho, times) -> np.ndarray:
        """Matrix entries for a block of times, shape (n_cells, len(times))."""
        rho = np.asarray(rho, dtype=float)
        b = self.evaluator.field(times)
        bdot = self.evaluator.field_dt(times)
        mag = np.sqrt(np.einsum("jpt,jpt->pt", b, b))
        proj = np.einsum("j,jpt->pt", rho, bdot)
        w = -MU0 * proj * approx.eval(mag)
        if self.n_sub > 1:
            w = w.reshape(self.n_cells, self.n_sub, -1).mean(axis=1)
        return w * self.cell_volume


@dataclass
class SystemMatrix:
    """CSR system matrix plus the acquisition metadata it was built under.

    Rows are grouped by coil: rows_per_coil consecutive rows per entry of
    coil_indices, time-ordered inside each group.  matrix is the unfiltered
    S, stored sparse; highpass is filtered on application by operator().
    """

    matrix: sp.csr_matrix
    sample_rate: float
    t0: float
    rows_per_coil: int
    coil_indices: tuple
    coil_vectors: tuple
    grid_dims: tuple
    grid_spacing: tuple
    grid_origin: tuple
    config_hash: str
    highpass: float | None = None

    @property
    def shape(self) -> tuple:
        return self.matrix.shape

    @property
    def nnz(self) -> int:
        return int(self.matrix.nnz)

    def operator(self):
        """matrix, or F S as a LinearOperator when highpass is set.

        F is the highpass_mask DFT projector on each rows_per_coil block, so
        stacked coils never mix.  The mask is real and symmetric: F^T = F.
        """
        if self.highpass is None:
            return self.matrix
        from scipy.sparse.linalg import LinearOperator  # lazy: a 0.2 s import

        mask = highpass_mask(self.rows_per_coil, self.sample_rate, self.highpass)

        def f(y):
            y = np.reshape(y, (-1, self.rows_per_coil))
            return np.real(np.fft.ifft(np.fft.fft(y) * mask)).ravel()

        return LinearOperator(self.shape, matvec=lambda x: f(self.matrix @ x),
                              rmatvec=lambda y: self.matrix.T @ f(y), dtype=float)

    def grid_meta_matches(self, grid: ConcentrationGrid, tol: float = 1e-9) -> bool:
        return (self.grid_dims == grid.dims
                and np.allclose(self.grid_spacing, grid.spacing, rtol=0, atol=tol)
                and np.allclose(self.grid_origin, grid.origin, rtol=0, atol=tol))


def config_hash(model: FieldModel, approx: MagnetizationApprox,
                grid: ConcentrationGrid, times: np.ndarray, coil,
                subsampling: int = 1) -> str:
    """Deterministic 16-hex digest of everything the matrix depends on."""
    h = hashlib.sha256()

    def put(*parts):
        for p in parts:
            h.update(str(p).encode())
            h.update(b"|")

    for t in model.terms:
        put(t.component, t.degree, t.order, f"{t.coefficient:.17g}",
            t.modulation.kind, f"{t.modulation.f1:.17g}", f"{t.modulation.f2:.17g}",
            f"{t.modulation.phase:.17g}", f"{t.modulation.scale:.17g}")
    put(f"{model.validity_radius:.17g}")
    put(approx.scheme, f"{approx.threshold:.17g}")
    put(*(f"{x:.17g}" for x in approx.ladder))
    put(*(f"{s:.17g}" for s in approx.slopes))
    put(*grid.dims, *(f"{s:.17g}" for s in grid.spacing),
        *(f"{o:.17g}" for o in grid.origin))
    times = np.asarray(times)
    dt = times[1] - times[0] if times.size > 1 else 0.0
    put(times.size, f"{times[0]:.17g}", f"{dt:.17g}")
    rho = coil.vector if hasattr(coil, "vector") else np.asarray(coil, dtype=float)
    put(*(f"{v:.17g}" for v in rho))
    put(subsampling)
    return h.hexdigest()[:16]


def estimate_nnz(quad: CellQuadrature, approx: MagnetizationApprox, rho,
                 times: np.ndarray, probes: int = 8) -> int:
    """Extrapolate the nonzero count from a few probe times."""
    idx = np.unique(np.linspace(0, times.size - 1, min(probes, times.size)).astype(int))
    w = quad.weights(approx, rho, times[idx])
    per_time = np.count_nonzero(w, axis=0)
    return int(np.ceil(per_time.mean() * times.size))


def build_system_matrix(model: FieldModel, approx: MagnetizationApprox, coil,
                        times, grid: ConcentrationGrid, subsampling: int = 1,
                        nnz_cap: int = DEFAULT_NNZ_CAP, n_workers: int = 1,
                        block: int = _DEFAULT_BLOCK) -> SystemMatrix:
    """Assemble the matrix row block by row block (time-parallel).

    Blocks are independent and may be computed by worker threads; the merge
    concatenates them in block order so the result does not depend on the
    worker count.  The estimated nonzero count is checked against nnz_cap
    before any assembly starts.
    """
    times = np.asarray(times, dtype=float)
    if times.size < 1:
        raise ConfigError("need at least one sample time")
    if times.size > 1:
        steps = np.diff(times)
        if not np.allclose(steps, steps[0], rtol=1e-9, atol=0):
            raise ConfigError("sample times must be uniform")
        dt = float(steps[0])
    else:
        dt = 0.0
    rho = coil.vector if hasattr(coil, "vector") else np.asarray(coil, dtype=float)
    quad = CellQuadrature(model, grid, subsampling)
    est = estimate_nnz(quad, approx, rho, times)
    if est > nnz_cap:
        raise ResourceCapError(
            f"estimated {est} nonzeros exceeds the cap of {nnz_cap}; raise the "
            f"cap, shrink the grid, or lower the threshold b")

    if block > times.size:
        block = times.size
    spans = [(lo, min(lo + block, times.size)) for lo in range(0, times.size, block)]

    def assemble(span):
        lo, hi = span
        w = quad.weights(approx, rho, times[lo:hi])
        return sp.csr_matrix(w.T)

    if n_workers <= 1:
        blocks = [assemble(s) for s in spans]
    else:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            blocks = list(pool.map(assemble, spans))
    total = sum(b.nnz for b in blocks)
    if total > nnz_cap:
        raise ResourceCapError(f"assembled {total} nonzeros exceeds the cap "
                               f"of {nnz_cap}")
    matrix = sp.vstack(blocks, format="csr")
    coil_index = getattr(coil, "index", 0)
    digest = config_hash(model, approx, grid, times, coil, subsampling)
    return SystemMatrix(matrix=matrix, sample_rate=1.0 / dt if dt else 0.0,
                        t0=float(times[0]), rows_per_coil=times.size,
                        coil_indices=(coil_index,), coil_vectors=(tuple(rho),),
                        grid_dims=grid.dims, grid_spacing=grid.spacing,
                        grid_origin=grid.origin, config_hash=digest)


def stack_coils(matrices, traces):
    """Stack per-coil matrices and traces into one joint system.

    Returns (SystemMatrix, samples) where samples concatenates the traces
    in matrix order.  All matrices must share grid and time metadata.
    """
    if not matrices or len(matrices) != len(traces):
        raise ConfigError("need one trace per matrix")
    first = matrices[0]
    for m in matrices[1:]:
        if m.grid_dims != first.grid_dims or m.rows_per_coil != first.rows_per_coil:
            raise ConfigError("matrices disagree on grid or time axis")
        if not (np.isclose(m.sample_rate, first.sample_rate)
                and np.isclose(m.t0, first.t0) and m.highpass == first.highpass):
            raise ConfigError("matrices disagree on sampling metadata")
    for m, tr in zip(matrices, traces):
        n = tr.samples.size if hasattr(tr, "samples") else len(tr)
        if n != m.rows_per_coil:
            raise ConfigError("trace length does not match matrix rows")
    stacked = sp.vstack([m.matrix for m in matrices], format="csr")
    samples = np.concatenate([
        tr.samples if hasattr(tr, "samples") else np.asarray(tr, dtype=float)
        for tr in traces])
    digest = hashlib.sha256(
        "|".join(m.config_hash for m in matrices).encode()).hexdigest()[:16]
    return (replace(first, matrix=stacked,
                    coil_indices=tuple(i for m in matrices for i in m.coil_indices),
                    coil_vectors=tuple(v for m in matrices for v in m.coil_vectors),
                    config_hash=digest),
            samples)


def chain_highpass_hash(digest: str, cutoff: float) -> str:
    """Config hash of a matrix after apply_highpass_rows at this cutoff."""
    return hashlib.sha256(f"{digest}|hp:{cutoff:.17g}".encode()).hexdigest()[:16]


def apply_highpass_rows(sm: SystemMatrix, cutoff: float) -> SystemMatrix:
    """Mark sm for the data high-pass on its time axis, per coil block.

    Filtering commutes with the matrix-vector product, so operator() @ c
    equals the filtered S @ c.  Stored sparse; filtered on application.
    """
    if cutoff <= 0:
        raise ConfigError("cutoff must be positive")
    return replace(sm, config_hash=chain_highpass_hash(sm.config_hash, cutoff),
                   highpass=cutoff)


def save_system_matrix(sm: SystemMatrix, path):
    """Four ASCII header lines, then COO triplet arrays (int64, int64, float64)."""
    coo = sm.matrix.tocoo()
    hp = "none" if sm.highpass is None else f"{sm.highpass:.17g}"
    lines = [
        f"{sm.shape[0]} {sm.shape[1]} {coo.nnz} {sm.config_hash}",
        f"{sm.sample_rate:.17g} {sm.t0:.17g} {sm.rows_per_coil} {hp}",
        " ".join(f"{i}:{v[0]:.17g},{v[1]:.17g},{v[2]:.17g}"
                 for i, v in zip(sm.coil_indices, sm.coil_vectors)),
        " ".join([*(str(d) for d in sm.grid_dims),
                  *(f"{s:.17g}" for s in sm.grid_spacing),
                  *(f"{o:.17g}" for o in sm.grid_origin)]),
    ]
    with open(path, "wb") as fh:
        fh.write(("\n".join(lines) + "\n").encode("ascii"))
        fh.write(coo.row.astype("<i8").tobytes())
        fh.write(coo.col.astype("<i8").tobytes())
        fh.write(coo.data.astype("<f8").tobytes())


def load_system_matrix(path, expected_hash: str | None = None,
                       force: bool = False) -> SystemMatrix:
    """Load a stored matrix; validates the config hash unless force is set."""
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        raise MissingInputError(f"system matrix file not found: {path}") from None
    with fh:
        rows, cols, nnz, digest = fh.readline().decode("ascii").split()
        rows, cols, nnz = int(rows), int(cols), int(nnz)
        rate, t0, per_coil, hp = fh.readline().decode("ascii").split()
        coil_fields = fh.readline().decode("ascii").split()
        grid_fields = fh.readline().decode("ascii").split()
        raw = fh.read()
    if expected_hash is not None and digest != expected_hash and not force:
        raise HashMismatchError(
            f"{path}: stored config hash {digest} does not match expected "
            f"{expected_hash}; pass force to override")
    need = nnz * (8 + 8 + 8)
    if len(raw) != need:
        raise ConfigError(f"{path}: triplet payload truncated")
    r = np.frombuffer(raw[:8 * nnz], dtype="<i8")
    c = np.frombuffer(raw[8 * nnz:16 * nnz], dtype="<i8")
    v = np.frombuffer(raw[16 * nnz:], dtype="<f8")
    matrix = sp.coo_matrix((v, (r, c)), shape=(rows, cols)).tocsr()
    indices, vectors = [], []
    for field in coil_fields:
        idx, vec = field.split(":")
        indices.append(int(idx))
        vectors.append(tuple(float(x) for x in vec.split(",")))
    dims = tuple(int(x) for x in grid_fields[:3])
    spacing = tuple(float(x) for x in grid_fields[3:6])
    origin = tuple(float(x) for x in grid_fields[6:9])
    return SystemMatrix(matrix=matrix, sample_rate=float(rate), t0=float(t0),
                        rows_per_coil=int(per_coil), coil_indices=tuple(indices),
                        coil_vectors=tuple(vectors), grid_dims=dims,
                        grid_spacing=spacing, grid_origin=origin,
                        config_hash=digest,
                        highpass=None if hp == "none" else float(hp))

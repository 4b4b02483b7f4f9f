"""Sparse system matrix assembly for the piecewise magnetization model.

Entry (j, k) holds -mu0 <rho, dB/dt(r_k, t_j)> mbar'_N(|B(r_k, t_j)|) vol_k,
optionally averaged over a subsampled cell, so a row times the flat
concentration reproduces simulate_piecewise at that sample.  Cells outside
every staircase interval (|B| >= b) contribute exact zeros, which is what
makes the matrix sparse.  Assembly uses that: B is evaluated at the cell
centers first, and only cells whose center lies within b + L(t) r of the
low-field volume (L(t) a Lipschitz bound on B from the solid-harmonic
coefficients, r the center-to-sub-point reach) get their sub-points
evaluated; see CellQuadrature.  It is stored sparse; filtered on
application.

scipy.sparse is imported inside the functions that build, stack or load
CSR (CellQuadrature.sparse_weights, build_system_matrix, stack_coils,
load_system_matrix), so importing this module, and the stages that never
touch a matrix, load numpy alone.  An operator handed to recon.lsqr_solve
needs only shape, @ and .T: the CSR matrix itself, or the filtered
operator of SystemMatrix.operator().
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from itertools import product
from typing import TYPE_CHECKING

import numpy as np

from .artifacts import atomic_open, open_input
from .errors import ConfigError, HashMismatchError, ResourceCapError
from .fields import (MU0, FieldEvaluator, FieldModel, eval_harmonic_polynomial,
                     harmonic_gradient_bound)
from .forward import (ReceiveCoil, SignalTrace, apply_dft_mask, highpass_mask,
                      map_time_blocks)
from .magnetization import MagnetizationApprox
from .phantom import ConcentrationGrid

if TYPE_CHECKING:
    import scipy.sparse as sp

# times per assembly block: a block's temporaries (B at every cell center,
# 3 x n_cells x block floats) stay a few MB, so what worker threads free is
# reused instead of piling up in their malloc arenas and making peak memory
# vary from run to run
_DEFAULT_BLOCK = 64
DEFAULT_NNZ_CAP = 50_000_000
# relative margin on the pruning limit, so rounding never drops a live entry
_SAFETY = 1.0 + 1e-9


class CellQuadrature:
    """Midpoint (or subsampled) cell quadrature bound to one model and grid.

    weights() evaluates every sub-point of every cell; sparse_weights()
    gives the same entries but first prunes the (cell, time) pairs that
    cannot reach the low-field volume |B| < b.  Every sub-point of a cell
    lies within reach r of its center, so |B(sub)| >= |B(center)| - L(t) r,
    L(t) being a Lipschitz bound on B(., t) over the ball of radius R that
    holds every center and sub-point.  B_j = sum_k F_jk(t) p_k(r) over the
    distinct harmonics p_k of the FieldEvaluator table, F = its factors();
    with G_l from fields.harmonic_gradient_bound, L(t) is the 2-norm over j
    of sum_k |F_jk(t)| G_l_k(R).  It is exact for the degree-1 ideal
    topologies, whose gradients are constant.  The sub-point rows are the
    evaluator's polys, read in place as (cell, sub-point, harmonic).
    """

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
        offsets = np.asarray(offsets)
        self.n_sub = len(offsets)
        self.n_cells = grid.n_cells
        self.cell_volume = grid.cell_volume
        pts = (centers[:, None, :] + offsets[None, :, :]).reshape(-1, 3)
        self.evaluator = FieldEvaluator(model, pts)
        self.reach = float(np.max(np.linalg.norm(offsets, axis=1)))
        radius = max(np.max(np.linalg.norm(pts, axis=1)),
                     np.max(np.linalg.norm(centers, axis=1)))
        harmonics = self.evaluator.harmonics
        self._grad = np.array([harmonic_gradient_bound(l, radius)
                               for l, _ in harmonics])
        self._center_polys = np.array(
            [eval_harmonic_polynomial(l, m, centers) for l, m in harmonics]).T
        # (cell, sub-point, harmonic): one row per cell gathers its sub-points
        self._sub_polys = self.evaluator.polys.T.reshape(
            self.n_cells, self.n_sub, len(harmonics))

    def weights(self, approx: MagnetizationApprox, rho, times) -> np.ndarray:
        """Matrix entries for a block of times, shape (n_cells, len(times)).

        Unpruned: every sub-point of every cell is evaluated.
        """
        rho = np.asarray(rho, dtype=float)
        b = self.evaluator.field(times)
        bdot = self.evaluator.field_dt(times)
        mag = np.sqrt(np.einsum("jpt,jpt->pt", b, b))
        proj = np.einsum("j,jpt->pt", rho, bdot)
        w = -MU0 * proj * approx.eval(mag)
        if self.n_sub > 1:
            w = w.reshape(self.n_cells, self.n_sub, -1).mean(axis=1)
        return w * self.cell_volume

    def lipschitz(self, times) -> np.ndarray:
        """L(t) = sqrt(sum_j (sum_k |F_jk(t)| G_l_k(R))^2) for a block of times."""
        fac = self.evaluator.factors(times)
        return np.sqrt(np.sum((self._grad @ np.abs(fac)) ** 2, axis=0))

    def sparse_weights(self, approx: MagnetizationApprox, rho,
                       times) -> sp.csr_matrix:
        """The entries of weights(...).T as CSR, shape (len(times), n_cells).

        B is evaluated at the cell centers first; a pair with |B(center, t)|
        >= (b + L(t) r)(1 + 1e-9) has |B| >= b at every sub-point and hence
        a zero entry.  Sub-point B and <rho, dB/dt> are evaluated for the
        surviving pairs only, and exact zeros are dropped, so the pattern
        equals that of the dense weights.
        """
        import scipy.sparse as sp

        rho = np.asarray(rho, dtype=float)
        times = np.atleast_1d(np.asarray(times, dtype=float))
        fac = self.evaluator.factors(times)
        b_c = self._center_polys @ fac
        mag_c = np.sqrt(np.einsum("jpt,jpt->tp", b_c, b_c))
        limit = (approx.threshold + self.lipschitz(times) * self.reach) * _SAFETY
        tidx, cells = np.nonzero(mag_c < limit[:, None])
        # per time, one product gives B and <rho, dB/dt> at the survivors'
        # sub-points: coef[t] maps the harmonics to (B_x, B_y, B_z, <rho, dB/dt>)
        fac_dt = self.evaluator.factors(times, use_dt=True)
        rho_dt = rho[0] * fac_dt[0] + rho[1] * fac_dt[1] + rho[2] * fac_dt[2]
        coef = np.stack([*fac, rho_dt], axis=-1).transpose(1, 0, 2).copy()
        bounds = _row_starts(tidx, times.size)
        n_sub = self.n_sub
        at_sub = np.empty((cells.size * n_sub, 4))
        for t in np.flatnonzero(np.diff(bounds)):
            lo, hi = bounds[t], bounds[t + 1]
            rows = self._sub_polys[cells[lo:hi]].reshape(-1, coef.shape[1])
            at_sub[lo * n_sub:hi * n_sub] = rows @ coef[t]
        bx, by, bz, proj = (at_sub[:, j].reshape(-1, n_sub) for j in range(4))
        w = -MU0 * proj * approx.eval(np.sqrt(bx * bx + by * by + bz * bz))
        # sub-points summed in a fixed order: no value depends on the block
        vals = sum(w[:, s] for s in range(n_sub)) / n_sub * self.cell_volume
        keep = vals != 0
        return sp.csr_matrix(
            (vals[keep], cells[keep], _row_starts(tidx[keep], times.size)),
            shape=(times.size, self.n_cells))


def _row_starts(rows: np.ndarray, n_rows: int) -> np.ndarray:
    """CSR indptr of sorted row indices: rows[indptr[t]:indptr[t + 1]] == t."""
    return np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n_rows))])


@dataclass(frozen=True, eq=False)
class FilteredOperator:
    """F S without forming it: op @ x = F(S x) and op.T @ y = S^T(F y).

    F filters each len(mask) block of rows through the real, symmetric DFT
    mask, so F^T = F.  Only shape, @ on a 1-D vector and .T are provided.
    """

    csr: sp.csr_matrix
    mask: np.ndarray
    transposed: bool = False

    @property
    def shape(self) -> tuple:
        rows, cols = self.csr.shape
        return (cols, rows) if self.transposed else (rows, cols)

    @property
    def T(self) -> FilteredOperator:
        return replace(self, transposed=not self.transposed)

    def _filter(self, y: np.ndarray) -> np.ndarray:
        return apply_dft_mask(np.reshape(y, (-1, self.mask.size)),
                              self.mask).ravel()

    def __matmul__(self, x) -> np.ndarray:
        if self.transposed:
            return self.csr.T @ self._filter(x)
        return self._filter(self.csr @ x)


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
        """matrix, or the FilteredOperator F S when highpass is set.

        Either one is all recon.lsqr_solve needs: shape, @ and .T.  F is the
        highpass_mask DFT projector on each rows_per_coil block, so stacked
        coils never mix.  Nothing here imports scipy: only the matrix build,
        stack and load functions do.
        """
        if self.highpass is None:
            return self.matrix
        return FilteredOperator(self.matrix, highpass_mask(
            self.rows_per_coil, self.sample_rate, self.highpass))

    def grid_meta_matches(self, grid: ConcentrationGrid, tol: float = 1e-9) -> bool:
        return (self.grid_dims == grid.dims
                and np.allclose(self.grid_spacing, grid.spacing, rtol=0, atol=tol)
                and np.allclose(self.grid_origin, grid.origin, rtol=0, atol=tol))


def config_hash(model: FieldModel, approx: MagnetizationApprox,
                grid: ConcentrationGrid, times: np.ndarray, coil: ReceiveCoil,
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
    put(*(f"{v:.17g}" for v in coil.vector))
    put(subsampling)
    return h.hexdigest()[:16]


def estimate_nnz(quad: CellQuadrature, approx: MagnetizationApprox, rho,
                 times: np.ndarray, probes: int = 8) -> int:
    """Extrapolate the nonzero count from a few probe times."""
    idx = np.unique(np.linspace(0, times.size - 1, min(probes, times.size)).astype(int))
    probe = quad.sparse_weights(approx, rho, times[idx])
    return int(np.ceil(probe.nnz / idx.size * times.size))


def build_system_matrix(model: FieldModel, approx: MagnetizationApprox,
                        coil: ReceiveCoil, times, grid: ConcentrationGrid,
                        subsampling: int = 1,
                        nnz_cap: int = DEFAULT_NNZ_CAP, n_workers: int = 1,
                        block: int = _DEFAULT_BLOCK) -> SystemMatrix:
    """Assemble the matrix row block by row block (time-parallel).

    Each block is CellQuadrature.sparse_weights: (cell, time) pairs that the
    Lipschitz bound places outside the low-field volume are skipped, and
    the CSR block is built from the surviving entries.  Its pattern equals
    that of the dense quadrature; values agree to the rounding of the
    reordered term sum.  Blocks are independent and may be computed by
    worker threads; the merge concatenates them in block order, and the
    entries of one time never depend on the rest of its block, so the
    result does not depend on the worker count or block size.  The
    estimated nonzero count is checked against nnz_cap before any assembly
    starts.
    """
    import scipy.sparse as sp

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
    rho = coil.vector
    quad = CellQuadrature(model, grid, subsampling)
    est = estimate_nnz(quad, approx, rho, times)
    if est > nnz_cap:
        raise ResourceCapError(
            f"estimated {est} nonzeros exceeds the cap of {nnz_cap}; raise the "
            f"cap, shrink the grid, or lower the threshold b")

    blocks = map_time_blocks(lambda span: quad.sparse_weights(approx, rho, span),
                             times, n_workers, block)
    total = sum(b.nnz for b in blocks)
    if total > nnz_cap:
        raise ResourceCapError(f"assembled {total} nonzeros exceeds the cap "
                               f"of {nnz_cap}")
    matrix = sp.vstack(blocks, format="csr")
    digest = config_hash(model, approx, grid, times, coil, subsampling)
    return SystemMatrix(matrix=matrix, sample_rate=1.0 / dt if dt else 0.0,
                        t0=float(times[0]), rows_per_coil=times.size,
                        coil_indices=(coil.index,), coil_vectors=(tuple(rho),),
                        grid_dims=grid.dims, grid_spacing=grid.spacing,
                        grid_origin=grid.origin, config_hash=digest)


def _geometry(sm: SystemMatrix) -> tuple:
    return sm.grid_dims, sm.grid_spacing, sm.grid_origin


def stack_coils(matrices, traces: list[SignalTrace]):
    """Stack per-coil matrices and their traces into one joint system.

    Returns (SystemMatrix, samples) where samples concatenates the traces
    in matrix order.  All matrices must share the grid geometry exactly and
    the time metadata.
    """
    import scipy.sparse as sp

    if not matrices or len(matrices) != len(traces):
        raise ConfigError("need one trace per matrix")
    first = matrices[0]
    for m in matrices[1:]:
        if _geometry(m) != _geometry(first) or m.rows_per_coil != first.rows_per_coil:
            raise ConfigError("matrices disagree on grid or time axis")
        if not (np.isclose(m.sample_rate, first.sample_rate)
                and np.isclose(m.t0, first.t0) and m.highpass == first.highpass):
            raise ConfigError("matrices disagree on sampling metadata")
    if any(tr.samples.size != m.rows_per_coil for m, tr in zip(matrices, traces)):
        raise ConfigError("trace length does not match matrix rows")
    stacked = sp.vstack([m.matrix for m in matrices], format="csr")
    samples = np.concatenate([tr.samples for tr in traces])
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
    A cut-off that keeps no DFT bin of a coil block raises ConfigError.
    """
    if cutoff <= 0:
        raise ConfigError("cutoff must be positive")
    if sm.sample_rate <= 0:
        raise ConfigError("a high-pass needs a positive sample rate")
    highpass_mask(sm.rows_per_coil, sm.sample_rate, cutoff)
    return replace(sm, config_hash=chain_highpass_hash(sm.config_hash, cutoff),
                   highpass=cutoff)


def save_system_matrix(sm: SystemMatrix, path):
    """Four ASCII header lines, then COO triplet arrays (int64, int64, float64).

    The bytes go to a temporary file beside path, which then replaces path,
    so an interrupted write never leaves a partial matrix behind.
    """
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
    with atomic_open(path) as fh:
        fh.write(("\n".join(lines) + "\n").encode("ascii"))
        fh.write(coo.row.astype("<i8").tobytes())
        fh.write(coo.col.astype("<i8").tobytes())
        fh.write(coo.data.astype("<f8").tobytes())


def _parse_header(lines):
    """The four header lines of a stored matrix.

    ValueError when a line is malformed or its metadata impossible: every
    rate, time, cut-off, vector, spacing and origin must be finite, a
    high-pass needs a positive sample rate, and the shape must match
    rows_per_coil times the coils and the grid dims.
    """
    rows, cols, nnz, digest = lines[0].decode("ascii").split()
    rows, cols, nnz = int(rows), int(cols), int(nnz)
    if min(rows, cols, nnz) < 0:
        raise ValueError("negative shape or nonzero count")
    rate, t0, per_coil, hp = lines[1].decode("ascii").split()
    rate, t0, per_coil = float(rate), float(t0), int(per_coil)
    highpass = None if hp == "none" else float(hp)
    if not (0 <= rate < math.inf and math.isfinite(t0)):
        raise ValueError("sample rate and t0 must be finite, the rate >= 0")
    if highpass is not None and not (rate > 0 and 0 < highpass < math.inf):
        raise ValueError("a high-pass needs a finite positive cut-off and "
                         "a positive sample rate")
    indices, vectors = [], []
    for field in lines[2].decode("ascii").split():
        idx, vec = field.split(":")
        vec = tuple(float(x) for x in vec.split(","))
        if len(vec) != 3 or not all(map(math.isfinite, vec)):
            raise ValueError(f"coil vector {field!r} needs 3 finite components")
        indices.append(int(idx))
        vectors.append(vec)
    if per_coil < 1 or not indices or rows != per_coil * len(indices):
        raise ValueError(f"{rows} rows are not {len(indices)} coil(s) of "
                         f"{per_coil} >= 1 rows")
    grid_fields = lines[3].decode("ascii").split()
    if len(grid_fields) != 9:
        raise ValueError(f"grid line needs 9 fields, got {len(grid_fields)}")
    dims = tuple(int(x) for x in grid_fields[:3])
    spacing = tuple(float(x) for x in grid_fields[3:6])
    origin = tuple(float(x) for x in grid_fields[6:9])
    if min(dims) < 1 or math.prod(dims) != cols:
        raise ValueError(f"grid dims {dims} do not make {cols} columns")
    if not (all(0 < s < math.inf for s in spacing)
            and all(map(math.isfinite, origin))):
        raise ValueError("grid spacing must be finite and positive, origin finite")
    return dict(shape=(rows, cols), nnz=nnz, config_hash=digest,
                sample_rate=rate, t0=t0, rows_per_coil=per_coil,
                highpass=highpass, coil_indices=tuple(indices),
                coil_vectors=tuple(vectors), grid_dims=dims,
                grid_spacing=spacing, grid_origin=origin)


def load_system_matrix(path, expected_hash: str | None = None,
                       force: bool = False) -> SystemMatrix:
    """Load a stored matrix; validates the config hash unless force is set.

    A malformed header, a truncated payload, an index outside the stored
    shape or a non-finite value raises ConfigError; a shape too large to
    allocate raises ResourceCapError.
    """
    import scipy.sparse as sp

    with open_input(path) as fh:
        lines = [fh.readline() for _ in range(4)]
        raw = fh.read()
    try:
        meta = _parse_header(lines)
    except ValueError as exc:
        raise ConfigError(f"{path}: malformed header: {exc}") from None
    digest = meta["config_hash"]
    if expected_hash is not None and digest != expected_hash and not force:
        raise HashMismatchError(
            f"{path}: stored config hash {digest} does not match expected "
            f"{expected_hash}; pass force to override")
    nnz = meta.pop("nnz")
    rows, cols = shape = meta.pop("shape")
    if len(raw) != nnz * (8 + 8 + 8):
        raise ConfigError(f"{path}: triplet payload truncated")
    r = np.frombuffer(raw[:8 * nnz], dtype="<i8")
    c = np.frombuffer(raw[8 * nnz:16 * nnz], dtype="<i8")
    v = np.frombuffer(raw[16 * nnz:], dtype="<f8")
    if nnz and (r.min() < 0 or r.max() >= rows or c.min() < 0 or c.max() >= cols):
        raise ConfigError(f"{path}: triplet index outside the {rows}x{cols} shape")
    if not np.all(np.isfinite(v)):
        raise ConfigError(f"{path}: non-finite matrix values")
    try:
        matrix = sp.coo_matrix((v, (r, c)), shape=shape).tocsr()
    except MemoryError:
        raise ResourceCapError(f"{path}: a {rows}x{cols} matrix does not fit "
                               f"in memory") from None
    return SystemMatrix(matrix=matrix, **meta)

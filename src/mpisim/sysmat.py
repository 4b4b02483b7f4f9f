"""Sparse system matrix assembly for the piecewise magnetization model.

Entry (j, k) holds -mu0 <rho, dB/dt(r_k, t_j)> mbar'_N(|B(r_k, t_j)|) vol_k,
optionally averaged over the sub-points of phantom.cell_offsets, so a row
times the flat concentration reproduces simulate_piecewise at that sample.
Cells outside every staircase interval (|B| >= b) contribute exact zeros,
which is what makes the matrix sparse.  Assembly uses that: it finds the
cells whose center lies within b + L(t) r of the low-field volume (L(t) a
Lipschitz bound on B from the solid-harmonic coefficients, r the
center-to-sub-point reach), and only those get their sub-points evaluated.
The centers are tested once per tile of 8 consecutive times, at the tile's
middle time, with a margin that bounds how far B moves within the tile;
only the candidates this leaves get their center |B| at every time of the
tile.  See CellQuadrature.  Only rho depends on the receive coil and
only mbar'_N on the staircase, so one pass serves every coil and
staircase: B, the pruning (at the largest b) and the sub-point |B| are
computed once, and each (staircase, coil) keeps its own entries and drops
its own exact zeros.  It is stored sparse; filtered on application.  One
CSR layout serves from assembly to LSQR: build_system_matrices copies each
row block's plain arrays, as the block arrives, into each staircase's
growing data and indices, one region per coil, and drops the block, so
the matrix is held once while it is assembled, plus a few blocks in
flight (and twice for a moment if it outgrows its estimated size).
Closing the gaps between the coils' regions in place then gives the
indptr, indices and data that save_system_matrix writes.
load_system_matrices reads each coil file's payload into its slice of one
stacked CSR.

scipy.sparse is imported only where a CSR is made (build_system_matrices,
SystemMatrix.coil_block, load_system_matrices), so importing this module,
and the stages that never touch a matrix, load numpy alone.
An operator handed to recon.lsqr_solve needs only shape, @ and .T: the CSR
matrix itself, or the filtered operator of SystemMatrix.operator().
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .artifacts import atomic_open, open_input
from .errors import ConfigError, HashMismatchError, ResourceCapError
from .fields import (MU0, FieldEvaluator, FieldModel, eval_harmonic_polynomial,
                     harmonic_gradient_bound)
from .forward import (AcquisitionConfig, ReceiveCoil, SignalTrace, apply_dft_mask,
                      highpass_mask, map_time_blocks)
from .magnetization import MagnetizationApprox
from .phantom import ConcentrationGrid, cell_offsets

if TYPE_CHECKING:
    import scipy.sparse as sp

# times per assembly block: a block's temporaries (the survivors' sub-point
# products, (3 + coils) floats per sub-point) stay a few MB, so what worker
# threads free is reused instead of piling up in their malloc arenas and
# making peak memory vary from run to run.  At most two blocks per worker
# are in flight (forward.map_time_blocks), so they are what the build
# holds beyond the matrix.  32 held about 9 MiB less on the desk scene,
# but desk_run and l1_sweep ran 7-12% longer end to end.
_DEFAULT_BLOCK = 64
DEFAULT_NNZ_CAP = 50_000_000
# consecutive times whose cell centers are first tested together, at the
# middle one of them (CellQuadrature.center_survivors)
_TILE = 8
# entries moved per step when _CoilRows.stacked moves a coil down
_CHUNK = 1 << 18
# relative margin on the pruning limit, so rounding never drops a live entry
_SAFETY = 1.0 + 1e-9


class CellQuadrature:
    """Midpoint (or subsampled) cell quadrature bound to one model and grid.

    weights(), the test oracle, evaluates every sub-point of every cell;
    sparse_weights() gives the same entries for any number of staircases
    and coils from one pass, but first prunes the (cell, time) pairs that
    cannot reach the low-field volume |B| < b.  Every sub-point of a cell
    lies within reach r of its center, so |B(sub)| >= |B(center)| - L(t) r,
    L(t) being a Lipschitz bound on B(., t) over the ball of radius R that
    holds every center and sub-point.  B_j = sum_k F_jk(t) p_k(r) over the
    distinct harmonics p_k of the FieldEvaluator table, F = its factors();
    with G_l from fields.harmonic_gradient_bound, L(t) is the 2-norm over j
    of sum_k |F_jk(t)| G_l_k(R).  It is exact for the degree-1 ideal
    topologies, whose gradients are constant.  center_survivors finds the
    pairs with |B(center)| below that limit without evaluating every center
    at every time: one center test per tile of _TILE times, then exact
    center |B| only for the cells that test leaves.  The sub-point rows are
    the evaluator's polys, copied once into a C-contiguous (cell, sub-point,
    harmonic) table so that gathering a cell reads one run of memory.
    """

    def __init__(self, model: FieldModel, grid: ConcentrationGrid,
                 subsampling: int = 1):
        centers = grid.centers()
        offsets = cell_offsets(grid, subsampling)
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
        self._center_peak = np.max(np.abs(self._center_polys), axis=0)
        # (cell, sub-point, harmonic), contiguous: a transposed view would
        # read one cache line per harmonic value on every gather
        self._sub_polys = np.ascontiguousarray(self.evaluator.polys.T.reshape(
            self.n_cells, self.n_sub, len(harmonics)))

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

    def lipschitz(self, fac) -> np.ndarray:
        """L(t) = sqrt(sum_j (sum_k |F_jk(t)| G_l_k(R))^2), F = evaluator.factors(t)."""
        return np.sqrt(np.sum((self._grad @ np.abs(fac)) ** 2, axis=0))

    def center_survivors(self, fac, limit) -> tuple:
        """The (time, cell) pairs with |B(center, t)| < limit[t], F = fac.

        Returns their time indices and int32 cells, in time order with cells
        ascending within a time, and the number of center |B| evaluated.
        The times are cut into tiles of _TILE, and each tile tests every
        center once, at its middle time t_m.  Since B_j(c, t) - B_j(c, t_m)
        = sum_k (F_jk(t) - F_jk(t_m)) p_k(c), |B(c, t)| differs from
        |B(c, t_m)| by at most D(t), the 2-norm over j of
        sum_k |F_jk(t) - F_jk(t_m)| max_c |p_k(c)|.  So a cell can survive
        in the tile only if |B(c, t_m)| < (max limit + max D)(1 + 1e-9);
        only those candidates get their exact |B| at the tile's times.  The
        bound holds at any times, however far apart.
        """
        n_times = fac.shape[2]
        starts = np.arange(0, n_times, _TILE)
        mids = (starts + np.minimum(starts + _TILE, n_times) - 1) // 2
        shift = np.abs(fac - fac[:, :, np.repeat(mids, _TILE)[:n_times]])
        drift = np.sqrt(np.sum((self._center_peak @ shift) ** 2, axis=0))
        bound = (np.maximum.reduceat(limit, starts)
                 + np.maximum.reduceat(drift, starts)) * _SAFETY
        b_mid = self._center_polys @ fac[:, :, mids]
        mag_mid = np.sqrt(b_mid[0] ** 2 + b_mid[1] ** 2 + b_mid[2] ** 2)
        candidates = mag_mid.T < bound[:, None]
        # (time, component, harmonic): a tile's factors are one contiguous
        # (tile * 3, harmonic) matrix, and its product rows are time-major
        fac_t = np.ascontiguousarray(fac.transpose(2, 0, 1))
        n_evaluated = self.n_cells * starts.size
        tidx, cells = [np.empty(0, np.intp)], [np.empty(0, np.intp)]
        for lo, cand in zip(starts, candidates):
            cand = np.flatnonzero(cand)
            if not cand.size:
                continue
            hi = min(lo + _TILE, n_times)
            b = (fac_t[lo:hi].reshape(-1, fac.shape[1]) @ self._center_polys[cand].T
                 ).reshape(hi - lo, 3, cand.size)
            t, c = np.nonzero(np.sqrt(b[:, 0] ** 2 + b[:, 1] ** 2 + b[:, 2] ** 2)
                              < limit[lo:hi, None])
            tidx.append(t + lo)
            cells.append(cand[c])
            n_evaluated += cand.size * (hi - lo)
        return (np.concatenate(tidx), np.concatenate(cells).astype(np.int32),
                n_evaluated)

    def sparse_weights(self, approxes, rhos, times) -> list:
        """The entries of weights(approx_i, rho_k, times).T as CSR arrays.

        approxes holds the staircases, rhos K coil vectors; out[i][k] is the
        (data, int32 indices, row lengths) of staircase i and coil k.
        Everything but the staircase and <rho_k, dB/dt> is the field's alone
        and is computed once: a pair with |B(center, t)| >= (b + L(t) r)
        (1 + 1e-9) has |B| >= b at every sub-point and hence a zero entry,
        and center_survivors keeps the other pairs, testing the centers once
        per tile of times.  The pruning uses the largest b: the limit rises
        with b, so its survivors hold every staircase's.
        Sub-point B and each <rho_k, dB/dt> are evaluated for the surviving
        pairs only, then staircase_slopes staircases the shared sub-point |B|.
        Each (staircase, coil) drops its own exact zeros, so each pattern
        equals that of its dense weights.
        """
        rhos = np.asarray(rhos, dtype=float).reshape(-1, 3)
        times = np.atleast_1d(np.asarray(times, dtype=float))
        fac = self.evaluator.factors(times)
        threshold = max(approx.threshold for approx in approxes)
        limit = (threshold + self.lipschitz(fac) * self.reach) * _SAFETY
        tidx, cells, _ = self.center_survivors(fac, limit)
        # per time, one product gives B and each <rho_k, dB/dt> at the
        # survivors' sub-points: coef[t] maps the harmonics to
        # (B_x, B_y, B_z, <rho_1, dB/dt>, ..., <rho_K, dB/dt>)
        fac_dt = self.evaluator.factors(times, use_dt=True)
        rho_dt = [rho[0] * fac_dt[0] + rho[1] * fac_dt[1] + rho[2] * fac_dt[2]
                  for rho in rhos]
        coef = np.stack([*fac, *rho_dt], axis=-1).transpose(1, 0, 2).copy()
        bounds = np.searchsorted(tidx, np.arange(times.size + 1))
        n_sub = self.n_sub
        at_sub = np.empty((cells.size * n_sub, coef.shape[2]))
        for t in np.flatnonzero(np.diff(bounds)):
            lo, hi = bounds[t], bounds[t + 1]
            rows = self._sub_polys[cells[lo:hi]].reshape(-1, coef.shape[1])
            at_sub[lo * n_sub:hi * n_sub] = rows @ coef[t]
        bx, by, bz, *projs = (at_sub[:, j].reshape(-1, n_sub)
                              for j in range(coef.shape[2]))
        out = [[] for _ in approxes]
        mag = np.sqrt(bx * bx + by * by + bz * bz)
        for per_coil, stair in zip(out, staircase_slopes(approxes, mag)):
            for proj in projs:
                w = -MU0 * proj * stair
                # sub-points summed in a fixed order: no value depends on the block
                vals = sum(w[:, s] for s in range(n_sub)) / n_sub * self.cell_volume
                keep = vals != 0
                per_coil.append((vals[keep], cells[keep],
                                 np.bincount(tidx[keep], minlength=times.size)))
        return out


def staircase_slopes(approxes, mag: np.ndarray):
    """approx.eval(mag) for each approx in approxes, in order, for mag >= 0
    or NaN; one staircase's array at a time.

    mag is searched once in the sorted union of the ladders.  No ladder has
    a node inside a union interval, so each staircase's slope there is its
    eval at the left edge; past the last edge, and at NaN, every eval is 0.
    """
    edges = np.unique(np.concatenate([approx.ladder for approx in approxes]))
    slot = np.searchsorted(edges, mag, side="right") - 1
    return (approx.eval(edges)[slot] for approx in approxes)


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

    sample_rate, t0 and rows_per_coil are those of its AcquisitionConfig.
    Rows are grouped by coil: rows_per_coil consecutive rows per ReceiveCoil
    in coils, time-ordered inside each group.  matrix is the unfiltered S,
    stored sparse; highpass is filtered on application by operator().  The
    config hash that identifies a stored matrix is not held here: it is
    written by save_system_matrix and checked by load_system_matrices.
    """

    matrix: sp.csr_matrix
    sample_rate: float
    t0: float
    rows_per_coil: int
    coils: tuple
    grid_dims: tuple
    grid_spacing: tuple
    grid_origin: tuple
    highpass: float | None = None

    @property
    def shape(self) -> tuple:
        return self.matrix.shape

    @property
    def nnz(self) -> int:
        return int(self.matrix.nnz)

    def coil_block(self, i: int) -> SystemMatrix:
        """The rows of the i-th coil as a one-coil matrix.

        Its data and indices are views into this matrix, not copies.
        """
        import scipy.sparse as sp

        n = self.rows_per_coil
        indptr = self.matrix.indptr[i * n:(i + 1) * n + 1]
        lo, hi = indptr[0], indptr[-1]
        rows = sp.csr_matrix((self.matrix.data[lo:hi], self.matrix.indices[lo:hi],
                              indptr - lo), shape=(n, self.shape[1]), copy=False)
        return replace(self, matrix=rows, coils=self.coils[i:i + 1])

    def operator(self):
        """matrix, or the FilteredOperator F S when highpass is set.

        Either one is all recon.lsqr_solve needs: shape, @ and .T.  F is the
        highpass_mask DFT projector on each rows_per_coil block, so stacked
        coils never mix.
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
                grid: ConcentrationGrid, acq: AcquisitionConfig, coil: ReceiveCoil,
                subsampling: int = 1, highpass: float | None = None) -> str:
    """Deterministic 16-hex digest of everything the matrix depends on.

    The time axis enters as its sample count, t0 and spacing 1/sample_rate.
    A high-pass cut-off is chained onto the digest of the unfiltered matrix.
    """
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
    put(acq.n_samples, f"{acq.t0:.17g}", f"{1 / acq.sample_rate:.17g}")
    put(*(f"{v:.17g}" for v in coil.vector))
    put(subsampling)
    digest = h.hexdigest()[:16]
    if highpass is None:
        return digest
    return hashlib.sha256(f"{digest}|hp:{highpass:.17g}".encode()).hexdigest()[:16]


def build_system_matrix(model: FieldModel, approx: MagnetizationApprox,
                        coils, acq: AcquisitionConfig, grid: ConcentrationGrid,
                        subsampling: int = 1,
                        nnz_cap: int = DEFAULT_NNZ_CAP, n_workers: int = 1,
                        block: int = _DEFAULT_BLOCK) -> SystemMatrix:
    """The coil-stacked matrix of one staircase: build_system_matrices([approx])."""
    return build_system_matrices(model, [approx], coils, acq, grid, subsampling,
                                 nnz_cap, n_workers, block)[0]


def _estimate_nnz(quad: CellQuadrature, approxes, rhos, times) -> int:
    """The largest (staircase, coil) nonzero count, extrapolated from 8 probe times."""
    idx = np.unique(np.linspace(0, times.size - 1, min(8, times.size)).astype(int))
    return math.ceil(max(vals.size for per_coil in quad.sparse_weights(
        approxes, rhos, times[idx]) for vals, _, _ in per_coil) / idx.size * times.size)


class _CoilRows:
    """One staircase's CSR arrays for every coil, filled block by block.

    Coil k's entries go to data and indices from k * capacity on, in row
    order, and counts[k] holds its row lengths.  np.empty reserves the
    capacity without touching it, so only the entries written take memory.
    A coil that outgrows the capacity doubles every coil's: _regrow
    copies them into new arrays, so it holds the entries twice for a moment.
    stacked() closes the gaps between the coils in place and trims the
    arrays, so stacking holds no coil's entries twice.
    """

    def __init__(self, n_coils: int, capacity: int, n_rows: int):
        self.capacity = capacity
        self.data = np.empty(n_coils * capacity)
        self.indices = np.empty(n_coils * capacity, np.int32)
        self.nnz = [0] * n_coils
        self.counts = np.empty((n_coils, n_rows), np.int64)
        self.rows = 0

    def append(self, per_coil) -> None:
        """Add one row block: a (data, indices, row lengths) triple per coil."""
        need = max(n + vals.size for n, (vals, _, _) in zip(self.nnz, per_coil))
        if need > self.capacity:
            self._regrow(max(need, 2 * self.capacity))
        for k, (vals, cells, counts) in enumerate(per_coil):
            lo = k * self.capacity + self.nnz[k]
            self.data[lo:lo + vals.size] = vals
            self.indices[lo:lo + vals.size] = cells
            self.counts[k, self.rows:self.rows + counts.size] = counts
            self.nnz[k] += vals.size
        self.rows += per_coil[0][2].size

    def _regrow(self, capacity: int) -> None:
        """Copy each coil's entries to its region at the new capacity."""
        for name in ("data", "indices"):
            old = getattr(self, name)
            new = np.empty(len(self.nnz) * capacity, old.dtype)
            for k, n in enumerate(self.nnz):
                src, dst = k * self.capacity, k * capacity
                new[dst:dst + n] = old[src:src + n]
            setattr(self, name, new)
        self.capacity = capacity

    def stacked(self) -> tuple:
        """(data, indices, indptr) of the coils' rows, stacked in coil order.

        Each later coil moves down onto the end of the one before it, a
        chunk at a time (numpy buffers a chunk that overlaps its target),
        and the arrays are then trimmed in place.
        """
        end = self.nnz[0]
        for k in range(1, len(self.nnz)):
            src = k * self.capacity
            for lo in range(0, self.nnz[k], _CHUNK):
                hi = min(lo + _CHUNK, self.nnz[k])
                self.data[end + lo:end + hi] = self.data[src + lo:src + hi]
                self.indices[end + lo:end + hi] = self.indices[src + lo:src + hi]
            end += self.nnz[k]
        self.data.resize(end, refcheck=False)
        self.indices.resize(end, refcheck=False)
        return self.data, self.indices, np.concatenate([[0], np.cumsum(self.counts)])


def build_system_matrices(model: FieldModel, approxes, coils,
                          acq: AcquisitionConfig, grid: ConcentrationGrid,
                          subsampling: int = 1,
                          nnz_cap: int = DEFAULT_NNZ_CAP, n_workers: int = 1,
                          block: int = _DEFAULT_BLOCK) -> list:
    """Assemble the coil-stacked matrix of each staircase in approxes.

    Each coil's rows are the sample times of acq.  One pass serves every
    staircase and coil: each row block is one CellQuadrature.sparse_weights
    call.  So each matrix is that of its own one-staircase build, and each
    coil's pattern equals that of its dense quadrature; values agree to the
    rounding of the reordered term sum.  Blocks are independent and may be
    computed by worker threads.  They are taken in block order as they
    arrive: each is copied into its staircase's _CoilRows and dropped, and
    the entries of one time never depend on the rest of its block, so the
    result does not depend on the worker count or block size.  Each coil's
    region starts at the estimated count below plus an eighth.

    Returns one SystemMatrix per staircase, in order, whose coils are the
    given ReceiveCoils with rows grouped in that order.  nnz_cap limits each
    (staircase, coil): the count extrapolated from 8 probe times is checked
    before any assembly starts, the running count after every block, and
    the first to pass the cap stops the build and its worker threads.
    """
    import scipy.sparse as sp

    approxes = list(approxes)
    if not approxes:
        raise ConfigError("need at least one staircase")
    coils = tuple(coils)
    if not coils:
        raise ConfigError("need at least one receive coil")
    times = acq.times()
    rhos = [coil.vector for coil in coils]
    quad = CellQuadrature(model, grid, subsampling)
    est = _estimate_nnz(quad, approxes, rhos, times)
    if est > nnz_cap:
        raise ResourceCapError(
            f"estimated {est} nonzeros for one coil exceeds the cap of "
            f"{nnz_cap}; raise the cap, shrink the grid, or lower the threshold b")

    # the 8 probes read low by 1-4% on the desk scenes: an eighth more
    # spares the late regrow of nearly the whole matrix
    matrices = [_CoilRows(len(coils), est + est // 8, times.size) for _ in approxes]
    with contextlib.closing(map_time_blocks(
            lambda span: quad.sparse_weights(approxes, rhos, span),
            times, n_workers, block)) as blocks:
        for parts in blocks:
            for per_coil, rows in zip(parts, matrices):
                rows.append(per_coil)
                if max(rows.nnz) > nnz_cap:
                    raise ResourceCapError(
                        f"assembled {max(rows.nnz)} nonzeros for one coil by "
                        f"row {rows.rows} of {times.size}, over the cap of {nnz_cap}")
    out = []
    for rows in matrices:
        data, indices, indptr = rows.stacked()
        out.append(SystemMatrix(
            matrix=sp.csr_matrix((data, indices, indptr),
                                 shape=(len(coils) * acq.n_samples, grid.n_cells)),
            sample_rate=acq.sample_rate, t0=acq.t0,
            rows_per_coil=acq.n_samples, coils=coils, grid_dims=grid.dims,
            grid_spacing=grid.spacing, grid_origin=grid.origin))
    return out


def stack_coils(sm: SystemMatrix, traces: list[SignalTrace]) -> np.ndarray:
    """sm's right-hand side: one trace per coil, on sm's time axis, concatenated."""
    if len(traces) != len(sm.coils):
        raise ConfigError("need one trace per coil of the matrix")
    # exact: both headers store the acquisition's rate and t0 at .17g
    if not all(tr.samples.size == sm.rows_per_coil and tr.t0 == sm.t0
               and tr.sample_rate == sm.sample_rate for tr in traces):
        raise ConfigError("trace length, sample rate or t0 does not match its matrix")
    return np.concatenate([tr.samples for tr in traces])


def apply_highpass_rows(sm: SystemMatrix, cutoff: float) -> SystemMatrix:
    """Mark sm for the data high-pass on its time axis, per coil block.

    Filtering commutes with the matrix-vector product, so operator() @ c
    equals the filtered S @ c.  Stored sparse; filtered on application.
    A cut-off that keeps no DFT bin of a coil block raises ConfigError.
    """
    if cutoff <= 0:
        raise ConfigError("cutoff must be positive")
    highpass_mask(sm.rows_per_coil, sm.sample_rate, cutoff)
    return replace(sm, highpass=cutoff)


def save_system_matrix(sm: SystemMatrix, path, digest: str):
    """Four ASCII header lines, then the CSR arrays of sm.matrix.

    Header line 0 holds digest, the config_hash of what sm was built from,
    and ends in the layout token csr.  The payload is indptr (<i8, rows + 1
    entries), indices (<i4) and data (<f8), nnz entries each, written from
    the matrix as it is held.  The bytes go to a
    temporary file beside path, which then replaces path, so an
    interrupted write never leaves a partial matrix behind.
    """
    hp = "none" if sm.highpass is None else f"{sm.highpass:.17g}"
    lines = [
        f"{sm.shape[0]} {sm.shape[1]} {sm.nnz} {digest} csr",
        f"{sm.sample_rate:.17g} {sm.t0:.17g} {sm.rows_per_coil} {hp}",
        " ".join(f"{c.index}:" + ",".join(f"{v:.17g}" for v in c.sensitivity)
                 for c in sm.coils),
        " ".join([*(str(d) for d in sm.grid_dims),
                  *(f"{s:.17g}" for s in sm.grid_spacing),
                  *(f"{o:.17g}" for o in sm.grid_origin)]),
    ]
    with atomic_open(path) as fh:
        fh.write(("\n".join(lines) + "\n").encode("ascii"))
        fh.write(np.ascontiguousarray(sm.matrix.indptr, dtype="<i8"))
        fh.write(np.ascontiguousarray(sm.matrix.indices, dtype="<i4"))
        fh.write(np.ascontiguousarray(sm.matrix.data, dtype="<f8"))


def _parse_header(lines):
    """The four header lines of a stored matrix.

    ValueError when a line is malformed or its metadata impossible: line 0
    must end in the csr layout token, every rate, time, cut-off, vector,
    spacing and origin must be finite, the sample rate and a cut-off
    positive, and the shape must match rows_per_coil times the coils and the
    grid dims.  ConfigError when ReceiveCoil rejects a coil vector: it must
    have 3 components, not all zero.
    """
    rows, cols, nnz, digest, *layout = lines[0].decode("ascii").split()
    if layout != ["csr"]:
        raise ValueError("written in the old triplet layout; re-run `mpisim sysmat`")
    rows, cols, nnz = int(rows), int(cols), int(nnz)
    if min(rows, cols, nnz) < 0:
        raise ValueError("negative shape or nonzero count")
    rate, t0, per_coil, hp = lines[1].decode("ascii").split()
    rate, t0, per_coil = float(rate), float(t0), int(per_coil)
    highpass = None if hp == "none" else float(hp)
    if not (0 < rate < math.inf and math.isfinite(t0)):
        raise ValueError("sample rate and t0 must be finite, the rate positive")
    if highpass is not None and not 0 < highpass < math.inf:
        raise ValueError("a high-pass needs a finite positive cut-off")
    coils = []
    for field in lines[2].decode("ascii").split():
        idx, vec = field.split(":")
        vec = tuple(float(x) for x in vec.split(","))
        if not all(map(math.isfinite, vec)):
            raise ValueError(f"coil vector {field!r} must be finite")
        coils.append(ReceiveCoil(vec, int(idx)))
    if per_coil < 1 or not coils or rows != per_coil * len(coils):
        raise ValueError(f"{rows} rows are not {len(coils)} coil(s) of "
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
    return (rows, cols), nnz, digest, dict(
        sample_rate=rate, t0=t0, rows_per_coil=per_coil, highpass=highpass,
        coils=tuple(coils), grid_dims=dims, grid_spacing=spacing, grid_origin=origin)


def load_system_matrix(path, expected_hash: str | None = None,
                       force: bool = False) -> SystemMatrix:
    """load_system_matrices([path], [expected_hash], force)."""
    return load_system_matrices([path], [expected_hash], force)


def load_system_matrices(paths: list, expected_hashes: list | None = None,
                         force: bool = False) -> SystemMatrix:
    """Load stored matrices as one coil-stacked matrix, rows in path order.

    Every header is checked first: a malformed one, a payload that is not
    8 (rows + 1) + 12 nnz bytes, or metadata but the coils that differs from
    the first file's raises ConfigError, a hash other than its non-None
    expected_hashes entry HashMismatchError unless force is set.  Then each
    payload is read into its slice of one indptr, indices and data; a row
    pointer that does not rise from 0 to nnz, an index outside the shape or
    a non-finite value raises ConfigError.
    """
    import scipy.sparse as sp

    if not paths:
        raise ConfigError("need at least one matrix file")
    with contextlib.ExitStack() as stack:
        heads = []
        for path, expected in zip(paths, expected_hashes or [None] * len(paths),
                                  strict=True):
            fh = stack.enter_context(open_input(path))
            try:
                (rows, cols), nnz, digest, meta = _parse_header(
                    [fh.readline() for _ in range(4)])
            except (ValueError, ConfigError) as exc:
                raise ConfigError(f"{path}: malformed header: {exc}") from None
            if expected is not None and digest != expected and not force:
                raise HashMismatchError(
                    f"{path}: stored config hash {digest} does not match expected "
                    f"{expected}; pass force to override")
            # checked against the file before anything header-sized is allocated
            if os.fstat(fh.fileno()).st_size - fh.tell() != 8 * (rows + 1) + 12 * nnz:
                raise ConfigError(f"{path}: CSR payload truncated")
            first = heads[0][-1] if heads else meta
            differ = [key for key in meta if key != "coils" and meta[key] != first[key]]
            if differ:
                raise ConfigError(f"{path}: {', '.join(differ)} not as in {paths[0]}")
            heads.append((path, fh, rows, nnz, meta))
        n_rows = sum(rows for _, _, rows, _, _ in heads)
        n_nz = sum(nnz for _, _, _, nnz, _ in heads)
        indptr = np.empty(n_rows + 1, "<i8")
        indices, data = np.empty(n_nz, "<i4"), np.empty(n_nz, "<f8")
        row = pos = 0
        for path, fh, rows, nnz, _ in heads:
            # the read overwrites indptr[row] == pos; the shift below restores it
            parts = (indptr[row:row + rows + 1], indices[pos:pos + nnz],
                     data[pos:pos + nnz])
            if any(fh.readinto(memoryview(a).cast("B")) != a.nbytes for a in parts):
                raise ConfigError(f"{path}: CSR payload truncated")
            ptr, cells, vals = parts
            if ptr[0] != 0 or ptr[-1] != nnz or np.any(np.diff(ptr) < 0):
                raise ConfigError(f"{path}: CSR row pointer must rise from 0 to {nnz}")
            if nnz and (cells.min() < 0 or cells.max() >= cols):
                raise ConfigError(f"{path}: column index outside the {rows}x{cols} shape")
            if not np.all(np.isfinite(vals)):
                raise ConfigError(f"{path}: non-finite matrix values")
            ptr += pos
            row, pos = row + rows, pos + nnz
    coils = tuple(c for *_, meta in heads for c in meta["coils"])
    matrix = sp.csr_matrix((data, indices, indptr), shape=(n_rows, cols))
    return SystemMatrix(matrix=matrix, **{**heads[0][-1], "coils": coils})

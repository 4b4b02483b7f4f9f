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
its own exact zeros.  It is stored sparse; filtered on application.
build_system_matrices hands each row block's plain arrays, as the block
arrives, to a sink and drops the block.  For library callers and test
oracles the sink is in memory: it copies the block into each staircase's
growing data and indices, one region per coil, so the matrix is held once
while it is assembled, plus a few blocks in flight (and twice for a moment
if it outgrows its estimated size); closing the gaps between the coils'
regions in place then gives the indptr, indices and data of each
staircase's matrix.  The CLI streams instead: each (staircase, coil) block
goes straight to that coil's file (_RunWriter), so no matrix is ever held.
A stored matrix keeps each row's columns as runs of consecutive cells,
which is how the low-field volume crosses the grid's flat indices:
_RunWriter encodes them a block of rows at a time, for the build and for
save_system_matrix alike, and load_system_matrices decodes each coil
file's runs straight into its slice of one stacked CSR, bit-equal to the
one saved.

scipy.sparse is imported only where a CSR is made (the in-memory
build_system_matrices, SystemMatrix.coil_block, load_system_matrices), so
importing this module, the stages that never touch a matrix and the
streaming sysmat stage load numpy alone.
An operator handed to recon.lsqr_solve needs only shape, @ and .T: the CSR
matrix itself, or the filtered operator of SystemMatrix.operator().
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import math
import os
import shutil
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

# times per assembly block: a block's temporaries (its survivors' values,
# and the sub-point products of a chunk of _PAIRS of them) stay a few MB,
# so what worker threads free is reused instead of piling up in their
# malloc arenas and making peak memory vary from run to run.  At most two
# blocks per worker are in flight (forward.map_time_blocks), so they are
# what the build holds beyond the matrix, or beyond the runs when it
# streams.  32 held about 9 MiB less on the desk scene, but desk_run and
# l1_sweep ran 7-12% longer end to end.
_DEFAULT_BLOCK = 64
DEFAULT_NNZ_CAP = 50_000_000
# consecutive times whose cell centers are first tested together, at the
# middle one of them (CellQuadrature.center_survivors)
_TILE = 8
# entries moved per step when _CoilRows.stacked moves a coil down, entries
# encoded per step by save_system_matrix, values copied per step by
# _RunWriter, runs decoded per step by load_system_matrices
_CHUNK = 1 << 16
# (time, cell) pairs whose sub-points CellQuadrature.sparse_weights
# evaluates at once, in whole times.  On the desk scene (about 26 thousand
# pairs per block of 64 times, 4 sub-points each) one block's tracemalloc
# peak was 2.4, 3.6 and 5.9 MiB at 4096, 8192 and 16384 pairs, and the warm
# two-coil build with 2 workers took 0.43-0.47, 0.41-0.43 and 0.40-0.42 s
# (medians of two sets of 8, 2-core host): smaller chunks make more numpy
# calls, which contend for the GIL.
_PAIRS = 8192
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
        pairs only, then staircase_slopes staircases the shared sub-point |B|,
        about _PAIRS pairs at a time, so the sub-point temporaries stay
        bounded however many pairs a block holds.  Each (staircase, coil)
        drops its own exact zeros, so each pattern equals that of its dense
        weights.
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
        n_sub, n_harm, n_out = self.n_sub, coef.shape[1], coef.shape[2]
        lookup = staircase_slopes(approxes)
        # every pair's value for each (staircase, coil), and whether it is kept
        full = np.empty((len(approxes), len(rhos), tidx.size))
        nonzero = np.empty(full.shape, bool)
        # whole times per chunk, so each time's product is the same rows @ coef[t];
        # one buffer serves every chunk: a buffer per chunk, freed and taken
        # again, doubled the build's page faults
        chunks = list(_row_chunks(bounds, _PAIRS))
        buf = np.empty((max(bounds[t1] - bounds[t0] for t0, t1 in chunks) * n_sub, n_out))
        for t0, t1 in chunks:
            lo, hi = bounds[t0], bounds[t1]
            at_sub = buf[:(hi - lo) * n_sub]
            for t in range(t0, t1):
                a, b = bounds[t], bounds[t + 1]
                np.matmul(self._sub_polys[cells[a:b]].reshape(-1, n_harm), coef[t],
                          out=at_sub[(a - lo) * n_sub:(b - lo) * n_sub])
            bx, by, bz, *projs = (at_sub[:, j].reshape(-1, n_sub) for j in range(n_out))
            mag = np.sqrt(bx * bx + by * by + bz * bz)
            for i, stair in enumerate(lookup(mag)):
                for k, proj in enumerate(projs):
                    w = -MU0 * proj * stair
                    # sub-points summed in a fixed order: no value depends on
                    # the block or the chunk
                    vals = sum(w[:, s] for s in range(n_sub))
                    vals /= n_sub
                    np.multiply(vals, self.cell_volume, out=full[i, k, lo:hi])
                    np.not_equal(full[i, k, lo:hi], 0, out=nonzero[i, k, lo:hi])
        before = np.zeros((*full.shape[:2], tidx.size + 1), np.int64)
        np.cumsum(nonzero, axis=2, out=before[:, :, 1:])  # kept pairs before each
        counts = np.diff(before[:, :, bounds], axis=2)
        return [[(full[i, k][nonzero[i, k]], cells[nonzero[i, k]], counts[i, k])
                 for k in range(len(rhos))] for i in range(len(approxes))]


def staircase_slopes(approxes):
    """A lookup that maps mag, >= 0 or NaN, to approx.eval(mag) for each
    approx in approxes, in order, one staircase's array at a time.

    mag is searched once in the sorted union of the ladders.  No ladder has
    a node inside a union interval, so each staircase's slope there is its
    eval at the left edge; past the last edge, and at NaN, every eval is 0.
    """
    edges = np.unique(np.concatenate([approx.ladder for approx in approxes]))
    slopes = [approx.eval(edges) for approx in approxes]

    def lookup(mag):
        slot = np.searchsorted(edges, mag, side="right") - 1
        return (table[slot] for table in slopes)

    return lookup


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


def stamp(*parts) -> str:
    """16 hex digits of sha256 over parts: an artifact's provenance stamp.

    A float is written as .17g, an array as its shape and bytes, any other
    leaf as str, each followed by '|'.  Lists, tuples, dicts (key, value)
    and dataclasses (field values) write their items in order.
    """
    h = hashlib.sha256()

    def put(part):
        if isinstance(part, np.ndarray):
            put(part.shape)
            h.update(np.ascontiguousarray(part).tobytes() + b"|")
        elif dataclasses.is_dataclass(part):
            put([getattr(part, f.name) for f in dataclasses.fields(part)])
        elif isinstance(part, (list, tuple, dict)):
            for item in (part.items() if isinstance(part, dict) else part):
                put(item)
        else:
            leaf = f"{part:.17g}" if isinstance(part, float) else str(part)
            h.update(f"{leaf}|".encode())

    for part in parts:
        put(part)
    return h.hexdigest()[:16]


def config_hash(model: FieldModel, approx: MagnetizationApprox,
                grid: ConcentrationGrid, acq: AcquisitionConfig, coil: ReceiveCoil,
                subsampling: int = 1, highpass: float | None = None) -> str:
    """The stamp of everything a coil's matrix depends on.

    The grid enters by its geometry alone, the time axis as its sample
    count, t0 and spacing 1/sample_rate.  A high-pass cut-off is chained
    onto the digest of the unfiltered matrix.
    """
    digest = stamp(model.terms, model.validity_radius, approx.scheme, approx.threshold,
                   approx.ladder, approx.slopes, grid.dims, grid.spacing, grid.origin,
                   acq.n_samples, acq.t0, 1 / acq.sample_rate, coil.sensitivity,
                   subsampling)
    if highpass is None:
        return digest
    return hashlib.sha256(f"{digest}|hp:{highpass:.17g}".encode()).hexdigest()[:16]


def build_system_matrix(model: FieldModel, approx: MagnetizationApprox,
                        coils, acq: AcquisitionConfig, grid: ConcentrationGrid,
                        subsampling: int = 1,
                        nnz_cap: int = DEFAULT_NNZ_CAP, n_workers: int = 1,
                        block: int = _DEFAULT_BLOCK, files=None,
                        highpass: float | None = None):
    """The coil-stacked matrix of one staircase: build_system_matrices([approx]),
    or with files, one (path, digest) per coil, the StoredMatrix of its files."""
    return build_system_matrices(model, [approx], coils, acq, grid, subsampling,
                                 nnz_cap, n_workers, block,
                                 None if files is None else [files], highpass)[0]


@dataclass(frozen=True)
class StoredMatrix:
    """What a streamed build wrote for one staircase: each coil's file and
    nonzero count, and the shape of the coil-stacked matrix they hold."""

    paths: tuple
    coil_nnz: tuple
    shape: tuple

    @property
    def nnz(self) -> int:
        return sum(self.coil_nnz)


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


class _CoilFiles:
    """One staircase's _RunWriter per coil: _CoilRows' appends, streamed to files."""

    def __init__(self, writers: list):
        self.writers = writers

    @property
    def nnz(self) -> list:
        return [writer.nnz for writer in self.writers]

    def append(self, per_coil) -> None:
        for writer, (vals, cells, counts) in zip(self.writers, per_coil, strict=True):
            writer.append(vals, cells, counts)


def build_system_matrices(model: FieldModel, approxes, coils,
                          acq: AcquisitionConfig, grid: ConcentrationGrid,
                          subsampling: int = 1,
                          nnz_cap: int = DEFAULT_NNZ_CAP, n_workers: int = 1,
                          block: int = _DEFAULT_BLOCK, files=None,
                          highpass: float | None = None) -> list:
    """Assemble the coil-stacked matrix of each staircase in approxes.

    Each coil's rows are the sample times of acq.  One pass serves every
    staircase and coil: each row block is one CellQuadrature.sparse_weights
    call.  So each matrix is that of its own one-staircase build, and each
    coil's pattern equals that of its dense quadrature; values agree to the
    rounding of the reordered term sum.  Blocks are independent and may be
    computed by worker threads.  They are taken in block order as they
    arrive: each is handed to its staircase's sink and dropped, and the
    entries of one time never depend on the rest of its block, so the
    result does not depend on the worker count or block size.

    Without files, the sink is a _CoilRows, whose coil regions start at the
    estimated count below plus an eighth, and one SystemMatrix per
    staircase is returned, in order, whose coils are the given ReceiveCoils
    with rows grouped in that order.  With files, files[i] yields one
    (path, digest) per coil, and each (staircase i, coil) streams into its
    own file (_RunWriter), as save_system_matrix would store its rows with
    digest in the header; one StoredMatrix per staircase is returned, and
    no matrix is ever held.  Each files[i] is iterated only once the
    estimated count has passed the cap, and the files are replaced when the
    build ends; none is touched when it stops.  highpass marks every matrix
    with that cut-off, as apply_highpass_rows does.

    nnz_cap limits each (staircase, coil): the count extrapolated from 8
    probe times is checked before any assembly starts, the running count
    after every block, and the first to pass the cap stops the build and
    its worker threads.
    """
    approxes = list(approxes)
    if not approxes:
        raise ConfigError("need at least one staircase")
    coils = tuple(coils)
    if not coils:
        raise ConfigError("need at least one receive coil")
    if highpass is not None:
        _check_cutoff(acq.n_samples, acq.sample_rate, highpass)
    times = acq.times()
    rhos = [coil.vector for coil in coils]
    quad = CellQuadrature(model, grid, subsampling)
    est = _estimate_nnz(quad, approxes, rhos, times)
    if est > nnz_cap:
        raise ResourceCapError(
            f"estimated {est} nonzeros for one coil exceeds the cap of "
            f"{nnz_cap}; raise the cap, shrink the grid, or lower the threshold b")

    meta = dict(sample_rate=acq.sample_rate, t0=acq.t0, rows_per_coil=acq.n_samples,
                coils=coils, grid_dims=grid.dims, grid_spacing=grid.spacing,
                grid_origin=grid.origin, highpass=highpass)
    with contextlib.ExitStack() as stack:
        if files is None:
            # the 8 probes read low by 1-4% on the desk scenes: an eighth more
            # spares the late regrow of nearly the whole matrix
            sinks = [_CoilRows(len(coils), est + est // 8, times.size)
                     for _ in approxes]
        else:
            sinks = [_CoilFiles([
                stack.enter_context(_RunWriter(path, digest, (acq.n_samples, grid.n_cells),
                                               {**meta, "coils": (coil,)}))
                for (path, digest), coil in zip(per_coil, coils, strict=True)])
                for per_coil in files]
        blocks = stack.enter_context(contextlib.closing(map_time_blocks(
            lambda span: quad.sparse_weights(approxes, rhos, span),
            times, n_workers, block)))
        rows = 0
        for parts in blocks:
            rows += parts[0][0][2].size
            for per_coil, sink in zip(parts, sinks, strict=True):
                sink.append(per_coil)
                if max(sink.nnz) > nnz_cap:
                    raise ResourceCapError(
                        f"assembled {max(sink.nnz)} nonzeros for one coil by "
                        f"row {rows} of {times.size}, over the cap of {nnz_cap}")
    shape = (len(coils) * acq.n_samples, grid.n_cells)
    if files is not None:
        return [StoredMatrix(tuple(w.path for w in sink.writers), tuple(sink.nnz), shape)
                for sink in sinks]
    import scipy.sparse as sp

    out = []
    for sink in sinks:
        data, indices, indptr = sink.stacked()
        out.append(SystemMatrix(matrix=sp.csr_matrix((data, indices, indptr), shape=shape),
                                **meta))
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
    _check_cutoff(sm.rows_per_coil, sm.sample_rate, cutoff)
    return replace(sm, highpass=cutoff)


def _check_cutoff(n_rows: int, sample_rate: float, cutoff: float) -> None:
    """ConfigError unless cutoff is positive and keeps a DFT bin of n_rows samples."""
    if cutoff <= 0:
        raise ConfigError("cutoff must be positive")
    highpass_mask(n_rows, sample_rate, cutoff)


def _row_chunks(indptr, size: int = _CHUNK):
    """Consecutive (lo, hi) row ranges of at most size entries, or one row."""
    lo, rows = 0, indptr.size - 1
    while lo < rows:
        hi = int(np.searchsorted(indptr, indptr[lo] + size, side="right")) - 1
        yield lo, max(hi, lo + 1)
        lo = max(hi, lo + 1)


def _chunk_heads(ptr, cells) -> np.ndarray:
    """Whether each entry of a block of sorted rows starts a run: it is the
    first of its row, or not one column past the entry before it.  ptr is
    the block's row pointer, rising from 0 to cells.size."""
    heads = np.empty(cells.size, bool)  # heads[0] is the first row's start
    np.not_equal(cells[1:] - cells[:-1], 1, out=heads[1:])
    rows = ptr[:-1]
    heads[rows[rows < cells.size]] = True
    return heads


class _RunWriter:
    """Streams one matrix file, as save_system_matrix lays it out, row block
    by row block.

    append takes a block of whole rows as the (values, int columns, row
    lengths) triple that _CoilRows.append takes, with each row's columns
    sorted.  Its runs are found at once (_chunk_heads): run_ptr and each
    run's start and length stay in memory, 8 bytes per run, and the values
    go to a spill file beside path.  As a context manager: on a clean exit
    the header, run_ptr, starts and lengths are written to a temporary file
    beside path, the values are copied after them a chunk at a time, and the
    file replaces path (atomic_open); on an exception path is left as it
    was.  The spill file is removed either way.
    """

    def __init__(self, path, digest: str, shape: tuple, meta: dict):
        self.path, self.digest, self.shape, self.meta = path, digest, shape, meta
        self.run_ptr = np.zeros(shape[0] + 1, "<i8")
        self.starts, self.lengths = [], []
        self.rows = self.nnz = self.n_runs = 0
        self.spill_path = f"{os.fspath(path)}.{os.getpid()}.spill"

    def __enter__(self) -> _RunWriter:
        self.spill = open(self.spill_path, "w+b")
        return self

    def __exit__(self, exc_type, *_) -> None:
        try:
            if exc_type is None:
                self._write()
        finally:
            self.spill.close()
            with contextlib.suppress(FileNotFoundError):
                os.remove(self.spill_path)

    def append(self, vals, cells, counts) -> None:
        ptr = np.zeros(counts.size + 1, np.int64)
        np.cumsum(counts, out=ptr[1:])
        at = np.flatnonzero(_chunk_heads(ptr, cells))
        self.starts.append(cells[at].astype("<i4", copy=False))
        self.lengths.append(np.diff(at, append=cells.size).astype("<i4"))
        self.run_ptr[self.rows + 1:self.rows + 1 + counts.size] = (
            self.n_runs + np.searchsorted(at, ptr[1:]))
        self.spill.write(np.ascontiguousarray(vals, dtype="<f8"))
        self.rows += counts.size
        self.nnz += cells.size
        self.n_runs += at.size

    def _write(self) -> None:
        meta = self.meta
        hp = "none" if meta["highpass"] is None else f"{meta['highpass']:.17g}"
        lines = [
            f"{self.shape[0]} {self.shape[1]} {self.nnz} {self.digest} runs {self.n_runs}",
            f"{meta['sample_rate']:.17g} {meta['t0']:.17g} {meta['rows_per_coil']} {hp}",
            " ".join(f"{c.index}:" + ",".join(f"{v:.17g}" for v in c.sensitivity)
                     for c in meta["coils"]),
            " ".join([*(str(d) for d in meta["grid_dims"]),
                      *(f"{s:.17g}" for s in meta["grid_spacing"]),
                      *(f"{o:.17g}" for o in meta["grid_origin"])]),
        ]
        with atomic_open(self.path) as fh:
            fh.write(("\n".join(lines) + "\n").encode("ascii"))
            fh.write(self.run_ptr)
            for part in (*self.starts, *self.lengths):
                fh.write(part)
            self.spill.seek(0)
            shutil.copyfileobj(self.spill, fh, 8 * _CHUNK)


def save_system_matrix(sm: SystemMatrix, path, digest: str):
    """Four ASCII header lines, then sm.matrix's rows as runs of columns.

    A run is a maximal stretch of consecutive columns within one row, so a
    run starts at least 2 past the previous run's last column and each
    matrix has one encoding.  Header line 0 holds digest, the config_hash
    of what sm was built from, and ends in the layout token runs and the
    run count.  The payload is run_ptr (<i8, rows + 1 entries: the first
    run of each row), starts and lengths (<i4, one per run) and data (<f8,
    nnz entries, as held).  sm.matrix must hold sorted column indices, as
    every assembled or loaded matrix does.  Its rows go to a _RunWriter a
    bounded number at a time (_row_chunks), so no temporary is nnz-sized,
    and an interrupted write never leaves a partial matrix behind.
    """
    indptr, indices = sm.matrix.indptr, sm.matrix.indices
    meta = {f.name: getattr(sm, f.name) for f in dataclasses.fields(sm)
            if f.name != "matrix"}
    with _RunWriter(path, digest, sm.shape, meta) as writer:
        for lo, hi in _row_chunks(indptr):
            a, b = indptr[lo], indptr[hi]
            writer.append(sm.matrix.data[a:b], indices[a:b], np.diff(indptr[lo:hi + 1]))


def _parse_header(lines):
    """The four header lines of a stored matrix.

    ValueError when a line is malformed or its metadata impossible: line 0
    must end in the runs layout token and a run count that can hold the
    nonzeros, every rate, time, cut-off, vector, spacing and origin must be
    finite, the sample rate and a cut-off positive, and the shape must
    match rows_per_coil times the coils and the grid dims.  ConfigError
    when ReceiveCoil rejects a coil vector: it must have 3 components, not
    all zero.
    """
    rows, cols, nnz, digest, *layout = lines[0].decode("ascii").split()
    if layout[:1] != ["runs"]:
        old = {(): "old triplet", ("csr",): "csr"}.get(tuple(layout))
        if old:
            raise ValueError(f"written in the {old} layout; re-run `mpisim sysmat`")
        raise ValueError(f"unknown layout {' '.join(layout)!r}")
    if len(layout) != 2:
        raise ValueError("the runs layout token needs one run count")
    rows, cols, nnz, n_runs = int(rows), int(cols), int(nnz), int(layout[1])
    if min(rows, cols, nnz, n_runs) < 0:
        raise ValueError("negative shape, nonzero or run count")
    if n_runs > nnz or (nnz and not n_runs):
        raise ValueError(f"{n_runs} runs cannot hold {nnz} nonzeros")
    if cols > np.iinfo(np.int32).max:
        raise ValueError(f"int32 column indices cannot address {cols} columns")
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
    return (rows, cols), (n_runs, nnz), digest, dict(
        sample_rate=rate, t0=t0, rows_per_coil=per_coil, highpass=highpass,
        coils=tuple(coils), grid_dims=dims, grid_spacing=spacing, grid_origin=origin)


def load_system_matrix(path, expected_hash: str | None = None,
                       force: bool = False) -> SystemMatrix:
    """load_system_matrices([path], [expected_hash], force)."""
    return load_system_matrices([path], [expected_hash], force)


def _read(fh, path, count: int, dtype: str) -> np.ndarray:
    """The next count values of dtype in fh, as a read-only array."""
    size = count * np.dtype(dtype).itemsize
    buf = fh.read(size)
    if len(buf) != size:
        raise ConfigError(f"{path}: run payload truncated")
    return np.frombuffer(buf, dtype)


def _decode_runs(fh, path, ptr: np.ndarray, out: np.ndarray, cols: int) -> None:
    """Decode one file's runs into out, its slice of the stacked indices.

    ptr is the file's run_ptr, checked to rise from 0 to the run count; it
    becomes the row pointer of out in place.  fh is at the first run start
    and is left at the values.
    _CHUNK runs are read at a time, their starts and lengths checked, and
    each run's columns written as a cumulative sum of deltas: 1 within a
    run, and at a run's first slot the step from the last column before.
    """
    n_runs, nnz = int(ptr[-1]), out.size
    shape = f"{ptr.size - 1}x{cols}"
    base = fh.tell()
    row = done = end = 0  # rows and entries decoded, last run's end
    for k0 in range(0, n_runs, _CHUNK):
        k1 = min(k0 + _CHUNK, n_runs)
        fh.seek(base + 4 * k0)
        starts = _read(fh, path, k1 - k0, "<i4")
        fh.seek(base + 4 * (n_runs + k0))
        lengths = _read(fh, path, k1 - k0, "<i4")
        ends = starts.astype(np.int64)
        ends += lengths
        # each run's step from the last column of the run before it
        steps = np.concatenate(([end], ends[:-1]))
        np.subtract(starts, steps, out=steps)
        steps += 1
        # the first runs of the rows that start in this chunk; each is
        # exempt from the order check for the span of it
        heads = row + int(np.searchsorted(ptr[row:], k1))
        firsts = ptr[row:heads] - k0
        if lengths.min() < 1:
            raise ConfigError(f"{path}: run lengths must be at least 1")
        if starts.min() < 0 or ends.max() > cols:
            raise ConfigError(f"{path}: a run lies outside the {shape} shape")
        kept = steps[firsts]
        steps[firsts] = 2
        if steps.min() < 2:
            raise ConfigError(f"{path}: a run does not start at least 2 past "
                              f"the last column of the run before it in its row")
        steps[firsts] = kept
        slots = np.cumsum(lengths, dtype=np.int64)
        slots -= lengths  # each run's first slot
        size = int(slots[-1] + lengths[-1])
        if done + size > nnz:
            raise ConfigError(f"{path}: run lengths sum to more than {nnz}")
        ptr[row:heads] = done + slots[firsts]
        cells = out[done:done + size]
        cells[:] = 1
        cells[slots] = steps
        cells[0] = starts[0]
        np.cumsum(cells, dtype=cells.dtype, out=cells)
        row, done, end = heads, done + size, ends[-1]
    if done != nnz:
        raise ConfigError(f"{path}: run lengths sum to {done}, not {nnz}")
    ptr[row:] = nnz
    fh.seek(base + 8 * n_runs)


def load_system_matrices(paths: list, expected_hashes: list | None = None,
                         force: bool = False) -> SystemMatrix:
    """Load stored matrices as one coil-stacked CSR matrix, rows in path order.

    Every header is checked first: a malformed one, a payload that is not
    8 (rows + 1) + 8 runs + 8 nnz bytes, or metadata but the coils that
    differs from the first file's raises ConfigError, a hash other than its
    non-None expected_hashes entry HashMismatchError unless force is set.
    Then each payload is decoded into its slice of one indptr, indices and
    data, bit-equal to the CSR that was saved: run_ptr is read into indptr
    and the runs are decoded into indices a chunk of runs at a time
    (_decode_runs), so no temporary is nnz-sized.  A run_ptr that does not
    rise from 0 to the run count, a run shorter than 1, outside the shape
    or not at least 2 past the run before it in its row, lengths that do
    not sum to nnz or a non-finite value raises ConfigError.
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
                (rows, cols), (n_runs, nnz), digest, meta = _parse_header(
                    [fh.readline() for _ in range(4)])
            except (ValueError, ConfigError) as exc:
                raise ConfigError(f"{path}: malformed header: {exc}") from None
            if expected is not None and digest != expected and not force:
                raise HashMismatchError(
                    f"{path}: stored config hash {digest} does not match expected "
                    f"{expected}; pass force to override")
            # checked against the file before anything header-sized is allocated
            size = 8 * (rows + 1) + 8 * n_runs + 8 * nnz
            if os.fstat(fh.fileno()).st_size - fh.tell() != size:
                raise ConfigError(f"{path}: run payload truncated")
            first = heads[0][-1] if heads else meta
            differ = [key for key in meta if key != "coils" and meta[key] != first[key]]
            if differ:
                raise ConfigError(f"{path}: {', '.join(differ)} not as in {paths[0]}")
            heads.append((path, fh, rows, n_runs, nnz, meta))
        n_rows = sum(rows for _, _, rows, *_ in heads)
        n_nz = sum(nnz for *_, nnz, _ in heads)
        indptr = np.empty(n_rows + 1, "<i8")
        indices, data = np.empty(n_nz, "<i4"), np.empty(n_nz, "<f8")
        row = pos = 0
        for path, fh, rows, n_runs, nnz, _ in heads:
            # the read overwrites indptr[row] == pos; the shift below restores it
            ptr, vals = indptr[row:row + rows + 1], data[pos:pos + nnz]
            if fh.readinto(memoryview(ptr).cast("B")) != ptr.nbytes:
                raise ConfigError(f"{path}: run payload truncated")
            if ptr[0] != 0 or ptr[-1] != n_runs or np.any(np.diff(ptr) < 0):
                raise ConfigError(f"{path}: run row pointer must rise from 0 "
                                  f"to {n_runs}")
            _decode_runs(fh, path, ptr, indices[pos:pos + nnz], cols)
            if fh.readinto(memoryview(vals).cast("B")) != vals.nbytes:
                raise ConfigError(f"{path}: run payload truncated")
            if not all(np.isfinite(vals[lo:lo + _CHUNK]).all()
                       for lo in range(0, nnz, _CHUNK)):
                raise ConfigError(f"{path}: non-finite matrix values")
            ptr += pos
            row, pos = row + rows, pos + nnz
    coils = tuple(c for *_, meta in heads for c in meta["coils"])
    matrix = sp.csr_matrix((data, indices, indptr), shape=(n_rows, cols))
    return SystemMatrix(matrix=matrix, **{**heads[0][-1], "coils": coils})

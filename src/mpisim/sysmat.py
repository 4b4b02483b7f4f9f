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
its own exact zeros.  It is stored sparse, S alone; filtered on application.
build_system_matrices hands each row block's plain arrays, as the block
arrives, to the _RunWriter of each (staircase, coil) and drops the block,
so no matrix is held while it is assembled: only the runs, a few blocks in
flight, and the values spilled to disk.  The CLI streams into its matrix
files; a library build streams into a temporary directory and loads the
files back, so every matrix in memory comes out of the one loader.
A stored matrix keeps each row's columns as runs of consecutive cells,
which is how the low-field volume crosses the grid's flat indices:
_RunWriter encodes them a block of rows at a time, for the build and for
save_system_matrix alike, and load_system_matrices decodes each coil
file's runs into its own CSR block, bit-equal to the one saved.  Coils
whose files hold byte-identical runs share one decoded indptr and indices.

A block is a CsrBlock, the plain arrays of a CSR, and scipy.sparse is
never imported: the operator multiplies through two of scipy's compiled
CSR kernels, which _sparsetools() loads alone, under a private name, and
only at the first product.  So importing this module, every build and
load, and every stage but lsqr load numpy alone.
An operator handed to recon.lsqr_solve needs only shape, @ and .T:
SystemMatrix.operator() gives F S over the coil blocks, F the high-pass or
the identity.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import importlib.machinery
import importlib.util
import math
import os
import shutil
import sys
import tempfile
from dataclasses import dataclass, replace

import numpy as np

from .artifacts import atomic_open, check_digest, open_input
from .errors import ConfigError, ResourceCapError, release_heap
from .fields import (MU0, FieldEvaluator, FieldModel, eval_harmonic_polynomial,
                     harmonic_gradient_bound)
from .forward import (AcquisitionConfig, ReceiveCoil, SignalTrace, apply_dft_mask,
                      check_cutoff, highpass_mask, map_time_blocks)
from .magnetization import MagnetizationApprox
from .phantom import ConcentrationGrid, cell_offsets, grid_line, parse_grid_line

# the most nonzeros of one (staircase, coil) of a build (build_system_matrices)
NNZ_CAP = 50_000_000
# the digest in the header of an in-memory build's files, which are loaded
# back unchecked
_UNCHECKED = "0" * 16
# consecutive times whose cell centers are first tested together, at the
# middle one of them (CellQuadrature.center_survivors)
_TILE = 8
# entries encoded and runs decoded per step (or one row, _row_chunks), and
# values copied per step by _RunWriter
_CHUNK = 1 << 16
# (time, cell) pairs whose sub-points CellQuadrature.sparse_weights
# evaluates at once, in whole times.  On the desk scene (about 26 thousand
# pairs per block of 64 times, 4 sub-points each) one block's tracemalloc
# peak was 2.4, 3.6 and 5.9 MiB at 4096, 8192 and 16384 pairs, and the warm
# two-coil build with 2 workers took 0.43-0.47, 0.41-0.43 and 0.40-0.42 s
# (medians of two sets of 8, 2-core host): smaller chunks make more numpy
# calls, which contend for the GIL.  A worker thread's malloc arena keeps
# these temporaries' memory once they are freed, until the build ends and
# hands it back (errors.release_heap).
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


def _distinct(values) -> np.ndarray:
    """values sorted, each once.  np.unique does the same but imports
    numpy.ma (8-9 ms) on its first call."""
    values = np.sort(values)
    keep = np.ones(values.size, bool)
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def staircase_slopes(approxes):
    """A lookup that maps mag, >= 0 or NaN, to approx.eval(mag) for each
    approx in approxes, in order, one staircase's array at a time.

    mag is searched once in the sorted union of the ladders.  No ladder has
    a node inside a union interval, so each staircase's slope there is its
    eval at the left edge; past the last edge, and at NaN, every eval is 0.
    """
    edges = _distinct(np.concatenate([approx.ladder for approx in approxes]))
    slopes = [approx.eval(edges) for approx in approxes]

    def lookup(mag):
        slot = np.searchsorted(edges, mag, side="right") - 1
        return (table[slot] for table in slopes)

    return lookup


@dataclass(frozen=True, eq=False)
class CsrBlock:
    """One coil's rows as the plain arrays of a CSR matrix.

    Row i's columns are indices[indptr[i]:indptr[i + 1]], sorted, and its
    values the same slice of data: the arrays scipy.sparse.csr_matrix((data,
    indices, indptr), shape) holds.  Made once, a block settles what the
    kernels need: indptr and indices get one index dtype, int32 when it
    addresses the rows, the columns and nnz, else int64, as csr_matrix
    chooses; real data that is not float64 is cast to it.  An array already
    of its dtype is held, not copied, so blocks may share indptr and
    indices.  Data that is not real, or indices and indptr that are not
    integers, are a TypeError.  The kernels trust the arrays, so a block
    that could make them read or write out of bounds is a ValueError: indptr
    must rise from 0 to nnz in rows + 1 entries, nnz being the size of data
    and of indices, and each index must lie in [0, cols).
    """

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple

    def __post_init__(self):
        rows, cols = (int(n) for n in self.shape)
        data, indices, indptr = (np.asarray(a) for a in (self.data, self.indices,
                                                          self.indptr))
        if not np.can_cast(data.dtype, np.float64):
            raise TypeError(f"{data.dtype} data is not real")
        if not all(np.issubdtype(a.dtype, np.integer) for a in (indices, indptr)):
            raise TypeError(f"{indices.dtype} indices and {indptr.dtype} indptr "
                            f"must be integers")
        if (indptr.shape != (rows + 1,) or indptr[0] != 0
                or not int(indptr[-1]) == data.size == indices.size
                or np.any(np.diff(indptr) < 0)
                or data.size and not 0 <= indices.min() <= indices.max() < cols):
            raise ValueError(f"not a {rows}x{cols} CSR: indptr must rise from 0 to "
                             f"nnz = {data.size} in {rows + 1} entries, with nnz "
                             f"indices in [0, {cols})")
        index = (np.int32 if max(rows, cols, data.size) <= np.iinfo(np.int32).max
                 else np.int64)
        fields = dict(shape=(rows, cols), data=data.astype(float, copy=False),
                      indptr=indptr.astype(index, copy=False),
                      indices=indices.astype(index, copy=False))
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])


@functools.cache
def _sparsetools():
    """scipy's compiled sparse kernels, scipy.sparse._sparsetools.

    scipy's own module if scipy.sparse has loaded it, else the extension
    loaded from scipy's directory without running scipy's or scipy.sparse's
    __init__, which import about 300 modules, numpy.testing and numpy.f2py
    among them.  It enters sys.modules under a private name: under scipy's,
    a later import of scipy.sparse would leave its _sparsetools unbound.
    """
    name = "scipy.sparse._sparsetools"
    if name in sys.modules:
        return sys.modules[name]
    root = os.path.dirname(importlib.util.find_spec("scipy").origin)
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(root, "sparse", "_sparsetools" + suffix)
        if os.path.exists(path):
            private = f"{__name__}._sparsetools"
            loader = importlib.machinery.ExtensionFileLoader(private, path)
            module = importlib.util.module_from_spec(
                importlib.util.spec_from_file_location(private, path, loader=loader))
            loader.exec_module(module)
            return module
    raise ImportError(f"no {name} extension in {root}")


@dataclass(frozen=True, eq=False)
class CoilOperator:
    """F S without stacking S or forming F S: op @ x = F(S x), op.T @ y = S^T(F y).

    S is blocks, one CsrBlock per coil, stacked in order.  F is the
    identity when mask is None, else it filters each len(mask) block of rows
    through the real, symmetric DFT mask, so F^T = F.  Both products run
    scipy's compiled kernels on the blocks' arrays.  S x writes each block's
    product into its slice of one zeroed output (csr_matvec), as a scipy
    CSR's b @ x does.  S^T y adds each block's transposed product into one
    output, block by block (csc_matvec): the additions of the stacked CSR's
    S.T @ y, in its order.  So both are bit-equal to scipy's products.
    Only shape, @ on a 1-D vector of the operator's width and .T are
    provided; a vector of another length is a ValueError.  The blocks must
    be equally wide, which is checked once, when the operator is made.
    """

    blocks: tuple
    mask: np.ndarray | None = None
    transposed: bool = False
    shape: tuple = dataclasses.field(init=False)

    def __post_init__(self):
        cols = self.blocks[0].shape[1]
        for k, b in enumerate(self.blocks):
            if b.shape[1] != cols:
                raise ValueError(f"block {k} has {b.shape[1]} columns, block 0 {cols}")
        rows = sum(b.shape[0] for b in self.blocks)
        object.__setattr__(self, "shape",
                           (cols, rows) if self.transposed else (rows, cols))

    @functools.cached_property
    def T(self) -> CoilOperator:
        return replace(self, transposed=not self.transposed)

    def _filter(self, y: np.ndarray) -> np.ndarray:
        if self.mask is None:
            return y
        return apply_dft_mask(np.reshape(y, (-1, self.mask.size)),
                              self.mask).ravel()

    def __matmul__(self, v) -> np.ndarray:
        # the kernels trust their sizes: a longer vector would be read out
        # of bounds
        if np.shape(v) != self.shape[1:]:
            raise ValueError(f"dimension mismatch: {np.shape(v)} against {self.shape}")
        kernels = _sparsetools()
        cols = self.blocks[0].shape[1]
        v = np.ascontiguousarray(self._filter(v) if self.transposed else v, dtype=float)
        out = np.zeros(self.shape[0])
        row = 0
        for b in self.blocks:
            n = b.shape[0]
            if self.transposed:
                # b.T is the CSC of b's arrays: out += b.T @ v[row:row + n]
                kernels.csc_matvec(cols, n, b.indptr, b.indices, b.data,
                                   v[row:row + n], out)
            else:
                kernels.csr_matvec(n, cols, b.indptr, b.indices, b.data, v,
                                   out[row:row + n])
            row += n
        return out if self.transposed else self._filter(out)


@dataclass
class SystemMatrix:
    """The system matrix, one CSR block per receive coil, plus the
    acquisition metadata it was built under.

    sample_rate, t0 and rows_per_coil are those of its AcquisitionConfig.
    blocks[k] is a CsrBlock of the rows_per_coil time-ordered rows of
    coils[k]; S is the blocks stacked in coil order.  Blocks may share
    indptr and indices (load_system_matrices).  scipy.sparse.csr_matrix((
    b.data, b.indices, b.indptr), shape=b.shape) is block b as scipy holds
    it, without a copy.  S is stored sparse and unfiltered; highpass, set by
    apply_highpass_rows, is filtered on application by operator().  A file
    holds one block, and the digest save_system_matrix is given, which the
    stage that reads the file compares with its plan: none is held here.
    """

    blocks: tuple
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
        return (sum(b.shape[0] for b in self.blocks), self.blocks[0].shape[1])

    @property
    def nnz(self) -> int:
        return sum(b.nnz for b in self.blocks)

    def operator(self) -> CoilOperator:
        """The CoilOperator F S, F the identity unless highpass is set.

        It is all recon.lsqr_solve needs: shape, @ and .T.  F is the
        highpass_mask DFT projector on each rows_per_coil block, so stacked
        coils never mix.
        """
        mask = None if self.highpass is None else highpass_mask(
            self.rows_per_coil, self.sample_rate, self.highpass)
        return CoilOperator(tuple(self.blocks), mask)


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


def build_system_matrix(model: FieldModel, approx: MagnetizationApprox,
                        coils, acq: AcquisitionConfig, grid: ConcentrationGrid,
                        subsampling: int = 1, *, n_workers: int = 1, files=None):
    """The matrix of one staircase, one block per coil:
    build_system_matrices([approx]), or with files, one (path, digest) per
    coil, the StoredMatrix of its files."""
    return build_system_matrices(model, [approx], coils, acq, grid, subsampling,
                                 n_workers=n_workers,
                                 files=None if files is None else [files])[0]


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
    """The largest (staircase, coil) nonzero count, extrapolated from 8 probe
    times, for the cap check before assembly starts."""
    idx = _distinct(np.linspace(0, times.size - 1, min(8, times.size)).astype(int))
    return math.ceil(max(vals.size for per_coil in quad.sparse_weights(
        approxes, rhos, times[idx]) for vals, _, _ in per_coil) / idx.size * times.size)


def build_system_matrices(model: FieldModel, approxes, coils,
                          acq: AcquisitionConfig, grid: ConcentrationGrid,
                          subsampling: int = 1, *, n_workers: int = 1,
                          files=None) -> list:
    """Assemble the matrix of each staircase in approxes, one block per coil.

    Each coil's rows are the sample times of acq.  One pass serves every
    staircase and coil: each row block, a span of forward.map_time_blocks,
    is one CellQuadrature.sparse_weights call.  So each matrix is that of
    its own one-staircase build, and each coil's pattern equals that of its
    dense quadrature; values agree to the rounding of the reordered term
    sum.  Blocks are independent and may be computed by worker threads.  They are taken in block order as they
    arrive: each is handed to its (staircase, coil) files and dropped, and the
    entries of one time never depend on the rest of its block, so the
    result does not depend on the worker count or block size.

    Every (staircase i, coil) streams into its own file through a
    _RunWriter, as save_system_matrix would store its rows, so no matrix is
    held while it is assembled.  With files, files[i] yields one (path,
    digest) per coil, digest going into the header, and one StoredMatrix
    per staircase is returned.  Each files[i] is iterated only once the
    estimated count has passed the cap; files without one row per
    staircase, a row without one entry per coil, two entries with one real
    path, or a digest that is not 16 hex digits are a ConfigError before
    any file is opened.  The files are replaced when the build ends; none is touched
    when it stops.  Without files, the files go to a temporary directory,
    removed however the build ends, and each staircase's are loaded back:
    one SystemMatrix per staircase is returned, in order, whose blocks are
    the given ReceiveCoils' rows in that order, checked as
    load_system_matrices checks every stored matrix, and sharing indptr and
    indices between coils whose runs agree.  A build that ends hands the
    heap its workers freed back (errors.release_heap) before any load.

    NNZ_CAP, read at each call, limits each (staircase, coil): the count
    extrapolated from 8 probe times is checked before any assembly starts,
    the running count after every block, and the first to pass the cap
    stops the build and its worker threads.
    """
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
    if est > NNZ_CAP:
        raise ResourceCapError(
            f"estimated {est} nonzeros for one coil exceeds the cap of "
            f"{NNZ_CAP}; use a coarser recon grid, a lower threshold b or fewer samples")

    meta = dict(sample_rate=acq.sample_rate, t0=acq.t0, rows_per_coil=acq.n_samples,
                coils=coils, grid_dims=grid.dims, grid_spacing=grid.spacing,
                grid_origin=grid.origin)
    blocks = map_time_blocks(lambda span: quad.sparse_weights(approxes, rhos, span),
                             times, n_workers)
    if files is not None:
        files = _checked_files(files, len(approxes), len(coils))
        return _write_blocks(blocks, files, meta, grid.n_cells)
    with tempfile.TemporaryDirectory() as tmp:
        files = [[(os.path.join(tmp, f"{i}_{k}.mat"), _UNCHECKED) for k in range(len(coils))]
                 for i in range(len(approxes))]
        return [load_system_matrices(stored.paths)
                for stored in _write_blocks(blocks, files, meta, grid.n_cells)]


def _checked_files(files, n_staircases: int, n_coils: int) -> list:
    """files as lists of (path, digest), one list per staircase and one entry
    per coil; ConfigError when a count is off, two paths are one file or a
    digest is not 16 hex digits."""
    files = [list(row) for row in files]
    if len(files) != n_staircases:
        raise ConfigError(f"{len(files)} rows of files for {n_staircases} staircase(s)")
    seen = set()
    for row in files:
        if len(row) != n_coils:
            raise ConfigError(f"{len(row)} files in a row for {n_coils} coil(s)")
        for path, digest in row:
            check_digest(digest)
            real = os.path.realpath(path)
            if real in seen:
                raise ConfigError(f"{path} is given to two (staircase, coil) files")
            seen.add(real)
    return files


def _write_blocks(blocks, files, meta: dict, cols: int) -> list:
    """Stream each row block of blocks, a (data, indices, row lengths) triple
    per staircase and coil, into the _RunWriter of its files[i][k], stopping
    when a (staircase, coil) passes NNZ_CAP; one StoredMatrix per staircase,
    returned once the pool is joined and the heap it freed handed back."""
    n_rows = meta["rows_per_coil"]
    with contextlib.ExitStack() as stack:
        writers = [[stack.enter_context(_RunWriter(path, digest, (n_rows, cols),
                                                   {**meta, "coils": (coil,)}))
                    for (path, digest), coil in zip(row, meta["coils"])]
                   for row in files]
        stack.enter_context(contextlib.closing(blocks))
        rows = 0
        for parts in blocks:
            rows += parts[0][0][2].size
            for per_coil, row in zip(parts, writers):
                for writer, part in zip(row, per_coil):
                    writer.append(*part)
                nnz = max(w.nnz for w in row)
                if nnz > NNZ_CAP:
                    raise ResourceCapError(
                        f"assembled {nnz} nonzeros for one coil by row {rows} of "
                        f"{n_rows}, over the cap of {NNZ_CAP}")
    release_heap()
    return [StoredMatrix(tuple(w.path for w in row), tuple(w.nnz for w in row),
                         (len(row) * n_rows, cols)) for row in writers]


def stack_coils(sm: SystemMatrix, traces: list[SignalTrace]) -> np.ndarray:
    """sm's right-hand side: one trace per coil, on sm's time axis, concatenated.

    traces[k] must be of sm.coils[k]: its coil_index must be that coil's index.
    """
    if len(traces) != len(sm.coils):
        raise ConfigError("need one trace per coil of the matrix")
    for k, (tr, coil) in enumerate(zip(traces, sm.coils)):
        if tr.coil_index != coil.index:
            raise ConfigError(f"trace {k} is of coil {tr.coil_index}, but the "
                              f"matrix's coil {k} has index {coil.index}")
    # exact: both headers store the acquisition's rate and t0 at .17g
    if not all(tr.samples.size == sm.rows_per_coil and tr.t0 == sm.t0
               and tr.sample_rate == sm.sample_rate for tr in traces):
        raise ConfigError("trace length, sample rate or t0 does not match its matrix")
    return np.concatenate([tr.samples for tr in traces])


def apply_highpass_rows(sm: SystemMatrix, cutoff: float) -> SystemMatrix:
    """Mark sm for the data high-pass on its time axis, per coil block.

    Filtering commutes with the matrix-vector product, so operator() @ c
    equals the filtered S @ c.  Stored sparse; filtered on application.
    A cut-off that is not positive or keeps no DFT bin of a coil block
    raises ConfigError.
    """
    check_cutoff(sm.rows_per_coil, sm.sample_rate, cutoff)
    return replace(sm, highpass=cutoff)


def _row_chunks(indptr, size: int):
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
    lengths) triple that CellQuadrature.sparse_weights gives each
    (staircase, coil), with each row's columns sorted.  Its runs are found at once (_chunk_heads): run_ptr and each
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
        [coil] = meta["coils"]
        lines = [
            f"{self.shape[0]} {self.shape[1]} {self.nnz} {self.digest} runs {self.n_runs}",
            f"{meta['sample_rate']:.17g} {meta['t0']:.17g} {meta['rows_per_coil']}",
            f"{coil.index}:" + ",".join(f"{v:.17g}" for v in coil.sensitivity),
            grid_line(meta["grid_dims"], meta["grid_spacing"], meta["grid_origin"]),
        ]
        with atomic_open(self.path) as fh:
            fh.write(("\n".join(lines) + "\n").encode("ascii"))
            fh.write(self.run_ptr)
            for part in (*self.starts, *self.lengths):
                fh.write(part)
            self.spill.seek(0)
            shutil.copyfileobj(self.spill, fh, 8 * _CHUNK)


def save_system_matrix(sm: SystemMatrix, path, digest: str):
    """Four ASCII header lines, then the rows of sm's one coil as runs of columns.

    A run is a maximal stretch of consecutive columns within one row, so a
    run starts at least 2 past the previous run's last column and each
    matrix has one encoding.  Header line 0 holds digest, the stamp of what
    sm was built from, and ends in the layout token runs and the run count;
    line 1 holds sample_rate t0 rows_per_coil, not sm.highpass: the file
    holds S alone; line 2 the coil as index:x,y,z; line 3 the grid as a
    .grid file's header line (phantom.grid_line).  The payload is run_ptr
    (<i8, rows + 1 entries: the first run of each row), starts and lengths
    (<i4, one per run) and data (<f8, nnz entries, as held).  sm must be
    one block of sorted column indices, as every assembled or loaded coil
    is, and digest 16 hex digits, else ConfigError before path is opened.
    The rows go to the one _RunWriter a bounded number at a time
    (_row_chunks), so no temporary is nnz-sized, and an interrupted write
    never leaves a partial matrix behind.
    """
    if len(sm.blocks) != 1 or len(sm.coils) != 1:
        raise ConfigError(f"a matrix file holds one coil, not {len(sm.blocks)} "
                          f"block(s) of {len(sm.coils)} coil(s)")
    check_digest(digest)
    meta = {f.name: getattr(sm, f.name) for f in dataclasses.fields(sm)
            if f.name != "blocks"}
    [block] = sm.blocks
    indptr, indices = block.indptr, block.indices
    with _RunWriter(path, digest, sm.shape, meta) as writer:
        for lo, hi in _row_chunks(indptr, _CHUNK):
            a, b = indptr[lo], indptr[hi]
            writer.append(block.data[a:b], indices[a:b], np.diff(indptr[lo:hi + 1]))


def _parse_header(lines):
    """The four header lines of a stored matrix.

    ValueError when a line is malformed or its metadata impossible: line 0
    must end in the runs layout token and a run count that can hold the
    nonzeros (line 1 of an older file, ending in its cut-off, asks for a
    rebuild), line 2 must name one coil, the rate and time must be finite,
    the rate positive, line 3 must be a grid line (phantom.parse_grid_line),
    and the shape must match rows_per_coil and the grid dims.  ConfigError
    when the digest is not 16 hex digits, or ReceiveCoil rejects the coil.
    Nothing is allocated from the counts.
    """
    rows, cols, nnz, digest, *layout = lines[0].decode("ascii").split()
    check_digest(digest)
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
    timing = lines[1].decode("ascii").split()
    if len(timing) == 4:
        raise ValueError("written with a high-pass field; re-run `mpisim sysmat`")
    rate, t0, per_coil = timing
    rate, t0, per_coil = float(rate), float(t0), int(per_coil)
    if not (0 < rate < math.inf and math.isfinite(t0)):
        raise ValueError("sample rate and t0 must be finite, the rate positive")
    coils = lines[2].decode("ascii").split()
    if len(coils) != 1:
        raise ValueError(f"line 2 names {len(coils)} coils, not one")
    idx, vec = coils[0].split(":")
    coil = ReceiveCoil(tuple(float(x) for x in vec.split(",")), int(idx))
    if per_coil < 1 or rows != per_coil:
        raise ValueError(f"{rows} rows are not the {per_coil} >= 1 rows of a coil")
    dims, spacing, origin = parse_grid_line(lines[3].decode("ascii"))
    if math.prod(dims) != cols:
        raise ValueError(f"grid dims {dims} do not make {cols} columns")
    return (rows, cols), (n_runs, nnz), dict(
        sample_rate=rate, t0=t0, rows_per_coil=per_coil,
        coils=(coil,), grid_dims=dims, grid_spacing=spacing, grid_origin=origin)


def load_system_matrix(path) -> SystemMatrix:
    """load_system_matrices([path])."""
    return load_system_matrices([path])


def _decode_runs(section, path, rows: int, n_runs: int, nnz: int, cols: int) -> tuple:
    """The (indptr, indices) of one file's run section: the bytes of its
    run_ptr, starts and lengths as stored.

    run_ptr is checked to rise from 0 to n_runs.  The runs are then decoded
    a chunk of whole rows at a time, at most _CHUNK runs or one row
    (_row_chunks), so each chunk starts at a row's first run, no state
    crosses a chunk and no temporary is nnz-sized.  A chunk's starts and
    lengths are checked, and each run's columns written as a cumulative sum
    of deltas: 1 within a run, and at a run's first slot the step from the
    last column before.
    """
    run_ptr = np.frombuffer(section, "<i8", rows + 1)
    if run_ptr[0] != 0 or run_ptr[-1] != n_runs or np.any(np.diff(run_ptr) < 0):
        raise ConfigError(f"{path}: run row pointer must rise from 0 to {n_runs}")
    all_starts, all_lengths = np.frombuffer(section, "<i4", offset=8 * (rows + 1)
                                            ).reshape(2, n_runs)
    indptr = np.empty(rows + 1, np.int64)
    indptr[0] = 0
    indices = np.empty(nnz, "<i4")
    for lo, hi in _row_chunks(run_ptr, _CHUNK):
        k0, k1, done = int(run_ptr[lo]), int(run_ptr[hi]), int(indptr[lo])
        if k0 == k1:
            indptr[lo + 1:hi + 1] = done
            continue
        starts, lengths = all_starts[k0:k1], all_lengths[k0:k1]
        ends = starts.astype(np.int64)
        ends += lengths
        # each run's step from the last column of the run before it; the
        # first runs of the chunk's rows are exempt from the order check
        steps = np.concatenate(([0], ends[:-1]))
        np.subtract(starts, steps, out=steps)
        steps += 1
        heads = run_ptr[lo:hi][run_ptr[lo:hi] < k1] - k0
        if lengths.min() < 1:
            raise ConfigError(f"{path}: run lengths must be at least 1")
        if starts.min() < 0 or ends.max() > cols:
            raise ConfigError(f"{path}: a run lies outside the {rows}x{cols} shape")
        slots = np.zeros(k1 - k0 + 1, np.int64)  # each run's first slot, and the end
        np.cumsum(lengths, dtype=np.int64, out=slots[1:])
        if done + slots[-1] > nnz:
            raise ConfigError(f"{path}: run lengths sum to more than {nnz}")
        indptr[lo + 1:hi + 1] = done + slots[run_ptr[lo + 1:hi + 1] - k0]
        cells = indices[done:indptr[hi]]
        cells[:] = 1
        cells[slots[:-1]] = steps
        steps[heads] = 2
        if steps.min() < 2:
            raise ConfigError(f"{path}: a run does not start at least 2 past "
                              f"the last column of the run before it in its row")
        cells[0] = starts[0]
        np.cumsum(cells, dtype=cells.dtype, out=cells)
    if indptr[-1] != nnz:
        raise ConfigError(f"{path}: run lengths sum to {indptr[-1]}, not {nnz}")
    return indptr, indices


def load_system_matrices(paths: list) -> SystemMatrix:
    """Load one-coil matrix files as one SystemMatrix, one block per file.

    Every header is checked first: a malformed one, a payload that is not
    8 (rows + 1) + 8 runs + 8 nnz bytes, or metadata but the coil that
    differs from the first file's raises ConfigError.  The digest a header
    stores must be 16 hex digits but is not compared with anything: whether
    it is current is for the stage that reads the file to check.
    Then every file's run section (run_ptr, starts and lengths) is read
    whole, and after them every file's values: each file is read once,
    front to back, bit-equal to the CSR rows that were saved.  The first
    file with a given section and nonzero count decodes its runs a chunk of
    whole rows at a time (_decode_runs), so no temporary is nnz-sized; a
    later file with a byte-identical section shares its indptr and indices.
    The sections, 8 bytes per run against the values' 8 per nonzero, are
    dropped before any value is read, so they do not set the load's peak.
    A run_ptr that does not rise from 0 to the run count, a run shorter
    than 1, outside the shape or not at least 2 past the run before it in
    its row, or lengths that do not sum to nnz raise ConfigError before any
    value is read; then a non-finite value does.
    """
    if not paths:
        raise ConfigError("need at least one matrix file")
    with contextlib.ExitStack() as stack:
        heads = []
        for path in paths:
            fh = stack.enter_context(open_input(path))
            try:
                (rows, cols), (n_runs, nnz), meta = _parse_header(
                    [fh.readline() for _ in range(4)])
            except (ValueError, ConfigError) as exc:
                raise ConfigError(f"{path}: malformed header: {exc}") from None
            # checked against the file before anything header-sized is allocated
            size = 8 * (rows + 1) + 8 * n_runs + 8 * nnz
            if os.fstat(fh.fileno()).st_size - fh.tell() != size:
                raise ConfigError(f"{path}: run payload truncated")
            first = heads[0][-1] if heads else meta
            differ = [key for key in meta if key != "coils" and meta[key] != first[key]]
            if differ:
                raise ConfigError(f"{path}: {', '.join(differ)} not as in {paths[0]}")
            heads.append((path, fh, rows, n_runs, nnz, meta))
        # one [indptr, indices] for the files of each (nnz, section): all
        # have the first file's rows, so a section's length fixes its runs
        decoded, patterns = {}, []
        for path, fh, rows, n_runs, nnz, _ in heads:
            section = fh.read(8 * (rows + 1 + n_runs))
            if len(section) != 8 * (rows + 1 + n_runs):
                raise ConfigError(f"{path}: run payload truncated")
            if (nnz, section) not in decoded:
                decoded[nnz, section] = list(
                    _decode_runs(section, path, rows, n_runs, nnz, cols))
            patterns.append(decoded[nnz, section])
        del decoded, section
        blocks = []
        for (path, fh, rows, _, nnz, _), pattern in zip(heads, patterns):
            vals = np.empty(nnz, "<f8")
            if fh.readinto(memoryview(vals).cast("B")) != vals.nbytes:
                raise ConfigError(f"{path}: run payload truncated")
            # min and max propagate a NaN and make no nnz-sized temporary
            if nnz and not (np.isfinite(vals.min()) and np.isfinite(vals.max())):
                raise ConfigError(f"{path}: non-finite matrix values")
            blocks.append(CsrBlock(vals, pattern[1], pattern[0], (rows, cols)))
            # later files of the pattern share the block's cast arrays
            pattern[:] = blocks[-1].indptr, blocks[-1].indices
    coils = tuple(meta["coils"][0] for *_, meta in heads)
    return SystemMatrix(blocks=tuple(blocks), **{**heads[0][-1], "coils": coils})

"""Artifact files: atomic writes, and loaders that fail only with typed errors."""

import types

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mpisim.artifacts import atomic_open
from mpisim.cli import RunConfig
from mpisim.errors import ConfigError, MissingInputError, MpiSimError
from mpisim.fbp import Sinogram, load_sinogram_csv, save_sinogram_csv
from mpisim.fields import (build_topology, load_field_coefficients,
                           write_field_coefficients)
from mpisim.forward import (SignalTrace, load_trace_bin, load_trace_csv, save_trace_bin,
                            save_trace_csv)
from mpisim.phantom import build_disc_phantom, load_grid, save_grid
from mpisim.sysmat import SystemMatrix, load_system_matrix, save_system_matrix


def _grid():
    return build_disc_phantom(0.01, [0.004], 0.01 / 4, centers=[(0.0, 0.0)])


def _trace():
    return SignalTrace(samples=np.linspace(-1.0, 1.0, 5), sample_rate=1e6,
                       t0=1e-6, coil_index=1)


def _sinogram():
    return Sinogram(values=np.arange(6.0).reshape(2, 3), angles=[0.0, 1.5],
                    displacements=[-1e-3, 0.0, 1e-3], meta={})


def _write_coefficients(path):
    model = build_topology("rotating_ffl", g=1.0, d=0.1, f_d=25e3, f_rot=1e3)
    write_field_coefficients(model, path)


def _save_matrix(path):
    save_system_matrix(SystemMatrix(
        matrix=sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 2.0]])),
        sample_rate=1e6, t0=0.0, rows_per_coil=2, coil_indices=(0,),
        coil_vectors=((1.0, 0.0, 0.0),), grid_dims=(2, 1, 1),
        grid_spacing=(1e-3, 1e-3, 1e-3), grid_origin=(0.0, 0.0, 0.0),
        config_hash="0123456789abcdef", highpass=35e3), path)


def _write_ini(path):
    path.write_text("# desk scene\n[magnetization]\nb = 4 mT\nn_intervals = 8\n\n"
                    "[solver]\natol = 1e-6\n")


def _interrupting_comments():
    yield "config 0123"
    raise KeyboardInterrupt


class _InterruptingSamples:
    size = 5

    def astype(self, dtype):
        raise KeyboardInterrupt


def _interrupted_trace_bin(path):
    trace = types.SimpleNamespace(samples=_InterruptingSamples(), sample_rate=1e6,
                                  t0=0.0, coil_index=0)
    save_trace_bin(trace, path)


# each writer is interrupted after it has written part of the file
WRITERS = {
    "grid": (lambda p: save_grid(_grid(), p),
             lambda p: save_grid(_grid(), p, comments=_interrupting_comments())),
    "trace_bin": (lambda p: save_trace_bin(_trace(), p), _interrupted_trace_bin),
    "trace_csv": (lambda p: save_trace_csv(_trace(), p),
                  lambda p: save_trace_csv(_trace(), p,
                                           comments=_interrupting_comments())),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_interrupted_write_keeps_the_old_file(tmp_path, writer):
    write, interrupted = WRITERS[writer]
    path = tmp_path / "artifact"
    write(path)
    before = path.read_bytes()
    with pytest.raises(KeyboardInterrupt):
        interrupted(path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["artifact"]


def test_atomic_open_replaces_only_on_success(tmp_path):
    path = tmp_path / "artifact"
    path.write_bytes(b"old")
    with pytest.raises(RuntimeError):
        with atomic_open(path) as fh:
            fh.write(b"partial")
            raise RuntimeError("killed")
    assert path.read_bytes() == b"old"
    with atomic_open(path, "w") as fh:
        fh.write("new")
    assert path.read_text() == "new"
    assert list(tmp_path.glob("*.tmp")) == []


def test_loaders_report_a_missing_file(tmp_path):
    for load, _ in LOADERS.values():
        with pytest.raises(MissingInputError):
            load(tmp_path / "absent")


# --- fuzzing: truncated, garbled and random files ----------------------------

LOADERS = {
    "grid": (load_grid, lambda p: save_grid(_grid(), p, comments=["config 0123"])),
    "trace_bin": (load_trace_bin, lambda p: save_trace_bin(_trace(), p)),
    "sinogram": (load_sinogram_csv, lambda p: save_sinogram_csv(_sinogram(), p)),
    "trace_csv": (load_trace_csv,
                  lambda p: save_trace_csv(_trace(), p, comments=["config 0123"])),
    "coefficients": (load_field_coefficients, _write_coefficients),
    "ini": (RunConfig.load, _write_ini),
    "sysmat": (load_system_matrix, _save_matrix),
}


@pytest.mark.parametrize("loader", sorted(LOADERS))
def test_loaders_reject_a_directory(tmp_path, loader):
    load, _ = LOADERS[loader]
    with pytest.raises(ConfigError, match="directory"):
        load(tmp_path)

@pytest.mark.parametrize("load, text", [
    (load_trace_csv, "# config 0123\nt,volts\n\n# no samples\n"),
    (load_sinogram_csv,
     "# sinogram 2 3\n# angles 0 1.5\n# displacements -1e-3 0 1e-3\n\n# no rows\n"),
])
def test_csv_loaders_reject_an_empty_body(tmp_path, load, text):
    path = tmp_path / "empty.csv"
    path.write_text(text)
    with pytest.raises(ConfigError, match="no data rows"):
        load(path)


_field = st.one_of(
    st.integers(min_value=-10**20, max_value=10**20).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "0", "-1", "#", "sinogram",
                     "angles", "displacements", "", "0x10", "1_0", ",", "t,volts",
                     "sin", "sinsin", "const", "[solver]", "[sweep]", "=", "b ="]),
    st.text(max_size=6),
)
_header = st.lists(_field, max_size=12).map(" ".join)


@st.composite
def _corrupted(draw, valid: bytes) -> bytes:
    """A valid file truncated, with one line replaced, or random bytes."""
    kind = draw(st.sampled_from(["truncate", "line", "random"]))
    if kind == "truncate":
        return valid[:draw(st.integers(0, len(valid) - 1))]
    if kind == "random":
        return draw(st.binary(max_size=96))
    lines = valid.split(b"\n")
    i = draw(st.integers(0, min(len(lines) - 1, 3)))
    lines[i] = draw(_header).encode("utf-8", "surrogatepass")
    return b"\n".join(lines)


@pytest.mark.parametrize("loader", sorted(LOADERS))
def test_loaders_raise_only_typed_errors(tmp_path_factory, loader):
    load, save = LOADERS[loader]
    tmp_dir = tmp_path_factory.mktemp(f"fuzz_{loader}")
    save(tmp_dir / "valid")
    valid = (tmp_dir / "valid").read_bytes()
    path = tmp_dir / "case"

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=_corrupted(valid))
    def check(data):
        path.write_bytes(data)
        try:
            load(path)
        except MpiSimError:
            pass

    check()

"""Artifact files: atomic writes, and loaders that fail only with typed errors."""

import re
import types

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mpisim.artifacts import atomic_open, float_lines, number_text
from mpisim.cli import RunConfig
from mpisim.errors import ConfigError, MissingInputError, MpiSimError
from mpisim.fields import (build_topology, load_field_coefficients,
                           write_field_coefficients)
from mpisim.forward import (SignalTrace, coil_along, load_trace_bin, save_trace_bin,
                            save_trace_csv)
from mpisim.phantom import build_disc_phantom, load_grid, save_grid
from mpisim.sysmat import (CsrBlock, SystemMatrix, _RunWriter, load_system_matrices,
                           load_system_matrix, save_system_matrix)


def _grid():
    return build_disc_phantom(0.01, [0.004], 0.01 / 4, centers=[(0.0, 0.0)])


def _trace():
    return SignalTrace(samples=np.linspace(-1.0, 1.0, 5), sample_rate=1e6,
                       t0=1e-6, coil_index=1)


def _save_trace(path):
    save_trace_bin(_trace(), path, "0123456789abcdef")


def _write_coefficients(path):
    model = build_topology("rotating_ffl", g=1.0, d=0.1, f_d=25e3, f_rot=1e3)
    write_field_coefficients(model, path)


_MATRIX_META = dict(sample_rate=1e6, t0=0.0, rows_per_coil=2, coils=(coil_along("x"),),
                    grid_dims=(2, 1, 1), grid_spacing=(1e-3, 1e-3, 1e-3),
                    grid_origin=(0.0, 0.0, 0.0))


def _save_matrix(path):
    save_system_matrix(SystemMatrix(
        blocks=(CsrBlock(np.array([1.0, 2.0]), np.array([0, 1]), np.array([0, 1, 2]),
                         (2, 2)),), **_MATRIX_META),
        path, "0123456789abcdef")


def _stream_matrix(path, interrupt=False):
    """_save_matrix's matrix, streamed a row at a time; interrupt stops the
    stream after its first row."""
    with _RunWriter(path, "0123456789abcdef", (2, 2), _MATRIX_META) as writer:
        writer.append(np.array([1.0]), np.array([0], np.int32), np.array([1]))
        if interrupt:
            raise KeyboardInterrupt
        writer.append(np.array([2.0]), np.array([1], np.int32), np.array([1]))


def _load_after_a_valid_matrix(path):
    """The stacked load of a valid coil file, then path."""
    first = path.with_name(path.name + ".first")
    _save_matrix(first)
    return load_system_matrices([first, path])


def _second_coil(path, case):
    """_save_matrix's file with a byte of its runs or values changed, cut
    short, or with a shorter run section, by case.  Its payload is run_ptr
    [0, 1, 2], starts [0, 1], lengths [1, 1] and values [1, 2]."""
    _save_matrix(path)
    *head, payload = path.read_bytes().split(b"\n", 4)
    payload = bytearray(payload)
    if case == "valid byte":  # row 1's run starts at column 0
        payload[24 + 4] = 0
    elif case == "invalid byte":  # row 1's run starts past the last column
        payload[24 + 4] = 2
    elif case == "nan":
        payload[40:48] = np.float64(np.nan).tobytes()
    elif case == "truncated":
        del payload[-8:]
    elif case == "shorter":  # one run for the two nonzeros
        head[0] = head[0].replace(b"runs 2", b"runs 1")
        payload = (np.array([0, 1, 1], "<i8").tobytes()
                   + np.array([0, 1], "<i4").tobytes() + payload[40:])
    path.write_bytes(b"\n".join(head) + b"\n" + payload)


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
    save_trace_bin(trace, path, "0123456789abcdef")


# each writer is interrupted after it has written part of the file
WRITERS = {
    "grid": (lambda p: save_grid(_grid(), p),
             lambda p: save_grid(_grid(), p, comments=_interrupting_comments())),
    "trace_bin": (_save_trace, _interrupted_trace_bin),
    "trace_csv": (lambda p: save_trace_csv(_trace(), p),
                  lambda p: save_trace_csv(_trace(), p,
                                           comments=_interrupting_comments())),
    "sysmat_stream": (_stream_matrix, lambda p: _stream_matrix(p, interrupt=True)),
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


@pytest.mark.parametrize("value, text", [
    (2.5e-7, "2.5e-07"), (np.float64(2.5e-7), "2.5e-07"), (np.float32(0.5), "0.5"),
    (-0.0, "-0.0"), (5e-324, "5e-324"), (-1e300, "-1e+300"), (1 / 3, "0.3333333333333333"),
    (3, "3"), (np.int64(3), "3"), (2**70, "1180591620717411303424"),
    ("recon_lsqr", "recon_lsqr")])
def test_number_text_is_the_shortest_text_that_reads_back(value, text):
    # floats, numpy's too, as a Python float's repr; ints stay ints
    assert number_text(value) == text


@settings(max_examples=50, deadline=None)
@given(rows=st.lists(st.lists(st.floats(allow_nan=False), min_size=3, max_size=3),
                     max_size=20))
def test_float_lines_writes_every_cell_as_number_text(rows):
    text = float_lines(np.array(rows, dtype=float).reshape(-1, 3))
    assert text == "".join(",".join(map(number_text, row)) + "\n" for row in rows)
    assert [[float(cell) for cell in line.split(",")]
            for line in text.splitlines()] == rows


def test_loaders_report_a_missing_file(tmp_path):
    for load, _ in LOADERS.values():
        with pytest.raises(MissingInputError):
            load(tmp_path / "absent")


# --- fuzzing: truncated, garbled and random files ----------------------------

LOADERS = {
    "grid": (load_grid, lambda p: save_grid(_grid(), p, comments=["config 0123"])),
    "trace_bin": (load_trace_bin, _save_trace),
    "coefficients": (load_field_coefficients, _write_coefficients),
    "ini": (RunConfig.load, _write_ini),
    "sysmat": (load_system_matrix, _save_matrix),
    "sysmat_stack": (_load_after_a_valid_matrix, _save_matrix),
}


def test_a_second_coil_whose_runs_differ_in_a_valid_byte_loads_alone(tmp_path):
    path = tmp_path / "second"
    _second_coil(path, "valid byte")
    first, second = _load_after_a_valid_matrix(path).blocks
    # [[1, 0], [2, 0]]
    assert ([second.indptr.tolist(), second.indices.tolist(), second.data.tolist()]
            == [[0, 1, 2], [0, 0], [1.0, 2.0]])
    assert not np.shares_memory(second.indices, first.indices)
    assert not np.shares_memory(second.indptr, first.indptr)


@pytest.mark.parametrize("case", ["invalid byte", "nan", "truncated", "shorter"])
def test_a_broken_second_coil_exits_2(tmp_path, case):
    # after a valid coil file whose runs it starts from
    path = tmp_path / "second"
    _second_coil(path, case)
    with pytest.raises(MpiSimError) as exc:
        _load_after_a_valid_matrix(path)
    assert exc.value.exit_code == 2 and str(path) in str(exc.value)


@pytest.mark.parametrize("loader", sorted(LOADERS))
def test_loaders_reject_a_directory(tmp_path, loader):
    load, _ = LOADERS[loader]
    with pytest.raises(ConfigError, match="directory"):
        load(tmp_path)

_field = st.one_of(
    st.integers(min_value=-10**20, max_value=10**20).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "0", "-1", "#", "sinogram",
                     "angles", "displacements", "", "0x10", "1_0", ",", "t,volts",
                     "sin", "sinsin", "const", "[solver]", "[sweep]", "=", "b ="]),
    st.text(max_size=6),
)
_header = st.lists(_field, max_size=12).map(" ".join)
# stamps that are not 16 lowercase hex digits, and near misses
_stamp_like = st.one_of(st.text("0123456789abcdef", max_size=20),
                        st.text("0123456789abcdefABCDEFxz-+_. ", max_size=20))


@st.composite
def _corrupted(draw, valid: bytes) -> bytes:
    """A valid file truncated, with one line replaced, with one field of its
    first line dropped, replaced or added (a stamp-like one), or random
    bytes."""
    kind = draw(st.sampled_from(["truncate", "line", "field", "random"]))
    if kind == "truncate":
        return valid[:draw(st.integers(0, len(valid) - 1))]
    if kind == "random":
        return draw(st.binary(max_size=96))
    if kind == "field":
        first, newline, rest = valid.partition(b"\n")
        fields = first.split(b" ")
        i = draw(st.integers(0, len(fields) - 1))
        token = draw(_stamp_like).encode()
        edit = draw(st.sampled_from(["drop", "replace", "add"]))
        if edit == "drop":
            del fields[i]
        elif edit == "replace":
            fields[i] = token
        else:
            fields.insert(draw(st.integers(0, len(fields))), token)
        return b" ".join(fields) + newline + rest
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


@pytest.mark.parametrize("header, message", [
    (b"5 1000000 9.9999999999999995e-07 1", "re-run `mpisim simulate`"),
    (b"5 1000000 9.9999999999999995e-07 1 0123456789abcdeg", "16 hex digits"),
    (b"5 1000000 9.9999999999999995e-07 1 0123456789ABCDEF", "16 hex digits"),
    (b"5 1000000 9.9999999999999995e-07 1 0123456789abcde", "16 hex digits"),
    (b"5 1000000 9.9999999999999995e-07 1 0123456789abcdef0", "16 hex digits"),
    (b"5 1000000 9.9999999999999995e-07 1 0123456789abcdef 7", "expected 5 fields"),
    (b"5 1000000 9.9999999999999995e-07", "expected 5 fields"),
])
def test_trace_header_needs_one_stamp_of_16_hex_digits(tmp_path, header, message):
    path = tmp_path / "trace.bin"
    _save_trace(path)
    first, payload = path.read_bytes().split(b"\n", 1)
    assert first.endswith(b" 0123456789abcdef")  # the valid five fields
    path.write_bytes(header + b"\n" + payload)
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_trace_bin(path)

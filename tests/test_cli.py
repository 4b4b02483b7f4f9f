"""Config parsing, the pipeline driver, and command exit codes."""

import filecmp
import importlib.util
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mpisim
from mpisim import cli, fbp, sysmat
from mpisim.errors import (ConfigError, EXIT_CONFIG, EXIT_MISSING_INPUT,
                           MissingInputError)
from mpisim.fields import load_field_coefficients
from mpisim.forward import apply_highpass, load_trace_bin
from mpisim.phantom import load_grid
from mpisim.sysmat import load_system_matrix


TINY_INI = """\
[phantom]
fov = 20 mm
discs = 8 mm

[grid.signal]
spacing = 2.5 mm

[grid.recon]
spacing = 2.5 mm

[acquisition]
sample_rate = 2 MHz

[field]
d = 0.04 T

[forward]
workers = 1

[sysmat]
workers = 1
subsampling = 2

[fbp]
bins = 16
"""


def write_tiny(tmp, name="tiny.ini", extra=""):
    path = tmp / name
    path.write_text(TINY_INI + extra)
    return path


def test_parse_quantity():
    cases = {
        "10 mT": 0.010,
        "25 kHz": 25e3,
        "1600 1/T": 1600.0,
        "45 deg": math.pi / 4,
        "1.25 mm": 0.00125,
        "0.3": 0.3,
        "-3 us": -3e-6,
        "2.5e-1 T": 0.25,
        "4 MHz": 4e6,
        "1 T/m": 1.0,
    }
    for text, expect in cases.items():
        assert cli.parse_quantity(text) == pytest.approx(expect), text
    for bad in ("10 parsec", "banana", "", "1 2 3", "1e999 s"):
        with pytest.raises(ConfigError):
            cli.parse_quantity(bad)


def test_runconfig_defaults_and_overrides(tmp_path):
    cfg = cli.RunConfig.load()
    assert cfg.qty("magnetization", "b") == pytest.approx(0.010)
    assert cfg.integer("magnetization", "n_intervals") == 30
    assert cfg.text("magnetization", "scheme") == "secant"
    assert cfg.qty("field", "g") == 1.0
    assert cfg.qty_list("phantom", "discs") == pytest.approx(
        [0.020, 0.015, 0.010, 0.007, 0.004])
    over = cli.RunConfig.load(overrides=["magnetization.b=4 mT"])
    assert over.qty("magnetization", "b") == pytest.approx(0.004)
    stamps = cli.plan_stages(cfg, cli.STAGES)["stamps"]
    moved = cli.plan_stages(over, cli.STAGES)["stamps"]
    # the staircase moves the matrices and what reads them, not the traces
    assert [s for s in cli.STAGES if moved[s] != stamps[s]] == [
        "sysmat", "lsqr", "compare"]
    assert cli.plan_stages(cli.RunConfig.load(), cli.STAGES)["stamps"] == stamps
    with pytest.raises(ConfigError):
        cli.RunConfig.load(overrides=["nosuch.key=1"])
    with pytest.raises(ConfigError):
        cli.RunConfig.load(overrides=["magnetization.not_a_key=1"])
    with pytest.raises(ConfigError):
        cli.RunConfig.load(overrides=["missing_equals"])
    ini = tmp_path / "bad.ini"
    ini.write_text("[rocket]\nthrust = 11\n")
    with pytest.raises(ConfigError):
        cli.RunConfig.load(ini)
    ini.write_text("[solver]\nwarp = 9\n")
    with pytest.raises(ConfigError):
        cli.RunConfig.load(ini)
    with pytest.raises(MissingInputError):
        cli.RunConfig.load(tmp_path / "absent.ini")


def test_runconfig_coercions():
    cfg = cli.RunConfig.load(overrides=["solver.iterations=oops"])
    with pytest.raises(ConfigError):
        cfg.integer("solver", "iterations")


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli_run")
    ini = write_tiny(tmp)
    out = tmp / "out"
    rc = cli.main(["run", "-c", str(ini), "-o", str(out)])
    assert rc == 0
    return tmp, ini, out


def test_pipeline_outputs(pipeline_dir):
    tmp, ini, out = pipeline_dir
    for name in ("config.resolved.ini", "phantom.grid", "phantom_recon.grid",
                 "trace_x.bin", "trace_y.bin", "trace_x_filtered.bin",
                 "sysmat_x.mat", "sysmat_y.mat", "recon_lsqr.grid",
                 "recon_fbp.grid", "sinogram.csv", "lsqr_residuals.csv",
                 "compare.csv", "recon_lsqr.pgm", "profile_recon_lsqr_h.csv"):
        assert (out / name).exists(), name
    resolved = (out / "config.resolved.ini").read_text()
    assert resolved.startswith("[field]\n")
    assert "fov = 20 mm" in resolved
    # every artifact carries the stamp of the stage that wrote it
    stamps = cli.plan_stages(cli.RunConfig.load(ini), cli.STAGES)["stamps"]
    for name, stage in (("phantom_recon.grid", "phantom"),
                        ("trace_x.csv", "simulate"),
                        ("trace_y_filtered.csv", "filter"),
                        ("lsqr_residuals.csv", "lsqr"),
                        ("profile_recon_fbp_v.csv", "fbp"),
                        ("compare.csv", "compare")):
        first = (out / name).read_bytes().split(b"\n")[0]
        assert first == f"# stamp {stamps[stage]}".encode(), name
    for suffix, stage in (("", "simulate"), ("_filtered", "filter")):
        header = (out / f"trace_x{suffix}.bin").read_bytes().split(b"\n")[0]
        assert header.split()[4] == stamps[stage].encode()
    assert stamps["sysmat"] == tuple(
        (out / f"sysmat_{axis}.mat").read_bytes().split()[3].decode() for axis in "xy")
    rows = {}
    for line in (out / "compare.csv").read_text().splitlines():
        if line.startswith(("#", "reconstruction")):
            continue
        name, plain, scaled = line.split(",")
        rows[name] = (float(plain), float(scaled))
    assert set(rows) == {"recon_lsqr", "recon_fbp"}
    for plain, scaled in rows.values():
        assert 0 < scaled <= plain < 2.0
    # the reconstruction actually resembles the phantom on this easy scene
    assert rows["recon_lsqr"][1] < 0.3


def test_pipeline_reproducible(pipeline_dir):
    tmp, ini, out = pipeline_dir
    out2 = tmp / "out2"
    assert cli.main(["run", "-c", str(ini), "-o", str(out2)]) == 0
    for name in ("trace_x.bin", "recon_lsqr.grid", "sinogram.csv"):
        assert (out / name).read_bytes() == (out2 / name).read_bytes(), name


def test_exit_codes(pipeline_dir, tmp_path):
    tmp, ini, out = pipeline_dir
    # a copy: the forced lsqr below rewrites recon_lsqr.grid
    work = tmp_path / "out"
    shutil.copytree(out, work)
    # 2: config error
    assert cli.main(["run", "-c", str(ini), "-o", str(tmp_path / "x"),
                     "--set", "field.warp=1"]) == 2
    # 3: missing input (no traces or matrices in a fresh directory)
    assert cli.main(["lsqr", "-c", str(ini), "-o", str(tmp_path / "y")]) == 3
    # 4: stored matrices were built under a different field configuration
    assert cli.main(["lsqr", "-c", str(ini), "-o", str(work),
                     "--set", "field.g=1.1 T/m"]) == 4
    # 4: stored matrices were filtered at the auto cut-off (35 kHz), not 40 kHz
    assert cli.main(["lsqr", "-c", str(ini), "-o", str(work),
                     "--set", "acquisition.highpass=40 kHz"]) == 4
    # force overrides the hash check and reconstructs anyway
    assert cli.main(["lsqr", "-c", str(ini), "-o", str(work),
                     "--set", "field.g=1.1 T/m", "--force"]) == 0


def test_lsqr_rejects_corrupt_matrix(pipeline_dir, tmp_path, capsys):
    tmp, ini, out = pipeline_dir
    work = tmp_path / "out"
    shutil.copytree(out, work)
    path = work / "sysmat_x.mat"
    lines = path.read_bytes().split(b"\n", 4)
    lines[0] = b"garbled"
    path.write_bytes(b"\n".join(lines))
    capsys.readouterr()
    # force skips the hash check, not the validation of the file
    assert cli.main(["lsqr", "-c", str(ini), "-o", str(work), "--force"]) == 2
    err = capsys.readouterr().err
    assert "malformed header" in err and "Traceback" not in err


def _run_payload(path):
    """Header lines, run_ptr, starts, lengths and data of a stored matrix, read here."""
    lines = path.read_bytes().split(b"\n", 4)
    payload = lines.pop()
    rows, _, nnz, _, _, n_runs = lines[0].split()
    rows, nnz, n_runs = int(rows), int(nnz), int(n_runs)
    offsets = np.cumsum([0, 8 * (rows + 1), 4 * n_runs, 4 * n_runs])
    return (lines, np.frombuffer(payload, "<i8", rows + 1),
            np.frombuffer(payload, "<i4", n_runs, offsets[1]),
            np.frombuffer(payload, "<i4", n_runs, offsets[2]),
            np.frombuffer(payload, "<f8", nnz, offsets[3]))


@pytest.mark.parametrize("force", [[], ["--force"]], ids=["checked", "forced"])
def test_lsqr_rejects_a_matrix_in_the_old_triplet_layout(pipeline_dir, tmp_path,
                                                         capsys, force):
    # both layouts before the runs: CSR (layout token csr, then int64
    # indptr, int32 indices and float64 values) and the triplets before it
    # (no layout token, then int64 rows, int64 cols and float64 values)
    tmp, ini, out = pipeline_dir
    work = tmp_path / "out"
    shutil.copytree(out, work)
    path = work / "sysmat_x.mat"
    lines = _run_payload(path)[0]
    csr = load_system_matrix(path).matrix
    rows = np.repeat(np.arange(csr.shape[0]), np.diff(csr.indptr))
    head = b" ".join(lines[0].split()[:4])
    for name, token, payload in (
            ("csr", b" csr", [csr.indptr.astype("<i8"), csr.indices.astype("<i4")]),
            ("old triplet", b"", [rows.astype("<i8"), csr.indices.astype("<i8")])):
        path.write_bytes(b"\n".join([head + token, *lines[1:]]) + b"\n"
                         + b"".join(a.tobytes() for a in payload) + csr.data.tobytes())
        capsys.readouterr()
        assert cli.main(["lsqr", "-c", str(ini), "-o", str(work), *force]) == 2
        err = capsys.readouterr().err
        assert "malformed header" in err and f"{name} layout" in err
        assert "re-run `mpisim sysmat`" in err and "Traceback" not in err


def test_nnz_cap_stops_a_streamed_build_and_keeps_the_old_files(tmp_path, capsys):
    # on the desk scene the 8-probe estimate reads low (CHANGES.md), so a cap
    # at the estimate passes the check before assembly and stops the build
    # mid-stream; older matrix files stay as they were, and no temporary or
    # spill file is left
    out = tmp_path / "out"
    assert cli.main(["run", "-c", str(write_tiny(tmp_path)), "-o", str(out),
                     "--stages", "sysmat"]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()
              if p.name.startswith("sysmat_")}
    listing = sorted(p.name for p in out.iterdir())
    plan = cli.plan_stages(cli.RunConfig.load(), ["sysmat"])
    quad = sysmat.CellQuadrature(plan["field"], plan["grid"], plan["subsampling"])
    est = sysmat._estimate_nnz(quad, [plan["approx"]],
                               [coil.vector for _, coil in plan["coils"]],
                               plan["acq"].times())
    capsys.readouterr()
    desk = ["run", "--stages", "sysmat", "--set", "sysmat.workers=2"]
    assert cli.main([*desk, "-o", str(out), "--set", f"sysmat.nnz_cap={est}"]) == 5
    err = capsys.readouterr().err
    assert "assembled" in err and "over the cap" in err and "Traceback" not in err
    assert sorted(p.name for p in out.iterdir()) == listing
    assert {name: (out / name).read_bytes() for name in before} == before
    # a cap below the estimate stops the stage before it writes anything
    fresh = tmp_path / "fresh"
    assert cli.main([*desk, "-o", str(fresh), "--set", f"sysmat.nnz_cap={est - 1}"]) == 5
    assert "estimated" in capsys.readouterr().err
    assert not fresh.exists()


def test_stored_matrices_are_the_csr_of_one_pass(pipeline_dir):
    tmp, ini, out = pipeline_dir
    ws = cli.Workspace(cli.RunConfig.load(ini), ["sysmat"], out)
    plan, coils = ws.plan, ws.plan["coils"]
    fresh = sysmat.build_system_matrix(plan["field"], plan["approx"],
                                       [coil for _, coil in plan["coils"]], plan["acq"],
                                       plan["grid"], plan["subsampling"])
    for i, (axis, _) in enumerate(coils):
        path = out / f"sysmat_{axis}.mat"
        lines, run_ptr, starts, lengths, data = _run_payload(path)
        header = sum(len(line) + 1 for line in lines)
        rows, n_runs, nnz = run_ptr.size - 1, starts.size, data.size
        assert path.stat().st_size == header + 8 * (rows + 1) + 8 * n_runs + 8 * nnz
        block = fresh.coil_block(i).matrix
        # a run starts at each row's first entry and wherever a column is not
        # one past the column before it
        heads = [[k for k in range(lo, hi)
                  if k == lo or block.indices[k] != block.indices[k - 1] + 1]
                 for lo, hi in zip(block.indptr[:-1], block.indptr[1:])]
        assert np.array_equal(np.diff(run_ptr), [len(h) for h in heads])
        firsts = [k for h in heads for k in h]
        assert np.array_equal(starts, block.indices[firsts])
        assert np.array_equal(lengths, np.diff([*firsts, nnz]))
        loaded = load_system_matrix(path, expected_hash=ws.stamps["sysmat"][i]).matrix
        for name in ("indptr", "indices", "data"):
            ref = getattr(block, name)
            got = getattr(loaded, name)
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), name


def test_lsqr_rejects_zero_sample_rate_with_a_highpass(pipeline_dir, tmp_path,
                                                       capsys):
    tmp, ini, out = pipeline_dir
    work = tmp_path / "out"
    shutil.copytree(out, work)
    for axis in "xy":
        path = work / f"sysmat_{axis}.mat"
        lines = path.read_bytes().split(b"\n", 4)
        assert not lines[1].endswith(b" none")
        lines[1] = b" ".join([b"0", *lines[1].split()[1:]])
        path.write_bytes(b"\n".join(lines))
    capsys.readouterr()
    # the hash line is intact, so no --force is needed to reach the header
    assert cli.main(["lsqr", "-c", str(ini), "-o", str(work)]) == 2
    err = capsys.readouterr().err
    assert "malformed header" in err and "Traceback" not in err


def test_forced_lsqr_on_another_recon_grid_exits_2(pipeline_dir, tmp_path,
                                                   capsys):
    tmp, ini, out = pipeline_dir
    work = tmp_path / "out"
    shutil.copytree(out, work)
    before = (work / "recon_lsqr.grid").read_bytes()
    capsys.readouterr()
    assert cli.main(["lsqr", "-c", str(ini), "-o", str(work), "--force",
                     "--set", "grid.recon.spacing=2 mm"]) == 2
    err = capsys.readouterr().err
    assert "(8, 8, 1)" in err and "(10, 10, 1)" in err
    assert "Traceback" not in err
    assert (work / "recon_lsqr.grid").read_bytes() == before


def _replace_header(path, header: bytes):
    """Overwrite the first line of an artifact that is not a '#' comment."""
    lines = path.read_bytes().split(b"\n")
    first = next(i for i, line in enumerate(lines) if not line.startswith(b"#"))
    lines[first] = header
    path.write_bytes(b"\n".join(lines))


@pytest.mark.parametrize("argv, name, header", [
    (["simulate"], "phantom.grid", b"a b c 1 1 1 0 0 0"),
    (["lsqr", "--force"], "trace_x_filtered.bin", b"x 1e6 0 0"),
])
def test_garbled_artifact_header_exits_2(pipeline_dir, tmp_path, capsys,
                                         argv, name, header):
    tmp, ini, out = pipeline_dir
    work = tmp_path / "out"
    shutil.copytree(out, work)
    _replace_header(work / name, header)
    capsys.readouterr()
    assert cli.main([*argv, "-c", str(ini), "-o", str(work)]) == 2
    err = capsys.readouterr().err
    assert "malformed" in err and name in err and "Traceback" not in err


def test_simulate_rejects_non_finite_grid_cell(pipeline_dir, tmp_path, capsys):
    tmp, ini, out = pipeline_dir
    work = tmp_path / "out"
    shutil.copytree(out, work)
    path = work / "phantom.grid"
    data = path.read_bytes()
    n = load_grid(path).n_cells
    # NaN in the first cell of the payload, which follows the header
    path.write_bytes(data[:-8 * n] + np.array([np.nan], "<f8").tobytes()
                     + data[-8 * n + 8:])
    before = (work / "trace_x.bin").read_bytes()
    capsys.readouterr()
    assert cli.main(["simulate", "-c", str(ini), "-o", str(work)]) == 2
    err = capsys.readouterr().err
    assert "finite" in err and "Traceback" not in err
    assert (work / "trace_x.bin").read_bytes() == before


# {work}: a copy of the tiny pipeline's outputs; {bytes}: a file that is not
# UTF-8; {dir}: a directory; {empty}: a coefficient table without terms
@pytest.mark.parametrize("argv, code, message", [
    (["lsqr", "--set", "solver.atol=abc"], 2, "quantity"),
    (["lsqr", "--set", "solver.btol=1e-8 parsec"], 2, "unit"),
    (["fbp", "--set", "fbp.cos_guard=0.05x"], 2, "unit"),
    (["fbp", "--set", "fbp.cos_guard=zz"], 2, "quantity"),
    (["field-info", "-c", "{bytes}"], 2, "decode"),
    (["field-info", "-c", "{dir}"], 2, "directory"),
    (["field-info", "--set", "field.coefficients={work}/absent"], 3, "not found"),
    (["field-info", "--set", "field.coefficients={bytes}"], 2, "decode"),
    (["field-info", "--set", "field.coefficients={dir}"], 2, "directory"),
    (["run", "--set", "field.coefficients={empty}"], 2, "no terms"),
    # 1e-13 s at 2 MHz rounds to zero samples
    (["run", "--set", "acquisition.duration=1e-13 s"], 2, "at least one sample"),
])
def test_malformed_input_exit_codes(pipeline_dir, tmp_path, capsys,
                                    argv, code, message):
    tmp, ini, out = pipeline_dir
    work = tmp_path / "out"
    shutil.copytree(out, work)
    undecodable = tmp_path / "undecodable"
    undecodable.write_bytes(b"\x80\x81")
    empty = tmp_path / "empty.coeffs"
    empty.write_text("# component degree order coefficient kind f1 f2 phase scale\n")
    paths = {"work": work, "bytes": undecodable, "dir": tmp_path, "empty": empty}
    argv = [arg.format(**paths) for arg in argv]
    if "-c" not in argv:
        argv += ["-c", str(ini)]
    capsys.readouterr()
    assert cli.main([*argv, "-o", str(work)]) == code
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("override", ["forward.block=8", "sysmat.block=8",
                                      "sweep.data_model=general",
                                      "forward.subsampling=2", "fbp.baseline=on",
                                      "fbp.decimate=2", "fbp.pad=60 mm",
                                      "fbp.deconvolve=true", "fbp.nsr=1e-2"])
def test_removed_config_keys_exit_2(capsys, override):
    assert cli.main(["field-info", "--set", override]) == 2
    assert "unknown config entry" in capsys.readouterr().err


# cfg.text("section", "key") and its siblings; the section may be an
# f-string such as f"grid.{which}"
_CONFIG_READER = re.compile(
    r'\.(?:text|qty|qty_list|integer)\(f?"([^"]+)", "([^"]+)"\)')


def test_every_default_key_has_a_reader():
    # a key that no reader in cli.py names can be set but changes nothing
    source = Path(cli.__file__).read_text()
    reads = set(_CONFIG_READER.findall(source))
    assert ("output", "directory") in reads  # the pattern sees the readers
    # make_grid and make_phantom read grid.<which>, which their callers name
    which = set(re.findall(r'make_(?:grid|phantom)\(cfg, "(\w+)"\)', source))
    reads |= {(f"grid.{w}", key) for section, key in reads
              if section == "grid.{which}" for w in which}
    dead = [f"{section}.{key}" for section, keys in cli.DEFAULTS.items()
            for key in keys if (section, key) not in reads]
    assert dead == []


def test_sweep_section_is_unknown(tmp_path, capsys):
    ini = write_tiny(tmp_path, extra="\n[sweep]\ndata_model = general\n")
    assert cli.main(["field-info", "-c", str(ini)]) == 2
    assert "unknown section [sweep]" in capsys.readouterr().err


def test_repeated_coil_axis_exits_2(tmp_path, capsys):
    # a second x coil would overwrite the first one's trace and matrix
    ini = write_tiny(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["run", "-c", str(ini), "-o", str(out),
                     "--set", "coils.axes=x, y, x"]) == 2
    assert "names an axis twice" in capsys.readouterr().err
    assert not (out / "trace_x.bin").exists()


@pytest.mark.parametrize("setting", ["forward.workers=0", "sysmat.workers=-3"])
@pytest.mark.parametrize("command", ["run", "sweep"])
def test_worker_count_below_one_exits_2_before_writing(tmp_path, capsys,
                                                       setting, command):
    # unchecked, a count below 1 would run serially and exit 0
    ini = write_tiny(tmp_path)
    out = tmp_path / "out"
    argv = [command, "-c", str(ini), "-o", str(out), "--set", setting]
    if command == "sweep":
        argv += ["--parameter", "threshold_b", "--values", "4 mT"]
    assert cli.main(argv) == 2
    section = setting.split(".")[0]
    assert f"{section}.workers must be >= 1" in capsys.readouterr().err
    assert not out.exists()
    # the phantom stage reads no worker count
    assert cli.main(["run", "-c", str(ini), "-o", str(out), "--stages", "phantom",
                     "--set", setting]) == 0


# settings that stages after the first one read; unchecked, each wrote files
# before exiting (nnz_cap with the resource-cap code 5, noise_seed with a
# traceback) or ran to the end
LATE_SETTINGS = {
    "sysmat.nnz_cap=-5": "sysmat.nnz_cap must be >= 1",
    "sysmat.nnz_cap=0": "sysmat.nnz_cap must be >= 1",
    "forward.model=bogus": "unknown forward model 'bogus'",
    "acquisition.noise_level=-1": "acquisition.noise_level must be >= 0",
    "solver.atol=-1": "atol >= 0 and btol >= 0",
    "solver.btol=-1": "atol >= 0 and btol >= 0",
    "acquisition.noise_seed=-1": "acquisition.noise_seed must be >= 0",
    "magnetization.n_intervals=0": "n_intervals must be >= 2",
    "magnetization.scheme=bogus": "unknown scheme 'bogus'",
    "magnetization.nodes=bogus": "unknown node strategy 'bogus'",
    # read through make_matrix_recipe, make_coils and highpass_cutoff
    "sysmat.subsampling=0": "sysmat.subsampling must be >= 1",
    "acquisition.duration=0 ms": "sample_rate and duration must be positive",
    "acquisition.sample_rate=0 Hz": "sample_rate and duration must be positive",
    "coils.axes=q": "coil axis must be x, y or z, got 'q'",
    "coils.axes=x,x": "coils.axes names an axis twice",
    "acquisition.highpass=-5 kHz": "acquisition.highpass must be positive",
    "grid.recon.spacing=0 mm": "fov and spacing must be positive",
    "field.perturb_magnitude=-1": "perturbation magnitude and seed must be >= 0",
    "field.perturb_seed=-1": "perturbation magnitude and seed must be >= 0",
    # read through make_phantom
    "phantom.discs=-3 mm": "disc diameters must be finite and positive",
    "phantom.discs=banana": "cannot parse quantity 'banana'",
    "grid.signal.spacing=0 mm": "fov and spacing must be positive",
}


@pytest.mark.parametrize("setting", LATE_SETTINGS)
@pytest.mark.parametrize("command", ["run", "sweep"])
def test_stage_settings_exit_2_before_writing(tmp_path, capsys, command, setting):
    message = LATE_SETTINGS[setting]
    ini = write_tiny(tmp_path)
    out = tmp_path / "out"
    argv = [command, "-c", str(ini), "-o", str(out), "--set", setting]
    if command == "sweep":
        argv += ["--parameter", "threshold_b", "--values", "4 mT"]
    capsys.readouterr()
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()
    # a run of the phantom stage alone reads none of them but the grids and
    # the discs
    assert cli.main(["run", "-c", str(ini), "-o", str(out), "--stages", "phantom",
                     "--set", setting]) == (
        2 if setting.startswith(("grid.", "phantom.")) else 0)


@pytest.mark.parametrize("key", [f"{section}.{key}"
                                 for section, keys in cli.DEFAULTS.items()
                                 for key in keys if section != "output"])
def test_any_bad_setting_exits_typed_before_writing(tmp_path, capsys, key):
    # a setting a requested stage reads is checked before the first write;
    # field.coefficients takes the value as a path, which does not exist
    code = EXIT_MISSING_INPUT if key == "field.coefficients" else EXIT_CONFIG
    ini = write_tiny(tmp_path)
    cases = [("run", value) for value in ("bogus", "-1", "0", "1e999", "nan")]
    for i, (command, value) in enumerate([*cases, ("sweep", "bogus")]):
        out = tmp_path / f"out{i}"
        argv = [command, "-c", str(ini), "-o", str(out), "--set", f"{key}={value}"]
        if command == "sweep":
            argv += ["--parameter", "threshold_b", "--values", "4 mT"]
        rc = cli.main(argv)
        err = capsys.readouterr().err
        assert rc == 0 or (rc == code and not out.exists()), (command, value, err)


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_negative_iterations_exit_2_before_any_matrix(tmp_path, capsys, command):
    # lsqr reads the solver settings only after sysmat has saved its files
    ini = write_tiny(tmp_path)
    out = tmp_path / "out"
    argv = [command, "-c", str(ini), "-o", str(out),
            "--set", "solver.iterations=-2"]
    if command == "sweep":
        argv += ["--parameter", "threshold_b", "--values", "4 mT"]
    assert cli.main(argv) == 2
    assert "max_iterations must be >= 0" in capsys.readouterr().err
    assert not list(tmp_path.rglob("sysmat_*.mat"))
    assert not out.exists()
    # a run without lsqr does not read the solver settings
    assert cli.main(["run", "-c", str(ini), "-o", str(out), "--stages", "phantom",
                     "--set", "solver.iterations=-2"]) == 0


def test_sweep_takes_no_force(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--parameter", "threshold_b", "--values", "4 mT",
                  "--force"])
    assert exc.value.code == 2
    assert "--force" in capsys.readouterr().err


@pytest.mark.parametrize("highpass, cutoff", [
    ("auto", 1.4 * 25e3),  # 1.4 f_d at the default 25 kHz drive
    ("40 kHz", 40e3),
    ("none", None),
    # zero or below is a typo, not a way to switch the filter off
    ("-5 kHz", ConfigError),
    ("0 Hz", ConfigError),
])
def test_highpass_setting(pipeline_dir, tmp_path, capsys, highpass, cutoff):
    tmp, ini, out = pipeline_dir
    work = tmp_path / "out"
    work.mkdir()
    for axis in "xy":
        shutil.copy(out / f"trace_{axis}.bin", work)
    capsys.readouterr()
    rc = cli.main(["filter", "-c", str(ini), "-o", str(work),
                   "--set", f"acquisition.highpass={highpass}"])
    printed, err = capsys.readouterr()
    if cutoff is ConfigError:
        assert rc == 2 and "none or off disables the filter" in err
        assert list(work.glob("*_filtered.bin")) == []
        return
    assert rc == 0
    if cutoff is None:
        assert "high-pass disabled" in printed
        assert list(work.glob("*_filtered.bin")) == []
        return
    assert f"high-pass at {cutoff:.6g} Hz" in printed
    for axis in "xy":
        want = apply_highpass(load_trace_bin(work / f"trace_{axis}.bin"), cutoff)
        got = load_trace_bin(work / f"trace_{axis}_filtered.bin")
        assert np.array_equal(got.samples, want.samples)


@pytest.mark.parametrize("override", [
    "acquisition.duration=1e999 s",  # parses to inf
    "phantom.fov=1e999 mm",
    "field.g=1e308 T/m",  # finite, but the 2g selection coefficient is not
])
def test_overflowing_quantity_exits_2(tmp_path, capsys, override):
    ini = write_tiny(tmp_path)
    capsys.readouterr()
    assert cli.main(["run", "-c", str(ini), "-o", str(tmp_path / "out"),
                     "--set", override]) == 2
    err = capsys.readouterr().err
    assert "finite" in err and "Traceback" not in err


@pytest.mark.parametrize("overrides", [
    ["fbp.bins=0"],
    ["fbp.bins=1"],
    ["fbp.cos_guard=2"],
    ["fbp.cos_guard=-0.05"],
    ["fbp.window=boxcar"],
    # 74.07 samples per drive period: projections 0-4 keep a sample, 5 none
    ["acquisition.f_d=27 kHz", "fbp.cos_guard=0.9995"],
    # 80 samples per drive period: each half sweep starts at |cos| ~ 6e-17,
    # so a zero guard, or one below the phase rounding, would divide by it
    ["fbp.cos_guard=0"],
    ["fbp.cos_guard=1"],
    ["fbp.cos_guard=1e-15"],
])
def test_invalid_fbp_settings_exit_2(tmp_path, capsys, overrides):
    ini = write_tiny(tmp_path)
    out = tmp_path / "out"
    sets = [arg for item in overrides for arg in ("--set", item)]
    capsys.readouterr()
    assert cli.main(["run", "-c", str(ini), "-o", str(out), "--stages",
                     "phantom,simulate,filter,fbp", *sets]) == 2
    err = capsys.readouterr().err
    assert "need" in err and "Traceback" not in err
    assert not out.exists()


LATE_FBP_SETTINGS = {
    "fbp.cos_guard=0.05 parsec": "unit",
    "field.topology=lissajous_ffp": "needs an FFL topology",
}


@pytest.mark.parametrize("override", LATE_FBP_SETTINGS)
def test_fbp_settings_are_checked_before_the_first_stage(tmp_path, capsys,
                                                         override):
    message = LATE_FBP_SETTINGS[override]
    ini = write_tiny(tmp_path)
    out = tmp_path / "out"
    capsys.readouterr()
    assert cli.main(["run", "-c", str(ini), "-o", str(out),
                     "--set", override]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()
    # a run without fbp does not read them
    assert cli.main(["run", "-c", str(ini), "-o", str(out), "--stages",
                     "phantom", "--set", override]) == 0


@pytest.mark.parametrize("discs", ["0.01 mm", ""])
def test_a_particle_free_reference_exits_2_before_writing(tmp_path, capsys, discs):
    # compare and the sweep summary divide by the reference's norm
    ini = write_tiny(tmp_path)
    out = tmp_path / "out"
    sets = ["--set", f"phantom.discs={discs}"]
    for argv in (["run", "--stages", "phantom,simulate,filter,fbp,compare"],
                 ["sweep", "--parameter", "threshold_b", "--values", "4 mT,10 mT"]):
        capsys.readouterr()
        assert cli.main([*argv, "-c", str(ini), "-o", str(out), *sets]) == 2
        err = capsys.readouterr().err
        assert "fills no cell of the reconstruction grid" in err
        assert "Traceback" not in err
        assert not out.exists()
    # noise-only traces stay legitimate where nothing is scored
    assert cli.main(["run", "-c", str(ini), "-o", str(out), "--stages",
                     "phantom,simulate,filter,fbp", *sets]) == 0
    assert load_grid(out / "phantom_recon.grid").values.max() == 0.0


def test_fbp_plan_holds_the_ideal_field():
    # FBP inverts the nominal scan, also when the data come from a perturbed
    # field or a coefficient table
    cfg = cli.RunConfig.load(overrides=["field.perturb_magnitude=0.35"])
    model = cli.plan_stages(cfg, ["fbp"])["fbp"]["model"]
    assert model.topology == "rotating_ffl"
    assert model == cli.make_topology(cfg)
    assert cli.make_field_model(cfg).topology == "rotating_ffl_perturbed"


def test_edge_baseline_follows_the_highpass(pipeline_dir, tmp_path):
    # the subtraction undoes the per-projection constant that the high-pass
    # leaves, so it runs exactly when the traces are high-passed
    tmp, ini, out = pipeline_dir
    work = tmp_path / "out"
    shutil.copytree(out, work)
    assert cli.main(["fbp", "-c", str(ini), "-o", str(work),
                     "--set", "acquisition.highpass=none"]) == 0
    cfg = cli.RunConfig.load(ini)
    coils = cli.make_coils(cfg)

    def sinogram(directory, suffix):
        traces = [load_trace_bin(directory / f"trace_{axis}{suffix}.bin")
                  for axis, _ in coils]
        return fbp.signal_to_sinogram(traces, [coil for _, coil in coils],
                                      cli.make_topology(cfg),
                                      n_bins=cfg.integer("fbp", "bins"))

    def written(directory):
        return np.loadtxt(directory / "sinogram.csv", delimiter=",", ndmin=2)

    assert np.array_equal(written(work), sinogram(work, "").values)
    filtered = sinogram(out, "_filtered")
    assert np.array_equal(written(out), fbp.subtract_edge_baseline(filtered).values)
    assert not np.array_equal(written(out), filtered.values)


@pytest.mark.parametrize("override", ["fbp.cos_guard=0.2"])
def test_fbp_settings_change_the_image(pipeline_dir, tmp_path, override):
    tmp, ini, out = pipeline_dir
    work = tmp_path / "out"
    shutil.copytree(out, work)
    assert cli.main(["fbp", "-c", str(ini), "-o", str(work),
                     "--set", override]) == 0
    image = load_grid(work / "recon_fbp.grid").values
    assert np.all(np.isfinite(image))
    assert not np.array_equal(image, load_grid(out / "recon_fbp.grid").values)


@pytest.mark.parametrize("override", [
    "acquisition.highpass=3 MHz",  # above the 1 MHz Nyquist of the tiny scan
    "acquisition.sample_rate=60 kHz",  # auto: 1.4 f_d = 35 kHz > 30 kHz Nyquist
])
def test_highpass_that_keeps_no_bin_exits_2(tmp_path, capsys, override):
    ini = write_tiny(tmp_path)
    out = tmp_path / "out"
    args = ["-c", str(ini), "-o", str(out), "--set", override]
    assert cli.main(["run", "--stages", "phantom,simulate", *args]) == 0
    before = sorted(p.name for p in out.iterdir())
    capsys.readouterr()
    assert cli.main(["filter", *args]) == 2
    err = capsys.readouterr().err
    assert "keeps no DFT bin" in err and "Traceback" not in err
    assert sorted(p.name for p in out.iterdir()) == before


def test_negative_noise_level_exits_2(tmp_path, capsys):
    ini = write_tiny(tmp_path)
    out = tmp_path / "out"
    capsys.readouterr()
    assert cli.main(["run", "-c", str(ini), "-o", str(out), "--stages",
                     "phantom,simulate", "--set", "acquisition.noise_level=-1"]) == 2
    err = capsys.readouterr().err
    assert "acquisition.noise_level" in err and "Traceback" not in err
    assert list(out.glob("trace_*")) == []


@pytest.mark.parametrize("stage, setting", [
    ("fbp", "grid.recon.spacing=0 mm"),  # the grid it reconstructs on
    ("simulate", "magnetization.m0=bogus"),  # the Langevin parameters
])
def test_a_stage_alone_checks_its_settings_before_writing(pipeline_dir, tmp_path,
                                                          stage, setting):
    tmp, ini, out = pipeline_dir
    work = tmp_path / "out"
    shutil.copytree(out, work)
    before = {p.name: p.read_bytes() for p in work.iterdir()}
    assert cli.main([stage, "-c", str(ini), "-o", str(work), "--set", setting]) == 2
    assert {p.name: p.read_bytes() for p in work.iterdir()} == before


def test_empty_stage_list_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    for stages in ("", ","):
        assert cli.main(["run", "-o", str(out), "--stages", stages]) == 2
        assert "no stage to run" in capsys.readouterr().err
        assert not out.exists()


def test_single_stage_commands(tmp_path, monkeypatch):
    # each command looks its stage up on the module, as run does, so a
    # wrapped stage is the one that runs; each stage runs on its own plan
    ini = write_tiny(tmp_path)
    calls = []
    for name in ("sysmat", "lsqr"):
        def wrapped(ws, real=getattr(cli, f"stage_{name}"), name=name):
            calls.append((name, ws.force))
            return real(ws)
        monkeypatch.setattr(cli, f"stage_{name}", wrapped)
    stage_dir = tmp_path / "stages"
    for name in ("phantom", "simulate", "filter", "sysmat"):
        assert cli.main([name, "-c", str(ini), "-o", str(stage_dir)]) == 0
    assert cli.main(["lsqr", "-c", str(ini), "-o", str(stage_dir), "--force"]) == 0
    assert cli.main(["fbp", "-c", str(ini), "-o", str(stage_dir)]) == 0
    assert cli.main(["run", "-c", str(ini), "-o", str(stage_dir),
                     "--stages", "compare"]) == 0
    assert calls == [("sysmat", False), ("lsqr", True)]
    # one stage at a time reproduces the pipeline run
    run_dir = tmp_path / "run"
    assert cli.main(["run", "-c", str(ini), "-o", str(run_dir)]) == 0
    for name in ("recon_lsqr.grid", "recon_fbp.grid", "compare.csv"):
        assert ((stage_dir / name).read_bytes()
                == (run_dir / name).read_bytes()), name


def test_compare_skips_reconstructions_of_another_config(pipeline_dir, tmp_path,
                                                         capsys):
    tmp, ini, out = pipeline_dir
    work = tmp_path / "out"
    shutil.copytree(out, work)
    capsys.readouterr()
    # recon_lsqr.grid stays from the run under the old discs
    assert cli.main(["run", "-c", str(ini), "-o", str(work), "--stages",
                     "phantom,simulate,filter,fbp,compare",
                     "--set", "phantom.discs=4 mm"]) == 0
    assert "compare: skipped recon_lsqr" in capsys.readouterr().out
    stamps = cli.plan_stages(cli.RunConfig.load(ini, ["phantom.discs=4 mm"]),
                             ["compare"])["stamps"]
    lines = (work / "compare.csv").read_text().splitlines()
    assert lines[0] == f"# stamp {stamps['compare']}"
    assert [line.split(",")[0] for line in lines[2:]] == ["recon_fbp"]
    # a 3 mm disc fills the 4 mm disc's cells: the same phantom, so the same
    # stamps, and recon_fbp is still scored
    assert cli.main(["run", "-c", str(ini), "-o", str(work), "--stages", "compare",
                     "--set", "phantom.discs=3 mm"]) == 0
    assert "compare recon_fbp" in capsys.readouterr().out
    # no reconstruction of this config left: nothing is scored or written
    before = (work / "compare.csv").read_bytes()
    assert cli.main(["run", "-c", str(ini), "-o", str(work), "--stages", "compare",
                     "--set", "phantom.discs=6 mm"]) == 3
    assert "no reconstructions found" in capsys.readouterr().err
    assert (work / "compare.csv").read_bytes() == before


def _files(directory) -> dict:
    """Every file below directory but config.resolved.ini, by relative path."""
    return {p.relative_to(directory): p.read_bytes() for p in directory.rglob("*")
            if p.is_file() and p.name != "config.resolved.ini"}


def test_compare_rejects_a_reference_of_another_config(pipeline_dir, tmp_path,
                                                      capsys):
    tmp, ini, out = pipeline_dir
    work = tmp_path / "out"
    shutil.copytree(out, work)
    before = _files(work)
    resolved = (work / "config.resolved.ini").read_bytes()
    capsys.readouterr()
    # the traces fbp would read were simulated from the old discs; no stage
    # got past its input checks, so the config echo is the old one too
    assert cli.main(["run", "-c", str(ini), "-o", str(work), "--stages",
                     "fbp,compare", "--set", "phantom.discs=4 mm"]) == 4
    err = capsys.readouterr().err
    assert "trace_x_filtered.bin" in err and "stamp" in err
    assert "Traceback" not in err
    assert _files(work) == before
    assert (work / "config.resolved.ini").read_bytes() == resolved
    # a reference of another phantom exits 3, the reconstructions being current
    (work / "phantom_recon.grid").write_bytes(
        b"# stamp 0123456789abcdef\n" + (work / "phantom_recon.grid").read_bytes())
    assert cli.main(["run", "-c", str(ini), "-o", str(work),
                     "--stages", "compare"]) == 3
    err = capsys.readouterr().err
    assert "phantom_recon.grid" in err and "run the phantom stage" in err
    assert _files(work) == {**before, Path("phantom_recon.grid"):
                            (work / "phantom_recon.grid").read_bytes()}


def test_compare_scores_reconstructions_of_other_workers_or_directory(
        tmp_path, capsys):
    # worker counts and the output directory change no reconstruction, so
    # no stamp covers them; config.resolved.ini still lists them
    ini = write_tiny(tmp_path)
    work = tmp_path / "out"
    assert cli.main(["run", "-c", str(ini), "-o", str(work)]) == 0
    compare = ["run", "-c", str(ini), "-o", str(work), "--stages", "compare"]
    for setting in ("forward.workers=2", "sysmat.workers=3",
                    "output.directory=elsewhere"):
        capsys.readouterr()
        assert cli.main([*compare, "--set", setting]) == 0
        printed = capsys.readouterr().out
        assert "skipped" not in printed
        assert "compare recon_lsqr" in printed and "compare recon_fbp" in printed
        target, value = setting.split("=")
        resolved = (work / "config.resolved.ini").read_text()
        assert f"{target.split('.')[1]} = {value}" in resolved
    # a setting that changes one reconstruction skips that one alone
    assert cli.main([*compare, "--set", "solver.iterations=5"]) == 0
    printed = capsys.readouterr().out
    assert "skipped recon_lsqr" in printed and "skipped recon_fbp" not in printed
    assert "compare recon_fbp" in printed


def test_stale_traces_exit_4_before_a_reconstruction(pipeline_dir, tmp_path,
                                                     capsys):
    # the new phantom moves the stamp the traces must carry
    tmp, ini, out = pipeline_dir
    work = tmp_path / "out"
    shutil.copytree(out, work)
    before = _files(work)
    capsys.readouterr()
    assert cli.main(["run", "-c", str(ini), "-o", str(work), "--stages",
                     "phantom,lsqr,compare", "--set", "phantom.discs=4 mm"]) == 4
    err = capsys.readouterr().err
    assert "trace_x_filtered.bin: stored stamp" in err and "Traceback" not in err
    changed = {name for name, data in _files(work).items() if before[name] != data}
    assert changed == {Path("phantom.grid"), Path("phantom_recon.grid"),
                       Path("phantom.pgm")}
    # simulate checks the phantom it reads the same way
    assert cli.main(["simulate", "-c", str(ini), "-o", str(work)]) == 4
    assert "phantom.grid does not carry the phantom stamp" in capsys.readouterr().err


def test_a_forced_reconstruction_carries_the_stamps_it_read(pipeline_dir, tmp_path,
                                                           capsys):
    # lsqr --force on another field reads the old traces and matrices, so
    # its outputs carry the stamp of those, here that of the old config's
    # lsqr, and compare under the new field skips the image
    tmp, ini, out = pipeline_dir
    work = tmp_path / "out"
    shutil.copytree(out, work)
    old = cli.plan_stages(cli.RunConfig.load(ini), ["lsqr"])["stamps"]
    field = ["--set", "field.g=1.1 T/m"]
    new = cli.plan_stages(cli.RunConfig.load(ini, field[1:]), ["lsqr"])
    entries = cli.STAGES["lsqr"][0]
    forced = sysmat.stamp(*(new[e] for e in entries), old["filter"], old["sysmat"])
    assert forced == old["lsqr"] != new["stamps"]["lsqr"]
    assert cli.main(["lsqr", "-c", str(ini), "-o", str(work), "--force", *field]) == 0
    for name in ("recon_lsqr.grid", "lsqr_residuals.csv", "profile_recon_lsqr_h.csv"):
        first = (work / name).read_bytes().split(b"\n")[0]
        assert first == f"# stamp {forced}".encode(), name
    capsys.readouterr()
    # fbp's image is of the old field too: nothing is left to score
    assert cli.main(["run", "-c", str(ini), "-o", str(work), "--stages", "compare",
                     *field]) == 3
    printed = capsys.readouterr()
    assert "skipped recon_lsqr" in printed.out and "compare recon_lsqr" not in printed.out
    assert "no reconstructions found" in printed.err
    # under the old field the forced image is what its lsqr would write
    assert cli.main(["run", "-c", str(ini), "-o", str(work), "--stages", "compare"]) == 0
    assert "compare recon_lsqr" in capsys.readouterr().out


def test_forced_traces_of_another_phantom_mark_every_stage_after(tmp_path, capsys):
    # filter --force on traces of other discs writes filtered traces under
    # a stamp of its own, so lsqr under the new discs still exits 4
    ini = write_tiny(tmp_path)
    work = tmp_path / "out"
    assert cli.main(["run", "-c", str(ini), "-o", str(work), "--stages",
                     "phantom,simulate,sysmat"]) == 0
    discs = ["--set", "phantom.discs=4 mm"]
    assert cli.main(["run", "-c", str(ini), "-o", str(work), "--stages", "filter",
                     "--force", *discs]) == 0
    plan = cli.plan_stages(cli.RunConfig.load(ini, discs[1:]), ["filter"])
    old = cli.plan_stages(cli.RunConfig.load(ini), ["filter"])["stamps"]
    header = (work / "trace_x_filtered.bin").read_bytes().split(b"\n")[0]
    assert header.split()[4].decode() == old["filter"] != plan["stamps"]["filter"]
    capsys.readouterr()
    assert cli.main(["lsqr", "-c", str(ini), "-o", str(work), *discs]) == 4
    assert "trace_x_filtered.bin: stored stamp" in capsys.readouterr().err


def test_an_fbp_setting_keeps_the_other_reconstruction(pipeline_dir, tmp_path,
                                                       capsys):
    tmp, ini, out = pipeline_dir
    work = tmp_path / "out"
    shutil.copytree(out, work)
    capsys.readouterr()
    assert cli.main(["run", "-c", str(ini), "-o", str(work), "--stages",
                     "fbp,compare", "--set", "fbp.bins=64"]) == 0
    printed = capsys.readouterr().out
    assert "skipped" not in printed
    assert "compare recon_lsqr" in printed and "compare recon_fbp" in printed
    assert ((work / "recon_lsqr.grid").read_bytes()
            == (out / "recon_lsqr.grid").read_bytes())


def test_a_stage_checks_the_settings_upstream_of_it(tmp_path, capsys):
    # lsqr reads traces made from the phantom, so the phantom's settings
    # are checked before anything is written
    ini = write_tiny(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["run", "-c", str(ini), "-o", str(out), "--stages", "lsqr",
                     "--set", "phantom.discs=bogus"]) == 2
    assert "cannot parse quantity 'bogus'" in capsys.readouterr().err
    assert not out.exists()
    # but not the thread counts upstream, which enter no stamp
    assert cli.main(["run", "-c", str(ini), "-o", str(out), "--stages", "lsqr",
                     "--set", "forward.workers=0"]) == 3
    assert "missing input" in capsys.readouterr().err


def test_ffp_runs_lsqr_and_compare_without_fbp(tmp_path, capsys):
    # compare expects no FBP image on a field FBP refuses, and needs none
    ini = write_tiny(tmp_path)
    out = tmp_path / "out"
    capsys.readouterr()
    assert cli.main(["run", "-c", str(ini), "-o", str(out), "--stages",
                     "phantom,simulate,filter,sysmat,lsqr,compare",
                     "--set", "field.topology=lissajous_ffp"]) == 0
    assert "compare recon_lsqr" in capsys.readouterr().out
    stamps = cli.plan_stages(cli.RunConfig.load(
        ini, ["field.topology=lissajous_ffp"]), ["compare"])["stamps"]
    assert "fbp" not in stamps and "lsqr" in stamps


def test_compare_command(pipeline_dir, capsys, tmp_path):
    tmp, ini, out = pipeline_dir
    rc = cli.main(["compare", str(out / "recon_lsqr.grid"),
                   str(out / "phantom_recon.grid"), "--scale"])
    assert rc == 0
    printed = capsys.readouterr().out
    assert printed.startswith("nrmse ")
    assert 0.0 < float(printed.split()[1]) < 2.0
    assert cli.main(["compare", str(tmp_path / "nope.grid"),
                     str(out / "phantom_recon.grid")]) == 3


# Run in a fresh interpreter: prints, after each step, the scipy modules
# loaded so far.  The matrix stages come last, since a module stays loaded.
_SCIPY_PROBE = """\
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

ini, out = sys.argv[1:]
seen = {}
import mpisim
seen["import mpisim"] = scipy_modules()
from mpisim import cli
seen["import mpisim.cli"] = scipy_modules()
for label, argv in [
        ("run", ["run", "-c", ini, "-o", out,
                 "--stages", "phantom,simulate,filter,fbp,compare"]),
        ("compare", ["compare", out + "/recon_fbp.grid",
                     out + "/phantom_recon.grid"]),
        ("field-info", ["field-info", "-c", ini]),
        ("sysmat", ["run", "-c", ini, "-o", out, "--stages", "sysmat"]),
        ("sysmat,lsqr", ["run", "-c", ini, "-o", out,
                         "--stages", "sysmat,lsqr"])]:
    assert cli.main(argv) == 0, argv
    seen[label] = scipy_modules()
print(json.dumps(seen))
"""


def test_stages_without_a_matrix_never_import_scipy(tmp_path):
    # the sysmat stage streams its files and builds no scipy matrix
    ini = write_tiny(tmp_path)
    src = str(Path(mpisim.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, str(ini), str(tmp_path / "out")],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src})
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert list(seen) == ["import mpisim", "import mpisim.cli", "run",
                          "compare", "field-info", "sysmat", "sysmat,lsqr"]
    for step in list(seen)[:-1]:
        assert seen[step] == [], step
    # control: the probe does see scipy once a stage builds a matrix, and
    # the filtered LSQR still needs no scipy.sparse.linalg
    assert "scipy.sparse" in seen["sysmat,lsqr"]
    assert not any(m.startswith("scipy.sparse.linalg")
                   for m in seen["sysmat,lsqr"])


def test_field_info(capsys, tmp_path):
    assert cli.main(["field-info"]) == 0
    printed = capsys.readouterr().out
    assert "topology: rotating_ffl" in printed
    assert "field-free line at t=0" in printed
    save = tmp_path / "coeff.csv"
    assert cli.main(["field-info", "--save", str(save)]) == 0
    capsys.readouterr()
    model = load_field_coefficients(save)
    assert len(model.terms) == 9


def test_sweep_command(tmp_path):
    ini = write_tiny(tmp_path)
    out = tmp_path / "sweep_out"
    rc = cli.main(["sweep", "-c", str(ini), "-o", str(out),
                   "--parameter", "threshold_b", "--values", "8 mT,10 mT"])
    assert rc == 0
    csv = (out / "sweep_threshold_b.csv").read_text().splitlines()
    data = [line for line in csv if not line.startswith(("#", "threshold_b"))]
    assert len(data) == 2
    for line in data:
        value, err = line.split(",")
        assert 0.0 < float(err) < 2.0
    assert (out / "threshold_b_8_mT" / "recon_lsqr.grid").exists()
    # variant reconstructions differ: the staircase threshold moved
    a = load_grid(out / "threshold_b_8_mT" / "recon_lsqr.grid")
    b = load_grid(out / "threshold_b_10_mT" / "recon_lsqr.grid")
    assert not np.array_equal(a.values, b.values)


@pytest.mark.parametrize("parameter, values, settings", [
    ("threshold_b", "6 mT,10 mT",
     [["magnetization.b=6 mT"], ["magnetization.b=10 mT"]]),
    ("node_count", "8,30",
     [["magnetization.n_intervals=8"], ["magnetization.n_intervals=30"]]),
    ("scheme", "secant,tangent-l1",
     [["magnetization.scheme=secant"],
      ["magnetization.scheme=tangent", "magnetization.nodes=l1"]]),
])
def test_sweep_matrices_equal_single_runs(tmp_path, parameter, values, settings):
    # one assembly pass builds every value's matrices; each must be the file
    # a plain run with that value set writes
    ini = write_tiny(tmp_path)
    out = tmp_path / "sweep_out"
    assert cli.main(["sweep", "-c", str(ini), "-o", str(out),
                     "--parameter", parameter, "--values", values]) == 0
    for value, sets in zip(values.split(","), settings):
        single = tmp_path / f"single_{cli._slug(value)}"
        argv = ["run", "-c", str(ini), "-o", str(single),
                "--stages", "phantom,simulate,filter,sysmat"]
        for item in sets:
            argv += ["--set", item]
        assert cli.main(argv) == 0
        for axis in "xy":
            name = f"sysmat_{axis}.mat"
            assert filecmp.cmp(out / f"{parameter}_{cli._slug(value)}" / name,
                               single / name, shallow=False), (value, axis)


def test_sweep_values_check_the_base_trace_stamps(tmp_path):
    # every value reads the traces simulated from the base config; with
    # forward.model=piecewise those carry the base staircase's stamp, which
    # differs from each value's own
    ini = write_tiny(tmp_path)
    base = cli.RunConfig.load(ini, ["forward.model=piecewise"])
    stamps = cli.plan_stages(base, ["filter"])["stamps"]
    variant = cli._sweep_variant(base, "threshold_b", "8 mT")
    assert cli.plan_stages(variant, ["filter"])["stamps"]["filter"] != stamps["filter"]
    out = tmp_path / "sweep_out"
    assert cli.main(["sweep", "-c", str(ini), "-o", str(out), "--set",
                     "forward.model=piecewise", "--parameter", "threshold_b",
                     "--values", "8 mT,10 mT"]) == 0
    for name in ("threshold_b_8_mT", "threshold_b_10_mT"):
        header = (out / name / "trace_x_filtered.bin").read_bytes().split(b"\n")[0]
        assert header.split()[4] == stamps["filter"].encode()
    # general traces read neither the staircase nor the recon grid
    general = cli.RunConfig.load(ini)
    shared = cli.plan_stages(general, ["filter"])["stamps"]["filter"]
    for value in ("4 mT", "8 mT"):
        variant = cli._sweep_variant(general, "threshold_b", value)
        assert cli.plan_stages(variant, ["filter"])["stamps"]["filter"] == shared


def test_sweep_values_sharing_a_directory_exit_2(tmp_path, capsys):
    ini = write_tiny(tmp_path)
    out = tmp_path / "sweep_out"
    assert cli.main(["sweep", "-c", str(ini), "-o", str(out),
                     "--parameter", "threshold_b", "--values", "4 mT,4  mT"]) == 2
    assert "threshold_b_4_mT" in capsys.readouterr().err
    assert not out.exists()


def test_bad_sweep_value_exits_2_before_any_matrix(tmp_path, capsys):
    ini = write_tiny(tmp_path)
    out = tmp_path / "sweep_out"
    assert cli.main(["sweep", "-c", str(ini), "-o", str(out),
                     "--parameter", "threshold_b", "--values", "10 mT,-1 mT"]) == 2
    assert "threshold b must be positive" in capsys.readouterr().err
    assert not list(tmp_path.rglob("sysmat_*.mat"))


def test_sweep_scheme_variant_parsing():
    cfg = cli.RunConfig.load()
    variant = cli._sweep_variant(cfg, "scheme", "tangent-l1")
    assert variant.text("magnetization", "scheme") == "tangent"
    assert variant.text("magnetization", "nodes") == "l1"
    # a bare scheme keeps the configured node strategy
    variant = cli._sweep_variant(cfg, "scheme", "tangent")
    assert variant.text("magnetization", "scheme") == "tangent"
    assert variant.text("magnetization", "nodes") == "equidistant"
    with pytest.raises(ConfigError):
        cli._sweep_variant(cfg, "scheme", "cubic")
    with pytest.raises(ConfigError):
        cli._sweep_variant(cfg, "warp", "1")


def test_benchmark_tracer_sees_the_matrix_build(tmp_path):
    # the benchmark's tracer wraps sysmat.build_system_matrix by name and
    # counts the nonzeros of what it returns; this runs its traced child on
    # the tiny two-coil scan, leaving the benchmark's files as they are
    root = Path(__file__).resolve().parents[1]
    ini = write_tiny(tmp_path)
    out = tmp_path / "out"
    result = tmp_path / "result.json"
    env = {**os.environ, "PYTHONPATH": str(Path(mpisim.__file__).parents[1]),
           "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "child.py"), str(result),
         "trace", "--", "run", "-c", str(ini), "-o", str(out)],
        capture_output=True, text=True, env=env, cwd=root, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    traced = json.loads(result.read_text())
    assert traced["exit_code"] == 0
    saved = [load_system_matrix(out / f"sysmat_{axis}.mat").nnz for axis in "xy"]
    assert min(saved) > 0
    assert traced["counts"]["sysmat.nnz"] == sum(saved)
    names = {span[1] for span in traced["spans"]}
    assert "sysmat.build_system_matrix" in names
    # and the FBP layer from the spans of these two, which it wraps by name
    assert {"fbp.signal_to_sinogram", "fbp.fbp_reconstruct"} <= names
    # the benchmark reads every stage's time from the span of its name: it
    # patches cli.stage_<name> for each name of its own list, which must be
    # the stage table's, in order
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  root / "perfbench" / "tracer.py")
    bench_tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_tracer)
    assert bench_tracer.STAGES == tuple(cli.STAGES)
    assert all(callable(getattr(cli, f"stage_{stage}", None)) for stage in cli.STAGES)
    assert {f"cli.stage_{stage}" for stage in cli.STAGES} <= names


_ROOT = Path(__file__).resolve().parents[1]
_WORKLOADS = [w["name"] for w in
              json.loads((_ROOT / "BENCHMARK.json").read_text())["workloads"]]


def _perfbench_run(monkeypatch):
    """perfbench/run.py as a module; its verify module is its attribute."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # run.py prepends its dir
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", _ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


@pytest.mark.parametrize("workload", _WORKLOADS)
def test_benchmark_command_lines_plan(tmp_path, monkeypatch, workload):
    # each benchmark workload's command line parses, and its config plans
    # every stage: a key it sets that the program no longer knows fails here
    run = _perfbench_run(monkeypatch)
    args = cli.build_parser().parse_args(
        run.mpisim_argv(workload, 7, tmp_path / "out", 2))
    cfg = cli.RunConfig.load(args.config, args.set)
    cli.plan_stages(cfg, cli.STAGES)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("workload", _WORKLOADS)
def test_benchmark_command_lines_write_their_artifacts(tmp_path, monkeypatch,
                                                       workload):
    # each benchmark workload's command line runs on the tiny config and
    # leaves every artifact the benchmark checks: a renamed artifact or a
    # file the program can no longer read fails here, not as failed
    # benchmark runs
    run = _perfbench_run(monkeypatch)
    out = tmp_path / "out"
    argv = run.mpisim_argv(workload, 7, out, 1)
    assert cli.main([*argv, "-c", str(write_tiny(tmp_path))]) == 0
    assert [name for name in run.verify.ARTIFACTS[workload]
            if not (out / name).is_file()] == []


def test_l1_nodes_are_placed_once_per_workspace(tmp_path, monkeypatch):
    # simulate (piecewise, two coils), sysmat and lsqr all use one staircase
    calls = []
    real = cli.magnetization.nodes_l1_optimal

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli.magnetization, "nodes_l1_optimal", counting)
    ini = write_tiny(tmp_path)
    assert cli.main(["run", "-c", str(ini), "-o", str(tmp_path / "out"),
                     "--stages", "phantom,simulate,filter,sysmat,lsqr",
                     "--set", "magnetization.nodes=l1",
                     "--set", "magnetization.n_intervals=8",
                     "--set", "forward.model=piecewise"]) == 0
    assert len(calls) == 1  # the workspace's staircase serves every stage
    # a sweep places each value's staircase once, and the base config's none
    calls.clear()
    assert cli.main(["sweep", "-c", str(ini), "-o", str(tmp_path / "sweep"),
                     "--parameter", "threshold_b", "--values", "8 mT,10 mT",
                     "--set", "magnetization.nodes=l1",
                     "--set", "magnetization.n_intervals=8"]) == 0
    assert [args[1] for args in calls] == pytest.approx([8e-3, 10e-3])

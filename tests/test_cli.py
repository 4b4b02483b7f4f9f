"""Config parsing, the pipeline driver, and command exit codes."""

import math

import numpy as np
import pytest

from mpisim import cli
from mpisim.errors import ConfigError, MissingInputError
from mpisim.fields import load_field_coefficients
from mpisim.phantom import load_grid


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
subsampling = 1

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
    for bad in ("10 parsec", "banana", "", "1 2 3"):
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
    assert over.digest() != cfg.digest()
    assert cli.RunConfig.load().digest() == cfg.digest()  # stable
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
    cfg = cli.RunConfig.load(overrides=["solver.iterations=oops",
                                        "fbp.deconvolve=maybe"])
    with pytest.raises(ConfigError):
        cfg.integer("solver", "iterations")
    with pytest.raises(ConfigError):
        cfg.boolean("fbp", "deconvolve")
    assert cli.RunConfig.load().boolean("fbp", "deconvolve") is False


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
    assert resolved.startswith("# config ")
    assert "fov = 20 mm" in resolved
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
    # 2: config error
    assert cli.main(["run", "-c", str(ini), "-o", str(tmp_path / "x"),
                     "--set", "field.warp=1"]) == 2
    # 3: missing input (no traces or matrices in a fresh directory)
    assert cli.main(["lsqr", "-c", str(ini), "-o", str(tmp_path / "y")]) == 3
    # 4: stored matrices were built under a different field configuration
    assert cli.main(["lsqr", "-c", str(ini), "-o", str(out),
                     "--set", "field.g=1.1 T/m"]) == 4
    # force overrides the hash check and reconstructs anyway
    assert cli.main(["lsqr", "-c", str(ini), "-o", str(out),
                     "--set", "field.g=1.1 T/m", "--force"]) == 0


def test_single_stage_commands(tmp_path, monkeypatch):
    # each command looks its stage up on the module, as run does, so a
    # wrapped stage is the one that runs
    ini = write_tiny(tmp_path)
    calls = []
    for name in ("sysmat", "lsqr"):
        def wrapped(ws, real=getattr(cli, f"stage_{name}"), name=name, **kw):
            calls.append((name, kw))
            return real(ws, **kw)
        monkeypatch.setattr(cli, f"stage_{name}", wrapped)
    stage_dir = tmp_path / "stages"
    for name in ("phantom", "simulate", "filter", "sysmat"):
        assert cli.main([name, "-c", str(ini), "-o", str(stage_dir)]) == 0
    assert cli.main(["lsqr", "-c", str(ini), "-o", str(stage_dir), "--force"]) == 0
    assert calls == [("sysmat", {}), ("lsqr", {"force": True})]
    # one stage at a time reproduces the pipeline run
    run_dir = tmp_path / "run"
    assert cli.main(["run", "-c", str(ini), "-o", str(run_dir),
                     "--stages", "phantom,simulate,filter,sysmat,lsqr"]) == 0
    assert ((stage_dir / "recon_lsqr.grid").read_bytes()
            == (run_dir / "recon_lsqr.grid").read_bytes())


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

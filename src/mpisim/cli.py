"""Experiment driver: config parsing, pipeline stages, file outputs.

Every stage reads one INI-style config (defaults filled in, echoed verbatim
to the output directory) and communicates with other stages through files
only, so runs are diffable and restartable.  Exit codes: 0 ok, 2 config
error, 3 missing input, 4 hash mismatch, 5 resource cap.
"""

from __future__ import annotations

import argparse
import configparser
import copy
import hashlib
import logging
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import fbp as fbp_mod
from . import fields, forward, magnetization, phantom, recon, sysmat
from .errors import (ConfigError, EXIT_OK, HashMismatchError, MissingInputError,
                     MpiSimError)

log = logging.getLogger(__name__)

UNIT_SCALES = {
    "": 1.0,
    "s": 1.0, "ms": 1e-3, "us": 1e-6,
    "Hz": 1.0, "kHz": 1e3, "MHz": 1e6,
    "T": 1.0, "mT": 1e-3, "uT": 1e-6,
    "m": 1.0, "cm": 1e-2, "mm": 1e-3, "um": 1e-6,
    "T/m": 1.0, "mT/m": 1e-3,
    "1/T": 1.0,
    "rad": 1.0, "deg": math.pi / 180.0,
}

_QUANTITY_RE = re.compile(
    r"\s*([-+]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?)\s*(\S*)\s*$")

# Desk-scale defaults: 100 mm field of view scanned by a 25 kHz drive and a
# 1 kHz line rotation (25 projections, 160 samples each).  The drive
# amplitude 0.1 T at gradient 1 T/m sweeps the line across the full FOV.
DEFAULTS = {
    "field": {
        "topology": "rotating_ffl",
        "g": "1 T/m",
        "d": "0.1 T",
        "alpha": "0 rad",
        "d_vec": "12 mT, 12 mT, 12 mT",
        "f_vec": "25 kHz, 26 kHz, 27 kHz",
        "validity_radius": "0.1 m",
        "coefficients": "",
        "perturb_seed": "1",
        "perturb_magnitude": "0",
    },
    "acquisition": {
        "f_d": "25 kHz",
        "f_rot": "1 kHz",
        "sample_rate": "4 MHz",
        "duration": "1 ms",
        "noise_level": "1e-3",
        "noise_seed": "1",
        "highpass": "auto",
    },
    "magnetization": {
        "m0": "1",
        "lambda": "1600 1/T",
        "b": "10 mT",
        "n_intervals": "30",
        "scheme": "secant",
        "nodes": "equidistant",
    },
    "phantom": {
        "fov": "100 mm",
        "discs": "20 mm, 15 mm, 10 mm, 7 mm, 4 mm",
    },
    "grid.signal": {"spacing": "1.25 mm"},
    "grid.recon": {"spacing": "1.5625 mm"},
    "coils": {"axes": "x, y"},
    "forward": {
        "model": "general",
        "subsampling": "2",
        "workers": "4",
        "block": "256",
    },
    "sysmat": {
        "subsampling": "2",
        "nnz_cap": "50000000",
        "workers": "4",
        "block": "256",
    },
    "solver": {
        "iterations": "20",
        "atol": "1e-8",
        "btol": "1e-8",
    },
    "fbp": {
        "bins": "128",
        "decimate": "1",
        "deconvolve": "false",
        "nsr": "1e-2",
        "window": "hann",
        "pad": "0 mm",
        "baseline": "auto",
        "cos_guard": "0.05",
    },
    "sweep": {"data_model": "general"},
    "output": {"directory": "out"},
}

_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def parse_quantity(text: str) -> float:
    """Number with an optional SI-ish unit suffix ('10 mT', '25 kHz', '0.3')."""
    m = _QUANTITY_RE.match(text)
    if not m:
        raise ConfigError(f"cannot parse quantity {text!r}")
    value, unit = m.group(1), m.group(2)
    if unit not in UNIT_SCALES:
        raise ConfigError(f"unknown unit {unit!r} in {text!r}")
    return float(value) * UNIT_SCALES[unit]


class RunConfig:
    """Validated section/key/value table with every default filled in."""

    def __init__(self, sections: dict):
        self.sections = sections

    @classmethod
    def load(cls, path=None, overrides=()) -> "RunConfig":
        sections = copy.deepcopy(DEFAULTS)
        if path is not None:
            parser = configparser.ConfigParser(interpolation=None)
            parser.optionxform = str
            try:
                with open(path) as fh:
                    parser.read_file(fh)
            except FileNotFoundError:
                raise MissingInputError(f"config file not found: {path}") from None
            except configparser.Error as exc:
                raise ConfigError(f"{path}: {exc}") from exc
            for sec in parser.sections():
                if sec not in sections:
                    raise ConfigError(f"{path}: unknown section [{sec}]")
                for key, value in parser.items(sec):
                    if key not in sections[sec]:
                        raise ConfigError(f"{path}: unknown key {key!r} in [{sec}]")
                    sections[sec][key] = value.strip()
        for item in overrides:
            if "=" not in item or "." not in item.split("=", 1)[0]:
                raise ConfigError(f"override must look like section.key=value: {item!r}")
            target, value = item.split("=", 1)
            sec, key = target.rsplit(".", 1)
            if sec not in sections or key not in sections[sec]:
                raise ConfigError(f"unknown config entry {sec}.{key}")
            sections[sec][key] = value.strip()
        return cls(sections)

    def text(self, section: str, key: str) -> str:
        return self.sections[section][key]

    def qty(self, section: str, key: str) -> float:
        return parse_quantity(self.text(section, key))

    def qty_list(self, section: str, key: str) -> list:
        raw = self.text(section, key)
        if not raw.strip():
            return []
        return [parse_quantity(part) for part in raw.split(",")]

    def integer(self, section: str, key: str) -> int:
        try:
            return int(self.text(section, key))
        except ValueError:
            raise ConfigError(
                f"{section}.{key} must be an integer, got "
                f"{self.text(section, key)!r}") from None

    def boolean(self, section: str, key: str) -> bool:
        raw = self.text(section, key).lower()
        if raw in _TRUE:
            return True
        if raw in _FALSE:
            return False
        raise ConfigError(f"{section}.{key} must be a boolean, got {raw!r}")

    def resolved_text(self) -> str:
        lines = []
        for sec, entries in self.sections.items():
            lines.append(f"[{sec}]")
            lines.extend(f"{key} = {value}" for key, value in entries.items())
            lines.append("")
        return "\n".join(lines)

    def digest(self) -> str:
        return hashlib.sha256(self.resolved_text().encode()).hexdigest()[:16]


# --- builders -------------------------------------------------------------

def make_field_model(cfg: RunConfig) -> fields.FieldModel:
    radius = cfg.qty("field", "validity_radius")
    coeff_path = cfg.text("field", "coefficients")
    if coeff_path:
        model = fields.load_field_coefficients(coeff_path, validity_radius=radius)
    else:
        kind = cfg.text("field", "topology")
        g = cfg.qty("field", "g")
        if kind == "lissajous_ffp":
            model = fields.build_topology(
                kind, g=g, d=tuple(cfg.qty_list("field", "d_vec")),
                f=tuple(cfg.qty_list("field", "f_vec")), validity_radius=radius)
        elif kind == "line_ffp":
            model = fields.build_topology(
                kind, g=g, d=tuple(cfg.qty_list("field", "d_vec")),
                f_d=cfg.qty("acquisition", "f_d"), validity_radius=radius)
        elif kind == "rotating_ffl":
            model = fields.build_topology(
                kind, g=g, d=cfg.qty("field", "d"),
                f_d=cfg.qty("acquisition", "f_d"),
                f_rot=cfg.qty("acquisition", "f_rot"), validity_radius=radius)
        elif kind == "static_ffl":
            model = fields.build_topology(
                kind, g=g, d=cfg.qty("field", "d"),
                f_d=cfg.qty("acquisition", "f_d"),
                alpha=cfg.qty("field", "alpha"), validity_radius=radius)
        else:
            raise ConfigError(f"unknown topology {kind!r}")
    magnitude = cfg.qty("field", "perturb_magnitude")
    if magnitude > 0:
        model = fields.perturb_field(model, cfg.integer("field", "perturb_seed"),
                                     magnitude)
    return model


def make_acquisition(cfg: RunConfig) -> forward.AcquisitionConfig:
    kind = cfg.text("field", "topology")
    f_rot = cfg.qty("acquisition", "f_rot") if kind == "rotating_ffl" else 0.0
    return forward.AcquisitionConfig(
        f_d=cfg.qty("acquisition", "f_d"),
        sample_rate=cfg.qty("acquisition", "sample_rate"),
        duration=cfg.qty("acquisition", "duration"),
        f_rot=f_rot)


def highpass_cutoff(cfg: RunConfig) -> float | None:
    raw = cfg.text("acquisition", "highpass").strip().lower()
    if raw in ("none", "off", ""):
        return None
    if raw == "auto":
        return 1.4 * cfg.qty("acquisition", "f_d")
    value = parse_quantity(raw)
    return value if value > 0 else None


def make_params(cfg: RunConfig) -> magnetization.LangevinParams:
    return magnetization.LangevinParams(m0=cfg.qty("magnetization", "m0"),
                                        lam=cfg.qty("magnetization", "lambda"))


def make_approx(cfg: RunConfig) -> magnetization.MagnetizationApprox:
    params = make_params(cfg)
    b = cfg.qty("magnetization", "b")
    n = cfg.integer("magnetization", "n_intervals")
    if n < 2:
        raise ConfigError("n_intervals must be >= 2")
    scheme = cfg.text("magnetization", "scheme")
    strategy = cfg.text("magnetization", "nodes")
    if strategy == "equidistant":
        nodes = magnetization.nodes_equidistant(n - 1, b)
    elif strategy == "l1":
        nodes = magnetization.nodes_l1_optimal(n - 1, b, params, scheme=scheme)
    else:
        raise ConfigError(f"unknown node strategy {strategy!r}")
    return magnetization.build_approx(params, nodes, b, scheme=scheme)


def make_grid(cfg: RunConfig, which: str) -> phantom.ConcentrationGrid:
    fov = cfg.qty("phantom", "fov")
    spacing = cfg.qty(f"grid.{which}", "spacing")
    return phantom.empty_grid(fov, spacing)


def make_phantom(cfg: RunConfig, which: str) -> phantom.ConcentrationGrid:
    fov = cfg.qty("phantom", "fov")
    spacing = cfg.qty(f"grid.{which}", "spacing")
    return phantom.build_disc_phantom(fov, cfg.qty_list("phantom", "discs"), spacing)


def make_coils(cfg: RunConfig) -> list:
    axes = [a.strip() for a in cfg.text("coils", "axes").split(",") if a.strip()]
    if not axes:
        raise ConfigError("need at least one receive coil axis")
    return [forward.coil_along(axis, index=i) for i, axis in enumerate(axes)]


def make_geometry(cfg: RunConfig) -> fbp_mod.ScanGeometry:
    kind = cfg.text("field", "topology")
    if kind == "rotating_ffl":
        return fbp_mod.ScanGeometry(g=cfg.qty("field", "g"),
                                    d=cfg.qty("field", "d"),
                                    f_d=cfg.qty("acquisition", "f_d"),
                                    f_rot=cfg.qty("acquisition", "f_rot"))
    if kind == "static_ffl":
        return fbp_mod.ScanGeometry(g=cfg.qty("field", "g"),
                                    d=cfg.qty("field", "d"),
                                    f_d=cfg.qty("acquisition", "f_d"),
                                    alpha=cfg.qty("field", "alpha"))
    raise ConfigError(f"the Radon-domain pipeline needs an FFL topology, not {kind!r}")


# --- stage plumbing ---------------------------------------------------------

class Workspace:
    """Output directory plus the resolved config all artifacts reference."""

    def __init__(self, cfg: RunConfig, outdir=None):
        self.cfg = cfg
        self.dir = Path(outdir if outdir is not None
                        else cfg.text("output", "directory"))
        self.digest = cfg.digest()

    def path(self, name: str) -> Path:
        return self.dir / name

    def prepare(self):
        self.dir.mkdir(parents=True, exist_ok=True)
        with open(self.path("config.resolved.ini"), "w") as fh:
            fh.write(f"# config {self.digest}\n")
            fh.write(self.cfg.resolved_text())

    def comments(self) -> list:
        return [f"config {self.digest}"]

    def require(self, name: str) -> Path:
        p = self.path(name)
        if not p.exists():
            raise MissingInputError(
                f"missing input {p}; run the producing stage first")
        return p


def _axis_names(cfg: RunConfig) -> list:
    return [a.strip() for a in cfg.text("coils", "axes").split(",") if a.strip()]


def _trace_paths(ws: Workspace, filtered: bool) -> list:
    suffix = "_filtered" if filtered else ""
    return [ws.path(f"trace_{axis}{suffix}.bin")
            for axis in _axis_names(ws.cfg)]


def _load_traces(ws: Workspace, filtered: bool) -> list:
    traces = []
    for p in _trace_paths(ws, filtered):
        if not p.exists():
            raise MissingInputError(
                f"missing input {p}; run the producing stage first")
        traces.append(forward.load_trace_bin(p))
    return traces


def _save_recon(ws: Workspace, name: str, grid: phantom.ConcentrationGrid):
    phantom.save_grid(grid, ws.path(f"{name}.grid"), comments=ws.comments())
    phantom.save_pgm(ws.path(f"{name}.pgm"), grid.values[:, :, 0], vmin=0.0)
    for axis, label in (("horizontal", "h"), ("vertical", "v")):
        prof = phantom.line_profile(grid, axis, 0.0)
        coords = grid.axis_coords(0 if axis == "horizontal" else 1)
        with open(ws.path(f"profile_{name}_{label}.csv"), "w") as fh:
            fh.write(f"# config {ws.digest}\n")
            fh.write("coord,value\n")
            for c, v in zip(coords, prof):
                fh.write(f"{c:.17g},{v:.17g}\n")


# --- stages -----------------------------------------------------------------

def stage_phantom(ws: Workspace) -> dict:
    cfg = ws.cfg
    signal = make_phantom(cfg, "signal")
    reference = make_phantom(cfg, "recon")
    phantom.save_grid(signal, ws.path("phantom.grid"), comments=ws.comments())
    phantom.save_grid(reference, ws.path("phantom_recon.grid"),
                      comments=ws.comments())
    phantom.save_pgm(ws.path("phantom.pgm"), signal.values[:, :, 0],
                     vmin=0.0, vmax=max(signal.values.max(), 1.0))
    print(f"phantom: {signal.dims[0]}x{signal.dims[1]} grid, "
          f"{int(signal.values.sum())} filled cells")
    return {"phantom": signal, "reference": reference}


def stage_simulate(ws: Workspace) -> dict:
    cfg = ws.cfg
    model = make_field_model(cfg)
    acq = make_acquisition(cfg)
    grid = phantom.load_grid(ws.require("phantom.grid"))
    coils = make_coils(cfg)
    kind = cfg.text("forward", "model")
    workers = cfg.integer("forward", "workers")
    block = cfg.integer("forward", "block")
    noise_level = cfg.qty("acquisition", "noise_level")
    noise_seed = cfg.integer("acquisition", "noise_seed")
    traces = []
    for axis, coil in zip(_axis_names(cfg), coils):
        if kind == "parallel":
            trace = forward.simulate_parallel(model, grid, coil, acq,
                                              make_params(cfg),
                                              n_workers=workers, block=block)
        elif kind == "general":
            trace = forward.simulate_general(model, grid, coil, acq,
                                             make_params(cfg),
                                             n_workers=workers, block=block)
        elif kind == "piecewise":
            trace = forward.simulate_piecewise(
                model, grid, coil, acq, make_approx(cfg),
                subsampling=cfg.integer("forward", "subsampling"),
                n_workers=workers, block=block)
        else:
            raise ConfigError(f"unknown forward model {kind!r}")
        if noise_level > 0:
            trace = forward.add_noise(trace, noise_level * trace.rms,
                                      noise_seed + coil.index)
        forward.save_trace_bin(trace, ws.path(f"trace_{axis}.bin"))
        forward.save_trace_csv(trace, ws.path(f"trace_{axis}.csv"),
                               comments=ws.comments())
        print(f"simulate[{kind}] coil {axis}: {trace.samples.size} samples, "
              f"rms {trace.rms:.6g} V")
        traces.append(trace)
    return {"traces": traces}


def stage_filter(ws: Workspace) -> dict:
    cfg = ws.cfg
    cutoff = highpass_cutoff(cfg)
    if cutoff is None:
        print("filter: high-pass disabled, nothing to do")
        return {}
    traces = []
    for axis in _axis_names(cfg):
        trace = forward.load_trace_bin(ws.require(f"trace_{axis}.bin"))
        filtered = forward.apply_highpass(trace, cutoff)
        forward.save_trace_bin(filtered, ws.path(f"trace_{axis}_filtered.bin"))
        forward.save_trace_csv(filtered, ws.path(f"trace_{axis}_filtered.csv"),
                               comments=ws.comments())
        traces.append(filtered)
    print(f"filter: high-pass at {cutoff:.6g} Hz applied to "
          f"{len(traces)} trace(s)")
    return {"traces": traces}


def stage_sysmat(ws: Workspace) -> dict:
    cfg = ws.cfg
    model = make_field_model(cfg)
    approx = make_approx(cfg)
    acq = make_acquisition(cfg)
    grid = make_grid(cfg, "recon")
    cutoff = highpass_cutoff(cfg)
    times = acq.times()
    matrices = []
    for axis, coil in zip(_axis_names(cfg), make_coils(cfg)):
        sm = sysmat.build_system_matrix(
            model, approx, coil, times, grid,
            subsampling=cfg.integer("sysmat", "subsampling"),
            nnz_cap=cfg.integer("sysmat", "nnz_cap"),
            n_workers=cfg.integer("sysmat", "workers"),
            block=cfg.integer("sysmat", "block"))
        if cutoff is not None:
            sm = sysmat.apply_highpass_rows(sm, cutoff)
        path = ws.path(f"sysmat_{axis}.mat")
        sysmat.save_system_matrix(sm, path)
        print(f"sysmat coil {axis}: {sm.shape[0]}x{sm.shape[1]}, nnz {sm.nnz}, "
              f"{path.stat().st_size / 1e6:.1f} MB, hash {sm.config_hash}")
        matrices.append(sm)
    return {"matrices": matrices}


def _expected_hashes(cfg: RunConfig):
    model = make_field_model(cfg)
    approx = make_approx(cfg)
    times = make_acquisition(cfg).times()
    grid = make_grid(cfg, "recon")
    cutoff = highpass_cutoff(cfg)
    out = []
    for coil in make_coils(cfg):
        digest = sysmat.config_hash(model, approx, grid, times, coil,
                                    cfg.integer("sysmat", "subsampling"))
        if cutoff is not None:
            digest = sysmat.chain_highpass_hash(digest, cutoff)
        out.append(digest)
    return out


def stage_lsqr(ws: Workspace, force: bool = False) -> dict:
    cfg = ws.cfg
    cutoff = highpass_cutoff(cfg)
    traces = _load_traces(ws, filtered=cutoff is not None)
    matrices = []
    for axis, expected in zip(_axis_names(cfg), _expected_hashes(cfg)):
        sm = sysmat.load_system_matrix(ws.require(f"sysmat_{axis}.mat"),
                                       expected_hash=expected, force=force)
        matrices.append(sm)
    stacked, rhs = sysmat.stack_coils(matrices, traces)
    options = recon.LsqrOptions(
        max_iterations=cfg.integer("solver", "iterations"),
        atol=float(cfg.text("solver", "atol")),
        btol=float(cfg.text("solver", "btol")))
    result = recon.lsqr_solve(stacked, rhs, options)
    grid = make_grid(cfg, "recon")
    image = grid.with_values(result.x.reshape(grid.dims, order="F"))
    _save_recon(ws, "recon_lsqr", image)
    with open(ws.path("lsqr_residuals.csv"), "w") as fh:
        fh.write(f"# config {ws.digest}\n")
        fh.write("iteration,residual\n")
        for i, r in enumerate(result.residuals):
            fh.write(f"{i},{r:.17g}\n")
    print(f"lsqr: {result.iterations} iterations, stop {result.stop_reason}, "
          f"final residual {result.residuals[-1]:.6g}")
    return {"image": image, "result": result}


def stage_fbp(ws: Workspace) -> dict:
    cfg = ws.cfg
    cutoff = highpass_cutoff(cfg)
    geometry = make_geometry(cfg)
    traces = _load_traces(ws, filtered=cutoff is not None)
    deconvolve = cfg.boolean("fbp", "deconvolve")
    sino = fbp_mod.signal_to_sinogram(
        traces, make_coils(cfg), geometry,
        n_bins=cfg.integer("fbp", "bins"),
        deconvolve=deconvolve,
        params=make_params(cfg) if deconvolve else None,
        nsr=float(cfg.text("fbp", "nsr")),
        decimate=cfg.integer("fbp", "decimate"),
        cos_guard=float(cfg.text("fbp", "cos_guard")))
    baseline = cfg.text("fbp", "baseline").lower()
    if baseline not in ("auto", "on", "off"):
        raise ConfigError(f"fbp.baseline must be auto, on or off, not {baseline!r}")
    if baseline == "on" or (baseline == "auto" and cutoff is not None):
        sino = fbp_mod.subtract_edge_baseline(sino)
    pad = cfg.qty("fbp", "pad")
    if pad > geometry.amplitude:
        sino = fbp_mod.zero_pad(sino, pad)
    fbp_mod.save_sinogram_csv(sino, ws.path("sinogram.csv"))
    phantom.save_pgm(ws.path("sinogram.pgm"), sino.values.T)
    image = fbp_mod.fbp_reconstruct(sino, make_grid(cfg, "recon"),
                                    window=cfg.text("fbp", "window"))
    _save_recon(ws, "recon_fbp", image)
    print(f"fbp: {sino.angles.size} projections x "
          f"{sino.displacements.size} bins")
    return {"image": image, "sinogram": sino}


def stage_compare(ws: Workspace) -> dict:
    reference = phantom.load_grid(ws.require("phantom_recon.grid"))
    rows = []
    for name in ("recon_lsqr", "recon_fbp"):
        p = ws.path(f"{name}.grid")
        if not p.exists():
            continue
        image = phantom.load_grid(p)
        plain = recon.nrmse(image, reference)
        scale = recon.optimal_scale(image, reference)
        scaled = recon.nrmse(image.with_values(scale * image.values), reference)
        rows.append((name, plain, scaled))
    if not rows:
        raise MissingInputError("no reconstructions found; run lsqr or fbp first")
    with open(ws.path("compare.csv"), "w") as fh:
        fh.write(f"# config {ws.digest}\n")
        fh.write("reconstruction,nrmse,nrmse_scaled\n")
        for name, plain, scaled in rows:
            fh.write(f"{name},{plain:.17g},{scaled:.17g}\n")
            print(f"compare {name}: nrmse {plain:.6g} (scaled {scaled:.6g})")
    return {"rows": rows}


PIPELINE_STAGES = ("phantom", "simulate", "filter", "sysmat", "lsqr", "fbp",
                   "compare")


def run_pipeline(cfg: RunConfig, stages, outdir=None, force: bool = False) -> dict:
    """Run the requested stages in pipeline order inside one workspace."""
    order = [s for s in PIPELINE_STAGES if s in stages]
    unknown = set(stages) - set(PIPELINE_STAGES)
    if unknown:
        raise ConfigError(f"unknown stages: {sorted(unknown)}")
    ws = Workspace(cfg, outdir)
    ws.prepare()
    results = {}
    for stage in order:
        # looked up in the module namespace at call time, so wrapped stages run
        run = globals()[f"stage_{stage}"]
        results[stage] = run(ws, force=force) if stage == "lsqr" else run(ws)
    return results


# --- sweeps -----------------------------------------------------------------

def _sweep_variant(cfg: RunConfig, parameter: str, value: str) -> RunConfig:
    sections = copy.deepcopy(cfg.sections)
    if parameter == "threshold_b":
        sections["magnetization"]["b"] = value
    elif parameter == "node_count":
        sections["magnetization"]["n_intervals"] = value
    elif parameter == "scheme":
        # 'secant' keeps the configured node strategy; 'tangent-l1' sets both.
        parts = value.strip().split("-", 1)
        if parts[0] not in ("secant", "tangent"):
            raise ConfigError(
                f"scheme value must look like 'secant' or 'tangent-l1', "
                f"got {value!r}")
        sections["magnetization"]["scheme"] = parts[0]
        if len(parts) == 2:
            sections["magnetization"]["nodes"] = parts[1]
    else:
        raise ConfigError(f"unknown sweep parameter {parameter!r}")
    return RunConfig(sections)


def _slug(value: str) -> str:
    return re.sub(r"[^A-Za-z0-9.+-]+", "_", value.strip()).strip("_")


def run_sweep(cfg: RunConfig, parameter: str, values, outdir=None,
              force: bool = False) -> list:
    """Reconstruct once per parameter value against shared simulated data.

    The voltage data is simulated once from the base config (with the
    data_model forward model, so it does not depend on the staircase being
    swept); each value then rebuilds the staircase, the system matrix and
    the LSQR reconstruction, and the summary records NRMSE against the
    phantom on the reconstruction grid.
    """
    if not values:
        raise ConfigError("sweep needs at least one value")
    base_sections = copy.deepcopy(cfg.sections)
    base_sections["forward"]["model"] = cfg.text("sweep", "data_model")
    base = RunConfig(base_sections)
    ws = Workspace(base, outdir)
    ws.prepare()
    stage_phantom(ws)
    stage_simulate(ws)
    stage_filter(ws)
    reference = phantom.load_grid(ws.require("phantom_recon.grid"))
    summary = []
    for value in values:
        variant = _sweep_variant(base, parameter, value)
        sub = Workspace(variant, ws.dir / f"{parameter}_{_slug(value)}")
        sub.prepare()
        for axis in _axis_names(base):
            for suffix in ("", "_filtered"):
                src = ws.path(f"trace_{axis}{suffix}.bin")
                if src.exists():
                    sub.path(f"trace_{axis}{suffix}.bin").write_bytes(
                        src.read_bytes())
        stage_sysmat(sub)
        result = stage_lsqr(sub, force=force)
        value_nrmse = recon.nrmse(result["image"], reference)
        summary.append((value, value_nrmse))
        print(f"sweep {parameter}={value.strip()}: nrmse {value_nrmse:.6g}")
    with open(ws.path(f"sweep_{parameter}.csv"), "w") as fh:
        fh.write(f"# config {ws.digest}\n")
        fh.write(f"{parameter},nrmse\n")
        for value, err in summary:
            fh.write(f"{value.strip()},{err:.17g}\n")
    return summary


# --- entry point ------------------------------------------------------------

def _field_info(cfg: RunConfig, save=None):
    model = make_field_model(cfg)
    print(f"topology: {model.topology}")
    print(f"max degree: {model.max_degree}, validity radius "
          f"{model.validity_radius:g} m, {len(model.terms)} terms")
    for t in model.terms:
        mod = t.modulation
        extra = "" if mod.kind == "const" else f" f1={mod.f1:g}"
        if mod.kind in ("sinsin", "sincos"):
            extra += f" f2={mod.f2:g}"
        print(f"  component {t.component} l={t.degree} m={t.order:+d} "
              f"coeff {t.coefficient * mod.scale:+.6g} {mod.kind}{extra}")
    try:
        locus = fields.ffl_locus(model, 0.0)
        print(f"field-free line at t=0: point {np.round(locus.point, 9)}, "
              f"direction {np.round(locus.direction, 9)}")
    except MpiSimError:
        try:
            pos = fields.ffp_position(model, 0.0)
            print(f"field-free point at t=0: {np.round(pos, 9)}")
        except MpiSimError:
            print("no closed-form zero locus for this model")
    if save:
        fields.write_field_coefficients(model, save)
        print(f"coefficients written to {save}")


def _compare_files(path_a, path_b, scale: bool):
    for p in (path_a, path_b):
        if not Path(p).exists():
            raise MissingInputError(f"grid file not found: {p}")
    image = phantom.load_grid(path_a)
    reference = phantom.load_grid(path_b)
    if scale:
        image = image.with_values(recon.optimal_scale(image, reference)
                                  * image.values)
    print(f"nrmse {recon.nrmse(image, reference):.17g}")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-c", "--config", help="INI config file")
    common.add_argument("-o", "--outdir", help="output directory override")
    common.add_argument("--set", action="append", default=[], metavar="SEC.KEY=VAL",
                        help="override one config entry (repeatable)")
    common.add_argument("-v", "--verbose", action="store_true")

    parser = argparse.ArgumentParser(
        prog="mpisim",
        description="Field-free-line imaging chain: simulate voltages, build "
                    "the sparse system matrix, reconstruct via LSQR or FBP.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
            ("phantom", "write the disc phantom and its reference grids"),
            ("simulate", "simulate receive-coil voltages"),
            ("filter", "high-pass the simulated traces"),
            ("sysmat", "assemble and store the system matrices"),
            ("fbp", "sinogram regridding and filtered back-projection")):
        sub.add_parser(name, parents=[common], help=doc)
    p = sub.add_parser("field-info", parents=[common],
                       help="print the field model's terms and zero locus")
    p.add_argument("--save", metavar="PATH",
                   help="also write the coefficient table to PATH")
    p = sub.add_parser("lsqr", parents=[common],
                       help="reconstruct by early-stopped LSQR")
    p.add_argument("--force", action="store_true",
                   help="use stored matrices even if their config hash differs")
    p = sub.add_parser("run", parents=[common],
                       help="run the full pipeline (all stages in order)")
    p.add_argument("--stages", default=",".join(PIPELINE_STAGES),
                   help="comma-separated stage subset")
    p.add_argument("--force", action="store_true")
    p = sub.add_parser("sweep", parents=[common],
                       help="reconstruct across a parameter range")
    p.add_argument("--parameter", required=True,
                   choices=("threshold_b", "node_count", "scheme"))
    p.add_argument("--values", required=True,
                   help="comma-separated values, e.g. '4 mT,10 mT'")
    p.add_argument("--force", action="store_true")
    p = sub.add_parser("compare", parents=[common],
                       help="NRMSE between two stored grids")
    p.add_argument("grid_a")
    p.add_argument("grid_b")
    p.add_argument("--scale", action="store_true",
                   help="apply the least-squares intensity scale first")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if getattr(args, "verbose", False) else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        cfg = RunConfig.load(getattr(args, "config", None),
                             getattr(args, "set", []))
        if args.command == "run":
            stages = [s.strip() for s in args.stages.split(",") if s.strip()]
            run_pipeline(cfg, stages, outdir=args.outdir, force=args.force)
        elif args.command == "sweep":
            values = [v for v in args.values.split(",") if v.strip()]
            run_sweep(cfg, args.parameter, values, outdir=args.outdir,
                      force=args.force)
        elif args.command == "compare":
            _compare_files(args.grid_a, args.grid_b, args.scale)
        elif args.command == "field-info":
            _field_info(cfg, save=args.save)
        else:  # a single stage
            run_pipeline(cfg, [args.command], outdir=args.outdir,
                         force=getattr(args, "force", False))
    except MpiSimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

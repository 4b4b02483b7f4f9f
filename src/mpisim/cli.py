"""Experiment driver: config parsing, pipeline stages, file outputs.

Every stage reads one INI-style config (defaults filled in, echoed verbatim
to the output directory) and communicates with other stages through files
only, so runs are diffable and restartable.  plan_stages reads, checks and
builds every setting the requested stages use before the first file is
written, and a stage reads its settings only from that plan.  Exit codes:
0 ok, 2 config error, 3 missing input, 4 hash mismatch, 5 resource cap.
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
from .artifacts import atomic_open, open_input
from .errors import ConfigError, EXIT_OK, MissingInputError, MpiSimError

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
        "workers": "4",
    },
    "sysmat": {
        "subsampling": "2",
        "nnz_cap": "50000000",
        "workers": "4",
    },
    "solver": {
        "iterations": "20",
        "atol": "1e-8",
        "btol": "1e-8",
    },
    "fbp": {
        "bins": "128",
        "deconvolve": "false",
        "nsr": "1e-2",
        "window": "hann",
        "cos_guard": "0.05",
    },
    "output": {"directory": "out"},
}

# Left out of the config digest: neither worker count changes a trace or a
# matrix, bit for bit, and the output directory only says where files go.
UNDIGESTED = {("forward", "workers"), ("sysmat", "workers"), ("output", "directory")}

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
    result = float(value) * UNIT_SCALES[unit]
    if not math.isfinite(result):
        raise ConfigError(f"quantity {text!r} is not finite")
    return result


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
                with open_input(path, "r") as fh:
                    parser.read_file(fh)
            except (UnicodeDecodeError, configparser.Error) as exc:
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
        """16 hex digits of the resolved config, UNDIGESTED entries left out."""
        kept = {sec: {key: value for key, value in entries.items()
                      if (sec, key) not in UNDIGESTED}
                for sec, entries in self.sections.items()}
        text = RunConfig(kept).resolved_text()
        return hashlib.sha256(text.encode()).hexdigest()[:16]


# --- builders -------------------------------------------------------------

def make_topology(cfg: RunConfig) -> fields.FieldModel:
    """The ideal field of field.topology, the scan FBP assumes."""
    radius = cfg.qty("field", "validity_radius")
    kind = cfg.text("field", "topology")
    g = cfg.qty("field", "g")
    if kind == "lissajous_ffp":
        return fields.build_topology(
            kind, g=g, d=tuple(cfg.qty_list("field", "d_vec")),
            f=tuple(cfg.qty_list("field", "f_vec")), validity_radius=radius)
    if kind == "line_ffp":
        return fields.build_topology(
            kind, g=g, d=tuple(cfg.qty_list("field", "d_vec")),
            f_d=cfg.qty("acquisition", "f_d"), validity_radius=radius)
    if kind == "rotating_ffl":
        return fields.build_topology(
            kind, g=g, d=cfg.qty("field", "d"),
            f_d=cfg.qty("acquisition", "f_d"),
            f_rot=cfg.qty("acquisition", "f_rot"), validity_radius=radius)
    if kind == "static_ffl":
        return fields.build_topology(
            kind, g=g, d=cfg.qty("field", "d"),
            f_d=cfg.qty("acquisition", "f_d"),
            alpha=cfg.qty("field", "alpha"), validity_radius=radius)
    raise ConfigError(f"unknown topology {kind!r}")


def make_field_model(cfg: RunConfig) -> fields.FieldModel:
    """The simulated field: the coefficient table, or the ideal field; then
    the configured perturbation."""
    coeff_path = cfg.text("field", "coefficients")
    if coeff_path:
        model = fields.load_field_coefficients(
            coeff_path, validity_radius=cfg.qty("field", "validity_radius"))
    else:
        model = make_topology(cfg)
    return fields.perturb_field(model, cfg.integer("field", "perturb_seed"),
                                cfg.qty("field", "perturb_magnitude"))


def make_acquisition(cfg: RunConfig) -> forward.AcquisitionConfig:
    kind = cfg.text("field", "topology")
    f_rot = cfg.qty("acquisition", "f_rot") if kind == "rotating_ffl" else 0.0
    return forward.AcquisitionConfig(
        f_d=cfg.qty("acquisition", "f_d"),
        sample_rate=cfg.qty("acquisition", "sample_rate"),
        duration=cfg.qty("acquisition", "duration"),
        f_rot=f_rot)


def highpass_cutoff(cfg: RunConfig) -> float | None:
    raw = cfg.text("acquisition", "highpass").strip()
    if raw.lower() in ("none", "off", ""):
        return None
    if raw.lower() == "auto":
        return 1.4 * cfg.qty("acquisition", "f_d")
    value = parse_quantity(raw)
    if not value > 0:
        raise ConfigError(f"acquisition.highpass must be positive, not {raw!r}; "
                          f"none or off disables the filter")
    return value


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
    """(axis, ReceiveCoil) pairs in coils.axes order, one per distinct axis."""
    raw = cfg.text("coils", "axes")
    axes = [a.strip() for a in raw.split(",") if a.strip()]
    if not axes:
        raise ConfigError("need at least one receive coil axis")
    if len(set(axes)) != len(axes):
        raise ConfigError(f"coils.axes names an axis twice: {raw!r}")
    return [(axis, forward.coil_along(axis, index=i)) for i, axis in enumerate(axes)]


def make_lsqr_options(cfg: RunConfig) -> recon.LsqrOptions:
    return recon.LsqrOptions(max_iterations=cfg.integer("solver", "iterations"),
                             atol=cfg.qty("solver", "atol"),
                             btol=cfg.qty("solver", "btol"))


def make_fbp_settings(cfg: RunConfig) -> dict:
    """Every setting stage_fbp reads; fbp.check_settings checks its own."""
    settings = {"n_bins": cfg.integer("fbp", "bins"),
                "cos_guard": cfg.qty("fbp", "cos_guard"),
                "nsr": cfg.qty("fbp", "nsr"),
                "window": cfg.text("fbp", "window")}
    fbp_mod.check_settings(**settings)
    model = make_topology(cfg)
    if model.topology not in ("rotating_ffl", "static_ffl"):
        raise ConfigError(f"the Radon-domain pipeline needs an FFL topology, "
                          f"not {model.topology!r}")
    # the scan signal_to_sinogram will regrid: every projection keeps a sample
    acq = make_acquisition(cfg)
    fbp_mod.scan_projections(acq.f_d, acq.sample_rate, acq.n_samples,
                             settings["cos_guard"])
    deconvolve = cfg.boolean("fbp", "deconvolve")
    return {**settings, "model": model, "deconvolve": deconvolve,
            "params": make_params(cfg) if deconvolve else None,
            "grid": make_grid(cfg, "recon")}


# --- stage plumbing ---------------------------------------------------------

# forward.model -> the name of its simulator in forward, looked up at call
# time so that a wrapped simulator runs
SIMULATORS = {"general": "simulate_general", "parallel": "simulate_parallel",
              "piecewise": "simulate_piecewise"}


def _at_least(name: str, value, low):
    if value < low:
        raise ConfigError(f"{name} must be >= {low}, got {value}")
    return value


def plan_stages(cfg: RunConfig, stages) -> dict:
    """Read, check and build every setting the given stages use; no I/O.

    A setting no given stage reads is not parsed.  Entries, by the stages
    that read them: phantoms (phantom); coils (all but phantom and
    compare); highpass (filter, sysmat, lsqr, fbp); recipe, the matrix
    builders' and config_hash's inputs but the staircase (simulate, sysmat,
    lsqr); approx, the staircase, so L1 nodes are placed once per plan
    (sysmat, lsqr, piecewise simulate); and one entry of its own settings
    for each of simulate, sysmat, lsqr and fbp.
    """
    stages = set(stages)
    plan = {}
    if "phantom" in stages:
        plan["phantoms"] = make_phantom(cfg, "signal"), make_phantom(cfg, "recon")
    if stages & {"simulate", "filter", "sysmat", "lsqr", "fbp"}:
        plan["coils"] = make_coils(cfg)
    if stages & {"filter", "sysmat", "lsqr", "fbp"}:
        plan["highpass"] = highpass_cutoff(cfg)
    if stages & {"simulate", "sysmat", "lsqr"}:
        subsampling = _at_least("sysmat.subsampling",
                                cfg.integer("sysmat", "subsampling"), 1)
        plan["recipe"] = {"model": make_field_model(cfg),
                          "acq": make_acquisition(cfg),
                          "grid": make_grid(cfg, "recon"),
                          "subsampling": subsampling}
    piecewise = False
    if "simulate" in stages:
        kind = cfg.text("forward", "model")
        if kind not in SIMULATORS:
            raise ConfigError(f"unknown forward model {kind!r}; need one of "
                              f"{', '.join(SIMULATORS)}")
        piecewise = kind == "piecewise"
        plan["simulate"] = {
            "model": kind,
            "workers": _at_least("forward.workers",
                                 cfg.integer("forward", "workers"), 1),
            "noise_level": _at_least("acquisition.noise_level",
                                     cfg.qty("acquisition", "noise_level"), 0),
            "noise_seed": _at_least("acquisition.noise_seed",
                                    cfg.integer("acquisition", "noise_seed"), 0),
            "params": make_params(cfg)}
    if piecewise or stages & {"sysmat", "lsqr"}:
        plan["approx"] = make_approx(cfg)
    if "sysmat" in stages:
        plan["sysmat"] = {
            "nnz_cap": _at_least("sysmat.nnz_cap", cfg.integer("sysmat", "nnz_cap"), 1),
            "workers": _at_least("sysmat.workers", cfg.integer("sysmat", "workers"), 1)}
    if "lsqr" in stages:
        plan["lsqr"] = make_lsqr_options(cfg)
    if "fbp" in stages:
        plan["fbp"] = make_fbp_settings(cfg)
    return plan


class Workspace:
    """Output directory, the resolved config's digest, and the plan of the
    stages that run in it."""

    def __init__(self, cfg: RunConfig, stages, outdir=None):
        self.dir = Path(outdir if outdir is not None
                        else cfg.text("output", "directory"))
        self.resolved = cfg.resolved_text()
        self.digest = cfg.digest()
        self.plan = plan_stages(cfg, stages)

    def path(self, name: str) -> Path:
        return self.dir / name

    def prepare(self):
        self.dir.mkdir(parents=True, exist_ok=True)
        with atomic_open(self.path("config.resolved.ini"), "w") as fh:
            fh.write(f"# config {self.digest}\n")
            fh.write(self.resolved)

    def comments(self) -> list:
        return [f"config {self.digest}"]

    def require(self, name: str) -> Path:
        p = self.path(name)
        if not p.exists():
            raise MissingInputError(
                f"missing input {p}; run the producing stage first")
        return p


def _load_traces(ws: Workspace) -> list:
    """Each coil's trace, the high-passed one when the plan sets a cut-off."""
    suffix = "_filtered" if ws.plan["highpass"] is not None else ""
    return [forward.load_trace_bin(ws.require(f"trace_{axis}{suffix}.bin"))
            for axis, _ in ws.plan["coils"]]


def _write_csv(ws: Workspace, name: str, header: str, rows):
    """The '# config' line, the header, then one line per row; numbers as .17g."""
    with atomic_open(ws.path(name), "w") as fh:
        fh.write(f"# config {ws.digest}\n{header}\n")
        for row in rows:
            fh.write(",".join(v if isinstance(v, str) else f"{v:.17g}"
                              for v in row) + "\n")


def _save_recon(ws: Workspace, name: str, grid: phantom.ConcentrationGrid):
    phantom.save_grid(grid, ws.path(f"{name}.grid"), comments=ws.comments())
    phantom.save_pgm(ws.path(f"{name}.pgm"), grid.values[:, :, 0], vmin=0.0)
    for axis, label in (("horizontal", "h"), ("vertical", "v")):
        prof = phantom.line_profile(grid, axis, 0.0)
        coords = grid.axis_coords(0 if axis == "horizontal" else 1)
        _write_csv(ws, f"profile_{name}_{label}.csv", "coord,value",
                   zip(coords, prof))


# --- stages -----------------------------------------------------------------

def stage_phantom(ws: Workspace) -> dict:
    signal, reference = ws.plan["phantoms"]
    phantom.save_grid(signal, ws.path("phantom.grid"), comments=ws.comments())
    phantom.save_grid(reference, ws.path("phantom_recon.grid"),
                      comments=ws.comments())
    phantom.save_pgm(ws.path("phantom.pgm"), signal.values[:, :, 0],
                     vmin=0.0, vmax=max(signal.values.max(), 1.0))
    print(f"phantom: {signal.dims[0]}x{signal.dims[1]} grid, "
          f"{int(signal.values.sum())} filled cells")
    return {"phantom": signal, "reference": reference}


def stage_simulate(ws: Workspace) -> dict:
    plan, settings = ws.plan, ws.plan["simulate"]
    recipe, coils = plan["recipe"], plan["coils"]
    grid = phantom.load_grid(ws.require("phantom.grid"))
    kind = settings["model"]
    simulate = getattr(forward, SIMULATORS[kind])
    args = ((plan["approx"], recipe["subsampling"]) if kind == "piecewise"
            else (settings["params"],))
    clean = simulate(recipe["model"], grid, [coil for _, coil in coils],
                     recipe["acq"], *args, n_workers=settings["workers"])
    noise_level = settings["noise_level"]
    traces = []
    for (axis, coil), trace in zip(coils, clean):
        if noise_level > 0:
            trace = forward.add_noise(trace, noise_level * trace.rms,
                                      settings["noise_seed"] + coil.index)
        forward.save_trace_bin(trace, ws.path(f"trace_{axis}.bin"))
        forward.save_trace_csv(trace, ws.path(f"trace_{axis}.csv"),
                               comments=ws.comments())
        print(f"simulate[{kind}] coil {axis}: {trace.samples.size} samples, "
              f"rms {trace.rms:.6g} V")
        traces.append(trace)
    return {"traces": traces}


def stage_filter(ws: Workspace) -> dict:
    cutoff = ws.plan["highpass"]
    if cutoff is None:
        print("filter: high-pass disabled, nothing to do")
        return {}
    traces = []
    for axis, _ in ws.plan["coils"]:
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
    """Build every coil's matrix in one pass, then save one file per coil.

    The build holds the matrix once, plus a few row blocks in flight
    (sysmat.build_system_matrices).  No matrix is returned: stage_lsqr
    reads the files back, and the stacked matrix is freed before it does.
    """
    plan = ws.plan
    stacked = sysmat.build_system_matrix(
        approx=plan["approx"], coils=[coil for _, coil in plan["coils"]],
        **plan["recipe"], nnz_cap=plan["sysmat"]["nnz_cap"],
        n_workers=plan["sysmat"]["workers"])
    _save_matrices(ws, stacked)
    return {}


def _matrix_hash(ws: Workspace, coil: forward.ReceiveCoil) -> str:
    """The config hash a coil's stored matrix is saved and checked under."""
    plan = ws.plan
    return sysmat.config_hash(approx=plan["approx"], coil=coil,
                              highpass=plan["highpass"], **plan["recipe"])


def _save_matrices(ws: Workspace, stacked: sysmat.SystemMatrix):
    """Save each coil's rows of stacked as sysmat_<axis>.mat.

    Each file holds a view of that coil's rows, high-passed when the plan
    sets a cut-off, under _matrix_hash.
    """
    cutoff = ws.plan["highpass"]
    for i, (axis, coil) in enumerate(ws.plan["coils"]):
        sm = stacked.coil_block(i)
        if cutoff is not None:
            sm = sysmat.apply_highpass_rows(sm, cutoff)
        digest = _matrix_hash(ws, coil)
        path = ws.path(f"sysmat_{axis}.mat")
        sysmat.save_system_matrix(sm, path, digest)
        print(f"sysmat coil {axis}: {sm.shape[0]}x{sm.shape[1]}, nnz {sm.nnz}, "
              f"{path.stat().st_size / 1e6:.1f} MB, hash {digest}")


def stage_lsqr(ws: Workspace, force: bool = False) -> dict:
    traces = _load_traces(ws)
    grid, coils = ws.plan["recipe"]["grid"], ws.plan["coils"]
    stacked = sysmat.load_system_matrices(
        [ws.require(f"sysmat_{axis}.mat") for axis, _ in coils],
        [_matrix_hash(ws, coil) for _, coil in coils], force=force)
    rhs = sysmat.stack_coils(stacked, traces)
    if not stacked.grid_meta_matches(grid):
        raise ConfigError(
            f"stored matrices are for a {stacked.grid_dims} grid, spacing "
            f"{stacked.grid_spacing}, origin {stacked.grid_origin}; the recon "
            f"grid is {grid.dims}, spacing {grid.spacing}, origin {grid.origin}")
    result = recon.lsqr_solve(stacked.operator(), rhs, ws.plan["lsqr"])
    image = grid.with_values(result.x.reshape(grid.dims, order="F"))
    _save_recon(ws, "recon_lsqr", image)
    _write_csv(ws, "lsqr_residuals.csv", "iteration,residual",
               enumerate(result.residuals))
    print(f"lsqr: {result.iterations} iterations, stop {result.stop_reason}, "
          f"final residual {result.residuals[-1]:.6g}")
    return {"image": image, "result": result}


def stage_fbp(ws: Workspace) -> dict:
    fs = ws.plan["fbp"]
    traces = _load_traces(ws)
    sino = fbp_mod.signal_to_sinogram(
        traces, [coil for _, coil in ws.plan["coils"]], fs["model"],
        n_bins=fs["n_bins"], deconvolve=fs["deconvolve"], params=fs["params"],
        nsr=fs["nsr"], cos_guard=fs["cos_guard"])
    if ws.plan["highpass"] is not None:
        # undo the per-projection constant the high-pass leaves
        sino = fbp_mod.subtract_edge_baseline(sino)
    image = fbp_mod.fbp_reconstruct(sino, fs["grid"], window=fs["window"])
    fbp_mod.save_sinogram_csv(sino, ws.path("sinogram.csv"))
    phantom.save_pgm(ws.path("sinogram.pgm"), sino.values.T)
    _save_recon(ws, "recon_fbp", image)
    print(f"fbp: {sino.angles.size} projections x "
          f"{sino.displacements.size} bins")
    return {"image": image, "sinogram": sino}


def _written_here(ws: Workspace, path: Path) -> bool:
    """Whether the file at path starts with this config's '# config' line."""
    with open_input(path) as fh:
        return fh.readline() == f"# config {ws.digest}\n".encode()


def stage_compare(ws: Workspace) -> dict:
    """Score the reconstructions written under this config; skip the rest.

    The reference, phantom_recon.grid, must be written under this config.
    """
    ref_path = ws.require("phantom_recon.grid")
    names = []
    for name in ("recon_lsqr", "recon_fbp"):
        p = ws.path(f"{name}.grid")
        if not p.exists():
            continue
        if not _written_here(ws, p):
            print(f"compare: skipped {name}, not written under config "
                  f"{ws.digest}")
            continue
        names.append(name)
    if not names:
        raise MissingInputError("no reconstructions found; run lsqr or fbp first")
    if not _written_here(ws, ref_path):
        raise MissingInputError(f"{ref_path} was not written under config "
                                f"{ws.digest}; run the phantom stage first")
    reference = phantom.load_grid(ref_path)
    rows = []
    for name in names:
        image = phantom.load_grid(ws.path(f"{name}.grid"))
        plain = recon.nrmse(image, reference)
        scale = recon.optimal_scale(image, reference)
        scaled = recon.nrmse(image.with_values(scale * image.values), reference)
        rows.append((name, plain, scaled))
    _write_csv(ws, "compare.csv", "reconstruction,nrmse,nrmse_scaled", rows)
    for name, plain, scaled in rows:
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
    if not order:
        raise ConfigError(f"no stage to run; name one of {', '.join(PIPELINE_STAGES)}")
    ws = Workspace(cfg, order, outdir)
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


def run_sweep(cfg: RunConfig, parameter: str, values, outdir=None) -> list:
    """Reconstruct once per parameter value against shared simulated data.

    The base workspace plans phantom, simulate and filter, and each value's
    workspace plans sysmat and lsqr, so a bad setting or value, or two
    values that would share a sub-directory, stops the sweep before
    anything is written.
    The voltage data is simulated once from the base config with its
    forward.model.  The sweep parameters change only the staircase, so one
    assembly pass on the first value's plan builds every value's system
    matrix; each value then saves its matrix and runs its LSQR
    reconstruction, and the summary records NRMSE against the phantom on
    the reconstruction grid.
    """
    if not values:
        raise ConfigError("sweep needs at least one value")
    ws = Workspace(cfg, ("phantom", "simulate", "filter"), outdir)
    subs = {}
    for value in values:
        name = f"{parameter}_{_slug(value)}"
        if name in subs:
            raise ConfigError(f"sweep values {subs[name][0].strip()!r} and "
                              f"{value.strip()!r} would share the directory {name}")
        subs[name] = (value, Workspace(_sweep_variant(cfg, parameter, value),
                                       ("sysmat", "lsqr"), ws.dir / name))
    ws.prepare()
    stage_phantom(ws)
    stage_simulate(ws)
    stage_filter(ws)
    reference = phantom.load_grid(ws.require("phantom_recon.grid"))
    plans = [sub.plan for _, sub in subs.values()]
    shared = plans[0]
    matrices = sysmat.build_system_matrices(
        approxes=[plan["approx"] for plan in plans],
        coils=[coil for _, coil in shared["coils"]], **shared["recipe"],
        nnz_cap=shared["sysmat"]["nnz_cap"], n_workers=shared["sysmat"]["workers"])
    summary = []
    for i, (value, sub) in enumerate(subs.values()):
        sub.prepare()
        for axis, _ in shared["coils"]:
            for suffix in ("", "_filtered"):
                src = ws.path(f"trace_{axis}{suffix}.bin")
                if src.exists():
                    with atomic_open(sub.path(f"trace_{axis}{suffix}.bin")) as fh:
                        fh.write(src.read_bytes())
        _save_matrices(sub, matrices[i])
        matrices[i] = None  # saved: stage_lsqr reads it back from the file
        result = stage_lsqr(sub)
        value_nrmse = recon.nrmse(result["image"], reference)
        summary.append((value, value_nrmse))
        print(f"sweep {parameter}={value.strip()}: nrmse {value_nrmse:.6g}")
    _write_csv(ws, f"sweep_{parameter}.csv", f"{parameter},nrmse",
               [(value.strip(), err) for value, err in summary])
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
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        cfg = RunConfig.load(args.config, args.set)
        if args.command == "run":
            stages = [s.strip() for s in args.stages.split(",") if s.strip()]
            run_pipeline(cfg, stages, outdir=args.outdir, force=args.force)
        elif args.command == "sweep":
            values = [v for v in args.values.split(",") if v.strip()]
            run_sweep(cfg, args.parameter, values, outdir=args.outdir)
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

"""Experiment driver: config parsing, pipeline stages, file outputs.

Every stage reads one INI-style config (defaults filled in, echoed verbatim
to the output directory) and communicates with other stages through files
only, so runs are diffable and restartable.  STAGES names each stage's plan
entries and input stages; plan_stages reads, checks and builds every
setting the requested stages and those upstream of them use before the
first file is written, and a stage reads its settings only from that plan.
Every artifact carries the stamp of the stage that wrote it.  Exit codes:
0 ok, 2 config error, 3 missing input, 4 stale input (a phantom.grid that
simulate, a trace that filter, lsqr or fbp, or a matrix that lsqr reads
carries another stamp than the plan expects; --force overrides, and what
a forced stage writes then carries a stamp of the stamps it read, so no
later check takes it for current), 5 resource cap.  config.resolved.ini
is written with a run's first artifact, once a stage has passed its input
checks.
"""

from __future__ import annotations

import argparse
import configparser
import copy
import logging
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import fbp as fbp_mod
from . import fields, forward, magnetization, phantom, recon, sysmat
from .artifacts import atomic_open, open_input
from .errors import (ConfigError, EXIT_OK, HashMismatchError, MissingInputError,
                     MpiSimError, UnsupportedTopologyError)

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
        "window": "hann",
        "cos_guard": "0.05",
    },
    "output": {"directory": "out"},
}

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

    def resolved_text(self) -> str:
        lines = []
        for sec, entries in self.sections.items():
            lines.append(f"[{sec}]")
            lines.extend(f"{key} = {value}" for key, value in entries.items())
            lines.append("")
        return "\n".join(lines)


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


def make_fbp_settings(cfg: RunConfig) -> dict:
    """Every setting stage_fbp reads; fbp.check_settings checks its own."""
    settings = {"n_bins": cfg.integer("fbp", "bins"),
                "cos_guard": cfg.qty("fbp", "cos_guard"),
                "window": cfg.text("fbp", "window")}
    fbp_mod.check_settings(**settings)
    model = make_topology(cfg)
    if model.topology not in ("rotating_ffl", "static_ffl"):
        raise UnsupportedTopologyError(f"the Radon-domain pipeline needs an FFL "
                                       f"topology, not {model.topology!r}")
    # the scan signal_to_sinogram will regrid: every projection keeps a sample
    acq = make_acquisition(cfg)
    fbp_mod.scan_projections(acq.f_d, acq.sample_rate, acq.n_samples,
                             settings["cos_guard"])
    return {**settings, "model": model}


# --- the stage table --------------------------------------------------------

# forward.model -> the name of its simulator in forward, looked up at call
# time so that a wrapped simulator runs
SIMULATORS = {"general": "simulate_general", "parallel": "simulate_parallel",
              "piecewise": "simulate_piecewise"}

# stage -> (the plan entries it reads, which its stamp covers; the stages
# whose artifacts it reads), in pipeline order, so a stage's inputs come
# before it
STAGES = {
    "phantom": (("phantoms",), ()),
    "simulate": (("coils", "field", "acq", "simulate"), ("phantom",)),
    "filter": (("coils", "highpass"), ("simulate",)),
    "sysmat": (("coils", "field", "approx", "grid", "acq", "subsampling",
                "highpass"), ()),
    "lsqr": (("coils", "highpass", "grid", "lsqr"), ("filter", "sysmat")),
    "fbp": (("coils", "highpass", "grid", "fbp"), ("filter",)),
    "compare": ((), ("phantom", "lsqr", "fbp")),
}
# plan entries that change no output of the stage that reads them, so they
# enter no stamp and are planned only for a stage that runs
UNSTAMPED = {"simulate": ("forward.workers",),
             "sysmat": ("sysmat.nnz_cap", "sysmat.workers"),
             "compare": ("reference",)}


def _at_least(name: str, value, low):
    if value < low:
        raise ConfigError(f"{name} must be >= {low}, got {value}")
    return value


def _plan_simulate(cfg: RunConfig, plan: dict) -> dict:
    # piecewise uses the plan's own staircase: L1 nodes are placed once
    kind = cfg.text("forward", "model")
    if kind not in SIMULATORS:
        raise ConfigError(f"unknown forward model {kind!r}; need one of "
                          f"{', '.join(SIMULATORS)}")
    args = ((_entry(cfg, plan, "approx"), _entry(cfg, plan, "subsampling"))
            if kind == "piecewise" else (make_params(cfg),))
    return {"model": kind, "args": args,
            "noise_level": _at_least("acquisition.noise_level",
                                     cfg.qty("acquisition", "noise_level"), 0),
            "noise_seed": _at_least("acquisition.noise_seed",
                                    cfg.integer("acquisition", "noise_seed"), 0)}


def _plan_reference(cfg: RunConfig, plan: dict) -> phantom.ConcentrationGrid:
    # an NRMSE divides by the reference's norm; noise-only traces are fine
    # for every other stage
    reference = _entry(cfg, plan, "phantoms")[1]
    if not np.any(reference.flat()):
        raise ConfigError(
            f"phantom.discs = {cfg.text('phantom', 'discs')!r} fills no cell of "
            f"the reconstruction grid: an NRMSE needs particles in the reference")
    return reference


# plan entry -> its builder, given the config and the plan built so far
PLANNERS = {
    "phantoms": lambda cfg, plan: (make_phantom(cfg, "signal"),
                                   make_phantom(cfg, "recon")),
    "reference": _plan_reference,
    "coils": lambda cfg, plan: make_coils(cfg),
    "highpass": lambda cfg, plan: highpass_cutoff(cfg),
    "field": lambda cfg, plan: make_field_model(cfg),
    "acq": lambda cfg, plan: make_acquisition(cfg),
    "grid": lambda cfg, plan: phantom.empty_grid(cfg.qty("phantom", "fov"),
                                                 cfg.qty("grid.recon", "spacing")),
    "subsampling": lambda cfg, plan: _at_least(
        "sysmat.subsampling", cfg.integer("sysmat", "subsampling"), 1),
    "approx": lambda cfg, plan: make_approx(cfg),
    "simulate": _plan_simulate,
    "lsqr": lambda cfg, plan: recon.LsqrOptions(
        max_iterations=cfg.integer("solver", "iterations"),
        atol=cfg.qty("solver", "atol"), btol=cfg.qty("solver", "btol")),
    "fbp": lambda cfg, plan: make_fbp_settings(cfg),
    "forward.workers": lambda cfg, plan: _at_least(
        "forward.workers", cfg.integer("forward", "workers"), 1),
    "sysmat.nnz_cap": lambda cfg, plan: _at_least(
        "sysmat.nnz_cap", cfg.integer("sysmat", "nnz_cap"), 1),
    "sysmat.workers": lambda cfg, plan: _at_least(
        "sysmat.workers", cfg.integer("sysmat", "workers"), 1),
}


def _entry(cfg: RunConfig, plan: dict, name: str):
    if name not in plan:
        plan[name] = PLANNERS[name](cfg, plan)
    return plan[name]


def plan_stages(cfg: RunConfig, stages, given=None) -> dict:
    """Read, check and build every setting the given stages use; no I/O.

    The stamped entries of every stage upstream of them are planned too,
    up to the stages whose stamps are given, so a bad setting anywhere
    upstream stops the run before its first write; a setting no planned
    entry reads is not parsed.  plan["stamps"] maps each of these stages to
    the stamp of what it writes: a digest of its entries and its inputs'
    stamps, or for sysmat each coil's config_hash.  An upstream stage that
    refuses the topology (fbp on an FFP) gets none; compare skips its image.
    """
    stamps = dict(given or {})
    needed = set(stages)
    for stage in reversed(STAGES):
        if stage in needed and stage not in stamps:
            needed.update(STAGES[stage][1])
    plan = {"stamps": stamps}
    for stage in [s for s in STAGES if s in needed and s not in stamps]:
        entries, inputs = STAGES[stage]
        try:
            for entry in entries + (UNSTAMPED.get(stage, ()) if stage in stages else ()):
                _entry(cfg, plan, entry)
        except UnsupportedTopologyError:
            if stage in stages:
                raise
            continue
        stamps[stage] = (_matrix_hashes(plan) if stage == "sysmat" else sysmat.stamp(
            *(plan[e] for e in entries), *(stamps.get(s) for s in inputs)))
    return plan


def _matrix_hashes(plan: dict) -> tuple:
    return tuple(sysmat.config_hash(plan["field"], plan["approx"], plan["grid"],
                                    plan["acq"], coil, plan["subsampling"],
                                    plan["highpass"]) for _, coil in plan["coils"])


class Workspace:
    """Output directory, resolved config and plan of the stages that run in
    it, whether stale inputs are used anyway (force), and the stamps such
    forced inputs carried (found)."""

    def __init__(self, cfg: RunConfig, stages, outdir=None, force: bool = False,
                 given=None):
        self.dir = Path(outdir if outdir is not None
                        else cfg.text("output", "directory"))
        self.resolved = cfg.resolved_text()
        self.echoed = False
        self.force = force
        self.plan = plan_stages(cfg, stages, given)
        self.stamps = self.plan["stamps"]
        self.found = {}

    def path(self, name: str) -> Path:
        return self.dir / name

    def out(self, name: str) -> Path:
        """The path of an output.  The first call writes config.resolved.ini,
        so a run that stops before a stage has passed its input checks and
        written leaves the directory as it was."""
        if not self.echoed:
            self.dir.mkdir(parents=True, exist_ok=True)
            with atomic_open(self.path("config.resolved.ini"), "w") as fh:
                fh.write(self.resolved)
            self.echoed = True
        return self.path(name)

    def check(self, stage: str, paths) -> None:
        """Check the stamps the inputs at paths carry against stage's.

        A difference raises HashMismatchError unless force is set; then
        the stamps are kept in found, so that what this run derives from
        them carries stamp() of them, never the stamp the plan expects.
        """
        want = self.stamps[stage]
        found = tuple(_carried_stamp(p) for p in paths)
        if not isinstance(want, tuple):  # every coil's file carries one stamp
            found = found[0] if len(set(found)) == 1 else found
        if found == want:
            return
        if not self.force:
            raise HashMismatchError(f"{paths[0]} does not carry the {stage} stamp "
                                    f"{want}; run the {stage} stage")
        self.found[stage] = found

    def stamp(self, stage: str):
        """The stamp of what stage writes: the plan's, unless an input that
        force let through carried another; then sysmat.stamp of its plan
        entries and the stamps its inputs actually carry."""
        if stage in self.found:
            return self.found[stage]
        entries, inputs = STAGES[stage]
        carried = [self.stamp(s) for s in inputs]
        if carried == [self.stamps.get(s) for s in inputs]:
            return self.stamps.get(stage)
        return sysmat.stamp(*(self.plan[e] for e in entries), *carried)

    def comments(self, stage: str) -> list:
        return [f"stamp {self.stamp(stage)}"]

    def require(self, name: str) -> Path:
        p = self.path(name)
        if not p.exists():
            raise MissingInputError(
                f"missing input {p}; run the producing stage first")
        return p


def _carried_stamp(path: Path) -> str | None:
    """The stamp the artifact at path carries: the '# stamp' line of a grid
    or CSV, or the stamp field of a trace (.bin) or matrix (.mat) header."""
    with open_input(path) as fh:
        fields = fh.readline().decode("ascii", "replace").split()
    at = {".bin": 4, ".mat": 3}.get(path.suffix)
    if at is None:
        return fields[2] if len(fields) == 3 and fields[:2] == ["#", "stamp"] else None
    return fields[at] if len(fields) > at else None


def _load_traces(ws: Workspace, stage: str | None = None) -> list:
    """Each coil's trace as stage wrote it, checked against stage's stamp;
    by default filter's when the plan sets a cut-off, else simulate's."""
    if stage is None:
        stage = "filter" if ws.plan["highpass"] is not None else "simulate"
    suffix = "_filtered" if stage == "filter" else ""
    paths = [ws.require(f"trace_{axis}{suffix}.bin") for axis, _ in ws.plan["coils"]]
    traces = [forward.load_trace_bin(p, ws.stamps[stage], ws.force) for p in paths]
    ws.check(stage, paths)
    return traces


def _write_csv(ws: Workspace, name: str, stamp: str, header: str, rows):
    """The '# stamp' line, the header, then one line per row; numbers as .17g."""
    with atomic_open(ws.out(name), "w") as fh:
        fh.write(f"# stamp {stamp}\n{header}\n")
        for row in rows:
            fh.write(",".join(v if isinstance(v, str) else f"{v:.17g}"
                              for v in row) + "\n")


def _save_recon(ws: Workspace, stage: str, grid: phantom.ConcentrationGrid):
    name = f"recon_{stage}"
    phantom.save_grid(grid, ws.out(f"{name}.grid"), comments=ws.comments(stage))
    phantom.save_pgm(ws.out(f"{name}.pgm"), grid.values[:, :, 0], vmin=0.0)
    for axis, label in (("horizontal", "h"), ("vertical", "v")):
        prof = phantom.line_profile(grid, axis, 0.0)
        coords = grid.axis_coords(0 if axis == "horizontal" else 1)
        _write_csv(ws, f"profile_{name}_{label}.csv", ws.stamp(stage),
                   "coord,value", zip(coords, prof))


# --- stages -----------------------------------------------------------------

def stage_phantom(ws: Workspace):
    signal, reference = ws.plan["phantoms"]
    phantom.save_grid(signal, ws.out("phantom.grid"), comments=ws.comments("phantom"))
    phantom.save_grid(reference, ws.out("phantom_recon.grid"),
                      comments=ws.comments("phantom"))
    phantom.save_pgm(ws.out("phantom.pgm"), signal.values[:, :, 0],
                     vmin=0.0, vmax=max(signal.values.max(), 1.0))
    print(f"phantom: {signal.dims[0]}x{signal.dims[1]} grid, "
          f"{int(signal.values.sum())} filled cells")


def stage_simulate(ws: Workspace):
    plan, settings = ws.plan, ws.plan["simulate"]
    path = ws.require("phantom.grid")
    ws.check("phantom", [path])
    grid = phantom.load_grid(path)
    kind = settings["model"]
    simulate = getattr(forward, SIMULATORS[kind])
    clean = simulate(plan["field"], grid, [coil for _, coil in plan["coils"]],
                     plan["acq"], *settings["args"], n_workers=plan["forward.workers"])
    for (axis, coil), trace in zip(plan["coils"], clean):
        if settings["noise_level"] > 0:
            trace = forward.add_noise(trace, settings["noise_level"] * trace.rms,
                                      settings["noise_seed"] + coil.index)
        forward.save_trace_bin(trace, ws.out(f"trace_{axis}.bin"),
                               ws.stamp("simulate"))
        forward.save_trace_csv(trace, ws.out(f"trace_{axis}.csv"),
                               comments=ws.comments("simulate"))
        print(f"simulate[{kind}] coil {axis}: {trace.samples.size} samples, "
              f"rms {trace.rms:.6g} V")


def stage_filter(ws: Workspace):
    cutoff = ws.plan["highpass"]
    if cutoff is None:
        print("filter: high-pass disabled, nothing to do")
        return
    traces = _load_traces(ws, "simulate")
    for (axis, _), trace in zip(ws.plan["coils"], traces):
        filtered = forward.apply_highpass(trace, cutoff)
        forward.save_trace_bin(filtered, ws.out(f"trace_{axis}_filtered.bin"),
                               ws.stamp("filter"))
        forward.save_trace_csv(filtered, ws.out(f"trace_{axis}_filtered.csv"),
                               comments=ws.comments("filter"))
    print(f"filter: high-pass at {cutoff:.6g} Hz applied to "
          f"{len(traces)} trace(s)")


def stage_sysmat(ws: Workspace):
    """Build every coil's matrix in one pass, streaming each coil's rows into
    its sysmat_<axis>.mat as they are assembled, so no matrix is ever held
    and scipy.sparse is never imported; stage_lsqr reads the files back."""
    plan = ws.plan
    stored = sysmat.build_system_matrix(
        plan["field"], plan["approx"], [coil for _, coil in plan["coils"]],
        plan["acq"], plan["grid"], plan["subsampling"],
        nnz_cap=plan["sysmat.nnz_cap"], n_workers=plan["sysmat.workers"],
        files=_matrix_files(ws), highpass=plan["highpass"])
    _report_matrices(ws, stored)


def _matrix_files(ws: Workspace):
    """Each coil's sysmat_<axis>.mat and its sysmat stamp.  A generator: the
    build takes the paths, and ws.out writes config.resolved.ini, only once
    the estimated count has passed sysmat.nnz_cap."""
    return ((ws.out(f"sysmat_{axis}.mat"), digest)
            for (axis, _), digest in zip(ws.plan["coils"], ws.stamps["sysmat"]))


def _report_matrices(ws: Workspace, stored: sysmat.StoredMatrix):
    """Print each coil file's shape, nonzero count, size and stamp."""
    rows, cols = stored.shape[0] // len(stored.paths), stored.shape[1]
    for (axis, _), digest, path, nnz in zip(ws.plan["coils"], ws.stamps["sysmat"],
                                            stored.paths, stored.coil_nnz):
        print(f"sysmat coil {axis}: {rows}x{cols}, nnz {nnz}, "
              f"{path.stat().st_size / 1e6:.1f} MB, hash {digest}")


def stage_lsqr(ws: Workspace):
    traces = _load_traces(ws)
    grid, coils = ws.plan["grid"], ws.plan["coils"]
    paths = [ws.require(f"sysmat_{axis}.mat") for axis, _ in coils]
    stacked = sysmat.load_system_matrices(paths, list(ws.stamps["sysmat"]),
                                          force=ws.force)
    ws.check("sysmat", paths)
    rhs = sysmat.stack_coils(stacked, traces)
    if not stacked.grid_meta_matches(grid):
        raise ConfigError(
            f"stored matrices are for a {stacked.grid_dims} grid, spacing "
            f"{stacked.grid_spacing}, origin {stacked.grid_origin}; the recon "
            f"grid is {grid.dims}, spacing {grid.spacing}, origin {grid.origin}")
    result = recon.lsqr_solve(stacked.operator(), rhs, ws.plan["lsqr"])
    image = grid.with_values(result.x.reshape(grid.dims, order="F"))
    _save_recon(ws, "lsqr", image)
    _write_csv(ws, "lsqr_residuals.csv", ws.stamp("lsqr"), "iteration,residual",
               enumerate(result.residuals))
    print(f"lsqr: {result.iterations} iterations, stop {result.stop_reason}, "
          f"final residual {result.residuals[-1]:.6g}")


def stage_fbp(ws: Workspace):
    fs = ws.plan["fbp"]
    traces = _load_traces(ws)
    sino = fbp_mod.signal_to_sinogram(
        traces, [coil for _, coil in ws.plan["coils"]], fs["model"],
        n_bins=fs["n_bins"], cos_guard=fs["cos_guard"])
    if ws.plan["highpass"] is not None:
        # undo the per-projection constant the high-pass leaves
        sino = fbp_mod.subtract_edge_baseline(sino)
    image = fbp_mod.fbp_reconstruct(sino, ws.plan["grid"], window=fs["window"])
    fbp_mod.save_sinogram_csv(sino, ws.out("sinogram.csv"))
    phantom.save_pgm(ws.out("sinogram.pgm"), sino.values.T)
    _save_recon(ws, "fbp", image)
    print(f"fbp: {sino.angles.size} projections x "
          f"{sino.displacements.size} bins")


def stage_compare(ws: Workspace):
    """Score the reconstructions that carry the stamp this plan expects of
    them; skip the rest.

    The reference, phantom_recon.grid, must carry the phantom stage's stamp.
    """
    ref_path = ws.require("phantom_recon.grid")
    names = []
    for stage in ("lsqr", "fbp"):
        p = ws.path(f"recon_{stage}.grid")
        if p.exists() and stage in ws.stamps and _carried_stamp(p) == ws.stamps[stage]:
            names.append(f"recon_{stage}")
        elif p.exists():
            print(f"compare: skipped recon_{stage}, not written by this config's "
                  f"{stage} stage")
    if not names:
        raise MissingInputError("no reconstructions found; run lsqr or fbp first")
    if _carried_stamp(ref_path) != ws.stamps["phantom"]:
        raise MissingInputError(f"{ref_path} was not written by this config's "
                                f"phantom stage; run the phantom stage first")
    reference = phantom.load_grid(ref_path)
    rows = []
    for name in names:
        image = phantom.load_grid(ws.path(f"{name}.grid"))
        plain = recon.nrmse(image, reference)
        scale = recon.optimal_scale(image, reference)
        scaled = recon.nrmse(image.with_values(scale * image.values), reference)
        rows.append((name, plain, scaled))
    _write_csv(ws, "compare.csv", ws.stamp("compare"),
               "reconstruction,nrmse,nrmse_scaled", rows)
    for name, plain, scaled in rows:
        print(f"compare {name}: nrmse {plain:.6g} (scaled {scaled:.6g})")


def _run_stages(ws: Workspace, stages):
    for stage in stages:
        # looked up in the module namespace at call time, so wrapped stages run
        globals()[f"stage_{stage}"](ws)


def run_pipeline(cfg: RunConfig, stages, outdir=None, force: bool = False):
    """Run the requested stages in pipeline order inside one workspace."""
    order = [s for s in STAGES if s in stages]
    unknown = set(stages) - set(STAGES)
    if unknown:
        raise ConfigError(f"unknown stages: {sorted(unknown)}")
    if not order:
        raise ConfigError(f"no stage to run; name one of {', '.join(STAGES)}")
    _run_stages(Workspace(cfg, order, outdir, force), order)


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
    workspace plans sysmat and lsqr on the base workspace's stamps, so a bad
    setting or value, or two values that would share a sub-directory, stops
    the sweep before anything is written.  The voltage data is simulated
    once from the base config with its forward.model, and each value's lsqr
    checks the traces against the base stamps.  The sweep parameters change
    only the staircase, so one assembly pass on the first value's plan
    streams every value's system matrices into its files; each value then
    runs its LSQR reconstruction, and the summary records NRMSE against
    the phantom on the reconstruction grid.
    """
    if not values:
        raise ConfigError("sweep needs at least one value")
    base = ("phantom", "simulate", "filter")
    ws = Workspace(cfg, base, outdir)
    _entry(cfg, ws.plan, "reference")  # the summary scores each value
    subs = {}
    for value in values:
        name = f"{parameter}_{_slug(value)}"
        if name in subs:
            raise ConfigError(f"sweep values {subs[name][0].strip()!r} and "
                              f"{value.strip()!r} would share the directory {name}")
        subs[name] = (value, Workspace(_sweep_variant(cfg, parameter, value),
                                       ("sysmat", "lsqr"), ws.dir / name,
                                       given=ws.stamps))
    _run_stages(ws, base)
    reference = phantom.load_grid(ws.require("phantom_recon.grid"))
    plans = [sub.plan for _, sub in subs.values()]
    shared = plans[0]
    stored = sysmat.build_system_matrices(
        shared["field"], [plan["approx"] for plan in plans],
        [coil for _, coil in shared["coils"]], shared["acq"], shared["grid"],
        shared["subsampling"], nnz_cap=shared["sysmat.nnz_cap"],
        n_workers=shared["sysmat.workers"],
        files=[_matrix_files(sub) for _, sub in subs.values()],
        highpass=shared["highpass"])
    summary = []
    for (value, sub), matrix in zip(subs.values(), stored):
        for axis, _ in shared["coils"]:
            for suffix in ("", "_filtered"):
                src = ws.path(f"trace_{axis}{suffix}.bin")
                if src.exists():
                    with atomic_open(sub.out(f"trace_{axis}{suffix}.bin")) as fh:
                        fh.write(src.read_bytes())
        _report_matrices(sub, matrix)
        stage_lsqr(sub)
        value_nrmse = recon.nrmse(phantom.load_grid(sub.path("recon_lsqr.grid")),
                                  reference)
        summary.append((value, value_nrmse))
        print(f"sweep {parameter}={value.strip()}: nrmse {value_nrmse:.6g}")
    # like compare's: a digest of the reference's and the reconstructions' stamps
    stamp = sysmat.stamp(ws.stamps["phantom"],
                         *(sub.stamps["lsqr"] for _, sub in subs.values()))
    _write_csv(ws, f"sweep_{parameter}.csv", stamp, f"{parameter},nrmse",
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
                   help="use stored traces and matrices even if their stamp differs")
    p = sub.add_parser("run", parents=[common],
                       help="run the full pipeline (all stages in order)")
    p.add_argument("--stages", default=",".join(STAGES),
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

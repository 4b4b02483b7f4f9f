"""Checks on the artifacts one benchmark run leaves in its output directory."""

from __future__ import annotations

import csv
import math
from pathlib import Path

# Acceptance criterion 10 pins the scaled 20-iteration LSQR NRMSE of the
# default desk run (seed 1) to this value, within PIN_TOLERANCE.
PIN_NRMSE_LSQR = 0.2908
PIN_TOLERANCE = 0.02
DEFAULT_SEED = 1
# A run's NRMSE must be within this share of the reference recorded for its
# seed, or of the default seed's reference when its seed has none.  The seed
# changes only the measurement noise, which moves NRMSE by well under 1%.
REFERENCE_TOLERANCE = 0.02
OTHER_SEED_TOLERANCE = 0.05

ARTIFACTS = {
    "desk_run": ("config.resolved.ini", "phantom.grid", "phantom_recon.grid",
                 "trace_x_filtered.bin", "trace_y_filtered.bin",
                 "sysmat_x.mat", "sysmat_y.mat", "recon_lsqr.grid",
                 "lsqr_residuals.csv", "sinogram.csv", "recon_fbp.grid",
                 "compare.csv"),
    "l1_sweep": ("config.resolved.ini", "phantom_recon.grid",
                 "trace_x_filtered.bin", "sweep_threshold_b.csv",
                 "threshold_b_4_mT/sysmat_x.mat",
                 "threshold_b_4_mT/lsqr_residuals.csv",
                 "threshold_b_10_mT/sysmat_x.mat",
                 "threshold_b_10_mT/lsqr_residuals.csv"),
    "simulate_fbp": ("config.resolved.ini", "phantom_recon.grid",
                     "trace_x_filtered.bin", "trace_y_filtered.bin",
                     "sinogram.csv", "recon_fbp.grid", "compare.csv"),
}


class CheckError(Exception):
    """An artifact is missing, malformed or wrong."""


def _rows(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def _number(text) -> float:
    try:
        return float(text)
    except (TypeError, ValueError):
        raise CheckError(f"not a number: {text!r}") from None


def read_compare(path: Path) -> dict:
    """Scaled NRMSE per reconstruction name from compare.csv."""
    try:
        return {r["reconstruction"]: _number(r["nrmse_scaled"]) for r in _rows(path)}
    except KeyError as exc:
        raise CheckError(f"{path.name}: missing column {exc}") from None


def read_sweep_worst(path: Path) -> float:
    try:
        values = [_number(r["nrmse"]) for r in _rows(path)]
    except KeyError as exc:
        raise CheckError(f"{path.name}: missing column {exc}") from None
    if not values:
        raise CheckError(f"{path.name}: no sweep rows")
    if not all(math.isfinite(v) for v in values):
        raise CheckError(f"{path.name}: non-finite NRMSE")
    return max(values)


def check_residuals(path: Path):
    """LSQR's residual history must never rise."""
    try:
        residuals = [_number(r["residual"]) for r in _rows(path)]
    except KeyError as exc:
        raise CheckError(f"{path}: missing column {exc}") from None
    if not residuals:
        raise CheckError(f"{path}: empty residual history")
    for i in range(1, len(residuals)):
        if not residuals[i] <= residuals[i - 1]:
            raise CheckError(f"{path}: residual rises at iteration {i} "
                             f"({residuals[i - 1]:.17g} -> {residuals[i]:.17g})")


def quality(workload: str, outdir: Path) -> dict:
    """nrmse_lsqr and nrmse_fbp of one run (None where the workload has none)."""
    if workload == "l1_sweep":
        return {"nrmse_lsqr": read_sweep_worst(outdir / "sweep_threshold_b.csv"),
                "nrmse_fbp": None}
    rows = read_compare(outdir / "compare.csv")
    want = ("recon_lsqr", "recon_fbp") if workload == "desk_run" else ("recon_fbp",)
    for name in want:
        if name not in rows:
            raise CheckError(f"compare.csv: no {name} row")
    return {"nrmse_lsqr": rows.get("recon_lsqr"), "nrmse_fbp": rows["recon_fbp"]}


def reference_for(references: dict, workload: str, seed: int) -> tuple:
    """(NRMSE reference, its tolerance, exact counts) for a workload and seed.

    references is the "references" table of baseline.json, keyed by seed.
    The counts are empty for a seed without a record of its own.
    """
    own = references.get(str(seed), {}).get(workload)
    if own is not None:
        return own["nrmse"], REFERENCE_TOLERANCE, own["counts"]
    return (references[str(DEFAULT_SEED)][workload]["nrmse"],
            OTHER_SEED_TOLERANCE, {})


def check_run(workload: str, seed: int, outdir: Path, exit_code: int,
              reference: dict, tolerance: float) -> dict:
    """Raise CheckError unless the run's outputs are complete and right.

    reference maps nrmse_lsqr/nrmse_fbp to reference values (None where the
    workload has no such reconstruction); each must be met within tolerance,
    a share of the reference.  Returns the run's quality figures.
    """
    if exit_code != 0:
        raise CheckError(f"exit code {exit_code}")
    missing = [a for a in ARTIFACTS[workload] if not (outdir / a).is_file()]
    if missing:
        raise CheckError(f"missing artifacts: {', '.join(missing)}")
    figures = quality(workload, outdir)
    for key, value in figures.items():
        if value is None:
            continue
        if not math.isfinite(value):
            raise CheckError(f"{key} is not finite: {value}")
        if not abs(value - reference[key]) <= tolerance * reference[key]:
            raise CheckError(f"{key} = {value:.6g}, reference {reference[key]:.6g} "
                             f"+- {tolerance:.0%}")
    if workload == "desk_run" and seed == DEFAULT_SEED:
        value = figures["nrmse_lsqr"]
        if abs(value - PIN_NRMSE_LSQR) > PIN_TOLERANCE * PIN_NRMSE_LSQR:
            raise CheckError(f"nrmse_lsqr = {value:.6g} misses criterion 10's "
                             f"{PIN_NRMSE_LSQR} +- {PIN_TOLERANCE:.0%}")
    for residuals in sorted(outdir.rglob("lsqr_residuals.csv")):
        check_residuals(residuals)
    return figures


def bytes_written(outdir: Path) -> int:
    return sum(p.stat().st_size for p in outdir.rglob("*") if p.is_file())

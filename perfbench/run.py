#!/usr/bin/env python3
"""Desk-scale benchmark of the mpisim command line.

    python3 perfbench/run.py --workload desk_run --seed 1 --seconds 10 --trace 0

Run from the root of an mpisim source tree.  Each run is a fresh child
process that calls ``mpisim.cli.main``; runs follow one another (a closed
loop with one client) until --seconds have passed, and every run's outputs
are checked.  With --trace 0 the result holds the end-to-end metrics of
untraced runs.  With --trace 1 untraced and traced runs alternate and the
result holds the per-layer metrics of the traced runs, including the
tracing overhead (traced minus untraced wall time).  The metric names and
units come from BENCHMARK.json; the last line of output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import verify  # noqa: E402

# Why each workload is here: BENCHMARK.json.  All three use the default
# desk scene.  The seed becomes the acquisition noise seed.  The perturbed
# field keeps its default seed: that seed picks a different scanner, and over
# seeds 2-6 it moved l1_sweep's NRMSE between 0.34 and 0.83.
WORKLOADS = {
    "desk_run": (["run"], []),
    "l1_sweep": (["sweep", "--parameter", "threshold_b", "--values", "4 mT,10 mT"],
                 ["field.perturb_magnitude=0.35", "magnetization.nodes=l1",
                  "magnetization.n_intervals=8", "coils.axes=x"]),
    "simulate_fbp": (["run", "--stages", "phantom,simulate,filter,fbp,compare"],
                     ["field.perturb_magnitude=0.35"]),
}
# Set-up is short and noisy, so each --trace 0 invocation also starts this
# many processes that only resolve the config, and reports the median.
SETUP_PROBES = 9
# No child may outlive this many seconds after the benchmark starts, and no
# further run starts when the last one would not finish before it.
DEADLINE_S = 165.0
BLAS_THREADS = 1
WORK_DIR = ".perfbench_work"


def mpisim_argv(workload: str, seed: int, outdir: Path, workers: int) -> list:
    command, settings = WORKLOADS[workload]
    settings = [*settings, f"forward.workers={workers}", f"sysmat.workers={workers}",
                f"acquisition.noise_seed={seed}"]
    argv = [*command, "-o", str(outdir)]
    for item in settings:
        argv += ["--set", item]
    return argv


def environment(workers: int) -> dict:
    return {"nproc": len(os.sched_getaffinity(0)), "workers": workers,
            "blas_threads": BLAS_THREADS,
            "python": sys.version.split()[0],
            "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy")}


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


class Bench:
    """One invocation: launches the children and keeps what they measured."""

    def __init__(self, root: Path, workload: str, seed: int, reference: tuple):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.nrmse_reference, self.tolerance, self.recorded_counts = reference
        self.workers = len(os.sched_getaffinity(0))
        self.env = child_env(root)
        self.work = root / WORK_DIR
        self.begin = time.monotonic()
        self.runs = []

    def launch(self, mode: str) -> dict:
        """Start one child, wait for it and check its outputs."""
        rundir = self.work / f"{len(self.runs):03d}-{mode}"
        outdir = rundir / "out"
        rundir.mkdir(parents=True)
        result_path = rundir / "result.json"
        cmd = [sys.executable, str(HERE / "child.py"), str(result_path), mode, "--",
               *mpisim_argv(self.workload, self.seed, outdir, self.workers)]
        limit = max(1.0, DEADLINE_S - (time.monotonic() - self.begin))
        with open(rundir / "stdout.log", "wb") as log:
            start = time.monotonic()
            proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    env=self.env, cwd=self.root)
            timer = threading.Timer(limit, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.monotonic() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        run = {"mode": mode, "wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
               "peak_rss_mb": usage.ru_maxrss / 1024.0, "error": None}
        try:
            result = json.loads(result_path.read_text())
            run["setup_s"] = result["config_resolved"] - start
        except (OSError, ValueError, KeyError):
            result = {}
        try:
            if mode == "setup":
                if proc.returncode != 0 or "setup_s" not in run:
                    raise verify.CheckError(f"set-up exit code {proc.returncode}")
            else:
                run.update(verify.check_run(self.workload, self.seed, outdir,
                                            proc.returncode, self.nrmse_reference,
                                            self.tolerance))
                run["bytes_written"] = verify.bytes_written(outdir)
                if mode == "trace":
                    if "spans" not in result:
                        raise verify.CheckError("the traced run wrote no spans")
                    spans = [tracer.Span(*s) for s in result["spans"]]
                    run["layers"] = tracer.layer_metrics(spans, result["counts"])
        except verify.CheckError as exc:
            run["error"] = str(exc)
            tail = (rundir / "stdout.log").read_text(errors="replace")[-2000:]
            print(f"run {len(self.runs)} ({mode}) failed: {exc}\n{tail}",
                  file=sys.stderr)
        shutil.rmtree(rundir)
        self.runs.append(run)
        print(f"run {len(self.runs)} {mode}: " + ", ".join(
            f"{k} {v:.6g}" if isinstance(v, float) else f"{k} {v}"
            for k, v in run.items() if k not in ("mode", "layers")))
        return run

    def loop(self, seconds: float, trace: bool):
        """Untraced (and with trace, traced) runs until seconds have passed."""
        start = time.monotonic()
        rounds = 0
        while True:
            self.launch("run")
            if trace:
                self.launch("trace")
            rounds += 1
            now = time.monotonic()
            per_round = (now - start) / rounds
            if now - start >= seconds or now + per_round > self.begin + DEADLINE_S:
                break

    def check_exact_counts(self):
        """Counts that must repeat exactly, compared across this invocation's
        runs (a mismatch fails the run) and with the recorded reference (a
        mismatch is reported)."""
        first = {}
        for run in self.runs:
            if run["mode"] == "setup" or run["error"]:
                continue
            counts = {"bytes_written": run["bytes_written"]}
            if run["mode"] == "trace":
                counts.update({k: run["layers"][k] for k in EXACT_LAYER_COUNTS})
            for key, value in counts.items():
                if first.setdefault(key, value) != value:
                    run["error"] = f"{key} = {value}, an earlier run had {first[key]}"
                    print(f"mismatch: {run['error']}", file=sys.stderr)
        for key, value in first.items():
            recorded = self.recorded_counts.get(key)
            if recorded is not None and recorded != value:
                print(f"note: {key} = {value}, recorded reference {recorded}")


EXACT_LAYER_COUNTS = ("sysmat.nnz", "sysmat.nnz_filtered",
                      "recon.lsqr_solve.iterations",
                      "magnetization.nodes_l1_optimal.calls")


def median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def end_to_end(runs) -> dict:
    ok = [r for r in runs if r["mode"] == "run" and not r["error"]]
    setups = [r.get("setup_s") for r in runs if r["mode"] in ("setup", "run")
              and not r["error"]]
    bytes_mb = [r["bytes_written"] / 1e6 for r in ok]
    figures = {
        "wall_s": median(r["wall_s"] for r in ok),
        "setup_s": median(setups),
        "cpu_s": median(r["cpu_s"] for r in ok),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in ok),
        "bytes_written_mb": median(bytes_mb),
        "nrmse_lsqr": median(r["nrmse_lsqr"] for r in ok),
        "nrmse_fbp": median(r["nrmse_fbp"] for r in ok),
    }
    # The reported nrmse is the workload's own reconstruction: LSQR where
    # the workload runs it, FBP otherwise.
    figures["nrmse"] = figures["nrmse_lsqr"] if figures["nrmse_lsqr"] is not None \
        else figures["nrmse_fbp"]
    return figures


def per_layer(runs) -> dict:
    traced = [r for r in runs if r["mode"] == "trace" and not r["error"]]
    plain = [r for r in runs if r["mode"] == "run" and not r["error"]]
    figures = {}
    if traced:
        for key in traced[0]["layers"]:
            figures[key] = median(r["layers"][key] for r in traced)
    if traced and plain:
        figures["trace.overhead_s"] = (median(r["wall_s"] for r in traced)
                                       - median(r["wall_s"] for r in plain))
    return figures


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "mpisim" / "cli.py").is_file():
        print(f"error: no mpisim source tree (src/mpisim) under {root}",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    references = json.loads((HERE / "baseline.json").read_text())["references"]
    reference = verify.reference_for(references, args.workload, args.seed)

    bench = Bench(root, args.workload, args.seed, reference)
    shutil.rmtree(bench.work, ignore_errors=True)
    print(f"perfbench {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print("env " + json.dumps(environment(bench.workers)))
    try:
        if not args.trace:
            for _ in range(SETUP_PROBES):
                bench.launch("setup")
        bench.loop(args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    bench.check_exact_counts()

    runs = bench.runs
    failed = sum(1 for r in runs if r["error"])
    if args.trace:
        wanted, figures = spec["per_layer"], per_layer(runs)
    else:
        wanted, figures = spec["end_to_end"], end_to_end(runs)
        for key in ("nrmse_lsqr", "nrmse_fbp"):
            value = figures[key]
            print(f"{key} = {'n/a' if value is None else f'{value:.6g}'}")
        print(f"failed_ratio = {failed / len(runs):g} ({failed} of {len(runs)} runs)")
    print("medians over " + ", ".join(
        f"{sum(1 for r in runs if r['mode'] == mode and not r['error'])} {mode}"
        for mode in ("setup", "run", "trace")) + " runs")
    metrics = {}
    for m in wanted:
        value = figures.get(m["name"])
        print(f"{m['name']} = {'n/a' if value is None else f'{value:.6g}'} {m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    correct = failed == 0 and all(v["value"] is not None for v in metrics.values())
    print(json.dumps({"correct": correct, "attempted": len(runs), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Spans around mpisim's public functions, and the arithmetic on them.

The wrappers are installed from outside the package by patching module and
class attributes, so the program under test is unchanged.  Each call records
one span (id, name, start, end, thread, parent); the parent is the innermost
open span on the same thread, so work a thread pool runs has no parent.
Spans and counts stay in memory until the traced process writes them out.
"""

from __future__ import annotations

import collections
import functools
import itertools
import os
import threading
import time

import numpy as np

Span = collections.namedtuple("Span", "id name start end thread parent")

STAGES = ("phantom", "simulate", "filter", "sysmat", "lsqr", "fbp", "compare")


class Tracer:
    """Records spans and counts from every thread of one process."""

    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def add(self, counter: str, amount):
        with self._lock:
            self.counts[counter] += amount

    def wrap(self, name: str, fn, count=None):
        """fn with a span per call; count(tracer, args, result) runs after it."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(Span(span_id, name, start, end,
                                         threading.get_ident(), parent))
            if count is not None:
                count(tracer, args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, count=None):
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), count))


# --- counts taken from arguments and return values --------------------------

def _count_point_times(tracer, args, result):
    evaluator, times = args[0], args[1]
    tracer.add("fields.point_times",
               evaluator.points.shape[0] * np.atleast_1d(times).size)


def _count_values(tracer, args, result):
    tracer.add("magnetization.MagnetizationApprox.eval.values", np.size(args[1]))


def _count_matrix(tracer, args, result):
    rows, cols = result.shape
    tracer.add("sysmat.nnz", result.nnz)
    tracer.add("sysmat.entries", rows * cols)


def _count_filtered(tracer, args, result):
    tracer.add("sysmat.nnz_filtered", result.nnz)


def _count_saved_bytes(tracer, args, result):
    tracer.add("sysmat.save_system_matrix.bytes", os.path.getsize(args[1]))


def _count_iterations(tracer, args, result):
    tracer.add("recon.lsqr_solve.iterations", result.iterations)


def install(tracer: Tracer):
    """Wrap the layer boundaries of an imported mpisim in tracer's spans."""
    from mpisim import cli, fbp, fields, forward, magnetization, phantom, recon, sysmat

    for attr in ("field", "field_dt"):
        tracer.patch(fields.FieldEvaluator, attr,
                     f"fields.FieldEvaluator.{attr}", _count_point_times)
    tracer.patch(magnetization, "nodes_l1_optimal",
                 "magnetization.nodes_l1_optimal")
    tracer.patch(magnetization.MagnetizationApprox, "eval",
                 "magnetization.MagnetizationApprox.eval", _count_values)
    tracer.patch(forward, "simulate_general", "forward.simulate_general")
    tracer.patch(forward, "save_trace_csv", "forward.save_trace_csv")
    tracer.patch(sysmat, "build_system_matrix", "sysmat.build_system_matrix",
                 _count_matrix)
    tracer.patch(sysmat, "apply_highpass_rows", "sysmat.apply_highpass_rows",
                 _count_filtered)
    tracer.patch(sysmat, "save_system_matrix", "sysmat.save_system_matrix",
                 _count_saved_bytes)
    for attr in ("load_system_matrix", "stack_coils"):
        tracer.patch(sysmat, attr, f"sysmat.{attr}")
    tracer.patch(recon, "lsqr_solve", "recon.lsqr_solve", _count_iterations)
    for attr in ("signal_to_sinogram", "fbp_reconstruct"):
        tracer.patch(fbp, attr, f"fbp.{attr}")
    tracer.patch(phantom, "save_grid", "phantom.save_grid")
    # run_pipeline and run_sweep look the stages up in the module namespace.
    for stage in STAGES:
        tracer.patch(cli, f"stage_{stage}", f"cli.stage_{stage}")


# --- span arithmetic ----------------------------------------------------------

def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cover_start = cover_end = None
    for start, end in sorted(intervals):
        if cover_end is None or start > cover_end:
            if cover_end is not None:
                total += cover_end - cover_start
            cover_start, cover_end = start, end
        else:
            cover_end = max(cover_end, end)
    if cover_end is not None:
        total += cover_end - cover_start
    return total


def busy_time(spans, name: str) -> float:
    """Thread-seconds inside spans called name.

    Per thread, the union of the spans' intervals, so a call nested in a
    call of the same name counts once; summed over threads, so two workers
    busy at the same moment count twice.
    """
    by_thread = collections.defaultdict(list)
    for s in spans:
        if s.name == name:
            by_thread[s.thread].append((s.start, s.end))
    return sum(union_length(iv) for iv in by_thread.values())


def self_time(spans, name: str) -> float:
    """Time in spans called name not covered by their children.

    Only children on the span's own thread are subtracted: while a pool's
    workers run, the thread that waits for them is still in its own span.
    """
    children = collections.defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    total = 0.0
    for s in spans:
        if s.name != name:
            continue
        covered = union_length(
            (max(c.start, s.start), min(c.end, s.end))
            for c in children[s.id]
            if c.thread == s.thread and c.end > s.start and c.start < s.end)
        total += (s.end - s.start) - covered
    return total


def calls(spans, name: str) -> int:
    return sum(1 for s in spans if s.name == name)


def layer_metrics(spans, counts) -> dict:
    """Every per-layer metric of one traced run, by name."""
    counts = collections.Counter(counts)
    out = {}

    def timed(name, *kinds):
        for kind in kinds:
            fn = busy_time if kind == "busy_s" else self_time
            out[f"{name}.{kind}"] = fn(spans, name)

    timed("fields.FieldEvaluator.field", "busy_s")
    timed("fields.FieldEvaluator.field_dt", "busy_s")
    out["fields.point_times"] = counts["fields.point_times"]
    out["magnetization.nodes_l1_optimal.calls"] = calls(
        spans, "magnetization.nodes_l1_optimal")
    timed("magnetization.nodes_l1_optimal", "busy_s")
    timed("magnetization.MagnetizationApprox.eval", "self_s")
    out["magnetization.MagnetizationApprox.eval.values"] = counts[
        "magnetization.MagnetizationApprox.eval.values"]
    timed("forward.simulate_general", "busy_s", "self_s")
    timed("sysmat.build_system_matrix", "busy_s", "self_s")
    out["sysmat.nnz"] = counts["sysmat.nnz"]
    entries = counts["sysmat.entries"]
    out["sysmat.density"] = counts["sysmat.nnz"] / entries if entries else 0.0
    timed("sysmat.apply_highpass_rows", "busy_s")
    out["sysmat.nnz_filtered"] = counts["sysmat.nnz_filtered"]
    timed("sysmat.save_system_matrix", "busy_s")
    out["sysmat.save_system_matrix.bytes"] = counts["sysmat.save_system_matrix.bytes"]
    timed("sysmat.load_system_matrix", "busy_s")
    timed("sysmat.stack_coils", "busy_s")
    timed("recon.lsqr_solve", "busy_s")
    iterations = counts["recon.lsqr_solve.iterations"]
    out["recon.lsqr_solve.iterations"] = iterations
    out["recon.lsqr_solve.per_iter_s"] = (
        out["recon.lsqr_solve.busy_s"] / iterations if iterations else 0.0)
    timed("fbp.signal_to_sinogram", "busy_s")
    timed("fbp.fbp_reconstruct", "busy_s")
    for stage in STAGES:
        timed(f"cli.stage_{stage}", "busy_s", "self_s")
    timed("forward.save_trace_csv", "busy_s")
    timed("phantom.save_grid", "busy_s")
    return out

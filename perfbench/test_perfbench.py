"""Tests of the benchmark's span arithmetic and output checks.

Run with: python -m pytest perfbench
"""

import json
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import tracer
import verify
from tracer import Span

HERE = Path(__file__).resolve().parent


def test_union_length_merges_overlaps_and_gaps():
    assert tracer.union_length([]) == 0.0
    assert tracer.union_length([(0, 2), (1, 3), (5, 6), (5.5, 5.75)]) == 4.0


def test_self_time_of_nested_spans():
    spans = [
        Span(1, "stage", 0.0, 10.0, 1, None),
        Span(2, "build", 1.0, 4.0, 1, 1),
        Span(3, "field", 2.0, 3.0, 1, 2),
        Span(4, "save", 3.5, 6.0, 1, 1),
        Span(5, "stage", 11.0, 12.0, 1, None),
    ]
    # stage: 10 - |[1, 6]| + 1; build: 3 - 1; a leaf keeps its whole length.
    assert tracer.self_time(spans, "stage") == pytest.approx(6.0)
    assert tracer.self_time(spans, "build") == pytest.approx(2.0)
    assert tracer.self_time(spans, "field") == pytest.approx(1.0)
    assert tracer.busy_time(spans, "stage") == pytest.approx(11.0)
    assert tracer.calls(spans, "stage") == 2


def test_spans_overlapping_on_two_threads():
    spans = [
        Span(1, "build", 0.0, 10.0, 100, None),
        # Two pool workers, busy at the same time, each with a child.
        Span(2, "block", 1.0, 6.0, 200, None),
        Span(3, "field", 2.0, 4.0, 200, 2),
        Span(4, "block", 2.0, 7.0, 300, None),
        Span(5, "field", 3.0, 5.0, 300, 4),
        # A child recorded on another thread does not cut build's self time.
        Span(6, "field", 1.0, 9.0, 300, 1),
        # A call nested in a call of the same name counts once as busy time.
        Span(7, "block", 7.5, 9.5, 200, None),
        Span(8, "block", 8.0, 9.0, 200, 7),
    ]
    assert tracer.self_time(spans, "build") == pytest.approx(10.0)
    assert tracer.busy_time(spans, "block") == pytest.approx(5.0 + 2.0 + 5.0)
    assert tracer.self_time(spans, "block") == pytest.approx(3.0 + 1.0 + 1.0 + 3.0)
    assert tracer.busy_time(spans, "field") == pytest.approx(2.0 + 8.0)


def test_tracer_parents_stay_on_their_thread():
    t = tracer.Tracer()
    leaf = t.wrap("leaf", lambda x: x)

    def count(tr, args, result):
        tr.add("items", 1)

    outer = t.wrap("outer", lambda x: leaf(x) + leaf(x), count)
    with ThreadPoolExecutor(max_workers=2) as pool:
        assert list(pool.map(outer, range(50))) == [2 * x for x in range(50)]
    by_id = {s.id: s for s in t.spans}
    assert t.counts["items"] == 50
    assert tracer.calls(t.spans, "leaf") == 100
    for s in t.spans:
        if s.name == "outer":
            assert s.parent is None
        else:
            parent = by_id[s.parent]
            assert parent.name == "outer" and parent.thread == s.thread
            assert parent.start <= s.start <= s.end <= parent.end


def test_layer_metrics_cover_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer"]}
    metrics = tracer.layer_metrics([], {})
    assert names == set(metrics) | {"trace.overhead_s"}
    assert metrics["sysmat.density"] == 0.0
    assert metrics["recon.lsqr_solve.per_iter_s"] == 0.0


# --- output checks on doctored artifacts ---------------------------------------

REFERENCE = {"nrmse_lsqr": 0.2907969985541687, "nrmse_fbp": 0.3636304709471269}


def _write_compare(outdir, lsqr=REFERENCE["nrmse_lsqr"], fbp=REFERENCE["nrmse_fbp"]):
    lines = ["# config 0123456789abcdef", "reconstruction,nrmse,nrmse_scaled"]
    if lsqr is not None:
        lines.append(f"recon_lsqr,0.3,{lsqr}")
    if fbp is not None:
        lines.append(f"recon_fbp,0.4,{fbp}")
    (outdir / "compare.csv").write_text("\n".join(lines) + "\n")


def _write_residuals(path, residuals):
    rows = [f"{i},{r!r}" for i, r in enumerate(residuals)]
    path.write_text("# config 0123456789abcdef\niteration,residual\n"
                    + "\n".join(rows) + "\n")


@pytest.fixture
def desk_out(tmp_path):
    for name in verify.ARTIFACTS["desk_run"]:
        (tmp_path / name).write_text("")
    _write_compare(tmp_path)
    _write_residuals(tmp_path / "lsqr_residuals.csv", [1.0, 0.5, 0.25, 0.25])
    return tmp_path


def test_check_accepts_reference_outputs(desk_out):
    figures = verify.check_run("desk_run", 1, desk_out, 0, REFERENCE, 0.02)
    assert figures == REFERENCE


@pytest.mark.parametrize("lsqr, fbp", [
    (0.30, REFERENCE["nrmse_fbp"]),     # LSQR moved 3% off its reference
    (REFERENCE["nrmse_lsqr"], 0.20),    # FBP improved far beyond the tolerance
    ("nan", REFERENCE["nrmse_fbp"]),    # not finite
    ("0.29x", REFERENCE["nrmse_fbp"]),  # not a number
    (None, REFERENCE["nrmse_fbp"]),     # the LSQR row is gone
])
def test_check_rejects_tampered_compare_csv(desk_out, lsqr, fbp):
    _write_compare(desk_out, lsqr, fbp)
    with pytest.raises(verify.CheckError):
        verify.check_run("desk_run", 1, desk_out, 0, REFERENCE, 0.02)


def test_check_holds_the_criterion_10_pin_on_the_default_seed(desk_out):
    _write_compare(desk_out, lsqr=0.31)
    verify.check_run("desk_run", 7, desk_out, 0, REFERENCE, 0.1)
    with pytest.raises(verify.CheckError, match="criterion 10"):
        verify.check_run("desk_run", 1, desk_out, 0, REFERENCE, 0.1)


def test_reference_falls_back_to_the_default_seed():
    own = {"nrmse": REFERENCE, "counts": {"sysmat.nnz": 5}}
    other = {"nrmse": {"nrmse_lsqr": 0.3, "nrmse_fbp": 0.4}, "counts": {}}
    references = {"1": {"desk_run": own}, "7": {"desk_run": other}}
    assert verify.reference_for(references, "desk_run", 1) == (
        REFERENCE, verify.REFERENCE_TOLERANCE, {"sysmat.nnz": 5})
    assert verify.reference_for(references, "desk_run", 7)[0] == other["nrmse"]
    assert verify.reference_for(references, "desk_run", 12) == (
        REFERENCE, verify.OTHER_SEED_TOLERANCE, {})


def test_check_rejects_rising_residuals(desk_out):
    _write_residuals(desk_out / "lsqr_residuals.csv", [1.0, 0.5, 0.50000001, 0.2])
    with pytest.raises(verify.CheckError, match="rises at iteration 2"):
        verify.check_run("desk_run", 1, desk_out, 0, REFERENCE, 0.02)


def test_check_rejects_rising_residuals_in_a_sweep(tmp_path):
    for name in verify.ARTIFACTS["l1_sweep"]:
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text("")
    (tmp_path / "sweep_threshold_b.csv").write_text(
        "# config 0123456789abcdef\nthreshold_b,nrmse\n4 mT,0.55\n10 mT,0.5\n")
    for value in ("4_mT", "10_mT"):
        _write_residuals(tmp_path / f"threshold_b_{value}" / "lsqr_residuals.csv",
                         [1.0, 0.5])
    reference = {"nrmse_lsqr": 0.55, "nrmse_fbp": None}
    assert verify.check_run("l1_sweep", 3, tmp_path, 0, reference, 0.05) == reference
    _write_residuals(tmp_path / "threshold_b_10_mT" / "lsqr_residuals.csv",
                     [1.0, 0.5, 0.6])
    with pytest.raises(verify.CheckError, match="rises"):
        verify.check_run("l1_sweep", 3, tmp_path, 0, reference, 0.05)


def test_check_rejects_missing_artifact_and_bad_exit(desk_out):
    with pytest.raises(verify.CheckError, match="exit code 3"):
        verify.check_run("desk_run", 1, desk_out, 3, REFERENCE, 0.02)
    (desk_out / "sysmat_y.mat").unlink()
    with pytest.raises(verify.CheckError, match="sysmat_y.mat"):
        verify.check_run("desk_run", 1, desk_out, 0, REFERENCE, 0.02)

"""The traced run: per-layer metrics from spans around each public layer function.

A traced run installs the tracer, then runs the same pass as the
untraced run; its work depends on the seed and `--seconds` alone, so
two traced runs of one seed give the same counts. Its end-to-end figures,
measured with the wrappers in place, go to the run record; minus those of
the untraced run they give the tracing overhead.
"""

from __future__ import annotations

import time

from perfbench import workloads
from perfbench.tracer import Tracer


def per_layer(s: dict) -> dict:
    """Per-layer metrics from `Tracer.summary()`."""

    def ratio(num, den):
        return num / den if den else 0.0

    iou = s["geometry.iou3d"]
    cost = s["association.build_cost_matrix"]
    hungarian = s["association.hungarian_solve"]
    backward = s["autodiff.Tape.backward"]
    step = s["pipeline.CoopTracker.step"]
    out = {
        "geometry.iou3d.calls": iou["calls"],
        "geometry.iou3d.busy_s": iou["busy_s"],
        "geometry.iou3d.nonzero_ratio": ratio(iou["nonzero"], iou["calls"]),
        "association.build_cost_matrix.calls": cost["calls"],
        "association.build_cost_matrix.busy_s": cost["busy_s"],
        "association.build_cost_matrix.self_s": cost["self_s"],
        "association.build_cost_matrix.pairs": cost["pairs"],
        "association.prescreen_pass_ratio": ratio(iou["calls"], cost["pairs"]),
        "association.hungarian_solve.calls": hungarian["calls"],
        "association.hungarian_solve.busy_s": hungarian["busy_s"],
        "association.hungarian_solve.dim_max": hungarian["dim_max"],
        "association.associate.busy_s": s["association.associate"]["busy_s"],
        "filter.update.calls": s["filter.update"]["calls"],
        "filter.update.busy_s": s["filter.update"]["busy_s"],
        "filter.predict.calls": s["filter.predict"]["calls"],
        "filter.predict.busy_s": s["filter.predict"]["busy_s"],
        "features.encode_detection.calls": s["features.encode_detection"]["calls"],
        "features.encode_detection.busy_s": s["features.encode_detection"]["busy_s"],
        "covnet.forward.calls": s["covnet.forward"]["calls"],
        "covnet.forward.busy_s": s["covnet.forward"]["busy_s"],
        "covnet.forward.rows": s["covnet.forward"]["rows"],
        "autodiff.Tape.backward.calls": backward["calls"],
        "autodiff.Tape.backward.busy_s": backward["busy_s"],
        "autodiff.tape_nodes": ratio(backward["tape_nodes"], backward["calls"]),
        "training.window_loss.busy_s": s["training.window_loss"]["busy_s"],
        "training.clip_gradients.busy_s": s["training.clip_gradients"]["busy_s"],
        "training.adam_step.busy_s": s["training.adam_step"]["busy_s"],
        "training.optimizer_steps": s["training.adam_step"]["calls"],
        "training.windows_skipped": s["training.window_loss"]["skipped"],
        "training.clip_fired": s["training.clip_gradients"]["fired"],
        "pipeline.CoopTracker.step.calls": step["calls"],
        "pipeline.CoopTracker.step.busy_s": step["busy_s"],
        "pipeline.CoopTracker.step.self_s": step["self_s"],
        "pipeline.detections": step["detections"],
        "pipeline.tracks_live": ratio(step["tracks_live"], step["calls"]),
        "metrics.evaluate.busy_s": s["metrics.evaluate"]["busy_s"],
        "metrics.evaluate.self_s": s["metrics.evaluate"]["self_s"],
        "metrics.match_frame.calls": s["metrics.match_frame"]["calls"],
        "metrics.match_frame.busy_s": s["metrics.match_frame"]["busy_s"],
        "sim.generate.busy_s": s["sim.generate"]["busy_s"],
        "io.write_log.busy_s": s["io.write_log"]["busy_s"],
        "io.read_log.busy_s": s["io.read_log"]["busy_s"],
        "io.TensorStore.read.calls": s["io.TensorStore.read"]["calls"],
    }
    return {k: float(v) for k, v in out.items()}


def traced_run(workload, seed: int, work_dir: str, tally, record: dict, spans_path: str):
    """Run the pass, set-ups included, traced; returns (per-layer metrics, pass result)."""
    tracer = Tracer().install()
    try:
        start = time.perf_counter()
        traced = workloads.run_pass(workload, seed, work_dir, tally)
        pass_s = time.perf_counter() - start
    finally:
        tracer.uninstall()
    tracer.save(spans_path)
    summary = tracer.summary()
    record.update(spans=spans_path, trace_missing=tracer.missing, layers=summary,
                  traced=workloads.end_to_end(traced, 0.0, tally, 0.0))
    metrics = per_layer(summary)
    metrics["trace.pass_s"] = pass_s
    return metrics, traced

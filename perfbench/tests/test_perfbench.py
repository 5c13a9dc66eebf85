"""Determinism and consistency checks of the benchmark itself (small scenes)."""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

from cooptrack import association, filter, geometry, metrics, pipeline
from perfbench import layers, run, workloads
from perfbench.tracer import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
TINY = workloads.Workload("tiny", workloads.v2v_scenario, num_cavs=2, train_frames=20,
                          track_frames=20, rounds=3, epochs=2)
TINY_DENSE = workloads.Workload("tiny_dense", workloads.dense_scenario, num_cavs=3,
                                train_frames=10, track_frames=15, rounds=3, epochs=2)
COUNTS = (".calls", ".pairs", ".rows", ".dim_max", "detections", "tape_nodes",
          "optimizer_steps", "windows_skipped", "clip_fired", "tracks_live")


@pytest.fixture
def work_dir():
    # inside the checkout: the benchmark reads and writes nowhere else
    path = os.path.join(ROOT, ".perfbench_out", f"test-{os.getpid()}")
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _run(workload, seed, path):
    tally = workloads.Tally()
    return workloads.run_pass(workload, seed, path, tally), tally


def _traced(workload, seed, path, name):
    tally = workloads.Tally()
    record = {}
    metrics_, out = layers.traced_run(workload, seed, os.path.join(path, name), tally,
                                      record, os.path.join(path, name + ".npz"))
    record["traced_pass"] = out
    return metrics_, tally, record


@pytest.mark.parametrize("workload", [TINY, TINY_DENSE], ids=lambda w: w.name)
def test_same_seed_same_outputs(workload, work_dir):
    a, tally_a = _run(workload, 5, os.path.join(work_dir, "a"))
    b, tally_b = _run(workload, 5, os.path.join(work_dir, "b"))
    assert tally_a.failed == tally_b.failed == 0
    assert a.fingerprints() == b.fingerprints()
    e2e_a = workloads.end_to_end(a, 0.0, tally_a, 1.0)
    e2e_b = workloads.end_to_end(b, 0.0, tally_b, 1.0)
    for name in ("amota_const", "amota_learned", "train_loss_final"):
        assert e2e_a[name] == e2e_b[name] and math.isfinite(e2e_a[name])
    assert set(a.fingerprints()) == {"inputs", "loss_curve", "const", "const.amota",
                                     "learned", "learned.amota"}
    c, _ = _run(workload, 6, os.path.join(work_dir, "c"))
    assert all(c.fingerprints()[k] != v for k, v in a.fingerprints().items())


def test_traced_counts_repeat_and_tracing_changes_no_output(work_dir):
    first, tally_1, record_1 = _traced(TINY, 3, work_dir, "one")
    second, tally_2, record_2 = _traced(TINY, 3, work_dir, "two")
    assert tally_1.failed == tally_2.failed == 0
    plain, _ = _run(TINY, 3, os.path.join(work_dir, "plain"))
    assert record_1["traced_pass"].fingerprints() == plain.fingerprints()
    counts = {k for k in first if k.endswith(COUNTS)}
    assert {"geometry.iou3d.calls", "association.build_cost_matrix.pairs",
            "covnet.forward.rows"} <= counts
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    # 3 rounds of 20 frames in 2 modes, and 2 training epochs of 20 frames
    assert first["pipeline.CoopTracker.step.calls"] == 3 * 2 * 20 + 2 * 20
    assert first["training.optimizer_steps"] == 2 * 2
    # 6 evaluate calls, one per round and mode, on 20 frames each
    assert first["metrics.match_frame.calls"] % (3 * 2) == 0
    assert first["covnet.forward.rows"] == first["covnet.forward.calls"] > 0
    assert 0 < first["association.prescreen_pass_ratio"] <= 1
    assert record_1["trace_missing"] == []


def test_pass_runs_each_scene_once_and_feeds_the_metrics(work_dir, monkeypatch):
    seen = []
    real_track = workloads._track

    def spy(config, frames, provider, mode, out, tally):
        seen.append(repr([d.box for d in frames[0].detections[0]]))
        return real_track(config, frames, provider, mode, out, tally)

    monkeypatch.setattr(workloads, "_track", spy)
    one_pass, tally = _run(TINY, 4, work_dir)
    assert tally.failed == 0
    assert tally.attempted == 3 * 2 * 20 + 3 * 2 + 2 * 2
    # every round has a held-out scene of its own, tracked once in each mode
    assert len(seen) == 3 * 2 and len(set(seen)) == 3
    assert len(one_pass.setup_s_per_frame) == 3 + 2
    assert one_pass.frames_set_up == 3 * 20 + 2 * 20
    assert len(one_pass.train_s) == len(one_pass.loss_curves) == 2
    assert one_pass.windows == 2 * 2
    for mode in workloads.MODES:
        assert [len(r) for r in one_pass.frame_ms[mode]] == [20] * 3
    assert len(one_pass.eval_s) == 3 * 2
    assert {m: len(v) for m, v in one_pass.amota.items()} == {"const": 3, "learned": 3}


def test_work_is_sized_by_seconds_alone():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        assert json.load(fh)["run_seconds"] == workloads.REFERENCE_SECONDS
    v2v = workloads.WORKLOADS["v2v"]
    assert workloads.sized(v2v, workloads.REFERENCE_SECONDS) == v2v
    half = workloads.sized(v2v, workloads.REFERENCE_SECONDS / 2)
    assert (half.rounds, half.epochs) == (v2v.rounds // 2, v2v.epochs // 2)
    tiny = workloads.sized(v2v, 0.1)
    assert (tiny.rounds, tiny.epochs) == (1, 1)


def test_overhead_only_against_an_untraced_record_of_the_same_code(work_dir):
    os.makedirs(work_dir)
    path = os.path.join(work_dir, "untraced.json")
    untraced = {"code_sha256": "abc", "seconds": 40.0, "fingerprints": {"const": "x"},
                "result": {"metrics": {"eval_s": {"value": 1.0},
                                       "amota_const": {"value": None}}}}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(untraced, fh)
    record = {"code_sha256": "abc", "seconds": 40.0, "fingerprints": {"const": "x"},
              "traced": {"eval_s": 1.5, "amota_const": 50.0}}
    run.compare_untraced(record, path)
    assert record["tracing_overhead"] == {"eval_s": 0.5}
    assert record["tracing_changed_outputs"] is False
    other = {"code_sha256": "def", "seconds": 40.0, "fingerprints": {},
             "traced": {"eval_s": 1.5}}
    run.compare_untraced(other, path)
    assert "tracing_overhead" not in other and "tracing_changed_outputs" not in other


def test_tracer_patches_every_lookup_name_and_restores_them():
    originals = (association.iou3d, pipeline.update, pipeline.predict,
                 pipeline.associate, metrics.associate, pipeline.encode_detection)
    tracer = Tracer().install()
    try:
        assert association.iou3d is geometry.iou3d is not originals[0]
        assert pipeline.update is filter.update is not originals[1]
        assert pipeline.associate is metrics.associate is association.associate
        assert pipeline.associate.__wrapped__ is originals[3]
        geometry.iou3d(geometry.Box7(0, 0, 0, 0, 4, 2, 1.5),
                       geometry.Box7(0.5, 0, 0, 0, 4, 2, 1.5))
    finally:
        tracer.uninstall()
    assert (association.iou3d, pipeline.update, pipeline.predict, pipeline.associate,
            metrics.associate, pipeline.encode_detection) == originals
    summary = tracer.summary()
    assert summary["geometry.iou3d"]["calls"] == 1
    assert summary["geometry.iou3d"]["nonzero"] == 1


def test_dense_scene_is_deterministic_and_in_sensor_range():
    a = workloads.dense_scenario(9, 200)
    assert a == workloads.dense_scenario(9, 200)
    assert a != workloads.dense_scenario(10, 200)
    assert len(a.objects) == 40 and len(a.cavs) >= 3
    for cav in a.cavs:
        for t, pose in enumerate(cav.poses):
            for traj in a.objects:
                box = traj[t]
                rng = math.hypot(box.x - pose.t_x, box.y - pose.t_y)
                assert rng <= cav.sensor.max_range


def test_declared_metrics_match_the_produced_ones(work_dir):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    one_pass, tally = _run(TINY, 1, work_dir)
    e2e = workloads.end_to_end(one_pass, 0.5, tally, 100.0)
    assert {m["name"] for m in declared["end_to_end"]} == set(e2e)
    assert all(v > 0 for v in e2e.values())
    summary = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
               for name in Tracer().names}
    for entry in summary.values():
        entry.update(nonzero=0, pairs=0, dim_max=0, rows=0, tape_nodes=0, skipped=0,
                     fired=0, detections=0, tracks_live=0)
    produced = set(layers.per_layer(summary)) | {"trace.pass_s"}
    assert {m["name"] for m in declared["per_layer"]} == produced


def test_launcher_fails_without_the_package(work_dir):
    bare = os.path.join(work_dir, "bare")
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "v2v",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=120,
                          env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

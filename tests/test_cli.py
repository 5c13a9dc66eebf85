"""End-to-end tests of the command-line workflows."""

import csv
import dataclasses
import itertools
import json
import math
import os
import pathlib
import typing
from collections import Counter

import numpy as np
import pytest

from cooptrack import cli, io, metrics, pipeline, sim, training
from cooptrack.covnet import CovNetParams, layer_shapes
from cooptrack.geometry import box_rows
from cooptrack.io import Checkpoint, NetSettings, RunConfig, ScenarioConfig, TrainSettings


def small_config() -> RunConfig:
    return RunConfig(
        scenario=ScenarioConfig(duration=20),
        covnet=NetSettings(conv_channels=(4, 8), pos_hidden=8, pos_out=32,
                           head_hidden=8),
        train=TrainSettings(window_length=5, epochs=1))


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "config.json"
    io.save_config(str(path), small_config())
    return str(path)


@pytest.fixture()
def sim_dir(tmp_path, config_path, capsys):
    out = str(tmp_path / "sim")
    assert cli.main(["simulate", "--config", config_path, "--out", out]) == 0
    capsys.readouterr()
    return out


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# --- simulate --------------------------------------------------------------------


def test_simulate_writes_all_artifacts(sim_dir, capsys):
    # the files that `simulate` checks before any work are the ones it writes
    assert sorted(os.listdir(sim_dir)) == sorted(io.SIMULATE_FILES)
    gt = io.read_log(os.path.join(sim_dir, io.GT_FILE), io.FORMAT_GROUNDTRUTH)
    assert {r["t"] for r in gt} == set(range(20))
    assert len({r["obj"] for r in gt}) == 12
    dets = io.read_log(os.path.join(sim_dir, io.DETECTIONS_FILE), io.FORMAT_DETECTIONS)
    assert {r["cav"] for r in dets} == {0, 1}
    # every detection points at a stored appearance tensor
    tensors = io.read_tensors(os.path.join(sim_dir, io.TENSORS_FILE))
    assert tensors.shape == (len(dets), 8, 8, 8)
    assert sorted(r["app"] for r in dets) == list(range(len(dets)))


def test_simulate_train_and_track_follow_the_configured_appearance_shape(tmp_path, capsys):
    cfg = small_config()
    cfg = dataclasses.replace(cfg, covnet=dataclasses.replace(cfg.covnet, app_shape=(4, 8, 8)))
    cfg_path, data, ckpt = (str(tmp_path / name) for name in ("c.json", "sim", "m.ckpt"))
    io.save_config(cfg_path, cfg)
    assert cli.main(["simulate", "--config", cfg_path, "--out", data]) == 0
    assert io.read_tensors(os.path.join(data, io.TENSORS_FILE)).shape[1:] == (4, 8, 8)
    assert cli.main(["train", "--config", cfg_path, "--scenarios", data, "--out", ckpt]) == 0
    assert cli.main(["track", "--config", cfg_path, "--detections", data,
                     "--checkpoint", ckpt, "--out", str(tmp_path / "trk")]) == 0


def test_simulate_rejects_an_appearance_shape_of_fewer_than_3_channels(tmp_path, capsys):
    cfg = small_config()
    io.save_config(str(tmp_path / "c.json"), dataclasses.replace(
        cfg, covnet=dataclasses.replace(cfg.covnet, app_shape=(2, 8, 8))))
    assert cli.main(["simulate", "--config", str(tmp_path / "c.json"),
                     "--out", str(tmp_path / "sim")]) == 2
    assert "covnet.app_shape: the simulator draws at least 3 channels" in (
        capsys.readouterr().err)


def test_simulate_is_deterministic(tmp_path, config_path, capsys):
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert cli.main(["simulate", "--config", config_path, "--out", out_a]) == 0
    assert cli.main(["simulate", "--config", config_path, "--out", out_b]) == 0
    capsys.readouterr()
    for name in (io.GT_FILE, io.DETECTIONS_FILE, io.TENSORS_FILE):
        a = pathlib.Path(out_a, name).read_bytes()
        b = pathlib.Path(out_b, name).read_bytes()
        assert a == b, name


# --- track -----------------------------------------------------------------------


def test_track_without_checkpoint_counts_box_only_payload(tmp_path, config_path,
                                                          sim_dir, capsys):
    out = str(tmp_path / "trk")
    assert cli.main(["track", "--config", config_path, "--detections", sim_dir,
                     "--out", out]) == 0
    capsys.readouterr()
    assert sorted(os.listdir(out)) == sorted(io.TRACK_FILES)  # as checked before the work
    tracks = io.read_log(os.path.join(out, io.TRACKS_FILE), io.FORMAT_TRACKS)
    assert tracks
    assert all(0.0 < r["score"] <= 1.0 for r in tracks)
    with open(os.path.join(out, io.COMM_FILE)) as fh:
        comm = json.load(fh)
    dets = io.read_log(os.path.join(sim_dir, io.DETECTIONS_FILE), io.FORMAT_DETECTIONS)
    non_ego = sum(1 for r in dets if r["cav"] != 0)
    assert comm["num_shared_detections"] == non_ego
    assert comm["reals_per_detection"] == metrics.BOX_REALS
    assert comm["bytes_total"] == non_ego * 7 * 4
    assert comm["ratio_vs_box_only"] == 1.0


def test_track_solo_run_pays_no_communication(tmp_path, config_path, sim_dir, capsys):
    out = str(tmp_path / "solo")
    assert cli.main(["track", "--config", config_path, "--detections", sim_dir,
                     "--cavs", "0", "--out", out]) == 0
    capsys.readouterr()
    with open(os.path.join(out, io.COMM_FILE)) as fh:
        comm = json.load(fh)
    assert comm["num_shared_detections"] == 0
    assert comm["bytes_total"] == 0
    tracks = io.read_log(os.path.join(out, io.TRACKS_FILE), io.FORMAT_TRACKS)
    assert tracks  # a single vehicle still produces tracks


def test_track_zero_checkpoint_matches_constant_mode(tmp_path, config_path, sim_dir,
                                                     capsys):
    cfg = small_config()
    params = training.init_params_for_run(cfg, np.random.default_rng(0))
    for p in params.values():
        for arr in p.arrays.values():
            arr[...] = 0.0
    ckpt_path = str(tmp_path / "zero.ckpt")
    io.save_checkpoint(ckpt_path, Checkpoint(params_by_cav=params, config=cfg, seed=0))

    out_const = str(tmp_path / "const")
    out_zero = str(tmp_path / "zero")
    assert cli.main(["track", "--config", config_path, "--detections", sim_dir,
                     "--out", out_const]) == 0
    assert cli.main(["track", "--config", config_path, "--detections", sim_dir,
                     "--checkpoint", ckpt_path, "--out", out_zero]) == 0
    capsys.readouterr()
    const_tracks = pathlib.Path(out_const, io.TRACKS_FILE).read_bytes()
    zero_tracks = pathlib.Path(out_zero, io.TRACKS_FILE).read_bytes()
    assert const_tracks == zero_tracks
    # payload accounting still charges the full shared vector
    with open(os.path.join(out_zero, io.COMM_FILE)) as fh:
        comm = json.load(fh)
    assert comm["reals_per_detection"] == metrics.SHARED_REALS
    assert comm["ratio_vs_box_only"] == pytest.approx(17 / 7)


def test_track_rejects_a_checkpoint_trained_under_other_bounds(tmp_path, config_path,
                                                              sim_dir, capsys):
    cfg = small_config()
    ckpt_path = str(tmp_path / "model.ckpt")
    io.save_checkpoint(ckpt_path, Checkpoint(
        params_by_cav=training.init_params_for_run(cfg, np.random.default_rng(0)),
        config=cfg, seed=0))
    scaled_path = str(tmp_path / "scaled.json")
    io.save_config(scaled_path, dataclasses.replace(cfg, normalization_bounds=tuple(
        (10 * lo, 10 * hi) for lo, hi in cfg.normalization_bounds)))
    out = tmp_path / "trk"
    assert cli.main(["track", "--config", scaled_path, "--detections", sim_dir,
                     "--checkpoint", ckpt_path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "model.ckpt" in err and "normalization bounds" in err
    assert not out.exists()


def test_every_cost_path_agrees_with_comm_cost(tmp_path, config_path, sim_dir, capsys):
    cfg = small_config()
    ckpt_path = str(tmp_path / "init.ckpt")
    params = training.init_params_for_run(cfg, np.random.default_rng(0))
    io.save_checkpoint(ckpt_path, Checkpoint(params_by_cav=params, config=cfg, seed=0))
    dets = io.read_log(os.path.join(sim_dir, io.DETECTIONS_FILE), io.FORMAT_DETECTIONS)
    sent = {}
    for r in dets:
        sent.setdefault(r["t"], Counter())[r["cav"]] += 1
    frames = [sent[t] for t in range(20)]
    solo = [{1: f[1]} if 1 in f else {} for f in frames]

    def track(name, *extra):
        out = str(tmp_path / name)
        assert cli.main(["track", "--config", config_path, "--detections", sim_dir,
                         "--out", out, *extra]) == 0
        with open(os.path.join(out, io.COMM_FILE)) as fh:
            return json.load(fh)

    box_only = metrics.comm_cost(frames, metrics.BOX_REALS)
    assert box_only.num_shared_detections == sum(f.get(1, 0) for f in frames) > 0
    assert track("const") == box_only.as_dict()
    assert track("learned", "--checkpoint", ckpt_path) == metrics.comm_cost(
        frames, metrics.SHARED_REALS).as_dict()
    assert track("solo", "--cavs", "1") == metrics.comm_cost(solo, metrics.BOX_REALS).as_dict()
    capsys.readouterr()
    assert cli.main(["comm-cost", "--detections", sim_dir]) == 0
    shared = metrics.comm_cost(frames, metrics.SHARED_REALS)
    assert capsys.readouterr().out == (
        f"shared detections: {shared.num_shared_detections}\n"
        f"bytes total: {shared.bytes_total}\n"
        f"MB total: {shared.mb_total:.6f}\n"
        f"MB per frame: {shared.mb_per_frame:.8f}\n"
        f"payload ratio vs box-only: {shared.ratio_vs_box_only:.4f}\n")

    # a frame left without detections is still a frame of the log on both paths
    io.write_log(os.path.join(sim_dir, io.DETECTIONS_FILE), io.FORMAT_DETECTIONS,
                 [r for r in dets if r["t"] != 3])
    gap = track("learned_gap", "--checkpoint", ckpt_path)
    capsys.readouterr()
    assert cli.main(["comm-cost", "--detections", sim_dir]) == 0
    assert f"MB per frame: {gap['mb_per_frame']:.8f}\n" in capsys.readouterr().out


def test_conflicting_poses_are_rejected(tmp_path, config_path, sim_dir, capsys):
    path = os.path.join(sim_dir, io.DETECTIONS_FILE)
    dets = io.read_log(path, io.FORMAT_DETECTIONS)
    i = next(i for i in range(1, len(dets))
             if (dets[i]["t"], dets[i]["cav"]) == (dets[i - 1]["t"], dets[i - 1]["cav"]))
    dets[i]["pose"][0] += 5.0
    io.write_log(path, io.FORMAT_DETECTIONS, dets)
    t, cav = dets[i]["t"], dets[i]["cav"]
    with pytest.raises(io.LogFormatError, match=rf"detections\.jsonl: conflicting poses for "
                                                rf"t={t} cav={cav}$"):
        io.load_sim_frames(sim_dir)
    assert cli.main(["track", "--config", config_path, "--detections", sim_dir,
                     "--out", str(tmp_path / "trk")]) == 2
    assert "conflicting poses" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [("pose", 5), ("conf", "x"), ("t", "a"),
                                          ("app", 1.5), ("app", "x"), ("app", True),
                                          ("app", -1)])
def test_mistyped_field_is_rejected_with_path_and_line(tmp_path, config_path, sim_dir,
                                                       capsys, field, value):
    path = os.path.join(sim_dir, io.DETECTIONS_FILE)
    with open(path) as fh:
        lines = fh.read().splitlines()
    rec = json.loads(lines[2])
    rec[field] = value
    lines[2] = json.dumps(rec)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    with pytest.raises(io.LogFormatError, match=rf"detections\.jsonl line 3: {field}: "
                                                rf"(expected|must be) "):
        io.read_log(path, io.FORMAT_DETECTIONS)
    assert cli.main(["track", "--config", config_path, "--detections", sim_dir,
                     "--out", str(tmp_path / "trk")]) == 2
    assert "detections.jsonl line 3" in capsys.readouterr().err


def test_app_index_past_the_store_is_rejected_with_its_path(tmp_path, config_path, sim_dir,
                                                            capsys):
    path = os.path.join(sim_dir, io.DETECTIONS_FILE)
    dets = io.read_log(path, io.FORMAT_DETECTIONS)
    count = len(io.read_tensors(os.path.join(sim_dir, io.TENSORS_FILE)))
    dets[1]["app"] = count
    io.write_log(path, io.FORMAT_DETECTIONS, dets)
    assert cli.main(["track", "--config", config_path, "--detections", sim_dir,
                     "--out", str(tmp_path / "trk")]) == 2
    err = capsys.readouterr().err
    assert f"{os.path.join(sim_dir, io.TENSORS_FILE)}: tensor index {count} out of range" in err


def _rewrite_tensor_store(sim_dir, header=None, first_entry=None):
    """Replace the store's header line and/or the first entry of tensor 0."""
    path = os.path.join(sim_dir, io.TENSORS_FILE)
    with open(path, "rb") as fh:
        header_line = fh.readline()
        data = bytearray(fh.read())
    if header is not None:
        header_line = (json.dumps(header) + "\n").encode()
    if first_entry is not None:
        data[:8] = np.array([first_entry], dtype="<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(header_line + bytes(data))


@pytest.mark.parametrize("header, first_entry, message", [
    ([1, 2], None, "tensor header must be a JSON object"),
    ({"format": io.FORMAT_TENSORS, "version": io.SCHEMA_VERSION, "dtype": "<f8"}, None,
     "line 1: shape: missing"),
    ({"format": io.FORMAT_TENSORS, "version": io.SCHEMA_VERSION, "dtype": "<f4",
      "shape": [8, 8, 8]}, None, """line 1: dtype: must be "<f8", got '<f4'"""),
    (None, float("nan"), "tensor 0 has non-finite entries"),
    ({"format": io.FORMAT_TENSORS, "version": io.SCHEMA_VERSION, "dtype": "<f8",
      "shape": [1] * 65}, None, f"tensor shape {[1] * 65} not supported"),
    ({"format": io.FORMAT_TENSORS, "version": io.SCHEMA_VERSION, "dtype": "<f8",
      "shape": [2**62, 2**62]}, None, f"tensor shape {[2**62, 2**62]} not supported"),
], ids=["not-an-object", "no-shape", "foreign-dtype", "nan-entry", "too-many-dims",
        "too-large"])
def test_bad_tensor_store_is_rejected_with_its_path(tmp_path, config_path, sim_dir, capsys,
                                                    header, first_entry, message):
    _rewrite_tensor_store(sim_dir, header, first_entry)
    assert cli.main(["track", "--config", config_path, "--detections", sim_dir,
                     "--out", str(tmp_path / "trk")]) == 2
    err = capsys.readouterr().err
    assert os.path.join(sim_dir, io.TENSORS_FILE) in err and message in err


@pytest.mark.parametrize("lineno, text, message", [
    (1, "[1]", "line 1: log header must be a JSON object"),
    (3, "5", "line 3: record must be a JSON object"),
], ids=["header-not-an-object", "record-not-an-object"])
def test_non_object_log_line_is_rejected_with_path_and_line(tmp_path, config_path, sim_dir,
                                                            capsys, lineno, text, message):
    path = os.path.join(sim_dir, io.DETECTIONS_FILE)
    with open(path) as fh:
        lines = fh.read().splitlines()
    lines[lineno - 1] = text
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    assert cli.main(["track", "--config", config_path, "--detections", sim_dir,
                     "--out", str(tmp_path / "trk")]) == 2
    assert f"{path} {message}" in capsys.readouterr().err


@pytest.mark.parametrize("name", [io.GT_FILE, io.DETECTIONS_FILE, io.TRACKS_FILE,
                                  "m.ckpt.losscurve.jsonl"])
def test_a_log_that_is_not_utf8_is_rejected_with_path_and_line(tmp_path, config_path,
                                                               sim_dir, track_dir, capsys,
                                                               name):
    curve = str(tmp_path / "m.ckpt.losscurve.jsonl")
    io.write_log(curve, io.FORMAT_LOSSCURVE, [{"epoch": 0, "window": w, "loss": 1.5,
                                               "supervised": 3} for w in range(3)])
    path = {io.GT_FILE: os.path.join(sim_dir, io.GT_FILE),
            io.DETECTIONS_FILE: os.path.join(sim_dir, io.DETECTIONS_FILE),
            io.TRACKS_FILE: os.path.join(track_dir, io.TRACKS_FILE)}.get(name, curve)
    with open(path, "rb") as fh:
        data = fh.read()
    third = data.index(b"\n", data.index(b"\n") + 1) + 1
    with open(path, "wb") as fh:
        fh.write(data[:third + 5] + b"\xff" + data[third + 5:])
    message = f"{path} line 3: not valid UTF-8"
    if path == curve:  # no command reads a loss curve
        with pytest.raises(io.LogFormatError) as exc:
            io.read_log(path, io.FORMAT_LOSSCURVE)
        assert str(exc.value) == message
        return
    if name == io.DETECTIONS_FILE:
        argv = ["track", "--config", config_path, "--detections", sim_dir,
                "--out", str(tmp_path / "trk2")]
    else:
        argv = ["eval", "--tracks", track_dir, "--gt", sim_dir,
                "--out", str(tmp_path / "s.csv")]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("cavs", ["5", "x", "0,,1", "-1"])
def test_track_rejects_a_cavs_list_naming_no_vehicle_of_the_log(tmp_path, config_path,
                                                                 sim_dir, capsys, cavs):
    out = tmp_path / "trk"
    assert cli.main(["track", "--config", config_path, "--detections", sim_dir,
                     "--cavs", cavs, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --cavs: ")
    assert "its vehicles are [0, 1]" in err
    assert not out.exists()


@pytest.mark.parametrize("num_cavs", [3, 1])
@pytest.mark.parametrize("command", ["track", "train"])
def test_a_log_of_other_vehicles_than_num_cavs_is_rejected(tmp_path, sim_dir, capsys,
                                                           command, num_cavs):
    config = tmp_path / "other.json"
    io.save_config(str(config), dataclasses.replace(small_config(), num_cavs=num_cavs))
    out = tmp_path / "new" / ("trk" if command == "track" else "m.ckpt")
    source = "--detections" if command == "track" else "--scenarios"
    assert cli.main([command, "--config", str(config), source, sim_dir,
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"error: num_cavs: the config sets {num_cavs}, but "
                                       "the detection log's vehicles are [0, 1]\n")
    assert not out.parent.exists()


@pytest.mark.parametrize("num_cavs", [3, 1])
@pytest.mark.parametrize("command", ["simulate", "ablate"])
def test_a_simulated_run_rejects_num_cavs_other_than_the_scenarios(tmp_path, capsys,
                                                                    monkeypatch, command,
                                                                    num_cavs):
    def no_work(*_args, **_kwargs):
        raise AssertionError("the scenario was generated")

    monkeypatch.setattr(sim, "generate", no_work)
    config = tmp_path / "other.json"
    io.save_config(str(config), dataclasses.replace(small_config(), num_cavs=num_cavs))
    out = tmp_path / "new" / ("sim" if command == "simulate" else "grid.csv")
    assert cli.main([command, "--config", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"error: num_cavs: the config sets {num_cavs}, but "
                                       "the simulated v2v_mini scenario has 2 vehicles\n")
    assert not out.parent.exists()


def _write_edited_checkpoint(path, cfg, edit_header=None, first_entry=None, tail=b"",
                             adam=False, kind="param"):
    """Save a zero checkpoint for `cfg` (with zero Adam tables if `adam`), then edit
    its header, the first entry of its first table of `kind`, or its end."""
    net_cfg = cfg.covnet.covnet_config()
    params = {cav: CovNetParams(net_cfg, {name: np.zeros(shape)
                                          for name, shape in layer_shapes(net_cfg).items()})
              for cav in range(cfg.num_cavs)}
    adam_state = None
    if adam:
        adam_state = io.AdamState.init(params)
        adam_state.step = 1
    io.save_checkpoint(path, Checkpoint(params_by_cav=params, config=cfg, seed=0,
                                        adam_state=adam_state))
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        data = bytearray(fh.read())
    if edit_header is not None:
        header = edit_header(header)
    if first_entry is not None:
        at = 8 * sum(math.prod(e["shape"]) for e in itertools.takewhile(
            lambda e: e["kind"] != kind, header["manifest"]))
        data[at:at + 8] = np.array([first_entry], dtype="<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write((json.dumps(header) + "\n").encode() + bytes(data) + tail)


def _set(key, value):
    def edit(header):
        header[key] = value
        return header
    return edit


def _set_first_entry(key, value):
    def edit(header):
        header["manifest"][0][key] = value
        return header
    return edit


def _append_first_entry(**changes):
    def edit(header):
        header["manifest"].append(dict(header["manifest"][0], **changes))
        return header
    return edit


# small_config has 12 layers for each of its 2 vehicles, the first being app.conv1.w
_FIRST_LAYER = (4, 8, 3, 3)
_FIRST_ENTRY = '{"cav":0,"kind":"param","name":"app.conv1.w","shape":'


@pytest.mark.parametrize("edit, message", [
    (dict(edit_header=lambda h: [1]), "checkpoint header must be a JSON object"),
    (dict(edit_header=lambda h: {k: v for k, v in h.items() if k != "config"}),
     "line 1: config: missing"),
    (dict(edit_header=_set("config", {"num_cavs": 0})), "bad run configuration"),
    (dict(edit_header=lambda h: dict(h, config=dict(h["config"], train=dict(
        h["config"]["train"], batch_windows=1)))),
     "bad run configuration (train: unknown key(s) ['batch_windows'])"),
    (dict(edit_header=_set("seed", "0")), "line 1: seed: expected int, got '0'"),
    (dict(edit_header=_set("epochs_done", -5)), "line 1: epochs_done: must be >= 0, got -5"),
    (dict(edit_header=_set("adam_step", -1)), "line 1: adam_step: must be >= 0, got -1"),
    (dict(edit_header=_set("manifest", {})), "line 1: manifest: expected list, got {}"),
    (dict(edit_header=_set_first_entry("shape", [-4, 2])),
     f"manifest entry 0 is {_FIRST_ENTRY}[-4,2]}}, expected {_FIRST_ENTRY}[4,8,3,3]}}"),
    (dict(edit_header=_set_first_entry("kind", "adam_w")),
     'manifest entry 0 is {"cav":0,"kind":"adam_w","name":"app.conv1.w","shape":[4,8,3,3]}'),
    (dict(edit_header=_append_first_entry(cav=7), tail=np.zeros(_FIRST_LAYER).tobytes()),
     'manifest entry 24 is {"cav":7,"kind":"param","name":"app.conv1.w","shape":[4,8,3,3]}, '
     "expected no entry"),
    (dict(edit_header=_append_first_entry(), tail=np.full(_FIRST_LAYER, 5.0).tobytes()),
     f"manifest entry 24 is {_FIRST_ENTRY}[4,8,3,3]}}, expected no entry"),
    (dict(edit_header=_set_first_entry("cav", True)),
     'manifest entry 0 is {"cav":true,'),
    (dict(edit_header=_set_first_entry("shape", [4.0, 8, 3, 3])),
     f"manifest entry 0 is {_FIRST_ENTRY}[4.0,8,3,3]}}"),
    (dict(edit_header=_set_first_entry("shape", [float("nan")])),
     f"manifest entry 0 is {_FIRST_ENTRY}[NaN]}}"),
    (dict(edit_header=lambda h: dict(h, manifest=h["manifest"][1::-1] + h["manifest"][2:])),
     'manifest entry 0 is {"cav":0,"kind":"param","name":"app.conv1.b","shape":[4]}'),
    (dict(tail=b"\0" * 8), "trailing data"),
    (dict(first_entry=float("nan")), "non-finite entries"),
], ids=["not-an-object", "no-config", "bad-config", "batch-windows", "mistyped-seed",
        "negative-epochs", "negative-adam-step", "manifest-not-a-list",
        "negative-shape", "unknown-kind", "extra-vehicle", "repeated-entry", "bool-cav",
        "float-shape", "nan-shape", "reordered", "trailing-bytes", "nan-weight"])
def test_bad_checkpoint_is_rejected_with_its_path(tmp_path, config_path, sim_dir, capsys,
                                                  edit, message):
    ckpt = str(tmp_path / "bad.ckpt")
    _write_edited_checkpoint(ckpt, io.load_config(config_path), **edit)
    assert cli.main(["track", "--config", config_path, "--detections", sim_dir,
                     "--checkpoint", ckpt, "--out", str(tmp_path / "trk")]) == 2
    err = capsys.readouterr().err
    assert ckpt in err and message in err


def test_a_checkpoint_with_the_full_width_positional_weight_is_refused_by_name(
        tmp_path, config_path, sim_dir, capsys):
    # checkpoints written before `pos.lin1.w` moved to the Chebyshev basis hold
    # it at the (18 x 256, hidden) width of the sinusoidal encoding, under the
    # same schema version; the manifest comparison names the entry
    cfg = io.load_config(config_path)
    ckpt = str(tmp_path / "full-width.ckpt")
    io.save_checkpoint(ckpt, Checkpoint(params_by_cav=training.init_params_for_run(
        cfg, np.random.default_rng(0)), config=cfg, seed=0))
    with open(ckpt, "rb") as fh:
        header, data = json.loads(fh.readline()), fh.read()
    blobs, at = [], 0
    for entry in header["manifest"]:
        size = 8 * math.prod(entry["shape"])
        blob, at = data[at:at + size], at + size
        if entry["name"] == "pos.lin1.w":
            entry["shape"] = [4608, entry["shape"][1]]
            blob = np.zeros(entry["shape"], dtype="<f8").tobytes()
        blobs.append(blob)
    with open(ckpt, "wb") as fh:
        fh.write((io.canonical_json(header) + "\n").encode() + b"".join(blobs))
    assert header["version"] == io.SCHEMA_VERSION == 1
    message = (f"{ckpt} line 1: manifest entry 4 is "
               '{"cav":0,"kind":"param","name":"pos.lin1.w","shape":[4608,8]}, '
               'expected {"cav":0,"kind":"param","name":"pos.lin1.w","shape":[378,8]}')
    with pytest.raises(io.LogFormatError) as info:
        io.load_checkpoint(ckpt)
    assert str(info.value) == message
    assert cli.main(["track", "--config", config_path, "--detections", sim_dir,
                     "--checkpoint", ckpt, "--out", str(tmp_path / "trk")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command, data_flag, ckpt_flag, huge", [
    ("track", "--detections", "--checkpoint", "weights"),
    ("train", "--scenarios", "--resume", "weights"),
    ("train", "--scenarios", "--resume", "adam_m")],
    ids=["track", "train-resume", "train-resume-adam-moment"])
def test_a_checkpoint_whose_values_overflow_the_network_exits_2(
        tmp_path, config_path, sim_dir, capsys, command, data_flag, ckpt_flag, huge):
    cfg = small_config()
    params = training.init_params_for_run(cfg, np.random.default_rng(0))
    adam = io.AdamState.init(params)
    tables = ([a for p in params.values() for a in p.arrays.values()] if huge == "weights"
              else list(adam.m.values()))
    for arr in tables:
        arr.flat[0] = 1e300  # finite, so the checkpoint loads
    ckpt = str(tmp_path / "huge.ckpt")
    adam.step = 1
    io.save_checkpoint(ckpt, Checkpoint(params_by_cav=params, config=cfg, seed=0,
                                        adam_state=adam))
    assert cli.main([command, "--config", config_path, data_flag, sim_dir,
                     ckpt_flag, ckpt, "--out", str(tmp_path / "out")]) == 2
    assert f"error: {ckpt}: the checkpoint's weights or Adam moments are too large" in (
        capsys.readouterr().err)


@pytest.mark.parametrize("resume", [False, True], ids=["fresh", "resume"])
def test_a_training_run_that_diverges_names_its_window_or_the_learning_rate(
        tmp_path, config_path, sim_dir, capsys, resume):
    # a step size of 1e150 sends the weights to about 1e150 after the first
    # window, so the next window's network pass overflows
    cfg = small_config()
    diverging = str(tmp_path / "diverging.json")
    io.save_config(diverging, dataclasses.replace(
        cfg, train=dataclasses.replace(cfg.train, epochs=3, lr=1e150)))
    argv = ["train", "--config", diverging, "--scenarios", sim_dir,
            "--out", str(tmp_path / "out.ckpt")]
    if resume:
        ckpt = str(tmp_path / "one-epoch.ckpt")
        assert cli.main(["train", "--config", config_path, "--scenarios", sim_dir,
                         "--out", ckpt]) == 0
        argv += ["--resume", ckpt]
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert "Traceback" not in err and "box extents" not in err
    if resume:
        assert code == 2
        assert (f"error: {ckpt}: the checkpoint's weights or Adam moments are too large "
                f"(non-finite noise rows in epoch 1, window 1: overflow encountered in "
                f"matmul), or train.lr (1e+150) is too large") in err
    else:
        assert code == 1
        assert "error: non-finite noise rows in epoch 0, window 1" in err


def _drop_tensor_store(sim_dir):
    os.remove(os.path.join(sim_dir, io.TENSORS_FILE))


def _null_second_app(sim_dir):
    path = os.path.join(sim_dir, io.DETECTIONS_FILE)
    dets = io.read_log(path, io.FORMAT_DETECTIONS)
    dets[1]["app"] = None
    io.write_log(path, io.FORMAT_DETECTIONS, dets)


def _reshape_tensor_store(sim_dir):
    _rewrite_tensor_store(sim_dir, header={"format": io.FORMAT_TENSORS, "dtype": "<f8",
                                           "version": io.SCHEMA_VERSION, "shape": [8, 4, 16]})


@pytest.mark.parametrize("command", ["track", "train"])
@pytest.mark.parametrize("damage, message", [
    (_drop_tensor_store, "missing, but covnet.use_appearance needs a tensor"),
    (_null_second_app, 'a detection of vehicle 0 at t=0 has no tensor ("app": null)'),
    (_reshape_tensor_store, "tensor shape [8, 4, 16] is not covnet.app_shape [8, 8, 8]"),
], ids=["no-store", "null-app", "other-shape"])
def test_a_log_without_the_appearance_tensors_exits_2_naming_the_store(
        tmp_path, config_path, sim_dir, capsys, command, damage, message):
    ckpt = str(tmp_path / "zero.ckpt")
    _write_edited_checkpoint(ckpt, small_config())
    damage(sim_dir)
    args = {"track": ["--detections", sim_dir, "--checkpoint", ckpt],
            "train": ["--scenarios", sim_dir]}[command]
    assert cli.main([command, "--config", config_path, *args,
                     "--out", str(tmp_path / "out")]) == 2
    assert f"error: {os.path.join(sim_dir, io.TENSORS_FILE)}: {message}" in (
        capsys.readouterr().err)


def _flatten_first_adam_m(header):
    entry = next(e for e in header["manifest"] if e["kind"] == "adam_m")
    entry["shape"] = [int(np.prod(entry["shape"]))]
    return header


_FIRST_ADAM_M = '{"cav":0,"kind":"adam_m","name":"app.conv1.w","shape":'


@pytest.mark.parametrize("edit, message", [
    (dict(edit_header=_set("adam_step", 3)),
     f"manifest entry 24 is no entry, expected {_FIRST_ADAM_M}[4,8,3,3]}}"),
    (dict(adam=True, edit_header=_flatten_first_adam_m),
     f"manifest entry 24 is {_FIRST_ADAM_M}[288]}}, expected {_FIRST_ADAM_M}[4,8,3,3]}}"),
    (dict(adam=True, edit_header=_set("adam_step", None)),
     f"manifest entry 24 is {_FIRST_ADAM_M}[4,8,3,3]}}, expected no entry"),
    (dict(adam=True, kind="adam_m", first_entry=float("inf")),
     "vehicle 0: adam_m app.conv1.w has non-finite entries"),
    (dict(adam=True, kind="adam_v", first_entry=-1e-9),
     "vehicle 0: adam_v app.conv1.w has negative entries"),
], ids=["param-only", "misshapen-adam_m", "adam-without-step", "infinite-adam_m",
        "negative-adam_v"])
def test_resume_rejects_bad_adam_tables_with_the_path(tmp_path, config_path, sim_dir, capsys,
                                                      edit, message):
    ckpt = str(tmp_path / "bad.ckpt")
    _write_edited_checkpoint(ckpt, io.load_config(config_path), **edit)
    assert cli.main(["train", "--config", config_path, "--scenarios", sim_dir,
                     "--resume", ckpt, "--out", str(tmp_path / "model.ckpt")]) == 2
    err = capsys.readouterr().err
    assert ckpt in err and message in err


def test_tracks_keep_the_timesteps_of_the_log(tmp_path, config_path, sim_dir, capsys):
    # a log whose first frames are gone: tracks must line up with its truth
    for name, fmt in ((io.GT_FILE, io.FORMAT_GROUNDTRUTH),
                      (io.DETECTIONS_FILE, io.FORMAT_DETECTIONS)):
        path = os.path.join(sim_dir, name)
        records = io.read_log(path, fmt)
        io.write_log(path, fmt, [r for r in records if r["t"] >= 5])
    trk = str(tmp_path / "trk")
    assert cli.main(["track", "--config", config_path, "--detections", sim_dir,
                     "--out", trk]) == 0
    tracks = io.read_log(os.path.join(trk, io.TRACKS_FILE), io.FORMAT_TRACKS)
    assert tracks and {r["t"] for r in tracks} <= set(range(5, 20))
    out_csv = str(tmp_path / "summary.csv")
    assert cli.main(["eval", "--tracks", trk, "--gt", sim_dir, "--out", out_csv]) == 0
    capsys.readouterr()
    assert float(read_csv(out_csv)[1][1]) > 0.0


# --- train -----------------------------------------------------------------------


def test_train_then_track_with_checkpoint(tmp_path, config_path, sim_dir, capsys):
    ckpt = str(tmp_path / "model.ckpt")
    assert cli.main(["train", "--config", config_path, "--scenarios", sim_dir,
                     "--out", ckpt]) == 0
    assert os.path.exists(ckpt)
    curve = io.read_log(ckpt + ".losscurve.jsonl", io.FORMAT_LOSSCURVE)
    assert len(curve) == 4  # 20 frames / window 5, 1 epoch
    loaded = io.load_checkpoint(ckpt)
    assert loaded.epochs_done == 1
    assert loaded.adam_state is not None

    out = str(tmp_path / "trk")
    assert cli.main(["track", "--config", config_path, "--detections", sim_dir,
                     "--checkpoint", ckpt, "--out", out]) == 0
    capsys.readouterr()
    tracks = io.read_log(os.path.join(out, io.TRACKS_FILE), io.FORMAT_TRACKS)
    assert tracks


def test_train_resume_matches_uninterrupted_run(tmp_path, sim_dir, capsys):
    cfg2 = dataclasses.replace(small_config(),
                               train=TrainSettings(window_length=5, epochs=2))
    cfg_path = str(tmp_path / "cfg2.json")
    io.save_config(cfg_path, cfg2)

    full = str(tmp_path / "full.ckpt")
    assert cli.main(["train", "--config", cfg_path, "--scenarios", sim_dir,
                     "--out", full]) == 0

    cfg1 = dataclasses.replace(cfg2, train=TrainSettings(window_length=5, epochs=1))
    cfg1_path = str(tmp_path / "cfg1.json")
    io.save_config(cfg1_path, cfg1)
    half = str(tmp_path / "half.ckpt")
    assert cli.main(["train", "--config", cfg1_path, "--scenarios", sim_dir,
                     "--out", half]) == 0
    resumed = str(tmp_path / "resumed.ckpt")
    assert cli.main(["train", "--config", cfg_path, "--scenarios", sim_dir,
                     "--resume", half, "--out", resumed]) == 0
    capsys.readouterr()

    a = io.load_checkpoint(full)
    b = io.load_checkpoint(resumed)
    for cav in a.params_by_cav:
        for name, arr in a.params_by_cav[cav].arrays.items():
            assert arr.tobytes() == b.params_by_cav[cav].arrays[name].tobytes()


def test_resume_past_the_configured_epochs_trains_none_and_keeps_the_count(
        tmp_path, sim_dir, capsys):
    cfg2 = dataclasses.replace(small_config(),
                               train=TrainSettings(window_length=5, epochs=2))
    cfg2_path = str(tmp_path / "cfg2.json")
    io.save_config(cfg2_path, cfg2)
    full = str(tmp_path / "full.ckpt")
    assert cli.main(["train", "--config", cfg2_path, "--scenarios", sim_dir,
                     "--out", full]) == 0
    cfg1_path = str(tmp_path / "cfg1.json")
    io.save_config(cfg1_path, dataclasses.replace(
        cfg2, train=TrainSettings(window_length=5, epochs=1)))
    capsys.readouterr()
    resumed = str(tmp_path / "resumed.ckpt")
    assert cli.main(["train", "--config", cfg1_path, "--scenarios", sim_dir,
                     "--resume", full, "--out", resumed]) == 0
    assert "trained 0 epoch(s)" in capsys.readouterr().out
    a = io.load_checkpoint(full)
    b = io.load_checkpoint(resumed)
    assert b.epochs_done == a.epochs_done == 2
    assert b.adam_state.step == a.adam_state.step
    for cav in a.params_by_cav:
        for name, arr in a.params_by_cav[cav].arrays.items():
            assert arr.tobytes() == b.params_by_cav[cav].arrays[name].tobytes()


def test_train_accepts_zero_weight_decay(tmp_path, sim_dir, capsys):
    cfg = tmp_path / "no_decay.json"
    cfg.write_text(json.dumps({"train": {"weight_decay": 0, "epochs": 1}}))
    ckpt = str(tmp_path / "model.ckpt")
    assert cli.main(["train", "--config", str(cfg), "--scenarios", sim_dir,
                     "--out", ckpt]) == 0
    capsys.readouterr()
    assert io.load_checkpoint(ckpt).config.train.weight_decay == 0


def test_train_rejects_negative_weight_decay(tmp_path, sim_dir, capsys):
    cfg = tmp_path / "negative_decay.json"
    cfg.write_text(json.dumps({"train": {"weight_decay": -1e-5, "epochs": 1}}))
    assert cli.main(["train", "--config", str(cfg), "--scenarios", sim_dir,
                     "--out", str(tmp_path / "model.ckpt")]) == 2
    assert "weight_decay" in capsys.readouterr().err


def test_train_on_a_log_shorter_than_one_window_exits_2_writing_nothing(tmp_path, capsys):
    config = tmp_path / "short.json"
    config.write_text(json.dumps({"scenario": {"duration": 5}, "train": {"epochs": 2}}))
    data = str(tmp_path / "data")
    assert cli.main(["simulate", "--config", str(config), "--out", data]) == 0
    capsys.readouterr()
    assert cli.main(["train", "--config", str(config), "--scenarios", data,
                     "--out", str(tmp_path / "models" / "model.ckpt")]) == 2
    err = capsys.readouterr().err
    assert "window_length" in err and "5 frame(s)" in err and "window of 10" in err
    assert sorted(os.listdir(tmp_path)) == ["data", "short.json"]


# --- eval ------------------------------------------------------------------------


def test_eval_writes_summary_and_levels(tmp_path, config_path, sim_dir, capsys):
    trk = str(tmp_path / "trk")
    assert cli.main(["track", "--config", config_path, "--detections", sim_dir,
                     "--out", trk]) == 0
    out_csv = str(tmp_path / "summary.csv")
    assert cli.main(["eval", "--tracks", trk, "--gt", sim_dir, "--out", out_csv]) == 0
    printed = capsys.readouterr().out
    assert "AMOTA" in printed

    rows = read_csv(out_csv)
    assert rows[0] == metrics.SUMMARY_COLUMNS
    assert rows[1][0] == "run"
    amota = float(rows[1][1])
    assert 0.0 <= amota <= 100.0
    levels = read_csv(str(tmp_path / "summary_levels.csv"))
    assert len(levels) == 41  # header + one row per recall level
    assert levels[0][0] == "recall_target"


def test_train_and_eval_create_their_output_directories(tmp_path, capsys):
    # the README worked example, with each --out of train and eval in a new directory
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    config = tmp_path / "cfg.json"
    config.write_text(readme.split("cat > cfg.json <<'EOF'\n")[1].split("EOF\n")[0])
    data, ckpt = str(tmp_path / "data"), str(tmp_path / "models" / "model.ckpt")
    for argv in (["simulate", "--out", data],
                 ["train", "--scenarios", data, "--out", ckpt],
                 ["track", "--detections", data, "--checkpoint", ckpt,
                  "--out", str(tmp_path / "run")]):
        assert cli.main(argv[:1] + ["--config", str(config)] + argv[1:]) == 0
    assert cli.main(["eval", "--tracks", str(tmp_path / "run"), "--gt", data,
                     "--out", str(tmp_path / "scores" / "summary.csv")]) == 0
    capsys.readouterr()
    assert sorted(os.listdir(tmp_path / "models")) == ["model.ckpt",
                                                       "model.ckpt.losscurve.jsonl"]
    assert sorted(os.listdir(tmp_path / "scores")) == ["summary.csv", "summary_levels.csv"]
    assert io.load_checkpoint(ckpt).epochs_done == 2


@pytest.mark.parametrize("command", ["simulate", "track", "train", "eval", "ablate"])
def test_an_out_path_below_a_regular_file_exits_2_before_any_work(
        tmp_path, config_path, sim_dir, track_dir, capsys, monkeypatch, command):
    afile = tmp_path / "afile"
    afile.write_text("x")

    def refuse(*args, **kwargs):
        raise AssertionError("the work started")

    for owner, name in ((sim, "generate"), (cli, "run_tracking"), (training, "train"),
                        (metrics, "evaluate")):
        monkeypatch.setattr(owner, name, refuse)
    argv = {"simulate": ["--config", config_path, "--out", str(afile)],
            "track": ["--config", config_path, "--detections", sim_dir,
                      "--out", str(afile / "x")],
            "train": ["--config", config_path, "--scenarios", sim_dir,
                      "--out", str(afile / "m.ckpt")],
            "eval": ["--tracks", track_dir, "--gt", sim_dir, "--out", str(afile / "s.csv")],
            "ablate": ["--config", config_path, "--out", str(afile / "deeper" / "g.csv")]}
    assert cli.main([command] + argv[command]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --out: cannot create directory ")
    assert f"{str(afile)!r} is not a directory" in err
    assert err.count("\n") == 1 and afile.read_text() == "x"


@pytest.mark.parametrize("command", ["simulate", "track", "train", "eval", "ablate"])
def test_an_out_path_naming_a_directory_exits_2_before_any_work(
        tmp_path, config_path, sim_dir, track_dir, capsys, monkeypatch, command):
    def refuse(*args, **kwargs):
        raise AssertionError("the work started")

    for owner, name in ((sim, "generate"), (cli, "run_tracking"), (training, "train"),
                        (metrics, "evaluate")):
        monkeypatch.setattr(owner, name, refuse)
    argv = {"simulate": ["--config", config_path],
            "track": ["--config", config_path, "--detections", sim_dir],
            "train": ["--config", config_path, "--scenarios", sim_dir],
            "eval": ["--tracks", track_dir, "--gt", sim_dir],
            "ablate": ["--config", config_path]}[command]
    existing = tmp_path / "existing"
    existing.mkdir()
    new = str(tmp_path / "new") + os.sep
    # (--out, the output path in the way): --out itself when it names a file ...
    cases = [] if command in ("simulate", "track") else [(str(existing),) * 2, (new,) * 2]
    # ... and a file that the command writes beside or below it
    run = tmp_path / "run"
    derived = {"simulate": (run, run / io.RUN_META_FILE), "track": (run, run / io.TRACKS_FILE),
               "train": (run / "m.ckpt", run / "m.ckpt.losscurve.jsonl"),
               "eval": (run / "s.csv", run / "s_levels.csv")}.get(command)
    if derived:
        derived[1].mkdir(parents=True)
        cases.append(tuple(map(str, derived)))
    for out, in_the_way in cases:
        assert cli.main([command, *argv, "--out", out]) == 2
        assert capsys.readouterr().err == (f"error: --out: {in_the_way!r} is a directory, "
                                           f"not an output file path\n")
    assert os.listdir(existing) == [] and not os.path.exists(new)
    if derived:
        assert os.listdir(run) == [derived[1].name] and os.listdir(derived[1]) == []


@pytest.mark.parametrize("command", ["train", "track"])
def test_a_directory_at_an_outputs_partial_file_exits_2_before_any_work(
        tmp_path, config_path, sim_dir, capsys, monkeypatch, command):
    def refuse(*args, **kwargs):
        raise AssertionError("the work started")

    monkeypatch.setattr(cli, "run_tracking", refuse)
    monkeypatch.setattr(training, "train", refuse)
    run = tmp_path / "run"
    out, target = {"train": (run / "m.ckpt", run / "m.ckpt"),
                   "track": (run, run / io.TRACKS_FILE)}[command]
    partial = pathlib.Path(str(target) + io.PARTIAL_SUFFIX)
    partial.mkdir(parents=True)
    source = "--scenarios" if command == "train" else "--detections"
    assert cli.main([command, "--config", config_path, source, sim_dir,
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"error: --out: {str(partial)!r} is a directory, "
                                       f"but {str(target)!r} is written through that name\n")
    assert os.listdir(run) == [partial.name] and os.listdir(partial) == []


def test_eval_scores_at_the_runs_iou_threshold(tmp_path, config_path, sim_dir, capsys):
    strict_path = str(tmp_path / "strict.json")
    io.save_config(strict_path, dataclasses.replace(small_config(), eval_iou_threshold=0.5))

    def track_and_eval(name, cfg_path):
        trk = str(tmp_path / name)
        assert cli.main(["track", "--config", cfg_path, "--detections", sim_dir,
                         "--out", trk]) == 0
        out_csv = os.path.join(trk, "summary.csv")
        assert cli.main(["eval", "--tracks", trk, "--gt", sim_dir, "--out", out_csv]) == 0
        return trk, float(read_csv(out_csv)[1][1])

    _, default_amota = track_and_eval("default", config_path)
    strict, strict_amota = track_and_eval("strict", strict_path)
    capsys.readouterr()
    track_frames, _, _ = io.load_track_output(strict)
    want = metrics.evaluate(track_frames, io.load_gt_frames(sim_dir), iou_threshold=0.5)
    assert strict_amota == float(f"{want.amota:.4f}") != default_amota
    # without the run's metadata, eval falls back to the default threshold
    os.remove(os.path.join(strict, io.RUN_META_FILE))
    out_csv = str(tmp_path / "fallback.csv")
    assert cli.main(["eval", "--tracks", strict, "--gt", sim_dir, "--out", out_csv]) == 0
    assert float(read_csv(out_csv)[1][1]) == default_amota
    with open(os.path.join(strict, io.RUN_META_FILE), "w") as fh:
        json.dump({"config": {"eval_iou_threshold": 2.0}}, fh)
    capsys.readouterr()
    assert cli.main(["eval", "--tracks", strict, "--gt", sim_dir, "--out", out_csv]) == 2
    assert "run_meta.json: bad run configuration" in capsys.readouterr().err


@pytest.fixture()
def track_dir(tmp_path, config_path, sim_dir, capsys):
    out = str(tmp_path / "trk")
    assert cli.main(["track", "--config", config_path, "--detections", sim_dir,
                     "--out", out]) == 0
    capsys.readouterr()
    return out


def test_eval_rejects_a_mistyped_run_config(tmp_path, track_dir, sim_dir, capsys):
    meta_path = os.path.join(track_dir, io.RUN_META_FILE)
    with open(meta_path) as fh:
        meta = json.load(fh)
    meta["config"]["train"]["epochs"] = "3"
    with open(meta_path, "w") as fh:
        json.dump(meta, fh)
    out_csv = tmp_path / "summary.csv"
    assert cli.main(["eval", "--tracks", track_dir, "--gt", sim_dir,
                     "--out", str(out_csv)]) == 2
    assert "run_meta.json: bad run configuration (train.epochs: " in capsys.readouterr().err
    assert not out_csv.exists() and not (tmp_path / "summary_levels.csv").exists()


@pytest.mark.parametrize("name, named", [(io.TRACKS_FILE, "id"), (io.GT_FILE, "obj")])
def test_eval_rejects_a_log_that_repeats_a_record(tmp_path, track_dir, sim_dir, capsys,
                                                  name, named):
    path = os.path.join(track_dir if name == io.TRACKS_FILE else sim_dir, name)
    with open(path) as fh:
        lines = fh.read().splitlines()
    last = json.loads(lines[-1])
    with open(path, "a") as fh:
        fh.write(lines[-1] + "\n")
    out_csv = tmp_path / "summary.csv"
    assert cli.main(["eval", "--tracks", track_dir, "--gt", sim_dir,
                     "--out", str(out_csv)]) == 2
    assert capsys.readouterr().err == (
        f"error: {path} line {len(lines) + 1}: repeats the t={last['t']}, "
        f"{named}={last[named]} of line {len(lines)}\n")
    assert not out_csv.exists() and not (tmp_path / "summary_levels.csv").exists()


def test_eval_rejects_a_ground_truth_log_without_records(tmp_path, track_dir, sim_dir, capsys):
    path = os.path.join(sim_dir, io.GT_FILE)
    with open(path) as fh:
        header = fh.readline()
    with open(path, "w") as fh:
        fh.write(header)
    out_csv = tmp_path / "summary.csv"
    assert cli.main(["eval", "--tracks", track_dir, "--gt", sim_dir,
                     "--out", str(out_csv)]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: no ground-truth records; metrics are undefined\n")
    assert not out_csv.exists() and not (tmp_path / "summary_levels.csv").exists()


@pytest.mark.parametrize("comm", ['{}', '{"mb_total": "x"}', '{"mb_total": 1e400}',
                                  '{"mb_total": -3}', '{"mb_total": true}', '[1]'],
                         ids=["empty", "string", "1e400", "negative", "bool", "not-an-object"])
def test_eval_rejects_a_bad_comm_file_before_writing(tmp_path, track_dir, sim_dir, capsys,
                                                     comm):
    with open(os.path.join(track_dir, io.COMM_FILE), "w") as fh:
        fh.write(comm)
    out_csv = tmp_path / "summary.csv"
    assert cli.main(["eval", "--tracks", track_dir, "--gt", sim_dir,
                     "--out", str(out_csv)]) == 2
    assert f"error: {os.path.join(track_dir, io.COMM_FILE)}: " in capsys.readouterr().err
    assert not out_csv.exists() and not (tmp_path / "summary_levels.csv").exists()


# --- comm-cost -------------------------------------------------------------------


def test_comm_cost_reports_payload_ratio(sim_dir, capsys):
    assert cli.main(["comm-cost", "--detections", sim_dir]) == 0
    out = capsys.readouterr().out
    assert "payload ratio vs box-only: 2.4286" in out
    dets = io.read_log(os.path.join(sim_dir, io.DETECTIONS_FILE), io.FORMAT_DETECTIONS)
    non_ego = sum(1 for r in dets if r["cav"] != 0)
    assert f"shared detections: {non_ego}" in out
    assert f"bytes total: {non_ego * 17 * 4}" in out


def test_comm_cost_converts_no_box(sim_dir, capsys, monkeypatch):
    calls = []

    def counted(boxes):
        calls.append(1)
        return box_rows(boxes)

    monkeypatch.setattr(pipeline, "box_rows", counted)
    assert cli.main(["comm-cost", "--detections", sim_dir]) == 0
    assert "shared detections: " in capsys.readouterr().out
    assert calls == []


# --- ablate ----------------------------------------------------------------------


def test_ablate_produces_four_variant_grid(tmp_path, config_path, capsys):
    out_csv = str(tmp_path / "new" / "grid.csv")  # ablate creates the directory
    assert cli.main(["ablate", "--config", config_path, "--out", out_csv]) == 0
    capsys.readouterr()
    rows = read_csv(out_csv)
    assert rows[0] == metrics.SUMMARY_COLUMNS
    labels = [r[0] for r in rows[1:]]
    assert labels == ["constant", "appearance_only", "positional_only", "both"]
    costs = [float(r[-1]) for r in rows[1:]]
    # constant shares boxes only; every learned variant ships the full vector
    assert costs[1] == costs[2] == costs[3]
    assert costs[1] == pytest.approx(costs[0] * 17 / 7)
    for row in rows[1:]:
        amota = float(row[1])
        assert 0.0 <= amota <= 100.0


def test_ablate_on_a_scenario_shorter_than_one_window_exits_2_writing_nothing(
        tmp_path, capsys, monkeypatch):
    config = tmp_path / "short.json"
    config.write_text(json.dumps({"scenario": {"duration": 5}, "train": {"epochs": 2}}))

    def refuse(*args, **kwargs):
        raise AssertionError("the work started")

    monkeypatch.setattr(sim, "generate", refuse)
    assert cli.main(["ablate", "--config", str(config),
                     "--out", str(tmp_path / "new" / "grid.csv")]) == 2
    err = capsys.readouterr().err
    assert "scenario.duration" in err and "5 frame(s)" in err and "window of 10" in err
    assert os.listdir(tmp_path) == ["short.json"]


# --- error handling and help ------------------------------------------------------


def test_bad_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"sede": 1}')
    code = cli.main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("config, key", [
    ({"train": {"epochs": "3"}}, "train.epochs"),
    ({"seed": 1.5}, "seed"),
    ({"normalization_bounds": 3}, "normalization_bounds"),
    ({"eval_iou_threshold": "0.3"}, "eval_iou_threshold"),
    ({"seed": -1}, "seed"),
    ({"scenario": {"duration": True}}, "scenario.duration"),
    ({"tracker": {"min_hits": 2.5}}, "tracker.min_hits"),
    ({"covnet": {"use_appearance": 0}}, "covnet.use_appearance"),
    ({"covnet": {"kernel": 0}}, "covnet.kernel"),
], ids=lambda v: v if isinstance(v, str) else None)
def test_bad_config_value_exits_2_naming_its_key(tmp_path, capsys, config, key):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(config))
    out = tmp_path / "o"
    assert cli.main(["simulate", "--config", str(bad), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}: {key}: ")
    assert not out.exists()


def test_config_that_is_not_utf8_exits_2_naming_its_path(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'\xff{"seed": 1}')
    assert cli.main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert f"error: {bad}: invalid JSON" in capsys.readouterr().err


def test_wrong_log_format_exits_2(tmp_path, config_path, sim_dir, capsys):
    # point eval at a directory whose gt file is actually a detections log
    trk = str(tmp_path / "trk")
    assert cli.main(["track", "--config", config_path, "--detections", sim_dir,
                     "--out", trk]) == 0
    swapped = tmp_path / "swapped"
    swapped.mkdir()
    (swapped / io.GT_FILE).write_bytes(pathlib.Path(sim_dir, io.DETECTIONS_FILE).read_bytes())
    code = cli.main(["eval", "--tracks", trk, "--gt", str(swapped),
                     "--out", str(tmp_path / "s.csv")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_missing_input_exits_1(tmp_path, config_path, capsys):
    code = cli.main(["track", "--config", config_path,
                     "--detections", str(tmp_path / "nowhere"),
                     "--out", str(tmp_path / "o")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_an_input_that_cannot_be_read_exits_1_with_one_line(tmp_path, capsys):
    out = tmp_path / "o"
    assert cli.main(["simulate", "--config", str(tmp_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(tmp_path) in err and err.count("\n") == 1
    assert not out.exists()


def test_help_documents_every_config_key(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out

    def walk(cls, prefix):
        hints = typing.get_type_hints(cls)
        for f in dataclasses.fields(cls):
            name = f"{prefix}{f.name}"
            if dataclasses.is_dataclass(hints[f.name]):
                walk(hints[f.name], name + ".")
            else:
                allowed = io.CONFIG_RANGES.get(name)
                assert (f"  {name}: {io.type_name(hints[f.name])}, "
                        f"default {io.canonical_json(f.default)}"
                        + (f", allowed {allowed.text}" if allowed else "")) in text, \
                    f"--help missing config key {name}"

    walk(RunConfig, "")
    for command in ("simulate", "track", "train", "eval", "comm-cost", "ablate"):
        assert command in text

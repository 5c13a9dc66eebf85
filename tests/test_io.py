"""Tests for persistence: configs, JSONL logs, tensor stores, checkpoints."""

import ast
import contextlib
import dataclasses
import hashlib
import json
import math
import os
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cooptrack import cli, io, metrics, pipeline, sim, training
from cooptrack.covnet import CovNetParams
from cooptrack.geometry import Box7, PoseYawT
from cooptrack.io import (Checkpoint, ConfigError, LogFormatError, NetSettings,
                          RunConfig, ScenarioConfig, TrainSettings,
                          TrackerSettings)


def small_config(**kw) -> RunConfig:
    defaults = dict(covnet=NetSettings(conv_channels=(4, 8), pos_hidden=8,
                                       pos_out=32, head_hidden=8))
    defaults.update(kw)
    return RunConfig(**defaults)


# --- canonical JSON --------------------------------------------------------------


def test_canonical_json_is_sorted_and_compact():
    s = io.canonical_json({"b": 1, "a": [1.5, 2]})
    assert s == '{"a":[1.5,2],"b":1}'


def test_canonical_json_round_trips_floats_exactly():
    values = [0.1, 1 / 3, 1e-300, 123456.789, float(np.float64(np.pi))]
    for v in values:
        assert json.loads(io.canonical_json({"v": v}))["v"] == v


def test_canonical_json_rejects_nan():
    with pytest.raises(ValueError):
        io.canonical_json({"v": float("nan")})


# --- config round trip -----------------------------------------------------------


def test_config_round_trip_preserves_everything(tmp_path):
    cfg = RunConfig(
        seed=7, num_cavs=3, eval_iou_threshold=0.3,
        scenario=ScenarioConfig(duration=50, noise_multiplier=1.5),
        tracker=TrackerSettings(min_hits=2, score_decay=0.8),
        covnet=NetSettings(conv_channels=(8, 16), pos_out=64, use_appearance=True),
        train=TrainSettings(epochs=5, lr=3e-4))
    path = tmp_path / "config.json"
    io.save_config(str(path), cfg)
    loaded = io.load_config(str(path))
    assert loaded == cfg
    # tuples must come back as tuples, not lists
    assert isinstance(loaded.covnet.conv_channels, tuple)
    assert isinstance(loaded.normalization_bounds[0], tuple)


def test_config_defaults_from_empty_dict():
    cfg = io.config_from_dict({})
    assert cfg == RunConfig()


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown key"):
        io.config_from_dict({"sede": 1})
    with pytest.raises(ConfigError, match=r"tracker: unknown key.*min_hitz"):
        io.config_from_dict({"tracker": {"min_hitz": 3}})


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        io.config_from_dict({"num_cavs": 0})
    with pytest.raises(ConfigError):
        io.config_from_dict({"tracker": {"assoc_iou_threshold": 1.5}})
    with pytest.raises(ConfigError, match=r"scenario: unknown key\(s\) \['preset'\]"):
        io.config_from_dict({"scenario": {"preset": "v2v_mini"}})  # a retired key
    with pytest.raises(ConfigError):
        io.config_from_dict({"train": {"center_distance": "4d"}})
    with pytest.raises(ConfigError):
        io.config_from_dict({"normalization_bounds": [[0, 1]]})
    with pytest.raises(ConfigError, match="covnet: at least one input branch"):
        io.config_from_dict({"covnet": {"use_appearance": False, "use_positional": False}})


def _config_paths(data, prefix=()):
    """The path of every section and setting in a config dict."""
    for name, value in data.items():
        yield prefix + (name,)
        if isinstance(value, dict):
            yield from _config_paths(value, prefix + (name,))


def _filled(data, defaults):
    """`data` with the settings it leaves out taken from `defaults`."""
    return {k: _filled(data.get(k, {}), v) if isinstance(v, dict) else data.get(k, v)
            for k, v in defaults.items()}


def _same_types(value, default) -> bool:
    """Whether `value` has the JSON types of `default`, list items those of its first
    item; an int may stand for a float."""
    if isinstance(default, dict):
        return all(_same_types(value[k], v) for k, v in default.items())
    if isinstance(default, list):
        return isinstance(value, list) and all(_same_types(v, default[0]) for v in value)
    if isinstance(default, float):
        return type(value) in (int, float)
    return type(value) is type(default)


_DEFAULT_CONFIG = io.config_to_dict(RunConfig())
_CONFIG_PATHS = sorted(_config_paths(_DEFAULT_CONFIG))
# JSON values that a hand-edited config might hold where another belongs: strings,
# bools, floats where ints belong, lists of the wrong length, 1e400 (which JSON
# reads as infinity), null and nested objects
_ANY_JSON = st.one_of(
    st.text(max_size=4), st.booleans(), st.none(), st.just(math.inf),
    st.integers(-3, 200), st.floats(-10, 300, allow_nan=False),
    st.lists(st.integers(1, 40), max_size=5),
    st.lists(st.lists(st.floats(-5, 5), min_size=1, max_size=3), max_size=3),
    st.dictionaries(st.sampled_from(["a", "seed", "epochs"]), st.integers(0, 3), max_size=2))


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(path=st.sampled_from(_CONFIG_PATHS), draw=st.data())
def test_a_mutated_config_round_trips_or_is_rejected_naming_its_key(path, draw):
    data = json.loads(json.dumps(_DEFAULT_CONFIG))
    section = data
    for name in path[:-1]:
        section = section[name]
    default, mutations = section[path[-1]], _ANY_JSON
    if isinstance(default, list) and draw.draw(st.booleans()):
        # half the time a list loses its last item or repeats it
        mutations = st.sampled_from([default[:-1], default + default[-1:]])
    section[path[-1]] = draw.draw(mutations)
    key = ".".join(path)
    # a rule across covnet keys, such as the branch widths, names the section
    prefixes = (f"{key}: ", "covnet: ") if path[0] == "covnet" else (f"{key}: ",)
    try:
        cfg = io.config_from_dict(data)
    except ConfigError as exc:
        assert str(exc).startswith(prefixes), str(exc)
    else:
        parsed = io.config_to_dict(cfg)
        assert io.canonical_json(parsed) == io.canonical_json(_filled(data, _DEFAULT_CONFIG))
        assert _same_types(parsed, _DEFAULT_CONFIG), parsed


def test_config_ranges_name_real_keys_and_cover_every_number():
    types = {key: io.type_name(hint) for key, hint, _ in io.config_keys()}
    assert set(io.CONFIG_RANGES) <= set(types), "a range names no config key"
    numeric = {key for key, name in types.items() if "int" in name or "float" in name}
    assert numeric <= set(io.CONFIG_RANGES), "a number has no range"
    for key, _, default in io.config_keys():
        assert key not in io.CONFIG_RANGES or io.CONFIG_RANGES[key].test(default), key
    seed = io.CONFIG_RANGES["seed"]
    assert seed.text == ">= 0" and seed.test(0) and not seed.test(-1)
    for cls, ranges in io.FILE_RANGES.items():
        assert set(ranges) <= {f.name for f in dataclasses.fields(cls)}, cls.__name__


def _readme_config_table() -> dict:
    """{key: [type, default, allowed, meaning]} from the README's configuration table."""
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Configuration\n")[1].split("\n## ")[0]
    rows = [[cell.strip() for cell in line.strip("|").split("|")]
            for line in section.splitlines() if line.startswith("| `")]
    return {row[0].strip("`"): row[1:] for row in rows}


def test_readme_config_table_matches_the_schema():
    table = _readme_config_table()
    assert list(table) == [key for key, _, _ in io.config_keys()]
    for key, hint, default in io.config_keys():
        type_cell, default_cell, allowed_cell, _ = table[key]
        assert type_cell == io.type_name(hint), key
        assert io.canonical_json(json.loads(default_cell.strip("`"))) == \
            io.canonical_json(default), key
        allowed = io.CONFIG_RANGES.get(key)
        assert allowed_cell == (allowed.text if allowed else "any"), key


def test_config_hash_stable_and_sensitive():
    a = io.config_hash(RunConfig())
    b = io.config_hash(RunConfig())
    c = io.config_hash(RunConfig(seed=1))
    assert a == b
    assert a != c
    assert len(a) == 64


def test_run_metadata_written(tmp_path):
    path = io.write_run_metadata(str(tmp_path), RunConfig(seed=4), "track")
    with open(path) as fh:
        meta = json.loads(fh.read())
    assert meta["seed"] == 4
    assert meta["command"] == "track"
    assert meta["config_sha256"] == io.config_hash(RunConfig(seed=4))


# --- JSONL logs ------------------------------------------------------------------


BOX = Box7(1.0, 2.0, 0.5, 0.1, 4.2, 1.9, 1.6)
POSE = PoseYawT(0.0, 0.0, 1.2, 0.05)


def test_track_log_round_trip_byte_identical(tmp_path):
    records = [io.track_record(t, tid, BOX, 0.5 + 0.01 * t)
               for t in range(3) for tid in (1, 2)]
    path = tmp_path / "tracks.jsonl"
    io.write_log(str(path), io.FORMAT_TRACKS, records)
    loaded = io.read_log(str(path), io.FORMAT_TRACKS)
    assert loaded == records
    # re-serializing what we read reproduces the file exactly
    path2 = tmp_path / "again.jsonl"
    io.write_log(str(path2), io.FORMAT_TRACKS, loaded)
    assert path.read_bytes() == path2.read_bytes()
    # header keys beyond the format and version are ignored
    lines = path.read_text().split("\n")
    lines[0] = io.canonical_json({"format": io.FORMAT_TRACKS, "version": 1,
                                  "meta": {"run": "a"}})
    path2.write_text("\n".join(lines))
    assert io.read_log(str(path2), io.FORMAT_TRACKS) == records


def test_detection_log_round_trip(tmp_path):
    rec = io.detection_record(0, 1, BOX, 0.9, POSE, app_index=3)
    path = tmp_path / "dets.jsonl"
    io.write_log(str(path), io.FORMAT_DETECTIONS, [rec])
    loaded = io.read_log(str(path), io.FORMAT_DETECTIONS)
    assert loaded == [rec]
    assert io.record_box(rec).to_vector() == pytest.approx(BOX.to_vector())
    assert io.record_pose(rec) == POSE
    # earlier releases wrote ten `sigma` residuals into every record; such a log loads
    old = dict(rec, sigma=list(range(10)))
    io.write_log(str(path), io.FORMAT_DETECTIONS, [old])
    assert io.read_log(str(path), io.FORMAT_DETECTIONS) == [old]


def _detections_dir(root, records) -> str:
    """A scene directory of the given detection records, no ground truth or tensors."""
    io.write_log(str(root / io.GT_FILE), io.FORMAT_GROUNDTRUTH, [])
    io.write_log(str(root / io.DETECTIONS_FILE), io.FORMAT_DETECTIONS, records)
    return str(root)


def test_a_conflicting_pose_is_rejected_next_to_or_away_from_its_pairs_first_record(tmp_path):
    other = PoseYawT(5.0, 0.0, 1.2, 0.05)
    moved = PoseYawT(0.0, 0.0, 1.2, 0.06)
    for between in ([], [(0, 1, other)], [(1, 0, POSE)], [(0, 1, other), (1, 0, POSE)]):
        records = [io.detection_record(t, cav, BOX, 0.9, pose)
                   for t, cav, pose in [(0, 0, POSE), *between, (0, 0, moved)]]
        with pytest.raises(LogFormatError,
                           match=r"detections\.jsonl: conflicting poses for t=0 cav=0$"):
            io.load_sim_frames(_detections_dir(tmp_path, records))


def test_raw_poses_equal_after_yaw_wrapping_are_one_pose(tmp_path):
    pose = PoseYawT(1.0, 2.0, 0.0, math.pi)  # its yaw wraps to -pi
    records = [io.detection_record(0, cav, BOX, conf, POSE if cav else pose)
               for cav, conf in ((0, 0.9), (1, 0.9), (0, 0.8), (0, 0.7))]
    # vehicle 0 writes yaw -pi, then pi after another vehicle's record, then -pi
    records[2]["pose"][3] = math.pi
    assert [r["pose"][3] for r in records] == [-math.pi, POSE.yaw, math.pi, -math.pi]
    frames, _ = io.load_sim_frames(_detections_dir(tmp_path, records))
    assert frames[0].poses == {0: pose, 1: POSE}
    assert [d.confidence for d in frames[0].detections[0]] == [0.9, 0.8, 0.7]


def test_log_rejects_wrong_format_and_version(tmp_path):
    path = tmp_path / "log.jsonl"
    io.write_log(str(path), io.FORMAT_TRACKS, [])
    with pytest.raises(LogFormatError, match="expected"):
        io.read_log(str(path), io.FORMAT_GROUNDTRUTH)
    bad = tmp_path / "bad.jsonl"
    bad.write_text(io.canonical_json({"format": io.FORMAT_TRACKS, "version": 99}) + "\n")
    with pytest.raises(LogFormatError, match="version"):
        io.read_log(str(bad), io.FORMAT_TRACKS)
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(LogFormatError, match="empty"):
        io.read_log(str(empty), io.FORMAT_TRACKS)


def test_log_error_reports_line_number(tmp_path):
    path = tmp_path / "log.jsonl"
    lines = [io.canonical_json({"format": io.FORMAT_TRACKS, "version": 1}),
             io.canonical_json(io.track_record(0, 1, BOX, 0.5)),
             "{not json"]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(LogFormatError, match="line 3"):
        io.read_log(str(path), io.FORMAT_TRACKS)


def test_log_lines_end_at_line_feeds_alone(tmp_path):
    # U+2028, U+2029 and U+0085 are line boundaries to str.splitlines, yet JSON
    # strings may hold them unescaped
    header = io.canonical_json({"format": io.FORMAT_TRACKS, "version": 1})
    rec = io.track_record(0, 1, BOX, 0.5)
    noted = io.canonical_json(rec).replace("{", '{"note":"a\u2028b\u2029c\x85d",', 1)
    path = tmp_path / "log.jsonl"
    path.write_text(f"{header}\n{noted}\n{{not json\n", encoding="utf-8")
    with pytest.raises(LogFormatError, match="line 3: invalid JSON"):
        io.read_log(str(path), io.FORMAT_TRACKS)
    path.write_text(f"{header}\n{noted}\n", encoding="utf-8")
    assert io.read_log(str(path), io.FORMAT_TRACKS) == [dict(rec, note="a\u2028b\u2029c\x85d")]


def test_log_with_crlf_line_ends_and_blank_lines_loads(tmp_path):
    records = [io.track_record(t, 1, BOX, 0.5) for t in range(3)]
    path = tmp_path / "log.jsonl"
    io.write_log(str(path), io.FORMAT_TRACKS, records)
    lines = path.read_bytes().split(b"\n")
    path.write_bytes(b"\r\n".join(lines))
    assert io.read_log(str(path), io.FORMAT_TRACKS) == records
    path.write_bytes(b"\n\r\n\n".join(lines) + b"\r\n\n")
    assert io.read_log(str(path), io.FORMAT_TRACKS) == records
    path.write_bytes(b"\n".join(lines[:2] + [b"", b"\r", b"{not json"]))
    with pytest.raises(LogFormatError, match="line 5: invalid JSON"):
        io.read_log(str(path), io.FORMAT_TRACKS)


def test_log_validates_record_fields(tmp_path):
    path = tmp_path / "log.jsonl"
    with pytest.raises(LogFormatError, match="^record 0: box: missing$"):
        io.write_log(str(path), io.FORMAT_TRACKS, [{"t": 0, "id": 1}])
    bad_box = io.track_record(0, 1, BOX, 0.5)
    bad_box["box"] = bad_box["box"][:5]
    with pytest.raises(LogFormatError, match=r"^record 0: box: expected \[float, float, float, "
                                             r"float, float, float, float\], got \[1\.0, "):
        io.write_log(str(path), io.FORMAT_TRACKS, [bad_box])
    neg_extent = io.track_record(0, 1, BOX, 0.5)
    neg_extent["box"][4] = -1.0
    with pytest.raises(LogFormatError, match=r"^record 0: box: must be \[x, y, z, yaw, l, w, h\] "
                                             r"with l, w, h > 0, got "):
        io.write_log(str(path), io.FORMAT_TRACKS, [neg_extent])
    bad_conf = io.detection_record(0, 0, BOX, 0.9, POSE)
    bad_conf["conf"] = 1.5
    with pytest.raises(LogFormatError, match=r"^record 0: conf: must be in \(0, 1\], got 1\.5$"):
        io.write_log(str(path), io.FORMAT_DETECTIONS, [bad_conf])
    with pytest.raises(LogFormatError, match="^record 0: epoch: expected int, got 'x'$"):
        io.write_log(str(path), io.FORMAT_LOSSCURVE,
                     [{"epoch": "x", "window": 0, "loss": 0.5, "supervised": 3}])


def test_log_rejects_non_finite_numbers(tmp_path):
    # json accepts NaN and Infinity, so a hand-edited log can carry them
    header = io.canonical_json({"format": io.FORMAT_GROUNDTRUTH, "version": 1})
    path = tmp_path / "gt.jsonl"
    path.write_text(header + '\n{"box":[NaN,0,0,0,Infinity,1,1],"obj":0,"t":0}\n')
    with pytest.raises(LogFormatError, match=r"gt\.jsonl line 2: box: expected \[float, "):
        io.read_log(str(path), io.FORMAT_GROUNDTRUTH)
    header = io.canonical_json({"format": io.FORMAT_DETECTIONS, "version": 1})
    good = io.canonical_json(io.detection_record(0, 0, BOX, 0.9, POSE))
    for field, bad in (("conf", "NaN"), ("box", "[1.0,2.0,0.5,0.1,Infinity,1.9,1.6]"),
                       ("pose", "[0.0,NaN,1.2,0.05]"),
                       ("box", "[1" + "0" * 400 + ",0,0,0,4,2,1.5]")):  # beyond float range
        rec = json.loads(good)
        rec[field] = "@"
        line = io.canonical_json(rec).replace('"@"', bad)
        path = tmp_path / "dets.jsonl"
        path.write_text(header + "\n" + good + "\n" + line + "\n")
        with pytest.raises(LogFormatError, match=rf"dets\.jsonl line 3: {field}: expected "):
            io.read_log(str(path), io.FORMAT_DETECTIONS)


def test_gt_log_round_trip(tmp_path):
    records = [io.gt_record(t, obj, BOX) for t in range(2) for obj in range(3)]
    path = tmp_path / "gt.jsonl"
    io.write_log(str(path), io.FORMAT_GROUNDTRUTH, records)
    loaded = io.read_log(str(path), io.FORMAT_GROUNDTRUTH)
    assert loaded == records


@pytest.mark.parametrize("format_name, record, named", [
    (io.FORMAT_TRACKS, lambda t, i: io.track_record(t, i, BOX, 0.5), "t=1, id=2"),
    (io.FORMAT_GROUNDTRUTH, lambda t, i: io.gt_record(t, i, BOX), "t=1, obj=2"),
], ids=["tracks", "gt"])
def test_a_log_repeating_a_records_key_is_refused_and_rejected(tmp_path, format_name,
                                                               record, named):
    path = str(tmp_path / "log.jsonl")
    records = [record(t, i) for t in range(2) for i in (1, 2)]
    with pytest.raises(LogFormatError, match=rf"^record 4: repeats the {named} of record 3$"):
        io.write_log(path, format_name, records + [record(1, 2)])
    # the same id at another timestep, or another id at the same one, is fine
    io.write_log(path, format_name, records)
    with open(path, "a") as fh:
        fh.write(io.canonical_json(record(1, 2)) + "\n")
    with pytest.raises(LogFormatError, match=rf"log\.jsonl line 6: repeats the {named} "
                                             rf"of line 5$"):
        io.read_log(path, format_name)


def test_a_detection_log_may_repeat_a_vehicles_timestep(tmp_path):
    path = str(tmp_path / "dets.jsonl")
    records = [io.detection_record(0, 1, BOX, 0.9, POSE)] * 2
    io.write_log(path, io.FORMAT_DETECTIONS, records)
    assert io.read_log(path, io.FORMAT_DETECTIONS) == records


def _reference_write_log(path, format_name, records):
    """`io.write_log` as a loop over records: each is checked, then written."""
    key_of, seen = io._KEY_OF.get(format_name), {}
    with io.replace_file(path) as fh:
        fh.write(io.canonical_json({"format": format_name, "version": io.SCHEMA_VERSION}))
        fh.write("\n")
        for i, rec in enumerate(records):
            io._check_file_object(io._LOG_RECORDS[format_name], rec, f"record {i}")
            if key_of and (first := seen.setdefault(key_of(rec), i)) != i:
                raise io._repeated(format_name, key_of(rec), "", "record", i, first)
            fh.write(io.canonical_json(rec))
            fh.write("\n")


def _reference_read_log(path, format_name):
    """`io.read_log` as a loop over lines: each record is checked as it is parsed."""
    records = []
    with open(path, "rb") as fh:
        data = fh.read()
    if not data:
        raise LogFormatError(f"{path}: empty file (missing header)")
    try:
        lines = data.decode("utf-8").split("\n")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise LogFormatError(f"{path} line {lineno}: not valid UTF-8") from exc
    io._read_header(lines[0], path, format_name, "log")
    key_of, seen = io._KEY_OF.get(format_name), {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.rstrip("\r"):
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise LogFormatError(f"{path} line {lineno}: invalid JSON ({exc})") from exc
        if not isinstance(rec, dict):
            raise LogFormatError(f"{path} line {lineno}: record must be a JSON object")
        io._check_file_object(io._LOG_RECORDS[format_name], rec, f"{path} line {lineno}")
        if key_of and (first := seen.setdefault(key_of(rec), lineno)) != lineno:
            raise io._repeated(format_name, key_of(rec), f"{path} ", "line", lineno, first)
        records.append(rec)
    return records


# a valid log of each kind, as its writers give it
_VALID_LOGS = {
    io.FORMAT_DETECTIONS: [io.detection_record(t, cav, BOX, 0.9 - 0.1 * t, POSE,
                                               app_index=None if t == 1 else 2 * t + cav)
                           for t in range(3) for cav in (0, 1)],
    io.FORMAT_TRACKS: [io.track_record(t, tid, BOX, 0.25 * tid) for t in range(3)
                       for tid in (1, 2)],
    io.FORMAT_GROUNDTRUTH: [io.gt_record(t, obj, BOX) for t in range(3) for obj in (0, 1)],
    io.FORMAT_LOSSCURVE: [{"epoch": e, "window": w, "loss": 0.5 + e + 0.25 * w,
                           "supervised": 2 * w} for e in range(2) for w in range(3)],
}


def _places(rec, format_name, hint):
    """(container, key) of each value of `rec` whose type hint is `hint`: its fields
    and, for float, the items of its box and pose lists."""
    schema = io._schema(io._LOG_RECORDS[format_name])
    places = [(rec, name) for name, h, _, _ in schema if h in (hint, hint | None)]
    if hint is float:
        places += [(rec[name], j) for name in ("box", "pose")
                   if isinstance(rec.get(name), list) for j in range(len(rec[name]))]
    return places


def _set_some(hint, values):
    """A mutation setting a value of type `hint` to one of `values`."""
    def mutate(rec, draw, format_name, records):
        container, key = draw.draw(st.sampled_from(_places(rec, format_name, hint)))
        container[key] = draw.draw(st.sampled_from(values))
    return mutate


def _zero_extent(rec, draw, format_name, records):
    if isinstance(rec.get("box"), list) and len(rec["box"]) == 7:
        rec["box"][draw.draw(st.integers(4, 6))] = draw.draw(st.sampled_from([0.0, -0.0]))


def _box_length(rec, draw, format_name, records):
    if isinstance(rec.get("box"), list):
        rec["box"] = draw.draw(st.sampled_from([rec["box"][:-1], rec["box"] + [1.0], []]))


def _tuple_for_list(rec, draw, format_name, records):
    for name in ("box", "pose"):
        if isinstance(rec.get(name), list):
            rec[name] = tuple(rec[name])


def _missing_key(rec, draw, format_name, records):
    if rec:
        del rec[draw.draw(st.sampled_from(sorted(rec)))]


def _extra_key(rec, draw, format_name, records):
    rec[draw.draw(st.sampled_from(["extra", "sigma"]))] = draw.draw(_ANY_JSON)


def _repeated_key(rec, draw, format_name, records):
    other = draw.draw(st.sampled_from(records))
    for name in io._LOG_KEYS.get(format_name, ()):
        if name in other:
            rec[name] = other[name]


# mutations of one record of a log, each (record, draw, format, the log's records) -> None
_MUTATIONS = {
    "any-value": lambda rec, draw, format_name, records: _mutate_value(rec, draw),
    "bool-for-int": _set_some(int, [True, False]),
    "int-for-float": _set_some(float, [0, 1, 3, -2, 10**400]),
    "non-finite": _set_some(float, [math.nan, math.inf, -math.inf]),
    "negative-count": _set_some(int, [-1]),
    "zero-extent": _zero_extent,
    "box-length": _box_length,
    "tuple-for-list": _tuple_for_list,
    "missing-key": _missing_key,
    "extra-key": _extra_key,
    "repeated-key": _repeated_key,
}


@settings(max_examples=600, deadline=None, database=None, derandomize=True)
@given(format_name=st.sampled_from(sorted(_VALID_LOGS)), draw=st.data())
def test_log_checks_equal_the_per_record_loop(tmp_path_factory, format_name, draw):
    records = json.loads(json.dumps(_VALID_LOGS[format_name]))
    for _ in range(draw.draw(st.integers(0, 2))):
        rec = draw.draw(st.sampled_from(records))
        _MUTATIONS[draw.draw(st.sampled_from(sorted(_MUTATIONS)))](rec, draw, format_name,
                                                                    records)
    if draw.draw(st.booleans()):  # a record that is not an object
        records[draw.draw(st.integers(0, len(records) - 1))] = draw.draw(
            st.sampled_from([[1, 2], 5, "x", None, []]))
    root = tmp_path_factory.mktemp("logs")

    def outcome(call):
        try:
            return "ok", json.dumps(call())
        except Exception as exc:  # the type and message are compared
            return type(exc).__name__, str(exc)

    def written(write, name, given):
        write(str(root / name), format_name, given)
        return (root / name).read_text(encoding="utf-8")

    expected = outcome(lambda: written(_reference_write_log, "ref.jsonl", records))
    assert outcome(lambda: written(io.write_log, "new.jsonl", records)) == expected
    assert outcome(lambda: written(io.write_log, "gen.jsonl", iter(records))) == expected
    # the read side: the records as json writes them (NaN, 400-digit ints, spaces),
    # with invalid JSON or blank lines inserted and LF or CRLF line ends
    lines = [io.canonical_json({"format": format_name, "version": 1})]
    lines += [json.dumps(rec) for rec in records]
    for _ in range(draw.draw(st.integers(0, 2))):
        lines.insert(draw.draw(st.integers(1, len(lines))),
                     draw.draw(st.sampled_from(["{not json", "", "\r", "[1,", " "])))
    end = draw.draw(st.sampled_from(["\n", "\r\n"]))
    path = root / "log.jsonl"
    path.write_bytes((end.join(lines) + end).encode())
    assert outcome(lambda: io.read_log(str(path), format_name)) == \
        outcome(lambda: _reference_read_log(str(path), format_name))


@pytest.fixture
def walk_calls(monkeypatch):
    """The `where` argument of every `io._check_file_object` call."""
    calls = []
    check = io._check_file_object

    def spy(cls, data, where):
        calls.append(where)
        return check(cls, data, where)

    monkeypatch.setattr(io, "_check_file_object", spy)
    return calls


def test_canonical_logs_never_take_the_per_record_walk(tmp_path, walk_calls):
    from test_sim import _lane_scenario
    frames = sim.generate(_lane_scenario())  # 40 objects, 3 vehicles
    io.write_sim_output(frames, str(tmp_path / "data"), (8, 8, 8))
    loaded, det_records = io.load_sim_frames(str(tmp_path / "data"))
    assert len(det_records) > 500
    reports, cost = cli.run_tracking(RunConfig(num_cavs=3), loaded)
    io.write_track_output(str(tmp_path / "run"), loaded, reports, cost)
    track_frames, _, _ = io.load_track_output(str(tmp_path / "run"))
    assert sum(map(len, track_frames.values())) > 100
    # the tensor header and comm file are single objects, checked as before
    assert walk_calls == [f"{tmp_path}/data/{io.TENSORS_FILE} line 1",
                          f"{tmp_path}/run/{io.COMM_FILE}"]
    walk_calls.clear()
    for format_name, records in _VALID_LOGS.items():  # a loss curve too
        io.write_log(str(tmp_path / "log.jsonl"), format_name, records)
        assert io.read_log(str(tmp_path / "log.jsonl"), format_name) == records
    assert walk_calls == []


@pytest.mark.parametrize("format_name", sorted(_VALID_LOGS))
def test_a_log_with_a_bad_record_is_walked_up_to_it(tmp_path, walk_calls, format_name):
    records = [dict(rec) for rec in _VALID_LOGS[format_name]]
    records[3]["epoch" if format_name == io.FORMAT_LOSSCURVE else "t"] = -1
    path = tmp_path / "log.jsonl"
    with pytest.raises(LogFormatError, match=r"^record 3: (t|epoch): must be >= 0, got -1$"):
        io.write_log(str(path), format_name, records)
    assert walk_calls == [f"record {i}" for i in range(4)]
    walk_calls.clear()
    lines = [io.canonical_json({"format": format_name, "version": 1})]
    lines += [io.canonical_json(rec) for rec in records] + ["{not json"]
    path.write_text("\n".join(lines) + "\n")
    # the bad record comes before the invalid line, so it is the one named
    with pytest.raises(LogFormatError, match=r"log\.jsonl line 5: (t|epoch): must be >= 0"):
        io.read_log(str(path), format_name)
    assert walk_calls == [f"{path} line {n}" for n in range(2, 6)]


# --- tensor store ----------------------------------------------------------------


def test_tensor_store_round_trip(tmp_path):
    path = str(tmp_path / "app.bin")
    rng = np.random.default_rng(0)
    tensors = [rng.standard_normal((3, 4, 4)) for _ in range(5)]
    io.write_tensors(path, tensors, (3, 4, 4))
    loaded = io.read_tensors(path)
    assert loaded.shape == (5, 3, 4, 4) and loaded.dtype == np.float64
    np.testing.assert_array_equal(loaded, np.stack(tensors))


def test_tensor_store_rejects_bad_shapes_and_indices(tmp_path):
    path = str(tmp_path / io.TENSORS_FILE)
    with pytest.raises(LogFormatError, match="shape"):
        io.write_tensors(path, [np.zeros((2, 2)), np.zeros((2, 3))], (2, 2))
    io.write_tensors(path, [np.zeros((2, 2))], (2, 2))
    io.write_log(str(tmp_path / io.GT_FILE), io.FORMAT_GROUNDTRUTH, [])
    dets = [io.detection_record(0, 0, BOX, 0.9, POSE, app_index=i) for i in (0, 1)]
    io.write_log(str(tmp_path / io.DETECTIONS_FILE), io.FORMAT_DETECTIONS, dets)
    with pytest.raises(LogFormatError, match=rf"{io.TENSORS_FILE}: tensor index 1 out of "
                                             r"range \[0,1\)"):
        io.load_sim_frames(str(tmp_path))


def test_tensor_store_names_the_first_non_finite_tensor(tmp_path):
    # no detection need refer to the tensor: the whole store is checked
    path = str(tmp_path / "app.bin")
    tensors = [np.zeros((2, 2)) for _ in range(5)]
    tensors[4][0, 0], tensors[2][1, 1] = np.nan, -np.inf
    io.write_tensors(path, tensors, (2, 2))
    with pytest.raises(LogFormatError, match=r"app\.bin: tensor 2 has non-finite entries"):
        io.read_tensors(path)


def test_tensor_store_detects_truncation(tmp_path):
    path = str(tmp_path / "app.bin")
    io.write_tensors(path, [np.ones((2, 2))], (2, 2))
    with open(path, "rb") as fh:
        data = fh.read()
    with open(path, "wb") as fh:
        fh.write(data[:-5])
    with pytest.raises(LogFormatError, match="truncated"):
        io.read_tensors(path)


def test_tensor_store_without_tensors_keeps_its_shape(tmp_path):
    path = str(tmp_path / "app.bin")
    io.write_tensors(path, [], (2, 3))
    assert io.read_tensors(path).shape == (0, 2, 3)


@pytest.fixture(scope="module")
def tiny_scene(tmp_path_factory):
    """A library-written 3-frame scene, its config, and its tensor store's bytes."""
    root = tmp_path_factory.mktemp("tiny")
    cfg = small_config(scenario=ScenarioConfig(duration=3))
    io.save_config(str(root / "cfg.json"), cfg)
    io.write_sim_output(sim.generate(io.build_scenario(cfg)), str(root / "data"),
                        cfg.covnet.app_shape)
    return root, (root / "data" / io.TENSORS_FILE).read_bytes()


# header values of the wrong type or range; for the shape also lists that fit no
# data, have more dimensions than numpy allows or a product beyond its size limit
_TENSOR_HEADER_VALUES = {
    "dtype": st.one_of(_ANY_JSON, st.sampled_from(["<f4", ">f8", "<i8", "f8"])),
    "shape": st.one_of(_ANY_JSON, st.lists(st.sampled_from([-1, 0, 1, 2, 8, 16, 2**62]),
                                           max_size=4),
                       st.lists(st.just(1), min_size=60, max_size=70)),
}


@settings(max_examples=120, deadline=None, database=None, derandomize=True)
@given(draw=st.data())
def test_a_mutated_tensor_store_loads_or_is_rejected(tiny_scene, draw):
    root, original = tiny_scene
    header_line, data = original.split(b"\n", 1)
    kind = draw.draw(st.sampled_from(["header", "flip", "truncate"]))
    if kind == "header":
        header = json.loads(header_line)
        key = draw.draw(st.sampled_from(sorted(header) + ["extra"]))
        if draw.draw(st.booleans()) and key in header:
            del header[key]
        else:
            header[key] = draw.draw(_TENSOR_HEADER_VALUES.get(key, _ANY_JSON))
        mutated = json.dumps(header).encode() + b"\n" + data
    elif kind == "flip":
        at = draw.draw(st.integers(0, len(original) - 1))
        mutated = bytearray(original)
        mutated[at] ^= draw.draw(st.integers(1, 255))
    else:
        mutated = original[:draw.draw(st.integers(0, len(original) - 1))]
    path = str(root / "data" / io.TENSORS_FILE)
    with io.replace_file(path, "wb") as fh:  # no in-place truncation: see replace_file
        fh.write(mutated)
    try:
        tensors = io.read_tensors(path)
    except LogFormatError:
        pass
    else:
        assert tensors.dtype == np.float64 and np.isfinite(tensors).all()
    with contextlib.redirect_stdout(None), contextlib.redirect_stderr(None):
        code = cli.main(["track", "--config", str(root / "cfg.json"), "--detections",
                         str(root / "data"), "--out", str(root / "trk")])
    assert code in (0, 2)


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """A library-written 4-frame run: a scene, its tracks, and a one-epoch checkpoint
    with its loss curve; with a config that resumes it for one more epoch."""
    root = tmp_path_factory.mktemp("run")
    cfg = small_config(scenario=ScenarioConfig(duration=4),
                       train=TrainSettings(window_length=2, epochs=1))
    io.save_config(str(root / "cfg.json"), cfg)
    io.save_config(str(root / "resume.json"), dataclasses.replace(
        cfg, train=dataclasses.replace(cfg.train, epochs=2)))
    cfg_path, data, run = str(root / "cfg.json"), str(root / "data"), str(root / "run")
    with contextlib.redirect_stdout(None):
        for argv in (["simulate", "--config", cfg_path, "--out", data],
                     ["track", "--config", cfg_path, "--detections", data, "--out", run],
                     ["train", "--config", cfg_path, "--scenarios", data,
                      "--out", str(root / "m.ckpt")]):
            assert cli.main(argv) == 0
    return root


def _track(root):
    return ["track", "--config", str(root / "cfg.json"), "--detections", str(root / "data"),
            "--out", str(root / "out" / "trk")]


def _eval(root):
    return ["eval", "--tracks", str(root / "run"), "--gt", str(root / "data"),
            "--out", str(root / "out" / "s.csv")]


def _resume(root):
    return ["train", "--config", str(root / "resume.json"), "--scenarios", str(root / "data"),
            "--resume", str(root / "m.ckpt"), "--out", str(root / "out" / "m.ckpt")]


# each file a reader takes (below the run root): its reader, and the commands reading it
_READERS = {
    "data/gt.jsonl": (lambda root: io.load_gt_frames(str(root / "data")), _eval),
    "data/detections.jsonl": (lambda root: io.load_sim_frames(str(root / "data")), _track),
    "run/tracks.jsonl": (lambda root: io.load_track_output(str(root / "run")), _eval),
    "run/comm.json": (lambda root: io.load_track_output(str(root / "run")), _eval),
    "m.ckpt": (lambda root: io.load_checkpoint(str(root / "m.ckpt")), _resume),
    "m.ckpt.losscurve.jsonl": (lambda root: io.read_log(str(root / "m.ckpt.losscurve.jsonl"),
                                                        io.FORMAT_LOSSCURVE), None),
}


def _mutate_value(obj, draw):
    """`obj` with one value at some depth replaced by a JSON value of any type or
    range, or dropped."""
    parent, key = None, None
    node = obj
    while isinstance(node, (dict, list)) and node and (parent is None or draw.draw(st.booleans())):
        parent = node
        key = draw.draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                        else range(len(node))))
        node = parent[key]
    if parent is None:
        return draw.draw(_ANY_JSON)
    if draw.draw(st.booleans()):
        parent[key] = draw.draw(_ANY_JSON)
    else:
        del parent[key]
    return obj


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(name=st.sampled_from(sorted(_READERS)), kind=st.sampled_from(["value", "flip", "truncate"]),
       draw=st.data())
def test_a_mutated_file_loads_or_is_rejected(tiny_run, name, kind, draw):
    path = tiny_run / name
    original = path.read_bytes()
    if kind == "value":  # in a JSON line: the header of a checkpoint, any line of a log
        lines = original.split(b"\n", 1 if name == "m.ckpt" else -1)
        i = 0 if name == "m.ckpt" else draw.draw(
            st.sampled_from([i for i, line in enumerate(lines) if line]))
        lines[i] = json.dumps(_mutate_value(json.loads(lines[i]), draw)).encode()
        mutated = b"\n".join(lines)
    elif kind == "flip":
        at = draw.draw(st.integers(0, len(original) - 1))
        mutated = bytearray(original)
        mutated[at] ^= draw.draw(st.integers(1, 255))
    else:
        mutated = original[:draw.draw(st.integers(0, len(original) - 1))]
    with io.replace_file(str(path), "wb") as fh:
        fh.write(mutated)
    reader, command = _READERS[name]
    try:
        try:
            reader(tiny_run)
        except (LogFormatError, ConfigError):
            pass
        if command is not None:
            with contextlib.redirect_stdout(None), contextlib.redirect_stderr(None):
                assert cli.main(command(tiny_run)) in (0, 2)
    finally:
        with io.replace_file(str(path), "wb") as fh:
            fh.write(original)


def test_a_repeated_timestep_is_refused_not_dropped():
    frame = np.zeros((1, 10))
    a = pipeline.ReportedTrack(1, Box7(0.0, 0.0, 0.0, 0.0, 4.0, 2.0, 1.5), 0.9, frame, 0)
    b = pipeline.ReportedTrack(2, Box7(9.0, 0.0, 0.0, 0.0, 4.0, 2.0, 1.5), 0.8, frame, 0)
    for convert in (io.track_frames_from_reports, io.reports_to_records):
        with pytest.raises(ValueError, match=r"\btimestep 5 is repeated"):
            convert([[a], [b]], [5, 5])
        with pytest.raises(ValueError, match=r"\btimestep 5 is repeated"):
            convert([[a], [], [b]], [5, 6, 5])  # also when the repeat is not adjacent
    assert [r["id"] for r in io.reports_to_records([[a], [b]], [5, 6])] == [1, 2]
    assert list(io.track_frames_from_reports([[a], [b]], [6, 5])) == [6, 5]


# --- checkpoints -----------------------------------------------------------------


def make_params(cfg: RunConfig, seed=0):
    rng = np.random.default_rng(seed)
    return training.init_params_for_run(cfg, rng)


def test_checkpoint_round_trip(tmp_path):
    cfg = small_config()
    params = make_params(cfg)
    path = str(tmp_path / "ckpt.bin")
    io.save_checkpoint(path, Checkpoint(params_by_cav=params, config=cfg, seed=9))
    loaded = io.load_checkpoint(path)
    assert loaded.seed == 9
    assert loaded.epochs_done == 0
    assert loaded.adam_state is None
    assert loaded.config == cfg
    for cav in range(cfg.num_cavs):
        for name, arr in params[cav].arrays.items():
            np.testing.assert_array_equal(loaded.params_by_cav[cav].arrays[name], arr)


def test_checkpoint_round_trip_with_adam_state(tmp_path):
    cfg = small_config()
    params = make_params(cfg)
    sets = {c: p for c, p in params.items()}
    state = io.AdamState.init(sets)
    rng = np.random.default_rng(1)
    grads = {key: rng.standard_normal(m.shape) for key, m in state.m.items()}
    training.adam_step(sets, grads, state, 1e-3, 1e-5)
    path = str(tmp_path / "ckpt.bin")
    io.save_checkpoint(path, Checkpoint(
        params_by_cav=params, config=cfg, seed=0, epochs_done=3,
        adam_state=state))
    loaded = io.load_checkpoint(path)
    assert loaded.epochs_done == 3
    assert loaded.adam_state.step == 1
    for key in state.m:
        np.testing.assert_array_equal(loaded.adam_state.m[key], state.m[key])
        np.testing.assert_array_equal(loaded.adam_state.v[key], state.v[key])


def test_checkpoint_save_is_deterministic(tmp_path):
    cfg = small_config()
    params = make_params(cfg)
    p1, p2 = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
    io.save_checkpoint(p1, Checkpoint(params_by_cav=params, config=cfg, seed=0))
    io.save_checkpoint(p2, Checkpoint(params_by_cav=params, config=cfg, seed=0))
    assert pathlib.Path(p1).read_bytes() == pathlib.Path(p2).read_bytes()


def test_checkpoint_shared_weights_stores_one_set(tmp_path):
    cfg = small_config(covnet=NetSettings(conv_channels=(4, 8), pos_hidden=8,
                                          pos_out=32, head_hidden=8,
                                          shared_weights=True))
    params = make_params(cfg)
    assert params[0] is params[1]
    path = str(tmp_path / "ckpt.bin")
    io.save_checkpoint(path, Checkpoint(params_by_cav=params, config=cfg, seed=0))
    loaded = io.load_checkpoint(path)
    assert loaded.params_by_cav[0] is loaded.params_by_cav[1]
    for name, arr in params[0].arrays.items():
        np.testing.assert_array_equal(loaded.params_by_cav[0].arrays[name], arr)


def sharing_config(shared: bool, num_cavs=2) -> RunConfig:
    return small_config(num_cavs=num_cavs, covnet=NetSettings(
        conv_channels=(4, 8), pos_hidden=8, pos_out=32, head_hidden=8, shared_weights=shared))


def test_set_owners_names_each_set_by_its_lowest_vehicle():
    a, b = make_params(sharing_config(False)).values()
    params = {2: a, 0: b, 3: b, 1: CovNetParams(a.config, a.arrays)}
    # one `arrays` mapping is one set, whether or not the CovNetParams is the same object
    assert list(io.set_owners(params).items()) == [(0, 0), (1, 1), (2, 1), (3, 0)]
    assert io.set_owners({}) == {}


@pytest.mark.parametrize("shared", [False, True], ids=["per-vehicle", "shared"])
@pytest.mark.parametrize("num_cavs", [1, 3])
def test_the_owners_the_config_names_are_those_of_its_fresh_sets(shared, num_cavs):
    cfg = sharing_config(shared, num_cavs)
    want = {cav: 0 if shared else cav for cav in range(num_cavs)}
    assert io.params_by_vehicle(cfg, lambda cav: cav) == want
    assert io.set_owners(make_params(cfg)) == want


@pytest.mark.parametrize("shared", [True, False], ids=["config-shared", "config-per-vehicle"])
def test_save_checkpoint_rejects_sets_shared_otherwise_than_the_config_names(tmp_path, shared):
    # sets laid out for the other sharing flag: under shared weights vehicle 1's distinct
    # weights used to be dropped, and without them one aliased set was saved as two
    cfg = sharing_config(shared)
    params = make_params(sharing_config(not shared))
    missing, extra = {0: params[0]}, {**params, 2: params[1]}
    path = tmp_path / "ckpt.bin"
    path.write_bytes(b"earlier checkpoint")
    for bad in (params, missing, extra):
        with pytest.raises(ValueError, match="disagree with num_cavs=2 and "
                                             f"covnet.shared_weights={shared}"):
            io.save_checkpoint(str(path), Checkpoint(params_by_cav=bad, config=cfg, seed=0))
    # refused before any file is opened: no .partial, and the old file as it was
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.bin"]
    assert path.read_bytes() == b"earlier checkpoint"


def test_a_checkpoint_of_aliased_arrays_is_the_one_of_one_shared_set(tmp_path):
    cfg = sharing_config(True)
    one = make_params(cfg)[0]
    aliased = {0: one, 1: CovNetParams(one.config, one.arrays)}
    io.save_checkpoint(str(tmp_path / "a.bin"), Checkpoint(aliased, cfg, seed=0))
    io.save_checkpoint(str(tmp_path / "b.bin"), Checkpoint({0: one, 1: one}, cfg, seed=0))
    data = (tmp_path / "a.bin").read_bytes()
    assert data == (tmp_path / "b.bin").read_bytes()
    io.save_checkpoint(str(tmp_path / "c.bin"), io.load_checkpoint(str(tmp_path / "a.bin")))
    assert (tmp_path / "c.bin").read_bytes() == data


def test_checkpoint_rejects_shape_mismatch(tmp_path):
    cfg = small_config()
    params = make_params(cfg)
    params[0].arrays["head.lin1.w"] = np.zeros((3, 3))
    path = str(tmp_path / "ckpt.bin")
    io.save_checkpoint(path, Checkpoint(params_by_cav=params, config=cfg, seed=0))
    with pytest.raises(LogFormatError, match=r'manifest entry \d+ is \{"cav":0,"kind":"param",'
                                             r'"name":"head\.lin1\.w","shape":\[3,3\]\}'):
        io.load_checkpoint(path)


@pytest.mark.parametrize("shared, adam, digest", [
    (False, False, "03d6ffc2814afacbcebb05ec1c07693080fd6911907eda3adc805ab83be87fbb"),
    (False, True, "c8133a7210df0d567c7aecf3e72a38cdc1590bf09a3d32e2d9ed1285d6222579"),
    (True, False, "999b83986c8d9695b278acd66af7232a146152ba8cbe3b5a3d96b4c89e077c9a"),
    (True, True, "bc87b02166949edb92870af9023eaaae2f20f1496db013ef7e8feb8baad68d9a"),
], ids=["per-vehicle", "per-vehicle-adam", "shared", "shared-adam"])
def test_checkpoint_bytes_are_pinned(tmp_path, shared, adam, digest):
    # the checkpoint format is fixed: these are the bytes earlier releases wrote, less
    # the retired `train.batch_windows` and `scenario.preset` keys of the config header,
    # with `pos.lin1.w` and its Adam moments at their (18 (D + 1), hidden) shape
    cfg = small_config(covnet=NetSettings(conv_channels=(4, 8), pos_hidden=8, pos_out=32,
                                          head_hidden=8, shared_weights=shared))
    params = make_params(cfg)
    adam_state = None
    if adam:
        rng = np.random.default_rng(1)
        keys = [(cav, name) for cav in ([0] if shared else range(cfg.num_cavs))
                for name in params[cav].arrays]
        shapes = {(cav, name): params[cav].arrays[name].shape for cav, name in keys}
        adam_state = io.AdamState(step=4, m={k: rng.standard_normal(shapes[k]) for k in keys},
                                  v={k: rng.random(shapes[k]) for k in keys})
    path = tmp_path / "ckpt.bin"
    io.save_checkpoint(str(path), Checkpoint(params_by_cav=params, config=cfg, seed=7,
                                             epochs_done=2, adam_state=adam_state))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
    loaded = io.load_checkpoint(str(path))
    io.save_checkpoint(str(tmp_path / "again.bin"), loaded)
    assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()


def test_checkpoint_expect_config_guards(tmp_path):
    cfg = small_config()
    params = make_params(cfg)
    path = str(tmp_path / "ckpt.bin")
    io.save_checkpoint(path, Checkpoint(params_by_cav=params, config=cfg, seed=0))
    io.load_checkpoint(path, expect_config=cfg)  # matching config is fine
    other_cavs = dataclasses.replace(cfg, num_cavs=3)
    with pytest.raises(LogFormatError, match="vehicles"):
        io.load_checkpoint(path, expect_config=other_cavs)
    other_net = dataclasses.replace(cfg, covnet=NetSettings())
    with pytest.raises(LogFormatError, match="network settings"):
        io.load_checkpoint(path, expect_config=other_net)


def test_checkpoint_loads_only_under_its_normalization_bounds(tmp_path):
    cfg = small_config()
    path = str(tmp_path / "ckpt.bin")
    io.save_checkpoint(path, Checkpoint(params_by_cav=make_params(cfg), config=cfg, seed=0))
    scaled = tuple((10 * lo, 10 * hi) for lo, hi in cfg.normalization_bounds)
    with pytest.raises(LogFormatError, match=r"ckpt\.bin: .*normalization bounds"):
        io.load_checkpoint(path, expect_config=dataclasses.replace(
            cfg, normalization_bounds=scaled))


def test_checkpoint_rejects_foreign_file(tmp_path):
    path = tmp_path / "notckpt.bin"
    path.write_bytes(io.canonical_json({"format": "something-else", "version": 1})
                     .encode() + b"\n")
    with pytest.raises(LogFormatError, match="not a checkpoint"):
        io.load_checkpoint(str(path))
    trunc = tmp_path / "trunc.bin"
    cfg = small_config()
    io.save_checkpoint(str(tmp_path / "good.bin"),
                       Checkpoint(params_by_cav=make_params(cfg), config=cfg, seed=0))
    data = (tmp_path / "good.bin").read_bytes()
    trunc.write_bytes(data[:-16])
    with pytest.raises(LogFormatError, match="truncated"):
        io.load_checkpoint(str(trunc))


# --- output files ----------------------------------------------------------------


def _report():
    return metrics.evaluate({0: [(1, BOX, 0.9)]}, {0: [(1, BOX)]})


def _write_to(name, write):
    """A writer of the file `name` in a given directory; it returns the file's path."""
    def writer(out_dir):
        path = os.path.join(out_dir, name)
        write(path)
        return path
    return writer


# one call per writer in the package
WRITERS = {
    "save_config": _write_to("cfg.json", lambda p: io.save_config(p, RunConfig(seed=3))),
    "write_run_metadata": lambda d: io.write_run_metadata(d, RunConfig(seed=3), "track"),
    "write_log": _write_to("gt.jsonl", lambda p: io.write_log(
        p, io.FORMAT_GROUNDTRUTH, [io.gt_record(0, 1, BOX)])),
    "write_tensors": _write_to("t.bin", lambda p: io.write_tensors(
        p, [np.ones((2, 2))], (2, 2))),
    "write_track_output": lambda d: io.write_track_output(
        d, [], [], metrics.comm_cost([], 7)) or os.path.join(d, io.COMM_FILE),
    "save_checkpoint": _write_to("m.ckpt", lambda p: io.save_checkpoint(p, Checkpoint(
        params_by_cav=make_params(small_config()), config=small_config(), seed=0))),
    "write_summary_csv": _write_to("s.csv", lambda p: metrics.write_summary_csv(
        p, [("run", _report(), 0.5)])),
    "write_recall_table_csv": _write_to("l.csv", lambda p: metrics.write_recall_table_csv(
        p, _report())),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_a_rewrite_is_a_new_file_with_the_same_bytes(tmp_path, writer):
    path = WRITERS[writer](str(tmp_path))
    before = sorted(os.listdir(tmp_path))
    first = os.stat(path)
    data = pathlib.Path(path).read_bytes()
    assert WRITERS[writer](str(tmp_path)) == path
    # the old file is still linked while the new one is created, so a new inode
    # means the rewrite never truncated the old file in place
    assert os.stat(path).st_ino != first.st_ino
    assert pathlib.Path(path).read_bytes() == data
    assert sorted(os.listdir(tmp_path)) == before


def test_a_rewrite_renames_onto_a_free_name(tmp_path, monkeypatch):
    # ext4 flushes a recently written file that is renamed over, not one unlinked
    path = str(tmp_path / "out")
    renames = []
    rename = os.rename

    def spy(src, dst):
        renames.append((src, os.path.lexists(dst)))
        rename(src, dst)

    monkeypatch.setattr(os, "rename", spy)
    for _ in range(2):
        with io.replace_file(path) as fh:
            fh.write("x")
    assert renames == [(path + ".partial", False)] * 2


def _records_failing_at_3():
    for i in range(5):
        if i == 3:
            raise RuntimeError("no more records")
        yield io.gt_record(i, 1, BOX)


def _bad_record_at_3():
    records = [io.gt_record(i, 1, BOX) for i in range(5)]
    records[3] = dict(records[3], box=[1.0])
    return records


def _repeated_record_at_3():
    return [io.gt_record(i, 1, BOX) for i in range(3)] + [io.gt_record(1, 1, BOX)]


@pytest.mark.parametrize("records, error", [
    (_records_failing_at_3, RuntimeError),
    (_bad_record_at_3, LogFormatError),
    (_repeated_record_at_3, LogFormatError),
], ids=["raising-iterator", "invalid-record", "repeated-record"])
def test_a_failed_log_write_leaves_the_previous_file(tmp_path, records, error):
    path = str(tmp_path / "gt.jsonl")
    io.write_log(path, io.FORMAT_GROUNDTRUTH, [io.gt_record(0, 7, BOX)])
    before = pathlib.Path(path).read_bytes()
    with pytest.raises(error):
        io.write_log(path, io.FORMAT_GROUNDTRUTH, records())
    assert pathlib.Path(path).read_bytes() == before
    assert os.listdir(tmp_path) == ["gt.jsonl"]


def test_a_failed_tensor_write_leaves_the_previous_file(tmp_path):
    path = str(tmp_path / "tensors.bin")
    io.write_tensors(path, [np.ones((2, 2))], (2, 2))
    before = pathlib.Path(path).read_bytes()
    with pytest.raises(LogFormatError, match="tensor 1 has shape"):
        io.write_tensors(path, [np.zeros((2, 2)), np.zeros((3, 2)), np.zeros((2, 2))],
                         (2, 2))
    assert pathlib.Path(path).read_bytes() == before
    assert os.listdir(tmp_path) == ["tensors.bin"]


def test_a_new_file_gets_the_mode_of_a_plain_open(tmp_path):
    old = os.umask(0o027)
    try:
        with open(tmp_path / "plain", "w") as fh:
            fh.write("x")
        with io.replace_file(str(tmp_path / "replaced")) as fh:
            fh.write("x")
    finally:
        os.umask(old)
    plain, replaced = (os.stat(tmp_path / name).st_mode for name in ("plain", "replaced"))
    assert replaced == plain


def test_a_missing_directory_is_reported_with_the_output_path(tmp_path):
    path = str(tmp_path / "nowhere" / "out")
    with pytest.raises(FileNotFoundError) as exc:
        with io.replace_file(path):
            pass
    assert exc.value.filename == path


def test_a_symlink_at_the_path_is_replaced_not_followed(tmp_path):
    target = tmp_path / "target"
    target.write_text("keep")
    (tmp_path / "out").symlink_to(target)
    with io.replace_file(str(tmp_path / "out")) as fh:
        fh.write("new")
    assert not (tmp_path / "out").is_symlink()
    assert (tmp_path / "out").read_text() == "new"
    assert target.read_text() == "keep"


def test_a_stale_partial_file_is_unlinked_not_written_through(tmp_path):
    target = tmp_path / "target"
    target.write_text("keep")
    (tmp_path / "out.partial").symlink_to(target)
    with io.replace_file(str(tmp_path / "out")) as fh:
        fh.write("new")
    assert (tmp_path / "out").read_text() == "new"
    assert target.read_text() == "keep"
    assert sorted(os.listdir(tmp_path)) == ["out", "target"]


def test_rerunning_the_workflow_leaves_only_its_outputs(tmp_path, capsys):
    cfg_path = str(tmp_path / "cfg.json")
    io.save_config(cfg_path, small_config(scenario=ScenarioConfig(duration=12),
                                          train=TrainSettings(window_length=5, epochs=1)))
    data, run, model, summary = (str(tmp_path / name) for name in
                                 ("data", "run", "model", "summary"))
    os.mkdir(model)
    os.mkdir(summary)
    for _ in range(2):
        assert cli.main(["simulate", "--config", cfg_path, "--out", data]) == 0
        assert cli.main(["train", "--config", cfg_path, "--scenarios", data,
                         "--out", os.path.join(model, "m.ckpt")]) == 0
        assert cli.main(["track", "--config", cfg_path, "--detections", data,
                         "--checkpoint", os.path.join(model, "m.ckpt"), "--out", run]) == 0
        assert cli.main(["eval", "--tracks", run, "--gt", data,
                         "--out", os.path.join(summary, "s.csv")]) == 0
    capsys.readouterr()
    assert sorted(os.listdir(data)) == [io.DETECTIONS_FILE, io.GT_FILE, io.RUN_META_FILE,
                                        io.TENSORS_FILE]
    assert sorted(os.listdir(model)) == ["m.ckpt", "m.ckpt.losscurve.jsonl"]
    assert sorted(os.listdir(run)) == [io.COMM_FILE, io.RUN_META_FILE, io.TRACKS_FILE]
    assert sorted(os.listdir(summary)) == ["s.csv", "s_levels.csv"]


def _opens_for_writing(tree):
    """(line, mode) of each `open(...)` call whose mode may write: a literal mode
    containing w, a or x, or a mode that is not a literal."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "open"):
            continue
        mode = node.args[1] if len(node.args) > 1 else next(
            (kw.value for kw in node.keywords if kw.arg == "mode"), ast.Constant("r"))
        if not (isinstance(mode, ast.Constant) and not set(str(mode.value)) & set("wax")):
            yield node.lineno, ast.unparse(mode)


def test_every_output_file_is_opened_by_replace_file():
    src = pathlib.Path(io.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        home = [node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == "replace_file"
                and path.name == "io.py"]
        allowed = {n.lineno for f in home for n in ast.walk(f) if hasattr(n, "lineno")}
        found += [f"{path.name}:{line} open(..., {mode})"
                  for line, mode in _opens_for_writing(tree) if line not in allowed]
    assert not found, "write output files through io.replace_file: " + ", ".join(found)

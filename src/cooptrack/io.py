"""File formats, configuration, and persistence.

All text artifacts are line-delimited JSON with a schema header line and
canonical serialization (sorted keys, compact separators, shortest
round-trip float repr), so re-serializing a parsed file is byte-identical
and replay is exact. Appearance tensors and checkpoints use a one-line JSON
header followed by raw little-endian float64 data; each file is read whole, in
one call that returns plain data. Every output file is written through
`replace_file`, so a failed write leaves the previous file.

A log's records are checked a column at a time (`_columns_hold`): per field one
exact-type set and numpy finiteness and range checks, and one set of the key
tuples, all derived from the record's dataclass and FILE_RANGES. A log those
checks refuse is walked record by record, in order (`_walked`). The walk raises
the first bad record's error, naming its file and line, and accepts what the
columns leave to it, such as integer coordinates.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import itertools
import json
import math
import operator
import os
import types
import typing
from collections.abc import Callable
from dataclasses import MISSING, dataclass, field

import numpy as np

from . import __version__, sim
from .association import LifecycleConfig
from .covnet import CovNetConfig, CovNetParams, layer_shapes
from .features import DEFAULT_BOUNDS
from .geometry import Box7, PoseYawT
from .sim import ScenarioConfig

FORMAT_DETECTIONS = "cooptrack-detections"
FORMAT_TRACKS = "cooptrack-tracks"
FORMAT_GROUNDTRUTH = "cooptrack-groundtruth"
FORMAT_LOSSCURVE = "cooptrack-losscurve"
FORMAT_TENSORS = "cooptrack-tensors"
FORMAT_CHECKPOINT = "cooptrack-checkpoint"
SCHEMA_VERSION = 1

GT_FILE = "gt.jsonl"
DETECTIONS_FILE = "detections.jsonl"
TENSORS_FILE = "tensors.bin"
TRACKS_FILE = "tracks.jsonl"
COMM_FILE = "comm.json"
RUN_META_FILE = "run_meta.json"
# the files of a run directory that `simulate` and `track` write
SIMULATE_FILES = (GT_FILE, DETECTIONS_FILE, TENSORS_FILE, RUN_META_FILE)
TRACK_FILES = (TRACKS_FILE, COMM_FILE, RUN_META_FILE)
PARTIAL_SUFFIX = ".partial"  # `replace_file` writes `<path>.partial`, then renames it


class LogFormatError(ValueError):
    """Malformed or wrong-version persisted data."""


class ConfigError(ValueError):
    """Invalid or unknown configuration content."""


_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False)


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, no whitespace, round-trip floats."""
    return _CANONICAL.encode(obj)


@contextlib.contextmanager
def replace_file(path: str, mode: str = "w"):
    """Open a new file (`mode` as for `open`) that takes `path`'s place only when
    the `with` block completes. Every output file is written here. Text is UTF-8,
    and its newlines are written as given, on every platform.

    The data goes to a fresh `<path>.partial`, a stale one being unlinked first.
    On success `path` is unlinked and the partial file renamed onto the free name:
    ext4 (`auto_da_alloc`) flushes a recently written file that is truncated or
    renamed over, but not one that is unlinked. On error the partial file is
    deleted and `path` left as it was. Nothing is fsynced.
    """
    partial = path + PARTIAL_SUFFIX
    _unlink(partial)
    binary = "b" in mode
    try:
        fh = open(partial, mode.replace("w", "x"), encoding=None if binary else "utf-8",
                  newline=None if binary else "")
    except OSError as exc:  # a missing or read-only directory: name the output
        raise type(exc)(exc.errno, exc.strerror, path) from None
    try:
        with fh:
            yield fh
        _unlink(path)
        os.rename(partial, path)
    except BaseException:
        _unlink(partial)
        raise


def _unlink(path: str):
    with contextlib.suppress(FileNotFoundError):
        os.unlink(path)


# --- configuration -----------------------------------------------------------


@dataclass(frozen=True)
class TrackerSettings(LifecycleConfig):
    process_noise_velocity: float = 0.01
    assoc_iou_threshold: float = 0.1


@dataclass(frozen=True)
class NetSettings(CovNetConfig):
    shared_weights: bool = False

    def covnet_config(self) -> CovNetConfig:
        """The network fields alone, as a plain CovNetConfig."""
        return CovNetConfig(**{f.name: getattr(self, f.name)
                                for f in dataclasses.fields(CovNetConfig)})


@dataclass(frozen=True)
class TrainSettings:
    window_length: int = 10
    lr: float = 1e-3
    weight_decay: float = 1e-5
    grad_clip_norm: float = 1.0
    epochs: int = 20
    gt_match_radius: float = 2.0
    center_distance: str = "3d"


@dataclass(frozen=True)
class RunConfig:
    """Every tunable constant in one schema-checked object."""

    seed: int = 0
    num_cavs: int = 2
    eval_iou_threshold: float = 0.25
    normalization_bounds: tuple[tuple[float, float], ...] = DEFAULT_BOUNDS
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    tracker: TrackerSettings = field(default_factory=TrackerSettings)
    covnet: NetSettings = field(default_factory=NetSettings)
    train: TrainSettings = field(default_factory=TrainSettings)


# The schema of a JSON object is a dataclass: a key's type is its field's annotation
# (a section is a field whose type is a dataclass), and its allowed values are in
# CONFIG_RANGES or FILE_RANGES. The objects of the other files are checked as the
# config is but stay dicts, with any keys that name no field, so that a log with a
# field since dropped still loads.


class Allowed(typing.NamedTuple):
    text: str  # for people, as in `--help` and the README
    # a log field's test is elementwise, so `_columns_hold` applies it to an array of
    # the field's values, a row per record
    test: Callable[[object], bool]


def _at_least(lo) -> Allowed:
    return Allowed(f">= {lo}", lambda v: v >= lo)


def _one_of(*options) -> Allowed:
    return Allowed(" or ".join(map(json.dumps, options)), lambda v: v in options)


_POSITIVE = Allowed("> 0", lambda v: v > 0)
_UNIT_OPEN = Allowed("in (0, 1)", lambda v: 0 < v < 1)
_UNIT_HALF_OPEN = Allowed("in (0, 1]", lambda v: (0 < v) & (v <= 1))
_ALL_POSITIVE = Allowed("non-empty, all >= 1", lambda v: len(v) > 0 and min(v) >= 1)
_COUNT = _at_least(0)

CONFIG_RANGES = {  # keyed by dotted path
    "seed": _at_least(0), "num_cavs": _at_least(1), "eval_iou_threshold": _UNIT_OPEN,
    "normalization_bounds": Allowed(f"{len(DEFAULT_BOUNDS)} pairs, each min < max",
                                    lambda v: len(v) == len(DEFAULT_BOUNDS)
                                    and all(lo < hi for lo, hi in v)),
    "scenario.duration": _at_least(1),
    "scenario.noise_multiplier": _at_least(0), "scenario.miss_multiplier": _at_least(0),
    "scenario.fp_multiplier": _at_least(0),
    "tracker.min_hits": _at_least(1), "tracker.max_age": _at_least(0),
    "tracker.score_decay": _UNIT_HALF_OPEN,
    "tracker.process_noise_velocity": _at_least(0), "tracker.assoc_iou_threshold": _UNIT_OPEN,
    "covnet.app_shape": Allowed("all >= 1", lambda v: min(v) >= 1),
    "covnet.conv_channels": _ALL_POSITIVE,
    "covnet.kernel": _at_least(1), "covnet.stride": _at_least(1), "covnet.pad": _at_least(0),
    "covnet.pos_hidden": _at_least(1), "covnet.pos_out": _at_least(1),
    "covnet.head_hidden": _at_least(1),
    "train.window_length": _at_least(2), "train.lr": _POSITIVE,
    "train.weight_decay": _at_least(0), "train.grad_clip_norm": _POSITIVE,
    "train.epochs": _at_least(0), "train.gt_match_radius": _POSITIVE,
    "train.center_distance": _one_of("3d", "2d"),
}

_BoxList = tuple[float, float, float, float, float, float, float]  # [x, y, z, yaw, l, w, h]
_file_object = functools.partial(dataclasses.make_dataclass, frozen=True,
                                 namespace={"__module__": __name__})

DetectionRecord = _file_object("DetectionRecord", [
    ("t", int), ("cav", int), ("box", _BoxList), ("conf", float),
    ("pose", tuple[float, float, float, float]),  # [t_x, t_y, t_z, yaw]
    ("app", int | None, field(default=None))])  # index into the tensor store
TrackRecord = _file_object("TrackRecord", [
    ("t", int), ("id", int), ("box", _BoxList), ("score", float)])
GroundTruthRecord = _file_object("GroundTruthRecord", [
    ("t", int), ("obj", int), ("box", _BoxList)])
LossRecord = _file_object("LossRecord", [
    ("epoch", int), ("window", int), ("loss", float), ("supervised", int)])
CheckpointHeader = _file_object("CheckpointHeader", [
    ("config", dict), ("seed", int), ("epochs_done", int),
    ("manifest", list),  # compared entry for entry with the one `config` determines
    ("adam_step", int | None, field(default=None))])
TensorHeader = _file_object("TensorHeader", [("dtype", str), ("shape", tuple[int, ...])])
CommFile = _file_object("CommFile", [("mb_total", float)])

_BOX = Allowed("[x, y, z, yaw, l, w, h] with l, w, h > 0",
               lambda v: (np.asarray(v, dtype=float)[..., 4:] > 0).all(axis=-1))

FILE_RANGES = {  # each file object's ranges, keyed by field name
    DetectionRecord: {"t": _COUNT, "cav": _COUNT, "box": _BOX, "conf": _UNIT_HALF_OPEN,
                      "app": _COUNT},
    TrackRecord: {"t": _COUNT, "id": _COUNT, "box": _BOX,
                  "score": Allowed("in [0, 1]", lambda v: (0 <= v) & (v <= 1))},
    GroundTruthRecord: {"t": _COUNT, "obj": _COUNT, "box": _BOX},
    LossRecord: {"epoch": _COUNT, "window": _COUNT, "loss": _at_least(0),
                 "supervised": _COUNT},
    CheckpointHeader: {"seed": _COUNT, "epochs_done": _COUNT, "adam_step": _COUNT},
    TensorHeader: {"dtype": _one_of("<f8"), "shape": _ALL_POSITIVE},
    CommFile: {"mb_total": _at_least(0)},
}


def _is_number(value) -> bool:
    """A finite int or float; a bool, or an int beyond float range, is not."""
    if type(value) is float:
        return math.isfinite(value)
    try:
        return not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):
        return False


def config_keys(cls=RunConfig, prefix=""):
    """(dotted key, type, default) of every setting under `cls`, in field order."""
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        if dataclasses.is_dataclass(hints[f.name]):
            yield from config_keys(hints[f.name], f"{prefix}{f.name}.")
        else:
            yield f"{prefix}{f.name}", hints[f.name], f.default


def type_name(hint) -> str:
    """A type as JSON spells it: `int`, `[int, int, int]`, `[[float, float], ...]`,
    `int or null`, `object`."""
    args = typing.get_args(hint)
    if isinstance(hint, types.UnionType):
        return " or ".join(map(type_name, args))
    if not args:
        return {dict: "object", type(None): "null"}.get(hint, hint.__name__)
    return "[" + ", ".join("..." if a is Ellipsis else type_name(a) for a in args) + "]"


@functools.cache
def _is_a(hint) -> Callable[[object], bool]:
    """The test of a JSON value against a type hint, built once per hint. A float is
    any finite number and an int is not a bool; a tuple is a list of its length (any
    with `...`) whose items are of its one type; `T | None` is a T or null."""
    args = typing.get_args(hint)
    if hint is float:
        return _is_number
    if not args:
        return lambda v: type(v) is hint
    (item,) = {_is_a(a) for a in args if a is not Ellipsis and a is not type(None)}
    if isinstance(hint, types.UnionType):
        return lambda v: v is None or item(v)
    if args[-1] is Ellipsis:
        return lambda v: isinstance(v, (list, tuple)) and all(map(item, v))
    return lambda v: isinstance(v, (list, tuple)) and len(v) == len(args) and all(map(item, v))


@functools.cache
def _schema(cls) -> tuple:
    """(name, type hint, its test, required) of each field of the dataclass `cls`, the
    test being None for a section and a field required when it has no default."""
    hints = typing.get_type_hints(cls)
    return tuple((f.name, hints[f.name],
                  None if dataclasses.is_dataclass(hints[f.name]) else _is_a(hints[f.name]),
                  f.default is MISSING and f.default_factory is MISSING)
                 for f in dataclasses.fields(cls))


def _walk(cls, data, ranges, path=""):
    """The fields of dataclass `cls` that the JSON object `data` holds, by name, with
    sections built by `_from_dict`; other keys are not looked at. A ConfigError names
    the key path of a missing field without a default, or of a value not of its type
    or (unless null) outside its entry in `ranges`, which is keyed by dotted path."""
    if not isinstance(data, dict):
        raise ConfigError(f"{path or 'config'}: expected an object, got {data!r}")
    values = {}
    for name, hint, is_a, required in _schema(cls):
        key = f"{path}.{name}" if path else name
        if name not in data:
            if required:
                raise ConfigError(f"{key}: missing")
            continue
        value = data[name]
        if is_a is None:
            value = _from_dict(hint, value, key)
        elif not is_a(value):
            raise ConfigError(f"{key}: expected {type_name(hint)}, got {value!r}")
        elif value is not None and key in ranges and not ranges[key].test(value):
            raise ConfigError(f"{key}: must be {ranges[key].text}, got {value!r}")
        values[name] = value
    return values


def _tupled(value):
    return tuple(map(_tupled, value)) if isinstance(value, (list, tuple)) else value


def _from_dict(cls, data, path):
    """The config section `cls` of a JSON object, which may hold no unknown key."""
    values = _walk(cls, data, CONFIG_RANGES, path)
    unknown = set(data) - set(values)
    if unknown:
        raise ConfigError(f"{path or 'config'}: unknown key(s) {sorted(unknown)}")
    try:
        return cls(**{name: _tupled(value) for name, value in values.items()})
    except ValueError as exc:  # a rule across keys, such as the covnet branch widths
        raise ConfigError(f"{path or 'config'}: {exc}") from exc


def _check_file_object(cls, data, where: str) -> dict:
    """`_walk` for a JSON object of a file; a LogFormatError names `where`."""
    try:
        return _walk(cls, data, FILE_RANGES[cls])
    except ConfigError as exc:
        raise LogFormatError(f"{where}: {exc}") from exc


def config_from_dict(data: dict) -> RunConfig:
    return _from_dict(RunConfig, data, "")


def config_to_dict(cfg: RunConfig) -> dict:
    """The config as JSON values: sections as objects, tuples as lists."""
    return json.loads(json.dumps(dataclasses.asdict(cfg)))


def load_config(path: str) -> RunConfig:
    return config_from_dict(_read_json(path, ConfigError))


def save_config(path: str, cfg: RunConfig):
    with replace_file(path) as fh:
        fh.write(json.dumps(config_to_dict(cfg), sort_keys=True, indent=2))
        fh.write("\n")


def config_hash(cfg: RunConfig) -> str:
    return hashlib.sha256(canonical_json(config_to_dict(cfg)).encode()).hexdigest()


def write_run_metadata(out_dir: str, cfg: RunConfig, command: str):
    """Record enough to replay the run exactly: config, its hash, version, command."""
    meta = {"config": config_to_dict(cfg), "config_sha256": config_hash(cfg),
            "seed": cfg.seed, "package_version": __version__, "command": command}
    path = os.path.join(out_dir, RUN_META_FILE)
    with replace_file(path) as fh:
        fh.write(canonical_json(meta))
        fh.write("\n")
    return path


# --- file headers --------------------------------------------------------------


def _read_header(line, path: str, format_name: str, noun: str) -> dict:
    """Parse the first line (str or bytes) of a persisted file as its header.

    The header must be a JSON object naming `format_name` and SCHEMA_VERSION;
    `noun` names the kind of file in the error message.
    """
    try:
        header = json.loads(line.decode() if isinstance(line, bytes) else line)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise LogFormatError(f"{path} line 1: invalid {noun} header ({exc})") from exc
    if not isinstance(header, dict):
        raise LogFormatError(f"{path} line 1: {noun} header must be a JSON object")
    if header.get("format") != format_name:
        raise LogFormatError(f"{path} line 1: not a {noun} file: format "
                             f"{header.get('format')!r}, expected {format_name!r}")
    if header.get("version") != SCHEMA_VERSION:
        raise LogFormatError(f"{path} line 1: {noun} schema version "
                             f"{header.get('version')!r} not supported "
                             f"(expected {SCHEMA_VERSION})")
    return header


# --- line-delimited logs ------------------------------------------------------


_LOG_RECORDS = {FORMAT_DETECTIONS: DetectionRecord, FORMAT_TRACKS: TrackRecord,
                FORMAT_GROUNDTRUTH: GroundTruthRecord, FORMAT_LOSSCURVE: LossRecord}
# the fields that name what a record is of; no two records of a log share them
_LOG_KEYS = {FORMAT_TRACKS: ("t", "id"), FORMAT_GROUNDTRUTH: ("t", "obj")}
_KEY_OF = {name: operator.itemgetter(*fields) for name, fields in _LOG_KEYS.items()}


def _repeated(format_name: str, key: tuple, where: str, place: str, number: int,
              first: int) -> LogFormatError:
    """The error for `place` (line or record) `number` of a log repeating the key of
    `place` `first`; `where` prefixes the message."""
    named = ", ".join(f"{f}={v}" for f, v in zip(_LOG_KEYS[format_name], key))
    return LogFormatError(f"{where}{place} {number}: repeats the {named} of {place} {first}")


@functools.cache
def _column_of(hint) -> Callable[[list], np.ndarray | None]:
    """The column form of `_is_a(hint)` for a log field: a function of the list of the
    field's values that returns them as one array, a row per value, when each is of
    `hint` as the writers give it (an int exactly, a finite float exactly, a list of the
    tuple's length; nulls of an optional field are dropped), and None otherwise. None
    is no verdict: an int in a float field, a tuple for a list, or a type hint not
    named here passes only through the per-record walk."""
    args = typing.get_args(hint)
    if hint in (int, float):
        def column(values):
            if not set(map(type, values)) <= {hint}:
                return None
            try:
                array = np.array(values, dtype=hint)
            except OverflowError:  # an int beyond int64
                return None
            return array if hint is int or np.isfinite(array).all() else None
        return column
    if isinstance(hint, types.UnionType):  # `T | None`, as in `_is_a`
        (item,) = [a for a in args if a is not type(None)]
        present = _column_of(item)
        return lambda values: present([v for v in values if v is not None])
    if typing.get_origin(hint) is tuple and Ellipsis not in args:
        (item,), length = {_column_of(a) for a in args}, len(args)

        def column(values):
            if not (set(map(type, values)) <= {list} and set(map(len, values)) <= {length}):
                return None
            items = item(list(itertools.chain.from_iterable(values)))
            return None if items is None else items.reshape(-1, length)
        return column
    return lambda values: None


def _columns_hold(format_name: str, records: list) -> bool:
    """Whether every record of a log is valid, with no two sharing the log's key fields,
    decided one field at a time over the whole list: each field's type (`_column_of`),
    its range (`Allowed.test`, applied to the column) and one set of the key tuples.
    False when a record is not valid, and also when a column holds a value that only
    the per-record walk judges, so False asks for the walk."""
    cls = _LOG_RECORDS[format_name]
    if not set(map(type, records)) <= {dict}:
        return False
    ranges, columns = FILE_RANGES[cls], {}
    for name, hint, _, _ in _schema(cls):
        try:
            columns[name] = list(map(operator.itemgetter(name), records))
        except KeyError:
            return False
        array = _column_of(hint)(columns[name])
        allowed = ranges.get(name)
        if array is None or allowed and not allowed.test(array).all():
            return False
    key_fields = _LOG_KEYS.get(format_name)
    return not key_fields or len(set(zip(*map(columns.get, key_fields)))) == len(records)


def _walked(format_name: str, numbered, where: str, place: str):
    """Each record of `numbered`, (number, record) pairs in log order, once it passes
    `_check_file_object` and holds no key an earlier one held. This walk is the
    authority on a log the columns refuse: it raises the first bad record's error,
    naming `place` (record or line) and its number after `where`."""
    cls, key_of, seen = _LOG_RECORDS[format_name], _KEY_OF.get(format_name), {}
    for number, rec in numbered:
        _check_file_object(cls, rec, f"{where}{place} {number}")
        if key_of and (first := seen.setdefault(key_of(rec), number)) != number:
            raise _repeated(format_name, key_of(rec), where, place, number, first)
        yield rec


def write_log(path: str, format_name: str, records):
    """Write a schema-headed JSONL file; every record is validated before the file
    is opened, and a tracks or ground-truth record repeating an earlier one's
    (t, id) or (t, obj) is refused. The records are checked as columns; when those
    refuse them, each record is checked in turn, so the first bad one is named. A
    refused log opens no file: `path` is left as it was and no `.partial` is made."""
    records = list(records)
    if not _columns_hold(format_name, records):
        records = list(_walked(format_name, enumerate(records), "", "record"))
    with replace_file(path) as fh:
        fh.write(canonical_json({"format": format_name, "version": SCHEMA_VERSION}))
        fh.write("\n")
        fh.write("".join([canonical_json(rec) + "\n" for rec in records]))


def _parsed(path: str, lines):
    """(line number, record) of each line after the header that is not blank, parsed
    when it is reached; a line that is not a JSON object raises then."""
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.rstrip("\r"):
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise LogFormatError(f"{path} line {lineno}: invalid JSON ({exc})") from exc
        if not isinstance(rec, dict):
            raise LogFormatError(f"{path} line {lineno}: record must be a JSON object")
        yield lineno, rec


def read_log(path: str, format_name: str):
    """Read and validate a JSONL log; returns its records. Only a line feed ends a
    line, so a record's strings may hold other line separators. Header keys beyond
    the format and version are ignored. A tracks or ground-truth record that
    repeats an earlier one's (t, id) or (t, obj) is rejected with both lines.
    Every line is parsed and the records are checked as columns; a log that fails
    either is read again line by line, each record checked as it is parsed, so the
    first bad line is named."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not data:
        raise LogFormatError(f"{path}: empty file (missing header)")
    try:
        lines = data.decode("utf-8").split("\n")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise LogFormatError(f"{path} line {lineno}: not valid UTF-8") from exc
    _read_header(lines[0], path, format_name, "log")
    try:  # a line of "\r" alone is blank, and fails here
        records = list(map(json.loads, filter(None, lines[1:])))
    except (ValueError, RecursionError):
        records = None
    if records is None or not _columns_hold(format_name, records):
        records = list(_walked(format_name, _parsed(path, lines), f"{path} ", "line"))
    return records


# conversions between log records and runtime objects


def _box_list(box: Box7) -> list:
    """A Box7's fields, plain floats already, as a record's `box` list."""
    return [box.x, box.y, box.z, box.a, box.l, box.w, box.h]


def detection_record(t: int, cav_id: int, box: Box7, conf: float, pose: PoseYawT,
                     app_index=None) -> dict:
    return {"t": int(t), "cav": int(cav_id), "box": _box_list(box), "conf": float(conf),
            "pose": [pose.t_x, pose.t_y, pose.t_z, pose.yaw],
            "app": None if app_index is None else int(app_index)}


def track_record(t: int, track_id: int, box: Box7, score: float) -> dict:
    return {"t": int(t), "id": int(track_id), "box": _box_list(box), "score": float(score)}


def gt_record(t: int, obj_id: int, box: Box7) -> dict:
    return {"t": int(t), "obj": int(obj_id), "box": _box_list(box)}


def record_box(rec) -> Box7:
    return Box7.from_vector(rec["box"])


def record_pose(rec) -> PoseYawT:
    return PoseYawT(*rec["pose"])


def track_frames_from_records(records) -> dict:
    """{timestep: [(track_id, Box7, score)]} from track log records."""
    out = {}
    for rec in records:
        out.setdefault(rec["t"], []).append((rec["id"], record_box(rec), rec["score"]))
    return out


def gt_frames_from_records(records) -> dict:
    """{timestep: [(obj_id, Box7)]} from ground-truth log records."""
    out = {}
    for rec in records:
        out.setdefault(rec["t"], []).append((rec["obj"], record_box(rec)))
    return out


def track_frames_from_reports(reports, timesteps) -> dict:
    """{timestep: [(track_id, Box7, score)]} from per-frame tracker reports.

    `timesteps[i]` is the timestep of the frame that produced `reports[i]`;
    a timestep given twice raises a ValueError naming it.
    """
    out = {}
    for t, frame in zip(timesteps, reports, strict=True):
        if t in out:
            raise ValueError(f"timestep {t} is repeated in the reports' timesteps")
        out[t] = [(rt.track_id, rt.box, rt.score) for rt in frame]
    return out


def reports_to_records(reports, timesteps=None) -> list:
    """Track log records for per-frame tracker reports; `timesteps` as above,
    defaulting to the list positions."""
    if timesteps is None:
        timesteps = range(len(reports))
    return [track_record(t, track_id, box, score)
            for t, items in track_frames_from_reports(reports, timesteps).items()
            for track_id, box, score in items]


# --- tensor container ---------------------------------------------------------


def write_tensors(path: str, arrays, shape) -> None:
    """Write a tensor store: the header, then `arrays` (each of `shape`) as one
    contiguous little-endian float64 block, in order."""
    shape = tuple(shape)
    for i, arr in enumerate(arrays):
        if np.shape(arr) != shape:
            raise LogFormatError(f"{path}: tensor {i} has shape {np.shape(arr)}, "
                                 f"expected the store shape {shape}")
    block = np.stack(arrays, dtype="<f8") if len(arrays) else np.empty((0, *shape))
    header = canonical_json({"format": FORMAT_TENSORS, "version": SCHEMA_VERSION,
                             "dtype": "<f8", "shape": list(shape)}) + "\n"
    with replace_file(path, "wb") as fh:
        fh.write(header.encode())
        fh.write(block)


def read_tensors(path: str) -> np.ndarray:
    """Read a tensor store whole, as one `(count, *shape)` float64 array. The count
    is implied by the file size, which keeps the format byte-deterministic."""
    with open(path, "rb") as fh:
        header_line = fh.readline()
        header = _read_header(header_line, path, FORMAT_TENSORS, "tensor")
        shape = _check_file_object(TensorHeader, header, f"{path} line 1")["shape"]
        size = math.prod(shape)
        count, rest = divmod(os.fstat(fh.fileno()).st_size - len(header_line), 8 * size)
        try:
            tensors = np.empty((count, *shape), dtype="<f8")
        except ValueError as exc:  # more dimensions or elements than numpy allows
            raise LogFormatError(f"{path}: tensor shape {shape} not supported") from exc
        # a partial last tensor, or a short read from a file that shrank since fstat
        if rest or fh.readinto(tensors) != tensors.nbytes:
            raise LogFormatError(f"{path}: truncated tensor data")
    finite = np.isfinite(tensors).reshape(count, size).all(axis=1)
    if not finite.all():
        raise LogFormatError(f"{path}: tensor {int(finite.argmin())} has non-finite entries")
    return tensors


# --- run directories ----------------------------------------------------------


def build_scenario(cfg: RunConfig) -> sim.Scenario:
    """The configured `v2v_mini` scenario; ConfigError unless `num_cavs` is its
    vehicle count."""
    if cfg.covnet.app_shape[0] < 3:
        raise ConfigError(f"covnet.app_shape: the simulator draws at least 3 channels, "
                          f"got {list(cfg.covnet.app_shape)}")
    scenario = sim.preset_v2v_mini(seed=cfg.seed, app_shape=tuple(cfg.covnet.app_shape),
                                   **dataclasses.asdict(cfg.scenario))
    if len(scenario.cavs) != cfg.num_cavs:
        raise ConfigError(f"num_cavs: the config sets {cfg.num_cavs}, but the simulated "
                          f"v2v_mini scenario has {len(scenario.cavs)} vehicles")
    return scenario


def write_sim_output(frames, out_dir: str, app_shape) -> None:
    """Persist generated frames as gt / detection logs plus a tensor store."""
    os.makedirs(out_dir, exist_ok=True)
    gt_records = []
    det_records = []
    appearances = []
    for frame in frames:
        for obj_id, box in frame.gt:
            gt_records.append(gt_record(frame.timestep, obj_id, box))
        for cav_id in sorted(frame.detections):
            pose = frame.poses[cav_id]
            for det in frame.detections[cav_id]:
                det_records.append(detection_record(
                    frame.timestep, cav_id, det.box, det.confidence, pose,
                    app_index=len(appearances)))
                appearances.append(det.appearance)
    write_tensors(os.path.join(out_dir, TENSORS_FILE), appearances, app_shape)
    write_log(os.path.join(out_dir, GT_FILE), FORMAT_GROUNDTRUTH, gt_records)
    write_log(os.path.join(out_dir, DETECTIONS_FILE), FORMAT_DETECTIONS, det_records)


def load_gt_frames(data_dir: str) -> dict:
    """{timestep: [(obj_id, Box7)]} from a directory's ground-truth log."""
    records = read_log(os.path.join(data_dir, GT_FILE), FORMAT_GROUNDTRUTH)
    return gt_frames_from_records(records)


def load_sim_frames(data_dir: str):
    """Rebuild per-frame ground truth + detections from a simulate output dir.

    Returns (frames, detection records); there is one frame for every
    timestep that has ground truth or a detection.
    """
    gt_by_t = load_gt_frames(data_dir)
    det_path = os.path.join(data_dir, DETECTIONS_FILE)
    det_records = read_log(det_path, FORMAT_DETECTIONS)
    tensor_path = os.path.join(data_dir, TENSORS_FILE)
    tensors = read_tensors(tensor_path) if os.path.exists(tensor_path) else None
    dets_by_t = {}
    poses_by_t = {}
    run = None  # (t, cav, raw pose) of the records since the last PoseYawT was built
    for rec in det_records:
        if run != (rec["t"], rec["cav"], rec["pose"]):
            run, pose = (rec["t"], rec["cav"], rec["pose"]), record_pose(rec)
            if poses_by_t.setdefault(rec["t"], {}).setdefault(rec["cav"], pose) != pose:
                raise LogFormatError(f"{det_path}: conflicting poses for t={rec['t']} "
                                     f"cav={rec['cav']}")
        app = rec.get("app")
        if tensors is None or app is None:
            app = None
        elif app < len(tensors):
            app = tensors[app]
        else:
            raise LogFormatError(f"{tensor_path}: tensor index {app} out of range "
                                 f"[0,{len(tensors)})")
        det = sim.Detection(box=record_box(rec), confidence=rec["conf"], appearance=app)
        dets_by_t.setdefault(rec["t"], {}).setdefault(rec["cav"], []).append(det)
    frames = [sim.SimFrame(timestep=t, gt=tuple(gt_by_t.get(t, [])),
                           detections=dets_by_t.get(t, {}), poses=poses_by_t.get(t, {}))
              for t in sorted(set(gt_by_t) | set(dets_by_t))]
    return frames, det_records


def check_appearance(data_dir: str, frames, covnet_cfg) -> None:
    """Reject, before any network runs, a log whose detections cannot feed
    the appearance branch when `covnet_cfg` enables it: every detection
    needs a tensor of `covnet_cfg.app_shape` from the directory's tensor
    store. Raises LogFormatError naming that store."""
    if not covnet_cfg.use_appearance:
        return
    path = os.path.join(data_dir, TENSORS_FILE)
    if not os.path.exists(path):
        raise LogFormatError(f"{path}: missing, but covnet.use_appearance needs "
                             f"a tensor for every detection")
    shape = tuple(covnet_cfg.app_shape)
    for frame in frames:
        for cav, dets in sorted(frame.detections.items()):
            for det in dets:
                if det.appearance is None:
                    raise LogFormatError(f"{path}: a detection of vehicle {cav} at "
                                         f"t={frame.timestep} has no tensor (\"app\": null), "
                                         f"but covnet.use_appearance needs one")
                if det.appearance.shape != shape:
                    raise LogFormatError(f"{path}: tensor shape {list(det.appearance.shape)} "
                                         f"is not covnet.app_shape {list(shape)}")


def write_track_output(out_dir: str, frames, reports, cost) -> None:
    """Write the tracks of `frames` (keyed by their timesteps) and the comm cost."""
    os.makedirs(out_dir, exist_ok=True)
    write_log(os.path.join(out_dir, TRACKS_FILE), FORMAT_TRACKS,
              reports_to_records(reports, [f.timestep for f in frames]))
    with replace_file(os.path.join(out_dir, COMM_FILE)) as fh:
        fh.write(canonical_json(cost.as_dict()) + "\n")


def load_track_output(run_dir: str):
    """Read what `track` wrote: (track frames, MB sent, run config).

    The MB figure is 0.0 without a comm file and the config is None without
    a run metadata file.
    """
    records = read_log(os.path.join(run_dir, TRACKS_FILE), FORMAT_TRACKS)
    comm_mb = 0.0
    comm_path = os.path.join(run_dir, COMM_FILE)
    if os.path.exists(comm_path):
        comm_mb = _check_file_object(CommFile, _read_json(comm_path), comm_path)["mb_total"]
    config = None
    meta_path = os.path.join(run_dir, RUN_META_FILE)
    if os.path.exists(meta_path):
        meta = _read_json(meta_path)
        try:
            config = config_from_dict(meta["config"])
        except (KeyError, ConfigError) as exc:
            raise LogFormatError(f"{meta_path}: bad run configuration ({exc})") from exc
    return track_frames_from_records(records), comm_mb, config


def _read_json(path: str, error=LogFormatError) -> dict:
    """The JSON object in a file; `error` when it holds anything else."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise error(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise error(f"{path}: expected a JSON object")
    return data


# --- checkpoints --------------------------------------------------------------


@dataclass
class AdamState:
    """Adam's step count and moments, keyed by (owner cav, layer name) like the
    optimized parameter sets (`set_owners`)."""

    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    @classmethod
    def init(cls, param_sets: dict) -> "AdamState":
        """Zero moments for every array of `param_sets` (owner -> CovNetParams)."""
        m = {(cav, name): np.zeros_like(arr)
             for cav, params in param_sets.items() for name, arr in params.arrays.items()}
        return cls(0, m, {key: np.zeros_like(arr) for key, arr in m.items()})


@dataclass
class Checkpoint:
    params_by_cav: dict
    config: RunConfig
    seed: int
    epochs_done: int = 0
    adam_state: AdamState | None = None


def _param_cavs(cfg: RunConfig):
    return [0] if cfg.covnet.shared_weights else list(range(cfg.num_cavs))


def params_by_vehicle(cfg: RunConfig, make: Callable[[int], CovNetParams]) -> dict:
    """Vehicle id -> parameter set, `make(cav)` giving the set of each owning vehicle
    in id order; under shared weights every vehicle uses vehicle 0's."""
    owned = {cav: make(cav) for cav in _param_cavs(cfg)}
    return {cav: owned.get(cav, owned[0]) for cav in range(cfg.num_cavs)}


def set_owners(params_by_cav: dict) -> dict:
    """Vehicle id -> the owner of its parameter set, in id order: vehicles share a set
    exactly when their CovNetParams hold one `arrays` mapping, owned by the lowest id."""
    owner_of = {}  # id of an arrays mapping -> its owner
    return {cav: owner_of.setdefault(id(params_by_cav[cav].arrays), cav)
            for cav in sorted(params_by_cav)}


def _checkpoint_manifest(cfg: RunConfig, adam: bool) -> list:
    """The manifest a checkpoint of `cfg` holds, in file order: the `param` entries,
    then (when `adam`) the `adam_m` and `adam_v` ones; each kind by vehicle id, and
    each vehicle's layers in `layer_shapes` order."""
    shapes = layer_shapes(cfg.covnet.covnet_config())
    kinds = ("param", "adam_m", "adam_v") if adam else ("param",)
    return [{"cav": cav, "kind": kind, "name": name, "shape": list(shape)}
            for kind in kinds for cav in _param_cavs(cfg) for name, shape in shapes.items()]


def save_checkpoint(path: str, ckpt: Checkpoint):
    """ValueError, before any file is opened, unless `set_owners` gives the config's."""
    cfg, owners = ckpt.config, set_owners(ckpt.params_by_cav)
    if owners != params_by_vehicle(cfg, lambda cav: cav):  # the owners the config names
        raise ValueError(f"parameter set owners {owners} disagree with num_cavs={cfg.num_cavs}"
                         f" and covnet.shared_weights={cfg.covnet.shared_weights}")
    manifest, blobs = [], []
    for entry in _checkpoint_manifest(cfg, ckpt.adam_state is not None):
        cav, name, kind = entry["cav"], entry["name"], entry["kind"]
        arr = np.ascontiguousarray(
            ckpt.params_by_cav[cav].arrays[name] if kind == "param"
            else getattr(ckpt.adam_state, kind.removeprefix("adam_"))[cav, name], dtype="<f8")
        manifest.append(dict(entry, shape=list(arr.shape)))
        blobs.append(arr.tobytes())
    header = {"format": FORMAT_CHECKPOINT, "version": SCHEMA_VERSION,
              "config": config_to_dict(cfg), "seed": int(ckpt.seed),
              "epochs_done": int(ckpt.epochs_done),
              "adam_step": None if ckpt.adam_state is None else int(ckpt.adam_state.step),
              "manifest": manifest}
    with replace_file(path, "wb") as fh:
        fh.write((canonical_json(header) + "\n").encode())
        for blob in blobs:
            fh.write(blob)


def _manifest_entry(manifest, i) -> str:
    """Entry i as compact sorted JSON, which tells true from 1 and 2.0 from 2 and,
    unlike canonical_json, writes a NaN; "no entry" past the manifest's end."""
    if i >= len(manifest):
        return "no entry"
    return json.dumps(manifest[i], sort_keys=True, separators=(",", ":"))


@contextlib.contextmanager
def checkpoint_overflow_rejected(path: str, other_cause: str = ""):
    """Run the block with numpy's overflow and invalid operations raised, not
    warned, and report them as a LogFormatError naming checkpoint `path`:
    finite weights or Adam moments (say 1e300) can still overflow the
    network or the optimizer. `other_cause` ends the message, naming what
    else could have overflowed them."""
    with np.errstate(over="raise", invalid="raise"):
        try:
            yield
        except FloatingPointError as exc:
            raise LogFormatError(f"{path}: the checkpoint's weights or Adam moments "
                                 f"are too large ({exc}){other_cause}") from exc


def load_checkpoint(path: str, expect_config: RunConfig = None) -> Checkpoint:
    with open(path, "rb") as fh:
        header = _read_header(fh.readline(), path, FORMAT_CHECKPOINT, "checkpoint")
        data = fh.read()
    _check_file_object(CheckpointHeader, header, f"{path} line 1")
    try:
        cfg = config_from_dict(header["config"])
    except ConfigError as exc:
        raise LogFormatError(f"{path}: bad run configuration ({exc})") from exc
    manifest = _checkpoint_manifest(cfg, header.get("adam_step") is not None)
    for i in range(max(len(header["manifest"]), len(manifest))):
        found, want = _manifest_entry(header["manifest"], i), _manifest_entry(manifest, i)
        if found != want:
            raise LogFormatError(f"{path} line 1: manifest entry {i} is {found}, "
                                 f"expected {want}")
    sizes = [math.prod(entry["shape"]) for entry in manifest]
    if len(data) < 8 * sum(sizes):
        raise LogFormatError(f"{path}: truncated checkpoint data")
    if len(data) > 8 * sum(sizes):
        raise LogFormatError(f"{path}: trailing data after the manifest's tensors")
    blocks = np.split(np.frombuffer(data, dtype="<f8").copy(), np.cumsum(sizes)[:-1])
    arrays = {"param": {}, "adam_m": {}, "adam_v": {}}
    for entry, block in zip(manifest, blocks):
        # Adam's second moments are means of squared gradients
        bad = ("non-finite" if not np.isfinite(block).all() else
               "negative" if entry["kind"] == "adam_v" and (block < 0).any() else None)
        if bad:
            raise LogFormatError(f"{path}: vehicle {entry['cav']}: {entry['kind']} "
                                 f"{entry['name']} has {bad} entries")
        arrays[entry["kind"]][entry["cav"], entry["name"]] = block.reshape(entry["shape"])
    net_cfg = cfg.covnet.covnet_config()
    params_by_cav = params_by_vehicle(cfg, lambda cav: CovNetParams(
        net_cfg, {name: arrays["param"][cav, name] for name in layer_shapes(net_cfg)}))
    adam_state = None
    if header.get("adam_step") is not None:
        adam_state = AdamState(header["adam_step"], arrays["adam_m"], arrays["adam_v"])
    for key, what in (("num_cavs", "number of vehicles"), ("covnet", "network settings"),
                      ("normalization_bounds", "normalization bounds")):
        if expect_config is not None and getattr(expect_config, key) != getattr(cfg, key):
            raise LogFormatError(f"{path}: checkpoint and run config differ in {what} ({key})")
    return Checkpoint(params_by_cav=params_by_cav, config=cfg, seed=header["seed"],
                      epochs_done=header["epochs_done"], adam_state=adam_state)

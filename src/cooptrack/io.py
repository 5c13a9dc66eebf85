"""File formats, configuration, and persistence.

All text artifacts are line-delimited JSON with a schema header line and
canonical serialization (sorted keys, compact separators, shortest
round-trip float repr), so re-serializing a parsed file is byte-identical
and replay is exact. Appearance tensors and checkpoints use a one-line JSON
header followed by raw little-endian float64 data; each file is read whole, in
one call that returns plain data. Every output file is written through
`replace_file`, so a failed write leaves the previous file.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import math
import os
import typing
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import __version__, sim
from .association import LifecycleConfig
from .covnet import CovNetConfig, CovNetParams, layer_shapes
from .features import DEFAULT_BOUNDS
from .geometry import Box7, PoseYawT

FORMAT_DETECTIONS = "cooptrack-detections"
FORMAT_TRACKS = "cooptrack-tracks"
FORMAT_GROUNDTRUTH = "cooptrack-groundtruth"
FORMAT_LOSSCURVE = "cooptrack-losscurve"
FORMAT_TENSORS = "cooptrack-tensors"
FORMAT_CHECKPOINT = "cooptrack-checkpoint"
SCHEMA_VERSION = 1

# the files of a run directory: `simulate` writes the first three, `track`
# the next two, and both write RUN_META_FILE
GT_FILE = "gt.jsonl"
DETECTIONS_FILE = "detections.jsonl"
TENSORS_FILE = "tensors.bin"
TRACKS_FILE = "tracks.jsonl"
COMM_FILE = "comm.json"
RUN_META_FILE = "run_meta.json"


class LogFormatError(ValueError):
    """Malformed or wrong-version persisted data."""


class ConfigError(ValueError):
    """Invalid or unknown configuration content."""


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, no whitespace, round-trip floats."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


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
    partial = path + ".partial"
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
class ScenarioConfig:
    preset: str = "v2v_mini"
    duration: int = 200
    noise_multiplier: float = 1.0
    miss_multiplier: float = 1.0
    fp_multiplier: float = 1.0


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
    batch_windows: int = 1


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


# The schema of a config file: a key's type is its field's annotation (a section
# is a field whose type is a dataclass), and its allowed values are in CONFIG_RANGES.


class Allowed(typing.NamedTuple):
    text: str  # for people, as in `--help` and the README
    test: Callable[[object], bool]


def _at_least(lo) -> Allowed:
    return Allowed(f">= {lo}", lambda v: v >= lo)


def _one_of(*options) -> Allowed:
    return Allowed(" or ".join(map(json.dumps, options)), lambda v: v in options)


_POSITIVE = Allowed("> 0", lambda v: v > 0)
_UNIT_OPEN = Allowed("in (0, 1)", lambda v: 0 < v < 1)

CONFIG_RANGES = {  # keyed by dotted path
    "seed": _at_least(0), "num_cavs": _at_least(1), "eval_iou_threshold": _UNIT_OPEN,
    "normalization_bounds": Allowed(f"{len(DEFAULT_BOUNDS)} pairs, each min < max",
                                    lambda v: len(v) == len(DEFAULT_BOUNDS)
                                    and all(lo < hi for lo, hi in v)),
    "scenario.preset": _one_of("v2v_mini"), "scenario.duration": _at_least(1),
    "scenario.noise_multiplier": _at_least(0), "scenario.miss_multiplier": _at_least(0),
    "scenario.fp_multiplier": _at_least(0),
    "tracker.min_hits": _at_least(1), "tracker.max_age": _at_least(0),
    "tracker.score_decay": Allowed("in (0, 1]", lambda v: 0 < v <= 1),
    "tracker.process_noise_velocity": _at_least(0), "tracker.assoc_iou_threshold": _UNIT_OPEN,
    "covnet.app_shape": Allowed("all >= 1", lambda v: min(v) >= 1),
    "covnet.conv_channels": Allowed("non-empty, all >= 1", lambda v: len(v) > 0 and min(v) >= 1),
    "covnet.kernel": _at_least(1), "covnet.stride": _at_least(1), "covnet.pad": _at_least(0),
    "covnet.pos_hidden": _at_least(1), "covnet.pos_out": _at_least(1),
    "covnet.head_hidden": _at_least(1),
    "train.window_length": _at_least(2), "train.lr": _POSITIVE,
    "train.weight_decay": _at_least(0), "train.grad_clip_norm": _POSITIVE,
    "train.epochs": _at_least(0), "train.gt_match_radius": _POSITIVE,
    "train.center_distance": _one_of("3d", "2d"), "train.batch_windows": _one_of(1),
}


def _is_number(value) -> bool:
    """A finite int or float; a bool, or an int beyond float range, is not."""
    try:
        return not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):
        return False


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def config_keys(cls=RunConfig, prefix=""):
    """(dotted key, type, default) of every setting under `cls`, in field order."""
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        if dataclasses.is_dataclass(hints[f.name]):
            yield from config_keys(hints[f.name], f"{prefix}{f.name}.")
        else:
            yield f"{prefix}{f.name}", hints[f.name], f.default


def type_name(hint) -> str:
    """A config type as JSON spells it: `int`, `[int, int, int]`, `[[float, float], ...]`."""
    args = typing.get_args(hint)
    if not args:
        return hint.__name__
    return "[" + ", ".join("..." if a is Ellipsis else type_name(a) for a in args) + "]"


def _as_type(value, hint):
    """`value` as a `hint`, JSON lists becoming tuples; None when it is not one."""
    args = typing.get_args(hint)
    if not args:
        is_type = {int: _is_int, float: _is_number}.get(hint, lambda v: isinstance(v, hint))
        return value if is_type(value) else None
    if args[-1] is Ellipsis and isinstance(value, (list, tuple)):
        args = args[:1] * len(value)
    if not isinstance(value, (list, tuple)) or len(value) != len(args):
        return None
    items = tuple(_as_type(v, a) for v, a in zip(value, args))
    return None if None in items else items


def _from_dict(cls, data, path):
    if not isinstance(data, dict):
        raise ConfigError(f"{path or 'config'}: expected an object, got {data!r}")
    hints = typing.get_type_hints(cls)
    unknown = set(data) - set(hints)
    if unknown:
        raise ConfigError(f"{path or 'config'}: unknown key(s) {sorted(unknown)}")
    kwargs = {}
    for name, value in data.items():
        key = f"{path}.{name}" if path else name
        if dataclasses.is_dataclass(hints[name]):
            kwargs[name] = _from_dict(hints[name], value, key)
            continue
        kwargs[name] = _as_type(value, hints[name])
        if kwargs[name] is None:
            raise ConfigError(f"{key}: expected {type_name(hints[name])}, got {value!r}")
        allowed = CONFIG_RANGES.get(key)
        if allowed is not None and not allowed.test(kwargs[name]):
            raise ConfigError(f"{key}: must be {allowed.text}, got {value!r}")
    try:
        return cls(**kwargs)
    except ValueError as exc:  # a rule across keys, such as the covnet branch widths
        raise ConfigError(f"{path or 'config'}: {exc}") from exc


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


def write_run_metadata(out_dir: str, cfg: RunConfig, extra: dict = None):
    """Record enough to replay the run exactly: config, its hash, version."""
    meta = {"config": config_to_dict(cfg), "config_sha256": config_hash(cfg),
            "seed": cfg.seed, "package_version": __version__}
    if extra:
        meta.update(extra)
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


_INT, _NUM, _LIST, _OBJ = "an integer", "a finite number", "a list", "an object"
_KIND_CHECKS = {_INT: _is_int,
                _NUM: _is_number, _LIST: lambda v: isinstance(v, list),
                _OBJ: lambda v: isinstance(v, dict)}


def _validate_fields(rec, where, **kinds):
    """Each named field must be present and of its kind (_INT, _NUM, _LIST or _OBJ)."""
    for key, kind in kinds.items():
        if key not in rec:
            raise LogFormatError(f"{where}: missing field {key!r}")
        if not _KIND_CHECKS[kind](rec[key]):
            raise LogFormatError(f"{where}: {key} must be {kind}, got {rec[key]!r}")


def _validate_finite(values, name, where):
    if not all(map(_is_number, values)):
        raise LogFormatError(f"{where}: {name} entries must be finite numbers")


def _validate_box(values, where):
    if len(values) != 7:
        raise LogFormatError(f"{where}: box must be a 7-element list")
    _validate_finite(values, "box", where)
    if min(values[4:7]) <= 0:
        raise LogFormatError(f"{where}: box extents must be positive")


def _validate_detection(rec, where):
    _validate_fields(rec, where, t=_INT, cav=_INT, box=_LIST, conf=_NUM, sigma=_LIST,
                     pose=_LIST)
    _validate_box(rec["box"], where)
    if not 0.0 < rec["conf"] <= 1.0:
        raise LogFormatError(f"{where}: confidence must be in (0,1], got {rec['conf']}")
    if len(rec["sigma"]) != 10:
        raise LogFormatError(f"{where}: sigma must have 10 entries")
    _validate_finite(rec["sigma"], "sigma", where)
    if len(rec["pose"]) != 4:
        raise LogFormatError(f"{where}: pose must have 4 entries")
    _validate_finite(rec["pose"], "pose", where)
    app = rec.get("app")
    if app is not None and not (_KIND_CHECKS[_INT](app) and app >= 0):
        raise LogFormatError(f"{where}: app must be null or a non-negative integer, "
                             f"got {app!r}")


def _validate_track(rec, where):
    _validate_fields(rec, where, t=_INT, id=_INT, box=_LIST, score=_NUM)
    _validate_box(rec["box"], where)


def _validate_gt(rec, where):
    _validate_fields(rec, where, t=_INT, obj=_INT, box=_LIST)
    _validate_box(rec["box"], where)


def _validate_loss(rec, where):
    _validate_fields(rec, where, epoch=_INT, window=_INT, loss=_NUM, supervised=_INT)


_VALIDATORS = {FORMAT_DETECTIONS: _validate_detection, FORMAT_TRACKS: _validate_track,
               FORMAT_GROUNDTRUTH: _validate_gt, FORMAT_LOSSCURVE: _validate_loss}


def write_log(path: str, format_name: str, records):
    """Write a schema-headed JSONL file; every record is validated first."""
    validator = _VALIDATORS[format_name]
    with replace_file(path) as fh:
        fh.write(canonical_json({"format": format_name, "version": SCHEMA_VERSION}))
        fh.write("\n")
        for i, rec in enumerate(records):
            validator(rec, f"record {i}")
            fh.write(canonical_json(rec))
            fh.write("\n")


def read_log(path: str, format_name: str):
    """Read and validate a JSONL log; returns its records. Only a line feed ends a
    line, so a record's strings may hold other line separators. Header keys beyond
    the format and version are ignored."""
    validator = _VALIDATORS[format_name]
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
    _read_header(lines[0], path, format_name, "log")
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.rstrip("\r"):
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise LogFormatError(f"{path} line {lineno}: invalid JSON ({exc})") from exc
        if not isinstance(rec, dict):
            raise LogFormatError(f"{path} line {lineno}: record must be a JSON object")
        validator(rec, f"{path} line {lineno}")
        records.append(rec)
    return records


# conversions between log records and runtime objects


def detection_record(t: int, cav_id: int, box: Box7, conf: float, pose: PoseYawT,
                     sigma=None, app_index=None) -> dict:
    sigma = [0.0] * 10 if sigma is None else [float(s) for s in sigma]
    return {"t": int(t), "cav": int(cav_id), "box": [float(v) for v in box.to_vector()],
            "conf": float(conf), "sigma": sigma,
            "pose": [float(pose.t_x), float(pose.t_y), float(pose.t_z), float(pose.yaw)],
            "app": None if app_index is None else int(app_index)}


def track_record(t: int, track_id: int, box: Box7, score: float) -> dict:
    return {"t": int(t), "id": int(track_id),
            "box": [float(v) for v in box.to_vector()], "score": float(score)}


def gt_record(t: int, obj_id: int, box: Box7) -> dict:
    return {"t": int(t), "obj": int(obj_id), "box": [float(v) for v in box.to_vector()]}


def record_box(rec) -> Box7:
    return Box7.from_vector(np.array(rec["box"], dtype=float))


def record_pose(rec) -> PoseYawT:
    p = rec["pose"]
    return PoseYawT(p[0], p[1], p[2], p[3])


def track_frames_from_records(records) -> dict:
    """{timestep: [(track_id, Box7, score)]} from track log records."""
    out = {}
    for rec in records:
        out.setdefault(rec["t"], []).append(
            (rec["id"], Box7.from_vector(rec["box"]), rec["score"]))
    return out


def gt_frames_from_records(records) -> dict:
    """{timestep: [(obj_id, Box7)]} from ground-truth log records."""
    out = {}
    for rec in records:
        out.setdefault(rec["t"], []).append((rec["obj"], Box7.from_vector(rec["box"])))
    return out


def track_frames_from_reports(reports, timesteps) -> dict:
    """{timestep: [(track_id, Box7, score)]} from per-frame tracker reports.

    `timesteps[i]` is the timestep of the frame that produced `reports[i]`.
    """
    return {t: [(rt.track_id, rt.box, rt.score) for rt in frame]
            for t, frame in zip(timesteps, reports, strict=True)}


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
        if header.get("dtype") != "<f8":
            raise LogFormatError(f"{path} line 1: tensor dtype {header.get('dtype')!r} "
                                 "not supported (expected '<f8')")
        shape = header.get("shape")
        if not (isinstance(shape, list) and shape
                and all(type(s) is int and s > 0 for s in shape)):
            raise LogFormatError(
                f"{path}: tensor header needs a shape of positive ints, got {shape!r}")
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
    sc = cfg.scenario
    return sim.preset_v2v_mini(seed=cfg.seed, duration=sc.duration,
                               noise_multiplier=sc.noise_multiplier,
                               miss_multiplier=sc.miss_multiplier,
                               fp_multiplier=sc.fp_multiplier)


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
    for rec in det_records:
        pose = record_pose(rec)
        if poses_by_t.setdefault(rec["t"], {}).setdefault(rec["cav"], pose) != pose:
            raise ValueError(f"{det_path}: conflicting poses for t={rec['t']} "
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
        comm_mb = _read_json(comm_path).get("mb_total")
        if not (_is_number(comm_mb) and comm_mb >= 0):
            raise LogFormatError(f"{comm_path}: mb_total must be a finite non-negative "
                                 f"number, got {comm_mb!r}")
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
class Checkpoint:
    params_by_cav: dict
    config: RunConfig
    seed: int
    epochs_done: int = 0
    adam_state: dict = None  # {"step": int, "m": {(cav,name): arr}, "v": {...}}


def _param_cavs(cfg: RunConfig):
    return [0] if cfg.covnet.shared_weights else list(range(cfg.num_cavs))


def _checkpoint_manifest(cfg: RunConfig, adam: bool) -> list:
    """The manifest a checkpoint of `cfg` holds, in file order: the `param` entries,
    then (when `adam`) the `adam_m` and `adam_v` ones; each kind by vehicle id, and
    each vehicle's layers in `layer_shapes` order."""
    shapes = layer_shapes(cfg.covnet.covnet_config())
    kinds = ("param", "adam_m", "adam_v") if adam else ("param",)
    return [{"cav": cav, "kind": kind, "name": name, "shape": list(shape)}
            for kind in kinds for cav in _param_cavs(cfg) for name, shape in shapes.items()]


def save_checkpoint(path: str, ckpt: Checkpoint):
    cfg = ckpt.config
    manifest = []
    blobs = []
    for entry in _checkpoint_manifest(cfg, ckpt.adam_state is not None):
        cav, name, kind = entry["cav"], entry["name"], entry["kind"]
        arr = np.ascontiguousarray(
            ckpt.params_by_cav[cav].arrays[name] if kind == "param"
            else ckpt.adam_state[kind.removeprefix("adam_")][cav, name], dtype="<f8")
        manifest.append(dict(entry, shape=list(arr.shape)))
        blobs.append(arr.tobytes())
    header = {"format": FORMAT_CHECKPOINT, "version": SCHEMA_VERSION,
              "config": config_to_dict(cfg), "seed": int(ckpt.seed),
              "epochs_done": int(ckpt.epochs_done),
              "adam_step": (None if ckpt.adam_state is None
                            else int(ckpt.adam_state["step"])),
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


def _validate_checkpoint_header(header, path):
    """Type-check the header fields of a checkpoint and require the manifest its run
    config determines, entry for entry; returns (run config, manifest)."""
    where = f"{path} line 1"
    _validate_fields(header, where, config=_OBJ, seed=_INT, epochs_done=_INT, manifest=_LIST)
    if header.get("adam_step") is not None:
        _validate_fields(header, where, adam_step=_INT)
    try:
        cfg = config_from_dict(header["config"])
    except ConfigError as exc:
        raise LogFormatError(f"{path}: bad run configuration ({exc})") from exc
    manifest = _checkpoint_manifest(cfg, header.get("adam_step") is not None)
    for i in range(max(len(header["manifest"]), len(manifest))):
        found, want = _manifest_entry(header["manifest"], i), _manifest_entry(manifest, i)
        if found != want:
            raise LogFormatError(f"{where}: manifest entry {i} is {found}, expected {want}")
    return cfg, manifest


def load_checkpoint(path: str, expect_config: RunConfig = None) -> Checkpoint:
    with open(path, "rb") as fh:
        header = _read_header(fh.readline(), path, FORMAT_CHECKPOINT, "checkpoint")
        cfg, manifest = _validate_checkpoint_header(header, path)
        data = fh.read()
    sizes = [math.prod(entry["shape"]) for entry in manifest]
    if len(data) < 8 * sum(sizes):
        raise LogFormatError(f"{path}: truncated checkpoint data")
    if len(data) > 8 * sum(sizes):
        raise LogFormatError(f"{path}: trailing data after the manifest's tensors")
    blocks = np.split(np.frombuffer(data, dtype="<f8").copy(), np.cumsum(sizes)[:-1])
    arrays = {"param": {}, "adam_m": {}, "adam_v": {}}
    for entry, block in zip(manifest, blocks):
        arrays[entry["kind"]][entry["cav"], entry["name"]] = block.reshape(entry["shape"])
    net_cfg = cfg.covnet.covnet_config()
    params_by_cav = {}
    for cav in _param_cavs(cfg):
        params = CovNetParams(net_cfg, {name: arrays["param"][cav, name]
                                        for name in layer_shapes(net_cfg)})
        try:
            params.validate()
        except ValueError as exc:
            raise LogFormatError(f"{path}: vehicle {cav}: {exc}") from exc
        params_by_cav[cav] = params
    if cfg.covnet.shared_weights:
        for cav in range(cfg.num_cavs):
            params_by_cav[cav] = params_by_cav[0]
    adam_state = None
    if header.get("adam_step") is not None:
        adam_state = {"step": header["adam_step"], "m": arrays["adam_m"],
                      "v": arrays["adam_v"]}
    for key, what in (("num_cavs", "number of vehicles"), ("covnet", "network settings"),
                      ("normalization_bounds", "normalization bounds")):
        if expect_config is not None and getattr(expect_config, key) != getattr(cfg, key):
            raise LogFormatError(f"{path}: checkpoint and run config differ in {what} ({key})")
    return Checkpoint(params_by_cav=params_by_cav, config=cfg, seed=header["seed"],
                      epochs_done=header["epochs_done"], adam_state=adam_state)

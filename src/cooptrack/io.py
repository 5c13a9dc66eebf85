"""File formats, configuration, and persistence.

All text artifacts are line-delimited JSON with a schema header line and
canonical serialization (sorted keys, compact separators, shortest
round-trip float repr), so re-serializing a parsed file is byte-identical
and replay is exact. Appearance tensors and checkpoints use a one-line JSON
header followed by raw little-endian float64 data.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
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


# --- configuration -----------------------------------------------------------


@dataclass(frozen=True)
class ScenarioConfig:
    preset: str = "v2v_mini"
    duration: int = 200
    noise_multiplier: float = 1.0
    miss_multiplier: float = 1.0
    fp_multiplier: float = 1.0

    def validate(self):
        if self.preset != "v2v_mini":
            raise ConfigError(f"unknown scenario preset {self.preset!r}")
        if self.duration < 1:
            raise ConfigError("scenario duration must be >= 1")
        for name in ("noise_multiplier", "miss_multiplier", "fp_multiplier"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")


@dataclass(frozen=True)
class TrackerSettings(LifecycleConfig):
    process_noise_velocity: float = 0.01
    assoc_iou_threshold: float = 0.1

    def validate(self):
        if self.process_noise_velocity < 0:
            raise ConfigError("process_noise_velocity must be >= 0")
        if not 0.0 < self.assoc_iou_threshold < 1.0:
            raise ConfigError("assoc_iou_threshold must be in (0,1)")
        if self.min_hits < 1 or self.max_age < 0:
            raise ConfigError("min_hits >= 1 and max_age >= 0 required")
        if not 0.0 < self.score_decay <= 1.0:
            raise ConfigError("score_decay must be in (0,1]")


@dataclass(frozen=True)
class NetSettings(CovNetConfig):
    shared_weights: bool = False

    def covnet_config(self) -> CovNetConfig:
        """The network fields alone, as a plain CovNetConfig."""
        kwargs = {f.name: getattr(self, f.name) for f in dataclasses.fields(CovNetConfig)}
        kwargs["app_shape"] = tuple(self.app_shape)
        return CovNetConfig(**kwargs)


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

    def validate(self):
        if self.window_length < 2:
            raise ConfigError("window_length must be >= 2")
        for name in ("lr", "grad_clip_norm", "gt_match_radius"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be > 0")
        if self.weight_decay < 0:
            raise ConfigError("weight_decay must be >= 0")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.center_distance not in ("3d", "2d"):
            raise ConfigError("center_distance must be '3d' or '2d'")
        if self.batch_windows != 1:
            raise ConfigError("only batch_windows = 1 is supported")


@dataclass(frozen=True)
class RunConfig:
    """Every tunable constant in one schema-checked object."""

    seed: int = 0
    num_cavs: int = 2
    eval_iou_threshold: float = 0.25
    normalization_bounds: tuple = DEFAULT_BOUNDS
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    tracker: TrackerSettings = field(default_factory=TrackerSettings)
    covnet: NetSettings = field(default_factory=NetSettings)
    train: TrainSettings = field(default_factory=TrainSettings)

    def validate(self):
        if self.num_cavs < 1:
            raise ConfigError("num_cavs must be >= 1")
        if not 0.0 < self.eval_iou_threshold < 1.0:
            raise ConfigError("eval_iou_threshold must be in (0,1)")
        bounds = self.normalization_bounds
        if len(bounds) != len(DEFAULT_BOUNDS):
            raise ConfigError(f"normalization_bounds needs {len(DEFAULT_BOUNDS)} pairs")
        for k, pair in enumerate(bounds):
            if len(pair) != 2 or not pair[0] < pair[1]:
                raise ConfigError(f"normalization_bounds[{k}] must be (min, max) with min < max")
        self.scenario.validate()
        self.tracker.validate()
        self.train.validate()


def _from_dict(cls, data, path):
    if not isinstance(data, dict):
        raise ConfigError(f"{path or 'config'}: expected an object, got {type(data).__name__}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(data) - set(fields)
    if unknown:
        raise ConfigError(f"{path or 'config'}: unknown key(s) {sorted(unknown)}")
    kwargs = {}
    for name, value in data.items():
        sub = f"{path}.{name}" if path else name
        if name in _SECTION_TYPES:
            kwargs[name] = _from_dict(_SECTION_TYPES[name], value, sub)
        elif isinstance(value, list):
            kwargs[name] = _tuplify(value)
        else:
            kwargs[name] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path or 'config'}: {exc}") from exc


_SECTION_TYPES = {"scenario": ScenarioConfig, "tracker": TrackerSettings,
                  "covnet": NetSettings, "train": TrainSettings}


def _tuplify(value):
    if isinstance(value, list):
        return tuple(_tuplify(v) for v in value)
    return value


def _listify(value):
    if isinstance(value, tuple):
        return [_listify(v) for v in value]
    return value


def config_from_dict(data: dict) -> RunConfig:
    cfg = _from_dict(RunConfig, data, "")
    cfg.validate()
    return cfg


def config_to_dict(cfg: RunConfig) -> dict:
    out = {}
    for f in dataclasses.fields(RunConfig):
        value = getattr(cfg, f.name)
        if f.name in _SECTION_TYPES:
            out[f.name] = {sf.name: _listify(getattr(value, sf.name))
                           for sf in dataclasses.fields(value)}
        else:
            out[f.name] = _listify(value)
    return out


def load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    return config_from_dict(data)


def save_config(path: str, cfg: RunConfig):
    with open(path, "w", encoding="utf-8") as fh:
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
    with open(path, "w", encoding="utf-8") as fh:
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


def _is_number(value) -> bool:
    """A finite int or float; a bool, or an int beyond float range, is not."""
    try:
        return not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):
        return False


_INT, _NUM, _LIST, _OBJ = "an integer", "a finite number", "a list", "an object"
_KIND_CHECKS = {_INT: lambda v: isinstance(v, int) and not isinstance(v, bool),
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


def write_log(path: str, format_name: str, records, meta: dict = None):
    """Write a schema-headed JSONL file; every record is validated first."""
    validator = _VALIDATORS[format_name]
    header = {"format": format_name, "version": SCHEMA_VERSION}
    if meta:
        header["meta"] = meta
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(header))
        fh.write("\n")
        for i, rec in enumerate(records):
            validator(rec, f"record {i}")
            fh.write(canonical_json(rec))
            fh.write("\n")


def read_log(path: str, format_name: str):
    """Read and validate a JSONL log; returns (header meta or {}, records)."""
    validator = _VALIDATORS[format_name]
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise LogFormatError(f"{path}: empty file (missing header)")
    header = _read_header(lines[0], path, format_name, "log")
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise LogFormatError(f"{path} line {lineno}: invalid JSON ({exc})") from exc
        if not isinstance(rec, dict):
            raise LogFormatError(f"{path} line {lineno}: record must be a JSON object")
        validator(rec, f"{path} line {lineno}")
        records.append(rec)
    return header.get("meta", {}), records


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


class TensorStore:
    """Fixed-shape float64 tensors: one JSON header line + raw data.

    The element count is implied by file size, which keeps the format
    append-safe and byte-deterministic (no timestamps, no compression).
    """

    def __init__(self, path, shape, mode, fh, count=0):
        self.path = path
        self.shape = tuple(int(s) for s in shape)
        self._itemsize = int(np.prod(self.shape)) * 8
        self._mode = mode
        self._fh = fh
        self.count = count
        self._header_len = None

    @classmethod
    def create(cls, path: str, shape) -> "TensorStore":
        fh = open(path, "wb")
        header = canonical_json({"format": FORMAT_TENSORS, "version": SCHEMA_VERSION,
                                 "dtype": "<f8", "shape": list(shape)}) + "\n"
        fh.write(header.encode())
        return cls(path, shape, "w", fh)

    @classmethod
    def open(cls, path: str) -> "TensorStore":
        fh = open(path, "rb")
        try:
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
            store = cls(path, shape, "r", fh)
            data_len = os.path.getsize(path) - len(header_line)
            if data_len % store._itemsize:
                raise LogFormatError(f"{path}: truncated tensor data")
        except BaseException:
            fh.close()
            raise
        store.count = data_len // store._itemsize
        store._header_len = len(header_line)
        return store

    def append(self, arr: np.ndarray) -> int:
        if self._mode != "w":
            raise LogFormatError("store opened read-only")
        arr = np.ascontiguousarray(arr, dtype="<f8")
        if arr.shape != self.shape:
            raise LogFormatError(f"tensor shape {arr.shape} != store shape {self.shape}")
        self._fh.write(arr.tobytes())
        idx = self.count
        self.count += 1
        return idx

    def read(self, index: int) -> np.ndarray:
        if self._mode != "r":
            raise LogFormatError("store opened write-only")
        if not 0 <= index < self.count:
            raise LogFormatError(
                f"{self.path}: tensor index {index} out of range [0,{self.count})")
        self._fh.seek(self._header_len + index * self._itemsize)
        buf = self._fh.read(self._itemsize)
        arr = np.frombuffer(buf, dtype="<f8").reshape(self.shape).copy()
        if not np.all(np.isfinite(arr)):
            raise LogFormatError(f"{self.path}: tensor {index} has non-finite entries")
        return arr

    def close(self):
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


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
    with TensorStore.create(os.path.join(out_dir, TENSORS_FILE), app_shape) as store:
        for frame in frames:
            for obj_id, box in frame.gt:
                gt_records.append(gt_record(frame.timestep, obj_id, box))
            for cav_id in sorted(frame.detections):
                pose = frame.poses[cav_id]
                for det in frame.detections[cav_id]:
                    idx = store.append(det.appearance)
                    det_records.append(detection_record(
                        frame.timestep, cav_id, det.box, det.confidence, pose,
                        app_index=idx))
    write_log(os.path.join(out_dir, GT_FILE), FORMAT_GROUNDTRUTH, gt_records)
    write_log(os.path.join(out_dir, DETECTIONS_FILE), FORMAT_DETECTIONS, det_records)


def load_gt_frames(data_dir: str) -> dict:
    """{timestep: [(obj_id, Box7)]} from a directory's ground-truth log."""
    _, records = read_log(os.path.join(data_dir, GT_FILE), FORMAT_GROUNDTRUTH)
    return gt_frames_from_records(records)


def load_sim_frames(data_dir: str):
    """Rebuild per-frame ground truth + detections from a simulate output dir.

    Returns (frames, detection records); there is one frame for every
    timestep that has ground truth or a detection.
    """
    gt_by_t = load_gt_frames(data_dir)
    det_path = os.path.join(data_dir, DETECTIONS_FILE)
    _, det_records = read_log(det_path, FORMAT_DETECTIONS)
    tensor_path = os.path.join(data_dir, TENSORS_FILE)
    store = TensorStore.open(tensor_path) if os.path.exists(tensor_path) else None
    try:
        dets_by_t = {}
        poses_by_t = {}
        for rec in det_records:
            pose = record_pose(rec)
            if poses_by_t.setdefault(rec["t"], {}).setdefault(rec["cav"], pose) != pose:
                raise ValueError(f"{det_path}: conflicting poses for t={rec['t']} "
                                 f"cav={rec['cav']}")
            app = None
            if rec.get("app") is not None and store is not None:
                app = store.read(rec["app"])
            det = sim.Detection(box=record_box(rec), confidence=rec["conf"],
                                appearance=app)
            dets_by_t.setdefault(rec["t"], {}).setdefault(rec["cav"], []).append(det)
    finally:
        if store is not None:
            store.close()
    frames = [sim.SimFrame(timestep=t, gt=tuple(gt_by_t.get(t, [])),
                           detections=dets_by_t.get(t, {}), poses=poses_by_t.get(t, {}))
              for t in sorted(set(gt_by_t) | set(dets_by_t))]
    return frames, det_records


def write_track_output(out_dir: str, frames, reports, cost) -> None:
    """Write the tracks of `frames` (keyed by their timesteps) and the comm cost."""
    os.makedirs(out_dir, exist_ok=True)
    write_log(os.path.join(out_dir, TRACKS_FILE), FORMAT_TRACKS,
              reports_to_records(reports, [f.timestep for f in frames]))
    with open(os.path.join(out_dir, COMM_FILE), "w", encoding="utf-8") as fh:
        fh.write(canonical_json(cost.as_dict()) + "\n")


def load_track_output(run_dir: str):
    """Read what `track` wrote: (track frames, MB sent, run config).

    The MB figure is 0.0 without a comm file and the config is None without
    a run metadata file.
    """
    _, records = read_log(os.path.join(run_dir, TRACKS_FILE), FORMAT_TRACKS)
    comm_mb = 0.0
    comm_path = os.path.join(run_dir, COMM_FILE)
    if os.path.exists(comm_path):
        comm_mb = _read_json(comm_path)["mb_total"]
    config = None
    meta_path = os.path.join(run_dir, RUN_META_FILE)
    if os.path.exists(meta_path):
        meta = _read_json(meta_path)
        try:
            config = config_from_dict(meta["config"])
        except (KeyError, ConfigError) as exc:
            raise LogFormatError(f"{meta_path}: bad run configuration ({exc})") from exc
    return track_frames_from_records(records), comm_mb, config


def _read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise LogFormatError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise LogFormatError(f"{path}: expected a JSON object")
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
    with open(path, "wb") as fh:
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
    if expect_config is not None:
        if expect_config.num_cavs != cfg.num_cavs:
            raise LogFormatError(
                f"{path}: checkpoint is for {cfg.num_cavs} vehicles, run expects "
                f"{expect_config.num_cavs}")
        if expect_config.covnet != cfg.covnet:
            raise LogFormatError(f"{path}: checkpoint network settings differ from run config")
    return Checkpoint(params_by_cav=params_by_cav, config=cfg, seed=header["seed"],
                      epochs_done=header["epochs_done"], adam_state=adam_state)

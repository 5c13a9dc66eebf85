"""Command-line workflows: simulate, track, train, eval, comm-cost, ablate."""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import os
import sys

import numpy as np

from . import io as cio
from . import metrics, sim, training
from .pipeline import (ConstantCovariance, LearnedCovariance, frames_to_packets,
                       packets_comm_cost, run_sequence, run_tracking, tracker_from_config)

# kept importable as `cli.<name>`: tests/test_acceptance.py and perfbench/workloads.py
# read them there
from .io import (DETECTIONS_FILE, GT_FILE, TENSORS_FILE, TRACKS_FILE,  # noqa: F401
                 load_sim_frames, reports_to_records, write_sim_output)


# --- subcommands ----------------------------------------------------------------


def _check_outputs(paths, make_dir: bool = False):
    """Reject, before any work, output files that cannot be written: a usage
    error (ConfigError) naming the first of `paths` that is a directory (an
    existing one, or any path ending in a separator), whose partial file
    (`io.replace_file` writes through it) is a directory, or whose directory a
    regular file stands in the place of (the directory or one of its parents).
    With `make_dir`, then create the directory of `paths[0]`; nothing else."""
    for path in paths:
        if not os.path.basename(path) or os.path.isdir(path):
            raise cio.ConfigError(f"--out: {path!r} is a directory, not an output file path")
        if os.path.isdir(path + cio.PARTIAL_SUFFIX):
            raise cio.ConfigError(f"--out: {path + cio.PARTIAL_SUFFIX!r} is a directory, "
                                  f"but {path!r} is written through that name")
        directory = head = os.path.dirname(path)
        while head and not os.path.exists(head):
            head = os.path.dirname(head)
        if head and not os.path.isdir(head):
            raise cio.ConfigError(f"--out: cannot create directory {directory!r}: "
                                  f"{head!r} is not a directory")
    if make_dir:
        os.makedirs(os.path.dirname(paths[0]) or ".", exist_ok=True)


def cmd_simulate(args) -> int:
    cfg = cio.load_config(args.config)
    scenario = cio.build_scenario(cfg)
    _check_outputs([os.path.join(args.out, name) for name in cio.SIMULATE_FILES])
    frames = sim.generate(scenario)
    cio.write_sim_output(frames, args.out, tuple(cfg.covnet.app_shape))
    cio.write_run_metadata(args.out, cfg, "simulate")
    print(f"wrote {len(frames)} frames to {args.out}")
    return 0


def _log_vehicles(cfg, det_records) -> list:
    """The vehicle ids of a detection log, which must be those of `num_cavs`."""
    known = sorted({rec["cav"] for rec in det_records})
    if known != list(range(cfg.num_cavs)):
        raise cio.ConfigError(f"num_cavs: the config sets {cfg.num_cavs}, but the "
                              f"detection log's vehicles are {known}")
    return known


def _parse_cavs(text: str, known) -> list:
    """The vehicle ids a `--cavs` list names, sorted; each must be one of `known`."""
    cavs = set()
    for item in text.split(","):
        try:
            cav = int(item)
        except ValueError:
            cav = None
        if cav not in known:
            raise cio.ConfigError(f"--cavs: {item!r} is not a vehicle id of the log "
                                  f"(its vehicles are {known})")
        cavs.add(cav)
    return sorted(cavs)


def cmd_track(args) -> int:
    cfg = cio.load_config(args.config)
    _check_outputs([os.path.join(args.out, name) for name in cio.TRACK_FILES])
    frames, det_records = cio.load_sim_frames(args.detections)
    known = _log_vehicles(cfg, det_records)
    cav_filter = None if args.cavs is None else _parse_cavs(args.cavs, known)
    if args.checkpoint:
        cio.check_appearance(args.detections, frames, cfg.covnet)
    reports, cost = run_tracking(cfg, frames, args.checkpoint, cav_filter)
    cio.write_track_output(args.out, frames, reports, cost)
    cio.write_run_metadata(args.out, cfg, "track")
    print(f"wrote {sum(len(r) for r in reports)} track records to {args.out}")
    return 0


def _check_window(cfg, frames: int, source: str):
    """Reject, before any work, training input of fewer frames than one window:
    it would train on nothing."""
    if frames < cfg.train.window_length:
        raise cio.ConfigError(f"train.window_length: {source} holds {frames} frame(s), "
                              f"fewer than one window of {cfg.train.window_length}")


def cmd_train(args) -> int:
    cfg = cio.load_config(args.config)
    frames, det_records = cio.load_sim_frames(args.scenarios)
    _check_window(cfg, len(frames), f"the log {args.scenarios!r}")
    _log_vehicles(cfg, det_records)
    cio.check_appearance(args.scenarios, frames, cfg.covnet)
    if args.resume:
        ckpt = cio.load_checkpoint(args.resume, expect_config=cfg)
        params_by_cav, adam, epochs_done = ckpt.params_by_cav, ckpt.adam_state, ckpt.epochs_done
    else:
        params_by_cav = training.init_params_for_run(cfg, np.random.default_rng(cfg.seed))
        adam = None
        epochs_done = 0
    curve_path = args.out + ".losscurve.jsonl"
    _check_outputs([args.out, curve_path], make_dir=True)
    with (cio.checkpoint_overflow_rejected(
            args.resume, f", or train.lr ({cfg.train.lr:g}) is too large")
          if args.resume else contextlib.nullcontext()):
        result = training.train(frames, params_by_cav, cfg.train, cfg.tracker,
                                bounds=cfg.normalization_bounds, adam=adam,
                                epochs_done=epochs_done)
    ckpt = cio.Checkpoint(params_by_cav=result.params_by_cav, config=cfg,
                          seed=cfg.seed, epochs_done=result.epochs_done,
                          adam_state=result.adam)
    cio.save_checkpoint(args.out, ckpt)
    cio.write_log(curve_path, cio.FORMAT_LOSSCURVE, result.loss_curve)
    print(f"trained {result.epochs_done - epochs_done} epoch(s); "
          f"checkpoint at {args.out}")
    return 0


def cmd_eval(args) -> int:
    track_frames, comm_mb, run_cfg = cio.load_track_output(args.tracks)
    iou_threshold = (run_cfg or cio.RunConfig()).eval_iou_threshold
    gt_frames = cio.load_gt_frames(args.gt)
    if not gt_frames:
        raise cio.LogFormatError(f"{os.path.join(args.gt, cio.GT_FILE)}: no ground-truth "
                                 f"records; metrics are undefined")
    base, ext = os.path.splitext(args.out)
    levels_path = f"{base}_levels{ext or '.csv'}"
    _check_outputs([args.out, levels_path], make_dir=True)
    report = metrics.evaluate(track_frames, gt_frames, iou_threshold=iou_threshold)
    metrics.write_summary_csv(args.out, [("run", report, comm_mb)])
    metrics.write_recall_table_csv(levels_path, report)
    print(f"AMOTA {report.amota:.2f}  sAMOTA {report.samota:.2f}  "
          f"AMOTP {report.amotp:.2f}  MOTA {report.mota:.2f}  "
          f"MT {report.mt:.2f}  ML {report.ml:.2f}  IDS {report.ids}")
    return 0


def cmd_comm_cost(args) -> int:
    frames, _ = cio.load_sim_frames(args.detections)
    cost = packets_comm_cost(frames_to_packets(frames), metrics.SHARED_REALS)
    print(f"shared detections: {cost.num_shared_detections}")
    print(f"bytes total: {cost.bytes_total}")
    print(f"MB total: {cost.mb_total:.6f}")
    print(f"MB per frame: {cost.mb_per_frame:.8f}")
    print(f"payload ratio vs box-only: {cost.ratio_vs_box_only:.4f}")
    return 0


def cmd_ablate(args) -> int:
    cfg = cio.load_config(args.config)
    _check_window(cfg, cfg.scenario.duration, "scenario.duration")
    train_scenario = cio.build_scenario(cfg)
    eval_scenario = cio.build_scenario(dataclasses.replace(cfg, seed=cfg.seed + 1))
    _check_outputs([args.out], make_dir=True)
    train_frames, eval_frames = sim.generate(train_scenario), sim.generate(eval_scenario)
    gt_frames = {f.timestep: list(f.gt) for f in eval_frames}

    variants = [("constant", None),
                ("appearance_only", {"use_appearance": True, "use_positional": False}),
                ("positional_only", {"use_appearance": False, "use_positional": True}),
                ("both", {"use_appearance": True, "use_positional": True})]
    rows = []
    for label, net_flags in variants:
        if net_flags is None:
            run_cfg = cfg
            provider = ConstantCovariance()
        else:
            run_cfg = dataclasses.replace(
                cfg, covnet=dataclasses.replace(cfg.covnet, **net_flags))
            params = training.init_params_for_run(run_cfg,
                                                  np.random.default_rng(run_cfg.seed))
            result = training.train(train_frames, params, run_cfg.train,
                                    run_cfg.tracker, bounds=run_cfg.normalization_bounds)
            provider = LearnedCovariance(result.params_by_cav,
                                         bounds=run_cfg.normalization_bounds)
        tracker = tracker_from_config(run_cfg, provider)
        reports, cost = run_sequence(frames_to_packets(eval_frames), tracker)
        track_frames = cio.track_frames_from_reports(
            reports, [f.timestep for f in eval_frames])
        report = metrics.evaluate(track_frames, gt_frames,
                                  iou_threshold=run_cfg.eval_iou_threshold)
        rows.append((label, report, cost.mb_total))
    metrics.write_summary_csv(args.out, rows)
    print(f"wrote {len(rows)} ablation rows to {args.out}")
    return 0


# --- argument parsing -----------------------------------------------------------


def _config_keys_help() -> str:
    return "\n".join(["configuration file keys (JSON; every key optional):"] + [
        f"  {key}: {cio.type_name(hint)}, default {cio.canonical_json(default)}"
        + (f", allowed {cio.CONFIG_RANGES[key].text}" if key in cio.CONFIG_RANGES else "")
        for key, hint, default in cio.config_keys()])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cooptrack",
        description="Cooperative multi-vehicle 3D multi-object tracking.",
        epilog=_config_keys_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a scenario and detection logs")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("track", help="run the tracker over a detection log")
    p.add_argument("--config", required=True)
    p.add_argument("--detections", required=True)
    p.add_argument("--checkpoint", default=None,
                   help="trained covariance network; omit for constant covariance")
    p.add_argument("--cavs", default=None,
                   help="comma-separated vehicle ids to use (default: all)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("train", help="train the covariance networks")
    p.add_argument("--config", required=True)
    p.add_argument("--scenarios", required=True,
                   help="directory produced by `simulate` (needs ground truth)")
    p.add_argument("--resume", default=None, help="checkpoint to resume from")
    p.add_argument("--out", required=True, help="output checkpoint path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a track log against ground truth")
    p.add_argument("--tracks", required=True, help=f"directory with {cio.TRACKS_FILE}")
    p.add_argument("--gt", required=True, help=f"directory with {cio.GT_FILE}")
    p.add_argument("--out", required=True, help="summary CSV path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("comm-cost", help="communication cost of a detection log")
    p.add_argument("--detections", required=True)
    p.set_defaults(func=cmd_comm_cost)

    p = sub.add_parser("ablate", help="run the four-variant ablation grid")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="CSV path for the grid")
    p.set_defaults(func=cmd_ablate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (cio.ConfigError, cio.LogFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Optimization of the covariance network through the tracking pipeline.

Training runs the full tracker over fixed-length windows on a gradient tape,
computes a center-gated L2 loss between reported track boxes and ground
truth, backpropagates through every update of the window (including the
covariance recursion), clips the global gradient norm across all vehicles'
parameters, and applies Adam with decoupled-from-clipping weight decay
(decay is added to the clipped gradient, then fed to the moments).
"""

from __future__ import annotations

import gc
import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .covnet import CovNetParams
from .features import DEFAULT_BOUNDS
from .geometry import wrap_angle
from .pipeline import LearnedCovariance, packets_from_sim_frame, tracker_from_settings

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def split_subsequences(frames, window_length: int):
    """Consecutive non-overlapping windows; a short trailing remainder is dropped."""
    if window_length < 2:
        raise ValueError("window length must be >= 2")
    n = len(frames) // window_length
    return [frames[i * window_length:(i + 1) * window_length] for i in range(n)]


def _center_distances(means, centers, mode: str) -> np.ndarray:
    """(tracks, gts) distances between track means and ground-truth centers.

    `means` holds the tracks' first three state entries, `centers` the
    ground truths' (x, y, z); "2d" ignores z.
    """
    d = means[:, None, :] - centers[None, :, :]
    if mode == "2d":
        return np.hypot(d[..., 0], d[..., 1])
    return np.sqrt(d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1] + d[..., 2] * d[..., 2])


def window_loss(reports_per_frame, gt_per_frame, radius: float = 2.0,
                center_mode: str = "3d"):
    """Mean L2 error of reported boxes against their nearest ground truth.

    Only tracks whose nearest ground-truth center lies within `radius` meters
    contribute (nearest by center distance, ties to the lower ground-truth
    index). The yaw component of each target is shifted by a multiple of 2pi
    (and the magnitude wrapped) so the residual never jumps across the angle
    cut. Returns (loss, supervised_count); loss is None when no track
    qualifies anywhere in the window.

    The supervised means of the whole window are stacked into one node and
    their norms taken in one batch, so the loss adds the same few tape nodes
    however many tracks it supervises. An exact fit has a zero gradient.
    """
    rows, targets = [], []
    for reported, gts in zip(reports_per_frame, gt_per_frame):
        if not gts or not reported:
            continue
        means = np.stack([ad.val(rt.mean) for rt in reported])
        gt_vectors = np.stack([box.to_vector() for _gid, box in gts])
        dist = _center_distances(means[:, :3], gt_vectors[:, :3], center_mode)
        nearest = np.argmin(dist, axis=1)
        keep = ~(dist[np.arange(len(reported)), nearest] > radius)
        if not keep.any():
            continue
        target = gt_vectors[nearest[keep]].astype(means.dtype)
        track_yaw = means[keep, 3].astype(np.float64)
        target[:, 3] = track_yaw - wrap_angle(track_yaw - target[:, 3])
        rows.extend(rt.mean for rt, kept in zip(reported, keep) if kept)
        targets.append(target)
    if not rows:
        return None, 0
    diff = ad.sub(ad.stack(rows)[:, :7], np.concatenate(targets))
    norms = ad.sqrt(ad.asum(ad.square(diff), axis=1))
    return ad.div(ad.asum(norms), float(len(rows))), len(rows)


# --- optimizer -----------------------------------------------------------------


@dataclass
class AdamState:
    step: int = 0
    m: dict = field(default_factory=dict)  # (cav, name) -> array
    v: dict = field(default_factory=dict)

    @classmethod
    def init(cls, param_sets: dict) -> "AdamState":
        state = cls()
        for cav, params in param_sets.items():
            for name, arr in params.arrays.items():
                state.m[(cav, name)] = np.zeros_like(arr)
                state.v[(cav, name)] = np.zeros_like(arr)
        return state


def global_grad_norm(grads: dict) -> float:
    return math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))


def clip_gradients(grads: dict, max_norm: float):
    """Scale all gradients by one factor so the global norm is <= max_norm."""
    norm = global_grad_norm(grads)
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        grads = {k: g * scale for k, g in grads.items()}
    return grads, norm


def adam_step(param_sets: dict, grads: dict, state: AdamState, lr: float,
              weight_decay: float):
    """One Adam update; weight decay is folded into the gradient first."""
    state.step += 1
    t = state.step
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    for cav, params in param_sets.items():
        for name, arr in params.arrays.items():
            key = (cav, name)
            g = grads[key] + weight_decay * arr
            m = state.m[key] = ADAM_BETA1 * state.m[key] + (1.0 - ADAM_BETA1) * g
            v = state.v[key] = ADAM_BETA2 * state.v[key] + (1.0 - ADAM_BETA2) * (g * g)
            arr -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


# --- training loop --------------------------------------------------------------


@dataclass
class TrainResult:
    param_sets: dict          # distinct parameter sets actually optimized
    params_by_cav: dict       # cav_id -> CovNetParams (aliases in shared mode)
    adam: AdamState
    loss_curve: list          # {"epoch", "window", "loss", "supervised"}
    epochs_done: int


def _distinct_param_sets(params_by_cav: dict) -> dict:
    """Collapse aliased parameter objects (shared-weights mode) to one entry."""
    seen = {}
    for cav in sorted(params_by_cav):
        params = params_by_cav[cav]
        if not any(params is p for p in seen.values()):
            seen[cav] = params
    return seen


def train(frames, params_by_cav: dict, settings, tracker_settings,
          bounds=DEFAULT_BOUNDS, adam: AdamState = None, epochs_done: int = 0):
    """Optimize all covariance networks on one simulated sequence.

    `frames` is the simulator output (SimFrame list), `settings` a
    TrainSettings, `tracker_settings` a TrackerSettings (which is also the
    tracker's LifecycleConfig). Pass the Adam state and `epochs_done` from a
    checkpoint to resume; resumed training is bit-identical to an
    uninterrupted run because window order is fixed and the loop consumes no
    randomness. A checkpoint that has done `settings.epochs` already trains
    no further and keeps its count. A window whose global gradient norm is
    not finite raises FloatingPointError before the optimizer changes
    anything.

    The cyclic garbage collector is paused while training runs, and the
    caller's setting is restored on return or raise: each window's graph
    is freed by reference counting (`Tape.release`), so collections would
    only walk the growing tape.
    """
    gc_enabled = gc.isenabled()
    gc.disable()
    try:
        return _train(frames, params_by_cav, settings, tracker_settings, bounds, adam,
                      epochs_done)
    finally:
        if gc_enabled:
            gc.enable()


def _train(frames, params_by_cav, settings, tracker_settings, bounds, adam, epochs_done):
    windows = split_subsequences(frames, settings.window_length)
    param_sets = _distinct_param_sets(params_by_cav)
    # each vehicle's parameter object -> the key it is optimized under
    owner = {id(params): cav for cav, params in param_sets.items()}
    if adam is None:
        adam = AdamState.init(param_sets)
    loss_curve = []
    for epoch in range(epochs_done, settings.epochs):
        for w, window in enumerate(windows):
            tape = ad.Tape()
            try:
                lifted = {cav: params.lift(tape) for cav, params in param_sets.items()}
                provider_params = {cav: (lifted[owner[id(params)]], params.config)
                                   for cav, params in params_by_cav.items()}
                tracker = tracker_from_settings(tracker_settings,
                                                LearnedCovariance(provider_params, bounds))
                reports, gts = [], []
                for frame in window:
                    reports.append(tracker.step(packets_from_sim_frame(frame)))
                    gts.append(frame.gt)
                loss, supervised = window_loss(reports, gts, settings.gt_match_radius,
                                               settings.center_distance)
                if loss is None or not isinstance(loss, ad.Node):
                    # no qualifying track touched the parameters; gradients are
                    # all zero, so no optimizer step is taken
                    value = 0.0 if loss is None else float(ad.val(loss))
                    loss_curve.append({"epoch": epoch, "window": w, "loss": value,
                                       "supervised": supervised})
                    continue
                loss_value = float(ad.val(loss))
                if not math.isfinite(loss_value):
                    raise FloatingPointError(
                        f"non-finite loss {loss_value} in epoch {epoch}, window {w}")
                tape.backward(loss)
                grads = {}
                for cav, nodes in lifted.items():
                    for name, node in nodes.items():
                        grads[(cav, name)] = ad.grad_of(node)
                grads, norm = clip_gradients(grads, settings.grad_clip_norm)
                if not math.isfinite(norm):
                    raise FloatingPointError(
                        f"non-finite gradient norm {norm} in epoch {epoch}, window {w}")
                adam_step(param_sets, grads, adam, settings.lr, settings.weight_decay)
                loss_curve.append({"epoch": epoch, "window": w, "loss": loss_value,
                                   "supervised": supervised})
            finally:
                tape.release()  # free the window's graph by reference counting
    return TrainResult(param_sets=param_sets, params_by_cav=params_by_cav,
                       adam=adam, loss_curve=loss_curve,
                       epochs_done=max(epochs_done, settings.epochs))


def init_params_for_run(config, rng: np.random.Generator) -> dict:
    """Fresh per-vehicle parameter sets honoring the shared-weights flag."""
    net_cfg = config.covnet.covnet_config()
    if config.covnet.shared_weights:
        shared = CovNetParams.init(net_cfg, rng)
        return {cav: shared for cav in range(config.num_cavs)}
    return {cav: CovNetParams.init(net_cfg, rng) for cav in range(config.num_cavs)}

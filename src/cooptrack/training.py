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
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .covnet import CovNetParams
from .features import DEFAULT_BOUNDS
from .geometry import wrap_angle
from .io import AdamState, TrainSettings, params_by_vehicle, set_owners
from .pipeline import LearnedCovariance, packets_from_sim_frame, tracker_from_settings

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
ADAM_BLOCK = 32768  # entries per block of an Adam step: 256 KiB of float64


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


def window_loss(reports_per_frame, gt_per_frame,
                radius: float = TrainSettings.gt_match_radius,
                center_mode: str = TrainSettings.center_distance):
    """Mean L2 error of reported boxes against their nearest ground truth.

    Only tracks whose nearest ground-truth center lies within `radius` meters
    contribute (nearest by center distance, ties to the lower ground-truth
    index). The yaw component of each target is shifted by a multiple of 2pi
    (and the magnitude wrapped) so the residual never jumps across the angle
    cut. Returns (loss, supervised_count); loss is None when no track
    qualifies anywhere in the window.

    The reports of one frame must share their `frame` (`ReportedTrack`);
    each report's `row` picks its mean, so a frame's list may be filtered or
    reordered. Each frame's supervised means are one gather from its frame
    node, in report order, and the window's gathers are joined into one
    node whose norms are taken in one batch, so the loss adds the same few
    tape nodes per frame however many tracks it supervises. An exact fit
    has a zero gradient.
    """
    parts, targets = [], []
    for reported, gts in zip(reports_per_frame, gt_per_frame):
        if not gts or not reported:
            continue
        frame = reported[0].frame
        if any(rt.frame is not frame for rt in reported):
            raise ValueError("the reports of one frame must share their frame means")
        rows = np.array([rt.row for rt in reported], dtype=np.intp)
        means = ad.val(frame)[rows]
        gt_vectors = np.stack([box.to_vector() for _gid, box in gts])
        dist = _center_distances(means[:, :3], gt_vectors[:, :3], center_mode)
        nearest = np.argmin(dist, axis=1)
        keep = ~(dist[np.arange(len(reported)), nearest] > radius)
        if not keep.any():
            continue
        target = gt_vectors[nearest[keep]].astype(means.dtype)
        track_yaw = means[keep, 3].astype(np.float64)
        target[:, 3] = track_yaw - wrap_angle(track_yaw - target[:, 3])
        parts.append(ad.getitem(frame, rows[keep]))
        targets.append(target)
    if not parts:
        return None, 0
    targets = np.concatenate(targets)
    diff = ad.sub(ad.concat(parts)[:, :7], targets)
    norms = ad.sqrt(ad.asum(ad.square(diff), axis=1))
    return ad.div(ad.asum(norms), float(len(targets))), len(targets)


# --- optimizer -----------------------------------------------------------------


def global_grad_norm(grads: dict) -> float:
    """The L2 norm of all of `grads`' arrays, their squared sums added in
    `grads` order."""
    return math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))


def clip_gradients(grads: dict, max_norm: float):
    """(scale, norm): the one factor that brings the global norm of `grads`
    to at most max_norm, 1.0 when it already is, and that norm.

    No gradient is scaled here: `adam_step` applies the factor.
    """
    norm = global_grad_norm(grads)
    if norm > max_norm and norm > 0.0:
        return max_norm / norm, norm
    return 1.0, norm


def adam_step(param_sets: dict, grads: dict, state: AdamState, lr: float,
              weight_decay: float, scale: float = 1.0):
    """One Adam update of the gradients `grads` times `scale` (the clip factor,
    `clip_gradients`); weight decay is folded into the gradient first.

    The weights and both moments are updated in place, block of rows by
    block of rows (about ADAM_BLOCK entries each, so a block's arrays stay
    in cache), through two scratch buffers allocated once per call; each
    array of `state.m` and `state.v` keeps its identity. A block's gradient
    is scaled into a buffer, giving the products a scaled copy of the whole
    array would hold. Every entry takes the same operations in the same
    order as the textbook expressions, so the bits are theirs. `grads` is
    only read: its arrays may share memory with tape gradients.
    """
    state.step += 1
    t = state.step
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    blocks = []
    for cav, params in param_sets.items():
        for name, weights in params.arrays.items():
            rows = max(1, ADAM_BLOCK // (weights.size // len(weights)))
            blocks += [((cav, name), weights, slice(lo, lo + rows))
                       for lo in range(0, len(weights), rows)]
    buffers = np.empty(ADAM_BLOCK), np.empty(ADAM_BLOCK)
    for key, weights, block in blocks:
        w, m, v = weights[block], state.m[key][block], state.v[key][block]
        g, s = (b[:w.size].reshape(w.shape) for b in buffers)
        np.multiply(weight_decay, w, out=g)
        grad = grads[key][block]
        if scale != 1.0:
            grad = np.multiply(grad, scale, out=s)    # the clipped gradient
        np.add(grad, g, out=g)                        # g = grad + wd w
        m *= ADAM_BETA1
        m += np.multiply(1.0 - ADAM_BETA1, g, out=s)  # m = b1 m + (1 - b1) g
        v *= ADAM_BETA2
        np.multiply(g, g, out=g)
        g *= 1.0 - ADAM_BETA2
        v += g                                        # v = b2 v + (1 - b2) g^2
        np.divide(v, bc2, out=g)
        np.sqrt(g, out=g)
        g += ADAM_EPS
        np.divide(m, bc1, out=s)
        s *= lr
        s /= g
        w -= s                                        # w -= lr m^ / (sqrt(v^) + eps)


# --- training loop --------------------------------------------------------------


@dataclass
class TrainResult:
    params_by_cav: dict       # cav_id -> CovNetParams (aliases in shared mode)
    adam: AdamState           # moments keyed by (owner cav, layer name)
    loss_curve: list          # {"epoch", "window", "loss", "supervised"}
    epochs_done: int


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
    anything. Each parameter set (`set_owners`) is lifted, stepped and keyed
    by its owner. Each window builds its provider from the lifted weights,
    which folds each parameter set once (`LearnedCovariance`). Its
    covariance rows come from one `residual_rows` call over all of its
    packets, one network pass per parameter set, made before its frames
    are tracked; the tracker then takes each packet's rows from them
    (`_WindowRows`). The backward sweep, the gradient norm and the Adam
    step run on the calling thread, one after another.

    The cyclic garbage collector is paused while training runs, and the
    caller's setting is restored on return or raise: collections would only
    walk the growing tape, and each window's graph is freed by reference
    counting. The backward sweep frees the adjoints and every non-leaf
    gradient as it passes them (`Tape.backward`). The window's tape is
    released (`Tape.release`) as soon as the leaf gradients are read, before
    clipping and the Adam step, so the step writes into the weight arrays
    that the leaves hold uncopied (`Tape.var`) only once no sweep can read
    them.
    """
    gc_enabled = gc.isenabled()
    gc.disable()
    try:
        return _train(frames, params_by_cav, settings, tracker_settings, bounds, adam,
                      epochs_done)
    finally:
        if gc_enabled:
            gc.enable()


class _WindowRows:
    """A window's covariance provider: each of its packets' residual rows,
    as one `residual_rows` call gave them for all of `packets`."""

    def __init__(self, packets, rows):
        self.rows = {(p.timestep, p.cav_id): r for p, r in zip(packets, rows)}

    def residual_rows(self, packets):
        """Each packet's rows, looked up by its timestep and vehicle."""
        return [self.rows[p.timestep, p.cav_id] for p in packets]


def _train(frames, params_by_cav, settings, tracker_settings, bounds, adam, epochs_done):
    windows = split_subsequences(frames, settings.window_length)
    owners = set_owners(params_by_cav)
    param_sets = {cav: params_by_cav[cav] for cav, owner in owners.items() if cav == owner}
    if adam is None:
        adam = AdamState.init(param_sets)
    loss_curve = []
    for epoch in range(epochs_done, settings.epochs):
        for w, window in enumerate(windows):
            tape = ad.Tape()
            try:
                lifted = {cav: CovNetParams(params.config, params.lift(tape))
                          for cav, params in param_sets.items()}
                provider = LearnedCovariance({cav: lifted[owner] for cav, owner
                                              in owners.items()}, bounds)
                frame_packets = [packets_from_sim_frame(frame) for frame in window]
                packets = [p for frame in frame_packets for p in frame]
                tracker = tracker_from_settings(
                    tracker_settings, _WindowRows(packets, provider.residual_rows(packets)))
                reports = [tracker.step(packets) for packets in frame_packets]
                loss, supervised = window_loss(reports, [frame.gt for frame in window],
                                               settings.gt_match_radius,
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
                grads = {(cav, name): ad.grad_of(node) for cav, params in lifted.items()
                         for name, node in params.arrays.items()}
                # the leaves hold the weights uncopied (`Tape.var`): free the
                # graph before the Adam step writes into them
                tape.release()
                scale, norm = clip_gradients(grads, settings.grad_clip_norm)
                if not math.isfinite(norm):
                    raise FloatingPointError(
                        f"non-finite gradient norm {norm} in epoch {epoch}, window {w}")
                adam_step(param_sets, grads, adam, settings.lr, settings.weight_decay, scale)
                loss_curve.append({"epoch": epoch, "window": w, "loss": loss_value,
                                   "supervised": supervised})
            finally:
                tape.release()  # also on the exits that take no Adam step
    return TrainResult(params_by_cav=params_by_cav, adam=adam, loss_curve=loss_curve,
                       epochs_done=max(epochs_done, settings.epochs))


def init_params_for_run(config, rng: np.random.Generator) -> dict:
    """Fresh per-vehicle parameter sets honoring the shared-weights flag."""
    net_cfg = config.covnet.covnet_config()
    return params_by_vehicle(config, lambda cav: CovNetParams.init(net_cfg, rng))

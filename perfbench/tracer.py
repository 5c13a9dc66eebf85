"""In-memory span tracer for the public functions of each cooptrack layer.

`Tracer.install()` replaces each traced function by a wrapper everywhere it
is looked up: the defining module and every `cooptrack` module that bound
the same function object by name (`from .geometry import iou3d`), or the
class attribute for a method. `uninstall()` restores every original.

A span is (name, start, end, parent span, group). Spans live in flat
arrays while the run goes on and are written out once at the end. Derived
figures (calls, busy and self seconds, layer counters) come from the spans
and from counters updated at the same call boundaries.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array

import numpy as np

# (module, attribute path) of every traced public function, in layer order
TRACED = (
    ("geometry", "iou3d"),
    ("association", "build_cost_matrix"),
    ("association", "hungarian_solve"),
    ("association", "associate"),
    ("filter", "update"),
    ("filter", "predict"),
    ("features", "encode_detection"),
    ("covnet", "forward"),
    ("autodiff", "Tape.backward"),
    ("training", "train"),
    ("training", "window_loss"),
    ("training", "clip_gradients"),
    ("training", "adam_step"),
    ("pipeline", "CoopTracker.step"),
    ("metrics", "evaluate"),
    ("metrics", "match_frame"),
    ("sim", "generate"),
    ("io", "write_log"),
    ("io", "read_log"),
    ("io", "TensorStore.read"),
)
PACKAGE = "cooptrack"

# Grouping: every span called from outside the package (a frame's step, an
# evaluate call, a whole training run) starts a group. Inside training, the
# first step after a window's loss starts the next window's group, so one
# window's steps, loss, backward and optimizer step share an identifier.
WINDOW_OPEN = "pipeline.CoopTracker.step"
WINDOW_CLOSE = "training.window_loss"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _value(x):
    """Plain array behind a tape node, or the argument itself."""
    return getattr(x, "value", x)


# Counters recorded at the call boundary: name -> fn(counts, args, kwargs, result)
def _count_iou(c, args, kwargs, result):
    c["nonzero"] += result > 0.0


def _count_cost(c, args, kwargs, result):
    c["pairs"] += len(_arg(args, kwargs, 0, "tracks")) * len(_arg(args, kwargs, 1, "detections"))


def _count_hungarian(c, args, kwargs, result):
    c["dim_max"] = max(c["dim_max"], max(np.shape(_arg(args, kwargs, 0, "cost")), default=0))


def _count_forward(c, args, kwargs, result):
    f_pos = _value(_arg(args, kwargs, 2, "f_pos"))
    # one detection is an (18, 256) encoding; a batch adds a leading axis
    c["rows"] += f_pos.shape[0] if np.ndim(f_pos) == 3 else 1


def _count_backward(c, args, kwargs, result):
    c["tape_nodes"] += len(args[0])


def _count_window_loss(c, args, kwargs, result):
    loss = result[0]
    c["skipped"] += loss is None or not hasattr(loss, "tape")


def _count_clip(c, args, kwargs, result):
    c["fired"] += result[1] > _arg(args, kwargs, 1, "max_norm")


def _count_step(c, args, kwargs, result):
    c["detections"] += sum(len(p.detections) for p in _arg(args, kwargs, 1, "packets"))
    c["tracks_live"] += len(args[0].tracks)


PROBES = {
    "geometry.iou3d": _count_iou,
    "association.build_cost_matrix": _count_cost,
    "association.hungarian_solve": _count_hungarian,
    "covnet.forward": _count_forward,
    "autodiff.Tape.backward": _count_backward,
    "training.window_loss": _count_window_loss,
    "training.clip_gradients": _count_clip,
    "pipeline.CoopTracker.step": _count_step,
}


class Tracer:
    """Records one span per call into a traced function while installed."""

    def __init__(self):
        self.names = [f"{m}.{a}" for m, a in TRACED]
        self.name_id = array("i")
        self.parent = array("i")
        self.group_id = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts = {name: _Counts() for name in self.names}
        self.group = 0
        self.missing = []
        self._stack = []
        self._patches = []
        self._window_open = self.names.index(WINDOW_OPEN)
        self._window_close = self.names.index(WINDOW_CLOSE)
        self._window_closed = True

    # --- patching ---------------------------------------------------------------

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for nid, (mod_name, path) in enumerate(TRACED):
            module = importlib.import_module(f"{PACKAGE}.{mod_name}")
            owner, attr = module, path
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name, None)
            original = owner.__dict__.get(attr) if owner is not None else None
            if original is None:
                self.missing.append(self.names[nid])
                continue
            wrapper = self._wrap(nid, original)
            if owner is module:
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, key, original))
                            setattr(mod, key, wrapper)
            else:
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
        return self

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def _wrap(self, nid, fn):
        tracer = self
        name = self.names[nid]
        probe = PROBES.get(name)
        counts = self.counts[name]
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if not stack:
                tracer.group += 1
                tracer._window_closed = True
            elif nid == tracer._window_open and tracer._window_closed:
                tracer.group += 1
                tracer._window_closed = False
            sid = len(tracer.start)
            tracer.name_id.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.group_id.append(tracer.group)
            tracer.end.append(0.0)
            stack.append(sid)
            tracer.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[sid] = clock()
                stack.pop()
            if probe is not None:
                probe(counts, args, kwargs, result)
            if nid == tracer._window_close:
                tracer._window_closed = True
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # --- results ----------------------------------------------------------------

    def spans(self) -> dict:
        """The recorded spans as numpy arrays (one entry per span)."""
        return {"name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
                "group": np.frombuffer(self.group_id, dtype=np.int64).copy(),
                "start": np.frombuffer(self.start, dtype=np.float64).copy(),
                "end": np.frombuffer(self.end, dtype=np.float64).copy(),
                "names": np.array(self.names)}

    def save(self, path: str):
        np.savez_compressed(path, **self.spans())

    def summary(self) -> dict:
        """Per traced name: calls, busy_s, self_s and the boundary counters."""
        s = self.spans()
        n_names = len(self.names)
        dur = s["end"] - s["start"]
        has_parent = s["parent"] >= 0
        child = np.bincount(s["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur)) if len(dur) else np.zeros(0)
        calls = np.bincount(s["name_id"], minlength=n_names)
        busy = np.bincount(s["name_id"], weights=dur, minlength=n_names)
        self_s = np.bincount(s["name_id"], weights=dur - child, minlength=n_names)
        out = {}
        for nid, name in enumerate(self.names):
            entry = {"calls": int(calls[nid]), "busy_s": float(busy[nid]),
                     "self_s": float(self_s[nid])}
            entry.update(self.counts[name])
            out[name] = entry
        return out


class _Counts(dict):
    """Counter dict whose missing keys read as 0."""

    def __missing__(self, key):
        return 0

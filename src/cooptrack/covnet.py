"""Covariance network: noise-residual prediction for a batch of detections.

Two branches process the appearance tensor (two strided convolutions) and the
encoded positional matrix (two linear stages); their flattened outputs are
concatenated and passed through a two-stage linear head with one rectifier in
between. The first positional stage is specified on the (N, 18 x 256)
sinusoidal encoding; its weight `pos.lin1.w` is stored, trained and
checkpointed in the Chebyshev basis the network reads, as the
(18 (D + 1), hidden) weight of an (N, 18 (D + 1)) product
(`features.chebyshev_rows`). The 10 outputs are additive
standard-deviation residuals, which `residual_to_noise_diag` maps to a
detection's noise diagonal: its first 7 entries are the observation noise,
all 10 the initial state covariance of a track the detection births.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .features import (CHEBYSHEV_BASIS, CHEBYSHEV_DEGREE, DEFAULT_APPEARANCE_SHAPE,
                       ENCODING_HALF_WIDTH, POSITIONAL_DIM)
from .filter import R_FLOOR, STATE_DIM

RESIDUAL_DIM = STATE_DIM
BRANCH_WIDTH_TOLERANCE = 0.15

@dataclass(frozen=True)
class CovNetConfig:
    app_shape: tuple[int, int, int] = DEFAULT_APPEARANCE_SHAPE
    conv_channels: tuple[int, ...] = (16, 32)
    kernel: int = 3
    stride: int = 2
    pad: int = 1
    pos_hidden: int = 64
    pos_out: int = 128
    head_hidden: int = 64
    use_appearance: bool = True
    use_positional: bool = True

    def __post_init__(self):
        if not (self.use_appearance or self.use_positional):
            raise ValueError("at least one input branch must be enabled")
        if self.use_appearance and min(self.conv_output_hw()) < 1:
            raise ValueError("the convolutions shrink the appearance tensor to "
                             "{}x{}".format(*self.conv_output_hw()))
        if self.use_appearance and self.use_positional:
            a, p = self.appearance_flat_width(), self.pos_out
            if abs(a - p) > BRANCH_WIDTH_TOLERANCE * max(a, p):
                raise ValueError(
                    f"branch flatten widths {a} and {p} differ by more than "
                    f"{BRANCH_WIDTH_TOLERANCE:.0%}")

    def conv_output_hw(self) -> tuple:
        _, h, w = self.app_shape
        for _ in self.conv_channels:
            h = (h + 2 * self.pad - self.kernel) // self.stride + 1
            w = (w + 2 * self.pad - self.kernel) // self.stride + 1
        return h, w

    def appearance_flat_width(self) -> int:
        h, w = self.conv_output_hw()
        return self.conv_channels[-1] * h * w

    def head_input_width(self) -> int:
        width = 0
        if self.use_appearance:
            width += self.appearance_flat_width()
        if self.use_positional:
            width += self.pos_out
        return width


def layer_shapes(cfg: CovNetConfig) -> dict:
    """Ordered name -> shape map defining the parameter set."""
    shapes = {}
    if cfg.use_appearance:
        c_in = cfg.app_shape[0]
        for i, c_out in enumerate(cfg.conv_channels, start=1):
            shapes[f"app.conv{i}.w"] = (c_out, c_in, cfg.kernel, cfg.kernel)
            shapes[f"app.conv{i}.b"] = (c_out,)
            c_in = c_out
    if cfg.use_positional:
        shapes["pos.lin1.w"] = (POSITIONAL_DIM * (CHEBYSHEV_DEGREE + 1), cfg.pos_hidden)
        shapes["pos.lin1.b"] = (cfg.pos_hidden,)
        shapes["pos.lin2.w"] = (cfg.pos_hidden, cfg.pos_out)
        shapes["pos.lin2.b"] = (cfg.pos_out,)
    shapes["head.lin1.w"] = (cfg.head_input_width(), cfg.head_hidden)
    shapes["head.lin1.b"] = (cfg.head_hidden,)
    shapes["head.lin2.w"] = (cfg.head_hidden, RESIDUAL_DIM)
    shapes["head.lin2.b"] = (RESIDUAL_DIM,)
    return shapes


def _fan_in(shape: tuple) -> int:
    """A weight array's inputs per output: in-channels times kernel area, or rows."""
    if len(shape) == 4:
        return shape[1] * shape[2] * shape[3]
    return shape[0]


@dataclass
class CovNetParams:
    """Trainable arrays keyed by layer name; iteration order is fixed."""

    config: CovNetConfig
    arrays: dict = field(default_factory=dict)

    @classmethod
    def init(cls, config: CovNetConfig, rng: np.random.Generator) -> "CovNetParams":
        """Seeded uniform [-k, k] weights with k = 1/sqrt(fan_in), zero biases.

        `pos.lin1.w` is drawn as the (18 x 256, hidden) weight of the
        sinusoidal encoding, fan-in 18 x 256, and folded once into the
        Chebyshev basis: feature f's (256, hidden) block W_f becomes
        CHEBYSHEV_BASIS W_f, so that f's Chebyshev values times it give its
        sinusoids times W_f.
        """
        arrays = {}
        for name, shape in layer_shapes(config).items():
            if name.endswith(".b"):
                arrays[name] = np.zeros(shape)
            elif name == "pos.lin1.w":
                width = 2 * ENCODING_HALF_WIDTH
                k = 1.0 / np.sqrt(POSITIONAL_DIM * width)
                drawn = rng.uniform(-k, k, size=(POSITIONAL_DIM, width, shape[1]))
                arrays[name] = np.reshape(CHEBYSHEV_BASIS @ drawn, shape)
            else:
                k = 1.0 / np.sqrt(_fan_in(shape))
                arrays[name] = rng.uniform(-k, k, size=shape)
        return cls(config, arrays)

    def lift(self, tape: ad.Tape) -> dict:
        """Wrap every array, uncopied (`Tape.var`), as a tape variable for a training pass."""
        return {name: tape.var(arr) for name, arr in self.arrays.items()}


def check_appearance(config: CovNetConfig, f_app, n: int):
    """ValueError unless `f_app` holds n appearance tensors of the configured shape."""
    if ad.val(f_app).shape != (n,) + tuple(config.app_shape):
        raise ValueError(f"appearance shape {ad.val(f_app).shape} != "
                         f"{n} x configured {config.app_shape}")


def forward(params: CovNetParams, f_app, f_pos):
    """Residual std rows for a batch of N detections.

    `f_app` is (N, c, h, w) (ignored without the appearance branch), `f_pos`
    the (N, 18, D + 1) Chebyshev rows of the detections' normalized
    positional rows (`features.chebyshev_rows`), read as (N, 18 (D + 1))
    rows times `pos.lin1.w`; each conv and each linear stage runs once over
    the whole batch. The arrays of `params` may be plain arrays or tape
    nodes (the mapping of CovNetParams.lift, wrapped as CovNetParams).
    Returns an (N, 10) array, a node when any input is a node.
    """
    config, arrays = params.config, params.arrays
    n = len(ad.val(f_pos if config.use_positional else f_app))
    pieces = []
    if config.use_appearance:
        check_appearance(config, f_app, n)
        a = f_app
        for i in range(1, len(config.conv_channels) + 1):
            a = ad.conv2d(a, arrays[f"app.conv{i}.w"], arrays[f"app.conv{i}.b"],
                          stride=config.stride, pad=config.pad)
            a = ad.relu(a)
        pieces.append(ad.reshape(a, (n, config.appearance_flat_width())))
    if config.use_positional:
        expect = (n, POSITIONAL_DIM, CHEBYSHEV_DEGREE + 1)
        if ad.val(f_pos).shape != expect:
            raise ValueError(f"positional shape {ad.val(f_pos).shape} != expected {expect}")
        w = arrays["pos.lin1.w"]
        if ad.val(w).shape[0] != expect[1] * expect[2]:
            raise ValueError(f"pos.lin1.w has {ad.val(w).shape[0]} rows, not the "
                             f"{expect[1] * expect[2]} of the Chebyshev rows it multiplies")
        x = ad.reshape(f_pos, (n, expect[1] * expect[2]))
        x = ad.relu(ad.linear(x, w, arrays["pos.lin1.b"]))
        x = ad.relu(ad.linear(x, arrays["pos.lin2.w"], arrays["pos.lin2.b"]))
        pieces.append(x)
    h = pieces[0] if len(pieces) == 1 else ad.concat(pieces, axis=1)
    h = ad.relu(ad.linear(h, arrays["head.lin1.w"], arrays["head.lin1.b"]))
    return ad.linear(h, arrays["head.lin2.w"], arrays["head.lin2.b"])


def residual_to_noise_diag(sigma_residual):
    """The noise diagonal of each residual row: (1 + residual)^2, floored at
    R_FLOOR.

    Takes a 10-vector or an (N, 10) batch, elementwise; a zero residual gives
    ones exactly. Entries 0..6 of a row are its detection's observation noise
    diagonal, all 10 the initial covariance diagonal of a track it births.
    """
    s = ad.add(1.0, sigma_residual)
    return ad.floor_clamp(ad.square(s), R_FLOOR)

"""Layer toolkit operating on the channels-last [T, N, H, W, C] activation
layout, C-contiguous. Network.to_input views a dataset batch as
[T, N, C, H, W], Network.forward copies that view into this layout in the
network's dtype, once, and no layer changes the layout.

Every layer hands its [T, N, ...] activation straight to one tensor op:
conv, BN, the pools and the classifier fold T into the batch as a view
inside their own autograd node, so each of these layers adds exactly one
node; a spiking layer hands the whole [T, ...] input to the fused LIF op,
which threads the membrane step to step inside one node and starts from
rest on every forward (see neuron.py).
A ForwardContext carries the training flag and the optional SpikeRecord,
which each op-counted layer tells its literal input. Network and
ResidualBlock run their modules through forward_chain, which releases each
activation once its consumer's forward has returned; a layer called
directly keeps its output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as tz
from .errors import NumericError, ShapeError
from .neuron import LIFConfig, lif_multistep
from .record import SpikeRecord
from .tensor import Tensor


@dataclass
class ForwardContext:
    training: bool = False
    record: SpikeRecord | None = None


def forward_chain(x: Tensor, mods: list["Module"], ctx: ForwardContext) -> Tensor:
    """x through mods in order. Each activation the chain produced is
    released (tz.release) as soon as the module it feeds has returned, since
    no backward reads it; x itself is the caller's. The chain holds no
    activation past its consumer, so an unreleased (no-grad) one is freed
    there too unless the caller holds it."""
    for i, mod in enumerate(mods):
        out = mod.forward(x, ctx)
        if i:
            tz.release(x)
        x = out
    return x


def he_uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int,
               dtype) -> Tensor:
    bound = float(np.sqrt(6.0 / fan_in))
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True, dtype=dtype)


class Module:
    """Composable graph node with stable dotted naming."""

    def __init__(self, name: str):
        self.name = name

    def children(self) -> list["Module"]:
        return []

    def walk(self):
        yield self
        for child in self.children():
            yield from child.walk()

    def named_params(self) -> list[tuple[str, Tensor]]:
        out = []
        for child in self.children():
            out.extend(child.named_params())
        return out

    def named_buffers(self) -> list[tuple[str, np.ndarray]]:
        out = []
        for child in self.children():
            out.extend(child.named_buffers())
        return out

    def forward(self, x: Tensor, ctx: ForwardContext) -> Tensor:
        raise NotImplementedError


def _require_5d(x: Tensor, who: str) -> tuple[int, ...]:
    if x.ndim != 5:
        raise ShapeError(f"{who} expects [T, N, H, W, C] input, got {x.shape}")
    return x.shape


class ConvLayer(Module):
    """Square-kernel convolution over all T x N frames. No bias (BN follows)."""

    def __init__(self, name: str, in_channels: int, out_channels: int, kernel: int,
                 stride: int = 1, padding: int = 0, *, rng: np.random.Generator,
                 dtype=np.float32):
        super().__init__(name)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.stride = stride
        self.padding = padding
        self.weight = he_uniform(rng, (out_channels, in_channels, kernel, kernel),
                                 in_channels * kernel * kernel, dtype)

    def named_params(self):
        return [(f"{self.name}.weight", self.weight)]

    def forward(self, x: Tensor, ctx: ForwardContext) -> Tensor:
        c = _require_5d(x, self.name)[4]
        if c != self.in_channels:
            raise ShapeError(f"{self.name}: expected {self.in_channels} channels, got {c}")
        if ctx.record is not None:
            ctx.record.note_input(self.name, x.data)
        return tz.conv2d(x, self.weight, self.stride, self.padding)


class BatchNormLayer(Module):
    """BatchNorm over channels; statistics pool the folded T x batch axis.
    eps and momentum are batchnorm2d's defaults, 1e-5 and 0.1."""

    def __init__(self, name: str, channels: int, *, dtype=np.float32):
        super().__init__(name)
        self.channels = channels
        self.gamma = Tensor(np.ones(channels), requires_grad=True, dtype=dtype)
        self.beta = Tensor(np.zeros(channels), requires_grad=True, dtype=dtype)
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)

    def named_params(self):
        return [(f"{self.name}.gamma", self.gamma), (f"{self.name}.beta", self.beta)]

    def named_buffers(self):
        return [(f"{self.name}.running_mean", self.running_mean),
                (f"{self.name}.running_var", self.running_var)]

    def forward(self, x: Tensor, ctx: ForwardContext) -> Tensor:
        _require_5d(x, self.name)
        return tz.batchnorm2d(x, self.gamma, self.beta, self.running_mean,
                              self.running_var, training=ctx.training)


class LIFLayer(Module):
    """Spiking nonlinearity over the time axis: each forward runs all T
    steps of its input from rest and keeps no membrane after it returns."""

    def __init__(self, name: str, cfg: LIFConfig):
        super().__init__(name)
        self.cfg = cfg

    def forward(self, x: Tensor, ctx: ForwardContext) -> Tensor:
        try:
            out, _ = lif_multistep(x, self.cfg)
        except NumericError as err:
            raise NumericError(f"{self.name}: {err}") from None
        if ctx.record is not None:
            ctx.record.note_spikes(self.name, "lif", out.data)
        return out


class MaxPoolLayer(Module):
    def __init__(self, name: str, kernel: int, stride: int, padding: int = 0):
        super().__init__(name)
        self.kernel = kernel
        self.stride = stride
        self.padding = padding

    def forward(self, x: Tensor, ctx: ForwardContext) -> Tensor:
        _require_5d(x, self.name)
        return tz.max_pool2d(x, self.kernel, self.stride, self.padding)


class AdaptiveAvgPoolLayer(Module):
    def __init__(self, name: str, out_size: int):
        super().__init__(name)
        self.out_size = out_size

    def forward(self, x: Tensor, ctx: ForwardContext) -> Tensor:
        _require_5d(x, self.name)
        return tz.adaptive_avg_pool2d(x, self.out_size)


class GlobalAvgPoolLayer(Module):
    """[T, N, H, W, C] -> [T, N, C]. Averaging is linear, so the input type
    that classifies the following head is that of the map entering this
    pool (Network.layer_ops)."""

    def __init__(self, name: str):
        super().__init__(name)

    def forward(self, x: Tensor, ctx: ForwardContext) -> Tensor:
        _require_5d(x, self.name)
        return tz.global_avg_pool(x)


class DenseLayer(Module):
    """Classifier head on pooled features: [T, N, F] -> [T, N, K]."""

    def __init__(self, name: str, in_features: int, out_features: int, *,
                 rng: np.random.Generator, dtype=np.float32):
        super().__init__(name)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = he_uniform(rng, (out_features, in_features), in_features, dtype)
        self.bias = Tensor(np.zeros(out_features), requires_grad=True, dtype=dtype)

    def named_params(self):
        return [(f"{self.name}.weight", self.weight), (f"{self.name}.bias", self.bias)]

    def forward(self, x: Tensor, ctx: ForwardContext) -> Tensor:
        if x.ndim != 3:
            raise ShapeError(
                f"{self.name} expects pooled [T, N, F] input, got {x.shape}; "
                "place AP before FC")
        if x.shape[2] != self.in_features:
            raise ShapeError(
                f"{self.name}: expected {self.in_features} features, got {x.shape[2]}")
        if ctx.record is not None:
            ctx.record.note_input(self.name, x.data)
        return tz.dense(x, self.weight, self.bias)

"""Leaky integrate-and-fire dynamics with surrogate-gradient spikes.

The iterative update per time step, with membrane trace H carrying state
between steps and U the pre-spike potential:

    U[t] = H[t-1] + (1/tau) * (I[t] - (H[t-1] - u_reset))
    S[t] = step(U[t] - u_threshold)        # 1 when U >= threshold
    H[t] = U[t] * (1 - S[t])               # hard reset to zero where fired

lif_multistep runs this over the leading time axis of a [T, ...] input in
plain numpy, from rest (H[-1] = u_reset) on every call: no membrane is
carried from one call to the next, so a caller hands over all T steps of a
sample at once. The rollout is one autograd node over the input keeping
only U and S; a pass that records no node builds U in S's buffer, so S is
its one [T, ...] array, and that is the input's own buffer when the caller
owns the input (tensor.overwrites). A current that is non-finite, or that
drives U past the float range, leaves the final membrane non-finite (NaN
and -inf persist through the update, and +inf resets to NaN), so one check
of H[T-1] refuses both. Its backward is BPTT over reversed t, with sg the
arc-tangent surrogate slope and gH[T-1] = 0 (the final membrane is returned
as a plain array, outside the graph):

    gU[t]   = (gS[t] - [not detach_reset] gH[t] U[t]) sg(U[t] - u_threshold)
              + gH[t] (1 - S[t])
    gI[t]   = gU[t] / tau,    gH[t-1] = gU[t] (1 - 1/tau)

detach_reset makes the reset factor (1 - S) a constant of the graph, so no
gradient reaches the membrane through the spike that reset it.

The step function fires exactly at threshold (step(0) = 1). Its backward
uses the arc-tangent surrogate.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

import numpy as np

from .errors import ConfigError, NumericError, ShapeError
from .tensor import Tensor, _give_grad, assert_finite, make_node, overwrites, recording


@dataclass(frozen=True)
class LIFConfig:
    """Neuron constants. Defaults follow the standard deep-SNN setting.
    A constant out of range, nan or infinite is a ConfigError."""

    tau: float = 2.0
    u_threshold: float = 1.0
    u_reset: float = 0.0
    surrogate_alpha: float = 2.0
    reset_mode: str = "hard"
    detach_reset: bool = True

    def __post_init__(self):
        if not 0 < self.tau < inf:
            raise ConfigError(f"tau must be positive and finite, got {self.tau}")
        if not -inf < self.u_reset < self.u_threshold < inf:
            raise ConfigError(f"u_threshold ({self.u_threshold}) must exceed u_reset "
                              f"({self.u_reset}), both finite")
        if self.reset_mode != "hard":
            raise ConfigError(f"only hard reset is supported, got {self.reset_mode!r}")
        if not 0 < self.surrogate_alpha < inf:
            raise ConfigError(f"surrogate_alpha must be positive and finite, "
                              f"got {self.surrogate_alpha}")


def _surrogate_grad(v: np.ndarray, alpha: float, out: np.ndarray | None = None) -> np.ndarray:
    """d(step)/dv stand-in: alpha / (2 * (1 + (pi*alpha*v/2)^2)), rounded
    op by op in that order, into `out` when given (out may be v)."""
    d = np.asarray(np.multiply(v, np.pi * alpha, out=out))
    np.divide(d, 2.0, out=d)
    np.multiply(d, d, out=d)
    np.add(d, 1.0, out=d)
    np.multiply(d, 2.0, out=d)
    return np.divide(alpha, d, out=d)


def fire_from_rest(drive: np.ndarray, cfg: LIFConfig):
    """One LIF step from rest over a plain array, a gate's fresh neuron: the
    spikes S = step(u_reset + drive / tau - u_threshold) in drive's dtype,
    and the map from dL/dS to dL/d(drive), (gS sg + 0) / tau for sg the
    surrogate slope at U - u_threshold. Both are lif_multistep's T = 1 case
    bit for bit (its + gH (1 - S) with gH = 0 is the + 0, which turns -0
    into +0), with or without detach_reset, for finite U."""
    assert_finite(drive, "neuron input current")
    reset, thr, k = (np.asarray(c, dtype=drive.dtype)
                     for c in (cfg.u_reset, cfg.u_threshold, 1.0 / cfg.tau))
    v = reset + drive * k - thr

    def drive_grad(g):
        sg = _surrogate_grad(v, cfg.surrogate_alpha).astype(g.dtype, copy=False)
        return (g * sg + 0.0) * k

    return (v >= 0).astype(v.dtype), drive_grad


# Elements per backward time chunk: a chunk's surrogate slopes are computed in
# one pass (few numpy calls at small T*N) and stay in cache for the step loop.
_BPTT_CHUNK = 1 << 15


def lif_multistep(x: Tensor, cfg: LIFConfig, *, owned: bool = False) -> tuple[Tensor, np.ndarray]:
    """Run axis 0 of x ([T, ...]) from rest; returns the spikes, one node
    over x, and the final membrane H[T-1] as a plain array of its own. A
    non-finite current or membrane is a NumericError."""
    xs = x.data
    if xs.ndim < 1 or len(xs) < 1:
        raise ShapeError(f"LIF input needs a leading time axis of >= 1 step, got {x.shape}")
    # Constants in the input dtype and the op order of U and H reproduce the
    # per-step Tensor arithmetic bit for bit, and so does the backward below.
    # Each step is five numpy calls into preallocated arrays. H - (+0) is H,
    # so that subtraction is skipped (H - (-0) turns -0 into +0); for finite
    # u, u * (u < thr) is u * (1 - S) and u >= thr is (u - thr) >= 0.
    reset, thr, k, one = (np.asarray(c, dtype=xs.dtype)
                          for c in (cfg.u_reset, cfg.u_threshold, 1.0 / cfg.tau, 1.0))
    skip_reset = cfg.u_reset == 0 and not np.signbit(cfg.u_reset)
    # S (the output) outlives the call and U does in a grad pass; LIF layers
    # drop H on return. The allocation order moves peak RSS, not time
    # (README, LIF kernel). A pass that records no node builds U in S, which
    # the firing below overwrites in place; S is x's buffer when x is owned,
    # as step t reads only x[t] before it writes U[t].
    s_all = xs if overwrites(x, owned, xs.dtype) else np.empty_like(xs)
    h = np.full(xs.shape[1:], reset)
    u_all = np.empty_like(xs) if recording(x) else s_all
    with np.errstate(over="ignore", invalid="ignore"):  # the H check below
        for t in range(len(xs)):
            u = u_all[t]
            np.subtract(xs[t], h if skip_reset else h - reset, out=u)
            np.multiply(u, k, out=u)
            np.add(h, u, out=u)
            np.multiply(u, np.less(u, thr, out=h), out=h)
    if not np.isfinite(h).all():
        raise NumericError("non-finite neuron membrane: the input current is "
                           "non-finite or overflows it")
    # S[t] reads U[t] alone, so one call covers every step
    np.greater_equal(u_all, thr, out=s_all)
    shape = xs.shape  # not xs: backward reads U and S, never the input

    def bwd(g):
        g, gx = g.reshape(shape), np.empty(shape, g.dtype)
        gh = np.zeros_like(g[0])  # gH, updated in place from gH[T-1] = 0
        span = max(1, _BPTT_CHUNK // max(1, g[0].size))
        for stop in range(len(g), 0, -span):
            start = max(0, stop - span)
            sg = np.subtract(u_all[start:stop], thr)
            _surrogate_grad(sg, cfg.surrogate_alpha, out=sg)
            keep = one - s_all[start:stop]
            if cfg.detach_reset:  # gS sg for the whole chunk
                np.multiply(g[start:stop], sg, out=sg)
            for t in reversed(range(start, stop)):
                if cfg.detach_reset:  # gU = gS sg + gH (1 - S), into gH
                    gu = np.add(np.multiply(gh, keep[t - start], out=gh), sg[t - start], out=gh)
                else:
                    gu = (g[t] - gh * u_all[t]) * sg[t - start] + gh * keep[t - start]
                # gI = gU k, and gH = gU (1 - 1/tau) rounded as the per-step graph did
                np.subtract(gu, np.multiply(gu, k, out=gx[t]), out=gh)
        _give_grad(x, gx.reshape(x.shape))

    return make_node(s_all.reshape(x.shape), (x,), bwd), h

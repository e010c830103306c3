"""Shared test helpers: the central-finite-difference gradient oracle,
small seeded input factories and a file that fails like a full disk.
"""

from __future__ import annotations

import errno

import numpy as np

from orsnn.tensor import Tensor, backward, no_grad


def numeric_gradient(fn, tensors, index: int, step: float = 1e-5) -> np.ndarray:
    """Central differences of a scalar-valued fn wrt tensors[index].data."""
    flat = tensors[index].data.reshape(-1)
    grad = np.zeros_like(flat)
    with no_grad():
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            f_plus = float(fn(*tensors).data)
            flat[i] = orig - step
            f_minus = float(fn(*tensors).data)
            flat[i] = orig
            grad[i] = (f_plus - f_minus) / (2.0 * step)
    return grad.reshape(tensors[index].data.shape)


def gradcheck(fn, *arrays, rel: float = 1e-4, step: float = 1e-5,
              wrt=None) -> None:
    """Assert analytic grads of scalar fn match central differences.

    Inputs are promoted to float64. `wrt` selects which inputs get
    checked (default: all). Tolerance per element:
    |analytic - numeric| <= rel * max(1, |numeric|).
    """
    tensors = [Tensor(np.array(a, dtype=np.float64), requires_grad=True)
               for a in arrays]
    out = fn(*tensors)
    assert out.data.size == 1, "gradcheck objective must be scalar"
    backward(out)
    indices = range(len(tensors)) if wrt is None else wrt
    for idx in indices:
        t = tensors[idx]
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        numeric = numeric_gradient(fn, tensors, idx, step=step)
        scale = np.maximum(1.0, np.abs(numeric))
        worst = np.max(np.abs(analytic - numeric) / scale)
        assert worst <= rel, (
            f"input {idx}: worst relative gradient error {worst:.3e} > {rel:.0e}\n"
            f"analytic:\n{analytic}\nnumeric:\n{numeric}")


def margin_random(rng: np.random.Generator, shape, margin: float = 1e-2,
                  scale: float = 1.0) -> np.ndarray:
    """Uniform values in [-scale, scale] pushed away from zero by margin,
    keeping piecewise ops (relu, spikes vs threshold) off their kinks."""
    vals = rng.uniform(-scale, scale, size=shape)
    vals = np.where(np.abs(vals) < margin, np.sign(vals + 1e-12) * margin, vals)
    return vals


def distinct_random(rng: np.random.Generator, shape, min_gap: float = 1e-3
                    ) -> np.ndarray:
    """Random values with all entries pairwise separated (stable argmax)."""
    n = int(np.prod(shape))
    base = np.arange(n, dtype=np.float64) * (10.0 * min_gap)
    jitter = rng.uniform(0.0, min_gap, size=n)
    vals = base + jitter
    rng.shuffle(vals)
    return vals.reshape(shape)


class FullDisk:
    """Stands in for open(): takes half of the first write, then fails as a
    full disk does. Patch it over orsnn.data's open to break a writer."""

    def __init__(self, path, mode, **kwargs):
        self.fh = open(path, mode, **kwargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()
        return False

    def write(self, chunk):
        self.fh.write(chunk[:len(chunk) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")

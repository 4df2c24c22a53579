"""Adam and momentum SGD over lists of parameter arrays.

Both updates mutate the parameter arrays in place and advance the state
object; moment buffers are allocated lazily on the first call so a state
can be constructed before the parameter shapes are known.
"""

from __future__ import annotations

import math

import numpy as np

from .autodiff import ShapeError


class AdamState:
    def __init__(self, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = None
        self.v = None


class MomentumState:
    def __init__(self, lr=0.01, momentum=0.9):
        if not (math.isfinite(lr) and lr > 0):
            raise ValueError(f"momentum learning rate must be finite and positive, got {lr}")
        self.lr = lr
        self.momentum = momentum
        self.velocity = None


def _check_aligned(params, grads, buffers):
    if len(params) != len(grads):
        raise ShapeError(f"{len(params)} params but {len(grads)} grads")
    for p, g in zip(params, grads):
        if np.shape(p) != np.shape(g):
            raise ShapeError(f"param shape {np.shape(p)} vs grad shape {np.shape(g)}")
    for buf in buffers:
        if buf is None:
            continue
        if len(buf) != len(params):
            raise ShapeError("optimizer state does not match parameter list")
        for p, slot in zip(params, buf):
            if np.shape(p) != np.shape(slot):
                raise ShapeError(
                    f"param shape {np.shape(p)} vs state shape {np.shape(slot)}"
                )


def adam_update(params, grads, state):
    """One bias-corrected Adam step; returns the updated params."""
    _check_aligned(params, grads, (state.m, state.v))
    if state.m is None:
        state.m = [np.zeros_like(p) for p in params]
        state.v = [np.zeros_like(p) for p in params]
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1 ** state.t
    bc2 = 1.0 - b2 ** state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        p -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)
    return params


def momentum_update(params, grads, state):
    """Momentum SGD: v <- mu*v - lr*g; p <- p + v."""
    _check_aligned(params, grads, (state.velocity,))
    if state.velocity is None:
        state.velocity = [np.zeros_like(p) for p in params]
    for p, g, v in zip(params, grads, state.velocity):
        v *= state.momentum
        v -= state.lr * g
        p += v
    return params


class NonFiniteGradientError(FloatingPointError):
    """A gradient holds NaN or infinity, so no update may use it."""


def clip_grad_norm(grads, max_norm):
    """Scale the list of grads so their global L2 norm is at most max_norm.

    Raises NonFiniteGradientError when the norm is NaN or infinite, which
    no rescaling could repair, and ValueError for a max_norm that is not
    finite and positive (a NaN threshold would silently never clip).
    """
    if not (math.isfinite(max_norm) and max_norm > 0):
        raise ValueError(f"max_norm must be finite and positive, got {max_norm}")
    total = np.sqrt(sum(float(np.sum(g * g)) for g in grads))
    if not np.isfinite(total):
        raise NonFiniteGradientError(f"gradient norm is not finite ({total})")
    if total > max_norm:
        factor = max_norm / total
        grads = [g * factor for g in grads]
    return grads


def clip_row_norms(grads, max_norm):
    """Scale each row of the 2-D grads so its L2 norm is at most max_norm.

    Row by row the bytes of clip_grad_norm([row], max_norm), in one pass:
    a row inside the bound is multiplied by exactly 1.0.  Raises as
    clip_grad_norm does when any row's norm is not finite.
    """
    if not (math.isfinite(max_norm) and max_norm > 0):
        raise ValueError(f"max_norm must be finite and positive, got {max_norm}")
    norms = np.sqrt(np.sum(grads * grads, axis=1))
    if not np.isfinite(norms).all():
        raise NonFiniteGradientError(f"gradient row norms are not finite ({norms})")
    factors = np.divide(max_norm, norms, out=np.ones_like(norms), where=norms > max_norm)
    return grads * factors[:, None]

"""Dense and LSTM building blocks over the autodiff tape.

Weights live in Var nodes with stable identity, so the same layer can be
run on many tapes and its gradient looked up in each backward() map by
the Var object itself.
"""

from __future__ import annotations

import numpy as np

from .autodiff import ShapeError, Tape, Var, affine, as_var


def glorot_uniform(n_in, n_out, rng):
    """Uniform in +-sqrt(6 / (fan_in + fan_out))."""
    limit = np.sqrt(6.0 / (n_in + n_out))
    return rng.uniform(-limit, limit, size=(n_out, n_in))


class DenseLayer:
    """Affine map y = W x + b with W of shape (out, in)."""

    def __init__(self, w, b):
        w = np.asarray(w, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
            raise ShapeError(f"dense layer: weight {w.shape} with bias {b.shape}")
        self.W = Var(w)
        self.b = Var(b)

    @classmethod
    def init(cls, n_in, n_out, rng):
        return cls(glorot_uniform(n_in, n_out, rng), np.zeros(n_out))

    @property
    def n_in(self):
        return self.W.value.shape[1]

    @property
    def n_out(self):
        return self.W.value.shape[0]


def dense_forward(layer, x, tape):
    """Run the layer on the tape and return the output node."""
    x = as_var(x)
    if x.value.shape != (layer.n_in,):
        raise ShapeError(
            f"dense input has shape {x.value.shape}, layer expects ({layer.n_in},)"
        )
    return affine(tape, layer.W, layer.b, x)


class LstmCell:
    """Single LSTM layer with forget gate, no peepholes.

    Gate weights are stacked row-wise in the order (input, forget, output,
    candidate): wx has shape (4H, n_in), wh (4H, H), bias (4H,).  The cell
    also carries a convenience state (c, h) that lstm_step advances in
    place; sequence code that threads state explicitly uses lstm_apply and
    leaves these untouched.
    """

    def __init__(self, wx, wh, b):
        wx = np.asarray(wx, dtype=np.float64)
        wh = np.asarray(wh, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        if wx.ndim != 2 or wh.ndim != 2 or b.ndim != 1:
            raise ShapeError("lstm cell: wx and wh must be matrices, b a vector")
        if wx.shape[0] % 4 != 0:
            raise ShapeError(f"lstm cell: stacked gate rows {wx.shape[0]} not divisible by 4")
        hidden = wx.shape[0] // 4
        if wh.shape != (4 * hidden, hidden) or b.shape != (4 * hidden,):
            raise ShapeError(
                f"lstm cell: wx {wx.shape}, wh {wh.shape}, b {b.shape} inconsistent"
            )
        self.Wx = Var(wx)
        self.Wh = Var(wh)
        self.b = Var(b)
        self.hidden = hidden
        self.c = np.zeros(hidden)
        self.h = np.zeros(hidden)

    @classmethod
    def init(cls, n_in, hidden, rng):
        wx = np.vstack([glorot_uniform(n_in, hidden, rng) for _ in range(4)])
        wh = np.vstack([glorot_uniform(hidden, hidden, rng) for _ in range(4)])
        b = np.zeros(4 * hidden)
        b[hidden:2 * hidden] = 1.0  # forget gate open at start
        return cls(wx, wh, b)

    @property
    def n_in(self):
        return self.Wx.value.shape[1]

    def reset_state(self):
        self.c = np.zeros(self.hidden)
        self.h = np.zeros(self.hidden)


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def lstm_apply(cell, x, h_prev, c_prev, tape):
    """One LSTM step with explicit state; returns (h, c) nodes.

    Forward and the hand-derived backward are fused into a single tape
    record so BPTT over long sequences stays cheap.
    """
    x = as_var(x)
    h_prev = as_var(h_prev)
    c_prev = as_var(c_prev)
    H = cell.hidden
    if x.value.shape != (cell.n_in,):
        raise ShapeError(f"lstm input has shape {x.value.shape}, cell expects ({cell.n_in},)")
    if h_prev.value.shape != (H,) or c_prev.value.shape != (H,):
        raise ShapeError("lstm state vectors must have length equal to hidden size")

    wx, wh, bv = cell.Wx.value, cell.Wh.value, cell.b.value
    xv, hv, cv = x.value, h_prev.value, c_prev.value
    z = wx @ xv + wh @ hv + bv
    i = _sigmoid(z[:H])
    f = _sigmoid(z[H:2 * H])
    o = _sigmoid(z[2 * H:3 * H])
    g = np.tanh(z[3 * H:])
    c_new = f * cv + i * g
    tc = np.tanh(c_new)
    h_new = o * tc

    h_out = Var(h_new)
    c_out = Var(c_new)

    def vjp(gh, gc):
        dc = gc + gh * o * (1.0 - tc * tc)
        dz = np.empty(4 * H)
        dz[:H] = dc * g * i * (1.0 - i)
        dz[H:2 * H] = dc * cv * f * (1.0 - f)
        dz[2 * H:3 * H] = gh * tc * o * (1.0 - o)
        dz[3 * H:] = dc * i * (1.0 - g * g)
        return (
            np.outer(dz, xv),
            np.outer(dz, hv),
            dz,
            wx.T @ dz,
            wh.T @ dz,
            dc * f,
        )

    tape.record((h_out, c_out), (cell.Wx, cell.Wh, cell.b, x, h_prev, c_prev), vjp)
    return h_out, c_out


def lstm_step(cell, x, tape):
    """Advance the cell's own (c, h) state and return the new h node."""
    h, c = lstm_apply(cell, x, Var(cell.h), Var(cell.c), tape)
    cell.h = h.value
    cell.c = c.value
    return h


def lstm_gates_batch(cell, xv, hv, cv):
    """One LSTM step over a batch of plain arrays, no tape.

    xv (B, n_in), hv/cv (B, H).  Returns (h, c, gates) where gates is the
    (i, f, o, g, tanh(c)) tuple the backward pass needs.
    """
    H = cell.hidden
    if xv.ndim != 2 or xv.shape[1] != cell.n_in:
        raise ShapeError(f"lstm batch input has shape {xv.shape}, cell expects (B, {cell.n_in})")
    if hv.shape != (xv.shape[0], H) or cv.shape != (xv.shape[0], H):
        raise ShapeError("lstm batch state must be (B, hidden)")
    z = xv @ cell.Wx.value.T + hv @ cell.Wh.value.T + cell.b.value
    i = _sigmoid(z[:, :H])
    f = _sigmoid(z[:, H:2 * H])
    o = _sigmoid(z[:, 2 * H:3 * H])
    g = np.tanh(z[:, 3 * H:])
    c_new = f * cv + i * g
    tc = np.tanh(c_new)
    return o * tc, c_new, (i, f, o, g, tc)


def lstm_apply_batch(cell, x, h_prev, c_prev, tape):
    """lstm_apply over a whole batch: x (B, n_in), h_prev/c_prev (B, H)."""
    H = cell.hidden
    xv, hv, cv = x.value, h_prev.value, c_prev.value
    h_new, c_new, (i, f, o, g, tc) = lstm_gates_batch(cell, xv, hv, cv)
    wx, wh = cell.Wx.value, cell.Wh.value

    h_out = Var(h_new)
    c_out = Var(c_new)

    def vjp(gh, gc):
        dc = gc + gh * o * (1.0 - tc * tc)
        dz = np.empty((xv.shape[0], 4 * H))
        dz[:, :H] = dc * g * i * (1.0 - i)
        dz[:, H:2 * H] = dc * cv * f * (1.0 - f)
        dz[:, 2 * H:3 * H] = gh * tc * o * (1.0 - o)
        dz[:, 3 * H:] = dc * i * (1.0 - g * g)
        return (
            dz.T @ xv,
            dz.T @ hv,
            dz.sum(axis=0),
            dz @ wx,
            dz @ wh,
            dc * f,
        )

    tape.record((h_out, c_out), (cell.Wx, cell.Wh, cell.b, x, h_prev, c_prev), vjp)
    return h_out, c_out

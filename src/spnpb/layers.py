"""Dense and LSTM building blocks.

Weights live in Var nodes with stable identity, so the same layer can be
run on many tapes and its gradient looked up in each backward() map by
the Var object itself.

lstm_sequence runs a whole batch of sequences as one tape record, for
the batched NLL that training and adaptation replay share.  The model's
tape-free forward steps through lstm_gates_batch too, and its hand-written
closed-loop reverse shares lstm_sequence's reverse step: lstm_gate_factors
and lstm_step_back.
"""

from __future__ import annotations

import numpy as np

from .autodiff import ShapeError, Var


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


class LstmCell:
    """Single LSTM layer with forget gate, no peepholes.

    Gate weights are stacked row-wise in the order (input, forget, output,
    candidate): wx has shape (4H, n_in), wh (4H, H), bias (4H,).  The cell
    holds weights only; callers thread the recurrent state explicitly.
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


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def lstm_gates_batch(cell, zx, hv, cv):
    """One LSTM step over a batch of plain arrays, no tape.

    zx (B, 4H) is the step's input projection x @ Wx.T, computed by the
    caller (once per step by the model's forward loop, once per
    sequence by lstm_sequence); hv/cv (B, H).  Shapes are the caller's
    to check.  Returns (h, c, act, tanh(c)), where act (B, 4H) holds the gate
    activations (input, forget, output, candidate) the backward pass needs.
    """
    H = cell.hidden
    z = zx + hv @ cell.Wh.value.T + cell.b.value
    act = _sigmoid(z)
    act[:, 3 * H:] = np.tanh(z[:, 3 * H:])
    c_new = act[:, H:2 * H] * cv + act[:, :H] * act[:, 3 * H:]
    tc = np.tanh(c_new)
    return act[:, 2 * H:3 * H] * tc, c_new, act, tc


def lstm_gate_factors(act, c_prev, tc):
    """Per-step factors of the LSTM reverse, for any leading shape (..., B).

    act, c_prev and tc are what lstm_gates_batch took and returned.  A
    step's gate gradient dz is dc * fac, except the output gate's, which
    is dh * fac; dc_dh carries dh into the cell gradient.  Returns fac
    (..., B, 4, H) and dc_dh (..., B, H).
    """
    H = tc.shape[-1]
    i, f, o, g = (act[..., k * H:(k + 1) * H] for k in range(4))
    fac = np.empty(tc.shape[:-1] + (4, H))
    fac[..., 0, :] = g * i * (1.0 - i)
    fac[..., 1, :] = c_prev * f * (1.0 - f)
    fac[..., 2, :] = tc * o * (1.0 - o)
    fac[..., 3, :] = i * (1.0 - g * g)
    return fac, o * (1.0 - tc * tc)


def lstm_step_back(dh, dc_next, fac, dc_dh, f, wh, dz):
    """One step of the LSTM reverse over a batch of plain arrays.

    dh (B, H) is the gradient reaching the step's h, dc_next that reaching
    its c from the following step; fac and dc_dh come from
    lstm_gate_factors, f is the step's forget gate and wh the cell's Wh.
    Writes the gate gradient into dz (B, 4, H), whose rows times Wx give
    the input's gradient, and returns the gradients of the previous (h, c).
    """
    dc = dh * dc_dh + dc_next
    np.multiply(dc[:, None], fac, out=dz)
    np.multiply(dh, fac[:, 2], out=dz[:, 2])
    return dz.reshape(len(dz), -1) @ wh, dc * f


def lstm_sequence(cell, x, B, T, h0, c0, tape):
    """A whole LSTM sequence over a batch as one tape record.

    x is a (B*T, n_in) node laid out batch-major (row b*T + t is step t of
    sequence b); h0/c0 are plain (B, H) starting states, which receive no
    gradient.  Returns the (B*T, H) node of hidden outputs in the same
    layout.  The input projection of all B*T rows is one matmul; the
    forward loop only adds h @ Wh.T and runs the gates.  The backward
    loop collects every step's gate gradient, so the weight and input
    gradients are again single matmuls.
    """
    H = cell.hidden
    xv = x.value
    if xv.shape != (B * T, cell.n_in):
        raise ShapeError(
            f"lstm sequence input has shape {xv.shape}, expected ({B}*{T}, {cell.n_in})")
    h0 = np.asarray(h0, dtype=np.float64)
    c0 = np.asarray(c0, dtype=np.float64)
    if h0.shape != (B, H) or c0.shape != (B, H):
        raise ShapeError(f"lstm sequence states must be ({B}, {H}), got {h0.shape}, {c0.shape}")
    wx, wh = cell.Wx.value, cell.Wh.value
    # time-major from here on, so every step reads and writes one block
    zx = (xv @ wx.T).reshape(B, T, 4 * H).transpose(1, 0, 2)
    hs = np.empty((T + 1, B, H))
    cs = np.empty((T + 1, B, H))
    acts = np.empty((T, B, 4 * H))
    tcs = np.empty((T, B, H))
    hs[0] = h0
    cs[0] = c0
    for t in range(T):
        hs[t + 1], cs[t + 1], acts[t], tcs[t] = lstm_gates_batch(cell, zx[t], hs[t], cs[t])
    out = Var(hs[1:].transpose(1, 0, 2).reshape(B * T, H))

    def vjp(gh):
        fac, dc_dh = lstm_gate_factors(acts, cs[:-1], tcs)
        f = acts[..., H:2 * H]
        gh = gh.reshape(B, T, H).transpose(1, 0, 2)
        dz = np.empty((T, B, 4, H))
        dh_next = np.zeros((B, H))
        dc_next = np.zeros((B, H))
        for t in range(T - 1, -1, -1):
            dh_next, dc_next = lstm_step_back(
                gh[t] + dh_next, dc_next, fac[t], dc_dh[t], f[t], wh, dz[t])
        dz = dz.transpose(1, 0, 2, 3).reshape(B * T, 4 * H)
        h_prev = hs[:-1].transpose(1, 0, 2).reshape(B * T, H)
        return dz.T @ xv, dz.T @ h_prev, dz.sum(axis=0), dz @ wx

    tape.record((out,), (cell.Wx, cell.Wh, cell.b, x), vjp)
    return out

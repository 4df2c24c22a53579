"""Dense and LSTM building blocks.

Weights live in Var nodes with stable identity, so the same layer can be
run on many tapes and its gradient looked up in each backward() map by
the Var object itself.

The teacher-forced NLL (training.batch_nll_node, one fused tape record)
runs its stages through the named forward/reverse pairs here:
dense_stack_forward/_reverse and lstm_sequence_forward/_reverse, which
work in preallocated, time-major buffers.  The model's closed-loop
forward and reverse step through the same two LSTM helpers, lstm_step
and lstm_step_back (with lstm_gate_factors); there is no second gate
implementation.
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


def dense_affine(layer, x, out):
    """out = x @ W.T + b over the rows of x (n, n_in), written into out (n, n_out).

    The one affine map of the teacher-forced NLL: the dense stacks apply
    tanh to it, and the output layer of the Gaussian head uses it as is.
    """
    if x.ndim != 2 or x.shape[1] != layer.n_in:
        raise ShapeError(f"dense layer takes (n, {layer.n_in}) input, got {x.shape}")
    np.matmul(x, layer.W.value.T, out=out)
    out += layer.b.value
    return out


def dense_stack_forward(layers, x, ys):
    """tanh(x @ W.T + b) through each layer in turn; layer k writes ys[k].

    Returns ys[-1].  The ys are the activations dense_stack_reverse needs.
    """
    for layer, y in zip(layers, ys):
        x = np.tanh(dense_affine(layer, x, y), out=y)
    return x


def dense_stack_reverse(layers, x, ys, d_ys, dx=None):
    """Reverse of dense_stack_forward over the same x and ys.

    d_ys[-1] holds the gradient of the top output on entry.  On return
    d_ys[k] holds the gradient of layer k's pre-activation, and dx, when
    given, the gradient of x.  The ys are overwritten with the tanh
    derivative, so one forward allows one reverse.  Returns the (dW, db)
    of each layer, in forward order.
    """
    grads = []
    for k in range(len(layers) - 1, -1, -1):
        y, d = ys[k], d_ys[k]
        np.multiply(y, y, out=y)
        np.subtract(1.0, y, out=y)
        d *= y
        grads.append((d.T @ (ys[k - 1] if k else x), d.sum(axis=0)))
        target = d_ys[k - 1] if k else dx
        if target is not None:
            np.matmul(d, layers[k].W.value, out=target)
    return grads[::-1]


def lstm_step_weights(cell):
    """The cell's (Wx, Wh, b) for lstm_step, with the sigmoid gates' rows halved.

    sigmoid(z) = 0.5 * tanh(z / 2) + 0.5, and halving a weight row halves
    its pre-activation exactly, so lstm_step needs one tanh for all four
    gates.  b comes as a (4H, 1) column.
    """
    half = np.ones((4 * cell.hidden, 1))
    half[:3 * cell.hidden] = 0.5
    return cell.Wx.value * half, cell.Wh.value * half, cell.b.value[:, None] * half


def lstm_step(z, h_prev, c_prev, wh, h, c, tc):
    """One LSTM step over a batch of plain arrays, in place.

    The LSTM helpers keep a batch of B rows in columns: a state is (H, B)
    and the four gates (input, forget, output, candidate) are row blocks
    of a (4H, B) array, so every gate is one contiguous block.  z holds
    the step's Wx @ x + b from lstm_step_weights; the step adds
    wh @ h_prev and leaves the gate activations in z.  Writes the new
    state into h and c, and tanh(c), which the reverse needs, into tc.
    Shapes are the caller's to check.
    """
    H = h.shape[0]
    z += wh @ h_prev
    np.tanh(z, out=z)
    gates = z[:3 * H]
    gates *= 0.5
    gates += 0.5
    np.multiply(z[H:2 * H], c_prev, out=c)
    np.multiply(z[:H], z[3 * H:], out=tc)
    c += tc
    np.tanh(c, out=tc)
    np.multiply(z[2 * H:3 * H], tc, out=h)


def lstm_gate_factors(act, c_prev, tc, fac, dc_dh):
    """Per-step factors of the LSTM reverse, for any leading shape (..., 4H, B).

    act, c_prev and tc are the activations, previous cell and tanh(cell)
    of lstm_step.  A step's gate gradient dz is dc * fac, except the
    output gate's, which is dh * fac; dc_dh carries dh into the cell
    gradient.  Writes fac (..., 4H, B) and dc_dh (..., H, B).
    """
    H = tc.shape[-2]
    sig = act[..., :3 * H, :]
    gates = fac[..., :3 * H, :]
    np.subtract(1.0, sig, out=gates)
    gates *= sig
    for k, other in enumerate((act[..., 3 * H:, :], c_prev, tc)):
        fac[..., k * H:(k + 1) * H, :] *= other
    cand = fac[..., 3 * H:, :]
    np.multiply(act[..., 3 * H:, :], act[..., 3 * H:, :], out=cand)
    np.subtract(1.0, cand, out=cand)
    cand *= act[..., :H, :]
    np.multiply(tc, tc, out=dc_dh)
    np.subtract(1.0, dc_dh, out=dc_dh)
    dc_dh *= act[..., 2 * H:3 * H, :]


def lstm_step_back(dh, dc, fac, dc_dh, f, wh, dz):
    """One step of the LSTM reverse over a batch of plain arrays, in place.

    On entry dh (H, B) is the gradient reaching the step's h and dc the
    one reaching its c from the following step; fac and dc_dh come from
    lstm_gate_factors, f is the step's forget gate and wh the cell's Wh.
    Writes the gate gradient into dz (4H, B), which Wx.T maps to the
    input's gradient, and leaves the gradients of the previous (h, c) in
    dh and dc.
    """
    H = dh.shape[0]
    dc += dh * dc_dh
    np.multiply(fac.reshape(4, H, -1), dc, out=dz.reshape(4, H, -1))
    np.multiply(dh, fac[2 * H:3 * H], out=dz[2 * H:3 * H])
    np.matmul(wh.T, dz, out=dh)
    dc *= f


class LstmBuffers:
    """Activations and reverse scratch of one LSTM over T steps of B rows.

    Inputs and outputs are time-major rows (row t*B + b is step t of
    sequence b); per step the helpers work on (·, B) columns.
    """

    def __init__(self, T, B, H):
        self.acts = np.empty((T, 4 * H, B))
        self.hs = np.empty((T + 1, H, B))
        self.cs = np.empty((T + 1, H, B))
        self.tcs = np.empty((T, H, B))
        self.out = np.empty((T * B, H))
        self.fac = np.empty((T, 4 * H, B))
        self.dz = np.empty((T, 4 * H, B))
        self.dc_dh = np.empty((T, H, B))
        self.gh = np.empty((T, H, B))
        self.dh = np.empty((H, B))
        self.dc = np.empty((H, B))
        self.ones = np.ones(T * B)


def lstm_sequence_forward(cell, x, h0, c0, buf):
    """Run cell over a batch of sequences from (h0, c0), into buf.

    x is the time-major (T*B, n_in) input; h0/c0 are (H,), shared by
    every row, or (B, H).  The input projection of all steps is one
    batched matmul, so each step only adds Wh @ h and runs the gates.
    Returns the (T*B, H) hidden outputs, time-major like x.
    """
    T, H4, B = buf.acts.shape
    H = H4 // 4
    if H != cell.hidden or x.shape != (T * B, cell.n_in):
        raise ShapeError(f"lstm sequence of {T} steps x {B} rows takes ({T * B}, {cell.n_in}) "
                         f"input into hidden size {H}, got {x.shape} for {cell.hidden}")
    starts = []
    for v in (h0, c0):
        v = np.asarray(v, dtype=np.float64)
        if v.shape not in ((H,), (B, H)):
            raise ShapeError(f"lstm sequence states must be ({H},) or ({B}, {H}), got {v.shape}")
        starts.append(v.T if v.ndim == 2 else v[:, None])
    wx, wh, b = lstm_step_weights(cell)
    hs, cs, acts, tcs = buf.hs, buf.cs, buf.acts, buf.tcs
    np.matmul(wx, x.reshape(T, B, -1).transpose(0, 2, 1), out=acts)
    acts += b
    hs[0], cs[0] = starts
    for t in range(T):
        lstm_step(acts[t], hs[t], cs[t], wh, hs[t + 1], cs[t + 1], tcs[t])
    np.copyto(buf.out.reshape(T, B, H), hs[1:].transpose(0, 2, 1))
    return buf.out


def lstm_sequence_reverse(cell, x, buf, gh, dx):
    """Reverse of lstm_sequence_forward over the same x and buf.

    gh (T*B, H) is the gradient of the outputs; the starting states get
    none.  Writes the gradient of x into dx (T*B, n_in) and returns
    (dWx, dWh, db).  The loop collects every step's gate gradient, so the
    weight and input gradients are single matmuls.
    """
    T, H4, B = buf.acts.shape
    H = H4 // 4
    lstm_gate_factors(buf.acts, buf.cs[:-1], buf.tcs, buf.fac, buf.dc_dh)
    np.copyto(buf.gh, gh.reshape(T, B, H).transpose(0, 2, 1))
    f = buf.acts[:, H:2 * H]
    dh, dc, wh = buf.dh, buf.dc, cell.Wh.value
    dh.fill(0.0)
    dc.fill(0.0)
    for t in range(T - 1, -1, -1):
        dh += buf.gh[t]
        lstm_step_back(dh, dc, buf.fac[t], buf.dc_dh[t], f[t], wh, buf.dz[t])
    dz = buf.fac.reshape(T * B, H4)  # the factors are spent; dz as time-major rows
    np.copyto(dz.reshape(T, B, H4), buf.dz.transpose(0, 2, 1))
    np.matmul(dz, cell.Wx.value, out=dx)
    dwh = dz[B:].T @ buf.out[:-B] + dz[:B].T @ buf.hs[0].T
    return dz.T @ x, dwh, buf.ones @ dz

"""Dense and LSTM building blocks.

Weights are plain float64 arrays, which the optimizers update in place.

The teacher-forced NLL (training.batch_nll, a forward that returns its own
reverse) runs its stages through the named forward/reverse pairs here:
dense_stack_forward/_reverse and lstm_pair_forward/_reverse, which work in
preallocated, time-major buffers.  A reverse spends its forward's
activations and stores its own results in them: dense_stack_reverse leaves
each layer's pre-activation gradient in that layer's activation buffer and
lstm_pair_reverse LSTM1's gate gradients in the pair's gate activations,
while the one gradient in flight between two layers or stages lives in a
single flat scratch, viewed at each width by grad_view.  The pair stage
runs both LSTMs as one skewed recurrence: a single cell of width H1 + H2
whose packed step k is LSTM1's step k and LSTM2's step k - 1, so a
sequence of T steps takes T + 1 step calls instead of 2T.  The model's
closed loop cannot skew (LSTM2's step t feeds LSTM1's step t + 1 through
the fed-back mean) and steps each cell on its own, with one product of the
cell's lstm_fold over its stacked input [x; h_prev; 1] per step.
lstm_step is the gate core of one step, which takes a step's finished
pre-activation, and lstm_step_back the reverse step (with
lstm_gate_factors), which leaves the weight products to its caller.  The
pair's loops and the closed loop's spell the same ufunc calls out, in the
same order, on step views built once (LstmPairBuffers here,
model.RolloutWorkspace and ReverseWorkspace there), so a step makes no
call, slice or temporary beyond its arithmetic: at B = 1 that overhead
was about a third of the pair's time.  lstm_gate_factors is shared by
all of them.
"""

from __future__ import annotations

import numpy as np

from .autodiff import ShapeError


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
        self.W = w
        self.b = b

    @classmethod
    def init(cls, n_in, n_out, rng):
        return cls(glorot_uniform(n_in, n_out, rng), np.zeros(n_out))

    @property
    def n_in(self):
        return self.W.shape[1]

    @property
    def n_out(self):
        return self.W.shape[0]


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
        self.Wx = wx
        self.Wh = wh
        self.b = b
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
        return self.Wx.shape[1]


def dense_affine(layer, x, out):
    """out = x @ W.T + b over the rows of x (n, n_in), written into out (n, n_out).

    The one affine map of the teacher-forced NLL: the dense stacks apply
    tanh to it, and the output layer of the Gaussian head uses it as is.
    """
    if x.ndim != 2 or x.shape[1] != layer.n_in:
        raise ShapeError(f"dense layer takes (n, {layer.n_in}) input, got {x.shape}")
    np.matmul(x, layer.W.T, out=out)
    out += layer.b
    return out


def dense_stack_forward(layers, x, ys):
    """tanh(x @ W.T + b) through each layer in turn; layer k writes ys[k].

    Returns ys[-1].  The ys are the activations dense_stack_reverse needs.
    """
    for layer, y in zip(layers, ys):
        x = np.tanh(dense_affine(layer, x, y), out=y)
    return x


def grad_view(scratch, n, width):
    """The leading n * width entries of the flat scratch as a contiguous (n, width) array."""
    return scratch[:n * width].reshape(n, width)


def dense_stack_reverse(layers, x, ys, scratch, dx=True, weights=True):
    """Reverse of dense_stack_forward over the same x and ys.

    The gradient in flight between layers lives in the flat scratch,
    viewed at each width by grad_view: on entry its (n, n_out) view holds
    the gradient of the top output.  Each layer's pre-activation gradient
    replaces its activation, ys[k] <- (1 - ys[k]^2) * d, so one forward
    allows one reverse.  With dx, the gradient of x is left in the
    scratch's (n, n_in) view; without, its product is skipped.  Returns
    the (dW, db) of each layer, in forward order, or None with weights
    False, which skips them.
    """
    n = len(x)
    d = grad_view(scratch, n, ys[-1].shape[1])
    grads = []
    for k in range(len(layers) - 1, -1, -1):
        y = ys[k]
        np.multiply(y, y, out=y)
        np.subtract(1.0, y, out=y)
        y *= d
        if weights:
            grads.append((y.T @ (ys[k - 1] if k else x), y.sum(axis=0)))
        if k or dx:
            d = grad_view(scratch, n, layers[k].n_in)
            np.matmul(y, layers[k].W, out=d)
    return grads[::-1] if weights else None


# per gate block (input, forget, output, candidate): the sigmoid gates' halving
_GATE_HALF = np.array([0.5, 0.5, 0.5, 1.0])[:, None, None]


def lstm_fold(cell):
    """The cell's [Wx | Wh | b] (4H, n_in + H + 1), sigmoid gates' rows halved.

    sigmoid(z) = 0.5 * tanh(z / 2) + 0.5, and halving a weight row halves
    its pre-activation exactly, so lstm_step needs one tanh for all four
    gates.  One np.dot of the fold over the stacked column block
    [x; h_prev; 1] gives a step's pre-activation.
    """
    w = np.concatenate((cell.Wx, cell.Wh, cell.b[:, None]), axis=1)
    w[:3 * cell.hidden] *= 0.5
    return w


def lstm_step(z, c_prev, h, c, tc):
    """The gate core of one LSTM step over a batch of plain arrays, in place.

    The LSTM helpers keep a batch of B rows in columns: a state is (H, B)
    and the four gates (input, forget, output, candidate) are row blocks
    of a (4H, B) array, so every gate is one contiguous block.  z holds
    the step's finished pre-activation, from weights whose sigmoid rows
    are halved (lstm_fold), as its (4, H, B) gate blocks; it is left
    holding the gate activations.  Writes the new state into h and c, and
    tanh(c), which the reverse needs, into tc.  Shapes are the caller's
    to check.
    """
    np.tanh(z, out=z)
    sig = z[:3]
    sig *= 0.5
    sig += 0.5
    i, f, o, g = z
    np.multiply(f, c_prev, out=c)
    np.multiply(i, g, out=tc)
    c += tc
    np.tanh(c, out=tc)
    np.multiply(o, tc, out=h)


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


def lstm_step_back(dh, dc, fac, dc_dh, f, dz):
    """One step of the LSTM reverse over a batch of plain arrays, in place.

    On entry dh (H, B) is the gradient reaching the step's h and dc the
    one reaching its c from the following step; fac, as (4, H, B) gate
    blocks, and dc_dh come from lstm_gate_factors, and f is the step's
    forget gate.  Writes the gate gradient into the (4, H, B) blocks dz
    and leaves the gradient of the previous c in dc.  The weight products
    are the caller's: the unhalved weights' transpose maps dz to the
    gradients of the step's input and previous h.
    """
    dc += dh * dc_dh
    np.multiply(fac, dc, out=dz)
    np.multiply(dh, fac[2], out=dz[2])
    dc *= f


class LstmPairBuffers:
    """Packed weights, activations and reverse scratch of the skewed LSTM pair.

    LSTM1 (n_in -> H1) and LSTM2 (H1 -> H2) over `steps` steps of B rows
    run as one cell of width H = H1 + H2 over steps + 1 packed steps (see
    lstm_pair_forward).  Inputs and outputs are time-major rows (row
    t*B + b is step t of sequence b); per packed step the helpers work on
    (·, B) columns.  The packed weights are gate-major (4, H, ·) blocks
    whose LSTM1 rows come first in each gate; the blocks that no cell
    fills stay zero.  The views each packed step reads and writes are
    built here, once, for every call the buffers serve: train keeps one
    workspace per length bucket and the adaptation replay one per window
    length.
    """

    def __init__(self, steps, B, n_in, H1, H2):
        T, H = steps + 1, H1 + H2
        self.H1 = H1
        self.wx = np.zeros((4, H, n_in))    # LSTM1's Wx, sigmoid rows halved
        self.w = np.zeros((4, H, H))        # [[Wh1, 0], [Wx2, Wh2]]
        self.w_half = np.empty((4, H, H))   # the same, sigmoid rows halved
        self.b = np.empty((4, H, 1))        # b1 | b2, sigmoid rows halved
        self.acts = np.empty((T, 4 * H, B))
        self.hs = np.empty((T + 1, H, B))
        self.cs = np.empty((T + 1, H, B))
        self.tcs = np.empty((T, H, B))
        self.out = np.empty((steps * B, H2))
        self.fac = np.empty((T, 4 * H, B))
        self.dz = np.empty((T, 4 * H, B))
        self.dc_dh = np.empty((T, H, B))
        self.gh = np.zeros((T, H, B))       # only LSTM2's rows of steps 1.. are ever written
        self.dh = np.empty((H, B))
        self.dc = np.empty((H, B))
        self.zw = np.empty((4 * H, B))      # a forward step's recurrent product
        self.dc_in = np.empty((H, B))       # a reverse step's dh * dc_dh
        gates, fac, dz = (a.reshape(T, 4, H, B) for a in (self.acts, self.fac, self.dz))
        # per packed step: pre-activation, h_prev, the sigmoid block, i, f, o,
        # g, c_prev, h, c and tanh(c)
        self.steps = list(zip(self.acts, self.hs[:-1], self.acts[:, :3 * H],
                              *gates.swapaxes(0, 1), self.cs[:-1], self.hs[1:], self.cs[1:],
                              self.tcs))
        # last step first: gh, fac, its output-gate block, dc_dh, f, dz (as
        # gate blocks), dz's output-gate block and dz as one (4H, B) block
        self.back_steps = list(zip(self.gh, fac, fac[:, 2], self.dc_dh, gates[:, 1], dz,
                                   dz[:, 2], self.dz))[::-1]


def _pair_steps(w, zw, steps):
    """lstm_step's arithmetic, after the recurrent product, over prebuilt step views."""
    dot, add, multiply, tanh = np.dot, np.add, np.multiply, np.tanh
    for z, h_prev, sig, i, f, o, g, c_prev, h, c, tc in steps:
        dot(w, h_prev, out=zw)
        add(z, zw, out=z)
        tanh(z, out=z)
        multiply(sig, 0.5, out=sig)
        add(sig, 0.5, out=sig)
        multiply(f, c_prev, out=c)
        multiply(i, g, out=tc)
        add(c, tc, out=c)
        tanh(c, out=tc)
        multiply(o, tc, out=h)


def lstm_pair_forward(cell1, cell2, x, starts, buf):
    """Run LSTM1 on x and LSTM2 on LSTM1's outputs, as one skewed cell, into buf.

    x is LSTM1's time-major (steps*B, n_in) input; starts holds the
    starting (h1, c1, h2, c2), each (H,), shared by every row, or (B, H).
    The pair runs as one LSTM cell of width H1 + H2, gates packed
    gate-major ([i1 i2 | f1 f2 | o1 o2 | g1 g2]), recurrent matrix
    [[Wh1, 0], [Wx2, Wh2]]: packed step k runs LSTM1's step k and LSTM2's
    step k - 1, which reads LSTM1's output of step k - 1 from the packed
    state.  steps + 1 packed steps thus replace 2 * steps per-cell ones.
    Two halves are phantoms: LSTM2's at k = 0, whose state is reset to
    LSTM2's start after the step, and LSTM1's at k = steps, which runs on
    a zero input and feeds nothing.  The weights are packed on every call
    and LSTM1's input projection of all steps is one batched matmul.  The
    step loop runs lstm_step's arithmetic on buf's prebuilt step views,
    with no temporaries.  Returns LSTM2's (steps*B, H2) outputs,
    time-major like x.
    """
    T, H4, B = buf.acts.shape
    H, H1, steps = H4 // 4, buf.H1, T - 1
    H2 = H - H1
    if (cell1.hidden, cell2.hidden, cell2.n_in) != (H1, H2, H1) \
            or x.shape != (steps * B, cell1.n_in):
        raise ShapeError(
            f"lstm pair of {steps} steps x {B} rows takes ({steps * B}, {cell1.n_in}) input "
            f"into hidden sizes ({H1}, {H2}), got {x.shape} for cells "
            f"{cell1.n_in}->{cell1.hidden} and {cell2.n_in}->{cell2.hidden}")
    hs, cs, acts = buf.hs, buf.cs, buf.acts
    for v, h0 in zip(starts, (hs[0, :H1], cs[0, :H1], hs[0, H1:], cs[0, H1:])):
        v = np.asarray(v, dtype=np.float64)
        width = len(h0)
        if v.shape not in ((width,), (B, width)):
            raise ShapeError(f"lstm pair states must be ({width},) or ({B}, {width}), "
                             f"got {v.shape}")
        h0[...] = v.T if v.ndim == 2 else v[:, None]

    buf.w[:, :H1, :H1] = cell1.Wh.reshape(4, H1, H1)
    buf.w[:, H1:, :H1] = cell2.Wx.reshape(4, H2, H1)
    buf.w[:, H1:, H1:] = cell2.Wh.reshape(4, H2, H2)
    np.multiply(buf.w, _GATE_HALF, out=buf.w_half)
    np.multiply(cell1.Wx.reshape(4, H1, -1), _GATE_HALF, out=buf.wx[:, :H1])
    np.multiply(cell1.b.reshape(4, H1, 1), _GATE_HALF, out=buf.b[:, :H1])
    np.multiply(cell2.b.reshape(4, H2, 1), _GATE_HALF, out=buf.b[:, H1:])

    np.matmul(buf.wx.reshape(H4, -1), x.reshape(steps, B, -1).transpose(0, 2, 1),
              out=acts[:steps])
    acts[steps] = 0.0  # LSTM1's phantom input; LSTM2's rows take no input projection
    acts += buf.b.reshape(H4, 1)
    w = buf.w_half.reshape(H4, H)
    _pair_steps(w, buf.zw, buf.steps[:1])
    # LSTM2's phantom half: its step 0 runs from its start
    hs[1, H1:] = hs[0, H1:]
    cs[1, H1:] = cs[0, H1:]
    _pair_steps(w, buf.zw, buf.steps[1:])
    np.copyto(buf.out.reshape(steps, B, H2), hs[2:, H1:].transpose(0, 2, 1))
    return buf.out


def lstm_pair_reverse(cell1, x, buf, gh, dx, weights=True):
    """Reverse of lstm_pair_forward over the same x and buf.

    gh (steps*B, H2) is the gradient of LSTM2's outputs; the starting
    states get none.  Writes the gradient of x into dx (steps*B, n_in),
    which may share gh's memory (gh is read first), and
    returns (dWx1, dWh1, db1, dWx2, dWh2, db2), or None with weights
    False, which skips every weight gradient.  The loop makes one packed
    reverse step per packed forward step, lstm_step_back's arithmetic on
    buf's prebuilt step views, and collects every step's gate gradient, so
    the weight gradients come from one packed (dW, db) and LSTM1's input
    gradients from one matmul.  LSTM2's phantom half of step 0 gets its
    gate factors zeroed.  LSTM1's phantom half of the last step needs no
    mask: LSTM1's outputs get no gradient of their own and the carried
    gradient starts at zero, so its gate gradients are exact zeros.
    """
    T, H4, B = buf.acts.shape
    H, H1, steps = H4 // 4, buf.H1, T - 1
    lstm_gate_factors(buf.acts, buf.cs[:-1], buf.tcs, buf.fac, buf.dc_dh)
    buf.fac.reshape(T, 4, H, B)[0, :, H1:] = 0.0  # LSTM2's phantom half passes nothing
    np.copyto(buf.gh[1:, H1:], gh.reshape(steps, B, H - H1).transpose(0, 2, 1))
    dh, dc, dc_in, w_t = buf.dh, buf.dc, buf.dc_in, buf.w.reshape(H4, H).T
    dot, add, multiply = np.dot, np.add, np.multiply
    dh.fill(0.0)
    dc.fill(0.0)
    for g, fac, fac_o, dc_dh, f, dz, dz_o, dz_flat in buf.back_steps:
        add(dh, g, out=dh)
        multiply(dh, dc_dh, out=dc_in)
        add(dc, dc_in, out=dc)
        multiply(fac, dc, out=dz)
        multiply(dh, fac_o, out=dz_o)
        multiply(dc, f, out=dc)
        dot(w_t, dz_flat, out=dh)
    # LSTM1's gate gradients of its real steps, columns time-major, into
    # the activations, which the loop has spent
    dz1 = buf.acts.reshape(-1)[:4 * H1 * steps * B]
    np.copyto(dz1.reshape(4, H1, steps, B),
              buf.dz.reshape(T, 4, H, B)[:steps, :, :H1].transpose(1, 2, 0, 3))
    dz1 = dz1.reshape(4 * H1, steps * B)
    np.matmul(dz1.T, cell1.Wx, out=dx)
    if not weights:
        return None
    # the factors are spent: dz and the packed steps' input states with
    # time-major columns take their buffers
    dzt, hst = buf.fac.reshape(H4, T * B), buf.dc_dh.reshape(H, T * B)
    np.copyto(dzt.reshape(H4, T, B), buf.dz.transpose(1, 0, 2))
    np.copyto(hst.reshape(H, T, B), buf.hs[:-1].transpose(1, 0, 2))
    dw = (dzt @ hst.T).reshape(4, H, H)
    db = dzt.sum(axis=1).reshape(4, H)
    return (dz1 @ x, dw[:, :H1, :H1].reshape(-1, H1), db[:, :H1].ravel(),
            dw[:, H1:, :H1].reshape(-1, H1), dw[:, H1:, H1:].reshape(-1, H - H1),
            db[:, H1:].ravel())

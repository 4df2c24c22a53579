"""Reverse-mode automatic differentiation on a flat operation tape.

Every value flowing through a differentiable computation is wrapped in a
Var node.  Each primitive operation computes its result eagerly with numpy
and appends one record (outputs, inputs, vector-Jacobian product) to a
Tape.  backward() replays the records in exact reverse order and
accumulates gradients into a map keyed by leaf Var.

The tape serves one computation: the teacher-forced Gaussian NLL that
training and the adaptation replay share (training.batch_nll_node), so
its ops are the batched ones that NLL is built from.  The control
gradient does not use it; the model computes that with a hand-written
reverse pass.  All arithmetic is float64.  Records operate on whole
matrices; ops are fused where the closed-form local gradient is standard
(the LSTM sequence, the Gaussian log-likelihood).

Tapes hold references to the arrays captured at forward time, not copies.
Run backward() before mutating parameter arrays in place.
"""

from __future__ import annotations

import numpy as np

LOG_2PI = 1.8378770664093453  # log(2*pi)


class ShapeError(ValueError):
    """Operand dimensions do not match."""


class Var:
    """A node in the computation graph wrapping a float64 numpy value."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = np.asarray(value, dtype=np.float64)

    def __repr__(self):
        return f"Var({self.value!r})"


class Tape:
    """Ordered record of primitive ops, replayed backward for gradients.

    Leaves (Vars that no op on this tape produced) are tracked at record
    time so backward() can report an exact-zero gradient for any leaf
    that participated but received no flow.
    """

    __slots__ = ("_records", "_produced", "_leaves")

    def __init__(self):
        self._records = []
        self._produced = set()
        self._leaves = set()

    def record(self, outs, inputs, vjp):
        produced = self._produced
        for v in inputs:
            if v not in produced:
                self._leaves.add(v)
        produced.update(outs)
        self._records.append((outs, inputs, vjp))

    def __len__(self):
        return len(self._records)

    @property
    def leaves(self):
        return frozenset(self._leaves)


def backward(tape, output_grads, output=None):
    """Replay the tape in reverse and return a gradient map.

    output_grads must match the shape of the tape's final output (or of
    the explicitly chosen output Var).  The returned dict maps every
    participating leaf Var to d(output)/d(leaf), with exact zeros for
    leaves the flow never reached.  An empty tape yields an empty map.
    """
    records = tape._records
    if not records:
        return {}
    if output is None:
        output = records[-1][0][0]
    elif output not in tape._produced:
        raise ValueError("requested output was not produced on this tape")
    seed = np.asarray(output_grads, dtype=np.float64)
    if seed.shape != output.value.shape:
        raise ShapeError(
            f"output grad shape {seed.shape} does not match output shape "
            f"{output.value.shape}"
        )
    grads = {output: seed}
    for outs, inputs, vjp in reversed(records):
        gs = [grads.pop(o, None) for o in outs]
        if all(g is None for g in gs):
            continue
        gs = [
            np.zeros_like(o.value) if g is None else g
            for g, o in zip(gs, outs)
        ]
        for v, g in zip(inputs, vjp(*gs)):
            prev = grads.get(v)
            grads[v] = g if prev is None else prev + g
    out = {}
    for v in tape._leaves:
        g = grads.get(v)
        out[v] = np.zeros_like(v.value) if g is None else np.asarray(g, dtype=np.float64)
    return out


# ---------------------------------------------------------------------------
# primitive operations


def tanh_(tape, x):
    y = np.tanh(x.value)
    out = Var(y)

    def vjp(g):
        return (g * (1.0 - y * y),)

    tape.record((out,), (x,), vjp)
    return out



def clip_(tape, x, lo, hi):
    """Clamp to [lo, hi]; gradient passes only where the value was kept."""
    xv = x.value
    out = Var(np.clip(xv, lo, hi))
    mask = (xv >= lo) & (xv <= hi)

    def vjp(g):
        return (g * mask,)

    tape.record((out,), (x,), vjp)
    return out







def scale(tape, x, c):
    """c * x for a plain float constant c."""
    c = float(c)
    out = Var(c * x.value)

    def vjp(g):
        return (g * c,)

    tape.record((out,), (x,), vjp)
    return out




def add_n(tape, parts):
    parts = tuple(parts)
    if not parts:
        raise ValueError("add_n needs at least one operand")
    shape = parts[0].value.shape
    for p in parts[1:]:
        if p.value.shape != shape:
            raise ShapeError("add_n: mismatched operand shapes")
    total = parts[0].value
    for p in parts[1:]:
        total = total + p.value
    out = Var(total)
    n = len(parts)

    def vjp(g):
        return (g,) * n

    tape.record((out,), parts, vjp)
    return out






def affine_batch(tape, w, b, x):
    """x @ w.T + b with w (out, in), b (out,), x (batch, in)."""
    wv, bv, xv = w.value, b.value, x.value
    if wv.ndim != 2 or xv.ndim != 2 or wv.shape[1] != xv.shape[1]:
        raise ShapeError(f"affine_batch: weight {wv.shape} incompatible with input {xv.shape}")
    if bv.shape != (wv.shape[0],):
        raise ShapeError(f"affine_batch: bias {bv.shape} incompatible with weight {wv.shape}")
    out = Var(xv @ wv.T + bv)

    def vjp(g):
        return g.T @ xv, g.sum(axis=0), g @ wv

    tape.record((out,), (w, b, x), vjp)
    return out


def concat_cols(tape, parts):
    """Concatenate (batch, n_i) blocks along the feature axis."""
    parts = tuple(parts)
    if not parts:
        raise ValueError("concat_cols needs at least one operand")
    rows = parts[0].value.shape[0]
    for p in parts:
        if p.value.ndim != 2 or p.value.shape[0] != rows:
            raise ShapeError("concat_cols: operands must share the batch dimension")
    sizes = [p.value.shape[1] for p in parts]
    out = Var(np.concatenate([p.value for p in parts], axis=1))
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        return tuple(g[:, offsets[i]:offsets[i + 1]] for i in range(len(sizes)))

    tape.record((out,), parts, vjp)
    return out


def slice_cols(tape, x, start, stop):
    xv = x.value
    if xv.ndim != 2 or not (0 <= start <= stop <= xv.shape[1]):
        raise ShapeError(f"slice_cols [{start}:{stop}] out of range for shape {xv.shape}")
    out = Var(xv[:, start:stop].copy())
    shape = xv.shape

    def vjp(g):
        full = np.zeros(shape)
        full[:, start:stop] = g
        return (full,)

    tape.record((out,), (x,), vjp)
    return out


def stack_rows(tape, parts):
    """Stack equal-length vectors into a (batch, n) matrix."""
    parts = tuple(parts)
    if not parts:
        raise ValueError("stack_rows needs at least one operand")
    n = parts[0].value.shape
    for p in parts:
        if p.value.ndim != 1 or p.value.shape != n:
            raise ShapeError("stack_rows: operands must be vectors of one length")
    out = Var(np.stack([p.value for p in parts]))

    def vjp(g):
        return tuple(g[i] for i in range(len(parts)))

    tape.record((out,), parts, vjp)
    return out


def tile_rows(tape, x, reps):
    """Repeat each row of x (B, n) reps times: out[b*reps + r] = x[b]."""
    xv = x.value
    if xv.ndim != 2 or reps < 1:
        raise ShapeError(f"tile_rows needs a matrix and reps >= 1, got {xv.shape}, {reps}")
    B, n = xv.shape
    out = Var(np.repeat(xv, reps, axis=0))

    def vjp(g):
        return (g.reshape(B, reps, n).sum(axis=1),)

    tape.record((out,), (x,), vjp)
    return out


def gaussian_nll(tape, mean, logvar, target):
    """Sum over dims of the Gaussian negative log density of target.

    Parameterized by log variance so the exp head's clamp is shared with
    the prediction path:  0.5 * sum(log(2*pi) + lv + (m - t)^2 * exp(-lv)).
    """
    mv, lv = mean.value, logvar.value
    if mv.shape != lv.shape or mv.shape != np.shape(target):
        raise ShapeError("gaussian_nll: mean, logvar, and target shapes must match")
    r = mv - target
    e = np.exp(-lv)
    out = Var(0.5 * np.sum(LOG_2PI + lv + r * r * e))

    def vjp(g):
        return g * (r * e), g * 0.5 * (1.0 - r * r * e)

    tape.record((out,), (mean, logvar), vjp)
    return out

"""Reverse-mode automatic differentiation on a flat operation tape.

Every value flowing through a differentiable computation is wrapped in a
Var node.  Each primitive operation computes its result eagerly with numpy
and appends one record (outputs, inputs, vector-Jacobian product) to a
Tape.  backward() replays the records in exact reverse order and
accumulates gradients into a map keyed by leaf Var.

The tape serves one computation: the teacher-forced Gaussian NLL that
training and the adaptation replay share.  That whole network is one
fused record (training.batch_nll_node, with a hand-written reverse), so
the only ops left here are the ones that assemble its inputs and combine
its outputs: stack_rows for the per-sequence bias rows, add_n for the
sum over length buckets and scale for a mean.  The control gradient does
not use the tape; the model computes it with a hand-written reverse
pass.  All arithmetic is float64.

Tapes hold references to the arrays captured at forward time, not copies.
Run backward() before mutating parameter arrays in place.
"""

from __future__ import annotations

import numpy as np


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

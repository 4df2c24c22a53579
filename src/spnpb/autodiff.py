"""The package's shape error, and the value holders of a retired tape API.

Gradients are hand-written reverse passes: training.batch_nll returns the
teacher-forced NLL with its reverse, and model.rollout_vjp the closed-loop
rollout with its reverse.  No general tape remains.

Var and Tape survive only for perfbench/spnpb_bench.py, whose heldout_nll
still calls training.batch_nll_node(params, Var(p), ..., Tape()) and reads
.value.  ROADMAP item 3's benchmark-only change deletes both, together
with that adapter.
"""

from __future__ import annotations

import numpy as np


class ShapeError(ValueError):
    """Operand dimensions do not match."""


class Var:
    """A float64 value; see the module docstring for its one caller."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = np.asarray(value, dtype=np.float64)


class Tape:
    """Records nothing; see the module docstring for its one caller."""

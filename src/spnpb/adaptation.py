"""Online environment adaptation of the bias vector.

While deployed, incoming (state, command) samples accumulate in a rolling
buffer together with a snapshot of the recurrent state taken just before
each sample was consumed.  Once the buffer holds more than n_thre
samples, every new tick triggers one momentum-SGD step on the live bias
vector p: the whole buffer is replayed teacher-forced from the oldest
snapshot under the current p, and only p receives the gradient.  The
network weights are never touched.  The replay is the training NLL
itself (training.batch_nll with a batch of one), and its hand-written
reverse yields p's gradient.

The objective is the mean NLL per replayed step, not the sum: the buffer
grows from n_thre to n_max during an episode, and a sum-based gradient
would make the update 5x stronger purely because the window filled up.
Momentum SGD is used instead of Adam because its behavior does not
depend on how many steps have already been taken.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .optim import MomentumState, clip_grad_norm, momentum_update
from .training import batch_nll

# Momentum amplifies a persistent gradient by 1/(1-momentum), so the cap
# on a single step must be well under the width of a bias basin (~0.3);
# at 10.0 the early-episode steps fling p across the basin and strand it
# on the saturation plateau beyond (replay NLL 7 nats above the minimum).
GRAD_CLIP = 1.0


class NotReadyError(RuntimeError):
    """adapt_step was called before the buffer reached its threshold."""


@dataclass
class LivePB:
    """The bias vector being adapted, with its optimizer state."""

    p: np.ndarray
    momentum: MomentumState = field(default_factory=lambda: MomentumState(lr=0.05, momentum=0.9))

    @classmethod
    def zeros(cls, n_p=2, lr=0.05, momentum=0.9):
        return cls(p=np.zeros(n_p), momentum=MomentumState(lr=lr, momentum=momentum))


class AdaptBuffer:
    """Rolling window of samples with per-sample recurrent-state snapshots.

    Each entry pairs a TimedSample with the RecurrentState from just
    before that sample was fed to the network, so after any number of
    evictions the oldest entry's snapshot is exactly the state the replay
    must start from.
    """

    def __init__(self, n_thre=10, n_max=50):
        if not (1 <= n_thre <= n_max):
            raise ValueError("need 1 <= n_thre <= n_max")
        self.n_thre = n_thre
        self.n_max = n_max
        self._entries = deque()

    def __len__(self):
        return len(self._entries)

    def push(self, sample, state_before):
        """Append a sample; evicts the oldest when over capacity."""
        if self._entries and sample.tick <= self._entries[-1][0].tick:
            raise ValueError(
                f"tick {sample.tick} is not after the last buffered tick "
                f"{self._entries[-1][0].tick}"
            )
        self._entries.append((sample, state_before))
        if len(self._entries) > self.n_max:
            self._entries.popleft()

    def update_ready(self):
        """True once the buffer has grown past the start threshold."""
        return len(self._entries) > self.n_thre

    @property
    def snapshot(self):
        """Recurrent state preceding the oldest retained sample."""
        return self._entries[0][1]

    def states(self):
        return np.array([e[0].s for e in self._entries])

    def commands(self):
        return np.array([e[0].u for e in self._entries])


def _replay(params, p, buffer):
    """batch_nll of the buffered window as one sequence from its snapshot."""
    states_n = params.stats.normalize_state(buffer.states())
    commands_n = params.stats.normalize_command(buffer.commands())
    return batch_nll(params, np.asarray(p, dtype=np.float64)[None], states_n[None],
                     commands_n[None], init_state=buffer.snapshot)


def buffer_nll(params, p, buffer):
    """Mean per-step NLL of the buffered window replayed from its snapshot."""
    return _replay(params, p, buffer)[0] / (len(buffer) - 1)


def adapt_step(params, buffer, live):
    """One online update of the live bias vector; weights stay frozen.

    Replays the entire buffer teacher-forced from the stored snapshot,
    takes the gradient with respect to p only, and applies one momentum
    step.  A non-finite gradient raises NonFiniteGradientError before the
    step, leaving p and its momentum untouched.  Returns the updated
    LivePB.
    """
    if not buffer.update_ready():
        raise NotReadyError(
            f"buffer holds {len(buffer)} samples, threshold is {buffer.n_thre}")
    _, reverse = _replay(params, live.p, buffer)
    _, d_p = reverse(1.0 / (len(buffer) - 1))  # the gradient of the mean NLL
    grad = clip_grad_norm([d_p[0]], GRAD_CLIP)
    momentum_update([live.p], grad, live.momentum)
    return live

"""Online environment adaptation of the bias vector.

While deployed, each tick's measured state and command accumulate in a
rolling window together with a snapshot of the recurrent state taken
just before the tick was consumed.  Once the window holds more than
n_thre ticks, every new tick triggers one momentum-SGD step on the live
bias vector p: the whole window is replayed teacher-forced from the
oldest snapshot under the current p, and only p receives the gradient.
The network weights are never touched.  The replay is the training NLL
itself (training.batch_nll with a batch of one), and its hand-written
reverse, run without the weight gradients nobody reads, yields p's
gradient.  The buffer keeps the replay's NllWorkspace while the window
length holds, so once the window is full a tick allocates no
activations; buffer_nll, a forward only, takes a fresh one.

The objective is the mean NLL per replayed step, not the sum: the buffer
grows from n_thre to n_max during an episode, and a sum-based gradient
would make the update 5x stronger purely because the window filled up.
Momentum SGD is used instead of Adam because its behavior does not
depend on how many steps have already been taken.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .optim import MomentumState, clip_grad_norm, momentum_update
from .training import NllWorkspace, batch_nll

# Momentum amplifies a persistent gradient by 1/(1-momentum), so the cap
# on a single step must be well under the width of a bias basin (~0.3);
# at 10.0 the early-episode steps fling p across the basin and strand it
# on the saturation plateau beyond (replay NLL 7 nats above the minimum).
GRAD_CLIP = 1.0

# The live bias's momentum-SGD step size.
LR = 0.05


class NotReadyError(RuntimeError):
    """adapt_step was called before the buffer reached its threshold."""


@dataclass
class LivePB:
    """The bias vector being adapted, with its optimizer state."""

    p: np.ndarray
    momentum: MomentumState

    @classmethod
    def zeros(cls, n_p=2, lr=LR, momentum=0.9):
        return cls(p=np.zeros(n_p), momentum=MomentumState(lr=lr, momentum=momentum))


class AdaptBuffer:
    """Rolling window of the last n_max ticks with their recurrent-state snapshots.

    Each tick's state, command and the RecurrentState from just before
    that tick was fed to the network sit at the same position of three
    windows that evict together, so after any number of evictions the
    oldest snapshot is exactly the state the replay must start from.
    """

    def __init__(self, n_thre=10, n_max=50):
        if not (1 <= n_thre <= n_max):
            raise ValueError("need 1 <= n_thre <= n_max")
        self.n_thre = n_thre
        self.n_max = n_max
        self._states = deque(maxlen=n_max)
        self._commands = deque(maxlen=n_max)
        self._snapshots = deque(maxlen=n_max)
        self._last_tick = None
        self._workspace = None

    def __len__(self):
        return len(self._snapshots)

    def push(self, s, u, tick, state_before):
        """Append copies of one tick's s and u; evicts the oldest tick when full.

        A non-finite value or a tick not after the last one raises
        ValueError and leaves the buffer as it was.
        """
        s = np.array(s, dtype=np.float64)
        u = np.array(u, dtype=np.float64)
        if not (np.all(np.isfinite(s)) and np.all(np.isfinite(u))):
            raise ValueError(f"tick {tick} contains non-finite values")
        if self._last_tick is not None and tick <= self._last_tick:
            raise ValueError(
                f"tick {tick} is not after the last buffered tick {self._last_tick}")
        self._states.append(s)
        self._commands.append(u)
        self._snapshots.append(state_before)
        self._last_tick = tick

    def update_ready(self):
        """True once the buffer has grown past the start threshold."""
        return len(self) > self.n_thre

    @property
    def snapshot(self):
        """Recurrent state preceding the oldest retained tick."""
        return self._snapshots[0]

    def replay_workspace(self, config):
        """The NllWorkspace of a replay of the whole window under config.

        It is kept while the window's length and the config stay the same,
        which at capacity is every tick, and replaced otherwise, so the
        buffer holds at most one.
        """
        ws = self._workspace
        if ws is None or (ws.config, ws.T) != (config, len(self)):
            self._workspace = None  # let the old one go before allocating
            ws = self._workspace = NllWorkspace(config, 1, len(self))
        return ws

    def release_workspace(self):
        """Let the kept replay workspace go; the next adapt_step allocates a new one.

        An episode runner calls it when its ticks are done: a caller may keep
        the buffer afterwards (for buffer_nll, say), and the workspace is the
        larger part of it.
        """
        self._workspace = None

    def states(self):
        return np.array(self._states)

    def commands(self):
        return np.array(self._commands)


def _replay(params, p, buffer, workspace=None):
    """batch_nll of the buffered window as one sequence from its snapshot."""
    states_n = params.stats.normalize_state(buffer.states())
    commands_n = params.stats.normalize_command(buffer.commands())
    return batch_nll(params, np.asarray(p, dtype=np.float64)[None], states_n[None],
                     commands_n[None], init_state=buffer.snapshot, workspace=workspace)


def buffer_nll(params, p, buffer):
    """Mean per-step NLL of the buffered window replayed from its snapshot."""
    return _replay(params, p, buffer)[0] / (len(buffer) - 1)


def adapt_step(params, buffer, live):
    """One online update of the live bias vector; weights stay frozen.

    Replays the entire buffer teacher-forced from the stored snapshot in
    the buffer's kept workspace, takes the gradient with respect to p only
    (the reverse skips every weight gradient), and applies one momentum
    step.  A non-finite gradient raises NonFiniteGradientError before the
    step, leaving p and its momentum untouched.  Returns the updated
    LivePB.
    """
    if not buffer.update_ready():
        raise NotReadyError(
            f"buffer holds {len(buffer)} ticks, threshold is {buffer.n_thre}")
    _, reverse = _replay(params, live.p, buffer, buffer.replay_workspace(params.config))
    _, d_p = reverse(1.0 / (len(buffer) - 1), weights=False)  # the gradient of the mean NLL
    grad = clip_grad_norm([d_p[0]], GRAD_CLIP)
    momentum_update([live.p], grad, live.momentum)
    return live

"""Maximum-likelihood training of the predictive network.

The loss for one trial is the Gaussian negative log likelihood of every
measured next state under the model's predicted mean and variance,
teacher-forced (the measured state is always fed, never the prediction),
with the recurrent state zeroed at the trial boundary.  Every epoch
evaluates the summed loss of all trials in one batched pass (trials of
equal length share a forward), then takes one Adam step on the shared
weights and one on each trial's own bias vector p_k.

batch_nll_node is the one teacher-forced NLL in the package: training,
the adaptation replay (a batch of one started from the buffer's
snapshot), trial_nll and the gradient checks all run it, and each of its
two LSTMs is a single tape record per sequence (layers.lstm_sequence).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import (
    Tape,
    Var,
    add_n,
    affine_batch,
    backward,
    clip_,
    concat_cols,
    gaussian_nll,
    slice_cols,
    stack_rows,
    tanh_,
    tile_rows,
)
from .layers import lstm_sequence
from .model import LOGVAR_MAX, LOGVAR_MIN, ModelConfig, ModelParams, NormStats, RecurrentState
from .optim import AdamState, NonFiniteGradientError, adam_update, clip_grad_norm


class TrainingDivergedError(RuntimeError):
    """Raised when the training loss or its gradient stops being finite."""

    def __init__(self, epoch, trial_id=None):
        self.epoch = epoch
        self.trial_id = trial_id
        where = f" on trial {trial_id}" if trial_id is not None else ""
        super().__init__(f"training loss or gradient became non-finite at epoch {epoch}{where}")


@dataclass
class TrainConfig:
    epochs: int = 500
    lr_weights: float = 1e-3
    lr_pb: float = 1e-3
    lr_decay: float = 1.0      # final-epoch weight-lr multiplier, exponential
    lr_decay_pb: float = 1.0   # same for the bias table; decaying it collapses
    grad_clip: float = 10.0    # the per-trial structure, so it defaults to flat
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.lr_weights <= 0 or self.lr_pb <= 0:
            raise ValueError("learning rates must be positive")
        if not 0.0 < self.lr_decay <= 1.0 or not 0.0 < self.lr_decay_pb <= 1.0:
            raise ValueError("decay factors must lie in (0, 1]")
        if self.grad_clip <= 0:
            raise ValueError("grad_clip must be positive")

    def lr_factor(self, epoch, decay=None):
        """Learning-rate multiplier for a 0-indexed epoch; decays from 1 to decay."""
        if decay is None:
            decay = self.lr_decay
        if decay == 1.0:
            return 1.0
        return decay ** (epoch / max(self.epochs - 1, 1))


def compute_norm_stats(trials):
    """Pooled per-dimension mean and population (1/N) standard deviation."""
    if not trials:
        raise ValueError("need at least one trial to compute statistics")
    states = np.concatenate([t.states for t in trials])
    commands = np.concatenate([t.commands for t in trials])
    return NormStats(
        mean_s=states.mean(axis=0), std_s=states.std(axis=0),
        mean_u=commands.mean(axis=0), std_u=commands.std(axis=0),
    )


def nll_element(pred_mean, pred_var, target):
    """Negative log density of target under N(pred_mean, pred_var), one dim."""
    if pred_var <= 0:
        raise ValueError(f"variance must be positive, got {pred_var}")
    return 0.5 * math.log(2.0 * math.pi * pred_var) + (pred_mean - target) ** 2 / (2.0 * pred_var)


def sequence_nll_node(params, p_var, states_n, commands_n, tape, init_state=None):
    """Teacher-forced NLL over one normalized sequence, as a tape node.

    states_n/commands_n are (T, n_s)/(T, n_u) arrays in normalized units.
    Pair t feeds the network and pair t+1's state is the target, so a
    sequence of length T contributes T-1 steps.  This is batch_nll_node
    with a batch of one.
    """
    return batch_nll_node(
        params, stack_rows(tape, (p_var,)), np.asarray(states_n)[None],
        np.asarray(commands_n)[None], tape, init_state=init_state)


def trial_nll(params, p_k, trial, stats):
    """Total NLL of one trial with the recurrent state zeroed at its start."""
    states_n = stats.normalize_state(trial.states)
    commands_n = stats.normalize_command(trial.commands)
    tape = Tape()
    loss = sequence_nll_node(params, Var(p_k), states_n, commands_n, tape)
    return float(loss.value)


def batch_nll_node(params, p_batch, states_n, commands_n, tape, init_state=None):
    """Summed teacher-forced NLL of a batch of equal-length sequences.

    states_n (B, T, n_s) and commands_n (B, T, n_u) are normalized;
    p_batch is a (B, n_p) node whose row b conditions sequence b.  Every
    sequence starts from init_state (a RecurrentState shared by all rows,
    zeros by default), so the total equals the sum of the per-sequence
    losses up to summation order.

    Only the two LSTMs depend on the recurrence, so the dense stacks run
    once over all B*(T-1) step inputs and each LSTM runs its whole
    sequence as one lstm_sequence record.
    """
    B, T = states_n.shape[:2]
    if T < 2:
        raise ValueError("need at least two samples to form a prediction target")
    steps = T - 1
    n_s, n_u = params.config.n_s, params.config.n_u

    u_flat = Var(np.ascontiguousarray(commands_n[:, :steps]).reshape(B * steps, n_u))
    s_flat = Var(np.ascontiguousarray(states_n[:, :steps]).reshape(B * steps, n_s))
    targets = np.ascontiguousarray(states_n[:, 1:]).reshape(B * steps, n_s)

    x = concat_cols(tape, (u_flat, s_flat, tile_rows(tape, p_batch, steps)))
    for layer in params.dense_in:
        x = tanh_(tape, affine_batch(tape, layer.W, layer.b, x))

    if init_state is None:
        init_state = RecurrentState.zeros(params.config.layer_widths[4])
    h1, c1, h2, c2 = (np.tile(np.asarray(v, dtype=np.float64), (B, 1))
                      for v in (init_state.h1, init_state.c1, init_state.h2, init_state.c2))
    y = lstm_sequence(params.lstm1, x, B, steps, h1, c1, tape)
    y = lstm_sequence(params.lstm2, y, B, steps, h2, c2, tape)
    for layer in params.dense_out[:-1]:
        y = tanh_(tape, affine_batch(tape, layer.W, layer.b, y))
    last = params.dense_out[-1]
    out = affine_batch(tape, last.W, last.b, y)
    mean = slice_cols(tape, out, 0, n_s)
    logvar = clip_(tape, slice_cols(tape, out, n_s, 2 * n_s), LOGVAR_MIN, LOGVAR_MAX)
    return gaussian_nll(tape, mean, logvar, targets)


def train(trials, config, model_config=None, on_epoch=None):
    """Fit weights and per-trial biases by Adam on the summed NLL.

    Biases start at zero and stay per-trial: each trial's gradient only
    ever touches its own pb_table row (each row has its own Adam moments).
    Trials of equal length run as one batched forward, so each epoch costs
    one backward pass and applies one weight step plus one step per bias
    row, all from gradients taken at the same parameters.  Returns a
    ModelParams whose pb_table rows align with the trial order given here
    and whose labels are preserved for later analysis.
    """
    if not trials:
        raise ValueError("no trials to train on")
    for trial in trials:
        if len(trial) < 2:
            raise ValueError(f"trial {trial.trial_id} is too short to train on")
    if model_config is None:
        model_config = ModelConfig(
            n_s=trials[0].states.shape[1], n_u=trials[0].commands.shape[1])
    stats = compute_norm_stats(trials)
    rng = np.random.default_rng(config.seed)
    params = ModelParams.init(
        model_config, stats, rng,
        n_trials=len(trials), pb_labels=[t.label for t in trials])

    by_length = {}
    for k, t in enumerate(trials):
        by_length.setdefault(len(t), []).append(k)
    buckets = [
        (ks, np.stack([stats.normalize_state(trials[k].states) for k in ks]),
         np.stack([stats.normalize_command(trials[k].commands) for k in ks]))
        for ks in by_length.values()
    ]
    weight_vars = params.weight_vars()
    weight_arrays = [v.value for v in weight_vars]
    adam_w = AdamState(lr=config.lr_weights)
    adam_p = [AdamState(lr=config.lr_pb) for _ in trials]

    for epoch in range(config.epochs):
        adam_w.lr = config.lr_weights * config.lr_factor(epoch)
        pb_lr = config.lr_pb * config.lr_factor(epoch, config.lr_decay_pb)
        for state in adam_p:
            state.lr = pb_lr
        tape = Tape()
        p_vars = {}
        parts = []
        for ks, states_n, commands_n in buckets:
            rows = [Var(params.pb_table[k]) for k in ks]
            p_vars.update(zip(ks, rows))
            p_batch = stack_rows(tape, rows)
            parts.append(batch_nll_node(params, p_batch, states_n, commands_n, tape))
        loss = add_n(tape, parts) if len(parts) > 1 else parts[0]
        epoch_loss = float(loss.value)
        if not math.isfinite(epoch_loss):
            raise TrainingDivergedError(epoch)
        grads = backward(tape, 1.0)
        try:
            w_grads = clip_grad_norm([grads[v] for v in weight_vars], config.grad_clip)
            p_grads = {k: clip_grad_norm([grads[p_var]], config.grad_clip)
                       for k, p_var in p_vars.items()}
        except NonFiniteGradientError as err:
            raise TrainingDivergedError(epoch) from err
        adam_update(weight_arrays, w_grads, adam_w)
        for k, p_grad in p_grads.items():
            adam_update([params.pb_table[k]], p_grad, adam_p[k])
        if on_epoch is not None:
            on_epoch(epoch, epoch_loss)
    return params

"""Maximum-likelihood training of the predictive network.

The loss for one trial is the Gaussian negative log likelihood of every
measured next state under the model's predicted mean and variance,
teacher-forced (the measured state is always fed, never the prediction),
with the recurrent state zeroed at the trial boundary.  Every epoch
evaluates the summed loss of all trials in one batched pass (trials of
equal length share a forward), then takes one Adam step on the shared
weights and one on the bias table, whose row p_k is trial k's own and is
clipped on its own.

batch_nll is the one teacher-forced NLL in the package: training, the
adaptation replay (a batch of one started from the buffer's snapshot),
trial_nll and the gradient checks all run it.  It is a plain numpy
forward through the input dense stack, both LSTMs, the output stack and
the Gaussian head that returns the loss with its hand-written reverse
through the same stages; the adaptation replay runs that reverse for
the bias gradient alone.  Teacher forcing lets the two LSTMs run as one
loop: layers.lstm_pair_forward steps them as a single cell of width
H1 + H2, LSTM2 one step behind LSTM1, so a window of T samples takes T
packed steps each way instead of 2(T - 1) per-cell ones.  Both work in
the buffers of an NllWorkspace, which train() allocates once per length
bucket and the live bias (adaptation.LivePB) once per window length.
A workspace keeps model.RolloutWorkspace's generation guard: a reverse
reads only its own forward's activations, and spends them.  The pair's
reverse scratch shares one block with the output stack's and the head's
buffers, which the reverse has finished with by then.
"""

from __future__ import annotations

import ctypes
import functools
import math
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autodiff import ShapeError, Var
from .layers import (
    LstmPairBuffers,
    carve,
    dense_affine,
    dense_stack_forward,
    dense_stack_reverse,
    grad_view,
    lstm_pair_forward,
    lstm_pair_reverse,
)
from .model import LOGVAR_MAX, LOGVAR_MIN, ModelConfig, ModelParams, NormStats, RecurrentState
from .optim import AdamState, NonFiniteGradientError, adam_update, clip_grad_norm, clip_row_norms

LOG_2PI = 1.8378770664093453  # log(2*pi)


class TrainingDivergedError(RuntimeError):
    """Raised when the training loss or its gradient stops being finite."""

    def __init__(self, epoch):
        self.epoch = epoch
        super().__init__(f"training loss or gradient became non-finite at epoch {epoch}")


@functools.cache
def _bundled_openblas():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None.

    numpy wheels ship OpenBLAS in numpy.libs; loading that file again
    returns the instance numpy already uses.  A numpy linked against
    another BLAS gets None.
    """
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@contextmanager
def one_blas_thread():
    """Run the block with numpy's bundled OpenBLAS on one thread.

    An epoch's matrix products are small (widths <= 50, at most a few
    thousand rows), so a second BLAS thread saves little on an idle
    machine and, when another process holds the other core, each product
    waits on a descheduled thread: on a 2-core box with one core busy an
    epoch ran 2-4x slower at 2 threads and barely slower at 1.  One
    thread also makes the trained weights independent of
    OPENBLAS_NUM_THREADS.  The previous count is restored on exit; without
    the bundled OpenBLAS the block runs unchanged.
    """
    blas = _bundled_openblas()
    if blas is None:
        yield
        return
    get, put = blas
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


@dataclass(frozen=True)
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
        for name in ("lr_weights", "lr_pb", "grad_clip"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if not 0.0 < self.lr_decay <= 1.0 or not 0.0 < self.lr_decay_pb <= 1.0:
            raise ValueError("decay factors must lie in (0, 1]")

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


def trial_nll(params, p_k, trial, stats):
    """Total NLL of one trial with the recurrent state zeroed at its start."""
    states_n = stats.normalize_state(trial.states)
    commands_n = stats.normalize_command(trial.commands)
    loss, _ = batch_nll(params, np.asarray(p_k, dtype=np.float64)[None], states_n[None],
                        commands_n[None])
    return loss


class GaussianHeadBuffers:
    """Output layer, clamped logvar and Gaussian NLL terms of n rows.

    The float buffers are views of one flat block of size(n, n_s) entries,
    allocated here unless given; kept is an array of its own.
    """

    def __init__(self, n, n_s, block=None):
        if block is None:
            block = np.empty(self.size(n, n_s))
        (self.out,      # the output layer: mean | raw logvar
         self.r,        # mean - target
         self.lv,       # clamped logvar
         self.e,        # exp(-logvar)
         self.q,        # r * r * e
         self.d_out) = carve(block, (n, 2 * n_s), *[(n, n_s)] * 4, (n, 2 * n_s))
        self.kept = np.empty((n, n_s), dtype=bool)  # logvar inside the clamp

    @staticmethod
    def size(n, n_s):
        return 8 * n * n_s


def gaussian_head_forward(last, y, targets, head):
    """The linear output layer and the summed Gaussian NLL of targets.

    last is the output DenseLayer, y (n, n_in) its input and targets
    (n, n_s).  The first n_s outputs are the mean and the rest the log
    variance, clamped to [LOGVAR_MIN, LOGVAR_MAX]; the loss is
    0.5 * sum(log(2*pi) + lv + (mean - target)^2 * exp(-lv)).  Fills head
    and returns the loss as a float.
    """
    n_s = targets.shape[1]
    out = dense_affine(last, y, head.out)
    raw = out[:, n_s:]
    np.subtract(out[:, :n_s], targets, out=head.r)
    np.clip(raw, LOGVAR_MIN, LOGVAR_MAX, out=head.lv)
    np.equal(head.lv, raw, out=head.kept)
    np.negative(head.lv, out=head.e)
    np.exp(head.e, out=head.e)
    np.multiply(head.r, head.r, out=head.q)
    head.q *= head.e
    return 0.5 * (LOG_2PI * head.lv.size + float(head.lv.sum()) + float(head.q.sum()))


def gaussian_head_reverse(last, y, head, g, dy, weights=True):
    """Reverse of gaussian_head_forward for a loss gradient g.

    A clamped logvar entry passes no gradient.  Writes the gradient of y
    into dy and returns the output layer's (dW, db), or None with weights
    False.
    """
    n_s = head.r.shape[1]
    d_mean, d_lv = head.d_out[:, :n_s], head.d_out[:, n_s:]
    np.multiply(head.r, head.e, out=d_mean)
    d_mean *= g
    np.subtract(1.0, head.q, out=d_lv)
    d_lv *= g * 0.5
    d_lv *= head.kept
    np.matmul(head.d_out, last.W, out=dy)
    if not weights:
        return None
    return head.d_out.T @ y, head.d_out.sum(axis=0)


class NllWorkspace:
    """Every buffer of batch_nll for one model config and (B, T).

    Rows are time-major: row t*B + b is step t of sequence b.  It keeps
    the contract of model.RolloutWorkspace: a forward bumps generation,
    and a reverse runs only while the generation is still its forward's,
    so it reads only its own forward's activations.  The reverse keeps its
    gradients in the activations it spends (see layers) and in grad, one
    flat scratch for the gradient in flight between stages, so it bumps
    generation too and runs once.  A forward that never reverses, or that
    raises, leaves nothing to release: the next forward simply takes over.

    x, the input stack's activations, grad and the pair's activations and
    states are arrays of their own.  late is one flat block that serves
    two uses in turn: the forward's late-stage buffers (the pair's output
    rows, the output stack's activations, targets and the head's float
    buffers), then the pair's reverse scratch (its gate factors, which
    become its gate gradients, and its tanh(c)/dc_dh plane).  It is as
    long as the larger of the two.
    """

    def __init__(self, config, B, T):
        if B < 1 or T < 2:
            raise ValueError(f"need B >= 1 sequences of T >= 2 samples, got {B}, {T}")
        self.config, self.B, self.T = config, B, T
        steps = T - 1
        n = steps * B
        w = config.layer_widths
        self.x = np.empty((n, config.n_in))
        self.dense_in = [np.empty((n, k)) for k in w[:4]]
        n_s = config.n_s
        late = [*((n, k) for k in w[5:9]), (n, n_s), (GaussianHeadBuffers.size(n, n_s),)]
        # batch_nll reverses the head, the output stack, the pair and the
        # input stack in that order, so the late-stage buffers are spent
        # before the pair's reverse writes its scratch over them
        self.late = np.empty(max(sum(map(math.prod, late)),
                                 LstmPairBuffers.scratch_size(steps, B, w[4] + w[5])))
        out, *self.dense_out, self.targets, head = carve(self.late, *late)
        self.lstms = LstmPairBuffers(steps, B, w[3], w[4], w[5], out=out, scratch=self.late)
        self.head = GaussianHeadBuffers(n, n_s, head)
        self.grad = np.empty(n * max(w))  # the reverse's gradient in flight (grad_view)
        self.generation = 0


def batch_nll(params, p_batch, states_n, commands_n, init_state=None, workspace=None):
    """Summed teacher-forced NLL of a batch of equal-length sequences.

    states_n (B, T, n_s) and commands_n (B, T, n_u) are normalized;
    p_batch is a (B, n_p) array whose row b conditions sequence b.  Every
    sequence starts from init_state (a RecurrentState shared by all rows,
    zeros by default), so the total equals the sum of the per-sequence
    losses up to summation order.

    Returns (loss, reverse).  The forward runs the input dense stack over
    all B*(T-1) step inputs at once, the two LSTMs as one skewed loop
    over the whole sequence, the output stack and the Gaussian head in
    plain numpy.  reverse(g), for a loss gradient g, runs the
    hand-written reverse through the same stages and returns
    (weight_grads, d_p): the weight gradients in
    ModelParams.weight_arrays() order and d_p (B, n_p).
    reverse(g, weights=False) skips every weight gradient and returns
    (None, d_p), the same d_p bit for bit.  reverse reads the weights, so
    call it before they change.  The reverse runs the head, the output
    stack, the pair and the input stack in that order: the pair's reverse
    writes its scratch over the late block that holds the output stack's
    and the head's buffers, spent by then, and the gradient in flight
    between stages lives in the workspace's grad.  All of it works in
    workspace, an NllWorkspace for these shapes: train() keeps one per
    length bucket, the adaptation replay one per window length (LivePB),
    and every other caller gets a fresh one per call.  reverse runs once,
    and only while no later forward has run in the workspace; otherwise
    it raises RuntimeError.
    """
    cfg = params.config
    n_s, n_u = cfg.n_s, cfg.n_u
    p_batch = np.asarray(p_batch, dtype=np.float64)
    states_n = np.asarray(states_n, dtype=np.float64)
    commands_n = np.asarray(commands_n, dtype=np.float64)
    B, T = states_n.shape[:2]
    if T < 2:
        raise ValueError("need at least two samples to form a prediction target")
    if states_n.shape != (B, T, n_s) or commands_n.shape != (B, T, n_u):
        raise ShapeError(f"states {states_n.shape} and commands {commands_n.shape} must be "
                         f"(B, T, {n_s}) and (B, T, {n_u})")
    if p_batch.shape != (B, cfg.n_p):
        raise ShapeError(f"bias batch must be ({B}, {cfg.n_p}), got {p_batch.shape}")
    if init_state is None:
        init_state = RecurrentState.zeros(cfg.layer_widths[4])
    ws = NllWorkspace(cfg, B, T) if workspace is None else workspace
    if (ws.config, ws.B, ws.T) != (cfg, B, T):
        raise ShapeError(f"workspace for B={ws.B}, T={ws.T} and {ws.config} cannot hold "
                         f"B={B}, T={T} and {cfg}")
    ws.generation += 1
    generation = ws.generation
    steps = T - 1
    n = steps * B

    x = ws.x.reshape(steps, B, cfg.n_in)
    x[..., :n_u] = commands_n[:, :steps].transpose(1, 0, 2)
    x[..., n_u:n_u + n_s] = states_n[:, :steps].transpose(1, 0, 2)
    x[..., n_u + n_s:] = p_batch
    ws.targets.reshape(steps, B, n_s)[...] = states_n[:, 1:].transpose(1, 0, 2)

    y = dense_stack_forward(params.dense_in, ws.x, ws.dense_in)
    starts = (init_state.h1, init_state.c1, init_state.h2, init_state.c2)
    y2 = lstm_pair_forward(params.lstm1, params.lstm2, y, starts, ws.lstms)
    y = dense_stack_forward(params.dense_out[:-1], y2, ws.dense_out)
    loss = gaussian_head_forward(params.dense_out[-1], y, ws.targets, ws.head)

    def reverse(g, weights=True):
        if ws.generation != generation:
            raise RuntimeError("the workspace was reversed or run again since this "
                               "forward, so its activations are gone")
        ws.generation += 1  # the reverse spends the activations, whether or not it ends
        head = gaussian_head_reverse(params.dense_out[-1], y, ws.head, g,
                                     grad_view(ws.grad, n, y.shape[1]), weights)
        d_out = dense_stack_reverse(params.dense_out[:-1], y2, ws.dense_out, ws.grad,
                                    weights=weights)
        d_lstms = lstm_pair_reverse(params.lstm1, ws.dense_in[-1], ws.lstms,
                                    grad_view(ws.grad, n, y2.shape[1]),
                                    grad_view(ws.grad, n, ws.dense_in[-1].shape[1]),
                                    weights)
        d_in = dense_stack_reverse(params.dense_in, ws.x, ws.dense_in, ws.grad,
                                   dx=False, weights=weights)
        # only p's columns of the input need a gradient, summed over steps;
        # the first layer's pre-activation gradient is left in its activations
        w_p = params.dense_in[0].W[:, n_u + n_s:]
        d_p = ws.dense_in[0].reshape(steps, B, -1).sum(axis=0) @ w_p
        if not weights:
            return None, d_p
        return [*(d for pair in d_in for d in pair), *d_lstms,
                *(d for pair in d_out for d in pair), *head], d_p

    return loss, reverse


def batch_nll_node(params, p_batch, states_n, commands_n, tape, init_state=None):
    """batch_nll's loss for perfbench/spnpb_bench.py's heldout_nll, its one caller.

    ROADMAP item 5's benchmark-only change deletes it with autodiff.Var and Tape.
    """
    return Var(batch_nll(params, p_batch.value, states_n, commands_n, init_state)[0])


@one_blas_thread()
def train(trials, config, model_config=None, on_epoch=None):
    """Fit weights and per-trial biases by Adam on the summed NLL.

    Biases start at zero and stay per-trial: each trial's gradient only
    ever touches its own pb_table row.  Each row's gradient is clipped on
    its own (clip_row_norms), and one Adam step moves the whole table;
    Adam's moments are elementwise, so a row steps on its own gradients
    alone.  Trials of equal length run as one batched forward, so each
    epoch costs one forward and one reverse per length bucket and applies
    one weight step and one bias-table step, all from gradients taken at
    the same parameters.  Each length bucket keeps one NllWorkspace for
    the whole run, so an epoch allocates no activations.  Returns a
    ModelParams whose pb_table rows align with the trial order given here
    and whose labels are preserved for later analysis.  It runs with
    numpy's OpenBLAS on one thread (see one_blas_thread), on_epoch
    included.
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
         np.stack([stats.normalize_command(trials[k].commands) for k in ks]),
         NllWorkspace(model_config, len(ks), length))
        for length, ks in by_length.items()
    ]
    weight_arrays = params.weight_arrays()
    adam_w = AdamState(lr=config.lr_weights)
    adam_p = AdamState(lr=config.lr_pb)
    d_p = np.empty_like(params.pb_table)

    for epoch in range(config.epochs):
        adam_w.lr = config.lr_weights * config.lr_factor(epoch)
        adam_p.lr = config.lr_pb * config.lr_factor(epoch, config.lr_decay_pb)
        losses, reverses = [], []
        for ks, states_n, commands_n, workspace in buckets:
            loss, reverse = batch_nll(params, params.pb_table[ks], states_n, commands_n,
                                      workspace=workspace)
            losses.append(loss)
            reverses.append(reverse)
        epoch_loss = sum(losses)
        if not math.isfinite(epoch_loss):
            raise TrainingDivergedError(epoch)
        # last bucket first: the summation order fixes the trained weights' last bits
        w_grads = None
        for (ks, *_), reverse in zip(buckets[::-1], reverses[::-1]):
            grads, d_p[ks] = reverse(1.0)
            w_grads = grads if w_grads is None else [a + b for a, b in zip(w_grads, grads)]
        try:
            w_grads = clip_grad_norm(w_grads, config.grad_clip)
            p_grads = clip_row_norms(d_p, config.grad_clip)
        except NonFiniteGradientError as err:
            raise TrainingDivergedError(epoch) from err
        adam_update(weight_arrays, w_grads, adam_w)
        adam_update([params.pb_table], [p_grads], adam_p)
        if on_epoch is not None:
            on_epoch(epoch, epoch_loss)
    return params

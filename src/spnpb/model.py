"""Stochastic predictive network with parametric bias.

The network maps the current state s_t, command u_t, and a small
per-environment bias vector p, together with the recurrent state of two
LSTM layers, to a Gaussian over the next state: a mean vector and a
per-dimension variance produced by an exponential head.  Layer layout,
input to output:

    concat(u, s, p) -> dense+tanh x4 -> LSTM -> LSTM -> dense+tanh x3
                    -> dense (linear, width 2*n_s)

The first n_s outputs are the predicted mean; the last n_s are log
variance, clamped to [-10, 10] before exponentiation.  All values are in
normalized (z-scored) units; NormStats carries the transform.

The model has one numpy forward loop, which writes every step's
activations into time-stacked buffers allocated once per call.
rollout_batch runs it for K closed-loop candidate plans, forward for one
step of the live state, and rollout_vjp hands back, with the K rollouts,
a hand-written reverse that gives the control gradient of all rows or of
any one row.  The reverse takes every factor that does not depend on the
gradient flowing back (tanh derivatives, LSTM gate factors, the logvar
clamp mask) over the whole horizon at once; its step loop keeps only the
serial chain.  The teacher-forced NLL of training and adaptation
(training.batch_nll) has its own forward and reverse over the same
layer helpers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .autodiff import ShapeError
from .layers import (
    DenseLayer,
    LstmCell,
    dense_affine,
    dense_stack_forward,
    lstm_gate_factors,
    lstm_step,
    lstm_step_back,
    lstm_step_weights,
)

LOGVAR_MIN = -10.0
LOGVAR_MAX = 10.0

FORMAT_VERSION = 1

_HIDDEN_WIDTHS = (50, 20, 10, 10, 10, 10, 20, 50)


@dataclass(frozen=True)
class ModelConfig:
    """Network dimensions; widths are fixed apart from the state/command/bias sizes."""

    n_s: int
    n_u: int
    n_p: int = 2
    tick_period: float = 0.2

    def __post_init__(self):
        if self.n_s < 1 or self.n_u < 1 or self.n_p < 1:
            raise ValueError("n_s, n_u, and n_p must all be positive")
        if not (math.isfinite(self.tick_period) and self.tick_period > 0):
            raise ValueError("tick_period must be finite and positive")

    @property
    def n_in(self):
        return self.n_u + self.n_s + self.n_p

    @property
    def layer_widths(self):
        """Output width of each of the ten layers; entries 5 and 6 are the LSTMs."""
        return (self.n_in,) + _HIDDEN_WIDTHS + (2 * self.n_s,)


class NormStats:
    """Per-dimension z-score statistics for states and commands.

    Standard deviations are floored at 1e-6 at construction so degenerate
    dimensions cannot produce division blowups.
    """

    STD_FLOOR = 1e-6

    def __init__(self, mean_s, std_s, mean_u, std_u):
        self.mean_s = np.asarray(mean_s, dtype=np.float64)
        self.std_s = np.maximum(np.asarray(std_s, dtype=np.float64), self.STD_FLOOR)
        self.mean_u = np.asarray(mean_u, dtype=np.float64)
        self.std_u = np.maximum(np.asarray(std_u, dtype=np.float64), self.STD_FLOOR)
        if self.mean_s.shape != self.std_s.shape or self.mean_u.shape != self.std_u.shape:
            raise ShapeError("normalization mean/std shapes must match")

    def normalize_state(self, s):
        return (np.asarray(s, dtype=np.float64) - self.mean_s) / self.std_s

    def normalize_command(self, u):
        return (np.asarray(u, dtype=np.float64) - self.mean_u) / self.std_u

    def denormalize_state(self, s):
        return np.asarray(s, dtype=np.float64) * self.std_s + self.mean_s

    def denormalize_command(self, u):
        return np.asarray(u, dtype=np.float64) * self.std_u + self.mean_u

    def denormalize_state_sigma(self, sigma):
        """Map a predicted standard deviation back to raw units."""
        return np.asarray(sigma, dtype=np.float64) * self.std_s


@dataclass(frozen=True)
class RecurrentState:
    """The (c, h) pairs of both LSTM layers.  Treated as a value."""

    h1: np.ndarray
    c1: np.ndarray
    h2: np.ndarray
    c2: np.ndarray

    @classmethod
    def zeros(cls, hidden=10):
        return cls(np.zeros(hidden), np.zeros(hidden), np.zeros(hidden), np.zeros(hidden))


@dataclass
class GaussianPrediction:
    """Predicted next-state distribution in normalized units."""

    mean: np.ndarray
    variance: np.ndarray


class ModelParams:
    """All trainable tensors plus normalization stats and the PB table.

    pb_table has one row per training trial (the per-trial bias vectors);
    pb_labels carries the matching environment labels.
    """

    def __init__(self, config, dense_in, lstm1, lstm2, dense_out, stats,
                 pb_table=None, pb_labels=None):
        self.config = config
        self.dense_in = list(dense_in)
        self.lstm1 = lstm1
        self.lstm2 = lstm2
        self.dense_out = list(dense_out)
        self.stats = stats
        if pb_table is None:
            pb_table = np.zeros((0, config.n_p))
        self.pb_table = np.asarray(pb_table, dtype=np.float64)
        self.pb_labels = list(pb_labels) if pb_labels is not None else []
        self._validate()

    def _validate(self):
        widths = self.config.layer_widths
        if len(self.dense_in) != 4 or len(self.dense_out) != 4:
            raise ShapeError("expected four dense layers on each side of the LSTMs")
        ins = [self.config.n_in, widths[0], widths[1], widths[2]]
        for layer, n_in, n_out in zip(self.dense_in, ins, widths[:4]):
            if (layer.n_in, layer.n_out) != (n_in, n_out):
                raise ShapeError(
                    f"input dense layer is {layer.n_out}x{layer.n_in}, "
                    f"expected {n_out}x{n_in}"
                )
        outs = widths[6:]
        ins = [widths[5], widths[6], widths[7], widths[8]]
        for layer, n_in, n_out in zip(self.dense_out, ins, outs):
            if (layer.n_in, layer.n_out) != (n_in, n_out):
                raise ShapeError(
                    f"output dense layer is {layer.n_out}x{layer.n_in}, "
                    f"expected {n_out}x{n_in}"
                )
        if self.lstm1.hidden != widths[4] or self.lstm2.hidden != widths[5]:
            raise ShapeError("LSTM hidden sizes do not match the configured widths")
        if self.pb_table.ndim != 2 or self.pb_table.shape[1] != self.config.n_p:
            raise ShapeError(f"pb table must be (k, {self.config.n_p})")
        if self.pb_labels and len(self.pb_labels) != self.pb_table.shape[0]:
            raise ShapeError("pb labels must align with pb table rows")

    @classmethod
    def init(cls, config, stats, rng, n_trials=0, pb_labels=None):
        """Fresh parameters: Glorot-uniform weights, zero biases
        (LSTM forget-gate bias 1), PB rows all zero."""
        w = config.layer_widths
        ins = [config.n_in, w[0], w[1], w[2]]
        dense_in = [DenseLayer.init(i, o, rng) for i, o in zip(ins, w[:4])]
        lstm1 = LstmCell.init(w[3], w[4], rng)
        lstm2 = LstmCell.init(w[4], w[5], rng)
        ins = [w[5], w[6], w[7], w[8]]
        dense_out = [DenseLayer.init(i, o, rng) for i, o in zip(ins, w[6:])]
        return cls(config, dense_in, lstm1, lstm2, dense_out, stats,
                   pb_table=np.zeros((n_trials, config.n_p)), pb_labels=pb_labels)

    def weight_arrays(self):
        """All weight arrays in the declared (serialization) order."""
        out = []
        for layer in self.dense_in:
            out.extend((layer.W, layer.b))
        for cell in (self.lstm1, self.lstm2):
            out.extend((cell.Wx, cell.Wh, cell.b))
        for layer in self.dense_out:
            out.extend((layer.W, layer.b))
        return out

    def pb_for_label(self, label):
        """Centroid of the PB rows trained under the given environment label."""
        rows = [i for i, lab in enumerate(self.pb_labels) if lab == label]
        if not rows:
            raise KeyError(f"no trained bias rows for label {label!r}")
        return self.pb_table[rows].mean(axis=0)


def _check_step_inputs(params, state, s, u, p):
    cfg = params.config
    if np.shape(s) != (cfg.n_s,):
        raise ShapeError(f"state input must have shape ({cfg.n_s},)")
    if np.shape(u) != (cfg.n_u,):
        raise ShapeError(f"command input must have shape ({cfg.n_u},)")
    if np.shape(p) != (cfg.n_p,):
        raise ShapeError(f"bias input must have shape ({cfg.n_p},)")
    hidden = cfg.layer_widths[4]
    for part in (state.h1, state.c1, state.h2, state.c2):
        if np.shape(part) != (hidden,):
            raise ShapeError("recurrent state vectors must match the LSTM hidden size")


def _run(params, state, s_t, u_batch, p):
    """The model's one forward loop: K closed-loop rows from one shared state.

    u_batch is (K, n_seq, n_u); each row starts from state, s_t and p,
    and each step's predicted mean is the next step's state input.
    Returns (means, variances, (h1, c1, h2, c2), acts): means and
    variances C-contiguous (K, n_seq, n_s), the recurrent state after the
    last step, each part (K, H), and the _Activations that _reverse reads.
    """
    u_batch = np.asarray(u_batch, dtype=np.float64)
    cfg = params.config
    if u_batch.ndim != 3 or u_batch.shape[1] < 1 or u_batch.shape[2] != cfg.n_u:
        raise ShapeError(f"command batch must have shape (K, n_seq, {cfg.n_u}), "
                         f"got {u_batch.shape}")
    _check_step_inputs(params, state, s_t, u_batch[0, 0], p)
    K, n_seq, _ = u_batch.shape
    n_s = cfg.n_s

    acts = _Activations(params, n_seq, K)
    x_in = acts.x
    x_in[:-1, :, :cfg.n_u] = u_batch.transpose(1, 0, 2)
    x_in[0, :, cfg.n_u:cfg.n_u + n_s] = s_t
    x_in[:, :, cfg.n_u + n_s:] = p
    for buf, h0, c0 in zip(acts.lstms, (state.h1, state.h2), (state.c1, state.c2)):
        buf.hs[0] = np.asarray(h0)[:, None]  # the LSTM helpers take the K rows as columns
        buf.cs[0] = np.asarray(c0)[:, None]
    lstms = [(lstm_step_weights(cell), buf)
             for cell, buf in zip((params.lstm1, params.lstm2), acts.lstms)]
    last = params.dense_out[-1]
    for t in range(n_seq):
        x = dense_stack_forward(params.dense_in, x_in[t], [y[t] for y in acts.dense_in]).T
        for (wx, wh, b), buf in lstms:
            z = buf.acts[t]
            np.matmul(wx, x, out=z)
            z += b
            lstm_step(z, buf.hs[t], buf.cs[t], wh, buf.hs[t + 1], buf.cs[t + 1], buf.tcs[t])
            x = buf.hs[t + 1]
        x = dense_stack_forward(params.dense_out[:-1], x.T, [y[t] for y in acts.dense_out])
        out = dense_affine(last, x, acts.out[t])
        x_in[t + 1, :, cfg.n_u:cfg.n_u + n_s] = out[:, :n_s]  # the mean is the next state
    # copies in (K, n_seq, n_s) order: control_loss sums each row in memory order
    means = acts.out[:, :, :n_s].transpose(1, 0, 2).copy()
    logvars = np.clip(acts.out[:, :, n_s:], LOGVAR_MIN, LOGVAR_MAX)
    variances = np.exp(logvars, out=logvars).transpose(1, 0, 2).copy()
    h1, h2 = (buf.hs[-1].T for buf in acts.lstms)
    c1, c2 = (buf.cs[-1].T for buf in acts.lstms)
    return means, variances, (h1, c1, h2, c2), acts


class _Activations:
    """What _run keeps of K rows over n_seq steps, time-stacked.

    x holds each step's (u, s, p) input rows, with one step more than the run so
    the last mean has somewhere to go; dense_in/dense_out hold each tanh
    layer's (n_seq, K, width) outputs, out the last layer's raw
    (n_seq, K, 2 n_s) output and lstms each LSTM's gate activations, h, c
    and tanh(c) as (n_seq, ., K) columns.
    """

    def __init__(self, params, n_seq, K):
        self.x = np.empty((n_seq + 1, K, params.config.n_in))
        self.dense_in = [np.empty((n_seq, K, layer.n_out)) for layer in params.dense_in]
        self.dense_out = [np.empty((n_seq, K, layer.n_out)) for layer in params.dense_out[:-1]]
        self.out = np.empty((n_seq, K, params.dense_out[-1].n_out))
        self.lstms = [_LstmActivations(n_seq, K, cell.hidden)
                      for cell in (params.lstm1, params.lstm2)]


class _LstmActivations:
    def __init__(self, n_seq, K, H):
        self.acts = np.empty((n_seq, 4 * H, K))
        self.hs = np.empty((n_seq + 1, H, K))
        self.cs = np.empty((n_seq + 1, H, K))
        self.tcs = np.empty((n_seq, H, K))


def _reverse(params, acts, variances, d_means, d_variances, rows):
    """Backpropagation through time over rows of _run's activations.

    Carries d loss/d means and d loss/d variances, each (R, n_seq, n_s)
    for the R rows that the slice rows picks, back to d loss/d u
    (R, n_seq, n_u).  Every factor that does not depend on the gradient
    flowing back is taken for the whole horizon at once: the logvar
    clamp (clamped entries pass no gradient), the tanh derivatives and
    the LSTM gate factors.  The step loop then runs the last dense layer,
    the output tanh stack, LSTM2, LSTM1 and the input tanh stack in
    reverse.  A step's gradient at its state input joins the previous
    step's d_mean, since that mean was fed back as the state.
    """
    cfg = params.config
    n_s, n_u = cfg.n_s, cfg.n_u
    R, n_seq, _ = d_means.shape
    # each step's gradient at the last layer's output: d_mean (the fed-back
    # d_s joins it in the loop) beside the clamp-masked d_logvar
    d_out = np.empty((n_seq, R, 2 * n_s))
    d_out[:, :, :n_s] = d_means.transpose(1, 0, 2)
    raw = acts.out[:, rows, n_s:].transpose(1, 0, 2)
    kept = (raw >= LOGVAR_MIN) & (raw <= LOGVAR_MAX)
    d_out[:, :, n_s:] = (d_variances * variances[rows] * kept).transpose(1, 0, 2)

    def tanh_grads(ys):
        return [1.0 - y[:, rows] * y[:, rows] for y in ys]

    grads_in, grads_out = tanh_grads(acts.dense_in), tanh_grads(acts.dense_out)
    lstms = []
    for cell, buf in zip((params.lstm1, params.lstm2), acts.lstms):
        H = cell.hidden
        act = buf.acts[..., rows]
        fac = np.empty((n_seq, 4 * H, R))
        dc_dh = np.empty((n_seq, H, R))
        lstm_gate_factors(act, buf.cs[:-1, :, rows], buf.tcs[..., rows], fac, dc_dh)
        lstms.append((cell, fac, dc_dh, act[:, H:2 * H], np.zeros((H, R)), np.zeros((H, R)),
                      np.empty((4 * H, R))))
    d_u = np.empty((R, n_seq, n_u))
    d_s = 0.0
    for t in range(n_seq - 1, -1, -1):
        d_out[t, :, :n_s] += d_s
        g = d_out[t] @ params.dense_out[-1].W
        for layer, dy in zip(params.dense_out[-2::-1], grads_out[::-1]):
            g = (g * dy[t]) @ layer.W
        g = g.T  # columns, as the LSTM helpers take them
        for k in (1, 0):
            cell, fac, dc_dh, f, dh, dc, dz = lstms[k]
            dh += g
            lstm_step_back(dh, dc, fac[t], dc_dh[t], f[t], cell.Wh, dz)
            g = cell.Wx.T @ dz
        g = g.T
        for layer, dy in zip(params.dense_in[::-1], grads_in[::-1]):
            g = (g * dy[t]) @ layer.W
        d_u[:, t] = g[:, :n_u]
        d_s = g[:, n_u:n_u + n_s]
    return d_u


def forward(params, state, s, u, p):
    """One prediction step from normalized inputs.

    Returns (GaussianPrediction, advanced RecurrentState); the input state
    is not mutated.  This is the one-row, one-step case of the forward
    loop that rollout_batch runs.
    """
    means, variances, (h1, c1, h2, c2), _ = _run(
        params, state, s, np.asarray(u, dtype=np.float64)[None, None], p)
    return (GaussianPrediction(mean=means[0, 0], variance=variances[0, 0]),
            RecurrentState(h1[0], c1[0], h2[0], c2[0]))


def rollout_batch(params, state, s_t, u_batch, p):
    """Closed-loop rollouts of K command sequences from one shared state.

    u_batch is (K, n_seq, n_u); every sequence starts from the same
    recurrent state, s_t, and bias p, and feeds each predicted mean back
    as the next state.  Returns (means, variances), each C-contiguous
    (K, n_seq, n_s).
    """
    means, variances, _, _ = _run(params, state, s_t, u_batch, p)
    return means, variances


def rollout_vjp(params, state, s_t, u_batch, p):
    """rollout_batch plus its reverse pass, for any row of the batch.

    Returns (means, variances, vjp).  vjp(d_means, d_variances) maps
    gradients of a loss with respect to all K rows of means and
    variances, each (K, n_seq, n_s), to its gradient with respect to
    u_batch (K, n_seq, n_u).  vjp(d_means, d_variances, row=k) takes one
    row's (n_seq, n_s) gradients and reverses that row alone, giving
    (n_seq, n_u).  The forward's activations are kept, so the reverse
    can run any number of times.
    """
    means, variances, _, acts = _run(params, state, s_t, u_batch, p)

    def vjp(d_means, d_variances, row=None):
        d_means, d_variances = (np.asarray(g, dtype=np.float64) for g in (d_means, d_variances))
        want = means.shape if row is None else means.shape[1:]
        if d_means.shape != want or d_variances.shape != want:
            raise ShapeError(f"vjp takes gradients of shape {want}, "
                             f"got {d_means.shape} and {d_variances.shape}")
        if row is None:
            return _reverse(params, acts, variances, d_means, d_variances, slice(None))
        row = range(len(means))[row]
        return _reverse(params, acts, variances, d_means[None], d_variances[None],
                        slice(row, row + 1))[0]

    return means, variances, vjp


# ---------------------------------------------------------------------------
# persistence


def _dense_to_dict(layer):
    return {"w": layer.W.tolist(), "b": layer.b.tolist()}


def _lstm_to_dict(cell):
    return {
        "wx": cell.Wx.tolist(),
        "wh": cell.Wh.tolist(),
        "b": cell.b.tolist(),
    }


def save_model(params, path):
    """Write the model as self-describing JSON.

    Floats are serialized with Python's shortest round-trip repr, so a
    save/load cycle reproduces every 64-bit value exactly.
    """
    doc = {
        "format_version": FORMAT_VERSION,
        "kind": "spnpb-model",
        "input_order": ["u", "s", "p"],
        "gate_order": ["input", "forget", "output", "candidate"],
        "config": {
            "n_s": params.config.n_s,
            "n_u": params.config.n_u,
            "n_p": params.config.n_p,
            "tick_period": params.config.tick_period,
        },
        "norm": {
            "mean_s": params.stats.mean_s.tolist(),
            "std_s": params.stats.std_s.tolist(),
            "mean_u": params.stats.mean_u.tolist(),
            "std_u": params.stats.std_u.tolist(),
        },
        "dense_in": [_dense_to_dict(l) for l in params.dense_in],
        "lstm": [_lstm_to_dict(params.lstm1), _lstm_to_dict(params.lstm2)],
        "dense_out": [_dense_to_dict(l) for l in params.dense_out],
        "pb": {
            "labels": list(params.pb_labels),
            "vectors": params.pb_table.tolist(),
        },
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def _finite(value, field):
    """value as a float64 array; a NaN or infinity raises ValueError naming the field.

    json.load accepts NaN and Infinity, and one of them in a weight would
    turn every prediction of the loaded model non-finite.
    """
    array = np.asarray(value, dtype=np.float64)
    if not np.isfinite(array).all():
        raise ValueError(f"model field {field} holds a non-finite value")
    return array


def _finite_layers(doc, key, names):
    return [[_finite(d[name], f"{key}[{i}].{name}") for name in names]
            for i, d in enumerate(doc[key])]


def load_model(path):
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("kind") != "spnpb-model":
        raise ValueError(f"{path} is not a model file")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {version!r}")
    cfg = ModelConfig(
        n_s=doc["config"]["n_s"],
        n_u=doc["config"]["n_u"],
        n_p=doc["config"]["n_p"],
        tick_period=doc["config"]["tick_period"],
    )
    stats = NormStats(*(_finite(doc["norm"][name], f"norm.{name}")
                        for name in ("mean_s", "std_s", "mean_u", "std_u")))
    dense_in = [DenseLayer(*d) for d in _finite_layers(doc, "dense_in", ("w", "b"))]
    lstm1, lstm2 = (LstmCell(*d) for d in _finite_layers(doc, "lstm", ("wx", "wh", "b")))
    dense_out = [DenseLayer(*d) for d in _finite_layers(doc, "dense_out", ("w", "b"))]
    pb = doc.get("pb", {})
    vectors = _finite(pb.get("vectors", []), "pb.vectors")
    if vectors.size == 0:
        vectors = np.zeros((0, cfg.n_p))
    return ModelParams(
        cfg, dense_in, lstm1, lstm2, dense_out, stats,
        pb_table=vectors, pb_labels=pb.get("labels", []),
    )

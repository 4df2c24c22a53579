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

The model has one numpy forward loop.  rollout_batch runs it for K
closed-loop candidate plans, forward for one step of the live state, and
rollout_vjp keeps its activations for a hand-written reverse that gives
the control gradient.  The teacher-forced NLL of training and adaptation
(training.batch_nll) has its own forward and reverse over the same
layer helpers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .autodiff import ShapeError
from .layers import (
    DenseLayer,
    LstmCell,
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
        if self.tick_period <= 0:
            raise ValueError("tick_period must be positive")

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


def _run(params, state, s_t, u_batch, p, keep=False):
    """The model's one forward loop: K closed-loop rows from one shared state.

    u_batch is (K, n_seq, n_u); each row starts from state, s_t and p,
    and each step's predicted mean is the next step's state input.
    Returns (means, variances, (h1, c1, h2, c2), steps): the recurrent
    state after the last step, each part (K, H), and, when keep is set,
    the activations _reverse needs per step (else None).
    """
    u_batch = np.asarray(u_batch, dtype=np.float64)
    cfg = params.config
    if u_batch.ndim != 3 or u_batch.shape[1] < 1 or u_batch.shape[2] != cfg.n_u:
        raise ShapeError(f"command batch must have shape (K, n_seq, {cfg.n_u}), "
                         f"got {u_batch.shape}")
    _check_step_inputs(params, state, s_t, u_batch[0, 0], p)
    K, n_seq, _ = u_batch.shape
    n_s = cfg.n_s

    def rows(v):
        return np.tile(np.asarray(v, dtype=np.float64), (K, 1))

    # the LSTM helpers take the K rows as columns
    h1, c1, h2, c2 = (rows(v).T for v in (state.h1, state.c1, state.h2, state.c2))
    s, p_rows = rows(s_t), rows(p)
    w1, w2 = lstm_step_weights(params.lstm1), lstm_step_weights(params.lstm2)
    means = np.empty((K, n_seq, n_s))
    logvars = np.empty((K, n_seq, n_s))
    steps = [] if keep else None
    for t in range(n_seq):
        x = np.concatenate((u_batch[:, t], s, p_rows), axis=1)
        dense_in = []
        for layer in params.dense_in:
            x = np.tanh(x @ layer.W.T + layer.b)
            dense_in.append(x)
        c1_prev, c2_prev = c1, c2
        h1, c1, act1, tc1 = _lstm_step(w1, x.T, h1, c1)
        h2, c2, act2, tc2 = _lstm_step(w2, h1, h2, c2)
        x = h2.T
        dense_out = []
        for layer in params.dense_out[:-1]:
            x = np.tanh(x @ layer.W.T + layer.b)
            dense_out.append(x)
        last = params.dense_out[-1]
        out = x @ last.W.T + last.b
        means[:, t] = out[:, :n_s]
        s = means[:, t]
        logvars[:, t] = np.clip(out[:, n_s:], LOGVAR_MIN, LOGVAR_MAX)
        if keep:
            kept = (out[:, n_s:] >= LOGVAR_MIN) & (out[:, n_s:] <= LOGVAR_MAX)
            steps.append((dense_in, ((act1, c1_prev, tc1), (act2, c2_prev, tc2)),
                          dense_out, kept))
    return means, np.exp(logvars), (h1.T, c1.T, h2.T, c2.T), steps


def _lstm_step(weights, x, h_prev, c_prev):
    """lstm_step on fresh (·, K) columns; returns (h, c, gate activations, tanh(c))."""
    wx, wh, b = weights
    z = wx @ x
    z += b
    h, c, tc = np.empty((3,) + h_prev.shape)
    lstm_step(z, h_prev, c_prev, wh, h, c, tc)
    return h, c, z, tc


def _reverse(params, steps, variances, d_means, d_variances):
    """Backpropagation through time over _run's kept activations.

    Carries d loss/d means and d loss/d variances, each (K, n_seq, n_s),
    back to d loss/d u (K, n_seq, n_u).  Every step runs the last dense
    layer, the logvar clamp (clamped entries pass no gradient), the
    output tanh stack, LSTM2, LSTM1 and the input tanh stack in reverse.
    A step's gradient at its state input joins the previous step's
    d_mean, since that mean was fed back as the state.
    """
    cfg = params.config
    n_s, n_u = cfg.n_s, cfg.n_u
    K, n_seq, _ = variances.shape
    cells = (params.lstm1, params.lstm2)
    carries = [(np.zeros((c.hidden, K)), np.zeros((c.hidden, K))) for c in cells]
    d_u = np.empty((K, n_seq, n_u))
    d_s = np.zeros((K, n_s))
    for t in range(n_seq - 1, -1, -1):
        dense_in, lstms, dense_out, kept = steps[t]
        d_logvar = d_variances[:, t] * variances[:, t] * kept
        g = np.concatenate((d_means[:, t] + d_s, d_logvar), axis=1) @ params.dense_out[-1].W
        for layer, y in zip(params.dense_out[-2::-1], dense_out[::-1]):
            g = (g * (1.0 - y * y)) @ layer.W
        g = g.T  # columns, as the LSTM helpers take them
        for k in (1, 0):
            cell, (act, c_prev, tc), (dh, dc) = cells[k], lstms[k], carries[k]
            H = cell.hidden
            fac, dz = np.empty((2, 4 * H, K))
            dc_dh = np.empty((H, K))
            lstm_gate_factors(act, c_prev, tc, fac, dc_dh)
            dh = g + dh
            lstm_step_back(dh, dc, fac, dc_dh, act[H:2 * H], cell.Wh, dz)
            carries[k] = (dh, dc)
            g = cell.Wx.T @ dz
        g = g.T
        for layer, y in zip(params.dense_in[::-1], dense_in[::-1]):
            g = (g * (1.0 - y * y)) @ layer.W
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
    as the next state.  Returns (means, variances), each (K, n_seq, n_s).
    """
    means, variances, _, _ = _run(params, state, s_t, u_batch, p)
    return means, variances


def rollout_vjp(params, state, s_t, u_batch, p):
    """rollout_batch plus its reverse pass.

    Returns (means, variances, vjp), where vjp(d_means, d_variances)
    maps gradients of a loss with respect to the (K, n_seq, n_s) means
    and variances to its gradient with respect to u_batch (K, n_seq, n_u).
    """
    means, variances, _, steps = _run(params, state, s_t, u_batch, p, keep=True)

    def vjp(d_means, d_variances):
        return _reverse(params, steps, variances, np.asarray(d_means, dtype=np.float64),
                        np.asarray(d_variances, dtype=np.float64))

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
    stats = NormStats(
        doc["norm"]["mean_s"], doc["norm"]["std_s"],
        doc["norm"]["mean_u"], doc["norm"]["std_u"],
    )
    dense_in = [DenseLayer(d["w"], d["b"]) for d in doc["dense_in"]]
    lstm1, lstm2 = (LstmCell(d["wx"], d["wh"], d["b"]) for d in doc["lstm"])
    dense_out = [DenseLayer(d["w"], d["b"]) for d in doc["dense_out"]]
    pb = doc.get("pb", {})
    vectors = np.asarray(pb.get("vectors", []), dtype=np.float64)
    if vectors.size == 0:
        vectors = np.zeros((0, cfg.n_p))
    return ModelParams(
        cfg, dense_in, lstm1, lstm2, dense_out, stats,
        pb_table=vectors, pb_labels=pb.get("labels", []),
    )

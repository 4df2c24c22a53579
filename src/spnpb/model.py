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

The model has one numpy forward loop, the closed loop: rollout_batch
runs it for K candidate plans, forward for one step of the live state,
and rollout_vjp hands back, with the K rollouts, a hand-written reverse
that gives the control gradient of all rows or of any one row.  The loop
keeps the K rows in columns from end to end.  Each step is one column
block of all its activations, each group of which ends in a constant
ones row (_StepLayout), so every layer of a step is one np.dot of its
weights with the bias folded in as a last column, [W | b], and an LSTM
step is one np.dot of [Wx | Wh | b] over [x; h_prev; 1] plus the gate
core.  FoldedWeights folds the weights once per call: a control tick
shares one fold between its live forward and optimize's forwards and
reverses.  The reverse takes every factor that does not depend on the
gradient flowing back (the tanh derivatives of all dense layers in one
pass over the step blocks, the LSTM gate factors, the logvar clamp mask)
over the whole horizon at once; its step loop keeps only the serial
chain.  Each loop runs in a workspace (RolloutWorkspace,
ReverseWorkspace) that holds its buffers and builds every step's views
once, and spells the LSTM step (layers.lstm_step, lstm_step_back) out
inline, so a step makes no call, slice or temporary beyond its
arithmetic.  Each RolloutWorkspace keeps the ReverseWorkspace of its
rows, and a caller that runs the same shapes tick after tick keeps its
RolloutWorkspaces (control.ControlWorkspace, the episode runners' live
forward); every other call gets fresh ones.  Workspaces keep buffers
only: weights change in place, so no fold is ever kept.  The
teacher-forced NLL of training and adaptation (training.batch_nll) has
its own forward and reverse over the same gate arithmetic.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .autodiff import ShapeError
from .layers import DenseLayer, LstmCell, lstm_fold, lstm_gate_factors

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


class _StepLayout:
    """Row slices of one step block of the closed loop, whose K rows are columns.

    A step block stacks every activation of one step, in groups that
    each end in a constant ones row:

        [u; p; s; logvar; 1]        the step's input
        [y; 1] x 3                  the first three tanh layers
        [x; h1_prev; 1]             LSTM1's input; x is the fourth tanh layer
        [h1; h2_prev; 1]            LSTM2's input
        [y; 1] x 3                  the output stack's tanh layers

    so every layer of a step is one np.dot of its folded [W | b] over the
    group below it.  LSTM1 writes h1 straight into the next step's
    block, and a copy into its own step's LSTM2 group; LSTM2 writes h2
    straight into the next step's block, where [h2; 1] is also this
    step's output stack input.  The last layer writes the mean and the
    raw logvar straight into the next step's input, whose logvar rows get
    zero weight.
    """

    def __init__(self, cfg):
        n_u, n_s, n_p = cfg.n_u, cfg.n_s, cfg.n_p
        w = cfg.layer_widths
        self.H = w[4]  # both LSTMs' width: _HIDDEN_WIDTHS gives them the same
        groups, top = [], 0
        for width in (n_u + n_p + 2 * n_s, w[0], w[1], w[2], w[3] + w[4], w[4] + w[5],
                      w[6], w[7], w[8]):
            groups.append(slice(top, top + width + 1))
            top += width + 1
        self.rows = top
        self.ones = np.array([g.stop - 1 for g in groups])
        g_in, d0, d1, d2, self.l1, self.l2, o0, o1, o2 = groups
        self.u, self.p = slice(0, n_u), slice(n_u, n_u + n_p)
        self.s = slice(n_u + n_p, n_u + n_p + n_s)
        self.lv = slice(self.s.stop, self.s.stop + n_s)
        self.out = slice(self.s.start, self.lv.stop)  # where the last layer writes
        self.x = slice(self.l1.start, self.l1.start + w[3])
        self.h1_prev = slice(self.x.stop, self.l1.stop - 1)
        self.h1 = slice(self.l2.start, self.l2.start + w[4])
        self.h2_prev = slice(self.h1.stop, self.l2.stop - 1)
        # what each tanh layer reads and writes; the first output layer reads
        # [h2; 1] from the next block, the rest their own block
        self.reads = [g_in, d0, d1, d2, slice(self.h2_prev.start, self.l2.stop), o0, o1]
        self.writes = [slice(g.start, g.stop - 1) for g in (d0, d1, d2)] + [self.x] + \
            [slice(g.start, g.stop - 1) for g in (o0, o1, o2)]
        self.last = o2


_step_layout = functools.cache(_StepLayout)  # the layout depends on the widths alone


class FoldedWeights:
    """params' weights as the closed loop multiplies them: each layer's bias folded in.

    dense holds each dense layer's [W | b], the first layer's columns in
    the step input's [u; p; s; logvar] order with zeros for logvar;
    lstms holds each LSTM's [Wx | Wh | b], sigmoid rows halved
    (layers.lstm_fold).  The reverse's unhalved products are folded on
    first use.  Weights change in place (train, check_gradient_integrity),
    so a fold serves one call and is never kept: a control tick folds once
    for its live forward and all of optimize's forwards and reverses, an
    adaptation episode once for all its live forwards.
    """

    def __init__(self, params):
        cfg = params.config
        n_u, n_s = cfg.n_u, cfg.n_s
        first = params.dense_in[0]
        w = first.W
        self.params = params
        self.config = cfg
        self.layout = _step_layout(cfg)
        self.w_ups = np.concatenate((w[:, :n_u], w[:, n_u + n_s:], w[:, n_u:n_u + n_s]), axis=1)
        self.dense = [np.concatenate((self.w_ups, np.zeros((len(w), n_s)), first.b[:, None]),
                                     axis=1)]
        self.dense += [np.concatenate((layer.W, layer.b[:, None]), axis=1)
                       for layer in params.dense_in[1:] + params.dense_out]
        self.lstms = [lstm_fold(params.lstm1), lstm_fold(params.lstm2)]

    @functools.cached_property
    def transposes(self):
        """The reverse's products, by the activation each one reaches.

        (dense_in, to_h1, to_h2, to_x, dense_out, last): the input
        stack's W.T (the first layer's for [u; p; s]); [Wx2 | Wh1].T,
        which takes [dz2 of a step; dz1 of the next step] to the
        gradient of the step's h1; [W_o0 | Wh2].T, which takes [the first
        output layer's pre-activation gradient; dz2 of the next step] to
        that of h2; LSTM1's Wx.T; the second and third output layers'
        W.T; and the last layer's.
        """
        p = self.params
        o0, o1, o2, last = p.dense_out
        return ([self.w_ups.T] + [layer.W.T for layer in p.dense_in[1:]],
                np.concatenate((p.lstm2.Wx.T, p.lstm1.Wh.T), axis=1),
                np.concatenate((o0.W.T, p.lstm2.Wh.T), axis=1),
                p.lstm1.Wx.T, [o1.W.T, o2.W.T], last.W.T)


def _check_step_inputs(cfg, H, state, s, u, p):
    if np.shape(s) != (cfg.n_s,):
        raise ShapeError(f"state input must have shape ({cfg.n_s},)")
    if np.shape(u) != (cfg.n_u,):
        raise ShapeError(f"command input must have shape ({cfg.n_u},)")
    if np.shape(p) != (cfg.n_p,):
        raise ShapeError(f"bias input must have shape ({cfg.n_p},)")
    for part in (state.h1, state.c1, state.h2, state.c2):
        if np.shape(part) != (H,):
            raise ShapeError("recurrent state vectors must match the LSTM hidden size")


class RolloutWorkspace:
    """What _run keeps of K rows over n_seq steps, as (., K) columns.

    ys holds the step blocks of _StepLayout, with one block more than the
    run for the last step's outputs.  Both LSTMs are H wide, so their
    gate activations zs, cells cs (one step more than the run) and
    tanh(c) tcs stack on axis 1.  logvars holds the clamped logvars.  The
    constant rows (every group's ones, the first block's logvar input) are
    written here once and no run writes them again, and every view a step
    reads or writes is built here once, in steps.  A run replaces the
    workspace's activations and bumps generation, so a reverse that reads
    them can tell when a later run has overwritten them.  reverse(R),
    built on first use, is the ReverseWorkspace that R rows reverse in.
    Without a workspace, _run makes a fresh one; the Controller keeps one
    per shape.
    """

    def __init__(self, config, n_seq, K):
        lay = _step_layout(config)
        H = lay.H
        self.config, self.shape = config, (n_seq, K)
        self.generation = 0
        self._reverses = {}
        self.ys = ys = np.empty((n_seq + 1, lay.rows, K))
        self.zs = zs = np.empty((n_seq, 2, 4 * H, K))
        self.cs = cs = np.empty((n_seq + 1, 2, H, K))
        self.tcs = tcs = np.empty((n_seq, 2, H, K))
        self.logvars = np.empty((n_seq, lay.lv.stop - lay.lv.start, K))
        ys[:, lay.ones] = 1.0
        ys[0, lay.lv] = 0.0  # zero weight, but a NaN left in an empty buffer would still pass
        y, nxt = ys[:-1], ys[1:]
        (r0, r1, r2, r3, ro0, ro1, ro2), (v0, v1, v2, v3, vo0, vo1, vo2) = lay.reads, lay.writes
        gates = zs.reshape(n_seq, 2, 4, H, K)
        # each LSTM's pre-activation, as one block and as gate blocks, its
        # sigmoid block, i, f, o, g, c_prev, c and tanh(c)
        lstms = [(zs[:, k], gates[:, k], gates[:, k, :3], *gates[:, k].swapaxes(0, 1),
                  cs[:-1, k], cs[1:, k], tcs[:, k]) for k in (0, 1)]
        # per step: each tanh layer's input and output, LSTM1's input group,
        # where its h goes and its copy, LSTM2's input group and where its h
        # goes, and the last layer's input and output, then both LSTMs' views
        self.steps = list(zip(
            y[:, r0], y[:, v0], y[:, r1], y[:, v1], y[:, r2], y[:, v2], y[:, r3], y[:, v3],
            y[:, lay.l1], nxt[:, lay.h1_prev], y[:, lay.h1], y[:, lay.l2], nxt[:, lay.h2_prev],
            nxt[:, ro0], y[:, vo0], y[:, ro1], y[:, vo1], y[:, ro2], y[:, vo2],
            y[:, lay.last], nxt[:, lay.out], *lstms[0], *lstms[1]))
        self.means = nxt[:, lay.s].transpose(2, 0, 1)
        self.raw_logvars = nxt[:, lay.lv]
        last = ys[n_seq]
        self.final = (last[lay.h1_prev].T, cs[n_seq, 0].T, last[lay.h2_prev].T, cs[n_seq, 1].T)

    def reverse(self, R):
        if R not in self._reverses:
            self._reverses[R] = ReverseWorkspace(self.config, self.shape[0], R)
        return self._reverses[R]


def _run(weights, state, s_t, u_batch, p, workspace=None):
    """The model's one forward loop: K closed-loop rows from one shared state.

    u_batch is (K, n_seq, n_u); each row starts from state, s_t and p,
    and each step's predicted mean is the next step's state input.  The
    run writes its activations into workspace, a RolloutWorkspace for
    (n_seq, K), or into a fresh one.  Returns (means, variances, (h1, c1,
    h2, c2), workspace): means and variances new C-contiguous (K, n_seq,
    n_s) arrays, the recurrent state after the last step, each part
    (K, H) and a view into the workspace, and the workspace, whose
    activations _reverse reads.
    """
    u_batch = np.asarray(u_batch, dtype=np.float64)
    cfg, lay = weights.config, weights.layout
    if u_batch.ndim != 3 or u_batch.shape[1] < 1 or u_batch.shape[2] != cfg.n_u:
        raise ShapeError(f"command batch must have shape (K, n_seq, {cfg.n_u}), "
                         f"got {u_batch.shape}")
    _check_step_inputs(cfg, lay.H, state, s_t, u_batch[0, 0], p)
    K, n_seq, _ = u_batch.shape
    ws = RolloutWorkspace(cfg, n_seq, K) if workspace is None else workspace
    if (ws.config, ws.shape) != (cfg, (n_seq, K)):
        raise ShapeError(f"workspace for (n_seq, K) {ws.shape} and {ws.config} "
                         f"cannot hold {(n_seq, K)} and {cfg}")
    ws.generation += 1
    ys, cs = ws.ys, ws.cs
    ys[:-1, lay.u] = u_batch.transpose(1, 2, 0)
    ys[:, lay.p] = np.asarray(p, dtype=np.float64)[:, None]
    ys[0, lay.s] = np.asarray(s_t, dtype=np.float64)[:, None]
    ys[0, lay.h1_prev] = np.asarray(state.h1)[:, None]
    ys[0, lay.h2_prev] = np.asarray(state.h2)[:, None]
    cs[0, 0] = np.asarray(state.c1)[:, None]
    cs[0, 1] = np.asarray(state.c2)[:, None]
    (w0, w1, w2, w3, wo0, wo1, wo2, wl), (wlstm1, wlstm2) = weights.dense, weights.lstms
    dot, tanh, multiply, add = np.dot, np.tanh, np.multiply, np.add
    # each LSTM step makes lstm_step's ufunc calls, in the same order
    for (x0, y0, x1, y1, x2, y2, x3, y3, l1, h1_next, h1, l2, h2_next, xo0, yo0, xo1, yo1,
         xo2, yo2, x_last, out_next,
         z1, a1, sig1, i1, f1, o1, g1, c1, c1_next, tc1,
         z2, a2, sig2, i2, f2, o2, g2, c2, c2_next, tc2) in ws.steps:
        tanh(dot(w0, x0, out=y0), out=y0)
        tanh(dot(w1, x1, out=y1), out=y1)
        tanh(dot(w2, x2, out=y2), out=y2)
        tanh(dot(w3, x3, out=y3), out=y3)
        dot(wlstm1, l1, out=z1)
        tanh(a1, out=a1)
        multiply(sig1, 0.5, out=sig1)
        add(sig1, 0.5, out=sig1)
        multiply(f1, c1, out=c1_next)
        multiply(i1, g1, out=tc1)
        add(c1_next, tc1, out=c1_next)
        tanh(c1_next, out=tc1)
        multiply(o1, tc1, out=h1_next)
        h1[...] = h1_next
        dot(wlstm2, l2, out=z2)
        tanh(a2, out=a2)
        multiply(sig2, 0.5, out=sig2)
        add(sig2, 0.5, out=sig2)
        multiply(f2, c2, out=c2_next)
        multiply(i2, g2, out=tc2)
        add(c2_next, tc2, out=c2_next)
        tanh(c2_next, out=tc2)
        multiply(o2, tc2, out=h2_next)
        tanh(dot(wo0, xo0, out=yo0), out=yo0)
        tanh(dot(wo1, xo1, out=yo1), out=yo1)
        tanh(dot(wo2, xo2, out=yo2), out=yo2)
        dot(wl, x_last, out=out_next)
    # copies in (K, n_seq, n_s) order: control_loss sums each row in memory order
    means = ws.means.copy()
    np.minimum(ws.raw_logvars, LOGVAR_MAX, out=ws.logvars)
    np.maximum(ws.logvars, LOGVAR_MIN, out=ws.logvars)
    variances = np.exp(ws.logvars).transpose(2, 0, 1).copy()
    return means, variances, ws.final, ws


class ReverseWorkspace:
    """Every buffer of _reverse for R rows over n_seq steps, and each step's views.

    A reverse copies its rows' activations in (as the gate-major gates,
    the previous cells and tanh(c)), so it works on these buffers alone
    and leaves nothing that a later reverse reads.  d_in's last block is
    the zero gradient that reaches the last step's mean from beyond the
    horizon; no reverse writes it.  The RolloutWorkspace whose rows it
    reverses builds and keeps it (RolloutWorkspace.reverse).
    """

    def __init__(self, config, n_seq, R):
        lay = _step_layout(config)
        H, n_s, w = lay.H, config.n_s, config.layer_widths
        self.config, self.shape = config, (n_seq, R)
        self.dys = np.empty((n_seq, lay.rows, R))
        self.d_out = d_out = np.empty((n_seq, 2 * n_s, R))
        self.d_var = np.empty((R, n_seq, n_s))
        self.kept = np.empty((n_seq, n_s, R), dtype=bool)
        # gate-major, so that each gate of all steps is one contiguous row of
        # lstm_gate_factors
        self.gates = gates = np.empty((4, n_seq, 2, H, R))
        self.c_prev = np.empty((n_seq, 2, H, R))
        self.tcs = np.empty((n_seq, 2, H, R))
        self.fac_gates = np.empty_like(gates)
        self.dc_dh = dc_dh = np.empty((n_seq, 2, H, R))
        self.fac = fac = np.empty((n_seq, 2, 4, H, R))  # each step's (4, H, R) gate blocks
        self.dc = np.empty((2, H, R))
        self.dc_in = np.empty((H, R))  # a step's dh * dc_dh
        # [the first output layer's pre-activation gradient; dz2; dz1], zero
        # before the last step: to_h2 reads its first two parts before dz2
        # moves a step back, to_h1 its last two before dz1 does
        n_o0 = w[6]
        self.stack = stack = np.empty((n_o0 + 8 * H, R))
        self.reach_h2, self.reach_h1 = stack[:n_o0 + 4 * H], stack[n_o0:]
        self.g_o0, self.dz1 = stack[:n_o0], stack[n_o0 + 4 * H:]
        dz2_gates, dz1_gates = (dz.reshape(4, H, R) for dz in (stack[n_o0:n_o0 + 4 * H],
                                                             self.dz1))
        self.dz_gates = (dz2_gates, dz2_gates[2], dz1_gates, dz1_gates[2])
        # the gradients reaching each layer's output, last layer first
        self.g = tuple(np.empty((n, R)) for n in (w[8], w[7], H, H, w[3], w[2], w[1], w[0]))
        self.d_in = d_in = np.empty((n_seq + 1, config.n_u + config.n_p + n_s, R))
        d_in[n_seq] = 0.0
        dys = self.dys
        # per step, last first: d_mean, the fed-back d_s, the last layer's
        # output gradient, each tanh layer's derivative, each LSTM's gate
        # factors with their output-gate block, dc_dh and forget gate, and
        # the gradient of the step's [u; p; s]
        self.steps = list(zip(
            d_out[::-1, :n_s], d_in[:0:-1, lay.s], d_out[::-1],
            *(dys[::-1, v] for v in lay.writes),
            fac[::-1, 0], fac[::-1, 0, 2], fac[::-1, 1], fac[::-1, 1, 2],
            dc_dh[::-1, 0], dc_dh[::-1, 1], gates[1, ::-1, 0], gates[1, ::-1, 1],
            d_in[n_seq - 1::-1]))


def _reverse(weights, acts, variances, d_means, d_variances, rows):
    """Backpropagation through time over rows of _run's activations.

    Carries d loss/d means and d loss/d variances, each (R, n_seq, n_s)
    for the R rows that the slice rows picks of the RolloutWorkspace
    acts, back to d loss/d u (R, n_seq, n_u), a new array.  Every factor
    that does not depend on the gradient flowing back is taken for the
    whole horizon at once: the tanh derivatives of every dense layer in
    one pass over the step blocks, the logvar clamp (a clamped entry
    passes no gradient) and both LSTMs' gate factors.  The step loop
    keeps only the serial chain, with one product per activation reached:
    h2 feeds the output stack and LSTM2's next step, h1 LSTM2's step and
    LSTM1's next one, and each gets its gradient from one product over
    the two gate gradients stacked.  A step's gradient at its state input
    joins the previous step's d_mean, since that mean was fed back as the
    state.  It works in acts.reverse(R).
    """
    lay = weights.layout
    dense_in_t, to_h1, to_h2, to_x, (wo1_t, wo2_t), last_t = weights.transposes
    n_s, H = weights.config.n_s, lay.H
    R, n_seq, _ = d_means.shape
    ws = acts.reverse(R)
    ys = acts.ys[..., rows]
    np.multiply(ys[:-1], ys[:-1], out=ws.dys)
    np.subtract(1.0, ws.dys, out=ws.dys)
    # each step's gradient at the last layer's output: d_mean (the fed-back
    # d_s joins it in the loop) over the clamp-masked d_logvar
    d_out = ws.d_out
    d_out[:, :n_s] = d_means.transpose(1, 2, 0)
    np.equal(acts.logvars[..., rows], ys[1:, lay.lv], out=ws.kept)
    np.multiply(d_variances, variances[rows], out=ws.d_var)
    np.multiply(ws.d_var.transpose(1, 2, 0), ws.kept, out=d_out[:, n_s:])
    np.copyto(ws.gates, acts.zs[..., rows].reshape(n_seq, 2, 4, H, R).transpose(2, 0, 1, 3, 4))
    np.copyto(ws.c_prev, acts.cs[:-1, ..., rows])
    np.copyto(ws.tcs, acts.tcs[..., rows])
    lstm_gate_factors(ws.gates.reshape(4, -1), ws.c_prev.reshape(1, -1),
                      ws.tcs.reshape(1, -1), ws.fac_gates.reshape(4, -1),
                      ws.dc_dh.reshape(1, -1))
    np.copyto(ws.fac, ws.fac_gates.transpose(1, 2, 0, 3, 4))
    ws.dc.fill(0.0)
    ws.stack.fill(0.0)
    dc1, dc2 = ws.dc
    dc_in, g_o0, dz1, reach_h2, reach_h1 = ws.dc_in, ws.g_o0, ws.dz1, ws.reach_h2, ws.reach_h1
    dz2_gates, dz2_o, dz1_gates, dz1_o = ws.dz_gates
    g_o2, g_o1, dh2, dh1, g_x, g2, g1, g0 = ws.g
    w0_t, w1_t, w2_t, w3_t = dense_in_t
    dot, add, multiply = np.dot, np.add, np.multiply
    # each LSTM step makes lstm_step_back's ufunc calls, in the same order
    for (d_mean, d_s, d, dy0, dy1, dy2, dy3, dyo0, dyo1, dyo2, fac1, fac1_o, fac2, fac2_o,
         dc_dh1, dc_dh2, f1, f2, d_ups) in ws.steps:
        add(d_mean, d_s, out=d_mean)
        dot(last_t, d, out=g_o2)
        multiply(g_o2, dyo2, out=g_o2)
        dot(wo2_t, g_o2, out=g_o1)
        multiply(g_o1, dyo1, out=g_o1)
        dot(wo1_t, g_o1, out=g_o0)
        multiply(g_o0, dyo0, out=g_o0)
        dot(to_h2, reach_h2, out=dh2)
        multiply(dh2, dc_dh2, out=dc_in)
        add(dc2, dc_in, out=dc2)
        multiply(fac2, dc2, out=dz2_gates)
        multiply(dh2, fac2_o, out=dz2_o)
        multiply(dc2, f2, out=dc2)
        dot(to_h1, reach_h1, out=dh1)
        multiply(dh1, dc_dh1, out=dc_in)
        add(dc1, dc_in, out=dc1)
        multiply(fac1, dc1, out=dz1_gates)
        multiply(dh1, fac1_o, out=dz1_o)
        multiply(dc1, f1, out=dc1)
        dot(to_x, dz1, out=g_x)
        multiply(g_x, dy3, out=g_x)
        dot(w3_t, g_x, out=g2)
        multiply(g2, dy2, out=g2)
        dot(w2_t, g2, out=g1)
        multiply(g1, dy1, out=g1)
        dot(w1_t, g1, out=g0)
        multiply(g0, dy0, out=g0)
        dot(w0_t, g0, out=d_ups)
    return ws.d_in[:n_seq, lay.u].transpose(2, 0, 1).copy()


def forward(params, state, s, u, p, weights=None, workspace=None):
    """One prediction step from normalized inputs.

    Returns (GaussianPrediction, advanced RecurrentState); the input state
    is not mutated, and the returned state owns its vectors, so keeping it
    does not keep the call's activations alive.  This is the one-row,
    one-step case of the forward loop that rollout_batch runs.  weights is
    FoldedWeights(params) from a caller that makes several calls on
    unchanged weights, as in rollout_vjp; without it the call folds its
    own.  workspace is a RolloutWorkspace(params.config, 1, 1) that a
    caller stepping a live state keeps; without it the call makes its own.
    """
    if weights is None:
        weights = FoldedWeights(params)
    means, variances, (h1, c1, h2, c2), _ = _run(
        weights, state, s, np.asarray(u, dtype=np.float64)[None, None], p, workspace)
    return (GaussianPrediction(mean=means[0, 0], variance=variances[0, 0]),
            RecurrentState(h1[0].copy(), c1[0].copy(), h2[0].copy(), c2[0].copy()))


def rollout_batch(params, state, s_t, u_batch, p):
    """Closed-loop rollouts of K command sequences from one shared state.

    u_batch is (K, n_seq, n_u); every sequence starts from the same
    recurrent state, s_t, and bias p, and feeds each predicted mean back
    as the next state.  Returns (means, variances), each C-contiguous
    (K, n_seq, n_s).
    """
    means, variances, _, _ = _run(FoldedWeights(params), state, s_t, u_batch, p)
    return means, variances


def rollout_vjp(params, state, s_t, u_batch, p, weights=None, workspace=None):
    """rollout_batch plus its reverse pass, for any row of the batch.

    Returns (means, variances, vjp).  vjp(d_means, d_variances) maps
    gradients of a loss with respect to all K rows of means and
    variances, each (K, n_seq, n_s), to its gradient with respect to
    u_batch (K, n_seq, n_u).  vjp(d_means, d_variances, row=k) takes one
    row's (n_seq, n_s) gradients and reverses that row alone, giving
    (n_seq, n_u).  The forward's activations are kept, so the reverse
    can run any number of times.  weights is FoldedWeights(params) from a
    caller that makes several calls on unchanged weights; without it the
    call folds its own.  workspace is a RolloutWorkspace for (n_seq, K)
    that keeps the activations and the ReverseWorkspace that vjp works
    in; once a later run has reused it, vjp raises RuntimeError instead of
    reading another run's activations.
    """
    if weights is None:
        weights = FoldedWeights(params)
    means, variances, _, acts = _run(weights, state, s_t, u_batch, p, workspace)
    generation = acts.generation

    def vjp(d_means, d_variances, row=None):
        if acts.generation != generation:
            raise RuntimeError("the rollout's workspace was run again since, "
                               "so its activations are gone")
        d_means, d_variances = (np.asarray(g, dtype=np.float64) for g in (d_means, d_variances))
        want = means.shape if row is None else means.shape[1:]
        if d_means.shape != want or d_variances.shape != want:
            raise ShapeError(f"vjp takes gradients of shape {want}, "
                             f"got {d_means.shape} and {d_variances.shape}")
        if row is None:
            return _reverse(weights, acts, variances, d_means, d_variances, slice(None))
        row = range(len(means))[row]
        return _reverse(weights, acts, variances, d_means[None], d_variances[None],
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

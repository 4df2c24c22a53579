"""Receding-horizon command optimization with a variance penalty.

Each tick the controller warm-starts from the previous plan (dropped
first command, duplicated last), rolls the model out closed-loop over the
horizon, and improves the command sequence by a batched line search: one
gradient of the loss per round, a log-spaced ladder of step sizes tried
as candidates, best candidate kept.  The previous iterate always competes
too, so the returned loss can never exceed the warm-start loss; a round
that keeps it ends the search.

The warm start, and then all n_batch step sizes of each round together,
are scored by one batched rollout_vjp call, which keeps the activations
of every candidate.  A round's gradient is taken at the incumbent, which
is always a row of the stack scored last: the closed-form gradient of
the loss (control_loss_grad) is carried back through that row alone by
the model's hand-written reverse pass, with no forward of its own.  A
default tick (3 rounds of 10 step sizes) thus runs at most 4 batched
forwards and 3 one-row reverses, plus the one-step forward that advances
the live state.  Controller.step folds the model's weights once a tick
(model.FoldedWeights) for the live forward and all of optimize's
forwards and reverses.  Nothing folded outlives the tick, since weights
change in place.  What the Controller does keep from tick to tick is its
ControlWorkspace: one model workspace, with every step's views and the
buffers of its one-row reverse, for each shape a tick runs, so a tick
allocates no activations.

The loss is
    ||s_ref - s_pred||_2  +  c_variance * V  +  c_orig * ||u_orig - u||_2
over the flattened horizon, where V is either the plain norm of the
predicted variances or, in per-state mode, of the variances divided
elementwise by |s_pred| + eps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    FoldedWeights, RecurrentState, RolloutWorkspace, forward, rollout_vjp)

# Guard of the L2-norm gradients: a zero-length residual gets gradient 0.
NORM_FLOOR = 1e-12

VARIANCE_MODES = ("absolute", "per_state")


class ControllerError(RuntimeError):
    """Optimization could not produce a usable plan."""


@dataclass(frozen=True)
class ControlConfig:
    n_seq: int = 10
    n_batch: int = 10
    n_epoch: int = 3
    gamma_max: float = 3.0
    c_variance: float = 0.0
    c_orig: float = 0.0
    variance_mode: str = "absolute"
    command_low: float = -3.0   # raw units
    command_high: float = 3.0
    per_state_eps: float = 0.1

    def __post_init__(self):
        if self.n_seq < 1 or self.n_batch < 1 or self.n_epoch < 0:
            raise ValueError("n_seq and n_batch must be >= 1, n_epoch >= 0")
        if not (math.isfinite(self.gamma_max) and self.gamma_max > 0):
            raise ValueError("gamma_max must be finite and positive")
        for name in ("c_variance", "c_orig"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and non-negative, got {value}")
        if not (math.isfinite(self.per_state_eps) and self.per_state_eps > 0):
            raise ValueError("per_state_eps must be finite and positive")
        if self.variance_mode not in VARIANCE_MODES:
            raise ValueError(f"variance_mode must be one of {VARIANCE_MODES}")
        if self.command_low >= self.command_high:
            raise ValueError("command bounds must satisfy low < high")


@dataclass
class ControlPlan:
    """Optimized command sequence (normalized units) and its rollout."""

    u_seq: np.ndarray           # (n_seq, n_u)
    loss: float
    means: np.ndarray           # (n_seq, n_s)
    variances: np.ndarray       # (n_seq, n_s)
    initial_loss: float = None  # warm-start loss the optimizer started from

    @classmethod
    def zeros(cls, n_seq, n_u, n_s):
        return cls(np.zeros((n_seq, n_u)), float("inf"),
                   np.zeros((n_seq, n_s)), np.zeros((n_seq, n_s)))


def warm_start(prev_plan):
    """Shift the previous plan one tick: drop the first command, repeat the last."""
    u = np.asarray(prev_plan.u_seq if isinstance(prev_plan, ControlPlan) else prev_plan)
    return np.vstack([u[1:], u[-1:]])


def gamma_schedule(gamma_max, n_batch):
    """Geometric ladder over three decades ending exactly at gamma_max."""
    if n_batch == 1:
        return np.array([float(gamma_max)])
    i = np.arange(n_batch)
    return gamma_max * 10.0 ** (-3.0 * (n_batch - 1 - i) / (n_batch - 1))


def _norm(x):
    """The L2 norm of each (n_seq, n) plan of x."""
    return np.sqrt(np.add.reduce(x * x, axis=(-2, -1)))


def _unit(x):
    """Each (n_seq, n) plan of x over max(its L2 norm, NORM_FLOOR)."""
    norm = np.sqrt(np.add.reduce(x * x, axis=(-2, -1), keepdims=True))
    return x / np.maximum(norm, NORM_FLOOR)


def control_loss(means, variances, u_seq, s_ref_seq, u_orig_seq, config):
    """Loss of a rolled-out plan; all arguments in normalized units.

    means, variances, and u_seq may carry a leading candidate axis
    (K, n_seq, n); the loss of each candidate is then returned as a (K,)
    array.  s_ref_seq and u_orig_seq are shared by all candidates.
    """
    means = np.asarray(means)
    loss = _norm(np.asarray(s_ref_seq) - means)
    if config.c_variance != 0.0:
        v = np.asarray(variances)
        if config.variance_mode == "per_state":
            v = v / (np.abs(means) + config.per_state_eps)
        loss = loss + config.c_variance * _norm(v)
    if config.c_orig != 0.0:
        loss = loss + config.c_orig * _norm(np.asarray(u_orig_seq) - np.asarray(u_seq))
    return loss


def control_loss_grad(means, variances, u_seq, s_ref_seq, u_orig_seq, config):
    """Closed-form gradient of control_loss: (d_means, d_variances, d_u).

    Takes the same arguments, with or without a leading candidate axis,
    and returns arrays of the shapes of means, variances and u_seq.  Each
    L2 norm's gradient divides by max(norm, NORM_FLOOR).
    """
    means = np.asarray(means, dtype=np.float64)
    variances = np.asarray(variances, dtype=np.float64)
    u_seq = np.asarray(u_seq, dtype=np.float64)
    d_means = -_unit(np.asarray(s_ref_seq) - means)
    if config.c_variance == 0.0:
        d_variances = np.zeros_like(variances)
    elif config.variance_mode == "per_state":
        denom = np.abs(means) + config.per_state_eps
        g = config.c_variance * _unit(variances / denom)
        d_variances = g / denom
        d_means = d_means - g * variances / (denom * denom) * np.sign(means)
    else:
        d_variances = config.c_variance * _unit(variances)
    if config.c_orig != 0.0:
        d_u = -config.c_orig * _unit(np.asarray(u_orig_seq) - u_seq)
    else:
        d_u = np.zeros_like(u_seq)
    return d_means, d_variances, d_u


def row_gradient(means, variances, vjp, row, u_seq, s_ref_seq, u_orig_seq, config):
    """Gradient of control_loss at row `row` of a stack scored by rollout_vjp.

    means, variances and vjp are rollout_vjp's; u_seq (n_seq, n_u) is the
    stack's row.  The loss's closed form (control_loss_grad) is carried
    back through that row's reverse pass alone.
    """
    d_means, d_variances, d_u = control_loss_grad(
        means[row], variances[row], u_seq, s_ref_seq, u_orig_seq, config)
    return vjp(d_means, d_variances, row=row) + d_u


def line_search_minimize(value_fn, grad_fn, u0, gammas, n_epoch, clamp=None):
    """Batched line search: one gradient per round, all step sizes tried.

    value_fn(u_stack) scores a (K, ...) stack of candidates at once and
    returns (losses, aux): K losses, and aux indexable by candidate (or
    None).  grad_fn(u) returns the gradient array at one point.  Each
    round keeps the best of {incumbent} + {clamp(u - gamma * grad)}, so
    the returned loss never exceeds the starting loss.  Non-finite
    candidate losses are skipped, and ties keep the earliest candidate,
    which is the smallest step size on an ascending ladder.  A round that
    keeps its incumbent ends the search, since every later round would
    repeat it exactly; so grad_fn is asked only at a row of the stack
    value_fn scored last.  Returns (u, loss, aux, starting_loss).
    """
    u_cur = np.asarray(u0, dtype=np.float64)
    if clamp is not None:
        u_cur = clamp(u_cur)
    losses, aux = value_fn(u_cur[None])
    loss_cur = float(losses[0])
    if not np.isfinite(loss_cur):
        raise ControllerError(f"starting loss is not finite ({loss_cur})")
    aux_cur = None if aux is None else aux[0]
    initial_loss = loss_cur
    steps = np.asarray(gammas, dtype=np.float64).reshape((-1,) + (1,) * u_cur.ndim)
    for _ in range(n_epoch):
        grad = grad_fn(u_cur)
        cands = u_cur - steps * grad
        if clamp is not None:
            cands = clamp(cands)
        losses, aux = value_fn(cands)
        losses = np.asarray(losses, dtype=np.float64)
        losses = np.where(np.isfinite(losses), losses, np.inf)
        best = int(np.argmin(losses))  # first minimum: the smallest step wins ties
        if not losses[best] < loss_cur:
            break
        loss_cur = float(losses[best])
        u_cur = cands[best]
        aux_cur = None if aux is None else aux[best]
    return u_cur, loss_cur, aux_cur, initial_loss


class ControlWorkspace:
    """The model workspaces that a controller keeps from tick to tick.

    rollout(config, n_seq, K) is the kept RolloutWorkspace of that shape,
    rebuilt when the model config changes: the warm start's (K = 1), the
    candidates' (K = n_batch) and the live forward's (1, 1), each with its
    one-row reverse.  Uses whose shapes agree share one (n_batch 1, n_seq
    1); each is done with its activations before the next run, as a
    round's gradient reverses a row of the stack scored last, and the
    generation guard raises if that stops being so.  Only buffers are
    kept: the weights change in place, so every tick folds them anew.
    """

    def __init__(self):
        self._kept = {}

    def rollout(self, config, n_seq, K):
        ws = self._kept.get((n_seq, K))
        if ws is None or ws.config != config:
            ws = self._kept[n_seq, K] = RolloutWorkspace(config, n_seq, K)
        return ws


class _Rows:
    """A scored stack's (means, variances) row by row: line_search_minimize's aux."""

    def __init__(self, means, variances):
        self.means, self.variances = means, variances

    def __getitem__(self, k):
        return self.means[k], self.variances[k]


def optimize(params, p, state, s_t, s_ref_seq, u_orig_seq, prev_plan, config, weights=None,
             workspace=None):
    """Improve the warm-started plan; never returns a loss above the start.

    Each round computes one gradient of the loss with respect to the whole
    command sequence by reversing the incumbent's row of the stack scored
    last, then scores n_batch step sizes from the gamma ladder
    (candidates clamped to the command bounds) in one batched rollout.
    The incumbent plan competes implicitly; ties keep the smallest step,
    and a round that keeps the incumbent ends the search.  A gradient
    asked at a plan that is not a row of the stack scored last raises
    ControllerError.
    weights is FoldedWeights(params) from a caller that folded them
    already; without it the call folds its own, once for every forward and
    reverse it runs.  workspace is the ControlWorkspace of a caller that
    runs tick after tick; without it the call makes its own.
    """
    s_ref_seq = np.asarray(s_ref_seq, dtype=np.float64)
    u_orig_seq = np.asarray(u_orig_seq, dtype=np.float64)
    if s_ref_seq.shape != (config.n_seq, params.config.n_s):
        raise ControllerError(
            f"reference sequence has shape {s_ref_seq.shape}, "
            f"expected ({config.n_seq}, {params.config.n_s})")

    lo = (config.command_low - params.stats.mean_u) / params.stats.std_u
    hi = (config.command_high - params.stats.mean_u) / params.stats.std_u

    if weights is None:
        weights = FoldedWeights(params)
    if workspace is None:
        workspace = ControlWorkspace()
    last = None  # (u_stack, means, variances, vjp) of the stack scored last

    def value_fn(u_stack):
        nonlocal last
        K, n_seq = np.shape(u_stack)[:2]
        means, variances, vjp = rollout_vjp(
            params, state, s_t, u_stack, p, weights=weights,
            workspace=workspace.rollout(params.config, n_seq, K))
        last = (u_stack, means, variances, vjp)
        losses = control_loss(means, variances, u_stack, s_ref_seq, u_orig_seq, config)
        return losses, _Rows(means, variances)

    def grad_fn(u_seq):
        # the line search asks only at its incumbent, a row of the stack scored last
        u_stack, means, variances, vjp = last
        hits = (u_stack == u_seq).all(axis=(1, 2)).nonzero()[0]
        if not hits.size:
            raise ControllerError("gradient asked at a plan not in the stack scored last")
        return row_gradient(means, variances, vjp, int(hits[0]), u_seq, s_ref_seq, u_orig_seq,
                            config)

    u_cur, loss_cur, (means, variances), loss0 = line_search_minimize(
        value_fn, grad_fn, warm_start(prev_plan),
        gammas=gamma_schedule(config.gamma_max, config.n_batch),
        n_epoch=config.n_epoch,
        clamp=lambda u: np.clip(u, lo, hi),
    )
    return ControlPlan(u_seq=u_cur, loss=loss_cur, means=means,
                       variances=variances, initial_loss=loss0)


class Controller:
    """Tick-by-tick receding-horizon controller around one model.

    Keeps the live recurrent state (never reset during an experiment), the
    previous plan for warm starting, the pair fed last tick so the state
    can be advanced exactly one step behind the measurements, and the
    ControlWorkspace that every tick runs in.  The bias attribute p may be
    replaced between ticks by an adaptation loop.  config is read-only:
    the kept plan and workspaces are sized by it, so another horizon takes
    a new Controller.
    """

    def __init__(self, params, config, p):
        self.params = params
        self._config = config
        self.p = np.asarray(p, dtype=np.float64)
        self.state = RecurrentState.zeros(params.config.layer_widths[4])
        self.plan = ControlPlan.zeros(config.n_seq, params.config.n_u, params.config.n_s)
        self._prev_pair = None
        self._workspace = ControlWorkspace()
        self.last_error = None

    @property
    def config(self):
        return self._config

    def step(self, s_raw, s_ref_seq_raw, u_orig_seq_raw=None):
        """Consume one measurement, return the raw command to emit.

        On optimizer failure the command is all zeros (safe stop) and the
        error is kept in last_error.  A non-finite measurement, reference,
        original command or bias p raises ValueError before anything is
        kept: fed back as the previous pair, or through the live forward,
        one NaN would turn the live state NaN and every later tick into a
        safe stop.
        """
        for name, value in (("measurement", s_raw), ("reference window", s_ref_seq_raw),
                            ("original-command window", u_orig_seq_raw), ("bias", self.p)):
            if value is not None and not np.isfinite(value).all():
                raise ValueError(f"controller {name} holds a non-finite value")
        stats = self.params.stats
        s_n = stats.normalize_state(s_raw)
        weights = FoldedWeights(self.params)  # one fold for the live forward and optimize
        if self._prev_pair is not None:
            prev_s, prev_u = self._prev_pair
            live = self._workspace.rollout(self.params.config, 1, 1)
            _, self.state = forward(self.params, self.state, prev_s, prev_u, self.p,
                                    weights=weights, workspace=live)
        s_ref_n = stats.normalize_state(s_ref_seq_raw)
        if u_orig_seq_raw is None:
            u_orig_seq_raw = s_ref_seq_raw
        u_orig_n = stats.normalize_command(u_orig_seq_raw)
        try:
            plan = optimize(self.params, self.p, self.state, s_n,
                            s_ref_n, u_orig_n, self.plan, self.config, weights=weights,
                            workspace=self._workspace)
        except ControllerError as err:
            self.last_error = err
            u_raw = np.zeros(self.params.config.n_u)
            self._prev_pair = (s_n, stats.normalize_command(u_raw))
            return u_raw
        self.plan = plan
        u_n = plan.u_seq[0]
        u_raw = np.clip(stats.denormalize_command(u_n),
                        self.config.command_low, self.config.command_high)
        self._prev_pair = (s_n, u_n)
        return u_raw

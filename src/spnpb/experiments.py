"""Episode runners tying the model, simulator, adaptation, and control together.

Every runner is a pure function of (model, config, seed), so repeated
invocations with the same arguments produce byte-identical logs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .adaptation import AdaptBuffer, LivePB, adapt_step
from .control import Controller
from .csvio import write_csv
from .model import FoldedWeights, RecurrentState, RolloutWorkspace, forward
from .simulator import SimState, random_walk_command, sim_step


def _check_ticks(n_ticks):
    if n_ticks < 1:
        raise ValueError(f"an episode needs at least one tick, got {n_ticks}")


@dataclass
class AdaptationEpisode:
    ticks: list = field(default_factory=list)       # (tick, p, buffer_len, updated)
    final_p: np.ndarray = None

    def rows(self):
        return [(t, p[0], p[1], n, upd) for t, p, n, upd in self.ticks]


def run_adaptation_episode(params, sim_config, n_ticks, seed, live=None,
                           n_thre=10, n_max=50, out_path=None):
    """Drive the simulator with a random walk and adapt the bias online.

    The live recurrent state advances every tick with the measured pair
    under the current bias; the state before each advance is snapshotted
    into the buffer.  Once the buffer passes its threshold, every tick
    takes one adaptation step.  The bias starts at zero unless a LivePB
    is supplied.  The weights never change during the episode, so they
    are folded once for every live forward, and every live forward runs
    in one kept workspace.
    """
    _check_ticks(n_ticks)
    if live is None:
        live = LivePB.zeros(params.config.n_p)
    rng = np.random.default_rng(seed)
    buffer = AdaptBuffer(n_thre=n_thre, n_max=n_max)
    state = SimState(0.0, 0.0)
    cmd = np.zeros(2)
    track = RecurrentState.zeros(params.config.layer_widths[4])
    weights = FoldedWeights(params)
    live_ws = RolloutWorkspace(params.config, 1, 1)
    episode = AdaptationEpisode()
    for tick in range(n_ticks):
        cmd = random_walk_command(cmd, rng)
        s_raw = state.as_array()
        snapshot = track
        s_n, u_n = params.stats.normalize_state(s_raw), params.stats.normalize_command(cmd)
        _, track = forward(params, track, s_n, u_n, live.p, weights=weights, workspace=live_ws)
        buffer.push(s_raw, cmd, tick, snapshot)
        updated = buffer.update_ready()
        if updated:
            live = adapt_step(params, buffer, live)
        episode.ticks.append((tick, live.p.copy(), len(buffer), updated))
        state = sim_step(state, cmd, sim_config, rng)
    buffer.release_workspace()
    episode.final_p = live.p.copy()
    if out_path is not None:
        write_csv(out_path, "adaptation_trajectory", episode.rows())
    return episode


def ramp_target(tick, tick_period=0.2, final=(3.0, 0.0), ramp_seconds=2.0):
    """Target profile: linear from (0, 0) to final over ramp_seconds, then hold."""
    t = tick * tick_period
    frac = min(t / ramp_seconds, 1.0) if ramp_seconds > 0 else 1.0
    return np.array([final[0] * frac, final[1] * frac])


@dataclass
class ControlEpisode:
    rows: list = field(default_factory=list)
    losses: list = field(default_factory=list)        # (initial, final) per tick
    sigma_trans: list = field(default_factory=list)   # raw units per tick
    tracking_err: list = field(default_factory=list)  # |w - w_ref_orig| per tick

    def mean_sigma_trans(self, first_n=None):
        vals = self.sigma_trans if first_n is None else self.sigma_trans[:first_n]
        return float(np.mean(vals))

    def tracking_rmse(self):
        return float(np.sqrt(np.mean(np.square(self.tracking_err))))


def run_control_episode(params, sim_config, control_config, seed,
                        n_ticks=40, p=None, target=ramp_target,
                        adapt_online=False, out_path=None):
    """One closed-loop control run against the simulator.

    The base starts at w = (-1, 0); the target ramps from (0, 0) per the
    target profile.  The bias is fixed unless adapt_online is set, in
    which case a rolling buffer adapts it from zero alongside control.
    Logs per tick: original target, emitted command, measured state, and
    the predicted standard deviation of the next state (raw units, from
    the first step of the optimized plan).
    """
    _check_ticks(n_ticks)
    if p is None:
        p = np.zeros(params.config.n_p)
    rng = np.random.default_rng(seed)
    dt = params.config.tick_period
    controller = Controller(params, control_config, p)
    state = SimState(-1.0, 0.0)
    episode = ControlEpisode()
    live = LivePB.zeros(params.config.n_p) if adapt_online else None
    buffer = AdaptBuffer() if adapt_online else None
    for tick in range(n_ticks):
        s_raw = state.as_array()
        ref_now = target(tick, dt)
        ref_seq = np.array([target(tick + 1 + i, dt) for i in range(control_config.n_seq)])
        if adapt_online:
            controller.p = live.p
        snapshot = controller.state
        u_raw = controller.step(s_raw, ref_seq)
        if adapt_online:
            buffer.push(s_raw, u_raw, tick, snapshot)
            if buffer.update_ready():
                live = adapt_step(params, buffer, live)
        plan = controller.plan
        sigma_n = np.sqrt(plan.variances[0]) if np.all(np.isfinite(plan.variances[0])) else np.zeros(params.config.n_s)
        sigma_raw = params.stats.denormalize_state_sigma(sigma_n)
        episode.rows.append((
            tick,
            ref_now[0], ref_now[1],
            u_raw[0], u_raw[1],
            s_raw[0], s_raw[1],
            sigma_raw[0], sigma_raw[1],
        ))
        episode.losses.append((plan.initial_loss, plan.loss))
        episode.sigma_trans.append(float(sigma_raw[0]))
        episode.tracking_err.append(float(np.linalg.norm(s_raw - ref_now)))
        state = sim_step(state, u_raw, sim_config, rng)
    if adapt_online:
        buffer.release_workspace()
    if out_path is not None:
        write_csv(out_path, "control_episode", episode.rows)
    return episode


def run_control_batch(params, sim_config, control_config, seeds,
                      n_ticks=40, p=None, out_dir=None, tag="run"):
    """Independent episodes for each seed; optionally log per-seed CSVs
    plus averaged measured-speed and predicted-sigma series."""
    seeds = list(seeds)
    if not seeds:
        raise ValueError("run_control_batch needs at least one seed")
    episodes = []
    for seed in seeds:
        out_path = None
        if out_dir is not None:
            out_path = f"{out_dir}/{tag}_seed{seed}.csv"
        episodes.append(run_control_episode(
            params, sim_config, control_config, seed,
            n_ticks=n_ticks, p=p, out_path=out_path))
    if out_dir is not None:
        rows = []
        for t in range(n_ticks):
            ref = ramp_target(t, params.config.tick_period)
            mean_w = float(np.mean([e.rows[t][5] for e in episodes]))
            mean_sig = float(np.mean([e.sigma_trans[t] for e in episodes]))
            rows.append((t, ref[0], mean_w, mean_sig))
        write_csv(f"{out_dir}/{tag}_average.csv", "control_average", rows)
    return episodes


def prediction_trace(params, sim_config, p, n_ticks, seed, out_path=None):
    """Teacher-forced prediction run: drive the sim, feed measured pairs,
    record predicted mean and sigma (raw units) at every tick.  The weights
    are folded once, and one workspace kept, for the whole trace."""
    rng = np.random.default_rng(seed)
    weights = FoldedWeights(params)
    live_ws = RolloutWorkspace(params.config, 1, 1)
    state = SimState(0.0, 0.0)
    cmd = np.zeros(2)
    track = RecurrentState.zeros(params.config.layer_widths[4])
    rows = []
    for tick in range(n_ticks):
        cmd = random_walk_command(cmd, rng)
        s_raw = state.as_array()
        s_n = params.stats.normalize_state(s_raw)
        u_n = params.stats.normalize_command(cmd)
        pred, track = forward(params, track, s_n, u_n, p, weights=weights, workspace=live_ws)
        mean_raw = params.stats.denormalize_state(pred.mean)
        sigma_raw = params.stats.denormalize_state_sigma(np.sqrt(pred.variance))
        rows.append((tick, s_raw[0], s_raw[1], cmd[0], cmd[1],
                     mean_raw[0], mean_raw[1], sigma_raw[0], sigma_raw[1]))
        state = sim_step(state, cmd, sim_config, rng)
    if out_path is not None:
        write_csv(out_path, "prediction_trace", rows)
    return rows

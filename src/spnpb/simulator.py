"""Stochastic mobile-base simulator.

The base tracks a commanded velocity with first-order dynamics plus
state-dependent Gaussian noise: translation noise gets large when the
base moves slowly, rotation noise is constant.

    w_trans' = w_trans + alpha * (cmd_trans - w_trans) + beta * N(0, 1 / (|w_trans| + |w_rot| + 0.1))
    w_rot'   = w_rot   + alpha * (cmd_rot   - w_rot)   + beta * N(0, 0.1)

N(0, sigma) denotes standard deviation sigma, and the |w| terms use the
pre-update state.  Each step consumes exactly two standard normal draws
from the supplied generator, translation first, regardless of beta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import TimedSample, Trial

COMMAND_MIN = -3.0
COMMAND_MAX = 3.0


@dataclass(frozen=True)
class SimConfig:
    alpha: float
    beta: float
    seed: int = 0
    tick_period: float = 0.2

    def __post_init__(self):
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if self.beta < 0.0:
            raise ValueError(f"beta must be non-negative, got {self.beta}")

    @property
    def label(self):
        return f"alpha={self.alpha},beta={self.beta}"


@dataclass(frozen=True)
class SimState:
    w_trans: float
    w_rot: float

    def as_array(self):
        return np.array([self.w_trans, self.w_rot])


def trans_noise_std(state):
    """Translation noise std at beta=1 for the pre-update state."""
    return 1.0 / (abs(state.w_trans) + abs(state.w_rot) + 0.1)


def rot_noise_std():
    return 0.1


def sim_step(state, cmd, config, rng):
    """Advance one tick; consumes two normal draws (trans, rot)."""
    n_trans = rng.standard_normal()
    n_rot = rng.standard_normal()
    std = trans_noise_std(state)
    w_trans = state.w_trans + config.alpha * (cmd[0] - state.w_trans) + config.beta * std * n_trans
    w_rot = state.w_rot + config.alpha * (cmd[1] - state.w_rot) + config.beta * rot_noise_std() * n_rot
    return SimState(float(w_trans), float(w_rot))


def random_walk_command(prev, rng):
    """Add Uniform(-1, 1) per dimension, clamped to [-3, 3].

    Consumes two uniform draws, translation first.
    """
    d_trans = rng.uniform(-1.0, 1.0)
    d_rot = rng.uniform(-1.0, 1.0)
    return np.array([
        min(COMMAND_MAX, max(COMMAND_MIN, prev[0] + d_trans)),
        min(COMMAND_MAX, max(COMMAND_MIN, prev[1] + d_rot)),
    ])


def run_random_walk_trial(config, steps, rng, trial_id=0):
    """One trial from rest: command random-walk, record (s_t, u_t) per tick."""
    state = SimState(0.0, 0.0)
    cmd = np.zeros(2)
    samples = []
    for tick in range(steps):
        cmd = random_walk_command(cmd, rng)
        samples.append(TimedSample(s=state.as_array(), u=cmd.copy(), tick=tick))
        state = sim_step(state, cmd, config, rng)
    return Trial(trial_id=trial_id, label=config.label, samples=samples)


def collect_trials(configs, steps_per_trial=200, trials_per_config=1):
    """Record trials for every config; each repetition restarts from rest.

    Repetition r of a config uses a generator seeded from (config.seed, r),
    so distinct repetitions are independent and the whole collection is
    reproducible.  A trial needs two steps to give one prediction target,
    so fewer steps, no repetitions or no configs raise ValueError.
    """
    if not configs:
        raise ValueError("no simulator configs to collect from")
    if steps_per_trial < 2:
        raise ValueError(f"a trial needs at least 2 steps, got {steps_per_trial}")
    if trials_per_config < 1:
        raise ValueError(f"need at least 1 trial per config, got {trials_per_config}")
    trials = []
    trial_id = 0
    for config in configs:
        for rep in range(trials_per_config):
            rng = np.random.default_rng([config.seed, rep])
            trials.append(run_random_walk_trial(config, steps_per_trial, rng, trial_id))
            trial_id += 1
    return trials


def default_grid(alphas=(0.4, 0.5, 0.6), betas=(0.1, 1.0), base_seed=0):
    """The training grid: every (alpha, beta) combination, seeds offset per cell."""
    return [
        SimConfig(alpha=a, beta=b, seed=base_seed + i)
        for i, (a, b) in enumerate((a, b) for a in alphas for b in betas)
    ]

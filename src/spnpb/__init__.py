"""Stochastic predictive network with parametric bias.

Training, online environment adaptation, and variance-minimizing
receding-horizon control, demonstrated on a noisy mobile-base simulator.
"""

__version__ = "0.1.0"

from .adaptation import AdaptBuffer, LivePB, adapt_step
from .autodiff import ShapeError
from .control import ControlConfig, ControlPlan, Controller, gamma_schedule, optimize, warm_start
from .dataset import TimedSample, Trial, load_trials, save_trials
from .layers import DenseLayer, LstmCell
from .model import (
    GaussianPrediction,
    ModelConfig,
    ModelParams,
    NormStats,
    RecurrentState,
    forward,
    load_model,
    save_model,
)
from .optim import AdamState, MomentumState, adam_update, momentum_update
from .simulator import SimConfig, SimState, collect_trials, random_walk_command, sim_step
from .training import TrainConfig, TrainingDivergedError, compute_norm_stats, nll_element, train, trial_nll

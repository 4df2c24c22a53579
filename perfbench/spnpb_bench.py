"""Workloads of the spnpb benchmark: train-grid, control-ramp, adapt-heldout.

All three are closed loops, as on the robot: the next epoch or tick
starts only when the previous one has returned.  A step is one training
epoch, one control tick or one adaptation tick.  Every run

1. sets up ``Sizes.setups`` times (setup_s is the median) and checks that
   every set-up produced the same grids and model;
2. runs the workload's unit (one ``training.train`` call on the seed's
   grid, one control episode or one adaptation episode) over and over for
   the requested seconds, timing every step and checking every output;
3. scores the set-up model on fixed probes, untimed: ``heldout_nll`` on a
   held-out grid, ``tracking_rmse`` over ``Sizes.control_episodes`` ramp
   episodes and ``replay_nll`` over one adaptation episode in each of the
   two environments.

The set-up model comes from one short recipe on the standard grid, so it
and the three quality metrics are the same on every seed and workload;
the seed picks the training grid of train-grid and the episode seeds of
the timed units.  README.md says why.
"""

from __future__ import annotations

import hashlib
import math
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from spnpb import adaptation, experiments, simulator, training
from spnpb.autodiff import Tape, Var
from spnpb.control import ControlConfig
from spnpb.evaluate import weight_hash
from spnpb.simulator import SimConfig

from spnpb_trace import Tracer, layer_metrics, patched, trace_hooks

WORKLOADS = ("train-grid", "control-ramp", "adapt-heldout")

# default_grid seeds its six cells base_seed .. base_seed + 5; seed n
# trains on base seed 6 n, so seed 0 trains on the acceptance suite's grid.
GRID_SEED_STRIDE = 6
HELDOUT_GRID_SEED = 1_000_000
PROBE_SEED = 1_000_000      # episode seeds of the quality probes
GRID_STEPS = 200
GRID_TRIALS_PER_CONFIG = 3
LR_PB = 0.03                # the acceptance recipe's learning rates
LR_DECAY = 0.1
CONTROL_ENV = (0.5, 1.0)
C_VARIANCE = 30.0
ADAPT_ENVS = ((0.4, 0.1), (0.6, 1.0))
LOSS_SLACK = 1e-12          # the line-search guarantee's tolerance


class BenchmarkError(RuntimeError):
    """The program no longer offers what the benchmark drives or hooks."""


@dataclass(frozen=True)
class Sizes:
    epochs: int             # epochs per training.train call
    setups: int             # set-ups per run
    control_episodes: int   # episodes scored for tracking_rmse
    control_ticks: int
    adapt_ticks: int


FULL = Sizes(epochs=50, setups=3, control_episodes=2, control_ticks=40, adapt_ticks=200)
# A few epochs and ticks, enough to pass through every hook and check.
SMOKE = Sizes(epochs=3, setups=2, control_episodes=1, control_ticks=3, adapt_ticks=13)


def control_seed(seed, k):
    return seed * 100_000 + k


def adapt_seed(seed, k):
    return seed * 100_000 + 50_000 + k


def grid(base_seed):
    configs = simulator.default_grid(base_seed=base_seed)
    return simulator.collect_trials(configs, GRID_STEPS, GRID_TRIALS_PER_CONFIG)


def recipe(sizes):
    return training.TrainConfig(epochs=sizes.epochs, lr_pb=LR_PB, lr_decay=LR_DECAY, seed=0)


# ---------------------------------------------------------------------------
# set-up


@dataclass
class Setup:
    trials: list            # the seed's grid, train-grid's training input
    heldout: list           # held-out grid for heldout_nll
    params: object          # the recipe's model on the standard grid

    def fingerprint(self):
        """Digest of the generated grids and the set-up model's weights."""
        digest = hashlib.sha256()
        for trial in self.trials + self.heldout:
            digest.update(trial.label.encode())
            digest.update(trial.states.tobytes())
            digest.update(trial.commands.tobytes())
        digest.update(weight_hash(self.params).encode())
        return digest.hexdigest()


def set_up(seed, sizes):
    """The same for every workload: the model, the seed's grid, the held-out grid."""
    params = training.train(grid(0), recipe(sizes))
    return Setup(grid(GRID_SEED_STRIDE * seed), grid(HELDOUT_GRID_SEED), params)


# ---------------------------------------------------------------------------
# timing and the hooks of the gated run


class StepClock:
    """Per-step durations and the summed wall time of the timed calls."""

    def __init__(self):
        self.steps = []
        self.wall_s = 0.0
        self._start = self._last = None

    def start(self):
        self._start = self._last = time.perf_counter()

    def tick(self):
        now = time.perf_counter()
        self.steps.append(now - self._last)
        self._last = now

    def stop(self):
        self.wall_s += time.perf_counter() - self._start


@dataclass
class EpisodeRecord:
    """What the gated hooks saw during one episode."""

    safe_stops: list = field(default_factory=list)  # per control tick
    buffer: object = None                           # last adaptation buffer


def gated_hooks(clock, record):
    """Hooks at the names run_*_episode look up, one call per tick each.

    sim_step ends every tick, so its calls mark the tick boundaries.
    Controller is replaced by a subclass that notes whether a tick set
    last_error (a safe stop); adapt_step hands over the replay buffer.
    """

    def sim_step(fn):
        def ticked(*args, **kwargs):
            clock.tick()
            return fn(*args, **kwargs)
        return ticked

    def controller(cls):
        class CheckedController(cls):
            def step(self, *args, **kwargs):
                before = self.last_error
                u = super().step(*args, **kwargs)
                record.safe_stops.append(self.last_error is not before)
                return u
        return CheckedController

    def adapt_step(fn):
        def capturing(params, buffer, live):
            record.buffer = buffer
            return fn(params, buffer, live)
        return capturing

    return [(experiments, "sim_step", sim_step),
            (experiments, "Controller", controller),
            (experiments, "adapt_step", adapt_step)]


@dataclass
class Unit:
    steps: int
    failed: int
    result: object


def _check_ticks(clock, before, record_ticks, n_ticks):
    ticks = len(clock.steps) - before
    if ticks != n_ticks or record_ticks not in (None, n_ticks):
        raise BenchmarkError(
            f"hooks saw {ticks} ticks of an episode of {n_ticks}; the episode runner "
            "no longer calls experiments.sim_step / Controller.step once per tick")


# ---------------------------------------------------------------------------
# units: one call into the program each


def train_unit(setup, sizes, clock):
    """One training.train call on the seed's grid; returns the model."""
    losses = []

    def on_epoch(epoch, loss):
        clock.tick()
        losses.append(loss)

    clock.start()
    try:
        params = training.train(setup.trials, recipe(sizes), on_epoch=on_epoch)
    except training.TrainingDivergedError:
        clock.stop()
        return Unit(len(losses) + 1, 1, None)
    clock.stop()
    failed = sum(not math.isfinite(loss) for loss in losses)
    if not losses[-1] < losses[0]:
        failed += 1
    return Unit(len(losses), failed, weight_hash(params))


def control_unit(params, sizes, seed, clock, k):
    """One closed-loop ramp episode; returns its per-tick tracking errors."""
    ep_seed = control_seed(seed, k)
    record = EpisodeRecord()
    before = len(clock.steps)
    with patched(gated_hooks(clock, record)):
        clock.start()
        episode = experiments.run_control_episode(
            params, SimConfig(*CONTROL_ENV, seed=ep_seed), ControlConfig(c_variance=C_VARIANCE),
            ep_seed, n_ticks=sizes.control_ticks,
            p=params.pb_for_label(SimConfig(*CONTROL_ENV).label))
        clock.stop()
    _check_ticks(clock, before, len(record.safe_stops), sizes.control_ticks)
    # A safe-stopped tick keeps the previous plan, whose losses may be unset.
    failed = sum(
        stopped or not final <= initial + LOSS_SLACK
        for (initial, final), stopped in zip(episode.losses, record.safe_stops))
    return Unit(sizes.control_ticks, failed, episode.tracking_err)


def adapt_unit(params, sizes, seed, clock, k):
    """Adaptation episode k from p=0; returns buffer_nll at its final tick.

    Episodes alternate between the two environments, a new seed per pair.
    """
    alpha, beta = ADAPT_ENVS[k % 2]
    ep_seed = adapt_seed(seed, k // 2)
    reference = weight_hash(params)
    record = EpisodeRecord()
    before = len(clock.steps)
    with patched(gated_hooks(clock, record)):
        clock.start()
        episode = experiments.run_adaptation_episode(
            params, SimConfig(alpha, beta, seed=ep_seed), sizes.adapt_ticks, ep_seed)
        clock.stop()
    _check_ticks(clock, before, None, sizes.adapt_ticks)
    if record.buffer is None:
        raise BenchmarkError("the adaptation episode never called experiments.adapt_step")
    if weight_hash(params) != reference:
        return Unit(sizes.adapt_ticks, sizes.adapt_ticks, None)
    failed = sum(not np.all(np.isfinite(p)) for _, p, _, _ in episode.ticks)
    return Unit(sizes.adapt_ticks, failed,
                adaptation.buffer_nll(params, episode.final_p, record.buffer))


# ---------------------------------------------------------------------------
# windows, quality and the two kinds of run


@dataclass
class Window:
    clock: StepClock
    attempted: int = 0
    failed: int = 0
    results: list = field(default_factory=list)

    @property
    def steps_per_s(self):
        return len(self.clock.steps) / self.clock.wall_s

    def run(self, unit_fn, k):
        unit = unit_fn(self.clock, k)
        self.attempted += unit.steps
        self.failed += unit.failed
        self.results.append(unit.result)


def run_units(unit_fn, seconds, min_units=1):
    """Run unit_fn(clock, k) for k = 0, 1, ... until min_units are done and seconds have passed."""
    window = Window(StepClock())
    deadline = time.perf_counter() + seconds
    k = 0
    while k < min_units or time.perf_counter() < deadline:
        window.run(unit_fn, k)
        k += 1
    return window


def heldout_nll(params, heldout):
    """Mean per-step NLL of the held-out grid, each trial under its label's centroid."""
    states = np.stack([params.stats.normalize_state(t.states) for t in heldout])
    commands = np.stack([params.stats.normalize_command(t.commands) for t in heldout])
    p_batch = Var(np.stack([params.pb_for_label(t.label) for t in heldout]))
    loss = training.batch_nll_node(params, p_batch, states, commands, Tape())
    return float(loss.value) / (states.shape[0] * (states.shape[1] - 1))


def quality(setup, sizes):
    """The quality metrics of the set-up model, and the probes' (attempted, failed)."""
    params = setup.params
    control = run_units(lambda clock, k: control_unit(params, sizes, PROBE_SEED, clock, k),
                        0.0, sizes.control_episodes)
    adapt = run_units(lambda clock, k: adapt_unit(params, sizes, PROBE_SEED, clock, k),
                      0.0, len(ADAPT_ENVS))
    attempted = control.attempted + adapt.attempted
    failed = control.failed + adapt.failed
    if any(r is None for r in adapt.results):
        return None, attempted, failed
    metrics = {
        "heldout_nll": (heldout_nll(params, setup.heldout), "nats"),
        "tracking_rmse": (float(np.sqrt(np.mean(np.square(np.concatenate(control.results))))),
                          "raw"),
        "replay_nll": (float(np.mean(adapt.results)), "nats"),
    }
    return metrics, attempted, failed


def timed_unit(workload, setup, seed, sizes):
    """The workload's timed unit, as unit(clock, k)."""
    if workload == "train-grid":
        return lambda clock, k: train_unit(setup, sizes, clock)
    if workload == "control-ramp":
        return lambda clock, k: control_unit(setup.params, sizes, seed, clock, k)
    if workload == "adapt-heldout":
        return lambda clock, k: adapt_unit(setup.params, sizes, seed, clock, k)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict           # name -> (value, unit)

    def as_json(self):
        return {
            "correct": bool(self.correct),
            "attempted": int(self.attempted),
            "failed": int(self.failed),
            "metrics": {name: {"value": float(value), "unit": unit}
                        for name, (value, unit) in self.metrics.items()},
        }


def run_gated(workload, seed, seconds, sizes=FULL):
    """The gated run: every end-to-end metric, measured without tracing.

    Outputs are correct when no step failed its checks, every set-up
    produced the same inputs and model, and every training unit of
    train-grid produced the same weights.
    """
    setup_times, fingerprints = [], set()
    for _ in range(sizes.setups):
        t0 = time.perf_counter()
        setup = set_up(seed, sizes)
        setup_times.append(time.perf_counter() - t0)
        fingerprints.add(setup.fingerprint())
    window = run_units(timed_unit(workload, setup, seed, sizes), seconds)
    scores, attempted, failed = quality(setup, sizes)
    attempted += window.attempted
    failed += window.failed
    steps = window.clock.steps
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "step_ms_p50": (1e3 * statistics.median(steps), "ms"),
        "steps_per_s": (window.steps_per_s, "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    if scores is not None:
        metrics.update(scores)
    repeatable = len(fingerprints) == 1
    if workload == "train-grid":
        repeatable = repeatable and len(set(window.results)) == 1
    correct = scores is not None and repeatable and failed == 0
    return Result(correct, attempted, failed, metrics)


def run_traced(workload, seed, seconds, sizes=FULL):
    """The traced run: every unit runs twice, untraced and then traced.

    Pairing the two runs of each unit gives both the same inputs and the
    same machine conditions, so their rates differ by the tracing alone.
    """
    setup_tracer = Tracer()
    with patched(trace_hooks(setup_tracer)):
        setup = set_up(seed, sizes)
    unit_fn = timed_unit(workload, setup, seed, sizes)
    plain, traced = Window(StepClock()), Window(StepClock())
    step_tracer = Tracer()
    deadline = time.perf_counter() + seconds
    k = 0
    while k == 0 or time.perf_counter() < deadline:
        plain.run(unit_fn, k)
        with patched(trace_hooks(step_tracer)):
            traced.run(unit_fn, k)
        k += 1
    metrics = layer_metrics(step_tracer, len(traced.clock.steps), setup_tracer)
    metrics["step_ms_p90"] = (1e3 * float(np.percentile(plain.clock.steps, 90)), "ms")
    metrics["tracing_overhead_pct"] = (
        100.0 * (plain.steps_per_s / traced.steps_per_s - 1.0), "%")
    failed = plain.failed + traced.failed
    return Result(failed == 0, plain.attempted + traced.attempted, failed, metrics)

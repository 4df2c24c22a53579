"""Acceptance suite: every headline behavior at its stated tolerance.

One test per criterion, each printing a single PASS/FAIL line with the
measured numbers (run with -s or -rA to see the lines for passing tests).
The trained-model criteria share one module-scoped fixture that collects
the 6-config grid and fits the model once.
"""

import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

from spnpb.dataset import Trial, load_trials, save_trials
from spnpb.evaluate import (
    check_gradient_integrity,
    check_heteroscedasticity,
    check_line_search,
    check_online_adaptation,
    check_pb_organization,
    check_simulator_noise,
    check_variance_control,
)
from spnpb.model import (
    ModelConfig,
    ModelParams,
    NormStats,
    RecurrentState,
    forward,
    load_model,
    save_model,
)
from spnpb.simulator import SimConfig, SimState, collect_trials, default_grid, sim_step
from spnpb.training import TrainConfig, nll_element, trial_nll, train

# Training recipe for the acceptance model; the data protocol (6 configs x
# 3 trials x 200 steps) is fixed, the budget is 10 minutes of fitting.
ACCEPT_EPOCHS = 600
ACCEPT_LR_PB = 0.03
ACCEPT_LR_DECAY = 0.1
TRAIN_BUDGET_SECONDS = 600.0


def report(name, passed, detail):
    print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
    assert passed, f"{name}: {detail}"


def report_result(result):
    print(result.line())
    assert result.passed, result.detail


@pytest.fixture(scope="module")
def trained():
    trials = collect_trials(
        default_grid(base_seed=0), steps_per_trial=200, trials_per_config=3)
    config = TrainConfig(
        epochs=ACCEPT_EPOCHS, lr_pb=ACCEPT_LR_PB, lr_decay=ACCEPT_LR_DECAY, seed=0)
    t0 = time.time()
    params = train(trials, config)
    seconds = time.time() - t0
    return SimpleNamespace(params=params, trials=trials, seconds=seconds)


def test_1_gradient_integrity():
    result = check_gradient_integrity(n_instances=20, seed=0)
    report_result(result)


def test_2_nll_oracle():
    half_log_2pi = 0.5 * math.log(2.0 * math.pi)
    base_err = abs(nll_element(0.0, 1.0, 0.0) - half_log_2pi)

    rng = np.random.default_rng(42)
    stats = NormStats(np.zeros(2), np.ones(2), np.zeros(2), np.ones(2))
    params = ModelParams.init(ModelConfig(n_s=2, n_u=2), stats, rng)
    T = 20
    states, commands = zip(*[(rng.normal(size=2), rng.normal(size=2)) for _ in range(T)])
    trial = Trial(0, "oracle", states=states, commands=commands, ticks=range(T))
    p = rng.normal(scale=0.5, size=2)
    total = trial_nll(params, p, trial, stats)

    track = RecurrentState.zeros(params.config.layer_widths[4])
    s_n = stats.normalize_state(trial.states)
    u_n = stats.normalize_command(trial.commands)
    manual = 0.0
    for t in range(T - 1):
        pred, track = forward(params, track, s_n[t], u_n[t], p)
        for d in range(2):
            manual += nll_element(pred.mean[d], pred.variance[d], s_n[t + 1][d])
    sum_err = abs(total - manual)

    report(
        "nll-oracle",
        base_err <= 1e-12 and sum_err <= 1e-10,
        f"half-log-2pi error {base_err:.2e} (need <=1e-12); trial loss vs "
        f"element sum differs by {sum_err:.2e} over {T - 1} steps (need <=1e-10)",
    )


def test_3_simulator_fidelity():
    rng = np.random.default_rng(7)
    exact = True
    for _ in range(100):
        state = SimState(float(rng.normal(scale=2.0)), float(rng.normal(scale=2.0)))
        cmd = rng.uniform(-3.0, 3.0, size=2)
        alpha = float(rng.uniform(0.1, 1.0))
        nxt = sim_step(state, cmd, SimConfig(alpha=alpha, beta=0.0), rng)
        want_t = state.w_trans + alpha * (cmd[0] - state.w_trans)
        want_r = state.w_rot + alpha * (cmd[1] - state.w_rot)
        exact = exact and nxt.w_trans == want_t and nxt.w_rot == want_r

    # a full trajectory stays bit-identical to the affine recursion
    state = SimState(0.0, 0.0)
    cmd = np.array([1.5, -0.5])
    w = np.zeros(2)
    for _ in range(50):
        state = sim_step(state, cmd, SimConfig(alpha=0.3, beta=0.0), rng)
        w = w + 0.3 * (cmd - w)
        exact = exact and state.w_trans == w[0] and state.w_rot == w[1]

    mc = check_simulator_noise(n_steps=100_000, seed=0)
    print(mc.line())
    report(
        "simulator-fidelity",
        exact and mc.passed,
        f"beta=0 plant bitwise affine over 150 checks: {exact}; {mc.detail}",
    )


def test_4_heteroscedasticity_learned(trained):
    budget_ok = trained.seconds <= TRAIN_BUDGET_SECONDS
    result = check_heteroscedasticity(trained.params)
    print(result.line())
    report(
        "heteroscedasticity-learned",
        budget_ok and result.passed,
        f"trained 18 trials x {ACCEPT_EPOCHS} epochs in {trained.seconds:.0f}s "
        f"(budget {TRAIN_BUDGET_SECONDS:.0f}s); {result.detail}",
    )


def test_5_pb_organization(trained):
    report_result(check_pb_organization(trained.params))


def test_6_online_adaptation(trained):
    report_result(check_online_adaptation(trained.params))


def test_7_line_search(trained):
    report_result(check_line_search(trained.params))


def test_8_variance_minimizing_control(trained):
    report_result(check_variance_control(trained.params))


def test_9_persistence(trained, tmp_path):
    params = trained.params
    path_a = tmp_path / "model_a.json"
    path_b = tmp_path / "model_b.json"
    save_model(params, path_a)
    reloaded = load_model(path_a)
    save_model(reloaded, path_b)
    bytes_ok = path_a.read_bytes() == path_b.read_bytes()

    arrays_ok = all(
        np.array_equal(a, b)
        for a, b in zip(params.weight_arrays(), reloaded.weight_arrays())
    ) and np.array_equal(params.pb_table, reloaded.pb_table)

    rng = np.random.default_rng(0)
    s_n, u_n = rng.normal(size=2), rng.normal(size=2)
    state = RecurrentState.zeros(params.config.layer_widths[4])
    pred_a, _ = forward(params, state, s_n, u_n, params.pb_table[0])
    pred_b, _ = forward(reloaded, state, s_n, u_n, reloaded.pb_table[0])
    forward_ok = np.array_equal(pred_a.mean, pred_b.mean) and np.array_equal(
        pred_a.variance, pred_b.variance)

    data_path = tmp_path / "trials.csv"
    save_trials(trained.trials, data_path)
    back = load_trials(data_path)
    worst = 0.0
    for k in (0, 5, 17):
        before = trial_nll(params, params.pb_table[k], trained.trials[k], params.stats)
        after = trial_nll(params, params.pb_table[k], back[k], params.stats)
        worst = max(worst, abs(before - after))

    report(
        "persistence",
        bytes_ok and arrays_ok and forward_ok and worst <= 1e-12,
        f"model save/load bit-exact: {bytes_ok and arrays_ok and forward_ok}; "
        f"dataset round-trip loss shift {worst:.2e} (need <=1e-12)",
    )

import numpy as np
import pytest

from spnpb.simulator import (
    SimConfig,
    SimState,
    collect_trials,
    default_grid,
    random_walk_command,
    rot_noise_std,
    run_random_walk_trial,
    sim_step,
    trans_noise_std,
)


class ScriptedRng:
    """Returns queued values; stands in for a Generator in deterministic tests."""

    def __init__(self, normals=(), uniforms=()):
        self.normals = list(normals)
        self.uniforms = list(uniforms)

    def standard_normal(self):
        return self.normals.pop(0)

    def uniform(self, lo, hi):
        return self.uniforms.pop(0)


def test_noise_std_formulas():
    assert trans_noise_std(SimState(0.0, 0.0)) == 10.0
    assert abs(trans_noise_std(SimState(0.4, -0.5)) - 1.0) < 1e-15
    assert abs(trans_noise_std(SimState(-1.9, 0.0)) - 0.5) < 1e-15
    assert rot_noise_std() == 0.1


def test_beta_zero_is_exactly_affine():
    # noise draws still consumed, but multiplied by beta=0: bit-exact affine
    config = SimConfig(alpha=0.25, beta=0.0)
    rng = ScriptedRng(normals=[3.7, -2.9])
    state = sim_step(SimState(1.0, -2.0), np.array([2.0, 2.0]), config, rng)
    assert state.w_trans == 1.0 + 0.25 * (2.0 - 1.0)
    assert state.w_rot == -2.0 + 0.25 * (2.0 - (-2.0))
    assert rng.normals == []  # both draws consumed regardless of beta


def test_sim_step_uses_pre_update_state_for_noise():
    # with alpha=1 the new mean is the command; noise std must still come
    # from the old state (speed 0 => std 10)
    config = SimConfig(alpha=1.0, beta=1.0)
    rng = ScriptedRng(normals=[0.5, -1.0])
    state = sim_step(SimState(0.0, 0.0), np.array([3.0, 3.0]), config, rng)
    assert abs(state.w_trans - (3.0 + 10.0 * 0.5)) < 1e-12
    assert abs(state.w_rot - (3.0 + 0.1 * -1.0)) < 1e-12


def test_sim_step_draw_order_is_trans_first():
    config = SimConfig(alpha=0.5, beta=1.0)
    rng = ScriptedRng(normals=[1.0, 0.0])
    a = sim_step(SimState(0.0, 0.0), np.zeros(2), config, rng)
    rng = ScriptedRng(normals=[0.0, 1.0])
    b = sim_step(SimState(0.0, 0.0), np.zeros(2), config, rng)
    assert a.w_trans != 0.0 and a.w_rot == 0.0
    assert b.w_trans == 0.0 and b.w_rot != 0.0


def test_monte_carlo_trans_noise_std_at_rest():
    # hold the state at the origin: residual w' equals beta * 10 * n
    config = SimConfig(alpha=0.4, beta=1.0)
    rng = np.random.default_rng(0)
    draws = np.empty(100_000)
    origin = SimState(0.0, 0.0)
    for i in range(draws.size):
        draws[i] = sim_step(origin, np.zeros(2), config, rng).w_trans
    assert abs(draws.std() - 10.0) / 10.0 < 0.02


def test_random_walk_command_steps_and_clamps():
    rng = ScriptedRng(uniforms=[0.7, -0.3])
    cmd = random_walk_command(np.array([0.0, 0.0]), rng)
    np.testing.assert_allclose(cmd, [0.7, -0.3], atol=1e-15)

    rng = ScriptedRng(uniforms=[0.9, -0.9])
    cmd = random_walk_command(np.array([2.5, -2.5]), rng)
    np.testing.assert_allclose(cmd, [3.0, -3.0], atol=1e-15)


def test_trial_starts_from_rest_and_is_reproducible():
    config = SimConfig(alpha=0.5, beta=1.0, seed=3)
    t1 = run_random_walk_trial(config, 50, np.random.default_rng(42))
    t2 = run_random_walk_trial(config, 50, np.random.default_rng(42))
    np.testing.assert_array_equal(t1.states, t2.states)
    np.testing.assert_array_equal(t1.commands, t2.commands)
    np.testing.assert_array_equal(t1.states[0], [0.0, 0.0])
    assert len(t1) == 50
    assert t1.label == "alpha=0.5,beta=1.0"


def test_beta_zero_trial_has_zero_model_residual():
    # with no noise the recorded trajectory must satisfy the affine update
    config = SimConfig(alpha=0.3, beta=0.0)
    t = run_random_walk_trial(config, 40, np.random.default_rng(1))
    s, u = t.states, t.commands
    for i in range(len(t) - 1):
        predicted = s[i] + 0.3 * (u[i] - s[i])
        np.testing.assert_array_equal(s[i + 1], predicted)


def test_heteroscedastic_noise_scales_with_beta():
    # regress squared translation residuals on the squared noise std:
    # the slope estimates beta^2
    for beta in (0.5, 1.0):
        config = SimConfig(alpha=0.4, beta=beta)
        rng = np.random.default_rng(7)
        state = SimState(1.0, 0.5)
        cmd = np.array([1.0, 0.5])
        resid2, std2 = [], []
        for _ in range(20000):
            new = sim_step(state, cmd, config, rng)
            mean_trans = state.w_trans + 0.4 * (cmd[0] - state.w_trans)
            resid2.append((new.w_trans - mean_trans) ** 2)
            std2.append(trans_noise_std(state) ** 2)
            state = new
        slope = np.sum(np.multiply(resid2, std2)) / np.sum(np.square(std2))
        assert abs(slope - beta**2) / beta**2 < 0.1, f"beta={beta}: slope {slope}"


def test_collect_trials_shapes_labels_and_determinism():
    grid = default_grid(base_seed=5)
    assert len(grid) == 6
    assert [c.label for c in grid[:2]] == ["alpha=0.4,beta=0.1", "alpha=0.4,beta=1.0"]

    t1 = collect_trials(grid, steps_per_trial=30, trials_per_config=2)
    t2 = collect_trials(grid, steps_per_trial=30, trials_per_config=2)
    assert len(t1) == 12
    assert [t.trial_id for t in t1] == list(range(12))
    for a, b in zip(t1, t2):
        np.testing.assert_array_equal(a.states, b.states)
        np.testing.assert_array_equal(a.commands, b.commands)

    # repetitions within a config differ
    assert not np.array_equal(t1[0].states, t1[1].states)


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(alpha=0.0, beta=1.0)
    with pytest.raises(ValueError):
        SimConfig(alpha=1.5, beta=1.0)
    with pytest.raises(ValueError):
        SimConfig(alpha=0.5, beta=-0.1)
    # NaN passed the sign check; every sample of its trials came out NaN
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="beta"):
            SimConfig(alpha=0.5, beta=bad)


@pytest.mark.parametrize("beta", [0.0, 0.1, 1.0])
def test_trial_equals_a_per_tick_reference_bitwise(beta):
    # the columnar trial against one command and one step per tick, as the
    # simulator's own functions run them
    config = SimConfig(alpha=0.5, beta=beta, seed=4)
    trial = run_random_walk_trial(config, 60, np.random.default_rng(9), trial_id=2)
    rng = np.random.default_rng(9)
    state, cmd, states, commands = SimState(0.0, 0.0), np.zeros(2), [], []
    for _ in range(60):
        cmd = random_walk_command(cmd, rng)
        states.append(state.as_array())
        commands.append(cmd)
        state = sim_step(state, cmd, config, rng)
    assert (trial.trial_id, trial.label) == (2, config.label)
    assert trial.states.tobytes() == np.array(states).tobytes()
    assert trial.commands.tobytes() == np.array(commands).tobytes()
    assert trial.ticks.tolist() == list(range(60))

import hashlib

import numpy as np
import pytest

from spnpb.adaptation import GRAD_CLIP, AdaptBuffer, LivePB, NotReadyError, adapt_step, buffer_nll
from spnpb.evaluate import NLL_FD_STEP, finite_diff, rel_err
from spnpb.optim import NonFiniteGradientError
from spnpb.model import ModelConfig, ModelParams, NormStats, RecurrentState, forward
from spnpb.training import nll_element


def unit_stats():
    return NormStats(np.zeros(2), np.ones(2), np.zeros(2), np.ones(2))


def make_params(seed=0):
    cfg = ModelConfig(n_s=2, n_u=2)
    return ModelParams.init(cfg, unit_stats(), np.random.default_rng(seed))


def sample(tick, seed=None):
    """One tick's (s, u, tick), the arguments push takes before the snapshot."""
    rng = np.random.default_rng(tick if seed is None else seed)
    return rng.normal(size=2), rng.normal(size=2), tick


def fill(buffer, n, start=0):
    for t in range(start, start + n):
        buffer.push(*sample(t), RecurrentState.zeros())


def weight_hash(params):
    digest = hashlib.sha256()
    for a in params.weight_arrays():
        digest.update(a.tobytes())
    return digest.hexdigest()


def test_update_ready_is_strictly_above_threshold():
    buf = AdaptBuffer(n_thre=10, n_max=50)
    fill(buf, 9)
    assert not buf.update_ready()
    buf.push(*sample(9), RecurrentState.zeros())
    assert len(buf) == 10
    assert not buf.update_ready()
    buf.push(*sample(10), RecurrentState.zeros())
    assert buf.update_ready()


def test_buffer_evicts_oldest_at_capacity():
    buf = AdaptBuffer(n_thre=10, n_max=50)
    fill(buf, 51)
    assert len(buf) == 50
    # oldest surviving entry is the second push (tick 1)
    np.testing.assert_array_equal(buf.states()[0], sample(1)[0])
    np.testing.assert_array_equal(buf.states()[-1], sample(50)[0])


def test_buffer_rejects_nonmonotone_ticks():
    buf = AdaptBuffer()
    buf.push(*sample(5), RecurrentState.zeros())
    with pytest.raises(ValueError):
        buf.push(*sample(5), RecurrentState.zeros())
    with pytest.raises(ValueError):
        buf.push(*sample(3), RecurrentState.zeros())


def test_buffer_push_rejects_non_finite_values():
    buf = AdaptBuffer()
    buf.push(*sample(0), RecurrentState.zeros())
    with pytest.raises(ValueError):
        buf.push(np.array([np.nan, 0.0]), np.zeros(2), 1, RecurrentState.zeros())
    with pytest.raises(ValueError):
        buf.push(np.zeros(2), np.array([np.inf, 0.0]), 2, RecurrentState.zeros())
    assert len(buf) == 1
    buf.push(*sample(1), RecurrentState.zeros())  # the rejected ticks left no trace
    np.testing.assert_array_equal(buf.states(), [sample(0)[0], sample(1)[0]])


def test_buffer_push_keeps_its_own_copies():
    s, u, tick = sample(0)
    buf = AdaptBuffer()
    buf.push(s, u, tick, RecurrentState.zeros())
    s[0] = u[0] = 99.0
    np.testing.assert_array_equal(buf.states()[0], sample(0)[0])
    np.testing.assert_array_equal(buf.commands()[0], sample(0)[1])


def test_buffer_validates_thresholds():
    with pytest.raises(ValueError):
        AdaptBuffer(n_thre=0)
    with pytest.raises(ValueError):
        AdaptBuffer(n_thre=60, n_max=50)


def test_snapshot_tracks_the_oldest_entry():
    buf = AdaptBuffer(n_thre=2, n_max=3)
    marker = RecurrentState(np.full(10, 7.0), np.zeros(10), np.zeros(10), np.zeros(10))
    buf.push(*sample(0), marker)
    fill(buf, 2, start=1)
    assert buf.snapshot is marker
    buf.push(*sample(3), RecurrentState.zeros())  # evicts tick 0
    assert buf.snapshot is not marker


def test_replay_workspace_is_kept_while_the_length_and_config_hold():
    buf = AdaptBuffer(n_thre=2, n_max=4)
    fill(buf, 4)
    cfg = ModelConfig(n_s=2, n_u=2)
    ws = buf.replay_workspace(cfg)
    assert (ws.config, ws.B, ws.T) == (cfg, 1, 4)
    assert buf.replay_workspace(ModelConfig(n_s=2, n_u=2)) is ws  # an equal config
    fill(buf, 1, start=4)  # evicts one: the length holds
    assert buf.replay_workspace(cfg) is ws
    other = buf.replay_workspace(ModelConfig(n_s=2, n_u=2, n_p=3))
    assert other is not ws and other.config.n_p == 3
    buf.release_workspace()
    assert buf.replay_workspace(ModelConfig(n_s=2, n_u=2, n_p=3)) is not other

    short = AdaptBuffer(n_thre=2, n_max=4)
    fill(short, 3)
    assert short.replay_workspace(cfg).T == 3
    fill(short, 1, start=3)
    assert short.replay_workspace(cfg).T == 4


def test_adapt_step_follows_a_change_of_model_config():
    # the kept workspace of one config is replaced for another; the step
    # equals a step on a fresh buffer
    buf, fresh = AdaptBuffer(n_thre=5, n_max=20), AdaptBuffer(n_thre=5, n_max=20)
    fill(buf, 12)
    fill(fresh, 12)
    adapt_step(make_params(3), buf, LivePB.zeros())
    cfg = ModelConfig(n_s=2, n_u=2, n_p=3)
    params = ModelParams.init(cfg, unit_stats(), np.random.default_rng(4))
    a, b = adapt_step(params, buf, LivePB.zeros(3)), adapt_step(params, fresh, LivePB.zeros(3))
    assert a.p.tobytes() == b.p.tobytes()


def test_adapt_step_requires_a_ready_buffer():
    params = make_params()
    buf = AdaptBuffer(n_thre=10, n_max=50)
    fill(buf, 10)
    with pytest.raises(NotReadyError):
        adapt_step(params, buf, LivePB.zeros())


def test_adapt_step_never_touches_the_weights():
    params = make_params(seed=1)
    before = weight_hash(params)
    buf = AdaptBuffer(n_thre=4, n_max=10)
    fill(buf, 8)
    live = LivePB.zeros()
    for _ in range(5):
        adapt_step(params, buf, live)
    assert weight_hash(params) == before
    assert np.any(live.p != 0)


def test_adapt_step_with_zero_gradient_only_coasts():
    # zeroing the first input layer's weight columns for p makes the loss
    # exactly independent of p, so its gradient is exactly zero
    params = make_params(seed=2)
    first = params.dense_in[0]
    n_u, n_s = params.config.n_u, params.config.n_s
    first.W[:, n_u + n_s:] = 0.0

    buf = AdaptBuffer(n_thre=4, n_max=10)
    fill(buf, 8)

    live = LivePB.zeros()
    adapt_step(params, buf, live)
    np.testing.assert_array_equal(live.p, np.zeros(2))

    # seed a velocity, then confirm a zero-gradient step is pure coasting
    live.momentum.velocity = [np.array([0.04, -0.02])]
    adapt_step(params, buf, live)
    np.testing.assert_allclose(live.p, [0.9 * 0.04, 0.9 * -0.02], atol=1e-15)


def test_buffer_nll_matches_replay_from_snapshot():
    params = make_params(seed=3)
    buf = AdaptBuffer(n_thre=3, n_max=6)
    snap = RecurrentState(
        np.full(10, 0.1), np.full(10, -0.2), np.zeros(10), np.full(10, 0.05)
    )
    buf.push(*sample(0), snap)
    fill(buf, 5, start=1)

    p = np.array([0.3, -0.1])
    got = buffer_nll(params, p, buf)

    # the one-step forward chain from the oldest snapshot
    states_n = params.stats.normalize_state(buf.states())
    commands_n = params.stats.normalize_command(buf.commands())
    state, total = snap, 0.0
    for t in range(len(buf) - 1):
        pred, state = forward(params, state, states_n[t], commands_n[t], p)
        for d in range(2):
            total += nll_element(pred.mean[d], pred.variance[d], states_n[t + 1, d])
    # buffer_nll reports the mean NLL per replayed step
    assert abs(got - total / (len(buf) - 1)) < 1e-12


def test_adapt_step_descends_the_mean_replay_nll():
    # from rest, one step is -lr times the gradient of buffer_nll, taken
    # here by central differences; the gradient stays under the clip so
    # its scale shows
    params = make_params(seed=5)
    buf = AdaptBuffer(n_thre=4, n_max=10)
    fill(buf, 9)
    live = LivePB.zeros(params.config.n_p)
    p0 = live.p.copy()

    grad = finite_diff(lambda: buffer_nll(params, p0, buf), p0, h=NLL_FD_STEP)
    assert 0 < np.linalg.norm(grad) < GRAD_CLIP
    adapt_step(params, buf, live)
    step = (live.p - p0) / -live.momentum.lr
    for a, n in zip(step, grad):
        assert rel_err(a, n) <= 1e-4


def test_adapt_step_is_deterministic():
    def run():
        params = make_params(seed=4)
        buf = AdaptBuffer(n_thre=4, n_max=10)
        fill(buf, 9)
        live = LivePB.zeros()
        for _ in range(3):
            adapt_step(params, buf, live)
        return live.p.copy()

    assert np.array_equal(run(), run())


def test_live_pb_starting_point():
    live = LivePB.zeros(n_p=3, lr=0.07, momentum=0.8)
    np.testing.assert_array_equal(live.p, np.zeros(3))
    assert live.momentum.lr == 0.07
    assert live.momentum.momentum == 0.8


def test_adapt_step_size_is_clip_bounded():
    # first step from rest: |dp| <= lr * clip, the momentum buffer is empty
    params = make_params()
    buf = AdaptBuffer(n_thre=5, n_max=20)
    fill(buf, 12)
    live = LivePB.zeros(params.config.n_p)
    before = live.p.copy()
    adapt_step(params, buf, live)
    step = np.linalg.norm(live.p - before)
    assert step > 0
    assert step <= live.momentum.lr * GRAD_CLIP + 1e-12


def test_non_finite_gradient_leaves_the_live_bias_untouched():
    params = make_params(seed=8)
    buf = AdaptBuffer(n_thre=4, n_max=10)
    fill(buf, 9)
    live = LivePB.zeros(params.config.n_p)
    adapt_step(params, buf, live)
    p_before = live.p.copy()
    velocity_before = [v.copy() for v in live.momentum.velocity]
    params.dense_in[0].W[0, 0] = np.nan
    with np.errstate(all="ignore"), pytest.raises(NonFiniteGradientError):
        adapt_step(params, buf, live)
    np.testing.assert_array_equal(live.p, p_before)
    np.testing.assert_array_equal(live.momentum.velocity[0], velocity_before[0])

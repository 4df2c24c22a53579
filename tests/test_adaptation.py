import hashlib

import numpy as np
import pytest

from spnpb.adaptation import GRAD_CLIP, AdaptBuffer, LivePB, NotReadyError, adapt_step, buffer_nll
from spnpb.dataset import TimedSample
from spnpb.optim import NonFiniteGradientError
from spnpb.model import ModelConfig, ModelParams, NormStats, RecurrentState


def unit_stats():
    return NormStats(np.zeros(2), np.ones(2), np.zeros(2), np.ones(2))


def make_params(seed=0):
    cfg = ModelConfig(n_s=2, n_u=2)
    return ModelParams.init(cfg, unit_stats(), np.random.default_rng(seed))


def sample(tick, seed=None):
    rng = np.random.default_rng(tick if seed is None else seed)
    return TimedSample(rng.normal(size=2), rng.normal(size=2), tick)


def fill(buffer, n, start=0):
    for t in range(start, start + n):
        buffer.push(sample(t), RecurrentState.zeros())


def weight_hash(params):
    digest = hashlib.sha256()
    for a in params.weight_arrays():
        digest.update(a.tobytes())
    return digest.hexdigest()


def test_update_ready_is_strictly_above_threshold():
    buf = AdaptBuffer(n_thre=10, n_max=50)
    fill(buf, 9)
    assert not buf.update_ready()
    buf.push(sample(9), RecurrentState.zeros())
    assert len(buf) == 10
    assert not buf.update_ready()
    buf.push(sample(10), RecurrentState.zeros())
    assert buf.update_ready()


def test_buffer_evicts_oldest_at_capacity():
    buf = AdaptBuffer(n_thre=10, n_max=50)
    fill(buf, 51)
    assert len(buf) == 50
    # oldest surviving entry is the second push (tick 1)
    np.testing.assert_array_equal(buf.states()[0], sample(1).s)
    np.testing.assert_array_equal(buf.states()[-1], sample(50).s)


def test_buffer_rejects_nonmonotone_ticks():
    buf = AdaptBuffer()
    buf.push(sample(5), RecurrentState.zeros())
    with pytest.raises(ValueError):
        buf.push(sample(5), RecurrentState.zeros())
    with pytest.raises(ValueError):
        buf.push(sample(3), RecurrentState.zeros())


def test_buffer_validates_thresholds():
    with pytest.raises(ValueError):
        AdaptBuffer(n_thre=0)
    with pytest.raises(ValueError):
        AdaptBuffer(n_thre=60, n_max=50)


def test_snapshot_tracks_the_oldest_entry():
    buf = AdaptBuffer(n_thre=2, n_max=3)
    marker = RecurrentState(np.full(10, 7.0), np.zeros(10), np.zeros(10), np.zeros(10))
    buf.push(sample(0), marker)
    fill(buf, 2, start=1)
    assert buf.snapshot is marker
    buf.push(sample(3), RecurrentState.zeros())  # evicts tick 0
    assert buf.snapshot is not marker


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
    first.W.value[:, n_u + n_s:] = 0.0

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
    from spnpb.autodiff import Tape, Var
    from spnpb.training import sequence_nll_node

    params = make_params(seed=3)
    buf = AdaptBuffer(n_thre=3, n_max=6)
    snap = RecurrentState(
        np.full(10, 0.1), np.full(10, -0.2), np.zeros(10), np.full(10, 0.05)
    )
    buf.push(sample(0), snap)
    fill(buf, 5, start=1)

    p = np.array([0.3, -0.1])
    got = buffer_nll(params, p, buf)

    tape = Tape()
    loss = sequence_nll_node(
        params, Var(p.copy()),
        params.stats.normalize_state(buf.states()),
        params.stats.normalize_command(buf.commands()),
        tape, init_state=snap,
    )
    # buffer_nll reports the mean NLL per replayed step
    assert abs(got - float(loss.value) / (len(buf) - 1)) < 1e-12


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
    params.dense_in[0].W.value[0, 0] = np.nan
    with np.errstate(all="ignore"), pytest.raises(NonFiniteGradientError):
        adapt_step(params, buf, live)
    np.testing.assert_array_equal(live.p, p_before)
    np.testing.assert_array_equal(live.momentum.velocity[0], velocity_before[0])

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from spnpb.autodiff import ShapeError
from spnpb.dataset import Trial
from spnpb.evaluate import NLL_FD_STEP, finite_diff, rel_err
from spnpb.layers import DenseLayer
from spnpb.model import ModelConfig, ModelParams, RecurrentState, forward
from spnpb.training import (
    LOG_2PI,
    GaussianHeadBuffers,
    NllWorkspace,
    TrainConfig,
    TrainingDivergedError,
    batch_nll,
    compute_norm_stats,
    gaussian_head_forward,
    gaussian_head_reverse,
    nll_element,
    train,
    trial_nll,
)

HALF_LOG_2PI = 0.9189385332046727


def trial_from_arrays(states, commands, trial_id=0, label=""):
    return Trial(trial_id, label, states=states, commands=commands,
                 ticks=range(len(states)))


def random_trial(seed, n=20, trial_id=0, label=""):
    rng = np.random.default_rng(seed)
    return trial_from_arrays(
        rng.normal(size=(n, 2)), rng.normal(size=(n, 2)), trial_id, label
    )


def linear_dynamics_trial(seed=0, n=50):
    # s_{t+1} = 0.8 s_t + 0.2 u_t, a deterministic plant the net can nail
    rng = np.random.default_rng(seed)
    s = np.zeros((n, 2))
    u = rng.uniform(-1.0, 1.0, size=(n, 2))
    for t in range(n - 1):
        s[t + 1] = 0.8 * s[t] + 0.2 * u[t]
    return trial_from_arrays(s, u)


def test_norm_stats_two_sample_oracle():
    t = trial_from_arrays(
        np.array([[0.0, 10.0], [2.0, 14.0]]),
        np.array([[1.0, -1.0], [3.0, -5.0]]),
    )
    stats = compute_norm_stats([t])
    np.testing.assert_allclose(stats.mean_s, [1.0, 12.0], atol=1e-15)
    np.testing.assert_allclose(stats.std_s, [1.0, 2.0], atol=1e-15)
    np.testing.assert_allclose(stats.mean_u, [2.0, -3.0], atol=1e-15)
    np.testing.assert_allclose(stats.std_u, [1.0, 2.0], atol=1e-15)


def test_norm_stats_pool_across_trials_and_ignore_trial_order():
    # summation order may differ by an ulp, nothing more
    a, b = random_trial(1, trial_id=0), random_trial(2, trial_id=1)
    s1 = compute_norm_stats([a, b])
    s2 = compute_norm_stats([b, a])
    np.testing.assert_allclose(s1.mean_s, s2.mean_s, rtol=0, atol=1e-12)
    np.testing.assert_allclose(s1.std_u, s2.std_u, rtol=0, atol=1e-12)


def test_norm_stats_floor_degenerate_dimensions():
    states = np.tile([3.0, 1.0], (5, 1))
    t = trial_from_arrays(states, np.random.default_rng(0).normal(size=(5, 2)))
    stats = compute_norm_stats([t])
    assert stats.std_s[0] == 1e-6
    assert np.isfinite(stats.normalize_state(states[0])).all()


def test_nll_element_exact_values():
    assert abs(nll_element(0.0, 1.0, 0.0) - 0.5 * math.log(2 * math.pi)) < 1e-12
    # residual 2, variance 4: 0.5*log(8*pi) + 4/8
    expected = 0.5 * math.log(2 * math.pi * 4.0) + 0.5
    assert abs(nll_element(3.0, 4.0, 1.0) - expected) < 1e-12
    with pytest.raises(ValueError):
        nll_element(0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        nll_element(0.0, -1.0, 0.0)


def test_zero_model_on_constant_data_gives_closed_form_loss():
    # constant data normalizes to exactly zero (0.5 sums exactly), and a
    # zero-weight model predicts mean 0, variance 1, so each of the
    # (T-1)*n_s elements contributes exactly half of log(2*pi)
    T = 9
    t = trial_from_arrays(np.full((T, 2), 0.5), np.full((T, 2), 0.5))
    stats = compute_norm_stats([t])
    cfg = ModelConfig(n_s=2, n_u=2)
    params = ModelParams.init(cfg, stats, np.random.default_rng(0), n_trials=1)
    for w in params.weight_arrays():
        w[...] = 0.0
    loss = trial_nll(params, np.zeros(2), t, stats)
    assert abs(loss - (T - 1) * 2 * HALF_LOG_2PI) < 1e-10


def test_trial_loss_equals_sum_of_elementwise_terms():
    t = random_trial(3, n=12)
    stats = compute_norm_stats([t])
    cfg = ModelConfig(n_s=2, n_u=2)
    params = ModelParams.init(cfg, stats, np.random.default_rng(4), n_trials=1)
    p = np.array([0.3, -0.2])

    total = trial_nll(params, p, t, stats)

    s_n = stats.normalize_state(t.states)
    u_n = stats.normalize_command(t.commands)
    state = RecurrentState.zeros()
    manual = 0.0
    for i in range(len(t) - 1):
        pred, state = forward(params, state, s_n[i], u_n[i], p)
        for d in range(2):
            manual += nll_element(pred.mean[d], pred.variance[d], s_n[i + 1][d])
    assert abs(total - manual) < 1e-10


def test_sequence_nll_gradient_wrt_bias_matches_finite_differences():
    t = random_trial(5, n=8)
    stats = compute_norm_stats([t])
    cfg = ModelConfig(n_s=2, n_u=2)
    params = ModelParams.init(cfg, stats, np.random.default_rng(6), n_trials=1)
    p = np.array([0.1, -0.4])
    s_n = stats.normalize_state(t.states)
    u_n = stats.normalize_command(t.commands)

    _, reverse = batch_nll(params, p[None], s_n[None], u_n[None])
    grad = reverse(1.0)[1][0]

    h = 1e-5
    for j in range(2):
        pp, pm = p.copy(), p.copy()
        pp[j] += h
        pm[j] -= h
        hi = trial_nll(params, pp, t, stats)
        lo = trial_nll(params, pm, t, stats)
        numeric = (hi - lo) / (2 * h)
        err = abs(grad[j] - numeric) / max(abs(grad[j]), abs(numeric), 1e-6)
        assert err <= 1e-4


def test_training_reduces_loss_on_linear_dynamics():
    t = linear_dynamics_trial()
    losses = []
    train(
        [t],
        TrainConfig(epochs=200, seed=0),
        on_epoch=lambda e, loss: losses.append(loss),
    )
    assert losses[-1] < 0.5 * losses[0], f"{losses[0]} -> {losses[-1]}"


def test_training_on_constant_data_is_almost_monotone():
    # over the descent phase the loss may rise on at most 5% of epochs;
    # once it reaches the variance-clamp plateau Adam oscillates freely,
    # so the window stops before that
    t = trial_from_arrays(np.full((15, 2), 0.5), np.full((15, 2), 0.25))
    losses = []
    train(
        [t],
        TrainConfig(epochs=60, seed=1),
        on_epoch=lambda e, loss: losses.append(loss),
    )
    rises = sum(1 for a, b in zip(losses, losses[1:]) if b > a + 1e-9)
    assert rises <= 3, f"{rises} rises in 60 epochs"
    assert losses[-1] < losses[0]


def test_pb_rows_are_isolated_per_trial():
    # a batch's bias gradient row b depends on sequence b alone: trial a's
    # row reads the same beside trial b, beside a different b, and alone
    a, b = random_trial(10, trial_id=0), random_trial(11, trial_id=1)
    stats = compute_norm_stats([a, b])
    cfg = ModelConfig(n_s=2, n_u=2)
    params = ModelParams.init(cfg, stats, np.random.default_rng(0), n_trials=2)
    params.pb_table[:] = [[0.2, -0.1], [0.4, 0.3]]

    def d_p(trials, p):
        _, reverse = batch_nll(
            params, p, np.stack([stats.normalize_state(t.states) for t in trials]),
            np.stack([stats.normalize_command(t.commands) for t in trials]))
        return reverse(1.0)[1]

    pair = d_p([a, b], params.pb_table)
    assert np.all(pair != 0)
    other = d_p([a, random_trial(12, trial_id=1)], params.pb_table * [[1.0], [-2.0]])
    alone = d_p([a], params.pb_table[:1])
    assert_allclose(other[0], pair[0], rtol=1e-12)
    assert_allclose(alone[0], pair[0], rtol=1e-12)
    assert np.all(other[1] != pair[1])


def test_every_pb_row_moves_within_one_epoch():
    trials = [random_trial(s, trial_id=s) for s in range(3)]
    params = train(trials, TrainConfig(epochs=1, seed=0))
    for k in range(3):
        assert np.any(params.pb_table[k] != 0), f"row {k} never updated"


def test_per_trial_loss_ignores_evaluation_order():
    trials = [random_trial(s, trial_id=s) for s in range(4)]
    stats = compute_norm_stats(trials)
    cfg = ModelConfig(n_s=2, n_u=2)
    params = ModelParams.init(cfg, stats, np.random.default_rng(1), n_trials=4)
    p = np.zeros(2)
    forward_order = [trial_nll(params, p, t, stats) for t in trials]
    reverse_order = [trial_nll(params, p, t, stats) for t in reversed(trials)]
    assert forward_order == list(reversed(reverse_order))


def test_divergence_raises_with_epoch_number():
    t = random_trial(13)
    with pytest.raises(TrainingDivergedError) as err:
        with np.errstate(all="ignore"):
            train([t], TrainConfig(epochs=5, lr_weights=1e160, seed=0))
    assert err.value.epoch >= 1
    assert "epoch" in str(err.value)


def test_non_finite_gradient_stops_training_before_any_update(monkeypatch):
    # the loss stays finite; only the gradient of epoch 1 is poisoned, and
    # no Adam step of that epoch may run
    import spnpb.training as training

    calls = {"reverse": 0, "adam": 0}
    real_nll, real_adam = training.batch_nll, training.adam_update

    def poisoned_nll(*args, **kwargs):
        loss, reverse = real_nll(*args, **kwargs)

        def poisoned_reverse(g):
            w_grads, d_p = reverse(g)
            calls["reverse"] += 1
            if calls["reverse"] == 2:
                w_grads = [np.full_like(w, np.nan) for w in w_grads]
                d_p = np.full_like(d_p, np.nan)
            return w_grads, d_p

        return loss, poisoned_reverse

    def counting_adam(*args, **kwargs):
        calls["adam"] += 1
        return real_adam(*args, **kwargs)

    monkeypatch.setattr(training, "batch_nll", poisoned_nll)
    monkeypatch.setattr(training, "adam_update", counting_adam)
    trials = [random_trial(13, trial_id=0), random_trial(14, trial_id=1)]
    with pytest.raises(TrainingDivergedError) as err:
        train(trials, TrainConfig(epochs=5, seed=0))
    assert err.value.epoch == 1
    assert calls["adam"] == 3  # epoch 0 only: the weights and two bias rows


def test_train_runs_on_one_blas_thread_and_restores_the_count():
    import spnpb.training as training

    blas = training._bundled_openblas()
    if blas is None:
        pytest.skip("numpy has no bundled OpenBLAS")
    get, put = blas
    before = get()
    put(2)
    try:
        seen = []
        train([random_trial(13)], TrainConfig(epochs=2, seed=0),
              on_epoch=lambda epoch, loss: seen.append(get()))
        assert seen == [1, 1]
        assert get() == 2
        with pytest.raises(TrainingDivergedError), np.errstate(all="ignore"):
            train([random_trial(13)], TrainConfig(epochs=5, lr_weights=1e160, seed=0))
        assert get() == 2
    finally:
        put(before)


def test_train_keeps_labels_and_row_order():
    trials = [
        random_trial(20, trial_id=0, label="env-a"),
        random_trial(21, trial_id=1, label="env-b"),
    ]
    params = train(trials, TrainConfig(epochs=1, seed=0))
    assert params.pb_labels == ["env-a", "env-b"]
    assert params.pb_table.shape == (2, 2)


def test_train_input_validation():
    with pytest.raises(ValueError):
        train([], TrainConfig(epochs=1))
    short = trial_from_arrays(np.zeros((1, 2)), np.zeros((1, 2)))
    with pytest.raises(ValueError):
        train([short], TrainConfig(epochs=1))


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(lr_weights=0.0)
    with pytest.raises(ValueError):
        TrainConfig(lr_pb=-1.0)
    with pytest.raises(ValueError):
        TrainConfig(grad_clip=0.0)
    for name in ("lr_weights", "lr_pb", "grad_clip"):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match=name):
                TrainConfig(**{name: bad})
    with pytest.raises(ValueError):
        TrainConfig(lr_decay=0.0)
    with pytest.raises(ValueError):
        TrainConfig(lr_decay=1.5)
    with pytest.raises(ValueError):
        TrainConfig(lr_decay_pb=0.0)


def test_lr_schedule_endpoints_and_shape():
    cfg = TrainConfig(epochs=11, lr_decay=0.01)
    factors = [cfg.lr_factor(e) for e in range(11)]
    assert factors[0] == 1.0
    assert abs(factors[-1] - 0.01) < 1e-15
    # exponential interpolation: constant ratio between consecutive epochs
    ratios = [b / a for a, b in zip(factors, factors[1:])]
    assert_allclose(ratios, ratios[0], rtol=1e-12)
    assert all(b < a for a, b in zip(factors, factors[1:]))

    flat = TrainConfig(epochs=11)
    assert [flat.lr_factor(e) for e in range(11)] == [1.0] * 11
    # a single epoch must not divide by zero
    assert TrainConfig(epochs=1, lr_decay=0.1).lr_factor(0) == 1.0
    # the bias schedule is independent of the weight schedule
    cfg = TrainConfig(epochs=11, lr_decay=0.01, lr_decay_pb=1.0)
    assert cfg.lr_factor(10, cfg.lr_decay_pb) == 1.0
    assert abs(cfg.lr_factor(10) - 0.01) < 1e-15


def test_batched_loss_and_grads_match_sequential_reference():
    # the trainer's batched pass must agree with per-trial passes at the
    # same parameters: loss to summation order, every gradient to 1e-10
    trials = [random_trial(40 + k, n=12, trial_id=k) for k in range(3)]
    stats = compute_norm_stats(trials)
    cfg = ModelConfig(n_s=2, n_u=2)
    params = ModelParams.init(cfg, stats, np.random.default_rng(3), n_trials=3)
    params.pb_table[:] = np.random.default_rng(9).normal(size=(3, 2)) * 0.3

    ref_loss = 0.0
    ref_w = None
    ref_p = []
    for k, t in enumerate(trials):
        loss, reverse = batch_nll(
            params, params.pb_table[k:k + 1],
            stats.normalize_state(t.states)[None], stats.normalize_command(t.commands)[None])
        ref_loss += loss
        ws, d_p = reverse(1.0)
        ref_p.append(d_p[0])
        ref_w = ws if ref_w is None else [a + b for a, b in zip(ref_w, ws)]

    loss, reverse = batch_nll(
        params, params.pb_table,
        np.stack([stats.normalize_state(t.states) for t in trials]),
        np.stack([stats.normalize_command(t.commands) for t in trials]))
    w_grads, d_p = reverse(1.0)

    assert abs(loss - ref_loss) <= 1e-10 * abs(ref_loss)
    for got, want in zip(w_grads, ref_w):
        assert_allclose(got, want, rtol=1e-10, atol=1e-13)
    for got, want in zip(d_p, ref_p):
        assert_allclose(got, want, rtol=1e-10, atol=1e-13)


@pytest.mark.parametrize("B", [1, 3])
def test_batch_nll_with_init_state_matches_per_step_forward(B):
    # every sequence starts from the same non-zero state.  Values: the
    # one-step forward chain with one nll_element per step and dimension.
    # Gradients: each row's B=1 run (per row for p, summed over rows for the
    # weights), and central differences of the batched loss.
    rng = np.random.default_rng(20 + B)
    T = 9
    stats = compute_norm_stats([random_trial(60 + B, n=T)])
    params = ModelParams.init(ModelConfig(n_s=2, n_u=2), stats, rng)
    states_n = rng.normal(size=(B, T, 2))
    commands_n = rng.normal(size=(B, T, 2))
    p_rows = rng.normal(scale=0.5, size=(B, 2))
    init = RecurrentState(*(rng.normal(scale=0.4, size=10) for _ in range(4)))

    ref = 0.0
    for b in range(B):
        state = init
        for t in range(T - 1):
            pred, state = forward(params, state, states_n[b, t], commands_n[b, t], p_rows[b])
            for d in range(2):
                ref += nll_element(pred.mean[d], pred.variance[d], states_n[b, t + 1, d])

    def batch_loss(rows=slice(None)):
        return batch_nll(params, p_rows[rows], states_n[rows], commands_n[rows],
                         init_state=init)

    loss, reverse = batch_loss()
    w_grads, d_p = reverse(1.0)
    assert abs(loss - ref) <= 1e-10 * abs(ref)

    ref_w = None
    for b in range(B):
        ws, d_p_b = batch_loss(slice(b, b + 1))[1](1.0)
        assert_allclose(d_p[b], d_p_b[0], rtol=1e-10, atol=1e-13)
        ref_w = ws if ref_w is None else [a + w for a, w in zip(ref_w, ws)]
    for got, want in zip(w_grads, ref_w):
        assert_allclose(got, want, rtol=1e-10, atol=1e-13)

    def loss_value():
        return batch_loss()[0]

    numeric = finite_diff(loss_value, p_rows, h=NLL_FD_STEP)
    for b in range(B):
        for a, n in zip(d_p[b], numeric[b]):
            assert rel_err(a, n) <= 1e-4
    for w, analytic in zip(params.weight_arrays(), w_grads):
        flat, analytic = w.ravel(), analytic.ravel()
        for i in rng.choice(flat.size, size=min(2, flat.size), replace=False):
            keep = flat[i]
            flat[i] = keep + NLL_FD_STEP
            hi = loss_value()
            flat[i] = keep - NLL_FD_STEP
            lo = loss_value()
            flat[i] = keep
            assert rel_err(analytic[i], (hi - lo) / (2 * NLL_FD_STEP)) <= 1e-4


def test_first_epoch_loss_equals_sum_of_initial_trial_losses():
    # mixed lengths force two batch buckets; the reported epoch loss is
    # still the plain sum over trials at the starting parameters
    trials = [
        random_trial(50, n=8, trial_id=0),
        random_trial(51, n=12, trial_id=1),
        random_trial(52, n=8, trial_id=2),
    ]
    stats = compute_norm_stats(trials)
    cfg = ModelConfig(n_s=2, n_u=2)
    init = ModelParams.init(cfg, stats, np.random.default_rng(17), n_trials=3)
    want = sum(trial_nll(init, np.zeros(2), t, stats) for t in trials)

    losses = []
    train(trials, TrainConfig(epochs=1, seed=17),
          on_epoch=lambda e, loss: losses.append(loss))
    assert abs(losses[0] - want) <= 1e-10 * abs(want)


def test_training_handles_mixed_trial_lengths():
    trials = [random_trial(60, n=10, trial_id=0), random_trial(61, n=15, trial_id=1)]
    losses = []
    params = train(trials, TrainConfig(epochs=40, seed=2),
                   on_epoch=lambda e, loss: losses.append(loss))
    assert losses[-1] < losses[0]
    assert np.all(params.pb_table != 0.0)


def nll_problem(seed, B=3, T=7):
    rng = np.random.default_rng(seed)
    stats = compute_norm_stats([random_trial(seed, n=T)])
    params = ModelParams.init(ModelConfig(n_s=2, n_u=2), stats, rng)
    states_n, commands_n = rng.normal(size=(B, T, 2)), rng.normal(size=(B, T, 2))
    init = RecurrentState(*(rng.normal(scale=0.4, size=10) for _ in range(4)))
    return params, states_n, commands_n, init, rng


def nll_and_grads(params, p, states_n, commands_n, init, workspace=None):
    loss, reverse = batch_nll(params, p, states_n, commands_n, init_state=init,
                              workspace=workspace)
    w_grads, d_p = reverse(1.0)
    return loss, [*w_grads, d_p]


def test_clamped_logvar_entries_get_exactly_zero_gradient():
    # the first logvar output is driven far above the clamp on every row, so
    # its output-layer row and bias get exactly zero; the rest still match
    # central differences
    params, states_n, commands_n, init, rng = nll_problem(70)
    last = params.dense_out[-1]
    last.b[2] = 40.0
    p = rng.normal(scale=0.5, size=(3, 2))
    _, grads = nll_and_grads(params, p, states_n, commands_n, init)
    g_w, g_b = grads[-3], grads[-2]  # the output layer's, just before p's
    assert np.all(g_w[2] == 0.0) and g_b[2] == 0.0
    assert np.all(g_w[3] != 0.0) and g_b[3] != 0.0

    def loss_value():
        return batch_nll(params, p, states_n, commands_n, init_state=init)[0]

    numeric = finite_diff(loss_value, p, h=NLL_FD_STEP)
    for a, n in zip(grads[-1].ravel(), numeric.ravel()):
        assert rel_err(a, n) <= 1e-4
    for i in (2, 3):
        keep = last.b[i]
        last.b[i] = keep + NLL_FD_STEP
        hi = loss_value()
        last.b[i] = keep - NLL_FD_STEP
        lo = loss_value()
        last.b[i] = keep
        assert rel_err(g_b[i], (hi - lo) / (2 * NLL_FD_STEP)) <= 1e-4


def test_reused_workspace_matches_fresh_bitwise():
    # two calls through one workspace, with different weights and p, give
    # the bytes of two calls with fresh workspaces
    params, states_n, commands_n, init, rng = nll_problem(71)
    workspace = NllWorkspace(params.config, 3, 7)
    for _ in range(2):
        for w in params.weight_arrays():
            w += rng.normal(scale=0.05, size=w.shape)
        p = rng.normal(scale=0.5, size=(3, 2))
        fresh_loss, fresh = nll_and_grads(params, p, states_n, commands_n, init)
        loss, grads = nll_and_grads(params, p, states_n, commands_n, init, workspace)
        assert loss == fresh_loss
        for a, b in zip(grads, fresh):
            assert np.array_equal(a, b)


def test_workspace_footprint_on_the_standard_grid():
    # 18 trials of 200 steps: the reverse keeps its gradients in the spent
    # activations and one flat scratch, not in a gradient buffer per layer
    ws = NllWorkspace(ModelConfig(2, 2), 18, 200)
    owners = (ws, ws.head, ws.lstms)
    arrays = [a for owner in owners for v in vars(owner).values()
              for a in (v if isinstance(v, list) else [v]) if isinstance(a, np.ndarray)]
    assert all(a.base is None for a in arrays)  # no view counted twice
    assert sum(a.nbytes for a in arrays) <= 16.5 * 2**20


def test_workspace_holds_one_pending_record_of_its_own_shape():
    params, states_n, commands_n, init, _ = nll_problem(72)
    workspace = NllWorkspace(params.config, 3, 7)
    p = np.zeros((3, 2))
    _, reverse = batch_nll(params, p, states_n, commands_n, workspace=workspace)
    with pytest.raises(RuntimeError):  # the first forward still needs its activations
        batch_nll(params, p, states_n, commands_n, workspace=workspace)
    reverse(1.0)
    with pytest.raises(RuntimeError):  # one forward allows one reverse
        reverse(1.0)
    batch_nll(params, p, states_n, commands_n, workspace=workspace)

    with pytest.raises(ShapeError):  # another sequence length
        batch_nll(params, p, states_n[:, :6], commands_n[:, :6],
                  workspace=NllWorkspace(params.config, 3, 7))
    with pytest.raises(ShapeError):  # another batch size
        batch_nll(params, np.zeros((2, 2)), states_n[:2], commands_n[:2],
                  workspace=NllWorkspace(params.config, 3, 7))
    with pytest.raises(ShapeError):  # another model
        batch_nll(params, p, states_n, commands_n,
                  workspace=NllWorkspace(ModelConfig(n_s=2, n_u=2, n_p=3), 3, 7))


def test_a_forward_that_raises_leaves_the_workspace_claimable():
    # a start state of the wrong width fails inside the forward, after the
    # claim; a kept workspace must not stay claimed by it
    params, states_n, commands_n, init, _ = nll_problem(74)
    workspace = NllWorkspace(params.config, 3, 7)
    p = np.zeros((3, 2))
    bad = RecurrentState(np.zeros(7), init.c1, init.h2, init.c2)
    with pytest.raises(ShapeError):
        batch_nll(params, p, states_n, commands_n, init_state=bad, workspace=workspace)
    assert not workspace.pending
    loss, grads = nll_and_grads(params, p, states_n, commands_n, init, workspace)
    fresh_loss, fresh = nll_and_grads(params, p, states_n, commands_n, init)
    assert loss == fresh_loss
    assert all(np.array_equal(a, b) for a, b in zip(grads, fresh))


@pytest.mark.parametrize("B", [1, 2, 3, 18])
@pytest.mark.parametrize("T", [2, 7, 50])
def test_bias_only_reverse_gives_the_full_reverse_d_p_bitwise(B, T):
    params, states_n, commands_n, init, rng = nll_problem(75 + B + T, B=B, T=T)
    for w in params.weight_arrays():
        w += rng.normal(scale=0.1, size=w.shape)
    p = rng.normal(scale=0.5, size=(B, 2))
    for start in (None, init):
        _, full = batch_nll(params, p, states_n, commands_n, init_state=start)
        _, d_p_full = full(0.37)
        workspace = NllWorkspace(params.config, B, T)
        _, reverse = batch_nll(params, p, states_n, commands_n, init_state=start,
                               workspace=workspace)
        w_grads, d_p = reverse(0.37, weights=False)
        assert w_grads is None
        assert d_p.shape == (B, 2) and d_p.tobytes() == d_p_full.tobytes()
        assert not workspace.pending
        with pytest.raises(RuntimeError):  # released: one forward allows one reverse
            reverse(0.37, weights=False)


def test_batch_nll_rejects_bad_shapes():
    params, states_n, commands_n, _, _ = nll_problem(73)
    p = np.zeros((3, 2))
    with pytest.raises(ShapeError):  # one bias row short
        batch_nll(params, np.zeros((2, 2)), states_n, commands_n)
    with pytest.raises(ShapeError):  # bias rows of the wrong width
        batch_nll(params, np.zeros((3, 3)), states_n, commands_n)
    with pytest.raises(ShapeError):  # commands of another length
        batch_nll(params, p, states_n, commands_n[:, :6])
    with pytest.raises(ShapeError):  # states of the wrong width
        batch_nll(params, p, states_n[..., :1], commands_n)
    with pytest.raises(ValueError):  # no prediction target
        batch_nll(params, p, states_n[:, :1], commands_n[:, :1])


def test_clip_masks_gradient_outside_bounds():
    # the Gaussian head clamps the log variance to [-10, 10]; a clamped
    # entry passes no gradient.  n_s = 1 and an identity output layer, so
    # the input's columns are the mean and the raw log variance.
    last = DenseLayer(np.eye(2), np.zeros(2))
    y = np.array([[0.3, -12.0], [0.3, 0.5], [0.3, 12.0]])
    head = GaussianHeadBuffers(3, 1)
    gaussian_head_forward(last, y, np.zeros((3, 1)), head)
    np.testing.assert_array_equal(head.lv[:, 0], [-10.0, 0.5, 10.0])
    dy = np.empty((3, 2))
    gaussian_head_reverse(last, y, head, 1.0, dy)
    np.testing.assert_array_equal(dy[[0, 2], 1], [0.0, 0.0])
    np.testing.assert_allclose(dy[1, 1], 0.5 * (1.0 - 0.09 * np.exp(-0.5)), rtol=1e-15)


def test_gaussian_nll_value_matches_formula():
    # identity output layer: the input row is (mean, logvar)
    last = DenseLayer(np.eye(4), np.zeros(4))
    mean = np.array([0.3, -0.1])
    logvar = np.array([0.2, -0.4])
    target = np.array([0.0, 0.5])
    head = GaussianHeadBuffers(1, 2)
    out = gaussian_head_forward(last, np.concatenate((mean, logvar))[None], target[None], head)
    r = mean - target
    expected = 0.5 * np.sum(LOG_2PI + logvar + r * r * np.exp(-logvar))
    assert abs(out - expected) < 1e-15

import re

import numpy as np
import pytest

from spnpb.autodiff import ShapeError
from spnpb.model import (
    LOGVAR_MAX,
    LOGVAR_MIN,
    ModelConfig,
    ModelParams,
    NormStats,
    RecurrentState,
    RolloutWorkspace,
    forward,
    load_model,
    rollout_batch,
    rollout_vjp,
    save_model,
)


def unit_stats(n_s=2, n_u=2):
    return NormStats(np.zeros(n_s), np.ones(n_s), np.zeros(n_u), np.ones(n_u))


def make_params(seed=0, n_s=2, n_u=2, n_p=2, n_trials=0, labels=None):
    cfg = ModelConfig(n_s=n_s, n_u=n_u, n_p=n_p)
    return ModelParams.init(
        cfg, unit_stats(n_s, n_u), np.random.default_rng(seed),
        n_trials=n_trials, pb_labels=labels,
    )


def zero_weights(params):
    for w in params.weight_arrays():
        w[...] = 0.0
    return params


def test_layer_widths_follow_the_fixed_pattern():
    cfg = ModelConfig(n_s=2, n_u=2, n_p=2)
    assert cfg.n_in == 6
    assert cfg.layer_widths == (6, 50, 20, 10, 10, 10, 10, 20, 50, 4)


def test_zero_weights_give_zero_mean_unit_variance():
    params = zero_weights(make_params())
    pred, _state = forward(
        params, RecurrentState.zeros(), np.ones(2), np.ones(2), np.ones(2)
    )
    np.testing.assert_array_equal(pred.mean, np.zeros(2))
    np.testing.assert_array_equal(pred.variance, np.ones(2))


def test_variance_is_always_positive():
    rng = np.random.default_rng(11)
    params = make_params(seed=1)
    state = RecurrentState.zeros()
    for _ in range(1000):
        s = rng.normal(scale=3.0, size=2)
        u = rng.normal(scale=3.0, size=2)
        p = rng.normal(scale=2.0, size=2)
        pred, state = forward(params, state, s, u, p)
        assert np.all(pred.variance > 0)
        assert np.all(np.isfinite(pred.mean))


def test_forward_matches_frozen_golden_vector():
    # generated once from ModelParams.init(cfg, unit stats, default_rng(2024))
    params = make_params(seed=2024)
    s = np.array([0.25, -0.5])
    u = np.array([1.0, -0.75])
    p = np.array([0.1, -0.2])
    pred1, st = forward(params, RecurrentState.zeros(), s, u, p)
    np.testing.assert_allclose(
        pred1.mean,
        [-0.0037923958685253919, 0.00049870010409637641],
        rtol=0, atol=1e-15,
    )
    np.testing.assert_allclose(
        pred1.variance,
        [1.0032886659419402, 1.0057541446524412],
        rtol=0, atol=1e-14,
    )
    pred2, _ = forward(params, st, s, u, p)
    np.testing.assert_allclose(
        pred2.mean,
        [-0.0085378236794865919, 0.0010771400715352901],
        rtol=0, atol=1e-15,
    )
    np.testing.assert_allclose(
        st.h1[:3],
        [0.030602997215508541, -0.062825484548874058, -0.010780669279780797],
        rtol=0, atol=1e-15,
    )


def test_forward_does_not_mutate_its_input_state():
    params = make_params(seed=3)
    state = RecurrentState.zeros()
    h1_before = state.h1.copy()
    pred, new_state = forward(
        params, state, np.ones(2), np.ones(2), np.zeros(2)
    )
    np.testing.assert_array_equal(state.h1, h1_before)
    assert new_state is not state
    assert np.any(new_state.h1 != 0)


def test_forward_returns_a_state_that_owns_its_vectors():
    # the vectors used to be views into the call's activations, so every kept
    # state held a whole step block alive
    params = make_params(seed=3)
    _, state = forward(params, RecurrentState.zeros(), np.ones(2), np.ones(2), np.zeros(2))
    for name in ("h1", "c1", "h2", "c2"):
        vec = getattr(state, name)
        assert vec.base is None and vec.flags.owndata, name
        assert vec.shape == (params.lstm1.hidden,)


def forward_chain(params, state, s, u_seq, p):
    """Reference closed loop: one forward call per command, mean fed back."""
    means, variances = [], []
    for u in u_seq:
        pred, state = forward(params, state, s, u, p)
        means.append(pred.mean)
        variances.append(pred.variance)
        s = pred.mean
    return np.array(means), np.array(variances)


def test_single_step_rollout_equals_forward():
    params = make_params(seed=4)
    s = np.array([0.2, 0.4])
    u = np.array([-0.3, 0.8])
    p = np.array([0.05, -0.05])
    pred_f, _ = forward(params, RecurrentState.zeros(), s, u, p)
    means, variances = rollout_batch(params, RecurrentState.zeros(), s, u[None, None], p)
    assert means.shape == (1, 1, 2)
    np.testing.assert_array_equal(means[0, 0], pred_f.mean)
    np.testing.assert_array_equal(variances[0, 0], pred_f.variance)


def test_rollout_feeds_mean_back_as_next_state():
    params = make_params(seed=5)
    s = np.array([0.1, -0.1])
    p = np.zeros(2)
    u_seq = np.array([[0.5, 0.5], [-0.5, 0.25]])
    means, _ = rollout_batch(params, RecurrentState.zeros(), s, u_seq[None], p)

    # manual two-step replay with explicit state threading
    pred1, st1 = forward(params, RecurrentState.zeros(), s, u_seq[0], p)
    pred2, _ = forward(params, st1, pred1.mean, u_seq[1], p)
    np.testing.assert_allclose(means[0, 0], pred1.mean, atol=1e-15)
    np.testing.assert_allclose(means[0, 1], pred2.mean, atol=1e-12)


def test_rollout_rejects_empty_command_sequence():
    params = make_params(seed=6)
    with pytest.raises(ValueError):
        rollout_batch(params, RecurrentState.zeros(), np.zeros(2), np.zeros((1, 0, 2)),
                      np.zeros(2))


@pytest.mark.parametrize("K", [1, 3, 10])
def test_rollout_batch_matches_per_sequence_taped_rollout(K):
    # reference: each sequence as a chain of one-step forward calls
    rng = np.random.default_rng(100 + K)
    params = ModelParams.init(ModelConfig(n_s=2, n_u=2, n_p=2), unit_stats(), rng)
    state = RecurrentState(*rng.normal(scale=0.5, size=(4, 10)))
    s_t = rng.normal(size=2)
    p = rng.normal(scale=0.5, size=2)
    u_batch = rng.normal(size=(K, 6, 2))

    means, variances = rollout_batch(params, state, s_t, u_batch, p)
    assert means.shape == variances.shape == (K, 6, 2)
    for k in range(K):
        want_means, want_variances = forward_chain(params, state, s_t, u_batch[k], p)
        np.testing.assert_allclose(means[k], want_means, rtol=0, atol=1e-12)
        np.testing.assert_allclose(variances[k], want_variances, rtol=1e-12, atol=0)


def test_rollout_batch_rejects_bad_shapes():
    params = make_params(seed=6)
    state = RecurrentState.zeros()
    with pytest.raises(ShapeError):
        rollout_batch(params, state, np.zeros(2), np.zeros((3, 2)), np.zeros(2))
    with pytest.raises(ShapeError):
        rollout_batch(params, state, np.zeros(2), np.zeros((3, 0, 2)), np.zeros(2))
    with pytest.raises(ShapeError):
        rollout_batch(params, state, np.zeros(3), np.zeros((3, 4, 2)), np.zeros(2))
    with pytest.raises(ShapeError):
        rollout_batch(params, state, np.zeros(2), np.zeros((3, 4, 2)), np.zeros(5))


def test_rollout_gradient_wrt_commands_matches_finite_differences():
    params = make_params(seed=7)
    s = np.array([0.3, -0.2])
    p = np.array([0.1, 0.1])
    u_flat = np.random.default_rng(8).normal(size=6)

    def value():
        means, _ = rollout_batch(params, RecurrentState.zeros(), s, u_flat.reshape(1, 3, 2), p)
        return float(np.sum(means**2))

    means, variances, vjp = rollout_vjp(params, RecurrentState.zeros(), s,
                                        u_flat.reshape(1, 3, 2), p)
    grads = vjp(2.0 * means, np.zeros_like(variances)).ravel()

    h = 1e-5
    for idx in range(6):
        keep = u_flat[idx]
        u_flat[idx] = keep + h
        hi = value()
        u_flat[idx] = keep - h
        lo = value()
        u_flat[idx] = keep
        numeric = (hi - lo) / (2 * h)
        analytic = grads[idx]
        err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-6)
        assert err <= 1e-4, f"u[{idx // 2}][{idx % 2}] grad err {err}"


def test_vjp_of_one_row_matches_that_row_of_the_whole_stack():
    rng = np.random.default_rng(31)
    params = ModelParams.init(ModelConfig(n_s=2, n_u=2), unit_stats(), rng)
    state = RecurrentState(*rng.normal(scale=0.5, size=(4, 10)))
    s_t, p = rng.normal(size=2), rng.normal(scale=0.5, size=2)
    means, variances, vjp = rollout_vjp(params, state, s_t, rng.normal(size=(4, 5, 2)), p)
    d_means, d_variances = rng.normal(size=means.shape), rng.normal(size=variances.shape)
    whole = vjp(d_means, d_variances)
    assert whole.shape == (4, 5, 2)
    for k in range(4):
        # the rows do not interact, so reversing one alone gives its row of
        # the whole reverse; each may run again on the same activations
        one = vjp(d_means[k], d_variances[k], row=k)
        assert one.shape == (5, 2)
        np.testing.assert_allclose(one, whole[k], rtol=0, atol=1e-12 * np.max(np.abs(whole)))
    assert vjp(d_means, d_variances).tobytes() == whole.tobytes()
    with pytest.raises(ShapeError):
        vjp(d_means[0], d_variances[0])
    with pytest.raises(ShapeError):
        vjp(d_means, d_variances, row=0)
    with pytest.raises(IndexError):
        vjp(d_means[0], d_variances[0], row=4)


def test_a_vjp_whose_workspace_ran_again_raises():
    # the second run overwrote the activations that the first vjp reverses
    rng = np.random.default_rng(32)
    params = ModelParams.init(ModelConfig(n_s=2, n_u=2), unit_stats(), rng)
    state = RecurrentState(*rng.normal(scale=0.5, size=(4, 10)))
    s_t, p = rng.normal(size=2), rng.normal(scale=0.5, size=2)
    ws = RolloutWorkspace(params.config, 5, 3)
    first = rollout_vjp(params, state, s_t, rng.normal(size=(3, 5, 2)), p, workspace=ws)
    second = rollout_vjp(params, state, s_t, rng.normal(size=(3, 5, 2)), p, workspace=ws)
    d_means, d_variances = rng.normal(size=(2, 5, 2))
    with pytest.raises(RuntimeError, match="run again"):
        first[2](d_means, d_variances, row=1)
    assert second[2](d_means, d_variances, row=1).shape == (5, 2)
    with pytest.raises(ShapeError):
        rollout_vjp(params, state, s_t, np.zeros((2, 5, 2)), p, workspace=ws)


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def reference_rollout(params, state, s_t, u_batch, p):
    """The closed loop as plain math: rows as rows, unfolded weights, separate bias adds.

    Returns (means, variances, vjp) like rollout_vjp, with vjp(d_means,
    d_variances) a hand-written reverse of all K rows.
    """
    cfg = params.config
    n_s, n_u = cfg.n_s, cfg.n_u
    K, n_seq, _ = u_batch.shape
    s = np.tile(s_t, (K, 1))
    h1, c1, h2, c2 = (np.tile(v, (K, 1)) for v in (state.h1, state.c1, state.h2, state.c2))
    tape, means, variances = [], [], []
    for t in range(n_seq):
        ys_in = [np.concatenate((u_batch[:, t], s, np.tile(p, (K, 1))), axis=1)]
        for layer in params.dense_in:
            ys_in.append(np.tanh(ys_in[-1] @ layer.W.T + layer.b))
        cells = []
        x = ys_in[-1]
        for cell, h, c in ((params.lstm1, h1, c1), (params.lstm2, h2, c2)):
            H = cell.hidden
            z = x @ cell.Wx.T + h @ cell.Wh.T + cell.b
            i, f, o = (sigmoid(z[:, k * H:(k + 1) * H]) for k in range(3))
            g = np.tanh(z[:, 3 * H:])
            c_new = f * c + i * g
            cells.append((cell, x, c, i, f, o, g, c_new))
            x = o * np.tanh(c_new)
            if cell is params.lstm1:
                h1, c1 = x, c_new
            else:
                h2, c2 = x, c_new
        ys_out = [x]
        for layer in params.dense_out[:-1]:
            ys_out.append(np.tanh(ys_out[-1] @ layer.W.T + layer.b))
        last = params.dense_out[-1]
        out = ys_out[-1] @ last.W.T + last.b
        raw = out[:, n_s:]
        variance = np.exp(np.clip(raw, LOGVAR_MIN, LOGVAR_MAX))
        tape.append((ys_in, cells, ys_out, raw, variance))
        s = out[:, :n_s]
        means.append(s)
        variances.append(variance)
    means, variances = np.stack(means, axis=1), np.stack(variances, axis=1)

    def vjp(d_means, d_variances):
        d_u = np.zeros(u_batch.shape)
        d_s = np.zeros((K, n_s))
        carry = [(np.zeros((K, cell.hidden)),) * 2 for cell in (params.lstm1, params.lstm2)]
        for t in range(n_seq - 1, -1, -1):
            ys_in, cells, ys_out, raw, variance = tape[t]
            kept = (raw >= LOGVAR_MIN) & (raw <= LOGVAR_MAX)
            g = np.concatenate((d_means[:, t] + d_s, d_variances[:, t] * variance * kept), axis=1)
            g = g @ params.dense_out[-1].W
            for layer, y in zip(params.dense_out[-2::-1], ys_out[:0:-1]):
                g = (g * (1.0 - y * y)) @ layer.W
            for k in (1, 0):
                cell, x, c, i, f, o, gg, c_new = cells[k]
                dh, dc = carry[k]
                dh = dh + g
                tc = np.tanh(c_new)
                dc = dc + dh * o * (1.0 - tc * tc)
                dz = np.concatenate((dc * gg * i * (1.0 - i), dc * c * f * (1.0 - f),
                                     dh * tc * o * (1.0 - o), dc * i * (1.0 - gg * gg)), axis=1)
                carry[k] = (dz @ cell.Wh, dc * f)
                g = dz @ cell.Wx
            for layer, y in zip(params.dense_in[::-1], ys_in[:0:-1]):
                g = (g * (1.0 - y * y)) @ layer.W
            d_u[:, t] = g[:, :n_u]
            d_s = g[:, n_u:n_u + n_s]
        return d_u

    return means, variances, vjp


def max_rel(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.mark.parametrize("n_seq", [1, 10])
@pytest.mark.parametrize("K", [1, 3, 10])
def test_closed_loop_matches_the_plain_math_reference(K, n_seq):
    # folded weights, rows in columns and the one-pass reverse against the
    # plain math above, from a non-zero recurrent state, with random biases
    # and the second logvar clamped at every step
    rng = np.random.default_rng(300 + 10 * K + n_seq)
    params = make_params(seed=K + n_seq)
    for layer in params.dense_in + params.dense_out:
        layer.b[...] = rng.normal(scale=0.3, size=layer.b.shape)
    for cell in (params.lstm1, params.lstm2):
        cell.b[...] = rng.normal(scale=0.3, size=cell.b.shape)
    params.dense_out[-1].b[3] = 50.0
    state = RecurrentState(*rng.normal(scale=0.5, size=(4, 10)))
    s_t, p = rng.normal(size=2), rng.normal(scale=0.5, size=2)
    u_batch = rng.normal(size=(K, n_seq, 2))
    want_means, want_variances, want_vjp = reference_rollout(params, state, s_t, u_batch, p)
    assert np.all(want_variances[..., 1] == np.exp(LOGVAR_MAX))

    batch = rollout_batch(params, state, s_t, u_batch, p)
    means, variances, vjp = rollout_vjp(params, state, s_t, u_batch, p)
    for got_means, got_variances in (batch, (means, variances)):
        assert max_rel(got_means, want_means) <= 1e-12
        assert max_rel(got_variances, want_variances) <= 1e-12
    d_means, d_variances = rng.normal(size=(2, K, n_seq, 2))
    want = want_vjp(d_means, d_variances)
    assert max_rel(vjp(d_means, d_variances), want) <= 1e-12
    for row in range(K):
        one = vjp(d_means[row], d_variances[row], row=row)
        assert max_rel(one, want[row]) <= 1e-12


def test_parametric_bias_changes_the_prediction():
    params = make_params(seed=9)
    s, u = np.array([0.2, 0.2]), np.array([0.5, -0.5])
    pred_a, _ = forward(params, RecurrentState.zeros(), s, u, np.array([1.0, 0.0]))
    pred_b, _ = forward(params, RecurrentState.zeros(), s, u, np.array([-1.0, 0.0]))
    assert np.max(np.abs(pred_a.mean - pred_b.mean)) > 1e-6


def test_input_shape_validation():
    params = make_params(seed=10)
    st = RecurrentState.zeros()
    with pytest.raises(ShapeError):
        forward(params, st, np.zeros(3), np.zeros(2), np.zeros(2))
    with pytest.raises(ShapeError):
        forward(params, st, np.zeros(2), np.zeros(1), np.zeros(2))
    with pytest.raises(ShapeError):
        forward(params, st, np.zeros(2), np.zeros(2), np.zeros(3))


def test_normalization_round_trip():
    stats = NormStats(
        np.array([1.0, -2.0]), np.array([0.5, 3.0]),
        np.array([0.1, 0.2]), np.array([2.0, 0.25]),
    )
    s = np.array([4.2, -7.7])
    u = np.array([-1.1, 0.9])
    np.testing.assert_allclose(
        stats.denormalize_state(stats.normalize_state(s)), s, atol=1e-12
    )
    np.testing.assert_allclose(
        stats.denormalize_command(stats.normalize_command(u)), u, atol=1e-12
    )


def test_normalization_floors_degenerate_std():
    stats = NormStats(np.zeros(2), np.array([0.0, 1.0]), np.zeros(2), np.ones(2))
    assert stats.std_s[0] == NormStats.STD_FLOOR
    out = stats.normalize_state(np.array([1e-6, 0.0]))
    assert np.isfinite(out).all()


def test_pb_centroid_for_label():
    params = make_params(seed=11, n_trials=4, labels=["a", "b", "a", "b"])
    params.pb_table[0] = [1.0, 2.0]
    params.pb_table[2] = [3.0, 4.0]
    np.testing.assert_allclose(params.pb_for_label("a"), [2.0, 3.0], atol=1e-15)
    with pytest.raises(KeyError):
        params.pb_for_label("missing")


def test_save_load_round_trip_is_bit_exact(tmp_path):
    params = make_params(seed=12, n_trials=3, labels=["x", "y", "x"])
    params.pb_table[:] = np.random.default_rng(13).normal(size=(3, 2))
    path = tmp_path / "model.json"
    save_model(params, str(path))
    loaded = load_model(str(path))

    for a, b in zip(params.weight_arrays(), loaded.weight_arrays()):
        assert np.array_equal(a, b), "weights drifted through serialization"
    assert np.array_equal(params.pb_table, loaded.pb_table)
    assert loaded.pb_labels == ["x", "y", "x"]
    assert loaded.config == params.config
    np.testing.assert_array_equal(loaded.stats.mean_s, params.stats.mean_s)
    np.testing.assert_array_equal(loaded.stats.std_u, params.stats.std_u)

    # a forward pass through the loaded model must agree bitwise
    s, u, p = np.array([0.3, 0.1]), np.array([-0.2, 0.9]), np.array([0.0, 0.5])
    pred_a, _ = forward(params, RecurrentState.zeros(), s, u, p)
    pred_b, _ = forward(loaded, RecurrentState.zeros(), s, u, p)
    assert np.array_equal(pred_a.mean, pred_b.mean)
    assert np.array_equal(pred_a.variance, pred_b.variance)


def test_load_rejects_wrong_kind(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"kind": "something-else", "format_version": 1}')
    with pytest.raises(ValueError):
        load_model(str(path))


@pytest.mark.parametrize("field, bad", [
    ("norm.std_s", np.nan), ("dense_in[0].w", np.inf), ("lstm[0].wh", np.nan),
    ("lstm[1].b", -np.inf), ("dense_out[3].b", np.nan), ("pb.vectors", np.inf),
])
def test_load_rejects_non_finite_fields(tmp_path, field, bad):
    # json.load reads NaN and Infinity; such a model used to load, and
    # every prediction it made came out non-finite
    params = make_params(seed=3, n_trials=2, labels=["a", "b"])
    arrays = {"norm.std_s": params.stats.std_s, "dense_in[0].w": params.dense_in[0].W,
              "lstm[0].wh": params.lstm1.Wh, "lstm[1].b": params.lstm2.b,
              "dense_out[3].b": params.dense_out[3].b, "pb.vectors": params.pb_table}
    arrays[field].flat[1] = bad
    path = tmp_path / "model.json"
    save_model(params, str(path))
    with pytest.raises(ValueError, match=re.escape(field)):
        load_model(str(path))


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(n_s=0, n_u=2)
    for bad in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            ModelConfig(n_s=2, n_u=2, tick_period=bad)

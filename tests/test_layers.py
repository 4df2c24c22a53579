import numpy as np
import pytest

from spnpb.autodiff import ShapeError
from spnpb.evaluate import finite_diff, rel_err
from spnpb.layers import (
    DenseLayer,
    LstmBuffers,
    LstmCell,
    dense_affine,
    dense_stack_forward,
    dense_stack_reverse,
    glorot_uniform,
    lstm_gate_factors,
    lstm_sequence_forward,
    lstm_sequence_reverse,
    lstm_step,
    lstm_step_back,
    lstm_step_weights,
)


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def test_dense_identity_passes_input_through():
    layer = DenseLayer(np.eye(3), np.zeros(3))
    x = np.array([[1.5, -2.0, 0.25]])
    y = dense_affine(layer, x, np.empty((1, 3)))
    np.testing.assert_array_equal(y, x)


def test_dense_hand_arithmetic():
    layer = DenseLayer(np.array([[1.0, 2.0], [0.0, -1.0]]), np.array([0.5, 0.0]))
    y = dense_affine(layer, np.array([[3.0, 1.0]]), np.empty((1, 2)))
    np.testing.assert_array_equal(y, [[5.5, -1.0]])


def test_dense_rejects_wrong_input_width():
    layer = DenseLayer.init(4, 2, np.random.default_rng(0))
    with pytest.raises(ShapeError):
        dense_affine(layer, np.zeros((1, 3)), np.empty((1, 2)))


@pytest.mark.parametrize("seed", range(3))
def test_dense_stack_gradients_match_finite_differences(seed):
    # dense_stack_reverse against central differences of dense_stack_forward,
    # for the input and every layer's weight and bias
    rng = np.random.default_rng(200 + seed)
    widths = (3, 5, 4, 2)
    layers = [DenseLayer.init(i, o, rng) for i, o in zip(widths, widths[1:])]
    x = rng.normal(size=(6, 3))
    weight = rng.normal(size=(6, 2))  # fixed projection so the output is scalar

    def value():
        ys = [np.empty((6, w)) for w in widths[1:]]
        return float(np.sum(weight * dense_stack_forward(layers, x, ys)))

    ys = [np.empty((6, w)) for w in widths[1:]]
    dense_stack_forward(layers, x, ys)
    d_ys = [np.empty((6, w)) for w in widths[1:]]
    d_ys[-1][...] = weight
    dx = np.empty((6, 3))
    grads = dense_stack_reverse(layers, x, ys, d_ys, dx=dx)

    pairs = [(x, dx)] + [(layer.W, dw) for layer, (dw, _) in zip(layers, grads)]
    pairs += [(layer.b, db) for layer, (_, db) in zip(layers, grads)]
    for leaf, analytic in pairs:
        numeric = finite_diff(value, leaf)
        worst = max(rel_err(a, n) for a, n in zip(analytic.ravel(), numeric.ravel()))
        assert worst <= 1e-4, f"dense stack grad off by {worst}"


def test_glorot_bounds_and_determinism():
    limit = np.sqrt(6.0 / (40 + 30))
    w1 = glorot_uniform(40, 30, np.random.default_rng(5))
    w2 = glorot_uniform(40, 30, np.random.default_rng(5))
    assert w1.shape == (30, 40)
    assert np.all(np.abs(w1) <= limit)
    assert np.array_equal(w1, w2)
    # with this many draws the extremes should approach the bound
    assert np.max(np.abs(w1)) > 0.8 * limit


def test_lstm_init_shapes_and_forget_bias():
    cell = LstmCell.init(6, 10, np.random.default_rng(1))
    assert cell.Wx.shape == (40, 6)
    assert cell.Wh.shape == (40, 10)
    assert cell.b.shape == (40,)
    np.testing.assert_array_equal(cell.b[10:20], np.ones(10))
    np.testing.assert_array_equal(cell.b[:10], np.zeros(10))


def one_step(cell, x, h_prev, c_prev):
    """One step of one vector through lstm_step; returns (h, c)."""
    wx, wh, b = lstm_step_weights(cell)
    z = wx @ np.reshape(x, (-1, 1)) + b
    h, c, tc = np.empty((3, cell.hidden, 1))
    lstm_step(z, np.reshape(h_prev, (-1, 1)), np.reshape(c_prev, (-1, 1)), wh, h, c, tc)
    return h[:, 0], c[:, 0]


def test_lstm_zero_parameters_give_zero_output():
    cell = LstmCell(np.zeros((8, 3)), np.zeros((8, 2)), np.zeros(8))
    h, c = one_step(cell, np.ones(3), np.zeros(2), np.zeros(2))
    # all gates at 0.5, candidate tanh(0)=0, so c=0 and h=0
    np.testing.assert_array_equal(h, np.zeros(2))
    np.testing.assert_array_equal(c, np.zeros(2))


def test_lstm_saturated_gates_preserve_cell_state():
    H = 3
    b = np.zeros(4 * H)
    b[0:H] = -50.0  # input gate shut
    b[H : 2 * H] = 50.0  # forget gate wide open
    cell = LstmCell(np.zeros((4 * H, 2)), np.zeros((4 * H, H)), b)
    c_prev = np.array([0.7, -1.2, 0.05])
    h, c = one_step(cell, np.ones(2), np.zeros(H), c_prev.copy())
    np.testing.assert_allclose(c, c_prev, atol=1e-10)


def test_lstm_single_unit_matches_scalar_oracle():
    # one unit, one input, hand-picked weights; gate order (i, f, o, g)
    wx = np.array([[0.3], [-0.2], [0.5], [0.8]])
    wh = np.array([[0.1], [0.4], [-0.3], [0.2]])
    b = np.array([0.05, 1.0, -0.1, 0.3])
    cell = LstmCell(wx, wh, b)
    x, h_prev, c_prev = 0.6, -0.4, 0.9

    z = wx[:, 0] * x + wh[:, 0] * h_prev + b
    i, f, o = sigmoid(z[0]), sigmoid(z[1]), sigmoid(z[2])
    g = np.tanh(z[3])
    c_exp = f * c_prev + i * g
    h_exp = o * np.tanh(c_exp)

    h, c = one_step(cell, np.array([x]), np.array([h_prev]), np.array([c_prev]))
    assert abs(float(c[0]) - c_exp) < 1e-14
    assert abs(float(h[0]) - h_exp) < 1e-14


@pytest.mark.parametrize("seed", range(5))
def test_lstm_gradients_match_finite_differences(seed):
    # the shared reverse step (lstm_gate_factors + lstm_step_back) against
    # central differences of one lstm_step, for the step's input, both
    # previous states, and a batch of two rows
    rng = np.random.default_rng(seed)
    n_in, H, B = 4, 3, 2
    cell = LstmCell.init(n_in, H, rng)
    wx, wh, b = lstm_step_weights(cell)
    x = rng.normal(size=(n_in, B))
    h0 = rng.normal(scale=0.5, size=(H, B))
    c0 = rng.normal(scale=0.5, size=(H, B))
    w_h = rng.normal(size=(H, B))  # fixed projections so the output is scalar
    w_c = rng.normal(size=(H, B))

    def step():
        z = wx @ x + b
        h, c, tc = np.empty((3, H, B))
        lstm_step(z, h0, c0, wh, h, c, tc)
        return z, h, c, tc

    def value():
        _, h, c, _ = step()
        return float(np.sum(w_h * h) + np.sum(w_c * c))

    act, _, _, tc = step()
    fac, dz = np.empty((2, 4 * H, B))
    dc_dh = np.empty((H, B))
    lstm_gate_factors(act, c0, tc, fac, dc_dh)
    dh, dc = w_h.copy(), w_c.copy()
    lstm_step_back(dh, dc, fac, dc_dh, act[H:2 * H], cell.Wh, dz)
    analytic = {"x": cell.Wx.T @ dz, "h0": dh, "c0": dc}

    for name, leaf in (("x", x), ("h0", h0), ("c0", c0)):
        numeric = finite_diff(value, leaf)
        worst = max(
            rel_err(a, n) for a, n in zip(analytic[name].ravel(), numeric.ravel())
        )
        assert worst <= 1e-4, f"lstm grad for {name} off by {worst}"


def test_lstm_rejects_mismatched_state_width():
    cell = LstmCell.init(3, 5, np.random.default_rng(0))
    with pytest.raises(ShapeError):
        lstm_sequence_forward(cell, np.zeros((1, 3)), np.zeros(4), np.zeros(5),
                              LstmBuffers(1, 1, 5))


def sequence_grads(cell, x, h0, c0, gh, T, B):
    """Forward then reverse of one batch; returns (output, dx, dWx, dWh, db)."""
    buf = LstmBuffers(T, B, cell.hidden)
    out = lstm_sequence_forward(cell, x, h0, c0, buf).copy()
    dx = np.empty_like(x)
    return (out, dx, *lstm_sequence_reverse(cell, x, buf, gh, dx))


def test_lstm_batch_matches_per_row_apply():
    # lstm_sequence_forward over B rows and T steps equals B separate
    # chains of one-row steps from the same starting states in value, and
    # its reverse equals the B=1 runs of each row: per row for the input,
    # summed over rows for the weights.  Rows are time-major (t*B + b).
    rng = np.random.default_rng(11)
    cell = LstmCell.init(3, 4, rng)
    B, T = 5, 6
    x = rng.normal(size=(T * B, 3))
    h0 = rng.normal(size=(B, 4)) * 0.5
    c0 = rng.normal(size=(B, 4)) * 0.5
    seed = np.cos(np.arange(T * B * 4, dtype=float)).reshape(T * B, 4)

    out, dx, *weights = sequence_grads(cell, x, h0, c0, seed, T, B)

    total = None
    for b in range(B):
        hv, cv = h0[b], c0[b]
        for t in range(T):
            hv, cv = one_step(cell, x[t * B + b], hv, cv)
            np.testing.assert_allclose(out[t * B + b], hv, rtol=1e-13, atol=1e-15)
        _, dx_b, *part = sequence_grads(cell, x[b::B].copy(), h0[b], c0[b], seed[b::B], T, 1)
        np.testing.assert_allclose(dx[b::B], dx_b, rtol=1e-12, atol=1e-15)
        total = part if total is None else [a + w for a, w in zip(total, part)]
    # weight grads accumulate across the batch
    for got, want in zip(weights, total):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)


def test_lstm_batch_rejects_bad_shapes():
    cell = LstmCell.init(3, 4, np.random.default_rng(0))
    zeros = np.zeros((2, 4))
    buf = LstmBuffers(3, 2, 4)
    with pytest.raises(ShapeError):  # input is a vector, not (T*B, n_in)
        lstm_sequence_forward(cell, np.zeros(3), zeros, zeros, buf)
    with pytest.raises(ShapeError):  # rows are not T*B
        lstm_sequence_forward(cell, np.zeros((5, 3)), zeros, zeros, buf)
    with pytest.raises(ShapeError):  # wrong input width
        lstm_sequence_forward(cell, np.zeros((6, 2)), zeros, zeros, buf)
    with pytest.raises(ShapeError):  # state width is not the hidden size
        lstm_sequence_forward(cell, np.zeros((6, 3)), np.zeros((2, 5)), zeros, buf)
    with pytest.raises(ShapeError):  # state rows are not the batch size
        lstm_sequence_forward(cell, np.zeros((6, 3)), zeros, np.zeros((3, 4)), buf)
    with pytest.raises(ShapeError):  # buffers of another hidden size
        lstm_sequence_forward(cell, np.zeros((6, 3)), zeros, zeros, LstmBuffers(3, 2, 5))


@pytest.mark.parametrize("seed", range(3))
def test_lstm_sequence_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(100 + seed)
    n_in, H, B, T = 3, 4, 2, 5
    cell = LstmCell.init(n_in, H, rng)
    x = rng.normal(size=(T * B, n_in))
    h0 = rng.normal(scale=0.5, size=(B, H))
    c0 = rng.normal(scale=0.5, size=(B, H))
    weight = rng.normal(size=(T * B, H))  # fixed projection so the output is scalar

    def value():
        out = lstm_sequence_forward(cell, x, h0, c0, LstmBuffers(T, B, H))
        return float(np.sum(weight * out))

    _, dx, dwx, dwh, db = sequence_grads(cell, x, h0, c0, weight, T, B)
    for leaf, analytic in ((x, dx), (cell.Wx, dwx), (cell.Wh, dwh),
                           (cell.b, db)):
        numeric = finite_diff(value, leaf)
        worst = max(
            rel_err(a, n) for a, n in zip(analytic.ravel(), numeric.ravel())
        )
        assert worst <= 1e-4, f"lstm sequence grad off by {worst}"

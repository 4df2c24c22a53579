import numpy as np
import pytest

from spnpb.autodiff import ShapeError, Tape, Var, affine_batch, backward
from spnpb.layers import (
    DenseLayer,
    LstmCell,
    glorot_uniform,
    lstm_gate_factors,
    lstm_gates_batch,
    lstm_sequence,
    lstm_step_back,
)


def finite_diff(f, x, h=1e-5):
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat, gflat = x.ravel(), grad.ravel()
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        hi = f()
        flat[i] = keep - h
        lo = f()
        flat[i] = keep
        gflat[i] = (hi - lo) / (2.0 * h)
    return grad


def rel_err(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-6)


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def test_dense_identity_passes_input_through():
    layer = DenseLayer(np.eye(3), np.zeros(3))
    tape = Tape()
    x = Var(np.array([[1.5, -2.0, 0.25]]))
    y = affine_batch(tape, layer.W, layer.b, x)
    np.testing.assert_array_equal(y.value, x.value)


def test_dense_hand_arithmetic():
    layer = DenseLayer(np.array([[1.0, 2.0], [0.0, -1.0]]), np.array([0.5, 0.0]))
    tape = Tape()
    y = affine_batch(tape, layer.W, layer.b, Var(np.array([[3.0, 1.0]])))
    np.testing.assert_array_equal(y.value, [[5.5, -1.0]])


def test_dense_rejects_wrong_input_width():
    layer = DenseLayer.init(4, 2, np.random.default_rng(0))
    with pytest.raises(ShapeError):
        affine_batch(Tape(), layer.W, layer.b, Var(np.zeros((1, 3))))


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
    assert cell.Wx.value.shape == (40, 6)
    assert cell.Wh.value.shape == (40, 10)
    assert cell.b.value.shape == (40,)
    np.testing.assert_array_equal(cell.b.value[10:20], np.ones(10))
    np.testing.assert_array_equal(cell.b.value[:10], np.zeros(10))


def lstm_step(cell, x, h_prev, c_prev):
    """One step of one vector through the batch gate helper; returns (h, c)."""
    h, c, _, _ = lstm_gates_batch(cell, np.atleast_2d(x) @ cell.Wx.value.T,
                                  np.atleast_2d(h_prev), np.atleast_2d(c_prev))
    return h[0], c[0]


def test_lstm_zero_parameters_give_zero_output():
    cell = LstmCell(np.zeros((8, 3)), np.zeros((8, 2)), np.zeros(8))
    h, c = lstm_step(cell, np.ones(3), np.zeros(2), np.zeros(2))
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
    h, c = lstm_step(cell, np.ones(2), np.zeros(H), c_prev.copy())
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

    h, c = lstm_step(cell, np.array([x]), np.array([h_prev]), np.array([c_prev]))
    assert abs(float(c[0]) - c_exp) < 1e-14
    assert abs(float(h[0]) - h_exp) < 1e-14


@pytest.mark.parametrize("seed", range(5))
def test_lstm_gradients_match_finite_differences(seed):
    # the shared reverse step (lstm_gate_factors + lstm_step_back) against
    # central differences of one lstm_gates_batch step, for the step's
    # input, both previous states, and a batch of two rows
    rng = np.random.default_rng(seed)
    n_in, H, B = 4, 3, 2
    cell = LstmCell.init(n_in, H, rng)
    x = rng.normal(size=(B, n_in))
    h0 = rng.normal(scale=0.5, size=(B, H))
    c0 = rng.normal(scale=0.5, size=(B, H))
    w_h = rng.normal(size=(B, H))  # fixed projections so the output is scalar
    w_c = rng.normal(size=(B, H))

    def value():
        h, c, _, _ = lstm_gates_batch(cell, x @ cell.Wx.value.T, h0, c0)
        return float(np.sum(w_h * h) + np.sum(w_c * c))

    _, _, act, tc = lstm_gates_batch(cell, x @ cell.Wx.value.T, h0, c0)
    fac, dc_dh = lstm_gate_factors(act, c0, tc)
    dz = np.empty((B, 4, H))
    dh_prev, dc_prev = lstm_step_back(w_h, w_c, fac, dc_dh, act[:, H:2 * H], cell.Wh.value, dz)
    analytic = {"x": dz.reshape(B, 4 * H) @ cell.Wx.value, "h0": dh_prev, "c0": dc_prev}

    for name, leaf in (("x", x), ("h0", h0), ("c0", c0)):
        numeric = finite_diff(value, leaf)
        worst = max(
            rel_err(a, n) for a, n in zip(analytic[name].ravel(), numeric.ravel())
        )
        assert worst <= 1e-4, f"lstm grad for {name} off by {worst}"


def test_lstm_rejects_mismatched_state_width():
    cell = LstmCell.init(3, 5, np.random.default_rng(0))
    with pytest.raises(ShapeError):
        lstm_sequence(cell, Var(np.zeros((1, 3))), 1, 1, np.zeros((1, 4)), np.zeros((1, 5)),
                      Tape())


def test_lstm_batch_matches_per_row_apply():
    # lstm_sequence over B rows and T steps equals B separate chains of
    # one-row steps from the same starting states in value, and in its
    # gradients the B=1 runs of each row: per row for the input, summed
    # over rows for the weights
    rng = np.random.default_rng(11)
    cell = LstmCell.init(3, 4, rng)
    B, T = 5, 6
    x = rng.normal(size=(B * T, 3))
    h0 = rng.normal(size=(B, 4)) * 0.5
    c0 = rng.normal(size=(B, 4)) * 0.5
    seed = np.cos(np.arange(B * T * 4, dtype=float)).reshape(B * T, 4)

    tape = Tape()
    xb = Var(x)
    h = lstm_sequence(cell, xb, B, T, h0, c0, tape)
    grads = backward(tape, seed, output=h)

    total = None
    for b in range(B):
        hv, cv = h0[b], c0[b]
        for t in range(T):
            hv, cv = lstm_step(cell, x[b * T + t], hv, cv)
            np.testing.assert_allclose(h.value[b * T + t], hv, rtol=1e-13, atol=1e-15)
        t2 = Tape()
        xr = Var(x[b * T:(b + 1) * T])
        hr = lstm_sequence(cell, xr, 1, T, h0[b:b + 1], c0[b:b + 1], t2)
        gr = backward(t2, seed[b * T:(b + 1) * T], output=hr)
        np.testing.assert_allclose(grads[xb][b * T:(b + 1) * T], gr[xr], rtol=1e-12, atol=1e-15)
        part = [gr[cell.Wx], gr[cell.Wh], gr[cell.b]]
        total = part if total is None else [a + b for a, b in zip(total, part)]
    # weight grads accumulate across the batch
    for got, want in zip((grads[cell.Wx], grads[cell.Wh], grads[cell.b]), total):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)


def test_lstm_batch_rejects_bad_shapes():
    cell = LstmCell.init(3, 4, np.random.default_rng(0))
    zeros = np.zeros((2, 4))
    with pytest.raises(ShapeError):  # input is a vector, not (B*T, n_in)
        lstm_sequence(cell, Var(np.zeros(3)), 1, 1, zeros[:1], zeros[:1], Tape())
    with pytest.raises(ShapeError):  # rows do not factor as B*T
        lstm_sequence(cell, Var(np.zeros((5, 3))), 2, 3, zeros, zeros, Tape())
    with pytest.raises(ShapeError):  # wrong input width
        lstm_sequence(cell, Var(np.zeros((6, 2))), 2, 3, zeros, zeros, Tape())
    with pytest.raises(ShapeError):  # state width is not the hidden size
        lstm_sequence(cell, Var(np.zeros((6, 3))), 2, 3, np.zeros((2, 5)), zeros, Tape())
    with pytest.raises(ShapeError):  # state rows are not the batch size
        lstm_sequence(cell, Var(np.zeros((6, 3))), 2, 3, zeros, np.zeros((3, 4)), Tape())


@pytest.mark.parametrize("seed", range(3))
def test_lstm_sequence_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(100 + seed)
    n_in, H, B, T = 3, 4, 2, 5
    cell = LstmCell.init(n_in, H, rng)
    x = Var(rng.normal(size=(B * T, n_in)))
    h0 = rng.normal(scale=0.5, size=(B, H))
    c0 = rng.normal(scale=0.5, size=(B, H))
    weight = rng.normal(size=(B * T, H))  # fixed projection so the output is scalar

    def value():
        h = lstm_sequence(cell, x, B, T, h0, c0, Tape())
        return float(np.sum(weight * h.value))

    tape = Tape()
    h = lstm_sequence(cell, x, B, T, h0, c0, tape)
    grads = backward(tape, weight, output=h)

    for leaf in (x, cell.Wx, cell.Wh, cell.b):
        numeric = finite_diff(value, leaf.value)
        worst = max(
            rel_err(a, n) for a, n in zip(grads[leaf].ravel(), numeric.ravel())
        )
        assert worst <= 1e-4, f"lstm sequence grad off by {worst}"

import numpy as np
import pytest

from spnpb.autodiff import ShapeError
from spnpb.evaluate import finite_diff, rel_err
from spnpb.layers import (
    DenseLayer,
    LstmCell,
    LstmPairBuffers,
    dense_affine,
    dense_stack_forward,
    dense_stack_reverse,
    glorot_uniform,
    grad_view,
    lstm_fold,
    lstm_gate_factors,
    lstm_pair_forward,
    lstm_pair_reverse,
    lstm_step,
    lstm_step_back,
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
    scratch = np.empty(6 * max(widths))
    grad_view(scratch, 6, 2)[...] = weight
    grads = dense_stack_reverse(layers, x, ys, scratch)
    dx = grad_view(scratch, 6, 3)
    # the ys now hold the pre-activation gradients, whose row sums are the bias gradients
    for y, (_, db) in zip(ys, grads):
        assert np.array_equal(y.sum(axis=0), db)

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


def folded_step(cell, x, h_prev, c_prev):
    """One step of the (n, B) columns x through lstm_fold and lstm_step.

    The pre-activation is one product of the fold over [x; h_prev; 1].
    Returns the gate activations (4H, B) and the new (h, c, tanh(c)).
    """
    H, B = cell.hidden, x.shape[1]
    z = np.dot(lstm_fold(cell), np.vstack((x, h_prev, np.ones((1, B)))))
    h, c, tc = np.empty((3, H, B))
    lstm_step(z.reshape(4, H, B), c_prev, h, c, tc)
    return z, h, c, tc


def one_step(cell, x, h_prev, c_prev):
    """One step of one vector through lstm_step; returns (h, c)."""
    _, h, c, _ = folded_step(cell, np.reshape(x, (-1, 1)), np.reshape(h_prev, (-1, 1)),
                             np.reshape(c_prev, (-1, 1)))
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
    # the shared reverse step (lstm_gate_factors + lstm_step_back, then the
    # caller's one product with [Wx | Wh].T) against central differences of
    # one lstm_step, for the step's input, both previous states, and a
    # batch of two rows
    rng = np.random.default_rng(seed)
    n_in, H, B = 4, 3, 2
    cell = LstmCell.init(n_in, H, rng)
    x = rng.normal(size=(n_in, B))
    h0 = rng.normal(scale=0.5, size=(H, B))
    c0 = rng.normal(scale=0.5, size=(H, B))
    w_h = rng.normal(size=(H, B))  # fixed projections so the output is scalar
    w_c = rng.normal(size=(H, B))

    def value():
        _, h, c, _ = folded_step(cell, x, h0, c0)
        return float(np.sum(w_h * h) + np.sum(w_c * c))

    act, _, _, tc = folded_step(cell, x, h0, c0)
    fac, dz = np.empty((2, 4 * H, B))
    dc_dh = np.empty((H, B))
    lstm_gate_factors(act, c0, tc, fac, dc_dh)
    dc = w_c.copy()
    lstm_step_back(w_h, dc, fac.reshape(4, H, B), dc_dh, act[H:2 * H], dz.reshape(4, H, B))
    d_in = np.dot(np.hstack((cell.Wx, cell.Wh)).T, dz)
    analytic = {"x": d_in[:n_in], "h0": d_in[n_in:], "c0": dc}

    for name, leaf in (("x", x), ("h0", h0), ("c0", c0)):
        numeric = finite_diff(value, leaf)
        worst = max(
            rel_err(a, n) for a, n in zip(analytic[name].ravel(), numeric.ravel())
        )
        assert worst <= 1e-4, f"lstm grad for {name} off by {worst}"


def two_cell_reference(cell1, cell2, x, starts):
    """LSTM2 over LSTM1 as two per-cell loops of folded steps, the pair's reference.

    x is (T, B, n_in) and starts the (h1, c1, h2, c2), each (B, H);
    returns LSTM2's outputs as (T, B, H2).
    """
    T, B, _ = x.shape
    ys = x.transpose(0, 2, 1)  # the LSTM helpers take the B rows as columns
    for cell, h0, c0 in ((cell1, *starts[:2]), (cell2, *starts[2:])):
        hs, cs = np.empty((2, T + 1, cell.hidden, B))
        hs[0], cs[0] = h0.T, c0.T
        for t in range(T):
            _, hs[t + 1], cs[t + 1], _ = folded_step(cell, ys[t], hs[t], cs[t])
        ys = hs[1:]
    return ys.transpose(0, 2, 1)


def pair_cells(rng, n_in=3, H1=4, H2=2):
    cells = LstmCell.init(n_in, H1, rng), LstmCell.init(H1, H2, rng)
    for cell in cells:
        cell.b += rng.normal(scale=0.3, size=cell.b.shape)
    return cells


def test_lstm_rejects_mismatched_state_width():
    cell1, cell2 = pair_cells(np.random.default_rng(0), H1=5)
    zeros = [np.zeros(5), np.zeros(5), np.zeros(2), np.zeros(2)]
    for k, wrong in enumerate((4, 4, 5, 5)):
        starts = list(zeros)
        starts[k] = np.zeros(wrong)
        with pytest.raises(ShapeError):
            lstm_pair_forward(cell1, cell2, np.zeros((1, 3)), starts, LstmPairBuffers(1, 1, 3, 5, 2))


def pair_grads(cells, x, starts, gh, T, B):
    """Forward then reverse of one batch; returns (output, dx, six weight grads)."""
    buf = LstmPairBuffers(T, B, cells[0].n_in, cells[0].hidden, cells[1].hidden)
    out = lstm_pair_forward(*cells, x, starts, buf).copy()
    dx = np.empty_like(x)
    return (out, dx, *lstm_pair_reverse(cells[0], x, buf, gh, dx))


def test_lstm_batch_matches_per_row_apply():
    # the skewed pair over B rows and T steps equals the two per-cell loops
    # of the reference in value, and its reverse equals the B=1 runs of
    # each row: per row for the input, summed over rows for the weights.
    # Rows are time-major (t*B + b); T=1 has only the two phantom halves.
    B = 5
    for T in range(1, 5):
        rng = np.random.default_rng(11 + T)
        cells = pair_cells(rng)
        x = rng.normal(size=(T * B, 3))
        starts = [rng.normal(size=(B, H)) * 0.5 for H in (4, 4, 2, 2)]
        seed = np.cos(np.arange(T * B * 2, dtype=float)).reshape(T * B, 2)

        out, dx, *weights = pair_grads(cells, x, starts, seed, T, B)
        want = two_cell_reference(*cells, x.reshape(T, B, 3), starts)
        np.testing.assert_allclose(out, want.reshape(T * B, 2), rtol=1e-13, atol=1e-15)

        total = None
        for b in range(B):
            rows = [s[b:b + 1] for s in starts]
            _, dx_b, *part = pair_grads(cells, x[b::B].copy(), rows, seed[b::B], T, 1)
            np.testing.assert_allclose(dx[b::B], dx_b, rtol=1e-12, atol=1e-15)
            total = part if total is None else [a + w for a, w in zip(total, part)]
        # weight grads accumulate across the batch
        for got, want in zip(weights, total):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)


def test_lstm_batch_rejects_bad_shapes():
    cell1, cell2 = pair_cells(np.random.default_rng(0))
    starts = [np.zeros((2, H)) for H in (4, 4, 2, 2)]
    buf = LstmPairBuffers(3, 2, 3, 4, 2)
    with pytest.raises(ShapeError):  # input is a vector, not (T*B, n_in)
        lstm_pair_forward(cell1, cell2, np.zeros(3), starts, buf)
    with pytest.raises(ShapeError):  # rows are not T*B
        lstm_pair_forward(cell1, cell2, np.zeros((5, 3)), starts, buf)
    with pytest.raises(ShapeError):  # wrong input width
        lstm_pair_forward(cell1, cell2, np.zeros((6, 2)), starts, buf)
    with pytest.raises(ShapeError):  # state rows are not the batch size
        lstm_pair_forward(cell1, cell2, np.zeros((6, 3)),
                          [*starts[:3], np.zeros((3, 2))], buf)
    with pytest.raises(ShapeError):  # buffers of other hidden sizes
        lstm_pair_forward(cell1, cell2, np.zeros((6, 3)), starts, LstmPairBuffers(3, 2, 3, 2, 4))
    with pytest.raises(ShapeError):  # LSTM2 does not read LSTM1's width
        lstm_pair_forward(cell1, LstmCell.init(3, 2, np.random.default_rng(1)),
                          np.zeros((6, 3)), starts, buf)


@pytest.mark.parametrize("seed", range(4))
def test_lstm_sequence_gradients_match_finite_differences(seed):
    # T = 1..4 steps from non-zero per-row starting states, H1 != H2
    rng = np.random.default_rng(100 + seed)
    n_in, H1, H2, B, T = 3, 4, 2, 2, 1 + seed
    cells = pair_cells(rng, n_in, H1, H2)
    x = rng.normal(size=(T * B, n_in))
    starts = [rng.normal(scale=0.5, size=(B, H)) for H in (H1, H1, H2, H2)]
    weight = rng.normal(size=(T * B, H2))  # fixed projection so the output is scalar

    def value():
        out = lstm_pair_forward(*cells, x, starts, LstmPairBuffers(T, B, n_in, H1, H2))
        return float(np.sum(weight * out))

    _, dx, *grads = pair_grads(cells, x, starts, weight, T, B)
    leaves = [x] + [a for cell in cells for a in (cell.Wx, cell.Wh, cell.b)]
    for leaf, analytic in zip(leaves, [dx, *grads]):
        numeric = finite_diff(value, leaf)
        worst = max(
            rel_err(a, n) for a, n in zip(analytic.ravel(), numeric.ravel())
        )
        assert worst <= 1e-4, f"lstm pair grad off by {worst}"

"""Property tests of the fused NLL and its named stages over random small shapes.

For each of batch_nll, the dense stack, the skewed LSTM pair and the Gaussian
head: a batch's loss and gradients equal the sum of per-row calls to 1e-12
relative (per tensor, against its largest entry), and the reverse matches
central finite differences under rel_err <= 1e-4.  Each stage's loss is
sum(seed * output) for a fixed random seed array, so its reverse starts
from seed.  The examples are derandomized, so every run draws the same
ones.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from spnpb.evaluate import NLL_FD_STEP, rel_err
from spnpb.layers import (
    DenseLayer,
    LstmCell,
    LstmPairBuffers,
    dense_stack_forward,
    dense_stack_reverse,
    grad_view,
    lstm_pair_forward,
    lstm_pair_reverse,
)
from spnpb.model import ModelConfig, ModelParams, NormStats, RecurrentState
from spnpb.training import (
    GaussianHeadBuffers, batch_nll, gaussian_head_forward, gaussian_head_reverse)
from test_layers import two_cell_reference

PROPERTY = settings(max_examples=30, derandomize=True, database=None, deadline=None)

seeds = st.integers(0, 2**32 - 1)
small = st.integers(1, 3)


def assert_rel_close(got, want, rel=1e-12):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= rel * np.max(np.abs(want), initial=0.0)


def assert_sums_rows(batch, rows):
    """batch = (loss, weight grads, per-row grads); rows = one such per row."""
    loss, w_grads, row_grads = batch
    assert_rel_close(loss, sum(r[0] for r in rows))
    for k, got in enumerate(w_grads):
        assert_rel_close(got, sum(r[1][k] for r in rows))
    for k, got in enumerate(row_grads):
        assert_rel_close(got, np.concatenate([r[2][k] for r in rows]))


def assert_matches_fd(loss_fn, pairs, rng, coords=2):
    """Central differences at up to coords entries of each (array, gradient) pair."""
    for array, analytic in pairs:
        flat, analytic = array.reshape(-1), analytic.reshape(-1)
        assert np.shares_memory(flat, array)
        for i in rng.choice(flat.size, size=min(coords, flat.size), replace=False):
            keep = flat[i]
            flat[i] = keep + NLL_FD_STEP
            hi = loss_fn()
            flat[i] = keep - NLL_FD_STEP
            lo = loss_fn()
            flat[i] = keep
            assert rel_err(analytic[i], (hi - lo) / (2 * NLL_FD_STEP)) <= 1e-4


def dense_layers(rng, widths):
    layers = [DenseLayer.init(i, o, rng) for i, o in zip(widths, widths[1:])]
    for layer in layers:
        layer.b += rng.normal(scale=0.3, size=layer.b.shape)
    return layers


@PROPERTY
@given(n=small, widths=st.lists(st.integers(1, 5), min_size=2, max_size=4), seed=seeds)
def test_dense_stack(n, widths, seed):
    rng = np.random.default_rng(seed)
    layers = dense_layers(rng, widths)
    x = rng.normal(size=(n, widths[0]))
    d_out = rng.normal(size=(n, widths[-1]))

    def run(rows):
        k = len(x[rows])
        ys = [np.empty((k, w)) for w in widths[1:]]
        loss = float(np.sum(d_out[rows] * dense_stack_forward(layers, x[rows], ys)))
        scratch = np.empty(k * max(widths))
        grad_view(scratch, k, widths[-1])[...] = d_out[rows]
        grads = dense_stack_reverse(layers, x[rows], ys, scratch)
        # the ys now hold the pre-activation gradients, whose row sums are the bias gradients
        assert all(np.array_equal(y.sum(axis=0), db) for y, (_, db) in zip(ys, grads))
        return loss, [g for pair in grads for g in pair], [grad_view(scratch, k, widths[0])]

    batch = run(slice(None))
    assert_sums_rows(batch, [run(slice(b, b + 1)) for b in range(n)])
    weights = [a for layer in layers for a in (layer.W, layer.b)]
    assert_matches_fd(lambda: run(slice(None))[0],
                      [(x, batch[2][0]), *zip(weights, batch[1])], rng)


@PROPERTY
@given(B=small, T=st.integers(1, 4), n_in=small,
       widths=st.lists(st.integers(1, 4), min_size=2, max_size=2, unique=True), seed=seeds)
def test_lstm_sequence(B, T, n_in, widths, seed):
    # the skewed pair, H1 != H2 so that a packing mix-up cannot cancel out;
    # its forward also equals test_layers' two per-cell loops
    rng = np.random.default_rng(seed)
    H1, H2 = widths
    cells = LstmCell.init(n_in, H1, rng), LstmCell.init(H1, H2, rng)
    for cell in cells:
        cell.b += rng.normal(scale=0.3, size=cell.b.shape)
    x = rng.normal(size=(T, B, n_in))
    starts = [rng.normal(scale=0.5, size=(B, H)) for H in (H1, H1, H2, H2)]
    d_out = rng.normal(size=(T, B, H2))

    def run(rows):
        xs = x[:, rows].reshape(-1, n_in)
        k = len(xs) // T
        buf = LstmPairBuffers(T, k, n_in, H1, H2)
        out = lstm_pair_forward(*cells, xs, [s[rows] for s in starts], buf)
        gh = d_out[:, rows].reshape(-1, H2)
        loss = float(np.sum(gh * out))
        dx = np.empty_like(xs)
        grads = lstm_pair_reverse(cells[0], xs, buf, gh, dx)
        # back to (rows, T, n_in), so per-row gradients concatenate along rows
        return loss, list(grads), [dx.reshape(T, k, n_in).transpose(1, 0, 2)], out

    batch = run(slice(None))
    assert_rel_close(batch[3], two_cell_reference(*cells, x, starts).reshape(T * B, H2))
    assert_sums_rows(batch[:3], [run(slice(b, b + 1))[:3] for b in range(B)])
    weights = [a for cell in cells for a in (cell.Wx, cell.Wh, cell.b)]
    assert_matches_fd(lambda: run(slice(None))[0],
                      [(x, batch[2][0].transpose(1, 0, 2)), *zip(weights, batch[1])], rng)


@PROPERTY
@given(n=small, n_in=small, n_s=small, g=st.floats(0.1, 2.0), seed=seeds)
def test_gaussian_head(n, n_in, n_s, g, seed):
    rng = np.random.default_rng(seed)
    (last,) = dense_layers(rng, (n_in, 2 * n_s))
    y = rng.normal(size=(n, n_in))
    targets = rng.normal(size=(n, n_s))

    def run(rows):
        head = GaussianHeadBuffers(len(y[rows]), n_s)
        loss = g * gaussian_head_forward(last, y[rows], targets[rows], head)
        dy = np.empty_like(y[rows])
        grads = gaussian_head_reverse(last, y[rows], head, g, dy)
        return loss, list(grads), [dy]

    batch = run(slice(None))
    assert_sums_rows(batch, [run(slice(b, b + 1)) for b in range(n)])
    assert_matches_fd(lambda: run(slice(None))[0],
                      [(y, batch[2][0]), (last.W, batch[1][0]), (last.b, batch[1][1])], rng)


@PROPERTY
@given(B=small, T=st.integers(2, 5), n_s=small, n_u=small, n_p=small,
       from_state=st.booleans(), seed=seeds)
def test_batch_nll(B, T, n_s, n_u, n_p, from_state, seed):
    rng = np.random.default_rng(seed)
    stats = NormStats(np.zeros(n_s), np.ones(n_s), np.zeros(n_u), np.ones(n_u))
    params = ModelParams.init(ModelConfig(n_s=n_s, n_u=n_u, n_p=n_p), stats, rng)
    for w in params.weight_arrays():
        w += rng.normal(scale=0.1, size=w.shape)
    states = rng.normal(size=(B, T, n_s))
    commands = rng.normal(size=(B, T, n_u))
    p = rng.normal(scale=0.5, size=(B, n_p))
    init = None
    if from_state:
        init = RecurrentState(*rng.normal(scale=0.4, size=(4, params.config.layer_widths[4])))

    def run(rows):
        loss, reverse = batch_nll(params, p[rows], states[rows], commands[rows],
                                  init_state=init)
        w_grads, d_p = reverse(1.0)
        return loss, w_grads, [d_p]

    batch = run(slice(None))
    assert_sums_rows(batch, [run(slice(b, b + 1)) for b in range(B)])
    assert_matches_fd(lambda: run(slice(None))[0],
                      [(p, batch[2][0]), *zip(params.weight_arrays(), batch[1])], rng, coords=1)

"""Property tests of the fused NLL and its named stages over random small shapes.

For each of batch_nll, the dense stack, the LSTM sequence and the Gaussian
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
    LstmBuffers,
    LstmCell,
    dense_stack_forward,
    dense_stack_reverse,
    lstm_sequence_forward,
    lstm_sequence_reverse,
)
from spnpb.model import ModelConfig, ModelParams, NormStats, RecurrentState
from spnpb.training import (
    GaussianHeadBuffers, batch_nll, gaussian_head_forward, gaussian_head_reverse)

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
        ys = [np.empty((len(x[rows]), k)) for k in widths[1:]]
        loss = float(np.sum(d_out[rows] * dense_stack_forward(layers, x[rows], ys)))
        d_ys = [np.empty_like(y) for y in ys]
        d_ys[-1][...] = d_out[rows]
        dx = np.empty_like(x[rows])
        grads = dense_stack_reverse(layers, x[rows], ys, d_ys, dx=dx)
        return loss, [g for pair in grads for g in pair], [dx]

    batch = run(slice(None))
    assert_sums_rows(batch, [run(slice(b, b + 1)) for b in range(n)])
    weights = [a for layer in layers for a in (layer.W, layer.b)]
    assert_matches_fd(lambda: run(slice(None))[0],
                      [(x, batch[2][0]), *zip(weights, batch[1])], rng)


@PROPERTY
@given(B=small, T=st.integers(1, 4), n_in=small, H=small, seed=seeds)
def test_lstm_sequence(B, T, n_in, H, seed):
    rng = np.random.default_rng(seed)
    cell = LstmCell.init(n_in, H, rng)
    cell.b += rng.normal(scale=0.3, size=cell.b.shape)
    x = rng.normal(size=(T, B, n_in))
    h0, c0 = rng.normal(scale=0.5, size=(2, B, H))
    d_out = rng.normal(size=(T, B, H))

    def run(rows):
        xs = x[:, rows].reshape(-1, n_in)
        k = len(xs) // T
        buf = LstmBuffers(T, k, H)
        out = lstm_sequence_forward(cell, xs, h0[rows], c0[rows], buf)
        gh = d_out[:, rows].reshape(-1, H)
        loss = float(np.sum(gh * out))
        dx = np.empty_like(xs)
        grads = lstm_sequence_reverse(cell, xs, buf, gh, dx)
        # back to (rows, T, n_in), so per-row gradients concatenate along rows
        return loss, list(grads), [dx.reshape(T, k, n_in).transpose(1, 0, 2)]

    batch = run(slice(None))
    assert_sums_rows(batch, [run(slice(b, b + 1)) for b in range(B)])
    assert_matches_fd(lambda: run(slice(None))[0],
                      [(x, batch[2][0].transpose(1, 0, 2)),
                       *zip((cell.Wx, cell.Wh, cell.b), batch[1])], rng)


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

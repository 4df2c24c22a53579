"""The fused NLL's hand-written reverse: gradients, row order, determinism."""

import numpy as np
import pytest

from spnpb.evaluate import NLL_FD_STEP, finite_diff, rel_err
from spnpb.model import ModelConfig, ModelParams, NormStats, RecurrentState
from spnpb.training import batch_nll


def random_params(rng):
    stats = NormStats(np.zeros(2), np.ones(2), np.zeros(2), np.ones(2))
    return ModelParams.init(ModelConfig(n_s=2, n_u=2), stats, rng)


def test_branch_recording_order_does_not_change_grads():
    # the same two sequences in either row order: each bias gradient follows
    # its row, and the weight gradients do not depend on the order
    rng = np.random.default_rng(3)
    params = random_params(rng)
    states = rng.normal(size=(2, 5, 2))
    commands = rng.normal(size=(2, 5, 2))
    p = np.array([[0.6, -0.3], [-0.65, -0.3]])

    def grads(order):
        _, reverse = batch_nll(params, p[order], states[order], commands[order])
        w_grads, d_p = reverse(1.0)
        return w_grads, d_p[np.argsort(order)]

    w1, d1 = grads([0, 1])
    w2, d2 = grads([1, 0])
    np.testing.assert_allclose(d1, d2, atol=1e-12)
    for a, b in zip(w1, w2):
        np.testing.assert_allclose(a, b, atol=1e-12)


def test_bitwise_determinism():
    def run():
        rng = np.random.default_rng(7)
        params = random_params(rng)
        p = rng.normal(size=(3, 2))
        loss, reverse = batch_nll(params, p, rng.normal(size=(3, 6, 2)),
                                  rng.normal(size=(3, 6, 2)))
        w_grads, d_p = reverse(1.0)
        return loss, [*w_grads, d_p]

    y1, g1 = run()
    y2, g2 = run()
    assert y1 == y2
    for a, b in zip(g1, g2):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("seed", range(20))
def test_composite_graph_matches_finite_differences(seed):
    # the shape of a training epoch over two length buckets, one from a
    # non-zero state, combined as train() combines them: the losses summed,
    # the weight gradients summed, each bias row's gradient kept to itself
    rng = np.random.default_rng(seed)
    params = random_params(rng)
    p = np.stack([rng.normal(scale=0.5, size=2) for _ in range(3)])
    long_s, long_u = rng.normal(size=(2, 6, 2)), rng.normal(size=(2, 6, 2))
    short_s, short_u = rng.normal(size=(1, 4, 2)), rng.normal(size=(1, 4, 2))
    init = RecurrentState(*(rng.normal(scale=0.4, size=10) for _ in range(4)))

    def epoch():
        first = batch_nll(params, p[:2], long_s, long_u)
        second = batch_nll(params, p[2:], short_s, short_u, init_state=init)
        return first, second

    def loss_value():
        return sum(loss for loss, _ in epoch())

    (_, first), (_, second) = epoch()
    w_second, d_second = second(1.0)
    w_first, d_first = first(1.0)
    w_grads = [a + b for a, b in zip(w_second, w_first)]
    d_p = np.concatenate((d_first, d_second))

    numeric = finite_diff(loss_value, p, h=NLL_FD_STEP)
    worst = max(rel_err(a, n) for a, n in zip(d_p.ravel(), numeric.ravel()))
    assert worst <= 1e-4, f"bias grad off by {worst}"
    for w, analytic in zip(params.weight_arrays(), w_grads):
        flat, analytic = w.ravel(), analytic.ravel()
        for i in rng.choice(flat.size, size=min(2, flat.size), replace=False):
            keep = flat[i]
            flat[i] = keep + NLL_FD_STEP
            hi = loss_value()
            flat[i] = keep - NLL_FD_STEP
            lo = loss_value()
            flat[i] = keep
            err = rel_err(analytic[i], (hi - lo) / (2 * NLL_FD_STEP))
            assert err <= 1e-4, f"weight grad off by {err}"

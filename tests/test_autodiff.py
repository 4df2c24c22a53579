import numpy as np
import pytest

from spnpb.autodiff import ShapeError, Tape, Var, add_n, backward, scale, stack_rows
from spnpb.evaluate import NLL_FD_STEP, finite_diff, rel_err
from spnpb.layers import DenseLayer
from spnpb.model import ModelConfig, ModelParams, NormStats, RecurrentState
from spnpb.training import (
    LOG_2PI,
    GaussianHeadBuffers,
    batch_nll_node,
    gaussian_head_forward,
    gaussian_head_reverse,
)


def random_params(rng):
    stats = NormStats(np.zeros(2), np.ones(2), np.zeros(2), np.ones(2))
    return ModelParams.init(ModelConfig(n_s=2, n_u=2), stats, rng)


def test_empty_tape_gives_empty_map():
    assert backward(Tape(), 1.0) == {}


def test_leaf_used_twice_accumulates():
    tape = Tape()
    x = Var(np.array([0.3, -0.7]))
    add_n(tape, (scale(tape, x, 2.0), scale(tape, x, -0.5)))
    grads = backward(tape, np.array([1.0, 4.0]))
    np.testing.assert_array_equal(grads[x], [1.5, 6.0])


def test_non_participating_leaf_gets_exact_zero():
    tape = Tape()
    x = Var(np.array([1.0, 2.0]))
    dead = Var(np.array([5.0]))
    kept = scale(tape, x, 2.0)
    _unused = scale(tape, dead, 3.0)  # recorded but not connected to the output
    grads = backward(tape, np.ones(2), output=kept)
    assert np.array_equal(grads[dead], np.zeros(1))
    assert np.any(grads[x] != 0)


def test_output_grad_shape_mismatch_raises():
    tape = Tape()
    x = Var(np.zeros(3))
    scale(tape, x, 2.0)
    with pytest.raises(ShapeError):
        backward(tape, np.zeros(2))


def test_requesting_unknown_output_raises():
    tape = Tape()
    x = Var(np.zeros(3))
    scale(tape, x, 2.0)
    with pytest.raises(ValueError):
        backward(tape, np.zeros(3), output=Var(np.zeros(3)))


def test_branch_recording_order_does_not_change_grads():
    # two bias rows built in either order feed one fused NLL record
    rng = np.random.default_rng(3)
    params = random_params(rng)
    states = rng.normal(size=(2, 5, 2))
    commands = rng.normal(size=(2, 5, 2))

    def build(order):
        tape = Tape()
        x = Var(np.array([0.4, -0.2]))
        y = Var(np.array([1.3, 0.6]))
        if order == "xy":
            bx = scale(tape, x, 1.5)
            by = scale(tape, y, -0.5)
        else:
            by = scale(tape, y, -0.5)
            bx = scale(tape, x, 1.5)
        batch_nll_node(params, stack_rows(tape, (bx, by)), states, commands, tape)
        g = backward(tape, 1.0)
        return g[x], g[y]

    gx1, gy1 = build("xy")
    gx2, gy2 = build("yx")
    np.testing.assert_allclose(gx1, gx2, atol=1e-12)
    np.testing.assert_allclose(gy1, gy2, atol=1e-12)


def test_bitwise_determinism():
    def run():
        rng = np.random.default_rng(7)
        params = random_params(rng)
        tape = Tape()
        p = Var(rng.normal(size=(3, 2)))
        y = batch_nll_node(params, p, rng.normal(size=(3, 6, 2)), rng.normal(size=(3, 6, 2)),
                           tape)
        g = backward(tape, 1.0)
        return y.value.copy(), [g[v].copy() for v in (*params.weight_vars(), p)]

    y1, g1 = run()
    y2, g2 = run()
    assert np.array_equal(y1, y2)
    for a, b in zip(g1, g2):
        assert np.array_equal(a, b)


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


@pytest.mark.parametrize("seed", range(20))
def test_composite_graph_matches_finite_differences(seed):
    # the shape of a training epoch over two length buckets: bias rows
    # stacked into two fused NLL records, one from a non-zero state, and
    # the losses combined with add_n and scale
    rng = np.random.default_rng(seed)
    params = random_params(rng)
    p = [Var(rng.normal(scale=0.5, size=2)) for _ in range(3)]
    long_s, long_u = rng.normal(size=(2, 6, 2)), rng.normal(size=(2, 6, 2))
    short_s, short_u = rng.normal(size=(1, 4, 2)), rng.normal(size=(1, 4, 2))
    init = RecurrentState(*(rng.normal(scale=0.4, size=10) for _ in range(4)))

    def build(tape):
        first = batch_nll_node(params, stack_rows(tape, p[:2]), long_s, long_u, tape)
        second = batch_nll_node(params, stack_rows(tape, p[2:]), short_s, short_u, tape,
                                init_state=init)
        return add_n(tape, (first, scale(tape, second, 0.5)))

    def loss_value():
        return float(build(Tape()).value)

    tape = Tape()
    build(tape)
    grads = backward(tape, 1.0)

    for leaf in p:
        numeric = finite_diff(loss_value, leaf.value, h=NLL_FD_STEP)
        worst = max(rel_err(a, n) for a, n in zip(grads[leaf], numeric))
        assert worst <= 1e-4, f"bias grad off by {worst}"
    for w in params.weight_vars():
        flat, analytic = w.value.ravel(), grads[w].ravel()
        for i in rng.choice(flat.size, size=min(2, flat.size), replace=False):
            keep = flat[i]
            flat[i] = keep + NLL_FD_STEP
            hi = loss_value()
            flat[i] = keep - NLL_FD_STEP
            lo = loss_value()
            flat[i] = keep
            err = rel_err(analytic[i], (hi - lo) / (2 * NLL_FD_STEP))
            assert err <= 1e-4, f"weight grad off by {err}"


def test_elementwise_ops_match_finite_differences():
    rng = np.random.default_rng(42)
    a = Var(rng.uniform(-1.5, 1.5, size=4))
    b = Var(rng.uniform(0.5, 1.5, size=4))
    seed = rng.normal(size=4)

    def build(tape):
        return add_n(tape, (scale(tape, a, 0.7), b, scale(tape, add_n(tape, (a, b)), -1.3)))

    tape = Tape()
    build(tape)
    grads = backward(tape, seed)
    for leaf in (a, b):
        numeric = finite_diff(lambda: float(seed @ build(Tape()).value), leaf.value)
        worst = max(rel_err(x, n) for x, n in zip(grads[leaf], numeric))
        assert worst <= 1e-4


def test_scale_multiplies_value_and_gradient():
    tape = Tape()
    x = Var(np.array([1.0, 2.0]))
    y = scale(tape, x, -2.0)
    np.testing.assert_array_equal(y.value, [-2.0, -4.0])
    grads = backward(tape, np.ones(2))
    np.testing.assert_array_equal(grads[x], [-2.0, -2.0])


def test_stack_rows_splits_gradient_per_row():
    tape = Tape()
    rows = [Var(np.array([1.0, 2.0])), Var(np.array([3.0, 4.0])), Var(np.array([5.0, 6.0]))]
    out = stack_rows(tape, rows)
    np.testing.assert_array_equal(out.value, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    seed = np.array([[1.0, 2.0], [4.0, 8.0], [16.0, 32.0]])
    g = backward(tape, seed)
    for i, r in enumerate(rows):
        np.testing.assert_array_equal(g[r], seed[i])

    with pytest.raises(ValueError):
        stack_rows(Tape(), ())
    with pytest.raises(ShapeError):
        stack_rows(Tape(), (Var(np.zeros(2)), Var(np.zeros(3))))

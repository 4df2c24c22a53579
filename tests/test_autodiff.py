import numpy as np
import pytest

from spnpb.autodiff import (
    LOG_2PI,
    ShapeError,
    Tape,
    Var,
    add_n,
    affine_batch,
    backward,
    clip_,
    concat_cols,
    gaussian_nll,
    scale,
    slice_cols,
    stack_rows,
    tanh_,
    tile_rows,
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


def test_identity_affine_routes_output_grad_to_input():
    tape = Tape()
    w = Var(np.eye(2))
    b = Var(np.zeros(2))
    x = Var(np.array([[3.0, -4.0]]))
    y = affine_batch(tape, w, b, x)
    grads = backward(tape, np.array([[1.0, 0.0]]))
    assert np.array_equal(grads[x], np.array([[1.0, 0.0]]))
    assert np.array_equal(grads[b], np.array([1.0, 0.0]))
    assert np.array_equal(grads[w], np.array([[3.0, -4.0], [0.0, 0.0]]))


def test_empty_tape_gives_empty_map():
    assert backward(Tape(), 1.0) == {}


def test_leaf_used_twice_accumulates():
    tape = Tape()
    x = Var(np.array([0.3, -0.7]))
    y = add_n(tape, (tanh_(tape, x), tanh_(tape, x)))
    grads = backward(tape, np.ones(2))
    expected = 2.0 * (1.0 - np.tanh(x.value) ** 2)
    np.testing.assert_allclose(grads[x], expected, rtol=1e-14)


def test_non_participating_leaf_gets_exact_zero():
    tape = Tape()
    x = Var(np.array([1.0, 2.0]))
    dead = Var(np.array([5.0]))
    kept = tanh_(tape, x)
    _unused = scale(tape, dead, 3.0)  # recorded but not connected to the output
    grads = backward(tape, np.ones(2), output=kept)
    assert np.array_equal(grads[dead], np.zeros(1))
    assert np.any(grads[x] != 0)


def test_output_grad_shape_mismatch_raises():
    tape = Tape()
    x = Var(np.zeros(3))
    tanh_(tape, x)
    with pytest.raises(ShapeError):
        backward(tape, np.zeros(2))


def test_requesting_unknown_output_raises():
    tape = Tape()
    x = Var(np.zeros(3))
    tanh_(tape, x)
    with pytest.raises(ValueError):
        backward(tape, np.zeros(3), output=Var(np.zeros(3)))


def test_branch_recording_order_does_not_change_grads():
    def build(order):
        tape = Tape()
        x = Var(np.array([0.4, -0.2]))
        y = Var(np.array([1.3, 0.6]))
        if order == "xy":
            bx = tanh_(tape, x)
            by = scale(tape, tanh_(tape, y), 2.5)
        else:
            by = scale(tape, tanh_(tape, y), 2.5)
            bx = tanh_(tape, x)
        out = gaussian_nll(tape, bx, by, np.array([0.1, -0.3]))
        g = backward(tape, 1.0)
        return g[x], g[y]

    gx1, gy1 = build("xy")
    gx2, gy2 = build("yx")
    np.testing.assert_allclose(gx1, gx2, atol=1e-12)
    np.testing.assert_allclose(gy1, gy2, atol=1e-12)


def test_bitwise_determinism():
    def run():
        rng = np.random.default_rng(7)
        tape = Tape()
        w = Var(rng.normal(size=(4, 3)))
        b = Var(rng.normal(size=4))
        x = Var(rng.normal(size=(5, 3)))
        h = tanh_(tape, affine_batch(tape, w, b, x))
        y = gaussian_nll(tape, slice_cols(tape, h, 0, 2), slice_cols(tape, h, 2, 4),
                         np.zeros((5, 2)))
        g = backward(tape, 1.0)
        return y.value.copy(), g[w].copy(), g[x].copy()

    y1, gw1, gx1 = run()
    y2, gw2, gx2 = run()
    assert np.array_equal(y1, y2)
    assert np.array_equal(gw1, gw2)
    assert np.array_equal(gx1, gx2)


def test_clip_masks_gradient_outside_bounds():
    tape = Tape()
    x = Var(np.array([-2.0, 0.5, 2.0]))
    y = clip_(tape, x, -1.0, 1.0)
    np.testing.assert_array_equal(y.value, [-1.0, 0.5, 1.0])
    grads = backward(tape, np.ones(3))
    np.testing.assert_array_equal(grads[x], [0.0, 1.0, 0.0])


def test_gaussian_nll_value_matches_formula():
    tape = Tape()
    mean = Var(np.array([0.3, -0.1]))
    logvar = Var(np.array([0.2, -0.4]))
    target = np.array([0.0, 0.5])
    out = gaussian_nll(tape, mean, logvar, target)
    r = mean.value - target
    expected = 0.5 * np.sum(LOG_2PI + logvar.value + r * r * np.exp(-logvar.value))
    assert abs(float(out.value) - expected) < 1e-15


@pytest.mark.parametrize("seed", range(20))
def test_composite_graph_matches_finite_differences(seed):
    # the shape of the training NLL: rows of (u, s) and a tiled bias through
    # a tanh layer, a linear head split into mean and clamped logvar
    rng = np.random.default_rng(seed)
    w1 = Var(rng.normal(scale=0.7, size=(5, 4)))
    b1 = Var(rng.normal(scale=0.3, size=5))
    w2 = Var(rng.normal(scale=0.7, size=(4, 5)))
    b2 = Var(rng.normal(scale=0.3, size=4))
    x = Var(rng.normal(size=(6, 3)))
    p = [Var(rng.normal(size=1)) for _ in range(2)]
    target = rng.normal(size=(6, 2))

    def build(tape):
        p_rows = tile_rows(tape, stack_rows(tape, p), 3)
        h = tanh_(tape, affine_batch(tape, w1, b1, concat_cols(tape, (x, p_rows))))
        out = affine_batch(tape, w2, b2, h)
        mean = slice_cols(tape, out, 0, 2)
        lv = clip_(tape, slice_cols(tape, out, 2, 4), -10.0, 10.0)
        nll = gaussian_nll(tape, mean, lv, target)
        return add_n(tape, (nll, scale(tape, nll, 0.5)))

    tape = Tape()
    loss = build(tape)
    grads = backward(tape, 1.0)

    for leaf in (w1, b1, w2, b2, x, *p):
        numeric = finite_diff(lambda: float(build(Tape()).value), leaf.value)
        worst = max(
            rel_err(a, n) for a, n in zip(grads[leaf].ravel(), numeric.ravel())
        )
        assert worst <= 1e-4, f"leaf grad off by {worst}"


def test_elementwise_ops_match_finite_differences():
    rng = np.random.default_rng(42)
    a = Var(rng.uniform(-1.5, 1.5, size=4))
    b = Var(rng.uniform(0.5, 1.5, size=4))

    def build(tape):
        ta = tanh_(tape, a)
        lv = clip_(tape, scale(tape, add_n(tape, (ta, b)), 0.7), -0.5, 0.5)
        return gaussian_nll(tape, ta, lv, np.full(4, 0.2))

    tape = Tape()
    build(tape)
    grads = backward(tape, 1.0)
    for leaf in (a, b):
        numeric = finite_diff(lambda: float(build(Tape()).value), leaf.value)
        worst = max(rel_err(x, n) for x, n in zip(grads[leaf], numeric))
        assert worst <= 1e-4


def test_scale_multiplies_value_and_gradient():
    tape = Tape()
    x = Var(np.array([1.0, 2.0]))
    y = scale(tape, x, -2.0)
    np.testing.assert_array_equal(y.value, [-2.0, -4.0])
    grads = backward(tape, np.ones(2))
    np.testing.assert_array_equal(grads[x], [-2.0, -2.0])


def test_affine_batch_matches_per_row_affine():
    # reference: each row's w @ x + b and its hand-derived vjp
    rng = np.random.default_rng(5)
    w = Var(rng.normal(size=(3, 4)))
    b = Var(rng.normal(size=3))
    x = rng.normal(size=(6, 4))

    tape = Tape()
    xb = Var(x)
    out = affine_batch(tape, w, b, xb)
    seed = rng.normal(size=(6, 3))
    grads = backward(tape, seed)

    want_w = np.zeros((3, 4))
    want_b = np.zeros(3)
    for i in range(6):
        np.testing.assert_allclose(out.value[i], w.value @ x[i] + b.value, atol=1e-15)
        np.testing.assert_allclose(grads[xb][i], w.value.T @ seed[i], rtol=1e-12, atol=1e-15)
        want_w += np.outer(seed[i], x[i])
        want_b += seed[i]
    np.testing.assert_allclose(grads[w], want_w, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(grads[b], want_b, rtol=1e-12, atol=1e-15)


def test_affine_batch_rejects_bad_shapes():
    w, b = Var(np.zeros((3, 4))), Var(np.zeros(3))
    with pytest.raises(ShapeError):
        affine_batch(Tape(), w, b, Var(np.zeros(4)))
    with pytest.raises(ShapeError):
        affine_batch(Tape(), w, b, Var(np.zeros((2, 5))))
    with pytest.raises(ShapeError):
        affine_batch(Tape(), w, Var(np.zeros(4)), Var(np.zeros((2, 4))))


def test_concat_cols_and_slice_cols_route_gradients():
    tape = Tape()
    a = Var(np.array([[1.0, 2.0], [3.0, 4.0]]))
    b = Var(np.array([[5.0], [6.0]]))
    joined = concat_cols(tape, (a, b))
    np.testing.assert_array_equal(joined.value, [[1.0, 2.0, 5.0], [3.0, 4.0, 6.0]])
    left = slice_cols(tape, joined, 0, 2)
    g = backward(tape, np.array([[1.0, 10.0], [100.0, 1000.0]]), output=left)
    np.testing.assert_array_equal(g[a], [[1.0, 10.0], [100.0, 1000.0]])
    np.testing.assert_array_equal(g[b], [[0.0], [0.0]])

    tape = Tape()
    joined = concat_cols(tape, (a, b))
    right = slice_cols(tape, joined, 2, 3)
    g = backward(tape, np.array([[7.0], [8.0]]), output=right)
    np.testing.assert_array_equal(g[b], [[7.0], [8.0]])
    np.testing.assert_array_equal(g[a], np.zeros((2, 2)))


def test_concat_cols_and_slice_cols_reject_bad_shapes():
    with pytest.raises(ValueError):
        concat_cols(Tape(), ())
    with pytest.raises(ShapeError):
        concat_cols(Tape(), (Var(np.zeros((2, 1))), Var(np.zeros((3, 1)))))
    with pytest.raises(ShapeError):
        slice_cols(Tape(), Var(np.zeros((2, 3))), 1, 4)
    with pytest.raises(ShapeError):
        slice_cols(Tape(), Var(np.zeros(3)), 0, 1)


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

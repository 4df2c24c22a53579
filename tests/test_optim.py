import numpy as np
import pytest

from spnpb.optim import (
    AdamState,
    MomentumState,
    adam_update,
    NonFiniteGradientError,
    clip_grad_norm,
    momentum_update,
)


def test_adam_zero_gradient_is_a_noop():
    p = np.array([1.0, -2.0, 3.0])
    state = AdamState(lr=0.01)
    adam_update([p], [np.zeros(3)], state)
    np.testing.assert_array_equal(p, [1.0, -2.0, 3.0])


def test_adam_first_step_has_lr_magnitude():
    # with bias correction the first update is exactly -lr * sign(g)
    # (up to the eps term, which only shrinks it slightly)
    p = np.zeros(4)
    g = np.array([1.0, -3.0, 0.5, 10.0])
    state = AdamState(lr=0.05)
    adam_update([p], [g.copy()], state)
    np.testing.assert_allclose(p, -0.05 * np.sign(g), rtol=1e-7)


def test_adam_matches_scalar_reference_sequence():
    lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
    p = np.array([0.5])
    state = AdamState(lr=lr, beta1=b1, beta2=b2, eps=eps)

    ref_p, m, v = 0.5, 0.0, 0.0
    grads = [0.3, -0.2, 0.7, 0.05]
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1**t)
        vhat = v / (1 - b2**t)
        ref_p -= lr * mhat / (np.sqrt(vhat) + eps)
        adam_update([p], [np.array([g])], state)
        assert abs(p[0] - ref_p) < 1e-15, f"diverged at step {t}"


def test_adam_rejects_mismatched_lengths():
    state = AdamState()
    with pytest.raises(ValueError):
        adam_update([np.zeros(2)], [np.zeros(2), np.zeros(2)], state)


def test_adam_rejects_shape_change_between_steps():
    state = AdamState()
    p = np.zeros(3)
    adam_update([p], [np.ones(3)], state)
    with pytest.raises(ValueError):
        adam_update([np.zeros(4)], [np.ones(4)], state)


def test_momentum_zero_mu_is_vanilla_sgd():
    p = np.array([1.0, 1.0])
    state = MomentumState(lr=0.1, momentum=0.0)
    momentum_update([p], [np.array([2.0, -4.0])], state)
    np.testing.assert_allclose(p, [0.8, 1.4], rtol=1e-15)


def test_momentum_constant_gradient_approaches_geometric_limit():
    # v_inf = -lr*g/(1-mu) for a constant gradient
    lr, mu, g = 0.05, 0.9, 1.0
    p = np.array([0.0])
    state = MomentumState(lr=lr, momentum=mu)
    steps = []
    for _ in range(300):
        before = p[0]
        momentum_update([p], [np.array([g])], state)
        steps.append(p[0] - before)
    limit = -lr * g / (1 - mu)
    assert abs(steps[-1] - limit) < 1e-10


def test_momentum_coasts_with_zero_gradient():
    lr, mu = 0.1, 0.9
    p = np.array([0.0])
    state = MomentumState(lr=lr, momentum=mu)
    momentum_update([p], [np.array([1.0])], state)
    v1 = -lr  # velocity after one step
    assert abs(p[0] - v1) < 1e-15
    momentum_update([p], [np.array([0.0])], state)
    assert abs(p[0] - (v1 + mu * v1)) < 1e-15


def test_clip_grad_norm_rescales_only_above_threshold():
    g1, g2 = np.array([3.0, 0.0]), np.array([0.0, 4.0])
    # total norm 5, clip to 2.5 => exact halving
    clipped = clip_grad_norm([g1, g2], 2.5)
    np.testing.assert_allclose(clipped[0], [1.5, 0.0], rtol=1e-15)
    np.testing.assert_allclose(clipped[1], [0.0, 2.0], rtol=1e-15)

    small = [np.array([0.1, 0.1])]
    out = clip_grad_norm(small, 10.0)
    np.testing.assert_array_equal(out[0], small[0])


def test_clip_grad_norm_rejects_nonpositive_threshold():
    with pytest.raises(ValueError):
        clip_grad_norm([np.ones(2)], 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_clip_grad_norm_rejects_non_finite_gradients(bad):
    with pytest.raises(NonFiniteGradientError):
        clip_grad_norm([np.ones(2), np.array([1.0, bad])], 10.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_clip_grad_norm_rejects_non_finite_threshold(bad):
    # a NaN threshold used to return the gradient unscaled: clipping silently off
    with pytest.raises(ValueError):
        clip_grad_norm([np.full(2, 100.0)], bad)

import numpy as np
import pytest

from spnpb import control, model
from spnpb.control import (
    ControlConfig,
    ControlPlan,
    Controller,
    ControllerError,
    control_loss,
    control_loss_grad,
    gamma_schedule,
    line_search_minimize,
    optimize,
    row_gradient,
    warm_start,
)
from spnpb.evaluate import finite_diff, rel_err
from spnpb.model import (
    ModelConfig, ModelParams, NormStats, RecurrentState, forward, rollout_batch, rollout_vjp)


def unit_stats():
    return NormStats(np.zeros(2), np.ones(2), np.zeros(2), np.ones(2))


def make_params(seed=0):
    cfg = ModelConfig(n_s=2, n_u=2)
    return ModelParams.init(cfg, unit_stats(), np.random.default_rng(seed))


def test_warm_start_shifts_and_repeats_last():
    u = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    shifted = warm_start(u)
    np.testing.assert_array_equal(shifted, [[3.0, 4.0], [5.0, 6.0], [5.0, 6.0]])


def test_warm_start_fixed_point_on_constant_plan():
    u = np.tile([0.5, -0.5], (4, 1))
    np.testing.assert_array_equal(warm_start(u), u)
    plan = ControlPlan(u, 0.0, np.zeros((4, 2)), np.zeros((4, 2)))
    np.testing.assert_array_equal(warm_start(plan), u)


def test_gamma_schedule_endpoints_and_ratio():
    g = gamma_schedule(3.0, 10)
    assert len(g) == 10
    assert abs(g[0] - 0.003) < 1e-15
    assert abs(g[-1] - 3.0) < 1e-12
    ratios = g[1:] / g[:-1]
    np.testing.assert_allclose(ratios, 10.0 ** (1.0 / 3.0), rtol=1e-12)
    assert np.all(np.diff(g) > 0)

    np.testing.assert_allclose(gamma_schedule(3.0, 1), [3.0])


def test_control_loss_zero_on_perfect_tracking():
    cfg = ControlConfig(n_seq=3)
    means = np.ones((3, 2))
    loss = control_loss(means, np.zeros((3, 2)), np.zeros((3, 2)), means.copy(),
                        np.zeros((3, 2)), cfg)
    assert loss == 0.0


def test_control_loss_term_isolation():
    n = 4
    means = np.zeros((n, 2))
    variances = np.full((n, 2), 2.0)
    u_seq = np.zeros((n, 2))
    s_ref = np.zeros((n, 2))
    u_orig = np.full((n, 2), 3.0)

    base = ControlConfig(n_seq=n)
    assert control_loss(means, variances, u_seq, s_ref, u_orig, base) == 0.0

    with_var = ControlConfig(n_seq=n, c_variance=5.0)
    expected = 5.0 * np.sqrt(n * 2 * 2.0**2)
    assert abs(control_loss(means, variances, u_seq, s_ref, u_orig, with_var)
               - expected) < 1e-12

    with_orig = ControlConfig(n_seq=n, c_orig=0.5)
    expected = 0.5 * np.sqrt(n * 2 * 3.0**2)
    assert abs(control_loss(means, variances, u_seq, s_ref, u_orig, with_orig)
               - expected) < 1e-12


def test_control_loss_per_state_mode_oracle():
    # unit variances over |mean|+eps = 1/(0.9+0.1) = 1 per element
    n = 5
    cfg = ControlConfig(n_seq=n, c_variance=1.0, variance_mode="per_state")
    means = np.full((n, 2), -0.9)
    variances = np.ones((n, 2))
    s_ref = means.copy()
    loss = control_loss(means, variances, np.zeros((n, 2)), s_ref,
                        np.zeros((n, 2)), cfg)
    assert abs(loss - np.sqrt(n * 2)) < 1e-12


@pytest.mark.parametrize("mode", ["absolute", "per_state"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_loss_node_matches_numeric_loss(mode, seed):
    # control_loss_grad against central differences of control_loss itself,
    # at a plan rolled out by the model
    params = make_params(seed)
    cfg = ControlConfig(n_seq=4, c_variance=0.7, c_orig=0.3, variance_mode=mode)
    rng = np.random.default_rng(seed + 100)
    u_seq = rng.normal(size=(4, 2))
    s_ref = rng.normal(size=(4, 2))
    u_orig = rng.normal(size=(4, 2))
    s0 = rng.normal(size=2)
    p = np.zeros(2)

    means, variances = rollout_batch(params, RecurrentState.zeros(), s0, u_seq[None], p)
    means, variances = means[0], variances[0]
    analytic = control_loss_grad(means, variances, u_seq, s_ref, u_orig, cfg)

    def loss():
        return float(control_loss(means, variances, u_seq, s_ref, u_orig, cfg))

    for got, x in zip(analytic, (means, variances, u_seq)):
        assert got.shape == x.shape
        numeric = finite_diff(loss, x)
        for a, n in zip(got.ravel(), numeric.ravel()):
            assert rel_err(a, n) <= 1e-4


def test_loss_gradient_of_a_norm_is_its_unit_direction():
    cfg = ControlConfig(n_seq=1)
    zeros = np.zeros((1, 2))
    d_means, d_variances, d_u = control_loss_grad(
        zeros, zeros, zeros, np.array([[3.0, 4.0]]), zeros, cfg)
    np.testing.assert_allclose(d_means, [[-0.6, -0.8]], rtol=1e-15)
    np.testing.assert_array_equal(d_variances, zeros)
    np.testing.assert_array_equal(d_u, zeros)
    # a zero residual has a zero gradient, not a NaN
    d_means, _, _ = control_loss_grad(zeros, zeros, zeros, zeros, zeros, cfg)
    np.testing.assert_array_equal(d_means, zeros)


def reverse_pass_gradient(params, state, s_t, u_stack, row, p, s_ref, u_orig, cfg):
    """The controller's gradient: row `row` of a stack scored by rollout_vjp."""
    means, variances, vjp = rollout_vjp(params, state, s_t, u_stack, p)
    return row_gradient(means, variances, vjp, row, u_stack[row], s_ref, u_orig, cfg)


def scored_loss(params, state, s_t, u_seq, p, s_ref, u_orig, cfg):
    """The loss the line search scores: rollout_batch plus control_loss."""
    means, variances = rollout_batch(params, state, s_t, u_seq[None], p)
    return float(control_loss(means, variances, u_seq[None], s_ref, u_orig, cfg)[0])


@pytest.mark.parametrize("n_seq", [1, 10])
@pytest.mark.parametrize("mode", ["absolute", "per_state"])
def test_reverse_pass_matches_finite_differences(mode, n_seq):
    # the gradient optimize takes, from one row of a scored stack of plans,
    # against central differences and against the reverse of that plan alone
    rng = np.random.default_rng(40 + n_seq)
    for row in range(3):
        params = ModelParams.init(ModelConfig(n_s=2, n_u=2), unit_stats(), rng)
        state = RecurrentState(*rng.normal(scale=0.5, size=(4, 10)))
        cfg = ControlConfig(n_seq=n_seq, c_variance=rng.uniform(1.0, 30.0), c_orig=0.3,
                            variance_mode=mode)
        s_t, p = rng.normal(size=2), rng.normal(scale=0.5, size=2)
        s_ref, u_orig, u_seq = (rng.normal(size=(n_seq, 2)) for _ in range(3))
        u_stack = rng.normal(size=(4, n_seq, 2))
        u_stack[row] = u_seq
        fixed = (p, s_ref, u_orig, cfg)

        analytic = reverse_pass_gradient(params, state, s_t, u_stack, row, *fixed)
        numeric = finite_diff(lambda: scored_loss(params, state, s_t, u_seq, *fixed), u_seq)
        assert analytic.shape == (n_seq, 2)
        worst = max(rel_err(a, n) for a, n in zip(analytic.ravel(), numeric.ravel()))
        assert worst <= 1e-4, f"reverse pass off by {worst}"
        alone = reverse_pass_gradient(params, state, s_t, u_seq[None], 0, *fixed)
        assert np.max(np.abs(analytic - alone)) <= 1e-12 * np.max(np.abs(alone))


@pytest.mark.parametrize("K", [3, 10])
def test_batched_rollouts_are_c_contiguous_and_score_like_single_plans(K):
    # control_loss sums over each row in memory order: a transposed view
    # would score the same plan differently
    rng = np.random.default_rng(60 + K)
    params = ModelParams.init(ModelConfig(n_s=2, n_u=2), unit_stats(), rng)
    state = RecurrentState(*rng.normal(scale=0.5, size=(4, 10)))
    cfg = ControlConfig(n_seq=6, c_variance=30.0, c_orig=0.3, variance_mode="per_state")
    s_t, p = rng.normal(size=2), rng.normal(scale=0.5, size=2)
    s_ref, u_orig = rng.normal(size=(6, 2)), rng.normal(size=(6, 2))
    u_stack = rng.normal(size=(K, 6, 2))
    for rollout in (rollout_batch, rollout_vjp):
        means, variances = rollout(params, state, s_t, u_stack, p)[:2]
        assert means.shape == variances.shape == (K, 6, 2)
        assert means.flags.c_contiguous and variances.flags.c_contiguous
        losses = control_loss(means, variances, u_stack, s_ref, u_orig, cfg)
        for k in range(K):
            one = scored_loss(params, state, s_t, u_stack[k], p, s_ref, u_orig, cfg)
            assert abs(losses[k] - one) <= 1e-12 * abs(one)


def test_clamped_logvar_passes_no_gradient():
    # the second logvar sits far above the clamp at every step, so its
    # variance is constant: a loss on it alone has exactly zero gradient
    rng = np.random.default_rng(77)
    params = ModelParams.init(ModelConfig(n_s=2, n_u=2), unit_stats(), rng)
    params.dense_out[-1].b[3] = 50.0
    state = RecurrentState(*rng.normal(scale=0.5, size=(4, 10)))
    s_t, p, u_seq = rng.normal(size=2), rng.normal(size=2), rng.normal(size=(1, 5, 2))

    means, variances, vjp = rollout_vjp(params, state, s_t, u_seq, p)
    np.testing.assert_array_equal(variances[..., 1], np.exp(10.0))
    assert np.all(variances[..., 0] < np.exp(10.0))
    d_variances = np.zeros_like(variances)
    d_variances[..., 1] = rng.normal(size=5)
    np.testing.assert_array_equal(vjp(np.zeros_like(means), d_variances), 0.0)
    # the unclamped entry does pass gradient
    d_variances = np.zeros_like(variances)
    d_variances[..., 0] = 1.0
    assert np.any(vjp(np.zeros_like(means), d_variances) != 0.0)

    cfg = ControlConfig(n_seq=5, c_variance=2.0, c_orig=0.3)
    fixed = (p, rng.normal(size=(5, 2)), rng.normal(size=(5, 2)), cfg)
    numeric = finite_diff(lambda: scored_loss(params, state, s_t, u_seq[0], *fixed), u_seq[0])
    analytic = reverse_pass_gradient(params, state, s_t, u_seq, 0, *fixed)
    worst = max(rel_err(a, n) for a, n in zip(analytic.ravel(), numeric.ravel()))
    assert worst <= 1e-4, f"reverse pass off by {worst}"


def test_line_search_quadratic_oracle():
    # diagonal quadratic with known minimum; 3 rounds over the ladder
    # must land within 5% of the floor
    rng = np.random.default_rng(7)
    a = rng.uniform(0.5, 1.5, size=6)
    floor = 2.0

    def value_fn(u):
        return floor + np.sum(a * u * u, axis=1), None

    def grad_fn(u):
        return 2.0 * a * u

    u0 = np.full(6, 1.0)
    u, loss, _aux, loss0 = line_search_minimize(
        value_fn, grad_fn, u0, gamma_schedule(3.0, 10), n_epoch=3
    )
    assert loss0 == value_fn(u0[None])[0][0]
    assert loss <= loss0
    assert loss <= 1.05 * floor, f"reached {loss}, floor {floor}"


def test_line_search_zero_gradient_is_stationary():
    calls = {"value": 0, "grad": 0}

    def value_fn(u):
        calls["value"] += 1
        return np.full(len(u), 5.0), ["aux"] * len(u)

    def grad_fn(u):
        calls["grad"] += 1
        return np.zeros_like(u)

    u0 = np.array([1.0, -2.0])
    u, loss, aux, loss0 = line_search_minimize(
        value_fn, grad_fn, u0, gamma_schedule(3.0, 10), n_epoch=3
    )
    np.testing.assert_array_equal(u, u0)
    assert loss == 5.0 == loss0
    assert aux == "aux"
    # the first round keeps its incumbent, so the later two would repeat it
    assert calls == {"value": 2, "grad": 1}


def test_line_search_never_worsens_on_random_instances():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        center = rng.normal(size=4)
        scales = rng.uniform(0.2, 3.0, size=4)

        def value_fn(u):
            return np.sum(scales * np.abs(u - center) ** 1.5, axis=1), None

        def grad_fn(u):
            d = u - center
            return 1.5 * scales * np.sign(d) * np.sqrt(np.abs(d))

        u0 = rng.normal(scale=2.0, size=4)
        _u, loss, _aux, loss0 = line_search_minimize(
            value_fn, grad_fn, u0, gamma_schedule(3.0, 10), n_epoch=3
        )
        assert loss <= loss0


def test_line_search_rejects_non_finite_start():
    def value_fn(u):
        return np.full(len(u), np.nan), None

    with pytest.raises(ControllerError):
        line_search_minimize(
            value_fn, lambda u: np.zeros_like(u), np.zeros(2),
            gamma_schedule(3.0, 4), n_epoch=1,
        )


def test_line_search_clamps_candidates():
    # unconstrained minimum at 10, box at 1: must stop on the box edge
    def value_fn(u):
        return np.sum((u - 10.0) ** 2, axis=1), None

    def grad_fn(u):
        return 2.0 * (u - 10.0)

    u, loss, _aux, _loss0 = line_search_minimize(
        value_fn, grad_fn, np.zeros(2), gamma_schedule(3.0, 10), n_epoch=3,
        clamp=lambda v: np.clip(v, -1.0, 1.0),
    )
    np.testing.assert_array_equal(u, np.ones(2))


def test_line_search_tie_keeps_the_smaller_step():
    # from u=0 with gradient -1 candidate k sits exactly at gammas[k];
    # candidates 3 and 6 share the lowest loss
    gammas = gamma_schedule(3.0, 10)

    def value_fn(u):
        x = u[:, 0]
        return np.where(x == 0.0, 2.0,
                        np.where(np.isin(x, gammas[[3, 6]]), 0.5, 1.0)), None

    u, loss, _aux, loss0 = line_search_minimize(
        value_fn, lambda u: -np.ones_like(u), np.zeros(1), gammas, n_epoch=1)
    assert loss0 == 2.0 and loss == 0.5
    np.testing.assert_array_equal(u, [gammas[3]])


def test_line_search_skips_nan_candidates():
    # a NaN ahead of the best finite candidate must not be picked
    gammas = gamma_schedule(3.0, 10)

    def value_fn(u):
        x = u[:, 0]
        loss = np.where(x == 0.0, 2.0, 1.0)
        loss[np.isin(x, gammas[[1, 2]])] = np.nan
        loss[x == gammas[5]] = 0.25
        return loss, None

    u, loss, _aux, _loss0 = line_search_minimize(
        value_fn, lambda u: -np.ones_like(u), np.zeros(1), gammas, n_epoch=1)
    assert loss == 0.25
    np.testing.assert_array_equal(u, [gammas[5]])

    def all_nan(u):
        return np.where(u[:, 0] == 0.0, 2.0, np.nan), None

    u, loss, _aux, _loss0 = line_search_minimize(
        all_nan, lambda u: -np.ones_like(u), np.zeros(1), gammas, n_epoch=2)
    assert loss == 2.0
    np.testing.assert_array_equal(u, [0.0])


def test_optimize_never_worsens_the_warm_start():
    params = make_params(seed=1)
    cfg = ControlConfig(n_seq=5, c_variance=1.0)
    rng = np.random.default_rng(3)
    prev = ControlPlan.zeros(5, 2, 2)
    state = RecurrentState.zeros()
    for trial in range(5):
        s_t = rng.normal(size=2)
        s_ref = rng.normal(size=(5, 2))
        u_orig = rng.normal(size=(5, 2))
        plan = optimize(params, np.zeros(2), state, s_t, s_ref, u_orig, prev, cfg)
        assert plan.loss <= plan.initial_loss + 1e-12
        prev = plan


@pytest.mark.parametrize("mode", ["absolute", "per_state"])
def test_optimize_never_worsens_on_random_instances(mode):
    rng = np.random.default_rng(21)
    for _ in range(10):
        params = ModelParams.init(ModelConfig(n_s=2, n_u=2), unit_stats(), rng)
        cfg = ControlConfig(n_seq=5, c_variance=rng.uniform(0.0, 30.0),
                            c_orig=rng.uniform(0.0, 1.0), variance_mode=mode)
        h = rng.normal(scale=0.5, size=(4, 10))
        state = RecurrentState(*h)
        prev = ControlPlan(rng.normal(size=(5, 2)), 0.0, np.zeros((5, 2)), np.zeros((5, 2)))
        plan = optimize(params, rng.normal(scale=0.5, size=2), state,
                        rng.normal(size=2), rng.normal(size=(5, 2)),
                        rng.normal(size=(5, 2)), prev, cfg)
        assert plan.loss <= plan.initial_loss + 1e-12


def test_optimize_runs_one_forward_per_scored_stack_and_one_reverse_per_round(monkeypatch):
    # the warm start and the 3 rounds' candidates are scored; each round's
    # gradient reverses a row of the stack scored last without a forward of
    # its own.  Every round here improves, so none ends the search early
    calls = {"_run": 0, "_reverse": 0}
    for name in calls:
        def counted(*args, _fn=getattr(model, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(model, name, counted)
    params = make_params(seed=8)
    cfg = ControlConfig(c_variance=30.0)
    rng = np.random.default_rng(8)
    prev = ControlPlan(rng.normal(size=(10, 2)), 0.0, np.zeros((10, 2)), np.zeros((10, 2)))
    optimize(params, np.zeros(2), RecurrentState.zeros(), rng.normal(size=2),
             rng.normal(size=(10, 2)), rng.normal(size=(10, 2)), prev, cfg)
    assert calls == {"_run": 1 + cfg.n_epoch, "_reverse": cfg.n_epoch}


def test_a_tick_folds_the_weights_once_for_the_live_forward_and_optimize(monkeypatch):
    # folding in every rollout and reverse would make 8 folds a tick, and a
    # fold of its own in the live forward and in optimize 2; each fold is
    # about a third of the live one-step forward
    folds = []
    fold = model.FoldedWeights.__init__

    def counted(self, params):
        folds.append(self)
        fold(self, params)

    monkeypatch.setattr(model.FoldedWeights, "__init__", counted)
    passed = {"forward": [], "optimize": []}
    for name in passed:
        def watched(*args, _fn=getattr(control, name), _name=name, **kwargs):
            passed[_name].append(kwargs.get("weights"))
            return _fn(*args, **kwargs)
        monkeypatch.setattr(control, name, watched)
    params = make_params(seed=8)
    ctl = Controller(params, ControlConfig(c_variance=30.0), np.zeros(2))
    rng = np.random.default_rng(8)
    for _ in range(3):
        ctl.step(rng.normal(size=2), rng.normal(size=(10, 2)))
    # the first tick has no live forward: no pair was fed before it
    assert len(folds) == 3 and all(f.params is params for f in folds)
    assert len(passed["optimize"]) == 3 and len(passed["forward"]) == 2
    assert all(a is b for a, b in zip(passed["optimize"], folds))
    assert all(a is b for a, b in zip(passed["forward"], folds[1:]))


def test_a_weight_changed_in_place_between_ticks_is_used_by_the_next_tick():
    # train and check_gradient_integrity change weights in place, so no fold
    # may outlive the call that made it.  With a one-step horizon the first
    # tick starts from the zero state and never reads LSTM1's Wh; the second
    # tick's live forward makes the state non-zero, so from then on it does.
    cfg = ControlConfig(n_seq=1, c_variance=1.0)
    rng = np.random.default_rng(33)
    ticks = [(rng.normal(size=2), rng.normal(size=(1, 2))) for _ in range(3)]
    changed = make_params(seed=9)
    changed.lstm1.Wh[...] = rng.normal(size=changed.lstm1.Wh.shape)
    in_place = Controller(make_params(seed=9), cfg, np.zeros(2))
    built = Controller(changed, cfg, np.zeros(2))
    kept = Controller(make_params(seed=9), cfg, np.zeros(2))
    ctls = (in_place, built, kept)
    commands = [[ctl.step(*ticks[0])] for ctl in ctls]
    in_place.params.lstm1.Wh[...] = changed.lstm1.Wh
    for tick in ticks[1:]:
        for ctl, cmds in zip(ctls, commands):
            cmds.append(ctl.step(*tick))
    a, b, c = (np.array(cmds) for cmds in commands)
    assert a.tobytes() == b.tobytes()
    assert a[0].tobytes() == c[0].tobytes() and a.tobytes() != c.tobytes()


def test_gradient_is_taken_only_at_a_scored_plan(monkeypatch):
    grads = []

    def probe(value_fn, grad_fn, u0, *args, **kwargs):
        value_fn(np.stack([u0, u0 + 1.0]))
        grads.append(grad_fn(u0 + 1.0))  # a row of the last stack, found by its values
        value_fn((u0 + 2.0)[None])
        grad_fn(u0 + 1.0)  # scored, but not in the stack scored last

    monkeypatch.setattr(control, "line_search_minimize", probe)
    with pytest.raises(ControllerError, match="not in the stack scored last"):
        optimize(make_params(seed=3), np.zeros(2), RecurrentState.zeros(), np.zeros(2),
                 np.ones((4, 2)), np.zeros((4, 2)), ControlPlan.zeros(4, 2, 2),
                 ControlConfig(n_seq=4, c_variance=1.0))
    assert grads[0].shape == (4, 2) and np.all(np.isfinite(grads[0]))


def test_optimize_rejects_bad_reference_shape():
    params = make_params(seed=2)
    cfg = ControlConfig(n_seq=5)
    with pytest.raises(ControllerError):
        optimize(params, np.zeros(2), RecurrentState.zeros(), np.zeros(2),
                 np.zeros((4, 2)), np.zeros((5, 2)), ControlPlan.zeros(5, 2, 2), cfg)


def test_controller_step_is_deterministic_and_bounded():
    def run():
        params = make_params(seed=4)
        ctl = Controller(params, ControlConfig(n_seq=4, c_variance=1.0), np.zeros(2))
        rng = np.random.default_rng(9)
        cmds = []
        for _ in range(5):
            s = rng.normal(size=2)
            ref = rng.normal(size=(4, 2))
            cmds.append(ctl.step(s, ref))
        return np.array(cmds)

    c1, c2 = run(), run()
    assert c1.tobytes() == c2.tobytes()
    assert np.all(c1 >= -3.0) and np.all(c1 <= 3.0)


def test_controller_normalizes_reference_and_original_commands_as_whole_arrays(monkeypatch):
    # whole-array normalization is elementwise, so it matches row by row bit for bit
    seen = []

    def capture(params, p, state, s_t, s_ref_n, u_orig_n, prev_plan, config, weights=None,
                workspace=None):
        seen.append((s_ref_n, u_orig_n))
        raise ControllerError("captured")

    monkeypatch.setattr(control, "optimize", capture)
    rng = np.random.default_rng(12)
    stats = NormStats(rng.normal(size=2), rng.uniform(0.5, 2.0, size=2),
                      rng.normal(size=2), rng.uniform(0.5, 2.0, size=2))
    params = ModelParams.init(ModelConfig(n_s=2, n_u=2), stats, rng)
    ctl = Controller(params, ControlConfig(n_seq=4), np.zeros(2))
    ref, orig = rng.normal(size=(4, 2)), rng.normal(size=(4, 2))
    ctl.step(rng.normal(size=2), ref, orig)
    ctl.step(rng.normal(size=2), ref)
    for (s_ref_n, u_orig_n), raw_orig in zip(seen, (orig, ref)):
        want_ref = np.array([stats.normalize_state(row) for row in ref])
        want_orig = np.array([stats.normalize_command(row) for row in raw_orig])
        assert s_ref_n.tobytes() == want_ref.tobytes() and s_ref_n.shape == want_ref.shape
        assert u_orig_n.tobytes() == want_orig.tobytes() and u_orig_n.shape == want_orig.shape


def test_controller_survives_nan_weights_with_safe_stop():
    params = make_params(seed=5)
    params.dense_out[-1].W[...] = np.nan
    ctl = Controller(params, ControlConfig(n_seq=3), np.zeros(2))
    with np.errstate(all="ignore"):
        cmd = ctl.step(np.zeros(2), np.zeros((3, 2)))
    np.testing.assert_array_equal(cmd, np.zeros(2))
    assert isinstance(ctl.last_error, ControllerError)


@pytest.mark.parametrize("where", ["measurement", "reference", "original", "bias"])
def test_controller_rejects_a_non_finite_tick_and_keeps_nothing(where):
    # a NaN measurement used to be kept as the previous pair, so the next
    # tick's forward turned the live state NaN and every later tick stopped;
    # a NaN bias did the same in the tick's own live forward
    params = make_params(seed=7)
    cfg = ControlConfig(n_seq=3, c_orig=0.2)
    rng = np.random.default_rng(21)
    ticks = [(rng.normal(size=2), rng.normal(size=(3, 2)), rng.normal(size=(3, 2)))
             for _ in range(3)]
    clean, hit = (Controller(params, cfg, np.zeros(2)) for _ in range(2))
    clean.step(*ticks[0])
    hit.step(*ticks[0])
    bad = [a.copy() for a in ticks[1]]
    if where == "bias":
        hit.p = np.array([np.nan, 0.0])
    else:
        bad[("measurement", "reference", "original").index(where)].flat[-1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        hit.step(*bad)
    hit.p = np.zeros(2)
    for tick in ticks[1:]:
        assert hit.step(*tick).tobytes() == clean.step(*tick).tobytes()
    assert hit.last_error is None


@pytest.mark.parametrize("n_seq, n_batch", [(10, 10), (10, 1), (1, 1)])
def test_kept_workspaces_give_every_tick_of_fresh_buffers_bitwise(n_seq, n_batch):
    # the controller reuses one workspace per shape across ticks, each with
    # its one-row reverse; at n_batch 1 the warm start and the candidates
    # share one, and at n_seq 1 the live forward shares it too.  The
    # reference makes fresh ones for every call from the same state
    rng = np.random.default_rng(23)
    stats = NormStats(rng.normal(size=2), rng.uniform(0.5, 2.0, size=2),
                      rng.normal(size=2), rng.uniform(0.5, 2.0, size=2))
    params = ModelParams.init(ModelConfig(n_s=2, n_u=2), stats, rng)
    cfg = ControlConfig(n_seq=n_seq, n_batch=n_batch, c_variance=30.0)
    p = rng.normal(scale=0.5, size=2)
    ctl = Controller(params, cfg, p)
    state, plan, prev_pair = RecurrentState.zeros(), ctl.plan, None
    accepted = 0
    for _ in range(12):
        s_raw, ref = rng.normal(size=2), rng.normal(scale=2.0, size=(cfg.n_seq, 2))
        u_raw = ctl.step(s_raw, ref)
        s_n = stats.normalize_state(s_raw)
        if prev_pair is not None:
            _, state = forward(params, state, *prev_pair, p)
        plan = optimize(params, p, state, s_n, stats.normalize_state(ref),
                        stats.normalize_command(ref), plan, cfg)
        prev_pair = (s_n, plan.u_seq[0])
        want_u = np.clip(stats.denormalize_command(plan.u_seq[0]),
                         cfg.command_low, cfg.command_high)
        assert ctl.last_error is None
        assert u_raw.tobytes() == want_u.tobytes()
        for name in ("u_seq", "means", "variances"):
            assert getattr(ctl.plan, name).tobytes() == getattr(plan, name).tobytes(), name
        assert (ctl.plan.loss, ctl.plan.initial_loss) == (plan.loss, plan.initial_loss)
        for name in ("h1", "c1", "h2", "c2"):
            assert getattr(ctl.state, name).tobytes() == getattr(state, name).tobytes(), name
        accepted += plan.loss < plan.initial_loss
    assert accepted >= 6  # the rounds moved the plans, so the reverses mattered
    assert len(ctl._workspace._kept) == len({(n_seq, 1), (n_seq, n_batch), (1, 1)})


def test_controller_config_is_read_only():
    # the kept plan and workspaces are sized by the config: a config of
    # another horizon used to crash the next tick with a broadcast ValueError
    ctl = Controller(make_params(seed=6), ControlConfig(n_seq=4), np.zeros(2))
    with pytest.raises(AttributeError):
        ctl.config = ControlConfig(n_seq=6)
    with pytest.raises(AttributeError):
        ctl.config.n_seq = 6
    assert ctl.config.n_seq == 4
    ctl.step(np.zeros(2), np.zeros((4, 2)))
    assert ctl.last_error is None


def test_controller_advances_state_with_previous_pair():
    # two controllers fed the same measurements diverge from one that was
    # fed different measurements, because the tracking state consumes the
    # fed pairs one tick late
    params = make_params(seed=6)
    cfg = ControlConfig(n_seq=3)
    a = Controller(params, cfg, np.zeros(2))
    b = Controller(params, cfg, np.zeros(2))
    ref = np.zeros((3, 2))
    a.step(np.array([1.0, 1.0]), ref)
    b.step(np.array([-1.0, -1.0]), ref)
    # after the first step no state advance has happened yet
    np.testing.assert_array_equal(a.state.h1, b.state.h1)
    a.step(np.array([0.5, 0.5]), ref)
    b.step(np.array([0.5, 0.5]), ref)
    assert np.any(a.state.h1 != b.state.h1)


def test_config_validation():
    with pytest.raises(ValueError):
        ControlConfig(n_seq=0)
    with pytest.raises(ValueError):
        ControlConfig(gamma_max=0.0)
    with pytest.raises(ValueError):
        ControlConfig(variance_mode="other")
    with pytest.raises(ValueError):
        ControlConfig(command_low=3.0, command_high=-3.0)
    # weights that make the loss meaningless
    for bad in (-30.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            ControlConfig(c_variance=bad)
        with pytest.raises(ValueError):
            ControlConfig(c_orig=bad)
    for bad in (0.0, -0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            ControlConfig(per_state_eps=bad)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            ControlConfig(gamma_max=bad)

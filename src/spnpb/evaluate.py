"""End-to-end behavioral checks on a trained model.

Each check returns a CheckResult with the measured numbers in its detail
string, so the same functions back both the `spnpb evaluate` subcommand
and the acceptance test suite.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass

import numpy as np

from .analysis import cluster_distances, linearly_separable, nearest_row, pca_project
from .control import (
    ControlConfig, ControlWorkspace, control_loss, gamma_schedule, line_search_minimize,
    row_gradient)
from .dataset import parse_env_label
from .experiments import prediction_trace, run_adaptation_episode, run_control_batch, run_control_episode
from .model import (
    LOGVAR_MAX, ModelConfig, ModelParams, NormStats, RecurrentState, rollout_batch, rollout_vjp)
from .simulator import SimConfig, SimState, sim_step
from .training import batch_nll, trial_nll


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}: {self.detail}"


def weight_hash(params):
    digest = hashlib.sha256()
    for arr in params.weight_arrays():
        digest.update(arr.tobytes())
    return digest.hexdigest()


def _random_params(rng, n_s=2, n_u=2, n_p=2):
    stats = NormStats(
        mean_s=rng.normal(size=n_s), std_s=rng.uniform(0.5, 2.0, size=n_s),
        mean_u=rng.normal(size=n_u), std_u=rng.uniform(0.5, 2.0, size=n_u),
    )
    return ModelParams.init(ModelConfig(n_s=n_s, n_u=n_u, n_p=n_p), stats, rng)


def rel_err(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-6)


def finite_diff(f, x, h=1e-5):
    """Central finite differences of scalar f over every entry of x."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        hi = f()
        flat[i] = keep - h
        lo = f()
        flat[i] = keep
        gflat[i] = (hi - lo) / (2.0 * h)
    return grad


# Finite-difference step of the NLL checks.  One NLL evaluation rounds at
# about |loss| * eps ~ 1e-14, so at h = 1e-5 rounding alone moves a central
# difference by ~1e-10: the whole 1e-4 tolerance on a gradient below the
# 1e-6 floor of rel_err.  At 1e-4 rounding stays near 1e-11 and the O(h^2)
# truncation is still far below the tolerance.
NLL_FD_STEP = 1e-4


# Plans per stack of the control instances; each instance reverses one row.
CONTROL_STACK = 3


# Logvar output bias of the clamped NLL instances.  A random layer adds
# well under 1 to it, so every raw log variance lies far outside the clamp,
# and no finite-difference step brings one back inside.
CLAMP_PUSH = LOGVAR_MAX + 15.0


def _nll_grad_error(params, p, states_n, commands_n, init_state, draw, coords_per_tensor):
    """Worst rel_err of batch_nll's reverse against central differences.

    Covers every entry of p and coords_per_tensor entries of each weight
    array, drawn from draw.
    """
    def loss_value():
        return batch_nll(params, p, states_n, commands_n, init_state=init_state)[0]

    _, reverse = batch_nll(params, p, states_n, commands_n, init_state=init_state)
    w_grads, d_p = reverse(1.0)
    errs = [rel_err(a, n) for a, n in zip(d_p.ravel(),
                                          finite_diff(loss_value, p, h=NLL_FD_STEP).ravel())]
    for w, analytic in zip(params.weight_arrays(), w_grads):
        flat, analytic = w.ravel(), analytic.ravel()
        for i in draw.choice(flat.size, size=min(coords_per_tensor, flat.size), replace=False):
            keep = flat[i]
            flat[i] = keep + NLL_FD_STEP
            hi = loss_value()
            flat[i] = keep - NLL_FD_STEP
            lo = loss_value()
            flat[i] = keep
            errs.append(rel_err(analytic[i], (hi - lo) / (2 * NLL_FD_STEP)))
    return _worst(errs)


def _worst(errs):
    """Largest of errs; NaN if any is NaN, so a non-finite gradient fails."""
    return float(np.max(errs))


def _over_budget(elapsed, budget):
    """A check's detail suffix for its wall time: empty within the budget.

    The time is reported only when it fails the check, so same-seed
    reports are byte-identical.
    """
    return "" if elapsed < budget else f"; took {elapsed:.1f}s, over the {budget:.0f}s budget"


def check_gradient_integrity(n_instances=20, seed=0, coords_per_tensor=2):
    """Analytic NLL and control-loss gradients vs central finite differences.

    Each NLL instance runs training's batch_nll twice: one sequence from a
    zero state, as trial_nll and a one-trial bucket of train, and two
    sequences with distinct p rows from a shared non-zero state, as a
    multi-trial bucket and the adaptation replay's snapshot start.  Four
    more instances set one logvar output bias to +-CLAMP_PUSH, so the
    clamp's zero gradient is checked on each side; they draw from their
    own generator and report their own error.  Each control instance
    takes its gradient as optimize does, from one row of a scored stack
    of CONTROL_STACK plans, and also checks it against the reverse of a
    one-plan stack.  Like a Controller's ticks, all control instances run
    in one ControlWorkspace, one kept workspace per stack shape with its
    one-row reverse, and each takes its gradient twice in a row, so the
    second run reads buffers that the first one filled; both are checked.
    Any non-finite error fails the check.
    """
    rng = np.random.default_rng(seed)
    batch_rng = np.random.default_rng([seed, 2])  # keeps rng's draws those of B=1 alone
    clamp_rng = np.random.default_rng([seed, 3])
    stack_rng = np.random.default_rng([seed, 4])  # the other plans of each control stack
    errs = []
    t0 = time.time()
    for _ in range(n_instances):
        params = _random_params(rng)
        hidden = params.config.layer_widths[4]
        shared = RecurrentState(*(batch_rng.normal(scale=0.4, size=hidden) for _ in range(4)))
        for B, init_state, draw in ((1, None, rng), (2, shared, batch_rng)):
            states_n = draw.normal(size=(B, 6, 2))
            commands_n = draw.normal(size=(B, 6, 2))
            p = draw.normal(scale=0.5, size=(B, 2))
            errs.append(_nll_grad_error(params, p, states_n, commands_n, init_state,
                                        draw, coords_per_tensor))

    clamp_errs = []
    for side in (1.0, -1.0):
        for dim in range(2):
            params = _random_params(clamp_rng)
            cfg = params.config
            params.dense_out[-1].b[cfg.n_s + dim] = side * CLAMP_PUSH
            shared = RecurrentState(*(clamp_rng.normal(scale=0.4, size=cfg.layer_widths[4])
                                      for _ in range(4)))
            states_n = clamp_rng.normal(size=(2, 6, 2))
            commands_n = clamp_rng.normal(size=(2, 6, 2))
            p = clamp_rng.normal(scale=0.5, size=(2, 2))
            clamp_errs.append(_nll_grad_error(
                params, p, states_n, commands_n, shared, clamp_rng, coords_per_tensor))

    row_errs = []
    kept = ControlWorkspace()
    for inst in range(n_instances):
        params = _random_params(rng)
        cfg = ControlConfig(
            n_seq=4, c_variance=0.5, c_orig=0.3,
            variance_mode="per_state" if inst % 2 else "absolute")
        state = RecurrentState.zeros()
        s_t = rng.normal(size=2)
        s_ref = rng.normal(size=(4, 2))
        u_orig = rng.normal(size=(4, 2))
        p = rng.normal(scale=0.5, size=2)
        u_seq = rng.normal(size=(4, 2))
        row = inst % CONTROL_STACK
        u_stack = stack_rng.normal(size=(CONTROL_STACK, 4, 2))
        u_stack[row] = u_seq

        def loss_value():
            # a forward-only rollout, apart from the reverse under test
            means, variances = rollout_batch(params, state, s_t, u_seq[None], p)
            return float(control_loss(means, variances, u_seq[None], s_ref, u_orig, cfg)[0])

        def gradient(stack, k):
            means, variances, vjp = rollout_vjp(
                params, state, s_t, stack, p,
                workspace=kept.rollout(params.config, cfg.n_seq, len(stack)))
            return row_gradient(means, variances, vjp, k, stack[k], s_ref, u_orig, cfg)

        numeric = finite_diff(loss_value, u_seq)
        for _ in range(2):
            analytic = gradient(u_stack, row)
            errs.extend(rel_err(a, n) for a, n in zip(analytic.ravel(), numeric.ravel()))
        alone = gradient(u_seq[None], 0)
        row_errs.append(np.max(np.abs(analytic - alone)) / max(np.max(np.abs(alone)), 1e-300))

    worst, clamp_worst, row_worst = _worst(errs), _worst(clamp_errs), _worst(row_errs)
    over_budget = _over_budget(time.time() - t0, 60.0)
    passed = (worst <= 1e-4 and clamp_worst <= 1e-4 and row_worst <= 1e-12
              and not over_budget)
    return CheckResult(
        "gradient-integrity",
        passed,
        f"max relative error {worst:.3e} over {n_instances} NLL (B=1 and B=2) + "
        f"{n_instances} control instances, {clamp_worst:.3e} over 4 clamped-logvar "
        f"NLL instances; control row of a {CONTROL_STACK}-plan stack vs one-plan "
        f"reverse {row_worst:.1e}{over_budget}",
    )


def check_simulator_noise(n_steps=100_000, seed=0):
    """Monte-Carlo: at w ~ (0,0) and beta=1 the translation noise std is 10."""
    config = SimConfig(alpha=0.5, beta=1.0, seed=seed)
    rng = np.random.default_rng(seed)
    draws = np.empty(n_steps)
    held = SimState(0.0, 0.0)
    cmd = np.zeros(2)
    for i in range(n_steps):
        nxt = sim_step(held, cmd, config, rng)  # held state: feedback term vanishes
        draws[i] = nxt.w_trans
    std = float(draws.std())
    err = abs(std - 10.0) / 10.0
    return CheckResult(
        "simulator-noise-scale", err <= 0.02,
        f"empirical trans noise std {std:.4f} vs 10.0 ({err * 100:.2f}% off, "
        f"{n_steps} draws)",
    )


def _env_configs(params):
    envs = {}
    for label in params.pb_labels:
        envs.setdefault(label, parse_env_label(label))
    return envs


def check_heteroscedasticity(params, seed=123, n_traces=20, trace_len=150):
    """Predicted sigma tracks speed and beta the way the plant noise does.

    Speed contrast pools teacher-forced runs over many seeds (each starts
    at rest, so the sparse low-speed regime is always sampled) and buckets
    by the measured input speed.  The beta ratio compares each environment
    driven with its own mean bias: predictions on a quiet run with a
    noisy-environment bias get pulled down by the recurrent state's own
    noise evidence, so mixing biases across runs would flatten the very
    contrast being measured.
    """
    high = SimConfig(0.4, 1.0, seed=seed)
    p_high = params.pb_for_label(high.label)

    def trace(sim_config, p, trace_seed):
        # prediction_trace rows: tick, w (1-2), u, predicted mean, sigma (7-8)
        return np.array(prediction_trace(params, sim_config, p, trace_len, trace_seed))

    sig, speed = [], []
    for k in range(n_traces):
        rows = trace(high, p_high, seed + k)
        sig.append(rows[:, 7])
        speed.append(np.abs(rows[:, 1:3]).sum(axis=1))
    sig, speed = np.concatenate(sig), np.concatenate(speed)
    low_mask, high_mask = speed < 0.3, speed > 2.0
    if low_mask.sum() < 10 or high_mask.sum() < 10:
        return CheckResult(
            "sigma-speed-and-beta", False,
            f"too few bucketed samples (low {low_mask.sum()}, high {high_mask.sum()})")
    mean_low = float(sig[low_mask].mean())
    mean_high = float(sig[high_mask].mean())
    speed_ok = mean_low >= 2.0 * mean_high

    envs = _env_configs(params)
    levels = sorted({beta for _, beta in envs.values()})
    if len(levels) != 2:
        return CheckResult(
            "sigma-speed-and-beta", False, f"expected two beta levels, got {levels}")
    group = {lv: [] for lv in levels}
    for label, (alpha, beta) in sorted(envs.items()):
        p = params.pb_for_label(label)
        sigs = [trace(SimConfig(alpha, beta, seed=seed), p, seed + 1000 + k)[:, 7]
                for k in range(4)]
        group[beta].append(float(np.mean(sigs)))
    ratio = float(np.mean(group[levels[1]]) / np.mean(group[levels[0]]))
    ratio_ok = 5.0 <= ratio <= 20.0

    return CheckResult(
        "sigma-speed-and-beta", speed_ok and ratio_ok,
        f"sigma_trans low-speed {mean_low:.3f} vs high-speed {mean_high:.3f} "
        f"(x{mean_low / max(mean_high, 1e-12):.2f}, need >=2, "
        f"{low_mask.sum()}/{high_mask.sum()} samples), "
        f"beta ratio {ratio:.2f} (need within [5, 20])",
    )


def check_pb_organization(params):
    """Trained bias vectors cluster by environment and separate by beta."""
    if params.pb_table.shape[0] < 4:
        return CheckResult("pb-organization", False, "not enough trained bias rows")
    proj = pca_project(params.pb_table)
    betas = [parse_env_label(lab)[1] for lab in params.pb_labels]
    levels = sorted(set(betas))
    if len(levels) != 2:
        return CheckResult("pb-organization", False, f"expected two beta levels, got {levels}")
    pts_a = proj.projected[[i for i, b in enumerate(betas) if b == levels[0]]]
    pts_b = proj.projected[[i for i, b in enumerate(betas) if b == levels[1]]]
    separable = linearly_separable(pts_a, pts_b)
    intra, inter = cluster_distances(params.pb_table, params.pb_labels)
    return CheckResult(
        "pb-organization", separable and intra < inter,
        f"beta clusters linearly separable: {separable}; intra-config mean "
        f"distance {intra:.4f} vs inter-config {inter:.4f}",
    )


def check_online_adaptation(params, n_seeds=10, n_ticks=200, required=8):
    """Adapting from p=0 lands nearest the correct environment's bias rows."""
    hash_before = weight_hash(params)
    details = []
    ok = True
    for alpha, beta in ((0.4, 0.1), (0.6, 1.0)):
        label = SimConfig(alpha, beta).label
        hits = 0
        for seed in range(n_seeds):
            episode = run_adaptation_episode(
                params, SimConfig(alpha, beta, seed=seed), n_ticks, seed)
            idx = nearest_row(params.pb_table, episode.final_p)
            if params.pb_labels[idx] == label:
                hits += 1
        details.append(f"{label}: {hits}/{n_seeds}")
        ok = ok and hits >= required
    frozen = weight_hash(params) == hash_before
    return CheckResult(
        "online-adaptation", ok and frozen,
        f"correct nearest bias on {'; '.join(details)} (need >={required}); "
        f"weights frozen: {frozen}",
    )


def check_line_search(params, seed=0):
    """Monotone improvement on a real episode plus the quadratic oracle."""
    sim_config = SimConfig(0.5, 1.0, seed=seed)
    episode = run_control_episode(
        params, sim_config, ControlConfig(c_variance=30.0), seed, n_ticks=40,
        p=params.pb_for_label(sim_config.label))
    slack = 1e-12
    monotone = all(final <= initial + slack for initial, final in episode.losses)

    rng = np.random.default_rng(seed)
    target = rng.normal(size=6)
    a_diag = rng.uniform(0.5, 1.5, size=6)
    floor = 2.0

    def value_fn(u_stack):
        return floor + np.sum(a_diag * (u_stack - target) ** 2, axis=1), None

    def grad_fn(u):
        return 2.0 * a_diag * (u - target)

    _, loss, _, _ = line_search_minimize(
        value_fn, grad_fn, np.zeros(6), gamma_schedule(3.0, 10), n_epoch=3)
    quad_ok = loss <= 1.05 * floor
    return CheckResult(
        "line-search", monotone and quad_ok,
        f"per-tick loss never above warm start: {monotone}; quadratic oracle "
        f"reached {loss:.4f} vs minimum {floor} (need <= {1.05 * floor})",
    )


def check_variance_control(params, n_seeds=10, n_ticks=40, first_seconds=4.0):
    """The variance penalty lowers predicted sigma along the executed path."""
    t0 = time.time()
    sim_config = SimConfig(0.5, 1.0, seed=0)
    p = params.pb_for_label(sim_config.label)
    first_n = int(round(first_seconds / params.config.tick_period))
    means = {}
    for c in (0.0, 30.0):
        episodes = run_control_batch(
            params, sim_config, ControlConfig(c_variance=c),
            seeds=range(n_seeds), n_ticks=n_ticks, p=p)
        means[c] = float(np.mean([e.mean_sigma_trans(first_n) for e in episodes]))
    over_budget = _over_budget(time.time() - t0, 300.0)
    lower = means[30.0] < means[0.0]
    level_ok = 0.5 <= means[0.0] <= 2.0
    return CheckResult(
        "variance-minimizing-control", lower and level_ok and not over_budget,
        f"mean predicted sigma_trans first {first_seconds:.0f}s: "
        f"c=30 {means[30.0]:.3f} < c=0 {means[0.0]:.3f}: {lower}; "
        f"c=0 level within [0.5, 2.0]: {level_ok}{over_budget}",
    )


def run_standard_checks(params, seed=0):
    """The model-dependent checks used by the evaluate subcommand."""
    return [
        check_gradient_integrity(seed=seed),
        check_simulator_noise(seed=seed),
        check_heteroscedasticity(params),
        check_pb_organization(params),
        check_online_adaptation(params),
        check_line_search(params, seed=seed),
        check_variance_control(params),
    ]

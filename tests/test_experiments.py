"""Tests for the episode runners: adaptation, control, and trace logging."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from spnpb import experiments, model, training
from spnpb.adaptation import GRAD_CLIP, AdaptBuffer, LivePB
from spnpb.control import ControlConfig
from spnpb.csvio import read_csv
from spnpb.experiments import (
    prediction_trace,
    ramp_target,
    run_adaptation_episode,
    run_control_batch,
    run_control_episode,
)
from spnpb.model import ModelConfig, ModelParams, NormStats, RecurrentState, forward
from spnpb.optim import clip_grad_norm, momentum_update
from spnpb.simulator import SimConfig, SimState, random_walk_command, sim_step
from spnpb.training import batch_nll


@pytest.fixture(scope="module")
def params():
    stats = NormStats(np.zeros(2), np.ones(2), np.zeros(2), np.ones(2))
    rng = np.random.default_rng(99)
    return ModelParams.init(ModelConfig(n_s=2, n_u=2), stats, rng)


def test_ramp_target_profile():
    assert_allclose(ramp_target(0), [0.0, 0.0])
    assert_allclose(ramp_target(5), [1.5, 0.0])       # 1.0 s of a 2.0 s ramp
    assert_allclose(ramp_target(10), [3.0, 0.0])
    assert_allclose(ramp_target(25), [3.0, 0.0])      # holds after the ramp
    assert_allclose(ramp_target(0, ramp_seconds=0.0), [3.0, 0.0])
    assert_allclose(ramp_target(3, 0.2, final=(1.0, -2.0), ramp_seconds=1.2),
                    [0.5, -1.0])


def test_adaptation_episode_waits_for_buffer_then_updates(params):
    sim = SimConfig(alpha=0.5, beta=0.2)
    ep = run_adaptation_episode(params, sim, n_ticks=14, seed=3,
                                n_thre=5, n_max=8)
    assert len(ep.ticks) == 14
    for tick, p, buf_len, updated in ep.ticks:
        if buf_len <= 5:
            assert not updated
            assert_allclose(p, 0.0)
        else:
            assert updated
        assert buf_len <= 8
    # once updates begin the bias must actually move
    assert np.linalg.norm(ep.final_p) > 0.0
    assert_allclose(ep.final_p, ep.ticks[-1][1])


def test_adaptation_episode_is_deterministic_and_logs(params, tmp_path):
    sim = SimConfig(alpha=0.5, beta=0.2)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    ep1 = run_adaptation_episode(params, sim, n_ticks=12, seed=7,
                                 n_thre=5, n_max=8, out_path=a)
    ep2 = run_adaptation_episode(params, sim, n_ticks=12, seed=7,
                                 n_thre=5, n_max=8, out_path=b)
    assert_allclose(ep1.final_p, ep2.final_p, rtol=0, atol=0)
    assert a.read_bytes() == b.read_bytes()
    name, _, rows = read_csv(a, schema="adaptation_trajectory")
    assert name == "adaptation_trajectory"
    assert len(rows) == 12
    assert [int(r[0]) for r in rows] == list(range(12))


def reference_adaptation_ps(params, sim_config, n_ticks, seed, n_thre=10, n_max=50):
    """Each tick's bias of run_adaptation_episode, from its parts taken plainly.

    Every live forward folds its own weights, and every update replays the
    window in a fresh workspace through the full reverse.
    """
    stats = params.stats
    rng = np.random.default_rng(seed)
    buffer = AdaptBuffer(n_thre=n_thre, n_max=n_max)
    live = LivePB.zeros(params.config.n_p)
    state, cmd = SimState(0.0, 0.0), np.zeros(2)
    track = RecurrentState.zeros(params.config.layer_widths[4])
    ps = []
    for tick in range(n_ticks):
        cmd = random_walk_command(cmd, rng)
        s_raw = state.as_array()
        snapshot = track
        _, track = forward(params, track, stats.normalize_state(s_raw),
                           stats.normalize_command(cmd), live.p)
        buffer.push(s_raw, cmd, tick, snapshot)
        if buffer.update_ready():
            _, reverse = batch_nll(params, live.p[None],
                                   stats.normalize_state(buffer.states())[None],
                                   stats.normalize_command(buffer.commands())[None],
                                   init_state=buffer.snapshot)
            weight_grads, d_p = reverse(1.0 / (len(buffer) - 1))
            assert len(weight_grads) == len(params.weight_arrays())
            momentum_update([live.p], clip_grad_norm([d_p[0]], GRAD_CLIP), live.momentum)
        ps.append(live.p.copy())
        state = sim_step(state, cmd, sim_config, rng)
    return ps


def test_adaptation_episode_matches_the_plain_reference_bitwise(params):
    # the kept workspace, the bias-only reverse and the episode's one fold
    # leave every tick's bias as it was, bit for bit
    sim = SimConfig(alpha=0.6, beta=1.0, seed=21)
    ep = run_adaptation_episode(params, sim, n_ticks=200, seed=21)
    want = reference_adaptation_ps(params, sim, 200, 21)
    assert sum(updated for *_, updated in ep.ticks) == 190
    assert len(ep.ticks) == len(want)
    for (_, p, _, _), p_want in zip(ep.ticks, want):
        assert p.tobytes() == p_want.tobytes()


def test_adaptation_episode_folds_once_and_builds_a_workspace_only_when_the_window_grows(
        params, monkeypatch):
    folds, built, buffers = [], [], set()
    for cls, log in ((model.FoldedWeights, folds), (training.NllWorkspace, built)):
        def counted(self, *args, _init=cls.__init__, _log=log):
            _log.append(args)
            _init(self, *args)
        monkeypatch.setattr(cls, "__init__", counted)

    def seen(params, buffer, live, _step=experiments.adapt_step):
        buffers.add(buffer)
        return _step(params, buffer, live)

    monkeypatch.setattr(experiments, "adapt_step", seen)
    ep = run_adaptation_episode(params, SimConfig(alpha=0.4, beta=0.1, seed=22),
                                n_ticks=200, seed=22)
    assert len(folds) == 1
    lengths = [n for _, _, n, updated in ep.ticks if updated]
    grown = [n for k, n in enumerate(lengths) if k == 0 or n != lengths[k - 1]]
    assert grown == list(range(11, 51))  # the window fills, then holds at 50
    assert [(B, T) for _, B, T in built] == [(1, n) for n in grown]
    # the runner lets the kept workspace go when its ticks are done
    (buffer,) = buffers
    buffer.replay_workspace(params.config)
    assert len(built) == len(grown) + 1


def test_prediction_trace_folds_once_and_matches_a_per_tick_reference(params, monkeypatch):
    sim = SimConfig(alpha=0.4, beta=1.0, seed=5)
    p = np.array([0.3, -0.2])
    # the reference: every forward folds its own weights
    rng = np.random.default_rng(5)
    state, cmd = SimState(0.0, 0.0), np.zeros(2)
    track = RecurrentState.zeros(params.config.layer_widths[4])
    expected = []
    for tick in range(30):
        cmd = random_walk_command(cmd, rng)
        s_raw = state.as_array()
        pred, track = forward(params, track, params.stats.normalize_state(s_raw),
                              params.stats.normalize_command(cmd), p)
        mean = params.stats.denormalize_state(pred.mean)
        sigma = params.stats.denormalize_state_sigma(np.sqrt(pred.variance))
        expected.append((tick, *s_raw, *cmd, *mean, *sigma))
        state = sim_step(state, cmd, sim, rng)

    folds = []
    def counted(self, *args, _init=model.FoldedWeights.__init__):
        folds.append(args)
        _init(self, *args)
    monkeypatch.setattr(model.FoldedWeights, "__init__", counted)
    assert prediction_trace(params, sim, p, n_ticks=30, seed=5) == expected
    assert len(folds) == 1


def test_control_episode_logs_and_respects_command_bounds(params, tmp_path):
    sim = SimConfig(alpha=0.5, beta=0.2)
    ctrl = ControlConfig(n_seq=3, n_batch=3, n_epoch=1)
    out = tmp_path / "ep.csv"
    ep = run_control_episode(params, sim, ctrl, seed=5, n_ticks=6, out_path=out)
    assert len(ep.rows) == 6
    for row in ep.rows:
        assert -3.0 <= row[3] <= 3.0
        assert -3.0 <= row[4] <= 3.0
    for initial, final in ep.losses:
        assert final <= initial + 1e-12
    name, _, rows = read_csv(out, schema="control_episode")
    assert name == "control_episode"
    assert len(rows) == 6
    assert len(ep.sigma_trans) == 6 and all(v >= 0.0 for v in ep.sigma_trans)
    assert ep.tracking_rmse() >= 0.0


def test_control_episode_is_deterministic(params, tmp_path):
    sim = SimConfig(alpha=0.5, beta=0.2)
    ctrl = ControlConfig(n_seq=3, n_batch=3, n_epoch=1)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_control_episode(params, sim, ctrl, seed=11, n_ticks=5, out_path=a)
    run_control_episode(params, sim, ctrl, seed=11, n_ticks=5, out_path=b)
    assert a.read_bytes() == b.read_bytes()


def test_control_batch_averages_per_seed_series(params, tmp_path):
    sim = SimConfig(alpha=0.5, beta=0.2)
    ctrl = ControlConfig(n_seq=3, n_batch=3, n_epoch=1)
    episodes = run_control_batch(params, sim, ctrl, seeds=[0, 1],
                                 n_ticks=4, out_dir=str(tmp_path), tag="var")
    assert len(episodes) == 2
    _, _, avg_rows = read_csv(tmp_path / "var_average.csv", schema="control_average")
    assert len(avg_rows) == 4
    for t, row in enumerate(avg_rows):
        want_w = np.mean([e.rows[t][5] for e in episodes])
        want_sig = np.mean([e.sigma_trans[t] for e in episodes])
        assert float(row[2]) == want_w
        assert float(row[3]) == want_sig
    # per-seed logs exist alongside the average
    read_csv(tmp_path / "var_seed0.csv", schema="control_episode")
    read_csv(tmp_path / "var_seed1.csv", schema="control_episode")


def test_prediction_trace_schema_and_determinism(params, tmp_path):
    sim = SimConfig(alpha=0.5, beta=0.2)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    rows = prediction_trace(params, sim, np.zeros(2), n_ticks=10, seed=2, out_path=a)
    again = prediction_trace(params, sim, np.zeros(2), n_ticks=10, seed=2, out_path=b)
    assert a.read_bytes() == b.read_bytes()
    assert len(rows) == 10
    for row, row2 in zip(rows, again):
        assert len(row) == 9
        assert row == row2
        assert row[7] > 0.0 and row[8] > 0.0  # predicted sigma is positive

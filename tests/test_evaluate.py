import numpy as np

from spnpb import evaluate
from spnpb.evaluate import check_gradient_integrity


def test_gradient_check_passes_on_the_program():
    result = check_gradient_integrity(n_instances=2)
    assert result.passed, result.detail


def test_gradient_check_detail_does_not_depend_on_its_wall_time(monkeypatch):
    clock = iter([0.0, 1.0, 0.0, 2.0, 0.0, 61.0])  # runs of 1 s, 2 s and 61 s
    monkeypatch.setattr(evaluate.time, "time", lambda: next(clock))
    first, second = check_gradient_integrity(n_instances=2), check_gradient_integrity(n_instances=2)
    assert first.passed and first.detail == second.detail
    slow = check_gradient_integrity(n_instances=2)
    assert not slow.passed
    assert slow.detail == first.detail + "; took 61.0s, over the 60s budget"


def test_gradient_check_fails_on_a_nan_nll_gradient(monkeypatch):
    batch_nll = evaluate.batch_nll

    def poisoned(*args, **kwargs):
        loss, reverse = batch_nll(*args, **kwargs)

        def nan_reverse(g):
            w_grads, d_p = reverse(g)
            w_grads = list(w_grads)
            w_grads[8] = np.full_like(w_grads[8], np.nan)  # LSTM1's Wx
            return w_grads, d_p

        return loss, nan_reverse

    monkeypatch.setattr(evaluate, "batch_nll", poisoned)
    result = check_gradient_integrity(n_instances=2)
    assert not result.passed, result.detail
    assert "nan" in result.detail


def test_gradient_check_fails_on_a_nan_control_gradient(monkeypatch):
    rollout_vjp = evaluate.rollout_vjp

    def poisoned(*args, **kwargs):
        means, variances, vjp = rollout_vjp(*args, **kwargs)
        return means, variances, lambda *a, **kw: np.full_like(vjp(*a, **kw), np.nan)

    monkeypatch.setattr(evaluate, "rollout_vjp", poisoned)
    result = check_gradient_integrity(n_instances=2)
    assert not result.passed, result.detail
    assert "nan" in result.detail

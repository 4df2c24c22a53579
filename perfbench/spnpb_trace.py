"""Span tracing for the benchmark, recorded around calls into spnpb.

Each hook replaces a public function at the name its caller looks up
(``spnpb.control.rollout`` is what ``optimize`` calls), so nothing under
``src/`` changes and the untraced run executes the program unmodified.
Spans nest: a span's self time is its duration minus the durations of
the spans opened inside it, so ``control.optimize`` excludes the
``model.rollout`` and ``autodiff.backward`` calls it makes.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import defaultdict

import numpy as np

from spnpb import adaptation, control, experiments, simulator, training


class Tracer:
    """Self time and call count per span name, plus named counters."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self._stack = []  # [name, start, seconds covered by child spans]

    def span(self, name, fn):
        """Wrap fn so that every call records one span called name."""
        stack = self._stack

        def traced(*args, **kwargs):
            frame = [name, time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - frame[1]
                stack.pop()
                self.self_s[name] += duration - frame[2]
                self.calls[name] += 1
                if stack:
                    stack[-1][2] += duration

        return traced

    def count(self, name, n=1):
        self.counts[name] += n


@contextlib.contextmanager
def patched(replacements):
    """Temporarily set module attributes; (module, name, make_wrapper) triples.

    make_wrapper receives the current attribute and returns its stand-in.
    Every attribute is restored on exit, in reverse order.
    """
    saved = []
    try:
        for module, name, make_wrapper in replacements:
            original = getattr(module, name)
            saved.append((module, name, original))
            setattr(module, name, make_wrapper(original))
        yield
    finally:
        for module, name, original in reversed(saved):
            setattr(module, name, original)


def _backward_counter(tracer, name):
    def make(fn):
        traced = tracer.span(name, fn)

        def backward(tape, *args, **kwargs):
            tracer.count("autodiff.tape_records", len(tape))
            return traced(tape, *args, **kwargs)

        return backward

    return make


def _adapt_step_counter(tracer):
    def make(fn):
        traced = tracer.span("adaptation.adapt_step", fn)

        def adapt_step(params, buffer, live):
            tracer.count("adaptation.replayed_steps", len(buffer) - 1)
            return traced(params, buffer, live)

        return adapt_step

    return make


def _line_search_counter(tracer):
    """Count line-search rounds, and the rounds whose winner replaced the incumbent.

    Every round starts with one gradient at the incumbent; a round was
    accepted when the next round (or the returned plan) starts elsewhere.
    """

    def make(fn):
        def line_search_minimize(value_fn, grad_fn, *args, **kwargs):
            starts = []

            def grad_at(u):
                starts.append(np.array(u, copy=True))
                return grad_fn(u)

            result = fn(value_fn, grad_at, *args, **kwargs)
            ends = starts[1:] + [result[0]]
            tracer.count("control.rounds", len(starts))
            tracer.count("control.accepted_rounds",
                         sum(not np.array_equal(a, b) for a, b in zip(starts, ends)))
            return result

        return line_search_minimize

    return make


def trace_hooks(tracer):
    """Every hook of the traced run, as replacements for patched().

    A hook whose name the program no longer defines is left out and
    reported on stderr; its layer then reads zero.
    """
    def span(name):
        return lambda fn: tracer.span(name, fn)

    hooks = [
        (simulator, "collect_trials", span("simulator.collect_trials")),
        (simulator, "sim_step", span("simulator.sim_step")),
        (experiments, "sim_step", span("simulator.sim_step")),
        (training, "batch_nll_node", span("training.batch_nll_node")),
        (training, "lstm_apply_batch", span("layers.lstm_apply_batch")),
        (training, "backward", _backward_counter(tracer, "autodiff.backward")),
        (training, "clip_grad_norm", span("optim.clip_grad_norm")),
        (training, "adam_update", span("optim.adam_update")),
        (control, "optimize", span("control.optimize")),
        (control, "line_search_minimize", _line_search_counter(tracer)),
        (control, "rollout", span("model.rollout")),
        (control, "forward", span("model.forward")),
        (control, "backward", _backward_counter(tracer, "autodiff.backward")),
        (experiments, "forward", span("model.forward")),
        (experiments, "adapt_step", _adapt_step_counter(tracer)),
        (adaptation, "sequence_nll_node", span("training.sequence_nll_node")),
        (adaptation, "backward", _backward_counter(tracer, "autodiff.backward")),
        (adaptation, "clip_grad_norm", span("optim.clip_grad_norm")),
        (adaptation, "momentum_update", span("optim.momentum_update")),
    ]
    for module, name, _ in hooks:
        if not hasattr(module, name):
            print(f"trace: {module.__name__}.{name} not found, not traced", file=sys.stderr)
    return [hook for hook in hooks if hasattr(hook[0], hook[1])]


# Spans reported as self milliseconds per step (and, where listed, calls per step).
STEP_SPANS = (
    "layers.lstm_apply_batch",
    "training.batch_nll_node",
    "optim.adam_update",
    "optim.clip_grad_norm",
    "model.rollout",
    "model.forward",
    "control.optimize",
    "adaptation.adapt_step",
    "training.sequence_nll_node",
    "optim.momentum_update",
    "autodiff.backward",
)
STEP_CALLS = ("layers.lstm_apply_batch", "model.rollout", "model.forward", "autodiff.backward")
SETUP_SPANS = ("simulator.collect_trials", "simulator.sim_step")


def layer_metrics(step_tracer, steps, setup_tracer):
    """Per-layer metrics: step spans per timed step, simulator spans per set-up."""
    metrics = {}
    for name in STEP_SPANS:
        metrics[f"{name}.ms"] = (1e3 * step_tracer.self_s[name] / steps, "ms")
    for name in STEP_CALLS:
        metrics[f"{name}.calls"] = (step_tracer.calls[name] / steps, "count")
    counts = step_tracer.counts
    rounds = counts["control.rounds"]
    metrics["control.accepted_rounds_ratio"] = (
        counts["control.accepted_rounds"] / rounds if rounds else 0.0, "ratio")
    metrics["adaptation.replayed_steps"] = (counts["adaptation.replayed_steps"] / steps, "count")
    backward_calls = step_tracer.calls["autodiff.backward"]
    metrics["autodiff.tape_records"] = (
        counts["autodiff.tape_records"] / backward_calls if backward_calls else 0.0, "count")
    for name in SETUP_SPANS:
        metrics[f"{name}.ms"] = (1e3 * setup_tracer.self_s[name], "ms")
    return metrics

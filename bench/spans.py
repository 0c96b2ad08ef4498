"""Span tracer for the benchmark's traced run.

Each layer of tailadapt is one module, and each traced function is wrapped
where its callers look it up: `training.py` imports `draw_batch`, the
encoders, the adapter paths, the loss and `evaluate` by name, and
`experiments.py` imports the phase functions by name. Wrapping the defining
module alone would time nothing, so every lookup site in SITES is patched,
and the call-count checks in the workloads catch a site that is missed.

A span's self time is its duration minus the time of the spans it encloses,
so the self times of one operation plus the time outside every span add up
to the operation's wall time.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass

from tailadapt import adapter, autodiff, contrastive, data, encoders, evaluation, experiments, training

# (namespace the caller looks the name up in, attribute, where it is defined, span name)
SITES = (
    (training, "draw_batch", data, "data.draw_batch"),
    (autodiff.Graph, "backward", autodiff.Graph, "autodiff.backward"),
    (training, "encode_visual", encoders, "encoders.encode_visual"),
    (evaluation, "encode_visual", encoders, "encoders.encode_visual"),
    (training, "encode_text", encoders, "encoders.encode_text"),
    (evaluation, "encode_text", encoders, "encoders.encode_text"),
    (training, "adapted_visual", adapter, "adapter.adapted_visual"),
    (evaluation, "adapted_visual", adapter, "adapter.adapted_visual"),
    (training, "adapted_text", adapter, "adapter.adapted_text"),
    (evaluation, "adapted_text", adapter, "adapter.adapted_text"),
    (training, "loss_v2l", contrastive, "contrastive.loss"),
    (training, "loss_l2v", contrastive, "contrastive.loss"),
    (training, "sgd_momentum_step", training, "training.sgd_momentum_step"),
    (training, "train_phase_a", training, "training.train_phase_a"),
    (experiments, "train_phase_a", training, "training.train_phase_a"),
    (training, "train_phase_b", training, "training.train_phase_b"),
    (experiments, "train_phase_b", training, "training.train_phase_b"),
    (training, "evaluate", evaluation, "evaluation.evaluate"),
    (experiments, "evaluate", evaluation, "evaluation.evaluate"),
    (evaluation, "evaluate", evaluation, "evaluation.evaluate"),
    (data, "write_dataset", data, "data.write_dataset"),
    (data, "read_dataset", data, "data.read_dataset"),
    (training, "read_dataset", data, "data.read_dataset"),
    (training, "save_checkpoint", training, "training.save_checkpoint"),
    (training, "load_checkpoint", training, "training.load_checkpoint"),
    (encoders.FrozenView, "verify", encoders.FrozenView, "encoders.FrozenView.verify"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for *_, name in SITES))


class BindingError(RuntimeError):
    """A traced name no longer refers to the function it is meant to time."""


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0


class Tracer:
    """Accumulates calls, self time and inclusive time per span name.

    Wrappers exist only inside `installed()`, so operations run outside it
    pay nothing for tracing.
    """

    def __init__(self):
        self.stats = {name: SpanStats() for name in SPAN_NAMES}
        self.tape_ops = 0
        self._open: list[float] = []  # child time seen by each open span
        for namespace, attr, home, name in SITES:
            if getattr(namespace, attr) is not getattr(home, attr):
                raise BindingError(
                    f"{namespace.__name__}.{attr} is not {home.__name__}.{attr}; "
                    f"span {name} would miss its calls")

    def _count_tape(self, args) -> None:
        self.tape_ops += len(args[0])

    def _wrap(self, fn, stats: SpanStats, on_call=None):
        open_spans = self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            open_spans.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stats.calls += 1
                stats.self_s += elapsed - open_spans.pop()
                stats.total_s += elapsed
                if open_spans:
                    open_spans[-1] += elapsed

        return traced

    @contextmanager
    def installed(self):
        originals = [(ns, attr, getattr(ns, attr)) for ns, attr, _, _ in SITES]
        try:
            for (ns, attr, fn), (*_, name) in zip(originals, SITES):
                on_call = self._count_tape if name == "autodiff.backward" else None
                setattr(ns, attr, self._wrap(fn, self.stats[name], on_call))
            yield self
        finally:
            for ns, attr, fn in originals:
                setattr(ns, attr, fn)

    def self_seconds(self) -> float:
        return sum(s.self_s for s in self.stats.values())

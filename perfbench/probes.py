"""Wrappers the benchmark installs on one constructed FedAT system.

Everything here is installed from outside the program, after
``FedAT(...)`` has built its replicas: the evaluator's model clone and
the pool/dist workers' replicas already exist, so no wrapper can be
copied into them. Wrappers go on instance attributes of the system's own
objects (server, codec, executor, evaluator, the serial worker's compiled
training plan), plus one module attribute, the tier-average function
``repro.core.fedat`` calls, which :meth:`LayerProbes.restore` puts back.

:class:`UpdateClock` runs in every run (two cheap counters per tier
update); :class:`LayerProbes` only in traced runs.
"""

from __future__ import annotations

import time

import repro.core.fedat as fedat_mod

from spans import SpanRecorder

__all__ = ["UpdateClock", "LayerProbes", "layer_names"]


class UpdateClock:
    """Stamps every ``submit_tier_update`` call and counts client rounds."""

    def __init__(self, system):
        self.submit_times: list[float] = []
        self.client_rounds = 0
        submit = system.server.submit_tier_update
        stamps, clock = self.submit_times, time.perf_counter

        def stamped_submit(*args, **kwargs):
            stamps.append(clock())
            return submit(*args, **kwargs)

        train = system.train_cohort

        def counted_train(tasks, *args, **kwargs):
            self.client_rounds += len(tasks)
            return train(tasks, *args, **kwargs)

        system.server.submit_tier_update = stamped_submit
        system.train_cohort = counted_train

    def gaps_ms(self) -> list[float]:
        """Wall gaps between consecutive tier updates, in milliseconds."""
        t = self.submit_times
        return [(b - a) * 1e3 for a, b in zip(t, t[1:])]


def layer_names(model) -> list[str]:
    """``<idx>_<layer>`` per model layer, e.g. ``00_conv2d``."""
    return [f"{i:02d}_{type(layer).__name__.lower()}" for i, layer in enumerate(model.layers)]


class _TracedOptimizerSpec:
    """Stands in for the serial executor's ``OptimizerSpec``: every
    optimizer it builds has its ``step`` wrapped in an ``nn.optimizer`` span."""

    def __init__(self, spec, rec: SpanRecorder):
        self._spec, self._rec = spec, rec

    def build(self):
        opt = self._spec.build()
        opt.step = self._rec.wrap("nn.optimizer", opt.step)
        return opt


class LayerProbes:
    """Spans around the calls into each layer of one FedAT system.

    ``nn=True`` also wraps the serial worker model's compiled training
    plan (per-layer forward/backward steps, the loss, the optimizer step
    and the ``run_epochs`` loop); only meaningful when training runs in
    this process, i.e. under the serial executor.
    """

    def __init__(self, system, rec: SpanRecorder, *, nn: bool):
        self.rec = rec
        self.cohort_tasks = 0
        self.encodes = 0
        self.encode_bytes = 0
        self.encode_values = 0
        self.send_down_calls = 0
        self.send_down_reused = 0

        def on_encode(_args, payload):
            self.encodes += 1
            self.encode_bytes += payload.nbytes
            self.encode_values += payload.n_values

        def on_cohort(args, _results):
            self.cohort_tasks += len(args[1])

        codec = system.codec
        codec.encode = rec.wrap("codec.encode", codec.encode, on_result=on_encode)
        codec.decode = rec.wrap("codec.decode", codec.decode)
        send_down = rec.wrap("core.send_down", system.send_down)

        def counted_send_down(*args, **kwargs):
            before = self.encodes
            out = send_down(*args, **kwargs)
            self.send_down_calls += 1
            self.send_down_reused += self.encodes == before
            return out

        system.send_down = counted_send_down
        executor = system.executor
        executor.run_cohort = rec.wrap(
            "exec.run_cohort", executor.run_cohort, on_result=on_cohort
        )
        evaluator = system.evaluator
        evaluator.evaluate_flat = rec.wrap("eval", evaluator.evaluate_flat)
        server = system.server
        server.submit_tier_update = rec.wrap("server.submit", server.submit_tier_update)
        self._tier_average = fedat_mod.sample_weighted_average
        fedat_mod.sample_weighted_average = rec.wrap("core.tier_average", self._tier_average)
        self.layers = layer_names(system.worker) if nn else []
        if nn:
            self._wrap_plan(system)

    def _wrap_plan(self, system) -> None:
        plan = system.worker.training_plan(system.loss)
        missing = [a for a in ("_fwds", "_bwds", "_loss_fwd", "_loss_bwd") if not hasattr(plan, a)]
        if missing:
            raise RuntimeError(f"TrainingPlan no longer has {missing}; update perfbench/probes.py")
        rec, n = self.rec, len(self.layers)
        plan._fwds[:] = [
            rec.wrap(f"nn.{name}.fwd", fwd) for name, fwd in zip(self.layers, plan._fwds)
        ]
        # The backward steps run last layer first.
        plan._bwds[:] = [
            rec.wrap(f"nn.{self.layers[n - 1 - k]}.bwd", bwd) for k, bwd in enumerate(plan._bwds)
        ]
        plan._loss_fwd = rec.wrap("nn.loss", plan._loss_fwd)
        plan._loss_bwd = rec.wrap("nn.loss", plan._loss_bwd)
        plan.run_epochs = rec.wrap("nn.run_epochs", plan.run_epochs)
        system.executor.optimizer = _TracedOptimizerSpec(system.executor.optimizer, rec)

    def restore(self) -> None:
        """Put back the module attribute; instance wrappers die with the system."""
        fedat_mod.sample_weighted_average = self._tier_average

"""One FedAT run in a fresh process: set up, run, measure, write a result.

``run.py`` starts this script once per run with the BLAS thread variables
cleared. It builds the federation and the ``FedAT`` system from the seed
in ``--spec`` (``SETUP_REPEATS`` times, keeping the last, so set-up time
has several samples), installs the update clock and, with ``--trace 1``,
the layer probes, runs ``system.run()`` and writes a JSON result to
``--out``. Spans of a traced run go to ``--spans``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import sys
import time

import numpy as np

from repro.core.fedat import FedAT
from repro.experiments.config import build_model_builder, make_fl_config
from repro.experiments.runner import build_federation

from digest import history_digest
from probes import LayerProbes, UpdateClock
from spans import SpanRecorder, check_tree, totals

#: Allowed gap between a traced total and the program's own phase timer:
#: ``PHASE_REL`` of the phase plus ``PHASE_ABS_S``. The phase timers wrap
#: slightly more code than the spans (metering loops, the downlink cache
#: lookup), so the traced total is a little smaller, never larger.
PHASE_REL = 0.05
PHASE_ABS_S = 0.005
#: Set-ups per run; ``run.py`` reports the median of all of them as ``setup_s``.
SETUP_REPEATS = 3


def blas_threads() -> int | None:
    """Threads NumPy's bundled OpenBLAS will use (None if not found)."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def build_system(spec: dict):
    """Federation + ``FedAT`` for one run; returns ``(system, fed_s, sys_s)``."""
    t0 = time.perf_counter()
    dataset = build_federation("cifar10", spec["scale"], spec["seed"])
    t1 = time.perf_counter()
    overrides = {
        "executor": spec["executor"],
        "num_workers": spec["num_workers"],
        "max_rounds": spec["max_rounds"],
    }
    for key in ("max_time", "num_unstable"):
        if spec[key] is not None:
            overrides[key] = spec[key]
    config = make_fl_config("fedat", spec["scale"], spec["seed"], **overrides)
    system = FedAT(dataset, build_model_builder(dataset, spec["scale"]), config)
    t2 = time.perf_counter()
    return system, t1 - t0, t2 - t1


def layer_metrics(system, probes: LayerProbes, spans: list) -> tuple[dict, dict]:
    """Per-layer figures of one traced run, plus the per-call samples the
    parent pools into percentiles (README.md maps each to its end-to-end
    metric)."""
    tot = totals(spans)

    def s(name):
        return tot.get(name, {}).get("s", 0.0)

    def calls(name):
        return tot.get(name, {}).get("calls", 0)

    faults = system.history.meta.get("faults") or getattr(system.executor, "fault_counters", {})
    cohort_ms = [(e - b) * 1e3 for n, b, e, _ in spans if n == "exec.run_cohort"]
    out = {
        "exec.run_cohort.calls": calls("exec.run_cohort"),
        "exec.run_cohort.s": s("exec.run_cohort"),
        "exec.clients_per_call": probes.cohort_tasks / max(calls("exec.run_cohort"), 1),
        "exec.first_call_s": cohort_ms[0] / 1e3 if cohort_ms else 0.0,
        "exec.retries": faults.get("retries", 0),
        "exec.degraded_chunks": faults.get("degraded_chunks", 0),
        "exec.heartbeat_misses": faults.get("heartbeat_misses", 0),
        "eval.calls": calls("eval"),
        "eval.s": s("eval"),
        "codec.encode.calls": calls("codec.encode"),
        "codec.encode.s": s("codec.encode"),
        "codec.decode.calls": calls("codec.decode"),
        "codec.decode.s": s("codec.decode"),
        "codec.bytes_per_weight": probes.encode_bytes / max(probes.encode_values, 1),
        "codec.downlink_reuse_ratio": probes.send_down_reused / max(probes.send_down_calls, 1),
        "server.submit.calls": calls("server.submit"),
        "server.submit.s": s("server.submit"),
        "core.aggregate.s": s("core.tier_average") + s("server.submit"),
        "core.loop_self_s": tot["core.run"]["self_s"],
        "core.updates": system.server.total_updates,
        "core.client_rounds": probes.cohort_tasks,
    }
    if probes.layers:
        out["nn.run_epochs.calls"] = calls("nn.run_epochs")
        out["nn.run_epochs.s"] = s("nn.run_epochs")
        out["nn.batches"] = calls("nn.optimizer")
        for name in probes.layers:
            out[f"nn.{name}.fwd_s"] = s(f"nn.{name}.fwd")
            out[f"nn.{name}.bwd_s"] = s(f"nn.{name}.bwd")
        out["nn.loss.s"] = s("nn.loss")
        out["nn.optimizer.s"] = s("nn.optimizer")
        out["nn.plan_self_s"] = tot.get("nn.run_epochs", {}).get("self_s", 0.0)
    samples = {
        "exec.cohort_ms": cohort_ms,
        "eval.ms": [(e - b) * 1e3 for n, b, e, _ in spans if n == "eval"],
    }
    return out, samples


def phase_check(phases: dict, layers: dict) -> dict:
    """Traced totals against ``history.meta["phase_seconds"]``, per phase."""
    traced = {
        "train": layers["exec.run_cohort.s"],
        "encode": layers["codec.encode.s"] + layers["codec.decode.s"],
        "eval": layers["eval.s"],
        "aggregate": layers["core.aggregate.s"],
    }
    out = {}
    for phase, value in traced.items():
        program = phases.get(phase, 0.0)
        out[phase] = {
            "phase_s": program,
            "traced_s": value,
            "ok": abs(program - value) <= PHASE_REL * program + PHASE_ABS_S,
        }
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--spec", required=True, help="JSON run spec (see workloads.run_spec)")
    p.add_argument("--out", required=True, help="result JSON path")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--trace-nn", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans", default=None, help="where a traced run writes its spans")
    args = p.parse_args(argv)
    spec = json.loads(args.spec)

    setups = []
    for i in range(SETUP_REPEATS):
        if i:
            # A dist executor closed before its local workers registered
            # waits out a 2 s join per worker; let them register first.
            wait = getattr(system.executor, "wait_for_workers", None)
            if wait is not None:
                wait(system.config.num_workers, timeout=10.0)
            system.executor.close()
            del system
        system, fed_s, sys_s = build_system(spec)
        setups.append({"federation_s": fed_s, "system_s": sys_s})

    clock = UpdateClock(system)
    rec = probes = None
    run = system.run
    if args.trace:
        rec = SpanRecorder()
        probes = LayerProbes(system, rec, nn=bool(args.trace_nn))
        run = rec.wrap("core.run", run)
    t0 = time.perf_counter()
    history = run()
    run_s = time.perf_counter() - t0
    if probes is not None:
        probes.restore()

    hist = history.to_dict()
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {
        "spec": spec,
        "setups": setups,
        "run_s": run_s,
        "client_rounds": clock.client_rounds,
        "update_gaps_ms": clock.gaps_ms(),
        "rss_kb": self_kb + kids_kb,
        "digest": history_digest(hist),
        "final_accuracy": hist["records"][-1]["accuracy"],
        "uplink_bytes": hist["records"][-1]["uplink_bytes"],
        "phase_seconds": hist["meta"].get("phase_seconds", {}),
        "env": {
            "nproc": os.cpu_count(),
            "blas_threads": blas_threads(),
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
    }
    if rec is not None:
        spans = rec.spans
        layers, samples = layer_metrics(system, probes, spans)
        result["layers"] = layers
        result["layer_samples"] = samples
        result["tree_problems"] = check_tree(spans)[:20]
        result["phase_check"] = phase_check(result["phase_seconds"], layers)
        if args.spans:
            rec.dump(args.spans)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

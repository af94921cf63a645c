#!/usr/bin/env python
"""Kill-a-worker distributed equivalence check (CI chaos smoke).

Two runs of the same experiment:

1. Serial reference.
2. Distributed run (2 local socket workers); an assassin thread SIGKILLs
   one worker process mid-run.

Passes iff the distributed history is byte-identical to the serial one
after stripping the wall-clock-only meta keys (``phase_seconds``, fault
counters) — the kill may cost retries and a respawn, never bits — and the
recovery counters actually recorded the event. A run that finishes before
the kill lands fails too: it would have checked nothing.

Usage::

    python scripts/chaos_dist_check.py --method fedavg --dataset \
        sentiment140 --scale tiny --seed 1 --rounds 6
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import threading
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.experiments.checkpoint import strip_volatile_meta  # noqa: E402
from repro.experiments.config import build_model_builder, make_fl_config  # noqa: E402
from repro.experiments.runner import ALGORITHMS, build_federation  # noqa: E402


def _run(method, args, *, executor_overrides, kill_delay=None):
    dataset = build_federation(args.dataset, args.scale, args.seed)
    overrides = dict(executor_overrides)
    if args.rounds:
        overrides["max_rounds"] = args.rounds
    config = make_fl_config(method, args.scale, args.seed, **overrides)
    system = ALGORITHMS[method](dataset, build_model_builder(dataset, args.scale), config)
    killed: dict = {}
    if kill_delay is not None:
        def assassin():
            executor = system.executor
            executor.wait_for_workers(2, timeout=60.0)
            # Strike once the run is actually dispatching, so the kill
            # lands mid-run even at tiny scales.
            deadline = time.monotonic() + 60.0
            while executor._dispatch_seq < 1 and time.monotonic() < deadline:
                time.sleep(0.001)
            time.sleep(kill_delay)
            if not executor.worker_processes:
                return
            victim = executor.worker_processes[0]
            os.kill(victim.pid, signal.SIGKILL)
            killed["pid"] = victim.pid

        threading.Thread(target=assassin, daemon=True).start()
    history = system.run()
    return history, killed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--method", default="fedavg")
    parser.add_argument("--dataset", default="sentiment140")
    parser.add_argument("--scale", default="tiny")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=6)
    parser.add_argument(
        "--kill-delay",
        type=float,
        default=0.0,
        help="seconds between the first dispatch going out and the SIGKILL "
        "(a tiny-scale run can finish within tens of milliseconds)",
    )
    args = parser.parse_args()

    print(f"[1/2] serial reference ({args.method}/{args.dataset}/{args.scale})")
    reference, _ = _run(args.method, args, executor_overrides={"executor": "serial"})

    print(f"[2/2] distributed run, SIGKILL one of 2 workers "
          f"{args.kill_delay}s into dispatch")
    chaos, killed = _run(
        args.method,
        args,
        executor_overrides={
            "executor": "dist",
            "num_workers": 2,
            "heartbeat_interval": 0.1,
            "heartbeat_timeout": 1.0,
            "chunk_timeout": 30.0,
        },
        kill_delay=args.kill_delay,
    )
    if not killed:
        print("FAIL: the run finished before the kill landed; lower "
              "--kill-delay or raise --rounds", file=sys.stderr)
        return 1
    print(f"      killed worker pid {killed['pid']}")

    counters = chaos.meta.get("faults", {})
    print(f"      recovery counters: { {k: v for k, v in counters.items() if v} or '-'}")

    ref = strip_volatile_meta(reference.to_dict())
    got = strip_volatile_meta(chaos.to_dict())
    if ref != got:
        print("FAIL: distributed history diverges from the serial reference",
              file=sys.stderr)
        if ref.get("records") != got.get("records"):
            print("  eval records differ", file=sys.stderr)
        for key in ref.get("meta", {}):
            if ref["meta"][key] != got["meta"].get(key):
                print(f"  meta[{key!r}] differs", file=sys.stderr)
        return 1
    if not (counters.get("worker_deaths") or counters.get("respawns")):
        print("FAIL: a worker was killed but no recovery counter recorded it",
              file=sys.stderr)
        return 1
    print("OK: distributed history is byte-identical to the serial reference")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

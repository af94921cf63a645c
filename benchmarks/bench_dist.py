"""Distributed dispatch overhead: scheduler + sockets vs the process pool.

Two shapes, every cell asserted bit-identical to the serial baseline.

``test_dist_dispatch_overhead`` — throughput: four cells over one large
cohort, where any fixed per-dispatch cost is amortised away:

- ``serial``      — in-process reference.
- ``pool``        — ``ParallelExecutor`` over shared-memory workers.
- ``dist``        — ``DistExecutor``: lease scheduling, pickled frames,
  heartbeats — the price of surviving worker loss and network faults.
- ``dist-chaos``  — live network faults (``drop:0.2+delay:0.2``): dropped
  connections reconnect, delayed results ride out their leases.

``test_small_cohort_dispatch_latency`` — FedAT's shape: many dispatches of
3-task cohorts (one tier's synchronous round), for serial, pool and dist.
Here the fixed per-dispatch cost is the whole story, so the cell prints
the per-dispatch milliseconds.

Run with ``python -m pytest benchmarks/bench_dist.py -q -s``;
``REPRO_SMOKE=1`` shrinks the federation for CI.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.data.datasets import make_dataset
from repro.exec import (
    CohortTask,
    DistExecutor,
    OptimizerSpec,
    ParallelExecutor,
    SerialExecutor,
)
from repro.exec.faults import FaultPlan, parse_faults
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.zoo import build_cnn
from repro.sim.client import SimClient

SMOKE = os.environ.get("REPRO_SMOKE", "0") == "1"
NUM_CLIENTS = 24 if SMOKE else 200
SAMPLES_PER_CLIENT = 16 if SMOKE else 32
WORKERS = 2
COHORTS = 2 if SMOKE else 5
TIER_COHORT = 3  # clients per tier round on the tiny preset
TIER_DISPATCHES = 20 if SMOKE else 200


def _setup():
    rng = np.random.default_rng(0)
    dataset = make_dataset(
        "cifar10",
        rng,
        num_clients=NUM_CLIENTS,
        samples_per_client=SAMPLES_PER_CLIENT,
        image_shape=(8, 8, 3),
        classes_per_client=2,
    )
    model = build_cnn(
        (8, 8, 3), dataset.num_classes,
        rng=np.random.default_rng(1), filters=(6, 12, 12), dense_units=24,
    )
    clients = [SimClient(c, None, batch_size=10, seed=0) for c in dataset.clients]
    tasks = [
        CohortTask(client_id=i, epochs=1, lam=0.4, latency=1.0, start_epoch=0)
        for i in range(NUM_CLIENTS)
    ]
    return model, clients, tasks


def _fingerprint(results):
    return [(r.client_id, r.train_loss, r.weights.tobytes()) for r in results]


def test_dist_dispatch_overhead(artifact):
    model, clients, tasks = _setup()
    loss, opt = SoftmaxCrossEntropy(), OptimizerSpec("adam", 0.005)
    start = model.get_flat_weights()

    serial = SerialExecutor(model.clone(), clients, loss, opt)
    t0 = time.perf_counter()
    for _ in range(COHORTS):
        results = serial.run_cohort(start, tasks)
    serial_dt = (time.perf_counter() - t0) / COHORTS
    reference = _fingerprint(results)
    rows = [("serial", serial_dt, {})]

    chaos = FaultPlan(parse_faults("drop:0.2+delay:0.2"), seed=0, delay_seconds=0.05)
    cells = [
        ("pool", ParallelExecutor, {}),
        ("dist", DistExecutor, {}),
        ("dist-chaos", DistExecutor,
         {"faults": chaos, "chunk_timeout": 60.0, "chunk_retries": 8}),
    ]
    for name, cls, extra in cells:
        with cls(model, clients, loss, opt, num_workers=WORKERS, **extra) as executor:
            # Warm the workers outside timing (>= min_dispatch so dispatch engages).
            executor.run_cohort(start, tasks[: max(WORKERS, executor.min_dispatch)])
            t0 = time.perf_counter()
            for _ in range(COHORTS):
                results = executor.run_cohort(start, tasks)
            dt = (time.perf_counter() - t0) / COHORTS
            counters = dict(executor.fault_counters)
        assert _fingerprint(results) == reference, f"{name} diverges from serial"
        rows.append((name, dt, counters))

    base = rows[0][1]
    print(f"\ndistributed dispatch — {NUM_CLIENTS} clients, {WORKERS} workers, "
          f"{COHORTS} cohorts/cell{' [smoke]' if SMOKE else ''}")
    print(f"{'cell':<12}{'wall (s)':>10}{'clients/s':>12}{'vs serial':>11}  recovery")
    for name, dt, counters in rows:
        active = {k: v for k, v in counters.items() if v}
        print(f"{name:<12}{dt:>10.3f}{len(tasks) / dt:>12.1f}"
              f"{dt / base:>10.2f}x  {active or '-'}")

    chaos_counters = rows[-1][2]
    assert chaos_counters["reconnects"] > 0, "chaos cell never dropped a connection"
    assert chaos_counters["degraded_chunks"] == 0, "chaos cell failed to recover"
    artifact(
        "dist_dispatch",
        {
            "num_clients": NUM_CLIENTS,
            "workers": WORKERS,
            "smoke": SMOKE,
            "rows": [
                {"cell": n, "wall_s": dt, "clients_per_s": len(tasks) / dt,
                 "counters": c}
                for n, dt, c in rows
            ],
        },
    )


def test_small_cohort_dispatch_latency(artifact):
    model, clients, tasks = _setup()
    loss, opt = SoftmaxCrossEntropy(), OptimizerSpec("adam", 0.005)
    start = model.get_flat_weights()
    cohorts = [
        [tasks[(TIER_COHORT * d + j) % NUM_CLIENTS] for j in range(TIER_COHORT)]
        for d in range(TIER_DISPATCHES)
    ]

    def timed(executor):
        t0 = time.perf_counter()
        out = [_fingerprint(executor.run_cohort(start, c)) for c in cohorts]
        return (time.perf_counter() - t0) / TIER_DISPATCHES, out

    with SerialExecutor(model.clone(), clients, loss, opt) as serial:
        serial_dt, reference = timed(serial)
    rows = [("serial", serial_dt)]
    for name, cls in (("pool", ParallelExecutor), ("dist", DistExecutor)):
        with cls(model, clients, loss, opt, num_workers=WORKERS) as executor:
            executor.run_cohort(start, cohorts[0])  # warm the workers
            dt, out = timed(executor)
        assert out == reference, f"{name} diverges from serial"
        rows.append((name, dt))

    print(
        f"\nsmall-cohort dispatch — {TIER_DISPATCHES} dispatches of "
        f"{TIER_COHORT} clients, {WORKERS} workers{' [smoke]' if SMOKE else ''}"
    )
    print(f"{'cell':<12}{'ms/dispatch':>13}{'vs serial':>11}")
    for name, dt in rows:
        print(f"{name:<12}{dt * 1e3:>13.2f}{dt / serial_dt:>10.2f}x")
    artifact(
        "dist_small_cohort_dispatch",
        {
            "cohort_size": TIER_COHORT,
            "dispatches": TIER_DISPATCHES,
            "workers": WORKERS,
            "smoke": SMOKE,
            "rows": [{"cell": n, "ms_per_dispatch": dt * 1e3} for n, dt in rows],
        },
    )

"""The benchmark's workloads: which FedAT run each one makes from a seed.

Every workload is FedAT on the synthetic ``cifar10`` federation in the
static world at float64. A seed fixes the inputs completely: it seeds both
the federation build and the FL config, so two runs with one seed must
produce the same history bytes (the output check relies on this).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Workload", "WORKLOADS", "SMOKE_ROUNDS", "run_spec"]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scale: str
    executor: str
    #: Global (tier) updates per run.
    max_rounds: int
    #: Virtual-second cutoff; None keeps the scale preset's.
    max_time: float | None
    num_workers: int = 0
    #: Clients that drop out for good; None keeps the scale preset's.
    num_unstable: int | None = None
    #: Executors whose histories the timed runs must match at the same
    #: seed, each run once per invocation before the timed window. The
    #: first also gives the ``nn.*`` figures when the timed executor trains
    #: in other processes. Empty: the timed runs only agree with each other.
    references: tuple[str, ...] = ()


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="serial-bench",
            why="bench-scale CNN trained in one process: repro.nn local training "
            "dominates, repro.exec only loops",
            scale="bench",
            executor="serial",
            max_rounds=40,
            max_time=None,
        ),
        Workload(
            name="dist-tiny",
            why="tiny model over the socket scheduler with 2 local workers: leases, "
            "frames, broadcasts and heartbeats set the time",
            scale="tiny",
            executor="dist",
            max_rounds=150,
            max_time=1000.0,
            num_workers=2,
            num_unstable=0,
            references=("serial", "parallel"),
        ),
    )
}

#: Global updates per run under ``--smoke`` (the self-tests' short setting).
SMOKE_ROUNDS = 6


def run_spec(workload: Workload, seed: int, *, executor: str | None = None,
             smoke: bool = False) -> dict:
    """The JSON-able description of one FedAT run that ``child.py`` executes."""
    return {
        "scale": workload.scale,
        "executor": executor or workload.executor,
        "num_workers": workload.num_workers,
        "max_rounds": SMOKE_ROUNDS if smoke else workload.max_rounds,
        "max_time": workload.max_time,
        "num_unstable": workload.num_unstable,
        "seed": seed,
    }

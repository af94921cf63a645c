"""FedAT end-to-end benchmark: one workload, one seed, one command.

    python3 perfbench/run.py --workload serial-bench --seed 0 --seconds 30 --trace 0

Each run is one FedAT ``system.run()`` in a fresh child process
(``child.py``) with ``OPENBLAS_NUM_THREADS``/``OMP_NUM_THREADS``/
``MKL_NUM_THREADS`` removed from its environment, so the BLAS library's
own default applies. Runs repeat until the next one would overrun
``--seconds``; every figure is a median or percentile over them.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` spends the
first half of the window on untraced runs and the second half on traced
runs, and prints the per-layer metrics plus ``trace.overhead_ratio``.

Output check: every run's history digest must equal the reference digest
(the serial run of the same inputs, for workloads that name one; else the
first run). A crash, a digest mismatch, a malformed span tree or a traced
total that disagrees with the program's phase timers counts as a failed
run; the last stdout line is the JSON result and the exit code is 1 when
anything failed. README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, run_spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Hard cap on one child run, well inside the 180 s the whole command has.
CHILD_TIMEOUT_S = 120.0

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "client_rounds_per_s": "1/s",
    "update_ms.p50": "ms",
    "update_ms.p95": "ms",
    "peak_rss_mb": "MB",
    "uplink_mb": "MB",
}

NN_LAYERS = (
    "00_conv2d", "01_relu", "02_maxpool2d", "03_conv2d", "04_relu", "05_maxpool2d",
    "06_conv2d", "07_relu", "08_flatten", "09_dense", "10_relu", "11_dense",
)

PER_LAYER = {
    "exec.run_cohort.calls": "count",
    "exec.run_cohort.s": "s",
    "exec.cohort_ms.p50": "ms",
    "exec.cohort_ms.p95": "ms",
    "exec.clients_per_call": "count",
    "exec.first_call_s": "s",
    "exec.retries": "count",
    "exec.degraded_chunks": "count",
    "exec.heartbeat_misses": "count",
    "nn.run_epochs.calls": "count",
    "nn.run_epochs.s": "s",
    "nn.batches": "count",
    **{f"nn.{layer}.{d}_s": "s" for layer in NN_LAYERS for d in ("fwd", "bwd")},
    "nn.loss.s": "s",
    "nn.optimizer.s": "s",
    "nn.plan_self_s": "s",
    "eval.calls": "count",
    "eval.s": "s",
    "eval.ms.p50": "ms",
    "codec.encode.calls": "count",
    "codec.encode.s": "s",
    "codec.decode.calls": "count",
    "codec.decode.s": "s",
    "codec.bytes_per_weight": "B",
    "codec.downlink_reuse_ratio": "ratio",
    "server.submit.calls": "count",
    "server.submit.s": "s",
    "core.aggregate.s": "s",
    "core.loop_self_s": "s",
    "core.updates": "count",
    "core.client_rounds": "count",
    "setup.federation_s": "s",
    "setup.system_s": "s",
    "trace.overhead_ratio": "ratio",
}


# ---------------------------------------------------------------------- #
# Statistics
# ---------------------------------------------------------------------- #
def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]


def beyond(values: list[float], q: float) -> int:
    """How many samples lie strictly above the ``q`` percentile."""
    cut = percentile(values, q)
    return sum(v > cut for v in values)


# ---------------------------------------------------------------------- #
# Environment
# ---------------------------------------------------------------------- #
def commit_id() -> str | None:
    """HEAD of the checkout's git repository, read without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest() -> str:
    """SHA-256 (12 hex) over ``src/``'s Python files: identifies the code
    even in a checkout that is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:12]


def child_env(tmp: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["TMPDIR"] = str(tmp)  # keep every temporary file inside the checkout
    return env


# ---------------------------------------------------------------------- #
# Runs
# ---------------------------------------------------------------------- #
def launch(spec: dict, *, tag: str, out_dir: Path, trace: bool, trace_nn: bool,
           deadline: float) -> dict:
    """Run ``child.py`` once, stopping it at ``deadline`` (a ``perf_counter``
    time) or after ``CHILD_TIMEOUT_S``; returns its result or ``{"error": ...}``."""
    timeout = max(1.0, min(CHILD_TIMEOUT_S, deadline - time.perf_counter()))
    out = out_dir / f"{tag}.json"
    out.unlink(missing_ok=True)
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--spec", json.dumps(spec),
        "--out", str(out),
        "--trace", str(int(trace)),
        "--trace-nn", str(int(trace_nn)),
        # Timed traced runs share one file (the last run's spans are kept).
        "--spans", str(out_dir / f"{tag.rstrip('0123456789')}.spans.json"),
    ]
    t0 = time.perf_counter()
    # Own session, so a timeout can stop the run's pool/dist workers too.
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(out_dir / "tmp"),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"error": f"{tag}: no result within {timeout:.0f} s", "wall_s": timeout}
    wall = time.perf_counter() - t0
    if proc.returncode != 0 or not out.is_file():
        tail = "\n".join(err.strip().splitlines()[-5:])
        return {"error": f"{tag}: exit code {proc.returncode}\n{tail}", "wall_s": wall}
    result = json.loads(out.read_text())
    result["wall_s"] = wall
    return result


def timed_runs(spec: dict, *, out_dir: Path, seconds: float, trace: bool,
               trace_nn: bool, deadline: float) -> list[dict]:
    """Runs from now until the next would end past ``seconds``; at least one."""
    start = time.perf_counter()
    kind = "traced" if trace else "plain"
    runs: list[dict] = []
    while True:
        run = launch(spec, tag=f"{kind}{len(runs)}", out_dir=out_dir, trace=trace,
                     trace_nn=trace_nn, deadline=deadline)
        run["kind"] = kind
        runs.append(run)
        elapsed = time.perf_counter() - start
        typical = statistics.median(r["wall_s"] for r in runs)
        if "error" in run or elapsed + typical > seconds:
            return runs


def check_runs(runs: list[dict], reference: str | None) -> dict[int, str]:
    """Output check: run index -> why that run failed."""
    failed = {}
    for i, run in enumerate(runs):
        if "error" in run:
            failed[i] = run["error"]
        elif reference is not None and run["digest"] != reference:
            failed[i] = f"history digest {run['digest'][:12]} != {reference[:12]}"
        elif run.get("tree_problems"):
            failed[i] = f"malformed span tree: {run['tree_problems'][0]}"
        else:
            bad = [
                f"traced {phase} {c['traced_s']:.4f} s vs phase timer {c['phase_s']:.4f} s"
                for phase, c in run.get("phase_check", {}).items()
                if not c["ok"]
            ]
            if bad:
                failed[i] = "; ".join(bad)
    return failed


# ---------------------------------------------------------------------- #
# Metrics
# ---------------------------------------------------------------------- #
def end_to_end(plain: list[dict], parent_rss_kb: int) -> tuple[dict, dict]:
    gaps = [g for r in plain for g in r["update_gaps_ms"]]
    values = {
        "setup_s": statistics.median(
            s["federation_s"] + s["system_s"] for r in plain for s in r["setups"]
        ),
        "run_s": statistics.median(r["run_s"] for r in plain),
        "client_rounds_per_s": statistics.median(r["client_rounds"] / r["run_s"] for r in plain),
        "update_ms.p50": percentile(gaps, 50),
        "update_ms.p95": percentile(gaps, 95),
        "peak_rss_mb": (parent_rss_kb + max(r["rss_kb"] for r in plain)) / 1024,
        "uplink_mb": plain[0]["uplink_bytes"] / 1e6,
    }
    info = {"update_gaps": len(gaps), "beyond_p95": beyond(gaps, 95)}
    return values, info


def per_layer(plain: list[dict], traced: list[dict], nn_runs: list[dict]) -> dict:
    def med(runs, key):
        return statistics.median(r["layers"][key] for r in runs)

    values = {}
    for key in traced[0]["layers"]:
        if not key.startswith("nn."):
            values[key] = med(traced, key)
    for key in nn_runs[0]["layers"]:
        if key.startswith("nn."):
            values[key] = med(nn_runs, key)
    cohort_ms = [v for r in traced for v in r["layer_samples"]["exec.cohort_ms"]]
    eval_ms = [v for r in traced for v in r["layer_samples"]["eval.ms"]]
    values["exec.cohort_ms.p50"] = percentile(cohort_ms, 50)
    values["exec.cohort_ms.p95"] = percentile(cohort_ms, 95)
    values["eval.ms.p50"] = percentile(eval_ms, 50)
    setups = [s for r in plain + traced for s in r["setups"]]
    values["setup.federation_s"] = statistics.median(s["federation_s"] for s in setups)
    values["setup.system_s"] = statistics.median(s["system_s"] for s in setups)
    values["trace.overhead_ratio"] = statistics.median(r["run_s"] for r in traced) / (
        statistics.median(r["run_s"] for r in plain)
    )
    return values


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measurement window")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="a few global updates per run (the self-tests' setting)")
    p.add_argument("--out-dir", default=str(ROOT / ".perfbench"),
                   help="run results and spans (default: .perfbench/ in the checkout)")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {ROOT / 'src' / 'repro'}; nothing to measure",
              file=sys.stderr)
        return 2
    begin = time.perf_counter()
    deadline = begin + 170.0  # the whole command must end within 180 s
    workload = WORKLOADS[args.workload]
    out_dir = Path(args.out_dir) / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)  # results of an earlier invocation
    (out_dir / "tmp").mkdir(parents=True)
    spec = run_spec(workload, args.seed, smoke=args.smoke)
    trace = bool(args.trace)
    serial = workload.executor == "serial"

    refs = []
    for executor in workload.references:
        # The first reference is traced in a traced invocation: with the
        # serial executor it is where the nn.* spans of an out-of-process
        # workload come from.
        traced_ref = trace and not refs
        ref = launch(run_spec(workload, args.seed, executor=executor, smoke=args.smoke),
                     tag=f"reference-{executor}", out_dir=out_dir, trace=traced_ref,
                     trace_nn=traced_ref and executor == "serial", deadline=deadline)
        ref["kind"] = f"reference-{executor}"
        refs.append(ref)
    window = args.seconds / 2 if trace else args.seconds
    runs = timed_runs(spec, out_dir=out_dir, seconds=window, trace=False,
                      trace_nn=False, deadline=deadline)
    if trace:
        runs += timed_runs(spec, out_dir=out_dir, seconds=window, trace=True,
                           trace_nn=serial, deadline=deadline)
    all_runs = refs + runs
    first_ok = next((r for r in all_runs if "error" not in r), None)
    reference = first_ok["digest"] if first_ok else None
    failed = check_runs(all_runs, reference)

    ok = [r for i, r in enumerate(all_runs) if i >= len(refs) and i not in failed]
    plain = [r for r in ok if r["kind"] == "plain"]
    traced = [r for r in ok if r["kind"] == "traced"]
    nn_runs = traced if serial else [r for r in refs[:1] if "layers" in r]
    metrics, info = {}, {}
    units = PER_LAYER if trace else END_TO_END
    if plain and not trace:
        parent_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics, info = end_to_end(plain, parent_kb)
    elif plain and traced and nn_runs:
        metrics = per_layer(plain, traced, nn_runs)
    missing = sorted(set(units) - set(metrics))

    env = dict(first_ok["env"]) if first_ok else {}
    env.update(commit=commit_id(), source=source_digest())
    summary = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "runs": {"plain": len(plain), "traced": len(traced)},
        "reference_run_s": {r["kind"]: r.get("run_s") for r in refs},
        "elapsed_s": time.perf_counter() - begin,
        "env": env,
        "info": info,
        "digest": reference,
        "final_accuracy": first_ok["final_accuracy"] if first_ok else None,
        "phase_seconds": [r["phase_seconds"] for r in ok],
        "failed_runs": {f"{all_runs[i]['kind']} {i}": why for i, why in failed.items()},
        "missing_metrics": missing,
    }
    result = {
        "correct": not failed and not missing,
        "attempted": len(all_runs),
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
    }
    (out_dir / "result.json").write_text(json.dumps({**summary, **result}, indent=1))
    for i, why in failed.items():
        print(f"perfbench: FAILED {all_runs[i]['kind']} run {i}: {why}", file=sys.stderr)
    if missing:
        print(f"perfbench: metrics not measured: {', '.join(missing)}", file=sys.stderr)
    if info and info["beyond_p95"] < 10:
        print(f"perfbench: only {info['beyond_p95']} update gaps beyond p95; "
              "update_ms.p95 needs a longer window", file=sys.stderr)
    print(f"# {json.dumps(summary)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

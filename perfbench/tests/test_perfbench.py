"""Self-tests of the benchmark harness, on the short ``--smoke`` setting.

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
from child import phase_check
from digest import history_digest
from spans import SpanRecorder, check_tree, self_times
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, out_dir: Path) -> tuple[int, dict]:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke",
         "--out-dir", str(out_dir)],
        capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


def test_metric_tables_match_benchmark_json():
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in BENCHMARK[key]}
        assert declared == table
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_workload_emits_every_metric(workload, trace, tmp_path):
    code, result = bench(workload, trace, tmp_path)
    assert code == 0, result
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if trace:
        assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
        assert result["metrics"]["nn.batches"]["value"] > 0


def test_traced_span_tree_is_well_formed(tmp_path):
    code, _ = bench("serial-bench", 1, tmp_path)
    assert code == 0
    dumps = sorted(tmp_path.glob("*/traced.spans.json"))
    assert dumps
    data = json.loads(dumps[0].read_text())
    spans = [[data["names"][n], s, e, p] for n, s, e, p in data["spans"]]
    assert check_tree(spans) == []
    assert min(self_times(spans)) >= -1e-9
    names = {s[0] for s in spans}
    assert {"core.run", "exec.run_cohort", "nn.run_epochs", "nn.00_conv2d.fwd",
            "codec.encode", "eval", "server.submit"} <= names
    roots = [s for s in spans if s[3] < 0]
    assert [s[0] for s in roots] == ["core.run"]


def test_check_tree_flags_malformed_spans():
    rec = SpanRecorder()
    inner = rec.wrap("inner", lambda: None)
    rec.wrap("outer", lambda: inner())()
    assert check_tree(rec.spans) == []
    outer, child = rec.spans
    assert child[3] == 0 and outer[1] <= child[1] <= child[2] <= outer[2]
    escaped = [list(outer), [child[0], child[1], outer[2] + 1.0, 0]]
    assert any("outside its parent" in p for p in check_tree(escaped))
    assert any("ends before" in p for p in check_tree([["x", 2.0, 1.0, -1]]))


def test_digest_check_fails_on_tampered_history():
    from repro.core.fedat import FedAT
    from repro.experiments.config import build_model_builder, make_fl_config
    from repro.experiments.runner import build_federation

    dataset = build_federation("cifar10", "tiny", 0)
    config = make_fl_config("fedat", "tiny", 0, max_rounds=6)
    history = FedAT(dataset, build_model_builder(dataset, "tiny"), config).run().to_dict()
    good = history_digest(history)

    # Wall-clock meta is not part of the digest ...
    history["meta"]["phase_seconds"] = {"train": 123.0}
    assert history_digest(history) == good
    # ... but one ulp of one recorded accuracy is.
    tampered = json.loads(json.dumps(history))
    acc = tampered["records"][-1]["accuracy"]
    tampered["records"][-1]["accuracy"] = float(np.nextafter(acc, 1.0))
    bad = history_digest(tampered)
    assert bad != good

    runs = [{"kind": "plain", "digest": good}, {"kind": "plain", "digest": bad}]
    failed = run.check_runs(runs, good)
    assert list(failed) == [1] and "digest" in failed[1]


def test_phase_check_catches_double_counting():
    layers = {"exec.run_cohort.s": 2.0, "codec.encode.s": 0.1, "codec.decode.s": 0.1,
              "eval.s": 0.3, "core.aggregate.s": 0.02}
    phases = {"train": 2.0, "encode": 0.2, "eval": 0.3, "aggregate": 0.02}
    assert all(c["ok"] for c in phase_check(phases, layers).values())
    doubled = dict(layers, **{"eval.s": 0.6})
    assert not phase_check(phases, doubled)["eval"]["ok"]

"""Distributed executor: wire protocol, lease bookkeeping, and recovery.

The e2e contract matches the pool's: whatever the worker count, arrival
order, kills, disconnects, or injected network faults, ``DistExecutor``
must hand back results bit-identical to ``SerialExecutor`` — faults cost
wall clock and recovery counters, never history bits.
"""

import os
import pickle
import signal
import socket
import struct
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.exec import CohortTask, OptimizerSpec, SerialExecutor
from repro.exec.dist import (
    DistExecutor,
    FrameBuffer,
    FrameError,
    LeaseTable,
    chunk_tasks,
    parse_address,
    recv_frame,
    send_frame,
)
from repro.exec.dist.scheduler import Scheduler
from repro.exec.dist.wire import encode_frame
from repro.exec.faults import ExecutorFaultError, FaultPlan, parse_faults
from repro.exec.parallel import ParallelExecutor
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.zoo import build_logistic
from repro.sim.client import SimClient


def _clients(dataset, batch_size=10, seed=0):
    return [
        SimClient(c, None, batch_size=batch_size, seed=seed) for c in dataset.clients
    ]


def _model(dataset, seed=0):
    return build_logistic(
        dataset.input_shape[0], dataset.num_classes, rng=np.random.default_rng(seed)
    )


def _cohort(n, epochs=1, lam=0.0):
    return [
        CohortTask(client_id=i, epochs=epochs, lam=lam, latency=1.0 + i, start_epoch=0)
        for i in range(n)
    ]


def _assert_results_equal(a, b):
    assert [r.client_id for r in a] == [r.client_id for r in b]
    for ra, rb in zip(a, b):
        np.testing.assert_array_equal(ra.weights, rb.weights)
        assert ra.train_loss == rb.train_loss
        assert ra.n_samples == rb.n_samples
        assert ra.latency == rb.latency


# --------------------------------------------------------------------- #
# Wire protocol
# --------------------------------------------------------------------- #
class TestWire:
    def test_blocking_roundtrip(self):
        a, b = socket.socketpair()
        try:
            msg = ("result", 3, 1, 0, [np.arange(5.0)], "abc")
            send_frame(a, msg)
            got = recv_frame(b)
            assert got[0] == "result" and got[1:4] == (3, 1, 0)
            np.testing.assert_array_equal(got[4][0], np.arange(5.0))
        finally:
            a.close()
            b.close()

    def test_buffer_reassembles_fragmented_frames(self):
        msgs = [("heartbeat", f"w{i}") for i in range(5)]
        stream = b"".join(encode_frame(m) for m in msgs)
        buf = FrameBuffer()
        out = []
        # Feed in pathological 3-byte slivers: frames must reassemble.
        for i in range(0, len(stream), 3):
            buf.feed(stream[i : i + 3])
            out.extend(buf.drain())
        assert out == msgs

    def test_crc_mismatch_detected(self):
        data = bytearray(encode_frame(("register", "w0", 1, False, -1)))
        data[-1] ^= 0xFF  # flip a payload byte; header crc now disagrees
        buf = FrameBuffer()
        buf.feed(bytes(data))
        with pytest.raises(FrameError, match="crc32"):
            buf.drain()

    def test_length_cap_rejected(self):
        bogus = struct.pack("!II", (1 << 31) + 1, 0)
        buf = FrameBuffer()
        buf.feed(bogus)
        with pytest.raises(FrameError, match="cap"):
            buf.drain()

    def test_partial_frame_is_retained_not_lost(self):
        frame = encode_frame(("shutdown",))
        buf = FrameBuffer()
        buf.feed(frame[:5])
        assert buf.drain() == []
        buf.feed(frame[5:])
        assert buf.drain() == [("shutdown",)]

    def test_send_lock_serializes(self):
        import threading

        a, b = socket.socketpair()
        lock = threading.Lock()
        try:
            threads = [
                threading.Thread(target=send_frame, args=(a, ("heartbeat", f"w{i}")), kwargs={"lock": lock})
                for i in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            got = sorted(recv_frame(b)[1] for _ in range(8))
            assert got == [f"w{i}" for i in range(8)]
        finally:
            a.close()
            b.close()


def test_parse_address():
    assert parse_address("127.0.0.1:7070") == ("127.0.0.1", 7070)
    assert parse_address("scheduler.local:0") == ("scheduler.local", 0)
    for bad in ("7070", ":7070", "host:", "host:http"):
        with pytest.raises(ValueError):
            parse_address(bad)


# --------------------------------------------------------------------- #
# Chunking and lease bookkeeping
# --------------------------------------------------------------------- #
def test_chunk_tasks_matches_pool_chunking():
    """Chunk boundaries key the deterministic fault draws, so the dist
    split must cut exactly where ``ParallelExecutor._chunk`` cuts."""
    for size in (1, 2, 3, 5, 8, 13, 20):
        tasks = list(range(size))
        for n in (1, 2, 3, 4, 6):
            assert chunk_tasks(tasks, n) == ParallelExecutor._chunk(tasks, n)


class TestLeaseTable:
    def test_validation(self):
        with pytest.raises(ValueError):
            LeaseTable(0, retry_budget=1, timeout=None)
        with pytest.raises(ValueError):
            LeaseTable(2, retry_budget=-1, timeout=None)

    def test_lifecycle(self):
        table = LeaseTable(2, retry_budget=1, timeout=None)
        assert table.has_pending() and not table.finished()
        a = table.assign("w0")
        b = table.assign("w1")
        assert (a.chunk, b.chunk) == (0, 1)
        assert a.attempts == 1 and a.worker == "w0"
        assert table.assign("w2") is None  # drained
        table.complete(0)
        table.complete(1)
        assert table.finished() and not table.failures()
        assert a.history == [(0, "w0", "done")]

    def test_requeue_respects_budget(self):
        table = LeaseTable(1, retry_budget=1, timeout=None)
        table.assign("w0")
        assert table.requeue(0, "worker died")  # attempt 1 of 2 burned
        table.assign("w1")
        assert not table.requeue(0, "checksum mismatch")  # budget spent
        assert table.finished()
        [failed] = table.failures()
        assert failed.failed_reason == "checksum mismatch"
        assert [h[2] for h in failed.history] == ["worker died", "checksum mismatch"]

    def test_steal_detection(self):
        table = LeaseTable(1, retry_budget=2, timeout=None)
        table.assign("w0")
        table.requeue(0, "timeout")
        lease = table.assign("w1")
        assert table.stolen(lease)  # moved w0 -> w1
        table.requeue(0, "timeout")
        lease = table.assign("w1")
        assert not table.stolen(lease)  # same worker retried

    def test_expired_deadlines(self):
        table = LeaseTable(2, retry_budget=1, timeout=10.0)
        table.assign("w0", now=100.0)
        table.assign("w1", now=105.0)
        assert table.expired(now=109.0) == []
        expired = table.expired(now=112.0)
        assert [lease.chunk for lease in expired] == [0]

    def test_accepts_bounds_and_staleness(self):
        table = LeaseTable(2, retry_budget=0, timeout=None)
        assert not table.accepts(-1) and not table.accepts(2)
        table.assign("w0")
        assert table.accepts(0)
        # A stale attempt's result is still wanted while unresolved …
        table.requeue(0, "drop")
        assert table.accepts(0)
        # … but not once the chunk completed.
        table.leases[0].done = True
        assert not table.accepts(0)

    def test_fail_pending(self):
        table = LeaseTable(3, retry_budget=5, timeout=None)
        table.assign("w0")
        failed = table.fail_pending("no live workers")
        assert [lease.chunk for lease in failed] == [1, 2]
        assert not table.has_pending()
        assert len(table.outstanding()) == 1  # w0's lease survives

    def test_held_by(self):
        table = LeaseTable(3, retry_budget=0, timeout=None)
        table.assign("w0")
        table.assign("w1")
        assert [lease.chunk for lease in table.held_by("w0")] == [0]


# --------------------------------------------------------------------- #
# End-to-end executor recovery
# --------------------------------------------------------------------- #
_TIGHT = dict(heartbeat_interval=0.1, heartbeat_timeout=1.0, worker_grace=20.0)


def _executors(dataset, **dist_kw):
    model = _model(dataset)
    serial = SerialExecutor(
        _model(dataset), _clients(dataset), SoftmaxCrossEntropy(), OptimizerSpec("sgd", 0.1)
    )
    kw = dict(num_workers=2, **_TIGHT)
    kw.update(dist_kw)
    dist = DistExecutor(
        model, _clients(dataset), SoftmaxCrossEntropy(), OptimizerSpec("sgd", 0.1), **kw
    )
    return serial, dist


class TestDistExecutor:
    def test_bit_identical_to_serial(self, tiny_bow_dataset):
        serial, dist = _executors(tiny_bow_dataset)
        try:
            start = serial.model.get_flat_weights()
            for round_no in range(3):
                tasks = _cohort(8, epochs=1 + round_no % 2)
                _assert_results_equal(
                    serial.run_cohort(start, tasks), dist.run_cohort(start, tasks)
                )
        finally:
            dist.close()
            serial.close()

    def test_singleton_and_empty_cohorts_use_fast_path(self, tiny_bow_dataset):
        serial, dist = _executors(tiny_bow_dataset)
        try:
            start = serial.model.get_flat_weights()
            assert dist.run_cohort(start, []) == []
            _assert_results_equal(
                serial.run_cohort(start, _cohort(1)), dist.run_cohort(start, _cohort(1))
            )
        finally:
            dist.close()
            serial.close()

    def test_network_chaos_bit_identical(self, tiny_bow_dataset):
        """Dropped connections and delayed results must cost only retries."""
        plan = FaultPlan(parse_faults("drop:0.3+delay:0.4"), seed=5, delay_seconds=0.05)
        # drop:0.3 can deterministically land several drops in a row on one
        # chunk; a generous retry budget keeps this a pure-recovery test.
        serial, dist = _executors(
            tiny_bow_dataset, faults=plan, chunk_timeout=5.0, chunk_retries=8
        )
        try:
            start = serial.model.get_flat_weights()
            for _ in range(4):
                tasks = _cohort(8)
                _assert_results_equal(
                    serial.run_cohort(start, tasks), dist.run_cohort(start, tasks)
                )
            assert dist.fault_counters["reconnects"] > 0
            assert dist.fault_counters["retries"] > 0
            assert dist.fault_counters["degraded_chunks"] == 0
        finally:
            dist.close()
            serial.close()

    def test_sigkill_worker_recovers(self, tiny_bow_dataset):
        """SIGKILL a local worker between dispatches: the lease layer
        redistributes, the executor respawns, results stay identical."""
        serial, dist = _executors(tiny_bow_dataset)
        try:
            start = serial.model.get_flat_weights()
            tasks = _cohort(8)
            _assert_results_equal(serial.run_cohort(start, tasks), dist.run_cohort(start, tasks))
            victim = dist.worker_processes[0]
            os.kill(victim.pid, signal.SIGKILL)
            for _ in range(2):
                _assert_results_equal(
                    serial.run_cohort(start, tasks), dist.run_cohort(start, tasks)
                )
            assert dist.fault_counters["respawns"] >= 1
            assert dist.fault_counters["degraded_chunks"] == 0
        finally:
            dist.close()
            serial.close()

    def test_sigstop_worker_misses_heartbeats(self, tiny_bow_dataset):
        """A wedged (stopped) worker is declared dead by heartbeat timeout
        and its lease is stolen by the survivor."""
        serial, dist = _executors(tiny_bow_dataset, chunk_timeout=5.0)
        try:
            dist.wait_for_workers(2)
            victim = dist.worker_processes[0]
            os.kill(victim.pid, signal.SIGSTOP)
            try:
                start = serial.model.get_flat_weights()
                tasks = _cohort(8)
                _assert_results_equal(
                    serial.run_cohort(start, tasks), dist.run_cohort(start, tasks)
                )
            finally:
                os.kill(victim.pid, signal.SIGCONT)
            assert dist.fault_counters["heartbeat_misses"] >= 1
        finally:
            dist.close()
            serial.close()

    def test_corruption_detected_and_degraded(self, tiny_bow_dataset):
        plan = FaultPlan(parse_faults("corrupt:1.0"), seed=0)
        serial, dist = _executors(tiny_bow_dataset, faults=plan, chunk_retries=0)
        try:
            start = serial.model.get_flat_weights()
            tasks = _cohort(6)
            with pytest.warns(RuntimeWarning, match="degrading to in-process"):
                chaos = dist.run_cohort(start, tasks)
            _assert_results_equal(serial.run_cohort(start, tasks), chaos)
            assert dist.fault_counters["corrupt_detected"] > 0
            assert dist.fault_counters["degraded_chunks"] > 0
        finally:
            dist.close()
            serial.close()

    def test_fault_error_carries_dist_context(self, tiny_bow_dataset):
        """With degradation off, budget exhaustion must surface the full
        diagnosis: backend, chunk, attempts, live workers, counters."""
        plan = FaultPlan(parse_faults("corrupt:1.0"), seed=0)
        _, dist = _executors(
            tiny_bow_dataset, faults=plan, chunk_retries=1, degrade=False
        )
        try:
            start = dist._local.model.get_flat_weights()
            with pytest.raises(ExecutorFaultError) as excinfo:
                dist.run_cohort(start, _cohort(6))
            err = excinfo.value
            assert err.executor == "dist"
            assert err.attempts == 2  # 1 + chunk_retries
            assert err.retry_budget == 1
            assert err.chunk_size > 0
            assert err.counters["corrupt_detected"] > 0
            text = str(err)
            assert "chunk_retries" in text and "fault_degrade" in text
        finally:
            dist.close()

    def test_knob_validation(self, tiny_bow_dataset):
        kwargs = dict(
            model=_model(tiny_bow_dataset),
            clients=_clients(tiny_bow_dataset),
            loss=SoftmaxCrossEntropy(),
            optimizer=OptimizerSpec("sgd", 0.1),
        )
        with pytest.raises(ValueError, match="heartbeat_timeout"):
            DistExecutor(**kwargs, heartbeat_interval=1.0, heartbeat_timeout=0.5)
        with pytest.raises(ValueError, match="worker_grace"):
            DistExecutor(**kwargs, worker_grace=0.0)
        with pytest.raises(ValueError, match="chunk_retries"):
            DistExecutor(**kwargs, chunk_retries=-1)

    def test_close_is_idempotent(self, tiny_bow_dataset):
        _, dist = _executors(tiny_bow_dataset)
        dist.close()
        dist.close()
        assert dist.worker_processes == []

    def test_close_right_after_construction_is_prompt(self, tiny_bow_dataset):
        """Workers that connect after shutdown land on the listener they
        inherited across fork and never get a shutdown frame; ``close()``
        must terminate them rather than wait out the join timeout."""
        _, dist = _executors(tiny_bow_dataset)
        t0 = time.monotonic()
        dist.close()
        assert time.monotonic() - t0 < 1.5

    def test_submit_wakes_scheduler(self, tiny_bow_dataset, monkeypatch):
        """Dispatch and shutdown must not wait for the selector timeout.

        With a 5 s poll and heartbeats too slow to wake the loop, only the
        wake channel can get each dispatch's leases out promptly."""
        monkeypatch.setattr(Scheduler, "_POLL", 5.0)
        serial, dist = _executors(tiny_bow_dataset, heartbeat_interval=10.0, heartbeat_timeout=30.0)
        try:
            assert dist.wait_for_workers(2) == 2
            start = serial.model.get_flat_weights()
            t0 = time.monotonic()
            for size in (2, 3, 8):
                tasks = _cohort(size)
                _assert_results_equal(
                    serial.run_cohort(start, tasks), dist.run_cohort(start, tasks)
                )
            assert time.monotonic() - t0 < 2.5
        finally:
            t0 = time.monotonic()
            dist.close()
            closed_in = time.monotonic() - t0
            serial.close()
        assert closed_in < 2.5


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="fork workers")
def test_external_worker_via_cli(tiny_bow_dataset, tmp_path):
    """Explicit-port mode: the executor spawns nothing; a `repro worker`
    subprocess connects, serves the run, and exits 0 on shutdown."""
    # Grab a free port; binding the executor to it explicitly switches off
    # local spawning (external workers are expected).
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()

    serial, dist = _executors(tiny_bow_dataset, bind=f"127.0.0.1:{port}")
    worker = None
    try:
        assert dist.worker_processes == []  # external mode spawns none
        repo = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        worker = subprocess.Popen(
            [sys.executable, "-m", "repro", "worker", "--connect", f"127.0.0.1:{port}",
             "--id", "ext-0", "--quiet"],
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=repo,
        )
        assert dist.wait_for_workers(1, timeout=30.0) >= 1
        start = serial.model.get_flat_weights()
        tasks = _cohort(6)
        _assert_results_equal(serial.run_cohort(start, tasks), dist.run_cohort(start, tasks))
    finally:
        dist.close()
        serial.close()
        if worker is not None:
            try:
                assert worker.wait(timeout=30) == 0
            finally:
                worker.kill()


def test_init_payload_survives_pickle(tiny_bow_dataset):
    """Everything the init frame carries must pickle (workers may live on
    other machines — no shared memory, no file handles)."""
    _, dist = _executors(tiny_bow_dataset)
    try:
        payload = {
            "model": dist._local.model.clone(),
            "clients": {0: _clients(tiny_bow_dataset)[0].replica()},
            "loss": SoftmaxCrossEntropy(),
            "optimizer": OptimizerSpec("sgd", 0.1),
            "faults": FaultPlan(parse_faults("drop:0.5"), seed=1),
            "heartbeat_interval": 0.2,
        }
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        assert pickle.loads(blob)["heartbeat_interval"] == 0.2
    finally:
        dist.close()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
def test_executors_release_file_descriptors(tiny_bow_dataset):
    """Listener, wake channel, selector, connections and worker sentinels
    are all closed by ``close()``: the fd count returns to its baseline."""

    def open_fds():
        return len(os.listdir("/proc/self/fd"))

    baseline = open_fds()
    for _ in range(3):
        serial, dist = _executors(tiny_bow_dataset)
        start = serial.model.get_flat_weights()
        dist.run_cohort(start, _cohort(4))
        dist.close()
        serial.close()
    assert open_fds() == baseline


def test_wait_for_workers_times_out_cleanly(tiny_bow_dataset):
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    _, dist = _executors(tiny_bow_dataset, bind=f"127.0.0.1:{port}")
    try:
        t0 = time.monotonic()
        assert dist.wait_for_workers(1, timeout=0.3) == 0
        assert time.monotonic() - t0 < 5.0
    finally:
        dist.close()

"""Scheduler: global weights, chunk leases, and worker supervision.

One background thread runs a ``selectors`` event loop over the listening
socket, every worker connection, and a wake channel. All connection and
lease state is owned by that thread; the executor talks to it through two
narrow, thread-safe seams — :meth:`Scheduler.publish_weights` (version +
cached wire frame under a lock) and :meth:`Scheduler.submit` (a
:class:`_Job` dropped on a deque, resolved by setting ``job.done``).

Dispatch is event-driven. The wake channel is a non-blocking socketpair
whose read end sits in the selector: :meth:`Scheduler.submit` and
:meth:`Scheduler.stop` write one byte to it, so the loop drains it and
assigns the new job's leases (or shuts down) at once rather than at the
end of a selector timeout. A full wake buffer means a wake is already
pending, so that write is dropped. ``_POLL`` only paces the heartbeat and
lease-deadline checks; it adds no latency to a dispatch.

Supervision model (the PR-8 pool supervisor, lifted across the network):

- workers register and heartbeat; a quiet connection past
  ``heartbeat_timeout`` is declared dead and its lease requeued;
- an EOF (crashed or dropped worker) requeues instantly;
- results are crc32-verified when a fault plan is active; a mismatch
  requeues;
- lease deadlines (``chunk_timeout``) recover wedged-but-heartbeating
  workers — the connection stays open but earns no new leases until it
  proves liveness with a result or error frame;
- every requeue burns one unit of the chunk's ``1 + chunk_retries``
  budget; idle workers steal requeued leases off the shared queue;
- zero live workers for ``worker_grace`` seconds — or every worker wedged
  with nothing in flight — fails the remaining chunks, which the executor
  then degrades in-process (or surfaces as ``ExecutorFaultError``).

Chunk execution is deterministic, so a stale attempt's result is accepted
whenever the chunk is still unresolved: the bytes are identical to the
replacement attempt's, and taking them is pure recovery speed.
"""

from __future__ import annotations

import selectors
import socket
import threading
import time
from collections import deque

import numpy as np

from repro.exec.dist.leases import LeaseTable
from repro.exec.dist.wire import FrameBuffer, encode_frame
from repro.exec.faults import chunk_checksum

__all__ = ["Scheduler"]

#: Selector key data marking the wake channel (the listener's is ``None``).
_WAKE = object()


class _Conn:
    """Per-connection state, owned by the scheduler loop thread."""

    __slots__ = (
        "sock",
        "addr",
        "buf",
        "out",
        "worker_id",
        "pid",
        "registered",
        "last_seen",
        "weights_version",
        "inflight",  # (dispatch, chunk) currently leased here, else None
        "closed",
    )

    def __init__(self, sock, addr, now: float):
        self.sock = sock
        self.addr = addr
        self.buf = FrameBuffer()
        self.out = bytearray()
        self.worker_id: str | None = None
        self.pid: int | None = None
        self.registered = False
        self.last_seen = now
        self.weights_version = -1
        self.inflight: tuple[int, int] | None = None
        self.closed = False


class _Job:
    """One dispatch: chunks in, per-chunk results (or failures) out."""

    def __init__(
        self,
        dispatch: int,
        chunks: list,
        weights_version: int,
        *,
        retry_budget: int,
        timeout: float | None,
    ):
        self.dispatch = dispatch
        self.chunks = chunks
        self.weights_version = weights_version
        self.table = LeaseTable(len(chunks), retry_budget=retry_budget, timeout=timeout)
        self.results: list = [None] * len(chunks)
        self.done = threading.Event()


class Scheduler:
    """Socket scheduler for :class:`~repro.exec.dist.DistExecutor`.

    ``counters`` is the executor's ``fault_counters`` dict; only the loop
    thread writes it while a job is unresolved, and the executor reads it
    after ``job.done`` — no lock needed beyond the GIL.
    """

    _POLL = 0.02  # selector timeout: heartbeat/deadline check cadence only

    def __init__(
        self,
        *,
        bind: tuple[str, int],
        heartbeat_timeout: float,
        worker_grace: float,
        counters: dict,
        log=None,
    ):
        self.heartbeat_timeout = float(heartbeat_timeout)
        self.worker_grace = float(worker_grace)
        self.counters = counters
        self.log = log
        self.live_workers = 0  # refreshed every loop cycle; read cross-thread
        self._sel = selectors.DefaultSelector()
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(bind)
        self._listener.listen(64)
        self._listener.setblocking(False)
        self.address: tuple[str, int] = self._listener.getsockname()[:2]
        self._sel.register(self._listener, selectors.EVENT_READ, None)
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._sel.register(self._wake_r, selectors.EVENT_READ, _WAKE)
        self._conns: list[_Conn] = []
        self._seen_ids: set[str] = set()
        self._init_frame: bytes | None = None
        self._inbox: deque[_Job] = deque()
        self._job: _Job | None = None
        self._no_worker_since: float | None = None
        self._stall_since: float | None = None
        self._weights_lock = threading.Lock()
        self._weights_version = -1
        self._weights_array: np.ndarray | None = None
        self._weights_frame: bytes = b""
        self._stop = False
        self._thread: threading.Thread | None = None
        #: Pids of registered workers sent a shutdown frame; set on stop.
        self.notified_pids: set[int] = set()

    # ------------------------------------------------------------------ #
    # Executor-facing API (called from the executor's thread)
    # ------------------------------------------------------------------ #
    def start(self, init_payload: dict) -> None:
        """Encode the worker init payload once and start the loop thread."""
        self._init_frame = encode_frame(("init", init_payload))
        self._thread = threading.Thread(
            target=self._run, name="repro-dist-scheduler", daemon=True
        )
        self._thread.start()

    def publish_weights(self, weights: np.ndarray) -> int:
        """Install the round's global weights; returns their version.

        Identical weights reuse the previous version (and its cached wire
        frame), so an unchanged global between dispatches costs no
        re-broadcast — the same idea as the system's downlink cache.
        """
        with self._weights_lock:
            if self._weights_array is not None and np.array_equal(
                self._weights_array, weights
            ):
                return self._weights_version
            arr = np.ascontiguousarray(weights).copy()
            arr.flags.writeable = False
            self._weights_version += 1
            self._weights_array = arr
            self._weights_frame = encode_frame(("weights", self._weights_version, arr))
            return self._weights_version

    def submit(
        self,
        dispatch: int,
        chunks: list,
        weights_version: int,
        *,
        retry_budget: int,
        timeout: float | None,
    ) -> _Job:
        """Queue one dispatch; wait on the returned job's ``done`` event."""
        job = _Job(
            dispatch, chunks, weights_version, retry_budget=retry_budget, timeout=timeout
        )
        self._inbox.append(job)
        self._wake()
        return job

    def stop(self) -> None:
        """Shut down: broadcast shutdown frames, close sockets, join."""
        self._stop = True
        self._wake()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def _wake(self) -> None:
        """Interrupt the loop's ``select`` so it acts on new state now."""
        try:
            self._wake_w.send(b"\0")
        except OSError:
            # BlockingIOError: the buffer is full, so a wake is already
            # pending. Anything else: the loop has shut down and closed it.
            pass

    # ------------------------------------------------------------------ #
    # Event loop (everything below runs on the loop thread)
    # ------------------------------------------------------------------ #
    def _run(self) -> None:
        try:
            while not self._stop:
                for key, mask in self._sel.select(self._POLL):
                    if key.data is None:
                        self._accept()
                        continue
                    if key.data is _WAKE:
                        self._drain_wake()
                        continue
                    conn: _Conn = key.data
                    if conn.closed:
                        continue
                    if mask & selectors.EVENT_READ:
                        self._on_readable(conn)
                    if mask & selectors.EVENT_WRITE and not conn.closed:
                        self._flush(conn)
                self._housekeeping(time.monotonic())
        finally:
            self._shutdown_all()

    def _drain_wake(self) -> None:
        try:
            while self._wake_r.recv(4096):
                pass
        except (BlockingIOError, InterruptedError):
            pass

    def _accept(self) -> None:
        try:
            sock, addr = self._listener.accept()
        except OSError:
            return
        sock.setblocking(False)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn = _Conn(sock, addr, time.monotonic())
        self._conns.append(conn)
        self._sel.register(sock, selectors.EVENT_READ, conn)

    def _events_for(self, conn: _Conn) -> int:
        return selectors.EVENT_READ | (selectors.EVENT_WRITE if conn.out else 0)

    def _queue(self, conn: _Conn, data: bytes) -> None:
        conn.out.extend(data)
        self._flush(conn)

    def _flush(self, conn: _Conn) -> None:
        try:
            while conn.out:
                sent = conn.sock.send(conn.out)
                del conn.out[:sent]
        except (BlockingIOError, InterruptedError):
            pass
        except OSError:
            self._dead(conn, "send failed")
            return
        try:
            self._sel.modify(conn.sock, self._events_for(conn), conn)
        except (KeyError, ValueError, OSError):  # pragma: no cover - closing race
            pass

    def _on_readable(self, conn: _Conn) -> None:
        while True:
            try:
                data = conn.sock.recv(1 << 16)
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                self._dead(conn, "connection reset")
                return
            if not data:
                self._dead(conn, "connection closed")
                return
            conn.buf.feed(data)
        try:
            msgs = conn.buf.drain()
        except Exception as exc:  # FrameError, or anything unpickling can raise
            self._dead(conn, f"bad frame: {exc}")
            return
        for msg in msgs:
            self._handle(conn, msg)
            if conn.closed:
                return

    # ------------------------------------------------------------------ #
    # Message handling
    # ------------------------------------------------------------------ #
    def _handle(self, conn: _Conn, msg) -> None:
        now = time.monotonic()
        conn.last_seen = now
        kind = msg[0]
        if kind == "register":
            self._on_register(conn, msg)
        elif kind == "heartbeat":
            pass  # last_seen already refreshed
        elif kind == "result":
            self._on_result(conn, msg)
        elif kind == "error":
            self._on_error(conn, msg)
        # Unknown frames are ignored (forward compatibility).

    def _on_register(self, conn: _Conn, msg) -> None:
        _, worker_id, pid, has_init, weights_version = msg
        # A reconnect may race its old connection's EOF: the fresh socket
        # supersedes any stale one wearing the same worker_id.
        for other in list(self._conns):
            if other is not conn and other.worker_id == worker_id:
                self._dead(other, "superseded by reconnect")
        conn.worker_id = str(worker_id)
        conn.pid = int(pid)
        conn.registered = True
        conn.weights_version = int(weights_version) if has_init else -1
        if conn.worker_id in self._seen_ids:
            self.counters["reconnects"] += 1
        self._seen_ids.add(conn.worker_id)
        if not has_init and self._init_frame is not None:
            self._queue(conn, self._init_frame)
        if self.log:
            self.log(f"scheduler: worker {conn.worker_id} registered (pid {conn.pid})")

    def _on_result(self, conn: _Conn, msg) -> None:
        _, dispatch, chunk, attempt, results, checksum = msg
        if conn.inflight == (dispatch, chunk):
            conn.inflight = None
        job = self._job
        if job is None or dispatch != job.dispatch:
            return  # stale cross-dispatch result; already resolved elsewhere
        if not job.table.accepts(chunk):
            return
        lease = job.table.leases[chunk]
        if checksum is not None and chunk_checksum(results) != checksum:
            self.counters["corrupt_detected"] += 1
            # Only the active attempt's corruption triggers a requeue; a
            # stale corrupt frame must not clobber a live reassignment.
            if lease.worker == conn.worker_id:
                self._requeue(job, chunk, "result checksum mismatch")
            return
        job.results[chunk] = results
        job.table.complete(chunk)

    def _on_error(self, conn: _Conn, msg) -> None:
        _, dispatch, chunk, attempt, reason = msg
        if conn.inflight == (dispatch, chunk):
            conn.inflight = None
        job = self._job
        if job is None or dispatch != job.dispatch or not job.table.accepts(chunk):
            return
        if job.table.leases[chunk].worker != conn.worker_id:
            return  # stale error from a superseded attempt
        self.counters["worker_errors"] += 1
        self._requeue(job, chunk, f"worker error: {reason}")

    # ------------------------------------------------------------------ #
    # Recovery transitions
    # ------------------------------------------------------------------ #
    def _requeue(self, job: _Job, chunk: int, reason: str) -> bool:
        retried = job.table.requeue(chunk, reason)
        if retried:
            self.counters["retries"] += 1
        return retried

    def _dead(self, conn: _Conn, why: str) -> None:
        if conn.closed:
            return
        conn.closed = True
        try:
            self._sel.unregister(conn.sock)
        except (KeyError, ValueError):  # pragma: no cover - already gone
            pass
        try:
            conn.sock.close()
        except OSError:  # pragma: no cover - best effort
            pass
        if conn in self._conns:
            self._conns.remove(conn)
        if conn.registered:
            if why == "missed heartbeats":
                self.counters["heartbeat_misses"] += 1
            elif why != "superseded by reconnect":
                self.counters["worker_deaths"] += 1
        if self.log:
            self.log(f"scheduler: dropped {conn.worker_id or conn.addr} ({why})")
        job = self._job
        if job is None or conn.inflight is None:
            return
        dispatch, chunk = conn.inflight
        if dispatch != job.dispatch or not job.table.accepts(chunk):
            return
        # Requeue only if this connection still holds the active lease — an
        # expired-and-reassigned chunk belongs to someone else now.
        if job.table.leases[chunk].worker == conn.worker_id:
            self._requeue(job, chunk, why)

    # ------------------------------------------------------------------ #
    # Housekeeping: heartbeats, deadlines, assignment, completion
    # ------------------------------------------------------------------ #
    def _housekeeping(self, now: float) -> None:
        for conn in list(self._conns):
            if conn.registered and now - conn.last_seen > self.heartbeat_timeout:
                self._dead(conn, "missed heartbeats")
        live = [c for c in self._conns if c.registered and not c.closed]
        self.live_workers = len(live)

        if self._job is None and self._inbox:
            self._job = self._inbox.popleft()
            self._no_worker_since = None
            self._stall_since = None
        job = self._job
        if job is None:
            return

        for lease in job.table.expired(now):
            # The holder keeps heartbeating but is presumed wedged; it earns
            # no new leases (inflight stays set) until it proves liveness.
            self.counters["timeouts"] += 1
            self._requeue(job, lease.chunk, "lease deadline expired")

        if not live:
            if self._no_worker_since is None:
                self._no_worker_since = now
            elif now - self._no_worker_since >= self.worker_grace:
                job.table.fail_pending("no live workers")
        else:
            self._no_worker_since = None
            self._assign(job, now)
            idle = [c for c in live if c.inflight is None and not c.closed]
            in_flight = [
                lease
                for lease in job.table.outstanding()
                if lease.deadline is None or now <= lease.deadline
            ]
            if job.table.has_pending() and not idle and not in_flight:
                # Every worker is wedged on an expired lease and nothing can
                # land; after a stall window, hand the chunks back to the
                # executor rather than deadlock.
                window = job.table.timeout if job.table.timeout is not None else self.worker_grace
                if self._stall_since is None:
                    self._stall_since = now
                elif now - self._stall_since >= window:
                    job.table.fail_pending("no responsive workers")
            else:
                self._stall_since = None

        if job.table.finished():
            self._job = None
            self._no_worker_since = None
            self._stall_since = None
            job.done.set()

    def _assign(self, job: _Job, now: float) -> None:
        for conn in list(self._conns):
            if not job.table.has_pending():
                return
            if conn.closed or not conn.registered or conn.inflight is not None:
                continue
            lease = job.table.assign(conn.worker_id, now=now)
            if lease is None:
                return
            if job.table.stolen(lease):
                self.counters["steals"] += 1
            if conn.weights_version != job.weights_version:
                with self._weights_lock:
                    frame = self._weights_frame
                self._queue(conn, frame)
                if conn.closed:
                    continue  # send failed; _dead already requeued the lease
                conn.weights_version = job.weights_version
            conn.inflight = (job.dispatch, lease.chunk)
            self._queue(
                conn,
                encode_frame(
                    (
                        "lease",
                        job.dispatch,
                        lease.chunk,
                        lease.attempts - 1,
                        job.weights_version,
                        job.chunks[lease.chunk],
                    )
                ),
            )

    def _shutdown_all(self) -> None:
        frame = encode_frame(("shutdown",))
        for conn in list(self._conns):
            try:
                conn.sock.setblocking(True)
                conn.sock.settimeout(0.5)
                conn.sock.sendall(bytes(conn.out) + frame)
                if conn.registered:
                    self.notified_pids.add(conn.pid)
            except OSError:
                pass
            try:
                self._sel.unregister(conn.sock)
            except (KeyError, ValueError):
                pass
            try:
                conn.sock.close()
            except OSError:
                pass
        self._conns.clear()
        self.live_workers = 0
        try:
            self._sel.unregister(self._listener)
        except (KeyError, ValueError):
            pass
        self._listener.close()
        self._wake_r.close()
        self._wake_w.close()
        self._sel.close()
        # Unblock any dispatch still waiting: surface its chunks as failed.
        job = self._job
        self._job = None
        if job is not None and not job.done.is_set():
            for lease in job.table.leases:
                if not lease.done and lease.failed_reason is None:
                    lease.failed_reason = "scheduler stopped"
            job.done.set()
        while self._inbox:
            pending = self._inbox.popleft()
            for lease in pending.table.leases:
                lease.failed_reason = "scheduler stopped"
            pending.done.set()

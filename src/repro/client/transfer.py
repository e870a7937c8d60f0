"""Bounded-concurrency chunk transfer manager — the parallel data plane.

The paper's sync-time results (Fig 7e/f) are dominated by per-chunk
round-trips to the Storage back-end.  The serial client paid one full
latency floor per chunk; chunk transfers are independent, so a 10 MB ADD
(~20 chunks) can overlap nearly all of them.  :class:`ChunkTransferManager`
is the client-side data plane that makes this happen:

* a **shared worker pool** (one manager can serve many clients/devices)
  with a configurable ``pool_size`` — size 1 reproduces the serial client;
* **per-transfer retry** with exponential backoff on transient
  :class:`~repro.errors.StorageError` (a missing object is permanent and
  is never retried);
* **in-flight deduplication**: two concurrent transfers of the same
  (container, fingerprint) coalesce onto one storage operation — two files
  sharing a chunk upload it once, a file repeating a chunk downloads it
  once;
* **ordered reassembly**: :meth:`fetch_chunks` returns results in input
  order regardless of completion order, so file reconstruction and the
  integrity check are unchanged;
* **per-transfer metrics** (:class:`TransferRecord`) handed only to the
  caller's ``record`` callback — the client's
  :class:`~repro.client.sync_client.ClientTrafficStats` — so each chunk
  transfer is counted once.

Parallelism changes *when* bytes move, never *what* moves: traffic
counters under the manager are byte-identical to the serial client's
(asserted by ``benchmarks/test_ablation_parallel_transfer.py``).
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ObjectNotFound, StorageError
from repro.telemetry.trace import TRACER, TraceContext

#: Default worker-pool width; 1 degenerates to the serial data plane.
DEFAULT_POOL_SIZE = 4
#: Total attempts per transfer (1 initial + retries on transient errors).
DEFAULT_MAX_ATTEMPTS = 3
#: First backoff sleep; doubles per retry up to :data:`DEFAULT_BACKOFF_CAP`.
DEFAULT_BACKOFF = 0.02
DEFAULT_BACKOFF_CAP = 1.0

UP = "up"
DOWN = "down"


@dataclass(frozen=True)
class TransferRecord:
    """Outcome of one chunk transfer through the manager."""

    fingerprint: str
    direction: str  # UP or DOWN
    nbytes: int
    elapsed: float
    attempts: int = 1
    #: True when this request coalesced onto an identical in-flight
    #: transfer (or a cache hit for downloads) and moved no bytes itself.
    coalesced: bool = False


class ChunkTransferManager:
    """Shared bounded worker pool for chunk uploads and downloads."""

    def __init__(
        self,
        pool_size: int = DEFAULT_POOL_SIZE,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if pool_size < 1:
            raise ValueError("pool_size must be >= 1")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.pool_size = pool_size
        self.max_attempts = max_attempts
        self._sleep = sleep
        self._executor = ThreadPoolExecutor(
            max_workers=pool_size, thread_name_prefix="chunk-transfer"
        )
        self._lock = threading.Lock()
        # (direction, store id, container, fingerprint) -> in-flight future.
        self._in_flight: Dict[Tuple[str, int, str, str], Future] = {}
        self._closed = False

    # -- lifecycle ----------------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            self._closed = True
        self._executor.shutdown(wait=True)

    def __enter__(self) -> "ChunkTransferManager":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- public API ---------------------------------------------------------------

    def upload_chunks(
        self,
        store,
        container: str,
        items: Sequence[Tuple[str, bytes]],
        on_uploaded: Optional[Callable[[str, bytes], None]] = None,
        record: Optional[Callable[[TransferRecord], None]] = None,
    ) -> List[TransferRecord]:
        """PUT every (fingerprint, payload) in parallel; block until done.

        A fingerprint here is the chunk's store name, the hex of its digest.

        ``on_uploaded(fingerprint, payload)`` fires once per chunk that was
        actually stored (coalesced duplicates skip it).  Raises the first
        failure after all transfers settle.
        """
        # Captured on the caller's thread so pool workers join its trace.
        parent = TRACER.current() if TRACER.enabled else None
        jobs = [
            self._submit(
                (UP, id(store), container, fingerprint),
                lambda fp=fingerprint, data=payload: self._upload_one(
                    store, container, fp, data, on_uploaded, parent
                ),
            )
            for fingerprint, payload in items
        ]
        outcomes = self._settle(jobs)
        return self._collect(outcomes, record)

    def fetch_chunks(
        self,
        store,
        container: str,
        fingerprints: Sequence[str],
        lookup: Optional[Callable[[str], Optional[bytes]]] = None,
        decode: Optional[Callable[[str, bytes], bytes]] = None,
        on_fetched: Optional[Callable[[str, bytes], None]] = None,
        record: Optional[Callable[[TransferRecord], None]] = None,
    ) -> List[bytes]:
        """GET (or serve from ``lookup``) every fingerprint, in input order.

        ``decode(fingerprint, payload)`` runs on the worker (decompression
        plus the integrity check) and its result is what the caller gets;
        ``on_fetched(fingerprint, payload)`` fires only for chunks actually
        downloaded, *after* decode accepted them — exactly the serial
        client's verify-then-cache order.
        """
        parent = TRACER.current() if TRACER.enabled else None
        jobs = [
            self._submit(
                (DOWN, id(store), container, fingerprint),
                lambda fp=fingerprint: self._fetch_one(
                    store, container, fp, lookup, decode, on_fetched, parent
                ),
            )
            for fingerprint in fingerprints
        ]
        outcomes = self._settle(jobs)
        self._collect(outcomes, record)
        return [plain for _rec, plain in outcomes]

    # -- workers ------------------------------------------------------------------

    def _upload_one(
        self,
        store,
        container: str,
        fingerprint: str,
        payload: bytes,
        on_uploaded: Optional[Callable[[str, bytes], None]],
        parent: Optional[TraceContext] = None,
    ) -> Tuple[TransferRecord, None]:
        started = time.perf_counter()
        attrs = None  # nothing is built for a tracer that is off
        if TRACER.enabled:
            attrs = {"fingerprint": fingerprint, "nbytes": len(payload)}
        with TRACER.span(
            "storage.put_chunk", layer="storage", parent=parent, attrs=attrs
        ) as span:
            attempts = self._with_retry(
                lambda: store.put_object(container, fingerprint, payload)
            )
            if span is not None:
                span.set_attr("attempts", attempts)
        if on_uploaded is not None:
            on_uploaded(fingerprint, payload)
        rec = TransferRecord(
            fingerprint=fingerprint,
            direction=UP,
            nbytes=len(payload),
            elapsed=time.perf_counter() - started,
            attempts=attempts,
        )
        return rec, None

    def _fetch_one(
        self,
        store,
        container: str,
        fingerprint: str,
        lookup: Optional[Callable[[str], Optional[bytes]]],
        decode: Optional[Callable[[str, bytes], bytes]],
        on_fetched: Optional[Callable[[str, bytes], None]],
        parent: Optional[TraceContext] = None,
    ) -> Tuple[TransferRecord, bytes]:
        started = time.perf_counter()
        payload = lookup(fingerprint) if lookup is not None else None
        cached = payload is not None
        attempts = 1
        if payload is None:
            box: List[bytes] = []

            def fetch() -> None:
                box.append(store.get_object(container, fingerprint))

            # Only genuine downloads get a storage span; cache hits never
            # touch the back-end.
            attrs = {"fingerprint": fingerprint} if TRACER.enabled else None
            with TRACER.span(
                "storage.get_chunk", layer="storage", parent=parent, attrs=attrs
            ) as span:
                attempts = self._with_retry(fetch)
                payload = box[-1]
                if span is not None:
                    span.set_attr("nbytes", len(payload))
                    span.set_attr("attempts", attempts)
        plain = decode(fingerprint, payload) if decode is not None else payload
        if not cached and on_fetched is not None:
            on_fetched(fingerprint, payload)
        rec = TransferRecord(
            fingerprint=fingerprint,
            direction=DOWN,
            nbytes=len(payload),
            elapsed=time.perf_counter() - started,
            attempts=attempts,
            coalesced=cached,
        )
        return rec, plain

    def _with_retry(self, op: Callable[[], None]) -> int:
        """Run *op*, retrying transient StorageErrors; returns attempt count."""
        for attempt in range(1, self.max_attempts + 1):
            try:
                op()
                return attempt
            except ObjectNotFound:
                raise  # permanent: the object does not exist anywhere
            except StorageError:
                if attempt == self.max_attempts:
                    raise
                delay = DEFAULT_BACKOFF * 2 ** (attempt - 1)
                self._sleep(min(delay, DEFAULT_BACKOFF_CAP))
        raise AssertionError("unreachable")

    # -- pool + coalescing machinery ----------------------------------------------

    def _submit(
        self, key: Tuple[str, int, str, str], fn: Callable[[], Tuple]
    ) -> Tuple[Future, bool]:
        """Submit *fn* under *key*, coalescing onto an identical in-flight job.

        Returns ``(future, owner)`` — ``owner`` is False for coalesced
        followers, whose TransferRecord must not charge bytes again.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("transfer manager is closed")
            existing = self._in_flight.get(key)
            if existing is not None:
                return existing, False
            future: Future = Future()
            self._in_flight[key] = future
            self._executor.submit(self._run_job, key, fn, future)
            return future, True

    def _run_job(self, key, fn: Callable[[], Tuple], future: Future) -> None:
        try:
            result = fn()
        except BaseException as exc:  # noqa: BLE001 - relayed to every waiter
            with self._lock:
                self._in_flight.pop(key, None)
            future.set_exception(exc)
        else:
            # Unregister only after side effects (caching) ran, so a chunk
            # requested again immediately hits the caller's cache lookup.
            with self._lock:
                self._in_flight.pop(key, None)
            future.set_result(result)

    def _settle(self, jobs: Sequence[Tuple[Future, bool]]) -> List[Tuple]:
        """Wait for every job; re-raise the first failure after all settle."""
        outcomes: List[Tuple] = []
        first_error: Optional[BaseException] = None
        for future, owner in jobs:
            try:
                rec, value = future.result()
            except BaseException as exc:  # noqa: BLE001 - deferred re-raise
                if first_error is None:
                    first_error = exc
                continue
            if not owner:
                rec = TransferRecord(
                    fingerprint=rec.fingerprint,
                    direction=rec.direction,
                    nbytes=rec.nbytes,
                    elapsed=rec.elapsed,
                    attempts=rec.attempts,
                    coalesced=True,
                )
            outcomes.append((rec, value))
        if first_error is not None:
            raise first_error
        return outcomes

    def _collect(
        self,
        outcomes: Sequence[Tuple],
        record: Optional[Callable[[TransferRecord], None]],
    ) -> List[TransferRecord]:
        records = [rec for rec, _value in outcomes]
        if record is not None:
            for rec in records:
                record(rec)
        return records

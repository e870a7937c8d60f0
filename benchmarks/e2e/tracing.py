"""Delegating wrappers that record a span around each call into a layer.

The traced run builds the same stack as the untraced one, but hands each
component a wrapper from here in place of the object itself, or replaces a
public method on an instance the benchmark constructed.  No module under
``src/`` is changed or monkey-patched at class level; the wire bytes are
unchanged (the only thing added to a message is a header entry, which is
not part of its body).
"""

from __future__ import annotations

from typing import Any, Optional

from repro.objectmq.annotations import interface_specs

from spans import QUEUE_WAIT, Recorder

#: Message-header key carrying ``(publish span id, [publish return time])``.
STAMP = "bench.e2e.stamp"


def _call_request_id(args, kwargs) -> Optional[str]:
    """The operation a call belongs to: its ``request_id``, or a notification's."""
    request_id = kwargs.get("request_id")
    if request_id:
        return request_id
    for arg in args:
        request_id = getattr(arg, "request_id", None)
        if request_id:
            return request_id
    return None


def request_id_of(envelope: Any) -> Optional[str]:
    """The operation an RPC envelope belongs to, when it names one."""
    if not isinstance(envelope, dict):
        return None
    return _call_request_id(envelope.get("args") or (), envelope.get("kwargs") or {})


class _Delegate:
    """Forward everything the wrapper does not time to the wrapped object."""

    def __init__(self, inner, rec: Recorder):
        self._inner = inner
        self._rec = rec

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TracedCodec(_Delegate):
    """Serializer wrapper: ``serialization.encode`` / ``.decode`` spans."""

    def encode(self, obj):
        detail = obj.get("method", "reply") if isinstance(obj, dict) else ""
        with self._rec.span(
            "serialization.encode", detail, op=request_id_of(obj)
        ) as span:
            body = self._inner.encode(obj)
            span.n = len(body)
            return body

    def decode(self, data):
        with self._rec.span("serialization.decode", n=len(data)) as span:
            obj = self._inner.decode(data)
            if isinstance(obj, dict):
                span.detail = obj.get("method", "reply")
                span.op = request_id_of(obj)
            return obj


class TracedMom(_Delegate):
    """MOM wrapper: publish, delivery callbacks, acks and queue waits.

    *owner* names the device whose ObjectMQ broker this wrapper serves, so
    that the delivery callbacks of a ``StackSyncClient`` — which run its
    private notification handler — can be told from the server's.
    """

    def __init__(self, inner, rec: Recorder, owner: str = ""):
        super().__init__(inner, rec)
        self._owner = owner

    def _stamp(self, message, span) -> list:
        returned = [None]
        message.headers[STAMP] = (span.id, returned)
        return returned

    def publish(self, exchange_name, routing_key, message):
        # The wait a delivery records starts when publish() has returned,
        # stamped after the span closes so the two never overlap.
        returned = None
        try:
            with self._rec.span("mom.publish", n=1) as span:
                returned = self._stamp(message, span)
                return self._inner.publish(exchange_name, routing_key, message)
        finally:
            if returned is not None:
                returned[0] = self._rec.clock()

    def publish_many(self, items):
        batch = list(items)
        stamps = []
        try:
            with self._rec.span("mom.publish", "many", n=len(batch)) as span:
                stamps = [self._stamp(message, span) for _ex, _key, message in batch]
                return self._inner.publish_many(batch)
        finally:
            now = self._rec.clock()
            for returned in stamps:
                returned[0] = now

    def consume(self, queue_name, callback, consumer_tag, prefetch=1,
                auto_ack=False, batch_callback=None):
        applies = bool(self._owner) and queue_name.startswith("workspace.")
        name = "client.apply" if applies else "objectmq.skeleton"

        def deliver(deliveries, handler):
            entry = self._rec.clock()
            with self._rec.span(name, self._owner, n=len(deliveries)):
                for delivery in deliveries:
                    stamp = delivery.message.headers.get(STAMP)
                    if stamp is not None:
                        publish_id, returned = stamp
                        # Delivered before publish() returned: no wait.
                        sent = returned[0] if returned[0] is not None else entry
                        self._rec.add(
                            QUEUE_WAIT, min(sent, entry), entry, parent=publish_id
                        )
                handler(deliveries)

        def on_delivery(delivery):
            deliver((delivery,), lambda batch: callback(batch[0]))

        def on_batch(deliveries):
            deliver(deliveries, batch_callback)

        return self._inner.consume(
            queue_name, on_delivery, consumer_tag, prefetch=prefetch,
            auto_ack=auto_ack,
            batch_callback=on_batch if batch_callback is not None else None,
        )

    def ack(self, delivery):
        with self._rec.span("mom.ack", n=1):
            return self._inner.ack(delivery)

    def ack_many(self, deliveries):
        with self._rec.span("mom.ack", "many", n=len(deliveries)):
            return self._inner.ack_many(deliveries)


class TracedMetadata(_Delegate):
    """Metadata-engine wrapper for the calls the SyncService makes."""

    def workspace_exists(self, workspace_id):
        with self._rec.span("metadata.exists"):
            return self._inner.workspace_exists(workspace_id)

    def store_versions_bulk(self, proposals):
        with self._rec.span("metadata.store", n=len(proposals)):
            return self._inner.store_versions_bulk(proposals)

    def get_workspace_state(self, workspace_id):
        with self._rec.span("metadata.state") as span:
            state = self._inner.get_workspace_state(workspace_id)
            span.n = len(state)
            return state

    def workspaces_for(self, user_id):
        with self._rec.span("metadata.workspaces"):
            return self._inner.workspaces_for(user_id)


class TracedStore(_Delegate):
    """Object-store wrapper; pool threads find their parent by fingerprint."""

    def put_object(self, container, name, data):
        with self._rec.span(
            "storage.put", n=len(data), parent=self._rec.links.get(name)
        ):
            return self._inner.put_object(container, name, data)

    def get_object(self, container, name):
        with self._rec.span("storage.get", parent=self._rec.links.get(name)) as span:
            data = self._inner.get_object(container, name)
            span.n = len(data)
            return data


class TracedCompressor(_Delegate):
    def compress(self, data):
        with self._rec.span("client.compress", n=len(data)):
            return self._inner.compress(data)

    def decompress(self, data):
        with self._rec.span("client.decompress") as span:
            plain = self._inner.decompress(data)
            span.n = len(plain)
            return plain


class TracedChunker(_Delegate):
    def chunk(self, data):
        with self._rec.span("client.chunk", n=len(data)):
            return self._inner.chunk(data)


class TracedTransfer(_Delegate):
    """Transfer-pool wrapper: the caller's wait, linked to its chunks."""

    def upload_chunks(self, store, container, items, on_uploaded=None, record=None):
        with self._rec.span(
            "client.upload", n=sum(len(payload) for _fp, payload in items)
        ) as span:
            for fingerprint, _payload in items:
                self._rec.links[fingerprint] = span.id
            return self._inner.upload_chunks(
                store, container, items, on_uploaded=on_uploaded, record=record
            )

    def fetch_chunks(self, store, container, fingerprints, lookup=None,
                     decode=None, on_fetched=None, record=None):
        with self._rec.span("client.fetch", n=len(fingerprints)) as span:
            for fingerprint in fingerprints:
                self._rec.links[fingerprint] = span.id
            traced_decode = decode
            if decode is not None:
                def traced_decode(fingerprint, payload):
                    # Runs on a pool thread: name the parent explicitly.
                    with self._rec.span("client.decode", parent=span.id):
                        return decode(fingerprint, payload)
            return self._inner.fetch_chunks(
                store, container, fingerprints, lookup=lookup,
                decode=traced_decode, on_fetched=on_fetched, record=record,
            )


def trace_proxy(proxy, interface, rec: Recorder):
    """Time every remote method of *proxy* as an ``objectmq.proxy`` span."""
    for method in interface_specs(interface):
        setattr(
            proxy, method,
            rec.wrap(getattr(proxy, method), "objectmq.proxy", method, _call_request_id),
        )
    return proxy


def trace_broker(broker, rec: Recorder):
    """Trace an ObjectMQ broker the benchmark built: its codec and lookups."""
    broker.codec = TracedCodec(broker.codec, rec)
    lookup = broker.lookup

    def traced_lookup(oid, interface):
        return trace_proxy(lookup(oid, interface), interface, rec)

    broker.lookup = traced_lookup
    return broker


def trace_service(service, rec: Recorder):
    """Time the bound SyncService methods the workloads reach."""
    for method in ("commit_request", "get_changes", "get_workspaces"):
        setattr(
            service, method,
            rec.wrap(getattr(service, method), f"sync.{method}", op_of=_call_request_id),
        )
    return service


def trace_client(client, rec: Recorder):
    """Trace a constructed ``StackSyncClient`` through its public attributes.

    The MOM, store, chunker, compressor and transfer pool were already
    injected as wrappers; what remains is the client's own broker, its
    SyncService proxy, and the indexer and commit steps of ``put_file``.
    """
    from repro.sync.interface import SyncServiceApi

    client.broker.codec = TracedCodec(client.broker.codec, rec)
    trace_proxy(client.sync_service, SyncServiceApi, rec)
    indexer = client.indexer
    indexer.index_change = rec.wrap(indexer.index_change, "client.index")
    indexer.index_delete = rec.wrap(indexer.index_delete, "client.index", "delete")
    client.flush = rec.wrap(client.flush, "client.commit")
    return client

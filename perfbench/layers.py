"""Which public functions each layer's spans wrap, and how the reduced
spans become the per-layer metrics declared in ``BENCHMARK.json``.

Three installers, one per process role: the load generator's process
(live coordinator, routing and connection layers, client wire, replica
layer, ring, sliding window), the simulator (the same ring and window
plus the virtual-time stack), and a server child (admission, store,
server wire, B+-tree).
"""

from __future__ import annotations

from spans import Tracer


def _count_on(name: str, measure):
    def on_result(tracer: Tracer, args, result) -> None:
        tracer.count(name, measure(args, result))
    return on_result


def _window(tracer: Tracer) -> None:
    from repro.core.sliding_window import SlidingWindowEvictor

    def on_slice(tr: Tracer, args, batch) -> None:
        tr.count("window.evicted", len(batch.evicted_keys))
        tr.count("window.candidates", batch.candidates)

    tracer.patch(SlidingWindowEvictor, "record", "window.record")
    tracer.patch(SlidingWindowEvictor, "end_slice", "window.end_slice",
                 on_result=on_slice)


def _ring(tracer: Tracer) -> None:
    from repro.core.ring import ConsistentHashRing

    tracer.patch(ConsistentHashRing, "bucket_for_hkey", "ring.lookup")


def _btree(tracer: Tracer) -> None:
    from repro.btree.bplustree import BPlusTree

    tracer.patch(BPlusTree, "search", "btree.search")
    tracer.patch(BPlusTree, "insert", "btree.insert")
    # ``pop`` delegates to ``delete``: wrapping the primitive covers both.
    tracer.patch(BPlusTree, "delete", "btree.pop")


def install_client(tracer: Tracer) -> None:
    """Spans for the load generator's process of a live workload."""
    from repro.live import client, coordinator, protocol, replica

    co = coordinator.LiveCoordinator
    tracer.patch(co, "query", "coordinator.query")
    tracer.patch(co, "_grow_for", "coordinator.grow")
    tracer.patch(co, "end_slice", "coordinator.end_slice")

    cl = client.LiveClusterClient
    for op in ("get", "put", "delete", "get_many", "put_many"):
        tracer.patch(cl, op, f"cluster.{op}")
    tracer.patch(cl, "add_server", "cluster.add_server",
                 on_result=_count_on("cluster.add_server.records",
                                     lambda args, moved: moved))

    def adapt_fan_out(original):
        # Fan-out branches run on pool threads: bind them to the
        # fan-out span so their time is its children's, not its own.
        def fan_out(self, branches):
            ctx = tracer.context()
            return original(self, [tracer.bind(b, ctx) for b in branches])
        return fan_out

    tracer.patch(cl, "_fan_out", "cluster.fanout", adapt=adapt_fan_out)

    conn = client.LiveCacheClient
    for op in ("get", "put", "delete", "multi_get", "multi_put",
               "extract_prepare", "extract_commit"):
        tracer.patch(conn, op, f"conn.{op}")
    tracer.patch(client, "send_frame", "wire.client.send",
                 on_result=_count_on("wire.client.frames",
                                     lambda args, _: 1))
    tracer.patch(client, "send_frames", "wire.client.send",
                 on_result=_count_on("wire.client.frames",
                                     lambda args, _: len(args[1])))
    tracer.patch(protocol.FrameReader, "recv_frame", "wire.client.recv",
                 on_result=_count_on("wire.client.frames",
                                     lambda args, _: 1))

    rm = replica.ReplicaManager
    tracer.patch(rm, "replicate", "replica.replicate")
    tracer.patch(rm, "forget", "replica.forget")
    tracer.patch(rm, "rebuild_touching", "replica.rebuild",
                 on_result=_count_on("replica.rebuild.records",
                                     lambda args, placed: placed))
    _ring(tracer)
    _window(tracer)


def install_sim(tracer: Tracer) -> None:
    """Spans for the virtual-time simulator."""
    from repro.core import coordinator, elastic, gba, metrics
    from repro.experiments import harness
    from repro.services import base

    tracer.patch(coordinator.Coordinator, "query", "sim.coordinator.query")
    ec = elastic.ElasticCooperativeCache
    for op in ("get", "put", "record_query", "end_time_slice"):
        tracer.patch(ec, op, f"elastic.{op}")
    tracer.patch(gba.GreedyBucketAllocator, "insert", "gba.insert")
    tracer.patch(metrics.MetricsRecorder, "record_query",
                 "metrics.record_query")
    tracer.patch(metrics.MetricsRecorder, "end_step", "metrics.end_step")
    tracer.patch(base.Service, "execute", "service.execute")
    tracer.patch(harness, "make_trace", "workload.trace")
    _ring(tracer)
    _window(tracer)
    _btree(tracer)


class _SockProxy:
    """A socket whose ``recv`` is its own span, so a server ``recv_frame``
    span's self time excludes waiting for the peer's next request."""

    __slots__ = ("_sock", "recv")

    def __init__(self, sock, recv) -> None:
        self._sock = sock
        self.recv = recv


def install_server(tracer: Tracer) -> None:
    """Spans inside a server child process."""
    from repro.live import protocol, server

    tracer.patch(server.AdmissionGate, "try_admit", "server.admit",
                 on_result=_count_on("server.admit.shed",
                                     lambda args, v: v == "overloaded"))
    for op in ("get", "put", "delete", "multi_get", "multi_put"):
        tracer.patch(server._Store, op, f"server.store.{op}")
    tracer.patch(server, "send_frame", "wire.server.send")
    tracer.patch(server, "send_frames", "wire.server.send")
    tracer.patch(protocol.FrameReader, "recv_frame", "wire.server.recv")

    reader_cls = server.FrameReader

    def reader_factory(sock):
        return reader_cls(_SockProxy(
            sock, tracer.traced(sock.recv, "server.sock.recv")))

    tracer.replace(server, "FrameReader", reader_factory)
    _btree(tracer)


# ---------------------------------------------------------------- metrics
#
# name -> (span or counter, statistic, unit).  Statistics:
# ``self_us`` mean self time, ``us``/``ms``/``s`` mean span duration,
# ``calls`` span count, ``counter`` a tracer count.  Metrics marked
# ``None`` are filled by the workload (derived from run state).

PER_LAYER: dict[str, tuple] = {
    "coordinator.query.self_us": ("coordinator.query", "self_us", "us"),
    "coordinator.compute.calls": ("coordinator.compute", "calls", "count"),
    "coordinator.grow.count": ("coordinator.grow", "calls", "count"),
    "coordinator.grow.ms": ("coordinator.grow", "ms", "ms"),
    "coordinator.end_slice.ms": ("coordinator.end_slice", "ms", "ms"),
    "cluster.get.self_us": ("cluster.get", "self_us", "us"),
    "cluster.put.self_us": ("cluster.put", "self_us", "us"),
    "cluster.delete.self_us": ("cluster.delete", "self_us", "us"),
    "cluster.get_many.self_us": ("cluster.get_many", "self_us", "us"),
    "cluster.put_many.self_us": ("cluster.put_many", "self_us", "us"),
    "cluster.fanout.wait_us": ("cluster.fanout", "self_us", "us"),
    "cluster.add_server.ms": ("cluster.add_server", "ms", "ms"),
    "cluster.add_server.records": ("cluster.add_server.records", "counter",
                                   "count"),
    "conn.get.us": ("conn.get", "us", "us"),
    "conn.put.us": ("conn.put", "us", "us"),
    "conn.delete.us": ("conn.delete", "us", "us"),
    "conn.multi_get.us": ("conn.multi_get", "us", "us"),
    "conn.multi_put.us": ("conn.multi_put", "us", "us"),
    "conn.extract_prepare.us": ("conn.extract_prepare", "us", "us"),
    "conn.extract_commit.us": ("conn.extract_commit", "us", "us"),
    "conn.retries": (None, None, "count"),
    "conn.reconnects": (None, None, "count"),
    "wire.client.send_us": ("wire.client.send", "us", "us"),
    "wire.client.recv_us": ("wire.client.recv", "us", "us"),
    "wire.server.send_us": ("wire.server.send", "us", "us"),
    "wire.server.recv_us": ("wire.server.recv", "self_us", "us"),
    "wire.frames_per_query": (None, None, "count"),
    "server.admit.wait_us": ("server.admit", "us", "us"),
    "server.admit.shed": ("server.admit.shed", "counter", "count"),
    "server.store.get_us": ("server.store.get", "us", "us"),
    "server.store.put_us": ("server.store.put", "us", "us"),
    "server.store.delete_us": ("server.store.delete", "us", "us"),
    "server.store.multi_get_us": ("server.store.multi_get", "us", "us"),
    "server.store.multi_put_us": ("server.store.multi_put", "us", "us"),
    "server.stripe_contention": (None, None, "count"),
    "replica.replicate.us": ("replica.replicate", "us", "us"),
    "replica.forget.us": ("replica.forget", "us", "us"),
    "replica.rebuild.ms": ("replica.rebuild", "ms", "ms"),
    "replica.rebuild.records": ("replica.rebuild.records", "counter",
                                "count"),
    "btree.search.us": ("btree.search", "us", "us"),
    "btree.insert.us": ("btree.insert", "us", "us"),
    "btree.pop.us": ("btree.pop", "us", "us"),
    "btree.search.count": ("btree.search", "calls", "count"),
    "btree.insert.count": ("btree.insert", "calls", "count"),
    "btree.pop.count": ("btree.pop", "calls", "count"),
    "ring.lookup.us": ("ring.lookup", "us", "us"),
    "ring.lookups_per_query": (None, None, "count"),
    "window.record.us": ("window.record", "us", "us"),
    "window.end_slice.us": ("window.end_slice", "us", "us"),
    "window.evicted_per_candidate": (None, None, "ratio"),
    "sim.coordinator.query.self_us": ("sim.coordinator.query", "self_us",
                                      "us"),
    "elastic.get.us": ("elastic.get", "us", "us"),
    "elastic.put.us": ("elastic.put", "us", "us"),
    "elastic.record_query.us": ("elastic.record_query", "us", "us"),
    "elastic.end_time_slice.us": ("elastic.end_time_slice", "us", "us"),
    "gba.insert.us": ("gba.insert", "us", "us"),
    "gba.splits": (None, None, "count"),
    "gba.allocations": (None, None, "count"),
    "contraction.merges": (None, None, "count"),
    "metrics.record_query.us": ("metrics.record_query", "us", "us"),
    "metrics.end_step.us": ("metrics.end_step", "us", "us"),
    "service.execute.us": ("service.execute", "us", "us"),
    "workload.trace.s": ("workload.trace", "s", "s"),
    "loadgen.late_p99_us": (None, None, "us"),
    "trace.overhead": (None, None, "x"),
}

_SCALE = {"us": 1e3, "ms": 1e6, "s": 1e9}


def per_layer_metrics(reduced: dict, counts: dict,
                      derived: dict) -> tuple[dict, dict]:
    """Every declared per-layer metric as ``(values, units)`` dicts.

    A layer the workload never entered reads 0.  ``derived`` supplies
    the metrics computed from run state rather than spans.
    """
    values, units = {}, {}
    for name, (source, stat, unit) in PER_LAYER.items():
        if source is None:
            value = float(derived.get(name, 0.0))
        elif stat == "counter":
            value = float(counts.get(source, 0))
        else:
            row = reduced.get(source)
            if not row or not row["count"]:
                value = 0.0
            elif stat == "calls":
                value = float(row["count"])
            elif stat == "self_us":
                value = row["self_ns"] / row["count"] / 1e3
            else:
                value = row["total_ns"] / row["count"] / _SCALE[stat]
        values[name] = value
        units[name] = unit
    return values, units

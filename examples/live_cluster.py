#!/usr/bin/env python
"""A real cooperative cache cluster on localhost TCP.

Everything else in this repository simulates the cloud for faithful
reproduction; this example runs the same design *for real*: three cache
server processes (threads) speaking the wire protocol, a consistent-hash
cluster client, derived shoreline results cached as bytes, and an
Algorithm-2 interval migration onto a fourth server added live.

Run:  python examples/live_cluster.py
"""

import time

from repro.live import LiveCacheServer, LiveClusterClient
from repro.services.ctm import CoastalTerrainModel
from repro.services.shoreline import ShorelineExtractionService
from repro.sfc import Linearizer
from repro.sim import SimClock


def main() -> None:
    # --- three cache nodes ------------------------------------------------
    servers = [LiveCacheServer(capacity_bytes=64 * 1024 * 1024).start()
               for _ in range(3)]
    print("Started cache servers:",
          ", ".join(f"{h}:{p}" for h, p in (s.address for s in servers)))

    lin = Linearizer(nbits=6)
    service = ShorelineExtractionService(SimClock(), linearizer=lin,
                                         ctm=CoastalTerrainModel(grid=24))

    with LiveClusterClient([s.address for s in servers],
                           ring_range=1 << 18) as cluster:
        # --- cache 200 real derived results over the wire ------------------
        keys = [lin.encode(x, y, t)
                for x in range(0, 64, 13) for y in range(0, 64, 13)
                for t in range(0, 64, 8)]
        t0 = time.perf_counter()
        for key in keys:
            payload, _ = service.compute(key)
            cluster.put(key, payload)
        put_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        hits = sum(cluster.get(key) is not None for key in keys)
        get_s = time.perf_counter() - t0
        print(f"\nCached {len(keys)} shoreline results "
              f"({put_s * 1e3:.0f} ms), re-read all {hits} "
              f"({get_s * 1e3:.0f} ms, "
              f"{get_s / len(keys) * 1e6:.0f} µs/hit over TCP)")

        for name, stats in cluster.cluster_stats().items():
            print(f"  {name}: {stats['records']} records, "
                  f"{stats['used_bytes']} B")

        # --- grow the cluster live (Algorithm 2 over the wire) -------------
        print("\nAdding a fourth server and splitting the busiest interval...")
        new_server = LiveCacheServer(capacity_bytes=64 * 1024 * 1024).start()
        servers.append(new_server)
        loads = {addr: cluster.clients[addr].stats()["records"]
                 for addr in cluster.clients}
        busiest_addr = max(loads, key=loads.get)
        lo, hi = max((seg for b in cluster.ring.buckets_of(busiest_addr)
                      for seg in cluster.ring.interval_segments(b)),
                     key=lambda s: s[1] - s[0])
        moved = cluster.add_server(new_server.address, (lo + hi) // 2)
        print(f"  migrated {moved} records to "
              f"{new_server.address[0]}:{new_server.address[1]}")

        lost = sum(cluster.get(key) is None for key in keys)
        print(f"  post-migration verification: {len(keys) - lost}/{len(keys)} "
              "results still served")

        for name, stats in cluster.cluster_stats().items():
            print(f"  {name}: {stats['records']} records")

        # --- and contract again (interest waned) ---------------------------
        print("\nInterest waned — draining the new server back out...")
        drained = cluster.remove_server(new_server.address)
        lost = sum(cluster.get(key) is None for key in keys)
        print(f"  drained {drained} records to the survivors; "
              f"{len(keys) - lost}/{len(keys)} still served on "
              f"{len(cluster.clients)} nodes")

    for s in servers:
        s.stop()
    print("\nCluster shut down cleanly.")


if __name__ == "__main__":
    main()

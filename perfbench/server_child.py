"""Server child: one ``LiveCacheServer`` in its own process.

Started by :mod:`servers` as ``python3 server_child.py '<json config>'``.
Prints ``{"port": p}`` once serving, then reads commands on stdin:
A ``"cpus"`` list in the config pins the server to those CPUs once the
child has booted on ``"boot_cpus"``.
``reset`` drops the spans recorded so far (set-up traffic) and answers
``{"reset": true}``; any other line, or EOF, stops the server and prints
its report: peak RSS (``VmHWM``) and, when started traced, its reduced
spans.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main() -> int:
    config = json.loads(sys.argv[1])
    traced = config.pop("trace", False)
    cpus = config.pop("cpus", None)
    if cpus is not None:
        os.sched_setaffinity(0, config.pop("boot_cpus"))
    from common import peak_rss_mb

    tracer = None
    if traced:
        from layers import install_server
        from spans import Tracer

        tracer = Tracer()
        install_server(tracer)
    from repro.live.server import LiveCacheServer

    if cpus is not None:
        os.sched_setaffinity(0, cpus)  # its threads inherit this
    server = LiveCacheServer(**config).start()
    print(json.dumps({"port": server.address[1]}), flush=True)
    for line in sys.stdin:
        if line.strip() != "reset":
            break
        if tracer is not None:
            tracer.clear()
        print(json.dumps({"reset": True}), flush=True)
    try:
        counters = server.store.counters_snapshot()
    finally:
        server.stop()
    report = {"rss_mb": peak_rss_mb(),
              "stats": {"stripe_contention": counters["stripe_contention"]}}
    if tracer is not None:
        from spans import reduce_spans

        tracer.restore()
        report["spans"] = reduce_spans(tracer.spans())
        report["counts"] = tracer.counts
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The what-if service as the ``whatif_open`` workload runs it.

    python3 perfbench/server.py --cache-dir DIR [--trace] [--probe]

Starts ``repro.serve.run.start_stack`` (two pool workers, telemetry on,
an empty sharded cache in DIR) and prints ``ready <port>``.  With
``--probe`` it stops again at once (set-up timing); otherwise it serves
until SIGTERM, drains, and prints one JSON line of service
counters, peak memory and, with ``--trace``, per-layer timings.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import resource
import signal
import sys

from common import peak_rss_mb, require_source
from spans import Patches, Recorder, timed, timed_steps

WORKERS = 2


def install_tracing(rec: Recorder, patches: Patches) -> None:
    """Spans around the service's admission, cache probe and request traces."""
    from repro.obs.reqtrace import RequestTelemetry, RequestTrace
    from repro.serve.service import ShardedResultCache, SimulationService
    patches.method(SimulationService, "submit",
                   lambda fn: timed_steps(rec, "serve.submit", fn))
    patches.method(ShardedResultCache, "get",
                   lambda fn: timed(rec, "serve.cache_get", fn))
    for cls, attr in ((RequestTelemetry, "start"), (RequestTelemetry, "finish"),
                      (RequestTrace, "add_span")):
        patches.method(cls, attr, lambda fn: timed(rec, "obs.reqtrace", fn))
    for attr in ("push", "pop", "current"):
        patches.function("repro.obs.reqtrace", attr,
                         lambda fn: timed(rec, "obs.reqtrace", fn))


async def serve(cache_dir: str, probe: bool, rec) -> dict:
    from repro.serve.run import start_stack, stop_stack
    from repro.serve.service import ServiceConfig
    handle = await start_stack(ServiceConfig(workers=WORKERS,
                                             cache_dir=cache_dir))
    print(f"ready {handle.port}", flush=True)
    if not probe:
        # A signal, not a stdin-reading thread: the pool forks its
        # workers later, and a fork must not copy a held stdin lock.
        stop = asyncio.Event()
        asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, stop.set)
        await stop.wait()
    await stop_stack(handle, graceful=True)
    service = handle.service
    stats = service.stats
    out = {
        "shed": stats.shed_total, "timeouts": stats.timeout_total,
        "cache_hits": service.cache.hits,
        "coalesced": stats.coalesced_total,
        "cells_computed": stats.executor_cells,
        "pool_submissions": stats.executor_submissions,
        # The server process plus its largest (already joined) pool worker.
        "peak_rss_mb": peak_rss_mb() + peak_rss_mb(resource.RUSAGE_CHILDREN),
    }
    if rec is not None:
        out["self_s"] = rec.self_s
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()
    require_source()
    rec = None
    if args.trace:
        rec = Recorder()
        install_tracing(rec, Patches())
    out = asyncio.run(serve(args.cache_dir, args.probe, rec))
    if not args.probe:
        print(json.dumps(out, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

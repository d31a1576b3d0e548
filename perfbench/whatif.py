"""Workload ``whatif_open``: open-loop what-if pages.

The service runs in its own interpreter (``server.py``) from an empty
sharded cache.  One client process replays a seed-generated trace over
two keep-alive connections.  Users open pages on a fixed schedule,
whatever the service does (an open loop); each page asks :data:`PAGE`
queries at once, and every query is timed from the moment its page was
due, so the wait behind the page's other queries and for a free
connection counts.  The generator's own lateness is reported apart.

Every page has the same make-up: ``/simulate`` and ``/compare`` queries
on a hot set of configurations (cache hits once warm), then a
``/compare`` on a configuration never asked before (a miss, computed by
the pool) and a ``/simulate`` repeating one of its machines (it joins
that computation).  So misses keep arriving at a fixed share for the
whole run while the two pool workers stay far from saturation.  The hot
set is sent once before the timed window.

Four choices keep the median steady on a shared host (README.md has
the measurements behind them):

* A page keeps the server busy from its first query to its last, so the
  median query waits on the service path (HTTP, coalescing, cache
  probes, request telemetry), not on how fast an idle CPU wakes up.
* Pages are due at jittered slots, not Poisson times, so no page queues
  behind the one before and the median does not follow how many did.
* The generator wakes :data:`EARLY_S` before a page is due and polls
  until then, so a late timer does not delay all of the page's queries.
* In the timed window the client and the server's event loop share one
  CPU (:func:`_replay_on_one_cpu`), so no response waits for another
  CPU to wake up.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from common import (BENCH_DIR, ROOT, TAIL_SAMPLES, beyond, child_env, median,
                    tail_percentile)

#: Queries per second, on average, and queries per page.
RATE_PER_S = 150.0
PAGE = 32
#: Share of its slot within which a page's due time falls, so that two
#: pages are due at least ``1 - JITTER`` slots apart.
JITTER = 0.5
#: The generator wakes this early and then polls the loop until a page is
#: due, so a late timer wake-up does not delay every query of the page.
EARLY_S = 0.005
CONNECTIONS = 2
WORKLOADS = ("wordcount", "sort", "grep", "terasort", "naive_bayes",
             "fp_growth")
MACHINES = ("atom", "xeon")
FREQS = (1.2, 1.4, 1.6, 1.8)
HOT_SIZES_GB = (0.1, 0.15, 0.25, 0.35, 0.5, 0.75, 1.0, 1.5)
#: New configurations draw their data size from this grid (hot sizes excluded).
COLD_SIZES_GB = tuple(round(0.05 + 0.0005 * i, 4) for i in range(501)
                      if round(0.05 + 0.0005 * i, 4) not in HOT_SIZES_GB)
GOALS = {"EDP": 1, "ED2P": 2}
#: Configurations of each kind rechecked against the library after the run.
SAMPLE_PER_KIND = 3


class Query:
    __slots__ = ("offset", "path", "body", "kind", "config")

    def __init__(self, offset, path, doc, kind, config):
        self.offset = offset
        self.path = path
        self.body = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        self.kind = kind          # hot | cold | follow
        self.config = config      # (workload, freq, size)


def _doc(config, **extra) -> dict:
    workload, freq, size = config
    return dict(extra, workload=workload, freq_ghz=freq,
                data_per_node_gb=size, n_nodes=3)


def _hot_query(rng: random.Random, hot: List[tuple]) -> Tuple[str, dict, tuple]:
    config = rng.choice(hot)
    if rng.random() < 0.6:
        return "/compare", _doc(config, goal=rng.choice(sorted(GOALS))), config
    return "/simulate", _doc(config, machine=rng.choice(MACHINES)), config


def build_trace(seed: int, seconds: float) -> Tuple[List[tuple], List[Query]]:
    """The hot set and whole pages of queries spread over *seconds*.

    Queries of one page share its offset.  The number of pages is fixed
    by the rate; page *i* is due at a random point of the first
    :data:`JITTER` of its slot ``[i, i + 1) * seconds / pages``.
    """
    rng = random.Random(seed)
    hot = [(w, f, s) for w in WORKLOADS for f in FREQS for s in HOT_SIZES_GB]
    cold = [(w, f, s) for w in WORKLOADS for f in FREQS for s in COLD_SIZES_GB]
    rng.shuffle(cold)
    queries: List[Query] = []
    pages = max(1, round(seconds * RATE_PER_S / PAGE))
    slot = seconds / pages
    for page in range(pages):
        offset = (page + rng.uniform(0.0, JITTER)) * slot
        for _ in range(PAGE - 2):
            path, doc, config = _hot_query(rng, hot)
            queries.append(Query(offset, path, doc, "hot", config))
        config = cold.pop()
        queries.append(Query(offset, "/compare",
                             _doc(config, goal=rng.choice(sorted(GOALS))),
                             "cold", config))
        queries.append(Query(offset, "/simulate",
                             _doc(config, machine=rng.choice(MACHINES)),
                             "follow", config))
    return hot, queries


# -- HTTP client ----------------------------------------------------------

async def _exchange(reader, writer, path: str, body: str) -> Tuple[int, bytes]:
    data = body.encode()
    writer.write(f"POST {path} HTTP/1.1\r\nHost: bench\r\n"
                 f"Content-Type: application/json\r\n"
                 f"Content-Length: {len(data)}\r\n\r\n".encode() + data)
    status = int((await reader.readline()).split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b""):
            break
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    return status, await reader.readexactly(length)


async def _replay(port: int, queries: List[Query]):
    """Send each query when due; returns [(status, body, latency_s)] and lags.

    Latency runs from the due time to the end of the response, so time
    spent waiting for a free connection is part of it.
    """
    loop = asyncio.get_running_loop()
    conns = [await asyncio.open_connection("127.0.0.1", port)
             for _ in range(CONNECTIONS)]
    pending: asyncio.Queue = asyncio.Queue()
    results: List[Optional[tuple]] = [None] * len(queries)
    lags: List[float] = []

    async def connection(reader, writer):
        while True:
            item = await pending.get()
            if item is None:
                return
            index, due = item
            query = queries[index]
            try:
                status, body = await _exchange(reader, writer, query.path,
                                               query.body)
            except (OSError, asyncio.IncompleteReadError, ValueError,
                    IndexError):
                status, body = 0, b""
            results[index] = (status, body, loop.time() - due)

    async def generator():
        start = loop.time() + 0.05
        for index, query in enumerate(queries):
            due = start + query.offset
            delay = due - loop.time() - EARLY_S
            if delay > 0:
                await asyncio.sleep(delay)
            while loop.time() < due:
                await asyncio.sleep(0)
            lags.append(loop.time() - due)
            pending.put_nowait((index, due))
        for _ in conns:
            pending.put_nowait(None)

    try:
        await asyncio.gather(generator(), *(connection(r, w) for r, w in conns))
    finally:
        for _reader, writer in conns:
            writer.close()
            await writer.wait_closed()
    return results, lags


def _replay_on_one_cpu(server_pid: int, port: int, queries: List[Query]):
    """:func:`_replay` with the client and the server's loop on one CPU.

    The server's event-loop thread (its main thread) and this thread
    share the first CPU this process may use, so a page's queries pass
    between them without waking another CPU; the pool workers, forked
    before, keep every CPU.  This thread's CPUs are restored after.
    """
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(server_pid, {min(cpus)})
    os.sched_setaffinity(0, {min(cpus)})
    try:
        return asyncio.run(_replay(port, queries))
    finally:
        os.sched_setaffinity(0, cpus)


# -- checks ----------------------------------------------------------------

def _expected_cell(config, machine: str):
    from repro.core.characterization import RunKey, simulate_cell
    workload, freq, size = config
    return simulate_cell(RunKey(machine, workload, freq_ghz=freq,
                                block_size_mb=64.0, data_per_node_gb=size,
                                n_nodes=3))


def _check_cell(label: str, payload: dict, result) -> List[str]:
    energy, seconds = result.dynamic_energy_j, result.execution_time_s
    want = {"execution_time_s": seconds, "dynamic_energy_j": energy,
            "dynamic_power_w": result.dynamic_power_w, "ipc": result.ipc}
    problems = [f"{label}: {k} = {payload.get(k)!r}, library gives {v!r}"
                for k, v in want.items() if payload.get(k) != v]
    if not math.isclose(payload.get("edp_js", -1.0), energy * seconds,
                        rel_tol=1e-12):
        problems.append(f"{label}: edp_js {payload.get('edp_js')} != E*t")
    return problems


def _check_bodies(queries: List[Query], results) -> List[str]:
    """Identical queries, identical bodies; sampled bodies equal the library."""
    problems = []
    seen: Dict[Tuple[str, str], bytes] = {}
    for query, (status, body, _lat) in zip(queries, results):
        if status != 200:
            continue
        first = seen.setdefault((query.path, query.body), body)
        if first != body:
            problems.append(f"{query.path} {query.body}: bodies differ")
    sampled = {"hot": 0, "cold": 0}
    for query, (status, body, _lat) in zip(queries, results):
        if (status != 200 or query.kind not in sampled
                or sampled[query.kind] >= SAMPLE_PER_KIND):
            continue
        sampled[query.kind] += 1
        doc, label = json.loads(body), f"{query.path} {query.body}"
        if query.path == "/simulate":
            machine = json.loads(query.body)["machine"]
            problems += _check_cell(label, doc["result"],
                                    _expected_cell(query.config, machine))
            continue
        exponent = GOALS[doc["goal"]]
        costs = {}
        for machine in MACHINES:
            result = _expected_cell(query.config, machine)
            problems += _check_cell(f"{label} [{machine}]",
                                    doc["candidates"][machine], result)
            costs[machine] = result.dynamic_energy_j * result.execution_time_s ** exponent
        winner = min(MACHINES, key=lambda m: (costs[m], m))
        if doc["winner"] != winner:
            problems.append(f"{label}: winner {doc['winner']}, costs give {winner}")
    if sampled != {"hot": SAMPLE_PER_KIND, "cold": SAMPLE_PER_KIND}:
        problems.append(f"only {sampled} bodies could be rechecked")
    return problems


# -- the workload ------------------------------------------------------------

def probe_argv(workdir: Path) -> List[str]:
    return [sys.executable, str(BENCH_DIR / "server.py"),
            "--cache-dir", str(workdir / "cache"), "--probe"]


def run(seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    hot, queries = build_trace(seed, seconds)
    argv = [sys.executable, str(BENCH_DIR / "server.py"),
            "--cache-dir", str(workdir / "serve-cache")]
    if trace:
        argv.append("--trace")
    server = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                              stdout=subprocess.PIPE, text=True)
    try:
        port = int(server.stdout.readline().split()[1])
        fill = [Query(0.0, "/compare", _doc(c, goal="EDP"), "hot", c)
                for c in hot]
        t0 = time.perf_counter()
        fill_results, _ = asyncio.run(_replay(port, fill))
        cold_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        results, lags = _replay_on_one_cpu(server.pid, port, queries)
        window_s = time.perf_counter() - t0
    finally:
        server.terminate()
        stats_line = server.stdout.read().strip().splitlines()
        server.stdout.close()
        server.wait(timeout=60)
    stats = json.loads(stats_line[-1])
    problems = []
    failed = sum(1 for r in results + fill_results if r[0] != 200)
    if failed:
        problems.append(f"{failed} responses were not 200")
    if stats["shed"] or stats["timeouts"]:
        problems.append(f"service shed {stats['shed']} and timed out "
                        f"{stats['timeouts']} requests")
    problems += _check_bodies(queries, results)
    latencies_ms = [r[2] * 1e3 for r in results]
    result = {
        "correct": not problems, "problems": problems,
        "attempted": len(results) + len(fill_results), "failed": failed,
        "end_to_end": {
            "cold_s": (cold_s, "s"),
            "p50_ms": (median(latencies_ms), "ms"),
            "peak_rss_mb": (stats["peak_rss_mb"], "MB"),
        },
        "detail": {"requests": len(results), "window_s": round(window_s, 3),
                   "p99_ms": (tail_percentile(latencies_ms, 99)
                              if beyond(len(latencies_ms), 99) >= TAIL_SAMPLES
                              else None),
                   "cells_computed": stats["cells_computed"],
                   "coalesced": stats["coalesced"],
                   "cache_hits": stats["cache_hits"]},
    }
    if trace:
        self_s = stats["self_s"]
        result["per_layer"] = {
            "serve.cache_hits": (stats["cache_hits"], "count"),
            "serve.coalesced": (stats["coalesced"], "count"),
            "serve.cells_computed": (stats["cells_computed"], "count"),
            "serve.pool_submissions": (stats["pool_submissions"], "count"),
            "serve.submit_s": (self_s.get("serve.submit", 0.0), "s"),
            "serve.cache_get_s": (self_s.get("serve.cache_get", 0.0), "s"),
            "obs.reqtrace_s": (self_s.get("obs.reqtrace", 0.0), "s"),
            "bench.lag_p99_ms": (tail_percentile([x * 1e3 for x in lags], 99),
                                 "ms"),
        }
    return result

"""Helpers shared by the workloads: paths, statistics, host facts, set-up timing.

Nothing here imports the program under test, so the helpers (and their
self-tests in ``test_perfbench.py``) work in a checkout without ``src/``.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import shutil
import statistics
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Sequence

#: The benchmark's own directory and the checkout root above it.
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: Scratch space inside the checkout (listed in the root .gitignore).
WORK_ROOT = ROOT / ".perfbench"

#: Fresh interpreters started per run to time set-up; the median is reported.
SETUP_PROBES = 5

#: A tail percentile is only reported with at least this many samples beyond it.
TAIL_SAMPLES = 10


def require_source() -> None:
    """Exit non-zero (printing no result) when the program's source is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}/repro; run from a "
              f"checkout of the repository", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> Dict[str, str]:
    """Environment for child interpreters: the checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def make_workdir(tag: str) -> Path:
    path = WORK_ROOT / f"{tag}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def remove_workdir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        WORK_ROOT.rmdir()          # only when no other run is using it
    except OSError:
        pass


# -- statistics ------------------------------------------------------------

def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with ``q`` % at or below it."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(n: int, q: float) -> int:
    """How many of *n* samples lie beyond the nearest-rank *q* percentile."""
    return n - max(1, math.ceil(q / 100.0 * n))


def tail_percentile(values: Sequence[float], q: float) -> float:
    """The *q* percentile, refusing a tail with fewer than ten samples beyond."""
    if beyond(len(values), q) < TAIL_SAMPLES:
        raise ValueError(
            f"p{q:g} of {len(values)} samples leaves "
            f"{beyond(len(values), q)} beyond it; need {TAIL_SAMPLES}")
    return percentile(values, q)


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


# -- host facts --------------------------------------------------------------

def host_fingerprint() -> Dict[str, object]:
    """CPU model, CPU count, Python version and load average at start."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        load = [round(x, 2) for x in os.getloadavg()]
    except OSError:
        load = []
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), "loadavg": load}


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set size in MiB (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


# -- set-up timing -----------------------------------------------------------

def time_until_ready(argv: List[str], cwd: Path) -> float:
    """Seconds from starting *argv* until it prints a line starting ``ready``.

    The child is a fresh interpreter; it exits on its own after the
    line, and this function waits for it.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=child_env(),
                            stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        rest = proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait(timeout=60)
    if line.split()[:1] != ["ready"] or code != 0:
        raise RuntimeError(f"set-up probe {argv[1:]} failed "
                           f"(exit {code}): {line!r} {rest[-500:]!r}")
    return elapsed


def setup_seconds(argv_for: Callable[[int], List[str]], cwd: Path) -> float:
    """Median set-up time over :data:`SETUP_PROBES` fresh interpreters."""
    return median([time_until_ready(argv_for(i), cwd)
                   for i in range(SETUP_PROBES)])


def cold_in_fresh_interpreter(workload: str, seed: int, index: int) -> dict:
    """Run one cold pass of *workload* in a new interpreter, tracing off.

    Returns the child's ``{"seconds": ..., "problems": [...]}`` line.
    """
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--cold-only", str(index)],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
        check=True, timeout=170)
    return json.loads(out.stdout.strip().splitlines()[-1])

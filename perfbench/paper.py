"""Workload ``paper_cold``: regenerate every paper artifact, cold then warm.

The cold pass is ``run all``: every ``ALL_EXPERIMENTS`` driver, serially,
on one characterizer over an empty result cache in a fresh directory.
Warm passes then repeat ``run all`` + ``validate`` + ``report`` against
that cache, each with a fresh characterizer, for ``--seconds`` seconds.

The input is the paper's fixed measurement grid, so the seed changes no
input here; it is recorded with the run like everywhere else.
"""

from __future__ import annotations

import re
import time
from pathlib import Path
from typing import Dict, List, Tuple

from common import cold_in_fresh_interpreter, median, peak_rss_mb
from spans import Patches, Recorder, counted, timed

#: Paper claims and their acceptance bands (source figure in the paper;
#: EXPERIMENTS.md argues each band).  Held here, not read from the
#: program, so a loosened band in the program cannot pass the check.
PAPER_BANDS: Dict[str, Tuple[float, float]] = {
    "C01": (1.3, 2.2), "C02": (1.2, 2.2), "C03": (1.3, 2.3),
    "C04": (4.0, 16.0), "C05": (1.6, 2.7), "C06": (1.2, 2.2),
    "C07": (1.2, 2.0), "C08": (0.2, 1.0), "C09": (2.0, 40.0),
    "C10": (0.2, 1.0), "C11": (0.2, 0.45), "C12": (0.05, 0.35),
    "C13": (1.2, 3.0), "C14": (1.0, 2.0), "C15": (2.0, 12.0),
}

#: Atom/Xeon execution-time claims (Fig. 3) recomputed from the cells.
TIME_RATIO_CLAIMS = {"C01": "wordcount", "C02": "grep", "C03": "terasort",
                     "C04": "sort"}

#: The paper's default data per node: 1 GB for micro-benchmarks, 10 GB
#: for the real-world applications (§3).
REAL_WORLD_APPS = ("naive_bayes", "fp_growth")

#: Kept whole for the Chrome trace of a traced run.
KEPT_SPANS = ("analysis.experiment", "mapreduce.job", "bench.warm_pass")


def probe(workdir: Path) -> None:
    """Set-up as a user pays it: imports, cache and characterizer."""
    from repro.analysis.executor import ResultCache
    from repro.analysis.experiments import ALL_EXPERIMENTS  # noqa: F401
    from repro.analysis.report import generate_report      # noqa: F401
    from repro.analysis.validation import validate          # noqa: F401
    from repro.core.characterization import Characterizer
    Characterizer(cache=ResultCache(workdir / "probe-cache"))


def _run_all(ch) -> str:
    """``repro-hadoop run all`` stdout, built through the same drivers."""
    from repro.analysis.experiments import ALL_EXPERIMENTS
    return "".join(ALL_EXPERIMENTS[exp_id](ch).render() + "\n\n"
                   for exp_id in list(ALL_EXPERIMENTS))


def cold_pass(cache_dir: Path) -> Tuple[float, str, str]:
    """Timed cold ``run all``; returns (seconds, run-all text, report text)."""
    from repro.analysis.executor import ResultCache
    from repro.analysis.report import generate_report
    from repro.core.characterization import Characterizer
    ch = Characterizer(cache=ResultCache(cache_dir), jobs=1)
    t0 = time.perf_counter()
    text = _run_all(ch)
    cold_s = time.perf_counter() - t0
    return cold_s, text, generate_report(ch)


def _warm_pass(cache_dir: Path):
    from repro.analysis.executor import ResultCache
    from repro.analysis.report import generate_report
    from repro.analysis.validation import validate
    from repro.core.characterization import Characterizer
    cache = ResultCache(cache_dir)
    ch = Characterizer(cache=cache)
    t0 = time.perf_counter()
    text = _run_all(ch)
    verdicts = validate(ch)
    report = generate_report(ch)
    return time.perf_counter() - t0, text, verdicts, report, cache


def _eng(value: float) -> str:
    """The three-significant-digit rendering the figure series use."""
    if abs(value) >= 1e5 or abs(value) < 1e-2:
        return f"{value:.2E}"
    return f"{value:.3g}"


def _check_fig9(text: str, cache_dir: Path) -> List[str]:
    """Recompute every Fig. 9 Xeon/Atom EDP ratio from the cells' E and t."""
    from repro.analysis.executor import ResultCache
    from repro.core.characterization import RunKey
    cache = ResultCache(cache_dir)
    section = text.split("== F9:", 1)[1].split("\n== ", 1)[0]
    problems, checked = [], 0
    for app, pairs in re.findall(
            r"^(\w+)  \[block size -> EDP Xeon/Atom\]\n  (.*)$", section,
            flags=re.M):
        gb = 10.0 if app in REAL_WORLD_APPS else 1.0
        for block, shown in re.findall(r"(\d+)MB:(\S+)", pairs):
            cells = [cache.get(RunKey(m, app, freq_ghz=1.8,
                                      block_size_mb=float(block),
                                      data_per_node_gb=gb))
                     for m in ("xeon", "atom")]
            if None in cells:
                problems.append(f"F9 {app} {block}MB: cell not cached")
                continue
            xeon, atom = cells
            ratio = ((xeon.dynamic_energy_j * xeon.execution_time_s)
                     / (atom.dynamic_energy_j * atom.execution_time_s))
            checked += 1
            if _eng(ratio) != shown:
                problems.append(f"F9 {app} {block}MB renders {shown}, "
                                f"cells give {_eng(ratio)}")
    if checked != 28:
        problems.append(f"F9: {checked} ratios found to recheck, not 28")
    return problems


def _check_validation(verdicts, cache_dir: Path) -> List[str]:
    from repro.analysis.executor import ResultCache
    from repro.core.characterization import RunKey
    problems = []
    measured = {r.claim.claim_id: r.measured for r in verdicts.results}
    if sorted(measured) != sorted(PAPER_BANDS):
        problems.append(f"validate reported claims {sorted(measured)}")
    for claim, (lo, hi) in PAPER_BANDS.items():
        value = measured.get(claim)
        if value is None or not lo <= value <= hi:
            problems.append(f"{claim} = {value} outside the paper band "
                            f"[{lo}, {hi}]")
    if verdicts.passed != len(PAPER_BANDS):
        problems.append(f"validate: {verdicts.passed}/{verdicts.total} in band")
    cache = ResultCache(cache_dir)
    for claim, app in TIME_RATIO_CLAIMS.items():
        atom = cache.get(RunKey("atom", app, data_per_node_gb=1.0))
        xeon = cache.get(RunKey("xeon", app, data_per_node_gb=1.0))
        if atom is None or xeon is None:
            problems.append(f"{claim}: cell not cached")
        elif atom.execution_time_s / xeon.execution_time_s != measured.get(claim):
            problems.append(f"{claim}: validate says {measured.get(claim)}, "
                            f"cells give "
                            f"{atom.execution_time_s / xeon.execution_time_s}")
    return problems


def install_tracing(rec: Recorder, patches: Patches) -> None:
    """Spans and counts around the analysis, model and cache layers."""
    from repro.analysis import experiments
    from repro.analysis.executor import ResultCache
    from repro.arch.cores import CoreSpec
    from repro.cluster.server import ServerNode
    from repro.core.characterization import Characterizer
    from repro.hdfs.filesystem import HDFS
    from repro.sim.engine import Simulator
    from repro.sim.resources import BandwidthDevice, Resource
    from repro.sim.trace import TraceRecorder

    patches.mapping(experiments.ALL_EXPERIMENTS,
                    lambda _id, fn: timed(rec, "analysis.experiment", fn))
    patches.method(Characterizer, "run",
                   lambda fn: counted(rec, "core.cell_lookups", fn))
    lookups = rec.counter("core.cell_lookups")

    def run_many(fn):
        def wrapper(self, keys, *args, **kwargs):
            keys = list(keys)
            lookups[0] += len(keys)
            return fn(self, keys, *args, **kwargs)
        return wrapper
    patches.method(Characterizer, "run_many", run_many)
    patches.function("repro.mapreduce.driver", "simulate_job",
                     lambda fn: timed(rec, "mapreduce.job", fn))
    events = rec.counter("sim.events")

    def sim_run(fn):
        inner = timed(rec, "sim.run", fn)

        def wrapper(self, *args, **kwargs):
            before = self.event_count
            try:
                return inner(self, *args, **kwargs)
            finally:
                events[0] += self.event_count - before
        return wrapper
    patches.method(Simulator, "run", sim_run)
    for cls, attr, name in (
            (Resource, "request", "sim.resource_requests"),
            (BandwidthDevice, "transfer", "sim.transfers"),
            (TraceRecorder, "add", "sim.trace_adds"),
            (ServerNode, "core_perf", "cluster.core_perf_calls"),
            (HDFS, "read_span", "hdfs.block_reads")):
        patches.method(cls, attr, lambda fn, name=name: counted(rec, name, fn))
    patches.method(CoreSpec, "evaluate",
                   lambda fn: timed(rec, "arch.evaluate", fn))
    patches.function("repro.arch.power", "integrate_energy",
                     lambda fn: timed(rec, "arch.integrate_energy", fn))
    hits = rec.counter("executor.cache_hits")

    def cache_get(fn):
        inner = timed(rec, "executor.cache_get", fn)

        def wrapper(*args, **kwargs):
            result = inner(*args, **kwargs)
            hits[0] += result is not None
            return result
        return wrapper
    patches.method(ResultCache, "get", cache_get)
    patches.method(ResultCache, "put",
                   lambda fn: timed(rec, "executor.cache_put", fn))


def per_layer(rec: Recorder) -> Dict[str, Tuple[float, str]]:
    s, n = rec.self_s, rec.calls
    return {
        "analysis.experiments_self_s": (s.get("analysis.experiment", 0.0), "s"),
        "core.cell_lookups": (rec.count("core.cell_lookups"), "count"),
        "mapreduce.jobs": (n.get("mapreduce.job", 0), "count"),
        "mapreduce.job_self_s": (s.get("mapreduce.job", 0.0), "s"),
        "sim.run_self_s": (s.get("sim.run", 0.0), "s"),
        "sim.events": (rec.count("sim.events"), "count"),
        "sim.resource_requests": (rec.count("sim.resource_requests"), "count"),
        "sim.transfers": (rec.count("sim.transfers"), "count"),
        "sim.trace_adds": (rec.count("sim.trace_adds"), "count"),
        "cluster.core_perf_calls": (rec.count("cluster.core_perf_calls"), "count"),
        "arch.evaluate_calls": (n.get("arch.evaluate", 0), "count"),
        "arch.evaluate_s": (s.get("arch.evaluate", 0.0), "s"),
        "arch.integrate_energy_s": (s.get("arch.integrate_energy", 0.0), "s"),
        "hdfs.block_reads": (rec.count("hdfs.block_reads"), "count"),
        "executor.cache_gets": (n.get("executor.cache_get", 0), "count"),
        "executor.cache_hits": (rec.count("executor.cache_hits"), "count"),
        "executor.cache_get_s": (s.get("executor.cache_get", 0.0), "s"),
        "executor.cache_stores": (n.get("executor.cache_put", 0), "count"),
        "executor.cache_put_s": (s.get("executor.cache_put", 0.0), "s"),
    }


def run(seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    cache_dir = workdir / f"cache-seed{seed}"
    rec = patches = None
    untraced_cold = None
    if trace:
        untraced_cold = cold_in_fresh_interpreter("paper_cold", seed, 0)["seconds"]
        rec, patches = Recorder(keep=KEPT_SPANS), Patches()
        install_tracing(rec, patches)
    try:
        cold_s, cold_text, cold_report = cold_pass(cache_dir)
        problems: List[str] = []
        warm_times: List[float] = []
        attempted = 1
        started = time.perf_counter()
        while len(warm_times) < 3 or time.perf_counter() - started < seconds:
            if rec is not None:
                rec.begin("bench.warm_pass")
            warm_s, text, verdicts, report, cache = _warm_pass(cache_dir)
            if rec is not None:
                rec.end()
            warm_times.append(warm_s)
            attempted += 1
            if text != cold_text:
                problems.append("warm run all differs from cold run all")
            if report != cold_report:
                problems.append("warm report differs from cold report")
            if cache.misses or cache.stores:
                problems.append(f"warm pass missed the cache "
                                f"({cache.misses} misses, {cache.stores} stores)")
            if len(warm_times) == 1:
                first_verdicts = verdicts
    finally:
        if patches is not None:
            patches.restore()
    # Rechecked after tracing stops, so the checks' own cache reads stay
    # out of the layer counts.
    problems += _check_fig9(cold_text, cache_dir)
    problems += _check_validation(first_verdicts, cache_dir)
    result = {
        "correct": not problems, "problems": sorted(set(problems)),
        "attempted": attempted, "failed": 0,
        "end_to_end": {"cold_s": (cold_s, "s"),
                       "p50_ms": (median(warm_times) * 1e3, "ms"),
                       "peak_rss_mb": (peak_rss_mb(), "MB")},
        "detail": {"warm_passes": len(warm_times)},
    }
    if rec is not None:
        layers = per_layer(rec)
        layers["trace.overhead_s"] = (cold_s - untraced_cold, "s")
        result["per_layer"] = layers
        result["recorder"] = rec
    return result


def cold_only(seed: int, index: int, workdir: Path) -> dict:
    """One untraced cold pass (the traced run's overhead reference)."""
    cold_s, _text, _report = cold_pass(workdir / f"cache-seed{seed}")
    return {"seconds": cold_s, "problems": []}

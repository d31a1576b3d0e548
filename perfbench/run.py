"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload paper_cold --seed 1 --seconds 12 --trace 0

With ``--trace 0`` the run measures the named workload with tracing off
and the last stdout line holds every end-to-end metric: ``setup_s``,
``cold_s``, ``p50_ms`` and ``peak_rss_mb`` (README.md says what each
means on each workload).  With ``--trace 1`` the run is the traced run:
it traces all three workloads, so every per-layer metric is measured,
and the last line holds those.  The line before the last is the run
record (seed, operation counts, checks, host fingerprint).  Run it from
the root of a checkout: the program is imported from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from common import (BENCH_DIR, ROOT, WORK_ROOT, host_fingerprint, make_workdir,
                    remove_workdir, require_source, setup_seconds)

WORKLOADS = ("paper_cold", "whatif_open", "lint_corpus")


def _module(workload: str):
    if workload == "paper_cold":
        import paper
        return paper
    if workload == "whatif_open":
        import whatif
        return whatif
    import lintcorpus
    return lintcorpus


def _probe_argv(workload: str, module, workdir: Path):
    """A fresh interpreter that does the workload's set-up, then exits."""
    if hasattr(module, "probe_argv"):
        return module.probe_argv(workdir)
    return [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
            "--probe", str(workdir)]


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal modes, used by the benchmark's own child interpreters.
    parser.add_argument("--probe", metavar="DIR", help=argparse.SUPPRESS)
    parser.add_argument("--cold-only", type=int, metavar="INDEX",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _measure(args, workdir: Path) -> dict:
    module = _module(args.workload)
    setup_s = setup_seconds(
        lambda i: _probe_argv(args.workload, module, workdir / f"probe{i}"),
        ROOT)
    result = module.run(args.seed, args.seconds, False, workdir)
    result["metrics"] = dict(result["end_to_end"], setup_s=(setup_s, "s"))
    return result


def _traced(args, workdir: Path) -> dict:
    """Trace every workload; the paper and lint loops run a quarter as long."""
    merged = {"correct": True, "problems": [], "attempted": 0, "failed": 0,
              "metrics": {}, "detail": {}}
    for workload in WORKLOADS:
        seconds = args.seconds if workload == "whatif_open" else args.seconds / 4
        result = _module(workload).run(args.seed, seconds, True, workdir)
        merged["correct"] &= result["correct"]
        merged["problems"] += [f"{workload}: {p}" for p in result["problems"]]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update(result["per_layer"])
        merged["detail"][workload] = result.get("detail", {})
        if "recorder" in result:
            traces = WORK_ROOT / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            result["recorder"].write_chrome(
                traces / f"{workload}-seed{args.seed}.json")
    return merged


def main(argv=None) -> int:
    args = _parse(argv)
    require_source()
    if args.probe:
        _module(args.workload).probe(Path(args.probe))
        print("ready", flush=True)
        return 0
    host = host_fingerprint()
    workdir = make_workdir(f"{args.workload}-seed{args.seed}")
    try:
        if args.cold_only is not None:
            print(json.dumps(_module(args.workload).cold_only(
                args.seed, args.cold_only, workdir)))
            return 0
        result = (_traced if args.trace else _measure)(args, workdir)
    finally:
        remove_workdir(workdir)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "attempted": result["attempted"], "failed": result["failed"],
              "correct": result["correct"], "problems": result["problems"],
              "detail": result.get("detail", {}), "host": host}
    print(json.dumps({"record": record}, sort_keys=True))
    for problem in result["problems"]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

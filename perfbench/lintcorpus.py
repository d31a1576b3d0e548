"""Workload ``lint_corpus``: lint seeded corpora with planted hazards.

Each corpus (see ``corpus.py``) is new to the linter: a fresh directory,
so no per-root cache of a previous lint helps it.  ``cold_s`` is the
median of five cold lints, each in a fresh interpreter as a user's
``repro-hadoop lint`` runs.  Then corpora are written and linted one
after another in this process for ``--seconds`` seconds; ``p50_ms`` is
the median ``lint_tree`` time after the first.  Every lint must report
exactly the planted findings and suppress exactly the planted
suppressions.
"""

from __future__ import annotations

import shutil
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Tuple

from common import cold_in_fresh_interpreter, median, peak_rss_mb
from corpus import write_corpus
from spans import Patches, Recorder, counted, timed

#: Rules given their own time metric; ARCH001 is reported as lint.project_s.
RULE_METRICS = ("DET001", "DET002", "DET003", "DET004", "DET005", "DET006",
                "PURE001", "OBS001", "DOC001")
COLD_LINTS = 5


def probe(workdir: Path) -> None:
    """Set-up as a user pays it: import the engine and register the rules."""
    from repro.lint.engine import lint_tree  # noqa: F401
    from repro.lint.registry import all_rules
    all_rules()


def check(result, corpus) -> List[str]:
    found = Counter((f.rule_id, f.path, f.line) for f in result.findings)
    planted = Counter(corpus.planted)
    problems = [f"missed {rule} at {path}:{line}"
                for (rule, path, line) in sorted(planted - found)]
    problems += [f"unexpected {rule} at {path}:{line}"
                 for (rule, path, line) in sorted(found - planted)]
    if result.suppressed != corpus.suppressed:
        problems.append(f"{result.suppressed} findings suppressed, "
                        f"{corpus.suppressed} planted")
    return problems


def _lint_one(root: Path, corpus_seed: int) -> Tuple[float, List[str], int]:
    """Write, lint and check one corpus; returns (seconds, problems, files)."""
    from repro.lint.engine import lint_tree
    corpus = write_corpus(root, corpus_seed)
    t0 = time.perf_counter()
    result = lint_tree(root)
    seconds = time.perf_counter() - t0
    shutil.rmtree(root)
    return seconds, check(result, corpus), result.files_checked


def cold_only(seed: int, index: int, workdir: Path) -> dict:
    """The first lint in this interpreter, of a corpus of its own."""
    seconds, problems, _files = _lint_one(workdir / "cold-corpus",
                                          seed * 1000 + 500 + index)
    return {"seconds": seconds, "problems": problems}


def install_tracing(rec: Recorder, patches: Patches) -> None:
    """Spans around parsing, suppressions, each rule and the project pass."""
    from repro.lint.registry import FileContext, all_rules
    from repro.lint.suppress import Suppressions

    def parse(fget):
        inner = timed(rec, "lint.parse", fget)

        def getter(self):
            if self._tree is None and self._parse_error is None:
                return inner(self)
            return fget(self)
        return getter
    patches.method(FileContext, "tree", parse)
    patches.function("repro.lint.suppress", "parse_suppressions",
                     lambda fn: timed(rec, "lint.suppress", fn))
    patches.method(Suppressions, "is_suppressed",
                   lambda fn: timed(rec, "lint.suppress", fn))
    patches.function("ast", "walk", lambda fn: counted(rec, "lint.ast_walks", fn))
    for rule in all_rules():
        name = "lint.project" if rule.project else f"lint.rule.{rule.id}"
        patches.method(type(rule), "check",
                       lambda fn, name=name: timed(rec, name, fn, materialize=True))
        if rule.project:
            patches.method(type(rule), "check_project",
                           lambda fn: timed(rec, "lint.project", fn,
                                            materialize=True))


def per_layer(rec: Recorder, files: int) -> Dict[str, Tuple[float, str]]:
    s = rec.self_s
    layers = {
        "lint.files": (files, "count"),
        "lint.parse_s": (s.get("lint.parse", 0.0), "s"),
        "lint.ast_walks": (rec.count("lint.ast_walks"), "count"),
        "lint.suppress_s": (s.get("lint.suppress", 0.0), "s"),
        "lint.project_s": (s.get("lint.project", 0.0), "s"),
    }
    for rule in RULE_METRICS:
        layers[f"lint.rule_s.{rule}"] = (s.get(f"lint.rule.{rule}", 0.0), "s")
    return layers


def run(seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    rec = patches = None
    problems: List[str] = []
    cold: List[float] = []
    if trace:
        rec, patches = Recorder(), Patches()
        install_tracing(rec, patches)
    else:
        for index in range(COLD_LINTS):
            child = cold_in_fresh_interpreter("lint_corpus", seed, index)
            cold.append(child["seconds"])
            problems += [f"cold corpus {index}: {p}" for p in child["problems"]]
    times: List[float] = []
    files = 0
    started = time.perf_counter()
    try:
        while len(times) < 4 or time.perf_counter() - started < seconds:
            lint_s, found, checked = _lint_one(workdir / f"corpus{len(times)}",
                                               seed * 1000 + len(times))
            times.append(lint_s)
            files += checked
            problems += [f"corpus {len(times) - 1}: {p}" for p in found]
    finally:
        if patches is not None:
            patches.restore()
    out = {
        "correct": not problems, "problems": problems,
        "attempted": len(cold) + len(times), "failed": 0,
        "detail": {"corpora": len(times), "files_checked": files},
    }
    if rec is not None:
        out["per_layer"] = per_layer(rec, files)
    else:
        out["end_to_end"] = {"cold_s": (median(cold), "s"),
                             "p50_ms": (median(times[1:]) * 1e3, "ms"),
                             "peak_rss_mb": (peak_rss_mb(), "MB")}
    return out

"""Self-tests of the benchmark's own helpers (no program source needed).

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import asyncio
import re
from collections import Counter

import pytest

from common import beyond, percentile, tail_percentile
from corpus import HAZARDS, PLANTS_PER_RULE, SUPPRESSED, write_corpus
from spans import Patches, Recorder, counted, timed, timed_steps


# -- percentile rule ---------------------------------------------------------

def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile([7.0], 99) == 7.0


def test_tail_needs_ten_samples_beyond():
    assert beyond(1000, 99) == 10
    assert beyond(999, 99) == 9
    assert tail_percentile(list(range(1000)), 99) == 989
    with pytest.raises(ValueError):
        tail_percentile(list(range(999)), 99)


# -- span self time ----------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def reference_self_times(spans):
    """Self time = duration minus the union of the children's intervals."""
    out = {}
    for index, (name, start, end, _parent) in enumerate(spans):
        children = sorted((s, e) for _n, s, e, p in spans if p == index)
        covered, cursor = 0.0, start
        for s, e in children:
            s, e = max(s, cursor), min(e, end)
            if e > s:
                covered += e - s
                cursor = e
        out[name] = out.get(name, 0.0) + (end - start) - covered
    return out


def test_self_time_is_span_minus_covered_children():
    clock = FakeClock()
    rec = Recorder(keep=("a", "b", "c"), clock=clock)
    script = [(0, "begin", "a"), (1, "begin", "b"), (2, "begin", "c"),
              (3, "end", None), (4, "end", None), (5, "begin", "b"),
              (7, "end", None), (10, "end", None)]
    for at, op, name in script:
        clock.now = float(at)
        rec.begin(name) if op == "begin" else rec.end()
    assert rec.self_s == pytest.approx({"a": 5.0, "b": 4.0, "c": 1.0})
    assert rec.total == pytest.approx({"a": 10.0, "b": 5.0, "c": 1.0})
    assert rec.self_s == pytest.approx(reference_self_times(rec.spans))
    assert [s[3] for s in rec.spans] == [-1, 0, 1, 0]


def test_same_name_nesting_counts_once():
    clock = FakeClock()
    rec = Recorder(keep=("m",), clock=clock)
    for at, op in [(0, "begin"), (1, "begin"), (3, "end"), (4, "end")]:
        clock.now = float(at)
        rec.begin("m") if op == "begin" else rec.end()
    assert rec.self_s["m"] == pytest.approx(4.0)
    assert rec.calls["m"] == 2


def test_coroutine_steps_leave_waits_out():
    rec = Recorder()

    async def work():
        await asyncio.sleep(0.05)
        return 7

    assert asyncio.run(timed_steps(rec, "step", work)()) == 7
    assert rec.calls["step"] == 2
    assert rec.total["step"] < 0.04


class Thing:
    def twice(self, x):
        return 2 * x

    def items(self):
        yield from (1, 2)


def test_patches_wrap_and_restore():
    rec, patches = Recorder(), Patches()
    original = Thing.__dict__["twice"]
    patches.method(Thing, "twice", lambda fn: counted(rec, "twice", fn))
    patches.method(Thing, "items",
                   lambda fn: timed(rec, "items", fn, materialize=True))
    assert Thing().twice(3) == 6 and Thing().items() == [1, 2]
    assert rec.count("twice") == 1 and rec.calls["items"] == 1
    patches.restore()
    assert Thing.__dict__["twice"] is original


# -- corpus bookkeeping ------------------------------------------------------

MARKERS = {"DET001": "hash(", "DET002": "random.random()",
           "DET003": "time.monotonic()", "DET004": "in set(",
           "DET005": "os.listdir(", "DET006": "rows.append(",
           "PURE001": "open(", "OBS001": "sim.obs.count(",
           "ARCH001": "import repro.serve.mod_0", "DOC001": "missing_"}


def test_corpus_plants_are_recorded_where_they_are(tmp_path):
    corpus = write_corpus(tmp_path / "c", seed=11)
    per_rule = Counter(rule for rule, _path, _line in corpus.planted)
    assert per_rule == Counter({rule: PLANTS_PER_RULE
                                for rule in list(HAZARDS) + ["DOC001"]})
    assert corpus.suppressed == len(SUPPRESSED)
    for rule, path, line in corpus.planted:
        text = (tmp_path / "c" / path).read_text().split("\n")[line - 1]
        assert MARKERS[rule] in text, (rule, path, line, text)
        assert "detlint" not in text
    quiet = [line for p in (tmp_path / "c" / "src").rglob("*.py")
             for line in p.read_text().split("\n") if "detlint: disable" in line]
    assert len(quiet) == len(SUPPRESSED)


def test_corpus_is_a_function_of_its_seed(tmp_path):
    def snapshot(root):
        return {p.relative_to(root).as_posix(): p.read_bytes()
                for p in sorted(root.rglob("*")) if p.is_file()}
    a = write_corpus(tmp_path / "a", seed=5)
    b = write_corpus(tmp_path / "b", seed=5)
    c = write_corpus(tmp_path / "c", seed=6)
    assert snapshot(tmp_path / "a") == snapshot(tmp_path / "b")
    assert a.planted == b.planted
    assert snapshot(tmp_path / "a") != snapshot(tmp_path / "c")
    assert len(snapshot(tmp_path / "a")) == len(snapshot(tmp_path / "c"))


def test_hazard_lines_point_at_the_hazard():
    for rule, (_pkgs, text, offset) in HAZARDS.items():
        line = text.split("\n")[offset - 1]
        assert re.search(re.escape(MARKERS[rule]), line), rule

"""In-memory span recording around calls into the program's layers.

Tracing is done from the benchmark's side only: :class:`Patches` swaps a
class method (on the class, so callers that imported the class still go
through it) or a module function (in every loaded ``repro`` module that
imported it by name) for a wrapper that opens a span or bumps a count.
Nothing under ``src/`` changes, and :meth:`Patches.restore` puts every
original back.

A span is (name, start, end, parent).  A layer's self time is its span's
duration minus the part covered by its child spans; the recorder keeps
that sum online, so hot layers (hundreds of thousands of calls) cost two
clock reads each and no memory.  Spans of the names passed as ``keep``
are also kept whole and can be written out as a Chrome trace.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Tuple


class Recorder:
    """Nested spans and counts, timed on one clock."""

    def __init__(self, keep=(), clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.keep = frozenset(keep)
        self.total: Dict[str, float] = {}
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.counts: Dict[str, List[int]] = {}
        #: Kept spans: [name, start, end, parent index or -1].
        self.spans: List[list] = []
        # Open frames: [name, start, covered-by-children, kept index].
        self._stack: List[list] = []
        self._kept_top = -1

    def begin(self, name: str) -> None:
        start = self.clock()
        kept = -1
        if name in self.keep:
            kept = len(self.spans)
            self.spans.append([name, start, None, self._kept_top])
            self._kept_top = kept
        self._stack.append([name, start, 0.0, kept])

    def end(self) -> None:
        end = self.clock()
        name, start, covered, kept = self._stack.pop()
        duration = end - start
        self.total[name] = self.total.get(name, 0.0) + duration
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - covered
        self.calls[name] = self.calls.get(name, 0) + 1
        if self._stack:
            self._stack[-1][2] += duration
        if kept >= 0:
            self.spans[kept][2] = end
            self._kept_top = self.spans[kept][3]

    def counter(self, name: str) -> List[int]:
        """A one-element list the wrappers increment in place."""
        return self.counts.setdefault(name, [0])

    def count(self, name: str) -> int:
        return self.counts.get(name, [0])[0]

    def write_chrome(self, path: Path) -> None:
        """Write the kept spans as a Chrome/Perfetto trace (microseconds)."""
        origin = self.spans[0][1] if self.spans else 0.0
        events = [{"name": name, "ph": "X", "pid": 1, "tid": 1,
                   "ts": (start - origin) * 1e6,
                   "dur": ((end if end is not None else start) - start) * 1e6,
                   "args": {"parent": parent}}
                  for name, start, end, parent in self.spans]
        path.write_text(json.dumps({"traceEvents": events}), encoding="utf-8")


def timed(rec: Recorder, name: str, fn: Callable,
          materialize: bool = False) -> Callable:
    """Wrap *fn* in a span; *materialize* drains a returned generator inside it."""
    begin, end = rec.begin, rec.end

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        begin(name)
        try:
            out = fn(*args, **kwargs)
            return list(out) if materialize else out
        finally:
            end()
    return wrapper


def counted(rec: Recorder, name: str, fn: Callable) -> Callable:
    """Wrap *fn* so every call bumps count *name*."""
    cell = rec.counter(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        cell[0] += 1
        return fn(*args, **kwargs)
    return wrapper


class _Steps:
    """Drive a coroutine, timing each step it runs on the event loop.

    The waits between steps are not the coroutine's work and stay out
    of its span; the step spans' parent is whatever span was open when
    the step ran (none, on an event loop).
    """

    def __init__(self, rec: Recorder, name: str, coro):
        self.rec, self.name, self.coro = rec, name, coro

    def __await__(self):
        rec, coro = self.rec, self.coro
        value, error = None, None
        while True:
            rec.begin(self.name)
            try:
                if error is not None:
                    yielded = coro.throw(error)
                else:
                    yielded = coro.send(value)
            except StopIteration as stop:
                return stop.value
            finally:
                rec.end()
            value, error = None, None
            try:
                value = yield yielded
            except BaseException as exc:   # re-raised inside the coroutine
                error = exc


def timed_steps(rec: Recorder, name: str, fn: Callable) -> Callable:
    """Wrap coroutine function *fn*: its on-loop steps become spans."""

    @functools.wraps(fn)
    async def wrapper(*args, **kwargs):
        return await _Steps(rec, name, fn(*args, **kwargs))
    return wrapper


class Patches:
    """Reversible replacements of methods and module functions."""

    def __init__(self):
        self._undo: List[Tuple[object, str, object]] = []

    def method(self, cls, attr: str, wrap: Callable[[Callable], Callable]) -> None:
        original = cls.__dict__[attr]
        if isinstance(original, property):
            replacement = property(wrap(original.fget))
        else:
            replacement = wrap(original)
        setattr(cls, attr, replacement)
        self._undo.append((cls, attr, original))

    def function(self, module: str, attr: str,
                 wrap: Callable[[Callable], Callable]) -> None:
        """Replace ``module.attr`` there and wherever a loaded repro module
        imported it by name."""
        home = sys.modules[module]
        original = getattr(home, attr)
        replacement = wrap(original)
        for name, mod in sorted(sys.modules.items()):
            if mod is not home and not (name == "repro" or name.startswith("repro.")):
                continue
            if getattr(mod, attr, None) is original:
                setattr(mod, attr, replacement)
                self._undo.append((mod, attr, original))

    def mapping(self, table: dict, wrap: Callable[[str, Callable], Callable]) -> None:
        """Wrap every value of a registry dict in place."""
        for key, original in list(table.items()):
            table[key] = wrap(key, original)
            self._undo.append((table, key, original))

    def restore(self) -> None:
        while self._undo:
            target, attr, original = self._undo.pop()
            if isinstance(target, dict):
                target[attr] = original
            else:
                setattr(target, attr, original)


"""Seeded lint corpus: a small ``src/repro`` tree with planted hazards.

The corpus mirrors the program's layout (``src/repro/<package>/``) so the
linter's per-directory rule scoping applies, and it carries its own
``import-contract.json`` and markdown docs.  Every module is built from
snippets: clean ones, and hazards planted at recorded lines.  A corpus
always holds the same number of modules, snippets and hazards of each
rule; the seed decides which snippets, where, and their constants.

Each hazard snippet is placed only in packages where exactly its rule
applies (DET003's clock read and DET006's tainted sink, for instance,
live in different packages), so the expected findings are exactly the
planted set.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

#: Modules per package (every package also gets an ``__init__.py``).
PACKAGES: Dict[str, int] = {
    "sim": 8, "mapreduce": 8, "hdfs": 5, "arch": 5, "cluster": 5,
    "core": 6, "workloads": 6, "analysis": 6, "serve": 6, "obs": 3,
}
MODEL = ("sim", "mapreduce", "hdfs", "arch", "cluster", "core", "workloads")
#: Packages where host I/O is allowed (PURE001 does not apply).
IMPURE_OK = ("mapreduce", "hdfs", "core", "workloads", "analysis", "serve",
             "obs")
SNIPPETS_PER_MODULE = 11
PLANTS_PER_RULE = 2
DOCS = 4

HEADER = '''"""Corpus module @MOD@: generated for lint timing."""

from __future__ import annotations

import os
import random
import time
import zlib
from typing import Dict, List
'''

#: Clean snippets: (packages allowed, text).  ``@N@``, ``@F@`` and ``@W@``
#: become a serial number, a float and a small integer.
CLEAN: List[Tuple[Tuple[str, ...], str]] = [
    (tuple(PACKAGES), '''
class Ledger@N@:
    """Running totals keyed by name."""

    def __init__(self, scale: float = @F@):
        self.scale = scale
        self.totals: Dict[str, float] = {}

    def add(self, name: str, amount: float) -> None:
        self.totals[name] = self.totals.get(name, 0.0) + amount * self.scale

    def report(self) -> List[str]:
        return ["%s=%.3f" % (k, v) for k, v in sorted(self.totals.items())]
'''),
    (tuple(PACKAGES), '''
def sample_@N@(seed: int, count: int) -> List[float]:
    rng = random.Random(seed)
    return [rng.random() * @F@ for _ in range(count)]
'''),
    (IMPURE_OK, '''
def inputs_@N@(path: str) -> List[str]:
    names = sorted(os.listdir(path))
    return [n for n in names if n.endswith(".csv")]
'''),
    (tuple(PACKAGES), '''
def moving_average_@N@(values: List[float], width: int = @W@) -> List[float]:
    out: List[float] = []
    acc = 0.0
    for i, v in enumerate(values):
        acc += v
        if i >= width:
            acc -= values[i - width]
        out.append(acc / min(i + 1, width))
    return out
'''),
    (tuple(PACKAGES), '''
def record_@N@(sim, amount: float) -> float:
    obs = sim.obs
    if obs is not None:
        obs.count("corpus.amount", amount)
    return amount * @F@
'''),
    (tuple(PACKAGES), '''
def bucket_@N@(key: str, buckets: int = @W@) -> int:
    return zlib.crc32(key.encode()) % buckets
'''),
    (tuple(PACKAGES), '''
def merge_@N@(left: Dict[str, float], right: Dict[str, float]) -> Dict[str, float]:
    merged = dict(left)
    for key in sorted(right):
        merged[key] = merged.get(key, 0.0) + right[key]
    return {k: merged[k] for k in sorted(merged)}
'''),
    (tuple(PACKAGES), '''
def chunks_@N@(total: float, size: float = @F@):
    if size <= 0:
        raise ValueError("size must be positive")
    start = 0.0
    while start < total:
        end = min(total, start + size)
        yield (start, end)
        start = end
'''),
    (tuple(PACKAGES), '''
def distinct_@N@(items: List[str]) -> List[str]:
    seen = set()
    out = []
    for item in sorted(set(items)):
        if item not in seen:
            seen.add(item)
            out.append(item)
    return out
'''),
    (tuple(PACKAGES), '''
class Window@N@:
    """A fixed-width interval with overlap arithmetic."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float):
        if hi < lo:
            raise ValueError("window ends before it starts")
        self.lo, self.hi = lo, hi

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def overlap(self, other: "Window@N@") -> float:
        return max(0.0, min(self.hi, other.hi) - max(self.lo, other.lo))
'''),
    (tuple(PACKAGES), '''
def schedule_@N@(tasks: Dict[str, float], slots: int = @W@) -> List[List[str]]:
    lanes: List[List[str]] = [[] for _ in range(slots)]
    loads = [0.0] * slots
    for name, cost in sorted(tasks.items(), key=lambda kv: (-kv[1], kv[0])):
        lane = min(range(slots), key=lambda i: (loads[i], i))
        lanes[lane].append(name)
        loads[lane] += cost
    return lanes
'''),
    (tuple(PACKAGES), '''
def energy_@N@(watts: List[float], seconds: List[float]) -> float:
    total = 0.0
    for w, s in zip(watts, seconds):
        if s < 0:
            raise ValueError("negative duration")
        total += w * s
    return total * @F@
'''),
]

#: Hazards: rule -> (packages where only that rule fires, text, line of the
#: hazard within the text, counting its first line as 1).
HAZARDS: Dict[str, Tuple[Tuple[str, ...], str, int]] = {
    "DET001": (("serve",), '''
def shard_@N@(key: str, shards: int = @W@) -> int:
    return hash(key) % shards
''', 3),
    "DET002": (("serve",), '''
def jitter_@N@(base: float) -> float:
    return base * random.random()
''', 3),
    "DET003": (("sim", "mapreduce", "hdfs", "arch", "cluster"), '''
def expired_@N@(deadline: float) -> bool:
    if time.monotonic() > deadline:
        return True
    return False
''', 3),
    "DET004": (("core", "analysis", "workloads"), '''
def names_@N@(items: List[str]) -> List[str]:
    out = []
    for name in set(items):
        out.append(name)
    return out
''', 4),
    "DET005": (("analysis", "serve", "obs"), '''
def entries_@N@(path: str) -> List[str]:
    found = []
    for name in os.listdir(path):
        found.append(name)
    return sorted(found)
''', 4),
    "DET006": (("core", "workloads", "analysis"), '''
def stamp_@N@(rows: List[float]) -> None:
    t = time.time()
    scaled = t * @F@
    rows.append(scaled)
''', 5),
    "PURE001": (("sim", "arch", "cluster"), '''
def dump_@N@(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)
''', 3),
    "OBS001": (("mapreduce", "hdfs", "core", "analysis"), '''
def note_@N@(sim, amount: float) -> float:
    sim.obs.count("corpus.note", amount)
    return amount
''', 3),
    "ARCH001": (("sim", "hdfs", "arch", "cluster"), '''
import repro.serve.mod_0 as serve_mod_@N@
''', 2),
}

#: Hazards planted with an inline suppression: (rule, packages).
SUPPRESSED = (("DET001", ("serve",)), ("DET005", ("analysis", "obs")))

CONTRACT = {
    "version": 1,
    "tiers": {"repro": "root", "repro.analysis": "analysis",
              "repro.serve": "serve", "repro.obs": "tracing",
              **{f"repro.{p}": "model" for p in MODEL}},
    "allowed_edges": [["analysis", "model"], ["analysis", "tracing"],
                      ["model", "tracing"], ["serve", "analysis"],
                      ["serve", "model"], ["serve", "tracing"]],
    "exceptions": [],
}


@dataclass
class Corpus:
    """What a corpus plants: (rule, path, line) findings, and suppressions."""

    planted: List[Tuple[str, str, int]] = field(default_factory=list)
    suppressed: int = 0


def _fill(text: str, serial: int, rng: random.Random) -> str:
    return (text.replace("@N@", str(serial))
            .replace("@F@", repr(round(rng.uniform(0.5, 4.0), 3)))
            .replace("@W@", str(rng.randint(2, 9))))


def write_corpus(root: Path, seed: int) -> Corpus:
    """Write one corpus under *root*; returns it with its planted hazards."""
    rng = random.Random(seed)
    corpus = Corpus()
    modules = [(pkg, i) for pkg, n in PACKAGES.items() for i in range(n)]
    # Module -> [(rule, suppressed)]; a module gets a rule at most once.
    plants: Dict[Tuple[str, int], List[Tuple[str, bool]]] = {}
    wanted = [(rule, pkgs, False) for rule, (pkgs, _t, _l) in HAZARDS.items()
              for _ in range(PLANTS_PER_RULE)]
    wanted += [(rule, pkgs, True) for rule, pkgs in SUPPRESSED]
    for rule, pkgs, quiet in wanted:
        choices = [m for m in modules if m[0] in pkgs
                   and all(r != rule for r, _q in plants.get(m, []))]
        plants.setdefault(rng.choice(choices), []).append((rule, quiet))
    serial = 0
    src = root / "src" / "repro"
    for pkg in PACKAGES:
        (src / pkg).mkdir(parents=True, exist_ok=True)
        (src / pkg / "__init__.py").write_text(f'"""Package {pkg}."""\n')
    (src / "__init__.py").write_text('"""Corpus root package."""\n')
    for pkg, i in modules:
        relpath = f"src/repro/{pkg}/mod_{i}.py"
        lines = HEADER.replace("@MOD@", f"{pkg}.mod_{i}").split("\n")
        pieces = [(None, False)] * SNIPPETS_PER_MODULE + plants.get((pkg, i), [])
        rng.shuffle(pieces)
        for rule, quiet in pieces:
            serial += 1
            if rule is None:
                text = rng.choice([t for p, t in CLEAN if pkg in p])
                lines += _fill(text, serial, rng).split("\n")[1:]
                continue
            _pkgs, text, offset = HAZARDS[rule]
            body = _fill(text, serial, rng).split("\n")[1:]
            line = len(lines) + offset - 1
            if quiet:
                body[offset - 2] += f"  # detlint: disable={rule} -- corpus plant"
                corpus.suppressed += 1
            else:
                corpus.planted.append((rule, relpath, line))
            lines += body
        (root / relpath).write_text("\n".join(lines).rstrip("\n") + "\n")
    _write_docs(root, rng, corpus, modules)
    (root / "import-contract.json").write_text(json.dumps(CONTRACT, indent=2))
    return corpus


def _write_docs(root: Path, rng: random.Random, corpus: Corpus,
                modules: List[Tuple[str, int]]) -> None:
    """README plus guides: valid links, and two planted broken ones."""
    docs = root / "docs"
    docs.mkdir()
    pages = ["README.md"] + [f"docs/guide_{i}.md" for i in range(DOCS)]
    broken = set(rng.sample(range(len(pages) * 6), PLANTS_PER_RULE))
    slot = 0
    for page in pages:
        prefix = "" if page == "README.md" else "../"
        lines = [f"# {page}", ""]
        for _ in range(6):
            pkg, i = rng.choice(modules)
            if slot in broken:
                target = f"{prefix}src/repro/{pkg}/missing_{slot}.py"
                corpus.planted.append(("DOC001", page, len(lines) + 1))
            else:
                target = f"{prefix}src/repro/{pkg}/mod_{i}.py"
            lines += [f"See [{pkg} module {i}]({target}) for details.", ""]
            slot += 1
        (root / page).write_text("\n".join(lines))

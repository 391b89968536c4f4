"""Spans and hooks for the traced benchmark run.

The hooks wrap public entry points of the ``synchro`` modules from outside
the package; nothing under ``src/`` knows about them. Two kinds of record
are kept, both in memory until the run ends:

- spans, around coarse calls (one solve, the pair table, Eppstein, the
  inverse search): name, start, end and parent span;
- call tallies, for calls made thousands of times per solve (preimage,
  image, set-trie insert and take). Each is added to the innermost open
  span as a count and a summed duration, and counts as child time when that
  span's self time is taken.

A hook whose target no longer exists is recorded in ``Tracer.missing`` and
its metrics are left out of the report rather than read as 0.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from time import perf_counter

# Per-name tally fields: calls, seconds, new sets (insert), trie node steps.
CALLS, SECONDS, NEW, OPS = range(4)


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "calls", "info")

    def __init__(self, sid: int, name: str, parent: int | None, start: float):
        self.id = sid
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.calls: dict[str, list[float]] = {}
        self.info: dict[str, float] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
            "calls": self.calls,
            "info": self.info,
        }


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.hooked: set[str] = set()
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        parent = self.stack[-1].id if self.stack else None
        sp = Span(len(self.spans), name, parent, perf_counter())
        self.spans.append(sp)
        self.stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = perf_counter()
            self.stack.pop()

    def tally(self, name: str, seconds: float, new: int = 0, ops: int = 0) -> None:
        calls = self.stack[-1].calls
        t = calls.get(name)
        if t is None:
            calls[name] = [1, seconds, new, ops]
        else:
            t[CALLS] += 1
            t[SECONDS] += seconds
            t[NEW] += new
            t[OPS] += ops

    def self_time(self, sp: Span, children: dict[int, list[Span]]) -> float:
        covered = sum(c.duration for c in children.get(sp.id, ()))
        covered += sum(t[SECONDS] for t in sp.calls.values())
        return sp.duration - covered

    def children(self) -> dict[int, list[Span]]:
        out: dict[int, list[Span]] = {}
        for sp in self.spans:
            if sp.parent is not None:
                out.setdefault(sp.parent, []).append(sp)
        return out

    # -- hooks -------------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _patch_everywhere(self, orig, new) -> None:
        # Rebind every synchro module global bound to ``orig``, so a hook
        # holds whether callers look the name up in its home module or
        # imported it with ``from .x import name``.
        for modname, mod in list(sys.modules.items()):
            if modname != "synchro" and not modname.startswith("synchro."):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._patch(mod, attr, new)

    def install(self, synchro) -> None:
        """Wrap the public entry points of each layer. Call ``uninstall`` to
        put the originals back."""
        automaton = getattr(synchro, "automaton", None)
        baselines = getattr(synchro, "baselines", None)
        search = getattr(synchro, "search", None)
        cls = getattr(automaton, "Automaton", None)

        for hook, attr in (("preimage", "preimage_bits"), ("image", "image_bits")):
            orig = getattr(cls, attr, None)
            if orig is None:
                self.missing.append(f"synchro.automaton.Automaton.{attr}")
                continue
            self._patch(cls, attr, self._tallied(hook, orig))
            self.hooked.add(hook)
        if getattr(cls, "build_inverse", None) is None:
            self.missing.append("synchro.automaton.Automaton.build_inverse")
        else:
            self.hooked.add("inverse")

        def note_pair_table(sp, result):
            sp.info["bytes"] = container_bytes(result)

        def note_eppstein(sp, result):
            sp.info["length"] = result.length

        def note_search(sp, result):
            sp.info["found"] = result is not None
            if result is None:
                return
            sp.info["length"] = result.length
            sizes = getattr(result, "frontier_sizes", None)
            if sizes is not None:
                sp.info["frontier_peak"] = max(sizes, default=0)
            level_ops = getattr(result, "level_ops", None)
            if level_ops is not None:
                sp.info["level_ops"] = sum(level_ops)

        for hook, module, attr, span_name, note in (
            ("pair_table", baselines, "build_pair_table", "baselines.pair_table",
             note_pair_table),
            ("eppstein", baselines, "eppstein_greedy", "baselines.eppstein",
             note_eppstein),
            ("cutoff_ibfs", search, "cutoff_ibfs", "search.cutoff_ibfs", note_search),
        ):
            orig = getattr(module, attr, None)
            if orig is None:
                home = span_name.partition(".")[0]
                self.missing.append(f"synchro.{home}.{attr}")
                continue
            self._patch_everywhere(orig, self._spanned(span_name, orig, note))
            self.hooked.add(hook)

        trie = getattr(search, "SetTrie", None)
        if trie is None:
            self.missing.append("synchro.search.SetTrie")
        else:
            self._patch_everywhere(trie, self._timed_settrie(trie))
            self.hooked.add("settrie")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def _tallied(self, name, orig):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.stack:
                return orig(*args, **kwargs)
            t0 = perf_counter()
            result = orig(*args, **kwargs)
            tracer.tally(name, perf_counter() - t0)
            return result

        return wrapper

    def _spanned(self, name, orig, note):
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name) as sp:
                result = orig(*args, **kwargs)
                note(sp, result)
            return result

        return wrapper

    def _timed_settrie(self, base):
        tracer = self

        class TimedSetTrie(base):
            __slots__ = ()

            def insert(self, *args, **kwargs):
                if not tracer.stack:
                    return base.insert(self, *args, **kwargs)
                ops = getattr(self, "ops", 0)
                t0 = perf_counter()
                new = base.insert(self, *args, **kwargs)
                dt = perf_counter() - t0
                tracer.tally(
                    "settrie.insert", dt, int(bool(new)), getattr(self, "ops", 0) - ops
                )
                return new

            def take_largest(self, *args, **kwargs):
                if not tracer.stack:
                    return base.take_largest(self, *args, **kwargs)
                t0 = perf_counter()
                out = base.take_largest(self, *args, **kwargs)
                tracer.tally("settrie.take", perf_counter() - t0)
                return out

        return TimedSetTrie


def container_bytes(obj) -> int:
    """Computed bytes of an object and the containers it holds directly
    (lists, arrays, bytes); elements are not followed, since the pair table
    holds small cached ints."""
    total = sys.getsizeof(obj)
    fields = getattr(obj, "__dict__", None) or {
        s: getattr(obj, s)
        for s in getattr(type(obj), "__slots__", ())
        if hasattr(obj, s)
    }
    for value in fields.values():
        if not isinstance(value, (int, float, str)):
            total += sys.getsizeof(value)
    return total


def layer_metrics(tracer: Tracer, scales: list[float]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics over the run's ``solve`` spans, as (value, unit).

    Times and counts are means per solve; the times of the i-th solve's
    spans are multiplied by ``scales[i]``, its CPU-speed calibration.
    ``search.levels``, ``level_ops`` and ``frontier_peak`` are means over
    inverse searches that returned a word (a search that returns None
    reports no level data). A layer whose hook is installed but that never
    ran on the workload reads 0; a layer whose hook target is missing is
    left out.
    """
    solves = [sp for sp in tracer.spans if sp.name == "solve"]
    n_ops = max(len(solves), 1)
    kids = tracer.children()
    by_name: dict[str, list[Span]] = {}
    calls: dict[str, list[float]] = {}
    scale: dict[int, float] = {}
    op = -1
    for sp in tracer.spans:  # each solve's spans follow its root span
        if sp.parent is None:
            op += 1
        scale[sp.id] = scales[op]
        by_name.setdefault(sp.name, []).append(sp)
        for name, t in sp.calls.items():
            acc = calls.setdefault(name, [0, 0.0, 0, 0])
            acc[CALLS] += t[CALLS]
            acc[SECONDS] += t[SECONDS] * scales[op]
            acc[NEW] += t[NEW]
            acc[OPS] += t[OPS]

    def tally(name: str) -> list[float]:
        return calls.get(name, [0, 0.0, 0, 0])

    def spent(name: str) -> float:
        return sum(sp.duration * scale[sp.id] for sp in by_name.get(name, ())) / n_ops

    def self_spent(name: str) -> float:
        spans = by_name.get(name, ())
        return sum(tracer.self_time(sp, kids) * scale[sp.id] for sp in spans) / n_ops

    def mean(values: list[float]) -> float:
        return sum(values) / len(values) if values else 0.0

    hooked = tracer.hooked
    m: dict[str, tuple[float, str]] = {}
    if "settrie" in hooked:
        ins, take = tally("settrie.insert"), tally("settrie.take")
        m["settrie.insert_s"] = (ins[SECONDS] / n_ops, "s")
        m["settrie.take_s"] = (take[SECONDS] / n_ops, "s")
        m["settrie.inserts"] = (ins[CALLS] / n_ops, "count")
        m["settrie.new_frac"] = (ins[NEW] / ins[CALLS] if ins[CALLS] else 0.0, "ratio")
        m["settrie.ops"] = (ins[OPS] / n_ops, "count")
    for hook in ("preimage", "image"):
        if hook in hooked:
            t = tally(hook)
            m[f"automaton.{hook}_calls"] = (t[CALLS] / n_ops, "count")
            m[f"automaton.{hook}_s"] = (t[SECONDS] / n_ops, "s")
    if "inverse" in hooked:
        m["automaton.inverse_s"] = (spent("automaton.inverse"), "s")
    if "pair_table" in hooked:
        tables = by_name.get("baselines.pair_table", [])
        m["baselines.pair_table_s"] = (spent("baselines.pair_table"), "s")
        sizes = [sp.info["bytes"] for sp in tables if "bytes" in sp.info]
        m["baselines.pair_table_mb"] = (mean(sizes) / 1e6, "MB")
    if "eppstein" in hooked:
        runs = by_name.get("baselines.eppstein", [])
        m["baselines.eppstein_s"] = (spent("baselines.eppstein"), "s")
        m["baselines.greedy_self_s"] = (self_spent("baselines.eppstein"), "s")
        lengths = [sp.info["length"] for sp in runs if "length" in sp.info]
        m["baselines.eppstein_length"] = (mean(lengths), "letters")
        sync = [sp for sp in solves if "improved" in sp.info]
        improved = [sp.info["improved"] for sp in sync]
        m["search.improved_frac"] = (mean(improved), "ratio")
    if "cutoff_ibfs" in hooked:
        searches = by_name.get("search.cutoff_ibfs", [])
        found = [sp.info for sp in searches if sp.info.get("found")]
        m["search.cutoff_ibfs_s"] = (spent("search.cutoff_ibfs"), "s")
        m["search.self_s"] = (self_spent("search.cutoff_ibfs"), "s")
        m["search.levels"] = (mean([i["length"] for i in found]), "count")
        for key in ("level_ops", "frontier_peak"):
            if all(key in i for i in found):
                m[f"search.{key}"] = (mean([i[key] for i in found]), "count")
    m["trace.solve_s"] = (spent("solve"), "s")
    return m

"""Span tracing of legendrelab layers, installed from outside the library.

A ``Tracer`` replaces each public function of a layer module with a wrapper
that records one span per call: name, start, end and the enclosing span.
The wrapper is installed in every ``legendrelab`` namespace that holds the
original function, because ``from .grids import shell_ladder`` binds a
second name (``moduli.shell_ladder``) that patching ``grids`` alone would
miss. Module-level dicts that hold the original (``experiments._RUNNERS``)
are patched too. ``GridFunction.local_slope`` and ``GridFunction.tilted``
are wrapped on the class.

Spans live in memory as parallel lists and are written out once, after
the run. A span's self time is its duration minus the durations of its
direct children; the process is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable

LAYERS = ("grids", "conjugate", "subdiff", "moduli", "classify",
          "projections", "experiments", "report_io")

# Functions whose calls and busy time are reported one by one.
HOT_FUNCTIONS = (
    "grids.shell_ladder", "grids.local_slope", "grids.tilted",
    "conjugate.conjugate_fast", "conjugate.biconjugate",
    "subdiff.domain_chain_check",
    "moduli.wellposedness_modulus", "moduli.total_convexity_modulus",
    "moduli.firm_modulus", "moduli.certification_verdict",
    "classify.classify", "classify.lemma1_agreement",
    "projections.solve_relative_projection",
    "projections.midpoint_convexity", "projections.convexity_detector",
    "projections.farthest_point_experiment",
)

# Methods wrapped on ``grids.GridFunction`` rather than as module functions.
CLASS_METHODS = ("local_slope", "tilted")

NO_PARENT = -1


class Tracer:
    """In-memory span recorder. ``install`` patches, ``uninstall`` restores."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.names: list[str] = []          # interned span names
        self._name_ids: dict[str, int] = {}
        self.name_id: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.tags: dict[int, str] = {}      # span id -> tag (sparse)
        self.current = NO_PARENT
        self._patches: list[tuple[object, str, object]] = []
        self._dict_patches: list[tuple[dict, object, object]] = []

    # -- recording -----------------------------------------------------
    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str, tag: str | None = None) -> int:
        sid = len(self.name_id)
        self.name_id.append(self._intern(name))
        self.parent.append(self.current)
        self.end.append(0)
        if tag is not None:
            self.tags[sid] = tag
        self.current = sid
        self.start.append(self.clock())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = self.clock()
        self.current = self.parent[sid]

    def wrap(self, name: str, fn: Callable,
             tagger: Callable[..., str | None] | None = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tag = tagger(*args, **kwargs) if tagger is not None else None
            sid = tracer.open(name, tag)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(sid)

        return traced

    # -- installation --------------------------------------------------
    def install(self, taggers: dict[str, Callable] | None = None) -> None:
        """Wrap every public function of every layer."""
        modules = {layer: importlib.import_module(f"legendrelab.{layer}")
                   for layer in LAYERS}
        grids = modules["grids"]
        taggers = taggers or {}
        spaces = [m for n, m in sorted(sys.modules.items())
                  if (n == "legendrelab" or n.startswith("legendrelab."))
                  and m is not None]
        for layer, mod in modules.items():
            for attr, fn in vars(mod).copy().items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                traced = self.wrap(name, fn, taggers.get(name))
                self._replace_everywhere(spaces, fn, traced)
        for attr in CLASS_METHODS:
            fn = vars(grids.GridFunction)[attr]
            name = f"grids.{attr}"
            self.patch(grids.GridFunction, attr,
                       self.wrap(name, fn, taggers.get(name)))

    def _replace_everywhere(self, spaces, fn, traced) -> None:
        for space in spaces:
            for attr, val in vars(space).copy().items():
                if val is fn:
                    self.patch(space, attr, traced)
                elif isinstance(val, dict):
                    for key, item in val.items():
                        if item is fn:
                            self._dict_patches.append((val, key, fn))
                            val[key] = traced

    def patch(self, owner, attr: str, new) -> None:
        """Replace an attribute until ``uninstall``."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        for dct, key, old in reversed(self._dict_patches):
            dct[key] = old
        self._patches.clear()
        self._dict_patches.clear()

    # -- output --------------------------------------------------------
    def spans(self) -> "SpanTable":
        return SpanTable([self.names[i] for i in self.name_id], self.start,
                         self.end, self.parent, dict(self.tags))

    def dump(self, path: Path) -> None:
        """Write every span as gzipped JSON: a name table plus columns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"names": self.names, "name_id": self.name_id,
               "start_ns": self.start, "end_ns": self.end,
               "parent": self.parent,
               "tags": {str(k): v for k, v in self.tags.items()}}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


class SpanTable:
    """Read-only view of recorded spans with the accounting helpers."""

    def __init__(self, names: list[str], start: list[int], end: list[int],
                 parent: list[int], tags: dict[int, str] | None = None):
        self.names = names
        self.start = start
        self.end = end
        self.parent = parent
        self.tags = tags or {}
        self.by_name: dict[str, list[int]] = defaultdict(list)
        for i, name in enumerate(names):
            self.by_name[name].append(i)

    def __len__(self) -> int:
        return len(self.names)

    def duration_ns(self, i: int) -> int:
        return self.end[i] - self.start[i]

    def self_ns(self) -> list[int]:
        """Duration minus the time covered by direct child spans."""
        out = [self.duration_ns(i) for i in range(len(self))]
        for i, p in enumerate(self.parent):
            if p != NO_PARENT:
                out[p] -= self.duration_ns(i)
        return out

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """layer -> (calls, self seconds)."""
        calls: dict[str, int] = defaultdict(int)
        self_ns: dict[str, int] = defaultdict(int)
        for name, s in zip(self.names, self.self_ns()):
            layer = name.split(".", 1)[0]
            calls[layer] += 1
            self_ns[layer] += s
        return {layer: (calls[layer], self_ns[layer] / 1e9)
                for layer in calls}

    def has_ancestor(self, i: int, pred: Callable[[int], bool]) -> bool:
        p = self.parent[i]
        while p != NO_PARENT:
            if pred(p):
                return True
            p = self.parent[p]
        return False

    def function_totals(self, name: str) -> tuple[int, float]:
        """(calls, busy seconds); a call nested in a call of the same
        function adds to the count but not again to the busy time."""
        idx = self.by_name.get(name, [])
        busy = sum(self.duration_ns(i) for i in idx
                   if not self.has_ancestor(i, lambda p: self.names[p] == name))
        return len(idx), busy / 1e9

    def durations_by_tag(self, name: str, exclude_under: str | None = None
                         ) -> dict[str, list[float]]:
        """Durations in ms of tagged spans of ``name``, grouped by tag."""
        out: dict[str, list[float]] = defaultdict(list)
        for i in self.by_name.get(name, []):
            if i not in self.tags:
                continue
            if exclude_under is not None and self.has_ancestor(
                    i, lambda p: self.names[p] == exclude_under):
                continue
            out[self.tags[i]].append(self.duration_ns(i) / 1e6)
        return out

    def count_under(self, name: str, roots: set[int]) -> dict[int, int]:
        """For each root span, the number of ``name`` spans nested under it
        (attributed to the nearest enclosing root)."""
        out = {r: 0 for r in roots}
        for i in self.by_name.get(name, []):
            p = self.parent[i]
            while p != NO_PARENT and p not in roots:
                p = self.parent[p]
            if p != NO_PARENT:
                out[p] += 1
        return out

"""Span tracer that instruments geodistill from the outside.

``Tracer.install`` wraps every public function of the traced modules and
rebinds each wrapper under every name a geodistill module looks it up
by (``harness`` calls ``bev_distill_terms`` through its own namespace,
``bev_distillation`` calls ``matmul`` through its own, and so on).  No
file of the package is edited, and ``uninstall`` restores the originals.

Spans live in flat in-memory arrays and are written out once, after the
traced pass, by ``write_sidecar``.  A span's self time is its duration
minus the durations of its direct children; the package runs serially
(``TIG_THREADS`` unset), so spans nest strictly.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from array import array
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

PACKAGE = "geodistill"
TRACED_MODULES = (
    "scenegen",
    "geometry",
    "rng",
    "depth_supervision",
    "bev_distillation",
    "numerics",
    "harness",
    "oracles",
    "cli",
)

# Argument-conversion helpers called inside nearly every kernel.  They
# are not layers, and a span around each call would roughly double the
# span count and the tracing overhead.
UNTRACED = frozenset({"numerics.as_tensor", "numerics.check_finite"})

# CounterRng methods that draw numbers; traced like functions.
RNG_METHODS = ("uniform", "normal")


class Tracer:
    """Records (name, parent, start, end) spans plus named counters."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self.stack: List[int] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.distinct: Dict[str, set] = defaultdict(set)
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _intern(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def in_span(self, name: str) -> bool:
        """True when a span called ``name`` is open on the current stack."""
        idx = self._name_ids.get(name)
        return idx is not None and any(self.name_id[s] == idx for s in self.stack)

    def wrap(
        self,
        name: str,
        fn: Callable,
        on_call: Optional[Callable] = None,
        on_return: Optional[Callable] = None,
    ) -> Callable:
        """Wrap ``fn`` so each call records one span called ``name``.

        ``on_call(tracer, args, kwargs)`` runs before the span opens and
        ``on_return(tracer, args, kwargs, result)`` after it closes, so
        the counting they do is not charged to the layer.
        """
        nid = self._intern(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(self, args, kwargs)
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.start.append(clock())
            self.end.append(0)
            self.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                self.end[idx] = clock()
            if on_return is not None:
                on_return(self, args, kwargs, result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self, hooks: Optional[Dict] = None) -> None:
        """Wrap the public functions of TRACED_MODULES and rebind them in
        every loaded module of the package.

        ``hooks`` maps a span name to ``(on_call, on_return)``.
        """
        hooks = hooks or {}
        wrapped: Dict[int, Tuple[object, Callable]] = {}
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"{PACKAGE}.{short}")
            for attr, obj in list(vars(mod).items()):
                name = f"{short}.{attr}"
                if (
                    attr.startswith("_")
                    or name in UNTRACED
                    or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__
                ):
                    continue
                on_call, on_return = hooks.get(name, (None, None))
                wrapped[id(obj)] = (obj, self.wrap(name, obj, on_call, on_return))
        namespaces = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for mod in namespaces:
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])
        rng = importlib.import_module(f"{PACKAGE}.rng")
        for meth in RNG_METHODS:
            name = f"rng.{meth}"
            on_call, on_return = hooks.get(name, (None, None))
            original = getattr(rng.CounterRng, meth)
            self._patch(rng.CounterRng, meth, self.wrap(name, original, on_call, on_return))
        draw_hook = hooks.get("rng.next_u64")
        if draw_hook is not None:
            original = rng.CounterRng.next_u64

            @functools.wraps(original)
            def counted(rng_self, n):
                draw_hook(self, n)
                return original(rng_self, n)

            self._patch(rng.CounterRng, "next_u64", counted)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total (inclusive) seconds, self seconds."""
        n = len(self.start)
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: Dict[str, Dict[str, float]] = {}
        for i in range(n):
            name = self.names[self.name_id[i]]
            dur = self.end[i] - self.start[i]
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += dur * 1e-9
            entry["self_s"] += (dur - child[i]) * 1e-9
        return out

    def write_sidecar(self, path: str) -> None:
        """JSONL: a header line naming the fields, then one span per line
        as [id, parent, name, start_ns, duration_ns]."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as fobj:
            header = {"fields": ["id", "parent", "name", "start_ns", "duration_ns"]}
            fobj.write(json.dumps(header, allow_nan=False) + "\n")
            for i in range(len(self.start)):
                row = [
                    i,
                    self.parent[i],
                    self.names[self.name_id[i]],
                    self.start[i],
                    self.end[i] - self.start[i],
                ]
                fobj.write(json.dumps(row, allow_nan=False) + "\n")

"""Out-of-tree tracer for the sepsurf modules.

``Tracer.install`` swaps every public function of the given modules, and
every public method of their classes, for a timing wrapper.  The swap goes
by identity through every module dict and class dict, so aliases such as
``Func1D.__call__ = value`` and names imported into another module
(``verify.collect_samples`` calling ``sample_points``) are caught too.
Nothing in the library changes on disk, and a run that never calls
``install`` runs the library untouched.

Each call is attributed to a layer key such as ``sampler.solve``.  Its self
time is its duration minus the time of the wrapped calls it made.  Calls
marked as spans are kept in memory with the job id and the enclosing span;
scalar per-point functions are only aggregated (count and self time).
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from dataclasses import dataclass
from types import FunctionType
from typing import Callable, Optional


@dataclass(frozen=True)
class Probe:
    """How calls of one function are attributed."""

    key: str  # layer the call's self time goes to
    span: bool = False  # keep each call as a span (else aggregate only)
    count: Optional[str] = None  # counter bumped when not nested in the same key
    hook: Optional[Callable] = None  # hook(tracer, frame, args, result) after return


class Frame:
    __slots__ = ("probe", "name", "parent", "child", "anchor", "outer")

    def __init__(self, probe, name, parent, anchor, outer):
        self.probe = probe
        self.name = name
        self.parent = parent
        self.child = 0.0
        self.anchor = anchor  # id of the nearest enclosing span, or own id
        self.outer = outer  # not nested in a call of the same key


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.job: Optional[int] = None
        self.spans: list = []  # (job, id, parent, name, start, end, self)
        self.self_s: dict = defaultdict(float)
        self.counts: dict = defaultdict(int)
        self._stack: list = []
        self._next_id = 0
        self._undo: list = []

    # -- recording ------------------------------------------------------------------

    def call(self, fn, probe: Probe, name: str, args, kwargs):
        stack = self._stack
        parent = stack[-1] if stack else None
        outer = parent is None or parent.probe.key != probe.key
        if probe.count and outer:
            self.counts[probe.count] += 1
        span_id = None
        anchor = parent.anchor if parent is not None else None
        if probe.span:
            span_id = self._next_id
            self._next_id += 1
        frame = Frame(probe, name, parent, span_id if probe.span else anchor, outer)
        stack.append(frame)
        start = self.clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = self.clock()
            stack.pop()
            dur = end - start
            own = dur - frame.child
            self.self_s[probe.key] += own
            if parent is not None:
                parent.child += dur
            if probe.span:
                self.spans.append((self.job, span_id, anchor, name, start, end, own))
        if probe.hook is not None:
            probe.hook(self, frame, args, result)
        return result

    # -- installation ---------------------------------------------------------------

    def _wrap(self, fn, probe: Probe, name: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(fn, probe, name, args, kwargs)

        return wrapper

    def install(self, modules, probes: dict, default: Callable[[str], Probe]) -> None:
        """Wrap the public functions and methods defined in ``modules``.

        ``probes`` maps "module:qualname" (module's last dotted part) to a
        Probe; anything else gets ``default(module)``.
        """
        wrappers = {}  # id(original) -> wrapper
        classes = []
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            for name, val in vars(mod).items():
                if name.startswith("_") or getattr(val, "__module__", None) != mod.__name__:
                    continue
                if isinstance(val, FunctionType):
                    qual = f"{short}:{name}"
                    wrappers[id(val)] = self._wrap(val, probes.get(qual) or default(short), qual)
                elif isinstance(val, type):
                    classes.append(val)
                    for attr, member in vars(val).items():
                        fn = getattr(member, "__func__", member)
                        if not attr.startswith("_") and isinstance(fn, FunctionType):
                            qual = f"{short}:{name}.{attr}"
                            wrappers[id(fn)] = self._wrap(
                                fn, probes.get(qual) or default(short), qual)
        for owner in [*modules, *classes]:
            for key, val in list(vars(owner).items()):
                fn = val.__func__ if isinstance(val, (classmethod, staticmethod)) else val
                wrapper = wrappers.get(id(fn)) if isinstance(fn, FunctionType) else None
                if wrapper is not None:
                    self._undo.append((owner, key, val))
                    setattr(owner, key, wrapper if fn is val else type(val)(wrapper))

    def uninstall(self) -> None:
        for owner, key, val in reversed(self._undo):
            setattr(owner, key, val)
        self._undo.clear()

    # -- output ---------------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as fh:
            for job, sid, parent, name, start, end, own in self.spans:
                fh.write(json.dumps({"job": job, "id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end, "self": own}) + "\n")

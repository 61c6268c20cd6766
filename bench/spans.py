"""Spans around the public functions of eegmatch, recorded from outside.

A :class:`Tracer` replaces a function with a timing wrapper in every module
namespace of the package that holds it, so callers that imported it by name
(``from .model import forward_batch``) reach the wrapper too. Methods are
replaced on their class. Each call records a span: name, start, end, parent
span, the feature condition it ran under and an optional amount of work
(bytes, samples). Spans stay in memory until :meth:`Tracer.dump`.

The program itself is not modified; :meth:`Tracer.uninstall` puts every
original back.
"""

from __future__ import annotations

import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


def cpu_time() -> float:
    """CPU seconds of the benchmark process and of the children it waited for.

    On a shared virtual machine the host may take a vCPU away for seconds
    (steal time in /proc/stat); wall time counts that, CPU time does not.
    Child processes are counted so that work moved into a process pool still
    shows; the CPU time of every thread is summed, so work spread over cores
    reads as its total, not as the wall time it saves.
    """
    t = os.times()
    return time.process_time() + t.children_user + t.children_system


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    feature: str
    work: float


class Tracer:
    """In-memory span recorder; wrapping is a no-op while paused."""

    def __init__(self, clock: Callable[[], float] = cpu_time):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._feature: list[str] = [""]
        self._patched: list[tuple[object, str, object]] = []
        self.paused = False

    # -- recording -----------------------------------------------------
    def _open(self, name: str, feature: str | None) -> int:
        feat = self._feature[-1] if feature is None else feature
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), 0.0, parent, feat, 0.0))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        self._feature.append(feat)
        return idx

    def _close(self, idx: int, work: float = 0.0) -> None:
        span = self.spans[idx]
        span.end = self.clock()
        span.work = work
        self._stack.pop()
        self._feature.pop()

    @contextmanager
    def span(self, name: str, feature: str | None = None):
        """A span opened by the benchmark itself (a round, a setup, a scoring)."""
        if self.paused:
            yield
            return
        idx = self._open(name, feature)
        try:
            yield
        finally:
            self._close(idx)

    @contextmanager
    def pause(self):
        """Run checks without recording them."""
        before, self.paused = self.paused, True
        try:
            yield
        finally:
            self.paused = before

    def wrapper(self, name: str, fn, feature_of=None, work_of=None):
        """``fn`` recording a span per call.

        ``feature_of(args, kwargs)`` names the feature condition a call sets
        for its children; ``work_of(args, kwargs, result)`` measures its work.
        """
        tracer = self

        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            idx = tracer._open(name, feature_of(args, kwargs) if feature_of else None)
            work = 0.0
            try:
                result = fn(*args, **kwargs)
                if work_of is not None:
                    work = float(work_of(args, kwargs, result))
                return result
            finally:
                tracer._close(idx, work)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installing ----------------------------------------------------
    def install(self, owner, attr: str, name: str, package: str = "eegmatch", **hooks) -> None:
        """Wrap ``owner.attr`` wherever the package's modules look it up.

        ``owner`` is a module or a class. For a module function, every module
        of ``package`` whose namespace binds the same object gets the wrapper.
        """
        original = getattr(owner, attr)
        wrapped = self.wrapper(name, original, **hooks)
        if isinstance(owner, type):
            homes = [owner]
        else:
            homes = [
                mod for mod_name, mod in sorted(sys.modules.items())
                if (mod_name == package or mod_name.startswith(package + "."))
                and getattr(mod, attr, None) is original
            ]
        for home in homes:
            self._patched.append((home, attr, original))
            setattr(home, attr, wrapped)

    def uninstall(self) -> None:
        for home, attr, original in reversed(self._patched):
            setattr(home, attr, original)
        self._patched.clear()

    # -- reading -------------------------------------------------------
    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def children(self) -> list[list[int]]:
        kids: list[list[int]] = [[] for _ in self.spans]
        for i, s in enumerate(self.spans):
            if s.parent >= 0:
                kids[s.parent].append(i)
        return kids

    def self_times(self) -> list[float]:
        """Span duration minus the time its direct children cover.

        Calls are nested on one thread, so children never overlap one
        another and lie inside their parent.
        """
        out = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.end - s.start
        return out

    def dump(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "feature": s.feature, "work": s.work}
            for s in self.spans
        ]
        path.write_text(json.dumps({**extra, "spans": rows}), encoding="utf-8")

"""In-memory span tracer for the benchmark's traced run.

Spans are opened and closed by wrappers that the benchmark installs around
public ``lsc`` functions.  A wrapper replaces the function at every name a
caller looks it up by (module globals of every ``lsc`` module, or the class
attribute of a method), so that calls made from inside the library, such
as ``converged_spectrum`` calling ``eigs_tridiag``, are seen too.  Nothing
under ``src/`` is changed; uninstalling restores the original objects.

Self time of a span is its duration minus the durations of the child spans
it encloses.  Spans stay in memory; the caller writes them out once.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    name: str
    group: str
    parent: int  # index of the enclosing span, -1 at the top level
    start: float
    duration: float = 0.0
    self_time: float = 0.0
    work: dict = field(default_factory=dict)


class Tracer:
    """Nested span recorder; ``open``/``close`` must pair up like a stack."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[list] = []  # [span index, child time so far]

    def open(self, name: str, group: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append(Span(name, group, parent, self.clock()))
        self._stack.append([idx, 0.0])
        return idx

    def close(self, idx: int, work: dict | None = None) -> None:
        end = self.clock()
        top, child_time = self._stack.pop()
        if top != idx:
            raise RuntimeError(f"span {idx} closed while span {top} is open")
        span = self.spans[idx]
        span.duration = end - span.start
        span.self_time = span.duration - child_time
        if work:
            span.work = work
        if self._stack:
            self._stack[-1][1] += span.duration


@dataclass(frozen=True)
class Target:
    """A public function to wrap: ``owner`` is ``module`` or ``module:Class``."""

    owner: str
    attr: str
    group: str
    work: Callable | None = None  # (args, kwargs, result) -> {count: value}

    @property
    def name(self) -> str:
        return f"{self.owner.rsplit('.', 1)[-1].replace(':', '.')}.{self.attr}"


def _wrap(fn, tracer: Tracer, target: Target):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(target.name, target.group)
        work = None
        try:
            result = fn(*args, **kwargs)
            if target.work is not None:
                work = target.work(args, kwargs, result)
            return result
        finally:
            tracer.close(idx, work)

    return traced


class Installed:
    """Context manager that wraps every target at all of its lookup sites."""

    def __init__(self, tracer: Tracer, targets, modules):
        self.tracer = tracer
        self.targets = list(targets)
        self.modules = list(modules)
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Installed":
        for target in self.targets:
            module_name, _, cls_name = target.owner.partition(":")
            owner = importlib.import_module(module_name)
            if cls_name:
                owner = getattr(owner, cls_name)
            original = getattr(owner, target.attr)
            wrapped = _wrap(original, self.tracer, target)
            sites = [(owner, target.attr)]
            if not cls_name:
                sites += [
                    (mod, key)
                    for mod in self.modules
                    for key, value in list(vars(mod).items())
                    if value is original and (mod, key) != (owner, target.attr)
                ]
            for site, key in sites:
                self._undo.append((site, key, original))
                setattr(site, key, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        for site, key, original in reversed(self._undo):
            setattr(site, key, original)
        self._undo.clear()


def aggregate(spans: list[Span], passes: int) -> dict[str, float]:
    """Per-pass totals by group: ``calls``, ``self_s`` and every work count."""
    out: dict[str, float] = {}
    for span in spans:
        for key, value in (("calls", 1), ("self_s", span.self_time), *span.work.items()):
            metric = f"{span.group}.{key}"
            out[metric] = out.get(metric, 0.0) + value
    return {key: value / passes for key, value in out.items()}


def child_calls(spans: list[Span], parent_name: str, child_name: str) -> int:
    """Number of ``child_name`` spans opened directly inside a ``parent_name`` span."""
    return sum(
        1
        for span in spans
        if span.name == child_name
        and span.parent >= 0
        and spans[span.parent].name == parent_name
    )

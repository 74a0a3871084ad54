"""(wall, cpu) spans around the public entry points of repro's layers.

The benchmark traces the program from the outside: :meth:`Tracer.install`
replaces each :class:`Target` (a module function or a class attribute)
with a wrapper that records one span per call, and :meth:`Tracer.uninstall`
puts every original object back.  Nothing inside ``src/repro`` knows it
is being traced.

A span is ``(sid, parent, pid, layer, name, phase, w0, w1, c0, c1,
counts)``: wall times from ``time.perf_counter`` (CLOCK_MONOTONIC on
Linux, so spans from forked pool workers share one time axis), CPU
times from ``time.process_time``, and the counters the target's
``count`` hook derived from the call's arguments and result.  A span's
self time is its duration minus the durations of its direct children.

Forked pool workers inherit the wrappers.  A fork handler clears the
child's copy of the span buffer, and each worker appends its spans to
``<spool>/<pid>.pkl`` whenever its outermost span closes, so nothing is
lost when the pool terminates its workers.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import pickle
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional


class Span(NamedTuple):
    sid: int
    parent: int  # -1 for a root span of its process
    pid: int
    layer: str
    name: str
    phase: str
    w0: float
    w1: float
    c0: float
    c1: float
    counts: Optional[dict]

    @property
    def wall(self) -> float:
        return self.w1 - self.w0

    @property
    def cpu(self) -> float:
        return self.c1 - self.c0


@dataclass(frozen=True)
class Target:
    """One public entry point to wrap.

    ``qualname`` is ``"func"`` for a module function or
    ``"Class.attr"`` for a method (plain, class- or static-method).
    ``count(args, result, before)`` returns the span's counters;
    ``before(args)``, when given, runs just before the call and its
    value reaches ``count`` (e.g. a byte counter read on both sides).
    """

    layer: str
    module: str
    qualname: str
    count: Optional[Callable] = None
    before: Optional[Callable] = None


#: Stands in for the result of a call that raised.
_RAISED = object()


class Tracer:
    """Span buffer of one traced process tree."""

    def __init__(self, spool: Path) -> None:
        self.spool = Path(spool)
        self.root_pid = os.getpid()
        self.pid = self.root_pid
        self.phase = "setup"
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._next = 0
        self._patches: List[tuple] = []
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        self.pid = os.getpid()
        self.spans = []
        self._stack = []

    def _flush(self) -> None:
        self.spool.mkdir(parents=True, exist_ok=True)
        with open(self.spool / f"{self.pid}.pkl", "ab") as fh:
            pickle.dump(self.spans, fh)
        self.spans = []

    def wrap(self, target: Target, fn: Callable) -> Callable:
        """A recording stand-in for ``fn``."""
        tracer = self
        layer, name = target.layer, target.qualname
        count, before = target.count, target.before
        wall, cpu = time.perf_counter, time.process_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            sid = tracer._next
            tracer._next = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            prior = before(args) if before is not None else None
            result = _RAISED
            c0 = cpu()
            w0 = wall()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                w1 = wall()
                c1 = cpu()
                stack.pop()
                # Counters are read after the clocks stop.
                counts = None
                if count is not None and result is not _RAISED:
                    counts = count(args, result, prior)
                tracer.spans.append(
                    Span(sid, parent, tracer.pid, layer, name, tracer.phase,
                         w0, w1, c0, c1, counts)
                )
                if not stack and tracer.pid != tracer.root_pid:
                    tracer._flush()

        return traced

    # -- patching -------------------------------------------------------

    def install(self, targets: Iterable[Target]) -> None:
        """Wrap every target, including each ``repro`` module that
        imported a wrapped function under its own name."""
        for target in targets:
            module = importlib.import_module(target.module)
            owner_name, _, attr = target.qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                if isinstance(original, (classmethod, staticmethod)):
                    replacement = type(original)(
                        self.wrap(target, original.__func__)
                    )
                else:
                    replacement = self.wrap(target, original)
                self._patch(owner, attr, original, replacement)
                continue
            original = module.__dict__[attr]
            replacement = self.wrap(target, original)
            for other in _repro_modules():
                for key, value in list(vars(other).items()):
                    if value is original:
                        self._patch(other, key, original, replacement)

    def _patch(self, owner, attr, original, replacement) -> None:
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> List[str]:
        """Restore every patched attribute; returns the ones that do not
        hold their original object afterwards (empty when clean)."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        left = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self._patches
            if vars(owner).get(attr) is not original
        ]
        self._patches = []
        return left

    # -- collection -----------------------------------------------------

    def collect(self) -> List[Span]:
        """This process's spans plus every worker's spooled spans."""
        spans = list(self.spans)
        if self.spool.is_dir():
            for path in sorted(self.spool.glob("*.pkl")):
                # Only this tracer's own workers wrote these files.
                with open(path, "rb") as fh:
                    while True:
                        try:
                            spans.extend(pickle.load(fh))
                        except EOFError:
                            break
        return spans


def _repro_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


# -- arithmetic over a span list -------------------------------------------


def self_times(spans: List[Span]) -> Dict[tuple, float]:
    """``(pid, sid) -> self wall time``: duration minus direct children."""
    children: Dict[tuple, float] = defaultdict(float)
    for span in spans:
        if span.parent >= 0:
            children[(span.pid, span.parent)] += span.wall
    return {
        (span.pid, span.sid): span.wall - children[(span.pid, span.sid)]
        for span in spans
    }


def layer_self(
    spans: List[Span], pid: Optional[int] = None
) -> Dict[str, float]:
    """Self wall time per layer, over one process or all of them."""
    own = self_times(spans)
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        if pid is None or span.pid == pid:
            totals[span.layer] += own[(span.pid, span.sid)]
    return dict(totals)


def layer_calls(spans: List[Span]) -> Dict[str, int]:
    """Spans per layer, over every process and phase."""
    return dict(Counter(span.layer for span in spans))


def coverage(spans: List[Span], pid: int, wall: float) -> float:
    """Share of ``wall`` that the layers' self times (residual layers
    included) account for in process ``pid``: the reconciliation bar.

    When the measured call is itself a wrapped entry point, its span is
    the root of the process and this reads about 1 whatever the other
    wrappers catch; ``run.layer_checks`` is what notices a lost one."""
    if wall <= 0:
        return 0.0
    return sum(layer_self(spans, pid).values()) / wall


# -- Chrome trace-event output ---------------------------------------------


def write_chrome_trace(
    path: Path, spans: List[Span], names: Dict[int, str]
) -> None:
    """Write ``spans`` as Chrome trace-event JSON (one track per
    process), which Perfetto and chrome://tracing open offline."""
    origin = min((s.w0 for s in spans), default=0.0)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write('{"displayTimeUnit":"ms","traceEvents":[\n')
        first = True
        for pid in sorted({s.pid for s in spans}):
            meta = {
                "ph": "M", "name": "process_name", "pid": pid, "tid": pid,
                "args": {"name": names.get(pid, f"pool worker {pid}")},
            }
            fh.write(("" if first else ",\n") + json.dumps(meta))
            first = False
        for s in spans:
            args = {"phase": s.phase, "cpu_us": round(s.cpu * 1e6, 3)}
            if s.counts:
                args.update(s.counts)
            event = {
                "ph": "X", "name": s.name, "cat": s.layer,
                "pid": s.pid, "tid": s.pid,
                "ts": round((s.w0 - origin) * 1e6, 3),
                "dur": round(s.wall * 1e6, 3),
                "args": args,
            }
            fh.write(",\n" + json.dumps(event, separators=(",", ":")))
        fh.write("\n]}\n")

"""In-memory span recorder for the traced run.

A span is ``[id, parent, request id, name, start, end, value]``:
``start``/``end`` are ``perf_counter`` seconds of the recording
process, ``parent`` is the id of the span that was open on the calling
thread (or handed over with :meth:`Recorder.carry`), and ``value`` is
an optional number a wrapper attaches (for instance the worker-reported
stage seconds of a pool call). Spans stay in a list until
:meth:`Recorder.dump` writes them out once, at the end.

A layer's *self time* is its span's duration minus the part of that
interval covered by its child spans (:func:`self_times`); children
running in parallel on other threads count once, as the union of their
intervals.

Wrappers are installed from the benchmark's files only: :meth:`wrap`
replaces an attribute on the module or class where callers look it
up, so a function imported by name into another module must be
wrapped in that module. A process forked after installation (a pool
worker) inherits the wrappers but records nothing — :meth:`active`
is false outside the installing process.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from typing import (Any, Callable, Dict, Iterator, List, Optional,
                    Sequence, Tuple)

Span = List[Any]
ID, PARENT, RID, NAME, START, END, VALUE = range(7)


class Recorder:
    """Spans and counters of one process."""

    def __init__(self) -> None:
        self.owner = os.getpid()
        self.spans: List[Span] = []
        self.missing: List[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    # ------------------------------------------------------------------
    def active(self) -> bool:
        """Whether this process is the one that installed the
        recorder."""
        return os.getpid() == self.owner

    def _stack(self) -> List[Tuple[Optional[int], Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Tuple[Optional[int], Any]:
        """``(span id, request id)`` open on this thread."""
        stack = self._stack()
        return stack[-1] if stack else (None, None)

    @contextmanager
    def span(self, name: str, rid: Any = None) -> Iterator[Span]:
        """Record a span around a ``with`` block; yields the record
        so the block can set its ``value``."""
        parent, parent_rid = self.current()
        record: Span = [next(self._ids), parent,
                        parent_rid if rid is None else rid, name,
                        time.perf_counter(), None, None]
        stack = self._stack()
        stack.append((record[ID], record[RID]))
        try:
            yield record
        finally:
            stack.pop()
            record[END] = time.perf_counter()
            self.spans.append(record)

    @contextmanager
    def adopt(self, context: Tuple[Optional[int], Any]
              ) -> Iterator[None]:
        """Run a block on this thread as if ``context`` (a
        :meth:`current` value from another thread) were open."""
        stack = self._stack()
        stack.append(context)
        try:
            yield
        finally:
            stack.pop()

    def carry(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` bound to the caller's open span, for running on
        another thread."""
        context = self.current()

        def carried(*args: Any, **kwargs: Any) -> Any:
            with self.adopt(context):
                return fn(*args, **kwargs)
        return carried

    # ------------------------------------------------------------------
    def wrap(self, owner: Any, attr: str, name: str,
             rid_of: Optional[Callable[..., Any]] = None
             ) -> Optional[Callable[..., Any]]:
        """Replace ``owner.attr`` with a version that records a span
        named ``name``; returns the original, or ``None`` (noted in
        :attr:`missing`) when the attribute does not exist."""
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}"
                                f".{attr}")
            return None
        recorder = self

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not recorder.active():
                return original(*args, **kwargs)
            rid = rid_of(*args, **kwargs) if rid_of else None
            with recorder.span(name, rid):
                return original(*args, **kwargs)

        setattr(owner, attr, traced)
        return original

    def dump(self, path: str) -> None:
        """Write every span as one JSON document."""
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "missing": self.missing},
                      handle)


def load(path: str) -> Dict[str, Any]:
    """Read a :meth:`Recorder.dump` file."""
    with open(path) as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# self-time arithmetic
# ----------------------------------------------------------------------
def covered(interval: Tuple[float, float],
            children: Sequence[Tuple[float, float]]) -> float:
    """Length of ``interval`` covered by the union of ``children``
    (each clipped to the interval)."""
    start, end = interval
    clipped = sorted((max(s, start), min(e, end)) for s, e in children
                     if min(e, end) > max(s, start))
    total = 0.0
    run_start = run_end = None
    for s, e in clipped:
        if run_end is None or s > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = s, e
        else:
            run_end = max(run_end, e)
    if run_end is not None:
        total += run_end - run_start
    return total


def children_of(spans: Sequence[Span]) -> Dict[int, List[Span]]:
    """Child spans keyed by parent id."""
    index: Dict[int, List[Span]] = {}
    for span in spans:
        if span[PARENT] is not None:
            index.setdefault(span[PARENT], []).append(span)
    return index


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Self time (seconds) of every span, keyed by span id."""
    kids = children_of(spans)
    out: Dict[int, float] = {}
    for span in spans:
        interval = (span[START], span[END])
        inner = [(c[START], c[END]) for c in kids.get(span[ID], ())]
        out[span[ID]] = (interval[1] - interval[0]) - covered(interval,
                                                              inner)
    return out


def duration(span: Span) -> float:
    """A span's wall time in seconds."""
    return span[END] - span[START]

"""Open- and closed-loop load generation on at most two threads.

The load generator is one process. Its calling thread is one worker;
a second thread is started only when a phase needs two concurrent
callers (two keep-alive connections).

**Open loop.** Request ``i`` is *due* at ``t0 + i / rate``, whether or
not earlier requests have returned. A worker takes the next request,
sleeps until it is due, sends it and waits for the reply. Latency is
counted from the due time, so a stall charges every request queued
behind it, not only the one that hit it. The generator's own lateness
(:attr:`Sample.lag`) is how long after ``max(due, worker free)`` the
request actually went out: waiting for a busy connection is the
program's doing, oversleeping is the generator's.

**Closed loop.** Each worker sends its next request as soon as the
previous one returned; the phase ends once it has run for the given
seconds *and* completed the given minimum of requests.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

Send = Callable[[int], Any]
Idle = Callable[[float], None]


@dataclass
class Sample:
    """One request as the generator saw it (``perf_counter`` s)."""

    index: int
    due: float
    sent: float
    done: float
    lag: float
    outcome: Any

    @property
    def latency(self) -> float:
        """Seconds from due time to reply."""
        return self.done - self.due

    @property
    def wall(self) -> float:
        """Seconds the client call itself took."""
        return self.done - self.sent


def _on_threads(workers: Sequence[Callable[[], None]]) -> None:
    """Run one callable on this thread and the rest on new threads;
    re-raise the first failure."""
    errors: List[BaseException] = []

    def guarded(fn: Callable[[], None]) -> Callable[[], None]:
        def run() -> None:
            try:
                fn()
            except BaseException as error:  # noqa: BLE001 — re-raised
                errors.append(error)
        return run

    threads = [threading.Thread(target=guarded(fn), daemon=True)
               for fn in workers[1:]]
    for thread in threads:
        thread.start()
    guarded(workers[0])()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def open_loop(count: int, rate: float, send: Send, threads: int = 1,
              idle: Optional[Idle] = None) -> List[Sample]:
    """Send ``count`` requests due ``1 / rate`` apart on ``threads``
    workers; returns samples in request order."""
    t0 = time.perf_counter() + 0.01
    lock = threading.Lock()
    cursor = [0]
    samples: List[Optional[Sample]] = [None] * count

    def worker() -> None:
        free = time.perf_counter()
        while True:
            with lock:
                index = cursor[0]
                if index >= count:
                    return
                cursor[0] += 1
            due = t0 + index / rate
            if idle is not None:
                idle(due)
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            sent = time.perf_counter()
            outcome = send(index)
            done = time.perf_counter()
            samples[index] = Sample(index, due, sent, done,
                                    sent - max(due, free), outcome)
            free = done

    _on_threads([worker] * threads)
    return [sample for sample in samples if sample is not None]


def call(index: int, send: Send) -> Sample:
    """Send request ``index`` now and time it (a closed-loop sample:
    due when sent, no lag)."""
    sent = time.perf_counter()
    outcome = send(index)
    done = time.perf_counter()
    return Sample(index, sent, sent, done, 0.0, outcome)


def closed_loop(count: int, send: Send, threads: int, seconds: float,
                min_count: int) -> Tuple[List[Sample], float]:
    """Send requests ``0 .. count-1`` back to back on ``threads``
    workers until ``seconds`` have passed and ``min_count`` replies
    arrived (or the requests run out). Returns the samples and the
    phase's wall time up to its last reply."""
    lock = threading.Lock()
    cursor = [0]
    samples: List[Sample] = []
    t0 = time.perf_counter()

    def worker() -> None:
        while True:
            with lock:
                index = cursor[0]
                if index >= count or (
                        len(samples) >= min_count
                        and time.perf_counter() - t0 >= seconds):
                    return
                cursor[0] += 1
            sample = call(index, send)
            with lock:
                samples.append(sample)

    _on_threads([worker] * threads)
    end = max((s.done for s in samples), default=t0)
    samples.sort(key=lambda s: s.index)
    return samples, end - t0


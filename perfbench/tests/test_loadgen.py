"""Open-loop due-time accounting and the closed-loop stop rule."""

import threading
import time

import pytest

import loadgen


def test_open_loop_charges_a_stall_to_the_requests_queued_behind_it():
    def send(index):
        if index == 0:
            time.sleep(0.30)
        return index

    samples = loadgen.open_loop(5, rate=20.0, send=send, threads=1)
    assert [s.index for s in samples] == list(range(5))
    first, second = samples[0], samples[1]
    # due 50 ms apart, but request 1 could only go out after the stall
    assert second.due - first.due == pytest.approx(0.05, abs=1e-6)
    assert second.sent >= first.done
    assert second.latency >= 0.30 - 0.05 - 0.01
    assert second.latency > second.wall
    # the generator was not late: the connection was busy
    assert all(s.lag < 0.02 for s in samples)


def test_open_loop_keeps_schedule_when_the_program_is_fast():
    samples = loadgen.open_loop(10, rate=100.0, send=lambda i: i)
    for sample in samples:
        assert sample.sent >= sample.due - 1e-4
        assert sample.latency == pytest.approx(sample.wall, abs=0.01)
    span = samples[-1].due - samples[0].due
    assert span == pytest.approx(0.09, abs=1e-6)


def test_open_loop_spreads_over_two_workers():
    threads = set()

    def send(index):
        threads.add(threading.get_ident())
        time.sleep(0.05)
        return index

    samples = loadgen.open_loop(6, rate=100.0, send=send, threads=2)
    assert len(samples) == 6
    assert len(threads) == 2


def test_idle_hook_sees_each_due_time():
    seen = []
    loadgen.open_loop(3, rate=50.0, send=lambda i: i, idle=seen.append)
    assert len(seen) == 3
    assert seen[1] - seen[0] == pytest.approx(0.02, abs=1e-6)


def test_closed_loop_runs_until_time_and_minimum():
    samples, elapsed = loadgen.closed_loop(
        1000, lambda i: time.sleep(0.001), threads=1, seconds=0.0,
        min_count=7)
    assert len(samples) == 7
    assert elapsed > 0
    samples, _ = loadgen.closed_loop(3, lambda i: i, threads=2,
                                     seconds=10.0, min_count=100)
    assert len(samples) == 3              # ran out of requests


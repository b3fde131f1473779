"""How much work a run sends (fixed by the arguments, not the speed)
and how engine-imdb's passes combine."""

import loadgen
import traffic
import workloads


def run(seconds, scale="bench", trace=False):
    return workloads.Run(seed=1, seconds=seconds, trace=trace,
                         scale=workloads.SCALES[scale], work=None)


def test_engine_imdb_sends_whole_rounds_enough_for_its_percentiles():
    size = traffic.engine_round(workloads.IMDB_RMAX)
    available = len(traffic.engine_stream(1, workloads.IMDB_RMAX))
    for seconds in (1, 8, 20):
        count = workloads.engine_count(run(seconds), available)
        assert count % size == 0 and count >= 20
        traced = workloads.engine_count(run(seconds, trace=True), available)
        assert traced % size == 0 and traced >= 200
    assert workloads.engine_count(run(10), available) == 3 * size
    assert workloads.engine_count(run(10, trace=True),
                                  available) == 5 * size
    assert workloads.engine_count(run(600), available) <= available


def test_served_reads_reach_the_sample_minimum_at_a_fixed_mix():
    assert workloads.read_counts(run(8)) == (32, 168)
    assert workloads.read_counts(run(10)) == (40, 200)


def test_seeds_order_the_same_requests_within_each_phase():
    first = traffic.zipf_stream(1, [40, 200])
    second = traffic.zipf_stream(2, [40, 200])
    assert first != second
    key = lambda q: (q.keywords, q.rmax, q.k)
    assert sorted(first[:40], key=key) == sorted(second[:40], key=key)
    assert sorted(first[40:], key=key) == sorted(second[40:], key=key)
    assert traffic.zipf_stream(1, [40, 200]) == first


def test_ingest_sends_enough_deltas_for_p75_and_reads_for_p95():
    assert workloads.ingest_counts(run(1)) == (40, 200)
    assert workloads.ingest_counts(run(10)) == (64, 256)


def drive(latencies, gaps, failed=()):
    samples = [loadgen.Sample(i, 0.0, 0.0, latency, 0.0,
                              None if i in failed else ())
               for i, latency in enumerate(latencies)]
    return workloads.EngineDrive(samples, 1.0, dict(enumerate(gaps)),
                                 {}, {})


def test_best_of_takes_each_query_and_answer_at_its_fastest_pass():
    first = drive([3.0, 1.0, 5.0], [[1.0, 2.0], [0.5], [4.0]])
    second = drive([2.0, 2.0, 6.0], [[1.5, 0.5], [0.7], [3.0]],
                   failed={2})
    latencies, gaps = workloads.best_of([first, second])
    assert latencies == [2.0, 1.0]            # query 2 failed once
    assert gaps == [1.0, 0.5, 0.5]

"""Tests of the benchmark's own arithmetic and tracing wrappers.

    python3 -m pytest perfbench
"""

import os
import subprocess
import sys
import threading
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.api import run_fleet  # noqa: E402
from repro.cluster.network import NetworkPartitioned  # noqa: E402
from repro.cluster.rpc import RpcError  # noqa: E402
from repro.sim import Environment  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from spans import SpanCosts, SpanTracer, _resumes, call_wrapper, resume_wrapper, traced  # noqa: E402
from stats import MIN_BEYOND, fold_child, median, percentile, samples_beyond  # noqa: E402


class FakeClock:
    """A clock that returns scripted times, one per call."""

    def __init__(self, *times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


# -- self time ----------------------------------------------------------------


def covered_by(children):
    """Fold children, ordered by start as the tracer sees them, into a parent."""
    covered, cover_end = 0.0, float("-inf")
    for start, end in children:
        covered, cover_end = fold_child(covered, cover_end, start, end)
    return covered


def test_fold_child_sums_disjoint_children():
    assert covered_by([(1.0, 2.0), (5.0, 9.0)]) == 5.0


def test_fold_child_counts_overlapping_children_once():
    # [1, 4) and [3, 6) overlap on [3, 4): together they cover 5, not 6.
    assert covered_by([(1.0, 4.0), (3.0, 6.0), (8.0, 9.0)]) == 6.0


def test_fold_child_ignores_a_child_inside_an_earlier_one():
    assert covered_by([(1.0, 6.0), (2.0, 3.0), (8.0, 9.0)]) == 6.0


def test_tracer_self_times_partition_the_root_span():
    # root [0, 10) holds child a [1, 4), which holds grandchild b [2, 3),
    # then child c [5, 9).
    tracer = SpanTracer(clock=FakeClock(0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0))
    root = tracer.open("sim", "root", 0.0, 0.0)
    a = tracer.open("cluster", "a", 0.0, 0.0)
    b = tracer.open("storage", "b", 0.0, 0.0)
    tracer.close(b)
    tracer.close(a)
    c = tracer.open("storage", "c", 0.0, 0.0)
    tracer.close(c)
    tracer.close(root)
    assert tracer.self_s == {"sim": 3.0, "cluster": 2.0, "storage": 5.0}
    assert tracer.root_s == 10.0
    assert tracer.inclusive_s["a"] == 3.0


def test_tracer_moves_wrapper_costs_to_overhead():
    costs = SpanCosts(call_parent=0.25, call_self=0.5)
    tracer = SpanTracer(clock=FakeClock(0.0, 1.0, 3.0, 10.0), costs=costs)
    root = tracer.open("sim", "root", 0.0, 0.0)
    child = tracer.open("cluster", "child", costs.call_parent, costs.call_self)
    tracer.close(child)
    tracer.close(root)
    assert tracer.self_s["cluster"] == 1.5
    assert tracer.self_s["sim"] == 7.75
    assert sum(tracer.self_s.values()) + tracer.overhead_s == tracer.root_s


def test_tracer_rejects_spans_closed_out_of_order():
    tracer = SpanTracer()
    outer = tracer.open("sim", "outer", 0.0, 0.0)
    tracer.open("cluster", "inner", 0.0, 0.0)
    with pytest.raises(RuntimeError):
        tracer.close(outer)


# -- tail percentile rule -------------------------------------------------------


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile(values, 100) == 100
    assert percentile([7.0], 90) == 7.0
    assert median([3.0, 1.0, 2.0, 10.0]) == 2.5


@pytest.mark.parametrize("n, beyond", [(9, 0), (99, 9), (100, 10), (360, 36), (1000, 100)])
def test_p90_counts_only_with_ten_samples_beyond_it(n, beyond):
    assert samples_beyond(n, 90) == beyond
    assert (samples_beyond(n, 90) >= MIN_BEYOND) == (n >= 100)


def test_p90_of_240_windows_leaves_24_beyond():
    assert samples_beyond(240, 90.0) == 24


# -- wrappers pass values and errors through unchanged --------------------------


def _traced_calls(fn):
    tracer = SpanTracer()
    return call_wrapper(fn, "fn", lambda _a: "cluster", tracer), tracer


def _traced_gen(fn):
    tracer = SpanTracer()
    return resume_wrapper(fn, "gen", lambda _a: "platforms.spanner", tracer), tracer


def test_call_wrapper_returns_values_and_raises_unchanged():
    error = NetworkPartitioned("partitioned")

    def fabric(x, *, scale):
        if x < 0:
            raise error
        return x * scale

    wrapped, tracer = _traced_calls(fabric)
    assert wrapped(3, scale=2.0) == 6.0
    with pytest.raises(NetworkPartitioned) as raised:
        wrapped(-1, scale=1.0)
    assert raised.value is error
    assert tracer.calls["fn", "cluster"] == 2
    assert not tracer.stack


def test_resume_wrapper_passes_sent_values_and_stop_iteration_value():
    def query():
        first = yield "a"
        second = yield first + 1
        return ("done", second)

    def caller(gen):
        result = yield from gen
        return result

    wrapped, tracer = _traced_gen(query)
    plain, traced_run = caller(query()), caller(wrapped())
    assert plain.send(None) == traced_run.send(None) == "a"
    assert plain.send(10) == traced_run.send(10) == 11
    with pytest.raises(StopIteration) as plain_stop:
        plain.send(20)
    with pytest.raises(StopIteration) as traced_stop:
        traced_run.send(20)
    assert traced_stop.value.value == plain_stop.value.value == ("done", 20)
    assert tracer.calls["gen", "platforms.spanner"] == 1
    assert tracer.inclusive_s["gen"] > 0.0
    assert not tracer.stack


@pytest.mark.parametrize("error", [RpcError("refused"), NetworkPartitioned("cut")])
def test_resume_wrapper_raises_inner_errors_unchanged(error):
    def query():
        yield "wait"
        raise error

    wrapped, tracer = _traced_gen(query)
    gen = wrapped()
    next(gen)
    with pytest.raises(type(error)) as raised:
        gen.send(None)
    assert raised.value is error
    assert not tracer.stack


@pytest.mark.parametrize("error", [RpcError("deadline"), NetworkPartitioned("cut")])
def test_resume_wrapper_throws_into_the_inner_generator(error):
    def query():
        try:
            yield "wait"
        except (RpcError, NetworkPartitioned) as caught:
            return caught

    wrapped, _ = _traced_gen(query)
    gen = wrapped()
    next(gen)
    with pytest.raises(StopIteration) as stop:
        gen.throw(error)
    assert stop.value.value is error

    uncaught = _resumes(iter_once(), "gen", "sim", SpanTracer())
    next(uncaught)
    with pytest.raises(type(error)) as raised:
        uncaught.throw(error)
    assert raised.value is error


def iter_once():
    yield "only"


def test_resume_wrapper_drives_a_simulation_process():
    env = Environment()

    def worker(env, delay):
        yield env.timeout(delay)
        return env.now * 2

    wrapped, tracer = _traced_gen(worker)
    process = env.process(wrapped(env, 3.0))
    assert env.run(until=process) == 6.0
    assert process.name == "worker"
    assert not tracer.stack


# -- traced runs ----------------------------------------------------------------


def test_traced_run_matches_untraced_and_restores_the_program():
    import repro.sim.engine as engine

    config = {"queries": {"Spanner": 4, "BigTable": 4, "BigQuery": 1},
              "bigquery_dataset_rows": 1500, "seed": 3}
    run_before = engine.Environment.run
    plain = run_fleet(config)
    tracer = SpanTracer()
    with traced(tracer):
        assert engine.Environment.run is not run_before
        traced_result = run_fleet(config)
    assert engine.Environment.run is run_before
    assert repr(traced_result.snapshot()) == repr(plain.snapshot())
    assert not tracer.stack
    assert tracer.self_s["sim"] > 0.0
    assert tracer.calls["PlatformBase.run_query", "platforms.spanner"] == 4
    total = sum(tracer.self_s.values()) + tracer.overhead_s
    assert abs(total - tracer.root_s) <= 1e-9 * max(tracer.root_s, 1.0)


# -- host-speed correction keeps slowdowns the program causes -------------------
#
# The probe times only its own fixed work, so a slowdown of the timed body
# that the program causes itself must survive the correction: corrected
# time must grow by the same ratio as raw time.  Interleaved pairs and
# medians keep the host's own swings out of the ratios.

#: A plain body of about 0.2 s, so that each timing takes several probes.
QUERIES = 500
WORK_PER_QUERY = 10000
PAIRS = 7


def _spin(n):
    total = 0
    for i in range(n):
        total += i & 7
    return total


def _queries(extra_per_query=0):
    for _ in range(QUERIES):
        _spin(WORK_PER_QUERY + extra_per_query)


def _timed(body):
    with HostSpeed() as speed:
        began = time.perf_counter()
        body()
        raw = time.perf_counter() - began
    return raw, raw * speed.factor()


def _slowdown(slowed):
    """Median raw and corrected ratios of ``slowed`` to plain time."""
    raw, corrected = [], []
    for _ in range(PAIRS):
        base, slow = _timed(_queries), _timed(slowed)
        raw.append(slow[0] / base[0])
        corrected.append(slow[1] / base[1])
    return median(raw), median(corrected)


def _assert_tracks(raw, corrected):
    # A thread on the other core slows the probe itself a little (shared
    # interpreter state moves between the cores): its corrected ratio read
    # 0.81 to 1.05 of the raw ratio over twelve trials.
    assert raw > 1.5, f"the injected slowdown did not slow the body ({raw:.2f}x)"
    assert 0.7 <= corrected / raw <= 1.3, (
        f"raw time grew {raw:.2f}x but corrected time {corrected:.2f}x"
    )


def test_correction_keeps_extra_work_per_query():
    _assert_tracks(*_slowdown(lambda: _queries(extra_per_query=WORK_PER_QUERY)))


def test_correction_keeps_a_thread_contending_for_the_interpreter():
    def contended():
        stop = threading.Event()
        thread = threading.Thread(target=lambda: [_spin(1000) for _ in iter(stop.is_set, True)])
        thread.start()
        try:
            _queries()
        finally:
            stop.set()
            thread.join()

    _assert_tracks(*_slowdown(contended))


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_correction_keeps_a_process_sharing_the_core():
    cpu = min(os.sched_getaffinity(0))
    spinner = [sys.executable, "-c",
               f"import os\nos.sched_setaffinity(0, {{{cpu}}})\nwhile True: pass"]
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    raw, corrected = [], []
    try:
        for _ in range(PAIRS):
            base = _timed(_queries)
            child = subprocess.Popen(spinner)
            try:
                time.sleep(0.1)
                slow = _timed(_queries)
            finally:
                child.kill()
                child.wait()
            raw.append(slow[0] / base[0])
            corrected.append(slow[1] / base[1])
    finally:
        os.sched_setaffinity(0, allowed)
    _assert_tracks(median(raw), median(corrected))

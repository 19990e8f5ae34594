"""Property suite for the calendar-queue scheduler behind the columnar engine.

Three properties pin the scheduler to the heap engine's contract:

* drains retire entries in globally nondecreasing ``(time, counter)`` key
  order, no matter how blocks overlap;
* a columnar environment fires the same schedule in exactly the heap
  engine's order, ties included (both sides allocate the same counters);
* interleaving pushes with partial drains never drops or duplicates an
  entry, and the engine telemetry counts every firing exactly once.

A fourth pins the columnar chunker's run-length routing to the heap
chunker on both sides of ``SMALL_RUN_CHUNKS``, and a fleet run whose CPU
runs fall on both sides must match the heap engine's snapshot.  The
environment alone picks the lane: a platform built directly on either
environment carries that lane's chunker and measures the same run.

Strategies live in :mod:`tests.strategies` (``time_columns``,
``schedule_plans``) so the differential-harness tests can reuse them.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.node import SMALL_RUN_CHUNKS
from repro.platforms.bigquery import BigQueryEngine
from repro.platforms.bigtable import BigTableStore
from repro.platforms.common import ChunkBlock, ColumnarCpuChunker, CpuChunker
from repro.platforms.spanner import SpannerDatabase
from repro.profiling.gwp import FleetProfiler
from repro.sim import Environment
from repro.sim.columnar import CalendarQueue, CallBlock, ColumnarEnvironment
from repro.sim.engine import SimulationError
from repro.workloads.calibration import build_profile, cpu_component_fractions
from repro.workloads.fleet import FleetSimulation
from tests.strategies import schedule_plans, time_columns

import pytest

_INF = float("inf")


# -- drain order --------------------------------------------------------------


@given(st.lists(time_columns(), min_size=1, max_size=5))
@settings(max_examples=60, deadline=None)
def test_calendar_drains_nondecreasing_keys(runs):
    """Repeated head drains retire keys in global (time, counter) order."""
    queue = CalendarQueue()
    fired = []
    counter = 0
    blocks = []
    for times in runs:
        base = counter
        counter += len(times)
        block = CallBlock(times, base, lambda: None)

        def log(block=block):
            index = block.index - 1  # fire_one advances before calling
            fired.append((block.times[index], block.base + index))

        block.fn = log
        blocks.append(block)
        queue.add(block)

    while queue:
        count, _, had_block = queue.drain_head(_INF, 0)
        assert had_block and count > 0  # a head drain always makes progress

    assert fired == sorted(fired)
    expected = sorted(
        (when, block.base + k)
        for block in blocks
        for k, when in enumerate(block.times)
    )
    assert fired == expected  # every entry fired exactly once


# -- tie-breaking parity with the heap engine ---------------------------------


def _apply(env, ops, log):
    """Schedule ``ops`` on either engine, logging ``(op, now)`` per firing."""
    for op, (kind, payload) in enumerate(ops):
        def fire(op=op):
            log.append((op, env.now))

        if kind == "block":
            if isinstance(env, ColumnarEnvironment):
                env.schedule_block(payload, fire)
            else:
                env.schedule_calls(payload, fire)
        else:
            env.schedule_call(payload, fire)


@given(schedule_plans())
@settings(max_examples=60, deadline=None)
def test_columnar_fires_in_heap_order_ties_included(ops):
    """The same plan fires identically on both engines, ties included.

    ``schedule_plans`` draws times off a coarse grid, so equal timestamps
    across blocks and bare calls are common -- the order then rests
    entirely on counter allocation, which must match the heap's.
    """
    heap_log, col_log = [], []
    heap_env, col_env = Environment(), ColumnarEnvironment()
    _apply(heap_env, ops, heap_log)
    _apply(col_env, ops, col_log)
    heap_env.run()
    col_env.run()

    assert col_log == heap_log
    assert col_env.now == heap_env.now
    assert col_env.events_processed == heap_env.events_processed
    assert col_env.stats() == heap_env.stats()


# -- interleaved push/pop -----------------------------------------------------


@given(
    st.lists(
        st.tuples(
            schedule_plans(max_ops=4),
            st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
        ),
        min_size=1,
        max_size=3,
    )
)
@settings(max_examples=60, deadline=None)
def test_interleaved_push_pop_never_drops_or_duplicates(phases):
    """Pushing between partial drains loses nothing and repeats nothing.

    Each phase schedules fresh work (times offset to the current clock)
    and then advances the clock a bounded amount, so blocks routinely
    straddle deadlines half-drained.  Every ``call`` op also pushes a
    child call at its own firing time from inside its callback --
    a push landing mid-drain with a tie against the in-flight entry.
    """
    env = ColumnarEnvironment()
    fired = {}
    expected = {}
    uid = 0
    for ops, advance in phases:
        now = env.now
        for kind, payload in ops:
            op = uid
            uid += 1
            if kind == "block":
                times = [now + t for t in payload]
                expected[op] = len(times)

                def fire_block(op=op):
                    fired[op] = fired.get(op, 0) + 1

                env.schedule_block(times, fire_block)
            else:
                expected[op] = 2  # the call plus the child it schedules

                def make_call(op):
                    def fire_call():
                        fired[op] = fired.get(op, 0) + 1
                        if fired[op] == 1:
                            env.schedule_call(env.now, fire_call)

                    return fire_call

                env.schedule_call(now + payload, make_call(op))
        env.run(until=env.now + advance)
    env.run()

    assert fired == expected
    assert env.events_processed == sum(expected.values())
    assert env.stats()["queue_depth"] == 0.0


# -- scheduler contract edges -------------------------------------------------


def test_schedule_block_rejects_decreasing_times():
    env = ColumnarEnvironment()
    with pytest.raises(ValueError):
        env.schedule_block([0.2, 0.1], lambda: None)


def test_add_block_rejects_past_and_exhausted_blocks():
    env = ColumnarEnvironment()
    env.schedule_call(1.0, lambda: None)
    env.run()
    stale = CallBlock([0.5], env.reserve_counters(1), lambda: None)
    with pytest.raises(ValueError):
        env.add_block(stale)  # starts before the current clock
    drained = CallBlock([2.0], env.reserve_counters(1), lambda: None)
    drained.fire_one()
    with pytest.raises(SimulationError):
        env.calendar.add(drained)


# -- run-length routing -------------------------------------------------------

_CATEGORIES = sorted(cpu_component_fractions("BigQuery"))
_CHUNK = 100e-6


@given(
    weights=st.dictionaries(
        st.sampled_from(_CATEGORIES),
        st.floats(min_value=0.01, max_value=1.0),
        min_size=1,
        max_size=len(_CATEGORIES),
    ),
    bound=st.floats(min_value=60.0, max_value=68.0),
    warmup=st.floats(min_value=0.0, max_value=80 * _CHUNK),
    after=st.floats(min_value=0.0, max_value=200 * _CHUNK),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_routing_boundary_matches_heap_chunker(weights, bound, warmup, after, seed):
    """Both sides of the cutoff emit the heap chunker's chunks exactly.

    ``t_cpu`` is drawn so the chunk-count bound ``t_cpu / chunk_seconds +
    categories`` lands in 60-68, straddling ``SMALL_RUN_CHUNKS``; a warm-up
    call moves the rotation off zero first and a follow-up call checks the
    rotation both chunkers leave behind.
    """
    t_cpu = (bound - len(weights)) * _CHUNK
    heap = CpuChunker(weights, rng=np.random.default_rng(seed))
    col = ColumnarCpuChunker(weights, rng=np.random.default_rng(seed))
    assert list(col.chunks(warmup)) == heap.chunks(warmup)

    expected = heap.chunks(t_cpu)
    routed = col.chunks(t_cpu)
    if t_cpu / _CHUNK + len(weights) < SMALL_RUN_CHUNKS:
        assert type(routed) is list
    else:
        assert type(routed) is ChunkBlock
    assert list(routed) == expected
    assert col._rng.bit_generator.state == heap._rng.bit_generator.state
    assert col._offsets == heap._offsets
    assert list(col.chunks(after)) == heap.chunks(after)


def _direct_platform(cls, env_cls, name):
    """One platform built straight on an environment, no FleetSimulation."""
    kwargs = {"dataset_rows": 1500} if cls is BigQueryEngine else {}
    return cls(
        env_cls(),
        build_profile(name),
        profiler=FleetProfiler(sample_period=1e-3),
        seed=5,
        **kwargs,
    )


def test_default_engine_matches_heap_across_the_cutoff(monkeypatch):
    """A BigQuery + OLTP mix on the default engine equals the heap run.

    BigQuery runs are thousands of chunks (blocks); OLTP runs are a few
    dozen (lists on the heap recorder), so the mix covers both routes.
    The same holds for platforms built directly on each environment: the
    environment class alone selects the chunker, before and after the
    per-query stream rebase.
    """
    routes = set()
    chunks = ColumnarCpuChunker.chunks

    def recording(self, t_cpu):
        out = chunks(self, t_cpu)
        routes.add(type(out))
        return out

    monkeypatch.setattr(ColumnarCpuChunker, "chunks", recording)
    mix = dict(
        queries={"Spanner": 6, "BigTable": 6, "BigQuery": 2},
        seed=3,
        bigquery_dataset_rows=1500,
        observability=True,
    )
    default = FleetSimulation(**mix)
    assert default.engine == "columnar"
    default = default.run()
    heap = FleetSimulation(engine="heap", **mix).run()

    assert routes == {list, ChunkBlock}
    assert default.snapshot(traces=True) == heap.snapshot(traces=True)
    for name, platform in heap.platforms.items():
        assert default.platforms[name].env.events_processed == (
            platform.env.events_processed
        )

    for cls, name in (
        (SpannerDatabase, "Spanner"),
        (BigTableStore, "BigTable"),
        (BigQueryEngine, "BigQuery"),
    ):
        legs = {}
        for env_cls, chunker_cls in (
            (Environment, CpuChunker),
            (ColumnarEnvironment, ColumnarCpuChunker),
        ):
            platform = _direct_platform(cls, env_cls, name)
            assert type(platform.chunker) is chunker_cls
            platform.seed_query_streams(3)
            assert type(platform.chunker) is chunker_cls
            # Serve on a fresh instance: the rebase above moved the streams.
            platform = _direct_platform(cls, env_cls, name)
            env = platform.env
            env.run(until=env.process(platform.serve(2)))
            legs[env_cls] = (
                platform.records,
                list(platform.profiler.samples),
                env.events_processed,
            )
        assert legs[Environment] == legs[ColumnarEnvironment]
        assert legs[Environment][1], f"{name} recorded no samples"

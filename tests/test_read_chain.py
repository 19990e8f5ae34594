"""Chained IO budgets (``PlatformBase.read_budget``) against their oracle.

``read_budget`` runs a budget's clean-state DFS reads as one event-loop
chain and resumes its process once, when the chain ends.  Its contract is
that nothing observable moves relative to the op-at-a-time loop it
replaced: :meth:`PlatformBase.realize_budget` driving one ``dfs.read``
generator per draw.  That oracle is rebuilt here from those two public
pieces, and both run in twin worlds on the same scripted draws.  Each
case ends the chain a different way; the twins must agree on span ids,
intervals and annotations, on ``events_processed`` and the heap sequence
counter, on every tier tally and device counter, on the fabric counters,
on the ``remaining`` values the draws saw and on how the budget ended.

Also here: the draw identity the platforms rely on (``x * random()`` is
``uniform(0, x)``, bit for bit and state for state), and DFS caches under
recycled object ids.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.network import (
    Locality,
    NetworkFabric,
    NetworkPartitioned,
    Topology,
    TopologySelector,
)
from repro.cluster.node import WorkContext
from repro.platforms.common import PlatformBase
from repro.profiling.dapper import SpanKind, Trace
from repro.sim import Environment, Interrupt
from repro.storage import DistributedFileSystem, StorageServer, TieredStore
from repro.storage.device import DeviceParams
from repro.workloads.calibration import SPANNER, build_profile

KB = 1024.0
MB = 1024.0 * KB
CHUNK = 256 * KB
#: The reader sits in its own rack, so each storage rack can be cut off
#: from it separately.
READER_RACK = "rr"


class _Reader(PlatformBase):
    platform_name = "Reader"

    def _execute(self, ctx, plan):  # pragma: no cover - never served
        raise NotImplementedError


class _World:
    """One DFS (four servers, one per rack) plus a platform reading it."""

    def __init__(self, free: bool = False):
        self.env = env = Environment()
        servers = [
            StorageServer(
                index=i,
                topology=Topology("us", "us-c0", f"r{i}"),
                store=TieredStore(
                    ram_bytes=768 * KB, ssd_bytes=3 * MB, hdd_bytes=360 * MB
                ),
            )
            for i in range(4)
        ]
        fabric = NetworkFabric()
        if free:
            # Reads that take no simulated time at all.
            fabric = NetworkFabric(
                latency={Locality.SAME_CLUSTER: 0.0},
                bandwidth={Locality.SAME_CLUSTER: float("inf")},
            )
            for server in servers:
                for device in server.store.devices:
                    device.params = DeviceParams(0.0, 0.0, float("inf"), float("inf"))
        self.dfs = DistributedFileSystem(
            env, fabric, servers, replication=3, chunk_bytes=CHUNK
        )
        # Chunk k of /a has replicas {k, k+1, k+2} mod 4; /b continues the
        # round-robin where /a stopped.
        self.dfs.create("/a", 8 * CHUNK)
        self.dfs.create("/b", 5.5 * CHUNK)
        self.platform = _Reader(env, build_profile(SPANNER), seed=0)
        self.platform.dfs = self.dfs
        self.platform._io_rate = 2e-9
        self.reader = Topology("us", "us-c0", READER_RACK)
        self.trace = Trace(0, "q", 0.0)
        self.ctx = WorkContext(platform="Reader", trace=self.trace)
        self.seen: list[float] = []
        self.dfs_reads = 0
        real_read = self.dfs.read

        def counted_read(*args, **kwargs):
            self.dfs_reads += 1
            return real_read(*args, **kwargs)

        self.dfs.read = counted_read

    def cut(self, *racks: str):
        """Partition the reader's rack from each of ``racks``."""
        for rack in racks:
            self.dfs.fabric.partition(
                TopologySelector(rack=READER_RACK), TopologySelector(rack=rack)
            )

    def surface(self):
        dfs = self.dfs
        stores = []
        for server in dfs.servers:
            store = server.store
            stores.append((
                store.stats.accesses,
                dict(store.stats.hits),
                [(d.bytes_read, d.reads, d.bytes_written, d.writes)
                 for d in store.devices],
            ))
        return {
            "now": self.env.now,
            "events": self.env.events_processed,
            "counter": self.env._counter,
            "spans": [
                (s.span_id, s.parent_id, s.name, s.kind, s.start, s.end,
                 dict(s.annotations or {}))
                for s in self.trace.spans
            ],
            "stores": stores,
            "fabric": (
                dfs.fabric.bytes_transferred,
                dfs.fabric.messages_sent,
                dfs.fabric.partition_drops,
            ),
            "io_rate": self.platform._io_rate,
            "seen": list(self.seen),
        }


def _oracle(world: _World, budget: float, next_read):
    """The pre-chain IO loop: ``realize_budget`` over one ``dfs.read`` per op."""
    platform = world.platform
    env = world.env

    def timed(path, reader, offset, nbytes):
        if nbytes <= 0:
            return
        start = env.now
        yield from world.dfs.read(world.ctx, reader, path, offset=offset, size=nbytes)
        elapsed = env.now - start
        if elapsed > 0:
            platform._io_rate = 0.5 * platform._io_rate + 0.5 * elapsed / nbytes

    def factory(remaining):
        read = next_read(remaining)
        return None if read is None else timed(*read)

    return platform.realize_budget(
        world.ctx, budget, factory, tail_name="io-tail", tail_kind=SpanKind.IO
    )


def _scripted(world: _World, draws):
    """``next_read`` replaying ``draws``: (path, offset, nbytes), None, or
    an exception to raise; past the end of the script it returns None."""
    script = list(draws)

    def next_read(remaining):
        world.seen.append(remaining)
        if not script:
            return None
        item = script.pop(0)
        if isinstance(item, BaseException):
            raise item
        if item is None:
            return None
        path, offset, nbytes = item
        return path, world.reader, offset, nbytes

    return next_read


def _run(world: _World, budget: float, draws, *, chained: bool, during=None):
    """Run one budget; ``during(world)`` is a generator run beside it."""
    next_read = _scripted(world, draws)
    if chained:
        body = world.platform.read_budget(
            world.ctx, budget, next_read, tail_name="io-tail"
        )
    else:
        body = _oracle(world, budget, next_read)
    process = world.env.process(body)
    if during is not None:
        world.env.process(during(world, process))
    world.env.run()
    assert not process.is_alive
    outcome = ("ok",) if process.ok else (type(process.value), str(process.value))
    return outcome, world.surface()


def _differential(budget, draws, during=None, free=False):
    """Both loops on twin worlds; returns the chained world and outcome."""
    chained = _World(free)
    outcome, surface = _run(chained, budget, draws, chained=True, during=during)
    oracle = _World(free)
    expected, reference = _run(oracle, budget, draws, chained=False, during=during)
    assert outcome == expected
    for key in reference:
        assert surface[key] == reference[key], key
    return chained, outcome


def _read_ends(draws):
    """End times of the scripted reads under an unbounded budget."""
    world = _World()
    _run(world, 10.0, draws, chained=False)
    return [s.end for s in world.trace.spans if s.name.startswith("dfs:read")]


#: Four reads crossing chunk boundaries, tiers and both files.
READS = [
    ("/a", 0.0, 3 * CHUNK),
    ("/b", 0.25 * CHUNK, 2.5 * CHUNK),
    ("/a", 2 * CHUNK, 4 * CHUNK),
    ("/b", 3 * CHUNK, 2.5 * CHUNK),
]


def _tails(world):
    return [s for s in world.trace.spans if s.name == "io-tail"]


class TestChainEnds:
    def test_budget_runs_out_exactly_at_a_read_end(self):
        ends = _read_ends(READS)
        world, outcome = _differential(ends[2], READS)
        assert outcome == ("ok",)
        assert world.env.now == ends[2]
        assert not _tails(world)
        # Three reads, one resume: none went through dfs.read.
        assert len(world.seen) == 3 and world.dfs_reads == 0

    def test_next_read_returns_none(self):
        world, outcome = _differential(1.0, READS[:2] + [None])
        assert outcome == ("ok",)
        assert len(_tails(world)) == 1 and world.env.now == 1.0
        assert world.dfs_reads == 0

    def test_zero_byte_draw(self):
        world, _ = _differential(1.0, [READS[0], ("/a", 8 * CHUNK, 0.0), READS[1]])
        # The empty draw stalls the loop: the rest of the budget is tail.
        assert len(world.seen) == 2 and len(_tails(world)) == 1

    def test_read_taking_no_time(self):
        world, _ = _differential(1.0, READS, free=True)
        # The first read made no progress: the budget ends in the tail.
        assert len(world.seen) == 1 and len(_tails(world)) == 1
        assert world.trace.spans[0].start == world.trace.spans[0].end == 0.0

    def test_exhausted_script_and_budget_from_the_start(self):
        _differential(1.0, [])
        world, outcome = _differential(0.0, READS)
        assert outcome == ("ok",) and world.seen == [] and not world.trace.spans

    def test_draw_raising_mid_chain(self):
        world, outcome = _differential(1.0, READS[:2] + [KeyError("draw")])
        assert outcome == (KeyError, "'draw'")

    def test_partition_with_failover(self):
        # Cut rack r1 while the second read is in flight: the third draw
        # sees the partition, the chain hands it back, and dfs.read fails
        # over to the next replica.
        ends = _read_ends(READS)

        def cut(world, _process):
            yield world.env.timeout((ends[0] + ends[1]) / 2)
            world.cut("r1")

        world, outcome = _differential(1.0, READS, during=cut)
        assert outcome == ("ok",)
        failovers = [s.annotations.get("failovers") for s in world.trace.spans]
        assert any(failovers)
        assert world.dfs_reads == 2  # the two reads after the cut

    @pytest.mark.parametrize(
        "offset, legs_before",
        [(0.0, True), (CHUNK, False)],
        ids=["after-completed-legs", "first-chunk"],
    )
    def test_total_partition(self, offset, legs_before):
        # With r1-r3 cut, chunk 1 of /a (replicas 1, 2, 3) is unreachable
        # while chunk 0 still reads from server 0.
        ends = _read_ends(READS)
        draws = READS[:2] + [("/a", offset, 3 * CHUNK)]

        def cut(world, _process):
            yield world.env.timeout((ends[0] + ends[1]) / 2)
            world.cut("r1", "r2", "r3")

        world, outcome = _differential(1.0, draws, during=cut)
        assert outcome[0] is NetworkPartitioned
        error = world.trace.spans[-1]
        assert error.annotations["error"] == "partition"
        assert (error.end > error.start) is legs_before

    def test_fail_server_from_another_process(self):
        ends = _read_ends(READS)

        def fail(world, _process):
            yield world.env.timeout((ends[0] + ends[1]) / 2)
            world.dfs.fail_server(2)

        world, outcome = _differential(1.0, READS, during=fail)
        assert outcome == ("ok",)
        # The reads drawn after the failure took the per-chunk reader.
        assert world.dfs_reads == 2

    def test_interrupt_mid_chain(self):
        # The final leg of the interrupted read still fires (for nobody).
        ends = _read_ends(READS)

        def interrupt(world, process):
            yield world.env.timeout((ends[1] + ends[2]) / 2)
            process.interrupt("query failed")

        world, outcome = _differential(1.0, READS, during=interrupt)
        assert outcome == (Interrupt, "query failed")
        assert len(world.seen) == 3

    @given(
        data=st.lists(
            st.tuples(
                st.sampled_from(["/a", "/b"]),
                st.integers(0, 100),
                st.integers(0, 100),
            ),
            max_size=8,
        ),
        budget=st.floats(1e-4, 0.2),
        fault=st.sampled_from([None, "fail", "cut", "cut-all", "degrade"]),
        at=st.floats(0.0, 0.05),
    )
    @settings(max_examples=60, deadline=None)
    def test_fuzzed_budgets(self, data, budget, fault, at):
        draws = []
        for path, start, length in data:
            size = 8 * CHUNK if path == "/a" else 5.5 * CHUNK
            offset = size * start / 100
            draws.append((path, offset, (size - offset) * length / 100))

        def inject(world, _process):
            yield world.env.timeout(at)
            if fault == "fail":
                world.dfs.fail_server(1)
            elif fault == "cut":
                world.cut("r0")
            elif fault == "cut-all":
                world.cut("r0", "r1", "r2", "r3")
            elif fault == "degrade":
                world.dfs.fabric.degrade_link(
                    TopologySelector(rack=READER_RACK),
                    TopologySelector(rack="r1"),
                    latency_factor=3.0,
                )

        _differential(budget, draws, during=inject if fault else None)


class TestUniformDraw:
    """``x * rng.random()`` replaces ``rng.uniform(0, x)`` in the draws."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        spans=st.lists(
            st.floats(0.0, 1e12, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=20,
        ),
        seeded_by_sequence=st.booleans(),
    )
    @settings(max_examples=200)
    def test_same_bits_and_state(self, seed, spans, seeded_by_sequence):
        if seeded_by_sequence:
            left = np.random.default_rng(np.random.SeedSequence(seed))
            right = np.random.default_rng(np.random.SeedSequence(seed))
        else:
            left = np.random.default_rng(seed)
            right = np.random.default_rng(seed)
        for x in spans:
            expected = float(left.uniform(0, x))
            value = x * right.random()
            assert type(value) is float
            assert np.float64(value).tobytes() == np.float64(expected).tobytes()
            assert left.bit_generator.state == right.bit_generator.state


def _read_everything(env, dfs, reader, path, offset, size):
    trace = Trace(0, "q", env.now)
    ctx = WorkContext(platform="x", trace=trace)
    served = env.run(
        until=env.process(dfs.read(ctx, reader, path, offset=offset, size=size))
    )
    spans = [(s.name, s.start, s.end, dict(s.annotations)) for s in trace.spans]
    return served, spans


def _twin_state(world: _World):
    surface = world.surface()
    return surface["now"], surface["stores"], surface["fabric"]


class TestDfsCachesUnderIdReuse:
    """Per-file and per-reader DFS caches must not outlive their objects.

    Files are deleted and recreated and reader topologies dropped, with a
    collection in between so their ids get reused; every planned read must
    still match the per-chunk reader on a twin DFS.
    """

    def test_recreated_files_and_readers(self):
        planned, per_chunk = _World(), _World()
        per_chunk.dfs.fault_controller = object()  # forces the per-chunk reader
        for round_ in range(6):
            for world in (planned, per_chunk):
                for path in ("/a", "/b"):
                    world.dfs.delete(path)
                gc.collect()
                # New sizes each round move chunk boundaries and tails.
                world.dfs.create("/a", (3 + round_) * CHUNK + 1000.0 * round_)
                world.dfs.create("/b", (7 - round_) * CHUNK + 77.0)
            for path in ("/a", "/b"):
                results = []
                for world in (planned, per_chunk):
                    reader = Topology("us", "us-c0", f"r{round_ % 4}")
                    size = world.dfs.meta(path).size
                    results.append(
                        _read_everything(world.env, world.dfs, reader, path, 0.0, size)
                    )
                    del reader
                    gc.collect()
                assert results[0] == results[1]
            assert _twin_state(planned) == _twin_state(per_chunk)

    def test_route_changes_drop_the_rtt_memo(self):
        planned, per_chunk = _World(), _World()
        per_chunk.dfs.fault_controller = object()
        selectors = (TopologySelector(rack=READER_RACK), TopologySelector(rack="r0"))
        steps = [
            lambda fabric: fabric.degrade_link(*selectors, latency_factor=4.0),
            lambda fabric: fabric.restore_link(fabric._degradations[0]),
            lambda fabric: fabric.heal(fabric.partition(*selectors)),
        ]
        for step in [None, *steps]:
            results = []
            for world in (planned, per_chunk):
                if step is not None:
                    step(world.dfs.fabric)
                results.append(
                    _read_everything(
                        world.env, world.dfs, world.reader, "/a", 0.0, 8 * CHUNK
                    )
                )
            assert results[0] == results[1]
            assert _twin_state(planned) == _twin_state(per_chunk)

"""A Colossus-like distributed file system.

Files are split into fixed-size chunks, each replicated across several
storage servers.  Reads pick the closest live replica (by network locality)
and are served through the server's tiered store; the caller's wall-clock
wait is recorded as an IO span on the query trace.  This is the
"distributed file system and caching layer, which partitions, replicates,
and stores the data" of Section 2.1.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Generator, Sequence

from repro.cluster.network import NetworkFabric, NetworkPartitioned, Topology
from repro.cluster.node import WorkContext
from repro.profiling.dapper import SpanKind
from repro.sim import Environment, Timeout
from repro.storage.device import DeviceKind
from repro.storage.reader import plan_read
from repro.storage.tier import TieredStore

__all__ = ["Chunk", "FileMeta", "StorageServer", "DistributedFileSystem"]

DEFAULT_CHUNK_BYTES = 4 * 1024 * 1024


@dataclass(frozen=True, slots=True)
class Chunk:
    """One replicated chunk of a file."""

    chunk_id: str
    size: float
    replicas: tuple[int, ...]  # storage-server indices


@dataclass
class FileMeta:
    """Metadata for one DFS file."""

    path: str
    size: float
    chunks: list[Chunk] = field(default_factory=list)
    #: Lazily-built prefix bounds (``starts``, ``ends``) for range lookups;
    #: valid because the chunk list is immutable once the file is created.
    _bounds: tuple[list[float], list[float]] | None = field(
        default=None, repr=False, compare=False
    )


@dataclass
class StorageServer:
    """One storage server: a topology location plus a tiered store."""

    index: int
    topology: Topology
    store: TieredStore


class DistributedFileSystem:
    """Chunked, replicated files over a set of storage servers."""

    #: The :class:`~repro.faults.controller.ChaosController` wired to this
    #: file system, if any (recorded by ``ChaosController.for_platform``).
    #: While one is attached every read takes the per-chunk path: a batched
    #: plan resolves replica, tier, and fabric state at plan time and would
    #: skip over faults injected mid-read.
    fault_controller = None

    def __init__(
        self,
        env: Environment,
        fabric: NetworkFabric,
        servers: Sequence[StorageServer],
        *,
        replication: int = 3,
        chunk_bytes: float = DEFAULT_CHUNK_BYTES,
    ):
        if not servers:
            raise ValueError("need at least one storage server")
        if replication < 1:
            raise ValueError("replication must be >= 1")
        if replication > len(servers):
            raise ValueError(
                f"replication {replication} exceeds server count {len(servers)}"
            )
        if chunk_bytes <= 0:
            raise ValueError("chunk_bytes must be positive")
        self.env = env
        self.fabric = fabric
        self.servers = list(servers)
        self.replication = replication
        self.chunk_bytes = chunk_bytes
        self._files: dict[str, FileMeta] = {}
        self._placement = itertools.count()
        self._down: set[int] = set()
        #: Sorted-live-replica lists, nested as id(reader) -> (reader,
        #: {replica tuple: order}).  The order only depends on the down-set,
        #: so the cache is dropped whenever a server fails or recovers.  The
        #: outer entry pins the reader Topology (readers are long-lived node
        #: attributes) so identity keys stay valid and the per-chunk lookup
        #: skips hashing the topology strings.  Entries are shared -- callers
        #: must not mutate the returned lists.
        self._replica_order: dict[int, tuple[Topology, dict]] = {}
        #: Bumped whenever ``_replica_order`` is cleared, so in-flight reads
        #: holding a per-reader sub-dict can notice mid-read failovers.
        self._replica_gen = 0

    # -- failure injection -----------------------------------------------------

    def fail_server(self, index: int) -> None:
        """Mark a storage server down; reads fail over to live replicas."""
        if not 0 <= index < len(self.servers):
            raise IndexError(f"no storage server {index}")
        self._down.add(index)
        self._replica_order.clear()
        self._replica_gen += 1

    def restore_server(self, index: int) -> None:
        self._down.discard(index)
        self._replica_order.clear()
        self._replica_gen += 1

    def is_down(self, index: int) -> bool:
        return index in self._down

    # -- namespace -----------------------------------------------------------

    def create(self, path: str, size: float) -> FileMeta:
        """Create a file and place its chunks round-robin with replication."""
        if path in self._files:
            raise FileExistsError(path)
        if size <= 0:
            raise ValueError("file size must be positive")
        meta = FileMeta(path=path, size=size)
        remaining = size
        index = 0
        while remaining > 0:
            chunk_size = min(self.chunk_bytes, remaining)
            base = next(self._placement)
            replicas = tuple(
                (base + offset) % len(self.servers) for offset in range(self.replication)
            )
            meta.chunks.append(
                Chunk(chunk_id=f"{path}#{index}", size=chunk_size, replicas=replicas)
            )
            remaining -= chunk_size
            index += 1
        self._files[path] = meta
        return meta

    def exists(self, path: str) -> bool:
        return path in self._files

    def meta(self, path: str) -> FileMeta:
        try:
            return self._files[path]
        except KeyError:
            raise FileNotFoundError(path) from None

    def delete(self, path: str) -> None:
        meta = self._files.pop(path, None)
        if meta is None:
            raise FileNotFoundError(path)
        for chunk in meta.chunks:
            for replica in chunk.replicas:
                self.servers[replica].store.invalidate(chunk.chunk_id)

    # -- data path ------------------------------------------------------------

    def _closest_replica(self, chunk: Chunk, reader: Topology) -> StorageServer:
        return self._replicas_by_locality(chunk, reader)[0]

    def _replicas_by_locality(
        self, chunk: Chunk, reader: Topology
    ) -> list[StorageServer]:
        """Live replicas, closest first (ties keep replica-placement order)."""
        per_reader = self._replica_order.get(id(reader))
        if per_reader is not None and per_reader[0] is reader:
            cached = per_reader[1].get(chunk.replicas)
            if cached is not None:
                return cached
        else:
            per_reader = self._replica_order[id(reader)] = (reader, {})
        live = [self.servers[i] for i in chunk.replicas if i not in self._down]
        if not live:
            raise IOError(
                f"all {len(chunk.replicas)} replicas of {chunk.chunk_id} are down"
            )
        # Stable sort: the first element matches what min() picked before the
        # failover loop existed, so clean-run replica selection is unchanged.
        order = sorted(
            live, key=lambda server: reader.locality_to(server.topology).value
        )
        per_reader[1][chunk.replicas] = order
        return order

    def _chunks_for_range(self, meta: FileMeta, offset: float, size: float):
        end = offset + size
        bounds = meta._bounds
        if bounds is None:
            # Same accumulation as the old linear walk, run once per file, so
            # chunk boundaries land on bit-identical floats.
            starts: list[float] = []
            ends: list[float] = []
            position = 0.0
            for chunk in meta.chunks:
                starts.append(position)
                position += chunk.size
                ends.append(position)
            bounds = meta._bounds = (starts, ends)
        starts, ends = bounds
        chunks = meta.chunks
        # First chunk whose end exceeds the range start, then walk forward.
        index = bisect_right(ends, offset)
        while index < len(chunks) and starts[index] < end:
            chunk_start = starts[index]
            chunk_end = ends[index]
            overlap = min(chunk_end, end) - max(chunk_start, offset)
            yield chunks[index], overlap
            index += 1

    def read(
        self,
        ctx: WorkContext,
        reader: Topology,
        path: str,
        *,
        offset: float = 0.0,
        size: float | None = None,
    ) -> Generator:
        """Simulation process: read a byte range; returns bytes served.

        Wall-clock = per-chunk (closest-replica network round trip + device
        time), recorded as one IO span.  Chunks are fetched sequentially,
        modeling a streaming read.

        The whole read is normally resolved up front by
        :func:`repro.storage.reader.plan_read` and executes as one scheduled
        event per tier-contiguous leg plus a single generator resume, on
        timestamps bit-identical to the per-chunk reader's.  Reads that
        could race mid-read state changes -- a nonempty down-set, or an
        attached :attr:`fault_controller` -- take the per-chunk path.
        """
        meta = self.meta(path)
        if size is None:
            size = meta.size - offset
        if offset < 0 or size < 0 or offset + size > meta.size + 1e-9:
            raise ValueError(
                f"range [{offset}, {offset + size}) outside file of {meta.size} bytes"
            )
        if self._down or self.fault_controller is not None:
            return (
                yield from self._read_chunked(ctx, reader, path, meta, offset, size)
            )
        env = self.env
        start = env.now
        plan = plan_read(self, reader, meta, offset, size, start)
        legs = plan.legs
        served = plan.served
        if plan.partitioned is not None:
            if legs:
                # Advance to the last completed chunk's timestamp first so
                # the error span covers the same interval as the per-chunk
                # reader's, then land every deferred tally -- by this time
                # the chunk-by-chunk path would have applied them all.
                yield Timeout(env, 0.0, at=plan.end)
                for leg in legs:
                    leg.apply()
            ctx.record_span(
                f"dfs:read:{path}", SpanKind.IO, start, env.now,
                bytes=served, error="partition",
            )
            raise NetworkPartitioned(
                f"no reachable replica of {plan.partitioned} from {reader}"
            )
        if legs:
            # Interior legs land their deferred tier tallies as bare
            # scheduled callables at the leg boundary; the final leg is the
            # one event this generator resumes on.
            for leg in legs[:-1]:
                env.schedule_call(leg.end, leg.apply)
            final = legs[-1]
            yield Timeout(env, 0.0, at=final.end)
            final.apply()
        tiers_hit = {tier.value: count for tier, count in plan.hits_by_tier.items()}
        annotations = {"bytes": served, "tiers": tiers_hit}
        if plan.failovers:
            annotations["failovers"] = plan.failovers
        ctx.record_span(
            f"dfs:read:{path}", SpanKind.IO, start, env.now, **annotations
        )
        return served

    def _read_chunked(
        self,
        ctx: WorkContext,
        reader: Topology,
        path: str,
        meta: FileMeta,
        offset: float,
        size: float,
    ) -> Generator:
        """The per-chunk reader: one Timeout yield per chunk.

        The path for reads that can interleave with fault injection, and
        the planner's reference oracle in ``tests/test_read_planner.py``.
        """
        env = self.env
        round_trip_time = self.fabric.round_trip_time
        start = env.now
        served = 0.0
        failovers = 0
        hits_by_tier: dict[DeviceKind, int] = {}
        # Hoist the per-reader replica-order sub-dict out of the chunk loop
        # (the reader is fixed for the whole read); the generation counter
        # re-fetches everything if a server fails or recovers mid-read.
        replica_gen = self._replica_gen
        per_reader = self._replica_order.get(id(reader))
        if per_reader is None or per_reader[0] is not reader:
            per_reader = self._replica_order[id(reader)] = (reader, {})
        reader_orders = per_reader[1]
        # Inlined _chunks_for_range: one generator resume per chunk is
        # measurable at this call volume.  write() keeps the shared helper.
        end = offset + size
        bounds = meta._bounds
        if bounds is None:
            starts = []
            chunk_ends = []
            position = 0.0
            for c in meta.chunks:
                starts.append(position)
                position += c.size
                chunk_ends.append(position)
            bounds = meta._bounds = (starts, chunk_ends)
        starts, chunk_ends = bounds
        chunks = meta.chunks
        nchunks = len(chunks)
        index = bisect_right(chunk_ends, offset)
        while index < nchunks and starts[index] < end:
            chunk = chunks[index]
            nbytes = min(chunk_ends[index], end) - max(starts[index], offset)
            index += 1
            if self._replica_gen != replica_gen:
                replica_gen = self._replica_gen
                per_reader = self._replica_order.get(id(reader))
                if per_reader is None or per_reader[0] is not reader:
                    per_reader = self._replica_order[id(reader)] = (reader, {})
                reader_orders = per_reader[1]
            order = reader_orders.get(chunk.replicas)
            if order is None:
                order = self._replicas_by_locality(chunk, reader)
            # Closest replica first; fail over across a partition to the next
            # reachable one (the production DFS reroutes the same way).
            for server in order:
                try:
                    network_time = round_trip_time(
                        reader, server.topology, 256.0, nbytes
                    )
                except NetworkPartitioned:
                    failovers += 1
                    continue
                device_time, tier = server.store.read(chunk.chunk_id, nbytes)
                # Direct Timeout construction == env.timeout() minus the
                # wrapper frame (one per chunk).
                yield Timeout(env, device_time + network_time)
                served += nbytes
                hits_by_tier[tier] = hits_by_tier.get(tier, 0) + 1
                break
            else:
                ctx.record_span(
                    f"dfs:read:{path}", SpanKind.IO, start, self.env.now,
                    bytes=served, error="partition",
                )
                raise NetworkPartitioned(
                    f"no reachable replica of {chunk.chunk_id} from {reader}"
                )
        tiers_hit = {tier.value: count for tier, count in hits_by_tier.items()}
        annotations = {"bytes": served, "tiers": tiers_hit}
        if failovers:
            annotations["failovers"] = failovers
        ctx.record_span(
            f"dfs:read:{path}", SpanKind.IO, start, self.env.now, **annotations
        )
        return served

    def write(
        self,
        ctx: WorkContext,
        writer: Topology,
        path: str,
        size: float,
        *,
        create: bool = True,
    ) -> Generator:
        """Simulation process: write (append) ``size`` bytes with replication.

        Each chunk is written to every replica; replicas are written in
        parallel and the slowest bounds the chunk (chain replication would
        serialize -- we model fan-out replication).
        """
        if create and not self.exists(path):
            self.create(path, size)
        meta = self.meta(path)
        start = self.env.now
        for chunk, nbytes in self._chunks_for_range(meta, 0.0, min(size, meta.size)):
            live_replicas = [r for r in chunk.replicas if r not in self._down]
            if not live_replicas:
                raise IOError(
                    f"all {len(chunk.replicas)} replicas of {chunk.chunk_id} are down"
                )
            slowest = 0.0
            reachable = 0
            for replica in live_replicas:
                server = self.servers[replica]
                try:
                    network_time = self.fabric.round_trip_time(
                        writer, server.topology, nbytes, 128.0
                    )
                except NetworkPartitioned:
                    # Unreachable replica: skipped now, re-replicated later.
                    continue
                device_time = server.store.write(chunk.chunk_id, nbytes)
                slowest = max(slowest, device_time + network_time)
                reachable += 1
            if not reachable:
                ctx.record_span(
                    f"dfs:write:{path}", SpanKind.IO, start, self.env.now,
                    bytes=0.0, error="partition",
                )
                raise NetworkPartitioned(
                    f"no reachable replica of {chunk.chunk_id} from {writer}"
                )
            yield self.env.timeout(slowest)
        ctx.record_span(
            f"dfs:write:{path}", SpanKind.IO, start, self.env.now, bytes=size
        )
        return size

    # -- telemetry -------------------------------------------------------------

    def device_traffic(self, kind: DeviceKind) -> tuple[float, float]:
        """(bytes_read, bytes_written) across all servers for one tier."""
        read = 0.0
        written = 0.0
        for server in self.servers:
            device = {
                DeviceKind.RAM: server.store.ram,
                DeviceKind.SSD: server.store.ssd,
                DeviceKind.HDD: server.store.hdd,
            }[kind]
            read += device.bytes_read
            written += device.bytes_written
        return read, written

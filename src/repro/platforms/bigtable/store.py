"""The BigTable platform simulator."""

from __future__ import annotations

from typing import Generator

from repro.cluster.manager import Cluster, ClusterManager
from repro.cluster.node import WorkContext
from repro.core.profile import PlatformProfile, QueryGroupProfile
from repro.platforms.bigtable.compaction import CompactionManager
from repro.platforms.bigtable.sstable import SSTable
from repro.platforms.bigtable.tablet import Tablet
from repro.platforms.common import PlatformBase, QueryPlan
from repro.profiling.dapper import SpanKind
from repro.sim import Environment
from repro.storage.dfs import DistributedFileSystem, StorageServer
from repro.storage.telemetry import CapacityTelemetry
from repro.storage.tier import TieredStore

__all__ = ["BigTableStore"]

MB = 1024.0 * 1024.0

#: Table 1 provisioning ratio for BigTable (RAM : SSD : HDD = 1 : 16 : 164).
RAM_BYTES = 8 * MB
SSD_BYTES = 16 * RAM_BYTES
HDD_BYTES = 164 * RAM_BYTES


class BigTableStore(PlatformBase):
    """A cluster of tablet servers with remote compaction workers.

    Query kinds: ``get`` (point read through the LSM read path), ``put``
    (WAL + memtable write, with flushes), and ``scan`` (merged range read).
    Remote budget is realized through compaction hand-offs; IO budget
    through DFS reads of SSTable data.
    """

    platform_name = "BigTable"

    def __init__(
        self,
        env: Environment,
        profile: PlatformProfile,
        *,
        cluster: Cluster | None = None,
        telemetry: CapacityTelemetry | None = None,
        tablets: int = 4,
        keys_per_tablet: int = 256,
        **kwargs,
    ):
        super().__init__(env, profile, **kwargs)
        if tablets < 1:
            raise ValueError("need at least one tablet")
        self.cluster = cluster or Cluster(
            env,
            regions=("us-east",),
            racks_per_cluster=3,
            nodes_per_rack=max(2, tablets),
            name_prefix="bigtable",
        )
        nodes = self.cluster.nodes
        if len(nodes) < tablets + 2:
            raise ValueError("cluster too small for tablets plus compaction workers")
        self.manager = ClusterManager(nodes[:tablets])

        servers = [
            StorageServer(
                index=i,
                topology=node.topology,
                store=TieredStore(RAM_BYTES, SSD_BYTES, HDD_BYTES),
            )
            for i, node in enumerate(nodes[:3])
        ]
        self.dfs = DistributedFileSystem(
            env, self.cluster.fabric, servers, replication=3, chunk_bytes=1 * MB
        )
        if telemetry is not None:
            for server in servers:
                telemetry.register(self.platform_name, server.store)

        self.tablets = [
            Tablet(f"tablet{i}", nodes[i % tablets], self.dfs) for i in range(tablets)
        ]
        self.compactor = CompactionManager(
            env, self.cluster.fabric, self.dfs, workers=nodes[tablets : tablets + 2]
        )
        self._seed_tablets(keys_per_tablet)
        self._io_rate = 2e-9

    def _seed_tablets(self, keys_per_tablet: int) -> None:
        """Install an initial L1 SSTable per tablet (pre-loaded dataset)."""
        for index, tablet in enumerate(self.tablets):
            entries = [
                (f"row{index}-{i:06d}", f"value-{i}") for i in range(keys_per_tablet)
            ]
            path = f"/bigtable/{tablet.name}/seed"
            sstable = SSTable(entries, path=path, level=1)
            self.dfs.create(path, max(sstable.size_bytes, 4096.0))
            meta = self.dfs.meta(path)
            for chunk in meta.chunks:
                for replica in chunk.replicas:
                    self.dfs.servers[replica].store._ssd_cache.insert(
                        chunk.chunk_id, chunk.size
                    )
            tablet.sstables.append(sstable)

    # -- workload shape -----------------------------------------------------------

    def default_kind_for(self, group: QueryGroupProfile) -> str:
        roll = float(self.rng.random())
        if group.name == "CPU Heavy":
            return "get" if roll < 0.6 else "put"
        if group.name == "IO Heavy":
            return "scan"
        if group.name == "Remote Work Heavy":
            return "put"
        return "get" if roll < 0.5 else "scan"

    # -- execution -------------------------------------------------------------------

    def _execute(self, ctx: WorkContext, plan: QueryPlan) -> Generator:
        tablet = self.tablets[int(self.rng.integers(len(self.tablets)))]
        if not tablet.node.up:
            # The tablet's server crashed: reload it on a live node before
            # serving (BigTable's master does exactly this reassignment).
            yield from tablet.recover(ctx, self.manager.pick("least_loaded"))
        chunks = self.chunker.chunks(plan.t_cpu)
        overlap_chunks, serial_chunks = self.chunker.split(chunks, plan.overlap_budget)
        dep = self._dependency_phase(ctx, tablet, plan)
        yield from self.overlap_phase(ctx, tablet.node, dep, overlap_chunks, "bigtable")
        yield from self.burn_cpu(ctx, tablet.node, serial_chunks)
        return {"kind": plan.kind, "tablet": tablet.name}

    def _dependency_phase(
        self, ctx: WorkContext, tablet: Tablet, plan: QueryPlan
    ) -> Generator:
        io_start = self.env.now
        yield from self._semantic_op(ctx, tablet, plan)
        semantic_io = self.env.now - io_start
        yield from self.realize_budget(
            ctx,
            plan.t_remote,
            self._remote_op_factory(ctx, tablet),
            tail_name="bigtable:remote-tail",
            tail_kind=SpanKind.REMOTE,
        )
        yield from self.read_budget(
            ctx,
            max(0.0, plan.t_io - semantic_io),
            self._sstable_draw(tablet),
            tail_name="bigtable:io-tail",
        )

    def _semantic_op(self, ctx: WorkContext, tablet: Tablet, plan: QueryPlan) -> Generator:
        index = int(self.rng.integers(4096))
        tablet_index = self.tablets.index(tablet)
        key = f"row{tablet_index}-{index:06d}"
        op = plan.kind if plan.kind in ("put", "scan") else "get"
        if plan.kind == "put":
            yield from tablet.put(ctx, key, f"updated-{index}")
        elif plan.kind == "scan":
            end_index = index + int(self.rng.integers(8, 64))
            yield from tablet.scan(ctx, key, f"row{tablet_index}-{end_index:06d}")
        else:
            yield from tablet.get(ctx, key)
        if self.metrics is not None:
            self.metrics.inc(
                "repro_bigtable_ops_total",
                "Tablet operations completed",
                platform=self.platform_name,
                op=op,
            )

    def _remote_op_factory(self, ctx: WorkContext, tablet: Tablet):
        def factory(remaining: float):
            estimate = self.compactor.estimate_time(tablet)
            if remaining < estimate * 0.6:
                return None
            if self.metrics is not None:
                self.metrics.inc(
                    "repro_bigtable_compactions_total",
                    "Compaction hand-offs launched",
                    platform=self.platform_name,
                )
            return self.compactor.compact(ctx, tablet)

        return factory

    def _sstable_draw(self, tablet: Tablet):
        """``next_read`` for :meth:`read_budget`: one SSTable read per draw."""

        def next_read(remaining: float):
            min_op = 0.15e-3
            if remaining < min_op:
                return None
            candidates = [s for s in tablet.sstables if self.dfs.exists(s.path)]
            if not candidates:
                return None
            # integers(1) is always 0 and leaves the generator's state alone
            # (pinned by a test), so a lone candidate skips the draw.
            if len(candidates) == 1:
                run = candidates[0]
            else:
                run = candidates[int(self.rng.integers(len(candidates)))]
            meta = self.dfs.meta(run.path)
            target = min(remaining * 0.8, 1e-3)
            nbytes = max(4096.0, min(target / self._io_rate, meta.size))
            # uniform(0, x) bit for bit (see BigQueryEngine._scan_draw).
            offset = max(1.0, meta.size - nbytes) * self.rng.random()
            return (
                run.path, tablet.node.topology, offset, min(nbytes, meta.size - offset)
            )

        return next_read

"""The Spanner platform simulator.

Shards a key space across Paxos groups whose leader and followers live on
different racks of a regional deployment.  Serves three query kinds:

* ``read_txn`` -- a 2PL shared-lock read over a shard;
* ``write_txn`` -- a 2PL write committed through the shard's Paxos group
  (plus TrueTime commit wait);
* ``sql_query`` -- a SELECT through the SQL engine over a replicated table.

Each query realizes its calibrated budget: remote seconds through additional
Paxos replication rounds, IO seconds through DFS reads against the shard's
tiered stores (provisioned at the Table 1 ratio 1 : 8 : 90), and CPU seconds
through categorized chunks -- partially overlapped with the dependency phase
per the calibrated sync factor.
"""

from __future__ import annotations

import itertools
from typing import Generator

from repro.cluster.manager import Cluster, ClusterManager
from repro.cluster.node import ServerNode, WorkContext
from repro.core.profile import PlatformProfile, QueryGroupProfile
from repro.platforms.common import PlatformBase, QueryPlan
from repro.platforms.spanner.consensus import PaxosGroup
from repro.platforms.spanner.sql import SqlEngine
from repro.platforms.spanner.transactions import LockManager, Transaction
from repro.platforms.spanner.twophase import ShardParticipant, TwoPhaseCommit
from repro.profiling.dapper import SpanKind
from repro.sim import Environment
from repro.storage.dfs import DistributedFileSystem, StorageServer
from repro.storage.telemetry import CapacityTelemetry
from repro.storage.tier import TieredStore

__all__ = ["SpannerDatabase"]

MB = 1024.0 * 1024.0

#: Table 1 provisioning ratio for Spanner (RAM : SSD : HDD = 1 : 8 : 90).
RAM_BYTES = 16 * MB
SSD_BYTES = 8 * RAM_BYTES
HDD_BYTES = 90 * RAM_BYTES


class SpannerDatabase(PlatformBase):
    """See module docstring."""

    platform_name = "Spanner"

    def __init__(
        self,
        env: Environment,
        profile: PlatformProfile,
        *,
        cluster: Cluster | None = None,
        telemetry: CapacityTelemetry | None = None,
        shards: int = 4,
        rows_per_table: int = 512,
        **kwargs,
    ):
        super().__init__(env, profile, **kwargs)
        if shards < 1:
            raise ValueError("need at least one shard")
        self.cluster = cluster or Cluster(
            env,
            regions=("us-central",),
            racks_per_cluster=3,
            nodes_per_rack=max(2, shards),
            name_prefix="spanner",
        )
        if len(self.cluster) < 3:
            raise ValueError("Spanner needs at least 3 nodes for replication")
        self.manager = ClusterManager(self.cluster.nodes)
        self._txn_ids = itertools.count(1)

        # Shards: each gets a Paxos group across three racks, a lock manager,
        # and a key-value dict.
        nodes = self.cluster.nodes
        self.groups: list[PaxosGroup] = []
        self.locks: list[LockManager] = []
        self.data: list[dict] = []
        for shard in range(shards):
            leader = nodes[shard % len(nodes)]
            followers = [
                nodes[(shard + 1) % len(nodes)],
                nodes[(shard + 2) % len(nodes)],
            ]
            self.groups.append(
                PaxosGroup(
                    env=env,
                    fabric=self.cluster.fabric,
                    name=f"shard{shard}",
                    leader=leader,
                    followers=followers,
                )
            )
            self.locks.append(LockManager(env))
            self.data.append({f"key{i}": i for i in range(rows_per_table)})

        # Distributed storage: one tiered store per rack, Table 1 ratios.
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
        self._table_paths = []
        for shard in range(shards):
            path = f"/spanner/shard{shard}/data"
            self.dfs.create(path, 8 * MB)
            self._table_paths.append(path)
            self._warm(path)
        if telemetry is not None:
            for server in servers:
                telemetry.register(self.platform_name, server.store)

        # SQL layer over an in-memory replicated table.
        self.sql = SqlEngine()
        self.sql.create_table(
            "accounts",
            [
                {"id": i, "balance": (i * 37) % 1000, "region": f"r{i % 5}"}
                for i in range(rows_per_table)
            ],
        )
        self._io_rate = 2e-9  # seconds per byte, refined by observation

    def _warm(self, path: str) -> None:
        """Pre-populate SSD caches so steady-state reads skip cold HDD misses."""
        meta = self.dfs.meta(path)
        for chunk in meta.chunks:
            for replica in chunk.replicas:
                store = self.dfs.servers[replica].store
                store._ssd_cache.insert(chunk.chunk_id, chunk.size)

    # -- workload shape ---------------------------------------------------------

    def default_kind_for(self, group: QueryGroupProfile) -> str:
        roll = float(self.rng.random())
        if group.name == "CPU Heavy":
            return "read_txn" if roll < 0.5 else ("write_txn" if roll < 0.8 else "sql_query")
        if group.name == "IO Heavy":
            return "snapshot_read"
        if group.name == "Remote Work Heavy":
            return "write_txn"
        return "sql_query" if roll < 0.4 else "read_txn"

    # -- execution ----------------------------------------------------------------

    def _execute(self, ctx: WorkContext, plan: QueryPlan) -> Generator:
        node = self.manager.pick("least_loaded")
        shard = int(self.rng.integers(len(self.groups)))

        chunks = self.chunker.chunks(plan.t_cpu)
        overlap_chunks, serial_chunks = self.chunker.split(
            chunks, plan.overlap_budget
        )
        dep = self._dependency_phase(ctx, node, plan, shard)
        yield from self.overlap_phase(ctx, node, dep, overlap_chunks, "spanner")
        yield from self.burn_cpu(ctx, node, serial_chunks)
        return {"kind": plan.kind, "shard": shard}

    def _dependency_phase(
        self, ctx: WorkContext, node: ServerNode, plan: QueryPlan, shard: int
    ) -> Generator:
        """Semantic operation, then remote/IO budget realization."""
        remote_start = self.env.now
        yield from self._semantic_op(ctx, plan, shard)
        semantic_remote = self.env.now - remote_start
        remaining_remote = max(0.0, plan.t_remote - semantic_remote)
        yield from self.realize_budget(
            ctx,
            remaining_remote,
            self._remote_op_factory(ctx, shard),
            tail_name="spanner:remote-tail",
            tail_kind=SpanKind.REMOTE,
        )
        yield from self.read_budget(
            ctx, plan.t_io, self._table_draw(node, shard), tail_name="spanner:io-tail"
        )

    def _participant(self, shard: int) -> ShardParticipant:
        return ShardParticipant(
            shard_id=shard,
            locks=self.locks[shard],
            data=self.data[shard],
            paxos=self.groups[shard],
        )

    def snapshot_read(self, shard: int, keys) -> dict:
        """Bounded-staleness snapshot read: lock-free, leader-lease served."""
        data = self.data[shard]
        return {key: data.get(key) for key in keys}

    def _count_txn(self, scope: str, outcome: str) -> None:
        """Registry-only transaction accounting (no simulation effects)."""
        if self.metrics is not None:
            self.metrics.inc(
                "repro_spanner_txns_total",
                "Spanner transactions by scope and outcome",
                platform=self.platform_name,
                scope=scope,
                outcome=outcome,
            )

    def _semantic_op(self, ctx: WorkContext, plan: QueryPlan, shard: int) -> Generator:
        txn_id = next(self._txn_ids)
        keys = [f"key{int(self.rng.integers(256))}" for _ in range(3)]
        if plan.kind == "write_txn":
            if len(self.groups) > 1 and self.rng.random() < 0.2:
                # Cross-shard write: two-phase commit over two Paxos groups.
                other = (shard + 1) % len(self.groups)
                txn = TwoPhaseCommit(
                    self.env,
                    txn_id,
                    [self._participant(shard), self._participant(other)],
                )
                try:
                    yield from txn.acquire(
                        ctx, {shard: keys[:1], other: keys[1:2]}
                    )
                    txn.buffer_write(shard, keys[0], txn_id)
                    txn.buffer_write(other, keys[1], txn_id)
                    yield from txn.commit(ctx)
                    self._count_txn("cross_shard", "commit")
                except BaseException:
                    txn.abandon()
                    self._count_txn("cross_shard", "abort")
                    raise
            else:
                txn = Transaction(
                    txn_id, self.locks[shard], self.data[shard], self.groups[shard]
                )
                try:
                    yield from txn.acquire(
                        ctx, read_keys=keys[:1], write_keys=keys[1:]
                    )
                    value = txn.read(keys[0])
                    txn.buffer_write(keys[1], value)
                    txn.buffer_write(keys[2], txn_id)
                    yield from txn.commit(ctx)
                    self._count_txn("single_shard", "commit")
                except BaseException:
                    txn.abandon()
                    self._count_txn("single_shard", "abort")
                    raise
        elif plan.kind == "sql_query":
            self.sql.execute(
                "SELECT id, balance FROM accounts WHERE balance > 500 ORDER BY balance DESC LIMIT 10"
            )
        elif plan.kind == "snapshot_read":
            # Lock-free bounded-staleness read (IO-heavy queries).
            self.snapshot_read(shard, keys)
            yield self.env.timeout(0.0)
        else:  # read_txn: strong read through shared locks
            txn = Transaction(txn_id, self.locks[shard], self.data[shard], self.groups[shard])
            try:
                yield from txn.acquire(ctx, read_keys=keys, write_keys=[])
                for key in keys:
                    txn.read(key)
                yield from txn.commit(ctx)
                self._count_txn("read", "commit")
            except BaseException:
                txn.abandon()
                self._count_txn("read", "abort")
                raise

    def _remote_op_factory(self, ctx: WorkContext, shard: int):
        group = self.groups[shard]

        def factory(remaining: float):
            estimate = group.estimate_round_time()
            if remaining < estimate * 0.75:
                return None
            return group.replicate(ctx, {"pace": True}, nbytes=256.0)

        return factory

    def _table_draw(self, node: ServerNode, shard: int):
        """``next_read`` for :meth:`read_budget`: one table-file read per draw."""
        path = self._table_paths[shard]
        meta = self.dfs.meta(path)
        reader = node.topology

        def next_read(remaining: float):
            min_op = 0.15e-3
            if remaining < min_op:
                return None
            target = min(remaining * 0.8, 1e-3)
            nbytes = max(4096.0, min(target / self._io_rate, meta.size / 4))
            # uniform(0, x) bit for bit (see BigQueryEngine._scan_draw).
            offset = (meta.size - nbytes) * self.rng.random()
            return path, reader, offset, nbytes

        return next_read

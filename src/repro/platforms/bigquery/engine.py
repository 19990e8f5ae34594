"""The BigQuery platform simulator."""

from __future__ import annotations

from typing import Generator

import numpy as np

from repro.cluster.manager import Cluster, ClusterManager
from repro.cluster.node import ServerNode, WorkContext
from repro.core.profile import PlatformProfile, QueryGroupProfile
from repro.platforms.bigquery import operators as ops
from repro.platforms.bigquery.columnar import ColumnarTable
from repro.platforms.bigquery.shuffle import ShuffleEngine
from repro.platforms.bigquery.stages import QueryDag, Stage
from repro.platforms.common import PlatformBase, QueryPlan
from repro.profiling.dapper import SpanKind
from repro.sim import Environment
from repro.storage.dfs import DistributedFileSystem, StorageServer
from repro.storage.telemetry import CapacityTelemetry
from repro.storage.tier import TieredStore

__all__ = ["BigQueryEngine"]

MB = 1024.0 * 1024.0

#: Table 1 provisioning ratio for BigQuery (RAM : SSD : HDD = 1 : 7 : 777).
RAM_BYTES = 16 * MB
SSD_BYTES = 7 * RAM_BYTES
HDD_BYTES = 777 * RAM_BYTES

#: Analytics scans are skewed toward recent partitions: most queries touch
#: the hot head of each columnar file, which is what lets the SSD cache
#: absorb re-scans (Section 3: SSD reads outnumber HDD reads).
HOT_FRACTION = 0.06
HOT_SCAN_PROBABILITY = 0.85
#: Scans stream in bounded stripes rather than one giant read.
MAX_SCAN_BYTES = 16 * MB


class BigQueryEngine(PlatformBase):
    """Intermediate-server stages over columnar storage with a shuffle tier.

    Query kinds: ``scan_agg`` (scan -> filter -> aggregate -> compute),
    ``join_query`` (two scans -> shuffle -> hash join -> aggregate), and
    ``sort_query`` (scan -> filter -> sort -> project).  The data plane runs
    for real over small columnar tables; IO budget is realized by scanning
    the (much larger) columnar files in the DFS, remote budget by shuffle
    writes sized from the calibrated per-query bytes.
    """

    platform_name = "BigQuery"

    def __init__(
        self,
        env: Environment,
        profile: PlatformProfile,
        *,
        cluster: Cluster | None = None,
        telemetry: CapacityTelemetry | None = None,
        workers: int = 6,
        dataset_rows: int = 20_000,
        enable_pushdown: bool = False,
        **kwargs,
    ):
        super().__init__(env, profile, **kwargs)
        #: Fuse filters/destructures into their scans (Section 5.4's
        #: "filter pushdowns"): same results, no materialized intermediates.
        self.enable_pushdown = enable_pushdown
        self.cluster = cluster or Cluster(
            env,
            regions=("us-west",),
            racks_per_cluster=3,
            nodes_per_rack=max(3, (workers + 2) // 3 + 1),
            name_prefix="bigquery",
        )
        nodes = self.cluster.nodes
        if len(nodes) < workers + 2:
            raise ValueError("cluster too small for workers plus shuffle servers")
        self.manager = ClusterManager(nodes[:workers])
        self.shuffle = ShuffleEngine(
            env, self.cluster.fabric, nodes[workers : workers + 2]
        )

        servers = [
            StorageServer(
                index=i,
                topology=node.topology,
                store=TieredStore(RAM_BYTES, SSD_BYTES, HDD_BYTES),
            )
            for i, node in enumerate(nodes[:3])
        ]
        self.dfs = DistributedFileSystem(
            env, self.cluster.fabric, servers, replication=3, chunk_bytes=4 * MB
        )
        if telemetry is not None:
            for server in servers:
                telemetry.register(self.platform_name, server.store)

        # Large columnar files on disk (the working set the IO budget scans).
        # The hot head of each file (recent partitions) starts SSD-resident,
        # as it would be in steady state.
        self._column_paths = []
        #: FileMeta per column path, resolved once (the files are immutable
        #: for the engine's lifetime) so scan draws skip the lookup.
        self._column_metas = []
        for column in ("user_id", "country", "revenue", "latency", "status"):
            path = f"/bigquery/events/{column}"
            self.dfs.create(path, 256 * MB)
            self._column_paths.append(path)
            meta = self.dfs.meta(path)
            self._column_metas.append(meta)
            warmed = 0.0
            for chunk in meta.chunks:
                if warmed >= meta.size * HOT_FRACTION:
                    break
                for replica in chunk.replicas:
                    self.dfs.servers[replica].store._ssd_cache.insert(
                        chunk.chunk_id, chunk.size
                    )
                warmed += chunk.size

        # Small in-memory twin of the dataset for the real data plane.
        rng = np.random.default_rng(kwargs.get("seed", 0) + 42)
        self.events = ColumnarTable(
            {
                "user_id": rng.integers(0, 2_000, dataset_rows),
                "country": rng.integers(0, 40, dataset_rows),
                "revenue": rng.uniform(0.0, 100.0, dataset_rows),
                "latency": rng.lognormal(1.0, 0.6, dataset_rows),
                "status": rng.integers(0, 5, dataset_rows),
                "meta.version": rng.integers(1, 4, dataset_rows),
                "meta.source": rng.integers(0, 3, dataset_rows),
            }
        )
        self.users = ColumnarTable(
            {
                "user_id": np.arange(2_000),
                "tier": rng.integers(0, 3, 2_000),
            }
        )
        self.results: list[ColumnarTable] = []
        self._io_rate = 1e-9
        self._shuffle_rate = 1e-9  # seconds per shuffled byte, refined online
        #: Data-plane results for stages whose inputs are engine constants
        #: (the base tables and outputs of other memoized stages).  The
        #: operators are pure, so repeated query shapes replay the cached
        #: table instead of recomputing the join/destructure per query.
        self._plane_memo: dict = {}

    # -- workload shape --------------------------------------------------------------

    def default_kind_for(self, group: QueryGroupProfile) -> str:
        roll = float(self.rng.random())
        if group.name == "CPU Heavy":
            return "scan_agg"
        if group.name == "IO Heavy":
            return "scan_agg" if roll < 0.7 else "sort_query"
        if group.name == "Remote Work Heavy":
            return "join_query"
        return "sort_query" if roll < 0.5 else "scan_agg"

    # -- real data plane ----------------------------------------------------------------

    def _build_dag(self, kind: str) -> QueryDag:
        dag = self._build_logical_dag(kind)
        if not self.enable_pushdown:
            return dag
        # Push single-consumer row-reducing stages into their scans.
        for upstream, downstream in (("scan", "destructure"), ("scan", "filter"),
                                     ("destructure", "filter")):
            try:
                dag = dag.fuse(upstream, downstream)
            except (KeyError, ValueError):
                continue
        return dag

    def _memoized(self, key, fn):
        """Cache a stage function whose inputs are engine-lifetime constants.

        Only valid for stages that do not depend on per-query randomness
        (e.g. the filter threshold): the operators are pure and these stages
        always see the same input tables, so the first query's result can be
        replayed for every later query of the same shape.
        """
        memo = self._plane_memo

        def run(inputs):
            try:
                return memo[key]
            except KeyError:
                result = memo[key] = fn(inputs)
                return result

        return run

    def _build_logical_dag(self, kind: str) -> QueryDag:
        dag = QueryDag()
        threshold = float(self.rng.uniform(20.0, 80.0))
        if kind == "join_query":
            dag.add(Stage("scan_events", lambda _: self.events, shuffle_key="user_id"))
            dag.add(Stage("scan_users", lambda _: self.users, shuffle_key="user_id"))
            dag.add(
                Stage(
                    "join",
                    self._memoized(
                        ("join_query", "join"),
                        lambda inputs: ops.hash_join(inputs[0], inputs[1], on="user_id"),
                    ),
                    inputs=("scan_events", "scan_users"),
                    shuffle_key="tier",
                )
            )
            dag.add(
                Stage(
                    "agg",
                    self._memoized(
                        ("join_query", "agg"),
                        lambda inputs: ops.aggregate(
                            inputs[0], "tier", {"total": ("sum", "revenue")}
                        ),
                    ),
                    inputs=("join",),
                )
            )
        elif kind == "sort_query":
            dag.add(Stage("scan", lambda _: self.events))
            dag.add(
                Stage(
                    "filter",
                    lambda inputs: ops.filter_rows(inputs[0], "revenue", ">", threshold),
                    inputs=("scan",),
                )
            )
            dag.add(
                Stage(
                    "sort",
                    lambda inputs: ops.project(
                        ops.sort_rows(inputs[0], "latency", descending=True),
                        ["user_id", "latency"],
                    ),
                    inputs=("filter",),
                )
            )
        else:  # scan_agg
            dag.add(Stage("scan", lambda _: self.events))
            dag.add(
                Stage(
                    "destructure",
                    self._memoized(
                        ("scan_agg", "destructure"),
                        lambda inputs: ops.destructure(inputs[0], "meta"),
                    ),
                    inputs=("scan",),
                )
            )
            dag.add(
                Stage(
                    "filter",
                    lambda inputs: ops.filter_rows(inputs[0], "revenue", ">", threshold),
                    inputs=("destructure",),
                )
            )
            dag.add(
                Stage(
                    "agg",
                    lambda inputs: ops.aggregate(
                        inputs[0],
                        "country",
                        {"total": ("sum", "revenue"), "n": ("count", "revenue")},
                    ),
                    inputs=("filter",),
                    shuffle_key="country",
                )
            )
            dag.add(
                Stage(
                    "compute",
                    lambda inputs: ops.compute(
                        inputs[0],
                        "avg",
                        lambda t: t.column("total") / np.maximum(t.column("n"), 1),
                    ),
                    inputs=("agg",),
                )
            )
        return dag

    # -- execution -------------------------------------------------------------------------

    def _execute(self, ctx: WorkContext, plan: QueryPlan) -> Generator:
        node = self.manager.pick("least_loaded")
        dag = self._build_dag(plan.kind)
        outputs = dag.execute()  # real data plane (host time, not sim time)
        sink = dag.sinks()[0]
        self.results.append(outputs[sink.name])

        chunks = self.chunker.chunks(plan.t_cpu)
        overlap_chunks, serial_chunks = self.chunker.split(chunks, plan.overlap_budget)
        dep = self._dependency_phase(ctx, node, plan, dag, outputs)
        yield from self.overlap_phase(ctx, node, dep, overlap_chunks, "bigquery")
        yield from self.burn_cpu(ctx, node, serial_chunks)
        return outputs[sink.name]

    def _dependency_phase(
        self,
        ctx: WorkContext,
        node: ServerNode,
        plan: QueryPlan,
        dag: QueryDag,
        outputs: dict,
    ) -> Generator:
        # One real shuffle per shuffling stage, then pace the remote budget.
        remote_start = self.env.now
        for stage in dag.topological_order():
            if stage.shuffle_key is None:
                continue
            table = outputs[stage.name]
            yield from self.shuffle.shuffle_write(
                ctx,
                node,
                table,
                stage.shuffle_key,
                partitions=4,
                nbytes=max(table.size_bytes, 1.0),
            )
            self._count_shuffle(max(table.size_bytes, 1.0))
        semantic_remote = self.env.now - remote_start
        yield from self.realize_budget(
            ctx,
            max(0.0, plan.t_remote - semantic_remote),
            self._remote_op_factory(ctx, node),
            tail_name="bigquery:remote-tail",
            tail_kind=SpanKind.REMOTE,
        )
        yield from self.read_budget(
            ctx, plan.t_io, self._scan_draw(node), tail_name="bigquery:io-tail"
        )

    def _remote_op_factory(self, ctx: WorkContext, node: ServerNode):
        partitions = 4

        def factory(remaining: float):
            min_op = self.shuffle.estimate_time(node, 1 * MB, partitions)
            if remaining < min_op:
                return None
            # Size the shuffle against the observed per-byte rate, aiming
            # below the remaining budget so overshoot stays small.
            target = min(remaining * 0.8, 0.5)
            nbytes = max(1 * MB, min(target / self._shuffle_rate, 4096 * MB))
            return self._timed_shuffle(ctx, node, nbytes, partitions)

        return factory

    def _count_shuffle(self, nbytes: float) -> None:
        """Registry-only shuffle accounting (no simulation effects)."""
        if self.metrics is None:
            return
        self.metrics.inc(
            "repro_bigquery_shuffles_total",
            "Shuffle writes issued",
            platform=self.platform_name,
        )
        self.metrics.inc(
            "repro_bigquery_shuffle_bytes_total",
            "Bytes pushed through the shuffle layer",
            amount=nbytes,
            platform=self.platform_name,
        )

    def _timed_shuffle(
        self, ctx: WorkContext, node: ServerNode, nbytes: float, partitions: int
    ) -> Generator:
        start = self.env.now
        yield from self.shuffle.shuffle_write(
            ctx, node, None, None, partitions, nbytes=nbytes
        )
        elapsed = self.env.now - start
        if elapsed > 0:
            self._shuffle_rate = 0.5 * self._shuffle_rate + 0.5 * elapsed / nbytes
        self._count_shuffle(nbytes)

    def _scan_draw(self, node: ServerNode):
        """``next_read`` for :meth:`read_budget`: one column scan per draw."""
        paths = self._column_paths
        metas = self._column_metas
        n = len(paths)
        rng = self.rng
        reader = node.topology

        def next_read(remaining: float):
            min_op = 5e-3
            if remaining < min_op:
                return None
            index = int(rng.integers(n))
            meta = metas[index]
            target = min(remaining * 0.8, 1.0)
            nbytes = max(4 * MB, min(target / self._io_rate, meta.size, MAX_SCAN_BYTES))
            # x * random() is uniform(0, x) bit for bit, state included
            # (numpy draws low + (high - low) * next_double), minus the
            # argument broadcasting.
            if rng.random() < HOT_SCAN_PROBABILITY:
                offset = max(1.0, meta.size * HOT_FRACTION - nbytes) * rng.random()
            else:
                offset = max(1.0, meta.size - nbytes) * rng.random()
            return paths[index], reader, offset, min(nbytes, meta.size - offset)

        return next_read

"""Deterministic fleet-config fuzzer.

:class:`FleetConfigFuzzer` turns ``(fuzzer seed, config index)`` into a
randomized-but-reproducible :class:`~repro.api.FleetConfig`: platform
mixes (including single-platform and zero-query platforms), per-run
seeds, trace sampling rates, counter jitter, BigQuery dataset sizing,
observability on/off/per-platform scrape periods, parallel worker
counts, seeded fault plans, and the event engine (heap vs columnar).
Config ``i`` depends only on the fuzzer seed and ``i`` -- never on how
many configs were generated before it -- so a failing index from a
selftest log regenerates the exact config without replaying the run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Mapping

import numpy as np

from repro.faults.plan import FaultPlan
from repro.faults.scenarios import NODE_PREFIXES
from repro.workloads.calibration import BIGQUERY, BIGTABLE, PLATFORMS, SPANNER

__all__ = ["FuzzSpace", "FleetConfigFuzzer", "config_to_jsonable"]

#: Rough simulated seconds per query, used to scale fault-plan horizons so
#: generated faults land while queries are in flight (measured once on the
#: calibrated platforms; precision is irrelevant -- late faults simply
#: never fire, which is deterministic too).
MAKESPAN_PER_QUERY: Mapping[str, float] = {
    SPANNER: 4.0e-3,
    BIGTABLE: 2.5e-3,
    BIGQUERY: 8.5,
}


@dataclass(frozen=True)
class FuzzSpace:
    """Bounds of the fuzzed configuration space.

    The defaults keep individual runs sub-second (BigQuery queries cost
    ~1000x the OLTP ones, hence the separate ceiling) while still covering
    every mode axis the differential runner exercises.
    """

    max_oltp_queries: int = 6
    max_bigquery_queries: int = 2
    fault_probability: float = 0.35
    observability_probability: float = 0.5
    max_fault_events: int = 3
    seed_limit: int = 2**16


class FleetConfigFuzzer:
    """Generates seeded, reproducible fleet configs for the selftest."""

    def __init__(self, seed: int = 0, space: FuzzSpace | None = None):
        self.seed = seed
        self.space = space or FuzzSpace()

    def _rng(self, index: int) -> np.random.Generator:
        return np.random.default_rng([self.seed & 0xFFFFFFFF, index])

    def config(self, index: int):
        """The ``index``-th fuzzed config (order-independent, stable)."""
        from repro.api import FleetConfig

        space = self.space
        rng = self._rng(index)

        queries = {
            SPANNER: int(rng.integers(0, space.max_oltp_queries + 1)),
            BIGTABLE: int(rng.integers(0, space.max_oltp_queries + 1)),
            BIGQUERY: int(rng.integers(0, space.max_bigquery_queries + 1)),
        }
        if sum(queries.values()) == 0:
            # An all-idle fleet differentials trivially; force one query in.
            queries[PLATFORMS[int(rng.integers(len(PLATFORMS)))]] = 1
        # Sometimes drop idle platforms from the mapping entirely, so the
        # partial-mapping path (single-platform fleets) gets fuzzed too.
        if rng.random() < 0.5:
            kept = {name: count for name, count in queries.items() if count > 0}
            queries = kept or queries

        observability: Any = None
        if rng.random() < space.observability_probability:
            if rng.random() < 0.3:
                observability = {
                    name: float(period)
                    for name, period in zip(
                        PLATFORMS, rng.uniform(1e-3, 1e-1, size=len(PLATFORMS))
                    )
                }
            else:
                observability = True

        fault_plans = None
        if rng.random() < space.fault_probability:
            fault_plans = self._fault_plans(rng, queries)

        return FleetConfig(
            queries=queries,
            seed=int(rng.integers(space.seed_limit)),
            trace_sample_rate=int(rng.choice([1, 1, 1, 2, 3])),
            counter_jitter=float(rng.choice([0.0, 0.02, 0.05])),
            bigquery_dataset_rows=int(rng.choice([2000, 4000])),
            fault_plans=fault_plans,
            observability=observability,
            max_workers=(None, 2, 3)[int(rng.integers(3))],
            # Drawn last so adding the sharding axis left every earlier
            # field of existing (seed, index) configs unchanged.
            shards=(None, None, 1, 2, 3, "auto")[int(rng.integers(6))],
            # Drawn after shards for the same prefix-stability reason.
            engine=("heap", "columnar")[int(rng.integers(2))],
        )

    def _fault_plans(
        self, rng: np.random.Generator, queries: Mapping[str, int]
    ) -> dict[str, FaultPlan] | None:
        """Seeded fault plans for a random subset of the active platforms."""
        plans: dict[str, FaultPlan] = {}
        space = self.space
        for name, count in queries.items():
            if count == 0 or rng.random() < 0.5:
                continue
            prefix = NODE_PREFIXES[name]
            horizon = MAKESPAN_PER_QUERY[name] * count
            plans[name] = FaultPlan.random(
                int(rng.integers(space.seed_limit)),
                # Indices 1-3 exist on every platform cluster and leave the
                # replication/recovery machinery something to fail over to.
                nodes=[f"{prefix}-{i}" for i in (1, 2, 3)],
                stores=["storage-0", "storage-1", "storage-2"],
                horizon=horizon,
                events=int(rng.integers(1, space.max_fault_events + 1)),
                mean_duration=horizon / 4.0,
            )
        return plans or None

    def configs(self, count: int, *, start: int = 0) -> Iterator[tuple[int, Any]]:
        """Yield ``(index, config)`` for ``count`` consecutive indices."""
        for index in range(start, start + count):
            yield index, self.config(index)


def config_to_jsonable(config) -> dict[str, Any]:
    """A :class:`~repro.api.FleetConfig` as JSON-safe data for verdict logs."""
    queries = config.queries
    if not isinstance(queries, int):
        queries = dict(queries)
    observability = config.observability
    if observability is not None and not isinstance(
        observability, (bool, Mapping, dict)
    ):
        observability = dict(observability.scrape_periods)
    elif isinstance(observability, Mapping):
        observability = dict(observability)
    fault_plans = None
    if config.fault_plans:
        fault_plans = {
            name: plan.to_jsonable() for name, plan in config.fault_plans.items()
        }
    return {
        "queries": queries,
        "seed": config.seed,
        "parallel": config.parallel,
        "max_workers": config.max_workers,
        "shards": config.shards
        if config.shards is None or isinstance(config.shards, (int, str))
        else dict(config.shards),
        "trace_sample_rate": config.trace_sample_rate,
        "counter_jitter": config.counter_jitter,
        "bigquery_dataset_rows": config.bigquery_dataset_rows,
        "observability": observability,
        "fault_plans": fault_plans,
        "engine": config.engine,
    }

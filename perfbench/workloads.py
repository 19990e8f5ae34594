"""The benchmark's workloads: inputs from a seed, one timed body, output checks.

Every workload drives the simulator through ``repro.api`` with default
settings; only the generated config differs.  :func:`run_iteration` runs
the timed body once and then checks its outputs outside the timed region.
Why each workload exists is recorded in ``BENCHMARK.json``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import sqlite3
import time
from dataclasses import dataclass, field

from repro.analysis import (
    figure2_data,
    figure3_data,
    figure4_data,
    figure5_data,
    figure6_data,
    render_tables,
    table1_data,
    table6_data,
    table7_data,
    tables_from_store,
)
from repro.api import (
    DEFAULT_TENANTS,
    FleetConfig,
    ServeConfig,
    TenantProfile,
    build_simulation,
    run_fleet,
    run_service,
)
from repro.profiling.gwp import FleetProfiler
from repro.store import DataProvider, open_store
from repro.workloads.calibration import BIGQUERY, BIGTABLE, PLATFORMS, SPANNER
from repro.workloads.fleet import BIGQUERY_SAMPLE_PERIOD, FLEET_SAMPLE_PERIOD

_FLEET_QUERIES = {
    # The ROADMAP reference mix: BigQuery column scans dominate the events.
    "scan": {SPANNER: 60, BIGTABLE: 60, BIGQUERY: 60},
    # OLTP only: no BigQuery, so the DFS scan plane is bypassed.
    "point": {SPANNER: 1500, BIGTABLE: 1500},
    # OLTP only, like point: a few BigQuery queries made the run's cost
    # vary 10-20% from seed to seed (see INPUTS).
    "store": {SPANNER: 300, BIGTABLE: 300},
}

#: Simulated seconds of one serve stream: 60 one-minute windows.  A run
#: pools at least 6 streams, 360 windows, so p90 has 36 beyond it.
_SERVE_DURATION = 3600.0

#: The default tenants' Spanner and BigTable traffic.  Serve and store
#: leave BigQuery to scan: with it, a stream's ~27 Poisson BigQuery
#: arrivals, or a store mix's 4 BigQuery queries, set most of the cost,
#: which then varied 10-20% from seed to seed even over 4 to 6 inputs.
_OLTP_TENANTS = tuple(
    TenantProfile(
        tenant.name,
        tenant.share,
        {name: weight for name, weight in tenant.mix.items() if name != BIGQUERY},
    )
    for tenant in DEFAULT_TENANTS
)

#: Distinct inputs one run measures, each drawn from the seed, so that
#: the seed-to-seed spread of one input's cost averages out over a run.
#: Scan's second input also adds a fourth iteration to its run, which
#: steadied samples_per_s (IQR/median 0.066 over ten seeds with one).
INPUTS = {"scan": 2, "point": 1, "serve": 4, "store": 4}


def input_seed(workload: str, seed: int, index: int) -> int:
    """The seed of input ``index``; input 0 of a one-input workload is ``seed``."""
    return seed * INPUTS[workload] + index


STORE_FILE = "profile.sqlite"


def fleet_config(workload: str, seed: int) -> FleetConfig:
    return FleetConfig(queries=dict(_FLEET_QUERIES[workload]), seed=seed)


def serve_config(seed: int) -> ServeConfig:
    # One full diurnal cycle with the default flash surge (4x for the
    # middle tenth of the run), at a rate where every window carries work.
    return ServeConfig(
        arrival="flash",
        rate=0.5,
        duration=_SERVE_DURATION,
        diurnal_period=_SERVE_DURATION,
        tenants=_OLTP_TENANTS,
        seed=seed,
    )


def prepare(workload: str, seed: int, workdir: str) -> None:
    """What a user pays before the first result: config and simulation build.

    On every workload that is config resolution and ``build_simulation``;
    the platforms are built inside the timed body, by ``run_fleet`` or by
    the first window of ``run_service``.
    """
    seed = input_seed(workload, seed, 0)
    if workload == "serve":
        # The simulation serve_windows builds before its first window.
        config = serve_config(seed).resolved()
        build_simulation(FleetConfig(
            queries=0,
            seed=config.seed,
            trace_sample_rate=config.trace_sample_rate,
            counter_jitter=config.counter_jitter,
            bigquery_dataset_rows=config.bigquery_dataset_rows,
            engine=config.engine,
        ))
        return
    build_simulation(fleet_config(workload, seed))
    if workload == "store":
        open_store(os.path.join(workdir, "setup-" + STORE_FILE)).close()


@dataclass
class Iteration:
    """One timed body's measurements and the checks on its outputs."""

    wall_s: float
    attempted: int
    #: Peak RSS of the process so far, taken right after the timed body.
    peak_rss_mib: float
    completed: int = 0
    #: Failed queries plus queries still in flight when the run ended.
    failed_queries: int = 0
    failed_by_platform: dict[str, int] = field(default_factory=dict)
    samples: int = 0
    events: int = 0
    sim_s: float = 0.0
    #: Snapshot digest, or None when the iteration was not asked to verify.
    digest: str | None = None
    #: Multiplier taking this iteration's host times to reference-host
    #: times (see hostspeed.py); 1.0 when the iteration was not probed.
    speed: float = 1.0
    #: Which of the run's inputs (see INPUTS) this iteration measured.
    input_index: int = 0
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    window_s: list[float] = field(default_factory=list)
    paper_cells_ok: int = 0
    ingest_call_s: float = 0.0
    tables_s: float = 0.0
    store_rows: int = 0
    span_rows: int = 0
    sample_rows: int = 0
    db_mib: float = 0.0

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))


def _peak_rss_mib() -> float:
    # ru_maxrss is KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _paper_cells_ok(result) -> int:
    cells = []
    for data in (table1_data, table6_data, table7_data, figure2_data,
                 figure3_data, figure4_data, figure5_data, figure6_data):
        cells += data(result)[1]
    return sum(cell.within_tolerance for cell in cells)


def _fleet_outputs(it: Iteration, result, requested: dict[str, int],
                   verify: bool) -> None:
    for name in PLATFORMS:
        platform = result.platforms[name]
        served = platform.queries_served
        failed = sum(record.failed for record in platform.records)
        want = requested.get(name, 0)
        it.failed_by_platform[name] = failed + max(0, want - served)
        it.check(f"served/{name}", served == want, f"{served} of {want} served")
    it.failed_queries = sum(it.failed_by_platform.values())
    it.completed = it.attempted - it.failed_queries
    it.samples = result.profiler.sample_count()
    it.events = sum(p.env.events_processed for p in result.platforms.values())
    it.sim_s = sum(p.env.now for p in result.platforms.values())
    if verify:
        it.digest = hashlib.sha256(repr(result.snapshot()).encode()).hexdigest()
    it.paper_cells_ok = _paper_cells_ok(result)


def _run_fleet(workload: str, seed: int, body, verify) -> Iteration:
    config = fleet_config(workload, seed)
    requested = dict(_FLEET_QUERIES[workload])
    with body():
        began = time.perf_counter()
        result = run_fleet(config)
        wall = time.perf_counter() - began
    it = Iteration(wall, sum(requested.values()), _peak_rss_mib())
    _fleet_outputs(it, result, requested, verify)
    return it


def _run_store(seed: int, workdir: str, body, verify) -> Iteration:
    config = fleet_config("store", seed)
    requested = dict(_FLEET_QUERIES["store"])
    path = os.path.join(workdir, STORE_FILE)
    for suffix in ("", "-wal", "-shm", "-journal"):
        if os.path.exists(path + suffix):
            os.remove(path + suffix)
    with body():
        began = time.perf_counter()
        result = run_fleet(config, store=path)
        ingested = time.perf_counter()
        handle = open_store(path, create=False)
        try:
            tables = tables_from_store(DataProvider(handle))
        finally:
            handle.close()
        done = time.perf_counter()
    it = Iteration(
        done - began, sum(requested.values()), _peak_rss_mib(),
        ingest_call_s=ingested - began, tables_s=done - ingested,
    )
    it.check(
        "store/tables-identical", tables == render_tables(result),
        "tables_from_store differs from render_tables",
    )
    connection = sqlite3.connect(path)
    try:
        names = [row[0] for row in connection.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table'")]
        counts = {
            name: connection.execute(f'SELECT COUNT(*) FROM "{name}"').fetchone()[0]
            for name in names
        }
    finally:
        connection.close()
    it.store_rows = sum(counts.values())
    it.span_rows = counts.get("spans", 0)
    it.sample_rows = counts.get("samples", 0)
    it.db_mib = os.path.getsize(path) / 2**20
    it.check("store/rows", it.span_rows > 0 and it.sample_rows > 0,
             f"{it.span_rows} span rows, {it.sample_rows} sample rows")
    _fleet_outputs(it, result, requested, verify)
    return it


def _run_serve(seed: int, body) -> Iteration:
    config = serve_config(seed)
    cycles_per_sample = FleetProfiler().cpu_hz
    period = {name: FLEET_SAMPLE_PERIOD for name in PLATFORMS}
    period[BIGQUERY] = BIGQUERY_SAMPLE_PERIOD
    digest = hashlib.sha256()
    window_s: list[float] = []
    indices: list[int] = []
    arrived = finished = 0
    failed = {name: 0 for name in PLATFORMS}
    cycles = {name: 0.0 for name in PLATFORMS}
    wall = 0.0
    with body():
        stream = run_service(config)
        while True:
            started = time.perf_counter()
            try:
                snapshot = next(stream)
            except StopIteration:
                wall += time.perf_counter() - started
                break
            window_s.append(time.perf_counter() - started)
            wall += window_s[-1]
            indices.append(snapshot.index)
            arrived += sum(snapshot.arrivals.values())
            finished += sum(snapshot.completed.values())
            for name in PLATFORMS:
                failed[name] += snapshot.failed[name]
                cycles[name] += sum(snapshot.cycles[name].values())
            digest.update(json.dumps(snapshot.to_jsonable(), sort_keys=True).encode())
            last = snapshot
    # serve_windows yields at least one window; the last one says what was
    # still in flight when the stream ended.
    unfinished = sum(last.in_flight.values())
    it = Iteration(
        wall, arrived, _peak_rss_mib(),
        completed=finished - sum(failed.values()),
        failed_queries=sum(failed.values()) + unfinished,
        failed_by_platform={name: failed[name] + last.in_flight[name] for name in PLATFORMS},
        samples=sum(
            round(cycles[name] / (period[name] * cycles_per_sample))
            for name in PLATFORMS
        ),
        events=sum(last.events_processed.values()),
        sim_s=len(PLATFORMS) * last.end,
        digest=digest.hexdigest(),
        window_s=window_s,
    )
    it.check("serve/index-contiguous", indices == list(range(len(indices))),
             "window index values are not 0..n-1")
    it.check("serve/all-served", unfinished == 0 and arrived == finished,
             f"{finished} of {arrived} finished, {unfinished} in flight at end")
    return it


def run_iteration(workload: str, seed: int, index: int, workdir: str, body, *,
                  verify: bool = True) -> Iteration:
    """Run the timed body once on input ``index``; check its outputs afterwards.

    ``body`` is a context-manager factory entered around the timed body
    only (the untraced run samples host speed there, the traced run
    installs its wrappers there), so output checks never run under it.  ``verify=False`` skips the costly fleet snapshot
    digest; every other check still runs.
    """
    gc.collect()
    seed = input_seed(workload, seed, index)
    if workload == "serve":
        it = _run_serve(seed, body)
    elif workload == "store":
        it = _run_store(seed, workdir, body, verify)
    else:
        it = _run_fleet(workload, seed, body, verify)
    it.input_index = index
    it.check("failures", it.failed_queries == 0,
             f"{it.failed_queries} of {it.attempted} queries failed or never completed")
    return it

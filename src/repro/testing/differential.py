"""Differential runner: one config, every mode pair that must agree.

Eight execution-mode axes must not change a single measurement:

* ``parallel`` -- work-stealing worker processes with a deterministic
  merge vs the sequential driver (same shard geometry on both legs);
* ``sharding`` -- the query-granular sharded executors against each
  other: sequential sharded vs the work-stealing pool at a different
  worker count, so worker placement and steal order are exercised;
* ``observability`` -- metrics registry + scraper on vs off (observers
  only read simulation state);
* ``coalescing`` -- CPU-chunk coalescing fast path vs chunk-by-chunk;
* ``engine`` -- the columnar calendar-queue event engine vs the
  reference binary heap (the two engines must agree on *everything*,
  including events processed -- they drain the identical event set);
* ``replay`` -- the same config run twice: seed determinism, and (when
  the config carries fault plans) the chaos-replay ledger against the
  original run's ledger;
* ``service`` -- the open-loop service driver (``repro serve``) run on
  both event engines with the fuzzed config's seed: the rolling
  :class:`~repro.workloads.service.WindowSnapshot` streams must be
  byte-identical as JSON lines;
* ``store`` -- the persistent profile store: the base run ingested into
  two fresh stores must produce row-identical contents (writer
  determinism), an engine-flipped leg ingested alongside must match
  row-for-row (the stored surface inherits engine parity), and reading
  the store back must rehydrate a result whose snapshot is
  byte-identical to the base run's (round-trip fidelity).

:class:`DifferentialRunner` executes the legs for one config and diffs
each against the base run with the structured snapshot differ.  A leg
that *crashes* is a finding too -- the exception is captured into the
pair result instead of tearing down the whole selftest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.testing.diff import Mismatch, diff_snapshots, snapshot

__all__ = ["PairResult", "DifferentialReport", "DifferentialRunner", "MODE_PAIRS"]

MODE_PAIRS = (
    "parallel",
    "sharding",
    "observability",
    "coalescing",
    "engine",
    "replay",
    "service",
    "store",
)

#: Engine bookkeeping that legitimately differs between coalesced and
#: chunk-by-chunk execution: coalescing exists precisely to process fewer
#: simulation events.  Every *measurement* metric must still agree.
_ENGINE_EVENT_METRIC = "repro_sim_events_processed"


def _mask_engine_events(snap: dict) -> dict:
    text = snap.get("prometheus")
    if not isinstance(text, str):
        return snap
    snap = dict(snap)
    snap["prometheus"] = "\n".join(
        line
        for line in text.splitlines()
        if _ENGINE_EVENT_METRIC not in line
    )
    return snap


@dataclass
class PairResult:
    """Verdict for one execution-mode pair of one config."""

    pair: str
    mismatches: list[Mismatch] = field(default_factory=list)
    error: str | None = None

    @property
    def ok(self) -> bool:
        return not self.mismatches and self.error is None

    def to_jsonable(self) -> dict[str, Any]:
        return {
            "pair": self.pair,
            "ok": self.ok,
            "error": self.error,
            "mismatches": [m.to_jsonable() for m in self.mismatches],
        }


@dataclass
class DifferentialReport:
    """All mode-pair verdicts for one config, plus the base run."""

    base: Any
    pairs: list[PairResult]

    @property
    def ok(self) -> bool:
        return all(pair.ok for pair in self.pairs)

    def failing_pairs(self) -> list[PairResult]:
        return [pair for pair in self.pairs if not pair.ok]


class DifferentialRunner:
    """Runs the mode legs for a config and diffs their snapshots.

    ``run`` is injectable (defaults to :func:`repro.api.run_fleet`) so the
    harness itself is testable; ``pairs`` selects a subset of
    :data:`MODE_PAIRS`.
    """

    def __init__(
        self,
        run: Callable[..., Any] | None = None,
        *,
        pairs: Iterable[str] = MODE_PAIRS,
    ):
        if run is None:
            from repro.api import run_fleet

            run = run_fleet
        self._run = run
        self.pairs = tuple(pairs)
        unknown = set(self.pairs) - set(MODE_PAIRS)
        if unknown:
            raise ValueError(f"unknown mode pairs {sorted(unknown)}")

    # -- legs ----------------------------------------------------------------

    def _leg(self, config, **overrides):
        return self._run(config.with_overrides(parallel=False, **overrides))

    def _compare(
        self, pair: str, base_snap: dict, config, ignore=(), transform=None,
        **overrides,
    ) -> PairResult:
        try:
            other = self._leg(config, **overrides)
        except Exception as exc:  # a crashing leg is a verdict, not a bug here
            return PairResult(pair, error=f"{type(exc).__name__}: {exc}")
        other_snap = snapshot(other)
        if transform is not None:
            base_snap, other_snap = transform(base_snap), transform(other_snap)
        return PairResult(
            pair, mismatches=diff_snapshots(base_snap, other_snap, ignore=ignore)
        )

    def run_config(self, config) -> DifferentialReport:
        """Execute every selected mode pair for one config."""
        base = self._leg(config)
        base_snap = snapshot(base)
        results: list[PairResult] = []
        for pair in self.pairs:
            if pair == "parallel":
                results.append(self._pair_parallel(base_snap, config))
            elif pair == "sharding":
                results.append(self._pair_sharding(config))
            elif pair == "observability":
                results.append(self._pair_observability(base_snap, config))
            elif pair == "coalescing":
                results.append(
                    self._compare(
                        "coalescing",
                        base_snap,
                        config,
                        transform=_mask_engine_events,
                        coalesce=False,
                    )
                )
            elif pair == "engine":
                # Flip the engine axis: no masking -- the calendar queue
                # must count the same events the heap engine pops.
                flipped = "heap" if config.engine == "columnar" else "columnar"
                results.append(
                    self._compare("engine", base_snap, config, engine=flipped)
                )
            elif pair == "replay":
                results.append(self._compare("replay", base_snap, config))
            elif pair == "service":
                results.append(self._pair_service(config))
            elif pair == "store":
                results.append(self._pair_store(base, base_snap, config))
        return DifferentialReport(base=base, pairs=results)

    def _pair_store(self, base, base_snap: dict, config) -> PairResult:
        # Three invariants in one pair: (1) ingesting the same result into
        # two fresh stores dumps row-identically (writer determinism);
        # (2) an engine-flipped leg's store rows match the base's -- the
        # stored surface inherits the engine-parity invariant; (3) reading
        # the base's store back rehydrates a snapshot byte-identical to
        # the live one (round-trip fidelity).
        from repro.store import DataProvider, ProfileStore, StoreWriter

        try:
            mismatches: list[Mismatch] = []
            with ProfileStore(":memory:") as store:
                writer = StoreWriter(store)
                provider = DataProvider(store)
                first = writer.ingest_fleet(base, config=config)
                second = writer.ingest_fleet(base, config=config)
                mismatches.extend(provider.delta(first, second))
                flipped = "heap" if config.engine == "columnar" else "columnar"
                other = self._leg(config, engine=flipped)
                third = writer.ingest_fleet(
                    other, config=config.with_overrides(engine=flipped)
                )
                mismatches.extend(provider.delta(first, third))
                rehydrated = snapshot(provider.fleet_result(first))
                mismatches.extend(diff_snapshots(base_snap, rehydrated))
        except Exception as exc:
            return PairResult("store", error=f"{type(exc).__name__}: {exc}")
        return PairResult("store", mismatches=mismatches)

    def _pair_service(self, config) -> PairResult:
        # Service mode has no batch base leg; the pair drives the open-loop
        # window generator itself, once per engine, seeded from the fuzzed
        # config, and diffs the snapshot streams byte-for-byte as JSON
        # lines.  The serve run is deliberately tiny (a flash crowd inside
        # a short diurnal day) so the pair stays cheap per fuzzed config.
        from repro.api import ServeConfig, run_service
        from repro.observability.exporters import window_jsonl

        serve = ServeConfig(
            duration=20.0,
            window=5.0,
            rolling_windows=2,
            arrival="flash",
            rate=0.4,
            diurnal_period=40.0,
            diurnal_amplitude=0.5,
            flash_start=5.0,
            flash_duration=5.0,
            flash_magnitude=3.0,
            agents=2,
            heartbeat_period=0.5,
            seed=getattr(config, "seed", 0),
        )
        try:
            legs = {
                engine: [
                    window_jsonl(snap)
                    for snap in run_service(serve.with_overrides(engine=engine))
                ]
                for engine in ("heap", "columnar")
            }
        except Exception as exc:
            return PairResult("service", error=f"{type(exc).__name__}: {exc}")
        return PairResult(
            "service",
            mismatches=diff_snapshots(
                {"service_windows": legs["heap"]},
                {"service_windows": legs["columnar"]},
            ),
        )

    def _pair_parallel(self, base_snap: dict, config) -> PairResult:
        # Force a real pool (max_workers set skips the auto-fallback
        # heuristic): without this, a small workload or a 1-CPU host would
        # quietly compare the sequential driver with itself.
        overrides = {"parallel": True}
        if config.max_workers is None:
            overrides["max_workers"] = 2
        try:
            parallel = self._run(config.with_overrides(**overrides))
        except Exception as exc:
            return PairResult("parallel", error=f"{type(exc).__name__}: {exc}")
        return PairResult(
            "parallel",
            mismatches=diff_snapshots(base_snap, snapshot(parallel)),
        )

    def _pair_sharding(self, config) -> PairResult:
        # Query-granular shards form their own determinism class (per-query
        # RNG streams), so this pair runs both legs itself rather than
        # diffing against the unsharded base: sequential sharded vs the
        # work-stealing pool at a worker count that forces stealing.
        sharded = config.with_overrides(
            shards=config.shards if config.shards is not None else 2
        )
        try:
            base = self._leg(sharded)
            stolen = self._run(
                sharded.with_overrides(
                    parallel=True, max_workers=sharded.max_workers or 3
                )
            )
        except Exception as exc:
            return PairResult("sharding", error=f"{type(exc).__name__}: {exc}")
        return PairResult(
            "sharding",
            mismatches=diff_snapshots(snapshot(base), snapshot(stolen)),
        )

    def _pair_observability(self, base_snap: dict, config) -> PairResult:
        # Flip the axis: an observed config is re-run dark, an unobserved
        # one is re-run observed.  Either way the measurement surfaces must
        # be byte-identical; only the metrics export itself may differ.
        flipped = None if config.observability not in (None, False) else True
        return self._compare(
            "observability",
            base_snap,
            config,
            ignore=("prometheus",),
            observability=flipped,
        )

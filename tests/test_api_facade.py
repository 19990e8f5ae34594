"""The stable facade: repro.api surface, config unification, shims."""

import dataclasses

import pytest

import repro.api as api
import repro.workloads
from repro.workloads.fleet import FleetSimulation

TINY = {"Spanner": 2, "BigTable": 2, "BigQuery": 2}


class TestPublicSurface:
    def test_every_public_name_resolves(self):
        for name in api.__all__:
            assert getattr(api, name) is not None

    def test_fleet_config_is_frozen(self):
        config = api.FleetConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.seed = 1

    def test_with_overrides_validates_field_names(self):
        config = api.FleetConfig().with_overrides(seed=9, parallel=True)
        assert config.seed == 9 and config.parallel
        with pytest.raises(TypeError):
            api.FleetConfig().with_overrides(not_a_field=1)

    def test_columnar_is_the_default_engine(self):
        assert api.FleetConfig().engine == api.ServeConfig().engine == "columnar"
        assert FleetSimulation().engine == "columnar"


class TestBuildSimulation:
    def test_sequential_by_default(self):
        sim = api.build_simulation(api.FleetConfig(queries=TINY, seed=4))
        assert type(sim) is FleetSimulation
        assert sim.queries == TINY and sim.seed == 4

    def test_parallel_flag_selects_parallel_runner(self):
        from repro.workloads.parallel import ParallelFleetSimulation

        sim = api.build_simulation(
            api.FleetConfig(queries=TINY, parallel=True, max_workers=2)
        )
        assert isinstance(sim, ParallelFleetSimulation)
        assert sim.max_workers == 2

    def test_accepts_mapping_and_overrides(self):
        sim = api.build_simulation({"queries": TINY}, seed=11)
        assert sim.seed == 11
        with pytest.raises(TypeError):
            api.build_simulation(42)


class TestRunFleet:
    def test_matches_direct_simulation(self):
        via_api = api.run_fleet(api.FleetConfig(queries=TINY, seed=6))
        direct = FleetSimulation(queries=TINY, seed=6).run()
        assert [
            (s.platform, s.function, s.cycles) for s in via_api.profiler.samples
        ] == [(s.platform, s.function, s.cycles) for s in direct.profiler.samples]
        for name in TINY:
            assert list(via_api.platforms[name].records) == list(
                direct.platforms[name].records
            )

    def test_progress_channel_receives_rows(self):
        rows = []

        class Sink:
            def put(self, row):
                rows.append(row)

        api.run_fleet(
            api.FleetConfig(queries=TINY, seed=6, observability=True),
            progress=Sink(),
        )
        assert rows
        platforms = {row[0] for row in rows}
        assert platforms == {"Spanner", "BigTable", "BigQuery"}
        name, sim_time, served, samples = rows[-1]
        assert sim_time > 0 and served >= 0 and samples >= 0


class TestReadApi:
    @pytest.fixture(scope="class")
    def observed(self):
        return api.run_fleet(
            api.FleetConfig(queries=TINY, seed=6, observability=True)
        )

    def test_profile_reads(self, observed):
        profile = api.Profile(observed)
        assert set(profile.platforms()) == set(TINY)
        assert profile.sample_count() == sum(
            profile.sample_count(name) for name in TINY
        )
        assert profile.folded()
        assert profile.cycle_breakdown("Spanner") is observed.cycles["Spanner"]
        assert profile.traces(name_contains="Spanner")

    def test_telemetry_reads(self, observed):
        telemetry = api.Telemetry(observed)
        assert telemetry.observed
        assert telemetry.prometheus()
        assert telemetry.series("Spanner").times()
        assert telemetry.counter(
            "repro_queries_total",
            platform="Spanner",
            group=observed.platforms["Spanner"].records[0].group,
            kind=observed.platforms["Spanner"].records[0].kind,
        ) >= 1.0
        p99 = telemetry.quantile(
            "repro_query_latency_seconds", 0.99, platform="Spanner"
        )
        assert p99 > 0
        with pytest.raises(KeyError):
            telemetry.quantile("no_such_metric", 0.5, platform="Spanner")

    def test_telemetry_requires_observed_run(self):
        unobserved = api.run_fleet(api.FleetConfig(queries=TINY, seed=6))
        telemetry = api.Telemetry(unobserved)
        assert not telemetry.observed
        with pytest.raises(ValueError):
            telemetry.prometheus()
        # Capacity rows come from telemetry proper, not the registry.
        assert unobserved.table1_rows()


class TestSweepAndReport:
    def test_sweep_returns_design_points(self):
        result = api.sweep("Spanner", speedup=4.0)
        assert result.targets
        assert result.points
        assert all(value > 0 for _, value in result.points)
        assert bool(result)

    def test_profile_report_rejects_empty_fleet(self):
        empty = {name: 0 for name in TINY}
        with pytest.raises(ValueError, match="no queries"):
            api.profile_report(api.FleetConfig(queries=empty, seed=0))


class TestRemovedShims:
    """The PR-3 deprecation shims are gone: repro.api is the import surface."""

    @pytest.mark.parametrize(
        "name",
        [
            "FleetSimulation",
            "FleetResult",
            "ParallelFleetSimulation",
            "run_parallel",
            "sweep_seeds",
        ],
    )
    def test_old_imports_raise_and_name_the_facade(self, name):
        with pytest.raises(AttributeError, match="repro.api"):
            getattr(repro.workloads, name)

    def test_unknown_attribute_still_raises(self):
        with pytest.raises(AttributeError):
            repro.workloads.definitely_not_a_thing

"""The ``repro selftest`` orchestrator: fuzz, verify, shrink, report.

One selftest run draws ``budget`` configs from the seeded fuzzer and
pushes each through the differential runner (every mode pair that must
agree) and the metamorphic oracle set.  Verdicts stream out as JSON-safe
records (one per config) so CI can persist them as a JSONL artifact; on
the first failing config the shrinker bisects it to a minimal reproducer
and the run stops -- one good reproducer beats twenty redundant red
verdicts, and keeps a broken tree's selftest wall-clock bounded.

Because the fuzzer is order-independent, any failing record can be
regenerated offline from just ``(seed, index)``::

    FleetConfigFuzzer(seed).config(index)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping

from repro.testing.differential import MODE_PAIRS, DifferentialRunner, PairResult
from repro.testing.fuzzer import FleetConfigFuzzer, FuzzSpace, config_to_jsonable
from repro.testing.oracles import (
    DEFAULT_SELFTEST_ORACLES,
    OracleVerdict,
    run_oracles,
)
from repro.testing.shrink import ShrinkResult, shrink_config

__all__ = ["ConfigVerdict", "SelftestReport", "run_selftest"]


@dataclass
class ConfigVerdict:
    """Everything the selftest concluded about one fuzzed config."""

    index: int
    config: dict[str, Any]
    pairs: list[PairResult] = field(default_factory=list)
    oracles: list[OracleVerdict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(p.ok for p in self.pairs) and all(o.ok for o in self.oracles)

    def to_jsonable(self) -> dict[str, Any]:
        return {
            "type": "verdict",
            "index": self.index,
            "ok": self.ok,
            "config": self.config,
            "pairs": [p.to_jsonable() for p in self.pairs],
            "oracles": [o.to_jsonable() for o in self.oracles],
        }


@dataclass
class SelftestReport:
    """The outcome of one selftest run."""

    budget: int
    seed: int
    verdicts: list[ConfigVerdict] = field(default_factory=list)
    #: Set when a failure was found and shrunk: the minimal reproducer.
    reproducer: Any | None = None
    reproducer_from_index: int | None = None
    shrink: ShrinkResult | None = None

    @property
    def ok(self) -> bool:
        return all(v.ok for v in self.verdicts)

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def failures(self) -> list[ConfigVerdict]:
        return [v for v in self.verdicts if not v.ok]

    def summary_jsonable(self) -> dict[str, Any]:
        record: dict[str, Any] = {
            "type": "summary",
            "budget": self.budget,
            "seed": self.seed,
            "configs_run": len(self.verdicts),
            "failures": len(self.failures()),
            "ok": self.ok,
        }
        if self.reproducer is not None:
            record["reproducer"] = config_to_jsonable(self.reproducer)
            record["reproducer_from_index"] = self.reproducer_from_index
        return record


def run_selftest(
    budget: int = 25,
    seed: int = 0,
    *,
    run: Callable[..., Any] | None = None,
    pairs: Iterable[str] = MODE_PAIRS,
    oracles: Iterable[str] = DEFAULT_SELFTEST_ORACLES,
    space: FuzzSpace | None = None,
    start: int = 0,
    shrink: bool = True,
    shrink_evals: int = 24,
    emit: Callable[[dict[str, Any]], None] | None = None,
    progress: Callable[[str], None] | None = None,
    overrides: Mapping[str, Any] | None = None,
) -> SelftestReport:
    """Fuzz ``budget`` configs and differentially verify each one.

    ``emit`` receives one JSON-safe dict per verdict (plus a reproducer
    record on failure and a final summary) -- the JSONL stream.
    ``progress`` receives human-readable one-liners.  ``overrides`` pins
    config axes across every fuzzed config (the CLI's ``--shards`` /
    ``--workers`` pins); the fuzzer still draws the rest.
    The run stops at the first failing config (after shrinking it); a
    clean run executes all ``budget`` configs.
    """
    if budget < 1:
        raise ValueError(f"selftest budget must be >= 1, got {budget}")
    if run is None:
        from repro.api import run_fleet

        run = run_fleet
    oracle_names = tuple(oracles)
    fuzzer = FleetConfigFuzzer(seed, space)
    runner = DifferentialRunner(run, pairs=pairs)
    report = SelftestReport(budget=budget, seed=seed)

    def tell(line: str) -> None:
        if progress is not None:
            progress(line)

    def config_fails(candidate) -> bool:
        """The shrinker's predicate: any pair or oracle rejects it."""
        diff_report = runner.run_config(candidate)
        if not diff_report.ok:
            return True
        return any(
            not verdict.ok
            for verdict in run_oracles(
                candidate, diff_report.base, run=run, oracles=oracle_names
            )
        )

    for index, config in fuzzer.configs(budget, start=start):
        if overrides:
            config = config.with_overrides(**overrides)
        try:
            diff_report = runner.run_config(config)
        except Exception as exc:
            # The *base* leg crashed -- no snapshots to diff, but very much
            # a failure (and a shrinkable one).
            verdict = ConfigVerdict(
                index=index,
                config=config_to_jsonable(config),
                pairs=[
                    PairResult("base", error=f"{type(exc).__name__}: {exc}")
                ],
            )
        else:
            verdict = ConfigVerdict(
                index=index,
                config=config_to_jsonable(config),
                pairs=diff_report.pairs,
                oracles=run_oracles(
                    config, diff_report.base, run=run, oracles=oracle_names
                ),
            )
        report.verdicts.append(verdict)
        if emit is not None:
            emit(verdict.to_jsonable())
        if verdict.ok:
            tell(f"config {index}: ok")
            continue

        bad_pairs = [p.pair for p in verdict.pairs if not p.ok]
        bad_oracles = [o.oracle for o in verdict.oracles if not o.ok]
        tell(
            f"config {index}: FAIL"
            f" (pairs: {', '.join(bad_pairs) or 'none'};"
            f" oracles: {', '.join(bad_oracles) or 'none'})"
        )
        if shrink:
            tell(f"shrinking config {index} (<= {shrink_evals} evals)...")
            result = shrink_config(config, config_fails, max_evals=shrink_evals)
            report.shrink = result
            report.reproducer = result.config
            report.reproducer_from_index = index
            if emit is not None:
                emit(
                    {
                        "type": "reproducer",
                        "from_index": index,
                        "config": config_to_jsonable(result.config),
                        "evals": result.evals,
                        "exhausted": result.exhausted,
                    }
                )
        break

    if emit is not None:
        emit(report.summary_jsonable())
    return report

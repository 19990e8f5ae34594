"""The repo benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload scan --seed 0 --seconds 15 --trace 0

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics: set-up time from fresh probe processes, then the workload's
timed body on each of its inputs (see ``workloads.INPUTS``), input 0 twice
more for the determinism checks, and further passes until ``--seconds``
have passed.  Times are host-speed corrected (``hostspeed.py``) medians
per input, summed over the inputs.  ``--trace 1`` repeats that untraced
pass, then runs input 0 once more with per-layer spans installed (see
``spans.py``) and reports the per-layer metrics.  Metric names and units
come from ``BENCHMARK.json``.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` (queries plus output checks) and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Fresh processes timed for ``setup_s``; the median is reported.
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
#: The per-layer self times; with ``trace.unattributed_s`` they add up to
#: the traced wall.
SHARE_METRICS = (
    "sim.self_s", "cluster.self_s", "storage.self_s",
    "platforms.bigquery.self_s", "platforms.bigtable.self_s",
    "platforms.spanner.self_s", "profiling.self_s", "observability.sketch_s",
    "workloads.self_s", "store.self_s", "analysis.self_s",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("scan", "point", "serve", "store"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(workload: str, seed: int, workdir: str) -> list[float]:
    """Launch-to-ready times of fresh processes that set the workload up.

    Host-speed corrected, like every end-to-end time, by the factor each
    probe process reports for itself.
    """
    probe = os.path.join(HERE, "setup_probe.py")
    times = []
    for _ in range(SETUP_PROBES):
        began = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, probe, workload, str(seed), workdir],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - began
            proc.stdout.close()
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        word, _, factor = line.partition(" ")
        if word != "ready" or code != 0:
            raise RuntimeError(f"set-up probe exited {code} without getting ready")
        times.append(ready * float(factor))
    return times


def schedule(inputs: int):
    """Input order: one pass over every input, input 0 twice more, repeat.

    The first pass runs before any snapshot digest, so the process's peak
    RSS after it belongs to the workload alone; the two repeats of input
    0 are the determinism pair.
    """
    yield from range(inputs)
    yield 0
    yield 0
    while True:
        yield from range(inputs)


def measure(workload: str, seed: int, seconds: float, workdir: str):
    """Untraced iterations until ``seconds`` have passed and the schedule's
    first pass and determinism pair are done."""
    from hostspeed import HostSpeed
    from workloads import INPUTS, run_iteration

    inputs = INPUTS[workload]
    iterations = []
    began = time.perf_counter()
    speed = HostSpeed()
    for count, index in enumerate(schedule(inputs)):
        if count >= inputs + 2 and time.perf_counter() - began >= seconds:
            break
        verify = inputs <= count < inputs + 2
        it = run_iteration(workload, seed, index, workdir, lambda: speed,
                           verify=verify)
        it.speed = speed.factor()
        iterations.append(it)
    return iterations


def determinism_checks(iterations) -> list[tuple[str, bool, str]]:
    """Events, samples and the snapshot digest repeat for the same input."""
    checks = []
    for index in sorted({it.input_index for it in iterations}):
        same = [it for it in iterations if it.input_index == index]
        verified = [it for it in same if it.digest is not None]
        for label in ("events", "samples", "paper_cells_ok", "completed"):
            values = {getattr(it, label) for it in same}
            checks.append((f"repeat/{index}/{label}", len(values) == 1,
                           f"{label} differs across iterations of input {index}"))
        if index == 0:
            digests = {it.digest for it in verified}
            checks.append(("repeat/0/digest", len(verified) >= 2 and len(digests) == 1,
                           "snapshot digest differs across iterations of input 0"))
    return checks


def input_total(iterations, attribute: str, corrected: bool = True) -> float:
    """A time's median per input, summed over inputs; host-speed corrected
    unless ``corrected`` is false."""
    from stats import median

    groups: dict[int, list] = {}
    for it in iterations:
        speed = it.speed if corrected else 1.0
        groups.setdefault(it.input_index, []).append(getattr(it, attribute) * speed)
    return sum(median(values) for values in groups.values())


def end_to_end_metrics(setup_times, iterations, inputs: int) -> dict[str, float]:
    """Host-speed corrected medians per input, summed over the run's inputs."""
    from stats import median

    wall = input_total(iterations, "wall_s")
    first_pass = iterations[:inputs]
    return {
        "setup_s": median(setup_times),
        "wall_s": wall,
        "queries_per_s": sum(it.completed for it in first_pass) / wall,
        "samples_per_s": sum(it.samples for it in first_pass) / wall,
        # After the first pass, before any digest: the workload's own peak.
        "peak_rss_mib": first_pass[-1].peak_rss_mib,
    }


def workload_metrics(iterations, inputs: int) -> tuple[dict[str, float], list]:
    """Metrics that belong to one workload's output (zero elsewhere)."""
    from stats import MIN_BEYOND, median, percentile, samples_beyond

    windows = [w * it.speed for it in iterations for w in it.window_s]
    checks = []
    p50 = p90 = 0.0
    if windows:
        p50 = percentile(windows, 50) * 1e3
        tail_ok = samples_beyond(len(windows), 90) >= MIN_BEYOND
        checks.append(("serve/p90-samples", tail_ok,
                       f"{len(windows)} windows leave fewer than {MIN_BEYOND} beyond p90"))
        if tail_ok:
            p90 = percentile(windows, 90) * 1e3
    first_pass = iterations[:inputs]
    attempted = sum(it.attempted for it in iterations)
    failed = sum(it.failed_queries for it in iterations)
    ingest_s = input_total(iterations, "ingest_call_s")
    return {
        # wall_s next to the raw wall it was corrected from.
        "host.wall_s": input_total(iterations, "wall_s"),
        "host.wall_raw_s": input_total(iterations, "wall_s", corrected=False),
        "host.speed_factor": median([it.speed for it in iterations]),
        "sim_s_per_host_s": (
            sum(it.sim_s for it in first_pass) / input_total(iterations, "wall_s")
        ),
        "window_host_p50_ms": p50,
        "window_host_p90_ms": p90,
        "ingest_rows_per_s": (
            sum(it.store_rows for it in first_pass) / ingest_s if ingest_s else 0.0
        ),
        "tables_s": input_total(iterations, "tables_s"),
        "paper_cells_ok": iterations[0].paper_cells_ok,
        "failed_frac": failed / attempted if attempted else 1.0,
    }, checks


def traced_run(workload, seed, workdir, untraced):
    """One traced iteration; returns its per-layer metrics and parity checks."""
    from spans import BOOKKEEPING, LAYERS, SpanTracer, calibrate, traced
    from stats import median
    from workloads import run_iteration

    costs = calibrate()
    print(f"   span cost (parent/self): call {costs.call_parent * 1e9:.0f}/"
          f"{costs.call_self * 1e9:.0f} ns, resume {costs.resume_parent * 1e9:.0f}/"
          f"{costs.resume_self * 1e9:.0f} ns")
    tracer = SpanTracer(costs=costs)
    it = run_iteration(workload, seed, 0, workdir, lambda: traced(tracer))
    base = next(u for u in untraced if u.input_index == 0 and u.digest is not None)
    checks = [(name, ok, f"traced {detail}") for name, ok, detail in it.checks]
    for label in ("digest", "events", "samples", "completed", "failed_queries",
                  "span_rows", "sample_rows", "store_rows"):
        checks.append((f"parity/{label}", getattr(it, label) == getattr(base, label),
                       f"{label} differs between the traced and untraced runs"))

    def calls(target, layer=None):
        return sum(n for (name, at), n in tracer.calls.items()
                   if name == target and layer in (None, at))

    wall = it.wall_s
    # Everything in the traced wall outside the simulator layers: gaps
    # between root spans, the tracer's own cost and its bookkeeping.
    unattributed = wall - sum(tracer.self_s[layer] for layer in LAYERS)
    accounted = sum(tracer.self_s.values()) + tracer.overhead_s
    checks.append(("trace/stack-closed", not tracer.stack, "spans left open"))
    checks.append(("trace/self-sum", abs(accounted - tracer.root_s) <= 1e-6 * wall,
                   f"self times plus overhead {accounted} != root spans "
                   f"{tracer.root_s}"))
    checks.append(("trace/within-wall", tracer.root_s <= wall,
                   f"root spans {tracer.root_s} exceed the traced wall {wall}"))
    unknown = set(tracer.self_s) - set(LAYERS) - {BOOKKEEPING}
    checks.append(("trace/known-layers", not unknown,
                   f"spans in unknown layers {sorted(unknown)}"))

    chunks = calls("TieredStore.read_planned")
    events = it.events
    metrics = {
        "sim.self_s": tracer.self_s["sim"],
        "sim.events": events,
        "sim.host_ns_per_event": tracer.self_s["sim"] / events * 1e9 if events else 0.0,
        "cluster.self_s": tracer.self_s["cluster"],
        "cluster.rtt_calls": calls("NetworkFabric.round_trip_time")
        + calls("NetworkFabric.transfer_time"),
        "cluster.rpc_calls": calls("rpc_call"),
        "cluster.compute_batches": calls("ServerNode.compute_batch")
        + calls("ServerNode.compute_block"),
        "storage.self_s": tracer.self_s["storage"],
        "storage.reads": calls("DistributedFileSystem.read"),
        "storage.chunks": chunks,
        "storage.legs": tracer.counts["legs"],
        "storage.ram_hit_ratio": tracer.counts["tier.ram"] / chunks if chunks else 0.0,
        "storage.ssd_hit_ratio": tracer.counts["tier.ssd"] / chunks if chunks else 0.0,
        "storage.rtt_per_chunk": (
            tracer.counts["storage_fabric_calls"] / chunks if chunks else 0.0
        ),
    }
    for platform in ("BigQuery", "BigTable", "Spanner"):
        layer = "platforms." + platform.lower()
        metrics[layer + ".self_s"] = tracer.self_s[layer]
        metrics[layer + ".queries"] = calls("PlatformBase.run_query", layer)
        metrics[layer + ".failed"] = it.failed_by_platform.get(platform, 0)
    metrics.update({
        "profiling.self_s": tracer.self_s["profiling"],
        "profiling.samples": it.samples,
        "profiling.spans": tracer.counts["spans"],
        "profiling.breakdown_s": tracer.inclusive_s["trace_breakdown"],
        "observability.sketch_s": tracer.self_s["observability"],
        "workloads.self_s": tracer.self_s["workloads"],
        "workloads.window_self_s": tracer.target_self_s["serve_windows"],
        "store.self_s": tracer.self_s["store"],
        "store.ingest_s": tracer.inclusive_s["StoreWriter.ingest_fleet"],
        "store.span_rows": it.span_rows,
        "store.sample_rows": it.sample_rows,
        "store.db_mib": it.db_mib,
        "store.rehydrate_s": tracer.inclusive_s["DataProvider.fleet_result"],
        "analysis.self_s": tracer.self_s["analysis"],
        "analysis.tables_s": tracer.inclusive_s["render_tables"],
        "trace.wall_s": wall,
        "trace.unattributed_s": unattributed,
        "trace.overhead_ratio": wall / median(
            [u.wall_s for u in untraced if u.input_index == 0]
        ),
    })
    return metrics, checks, it


def load_declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def emit(title: str, values: dict[str, float], units: dict[str, str]) -> None:
    print(f"-- {title}")
    for name, value in values.items():
        print(f"   {name:<28} {value:>16.6g} {units.get(name, '')}")


def run(args, workdir: str) -> dict:
    from workloads import INPUTS

    declared = load_declared()
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    setup_times = measure_setup(args.workload, args.seed, workdir)
    iterations = measure(args.workload, args.seed, args.seconds, workdir)
    checks = determinism_checks(iterations)
    for it in iterations:
        checks += it.checks
    e2e = end_to_end_metrics(setup_times, iterations, INPUTS[args.workload])
    extra, extra_checks = workload_metrics(iterations, INPUTS[args.workload])
    checks += extra_checks
    attempted = sum(it.attempted for it in iterations)
    failed = sum(it.failed_queries for it in iterations)
    print(f"   iterations={len(iterations)} "
          f"raw walls_s={[round(it.wall_s, 4) for it in iterations]} "
          f"host speed factors={[round(it.speed, 3) for it in iterations]} "
          f"setup_s={[round(t, 4) for t in setup_times]}")
    units = {**declared[0], **declared[1]}
    emit("end to end", e2e, units)
    emit("workload outputs (untraced)", extra, units)
    metrics = e2e
    if args.trace:
        layers, trace_checks, traced_it = traced_run(
            args.workload, args.seed, workdir, iterations
        )
        checks += trace_checks
        attempted += traced_it.attempted
        failed += traced_it.failed_queries
        metrics = {**extra, **layers}
        emit("per layer (traced)", layers, units)
        attributed = sum(layers[name] for name in SHARE_METRICS)
        print("-- where traced wall time goes (share of the time spent in "
              "simulator layers)")
        for name in SHARE_METRICS:
            print(f"   {name:<28} {100.0 * layers[name] / attributed:6.1f}%")
        print(f"   in layers {attributed:.3f} s, outside "
              f"{layers['trace.unattributed_s']:.3f} s, traced wall "
              f"{layers['trace.wall_s']:.3f} s, untraced wall "
              f"{layers['trace.wall_s'] / layers['trace.overhead_ratio']:.3f} s")
    missing = set(declared[args.trace]) ^ set(metrics)
    if missing:
        raise RuntimeError(f"metrics and BENCHMARK.json disagree on {sorted(missing)}")
    failed_checks = [f"{name}: {detail}" for name, ok, detail in checks if not ok]
    for line in failed_checks:
        print(f"   CHECK FAILED {line}")
    print(f"   checks={len(checks)} failed_checks={len(failed_checks)}")
    return {
        "correct": not failed_checks,
        "attempted": attempted + len(checks),
        "failed": failed + len(failed_checks),
        "metrics": {
            name: {"value": metrics[name], "unit": declared[args.trace][name]}
            for name in declared[args.trace]
        },
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no simulator sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        report = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
